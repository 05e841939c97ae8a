//! Durable per-server state: an append-only write-ahead log of engine
//! [`Message`]s plus periodic checkpoint snapshots.
//!
//! Layout of a `--data-dir`:
//!
//! * `wal.log` — one record per inbound engine message, framed as
//!   `[u32 len][u32 crc32][payload]` (both big-endian, CRC over the
//!   payload). The payload carries a monotonically increasing sequence
//!   number, the key, the originating endpoint, an optional per-key
//!   strategy override, and the message itself in the same encoding the
//!   wire protocol uses.
//! * `checkpoint.bin` — a point-in-time snapshot of every key's engine
//!   state: one [`KeySnapshot`] row per key (key, strategy, entries,
//!   round-robin positions, coordinator counters, per-key version,
//!   delete tombstones) in the row codec a `Snapshot` answer carries too,
//!   stamped with the highest WAL sequence it covers and a trailing
//!   CRC. Written to `checkpoint.tmp` first,
//!   fsynced, then atomically renamed. The header magic is `PLSCKPT2`;
//!   a file with any other magic counts as absent.
//!
//! Recovery loads the checkpoint (a corrupt one is treated as absent),
//! then replays every WAL record with a sequence *above* the
//! checkpoint's — so a crash between the checkpoint rename and the log
//! truncation is harmless, and replaying twice equals replaying once.
//! The same by-sequence rule lets a checkpoint skip truncation
//! entirely when appends raced its write: the covered prefix lingers
//! in the log (replay drops it) until a quiescent checkpoint reclaims
//! it.
//! A torn tail (partial write, bad CRC, undecodable record) truncates
//! the log at the first bad byte and keeps everything before it; a
//! damaged log never refuses to start.
//!
//! Appends are buffered in the OS page cache; [`Storage::sync`] is a
//! group commit — one `fdatasync` covers every record appended since
//! the last sync, so concurrent writers coalesce (compare
//! `pls_wal_appends_total` with `pls_wal_fsyncs_total`).
//!
//! A *sharded* server (the default — see `--shards`) nests one such
//! layout per shard under `shard-<i>/` subdirectories, opened together
//! by [`open_sharded`]: each shard owns its WAL segment and checkpoint,
//! so group commits and checkpoint writes parallelize across shards. A
//! `shards.meta` marker pins the segment count. A `wal.log` or
//! `checkpoint.bin` at the data-dir root belongs to no shard, and
//! [`open_sharded`] refuses such a dir rather than start without the
//! acknowledged state those files hold.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

pub use pls_core::fnv1a64;
use pls_core::{Message, StrategySpec, Tombstone};
use pls_net::{Endpoint, ServerId};
use pls_telemetry::{Counter, Gauge, SiteStats, TimedMutex};

use crate::error::ClusterError;
use crate::proto::{
    decode_list, decode_msg, decode_snapshot, decode_spec, encode_msg, encode_snapshot,
    encode_spec, Entry,
};
use crate::wire::{Reader, Writer, MAX_FRAME};

/// The write-ahead log file inside a data dir.
pub const WAL_FILE: &str = "wal.log";
/// The checkpoint file inside a data dir.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Scratch name the checkpoint is written to before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Shard-count marker inside a sharded data dir (`shards <N>`),
/// written once the sharded layout is committed. Restarting with a
/// different `--shards` is refused: keys were routed to segments by
/// `hash % N`, so replaying them under a different `N` would scatter
/// them to the wrong shards.
pub const SHARD_META_FILE: &str = "shards.meta";
/// Scratch name the shard meta is written to before the atomic rename.
const SHARD_META_TMP: &str = "shards.meta.tmp";

/// Cap on one WAL record's payload; larger lengths mark a torn/corrupt
/// tail (mirrors the wire frame cap — no legitimate message is bigger).
const MAX_RECORD: usize = MAX_FRAME;

/// Checkpoint header magic: `b"PLSCKPT2"` as a big-endian u64.
const CHECKPOINT_MAGIC: u64 = 0x504C_5343_4B50_5432;

// ---- endpoint wire tags (WAL-only; the RPC protocol never sends one) ----
const EP_CLIENT: u8 = 0;
const EP_SERVER: u8 = 1;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum Ethernet, gzip, and PNG use. Hand-rolled because the WAL
/// must not pull in new dependencies.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Order-independent hash of an entry set: per-entry FNV hashes are
/// bit-mixed and summed, so two servers holding the same set in any
/// order produce the same digest.
pub fn entry_set_hash(entries: &[Entry]) -> u64 {
    entries.iter().fold(0u64, |acc, v| acc.wrapping_add(crate::retry::splitmix64(fnv1a64(v))))
}

/// Order-independent hash of round-robin `(position, entry)` pairs.
pub fn position_set_hash<'a>(pairs: impl Iterator<Item = (u64, &'a Entry)>) -> u64 {
    pairs.fold(0u64, |acc, (pos, v)| acc.wrapping_add(crate::retry::splitmix64(pos ^ fnv1a64(v))))
}

/// Merges two donors' round-robin coordinator counters: the *smallest*
/// head and the *largest* tail win. Tail counts assigned positions, so
/// the largest is freshest; a too-small head merely revisits vacated
/// positions (harmless), while a too-large head would orphan live
/// entries at earlier positions — so disagreeing donors resolve
/// conservatively.
pub fn merge_rr_counters(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
    match (a, b) {
        (Some((h1, t1)), Some((h2, t2))) => Some((h1.min(h2), t1.max(t2))),
        (x, None) => x,
        (None, y) => y,
    }
}

/// One key's engine state: a row of a checkpoint, the answer to a
/// `Snapshot` pull, and what recovery and repair rebuild from. The
/// checkpoint and the answer share one row codec
/// (`proto::encode_snapshot`/`decode_snapshot`), so they hold the same
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySnapshot {
    /// The key.
    pub key: Vec<u8>,
    /// The strategy the key is managed under.
    pub spec: StrategySpec,
    /// Locally stored entries.
    pub entries: Vec<Entry>,
    /// Round-robin `(position, entry)` pairs (empty otherwise).
    pub positions: Vec<(u64, Entry)>,
    /// Round-robin coordinator counters, if held.
    pub counters: Option<(u64, u64)>,
    /// The key's per-key version clock at capture time.
    pub version: u64,
    /// Live delete tombstones at capture time.
    pub tombstones: Vec<(Entry, Tombstone)>,
}

/// One durable WAL record: an inbound engine message with its context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; never reused, even across
    /// checkpoints).
    pub seq: u64,
    /// The key whose engine processed the message.
    pub key: Vec<u8>,
    /// Who the message came from.
    pub from: Endpoint,
    /// Per-key strategy override in effect (when it differs from the
    /// cluster default).
    pub spec: Option<StrategySpec>,
    /// The engine message.
    pub msg: Message<Entry>,
}

/// What [`Storage::open`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// Every key's checkpointed state (empty when no usable checkpoint).
    pub snapshots: Vec<KeySnapshot>,
    /// WAL records *after* the checkpoint, in append order.
    pub records: Vec<WalRecord>,
    /// The highest sequence the checkpoint covers (0 without one).
    pub checkpoint_seq: u64,
    /// Whether a torn/corrupt tail was truncated from the log.
    pub torn: bool,
}

impl Recovered {
    /// True when nothing usable was recovered.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty() && self.records.is_empty()
    }
}

/// The subdirectory holding shard `i`'s WAL segment and checkpoint
/// inside a sharded data dir.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

fn read_shard_meta(root: &Path) -> Option<usize> {
    let raw = fs::read_to_string(root.join(SHARD_META_FILE)).ok()?;
    raw.trim().strip_prefix("shards ")?.trim().parse().ok()
}

fn write_shard_meta(root: &Path, shards: usize) -> Result<(), ClusterError> {
    let tmp = root.join(SHARD_META_TMP);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(format!("shards {shards}\n").as_bytes())?;
        f.sync_data()?;
    }
    fs::rename(&tmp, root.join(SHARD_META_FILE))?;
    if let Ok(d) = File::open(root) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Opens a sharded data directory: one [`Storage`] per `shard-<i>/`
/// subdirectory and what each recovered, both indexed by shard.
///
/// The first open stamps [`SHARD_META_FILE`] with the shard count; later
/// opens with a different count are refused — keys were routed to
/// segments by `hash % N`, and resharding an existing dir is not
/// supported (restart with the recorded count). A dir with a
/// [`WAL_FILE`] or [`CHECKPOINT_FILE`] at its root is refused too: those
/// files belong to no shard, so opening the shards beside them would
/// start the server without the acknowledged state they hold.
///
/// # Errors
///
/// I/O errors opening any segment; [`ClusterError::Config`] on a
/// shard-count mismatch or a root-level log or checkpoint.
pub fn open_sharded(
    root: impl Into<PathBuf>,
    shards: usize,
) -> Result<(Vec<Storage>, Vec<Recovered>), ClusterError> {
    let root = root.into();
    fs::create_dir_all(&root)?;
    if root.join(WAL_FILE).exists() || root.join(CHECKPOINT_FILE).exists() {
        pls_telemetry::warn!("root_level_segment_refused", dir = root.display());
        return Err(ClusterError::Config(pls_core::ConfigError::InvalidParameter(
            "data dir holds a wal.log or checkpoint.bin at its root, which no shard owns; \
             move them into the shard-<i>/ directory they belong to, or point --data-dir \
             at an empty directory",
        )));
    }
    match read_shard_meta(&root) {
        Some(found) if found != shards => {
            pls_telemetry::warn!(
                "shard_count_mismatch",
                dir = root.display(),
                on_disk = found,
                requested = shards
            );
            return Err(ClusterError::Config(pls_core::ConfigError::InvalidParameter(
                "data dir was laid out with a different --shards; restart with the \
                 recorded shard count (resharding an existing data dir is not supported)",
            )));
        }
        Some(_) => {}
        None => write_shard_meta(&root, shards)?,
    }
    let mut storages = Vec::with_capacity(shards);
    let mut recs = Vec::with_capacity(shards);
    for i in 0..shards {
        let (storage, rec) = Storage::open(shard_dir(&root, i))?;
        storages.push(storage);
        recs.push(rec);
    }
    Ok((storages, recs))
}

/// Durability counters, exported as `pls_wal_*_total`.
#[derive(Debug, Default)]
pub struct StorageMetrics {
    /// Records appended to the WAL.
    pub appends: Counter,
    /// `fdatasync` calls actually issued (group commit coalesces, so
    /// this stays at or below `appends`).
    pub fsyncs: Counter,
    /// Records replayed into engines at startup.
    pub replayed: Counter,
    /// Checkpoints written.
    pub checkpoints: Counter,
    /// Size of the last group commit: records one `fdatasync` made
    /// durable at once (exported as `pls_queue_depth{queue="wal_fsync_batch"}`).
    pub fsync_batch: Gauge,
}

struct WalInner {
    file: File,
    /// Sequence the next append gets.
    next_seq: u64,
    /// Highest sequence written to the OS (not necessarily durable).
    appended_seq: u64,
    /// Highest sequence known durable.
    synced_seq: u64,
    /// Appends not covered by a checkpoint, for the checkpoint trigger.
    since_checkpoint: u64,
}

/// A server's durable state: WAL + checkpoint in one data directory.
pub struct Storage {
    dir: PathBuf,
    /// The WAL lock doubles as the group-commit serialization point, so
    /// it is instrumented: its wait histogram is where fsync back-pressure
    /// shows up first (site `wal` in `pls_lock_*`).
    wal: TimedMutex<WalInner>,
    /// Serializes checkpoint writers and remembers the highest sequence
    /// a durable checkpoint covers, so a racing older capture is
    /// dropped instead of regressing the checkpoint file (which would
    /// orphan records a newer checkpoint already truncated).
    ckpt_seq: Mutex<u64>,
    /// Durability counters (appends, fsyncs, replays, checkpoints).
    pub metrics: StorageMetrics,
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage").field("dir", &self.dir).finish_non_exhaustive()
    }
}

impl Storage {
    /// Opens (creating if necessary) a data directory and scans its
    /// contents: the checkpoint is loaded unless corrupt (then treated
    /// as absent), the WAL is scanned up to the first torn/corrupt
    /// record (the tail beyond it is truncated), and records already
    /// covered by the checkpoint are dropped. Never refuses to start
    /// over damaged files — recovery keeps whatever prefix checks out.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or opening/truncating the log.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Storage, Recovered), ClusterError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let (checkpoint_seq, snapshots) = match read_checkpoint(&dir.join(CHECKPOINT_FILE)) {
            Some((seq, snaps)) => (seq, snaps),
            None => (0, Vec::new()),
        };
        let mut file =
            OpenOptions::new().read(true).append(true).create(true).open(dir.join(WAL_FILE))?;
        let (all_records, valid_len, torn) = scan_wal(&mut file)?;
        if torn {
            pls_telemetry::warn!(
                "wal_torn_tail_truncated",
                dir = dir.display(),
                keep_bytes = valid_len
            );
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        let max_seq = all_records.iter().map(|r| r.seq).max().unwrap_or(0).max(checkpoint_seq);
        let records: Vec<WalRecord> =
            all_records.into_iter().filter(|r| r.seq > checkpoint_seq).collect();
        let storage = Storage {
            dir,
            wal: TimedMutex::new(
                "wal",
                WalInner {
                    file,
                    next_seq: max_seq + 1,
                    appended_seq: max_seq,
                    synced_seq: max_seq,
                    since_checkpoint: records.len() as u64,
                },
            ),
            ckpt_seq: Mutex::new(checkpoint_seq),
            metrics: StorageMetrics::default(),
        };
        Ok((storage, Recovered { snapshots, records, checkpoint_seq, torn }))
    }

    /// The data directory this storage lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Contention statistics of the WAL lock (site `wal`), for metrics
    /// export alongside the server's own lock sites.
    pub fn wal_lock_stats(&self) -> &Arc<SiteStats> {
        self.wal.stats()
    }

    /// Appends one record to the WAL (buffered — call [`Storage::sync`]
    /// before acknowledging). Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// I/O errors writing the log.
    pub fn append(
        &self,
        key: &[u8],
        from: Endpoint,
        spec: Option<StrategySpec>,
        msg: &Message<Entry>,
    ) -> Result<u64, ClusterError> {
        let mut inner = self.wal.lock();
        let seq = inner.next_seq;
        let mut w = Writer::new();
        w.u64(seq).bytes(key);
        encode_endpoint(&mut w, from);
        encode_spec(&mut w, &spec);
        encode_msg(&mut w, msg);
        let payload = w.into_payload();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        inner.file.write_all(&frame)?;
        inner.next_seq = seq + 1;
        inner.appended_seq = seq;
        inner.since_checkpoint += 1;
        self.metrics.appends.inc();
        Ok(seq)
    }

    /// Group commit: makes every appended record durable. A no-op when
    /// nothing new was appended since the last sync — so of several
    /// tasks that appended and then call `sync`, the first to get here
    /// fsyncs for all of them and the rest return immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from `fdatasync`.
    pub fn sync(&self) -> Result<(), ClusterError> {
        let mut inner = self.wal.lock();
        if inner.synced_seq >= inner.appended_seq {
            return Ok(());
        }
        self.metrics.fsync_batch.set((inner.appended_seq - inner.synced_seq) as f64);
        inner.file.sync_data()?;
        inner.synced_seq = inner.appended_seq;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    /// Whether enough records accumulated since the last checkpoint to
    /// warrant a new one.
    pub fn should_checkpoint(&self, every: u64) -> bool {
        self.wal.lock().since_checkpoint >= every.max(1)
    }

    /// The highest sequence written to the log so far. Read it under
    /// the same lock that serializes appends (the server's engines
    /// lock) to pair it with an engine snapshot that includes exactly
    /// those records' effects.
    pub fn appended_seq(&self) -> u64 {
        self.wal.lock().appended_seq
    }

    /// Writes a checkpoint covering every record up to `last_seq`, then
    /// truncates the WAL *if no later record exists*. Crash-safe
    /// ordering: the snapshot is written to a scratch file, fsynced,
    /// atomically renamed over the old checkpoint, and only then is the
    /// log truncated — a crash in between leaves records the new
    /// checkpoint already covers, which replay skips by sequence
    /// number.
    ///
    /// `snaps` must describe engine state that includes the effect of
    /// every record up to `last_seq` and of no record after it (the
    /// server captures both atomically under its engines lock, then
    /// calls this with the lock released — checkpoint I/O never stalls
    /// request processing). Records appended while the checkpoint was
    /// being written make the truncation unsafe, so it is skipped: the
    /// covered prefix stays in the log, replay skips it by sequence,
    /// and the next quiescent checkpoint reclaims the space. Concurrent
    /// checkpointers are serialized; a capture older than what the
    /// checkpoint file already covers is dropped.
    ///
    /// # Errors
    ///
    /// I/O errors writing, renaming, or truncating.
    pub fn checkpoint(&self, last_seq: u64, snaps: &[KeySnapshot]) -> Result<(), ClusterError> {
        // Poison is survivable: the value moves only after a durable rename.
        let mut ckpt_seq = self.ckpt_seq.lock().unwrap_or_else(PoisonError::into_inner);
        if last_seq < *ckpt_seq {
            // A newer capture already checkpointed past this one;
            // writing ours would regress `checkpoint.bin` below records
            // the newer checkpoint may have truncated.
            return Ok(());
        }
        let payload = encode_checkpoint(last_seq, snaps);
        let tmp = self.dir.join(CHECKPOINT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&payload)?;
            f.write_all(&crc32(&payload).to_be_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        // Make the rename durable before dropping the log (best-effort:
        // directory fsync is not supported everywhere).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        *ckpt_seq = last_seq;
        let mut inner = self.wal.lock();
        if inner.appended_seq == last_seq {
            inner.file.set_len(0)?;
            inner.file.sync_data()?;
            inner.synced_seq = inner.appended_seq;
            inner.since_checkpoint = 0;
        } else {
            // Appends raced the checkpoint write: their records are not
            // covered, so the log must keep them (and, physically, the
            // covered prefix too — replay drops it by sequence).
            inner.since_checkpoint = inner.appended_seq.saturating_sub(last_seq);
        }
        self.metrics.checkpoints.inc();
        Ok(())
    }
}

fn encode_endpoint(w: &mut Writer, ep: Endpoint) {
    match ep {
        Endpoint::Client(id) => {
            w.u8(EP_CLIENT).u64(id);
        }
        Endpoint::Server(s) => {
            w.u8(EP_SERVER).u32(s.index() as u32);
        }
    }
}

fn decode_endpoint(r: &mut Reader<'_>) -> Result<Endpoint, ClusterError> {
    match r.u8("endpoint tag")? {
        EP_CLIENT => Ok(Endpoint::Client(r.u64("client id")?)),
        EP_SERVER => Ok(Endpoint::Server(ServerId::new(r.u32("server id")?))),
        _ => Err(ClusterError::Decode("endpoint tag")),
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, ClusterError> {
    let mut r = Reader::new(payload);
    let seq = r.u64("wal seq")?;
    let key = r.bytes("wal key")?;
    let from = decode_endpoint(&mut r)?;
    let spec = decode_spec(&mut r)?;
    let msg = decode_msg(&mut r)?;
    r.finish("wal record")?;
    Ok(WalRecord { seq, key, from, spec, msg })
}

/// Scans the whole log, returning every intact record, the byte length
/// of the intact prefix, and whether a torn/corrupt tail follows it.
fn scan_wal(file: &mut File) -> Result<(Vec<WalRecord>, u64, bool), ClusterError> {
    let mut buf = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut buf)?;
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut torn = false;
    while off + 8 <= buf.len() {
        let len = u32::from_be_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(buf[off + 4..off + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD || off + 8 + len > buf.len() {
            torn = true;
            break;
        }
        let payload = &buf[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        match decode_record(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                torn = true;
                break;
            }
        }
        off += 8 + len;
    }
    if off < buf.len() {
        torn = true;
    }
    Ok((records, off as u64, torn))
}

fn encode_checkpoint(last_seq: u64, snaps: &[KeySnapshot]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(CHECKPOINT_MAGIC).u64(last_seq).u32(snaps.len() as u32);
    for snap in snaps {
        encode_snapshot(&mut w, snap);
    }
    w.into_payload()
}

/// Loads a checkpoint; any damage (missing trailing CRC, mismatch,
/// decode error) makes the whole file count as absent — the WAL alone
/// still replays, so a bad checkpoint degrades recovery, never blocks
/// it.
fn read_checkpoint(path: &Path) -> Option<(u64, Vec<KeySnapshot>)> {
    let raw = fs::read(path).ok()?;
    if raw.len() < 4 {
        return None;
    }
    let (payload, crc_bytes) = raw.split_at(raw.len() - 4);
    let stored = u32::from_be_bytes(crc_bytes.try_into().ok()?);
    if crc32(payload) != stored {
        pls_telemetry::warn!("checkpoint_crc_mismatch", path = path.display());
        return None;
    }
    let parsed = (|| -> Result<(u64, Vec<KeySnapshot>), ClusterError> {
        let mut r = Reader::new(payload);
        if r.u64("ckpt magic")? != CHECKPOINT_MAGIC {
            return Err(ClusterError::Decode("ckpt magic"));
        }
        let last_seq = r.u64("ckpt seq")?;
        let snaps = decode_list(&mut r, "ckpt key count", MAX_RECORD / 8, decode_snapshot)?;
        r.finish("checkpoint")?;
        Ok((last_seq, snaps))
    })();
    match parsed {
        Ok(loaded) => Some(loaded),
        Err(err) => {
            pls_telemetry::warn!("checkpoint_unreadable", path = path.display(), err = err);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use pls_net::DetRng;

    use super::*;
    use crate::proto::Response;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pls-storage-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn add(v: &[u8]) -> Message<Entry> {
        Message::AddReq { v: v.to_vec() }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let dir = tmpdir("empty");
        let (storage, rec) = Storage::open(&dir).unwrap();
        assert!(rec.is_empty());
        assert!(!rec.torn);
        assert_eq!(rec.checkpoint_seq, 0);
        drop(storage);
        // Reopening an untouched dir is just as empty.
        let (_, rec) = Storage::open(&dir).unwrap();
        assert!(rec.is_empty());
    }

    #[test]
    fn records_roundtrip_across_reopen() {
        let dir = tmpdir("roundtrip");
        let (storage, _) = Storage::open(&dir).unwrap();
        let s1 = storage.append(b"k", Endpoint::client(7), None, &add(b"e1")).unwrap();
        let s2 = storage
            .append(
                b"k",
                Endpoint::Server(ServerId::new(2)),
                Some(StrategySpec::round_robin(2)),
                &Message::RrStore { v: b"e2".to_vec(), pos: 9 },
            )
            .unwrap();
        assert_eq!((s1, s2), (1, 2));
        storage.sync().unwrap();
        assert_eq!(storage.metrics.appends.get(), 2);
        assert_eq!(storage.metrics.fsyncs.get(), 1);
        assert_eq!(storage.metrics.fsync_batch.get(), 2.0, "one fsync covered both appends");
        // A second sync with nothing new coalesces to a no-op (and the
        // recorded batch size stays that of the last real commit).
        storage.sync().unwrap();
        assert_eq!(storage.metrics.fsyncs.get(), 1);
        assert_eq!(storage.metrics.fsync_batch.get(), 2.0);
        // The WAL lock is an instrumented site.
        assert_eq!(storage.wal_lock_stats().snapshot().contended, 0);
        assert!(storage.wal_lock_stats().snapshot().acquisitions >= 3);
        drop(storage);

        let (_, rec) = Storage::open(&dir).unwrap();
        assert!(!rec.torn);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0].seq, 1);
        assert_eq!(rec.records[0].from, Endpoint::client(7));
        assert_eq!(rec.records[0].msg, add(b"e1"));
        assert_eq!(rec.records[1].spec, Some(StrategySpec::round_robin(2)));
        assert_eq!(rec.records[1].msg, Message::RrStore { v: b"e2".to_vec(), pos: 9 });
    }

    #[test]
    fn double_load_is_idempotent() {
        // Loading never consumes: two opens of the same dir see the
        // same records, and sequences keep rising monotonically.
        let dir = tmpdir("idem");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"a")).unwrap();
        storage.sync().unwrap();
        drop(storage);
        let (storage, first) = Storage::open(&dir).unwrap();
        drop(storage);
        let (storage, second) = Storage::open(&dir).unwrap();
        assert_eq!(first.records, second.records);
        // A post-reload append continues the sequence, never reuses it.
        let seq = storage.append(b"k", Endpoint::client(0), None, &add(b"b")).unwrap();
        assert_eq!(seq, 2);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let dir = tmpdir("torn");
        let (storage, _) = Storage::open(&dir).unwrap();
        for i in 0..5u8 {
            storage.append(b"k", Endpoint::client(0), None, &add(&[i])).unwrap();
        }
        storage.sync().unwrap();
        drop(storage);

        // Simulate a torn write: chop the file mid-record.
        let path = dir.join(WAL_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (storage, rec) = Storage::open(&dir).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.records.len(), 4, "all records before the tear survive");
        // The log was truncated at the tear; appending after recovery
        // yields a clean log again.
        storage.append(b"k", Endpoint::client(0), None, &add(b"post")).unwrap();
        storage.sync().unwrap();
        drop(storage);
        let (_, rec) = Storage::open(&dir).unwrap();
        assert!(!rec.torn);
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.records[4].msg, add(b"post"));
    }

    #[test]
    fn corrupt_mid_record_crc_truncates_from_there() {
        let dir = tmpdir("crc");
        let (storage, _) = Storage::open(&dir).unwrap();
        let mut offsets = Vec::new();
        let mut off = 0u64;
        for i in 0..5u8 {
            offsets.push(off);
            storage.append(b"key", Endpoint::client(0), None, &add(&[i])).unwrap();
            off = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        }
        storage.sync().unwrap();
        drop(storage);

        // Flip one payload byte inside record 2 (0-based): its CRC
        // breaks, so it and everything after must be dropped.
        let path = dir.join(WAL_FILE);
        let mut raw = fs::read(&path).unwrap();
        let corrupt_at = offsets[2] as usize + 8 + 2;
        raw[corrupt_at] ^= 0xFF;
        fs::write(&path, &raw).unwrap();

        let (_, rec) = Storage::open(&dir).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.records.len(), 2, "records before the corruption survive");
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            offsets[2],
            "the log is truncated at the first bad record"
        );
    }

    #[test]
    fn checkpoint_truncates_the_log_and_replay_skips_covered_seqs() {
        let dir = tmpdir("ckpt");
        let (storage, _) = Storage::open(&dir).unwrap();
        for i in 0..3u8 {
            storage.append(b"k", Endpoint::client(0), None, &add(&[i])).unwrap();
        }
        storage.sync().unwrap();
        let snaps = vec![KeySnapshot {
            key: b"k".to_vec(),
            spec: StrategySpec::full_replication(),
            entries: vec![vec![0], vec![1], vec![2]],
            positions: Vec::new(),
            counters: None,
            version: 3,
            tombstones: vec![(b"gone".to_vec(), Tombstone { version: 2, born_ms: 1234 })],
        }];
        storage.checkpoint(storage.appended_seq(), &snaps).unwrap();
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        // Records appended after the checkpoint keep their sequence.
        storage.append(b"k", Endpoint::client(0), None, &add(b"late")).unwrap();
        storage.sync().unwrap();
        drop(storage);

        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.checkpoint_seq, 3);
        assert_eq!(rec.snapshots, snaps);
        assert_eq!(rec.records.len(), 1, "only the post-checkpoint record replays");
        assert_eq!(rec.records[0].seq, 4);
    }

    #[test]
    fn checkpoint_only_recovery_with_empty_log() {
        let dir = tmpdir("ckptonly");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.append(b"rr", Endpoint::client(0), None, &add(b"x")).unwrap();
        let snaps = vec![KeySnapshot {
            key: b"rr".to_vec(),
            spec: StrategySpec::round_robin(2),
            entries: vec![b"x".to_vec()],
            positions: vec![(0, b"x".to_vec())],
            counters: Some((0, 1)),
            version: 1,
            tombstones: Vec::new(),
        }];
        storage.checkpoint(storage.appended_seq(), &snaps).unwrap();
        drop(storage);
        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.snapshots, snaps);
        assert!(rec.records.is_empty());
        assert!(!rec.torn);
    }

    #[test]
    fn corrupt_checkpoint_counts_as_absent_but_wal_still_replays() {
        let dir = tmpdir("badckpt");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"a")).unwrap();
        storage.checkpoint(storage.appended_seq(), &[]).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"b")).unwrap();
        storage.sync().unwrap();
        drop(storage);

        // Flip a checkpoint byte: its CRC fails, so recovery must treat
        // it as absent and fall back to replaying the whole log — which
        // here holds only the post-checkpoint record, and that is fine:
        // a damaged checkpoint degrades recovery, it never blocks it.
        let path = dir.join(CHECKPOINT_FILE);
        let mut raw = fs::read(&path).unwrap();
        raw[8] ^= 0xFF;
        fs::write(&path, &raw).unwrap();

        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.checkpoint_seq, 0);
        assert!(rec.snapshots.is_empty());
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].msg, add(b"b"));
    }

    #[test]
    fn checkpoint_racing_an_append_keeps_the_uncovered_record() {
        // A checkpoint captured at seq 2 finishes writing after a third
        // record was appended: truncating would lose record 3, so the
        // log must be kept whole and the record must survive reopen.
        let dir = tmpdir("race");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"a")).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"b")).unwrap();
        let captured = storage.appended_seq();
        storage.append(b"k", Endpoint::client(0), None, &add(b"late")).unwrap();
        storage.sync().unwrap();
        storage.checkpoint(captured, &[]).unwrap();
        assert!(
            fs::metadata(dir.join(WAL_FILE)).unwrap().len() > 0,
            "truncation must be skipped when later records exist"
        );
        assert!(storage.should_checkpoint(1), "the uncovered record still counts");
        drop(storage);

        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.checkpoint_seq, 2);
        assert_eq!(rec.records.len(), 1, "only the uncovered record replays");
        assert_eq!(rec.records[0].msg, add(b"late"));
    }

    #[test]
    fn stale_checkpoint_capture_cannot_regress_a_newer_one() {
        let dir = tmpdir("stale");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"a")).unwrap();
        let old_capture = storage.appended_seq();
        storage.append(b"k", Endpoint::client(0), None, &add(b"b")).unwrap();
        storage.sync().unwrap();
        let fresh = vec![KeySnapshot {
            key: b"k".to_vec(),
            spec: StrategySpec::full_replication(),
            entries: vec![b"a".to_vec(), b"b".to_vec()],
            positions: Vec::new(),
            counters: None,
            version: 2,
            tombstones: Vec::new(),
        }];
        storage.checkpoint(storage.appended_seq(), &fresh).unwrap();
        // The stale capture arrives late: it must be dropped, not
        // renamed over the newer checkpoint (whose records the WAL no
        // longer holds).
        storage.checkpoint(old_capture, &[]).unwrap();
        drop(storage);

        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.checkpoint_seq, 2);
        assert_eq!(rec.snapshots, fresh);
        assert!(rec.records.is_empty());
    }

    #[test]
    fn a_panic_under_the_checkpoint_lock_does_not_stop_checkpoints() {
        let dir = tmpdir("ckpt-poison");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"a")).unwrap();
        storage.sync().unwrap();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = storage.ckpt_seq.lock().unwrap();
                panic!("checkpointer dies");
            });
            assert!(holder.join().is_err(), "the holder panicked");
        });
        assert!(storage.ckpt_seq.is_poisoned());
        storage.checkpoint(storage.appended_seq(), &[]).unwrap();
        assert_eq!(storage.metrics.checkpoints.get(), 1);
        drop(storage);

        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.checkpoint_seq, 1);
        assert!(rec.records.is_empty());
    }

    #[test]
    fn versioned_checkpoint_roundtrips_version_and_tombstones() {
        let dir = tmpdir("vckpt");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"a")).unwrap();
        storage.sync().unwrap();
        let snaps = vec![KeySnapshot {
            key: b"k".to_vec(),
            spec: StrategySpec::random_server(2),
            entries: vec![b"a".to_vec()],
            positions: Vec::new(),
            counters: None,
            version: 9,
            tombstones: vec![
                (b"dead".to_vec(), Tombstone { version: 8, born_ms: 1_700_000_000_000 }),
                (b"older".to_vec(), Tombstone { version: 3, born_ms: 0 }),
            ],
        }];
        storage.checkpoint(storage.appended_seq(), &snaps).unwrap();
        drop(storage);
        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.snapshots, snaps);
    }

    /// An empty entry one time in four, a 200-byte one one time in four,
    /// a short one otherwise.
    fn entry(rng: &mut DetRng) -> Entry {
        let len = match rng.below(4) {
            0 => 0,
            1 => 200,
            _ => 1 + rng.below(16),
        };
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// A row under the strategy `case` picks (all five in turn), with
    /// Round-Robin positions and, at a coordinator, counters.
    fn random_snapshot(case: usize, rng: &mut DetRng) -> KeySnapshot {
        let x = 1 + rng.below(5);
        let spec = [
            StrategySpec::full_replication(),
            StrategySpec::fixed(x),
            StrategySpec::random_server(x),
            StrategySpec::round_robin(x),
            StrategySpec::hash(x),
        ][case % 5];
        let round = matches!(spec, StrategySpec::RoundRobin { .. });
        let entries = (0..rng.below(6)).map(|_| entry(rng)).collect();
        let n_positions = if round { rng.below(6) } else { 0 };
        let positions = (0..n_positions).map(|_| (rng.next_u64(), entry(rng))).collect();
        let counters = (round && rng.coin_flip(0.5)).then(|| (rng.next_u64(), rng.next_u64()));
        let tombstone =
            |rng: &mut DetRng| Tombstone { version: rng.next_u64(), born_ms: rng.next_u64() };
        let tombstones = (0..rng.below(4)).map(|_| (entry(rng), tombstone(rng))).collect();
        KeySnapshot {
            key: entry(rng),
            spec,
            entries,
            positions,
            counters,
            version: rng.next_u64(),
            tombstones,
        }
    }

    /// One row codec, two files: a snapshot comes back unchanged from a
    /// `Snapshot` answer and from a checkpoint.
    #[test]
    fn a_snapshot_round_trips_through_the_answer_and_the_checkpoint() {
        let mut rng = DetRng::seed_from(0x5EED_C0DE);
        let snaps: Vec<KeySnapshot> =
            (0..256).map(|case| random_snapshot(case, &mut rng)).collect();
        for (case, snap) in snaps.iter().enumerate() {
            let answer = Response::Snapshot(Some(snap.clone()));
            assert_eq!(Response::decode(&answer.encode()), Ok(answer), "case {case}");
        }
        for absent in [Response::Snapshot(None), Response::Digest(None)] {
            assert_eq!(Response::decode(&absent.encode()), Ok(absent));
        }
        let dir = tmpdir("codec");
        let (storage, _) = Storage::open(&dir).unwrap();
        storage.checkpoint(0, &snaps).unwrap();
        drop(storage);
        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.snapshots.len(), snaps.len(), "the checkpoint must read back");
        for (case, (back, snap)) in rec.snapshots.iter().zip(&snaps).enumerate() {
            assert_eq!(back, snap, "case {case}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn versioned_wal_records_roundtrip() {
        // The WAL shares the wire codec, so a Versioned wrapper rides
        // through append/replay unchanged — deterministic replay keeps
        // the coordinator-assigned version.
        let dir = tmpdir("vwal");
        let (storage, _) = Storage::open(&dir).unwrap();
        let msg = Message::Versioned {
            version: 7,
            stamp_ms: 1_700_000_000_000,
            msg: Box::new(Message::DeleteReq { v: b"e".to_vec() }),
        };
        storage.append(b"k", Endpoint::client(3), None, &msg).unwrap();
        storage.sync().unwrap();
        drop(storage);
        let (_, rec) = Storage::open(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].msg, msg);
    }

    #[test]
    fn disagreeing_donor_counters_merge_min_head_max_tail() {
        // Regression for the first-donor-wins bug: a fresh donor saw
        // more adds (tail 9) while a stale one missed recent deletes
        // (head 2). The merge must take head 2 (replaying a vacated
        // position is harmless, skipping a live one is not) and tail 9.
        assert_eq!(merge_rr_counters(Some((4, 9)), Some((2, 7))), Some((2, 9)));
        assert_eq!(merge_rr_counters(Some((2, 7)), Some((4, 9))), Some((2, 9)));
        assert_eq!(merge_rr_counters(None, Some((1, 3))), Some((1, 3)));
        assert_eq!(merge_rr_counters(Some((1, 3)), None), Some((1, 3)));
        assert_eq!(merge_rr_counters(None, None), None);
    }

    #[test]
    fn sharded_open_writes_and_enforces_the_shard_meta() {
        let root = tmpdir("shardmeta");
        let (storages, _) = open_sharded(&root, 2).unwrap();
        assert_eq!(storages.len(), 2);
        assert!(root.join(SHARD_META_FILE).exists());
        assert_eq!(read_shard_meta(&root), Some(2));
        drop(storages);
        // The same count reopens fine.
        let (_same, _) = open_sharded(&root, 2).unwrap();
        // A different count is refused cleanly: keys were routed to
        // segments by hash % 2, so replaying them under % 3 would
        // scatter them to the wrong shards.
        assert!(matches!(open_sharded(&root, 3), Err(ClusterError::Config(_))));
    }

    #[test]
    fn sharded_records_recover_per_segment() {
        let root = tmpdir("shardseg");
        {
            let (storages, _) = open_sharded(&root, 2).unwrap();
            storages[0].append(b"a", Endpoint::client(0), None, &add(b"x")).unwrap();
            storages[0].sync().unwrap();
            storages[1].append(b"b", Endpoint::client(0), None, &add(b"y")).unwrap();
            storages[1].append(b"b", Endpoint::client(0), None, &add(b"z")).unwrap();
            storages[1].sync().unwrap();
        }
        let (_s, rec) = open_sharded(&root, 2).unwrap();
        assert_eq!(rec[0].records.len(), 1);
        assert_eq!(rec[1].records.len(), 2);
        assert_eq!(rec[0].records[0].msg, add(b"x"));
    }

    #[test]
    fn entry_set_hash_is_order_independent() {
        let a = [b"x".to_vec(), b"y".to_vec(), b"z".to_vec()];
        let b = [b"z".to_vec(), b"x".to_vec(), b"y".to_vec()];
        assert_eq!(entry_set_hash(&a), entry_set_hash(&b));
        assert_ne!(entry_set_hash(&a), entry_set_hash(&a[..2]));
        let p1 = [(0u64, b"x".to_vec()), (3, b"y".to_vec())];
        let p2 = [(3u64, b"y".to_vec()), (0, b"x".to_vec())];
        assert_eq!(
            position_set_hash(p1.iter().map(|(p, v)| (*p, v))),
            position_set_hash(p2.iter().map(|(p, v)| (*p, v)))
        );
        // Position identity matters: the same entry at another slot
        // hashes differently.
        let p3 = [(1u64, b"x".to_vec()), (3, b"y".to_vec())];
        assert_ne!(
            position_set_hash(p1.iter().map(|(p, v)| (*p, v))),
            position_set_hash(p3.iter().map(|(p, v)| (*p, v)))
        );
    }
}
