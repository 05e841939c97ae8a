//! What a data dir may hold: one layout (a `shard-<i>/` subdirectory per
//! shard) and one checkpoint format (`PLSCKPT2`). A log or checkpoint at
//! the root belongs to no shard and is refused, untouched; a checkpoint
//! with another magic counts as absent and the log beside it replays.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use pls_core::{Message, StrategySpec};
use pls_net::Endpoint;
use pls_wire::storage::{
    crc32, open_sharded, shard_dir, Storage, CHECKPOINT_FILE, SHARD_META_FILE, WAL_FILE,
};
use pls_wire::wire::Writer;
use pls_wire::ClusterError;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pls-wire-formats-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn add(v: &[u8]) -> Message<Vec<u8>> {
    Message::AddReq { v: v.to_vec() }
}

/// Every file under `root` (relative path → bytes), plus every
/// directory (→ `None`).
fn tree(root: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut out = BTreeMap::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for item in fs::read_dir(&dir).unwrap() {
            let path = item.unwrap().path();
            let rel = path.strip_prefix(root).unwrap().to_path_buf();
            if path.is_dir() {
                out.insert(rel, None);
                pending.push(path);
            } else {
                out.insert(rel, Some(fs::read(&path).unwrap()));
            }
        }
    }
    out
}

fn assert_refused_untouched(root: &Path, shards: usize) {
    let before = tree(root);
    match open_sharded(root, shards) {
        Err(ClusterError::Config(_)) => {}
        Err(other) => panic!("expected a Config refusal, got {other}"),
        Ok(_) => panic!("a root-level log or checkpoint must be refused, not ignored"),
    }
    assert_eq!(tree(root), before, "a refused data dir must be left byte for byte as it was");
}

#[test]
fn a_root_level_log_or_checkpoint_is_refused_and_left_untouched() {
    // A single-segment dir: acknowledged records in a root-level log.
    let root = scratch("rootlog");
    {
        let (storage, _) = Storage::open(&root).unwrap();
        storage.append(b"k", Endpoint::client(0), None, &add(b"acked")).unwrap();
        storage.sync().unwrap();
    }
    assert_refused_untouched(&root, 2);
    assert!(!root.join(SHARD_META_FILE).exists() && !shard_dir(&root, 0).exists());

    // The same with the state in a root-level checkpoint and an empty log.
    {
        let (storage, _) = Storage::open(&root).unwrap();
        storage.checkpoint(storage.appended_seq(), &[]).unwrap();
    }
    fs::remove_file(root.join(WAL_FILE)).unwrap();
    assert!(root.join(CHECKPOINT_FILE).exists());
    assert_refused_untouched(&root, 2);
    fs::remove_dir_all(&root).unwrap();

    // A sharded dir that later gains a root-level log is refused too,
    // with the shard count it was laid out with.
    let root = scratch("rootlog-sharded");
    {
        let (storages, _) = open_sharded(&root, 2).unwrap();
        storages[1].append(b"k", Endpoint::client(0), None, &add(b"x")).unwrap();
        storages[1].sync().unwrap();
    }
    fs::write(root.join(WAL_FILE), b"").unwrap();
    assert_refused_untouched(&root, 2);
    // Remove the stray file and the dir opens with its records again.
    fs::remove_file(root.join(WAL_FILE)).unwrap();
    let (_storages, recovered) = open_sharded(&root, 2).unwrap();
    assert_eq!(recovered[1].records.len(), 1);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_plsckpt1_checkpoint_counts_as_absent_and_the_log_still_replays() {
    let dir = scratch("ckpt1");
    {
        let (storage, _) = Storage::open(&dir).unwrap();
        for v in [&b"a"[..], b"b", b"c"] {
            storage.append(b"k", Endpoint::client(0), None, &add(v)).unwrap();
        }
        storage.sync().unwrap();
    }
    // A well-formed file of the format no release wrote: magic
    // `PLSCKPT1`, covering records 1–2, one key without version or
    // tombstones, and a valid trailing CRC.
    let mut w = Writer::new();
    w.u64(u64::from_be_bytes(*b"PLSCKPT1")).u64(2).u32(1);
    w.bytes(b"k").u8(2).u32(2); // spec tag 2 = Fixed, x = 2
    w.bytes_list(&[b"a".to_vec(), b"b".to_vec()]);
    w.u32(0).u8(0); // no positions, no counters
    let mut raw = w.into_payload();
    let crc = crc32(&raw);
    raw.extend_from_slice(&crc.to_be_bytes());
    fs::write(dir.join(CHECKPOINT_FILE), &raw).unwrap();

    let (_, rec) = Storage::open(&dir).unwrap();
    assert_eq!(rec.checkpoint_seq, 0, "an unreadable checkpoint covers nothing");
    assert!(rec.snapshots.is_empty());
    assert!(!rec.torn);
    let replayed: Vec<_> = rec.records.iter().map(|r| (r.seq, r.msg.clone())).collect();
    assert_eq!(replayed, vec![(1, add(b"a")), (2, add(b"b")), (3, add(b"c"))]);

    // The current magic over the same header is read: the fixture is
    // refused for its magic, not for some other malformation.
    raw.truncate(raw.len() - 4);
    raw[..8].copy_from_slice(b"PLSCKPT2");
    raw.extend_from_slice(&[0; 8]); // version 0
    raw.extend_from_slice(&[0; 4]); // no tombstones
    let crc = crc32(&raw);
    raw.extend_from_slice(&crc.to_be_bytes());
    fs::write(dir.join(CHECKPOINT_FILE), &raw).unwrap();
    let (_, rec) = Storage::open(&dir).unwrap();
    assert_eq!((rec.checkpoint_seq, rec.snapshots.len(), rec.records.len()), (2, 1, 1));
    assert_eq!(rec.snapshots[0].spec, StrategySpec::fixed(2));
    fs::remove_dir_all(&dir).unwrap();
}
