//! A damaged data dir never refuses to start: whatever happened to
//! `wal.log` and `checkpoint.bin`, `Storage::open` succeeds with the
//! prefix that still checks out, accepts an append, and the next open
//! finds a clean log holding exactly that one record more.
//!
//! Every dir starts as the same checkpoint plus three-record log tail;
//! one or both files then take the seeded damage of the decoder test
//! (bit flips, byte overwrites, truncations, `0xFF` runs) or are
//! replaced by random bytes. 2,400 dirs; a failure names its round.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{damage, random_bytes};
use pls_core::{Message, StrategySpec, Tombstone};
use pls_net::{DetRng, Endpoint};
use pls_wire::storage::{KeySnapshot, Storage, CHECKPOINT_FILE, WAL_FILE};

const SEED: u64 = 0x1857_0A6E;
const DIRS: usize = 2_400;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pls-wire-mutation-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn add(v: &[u8]) -> Message<Vec<u8>> {
    Message::AddReq { v: v.to_vec() }
}

/// The bytes of a checkpoint covering records 1–3 and of a log holding
/// records 4–6, as `Storage` itself writes them.
fn pristine() -> (Vec<u8>, Vec<u8>) {
    let dir = scratch("pristine");
    let (storage, _) = Storage::open(&dir).unwrap();
    for v in [&b"a"[..], b"b", b"c"] {
        storage.append(b"song", Endpoint::client(1), None, &add(v)).unwrap();
    }
    let snaps = [KeySnapshot {
        key: b"song".to_vec(),
        spec: StrategySpec::round_robin(2),
        entries: vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()],
        positions: vec![(0, b"a".to_vec()), (1, b"b".to_vec()), (2, b"c".to_vec())],
        counters: Some((0, 3)),
        version: 3,
        tombstones: vec![(b"gone".to_vec(), Tombstone { version: 2, born_ms: 1_700 })],
    }];
    storage.checkpoint(storage.appended_seq(), &snaps).unwrap();
    let versioned = Message::Versioned {
        version: 5,
        stamp_ms: 1_700_000_000_000,
        msg: Box::new(Message::DeleteReq { v: b"a".to_vec() }),
    };
    storage.append(b"song", Endpoint::client(1), None, &add(b"d")).unwrap();
    storage.append(b"song", Endpoint::client(2), Some(StrategySpec::fixed(2)), &versioned).unwrap();
    storage.append(b"other", Endpoint::client(1), None, &add(b"e")).unwrap();
    storage.sync().unwrap();
    drop(storage);
    let files =
        (fs::read(dir.join(CHECKPOINT_FILE)).unwrap(), fs::read(dir.join(WAL_FILE)).unwrap());
    fs::remove_dir_all(&dir).unwrap();
    files
}

fn spoil(rng: &mut DetRng, bytes: &mut Vec<u8>) {
    if rng.below(8) == 0 {
        let len = rng.below(2 * bytes.len());
        *bytes = random_bytes(rng, len);
    } else {
        damage(rng, bytes);
    }
}

#[test]
fn a_damaged_data_dir_opens_appends_and_reopens_clean() {
    let (checkpoint, wal) = pristine();
    let dir = scratch("round");
    let mut rng = DetRng::seed_from(SEED);
    let (mut torn_opens, mut lost_checkpoints) = (0, 0);
    for round in 0..DIRS {
        let (mut ckpt, mut log) = (checkpoint.clone(), wal.clone());
        match rng.below(3) {
            0 => spoil(&mut rng, &mut log),
            1 => spoil(&mut rng, &mut ckpt),
            _ => {
                spoil(&mut rng, &mut log);
                spoil(&mut rng, &mut ckpt);
            }
        }
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CHECKPOINT_FILE), &ckpt).unwrap();
        fs::write(dir.join(WAL_FILE), &log).unwrap();

        let (storage, first) =
            Storage::open(&dir).unwrap_or_else(|e| panic!("round {round}: open refused: {e}"));
        assert!(first.records.len() <= 6, "round {round}: {} records", first.records.len());
        torn_opens += usize::from(first.torn);
        lost_checkpoints += usize::from(first.snapshots.is_empty());
        let seq = storage
            .append(b"late", Endpoint::client(9), None, &add(b"post"))
            .unwrap_or_else(|e| panic!("round {round}: append refused: {e}"));
        assert!(first.records.iter().all(|r| r.seq < seq) && first.checkpoint_seq < seq);
        storage.sync().unwrap();
        drop(storage);

        let (_, second) =
            Storage::open(&dir).unwrap_or_else(|e| panic!("round {round}: reopen refused: {e}"));
        assert!(!second.torn, "round {round}: the first open must have cut the torn tail");
        assert_eq!(second.snapshots, first.snapshots, "round {round}");
        assert_eq!(second.checkpoint_seq, first.checkpoint_seq, "round {round}");
        let (last, kept) = second.records.split_last().expect("the appended record");
        assert_eq!(kept, &first.records[..], "round {round}: exactly one more record");
        assert_eq!((last.seq, &last.msg), (seq, &add(b"post")), "round {round}");
        fs::remove_dir_all(&dir).unwrap();
    }
    // The damage reached both files, and some of it was survivable.
    assert!(torn_opens > DIRS / 10 && torn_opens < DIRS, "{torn_opens} torn opens");
    assert!(lost_checkpoints > DIRS / 10 && lost_checkpoints < DIRS, "{lost_checkpoints}");
}
