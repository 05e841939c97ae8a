//! Counters keyed by byte strings, recorded through per-thread logs.
//!
//! [`KeyedCounterMap`] is the dynamic-cardinality sibling of
//! [`Counter`](crate::Counter): one `u64` per byte-string key, for
//! populations discovered at runtime (per-entry retrieval counts,
//! per-key traffic). The counts live in one open-addressing table
//! behind one mutex. A write does not go there directly: it hashes the
//! key with the map's own seed, locks the calling thread's stripe — one
//! of 16 cache-line-aligned logs, picked once per thread, round-robin —
//! and appends `(hash, n)` and the key bytes. When a log holds 64
//! increments, or more than 16 KiB of keys, the writer folds it into the
//! table under one table lock: 64 probes for one lock round trip, where
//! a lock per increment paid the round trip and a dependent miss chain
//! 64 times. A fold copies each key the table has not seen and may
//! double the table; a log keeps its buffers (at most 16 KiB of key
//! capacity), so recording known keys allocates nothing.
//!
//! Every reader folds all 16 logs before it reads the table, so an
//! increment that finished before a read started is in that read. Locks
//! are always taken stripe first, then table. A pending increment is in
//! exactly one log or in the table, never in thread-local storage: a
//! thread that exits loses nothing, and [`KeyedCounterMap::take`] puts
//! each increment in the returned snapshot or in the fresh map.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use pls_net::HashSeed;

/// Logs per map; threads beyond this many share a log.
const STRIPES: usize = 16;
/// Increments a log holds before its writer folds it.
const FLUSH_AT: usize = 64;
/// Key bytes past which a log is folded early, and the most key capacity
/// a log keeps after a fold.
const LOG_BYTES: usize = 16 * 1024;

const POISONED: &str = "keyed lock poisoned";

/// One cell of the table; vacant while `key` is `None`.
#[derive(Debug, Default)]
struct Cell {
    hash: u64,
    count: u64,
    key: Option<Box<[u8]>>,
}

/// Linear probing over a power-of-two array of cells, the counters
/// stored in the cells themselves.
#[derive(Debug, Default)]
struct Table {
    cells: Vec<Cell>,
    len: usize,
}

impl Table {
    /// Where `key` is (`Ok`) or the vacant cell where its probe ends
    /// (`Err`). The table must not be empty.
    fn probe(&self, hash: u64, key: &[u8]) -> Result<usize, usize> {
        let mask = self.cells.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let cell = &self.cells[at];
            match &cell.key {
                None => return Err(at),
                Some(held) if cell.hash == hash && **held == *key => return Ok(at),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    fn get(&self, hash: u64, key: &[u8]) -> Option<u64> {
        if self.cells.is_empty() {
            return None;
        }
        self.probe(hash, key).ok().map(|at| self.cells[at].count)
    }

    fn add(&mut self, hash: u64, key: &[u8], n: u64) {
        if !self.cells.is_empty() {
            if let Ok(at) = self.probe(hash, key) {
                self.cells[at].count += n;
                return;
            }
        }
        // A vacancy always remains, so every probe ends.
        if (self.len + 1) * 8 > self.cells.len() * 7 {
            self.double();
        }
        let at = self.probe(hash, key).expect_err("the key was just found absent");
        self.cells[at] = Cell { hash, count: n, key: Some(key.into()) };
        self.len += 1;
    }

    fn double(&mut self) {
        let doubled = (self.cells.len() * 2).max(4);
        let old = std::mem::take(&mut self.cells);
        self.cells.resize_with(doubled, Cell::default);
        let mask = doubled - 1;
        for cell in old.into_iter().filter(|c| c.key.is_some()) {
            let mut at = cell.hash as usize & mask;
            while self.cells[at].key.is_some() {
                at = (at + 1) & mask;
            }
            self.cells[at] = cell;
        }
    }

    /// The occupied cells as `(key, count)`.
    fn entries(&self) -> impl Iterator<Item = (&[u8], u64)> {
        self.cells.iter().filter_map(|c| c.key.as_deref().map(|k| (k, c.count)))
    }
}

/// Increments not yet in the table: `(hash, n, end)` each, the key being
/// `keys[previous end..end]`.
#[derive(Debug, Default)]
struct Pending {
    incs: Vec<(u64, u64, usize)>,
    keys: Vec<u8>,
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(Mutex<Pending>);

/// The calling thread's stripe, assigned round-robin on its first
/// increment (to any map) and kept for the thread's life.
fn stripe_of_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES);
    STRIPE.with(|s| *s)
}

/// A map of independent `u64` counters, one per byte-string key.
#[derive(Debug)]
pub struct KeyedCounterMap {
    seed: HashSeed,
    stripes: [Stripe; STRIPES],
    table: Mutex<Table>,
}

impl Default for KeyedCounterMap {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyedCounterMap {
    /// An empty map.
    pub fn new() -> Self {
        KeyedCounterMap {
            seed: HashSeed::random(),
            stripes: Default::default(),
            table: Mutex::default(),
        }
    }

    /// Adds one to `key`'s counter (creating it at zero first).
    pub fn inc(&self, key: &[u8]) {
        self.add(key, 1);
    }

    /// Adds `n` to `key`'s counter (creating it at zero first).
    pub fn add(&self, key: &[u8], n: u64) {
        let hash = self.seed.hash_bytes(key);
        let mut log = self.stripes[stripe_of_thread()].0.lock().expect(POISONED);
        log.keys.extend_from_slice(key);
        let end = log.keys.len();
        log.incs.push((hash, n, end));
        if log.incs.len() == FLUSH_AT || end > LOG_BYTES {
            self.flush(&mut log);
        }
    }

    /// Moves `log` into the table under one table lock and empties it.
    /// The caller holds the log's stripe lock.
    fn flush(&self, log: &mut Pending) {
        if log.incs.is_empty() {
            return;
        }
        let mut table = self.table.lock().expect(POISONED);
        let mut start = 0;
        for &(hash, n, end) in &log.incs {
            table.add(hash, &log.keys[start..end], n);
            start = end;
        }
        drop(table);
        log.incs.clear();
        log.keys.clear();
        log.keys.shrink_to(LOG_BYTES);
    }

    /// Folds every stripe's log, then locks the table for the caller.
    fn folded(&self) -> MutexGuard<'_, Table> {
        for stripe in &self.stripes {
            self.flush(&mut stripe.0.lock().expect(POISONED));
        }
        self.table.lock().expect(POISONED)
    }

    /// The counter for `key`, or `None` if it was never touched.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.folded().get(self.seed.hash_bytes(key), key)
    }

    /// The number of distinct keys recorded.
    pub fn len(&self) -> usize {
        self.folded().len
    }

    /// Whether no key has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every `(key, count)` pair, sorted by key.
    pub fn snapshot(&self) -> KeyedSnapshot {
        let table = self.folded();
        let mut entries: Vec<_> =
            table.entries().map(|(key, count)| (key.to_vec(), count)).collect();
        drop(table);
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        KeyedSnapshot { entries }
    }

    /// Returns the current snapshot and clears the map. A concurrent
    /// writer lands either in the returned snapshot or in the fresh map,
    /// never both or neither.
    pub fn take(&self) -> KeyedSnapshot {
        let taken = std::mem::take(&mut *self.folded());
        let mut entries: Vec<_> = taken
            .cells
            .into_iter()
            .filter_map(|c| c.key.map(|key| (key.into_vec(), c.count)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        KeyedSnapshot { entries }
    }
}

/// A point-in-time copy of a [`KeyedCounterMap`]: plain `(key, count)`
/// data, sorted by key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyedSnapshot {
    /// `(key, count)` pairs, sorted by key.
    pub entries: Vec<(Vec<u8>, u64)>,
}

impl KeyedSnapshot {
    /// The count for `key`, or `None`.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| self.entries[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn add_get_len() {
        let m = KeyedCounterMap::new();
        assert!(m.is_empty());
        m.inc(b"a");
        m.add(b"a", 4);
        m.add(b"b", 2);
        assert_eq!(m.get(b"a"), Some(5));
        assert_eq!(m.get(b"b"), Some(2));
        assert_eq!(m.get(b"c"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_take_drains() {
        let m = KeyedCounterMap::new();
        m.add(b"zz", 1);
        m.add(b"aa", 2);
        m.add(b"mm", 3);
        let snap = m.snapshot();
        assert_eq!(
            snap.entries,
            vec![(b"aa".to_vec(), 2), (b"mm".to_vec(), 3), (b"zz".to_vec(), 1)]
        );
        assert_eq!(snap.get(b"mm"), Some(3));
        assert_eq!(snap.get(b"xx"), None);

        let taken = m.take();
        assert_eq!(taken, snap);
        assert!(m.is_empty());
        assert_eq!(m.take(), KeyedSnapshot::default());
    }

    #[test]
    fn a_table_whose_keys_all_collide_still_counts_each_key() {
        // One hash for every key: the probe degenerates to a walk over
        // all the keys, and has to stay right through every doubling.
        let mut table = Table::default();
        let keys: Vec<Vec<u8>> = (0..300u32).map(|i| format!("k{i}").into_bytes()).collect();
        for round in 1..=3u64 {
            for key in &keys {
                table.add(42, key, round);
            }
        }
        assert_eq!(table.len, keys.len());
        assert!(table.cells.len().is_power_of_two() && table.len * 8 <= table.cells.len() * 7);
        assert!(keys.iter().all(|key| table.get(42, key) == Some(6)));
        assert_eq!(table.get(42, b"absent"), None);
        assert_eq!(table.get(43, b"k1"), None);
        assert_eq!(table.entries().map(|(_, count)| count).sum::<u64>(), 6 * 300);
    }

    #[test]
    fn a_key_longer_than_the_log_bound_is_counted_and_not_kept_in_the_log() {
        let m = KeyedCounterMap::new();
        let long = vec![7u8; 3 * LOG_BYTES + 5];
        m.inc(b"short");
        m.add(&long, 2);
        m.inc(&long);
        {
            // Each long add passed the bound and folded at once.
            let log = m.stripes[stripe_of_thread()].0.lock().unwrap();
            assert!(log.incs.is_empty());
            assert!(log.keys.capacity() <= LOG_BYTES, "{}", log.keys.capacity());
        }
        assert_eq!(m.get(&long), Some(3));
        assert_eq!(m.get(b"short"), Some(1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn concurrent_mixed_key_adds_are_not_lost() {
        let m = Arc::new(KeyedCounterMap::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u32 {
                    m.inc(format!("key{}", (t + i) % 5).as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = m.snapshot().entries.iter().map(|(_, count)| count).sum();
        assert_eq!(total, 8_000);
        assert_eq!(m.len(), 5);
    }
}
