//! Shard-locked counters keyed by byte strings.
//!
//! [`KeyedCounterMap`] is the dynamic-cardinality sibling of
//! [`Counter`](crate::Counter): one `u64` per byte-string key, for
//! populations discovered at runtime (per-entry retrieval counts,
//! per-key traffic). Recording hashes the key once, with the map's own
//! seed: the hash's top bits pick one of 16 mutex shards and its low
//! bits index that shard's open-addressing table. An increment of a
//! known key holds its shard's lock for a short linear probe and one
//! comparison of the key bytes, and allocates nothing; the first touch
//! of a key copies the key and, when the table passes 7/8 full, doubles
//! it, under the lock. Each shard sits on a cache line of its own, so
//! threads on different shards do not write to the same line.

use std::sync::Mutex;

use crate::hash::{hash_bytes, random_seed};

const SHARDS: usize = 16;

/// One cell of a shard's table; vacant while `key` is `None`.
#[derive(Debug, Default)]
struct Cell {
    hash: u64,
    count: u64,
    key: Option<Box<[u8]>>,
}

/// One shard: linear probing over a power-of-two array of cells, the
/// counters stored in the cells themselves.
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

#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard(Mutex<Table>);

/// A map of independent `u64` counters, one per byte-string key.
#[derive(Debug)]
pub struct KeyedCounterMap {
    seed: u64,
    shards: Vec<Shard>,
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
            seed: random_seed(),
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// The key's hash and the shard that hash selects.
    fn shard_of(&self, key: &[u8]) -> (u64, &Mutex<Table>) {
        let hash = hash_bytes(self.seed, key);
        (hash, &self.shards[(hash >> 60) as usize].0)
    }

    /// Adds one to `key`'s counter (creating it at zero first).
    pub fn inc(&self, key: &[u8]) {
        self.add(key, 1);
    }

    /// Adds `n` to `key`'s counter (creating it at zero first).
    pub fn add(&self, key: &[u8], n: u64) {
        let (hash, shard) = self.shard_of(key);
        shard.lock().expect("keyed lock poisoned").add(hash, key, n);
    }

    /// The counter for `key`, or `None` if it was never touched.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let (hash, shard) = self.shard_of(key);
        shard.lock().expect("keyed lock poisoned").get(hash, key)
    }

    /// The number of distinct keys recorded.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().expect("keyed lock poisoned").len).sum()
    }

    /// Whether no key has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every `(key, count)` pair, sorted by key.
    pub fn snapshot(&self) -> KeyedSnapshot {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let table = shard.0.lock().expect("keyed lock poisoned");
            entries.extend(table.entries().map(|(key, count)| (key.to_vec(), count)));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        KeyedSnapshot { entries }
    }

    /// Returns the current snapshot and clears the map. Each shard is
    /// drained atomically; a concurrent writer lands either in the
    /// returned snapshot or in the fresh map, never both or neither.
    pub fn take(&self) -> KeyedSnapshot {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let taken = std::mem::take(&mut *shard.0.lock().expect("keyed lock poisoned"));
            entries.extend(
                taken.cells.into_iter().filter_map(|c| c.key.map(|key| (key.into_vec(), c.count))),
            );
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        KeyedSnapshot { entries }
    }
}

/// A point-in-time copy of a [`KeyedCounterMap`]: plain `(key, count)`
/// data, sorted by key, mergeable across servers.
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

    /// Accumulates another snapshot: counts for equal keys are summed,
    /// new keys are inserted in order.
    pub fn merge(&mut self, other: &KeyedSnapshot) {
        for (key, count) in &other.entries {
            match self.entries.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => self.entries[i].1 += count,
                Err(i) => self.entries.insert(i, (key.clone(), *count)),
            }
        }
    }

    /// All counts, in key order — the raw vector that dispersion
    /// statistics (coefficient of variation, unfairness) consume.
    pub fn counts(&self) -> Vec<u64> {
        self.entries.iter().map(|(_, v)| *v).collect()
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
        assert_eq!(snap.counts(), vec![2, 3, 1]);

        let taken = m.take();
        assert_eq!(taken, snap);
        assert!(m.is_empty());
        assert_eq!(m.take(), KeyedSnapshot::default());
    }

    #[test]
    fn merge_sums_and_inserts_in_order() {
        let a = KeyedCounterMap::new();
        a.add(b"k1", 1);
        a.add(b"k3", 3);
        let b = KeyedCounterMap::new();
        b.add(b"k1", 10);
        b.add(b"k2", 2);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.entries, vec![(b"k1".to_vec(), 11), (b"k2".to_vec(), 2), (b"k3".to_vec(), 3)]);
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
        let total: u64 = m.snapshot().counts().iter().sum();
        assert_eq!(total, 8_000);
        assert_eq!(m.len(), 5);
    }
}
