//! Bounded hot-key tracking: the Space-Saving sketch.
//!
//! [`TopK`] answers "which keys receive the most traffic?" in `O(k)`
//! memory regardless of how many distinct keys flow past, using the
//! Space-Saving algorithm (Metwally, Agrawal & El Abbadi, ICDT 2005):
//! a fixed set of `k` monitored slots; an unmonitored key evicts the
//! slot with the smallest count and inherits that count as its error
//! bound. Every key whose true frequency exceeds `N/k` (of `N` total
//! offers) is guaranteed to be monitored, and each reported count
//! overestimates the true one by at most the slot's recorded `err`.
//!
//! Recording hashes the key once, outside the lock, and then holds the
//! sketch's one mutex for a scan over `k` adjacent `(hash, count)`
//! pairs that looks for the key's hash, plus, for a key that is not
//! monitored, a second scan of the same pairs for the smallest count.
//! There is no separate index to keep in step, so an offer writes one
//! pair and, when it evicts, the victim's key buffer. When keys are
//! spread evenly over many more than `k` values almost every offer
//! evicts, so the two scans *are* the steady state: about 1 KiB read
//! at `k = 64`, well under a hundred nanoseconds. The cost grows
//! linearly with `k`; the sketch is meant for the tens to hundreds of
//! slots a hot-key list needs. An evicting offer allocates only when
//! the new key is longer than any key its slot has held.

use std::sync::Mutex;

use pls_net::HashSeed;

/// What the scans read: a slot's key hash and its count.
#[derive(Debug, Clone, Copy)]
struct Tally {
    hash: u64,
    count: u64,
}

/// What a slot holds besides its tally.
#[derive(Debug)]
struct Slot {
    key: Vec<u8>,
    err: u64,
}

/// The monitored keys, as two parallel arrays. Slots are numbered in
/// order of first arrival and keep their number when their key is
/// evicted and replaced.
#[derive(Debug, Default)]
struct Slots {
    tallies: Vec<Tally>,
    slots: Vec<Slot>,
}

/// A bounded Space-Saving sketch over byte-string keys.
///
/// When the sketch is full, an offer of an unmonitored key evicts the
/// slot with the smallest count; among slots tied at that count, the
/// one with the lowest slot number, that is the one whose slot was
/// first filled earliest. The rule reads nothing but the sequence of
/// offers, so a fixed sequence always yields the same snapshot.
#[derive(Debug)]
pub struct TopK {
    capacity: usize,
    seed: HashSeed,
    inner: Mutex<Slots>,
}

impl TopK {
    /// A sketch monitoring at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TopK { capacity: capacity.max(1), seed: HashSeed::random(), inner: Mutex::default() }
    }

    /// The maximum number of monitored keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of keys currently monitored.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("topk lock poisoned").slots.len()
    }

    /// Whether no key has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one occurrence of `key`.
    pub fn offer(&self, key: &[u8]) {
        self.offer_n(key, 1);
    }

    /// Records `n` occurrences of `key`.
    pub fn offer_n(&self, key: &[u8], n: u64) {
        if n == 0 {
            return;
        }
        let hash = self.seed.hash_bytes(key);
        let mut guard = self.inner.lock().expect("topk lock poisoned");
        let Slots { tallies, slots } = &mut *guard;
        // Equal hashes are almost always equal keys; the loop only
        // repeats for two monitored keys whose hashes collide.
        let mut from = 0;
        while let Some(hit) = tallies[from..].iter().position(|t| t.hash == hash) {
            let at = from + hit;
            if slots[at].key == key {
                tallies[at].count += n;
                return;
            }
            from = at + 1;
        }
        if slots.len() < self.capacity {
            tallies.push(Tally { hash, count: n });
            slots.push(Slot { key: key.to_vec(), err: 0 });
            return;
        }
        // The new key takes over the victim's slot, key buffer included,
        // and inherits its count as the bound on its own overestimation.
        let floor = tallies.iter().map(|t| t.count).min().expect("capacity >= 1, sketch is full");
        let at = tallies.iter().position(|t| t.count == floor).expect("the minimum is present");
        tallies[at] = Tally { hash, count: floor + n };
        let victim = &mut slots[at];
        victim.key.clear();
        victim.key.extend_from_slice(key);
        victim.err = floor;
    }

    /// The current monitored keys, heaviest first.
    pub fn snapshot(&self) -> TopKSnapshot {
        self.inner.lock().expect("topk lock poisoned").to_snapshot()
    }

    /// Returns the current snapshot and clears the sketch in one step.
    pub fn take(&self) -> TopKSnapshot {
        let taken = std::mem::take(&mut *self.inner.lock().expect("topk lock poisoned"));
        taken.to_snapshot()
    }
}

impl Slots {
    fn to_snapshot(&self) -> TopKSnapshot {
        let mut entries: Vec<TopKEntry> = self
            .slots
            .iter()
            .zip(&self.tallies)
            .map(|(slot, tally)| TopKEntry {
                key: slot.key.clone(),
                count: tally.count,
                err: slot.err,
            })
            .collect();
        sort_entries(&mut entries);
        TopKSnapshot { entries }
    }
}

fn sort_entries(entries: &mut [TopKEntry]) {
    // Heaviest first; ties broken by key so output is deterministic.
    entries.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
}

/// One monitored key: its (over-)estimated count and error bound. The
/// true frequency lies in `[count - err, count]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKEntry {
    /// The monitored key.
    pub key: Vec<u8>,
    /// Estimated occurrence count (an overestimate).
    pub count: u64,
    /// Maximum overestimation inherited from evictions.
    pub err: u64,
}

/// A point-in-time copy of a [`TopK`] sketch: plain data, heaviest
/// first, mergeable across servers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopKSnapshot {
    /// Monitored keys, sorted by descending `count`.
    pub entries: Vec<TopKEntry>,
}

impl TopKSnapshot {
    /// Accumulates another snapshot: counts and error bounds for equal
    /// keys are summed (both bounds are additive across disjoint
    /// streams), new keys are appended, and order is re-established.
    pub fn merge(&mut self, other: &TopKSnapshot) {
        for e in &other.entries {
            match self.entries.iter_mut().find(|m| m.key == e.key) {
                Some(m) => {
                    m.count += e.count;
                    m.err += e.err;
                }
                None => self.entries.push(e.clone()),
            }
        }
        sort_entries(&mut self.entries);
    }

    /// The heaviest `k` entries.
    pub fn top(&self, k: usize) -> &[TopKEntry] {
        &self.entries[..k.min(self.entries.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let t = TopK::new(8);
        for _ in 0..5 {
            t.offer(b"a");
        }
        t.offer_n(b"b", 3);
        t.offer(b"c");
        let snap = t.snapshot();
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(snap.entries[0], TopKEntry { key: b"a".to_vec(), count: 5, err: 0 });
        assert_eq!(snap.entries[1], TopKEntry { key: b"b".to_vec(), count: 3, err: 0 });
        assert_eq!(snap.entries[2], TopKEntry { key: b"c".to_vec(), count: 1, err: 0 });
    }

    #[test]
    fn eviction_inherits_min_count_as_error() {
        let t = TopK::new(2);
        t.offer_n(b"a", 10);
        t.offer_n(b"b", 2);
        t.offer(b"c"); // evicts b (count 2); c gets count 3, err 2
        let snap = t.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].key, b"a".to_vec());
        assert_eq!(snap.entries[1], TopKEntry { key: b"c".to_vec(), count: 3, err: 2 });
    }

    #[test]
    fn heavy_hitters_survive_noise() {
        // 2 heavy keys + 100 one-shot keys through a 10-slot sketch:
        // Space-Saving guarantees keys above N/k stay monitored.
        let t = TopK::new(10);
        for i in 0..100u32 {
            t.offer_n(b"hot1", 5);
            t.offer_n(b"hot2", 3);
            t.offer(format!("noise{i}").as_bytes());
        }
        let snap = t.snapshot();
        assert_eq!(snap.entries[0].key, b"hot1".to_vec());
        assert_eq!(snap.entries[1].key, b"hot2".to_vec());
        // Counts overestimate by at most the recorded error.
        assert!(snap.entries[0].count >= 500);
        assert!(snap.entries[0].count - snap.entries[0].err <= 500);
        assert_eq!(snap.entries.len(), 10);
    }

    #[test]
    fn take_clears() {
        let t = TopK::new(4);
        t.offer(b"x");
        let snap = t.take();
        assert_eq!(snap.entries.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.take(), TopKSnapshot::default());
    }

    #[test]
    fn merge_sums_counts_and_errors_and_resorts() {
        let a = TopK::new(4);
        a.offer_n(b"k1", 2);
        a.offer_n(b"k2", 9);
        let b = TopK::new(4);
        b.offer_n(b"k1", 10);
        b.offer_n(b"k3", 1);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.entries[0], TopKEntry { key: b"k1".to_vec(), count: 12, err: 0 });
        assert_eq!(m.entries[1].key, b"k2".to_vec());
        assert_eq!(m.top(2).len(), 2);
        assert_eq!(m.top(99).len(), 3);
    }
}
