//! Per-server state.
//!
//! Each of the `n` servers keeps a local entry store plus whatever
//! strategy-specific bookkeeping its protocol needs: RandomServer-x's
//! local entry counter, and Round-Robin-y's positions, the coordinator
//! counters (on server 0), and in-flight migration contexts.
//!
//! # One copy per entry
//!
//! The paper's storage cost (§4.1) counts one copy of an entry per
//! server that keeps it, and [`ServerNode::store`] is that copy — the
//! only one. What Round-Robin-y adds is integers beside it:
//!
//! * `rr_at[i]` lists the positions of the entry at index `i` of the
//!   store: one, or transiently two while Fig. 11 migrates an entry onto a
//!   server that still holds it at its old position, or more when a client
//!   added the same entry twice.
//! * `rr_slots` maps each occupied position to that store index, in
//!   ascending position order.
//!
//! On a Round-Robin server the two describe each other exactly: every
//! position in `rr_slots` points at a live store index whose `rr_at` list
//! names it, and every store index has at least one position (an entry
//! whose last position is cleared leaves the store in the same call). The
//! store removes by swap-remove, so when an entry leaves, the entry that
//! takes over its index brings its position list along and has its
//! `rr_slots` values repointed. Finding an entry's position is therefore
//! the hash probe the store makes anyway, and a server that does not hold
//! an entry learns so from that probe alone.
//!
//! The other strategies write `store` directly and keep no positions; the
//! engine never lets one server do both.

use std::collections::{BTreeMap, HashMap};

use crate::{Entry, IndexedSet};

/// A delete marker: remembers that an entry was removed, and at which
/// per-key version, so recovery paths that union donor states can tell a
/// deliberate delete from a missing copy (and never resurrect the
/// former).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tombstone {
    /// The per-key version the delete was coordinated at.
    pub version: u64,
    /// Coordinator wall-clock at delete time (ms since the Unix epoch),
    /// carried inside the versioned message so the engine itself stays
    /// clock-free. `0` means "unknown" (legacy records) and makes the
    /// tombstone eligible for garbage collection immediately.
    pub born_ms: u64,
}

/// The round-robin coordinator counters (paper Fig. 10: `head`/`tail`,
/// kept on one dedicated server).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RrCoord {
    /// Position of the oldest live entry.
    pub head: u64,
    /// Position the next added entry will receive.
    pub tail: u64,
}

/// Context the head server keeps while a Fig. 11 migration is in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MigrationState<V> {
    /// `M[v]`: how many `migrate(v)` requests are still expected.
    pub remaining: usize,
    /// `R[v]`: the replacement entry, i.e. the entry that sat at the head
    /// position. `None` when the deleted entry *was* the head entry.
    pub replacement: Option<V>,
    /// The replacement's old position, whose copies are removed once all
    /// migrations complete.
    pub old_pos: u64,
}

/// The round-robin positions one stored entry occupies on this server,
/// in no particular order. One or two live inline; a third spills to the
/// heap, where the list stays until the entry leaves.
#[derive(Debug, Clone)]
enum Positions {
    Inline { len: u8, at: [u64; 2] },
    Spilled(Vec<u64>),
}

impl Positions {
    fn one(pos: u64) -> Self {
        Positions::Inline { len: 1, at: [pos, 0] }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            Positions::Inline { len, at } => &at[..usize::from(*len)],
            Positions::Spilled(list) => list,
        }
    }

    fn push(&mut self, pos: u64) {
        match self {
            Positions::Inline { len, at } if usize::from(*len) < at.len() => {
                at[usize::from(*len)] = pos;
                *len += 1;
            }
            Positions::Inline { at, .. } => *self = Positions::Spilled(vec![at[0], at[1], pos]),
            Positions::Spilled(list) => list.push(pos),
        }
    }

    /// Forgets `pos`, which must be listed.
    fn remove(&mut self, pos: u64) {
        let i = self.as_slice().iter().position(|p| *p == pos).expect("position listed");
        match self {
            Positions::Inline { len, at } => {
                *len -= 1;
                at[i] = at[usize::from(*len)];
            }
            Positions::Spilled(list) => {
                list.swap_remove(i);
            }
        }
    }
}

/// One server's complete state.
#[derive(Debug, Clone)]
pub(crate) struct ServerNode<V> {
    /// The local entry store every lookup samples from, and the one owned
    /// copy of each entry this server keeps — under every strategy.
    pub store: IndexedSet<V>,
    /// RandomServer-x's local estimate of the system-wide entry count
    /// (incremented on `SampledStore`, decremented on `CountedRemove`).
    pub local_h: u64,
    /// Round-robin: the positions of the entry at the same index of
    /// `store`: as many lists as `store` has entries on a round-robin
    /// server, none otherwise.
    rr_at: Vec<Positions>,
    /// Round-robin: occupied position → index into `store` and `rr_at`.
    rr_slots: BTreeMap<u64, u32>,
    /// Coordinator counters; `Some` only on server 0 under round-robin.
    pub rr_coord: Option<RrCoord>,
    /// In-flight migration contexts, keyed by the deleted entry.
    pub rr_migrations: HashMap<V, MigrationState<V>>,
    /// Migration requests that arrived before this server's own copy of
    /// the `RrRemove` broadcast (possible over transports without
    /// cross-mailbox ordering, e.g. TCP): `(requester, dest_pos)` pairs,
    /// replayed once the migration context exists.
    pub rr_pending_migrations: HashMap<V, Vec<(pls_net::ServerId, u64)>>,
    /// Monotonic per-key version (Lamport-style): bumped by the
    /// coordinator on every versioned client update, maxed with every
    /// versioned internal message received.
    pub version: u64,
    /// Live delete markers, keyed by the deleted entry.
    pub tombstones: HashMap<V, Tombstone>,
}

impl<V: Entry> ServerNode<V> {
    pub(crate) fn new() -> Self {
        ServerNode {
            store: IndexedSet::new(),
            local_h: 0,
            rr_at: Vec::new(),
            rr_slots: BTreeMap::new(),
            rr_coord: None,
            rr_migrations: HashMap::new(),
            rr_pending_migrations: HashMap::new(),
            version: 0,
            tombstones: HashMap::new(),
        }
    }

    /// Installs an entry at a round-robin position. Overwriting an
    /// occupied position first releases the old occupant.
    pub(crate) fn rr_insert(&mut self, pos: u64, v: V) {
        self.rr_remove_at(pos);
        let (index, fresh) = self.store.insert_full(v);
        if fresh {
            self.rr_at.push(Positions::one(pos));
        } else {
            self.rr_at[index].push(pos);
        }
        self.rr_slots.insert(pos, index as u32);
    }

    /// Clears a round-robin position. Returns the copy this server drops
    /// with it: `None` when the position was vacant, and when its entry
    /// stays on at another position.
    pub(crate) fn rr_remove_at(&mut self, pos: u64) -> Option<V> {
        let index = self.rr_slots.remove(&pos)? as usize;
        self.rr_at[index].remove(pos);
        if !self.rr_at[index].as_slice().is_empty() {
            return None;
        }
        let (v, moved_from) = self.store.swap_remove_index(index);
        self.rr_at.swap_remove(index);
        if moved_from.is_some() {
            for moved_pos in self.rr_at[index].as_slice() {
                *self.rr_slots.get_mut(moved_pos).expect("listed position is indexed") =
                    index as u32;
            }
        }
        Some(v)
    }

    /// Clears the lowest position `v` occupies here; returns it.
    pub(crate) fn rr_remove_entry(&mut self, v: &V) -> Option<u64> {
        let index = self.store.index_of(v)?;
        let pos =
            *self.rr_at[index].as_slice().iter().min().expect("a stored entry has a position");
        self.rr_remove_at(pos);
        Some(pos)
    }

    /// The entry at a round-robin position.
    pub(crate) fn rr_entry_at(&self, pos: u64) -> Option<&V> {
        self.store.as_slice().get(*self.rr_slots.get(&pos)? as usize)
    }

    /// Occupied positions and their entries, in ascending position order.
    pub(crate) fn rr_positions(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let entries = self.store.as_slice();
        self.rr_slots.iter().map(move |(pos, index)| (*pos, &entries[*index as usize]))
    }
}

impl<V: Entry> Default for ServerNode<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::tests::Colliding;
    use crate::DetRng;

    impl<V: Entry> ServerNode<V> {
        /// The module doc's invariants, checked index by index.
        fn assert_consistent(&self) {
            assert_eq!(self.rr_at.len(), self.store.len(), "one position list per stored entry");
            let mut listed = 0;
            for (index, positions) in self.rr_at.iter().enumerate() {
                let positions = positions.as_slice();
                assert!(!positions.is_empty(), "entry {index} is stored at no position");
                for (i, pos) in positions.iter().enumerate() {
                    assert!(!positions[..i].contains(pos), "position {pos} listed twice");
                    assert_eq!(self.rr_slots.get(pos), Some(&(index as u32)), "position {pos}");
                }
                listed += positions.len();
            }
            assert_eq!(listed, self.rr_slots.len(), "a position points at an entry not listing it");
        }
    }

    /// Replays a random history of the round-robin operations on a node
    /// and on the layout it replaced — a position → entry map, the store
    /// being its distinct values in the order a `Vec` with swap-remove
    /// keeps them — and compares the two after every step.
    fn check_rr_history<V: Entry + Copy>(seed: u64, make: fn(u8) -> V) {
        fn release<V: Entry>(order: &mut Vec<V>, model: &BTreeMap<u64, V>, old: &V) {
            if !model.values().any(|v| v == old) {
                let at = order.iter().position(|v| v == old).expect("stored");
                order.swap_remove(at);
            }
        }
        let mut rng = DetRng::seed_from(seed);
        let mut node: ServerNode<V> = ServerNode::new();
        let mut model: BTreeMap<u64, V> = BTreeMap::new();
        let mut order: Vec<V> = Vec::new();
        for _ in 0..400 {
            // Twelve values over forty positions: most inserts meet an
            // entry that already sits elsewhere, many an occupied position.
            let v = make(rng.below(12) as u8);
            let pos = rng.below(40) as u64;
            match rng.below(100) {
                0 => {
                    node = ServerNode::new(); // what `Message::Reset` does
                    model.clear();
                    order.clear();
                }
                1..=54 => {
                    node.rr_insert(pos, v);
                    // The old occupant is released first — also when it
                    // is `v` itself, which then re-enters at the end.
                    if let Some(old) = model.remove(&pos) {
                        release(&mut order, &model, &old);
                    }
                    model.insert(pos, v);
                    if !order.contains(&v) {
                        order.push(v);
                    }
                }
                55..=79 => {
                    let old = model.remove(&pos);
                    let dropped = old.filter(|old| !model.values().any(|v| v == old));
                    assert_eq!(node.rr_remove_at(pos), dropped, "rr_remove_at({pos})");
                    if let Some(old) = old {
                        release(&mut order, &model, &old);
                    }
                }
                _ => {
                    let lowest = model.iter().find_map(|(p, held)| (*held == v).then_some(*p));
                    assert_eq!(node.rr_remove_entry(&v), lowest, "rr_remove_entry({v:?})");
                    if let Some(p) = lowest {
                        model.remove(&p);
                        release(&mut order, &model, &v);
                    }
                }
            }
            node.assert_consistent();
            assert_eq!(node.store.as_slice(), order.as_slice(), "store contents and order");
            assert!(
                node.rr_positions().eq(model.iter().map(|(p, v)| (*p, v))),
                "ascending positions"
            );
            for (pos, v) in &model {
                assert_eq!(node.rr_entry_at(*pos), Some(v));
            }
        }
    }

    #[test]
    fn random_histories_match_the_position_map_model() {
        for seed in 0..200 {
            check_rr_history(seed, |v| v);
            check_rr_history(seed, Colliding::<1>); // every entry in one probe run
        }
    }

    #[test]
    fn positions_spill_past_two_and_drain_back() {
        let mut node: ServerNode<u32> = ServerNode::new();
        for pos in [4, 9, 2, 7, 5] {
            node.rr_insert(pos, 42);
            node.assert_consistent();
        }
        assert_eq!(node.store.len(), 1);
        assert_eq!(node.rr_remove_entry(&42), Some(2), "the lowest position goes first");
        for (left, pos) in [(3, 9), (2, 4), (1, 5)] {
            assert_eq!(node.rr_remove_at(pos), None, "still held elsewhere");
            assert_eq!(node.rr_positions().count(), left);
            node.assert_consistent();
        }
        assert_eq!(node.rr_remove_at(7), Some(42));
        assert!(node.store.is_empty() && node.rr_slots.is_empty());
    }

    #[test]
    fn rr_insert_and_remove_maintain_store() {
        let mut node: ServerNode<u32> = ServerNode::new();
        node.rr_insert(0, 10);
        node.rr_insert(1, 11);
        assert!(node.store.contains(&10));
        assert!(node.store.contains(&11));
        assert_eq!(node.rr_remove_at(0), Some(10));
        assert!(!node.store.contains(&10));
        assert!(node.store.contains(&11));
    }

    #[test]
    fn duplicate_entry_at_two_positions_refcounts() {
        // Mid-migration an entry can sit at its old and new position.
        let mut node: ServerNode<u32> = ServerNode::new();
        node.rr_insert(5, 42);
        node.rr_insert(9, 42);
        assert_eq!(node.store.len(), 1);
        node.rr_remove_at(5);
        // Still present via position 9.
        assert!(node.store.contains(&42));
        node.rr_remove_at(9);
        assert!(node.store.is_empty());
    }

    #[test]
    fn overwriting_a_position_releases_old_occupant() {
        let mut node: ServerNode<u32> = ServerNode::new();
        node.rr_insert(3, 1);
        node.rr_insert(3, 2);
        assert!(!node.store.contains(&1));
        assert!(node.store.contains(&2));
        assert_eq!(node.rr_slots.len(), 1);
    }

    #[test]
    fn rr_remove_entry_finds_position() {
        let mut node: ServerNode<u32> = ServerNode::new();
        node.rr_insert(7, 70);
        node.rr_insert(8, 80);
        assert_eq!(node.rr_remove_entry(&80), Some(8));
        assert_eq!(node.rr_remove_entry(&80), None);
        assert_eq!(node.store.len(), 1);
    }

    #[test]
    fn removing_vacant_position_is_none() {
        let mut node: ServerNode<u32> = ServerNode::new();
        assert_eq!(node.rr_remove_at(99), None);
    }
}
