//! Per-server state.
//!
//! Each of the `n` servers keeps a local entry store, the key's version
//! and delete markers, and one [`Strategy`] variant with its own
//! strategy's state and no other's. Round-Robin's integers live in one
//! box, made once per Round-Robin engine; the delete markers get a box of
//! their own when a versioned delete records the first one.
//!
//! # One copy per entry
//!
//! The paper's storage cost (§4.1) counts one copy of an entry per
//! server that keeps it, and [`ServerNode::store`] is that copy — the
//! only one. What Round-Robin-y adds is integers beside it, in its
//! [`RoundRobin`] box:
//!
//! * `at[i]` lists the positions of the entry at index `i` of the
//!   store: one, or transiently two while Fig. 11 migrates an entry onto a
//!   server that still holds it at its old position, or more when a client
//!   added the same entry twice.
//! * `slots` maps each occupied position to that store index, in
//!   ascending position order.
//!
//! On a Round-Robin server the two describe each other exactly: every
//! position in `slots` points at a live store index whose `at` list
//! names it, and every store index has at least one position (an entry
//! whose last position is cleared leaves the store in the same call). The
//! store removes by swap-remove, so when an entry leaves, the entry that
//! takes over its index brings its position list along and has its
//! `slots` values repointed. Finding an entry's position is therefore
//! the hash probe the store makes anyway, and a server that does not hold
//! an entry learns so from that probe alone.
//!
//! The other strategies write `store` directly and have no positions to
//! write, so no server does both.

use std::collections::{BTreeMap, HashMap};

use crate::{Entry, HashFamily, IndexedSet, StrategySpec};

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

/// A server's strategy and the state only that strategy keeps:
/// RandomServer-x's local estimate `local_h` of the system-wide entry
/// count (set by `ChooseSubset`, incremented on `SampledStore`,
/// decremented on `CountedRemove`), Round-Robin-y's box, and the family of
/// `y` functions every server of a Hash-y key shares.
#[derive(Debug, Clone)]
pub(crate) enum Strategy<V> {
    FullReplication,
    Fixed { x: usize },
    RandomServer { x: usize, local_h: u64 },
    RoundRobin(Box<RoundRobin<V>>),
    Hash(HashFamily),
}

impl<V> Strategy<V> {
    /// The state a server of `n` starts with: Round-Robin's counters on the
    /// `coordinator`, Hash-y's family from the shared `cluster_seed`.
    pub(crate) fn new(spec: StrategySpec, coordinator: bool, n: usize, cluster_seed: u64) -> Self {
        match spec {
            StrategySpec::FullReplication => Strategy::FullReplication,
            StrategySpec::Fixed { x } => Strategy::Fixed { x },
            StrategySpec::RandomServer { x } => Strategy::RandomServer { x, local_h: 0 },
            StrategySpec::RoundRobin { y } => Strategy::RoundRobin(Box::new(RoundRobin {
                y,
                mirrors: 1,
                coord: coordinator.then(RrCoord::default),
                at: Vec::new(),
                slots: BTreeMap::new(),
                migrations: HashMap::new(),
                pending_migrations: HashMap::new(),
            })),
            StrategySpec::Hash { y } => Strategy::Hash(HashFamily::new(y, n, cluster_seed)),
        }
    }

    pub(crate) fn spec(&self) -> StrategySpec {
        match self {
            Strategy::FullReplication => StrategySpec::FullReplication,
            Strategy::Fixed { x } => StrategySpec::Fixed { x: *x },
            Strategy::RandomServer { x, .. } => StrategySpec::RandomServer { x: *x },
            Strategy::RoundRobin(rr) => StrategySpec::RoundRobin { y: rr.y },
            Strategy::Hash(family) => StrategySpec::Hash { y: family.y() },
        }
    }
}

/// All of Round-Robin-y's state on one server.
#[derive(Debug, Clone)]
pub(crate) struct RoundRobin<V> {
    /// Copies of each entry.
    pub y: usize,
    /// How many servers mirror the coordinator counters (paper footnote
    /// 1: "the centralized head and tail scheme can be generalized to one
    /// where several servers store copies to improve reliability").
    /// Servers `0..mirrors` hold the counters; a coordinator mirror
    /// propagates every counter change to its peers.
    pub mirrors: usize,
    /// Coordinator counters; `Some` only on the servers that hold them.
    pub coord: Option<RrCoord>,
    /// The positions of the entry at the same index of the store: as many
    /// lists as the store has entries.
    at: Vec<Positions>,
    /// Occupied position → index into the store and `at`.
    slots: BTreeMap<u64, u32>,
    /// In-flight migration contexts, keyed by the deleted entry.
    pub migrations: HashMap<V, MigrationState<V>>,
    /// Migration requests that arrived before this server's own copy of
    /// the `RrRemove` broadcast (possible over transports without
    /// cross-mailbox ordering, e.g. TCP): `(requester, dest_pos)` pairs,
    /// replayed once the migration context exists.
    pub pending_migrations: HashMap<V, Vec<(pls_net::ServerId, u64)>>,
}

impl<V: Entry> RoundRobin<V> {
    /// What `Message::Reset` leaves: no positions, no migrations, and
    /// zeroed counters where this server holds them.
    pub(crate) fn reset(&mut self) {
        self.at.clear();
        self.slots.clear();
        self.migrations.clear();
        self.pending_migrations.clear();
        self.coord = self.coord.as_ref().map(|_| RrCoord::default());
    }

    /// Installs an entry at a position. Overwriting an occupied position
    /// first releases the old occupant.
    pub(crate) fn insert(&mut self, store: &mut IndexedSet<V>, pos: u64, v: V) {
        self.remove_at(store, pos);
        let (index, fresh) = store.insert_full(v);
        if fresh {
            self.at.push(Positions::one(pos));
        } else {
            self.at[index].push(pos);
        }
        self.slots.insert(pos, index as u32);
    }

    /// Clears a position. Returns the copy this server drops with it:
    /// `None` when the position was vacant, and when its entry stays on at
    /// another position.
    pub(crate) fn remove_at(&mut self, store: &mut IndexedSet<V>, pos: u64) -> Option<V> {
        let index = self.slots.remove(&pos)? as usize;
        self.at[index].remove(pos);
        if !self.at[index].as_slice().is_empty() {
            return None;
        }
        let (v, moved_from) = store.swap_remove_index(index);
        self.at.swap_remove(index);
        if moved_from.is_some() {
            for moved_pos in self.at[index].as_slice() {
                *self.slots.get_mut(moved_pos).expect("listed position is indexed") = index as u32;
            }
        }
        Some(v)
    }

    /// Clears the lowest position `v` occupies here; returns it.
    pub(crate) fn remove_entry(&mut self, store: &mut IndexedSet<V>, v: &V) -> Option<u64> {
        let index = store.index_of(v)?;
        let pos = *self.at[index].as_slice().iter().min().expect("a stored entry has a position");
        self.remove_at(store, pos);
        Some(pos)
    }

    /// The entry at a position.
    pub(crate) fn entry_at<'s>(&self, store: &'s IndexedSet<V>, pos: u64) -> Option<&'s V> {
        store.as_slice().get(*self.slots.get(&pos)? as usize)
    }

    /// Occupied positions and their entries, in ascending position order.
    pub fn positions<'s>(&'s self, store: &'s IndexedSet<V>) -> impl Iterator<Item = (u64, &'s V)> {
        let entries = store.as_slice();
        self.slots.iter().map(move |(pos, index)| (*pos, &entries[*index as usize]))
    }
}

/// One server's complete state.
#[derive(Debug, Clone)]
pub(crate) struct ServerNode<V> {
    /// The local entry store every lookup samples from, and the one owned
    /// copy of each entry this server keeps — under every strategy.
    pub store: IndexedSet<V>,
    /// The strategy, with the state that strategy alone keeps.
    pub strategy: Strategy<V>,
    /// Monotonic per-key version (Lamport-style): bumped by the
    /// coordinator on every versioned client update, maxed with every
    /// versioned internal message received.
    pub version: u64,
    /// Live delete markers, keyed by the deleted entry; `None` while there
    /// are none, which is always on the unversioned (in-process) path.
    /// Boxed so that an engine without any pays one pointer, not the
    /// map's 48 bytes; the box costs one more allocation per first marker.
    #[allow(clippy::box_collection)]
    pub tombstones: Option<Box<HashMap<V, Tombstone>>>,
}

impl<V: Entry> ServerNode<V> {
    pub(crate) fn new(strategy: Strategy<V>) -> Self {
        ServerNode { store: IndexedSet::new(), strategy, version: 0, tombstones: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::tests::Colliding;
    use crate::DetRng;

    impl<V: Entry> ServerNode<V> {
        /// A Round-Robin-2 server that holds no counters.
        fn round_robin() -> Self {
            ServerNode::new(Strategy::new(StrategySpec::round_robin(2), false, 4, 0))
        }

        /// The Round-Robin state and the store its positions index.
        fn rr(&mut self) -> (&mut RoundRobin<V>, &mut IndexedSet<V>) {
            let Strategy::RoundRobin(rr) = &mut self.strategy else { unreachable!() };
            (rr, &mut self.store)
        }

        fn rr_insert(&mut self, pos: u64, v: V) {
            let (rr, store) = self.rr();
            rr.insert(store, pos, v)
        }

        fn rr_remove_at(&mut self, pos: u64) -> Option<V> {
            let (rr, store) = self.rr();
            rr.remove_at(store, pos)
        }

        fn rr_remove_entry(&mut self, v: &V) -> Option<u64> {
            let (rr, store) = self.rr();
            rr.remove_entry(store, v)
        }

        fn rr_positions(&mut self) -> Vec<(u64, V)> {
            let (rr, store) = self.rr();
            rr.positions(store).map(|(pos, v)| (pos, v.clone())).collect()
        }

        /// The module doc's invariants, checked index by index.
        fn assert_consistent(&mut self) {
            let (rr, store) = self.rr();
            assert_eq!(rr.at.len(), store.len(), "one position list per stored entry");
            let mut listed = 0;
            for (index, positions) in rr.at.iter().enumerate() {
                let positions = positions.as_slice();
                assert!(!positions.is_empty(), "entry {index} is stored at no position");
                for (i, pos) in positions.iter().enumerate() {
                    assert!(!positions[..i].contains(pos), "position {pos} listed twice");
                    assert_eq!(rr.slots.get(pos), Some(&(index as u32)), "position {pos}");
                }
                listed += positions.len();
            }
            assert_eq!(listed, rr.slots.len(), "a position points at an entry not listing it");
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
        let mut node: ServerNode<V> = ServerNode::round_robin();
        let mut model: BTreeMap<u64, V> = BTreeMap::new();
        let mut order: Vec<V> = Vec::new();
        for _ in 0..400 {
            // Twelve values over forty positions: most inserts meet an
            // entry that already sits elsewhere, many an occupied position.
            let v = make(rng.below(12) as u8);
            let pos = rng.below(40) as u64;
            match rng.below(100) {
                0 => {
                    // What `Message::Reset` does.
                    node.store = IndexedSet::new();
                    node.rr().0.reset();
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
                node.rr_positions().into_iter().eq(model.iter().map(|(p, v)| (*p, *v))),
                "ascending positions"
            );
            let (rr, store) = node.rr();
            for (pos, v) in &model {
                assert_eq!(rr.entry_at(store, *pos), Some(v));
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
        let mut node: ServerNode<u32> = ServerNode::round_robin();
        for pos in [4, 9, 2, 7, 5] {
            node.rr_insert(pos, 42);
            node.assert_consistent();
        }
        assert_eq!(node.store.len(), 1);
        assert_eq!(node.rr_remove_entry(&42), Some(2), "the lowest position goes first");
        for (left, pos) in [(3, 9), (2, 4), (1, 5)] {
            assert_eq!(node.rr_remove_at(pos), None, "still held elsewhere");
            assert_eq!(node.rr_positions().len(), left);
            node.assert_consistent();
        }
        assert_eq!(node.rr_remove_at(7), Some(42));
        assert!(node.store.is_empty() && node.rr().0.slots.is_empty());
    }

    #[test]
    fn rr_insert_and_remove_maintain_store() {
        let mut node: ServerNode<u32> = ServerNode::round_robin();
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
        let mut node: ServerNode<u32> = ServerNode::round_robin();
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
        let mut node: ServerNode<u32> = ServerNode::round_robin();
        node.rr_insert(3, 1);
        node.rr_insert(3, 2);
        assert!(!node.store.contains(&1));
        assert!(node.store.contains(&2));
        assert_eq!(node.rr().0.slots.len(), 1);
    }

    #[test]
    fn rr_remove_entry_finds_position() {
        let mut node: ServerNode<u32> = ServerNode::round_robin();
        node.rr_insert(7, 70);
        node.rr_insert(8, 80);
        assert_eq!(node.rr_remove_entry(&80), Some(8));
        assert_eq!(node.rr_remove_entry(&80), None);
        assert_eq!(node.store.len(), 1);
    }

    #[test]
    fn removing_vacant_position_is_none() {
        let mut node: ServerNode<u32> = ServerNode::round_robin();
        assert_eq!(node.rr_remove_at(99), None);
    }
}
