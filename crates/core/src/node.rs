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
//! [`RoundRobin`] box, each direction of the position ↔ store-index
//! relation in a flat array:
//!
//! * `at[i]` is the lowest position of the entry at index `i` of the
//!   store. An entry held at more than one position — transiently while
//!   Fig. 11 migrates it onto a server that still holds it at its old
//!   position, or when a client added the same entry twice — keeps the
//!   others in `extras`: `(store index, position)` pairs sorted by both,
//!   so an entry's run is found by binary search on its index alone. The
//!   list is empty and allocates nothing until an entry first has a
//!   second position; afterwards it keeps its capacity, so the migration
//!   of every later delete reuses it.
//! * `slots` holds one `(position, store index)` pair per held position,
//!   sorted by position, in a deque. A position cleared in the middle
//!   stays as a vacancy (index `VACANT`): the hole Fig. 11 plugs, which
//!   the `MigrateRep` for the same position refills in place, so no step
//!   of a delete shifts the array. Adds append at the tail, and the
//!   `RrRemoveAt` of the old head pops the head. Vacancies at either end
//!   are trimmed at once, and the deque compacts in place when vacancies
//!   outnumber held positions. Only a position never held between the
//!   front and the back shifts it, which takes an anomaly: a delete of an
//!   entry the key does not hold, or a migration reply lost over TCP.
//!
//! On a Round-Robin server the two describe each other exactly: every
//! held slot points at a live store index whose `at` or `extras` names its
//! position, and every store index has at least one position (an entry
//! whose last position is cleared leaves the store in the same call). The
//! store removes by swap-remove, so when an entry leaves, the entry that
//! takes over its index brings its `at` value and its extras along and
//! has its slots repointed. Finding an entry's position is therefore
//! the hash probe the store makes anyway, and a server that does not hold
//! an entry learns so from that probe alone.
//!
//! The other strategies write `store` directly and have no positions to
//! write, so no server does both.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;

use pls_net::{HashSeed, ServerId};

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
            StrategySpec::RoundRobin { y } => {
                let seed = HashSeed::random();
                Strategy::RoundRobin(Box::new(RoundRobin {
                    y,
                    mirrors: 1,
                    coord: coordinator.then(RrCoord::default),
                    at: Vec::new(),
                    extras: Vec::new(),
                    slots: Slots::default(),
                    migrations: HashMap::with_hasher(seed),
                    pending_migrations: HashMap::with_hasher(seed),
                }))
            }
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
    /// The lowest position of the entry at the same index of the store:
    /// as many as the store has entries.
    at: Vec<u64>,
    /// The positions beyond `at`'s of the entries held at more than one,
    /// as `(store index, position)` pairs in ascending order.
    extras: Vec<(u32, u64)>,
    /// Held position → index into the store and `at`.
    slots: Slots,
    /// In-flight migration contexts, keyed by the deleted entry.
    pub migrations: HashMap<V, MigrationState<V>, HashSeed>,
    /// Migration requests that arrived before this server's own copy of
    /// the `RrRemove` broadcast (possible over transports without
    /// cross-mailbox ordering, e.g. TCP): `(requester, dest_pos)` pairs,
    /// replayed once the migration context exists.
    pub pending_migrations: HashMap<V, Vec<(ServerId, u64)>, HashSeed>,
}

impl<V: Entry> RoundRobin<V> {
    /// What `Message::Reset` leaves: no positions, no migrations, and
    /// zeroed counters where this server holds them.
    pub(crate) fn reset(&mut self) {
        self.at.clear();
        self.extras.clear();
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
            self.at.push(pos);
        } else {
            let lowest = &mut self.at[index];
            let extra = if pos < *lowest { std::mem::replace(lowest, pos) } else { pos };
            let extra = (index as u32, extra);
            let i = self.extras.partition_point(|held| *held < extra);
            self.extras.insert(i, extra);
        }
        self.slots.set(pos, index as u32);
    }

    /// Clears a position. Returns the copy this server drops with it:
    /// `None` when the position was vacant, and when its entry stays on at
    /// another position.
    pub(crate) fn remove_at(&mut self, store: &mut IndexedSet<V>, pos: u64) -> Option<V> {
        let index = self.slots.vacate(pos)?;
        if self.forget(index, pos) {
            return None;
        }
        let index = index as usize;
        let (v, moved_from) = store.swap_remove_index(index);
        self.at.swap_remove(index);
        if let Some(from) = moved_from {
            self.slots.set(self.at[index], index as u32);
            // The moved entry had the highest index: its extras are the
            // tail of the list, and move to where `index`'s would sit (the
            // removed entry had none).
            let run = self.extras_of(from as u32);
            if !run.is_empty() {
                let to = self.extras.partition_point(|(i, _)| *i < index as u32);
                for (i, pos) in &mut self.extras[run.clone()] {
                    *i = index as u32;
                    self.slots.set(*pos, index as u32);
                }
                self.extras[to..].rotate_right(run.len());
            }
        }
        Some(v)
    }

    /// Where the extras of the entry at `index` sit in `extras`.
    fn extras_of(&self, index: u32) -> Range<usize> {
        let start = self.extras.partition_point(|(i, _)| *i < index);
        start..start + self.extras[start..].partition_point(|(i, _)| *i == index)
    }

    /// Forgets that the entry at `index` sits at `pos`; returns whether it
    /// sits at another position still.
    fn forget(&mut self, index: u32, pos: u64) -> bool {
        let run = self.extras_of(index);
        if run.is_empty() {
            return false;
        }
        let lowest = &mut self.at[index as usize];
        let i = if *lowest == pos {
            *lowest = self.extras[run.start].1;
            run.start
        } else {
            self.extras.binary_search(&(index, pos)).expect("position listed")
        };
        self.extras.remove(i);
        true
    }

    /// Clears the lowest position `v` occupies here; returns it.
    pub(crate) fn remove_entry(&mut self, store: &mut IndexedSet<V>, v: &V) -> Option<u64> {
        let pos = self.at[store.index_of(v)?];
        self.remove_at(store, pos);
        Some(pos)
    }

    /// The entry at a position.
    pub(crate) fn entry_at<'s>(&self, store: &'s IndexedSet<V>, pos: u64) -> Option<&'s V> {
        store.as_slice().get(self.slots.get(pos)? as usize)
    }

    /// Occupied positions and their entries, in ascending position order.
    pub fn positions<'s>(&'s self, store: &'s IndexedSet<V>) -> impl Iterator<Item = (u64, &'s V)> {
        let entries = store.as_slice();
        self.slots.held().map(move |(pos, index)| (pos, &entries[index as usize]))
    }
}

/// The store index of a cleared position that is kept as a vacancy.
const VACANT: u32 = u32::MAX;

/// One `(position, store index)` pair per held position, sorted by
/// position, with cleared middle positions kept as vacancies (module doc).
/// The front and the back are always held.
#[derive(Debug, Clone, Default)]
struct Slots {
    deque: VecDeque<(u64, u32)>,
    /// How many of `deque`'s slots are vacancies.
    vacant: usize,
}

impl Slots {
    fn find(&self, pos: u64) -> Result<usize, usize> {
        self.deque.binary_search_by_key(&pos, |(p, _)| *p)
    }

    /// The store index at `pos`, if it is held.
    fn get(&self, pos: u64) -> Option<u32> {
        let index = self.deque[self.find(pos).ok()?].1;
        (index != VACANT).then_some(index)
    }

    /// Points `pos` at store index `index`: repoints a held slot, refills
    /// a vacancy in place, and inserts a position never held, which
    /// shifts only when it falls between the front and the back.
    fn set(&mut self, pos: u64, index: u32) {
        match self.find(pos) {
            Ok(i) => {
                let slot = &mut self.deque[i].1;
                if *slot == VACANT {
                    self.vacant -= 1;
                }
                *slot = index;
            }
            Err(i) => self.deque.insert(i, (pos, index)),
        }
    }

    /// Clears `pos`; returns the store index it held. Trims vacancies
    /// left at either end, and compacts once they outnumber held slots.
    fn vacate(&mut self, pos: u64) -> Option<u32> {
        let i = self.find(pos).ok()?;
        let index = std::mem::replace(&mut self.deque[i].1, VACANT);
        if index == VACANT {
            return None;
        }
        self.vacant += 1;
        while self.deque.front().is_some_and(|(_, index)| *index == VACANT) {
            self.deque.pop_front();
            self.vacant -= 1;
        }
        while self.deque.back().is_some_and(|(_, index)| *index == VACANT) {
            self.deque.pop_back();
            self.vacant -= 1;
        }
        if self.vacant > self.deque.len() - self.vacant {
            self.deque.retain(|(_, index)| *index != VACANT);
            self.vacant = 0;
        }
        Some(index)
    }

    fn clear(&mut self) {
        self.deque.clear();
        self.vacant = 0;
    }

    /// The held positions and their store indices, ascending.
    fn held(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.deque.iter().copied().filter(|(_, index)| *index != VACANT)
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
    use std::collections::BTreeMap;

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
            assert_eq!(rr.at.len(), store.len(), "one lowest position per stored entry");
            let mut listed = 0;
            for (index, lowest) in rr.at.iter().enumerate() {
                let extras = rr.extras[rr.extras_of(index as u32)].iter().map(|(_, pos)| *pos);
                let positions: Vec<u64> = std::iter::once(*lowest).chain(extras).collect();
                assert!(positions.iter().all(|pos| pos >= lowest), "entry {index}: `at` is lowest");
                for (i, pos) in positions.iter().enumerate() {
                    assert!(!positions[..i].contains(pos), "position {pos} listed twice");
                    assert_eq!(rr.slots.get(*pos), Some(index as u32), "position {pos}");
                }
                listed += positions.len();
            }
            assert!(rr.extras.windows(2).all(|pair| pair[0] < pair[1]), "extras ascending");
            assert!(rr.extras.iter().all(|(index, _)| (*index as usize) < store.len()));
            assert_eq!(listed, rr.slots.len(), "a position points at an entry not listing it");
            rr.slots.assert_flat();
        }
    }

    impl Slots {
        /// How many positions are held.
        fn len(&self) -> usize {
            self.deque.len() - self.vacant
        }

        /// Sorted, counted, trimmed at both ends, and at most one vacancy
        /// per held position.
        fn assert_flat(&self) {
            let positions = self.deque.iter().map(|(pos, _)| pos);
            assert!(positions.clone().zip(positions.skip(1)).all(|(a, b)| a < b), "sorted");
            let vacant = self.deque.iter().filter(|(_, index)| *index == VACANT).count();
            assert_eq!(vacant, self.vacant, "vacancies counted");
            assert!(self.deque.front().is_none_or(|(_, index)| *index != VACANT), "front held");
            assert!(self.deque.back().is_none_or(|(_, index)| *index != VACANT), "back held");
            assert!(self.deque.len() <= 2 * self.len() + 1, "{vacant} vacancies");
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
        // Positions cleared, for inserts to refill as Fig. 11 does.
        let mut cleared: Vec<u64> = Vec::new();
        for _ in 0..400 {
            // Twelve values over forty positions: most inserts meet an
            // entry that already sits elsewhere, many an occupied position.
            let v = make(rng.below(12) as u8);
            let mut pos = rng.below(40) as u64;
            match rng.below(100) {
                0 => {
                    // What `Message::Reset` does.
                    node.store = IndexedSet::new();
                    node.rr().0.reset();
                    model.clear();
                    order.clear();
                }
                1..=54 => {
                    if rng.below(2) == 0 {
                        pos = cleared.pop().unwrap_or(pos);
                    }
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
                        cleared.push(pos);
                    }
                }
                _ => {
                    let lowest = model.iter().find_map(|(p, held)| (*held == v).then_some(*p));
                    assert_eq!(node.rr_remove_entry(&v), lowest, "rr_remove_entry({v:?})");
                    if let Some(p) = lowest {
                        model.remove(&p);
                        release(&mut order, &model, &v);
                        cleared.push(p);
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
        assert!(node.store.is_empty() && node.rr().0.slots.len() == 0);
    }

    /// Fig. 11 on one server of `n = 4` under Round-Robin-2, through
    /// 20,000 positions: each cycle appends at the tail, clears a middle
    /// position and refills it with the head's entry, then removes the
    /// head. The refill lands on the vacancy the clear left, so the deque
    /// never holds more than one vacancy per held position, and its ends
    /// stay held.
    #[test]
    fn a_delete_refills_its_hole_in_place() {
        const N: u64 = 4;
        let holds = |pos: u64| matches!(pos % N, 0 | 3); // server 0's share
        let mut rng = DetRng::seed_from(7);
        let mut node: ServerNode<u64> = ServerNode::round_robin();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut head = 0;
        for tail in 0..20_000 {
            model.insert(tail, tail);
            if holds(tail) {
                node.rr_insert(tail, tail);
            }
            node.rr().0.slots.assert_flat();
            if tail - head < 40 {
                continue;
            }
            let hole = head + 1 + rng.below((tail - head - 1) as usize) as u64;
            let replacement = model[&head];
            model.insert(hole, replacement);
            if holds(hole) {
                node.rr_remove_at(hole);
                node.rr().0.slots.assert_flat();
                node.rr_insert(hole, replacement);
                node.rr().0.slots.assert_flat();
            }
            model.remove(&head);
            if holds(head) {
                node.rr_remove_at(head);
            }
            head += 1;
            node.assert_consistent();
            let held = model.iter().filter(|(pos, _)| holds(**pos)).map(|(p, v)| (*p, *v));
            assert!(node.rr_positions().into_iter().eq(held), "positions at tail {tail}");
        }
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
