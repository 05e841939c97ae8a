//! A multi-key partial lookup directory.
//!
//! The paper defines the service over many keys but studies one key at a
//! time, noting that "different strategies can be used to manage
//! different types of keys" (§2). [`Directory`] is that multi-key
//! service: `n` servers, each running one
//! [`NodeEngine`](crate::engine::NodeEngine) per key, with a pluggable
//! per-key strategy assignment — uniform, custom, or driven by the
//! [`advisor`](crate::advisor). Each key is one replica group, driven
//! through the same two loops as the single-key [`Cluster`](crate::Cluster).
//!
//! Beyond the single-key [`Cluster`](crate::Cluster), the directory
//! tracks **per-server lookup load**, the quantity behind the paper's
//! hot-spot argument: partial lookup placements spread a popular key's
//! traffic over many servers, where key-partitioned services concentrate
//! it on one.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use pls_net::ServerId;

use crate::group::{self, Group, Scratch};
use crate::lookup::{Bookkeeping, SparePool};
use crate::{
    ConfigError, DetRng, Entry, FailureSet, LookupResult, Message, ServiceError, StrategySpec,
};

/// Key types for the directory: anything hashable and cloneable.
pub trait Key: Clone + Eq + Hash + std::fmt::Debug {}
impl<T: Clone + Eq + Hash + std::fmt::Debug> Key for T {}

/// How the directory picks a strategy for each key.
pub enum StrategyAssignment<K> {
    /// Every key uses the same strategy.
    Uniform(StrategySpec),
    /// A custom function from key to strategy (e.g. hot keys get
    /// Round-Robin, churny keys get Fixed-x).
    PerKey(Box<dyn Fn(&K) -> StrategySpec + Send + Sync>),
}

impl<K> std::fmt::Debug for StrategyAssignment<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyAssignment::Uniform(spec) => write!(f, "Uniform({spec})"),
            StrategyAssignment::PerKey(_) => write!(f, "PerKey(<fn>)"),
        }
    }
}

impl<K> StrategyAssignment<K> {
    fn spec_for(&self, key: &K) -> StrategySpec {
        match self {
            StrategyAssignment::Uniform(spec) => *spec,
            StrategyAssignment::PerKey(f) => f(key),
        }
    }
}

/// A multi-key partial lookup service on `n` simulated servers.
///
/// # Example
///
/// ```
/// use pls_core::directory::{Directory, StrategyAssignment};
/// use pls_core::StrategySpec;
///
/// let mut dir: Directory<&'static str, u64> = Directory::new(
///     10,
///     StrategyAssignment::Uniform(StrategySpec::round_robin(2)),
///     42,
/// )?;
/// dir.place("stairway", (0..50).collect())?;
/// dir.place("yesterday", (100..140).collect())?;
/// let hits = dir.partial_lookup(&"stairway", 5)?;
/// assert!(hits.is_satisfied(5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Directory<K: Key, V: Entry> {
    n: usize,
    assignment: StrategyAssignment<K>,
    seed: u64,
    /// Each key's `n` engines.
    groups: HashMap<K, Group<V>>,
    failures: FailureSet,
    rng: DetRng,
    /// Lookup probes served, per server — the hot-spot metric.
    lookup_load: Vec<u64>,
    /// Update messages processed, per server.
    update_load: Vec<u64>,
    /// Lent to whichever key is being updated.
    scratch: Scratch<V>,
    /// Lent to every lookup, whatever its key.
    bookkeeping: Bookkeeping,
    /// What dropped lookup results gave back, for any key's next lookup.
    spares: SparePool<V>,
}

impl<K: Key, V: Entry> Directory<K, V> {
    /// Creates an empty directory on `n` servers.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidParameter`] when `n` is zero. Per-key
    /// strategy specs are validated lazily when the key is first used.
    pub fn new(
        n: usize,
        assignment: StrategyAssignment<K>,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::InvalidParameter("server count n must be positive"));
        }
        Ok(Directory {
            n,
            assignment,
            seed,
            groups: HashMap::new(),
            failures: FailureSet::new(n),
            rng: DetRng::seed_from(seed ^ 0xD12E_C704),
            lookup_load: vec![0; n],
            update_load: vec![0; n],
            scratch: Scratch::default(),
            bookkeeping: Bookkeeping::default(),
            spares: SparePool::default(),
        })
    }

    /// Number of servers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Keys currently managed.
    pub fn key_count(&self) -> usize {
        self.groups.len()
    }

    /// The strategy a key is (or would be) managed under.
    pub fn spec_for(&self, key: &K) -> StrategySpec {
        self.assignment.spec_for(key)
    }

    /// The failure set.
    pub fn failures(&self) -> &FailureSet {
        &self.failures
    }

    /// Crashes a server (affects every key).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn fail_server(&mut self, s: ServerId) {
        self.failures.fail(s);
    }

    /// Recovers a server.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn recover_server(&mut self, s: ServerId) {
        self.failures.recover(s);
    }

    /// Lookup probes served per server so far (the hot-spot metric).
    pub fn lookup_load(&self) -> &[u64] {
        &self.lookup_load
    }

    /// Update messages processed per server so far.
    pub fn update_load(&self) -> &[u64] {
        &self.update_load
    }

    /// Resets the per-server load accounting.
    pub fn reset_load(&mut self) {
        self.lookup_load.iter_mut().for_each(|c| *c = 0);
        self.update_load.iter_mut().for_each(|c| *c = 0);
    }

    fn key_seed(&self, key: &K) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        self.seed ^ hasher.finish()
    }

    /// Runs one client update of `key` to quiescence, charging per-server
    /// update load. A `place` or `add` that goes through creates the key.
    fn update(&mut self, key: &K, msg: Message<V>) -> Result<(), ServiceError> {
        let mut created = None;
        let group = match self.groups.get_mut(key) {
            Some(group) => group,
            None => {
                let spec = self.assignment.spec_for(key);
                // Nothing to delete, and no reason to create the key.
                if matches!(msg, Message::DeleteReq { .. }) {
                    return spec.validate(self.n).map_err(ServiceError::InvalidStrategy);
                }
                let group = Group::new(self.n, spec, self.key_seed(key));
                created.insert(group.map_err(ServiceError::InvalidStrategy)?)
            }
        };
        group.update(&mut self.scratch, &self.failures, &mut self.rng, msg, |s, delivered| {
            self.update_load[s.index()] += u64::from(delivered);
        })?;
        if let Some(group) = created {
            self.groups.insert(key.clone(), group);
        }
        Ok(())
    }

    /// `place` for one key (§2).
    ///
    /// # Errors
    ///
    /// [`ServiceError::AllServersFailed`] when no coordinator is up;
    /// [`ServiceError::InvalidStrategy`] when the key's assigned strategy
    /// does not fit this directory (only that key is affected).
    pub fn place(&mut self, key: K, entries: Vec<V>) -> Result<(), ServiceError> {
        self.update(&key, Message::PlaceReq { entries })
    }

    /// `add` for one key (§5).
    ///
    /// # Errors
    ///
    /// As [`Directory::place`], plus
    /// [`ServiceError::CoordinatorUnavailable`] for Round-Robin keys.
    pub fn add(&mut self, key: &K, v: V) -> Result<(), ServiceError> {
        self.update(key, Message::AddReq { v })
    }

    /// `delete` for one key (§5); of a key never placed, nothing. For a
    /// Round-Robin-y key, deleting an entry that is not in the system
    /// corrupts the sequence, as [`Cluster::delete`](crate::Cluster::delete)
    /// does (DESIGN.md §14).
    ///
    /// # Errors
    ///
    /// As [`Directory::add`].
    pub fn delete(&mut self, key: &K, v: &V) -> Result<(), ServiceError> {
        self.update(key, Message::DeleteReq { v: v.clone() })
    }

    /// `partial_lookup(k, t)`: the strategy-specific client procedure of
    /// the key's strategy (see [`Cluster::partial_lookup`] for the
    /// semantics, including the trim to exactly `t`).
    ///
    /// [`Cluster::partial_lookup`]: crate::Cluster::partial_lookup
    ///
    /// # Errors
    ///
    /// [`ServiceError::ZeroTarget`] for `t == 0`;
    /// [`ServiceError::AllServersFailed`] when nothing is up. An unknown
    /// key returns an empty, unsatisfied result (the paper's `lookup`
    /// returns the empty set for unknown keys).
    pub fn partial_lookup(&mut self, key: &K, t: usize) -> Result<LookupResult<V>, ServiceError> {
        let Some(group) = self.groups.get(key) else {
            group::check_lookup(t, &self.failures)?;
            return Ok(LookupResult::new(Vec::new(), Vec::new()));
        };
        let (load, lent) = (&mut self.lookup_load, (&mut self.bookkeeping, &self.spares));
        group.lookup(t, &self.failures, &mut self.rng, lent, |s| load[s.index()] += 1)
    }

    /// The entries a server stores for one key (empty for unknown keys).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn server_entries(&self, key: &K, s: ServerId) -> &[V] {
        assert!(s.index() < self.n, "server out of range");
        self.groups.get(key).map(|g| g.engines[s.index()].entries()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::tests::{held, BOUND};

    fn uniform(spec: StrategySpec) -> StrategyAssignment<&'static str> {
        StrategyAssignment::Uniform(spec)
    }

    #[test]
    fn keys_are_independent() {
        let mut dir: Directory<&str, u64> =
            Directory::new(5, uniform(StrategySpec::hash(2)), 1).unwrap();
        dir.place("a", (0..20).collect()).unwrap();
        dir.place("b", (100..120).collect()).unwrap();
        let a = dir.partial_lookup(&"a", 10).unwrap();
        assert!(a.entries().iter().all(|v| *v < 20));
        let b = dir.partial_lookup(&"b", 10).unwrap();
        assert!(b.entries().iter().all(|v| *v >= 100));
        assert_eq!(dir.key_count(), 2);
    }

    #[test]
    fn unknown_key_returns_empty() {
        let mut dir: Directory<&str, u64> =
            Directory::new(3, uniform(StrategySpec::full_replication()), 2).unwrap();
        let r = dir.partial_lookup(&"ghost", 5).unwrap();
        assert!(r.entries().is_empty());
        assert!(!r.is_satisfied(1));
    }

    #[test]
    fn a_delete_of_an_unknown_key_creates_nothing() {
        let mut dir: Directory<&str, u64> =
            Directory::new(3, uniform(StrategySpec::round_robin(2)), 2).unwrap();
        dir.delete(&"ghost", &5).unwrap();
        assert_eq!(dir.key_count(), 0);
        assert!(dir.server_entries(&"ghost", ServerId::new(0)).is_empty());
        assert_eq!(dir.update_load().iter().sum::<u64>(), 0);
        // An add does create it, and then there is something to delete.
        dir.add(&"ghost", 5).unwrap();
        assert_eq!(dir.key_count(), 1);
        dir.delete(&"ghost", &5).unwrap();
        assert_eq!(dir.key_count(), 1);
        assert!(dir.partial_lookup(&"ghost", 1).unwrap().entries().is_empty());
    }

    #[test]
    fn per_key_strategies() {
        let assignment: StrategyAssignment<&str> = StrategyAssignment::PerKey(Box::new(|key| {
            if key.starts_with("hot/") {
                StrategySpec::round_robin(2)
            } else {
                StrategySpec::fixed(10)
            }
        }));
        let mut dir: Directory<&str, u64> = Directory::new(10, assignment, 3).unwrap();
        dir.place("hot/song", (0..100).collect()).unwrap();
        dir.place("cold/song", (0..100).collect()).unwrap();
        assert_eq!(dir.spec_for(&"hot/song"), StrategySpec::round_robin(2));
        assert_eq!(dir.spec_for(&"cold/song"), StrategySpec::fixed(10));
        // Fixed-10 stores the same 10 everywhere; Round-2 spreads.
        let cold = dir.server_entries(&"cold/song", ServerId::new(0));
        assert_eq!(cold.len(), 10);
        let hot = dir.server_entries(&"hot/song", ServerId::new(0));
        assert_eq!(hot.len(), 20);
    }

    #[test]
    fn updates_and_lookups_roundtrip() {
        let mut dir: Directory<&str, u64> =
            Directory::new(6, uniform(StrategySpec::round_robin(2)), 4).unwrap();
        dir.place("k", (0..30).collect()).unwrap();
        dir.add(&"k", 500).unwrap();
        dir.delete(&"k", &0).unwrap();
        for _ in 0..30 {
            let r = dir.partial_lookup(&"k", 30).unwrap();
            assert!(r.is_satisfied(30));
            assert!(!r.entries().contains(&0));
        }
    }

    #[test]
    fn the_unversioned_path_never_boxes_tombstones() {
        use crate::Message;
        use pls_net::Endpoint;
        let mut dir = mixed(17, |v| v);
        let mut rng = DetRng::seed_from(18);
        for step in 0..400 {
            let (key, spec, size) = MIXED[step % MIXED.len()];
            let v = rng.below(2 * size as usize) as u64; // half of them absent
            match rng.below(10) {
                0 => dir.place(key, (0..size).collect()).unwrap(),
                1..=3 => dir.add(&key, v).unwrap(),
                4..=6 => dir.delete(&key, &v).unwrap(),
                _ => assert!(dir.partial_lookup(&key, 5).is_ok(), "{spec}"),
            }
        }
        for (key, spec, _) in MIXED {
            let engines = &dir.groups[&key].engines;
            assert!(engines.iter().all(|e| !e.holds_tombstones()), "{spec}");
        }

        // A versioned delete boxes them; each way of emptying them frees the box.
        let versioned = |msg| Message::Versioned { version: 9, stamp_ms: 50, msg: Box::new(msg) };
        let (client, server) = (Endpoint::client(0), Endpoint::Server(ServerId::new(0)));
        let mut e = dir.groups[&"random"].engines[1].clone();
        for how in ["gc", "Reset", "StoreSet", "ChooseSubset", "set_version_meta"] {
            assert!(e.handle(server, versioned(Message::CountedRemove { v: 7 })).is_empty());
            assert!(e.holds_tombstones() && e.tombstone_count() == 1, "{how}");
            match how {
                "gc" => assert_eq!(e.gc_tombstones(50), 1),
                "Reset" => assert!(e.handle(client, Message::Reset).is_empty()),
                "StoreSet" => {
                    drop(e.handle(client, versioned(Message::StoreSet { entries: vec![3] })))
                }
                "ChooseSubset" => {
                    let msg = Message::ChooseSubset { entries: vec![1, 2], x: 20 };
                    drop(e.handle(client, versioned(msg)))
                }
                _ => e.set_version_meta(0, []),
            }
            assert!(!e.holds_tombstones(), "{how}");
        }
    }

    #[test]
    fn a_lookup_copies_only_the_entries_it_returns() {
        use crate::collections::tests::{clones, Counted};
        for spec in
            [StrategySpec::random_server(20), StrategySpec::round_robin(2), StrategySpec::hash(2)]
        {
            let mut dir: Directory<&str, Counted> = Directory::new(10, uniform(spec), 11).unwrap();
            dir.place("k", (0..100).map(Counted).collect()).unwrap();
            let mut fetched = 0;
            for _ in 0..50 {
                let before = clones();
                let r = dir.partial_lookup(&"k", 35).unwrap();
                assert!(r.servers_contacted() >= 2, "{spec}: one probe cannot hold 35");
                assert_eq!(r.entries().len(), 35);
                assert_eq!(clones() - before, 35, "{spec}");
                fetched += r
                    .contacted()
                    .iter()
                    .map(|s| dir.server_entries(&"k", *s).len().min(35))
                    .sum::<usize>();
            }
            // The servers offered more than that: duplicates and the trim
            // were dropped as references.
            assert!(fetched > 50 * 35, "{spec}: {fetched}");
        }
        // One probe, `t` of a larger store: the `t` that are the answer.
        for spec in [StrategySpec::full_replication(), StrategySpec::fixed(20)] {
            let mut dir: Directory<&str, Counted> = Directory::new(10, uniform(spec), 11).unwrap();
            dir.place("k", (0..100).map(Counted).collect()).unwrap();
            let before = clones();
            let r = dir.partial_lookup(&"k", 5).unwrap();
            assert_eq!((r.servers_contacted(), r.entries().len()), (1, 5), "{spec}");
            assert_eq!(clones() - before, 5, "{spec}");
        }
    }

    /// Entry `id` in bytes: 200 of them below id 400, a few above.
    fn sized(id: u64) -> Vec<u8> {
        if id < 400 {
            format!("{id:0200}").into_bytes()
        } else {
            id.to_string().into_bytes()
        }
    }

    fn sized_key(spec: StrategySpec, seed: u64) -> Directory<&'static str, Vec<u8>> {
        let mut dir = Directory::new(10, uniform(spec), seed).unwrap();
        dir.place("k", (0..100).map(sized).collect()).unwrap();
        dir
    }

    /// One key per strategy, each with a store of its own size.
    const MIXED: [(&str, StrategySpec, u64); 5] = [
        ("full", StrategySpec::FullReplication, 60),
        ("fixed", StrategySpec::Fixed { x: 20 }, 100),
        ("random", StrategySpec::RandomServer { x: 20 }, 150),
        ("round", StrategySpec::RoundRobin { y: 2 }, 200),
        ("hash", StrategySpec::Hash { y: 2 }, 80),
    ];

    /// A directory of the five [`MIXED`] keys, their entries `0..size`
    /// made by `entry`.
    fn mixed<V: Entry>(seed: u64, entry: fn(u64) -> V) -> Directory<&'static str, V> {
        let spec_of = |key: &&str| MIXED.iter().find(|(k, ..)| k == key).expect("a mixed key").1;
        let mut dir =
            Directory::new(10, StrategyAssignment::PerKey(Box::new(spec_of)), seed).unwrap();
        for (key, _, size) in MIXED {
            dir.place(key, (0..size).map(entry).collect()).unwrap();
        }
        dir
    }

    /// Step `step` of a history on the [`MIXED`] keys, run on both `dirs`:
    /// one key gains entry `200 + step` and loses a live one (with [`sized`]
    /// entries, long ones come in, then short ones, so spares of one length
    /// are written over with the other), and server 3 is down for a third of
    /// the history, so that the single probe, the stride walk and the
    /// shuffle all meet a server believed down. Returns the step's `t`.
    fn advance<V: Entry>(
        dirs: [&mut Directory<&'static str, V>; 2],
        live: &mut [Vec<u64>],
        step: u64,
        entry: fn(u64) -> V,
    ) -> usize {
        let k = step as usize % MIXED.len();
        let at = step as usize * 7 % live[k].len();
        let victim = std::mem::replace(&mut live[k][at], 200 + step);
        for dir in dirs {
            dir.add(&MIXED[k].0, entry(200 + step)).unwrap();
            dir.delete(&MIXED[k].0, &entry(victim)).unwrap();
            match (150..300).contains(&step) {
                true => dir.fail_server(ServerId::new(3)),
                false => dir.recover_server(ServerId::new(3)),
            }
        }
        [35, 5, 15, 100][step as usize % 4]
    }

    /// The twin keeps every result and looks up in fresh bookkeeping; the
    /// other drops its results and lends its bookkeeping to every lookup.
    #[test]
    fn recycling_never_changes_an_answer() {
        let (mut dropping, mut keeping) = (mixed(13, sized), mixed(13, sized));
        let mut live: Vec<Vec<u64>> = MIXED.iter().map(|(.., size)| (0..*size).collect()).collect();
        for step in 0..450 {
            let t = advance([&mut dropping, &mut keeping], &mut live, step, sized);
            for (key, ..) in MIXED {
                keeping.bookkeeping = Bookkeeping::default();
                let seen = dropping.partial_lookup(&key, t).unwrap();
                let kept = keeping.partial_lookup(&key, t).unwrap();
                assert_eq!(seen.contacted(), kept.contacted(), "{key}, step {step}, t = {t}");
                assert_eq!(seen.entries(), kept.into_entries(), "{key}, step {step}, t = {t}");
            }
        }
        assert_eq!(dropping.lookup_load(), keeping.lookup_load());
        assert_eq!(held(&dropping.spares).0, 1, "one result at a time");
        assert_eq!(held(&keeping.spares), (0, 0), "kept entries are not given back");
    }

    thread_local! {
        static ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// An entry whose `clone_from` panics once after [`ARMED`] is set.
    #[derive(Debug, PartialEq, Eq, Hash)]
    struct Fragile(u64);

    impl Clone for Fragile {
        fn clone(&self) -> Self {
            Fragile(self.0)
        }

        fn clone_from(&mut self, source: &Self) {
            assert!(!ARMED.with(|armed| armed.replace(false)), "clone_from of {source:?}");
            self.0 = source.0;
        }
    }

    #[test]
    fn a_lookup_that_panics_halfway_leaves_nothing_behind() {
        let (mut dropping, mut keeping) = (mixed(16, Fragile), mixed(16, Fragile));
        let mut live: Vec<Vec<u64>> = MIXED.iter().map(|(.., size)| (0..*size).collect()).collect();
        for step in 0..300 {
            let t = advance([&mut dropping, &mut keeping], &mut live, step, Fragile);
            for (key, ..) in MIXED {
                // Every fiftieth step, one key's copy over a spare panics.
                // Every draw comes before the copies, so the twin's lookup
                // leaves the two in step; the next hundred answers, and
                // all after them, must agree.
                if step % 50 == 10 && key == MIXED[step as usize / 50 % MIXED.len()].0 {
                    ARMED.with(|armed| armed.set(true));
                    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        dropping.partial_lookup(&key, t).map(|r| r.entries().len())
                    }));
                    assert!(panicked.is_err(), "{key}, step {step}: nothing was written over");
                    assert!(!ARMED.with(|armed| armed.get()));
                    keeping.partial_lookup(&key, t).unwrap();
                    continue;
                }
                let seen = dropping.partial_lookup(&key, t).unwrap();
                let kept = keeping.partial_lookup(&key, t).unwrap();
                assert_eq!(seen.contacted(), kept.contacted(), "{key}, step {step}, t = {t}");
                assert_eq!(seen.entries(), kept.into_entries(), "{key}, step {step}, t = {t}");
            }
        }
        assert_eq!(dropping.lookup_load(), keeping.lookup_load());
    }

    #[test]
    fn a_merge_that_panics_halfway_leaves_nothing_behind() {
        use crate::collections::tests::{Touchy, FUSE};
        let (mut dropping, mut keeping) = (mixed(17, Touchy), mixed(17, Touchy));
        let mut live: Vec<Vec<u64>> = MIXED.iter().map(|(.., size)| (0..*size).collect()).collect();
        for step in 0..300 {
            let t = advance([&mut dropping, &mut keeping], &mut live, step, Touchy);
            for (key, ..) in MIXED {
                keeping.bookkeeping = Bookkeeping::default();
                // Every twentieth step (t = 35), one merging key's lookup
                // panics at its k-th hash of an entry, in the first batch
                // of an answer or a later one. It panics in both
                // directories, so both have drawn alike; the one that
                // lends its bookkeeping must then answer as the one that
                // starts each lookup afresh.
                let nth = step as usize / 20;
                if step % 20 == 0 && key == ["random", "round", "hash"][nth % 3] {
                    for dir in [&mut dropping, &mut keeping] {
                        FUSE.set(Some((true, [3, 33, 20, 34, 31][nth % 5])));
                        let panicked =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                dir.partial_lookup(&key, t).map(|r| r.entries().len())
                            }));
                        assert!(panicked.is_err() && FUSE.take().is_none(), "{key}, step {step}");
                    }
                    continue;
                }
                let seen = dropping.partial_lookup(&key, t).unwrap();
                let kept = keeping.partial_lookup(&key, t).unwrap();
                assert_eq!(seen.contacted(), kept.contacted(), "{key}, step {step}, t = {t}");
                assert_eq!(seen.entries(), kept.into_entries(), "{key}, step {step}, t = {t}");
            }
        }
        assert_eq!(dropping.lookup_load(), keeping.lookup_load());
    }

    #[test]
    fn dropping_many_held_results_leaves_the_pool_at_its_bound() {
        let mut dir = sized_key(StrategySpec::hash(2), 14);
        let results: Vec<_> = (0..10_000).map(|_| dir.partial_lookup(&"k", 35).unwrap()).collect();
        assert_eq!(held(&dir.spares), (0, 0));
        drop(results);
        let (answers, entries) = BOUND;
        assert_eq!(held(&dir.spares), (answers, entries));
        // The next result is written over one vector and 35 entries.
        let r = dir.partial_lookup(&"k", 35).unwrap();
        assert_eq!(held(&dir.spares), (answers - 1, entries - 35));
        drop(r);
        assert_eq!(held(&dir.spares), (answers, entries));
    }

    #[test]
    fn a_cloned_result_and_one_dropped_on_another_thread_are_safe() {
        let (mut dir, mut twin) =
            (sized_key(StrategySpec::hash(2), 15), sized_key(StrategySpec::hash(2), 15));
        let original = dir.partial_lookup(&"k", 35).unwrap();
        let (copy, expected) = (original.clone(), original.entries().to_vec());
        assert_eq!(twin.partial_lookup(&"k", 35).unwrap().into_entries(), expected);
        drop(original);
        // The original's storage serves the next lookups; the copy's is
        // its own, and goes to the same pool.
        for _ in 0..10 {
            let (ours, theirs) = (dir.partial_lookup(&"k", 35), twin.partial_lookup(&"k", 35));
            assert_eq!(ours.unwrap().entries(), theirs.unwrap().into_entries());
        }
        assert_eq!(copy.entries(), expected);
        drop(copy);
        assert_eq!(held(&dir.spares), (2, 70));

        // Results dropped by another thread while this one looks up.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || rx.into_iter().for_each(drop));
            for _ in 0..2_000 {
                let (ours, theirs) =
                    (dir.partial_lookup(&"k", 35).unwrap(), twin.partial_lookup(&"k", 35));
                assert_eq!(ours.entries(), theirs.unwrap().into_entries());
                tx.send(ours).unwrap();
            }
            drop(tx);
        });
        let ((answers, entries), bound) = (held(&dir.spares), BOUND);
        assert!((1..=bound.0).contains(&answers) && entries <= bound.1, "{answers}, {entries}");
    }

    #[test]
    fn updates_clone_only_the_copies_they_send() {
        use crate::collections::tests::{clones, Counted};
        let n = 10;
        let holds = |dir: &Directory<&str, Counted>, s: usize, id: u64| {
            dir.server_entries(&"k", ServerId::new(s as u32)).contains(&Counted(id))
        };
        let holders =
            |dir: &Directory<&str, Counted>, id: u64| (0..n).filter(|s| holds(dir, *s, id)).count();
        // A broadcast is one message: the servers before the last read it
        // and copy what they keep, the last takes it. So a delete costs the
        // copy of the caller's reference into its request and nothing per
        // server, and an add one copy per server that keeps the entry, less
        // the last server's.
        for spec in [
            StrategySpec::full_replication(),
            StrategySpec::random_server(20),
            StrategySpec::fixed(20),
        ] {
            let mut dir: Directory<&str, Counted> = Directory::new(n, uniform(spec), 3).unwrap();
            dir.place("k", (0..100).map(Counted).collect()).unwrap();
            let mut kept_by_some_not_all = 0;
            for id in 500..540 {
                let before = clones();
                dir.add(&"k", Counted(id)).unwrap();
                // Full: all ten keep it. RandomServer-20: the servers whose
                // reservoir step admitted it. Fixed-20 is full: the add
                // stops at the coordinator.
                let kept = holders(&dir, id);
                let last_kept = usize::from(holds(&dir, n - 1, id));
                assert_eq!(clones() - before, kept - last_kept, "{spec} add {id}");
                kept_by_some_not_all += usize::from(kept > 0 && kept < n);
                match spec {
                    StrategySpec::FullReplication => assert_eq!(kept, n),
                    StrategySpec::Fixed { .. } => assert_eq!(kept, 0),
                    _ => {}
                }
            }
            if matches!(spec, StrategySpec::RandomServer { .. }) {
                assert!(kept_by_some_not_all > 20, "{kept_by_some_not_all} of 40 adds");
            }
            // A stored entry, then one Fixed-20 never stored: the
            // request's copy, whether or not a broadcast follows.
            for id in [0, 50] {
                let before = clones();
                dir.delete(&"k", &Counted(id)).unwrap();
                assert_eq!(clones() - before, 1, "{spec} delete {id}");
                assert_eq!(holders(&dir, id), 0);
            }
            // Fixed-20 now has room: this add is broadcast and kept.
            if matches!(spec, StrategySpec::Fixed { .. }) {
                let before = clones();
                dir.add(&"k", Counted(541)).unwrap();
                assert_eq!((clones() - before, holders(&dir, 541)), (n - 1, n), "refill");
            }
        }

        // Hash-2 sends an entry to its one or two servers and nowhere else.
        let mut dir: Directory<&str, Counted> =
            Directory::new(n, uniform(StrategySpec::hash(2)), 3).unwrap();
        dir.place("k", (0..100).map(Counted).collect()).unwrap();
        for id in 500..540 {
            let before = clones();
            dir.add(&"k", Counted(id)).unwrap();
            let stored = holders(&dir, id);
            assert!((1..=2).contains(&stored));
            assert_eq!(clones() - before, stored - 1, "hash add");
            let before = clones();
            dir.delete(&"k", &Counted(id)).unwrap();
            assert_eq!(clones() - before, 1 + (stored - 1), "hash delete");
        }

        // Round-Robin-2: an add makes the second stored copy. A delete
        // copies the caller's reference into its request, which is
        // broadcast; each of the y holders copies the entry into its
        // migrate request and the head server into its migration context,
        // except that the last server, if it is one of them, uses the
        // message it took; then the head entry is copied into the hole,
        // once per holder. The other servers copy nothing.
        let y = 2;
        let mut dir: Directory<&str, Counted> =
            Directory::new(n, uniform(StrategySpec::round_robin(y)), 3).unwrap();
        dir.place("k", (0..100).map(Counted).collect()).unwrap();
        let mut rng = DetRng::seed_from(17);
        let mut live: Vec<u64> = (0..100).collect();
        let mut last_took_part = 0;
        for id in 500..560 {
            let before = clones();
            dir.add(&"k", Counted(id)).unwrap();
            assert_eq!(clones() - before, y - 1, "round-robin add");
            assert_eq!(holders(&dir, id), y);
            live.push(id);

            let victim = live.swap_remove(rng.below(live.len()));
            let engines = &dir.groups[&"k"].engines;
            let (head, _) = engines[0].rr_counters().expect("server 0 coordinates");
            let head_server = (head % n as u64) as usize;
            let head_entry =
                engines[head_server].rr_positions().find(|(p, _)| *p == head).expect("live");
            let plugs = if *head_entry.1 == Counted(victim) { 0 } else { y };
            let last = usize::from(head_server == n - 1 || holds(&dir, n - 1, victim));
            last_took_part += last;
            let before = clones();
            dir.delete(&"k", &Counted(victim)).unwrap();
            assert_eq!(clones() - before, 1 + y + 1 - last + plugs, "delete {victim}");
            assert_eq!(holders(&dir, victim), 0);
        }
        assert!((1..60).contains(&last_took_part), "both cases ran: {last_took_part}");
    }

    /// Key "a"'s delete panics at each of its clones in turn, in two
    /// directories alike, and one of them is given a fresh scratch. Key
    /// "b"'s next updates must then do the same in both: nothing "a" left
    /// queued reaches "b"'s engines.
    #[test]
    fn a_panicked_update_leaves_nothing_for_another_key() {
        use crate::group::tests::{clones_of, Brittle, FUSE};
        let (n, spec) = (10, StrategySpec::round_robin(2));
        let twin = || {
            let mut dir: Directory<&str, Brittle> = Directory::new(n, uniform(spec), 4).unwrap();
            dir.place("a", (0..40).map(Brittle).collect()).unwrap();
            dir.place("b", (100..140).map(Brittle).collect()).unwrap();
            dir
        };
        let mut counted = twin();
        let calls = clones_of(|| counted.delete(&"a", &Brittle(17)).unwrap());
        assert!(calls > 3, "{calls} clones");
        for k in 0..calls {
            let mut dirs = [twin(), twin()];
            for dir in &mut dirs {
                FUSE.set(Some(k));
                let delete = std::panic::AssertUnwindSafe(|| dir.delete(&"a", &Brittle(17)));
                assert!(std::panic::catch_unwind(delete).is_err() && FUSE.take().is_none());
                dir.reset_load();
            }
            dirs[1].scratch = Scratch::default();
            for dir in &mut dirs {
                dir.delete(&"b", &Brittle(117)).unwrap();
                dir.add(&"b", Brittle(199)).unwrap();
            }
            assert_eq!(dirs[0].update_load(), dirs[1].update_load(), "clone {k}");
            for s in (0..n as u32).map(ServerId::new) {
                let [ours, theirs] = dirs.each_ref().map(|dir| dir.server_entries(&"b", s));
                assert_eq!(ours, theirs, "{s}, clone {k}");
            }
        }
    }

    #[test]
    fn lookup_load_is_tracked_per_server() {
        let mut dir: Directory<&str, u64> =
            Directory::new(4, uniform(StrategySpec::round_robin(1)), 5).unwrap();
        dir.place("k", (0..40).collect()).unwrap();
        for _ in 0..100 {
            dir.partial_lookup(&"k", 5).unwrap();
        }
        let total: u64 = dir.lookup_load().iter().sum();
        assert_eq!(total, 100); // 10 entries per server >= t: one probe each
                                // Random starts spread the load.
        for (i, &l) in dir.lookup_load().iter().enumerate() {
            assert!(l > 5, "server {i} load {l}");
        }
        dir.reset_load();
        assert!(dir.lookup_load().iter().all(|&l| l == 0));
    }

    #[test]
    fn update_load_counts_processed_messages() {
        let mut dir: Directory<&str, u64> =
            Directory::new(5, uniform(StrategySpec::full_replication()), 6).unwrap();
        dir.place("k", (0..10).collect()).unwrap();
        dir.reset_load();
        dir.add(&"k", 99).unwrap();
        // 1 client request + 5 broadcast copies.
        assert_eq!(dir.update_load().iter().sum::<u64>(), 6);
    }

    #[test]
    fn round_robin_keys_route_through_the_coordinator() {
        let mut dir: Directory<&str, u64> =
            Directory::new(4, uniform(StrategySpec::round_robin(2)), 8).unwrap();
        dir.place("k", (0..8).collect()).unwrap();
        dir.fail_server(ServerId::new(0));
        assert_eq!(dir.add(&"k", 99).unwrap_err(), ServiceError::CoordinatorUnavailable);
        dir.recover_server(ServerId::new(0));
        dir.add(&"k", 99).unwrap();
    }

    #[test]
    fn a_bad_per_key_strategy_is_reported_as_such_and_spares_other_keys() {
        let assignment: StrategyAssignment<&str> = StrategyAssignment::PerKey(Box::new(|key| {
            match *key {
                // (Hash-y takes y > n: colliding copies collapse.)
                "wide" => StrategySpec::round_robin(9),
                "none" => StrategySpec::hash(0),
                _ => StrategySpec::hash(2),
            }
        }));
        let mut dir: Directory<&str, u64> = Directory::new(5, assignment, 12).unwrap();
        dir.place("fine", (0..20).collect()).unwrap();
        for bad in ["wide", "none"] {
            let err = dir.place(bad, (0..20).collect()).unwrap_err();
            assert!(matches!(err, ServiceError::InvalidStrategy(_)), "{bad}: {err:?}");
            assert!(matches!(dir.add(&bad, 1), Err(ServiceError::InvalidStrategy(_))), "{bad}");
            assert!(matches!(dir.delete(&bad, &1), Err(ServiceError::InvalidStrategy(_))), "{bad}");
            assert!(dir.partial_lookup(&bad, 3).unwrap().entries().is_empty());
        }
        assert_eq!(dir.failures().failed_count(), 0);
        assert_eq!(dir.key_count(), 1);
        dir.add(&"fine", 99).unwrap();
        assert!(dir.partial_lookup(&"fine", 21).unwrap().is_satisfied(21));
    }

    #[test]
    fn zero_servers_rejected() {
        let err = Directory::<u8, u64>::new(
            0,
            StrategyAssignment::Uniform(StrategySpec::full_replication()),
            9,
        )
        .unwrap_err();
        assert!(matches!(err, crate::ConfigError::InvalidParameter(_)));
    }

    #[test]
    fn zero_target_lookup_rejected() {
        let mut dir: Directory<&str, u64> =
            Directory::new(3, uniform(StrategySpec::full_replication()), 10).unwrap();
        dir.place("k", (0..5).collect()).unwrap();
        assert_eq!(dir.partial_lookup(&"k", 0).unwrap_err(), ServiceError::ZeroTarget);
    }

    #[test]
    fn failures_apply_across_keys() {
        let mut dir: Directory<&str, u64> =
            Directory::new(3, uniform(StrategySpec::full_replication()), 7).unwrap();
        dir.place("a", (0..5).collect()).unwrap();
        dir.place("b", (5..10).collect()).unwrap();
        dir.fail_server(ServerId::new(0));
        dir.fail_server(ServerId::new(1));
        for key in ["a", "b"] {
            let r = dir.partial_lookup(&key, 3).unwrap();
            assert_eq!(r.contacted(), &[ServerId::new(2)]);
            assert!(r.is_satisfied(3));
        }
        dir.fail_server(ServerId::new(2));
        assert_eq!(dir.partial_lookup(&"a", 1).unwrap_err(), ServiceError::AllServersFailed);
    }
}
