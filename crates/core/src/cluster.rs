//! The simulated cluster: `n` servers, one key, one placement strategy.
//!
//! [`Cluster`] is one replica group of `n` [`NodeEngine`]s (the strategy
//! protocols of §3 and §5) with a failure set, a message counter and a
//! seeded RNG. Every `place`/`add`/`delete` goes to the operation's
//! coordinator server and all it sets off is delivered, first in first
//! out, before the call returns, so after each call the placement is
//! stable and observable via [`Cluster::placement`]. Each message a server
//! processes is charged to the update class (§6.4: a broadcast costs `n`).
//!
//! Lookups follow §3's client procedures: they are synchronous
//! request/reply probes against server stores, charged to the message
//! counter's lookup class (one processed message per contacted server).

use std::collections::BTreeMap;

use pls_net::{MessageCounter, MsgClass, ServerId};

use crate::engine::NodeEngine;
use crate::group::{Group, Scratch};
use crate::lookup::{Bookkeeping, SparePool};
use crate::{
    ConfigError, DetRng, Entry, FailureSet, IndexedSet, LookupResult, Message, Placement,
    ServiceError, StrategySpec,
};

/// A partial lookup service instance: `n` servers managing the entries of
/// one key under a fixed [`StrategySpec`].
///
/// # Example
///
/// ```
/// use pls_core::{Cluster, StrategySpec};
///
/// let mut cluster = Cluster::new(10, StrategySpec::random_server(20), 7)?;
/// cluster.place((0..100u64).collect())?;
/// // Ask for 35 entries; the client merges probes until satisfied.
/// let result = cluster.partial_lookup(35)?;
/// assert!(result.is_satisfied(35));
/// assert!(result.servers_contacted() >= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cluster<V: Entry> {
    group: Group<V>,
    scratch: Scratch<V>,
    failures: FailureSet,
    counter: MessageCounter,
    rng: DetRng,
    /// Lent to every lookup.
    bookkeeping: Bookkeeping,
    /// What dropped lookup results gave back, for the next lookup.
    spares: SparePool<V>,
}

impl<V: Entry> Cluster<V> {
    /// Creates a cluster of `n` servers running `spec`, with all
    /// randomness derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the spec's parameter is invalid for `n`
    /// servers (see [`StrategySpec::validate`]).
    pub fn new(n: usize, spec: StrategySpec, seed: u64) -> Result<Self, ConfigError> {
        spec.validate(n)?;
        Ok(Cluster {
            group: Group::new(n, spec, seed)?,
            scratch: Scratch::default(),
            failures: FailureSet::new(n),
            counter: MessageCounter::new(),
            rng: DetRng::seed_from(seed ^ 0xC11E_27D5_EED5_EED5),
            bookkeeping: Bookkeeping::default(),
            spares: SparePool::default(),
        })
    }

    /// Replicates the Round-Robin coordinator counters on servers
    /// `0..mirrors` (paper §5.4 footnote: "the centralized head and tail
    /// scheme can be generalized to one where several servers store
    /// copies to improve reliability"). Updates route to the first
    /// operational mirror; each counter change is propagated to the
    /// others.
    ///
    /// Call before any updates. A recovering mirror must come back via
    /// [`Cluster::recover_and_resync`] so it re-adopts the current
    /// counters (a plain [`Cluster::recover_server`] would serve stale
    /// ones). Note that entry *migration* (Fig. 11) still needs the head
    /// position's server alive; mirroring removes only the counter
    /// bottleneck.
    ///
    /// # Panics
    ///
    /// Panics unless the strategy is Round-Robin-y and
    /// `1 <= mirrors <= n`.
    pub fn set_rr_mirrors(&mut self, mirrors: usize) {
        assert!(
            matches!(self.group.spec, StrategySpec::RoundRobin { .. }),
            "coordinator mirroring applies to Round-Robin-y only"
        );
        self.group.engines.iter_mut().for_each(|e| e.set_rr_mirrors(mirrors));
        self.group.rr_mirrors = mirrors;
    }

    /// Number of servers.
    pub fn n(&self) -> usize {
        self.group.engines.len()
    }

    /// The strategy this cluster runs.
    pub fn spec(&self) -> StrategySpec {
        self.group.spec
    }

    /// The current failure set.
    pub fn failures(&self) -> &FailureSet {
        &self.failures
    }

    /// Message accounting (the paper's §6.4 cost model).
    pub fn counter(&self) -> &MessageCounter {
        &self.counter
    }

    /// Resets the message accounting; the placement is untouched. Used to
    /// scope measurement windows (e.g. count update overhead only, after
    /// the initial `place`).
    pub fn reset_counter(&mut self) {
        self.counter.reset();
    }

    /// Crashes a server: its mail is dropped and lookups skip it. State is
    /// retained for a later [`Cluster::recover_server`] (warm restart).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn fail_server(&mut self, s: ServerId) {
        self.failures.fail(s);
    }

    /// Brings a crashed server back with the state it had when it failed.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn recover_server(&mut self, s: ServerId) {
        self.failures.recover(s);
    }

    /// Brings a crashed server back and rebuilds its state from the
    /// operational peers, so it serves correctly even if updates ran
    /// while it was down.
    ///
    /// The paper does not specify recovery; this is the natural
    /// anti-entropy protocol per strategy, [`NodeEngine::rebuild`]: copy
    /// a donor's store for the identical-server strategies (full
    /// replication, Fixed-x), redraw a fresh random subset of the
    /// surviving coverage for RandomServer-x, re-derive the hash
    /// assignment for Hash-y, and re-fetch this server's round-robin
    /// positions from their other replica holders for Round-Robin-y. Each
    /// donor read is one message of the control class, leaving the §6.4
    /// update accounting untouched.
    ///
    /// Limitations, by construction: entries whose every replica sat on
    /// simultaneously-failed servers are gone and cannot be resynced
    /// (the coverage loss of §4.3/§4.4); a recovering Round-Robin
    /// coordinator recovers its counters from the surviving positions,
    /// so after a total wipeout of entries the tail restarts at the
    /// highest surviving position.
    ///
    /// # Errors
    ///
    /// [`ServiceError::AllServersFailed`] when there is no operational
    /// peer to resync from (the server still recovers with the state it
    /// crashed with).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn recover_and_resync(&mut self, s: ServerId) -> Result<(), ServiceError> {
        // Gather donor state *before* recovering `s`, so `s`'s own stale
        // store cannot leak into the rebuilt one.
        let mut donors: Vec<ServerId> = self.failures.operational().collect();
        self.failures.recover(s);
        if donors.is_empty() {
            return Err(ServiceError::AllServersFailed);
        }
        let Group { engines, spec, .. } = &mut self.group;
        if matches!(spec, StrategySpec::FullReplication | StrategySpec::Fixed { .. }) {
            donors.truncate(1); // any donor is identical
        }
        self.counter.add(MsgClass::Control, donors.len() as u64);
        let by_position = matches!(spec, StrategySpec::RoundRobin { .. });
        let (mut union, mut positions) = (IndexedSet::new(), BTreeMap::new());
        for d in &donors {
            let donor = &engines[d.index()];
            if by_position {
                positions.extend(donor.rr_positions().map(|(pos, v)| (pos, v.clone())));
            } else {
                union.extend(donor.entries().iter().cloned());
            }
        }
        // Counter source preference: a surviving coordinator mirror
        // (authoritative — updates may have run while this server was
        // down), then this server's own (no update runs while every
        // holder is down), then the position map.
        let mirrored = donors.iter().find_map(|d| engines[d.index()].rr_counters());
        let counters = mirrored.or(engines[s.index()].rr_counters());
        engines[s.index()].rebuild(union.into_vec(), positions, counters);
        Ok(())
    }

    /// Snapshot of the current placement instance, for the metrics crate.
    pub fn placement(&self) -> Placement<V> {
        Placement::from_rows(self.group.engines.iter().map(|e| e.entries().to_vec()).collect())
    }

    /// Direct view of one server's stored entries (unspecified order).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn server_entries(&self, s: ServerId) -> &[V] {
        self.group.engines[s.index()].entries()
    }

    /// Direct access to one server's engine, for diagnostics and
    /// invariant checking.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn engine(&self, s: ServerId) -> &NodeEngine<V> {
        &self.group.engines[s.index()]
    }

    // ---------------------------------------------------------------
    // Service interface (§2)
    // ---------------------------------------------------------------

    /// `place(v_1 .. v_h)`: batch-specifies the entry set (§2). Any prior
    /// entries for the key are replaced.
    ///
    /// # Errors
    ///
    /// [`ServiceError::AllServersFailed`] when there is no operational
    /// server to coordinate the request.
    pub fn place(&mut self, entries: Vec<V>) -> Result<(), ServiceError> {
        self.update(Message::PlaceReq { entries })
    }

    /// `add(v)`: incrementally inserts one entry (§5).
    ///
    /// # Errors
    ///
    /// [`ServiceError::AllServersFailed`] when no server is up;
    /// [`ServiceError::CoordinatorUnavailable`] for Round-Robin-y when the
    /// dedicated coordinator (server 0) is down.
    pub fn add(&mut self, v: V) -> Result<(), ServiceError> {
        self.update(Message::AddReq { v })
    }

    /// `delete(v)`: incrementally removes one entry (§5).
    ///
    /// For Round-Robin-y, deleting an entry that is not in the system
    /// corrupts the round-robin sequence (the coordinator advances `head`
    /// unconditionally, as in the paper's Fig. 11 pseudo-code which
    /// assumes valid deletes).
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::add`].
    pub fn delete(&mut self, v: &V) -> Result<(), ServiceError> {
        self.update(Message::DeleteReq { v: v.clone() })
    }

    /// `partial_lookup(t)`: retrieves at least `t` distinct entries when
    /// the surviving placement allows it (§2).
    ///
    /// The client procedure depends on the strategy (§3): one random
    /// server for full replication and Fixed-x; random probing with
    /// merging for RandomServer-x and Hash-y; a random start followed by a
    /// deterministic stride-`y` walk for Round-Robin-y, falling back to
    /// random probing when the walk hits a failed server.
    ///
    /// When merging probes gathers more than `t` distinct entries, the
    /// answer handed back is a uniformly random `t`-subset of the merge.
    /// This matches the fairness model of §4.5, where a fair strategy
    /// returns each entry with probability exactly `t/h` — without the
    /// trim, multi-server lookups would systematically over-deliver.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ZeroTarget`] if `t == 0`;
    /// [`ServiceError::AllServersFailed`] if no server is operational.
    /// Retrieving fewer than `t` entries is *not* an error — see
    /// [`LookupResult::is_satisfied`].
    pub fn partial_lookup(&mut self, t: usize) -> Result<LookupResult<V>, ServiceError> {
        // One processed lookup message per contacted server.
        let charge = |_| self.counter.record(MsgClass::Lookup);
        let lent = (&mut self.bookkeeping, &self.spares);
        self.group.lookup(t, &self.failures, &mut self.rng, lent, charge)
    }

    /// Runs one client update to quiescence, charging every message a
    /// server processes to the update class.
    fn update(&mut self, msg: Message<V>) -> Result<(), ServiceError> {
        self.group.update(&mut self.scratch, &self.failures, &mut self.rng, msg, |_, delivered| {
            if delivered {
                self.counter.record(MsgClass::Update);
            } else {
                self.counter.record_dropped();
            }
        })
    }

    // ---------------------------------------------------------------
    // Introspection for tests and metrics
    // ---------------------------------------------------------------

    /// Round-robin coordinator counters `(head, tail)`, if this cluster
    /// runs Round-Robin-y — read from the first *operational* mirror.
    /// Exposed for tests and diagnostics.
    pub fn rr_counters(&self) -> Option<(u64, u64)> {
        let up = |i: &usize| !self.failures.is_failed(ServerId::new(*i as u32));
        let holder = (0..self.group.rr_mirrors).find(up).unwrap_or(0);
        self.group.engines[holder].rr_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ids(n: u64) -> Vec<u64> {
        (0..n).collect()
    }

    // ---------------- static placement (§3) ----------------

    #[test]
    fn full_replication_places_everything_everywhere() {
        let mut c = Cluster::new(4, StrategySpec::full_replication(), 1).unwrap();
        c.place(ids(10)).unwrap();
        let p = c.placement();
        assert_eq!(p.storage_used(), 40);
        for (_, row) in p.iter() {
            assert_eq!(row.len(), 10);
        }
    }

    #[test]
    fn fixed_places_same_prefix_everywhere() {
        let mut c = Cluster::new(5, StrategySpec::fixed(3), 1).unwrap();
        c.place(ids(10)).unwrap();
        let p = c.placement();
        assert_eq!(p.storage_used(), 15);
        for (_, row) in p.iter() {
            let set: HashSet<_> = row.iter().copied().collect();
            assert_eq!(set, HashSet::from([0, 1, 2]));
        }
    }

    #[test]
    fn fixed_with_fewer_entries_than_x_keeps_all() {
        let mut c = Cluster::new(3, StrategySpec::fixed(10), 1).unwrap();
        c.place(ids(4)).unwrap();
        assert_eq!(c.placement().storage_used(), 12);
    }

    #[test]
    fn random_server_places_x_per_server() {
        let mut c = Cluster::new(10, StrategySpec::random_server(20), 2).unwrap();
        c.place(ids(100)).unwrap();
        let p = c.placement();
        assert_eq!(p.storage_used(), 200);
        for (_, row) in p.iter() {
            assert_eq!(row.len(), 20);
            for v in row {
                assert!(*v < 100);
            }
        }
        // Servers chose independently: with overwhelming probability not
        // all rows are identical.
        let first: HashSet<_> = p.server_entries(ServerId::new(0)).iter().copied().collect();
        let second: HashSet<_> = p.server_entries(ServerId::new(1)).iter().copied().collect();
        assert_ne!(first, second);
    }

    #[test]
    fn round_robin_places_y_consecutive_copies() {
        let n = 10;
        let y = 2;
        let mut c = Cluster::new(n, StrategySpec::round_robin(y), 3).unwrap();
        c.place(ids(100)).unwrap();
        let p = c.placement();
        assert_eq!(p.storage_used(), 200);
        // Entry i lives exactly on servers (i mod n) and (i+1 mod n).
        for v in 0..100u64 {
            let holders: Vec<usize> = (0..n)
                .filter(|&s| p.server_entries(ServerId::new(s as u32)).contains(&v))
                .collect();
            let base = (v % n as u64) as usize;
            let mut expected = vec![base, (base + 1) % n];
            expected.sort_unstable();
            assert_eq!(holders, expected, "entry {v}");
        }
        assert_eq!(c.rr_counters(), Some((0, 100)));
    }

    #[test]
    fn hash_places_per_family_assignment() {
        let mut c = Cluster::new(10, StrategySpec::hash(2), 4).unwrap();
        c.place(ids(100)).unwrap();
        let p = c.placement();
        // Each entry stored 1..=2 times (collisions collapse).
        for v in 0..100u64 {
            let copies = p.replica_count(&v);
            assert!((1..=2).contains(&copies), "entry {v} has {copies} copies");
        }
        // Expected storage h*n*(1-(1-1/n)^y) = 100*10*(1-0.9^2) = 190.
        let used = p.storage_used();
        assert!((170..=200).contains(&used), "storage {used}");
    }

    #[test]
    fn replace_semantics_of_place() {
        for spec in [
            StrategySpec::full_replication(),
            StrategySpec::fixed(5),
            StrategySpec::random_server(5),
            StrategySpec::round_robin(2),
            StrategySpec::hash(2),
        ] {
            let mut c = Cluster::new(4, spec, 9).unwrap();
            c.place(ids(20)).unwrap();
            c.place(vec![1000, 1001, 1002]).unwrap();
            let p = c.placement();
            for (_, row) in p.iter() {
                for v in row {
                    assert!(*v >= 1000, "{spec}: stale entry {v} survived re-place");
                }
            }
        }
    }

    // ---------------- lookups (§3, §4.2) ----------------

    #[test]
    fn full_replication_lookup_costs_one() {
        let mut c = Cluster::new(10, StrategySpec::full_replication(), 5).unwrap();
        c.place(ids(100)).unwrap();
        for t in [1, 10, 50, 100] {
            let r = c.partial_lookup(t).unwrap();
            assert_eq!(r.servers_contacted(), 1);
            assert!(r.is_satisfied(t));
        }
    }

    #[test]
    fn fixed_lookup_within_x_costs_one() {
        let mut c = Cluster::new(10, StrategySpec::fixed(20), 5).unwrap();
        c.place(ids(100)).unwrap();
        let r = c.partial_lookup(20).unwrap();
        assert_eq!(r.servers_contacted(), 1);
        assert!(r.is_satisfied(20));
        // Beyond x the lookup is unsatisfiable ("undefined" in the paper).
        let r = c.partial_lookup(21).unwrap();
        assert!(!r.is_satisfied(21));
    }

    #[test]
    fn round_robin_lookup_cost_is_ceil_tn_over_yh() {
        let mut c = Cluster::new(10, StrategySpec::round_robin(2), 6).unwrap();
        c.place(ids(100)).unwrap();
        // Each server stores y*h/n = 20; consecutive stride contacts are
        // disjoint, so cost = ceil(t/20).
        for (t, want) in [(10, 1), (20, 1), (21, 2), (40, 2), (41, 3), (50, 3)] {
            for _ in 0..20 {
                let r = c.partial_lookup(t).unwrap();
                assert!(r.is_satisfied(t), "t={t}");
                assert_eq!(r.servers_contacted(), want, "t={t}");
            }
        }
    }

    #[test]
    fn merged_lookups_trim_to_exactly_t() {
        let mut c = Cluster::new(10, StrategySpec::round_robin(2), 6).unwrap();
        c.place(ids(100)).unwrap();
        for _ in 0..20 {
            let r = c.partial_lookup(30).unwrap();
            assert_eq!(r.entries().len(), 30);
        }
    }

    #[test]
    fn random_server_lookup_merges_until_satisfied() {
        let mut c = Cluster::new(10, StrategySpec::random_server(20), 7).unwrap();
        c.place(ids(100)).unwrap();
        for _ in 0..50 {
            let r = c.partial_lookup(35).unwrap();
            assert!(r.is_satisfied(35));
            assert!(r.servers_contacted() >= 2);
            // Answers are distinct entries from the placed set.
            for v in r.entries() {
                assert!(*v < 100);
            }
        }
    }

    #[test]
    fn hash_lookup_merges_until_satisfied() {
        let mut c = Cluster::new(10, StrategySpec::hash(2), 8).unwrap();
        c.place(ids(100)).unwrap();
        for _ in 0..50 {
            let r = c.partial_lookup(25).unwrap();
            assert!(r.is_satisfied(25));
        }
    }

    #[test]
    fn lookup_zero_target_errors() {
        let mut c = Cluster::<u64>::new(3, StrategySpec::full_replication(), 1).unwrap();
        assert_eq!(c.partial_lookup(0).unwrap_err(), ServiceError::ZeroTarget);
    }

    #[test]
    fn lookup_with_all_servers_failed_errors() {
        let mut c = Cluster::new(3, StrategySpec::full_replication(), 1).unwrap();
        c.place(ids(5)).unwrap();
        for i in 0..3 {
            c.fail_server(ServerId::new(i));
        }
        assert_eq!(c.partial_lookup(1).unwrap_err(), ServiceError::AllServersFailed);
    }

    #[test]
    fn lookup_skips_failed_servers() {
        let mut c = Cluster::new(10, StrategySpec::random_server(20), 9).unwrap();
        c.place(ids(100)).unwrap();
        for i in 0..5 {
            c.fail_server(ServerId::new(i));
        }
        for _ in 0..50 {
            let r = c.partial_lookup(30).unwrap();
            for s in r.contacted() {
                assert!(s.index() >= 5, "contacted failed server {s}");
            }
            assert!(r.is_satisfied(30));
        }
    }

    #[test]
    fn round_robin_lookup_survives_failures_via_random_fallback() {
        let mut c = Cluster::new(10, StrategySpec::round_robin(2), 10).unwrap();
        c.place(ids(100)).unwrap();
        c.fail_server(ServerId::new(3));
        c.fail_server(ServerId::new(4));
        for _ in 0..100 {
            let r = c.partial_lookup(40).unwrap();
            assert!(r.is_satisfied(40));
            for s in r.contacted() {
                assert!(!c.failures().is_failed(*s));
            }
        }
    }

    // ---------------- dynamic updates (§5) ----------------

    #[test]
    fn full_replication_add_delete() {
        let mut c = Cluster::new(3, StrategySpec::full_replication(), 11).unwrap();
        c.place(ids(5)).unwrap();
        c.add(100).unwrap();
        assert_eq!(c.placement().replica_count(&100), 3);
        c.delete(&100).unwrap();
        assert_eq!(c.placement().replica_count(&100), 0);
        assert_eq!(c.placement().storage_used(), 15);
    }

    #[test]
    fn fixed_add_ignored_when_full() {
        let mut c = Cluster::new(4, StrategySpec::fixed(5), 12).unwrap();
        c.place(ids(5)).unwrap();
        let before = c.counter().update_messages();
        c.add(99).unwrap();
        // Coordinator processed the request (cost 1) but did not broadcast.
        assert_eq!(c.counter().update_messages() - before, 1);
        assert_eq!(c.placement().replica_count(&99), 0);
    }

    #[test]
    fn fixed_delete_creates_deficit_then_add_refills() {
        let mut c = Cluster::new(4, StrategySpec::fixed(5), 13).unwrap();
        c.place(ids(5)).unwrap();
        c.delete(&0).unwrap();
        for (_, row) in c.placement().iter() {
            assert_eq!(row.len(), 4);
        }
        c.add(99).unwrap();
        for (_, row) in c.placement().iter() {
            assert_eq!(row.len(), 5);
            assert!(row.contains(&99));
        }
    }

    #[test]
    fn fixed_delete_of_untracked_entry_is_cheap() {
        let mut c = Cluster::new(4, StrategySpec::fixed(3), 14).unwrap();
        c.place(ids(10)).unwrap(); // servers keep 0,1,2
        let before = c.counter().update_messages();
        c.delete(&7).unwrap(); // not among the stored x
        assert_eq!(c.counter().update_messages() - before, 1);
    }

    #[test]
    fn random_server_add_keeps_x_entries() {
        let mut c = Cluster::new(10, StrategySpec::random_server(20), 15).unwrap();
        c.place(ids(100)).unwrap();
        for v in 100..150u64 {
            c.add(v).unwrap();
        }
        for (_, row) in c.placement().iter() {
            assert_eq!(row.len(), 20);
        }
        // Newcomers actually land somewhere (reservoir admits ~x/h).
        let p = c.placement();
        let newcomers = (100..150u64).filter(|v| p.replica_count(v) > 0).count();
        assert!(newcomers > 0);
    }

    #[test]
    fn random_server_delete_decrements() {
        let mut c = Cluster::new(10, StrategySpec::random_server(20), 16).unwrap();
        c.place(ids(100)).unwrap();
        c.delete(&0).unwrap();
        assert_eq!(c.placement().replica_count(&0), 0);
        for (_, row) in c.placement().iter() {
            assert!(row.len() >= 19);
        }
    }

    #[test]
    fn reservoir_admission_rate_is_x_over_h() {
        // After placing h0=100 entries with x=20 and adding one more, each
        // server keeps the newcomer with probability 20/101.
        let trials = 2000;
        let mut hits = 0usize;
        for seed in 0..trials {
            let mut c = Cluster::new(1, StrategySpec::random_server(20), seed).unwrap();
            c.place(ids(100)).unwrap();
            c.add(555).unwrap();
            if c.placement().replica_count(&555) > 0 {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        let expected = 20.0 / 101.0;
        assert!((rate - expected).abs() < 0.03, "rate {rate} vs {expected}");
    }

    #[test]
    fn hash_add_delete_touch_only_assigned_servers() {
        let mut c = Cluster::new(10, StrategySpec::hash(3), 17).unwrap();
        c.place(ids(50)).unwrap();
        let before = c.counter().update_messages();
        c.add(999).unwrap();
        let cost = c.counter().update_messages() - before;
        // 1 client request + at most 3 stores.
        assert!((2..=4).contains(&cost), "add cost {cost}");
        assert!(c.placement().replica_count(&999) >= 1);
        let before = c.counter().update_messages();
        c.delete(&999).unwrap();
        let cost = c.counter().update_messages() - before;
        assert!((2..=4).contains(&cost), "delete cost {cost}");
        assert_eq!(c.placement().replica_count(&999), 0);
    }

    // ---------------- round-robin dynamics (Fig. 10/11) ----------------

    /// Checks the key invariant of the Fig. 11 protocol: live round-robin
    /// positions stay contiguous in [head, tail), every position holds
    /// exactly one entry replicated on exactly y consecutive servers.
    fn assert_rr_consistent(c: &Cluster<u64>, y: usize, expected_live: &HashSet<u64>) {
        let (head, tail) = c.rr_counters().unwrap();
        assert_eq!((tail - head) as usize, expected_live.len(), "live position count");
        let n = c.n();
        let position_entry = |s: ServerId, pos: u64| -> Option<u64> {
            c.engine(s).rr_positions().find(|(p, _)| *p == pos).map(|(_, v)| *v)
        };
        let mut seen = HashSet::new();
        for pos in head..tail {
            let base = ServerId::new((pos % n as u64) as u32);
            let holder_entries: Vec<u64> = (0..y)
                .map(|k| {
                    let s = base.wrapping_add(k, n);
                    let v = position_entry(s, pos);
                    assert!(v.is_some(), "position {pos} missing on {s}");
                    let v = v.unwrap();
                    assert!(c.server_entries(s).contains(&v));
                    v
                })
                .collect();
            // All y copies agree.
            assert!(holder_entries.windows(2).all(|w| w[0] == w[1]), "position {pos} disagrees");
            seen.insert(holder_entries[0]);
        }
        assert_eq!(&seen, expected_live, "live entry set");
        // No stray positions outside [head, tail).
        for i in 0..n {
            for (pos, _) in c.engine(ServerId::new(i as u32)).rr_positions() {
                assert!(pos >= head && pos < tail, "stray position {pos}");
            }
        }
    }

    #[test]
    fn round_robin_add_appends_at_tail() {
        let mut c = Cluster::new(5, StrategySpec::round_robin(2), 18).unwrap();
        c.place(ids(7)).unwrap();
        c.add(100).unwrap();
        c.add(101).unwrap();
        let live: HashSet<u64> = (0..7u64).chain([100, 101]).collect();
        assert_rr_consistent(&c, 2, &live);
        assert_eq!(c.rr_counters(), Some((0, 9)));
    }

    #[test]
    fn round_robin_delete_plugs_hole_with_head_entry() {
        // The Figure 10 scenario: 5 entries on 4 servers, y=2; deleting
        // entry at position 2 migrates the head entry into its slot.
        let mut c = Cluster::new(4, StrategySpec::round_robin(2), 19).unwrap();
        c.place(vec![1u64, 2, 3, 4, 5]).unwrap();
        c.delete(&3).unwrap(); // entry "3" sits at position 2
        let live: HashSet<u64> = [1, 2, 4, 5].into_iter().collect();
        assert_rr_consistent(&c, 2, &live);
        let (head, tail) = c.rr_counters().unwrap();
        assert_eq!((head, tail), (1, 5));
        // Entry 1 (the old head) now occupies position 2, replicated on
        // servers 2 and 3.
        let holds = |s: u32, pos: u64, v: u64| {
            c.engine(ServerId::new(s)).rr_positions().any(|(p, e)| p == pos && *e == v)
        };
        assert!(holds(2, 2, 1));
        assert!(holds(3, 2, 1));
        // ...and no longer on its original servers 0 and 1.
        assert!(!c.server_entries(ServerId::new(0)).contains(&1));
        assert!(!c.server_entries(ServerId::new(1)).contains(&1));
    }

    #[test]
    fn round_robin_delete_of_head_entry_just_advances() {
        let mut c = Cluster::new(4, StrategySpec::round_robin(2), 20).unwrap();
        c.place(vec![1u64, 2, 3, 4, 5]).unwrap();
        c.delete(&1).unwrap(); // head entry itself
        let live: HashSet<u64> = [2, 3, 4, 5].into_iter().collect();
        assert_rr_consistent(&c, 2, &live);
        assert_eq!(c.rr_counters(), Some((1, 5)));
    }

    #[test]
    fn round_robin_survives_long_update_churn() {
        let mut c = Cluster::new(7, StrategySpec::round_robin(3), 21).unwrap();
        c.place(ids(30)).unwrap();
        let mut live: HashSet<u64> = (0..30).collect();
        let mut next = 30u64;
        let mut rng = DetRng::seed_from(99);
        for step in 0..400 {
            if rng.coin_flip(0.5) || live.is_empty() {
                c.add(next).unwrap();
                live.insert(next);
                next += 1;
            } else {
                let victims: Vec<u64> = live.iter().copied().collect();
                let victim = victims[rng.below(victims.len())];
                c.delete(&victim).unwrap();
                live.remove(&victim);
            }
            if step % 50 == 0 {
                assert_rr_consistent(&c, 3, &live);
            }
        }
        assert_rr_consistent(&c, 3, &live);
    }

    #[test]
    fn round_robin_delete_everything_then_rebuild() {
        let mut c = Cluster::new(4, StrategySpec::round_robin(2), 22).unwrap();
        c.place(ids(6)).unwrap();
        for v in 0..6u64 {
            c.delete(&v).unwrap();
        }
        assert_rr_consistent(&c, 2, &HashSet::new());
        let (head, tail) = c.rr_counters().unwrap();
        assert_eq!(head, tail);
        c.add(50).unwrap();
        c.add(51).unwrap();
        assert_rr_consistent(&c, 2, &[50, 51].into_iter().collect());
    }

    #[test]
    fn round_robin_delete_of_an_absent_entry_is_survived_but_not_safe() {
        // KNOWN GAP (DESIGN.md §14), pinned here so that closing it is a
        // visible change. Fig. 11 assumes valid deletes: the coordinator
        // advances `head` before anyone knows whether the entry exists. A
        // delete of an entry no server holds (a client's retry of a
        // delete that already ran is exactly that) therefore
        //   * moves `head` past a live position — entry 0 below stays at
        //     position 0 on servers 0 and 1, outside [head, tail), and is
        //     never again chosen as a replacement;
        //   * leaves a migration context for 999 on the head server for
        //     ever, since no holder exists to send the `y` migrate
        //     requests that would retire it;
        //   * and `tail - head` such deletes make `head == tail`, after
        //     which `on_delete_req` returns early and every *real* delete
        //     is dropped silently.
        // What does hold, and is asserted: nothing panics, every present
        // entry is still retrievable, and the stores stay balanced.
        let mut c = Cluster::<u64>::new(4, StrategySpec::round_robin(2), 7).unwrap();
        c.place(ids(8)).unwrap();
        assert_eq!(c.rr_counters(), Some((0, 8)));
        c.delete(&999).unwrap();
        assert_eq!(c.rr_counters(), Some((1, 8)), "head advanced although nothing was deleted");
        for s in [0, 1] {
            let first = c.engine(ServerId::new(s)).rr_positions().next();
            assert_eq!(first, Some((0, &0)), "entry 0 still sits at position 0 on S{s}");
        }
        // A duplicate delete is the same thing one step later.
        c.delete(&5).unwrap();
        c.delete(&5).unwrap();
        assert_eq!(c.rr_counters(), Some((3, 8)));
        let present: HashSet<u64> = c.placement().distinct_entries().into_iter().collect();
        assert_eq!(present, (0..8u64).filter(|v| *v != 5).collect());
        for _ in 0..20 {
            let r = c.partial_lookup(present.len()).unwrap();
            let got: HashSet<u64> = r.entries().iter().copied().collect();
            assert_eq!(got, present, "a full lookup still finds every present entry");
        }
        let sizes: Vec<usize> = c.placement().iter().map(|(_, row)| row.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "stores stay balanced within one entry: {sizes:?}");
    }

    #[test]
    fn round_robin_update_with_failed_coordinator_errors() {
        let mut c = Cluster::new(4, StrategySpec::round_robin(2), 23).unwrap();
        c.place(ids(6)).unwrap();
        c.fail_server(ServerId::new(0));
        assert_eq!(c.add(9).unwrap_err(), ServiceError::CoordinatorUnavailable);
        assert_eq!(c.delete(&2).unwrap_err(), ServiceError::CoordinatorUnavailable);
        // Lookups still work against the surviving servers.
        let r = c.partial_lookup(4).unwrap();
        assert!(r.is_satisfied(4));
    }

    // ---------------- message accounting (§6.4) ----------------

    #[test]
    fn fixed_update_cost_model() {
        // Fixed-x: 1 message when no broadcast, 1 + n when broadcasting.
        let n = 10;
        let mut c = Cluster::new(n, StrategySpec::fixed(5), 24).unwrap();
        c.place(ids(5)).unwrap();
        c.reset_counter();
        c.add(99).unwrap(); // full: no broadcast
        assert_eq!(c.counter().update_messages(), 1);
        c.reset_counter();
        c.delete(&0).unwrap(); // stored: broadcast
        assert_eq!(c.counter().update_messages(), 1 + n as u64);
    }

    #[test]
    fn random_server_updates_always_broadcast() {
        let n = 10;
        let mut c = Cluster::new(n, StrategySpec::random_server(5), 25).unwrap();
        c.place(ids(50)).unwrap();
        c.reset_counter();
        c.add(99).unwrap();
        assert_eq!(c.counter().update_messages(), 1 + n as u64);
        c.reset_counter();
        c.delete(&0).unwrap();
        assert_eq!(c.counter().update_messages(), 1 + n as u64);
    }

    #[test]
    fn lookup_messages_counted_separately() {
        let mut c = Cluster::new(5, StrategySpec::full_replication(), 26).unwrap();
        c.place(ids(10)).unwrap();
        let updates = c.counter().update_messages();
        c.partial_lookup(3).unwrap();
        c.partial_lookup(3).unwrap();
        assert_eq!(c.counter().lookup_messages(), 2);
        assert_eq!(c.counter().update_messages(), updates);
    }

    // ---------------- failure / recovery ----------------

    #[test]
    fn resync_full_replication_catches_up_missed_updates() {
        let mut c = Cluster::new(4, StrategySpec::full_replication(), 50).unwrap();
        c.place(ids(10)).unwrap();
        let victim = ServerId::new(2);
        c.fail_server(victim);
        c.add(100).unwrap();
        c.delete(&0).unwrap();
        c.recover_and_resync(victim).unwrap();
        let expected: HashSet<u64> = (1..10u64).chain([100]).collect();
        let got: HashSet<u64> = c.server_entries(victim).iter().copied().collect();
        assert_eq!(got, expected);
        // Recovery traffic is control-class, not update-class.
        assert!(c.counter().control_messages() > 0);
    }

    #[test]
    fn resync_fixed_matches_peers() {
        let mut c = Cluster::new(4, StrategySpec::fixed(5), 51).unwrap();
        c.place(ids(5)).unwrap();
        let victim = ServerId::new(1);
        c.fail_server(victim);
        c.delete(&2).unwrap();
        c.add(77).unwrap();
        c.recover_and_resync(victim).unwrap();
        let donor: HashSet<u64> = c.server_entries(ServerId::new(0)).iter().copied().collect();
        let got: HashSet<u64> = c.server_entries(victim).iter().copied().collect();
        assert_eq!(got, donor);
        assert!(got.contains(&77) && !got.contains(&2));
    }

    #[test]
    fn resync_random_server_rebuilds_full_subset() {
        let mut c = Cluster::new(10, StrategySpec::random_server(20), 52).unwrap();
        c.place(ids(100)).unwrap();
        let victim = ServerId::new(4);
        c.fail_server(victim);
        for v in 100..120u64 {
            c.add(v).unwrap();
        }
        c.recover_and_resync(victim).unwrap();
        assert_eq!(c.server_entries(victim).len(), 20);
        // The rebuilt subset only holds entries that other servers still
        // cover (all entries are live here).
        let coverage: HashSet<u64> = c.placement().distinct_entries().into_iter().collect();
        for v in c.server_entries(victim) {
            assert!(coverage.contains(v));
        }
    }

    #[test]
    fn resync_hash_restores_assignment() {
        let mut c = Cluster::new(10, StrategySpec::hash(2), 53).unwrap();
        c.place(ids(100)).unwrap();
        let victim = ServerId::new(7);
        let before: HashSet<u64> = c.server_entries(victim).iter().copied().collect();
        c.fail_server(victim);
        c.recover_and_resync(victim).unwrap();
        let after: HashSet<u64> = c.server_entries(victim).iter().copied().collect();
        // No updates ran while down: the rebuilt share is exactly the
        // hash assignment it held before, re-derived from peers — except
        // entries that were single-copy on the victim (unreachable while
        // it was down).
        for v in &after {
            assert!(before.contains(v));
        }
        // Entries with a second copy elsewhere all come back.
        let survivors: HashSet<u64> = before
            .iter()
            .filter(|v| {
                (0..10).filter(|i| c.server_entries(ServerId::new(*i)).contains(v)).count() >= 1
                    && after.contains(*v)
            })
            .copied()
            .collect();
        assert!(!survivors.is_empty());
    }

    #[test]
    fn resync_round_robin_restores_positions_and_counters() {
        let mut c = Cluster::new(5, StrategySpec::round_robin(2), 54).unwrap();
        c.place(ids(20)).unwrap();
        let victim = ServerId::new(3);
        c.fail_server(victim);
        // Coordinator (server 0) is up, so updates proceed while the
        // victim is down; its copies go stale.
        c.add(100).unwrap();
        c.delete(&0).unwrap();
        c.delete(&5).unwrap();
        c.recover_and_resync(victim).unwrap();
        // Full consistency: every live position is replicated on exactly
        // its y consecutive servers, including the recovered one.
        let (head, tail) = c.rr_counters().unwrap();
        for pos in head..tail {
            let base = ServerId::new((pos % 5) as u32);
            for k in 0..2 {
                let holder = base.wrapping_add(k, 5);
                assert!(
                    c.engine(holder).rr_positions().any(|(p, _)| p == pos),
                    "position {pos} missing on {holder} after resync"
                );
            }
        }
        // And lookups satisfy full coverage again.
        let live_count = (tail - head) as usize;
        let r = c.partial_lookup(live_count).unwrap();
        assert!(r.is_satisfied(live_count));
    }

    #[test]
    fn resync_round_robin_rebuilds_the_same_position_map() {
        // No update runs while the victim is down, so what it rebuilds
        // from its peers' position maps must be what it held: the same
        // positions with the same entries, in ascending order.
        let mut c = Cluster::new(5, StrategySpec::round_robin(2), 57).unwrap();
        c.place(ids(23)).unwrap();
        for v in [3, 11, 0, 17] {
            c.delete(&v).unwrap(); // holes plugged: positions no longer follow entry ids
        }
        c.add(40).unwrap();
        for victim in (0..5).map(ServerId::new) {
            let held =
                |c: &Cluster<u64>| c.engine(victim).rr_positions().map(|(p, v)| (p, *v)).collect();
            let before: Vec<(u64, u64)> = held(&c);
            assert!(before.windows(2).all(|w| w[0].0 < w[1].0) && before.len() >= 8);
            let counters = c.rr_counters();
            c.fail_server(victim);
            c.recover_and_resync(victim).unwrap();
            assert_eq!(held(&c), before, "{victim}");
            assert_eq!(c.server_entries(victim).len(), before.len());
            assert_eq!(c.rr_counters(), counters);
        }
    }

    #[test]
    fn resync_recovered_coordinator_keeps_counters() {
        let mut c = Cluster::new(4, StrategySpec::round_robin(2), 55).unwrap();
        c.place(ids(8)).unwrap();
        c.delete(&0).unwrap();
        let (head, tail) = c.rr_counters().unwrap();
        c.fail_server(ServerId::new(0));
        // No RR updates possible while the coordinator is down.
        assert_eq!(c.add(99).unwrap_err(), ServiceError::CoordinatorUnavailable);
        c.recover_and_resync(ServerId::new(0)).unwrap();
        assert_eq!(c.rr_counters(), Some((head, tail)));
        // Updates flow again.
        c.add(99).unwrap();
        assert_eq!(c.rr_counters(), Some((head, tail + 1)));
    }

    // ---------------- coordinator mirroring (§5.4 footnote) ----------------

    #[test]
    fn mirrored_counters_stay_in_sync_under_churn() {
        let mut c = Cluster::new(5, StrategySpec::round_robin(2), 70).unwrap();
        c.set_rr_mirrors(2);
        c.place(ids(10)).unwrap();
        let mut live: HashSet<u64> = (0..10).collect();
        let mut next = 10u64;
        let mut rng = DetRng::seed_from(71);
        for _ in 0..100 {
            if rng.coin_flip(0.5) || live.is_empty() {
                c.add(next).unwrap();
                live.insert(next);
                next += 1;
            } else {
                let victims: Vec<u64> = live.iter().copied().collect();
                let v = victims[rng.below(victims.len())];
                c.delete(&v).unwrap();
                live.remove(&v);
            }
            assert_eq!(
                c.engine(ServerId::new(0)).rr_counters(),
                c.engine(ServerId::new(1)).rr_counters(),
                "mirrors diverged"
            );
        }
        assert_rr_consistent(&c, 2, &live);
    }

    #[test]
    fn coordinator_failover_to_mirror() {
        let mut c = Cluster::new(5, StrategySpec::round_robin(2), 72).unwrap();
        c.set_rr_mirrors(2);
        c.place(ids(10)).unwrap();
        c.fail_server(ServerId::new(0));
        // Updates now route through mirror 1 instead of erroring.
        c.add(100).unwrap();
        assert_eq!(c.rr_counters(), Some((0, 11)));
        // Deletes work too, as long as the head-position server is up
        // (head 0 sits on servers 0 and 1; server 1 survives and serves
        // the migration).
        c.delete(&5).unwrap();
        let (head, tail) = c.rr_counters().unwrap();
        assert_eq!((head, tail), (1, 11));
        // The recovered ex-primary resyncs and adopts the new counters.
        c.recover_and_resync(ServerId::new(0)).unwrap();
        assert_eq!(c.engine(ServerId::new(0)).rr_counters(), Some((1, 11)));
        c.add(101).unwrap();
        assert_eq!(c.rr_counters(), Some((1, 12)));
        assert_eq!(
            c.engine(ServerId::new(0)).rr_counters(),
            c.engine(ServerId::new(1)).rr_counters()
        );
    }

    #[test]
    fn without_mirrors_coordinator_is_still_a_spof() {
        let mut c = Cluster::new(5, StrategySpec::round_robin(2), 73).unwrap();
        c.place(ids(10)).unwrap();
        c.fail_server(ServerId::new(0));
        assert_eq!(c.add(99).unwrap_err(), ServiceError::CoordinatorUnavailable);
    }

    #[test]
    #[should_panic(expected = "Round-Robin-y only")]
    fn mirroring_rejected_for_other_strategies() {
        let mut c: Cluster<u64> = Cluster::new(5, StrategySpec::hash(2), 74).unwrap();
        c.set_rr_mirrors(2);
    }

    #[test]
    fn resync_with_no_donors_errors() {
        let mut c = Cluster::new(2, StrategySpec::full_replication(), 56).unwrap();
        c.place(ids(4)).unwrap();
        c.fail_server(ServerId::new(0));
        c.fail_server(ServerId::new(1));
        assert_eq!(
            c.recover_and_resync(ServerId::new(0)).unwrap_err(),
            ServiceError::AllServersFailed
        );
        // The server still recovered (warm state).
        assert!(!c.failures().is_failed(ServerId::new(0)));
        let r = c.partial_lookup(4).unwrap();
        assert!(r.is_satisfied(4));
    }

    #[test]
    fn recovered_server_serves_again() {
        let mut c = Cluster::new(3, StrategySpec::full_replication(), 27).unwrap();
        c.place(ids(10)).unwrap();
        c.fail_server(ServerId::new(0));
        c.fail_server(ServerId::new(1));
        c.fail_server(ServerId::new(2));
        assert!(c.partial_lookup(1).is_err());
        c.recover_server(ServerId::new(1));
        let r = c.partial_lookup(5).unwrap();
        assert_eq!(r.contacted(), &[ServerId::new(1)]);
        assert!(r.is_satisfied(5));
    }

    #[test]
    fn updates_with_all_failed_error() {
        let mut c = Cluster::new(2, StrategySpec::full_replication(), 28).unwrap();
        c.fail_server(ServerId::new(0));
        c.fail_server(ServerId::new(1));
        assert_eq!(c.place(ids(3)).unwrap_err(), ServiceError::AllServersFailed);
        assert_eq!(c.add(1).unwrap_err(), ServiceError::AllServersFailed);
        assert_eq!(c.delete(&1).unwrap_err(), ServiceError::AllServersFailed);
    }

    #[test]
    fn determinism_same_seed_same_everything() {
        let run = |seed: u64| {
            let mut c = Cluster::new(10, StrategySpec::random_server(20), seed).unwrap();
            c.place(ids(100)).unwrap();
            let mut trace = Vec::new();
            for _ in 0..20 {
                let r = c.partial_lookup(35).unwrap();
                trace.push((r.entries().to_vec(), r.contacted().to_vec()));
            }
            (c.placement(), trace)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn recycling_never_changes_an_answer() {
        for spec in [
            StrategySpec::full_replication(),
            StrategySpec::fixed(20),
            StrategySpec::random_server(20),
            StrategySpec::round_robin(2),
            StrategySpec::hash(2),
        ] {
            let (mut dropping, mut keeping) =
                (Cluster::new(10, spec, 30).unwrap(), Cluster::new(10, spec, 30).unwrap());
            let mut live = ids(100);
            for c in [&mut dropping, &mut keeping] {
                c.place(live.clone()).unwrap();
            }
            // `t` over 35, 5, 15 and 100, an add and a delete per step, and
            // server 3 down for a third of the run.
            for step in 0..400u64 {
                let (added, at) = (100 + step, step as usize * 7 % live.len());
                let victim = std::mem::replace(&mut live[at], added);
                for c in [&mut dropping, &mut keeping] {
                    c.add(added).unwrap();
                    c.delete(&victim).unwrap();
                    match (130..260).contains(&step) {
                        true => c.fail_server(ServerId::new(3)),
                        false => c.recover_server(ServerId::new(3)),
                    }
                }
                // The twin keeps its results and looks up in fresh bookkeeping.
                keeping.bookkeeping = Bookkeeping::default();
                let t = [35, 5, 15, 100][step as usize % 4];
                let seen = dropping.partial_lookup(t).unwrap();
                let kept = keeping.partial_lookup(t).unwrap();
                assert_eq!(seen.contacted(), kept.contacted(), "{spec}, step {step}, t = {t}");
                assert_eq!(seen.entries(), kept.into_entries(), "{spec}, step {step}, t = {t}");
            }
            assert_eq!(dropping.placement(), keeping.placement(), "{spec}");
        }
    }

    #[test]
    fn a_lookup_copies_only_the_entries_it_returns() {
        use crate::collections::tests::{clones, Counted};
        for (spec, t, probes) in [
            (StrategySpec::full_replication(), 5, 1),
            (StrategySpec::fixed(20), 5, 1),
            (StrategySpec::random_server(20), 35, 2),
            (StrategySpec::round_robin(2), 35, 2),
            (StrategySpec::hash(2), 35, 2),
        ] {
            let mut c = Cluster::new(10, spec, 29).unwrap();
            c.place((0..100).map(Counted).collect()).unwrap();
            for _ in 0..20 {
                let before = clones();
                let r = c.partial_lookup(t).unwrap();
                assert!(r.servers_contacted() >= probes, "{spec}");
                assert_eq!(r.entries().len(), t, "{spec}");
                assert_eq!(clones() - before, t, "{spec}");
            }
        }
    }
}
