//! Delivery-order differential test: [`Cluster`]'s first-in first-out
//! fan-out against the schedule it had until PR 17 — `pls-net`'s
//! [`SimNet`], one mailbox per server, popped round-robin.
//!
//! The two deliver the same messages in different orders. `chaos.rs` says
//! why that must not matter (the engines are correct under any order that
//! keeps per-(sender, destination) FIFO); this file checks the stronger
//! thing the reproduction relies on: same seeds, same operations, and
//! after every one of them every server holds the same entries in the
//! same order, the same round-robin positions and counters, and the same
//! number of update messages has been processed — for all five
//! strategies with every server up, and for the four whose updates do not
//! migrate entries with servers failing and coming back mid-run.
//!
//! Round-Robin-y updates while a server is down are the exception, and
//! the last test pins it: Fig. 11 does not define that regime, the two
//! schedules part there, and no experiment enters it (DESIGN.md §8).

use std::collections::BTreeMap;

use pls_core::engine::{NodeEngine, Outbound};
use pls_core::{Cluster, DetRng, IndexedSet, Message, MsgClass, ServerId, StrategySpec};
use pls_net::{Endpoint, SimNet};

const N: usize = 10;

/// The reference: raw engines over `SimNet`, with `Cluster`'s seeds. It
/// picks coordinators as `Cluster` does and from an RNG seeded like
/// `Cluster`'s, so the two stay in step as long as neither runs a lookup.
struct Reference {
    net: SimNet<Message<u64>>,
    engines: Vec<NodeEngine<u64>>,
    spec: StrategySpec,
    mirrors: usize,
    rng: DetRng,
}

impl Reference {
    fn new(spec: StrategySpec, seed: u64, mirrors: usize) -> Self {
        let mut engines: Vec<NodeEngine<u64>> = (0..N as u32)
            .map(|i| NodeEngine::new(ServerId::new(i), N, spec, seed).expect("valid spec"))
            .collect();
        engines.iter_mut().for_each(|e| e.set_rr_mirrors(mirrors));
        let rng = DetRng::seed_from(seed ^ 0xC11E_27D5_EED5_EED5);
        Reference { net: SimNet::new(N), engines, spec, mirrors, rng }
    }

    /// One client update, delivered in `SimNet::pop_next`'s order.
    fn update(&mut self, msg: Message<u64>) {
        let down = self.net.failures();
        let coordinator = match self.spec {
            StrategySpec::RoundRobin { .. } => {
                (0..self.mirrors as u32).map(ServerId::new).find(|s| !down.is_failed(*s))
            }
            _ => self.rng.random_operational_server(down),
        };
        let Some(coordinator) = coordinator else { return };
        self.net.send(Endpoint::client(0), coordinator, msg, MsgClass::Update).expect("in range");
        while let Some(env) = self.net.pop_next() {
            let me = Endpoint::Server(env.to);
            for sent in self.engines[env.to.index()].handle(env.from, env.msg) {
                match sent {
                    Outbound::To(to, msg) => self.net.send(me, to, msg, MsgClass::Update),
                    Outbound::Broadcast(msg) => self.net.broadcast(me, msg, MsgClass::Update),
                }
                .expect("in range");
            }
        }
    }

    /// `Cluster::recover_and_resync` of a server that holds no counters:
    /// one donor's store where all are alike, else the donors' union.
    fn recover_and_resync(&mut self, s: ServerId) {
        let mut donors: Vec<ServerId> = self.net.failures().operational().collect();
        self.net.recover(s);
        if matches!(self.spec, StrategySpec::FullReplication | StrategySpec::Fixed { .. }) {
            donors.truncate(1);
        }
        let (mut union, mut positions) = (IndexedSet::new(), BTreeMap::new());
        for d in donors {
            union.extend(self.engines[d.index()].entries().iter().copied());
            positions.extend(self.engines[d.index()].rr_positions().map(|(p, v)| (p, *v)));
        }
        self.engines[s.index()].rebuild(union.into_vec(), positions, None);
    }
}

/// Where the two stand apart, if anywhere.
fn difference(cluster: &Cluster<u64>, reference: &Reference) -> Option<String> {
    for (i, theirs) in reference.engines.iter().enumerate() {
        let ours = cluster.engine(ServerId::new(i as u32));
        if ours.entries() != theirs.entries() {
            return Some(format!("S{i} stores {:?} / {:?}", ours.entries(), theirs.entries()));
        }
        if !ours.rr_positions().eq(theirs.rr_positions()) {
            return Some(format!("S{i} positions"));
        }
        if ours.rr_counters() != theirs.rr_counters() {
            return Some(format!("S{i} counters"));
        }
    }
    let (ours, theirs) = (cluster.counter(), reference.net.counter());
    ((ours.update_messages(), ours.dropped()) != (theirs.update_messages(), theirs.dropped()))
        .then(|| format!("messages {ours:?} / {theirs:?}"))
}

/// The test's own stream (a 64-bit LCG): the operations are the same
/// whichever `rand` the workspace was built with.
struct Ops {
    state: u64,
    live: Vec<u64>,
    next: u64,
}

impl Ops {
    fn below(&mut self, bound: usize) -> usize {
        self.state = self.state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (self.state >> 33) as usize % bound
    }

    /// A `place` of forty fresh entries now and then, else an `add` of a
    /// fresh entry or a `delete` of a live one, keeping about sixty live.
    fn next(&mut self) -> Message<u64> {
        let roll = self.below(100);
        if self.live.is_empty() || roll < 1 {
            self.live = (self.next..self.next + 40).collect();
            self.next += 40;
            Message::PlaceReq { entries: self.live.clone() }
        } else if roll < 50 + 60 - self.live.len().min(100) {
            self.next += 1;
            self.live.push(self.next - 1);
            Message::AddReq { v: self.next - 1 }
        } else {
            let at = self.below(self.live.len());
            Message::DeleteReq { v: self.live.swap_remove(at) }
        }
    }
}

fn apply(cluster: &mut Cluster<u64>, msg: &Message<u64>) {
    let done = match msg.clone() {
        Message::PlaceReq { entries } => cluster.place(entries),
        Message::AddReq { v } => cluster.add(v),
        Message::DeleteReq { v } => cluster.delete(&v),
        other => unreachable!("not a client update: {other:?}"),
    };
    // (Round-Robin-y with every counter holder down: both sides skip it.)
    let _ = done;
}

/// Runs `steps` operations on both; with `failing`, a server fails every
/// fiftieth step until three are down, then the longest down comes back,
/// by resync and by warm restart in turn. Returns the first step after
/// which the two differ, and how.
fn first_difference(
    spec: StrategySpec,
    seed: u64,
    mirrors: usize,
    steps: usize,
    failing: bool,
) -> Option<(usize, String)> {
    let mut cluster: Cluster<u64> = Cluster::new(N, spec, seed).expect("valid spec");
    if mirrors > 1 {
        cluster.set_rr_mirrors(mirrors);
    }
    let mut reference = Reference::new(spec, seed, mirrors);
    let mut ops = Ops { state: seed, live: Vec::new(), next: 0 };
    let mut down: Vec<ServerId> = Vec::new();
    for step in 0..steps {
        if failing && step % 50 == 49 {
            if down.len() < 3 {
                // Never the first two: Round-Robin's counter holders stay up.
                let s = ServerId::new(2 + ops.below(N - 2) as u32);
                if !down.contains(&s) {
                    cluster.fail_server(s);
                    reference.net.fail(s);
                    down.push(s);
                }
            } else {
                let s = down.remove(0);
                if step % 100 == 99 {
                    cluster.recover_and_resync(s).expect("donors");
                    reference.recover_and_resync(s);
                } else {
                    cluster.recover_server(s);
                    reference.net.recover(s);
                }
            }
        }
        let msg = ops.next();
        apply(&mut cluster, &msg);
        reference.update(msg);
        if let Some(what) = difference(&cluster, &reference) {
            return Some((step, what));
        }
    }
    assert!(cluster.counter().update_messages() > steps as u64, "{spec}: the run did something");
    None
}

const STEPS: usize = 2_500;

#[test]
fn every_strategy_ends_each_update_in_the_same_state_with_all_servers_up() {
    for (spec, mirrors) in [
        (StrategySpec::full_replication(), 1),
        (StrategySpec::fixed(20), 1),
        (StrategySpec::random_server(20), 1),
        (StrategySpec::hash(2), 1),
        (StrategySpec::round_robin(2), 1),
        (StrategySpec::round_robin(2), 3),
        (StrategySpec::round_robin(3), 2),
    ] {
        for seed in [7, 11] {
            let parted = first_difference(spec, seed, mirrors, STEPS, false);
            assert_eq!(parted, None, "{spec}, {mirrors} mirror(s), seed {seed}");
        }
    }
}

#[test]
fn the_entry_stored_strategies_agree_with_servers_failing_mid_run() {
    for spec in [
        StrategySpec::full_replication(),
        StrategySpec::fixed(20),
        StrategySpec::random_server(20),
        StrategySpec::hash(2),
    ] {
        for seed in [7, 11] {
            let parted = first_difference(spec, seed, 1, STEPS, true);
            assert_eq!(parted, None, "{spec}, seed {seed}");
        }
    }
}

#[test]
fn round_robin_updates_with_a_server_down_depend_on_the_order() {
    // KNOWN GAP (DESIGN.md §8), pinned so that closing it is a visible
    // change. Fig. 11 migrates the head entry into a deleted entry's
    // position and needs every holder of both alive; with one down, which
    // surviving holder a plug lands on depends on what reached it first.
    // Neither outcome is the paper's. No experiment, result file or
    // benchmark workload updates a Round-Robin key while a server is down.
    let parted = first_difference(StrategySpec::round_robin(2), 7, 1, STEPS, true);
    let (step, what) = parted.expect("the two schedules part");
    assert!(step >= 49, "not before the first failure: step {step}, {what}");
}
