//! One key's `n` engines, driven in process: the only loop in this crate
//! that delivers messages to engines ([`Group::update`]) and the only one
//! that drives a [`LookupPlan`] over their stores ([`Group::lookup`]).
//! [`Cluster`](crate::Cluster) owns one group,
//! [`Directory`](crate::directory::Directory) one per key; the owner keeps
//! the failure set, the RNG and the accounting, and is told what happened
//! through a closure. The update loop queues what engines *send*, so a
//! broadcast stays one message however many servers read it, and this file
//! copies no message. An engine appends its sends straight onto the one
//! queue, which a cursor walks from the front; the queue starts every
//! update empty.

use std::borrow::Cow;
use std::mem;

use pls_net::{Endpoint, ServerId};

use crate::engine::{NodeEngine, Outbound};
use crate::lookup::{Bookkeeping, SparePool};
use crate::{
    lookup, ConfigError, DetRng, Entry, FailureSet, LookupPlan, LookupResult, Message,
    ServiceError, StrategySpec,
};

/// The replica group of one key: server `i`'s engine at index `i`.
#[derive(Debug, Clone)]
pub(crate) struct Group<V: Entry> {
    pub(crate) engines: Vec<NodeEngine<V>>,
    pub(crate) spec: StrategySpec,
    /// How many servers hold the Round-Robin counters (§5.4 footnote).
    pub(crate) rr_mirrors: usize,
}

/// What an update works in: the queue of its sends, first in first out,
/// and beside it the sender of each. Engines append to the queue as they
/// handle; it is emptied when an update starts and when it ends, and kept
/// for its allocation (a directory lends every key the same). An update
/// that panics (an entry's `Clone`, `Eq` or `Hash` is caller code) leaves
/// the engines as far as its cascade got and nothing for the next update
/// to deliver.
pub(crate) type Scratch<V> = (Vec<Outbound<V>>, Vec<Endpoint>);

/// What a lookup checks before it looks at any key.
pub(crate) fn check_lookup(t: usize, failures: &FailureSet) -> Result<(), ServiceError> {
    match (t, failures.operational_count()) {
        (0, _) => Err(ServiceError::ZeroTarget),
        (_, 0) => Err(ServiceError::AllServersFailed),
        _ => Ok(()),
    }
}

impl<V: Entry> Group<V> {
    /// `n` fresh engines, each seeded from `seed` as [`NodeEngine::new`] says.
    pub(crate) fn new(n: usize, spec: StrategySpec, seed: u64) -> Result<Self, ConfigError> {
        let engine = |i| NodeEngine::new(ServerId::new(i as u32), n, spec, seed);
        Ok(Group { engines: (0..n).map(engine).collect::<Result<_, _>>()?, spec, rr_mirrors: 1 })
    }

    /// Sends a client's update to its coordinator (§5; an error if there
    /// is none) and delivers all that follows from it, first in first out.
    /// A broadcast is lent to servers `0..n` in turn (§6.4 counts `n`
    /// processed messages, not `n` copies) and given to the last of them
    /// that is up. Each delivery is reported: `on(destination, true)` when
    /// its server processes it (§6.4's unit of cost), `on(destination,
    /// false)` when that server is down and the message lost.
    pub(crate) fn update(
        &mut self,
        (queue, senders): &mut Scratch<V>,
        failures: &FailureSet,
        rng: &mut DetRng,
        msg: Message<V>,
        mut on: impl FnMut(ServerId, bool),
    ) -> Result<(), ServiceError> {
        queue.clear();
        senders.clear();
        let coordinator = lookup::update_coordinator(self.spec, self.rr_mirrors, failures, rng)?;
        let n = self.engines.len() as u32;
        let engines = &mut self.engines;
        let mut send = |queue: &mut Vec<_>, senders: &mut Vec<_>, from, dest, msg: Cow<'_, _>| {
            let up = !failures.is_failed(dest);
            on(dest, up);
            if up {
                engines[dest.index()].handle_into(from, msg, queue);
                senders.resize(queue.len(), Endpoint::Server(dest));
            }
        };
        queue.push(Outbound::To(coordinator, msg));
        senders.push(Endpoint::client(0));
        let mut next = 0;
        while let Some(slot) = queue.get_mut(next) {
            let sent = mem::replace(slot, Outbound::Broadcast(Message::Reset));
            let from = senders[next];
            next += 1;
            match sent {
                Outbound::To(dest, msg) => send(queue, senders, from, dest, Cow::Owned(msg)),
                Outbound::Broadcast(msg) => {
                    let up = |s: &ServerId| !failures.is_failed(*s);
                    let last = (0..n).rev().map(ServerId::new).find(up).expect("its sender is up");
                    // (The servers after `last` are down: reported, not lent to.)
                    for dest in (0..n).map(ServerId::new).filter(|s| *s != last) {
                        send(queue, senders, from, dest, Cow::Borrowed(&msg));
                    }
                    send(queue, senders, from, last, Cow::Owned(msg));
                }
            }
        }
        queue.clear();
        senders.clear();
        Ok(())
    }

    /// `partial_lookup(t)` by §3's client procedure for this strategy, in
    /// the bookkeeping the owner lends (`lent`). Each server the plan names
    /// is probed on the spot for `t` random entries of its store, by
    /// reference (the plan copies the ones it returns, over `spares`), and
    /// reported as `probed(server)`; a failed one is unreachable.
    pub(crate) fn lookup(
        &self,
        t: usize,
        failures: &FailureSet,
        rng: &mut DetRng,
        (lent, spares): (&mut Bookkeeping, &SparePool<V>),
        mut probed: impl FnMut(ServerId),
    ) -> Result<LookupResult<V>, ServiceError> {
        check_lookup(t, failures)?;
        let mut plan = LookupPlan::lent(Some(self.spec), t, failures, rng, lent, Some(spares));
        while let Some(s) = plan.next(rng) {
            if failures.is_failed(s) {
                plan.unreachable(s);
            } else {
                probed(s);
                plan.answered(s, self.engines[s.index()].sample_refs(t, &mut lent.indices));
            }
        }
        Ok(plan.finish_lent(rng, lent))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;
    use std::hash::{Hash, Hasher};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    /// An entry that knows whether it is a copy.
    #[derive(Debug)]
    struct Tracked {
        id: u64,
        copy: bool,
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked { id: self.id, copy: true }
        }
    }

    impl PartialEq for Tracked {
        fn eq(&self, other: &Self) -> bool {
            self.id == other.id
        }
    }

    impl Eq for Tracked {}

    impl Hash for Tracked {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.id.hash(state);
        }
    }

    #[test]
    fn a_broadcast_is_read_by_every_server_and_kept_by_the_last_one_up() {
        let n = 10;
        for down in [&[][..], &[9], &[0, 4, 8, 9], &[0, 1, 2, 3, 4, 5, 6, 7, 8], &[5, 6, 7, 8, 9]] {
            let mut group: Group<Tracked> =
                Group::new(n, StrategySpec::full_replication(), 5).unwrap();
            let mut failures = FailureSet::new(n);
            down.iter().for_each(|s| failures.fail(ServerId::new(*s)));
            let last_up = failures.operational().last().unwrap();
            let mut scratch = Scratch::default();
            let mut rng = DetRng::seed_from(6);
            let (mut processed, mut lost) = (vec![0; n], vec![0; n]);
            let add = Message::AddReq { v: Tracked { id: 1, copy: false } };
            group
                .update(&mut scratch, &failures, &mut rng, add, |s, delivered| {
                    let count = if delivered { &mut processed } else { &mut lost };
                    count[s.index()] += 1;
                })
                .unwrap();
            assert!(scratch.0.is_empty() && scratch.1.is_empty());
            // The request at its coordinator, and the broadcast once at
            // every server: processed where it is up, lost where it is not.
            assert_eq!(processed.iter().sum::<usize>(), 1 + failures.operational_count());
            for s in (0..n as u32).map(ServerId::new) {
                let (stored, failed) = (group.engines[s.index()].entries(), failures.is_failed(s));
                assert_eq!(lost[s.index()], usize::from(failed), "{s} of {down:?}");
                assert_eq!(processed[s.index()] == 0, failed, "{s} of {down:?}");
                assert_eq!(stored.len(), usize::from(!failed), "{s} of {down:?}");
                // The servers before the last one up copied the entry out
                // of the message they were lent; that one took the message.
                assert!(stored.iter().all(|v| v.copy == (s != last_up)), "{s} of {down:?}");
            }
        }
    }

    thread_local! {
        /// Clones of a [`Brittle`] left before one panics.
        pub(crate) static FUSE: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// An entry whose `Clone` panics once [`FUSE`] burns down.
    #[derive(Debug, PartialEq, Eq, Hash)]
    pub(crate) struct Brittle(pub u64);

    impl Clone for Brittle {
        fn clone(&self) -> Self {
            if let Some(left) = FUSE.get() {
                FUSE.set(left.checked_sub(1));
                assert!(left > 0, "the fuse burned down");
            }
            Brittle(self.0)
        }
    }

    /// Clones `make()` makes: counted by a fuse that never burns down.
    pub(crate) fn clones_of<T>(make: impl FnOnce() -> T) -> usize {
        FUSE.set(Some(usize::MAX));
        make();
        usize::MAX - FUSE.take().expect("still lit")
    }

    /// Panics unless every engine of `a` holds what the same one of `b` does:
    /// its store in order, its round-robin positions and counters, its version.
    fn assert_same<V: Entry>(a: &Group<V>, b: &Group<V>, what: &str) {
        for (x, y) in a.engines.iter().zip(&b.engines) {
            let s = x.me();
            assert_eq!(x.entries(), y.entries(), "{s}, {what}");
            assert!(x.rr_positions().eq(y.rr_positions()), "{s}, {what}");
            assert_eq!(x.rr_counters(), y.rr_counters(), "{s}, {what}");
            assert_eq!(x.version(), y.version(), "{s}, {what}");
        }
    }

    /// The five strategies at the sizes the benchmark uses.
    const SPECS: [StrategySpec; 5] = [
        StrategySpec::FullReplication,
        StrategySpec::Fixed { x: 20 },
        StrategySpec::RandomServer { x: 20 },
        StrategySpec::RoundRobin { y: 2 },
        StrategySpec::Hash { y: 2 },
    ];

    /// Each update of a short history panics at each of its clones in turn.
    /// The group that panicked then updates once more in the scratch it
    /// panicked in, and its clone in a fresh one: both must report the same
    /// deliveries and end in the same state.
    #[test]
    fn a_panicked_update_leaves_nothing_for_the_next_one() {
        let (n, failures) = (10, FailureSet::new(10));
        let op = |i: usize| match i {
            0 => Message::PlaceReq { entries: (0..40).map(Brittle).collect() },
            1 => Message::DeleteReq { v: Brittle(17) },
            2 => Message::AddReq { v: Brittle(98) },
            3 => Message::AddReq { v: Brittle(99) },
            _ => Message::DeleteReq { v: Brittle(98) },
        };
        for spec in SPECS {
            let (mut group, mut rng) = (Group::new(n, spec, 8).unwrap(), DetRng::seed_from(9));
            let mut panics = 0;
            for i in 0..5 {
                let run = |group: &mut Group<Brittle>, scratch: &mut _, rng: &mut _| {
                    group.update(scratch, &failures, rng, op(i), |_, _| {})
                };
                let (mut counted, mut r) = (group.clone(), rng.clone());
                let calls =
                    clones_of(|| run(&mut counted, &mut Scratch::default(), &mut r).unwrap());
                for k in 0..calls {
                    let (mut broken, mut scratch, mut r) =
                        (group.clone(), Scratch::default(), rng.clone());
                    FUSE.set(Some(k));
                    let panicked = catch_unwind(AssertUnwindSafe(|| {
                        run(&mut broken, &mut scratch, &mut r).unwrap()
                    }));
                    assert!(panicked.is_err() && FUSE.take().is_none(), "{spec}, op {i}, {k}");
                    panics += 1;
                    let (mut twin, mut twin_rng) = (broken.clone(), r.clone());
                    let next = || Message::AddReq { v: Brittle(1_000) };
                    let (mut ours, mut theirs) = (Vec::new(), Vec::new());
                    let ran = broken.update(&mut scratch, &failures, &mut r, next(), |s, up| {
                        ours.push((s, up))
                    });
                    let fresh = twin.update(
                        &mut Scratch::default(),
                        &failures,
                        &mut twin_rng,
                        next(),
                        |s, up| theirs.push((s, up)),
                    );
                    let what = format!("{spec}, op {i} panicked at clone {k}");
                    assert_eq!((ran, ours), (fresh, theirs), "{what}");
                    assert_same(&broken, &twin, &what);
                }
                run(&mut group, &mut Scratch::default(), &mut rng).unwrap();
            }
            assert!(panics > 0, "{spec}: no update cloned");
        }
    }

    /// The update loop as it was before the queue went flat, kept as the
    /// model the one queue must deliver like: each engine's sends go into
    /// a buffer of their own and from there, paired with their sender, onto
    /// the back of a queue of pairs, which is popped from the front.
    fn update_by_model<V: Entry>(
        group: &mut Group<V>,
        failures: &FailureSet,
        rng: &mut DetRng,
        msg: Message<V>,
        mut on: impl FnMut(ServerId, bool),
    ) -> Result<(), ServiceError> {
        let coordinator = lookup::update_coordinator(group.spec, group.rr_mirrors, failures, rng)?;
        let (n, engines) = (group.engines.len() as u32, &mut group.engines);
        let (mut queue, mut out) = (Vec::new(), Vec::new());
        let mut send = |queue: &mut Vec<_>, from, dest: ServerId, msg: Cow<'_, Message<V>>| {
            let up = !failures.is_failed(dest);
            on(dest, up);
            if up {
                engines[dest.index()].handle_into(from, msg, &mut out);
                let me = Endpoint::Server(dest);
                queue.extend(out.drain(..).map(|sent| (me, sent)));
            }
        };
        queue.push((Endpoint::client(0), Outbound::To(coordinator, msg)));
        while !queue.is_empty() {
            match queue.remove(0) {
                (from, Outbound::To(dest, msg)) => send(&mut queue, from, dest, Cow::Owned(msg)),
                (from, Outbound::Broadcast(msg)) => {
                    let up = |s: &ServerId| !failures.is_failed(*s);
                    let last = (0..n).rev().map(ServerId::new).find(up).expect("its sender is up");
                    for dest in (0..n).map(ServerId::new).filter(|s| *s != last) {
                        send(&mut queue, from, dest, Cow::Borrowed(&msg));
                    }
                    send(&mut queue, from, last, Cow::Owned(msg));
                }
            }
        }
        Ok(())
    }

    /// A seeded history run through a group and, beside it, through its
    /// clone by [`update_by_model`]: a placement, adds, deletes (of entries
    /// never added too), and servers failing and recovering, the last one
    /// among them, so that the server a broadcast is given to changes.
    /// After every update both report the same deliveries and hold the
    /// same state.
    fn delivers_like_the_model<V: Entry>(spec: StrategySpec, mirrors: usize, entry: fn(u64) -> V) {
        let n = 10;
        let mut group = Group::new(n, spec, 21).unwrap();
        group.engines.iter_mut().for_each(|e| e.set_rr_mirrors(mirrors));
        group.rr_mirrors = mirrors;
        let (mut model, mut scratch, mut failures) =
            (group.clone(), Scratch::default(), FailureSet::new(n));
        let (mut rng, mut model_rng, mut history) =
            (DetRng::seed_from(22), DetRng::seed_from(22), DetRng::seed_from(23));
        let (mut live, mut fresh) = (Vec::new(), 1_000);
        for step in 0..400 {
            let msg = match history.below(20) {
                _ if step == 0 => {
                    live = (0..40).collect();
                    Message::PlaceReq { entries: live.iter().map(|&v| entry(v)).collect() }
                }
                0..=2 => {
                    let s = ServerId::new(history.below(n) as u32);
                    if failures.failed_count() < 3 {
                        failures.fail(s);
                    }
                    continue;
                }
                3..=5 => {
                    failures.recover(ServerId::new(history.below(n) as u32));
                    continue;
                }
                6..=12 => {
                    fresh += 1;
                    live.push(fresh);
                    Message::AddReq { v: entry(fresh) }
                }
                13 => Message::DeleteReq { v: entry(fresh + 1) },
                _ if live.is_empty() => continue,
                _ => Message::DeleteReq { v: entry(live.swap_remove(history.below(live.len()))) },
            };
            let what = format!("{spec}, {mirrors} mirrors, step {step}: {msg:?}");
            let (mut ours, mut theirs) = (Vec::new(), Vec::new());
            let ran = group
                .update(&mut scratch, &failures, &mut rng, msg.clone(), |s, up| ours.push((s, up)));
            let modelled = update_by_model(&mut model, &failures, &mut model_rng, msg, |s, up| {
                theirs.push((s, up))
            });
            assert_eq!((ran, ours), (modelled, theirs), "{what}");
            assert_same(&group, &model, &what);
        }
    }

    #[test]
    fn one_queue_delivers_what_the_ring_and_buffer_did() {
        let bytes = |v: u64| format!("{v:024}").into_bytes();
        for spec in SPECS {
            delivers_like_the_model(spec, 1, |v| v);
            delivers_like_the_model(spec, 1, bytes);
        }
        // Three counter mirrors: the coordinator moves when server 0 fails.
        delivers_like_the_model(StrategySpec::RoundRobin { y: 3 }, 3, |v| v);
        delivers_like_the_model(StrategySpec::RoundRobin { y: 3 }, 3, bytes);
    }
}
