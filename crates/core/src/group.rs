//! One key's `n` engines, driven in process: the only loop in this crate
//! that delivers messages to engines ([`Group::update`]) and the only one
//! that drives a [`LookupPlan`] over their stores ([`Group::lookup`]).
//! [`Cluster`](crate::Cluster) owns one group,
//! [`Directory`](crate::directory::Directory) one per key; the owner keeps
//! the failure set, the RNG and the accounting, and is told what happened
//! through a closure. The update loop queues what engines *send*, so a
//! broadcast stays one message however many servers read it, and this file
//! copies no message.

use std::borrow::Cow;
use std::collections::VecDeque;

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

/// What an update works in: the sends still to deliver, each with its
/// sender, and where an engine puts what it sends. Empty between calls,
/// kept for their allocations; a directory lends every key the same.
pub(crate) type Scratch<V> = (VecDeque<(Endpoint, Outbound<V>)>, Vec<Outbound<V>>);

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
        (queue, out): &mut Scratch<V>,
        failures: &FailureSet,
        rng: &mut DetRng,
        msg: Message<V>,
        mut on: impl FnMut(ServerId, bool),
    ) -> Result<(), ServiceError> {
        let coordinator = lookup::update_coordinator(self.spec, self.rr_mirrors, failures, rng)?;
        let n = self.engines.len() as u32;
        let engines = &mut self.engines;
        let mut send = |queue: &mut VecDeque<_>, from, dest: ServerId, msg: Cow<'_, Message<V>>| {
            let up = !failures.is_failed(dest);
            on(dest, up);
            if up {
                engines[dest.index()].handle_into(from, msg, out);
                let me = Endpoint::Server(dest);
                queue.extend(out.drain(..).map(|sent| (me, sent)));
            }
        };
        queue.push_back((Endpoint::client(0), Outbound::To(coordinator, msg)));
        while let Some((from, sent)) = queue.pop_front() {
            match sent {
                Outbound::To(dest, msg) => send(queue, from, dest, Cow::Owned(msg)),
                Outbound::Broadcast(msg) => {
                    let up = |s: &ServerId| !failures.is_failed(*s);
                    let last = (0..n).rev().map(ServerId::new).find(up).expect("its sender is up");
                    // (The servers after `last` are down: reported, not lent to.)
                    for dest in (0..n).map(ServerId::new).filter(|s| *s != last) {
                        send(queue, from, dest, Cow::Borrowed(&msg));
                    }
                    send(queue, from, last, Cow::Owned(msg));
                }
            }
        }
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
mod tests {
    use std::hash::{Hash, Hasher};

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
}
