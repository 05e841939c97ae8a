//! One key's `n` engines, driven in process: the only loop in this crate
//! that delivers messages to engines ([`Group::update`]) and the only one
//! that drives a [`LookupPlan`] over their stores ([`Group::lookup`]).
//! [`Cluster`](crate::Cluster) owns one group,
//! [`Directory`](crate::directory::Directory) one per key; the owner keeps
//! the failure set, the RNG and the accounting, and is told what happened
//! through a closure.

use std::collections::VecDeque;

use pls_net::{Endpoint, ServerId};

use crate::engine::{NodeEngine, Outbound};
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

/// What an update works in: the (sender, destination, message) triples
/// still to deliver, and where an engine puts what it sends. Empty between
/// calls, kept for their allocations; a directory lends every key the same.
pub(crate) type Scratch<V> = (VecDeque<(Endpoint, ServerId, Message<V>)>, Vec<Outbound<V>>);

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
    /// A broadcast is `n - 1` copies and the original. Each message is
    /// reported: `on(destination, true)` when its server processes it
    /// (§6.4's unit of cost), `on(destination, false)` when that server is
    /// down and the message lost.
    pub(crate) fn update(
        &mut self,
        (queue, out): &mut Scratch<V>,
        failures: &FailureSet,
        rng: &mut DetRng,
        msg: Message<V>,
        mut on: impl FnMut(ServerId, bool),
    ) -> Result<(), ServiceError> {
        let coordinator = lookup::update_coordinator(self.spec, self.rr_mirrors, failures, rng)?;
        let n = self.engines.len();
        queue.push_back((Endpoint::client(0), coordinator, msg));
        while let Some((from, dest, msg)) = queue.pop_front() {
            let up = !failures.is_failed(dest);
            on(dest, up);
            if !up {
                continue;
            }
            self.engines[dest.index()].handle_into(from, msg, out);
            let me = Endpoint::Server(dest);
            for sent in out.drain(..) {
                match sent {
                    Outbound::To(to, msg) => queue.push_back((me, to, msg)),
                    Outbound::Broadcast(msg) => {
                        for i in 0..n - 1 {
                            queue.push_back((me, ServerId::new(i as u32), msg.clone()));
                        }
                        queue.push_back((me, ServerId::new(n as u32 - 1), msg));
                    }
                }
            }
        }
        Ok(())
    }

    /// `partial_lookup(t)` by §3's client procedure for this strategy. Each
    /// server the plan names is probed on the spot for `t` random entries of
    /// its store, by reference (the plan copies the ones it returns), and
    /// reported as `probed(server)`; a failed one is unreachable.
    pub(crate) fn lookup(
        &self,
        t: usize,
        failures: &FailureSet,
        rng: &mut DetRng,
        mut probed: impl FnMut(ServerId),
    ) -> Result<LookupResult<V>, ServiceError> {
        check_lookup(t, failures)?;
        let mut plan = LookupPlan::new(self.spec, t, failures, rng);
        while let Some(s) = plan.next(rng) {
            if failures.is_failed(s) {
                plan.unreachable(s);
            } else {
                probed(s);
                plan.answered(s, self.engines[s.index()].sample_refs(t));
            }
        }
        Ok(plan.finish(rng))
    }
}
