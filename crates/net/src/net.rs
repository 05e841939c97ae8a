//! The in-process mailbox network.
//!
//! [`SimNet`] is a deterministic, single-threaded message fabric: senders
//! enqueue envelopes into per-server FIFO mailboxes, and
//! [`SimNet::deliver_all`] drains them in a fixed round-robin order,
//! invoking a handler that may itself enqueue further messages (this is how
//! a strategy coordinator's broadcast fans out). Messages addressed to a
//! failed server are silently dropped and tallied.

use std::collections::VecDeque;

use crate::{Endpoint, FailureSet, MessageCounter, MsgClass, SendError, ServerId};

/// A message in flight: payload plus addressing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Who sent the message.
    pub from: Endpoint,
    /// The destination server.
    pub to: ServerId,
    /// Traffic class, for accounting.
    pub class: MsgClass,
    /// The payload.
    pub msg: M,
}

/// Deterministic in-process network connecting `n` simulated servers.
///
/// The generic parameter `M` is the protocol's message type; `pls-core`
/// instantiates it with its strategy messages.
///
/// Failure semantics: [`SimNet::fail`] crashes a server — its mailbox is
/// discarded (in-flight messages are lost) and future messages to it are
/// dropped, exactly as a crashed process would behave. [`SimNet::recover`]
/// brings it back empty-handed; state recovery is the strategy's problem.
#[derive(Debug, Clone)]
pub struct SimNet<M> {
    mailboxes: Vec<VecDeque<Envelope<M>>>,
    failures: FailureSet,
    counter: MessageCounter,
    /// Round-robin cursor: the server whose mailbox the next pop inspects
    /// first, so no mailbox can starve the others.
    cursor: usize,
}

impl<M> SimNet<M> {
    /// Creates a network of `n` operational servers with empty mailboxes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero: the service definition requires at least one
    /// server.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a lookup service needs at least one server");
        SimNet {
            mailboxes: (0..n).map(|_| VecDeque::new()).collect(),
            failures: FailureSet::new(n),
            counter: MessageCounter::new(),
            cursor: 0,
        }
    }

    /// Number of servers.
    pub fn n(&self) -> usize {
        self.mailboxes.len()
    }

    /// The current failure set.
    pub fn failures(&self) -> &FailureSet {
        &self.failures
    }

    /// The message accounting so far.
    pub fn counter(&self) -> &MessageCounter {
        &self.counter
    }

    /// Resets the message accounting (placement state is untouched).
    pub fn reset_counter(&mut self) {
        self.counter.reset();
    }

    /// Crashes a server: pending mail is lost, future mail is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the server index is out of range.
    pub fn fail(&mut self, s: ServerId) {
        self.failures.fail(s);
        self.mailboxes[s.index()].clear();
    }

    /// Brings a crashed server back (with an empty mailbox). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the server index is out of range.
    pub fn recover(&mut self, s: ServerId) {
        self.failures.recover(s);
    }

    /// Enqueues a point-to-point message (cost 1 when processed).
    ///
    /// Messages to failed servers are dropped and counted as such; this is
    /// not an error, matching the fire-and-forget store/remove messages of
    /// the paper's protocols.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::UnknownServer`] if `to` is outside `0..n`.
    pub fn send(
        &mut self,
        from: Endpoint,
        to: ServerId,
        msg: M,
        class: MsgClass,
    ) -> Result<(), SendError> {
        if to.index() >= self.n() {
            return Err(SendError::UnknownServer(to));
        }
        if self.failures.is_failed(to) {
            self.counter.record_dropped();
            return Ok(());
        }
        self.mailboxes[to.index()].push_back(Envelope { from, to, class, msg });
        Ok(())
    }

    /// Enqueues a copy of `msg` to every server, including the sender if it
    /// is a server (the paper's broadcasts are self-inclusive: "S broadcasts
    /// a store message to all servers ... upon receiving the store message,
    /// each server makes a local copy"). Costs `n` processed messages, minus
    /// drops at failed servers.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for parity with [`SimNet::send`].
    pub fn broadcast(&mut self, from: Endpoint, msg: M, class: MsgClass) -> Result<(), SendError>
    where
        M: Clone,
    {
        for i in 0..self.n() {
            self.send(from, ServerId::new(i as u32), msg.clone(), class)?;
        }
        Ok(())
    }

    /// True when no messages are waiting anywhere.
    pub fn is_quiescent(&self) -> bool {
        self.mailboxes.iter().all(VecDeque::is_empty)
    }

    /// Total messages currently queued.
    pub fn pending(&self) -> usize {
        self.mailboxes.iter().map(VecDeque::len).sum()
    }

    /// Pops the next queued envelope in fair round-robin order, counting it
    /// as processed.
    ///
    /// This is the primitive a protocol driver loops on:
    /// `while let Some(env) = net.pop_next() { handle(env) }`. Counting
    /// happens at pop time, matching the paper's "messages received and
    /// processed by servers" cost model.
    pub fn pop_next(&mut self) -> Option<Envelope<M>> {
        let n = self.n();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if let Some(env) = self.mailboxes[i].pop_front() {
                self.cursor = (i + 1) % n;
                self.counter.record(env.class);
                return Some(env);
            }
        }
        None
    }

    /// Records `count` processed messages of `class` without materializing
    /// envelopes.
    ///
    /// Lookup probes are request/reply interactions the client performs
    /// directly; modeling them as synchronous calls and charging here keeps
    /// the accounting faithful without paying queueing overhead on hot
    /// simulation paths.
    pub fn charge(&mut self, class: MsgClass, count: u64) {
        self.counter.add(class, count);
    }

    /// Delivers queued messages until the network is quiescent.
    ///
    /// The handler receives `(&mut SimNet, Envelope)` and may send further
    /// messages; those are delivered too. Delivery order is deterministic:
    /// fair round-robin over servers via [`SimNet::pop_next`]. Each delivery
    /// to an operational server increments the counter for the envelope's
    /// class before the handler runs.
    ///
    /// Returns the number of messages delivered.
    pub fn deliver_all<F>(&mut self, mut handler: F) -> usize
    where
        F: FnMut(&mut SimNet<M>, Envelope<M>),
    {
        let mut delivered = 0;
        while let Some(env) = self.pop_next() {
            delivered += 1;
            handler(self, env);
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = SimNet::<u8>::new(0);
    }

    #[test]
    fn p2p_delivery_and_counting() {
        let mut net: SimNet<u32> = SimNet::new(3);
        net.send(Endpoint::client(0), sid(2), 99, MsgClass::Update).unwrap();
        let mut got = Vec::new();
        let delivered = net.deliver_all(|_, e| got.push((e.to, e.msg)));
        assert_eq!(delivered, 1);
        assert_eq!(got, vec![(sid(2), 99)]);
        assert_eq!(net.counter().update_messages(), 1);
    }

    #[test]
    fn broadcast_costs_n() {
        let mut net: SimNet<u32> = SimNet::new(5);
        net.broadcast(Endpoint::Server(sid(0)), 1, MsgClass::Update).unwrap();
        let delivered = net.deliver_all(|_, _| {});
        assert_eq!(delivered, 5);
        assert_eq!(net.counter().update_messages(), 5);
    }

    #[test]
    fn failed_server_drops_mail() {
        let mut net: SimNet<u32> = SimNet::new(3);
        net.fail(sid(1));
        net.broadcast(Endpoint::client(0), 7, MsgClass::Update).unwrap();
        let delivered = net.deliver_all(|_, _| {});
        assert_eq!(delivered, 2);
        assert_eq!(net.counter().update_messages(), 2);
        assert_eq!(net.counter().dropped(), 1);
    }

    #[test]
    fn crash_loses_inflight_mail() {
        let mut net: SimNet<u32> = SimNet::new(2);
        net.send(Endpoint::client(0), sid(1), 1, MsgClass::Update).unwrap();
        net.fail(sid(1));
        assert!(net.is_quiescent());
        net.recover(sid(1));
        // Recovered server starts with an empty mailbox.
        assert_eq!(net.deliver_all(|_, _| {}), 0);
    }

    #[test]
    fn handler_can_cascade_sends() {
        // Client -> S0, which fans out to S1 and S2, which each ack S0.
        let mut net: SimNet<&'static str> = SimNet::new(3);
        net.send(Endpoint::client(0), sid(0), "req", MsgClass::Update).unwrap();
        let mut acks = 0;
        let delivered = net.deliver_all(|net, e| match e.msg {
            "req" => {
                for i in 1..3 {
                    net.send(e.to.into(), sid(i), "store", MsgClass::Update).unwrap();
                }
            }
            "store" => {
                net.send(e.to.into(), sid(0), "ack", MsgClass::Update).unwrap();
            }
            "ack" => acks += 1,
            other => panic!("unexpected message {other}"),
        });
        assert_eq!(acks, 2);
        assert_eq!(delivered, 5); // req + 2 store + 2 ack
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let mut net: SimNet<u32> = SimNet::new(2);
        let err = net.send(Endpoint::client(0), sid(9), 0, MsgClass::Update).unwrap_err();
        assert_eq!(err, SendError::UnknownServer(sid(9)));
    }

    #[test]
    fn pop_next_counts_and_rotates() {
        let mut net: SimNet<u32> = SimNet::new(3);
        net.send(Endpoint::client(0), sid(2), 9, MsgClass::Lookup).unwrap();
        let env = net.pop_next().unwrap();
        assert_eq!(env.msg, 9);
        assert_eq!(net.counter().lookup_messages(), 1);
        assert!(net.pop_next().is_none());
    }

    #[test]
    fn charge_records_without_envelopes() {
        let mut net: SimNet<u32> = SimNet::new(2);
        net.charge(MsgClass::Lookup, 3);
        net.charge(MsgClass::Update, 2);
        assert_eq!(net.counter().lookup_messages(), 3);
        assert_eq!(net.counter().update_messages(), 2);
        assert!(net.is_quiescent());
    }

    #[test]
    fn round_robin_drain_is_fair_and_deterministic() {
        let mut net: SimNet<u32> = SimNet::new(2);
        // Two messages for S0, one for S1.
        net.send(Endpoint::client(0), sid(0), 1, MsgClass::Control).unwrap();
        net.send(Endpoint::client(0), sid(0), 2, MsgClass::Control).unwrap();
        net.send(Endpoint::client(0), sid(1), 3, MsgClass::Control).unwrap();
        let mut order = Vec::new();
        net.deliver_all(|_, e| order.push(e.msg));
        // Sweep 1 delivers one message per server (1 then 3), sweep 2 the rest.
        assert_eq!(order, vec![1, 3, 2]);
    }
}
