//! The sans-IO protocol engine of one server.
//!
//! [`NodeEngine`] contains *all* strategy-specific server behaviour —
//! placement, selective broadcast, reservoir sampling, the Fig. 11
//! round-robin migration — as a pure state machine: feed it an inbound
//! [`Message`], get back the outbound messages it wants delivered. The
//! simulated [`Cluster`](crate::Cluster) and
//! [`Directory`](crate::directory::Directory) run `n` engines through one
//! first-in first-out loop in this process; the live TCP deployment
//! (`pls-cluster`) runs one engine per process over sockets. All execute
//! identical logic.
//!
//! A message arrives as a [`Cow`]: given (a decoded frame, a point-to-point
//! send) or lent (one in-process broadcast, read by every server). The
//! engine reads it where it is and copies an entry out of a lent message
//! only to keep it or send it on, so a server that a broadcast does not
//! concern copies nothing.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use pls_net::{Endpoint, ServerId};

use crate::node::{MigrationState, RoundRobin, RrCoord, ServerNode, Strategy};
use crate::{ConfigError, DetRng, Entry, IndexedSet, Message, StrategySpec, Tombstone};

/// Where an outbound message should go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outbound<V> {
    /// Point-to-point to one server.
    To(ServerId, Message<V>),
    /// To every server (including the sender).
    Broadcast(Message<V>),
}

/// One server's protocol engine: local entry store plus the strategy
/// state machine.
///
/// It carries the state of its own strategy only (Round-Robin's in one box
/// made with the engine), and boxes delete markers once a versioned delete
/// records one: a [`Directory`](crate::directory::Directory) pays every
/// byte here `n` times per key.
///
/// # Example
///
/// ```
/// use pls_core::engine::{NodeEngine, Outbound};
/// use pls_core::{Message, StrategySpec};
/// use pls_net::Endpoint;
///
/// // Server 0 of a 4-server Fixed-2 cluster receives a client place.
/// let mut engine: NodeEngine<u64> =
///     NodeEngine::new(0.into(), 4, StrategySpec::fixed(2), 7)?;
/// let out = engine.handle(Endpoint::client(0), Message::PlaceReq { entries: vec![1, 2, 3] });
/// // It broadcasts the first x = 2 entries to everyone.
/// assert_eq!(out, vec![Outbound::Broadcast(Message::StoreSet { entries: vec![1, 2] })]);
/// # Ok::<(), pls_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NodeEngine<V: Entry> {
    me: ServerId,
    n: usize,
    node: ServerNode<V>,
    /// This server's private stream. In a `RefCell` for `sample_refs`
    /// alone (a lookup holds references into several engines' stores, so
    /// a probe cannot take `&mut self`); everything else goes through
    /// `get_mut`, which is free. The engine is `Send`, not `Sync`.
    rng: RefCell<DetRng>,
}

impl<V: Entry> NodeEngine<V> {
    /// Creates the engine for server `me` of an `n`-server cluster.
    ///
    /// `cluster_seed` must be **identical on every server**: it derives
    /// the shared Hash-y function family. Each engine's private RNG is
    /// derived from the seed and `me`, so servers still randomize
    /// independently (as RandomServer-x requires).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the spec is invalid for `n` servers or
    /// `me` is out of range.
    pub fn new(
        me: ServerId,
        n: usize,
        spec: StrategySpec,
        cluster_seed: u64,
    ) -> Result<Self, ConfigError> {
        spec.validate(n)?;
        if me.index() >= n {
            return Err(ConfigError::InvalidParameter("server id out of range"));
        }
        let node = ServerNode::new(Strategy::new(spec, me.index() == 0, n, cluster_seed));
        // Each server gets its own stream; mixing `me` keeps streams
        // distinct even though the cluster seed is shared.
        let rng = RefCell::new(DetRng::seed_from(
            cluster_seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(me.index() as u64 + 1)),
        ));
        Ok(NodeEngine { me, n, node, rng })
    }

    /// Configures coordinator-counter mirroring for Round-Robin-y:
    /// servers `0..mirrors` all hold the `head`/`tail` counters, and
    /// whichever of them coordinates an update propagates the new values
    /// to the others — removing the single point of failure the paper
    /// flags in §5.4 (footnote 1 sketches exactly this generalization).
    ///
    /// Call with the same value on every engine, before any updates. A
    /// no-op for other strategies.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= mirrors <= n`.
    pub fn set_rr_mirrors(&mut self, mirrors: usize) {
        assert!(mirrors >= 1 && mirrors <= self.n, "mirrors must be in 1..=n");
        let Strategy::RoundRobin(rr) = &mut self.node.strategy else { return };
        rr.mirrors = mirrors;
        rr.coord = (self.me.index() < mirrors).then(|| rr.coord.take().unwrap_or_default());
    }

    /// The configured coordinator mirror count (1 for other strategies).
    pub fn rr_mirrors(&self) -> usize {
        self.round_robin().map_or(1, |rr| rr.mirrors)
    }

    /// This server's id.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The strategy this engine runs.
    pub fn spec(&self) -> StrategySpec {
        self.node.strategy.spec()
    }

    /// The locally stored entries (unspecified order).
    pub fn entries(&self) -> &[V] {
        self.node.store.as_slice()
    }

    /// Answers a lookup probe: `t` random local entries, or everything
    /// when fewer are stored (§3's server-side lookup behaviour), copied
    /// out — for a caller whose answer outlives its hold on the engine
    /// (the TCP server encodes after it has released the shard lock).
    pub fn sample(&mut self, t: usize) -> Vec<V> {
        self.node.store.sample(t, self.rng.get_mut())
    }

    /// [`sample`](NodeEngine::sample) by reference: the same entries in
    /// the same order from the same draws, not copied. What the
    /// in-process drivers hand to their [`LookupPlan`](crate::LookupPlan),
    /// which copies only the entries it returns. The draws are made
    /// before this returns, into `indices` past Floyd's regime.
    pub fn sample_refs<'b>(
        &self,
        t: usize,
        indices: &'b mut Vec<usize>,
    ) -> impl ExactSizeIterator<Item = &V> + use<'_, 'b, V> {
        self.rng.borrow_mut().subset_refs(self.node.store.as_slice(), t, indices)
    }

    /// Round-robin coordinator counters `(head, tail)`, if this engine
    /// holds them.
    pub fn rr_counters(&self) -> Option<(u64, u64)> {
        self.round_robin()?.coord.as_ref().map(|c| (c.head, c.tail))
    }

    /// Round-robin position map (position → entry) of the local copies,
    /// in ascending position order. Empty for non-round-robin strategies. Exposed for diagnostics and
    /// invariant checking.
    pub fn rr_positions(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.round_robin().into_iter().flat_map(|rr| rr.positions(&self.node.store))
    }

    fn round_robin(&self) -> Option<&RoundRobin<V>> {
        match &self.node.strategy {
            Strategy::RoundRobin(rr) => Some(rr),
            _ => None,
        }
    }

    /// Whether Hash-y's shared function family assigns entry `v` to
    /// server `s`. Always `false` for other strategies. Used by recovery
    /// to re-derive a rebuilt server's share of the coverage.
    pub fn assigns_to(&self, v: &V, s: ServerId) -> bool {
        matches!(&self.node.strategy, Strategy::Hash(f) if f.assigned(v).any(|to| to == s))
    }

    /// The key's current per-key version (Lamport clock) as seen by this
    /// server. Advances only through [`Message::Versioned`] traffic;
    /// unversioned (legacy / simulation) messages leave it untouched.
    pub fn version(&self) -> u64 {
        self.node.version
    }

    /// The live delete tombstones: `(entry, marker)` pairs, unordered.
    pub fn tombstones(&self) -> impl Iterator<Item = (&V, Tombstone)> + '_ {
        self.node.tombstones.iter().flat_map(|map| map.iter()).map(|(v, t)| (v, *t))
    }

    /// Number of live tombstones.
    pub fn tombstone_count(&self) -> usize {
        self.node.tombstones.as_ref().map_or(0, |map| map.len())
    }

    /// Rebuilds this server's share of the key from what its peers hold,
    /// through its own message protocol and sending nothing: the one
    /// recovery rule of the simulator's resync and of the TCP server's
    /// disk recovery, cold-start resync and anti-entropy repair.
    ///
    /// After a [`Message::Reset`], full replication and Fixed-x store
    /// `entries` (a donor's store); RandomServer-x draws a fresh
    /// `x`-subset of them (the surviving coverage); Hash-y keeps those
    /// its family assigns here. Round-Robin-y stores the `positions`
    /// whose `y` holders include this server, and a counter holder
    /// adopts `counters`, else the span of `positions`.
    pub fn rebuild(
        &mut self,
        entries: Vec<V>,
        positions: BTreeMap<u64, V>,
        counters: Option<(u64, u64)>,
    ) {
        let from = Endpoint::Server(self.me);
        self.handle(from, Message::Reset);
        match self.spec() {
            StrategySpec::FullReplication | StrategySpec::Fixed { .. } => {
                self.handle(from, Message::StoreSet { entries });
            }
            StrategySpec::RandomServer { x } => {
                self.handle(from, Message::ChooseSubset { entries, x });
            }
            StrategySpec::Hash { .. } => {
                for v in entries {
                    if self.assigns_to(&v, self.me) {
                        self.handle(from, Message::Store { v });
                    }
                }
            }
            StrategySpec::RoundRobin { y } => {
                if self.rr_counters().is_some() {
                    let span = positions.first_key_value().zip(positions.last_key_value());
                    let (head, tail) = counters
                        .or(span.map(|((lo, _), (hi, _))| (*lo, hi + 1)))
                        .unwrap_or_default();
                    self.handle(from, Message::RrSetCounters { head, tail });
                }
                for (pos, v) in positions {
                    if holders(pos, y, self.n).any(|s| s == self.me) {
                        self.handle(from, Message::RrStore { v, pos });
                    }
                }
            }
        }
    }

    /// Restores version/tombstone metadata after a recovery rebuild.
    ///
    /// [`NodeEngine::rebuild`] starts from [`Message::Reset`] (which
    /// clears tombstones) and replays the donor entries; call this after
    /// it with the merged donor metadata. The version only moves forward; a tombstone for an
    /// entry the rebuilt store deliberately kept is dropped (the caller
    /// decided the entry is live) — except under Round-Robin-y, where a
    /// holder of one entry at two positions keeps the tombstone of a
    /// deleted copy beside the surviving one, live and rebuilt alike.
    pub fn set_version_meta(
        &mut self,
        version: u64,
        tombstones: impl IntoIterator<Item = (V, Tombstone)>,
    ) {
        self.node.version = self.node.version.max(version);
        let mut tombstones: HashMap<V, Tombstone> = tombstones.into_iter().collect();
        if !matches!(self.node.strategy, Strategy::RoundRobin(_)) {
            tombstones.retain(|v, _| !self.node.store.contains(v));
        }
        self.node.tombstones = (!tombstones.is_empty()).then(|| Box::new(tombstones));
    }

    /// Garbage-collects tombstones born at or before `cutoff_ms`
    /// (coordinator wall-clock); returns how many were dropped. Legacy
    /// tombstones with an unknown birth time (`born_ms == 0`) are always
    /// eligible.
    pub fn gc_tombstones(&mut self, cutoff_ms: u64) -> usize {
        let Some(tombstones) = &mut self.node.tombstones else { return 0 };
        let before = tombstones.len();
        tombstones.retain(|_, t| t.born_ms > cutoff_ms);
        let dropped = before - tombstones.len();
        self.node.tombstones.take_if(|map| map.is_empty());
        dropped
    }

    /// Processes one inbound message, returning the outbound messages
    /// this server wants delivered (in order). Allocates the returned
    /// `Vec`; a caller that handles many messages keeps one buffer and
    /// calls [`NodeEngine::handle_into`], which allocates nothing of its
    /// own.
    pub fn handle(&mut self, from: Endpoint, msg: Message<V>) -> Vec<Outbound<V>> {
        let mut out = Vec::new();
        self.handle_into(from, Cow::Owned(msg), &mut out);
        out
    }

    /// Processes one inbound message, appending the outbound messages
    /// this server wants delivered (in order) to `out`. Whatever `out`
    /// already holds is left alone. A lent message and a given one do the
    /// same to this server and draw the same from its stream; of a lent
    /// one, only the entries this server keeps or sends on are copied.
    pub fn handle_into(
        &mut self,
        from: Endpoint,
        msg: Cow<'_, Message<V>>,
        out: &mut Vec<Outbound<V>>,
    ) {
        match msg {
            Cow::Owned(Message::Versioned { version, stamp_ms, msg }) => {
                self.on_versioned(from, version, stamp_ms, Cow::Owned(*msg), out)
            }
            Cow::Borrowed(Message::Versioned { version, stamp_ms, msg }) => {
                self.on_versioned(from, *version, *stamp_ms, Cow::Borrowed(&**msg), out)
            }
            other => self.dispatch(from, other, None, out),
        }
    }

    /// [`Message::Versioned`] handling: client updates get the key's
    /// next version assigned here (the carried value is ignored — the
    /// coordinator is the authority); internal messages advance the
    /// local clock to the carried version. Every outbound message is
    /// re-wrapped with the operation's version so it propagates through
    /// multi-hop protocols (e.g. the Fig. 11 migration chain).
    fn on_versioned(
        &mut self,
        from: Endpoint,
        version: u64,
        stamp_ms: u64,
        inner: Cow<'_, Message<V>>,
        out: &mut Vec<Outbound<V>>,
    ) {
        if matches!(*inner, Message::Versioned { .. }) {
            return; // nested envelopes are a protocol violation
        }
        let is_update = matches!(
            *inner,
            Message::PlaceReq { .. } | Message::AddReq { .. } | Message::DeleteReq { .. }
        );
        let version = if is_update { self.node.version + 1 } else { version };
        if !is_update {
            self.node.version = self.node.version.max(version);
        }
        let start = out.len();
        self.dispatch(from, inner, Some((version, stamp_ms)), out);
        if is_update {
            if out.len() == start {
                // The update was a protocol-level no-op (e.g. Fixed-x
                // suppressing a broadcast): nothing propagates, so the
                // version must not advance either, or the cluster would
                // look permanently stale.
                return;
            }
            self.node.version = self.node.version.max(version);
        }
        for o in &mut out[start..] {
            let (Outbound::To(_, m) | Outbound::Broadcast(m)) = o;
            let msg = Box::new(std::mem::replace(m, Message::Reset));
            *m = Message::Versioned { version, stamp_ms, msg };
        }
    }

    /// Tombstone bookkeeping for one versioned message, applied before
    /// the strategy logic runs: delete-type messages record a marker,
    /// store-type messages supersede any marker for the same entry, and
    /// full-overwrite messages wipe the slate.
    fn note_version_effects(&mut self, msg: &Message<V>, version: u64, stamp_ms: u64) {
        match msg {
            Message::Remove { v } | Message::CountedRemove { v } | Message::RrRemove { v, .. } => {
                let t = self
                    .node
                    .tombstones
                    .get_or_insert_default()
                    .entry(v.clone())
                    .or_insert(Tombstone { version: 0, born_ms: 0 });
                if version >= t.version {
                    *t = Tombstone { version, born_ms: stamp_ms };
                }
            }
            Message::Store { v } | Message::SampledStore { v, .. } | Message::RrStore { v, .. } => {
                self.clear_tombstone(v, version)
            }
            Message::MigrateRep { replacement: Some(u), .. } => self.clear_tombstone(u, version),
            Message::StoreSet { .. } | Message::ChooseSubset { .. } => self.node.tombstones = None,
            _ => {}
        }
    }

    fn clear_tombstone(&mut self, v: &V, version: u64) {
        let Some(tombstones) = &mut self.node.tombstones else { return };
        if tombstones.get(v).is_some_and(|t| version >= t.version) {
            tombstones.remove(v);
        }
    }

    /// Every arm reads the message where it is; the arms that keep the
    /// entry or send it on take it with [`entry_of`] / [`entries_of`],
    /// which copy only out of a message that was lent.
    ///
    /// A server's store is written either by position (Round-Robin-y) or
    /// directly (the other four), never both: a message of the other
    /// family finds no state of its kind here and is ignored, so the
    /// positions always describe the whole store.
    fn dispatch(
        &mut self,
        from: Endpoint,
        msg: Cow<'_, Message<V>>,
        version_ctx: Option<(u64, u64)>,
        out: &mut Vec<Outbound<V>>,
    ) {
        if let Some((version, stamp_ms)) = version_ctx {
            self.note_version_effects(&msg, version, stamp_ms);
        }
        let store = &mut self.node.store;
        match (&mut self.node.strategy, &*msg) {
            (_, Message::Versioned { .. }) => {} // unreachable: handled above
            (_, Message::PlaceReq { .. }) => self.on_place_req(entries_of(msg), out),
            (_, Message::AddReq { .. }) => self.on_add_req(entry_of(msg), out),
            (_, Message::DeleteReq { .. }) => self.on_delete_req(entry_of(msg), out),
            (strategy, Message::Reset) => {
                *store = IndexedSet::new();
                self.node.tombstones = None;
                match strategy {
                    Strategy::RandomServer { local_h, .. } => *local_h = 0,
                    Strategy::RoundRobin(rr) => rr.reset(),
                    _ => {}
                }
            }
            (Strategy::RoundRobin(rr), m) => match m {
                Message::RrInit { h } => rr.coord = Some(RrCoord { head: 0, tail: *h }),
                Message::RrSetCounters { head, tail } => {
                    rr.coord = Some(RrCoord { head: *head, tail: *tail })
                }
                Message::RrStore { pos, .. } => rr.insert(store, *pos, entry_of(msg)),
                Message::RrRemove { .. } => self.on_rr_remove(msg, out),
                Message::MigrateReq { dest_pos, .. } => {
                    rr.on_migrate_req(self.n, from, *dest_pos, entry_of(msg), out)
                }
                Message::MigrateRep { .. } => {
                    if let Message::MigrateRep { dest_pos, replacement: Some(u), .. } =
                        msg.into_owned()
                    {
                        rr.insert(store, dest_pos, u);
                    }
                }
                Message::RrRemoveAt { pos } => {
                    rr.remove_at(store, *pos);
                }
                _ => {} // a message of the direct family
            },
            (_, Message::StoreSet { .. }) => {
                store.clear();
                store.extend(entries_of(msg));
            }
            (strategy, Message::ChooseSubset { entries, x }) => {
                let subset = self.rng.get_mut().subset(entries, *x);
                store.clear();
                store.extend(subset);
                if let Strategy::RandomServer { local_h, .. } = strategy {
                    *local_h = entries.len() as u64;
                }
            }
            (_, Message::Store { .. }) => {
                store.insert(entry_of(msg));
            }
            (_, Message::Remove { v }) => {
                store.remove(v);
            }
            (Strategy::RandomServer { local_h, .. }, Message::SampledStore { x, .. }) => {
                // Vitter's reservoir step (§5.3): count the newcomer, keep it
                // with probability x/h in place of a random incumbent. Decided
                // before the newcomer is copied.
                *local_h += 1;
                let rng = self.rng.get_mut();
                if store.len() >= *x {
                    if !rng.coin_flip(*x as f64 / *local_h as f64) {
                        return;
                    }
                    store.remove_random(rng);
                }
                store.insert(entry_of(msg));
            }
            (strategy, Message::CountedRemove { v }) => {
                if let Strategy::RandomServer { local_h, .. } = strategy {
                    *local_h = local_h.saturating_sub(1);
                }
                store.remove(v);
            }
            // The other family's messages, and a SampledStore where no
            // reservoir count is kept.
            _ => {}
        }
    }

    fn on_place_req(&self, entries: Vec<V>, out: &mut Vec<Outbound<V>>) {
        match &self.node.strategy {
            Strategy::FullReplication => {
                out.push(Outbound::Broadcast(Message::StoreSet { entries }))
            }
            Strategy::Fixed { x } => {
                let mut entries = entries;
                entries.truncate(*x);
                out.push(Outbound::Broadcast(Message::StoreSet { entries }))
            }
            Strategy::RandomServer { x, .. } => {
                out.push(Outbound::Broadcast(Message::ChooseSubset { entries, x: *x }))
            }
            Strategy::RoundRobin(rr) => {
                let y = rr.y;
                out.reserve(entries.len() * y + 1 + rr.mirrors);
                out.push(Outbound::Broadcast(Message::Reset));
                for mirror in 0..rr.mirrors {
                    out.push(Outbound::To(
                        ServerId::new(mirror as u32),
                        Message::RrInit { h: entries.len() as u64 },
                    ));
                }
                for (i, v) in entries.into_iter().enumerate() {
                    let pos = i as u64;
                    send_copies(out, holders(pos, y, self.n), v, |v| Message::RrStore { v, pos });
                }
            }
            Strategy::Hash(family) => {
                out.reserve(entries.len() * family.y() + 1);
                out.push(Outbound::Broadcast(Message::Reset));
                for v in entries {
                    send_copies(out, family.assigned(&v), v, |v| Message::Store { v });
                }
            }
        }
    }

    /// A Round-Robin update runs at a server that holds the counters; at
    /// any other it is not this server's to run, and sends nothing.
    fn on_add_req(&mut self, v: V, out: &mut Vec<Outbound<V>>) {
        match &mut self.node.strategy {
            Strategy::FullReplication => out.push(Outbound::Broadcast(Message::Store { v })),
            Strategy::Fixed { x } => {
                // Selective broadcast (§5.2): only while the shared subset
                // is below x; all servers are identical, so the local view
                // decides.
                if self.node.store.len() < *x {
                    out.push(Outbound::Broadcast(Message::Store { v }));
                }
            }
            Strategy::RandomServer { x, .. } => {
                out.push(Outbound::Broadcast(Message::SampledStore { v, x: *x }))
            }
            Strategy::RoundRobin(rr) => {
                let Some(coord) = &mut rr.coord else { return };
                let pos = coord.tail;
                coord.tail += 1;
                send_copies(out, holders(pos, rr.y, self.n), v, |v| Message::RrStore { v, pos });
                rr.sync_counters(self.me, out);
            }
            Strategy::Hash(family) => {
                send_copies(out, family.assigned(&v), v, |v| Message::Store { v })
            }
        }
    }

    fn on_delete_req(&mut self, v: V, out: &mut Vec<Outbound<V>>) {
        match &mut self.node.strategy {
            Strategy::FullReplication => out.push(Outbound::Broadcast(Message::Remove { v })),
            Strategy::Fixed { .. } => {
                // Selective broadcast: only if the entry is actually among
                // the shared stored entries (§5.2).
                if self.node.store.contains(&v) {
                    out.push(Outbound::Broadcast(Message::Remove { v }));
                }
            }
            Strategy::RandomServer { .. } => {
                out.push(Outbound::Broadcast(Message::CountedRemove { v }))
            }
            Strategy::RoundRobin(rr) => {
                let Some(coord) = &mut rr.coord else { return };
                if coord.head == coord.tail {
                    return; // nothing live to delete
                }
                let head_pos = coord.head;
                coord.head += 1;
                out.push(Outbound::Broadcast(Message::RrRemove { v, head_pos }));
                rr.sync_counters(self.me, out);
            }
            Strategy::Hash(family) => {
                send_copies(out, family.assigned(&v), v, |v| Message::Remove { v })
            }
        }
    }

    /// Fig. 11 `remove(v, head)`: drop the local copy of `v`; if this is
    /// the head server, prepare the replacement context; droppers ask the
    /// head server to migrate the replacement into the hole.
    ///
    /// A server that neither held `v` nor is the head server is done after
    /// one probe of its store, with the broadcast it was lent untouched.
    fn on_rr_remove(&mut self, msg: Cow<'_, Message<V>>, out: &mut Vec<Outbound<V>>) {
        let (Message::RrRemove { v, head_pos }, Strategy::RoundRobin(rr)) =
            (&*msg, &mut self.node.strategy)
        else {
            return;
        };
        let (store, head_pos) = (&mut self.node.store, *head_pos);
        let head_server = ServerId::new((head_pos % self.n as u64) as u32);
        if self.me != head_server {
            if let Some(dest_pos) = rr.remove_entry(store, v) {
                let v = entry_of(msg);
                out.push(Outbound::To(head_server, Message::MigrateReq { v, dest_pos }));
            }
            return;
        }
        // When the deleted entry *is* the head entry there is no hole to
        // plug: copies just vanish and head has already advanced.
        let replacement = rr.entry_at(store, head_pos).filter(|u| *u != v).cloned();
        let state = MigrationState { remaining: rr.y, replacement, old_pos: head_pos };
        let held_at = rr.remove_entry(store, v);
        // Migration requests that raced ahead of this broadcast (possible
        // over unordered transports) are replayed now.
        let pending = rr.pending_migrations.remove(v);
        let v = entry_of(msg);
        if held_at.is_none() && pending.is_none() {
            rr.migrations.insert(v, state); // nothing else names `v`
            return;
        }
        rr.migrations.insert(v.clone(), state);
        for (requester, dest_pos) in pending.into_iter().flatten() {
            rr.on_migrate_req(self.n, Endpoint::Server(requester), dest_pos, v.clone(), out);
        }
        if let Some(dest_pos) = held_at {
            out.push(Outbound::To(head_server, Message::MigrateReq { v, dest_pos }));
        }
    }
}

/// The `y` consecutive servers of `n` that hold round-robin position `pos`.
fn holders(pos: u64, y: usize, n: usize) -> impl Iterator<Item = ServerId> {
    let first = ServerId::new((pos % n as u64) as u32);
    (0..y).map(move |k| first.wrapping_add(k, n))
}

impl<V: Entry> RoundRobin<V> {
    /// Queues the messages that propagate this mirror's counters to its
    /// peers.
    fn sync_counters(&self, me: ServerId, out: &mut Vec<Outbound<V>>) {
        let Some(RrCoord { head, tail }) = self.coord else { return };
        out.extend(
            (0..self.mirrors).filter(|&i| i != me.index()).map(|i| {
                Outbound::To(ServerId::new(i as u32), Message::RrSetCounters { head, tail })
            }),
        );
    }

    /// Fig. 11 `migrate(v)` at the head server of `n`: hand out the
    /// replacement, and once all `y` holders have migrated, retire the
    /// replacement's old copies.
    fn on_migrate_req(
        &mut self,
        n: usize,
        from: Endpoint,
        dest_pos: u64,
        v: V,
        out: &mut Vec<Outbound<V>>,
    ) {
        let requester = from.as_server().expect("migrations come from servers");

        let Some(state) = self.migrations.get_mut(&v) else {
            // No context yet: either this request raced ahead of our own
            // copy of the RrRemove broadcast (buffer and replay), or it is
            // truly stale. The buffer is bounded; stale leftovers are
            // overwritten by the next migration of the same entry.
            let pending = self.pending_migrations.entry(v).or_default();
            if pending.len() < n {
                pending.push((requester, dest_pos));
            }
            return;
        };
        state.remaining = state.remaining.saturating_sub(1);
        if state.remaining > 0 {
            let replacement = state.replacement.clone();
            out.push(Outbound::To(requester, Message::MigrateRep { v, dest_pos, replacement }));
            return;
        }
        // All migrations answered: the context's own copy of the
        // replacement leaves with the last reply, and the replacement's
        // old copies are removed by position, so the new copies survive on
        // overlapping servers.
        let state = self.migrations.remove(&v).expect("context looked up above");
        let retire = state.replacement.is_some();
        out.push(Outbound::To(
            requester,
            Message::MigrateRep { v, dest_pos, replacement: state.replacement },
        ));
        if retire {
            let old_pos = state.old_pos;
            out.extend(
                holders(old_pos, self.y, n)
                    .map(|dest| Outbound::To(dest, Message::RrRemoveAt { pos: old_pos })),
            );
        }
    }
}

/// The one entry `msg` carries: its own when the message was given, a copy
/// when it was lent.
///
/// # Panics
///
/// Panics on a message that carries none, or a list.
fn entry_of<V: Entry>(msg: Cow<'_, Message<V>>) -> V {
    match msg.into_owned() {
        Message::AddReq { v }
        | Message::DeleteReq { v }
        | Message::Store { v }
        | Message::SampledStore { v, .. }
        | Message::RrStore { v, .. }
        | Message::RrRemove { v, .. }
        | Message::MigrateReq { v, .. } => v,
        other => unreachable!("not a one-entry message: {other:?}"),
    }
}

/// The entry list `msg` carries, as [`entry_of`] its one entry.
fn entries_of<V: Entry>(msg: Cow<'_, Message<V>>) -> Vec<V> {
    match msg.into_owned() {
        Message::PlaceReq { entries } | Message::StoreSet { entries } => entries,
        other => unreachable!("not an entry-list message: {other:?}"),
    }
}

/// Queues `msg(v)` for each destination in order: a copy of `v` for all
/// but the last, which gets the original.
fn send_copies<V: Entry>(
    out: &mut Vec<Outbound<V>>,
    dests: impl IntoIterator<Item = ServerId>,
    v: V,
    msg: impl Fn(V) -> Message<V>,
) {
    let mut dests = dests.into_iter().peekable();
    while let Some(dest) = dests.next() {
        if dests.peek().is_none() {
            out.push(Outbound::To(dest, msg(v)));
            return;
        }
        out.push(Outbound::To(dest, msg(v.clone())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<V: Entry> NodeEngine<V> {
        /// Whether the tombstone box is allocated, empty or not.
        pub(crate) fn holds_tombstones(&self) -> bool {
            self.node.tombstones.is_some()
        }
    }

    #[test]
    fn engines_share_hash_family_but_not_rng() {
        let mut a: NodeEngine<u64> =
            NodeEngine::new(0.into(), 4, StrategySpec::hash(2), 9).unwrap();
        let b: NodeEngine<u64> = NodeEngine::new(1.into(), 4, StrategySpec::hash(2), 9).unwrap();
        // Same family: an add handled at either server targets the same
        // destinations.
        let out_a = a.handle(Endpoint::client(0), Message::AddReq { v: 42 });
        let mut a2: NodeEngine<u64> =
            NodeEngine::new(1.into(), 4, StrategySpec::hash(2), 9).unwrap();
        let out_b = a2.handle(Endpoint::client(0), Message::AddReq { v: 42 });
        assert_eq!(out_a, out_b);
        drop(b);
    }

    #[test]
    fn out_of_range_server_id_rejected() {
        let err = NodeEngine::<u64>::new(5.into(), 4, StrategySpec::fixed(2), 0).unwrap_err();
        assert_eq!(err, ConfigError::InvalidParameter("server id out of range"));
    }

    #[test]
    fn only_server_zero_gets_coordinator() {
        let e0: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::round_robin(2), 1).unwrap();
        let e1: NodeEngine<u64> =
            NodeEngine::new(1.into(), 3, StrategySpec::round_robin(2), 1).unwrap();
        assert_eq!(e0.rr_counters(), Some((0, 0)));
        assert_eq!(e1.rr_counters(), None);
    }

    #[test]
    fn reservoir_keeps_a_uniform_subset_under_adds() {
        // Vitter's guarantee: after placing x entries and streaming in
        // adds (no deletes), the kept x-subset is uniform over everything
        // seen. Check per-entry membership frequency across many seeds:
        // each of the h entries should be kept with probability x/h.
        let x = 5;
        let h = 40u64;
        let trials = 3000;
        let mut kept_counts = vec![0u32; h as usize];
        for seed in 0..trials {
            let mut e: NodeEngine<u64> =
                NodeEngine::new(0.into(), 1, StrategySpec::random_server(x), seed).unwrap();
            e.handle(
                Endpoint::client(0),
                Message::ChooseSubset { entries: (0..x as u64).collect(), x },
            );
            for v in x as u64..h {
                e.handle(Endpoint::client(0), Message::SampledStore { v, x });
            }
            for v in e.entries() {
                kept_counts[*v as usize] += 1;
            }
        }
        let expected = trials as f64 * x as f64 / h as f64; // 375
        for (v, &count) in kept_counts.iter().enumerate() {
            let deviation = (count as f64 - expected).abs() / expected;
            assert!(
                deviation < 0.18,
                "entry {v} kept {count} times vs expected {expected:.0} (deviation {deviation:.2})"
            );
        }
    }

    #[test]
    fn migrate_request_racing_ahead_of_rr_remove_is_buffered() {
        // Over TCP, server 2's MigrateReq can reach the head server before
        // the head server's own copy of the RrRemove broadcast. The head
        // must buffer it and answer once the context exists.
        let n = 4;
        let y = 2;
        let mut head: NodeEngine<u64> =
            NodeEngine::new(0.into(), n, StrategySpec::round_robin(y), 3).unwrap();
        // Entry 10 at head position 0 (servers 0,1); entry 30 at position
        // 2 (servers 2,3).
        head.handle(Endpoint::client(0), Message::RrStore { v: 10, pos: 0 });
        head.handle(Endpoint::client(0), Message::RrInit { h: 4 });

        // The racing request arrives first: no reply yet.
        let early = head
            .handle(Endpoint::Server(ServerId::new(2)), Message::MigrateReq { v: 30, dest_pos: 2 });
        assert!(early.is_empty());

        // Now the head's own RrRemove lands: the buffered request is
        // answered with the head entry as replacement.
        let out = head
            .handle(Endpoint::Server(ServerId::new(0)), Message::RrRemove { v: 30, head_pos: 0 });
        assert!(
            out.contains(&Outbound::To(
                ServerId::new(2),
                Message::MigrateRep { v: 30, dest_pos: 2, replacement: Some(10) },
            )),
            "buffered request not replayed: {out:?}"
        );

        // The second (in-order) request completes the migration and
        // retires the replacement's old copies.
        let out = head
            .handle(Endpoint::Server(ServerId::new(3)), Message::MigrateReq { v: 30, dest_pos: 2 });
        assert!(out.contains(&Outbound::To(
            ServerId::new(3),
            Message::MigrateRep { v: 30, dest_pos: 2, replacement: Some(10) },
        )));
        assert!(out.contains(&Outbound::To(ServerId::new(0), Message::RrRemoveAt { pos: 0 })));
        assert!(out.contains(&Outbound::To(ServerId::new(1), Message::RrRemoveAt { pos: 0 })));
    }

    #[test]
    fn a_server_that_does_not_hold_the_entry_clones_nothing_to_learn_it() {
        use crate::collections::tests::{clones, Counted};
        // Server 2 of 4 holds positions 1 and 2 (y = 2); the head position
        // 0 lives on servers 0 and 1.
        let mut e: NodeEngine<Counted> =
            NodeEngine::new(2.into(), 4, StrategySpec::round_robin(2), 3).unwrap();
        let mut out = Vec::new();
        for pos in [1, 2] {
            e.handle_into(
                Endpoint::Server(ServerId::new(0)),
                Cow::Owned(Message::RrStore { v: Counted(pos), pos }),
                &mut out,
            );
        }
        let before = clones();
        e.handle_into(
            Endpoint::Server(ServerId::new(0)),
            Cow::Owned(Message::RrRemove { v: Counted(99), head_pos: 0 }),
            &mut out,
        );
        assert!(out.is_empty(), "nothing to migrate: {out:?}");
        // A holder moves the entry it was sent into its migrate request.
        e.handle_into(
            Endpoint::Server(ServerId::new(0)),
            Cow::Owned(Message::RrRemove { v: Counted(2), head_pos: 0 }),
            &mut out,
        );
        assert_eq!(
            out,
            [Outbound::To(ServerId::new(0), Message::MigrateReq { v: Counted(2), dest_pos: 2 })]
        );
        assert_eq!(clones(), before);
        assert_eq!(e.entries(), [Counted(1)]);
    }

    #[test]
    fn handle_into_appends_and_rewraps_only_its_own_messages() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::round_robin(2), 4).unwrap();
        let mut out = vec![Outbound::Broadcast(Message::Reset)];
        let add = Cow::Owned(versioned(Message::AddReq { v: 7 }, 5));
        e.handle_into(Endpoint::client(0), add, &mut out);
        let wrapped = |msg| Message::Versioned { version: 1, stamp_ms: 5, msg: Box::new(msg) };
        assert_eq!(
            out,
            [
                Outbound::Broadcast(Message::Reset),
                Outbound::To(ServerId::new(0), wrapped(Message::RrStore { v: 7, pos: 0 })),
                Outbound::To(ServerId::new(1), wrapped(Message::RrStore { v: 7, pos: 0 })),
            ]
        );
    }

    #[test]
    fn messages_of_the_other_store_family_are_ignored() {
        // A round-robin server's store is written by position only...
        let mut rr: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::round_robin(2), 4).unwrap();
        rr.handle(Endpoint::client(0), Message::RrStore { v: 1, pos: 0 });
        for foreign in [
            Message::Store { v: 2 },
            Message::Remove { v: 1 },
            Message::StoreSet { entries: vec![3] },
            Message::ChooseSubset { entries: vec![4], x: 1 },
            Message::SampledStore { v: 5, x: 9 },
            Message::CountedRemove { v: 1 },
        ] {
            assert!(rr.handle(Endpoint::Server(ServerId::new(1)), foreign).is_empty());
        }
        assert_eq!(rr.entries(), [1]);
        assert_eq!(rr.rr_positions().collect::<Vec<_>>(), [(0, &1)]);
        // ... and the other strategies keep no positions.
        let mut full: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::full_replication(), 4).unwrap();
        full.handle(Endpoint::client(0), Message::Store { v: 1 });
        for foreign in [
            Message::RrStore { v: 2, pos: 0 },
            Message::MigrateRep { v: 9, dest_pos: 1, replacement: Some(3) },
            Message::RrRemoveAt { pos: 0 },
            Message::RrRemove { v: 1, head_pos: 0 },
            Message::MigrateReq { v: 1, dest_pos: 0 },
        ] {
            assert!(full.handle(Endpoint::Server(ServerId::new(1)), foreign).is_empty());
        }
        assert_eq!(full.entries(), [1]);
        assert_eq!(full.rr_positions().count(), 0);
    }

    #[test]
    fn round_robin_messages_leave_other_strategies_untouched() {
        let from = Endpoint::Server(ServerId::new(1));
        for spec in [
            StrategySpec::full_replication(),
            StrategySpec::fixed(3),
            StrategySpec::random_server(3),
            StrategySpec::hash(2),
        ] {
            let mut e: NodeEngine<u64> = NodeEngine::new(0.into(), 4, spec, 12).unwrap();
            e.handle(from, Message::StoreSet { entries: vec![1, 2, 3] });
            let before = (e.entries().to_vec(), e.version());
            let mut out = Vec::new();
            for msg in [
                Message::RrInit { h: 5 },
                Message::RrSetCounters { head: 1, tail: 6 },
                Message::RrStore { v: 7, pos: 0 },
                Message::RrRemove { v: 1, head_pos: 0 },
                Message::MigrateReq { v: 2, dest_pos: 1 },
                Message::MigrateRep { v: 3, dest_pos: 2, replacement: Some(8) },
                Message::RrRemoveAt { pos: 0 },
            ] {
                e.handle_into(from, Cow::Owned(msg), &mut out);
            }
            e.set_rr_mirrors(2);
            assert_eq!((e.entries().to_vec(), e.version()), before, "{spec}");
            assert_eq!(e.rr_positions().count(), 0, "{spec}");
            assert_eq!(e.rr_counters(), None, "{spec}: a counter message installed counters");
            assert!(out.is_empty(), "{spec}: {out:?}");
        }
    }

    #[test]
    fn an_update_that_finds_no_state_to_run_on_sends_nothing() {
        // A Round-Robin update at a server that holds no counters...
        let mut rr: NodeEngine<u64> =
            NodeEngine::new(1.into(), 3, StrategySpec::round_robin(2), 4).unwrap();
        for msg in [Message::AddReq { v: 1 }, Message::DeleteReq { v: 1 }] {
            assert!(rr.handle(Endpoint::client(0), versioned(msg, 1)).is_empty());
        }
        assert_eq!((rr.version(), rr.rr_counters()), (0, None));
        // ... and a reservoir store where no reservoir count is kept.
        let mut full: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::full_replication(), 4).unwrap();
        assert!(full.handle(Endpoint::client(0), Message::SampledStore { v: 1, x: 5 }).is_empty());
        assert!(full.entries().is_empty());
    }

    #[test]
    fn an_engine_carries_only_its_own_strategy_state() {
        for (entry, size) in [
            ("Vec<u8>", std::mem::size_of::<NodeEngine<Vec<u8>>>()),
            ("u64", std::mem::size_of::<NodeEngine<u64>>()),
        ] {
            assert!(
                size <= 176,
                "NodeEngine<{entry}> is {size} bytes, over the 176 of DESIGN.md §11 \
                 (per-key footprint): a directory pays every byte of an engine n times per key"
            );
        }
    }

    #[test]
    fn rr_set_counters_overrides_init() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::round_robin(2), 5).unwrap();
        e.handle(Endpoint::client(0), Message::RrInit { h: 10 });
        assert_eq!(e.rr_counters(), Some((0, 10)));
        e.handle(Endpoint::client(0), Message::RrSetCounters { head: 4, tail: 17 });
        assert_eq!(e.rr_counters(), Some((4, 17)));
    }

    #[test]
    fn mirrored_add_emits_counter_sync() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(1.into(), 4, StrategySpec::round_robin(2), 6).unwrap();
        e.set_rr_mirrors(2);
        assert_eq!(e.rr_mirrors(), 2);
        e.handle(Endpoint::client(0), Message::RrSetCounters { head: 0, tail: 5 });
        let out = e.handle(Endpoint::client(0), Message::AddReq { v: 9 });
        // Two RrStore destinations plus one counter sync to mirror 0.
        assert!(out.contains(&Outbound::To(
            ServerId::new(0),
            Message::RrSetCounters { head: 0, tail: 6 }
        )));
        let stores =
            out.iter().filter(|o| matches!(o, Outbound::To(_, Message::RrStore { .. }))).count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn unmirrored_updates_emit_no_counter_sync() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 4, StrategySpec::round_robin(2), 7).unwrap();
        e.handle(Endpoint::client(0), Message::RrInit { h: 0 });
        let out = e.handle(Endpoint::client(0), Message::AddReq { v: 1 });
        assert!(
            !out.iter().any(|o| matches!(o, Outbound::To(_, Message::RrSetCounters { .. }))),
            "single-coordinator mode must not sync counters: {out:?}"
        );
    }

    #[test]
    fn set_rr_mirrors_is_noop_for_other_strategies() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 4, StrategySpec::hash(2), 8).unwrap();
        e.set_rr_mirrors(3);
        assert_eq!(e.rr_mirrors(), 1);
        assert_eq!(e.rr_counters(), None);
    }

    #[test]
    #[should_panic(expected = "mirrors must be in 1..=n")]
    fn zero_mirrors_rejected() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 4, StrategySpec::round_robin(2), 9).unwrap();
        e.set_rr_mirrors(0);
    }

    #[test]
    fn assigns_to_matches_actual_placement() {
        let n = 6;
        let engines: Vec<NodeEngine<u64>> = (0..n)
            .map(|i| NodeEngine::new(ServerId::new(i as u32), n, StrategySpec::hash(2), 10))
            .collect::<Result<_, _>>()
            .unwrap();
        for v in 0..50u64 {
            let assigned: Vec<usize> =
                (0..n).filter(|&i| engines[0].assigns_to(&v, ServerId::new(i as u32))).collect();
            assert!(!assigned.is_empty() && assigned.len() <= 2, "entry {v}: {assigned:?}");
            // Every engine agrees on the assignment (shared family).
            for e in &engines {
                let theirs: Vec<usize> =
                    (0..n).filter(|&i| e.assigns_to(&v, ServerId::new(i as u32))).collect();
                assert_eq!(theirs, assigned, "entry {v}");
            }
        }
    }

    /// A message of any kind, about a few entries and positions so that
    /// most of them meet state an earlier one left.
    fn any_message(rng: &mut DetRng) -> Message<u64> {
        let v = rng.below(24) as u64;
        let pos = rng.below(16) as u64;
        let entries = |rng: &mut DetRng| (0..rng.below(14)).map(|_| rng.below(24) as u64).collect();
        let msg = match rng.below(60) {
            0 => Message::Reset,
            1 => Message::PlaceReq { entries: entries(rng) },
            2 => Message::StoreSet { entries: entries(rng) },
            3 => Message::ChooseSubset { entries: entries(rng), x: 5 },
            4 => Message::RrInit { h: pos },
            5 => Message::RrSetCounters { head: pos.min(8), tail: 8 + pos },
            6..=9 => Message::AddReq { v },
            10..=13 => Message::DeleteReq { v },
            14..=17 => Message::Store { v },
            18..=21 => Message::Remove { v },
            22..=29 => Message::SampledStore { v, x: 5 },
            30..=33 => Message::CountedRemove { v },
            34..=41 => Message::RrStore { v, pos },
            42..=47 => Message::RrRemove { v, head_pos: pos },
            48..=52 => Message::MigrateReq { v, dest_pos: pos },
            53..=55 => {
                let replacement = (pos >= 5).then_some(rng.below(24) as u64);
                Message::MigrateRep { v, dest_pos: pos, replacement }
            }
            _ => Message::RrRemoveAt { pos },
        };
        match rng.below(4) {
            0 => Message::Versioned {
                version: rng.below(9) as u64,
                stamp_ms: pos,
                msg: Box::new(if rng.below(20) == 0 { versioned(msg, 3) } else { msg }),
            },
            _ => msg,
        }
    }

    #[test]
    fn a_lent_message_does_what_a_given_one_does() {
        for spec in [
            StrategySpec::full_replication(),
            StrategySpec::fixed(5),
            StrategySpec::random_server(5),
            StrategySpec::round_robin(2),
            StrategySpec::hash(2),
        ] {
            // Server 0 of four: Round-Robin's coordinator, and the head
            // server of every fourth position.
            let mut given: NodeEngine<u64> = NodeEngine::new(0.into(), 4, spec, 21).unwrap();
            let mut lent = given.clone();
            let mut rng = DetRng::seed_from(22);
            let (mut out_given, mut out_lent) = (Vec::new(), Vec::new());
            let mut sent = 0;
            for step in 0..3_000 {
                let from = Endpoint::Server(ServerId::new(rng.below(4) as u32));
                let msg = any_message(&mut rng);
                lent.handle_into(from, Cow::Borrowed(&msg), &mut out_lent);
                given.handle_into(from, Cow::Owned(msg.clone()), &mut out_given);
                assert_eq!(out_lent, out_given, "{spec} step {step}: {msg:?}");
                sent += out_given.len();
                out_given.clear();
                out_lent.clear();
                let (a, b) = (&given.node, &lent.node);
                assert_eq!(a.store.as_slice(), b.store.as_slice(), "{spec} step {step}: {msg:?}");
                assert!(given.rr_positions().eq(lent.rr_positions()), "{spec} step {step}");
                assert_eq!(
                    (a.version, &a.tombstones),
                    (b.version, &b.tombstones),
                    "{spec} step {step}: {msg:?}"
                );
                match (&a.strategy, &b.strategy) {
                    (
                        Strategy::RandomServer { local_h: ha, .. },
                        Strategy::RandomServer { local_h: hb, .. },
                    ) => assert_eq!(ha, hb, "{spec} step {step}: {msg:?}"),
                    (Strategy::RoundRobin(ra), Strategy::RoundRobin(rb)) => {
                        assert_eq!(ra.coord, rb.coord, "{spec} step {step}: {msg:?}");
                        assert_eq!(ra.migrations, rb.migrations, "{spec} step {step}: {msg:?}");
                        assert_eq!(
                            ra.pending_migrations, rb.pending_migrations,
                            "{spec} step {step}"
                        );
                    }
                    _ => {}
                }
            }
            let stored = given.entries().len();
            assert!(sent > 100 && stored > 0, "{spec}: {sent} sent, {stored} stored at the end");
            assert_eq!(given.rng.get_mut().next_u64(), lent.rng.get_mut().next_u64(), "{spec}");
        }
    }

    fn versioned(msg: Message<u64>, stamp_ms: u64) -> Message<u64> {
        Message::Versioned { version: 0, stamp_ms, msg: Box::new(msg) }
    }

    #[test]
    fn versioned_updates_bump_the_key_clock_and_wrap_fanout() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::full_replication(), 4).unwrap();
        assert_eq!(e.version(), 0);
        let out =
            e.handle(Endpoint::client(0), versioned(Message::PlaceReq { entries: vec![1] }, 10));
        assert_eq!(e.version(), 1);
        assert_eq!(
            out,
            vec![Outbound::Broadcast(Message::Versioned {
                version: 1,
                stamp_ms: 10,
                msg: Box::new(Message::StoreSet { entries: vec![1] }),
            })]
        );
        e.handle(Endpoint::client(0), versioned(Message::AddReq { v: 2 }, 11));
        assert_eq!(e.version(), 2);
        // Internal messages max the clock instead of bumping it.
        e.handle(
            Endpoint::Server(ServerId::new(1)),
            Message::Versioned { version: 9, stamp_ms: 0, msg: Box::new(Message::Store { v: 3 }) },
        );
        assert_eq!(e.version(), 9);
        // Unversioned traffic leaves the clock alone.
        e.handle(Endpoint::client(0), Message::AddReq { v: 4 });
        assert_eq!(e.version(), 9);
    }

    #[test]
    fn noop_updates_do_not_advance_the_version() {
        // Fixed-2 with a full cushion suppresses the add broadcast; the
        // version must stay put or the cluster looks permanently stale.
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 3, StrategySpec::fixed(2), 4).unwrap();
        e.handle(Endpoint::client(0), versioned(Message::PlaceReq { entries: vec![1, 2, 3] }, 1));
        let v = e.version();
        e.handle(
            Endpoint::Server(ServerId::new(0)),
            Message::Versioned {
                version: v,
                stamp_ms: 1,
                msg: Box::new(Message::StoreSet { entries: vec![1, 2] }),
            },
        );
        let out = e.handle(Endpoint::client(0), versioned(Message::AddReq { v: 9 }, 2));
        assert!(out.is_empty());
        assert_eq!(e.version(), v);
    }

    #[test]
    fn versioned_deletes_leave_tombstones_and_readds_clear_them() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 2, StrategySpec::random_server(1), 5).unwrap();
        e.handle(
            Endpoint::Server(ServerId::new(1)),
            Message::Versioned {
                version: 3,
                stamp_ms: 77,
                msg: Box::new(Message::CountedRemove { v: 8 }),
            },
        );
        assert_eq!(e.tombstone_count(), 1);
        let (v, t) = e.tombstones().next().map(|(v, t)| (*v, t)).unwrap();
        assert_eq!((v, t.version, t.born_ms), (8, 3, 77));
        // A stale re-add (older version) must not clear the marker.
        e.handle(
            Endpoint::Server(ServerId::new(1)),
            Message::Versioned {
                version: 2,
                stamp_ms: 0,
                msg: Box::new(Message::SampledStore { v: 8, x: 1 }),
            },
        );
        assert_eq!(e.tombstone_count(), 1);
        // A fresh re-add supersedes it.
        e.handle(
            Endpoint::Server(ServerId::new(1)),
            Message::Versioned {
                version: 4,
                stamp_ms: 0,
                msg: Box::new(Message::SampledStore { v: 8, x: 1 }),
            },
        );
        assert_eq!(e.tombstone_count(), 0);
    }

    #[test]
    fn gc_drops_old_tombstones_and_reset_keeps_the_version() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 2, StrategySpec::full_replication(), 6).unwrap();
        for (ver, stamp, v) in [(1u64, 100u64, 1u64), (2, 200, 2)] {
            e.handle(
                Endpoint::Server(ServerId::new(1)),
                Message::Versioned {
                    version: ver,
                    stamp_ms: stamp,
                    msg: Box::new(Message::Remove { v }),
                },
            );
        }
        assert_eq!(e.tombstone_count(), 2);
        assert_eq!(e.gc_tombstones(100), 1);
        assert_eq!(e.tombstone_count(), 1);
        assert_eq!(e.version(), 2);
        e.handle(Endpoint::client(0), Message::Reset);
        assert_eq!(e.version(), 2, "Reset must not rewind the key clock");
        assert_eq!(e.tombstone_count(), 0);
    }

    #[test]
    fn set_version_meta_restores_recovery_state() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 2, StrategySpec::full_replication(), 7).unwrap();
        e.handle(Endpoint::client(0), Message::StoreSet { entries: vec![1, 2] });
        e.set_version_meta(
            5,
            vec![
                (9, Tombstone { version: 4, born_ms: 50 }),
                // Conflicts with a live entry: dropped.
                (1, Tombstone { version: 3, born_ms: 40 }),
            ],
        );
        assert_eq!(e.version(), 5);
        assert_eq!(e.tombstone_count(), 1);
        assert!(e.tombstones().all(|(v, _)| *v == 9));
        // The version only moves forward.
        e.set_version_meta(2, Vec::new());
        assert_eq!(e.version(), 5);
    }

    /// Server `me` of five, holding something stale that a rebuild must
    /// not keep.
    fn stale(me: u32, spec: StrategySpec) -> NodeEngine<u64> {
        let mut e: NodeEngine<u64> = NodeEngine::new(me.into(), 5, spec, 31).unwrap();
        let from = Endpoint::Server(0.into());
        e.handle(from, Message::Store { v: 900 });
        e.handle(from, Message::RrStore { v: 901, pos: u64::from(me) });
        assert_eq!(e.entries().len(), 1);
        e
    }

    #[test]
    fn rebuild_copies_a_donor_for_the_identical_server_strategies() {
        for spec in [StrategySpec::full_replication(), StrategySpec::fixed(3)] {
            let mut e = stale(2, spec);
            e.set_version_meta(4, vec![(7, Tombstone { version: 3, born_ms: 1 })]);
            e.rebuild(vec![5, 3, 8], BTreeMap::new(), None);
            assert_eq!(e.entries(), &[5, 3, 8], "{spec}: the donor's store, in its order");
            assert_eq!((e.version(), e.tombstone_count()), (4, 0), "{spec}");
            e.rebuild(Vec::new(), BTreeMap::new(), None);
            assert!(e.entries().is_empty(), "{spec}");
        }
    }

    #[test]
    fn rebuild_redraws_a_random_server_subset_of_the_coverage() {
        let mut e = stale(2, StrategySpec::random_server(4));
        let mut fed = e.clone();
        e.rebuild((0..30).collect(), BTreeMap::new(), None);
        assert_eq!(e.entries().len(), 4);
        assert!(e.entries().iter().all(|v| *v < 30));
        let Strategy::RandomServer { local_h, .. } = e.node.strategy else { unreachable!() };
        assert_eq!(local_h, 30, "the reservoir resumes from the coverage's size");
        // The draw is the one the message would have made.
        fed.handle(
            Endpoint::Server(2.into()),
            Message::ChooseSubset { entries: (0..30).collect(), x: 4 },
        );
        assert_eq!(e.entries(), fed.entries());
        // Less coverage than x: all of it.
        e.rebuild(vec![1, 2], BTreeMap::new(), None);
        assert_eq!(e.entries(), &[1, 2]);
    }

    #[test]
    fn rebuild_keeps_what_the_hash_family_assigns_here() {
        let mut e = stale(3, StrategySpec::hash(2));
        e.rebuild((0..200).collect(), BTreeMap::new(), None);
        let assigned: Vec<u64> = (0..200).filter(|v| e.assigns_to(v, 3.into())).collect();
        assert!(!assigned.is_empty() && assigned.len() < 200);
        assert_eq!(e.entries(), assigned.as_slice());
    }

    #[test]
    fn rebuild_refetches_round_robin_positions_and_counters() {
        // Positions 3..=12 of five servers, y = 2: position p lives on
        // servers p % 5 and (p + 1) % 5.
        let positions: BTreeMap<u64, u64> = (3..=12).map(|p| (p, 100 + p)).collect();
        let held = |e: &NodeEngine<u64>| e.rr_positions().map(|(p, v)| (p, *v)).collect::<Vec<_>>();
        let spec = StrategySpec::round_robin(2);

        let mut e = stale(3, spec);
        e.rebuild(vec![1, 2, 3], positions.clone(), Some((3, 13)));
        assert_eq!(held(&e), [(3, 103), (7, 107), (8, 108), (12, 112)], "entries are ignored");
        assert_eq!(e.entries().len(), 4);
        assert_eq!(e.rr_counters(), None, "server 3 holds no counters");

        // A counter holder adopts the counters it is given, or else the
        // span of the positions, lowest to one past the highest.
        let mut e = stale(0, spec);
        e.rebuild(Vec::new(), positions.clone(), Some((2, 20)));
        assert_eq!(held(&e), [(4, 104), (5, 105), (9, 109), (10, 110)]);
        assert_eq!(e.rr_counters(), Some((2, 20)));
        e.rebuild(Vec::new(), positions.clone(), None);
        assert_eq!(e.rr_counters(), Some((3, 13)));
        e.rebuild(Vec::new(), BTreeMap::new(), None);
        assert_eq!((e.rr_counters(), e.entries().len()), (Some((0, 0)), 0));

        // So does a mirror (§5.4 footnote), and only a mirror.
        let mut e = stale(1, spec);
        e.set_rr_mirrors(2);
        e.rebuild(Vec::new(), positions, Some((3, 13)));
        assert_eq!(held(&e), [(5, 105), (6, 106), (10, 110), (11, 111)]);
        assert_eq!(e.rr_counters(), Some((3, 13)));
    }

    #[test]
    fn nested_versioned_envelopes_are_dropped() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 2, StrategySpec::full_replication(), 8).unwrap();
        let nested = Message::Versioned {
            version: 1,
            stamp_ms: 0,
            msg: Box::new(Message::Versioned {
                version: 2,
                stamp_ms: 0,
                msg: Box::new(Message::Store { v: 1 }),
            }),
        };
        assert!(e.handle(Endpoint::client(0), nested).is_empty());
        assert_eq!(e.entries().len(), 0);
    }

    #[test]
    fn a_probe_by_reference_is_the_owned_probe_before_the_copies() {
        let mut owned: NodeEngine<u64> =
            NodeEngine::new(1.into(), 2, StrategySpec::full_replication(), 5).unwrap();
        owned.handle(Endpoint::client(0), Message::StoreSet { entries: (0..20).collect() });
        let mut by_ref = owned.clone();
        // Fewer than stored (Floyd, then Fisher–Yates), all, more than all.
        for t in [1, 5, 19, 20, 21, 500] {
            let refs: Vec<u64> = by_ref.sample_refs(t, &mut Vec::new()).copied().collect();
            assert_eq!(refs, owned.sample(t), "t={t}");
            assert_eq!(refs.len(), t.min(20));
            // Both engines drew the same: their next draws agree too.
            assert_eq!(by_ref.sample(7), owned.sample(7), "after t={t}");
        }
    }

    #[test]
    fn store_and_sample_roundtrip() {
        let mut e: NodeEngine<u64> =
            NodeEngine::new(0.into(), 2, StrategySpec::full_replication(), 2).unwrap();
        assert!(e
            .handle(Endpoint::client(0), Message::StoreSet { entries: vec![1, 2, 3] })
            .is_empty());
        assert_eq!(e.entries().len(), 3);
        let s = e.sample(2);
        assert_eq!(s.len(), 2);
        let s = e.sample(10);
        assert_eq!(s.len(), 3);
    }
}
