//! The client library: §3's lookup procedure — `pls_core`'s
//! [`LookupPlan`] — and the update routing of §5, over real sockets.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pls_core::membership::DEFAULT_GROUP_SIZE;
use pls_core::{
    DetRng, FailureSet, GroupRouter, LookupPlan, Membership, ServiceError, StrategySpec,
};
use pls_net::ServerId;
use pls_telemetry::trace::Span;
use pls_telemetry::{Level, MetricsSnapshot, SpanRecord};
use pls_wire::error::ClusterError;
use pls_wire::metrics::ClientMetrics;
use pls_wire::proto::{Entry, Request, Response};
use pls_wire::retry::{splitmix64, BreakerConfig, Deadline, Timeouts};

use crate::rpc::{PeerBook, PeerClient};

/// Client-side configuration: where the servers are and which strategy
/// they run (the client procedures are strategy-specific).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Every server's address, indexed by server id.
    pub servers: Vec<SocketAddr>,
    /// The cluster's placement strategy.
    pub spec: StrategySpec,
    /// Seed for the client's probe-order randomness.
    pub seed: u64,
    /// Time bounds: connect/per-RPC deadlines and the total budget each
    /// operation (one lookup, one update) may spend across all its
    /// probes and retries (the `--rpc-timeout-ms` / `--op-budget-ms`
    /// flags).
    pub timeouts: Timeouts,
    /// Circuit-breaker tuning for each per-server connection pool.
    pub breaker: BreakerConfig,
    /// Hedge-delay floor for lookups: probes silent this long trigger
    /// the procedure's next probe without cancelling the slow ones.
    /// Raised to the observed p99 probe latency once enough samples
    /// exist. `None` (the default) disables hedging — it trades extra
    /// probes for latency, which distorts the §4.2 probe-count
    /// measurements.
    pub hedge: Option<Duration>,
    /// Placement-group size `g`: each key lives on (at most) `g`
    /// servers chosen by consistent hashing over the membership. Must
    /// match the servers' `--group-size`; clusters no larger than `g`
    /// place every key on every server, which is the pre-membership
    /// behavior.
    pub group_size: usize,
    /// Placement seed: must match the servers' `--seed` so client and
    /// cluster agree on every key's group. (Bootstrap deployments used
    /// one shared seed for engines already; the router reuses it.)
    pub placement_seed: u64,
}

impl ClientConfig {
    /// Convenience constructor with default time bounds and breaker
    /// tuning, hedging disabled.
    pub fn new(servers: Vec<SocketAddr>, spec: StrategySpec, seed: u64) -> Self {
        ClientConfig {
            servers,
            spec,
            seed,
            timeouts: Timeouts::default(),
            breaker: BreakerConfig::default(),
            hedge: None,
            group_size: DEFAULT_GROUP_SIZE,
            // Deployed clusters share one seed between client and
            // servers already (the engines need it); the router reuses
            // it, so client and cluster derive identical groups.
            placement_seed: seed,
        }
    }

    /// Replaces the placement-group size and routing seed (must match
    /// the servers' `--group-size` and `--seed`).
    #[must_use]
    pub fn with_placement(mut self, group_size: usize, seed: u64) -> Self {
        self.group_size = group_size.max(1);
        self.placement_seed = seed;
        self
    }

    /// Replaces the time bounds.
    #[must_use]
    pub fn with_timeouts(mut self, timeouts: Timeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Replaces the circuit-breaker tuning.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Enables hedged probes for lookups, with `floor` as the minimum
    /// hedge delay.
    #[must_use]
    pub fn with_hedging(mut self, floor: Duration) -> Self {
        self.hedge = Some(floor);
        self
    }
}

/// One probe for a [`Prober`] to make: the lookup's request id, the
/// group position asked, whether this is a hedge, and the request with
/// the lookup's deadline.
struct Probe {
    id: u64,
    pos: ServerId,
    hedged: bool,
    req: Request,
    deadline: Deadline,
}

/// A [`Prober`]'s report: the lookup's request id, the position probed,
/// whether it was a hedge, the round trip in µs, and the entries with
/// the server's echoed service time.
type Probed = (u64, ServerId, bool, u64, Result<(Vec<Entry>, u64), ClusterError>);

/// The thread that makes a client's lookup probes to one member,
/// started on the first probe to it. It takes [`Probe`]s from its
/// channel one at a time and reports each into the client's one
/// [`Probed`] channel; a lookup that is satisfied stops listening, and a
/// straggler finishes here within its own RPC deadline. Dropping the
/// prober closes the channel and joins the thread.
#[derive(Debug)]
struct Prober {
    probes: Option<Sender<Probe>>,
    thread: Option<JoinHandle<()>>,
}

impl Prober {
    fn spawn(peer: Arc<PeerClient>, reports: Sender<Probed>) -> Prober {
        let (probes, queue) = mpsc::channel::<Probe>();
        let thread = std::thread::spawn(move || {
            for Probe { id, pos, hedged, req, deadline } in queue {
                let started = Instant::now();
                // One attempt: the next server is the retry (§3.1).
                let outcome = match peer.call(id, &req, 1, deadline) {
                    Ok((Response::Entries(entries), service_us)) => Ok((entries, service_us)),
                    // Byzantine answer: a fault of this server.
                    Ok((other, _)) => {
                        Err(ClusterError::Remote(format!("unexpected probe response {other:?}")))
                    }
                    Err(err) => Err(err),
                };
                // Nobody listening: the client is being dropped.
                let _ = reports.send((id, pos, hedged, elapsed_us(started), outcome));
            }
        });
        Prober { probes: Some(probes), thread: Some(thread) }
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.probes = None;
        if self.thread.take().is_some_and(|thread| thread.join().is_err()) {
            pls_telemetry::warn!("probe_thread_panicked");
        }
    }
}

/// A partial-lookup client.
///
/// Connections are lazy and cached per server; a dead server is skipped
/// during lookups ("keep on selecting another random server until an
/// operational server is found", §3.1) and reported for updates.
#[derive(Debug)]
pub struct Client {
    spec: StrategySpec,
    key_specs: HashMap<Vec<u8>, StrategySpec>,
    /// The client's membership view: epoch + id→address list. Seeded
    /// from the configured server list (epoch 1); refreshed from the
    /// cluster via [`Client::refresh_membership`] / the admin calls.
    view: Membership,
    /// Multi-probe consistent-hash router mapping each key to its
    /// placement group within `view`. Shared with the servers (same
    /// group size, same seed), so client and cluster agree.
    router: GroupRouter,
    /// Per-member connection pools, keyed by member id and created on
    /// demand from the view's addresses. Dropping an entry (when a
    /// member leaves) drops its breaker and health state with it.
    peers: PeerBook,
    /// The lookup probers, by member id, and the one channel they all
    /// report into (both ends: the sender is cloned into each prober).
    probers: HashMap<u64, Prober>,
    reports: (Sender<Probed>, Receiver<Probed>),
    rng: DetRng,
    timeouts: Timeouts,
    hedge: Option<Duration>,
    /// Lock-free runtime counters; most importantly the probes-per-lookup
    /// histogram (the live-measured §4.2 client lookup cost).
    metrics: ClientMetrics,
    /// Request-id generator: each client *operation* (one lookup, one
    /// update, one scrape) draws a fresh id, stamps it on every frame it
    /// sends — probes, retries, the internal fan-out the servers run on
    /// its behalf — and on every tracing event, so one operation can be
    /// followed across the whole cluster.
    ids: AtomicU64,
    /// The id most recently drawn, for callers correlating their own
    /// logs with the cluster's.
    last_id: AtomicU64,
}

impl Client {
    /// Creates a client; no connections are opened until first use.
    /// The configured server list seeds the membership view (epoch 1,
    /// ids in list order); [`Client::refresh_membership`] catches up
    /// with a cluster whose membership has since changed.
    pub fn connect(cfg: ClientConfig) -> Self {
        let first_id = splitmix64(cfg.seed);
        let view = Membership::bootstrap(cfg.servers.iter().map(|a| a.to_string()));
        Client {
            spec: cfg.spec,
            key_specs: HashMap::new(),
            view,
            router: GroupRouter::new(cfg.group_size.max(1), cfg.placement_seed),
            peers: PeerBook::new(cfg.timeouts, cfg.breaker),
            probers: HashMap::new(),
            reports: mpsc::channel(),
            rng: DetRng::seed_from(cfg.seed),
            timeouts: cfg.timeouts,
            hedge: cfg.hedge,
            metrics: ClientMetrics::default(),
            ids: AtomicU64::new(first_id),
            last_id: AtomicU64::new(first_id),
        }
    }

    /// The members of `key`'s placement group under the current view,
    /// in group order (position 0 is the round-robin coordinator).
    fn group_of(&self, key: &[u8]) -> Vec<u64> {
        self.router.group(&self.view, key)
    }

    /// The pooled client for a member, created from the view's address
    /// on first use. `None` when the member is unknown to the view or
    /// its address fails to parse.
    fn peer_for(&self, id: u64) -> Option<Arc<PeerClient>> {
        self.peers.client(id, self.view.addr_of(id)?)
    }

    /// Adopts a membership view if it's strictly newer than the current
    /// one, dropping pooled clients (and with them breaker and health
    /// state) and probers for members that left.
    fn adopt_view(&mut self, view: Membership) {
        if view.epoch() <= self.view.epoch() {
            return;
        }
        self.view = view;
        self.peers.prune(&self.view);
        self.probers.retain(|id, _| self.view.contains(*id));
    }

    /// Draws the id for one client operation and records it as the most
    /// recent one.
    fn fresh_id(&self) -> u64 {
        let id = self.ids.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        self.last_id.store(id, Ordering::Relaxed);
        id
    }

    /// The request id stamped on this client's most recent operation —
    /// the value to grep for (`req=<id>`) in server logs when tracing a
    /// lookup or update end to end.
    pub fn last_request_id(&self) -> u64 {
        self.last_id.load(Ordering::Relaxed)
    }

    /// The strategy in effect for a key: its recorded per-key override,
    /// or the cluster default.
    pub fn spec_of(&self, key: &[u8]) -> StrategySpec {
        self.key_specs.get(key).copied().unwrap_or(self.spec)
    }

    /// The members to offer an update to, in order: the coordinator alone
    /// (group position 0) for a Round-Robin-y key, §5.4; otherwise the
    /// key's whole group shuffled, with breaker-suspect members demoted to
    /// the tail. The sort is stable, so each health class keeps its
    /// shuffled order — healthy members still share load uniformly, and
    /// sick ones are only tried once everyone else has failed.
    fn update_order(&mut self, key: &[u8]) -> Vec<u64> {
        let group = self.group_of(key);
        if matches!(self.spec_of(key), StrategySpec::RoundRobin { .. }) {
            return vec![group[0]];
        }
        let mut order: Vec<u64> =
            self.rng.shuffled_servers(group.len()).iter().map(|s| group[s.index()]).collect();
        order.sort_by_key(|member| !self.peers.healthy(*member));
        order
    }

    /// Sends an update to the first member of [`Client::update_order`]
    /// that takes it. Each candidate gets 3 attempts (a lookup probe gets
    /// one: it moves on to the next server, the paper's §3.1 rule) and the
    /// whole operation one budget. A candidate that is unavailable passes
    /// the update on to the next; a `Remote` answer is the cluster's
    /// refusal and is not tried elsewhere.
    fn update(&mut self, key: &[u8], req: Request) -> Result<(), ClusterError> {
        let id = self.fresh_id();
        let deadline = Deadline::within(self.timeouts.op_budget);
        let mut last_err = ClusterError::NoServerAvailable;
        for member in self.update_order(key) {
            if deadline.expired() {
                self.metrics.op_budget_exhausted.inc();
                last_err = ClusterError::Timeout("op-budget");
                break;
            }
            let Some(peer) = self.peer_for(member) else { continue };
            match peer.call(id, &req, 3, deadline) {
                Ok(_) => return Ok(()),
                Err(err) if err.is_unavailable() => {
                    // Failed server: retry on the next one.
                    pls_telemetry::debug!("update_retry", req = id, server = member, err = err);
                    last_err = err;
                }
                Err(other) => {
                    self.metrics.update_failures.inc();
                    return Err(other);
                }
            }
        }
        self.metrics.update_failures.inc();
        Err(last_err)
    }

    /// `place`: batch-specify a key's entries (§2), under the cluster's
    /// default strategy.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoServerAvailable`] when every server is
    /// unreachable; remote/protocol errors otherwise.
    pub fn place(&mut self, key: &[u8], entries: Vec<Entry>) -> Result<(), ClusterError> {
        self.update(key, Request::Place { key: key.to_vec(), entries, spec: None })
    }

    /// `place` with a per-key strategy override (§2: "different
    /// strategies can be used to manage different types of keys"). The
    /// override is recorded client-side so this client's lookups and
    /// update routing use the right procedure for the key.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an invalid spec;
    /// [`ClusterError::Remote`] if the cluster already manages the key
    /// under a different strategy; connectivity errors as
    /// [`Client::place`].
    pub fn place_with_strategy(
        &mut self,
        key: &[u8],
        entries: Vec<Entry>,
        spec: StrategySpec,
    ) -> Result<(), ClusterError> {
        // Engines are group-local: the spec must fit the key's group
        // (the whole cluster only when it's no larger than the group).
        spec.validate(self.view.len().min(self.router.group_size()).max(1))?;
        // Recorded before the update, which routes by it (a Round-Robin
        // place goes to the coordinator); a refused place puts back what
        // was there.
        let previous = self.key_specs.insert(key.to_vec(), spec);
        let placed =
            self.update(key, Request::Place { key: key.to_vec(), entries, spec: Some(spec) });
        if placed.is_err() {
            match previous {
                Some(previous) => self.key_specs.insert(key.to_vec(), previous),
                None => self.key_specs.remove(key),
            };
        }
        placed
    }

    /// `add(v)` (§5).
    ///
    /// # Errors
    ///
    /// As [`Client::place`]; for Round-Robin-y an unreachable server 0 is
    /// an error (the coordinator bottleneck of §5.4).
    pub fn add(&mut self, key: &[u8], entry: Entry) -> Result<(), ClusterError> {
        self.update(key, Request::Add { key: key.to_vec(), entry })
    }

    /// `delete(v)` (§5).
    ///
    /// # Errors
    ///
    /// As [`Client::add`].
    pub fn delete(&mut self, key: &[u8], entry: Entry) -> Result<(), ClusterError> {
        self.update(key, Request::Delete { key: key.to_vec(), entry })
    }

    /// Books one answered probe into the client's accounting: the RTT
    /// histogram, its decomposition into the server's echoed service
    /// time versus time on the wire, and a child span on the
    /// operation's timeline in the flight recorder (when one is
    /// installed).
    fn record_probe_timing(&self, id: u64, server: usize, rtt_us: u64, service_us: u64) {
        let service_us = service_us.min(rtt_us);
        let net_us = rtt_us - service_us;
        self.metrics.probes.inc();
        self.metrics.probe_latency_us.observe(rtt_us);
        self.metrics.probe_service_us.observe(service_us);
        self.metrics.probe_net_us.observe(net_us);
        // Nothing is built for the record unless a recorder is installed.
        pls_telemetry::recorder::record_timed(
            Some(id),
            "probe",
            module_path!(),
            rtt_us,
            [
                ("server", server.into()),
                ("service_us", service_us.into()),
                ("net_us", net_us.into()),
            ],
        );
    }

    /// The hedge delay in effect, `None` when hedging is disabled: the
    /// configured floor, raised to the observed p99 probe latency once
    /// enough samples exist, capped at the per-RPC deadline.
    fn hedge_delay(&self) -> Option<Duration> {
        let floor = self.hedge?;
        let seen = self.metrics.probe_latency_us.snapshot();
        let delay = if seen.count >= 32 {
            Duration::from_micros(seen.quantile(0.99) as u64).max(floor)
        } else {
            floor
        };
        Some(delay.min(self.timeouts.rpc))
    }

    /// `partial_lookup(k, t)`: at least `t` distinct entries when the
    /// surviving placement allows it, using the strategy's §3 client
    /// procedure — the [`LookupPlan`]'s probe order (breaker-suspect
    /// members last), merge and trim to exactly `t` (the §4.5 fairness
    /// model). This loop owns the clock: one probe at a time goes to the
    /// member's prober thread, the next when it is answered or failed,
    /// and — with hedging on — one more whenever those in flight stay
    /// silent past the hedge delay, *without cancelling them*: first
    /// answer wins, a late one still merges. With no hedge this is §3's
    /// sequential procedure and costs exactly its probe count. The lookup
    /// never waits for a straggler: its probe ends on the prober within
    /// its own RPC deadline and the report is dropped.
    ///
    /// The whole lookup is bounded by the per-operation budget, every
    /// probe by the per-RPC deadline. A server that is down, silent,
    /// breaker-open or answering garbage is skipped like a crashed one.
    /// When the budget runs out mid-merge, whatever was gathered is
    /// returned: fewer than `t` results is **not** an error — callers
    /// check the length.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Service`] with [`ServiceError::ZeroTarget`] if
    /// `t == 0`; [`ClusterError::NoServerAvailable`] when no server could
    /// be reached at all; [`ClusterError::Timeout`] when the budget
    /// expired before any server answered.
    pub fn partial_lookup(&mut self, key: &[u8], t: usize) -> Result<Vec<Entry>, ClusterError> {
        if t == 0 {
            return Err(ClusterError::Service(ServiceError::ZeroTarget));
        }
        let spec = self.spec_of(key);
        let id = self.fresh_id();
        let mut span = Span::enter_with_id(Level::Debug, module_path!(), "partial_lookup", id);
        span.field("t", t);
        span.field("strategy", spec.to_string());
        let deadline = Deadline::within(self.timeouts.op_budget);
        let hedge = self.hedge_delay();
        let group = self.group_of(key);
        if group.is_empty() {
            return Err(ClusterError::NoServerAvailable);
        }
        // The plan walks **group positions**, not global ids: the engines
        // are group-local, so the round-robin stride is over this space.
        let mut suspect = FailureSet::new(group.len());
        for (pos, member) in group.iter().enumerate() {
            if !self.peers.healthy(*member) {
                suspect.fail(ServerId::new(pos as u32));
            }
        }
        let mut plan = LookupPlan::new(spec, t, &suspect, &mut self.rng);

        // Probes of this lookup still out. Reports of an earlier lookup's
        // stragglers share the channel; they carry another id and are
        // dropped.
        let mut in_flight = 0usize;
        // Whether the next probe goes out now: at the start, when the
        // last one came back, or when the hedge timer fired.
        let mut launch = true;
        let mut hedging = false;
        let mut drained = false; // the plan has nobody left to offer
        let mut last_launch = Instant::now();
        while !plan.is_satisfied() {
            if deadline.expired() {
                // Partial results beat none: keep what was gathered.
                self.metrics.op_budget_exhausted.inc();
                break;
            }
            while launch && !drained {
                let Some(pos) = plan.next(&mut self.rng) else {
                    drained = true;
                    break;
                };
                let member = group[pos.index()];
                let Some(peer) = self.peer_for(member) else {
                    // Unknown member / unparseable address: a failed
                    // probe, move down the order.
                    self.metrics.probe_failures.inc();
                    plan.unreachable(pos);
                    continue;
                };
                if hedging {
                    self.metrics.hedges.inc();
                    pls_telemetry::debug!(
                        "probe_hedged",
                        req = id,
                        server = member,
                        after_ms = hedge.unwrap_or_default().as_millis()
                    );
                }
                let req = Request::Probe { key: key.to_vec(), t: t as u32 };
                let probe = Probe { id, pos, hedged: hedging, req, deadline };
                let reports = &self.reports.0;
                let prober = self
                    .probers
                    .entry(member)
                    .or_insert_with(|| Prober::spawn(peer, reports.clone()));
                let sent = prober.probes.as_ref().is_some_and(|tx| tx.send(probe).is_ok());
                if !sent {
                    // The prober died (it panicked): a failed probe, and
                    // the next one to this member starts a new thread.
                    self.probers.remove(&member);
                    self.metrics.probe_failures.inc();
                    pls_telemetry::warn!("probe_thread_failed", req = id, server = member);
                    plan.unreachable(pos);
                    continue;
                }
                in_flight += 1;
                last_launch = Instant::now();
                launch = false;
            }
            (launch, hedging) = (false, false);
            if in_flight == 0 {
                break; // nobody left to ask
            }
            // An answer, or — with hedging on and someone left to ask —
            // the hedge timer; never longer than the budget.
            let wait = match hedge {
                Some(delay) if !drained => delay.saturating_sub(last_launch.elapsed()),
                _ => Duration::MAX,
            };
            match self.reports.1.recv_timeout(deadline.cap(wait)) {
                Ok((other, ..)) if other != id => continue,
                Ok((_, pos, hedged, rtt_us, Ok((entries, service_us)))) => {
                    in_flight -= 1;
                    let member = group[pos.index()];
                    self.record_probe_timing(id, member as usize, rtt_us, service_us);
                    if hedged && in_flight > 0 {
                        // The hedge answered while an earlier probe
                        // was still silent: a win.
                        self.metrics.hedge_wins.inc();
                        self.metrics.hedge_win_latency_us.observe(rtt_us);
                    }
                    pls_telemetry::event!(
                        Level::Trace,
                        "probe_answered",
                        req = id,
                        server = member,
                        returned = entries.len(),
                        service_us = service_us
                    );
                    plan.answered(pos, entries);
                }
                Ok((_, pos, _, _, Err(err))) => {
                    in_flight -= 1;
                    self.metrics.probe_failures.inc();
                    if !err.is_peer_fault() {
                        return Err(err);
                    }
                    // Down, silent, breaker-open or byzantine: skip
                    // it like a crashed server (§3.1).
                    let member = group[pos.index()];
                    pls_telemetry::debug!("probe_failed", req = id, server = member, err = err);
                    plan.unreachable(pos);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Those in flight are slow: hedge with the plan's
                    // next server. (Out of budget, the loop ends above.)
                    if hedge.is_some() && !drained {
                        (launch, hedging) = (true, true);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("the client holds a sender of its own report channel")
                }
            }
            if in_flight == 0 {
                launch = true; // nothing out: the next probe goes
            }
        }
        if plan.contacted().is_empty() {
            return Err(if deadline.expired() {
                ClusterError::Timeout("op-budget")
            } else {
                ClusterError::NoServerAvailable
            });
        }
        // Servers contacted for this lookup: the client lookup cost.
        self.metrics.probes_per_lookup.observe(plan.contacted().len() as u64);
        Ok(plan.finish(&mut self.rng).into_entries())
    }

    /// `ids` with their dial addresses in the current view, leaving out
    /// any member the view does not know.
    fn addressed(&self, ids: impl IntoIterator<Item = u64>) -> Vec<(u64, &str)> {
        ids.into_iter().filter_map(|id| Some((id, self.view.addr_of(id)?))).collect()
    }

    /// Queries the cluster for a key's strategy and records it locally,
    /// so this client's lookups use the right procedure even for keys
    /// placed by other clients: the key's group is asked in random order
    /// until a member knows the key. Returns the discovered strategy, or
    /// `None` when no member that answered knows the key.
    ///
    /// # Errors
    ///
    /// As [`Client::metrics_by_member`], for the members of the key's
    /// group.
    pub fn refresh_spec(&mut self, key: &[u8]) -> Result<Option<StrategySpec>, ClusterError> {
        let group = self.group_of(key);
        let order = self.rng.shuffled_servers(group.len());
        let members = self.addressed(order.iter().map(|s| group[s.index()]));
        let req = Request::SpecOf { key: key.to_vec() };
        let found = self.peers.first(members, self.fresh_id(), &req, |resp| match resp {
            Response::SpecOf(spec) => spec,
            _ => None,
        })?;
        if let Some(spec) = found {
            self.key_specs.insert(key.to_vec(), spec);
        }
        Ok(found)
    }

    /// Diagnostic: `(keys, entries)` stored at one server.
    ///
    /// # Errors
    ///
    /// The server's own fault (unreachable, silent, garbled, an error
    /// answer); [`ClusterError::NoServerAvailable`] when the view does not
    /// know it.
    pub fn status_of(&self, server: usize) -> Result<(u64, u64), ClusterError> {
        self.first([server as u64], &Request::Status, "status", |resp| match resp {
            Response::Status { keys, entries } => Some((keys, entries)),
            _ => None,
        })
    }

    /// This client's own runtime metrics (probe/lookup counters and the
    /// probes-per-lookup histogram).
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// Named snapshot of the client-side metrics (with the catalogue's
    /// HELP texts), including the dial failures of every per-server pool.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut s = self.metrics.collect();
        let dial_failures = self.peers.all().iter().map(|p| p.stats().dial_failures.get()).sum();
        s.push_counter("pls_client_pool_dial_failures_total", dial_failures);
        self.peers.push_robustness(&mut s);
        pls_wire::metrics::stamp(&mut s);
        s
    }

    /// One server's metrics via the [`Request::Metrics`] RPC. With
    /// `reset`, the server atomically drains its counters and histograms
    /// as they are read (delta scraping).
    ///
    /// # Errors
    ///
    /// As [`Client::status_of`].
    pub fn metrics_of(&self, server: usize, reset: bool) -> Result<MetricsSnapshot, ClusterError> {
        self.first([server as u64], &Request::Metrics { reset }, "metrics", metrics)
    }

    /// Every member's metrics, one read of them all under one operation
    /// budget: each member of the view with its snapshot, `None` for one
    /// that was skipped (a peer fault). `reset` as [`Client::metrics_of`].
    ///
    /// # Errors
    ///
    /// When no member answered: [`ClusterError::Timeout`]`("op-budget")`
    /// if the operation budget ran out, otherwise the fault of the last
    /// member asked; [`ClusterError::NoServerAvailable`] when the view
    /// names no member to ask.
    pub fn metrics_by_member(
        &self,
        reset: bool,
    ) -> Result<Vec<(u64, Option<MetricsSnapshot>)>, ClusterError> {
        let members = self.addressed(self.view.ids());
        self.peers.every(members, self.fresh_id(), &Request::Metrics { reset }, metrics)
    }

    /// Cluster-wide metrics: every answering member's snapshot
    /// ([`Client::metrics_by_member`]), merged (same-named counters summed,
    /// same-named histograms merged) and stamped with the catalogue's HELP
    /// texts, which do not travel in the Metrics RPC.
    ///
    /// # Errors
    ///
    /// As [`Client::metrics_by_member`].
    pub fn cluster_metrics(&self, reset: bool) -> Result<MetricsSnapshot, ClusterError> {
        let mut merged = MetricsSnapshot::new();
        for snap in self.metrics_by_member(reset)?.into_iter().filter_map(|(_, snap)| snap) {
            merged.merge(&snap);
        }
        pls_wire::metrics::stamp(&mut merged);
        Ok(merged)
    }

    /// Cluster-wide timeline of one request: every span retained for
    /// `req` by this process's flight recorder **and** by every answering
    /// member's ([`Request::Trace`], one read of them all, as
    /// [`Client::cluster_metrics`]). Duplicates — e.g. in-process test
    /// clusters sharing one recorder — are dropped; the result is sorted
    /// by start time, so it reads as a waterfall.
    ///
    /// # Errors
    ///
    /// As [`Client::metrics_by_member`].
    pub fn trace_request(&self, req: u64) -> Result<Vec<SpanRecord>, ClusterError> {
        let members = self.addressed(self.view.ids());
        let answers = self.peers.every(members, self.fresh_id(), &Request::Trace { req }, spans)?;
        Ok(merge_spans(req, answers))
    }

    /// The membership view this client routes with.
    pub fn membership_view(&self) -> &Membership {
        &self.view
    }

    /// Fetches the cluster's current membership from the first member
    /// that answers, adopts it when strictly newer than the local view,
    /// and returns it. This is how a long-lived client catches up with
    /// joins and leaves it did not initiate.
    ///
    /// # Errors
    ///
    /// As [`Client::metrics_by_member`].
    pub fn membership(&mut self) -> Result<Membership, ClusterError> {
        self.membership_rpc(Request::Membership(Membership::empty()))
    }

    /// Refreshes the membership view ([`Client::membership`]) and reports
    /// whether it changed.
    ///
    /// # Errors
    ///
    /// As [`Client::membership`].
    pub fn refresh_membership(&mut self) -> Result<bool, ClusterError> {
        let before = self.view.epoch();
        Ok(self.membership()?.epoch() != before)
    }

    /// Admin: asks the cluster to admit the server at `addr` (its
    /// advertised listen address) as a new member. Any current member
    /// accepts the request, bumps the epoch, and gossips the new view;
    /// this client adopts it immediately. Returns the post-join view.
    ///
    /// # Errors
    ///
    /// As [`Client::membership`]; [`ClusterError::Remote`] when every
    /// member that answered refused the join.
    pub fn join(&mut self, addr: &str) -> Result<Membership, ClusterError> {
        self.membership_rpc(Request::JoinLeave { join: Some(addr.to_string()), leave: None })
    }

    /// Admin: asks the cluster to retire member `id` gracefully (a
    /// drain). The remaining members bump the epoch, re-home the
    /// departed member's placement groups via anti-entropy migration,
    /// and gossip the new view; this client adopts it immediately.
    /// Returns the post-drain view.
    ///
    /// # Errors
    ///
    /// As [`Client::membership`]; [`ClusterError::Remote`] when `id` is
    /// unknown or the last member standing.
    pub fn drain(&mut self, id: u64) -> Result<Membership, ClusterError> {
        self.membership_rpc(Request::JoinLeave { join: None, leave: Some(id) })
    }

    /// Sends a membership RPC to the first member that answers with a
    /// view, adopts the view when newer, and hands it back. A member whose
    /// answer does not decode (an empty view at a nonzero epoch among
    /// them) or that refuses is a peer fault: the next member is asked.
    fn membership_rpc(&mut self, req: Request) -> Result<Membership, ClusterError> {
        let view = self.first(self.view.ids(), &req, "membership", |resp| match resp {
            Response::Membership(view) => Some(view),
            _ => None,
        })?;
        self.adopt_view(view.clone());
        Ok(view)
    }

    /// The first answer of `ids`, asked in order, that `accept` takes
    /// ([`PeerBook::first`]); members that answered something else make it
    /// a `Remote` error naming `what` was asked.
    fn first<T>(
        &self,
        ids: impl IntoIterator<Item = u64>,
        req: &Request,
        what: &str,
        accept: impl FnMut(Response) -> Option<T>,
    ) -> Result<T, ClusterError> {
        let answer = self.peers.first(self.addressed(ids), self.fresh_id(), req, accept)?;
        answer.ok_or_else(|| ClusterError::Remote(format!("unexpected {what} response")))
    }
}

/// The snapshot in a [`Request::Metrics`] answer.
fn metrics(resp: Response) -> Option<MetricsSnapshot> {
    match resp {
        Response::Metrics(snap) => Some(snap),
        _ => None,
    }
}

/// The spans in a [`Request::Trace`] answer.
pub(crate) fn spans(resp: Response) -> Option<Vec<SpanRecord>> {
    match resp {
        Response::Spans(spans) => Some(spans),
        _ => None,
    }
}

/// One request's cluster-wide timeline: what this process's flight
/// recorder retains for `req` plus every member's answer to
/// [`Request::Trace`], duplicates dropped (in-process clusters share one
/// recorder), sorted by `(start, duration)` so it reads as a waterfall.
pub(crate) fn merge_spans(
    req: u64,
    answers: Vec<(u64, Option<Vec<SpanRecord>>)>,
) -> Vec<SpanRecord> {
    let mut spans =
        pls_telemetry::recorder::installed().map(|r| r.spans_for(req)).unwrap_or_default();
    for span in answers.into_iter().filter_map(|(_, answer)| answer).flatten() {
        if !spans.contains(&span) {
            spans.push(span);
        }
    }
    spans.sort_by_key(|s| (s.start_us, s.elapsed_us));
    spans
}

/// Microseconds since `start`, saturating.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}
