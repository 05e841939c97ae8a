//! The lookup server: one process, one `NodeEngine` per key.

use std::collections::{BTreeMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pls_core::membership::{group_index, DEFAULT_GROUP_SIZE};
use pls_core::{GroupRouter, Membership, Message, Placement, RoutingTable, StrategySpec};
use pls_metrics::fault_tolerance::greedy_tolerance;
use pls_net::Endpoint;
use pls_telemetry::snapshot::labeled;
use pls_telemetry::trace::Span;
use pls_telemetry::{Counter, Gauge, Level, MetricsSnapshot, SiteStats, SpanRecord, TimedMutex};

use crate::error::ClusterError;
use crate::frame::{read_frame, write_frame};
use crate::metrics::{
    self, merged_site_snapshot, strategy_index, views, ServerMetrics, STRATEGY_LABELS,
};
use crate::proto::{Entry, Request, Response};
use crate::retry::{splitmix64, BreakerConfig, Deadline, RetryPolicy, Timeouts};
use crate::rpc::{PeerBook, PeerClient, UNSUPPORTED_PREFIX};
use crate::shard::{
    digest_verdict, entries_for_rebuild, merge_donor_rows, Applied, Digest, Rebuilt, Shards,
};
use crate::sock::Acceptor;
use crate::storage::{self, KeySnapshot, Storage};
use crate::wire::FRAME_OVERHEAD;

/// Static configuration of one server in the cluster.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server's index in `peers`.
    pub me: usize,
    /// Every server's address, indexed by server id. `peers[me]` is the
    /// address this server binds (port 0 picks an ephemeral port).
    pub peers: Vec<SocketAddr>,
    /// The placement strategy every key is managed under.
    pub spec: StrategySpec,
    /// Cluster-wide seed; **must be identical on every server** (it
    /// derives the shared Hash-y function family).
    pub seed: u64,
    /// Warn-log any request whose handling exceeds this many
    /// milliseconds (the `--slow-ms` flag); `None` disables the check.
    pub slow_ms: Option<u64>,
    /// Time bounds on this server's own outbound RPCs (internal fan-out,
    /// resync pulls).
    pub timeouts: Timeouts,
    /// Retry policy for internal fan-out to flaky peers. A message to a
    /// *crashed* peer is still dropped (paper failure model); retries
    /// only paper over transient blips within the operation budget.
    pub retry: RetryPolicy,
    /// Durable data directory (write-ahead log + checkpoints). `None`
    /// keeps the server memory-only, exactly as before.
    pub data_dir: Option<PathBuf>,
    /// WAL appends between checkpoint snapshots (ignored without
    /// `data_dir`).
    pub checkpoint_every: u64,
    /// Background anti-entropy repair interval; each round fires after
    /// a jittered multiple (0.5x–1.5x) of this so servers do not
    /// synchronize. `None` disables the loop.
    pub anti_entropy: Option<Duration>,
    /// Background staleness-probe interval (same 0.5x–1.5x jitter as
    /// anti-entropy): each round samples live keys, compares every
    /// holder's per-key version via the Digest RPC, and refreshes the
    /// `pls_live_staleness{strategy,t}` gauge. `None` disables the loop.
    pub staleness_probe: Option<Duration>,
    /// How long delete tombstones are kept before the anti-entropy loop
    /// garbage-collects them. Must comfortably exceed the repair
    /// interval, or a lagging donor could outlive the marker that
    /// proves its entry was deleted.
    pub tombstone_ttl: Duration,
    /// Number of shared-nothing shards the key space is partitioned
    /// into (`--shards`). Each shard exclusively owns its slice of the
    /// engines map, the per-key strategy overrides, and — with
    /// durability on — its own WAL segment with independent group
    /// commit. Defaults to the available CPU cores. With an existing
    /// sharded data dir the count must match what the dir was laid out
    /// with (resharding is refused — see
    /// [`storage::SHARD_META_FILE`]).
    pub shards: usize,
    /// Self-scrape interval: how often the server snapshots its own
    /// metrics into the observatory timeline and refreshes the SLO
    /// accounting (same 0.5x–1.5x jitter as the other background
    /// loops). `None` disables the loop — the timeline then only grows
    /// through explicit [`Server::scrape_now`] calls.
    pub self_scrape: Option<Duration>,
    /// Fast SLO burn-rate window (`pls_slo_burn_rate{window="fast"}`).
    pub slo_fast: Duration,
    /// Slow SLO burn-rate window (`pls_slo_burn_rate{window="slow"}`,
    /// floored at the fast one); also bounds how far back the timeline
    /// must reach.
    pub slo_slow: Duration,
    /// Latency SLO target in microseconds: requests slower than this
    /// burn the `latency` objective's error budget.
    pub slo_latency_target_us: u64,
    /// Placement-group size `g`: every key lives on a group of `g`
    /// servers picked by multi-probe consistent hashing over the live
    /// membership. Clusters no larger than `g` place every key on every
    /// server — exactly the pre-membership behavior, which is why the
    /// default matches the paper's five-server experiments.
    pub group_size: usize,
    /// Initial membership override: `(my id, view)`. `None` bootstraps
    /// epoch 1 from `peers` with ids `0..n` (the static world). A
    /// joining server sets this to the view the seed's `JoinLeave`
    /// handed back, which is how it learns its allocated id.
    pub membership: Option<(u64, Membership)>,
}

/// Default shard count: one per available core (1 when unknown).
fn default_shards() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

impl ServerConfig {
    /// Convenience constructor (slow-request logging disabled, default
    /// time bounds).
    pub fn new(me: usize, peers: Vec<SocketAddr>, spec: StrategySpec, seed: u64) -> Self {
        ServerConfig {
            me,
            peers,
            spec,
            seed,
            slow_ms: None,
            timeouts: Timeouts::default(),
            retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
            data_dir: None,
            checkpoint_every: 256,
            anti_entropy: None,
            staleness_probe: None,
            tombstone_ttl: Duration::from_secs(900),
            shards: default_shards(),
            self_scrape: Some(Duration::from_secs(2)),
            slo_fast: Duration::from_secs(60),
            slo_slow: Duration::from_secs(300),
            slo_latency_target_us: 10_000,
            group_size: DEFAULT_GROUP_SIZE,
            membership: None,
        }
    }
}

/// Shared server state: the I/O shell's half. Every key's engine, the
/// per-key strategies, the WAL segments and the membership routing table
/// are [`Shards`]; what is here dials, measures and schedules. Each mutex
/// is a [`TimedMutex`] feeding the per-site contention histograms
/// exported as `pls_lock_*{site=..}` — the fast path adds a `try_lock`
/// and a few relaxed atomics, cheap enough to keep on permanently.
struct State {
    cfg: ServerConfig,
    shards: Shards,
    /// What the maintenance thread waits on besides its due times:
    /// a new epoch (anti-entropy runs at once, so migration starts
    /// without waiting out the interval) and [`ServerHandle::kill`].
    signals: Mutex<Signals>,
    wake: Condvar,
    peers: PeerBook,
    /// Runtime counters/histograms; atomics only, shared by every
    /// connection handler without further locking.
    metrics: ServerMetrics,
    /// Generator for ids of *server-originated* requests (resync pulls).
    /// Client-originated work keeps the id the client stamped on its
    /// frame; internal fan-out inherits the triggering request's id.
    next_id: AtomicU64,
    /// Latest live §4.4 fault tolerance per adversary threshold `t`,
    /// refreshed by anti-entropy rounds (min across deep-checked keys).
    live_ft: TimedMutex<BTreeMap<usize, usize>>,
    /// Latest live PBS-style staleness estimate per
    /// `(strategy index, t)`: P(a partial lookup probing `t` of the
    /// key's `h` holders reaches at least one fully fresh copy),
    /// averaged across the keys the staleness loop sampled.
    live_staleness: TimedMutex<BTreeMap<(usize, usize), f64>>,
    /// Process-wide allocation counters as of this server's last
    /// `Metrics{reset}`. The counting allocator's totals are shared by
    /// every server in the process, so each server exports deltas
    /// against its own baseline instead of draining the globals out
    /// from under its siblings.
    alloc_base: Mutex<pls_telemetry::AllocStats>,
    /// The SLO & timeline observatory: the self-scrape loop records
    /// cumulative snapshots here and refreshes the error-budget
    /// accounting; the Metrics exposition and `GET /debug/timeline`
    /// read it.
    observatory: TimedMutex<Observatory>,
    /// Process-start instant: the monotonic clock timeline windows and
    /// SLO burn windows are stamped with.
    started: Instant,
}

#[derive(Default)]
struct Signals {
    membership_changed: bool,
    stop: bool,
}

/// The time dimension of the observatory, behind one [`TimedMutex`]:
/// the ring of periodic metrics snapshots plus the SLO tracker fed
/// from its deltas. `last_status` caches the SLO accounting computed
/// at the most recent scrape, so the Metrics exposition only reads.
struct Observatory {
    timeline: pls_telemetry::Timeline,
    slo: pls_telemetry::SloTracker,
    last_status: Vec<pls_telemetry::SloStatus>,
}

impl Observatory {
    fn new(cfg: &ServerConfig) -> Self {
        // Size the ring so it reaches back about twice the slow burn
        // window at the configured scrape cadence (jitter averages
        // 1.0x), bounded so a pathological config cannot balloon it.
        let scrape_us = cfg.self_scrape.unwrap_or(Duration::from_secs(2)).as_micros().max(1);
        let slow = cfg.slo_slow.max(cfg.slo_fast);
        let capacity = (2 * slow.as_micros() / scrape_us + 2).clamp(32, 360) as usize;
        Observatory {
            timeline: pls_telemetry::Timeline::new(capacity),
            slo: pls_telemetry::SloTracker::new(slo_specs(cfg), cfg.slo_fast, slow),
            last_status: Vec::new(),
        }
    }

    /// Records one scrape and refreshes the SLO accounting from the
    /// delta against the previous window.
    fn record(&mut self, at_unix_ms: u64, uptime_us: u64, totals: MetricsSnapshot) {
        self.timeline.record(at_unix_ms, uptime_us, totals);
        if let Some(delta) = self.timeline.last_delta() {
            let latest = self.timeline.latest().expect("just recorded");
            self.slo.ingest(uptime_us, &delta, &latest.totals);
            self.last_status = self.slo.status();
        }
    }
}

/// The server's declared objectives. Budgets are deliberate defaults,
/// not knobs-per-objective: availability 99.9% of events good, latency
/// 99% of requests at or under the configured target, staleness 95% of
/// scrape intervals with every `pls_live_staleness` series fully
/// fresh. `availability` counts internal fan-out sends alongside
/// client-facing requests, so a black-holed peer burns the budget even
/// when every client call still succeeds.
fn slo_specs(cfg: &ServerConfig) -> Vec<pls_telemetry::SloSpec> {
    use pls_telemetry::{SloSource, SloSpec};
    vec![
        SloSpec::new(
            "availability",
            0.001,
            SloSource::Ratio {
                total: vec!["pls_requests_total".into(), "pls_internal_sent_total".into()],
                bad: vec![
                    "pls_request_errors_total".into(),
                    "pls_internal_send_failures_total".into(),
                ],
            },
        ),
        SloSpec::new(
            "latency",
            0.01,
            SloSource::LatencyAbove {
                histogram: "pls_request_latency_us".into(),
                target_us: cfg.slo_latency_target_us,
            },
        ),
        SloSpec::new(
            "staleness",
            0.05,
            SloSource::GaugeFloor { gauge: "pls_live_staleness".into(), floor: 0.999 },
        ),
    ]
}

impl State {
    /// Whether [`ServerHandle::kill`] was called: fan-outs and repair
    /// rounds stop at their next step instead of running out their
    /// budget on a server that is already dead to its clients.
    fn stopping(&self) -> bool {
        self.signals.lock().expect("signals lock").stop
    }

    /// A fresh request id for work this server originates itself.
    fn next_id(&self) -> u64 {
        // Weyl sequence: full-period, cheap, and visually distinct ids.
        self.next_id.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
    }

    /// The RPC client for member `id`, resolved through the current
    /// view first and the grace-overlap previous view second (migration
    /// donors can be members that just left).
    fn peer_for(&self, id: u64) -> Option<Arc<PeerClient>> {
        self.peers.client(id, &self.shards.addr_of(id)?)
    }

    /// Adds to `keys` every key a reachable peer lists that is not there
    /// yet (order-preserving, set-backed dedup): a wiped server learns
    /// what it should hold from its peers. Returns how many peers
    /// answered.
    fn pull_keys(&self, req: u64, deadline: &Deadline, keys: &mut Vec<Vec<u8>>) -> usize {
        let mut seen: HashSet<Vec<u8>> = keys.iter().cloned().collect();
        let mut answered = 0;
        for (id, addr) in &self.shards.other_members() {
            let Some(peer) = self.peers.client(*id, addr) else { continue };
            let cap = deadline.cap(self.cfg.timeouts.rpc);
            if let Ok(Response::Keys(ks)) = peer.call_bounded(req, &Request::Keys, cap) {
                answered += 1;
                keys.extend(ks.into_iter().filter(|k| seen.insert(k.clone())));
            }
        }
        answered
    }

    /// Member `id`'s digest of `key`, if it is reachable within the
    /// deadline and knows the key.
    fn pull_digest(&self, id: u64, req: u64, key: &[u8], deadline: &Deadline) -> Option<Digest> {
        let pull = Request::Digest { key: key.to_vec() };
        let cap = deadline.cap(self.cfg.timeouts.rpc);
        let resp = self.peer_for(id)?.call_bounded(req, &pull, cap).ok()?;
        Digest::from_response(resp)
    }

    /// Member `id`'s full copy of `key`, on the same terms.
    fn pull_snapshot(
        &self,
        id: u64,
        req: u64,
        key: &[u8],
        deadline: &Deadline,
    ) -> Option<KeySnapshot> {
        let pull = Request::Snapshot { key: key.to_vec() };
        let cap = deadline.cap(self.cfg.timeouts.rpc);
        let resp = self.peer_for(id)?.call_bounded(req, &pull, cap).ok()?;
        KeySnapshot::from_response(key, resp)
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it) — the
/// coordinator wall clock stamped into versioned envelopes and timeline
/// windows, and what tombstone ages are measured against; the shards and
/// their engines stay clock-free.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Wraps an inbound client update in a version envelope: the engine
/// ignores the carried version for client requests and assigns the
/// key's next one, so the wrapper only contributes the wall-clock
/// stamp. Wrapping happens *before* the WAL append, so replay is
/// deterministic — the logged record carries the stamp, and the engine
/// re-derives the same version during replay.
fn versioned_client(msg: Message<Entry>) -> Message<Entry> {
    Message::Versioned { version: 0, stamp_ms: now_ms(), msg: Box::new(msg) }
}

fn bad_index() -> ClusterError {
    ClusterError::Config(pls_core::ConfigError::InvalidParameter("server index out of range"))
}

/// A lookup server, bound but not yet serving.
///
/// Create with [`Server::bind`], then start with [`Server::spawn`].
/// Killing the handle it returns is a crash — peers simply fail to
/// reach this server, exactly the failure model of the paper.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    /// Keys rebuilt from disk (checkpoint + WAL replay) at construction.
    recovered: usize,
}

impl Server {
    /// Binds the configured listen address (resolving port 0 to a real
    /// ephemeral port) and returns the server plus the bound address.
    ///
    /// # Errors
    ///
    /// Bind errors; [`ClusterError::Config`] for an invalid strategy or
    /// out-of-range `me`.
    pub fn bind(cfg: ServerConfig) -> Result<(Server, SocketAddr), ClusterError> {
        let addr = *cfg.peers.get(cfg.me).ok_or_else(bad_index)?;
        Self::with_listener(cfg, TcpListener::bind(addr)?)
    }

    /// Builds a server on an already-bound listener. Useful when the full
    /// peer address list must be known before any server starts (bind all
    /// listeners on ephemeral ports first, then construct the servers).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an invalid strategy or out-of-range
    /// `me`; I/O errors from reading the listener's address.
    pub fn with_listener(
        cfg: ServerConfig,
        listener: TcpListener,
    ) -> Result<(Server, SocketAddr), ClusterError> {
        let addr = listener.local_addr()?;
        let mut cfg = cfg;
        *cfg.peers.get_mut(cfg.me).ok_or_else(bad_index)? = addr;
        // The live membership this server starts from: the explicit
        // view a joiner carries, or epoch-1 bootstrap over the static
        // peer list (ids = list positions, the pre-membership world).
        let (my_id, initial) = match cfg.membership.clone() {
            Some((id, view)) => (id, view),
            None => (cfg.me as u64, Membership::bootstrap(cfg.peers.iter().map(|a| a.to_string()))),
        };
        if !initial.contains(my_id) {
            return Err(ClusterError::Config(pls_core::ConfigError::InvalidParameter(
                "server id not in initial membership",
            )));
        }
        let group_size = cfg.group_size.max(1);
        // Strategies validate against the engine size — the group, not
        // the cluster: a key only ever lives on its `g` group members.
        cfg.spec.validate(initial.len().min(group_size).max(1))?;
        let table = RoutingTable::new(GroupRouter::new(group_size, cfg.seed), initial);
        let peers = PeerBook::new(cfg.timeouts, BreakerConfig::default());
        let next_id = AtomicU64::new(splitmix64(cfg.seed ^ cfg.me as u64));
        let nshards = cfg.shards.max(1);
        // Open the data dir (if any) before serving: whatever the
        // per-shard checkpoints and WAL segments hold is replayed into
        // the engines below, so a restarted server answers from its own
        // disk even when no live donor exists.
        let (storages, recovered_state) = match &cfg.data_dir {
            Some(dir) => {
                let (storages, rec) = storage::open_sharded(dir, nshards)?;
                (storages.into_iter().map(|s| Some(Arc::new(s))).collect(), rec)
            }
            None => (vec![None; nshards], Vec::new()),
        };
        let metrics = ServerMetrics::new();
        metrics.membership_epoch.set(table.current().epoch() as f64);
        let shards = Shards::new(my_id, cfg.spec, cfg.seed, table, storages);
        let recovered = shards.replay(recovered_state, cfg.me);
        metrics.engines_created.add(recovered as u64);
        let observatory = TimedMutex::new("observatory", Observatory::new(&cfg));
        let state = Arc::new(State {
            cfg,
            shards,
            signals: Mutex::new(Signals::default()),
            wake: Condvar::new(),
            peers,
            metrics,
            next_id,
            live_ft: TimedMutex::new("live_ft", BTreeMap::new()),
            live_staleness: TimedMutex::new("live_staleness", BTreeMap::new()),
            alloc_base: Mutex::default(),
            observatory,
            started: Instant::now(),
        });
        Ok((Server { listener, state, recovered }, addr))
    }

    /// Keys rebuilt from the data directory (checkpoint + WAL replay)
    /// during construction; `0` without a data dir or on a fresh one.
    /// When this is zero a cold-starting server should still try
    /// [`Server::resync_from_peers`].
    pub fn recovered_keys(&self) -> usize {
        self.recovered
    }

    /// The debug endpoint's routes, for
    /// [`http::serve_router`](crate::http::serve_router):
    ///
    /// * `GET /metrics` — Prometheus text exposition of every
    ///   server-side family of [`metrics::CATALOGUE`], HELP included,
    ///   rendered fresh per request;
    /// * `GET /trace?req=<id>` — JSON span timeline of one request,
    ///   **cluster-wide**: this process's flight recorder merged with
    ///   every reachable peer's via [`Request::Trace`] fan-out;
    /// * `GET /debug/recent` — this process's recorder contents: the
    ///   ring (most recent last), the pinned slow requests, and the
    ///   recorder's own counters;
    /// * `GET /debug/contention` — [`views::contention_json`] of the same
    ///   snapshot: lock sites, per-shard rows, allocator, queue depths;
    /// * `GET /debug/timeline` — [`views::timeline_json`] of the
    ///   self-scrape ring and the SLO accounting.
    ///
    /// Routes hold only an [`Arc`] on the shared state, so the endpoint
    /// outlives the server.
    pub fn router(&self) -> crate::http::Router {
        use crate::http::{Handler, RouteReply, Router};
        let on = |render: fn(&Arc<State>, Option<&str>) -> RouteReply| -> Handler {
            let state = Arc::clone(&self.state);
            Arc::new(move |query| render(&state, query))
        };
        Router::new()
            .route(
                "/metrics",
                on(|state, _| {
                    let mut s = collect_metrics(state, false);
                    metrics::stamp(&mut s);
                    RouteReply::text(s.to_prometheus())
                }),
            )
            .route(
                "/trace",
                on(|state, query| {
                    let req = query
                        .and_then(|q| crate::http::query_param(q, "req"))
                        .and_then(crate::parse_req_id);
                    let Some(req) = req else {
                        return RouteReply::bad_request("missing or malformed req=<id>");
                    };
                    RouteReply::json(pls_telemetry::recorder::spans_to_json(&cluster_spans(
                        state, req,
                    )))
                }),
            )
            .route("/debug/recent", on(|_, _| RouteReply::json(recent_json())))
            .route(
                "/debug/contention",
                on(|state, _| {
                    RouteReply::json(views::contention_json(&collect_metrics(state, false)))
                }),
            )
            .route(
                "/debug/timeline",
                on(|state, _| {
                    let (cfg, obs) = (&state.cfg, state.observatory.lock());
                    RouteReply::json(views::timeline_json(
                        cfg.me as u64,
                        &obs.timeline,
                        &obs.last_status,
                        cfg.slo_fast,
                        cfg.slo_slow,
                    ))
                }),
            )
    }

    /// Takes one observatory scrape immediately — exactly what the
    /// self-scrape loop does on its jittered cadence. Tests and
    /// harnesses use it to populate the timeline deterministically.
    pub fn scrape_now(&self) {
        scrape_once(&self.state);
    }

    /// Cold-start recovery: pulls every key's state from the reachable
    /// peers and rebuilds this server's share before serving. Returns
    /// the number of keys recovered.
    ///
    /// Mirrors the simulator's `Cluster::recover_and_resync` per
    /// strategy: copy a donor's store (full replication, Fixed-x),
    /// redraw a random subset of the surviving coverage
    /// (RandomServer-x), re-derive the hash assignment (Hash-y), or
    /// re-fetch this server's round-robin positions and — for the
    /// coordinator — the `head`/`tail` counters (Round-Robin-y; while
    /// server 0 is down no round-robin update can run, so surviving
    /// state is consistent).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoServerAvailable`] when no peer responds at all;
    /// engine configuration errors.
    pub fn resync_from_peers(&self) -> Result<usize, ClusterError> {
        let state = &self.state;
        let me_idx = state.cfg.me;
        // One server-originated id stamps the whole recovery — every
        // Keys/Snapshot pull shows up as the same `req` on the donors.
        let resync_id = state.next_id();
        let span = Span::enter_with_id(Level::Info, module_path!(), "resync_from_peers", resync_id);
        // One operation budget spans the whole resync: a black-holed
        // donor delays recovery by at most one capped RPC per pull, and
        // the loop below stops once the budget is gone.
        let deadline = Deadline::within(state.cfg.timeouts.op_budget);
        let others = state.shards.other_members();

        // Discover the key universe from reachable peers.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        if state.pull_keys(resync_id, &deadline, &mut keys) == 0 {
            return Err(ClusterError::NoServerAvailable);
        }

        let mut synced = 0usize;
        for key in &keys {
            if deadline.expired() {
                pls_telemetry::warn!(
                    "resync_budget_exhausted",
                    req = resync_id,
                    server = me_idx,
                    synced = synced,
                    keys = keys.len()
                );
                break;
            }
            // Pull snapshots from every reachable peer that knows the key.
            let mut rows: Vec<KeySnapshot> = Vec::new();
            for (id, _) in &others {
                rows.extend(state.pull_snapshot(*id, resync_id, key, &deadline));
            }
            let Some(spec) = rows.first().map(|row| row.spec) else { continue };
            let merged = merge_donor_rows(key, spec, &rows);
            let did = state.shards.rebuild(entries_for_rebuild(&rows, merged), None)?;
            state.metrics.engines_created.add(u64::from(did == Rebuilt::Created));
            synced += 1;
        }
        pls_telemetry::info!(
            "resync_complete",
            req = resync_id,
            server = me_idx,
            keys = synced,
            elapsed_us = span.elapsed_us()
        );
        Ok(synced)
    }

    /// Starts serving: an accept thread with one thread per connection,
    /// and — when any of anti-entropy, the staleness probe or the
    /// self-scrape is configured — one maintenance thread running them
    /// on their jittered cadences.
    ///
    /// Two rules the blocking shape makes load-bearing. **No
    /// [`TimedMutex`] guard (shard core, membership, `live_ft`,
    /// `live_staleness`) is alive across a peer call**: Round-Robin
    /// migration's RPC graph has cycles, and a handler thread that
    /// blocks on a peer while holding a shard lock is a distributed
    /// deadlock. **The lookup port never queues a connection it cannot
    /// serve**: every accepted connection gets its own thread at once
    /// (there is no cap) — a peer connection parked behind a full pool
    /// inside a migration cycle is the same deadlock.
    pub fn spawn(self) -> ServerHandle {
        let Server { listener, state, .. } = self;
        let (serving, failing) = (Arc::clone(&state), Arc::clone(&state));
        let acceptor = Acceptor::spawn(
            listener,
            state.cfg.peers[state.cfg.me],
            usize::MAX,
            move |socket| {
                if let Err(err) = serve_connection(&serving, socket) {
                    // Connection teardown is normal; only report protocol
                    // violations.
                    if !matches!(err, ClusterError::Io(_)) {
                        serving.metrics.connection_errors.inc();
                        pls_telemetry::warn!(
                            "connection_error",
                            server = serving.cfg.me,
                            err = err
                        );
                    }
                }
            },
            move |err| {
                failing.metrics.accept_errors.inc();
                pls_telemetry::warn!("accept_error", server = failing.cfg.me, err = err);
            },
        );
        let cfg = &state.cfg;
        let maintenance = [cfg.anti_entropy, cfg.staleness_probe, cfg.self_scrape]
            .iter()
            .any(Option::is_some)
            .then(|| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || maintenance_loop(&state))
            });
        ServerHandle { state, acceptor, maintenance }
    }
}

/// A serving [`Server`]: its accept thread, its connection threads and
/// its maintenance thread. Dropping the handle kills the server.
pub struct ServerHandle {
    state: Arc<State>,
    acceptor: Acceptor,
    maintenance: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Crashes the server: stops accepting, shuts every live connection's
    /// socket down and joins every thread. No shutdown path runs — no
    /// final checkpoint, no flush — and once this returns no WAL append
    /// or checkpoint can happen any more, so the data dir is what a
    /// killed process would have left. Idempotent.
    pub fn kill(&mut self) {
        self.state.signals.lock().expect("signals lock").stop = true;
        self.state.wake.notify_all();
        self.acceptor.stop();
        if let Some(thread) = self.maintenance.take() {
            if thread.join().is_err() {
                pls_telemetry::warn!("maintenance_thread_panicked", server = self.state.cfg.me);
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One full metrics snapshot — the only function that reads server state
/// for observability; `/metrics`, the Metrics RPC, the self-scrape and
/// both `/debug` views read what it returns: the server's own series and
/// the robustness totals of its outbound peer clients.
fn collect_metrics(state: &State, reset: bool) -> MetricsSnapshot {
    let stored = state.shards.stored_pairs();
    let mut s = state.metrics.collect(&stored, reset);
    // The peer book only ever holds clients for *other* members, so no
    // self-exclusion filter is needed here.
    state.peers.push_robustness(&mut s);
    // Per-shard WAL segments export as the same cluster-of-one family
    // the single-segment layout did: counters sum across shards (with
    // `reset`, each shard is drained exactly once, so deltas conserve).
    let wal_storages: Vec<&Arc<Storage>> = state.shards.storages().collect();
    if !wal_storages.is_empty() {
        let sum = |of: fn(&storage::StorageMetrics) -> &Counter| -> u64 {
            wal_storages
                .iter()
                .map(|st| metrics::read(of(&st.metrics), reset, Counter::take, Counter::get))
                .sum()
        };
        s.push_counter("pls_wal_appends_total", sum(|m| &m.appends));
        s.push_counter("pls_wal_fsyncs_total", sum(|m| &m.fsyncs));
        s.push_counter("pls_wal_replayed_total", sum(|m| &m.replayed));
        s.push_counter("pls_wal_checkpoints_total", sum(|m| &m.checkpoints));
    }
    for (t, tol) in state.live_ft.lock().iter() {
        s.push_gauge(labeled("pls_live_fault_tolerance", &[("t", &t.to_string())]), *tol as f64);
    }
    for ((sidx, t), p) in state.live_staleness.lock().iter() {
        let labels = [("strategy", STRATEGY_LABELS[*sidx]), ("t", &t.to_string())];
        s.push_gauge(labeled("pls_live_staleness", &labels), *p);
    }
    s.push_gauge("pls_tombstones_live", state.shards.status().tombstones as f64);
    // Per-shard drill-down, as gauges so the breakdown travels over the
    // Metrics RPC (the merged `engines`/`wal` families below stay the
    // stable compare keys). Labeled with the *server* as well as the
    // shard: cluster merges replace same-named gauges, so without the
    // server label every server's shard 0 would collapse into one row.
    // The lock readings are non-draining snapshots — cumulative since
    // this server's last resetting scrape.
    let me_label = state.cfg.me.to_string();
    for (i, sh) in state.shards.as_slice().iter().enumerate() {
        let shard_label = i.to_string();
        let shard = [("server", me_label.as_str()), ("shard", shard_label.as_str())];
        s.push_gauge(labeled("pls_shard_keys", &shard), sh.key_count() as f64);
        let wal = sh.storage().map(|st| ("wal", st.wal_lock_stats().snapshot()));
        for (site, snap) in std::iter::once(("engines", sh.lock_stats().snapshot())).chain(wal) {
            let labels = [shard[0], shard[1], ("site", site)];
            s.push_gauge(labeled("pls_shard_lock_acquisitions", &labels), snap.acquisitions as f64);
            s.push_gauge(
                labeled("pls_shard_lock_wait_p99_us", &labels),
                snap.wait_us.quantile(0.99),
            );
        }
    }
    // SLO accounting, refreshed by the self-scrape loop (absent until
    // the loop has taken at least two scrapes). Must also stay before
    // the lock-sites block below: reading it acquires the observatory
    // mutex, and that acquisition has to land in this scrape's drain.
    for slo in &state.observatory.lock().last_status {
        let name = slo.name.as_str();
        s.push_gauge(
            labeled("pls_slo_error_budget_remaining", &[("slo", name)]),
            slo.budget_remaining,
        );
        for (window, burn) in [("fast", slo.burn_fast), ("slow", slo.burn_slow)] {
            s.push_gauge(labeled("pls_slo_burn_rate", &[("slo", name), ("window", window)]), burn);
        }
    }
    // Allocation observatory: deltas of the process-wide counting
    // allocator (all zeros unless the binary installs
    // `pls_telemetry::alloc::CountingAlloc`; pls-server does). The
    // monotone counters are exported relative to this server's
    // baseline; `reset` moves the baseline instead of draining the
    // globals, which other in-process servers still export from.
    let alloc_now = pls_telemetry::alloc::stats();
    let d = {
        let mut base = state.alloc_base.lock().expect("alloc baseline lock");
        let d = alloc_now.delta_since(&base);
        if reset {
            *base = alloc_now;
        }
        d
    };
    s.push_counter("pls_alloc_allocs_total", d.allocs);
    s.push_counter("pls_alloc_frees_total", d.frees);
    s.push_counter("pls_alloc_bytes_total", d.allocated_bytes);
    s.push_counter("pls_alloc_freed_bytes_total", d.freed_bytes);
    s.push_gauge("pls_alloc_current_bytes", alloc_now.current_bytes as f64);
    s.push_gauge("pls_alloc_peak_bytes", alloc_now.peak_bytes as f64);
    if !wal_storages.is_empty() {
        // Group-commit batch depth: the deepest batch any shard's last
        // fsync made durable at once.
        let batch = wal_storages
            .iter()
            .map(|st| metrics::read(&st.metrics.fsync_batch, reset, Gauge::take, Gauge::get))
            .fold(0.0f64, f64::max);
        s.push_gauge(labeled("pls_queue_depth", &[("queue", "wal_fsync_batch")]), batch);
    }
    // Lock-contention observatory. This block must stay *last*, after
    // every shard/live_ft/live_staleness/observatory lock above: with
    // `reset`, the drain then covers this collection's own acquisitions,
    // keeping the conservation invariant (drained acquisitions == drained
    // wait observations) exact for delta-scrapers. Same-named sites — the
    // per-shard core mutexes (`engines`) and WAL locks (`wal`) — merge
    // into one family each, so exposition names are independent of the
    // shard count and `pls-bench compare` paths stay stable.
    for (site, stats) in lock_sites(state) {
        let merged = merged_site_snapshot(stats, reset);
        let site = [("site", site)];
        s.push_histogram(labeled("pls_lock_wait_us", &site), merged.wait_us);
        s.push_histogram(labeled("pls_lock_hold_us", &site), merged.hold_us);
        s.push_counter(labeled("pls_lock_acquisitions_total", &site), merged.acquisitions);
        s.push_counter(labeled("pls_lock_contended_total", &site), merged.contended);
    }
    s
}

/// Every instrumented lock site this server exports, with the stats
/// collections backing each: all per-shard core mutexes merge into the
/// single stable `engines` site, all per-shard WAL locks into `wal`,
/// and the cluster-level mutexes stand alone.
fn lock_sites(state: &State) -> Vec<(&'static str, Vec<&SiteStats>)> {
    let mut sites = vec![
        ("engines", state.shards.as_slice().iter().map(|sh| sh.lock_stats().as_ref()).collect()),
        ("live_ft", vec![state.live_ft.stats().as_ref()]),
        ("live_staleness", vec![state.live_staleness.stats().as_ref()]),
        ("observatory", vec![state.observatory.stats().as_ref()]),
        ("membership", vec![state.shards.membership_lock_stats().as_ref()]),
    ];
    let wals: Vec<&SiteStats> =
        state.shards.storages().map(|st| st.wal_lock_stats().as_ref()).collect();
    if !wals.is_empty() {
        sites.push(("wal", wals));
    }
    sites
}

/// The multiple of its interval a maintenance job waits before round
/// `tick`: deterministic per server in [0.5, 1.5), so servers drift apart
/// instead of digesting each other in lock-step. Each job draws from
/// its own `stream`.
fn jitter(seed: u64, stream: u64, me: usize, tick: u64) -> f64 {
    let r = splitmix64(seed ^ stream ^ me as u64 ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    0.5 + (r >> 11) as f64 / (1u64 << 53) as f64
}

/// One observatory scrape, on the maintenance thread's jittered cadence
/// or from [`Server::scrape_now`]: snapshot the full metrics (non-resetting —
/// the timeline stores cumulative totals and diffs them itself, so it
/// never steals deltas from external scrapers), then record it and
/// refresh the SLO accounting. `collect_metrics` briefly takes the
/// observatory lock itself (to export the SLO gauges) but has released
/// it before this function locks it to record — no nesting.
fn scrape_once(state: &Arc<State>) {
    let totals = collect_metrics(state, false);
    let at_unix_ms = now_ms();
    let uptime_us = state.started.elapsed().as_micros() as u64;
    state.observatory.lock().record(at_unix_ms, uptime_us, totals);
}

/// Checkpoints the given shards: one when its append counter trips
/// `checkpoint_every` (the others keep serving untouched), all of them
/// after a repair round.
fn checkpoint(state: &State, mut shards: std::ops::Range<usize>) -> Result<(), ClusterError> {
    shards.try_for_each(|i| state.shards.checkpoint(i))
}

/// Keys deep-checked per anti-entropy round: full snapshot pulls that
/// feed the live fault-tolerance gauge and the Hash/Round-Robin
/// divergence checks. The window rotates with the round counter, so
/// every key is eventually deep-checked while each round stays cheap.
const ANTIENTROPY_DEEP_KEYS: usize = 16;

/// Adversary thresholds the live §4.4 fault-tolerance gauge reports.
const LIVE_FT_THRESHOLDS: [usize; 3] = [1, 2, 4];

/// One periodic job of the maintenance thread: its interval, the
/// [`jitter`] stream it draws from, its round counter and when that
/// round is due.
struct Job {
    every: Duration,
    stream: u64,
    tick: u64,
    due: Instant,
}

impl Job {
    fn new(state: &State, every: Option<Duration>, stream: u64) -> Option<Job> {
        let mut job = Job { every: every?, stream, tick: 0, due: Instant::now() };
        job.schedule(state);
        Some(job)
    }

    /// Moves to the next round, a jittered interval from now.
    fn schedule(&mut self, state: &State) {
        self.tick = self.tick.wrapping_add(1);
        let jitter = jitter(state.cfg.seed, self.stream, state.cfg.me, self.tick);
        self.due = Instant::now() + self.every.mul_f64(jitter);
    }
}

/// The maintenance thread: anti-entropy repair (stream 0), the
/// staleness probe (`"STALE"`) and the observatory self-scrape
/// (`"SCRAPE"`), each on its own jittered cadence, one at a time. It
/// sleeps on the state's condvar until the earliest due time; a
/// membership install cuts the sleep short — migration starts at once
/// instead of waiting out the interval — and so does a kill.
fn maintenance_loop(state: &Arc<State>) {
    let cfg = &state.cfg;
    let mut repair = Job::new(state, cfg.anti_entropy, 0);
    let mut staleness = Job::new(state, cfg.staleness_probe, 0x5354_414C_4500);
    let mut scrape = Job::new(state, cfg.self_scrape, 0x5343_5241_5045);
    loop {
        let next = [&repair, &staleness, &scrape].into_iter().flatten().map(|job| job.due).min();
        let Some(next) = next else { return };
        let woken = {
            let mut signals = state.signals.lock().expect("signals lock");
            loop {
                if signals.stop {
                    return;
                }
                if repair.is_some() && std::mem::take(&mut signals.membership_changed) {
                    break true;
                }
                let wait = next.saturating_duration_since(Instant::now());
                if wait.is_zero() {
                    break false;
                }
                signals = state.wake.wait_timeout(signals, wait).expect("signals lock").0;
            }
        };
        if woken {
            pls_telemetry::debug!("antientropy_woken_by_membership", server = cfg.me);
        }
        let now = Instant::now();
        if let Some(job) = repair.as_mut().filter(|job| woken || job.due <= now) {
            state.metrics.antientropy_rounds.inc();
            let round_started = Instant::now();
            if let Err(err) = anti_entropy_round(state, job.tick) {
                pls_telemetry::debug!("antientropy_round_error", server = cfg.me, err = err);
            }
            state.metrics.antientropy_round_us.set(round_started.elapsed().as_micros() as f64);
            job.schedule(state);
        }
        if let Some(job) = staleness.as_mut().filter(|job| job.due <= now) {
            state.metrics.staleness_rounds.inc();
            let round_started = Instant::now();
            staleness_round(state, job.tick);
            state.metrics.staleness_round_us.set(round_started.elapsed().as_micros() as f64);
            job.schedule(state);
        }
        if let Some(job) = scrape.as_mut().filter(|job| job.due <= now) {
            scrape_once(state);
            job.schedule(state);
        }
    }
}

/// Keys sampled per staleness-probe round: the hottest probed keys
/// (the traffic that matters most) topped up with uniform picks that
/// rotate with the round counter, so cold keys cycle through too.
const STALENESS_SAMPLE_KEYS: usize = 16;

/// Of the sample, how many slots go to the hottest probed keys (from
/// the Space-Saving sketch) before uniform top-up.
const STALENESS_HOT_KEYS: usize = 8;

/// Partial-lookup probe counts `t` the live staleness gauge reports,
/// mirroring [`LIVE_FT_THRESHOLDS`].
const STALENESS_THRESHOLDS: [usize; 3] = [1, 2, 4];

/// One staleness measurement round: sample live keys, collect every
/// server's per-key version via the Digest RPC, and turn the observed
/// per-holder version lag into the PBS-style
/// `pls_live_staleness{strategy,t}` gauge — the estimated probability
/// that a partial lookup probing `t` of a key's `h` holders reaches at
/// least one fully fresh copy:
///
/// ```text
///   P(fresh) = 1 - C(h - f, t) / C(h, t)        (t capped at h)
/// ```
///
/// where `f` is the number of holders at the freshest observed
/// version — the probability that a uniform draw of `t` holders misses
/// all `f` fresh ones, complemented. Per-holder version lags also feed
/// the `pls_staleness_versions_behind` histogram. Versions are only
/// cluster-comparable under the broadcast strategies (FullReplication
/// / Fixed / RandomServer); under Hash / Round-Robin the gauge is an
/// upper bound on divergence, not an exact freshness probability.
fn staleness_round(state: &Arc<State>, round: u64) {
    let round_id = state.next_id();
    let deadline = Deadline::within(state.cfg.timeouts.op_budget);

    // Sample: hottest probed keys first, uniform rotating top-up after.
    let all_keys: Vec<Vec<u8>> = {
        let mut ks = state.shards.keys();
        ks.sort();
        ks
    };
    if all_keys.is_empty() {
        return;
    }
    let mut sample: Vec<Vec<u8>> = Vec::new();
    let mut picked: HashSet<Vec<u8>> = HashSet::new();
    let hot = state.metrics.hot_keys.snapshot();
    for e in hot.top(STALENESS_HOT_KEYS) {
        if all_keys.binary_search(&e.key).is_ok() && picked.insert(e.key.clone()) {
            sample.push(e.key.clone());
        }
    }
    let start = (round as usize).wrapping_mul(STALENESS_SAMPLE_KEYS) % all_keys.len();
    for i in 0..all_keys.len() {
        if sample.len() >= STALENESS_SAMPLE_KEYS {
            break;
        }
        let k = &all_keys[(start + i) % all_keys.len()];
        if picked.insert(k.clone()) {
            sample.push(k.clone());
        }
    }

    // Per (strategy, t): running (sum of per-key P(fresh), key count).
    let mut acc: BTreeMap<(usize, usize), (f64, u64)> = BTreeMap::new();
    for key in &sample {
        if deadline.expired() || state.stopping() {
            break;
        }
        // Everyone's digest of the key, this server's first. Only the
        // key's placement group can hold it: probing outside the group
        // would count non-holders as laggards.
        let mut digests: Vec<Digest> = state.shards.digest(key).into_iter().collect();
        for id in state.shards.group_of(key) {
            if id != state.shards.my_id() {
                digests.extend(state.pull_digest(id, round_id, key, &deadline));
            }
        }
        // The freshest version anyone knows counts even from a
        // holder-less server: a delete can leave the freshest server
        // empty while laggards still hold the entry.
        let (Some(spec), Some(max_ver)) =
            (digests.first().map(|d| d.spec), digests.iter().map(|d| d.version).max())
        else {
            continue;
        };
        // Holders: servers actually storing entries — the servers a
        // partial lookup can draw from.
        let holders: Vec<u64> = digests.iter().filter(|d| d.count > 0).map(|d| d.version).collect();
        let h = holders.len();
        if h == 0 {
            continue;
        }
        let mut fresh = 0usize;
        for &hv in &holders {
            state.metrics.staleness_versions_behind.observe(max_ver - hv);
            if hv == max_ver {
                fresh += 1;
            }
        }
        let sidx = strategy_index(spec);
        for t in STALENESS_THRESHOLDS {
            let tt = t.min(h);
            let p_fresh = 1.0 - choose(h - fresh, tt) / choose(h, tt);
            let slot = acc.entry((sidx, t)).or_insert((0.0, 0));
            slot.0 += p_fresh;
            slot.1 += 1;
        }
    }
    if !acc.is_empty() {
        let averaged: BTreeMap<(usize, usize), f64> =
            acc.into_iter().map(|(k, (sum, n))| (k, sum / n as f64)).collect();
        *state.live_staleness.lock() = averaged;
    }
}

/// Binomial coefficient as `f64` (`n` is at most the server count, so
/// precision is not a concern). `C(n, k) = 0` when `k > n`.
fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut out = 1.0;
    for i in 0..k {
        out *= (n - i) as f64 / (i + 1) as f64;
    }
    out
}

/// One anti-entropy round: build the key universe (ours plus every
/// reachable peer's), reconcile each key, checkpoint if anything was
/// repaired, and refresh the live fault-tolerance gauge. The whole
/// round runs under one operation budget; every peer call is
/// deadline-capped and breaker-gated, so a sick peer fast-fails
/// instead of wedging repair.
fn anti_entropy_round(state: &Arc<State>, round: u64) -> Result<(), ClusterError> {
    let me_idx = state.cfg.me;
    let round_id = state.next_id();
    let deadline = Deadline::within(state.cfg.timeouts.op_budget);
    let rpc = state.cfg.timeouts.rpc;

    // Membership gossip, piggybacked on the repair cadence: exchange
    // views with one rotating member per round. Both directions
    // converge — the exchange pushes our view and the reply carries
    // theirs, and whichever epoch is newer wins on install — so a
    // partitioned-away server catches up within one round of reaching
    // any up-to-date member.
    let others = state.shards.other_members();
    if !others.is_empty() {
        let view = state.shards.view();
        let (gossip_id, gossip_addr) = others[round as usize % others.len()].clone();
        if let Some(peer) = state.peers.client(gossip_id, &gossip_addr) {
            if let Ok(Response::Membership { epoch, members }) = peer.call_bounded(
                round_id,
                &Request::Membership { epoch: view.epoch(), members: members_parts(&view) },
                deadline.cap(rpc),
            ) {
                install_membership(state, Membership::from_parts(epoch, members));
            }
        }
    }

    // Key universe: a wiped server learns what it should hold from its
    // peers (order-preserving, set-backed dedup, then sorted so the
    // rotating deep window is stable across rounds).
    let mut keys: Vec<Vec<u8>> = state.shards.keys();
    state.pull_keys(round_id, &deadline, &mut keys);
    keys.sort();
    if keys.is_empty() {
        state.metrics.migration_pending.set(0.0);
        return Ok(());
    }

    let start = (round as usize).wrapping_mul(ANTIENTROPY_DEEP_KEYS) % keys.len();
    let deep: HashSet<usize> =
        (0..ANTIENTROPY_DEEP_KEYS.min(keys.len())).map(|i| (start + i) % keys.len()).collect();

    let mut ft_min: BTreeMap<usize, usize> = BTreeMap::new();
    let mut repaired = 0u64;
    for (ki, key) in keys.iter().enumerate() {
        if state.stopping() {
            return Ok(());
        }
        if deadline.expired() {
            pls_telemetry::debug!(
                "antientropy_budget_exhausted",
                req = round_id,
                server = me_idx,
                checked = ki,
                keys = keys.len()
            );
            break;
        }
        if reconcile_key(state, round_id, key, deep.contains(&ki), &deadline, &mut ft_min) {
            repaired += 1;
            state.metrics.antientropy_repairs.inc();
        }
    }

    // Migration lag converges to zero once every owed key has been
    // pulled — the churn gate greps for exactly that.
    state.metrics.migration_pending.set(state.shards.migration_pending(&keys) as f64);

    // TTL garbage collection of delete tombstones: markers older than
    // the TTL have done their job (every replica that will ever hear
    // about the delete has) and only cost memory and wire bytes. Runs
    // piggybacked on the repair round so GC cadence tracks repair
    // cadence — a tombstone always survives several repair intervals.
    let cutoff = now_ms().saturating_sub(state.cfg.tombstone_ttl.as_millis() as u64);
    let dropped = state.shards.gc_tombstones(cutoff);
    if dropped > 0 {
        state.metrics.tombstones_gc.add(dropped as u64);
    }

    if repaired > 0 {
        // Repairs bypass the WAL; persist them before the next crash.
        if let Err(err) = checkpoint(state, 0..state.shards.as_slice().len()) {
            pls_telemetry::warn!("antientropy_checkpoint_failed", server = me_idx, err = err);
        }
    }
    if !ft_min.is_empty() {
        *state.live_ft.lock() = ft_min;
    }
    pls_telemetry::debug!(
        "antientropy_round_done",
        req = round_id,
        server = me_idx,
        keys = keys.len(),
        repaired = repaired
    );
    Ok(())
}

/// Reconciles one key against the peers: a cheap digest comparison for
/// every key, a deep check (full snapshot pulls, which also feed the
/// live fault-tolerance rows) for the rotating window or when the
/// digests already look wrong, and a [`Shards::rebuild`] repair when
/// this server's share is provably divergent. What is compared and what
/// is adopted are `pls_wire::shard`'s rules; this function does the
/// pulls. Returns whether a repair was applied.
fn reconcile_key(
    state: &Arc<State>,
    round_id: u64,
    key: &[u8],
    deep: bool,
    deadline: &Deadline,
    ft_min: &mut BTreeMap<usize, usize>,
) -> bool {
    let Some(plan) = state.shards.repair_plan(key) else {
        return false;
    };
    let migrating = plan.migrating;

    // Cheap phase: the digest of every reachable donor that knows the key.
    let local = state.shards.digest(key);
    let mut digests: Vec<Digest> = Vec::new();
    for &id in &plan.donors {
        digests.extend(state.pull_digest(id, round_id, key, deadline));
    }
    if digests.is_empty() && !migrating {
        // No reachable donor knows the key: nothing to compare against,
        // nothing to repair from. (A migrating key proceeds regardless:
        // the local copy must still be re-homed into its new group
        // shape even when every donor is briefly unreachable.)
        return false;
    }
    // The strategy in effect: ours if the key exists here, otherwise
    // whatever the donors manage it under.
    let spec = local.or(digests.first().copied()).map_or(state.cfg.spec, |d| d.spec);
    let mut suspect = migrating || digest_verdict(spec, local.as_ref(), &digests);
    if !deep && !suspect {
        return false;
    }

    // Deep phase: full snapshots — the live placement rows for the
    // §4.4 gauge, ground truth for the Hash/Round-Robin checks, and
    // the donor data a repair rebuilds from. This server's own row and
    // the digest that guards the repair are one capture: a write acked
    // after it makes `rebuild` refuse instead of wiping it with a
    // rebuild from stale data.
    let my_id = state.shards.my_id();
    let mine = state.shards.snapshot(key);
    let guard = mine.as_ref().map_or(Digest::absent(spec), KeySnapshot::digest);
    // `rows` is what a repair merges, this server's own first;
    // `placement` is what the *current* group holds right now, one row
    // per member (an unreachable peer's stays empty — the pessimistic
    // reading; a grace-overlap donor outside the group contributes data
    // to the merge only).
    let mut rows: Vec<KeySnapshot> = Vec::new();
    let mut placement = vec![Vec::new(); plan.group.len()];
    let mut donor_count = 0usize;
    for &id in std::iter::once(&my_id).chain(&plan.donors) {
        let row = if id == my_id {
            mine.clone()
        } else {
            state.pull_snapshot(id, round_id, key, deadline)
        };
        let Some(row) = row else { continue };
        donor_count += usize::from(id != my_id);
        if let Some(pos) = group_index(&plan.group, id) {
            placement[pos] = row.entries.clone();
        }
        rows.push(row);
    }
    if donor_count == 0 && !migrating {
        return false;
    }
    let merged = merge_donor_rows(key, spec, &rows);

    // Min across checked keys, per threshold.
    let placement = Placement::from_rows(placement);
    for t in LIVE_FT_THRESHOLDS {
        let tol = greedy_tolerance(&placement, t);
        ft_min.entry(t).and_modify(|m| *m = (*m).min(tol)).or_insert(tol);
    }

    // A migrating engine's shape predates the current group, so its
    // share would be judged against the wrong geometry (and `suspect`
    // is already set, as it is for a key missing here).
    if let (false, Some(mine)) = (migrating, &mine) {
        suspect |= state.shards.deep_verdict(mine, &merged);
    }
    if !suspect {
        return false;
    }

    let rebuilt = entries_for_rebuild(&rows, merged);
    let migrated_entries = (rebuilt.entries.len() + rebuilt.positions.len()) as u64;
    match state.shards.rebuild(rebuilt, Some(guard)) {
        Ok(Rebuilt::Refused) => {
            pls_telemetry::debug!(
                "antientropy_repair_skipped_stale",
                req = round_id,
                server = state.cfg.me,
                key_bytes = key.len()
            );
            false
        }
        Ok(did) => {
            state.metrics.engines_created.add(u64::from(did == Rebuilt::Created));
            if migrating {
                state.metrics.migration_entries.add(migrated_entries);
                pls_telemetry::info!(
                    "migration_key_rehomed",
                    req = round_id,
                    server = state.cfg.me,
                    epoch = plan.epoch,
                    key_bytes = key.len(),
                    entries = migrated_entries
                );
            }
            pls_telemetry::info!(
                "antientropy_repaired",
                req = round_id,
                server = state.cfg.me,
                key_bytes = key.len()
            );
            true
        }
        Err(err) => {
            pls_telemetry::warn!(
                "antientropy_repair_failed",
                req = round_id,
                server = state.cfg.me,
                err = err
            );
            false
        }
    }
}

/// Every span retained for `req` across the cluster
/// ([`merge_spans`](crate::client::merge_spans) of every reachable
/// peer's [`Request::Trace`] answer). Unreachable peers are skipped — a
/// partial timeline beats none.
fn cluster_spans(state: &Arc<State>, req: u64) -> Vec<SpanRecord> {
    let id = state.next_id();
    let remote = state.shards.other_members().into_iter().filter_map(|(pid, addr)| {
        match state.peers.client(pid, &addr)?.call(id, &Request::Trace { req }) {
            Ok(Response::Spans(spans)) => Some(spans),
            _ => None,
        }
    });
    crate::client::merge_spans(req, remote.collect())
}

/// Ring spans served by `/debug/recent`, at most this many (the most
/// recent ones).
const RECENT_SPAN_LIMIT: usize = 256;

/// The `/debug/recent` payload: the installed recorder's most recent
/// ring spans, its pinned slow requests, and its counters. An empty
/// object shape (zero capacity) when no recorder is installed.
fn recent_json() -> String {
    use pls_telemetry::json::{array, Object};
    use pls_telemetry::recorder::spans_to_json;
    let Some(recorder) = pls_telemetry::recorder::installed() else {
        return Object::new().u64("capacity", 0).field("spans", "[]").field("pinned", "[]").build();
    };
    let ring = recorder.snapshot();
    let tail = ring.len().saturating_sub(RECENT_SPAN_LIMIT);
    let pinned = array(recorder.pinned().iter().map(|p| {
        Object::new().u64("req_id", p.req_id).field("spans", &spans_to_json(&p.spans)).build()
    }));
    Object::new()
        .u64("capacity", recorder.capacity() as u64)
        .u64("recorded", recorder.recorded.get())
        .u64("overwrites", recorder.overwrites.get())
        .u64("slow_threshold_us", recorder.slow_threshold_us())
        .field("spans", &spans_to_json(&ring[tail..]))
        .field("pinned", &pinned)
        .build()
}

fn serve_connection(state: &Arc<State>, mut socket: &TcpStream) -> Result<(), ClusterError> {
    while let Some((req_id, _, payload)) = read_frame(&mut socket)? {
        state.metrics.bytes_read.add(payload.len() as u64 + FRAME_OVERHEAD);
        let (response, service_us) = match Request::decode(&payload) {
            Ok(req) => {
                let op = req.op();
                state.metrics.requests[op as usize].inc();
                let mut span =
                    Span::enter_with_id(Level::Debug, module_path!(), op.as_str(), req_id);
                span.field("server", state.cfg.me);
                state.metrics.inflight.add(1.0);
                let handled = handle_request(state, req_id, req);
                state.metrics.inflight.add(-1.0);
                let resp = match handled {
                    Ok(resp) => resp,
                    Err(err) => {
                        state.metrics.request_errors.inc();
                        pls_telemetry::debug!(
                            "request_error",
                            req = req_id,
                            server = state.cfg.me,
                            op = op.as_str(),
                            err = err
                        );
                        Response::Error(err.to_string())
                    }
                };
                let elapsed_us = span.elapsed_us();
                state.metrics.request_latency_us.observe(elapsed_us);
                if let Some(slow_ms) = state.cfg.slow_ms {
                    if elapsed_us >= slow_ms.saturating_mul(1_000) {
                        pls_telemetry::warn!(
                            "slow_request",
                            req = req_id,
                            server = state.cfg.me,
                            op = op.as_str(),
                            elapsed_us = elapsed_us,
                            threshold_ms = slow_ms
                        );
                    }
                }
                (resp, elapsed_us)
            }
            // A recognizably-framed request with an opcode this build
            // doesn't know is a version skew, not corruption: refuse it
            // with a structured error frame and keep the connection —
            // newer peers probing during a rolling upgrade must not
            // poison their pooled connections (or our decode-error
            // counter) on every probe.
            Err(ClusterError::Unsupported(op)) => {
                pls_telemetry::debug!(
                    "unsupported_opcode",
                    req = req_id,
                    server = state.cfg.me,
                    op = op
                );
                (Response::Error(format!("{UNSUPPORTED_PREFIX}{op:#04x}")), 0)
            }
            Err(err) => {
                state.metrics.decode_errors.inc();
                pls_telemetry::warn!(
                    "decode_error",
                    req = req_id,
                    server = state.cfg.me,
                    err = err
                );
                (Response::Error(err.to_string()), 0)
            }
        };
        let frame = response.encode();
        state.metrics.bytes_written.add(frame.len() as u64 + FRAME_OVERHEAD);
        // Echo the request's id so the client can pair the response, and
        // stamp the reply frame with the server-side handling time so
        // the caller can split RTT into network versus service time.
        write_frame(&mut socket, req_id, service_us, &frame)?;
    }
    Ok(())
}

fn handle_request(state: &Arc<State>, req_id: u64, req: Request) -> Result<Response, ClusterError> {
    let client = Endpoint::client(0);
    match req {
        Request::Place { key, entries, spec } => {
            let msg = versioned_client(Message::PlaceReq { entries });
            apply(state, req_id, &key, client, spec, msg)?;
            Ok(Response::Ok)
        }
        Request::Add { key, entry } => {
            state.shards.check_rr_coordinator(&key)?;
            let msg = versioned_client(Message::AddReq { v: entry });
            apply(state, req_id, &key, client, None, msg)?;
            Ok(Response::Ok)
        }
        Request::Delete { key, entry } => {
            state.shards.check_rr_coordinator(&key)?;
            let msg = versioned_client(Message::DeleteReq { v: entry });
            apply(state, req_id, &key, client, None, msg)?;
            Ok(Response::Ok)
        }
        Request::Probe { key, t } => {
            let mut span =
                Span::enter_with_id(Level::Trace, module_path!(), "probe_sample", req_id);
            span.field("server", state.cfg.me);
            let (spec, entries) = state.shards.probe(&key, t as usize);
            state.metrics.probes[strategy_index(spec)].inc();
            // Live quality accounting: who asked, and what they got.
            state.metrics.record_probe_answer(&key, &entries);
            state.metrics.probe_latency_us.observe(span.elapsed_us());
            Ok(Response::Entries(entries))
        }
        Request::Internal { from, key, spec, msg } => {
            apply(state, req_id, &key, Request::internal_sender(from), spec, msg)?;
            Ok(Response::Ok)
        }
        Request::Status => {
            let status = state.shards.status();
            Ok(Response::Status { keys: status.keys, entries: status.entries })
        }
        Request::Keys => Ok(Response::Keys(state.shards.keys())),
        Request::Snapshot { key } => Ok(KeySnapshot::into_response(state.shards.snapshot(&key))),
        // Cheap placement digest for anti-entropy: set hashes and
        // counts, no entry payloads on the wire.
        Request::Digest { key } => Ok(Digest::into_response(state.shards.digest(&key))),
        Request::SpecOf { key } => Ok(Response::SpecOf(state.shards.spec_of(&key))),
        Request::Metrics { reset } => Ok(Response::Metrics(collect_metrics(state, reset))),
        Request::Trace { req } => {
            // Everything the flight recorder on this process retains for
            // the request: ring records plus any pinned slow-request
            // timeline. Empty when no recorder is installed.
            let spans =
                pls_telemetry::recorder::installed().map(|r| r.spans_for(req)).unwrap_or_default();
            Ok(Response::Spans(spans))
        }
        Request::Membership { epoch, members } => {
            // Gossip exchange: adopt the sender's view when it's newer
            // (epoch 0 marks a plain fetch — nothing to install), then
            // reply with whatever this server now believes. Both sides
            // of the exchange end on the max of the two epochs.
            if epoch > 0 {
                install_membership(state, Membership::from_parts(epoch, members));
            }
            let view = state.shards.view();
            Ok(Response::Membership { epoch: view.epoch(), members: members_parts(&view) })
        }
        Request::JoinLeave { join, leave } => {
            // A racing admin call (or gossip) that installs first makes
            // `install_membership` refuse; this call then starts over from
            // the fresh view, so the joiner's id is allocated against the
            // view that precedes it and the reply is a view this server
            // installed.
            let deadline = Deadline::within(state.cfg.timeouts.op_budget);
            let (view, next, joiner) = loop {
                let view = state.shards.view();
                let (next, joiner) = match (&join, leave) {
                    (Some(addr), None) => {
                        let (next, id) = view.with_join(addr);
                        (next, Some(id))
                    }
                    (None, Some(id)) => {
                        let next = view.with_leave(id).ok_or_else(|| {
                            ClusterError::Remote(format!(
                                "cannot remove server {id}: unknown member or last member standing"
                            ))
                        })?;
                        (next, None)
                    }
                    _ => {
                        return Err(ClusterError::Remote(
                            "exactly one of join or leave is required".into(),
                        ))
                    }
                };
                if install_membership(state, next.clone()) {
                    break (view, next, joiner);
                }
                if deadline.expired() {
                    return Err(ClusterError::Timeout("op-budget"));
                }
            };
            // Eager fan-out: push the bumped view to every other member
            // of the NEW view, plus the leaver (so its epoch gauge and
            // grace logic converge before its shutdown). Not to the
            // joiner: it boots from this reply and is not serving yet —
            // a call to its bound-but-idle port would hold this reply
            // for a whole RPC deadline, which is the caller's too.
            // Best-effort and deadline-capped — gossip repairs whoever
            // was unreachable.
            let rpc = state.cfg.timeouts.rpc;
            let announce =
                Request::Membership { epoch: next.epoch(), members: members_parts(&next) };
            let mut targets: Vec<(u64, String)> = next
                .members()
                .iter()
                .filter(|m| m.id != state.shards.my_id() && Some(m.id) != joiner)
                .map(|m| (m.id, m.addr.clone()))
                .collect();
            if let Some(leaver) = leave {
                if let Some(addr) = view.addr_of(leaver) {
                    targets.push((leaver, addr.to_string()));
                }
            }
            for (id, addr) in targets {
                let Some(peer) = state.peers.client(id, &addr) else { continue };
                let _ = peer.call_bounded(req_id, &announce, deadline.cap(rpc));
            }
            // Post-fan-out prune: the farewell announcement re-created
            // the leaver's client; drop it again now that it's sent.
            state.peers.prune(&state.shards.view());
            Ok(Response::Membership { epoch: next.epoch(), members: members_parts(&next) })
        }
    }
}

/// A membership view flattened to the wire tuples `(id, addr)` the
/// Membership request/response carry.
fn members_parts(m: &Membership) -> Vec<(u64, String)> {
    m.members().iter().map(|mm| (mm.id, mm.addr.clone())).collect()
}

/// Installs a membership view if it's strictly newer than the current
/// one: bumps the epoch gauge, prunes peer clients for departed members
/// (dropping a client drops its breaker and probe-demotion state — a
/// rejoining server starts with a clean slate), and wakes the
/// maintenance thread so migration starts immediately. Returns whether
/// the view was adopted.
fn install_membership(state: &Arc<State>, next: Membership) -> bool {
    if !state.shards.install_membership(next.clone()) {
        return false;
    }
    state.metrics.membership_epoch.set(next.epoch() as f64);
    let purged = state.peers.prune(&next);
    pls_telemetry::info!(
        "membership_installed",
        server = state.cfg.me,
        epoch = next.epoch(),
        members = next.len(),
        peers_purged = purged
    );
    state.signals.lock().expect("signals lock").membership_changed = true;
    state.wake.notify_all();
    true
}

/// Applies a message to the key's engine ([`Shards::apply`]: sender
/// check, WAL append and the whole local cascade in one critical
/// section) and carries out the remote deliveries it produced, outside
/// the lock, as acknowledged `Internal` RPCs. Unreachable peers are
/// skipped — a message to a crashed server is simply lost, matching the
/// paper's failure model.
fn apply(
    state: &Arc<State>,
    req_id: u64,
    key: &[u8],
    from: Endpoint,
    spec: Option<StrategySpec>,
    msg: Message<Entry>,
) -> Result<(), ClusterError> {
    // One budget spans the whole fan-out: however many peers and retries
    // this update touches, the triggering request is answered in bounded
    // time.
    let deadline = Deadline::within(state.cfg.timeouts.op_budget);
    let Applied { shard, created, spec_override, remote } =
        state.shards.apply(key, from, spec, msg)?;
    state.metrics.engines_created.add(u64::from(created));
    for (dest, m) in remote {
        if state.stopping() {
            // Killed mid-fan-out: the rest is lost with the process, and
            // nothing is fsynced or acked.
            return Err(ClusterError::NoServerAvailable);
        }
        // `from` carries this server's global member id: the receiver
        // translates it into the sender's position within the key's
        // placement group before the engine sees it.
        let req = Request::Internal {
            from: state.shards.my_id() as u32,
            key: key.to_vec(),
            spec: spec_override,
            msg: m,
        };
        state.metrics.internal_sent.inc();
        // Internal fan-out inherits the triggering request's id,
        // so one client update correlates across every server —
        // and each send is a recorded span, so a request's
        // timeline shows how long every peer delivery took.
        let mut send_span =
            Span::enter_with_id(Level::Trace, module_path!(), "internal_send", req_id);
        send_span.field("server", state.cfg.me);
        send_span.field("peer", dest);
        let Some(peer) = state.peer_for(dest) else {
            // The destination left the membership between the engine's
            // fan-out decision and this send: the delivery is lost,
            // like a message to a crashed server.
            state.metrics.internal_send_failures.inc();
            pls_telemetry::debug!(
                "internal_send_no_member",
                req = req_id,
                server = state.cfg.me,
                peer = dest
            );
            continue;
        };
        let call = peer.call_retry(req_id, &req, &state.cfg.retry, deadline);
        drop(send_span);
        if let Err(err) = call {
            state.metrics.internal_send_failures.inc();
            if err.is_unavailable() {
                // Crashed/unreachable/silent peer: drop, like the
                // simulator.
                pls_telemetry::debug!(
                    "internal_send_dropped",
                    req = req_id,
                    server = state.cfg.me,
                    peer = dest,
                    err = err
                );
            } else {
                pls_telemetry::warn!(
                    "internal_rejected",
                    req = req_id,
                    server = state.cfg.me,
                    peer = dest,
                    err = err
                );
            }
        }
    }
    if let Some(storage) = state.shards.as_slice()[shard].storage() {
        // Group-commit fsync of the owning shard's segment before the
        // ack: if the caller hears Ok, the record survives a crash.
        // Concurrent appends to the same shard coalesce into one fsync;
        // appends to other shards fsync independently in parallel. A
        // sync failure fails the request — never ack state the disk may
        // not hold.
        storage.sync()?;
        if storage.should_checkpoint(state.cfg.checkpoint_every) {
            if let Err(err) = checkpoint(state, shard..shard + 1) {
                pls_telemetry::warn!("checkpoint_failed", server = state.cfg.me, err = err);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_config_is_rejected_at_bind() {
        let cfg =
            ServerConfig::new(7, vec!["127.0.0.1:0".parse().unwrap()], StrategySpec::fixed(1), 0);
        assert!(matches!(Server::bind(cfg), Err(ClusterError::Config(_))));
        let cfg = ServerConfig::new(
            0,
            vec!["127.0.0.1:0".parse().unwrap(); 2],
            StrategySpec::fixed(0),
            0,
        );
        assert!(matches!(Server::bind(cfg), Err(ClusterError::Config(_))));
    }
}
