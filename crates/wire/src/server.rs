//! The server without its sockets: [`Node`] is one member's whole request
//! path. A request comes in decoded, with its id and the time; what comes
//! out is a [`Plan`] — the peer calls to make first (an update's
//! deliveries, a membership change's announcements), then the reply. The
//! background work is [`Maintenance`](crate::maintenance::Maintenance), on
//! the same terms. The TCP server in `pls-cluster` is the shell around
//! both: it reads and writes frames, dials peers and keeps the clock.
//!
//! Two rules make that split safe:
//!
//! * **No guard across a peer call.** Every method here returns with its
//!   locks released, and a plan is carried out between two calls, so no
//!   [`TimedMutex`] of the node or of its [`Shards`] is held while the
//!   shell waits on a peer. Round-Robin migration's RPC graph has cycles
//!   (coordinator → holder → head server → holder): a handler blocked on a
//!   peer while holding a shard lock is a distributed deadlock.
//! * **Time is an argument.** `now_ms` is Unix milliseconds from the
//!   shell's monotonic clock; nothing here reads a clock, sleeps or touches
//!   a socket.

use core::net::SocketAddr;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pls_core::membership::DEFAULT_GROUP_SIZE;
use pls_core::{GroupRouter, Membership, Message, RoutingTable, StrategySpec};
use pls_net::Endpoint;
use pls_telemetry::snapshot::labeled;
use pls_telemetry::trace::Span;
use pls_telemetry::{Counter, Gauge, Level, MetricsSnapshot, SiteStats, TimedMutex};

use crate::error::ClusterError;
use crate::metrics::{
    self, merged_site_snapshot, strategy_index, views, ReqOp, ServerMetrics, STRATEGY_LABELS,
};
use crate::proto::{Entry, Request, Response};
use crate::retry::{splitmix64, Timeouts};
use crate::shard::{Applied, Shards};
use crate::storage::{self, Recovered, Storage};

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
    /// Durable data directory (write-ahead log + checkpoints). `None`
    /// keeps the server memory-only, exactly as before.
    pub data_dir: Option<PathBuf>,
    /// WAL appends between checkpoint snapshots (ignored without
    /// `data_dir`).
    pub checkpoint_every: u64,
    /// Background anti-entropy repair interval; each round fires after
    /// a jittered multiple (0.5x–1.5x) of this so servers do not
    /// synchronize, and refreshes `pls_live_staleness` from the digests
    /// it compares. `None` disables both.
    pub anti_entropy: Option<Duration>,
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
    /// through explicit [`Node::scrape`] calls.
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
            data_dir: None,
            checkpoint_every: 256,
            anti_entropy: None,
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

/// The shell's own series, appended to every metrics collection: the
/// robustness totals of its peer clients, which only the shell holds.
pub type ShellRows = Box<dyn Fn(&mut MetricsSnapshot) + Send + Sync>;

/// One member's state and request path. See the module documentation.
pub struct Node {
    cfg: ServerConfig,
    shards: Shards,
    metrics: ServerMetrics,
    /// Generator for ids of *server-originated* requests (maintenance
    /// pulls, the trace fan-out). Client-originated work keeps the id the
    /// client stamped on its frame, and its fan-out inherits it.
    next_id: AtomicU64,
    /// The newest epoch installed here, readable without the membership
    /// lock.
    epoch: AtomicU64,
    /// Latest live §4.4 fault tolerance per adversary threshold `t`,
    /// refreshed by anti-entropy rounds (min across deep-checked keys).
    pub(crate) live_ft: TimedMutex<BTreeMap<usize, usize>>,
    /// Latest live PBS-style staleness estimate per `(strategy index, t)`,
    /// averaged across the keys an anti-entropy round compared.
    pub(crate) live_staleness: TimedMutex<BTreeMap<(usize, usize), f64>>,
    /// Process-wide allocation counters as of this server's last
    /// `Metrics{reset}`. The counting allocator's totals are shared by
    /// every server in the process, so each server exports deltas
    /// against its own baseline instead of draining the globals out
    /// from under its siblings.
    alloc_base: Mutex<pls_telemetry::AllocStats>,
    observatory: TimedMutex<Observatory>,
    /// When the node was built: what a scrape's uptime counts from.
    started_ms: u64,
    shell_rows: ShellRows,
}

/// A request the node has handled: the peer calls the shell makes for it,
/// in order, before [`Node::answer`] replies. Most requests make none.
#[must_use]
pub struct Plan {
    /// `(member id, request)`: an update's `Internal` deliveries in
    /// generation order, or a membership change's announcements — to every
    /// other member of the new view but a joiner (which boots from the
    /// reply and is not serving yet), and to a leaver. Each carries the
    /// request's id; one that fails is lost, as a message to a crashed
    /// server is in the paper's failure model.
    pub calls: Vec<(u64, Request)>,
    /// Whether a call that finds its peer unavailable is retried within
    /// the configured policy: an update's deliveries are, best-effort
    /// announcements are not.
    pub retry: bool,
    reply: Result<Response, ClusterError>,
    /// The shard whose WAL segment an update commits to before its `Ok`.
    commit: Option<usize>,
    /// The request's label and span; `None` for a frame that did not
    /// decode.
    flight: Option<(ReqOp, Span)>,
    req_id: u64,
}

impl Node {
    /// The node of `cfg` over the storages of its data dir (`None` for a
    /// memory-only shard), with whatever they `recovered` replayed, built
    /// at `now_ms`. Returns it with the number of keys recovered.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an invalid strategy or an id outside
    /// the initial membership.
    ///
    /// # Panics
    ///
    /// If `storages` is empty.
    pub fn new(
        cfg: ServerConfig,
        storages: Vec<Option<Arc<Storage>>>,
        recovered: Vec<Recovered>,
        shell_rows: ShellRows,
        now_ms: u64,
    ) -> Result<(Node, usize), ClusterError> {
        // The explicit view a joiner carries, or epoch-1 bootstrap over
        // the static peer list (ids = list positions).
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
        let metrics = ServerMetrics::new();
        metrics.membership_epoch.set(initial.epoch() as f64);
        let epoch = AtomicU64::new(initial.epoch());
        let table = RoutingTable::new(GroupRouter::new(group_size, cfg.seed), initial);
        let shards = Shards::new(my_id, cfg.spec, cfg.seed, table, storages);
        let keys = shards.replay(recovered, cfg.me);
        metrics.engines_created.add(keys as u64);
        let node = Node {
            next_id: AtomicU64::new(splitmix64(cfg.seed ^ cfg.me as u64)),
            observatory: TimedMutex::new("observatory", Observatory::new(&cfg)),
            cfg,
            shards,
            metrics,
            epoch,
            live_ft: TimedMutex::new("live_ft", BTreeMap::new()),
            live_staleness: TimedMutex::new("live_staleness", BTreeMap::new()),
            alloc_base: Mutex::default(),
            started_ms: now_ms,
            shell_rows,
        };
        Ok((node, keys))
    }

    /// The configuration the node was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The node's keys, engines, storage and membership table.
    pub fn shards(&self) -> &Shards {
        &self.shards
    }

    /// The node's runtime metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The newest membership epoch installed here.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// A fresh request id for work this server originates itself.
    pub fn next_id(&self) -> u64 {
        // Weyl sequence: full-period, cheap, and visually distinct ids.
        self.next_id.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
    }

    /// Handles one request frame's payload as [`Request::decode`] read it:
    /// the per-op counter, the in-flight gauge and the request span start
    /// here, and [`Node::answer`] ends them. A request that does not decode
    /// is answered with an error, the connection kept.
    pub fn serve(&self, req_id: u64, decoded: Result<Request, ClusterError>, now_ms: u64) -> Plan {
        let me = self.cfg.me;
        let mut plan = Plan {
            calls: Vec::new(),
            retry: false,
            reply: Ok(Response::Ok),
            commit: None,
            flight: None,
            req_id,
        };
        let req = match decoded {
            Ok(req) => req,
            Err(err) => {
                self.metrics.decode_errors.inc();
                pls_telemetry::warn!("decode_error", req = req_id, server = me, err = err);
                plan.reply = Ok(Response::Error(err.to_string()));
                return plan;
            }
        };
        let op = req.op();
        self.metrics.requests[op as usize].inc();
        let mut span = Span::enter_with_id(Level::Debug, module_path!(), op.as_str(), req_id);
        span.field("server", me);
        self.metrics.inflight.add(1.0);
        plan.flight = Some((op, span));
        plan.reply = self.handle(&mut plan, req, now_ms);
        plan
    }

    /// Accounts one call of a [`Plan`]: `failed` is why the call to member
    /// `dest` did not land, if it did not.
    pub fn delivered(&self, req_id: u64, dest: u64, failed: Option<ClusterError>) {
        self.metrics.internal_sent.inc();
        let Some(err) = failed else { return };
        self.metrics.internal_send_failures.inc();
        // A peer that is down is the paper's failure model; one that
        // refuses the message is worth a warning.
        let dropped = err.is_unavailable() || err == ClusterError::NoServerAvailable;
        let level = if dropped { Level::Debug } else { Level::Warn };
        let me = self.cfg.me;
        pls_telemetry::event!(
            level,
            "internal_send_failed",
            req = req_id,
            server = me,
            peer = dest,
            err = err
        );
    }

    /// Replies to a request once its plan's calls are made (`Err` when the
    /// shell gave up on them). An update first group-commits its shard's
    /// WAL segment, so an `Ok` means the record survives a crash, and a
    /// sync failure fails the request — never ack what the disk may not
    /// hold. Returns the reply and the microseconds spent serving it (the
    /// reply frame's `service_us`), with the latency histogram and the
    /// slow-request warning fed.
    pub fn answer(&self, plan: Plan, called: Result<(), ClusterError>) -> (Response, u64) {
        let Plan { reply: planned, commit, flight, req_id, .. } = plan;
        let (me, op) = (self.cfg.me, flight.as_ref().map_or("", |(op, _)| op.as_str()));
        let reply = called.and_then(|()| commit.map_or(Ok(()), |shard| self.sync(shard)));
        let reply = reply.and(planned).unwrap_or_else(|err| {
            self.metrics.request_errors.inc();
            pls_telemetry::debug!("request_error", req = req_id, server = me, op = op, err = err);
            Response::Error(err.to_string())
        });
        // A frame that did not decode was refused without accounting.
        let Some((_, span)) = flight else { return (reply, 0) };
        self.metrics.inflight.add(-1.0);
        let elapsed_us = span.elapsed_us();
        self.metrics.request_latency_us.observe(elapsed_us);
        let slow_ms = self.cfg.slow_ms;
        if let Some(threshold_ms) = slow_ms.filter(|ms| elapsed_us >= ms.saturating_mul(1_000)) {
            pls_telemetry::warn!(
                "slow_request",
                req = req_id,
                server = me,
                op = op,
                elapsed_us = elapsed_us,
                threshold_ms = threshold_ms
            );
        }
        (reply, elapsed_us)
    }

    fn handle(&self, plan: &mut Plan, req: Request, now_ms: u64) -> Result<Response, ClusterError> {
        // A client update is wrapped in a version envelope before the WAL
        // append: the engine assigns the key's next version itself, so the
        // envelope contributes the stamp, and replay re-derives the same
        // version from the logged record.
        let client = Endpoint::client(0);
        let versioned =
            |msg| Message::Versioned { version: 0, stamp_ms: now_ms, msg: Box::new(msg) };
        Ok(match req {
            Request::Place { key, entries, spec } => {
                self.apply(plan, &key, client, spec, versioned(Message::PlaceReq { entries }))?
            }
            Request::Add { key, entry } => {
                self.shards.check_rr_coordinator(&key)?;
                self.apply(plan, &key, client, None, versioned(Message::AddReq { v: entry }))?
            }
            Request::Delete { key, entry } => {
                self.shards.check_rr_coordinator(&key)?;
                self.apply(plan, &key, client, None, versioned(Message::DeleteReq { v: entry }))?
            }
            Request::Internal { from, key, spec, msg } => {
                self.apply(plan, &key, Request::internal_sender(from), spec, msg)?
            }
            Request::Probe { key, t } => {
                let mut span =
                    Span::enter_with_id(Level::Trace, module_path!(), "probe_sample", plan.req_id);
                span.field("server", self.cfg.me);
                let (spec, entries) = self.shards.probe(&key, t as usize);
                self.metrics.probes[strategy_index(spec)].inc();
                self.metrics.hot_keys.offer(&key);
                self.metrics.probe_latency_us.observe(span.elapsed_us());
                Response::Entries(entries)
            }
            Request::Status => {
                let status = self.shards.status();
                Response::Status { keys: status.keys, entries: status.entries }
            }
            Request::Keys => Response::Keys(self.shards.keys()),
            Request::Snapshot { key } => Response::Snapshot(self.shards.snapshot(&key)),
            Request::Digest { key } => Response::Digest(self.shards.digest(&key)),
            Request::SpecOf { key } => Response::SpecOf(self.shards.spec_of(&key)),
            Request::Metrics { reset } => Response::Metrics(self.collect_metrics(reset)),
            // What this process's flight recorder retains for the request.
            Request::Trace { req } => Response::Spans(
                pls_telemetry::recorder::installed().map(|r| r.spans_for(req)).unwrap_or_default(),
            ),
            // Gossip: adopt the sender's view when it is newer (a fetch's
            // epoch-0 view never is), then reply with this server's. Both
            // sides of the exchange end on the max of the two epochs.
            Request::Membership(view) => {
                self.install(view);
                Response::Membership(self.shards.view())
            }
            Request::JoinLeave { join, leave } => self.join_leave(plan, join, leave)?,
        })
    }

    /// Applies a message to the key's engine ([`Shards::apply`]: sender
    /// check, WAL append and the whole local cascade in one critical
    /// section) and plans the remote deliveries it produced, each as an
    /// `Internal` request from this server's member id.
    fn apply(
        &self,
        plan: &mut Plan,
        key: &[u8],
        from: Endpoint,
        spec: Option<StrategySpec>,
        msg: Message<Entry>,
    ) -> Result<Response, ClusterError> {
        let Applied { shard, created, spec_override, remote } =
            self.shards.apply(key, from, spec, msg)?;
        self.metrics.engines_created.add(u64::from(created));
        let from = self.shards.my_id() as u32;
        let internal =
            |msg| Request::Internal { from, key: key.to_vec(), spec: spec_override, msg };
        plan.calls = remote.into_iter().map(|(dest, msg)| (dest, internal(msg))).collect();
        (plan.retry, plan.commit) = (true, Some(shard));
        Ok(Response::Ok)
    }

    fn sync(&self, shard: usize) -> Result<(), ClusterError> {
        let Some(storage) = self.shards.as_slice()[shard].storage() else { return Ok(()) };
        // Concurrent appends to one shard coalesce into one fsync; other
        // shards fsync independently.
        storage.sync()?;
        if storage.should_checkpoint(self.cfg.checkpoint_every) {
            if let Err(err) = self.shards.checkpoint(shard) {
                pls_telemetry::warn!("checkpoint_failed", server = self.cfg.me, err = err);
            }
        }
        Ok(())
    }

    /// An admin join or leave, announced to the members. A racing admin
    /// call (or gossip) that installs first makes [`Node::install`]
    /// refuse; this call then starts over from the fresh view, so a
    /// joiner's id is allocated against the view that precedes it and the
    /// reply is a view this server installed. Every refusal is another
    /// install's success, so the loop ends.
    fn join_leave(
        &self,
        plan: &mut Plan,
        join: Option<String>,
        leave: Option<u64>,
    ) -> Result<Response, ClusterError> {
        let (next, joiner) = loop {
            let view = self.shards.view();
            let (next, joiner) = match (&join, leave) {
                (Some(addr), None) => {
                    let (next, id) = view.with_join(addr);
                    (next, Some(id))
                }
                (None, Some(id)) => (
                    view.with_leave(id).ok_or_else(|| {
                        ClusterError::Remote(format!(
                            "cannot remove server {id}: unknown member or last member standing"
                        ))
                    })?,
                    None,
                ),
                _ => {
                    return Err(ClusterError::Remote(
                        "exactly one of join or leave is required".into(),
                    ))
                }
            };
            if self.install(next.clone()) {
                break (next, joiner);
            }
        };
        let me = self.shards.my_id();
        let told = next.ids().into_iter().filter(|&id| id != me && Some(id) != joiner);
        plan.calls = told.chain(leave).map(|id| (id, Request::Membership(next.clone()))).collect();
        Ok(Response::Membership(next))
    }

    /// Installs `next` if it is strictly newer than the current view and
    /// bumps the epoch gauge. Returns whether it was adopted.
    pub(crate) fn install(&self, next: Membership) -> bool {
        if !self.shards.install_membership(next.clone()) {
            return false;
        }
        let epoch = self.epoch.fetch_max(next.epoch(), Ordering::SeqCst).max(next.epoch());
        self.metrics.membership_epoch.set(epoch as f64);
        let (server, members) = (self.cfg.me, next.len());
        pls_telemetry::info!(
            "membership_installed",
            server = server,
            epoch = epoch,
            members = members
        );
        true
    }

    /// One full metrics snapshot — the only reader of server state for
    /// observability: `/metrics`, the Metrics RPC, the self-scrape and
    /// both `/debug` views read what it returns. With `reset`, every
    /// counter and histogram is drained as it is read.
    pub fn collect_metrics(&self, reset: bool) -> MetricsSnapshot {
        let status = self.shards.status();
        let mut s = self.metrics.collect(status.keys, status.entries, reset);
        (self.shell_rows)(&mut s);
        // Per-shard WAL segments export as one family: counters sum across
        // shards (with `reset`, each shard is drained exactly once, so
        // deltas conserve).
        let wal_storages: Vec<&Arc<Storage>> = self.shards.storages().collect();
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
            // Group-commit batch depth: the deepest batch any shard's last
            // fsync made durable at once.
            let batch = wal_storages
                .iter()
                .map(|st| metrics::read(&st.metrics.fsync_batch, reset, Gauge::take, Gauge::get))
                .fold(0.0f64, f64::max);
            s.push_gauge(labeled("pls_queue_depth", &[("queue", "wal_fsync_batch")]), batch);
        }
        for (t, tol) in self.live_ft.lock().iter() {
            s.push_gauge(
                labeled("pls_live_fault_tolerance", &[("t", &t.to_string())]),
                *tol as f64,
            );
        }
        for ((sidx, t), p) in self.live_staleness.lock().iter() {
            let labels = [("strategy", STRATEGY_LABELS[*sidx]), ("t", &t.to_string())];
            s.push_gauge(labeled("pls_live_staleness", &labels), *p);
        }
        s.push_gauge("pls_tombstones_live", status.tombstones as f64);
        // Per-shard drill-down, as gauges so the breakdown travels over the
        // Metrics RPC. Labeled with the *server* as well as the shard:
        // cluster merges replace same-named gauges, so without it every
        // server's shard 0 would collapse into one row. The lock readings
        // are non-draining snapshots.
        let me_label = self.cfg.me.to_string();
        for (i, sh) in self.shards.as_slice().iter().enumerate() {
            let shard_label = i.to_string();
            let shard = [("server", me_label.as_str()), ("shard", shard_label.as_str())];
            s.push_gauge(labeled("pls_shard_keys", &shard), sh.key_count() as f64);
            let wal = sh.storage().map(|st| ("wal", st.wal_lock_stats().snapshot()));
            for (site, snap) in std::iter::once(("engines", sh.lock_stats().snapshot())).chain(wal)
            {
                let labels = [shard[0], shard[1], ("site", site)];
                s.push_gauge(
                    labeled("pls_shard_lock_acquisitions", &labels),
                    snap.acquisitions as f64,
                );
                s.push_gauge(
                    labeled("pls_shard_lock_wait_p99_us", &labels),
                    snap.wait_us.quantile(0.99),
                );
            }
        }
        // SLO accounting, refreshed by the self-scrape. Must stay before
        // the lock-sites block: reading it takes the observatory lock, and
        // that acquisition has to land in this scrape's drain.
        for slo in &self.observatory.lock().last_status {
            let name = slo.name.as_str();
            s.push_gauge(
                labeled("pls_slo_error_budget_remaining", &[("slo", name)]),
                slo.budget_remaining,
            );
            for (window, burn) in [("fast", slo.burn_fast), ("slow", slo.burn_slow)] {
                s.push_gauge(
                    labeled("pls_slo_burn_rate", &[("slo", name), ("window", window)]),
                    burn,
                );
            }
        }
        // The process-wide counting allocator (all zeros unless the binary
        // installs `CountingAlloc`; pls-server does), relative to this
        // server's baseline: `reset` moves the baseline instead of draining
        // the globals, which other in-process servers still export from.
        let alloc_now = pls_telemetry::alloc::stats();
        let d = {
            let mut base = self.alloc_base.lock().expect("alloc baseline lock");
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
        // Lock contention. This block must stay *last*, after every lock
        // taken above: with `reset`, the drain then covers this collection's
        // own acquisitions, keeping drained acquisitions == drained wait
        // observations exact for delta-scrapers. Same-named sites (the
        // per-shard `engines` and `wal` locks) merge into one family each.
        for (site, stats) in self.lock_sites() {
            let merged = merged_site_snapshot(stats, reset);
            let site = [("site", site)];
            s.push_histogram(labeled("pls_lock_wait_us", &site), merged.wait_us);
            s.push_histogram(labeled("pls_lock_hold_us", &site), merged.hold_us);
            s.push_counter(labeled("pls_lock_acquisitions_total", &site), merged.acquisitions);
            s.push_counter(labeled("pls_lock_contended_total", &site), merged.contended);
        }
        s
    }

    /// Every instrumented lock site, with the stats backing it.
    fn lock_sites(&self) -> Vec<(&'static str, Vec<&SiteStats>)> {
        let shards = self.shards.as_slice();
        let mut sites = vec![
            ("engines", shards.iter().map(|sh| sh.lock_stats().as_ref()).collect()),
            ("live_ft", vec![self.live_ft.stats().as_ref()]),
            ("live_staleness", vec![self.live_staleness.stats().as_ref()]),
            ("observatory", vec![self.observatory.stats().as_ref()]),
            ("membership", vec![self.shards.membership_lock_stats().as_ref()]),
        ];
        let wals: Vec<&SiteStats> =
            self.shards.storages().map(|st| st.wal_lock_stats().as_ref()).collect();
        if !wals.is_empty() {
            sites.push(("wal", wals));
        }
        sites
    }

    /// One observatory scrape at `now_ms`: a cumulative, never resetting
    /// snapshot (the timeline diffs totals itself, so it steals no deltas
    /// from external scrapers), recorded, and the SLO accounting refreshed.
    pub fn scrape(&self, now_ms: u64) {
        let totals = self.collect_metrics(false);
        let uptime_us = now_ms.saturating_sub(self.started_ms).saturating_mul(1_000);
        self.observatory.lock().record(now_ms, uptime_us, totals);
    }

    /// [`views::timeline_json`] of the self-scrape ring and the SLO
    /// accounting.
    pub fn timeline_json(&self) -> String {
        let obs = self.observatory.lock();
        let cfg = &self.cfg;
        views::timeline_json(
            cfg.me as u64,
            &obs.timeline,
            &obs.last_status,
            cfg.slo_fast,
            cfg.slo_slow,
        )
    }
}

/// The ring of periodic metrics snapshots plus the SLO tracker fed from
/// its deltas; `last_status` caches the accounting of the latest scrape,
/// so an exposition only reads.
struct Observatory {
    timeline: pls_telemetry::Timeline,
    slo: pls_telemetry::SloTracker,
    last_status: Vec<pls_telemetry::SloStatus>,
}

impl Observatory {
    fn new(cfg: &ServerConfig) -> Self {
        // A ring reaching back about twice the slow burn window at the
        // configured cadence (jitter averages 1.0x), bounded so a
        // pathological config cannot balloon it.
        let scrape_us = cfg.self_scrape.unwrap_or(Duration::from_secs(2)).as_micros().max(1);
        let slow = cfg.slo_slow.max(cfg.slo_fast);
        let capacity = (2 * slow.as_micros() / scrape_us + 2).clamp(32, 360) as usize;
        Observatory {
            timeline: pls_telemetry::Timeline::new(capacity),
            slo: pls_telemetry::SloTracker::new(slo_specs(cfg), cfg.slo_fast, slow),
            last_status: Vec::new(),
        }
    }

    fn record(&mut self, at_unix_ms: u64, uptime_us: u64, totals: MetricsSnapshot) {
        self.timeline.record(at_unix_ms, uptime_us, totals);
        if let Some(delta) = self.timeline.last_delta() {
            let latest = self.timeline.latest().expect("just recorded");
            self.slo.ingest(uptime_us, &delta, &latest.totals);
            self.last_status = self.slo.status();
        }
    }
}

/// The server's declared objectives: availability 99.9% of events good,
/// latency 99% of requests at or under the configured target, staleness
/// 95% of scrape intervals with every `pls_live_staleness` series fully
/// fresh. `availability` counts internal fan-out sends beside client
/// requests, so a black-holed peer burns the budget even when every
/// client call still succeeds.
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

#[cfg(test)]
pub(crate) mod harness {
    //! A cluster of [`Node`]s wired by direct calls: no sockets, no
    //! threads, no sleeps. Whatever a node asks of its peers — an update's
    //! deliveries, a membership announcement, a maintenance pull — is
    //! carried by the test, in the order it picks; [`Cluster::call`] and
    //! [`Cluster::drive`] are the orders most tests want.

    use std::collections::VecDeque;
    use std::sync::Arc;

    use pls_core::StrategySpec;

    use super::{Node, ServerConfig};
    use crate::maintenance::{Maintenance, Pull};
    use crate::proto::{Request, Response};
    use crate::storage::{Recovered, Storage};

    /// The seed every harness cluster shares.
    pub const SEED: u64 = 42;

    /// Member `me` of an `n`-member static cluster: two memory-only shards,
    /// no background job.
    pub fn config(me: usize, n: usize, spec: StrategySpec) -> ServerConfig {
        let peers = (0..n).map(|i| ([127, 0, 0, 1], 9200 + i as u16).into()).collect();
        ServerConfig { shards: 2, self_scrape: None, ..ServerConfig::new(me, peers, spec, SEED) }
    }

    /// The node of `cfg` over `storages` (memory-only when there are
    /// none), with what they `recovered` replayed; and the keys that made.
    pub fn node(
        cfg: ServerConfig,
        storages: Vec<Option<Arc<Storage>>>,
        recovered: Vec<Recovered>,
    ) -> (Arc<Node>, usize) {
        let storages = if storages.is_empty() { vec![None; cfg.shards] } else { storages };
        let (node, keys) =
            Node::new(cfg, storages, recovered, Box::new(|_| {}), 0).expect("a valid config");
        (Arc::new(node), keys)
    }

    /// The nodes, indexed by member id, and the time every call is made at.
    pub struct Cluster {
        pub nodes: Vec<Arc<Node>>,
        pub now_ms: u64,
    }

    impl Cluster {
        /// `n` memory-only members under `spec`, each config passed
        /// through `tweak`.
        pub fn new(
            n: usize,
            spec: StrategySpec,
            tweak: impl Fn(ServerConfig) -> ServerConfig,
        ) -> Self {
            let nodes = (0..n).map(|me| node(tweak(config(me, n, spec)), Vec::new(), Vec::new()).0);
            Cluster { nodes: nodes.collect(), now_ms: 1 }
        }

        /// Serves `req` at member `at` and carries every call its plan
        /// makes, and theirs, first in first out: the whole cluster in one
        /// call. Returns `at`'s reply; every other must not be an error.
        pub fn call(&self, at: u64, req: Request) -> Response {
            let mut queue = VecDeque::from([(at, req)]);
            let mut first = None;
            while let Some((to, req)) = queue.pop_front() {
                let Some(node) = self.nodes.get(to as usize) else { continue };
                let mut plan = node.serve(1, Ok(req), self.now_ms);
                queue.extend(std::mem::take(&mut plan.calls));
                let (reply, _) = node.answer(plan, Ok(()));
                if first.is_some() {
                    assert!(!matches!(reply, Response::Error(_)), "member {to}: {reply:?}");
                }
                first.get_or_insert(reply);
            }
            first.expect("member `at` is in the cluster")
        }

        /// What member `pull.from` answers to a pull, as to any request.
        pub fn answer(&self, req_id: u64, pull: &Pull) -> Option<Response> {
            let node = self.nodes.get(pull.from as usize)?;
            let plan = node.serve(req_id, Ok(pull.request.clone()), self.now_ms);
            assert!(plan.calls.is_empty(), "a pull makes no calls of its own");
            Some(node.answer(plan, Ok(())).0)
        }

        /// Runs what `maint` has due at the cluster's time until it has no
        /// pull left, each pull answered in the order it was issued.
        pub fn drive(&self, maint: &mut Maintenance) {
            loop {
                let pulls = maint.tick(self.now_ms);
                if pulls.is_empty() {
                    return;
                }
                for pull in pulls {
                    let answer = self.answer(maint.req_id(), &pull);
                    maint.absorb(pull, answer);
                }
            }
        }

        /// One anti-entropy round of member `id` (its config sets
        /// `anti_entropy`), the cluster's clock moved to when it falls due.
        pub fn repair(&mut self, id: u64) {
            let mut maint = Maintenance::new(Arc::clone(&self.nodes[id as usize]), self.now_ms);
            self.now_ms = maint.next_due().expect("anti-entropy is configured");
            self.drive(&mut maint);
        }
    }
}
