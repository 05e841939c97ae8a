//! The client library: a [`ClientCore`] — §3's lookup procedure and the
//! update routing of §5, `pls-wire`'s — behind real sockets. What the
//! client decides is the core's; what is here dials, waits and keeps the
//! clock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pls_core::{Membership, StrategySpec};
use pls_telemetry::trace::Span;
use pls_telemetry::{Level, MetricsSnapshot, SpanRecord};
use pls_wire::client::{ClientCore, Report, Rule};
use pls_wire::error::ClusterError;
use pls_wire::metrics::ClientMetrics;
use pls_wire::proto::{Entry, Request, Response};
use pls_wire::retry::Deadline;

pub use pls_wire::client::ClientConfig;

use crate::rpc::{PeerBook, PeerClient, Silent};

/// A probe for a member's straggler thread: its peer, the probe, its
/// request id, when it was sent and the lookup's report channel.
type Job = (Arc<PeerClient>, Probe, u64, Instant, Sender<Report>);

/// A probe handed to a thread: one still silent at its lookup's hedge
/// time, to read to its end, or one to make.
#[derive(Debug)]
enum Probe {
    Silent(Silent),
    Unsent(Request, Deadline),
}

/// The thread that carries one member's probes in turn once one of them
/// was still silent at its lookup's hedge time. It is started then and
/// takes every later probe to that member while it has one out, so a
/// member has at most one probe and one connection out at a time, as it
/// would on the caller's thread. Dropping it joins the thread once its
/// probes are done.
#[derive(Debug)]
struct Straggler {
    jobs: Option<Sender<Job>>,
    /// Probes sent to the thread and not yet done.
    out: Arc<AtomicUsize>,
    thread: Option<JoinHandle<()>>,
}

impl Straggler {
    fn spawn(member: u64) -> Straggler {
        let (jobs, queue) = mpsc::channel::<Job>();
        let out = Arc::new(AtomicUsize::new(0));
        let done = Arc::clone(&out);
        let thread = std::thread::spawn(move || {
            for (peer, probe, id, sent, report) in queue {
                let outcome = match probe {
                    Probe::Silent(silent) => peer.finish(silent),
                    Probe::Unsent(request, deadline) => peer.call(id, &request, 1, deadline),
                };
                // Release, paired with `busy`'s Acquire: a member seen idle
                // has its probe's connection back in the pool.
                done.fetch_sub(1, Ordering::Release);
                // Nobody listening: the lookup is over.
                let _ = report.send((id, member, elapsed_us(sent), outcome));
            }
        });
        Straggler { jobs: Some(jobs), out, thread: Some(thread) }
    }

    /// Whether a probe sent to the thread is not done yet.
    fn busy(&self) -> bool {
        self.out.load(Ordering::Acquire) > 0
    }

    /// Hands the thread a probe: `false` if the thread is gone (it
    /// panicked).
    fn send(&self, job: Job) -> bool {
        // Relaxed: the channel orders this increment before the
        // straggler's decrement for the same job.
        self.out.fetch_add(1, Ordering::Relaxed);
        self.jobs.as_ref().is_some_and(|jobs| jobs.send(job).is_ok())
    }
}

impl Drop for Straggler {
    fn drop(&mut self) {
        self.jobs = None;
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
    core: ClientCore,
    /// Per-member connection pools, keyed by member id and created on
    /// demand from the view's addresses. Dropping an entry (when a
    /// member leaves) drops its breaker and health state with it.
    peers: PeerBook,
    /// The threads carrying probes that were still silent at their
    /// lookup's hedge time, by member id: each is dropped after the
    /// lookup that leaves it idle, and the client's drop joins the rest.
    stragglers: HashMap<u64, Straggler>,
    /// The clock every `now_ms` is read from: milliseconds since connect.
    started: Instant,
    /// The operation budget: the deadline of a member loop's calls.
    budget: Duration,
}

/// Milliseconds since `started`: the core's clock.
fn ms_since(started: Instant) -> u64 {
    started.elapsed().as_millis() as u64
}

impl Client {
    /// Creates a client; no connections are opened until first use.
    /// The configured server list seeds the membership view (epoch 1,
    /// ids in list order); [`Client::refresh_membership`] catches up
    /// with a cluster whose membership has since changed.
    pub fn connect(cfg: ClientConfig) -> Self {
        Client {
            core: ClientCore::new(&cfg),
            peers: PeerBook::new(cfg.timeouts, cfg.breaker),
            stragglers: HashMap::new(),
            started: Instant::now(),
            budget: cfg.timeouts.op_budget,
        }
    }

    /// Adopts a membership view if it's strictly newer than the current
    /// one, dropping pooled clients (and with them breaker and health
    /// state) for members that left.
    fn adopt_view(&mut self, view: Membership) {
        if self.core.adopt(view) {
            self.peers.prune(self.core.view());
        }
    }

    /// The request id stamped on this client's most recent operation —
    /// the value to grep for (`req=<id>`) in server logs when tracing a
    /// lookup or update end to end.
    pub fn last_request_id(&self) -> u64 {
        self.core.last_request_id()
    }

    /// The strategy in effect for a key: its recorded per-key override,
    /// or the cluster default.
    pub fn spec_of(&self, key: &[u8]) -> StrategySpec {
        self.core.spec_of(key)
    }

    /// Sends an update to the first member of the core's order that takes
    /// it ([`ClientCore::update`]): breaker-suspect members last, each
    /// candidate 3 attempts, the whole operation one budget.
    fn update(&mut self, key: &[u8], req: Request) -> Result<(), ClusterError> {
        let Client { core, peers, started, budget, .. } = self;
        let (suspect, deadline) = (|m| !peers.healthy(m), Deadline::within(*budget));
        core.update(key, &req, suspect, || ms_since(*started), |c| peers.call(c, deadline))
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
        // Recorded before the update, which routes by it (a Round-Robin
        // place goes to the coordinator); a refused place puts back what
        // was there.
        let previous = self.core.override_spec(key, spec)?;
        let placed =
            self.update(key, Request::Place { key: key.to_vec(), entries, spec: Some(spec) });
        if placed.is_err() {
            self.core.set_spec(key, previous);
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

    /// `partial_lookup(k, t)`: at least `t` distinct entries when the
    /// surviving placement allows it, by the core's
    /// [`Lookup`](pls_wire::client::Lookup). Each probe is a call on the
    /// caller's thread, §3.1's loop, until one is still silent at the
    /// lookup's hedge time. That probe is then read on a thread that
    /// carries its member's probes, and every later probe of the lookup
    /// goes to its member's thread too; they report into one channel, and
    /// the lookup merges whichever answer comes first. A member with a
    /// probe still out is probed last, as a suspect member is, and its
    /// next probes queue behind that one on its thread, so it never has
    /// more than one out. A straggler ends on its thread within its own
    /// RPC deadline, and dropping the client joins it. Fewer than `t`
    /// results, when the budget ran out mid-merge, is **not** an error —
    /// callers check the length.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Service`] if `t == 0`;
    /// [`ClusterError::NoServerAvailable`] when no server could be reached
    /// at all; [`ClusterError::Timeout`] when the budget expired before any
    /// server answered.
    pub fn partial_lookup(&mut self, key: &[u8], t: usize) -> Result<Vec<Entry>, ClusterError> {
        let Client { core, peers, stragglers, started, .. } = self;
        let spec = core.spec_of(key);
        let busy = |stragglers: &HashMap<u64, Straggler>, m| {
            stragglers.get(&m).is_some_and(Straggler::busy)
        };
        // A member with a probe still out on its thread is probed last, as
        // a member whose breaker is not closed is.
        let suspect = |m| !peers.healthy(m) || busy(stragglers, m);
        let mut op = core.lookup(key, t, suspect, ms_since(*started))?;
        let mut span =
            Span::enter_with_id(Level::Debug, module_path!(), "partial_lookup", op.req_id);
        span.field("t", t);
        span.field("strategy", spec.to_string());
        let at = |ms| *started + Duration::from_millis(ms);
        let left = Duration::from_millis(op.deadline_ms).saturating_sub(started.elapsed());
        let deadline = Deadline::within(left);
        // The reports of probes on threads: opened when the first one goes.
        let mut reports: Option<(Sender<Report>, Receiver<Report>)> = None;
        // A probe that could not be sent: a failed one.
        let unsent = || Err(ClusterError::Io(std::io::ErrorKind::NotConnected.into()));
        loop {
            let Some(call) = op.next_call(ms_since(*started)) else {
                if op.is_done() {
                    break;
                }
                // Every probe out is on a thread; a timeout is the wake-up.
                let (_, rx) = reports.as_ref().expect("a probe on a thread");
                let wait = at(op.wake_at()).saturating_duration_since(Instant::now());
                if let Ok(report) = rx.recv_timeout(wait) {
                    op.answered(report, ms_since(*started));
                }
                continue;
            };
            let (id, member, sent) = (call.req_id, call.member, Instant::now());
            let (peer, request) = (peers.client(member, call.addr), call.request.into_owned());
            let Some(peer) = peer else {
                // An address that does not parse.
                op.answered((id, member, 0, unsent()), ms_since(*started));
                continue;
            };
            let probe = if reports.is_some() || busy(stragglers, member) {
                Probe::Unsent(request, deadline)
            } else {
                let wake = (op.wake_at() < op.deadline_ms).then(|| at(op.wake_at()));
                match peer.probe(id, &request, deadline, wake) {
                    Ok(outcome) => {
                        op.answered((id, member, elapsed_us(sent), outcome), ms_since(*started));
                        continue;
                    }
                    Err(silent) => Probe::Silent(silent),
                }
            };
            let report = reports.get_or_insert_with(mpsc::channel).0.clone();
            let straggler = stragglers.entry(member).or_insert_with(|| Straggler::spawn(member));
            if !straggler.send((peer, probe, id, sent, report)) {
                // Its thread is gone (it panicked): the next probe starts another.
                stragglers.remove(&member);
                op.answered((id, member, 0, unsent()), ms_since(*started));
            }
        }
        stragglers.retain(|_, straggler| straggler.busy());
        op.finish()
    }

    /// Runs a read of `ids` to its end ([`ClientCore::read`]).
    fn read<T>(
        &self,
        ids: impl IntoIterator<Item = u64>,
        request: Request,
        rule: Rule,
        accept: fn(Response) -> Option<T>,
    ) -> Result<Vec<(u64, Option<T>)>, ClusterError> {
        let (now_ms, deadline) = (|| ms_since(self.started), Deadline::within(self.budget));
        self.core.read(ids, &request, rule, accept, now_ms, |c| self.peers.call(c, deadline))
    }

    /// The first answer a `Rule::First` read of `ids` takes; a `Remote`
    /// error when members answered but none was taken.
    fn first<T>(
        &self,
        ids: impl IntoIterator<Item = u64>,
        request: Request,
        accept: fn(Response) -> Option<T>,
    ) -> Result<T, ClusterError> {
        let what = request.op().as_str();
        let taken = self.read(ids, request, Rule::First, accept)?.into_iter().find_map(|(_, v)| v);
        taken.ok_or_else(|| ClusterError::Remote(format!("unexpected {what} response")))
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
        let Client { core, peers, started, budget, .. } = self;
        let deadline = Deadline::within(*budget);
        core.refresh_spec(key, || ms_since(*started), |c| peers.call(c, deadline))
    }

    /// Diagnostic: `(keys, entries)` stored at one server.
    ///
    /// # Errors
    ///
    /// The server's own fault (unreachable, silent, garbled, an error
    /// answer); [`ClusterError::NoServerAvailable`] when the view does not
    /// know it.
    pub fn status_of(&self, server: usize) -> Result<(u64, u64), ClusterError> {
        let status = |resp| match resp {
            Response::Status { keys, entries } => Some((keys, entries)),
            _ => None,
        };
        self.first([server as u64], Request::Status, status)
    }

    /// This client's own runtime metrics (probe/lookup counters and the
    /// probes-per-lookup histogram).
    pub fn metrics(&self) -> &ClientMetrics {
        self.core.metrics()
    }

    /// Named snapshot of the client-side metrics (with the catalogue's
    /// HELP texts), including the dial failures of every per-server pool
    /// this client ever held.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut s = self.core.metrics().collect();
        s.push_counter("pls_client_pool_dial_failures_total", self.peers.totals().dial_failures);
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
        self.first([server as u64], Request::Metrics { reset }, metrics)
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
        self.read(self.core.view().ids(), Request::Metrics { reset }, Rule::Every, metrics)
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
        let answers = self.read(self.core.view().ids(), Request::Trace { req }, Rule::Every, spans);
        Ok(merge_spans(req, answers?))
    }

    /// The membership view this client routes with.
    pub fn membership_view(&self) -> &Membership {
        self.core.view()
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
        let before = self.core.view().epoch();
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
        let view = |resp| match resp {
            Response::Membership(view) => Some(view),
            _ => None,
        };
        let view = self.first(self.core.view().ids(), req, view)?;
        self.adopt_view(view.clone());
        Ok(view)
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
