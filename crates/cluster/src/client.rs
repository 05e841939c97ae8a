//! The client library: a [`ClientCore`] — §3's lookup procedure and the
//! update routing of §5, `pls-wire`'s — behind real sockets. What the
//! client decides is the core's; what is here dials, waits and keeps the
//! clock.

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pls_core::{Membership, StrategySpec};
use pls_telemetry::trace::Span;
use pls_telemetry::{Level, MetricsSnapshot, SpanRecord};
use pls_wire::client::{ClientCore, Members, Report, Rule};
use pls_wire::error::ClusterError;
use pls_wire::metrics::ClientMetrics;
use pls_wire::proto::{Entry, Request, Response};
use pls_wire::retry::Deadline;

pub use pls_wire::client::ClientConfig;

use crate::rpc::{PeerBook, PeerClient};

/// The thread that makes a client's lookup probes to one member, started
/// on the first probe to it. It takes `(request id, request, deadline)`
/// from its channel one at a time and reports each into the client's one
/// report channel; a lookup that is done stops listening, and a straggler
/// finishes here within its own RPC deadline. Dropping the prober closes
/// the channel and joins the thread.
#[derive(Debug)]
struct Prober {
    probes: Option<Sender<(u64, Request, Deadline)>>,
    thread: Option<JoinHandle<()>>,
}

impl Prober {
    fn spawn(member: u64, peer: Arc<PeerClient>, reports: Sender<Report>) -> Prober {
        let (probes, queue) = mpsc::channel::<(u64, Request, Deadline)>();
        let thread = std::thread::spawn(move || {
            for (id, req, deadline) in queue {
                let started = Instant::now();
                let outcome = peer.call(id, &req, 1, deadline);
                // Nobody listening: the client is being dropped.
                let _ = reports.send((id, member, elapsed_us(started), outcome));
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
    core: ClientCore,
    /// Per-member connection pools, keyed by member id and created on
    /// demand from the view's addresses. Dropping an entry (when a
    /// member leaves) drops its breaker and health state with it.
    peers: PeerBook,
    /// The lookup probers, by member id, and the one channel they all
    /// report into (both ends: the sender is cloned into each prober).
    probers: HashMap<u64, Prober>,
    reports: (Sender<Report>, Receiver<Report>),
    /// The clock every `now_ms` is read from: milliseconds since connect.
    started: Instant,
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
            probers: HashMap::new(),
            reports: mpsc::channel(),
            started: Instant::now(),
        }
    }

    /// Adopts a membership view if it's strictly newer than the current
    /// one, dropping pooled clients (and with them breaker and health
    /// state) and probers for members that left.
    fn adopt_view(&mut self, view: Membership) {
        if self.core.adopt(view) {
            let view = self.core.view();
            self.peers.prune(view);
            self.probers.retain(|id, _| view.contains(*id));
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
        let (peers, started) = (&self.peers, self.started);
        let mut op = self.core.update(key, req, |m| !peers.healthy(m), ms_since(started));
        peers.run(&mut op, || ms_since(started));
        op.first()
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
    /// [`Lookup`](pls_wire::client::Lookup). This loop hands each probe to
    /// its member's prober thread and waits for a report or for the time
    /// the lookup asked to be woken at; a straggler ends on its prober
    /// within its own RPC deadline. Fewer than `t` results, when the budget
    /// ran out mid-merge, is **not** an error — callers check the length.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Service`] if `t == 0`;
    /// [`ClusterError::NoServerAvailable`] when no server could be reached
    /// at all; [`ClusterError::Timeout`] when the budget expired before any
    /// server answered.
    pub fn partial_lookup(&mut self, key: &[u8], t: usize) -> Result<Vec<Entry>, ClusterError> {
        let Client { core, peers, probers, reports, started } = self;
        let spec = core.spec_of(key);
        let mut op = core.lookup(key, t, |m| !peers.healthy(m), ms_since(*started))?;
        let mut span =
            Span::enter_with_id(Level::Debug, module_path!(), "partial_lookup", op.req_id);
        span.field("t", t);
        span.field("strategy", spec.to_string());
        let left = Duration::from_millis(op.deadline_ms).saturating_sub(started.elapsed());
        let deadline = Deadline::within(left);
        loop {
            let now = ms_since(*started);
            while let Some(call) = op.next_call(now) {
                let (id, member) = (call.req_id, call.member);
                let sent = peers.client(member, call.addr).is_some_and(|peer| {
                    let spawn = || Prober::spawn(member, peer, reports.0.clone());
                    let probes = &probers.entry(member).or_insert_with(spawn).probes;
                    probes.as_ref().is_some_and(|tx| {
                        tx.send((id, call.request.into_owned(), deadline)).is_ok()
                    })
                });
                if !sent {
                    // An address that does not parse, or a prober that
                    // died (it panicked): a failed probe, and the next one
                    // to this member starts a new thread.
                    probers.remove(&member);
                    pls_telemetry::warn!("probe_not_sent", req = id, server = member);
                    let unsent = ClusterError::Io(std::io::ErrorKind::NotConnected.into());
                    op.answered((id, member, 0, Err(unsent)), now);
                }
            }
            if op.is_done() {
                break;
            }
            // A timeout is the wake-up (the client holds a sender of the
            // channel, so it never disconnects).
            let wait = Duration::from_millis(op.wake_at()).saturating_sub(started.elapsed());
            if let Ok(report) = reports.1.recv_timeout(wait) {
                op.answered(report, ms_since(*started));
            }
        }
        op.finish()
    }

    /// Runs a read of `ids` to its end ([`ClientCore::read`]).
    fn read<T>(
        &self,
        ids: impl IntoIterator<Item = u64>,
        request: Request,
        rule: Rule,
        accept: fn(Response) -> Option<T>,
    ) -> Members<'_, T> {
        let mut op = self.core.read(ids, request, rule, accept, ms_since(self.started));
        self.peers.run(&mut op, || ms_since(self.started));
        op
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
        let (peers, started) = (&self.peers, self.started);
        let mut op = self.core.spec_read(key, ms_since(started));
        peers.run(&mut op, || ms_since(started));
        let found = op.finish()?.into_iter().find_map(|(_, spec)| spec);
        if found.is_some() {
            self.core.set_spec(key, found);
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
        let status = |resp| match resp {
            Response::Status { keys, entries } => Some((keys, entries)),
            _ => None,
        };
        self.read([server as u64], Request::Status, Rule::First, status).first()
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
        self.read([server as u64], Request::Metrics { reset }, Rule::First, metrics).first()
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
        self.read(self.core.view().ids(), Request::Metrics { reset }, Rule::Every, metrics).finish()
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
        Ok(merge_spans(req, answers.finish()?))
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
        let view = self.read(self.core.view().ids(), req, Rule::First, view).first()?;
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
