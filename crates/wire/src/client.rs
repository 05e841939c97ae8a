//! The client without its sockets: [`ClientCore`] is the policy of §3's
//! lookup and §5's update routing — each key's strategy, the membership
//! view and its router, the probe order, request ids, metrics, the hedge
//! delay and the operation budget. [`Lookup`] drives a [`LookupPlan`] with
//! hedged probes: it names the calls to make ([`Call`]), takes each one's
//! [`Outcome`] and says when it is done. Updates and reads are one member
//! loop, [`ask`], that makes its calls one at a time through a closure.
//! Time is an argument (`now_ms`, any monotonic clock); the client in
//! `pls-cluster` dials, waits and keeps the clock.

use core::net::SocketAddr;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pls_core::membership::DEFAULT_GROUP_SIZE;
use pls_core::{
    DetRng, FailureSet, GroupRouter, LookupPlan, Membership, ServiceError, StrategySpec,
};
use pls_net::ServerId;
use pls_telemetry::recorder::record_timed;
use pls_telemetry::Level;

use crate::error::ClusterError;
use crate::metrics::ClientMetrics;
use crate::proto::{Entry, Request, Response};
use crate::retry::{splitmix64, BreakerConfig, Timeouts};

/// Client-side configuration: where the servers are and which strategy
/// they run (the client procedures are strategy-specific). Plain data:
/// `ClientConfig { hedge: Some(d), ..ClientConfig::new(servers, spec, seed) }`.
///
/// Two seeds: `seed` is the client's own (its probe order and request
/// ids); `placement_seed` and `group_size` are the cluster's, and must be
/// the servers' `--seed` and `--group-size` for client and cluster to agree
/// on every key's group. [`ClientConfig::new`] takes the servers' defaults.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Every server's address, indexed by server id.
    pub servers: Vec<SocketAddr>,
    /// The cluster's placement strategy.
    pub spec: StrategySpec,
    /// Seed for the client's probe-order randomness and request ids.
    pub seed: u64,
    /// The per-RPC deadline and the total budget each operation (one
    /// lookup, one update) may spend across all its probes and retries
    /// (the `--rpc-timeout-ms` / `--op-budget-ms` flags).
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
    /// place every key on every server.
    pub group_size: usize,
    /// Placement seed: must match the servers' `--seed`.
    pub placement_seed: u64,
}

impl ClientConfig {
    /// A client of `servers` with probe seed `seed`, default time bounds
    /// and breaker tuning, hedging off, routing as servers started with
    /// the default `--seed` (0) and `--group-size`.
    pub fn new(servers: Vec<SocketAddr>, spec: StrategySpec, seed: u64) -> Self {
        ClientConfig {
            servers,
            spec,
            seed,
            timeouts: Timeouts::default(),
            breaker: BreakerConfig::default(),
            hedge: None,
            group_size: DEFAULT_GROUP_SIZE,
            placement_seed: 0,
        }
    }
}

/// One call an operation needs made: `request`, stamped with `req_id`, to
/// `member` at `addr`, with up to `attempts` attempts (1 for a probe or a
/// read — the next member is the retry, §3.1 — and 3 for an update). A
/// probe's request is its own, for the thread that carries it.
#[derive(Debug)]
#[allow(missing_docs)]
pub struct Call<'a> {
    pub member: u64,
    pub addr: &'a str,
    pub req_id: u64,
    pub request: Cow<'a, Request>,
    pub attempts: u32,
}

/// What became of one call: the answer with the service time the server
/// echoed (µs), or why there was none.
pub type Outcome = Result<(Response, u64), ClusterError>;

/// What became of one probe: request id, member, round trip (µs), outcome.
pub type Report = (u64, u64, u64, Outcome);

/// The client's policy. See the module documentation.
#[derive(Debug)]
pub struct ClientCore {
    spec: StrategySpec,
    key_specs: HashMap<Vec<u8>, StrategySpec>,
    view: Membership,
    router: GroupRouter,
    rng: DetRng,
    /// The group positions the lookup in progress believes down.
    down: FailureSet,
    timeouts: Timeouts,
    hedge: Option<Duration>,
    metrics: ClientMetrics,
    /// One id per operation, on every frame it sends and event it logs.
    ids: AtomicU64,
    last_id: AtomicU64,
}

impl ClientCore {
    /// The policy of a client configured by `cfg`: the configured servers
    /// are the view (epoch 1, ids in list order).
    pub fn new(cfg: &ClientConfig) -> Self {
        let first_id = splitmix64(cfg.seed);
        ClientCore {
            spec: cfg.spec,
            key_specs: HashMap::new(),
            view: Membership::bootstrap(cfg.servers.iter().map(|a| a.to_string())),
            router: GroupRouter::new(cfg.group_size.max(1), cfg.placement_seed),
            rng: DetRng::seed_from(cfg.seed),
            down: FailureSet::new(0),
            timeouts: cfg.timeouts,
            hedge: cfg.hedge,
            metrics: ClientMetrics::default(),
            ids: AtomicU64::new(first_id),
            last_id: AtomicU64::new(first_id),
        }
    }

    /// The membership view this client routes with.
    pub fn view(&self) -> &Membership {
        &self.view
    }

    /// This client's runtime metrics.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// The id of the most recent operation.
    pub fn last_request_id(&self) -> u64 {
        self.last_id.load(Ordering::Relaxed)
    }

    fn fresh_id(&self) -> u64 {
        let id = self.ids.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        self.last_id.store(id, Ordering::Relaxed);
        id
    }

    /// The strategy in effect for a key: its override, or the default.
    pub fn spec_of(&self, key: &[u8]) -> StrategySpec {
        self.key_specs.get(key).copied().unwrap_or(self.spec)
    }

    /// Records `spec` as `key`'s override and returns the one it replaced.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for a spec a group cannot run (engines are
    /// group-local).
    pub fn override_spec(
        &mut self,
        key: &[u8],
        spec: StrategySpec,
    ) -> Result<Option<StrategySpec>, ClusterError> {
        spec.validate(self.view.len().min(self.router.group_size()).max(1))?;
        Ok(self.key_specs.insert(key.to_vec(), spec))
    }

    /// Sets `key`'s override, or clears it with `None`.
    pub fn set_spec(&mut self, key: &[u8], spec: Option<StrategySpec>) {
        match spec {
            Some(spec) => self.key_specs.insert(key.to_vec(), spec),
            None => self.key_specs.remove(key),
        };
    }

    /// Adopts `view` if it is newer than the current one; says whether it
    /// did.
    pub fn adopt(&mut self, view: Membership) -> bool {
        let newer = view.epoch() > self.view.epoch();
        if newer {
            self.view = view;
        }
        newer
    }

    fn shuffled_group(&mut self, key: &[u8]) -> Vec<u64> {
        let group = self.router.group(&self.view, key);
        self.rng.shuffled_servers(group.len()).iter().map(|s| group[s.index()]).collect()
    }

    /// A read of the members of `ids` the view knows, in order, under the
    /// operation budget: [`ask`], with its result and errors.
    pub fn read<T>(
        &self,
        ids: impl IntoIterator<Item = u64>,
        request: &Request,
        rule: Rule,
        accept: impl Fn(Response) -> Option<T>,
        now_ms: impl Fn() -> u64,
        call: impl FnMut(Call<'_>) -> Outcome,
    ) -> Result<Vec<(u64, Option<T>)>, ClusterError> {
        let members = ids.into_iter().filter_map(|id| Some((id, self.view.addr_of(id)?)));
        let (id, budget, metrics) = (self.fresh_id(), self.timeouts.op_budget, Some(&self.metrics));
        ask(members, id, request, rule, accept, budget, metrics, now_ms, call)
    }

    /// An update of `key` (§5): to the coordinator alone (group position
    /// 0) for Round-Robin-y, §5.4; otherwise to the key's group shuffled,
    /// the members `suspect` names last, so healthy members share the load
    /// and sick ones are tried once everyone else failed. Errors as [`ask`].
    pub fn update(
        &mut self,
        key: &[u8],
        request: &Request,
        suspect: impl Fn(u64) -> bool,
        now_ms: impl Fn() -> u64,
        call: impl FnMut(Call<'_>) -> Outcome,
    ) -> Result<(), ClusterError> {
        let order = if matches!(self.spec_of(key), StrategySpec::RoundRobin { .. }) {
            let mut coordinator = self.router.group(&self.view, key);
            coordinator.truncate(1);
            coordinator
        } else {
            let mut order = self.shuffled_group(key);
            order.sort_by_key(|member| suspect(*member));
            order
        };
        self.read(order, request, Rule::Update, |_| Some(()), now_ms, call).map(drop)
    }

    /// Asks `key`'s group in random order for its strategy until a member
    /// knows it, and records what it learns as the key's override. Errors
    /// as [`ask`].
    pub fn refresh_spec(
        &mut self,
        key: &[u8],
        now_ms: impl Fn() -> u64,
        call: impl FnMut(Call<'_>) -> Outcome,
    ) -> Result<Option<StrategySpec>, ClusterError> {
        let (order, request) = (self.shuffled_group(key), Request::SpecOf { key: key.to_vec() });
        let known = |resp| if let Response::SpecOf(spec) = resp { spec } else { None };
        let answers = self.read(order, &request, Rule::First, known, now_ms, call)?;
        let found = answers.into_iter().find_map(|(_, spec)| spec);
        if found.is_some() {
            self.set_spec(key, found);
        }
        Ok(found)
    }

    /// `partial_lookup(key, t)` (§3) at `now_ms`, the members `suspect`
    /// names probed last. The hedge delay is the configured floor, raised
    /// to the p99 probe latency once 32 probes answered, capped at the
    /// per-RPC deadline.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ZeroTarget`] if `t == 0`;
    /// [`ClusterError::NoServerAvailable`] for an empty view.
    pub fn lookup<'a>(
        &'a mut self,
        key: &'a [u8],
        t: usize,
        suspect: impl Fn(u64) -> bool,
        now_ms: u64,
    ) -> Result<Lookup<'a>, ClusterError> {
        if t == 0 {
            return Err(ClusterError::Service(ServiceError::ZeroTarget));
        }
        let (spec, req_id) = (self.spec_of(key), self.fresh_id());
        let hedge_ms = self.hedge.map(|floor| {
            let seen = self.metrics.probe_latency_us.snapshot();
            let p99 = if seen.count >= 32 { seen.quantile(0.99) as u64 } else { 0 };
            let delay = Duration::from_micros(p99).max(floor).min(self.timeouts.rpc);
            delay.as_micros().div_ceil(1000) as u64
        });
        let deadline_ms = now_ms + self.timeouts.op_budget.as_millis() as u64;
        let ClientCore { view, router, rng, down, metrics, .. } = self;
        let group = router.group(view, key);
        if group.is_empty() {
            return Err(ClusterError::NoServerAvailable);
        }
        // The plan walks group positions, not ids: the engines are
        // group-local, so the round-robin stride is over this space.
        *down = FailureSet::new(group.len());
        for (pos, _) in group.iter().enumerate().filter(|(_, member)| suspect(**member)) {
            down.fail(ServerId::new(pos as u32));
        }
        Ok(Lookup {
            req_id,
            deadline_ms,
            plan: LookupPlan::new(spec, t, down, rng),
            rng,
            metrics,
            view,
            group,
            key,
            t: t as u32,
            in_flight: 0,
            first: None,
            hedge_ms,
            launched_ms: now_ms,
            drained: false,
            expired: false,
        })
    }
}

/// One `partial_lookup`: one probe at a time, the next when it is answered
/// or failed, and — with hedging on — one more whenever those out stay
/// silent past the hedge delay, without cancelling them. Answers merge
/// until the lookup is done; any report after that is dropped. Every
/// failed probe is skipped like a crashed server (§3.1: each error a call
/// returns is its member's fault); when the budget runs out, what was
/// gathered is the result.
#[derive(Debug)]
pub struct Lookup<'a> {
    /// The lookup's request id.
    pub req_id: u64,
    /// When its budget runs out.
    pub deadline_ms: u64,
    plan: LookupPlan<'a, Entry>,
    rng: &'a mut DetRng,
    metrics: &'a ClientMetrics,
    view: &'a Membership,
    group: Vec<u64>,
    key: &'a [u8],
    t: u32,
    in_flight: usize,
    /// The position probed when none was out: any other out is a hedge.
    first: Option<ServerId>,
    hedge_ms: Option<u64>,
    launched_ms: u64,
    /// The plan has nobody left to offer.
    drained: bool,
    expired: bool,
}

impl Lookup<'_> {
    /// Whether the lookup has its result.
    pub fn is_done(&self) -> bool {
        self.expired || self.plan.is_satisfied() || (self.drained && self.in_flight == 0)
    }

    /// When to wake the lookup if no report comes: its hedge timer or its
    /// budget.
    pub fn wake_at(&self) -> u64 {
        match self.hedge_ms {
            Some(delay) if !self.drained => (self.launched_ms + delay).min(self.deadline_ms),
            _ => self.deadline_ms,
        }
    }

    fn clock(&mut self, now_ms: u64) {
        if now_ms >= self.deadline_ms && !self.is_done() {
            self.expired = true;
            self.metrics.op_budget_exhausted.inc();
        }
    }

    /// The probe to send at `now_ms`: one when none is out or when the
    /// hedge timer ran out.
    pub fn next_call(&mut self, now_ms: u64) -> Option<Call<'_>> {
        self.clock(now_ms);
        let hedge = self.hedge_ms.is_some_and(|delay| now_ms >= self.launched_ms + delay);
        if self.is_done() || self.drained || (self.in_flight > 0 && !hedge) {
            return None;
        }
        let Some(pos) = self.plan.next(self.rng) else {
            self.drained = true;
            return None;
        };
        let member = self.group[pos.index()];
        if self.in_flight == 0 {
            self.first = Some(pos);
        } else {
            self.metrics.hedges.inc();
            let after_ms = now_ms - self.launched_ms;
            pls_telemetry::debug!(
                "probe_hedged",
                req = self.req_id,
                server = member,
                after_ms = after_ms
            );
        }
        (self.in_flight, self.launched_ms) = (self.in_flight + 1, now_ms);
        let addr = self.view.addr_of(member).unwrap_or_default(); // the group is in the view
        let request = Cow::Owned(Request::Probe { key: self.key.to_vec(), t: self.t });
        Some(Call { member, addr, req_id: self.req_id, request, attempts: 1 })
    }

    /// One probe's report, at `now_ms`; a report of another lookup, or
    /// one after this lookup is done, is dropped.
    pub fn answered(&mut self, (req_id, member, rtt_us, outcome): Report, now_ms: u64) {
        let pos = self.group.iter().position(|m| *m == member);
        let Some(pos) =
            pos.filter(|_| req_id == self.req_id && self.in_flight > 0 && !self.is_done())
        else {
            return;
        };
        let (pos, m) = (ServerId::new(pos as u32), self.metrics);
        self.in_flight -= 1;
        match outcome {
            Ok((Response::Entries(entries), service_us)) => {
                // The round trip: the server's echoed service time, and the wire.
                let service_us = service_us.min(rtt_us);
                let net_us = rtt_us - service_us;
                m.probes.inc();
                m.probe_latency_us.observe(rtt_us);
                m.probe_service_us.observe(service_us);
                m.probe_net_us.observe(net_us);
                let fields = [
                    ("server", member.into()),
                    ("service_us", service_us.into()),
                    ("net_us", net_us.into()),
                ];
                record_timed(Some(req_id), "probe", module_path!(), rtt_us, fields);
                if self.first != Some(pos) && self.in_flight > 0 {
                    // A hedge answered while an earlier probe was silent.
                    m.hedge_wins.inc();
                    m.hedge_win_latency_us.observe(rtt_us);
                }
                let returned = entries.len();
                pls_telemetry::event!(
                    Level::Trace,
                    "probe_answered",
                    req = req_id,
                    server = member,
                    returned = returned,
                    service_us = service_us
                );
                self.plan.answered(pos, entries);
            }
            failed => {
                m.probe_failures.inc();
                // An answer that is no probe's is a fault of its member.
                let unexpected = |other| format!("unexpected probe response {other:?}");
                let err = failed
                    .map_or_else(|err| err, |(other, _)| ClusterError::Remote(unexpected(other)));
                pls_telemetry::debug!("probe_failed", req = req_id, server = member, err = err);
                self.plan.unreachable(pos);
            }
        }
        self.clock(now_ms);
    }

    /// At least `t` distinct entries when the surviving placement allows
    /// it, trimmed to exactly `t` (the §4.5 fairness model); fewer when the
    /// budget ran out.
    ///
    /// # Errors
    ///
    /// When no member answered: [`ClusterError::Timeout`] if the budget
    /// ran out, [`ClusterError::NoServerAvailable`] otherwise.
    pub fn finish(self) -> Result<Vec<Entry>, ClusterError> {
        let contacted = self.plan.contacted().len() as u64;
        if contacted == 0 {
            return Err(if self.expired {
                ClusterError::Timeout("op-budget")
            } else {
                ClusterError::NoServerAvailable
            });
        }
        // Members that answered: the client lookup cost (§4.2).
        self.metrics.probes_per_lookup.observe(contacted);
        Ok(self.plan.finish(self.rng).into_entries())
    }
}

/// How a member loop ([`ask`]) treats its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// An update (§5): 3 attempts a member, an unavailable one passes it
    /// on, the first ack ends it.
    Update,
    /// A read answered by one member: the first answer taken ends it.
    First,
    /// A read of every member.
    Every,
}

/// The member loop of updates and reads: `request`, stamped with `req_id`,
/// to each of `members` (id, dial address) in order, one `call` at a time,
/// until `budget` from the first `now_ms` runs out. `accept` says what an
/// answer gives; `None` passes a `First` read on. An error that passes the
/// loop on (`is_unavailable` for an update, `is_peer_fault` for a read)
/// moves it to the next member; any other ends it — a `Remote` answer to
/// an update is the cluster's refusal, not tried elsewhere. `metrics`, if
/// any, counts a spent budget and a failed update.
///
/// Returns every member with what its answer gave, `None` for one that
/// faulted or was not asked.
///
/// # Errors
///
/// The error that ended the loop; when nobody answered, the budget's
/// `Timeout("op-budget")` or else the last member's fault (a one-member
/// read reports that member's own error), or `NoServerAvailable` if
/// nobody could be asked.
#[allow(clippy::too_many_arguments)]
pub fn ask<'a, T>(
    members: impl IntoIterator<Item = (u64, &'a str)>,
    req_id: u64,
    request: &Request,
    rule: Rule,
    accept: impl Fn(Response) -> Option<T>,
    budget: Duration,
    metrics: Option<&ClientMetrics>,
    now_ms: impl Fn() -> u64,
    mut call: impl FnMut(Call<'_>) -> Outcome,
) -> Result<Vec<(u64, Option<T>)>, ClusterError> {
    let (update, mut members) = (rule == Rule::Update, members.into_iter());
    let deadline_ms = now_ms() + budget.as_millis() as u64;
    let (mut outcomes, mut answered, mut ended, mut fault) = (Vec::new(), false, false, None);
    for (member, addr) in members.by_ref() {
        if now_ms() >= deadline_ms {
            fault = Some(ClusterError::Timeout("op-budget"));
            metrics.inspect(|m| m.op_budget_exhausted.inc());
            outcomes.push((member, None));
            break;
        }
        let (request, attempts) = (Cow::Borrowed(request), if update { 3 } else { 1 });
        let value = match call(Call { member, addr, req_id, request, attempts }) {
            Ok((resp, _)) => {
                answered = true;
                accept(resp)
            }
            Err(err) => {
                ended = !if update { err.is_unavailable() } else { err.is_peer_fault() };
                let skipped = if update { "update_retry" } else { "read_skipped" };
                pls_telemetry::debug!(skipped, req = req_id, server = member, err = err);
                fault = Some(err);
                None
            }
        };
        let done = ended || (rule != Rule::Every && value.is_some());
        outcomes.push((member, value));
        if done {
            break;
        }
    }
    let result = match fault {
        Some(err) if ended || !answered => Err(err),
        None if !answered => Err(ClusterError::NoServerAvailable),
        _ => {
            outcomes.extend(members.map(|(id, _)| (id, None)));
            Ok(outcomes)
        }
    };
    if update && result.is_err() {
        metrics.inspect(|m| m.update_failures.inc());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    /// The policy of a client of `n` members (no socket is ever opened).
    fn core(n: u16, spec: StrategySpec, hedge_ms: Option<u64>) -> ClientCore {
        let servers = (1..=n).map(|port| SocketAddr::from(([127, 0, 0, 1], port))).collect();
        let hedge = hedge_ms.map(Duration::from_millis);
        ClientCore::new(&ClientConfig { hedge, ..ClientConfig::new(servers, spec, 7) })
    }

    /// `n` entries only `member` holds, as its probe answer.
    fn stored(member: u64, n: usize) -> Outcome {
        Ok((Response::Entries((0..n).map(|i| format!("{member}-{i}").into_bytes()).collect()), 0))
    }

    fn refused() -> ClusterError {
        ClusterError::Io(ErrorKind::ConnectionRefused.into())
    }

    fn add() -> Request {
        Request::Add { key: b"k".to_vec(), entry: b"e".to_vec() }
    }

    /// A member loop's `call` answering with `outcomes` in turn, each call's
    /// member and attempts pushed onto `asked`.
    fn script(
        asked: &mut Vec<(u64, u32)>,
        mut outcomes: Vec<Outcome>,
    ) -> impl FnMut(Call<'_>) -> Outcome + '_ {
        outcomes.reverse();
        move |call| {
            asked.push((call.member, call.attempts));
            outcomes.pop().expect("an outcome for every call")
        }
    }

    #[test]
    fn a_hedged_lookup_merges_the_first_answer_and_drops_the_straggler() {
        for hedge_answers_first in [true, false] {
            let mut core = core(3, StrategySpec::random_server(4), Some(20));
            let mut op = core.lookup(b"k", 4, |_| false, 0).unwrap();
            let slow = op.next_call(0).unwrap().member;
            assert!(op.next_call(19).is_none(), "no hedge before the delay");
            assert_eq!(op.wake_at(), 20);
            let hedge = op.next_call(20).unwrap().member;
            assert!(op.next_call(20).is_none(), "one hedge per delay");
            let (winner, straggler) =
                if hedge_answers_first { (hedge, slow) } else { (slow, hedge) };
            op.answered((op.req_id, winner, 3_000, stored(winner, 4)), 23);
            assert!(op.is_done());
            op.answered((op.req_id, straggler, 9_000, stored(straggler, 4)), 29);
            let req_id = op.req_id;
            let mut got = op.finish().unwrap();
            got.sort();
            let Ok((Response::Entries(want), _)) = stored(winner, 4) else { unreachable!() };
            assert_eq!(got, want, "the straggler was merged");
            let m = core.metrics();
            assert_eq!((m.hedges.get(), m.hedge_wins.get()), (1, u64::from(hedge_answers_first)));
            assert_eq!(m.probes.get(), 1);
            assert_eq!(m.probes_per_lookup.snapshot().sum, 1);

            // The straggler of a lookup that is over reaches the next one,
            // whose id it does not carry: dropped too.
            let mut next = core.lookup(b"k", 4, |_| false, 40).unwrap();
            let member = next.next_call(40).unwrap().member;
            next.answered((req_id, member, 1, stored(member, 4)), 41);
            assert!(!next.is_done());
        }
    }

    #[test]
    fn a_probe_sent_when_none_was_out_is_no_hedge() {
        let mut core = core(3, StrategySpec::random_server(4), Some(20));
        let mut op = core.lookup(b"k", 8, |_| false, 0).unwrap();
        let failed = op.next_call(0).unwrap().member;
        op.answered((op.req_id, failed, 1, Err(refused())), 1);
        let second = op.next_call(1).unwrap().member;
        let hedge = op.next_call(21).unwrap().member;
        op.answered((op.req_id, second, 1, stored(second, 4)), 22);
        op.answered((op.req_id, hedge, 1, stored(hedge, 4)), 23);
        assert_eq!(op.finish().unwrap().len(), 8);
        let m = core.metrics();
        assert_eq!((m.hedges.get(), m.hedge_wins.get(), m.probe_failures.get()), (1, 0, 1));
    }

    #[test]
    fn an_update_passes_an_unavailable_member_on_and_ends_at_a_refusal() {
        let mut core = core(3, StrategySpec::random_server(2), None);
        let mut asked = Vec::new();
        let acked = script(&mut asked, vec![Err(refused()), Ok((Response::Ok, 0))]);
        assert_eq!(core.update(b"k", &add(), |_| false, || 0, acked), Ok(()));
        assert_eq!((asked.len(), asked[0].1, asked[1].1), (2, 3, 3));
        assert_ne!(asked[0].0, asked[1].0);

        let (mut asked, refusal) =
            (Vec::new(), || ClusterError::Remote("strategy mismatch".into()));
        let refused_once = script(&mut asked, vec![Err(refusal())]);
        assert_eq!(core.update(b"k", &add(), |_| false, || 10, refused_once), Err(refusal()));
        assert_eq!(asked.len(), 1, "a refusal is tried elsewhere");
        assert_eq!(core.metrics().update_failures.get(), 1);

        // Round-Robin-y: the coordinator alone (§5.4).
        let mut core = self::core(3, StrategySpec::round_robin(2), None);
        let mut asked = Vec::new();
        let down = script(&mut asked, vec![Err(refused())]);
        assert_eq!(core.update(b"k", &add(), |_| false, || 0, down), Err(refused()));
        assert_eq!(asked.len(), 1);
    }

    #[test]
    fn an_every_read_skips_a_faulty_member() {
        let core = core(3, StrategySpec::full_replication(), None);
        let keys = |resp| if let Response::Status { keys, .. } = resp { Some(keys) } else { None };
        let status = |call: Call<'_>| {
            assert_eq!(call.attempts, 1);
            match call.member {
                1 => Err(ClusterError::Decode("garbage")),
                member => Ok((Response::Status { keys: member * 10, entries: 0 }, 0)),
            }
        };
        let every = core.read(core.view().ids(), &Request::Status, Rule::Every, keys, || 0, status);
        assert_eq!(every, Ok(vec![(0, Some(0)), (1, None), (2, Some(20))]));
        // Nobody answering: the last fault.
        let garbled = |_: Call<'_>| Err(ClusterError::Decode("garbage"));
        let first = core.read([0, 1], &Request::Status, Rule::First, keys, || 0, garbled);
        assert_eq!(first, Err(ClusterError::Decode("garbage")));
        let unknown = core.read([9], &Request::Status, Rule::First, keys, || 0, garbled);
        assert_eq!(unknown, Err(ClusterError::NoServerAvailable));
    }

    #[test]
    fn the_budget_runs_out_on_now_ms_alone() {
        let mut core = core(3, StrategySpec::random_server(2), None);
        let mut op = core.lookup(b"k", 4, |_| false, 0).unwrap();
        let first = op.next_call(0).unwrap().member;
        op.answered((op.req_id, first, 100, stored(first, 2)), 5);
        let second = op.next_call(5).unwrap().member;
        assert_ne!(first, second);
        assert_eq!(op.wake_at(), 10_000);
        assert!(op.next_call(9_999).is_none() && !op.is_done());
        assert!(op.next_call(10_000).is_none() && op.is_done());
        assert_eq!(op.finish().unwrap().len(), 2, "a lookup keeps what it gathered");
        let mut op = core.lookup(b"k", 4, |_| false, 0).unwrap();
        op.next_call(0).unwrap();
        op.next_call(10_000);
        assert_eq!(op.finish(), Err(ClusterError::Timeout("op-budget")));
        assert_eq!(core.metrics().op_budget_exhausted.get(), 2);

        let clock = std::cell::Cell::new(0);
        let slow = |_: Call<'_>| {
            clock.set(10_000);
            Err(ClusterError::Timeout("rpc"))
        };
        let read = core.read([0, 1, 2], &Request::Status, Rule::First, Some, || clock.get(), slow);
        assert_eq!(read, Err(ClusterError::Timeout("op-budget")));
        assert_eq!(core.metrics().op_budget_exhausted.get(), 3);
    }

    #[test]
    fn suspect_members_are_asked_last() {
        let mut core = core(4, StrategySpec::random_server(2), None);
        for now in 0..20 {
            let mut op = core.lookup(b"k", 2, |m| m == 2, now).unwrap();
            let mut order = Vec::new();
            while let Some(call) = op.next_call(now) {
                let member = call.member;
                order.push(member);
                op.answered((op.req_id, member, 1, Err(refused())), now);
            }
            assert_eq!((order.len(), order[3]), (4, 2), "lookup {now}: {order:?}");
            assert_eq!(op.finish(), Err(ClusterError::NoServerAvailable));

            let mut asked = Vec::new();
            let down = script(&mut asked, (0..4).map(|_| Err(refused())).collect());
            assert_eq!(core.update(b"k", &add(), |m| m == 2, || now, down), Err(refused()));
            assert_eq!((asked.len(), asked[3].0), (4, 2), "update {now}: {asked:?}");
        }
        assert_eq!(core.metrics().probe_failures.get(), 80);
    }

    #[test]
    fn an_answer_that_is_no_probes_is_a_fault_of_its_member() {
        let mut core = core(2, StrategySpec::full_replication(), None);
        let mut op = core.lookup(b"k", 1, |_| false, 0).unwrap();
        let first = op.next_call(0).unwrap().member;
        op.answered((op.req_id, first, 1, Ok((Response::Ok, 0))), 1);
        let second = op.next_call(1).unwrap().member;
        op.answered((op.req_id, second, 1, stored(second, 1)), 2);
        assert_eq!(op.finish().unwrap().len(), 1);
        assert_eq!(core.metrics().probe_failures.get(), 1);
    }
}
