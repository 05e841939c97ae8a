//! The server's background work as a scheduler that does no I/O.
//! [`Maintenance`] owns the due times of anti-entropy and the self-scrape,
//! their round counters and the state of the round in progress. The shell
//! asks it when it is next due ([`Maintenance::next_due`]) and what to pull
//! ([`Maintenance::tick`]), carries each [`Pull`] to its peer and hands the
//! answer back ([`Maintenance::absorb`]), which reads it — once, here.
//! Between two calls nothing is locked, so no guard is held across a pull.
//! Time comes in as `now_ms`, in the clock the [`Node`] is given.
//!
//! A repair round gossips membership with one rotating member, learns the
//! key universe (`Keys` from every other member), and then reconciles each
//! key whose current group holds this server: the digests of the key's
//! group first — which also measure the key's staleness; when they look
//! wrong, when the key is migrating (missing here among them) or in the
//! rotating deep window, every donor's snapshot, merged by
//! [`merge_donor_rows`]; a share proven divergent is rebuilt under the
//! guard captured with this server's own row. A cold-start resync
//! ([`Maintenance::resync`]) is one such round without the gossip and the
//! deep window. The round's tail garbage-collects tombstones, checkpoints
//! what it repaired and refreshes the migration, fault-tolerance and
//! staleness gauges.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use pls_core::membership::group_index;
use pls_core::Placement;
use pls_metrics::fault_tolerance::greedy_tolerance;

use crate::error::ClusterError;
use crate::metrics::strategy_index;
use crate::proto::{Request, Response};
use crate::retry::splitmix64;
use crate::server::Node;
use crate::shard::{
    digest_verdict, entries_for_rebuild, merge_donor_rows, Digest, Rebuilt, RepairPlan,
};
use crate::storage::KeySnapshot;

/// Keys deep-checked per anti-entropy round whatever their digests say:
/// full snapshot pulls that feed the live fault-tolerance gauge and the
/// Hash/Round-Robin divergence checks, in a window rotating with the round.
const DEEP_KEYS: usize = 16;

/// The `t` both live gauges report: adversary thresholds of the §4.4
/// fault tolerance, probe counts of the staleness estimate.
const THRESHOLDS: [usize; 3] = [1, 2, 4];

/// The jobs, in the order they run when due together, and the [`jitter`]
/// stream each draws from.
const REPAIR: usize = 0;
const SCRAPE: usize = 1;
const STREAMS: [u64; 2] = [0, 0x5343_5241_5045];

/// One peer call a round needs answered: `Keys`, `Digest`, `Snapshot` or a
/// `Membership` push to member `from`. Every pull of a round carries its
/// request id ([`Maintenance::req_id`]) and is capped by what is left of
/// its budget ([`Maintenance::until_ms`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Pull {
    /// The member asked.
    pub from: u64,
    /// What it is asked.
    pub request: Request,
}

/// The multiple of its interval a job waits before its round `round`: in
/// [0.5, 1.5), deterministic per server and per job (`salt` mixes the seed,
/// the job's stream and the server), so servers drift apart instead of
/// digesting each other in lock-step.
fn jitter(salt: u64, round: u64) -> f64 {
    let r = splitmix64(salt ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    0.5 + (r >> 11) as f64 / (1u64 << 53) as f64
}

/// One periodic job: its interval, its [`jitter`] salt, its round counter
/// and when that round is due.
struct Job {
    every_ms: u64,
    salt: u64,
    round: u64,
    due_ms: u64,
}

impl Job {
    /// Moves to the next round, a jittered interval after `now_ms` (at
    /// least a millisecond: one `tick` runs a job once).
    fn schedule(&mut self, now_ms: u64) {
        self.round = self.round.wrapping_add(1);
        let wait = self.every_ms as f64 * jitter(self.salt, self.round);
        self.due_ms = now_ms + (wait as u64).max(1);
    }
}

/// What a round's pulls brought back.
#[derive(Default)]
struct Answers {
    keys: Vec<Vec<u8>>,
    /// Members that answered `Keys`.
    listed: usize,
    /// `(member id, its digest)` in the order the pulls were issued.
    digests: Vec<(u64, Digest)>,
    /// `(member id, its row)` in the order the pulls were issued.
    rows: Vec<(u64, KeySnapshot)>,
}

/// The round in progress.
struct Round {
    /// The request id of every pull.
    id: u64,
    started_ms: u64,
    until_ms: u64,
    repair: Repair,
}

/// The scheduler. See the module documentation.
pub struct Maintenance {
    node: Arc<Node>,
    /// Anti-entropy and the self-scrape, in the order they run when due
    /// together.
    jobs: [Option<Job>; 2],
    round: Option<Round>,
    got: Answers,
    /// The epoch the last repair round started under: a newer one makes
    /// the next round due at once, so migration starts without waiting
    /// out the interval.
    epoch: u64,
    stopped: bool,
    resynced: Option<Result<usize, ClusterError>>,
}

impl Maintenance {
    /// The scheduler of `node`'s configured jobs, each first due a jittered
    /// interval after `now_ms`. A job without an interval never runs.
    pub fn new(node: Arc<Node>, now_ms: u64) -> Maintenance {
        let cfg = node.config();
        let every = [cfg.anti_entropy, cfg.self_scrape];
        let jobs = std::array::from_fn(|i| {
            let salt = cfg.seed ^ STREAMS[i] ^ cfg.me as u64;
            let mut job = Job { every_ms: every[i]?.as_millis() as u64, salt, round: 0, due_ms: 0 };
            job.schedule(now_ms);
            Some(job)
        });
        let epoch = node.epoch();
        Maintenance {
            node,
            jobs,
            round: None,
            got: Answers::default(),
            epoch,
            stopped: false,
            resynced: None,
        }
    }

    /// A cold-start resync: one repair round, now, over every key a
    /// reachable peer lists, without gossip and without a deep window — a
    /// key missing here is suspect, so each one this server's group owns
    /// is rebuilt. [`Maintenance::resynced`] tells how it went once
    /// [`Maintenance::tick`] has no pull left.
    pub fn resync(node: Arc<Node>, now_ms: u64) -> Maintenance {
        let mut resync = Maintenance { jobs: Default::default(), ..Maintenance::new(node, now_ms) };
        resync.begin(Repair::new(None), now_ms);
        resync
    }

    /// When the next round is due, between rounds: `Some(0)` when a
    /// membership install makes the repair round due at once, `None` once
    /// nothing ever will be.
    pub fn next_due(&self) -> Option<u64> {
        (0..self.jobs.len()).filter_map(|job| self.due_ms(job)).min()
    }

    fn due_ms(&self, job: usize) -> Option<u64> {
        let due_ms = self.jobs[job].as_ref().filter(|_| !self.stopped)?.due_ms;
        Some(if job == REPAIR && self.node.epoch() != self.epoch { 0 } else { due_ms })
    }

    /// The request id every pull of the round in progress carries.
    pub fn req_id(&self) -> u64 {
        self.round.as_ref().map_or(0, |round| round.id)
    }

    /// When the round in progress runs out of budget.
    pub fn until_ms(&self) -> u64 {
        self.round.as_ref().map_or(0, |round| round.until_ms)
    }

    /// Runs what is due at `now_ms` as far as it goes without an answer and
    /// returns the pulls it waits on; none when nothing is left to do now.
    /// Call it again once every pull is absorbed.
    pub fn tick(&mut self, now_ms: u64) -> Vec<Pull> {
        while !self.stopped {
            let Some(round) = self.round.as_mut() else {
                let due = |job| self.due_ms(job).is_some_and(|due| due <= now_ms);
                let Some(job) = (0..self.jobs.len()).find(|&job| due(job)) else { break };
                self.start(job, now_ms);
                continue;
            };
            // A round whose budget is spent issues no more pulls; its tail
            // still runs on what it has.
            if now_ms < round.until_ms {
                let pulls = round.repair.step(&self.node, &mut self.got, round.id);
                if !pulls.is_empty() {
                    return pulls;
                }
            }
            self.end(now_ms);
        }
        Vec::new()
    }

    /// Hands back what member `pull.from` answered (`None`: it did not, in
    /// time or at all).
    pub fn absorb(&mut self, pull: Pull, answer: Option<Response>) {
        let (Some(answer), false) = (answer, self.stopped) else { return };
        let got = &mut self.got;
        match (pull.request, answer) {
            (Request::Keys, Response::Keys(keys)) => {
                got.listed += 1;
                got.keys.extend(keys);
            }
            (Request::Digest { .. }, Response::Digest(Some(digest))) => {
                got.digests.push((pull.from, digest));
            }
            // A row about another key is no row of the pulled one.
            (Request::Snapshot { key }, Response::Snapshot(Some(row))) if row.key == key => {
                got.rows.push((pull.from, row));
            }
            (Request::Membership(_), Response::Membership(view)) => {
                self.node.install(view);
            }
            _ => {}
        }
    }

    /// Abandons the round in progress: a stopped scheduler issues no pull
    /// and is never due again.
    pub fn stop(&mut self) {
        self.stopped = true;
        self.round = None;
    }

    /// How a [`Maintenance::resync`] went: the keys it rebuilt.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoServerAvailable`] when no peer answered `Keys`.
    pub fn resynced(self) -> Result<usize, ClusterError> {
        self.resynced.unwrap_or(Err(ClusterError::NoServerAvailable))
    }

    /// Starts the due `job`'s round; a scrape is over at once.
    fn start(&mut self, job: usize, now_ms: u64) {
        let Some(scheduled) = self.jobs[job].as_mut() else { return };
        if job == SCRAPE {
            self.node.scrape(now_ms);
            scheduled.schedule(now_ms);
            return;
        }
        let round = scheduled.round;
        self.node.metrics().antientropy_rounds.inc();
        self.epoch = self.node.epoch();
        self.begin(Repair::new(Some(round)), now_ms);
    }

    fn begin(&mut self, repair: Repair, now_ms: u64) {
        let until_ms = now_ms + self.node.config().timeouts.op_budget.as_millis() as u64;
        let id = self.node.next_id();
        self.round = Some(Round { id, started_ms: now_ms, until_ms, repair });
    }

    fn end(&mut self, now_ms: u64) {
        let Some(Round { id, started_ms, until_ms, repair }) = self.round.take() else { return };
        let (node, me) = (&self.node, self.node.config().me);
        if now_ms >= until_ms {
            pls_telemetry::info!("round_budget_exhausted", req = id, server = me);
        }
        if repair.periodic.is_none() {
            self.resynced = Some(repair.finish(node, id, now_ms));
            return;
        }
        let _periodic_rounds_always_finish = repair.finish(node, id, now_ms);
        let took_us = (now_ms.saturating_sub(started_ms) * 1_000) as f64;
        node.metrics().antientropy_round_us.set(took_us);
        if let Some(job) = self.jobs[REPAIR].as_mut() {
            job.schedule(now_ms);
        }
    }
}

/// A repair round: anti-entropy's, or a resync's.
struct Repair {
    /// The anti-entropy round number — whom to gossip with, which keys to
    /// deep-check — or `None` for a resync, which does neither.
    periodic: Option<u64>,
    stage: Stage,
    /// The key universe, sorted: this server's keys and every peer's.
    keys: Vec<Vec<u8>>,
    /// Indices of `keys` deep-checked whatever their digests say.
    deep: HashSet<usize>,
    listed: usize,
    repaired: u64,
    ft_min: BTreeMap<usize, usize>,
    /// Per `(strategy, t)`: the sum of per-key P(fresh), and the key count.
    p_fresh: BTreeMap<(usize, usize), (f64, u64)>,
}

enum Stage {
    Start,
    Listed,
    /// `keys[i]` is next.
    Next(usize),
    /// Waiting on the digests of `keys[i]`'s group; `local` is this
    /// server's.
    Digests {
        i: usize,
        plan: RepairPlan,
        local: Option<Digest>,
    },
    /// Waiting on the donors' snapshots.
    Snapshots(Deep),
    Done,
}

/// A key in its deep phase.
struct Deep {
    i: usize,
    plan: RepairPlan,
    /// What the digests already showed (always, for a migrating key).
    suspect: bool,
    /// This server's own row, captured before any donor was asked.
    mine: Option<KeySnapshot>,
}

impl Repair {
    fn new(periodic: Option<u64>) -> Repair {
        Repair {
            periodic,
            stage: Stage::Start,
            keys: Vec::new(),
            deep: HashSet::new(),
            listed: 0,
            repaired: 0,
            ft_min: BTreeMap::new(),
            p_fresh: BTreeMap::new(),
        }
    }

    fn step(&mut self, node: &Node, got: &mut Answers, id: u64) -> Vec<Pull> {
        let shards = node.shards();
        loop {
            let pulls = match std::mem::replace(&mut self.stage, Stage::Done) {
                Stage::Done => return Vec::new(),
                // A wiped server learns what it should hold from its peers'
                // keys. Beside them goes the membership gossip, piggybacked on
                // the repair cadence: the exchange pushes this view and the
                // reply carries theirs, and the newer one wins on install, so
                // a partitioned-away server catches up within one round of
                // reaching any current member.
                Stage::Start => {
                    self.stage = Stage::Listed;
                    self.keys = shards.keys();
                    let others: Vec<u64> = shards.other_members().iter().map(|m| m.0).collect();
                    let gossip = self.periodic.filter(|_| !others.is_empty()).map(|round| Pull {
                        from: others[round as usize % others.len()],
                        request: Request::Membership(shards.view()),
                    });
                    let keys = others.iter().map(|&from| Pull { from, request: Request::Keys });
                    gossip.into_iter().chain(keys).collect()
                }
                // The deep window rotates with the round, so every key comes
                // up once every `len / DEEP_KEYS` rounds.
                Stage::Listed => {
                    self.keys.append(&mut got.keys);
                    self.keys.sort();
                    self.keys.dedup();
                    self.listed = got.listed;
                    if let Some(round) = self.periodic {
                        let len = self.keys.len();
                        let start = (round as usize).wrapping_mul(DEEP_KEYS).checked_rem(len);
                        let start = start.unwrap_or(0);
                        self.deep = (0..len.min(DEEP_KEYS)).map(|i| (start + i) % len).collect();
                    }
                    if self.periodic.is_some() || self.listed > 0 {
                        self.stage = Stage::Next(0);
                    }
                    Vec::new()
                }
                Stage::Next(i) if i == self.keys.len() => Vec::new(),
                Stage::Next(i) => self.start(node, got, i),
                Stage::Digests { i, plan, local } => self.digested(node, got, i, plan, local),
                Stage::Snapshots(deep) => {
                    self.stage = Stage::Next(deep.i + 1);
                    self.pulled(node, got, id, deep);
                    Vec::new()
                }
            };
            if !pulls.is_empty() {
                return pulls;
            }
        }
    }

    fn start(&mut self, node: &Node, got: &mut Answers, i: usize) -> Vec<Pull> {
        let key = &self.keys[i];
        let Some(plan) = node.shards().repair_plan(key) else {
            self.stage = Stage::Next(i + 1);
            return Vec::new();
        };
        if plan.migrating {
            return self.capture(node, got, Deep { i, plan, suspect: true, mine: None });
        }
        let local = node.shards().digest(key);
        got.digests.clear();
        let digest = |&from| Pull { from, request: Request::Digest { key: key.clone() } };
        let pulls = plan.donors.iter().map(digest).collect();
        self.stage = Stage::Digests { i, plan, local };
        pulls
    }

    fn digested(
        &mut self,
        node: &Node,
        got: &mut Answers,
        i: usize,
        plan: RepairPlan,
        local: Option<Digest>,
    ) -> Vec<Pull> {
        let answered = std::mem::take(&mut got.digests);
        // Only the key's current group holds it for a lookup: a grace-overlap
        // donor outside it feeds the verdict, never the staleness estimate.
        let holders = answered.iter().filter(|(id, _)| plan.group.contains(id));
        self.measure(node, local.into_iter().chain(holders.map(|(_, d)| *d)).collect());
        let digests: Vec<Digest> = answered.into_iter().map(|(_, d)| d).collect();
        let spec = local.or(digests.first().copied()).map_or(node.config().spec, |d| d.spec);
        let suspect = digest_verdict(spec, local.as_ref(), &digests);
        // No reachable donor knows the key: nothing to compare against,
        // nothing to repair from.
        if digests.is_empty() || !(suspect || self.deep.contains(&i)) {
            self.stage = Stage::Next(i + 1);
            return Vec::new();
        }
        self.capture(node, got, Deep { i, plan, suspect, mine: None })
    }

    /// The staleness of one key, from everyone's digest of it, this
    /// server's first: every holder's version against the freshest one
    /// anyone knows, turned into the PBS-style `pls_live_staleness{strategy,t}`
    /// gauge — the estimated probability that a partial lookup probing `t`
    /// of a key's `h` holders reaches at least one fully fresh copy:
    ///
    /// ```text
    ///   P(fresh) = 1 - C(h - f, t) / C(h, t)        (t capped at h)
    /// ```
    ///
    /// where `f` is the number of holders at the freshest observed version.
    /// Per-holder lags also feed `pls_staleness_versions_behind`. Versions are
    /// only cluster-comparable under the broadcast strategies; under Hash and
    /// Round-Robin the gauge bounds divergence rather than measuring freshness.
    fn measure(&mut self, node: &Node, digests: Vec<Digest>) {
        // The freshest version anyone knows counts even from a holder-less
        // server: a delete can leave the freshest server empty while
        // laggards still hold the entry.
        let (Some(spec), Some(max_ver)) =
            (digests.first().map(|d| d.spec), digests.iter().map(|d| d.version).max())
        else {
            return;
        };
        // Holders: the servers a partial lookup can draw from.
        let holders: Vec<u64> = digests.iter().filter(|d| d.count > 0).map(|d| d.version).collect();
        let h = holders.len();
        if h == 0 {
            return;
        }
        for &version in &holders {
            node.metrics().staleness_versions_behind.observe(max_ver - version);
        }
        let fresh = holders.iter().filter(|&&version| version == max_ver).count();
        for t in THRESHOLDS {
            let t_capped = t.min(h);
            let p_fresh = 1.0 - choose(h - fresh, t_capped) / choose(h, t_capped);
            let slot = self.p_fresh.entry((strategy_index(spec), t)).or_insert((0.0, 0));
            slot.0 += p_fresh;
            slot.1 += 1;
        }
    }

    /// The deep phase: every donor's full snapshot — the live placement
    /// rows for the §4.4 gauge, ground truth for the Hash/Round-Robin
    /// checks, and what a repair rebuilds from. This server's own row is
    /// captured first, and the guard a rebuild re-validates is its digest:
    /// a write acked after the capture makes the rebuild refuse instead of
    /// wiping the write with stale data.
    fn capture(&mut self, node: &Node, got: &mut Answers, mut deep: Deep) -> Vec<Pull> {
        let key = &self.keys[deep.i];
        deep.mine = node.shards().snapshot(key);
        got.rows.clear();
        let pulls = deep
            .plan
            .donors
            .iter()
            .map(|&from| Pull { from, request: Request::Snapshot { key: key.clone() } })
            .collect();
        self.stage = Stage::Snapshots(deep);
        pulls
    }

    /// The verdict on a key whose snapshots are in, and its rebuild.
    fn pulled(&mut self, node: &Node, got: &mut Answers, id: u64, deep: Deep) {
        let Deep { i, plan, suspect, mine } = deep;
        let (key, shards, me) = (&self.keys[i], node.shards(), node.config().me);
        let donors = std::mem::take(&mut got.rows);
        // Decide from rows in hand only: a verdict from a row that never
        // came would wipe a converged replica. A migrating key is re-homed
        // from its own copy even while every donor is unreachable.
        if donors.is_empty() && !plan.migrating {
            return;
        }
        let own = mine.is_some();
        let (ids, rows): (Vec<u64>, Vec<KeySnapshot>) =
            mine.map(|row| (shards.my_id(), row)).into_iter().chain(donors).unzip();
        let Some(spec) = rows.first().map(|row| row.spec) else { return };
        let merged = merge_donor_rows(key, spec, &rows);
        // What the current group holds right now, one row per member: an
        // unreachable member's stays empty (the pessimistic reading); a
        // grace-overlap donor outside the group feeds the merge only.
        let mut placement = vec![Vec::new(); plan.group.len()];
        for (id, row) in ids.iter().zip(&rows) {
            if let Some(pos) = group_index(&plan.group, *id) {
                placement[pos] = row.entries.clone();
            }
        }
        let placement = Placement::from_rows(placement);
        for t in THRESHOLDS {
            let tol = greedy_tolerance(&placement, t);
            self.ft_min.entry(t).and_modify(|m| *m = (*m).min(tol)).or_insert(tol);
        }
        // A migrating engine's shape predates the current group, so its
        // share is not judged against it (`suspect` is set already).
        let mine = rows.first().filter(|_| own);
        if !(suspect || mine.is_some_and(|mine| shards.deep_verdict(mine, &merged))) {
            return;
        }
        let guard = mine.map_or(Digest::absent(spec), KeySnapshot::digest);
        let rebuilt = entries_for_rebuild(&rows, merged);
        let moved = (rebuilt.entries.len() + rebuilt.positions.len()) as u64;
        let m = node.metrics();
        match shards.rebuild(rebuilt, Some(guard)) {
            Ok(Rebuilt::Refused) => pls_telemetry::debug!(
                "antientropy_repair_skipped_stale",
                req = id,
                server = me,
                key_bytes = key.len()
            ),
            Ok(did) => {
                self.repaired += 1;
                m.antientropy_repairs.inc();
                m.engines_created.add(u64::from(did == Rebuilt::Created));
                // A migrating key is re-homed into the group of `epoch`.
                let (epoch, migrated) = (plan.epoch, if plan.migrating { moved } else { 0 });
                m.migration_entries.add(migrated);
                pls_telemetry::info!(
                    "antientropy_repaired",
                    req = id,
                    server = me,
                    key_bytes = key.len(),
                    epoch = epoch,
                    migrated = migrated
                );
            }
            Err(err) => {
                pls_telemetry::warn!("antientropy_repair_failed", req = id, server = me, err = err);
            }
        }
    }

    /// The round's tail, whether its keys all came or its budget ran out.
    fn finish(self, node: &Node, id: u64, now_ms: u64) -> Result<usize, ClusterError> {
        let (shards, m, cfg) = (node.shards(), node.metrics(), node.config());
        // A resync no peer answered has nothing to go on.
        if self.periodic.is_none() && self.listed == 0 {
            return Err(ClusterError::NoServerAvailable);
        }
        // Migration lag converges to zero once every owed key was pulled.
        m.migration_pending.set(shards.migration_pending(&self.keys) as f64);
        // Tombstones older than the TTL have done their job (every replica
        // that will ever hear of the delete has). Collected on the repair
        // cadence, so a tombstone always survives several repair intervals.
        let cutoff = now_ms.saturating_sub(cfg.tombstone_ttl.as_millis() as u64);
        m.tombstones_gc.add(shards.gc_tombstones(cutoff) as u64);
        // Repairs bypass the WAL; persist them before the next crash.
        if self.repaired > 0 {
            if let Err(err) = (0..shards.as_slice().len()).try_for_each(|i| shards.checkpoint(i)) {
                pls_telemetry::warn!("antientropy_checkpoint_failed", server = cfg.me, err = err);
            }
        }
        if !self.ft_min.is_empty() {
            *node.live_ft.lock() = self.ft_min;
        }
        if !self.p_fresh.is_empty() {
            *node.live_staleness.lock() =
                self.p_fresh.into_iter().map(|(k, (sum, n))| (k, sum / n as f64)).collect();
        }
        let (keys, repaired) = (self.keys.len(), self.repaired);
        pls_telemetry::debug!("repair_round_done", req = id, keys = keys, repaired = repaired);
        Ok(repaired as usize)
    }
}

/// Binomial coefficient as `f64` (`n` is at most the group size, so
/// precision is not a concern). `C(n, k) = 0` when `k > n`.
fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    (0..k).map(|i| (n - i) as f64 / (i + 1) as f64).product()
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use pls_core::StrategySpec;

    use super::*;
    use crate::server::harness::{config, node, Cluster};
    use crate::server::ServerConfig;

    fn every_second(cfg: ServerConfig) -> ServerConfig {
        ServerConfig { anti_entropy: Some(Duration::from_secs(1)), ..cfg }
    }

    fn entries(n: u32) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("peer{i}:6699").into_bytes()).collect()
    }

    fn place(cluster: &Cluster, key: &[u8], n: u32) {
        let at = cluster.nodes[0].shards().group_of(key)[0];
        let place = Request::Place { key: key.to_vec(), entries: entries(n), spec: None };
        assert_eq!(cluster.call(at, place), Response::Ok);
    }

    fn held(node: &Node, key: &[u8]) -> Vec<Vec<u8>> {
        let mut held = node.shards().snapshot(key).map(|s| s.entries).unwrap_or_default();
        held.sort();
        held
    }

    #[test]
    fn due_times_are_jittered_per_job_and_per_server() {
        for round in 1..2_000 {
            assert!((0.5..1.5).contains(&jitter(0xC0FFEE ^ round, round)), "round {round}");
        }
        let every = Some(Duration::from_millis(1_000));
        let all = |cfg| ServerConfig { anti_entropy: every, self_scrape: every, ..cfg };
        let cluster = Cluster::new(3, StrategySpec::FullReplication, all);
        let dues: Vec<Vec<u64>> = cluster
            .nodes
            .iter()
            .map(|node| {
                let maint = Maintenance::new(Arc::clone(node), 10_000);
                maint.jobs.iter().map(|job| job.as_ref().unwrap().due_ms).collect()
            })
            .collect();
        for due in dues.iter().flatten() {
            assert!((10_500..11_500).contains(due), "{dues:?}");
        }
        let mut distinct: Vec<u64> = dues.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 6, "two jobs on three servers, one seed: {dues:?}");
    }

    #[test]
    fn a_job_without_an_interval_never_pulls() {
        let scrape_only = |cfg| ServerConfig { self_scrape: Some(Duration::from_secs(1)), ..cfg };
        let cluster = Cluster::new(3, StrategySpec::FullReplication, scrape_only);
        place(&cluster, b"k", 4);
        let node = &cluster.nodes[0];
        let mut maint = Maintenance::new(Arc::clone(node), 0);
        // Not even a new view makes an unconfigured repair round due.
        let (next, _) = node.shards().view().with_join("127.0.0.1:9300");
        cluster.call(0, Request::Membership(next));
        for now in (0..60_000).step_by(250) {
            assert_eq!(maint.tick(now), Vec::new(), "at {now}");
        }
        assert_eq!(node.metrics().antientropy_rounds.get(), 0);
        assert!(maint.next_due().is_some_and(|due| due > 60_000), "only the scrape is due");
        let bare = cluster.nodes[1].config().clone();
        let bare = ServerConfig { self_scrape: None, ..bare };
        let bare = crate::server::harness::node(bare, Vec::new(), Vec::new()).0;
        assert_eq!(Maintenance::new(bare, 0).next_due(), None);
    }

    #[test]
    fn a_membership_install_makes_the_repair_round_due_at_once() {
        let every_minute =
            |cfg| ServerConfig { anti_entropy: Some(Duration::from_secs(60)), ..cfg };
        let cluster = Cluster::new(3, StrategySpec::FullReplication, every_minute);
        let node = &cluster.nodes[0];
        let mut maint = Maintenance::new(Arc::clone(node), 0);
        assert!(maint.next_due().is_some_and(|due| due >= 30_000));
        assert_eq!(maint.tick(1), Vec::new());
        let (next, _) = node.shards().view().with_join("127.0.0.1:9300");
        cluster.call(1, Request::Membership(next.clone()));
        assert!(maint.next_due().is_some_and(|due| due >= 30_000), "member 1's view, not 0's");
        cluster.call(0, Request::Membership(next));
        assert_eq!(maint.next_due(), Some(0));
        let pulls = maint.tick(2);
        assert!(pulls.iter().any(|p| matches!(p.request, Request::Membership(_))), "{pulls:?}");
        assert_eq!(node.metrics().antientropy_rounds.get(), 1);
    }

    #[test]
    fn a_round_out_of_budget_pulls_no_more_and_counts_once() {
        let budget = |cfg: ServerConfig| ServerConfig {
            timeouts: cfg.timeouts.with_op_budget_ms(100),
            ..every_second(cfg)
        };
        let cluster = Cluster::new(3, StrategySpec::FullReplication, budget);
        place(&cluster, b"k", 4);
        let node = &cluster.nodes[0];
        let mut maint = Maintenance::new(Arc::clone(node), 0);
        let due = maint.next_due().unwrap();
        let pulls = maint.tick(due);
        assert!(pulls.iter().any(|p| p.request == Request::Keys), "{pulls:?}");
        for pull in pulls {
            let answer = cluster.answer(maint.req_id(), &pull);
            maint.absorb(pull, answer);
        }
        // With the answers in, the round would pull digests of `k` next —
        // but its budget is spent.
        assert_eq!(maint.tick(due + 100), Vec::new());
        assert_eq!(maint.tick(due + 101), Vec::new());
        assert_eq!(node.metrics().antientropy_rounds.get(), 1);
        assert_eq!(node.metrics().antientropy_round_us.get(), 100_000.0);
        assert!(maint.next_due().is_some_and(|next| next >= due + 600), "a full interval on");
    }

    #[test]
    fn a_stopped_scheduler_pulls_no_more() {
        let cluster = Cluster::new(3, StrategySpec::FullReplication, every_second);
        place(&cluster, b"k", 4);
        let mut maint = Maintenance::new(Arc::clone(&cluster.nodes[0]), 0);
        let due = maint.next_due().unwrap();
        let pulls = maint.tick(due);
        assert!(!pulls.is_empty());
        maint.stop();
        for pull in pulls {
            let answer = cluster.answer(7, &pull);
            maint.absorb(pull, answer);
        }
        assert_eq!(maint.tick(due), Vec::new());
        assert_eq!(maint.tick(due + 10_000), Vec::new());
        assert_eq!(maint.next_due(), None);
    }

    /// The in-process twin of `anti_entropy_heals_a_wiped_server_without_an_operator`.
    #[test]
    fn a_wiped_node_heals_in_one_repair_round() {
        let spec = StrategySpec::FullReplication;
        let mut cluster = Cluster::new(3, spec, every_second);
        place(&cluster, b"k", 8);
        cluster.nodes[1] = node(every_second(config(1, 3, spec)), Vec::new(), Vec::new()).0;
        assert_eq!(held(&cluster.nodes[1], b"k"), Vec::<Vec<u8>>::new());
        cluster.repair(1);
        let mut want = entries(8);
        want.sort();
        assert_eq!(held(&cluster.nodes[1], b"k"), want);
        let m = cluster.nodes[1].metrics();
        assert_eq!((m.antientropy_rounds.get(), m.antientropy_repairs.get()), (1, 1));
        // Nothing is divergent any more: the next round repairs nothing.
        cluster.repair(1);
        assert_eq!(cluster.nodes[1].metrics().antientropy_repairs.get(), 1);
    }

    /// `pls_live_staleness{strategy="full",t}` of `node`, per `t`.
    fn p_fresh(node: &Node, t: usize) -> Option<f64> {
        let m = node.collect_metrics(false);
        m.gauge(&format!("pls_live_staleness{{strategy=\"full\",t=\"{t}\"}}"))
    }

    /// The digests a repair round pulls measure staleness: member 2 missed
    /// one add, so two of the key's three holders are fresh, and a lookup
    /// probing one holder reaches a fresh copy with probability 2/3.
    #[test]
    fn a_repair_round_measures_staleness_from_its_digests() {
        let mut cluster = Cluster::new(3, StrategySpec::FullReplication, every_second);
        place(&cluster, b"k", 4);
        let at = &cluster.nodes[0];
        let add = Request::Add { key: b"k".to_vec(), entry: b"late:6699".to_vec() };
        let mut plan = at.serve(1, Ok(add), cluster.now_ms);
        for (to, req) in std::mem::take(&mut plan.calls).into_iter().filter(|c| c.0 == 1) {
            assert_eq!(cluster.call(to, req), Response::Ok);
        }
        assert_eq!(at.answer(plan, Ok(())).0, Response::Ok);
        cluster.repair(0);
        let node = &cluster.nodes[0];
        assert!(p_fresh(node, 1).is_some_and(|p| (p - 2.0 / 3.0).abs() < 1e-12));
        assert_eq!((p_fresh(node, 2), p_fresh(node, 4)), (Some(1.0), Some(1.0)));
        let m = node.collect_metrics(false);
        let behind = m.histogram("pls_staleness_versions_behind").unwrap();
        assert_eq!((behind.count, behind.sum), (3, 1), "lags 0, 0 and 1");
    }

    /// A grace-overlap donor outside a key's current group answers the
    /// round's digest pull, but no lookup can reach it: its stale copy
    /// feeds the verdict, never the staleness estimate.
    #[test]
    fn a_grace_overlap_donor_is_not_counted_as_a_holder() {
        let spec = StrategySpec::FullReplication;
        let g3 = |cfg| ServerConfig { group_size: 3, ..every_second(cfg) };
        let mut cluster = Cluster::new(3, spec, g3);
        // A key that member 3's join moves off member 2 and leaves on 0.
        let (next, joiner) = cluster.nodes[0].shards().view().with_join("127.0.0.1:9203");
        assert_eq!(joiner, 3);
        let router = pls_core::GroupRouter::new(3, crate::server::harness::SEED);
        let moves = |key: &Vec<u8>| {
            let group = router.group(&next, key);
            group.contains(&0) && !group.contains(&2)
        };
        let key = (0..).map(|i| format!("key/{i}").into_bytes()).find(moves).unwrap();
        place(&cluster, &key, 4);
        for id in 0..3 {
            cluster.call(id, Request::Membership(next.clone()));
        }
        let joiner = ServerConfig { membership: Some((3, next)), ..g3(config(0, 1, spec)) };
        cluster.nodes.push(node(joiner, Vec::new(), Vec::new()).0);
        for id in [3, 0, 1] {
            cluster.repair(id);
        }
        let add = Request::Add { key: key.clone(), entry: b"late:6699".to_vec() };
        assert_eq!(cluster.call(0, add), Response::Ok);
        let lagging = cluster.nodes[2].shards().digest(&key);
        assert!(lagging.is_some_and(|d| d.count == 4), "member 2 kept its copy and missed the add");
        cluster.repair(0);
        let node = &cluster.nodes[0];
        for t in THRESHOLDS {
            assert_eq!(p_fresh(node, t), Some(1.0), "t = {t}");
        }
        let m = node.collect_metrics(false);
        let behind = m.histogram("pls_staleness_versions_behind").unwrap();
        assert_eq!((behind.count, behind.sum), (3, 0), "members 0, 1 and 3, all fresh");
    }

    /// A donor that answers a key's `Snapshot` pull with a row for
    /// another key gives that key nothing: the row is not merged, and the
    /// wiped member neither rebuilds the key nor counts a repair.
    #[test]
    fn a_row_for_another_key_is_not_absorbed() {
        let spec = StrategySpec::FullReplication;
        let mut cluster = Cluster::new(3, spec, every_second);
        place(&cluster, b"k", 8);
        cluster.nodes[1] = node(every_second(config(1, 3, spec)), Vec::new(), Vec::new()).0;
        let mut maint = Maintenance::new(Arc::clone(&cluster.nodes[1]), cluster.now_ms);
        cluster.now_ms = maint.next_due().unwrap();
        let mut misdirected = 0;
        loop {
            let pulls = maint.tick(cluster.now_ms);
            if pulls.is_empty() {
                break;
            }
            for pull in pulls {
                let mut answer = cluster.answer(maint.req_id(), &pull);
                if let Some(Response::Snapshot(Some(row))) = answer.as_mut() {
                    row.key = b"elsewhere".to_vec();
                    misdirected += 1;
                }
                maint.absorb(pull, answer);
            }
        }
        assert_eq!(misdirected, 2, "both donors answered the pull");
        let node = &cluster.nodes[1];
        assert_eq!(node.shards().snapshot(b"k"), None);
        assert_eq!(node.shards().status().keys, 0);
        let m = node.metrics();
        assert_eq!((m.antientropy_rounds.get(), m.antientropy_repairs.get()), (1, 0));
    }

    /// One gossip frame with no member at a nonzero epoch is refused where
    /// the shell decodes it. Installed, it would leave its holder nobody
    /// to gossip with, and gossip would carry it to every member for good.
    #[test]
    fn an_empty_view_is_refused_and_every_view_stays_whole() {
        let mut cluster = Cluster::new(3, StrategySpec::FullReplication, every_second);
        place(&cluster, b"k", 4);
        let mut frame = crate::wire::Writer::new();
        frame.u8(0x0D).u64(7).u32(0);
        let decoded = Request::decode(&frame.into_payload());
        assert_eq!(decoded, Err(ClusterError::Decode("empty membership")));
        let at = &cluster.nodes[0];
        let (reply, _) = at.answer(at.serve(1, decoded, cluster.now_ms), Ok(()));
        assert!(matches!(reply, Response::Error(_)), "{reply:?}");
        let mut maints: Vec<Maintenance> =
            (1..3).map(|id| Maintenance::new(Arc::clone(&cluster.nodes[id]), 0)).collect();
        for _ in 0..6 {
            for maint in &mut maints {
                cluster.now_ms = cluster.now_ms.max(maint.next_due().unwrap());
                cluster.drive(maint);
            }
        }
        for node in &cluster.nodes {
            let view = node.shards().view();
            assert_eq!((view.epoch(), view.len()), (1, 3), "member {}", node.config().me);
        }
        let rounds = |id: usize| cluster.nodes[id].metrics().antientropy_rounds.get();
        assert_eq!((rounds(1), rounds(2)), (6, 6));
    }

    /// A cold-start resync in a cluster wider than the placement group:
    /// a key whose groups (current and previous) both leave this server
    /// out is not its to rebuild, and must not end the resync.
    #[test]
    fn resync_rebuilds_the_keys_whose_group_holds_the_node() {
        let spec = StrategySpec::FullReplication;
        let g5 = |cfg| ServerConfig { group_size: 5, ..cfg };
        let mut cluster = Cluster::new(7, spec, g5);
        let keys: Vec<Vec<u8>> = (0..24).map(|i| format!("key/{i}").into_bytes()).collect();
        for key in &keys {
            place(&cluster, key, 6);
        }
        let owned: Vec<&Vec<u8>> =
            keys.iter().filter(|k| cluster.nodes[0].shards().group_of(k).contains(&6)).collect();
        assert!(!owned.is_empty() && owned.len() < keys.len(), "{}", owned.len());
        cluster.nodes[6] = node(g5(config(6, 7, spec)), Vec::new(), Vec::new()).0;
        let mut resync = Maintenance::resync(Arc::clone(&cluster.nodes[6]), cluster.now_ms);
        cluster.drive(&mut resync);
        assert_eq!(resync.resynced(), Ok(owned.len()));
        let mut want = entries(6);
        want.sort();
        for key in owned {
            assert_eq!(held(&cluster.nodes[6], key), want);
        }
        assert_eq!(cluster.nodes[6].shards().status().keys, owned_count(&cluster, &keys));
    }

    fn owned_count(cluster: &Cluster, keys: &[Vec<u8>]) -> u64 {
        keys.iter().filter(|k| cluster.nodes[0].shards().group_of(k).contains(&6)).count() as u64
    }

    /// A Round-Robin-2 join from three members to four, in the order that
    /// loses nothing: the members that gain positions pull them before the
    /// members that give them up rebuild. (The other order — members 0 and
    /// 1 rebuilding first drop position 6, which moves from {0, 1} to
    /// {2, 3} — is the open defect `membership::live_join_loses_no_entry`
    /// pins end to end.)
    #[test]
    fn a_round_robin_join_converges_when_the_new_holders_pull_first() {
        let spec = StrategySpec::round_robin(2);
        let mut cluster = Cluster::new(3, spec, every_second);
        place(&cluster, b"k", 12);
        let gone = b"peer3:6699".to_vec();
        assert_eq!(
            cluster.call(0, Request::Delete { key: b"k".to_vec(), entry: gone.clone() }),
            Response::Ok
        );
        let join = Request::JoinLeave { join: Some("127.0.0.1:9203".into()), leave: None };
        let Response::Membership(view) = cluster.call(0, join) else {
            panic!("the join was refused");
        };
        let joiner =
            ServerConfig { membership: Some((3, view)), ..every_second(config(0, 1, spec)) };
        cluster.nodes.push(node(joiner, Vec::new(), Vec::new()).0);
        for id in [3, 2, 0, 1] {
            cluster.repair(id);
        }
        let mut union = std::collections::BTreeSet::new();
        for node in &cluster.nodes {
            assert_eq!(node.epoch(), 2);
            assert_eq!(node.metrics().migration_pending.get(), 0.0);
            let snap = node.shards().snapshot(b"k").expect("every member holds a share");
            union.extend(snap.positions.into_iter().map(|(_, entry)| entry));
        }
        assert!(!union.contains(&gone), "the delete stayed dead");
        assert_eq!(union.len(), 11, "every live entry survived the move");
    }
}
