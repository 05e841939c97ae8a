//! `soak` — a fault-schedule soak harness with a built-in invariant
//! auditor.
//!
//! ```text
//! soak --bin-dir DIR [--out DIR] [--name NAME] [--phase-s S]
//!      [--base-port P] [--concurrency N] [--seed S] [--data-dir DIR]
//!
//!   --bin-dir      directory holding the pls-server and pls-chaos
//!                  binaries (e.g. target/release)
//!   --out          artifact directory (default results)
//!   --name         artifact name: writes OUT/SOAK_<name>.json
//!                  (default soak)
//!   --phase-s      seconds per phase (default 18; nine phases)
//!   --base-port    first port of the harness's range (default 7811)
//!   --concurrency  closed-loop load workers (default 4)
//!   --seed         workload seed (default 42)
//!   --data-dir     servers' durable state (default /tmp/pls-soak;
//!                  wiped at start)
//! ```
//!
//! The harness boots a 2-server durable cluster (`--shards 2`, short
//! SLO windows, 500 ms observatory self-scrape) with server 1 standing
//! behind a `pls-chaos` proxy *from server 0's point of view* (server
//! 0's peer list carries the proxy port; clients dial both servers
//! directly). A third server joins the live cluster partway through.
//! The load runs through nine scheduled phases:
//!
//!   baseline  → everything healthy
//!   blackhole → the proxy swallows server 0's internal sends, so
//!               replication fails and error budgets burn
//!   restart   → proxy restored, server 1 killed with SIGKILL and
//!               restarted from its WAL
//!   recovery  → everything healthy again; anti-entropy repairs
//!   join      → a third server joins the live cluster (`--join`),
//!               placement groups re-home onto it via migration
//!   drain1    → server 1 is retired gracefully (`drain`); survivors
//!               pull its partitions before its process is killed
//!   crash0    → server 0 SIGKILLed mid-churn and restarted from its
//!               WAL into the post-churn membership
//!   settle    → everything healthy; burn rates decay
//!   drain     → load stops; the auditor asserts convergence
//!
//! Throughout, an auditor samples every live member's Metrics RPC and,
//! at the end, its `GET /debug/timeline`, and renders verdicts:
//! cumulative counters never go backwards (modulo the scheduled
//! restarts), some SLO burn rate was **observed burning during the
//! fault**, `pls_queue_depth{queue="inflight"}` drains to 0 once load
//! stops, `pls_live_staleness` converges back to 1.0, burn rates decay
//! post-recovery, the server-side timeline's cumulative series agrees
//! with Metrics-RPC readings taken around it (no drift), and — for the
//! churn phases — the membership epoch converges on every live member,
//! entries actually migrated (`pls_migration_entries_total` > 0) with
//! the migration backlog draining to zero, and **no seeded entry is
//! lost** across the join + drain + crash schedule. The run lands a
//! `pls-soak/v1` artifact and exits nonzero if any audit fails.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pls_bench::output::git_rev;
use pls_cluster::{flag, parse_spec, Client, ClientConfig, Deadline, Timeouts};
use pls_telemetry::json::{array, parse, Object, Value};
use pls_telemetry::snapshot::family_of;
use pls_telemetry::MetricsSnapshot;
use pls_wire::metrics::views::TIMELINE_SERIES;

/// Keys the workload cycles over.
const KEYS: u64 = 24;
/// Observatory self-scrape interval handed to the servers, and the
/// auditor's own sampling cadence.
const SCRAPE_MS: u64 = 500;
/// Fast SLO window handed to the servers — short, so burn rates react
/// within a phase and decay within the drain.
const SLO_FAST_S: u64 = 5;
/// Slow SLO window handed to the servers.
const SLO_SLOW_S: u64 = 20;

struct Opts {
    bin_dir: PathBuf,
    out_dir: PathBuf,
    name: String,
    phase_s: u64,
    base_port: u16,
    concurrency: usize,
    seed: u64,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut bin_dir: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("results");
    let mut name = "soak".to_string();
    let mut phase_s = 18u64;
    let mut base_port = 7811u16;
    let mut concurrency = 4usize;
    let mut seed = 42u64;
    let mut data_dir = PathBuf::from("/tmp/pls-soak");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--bin-dir" => bin_dir = Some(flag(&arg, args)?),
            "--out" => out_dir = flag(&arg, args)?,
            "--name" => name = flag(&arg, args)?,
            "--phase-s" => phase_s = flag(&arg, args)?,
            "--base-port" => base_port = flag(&arg, args)?,
            "--concurrency" => concurrency = flag(&arg, args)?,
            "--seed" => seed = flag(&arg, args)?,
            "--data-dir" => data_dir = flag(&arg, args)?,
            "--help" | "-h" => {
                return Err("usage: soak --bin-dir DIR [--out DIR] [--name NAME] [--phase-s S] \
                     [--base-port P] [--concurrency N] [--seed S] [--data-dir DIR]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let bin_dir = bin_dir.ok_or("--bin-dir is required (e.g. target/release)")?;
    Ok(Opts {
        bin_dir,
        out_dir,
        name,
        phase_s: phase_s.max(5),
        base_port,
        concurrency: concurrency.max(1),
        seed,
        data_dir,
    })
}

/// The spawned cluster processes. Dropping the struct kills whatever
/// is still running, so no failure path leaks servers.
struct Procs {
    server0: Option<Child>,
    server1: Option<Child>,
    server2: Option<Child>,
    proxy: Option<Child>,
}

impl Procs {
    fn new() -> Self {
        Procs { server0: None, server1: None, server2: None, proxy: None }
    }

    fn slots(&mut self) -> [&mut Option<Child>; 4] {
        [&mut self.server0, &mut self.server1, &mut self.server2, &mut self.proxy]
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        for slot in self.slots() {
            if let Some(child) = slot.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn kill_slot(slot: &mut Option<Child>) {
    if let Some(mut child) = slot.take() {
        // std's kill is SIGKILL on unix: no shutdown path runs, which
        // is the point for the restart phase.
        let _ = child.kill();
        let _ = child.wait();
    }
}

struct Ports {
    server: [SocketAddr; 3],
    metrics: [SocketAddr; 3],
    proxy: SocketAddr,
}

fn ports(base: u16) -> Ports {
    let at = |off: u16| format!("127.0.0.1:{}", base + off).parse().expect("loopback addr");
    Ports { server: [at(0), at(1), at(3)], metrics: [at(50), at(51), at(52)], proxy: at(2) }
}

/// The flags shared by every server the harness spawns.
fn server_command(o: &Opts, p: &Ports, index: usize) -> Command {
    let mut cmd = Command::new(o.bin_dir.join("pls-server"));
    cmd.args(["--strategy", "round:2"])
        .args(["--seed", &o.seed.to_string(), "--shards", "2"])
        .args(["--data-dir", &o.data_dir.join(index.to_string()).to_string_lossy()])
        .args(["--checkpoint-every", "32", "--antientropy-ms", "1000"])
        .args(["--tombstone-ttl-ms", "60000"])
        .args(["--scrape-ms", &SCRAPE_MS.to_string()])
        .args(["--slo-fast-s", &SLO_FAST_S.to_string(), "--slo-slow-s", &SLO_SLOW_S.to_string()])
        .args(["--slo-latency-ms", "50"])
        .args(["--rpc-timeout-ms", "400", "--op-budget-ms", "3000"])
        .args(["--metrics-addr", &p.metrics[index].to_string()])
        .args(["--log", "warn"]);
    cmd
}

fn spawn_server(o: &Opts, p: &Ports, index: usize) -> Result<Child, String> {
    // Server 0 reaches server 1 through the chaos proxy; server 1's
    // own slot carries its real port (a server never dials itself
    // through the proxy).
    let peers = match index {
        0 => format!("{},{}", p.server[0], p.proxy),
        _ => format!("{},{}", p.server[0], p.server[1]),
    };
    server_command(o, p, index)
        .args(["--index", &index.to_string(), "--peers", &peers])
        .spawn()
        .map_err(|e| format!("spawn pls-server {index}: {e}"))
}

/// Spawns the third server as a **live joiner**: it asks server 0 to
/// admit it and boots from the membership view the cluster hands back.
fn spawn_joiner(o: &Opts, p: &Ports) -> Result<Child, String> {
    server_command(o, p, 2)
        .args(["--join", &p.server[0].to_string(), "--advertise", &p.server[2].to_string()])
        .spawn()
        .map_err(|e| format!("spawn pls-server joiner: {e}"))
}

/// Spawns the chaos proxy in the given mode, retrying briefly: right
/// after a kill the listen port can still be settling.
fn spawn_proxy(o: &Opts, p: &Ports, mode: &str) -> Result<Child, String> {
    for _attempt in 0..10 {
        let mut child = Command::new(o.bin_dir.join("pls-chaos"))
            .args(["--listen", &p.proxy.to_string(), "--upstream", &p.server[1].to_string()])
            .args(["--mode", mode, "--log", "warn"])
            .spawn()
            .map_err(|e| format!("spawn pls-chaos: {e}"))?;
        std::thread::sleep(Duration::from_millis(300));
        match child.try_wait() {
            Ok(None) => return Ok(child),
            Ok(Some(_)) => continue,
            Err(e) => return Err(format!("pls-chaos: {e}")),
        }
    }
    Err("pls-chaos kept exiting at startup (listen port busy?)".to_string())
}

/// One audit verdict.
struct Audit {
    name: &'static str,
    pass: bool,
    detail: String,
}

impl Audit {
    fn new(name: &'static str, pass: bool, detail: String) -> Self {
        println!("audit {name}: {} — {detail}", if pass { "PASS" } else { "FAIL" });
        Audit { name, pass, detail }
    }
}

/// What one load phase looked like from the auditor's chair.
struct PhaseStat {
    name: &'static str,
    planned_s: u64,
    ops: u64,
    client_errors: u64,
    samples: u64,
    /// Highest fast-window burn rate seen per objective.
    max_burn_fast: BTreeMap<String, f64>,
}

/// Samples every live member's Metrics RPC: tracks counter
/// monotonicity and the per-phase burn-rate high-water marks.
struct Sampler {
    prev: BTreeMap<u64, BTreeMap<String, u64>>,
    regressions: Vec<String>,
    samples: u64,
    max_burn_fast: BTreeMap<String, f64>,
}

impl Sampler {
    fn new() -> Self {
        Sampler {
            prev: BTreeMap::new(),
            regressions: Vec::new(),
            samples: 0,
            max_burn_fast: BTreeMap::new(),
        }
    }

    /// Forget a member's counter baseline — called when the harness
    /// itself restarts the process, where counters legitimately reset.
    fn reanchor(&mut self, member: u64) {
        self.prev.remove(&member);
    }

    fn sample(&mut self, audit: &Client, members: &[u64], phase: &str) {
        for &member in members {
            let Ok(snap) = audit.metrics_of(member as usize, false) else { continue };
            self.samples += 1;
            // Counters proper end in `_total`; the rest of the integer
            // series (`pls_keys`, `pls_entries`) are levels.
            let cur: BTreeMap<String, u64> = snap
                .counters
                .iter()
                .filter(|(n, _)| family_of(n).ends_with("_total"))
                .map(|(n, v)| (n.clone(), *v))
                .collect();
            if let Some(prev) = self.prev.get(&member) {
                for (name, was) in prev {
                    if let Some(now) = cur.get(name) {
                        if now < was {
                            self.regressions.push(format!(
                                "[{phase}] member {member}: {name} went {was} -> {now}"
                            ));
                        }
                    }
                }
            }
            self.prev.insert(member, cur);
            for (slo, burn) in fast_burns(&snap) {
                let entry = self.max_burn_fast.entry(slo).or_insert(0.0);
                *entry = entry.max(burn);
            }
        }
    }
}

/// `(objective, burn)` of every fast-window `pls_slo_burn_rate` series.
fn fast_burns(snap: &MetricsSnapshot) -> impl Iterator<Item = (String, f64)> + '_ {
    snap.gauges_of("pls_slo_burn_rate")
        .filter(|(labels, _)| labels.get("window") == Some("fast"))
        .filter_map(|(labels, burn)| Some((labels.get("slo")?.to_string(), burn)))
}

/// Runs one load phase: samples on a fixed cadence until the planned
/// duration elapses, then reports the phase's stats.
fn run_phase(
    name: &'static str,
    planned_s: u64,
    sampler: &mut Sampler,
    audit: &Client,
    members: &[u64],
    ops: &AtomicU64,
    errors: &AtomicU64,
) -> PhaseStat {
    println!("phase {name}: {planned_s}s");
    let ops_at = ops.load(Ordering::Relaxed);
    let errors_at = errors.load(Ordering::Relaxed);
    let samples_at = sampler.samples;
    sampler.max_burn_fast.clear();
    let deadline = Instant::now() + Duration::from_secs(planned_s);
    while Instant::now() < deadline {
        sampler.sample(audit, members, name);
        std::thread::sleep(Duration::from_millis(SCRAPE_MS));
    }
    PhaseStat {
        name,
        planned_s,
        ops: ops.load(Ordering::Relaxed) - ops_at,
        client_errors: errors.load(Ordering::Relaxed) - errors_at,
        samples: sampler.samples - samples_at,
        max_burn_fast: sampler.max_burn_fast.clone(),
    }
}

/// Minimal HTTP/1.1 GET returning the response body.
fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| format!("{addr}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("{addr}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or(format!("{addr}: no body in response"))
}

/// Requests in flight at a server besides the Metrics RPC that is
/// asking (which the gauge counts, being one).
fn inflight(snap: &MetricsSnapshot) -> f64 {
    snap.gauge("pls_queue_depth{queue=\"inflight\"}").unwrap_or(0.0) - 1.0
}

/// Polls until every live member reports zero inflight requests.
fn audit_inflight_drains(audit: &Client, members: &[u64], deadline_s: u64) -> Audit {
    let started = Instant::now();
    let mut last: BTreeMap<u64, f64> = BTreeMap::new();
    let drained = Deadline::within(Duration::from_secs(deadline_s)).wait_until(|| {
        members.iter().fold(true, |all_zero, &member| {
            match audit.metrics_of(member as usize, false) {
                Ok(snap) => {
                    last.insert(member, inflight(&snap));
                    all_zero && last[&member] == 0.0
                }
                Err(_) => false,
            }
        })
    });
    let detail = if drained {
        let waited = started.elapsed().as_secs_f64();
        format!("all {} members at 0 inflight after {waited:.1}s", members.len())
    } else {
        format!("still nonzero after {deadline_s}s: {last:?}")
    };
    Audit::new("inflight_drains_to_zero", drained, detail)
}

/// Polls until every `pls_live_staleness{strategy,t}` series on every
/// live member reads ≥ 0.999 — the system has observably converged
/// back to fresh after the fault schedule.
fn audit_staleness_converges(audit: &Client, members: &[u64], deadline_s: u64) -> Audit {
    let started = Instant::now();
    let (mut last_worst, mut series) = (f64::NAN, 0usize);
    let converged = Deadline::within(Duration::from_secs(deadline_s)).wait_until(|| {
        let mut worst = f64::INFINITY;
        let mut reachable = 0usize;
        series = 0;
        for &member in members {
            let Ok(snap) = audit.metrics_of(member as usize, false) else { continue };
            reachable += 1;
            for (_, value) in snap.gauges_of("pls_live_staleness") {
                series += 1;
                worst = worst.min(value);
            }
        }
        if worst.is_finite() {
            last_worst = worst;
        }
        reachable == members.len() && series > 0 && worst >= 0.999
    });
    let detail = if converged {
        format!("{series} series all >= 0.999 after {:.1}s", started.elapsed().as_secs_f64())
    } else {
        format!("worst staleness {last_worst} after {deadline_s}s ({series} series)")
    };
    Audit::new("staleness_converges_to_one", converged, detail)
}

/// Brackets one `GET /debug/timeline` read between two Metrics-RPC
/// reads: every monotone counter's timeline value must land inside
/// the RPC interval, or the two observability paths have drifted.
fn audit_timeline_agrees(audit: &Client, p: &Ports, members: &[u64]) -> Audit {
    // One member's violations; `Err` when it cannot be read at all.
    let check = |member: u64| -> Result<Vec<String>, String> {
        let rpc = || {
            audit
                .metrics_of(member as usize, false)
                .map_err(|e| format!("member {member} unreachable: {e}"))
        };
        let s1 = rpc()?;
        // Wait out at least two scrape intervals so the timeline holds
        // a window newer than the first RPC read.
        std::thread::sleep(Duration::from_millis(SCRAPE_MS * 2 + 200));
        let doc = http_get(p.metrics[member as usize], "/debug/timeline")
            .and_then(|body| parse(&body).map_err(|e| format!("timeline JSON: {e}")))
            .map_err(|e| format!("member {member}: {e}"))?;
        let latest = doc
            .get("series")
            .and_then(Value::as_array)
            .and_then(|s| s.last())
            .ok_or(format!("member {member}: timeline has no series"))?;
        let s2 = rpc()?;
        let outside = |(key, family): &(&str, &str)| {
            let (lo, hi) = (s1.counter_sum(family), s2.counter_sum(family));
            match latest.get(key).and_then(Value::as_u64) {
                None => Some(format!("member {member}: series lacks `{key}`")),
                Some(w) if !(lo..=hi).contains(&w) => {
                    Some(format!("member {member}: {key} timeline={w} outside rpc [{lo}, {hi}]"))
                }
                Some(_) => None,
            }
        };
        Ok(TIMELINE_SERIES.iter().filter_map(outside).collect())
    };
    let name = "timeline_agrees_with_rpc";
    match members.iter().map(|&m| check(m)).collect::<Result<Vec<_>, _>>().map(|v| v.concat()) {
        Ok(violations) if violations.is_empty() => {
            Audit::new(name, true, "all timeline counters inside their RPC brackets".to_string())
        }
        Ok(violations) => Audit::new(name, false, violations.join("; ")),
        Err(unreadable) => Audit::new(name, false, unreadable),
    }
}

/// After recovery + drain, no objective should still be burning its
/// fast window.
fn audit_burn_stopped(audit: &Client, members: &[u64]) -> Audit {
    let mut worst: Option<(String, f64)> = None;
    for &member in members {
        let Ok(snap) = audit.metrics_of(member as usize, false) else {
            return Audit::new(
                "burn_stops_post_recovery",
                false,
                format!("member {member} unreachable"),
            );
        };
        for (slo, burn) in fast_burns(&snap) {
            if worst.as_ref().is_none_or(|(_, w)| burn > *w) {
                worst = Some((format!("member {member} slo {slo}"), burn));
            }
        }
    }
    match worst {
        Some((name, value)) if value >= 0.5 => Audit::new(
            "burn_stops_post_recovery",
            false,
            format!("{name} still burning at {value:.2}"),
        ),
        Some((_, value)) => Audit::new(
            "burn_stops_post_recovery",
            true,
            format!("worst fast burn {value:.2} < 0.5"),
        ),
        None => {
            Audit::new("burn_stops_post_recovery", false, "no burn gauges exported".to_string())
        }
    }
}

/// Polls until every live member's `pls_membership_epoch` gauge has
/// reached the audited epoch — gossip has carried the churned view to
/// everyone, including the crash-restarted server that booted from its
/// stale bootstrap peer list.
fn audit_epoch_converged(audit: &Client, members: &[u64], want: u64, deadline_s: u64) -> Audit {
    let started = Instant::now();
    let mut lagging = String::new();
    let converged = Deadline::within(Duration::from_secs(deadline_s)).wait_until(|| {
        lagging.clear();
        for &member in members {
            let epoch = match audit.metrics_of(member as usize, false) {
                Ok(snap) => snap.gauge("pls_membership_epoch").unwrap_or(0.0),
                Err(_) => f64::NAN,
            };
            if epoch != want as f64 {
                lagging.push_str(&format!(" member {member} at {epoch}"));
            }
        }
        lagging.is_empty()
    });
    let detail = if converged {
        let waited = started.elapsed().as_secs_f64();
        format!("all {} members at epoch {want} after {waited:.1}s", members.len())
    } else {
        format!("after {deadline_s}s, want epoch {want}:{lagging}")
    };
    Audit::new("membership_epoch_converges", converged, detail)
}

/// Polls until migration is both *observed* (entries actually moved:
/// `pls_migration_entries_total` summed over the cluster is nonzero)
/// and *finished* (every member's `pls_migration_pending` backlog
/// gauge reads zero).
fn audit_migration_completes(audit: &Client, members: &[u64], deadline_s: u64) -> Audit {
    let started = Instant::now();
    let (mut moved, mut backlog) = (0u64, f64::NAN);
    let done = Deadline::within(Duration::from_secs(deadline_s)).wait_until(|| {
        (moved, backlog) = (0, 0.0);
        let mut reachable = 0usize;
        for &member in members {
            let Ok(snap) = audit.metrics_of(member as usize, false) else { continue };
            reachable += 1;
            moved += snap.counter_sum("pls_migration_entries_total");
            backlog += snap.gauge("pls_migration_pending").unwrap_or(0.0);
        }
        reachable == members.len() && moved > 0 && backlog == 0.0
    });
    let detail = if done {
        let waited = started.elapsed().as_secs_f64();
        format!("{moved} entries migrated, backlog 0 after {waited:.1}s")
    } else {
        format!("after {deadline_s}s: {moved} entries migrated, backlog {backlog}")
    };
    Audit::new("migration_moves_entries_and_drains", done, detail)
}

/// Re-reads every seeded key through a fresh client and checks all
/// four seed entries survived the join + drain + crash schedule.
/// Workers only ever delete entries they added themselves, so a
/// missing seed entry can only mean churn lost (or a tombstone screen
/// failure resurrected-then-retrimmed) state.
fn audit_no_seed_lost(p: &Ports, seed: u64) -> Audit {
    let mut reader = Client::connect(client_config(p, seed, 0xD00D));
    let _ = reader.refresh_membership();
    let mut missing = Vec::new();
    for k in 0..KEYS {
        let key = format!("soak/k{k}");
        // t = 64 far exceeds the population, so the lookup merges every
        // reachable member's holdings without trimming.
        match reader.partial_lookup(key.as_bytes(), 64) {
            Ok(found) => {
                for e in 0..4u32 {
                    let want = format!("seed-{e}").into_bytes();
                    if !found.contains(&want) {
                        missing.push(format!("{key}: seed-{e}"));
                    }
                }
            }
            Err(err) => missing.push(format!("{key}: lookup failed: {err}")),
        }
    }
    if missing.is_empty() {
        Audit::new(
            "no_seeded_entry_lost",
            true,
            format!("all {KEYS} keys still hold their 4 seed entries"),
        )
    } else {
        let shown = missing.iter().take(6).cloned().collect::<Vec<_>>().join("; ");
        let more = if missing.len() > 6 { "; …" } else { "" };
        Audit::new(
            "no_seeded_entry_lost",
            false,
            format!("{} seed entries missing: {shown}{more}", missing.len()),
        )
    }
}

/// Polls the cluster's membership RPC through the audit client until
/// the view reaches epoch `want`, returning that view's member ids.
fn await_epoch(audit: &mut Client, want: u64, deadline_s: u64) -> Result<Vec<u64>, String> {
    let reached = Deadline::within(Duration::from_secs(deadline_s)).wait_until(|| {
        let _ = audit.refresh_membership();
        audit.membership_view().epoch() >= want
    });
    let epoch = audit.membership_view().epoch();
    if !reached {
        return Err(format!("membership stuck at epoch {epoch} (want {want}) after {deadline_s}s"));
    }
    Ok(audit.membership_view().ids())
}

/// Waits until every named member answers its status RPC.
fn await_cluster_up(audit: &Client, members: &[u64], deadline_s: u64) -> Result<(), String> {
    let mut up = 0;
    let all_up = Deadline::within(Duration::from_secs(deadline_s)).wait_until(|| {
        up = members.iter().filter(|&&m| audit.status_of(m as usize).is_ok()).count();
        up == members.len()
    });
    if !all_up {
        return Err(format!("cluster not up after {deadline_s}s ({up}/{} servers)", members.len()));
    }
    Ok(())
}

/// A client of the servers started with `--seed seed`, its own probe seed
/// `seed ^ salt`.
fn client_config(p: &Ports, seed: u64, salt: u64) -> ClientConfig {
    let spec = parse_spec("round:2").expect("round:2 parses");
    let timeouts = Timeouts { rpc: Duration::from_millis(400), op_budget: Duration::from_secs(3) };
    ClientConfig {
        timeouts,
        placement_seed: seed,
        ..ClientConfig::new(p.server.to_vec(), spec, seed ^ salt)
    }
}

/// One closed-loop load worker: mixed lookups, adds, and deletes over
/// a shared key population. Errors are counted, never fatal — fault
/// phases are *supposed* to hurt.
fn load_worker(
    p: Ports,
    seed: u64,
    worker: u64,
    stop: Arc<AtomicBool>,
    ops: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
) {
    let mut client = Client::connect(client_config(&p, seed, (worker + 1) * 0x9E37));
    let mut added: Option<(Vec<u8>, Vec<u8>)> = None;
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        if i.is_multiple_of(128) {
            // Adopt whatever membership the cluster currently holds. A
            // stale view still works (dead members are probed and
            // skipped), but a fresh one stops burning probes on them
            // and starts routing to live joiners.
            let _ = client.refresh_membership();
        }
        let key = format!("soak/k{}", (i.wrapping_mul(7).wrapping_add(worker)) % KEYS);
        let result = match i % 8 {
            0 => {
                let entry = format!("w{worker}-{i}").into_bytes();
                let r = client.add(key.as_bytes(), entry.clone()).map(|_| ());
                if r.is_ok() {
                    added = Some((key.clone().into_bytes(), entry));
                }
                r.map_err(|e| e.to_string())
            }
            4 => match added.take() {
                // Delete something this worker added, so deletes
                // exercise tombstones without not-found noise.
                Some((k, entry)) => client.delete(&k, entry).map(|_| ()).map_err(|e| e.to_string()),
                None => Ok(()),
            },
            _ => client.partial_lookup(key.as_bytes(), 1).map(|_| ()).map_err(|e| e.to_string()),
        };
        ops.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            errors.fetch_add(1, Ordering::Relaxed);
        }
        i += 1;
        // Closed-loop with a small breather: sustained load without
        // saturating two servers on one CI core.
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn phase_json(p: &PhaseStat) -> String {
    let burns = p.max_burn_fast.iter().fold(Object::new(), |o, (slo, v)| o.f64(slo, *v));
    Object::new()
        .string("name", p.name)
        .u64("planned_s", p.planned_s)
        .u64("ops", p.ops)
        .u64("client_errors", p.client_errors)
        .u64("samples", p.samples)
        .field("max_burn_fast", &burns.build())
        .build()
}

fn run_soak(o: &Opts) -> Result<(Vec<PhaseStat>, Vec<Audit>), String> {
    let p = ports(o.base_port);
    let _ = std::fs::remove_dir_all(&o.data_dir);
    let mut procs = Procs::new();
    procs.proxy = Some(spawn_proxy(o, &p, "forward")?);
    procs.server0 = Some(spawn_server(o, &p, 0)?);
    procs.server1 = Some(spawn_server(o, &p, 1)?);

    let mut audit = Client::connect(client_config(&p, o.seed, 0));
    let members = vec![0u64, 1];
    await_cluster_up(&audit, &members, 15)?;

    // Seed the key population so lookups have something to find.
    let mut seeder = Client::connect(client_config(&p, o.seed, 0x5EED));
    for k in 0..KEYS {
        let key = format!("soak/k{k}");
        let entries: Vec<Vec<u8>> = (0..4).map(|e| format!("seed-{e}").into_bytes()).collect();
        seeder.place(key.as_bytes(), entries).map_err(|e| format!("seeding {key}: {e}"))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..o.concurrency as u64)
        .map(|w| {
            let (p, seed) = (ports(o.base_port), o.seed);
            let (stop, ops, errors) = (Arc::clone(&stop), Arc::clone(&ops), Arc::clone(&errors));
            std::thread::spawn(move || load_worker(p, seed, w, stop, ops, errors))
        })
        .collect();

    let mut sampler = Sampler::new();
    let mut phases = Vec::new();

    phases.push(run_phase("baseline", o.phase_s, &mut sampler, &audit, &members, &ops, &errors));

    // Fault 1: black-hole server 0's route to server 1. Replication
    // fan-out and anti-entropy sends fail; budgets must burn.
    kill_slot(&mut procs.proxy);
    procs.proxy = Some(spawn_proxy(o, &p, "black-hole")?);
    let blackhole =
        run_phase("blackhole", o.phase_s, &mut sampler, &audit, &members, &ops, &errors);
    let burned: Vec<String> = blackhole
        .max_burn_fast
        .iter()
        .filter(|(_, v)| **v > 0.0)
        .map(|(slo, v)| format!("{slo}={v:.2}"))
        .collect();
    phases.push(blackhole);

    // Fault 2: restore the route, then SIGKILL the durable server and
    // restart it from its WAL. Its counters legitimately reset, so the
    // monotonicity tracker re-anchors.
    kill_slot(&mut procs.proxy);
    procs.proxy = Some(spawn_proxy(o, &p, "forward")?);
    kill_slot(&mut procs.server1);
    sampler.reanchor(1);
    std::thread::sleep(Duration::from_millis(500));
    procs.server1 = Some(spawn_server(o, &p, 1)?);
    phases.push(run_phase("restart", o.phase_s, &mut sampler, &audit, &members, &ops, &errors));

    phases.push(run_phase("recovery", o.phase_s, &mut sampler, &audit, &members, &ops, &errors));

    // Churn 1: a third server joins the live cluster. The seed hands it
    // the current view; placement groups re-home onto it via migration.
    procs.server2 = Some(spawn_joiner(o, &p)?);
    let members = await_epoch(&mut audit, 2, 30)?;
    println!("join admitted: epoch 2, members {members:?}");
    phases.push(run_phase("join", o.phase_s, &mut sampler, &audit, &members, &ops, &errors));

    // Churn 2: retire server 1 gracefully. Its process stays up for the
    // whole phase — migration treats the *previous* group as donors, so
    // survivors can still pull the partitions it owned — and only then
    // is it killed for good.
    audit.drain(1).map_err(|e| format!("drain server 1: {e}"))?;
    let members = await_epoch(&mut audit, 3, 30)?;
    if members.contains(&1) {
        return Err(format!("drain left member 1 in the view: {members:?}"));
    }
    println!("drain accepted: epoch 3, members {members:?}");
    phases.push(run_phase("drain1", o.phase_s, &mut sampler, &audit, &members, &ops, &errors));
    kill_slot(&mut procs.server1);
    sampler.reanchor(1);

    // Churn 3: SIGKILL server 0 mid-churn. It restarts from its WAL
    // with its stale bootstrap peer list and must re-learn the
    // post-churn membership from gossip (installs are strictly-newer,
    // so its stale view cannot regress the cluster).
    kill_slot(&mut procs.server0);
    sampler.reanchor(0);
    std::thread::sleep(Duration::from_millis(500));
    procs.server0 = Some(spawn_server(o, &p, 0)?);
    phases.push(run_phase("crash0", o.phase_s, &mut sampler, &audit, &members, &ops, &errors));

    phases.push(run_phase("settle", o.phase_s, &mut sampler, &audit, &members, &ops, &errors));

    // Drain: stop the load, then audit convergence.
    println!("phase drain: load stopped, auditing convergence");
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().map_err(|_| "a load worker panicked".to_string())?;
    }

    let mut audits = Vec::new();
    audits.push(Audit::new(
        "counters_monotone",
        sampler.regressions.is_empty(),
        if sampler.regressions.is_empty() {
            format!("no regressions across {} samples", sampler.samples)
        } else {
            sampler.regressions.join("; ")
        },
    ));
    audits.push(Audit::new(
        "burn_during_fault",
        !burned.is_empty(),
        if burned.is_empty() {
            "no SLO burned during the black-hole phase".to_string()
        } else {
            format!("fast burn observed during black-hole: {}", burned.join(", "))
        },
    ));
    audits.push(audit_inflight_drains(&audit, &members, o.phase_s));
    audits.push(audit_staleness_converges(&audit, &members, o.phase_s * 2));
    audits.push(audit_timeline_agrees(&audit, &p, &members));
    audits.push(audit_burn_stopped(&audit, &members));
    audits.push(audit_epoch_converged(&audit, &members, 3, o.phase_s));
    audits.push(audit_migration_completes(&audit, &members, o.phase_s));
    audits.push(audit_no_seed_lost(&p, o.seed));

    Ok((phases, audits))
}

fn write_artifact(o: &Opts, phases: &[PhaseStat], audits: &[Audit]) -> Result<PathBuf, String> {
    let doc = Object::new()
        .string("schema", "pls-soak/v1")
        .string("bench", &o.name)
        .string("git_rev", &git_rev())
        .field(
            "config",
            &Object::new()
                .u64("servers", 3)
                .u64("shards", 2)
                .u64("phase_s", o.phase_s)
                .u64("concurrency", o.concurrency as u64)
                .u64("keys", KEYS)
                .u64("seed", o.seed)
                .u64("scrape_ms", SCRAPE_MS)
                .u64("slo_fast_s", SLO_FAST_S)
                .u64("slo_slow_s", SLO_SLOW_S)
                .build(),
        )
        .field("phases", &array(phases.iter().map(phase_json)))
        .field(
            "audits",
            &array(audits.iter().map(|a| {
                Object::new()
                    .string("name", a.name)
                    .bool("pass", a.pass)
                    .string("detail", &a.detail)
                    .build()
            })),
        )
        .bool("pass", audits.iter().all(|a| a.pass))
        .build();
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let path = o.out_dir.join(format!("SOAK_{}.json", o.name));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run_soak(&o) {
        Ok((phases, audits)) => {
            match write_artifact(&o, &phases, &audits) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
            let failed = audits.iter().filter(|a| !a.pass).count();
            if failed > 0 {
                eprintln!("{failed} audit(s) failed");
                ExitCode::FAILURE
            } else {
                println!("all {} audits passed", audits.len());
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
