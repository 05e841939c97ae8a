//! `pls-client` — command-line client for a partial lookup cluster.
//!
//! ```text
//! pls-client --servers A,B,... --strategy SPEC [--seed S] [--log LEVEL]
//!            [--group-size G] [--cluster-seed S]
//!            [--rpc-timeout-ms MS] [--op-budget-ms MS] [--hedge-ms MS] COMMAND
//!
//!   --seed            this client's own seed: probe order, request ids
//!                     (default 1)
//!
//! deployment flags (must be the servers' values, or this client routes
//! updates and lookups to other members than the servers place keys on):
//!   --group-size      the servers' --group-size (default 5)
//!   --cluster-seed    the servers' --seed (default 0)
//!
//! robustness flags:
//!   --rpc-timeout-ms  deadline for each RPC attempt (default 2000)
//!   --op-budget-ms    total budget for one command across all its
//!                     probes and retries (default 10000)
//!   --hedge-ms        enable hedged probes: when a lookup's probes stay
//!                     silent past max(MS, observed p99), its next server
//!                     is tried without cancelling them (off by default)
//!
//! commands:
//!   place  KEY ENTRY[,ENTRY...] [STRATEGY]   batch-specify a key's entries,
//!                                            optionally under a per-key strategy
//!   add    KEY ENTRY              add one entry
//!   delete KEY ENTRY              delete one entry
//!   lookup KEY T                  partial lookup: at least T entries
//!   status                        per-server key/entry counts
//!   membership                    the cluster's live membership view
//!                                 (epoch + member ids and addresses),
//!                                 fetched from the first reachable member
//!   join HOST:PORT                admit the server listening at HOST:PORT
//!                                 into the cluster (it must be running
//!                                 with --join/--advertise, or be about
//!                                 to); prints the new view
//!   drain ID                      gracefully retire member ID: the
//!                                 remaining members bump the epoch and
//!                                 re-home its placement groups via
//!                                 anti-entropy migration; prints the
//!                                 new view
//!   stats [--reset] [--raw]       cluster-wide metrics (alias: metrics):
//!                                 a human-readable summary with latency
//!                                 quantiles and the hottest keys; --raw
//!                                 prints the merged Prometheus text
//!                                 exposition instead;
//!                                 --reset drains each server's counters
//!                                 as they are read
//!   top [--interval-ms MS] [--count N]
//!                                 live cluster dashboard: redraws every MS
//!                                 milliseconds (default 2000) with windowed
//!                                 request/mutation/probe/error rates, p99
//!                                 latencies, engines lock wait, queue
//!                                 depths, per-server SLO error budgets and
//!                                 burn rates, and the hottest keys;
//!                                 --count N stops after N frames
//!                                 (default: run until interrupted)
//!   trace REQ [--chrome OUT.json] fetch every span retained for request
//!                                 REQ (decimal or 0x-hex) from every
//!                                 server's flight recorder plus this
//!                                 process, render an ASCII waterfall,
//!                                 and optionally write Chrome
//!                                 trace_event JSON for chrome://tracing
//!                                 or ui.perfetto.dev
//! ```

use std::process::ExitCode;
use std::time::Duration;

use pls_cluster::{flag, flag_list, parse_req_id, parse_spec, Client, ClientConfig};
use pls_core::StrategySpec;
use pls_telemetry::trace;
use pls_telemetry::{MetricsSnapshot, SpanRecord};
use pls_wire::metrics::views::{self, Rates};

struct Options {
    cfg: ClientConfig,
    command: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let (mut servers, mut spec) = (None, None);
    // Every other flag lands in the config as it is read; servers and
    // strategy are filled in below.
    let mut cfg = ClientConfig::new(Vec::new(), StrategySpec::full_replication(), 1);
    let mut command = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--servers" => servers = Some(flag_list(&arg, args)?),
            "--strategy" => spec = Some(parse_spec(&flag::<String>(&arg, args)?)?),
            "--seed" => cfg.seed = flag(&arg, args)?,
            "--group-size" => cfg.group_size = flag(&arg, args)?,
            "--cluster-seed" => cfg.placement_seed = flag(&arg, args)?,
            "--rpc-timeout-ms" => cfg.timeouts.rpc = Duration::from_millis(flag(&arg, args)?),
            "--op-budget-ms" => cfg.timeouts.op_budget = Duration::from_millis(flag(&arg, args)?),
            "--hedge-ms" => cfg.hedge = Some(Duration::from_millis(flag(&arg, args)?)),
            "--log" => trace::init_from_str(&flag::<String>(&arg, args)?)?,
            "--help" | "-h" => {
                return Err("usage: pls-client --servers A,B,... --strategy SPEC [--seed S] \
                     [--log LEVEL] [--group-size G] [--cluster-seed S] [--rpc-timeout-ms MS] \
                     [--op-budget-ms MS] [--hedge-ms MS] COMMAND ..."
                    .to_string())
            }
            other => {
                command.push(other.to_string());
                command.extend(args);
            }
        }
    }
    cfg.servers = servers.ok_or("--servers is required")?;
    cfg.spec = spec.ok_or("--strategy is required")?;
    if command.is_empty() {
        return Err("missing command (place/add/delete/lookup/status/membership/join/drain/\
                    stats/top/trace)"
            .to_string());
    }
    Ok(Options { cfg, command })
}

fn run(opts: Options) -> Result<(), String> {
    let mut client = Client::connect(opts.cfg);
    let cmd: Vec<&str> = opts.command.iter().map(String::as_str).collect();
    match cmd.as_slice() {
        ["place", key, entries] => {
            let entries: Vec<Vec<u8>> =
                entries.split(',').map(|e| e.trim().as_bytes().to_vec()).collect();
            let count = entries.len();
            client.place(key.as_bytes(), entries).map_err(|e| e.to_string())?;
            println!("placed {count} entries under `{key}`");
        }
        ["place", key, entries, strategy] => {
            let spec = parse_spec(strategy)?;
            let entries: Vec<Vec<u8>> =
                entries.split(',').map(|e| e.trim().as_bytes().to_vec()).collect();
            let count = entries.len();
            client.place_with_strategy(key.as_bytes(), entries, spec).map_err(|e| e.to_string())?;
            println!("placed {count} entries under `{key}` with {spec}");
        }
        ["add", key, entry] => {
            client.add(key.as_bytes(), entry.as_bytes().to_vec()).map_err(|e| e.to_string())?;
            println!("added `{entry}` to `{key}`");
        }
        ["delete", key, entry] => {
            client.delete(key.as_bytes(), entry.as_bytes().to_vec()).map_err(|e| e.to_string())?;
            println!("deleted `{entry}` from `{key}`");
        }
        ["lookup", key, t] => {
            let t: usize = t.parse().map_err(|e| format!("T: {e}"))?;
            let entries = client.partial_lookup(key.as_bytes(), t).map_err(|e| e.to_string())?;
            println!(
                "{} entr{} for `{key}`{}:",
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" },
                if entries.len() < t { " (TARGET NOT MET)" } else { "" }
            );
            for e in entries {
                println!("  {}", String::from_utf8_lossy(&e));
            }
        }
        ["status"] => {
            // Best-effort view refresh first, so a long-lived servers
            // list still reports joiners and skips drained members.
            let _ = client.refresh_membership();
            for m in client.membership_view().members() {
                let (id, addr) = (m.id, &m.addr);
                match client.status_of(id as usize) {
                    Ok((keys, entries)) => {
                        println!("server {id} ({addr}): {keys} keys, {entries} entries")
                    }
                    Err(err) => {
                        pls_telemetry::warn!("server_unreachable", server = id, err = err);
                        println!("server {id} ({addr}): unreachable")
                    }
                }
            }
        }
        ["membership"] => {
            let view = client.membership().map_err(|e| e.to_string())?;
            println!("epoch {}, {} member{}:", view.epoch(), view.len(), plural(view.len()));
            for m in view.members() {
                println!("  {:>4}  {}", m.id, m.addr);
            }
        }
        ["join", addr] => {
            let view = client.join(addr).map_err(|e| e.to_string())?;
            let (epoch, n) = (view.epoch(), view.len());
            println!("admitted `{addr}`: epoch {epoch}, {n} member{}", plural(n));
        }
        ["drain", id] => {
            let id: u64 = id.parse().map_err(|e| format!("ID: {e}"))?;
            let view = client.drain(id).map_err(|e| e.to_string())?;
            let (epoch, n) = (view.epoch(), view.len());
            println!("draining server {id}: epoch {epoch}, {n} member{} remain", plural(n));
        }
        [name, flags @ ..] if *name == "stats" || *name == "metrics" => {
            let mut reset = false;
            let mut raw = false;
            for flag in flags {
                match *flag {
                    "--reset" => reset = true,
                    "--raw" => raw = true,
                    other => return Err(format!("unknown {name} flag `{other}` (try --raw)")),
                }
            }
            // Cluster-wide means the *live* cluster: refresh the view
            // first so joiners' counters are merged in and drained
            // members are no longer polled.
            let _ = client.refresh_membership();
            let merged = client.cluster_metrics(reset).map_err(|e| e.to_string())?;
            if raw {
                print!("{}", merged.to_prometheus());
            } else {
                print!("{}", render_stats_table(&merged));
            }
        }
        ["top", flags @ ..] => {
            let mut interval_ms: u64 = 2_000;
            let mut count: u64 = 0; // 0 = run until interrupted
            let mut it = flags.iter().map(|s| s.to_string());
            while let Some(name) = it.next() {
                match name.as_str() {
                    "--interval-ms" => interval_ms = flag(&name, &mut it)?,
                    "--count" => count = flag(&name, &mut it)?,
                    other => {
                        return Err(format!(
                            "unknown top flag `{other}` (try --interval-ms/--count)"
                        ))
                    }
                }
            }
            // A client-side timeline over the merged totals turns the
            // servers' cumulative counters into the dashboard's rates; a
            // frame reads only the last delta, so two windows suffice.
            let started = std::time::Instant::now();
            let mut timeline = pls_telemetry::Timeline::new(2);
            let mut frames: u64 = 0;
            loop {
                // Track churn live: joiners appear, drained members drop.
                let _ = client.refresh_membership();
                let per_server = client.metrics_by_member(false).unwrap_or_else(|err| {
                    pls_telemetry::warn!("scrape_failed", err = err);
                    client.membership_view().ids().into_iter().map(|id| (id, None)).collect()
                });
                let mut merged = MetricsSnapshot::new();
                per_server.iter().filter_map(|(_, s)| s.as_ref()).for_each(|s| merged.merge(s));
                // (Deltas run on the monotonic stamp; the wall-clock one is
                // informational and nothing here shows it.)
                timeline.record(0, started.elapsed().as_micros() as u64, merged.clone());
                let delta = timeline.last_delta();
                // Clear screen + cursor home, then one full frame.
                print!("\x1b[2J\x1b[H{}", render_top(&merged, &per_server, delta.as_ref()));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                frames += 1;
                if count > 0 && frames >= count {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
            }
        }
        ["trace", rest @ ..] => {
            let (req_str, chrome) = match rest {
                [req] => (*req, None),
                [req, "--chrome", path] => (*req, Some(*path)),
                _ => return Err("usage: trace REQ_ID [--chrome OUT.json]".to_string()),
            };
            let req = parse_req_id(req_str).ok_or(format!("malformed request id `{req_str}`"))?;
            let spans = client.trace_request(req).map_err(|e| e.to_string())?;
            if spans.is_empty() {
                println!("no spans retained for request {req:#x} anywhere in the cluster");
                println!("(recorders are rings: old requests age out unless pinned by --slow-ms)");
                return Ok(());
            }
            print_waterfall(req, &spans);
            if let Some(path) = chrome {
                std::fs::write(path, chrome_trace_json(&spans))
                    .map_err(|e| format!("--chrome {path}: {e}"))?;
                println!("wrote Chrome trace_event JSON to {path}");
                println!("(load it in chrome://tracing or https://ui.perfetto.dev)");
            }
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}

/// `""` for one, `"s"` otherwise.
fn plural(count: usize) -> &'static str {
    if count == 1 {
        ""
    } else {
        "s"
    }
}

/// Width of the waterfall bar column, in characters.
const WATERFALL_WIDTH: usize = 48;

/// Renders one request's spans as an ASCII waterfall: one row per span,
/// positioned and sized on a shared wall-clock axis. Spans arrive
/// sorted by start time, so the cascade reads top-to-bottom.
fn print_waterfall(req: u64, spans: &[SpanRecord]) {
    let first = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let last = spans.iter().map(|s| s.start_us.saturating_add(s.elapsed_us)).max().unwrap_or(0);
    let total = last.saturating_sub(first).max(1);
    println!(
        "request {req:#x} — {} span{} over {total} us (wall clock, cluster-merged)",
        spans.len(),
        plural(spans.len()),
    );
    for span in spans {
        let offset = span.start_us.saturating_sub(first);
        let lead = (offset as u128 * WATERFALL_WIDTH as u128 / total as u128) as usize;
        let lead = lead.min(WATERFALL_WIDTH.saturating_sub(1));
        let len = (span.elapsed_us as u128 * WATERFALL_WIDTH as u128 / total as u128) as usize;
        let len = len.clamp(1, WATERFALL_WIDTH - lead);
        let bar = format!(
            "{}{}{}",
            ".".repeat(lead),
            "#".repeat(len),
            ".".repeat(WATERFALL_WIDTH - lead - len)
        );
        let fields: Vec<String> = span.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  [{bar}] +{offset:>7}us {:>8}us  {:<18} {}",
            span.elapsed_us,
            span.name,
            fields.join(" ")
        );
    }
}

/// Renders spans as Chrome trace_event JSON (`ph: "X"` complete
/// events). The `tid` lane is the span's `server` field when present,
/// so each server's work gets its own track in the viewer.
fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    use pls_telemetry::json::{array, Object};
    let events = array(spans.iter().map(|s| {
        let mut args = Object::new();
        if let Some(id) = s.req_id {
            args = args.u64("req_id", id);
        }
        for (k, v) in &s.fields {
            args = args.string(k, v);
        }
        let tid = s.field("server").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        Object::new()
            .string("name", &s.name)
            .string("cat", &s.target)
            .string("ph", "X")
            .u64("ts", s.start_us)
            .u64("dur", s.elapsed_us.max(1))
            .u64("pid", 1)
            .u64("tid", tid)
            .field("args", &args.build())
            .build()
    }));
    Object::new().field("traceEvents", &events).string("displayTimeUnit", "ms").build()
}

/// A `stats` section whose rows are each one family's sum: `(label,
/// family)`.
type Rows = &'static [(&'static str, &'static str)];

const TOTALS: Rows = &[
    ("keys", "pls_keys"),
    ("entries", "pls_entries"),
    ("requests served", "pls_requests_total"),
    ("probes served", "pls_probes_total"),
    ("request errors", "pls_request_errors_total"),
];
const ROBUSTNESS: Rows = &[
    ("rpc timeouts", "pls_rpc_timeouts_total"),
    ("rpc retries", "pls_rpc_retries_total"),
    ("breaker opens", "pls_breaker_opens_total"),
    ("breaker fast fails", "pls_breaker_fast_fails_total"),
    ("hedged probes", "pls_client_hedges_total"),
    ("hedge wins", "pls_client_hedge_wins_total"),
    ("op budgets exhausted", "pls_client_op_budget_exhausted_total"),
    ("accept errors", "pls_accept_errors_total"),
    ("connection errors", "pls_connection_errors_total"),
    ("update failures", "pls_client_update_failures_total"),
    ("pool dial failures", "pls_client_pool_dial_failures_total"),
];
// Zero everywhere means the cluster runs memory-only (no --data-dir);
// replays appear after crash restarts, repairs after anti-entropy heals a
// divergent server.
const DURABILITY: Rows = &[
    ("wal appends", "pls_wal_appends_total"),
    ("wal fsyncs", "pls_wal_fsyncs_total"),
    ("wal records replayed", "pls_wal_replayed_total"),
    ("checkpoints written", "pls_wal_checkpoints_total"),
    ("antientropy rounds", "pls_antientropy_rounds_total"),
    ("antientropy repairs", "pls_antientropy_repairs_total"),
];
const ALLOCATIONS: Rows = &[
    ("allocs", "pls_alloc_allocs_total"),
    ("frees", "pls_alloc_frees_total"),
    ("bytes allocated", "pls_alloc_bytes_total"),
];

fn section(out: &mut String, title: &str, rows: Rows, merged: &MetricsSnapshot) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{title}");
    for (label, family) in rows {
        let _ = writeln!(out, "  {label:<21}{:>10}", merged.counter_sum(family));
    }
}

/// Renders the merged cluster metrics as a human-readable summary: raw
/// totals, latency quantiles from the histogram snapshots, and the
/// hottest keys.
fn render_stats_table(merged: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    section(&mut out, "cluster totals", TOTALS, merged);
    section(&mut out, "robustness (client + servers)", ROBUSTNESS, merged);
    section(&mut out, "durability & self-healing", DURABILITY, merged);
    for (t, tol) in views::gauges_by(merged, "pls_live_fault_tolerance", "t") {
        let _ = writeln!(out, "  live fault tol (t={t}) {:>8.0}", tol);
    }

    // Consistency: the repair round's live PBS-style gauge
    // (probability a t-probe partial lookup returns the freshest
    // version), tombstone accounting, and the observed version lag.
    let mut staleness: Vec<(String, String, f64)> = merged
        .gauges_of("pls_live_staleness")
        .filter_map(|(l, p)| Some((l.get("strategy")?.to_string(), l.get("t")?.to_string(), p)))
        .collect();
    staleness.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let tombs_live = merged.gauge("pls_tombstones_live");
    let behind = merged.histogram("pls_staleness_versions_behind");
    if !staleness.is_empty() || tombs_live.is_some() || behind.is_some() {
        let _ = writeln!(out, "consistency (versions, tombstones, measured staleness)");
        for (strategy, t, p) in staleness {
            // Targeted strategies probe deterministically chosen holders,
            // not a uniform sample — there the PBS estimate only bounds
            // the real freshness probability from above.
            let bound =
                if strategy == "hash" || strategy == "round" { " (upper bound)" } else { "" };
            let _ = writeln!(out, "  P(fresh | {strategy:<6} t={t}) {p:>8.4}{bound}");
        }
        if let Some(live) = tombs_live {
            let _ = writeln!(out, "  tombstones live      {live:>10.0}");
        }
        let gcd = merged.counter_sum("pls_tombstones_gc_total");
        let _ = writeln!(out, "  tombstones gc'd      {gcd:>10}");
        if let Some(h) = behind.filter(|h| !h.is_empty()) {
            let _ = writeln!(
                out,
                "  versions behind      {:>10} sampled (p50 {:.0}, p99 {:.0}, max-lag mean {:.2})",
                h.count,
                h.quantile(0.50),
                h.quantile(0.99),
                h.mean()
            );
        }
    }

    let _ = writeln!(
        out,
        "latency (us)           {:>8} {:>8} {:>8} {:>8}",
        "p50", "p90", "p99", "mean"
    );
    for (label, name) in [("request", "pls_request_latency_us"), ("probe", "pls_probe_latency_us")]
    {
        if let Some(h) = merged.histogram(name).filter(|h| !h.is_empty()) {
            let _ = writeln!(
                out,
                "  {label:<21}{:>8.0} {:>8.0} {:>8.0} {:>8.0}",
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.mean()
            );
        }
    }

    // Runtime internals: per-site lock contention (cluster-merged
    // distributions), the per-shard drill-down `GET /debug/contention`
    // also serves, the counting allocator's totals, and queue depths.
    // Sections appear only when the servers export them.
    let sites = views::lock_sites(merged);
    if !sites.is_empty() {
        let _ = writeln!(
            out,
            "runtime: lock sites    {:>10} {:>10} {:>9} {:>9}",
            "acquired", "contended", "wait p99", "hold p99"
        );
        for s in sites {
            let _ = writeln!(
                out,
                "  {:<21}{:>10} {:>10} {:>9.0} {:>9.0}",
                s.site,
                s.acquisitions,
                s.contended,
                s.wait_us.quantile(0.99),
                s.hold_us.quantile(0.99),
            );
        }
    }
    let shards = views::shard_rows(merged);
    if !shards.is_empty() {
        // WAL columns are n/a without --data-dir.
        let _ = writeln!(
            out,
            "runtime: shards        {:>8} {:>9} {:>9} {:>9} {:>9}",
            "keys", "eng acq", "eng p99", "wal acq", "wal p99"
        );
        for ((server, shard), cols) in shards {
            let cell = |v: Option<f64>| match v {
                Some(v) if v.is_finite() => format!("{v:>9.0}"),
                _ => format!("{:>9}", "n/a"),
            };
            let tag = format!("s{server} shard {shard}");
            let _ = writeln!(
                out,
                "  {tag:<21}{:>8.0} {} {} {} {}",
                cols[0].unwrap_or(0.0),
                cell(cols[1]),
                cell(cols[2]),
                cell(cols[3]),
                cell(cols[4]),
            );
        }
    }
    if merged.counter("pls_alloc_allocs_total").is_some() {
        let title = "runtime: allocations (0 unless servers arm the counting allocator)";
        section(&mut out, title, ALLOCATIONS, merged);
        let peak = merged.gauge("pls_alloc_peak_bytes").unwrap_or(0.0);
        let _ = writeln!(out, "  peak live bytes      {peak:>10.0}");
    }
    let queues = views::gauges_by(merged, "pls_queue_depth", "queue");
    if !queues.is_empty() {
        let _ = writeln!(out, "runtime: queue depths (merge keeps one server's sample)");
        for (queue, depth) in queues {
            let _ = writeln!(out, "  {queue:<21}{depth:>10.0}");
        }
    }

    // Hottest keys across the cluster: every server's sketch exports
    // `pls_hot_key_probes{key=..}` series, summed by the merge.
    let hot = views::hot_keys(merged);
    if !hot.is_empty() {
        let _ = writeln!(out, "hottest keys               probes");
        for (key, count) in hot.iter().take(10) {
            let _ = writeln!(out, "  {key:<24} {count:>8}");
        }
    }
    out
}

/// Renders one frame of the live `top` dashboard: windowed rates from
/// the client-side timeline's last delta, queue depths, per-server SLO
/// error budgets (budget gauges collide under a cluster merge — gauges
/// replace — so they are read from each server's own snapshot), and
/// the hottest keys. Pure so tests can drive it from constructed
/// snapshots.
fn render_top(
    merged: &MetricsSnapshot,
    per_server: &[(u64, Option<MetricsSnapshot>)],
    delta: Option<&pls_telemetry::Delta>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let up = per_server.iter().filter(|(_, s)| s.is_some()).count();
    let _ = writeln!(out, "pls top — {up}/{} servers reporting", per_server.len());
    for (i, snap) in per_server {
        if snap.is_none() {
            let _ = writeln!(out, "  server {i}: UNREACHABLE");
        }
    }
    match delta {
        Some(d) => {
            let r = Rates::of(d);
            let _ = writeln!(out, "rates over the last {:.1}s", d.span_seconds());
            let _ = writeln!(
                out,
                "  requests/s  {:>10.1}   mutations/s {:>10.1}",
                r.requests_per_s, r.mutations_per_s
            );
            let _ = writeln!(
                out,
                "  probes/s    {:>10.1}   errors/s    {:>10.1}",
                r.probes_per_s, r.errors_per_s
            );
            let _ = writeln!(
                out,
                "  request p99 {:>8.0}us   probe p99   {:>8.0}us   engines lock wait p99 {:>6.0}us",
                r.request_p99_us.unwrap_or(0.0),
                r.probe_p99_us.unwrap_or(0.0),
                r.engines_lock_wait_p99_us.unwrap_or(0.0),
            );
        }
        None => {
            let _ = writeln!(out, "rates: warming up (one more sample needed)");
        }
    }
    let queues = views::gauges_by(merged, "pls_queue_depth", "queue");
    if !queues.is_empty() {
        let depths: Vec<String> = queues.iter().map(|(q, v)| format!("{q}={v:.0}")).collect();
        let _ = writeln!(out, "queue depths  {}", depths.join("  "));
    }
    let mut wrote_header = false;
    for (i, snap) in per_server {
        let Some(snap) = snap else { continue };
        let burns = |slo: &str, window: &str| {
            snap.gauges_of("pls_slo_burn_rate")
                .find(|(l, _)| l.get("slo") == Some(slo) && l.get("window") == Some(window))
                .map_or(0.0, |(_, v)| v)
        };
        for (slo, remaining) in views::gauges_by(snap, "pls_slo_error_budget_remaining", "slo") {
            if !std::mem::replace(&mut wrote_header, true) {
                let _ = writeln!(
                    out,
                    "slo error budgets        {:>10} {:>10} {:>10}",
                    "remaining", "burn fast", "burn slow"
                );
            }
            // Burn > 1 means the budget is being spent faster than it
            // accrues — the page-worthy state.
            let (fast, slow) = (burns(&slo, "fast"), burns(&slo, "slow"));
            let flag = if fast > 1.0 { "  BURNING" } else { "" };
            let tag = format!("s{i} {slo}");
            let _ = writeln!(out, "  {tag:<22} {remaining:>10.4} {fast:>10.2} {slow:>10.2}{flag}");
        }
    }
    let hot = views::hot_keys(merged);
    if !hot.is_empty() {
        let keys: Vec<String> = hot.iter().take(5).map(|(k, c)| format!("{k}({c})")).collect();
        let _ = writeln!(out, "hottest keys  {}", keys.join("  "));
    }
    out
}

fn main() -> ExitCode {
    // Errors are reported as structured events; keep them visible by
    // default (--log off silences everything).
    trace::init(Some(pls_telemetry::Level::Info));
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            pls_telemetry::error!(msg);
            return ExitCode::FAILURE;
        }
    };
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            pls_telemetry::error!(msg);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One snapshot with a series in every section `stats` prints.
    fn golden_snapshot() -> MetricsSnapshot {
        use pls_telemetry::snapshot::labeled;
        let hist = |values: &[u64]| {
            let h = pls_telemetry::Histogram::new();
            values.iter().for_each(|v| h.observe(*v));
            h.snapshot()
        };
        let mut s = MetricsSnapshot::new();
        for (name, value) in [
            ("pls_keys", 7),
            ("pls_entries", 41),
            ("pls_requests_total{op=\"probe\"}", 300),
            ("pls_requests_total{op=\"add\"}", 20),
            ("pls_probes_total{strategy=\"round\"}", 290),
            ("pls_probes_total{strategy=\"full\"}", 10),
            ("pls_request_errors_total", 2),
            ("pls_rpc_timeouts_total", 3),
            ("pls_rpc_retries_total", 4),
            ("pls_breaker_opens_total", 1),
            ("pls_breaker_fast_fails_total", 5),
            ("pls_client_hedges_total", 6),
            ("pls_client_hedge_wins_total", 2),
            ("pls_client_op_budget_exhausted_total", 1),
            ("pls_accept_errors_total", 8),
            ("pls_connection_errors_total", 9),
            ("pls_client_update_failures_total", 10),
            ("pls_client_pool_dial_failures_total", 11),
            ("pls_wal_appends_total", 120),
            ("pls_wal_fsyncs_total", 60),
            ("pls_wal_replayed_total", 12),
            ("pls_wal_checkpoints_total", 3),
            ("pls_antientropy_rounds_total", 14),
            ("pls_antientropy_repairs_total", 1),
            ("pls_tombstones_gc_total", 4),
            ("pls_alloc_allocs_total", 1000),
            ("pls_alloc_frees_total", 990),
            ("pls_alloc_bytes_total", 65536),
            ("pls_hot_key_probes{key=\"beta\"}", 9),
            ("pls_hot_key_probes{key=\"alpha\"}", 9),
            ("pls_hot_key_probes{key=\"gamma\"}", 30),
        ] {
            s.push_counter(name, value);
        }
        for (name, value) in [
            ("pls_live_fault_tolerance{t=\"2\"}", 1.0),
            ("pls_live_fault_tolerance{t=\"1\"}", 2.0),
            ("pls_live_staleness{strategy=\"round\",t=\"1\"}", 0.9),
            ("pls_live_staleness{strategy=\"full\",t=\"2\"}", 1.0),
            ("pls_live_staleness{strategy=\"full\",t=\"1\"}", 0.6667),
            ("pls_tombstones_live", 3.0),
            ("pls_shard_keys{server=\"0\",shard=\"1\"}", 3.0),
            ("pls_shard_keys{server=\"0\",shard=\"0\"}", 4.0),
            ("pls_shard_lock_acquisitions{server=\"0\",shard=\"0\",site=\"engines\"}", 100.0),
            ("pls_shard_lock_wait_p99_us{server=\"0\",shard=\"0\",site=\"engines\"}", 31.0),
            ("pls_shard_lock_acquisitions{server=\"0\",shard=\"0\",site=\"wal\"}", 40.0),
            ("pls_shard_lock_wait_p99_us{server=\"0\",shard=\"0\",site=\"wal\"}", f64::INFINITY),
            ("pls_alloc_peak_bytes", 4096.0),
            ("pls_queue_depth{queue=\"wal_fsync_batch\"}", 2.0),
            ("pls_queue_depth{queue=\"inflight\"}", 3.0),
        ] {
            s.push_gauge(name, value);
        }
        s.push_histogram("pls_staleness_versions_behind", hist(&[0, 0, 2]));
        s.push_histogram("pls_request_latency_us", hist(&[100, 200, 900]));
        s.push_histogram("pls_probe_latency_us", hist(&[10, 20]));
        for (site, acquisitions) in [("wal", 40), ("engines", 200)] {
            let l = [("site", site)];
            s.push_histogram(labeled("pls_lock_wait_us", &l), hist(&[0, 120]));
            s.push_histogram(labeled("pls_lock_hold_us", &l), hist(&[40]));
            s.push_counter(labeled("pls_lock_acquisitions_total", &l), acquisitions);
            s.push_counter(labeled("pls_lock_contended_total", &l), 1);
        }
        s
    }

    /// The text `stats` printed for [`golden_snapshot`] before its rows
    /// became tables (captured at 60b5c12, with `pls_tombstones_live`
    /// under its old `_total` name), plus the four fault-counter rows.
    const GOLDEN: &str = "\
cluster totals
  keys                          7
  entries                      41
  requests served             320
  probes served               300
  request errors                2
robustness (client + servers)
  rpc timeouts                  3
  rpc retries                   4
  breaker opens                 1
  breaker fast fails            5
  hedged probes                 6
  hedge wins                    2
  op budgets exhausted          1
  accept errors                 8
  connection errors             9
  update failures              10
  pool dial failures           11
durability & self-healing
  wal appends                 120
  wal fsyncs                   60
  wal records replayed         12
  checkpoints written           3
  antientropy rounds           14
  antientropy repairs           1
  live fault tol (t=1)        2
  live fault tol (t=2)        1
consistency (versions, tombstones, measured staleness)
  P(fresh | full   t=1)   0.6667
  P(fresh | full   t=2)   1.0000
  P(fresh | round  t=1)   0.9000 (upper bound)
  tombstones live               3
  tombstones gc'd               4
  versions behind               3 sampled (p50 1, p99 3, max-lag mean 0.67)
latency (us)                p50      p90      p99     mean
  request                   255     1023     1023      400
  probe                      15       31       31       15
runtime: lock sites      acquired  contended  wait p99  hold p99
  engines                     200          1       127        63
  wal                          40          1       127        63
runtime: shards            keys   eng acq   eng p99   wal acq   wal p99
  s0 shard 0                  4       100        31        40       n/a
  s0 shard 1                  3       n/a       n/a       n/a       n/a
runtime: allocations (0 unless servers arm the counting allocator)
  allocs                     1000
  frees                       990
  bytes allocated           65536
  peak live bytes            4096
runtime: queue depths (merge keeps one server's sample)
  inflight                      3
  wal_fsync_batch               2
hottest keys               probes
  gamma                          30
  alpha                           9
  beta                            9
";

    #[test]
    fn stats_table_matches_the_golden_text() {
        let table = render_stats_table(&golden_snapshot());
        assert!(table == GOLDEN, "stats table drifted from the golden text:\n{table}");
    }

    #[test]
    fn stats_table_shows_the_consistency_section_when_staleness_is_measured() {
        let mut snap = MetricsSnapshot::new();
        snap.gauges.push(("pls_live_staleness{strategy=\"full\",t=\"1\"}".to_string(), 0.6667));
        snap.gauges.push(("pls_live_staleness{strategy=\"full\",t=\"2\"}".to_string(), 1.0));
        snap.gauges.push(("pls_tombstones_live".to_string(), 3.0));
        let behind = pls_telemetry::Histogram::new();
        behind.observe(0);
        behind.observe(2);
        snap.histograms.push(("pls_staleness_versions_behind".to_string(), behind.snapshot()));
        let table = render_stats_table(&snap);
        assert!(table.contains("consistency (versions, tombstones, measured staleness)"));
        assert!(table.contains("P(fresh | full   t=1)   0.6667"));
        assert!(table.contains("P(fresh | full   t=2)   1.0000"));
        assert!(table.contains("tombstones live               3"));
        assert!(table.contains("versions behind"), "{table}");
    }

    #[test]
    fn stats_table_omits_the_consistency_section_without_staleness_data() {
        let snap = MetricsSnapshot::new();
        let table = render_stats_table(&snap);
        assert!(!table.contains("consistency ("));
        assert!(!table.contains("runtime:"));
        assert!(table.contains("cluster totals"));
    }

    #[test]
    fn stats_table_marks_targeted_strategy_staleness_as_upper_bound() {
        let mut snap = MetricsSnapshot::new();
        snap.gauges.push(("pls_live_staleness{strategy=\"hash\",t=\"1\"}".to_string(), 0.9));
        snap.gauges.push(("pls_live_staleness{strategy=\"random\",t=\"1\"}".to_string(), 0.8));
        let table = render_stats_table(&snap);
        assert!(table.contains("P(fresh | hash   t=1)   0.9000 (upper bound)"), "{table}");
        assert!(table.contains("P(fresh | random t=1)   0.8000\n"), "{table}");
    }

    #[test]
    fn stats_table_renders_the_runtime_sections() {
        let mut snap = MetricsSnapshot::new();
        let wait = pls_telemetry::Histogram::new();
        wait.observe(0);
        wait.observe(120);
        snap.histograms.push(("pls_lock_wait_us{site=\"engines\"}".to_string(), wait.snapshot()));
        let hold = pls_telemetry::Histogram::new();
        hold.observe(40);
        snap.histograms.push(("pls_lock_hold_us{site=\"engines\"}".to_string(), hold.snapshot()));
        snap.counters.push(("pls_lock_acquisitions_total{site=\"engines\"}".to_string(), 2));
        snap.counters.push(("pls_lock_contended_total{site=\"engines\"}".to_string(), 1));
        snap.counters.push(("pls_alloc_allocs_total".to_string(), 1000));
        snap.counters.push(("pls_alloc_frees_total".to_string(), 990));
        snap.counters.push(("pls_alloc_bytes_total".to_string(), 65536));
        snap.gauges.push(("pls_alloc_peak_bytes".to_string(), 4096.0));
        snap.gauges.push(("pls_queue_depth{queue=\"inflight\"}".to_string(), 3.0));
        let table = render_stats_table(&snap);
        assert!(table.contains("runtime: lock sites"), "{table}");
        assert!(table.contains("runtime: allocations"), "{table}");
        assert!(table.contains("runtime: queue depths"), "{table}");
        let row = |prefix: &str| {
            table
                .lines()
                .find(|l| l.trim_start().starts_with(prefix))
                .unwrap_or_else(|| panic!("no `{prefix}` row in:\n{table}"))
                .to_string()
        };
        // engines: 2 acquisitions, 1 contended, wait p99 in the [64,128)
        // bucket (upper bound 127), hold p99 in [32,64) (63).
        let engines = row("engines");
        assert!(engines.ends_with("2          1       127        63"), "{engines}");
        assert!(row("allocs").ends_with("1000"), "{table}");
        assert!(row("inflight").ends_with("3"), "{table}");
    }

    #[test]
    fn stats_table_renders_the_per_shard_drilldown() {
        let mut snap = MetricsSnapshot::new();
        snap.gauges.push(("pls_shard_keys{server=\"0\",shard=\"0\"}".to_string(), 12.0));
        snap.gauges.push(("pls_shard_keys{server=\"0\",shard=\"1\"}".to_string(), 9.0));
        snap.gauges.push(("pls_shard_keys{server=\"1\",shard=\"0\"}".to_string(), 7.0));
        snap.gauges.push((
            "pls_shard_lock_acquisitions{server=\"0\",shard=\"0\",site=\"engines\"}".to_string(),
            100.0,
        ));
        snap.gauges.push((
            "pls_shard_lock_wait_p99_us{server=\"0\",shard=\"0\",site=\"engines\"}".to_string(),
            31.0,
        ));
        snap.gauges.push((
            "pls_shard_lock_acquisitions{server=\"0\",shard=\"0\",site=\"wal\"}".to_string(),
            40.0,
        ));
        snap.gauges.push((
            "pls_shard_lock_wait_p99_us{server=\"0\",shard=\"0\",site=\"wal\"}".to_string(),
            f64::INFINITY,
        ));
        let table = render_stats_table(&snap);
        assert!(table.contains("runtime: shards"), "{table}");
        let row = |tag: &str| {
            table
                .lines()
                .find(|l| l.trim_start().starts_with(tag))
                .unwrap_or_else(|| panic!("no `{tag}` row in:\n{table}"))
                .to_string()
        };
        // Fully-populated row: keys, engines acq/p99, WAL acq, and a
        // non-finite p99 rendered as n/a.
        let full = row("s0 shard 0");
        assert!(full.contains("12"), "{full}");
        assert!(full.contains("100"), "{full}");
        assert!(full.contains("31"), "{full}");
        assert!(full.contains("40"), "{full}");
        assert!(full.trim_end().ends_with("n/a"), "{full}");
        // Memory-only shard: WAL columns are n/a, keys still shown.
        let bare = row("s0 shard 1");
        assert!(bare.contains('9'), "{bare}");
        assert!(bare.contains("n/a"), "{bare}");
        // Rows sort by (server, shard).
        let order: Vec<usize> = ["s0 shard 0", "s0 shard 1", "s1 shard 0"]
            .iter()
            .map(|tag| table.find(&format!("  {tag}")).unwrap())
            .collect();
        assert!(order[0] < order[1] && order[1] < order[2], "{table}");
    }

    #[test]
    fn stats_table_omits_the_shard_section_without_shard_gauges() {
        let table = render_stats_table(&MetricsSnapshot::new());
        assert!(!table.contains("runtime: shards"));
    }

    #[test]
    fn top_frame_shows_rates_slo_budgets_and_unreachable_servers() {
        let snap_at = |requests: u64| {
            let mut s = MetricsSnapshot::new();
            s.push_counter("pls_requests_total{op=\"probe\"}", requests);
            s.push_counter("pls_requests_total{op=\"add\"}", requests / 2);
            s.push_counter("pls_probes_total{strategy=\"round\"}", requests * 2);
            s.push_gauge("pls_queue_depth{queue=\"inflight\"}", 4.0);
            s.push_counter("pls_hot_key_probes{key=\"alpha\"}", 9);
            s
        };
        let mut server0 = snap_at(300);
        server0.push_gauge("pls_slo_error_budget_remaining{slo=\"availability\"}", 0.75);
        server0.push_gauge("pls_slo_burn_rate{slo=\"availability\",window=\"fast\"}", 2.5);
        server0.push_gauge("pls_slo_burn_rate{slo=\"availability\",window=\"slow\"}", 0.5);
        let mut timeline = pls_telemetry::Timeline::new(4);
        timeline.record(0, 0, snap_at(100));
        timeline.record(0, 2_000_000, snap_at(300));
        let delta = timeline.last_delta().unwrap();
        let frame = render_top(
            timeline.latest().map(|w| &w.totals).unwrap(),
            &[(0, Some(server0)), (1, None)],
            Some(&delta),
        );
        assert!(frame.contains("1/2 servers reporting"), "{frame}");
        assert!(frame.contains("server 1: UNREACHABLE"), "{frame}");
        // 300 more requests (op-summed) over 2 s = 150/s; probes 200/s;
        // the 100 extra `add`s are 50 mutations/s.
        let rate_row = |label: &str| {
            frame
                .lines()
                .find(|l| l.trim_start().starts_with(label))
                .unwrap_or_else(|| panic!("no `{label}` row in:\n{frame}"))
                .to_string()
        };
        assert!(rate_row("requests/s").contains("150.0"), "{frame}");
        assert!(rate_row("probes/s").contains("200.0"), "{frame}");
        assert!(rate_row("requests/s").ends_with("50.0"), "{frame}");
        assert!(frame.contains("queue depths  inflight=4"), "{frame}");
        // Fast burn 2.5 > 1 gets flagged.
        let slo_row = frame
            .lines()
            .find(|l| l.contains("s0 availability"))
            .unwrap_or_else(|| panic!("no slo row in:\n{frame}"));
        assert!(slo_row.contains("0.7500"), "{slo_row}");
        assert!(slo_row.contains("2.50"), "{slo_row}");
        assert!(slo_row.trim_end().ends_with("BURNING"), "{slo_row}");
        assert!(frame.contains("hottest keys  alpha(9)"), "{frame}");
    }

    #[test]
    fn top_frame_warms_up_without_a_delta_and_omits_empty_sections() {
        let frame = render_top(&MetricsSnapshot::new(), &[(0, Some(MetricsSnapshot::new()))], None);
        assert!(frame.contains("warming up"), "{frame}");
        assert!(!frame.contains("slo error budgets"), "{frame}");
        assert!(!frame.contains("queue depths"), "{frame}");
        assert!(!frame.contains("hottest keys"), "{frame}");
    }
}
