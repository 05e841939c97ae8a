//! `pls-client` — command-line client for a partial lookup cluster.
//!
//! ```text
//! pls-client --servers A,B,... --strategy SPEC [--seed S] [--log LEVEL]
//!            [--rpc-timeout-ms MS] [--op-budget-ms MS] [--hedge-ms MS] COMMAND
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
//!                                 quantiles, live quality gauges, and the
//!                                 hottest keys; --raw prints the merged
//!                                 Prometheus text exposition instead;
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

use std::net::SocketAddr;
use std::process::ExitCode;

use pls_cluster::{flag, flag_list, parse_req_id, parse_spec, Client, ClientConfig, Timeouts};
use pls_telemetry::snapshot::parse_labels;
use pls_telemetry::trace;
use pls_telemetry::{MetricsSnapshot, SpanRecord};

struct Options {
    cfg: ClientConfig,
    command: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut servers: Option<Vec<SocketAddr>> = None;
    let mut spec = None;
    let mut seed = 1u64;
    let mut timeouts = Timeouts::default();
    let mut hedge_ms: Option<u64> = None;
    let mut command = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--servers" => servers = Some(flag_list(&arg, args)?),
            "--strategy" => spec = Some(parse_spec(&flag::<String>(&arg, args)?)?),
            "--seed" => seed = flag(&arg, args)?,
            "--rpc-timeout-ms" => timeouts = timeouts.with_rpc_ms(flag(&arg, args)?),
            "--op-budget-ms" => timeouts = timeouts.with_op_budget_ms(flag(&arg, args)?),
            "--hedge-ms" => hedge_ms = Some(flag(&arg, args)?),
            "--log" => trace::init_from_str(&flag::<String>(&arg, args)?)?,
            "--help" | "-h" => {
                return Err("usage: pls-client --servers A,B,... --strategy SPEC [--log LEVEL] \
                     [--rpc-timeout-ms MS] [--op-budget-ms MS] [--hedge-ms MS] COMMAND ..."
                    .to_string())
            }
            other => {
                command.push(other.to_string());
                command.extend(args);
            }
        }
    }
    let servers = servers.ok_or("--servers is required")?;
    let spec = spec.ok_or("--strategy is required")?;
    if command.is_empty() {
        return Err("missing command (place/add/delete/lookup/status/membership/join/drain/\
                    stats/top/trace)"
            .to_string());
    }
    let mut cfg = ClientConfig::new(servers, spec, seed).with_timeouts(timeouts);
    if let Some(ms) = hedge_ms {
        cfg = cfg.with_hedging(std::time::Duration::from_millis(ms));
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
            let (_, members) = client.membership_view();
            for (id, addr) in members {
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
            let (epoch, members) = client.membership().map_err(|e| e.to_string())?;
            println!("epoch {epoch}, {} member{}:", members.len(), plural(members.len()));
            for (id, addr) in members {
                println!("  {id:>4}  {addr}");
            }
        }
        ["join", addr] => {
            let (epoch, members) = client.join(addr).map_err(|e| e.to_string())?;
            println!(
                "admitted `{addr}`: epoch {epoch}, {} member{}",
                members.len(),
                plural(members.len())
            );
        }
        ["drain", id] => {
            let id: u64 = id.parse().map_err(|e| format!("ID: {e}"))?;
            let (epoch, members) = client.drain(id).map_err(|e| e.to_string())?;
            println!(
                "draining server {id}: epoch {epoch}, {} member{} remain",
                members.len(),
                plural(members.len())
            );
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
            // servers' cumulative counters into the dashboard's rates.
            let started = std::time::Instant::now();
            let mut timeline = pls_telemetry::Timeline::new(64);
            let mut frames: u64 = 0;
            loop {
                // Track churn live: joiners appear, drained members drop.
                let _ = client.refresh_membership();
                let (_, members) = client.membership_view();
                let mut merged = MetricsSnapshot::new();
                let mut per_server: Vec<(usize, Option<MetricsSnapshot>)> = Vec::new();
                for (id, _) in members {
                    let i = id as usize;
                    match client.metrics_of(i, false) {
                        Ok(snap) => {
                            merged.merge(&snap);
                            per_server.push((i, Some(snap)));
                        }
                        Err(_) => per_server.push((i, None)),
                    }
                }
                let at_unix_ms = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0);
                timeline.record(at_unix_ms, started.elapsed().as_micros() as u64, merged.clone());
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
        if spans.len() == 1 { "" } else { "s" },
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

/// Renders the merged cluster metrics as a human-readable summary: raw
/// totals, latency quantiles from the histogram snapshots, the
/// recomputed cluster-level live quality gauges, and the hottest keys.
fn render_stats_table(merged: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "cluster totals");
    let _ = writeln!(out, "  keys                 {:>10}", merged.counter("pls_keys").unwrap_or(0));
    let _ =
        writeln!(out, "  entries              {:>10}", merged.counter("pls_entries").unwrap_or(0));
    let _ =
        writeln!(out, "  requests served      {:>10}", merged.counter_sum("pls_requests_total"));
    let _ = writeln!(out, "  probes served        {:>10}", merged.counter_sum("pls_probes_total"));
    let _ = writeln!(
        out,
        "  request errors       {:>10}",
        merged.counter("pls_request_errors_total").unwrap_or(0)
    );

    let _ = writeln!(out, "robustness (client + servers)");
    let _ = writeln!(
        out,
        "  rpc timeouts         {:>10}",
        merged.counter_sum("pls_rpc_timeouts_total")
    );
    let _ =
        writeln!(out, "  rpc retries          {:>10}", merged.counter_sum("pls_rpc_retries_total"));
    let _ = writeln!(
        out,
        "  breaker opens        {:>10}",
        merged.counter_sum("pls_breaker_opens_total")
    );
    let _ = writeln!(
        out,
        "  breaker fast fails   {:>10}",
        merged.counter_sum("pls_breaker_fast_fails_total")
    );
    let _ = writeln!(
        out,
        "  hedged probes        {:>10}",
        merged.counter_sum("pls_client_hedges_total")
    );
    let _ = writeln!(
        out,
        "  hedge wins           {:>10}",
        merged.counter_sum("pls_client_hedge_wins_total")
    );
    let _ = writeln!(
        out,
        "  op budgets exhausted {:>10}",
        merged.counter_sum("pls_client_op_budget_exhausted_total")
    );

    // Durability / self-healing: zero everywhere means the cluster runs
    // memory-only (no --data-dir); replays appear after crash restarts,
    // repairs after anti-entropy heals a divergent server.
    let _ = writeln!(out, "durability & self-healing");
    let _ =
        writeln!(out, "  wal appends          {:>10}", merged.counter_sum("pls_wal_appends_total"));
    let _ =
        writeln!(out, "  wal fsyncs           {:>10}", merged.counter_sum("pls_wal_fsyncs_total"));
    let _ = writeln!(
        out,
        "  wal records replayed {:>10}",
        merged.counter_sum("pls_wal_replayed_total")
    );
    let _ = writeln!(
        out,
        "  checkpoints written  {:>10}",
        merged.counter_sum("pls_wal_checkpoints_total")
    );
    let _ = writeln!(
        out,
        "  antientropy rounds   {:>10}",
        merged.counter_sum("pls_antientropy_rounds_total")
    );
    let _ = writeln!(
        out,
        "  antientropy repairs  {:>10}",
        merged.counter_sum("pls_antientropy_repairs_total")
    );
    let mut ft: Vec<(String, f64)> = merged
        .gauges
        .iter()
        .filter_map(|(name, value)| {
            let (family, labels) = parse_labels(name)?;
            if family != "pls_live_fault_tolerance" {
                return None;
            }
            let (_, t) = labels.into_iter().find(|(k, _)| k == "t")?;
            Some((t, *value))
        })
        .collect();
    ft.sort_by(|a, b| a.0.cmp(&b.0));
    for (t, tol) in ft {
        let _ = writeln!(out, "  live fault tol (t={t}) {:>8.0}", tol);
    }

    // Consistency: the staleness-probe loop's live PBS-style gauge
    // (probability a t-probe partial lookup returns the freshest
    // version), tombstone accounting, and the observed version lag.
    let mut staleness: Vec<(String, String, f64)> = merged
        .gauges
        .iter()
        .filter_map(|(name, value)| {
            let (family, labels) = parse_labels(name)?;
            if family != "pls_live_staleness" {
                return None;
            }
            let strategy = labels.iter().find(|(k, _)| k == "strategy")?.1.clone();
            let t = labels.iter().find(|(k, _)| k == "t")?.1.clone();
            Some((strategy, t, *value))
        })
        .collect();
    staleness.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let tombs_live = merged.gauge("pls_tombstones_live_total");
    let behind = merged.histogram("pls_staleness_versions_behind");
    if !staleness.is_empty() || tombs_live.is_some() || behind.is_some() {
        let _ = writeln!(out, "consistency (versions, tombstones, measured staleness)");
        let _ = writeln!(
            out,
            "  staleness rounds     {:>10}",
            merged.counter_sum("pls_staleness_rounds_total")
        );
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
        let _ = writeln!(
            out,
            "  tombstones gc'd      {:>10}",
            merged.counter_sum("pls_tombstones_gc_total")
        );
        if let Some(h) = behind {
            if !h.is_empty() {
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
    }

    let _ = writeln!(out, "live quality (cluster-level, recomputed from per-entry hits)");
    match merged.gauge("pls_live_unfairness") {
        Some(u) => {
            let _ = writeln!(out, "  unfairness (CoV)     {u:>10.4}");
        }
        None => {
            let _ = writeln!(out, "  unfairness (CoV)     {:>10}", "n/a");
        }
    }
    match merged.gauge("pls_live_coverage") {
        Some(c) => {
            let _ = writeln!(out, "  coverage             {c:>10.4}");
        }
        None => {
            let _ = writeln!(out, "  coverage             {:>10}", "n/a");
        }
    }

    let _ = writeln!(
        out,
        "latency (us)           {:>8} {:>8} {:>8} {:>8}",
        "p50", "p90", "p99", "mean"
    );
    for (label, name) in [("request", "pls_request_latency_us"), ("probe", "pls_probe_latency_us")]
    {
        if let Some(h) = merged.histogram(name) {
            if !h.is_empty() {
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
    }

    // Runtime internals: per-site lock contention (cluster-merged
    // distributions), the counting allocator's totals, and queue
    // depths. Sections appear only when the servers export them.
    let mut sites: Vec<String> = merged
        .histograms
        .iter()
        .filter_map(|(name, _)| {
            let (family, labels) = parse_labels(name)?;
            if family != "pls_lock_wait_us" {
                return None;
            }
            labels.into_iter().find(|(k, _)| k == "site").map(|(_, site)| site)
        })
        .collect();
    sites.sort();
    sites.dedup();
    if !sites.is_empty() {
        let _ = writeln!(
            out,
            "runtime: lock sites    {:>10} {:>10} {:>9} {:>9}",
            "acquired", "contended", "wait p99", "hold p99"
        );
        for site in sites {
            let acquired = merged
                .counter(&format!("pls_lock_acquisitions_total{{site=\"{site}\"}}"))
                .unwrap_or(0);
            let contended = merged
                .counter(&format!("pls_lock_contended_total{{site=\"{site}\"}}"))
                .unwrap_or(0);
            let p99 = |family: &str| {
                merged
                    .histogram(&format!("{family}{{site=\"{site}\"}}"))
                    .map(|h| h.quantile(0.99))
                    .unwrap_or(0.0)
            };
            let _ = writeln!(
                out,
                "  {site:<21}{acquired:>10} {contended:>10} {:>9.0} {:>9.0}",
                p99("pls_lock_wait_us"),
                p99("pls_lock_hold_us"),
            );
        }
    }
    // Per-shard drill-down: the same breakdown `GET /debug/contention`
    // serves, carried over the Metrics RPC as per-shard labeled gauges
    // (`pls_shard_*{server,shard,..}`), so it needs no HTTP endpoint.
    // Columns: keys owned, engines-lock acquisitions and wait p99, WAL
    // acquisitions and wait p99 (WAL columns are n/a without --data-dir).
    let mut shard_rows: std::collections::BTreeMap<(u64, u64), [Option<f64>; 5]> =
        std::collections::BTreeMap::new();
    for (name, value) in &merged.gauges {
        let Some((family, labels)) = parse_labels(name) else { continue };
        let label = |key: &str| labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        let col = match family {
            "pls_shard_keys" => 0,
            "pls_shard_lock_acquisitions" => match label("site") {
                Some("engines") => 1,
                Some("wal") => 3,
                _ => continue,
            },
            "pls_shard_lock_wait_p99_us" => match label("site") {
                Some("engines") => 2,
                Some("wal") => 4,
                _ => continue,
            },
            _ => continue,
        };
        let (Some(server), Some(shard)) = (
            label("server").and_then(|v| v.parse::<u64>().ok()),
            label("shard").and_then(|v| v.parse::<u64>().ok()),
        ) else {
            continue;
        };
        shard_rows.entry((server, shard)).or_default()[col] = Some(*value);
    }
    if !shard_rows.is_empty() {
        let _ = writeln!(
            out,
            "runtime: shards        {:>8} {:>9} {:>9} {:>9} {:>9}",
            "keys", "eng acq", "eng p99", "wal acq", "wal p99"
        );
        for ((server, shard), cols) in shard_rows {
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
        let _ = writeln!(out, "runtime: allocations (0 unless servers arm the counting allocator)");
        let _ = writeln!(
            out,
            "  allocs               {:>10}",
            merged.counter_sum("pls_alloc_allocs_total")
        );
        let _ = writeln!(
            out,
            "  frees                {:>10}",
            merged.counter_sum("pls_alloc_frees_total")
        );
        let _ = writeln!(
            out,
            "  bytes allocated      {:>10}",
            merged.counter_sum("pls_alloc_bytes_total")
        );
        let _ = writeln!(
            out,
            "  peak live bytes      {:>10.0}",
            merged.gauge("pls_alloc_peak_bytes").unwrap_or(0.0)
        );
    }
    let mut queues: Vec<(String, f64)> = merged
        .gauges
        .iter()
        .filter_map(|(name, value)| {
            let (family, labels) = parse_labels(name)?;
            if family != "pls_queue_depth" {
                return None;
            }
            labels.into_iter().find(|(k, _)| k == "queue").map(|(_, q)| (q, *value))
        })
        .collect();
    queues.sort_by(|a, b| a.0.cmp(&b.0));
    if !queues.is_empty() {
        let _ = writeln!(out, "runtime: queue depths (merge keeps one server's sample)");
        for (queue, depth) in queues {
            let _ = writeln!(out, "  {queue:<21}{depth:>10.0}");
        }
    }

    // Hottest keys across the cluster: every server's sketch exports
    // `pls_hot_key_probes{key=..}` series, summed by the merge.
    let mut hot: Vec<(String, u64)> = merged
        .counters
        .iter()
        .filter_map(|(name, value)| {
            let (family, labels) = parse_labels(name)?;
            if family != "pls_hot_key_probes" {
                return None;
            }
            let (_, key) = labels.into_iter().find(|(k, _)| k == "key")?;
            Some((key, *value))
        })
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
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
    per_server: &[(usize, Option<MetricsSnapshot>)],
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
            let mutations = d.rate("pls_requests_total{op=\"place\"}")
                + d.rate("pls_requests_total{op=\"add\"}")
                + d.rate("pls_requests_total{op=\"delete\"}");
            let errors = d.rate_sum("pls_request_errors_total")
                + d.rate_sum("pls_internal_send_failures_total");
            let p99 = |name: &str| d.histogram(name).map(|h| h.quantile(0.99)).unwrap_or(0.0);
            let _ = writeln!(out, "rates over the last {:.1}s", d.span_seconds());
            let _ = writeln!(
                out,
                "  requests/s  {:>10.1}   mutations/s {:>10.1}",
                d.rate_sum("pls_requests_total"),
                mutations
            );
            let _ = writeln!(
                out,
                "  probes/s    {:>10.1}   errors/s    {:>10.1}",
                d.rate_sum("pls_probes_total"),
                errors
            );
            let _ = writeln!(
                out,
                "  request p99 {:>8.0}us   probe p99   {:>8.0}us   engines lock wait p99 {:>6.0}us",
                p99("pls_request_latency_us"),
                p99("pls_probe_latency_us"),
                p99("pls_lock_wait_us{site=\"engines\"}"),
            );
        }
        None => {
            let _ = writeln!(out, "rates: warming up (one more sample needed)");
        }
    }
    let mut queues: Vec<(String, f64)> = merged
        .gauges
        .iter()
        .filter_map(|(name, value)| {
            let (family, labels) = parse_labels(name)?;
            if family != "pls_queue_depth" {
                return None;
            }
            labels.into_iter().find(|(k, _)| k == "queue").map(|(_, q)| (q, *value))
        })
        .collect();
    queues.sort_by(|a, b| a.0.cmp(&b.0));
    if !queues.is_empty() {
        let depths: Vec<String> = queues.iter().map(|(q, v)| format!("{q}={v:.0}")).collect();
        let _ = writeln!(out, "queue depths  {}", depths.join("  "));
    }
    let mut wrote_header = false;
    for (i, snap) in per_server {
        let Some(snap) = snap else { continue };
        let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
        for (name, remaining) in &snap.gauges {
            let Some((family, labels)) = parse_labels(name) else { continue };
            if family != "pls_slo_error_budget_remaining" {
                continue;
            }
            let Some((_, slo)) = labels.into_iter().find(|(k, _)| k == "slo") else { continue };
            let burn = |window: &str| {
                snap.gauge(&format!("pls_slo_burn_rate{{slo=\"{slo}\",window=\"{window}\"}}"))
                    .unwrap_or(0.0)
            };
            rows.push((slo.clone(), *remaining, burn("fast"), burn("slow")));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        if rows.is_empty() {
            continue;
        }
        if !wrote_header {
            let _ = writeln!(
                out,
                "slo error budgets        {:>10} {:>10} {:>10}",
                "remaining", "burn fast", "burn slow"
            );
            wrote_header = true;
        }
        for (slo, remaining, fast, slow) in rows {
            // Burn > 1 means the budget is being spent faster than it
            // accrues — the page-worthy state.
            let flag = if fast > 1.0 { "  BURNING" } else { "" };
            let tag = format!("s{i} {slo}");
            let _ = writeln!(out, "  {tag:<22} {remaining:>10.4} {fast:>10.2} {slow:>10.2}{flag}");
        }
    }
    let mut hot: Vec<(String, u64)> = merged
        .counters
        .iter()
        .filter_map(|(name, value)| {
            let (family, labels) = parse_labels(name)?;
            if family != "pls_hot_key_probes" {
                return None;
            }
            let (_, key) = labels.into_iter().find(|(k, _)| k == "key")?;
            Some((key, *value))
        })
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
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

    #[test]
    fn stats_table_shows_the_consistency_section_when_staleness_is_measured() {
        let mut snap = MetricsSnapshot::new();
        snap.counters.push(("pls_staleness_rounds_total".to_string(), 12));
        snap.gauges.push(("pls_live_staleness{strategy=\"full\",t=\"1\"}".to_string(), 0.6667));
        snap.gauges.push(("pls_live_staleness{strategy=\"full\",t=\"2\"}".to_string(), 1.0));
        snap.gauges.push(("pls_tombstones_live_total".to_string(), 3.0));
        let behind = pls_telemetry::Histogram::new();
        behind.observe(0);
        behind.observe(2);
        snap.histograms.push(("pls_staleness_versions_behind".to_string(), behind.snapshot()));
        let table = render_stats_table(&snap);
        assert!(table.contains("consistency (versions, tombstones, measured staleness)"));
        assert!(table.contains("staleness rounds             12"));
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
