//! `loadgen` — load generator for a *live* partial lookup cluster.
//!
//! Where `repro` regenerates the paper's numbers in simulation,
//! `loadgen` measures the deployed system: it drives partial lookups
//! (optionally mixed with updates and deletes) at a configurable shape
//! against running `pls-server` processes and writes the measurements
//! as a `BENCH_<name>.json` artifact in the shared `pls-bench/v3`
//! schema (git revision, run configuration, throughput,
//! log₂-histogram latency quantiles, probe decomposition, robustness
//! totals, the server-side `runtime` block — lock contention per site,
//! allocation deltas, queue depths — and, for mixed workloads against
//! servers running anti-entropy, the measured consistency block).
//!
//! ```text
//! loadgen --servers A,B,... --strategy SPEC [--t T] [--seed S]
//!         [--keys N] [--entries-per-key M] [--zipf S]
//!         [--duration-s D] [--concurrency C]
//!         [--mode closed|open] [--rate RPS]
//!         [--update-pct P] [--delete-pct P]
//!         [--out DIR] [--name NAME] [--skip-setup]
//!         [--group-size G] [--cluster-seed S]
//!         [--rpc-timeout-ms MS] [--op-budget-ms MS] [--hedge-ms MS]
//!         [--log LEVEL]
//!
//!   --servers         every server's address, comma-separated
//!   --strategy        full | fixed:X | random:X | round:Y | hash:Y
//!   --t               partial lookup target answer size (default 3)
//!   --keys            distinct keys to place and query (default 64)
//!   --entries-per-key entries placed under each key (default 8)
//!   --zipf            Zipf(s) skew of the key popularity (default 0.9;
//!                     0 = uniform)
//!   --duration-s      measured run length in seconds (default 10); 0
//!                     places the keys and exits without a measured run
//!                     or an artifact
//!   --concurrency     worker clients issuing lookups (default 4)
//!   --mode            closed: each worker issues back-to-back lookups;
//!                     open: workers fire on a fixed schedule at --rate
//!                     lookups/s total, and latency is measured from the
//!                     *scheduled* start so queueing delay is charged
//!                     (no coordinated omission)
//!   --rate            open-loop arrival rate, lookups/s (default 100)
//!   --update-pct      percent of operations that add a fresh entry to
//!                     the sampled key (default 0 = lookups only)
//!   --delete-pct      percent of operations that delete an entry this
//!                     worker added earlier (default 0); a delete with
//!                     nothing to delete degrades to an update, so the
//!                     originally placed entries stay available to
//!                     lookups
//!   --out             artifact directory (default results/)
//!   --name            artifact name: BENCH_<name>.json (default cluster)
//!   --skip-setup      do not place keys first (cluster already loaded)
//!   --group-size      the servers' --group-size (default 5)
//!   --cluster-seed    the servers' --seed (default 0); with --group-size,
//!                     a deployment setting that must match the servers',
//!                     or updates and lookups go to other members than the
//!                     servers place keys on
//! ```
//!
//! With a mixed workload the artifact's `results.staleness` block
//! captures the cluster's own consistency observatory after the run:
//! the `pls_live_staleness{strategy,t}` gauges, tombstone totals, and
//! the `pls_staleness_versions_behind` quantiles.
//!
//! The `results.runtime` block is what the servers' own snapshot grew by
//! over the measured run (`runtime_json` below): `runtime.locks.<site>`,
//! `runtime.alloc` with the derived `allocs_per_lookup`, and the post-run
//! `runtime.queues`.
//! `results.quality` is the unfairness (§4.5) and coverage (§4.3) of the
//! lookups' answers (`quality_json` below), which no server sees.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pls_bench::output::BenchReport;
use pls_cluster::{flag, flag_list, parse_spec, Client, ClientConfig, Timeouts};
use pls_core::membership::DEFAULT_GROUP_SIZE;
use pls_metrics::unfairness::cov_from_counts;
use pls_telemetry::json::{array, number, string, Object};
use pls_telemetry::trace;
use pls_telemetry::{Counter, Histogram, HistogramSnapshot, MetricsSnapshot, Timeline};
use pls_wire::metrics::views::{self, hist_json};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
}

struct Options {
    cfg: ClientConfig,
    t: usize,
    keys: usize,
    entries_per_key: usize,
    zipf_s: f64,
    duration: Duration,
    concurrency: usize,
    mode: Mode,
    rate: f64,
    update_pct: f64,
    delete_pct: f64,
    out: PathBuf,
    name: String,
    skip_setup: bool,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut servers: Option<Vec<SocketAddr>> = None;
    let mut spec = None;
    let mut seed = 1u64;
    let mut t = 3usize;
    let mut keys = 64usize;
    let mut entries_per_key = 8usize;
    let mut zipf_s = 0.9f64;
    let mut duration_s = 10u64;
    let mut concurrency = 4usize;
    let mut mode = Mode::Closed;
    let mut rate = 100.0f64;
    let mut update_pct = 0.0f64;
    let mut delete_pct = 0.0f64;
    let mut out = PathBuf::from("results");
    let mut name = "cluster".to_string();
    let mut skip_setup = false;
    let (mut group_size, mut placement_seed) = (DEFAULT_GROUP_SIZE, 0);
    let mut timeouts = Timeouts::default();
    let mut hedge = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--servers" => servers = Some(flag_list(&arg, args)?),
            "--strategy" => spec = Some(parse_spec(&flag::<String>(&arg, args)?)?),
            "--seed" => seed = flag(&arg, args)?,
            "--t" => t = flag(&arg, args)?,
            "--keys" => keys = flag(&arg, args)?,
            "--entries-per-key" => entries_per_key = flag(&arg, args)?,
            "--zipf" => zipf_s = flag(&arg, args)?,
            "--duration-s" => duration_s = flag(&arg, args)?,
            "--concurrency" => concurrency = flag(&arg, args)?,
            "--mode" => {
                mode = match flag::<String>(&arg, args)?.as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    other => return Err(format!("--mode: `{other}` is not closed|open")),
                };
            }
            "--rate" => rate = flag(&arg, args)?,
            "--update-pct" => update_pct = flag(&arg, args)?,
            "--delete-pct" => delete_pct = flag(&arg, args)?,
            "--out" => out = flag(&arg, args)?,
            "--name" => name = flag(&arg, args)?,
            "--skip-setup" => skip_setup = true,
            "--group-size" => group_size = flag(&arg, args)?,
            "--cluster-seed" => placement_seed = flag(&arg, args)?,
            "--rpc-timeout-ms" => timeouts.rpc = Duration::from_millis(flag(&arg, args)?),
            "--op-budget-ms" => timeouts.op_budget = Duration::from_millis(flag(&arg, args)?),
            "--hedge-ms" => hedge = Some(Duration::from_millis(flag(&arg, args)?)),
            "--log" => trace::init_from_str(&flag::<String>(&arg, args)?)?,
            "--help" | "-h" => {
                return Err("usage: loadgen --servers A,B,... --strategy SPEC [--t T] \
                     [--keys N] [--entries-per-key M] [--zipf S] [--duration-s D] \
                     [--concurrency C] [--mode closed|open] [--rate RPS] \
                     [--update-pct P] [--delete-pct P] [--out DIR] \
                     [--name NAME] [--skip-setup] [--group-size G] [--cluster-seed S] \
                     [--rpc-timeout-ms MS] [--op-budget-ms MS] [--hedge-ms MS] [--log LEVEL]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let servers = servers.ok_or("--servers is required")?;
    let spec = spec.ok_or("--strategy is required")?;
    if t == 0 || keys == 0 || entries_per_key == 0 || concurrency == 0 {
        return Err("--t, --keys, --entries-per-key, --concurrency must be positive".to_string());
    }
    if mode == Mode::Open && rate <= 0.0 {
        return Err("--rate must be positive in open mode".to_string());
    }
    if !(0.0..=100.0).contains(&update_pct)
        || !(0.0..=100.0).contains(&delete_pct)
        || update_pct + delete_pct > 100.0
    {
        return Err("--update-pct/--delete-pct must be in [0,100] and sum to <= 100".to_string());
    }
    let cfg = ClientConfig {
        timeouts,
        hedge,
        group_size,
        placement_seed,
        ..ClientConfig::new(servers, spec, seed)
    };
    Ok(Options {
        cfg,
        t,
        keys,
        entries_per_key,
        zipf_s,
        duration: Duration::from_secs(duration_s),
        concurrency,
        mode,
        rate,
        update_pct,
        delete_pct,
        out,
        name,
        skip_setup,
        seed,
    })
}

/// SplitMix64: a tiny, seedable generator — the workload must be
/// reproducible across runs without pulling a rand dependency into the
/// binary.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, 53 bits of precision.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over `0..n` by inversion of the precomputed CDF:
/// key `i` has weight `1/(i+1)^s`, so key 0 is the hottest. `s = 0`
/// degenerates to uniform.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn key_name(i: usize) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

/// The index `j < per_key` of a placed entry `entry-{i:05}-{j:03}`;
/// `None` for an entry a worker added.
fn placed_index(entry: &[u8], per_key: usize) -> Option<usize> {
    let rest = entry.strip_prefix(b"entry-")?;
    let j = &rest[rest.iter().rposition(|&b| b == b'-')? + 1..];
    std::str::from_utf8(j).ok()?.parse().ok().filter(|&j| j < per_key)
}

/// Shared run-wide tallies the workers feed.
#[derive(Default)]
struct Tally {
    /// Completed lookups (reached a decision, even if under target).
    lookups: Counter,
    /// Lookups that returned an error.
    failures: Counter,
    /// Completed lookups that returned fewer than `t` entries.
    target_misses: Counter,
    /// Completed update operations (mixed workload).
    updates: Counter,
    /// Completed delete operations (mixed workload).
    deletes: Counter,
    /// Update/delete operations that returned an error.
    mutation_failures: Counter,
    /// Per-lookup latency; open mode measures from the scheduled start.
    latency_us: Histogram,
    /// Per-mutation (update/delete) latency, same clock rules.
    mutation_latency_us: Histogram,
}

fn setup(opts: &Options) -> Result<(), String> {
    let mut client = Client::connect(opts.cfg.clone());
    for i in 0..opts.keys {
        let entries: Vec<Vec<u8>> = (0..opts.entries_per_key)
            .map(|j| format!("entry-{i:05}-{j:03}").into_bytes())
            .collect();
        client.place(&key_name(i), entries).map_err(|e| format!("placing key {i}: {e}"))?;
    }
    Ok(())
}

/// One operation of the mixed workload, drawn per tick from the
/// configured update/delete/lookup split.
enum Op {
    Lookup,
    Update,
    Delete,
}

#[allow(clippy::too_many_arguments)]
fn worker(
    opts_cfg: ClientConfig,
    w: usize,
    t: usize,
    per_key: usize,
    zipf: Arc<Zipf>,
    tally: Arc<Tally>,
    deadline: Instant,
    mut rng: Rng,
    open_interval: Option<Duration>,
    (update_pct, delete_pct): (f64, f64),
) -> (MetricsSnapshot, Vec<u64>) {
    let mut client = Client::connect(opts_cfg);
    // Returns of placed entry `j` of key `k` at `k * per_key + j`.
    let mut returned = vec![0u64; zipf.cdf.len() * per_key];
    let start = Instant::now();
    let mut tick = 0u32;
    // Entries this worker added and has not yet deleted — the only
    // entries deletes target, so the originally placed data set stays
    // intact for lookups.
    let mut pending: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut added = 0u64;
    loop {
        let scheduled = match open_interval {
            Some(interval) => {
                let at = start + interval * tick;
                tick += 1;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                at
            }
            None => Instant::now(),
        };
        if scheduled >= deadline || Instant::now() >= deadline {
            break;
        }
        let k = zipf.sample(&mut rng);
        let key = key_name(k);
        let op = {
            let u = rng.f64() * 100.0;
            if u < update_pct {
                Op::Update
            } else if u < update_pct + delete_pct {
                Op::Delete
            } else {
                Op::Lookup
            }
        };
        match op {
            Op::Lookup => {
                let result = client.partial_lookup(&key, t);
                let elapsed = scheduled.elapsed();
                match result {
                    Ok(entries) => {
                        tally.lookups.inc();
                        tally.latency_us.observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
                        if entries.len() < t {
                            tally.target_misses.inc();
                        }
                        for j in entries.iter().filter_map(|v| placed_index(v, per_key)) {
                            returned[k * per_key + j] += 1;
                        }
                    }
                    Err(_) => {
                        tally.failures.inc();
                    }
                }
            }
            Op::Delete if !pending.is_empty() => {
                // Delete the oldest surviving entry this worker added
                // (FIFO maximizes the entry's propagation time before
                // the delete chases it).
                let (key, entry) = pending.remove(0);
                let result = client.delete(&key, entry);
                let elapsed = scheduled.elapsed();
                match result {
                    Ok(()) => {
                        tally.deletes.inc();
                        tally
                            .mutation_latency_us
                            .observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
                    }
                    Err(_) => {
                        tally.mutation_failures.inc();
                    }
                }
            }
            // A delete with nothing this worker may delete degrades to
            // an update, keeping the mutation rate on schedule.
            Op::Update | Op::Delete => {
                added += 1;
                let entry = format!("upd-{w:02}-{added:08}").into_bytes();
                let result = client.add(&key, entry.clone());
                let elapsed = scheduled.elapsed();
                match result {
                    Ok(()) => {
                        tally.updates.inc();
                        tally
                            .mutation_latency_us
                            .observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
                        pending.push((key, entry));
                    }
                    Err(_) => {
                        tally.mutation_failures.inc();
                    }
                }
            }
        }
    }
    (client.metrics_snapshot(), returned)
}

/// The artifact's `quality` block from the workers' summed `returned`
/// counts: `unfairness` is the mean over the observed keys (those with a
/// placed entry returned) of the CoV of their entries' counts, eq. (1)
/// when every lookup returns `t` placed entries; `coverage` is the share
/// of their placed entries returned at least once. Added entries are not
/// counted.
fn quality_json(returned: &[u64], per_key: usize) -> String {
    let observed: Vec<&[u64]> =
        returned.chunks(per_key).filter(|counts| counts.iter().any(|&n| n > 0)).collect();
    let keys = observed.len().max(1) as f64;
    let unfairness = observed.iter().map(|counts| cov_from_counts(counts)).sum::<f64>() / keys;
    let hit = observed.iter().flat_map(|counts| counts.iter()).filter(|&&n| n > 0).count();
    Object::new()
        .f64("unfairness", unfairness)
        .f64("coverage", hit as f64 / (keys * per_key as f64))
        .u64("keys_observed", observed.len() as u64)
        .build()
}

/// The artifact's `runtime` block: the cluster's performance
/// observatory over the measured run — `grown` is the delta between the
/// Metrics snapshots taken before and after it. Lock sites the servers do
/// not export (e.g. `wal` on a memory-only cluster) are absent rather
/// than zeros. `queues` are the post-run gauges; merged gauges keep the
/// last-merged server's value, so these are one server's reading.
fn runtime_json(grown: &MetricsSnapshot, lookups: u64) -> String {
    let allocs = grown.counter_sum("pls_alloc_allocs_total");
    let alloc =
        views::alloc_json(grown).f64("allocs_per_lookup", allocs as f64 / lookups.max(1) as f64);
    Object::new()
        .field("locks", &views::lock_sites_json(grown))
        .field("alloc", &alloc.build())
        .field("queues", &views::queues_json(grown))
        .build()
}

fn run(opts: Options) -> Result<(), String> {
    if !opts.skip_setup {
        println!(
            "placing {} keys x {} entries under {} ...",
            opts.keys, opts.entries_per_key, opts.cfg.spec
        );
        setup(&opts)?;
    }
    if opts.duration.is_zero() {
        println!("--duration-s 0: keys placed, no run measured, no artifact written");
        return Ok(());
    }

    // Server-side probe counters before the run: the artifact
    // cross-checks the client's probes-per-lookup against the growth
    // of the servers' own `pls_probes_total`.
    let observer = Client::connect(opts.cfg.clone());
    let mut run = Timeline::new(2);
    run.record(0, 0, observer.cluster_metrics(false).map_err(|e| e.to_string())?);

    let zipf = Arc::new(Zipf::new(opts.keys, opts.zipf_s));
    let tally = Arc::new(Tally::default());
    let deadline = Instant::now() + opts.duration;
    let open_interval = match opts.mode {
        Mode::Open => Some(Duration::from_secs_f64(opts.concurrency as f64 / opts.rate)),
        Mode::Closed => None,
    };
    println!(
        "driving {} worker{} for {:?} ({} loop) ...",
        opts.concurrency,
        if opts.concurrency == 1 { "" } else { "s" },
        opts.duration,
        if opts.mode == Mode::Open { "open" } else { "closed" },
    );
    let started = Instant::now();
    let mut handles = Vec::new();
    for w in 0..opts.concurrency {
        let (cfg, t, per_key, zipf, tally) =
            (opts.cfg.clone(), opts.t, opts.entries_per_key, Arc::clone(&zipf), Arc::clone(&tally));
        let rng = Rng(opts.seed ^ (w as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let mix = (opts.update_pct, opts.delete_pct);
        handles.push(std::thread::spawn(move || {
            worker(cfg, w, t, per_key, zipf, tally, deadline, rng, open_interval, mix)
        }));
    }
    let mut client_metrics = MetricsSnapshot::new();
    let mut returned = vec![0u64; opts.keys * opts.entries_per_key];
    for handle in handles {
        let (snap, counts) = handle.join().map_err(|_| "worker panicked".to_string())?;
        client_metrics.merge(&snap);
        returned.iter_mut().zip(counts).for_each(|(sum, n)| *sum += n);
    }
    let elapsed = started.elapsed();

    let after = observer.cluster_metrics(false).map_err(|e| e.to_string())?;
    run.record(0, elapsed.as_micros() as u64, after);
    let grown = run.last_delta().expect("two windows recorded").changed;
    let after = &run.latest().expect("just recorded").totals;
    let server_probe_delta = grown.counter_sum("pls_probes_total");

    let lookups = tally.lookups.get();
    let failures = tally.failures.get();
    let updates = tally.updates.get();
    let deletes = tally.deletes.get();
    let throughput = lookups as f64 / elapsed.as_secs_f64();
    let latency = tally.latency_us.snapshot();
    if lookups == 0 {
        return Err("no lookup completed — is the cluster reachable?".to_string());
    }

    let rate_json = if opts.mode == Mode::Open { number(opts.rate) } else { "null".to_string() };
    let config = Object::new()
        .u64("servers", opts.cfg.servers.len() as u64)
        .field("addresses", &array(opts.cfg.servers.iter().map(|a| string(&a.to_string()))))
        .string("strategy", &opts.cfg.spec.to_string())
        .u64("t", opts.t as u64)
        .u64("keys", opts.keys as u64)
        .u64("entries_per_key", opts.entries_per_key as u64)
        .f64("zipf_s", opts.zipf_s)
        .u64("duration_s", opts.duration.as_secs())
        .u64("concurrency", opts.concurrency as u64)
        .string("mode", if opts.mode == Mode::Open { "open" } else { "closed" })
        .field("rate_rps", &rate_json)
        .f64("update_pct", opts.update_pct)
        .f64("delete_pct", opts.delete_pct)
        .u64("seed", opts.seed)
        .build();

    let empty = HistogramSnapshot::empty();
    let probes_hist = client_metrics.histogram("pls_client_probes_per_lookup").unwrap_or(&empty);
    let probes = Object::new()
        .u64("client_total", client_metrics.counter_sum("pls_client_probes_total"))
        .f64("per_lookup_mean", probes_hist.mean())
        .f64("per_lookup_p99", probes_hist.quantile(0.99))
        .u64("server_delta_total", server_probe_delta)
        .f64("per_lookup_from_servers", server_probe_delta as f64 / lookups as f64)
        .build();

    let robustness = Object::new()
        .u64("rpc_timeouts", client_metrics.counter_sum("pls_rpc_timeouts_total"))
        .u64("rpc_retries", client_metrics.counter_sum("pls_rpc_retries_total"))
        .u64("hedges", client_metrics.counter_sum("pls_client_hedges_total"))
        .u64("hedge_wins", client_metrics.counter_sum("pls_client_hedge_wins_total"))
        .u64(
            "op_budget_exhausted",
            client_metrics.counter_sum("pls_client_op_budget_exhausted_total"),
        )
        .u64("probe_failures", client_metrics.counter_sum("pls_client_probe_failures_total"))
        .build();

    // The cluster's own consistency observatory, read back after the
    // run: per-strategy live staleness gauges, tombstone totals, and
    // the observed version-lag distribution, measured by the servers'
    // repair rounds (`probe_rounds` counts them). All zeros/empty when the
    // servers run without --antientropy-ms or the workload is read-only.
    let mut live_staleness: Vec<String> = after
        .gauges_of("pls_live_staleness")
        .filter_map(|(labels, p_fresh)| {
            let t: u64 = labels.get("t")?.parse().ok()?;
            Some(
                Object::new()
                    .string("strategy", labels.get("strategy")?)
                    .u64("t", t)
                    .f64("p_fresh", p_fresh)
                    .build(),
            )
        })
        .collect();
    live_staleness.sort();
    let staleness = Object::new()
        .field("live", &array(live_staleness))
        .u64("probe_rounds", after.counter_sum("pls_antientropy_rounds_total"))
        .f64("tombstones_live", after.gauge("pls_tombstones_live").unwrap_or(0.0))
        .u64("tombstones_gc", after.counter_sum("pls_tombstones_gc_total"))
        .field(
            "versions_behind",
            &hist_json(after.histogram("pls_staleness_versions_behind").unwrap_or(&empty)),
        )
        .build();

    let client_hist = |name: &str| hist_json(client_metrics.histogram(name).unwrap_or(&empty));
    let results = Object::new()
        .f64("elapsed_s", elapsed.as_secs_f64())
        .u64("lookups", lookups)
        .u64("failures", failures)
        .u64("target_misses", tally.target_misses.get())
        .u64("updates", updates)
        .u64("deletes", deletes)
        .u64("mutation_failures", tally.mutation_failures.get())
        .f64("throughput_rps", throughput)
        .field("latency_us", &hist_json(&latency))
        .field("mutation_latency_us", &hist_json(&tally.mutation_latency_us.snapshot()))
        .field("probe_latency_us", &client_hist("pls_client_probe_latency_us"))
        .field("probe_service_us", &client_hist("pls_client_probe_service_us"))
        .field("probe_net_us", &client_hist("pls_client_probe_net_us"))
        .field("probes", &probes)
        .field("robustness", &robustness)
        .field("runtime", &runtime_json(&grown, lookups))
        .field("staleness", &staleness)
        .field("quality", &quality_json(&returned, opts.entries_per_key))
        .build();

    let report = BenchReport::new(opts.name.clone(), config, results);
    let path = report.write(&opts.out).map_err(|e| format!("writing artifact: {e}"))?;
    println!(
        "{lookups} lookups in {:.2}s ({throughput:.0}/s), {failures} failed; \
         latency p50 {:.0}us p99 {:.0}us; {:.2} probes/lookup (servers saw {:.2})",
        elapsed.as_secs_f64(),
        latency.quantile(0.50),
        latency.quantile(0.99),
        probes_hist.mean(),
        server_probe_delta as f64 / lookups as f64,
    );
    if updates + deletes > 0 {
        println!(
            "{updates} updates, {deletes} deletes ({} failed); \
             repair rounds seen: {}",
            tally.mutation_failures.get(),
            after.counter_sum("pls_antientropy_rounds_total"),
        );
    }
    println!("-> {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    trace::init(Some(pls_telemetry::Level::Warn));
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
