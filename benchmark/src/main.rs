//! `pls-benchmark`: the repo's hermetic, in-process benchmark.
//!
//! ```text
//! pls-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--scale F] [--suite-out FILE] [--meta K=V]...
//! pls-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! With `--workload` it runs that workload and ends its standard output
//! with the one-line JSON result; without, it runs all six, each in a
//! process of its own, and ends with the suite summary. Load is a closed loop from one process: one client
//! thread per Directory (two Directories in `observed-lookup`).

mod dirload;
mod layers;
mod observed;
mod refspeed;
mod report;
mod simload;
mod spans;
mod stats;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dirload::{
    Counts, Dir, DirSpec, Op, OpGen, Tally, Tracer, FIXED, FULL, HASH, RANDOM, ROUND,
    STRATEGY_NAMES,
};
use observed::Telemetry;
use report::{Metric, Outcome};
use spans::{SpanBuffer, ROOT};
use stats::{median, spread, LatencyHistogram};

#[global_allocator]
static ALLOC: pls_telemetry::alloc::CountingAlloc = pls_telemetry::alloc::CountingAlloc;

const ALL_FIVE: &[usize] = &[FULL, FIXED, RANDOM, ROUND, HASH];
const MERGING: &[usize] = &[RANDOM, ROUND, HASH];

/// Op counts are a quarter of the issue's (which sized a pass at 2.5 s):
/// a pass takes about 0.6 s, so a ten-second run holds enough passes for
/// a steady median.
const DIRECTORY_WORKLOADS: [DirSpec; 5] = [
    DirSpec {
        name: "lookup-single",
        keys: 1_000,
        kinds: &[FULL, FIXED],
        zipf: false,
        ops_per_pass: 375_000,
        updates_per_mille: 0,
        t: 5,
        t_fixed: 5,
    },
    DirSpec {
        name: "lookup-merge",
        keys: 1_000,
        kinds: MERGING,
        zipf: false,
        ops_per_pass: 37_500,
        updates_per_mille: 0,
        t: 35,
        t_fixed: 35,
    },
    DirSpec {
        name: "churn",
        keys: 1_000,
        kinds: ALL_FIVE,
        zipf: false,
        ops_per_pass: 75_000,
        updates_per_mille: 1_000,
        t: 35,
        t_fixed: 15,
    },
    DirSpec {
        name: "mixed-zipf",
        keys: 4_000,
        kinds: ALL_FIVE,
        zipf: true,
        ops_per_pass: 45_000,
        updates_per_mille: 100,
        t: 35,
        t_fixed: 15,
    },
    // Per thread: `lookup-merge`'s ops split over two Directories.
    DirSpec {
        name: "observed-lookup",
        keys: 500,
        kinds: MERGING,
        zipf: false,
        ops_per_pass: 5_000,
        updates_per_mille: 0,
        t: 35,
        t_fixed: 35,
    },
];
const OBSERVED_THREADS: usize = 2;
/// Lookups between two `/metrics` scrapes, per thread.
const SCRAPE_EVERY: u64 = 2_500;
const SIM_WORKLOAD: &str = "sim-repro";
const SIM_TRACE_SEEDS: usize = 3;
/// Ops the check pass replays per Directory.
const CHECK_OPS: usize = 50_000;
/// Set-ups per untraced run; `setup_s` is their median. Generating
/// `sim-repro`'s traces takes milliseconds, so it is repeated more often.
const SETUPS: usize = 3;
const SIM_SETUPS: usize = 15;
/// Op spans kept per traced pass and thread, and in `trace.json` in all.
const OP_SPANS_PER_PASS: usize = 4_000;
const TRACE_CAPACITY: usize = 64 * 1024;

const WORKLOAD_NAMES: [&str; 6] =
    ["lookup-single", "lookup-merge", "churn", "mixed-zipf", SIM_WORKLOAD, "observed-lookup"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    suite_out: Option<PathBuf>,
    /// Set by the suite on the processes it starts: end with the suite
    /// entry (which carries spreads) instead of the driver's line.
    suite_entry: bool,
    meta: Vec<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        suite_out: None,
        suite_entry: false,
        meta: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--suite-out" => args.suite_out = Some(PathBuf::from(value()?)),
            "--suite-entry" => args.suite_entry = true,
            "--meta" => {
                let kv = value()?;
                let (k, v) = kv.split_once('=').ok_or("--meta takes KEY=VALUE")?;
                args.meta.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_string());
    }
    if let Some(w) = &args.workload {
        if !WORKLOAD_NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`; one of {}", WORKLOAD_NAMES.join(", ")));
        }
    }
    Ok(args)
}

fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).round() as usize).max(1)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One thread's share of a Directory workload: its keys, its op stream
/// and, once set up, its Directory.
struct Shard {
    spec: DirSpec,
    key_base: usize,
    seed: u64,
    keys: Vec<String>,
    gen: OpGen,
    ops: Vec<Op>,
    dir: Option<Dir>,
    lookups_seen: u64,
}

impl Shard {
    fn new(spec: &DirSpec, seed: u64, thread: usize) -> Shard {
        let key_base = thread * spec.keys;
        let seed = seed.wrapping_add(thread as u64 * 0x5851_f42d_4c95_7f2d);
        let gen = OpGen::new(spec, seed, key_base);
        Shard {
            spec: spec.clone(),
            key_base,
            seed,
            keys: gen.key_names(),
            gen,
            ops: Vec::with_capacity(spec.ops_per_pass.max(CHECK_OPS)),
            dir: None,
            lookups_seen: 0,
        }
    }

    fn set_up(&mut self) {
        self.dir = None; // free the previous one first: peak heap is one Directory
        self.dir = Some(dirload::build(&self.spec, self.seed, &self.keys, self.key_base));
    }

    /// Replays the head of this shard's op stream (from a second
    /// generator, so the measured stream is untouched) on the current
    /// Directory, which is spent afterwards.
    fn check(&mut self, ops: usize) -> dirload::CheckReport {
        let mut gen = OpGen::new(&self.spec, self.seed, self.key_base);
        gen.fill(&mut self.ops, ops);
        let dir = self.dir.as_mut().expect("set up before check");
        dirload::check(dir, &self.keys, &self.spec, &self.ops)
    }

    fn run_pass(
        &mut self,
        thread: usize,
        tel: Option<&Telemetry>,
        scrape_every: u64,
        tally: &mut Tally,
        spans: Option<&mut SpanBuffer>,
    ) -> Duration {
        let dir = self.dir.as_mut().expect("set up before the pass");
        let tracer = spans.map(|buffer| Tracer { buffer, parent: ROOT });
        let (keys, spec, ops) = (&self.keys, &self.spec, &self.ops);
        match tel {
            None => dirload::run_pass(dir, keys, spec, ops, tally, tracer, |_, _, _, _| {}),
            Some(tel) => {
                let seen = &mut self.lookups_seen;
                dirload::run_pass(dir, keys, spec, ops, tally, tracer, |dir, key, t, result| {
                    *seen += 1;
                    tel.observe_lookup(dir, key, t, ((thread as u64) << 48) | *seen, result);
                    if seen.is_multiple_of(scrape_every) {
                        std::hint::black_box(tel.scrape());
                    }
                })
            }
        }
    }
}

/// Refills every shard's ops, then runs them as one pass, each shard on
/// its own thread when there are several. Returns the pass's wall time
/// and op count; latencies and counts go to each shard's tally.
fn run_shards(
    shards: &mut [Shard],
    tel: Option<&Telemetry>,
    scrape_every: u64,
    tallies: &mut [Tally],
    mut spans: Option<&mut Vec<SpanBuffer>>,
) -> (Duration, u64) {
    for s in shards.iter_mut() {
        let n = s.spec.ops_per_pass;
        s.gen.fill(&mut s.ops, n);
    }
    let ops = shards.iter().map(|s| s.ops.len() as u64).sum();
    if let [shard] = shards {
        let buffer = spans.as_mut().map(|s| &mut s[0]);
        return (shard.run_pass(0, tel, scrape_every, &mut tallies[0], buffer), ops);
    }
    let barrier = Barrier::new(shards.len() + 1);
    let buffers: Vec<Option<&mut SpanBuffer>> = match spans.as_mut() {
        Some(s) => s.iter_mut().map(Some).collect(),
        None => shards.iter().map(|_| None).collect(),
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = shards
            .iter_mut()
            .zip(tallies.iter_mut())
            .zip(buffers)
            .enumerate()
            .map(|(thread, ((shard, tally), buffer))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    shard.run_pass(thread, tel, scrape_every, tally, buffer);
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for w in workers {
            w.join().expect("workload thread panicked");
        }
        (start.elapsed(), ops)
    })
}

fn tallies(n: usize) -> Vec<Tally> {
    (0..n).map(|_| Tally::new()).collect()
}

fn pooled(tallies: &[Tally]) -> Tally {
    let mut all = Tally::new();
    tallies.iter().for_each(|t| all.merge(t));
    all
}

/// Nominal-machine times of one histogram: the measured quantiles
/// scaled by the machine's speed while they were measured.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    p50: f64,
    p99: f64,
    mean: f64,
}

impl Times {
    fn of(h: &LatencyHistogram, speed: f64) -> Times {
        Times {
            p50: h.quantile(0.5) * speed,
            p99: h.quantile(0.99) * speed,
            mean: h.mean() * speed,
        }
    }
}

/// What one timed pass contributes to the timing metrics, all of it on
/// the nominal machine (see `refspeed`).
#[derive(Debug, Clone, Copy, Default)]
struct PassTimes {
    ops_per_s: f64,
    op: Times,
    lookup: Times,
    update: Times,
}

fn median_of(passes: &[PassTimes], f: impl Fn(&PassTimes) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Runs the reference kernel between timed intervals and scales each
/// interval by the mean of the slices on either side of it.
struct SpeedGauge {
    reference: refspeed::Reference,
    last: f64,
}

impl SpeedGauge {
    /// A gauge for intervals that run on up to `threads` threads.
    fn new(threads: usize) -> SpeedGauge {
        SpeedGauge { reference: refspeed::Reference::new(threads), last: 1.0 }
    }

    /// Takes a reading before an interval that runs on `threads` threads.
    fn mark(&mut self, threads: usize) {
        self.last = self.reference.speed(threads);
    }

    /// The machine's speed over the interval since the last reading,
    /// which was taken with the same `threads`; marks the start of the
    /// next interval.
    fn since_mark(&mut self, threads: usize) -> f64 {
        let before = self.last;
        self.mark(threads);
        (before + self.last) / 2.0
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`'s
/// order.
struct EndToEnd {
    setup_s: Vec<f64>,
    passes: Vec<PassTimes>,
    msgs_per_op: f64,
    storage_per_entry: f64,
    allocs_per_op: f64,
    alloc_bytes_per_op: f64,
    peak_heap_mb: f64,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        let rates: Vec<f64> = self.passes.iter().map(|p| p.ops_per_s).collect();
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s").with_spread(spread(&self.setup_s)),
            Metric::new("ops_per_s", median(&rates), "ops/s").with_spread(spread(&rates)),
            Metric::new("op_p50_ns", median_of(&self.passes, |p| p.op.p50), "ns"),
            Metric::new("msgs_per_op", self.msgs_per_op, "count"),
            Metric::new("storage_per_entry", self.storage_per_entry, "ratio"),
            Metric::new("allocs_per_op", self.allocs_per_op, "count"),
            Metric::new("alloc_bytes_per_op", self.alloc_bytes_per_op, "B"),
            Metric::new("peak_heap_mb", self.peak_heap_mb, "MB"),
        ]
    }
}

/// Per-layer metrics that come from the workload's own passes rather
/// than from the layer batches. A metric the workload never crosses
/// reads 0.
#[derive(Default)]
struct WorkloadLayers {
    op_p99_ns: f64,
    lookup_p50_ns: f64,
    lookup_p99_ns: f64,
    update_p50_ns: f64,
    update_p99_ns: f64,
    probes_per_lookup: f64,
    msgs_per_update: f64,
    failed_share: f64,
    unfairness: f64,
    lookup_self_ns: f64,
    drive_self_ns: f64,
    merge_waste: f64,
    accounted_pct: f64,
    trace_overhead_pct: f64,
    generate_share: f64,
    run_share: f64,
    metrics_share: f64,
    machine_speed: f64,
}

impl WorkloadLayers {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("op_p99_ns", self.op_p99_ns, "ns"),
            Metric::new("lookup_p50_ns", self.lookup_p50_ns, "ns"),
            Metric::new("lookup_p99_ns", self.lookup_p99_ns, "ns"),
            Metric::new("update_p50_ns", self.update_p50_ns, "ns"),
            Metric::new("update_p99_ns", self.update_p99_ns, "ns"),
            Metric::new("probes_per_lookup", self.probes_per_lookup, "count"),
            Metric::new("msgs_per_update", self.msgs_per_update, "count"),
            Metric::new("failed_share", self.failed_share, "ratio"),
            Metric::new("unfairness", self.unfairness, "CoV"),
            Metric::new("core.directory.lookup_self_ns", self.lookup_self_ns, "ns"),
            Metric::new("core.directory.drive_self_ns", self.drive_self_ns, "ns"),
            // In process a probe is one `sample` call and a processed
            // update message one `handle` call.
            Metric::new("core.engine.sample.calls_per_lookup", self.probes_per_lookup, "count"),
            Metric::new("core.engine.handle.calls_per_update", self.msgs_per_update, "count"),
            Metric::new("core.directory.merge_waste", self.merge_waste, "ratio"),
            Metric::new("layers.accounted_pct", self.accounted_pct, "%"),
            Metric::new("trace_overhead_pct", self.trace_overhead_pct, "%"),
            Metric::new("sim.stage.generate_share", self.generate_share, "ratio"),
            Metric::new("sim.stage.run_share", self.run_share, "ratio"),
            Metric::new("sim.stage.metrics_share", self.metrics_share, "ratio"),
            Metric::new("machine.speed", self.machine_speed, "ratio"),
        ]
    }
}

/// By how much tracing slowed the passes, in percent.
fn trace_overhead_pct(untraced: &[PassTimes], traced: &[PassTimes]) -> f64 {
    let untraced = median_of(untraced, |p| p.ops_per_s);
    100.0 * ratio(untraced - median_of(traced, |p| p.ops_per_s), untraced)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn heap_mb_above(baseline_bytes: u64) -> f64 {
    pls_telemetry::alloc::stats().peak_bytes.saturating_sub(baseline_bytes) as f64 / 1e6
}

/// Layer time × calls for everything `counts` ran, in nanoseconds:
/// (children of lookups, children of updates). `ns` maps a layer
/// function to its time per call.
fn attributed_ns(
    spec: &DirSpec,
    counts: &Counts,
    ns: &HashMap<String, f64>,
    observed: bool,
) -> (f64, f64) {
    let at = |name: &str| ns.get(name).copied().unwrap_or(0.0);
    let sample = |kind: usize| {
        let t = if kind == FIXED { spec.t_fixed } else { spec.t };
        at(&format!("core.engine.sample_t{t}.{}", STRATEGY_NAMES[kind]))
    };
    let mut lookups = 0.0;
    let mut updates = 0.0;
    for (kind, strat) in STRATEGY_NAMES.iter().enumerate() {
        let (n, probes) = (counts.lookups[kind] as f64, counts.probes[kind] as f64);
        lookups += probes * sample(kind);
        if kind == RANDOM || kind == ROUND || kind == HASH {
            // Merge every answer, then hand back t of the merged set.
            lookups += probes * at("core.collections.extend_20")
                + n * at("core.collections.sample_35of40");
        }
        if kind == RANDOM || kind == HASH {
            lookups += n * at("net.rng.shuffled_servers");
        }
        updates += counts.adds[kind] as f64 * at(&format!("core.engine.handle_add.{strat}"))
            + counts.deletes[kind] as f64 * at(&format!("core.engine.handle_delete.{strat}"));
    }
    if observed {
        // Per probe: two spans, one counter, one sketch offer, one keyed
        // counter per returned entry (20 here), two histograms, all on
        // instruments the other thread is using too.
        let per_probe = 2.0 * at("telemetry.trace.span_off_2t")
            + at("telemetry.counter.inc_2t")
            + at("telemetry.topk.offer_2t")
            + 20.0 * at("telemetry.keyed.inc_2t")
            + 2.0 * at("telemetry.histogram.observe_2t");
        lookups += counts.total_probes() as f64 * per_probe;
    }
    (lookups, updates)
}

/// The layer batches of a traced run, under a `layers` span, and the
/// closing of the run's span.
fn run_layers(
    trace: &mut SpanBuffer,
    run_span: u32,
    origin: Instant,
    seed: u64,
) -> (Vec<Metric>, HashMap<String, f64>) {
    let layers_span = trace.open();
    let start = Instant::now();
    let mut reference = refspeed::Reference::new(1);
    let mut bench = layers::LayerBench::new(trace, layers_span, &mut reference);
    bench.run_all(seed);
    let result = bench.into_metrics();
    let now = Instant::now();
    trace.close(layers_span, run_span, "layers", start, now, 1);
    trace.close(run_span, ROOT, "run", origin, now, 1);
    result
}

fn run_directory(spec: &DirSpec, threads: usize, args: &Args) -> Result<Outcome, String> {
    let observed = threads > 1;
    let mut spec = spec.clone();
    spec.ops_per_pass = scaled(spec.ops_per_pass, args.scale);
    let check_ops = scaled(CHECK_OPS, args.scale);
    let scrape_every = scaled(SCRAPE_EVERY as usize, args.scale) as u64;

    // Harness buffers first, so the heap baseline holds them.
    let mut shards: Vec<Shard> = (0..threads).map(|t| Shard::new(&spec, args.seed, t)).collect();
    let origin = Instant::now();
    let mut trace = args.trace.then(|| SpanBuffer::new(origin, TRACE_CAPACITY));
    let tel = observed.then(Telemetry::install);
    let mut gauge = SpeedGauge::new(threads);
    let heap_baseline = pls_telemetry::alloc::stats().current_bytes;

    // Set-up, several times; the first Directory is spent on the check.
    let mut setup_s = Vec::new();
    let mut checked = dirload::CheckReport::default();
    for round in 0..if args.trace { 2 } else { SETUPS } {
        gauge.mark(1); // set-up is single-threaded
        let start = Instant::now();
        shards.iter_mut().for_each(Shard::set_up);
        let elapsed = secs(start.elapsed());
        setup_s.push(elapsed * gauge.since_mark(1));
        if round == 0 {
            for shard in shards.iter_mut() {
                let r = shard.check(check_ops);
                checked.attempted += r.attempted;
                checked.violations += r.violations;
            }
        }
    }

    // Warm-up: caches fill, lazy set-up finishes.
    run_shards(&mut shards, tel.as_ref(), scrape_every, &mut tallies(threads), None);

    let mut e2e = EndToEnd {
        setup_s,
        passes: Vec::new(),
        msgs_per_op: 0.0,
        storage_per_entry: 0.0,
        allocs_per_op: 0.0,
        alloc_bytes_per_op: 0.0,
        peak_heap_mb: 0.0,
    };
    let mut untraced = Counts::default();
    let mut traced = Counts::default();
    let mut traced_passes = Vec::new();
    let mut speeds = Vec::new();
    let pass_times = |ops: u64, wall: Duration, tally: &Tally, speed: f64| PassTimes {
        ops_per_s: ops as f64 / secs(wall) / speed,
        op: Times::of(&tally.lat.all(), speed),
        lookup: Times::of(&tally.lat.lookup, speed),
        update: Times::of(&tally.lat.update, speed),
    };
    let run_span = trace.as_mut().map_or(ROOT, SpanBuffer::open);
    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut measured = 0.0;
    gauge.mark(threads);
    while measured < budget || e2e.passes.len() < 2 {
        // Untraced pass: what the end-to-end metrics are made of.
        let mut pass = tallies(threads);
        let phase = pls_telemetry::alloc::phase();
        let (wall, ops) = run_shards(&mut shards, tel.as_ref(), scrape_every, &mut pass, None);
        let delta = phase.delta();
        let speed = gauge.since_mark(threads);
        let pass = pooled(&pass);
        if e2e.passes.is_empty() {
            // Count-type metrics come from this pass alone: its ops and
            // the state it starts from are fixed by the seed, so they
            // repeat exactly however many passes the clock allows.
            let counts = &pass.counts;
            e2e.allocs_per_op = delta.allocs as f64 / ops as f64;
            e2e.alloc_bytes_per_op = delta.allocated_bytes as f64 / ops as f64;
            e2e.msgs_per_op = (counts.total_probes() + counts.update_msgs) as f64 / ops as f64;
            let copies: usize = shards
                .iter()
                .map(|s| dirload::copies_stored(s.dir.as_ref().expect("set up"), &s.keys))
                .sum();
            let live: usize = shards.iter().map(|s| s.gen.live_total()).sum();
            e2e.storage_per_entry = copies as f64 / live as f64;
        }
        measured += secs(wall);
        e2e.passes.push(pass_times(ops, wall, &pass, speed));
        untraced.merge(&pass.counts);
        speeds.push(speed);

        if let Some(main) = trace.as_mut() {
            // Traced pass: same loop, a span around every op.
            let mut pass = tallies(threads);
            let mut buffers: Vec<SpanBuffer> =
                shards.iter().map(|s| SpanBuffer::new(origin, s.spec.ops_per_pass)).collect();
            let pass_span = main.open();
            let start = Instant::now();
            let (wall, ops) =
                run_shards(&mut shards, tel.as_ref(), scrape_every, &mut pass, Some(&mut buffers));
            let end = Instant::now();
            let speed = gauge.since_mark(threads);
            for b in buffers {
                main.absorb(b, pass_span, OP_SPANS_PER_PASS);
            }
            main.close(pass_span, run_span, "pass", start, end, ops as u32);
            measured += secs(wall);
            let pass = pooled(&pass);
            traced_passes.push(pass_times(ops, wall, &pass, speed));
            traced.merge(&pass.counts);
        }
    }
    e2e.peak_heap_mb = heap_mb_above(heap_baseline);

    let failed = untraced.failed() + traced.failed() + checked.violations;
    let attempted = untraced.ops() + traced.ops() + checked.attempted;
    let mut outcome = Outcome {
        workload: spec.name.to_string(),
        trace: args.trace,
        correct: checked.violations == 0,
        attempted,
        failed,
        passes: e2e.passes.len() as u64,
        metrics: e2e.metrics(),
    };
    let Some(mut trace) = trace else {
        return Ok(outcome);
    };

    // Traced run: the layer batches, then attribution.
    drop(tel); // the layer batches install their own telemetry set
    let (layer_metrics, ns) = run_layers(&mut trace, run_span, origin, args.seed);
    let lookups = untraced.total_lookups() as f64;
    let updates = untraced.total_updates() as f64;
    let (lookup_children, update_children) = attributed_ns(&spec, &untraced, &ns, observed);
    let lookup_time = median_of(&e2e.passes, |p| p.lookup.mean) * lookups;
    let update_time = median_of(&e2e.passes, |p| p.update.mean) * updates;
    let wl = WorkloadLayers {
        op_p99_ns: median_of(&e2e.passes, |p| p.op.p99),
        lookup_p50_ns: median_of(&e2e.passes, |p| p.lookup.p50),
        lookup_p99_ns: median_of(&e2e.passes, |p| p.lookup.p99),
        update_p50_ns: median_of(&e2e.passes, |p| p.update.p50),
        update_p99_ns: median_of(&e2e.passes, |p| p.update.p99),
        probes_per_lookup: ratio(untraced.total_probes() as f64, lookups),
        msgs_per_update: ratio(untraced.update_msgs as f64, updates),
        failed_share: ratio(failed as f64, attempted as f64),
        lookup_self_ns: ratio(lookup_time - lookup_children, lookups),
        drive_self_ns: ratio(update_time - update_children, updates),
        merge_waste: ratio(traced.fetched as f64, traced.wanted as f64),
        accounted_pct: 100.0 * ratio(lookup_children + update_children, lookup_time + update_time),
        trace_overhead_pct: trace_overhead_pct(&e2e.passes, &traced_passes),
        machine_speed: median(&speeds),
        ..WorkloadLayers::default()
    };
    outcome.metrics = wl.metrics();
    outcome.metrics.extend(layer_metrics);
    write_trace(args, &trace, spec.name)?;
    Ok(outcome)
}

fn run_sim(args: &Args) -> Result<Outcome, String> {
    let trace_seeds = scaled(SIM_TRACE_SEEDS, args.scale);
    let origin = Instant::now();
    let mut trace = args.trace.then(|| SpanBuffer::new(origin, TRACE_CAPACITY));
    let mut gauge = SpeedGauge::new(1);
    let heap_baseline = pls_telemetry::alloc::stats().current_bytes;

    // Generating the traces takes milliseconds, so the reference brackets
    // all the set-ups together rather than each one.
    let mut setup_s = Vec::new();
    let mut traces = Vec::new();
    gauge.mark(1);
    for _ in 0..if args.trace { 1 } else { SIM_SETUPS } {
        let start = Instant::now();
        traces = simload::generate(args.seed, trace_seeds);
        setup_s.push(secs(start.elapsed()));
    }
    let speed = gauge.since_mark(1);
    setup_s.iter_mut().for_each(|s| *s *= speed);

    simload::run_pass(&traces, &mut LatencyHistogram::new(), None);

    let run_span = trace.as_mut().map_or(ROOT, SpanBuffer::open);
    let mut passes = Vec::new();
    let mut traced_passes = Vec::new();
    let mut speeds = Vec::new();
    let mut first: Option<(simload::SimPass, pls_telemetry::AllocStats)> = None;
    let (mut attempted, mut failed) = (0, 0);
    let pass_times = |pass: &simload::SimPass, steps: &LatencyHistogram, speed: f64| PassTimes {
        ops_per_s: pass.events as f64 / secs(pass.wall) / speed,
        op: Times::of(steps, speed),
        ..PassTimes::default()
    };
    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut measured = 0.0;
    gauge.mark(1);
    while measured < budget || passes.len() < 2 {
        let mut steps = LatencyHistogram::new();
        let phase = pls_telemetry::alloc::phase();
        let pass = simload::run_pass(&traces, &mut steps, None);
        let delta = phase.delta();
        let speed = gauge.since_mark(1);
        measured += secs(pass.wall);
        passes.push(pass_times(&pass, &steps, speed));
        speeds.push(speed);
        attempted += pass.events;
        failed += pass.errors + pass.storage_mismatches;
        if first.is_none() {
            first = Some((pass, delta));
        }
        if let Some(main) = trace.as_mut() {
            let pass_span = main.open();
            let mut steps = LatencyHistogram::new();
            let start = Instant::now();
            let pass = simload::run_pass(
                &traces,
                &mut steps,
                Some(Tracer { buffer: main, parent: pass_span }),
            );
            let end = Instant::now();
            let speed = gauge.since_mark(1);
            main.close(pass_span, run_span, "pass", start, end, pass.events as u32);
            measured += secs(pass.wall);
            traced_passes.push(pass_times(&pass, &steps, speed));
            attempted += pass.events;
            failed += pass.errors + pass.storage_mismatches;
        }
    }
    let (pass, allocs) = first.expect("at least two passes ran");
    let events = pass.events as f64;
    let e2e = EndToEnd {
        setup_s,
        passes,
        msgs_per_op: pass.update_msgs as f64 / events,
        storage_per_entry: pass.copies as f64 / pass.live as f64,
        allocs_per_op: allocs.allocs as f64 / events,
        alloc_bytes_per_op: allocs.allocated_bytes as f64 / events,
        peak_heap_mb: heap_mb_above(heap_baseline),
    };
    let mut outcome = Outcome {
        workload: SIM_WORKLOAD.to_string(),
        trace: args.trace,
        correct: pass.storage_mismatches == 0,
        attempted,
        failed,
        passes: e2e.passes.len() as u64,
        metrics: e2e.metrics(),
    };
    let Some(mut trace) = trace else {
        return Ok(outcome);
    };

    let (layer_metrics, _) = run_layers(&mut trace, run_span, origin, args.seed);
    // Shares of one pass's stages; the generation of its traces beside them.
    let generate = median(&e2e.setup_s);
    let stages = generate + secs(pass.run_time) + secs(pass.metrics_time);
    let wl = WorkloadLayers {
        op_p99_ns: median_of(&e2e.passes, |p| p.op.p99),
        msgs_per_update: pass.update_msgs as f64 / events,
        failed_share: ratio(failed as f64, attempted as f64),
        unfairness: pass.unfairness_sum / pass.cells as f64,
        trace_overhead_pct: trace_overhead_pct(&e2e.passes, &traced_passes),
        generate_share: generate / stages,
        run_share: secs(pass.run_time) / stages,
        metrics_share: secs(pass.metrics_time) / stages,
        machine_speed: median(&speeds),
        ..WorkloadLayers::default()
    };
    outcome.metrics = wl.metrics();
    outcome.metrics.extend(layer_metrics);
    write_trace(args, &trace, SIM_WORKLOAD)?;
    Ok(outcome)
}

/// Where the traced run leaves its spans, from the root of the checkout.
const TRACE_FILE: &str = "benchmark/out/trace.json";

fn write_trace(args: &Args, trace: &SpanBuffer, workload: &str) -> Result<(), String> {
    let path = std::path::Path::new(TRACE_FILE);
    let dir = path.parent().expect("the trace file has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    std::fs::write(path, trace.to_json(workload, args.seed))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    if name == SIM_WORKLOAD {
        return run_sim(args);
    }
    let spec = DIRECTORY_WORKLOADS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let threads = if name == "observed-lookup" { OBSERVED_THREADS } else { 1 };
    run_directory(spec, threads, args)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(name) = &args.workload {
        let outcome = run_workload(name, args)?;
        print!("{}", outcome.table());
        let line = if args.suite_entry { outcome.suite_entry() } else { outcome.contract_line() };
        println!("{line}");
        return Ok(outcome.correct && outcome.failed == 0);
    }
    // The suite: every workload in a process of its own, so that its
    // peak heap and the allocator's state are its own.
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut entries = Vec::new();
    let mut all_ok = true;
    for name in WORKLOAD_NAMES {
        let output = std::process::Command::new(&exe)
            .args(["--workload", name, "--suite-entry"])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .args([
                "--scale",
                &args.scale.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run `{name}`: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (table, entry) = stdout
            .trim_end()
            .rsplit_once('\n')
            .ok_or_else(|| format!("`{name}` printed no result (exit {})", output.status))?;
        println!("{table}");
        entries.push(entry.to_string());
        all_ok &= output.status.success();
    }
    let mut meta = vec![
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("scale".to_string(), args.scale.to_string()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism().map_or(0, usize::from).to_string(),
        ),
    ];
    meta.extend(args.meta.iter().cloned());
    let summary = report::suite_json(&meta, &entries);
    if let Some(path) = &args.suite_out {
        std::fs::write(path, &summary)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print!("{summary}");
    Ok(all_ok)
}

fn compare_command(argv: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds = PathBuf::from(it.next().ok_or("`--bounds` needs a file")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: pls-benchmark compare A.json B.json [--bounds BENCHMARK.json]".into());
    };
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let rules = report::parse_rules(&read(&bounds)?)?;
    let (table, regressed) = report::compare(&rules, &read(a.as_ref())?, &read(b.as_ref())?)?;
    print!("{table}");
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => compare_command(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pls-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let a = args(&["--workload", "churn", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!(a.workload.as_deref(), Some("churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn every_declared_workload_has_a_runner() {
        for name in WORKLOAD_NAMES {
            assert!(
                name == SIM_WORKLOAD || DIRECTORY_WORKLOADS.iter().any(|s| s.name == name),
                "{name}"
            );
        }
        assert_eq!(scaled(375_000, 0.04), 15_000);
        assert_eq!(scaled(3, 0.04), 1);
    }

    #[test]
    fn times_are_scaled_to_the_nominal_machine_and_medians_taken_per_field() {
        let mut h = LatencyHistogram::new();
        (0..1_000).for_each(|_| h.record(1_000));
        // Measured at half the nominal speed: the nominal machine needs half the time.
        let t = Times::of(&h, 0.5);
        assert!((t.p50 - 500.0).abs() < 20.0 && (t.mean - 500.0).abs() < 20.0, "{t:?}");
        let passes: Vec<PassTimes> = [3.0, 1.0, 2.0]
            .iter()
            .map(|&r| PassTimes {
                ops_per_s: r,
                op: Times { p50: 10.0 * r, ..t },
                ..PassTimes::default()
            })
            .collect();
        assert_eq!(median_of(&passes, |p| p.ops_per_s), 2.0);
        assert_eq!(median_of(&passes, |p| p.op.p50), 20.0);
        assert_eq!(trace_overhead_pct(&passes, &passes[1..2]), 50.0);
    }

    #[test]
    fn attribution_multiplies_layer_time_by_calls() {
        let spec = &DIRECTORY_WORKLOADS[1]; // lookup-merge
        let mut counts = Counts::default();
        counts.lookups[ROUND] = 10;
        counts.probes[ROUND] = 20;
        counts.lookups[HASH] = 10;
        counts.probes[HASH] = 30;
        counts.adds[FULL] = 4;
        let ns: HashMap<String, f64> = [
            ("core.engine.sample_t35.round", 100.0),
            ("core.engine.sample_t35.hash", 200.0),
            ("core.collections.extend_20", 10.0),
            ("core.collections.sample_35of40", 5.0),
            ("net.rng.shuffled_servers", 3.0),
            ("core.engine.handle_add.full", 1_000.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let (lookups, updates) = attributed_ns(spec, &counts, &ns, false);
        // round: 20*(100+10) + 10*5; hash: 30*(200+10) + 10*5 + 10*3
        assert_eq!(lookups, 2_250.0 + 6_380.0);
        assert_eq!(updates, 4_000.0);
    }
}
