//! Per-layer measurements for the traced run.
//!
//! Each layer's public functions are called directly, in batches, on
//! inputs shaped like the workloads' (n = 10, h = 100, the 200-entry
//! budget, 27-byte entries), each batch under its own span. A function
//! reports `<name>_ns` per call (or `_us` / `_ms`) and, where it
//! allocates, `<name>_allocs` per call.
//!
//! Engine-level functions run over a bank of engine groups (one group
//! is one key's ten engines) visited in rotation, so they miss the CPU
//! cache roughly as the Directory workloads do.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Barrier;
use std::time::Instant;

use pls_core::engine::{NodeEngine, Outbound};
use pls_core::{
    Cluster, DetRng, GroupRouter, HashFamily, IndexedSet, Membership, Message, ServerId,
};
use pls_metrics::{coverage, fault_tolerance, storage, unfairness};
use pls_net::{Endpoint, MsgClass, SimNet};
use pls_sim::{LifetimeKind, Simulation, WorkloadConfig};
use pls_telemetry::recorder::SpanRecord;
use pls_telemetry::{Counter, Histogram, KeyedCounterMap, Level, Span, TimedMutex, TopK};

use crate::dirload::{entry_bytes, key_name, strategy, H, N_SERVERS, ROUND, STRATEGY_NAMES};
use crate::observed::{key_entry, Telemetry};
use crate::refspeed::Reference;
use crate::report::Metric;
use crate::spans::SpanBuffer;
use crate::stats::median;

/// Engine groups per strategy in the bank.
const GROUPS: usize = 128;
/// Timed batches per function; the reported time is their median.
const BATCHES: usize = 5;

type Engine = NodeEngine<Vec<u8>>;

/// Delivers a client message to `coordinator` and drains the fan-out
/// over the group's engines; returns how many messages were handled.
fn drive(engines: &mut [Engine], coordinator: ServerId, msg: Message<Vec<u8>>) -> u32 {
    let mut queue: VecDeque<(Endpoint, ServerId, Message<Vec<u8>>)> = VecDeque::new();
    queue.push_back((Endpoint::client(0), coordinator, msg));
    let mut handled = 0;
    while let Some((from, dest, m)) = queue.pop_front() {
        handled += 1;
        for out in engines[dest.index()].handle(from, m) {
            match out {
                Outbound::To(d, m2) => queue.push_back((Endpoint::Server(dest), d, m2)),
                Outbound::Broadcast(m2) => {
                    for i in 0..engines.len() as u32 {
                        queue.push_back((Endpoint::Server(dest), ServerId::new(i), m2.clone()));
                    }
                }
            }
        }
    }
    handled
}

/// One key's ten engines plus the ids of its live entries.
struct Group {
    key: u32,
    engines: Vec<Engine>,
    live: Vec<u64>,
    next_id: u64,
}

impl Group {
    fn new(kind: usize, key: u32, seed: u64) -> Group {
        let mut engines: Vec<Engine> = (0..N_SERVERS as u32)
            .map(|i| {
                NodeEngine::new(ServerId::new(i), N_SERVERS, strategy(kind), seed ^ u64::from(key))
                    .expect("valid strategy for ten servers")
            })
            .collect();
        let entries = (0..H as u64).map(|id| entry_bytes(key, id).to_vec()).collect();
        drive(&mut engines, Self::coordinator(kind, key), Message::PlaceReq { entries });
        Group { key, engines, live: (0..H as u64).collect(), next_id: H as u64 }
    }

    /// Round-Robin updates go through server 0; the others through any.
    fn coordinator(kind: usize, key: u32) -> ServerId {
        ServerId::new(if kind == ROUND { 0 } else { key % N_SERVERS as u32 })
    }
}

/// Collects layer metrics, timing each function in batches under spans.
pub struct LayerBench<'a> {
    buffer: &'a mut SpanBuffer,
    parent: u32,
    reference: &'a mut Reference,
    metrics: Vec<Metric>,
    ns: HashMap<String, f64>,
}

#[derive(Clone, Copy)]
enum Unit {
    Ns,
    Us,
    Ms,
}

impl Unit {
    fn suffix(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Us => "us",
            Unit::Ms => "ms",
        }
    }
    fn per_ns(self) -> f64 {
        match self {
            Unit::Ns => 1.0,
            Unit::Us => 1e3,
            Unit::Ms => 1e6,
        }
    }
}

impl<'a> LayerBench<'a> {
    pub fn new(buffer: &'a mut SpanBuffer, parent: u32, reference: &'a mut Reference) -> Self {
        LayerBench { buffer, parent, reference, metrics: Vec::new(), ns: HashMap::new() }
    }

    /// Times `run` (which makes `calls` calls of the function) over
    /// [`BATCHES`] batches after one warm-up batch; `prep` builds each
    /// batch's input outside the timed interval.
    fn time<I>(
        &mut self,
        name: &'static str,
        unit: Unit,
        allocs: bool,
        calls: u32,
        mut prep: impl FnMut() -> I,
        mut run: impl FnMut(I),
    ) {
        run(prep());
        let mut per_call = Vec::with_capacity(BATCHES);
        let mut allocated = 0u64;
        for _ in 0..BATCHES {
            let input = prep();
            let phase = pls_telemetry::alloc::phase();
            let start = Instant::now();
            run(input);
            let end = Instant::now();
            allocated += phase.delta().allocs;
            self.buffer.leaf(self.parent, name, start, end, calls);
            per_call.push((end - start).as_nanos() as f64 / f64::from(calls));
        }
        let ns = median(&per_call);
        self.ns.insert(name.to_string(), ns);
        self.metrics.push(Metric::new(
            format!("{name}_{}", unit.suffix()),
            ns / unit.per_ns(),
            unit.suffix(),
        ));
        if allocs {
            let per = allocated as f64 / (BATCHES as f64 * f64::from(calls));
            self.metrics.push(Metric::new(format!("{name}_allocs"), per, "count"));
        }
    }

    /// Times `run(thread)` called by two threads at the same time on
    /// whatever `run` shares, and reports the wall time per call of one
    /// thread as `<single>_2t`. `single` is the function's name under
    /// [`Self::time`]: its time sets how often each thread repeats `run`
    /// so that a batch lasts about 2 ms, far longer than the skew between
    /// the two threads' starts.
    fn time_2t(
        &mut self,
        single: &'static str,
        name: &'static str,
        calls: u32,
        run: impl Fn(usize) + Sync,
    ) {
        let single_batch_ns = self.ns.get(single).copied().unwrap_or(1_000.0) * f64::from(calls);
        let reps = (2e6 / single_batch_ns).ceil().max(1.0) as u32;
        let mut per_call = Vec::with_capacity(BATCHES);
        for batch in 0..=BATCHES {
            let barrier = Barrier::new(2);
            let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..2)
                    .map(|thread| {
                        let (barrier, run) = (&barrier, &run);
                        scope.spawn(move || {
                            barrier.wait();
                            let start = Instant::now();
                            for _ in 0..reps {
                                run(thread);
                            }
                            (start, Instant::now())
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("layer worker panicked")).collect()
            });
            let start = spans[0].0.min(spans[1].0);
            let end = spans[0].1.max(spans[1].1);
            if batch > 0 {
                self.buffer.leaf(self.parent, name, start, end, calls * reps);
                per_call.push((end - start).as_nanos() as f64 / f64::from(calls * reps));
            }
        }
        let ns = median(&per_call);
        self.ns.insert(name.to_string(), ns);
        self.metrics.push(Metric::new(format!("{name}_ns"), ns, "ns"));
    }

    pub fn into_metrics(self) -> (Vec<Metric>, HashMap<String, f64>) {
        (self.metrics, self.ns)
    }

    /// Runs every layer's batches. Each layer's times are put on the
    /// nominal machine by the reference slices run before and after it
    /// (see `refspeed`), like the passes' times they are set beside.
    pub fn run_all(&mut self, seed: u64) {
        let layers: [fn(&mut Self, u64); 6] = [
            Self::net_layers,
            Self::engine_layers,
            Self::collection_layers,
            Self::cluster_layers,
            Self::sim_and_metrics_layers,
            |bench, _| bench.telemetry_layers(),
        ];
        let mut before = self.reference.speed(1);
        for layer in layers {
            let first = self.metrics.len();
            layer(self, seed);
            let after = self.reference.speed(1);
            let speed = (before + after) / 2.0;
            before = after;
            for m in &mut self.metrics[first..] {
                if let Some(base) = m.name.strip_suffix(&format!("_{}", m.unit)) {
                    // A time (`_ns`, `_us`, `_ms`), not a count.
                    m.value *= speed;
                    if let Some(ns) = self.ns.get_mut(base) {
                        *ns *= speed;
                    }
                }
            }
        }
    }

    fn net_layers(&mut self, seed: u64) {
        let mut rng = DetRng::seed_from(seed ^ 0x006e_6574);
        self.time(
            "net.rng.shuffled_servers",
            Unit::Ns,
            true,
            4_000,
            || (),
            |()| {
                for _ in 0..4_000 {
                    std::hint::black_box(rng.shuffled_servers(N_SERVERS));
                }
            },
        );
        let items: Vec<Vec<u8>> = (0..H as u64).map(|id| entry_bytes(1, id).to_vec()).collect();
        for (name, len, k, calls) in [
            ("net.rng.subset_5of100", 100, 5, 2_000u32),
            ("net.rng.subset_35of100", 100, 35, 500),
            ("net.rng.subset_20of20", 20, 20, 1_000),
        ] {
            let slice = &items[..len];
            self.time(
                name,
                Unit::Ns,
                true,
                calls,
                || (),
                |()| {
                    for _ in 0..calls {
                        std::hint::black_box(rng.subset(std::hint::black_box(slice), k));
                    }
                },
            );
        }

        let mut net: SimNet<Message<u64>> = SimNet::new(N_SERVERS);
        let client = Endpoint::client(0);
        self.time(
            "net.network.send_deliver",
            Unit::Ns,
            false,
            4_000,
            || (),
            |()| {
                for i in 0..4_000u32 {
                    let to = ServerId::new(i % N_SERVERS as u32);
                    let msg = Message::Store { v: u64::from(i) };
                    net.send(client, to, msg, MsgClass::Update).expect("server exists");
                    net.deliver_all(|_, env| {
                        std::hint::black_box(env);
                    });
                }
            },
        );
        self.time(
            "net.network.broadcast_deliver",
            Unit::Ns,
            true,
            1_000,
            || (),
            |()| {
                for i in 0..1_000u64 {
                    net.broadcast(client, Message::Store { v: i }, MsgClass::Update)
                        .expect("broadcast is infallible");
                    net.deliver_all(|_, env| {
                        std::hint::black_box(env);
                    });
                }
            },
        );
    }

    fn engine_layers(&mut self, seed: u64) {
        let mut rng = DetRng::seed_from(seed ^ 0x0065_6e67);
        for (kind, &strat) in STRATEGY_NAMES.iter().enumerate() {
            let mut groups: Vec<Group> =
                (0..GROUPS as u32).map(|g| Group::new(kind, g, seed)).collect();

            // Which answer sizes each strategy's lookups ask for in the
            // workloads: t = 5 (lookup-single), 15 (Fixed-20 keys of
            // mixed-zipf), 35 (everything else).
            let targets: &[(usize, &str)] = match strat {
                "full" => &[(5, "core.engine.sample_t5.full"), (35, "core.engine.sample_t35.full")],
                "fixed" => {
                    &[(5, "core.engine.sample_t5.fixed"), (15, "core.engine.sample_t15.fixed")]
                }
                "random" => &[(35, "core.engine.sample_t35.random")],
                "round" => &[(35, "core.engine.sample_t35.round")],
                _ => &[(35, "core.engine.sample_t35.hash")],
            };
            for &(t, name) in targets {
                self.time(
                    name,
                    Unit::Ns,
                    true,
                    (GROUPS * 4) as u32,
                    || (),
                    |()| {
                        for round in 0..4 {
                            for (g, group) in groups.iter_mut().enumerate() {
                                let s = (g + round * 3) % N_SERVERS;
                                std::hint::black_box(group.engines[s].sample(t));
                            }
                        }
                    },
                );
            }

            let (add_name, delete_name) = match strat {
                "full" => ("core.engine.handle_add.full", "core.engine.handle_delete.full"),
                "fixed" => ("core.engine.handle_add.fixed", "core.engine.handle_delete.fixed"),
                "random" => ("core.engine.handle_add.random", "core.engine.handle_delete.random"),
                "round" => ("core.engine.handle_add.round", "core.engine.handle_delete.round"),
                _ => ("core.engine.handle_add.hash", "core.engine.handle_delete.hash"),
            };
            self.time(
                add_name,
                Unit::Ns,
                true,
                GROUPS as u32,
                || (),
                |()| {
                    for group in groups.iter_mut() {
                        let id = group.next_id;
                        group.next_id += 1;
                        group.live.push(id);
                        let v = entry_bytes(group.key, id).to_vec();
                        let coordinator = Group::coordinator(kind, group.key);
                        drive(&mut group.engines, coordinator, Message::AddReq { v });
                    }
                },
            );
            self.time(
                delete_name,
                Unit::Ns,
                true,
                GROUPS as u32,
                || (),
                |()| {
                    for group in groups.iter_mut() {
                        let victim = rng.below(group.live.len());
                        let id = group.live.swap_remove(victim);
                        let v = entry_bytes(group.key, id).to_vec();
                        let coordinator = Group::coordinator(kind, group.key);
                        drive(&mut group.engines, coordinator, Message::DeleteReq { v });
                    }
                },
            );
        }

        let family = HashFamily::new(2, N_SERVERS, seed);
        let entries: Vec<Vec<u8>> = (0..1_000).map(|id| entry_bytes(2, id).to_vec()).collect();
        self.time(
            "core.hashing.assign_y2",
            Unit::Ns,
            false,
            4_000,
            || (),
            |()| {
                for round in 0..4 {
                    for v in &entries {
                        std::hint::black_box((round, family.assign(v)));
                    }
                }
            },
        );

        let members = Membership::bootstrap((0..8).map(|i| format!("10.0.0.{i}:7000")));
        let router = GroupRouter::new(pls_core::membership::DEFAULT_GROUP_SIZE, seed);
        let keys: Vec<String> = (0..1_000).map(key_name).collect();
        self.time(
            "core.membership.group",
            Unit::Ns,
            false,
            1_000,
            || (),
            |()| {
                for key in &keys {
                    std::hint::black_box(router.group(&members, key.as_bytes()));
                }
            },
        );
    }

    /// The client-side merge of `lookup-merge`: two 20-entry answers
    /// extended into one set (about 36 distinct), then trimmed to 35.
    fn collection_layers(&mut self, seed: u64) {
        let mut rng = DetRng::seed_from(seed ^ 0x0063_6f6c);
        let universe: Vec<Vec<u8>> = (0..H as u64).map(|id| entry_bytes(3, id).to_vec()).collect();
        const CALLS: u32 = 500;
        type Answer = Vec<Vec<u8>>;
        let answers: Vec<(Answer, Answer)> =
            (0..CALLS).map(|_| (rng.subset(&universe, 20), rng.subset(&universe, 20))).collect();
        self.time(
            "core.collections.extend_20",
            Unit::Ns,
            true,
            CALLS * 2,
            || answers.clone(),
            |answers| {
                for (first, second) in answers {
                    let mut acc: IndexedSet<Vec<u8>> = IndexedSet::new();
                    acc.extend(first);
                    acc.extend(second);
                    std::hint::black_box(acc);
                }
            },
        );
        let merged: IndexedSet<Vec<u8>> = universe[..40].iter().cloned().collect();
        self.time(
            "core.collections.sample_35of40",
            Unit::Ns,
            true,
            CALLS,
            || (),
            |()| {
                for _ in 0..CALLS {
                    std::hint::black_box(merged.sample(35, &mut rng));
                }
            },
        );
    }

    fn clusters(seed: u64) -> Vec<Cluster<u64>> {
        (0..5)
            .map(|kind| {
                let mut c = Cluster::new(N_SERVERS, strategy(kind), seed ^ kind as u64)
                    .expect("valid strategy for ten servers");
                c.place((0..H as u64).collect()).expect("all servers are up");
                c
            })
            .collect()
    }

    fn cluster_layers(&mut self, seed: u64) {
        let mut clusters = Self::clusters(seed);
        let names = [
            "core.cluster.partial_lookup_t15.full",
            "core.cluster.partial_lookup_t15.fixed",
            "core.cluster.partial_lookup_t15.random",
            "core.cluster.partial_lookup_t15.round",
            "core.cluster.partial_lookup_t15.hash",
        ];
        for (cluster, name) in clusters.iter_mut().zip(names) {
            self.time(
                name,
                Unit::Ns,
                false,
                1_000,
                || (),
                |()| {
                    for _ in 0..1_000 {
                        std::hint::black_box(cluster.partial_lookup(15).expect("servers are up"));
                    }
                },
            );
        }
        // Mean over the five strategies, the mix `sim-repro` replays.
        // Each batch is undone outside its timed interval, so the
        // clusters stay at h = 100.
        let clusters = RefCell::new(clusters);
        let next = Cell::new(H as u64);
        let fresh_ids = || {
            let base = next.get();
            next.set(base + 100);
            base..base + 100
        };
        let apply = |ids: Range<u64>, add: bool| {
            for id in ids {
                for c in clusters.borrow_mut().iter_mut() {
                    if add { c.add(id) } else { c.delete(&id) }.expect("servers are up");
                }
            }
        };
        let added = RefCell::new(0..0);
        self.time(
            "core.cluster.add",
            Unit::Ns,
            false,
            500,
            || apply(added.replace(0..0), false),
            |()| {
                let ids = fresh_ids();
                apply(ids.clone(), true);
                added.replace(ids);
            },
        );
        apply(added.replace(0..0), false);
        self.time(
            "core.cluster.delete",
            Unit::Ns,
            false,
            500,
            || {
                let ids = fresh_ids();
                apply(ids.clone(), true);
                ids
            },
            |ids| apply(ids, false),
        );
        let clusters = clusters.into_inner();
        self.time(
            "core.cluster.placement",
            Unit::Ns,
            true,
            500,
            || (),
            |()| {
                for _ in 0..100 {
                    for c in clusters.iter() {
                        std::hint::black_box(c.placement());
                    }
                }
            },
        );
    }

    fn sim_and_metrics_layers(&mut self, seed: u64) {
        let config = WorkloadConfig {
            arrival_mean: 10.0,
            steady_h: H,
            lifetime: LifetimeKind::Exponential,
            updates: crate::simload::UPDATES,
            seed,
        };
        self.time(
            "sim.workload.generate",
            Unit::Ms,
            false,
            1,
            || (),
            |()| {
                std::hint::black_box(config.generate());
            },
        );
        let short = WorkloadConfig { updates: 1_000, ..config }.generate();
        self.time(
            "sim.simulation.step",
            Unit::Ns,
            false,
            5_000,
            || {
                (0..5)
                    .map(|kind| {
                        let cluster = Cluster::new(N_SERVERS, strategy(kind), seed)
                            .expect("valid strategy for ten servers");
                        Simulation::new(cluster, short.clone()).expect("servers are up")
                    })
                    .collect::<Vec<_>>()
            },
            |sims| {
                for mut sim in sims {
                    while sim.step().expect("servers are up").is_some() {}
                }
            },
        );

        let mut clusters = Self::clusters(seed);
        let universe: Vec<u64> = (0..H as u64).collect();
        self.time(
            "metrics.unfairness.measure_instance",
            Unit::Ms,
            false,
            5,
            || (),
            |()| {
                for c in clusters.iter_mut() {
                    std::hint::black_box(unfairness::measure_instance(
                        c,
                        &universe,
                        crate::simload::T,
                        crate::simload::FAIRNESS_LOOKUPS,
                    ));
                }
            },
        );
        let placements: Vec<_> = clusters.iter().map(Cluster::placement).collect();
        self.time(
            "metrics.fault_tolerance.greedy",
            Unit::Ms,
            false,
            25,
            || (),
            |()| {
                for _ in 0..5 {
                    for p in &placements {
                        std::hint::black_box(fault_tolerance::greedy_tolerance(
                            p,
                            crate::simload::T,
                        ));
                    }
                }
            },
        );
        self.time(
            "metrics.coverage.measured",
            Unit::Us,
            false,
            250,
            || (),
            |()| {
                for _ in 0..50 {
                    for p in &placements {
                        std::hint::black_box(coverage::measured(p));
                    }
                }
            },
        );
        self.time(
            "metrics.storage.measured",
            Unit::Us,
            false,
            5_000,
            || (),
            |()| {
                for _ in 0..1_000 {
                    for p in &placements {
                        std::hint::black_box(storage::measured(std::hint::black_box(p)));
                    }
                }
            },
        );
    }

    fn telemetry_layers(&mut self) {
        const CALLS: u32 = 2_000;
        let tel = Telemetry::install();
        let histogram = Histogram::new();
        let counter = Counter::new();
        let topk = TopK::new(64);
        let keyed = KeyedCounterMap::new();
        // 1,000 keys through a 64-slot sketch, as in `observed-lookup`.
        let keys: Vec<String> = (0..1_000).map(key_name).collect();
        let composites: Vec<Vec<u8>> = (0..CALLS as u64)
            .map(|i| key_entry(keys[(i % 1_000) as usize].as_bytes(), &entry_bytes(0, i % 100)))
            .collect();

        let observe = |thread: usize| {
            for i in 0..CALLS as u64 {
                histogram.observe(i * 7 + thread as u64);
            }
        };
        let inc = |_thread: usize| {
            for _ in 0..CALLS {
                counter.inc();
            }
        };
        let offer = |thread: usize| {
            for i in 0..CALLS as usize {
                topk.offer(keys[(i * 7 + thread * 500) % 1_000].as_bytes());
            }
        };
        let keyed_inc = |thread: usize| {
            for i in 0..CALLS as usize {
                keyed.inc(&composites[(i + thread * 1_000) % CALLS as usize]);
            }
        };
        let span_off = |thread: usize| {
            for i in 0..u64::from(CALLS) {
                let mut span = Span::enter_with_id(Level::Trace, module_path!(), "probe_sample", i);
                span.field("server", thread);
            }
        };

        self.time("telemetry.histogram.observe", Unit::Ns, false, CALLS, || (), |()| observe(0));
        self.time("telemetry.counter.inc", Unit::Ns, false, CALLS, || (), |()| inc(0));
        self.time("telemetry.topk.offer", Unit::Ns, true, CALLS, || (), |()| offer(0));
        self.time("telemetry.keyed.inc", Unit::Ns, true, CALLS, || (), |()| keyed_inc(0));
        self.time("telemetry.trace.span_off", Unit::Ns, true, CALLS, || (), |()| span_off(0));
        self.time_2t(
            "telemetry.histogram.observe",
            "telemetry.histogram.observe_2t",
            CALLS,
            observe,
        );
        self.time_2t("telemetry.counter.inc", "telemetry.counter.inc_2t", CALLS, inc);
        self.time_2t("telemetry.topk.offer", "telemetry.topk.offer_2t", CALLS, offer);
        self.time_2t("telemetry.keyed.inc", "telemetry.keyed.inc_2t", CALLS, keyed_inc);
        self.time_2t("telemetry.trace.span_off", "telemetry.trace.span_off_2t", CALLS, span_off);

        let recorder = tel.recorder.clone();
        self.time(
            "telemetry.recorder.record",
            Unit::Ns,
            true,
            CALLS,
            || {
                (0..u64::from(CALLS))
                    .map(|i| SpanRecord {
                        req_id: Some(i),
                        name: "probe_sample".to_string(),
                        target: module_path!().to_string(),
                        start_us: i,
                        elapsed_us: 3,
                        fields: vec![("server".to_string(), "3".to_string())],
                    })
                    .collect::<Vec<_>>()
            },
            |records| {
                for r in records {
                    recorder.record(r);
                }
            },
        );
        let mutex = TimedMutex::new("benchmark.layer", 0u64);
        self.time(
            "telemetry.contention.lock_unlock",
            Unit::Ns,
            false,
            CALLS,
            || (),
            |()| {
                for _ in 0..CALLS {
                    *mutex.lock() += 1;
                }
            },
        );
        // A scrape of a set that has served probes for 1,000 keys.
        for (i, key) in keys.iter().enumerate() {
            let answer = [entry_bytes(i as u32, 0).to_vec()];
            tel.record_probe(i as u64, ServerId::new(0), key.as_bytes(), &answer);
        }
        self.time(
            "telemetry.snapshot.to_prometheus",
            Unit::Us,
            true,
            20,
            || (),
            |()| {
                for _ in 0..20 {
                    std::hint::black_box(tel.scrape());
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_counts_the_paper_s_update_messages() {
        // Full replication: 1 client request + n broadcast copies.
        let mut full = Group::new(crate::dirload::FULL, 0, 1);
        let v = entry_bytes(0, 500).to_vec();
        let handled = drive(&mut full.engines, ServerId::new(3), Message::AddReq { v: v.clone() });
        assert_eq!(handled, 1 + N_SERVERS as u32);
        assert!(full.engines.iter().all(|e| e.entries().contains(&v)));
        // Round-Robin-2: 1 client request + y point-to-point stores.
        let mut round = Group::new(ROUND, 0, 1);
        let handled = drive(&mut round.engines, ServerId::new(0), Message::AddReq { v: v.clone() });
        assert_eq!(handled, 3);
        assert_eq!(round.engines.iter().filter(|e| e.entries().contains(&v)).count(), 2);
    }
}
