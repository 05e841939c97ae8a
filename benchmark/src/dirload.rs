//! The `Directory` workloads: seeded op generation, the timed pass, and
//! the untimed check pass against a harness-side model.
//!
//! System shape (every Directory workload): n = 10 servers, h = 100
//! entries per key, keys `song/%08d`, entries 27-byte `Vec<u8>` peer
//! addresses (the TCP deployment's types), and the paper's 200-entry
//! storage budget: Full / Fixed-20 / RandomServer-20 / Round-Robin-2 /
//! Hash-2.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use pls_core::directory::{Directory, StrategyAssignment};
use pls_core::{LookupResult, ServerId, StrategySpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spans::SpanBuffer;
use crate::stats::LatencyHistogram;

pub const N_SERVERS: usize = 10;
pub const H: usize = 100;
pub const ENTRY_LEN: usize = 27;

pub type Dir = Directory<String, Vec<u8>>;

/// The five strategies, indexed the same way everywhere in the harness.
pub const FULL: usize = 0;
pub const FIXED: usize = 1;
pub const RANDOM: usize = 2;
pub const ROUND: usize = 3;
pub const HASH: usize = 4;
pub const STRATEGY_NAMES: [&str; 5] = ["full", "fixed", "random", "round", "hash"];

pub fn strategy(kind: usize) -> StrategySpec {
    match kind {
        FULL => StrategySpec::full_replication(),
        FIXED => StrategySpec::fixed(20),
        RANDOM => StrategySpec::random_server(20),
        ROUND => StrategySpec::round_robin(2),
        HASH => StrategySpec::hash(2),
        _ => unreachable!("five strategies"),
    }
}

/// One Directory workload.
#[derive(Debug, Clone)]
pub struct DirSpec {
    pub name: &'static str,
    pub keys: usize,
    /// Key `i` is managed under `kinds[i % kinds.len()]`.
    pub kinds: &'static [usize],
    /// Zipf(1.0) key popularity instead of uniform.
    pub zipf: bool,
    pub ops_per_pass: usize,
    /// Updates per thousand ops; the rest are lookups.
    pub updates_per_mille: u32,
    /// Target answer size, and the one used on Fixed-20 keys (which can
    /// never return more than 20).
    pub t: usize,
    pub t_fixed: usize,
}

impl DirSpec {
    pub fn kind_of(&self, key: u32) -> usize {
        self.kinds[key as usize % self.kinds.len()]
    }

    fn target(&self, kind: usize) -> usize {
        if kind == FIXED {
            self.t_fixed
        } else {
            self.t
        }
    }
}

pub fn key_name(index: usize) -> String {
    format!("song/{index:08}")
}

/// Inverse of [`key_name`]; what the per-key strategy function runs on
/// every call the directory makes to it.
fn key_index(key: &str) -> usize {
    key.bytes().skip(5).fold(0usize, |acc, b| acc * 10 + usize::from(b.wrapping_sub(b'0')))
}

/// The peer address of entry `id` of key `key`:
/// `AAA.BBB.CCC.DDD:PPPPP/KKKKK`, unique per (key, id).
pub fn entry_bytes(key: u32, id: u64) -> [u8; ENTRY_LEN] {
    fn digits(out: &mut [u8], mut v: u64) {
        for slot in out.iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
    }
    let mut b = *b"000.000.000.000:00000/00000";
    let ip = (id as u32).to_be_bytes();
    for (i, octet) in ip.iter().enumerate() {
        digits(&mut b[i * 4..i * 4 + 3], u64::from(*octet));
    }
    digits(&mut b[16..21], (id >> 32) & 0xffff);
    digits(&mut b[22..27], u64::from(key) % 100_000);
    b
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Lookup,
    Add,
    Delete,
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub key: u32,
    pub kind: OpKind,
    pub t: u8,
    /// Entry id for updates; unused by lookups.
    pub entry: u64,
}

/// Seeded op source. It owns the harness's RNG (the shim's `SmallRng`,
/// not the repo's `DetRng`, so a change to the repo cannot change the
/// inputs) and the live entry ids per key, from which it derives valid
/// updates: `add` while a key holds at most h entries, else `delete` of
/// a uniformly random live entry.
pub struct OpGen {
    spec: DirSpec,
    key_base: usize,
    rng: SmallRng,
    /// Cumulative Zipf weights; key `i` has popularity rank `i`, so
    /// the strategy rotation gives every strategy the same share of the
    /// traffic whatever the seed.
    zipf_cdf: Vec<f64>,
    live: Vec<Vec<u64>>,
    next_id: Vec<u64>,
}

impl OpGen {
    /// `key_base` offsets the key names, so two generators (the two
    /// threads of `observed-lookup`) cover disjoint keys.
    pub fn new(spec: &DirSpec, seed: u64, key_base: usize) -> Self {
        let rng = SmallRng::seed_from_u64(seed ^ 0x6f70_5f67_656e); // "op_gen"
        let mut zipf_cdf = Vec::new();
        if spec.zipf {
            let mut acc = 0.0;
            zipf_cdf = (1..=spec.keys)
                .map(|rank| {
                    acc += 1.0 / rank as f64;
                    acc
                })
                .collect();
            let total = acc;
            zipf_cdf.iter_mut().for_each(|c| *c /= total);
        }
        OpGen {
            spec: spec.clone(),
            key_base,
            rng,
            zipf_cdf,
            live: (0..spec.keys).map(|_| (0..H as u64).collect()).collect(),
            next_id: vec![H as u64; spec.keys],
        }
    }

    pub fn key_names(&self) -> Vec<String> {
        (0..self.spec.keys).map(|i| key_name(self.key_base + i)).collect()
    }

    pub fn initial_entries(key: u32) -> Vec<Vec<u8>> {
        (0..H as u64).map(|id| entry_bytes(key, id).to_vec()).collect()
    }

    fn pick_key(&mut self) -> u32 {
        if self.spec.zipf {
            let u: f64 = self.rng.gen();
            self.zipf_cdf.partition_point(|&c| c < u).min(self.spec.keys - 1) as u32
        } else {
            self.rng.gen_range(0..self.spec.keys as u32)
        }
    }

    /// Live entries across all keys, by the generator's model.
    pub fn live_total(&self) -> usize {
        self.live.iter().map(Vec::len).sum()
    }

    /// Replaces `ops` with the next `count` ops of the stream.
    pub fn fill(&mut self, ops: &mut Vec<Op>, count: usize) {
        ops.clear();
        for _ in 0..count {
            let key = self.pick_key();
            let is_update = self.spec.updates_per_mille > 0
                && self.rng.gen_range(0..1000u32) < self.spec.updates_per_mille;
            let op = if !is_update {
                let t = self.spec.target(self.spec.kind_of(key)) as u8;
                Op { key, kind: OpKind::Lookup, t, entry: 0 }
            } else {
                let live = &mut self.live[key as usize];
                if live.len() <= H {
                    let id = self.next_id[key as usize];
                    self.next_id[key as usize] += 1;
                    live.push(id);
                    Op { key, kind: OpKind::Add, t: 0, entry: id }
                } else {
                    let victim = self.rng.gen_range(0..live.len());
                    let id = live.swap_remove(victim);
                    Op { key, kind: OpKind::Delete, t: 0, entry: id }
                }
            };
            ops.push(op);
        }
    }
}

/// Builds the directory and places every key: what `setup_s` times.
pub fn build(spec: &DirSpec, seed: u64, keys: &[String], key_base: usize) -> Dir {
    let kinds = spec.kinds;
    let assignment = StrategyAssignment::PerKey(Box::new(move |key: &String| {
        strategy(kinds[(key_index(key) - key_base) % kinds.len()])
    }));
    let mut dir = Directory::new(N_SERVERS, assignment, seed).expect("ten servers");
    for (i, key) in keys.iter().enumerate() {
        dir.place(key.clone(), OpGen::initial_entries(i as u32)).expect("all servers are up");
    }
    dir
}

/// What a pass counted, by strategy.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub lookups: [u64; 5],
    pub probes: [u64; 5],
    pub adds: [u64; 5],
    pub deletes: [u64; 5],
    /// Server messages processed for updates (`update_load` growth).
    pub update_msgs: u64,
    /// Ops that returned `Err`, and lookups that came back with fewer
    /// than `t` entries.
    pub errors: u64,
    pub short: u64,
    /// Traced passes only: entries the probed servers sent, and entries
    /// asked for, over lookups that merged more than one answer.
    pub fetched: u64,
    pub wanted: u64,
}

impl Counts {
    pub fn total_lookups(&self) -> u64 {
        self.lookups.iter().sum()
    }
    pub fn total_probes(&self) -> u64 {
        self.probes.iter().sum()
    }
    pub fn total_updates(&self) -> u64 {
        self.adds.iter().sum::<u64>() + self.deletes.iter().sum::<u64>()
    }
    pub fn ops(&self) -> u64 {
        self.total_lookups() + self.total_updates()
    }
    pub fn failed(&self) -> u64 {
        self.errors + self.short
    }
    pub fn merge(&mut self, o: &Counts) {
        for k in 0..5 {
            self.lookups[k] += o.lookups[k];
            self.probes[k] += o.probes[k];
            self.adds[k] += o.adds[k];
            self.deletes[k] += o.deletes[k];
        }
        self.update_msgs += o.update_msgs;
        self.errors += o.errors;
        self.short += o.short;
        self.fetched += o.fetched;
        self.wanted += o.wanted;
    }
}

/// Per-call latencies, pooled over the passes they are recorded in.
#[derive(Clone)]
pub struct Latencies {
    pub lookup: LatencyHistogram,
    pub update: LatencyHistogram,
}

impl Latencies {
    pub fn new() -> Self {
        Latencies { lookup: LatencyHistogram::new(), update: LatencyHistogram::new() }
    }
    pub fn all(&self) -> LatencyHistogram {
        let mut h = self.lookup.clone();
        h.merge(&self.update);
        h
    }
}

/// Everything passes record: latencies and counts.
#[derive(Clone)]
pub struct Tally {
    pub lat: Latencies,
    pub counts: Counts,
}

impl Tally {
    pub fn new() -> Self {
        Tally { lat: Latencies::new(), counts: Counts::default() }
    }
    pub fn merge(&mut self, o: &Tally) {
        self.lat.lookup.merge(&o.lat.lookup);
        self.lat.update.merge(&o.lat.update);
        self.counts.merge(&o.counts);
    }
}

/// Where a traced pass puts its op spans.
pub struct Tracer<'a> {
    pub buffer: &'a mut SpanBuffer,
    pub parent: u32,
}

/// Runs `ops` against `dir`, one after the other (a closed loop of one
/// client: callers of an in-process library are synchronous). Returns
/// the pass's wall time.
///
/// `observe` runs after every successful lookup, inside the op's timed
/// interval; `observed-lookup` replays the server's telemetry there, the
/// other workloads pass a no-op that compiles away.
pub fn run_pass<F>(
    dir: &mut Dir,
    keys: &[String],
    spec: &DirSpec,
    ops: &[Op],
    tally: &mut Tally,
    mut tracer: Option<Tracer<'_>>,
    mut observe: F,
) -> Duration
where
    F: FnMut(&Dir, &String, usize, &LookupResult<Vec<u8>>),
{
    let Tally { lat, counts } = tally;
    let load_before: u64 = dir.update_load().iter().sum();
    let mut scratch: Vec<u8> = Vec::with_capacity(ENTRY_LEN);
    let pass_start = Instant::now();
    for op in ops {
        let key = &keys[op.key as usize];
        let kind = spec.kind_of(op.key);
        match op.kind {
            OpKind::Lookup => {
                let t = usize::from(op.t);
                let start = Instant::now();
                let result = dir.partial_lookup(key, t);
                if let Ok(r) = &result {
                    observe(dir, key, t, r);
                }
                let end = Instant::now();
                lat.lookup.record((end - start).as_nanos() as u64);
                counts.lookups[kind] += 1;
                match result {
                    Ok(r) => {
                        counts.probes[kind] += r.servers_contacted() as u64;
                        if !r.is_satisfied(t) {
                            counts.short += 1;
                        }
                        if let Some(tr) = tracer.as_mut() {
                            tr.buffer.op(tr.parent, "directory.partial_lookup", start, end);
                            if r.servers_contacted() > 1 {
                                counts.wanted += t as u64;
                                counts.fetched += r
                                    .contacted()
                                    .iter()
                                    .map(|&s| dir.server_entries(key, s).len().min(t) as u64)
                                    .sum::<u64>();
                            }
                        }
                    }
                    Err(_) => counts.errors += 1,
                }
            }
            OpKind::Add => {
                let entry = entry_bytes(op.key, op.entry).to_vec();
                let start = Instant::now();
                let result = dir.add(key, entry);
                let end = Instant::now();
                lat.update.record((end - start).as_nanos() as u64);
                counts.adds[kind] += 1;
                counts.errors += u64::from(result.is_err());
                if let Some(tr) = tracer.as_mut() {
                    tr.buffer.op(tr.parent, "directory.add", start, end);
                }
            }
            OpKind::Delete => {
                scratch.clear();
                scratch.extend_from_slice(&entry_bytes(op.key, op.entry));
                let start = Instant::now();
                let result = dir.delete(key, &scratch);
                let end = Instant::now();
                lat.update.record((end - start).as_nanos() as u64);
                counts.deletes[kind] += 1;
                counts.errors += u64::from(result.is_err());
                if let Some(tr) = tracer.as_mut() {
                    tr.buffer.op(tr.parent, "directory.delete", start, end);
                }
            }
        }
    }
    let elapsed = pass_start.elapsed();
    counts.update_msgs += dir.update_load().iter().sum::<u64>() - load_before;
    elapsed
}

/// Copies stored across all servers for these keys.
pub fn copies_stored(dir: &Dir, keys: &[String]) -> usize {
    keys.iter()
        .map(|k| {
            (0..N_SERVERS as u32)
                .map(|s| dir.server_entries(k, ServerId::new(s)).len())
                .sum::<usize>()
        })
        .sum()
}

/// Result of the check pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckReport {
    pub attempted: u64,
    pub violations: u64,
}

/// Replays `ops` on `dir` against a per-key live set built from the ops
/// themselves (not from the generator's bookkeeping). Every lookup must
/// return distinct entries, all live for that key, and at least
/// `min(t, reachable)` of them, where `reachable` is what the contacted
/// server holds (single-probe strategies) or what all servers hold
/// together (merging strategies). At the end no server may hold a dead
/// entry, Full keys hold every live entry on every server, and
/// Round-Robin-2 keys hold exactly two copies of every live entry.
pub fn check(dir: &mut Dir, keys: &[String], spec: &DirSpec, ops: &[Op]) -> CheckReport {
    let mut model: Vec<HashSet<Vec<u8>>> =
        (0..keys.len()).map(|i| OpGen::initial_entries(i as u32).into_iter().collect()).collect();
    let mut report = CheckReport::default();
    for op in ops {
        let key = &keys[op.key as usize];
        let kind = spec.kind_of(op.key);
        report.attempted += 1;
        match op.kind {
            OpKind::Lookup => {
                let t = usize::from(op.t);
                let Ok(r) = dir.partial_lookup(key, t) else {
                    report.violations += 1;
                    continue;
                };
                let live = &model[op.key as usize];
                let mut seen: HashSet<&[u8]> = HashSet::new();
                let distinct_and_live =
                    r.entries().iter().all(|v| live.contains(v) && seen.insert(v.as_slice()));
                // `reachable` only matters for an answer shorter than t.
                let reachable = if r.is_satisfied(t) {
                    t
                } else if kind == FULL || kind == FIXED {
                    r.contacted().first().map_or(0, |&s| dir.server_entries(key, s).len())
                } else {
                    let mut union: HashSet<&[u8]> = HashSet::new();
                    for s in 0..N_SERVERS as u32 {
                        union.extend(
                            dir.server_entries(key, ServerId::new(s)).iter().map(Vec::as_slice),
                        );
                    }
                    union.len()
                };
                if !distinct_and_live || r.entries().len() < t.min(reachable) {
                    report.violations += 1;
                }
            }
            OpKind::Add => {
                let entry = entry_bytes(op.key, op.entry).to_vec();
                model[op.key as usize].insert(entry.clone());
                report.violations += u64::from(dir.add(key, entry).is_err());
            }
            OpKind::Delete => {
                let entry = entry_bytes(op.key, op.entry).to_vec();
                model[op.key as usize].remove(&entry);
                report.violations += u64::from(dir.delete(key, &entry).is_err());
            }
        }
    }
    for (i, key) in keys.iter().enumerate() {
        let live = &model[i];
        let kind = spec.kind_of(i as u32);
        let mut copies = 0;
        let mut dead = false;
        for s in 0..N_SERVERS as u32 {
            let stored = dir.server_entries(key, ServerId::new(s));
            copies += stored.len();
            dead |= stored.iter().any(|v| !live.contains(v));
            if kind == FULL && stored.len() != live.len() {
                dead = true;
            }
        }
        if dead || (kind == ROUND && copies != 2 * live.len()) {
            report.violations += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: DirSpec = DirSpec {
        name: "test",
        keys: 20,
        kinds: &[FULL, FIXED, RANDOM, ROUND, HASH],
        zipf: true,
        ops_per_pass: 2_000,
        updates_per_mille: 300,
        t: 35,
        t_fixed: 15,
    };

    #[test]
    fn entries_are_unique_fixed_width_addresses() {
        assert_eq!(&entry_bytes(7, 0), b"000.000.000.000:00000/00007");
        assert_eq!(&entry_bytes(12_345, (3 << 32) | 0x0102_03ff), b"001.002.003.255:00003/12345");
        let mut seen = HashSet::new();
        for key in 0..3 {
            for id in 0..1_000 {
                assert!(seen.insert(entry_bytes(key, id)));
            }
        }
    }

    #[test]
    fn key_names_roundtrip() {
        for i in [0, 7, 999, 12_345_678] {
            assert_eq!(key_index(&key_name(i)), i);
        }
    }

    #[test]
    fn same_seed_same_ops_and_other_seed_other_ops() {
        let fill = |seed| {
            let mut g = OpGen::new(&SPEC, seed, 0);
            let mut ops = Vec::new();
            g.fill(&mut ops, 500);
            ops.iter().map(|o| (o.key, o.kind as u8, o.t, o.entry)).collect::<Vec<_>>()
        };
        assert_eq!(fill(42), fill(42));
        assert_ne!(fill(42), fill(43));
    }

    #[test]
    fn updates_keep_every_key_at_h_or_h_plus_one() {
        let mut g = OpGen::new(&SPEC, 1, 0);
        let mut ops = Vec::new();
        g.fill(&mut ops, 5_000);
        assert!(g.live.iter().all(|l| l.len() == H || l.len() == H + 1));
        assert!(ops.iter().any(|o| o.kind == OpKind::Delete));
        assert!(ops.iter().any(|o| o.kind == OpKind::Lookup));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut g = OpGen::new(&SPEC, 2, 0);
        let (hot, cold) = (0, SPEC.keys as u32 - 1);
        let mut ops = Vec::new();
        g.fill(&mut ops, 20_000);
        let count = |k| ops.iter().filter(|o| o.key == k).count();
        assert!(count(hot) > 5 * count(cold), "{} vs {}", count(hot), count(cold));
    }

    #[test]
    fn a_pass_counts_what_it_ran_and_the_check_accepts_it() {
        let mut g = OpGen::new(&SPEC, 3, 0);
        let keys = g.key_names();
        let mut ops = Vec::new();
        g.fill(&mut ops, SPEC.ops_per_pass);

        let mut dir = build(&SPEC, 3, &keys, 0);
        let mut tally = Tally::new();
        run_pass(&mut dir, &keys, &SPEC, &ops, &mut tally, None, |_, _, _, _| {});
        let Tally { lat, counts } = tally;
        assert_eq!(counts.ops(), SPEC.ops_per_pass as u64);
        assert_eq!(counts.failed(), 0);
        assert_eq!(lat.lookup.count(), counts.total_lookups());
        assert_eq!(lat.update.count(), counts.total_updates());
        assert!(counts.total_probes() >= counts.total_lookups());
        assert!(counts.update_msgs >= counts.total_updates());

        let mut fresh = build(&SPEC, 3, &keys, 0);
        let report = check(&mut fresh, &keys, &SPEC, &ops);
        assert_eq!(report.attempted, SPEC.ops_per_pass as u64);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn the_check_catches_a_dead_entry_left_on_a_server() {
        // With server 0 down, a Full delete reaches only the others:
        // server 0 keeps an entry the model says is dead.
        let spec = DirSpec { updates_per_mille: 0, kinds: &[FULL], t: 50, ..SPEC };
        let keys = OpGen::new(&spec, 4, 0).key_names();
        let ops = [
            Op { key: 0, kind: OpKind::Delete, t: 0, entry: 5 },
            Op { key: 0, kind: OpKind::Lookup, t: 50, entry: 0 },
        ];
        let mut healthy = build(&spec, 4, &keys, 0);
        assert_eq!(check(&mut healthy, &keys, &spec, &ops).violations, 0);
        let mut degraded = build(&spec, 4, &keys, 0);
        degraded.fail_server(ServerId::new(0));
        assert_eq!(check(&mut degraded, &keys, &spec, &ops).violations, 1);
    }
}
