//! Ablations of design choices the paper makes implicitly.
//!
//! Two studies, each isolating one decision:
//!
//! 1. **Stride walk vs random probing for Round-Robin-y lookups**
//!    ([`stride_vs_random`]). The paper's Round-y client walks
//!    `s, s+y, s+2y, …` so consecutive contacts share no entries. The
//!    ablation replays the same placements with a naive shuffled-probe
//!    client (the RandomServer/Hash procedure) and compares the average
//!    number of servers contacted — quantifying how much of Round-y's
//!    lookup-cost advantage comes from the deterministic order rather
//!    than the placement itself.
//!
//! 2. **Adaptive vs fixed `y` for Hash-y** ([`adaptive_vs_fixed_hash`]).
//!    §6.4 picks `y = ceil(t·n/h)` per entry count; the ablation compares
//!    that against a fixed `y` on both axes of the trade-off: update
//!    messages (more copies = more fan-out) and lookup cost (fewer
//!    copies = more probing).

use pls_core::{Cluster, DetRng, Entry, FailureSet, LookupPlan, Placement, StrategySpec};
use pls_metrics::stats::Accumulator;
use pls_metrics::{lookup_cost, Summary};

use super::fig14::adaptive_hash_y;
use super::placed_with_budget;
use crate::workload::{LifetimeKind, WorkloadConfig};
use crate::Simulation;

/// Simulates the shuffled-probe client procedure (the RandomServer/Hash
/// lookup of §3.3) against an arbitrary placement, returning the number
/// of servers contacted. Server behaviour is the standard "t random
/// entries of what I store".
pub fn random_probe_cost<V: Entry>(placement: &Placement<V>, t: usize, rng: &mut DetRng) -> usize {
    let nobody_down = FailureSet::new(placement.n());
    let mut plan = LookupPlan::shuffled(t, &nobody_down, rng);
    while let Some(s) = plan.next(rng) {
        plan.answered(s, rng.subset(placement.server_entries(s), t));
    }
    plan.contacted().len()
}

/// Parameters for the stride-vs-random ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct StrideParams {
    /// Number of servers.
    pub n: usize,
    /// Number of entries.
    pub h: usize,
    /// Copies per entry (Round-Robin-y).
    pub y: usize,
    /// Target answer sizes to sweep.
    pub targets: Vec<usize>,
    /// Lookups per data point.
    pub lookups: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl StrideParams {
    /// The Figure 4 system shape.
    pub fn quick() -> Self {
        StrideParams {
            n: 10,
            h: 100,
            y: 2,
            targets: (10..=50).step_by(5).collect(),
            lookups: 2000,
            seed: 0xAB1A_0001,
        }
    }
}

impl Default for StrideParams {
    fn default() -> Self {
        Self::quick()
    }
}

/// One row of the stride-vs-random ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct StrideRow {
    /// Target answer size.
    pub t: usize,
    /// Avg servers contacted by the paper's stride walk.
    pub stride: f64,
    /// Avg servers contacted by naive shuffled probing on the *same*
    /// placement.
    pub random: f64,
}

/// Runs the stride-vs-random ablation.
pub fn stride_vs_random(params: &StrideParams) -> Vec<StrideRow> {
    let mut cluster = Cluster::new(params.n, StrategySpec::round_robin(params.y), params.seed)
        .expect("valid Round-y spec");
    cluster.place((0..params.h as u64).collect()).expect("no failures");
    let placement = cluster.placement();
    let mut rng = DetRng::seed_from(params.seed ^ 0xFACE);
    params
        .targets
        .iter()
        .map(|&t| {
            let stride = lookup_cost::measure(&mut cluster, t, params.lookups);
            let mut acc = Accumulator::new();
            for _ in 0..params.lookups {
                acc.push(random_probe_cost(&placement, t, &mut rng) as f64);
            }
            StrideRow { t, stride, random: acc.mean() }
        })
        .collect()
}

/// Parameters for the adaptive-vs-fixed Hash-y ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HashYParams {
    /// Number of servers.
    pub n: usize,
    /// Target answer size.
    pub t: usize,
    /// The fixed `y` to compare the adaptive rule against.
    pub fixed_y: usize,
    /// Entry counts to sweep.
    pub entry_counts: Vec<usize>,
    /// Updates per run (message-cost axis).
    pub updates: usize,
    /// Lookups per run (lookup-cost axis).
    pub lookups: usize,
    /// Runs per data point.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl HashYParams {
    /// The Figure 14 system shape with a fixed y = 2 baseline.
    pub fn quick() -> Self {
        HashYParams {
            n: 10,
            t: 40,
            fixed_y: 2,
            entry_counts: vec![100, 150, 200, 300, 400],
            updates: 2000,
            lookups: 400,
            runs: 4,
            seed: 0xAB1A_0002,
        }
    }
}

impl Default for HashYParams {
    fn default() -> Self {
        Self::quick()
    }
}

/// One row of the adaptive-vs-fixed Hash-y ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HashYRow {
    /// Steady-state entry count.
    pub h: usize,
    /// The adaptive `y` at this `h`.
    pub adaptive_y: usize,
    /// Update messages with adaptive `y`.
    pub adaptive_msgs: Summary,
    /// Update messages with the fixed `y`.
    pub fixed_msgs: Summary,
    /// Lookup cost with adaptive `y`.
    pub adaptive_lookup: Summary,
    /// Lookup cost with the fixed `y`.
    pub fixed_lookup: Summary,
}

fn measure_hash(
    y: usize,
    params: &HashYParams,
    h: usize,
    seed: u64,
) -> (f64 /* msgs */, f64 /* lookup cost */) {
    let cluster = Cluster::new(params.n, StrategySpec::hash(y), seed).expect("valid Hash-y spec");
    let workload = WorkloadConfig {
        arrival_mean: 10.0,
        steady_h: h,
        lifetime: LifetimeKind::Exponential,
        updates: params.updates,
        seed: seed ^ 0x5eed,
    }
    .generate();
    let mut sim = Simulation::new(cluster, workload).expect("no failures");
    sim.cluster_mut().reset_counter();
    sim.run_all().expect("no failures");
    let msgs = sim.cluster().counter().update_messages() as f64;
    let cost = lookup_cost::measure(sim.cluster_mut(), params.t, params.lookups);
    (msgs, cost)
}

/// Runs the adaptive-vs-fixed Hash-y ablation.
pub fn adaptive_vs_fixed_hash(params: &HashYParams) -> Vec<HashYRow> {
    params
        .entry_counts
        .iter()
        .map(|&h| {
            let ay = adaptive_hash_y(params.t, params.n, h);
            let mut a_msgs = Accumulator::new();
            let mut f_msgs = Accumulator::new();
            let mut a_cost = Accumulator::new();
            let mut f_cost = Accumulator::new();
            for run in 0..params.runs {
                let seed = params.seed.wrapping_add((h as u64) << 16).wrapping_add(run as u64);
                let (m, c) = measure_hash(ay, params, h, seed);
                a_msgs.push(m);
                a_cost.push(c);
                let (m, c) = measure_hash(params.fixed_y, params, h, seed ^ 0xF00D);
                f_msgs.push(m);
                f_cost.push(c);
            }
            HashYRow {
                h,
                adaptive_y: ay,
                adaptive_msgs: a_msgs.summary(),
                fixed_msgs: f_msgs.summary(),
                adaptive_lookup: a_cost.summary(),
                fixed_lookup: f_cost.summary(),
            }
        })
        .collect()
}

/// Convenience: the random-probe ablation applied to a budgeted Round-y
/// placement (keeps the ablation comparable with the Figure 4 sweep).
pub fn round_robin_placement(n: usize, h: usize, budget: usize, seed: u64) -> Placement<u64> {
    placed_with_budget(pls_core::StrategyKind::RoundRobin, budget, h, n, seed)
        .expect("budget large enough")
        .placement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_never_worse_than_random_probing() {
        let rows = stride_vs_random(&StrideParams {
            targets: vec![20, 30, 40],
            lookups: 400,
            ..StrideParams::quick()
        });
        for row in rows {
            assert!(
                row.stride <= row.random + 0.05,
                "t={}: stride {} vs random {}",
                row.t,
                row.stride,
                row.random
            );
        }
    }

    #[test]
    fn random_probing_pays_at_step_boundaries() {
        // At t=35 an *adjacent* random pair of Round-2 servers shares 10
        // entries and covers only 30 < 35, forcing a third probe with
        // probability 2/9 — while the stride walk always finishes in
        // ceil(35/20) = 2. Expected random cost ≈ 2.22.
        let rows = stride_vs_random(&StrideParams {
            targets: vec![35],
            lookups: 800,
            ..StrideParams::quick()
        });
        let row = &rows[0];
        assert_eq!(row.stride, 2.0);
        assert!(row.random > row.stride + 0.1, "stride {} random {}", row.stride, row.random);
    }

    #[test]
    fn adaptive_y_beats_fixed_on_at_least_one_axis_everywhere() {
        let rows = adaptive_vs_fixed_hash(&HashYParams {
            entry_counts: vec![100, 400],
            updates: 800,
            lookups: 150,
            runs: 2,
            ..HashYParams::quick()
        });
        for row in &rows {
            let cheaper_updates = row.adaptive_msgs.mean() <= row.fixed_msgs.mean() + 1.0;
            let cheaper_lookups = row.adaptive_lookup.mean() <= row.fixed_lookup.mean() + 0.05;
            assert!(
                cheaper_updates || cheaper_lookups,
                "h={}: adaptive dominated on both axes (msgs {} vs {}, lookup {} vs {})",
                row.h,
                row.adaptive_msgs.mean(),
                row.fixed_msgs.mean(),
                row.adaptive_lookup.mean(),
                row.fixed_lookup.mean()
            );
        }
        // At h=100 the adaptive rule uses y=4: more update messages but
        // strictly better lookups than y=2.
        let r100 = &rows[0];
        assert_eq!(r100.adaptive_y, 4);
        assert!(r100.adaptive_lookup.mean() < r100.fixed_lookup.mean());
    }
}
