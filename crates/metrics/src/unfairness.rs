//! Unfairness of lookup answers (§4.5, eq. 1; Figures 9 and 13).
//!
//! A "fair" strategy returns every entry with probability `t/h` on a
//! lookup. The unfairness of an *instance* (one concrete placement) is
//! the coefficient of variation of the per-entry retrieval probability:
//!
//! ```text
//! U_I = (h/t) · sqrt( Σ_j (p_I(j) − t/h)² / h )
//! ```
//!
//! and the unfairness of a *strategy* averages `U_I` over instances.
//! Retrieval probabilities are estimated by Monte-Carlo lookups, as in
//! the paper (10000 lookups per instance).

use std::collections::HashMap;

use pls_core::{Cluster, Entry};

/// Computes eq. (1) from per-entry retrieval probabilities.
///
/// `probs` must contain one probability per entry of the key's **full
/// universe** — entries that are never returned contribute `p = 0`, which
/// is exactly what punishes low-coverage placements.
///
/// # Panics
///
/// Panics if `probs` is empty or `t == 0`.
pub fn from_probabilities(probs: &[f64], t: usize) -> f64 {
    assert!(!probs.is_empty(), "need at least one entry");
    assert!(t > 0, "target answer size must be positive");
    let h = probs.len() as f64;
    let ideal = t as f64 / h;
    let var = probs.iter().map(|p| (p - ideal).powi(2)).sum::<f64>() / h;
    (h / t as f64) * var.sqrt()
}

/// The coefficient of variation of raw per-entry hit counts:
/// `std(counts) / mean(counts)` (population standard deviation).
/// Returns `0.0` for an empty slice or all-zero counts.
///
/// This is the **live** form of eq. (1): with `L` observed lookups,
/// entry `j`'s empirical retrieval probability is `p_j = c_j / L`, and
/// the common factor `1/L` cancels out of the ratio — so a running
/// server can report its unfairness from nothing but a counter per
/// entry, knowing neither `t` nor how many lookups it has seen. The two
/// forms agree exactly whenever every lookup returns exactly `t` of the
/// `h` counted entries (then `mean(p) = t/h`, the ideal eq. (1)
/// normalizes by); when lookups come up short — coverage shortfall —
/// eq. (1) normalizes by the *ideal* `t/h` while this normalizes by the
/// smaller observed mean, so the live value reads slightly higher.
/// Entries that are stored but never returned must be included as
/// zeros, exactly as [`from_probabilities`] demands.
pub fn cov_from_counts(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Estimates the unfairness of the cluster's **current instance** by
/// running `lookups` partial lookups of size `t` and counting how often
/// each entry of `universe` is returned.
///
/// `universe` is the full entry set of the key (size `h`). Entries the
/// lookups never return get probability 0.
///
/// # Panics
///
/// Panics if `universe` is empty, `t == 0`, `lookups == 0`, or a lookup
/// errors (the metric assumes operational servers).
pub fn measure_instance<V: Entry>(
    cluster: &mut Cluster<V>,
    universe: &[V],
    t: usize,
    lookups: usize,
) -> f64 {
    assert!(!universe.is_empty(), "need at least one entry");
    assert!(t > 0 && lookups > 0, "t and lookups must be positive");
    let mut counts: HashMap<V, u64> = HashMap::with_capacity(universe.len());
    for _ in 0..lookups {
        let r = cluster.partial_lookup(t).expect("unfairness assumes operational servers");
        // An entry is copied into the map the first time it is returned,
        // not to look it up every time.
        for v in r.entries() {
            match counts.get_mut(v) {
                Some(count) => *count += 1,
                None => {
                    counts.insert(v.clone(), 1);
                }
            }
        }
    }
    let probs: Vec<f64> = universe
        .iter()
        .map(|v| counts.get(v).copied().unwrap_or(0) as f64 / lookups as f64)
        .collect();
    from_probabilities(&probs, t)
}

/// The closed-form unfairness of Fixed-x (the only non-trivial strategy
/// with one): the first `min(x,h)` entries are returned with probability
/// `t/x` each, the rest never.
///
/// # Panics
///
/// Panics if `h`, `x` or `t` is zero, or `t > x` (the lookup is undefined
/// beyond `x`).
pub fn analytic_fixed(x: usize, h: usize, t: usize) -> f64 {
    assert!(h > 0 && x > 0 && t > 0, "h, x, t must be positive");
    assert!(t <= x, "Fixed-x lookups are undefined for t > x");
    let x = x.min(h);
    let probs: Vec<f64> = (0..h).map(|j| if j < x { t as f64 / x as f64 } else { 0.0 }).collect();
    from_probabilities(&probs, t)
}

/// The closed-form *expected* unfairness of RandomServer-x in the
/// single-probe regime (`t ≤ x`, so every lookup is answered by one
/// random server).
///
/// Derivation: entry `j` is held by `f_j ~ Binomial(n, x/h)` servers, and
/// a lookup returns it with probability `p_j = (f_j/n)·(t/x)` (pick a
/// holding server, then survive the server's `t`-of-`x` sampling). Then
/// `E[p_j] = t/h` (fair in expectation) and
/// `Var(p_j) = (t/x)²·(x/h)(1−x/h)/n`, so eq. (1) evaluates to
///
/// ```text
/// E[U] ≈ (h/t)·sqrt(Var(p_j)) = sqrt((h/x − 1)/n)
/// ```
///
/// — independent of `t`. (An approximation: it treats the empirical
/// variance across entries as the ensemble variance; Monte-Carlo
/// estimates also add sampling noise on top.)
///
/// # Panics
///
/// Panics if `x`, `h` or `n` is zero, or `x > h`.
pub fn analytic_random_server_single_probe(x: usize, h: usize, n: usize) -> f64 {
    assert!(x > 0 && h > 0 && n > 0, "x, h, n must be positive");
    assert!(x <= h, "a server cannot hold more than all entries");
    ((h as f64 / x as f64 - 1.0) / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_core::StrategySpec;

    #[test]
    fn paper_worked_example() {
        // 2 entries on 2 servers with Fixed-1, t=1: p = (1, 0) → U = 1.
        assert!((from_probabilities(&[1.0, 0.0], 1) - 1.0).abs() < 1e-12);
        // Perfectly fair: U = 0.
        assert_eq!(from_probabilities(&[0.5, 0.5], 1), 0.0);
    }

    #[test]
    fn fixed_20_of_100_has_unfairness_2() {
        // §6.3 quotes Fixed-x unfairness of 2 for x=20, h=100 — and it is
        // independent of t.
        for t in [5, 10, 20] {
            let u = analytic_fixed(20, 100, t);
            assert!((u - 2.0).abs() < 1e-9, "t={t}: {u}");
        }
    }

    #[test]
    fn measured_fixed_matches_analytic() {
        let mut c = pls_core::Cluster::new(10, StrategySpec::fixed(20), 5).unwrap();
        let universe: Vec<u64> = (0..100).collect();
        c.place(universe.clone()).unwrap();
        let u = measure_instance(&mut c, &universe, 15, 4000);
        let want = analytic_fixed(20, 100, 15);
        assert!((u - want).abs() < 0.05, "measured {u} vs analytic {want}");
    }

    #[test]
    fn full_replication_is_fair() {
        let mut c = pls_core::Cluster::new(10, StrategySpec::full_replication(), 6).unwrap();
        let universe: Vec<u64> = (0..100).collect();
        c.place(universe.clone()).unwrap();
        let u = measure_instance(&mut c, &universe, 35, 4000);
        // Only Monte-Carlo noise remains.
        assert!(u < 0.1, "full replication unfairness {u}");
    }

    #[test]
    fn round_robin_is_fair() {
        let mut c = pls_core::Cluster::new(10, StrategySpec::round_robin(2), 7).unwrap();
        let universe: Vec<u64> = (0..100).collect();
        c.place(universe.clone()).unwrap();
        let u = measure_instance(&mut c, &universe, 35, 4000);
        assert!(u < 0.1, "round robin unfairness {u}");
    }

    #[test]
    fn random_server_much_fairer_than_fixed() {
        // §4.5: Fixed-x behaves like RandomServer-x but much worse.
        // Under eq. (1) — which reproduces the paper's own worked numbers
        // (Fixed-1 → 1, Fixed-20 → 2, Fig. 13's 0.5–0.9 range) — the
        // measured gap is ~3× both in the single-probe regime (t ≤ x)
        // and the merging regime (t > x). (Fig. 9's much smaller
        // RandomServer values are inconsistent with the paper's own
        // coverage lower bound and Fig. 13; see EXPERIMENTS.md.)
        let universe: Vec<u64> = (0..100).collect();
        let mut rs = pls_core::Cluster::new(10, StrategySpec::random_server(20), 8).unwrap();
        rs.place(universe.clone()).unwrap();
        let u_fixed = analytic_fixed(20, 100, 15);
        let u_single = measure_instance(&mut rs, &universe, 15, 4000);
        assert!(
            u_single * 2.0 < u_fixed,
            "single-probe: RandomServer {u_single} vs Fixed {u_fixed}"
        );
        let u_merge = measure_instance(&mut rs, &universe, 35, 4000);
        assert!(u_merge * 3.0 < u_fixed, "merging: RandomServer {u_merge} vs Fixed {u_fixed}");
    }

    #[test]
    fn random_server_single_probe_matches_closed_form() {
        // x=20, h=100, n=10 → sqrt(4/10) ≈ 0.632. Measured instance
        // averages should land near it (above, due to Monte-Carlo noise
        // and coverage effects).
        let analytic = analytic_random_server_single_probe(20, 100, 10);
        assert!((analytic - 0.6325).abs() < 1e-3);
        let universe: Vec<u64> = (0..100).collect();
        let mut total = 0.0;
        let runs = 15;
        for seed in 0..runs {
            let mut c = pls_core::Cluster::new(10, StrategySpec::random_server(20), seed).unwrap();
            c.place(universe.clone()).unwrap();
            total += measure_instance(&mut c, &universe, 15, 3000);
        }
        let measured = total / runs as f64;
        assert!(
            (measured - analytic).abs() < 0.15,
            "measured {measured} vs closed form {analytic}"
        );
    }

    #[test]
    fn full_storage_is_perfectly_fair_in_closed_form() {
        assert_eq!(analytic_random_server_single_probe(100, 100, 10), 0.0);
    }

    #[test]
    fn never_returned_entries_raise_unfairness() {
        // Coverage loss imposes an unfairness floor (§4.5).
        let full = from_probabilities(&vec![0.35; 100], 35);
        let mut clipped = vec![0.35; 100];
        for p in clipped.iter_mut().take(11) {
            *p = 0.0;
        }
        let partial = from_probabilities(&clipped, 35);
        assert_eq!(full, 0.0);
        assert!(partial > 0.3, "coverage-limited unfairness {partial}");
    }

    #[test]
    #[should_panic(expected = "undefined for t > x")]
    fn analytic_fixed_rejects_oversized_t() {
        analytic_fixed(10, 100, 11);
    }

    #[test]
    fn cov_from_counts_edge_cases() {
        assert_eq!(cov_from_counts(&[]), 0.0);
        assert_eq!(cov_from_counts(&[0, 0, 0]), 0.0);
        assert_eq!(cov_from_counts(&[7, 7, 7, 7]), 0.0);
        // Two entries, one always hit: mean 0.5, std 0.5 → CoV 1.
        assert!((cov_from_counts(&[10, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cov_from_counts_is_scale_invariant() {
        let a = cov_from_counts(&[3, 1, 2, 6]);
        let b = cov_from_counts(&[300, 100, 200, 600]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn cov_from_counts_matches_eq1_when_lookups_return_exactly_t() {
        // Fixed-5 over h=15, t=3, 600 lookups: the first 5 entries are
        // each returned 360 times in expectation, the rest never. Use
        // the exact expectation so both forms are computed from the same
        // data: c_j = L·p_j with p = (t/x,…,0,…).
        let (x, h, t, lookups) = (5usize, 15usize, 3usize, 600u64);
        let per_hot = lookups * t as u64 / x as u64;
        let mut counts = vec![per_hot; x];
        counts.resize(h, 0);
        let live = cov_from_counts(&counts);
        let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / lookups as f64).collect();
        assert!((live - from_probabilities(&probs, t)).abs() < 1e-12);
        assert!((live - analytic_fixed(x, h, t)).abs() < 1e-12);
    }
}
