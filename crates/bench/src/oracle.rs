//! Lookup-cost oracle: cross-checks runtime-measured probe counts
//! against the analytic §4.2 model.
//!
//! The same check runs in three places — the live-cluster integration
//! tests, the simulator ([`pls_sim::telemetry`]), and here as a reusable
//! harness for the experiment drivers: measure a probes-per-lookup
//! histogram, then compare its mean against
//! [`pls_metrics::lookup_cost::analytic`] where a closed form exists.

use pls_core::{Cluster, StrategySpec};
use pls_sim::telemetry::measure_lookup_cost;
use pls_telemetry::HistogramSnapshot;

/// Outcome of one lookup-cost cross-check.
#[derive(Debug, Clone)]
pub struct CostCheck {
    /// The placement strategy checked.
    pub spec: StrategySpec,
    /// Entries placed (`h`).
    pub h: usize,
    /// Servers (`n`).
    pub n: usize,
    /// Lookup target (`t`).
    pub t: usize,
    /// The measured probes-per-lookup histogram.
    pub measured: HistogramSnapshot,
    /// The closed-form expected cost, where one exists.
    pub analytic: Option<f64>,
}

impl CostCheck {
    /// Mean measured probes per lookup.
    pub fn measured_mean(&self) -> f64 {
        self.measured.mean()
    }

    /// `|measured − analytic| / analytic`; `None` without a closed form.
    pub fn relative_error(&self) -> Option<f64> {
        let analytic = self.analytic?;
        Some((self.measured_mean() - analytic).abs() / analytic)
    }

    /// Whether the measurement agrees with the model within `tolerance`
    /// (relative). Vacuously true when no closed form exists.
    pub fn holds_within(&self, tolerance: f64) -> bool {
        self.relative_error().is_none_or(|err| err <= tolerance)
    }
}

/// Builds a fresh `n`-server cluster under `spec`, places entries
/// `0..h`, measures the probes-per-lookup histogram over `lookups`
/// lookups of size `t`, and pairs it with the analytic expectation.
///
/// # Panics
///
/// Panics on an invalid spec for `n` servers, `lookups == 0`, or a
/// failing lookup (the cost model assumes operational servers).
pub fn verify_lookup_cost(
    spec: StrategySpec,
    n: usize,
    h: usize,
    t: usize,
    seed: u64,
    lookups: usize,
) -> CostCheck {
    let mut cluster: Cluster<u64> = Cluster::new(n, spec, seed).expect("valid spec");
    cluster.place((0..h as u64).collect()).expect("place succeeds");
    let measured = measure_lookup_cost(&mut cluster, t, lookups);
    let analytic = pls_metrics::lookup_cost::analytic(spec, h, n, t);
    CostCheck { spec, h, n, t, measured, analytic }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_strategies_agree_exactly() {
        for (spec, t) in [
            (StrategySpec::full_replication(), 35),
            (StrategySpec::fixed(40), 35),
            (StrategySpec::round_robin(2), 25),
            (StrategySpec::round_robin(2), 40),
        ] {
            let check = verify_lookup_cost(spec, 10, 100, t, 7, 100);
            assert!(check.analytic.is_some(), "{spec}: expected a closed form");
            assert!(
                check.holds_within(1e-9),
                "{spec} t={t}: measured {} vs analytic {:?}",
                check.measured_mean(),
                check.analytic
            );
        }
    }

    #[test]
    fn random_server_has_no_closed_form_but_plausible_cost() {
        let check = verify_lookup_cost(StrategySpec::random_server(20), 10, 100, 35, 8, 200);
        assert!(check.analytic.is_none());
        assert!(check.holds_within(0.0), "vacuously true without a closed form");
        // Merging ~20-entry answers to reach 35 distinct takes at least
        // 2 and at most all 10 servers.
        let mean = check.measured_mean();
        assert!((2.0..=10.0).contains(&mean), "cost {mean}");
    }

    #[test]
    fn fixed_beyond_x_is_undefined() {
        let check = verify_lookup_cost(StrategySpec::fixed(20), 10, 100, 25, 9, 50);
        assert!(check.analytic.is_none(), "t > x has no defined cost");
    }
}
