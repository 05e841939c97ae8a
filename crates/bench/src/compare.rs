//! The `pls-bench compare` regression gate as a library: artifact
//! loading, metric extraction, and the per-metric verdicts, factored
//! out of the binary so the gate's arithmetic is unit-testable — a CI
//! gate nobody has ever seen fire is a gate that may not work.
//!
//! Both artifacts must carry the current schema tag
//! ([`BENCH_SCHEMA`]). Metrics present in only one artifact are
//! reported as `n/a` and never counted as regressions.

use crate::output::BENCH_SCHEMA;
use pls_telemetry::json::{parse, Value};

/// One compared metric: where it lives in `results`, whether bigger is
/// better, and how it prints.
struct Metric {
    label: &'static str,
    /// Path under `results`, e.g. `["latency_us", "p50"]`.
    path: &'static [&'static str],
    /// `true` when a larger value is an improvement (throughput);
    /// `false` when it is a regression (latency, probe counts).
    higher_is_better: bool,
}

const METRICS: [Metric; 7] = [
    Metric { label: "latency p50 (us)", path: &["latency_us", "p50"], higher_is_better: false },
    Metric { label: "latency p99 (us)", path: &["latency_us", "p99"], higher_is_better: false },
    Metric { label: "throughput (rps)", path: &["throughput_rps"], higher_is_better: true },
    Metric {
        label: "probes/lookup (client)",
        path: &["probes", "per_lookup_mean"],
        higher_is_better: false,
    },
    Metric {
        label: "probes/lookup (servers)",
        path: &["probes", "per_lookup_from_servers"],
        higher_is_better: false,
    },
    Metric {
        label: "engines lock wait p99 (us)",
        path: &["runtime", "locks", "engines", "wait_us", "p99"],
        higher_is_better: false,
    },
    Metric {
        label: "allocs/lookup (servers)",
        path: &["runtime", "alloc", "allocs_per_lookup"],
        higher_is_better: false,
    },
];

/// One row of the comparison table.
#[derive(Debug)]
pub struct MetricRow {
    /// Human label, e.g. `latency p99 (us)`.
    pub label: &'static str,
    /// Baseline reading; `None` when the artifact lacks the metric.
    pub baseline: Option<f64>,
    /// Current reading; `None` when the artifact lacks the metric.
    pub current: Option<f64>,
    /// Signed percentage change as shown (`+` = current is larger);
    /// 0 when either side is missing.
    pub shown_pct: f64,
    /// Whether this row regressed beyond the threshold (in the
    /// metric's "worse" direction).
    pub regressed: bool,
}

/// The verdict over every metric, plus the rendered table.
#[derive(Debug)]
pub struct CompareOutcome {
    /// One row per known metric, in declaration order.
    pub rows: Vec<MetricRow>,
    /// Rows present in both artifacts.
    pub compared: usize,
    /// Rows regressed beyond the threshold.
    pub regressions: usize,
    /// The human-readable table (header + rows + verdict line).
    pub report: String,
}

/// Loads an artifact, checks its schema tag, and returns the document.
pub fn load_artifact(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: malformed JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or(format!("{path}: missing `schema` field"))?;
    if schema != BENCH_SCHEMA {
        return Err(format!("{path}: unsupported schema `{schema}` (expected {BENCH_SCHEMA})"));
    }
    Ok(doc)
}

/// Walks `results.<path...>` to a number.
fn lookup(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut v = doc.get("results")?;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

/// `bench-name @ git-rev` for an artifact's provenance line.
pub fn describe(doc: &Value) -> String {
    let bench = doc.get("bench").and_then(Value::as_str).unwrap_or("?");
    let rev = doc.get("git_rev").and_then(Value::as_str).unwrap_or("?");
    format!("{bench} @ {}", &rev[..rev.len().min(12)])
}

/// Compares two loaded artifacts: every known metric found in both
/// documents gets a verdict against `max_regress_pct` (in the metric's
/// "worse" direction). Errors when *no* metric is comparable — that
/// means the artifacts don't overlap and the gate would silently pass.
pub fn compare_docs(
    baseline: &Value,
    current: &Value,
    max_regress_pct: f64,
) -> Result<CompareOutcome, String> {
    use std::fmt::Write as _;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<26} {:>12} {:>12} {:>9}  verdict (threshold {max_regress_pct}%)",
        "metric", "baseline", "current", "delta"
    );
    let mut rows = Vec::with_capacity(METRICS.len());
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for m in &METRICS {
        let b = lookup(baseline, m.path);
        let c = lookup(current, m.path);
        let (Some(b), Some(c)) = (b, c) else {
            let _ = writeln!(report, "{:<26} {:>12} {:>12} {:>9}  n/a", m.label, "-", "-", "-");
            rows.push(MetricRow {
                label: m.label,
                baseline: b,
                current: c,
                shown_pct: 0.0,
                regressed: false,
            });
            continue;
        };
        compared += 1;
        // Regression percentage in the "worse" direction; guarded for
        // zero baselines (a 0 -> 0.1 move is noise, not infinity).
        let delta_pct = if b.abs() < f64::EPSILON {
            0.0
        } else if m.higher_is_better {
            (b - c) / b * 100.0
        } else {
            (c - b) / b * 100.0
        };
        let regressed = delta_pct > max_regress_pct;
        if regressed {
            regressions += 1;
        }
        let shown_pct = (c - b) / if b.abs() < f64::EPSILON { 1.0 } else { b } * 100.0;
        let _ = writeln!(
            report,
            "{:<26} {:>12.2} {:>12.2} {:>+8.1}%  {}",
            m.label,
            b,
            c,
            shown_pct,
            if regressed { "REGRESSED" } else { "ok" },
        );
        rows.push(MetricRow {
            label: m.label,
            baseline: Some(b),
            current: Some(c),
            shown_pct,
            regressed,
        });
    }
    if compared == 0 {
        return Err("no comparable metrics found in both artifacts".to_string());
    }
    if regressions > 0 {
        let _ = writeln!(
            report,
            "{regressions} metric{} regressed beyond {max_regress_pct}%",
            if regressions == 1 { "" } else { "s" },
        );
    } else {
        let _ = writeln!(report, "no regressions beyond {max_regress_pct}%");
    }
    Ok(CompareOutcome { rows, compared, regressions, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-shape artifact document with every compared metric set.
    fn artifact(p50: f64, p99: f64, rps: f64, probes: f64, wait_p99: f64, allocs: f64) -> Value {
        let text = format!(
            r#"{{
              "schema": "pls-bench/v3",
              "bench": "test",
              "git_rev": "deadbeef",
              "results": {{
                "latency_us": {{"p50": {p50}, "p99": {p99}}},
                "throughput_rps": {rps},
                "probes": {{"per_lookup_mean": {probes},
                            "per_lookup_from_servers": {probes}}},
                "runtime": {{
                  "locks": {{"engines": {{"wait_us": {{"p99": {wait_p99}}}}}}},
                  "alloc": {{"allocs_per_lookup": {allocs}}}
                }}
              }}
            }}"#
        );
        parse(&text).expect("well-formed test artifact")
    }

    #[test]
    fn identical_artifacts_pass_clean() {
        let doc = artifact(120.0, 900.0, 5000.0, 2.0, 45.0, 30.0);
        let out = compare_docs(&doc, &doc, 25.0).unwrap();
        assert_eq!(out.regressions, 0);
        assert_eq!(out.compared, 7);
        assert!(out.report.contains("no regressions beyond 25%"), "{}", out.report);
    }

    #[test]
    fn injected_latency_regression_fails_the_gate() {
        let baseline = artifact(120.0, 900.0, 5000.0, 2.0, 45.0, 30.0);
        // p99 tripled: far beyond any sane threshold.
        let current = artifact(120.0, 2700.0, 5000.0, 2.0, 45.0, 30.0);
        let out = compare_docs(&baseline, &current, 25.0).unwrap();
        assert_eq!(out.regressions, 1);
        let row = out.rows.iter().find(|r| r.label == "latency p99 (us)").unwrap();
        assert!(row.regressed);
        assert!((row.shown_pct - 200.0).abs() < 1e-9, "{}", row.shown_pct);
        assert!(out.report.contains("REGRESSED"), "{}", out.report);
    }

    #[test]
    fn throughput_regresses_downward() {
        let baseline = artifact(120.0, 900.0, 5000.0, 2.0, 45.0, 30.0);
        let current = artifact(120.0, 900.0, 2000.0, 2.0, 45.0, 30.0);
        let out = compare_docs(&baseline, &current, 25.0).unwrap();
        let row = out.rows.iter().find(|r| r.label == "throughput (rps)").unwrap();
        assert!(row.regressed, "{:?}", row);
        // ...and a throughput *improvement* never regresses.
        let better = artifact(120.0, 900.0, 9000.0, 2.0, 45.0, 30.0);
        let out = compare_docs(&baseline, &better, 25.0).unwrap();
        assert_eq!(out.regressions, 0);
    }

    #[test]
    fn zero_baseline_never_counts_as_a_regression() {
        // A zeroed bootstrap baseline must not turn every nonzero
        // reading into an infinite regression.
        let baseline = artifact(0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let current = artifact(120.0, 900.0, 5000.0, 2.0, 45.0, 30.0);
        let out = compare_docs(&baseline, &current, 25.0).unwrap();
        assert_eq!(out.regressions, 0, "{}", out.report);
    }

    #[test]
    fn metrics_missing_from_one_side_are_na_not_regressions() {
        let baseline = parse(
            r#"{"schema": "pls-bench/v3", "bench": "old", "git_rev": "abc",
                "results": {"latency_us": {"p50": 100, "p99": 800},
                            "throughput_rps": 4000}}"#,
        )
        .unwrap();
        let current = artifact(110.0, 850.0, 4100.0, 2.0, 45.0, 30.0);
        let out = compare_docs(&baseline, &current, 25.0).unwrap();
        assert_eq!(out.compared, 3);
        assert_eq!(out.regressions, 0);
        assert!(out.report.contains("n/a"), "{}", out.report);
    }

    #[test]
    fn disjoint_artifacts_error_instead_of_passing_silently() {
        let empty = parse(r#"{"schema": "pls-bench/v3", "results": {}}"#).unwrap();
        let current = artifact(110.0, 850.0, 4100.0, 2.0, 45.0, 30.0);
        assert!(compare_docs(&empty, &current, 25.0).is_err());
    }

    #[test]
    fn describe_reads_provenance() {
        let doc = artifact(1.0, 2.0, 3.0, 4.0, 5.0, 6.0);
        assert_eq!(describe(&doc), "test @ deadbeef");
    }
}
