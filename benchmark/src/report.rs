//! What a run reports, how it is printed, and `compare`.

use std::fmt::Write as _;

use pls_telemetry::json::{self, Value};

/// One named measurement. `spread` is the interquartile range of the
/// per-pass values as a share of their median, where the metric has
/// per-pass values.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub spread: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric { name: name.into(), value, unit: unit.to_string(), spread: None }
    }

    pub fn with_spread(mut self, spread: f64) -> Metric {
        self.spread = Some(spread);
        self
    }
}

/// The result of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Timed passes behind the medians.
    pub passes: u64,
    pub metrics: Vec<Metric>,
}

/// `f64` as JSON with all its digits; non-finite values become 0 so the
/// line always parses (a metric that is not finite is a harness bug and
/// `check.sh` looks for it).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Outcome {
    fn metrics_json(&self, with_spread: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}",
                json::string(&m.name),
                number(m.value),
                json::string(&m.unit)
            );
            if let (true, Some(s)) = (with_spread, m.spread) {
                let _ = write!(out, ", \"spread\": {}", number(s));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// This run as an element of a suite file.
    pub fn suite_entry(&self) -> String {
        format!(
            "{{\"workload\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"passes\": {}, \"metrics\": {}}}",
            json::string(&self.workload),
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            self.passes,
            self.metrics_json(true)
        )
    }

    /// Every metric by name, with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            let _ = write!(
                out,
                "{:<24} {:<width$} {:>18.4} {}",
                self.workload, m.name, m.value, m.unit
            );
            if let Some(s) = m.spread {
                let _ = write!(out, "  (spread {:.2} %)", s * 100.0);
            }
            out.push('\n');
        }
        out
    }
}

/// A whole suite: every workload's [`Outcome::suite_entry`] plus where
/// it was measured.
pub fn suite_json(meta: &[(String, String)], entries: &[String]) -> String {
    let mut out = String::from("{\"schema\": \"pls-benchmark/v1\"");
    for (k, v) in meta {
        let _ = write!(out, ", {}: {}", json::string(k), json::string(v));
    }
    out.push_str(", \"runs\": [\n");
    out.push_str(&entries.join(",\n"));
    // This file defines the benchmark; it compares nothing.
    out.push_str("\n], \"claim\": null}\n");
    out
}

/// Direction and regression bound of a metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRule {
    pub name: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics, which are reported but never judged.
    pub bound: Option<f64>,
}

pub fn parse_rules(benchmark_json: &str) -> Result<Vec<MetricRule>, String> {
    let doc = json::parse(benchmark_json)?;
    let mut rules = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = doc
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
        for m in list {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let better =
                m.get("better").and_then(Value::as_str).ok_or("metric without `better`")?;
            rules.push(MetricRule {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(rules)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: no verdict.
    Unresolved,
    /// A per-layer metric: shown, not judged.
    Layer,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Layer => "layer",
        }
    }
}

/// Judges `b` against `a`: by how much it is worse, as a share of `a`,
/// set against the bound and the spread.
pub fn judge(rule: &MetricRule, a: f64, b: f64, spread: f64) -> (f64, Verdict) {
    let worse_by = if a == 0.0 {
        if b == a {
            0.0
        } else if (b > a) != rule.higher_is_better {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else if rule.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let verdict = match rule.bound {
        None => Verdict::Layer,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Regressed,
        Some(bound) if worse_by < -bound => Verdict::Improved,
        Some(_) => Verdict::Unchanged,
    };
    (worse_by, verdict)
}

struct SuiteRun {
    workload: String,
    trace: bool,
    metrics: Vec<(String, f64, f64)>,
}

fn parse_suite(text: &str) -> Result<Vec<SuiteRun>, String> {
    let doc = json::parse(text)?;
    let runs = doc.get("runs").and_then(Value::as_array).ok_or("suite file has no `runs`")?;
    let mut out = Vec::new();
    for run in runs {
        let workload =
            run.get("workload").and_then(Value::as_str).ok_or("run without `workload`")?;
        let trace = matches!(run.get("trace"), Some(Value::Bool(true)));
        let Some(Value::Object(fields)) = run.get("metrics") else {
            return Err(format!("run `{workload}` has no `metrics` object"));
        };
        let metrics = fields
            .iter()
            .filter_map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64)?;
                let spread = m.get("spread").and_then(Value::as_f64).unwrap_or(0.0);
                Some((name.clone(), value, spread))
            })
            .collect();
        out.push(SuiteRun { workload: workload.to_string(), trace, metrics });
    }
    Ok(out)
}

/// Compares suite `b` against suite `a` under `rules`, one row per
/// (metric, workload). Returns the table and how many rows regressed.
pub fn compare(rules: &[MetricRule], a: &str, b: &str) -> Result<(String, usize), String> {
    let (runs_a, runs_b) = (parse_suite(a)?, parse_suite(b)?);
    let mut table = format!(
        "{:<16} {:<44} {:>16} {:>16} {:>9} {:>8}  {}\n",
        "workload", "metric", "A", "B", "worse by", "spread", "verdict"
    );
    let mut counts = [0usize; 5];
    for ra in &runs_a {
        let Some(rb) = runs_b.iter().find(|r| r.workload == ra.workload && r.trace == ra.trace)
        else {
            return Err(format!("B has no run of `{}` (trace {})", ra.workload, ra.trace));
        };
        for (name, va, sa) in &ra.metrics {
            let Some((_, vb, sb)) = rb.metrics.iter().find(|(n, _, _)| n == name) else {
                return Err(format!("B lacks `{name}` on `{}`", ra.workload));
            };
            let Some(rule) = rules.iter().find(|r| &r.name == name) else {
                return Err(format!("`{name}` is not declared in BENCHMARK.json"));
            };
            let spread = sa.max(*sb);
            let (worse_by, verdict) = judge(rule, *va, *vb, spread);
            counts[verdict as usize] += 1;
            let _ = writeln!(
                table,
                "{:<16} {:<44} {:>16.4} {:>16.4} {:>8.2}% {:>7.2}%  {}",
                ra.workload,
                name,
                va,
                vb,
                worse_by * 100.0,
                spread * 100.0,
                verdict.label()
            );
        }
    }
    let _ = writeln!(
        table,
        "improved {}, unchanged {}, regressed {}, unresolved {}, per-layer rows {}",
        counts[Verdict::Improved as usize],
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize],
        counts[Verdict::Layer as usize]
    );
    Ok((table, counts[Verdict::Regressed as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ops: f64, p50: f64) -> Outcome {
        Outcome {
            workload: "churn".into(),
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            passes: 3,
            metrics: vec![
                Metric::new("ops_per_s", ops, "ops/s").with_spread(0.01),
                Metric::new("op_p50_ns", p50, "ns"),
                Metric::new("core.engine.sample_ns", 5.0, "ns"),
            ],
        }
    }

    const RULES: &str = r#"{"end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "op_p50_ns", "unit": "ns", "better": "lower", "bound": 0.1}],
      "per_layer": [{"name": "core.engine.sample_ns", "unit": "ns", "better": "lower"}]}"#;

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = outcome(1000.5, 7.25).contract_line();
        let doc = json::parse(&line).unwrap();
        let Value::Object(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]); // parsed keys are sorted
        let m = doc.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1000.5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ops/s"));
        assert!(m.get("spread").is_none(), "the driver's line carries value and unit only");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_suite_ends_with_a_null_claim_and_parses_back() {
        let text = suite_json(&[("seed".into(), "42".into())], &[outcome(1.0, 2.0).suite_entry()]);
        assert!(text.trim_end().ends_with("\"claim\": null}"));
        let runs = parse_suite(&text).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].metrics.contains(&("ops_per_s".to_string(), 1.0, 0.01)));
    }

    #[test]
    fn judge_follows_direction_bound_and_spread() {
        let rules = parse_rules(RULES).unwrap();
        let (ops, p50, layer) = (&rules[0], &rules[1], &rules[2]);
        assert_eq!(judge(ops, 100.0, 85.0, 0.01).1, Verdict::Regressed);
        assert_eq!(judge(ops, 100.0, 95.0, 0.01).1, Verdict::Unchanged);
        assert_eq!(judge(ops, 100.0, 120.0, 0.01).1, Verdict::Improved);
        assert_eq!(judge(ops, 100.0, 50.0, 0.2).1, Verdict::Unresolved);
        assert_eq!(judge(p50, 100.0, 115.0, 0.0).1, Verdict::Regressed);
        assert_eq!(judge(p50, 100.0, 80.0, 0.0).1, Verdict::Improved);
        assert_eq!(judge(layer, 100.0, 900.0, 0.0).1, Verdict::Layer);
        assert_eq!(judge(p50, 0.0, 0.0, 0.0), (0.0, Verdict::Unchanged));
        assert_eq!(judge(p50, 0.0, 1.0, 0.0).1, Verdict::Regressed);
    }

    #[test]
    fn compare_counts_regressions_per_row() {
        let rules = parse_rules(RULES).unwrap();
        let a = suite_json(&[], &[outcome(1000.0, 100.0).suite_entry()]);
        let same = compare(&rules, &a, &a).unwrap();
        assert_eq!(same.1, 0);
        assert!(same.0.contains("unchanged 2, regressed 0, unresolved 0, per-layer rows 1"));
        let slower = suite_json(&[], &[outcome(700.0, 100.0).suite_entry()]);
        let (table, regressed) = compare(&rules, &a, &slower).unwrap();
        assert_eq!(regressed, 1);
        assert!(table.contains("regressed"), "{table}");
        let other = suite_json(&[], &[]);
        assert!(compare(&rules, &a, &other).is_err());
    }
}
