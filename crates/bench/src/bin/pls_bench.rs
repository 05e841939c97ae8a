//! `pls-bench` — utilities over `BENCH_*.json` artifacts.
//!
//! ```text
//! pls-bench compare BASELINE.json CURRENT.json
//!           [--max-regress-pct P] [--warn-only]
//!
//!   compare            print the per-metric delta between two bench
//!                      artifacts (latency p50/p99, throughput,
//!                      probes per lookup, engines-lock wait p99,
//!                      allocations per lookup) and fail when a
//!                      regression exceeds the threshold
//!   --max-regress-pct  allowed regression per metric, percent
//!                      (default 25)
//!   --warn-only        report regressions but always exit 0 — for CI
//!                      smoke runs on shared hardware where absolute
//!                      numbers are noisy
//! ```
//!
//! Both artifacts must carry the `pls-bench/v3` schema tag. Metrics
//! present in only one artifact are listed as `n/a` and never counted
//! as regressions.

use std::process::ExitCode;

use pls_bench::compare::{compare_docs, describe, load_artifact};

fn compare(
    baseline_path: &str,
    current_path: &str,
    max_regress_pct: f64,
    warn_only: bool,
) -> Result<ExitCode, String> {
    let baseline = load_artifact(baseline_path)?;
    let current = load_artifact(current_path)?;
    println!("baseline: {} ({baseline_path})", describe(&baseline));
    println!("current:  {} ({current_path})", describe(&current));
    let outcome = compare_docs(&baseline, &current, max_regress_pct)?;
    print!("{}", outcome.report);
    if outcome.regressions > 0 {
        if warn_only {
            println!("(warn-only: exiting 0)");
            return Ok(ExitCode::SUCCESS);
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut max_regress_pct = 25.0f64;
    let mut warn_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress-pct" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => max_regress_pct = v,
                    None => {
                        eprintln!("--max-regress-pct needs a numeric value");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--warn-only" => warn_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: pls-bench compare BASELINE.json CURRENT.json \
                     [--max-regress-pct P] [--warn-only]"
                );
                return ExitCode::SUCCESS;
            }
            other => positional.push(other),
        }
        i += 1;
    }
    match positional.as_slice() {
        ["compare", baseline, current] => {
            match compare(baseline, current, max_regress_pct, warn_only) {
                Ok(code) => code,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "usage: pls-bench compare BASELINE.json CURRENT.json \
                 [--max-regress-pct P] [--warn-only]"
            );
            ExitCode::FAILURE
        }
    }
}
