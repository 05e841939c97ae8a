//! Regenerates every table and figure of *Partial Lookup Services*.
//!
//! ```text
//! repro [--paper] [--out DIR] [--json] [ID ...]
//!
//!   ID       table1 fig4 fig6 fig7 fig9 fig12 fig13 fig14 table2, or `all`
//!   --paper  run at the paper's full Monte-Carlo scale (slow)
//!   --out    directory for CSV output (default: results/)
//!   --json   also write every table into one `BENCH_repro.json`
//!            artifact in DIR (the `pls-bench/v3` schema, same shape the
//!            cluster loadgen emits)
//! ```
//!
//! Each experiment prints an aligned console table (the series the paper
//! plots) and writes the same data as CSV.

use std::path::PathBuf;
use std::process::ExitCode;

use pls_bench::output::{fnum, BenchReport, Table};
use pls_sim::experiments::{
    ablations, availability, fig12, fig13, fig14, fig4, fig6, fig7, fig9, hotspot, ratio,
    reachability, table1, table2,
};
use pls_telemetry::json;

struct Options {
    paper: bool,
    out: PathBuf,
    json: bool,
    ids: Vec<String>,
}

const ALL_IDS: [&str; 15] = [
    "table1",
    "fig4",
    "fig6",
    "fig7",
    "fig9",
    "fig12",
    "fig13",
    "fig14",
    "table2",
    "hotspot",
    "ratio",
    "reachability",
    "availability",
    "ablation-stride",
    "ablation-hashy",
];

fn parse_args() -> Result<Options, String> {
    let mut paper = false;
    let mut out = PathBuf::from("results");
    let mut json = false;
    let mut ids = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => paper = true,
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a directory")?);
            }
            "--json" => json = true,
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--paper] [--out DIR] [--json] [ID ...]\n  IDs: {} all",
                    ALL_IDS.join(" ")
                ));
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => ids.push(id.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if ids.is_empty() {
        ids.extend(ALL_IDS.iter().map(|s| s.to_string()));
    }
    ids.dedup();
    Ok(Options { paper, out, json, ids })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "partial-lookup reproduction harness — scale: {}\n",
        if opts.paper { "paper (full Monte-Carlo)" } else { "quick" }
    );
    let mut tables = Vec::new();
    for id in &opts.ids {
        let table = run_one(id, opts.paper);
        println!("{}", table.render());
        match table.write_csv(&opts.out, id) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  (csv write failed: {err})\n"),
        }
        tables.push((id.clone(), table));
    }
    if opts.json {
        let config = json::Object::new()
            .string("scale", if opts.paper { "paper" } else { "quick" })
            .field("ids", &json::array(tables.iter().map(|(id, _)| json::string(id))))
            .build();
        let results = json::array(tables.iter().map(|(id, t)| {
            json::Object::new().string("id", id).field("table", &t.to_json()).build()
        }));
        let report = BenchReport::new("repro", config, results);
        match report.write(&opts.out) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => {
                eprintln!("json artifact write failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_one(id: &str, paper: bool) -> Table {
    match id {
        "table1" => render_table1(paper),
        "fig4" => render_fig4(paper),
        "fig6" => render_fig6(paper),
        "fig7" => render_fig7(paper),
        "fig9" => render_fig9(paper),
        "fig12" => render_fig12(paper),
        "fig13" => render_fig13(paper),
        "fig14" => render_fig14(paper),
        "table2" => render_table2(),
        "hotspot" => render_hotspot(paper),
        "ratio" => render_ratio(paper),
        "reachability" => render_reachability(),
        "availability" => render_availability(paper),
        "ablation-stride" => render_ablation_stride(),
        "ablation-hashy" => render_ablation_hashy(),
        other => unreachable!("validated id {other}"),
    }
}

fn render_table1(paper: bool) -> Table {
    let params = if paper { table1::Params::paper() } else { table1::Params::quick() };
    let rows = table1::run(&params);
    let mut t = Table::new(
        format!(
            "Table 1: storage cost, h={} entries on n={} servers (x={}, y={})",
            params.h, params.n, params.x, params.y
        ),
        &["strategy", "analytic", "measured", "ci95"],
    );
    for row in rows {
        t.row(vec![
            row.spec.to_string(),
            fnum(row.analytic),
            fnum(row.measured.mean()),
            fnum(row.measured.ci95_half_width()),
        ]);
    }
    t
}

fn render_fig4(paper: bool) -> Table {
    let params = if paper { fig4::Params::paper() } else { fig4::Params::quick() };
    let rows = fig4::run(&params);
    let mut t = Table::new(
        format!(
            "Figure 4: lookup cost vs target answer size (h={}, n={}, storage={})",
            params.h, params.n, params.budget
        ),
        &["t", "Round-2", "RandomServer-20", "Hash-2"],
    );
    for row in rows {
        t.row(vec![
            row.t.to_string(),
            fnum(row.round_robin.mean()),
            fnum(row.random_server.mean()),
            fnum(row.hash.mean()),
        ]);
    }
    t
}

fn render_fig6(paper: bool) -> Table {
    let params = if paper { fig6::Params::paper() } else { fig6::Params::quick() };
    let rows = fig6::run(&params);
    let mut t = Table::new(
        format!("Figure 6: coverage vs total storage (h={}, n={})", params.h, params.n),
        &["storage", "Round&Hash", "Fixed", "RandomServer", "RandomServer(analytic)"],
    );
    let opt = |v: Option<f64>| v.map(fnum).unwrap_or_else(|| "-".into());
    for row in rows {
        t.row(vec![
            row.budget.to_string(),
            opt(row.round_hash),
            opt(row.fixed),
            opt(row.random_server.map(|s| s.mean())),
            opt(row.random_server_analytic),
        ]);
    }
    t
}

fn render_fig7(paper: bool) -> Table {
    let params = if paper { fig7::Params::paper() } else { fig7::Params::quick() };
    let rows = fig7::run(&params);
    let mut t = Table::new(
        format!(
            "Figure 7: fault tolerance vs target answer size (h={}, n={}, storage={})",
            params.h, params.n, params.budget
        ),
        &["t", "RandomServer-20", "Hash-2", "Round-2"],
    );
    for row in rows {
        t.row(vec![
            row.t.to_string(),
            fnum(row.random_server.mean()),
            fnum(row.hash.mean()),
            fnum(row.round_robin.mean()),
        ]);
    }
    t
}

fn render_fig9(paper: bool) -> Table {
    let params = if paper { fig9::Params::paper() } else { fig9::Params::quick() };
    let rows = fig9::run(&params);
    let mut t = Table::new(
        format!(
            "Figure 9: unfairness vs total storage (h={}, n={}, t={}) — see EXPERIMENTS.md on magnitude",
            params.h, params.n, params.t
        ),
        &["storage", "randomServer", "hash"],
    );
    for row in rows {
        t.row(vec![row.budget.to_string(), fnum(row.random_server.mean()), fnum(row.hash.mean())]);
    }
    t
}

fn render_fig12(paper: bool) -> Table {
    let params = if paper { fig12::Params::paper() } else { fig12::Params::quick() };
    let rows = fig12::run(&params);
    let mut t = Table::new(
        format!(
            "Figure 12: Fixed-x lookup failure rate vs cushion (t={}, h={}, % of time)",
            params.t, params.h
        ),
        &["cushion", "exp_%", "zipf_%"],
    );
    for row in rows {
        t.row(vec![
            row.cushion.to_string(),
            fnum(row.exponential.mean() * 100.0),
            fnum(row.zipf.mean() * 100.0),
        ]);
    }
    t
}

fn render_fig13(paper: bool) -> Table {
    let params = if paper { fig13::Params::paper() } else { fig13::Params::quick() };
    let rows = fig13::run(&params);
    let mut t = Table::new(
        format!(
            "Figure 13: RandomServer-{} unfairness vs number of updates (h={}, n={})",
            params.x, params.h, params.n
        ),
        &["updates", "unfairness"],
    );
    for row in rows {
        t.row(vec![row.updates.to_string(), fnum(row.unfairness.mean())]);
    }
    t
}

fn render_fig14(paper: bool) -> Table {
    let params = if paper { fig14::Params::paper() } else { fig14::Params::quick() };
    let rows = fig14::run(&params);
    let mut t = Table::new(
        format!(
            "Figure 14: update overhead, Fixed-{} vs adaptive Hash-y (t={}, n={}, {} updates)",
            params.fixed_x, params.t, params.n, params.updates
        ),
        &["h", "fixed-x_msgs", "hash-y_msgs", "hash_y"],
    );
    for row in rows {
        t.row(vec![
            row.h.to_string(),
            fnum(row.fixed_messages.mean()),
            fnum(row.hash_messages.mean()),
            row.hash_y.to_string(),
        ]);
    }
    t
}

fn render_hotspot(paper: bool) -> Table {
    let params = if paper { hotspot::Params::paper() } else { hotspot::Params::quick() };
    let rows = hotspot::run(&params);
    let mut t = Table::new(
        format!(
            "Hot-spot comparison (extension): {} keys, Zipf({}) popularity, {} lookups, {} failures",
            params.keys, params.zipf_s, params.lookups, params.failures
        ),
        &["system", "max/mean load", "load CV", "unavailability_%"],
    );
    for row in rows {
        t.row(vec![
            row.system,
            fnum(row.max_over_mean),
            fnum(row.load_cv),
            fnum(row.unavailability * 100.0),
        ]);
    }
    t
}

fn render_ratio(paper: bool) -> Table {
    let params = if paper { ratio::Params::paper() } else { ratio::Params::quick() };
    let rows = ratio::run(&params);
    let mut t = Table::new(
        format!(
            "Lookup:update ratio (extension, §6.4 remark): total messages over {} ops (h={}, t={})",
            params.operations, params.h, params.t
        ),
        &["lookup_fraction", "fixed-x_total", "hash-y_total"],
    );
    for row in rows {
        t.row(vec![
            format!("{:.2}", row.lookup_fraction),
            fnum(row.fixed_total.mean()),
            fnum(row.hash_total.mean()),
        ]);
    }
    t
}

fn render_reachability() -> Table {
    let params = reachability::Params::quick();
    let rows = reachability::run(&params);
    let mut t = Table::new(
        format!("Reachability trade-off (extension, §7.2): {}-node random overlay", params.nodes),
        &["hop_bound_d", "hosts (update fan-out)", "mean lookup hops"],
    );
    for row in rows {
        t.row(vec![row.d.to_string(), fnum(row.hosts), fnum(row.mean_lookup_hops)]);
    }
    t
}

fn render_availability(paper: bool) -> Table {
    let params = if paper { availability::Params::paper() } else { availability::Params::quick() };
    let rows = availability::run(&params);
    let mut t = Table::new(
        format!(
            "Availability under random failures (extension): lookup failure % (h={}, storage={}, t={})",
            params.h, params.budget, params.t
        ),
        &["failed", "FullRepl_%", "Fixed_%", "RandomServer_%", "Round_%", "Hash_%"],
    );
    for row in rows {
        t.row(vec![
            row.failures.to_string(),
            fnum(row.full_replication.mean() * 100.0),
            fnum(row.fixed.mean() * 100.0),
            fnum(row.random_server.mean() * 100.0),
            fnum(row.round_robin.mean() * 100.0),
            fnum(row.hash.mean() * 100.0),
        ]);
    }
    t
}

fn render_ablation_stride() -> Table {
    let params = ablations::StrideParams::quick();
    let rows = ablations::stride_vs_random(&params);
    let mut t = Table::new(
        format!(
            "Ablation: Round-{} lookup procedure — stride walk vs shuffled probing (same placement)",
            params.y
        ),
        &["t", "stride_cost", "random_probe_cost"],
    );
    for row in rows {
        t.row(vec![row.t.to_string(), fnum(row.stride), fnum(row.random)]);
    }
    t
}

fn render_ablation_hashy() -> Table {
    let params = ablations::HashYParams::quick();
    let rows = ablations::adaptive_vs_fixed_hash(&params);
    let mut t = Table::new(
        format!(
            "Ablation: Hash-y with adaptive y=ceil(t*n/h) vs fixed y={} (t={}, {} updates)",
            params.fixed_y, params.t, params.updates
        ),
        &["h", "adaptive_y", "adaptive_msgs", "fixed_msgs", "adaptive_lookup", "fixed_lookup"],
    );
    for row in rows {
        t.row(vec![
            row.h.to_string(),
            row.adaptive_y.to_string(),
            fnum(row.adaptive_msgs.mean()),
            fnum(row.fixed_msgs.mean()),
            fnum(row.adaptive_lookup.mean()),
            fnum(row.fixed_lookup.mean()),
        ]);
    }
    t
}

fn render_table2() -> Table {
    let rows = table2::run();
    let mut t = Table::new(
        "Table 2: qualitative summary (stars 1-4, more is better)",
        &[
            "strategy",
            "stor.few",
            "stor.many",
            "coverage",
            "fault tol",
            "fair.few",
            "fair.many",
            "lookup",
            "upd.small-t",
            "upd.large-t",
        ],
    );
    for row in rows {
        let mut cells = vec![row.strategy.to_string()];
        cells.extend(row.stars.iter().map(|s| "*".repeat(*s as usize)));
        t.row(cells);
    }
    t
}
