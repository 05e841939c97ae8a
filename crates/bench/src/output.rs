//! Table rendering, CSV emission, and the shared `BENCH_*.json`
//! artifact schema for experiment rows.
//!
//! Every JSON artifact the bench harness writes — `repro --json` and
//! the `loadgen` cluster benchmark alike — goes through
//! [`BenchReport`], so downstream tooling sees one schema:
//!
//! ```json
//! {
//!   "schema": "pls-bench/v3",
//!   "bench": "<name>",
//!   "git_rev": "<rev-parse HEAD or \"unknown\">",
//!   "config": { ... },
//!   "results": ...
//! }
//! ```
//!
//! `loadgen` results carry the mixed-workload consistency block
//! (`staleness` — live staleness gauges, tombstone counters,
//! versions-behind quantiles) and the `runtime` block (server-side lock
//! contention per site, allocation deltas from the counting allocator,
//! queue-depth gauges). Readers (`pls-bench compare`, CI's bench-smoke)
//! accept this tag only; no artifact with an earlier one exists.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use pls_telemetry::json::{array, number, Object};

/// A rendered experiment: a title, column headers, and stringified rows.
/// One `Table` turns into both a console table and a CSV file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Human-readable heading (printed above the console table).
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Row cells, stringified.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let header: Vec<String> =
            self.columns.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let cells: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Renders CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV next to the other results.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: &Path, name: &str) -> io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

impl Table {
    /// Renders the rows as a JSON array of objects keyed by column
    /// name, tagged with the table title — the `results` shape
    /// `repro --json` feeds into a [`BenchReport`].
    pub fn to_json(&self) -> String {
        let rows = array(self.rows.iter().map(|row| {
            let mut obj = Object::new();
            for (col, cell) in self.columns.iter().zip(row) {
                // Cells are stringified numbers for the most part;
                // emit them as JSON numbers when they parse back.
                // Re-rendering through `number` keeps the output valid
                // for spellings JSON rejects (".5", "+1", "NaN").
                obj = match cell.parse::<f64>() {
                    Ok(v) if v.is_finite() => obj.field(col, &number(v)),
                    _ => obj.string(col, cell),
                };
            }
            obj.build()
        }));
        Object::new().string("title", &self.title).field("rows", &rows).build()
    }
}

/// The version tag stamped into every artifact, and the only one a
/// reader accepts.
pub const BENCH_SCHEMA: &str = "pls-bench/v3";

/// One benchmark run's JSON artifact: name, producing git revision,
/// run configuration, and measured results. [`BenchReport::write`]
/// lands it as `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Benchmark name; the artifact file is `BENCH_<name>.json`.
    pub name: String,
    /// `git rev-parse HEAD` of the tree that produced the numbers.
    pub git_rev: String,
    /// Already-rendered JSON object describing the run configuration.
    pub config: String,
    /// Already-rendered JSON value holding the measured results.
    pub results: String,
}

impl BenchReport {
    /// A report for `name`, stamped with the current git revision.
    /// `config` and `results` must already be valid JSON.
    pub fn new(name: impl Into<String>, config: String, results: String) -> Self {
        BenchReport { name: name.into(), git_rev: git_rev(), config, results }
    }

    /// Renders the artifact body.
    pub fn to_json(&self) -> String {
        Object::new()
            .string("schema", BENCH_SCHEMA)
            .string("bench", &self.name)
            .string("git_rev", &self.git_rev)
            .field("config", &self.config)
            .field("results", &self.results)
            .build()
    }

    /// Writes `BENCH_<name>.json` under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The current `git rev-parse HEAD`, or `"unknown"` outside a work
/// tree — artifacts are only comparable across runs when tied to the
/// code that produced them.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats a float with sensible precision for the tables.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long_column"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let rendered = t.render();
        assert!(rendered.contains("# demo"));
        assert!(rendered.contains("long_column"));
        let lines: Vec<&str> = rendered.lines().collect();
        // Header, separator, two rows, plus the title line.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into(), "2.5".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2.5\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("pls-bench-test");
        let mut t = Table::new("demo", &["x"]);
        t.row(vec!["7".into()]);
        let path = t.write_csv(&dir, "demo").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "x\n7\n");
    }

    #[test]
    fn table_to_json_types_numeric_cells() {
        let mut t = Table::new("demo", &["strategy", "p50"]);
        t.row(vec!["round:2".into(), "1.5".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"demo\",\"rows\":[{\"strategy\":\"round:2\",\"p50\":1.5}]}"
        );
    }

    #[test]
    fn bench_report_schema_shape() {
        let report = BenchReport {
            name: "unit".to_string(),
            git_rev: "deadbeef".to_string(),
            config: "{\"n\":3}".to_string(),
            results: "[1,2]".to_string(),
        };
        assert_eq!(
            report.to_json(),
            "{\"schema\":\"pls-bench/v3\",\"bench\":\"unit\",\"git_rev\":\"deadbeef\",\
             \"config\":{\"n\":3},\"results\":[1,2]}"
        );
        let dir = std::env::temp_dir().join("pls-bench-report-test");
        let path = report.write(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), report.to_json());
    }

    #[test]
    fn git_rev_never_panics() {
        // In a checkout this is a 40-char hex rev; elsewhere "unknown".
        // Either way it is non-empty and single-line.
        let rev = git_rev();
        assert!(!rev.is_empty());
        assert!(!rev.contains('\n'));
    }

    #[test]
    fn fnum_precision_tiers() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.1234567), "0.1235");
        assert_eq!(fnum(12.345), "12.35");
        assert_eq!(fnum(123456.7), "123457");
    }
}
