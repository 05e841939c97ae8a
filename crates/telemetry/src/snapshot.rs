//! Named metric snapshots and Prometheus-style text exposition.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::histogram::{Histogram, HistogramSnapshot, BUCKETS};

/// A point-in-time bag of named metrics: counter totals, float gauges,
/// and histogram snapshots.
///
/// Counter names follow Prometheus conventions — `snake_case`, a
/// `_total` suffix for monotonic counters, optional `{label="value"}`
/// suffixes (e.g. `pls_requests_total{op="probe"}`). The *same* names
/// from different servers merge by summation ([`merge`]), which is how
/// the `pls_client stats` command builds a cluster-wide view. Gauges
/// are point-in-time readings, not totals: pushing or merging a gauge
/// under an existing name *replaces* the value, and ratio-style gauges
/// (coverage, unfairness) should be recomputed from merged counters
/// rather than combined across servers.
///
/// [`merge`]: MetricsSnapshot::merge
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` pairs, in insertion order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, in insertion order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` pairs, in insertion order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(family, help text)` pairs consulted by
    /// [`to_prometheus`](MetricsSnapshot::to_prometheus); families
    /// without an entry get a generated description, so every exported
    /// family always carries a `# HELP` line.
    pub helps: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter sample (or adds to it, if the name exists).
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name, value)),
        }
    }

    /// Appends many counter samples, each as [`push_counter`] would, in
    /// time linear in the samples plus the counters already held.
    ///
    /// [`push_counter`]: MetricsSnapshot::push_counter
    pub fn push_counters(&mut self, samples: impl IntoIterator<Item = (String, u64)>) {
        absorb(&mut self.counters, samples, |v, n| *v += n);
    }

    /// Sets a gauge reading (replacing any prior value under the name).
    pub fn push_gauge(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name, value)),
        }
    }

    /// Appends a histogram sample (or merges into it, if the name
    /// exists).
    pub fn push_histogram(&mut self, name: impl Into<String>, snap: HistogramSnapshot) {
        let name = name.into();
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.merge(&snap),
            None => self.histograms.push((name, snap)),
        }
    }

    /// Sets the `# HELP` text for a metric family (the series name up
    /// to any `{`), replacing any prior text.
    pub fn set_help(&mut self, family: impl Into<String>, text: impl Into<String>) {
        let family = family.into();
        let text = text.into();
        match self.helps.iter_mut().find(|(f, _)| *f == family) {
            Some((_, t)) => *t = text,
            None => self.helps.push((family, text)),
        }
    }

    /// The `# HELP` text for `family`: the registered text if any,
    /// otherwise a description generated from the family's kind.
    fn help_text(&self, family: &str, kind: &str) -> String {
        if let Some((_, t)) = self.helps.iter().find(|(f, _)| f == family) {
            return escape_help(t);
        }
        match kind {
            "counter" => format!("Monotonic total of {family} events."),
            "histogram" => format!("Distribution of {family} observations (log2 buckets)."),
            _ => format!("Point-in-time reading of {family}."),
        }
    }

    /// Looks up a counter total by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge reading by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Every counter series of `family` (the bare name and each
    /// `family{...}` label variant, nothing that merely starts with it),
    /// with its decoded labels.
    pub fn counters_of<'a>(&'a self, family: &'a str) -> impl Iterator<Item = (Labels, u64)> + 'a {
        self.counters.iter().filter_map(move |(n, v)| Some((series_of(n, family)?, *v)))
    }

    /// Every gauge series of `family`, as [`counters_of`](Self::counters_of).
    pub fn gauges_of<'a>(&'a self, family: &'a str) -> impl Iterator<Item = (Labels, f64)> + 'a {
        self.gauges.iter().filter_map(move |(n, v)| Some((series_of(n, family)?, *v)))
    }

    /// Every histogram series of `family`, as
    /// [`counters_of`](Self::counters_of).
    pub fn histograms_of<'a>(
        &'a self,
        family: &'a str,
    ) -> impl Iterator<Item = (Labels, &'a HistogramSnapshot)> + 'a {
        self.histograms.iter().filter_map(move |(n, h)| Some((series_of(n, family)?, h)))
    }

    /// The sum over [`counters_of`](Self::counters_of): every label
    /// variant of one family, e.g. `pls_requests_total{op=...}`.
    pub fn counter_sum(&self, family: &str) -> u64 {
        self.counters.iter().filter(|(n, _)| in_family(n, family)).map(|(_, v)| *v).sum()
    }

    /// Accumulates another snapshot into this one: counters with equal
    /// names are summed, histograms with equal names are merged, gauges
    /// with equal names are replaced by `other`'s reading (gauges are
    /// point-in-time values, not totals), new names are appended — what
    /// pushing each of `other`'s series would do, in linear time.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        absorb(&mut self.counters, other.counters.iter().cloned(), |v, n| *v += n);
        absorb(&mut self.gauges, other.gauges.iter().cloned(), |v, x| *v = x);
        absorb(&mut self.histograms, other.histograms.iter().cloned(), |h, x| h.merge(&x));
        absorb(&mut self.helps, other.helps.iter().cloned(), |_, _| ());
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (families sorted by name; histograms as cumulative `_bucket`
    /// series plus `_sum` and `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();

        // Group counter samples by family (the name up to any '{').
        let mut families: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for (name, value) in &self.counters {
            let family = family_of(name);
            families.entry(family).or_default().push((name, *value));
        }
        for (family, samples) in families {
            let kind = if family.ends_with("_total") { "counter" } else { "gauge" };
            let _ = writeln!(out, "# HELP {family} {}", self.help_text(family, kind));
            let _ = writeln!(out, "# TYPE {family} {kind}");
            let mut samples = samples;
            samples.sort_by(|a, b| a.0.cmp(b.0));
            for (name, value) in samples {
                let _ = writeln!(out, "{name} {value}");
            }
        }

        // Float gauges, grouped by family like the counters.
        let mut gauge_families: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
        for (name, value) in &self.gauges {
            let family = family_of(name);
            gauge_families.entry(family).or_default().push((name, *value));
        }
        for (family, mut samples) in gauge_families {
            let _ = writeln!(out, "# HELP {family} {}", self.help_text(family, "gauge"));
            let _ = writeln!(out, "# TYPE {family} gauge");
            samples.sort_by(|a, b| a.0.cmp(b.0));
            for (name, value) in samples {
                let _ = writeln!(out, "{name} {}", format_f64(value));
            }
        }

        // Histograms, grouped by family too: one HELP/TYPE per family,
        // and a series' own labels go inside the braces of every
        // `_bucket`/`_sum`/`_count` sample, before `le`.
        let mut hists: Vec<(&str, &HistogramSnapshot)> =
            self.histograms.iter().map(|(n, h)| (n.as_str(), h)).collect();
        hists.sort_by_key(|(name, _)| (family_of(name), *name));
        let mut declared = "";
        for (name, snap) in hists {
            let (family, labels) = match name.split_once('{') {
                Some((family, rest)) => (family, rest.strip_suffix('}').unwrap_or(rest)),
                None => (name, ""),
            };
            if family != declared {
                let _ = writeln!(out, "# HELP {family} {}", self.help_text(family, "histogram"));
                let _ = writeln!(out, "# TYPE {family} histogram");
                declared = family;
            }
            let (sep, braced) = if labels.is_empty() {
                ("", String::new())
            } else {
                (",", format!("{{{labels}}}"))
            };
            let mut cumulative = 0u64;
            for (i, b) in snap.buckets.iter().enumerate() {
                cumulative += b;
                // Skip interior empty buckets to keep the output small,
                // but always emit the +Inf bound.
                if *b == 0 && i != BUCKETS - 1 {
                    continue;
                }
                let le = Histogram::bucket_upper_bound(i);
                if le.is_infinite() {
                    let _ =
                        writeln!(out, "{family}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}");
                } else {
                    let _ =
                        writeln!(out, "{family}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "{family}_sum{braced} {}", snap.sum);
            let _ = writeln!(out, "{family}_count{braced} {}", snap.count);
        }
        out
    }
}

/// Where each name first occurs in `series`: the answer a linear scan
/// by name gives, for many lookups at the cost of one pass.
pub(crate) fn positions<T>(series: &[(String, T)]) -> HashMap<&str, usize> {
    let mut at = HashMap::with_capacity(series.len());
    for (i, (name, _)) in series.iter().enumerate() {
        at.entry(name.as_str()).or_insert(i);
    }
    at
}

/// Folds `incoming` into `series` as one push per sample would: `combine`
/// into the series of that name if there is one (held before, or pushed
/// by an earlier sample), otherwise appended in order.
fn absorb<T>(
    series: &mut Vec<(String, T)>,
    incoming: impl IntoIterator<Item = (String, T)>,
    combine: impl Fn(&mut T, T),
) {
    let incoming: Vec<(String, T)> = incoming.into_iter().collect();
    let targets: Vec<usize> = {
        let mut at = positions(series);
        let mut next = series.len();
        incoming
            .iter()
            .map(|(name, _)| {
                *at.entry(name.as_str()).or_insert_with(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect()
    };
    for ((name, value), at) in incoming.into_iter().zip(targets) {
        match series.get_mut(at) {
            Some((_, held)) => combine(held, value),
            None => series.push((name, value)),
        }
    }
}

/// A series name's family: the name up to any label block.
pub fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Whether series `name` belongs to `family` exactly: `pls_x_total`
/// owns `pls_x_total{..}` but not `pls_x_total_y`.
fn in_family(name: &str, family: &str) -> bool {
    name.strip_prefix(family).is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
}

/// The labels of series `name` if it belongs to `family` (and its label
/// block is well formed).
fn series_of(name: &str, family: &str) -> Option<Labels> {
    if !in_family(name, family) {
        return None;
    }
    parse_labels(name).map(|(_, labels)| Labels(labels))
}

/// The decoded `(label, value)` pairs of one series, in exposition order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// The value of label `key`, if the series carries it.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The label keys, in exposition order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }
}

/// Escapes `# HELP` text for the exposition format: backslash and
/// newline must be backslash-escaped (quotes are fine in help text).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders an `f64` sample the way Prometheus expects: `Display` for
/// finite values, `+Inf`/`-Inf`/`NaN` for the specials.
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escapes a label *value* for the Prometheus text format: backslash,
/// double quote, and newline must be backslash-escaped inside the
/// `label="..."` quotes.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Builds a labelled series name, `family{k1="v1",k2="v2"}`, escaping
/// each label value. With no labels the bare family name is returned.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::from(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a series name into its family and decoded `(label, value)`
/// pairs — the inverse of [`labeled`]. Returns `None` if the label
/// block is malformed (unbalanced quotes, missing `=`). Callers outside
/// this file ask [`MetricsSnapshot::counters_of`] and its siblings.
fn parse_labels(name: &str) -> Option<(&str, Vec<(String, String)>)> {
    let Some(brace) = name.find('{') else {
        return Some((name, Vec::new()));
    };
    let family = &name[..brace];
    let body = name[brace + 1..].strip_suffix('}')?;
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].to_string();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return None,
                },
                '"' => {
                    consumed = Some(eq + 2 + i + 1);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = consumed?;
        labels.push((key, value));
        rest = &rest[end..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some((family, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.observe(v);
        }
        h.snapshot()
    }

    #[test]
    fn push_and_lookup() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("a_total", 2);
        s.push_counter("a_total", 3);
        s.push_counter("b", 1);
        assert_eq!(s.counter("a_total"), Some(5));
        assert_eq!(s.counter("missing"), None);
        s.push_histogram("h", hist(&[1, 2]));
        assert_eq!(s.histogram("h").unwrap().count, 2);
    }

    #[test]
    fn counter_sum_over_label_variants() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("req_total{op=\"a\"}", 2);
        s.push_counter("req_total{op=\"b\"}", 3);
        s.push_counter("other_total", 100);
        assert_eq!(s.counter_sum("req_total"), 5);
    }

    #[test]
    fn merge_sums_counters_and_merges_histograms() {
        let mut a = MetricsSnapshot::new();
        a.push_counter("c_total", 1);
        a.push_histogram("h", hist(&[4]));
        let mut b = MetricsSnapshot::new();
        b.push_counter("c_total", 2);
        b.push_counter("only_b_total", 9);
        b.push_histogram("h", hist(&[8, 8]));
        a.merge(&b);
        assert_eq!(a.counter("c_total"), Some(3));
        assert_eq!(a.counter("only_b_total"), Some(9));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 20);
    }

    /// A snapshot of about 2,000 series whose names overlap with any other
    /// `seed`'s on a third of them; every kind holds a name twice (the
    /// `push_*` calls combine it), and `helps` repeats a family.
    fn overlapping(seed: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        for i in 0..1_200u64 {
            let id = if i % 3 == 0 { i } else { i * 1_000 + seed };
            s.counters.push((labeled("hits_total", &[("entry", &id.to_string())]), i + seed));
        }
        s.counters.push(("hits_total{entry=\"3\"}".to_string(), 7));
        for i in 0..600u64 {
            let id = if i % 3 == 0 { i } else { i * 1_000 + seed };
            s.gauges.push((format!("level{{shard=\"{id}\"}}"), (i + seed) as f64 / 4.0));
        }
        s.gauges.push(("level{shard=\"0\"}".to_string(), -1.0));
        for i in 0..200u64 {
            let id = if i % 3 == 0 { i } else { i * 1_000 + seed };
            s.histograms.push((format!("lat_us{{site=\"{id}\"}}"), hist(&[i, seed])));
        }
        s.histograms.push(("lat_us{site=\"0\"}".to_string(), hist(&[5])));
        s.helps =
            vec![("hits_total".into(), format!("seed {seed}")), ("hits_total".into(), "x".into())];
        s
    }

    #[test]
    fn bulk_merge_and_push_counters_equal_one_push_per_series() {
        let (a, b) = (overlapping(1), overlapping(2));
        let mut one_by_one = MetricsSnapshot::new();
        for s in [&a, &b] {
            s.counters.iter().for_each(|(n, v)| one_by_one.push_counter(n.clone(), *v));
            s.gauges.iter().for_each(|(n, v)| one_by_one.push_gauge(n.clone(), *v));
            s.histograms.iter().for_each(|(n, h)| one_by_one.push_histogram(n.clone(), h.clone()));
            for (family, text) in &s.helps {
                if !one_by_one.helps.iter().any(|(f, _)| f == family) {
                    one_by_one.helps.push((family.clone(), text.clone()));
                }
            }
        }
        let mut merged = MetricsSnapshot::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, one_by_one);
        assert_eq!(merged.counter("hits_total{entry=\"3\"}"), Some(3 + 1 + 7 + 3 + 2 + 7));
        assert_eq!(merged.gauge("level{shard=\"0\"}"), Some(-1.0));
        assert_eq!(merged.helps, vec![("hits_total".to_string(), "seed 1".to_string())]);
        assert_eq!(merged.to_prometheus(), one_by_one.to_prometheus());

        let mut pushed = MetricsSnapshot::new();
        pushed.push_counter("hits_total{entry=\"0\"}", 100);
        pushed.push_counters(a.counters.iter().chain(&b.counters).cloned());
        let mut expected = MetricsSnapshot::new();
        expected.push_counter("hits_total{entry=\"0\"}", 100);
        a.counters
            .iter()
            .chain(&b.counters)
            .for_each(|(n, v)| expected.push_counter(n.clone(), *v));
        assert_eq!(pushed, expected);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("pls_requests_total{op=\"probe\"}", 7);
        s.push_counter("pls_requests_total{op=\"add\"}", 2);
        s.push_counter("pls_keys", 3);
        s.push_histogram("pls_probes_per_lookup", hist(&[1, 2, 2, 5]));
        let text = s.to_prometheus();

        assert!(text.contains("# TYPE pls_requests_total counter"), "{text}");
        assert!(text.contains("# TYPE pls_keys gauge"), "{text}");
        assert!(text.contains("pls_requests_total{op=\"probe\"} 7"), "{text}");
        assert!(text.contains("pls_requests_total{op=\"add\"} 2"), "{text}");
        // The TYPE line for a family appears exactly once.
        assert_eq!(text.matches("# TYPE pls_requests_total").count(), 1, "{text}");

        assert!(text.contains("# TYPE pls_probes_per_lookup histogram"), "{text}");
        // Cumulative buckets: one obs <=1, three <=3, four <=7; +Inf = 4.
        assert!(text.contains("pls_probes_per_lookup_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("pls_probes_per_lookup_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("pls_probes_per_lookup_bucket{le=\"7\"} 4"), "{text}");
        assert!(text.contains("pls_probes_per_lookup_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("pls_probes_per_lookup_sum 10"), "{text}");
        assert!(text.contains("pls_probes_per_lookup_count 4"), "{text}");
    }

    #[test]
    fn gauges_set_replace_and_render() {
        let mut s = MetricsSnapshot::new();
        s.push_gauge("pls_live_coverage", 0.5);
        s.push_gauge("pls_live_coverage", 0.75);
        s.push_gauge("pls_live_unfairness", 0.0);
        assert_eq!(s.gauge("pls_live_coverage"), Some(0.75));
        assert_eq!(s.gauge("missing"), None);
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE pls_live_coverage gauge"), "{text}");
        assert!(text.contains("pls_live_coverage 0.75"), "{text}");
        assert!(text.contains("pls_live_unfairness 0\n"), "{text}");
    }

    #[test]
    fn gauge_merge_replaces_rather_than_sums() {
        let mut a = MetricsSnapshot::new();
        a.push_gauge("g", 1.0);
        let mut b = MetricsSnapshot::new();
        b.push_gauge("g", 9.0);
        b.push_gauge("only_b", 2.0);
        a.merge(&b);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.gauge("only_b"), Some(2.0));
    }

    #[test]
    fn gauge_specials_render_prometheus_style() {
        let mut s = MetricsSnapshot::new();
        s.push_gauge("g_inf", f64::INFINITY);
        s.push_gauge("g_ninf", f64::NEG_INFINITY);
        s.push_gauge("g_nan", f64::NAN);
        let text = s.to_prometheus();
        assert!(text.contains("g_inf +Inf"), "{text}");
        assert!(text.contains("g_ninf -Inf"), "{text}");
        assert!(text.contains("g_nan NaN"), "{text}");
    }

    #[test]
    fn label_value_escaping_roundtrips() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");

        let name = labeled("pls_entry_hits_total", &[("key", "so\"ng\\1\n"), ("entry", "e1")]);
        assert_eq!(name, "pls_entry_hits_total{key=\"so\\\"ng\\\\1\\n\",entry=\"e1\"}");
        let (family, labels) = parse_labels(&name).unwrap();
        assert_eq!(family, "pls_entry_hits_total");
        assert_eq!(
            labels,
            vec![
                ("key".to_string(), "so\"ng\\1\n".to_string()),
                ("entry".to_string(), "e1".to_string())
            ]
        );
    }

    #[test]
    fn labeled_without_labels_and_parse_edge_cases() {
        assert_eq!(labeled("pls_keys", &[]), "pls_keys");
        assert_eq!(parse_labels("pls_keys"), Some(("pls_keys", Vec::new())));
        assert_eq!(parse_labels("x{}"), Some(("x", Vec::new())));
        assert_eq!(parse_labels("x{k=\"v\""), None); // missing closing brace
        assert_eq!(parse_labels("x{k=\"v}"), None); // unterminated quote
        assert_eq!(parse_labels("x{kv}"), None); // missing =
    }

    #[test]
    fn escaped_label_values_survive_exposition() {
        let mut s = MetricsSnapshot::new();
        s.push_counter(labeled("hits_total", &[("key", "a\"b\\c")]), 3);
        let text = s.to_prometheus();
        assert!(text.contains("hits_total{key=\"a\\\"b\\\\c\"} 3"), "{text}");
    }

    #[test]
    fn counter_families_end_in_total_and_buckets_are_cumulative_to_inf() {
        // The conformance points scrapers actually depend on: every
        // `# TYPE ... counter` family name carries the `_total` suffix,
        // and each histogram's bucket series is non-decreasing and ends
        // at `+Inf` with the total count.
        let mut s = MetricsSnapshot::new();
        s.push_counter("reqs_total{op=\"a\"}", 1);
        s.push_counter("keys", 5); // unsuffixed => exposed as gauge
        s.push_histogram("lat_us", hist(&[1, 100, 10_000]));
        let text = s.to_prometheus();

        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            let mut parts = line.split_whitespace().skip(2);
            let (family, kind) = (parts.next().unwrap(), parts.next().unwrap());
            if kind == "counter" {
                assert!(family.ends_with("_total"), "{line}");
            }
        }

        let mut last = 0u64;
        let mut saw_inf = false;
        for line in text.lines().filter(|l| l.starts_with("lat_us_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets must be cumulative: {text}");
            last = v;
            saw_inf |= line.contains("le=\"+Inf\"");
        }
        assert!(saw_inf, "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"), "{text}");
    }

    #[test]
    fn every_family_gets_a_help_line_and_registered_text_wins() {
        let mut s = MetricsSnapshot::new();
        s.push_counter("reqs_total{op=\"a\"}", 1);
        s.push_counter("reqs_total{op=\"b\"}", 2);
        s.push_gauge("level", 0.5);
        s.push_histogram("lat_us", hist(&[1, 2]));
        s.set_help("reqs_total", "Requests handled, by operation.");
        let text = s.to_prometheus();

        // Registered help text is used verbatim; others are generated.
        assert!(text.contains("# HELP reqs_total Requests handled, by operation."), "{text}");
        for family in ["reqs_total", "level", "lat_us"] {
            assert_eq!(text.matches(&format!("# HELP {family} ")).count(), 1, "{text}");
            // HELP precedes TYPE for the same family.
            let help_at = text.find(&format!("# HELP {family} ")).unwrap();
            let type_at = text.find(&format!("# TYPE {family} ")).unwrap();
            assert!(help_at < type_at, "{text}");
        }
    }

    #[test]
    fn help_text_is_escaped_and_merge_keeps_existing_help() {
        let mut a = MetricsSnapshot::new();
        a.push_counter("c_total", 1);
        a.set_help("c_total", "line one\nwith \\ backslash");
        let text = a.to_prometheus();
        assert!(text.contains("# HELP c_total line one\\nwith \\\\ backslash"), "{text}");

        let mut b = MetricsSnapshot::new();
        b.set_help("c_total", "other text");
        b.set_help("d_total", "new family");
        a.merge(&b);
        assert!(a.to_prometheus().contains("# HELP c_total line one"), "first help wins");
        assert_eq!(a.helps.iter().find(|(f, _)| f == "d_total").unwrap().1, "new family");
    }

    #[test]
    fn labeled_histograms_share_one_family_block() {
        let mut s = MetricsSnapshot::new();
        s.push_histogram("wait_us{site=\"wal\"}", hist(&[3]));
        s.push_histogram("wait_us{site=\"engines\"}", hist(&[1, 1]));
        s.set_help("wait_us", "Lock wait.");
        let text = s.to_prometheus();
        assert_eq!(
            text.matches("# HELP wait_us Lock wait.\n# TYPE wait_us histogram\n").count(),
            1
        );
        assert!(!text.contains("}_"), "labels must sit inside the sample's braces: {text}");
        assert!(text.contains("wait_us_bucket{site=\"wal\",le=\"+Inf\"} 1\n"), "{text}");
        assert!(text.contains("wait_us_sum{site=\"wal\"} 3\n"), "{text}");
        assert!(text.contains("wait_us_count{site=\"engines\"} 2\n"), "{text}");
    }

    #[test]
    fn exposition_order_is_stable_across_insertion_orders() {
        let mut a = MetricsSnapshot::new();
        a.push_counter("z_total", 1);
        a.push_counter("a_total", 2);
        a.push_gauge("m_gauge", 0.5);
        a.push_histogram("h", hist(&[3]));

        let mut b = MetricsSnapshot::new();
        b.push_histogram("h", hist(&[3]));
        b.push_gauge("m_gauge", 0.5);
        b.push_counter("a_total", 2);
        b.push_counter("z_total", 1);

        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }
}
