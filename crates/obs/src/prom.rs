//! Prometheus text exposition (format 0.0.4) for the daemon's metrics
//! surface, plus a strict exposition linter the tests and `lastmile
//! lint` hold the encoder to.
//!
//! The JSON `/metrics` document stays the canonical bespoke schema;
//! this module renders the *same* declared metrics — every entry of the
//! crate's `metrics!` tables, walked by one loop over the snapshots'
//! visitors — as `# TYPE`-annotated families with stable `lastmile_`-
//! prefixed names so a stock Prometheus scraper ingests the daemon with
//! zero glue. Conventions held (and enforced by [`lint`]):
//!
//! * counters end in `_total`;
//! * histograms render **cumulative** `_bucket{le="…"}` series ending in
//!   `le="+Inf"`, plus `_sum` and `_count`, with `_count` equal to the
//!   `+Inf` bucket;
//! * per-endpoint request latency uses one family with an `endpoint`
//!   label; admission accounting uses a `cost_class` label;
//! * every family's samples are contiguous and each series is unique.
//!
//! The encoder is dependency-free: plain `String` assembly from the
//! snapshots, whose histograms keep their full buckets.

use crate::hist::{Histogram, HistogramSummary};
use crate::{
    Kind, LiveMetricsSnapshot, Metric, RunMetricsSnapshot, ServeMetricsSnapshot, Value, Visitor,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// The `Content-Type` a Prometheus scraper expects for this body.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One family's exposition block: HELP and TYPE from its first
/// declaration, then every sample of every field that shares it.
struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    samples: String,
}

impl Family {
    fn sample(&mut self, suffix: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        let _ = write!(self.samples, "{}{suffix}", self.name);
        if !labels.is_empty() {
            let inner = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(self.samples, "{{{inner}}}");
        }
        let _ = writeln!(self.samples, " {value}");
    }

    /// A histogram series: cumulative non-empty buckets + `+Inf`, then
    /// `_sum` and `_count`.
    fn histogram(&mut self, labels: &[(&str, &str)], h: &Histogram) {
        let mut cumulative = 0u64;
        for (upper, count) in h.nonzero_buckets() {
            cumulative += count;
            let le = upper.to_string();
            self.sample("_bucket", &with(labels, ("le", &le)), cumulative);
        }
        self.sample("_bucket", &with(labels, ("le", "+Inf")), h.count());
        self.sample("_sum", labels, h.sum());
        self.sample("_count", labels, h.count());
    }

    /// Per-quantile gauges for a histogram only known by its summary.
    fn quantiles(&mut self, labels: &[(&str, &str)], s: &HistogramSummary) {
        for (q, v) in [
            ("0.5", s.p50_nanos),
            ("0.9", s.p90_nanos),
            ("0.99", s.p99_nanos),
            ("max", s.max_nanos),
        ] {
            self.sample("", &with(labels, ("quantile", q)), v);
        }
    }
}

/// `labels` plus one more pair.
fn with<'a>(labels: &[(&'a str, &'a str)], extra: (&'a str, &'a str)) -> Vec<(&'a str, &'a str)> {
    labels.iter().copied().chain([extra]).collect()
}

/// Render the full metrics surface as Prometheus exposition text: every
/// declared metric of the three snapshots, one family per declared
/// family name, families in declaration order.
pub fn render(
    run: &RunMetricsSnapshot,
    serve: &ServeMetricsSnapshot,
    live: &LiveMetricsSnapshot,
) -> String {
    let mut families: Vec<Family> = Vec::new();
    let mut sink = |m: &Metric| {
        let at = match families.iter().position(|f| f.name == m.family) {
            Some(at) => at,
            None => {
                families.push(Family {
                    name: m.family,
                    kind: match (m.kind, m.value) {
                        (Kind::Counter, _) => "counter",
                        (_, Value::Histogram(_)) => "histogram",
                        _ => "gauge",
                    },
                    help: m.help,
                    samples: String::new(),
                });
                families.len() - 1
            }
        };
        let family = &mut families[at];
        if family.help.is_empty() {
            family.help = m.help;
        }
        match m.value {
            Value::U64(v) => family.sample("", m.labels, v),
            Value::F64(v) => family.sample("", m.labels, v),
            Value::Histogram(h) => family.histogram(m.labels, h),
            Value::Quantiles(s) => family.quantiles(m.labels, s),
        }
    };
    let mut v = Visitor::new(&mut sink);
    run.visit(&mut v);
    serve.visit(&mut v);
    live.visit(&mut v);

    let mut out = String::with_capacity(16 * 1024);
    for f in &families {
        let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
        out.push_str(&f.samples);
    }
    out
}

// --- linter ---

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(token: &str) -> Option<f64> {
    match token {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => token.parse::<f64>().ok(),
    }
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parse `name{k="v",…} value` (no timestamps — the encoder never emits
/// them, and the linter treats trailing tokens as errors).
fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name '{name}'"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(stripped) = rest.strip_prefix('{') {
        let close = stripped
            .find('}')
            .ok_or_else(|| "unterminated label set".to_string())?;
        // Label values never contain an unescaped '}' in our encoder;
        // a raw '}' inside a quoted value would truncate here and then
        // fail the pair syntax below, so malformed input still errors.
        let body = &stripped[..close];
        rest = &stripped[close + 1..];
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                return Err("empty label pair (trailing comma?)".into());
            }
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("label pair '{pair}' missing '='"))?;
            if !valid_label_name(k) {
                return Err(format!("invalid label name '{k}'"));
            }
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("label value for '{k}' not quoted"))?;
            labels.push((k.to_string(), v.to_string()));
        }
    }
    let mut tokens = rest.split_ascii_whitespace();
    let value_token = tokens
        .next()
        .ok_or_else(|| "sample has no value".to_string())?;
    if tokens.next().is_some() {
        return Err("unexpected tokens after the value (timestamps are not emitted)".into());
    }
    let value = parse_value(value_token).ok_or_else(|| format!("invalid value '{value_token}'"))?;
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Histogram bookkeeping for one `(family, labels-without-le)` series.
#[derive(Default)]
struct HistGroup {
    buckets: Vec<(f64, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Strictly lint Prometheus exposition text: syntax, `# TYPE` before
/// samples, contiguous families, unique series, counter `_total`
/// suffixes, and cumulative histograms whose `_count` equals the
/// `+Inf` bucket. Returns every violation found.
pub fn lint(text: &str) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut sampled: HashSet<String> = HashSet::new();
    let mut finished: HashSet<String> = HashSet::new();
    let mut current_family: Option<String> = None;
    let mut series_seen: HashSet<String> = HashSet::new();
    let mut hist_groups: BTreeMap<(String, String), HistGroup> = BTreeMap::new();

    for (n, raw) in text.lines().enumerate() {
        let lineno = n + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_ascii_whitespace();
                let (name, kind) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(name), Some(kind), None) => (name, kind),
                    _ => {
                        errors.push(format!("line {lineno}: malformed TYPE line"));
                        continue;
                    }
                };
                if !valid_metric_name(name) {
                    errors.push(format!("line {lineno}: invalid family name '{name}'"));
                    continue;
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    errors.push(format!("line {lineno}: unknown metric type '{kind}'"));
                    continue;
                }
                if kind == "counter" && !name.ends_with("_total") {
                    errors.push(format!(
                        "line {lineno}: counter '{name}' does not end in _total"
                    ));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    errors.push(format!("line {lineno}: duplicate TYPE for '{name}'"));
                }
                if sampled.contains(name) {
                    errors.push(format!(
                        "line {lineno}: TYPE for '{name}' appears after its samples"
                    ));
                }
            }
            // HELP and free comments need no further validation.
            continue;
        }
        let sample = match parse_sample(line) {
            Ok(sample) => sample,
            Err(e) => {
                errors.push(format!("line {lineno}: {e}"));
                continue;
            }
        };
        // Resolve the family: histogram samples are suffixed.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = sample.name.strip_suffix(suffix)?;
                (types.get(base).map(String::as_str) == Some("histogram")).then(|| base.to_string())
            })
            .unwrap_or_else(|| sample.name.clone());
        let kind = match types.get(&family) {
            Some(kind) => kind.clone(),
            None => {
                errors.push(format!(
                    "line {lineno}: sample '{}' has no preceding TYPE",
                    sample.name
                ));
                continue;
            }
        };
        sampled.insert(family.clone());
        if current_family.as_deref() != Some(family.as_str()) {
            if let Some(prev) = current_family.take() {
                finished.insert(prev);
            }
            if finished.contains(&family) {
                errors.push(format!(
                    "line {lineno}: samples of '{family}' are not contiguous"
                ));
            }
            current_family = Some(family.clone());
        }
        let mut sorted = sample.labels.clone();
        sorted.sort();
        let series_key = format!("{}|{sorted:?}", sample.name);
        if !series_seen.insert(series_key) {
            errors.push(format!(
                "line {lineno}: duplicate series '{}' {:?}",
                sample.name, sample.labels
            ));
        }
        if kind == "histogram" {
            if sample.name == family {
                errors.push(format!(
                    "line {lineno}: histogram '{family}' must only emit _bucket/_sum/_count"
                ));
                continue;
            }
            let mut group_labels: Vec<(String, String)> = sample
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            group_labels.sort();
            let key = (family.clone(), format!("{group_labels:?}"));
            let group = hist_groups.entry(key).or_default();
            if sample.name.ends_with("_bucket") {
                match sample.labels.iter().find(|(k, _)| k == "le") {
                    Some((_, le)) => match parse_value(le) {
                        Some(le) => group.buckets.push((le, sample.value)),
                        None => errors.push(format!("line {lineno}: invalid le '{le}'")),
                    },
                    None => {
                        errors.push(format!("line {lineno}: _bucket sample without an le label"))
                    }
                }
            } else if sample.name.ends_with("_sum") {
                group.sum = Some(sample.value);
            } else {
                group.count = Some(sample.value);
            }
        }
    }

    for (name, _) in types.iter() {
        if !sampled.contains(name) {
            errors.push(format!("family '{name}' declares a TYPE but no samples"));
        }
    }
    for ((family, labels), group) in &hist_groups {
        let series = format!("histogram '{family}' {labels}");
        if group.buckets.is_empty() {
            errors.push(format!("{series}: no _bucket samples"));
            continue;
        }
        for pair in group.buckets.windows(2) {
            if pair[1].0 <= pair[0].0 {
                errors.push(format!("{series}: le bounds not strictly increasing"));
            }
            if pair[1].1 < pair[0].1 {
                errors.push(format!("{series}: bucket values not cumulative"));
            }
        }
        let (last_le, last_value) = *group.buckets.last().expect("non-empty");
        if last_le != f64::INFINITY {
            errors.push(format!("{series}: last bucket is not le=\"+Inf\""));
        }
        match group.count {
            Some(count) if count == last_value => {}
            Some(count) => errors.push(format!(
                "{series}: _count {count} != +Inf bucket {last_value}"
            )),
            None => errors.push(format!("{series}: missing _count")),
        }
        if group.sum.is_none() {
            errors.push(format!("{series}: missing _sum"));
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveMetrics, RunMetrics, ServeEndpoint, ServeMetrics};
    use std::sync::atomic::Ordering;

    fn rendered() -> String {
        let run = RunMetrics::new();
        run.traceroutes_ingested.fetch_add(120, Ordering::Relaxed);
        run.populations_analyzed.fetch_add(1, Ordering::Relaxed);
        run.populations_with_detection
            .fetch_add(1, Ordering::Relaxed);
        let serve = ServeMetrics::new();
        serve.accepted.fetch_add(9, Ordering::Relaxed);
        serve.admission.heavy.budget.store(2, Ordering::Relaxed);
        assert!(serve.admission.heavy.try_acquire());
        serve.record_request(ServeEndpoint::Classify, 1_200_000);
        serve.record_request(ServeEndpoint::Classify, 3_400_000);
        serve.record_request(ServeEndpoint::Healthz, 9_000);
        serve.record_rejected(4_000);
        let live = LiveMetrics::new();
        live.records_ingested.fetch_add(77, Ordering::Relaxed);
        live.epoch.store(3, Ordering::Relaxed);
        render(&run.snapshot(), &serve.snapshot(), &live.snapshot())
    }

    #[test]
    fn rendered_exposition_passes_the_linter() {
        let text = rendered();
        if let Err(errors) = lint(&text) {
            panic!("linter rejected our own exposition:\n{}", errors.join("\n"));
        }
        // Spot checks: stable names, labels, and the histogram triplet.
        for needle in [
            "# TYPE lastmile_run_traceroutes_ingested_total counter",
            "lastmile_run_traceroutes_ingested_total 120",
            "lastmile_serve_admission_budget{cost_class=\"heavy\"} 2",
            "lastmile_serve_admission_admitted_total{cost_class=\"heavy\"} 1",
            "# TYPE lastmile_serve_request_duration_nanos histogram",
            "lastmile_serve_request_duration_nanos_bucket{endpoint=\"classify\",le=\"+Inf\"} 2",
            "lastmile_serve_request_duration_nanos_count{endpoint=\"classify\"} 2",
            "lastmile_serve_request_duration_nanos_count{endpoint=\"healthz\"} 1",
            "lastmile_live_epoch 3",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
    }

    #[test]
    fn histogram_count_matches_json_summary_count() {
        let serve = ServeMetrics::new();
        for nanos in [10u64, 200, 3_000, 40_000] {
            serve.record_request(ServeEndpoint::Series, nanos);
        }
        let text = render(
            &RunMetrics::new().snapshot(),
            &serve.snapshot(),
            &LiveMetrics::new().snapshot(),
        );
        let count = serve.snapshot().latency.series.count;
        assert!(text.contains(&format!(
            "lastmile_serve_request_duration_nanos_count{{endpoint=\"series\"}} {count}"
        )));
        // The _sum is the exact nanosecond total, not a bucketed figure.
        assert!(
            text.contains("lastmile_serve_request_duration_nanos_sum{endpoint=\"series\"} 43210")
        );
    }

    #[test]
    fn empty_metrics_render_a_lintable_document() {
        let text = render(
            &RunMetrics::new().snapshot(),
            &ServeMetrics::new().snapshot(),
            &LiveMetrics::new().snapshot(),
        );
        assert!(lint(&text).is_ok(), "{:?}", lint(&text));
        // Even an empty histogram series keeps the +Inf/_sum/_count triplet.
        assert!(text.contains(
            "lastmile_serve_request_duration_nanos_bucket{endpoint=\"ingest\",le=\"+Inf\"} 0"
        ));
    }

    #[test]
    fn linter_rejects_untyped_samples_and_bad_names() {
        let errs = lint("lastmile_x_total 1\n").unwrap_err();
        assert!(errs[0].contains("no preceding TYPE"), "{errs:?}");
        let errs = lint("# TYPE 9bad counter\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("invalid family name")));
        let errs =
            lint("# TYPE lastmile_a_total counter\nlastmile_a_total{9x=\"v\"} 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("invalid label name")));
        let errs = lint("# TYPE lastmile_a_total counter\nlastmile_a_total nope\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("invalid value")));
    }

    #[test]
    fn linter_rejects_counters_without_total_suffix() {
        let errs = lint("# TYPE lastmile_requests counter\nlastmile_requests 4\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("does not end in _total")));
    }

    #[test]
    fn linter_rejects_duplicate_and_interleaved_series() {
        let text = "# TYPE a_total counter\na_total 1\na_total 2\n";
        let errs = lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("duplicate series")));
        let text = "# TYPE a_total counter\n# TYPE b gauge\na_total 1\nb 2\na_total{k=\"v\"} 3\n";
        let errs = lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not contiguous")));
    }

    #[test]
    fn linter_enforces_histogram_invariants() {
        // Non-cumulative buckets.
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n";
        let errs = lint(text).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("not cumulative")),
            "{errs:?}"
        );
        // Missing +Inf.
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        let errs = lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not le=\"+Inf\"")));
        // _count disagreeing with the +Inf bucket.
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        let errs = lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= +Inf bucket")));
        // Missing _sum.
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n";
        let errs = lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing _sum")));
        // A correct histogram with labels passes.
        let text = "# TYPE h histogram\n\
                    h_bucket{endpoint=\"a\",le=\"1\"} 2\n\
                    h_bucket{endpoint=\"a\",le=\"+Inf\"} 3\n\
                    h_sum{endpoint=\"a\"} 12\n\
                    h_count{endpoint=\"a\"} 3\n";
        assert!(lint(text).is_ok(), "{:?}", lint(text));
    }

    #[test]
    fn linter_flags_type_declared_but_never_sampled() {
        let errs = lint("# TYPE lastmile_ghost gauge\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no samples")));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
