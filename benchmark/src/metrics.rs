//! The one place the benchmark's metrics are declared. `BENCHMARK.json`
//! at the repository root repeats the names, units, directions and
//! bounds for the tools that run and judge the benchmark; a unit test
//! keeps the two equal.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; layer metrics
    /// have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees and what repeats between runs of the
/// same code. Every workload reports every one of these (the README's
/// table gives each its per-workload meaning), so none may be a quantity
/// that only exists on one workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("recall", "ratio", Higher, 0.1),
    e2e("precision", "ratio", Higher, 0.1),
];

/// The program's run times as a user sees them. On a shared host they
/// drift by 10–35% between runs of the same code, wider than any bound,
/// so they are layer metrics (the whole `lastmile` process as one layer):
/// every run measures and prints them, and a traced run reports those of
/// its untraced phase.
pub const PROGRAM: &[Metric] = &[
    layer("program.p50_ms", "ms", Lower),
    layer("program.p99_ms", "ms", Lower),
    layer("program.cpu_s", "s", Lower),
    layer("program.visible_p50_s", "s", Lower),
];

/// Single-layer numbers from the traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    PROGRAM[0],
    PROGRAM[1],
    PROGRAM[2],
    PROGRAM[3],
    layer("atlas.frame_ns_per_record", "ns", Lower),
    layer("ingest.decode_ns_per_record", "ns", Lower),
    layer("ingest.pass_ms", "ms", Lower),
    layer("ingest.queue_max_depth", "count", Lower),
    layer("core.route_ns_per_record", "ns", Lower),
    layer("core.series_ms", "ms", Lower),
    layer("core.aggregate_ms", "ms", Lower),
    layer("core.detect_ms", "ms", Lower),
    layer("store.hit_ratio", "ratio", Higher),
    layer("store.snapshot_load_ms", "ms", Lower),
    layer("store.snapshot_save_ms", "ms", Lower),
    layer("store.snapshot_bytes", "bytes", Lower),
    layer("cli.decodes_per_record", "ratio", Lower),
    layer("cli.warm_decodes_per_record", "ratio", Lower),
    layer("cli.unattributed_ms", "ms", Lower),
    layer("cli.cold_unattributed_ms", "ms", Lower),
    layer("client.connect_us_p50", "us", Lower),
    layer("client.ttfb_ms_p50", "ms", Lower),
    layer("client.ttfb_ms_p99", "ms", Lower),
    layer("client.body_us_p50", "us", Lower),
    layer("client.lateness_ms_p99", "ms", Lower),
    layer("client.post_ack_ms_p50", "ms", Lower),
    layer("serve.handler_us_p50", "us", Lower),
    layer("serve.handler_us_p99", "us", Lower),
    layer("serve.unattributed_ms_p50", "ms", Lower),
    layer("serve.queue_max_depth", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.max_rps", "1/s", Higher),
    layer("setup.analysis_ms", "ms", Lower),
    layer("live.pass_ms_p50", "ms", Lower),
    layer("live.passes", "count", Higher),
    layer("live.decoded_per_appended", "ratio", Lower),
    layer("live.swap_us_p50", "us", Lower),
    layer("live.visible_p90_s", "s", Lower),
    layer("live.unattributed_ms_p50", "ms", Lower),
    layer("overhead.p50_ms", "ms", Lower),
    layer("overhead.p99_ms", "ms", Lower),
    layer("overhead.cpu_s", "s", Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The JSON result line a run ends with: `{"correct", "attempted",
/// "failed", "metrics"}` with exactly the `declared` metrics, each with
/// its unit. A declared metric that was not measured, or measured as a
/// non-finite number, is an error naming it.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in declared {
        let value = values
            .get(m.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} measured as {value}", m.name));
        }
        metrics.push((
            m.name.to_string(),
            serde_json::Value::Object(vec![
                ("value".to_string(), serde_json::to_value(&value)),
                ("unit".to_string(), serde_json::Value::String(m.unit.into())),
            ]),
        ));
    }
    let doc = serde_json::Value::Object(vec![
        ("correct".to_string(), serde_json::Value::Bool(correct)),
        ("attempted".to_string(), serde_json::to_value(&attempted)),
        ("failed".to_string(), serde_json::to_value(&failed)),
        ("metrics".to_string(), serde_json::Value::Object(metrics)),
    ]);
    Ok(serde_json::to_string(&doc).expect("result line encodes"))
}

/// The declaration of `name`, end-to-end or per-layer.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn manifest() -> serde_json::Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc[key]
            .as_array()
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                    m["better"].as_str().expect("better").to_string(),
                    m["bound"].as_f64(),
                )
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        list.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn declarations_equal_benchmark_json() {
        let doc = manifest();
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn result_line_names_a_missing_or_non_finite_metric() {
        let mut values = Values::new();
        values.insert("setup_s", 1.5);
        let m = &END_TO_END[..1];
        let line = result_line(true, 3, 0, m, &values).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#
        );
        assert!(result_line(true, 1, 0, &END_TO_END[..2], &values)
            .unwrap_err()
            .contains("peak_rss_mb"));
        values.insert("setup_s", f64::NAN);
        assert!(result_line(true, 1, 0, m, &values).is_err());
    }
}
