//! `lastmile-benchmark compare A.json B.json`: judge results file B (the
//! change) against A (the parent), one metric and workload at a time,
//! over the untraced runs, by the rule the benchmark's bounds are written
//! for:
//!
//! * **improved** — B wins at least nine tenths of the pairs (ties count
//!   for neither) and the medians differ by more than A's quartile
//!   spread;
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **unresolved** — A's own spread is wider than the bound, unless
//!   every run of B reads better than every run of A;
//! * **within-bound** — otherwise.
//!
//! The `program.*` run times have no bound: they read **improved**,
//! **worsened** (the improved rule with the sides swapped; it does not
//! fail the comparison) or **unresolved**.
//!
//! Runs pair up in file order (the same seeds, when both files were
//! written by `run` with the same `--seed` and `--reps`).

use crate::metrics::{Better, Metric, END_TO_END, PROGRAM};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use serde_json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Improved,
    Worsened,
    WithinBound,
    Unresolved,
    Regressed,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Improved => "improved",
            Kind::Worsened => "worsened",
            Kind::WithinBound => "within-bound",
            Kind::Unresolved => "unresolved",
            Kind::Regressed => "regressed",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub a_median: f64,
    pub b_median: f64,
    /// A's quartile spread as a share of its median.
    pub a_spread: f64,
    /// How much worse B's median is than A's, as a share of A's;
    /// negative when better.
    pub worse_by: f64,
    pub wins: usize,
    pub pairs: usize,
    pub kind: Kind,
}

pub fn judge(a: &[f64], b: &[f64], metric: &Metric) -> Verdict {
    // Positive `sign * (x - y)` means x is worse than y.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (a_median, b_median) = (median(a), median(b));
    let scale = a_median.abs().max(f64::MIN_POSITIVE);
    let worse_by = sign * (b_median - a_median) / scale;
    let (q1, q3) = quartiles(a).unwrap_or((a_median, a_median));
    let a_iqr = q3 - q1;
    let a_spread = a_iqr / scale;
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (**y - **x) < 0.0)
        .count();
    let losses = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (**y - **x) > 0.0)
        .count();
    let every_b_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    let resolved = (b_median - a_median).abs() > a_iqr;
    let kind = if worse_by < 0.0 && wins * 10 >= pairs * 9 && resolved {
        Kind::Improved
    } else if let Some(bound) = metric.bound {
        if worse_by > bound {
            Kind::Regressed
        } else if a_spread > bound && !every_b_better {
            Kind::Unresolved
        } else {
            Kind::WithinBound
        }
    } else if worse_by > 0.0 && losses * 10 >= pairs * 9 && resolved {
        Kind::Worsened
    } else {
        Kind::Unresolved
    };
    Verdict {
        a_median,
        b_median,
        a_spread,
        worse_by,
        wins,
        pairs,
        kind,
    }
}

/// The values of `metric` over `doc`'s untraced runs of `workload`, in
/// file order: from the result line, or for a `program.*` time from the
/// run's `program` map.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc["runs"]
        .as_array()
        .map(|runs| {
            runs.iter()
                .filter(|r| {
                    r["workload"].as_str() == Some(workload) && r["trace"] == Value::Bool(false)
                })
                .filter_map(|r| {
                    r["result"]["metrics"][metric]["value"]
                        .as_f64()
                        .or_else(|| r["program"][metric].as_f64())
                })
                .collect()
        })
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the verdict table; false when anything regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: lastmile-benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "A spread", "B worse", "B wins", "bound"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        for m in END_TO_END.iter().chain(PROGRAM) {
            let (av, bv) = (values(&a, w.name(), m.name), values(&b, w.name(), m.name));
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let v = judge(&av, &bv, m);
            regressed |= v.kind == Kind::Regressed;
            println!(
                "{:<14} {:<22} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>3}/{:<3} {:>6}  {}",
                w.name(),
                m.name,
                v.a_median,
                v.b_median,
                v.a_spread * 100.0,
                v.worse_by * 100.0,
                v.wins,
                v.pairs,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                v.kind.as_str()
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn m(name: &str) -> &'static Metric {
        find(name).expect("declared metric")
    }

    #[test]
    fn same_distribution_is_within_bound() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        let b = [10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 10.0, 9.9, 10.2];
        let v = judge(&a, &b, m("setup_s"));
        assert_eq!(v.kind, Kind::WithinBound, "{v:?}");
        assert_eq!(v.pairs, 10);
    }

    #[test]
    fn a_clear_win_is_improved_and_a_clear_loss_regressed() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.5).collect();
        assert_eq!(judge(&a, &faster, m("setup_s")).kind, Kind::Improved);
        let slower: Vec<f64> = a.iter().map(|x| x * 2.0).collect();
        let v = judge(&a, &slower, m("setup_s"));
        assert_eq!(v.kind, Kind::Regressed);
        assert!((v.worse_by - 1.0).abs() < 1e-9);
        // Direction flips for higher-is-better metrics.
        assert_eq!(judge(&a, &slower, m("recall")).kind, Kind::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0, 10.0];
        let b = [10.0, 10.5, 9.5, 10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 10.0];
        assert_eq!(judge(&a, &b, m("setup_s")).kind, Kind::Unresolved);
    }

    #[test]
    fn a_time_without_a_bound_is_improved_worsened_or_unresolved() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        let time = m("program.p50_ms");
        let faster: Vec<f64> = a.iter().map(|x| x * 0.5).collect();
        assert_eq!(judge(&a, &faster, time).kind, Kind::Improved);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.1).collect();
        assert_eq!(judge(&a, &slower, time).kind, Kind::Worsened);
        assert_eq!(judge(&a, &a, time).kind, Kind::Unresolved);
    }

    #[test]
    fn values_reads_untraced_runs_of_one_workload() {
        let doc: Value = serde_json::from_str(
            r#"{"runs":[
                {"workload":"serve_read","trace":false,"result":{"metrics":{"setup_s":{"value":1.5,"unit":"s"}}},"program":{"program.p50_ms":2.8}},
                {"workload":"serve_read","trace":true,"result":{"metrics":{"setup_s":{"value":9.0,"unit":"s"}}}},
                {"workload":"classify_cold","trace":false,"result":{"metrics":{"setup_s":{"value":7.0,"unit":"s"}}}},
                {"workload":"serve_read","trace":false,"result":{"metrics":{"setup_s":{"value":2.5,"unit":"s"}}},"program":{"program.p50_ms":2.9}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "serve_read", "setup_s"), vec![1.5, 2.5]);
        assert_eq!(values(&doc, "serve_read", "program.p50_ms"), vec![2.8, 2.9]);
    }
}
