//! Shared harness context: options, cached heavy computations, CSV output.

use lastmile_repro::core::pipeline::{PipelineConfig, PopulationAnalysis};
use lastmile_repro::core::report::SurveyReport;
use lastmile_repro::netsim::scenarios::survey::{survey_world, SurveyConfig, SurveyScenario};
use lastmile_repro::netsim::TracerouteEngine;
use lastmile_repro::netsim::World;
use lastmile_repro::obs::trace;
use lastmile_repro::runner::{
    analyze_population_with, eyeballs_from_ground_truth, run_survey, run_tasks, ProbeSelection,
    SurveyOptions,
};
use lastmile_repro::timebase::MeasurementPeriod;
use std::io::Write;
use std::sync::OnceLock;

/// Harness options plus lazily computed shared state.
pub struct Ctx {
    /// Master seed for every world.
    pub seed: u64,
    /// Number of survey ASes (paper: 646).
    pub survey_ases: usize,
    /// Output directory for CSVs.
    pub out_dir: String,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    survey: OnceLock<(SurveyScenario, SurveyReport)>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            seed: 20200427,
            survey_ases: 646,
            out_dir: "results".to_string(),
            threads: 0,
            survey: OnceLock::new(),
        }
    }
}

impl Ctx {
    /// The survey scenario and its classification report over all seven
    /// periods — computed once, shared by fig3/fig4/summary.
    pub fn survey(&self) -> &(SurveyScenario, SurveyReport) {
        self.survey.get_or_init(|| {
            eprintln!(
                "[survey] simulating {} ASes x 7 periods (use --scale to shrink)...",
                self.survey_ases
            );
            let scenario = survey_world(&SurveyConfig {
                seed: self.seed,
                n_ases: self.survey_ases,
                max_probes_per_as: 20,
            });
            let eyeballs = eyeballs_from_ground_truth(&scenario.ground_truth);
            let report = run_survey(
                &scenario.world,
                &MeasurementPeriod::survey_periods(),
                &eyeballs,
                &SurveyOptions {
                    threads: self.threads,
                    ..Default::default()
                },
            );
            (scenario, report)
        })
    }

    /// Write a CSV file into the output directory, creating the
    /// directory first if needed.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            panic!(
                "cannot create output directory {:?}: {e} \
                 (pass a writable directory via --out)",
                self.out_dir
            );
        }
        let path = format!("{}/{}", self.out_dir, name);
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create CSV {path:?}: {e}"));
        writeln!(f, "{header}").expect("write CSV header");
        for row in rows {
            writeln!(f, "{row}").expect("write CSV row");
        }
        eprintln!("[csv] wrote {path} ({} rows)", rows.len());
    }
}

/// Analyse several (ASN, period, selection) populations in parallel on
/// `threads` workers (`0` = one per core).
///
/// Jobs run on [`run_tasks`], the work-stealing executor, so a worker
/// that lands on a probe-heavy population simply takes fewer jobs —
/// static chunking let one heavy chunk bound the whole run. All workers
/// share one traceroute engine. Results come back in job order
/// regardless of scheduling.
pub fn analyze_many(
    threads: usize,
    world: &World,
    jobs: &[(u32, MeasurementPeriod, ProbeSelection)],
    cfg: &PipelineConfig,
) -> Vec<PopulationAnalysis> {
    let engine = TracerouteEngine::new(world);
    run_tasks(threads, "analysis", jobs.len(), |i| {
        let (asn, period, selection) = &jobs[i];
        let _span = trace::span_with("population", |a| {
            a.u64("asn", u64::from(*asn)).str("period", period.label());
        });
        analyze_population_with(&engine, *asn, period, *cfg, selection)
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|e| panic!("population analysis panicked: {e}")))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_repro::netsim::scenarios::tokyo::{tokyo_world, ISP_A_ASN, ISP_B_ASN, ISP_C_ASN};
    use std::collections::HashMap;

    #[test]
    fn analyze_many_runs_on_the_threads_it_is_given() {
        let tracer = trace::install();
        let world = tokyo_world(1);
        let period = MeasurementPeriod::tokyo_cdn_2019();
        let jobs: Vec<_> = [ISP_A_ASN, ISP_B_ASN, ISP_C_ASN]
            .into_iter()
            .map(|asn| (asn, period, ProbeSelection::in_area("Tokyo")))
            .collect();
        let analyses = analyze_many(1, &world, &jobs, &PipelineConfig::paper());
        assert_eq!(analyses.len(), jobs.len());

        let mut json = Vec::new();
        tracer.drain_chrome_json(&mut json).unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&json).unwrap()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        let thread_names: HashMap<u64, &str> = events
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| {
                (
                    e["tid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap(),
                )
            })
            .collect();
        let threads: Vec<&str> = events
            .iter()
            .filter(|e| e["name"] == "population" && e["ph"] == "B")
            .map(|e| thread_names[&e["tid"].as_u64().unwrap()])
            .collect();
        assert_eq!(threads, vec!["analysis-0"; jobs.len()]);
    }
}
