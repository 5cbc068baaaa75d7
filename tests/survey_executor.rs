//! Survey executor invariants.
//!
//! The §3 driver runs its (AS, period) tasks on the work-stealing
//! executor (`runner::run_tasks`). Two properties must hold regardless
//! of scheduling:
//!
//! * **Determinism** — the report is identical for every thread count
//!   (the simulation is seed-addressed and rows are sorted by
//!   `(asn, period)`); the one-worker run is the reference.
//! * **Failure isolation** — a panic while analysing one population is
//!   confined to that task: it becomes a [`SurveyFailure`] row instead
//!   of aborting the survey.

use lastmile_repro::core::report::SurveyReport;
use lastmile_repro::netsim::scenarios::survey::{survey_world, SurveyConfig, SurveyScenario};
use lastmile_repro::obs::RunMetrics;
use lastmile_repro::runner::{eyeballs_from_ground_truth, run_survey, SurveyOptions};
use lastmile_repro::timebase::MeasurementPeriod;
use std::sync::Arc;

fn small_survey() -> SurveyScenario {
    survey_world(&SurveyConfig {
        seed: 7,
        n_ases: 60,
        max_probes_per_as: 5,
    })
}

fn periods() -> Vec<MeasurementPeriod> {
    MeasurementPeriod::survey_periods()
        .into_iter()
        .take(2)
        .collect()
}

/// Byte-level fingerprint of a report: `Debug` of every row is
/// shortest-roundtrip for floats, so equal strings mean bit-identical
/// values.
fn fingerprint(report: &SurveyReport) -> String {
    format!("{:?} | failures: {:?}", report.rows(), report.failures())
}

#[test]
fn report_is_identical_across_thread_counts() {
    let scenario = small_survey();
    let eyeballs = eyeballs_from_ground_truth(&scenario.ground_truth);
    let periods = periods();

    let run = |threads: usize| {
        let metrics = Arc::new(RunMetrics::new());
        let report = run_survey(
            &scenario.world,
            &periods,
            &eyeballs,
            &SurveyOptions {
                threads,
                metrics: Some(Arc::clone(&metrics)),
                ..Default::default()
            },
        );
        (fingerprint(&report), metrics.snapshot())
    };

    // The one-worker run is the reference schedule.
    let (one, m1) = run(1);
    let (two, m2) = run(2);
    let (auto, _) = run(0);
    assert_eq!(one, two, "1 vs 2 threads");
    assert_eq!(one, auto, "1 vs auto threads");

    // Counters are scheduling-independent too (timings are not).
    assert_eq!(m1.traceroutes_ingested, m2.traceroutes_ingested);
    assert_eq!(m1.populations_analyzed, 60 * 2);
    assert_eq!(m1.populations_analyzed, m2.populations_analyzed);
    assert_eq!(m1.welch_segments, m2.welch_segments);
    assert!(m1.traceroutes_ingested > 0, "survey ingested nothing");
    assert_eq!(m1.tasks_failed, 0);
    assert!(m1.stage_nanos.wall > 0);
}

#[test]
fn poisoned_population_fails_alone() {
    let scenario = small_survey();
    let eyeballs = eyeballs_from_ground_truth(&scenario.ground_truth);
    let periods = periods();
    let poisoned = scenario.ground_truth[1].asn;

    let metrics = Arc::new(RunMetrics::new());
    let report = run_survey(
        &scenario.world,
        &periods,
        &eyeballs,
        &SurveyOptions {
            threads: 2,
            metrics: Some(Arc::clone(&metrics)),
            inject_panic_asn: Some(poisoned),
            ..Default::default()
        },
    );

    // One failure per period for the poisoned AS, with the panic message.
    assert_eq!(report.failures().len(), periods.len());
    for f in report.failures() {
        assert_eq!(f.asn, poisoned);
        assert!(f.reason.contains("injected survey panic"), "{}", f.reason);
    }
    // Every other (AS, period) task still classified.
    assert_eq!(report.rows().len(), (60 - 1) * periods.len());
    assert!(report.rows().iter().all(|r| r.asn != poisoned));
    assert_eq!(metrics.snapshot().tasks_failed, periods.len() as u64);

    // And the same run without poison matches everywhere else.
    let clean = run_survey(
        &scenario.world,
        &periods,
        &eyeballs,
        &SurveyOptions {
            threads: 2,
            ..Default::default()
        },
    );
    assert!(clean.failures().is_empty());
    let clean_minus: Vec<String> = clean
        .rows()
        .iter()
        .filter(|r| r.asn != poisoned)
        .map(|r| format!("{r:?}"))
        .collect();
    let poisoned_rows: Vec<String> = report.rows().iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(clean_minus, poisoned_rows);
}
