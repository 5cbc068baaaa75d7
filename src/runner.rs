//! Orchestration: run the paper's analyses over a simulated world.
//!
//! The analysis crates are substrate-agnostic (they consume traceroutes
//! and log records); this module pairs them with the simulator:
//!
//! * [`analyze_population`] — one AS (optionally restricted to an area or
//!   to anchors) over one measurement period: simulate the built-in
//!   measurements probe by probe, stream them through an
//!   [`AsPipeline`], return the [`PopulationAnalysis`].
//! * [`run_survey`] — the §3 loop: every AS × every period, parallelised
//!   across worker threads with deterministic results (the simulation is
//!   seed-addressed, so thread scheduling cannot change any value).
//! * [`run_tasks`] — the one parallel executor behind the survey, the
//!   experiments harness's population batches and `fleet gen`: indexed
//!   tasks, a work-stealing cursor, per-task panic isolation, results in
//!   task order.
//! * [`eyeballs_from_ground_truth`] — an [`EyeballRegistry`] carrying the
//!   survey scenario's synthetic APNIC ranks and countries.

use lastmile_core::detect::CongestionClass;
use lastmile_core::pipeline::{AsPipeline, PipelineConfig, PopulationAnalysis};
use lastmile_core::report::{AsClassification, SurveyFailure, SurveyReport};
use lastmile_eyeball::{EyeballEntry, EyeballRegistry};
use lastmile_ingest::panic_message;
use lastmile_netsim::scenarios::AsGroundTruth;
use lastmile_netsim::{SimProbe, TracerouteEngine, World};
use lastmile_obs::{
    trace, LiveProgress, PopulationRow, RunMetrics, RunMetricsSnapshot, StageNanos, StageTimer,
};
use lastmile_prefix::Asn;
use lastmile_timebase::MeasurementPeriod;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which probes of an AS a population analysis uses.
#[derive(Clone, Debug, Default)]
pub struct ProbeSelection {
    /// Restrict to probes tagged with this area (e.g. `"Tokyo"`, §4).
    pub area: Option<String>,
    /// `false` (default): regular probes only, anchors excluded (§2);
    /// `true`: anchors only (Appendix B's comparison).
    pub anchors_only: bool,
}

impl ProbeSelection {
    /// Regular probes anywhere in the AS.
    pub fn regular() -> ProbeSelection {
        ProbeSelection::default()
    }

    /// Regular probes within an area.
    pub fn in_area(area: &str) -> ProbeSelection {
        ProbeSelection {
            area: Some(area.to_string()),
            anchors_only: false,
        }
    }

    /// Anchors only.
    pub fn anchors() -> ProbeSelection {
        ProbeSelection {
            area: None,
            anchors_only: true,
        }
    }

    fn matches(&self, probe: &SimProbe) -> bool {
        if probe.meta.is_anchor != self.anchors_only {
            return false;
        }
        match &self.area {
            Some(a) => probe.meta.in_area(a),
            None => true,
        }
    }
}

/// Analyse one AS population over one measurement period.
pub fn analyze_population(
    world: &World,
    asn: Asn,
    period: &MeasurementPeriod,
    cfg: PipelineConfig,
    selection: &ProbeSelection,
) -> PopulationAnalysis {
    analyze_population_with(&TracerouteEngine::new(world), asn, period, cfg, selection)
}

/// Like [`analyze_population`], reusing a prebuilt [`TracerouteEngine`].
/// The survey executor and the experiments harness build one engine and
/// share it across workers and tasks instead of rebuilding it per
/// population.
///
/// Every probe of the selection is simulated and ingested: the
/// simulated survey has no series store. Memoizing per-probe series is
/// the CLI's business (`--cache-dir` on a traceroute corpus), where a
/// re-run over the same window is the common case.
pub fn analyze_population_with(
    engine: &TracerouteEngine,
    asn: Asn,
    period: &MeasurementPeriod,
    cfg: PipelineConfig,
    selection: &ProbeSelection,
) -> PopulationAnalysis {
    let range = period.range();
    let mut pipeline = AsPipeline::new(cfg, range);
    for probe in engine.world().probes_in(asn) {
        if selection.matches(probe) {
            engine.for_each_traceroute(probe, &range, |tr| pipeline.ingest(&tr));
        }
    }
    pipeline.finish()
}

/// Survey driver options.
#[derive(Clone, Debug, Default)]
pub struct SurveyOptions {
    /// Pipeline parameters (default: [`PipelineConfig::paper`]).
    pub pipeline: PipelineConfig,
    /// Worker threads; `0` (the default) means one per available core.
    pub threads: usize,
    /// Metrics sink: when set, every worker accumulates pipeline
    /// counters and stage timings into it (see `lastmile-obs`).
    pub metrics: Option<Arc<RunMetrics>>,
    /// Live gauges for a `--progress` heartbeat: the survey sets
    /// `populations_total` up front and bumps `populations_done` as
    /// tasks complete.
    pub progress: Option<Arc<LiveProgress>>,
    /// Test hook: panic while analysing this AS, exercising the
    /// executor's per-task failure isolation from integration tests.
    #[doc(hidden)]
    pub inject_panic_asn: Option<Asn>,
}

/// Run the §3 survey: classify every AS of the world in every period.
///
/// `eyeballs` supplies rank/country annotations for the report (pass an
/// empty registry to skip them).
///
/// # Scheduling
///
/// Every (AS, period) pair is one task of [`run_tasks`], which `threads`
/// workers claim one at a time — a worker that lands on a probe-heavy AS
/// simply claims fewer tasks, so skewed probe counts cannot idle the
/// other workers (unlike static chunking, where the chunk containing the
/// heavy ASes bounds the whole run). Results are sorted by
/// `(asn, period)` before the report is assembled, and the simulation is
/// seed-addressed, so the report is identical for every thread count.
///
/// # Failure isolation
///
/// A panic while analysing one population is caught per task and
/// surfaced as a [`SurveyFailure`] in [`SurveyReport::failures`]; the
/// remaining tasks still run.
pub fn run_survey(
    world: &World,
    periods: &[MeasurementPeriod],
    eyeballs: &EyeballRegistry,
    options: &SurveyOptions,
) -> SurveyReport {
    let run_timer = StageTimer::start();
    let asns: Vec<Asn> = world.ases().iter().map(|a| a.config.asn).collect();
    let engine = TracerouteEngine::new(world);
    let tasks = asns.len() * periods.len();
    let task_of = |i: usize| (asns[i / periods.len()], &periods[i % periods.len()]);
    if let Some(p) = &options.progress {
        p.populations_total.store(tasks as u64, Ordering::Relaxed);
    }

    let outcomes = run_tasks(options.threads, "survey", tasks, |i| {
        let (asn, period) = task_of(i);
        let _span = trace::span_with("population", |a| {
            a.u64("asn", u64::from(asn)).str("period", period.label());
        });
        let task_timer = StageTimer::start();
        if options.inject_panic_asn == Some(asn) {
            panic!("injected survey panic for AS{asn}");
        }
        let analysis = analyze_population_with(
            &engine,
            asn,
            period,
            options.pipeline,
            &ProbeSelection::regular(),
        );
        if let Some(m) = &options.metrics {
            record_population_metrics(
                m,
                asn,
                period.label(),
                &analysis,
                task_timer.elapsed_nanos(),
            );
        }
        if let Some(p) = &options.progress {
            p.populations_done.fetch_add(1, Ordering::Relaxed);
        }
        classify_row(asn, period, &analysis, eyeballs)
    });

    let mut rows: Vec<AsClassification> = Vec::new();
    let mut failures: Vec<SurveyFailure> = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(row) => rows.push(row),
            Err(reason) => {
                let (asn, period) = task_of(i);
                if let Some(m) = &options.metrics {
                    m.tasks_failed.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(p) = &options.progress {
                    p.populations_done.fetch_add(1, Ordering::Relaxed);
                }
                failures.push(SurveyFailure {
                    asn,
                    period: period.id(),
                    reason,
                });
            }
        }
    }

    // Deterministic order regardless of the world's AS order.
    rows.sort_by_key(|r| (r.asn, r.period));
    failures.sort_by_key(|f| (f.asn, f.period));
    let mut report = SurveyReport::new();
    for row in rows {
        report.push(row);
    }
    for f in failures {
        report.push_failure(f);
    }
    if let Some(m) = &options.metrics {
        m.set_wall(&run_timer);
    }
    report
}

/// The one resolver of `--threads`-style counts, shared with the ingest
/// worker pool (which sits below this crate); see its docs.
pub use lastmile_ingest::{worker_count, MAX_WORKERS};

/// The workspace's one parallel executor: run `tasks` indexed tasks on
/// `threads` scoped workers (`0` = one per available core, never more
/// workers than tasks) named `{name}-{i}`.
///
/// Workers claim the next unclaimed index from a shared cursor, so a
/// worker that lands on an expensive task simply claims fewer of them.
/// A panic is caught per task and comes back as that task's `Err`,
/// carrying the panic message; the other tasks still run. Results come
/// back in task order whatever the thread count or claim order.
pub fn run_tasks<T: Send>(
    threads: usize,
    name: &str,
    tasks: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    let threads = worker_count(threads).min(tasks);
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<T, String>>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                std::thread::Builder::new()
                    .name(format!("{name}-{worker}"))
                    .spawn_scoped(scope, || {
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                return done;
                            }
                            let outcome = catch_unwind(AssertUnwindSafe(|| task(i)));
                            done.push((i, outcome.map_err(|payload| panic_message(&*payload))));
                        }
                    })
                    .expect("spawn executor worker")
            })
            .collect();
        for worker in workers {
            // Task panics are caught above; a panic escaping here is a
            // bug in the executor itself.
            for (i, outcome) in worker.join().expect("executor worker died outside a task") {
                results[i] = Some(outcome);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

/// Accumulate one population's [`PopulationStats`] into the run metrics,
/// including its row in the per-population table (keyed by `asn` and the
/// period `label`). `task_nanos` is the task's total wall time; the
/// share not spent in the measured pipeline stages is attributed to
/// ingest (for simulated surveys that includes generating the
/// traceroutes).
pub fn record_population_metrics(
    metrics: &RunMetrics,
    asn: Asn,
    label: &str,
    analysis: &PopulationAnalysis,
    task_nanos: u64,
) {
    record_population(metrics, asn, label, analysis, Some(task_nanos));
}

/// [`record_population_metrics`] for an analysis an earlier run made and
/// this run reuses as it is (a live pass's untouched population): its
/// counters and table row add up as a fresh analysis's would, but it
/// cost this run no time, so no stage time or latency is recorded.
pub fn record_reused_population(
    metrics: &RunMetrics,
    asn: Asn,
    label: &str,
    analysis: &PopulationAnalysis,
) {
    record_population(metrics, asn, label, analysis, None);
}

/// The one recording of a population: with its timings when this run
/// analysed it (`task_nanos`), without them when it was reused.
fn record_population(
    metrics: &RunMetrics,
    asn: Asn,
    label: &str,
    analysis: &PopulationAnalysis,
    task_nanos: Option<u64>,
) {
    let s = &analysis.stats;
    let stage_nanos = match task_nanos {
        Some(task_nanos) => {
            metrics.latency.series.merge(&s.series_hist);
            let pipeline_nanos = s.series_nanos + s.aggregate_nanos + s.detect_nanos;
            StageNanos {
                ingest: task_nanos.saturating_sub(pipeline_nanos),
                series: s.series_nanos,
                aggregate: s.aggregate_nanos,
                detect: s.detect_nanos,
                ..StageNanos::default()
            }
        }
        None => StageNanos::default(),
    };
    metrics.add(&RunMetricsSnapshot {
        traceroutes_ingested: s.traceroutes_ingested,
        traceroutes_out_of_period: s.traceroutes_out_of_period,
        bins_discarded_sanity: s.bins_discarded_sanity,
        bins_interpolated: s.bins_interpolated,
        welch_segments: s.welch_segments,
        populations_analyzed: 1,
        populations_with_detection: u64::from(analysis.detection.is_some()),
        stage_nanos,
        ..RunMetricsSnapshot::default()
    });
    metrics.record_population_row(PopulationRow {
        asn,
        period: label.to_string(),
        traceroutes: s.traceroutes_ingested,
        bins_discarded: s.bins_discarded_sanity,
        probes: analysis.probes_used() as u64,
        class: analysis.class().name().to_string(),
        nanos: task_nanos.unwrap_or(0),
    });
}

/// Turn one population analysis into a report row.
pub fn classify_row(
    asn: Asn,
    period: &MeasurementPeriod,
    analysis: &PopulationAnalysis,
    eyeballs: &EyeballRegistry,
) -> AsClassification {
    let detection = analysis.detection.as_ref();
    AsClassification {
        asn,
        period: period.id(),
        class: analysis.class(),
        daily_amplitude_ms: detection.map(|d| d.daily_amplitude_ms).unwrap_or(0.0),
        prominent_frequency: detection.and_then(|d| d.prominent_frequency()),
        prominent_is_daily: detection.map(|d| d.prominent_is_daily).unwrap_or(false),
        probes: analysis.probes_used(),
        country: eyeballs.country_of(asn).map(str::to_string),
        rank: eyeballs.rank_of(asn),
    }
}

/// Build an eyeball registry from survey ground truth (synthetic APNIC
/// ranks assigned by the scenario).
pub fn eyeballs_from_ground_truth(truth: &[AsGroundTruth]) -> EyeballRegistry {
    let mut reg = EyeballRegistry::new();
    for g in truth {
        reg.insert(EyeballEntry {
            asn: g.asn,
            rank: g.rank,
            population: (2.0e8 / f64::from(g.rank).powf(0.85)).max(500.0) as u64,
            country: g.country.clone(),
        });
    }
    reg
}

/// Convenience: does the detected class match the scenario's planted
/// class *band*, allowing one class of drift (borderline amplitudes move
/// between adjacent classes period to period — the churn §3.1 describes)?
pub fn class_within_one(detected: CongestionClass, planted: CongestionClass) -> bool {
    let idx = |c: CongestionClass| match c {
        CongestionClass::None => 0i32,
        CongestionClass::Low => 1,
        CongestionClass::Mild => 2,
        CongestionClass::Severe => 3,
    };
    (idx(detected) - idx(planted)).abs() <= 1
}

#[cfg(test)]
mod tests {
    use super::run_tasks;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 8] {
            // Uneven costs so claim order and completion order differ.
            let out = run_tasks(threads, "test", 50, |i| {
                std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 5) as u64 * 100));
                i * i
            });
            let out: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(
                out,
                (0..50).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_panicking_task_fails_alone() {
        let out = run_tasks(2, "test", 10, |i| {
            if i == 3 {
                panic!("task {i} exploded");
            }
            i
        });
        assert_eq!(out.len(), 10);
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i),
                Err(msg) => {
                    assert_eq!(i, 3);
                    assert_eq!(msg, "task 3 exploded");
                }
            }
        }
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn more_threads_than_tasks_and_zero_tasks() {
        let out = run_tasks(16, "test", 3, |i| i + 1);
        assert_eq!(out, vec![Ok(1), Ok(2), Ok(3)]);
        let out = run_tasks(4, "test", 0, |i| i);
        assert!(out.is_empty());
        let out = run_tasks(0, "test", 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_are_named_after_the_prefix() {
        let out = run_tasks(2, "named", 4, |_| {
            std::thread::current().name().map(str::to_string)
        });
        for name in out.into_iter().map(Result::unwrap) {
            let name = name.expect("workers are named");
            assert!(name == "named-0" || name == "named-1", "{name}");
        }
    }
}
