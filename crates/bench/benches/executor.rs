//! Survey-executor scheduling benchmark.
//!
//! The §3 survey world is probe-count-skewed by construction: probes per
//! AS follow `3 + 1200/(rank+40)`, so a handful of top-ranked ASes carry
//! several times the probes (and analysis cost) of the long tail. Static
//! chunking binds the whole run to whichever chunk drew the hot ASes;
//! the work-stealing executor (`runner::run_tasks`) lets idle workers
//! claim the remaining tasks instead. This benchmark quantifies that two
//! ways:
//!
//! * **Schedule model** — per-task costs are measured once, serially,
//!   and replayed through both schedules. The resulting makespans are
//!   printed before the timing runs. This shows the load-balancing win
//!   deterministically, even on a single-core host where real threads
//!   cannot overlap.
//! * **Wall time** — the survey on the work-stealing executor at
//!   `threads = 4`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lastmile_repro::core::pipeline::PipelineConfig;
use lastmile_repro::netsim::scenarios::survey::{survey_world, SurveyConfig, SurveyScenario};
use lastmile_repro::netsim::TracerouteEngine;
use lastmile_repro::prefix::Asn;
use lastmile_repro::runner::{
    analyze_population_with, eyeballs_from_ground_truth, run_survey, ProbeSelection, SurveyOptions,
};
use lastmile_repro::timebase::MeasurementPeriod;
use std::time::{Duration, Instant};

const THREADS: usize = 4;

/// A small survey whose probe counts are deliberately left uncapped
/// (`max_probes_per_as` far above `probe_count`'s ceiling), so the few
/// top-ranked ASes dominate the per-task cost distribution.
fn skewed_survey() -> SurveyScenario {
    survey_world(&SurveyConfig {
        seed: 37,
        n_ases: 20,
        max_probes_per_as: 64,
    })
}

/// Measure each (AS, period) task once, serially, in queue order.
fn task_costs(scenario: &SurveyScenario, periods: &[MeasurementPeriod]) -> Vec<(Asn, Duration)> {
    let engine = TracerouteEngine::new(&scenario.world);
    let cfg = PipelineConfig::paper();
    let selection = ProbeSelection::regular();
    let mut costs = Vec::new();
    for a in scenario.world.ases() {
        for period in periods {
            let asn = a.config.asn;
            let t = Instant::now();
            black_box(analyze_population_with(
                &engine, asn, period, cfg, &selection,
            ));
            costs.push((asn, t.elapsed()));
        }
    }
    costs
}

/// Makespan of the static-chunk schedule: the ASN list is split into
/// `ceil(n/threads)`-sized contiguous chunks and each worker runs one
/// chunk to completion, so the slowest chunk is the wall time.
fn static_makespan(costs: &[(Asn, Duration)], periods: usize, threads: usize) -> Duration {
    let per_as: Vec<Duration> = costs
        .chunks(periods)
        .map(|c| c.iter().map(|(_, d)| *d).sum())
        .collect();
    let chunk = per_as.len().div_ceil(threads).max(1);
    per_as
        .chunks(chunk)
        .map(|c| c.iter().sum())
        .max()
        .unwrap_or(Duration::ZERO)
}

/// Makespan of the work-stealing schedule: greedy list scheduling — each
/// task in queue order goes to the worker that frees up first, which is
/// exactly what pulling from a shared queue converges to.
fn stealing_makespan(costs: &[(Asn, Duration)], threads: usize) -> Duration {
    let mut workers = vec![Duration::ZERO; threads];
    for (_, cost) in costs {
        let next = workers.iter_mut().min().expect("at least one worker");
        *next += *cost;
    }
    workers.into_iter().max().unwrap_or(Duration::ZERO)
}

fn bench_executor(c: &mut Criterion) {
    let scenario = skewed_survey();
    let eyeballs = eyeballs_from_ground_truth(&scenario.ground_truth);
    let periods: Vec<MeasurementPeriod> = MeasurementPeriod::survey_periods()
        .into_iter()
        .take(1)
        .collect();

    let costs = task_costs(&scenario, &periods);
    let serial: Duration = costs.iter().map(|(_, d)| *d).sum();
    let fixed = static_makespan(&costs, periods.len(), THREADS);
    let stolen = stealing_makespan(&costs, THREADS);
    println!(
        "schedule model ({THREADS} workers, {} tasks, measured costs):",
        costs.len()
    );
    println!("  serial work            : {serial:>10.1?}");
    println!("  static chunks makespan : {fixed:>10.1?}");
    println!(
        "  work stealing makespan : {stolen:>10.1?}  ({:.2}x better)",
        fixed.as_secs_f64() / stolen.as_secs_f64().max(1e-9)
    );

    let options = SurveyOptions {
        threads: THREADS,
        ..Default::default()
    };
    let mut g = c.benchmark_group("survey_executor");
    // One survey run costs ~a second; keep the sample budget small.
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("work_stealing", |b| {
        b.iter(|| {
            run_survey(black_box(&scenario.world), &periods, &eyeballs, &options)
                .rows()
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
