//! Ingest benchmark: what the parallel framing/parse pipeline is worth.
//!
//! The decode half of `classify` — splitting the input into documents and
//! parsing each into the model — dominates cold-start wall time for large
//! Atlas dumps. `lastmile-ingest` overlaps framing with N parse workers
//! over bounded queues; the interesting numbers are:
//!
//! * **threads=1 vs threads=N** — inline decode on the framing thread
//!   against the worker pipeline's parallel payoff (and its queue-hop
//!   tax on a single core).
//! * **lines vs array** — the two wire forms take different framing
//!   paths (line scanning vs bracket tracking), same parse workers.
//!
//! Every variant produces the identical record multiset (pinned by
//! `crates/cli/tests/ingest_e2e.rs`); this benchmark prices the options.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lastmile_repro::atlas::framing::{DocSplitter, Frame};
use lastmile_repro::atlas::json::to_atlas_json;
use lastmile_repro::ingest::{ingest_reader, IngestOptions};
use lastmile_repro::netsim::scenarios::survey::{survey_world, SurveyConfig};
use lastmile_repro::netsim::TracerouteEngine;
use lastmile_repro::timebase::{MeasurementPeriod, TimeRange};

/// Render a survey day as both wire forms, in memory.
fn bench_inputs() -> (Vec<u8>, Vec<u8>) {
    let scenario = survey_world(&SurveyConfig {
        seed: 7,
        n_ases: 20,
        max_probes_per_as: 2,
    });
    let engine = TracerouteEngine::new(&scenario.world);
    let period = MeasurementPeriod::survey_periods()[0];
    let window = TimeRange::new(period.start(), period.start() + 86_400);
    let mut lines = Vec::new();
    for probe in scenario.world.probes() {
        engine.for_each_traceroute(probe, &window, |tr| {
            lines.push(to_atlas_json(&tr, probe.meta.public_addr));
        });
    }
    let jsonl = (lines.join("\n") + "\n").into_bytes();
    let array = format!("[{}]", lines.join(",")).into_bytes();
    (jsonl, array)
}

fn bench_ingest(c: &mut Criterion) {
    let (jsonl, array) = bench_inputs();
    eprintln!(
        "ingest bench inputs: jsonl {} bytes, array {} bytes",
        jsonl.len(),
        array.len()
    );

    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    for (form, input) in [("lines", &jsonl), ("array", &array)] {
        g.throughput(criterion::Throughput::Bytes(input.len() as u64));
        for (name, options) in [
            (
                "threads1",
                IngestOptions {
                    threads: 1,
                    ..IngestOptions::default()
                },
            ),
            (
                "threads_auto",
                IngestOptions::default(), // threads: 0 = one per core
            ),
        ] {
            g.bench_function(format!("{form}/{name}"), |b| {
                b.iter(|| {
                    let mut n = 0u64;
                    let summary = ingest_reader(&input[..], &options, |tr| {
                        n += tr.hops.len() as u64;
                    })
                    .unwrap();
                    assert!(summary.quarantined.is_empty());
                    black_box((n, summary.parsed))
                })
            });
        }
    }
    g.finish();
}

/// Framing alone — the `DocSplitter` hot loops with no JSON parse
/// behind them. This is the layer the bulk byte scanner rewrote; the
/// 64 KiB feed matches the ingest pipeline's default chunk size, so
/// chunk-boundary carry costs are priced in.
fn bench_framing(c: &mut Criterion) {
    let (jsonl, array) = bench_inputs();
    let mut g = c.benchmark_group("framing");
    g.sample_size(20);
    for (form, input) in [("lines", &jsonl), ("array", &array)] {
        g.throughput(criterion::Throughput::Bytes(input.len() as u64));
        g.bench_function(format!("{form}/split"), |b| {
            b.iter(|| {
                let mut docs = 0u64;
                let mut bytes = 0u64;
                let mut splitter = DocSplitter::new();
                let mut emit = |frame: Frame<'_>| {
                    if let Frame::Doc { bytes: d, .. } = frame {
                        docs += 1;
                        bytes += d.len() as u64;
                    }
                };
                for chunk in input.chunks(64 * 1024) {
                    splitter.feed(chunk, &mut emit);
                }
                splitter.finish(&mut emit);
                black_box((docs, bytes))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ingest, bench_framing);
criterion_main!(benches);
