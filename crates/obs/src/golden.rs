//! Byte-for-byte pins of the three metrics surfaces: the `/metrics`
//! JSON document, the `--stats` JSON document and the Prometheus
//! exposition. Every counter, gauge and histogram is set to a distinct
//! value first, so a field that moves, drops or swaps its source shows
//! up as a diff against the golden files under `src/golden/`.

use crate::{
    prom, Histogram, IngestStats, LatencyStats, LiveMetrics, LiveMetricsSnapshot, Metric,
    PopulationRow, QuarantineStats, RunMetrics, RunMetricsSnapshot, ServeEndpoint, ServeMetrics,
    ServeMetricsSnapshot, StageNanos, StoreStats, Visitor,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Record `n` samples spread over `base..` into a plain histogram.
fn hist(base: u64, n: u64) -> Histogram {
    let mut h = Histogram::new();
    for i in 0..n {
        h.record(base + i * base / 3);
    }
    h
}

fn run_metrics() -> RunMetrics {
    let m = RunMetrics::new();
    m.add(&RunMetricsSnapshot {
        traceroutes_ingested: 101,
        traceroutes_out_of_period: 102,
        bins_discarded_sanity: 103,
        bins_interpolated: 104,
        welch_segments: 105,
        populations_analyzed: 3,
        populations_with_detection: 2,
        tasks_failed: 4,
        column_bytes: 106,
        store: StoreStats {
            hits: 201,
            misses: 202,
            bypasses: 203,
            inserts: 204,
            snapshot_bytes_written: 206,
            snapshot_bytes_read: 207,
            snapshot_save_nanos: 208,
            snapshot_load_nanos: 209,
            fingerprint_nanos: 210,
        },
        ingest: IngestStats {
            bytes_read: 301,
            records_decoded: 302,
            quarantined: QuarantineStats {
                framing: 303,
                json: 304,
                model: 305,
                worker_panic: 306,
            },
            frame_nanos: 307,
            decode_nanos: 308,
            fold_nanos: 312,
            decode_fallbacks: 311,
            wall_nanos: 1_250_000_000,
            queue_max_depth: 310,
            ..IngestStats::default()
        },
        latency: LatencyStats {
            decode: hist(1_000, 5).into(),
            series: hist(20_000, 6).into(),
            ..LatencyStats::default()
        },
        stage_nanos: StageNanos {
            ingest: 401,
            series: 402,
            aggregate: 403,
            detect: 404,
            wall: 405,
        },
        populations: Vec::new(),
    });
    for (asn, nanos) in [(64500, 700_000), (64496, 900_000)] {
        m.record_population_row(PopulationRow {
            asn,
            period: "2019-09".into(),
            traceroutes: 501,
            bins_discarded: 502,
            probes: 503,
            class: "mild".into(),
            nanos,
        });
    }
    m
}

fn serve_metrics() -> ServeMetrics {
    let m = ServeMetrics::new();
    m.accepted.store(601, Ordering::Relaxed);
    m.rejected_busy.store(602, Ordering::Relaxed);
    m.worker_panics.store(603, Ordering::Relaxed);
    m.in_flight.store(604, Ordering::Relaxed);
    for _ in 0..7 {
        m.queue_push();
    }
    m.queue_pop();
    m.fastlane_hits.store(605, Ordering::Relaxed);
    for (i, class) in [&m.admission.cheap, &m.admission.heavy, &m.admission.intake]
        .into_iter()
        .enumerate()
    {
        let i = i as u64;
        class.budget.store(10 + i, Ordering::Relaxed);
        class.admitted.store(20 + i, Ordering::Relaxed);
        class.shed.store(30 + i, Ordering::Relaxed);
        class.in_flight.store(1 + i, Ordering::Relaxed);
    }
    for (i, endpoint) in [
        ServeEndpoint::Classify,
        ServeEndpoint::Series,
        ServeEndpoint::Populations,
        ServeEndpoint::Ingest,
        ServeEndpoint::Healthz,
        ServeEndpoint::Metrics,
        ServeEndpoint::Other,
    ]
    .into_iter()
    .enumerate()
    {
        let i = i as u64;
        for j in 0..=i {
            m.record_request(endpoint, 1_000 * (i + 1) + 37 * j);
        }
    }
    m.record_rejected(4_321);
    m.record_rejected(98_765);
    m
}

fn live_metrics() -> LiveMetrics {
    let m = LiveMetrics::new();
    m.records_ingested.store(801, Ordering::Relaxed);
    m.records_analyzed.store(790, Ordering::Relaxed);
    m.posts_accepted.store(802, Ordering::Relaxed);
    m.posts_rejected.store(803, Ordering::Relaxed);
    m.watch_appends.store(804, Ordering::Relaxed);
    m.watch_truncations.store(805, Ordering::Relaxed);
    m.watch_quarantined.store(806, Ordering::Relaxed);
    m.reanalyses.store(807, Ordering::Relaxed);
    m.reanalysis_errors.store(808, Ordering::Relaxed);
    m.epoch.store(809, Ordering::Relaxed);
    m.swap_nanos.store(810, Ordering::Relaxed);
    m.reanalysis_nanos.store(811, Ordering::Relaxed);
    m
}

/// The daemon's `/metrics` document, serialized the way `lastmile
/// serve` builds it: `{run, serve, live}`, pretty, trailing newline.
#[derive(Serialize)]
struct MetricsDoc {
    run: RunMetricsSnapshot,
    serve: ServeMetricsSnapshot,
    live: LiveMetricsSnapshot,
}

#[test]
fn metrics_json_matches_golden() {
    let doc = MetricsDoc {
        run: run_metrics().snapshot(),
        serve: serve_metrics().snapshot(),
        live: live_metrics().snapshot(),
    };
    let mut body = serde_json::to_string_pretty(&doc).expect("metrics doc encodes");
    body.push('\n');
    assert_eq!(body, include_str!("golden/metrics.json"));
}

#[test]
fn stats_json_matches_golden() {
    assert_eq!(
        run_metrics().snapshot().to_json(),
        include_str!("golden/stats.json")
    );
}

/// The exposition split into family blocks (`# HELP` line onwards),
/// keyed by family name.
fn family_blocks(text: &str) -> BTreeMap<String, String> {
    let mut blocks = BTreeMap::new();
    for block in text.split("# HELP ").filter(|b| !b.is_empty()) {
        let name = block.split(' ').next().expect("family name");
        blocks.insert(name.to_string(), format!("# HELP {block}"));
    }
    blocks
}

/// Every family the exposition had before the metrics were declared in
/// one registry keeps its HELP, TYPE and sample lines byte for byte;
/// the only additions are the run families the JSON already carried.
#[test]
fn prom_exposition_matches_golden() {
    let golden = family_blocks(include_str!("golden/metrics.prom"));
    let mut now = family_blocks(&prom::render(
        &run_metrics().snapshot(),
        &serve_metrics().snapshot(),
        &live_metrics().snapshot(),
    ));
    for (name, block) in &golden {
        assert_eq!(now.remove(name).as_ref(), Some(block), "family {name}");
    }
    let added: Vec<String> = now.into_values().collect();
    assert_eq!(
        added.concat(),
        "# HELP lastmile_run_ingest_decode_nanos_total Nanoseconds spent decoding records, summed across parse workers.\n\
         # TYPE lastmile_run_ingest_decode_nanos_total counter\n\
         lastmile_run_ingest_decode_nanos_total 308\n\
         # HELP lastmile_run_ingest_frame_nanos_total Nanoseconds the ingest framing loop spent splitting records (one thread).\n\
         # TYPE lastmile_run_ingest_frame_nanos_total counter\n\
         lastmile_run_ingest_frame_nanos_total 307\n\
         # HELP lastmile_run_ingest_records_per_sec Traceroute records decoded per second of ingest wall time.\n\
         # TYPE lastmile_run_ingest_records_per_sec gauge\n\
         lastmile_run_ingest_records_per_sec 241.6\n\
         # HELP lastmile_run_ingest_wall_nanos_total Elapsed wall nanoseconds of file ingest, summed across input files.\n\
         # TYPE lastmile_run_ingest_wall_nanos_total counter\n\
         lastmile_run_ingest_wall_nanos_total 1250000000\n\
         # HELP lastmile_run_store_snapshot_load_nanos_total Nanoseconds spent loading series-store snapshots.\n\
         # TYPE lastmile_run_store_snapshot_load_nanos_total counter\n\
         lastmile_run_store_snapshot_load_nanos_total 209\n\
         # HELP lastmile_run_store_snapshot_save_nanos_total Nanoseconds spent saving series-store snapshots.\n\
         # TYPE lastmile_run_store_snapshot_save_nanos_total counter\n\
         lastmile_run_store_snapshot_save_nanos_total 208\n"
    );
}

/// Walk every declaration: each appears in the `/metrics` JSON at its
/// path and in the exposition under its family, with its labels, and
/// every family carries a help text.
#[test]
fn every_declared_metric_is_in_json_and_exposition() {
    let run = run_metrics().snapshot();
    let serve = serve_metrics().snapshot();
    let live = live_metrics().snapshot();
    let doc = serde_json::to_value(&MetricsDoc {
        run: run.clone(),
        serve: serve.clone(),
        live: live.clone(),
    });
    let blocks = family_blocks(&prom::render(&run, &serve, &live));
    let mut seen = 0;
    let mut sink = |m: &Metric| {
        seen += 1;
        let at = m.path.iter().try_fold(&doc, |v, key| v.get(key));
        assert!(at.is_some(), "{:?} missing from the JSON", m.path);
        let block = blocks
            .get(m.family)
            .unwrap_or_else(|| panic!("{:?}: family {} not exposed", m.path, m.family));
        let help = block.lines().next().expect("HELP line");
        assert!(help.len() > "# HELP ".len() + m.family.len() + 1, "{help}");
        for (k, v) in m.labels {
            assert!(
                block.contains(&format!("{k}=\"{v}\"")),
                "{:?}: {block}",
                m.path
            );
        }
    };
    let mut v = Visitor::new(&mut sink);
    v.group("run", &[], |v| run.visit(v));
    v.group("serve", &[], |v| serve.visit(v));
    v.group("live", &[], |v| live.visit(v));
    assert_eq!(seen, 43 + 28 + 12, "run + serve + live declarations");
}
