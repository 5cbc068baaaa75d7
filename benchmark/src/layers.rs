//! The in-process layer pass of a traced run. The benchmark calls each
//! layer's public entry points over the workload corpus in the order
//! `classify` does (frame, decode, route, series, aggregate and detect,
//! snapshot save, load and lookup) and wraps every call in a
//! `lastmile_obs::trace` span. The spans stay in memory; their totals
//! give each layer's busy time, and the layers' own counters give the
//! work done.

use crate::metrics::Values;
use crate::workloads::Corpus;
use lastmile_atlas::framing::{DocSplitter, Frame};
use lastmile_atlas::{Probe, ProbeId, TracerouteResult};
use lastmile_core::pipeline::{AsPipeline, PipelineConfig, PopulationAnalysis};
use lastmile_ingest::{ingest_file, IngestOptions};
use lastmile_obs::trace::Tracer;
use lastmile_store::{Lookup, SeriesStore, StoreConfig, StoreKey};
use lastmile_timebase::{TimeRange, UnixTime};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;

/// Decoded records routed and fed to the pipelines per batch; one route
/// and one series span per batch keeps the span count small.
const BATCH: usize = 4096;

/// What the layer pass measured.
pub struct LayerPass {
    pub values: Values,
    /// `(asn, class, probes used)` per population, in ASN order, for
    /// comparison with `classify --json`.
    pub classes: Vec<(u64, String, u64)>,
}

/// Run the pass over `corpus`, writing the store snapshot to
/// `snapshot`.
pub fn measure(corpus: &Corpus, snapshot: &Path) -> Result<LayerPass, String> {
    let tracer = Tracer::new();
    let docs = frame(&tracer, &corpus.traceroutes)?;

    // Probe → ASN routing, anchors excluded: `classify --probes`'s view.
    let text = std::fs::read_to_string(&corpus.probes)
        .map_err(|e| format!("read {}: {e}", corpus.probes.display()))?;
    let probes: Vec<Probe> =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", corpus.probes.display()))?;
    let route: BTreeMap<ProbeId, u32> = probes
        .iter()
        .filter(|p| !p.is_anchor)
        .map(|p| (p.id, p.asn))
        .collect();

    let cfg = PipelineConfig::paper();
    let window = TimeRange::new(
        UnixTime::from_secs(corpus.start),
        UnixTime::from_secs(corpus.end),
    );
    let mut pipelines: BTreeMap<u32, AsPipeline> = BTreeMap::new();
    let mut batch: Vec<TracerouteResult> = Vec::with_capacity(BATCH);
    let mut flush = |batch: &mut Vec<TracerouteResult>| {
        let routed: Vec<(u32, TracerouteResult)> = {
            let _s = tracer.span("core.route");
            batch
                .drain(..)
                .filter_map(|tr| route.get(&tr.probe).map(|&asn| (asn, tr)))
                .collect()
        };
        let _s = tracer.span("core.series");
        for (asn, tr) in &routed {
            pipelines
                .entry(*asn)
                .or_insert_with(|| {
                    let mut p = AsPipeline::new(cfg, window);
                    p.retain_median_series(true);
                    p
                })
                .ingest(tr);
        }
    };
    let summary = {
        let _s = tracer.span("ingest.ingest_file");
        let path = corpus.traceroutes.to_str().ok_or("non-UTF-8 corpus path")?;
        let summary = ingest_file(path, &IngestOptions::default(), |tr| {
            batch.push(tr);
            if batch.len() == BATCH {
                flush(&mut batch);
            }
        })?;
        flush(&mut batch);
        summary
    };
    if summary.skipped() > 0 || summary.parsed != docs || docs != corpus.records {
        return Err(format!(
            "layer pass: {} framed, {} decoded, {} quarantined of {} records",
            docs,
            summary.parsed,
            summary.skipped(),
            corpus.records
        ));
    }

    let analyses: Vec<(u32, PopulationAnalysis)> = pipelines
        .into_iter()
        .map(|(asn, p)| (asn, p.finish()))
        .collect();

    let store = SeriesStore::default();
    let mut keys = Vec::new();
    for (_, a) in &analyses {
        for built in &a.built_series {
            let key = StoreKey::for_pipeline(built.series.probe(), &cfg);
            store.insert(&key, &window, built);
            keys.push(key);
        }
    }
    let snapshot_bytes = {
        let _s = tracer.span("store.save_snapshot");
        store
            .save_snapshot(snapshot, corpus.digest)
            .map_err(|e| format!("save {}: {e}", snapshot.display()))?
    };
    let loaded = {
        let _s = tracer.span("store.load_snapshot");
        SeriesStore::load_snapshot(snapshot, corpus.digest, StoreConfig::default())
            .map_err(|e| format!("load {}: {e}", snapshot.display()))?
            .0
    };
    let hits = {
        let _s = tracer.span("store.lookup");
        keys.iter()
            .filter(|k| matches!(loaded.lookup(k, &window), Lookup::Hit(_)))
            .count()
    };
    if hits != keys.len() {
        return Err(format!(
            "layer pass: the reloaded snapshot served {hits} of {} series",
            keys.len()
        ));
    }

    let spans = span_totals(&tracer)?;
    let span_ns = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let stage_ms = |f: fn(&PopulationAnalysis) -> u64| {
        analyses.iter().map(|(_, a)| f(a) as f64).sum::<f64>() / 1e6
    };
    let records = summary.parsed as f64;
    let values = Values::from([
        (
            "atlas.frame_ns_per_record",
            span_ns("atlas.frame") / docs as f64,
        ),
        (
            "ingest.decode_ns_per_record",
            summary.decode_nanos as f64 / records,
        ),
        (
            "ingest.pass_ms",
            (span_ns("ingest.ingest_file") - span_ns("core.route") - span_ns("core.series")) / 1e6,
        ),
        ("ingest.queue_max_depth", summary.queue_max_depth as f64),
        ("core.route_ns_per_record", span_ns("core.route") / records),
        (
            "core.series_ms",
            span_ns("core.series") / 1e6 + stage_ms(|a| a.stats.series_nanos),
        ),
        ("core.aggregate_ms", stage_ms(|a| a.stats.aggregate_nanos)),
        ("core.detect_ms", stage_ms(|a| a.stats.detect_nanos)),
        (
            "store.snapshot_save_ms",
            span_ns("store.save_snapshot") / 1e6,
        ),
        (
            "store.snapshot_load_ms",
            span_ns("store.load_snapshot") / 1e6,
        ),
        ("store.snapshot_bytes", snapshot_bytes as f64),
    ]);
    let classes = analyses
        .iter()
        .map(|(asn, a)| {
            (
                u64::from(*asn),
                a.class().name().to_string(),
                a.probes_used() as u64,
            )
        })
        .collect();
    Ok(LayerPass { values, classes })
}

/// Frame the corpus with [`DocSplitter`] in read-sized chunks, one span
/// per chunk; the number of documents.
fn frame(tracer: &Tracer, path: &Path) -> Result<u64, String> {
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut docs = 0u64;
    let mut count = |f: Frame<'_>| {
        if matches!(f, Frame::Doc { .. }) {
            docs += 1;
        }
    };
    let mut splitter = DocSplitter::new();
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let _s = tracer.span("atlas.frame");
        if n == 0 {
            splitter.finish(&mut count);
            break;
        }
        splitter.feed(&buf[..n], &mut count);
    }
    Ok(docs)
}

/// Total nanoseconds per span name, from the tracer's Chrome trace
/// events (begin/end pairs matched per thread).
fn span_totals(tracer: &Tracer) -> Result<BTreeMap<String, f64>, String> {
    let mut json = Vec::new();
    tracer
        .drain_chrome_json(&mut json)
        .map_err(|e| format!("drain trace: {e}"))?;
    let text = String::from_utf8(json).map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let events = doc["traceEvents"].as_array().ok_or("trace has no events")?;
    let mut open: BTreeMap<u64, Vec<(String, f64)>> = BTreeMap::new();
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for e in events {
        let tid = e["tid"].as_u64().unwrap_or(0);
        let ts_us = e["ts"].as_f64().unwrap_or(0.0);
        match e["ph"].as_str() {
            Some("B") => open
                .entry(tid)
                .or_default()
                .push((e["name"].as_str().unwrap_or("").to_string(), ts_us)),
            Some("E") => {
                if let Some((name, begin)) = open.entry(tid).or_default().pop() {
                    *totals.entry(name).or_default() += (ts_us - begin) * 1e3;
                }
            }
            _ => {}
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_totals_sum_matched_pairs_per_name() {
        let tracer = Tracer::new();
        for _ in 0..2 {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let totals = span_totals(&tracer).unwrap();
        assert!(totals["inner"] >= 4e6, "{totals:?}");
        assert!(totals["outer"] >= totals["inner"]);
        assert_eq!(totals.len(), 2);
    }
}
