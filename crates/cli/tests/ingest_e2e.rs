//! End-to-end tests of the ingest path: classification output must be
//! byte-identical at any thread count (inline decode at one, the worker
//! pipeline above) for both input forms, and malformed records must show
//! up — typed and reproducible — in `--stats` and `--quarantine`. The
//! one-pass analysis must also equal one that resolves its window before
//! reading, whichever bounds the flags leave to the data span.

mod common;

use common::run;
use lastmile_repro::core::pipeline::{AsPipeline, PipelineConfig, PopulationAnalysis};
use lastmile_repro::ingest::{ingest_file, IngestOptions};
use lastmile_repro::obs::RunMetrics;
use lastmile_repro::runner::record_population_metrics;
use lastmile_repro::timebase::{TimeRange, UnixTime};
use std::path::PathBuf;
use std::sync::atomic::Ordering;

/// One synthetic Atlas traceroute line: probe `prb`, congestion-shaped
/// RTT at the edge hop.
fn tr_line(prb: u32, ts: i64, rtt: f64) -> String {
    format!(
        r#"{{"fw":5020,"af":4,"dst_addr":"20.99.0.1","src_addr":"192.168.1.10","from":"20.0.0.{prb}","msm_id":5001,"prb_id":{prb},"timestamp":{ts},"proto":"ICMP","type":"traceroute","result":[{{"hop":1,"result":[{{"from":"192.168.1.1","rtt":1.0}}]}},{{"hop":2,"result":[{{"from":"20.0.0.{prb}","rtt":{rtt}}}]}}]}}"#
    )
}

/// A day of 30-minute bins for three probes, in both wire forms.
fn write_dataset(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let mut lines = Vec::new();
    for bin in 0..48i64 {
        for k in 0..3i64 {
            let ts = bin * 1800 + k * 600;
            // A mild diurnal swing so the pipeline has structure to chew on.
            let rtt = 10.0 + 3.0 * ((bin % 48) as f64 / 48.0);
            for prb in 1..=3u32 {
                lines.push(tr_line(prb, ts, rtt + prb as f64 * 0.25));
            }
        }
    }
    let jsonl = dir.join("trs.jsonl");
    std::fs::write(&jsonl, lines.join("\n") + "\n").unwrap();
    let array = dir.join("trs.json");
    std::fs::write(&array, format!("[\n{}\n]", lines.join(",\n"))).unwrap();
    (jsonl, array)
}

#[test]
fn reports_are_byte_identical_across_thread_counts_and_forms() {
    let dir = std::env::temp_dir().join(format!("lastmile-ingest-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (jsonl, array) = write_dataset(&dir);

    let classify = |path: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "classify",
            "--traceroutes",
            path.to_str().unwrap(),
            "--min-probes",
            "1",
            "--json",
        ];
        args.extend_from_slice(extra);
        let (stdout, err, ok) = run(&args);
        assert!(ok, "classify {extra:?} failed: {err}");
        stdout
    };

    let baseline = classify(&jsonl, &["--ingest-threads", "2"]);
    assert!(!baseline.is_empty());
    for extra in [
        &["--ingest-threads", "1"][..],
        &["--ingest-threads", "4"][..],
        &[][..], // auto
    ] {
        assert_eq!(
            classify(&jsonl, extra),
            baseline,
            "lines form diverges under {extra:?}"
        );
        assert_eq!(
            classify(&array, extra),
            baseline,
            "array form diverges under {extra:?}"
        );
    }
    assert_eq!(
        classify(&array, &["--ingest-threads", "2"]),
        baseline,
        "two-worker array form diverges"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_counters_are_the_same_at_any_thread_count() {
    // Workers bin their own rows, but each probe is looked up in the
    // series store once, whichever worker sees it first: a warm run
    // counts one hit per probe, and no miss, at any thread count.
    let dir = std::env::temp_dir().join(format!("lastmile-ingest-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (jsonl, _) = write_dataset(&dir);
    let cache = dir.join("cache");
    let stats = dir.join("stats.json");
    let classify = |mode: &str, threads: &str| {
        let args = [
            "classify",
            "--traceroutes",
            jsonl.to_str().unwrap(),
            "--min-probes",
            "1",
            "--start",
            "0",
            "--end",
            "86400",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--cache",
            mode,
            "--ingest-threads",
            threads,
            "--stats-out",
            stats.to_str().unwrap(),
            "--json",
        ];
        let (stdout, err, ok) = run(&args);
        assert!(
            ok,
            "classify --cache {mode} --ingest-threads {threads}: {err}"
        );
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        let count = |name: &str| doc["store"][name].as_u64().unwrap();
        (stdout, [count("hits"), count("misses"), count("inserts")])
    };
    let (cold, counts) = classify("rw", "3");
    assert_eq!(counts, [0, 3, 3], "one miss and one insert per probe");
    for threads in ["1", "2", "3", "4"] {
        let (warm, counts) = classify("ro", threads);
        assert_eq!(warm, cold, "threads={threads}");
        assert_eq!(counts, [3, 0, 0], "threads={threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_ingest_serial_switch_fails_loudly() {
    let dir = std::env::temp_dir().join(format!("lastmile-ingest-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (jsonl, _) = write_dataset(&dir);
    // `--ingest-serial` is no longer a switch; read as a value flag it
    // must not swallow `--json` and run a different configuration.
    let (stdout, err, ok) = run(&[
        "classify",
        "--traceroutes",
        jsonl.to_str().unwrap(),
        "--ingest-serial",
        "--json",
    ]);
    assert!(!ok, "classify accepted a removed switch: {stdout}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        err.contains("--ingest-serial needs a value, got --json"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_counts_and_dump_are_exact() {
    let dir = std::env::temp_dir().join(format!("lastmile-ingest-quar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Two good records around one JSON-broken line and one well-formed
    // JSON document that fails model conversion (unparsable destination).
    let good1 = tr_line(1, 600, 10.0);
    let good2 = tr_line(1, 86000, 11.0);
    let bad_json = r#"{"fw":5020,"af":4,TRUNCATED"#;
    let bad_model = r#"{"fw":5020,"af":4,"dst_addr":"not-an-ip","src_addr":"192.168.1.10","from":"20.0.0.1","msm_id":5001,"prb_id":1,"timestamp":700,"proto":"ICMP","type":"traceroute","result":[]}"#;
    let trs = dir.join("trs.jsonl");
    std::fs::write(&trs, format!("{good1}\n{bad_json}\n{bad_model}\n{good2}\n")).unwrap();

    let stats_path = dir.join("stats.json");
    let quarantine_path = dir.join("quarantine.jsonl");
    let (_, err, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--min-probes",
        "1",
        "--stats-out",
        stats_path.to_str().unwrap(),
        "--quarantine",
        quarantine_path.to_str().unwrap(),
    ]);
    assert!(ok, "classify failed: {err}");
    assert!(err.contains("2 traceroutes parsed, 2 skipped"), "{err}");

    // Typed counts in the stats JSON are per-file exact, and each
    // record is decoded once.
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
    let q = &stats["ingest"]["quarantined"];
    assert_eq!(q["json"], 1, "{stats}");
    assert_eq!(q["model"], 1, "{stats}");
    assert_eq!(q["framing"], 0, "{stats}");
    assert_eq!(q["worker_panic"], 0, "{stats}");
    assert_eq!(stats["ingest"]["records_decoded"], 2, "one pass of two");
    assert!(stats["ingest"]["bytes_read"].as_u64().unwrap() > 0);
    assert!(stats["ingest"]["records_per_sec"].as_f64().unwrap() > 0.0);

    // The dump reproduces each bad record verbatim, with its offset.
    let dump = std::fs::read_to_string(&quarantine_path).unwrap();
    let docs: Vec<serde_json::Value> = dump
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(docs.len(), 2, "{dump}");
    assert_eq!(docs[0]["kind"], "json");
    assert_eq!(docs[0]["record"], bad_json);
    assert_eq!(docs[0]["offset"], (good1.len() + 1) as u64);
    assert_eq!(docs[1]["kind"], "model");
    assert_eq!(docs[1]["record"], bad_model);
    assert!(!docs[1]["detail"].as_str().unwrap().is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

/// The reference analysis of a corpus: resolve the window first (each
/// bound from its flag, else from the data span), then feed one
/// `AsPipeline` built over that window — all probes as ASN 0, as
/// `classify` without metadata routes them. Returns the `classify --json`
/// bytes and the `--stats` document.
fn reference(
    path: &std::path::Path,
    start: Option<i64>,
    end: Option<i64>,
) -> (String, serde_json::Value) {
    let mut trs = Vec::new();
    ingest_file(path.to_str().unwrap(), &IngestOptions::default(), |tr| {
        trs.push(tr)
    })
    .unwrap();
    let data_min = trs.iter().map(|tr| tr.timestamp.as_secs()).min().unwrap();
    let data_max = trs.iter().map(|tr| tr.timestamp.as_secs()).max().unwrap();
    let window = TimeRange::new(
        UnixTime::from_secs(start.unwrap_or(data_min)),
        UnixTime::from_secs(end.unwrap_or(data_max + 1)),
    );
    let mut pipeline = AsPipeline::new(PipelineConfig::paper(), window);
    for tr in &trs {
        pipeline.ingest(tr);
    }
    let analysis: PopulationAnalysis = pipeline.finish();

    let d = analysis.detection.as_ref();
    let docs = vec![serde_json::json!({
        "asn": 0,
        "probes": analysis.probes_used(),
        "class": analysis.class().name(),
        "daily_amplitude_ms": d.map(|d| d.daily_amplitude_ms),
        "prominent_frequency_cph": d.and_then(|d| d.prominent_frequency()),
        "prominent_is_daily": d.map(|d| d.prominent_is_daily),
        "max_agg_delay_ms": analysis.aggregated.max(),
        "coverage": analysis.aggregated.coverage(),
    })];
    let json = serde_json::to_string_pretty(&docs).unwrap() + "\n";

    let metrics = RunMetrics::new();
    let label = format!("{}..{}", window.start().as_secs(), window.end().as_secs());
    record_population_metrics(&metrics, 0, &label, &analysis, 0);
    metrics
        .column_bytes
        .store(pipeline.column_bytes(), Ordering::Relaxed);
    (json, serde_json::to_value(&metrics.snapshot()))
}

/// `doc`'s fields other than `drop`.
fn without(doc: &serde_json::Value, drop: &[&str]) -> Vec<(String, serde_json::Value)> {
    let serde_json::Value::Object(fields) = doc else {
        panic!("not an object: {doc:?}");
    };
    fields
        .iter()
        .filter(|(k, _)| !drop.contains(&k.as_str()))
        .cloned()
        .collect()
}

/// A `--stats` document without its timings and decode counts: what two
/// analyses of the same records under the same window must agree on.
fn counters(stats: &serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    let mut fields = without(stats, &["stage_nanos", "latency", "ingest"]);
    for (k, v) in &mut fields {
        if k == "populations" {
            let rows = v.as_array().unwrap();
            *v = Value::Array(
                rows.iter()
                    .map(|row| Value::Object(without(row, &["nanos"])))
                    .collect(),
            );
        }
    }
    Value::Object(fields)
}

#[test]
fn one_pass_matches_resolving_the_window_first() {
    let dir = std::env::temp_dir().join(format!("lastmile-ingest-window-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Four days of three probes with a diurnal swing; the flag bounds
    // fall mid-bin, a day in from each end, so records lie on both sides.
    let mut lines = String::new();
    for bin in 0..(4 * 48i64) {
        let phase = std::f64::consts::TAU * bin as f64 / 48.0;
        for k in 0..3i64 {
            for prb in 1..=3u32 {
                let rtt = 10.0 + 2.0 * phase.sin() + prb as f64 * 0.25;
                lines.push_str(&tr_line(prb, bin * 1800 + k * 600, rtt));
                lines.push('\n');
            }
        }
    }
    let trs = dir.join("trs.jsonl");
    std::fs::write(&trs, lines).unwrap();
    let (flag_start, flag_end) = (86_400 + 900, 3 * 86_400 - 900);

    let stats_path = dir.join("stats.json");
    for (start, end) in [
        (None, None),
        (Some(flag_start), None),
        (None, Some(flag_end)),
        (Some(flag_start), Some(flag_end)),
    ] {
        let (start_s, end_s) = (
            start.map(|s: i64| s.to_string()),
            end.map(|e: i64| e.to_string()),
        );
        let mut args = vec![
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--json",
            "--stats-out",
            stats_path.to_str().unwrap(),
        ];
        if let Some(s) = &start_s {
            args.extend(["--start", s]);
        }
        if let Some(e) = &end_s {
            args.extend(["--end", e]);
        }
        let (stdout, err, ok) = run(&args);
        assert!(ok, "classify {start:?}..{end:?} failed: {err}");
        let stats: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();

        let (want_json, want_stats) = reference(&trs, start, end);
        assert_eq!(
            stdout, want_json,
            "classify --json under {start:?}..{end:?}"
        );
        assert_eq!(
            counters(&stats),
            counters(&want_stats),
            "--stats counters under {start:?}..{end:?}"
        );
    }

    // The mid-bin flag window is memoized as it was built: an rw run
    // primes it, and an ro run serves every probe from it.
    let (want_json, _) = reference(&trs, Some(flag_start), Some(flag_end));
    let (start_s, end_s) = (flag_start.to_string(), flag_end.to_string());
    let cache_dir = dir.join("cache");
    for mode in ["rw", "ro"] {
        let (stdout, err, ok) = run(&[
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--start",
            &start_s,
            "--end",
            &end_s,
            "--json",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--cache",
            mode,
            "--stats-out",
            stats_path.to_str().unwrap(),
        ]);
        assert!(ok, "cached classify --cache {mode} failed: {err}");
        assert_eq!(stdout, want_json, "classify --json under --cache {mode}");
    }
    let warm: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
    assert_eq!(warm["store"]["misses"].as_u64(), Some(0), "{warm}");
    assert_eq!(warm["store"]["bypasses"].as_u64(), Some(0), "{warm}");
    assert!(warm["store"]["hits"].as_u64().unwrap() > 0, "{warm}");

    std::fs::remove_dir_all(&dir).ok();
}
