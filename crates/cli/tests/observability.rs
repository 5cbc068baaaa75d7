//! End-to-end observability: simulate a fixture, then classify with
//! `--trace`, `--stats-out`, `--populations-csv`, and `--progress`, and
//! validate every artefact — the Chrome trace is well-formed (valid
//! JSON, balanced begin/end per thread, one span per pipeline stage and
//! per population), the stats JSON matches its golden key set, the CSV
//! mirrors the population table — and that classification stdout stays
//! byte-identical across ingest thread counts with tracing on. `fleet
//! gen --trace` is checked to book simulating and rendering each probe
//! to separate spans.
//!
//! `scripts/check.sh` runs this test as its observability smoke step, so
//! the artefact validation needs no external tools (no jq).

mod common;

use common::run;
use std::collections::{BTreeMap, BTreeSet};

fn keys(v: &serde_json::Value) -> Vec<&str> {
    v.as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn trace_stats_and_csv_artifacts() {
    let dir = std::env::temp_dir().join(format!("lastmile-obs-e2e-{}", std::process::id()));
    let dir_s = dir.to_str().unwrap();
    let (_, err, ok) = run(&[
        "simulate",
        "--scenario",
        "anchor",
        "--out",
        dir_s,
        "--days",
        "5",
    ]);
    assert!(ok, "simulate failed: {err}");
    let trs = dir.join("traceroutes.jsonl");
    let probes = dir.join("probes.json");
    let trace_path = dir.join("trace.json");
    let stats_path = dir.join("stats.json");
    let csv_path = dir.join("populations.csv");

    let (stdout_base, err, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--json",
        "--trace",
        trace_path.to_str().unwrap(),
        "--stats-out",
        stats_path.to_str().unwrap(),
        "--populations-csv",
        csv_path.to_str().unwrap(),
        "--progress",
    ]);
    assert!(ok, "classify failed: {err}");
    assert!(err.contains("[trace] wrote"), "{err}");
    // The heartbeat prints a final line when it stops, so even a
    // sub-second run reports at least once.
    assert!(err.contains("[progress"), "{err}");

    // --- The trace file: valid Chrome trace-event JSON ---------------
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap())
            .expect("trace file is valid JSON");
    assert_eq!(trace["displayTimeUnit"], "ms");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    // Balanced begin/end per thread: depth never goes negative and every
    // thread returns to zero.
    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    let mut span_names: BTreeSet<String> = BTreeSet::new();
    let mut population_spans = 0u64;
    for ev in events {
        let ph = ev["ph"].as_str().expect("event ph");
        match ph {
            "B" => {
                let tid = ev["tid"].as_u64().expect("B tid");
                assert!(ev["ts"].as_f64().is_some(), "B without ts: {ev:?}");
                let name = ev["name"].as_str().expect("B name");
                span_names.insert(name.to_string());
                if name == "population" {
                    population_spans += 1;
                    assert!(ev["args"]["asn"].as_u64().is_some(), "{ev:?}");
                    assert!(ev["args"]["period"].as_str().is_some(), "{ev:?}");
                }
                *depth.entry(tid).or_insert(0) += 1;
            }
            "E" => {
                let tid = ev["tid"].as_u64().expect("E tid");
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "unbalanced E on tid {tid}");
            }
            "i" | "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "thread {tid} has {d} unclosed span(s)");
    }
    // One span per pipeline stage, and one per population.
    for required in ["ingest", "series", "aggregate", "detect", "population"] {
        assert!(
            span_names.contains(required),
            "no {required:?} span: {span_names:?}"
        );
    }

    // --- The stats JSON: golden key set ------------------------------
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).expect("stats JSON");
    assert_eq!(
        keys(&stats),
        vec![
            "traceroutes_ingested",
            "traceroutes_out_of_period",
            "bins_discarded_sanity",
            "bins_interpolated",
            "welch_segments",
            "populations_analyzed",
            "populations_with_detection",
            "tasks_failed",
            "column_bytes",
            "store",
            "ingest",
            "latency",
            "stage_nanos",
            "populations",
        ],
        "--stats top-level schema changed"
    );
    assert_eq!(
        keys(&stats["latency"]),
        vec!["decode", "series", "analyze", "bucket_count"]
    );
    // The bucket-table size is exposed so quantile consumers can reason
    // about the log-linear resolution (and thus the error bound).
    assert!(stats["latency"]["bucket_count"].as_u64().unwrap() > 0);
    for hist in ["decode", "series", "analyze"] {
        let h = &stats["latency"][hist];
        assert_eq!(
            keys(h),
            vec!["count", "p50_nanos", "p90_nanos", "p99_nanos", "max_nanos"],
            "latency.{hist} schema changed"
        );
        assert!(h["count"].as_u64().unwrap() > 0, "latency.{hist} is empty");
        let (p50, p90, p99, max) = (
            h["p50_nanos"].as_u64().unwrap(),
            h["p90_nanos"].as_u64().unwrap(),
            h["p99_nanos"].as_u64().unwrap(),
            h["max_nanos"].as_u64().unwrap(),
        );
        assert!(p50 > 0 && p50 <= p90 && p90 <= p99, "latency.{hist}: {h:?}");
        assert!(max > 0, "latency.{hist}: {h:?}");
    }
    assert!(stats["ingest"]["queue_max_depth"].as_u64().is_some());
    // The simulator writes canonical Atlas JSON, which the decoder's
    // fast pass covers in full.
    assert_eq!(stats["ingest"]["decode_fallbacks"].as_u64(), Some(0));
    // Every decoded record contributes one decode-latency sample.
    assert_eq!(
        stats["latency"]["decode"]["count"].as_u64().unwrap(),
        stats["ingest"]["records_decoded"].as_u64().unwrap(),
        "decode histogram count != records decoded"
    );
    let pops = stats["populations"].as_array().expect("populations array");
    assert_eq!(
        pops.len() as u64,
        stats["populations_analyzed"].as_u64().unwrap()
    );
    assert_eq!(
        population_spans,
        pops.len() as u64,
        "one span per population"
    );
    for row in pops {
        assert_eq!(
            keys(row),
            vec![
                "asn",
                "period",
                "traceroutes",
                "bins_discarded",
                "probes",
                "class",
                "nanos"
            ],
            "population row schema changed"
        );
        assert!(row["traceroutes"].as_u64().unwrap() > 0, "{row:?}");
        assert!(row["nanos"].as_u64().unwrap() > 0, "{row:?}");
    }

    // --- The populations CSV mirrors the table -----------------------
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("asn,period,traceroutes,bins_discarded,probes,class,nanos")
    );
    assert_eq!(lines.count(), pops.len());

    // --- Determinism: stdout byte-identical across ingest modes with
    //     tracing on ---------------------------------------------------
    for (i, extra) in [
        &["--ingest-threads", "2"][..],
        &["--ingest-threads", "1"][..],
        &["--ingest-threads", "4"][..],
    ]
    .iter()
    .enumerate()
    {
        let rerun_trace = dir.join(format!("trace-{i}.json"));
        let mut args = vec![
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--probes",
            probes.to_str().unwrap(),
            "--json",
            "--trace",
            rerun_trace.to_str().unwrap(),
            "--stats",
        ];
        args.extend_from_slice(extra);
        let (stdout, err, ok) = run(&args);
        assert!(ok, "classify {extra:?} failed: {err}");
        assert_eq!(stdout, stdout_base, "output diverges under {extra:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// One closed span of a Chrome trace.
struct Span {
    name: String,
    /// The span open around it on its thread, if any.
    parent: Option<String>,
    begin_args: serde_json::Value,
    end_args: serde_json::Value,
}

/// Every span of a Chrome trace, checking begin/end balance per thread.
fn closed_spans(trace: &serde_json::Value) -> Vec<Span> {
    let mut open: BTreeMap<u64, Vec<(String, serde_json::Value)>> = BTreeMap::new();
    let mut spans = Vec::new();
    for ev in trace["traceEvents"].as_array().expect("traceEvents array") {
        let tid = ev["tid"].as_u64().unwrap_or(0);
        match ev["ph"].as_str().expect("event ph") {
            "B" => open.entry(tid).or_default().push((
                ev["name"].as_str().expect("B name").to_string(),
                ev["args"].clone(),
            )),
            "E" => {
                let stack = open.entry(tid).or_default();
                let (name, begin_args) = stack.pop().expect("E without B");
                assert_eq!(ev["name"].as_str(), Some(name.as_str()), "E closes {name}");
                spans.push(Span {
                    name,
                    parent: stack.last().map(|(n, _)| n.clone()),
                    begin_args,
                    end_args: ev["args"].clone(),
                });
            }
            _ => {}
        }
    }
    for (tid, stack) in &open {
        assert!(stack.is_empty(), "thread {tid} has unclosed spans");
    }
    spans
}

#[test]
fn fleet_gen_trace_accounts_for_every_probe_record_and_byte() {
    let dir = std::env::temp_dir().join(format!("lastmile-obs-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"name": "obs", "days": 5, "classes": {"severe": 1, "clean": 1},
            "probes_per_as": {"min": 3, "max": 3}}"#,
    )
    .unwrap();
    let out = dir.join("fleet");
    let trace_path = dir.join("trace.json");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--threads",
        "2",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert!(ok, "fleet gen failed: {err}");
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap())
            .expect("trace file is valid JSON");
    let spans = closed_spans(&trace);
    let probes = |name: &str| -> BTreeSet<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.begin_args["probe"].as_u64().expect("probe arg"))
            .collect()
    };
    // Every emitted probe is rendered as it is simulated: one
    // `render_probe` span per probe, its `simulate_probe` span inside.
    let simulated = probes("simulate_probe");
    assert_eq!(simulated.len(), 6, "{simulated:?}");
    assert_eq!(probes("render_probe"), simulated);
    for s in spans.iter().filter(|s| s.name.ends_with("_probe")) {
        let parent = s.parent.as_deref();
        match s.name.as_str() {
            "simulate_probe" => assert_eq!(parent, Some("render_probe")),
            _ => assert!(
                !matches!(parent, Some("simulate_probe" | "render_probe")),
                "{} nested in {parent:?}",
                s.name
            ),
        }
    }
    // Each probe waits for its turn and appends its records in exactly
    // one write span of its own.
    let writes = spans.iter().filter(|s| s.name == "write_probe").count();
    assert_eq!(writes, simulated.len());
    assert_eq!(probes("write_probe"), simulated);
    // The render spans account for every record and byte written, and
    // the write spans for every byte appended.
    let sum = |name: &str, key: &str, args: fn(&Span) -> &serde_json::Value| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| args(s)[key].as_u64().expect("span arg"))
            .sum()
    };
    let corpus = std::fs::read(out.join("traceroutes.jsonl")).unwrap();
    let lines = corpus.iter().filter(|&&b| b == b'\n').count() as u64;
    assert!(lines > 0);
    assert_eq!(sum("render_probe", "records", |s| &s.end_args), lines);
    assert_eq!(
        sum("render_probe", "bytes", |s| &s.end_args),
        corpus.len() as u64
    );
    assert_eq!(
        sum("write_probe", "bytes", |s| &s.begin_args),
        corpus.len() as u64
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_flags_create_missing_parent_dirs() {
    // `--quarantine`, `--stats-out`, and `--populations-csv` into
    // directories that don't exist yet must create them (matching the
    // experiment runners' CSV writers) instead of failing at the end of
    // an otherwise-complete run.
    let dir = std::env::temp_dir().join(format!("lastmile-obs-mkdir-{}", std::process::id()));
    let dir_s = dir.to_str().unwrap();
    let (_, err, ok) = run(&[
        "simulate",
        "--scenario",
        "anchor",
        "--out",
        dir_s,
        "--days",
        "5",
    ]);
    assert!(ok, "simulate failed: {err}");
    let trs = dir.join("traceroutes.jsonl");
    let probes = dir.join("probes.json");
    let quarantine = dir.join("triage/deep/quarantine.jsonl");
    let stats = dir.join("out/stats/run.json");
    let csv = dir.join("out/csv/populations.csv");
    let (_, err, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--quarantine",
        quarantine.to_str().unwrap(),
        "--stats-out",
        stats.to_str().unwrap(),
        "--populations-csv",
        csv.to_str().unwrap(),
    ]);
    assert!(ok, "classify failed: {err}");
    assert!(quarantine.exists(), "quarantine parent dirs not created");
    assert!(stats.exists(), "stats-out parent dirs not created");
    assert!(csv.exists(), "populations-csv parent dirs not created");

    // An uncreatable parent (a path component is a regular file) fails
    // with a located error naming the flag.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let bad = dir.join("blocker/sub/q.jsonl");
    let (_, err, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--quarantine",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok, "classify should fail on an uncreatable parent");
    assert!(
        err.contains("cannot create directory") && err.contains("--quarantine"),
        "error not located: {err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hygiene_accepts_stats_flags() {
    let dir = std::env::temp_dir().join(format!("lastmile-obs-hyg-{}", std::process::id()));
    let dir_s = dir.to_str().unwrap();
    let (_, err, ok) = run(&[
        "simulate",
        "--scenario",
        "anchor",
        "--out",
        dir_s,
        "--days",
        "5",
    ]);
    assert!(ok, "simulate failed: {err}");
    let trs = dir.join("traceroutes.jsonl");
    let probes = dir.join("probes.json");
    let stats_path = dir.join("hygiene-stats.json");
    let (stdout, err, ok) = run(&[
        "hygiene",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--stats-out",
        stats_path.to_str().unwrap(),
    ]);
    assert!(ok, "hygiene --stats-out failed: {err}");
    assert!(stdout.contains("persistent congestion"), "{stdout}");
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).expect("stats JSON");
    assert!(stats["traceroutes_ingested"].as_u64().unwrap() > 0);
    assert!(stats["populations_analyzed"].as_u64().unwrap() > 0);
    assert!(stats["latency"]["series"]["count"].as_u64().unwrap() > 0);
    assert!(stats["stage_nanos"]["wall"].as_u64().unwrap() > 0);

    std::fs::remove_dir_all(&dir).ok();
}
