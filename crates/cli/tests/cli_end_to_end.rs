//! End-to-end test of the `lastmile` binary: simulate a scenario to disk,
//! then classify the exported Atlas-format data and check the verdict
//! matches the planted ground truth.

mod common;

use common::run;
use std::path::{Path, PathBuf};

/// A scratch dir of this process, removed when the test that made it
/// ends, whether or not it passed.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lastmile-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn simulate_then_classify_round_trip() {
    let dir = Scratch::new("classify");
    let dir_s = dir.to_str().unwrap();

    // Export 5 days of the anchor scenario (ISP_D: planted Severe).
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
    assert!(dir.join("traceroutes.jsonl").exists());
    assert!(dir.join("probes.json").exists());

    // Classify with probe metadata: ISP_D must come back Severe.
    let trs = dir.join("traceroutes.jsonl");
    let probes = dir.join("probes.json");
    let (stdout, err, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "classify failed: {err}");
    let docs: serde_json::Value = serde_json::from_str(&stdout).expect("json output");
    let row = &docs.as_array().expect("array")[0];
    assert_eq!(row["asn"], 64520);
    assert_eq!(row["class"], "Severe");
    assert_eq!(row["probes"], 6);
    assert!(row["daily_amplitude_ms"].as_f64().unwrap() > 3.0);

    // Hygiene output flags the congestion.
    let (stdout, _, ok) = run(&[
        "hygiene",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stdout.contains("persistent congestion : YES"), "{stdout}");
    assert!(stdout.contains("avoid hours"), "{stdout}");

    // --stats emits the RunMetrics JSON on stderr, after the [input] line.
    let (_, err, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--stats",
    ]);
    assert!(ok, "classify --stats failed: {err}");
    let json_start = err.find('{').expect("stats JSON on stderr");
    let stats: serde_json::Value = serde_json::from_str(&err[json_start..]).expect("stats JSON");
    assert!(
        stats["traceroutes_ingested"].as_u64().unwrap() > 0,
        "{stats}"
    );
    assert!(stats["populations_analyzed"].as_u64().unwrap() > 0);
    assert!(stats["welch_segments"].as_u64().unwrap() > 0);
    assert!(stats["stage_nanos"]["wall"].as_u64().unwrap() > 0);
    assert_eq!(stats["tasks_failed"], 0);

    // --stats-out writes the same document to a file instead.
    let stats_path = dir.join("stats.json");
    let (_, _, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--stats-out",
        stats_path.to_str().unwrap(),
    ]);
    assert!(ok);
    let from_file: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).expect("stats file");
    assert_eq!(
        from_file["traceroutes_ingested"],
        stats["traceroutes_ingested"]
    );
}

#[test]
fn simulate_then_throughput_round_trip() {
    let dir = Scratch::new("thr");
    let dir_s = dir.to_str().unwrap();
    let (_, err, ok) = run(&[
        "simulate",
        "--scenario",
        "tokyo",
        "--out",
        dir_s,
        "--days",
        "1",
    ]);
    assert!(ok, "simulate failed: {err}");

    let cdn = dir.join("cdn_access.tsv");
    let bgp = dir.join("bgp.csv");
    let (stdout, err, ok) = run(&[
        "throughput",
        "--cdn",
        cdn.to_str().unwrap(),
        "--bgp",
        bgp.to_str().unwrap(),
    ]);
    assert!(ok, "throughput failed: {err}");
    // All three broadband ASNs appear; the legacy ISPs dip below half of
    // the clean one's floor.
    for asn in ["AS64511", "AS64512", "AS64513"] {
        assert!(stdout.contains(asn), "{stdout}");
    }
    // The mobile view switches to the mobile ASNs.
    let (stdout, _, ok) = run(&[
        "throughput",
        "--cdn",
        cdn.to_str().unwrap(),
        "--bgp",
        bgp.to_str().unwrap(),
        "--view",
        "mobile",
    ]);
    assert!(ok);
    assert!(stdout.contains("AS64611"), "{stdout}");
    assert!(!stdout.contains("AS64511"), "{stdout}");
}

#[test]
fn bgp_classify_cache_is_isolated_and_round_trips() {
    let dir = Scratch::new("bgp");
    let cache_dir = dir.join("cache");
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
    // The anchor scenario's period starts 2019-09-01: classify over its
    // first five days, a window given whole by --start AND --end, which
    // the store can serve.
    let start = "1567296000".to_string();
    let end = (1_567_296_000 + 5 * 86_400).to_string();

    let trs = dir.join("traceroutes.jsonl");
    let trs = trs.to_str().unwrap();
    let bgp = dir.join("bgp.csv");
    let bgp = bgp.to_str().unwrap();
    let bgp_args = [
        "classify",
        "--traceroutes",
        trs,
        "--bgp",
        bgp,
        "--start",
        &start,
        "--end",
        &end,
        "--json",
    ];
    let probes = dir.join("probes.json");
    let probes = probes.to_str().unwrap();
    let probes_args = [
        "classify",
        "--traceroutes",
        trs,
        "--probes",
        probes,
        "--start",
        &start,
        "--end",
        &end,
        "--json",
    ];

    // Prime a --probes snapshot with an rw classify run, the one writer.
    let stats_of = |path: &std::path::Path| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let uncached_stats_path = dir.join("uncached-stats.json");
    let uncached_args: Vec<&str> = probes_args
        .iter()
        .copied()
        .chain(["--stats-out", uncached_stats_path.to_str().unwrap()])
        .collect();
    let (probes_baseline, err, ok) = run(&uncached_args);
    assert!(ok, "uncached --probes classify failed: {err}");
    let uncached_stats = stats_of(&uncached_stats_path);
    let probes_cached: Vec<&str> = probes_args
        .iter()
        .copied()
        .chain(["--cache-dir", cache_dir.to_str().unwrap()])
        .collect();
    let (primed, err, ok) = run(&probes_cached);
    assert!(ok, "priming --probes classify failed: {err}");
    assert!(err.contains("[cache] saved"), "{err}");
    assert_eq!(primed, probes_baseline);

    // A warm ro run over the primed window is served whole: no probe
    // misses, no traceroute is binned, and the filter statistics are
    // replayed from the snapshot.
    let primed_stats: serde_json::Value = {
        let path = dir.join("primed-stats.json");
        let args: Vec<&str> = probes_cached
            .iter()
            .copied()
            .chain(["--cache", "ro", "--stats-out", path.to_str().unwrap()])
            .collect();
        let (out, err, ok) = run(&args);
        assert!(ok, "ro --probes classify failed: {err}");
        assert_eq!(out, probes_baseline, "warm ro --probes output diverges");
        stats_of(&path)
    };
    let probe_count = primed_stats["store"]["hits"].as_u64().unwrap();
    assert!(probe_count > 0, "{primed_stats}");
    assert_eq!(primed_stats["store"]["misses"].as_u64(), Some(0));
    assert_eq!(primed_stats["traceroutes_ingested"].as_u64(), Some(0));
    assert!(uncached_stats["traceroutes_ingested"].as_u64().unwrap() > 0);
    for key in [
        "bins_discarded_sanity",
        "welch_segments",
        "populations_analyzed",
    ] {
        assert_eq!(primed_stats[key], uncached_stats[key], "{key}");
    }
    // The store answers only the window it was primed with: an ro run
    // over a one-day-shorter window misses every probe and rebuilds,
    // byte-identical to an uncached run over that window.
    let sub_end = (1_567_296_000 + 4 * 86_400).to_string();
    let sub_args: Vec<&str> = probes_args
        .iter()
        .map(|&a| if a == end { sub_end.as_str() } else { a })
        .collect();
    let (sub_baseline, err, ok) = run(&sub_args);
    assert!(ok, "uncached sub-window classify failed: {err}");
    let sub_stats_path = dir.join("sub-stats.json");
    let sub_cached: Vec<&str> = sub_args
        .iter()
        .copied()
        .chain([
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--cache",
            "ro",
            "--stats-out",
            sub_stats_path.to_str().unwrap(),
        ])
        .collect();
    let (sub_out, err, ok) = run(&sub_cached);
    assert!(ok, "ro sub-window classify failed: {err}");
    assert_eq!(sub_out, sub_baseline, "ro sub-window output diverges");
    let sub_stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&sub_stats_path).unwrap()).unwrap();
    assert_eq!(sub_stats["store"]["hits"].as_u64(), Some(0), "{sub_stats}");
    assert_eq!(
        sub_stats["store"]["misses"].as_u64(),
        Some(probe_count),
        "{sub_stats}"
    );

    // Baseline: --bgp classification without any cache.
    let (baseline, err, ok) = run(&bgp_args);
    assert!(ok, "uncached --bgp classify failed: {err}");

    // Cold cached --bgp run: the primed snapshot belongs to the
    // --probes/ASN-0 source id, so it must be rejected (not served),
    // and the output must match the cache-free baseline.
    let cached_args: Vec<&str> = bgp_args
        .iter()
        .copied()
        .chain(["--cache-dir", cache_dir.to_str().unwrap()])
        .collect();
    let (cold, err, ok) = run(&cached_args);
    assert!(ok, "cold cached --bgp classify failed: {err}");
    assert!(
        err.contains("[cache] ignoring"),
        "primed snapshot not rejected under --bgp: {err}"
    );
    assert_eq!(cold, baseline, "cold cached --bgp output diverges");

    // Warm --bgp run: serves the snapshot the cold run wrote, still
    // byte-identical.
    let (warm, err, ok) = run(&cached_args);
    assert!(ok, "warm cached --bgp classify failed: {err}");
    assert!(err.contains("[cache] loaded"), "no snapshot served: {err}");
    assert_eq!(warm, baseline, "warm cached --bgp output diverges");

    // And the --bgp snapshot must not leak into --probes classification:
    // its source id differs, so the probes run rejects and recomputes.
    let (probes_out, err, ok) = run(&probes_cached);
    assert!(ok, "cached --probes classify failed: {err}");
    assert!(
        err.contains("[cache] ignoring"),
        "--bgp snapshot not rejected under --probes: {err}"
    );
    assert_eq!(probes_out, probes_baseline);
}

#[test]
fn bgp_cache_excludes_multi_asn_probes() {
    // Hand-crafted input reproducing the per-traceroute-attribution
    // hazard: probe 1's edge hop alternates between two ASNs (its
    // traceroutes legitimately split across AS pipelines), probe 2 is
    // single-homed. The cache must memoize only probe 2; caching probe
    // 1's per-pipeline partial series under one key would poison the
    // snapshot and make warm runs diverge.
    let dir = Scratch::new("multiasn");
    let (trs, bgp) = common::write_multi_asn_fixture(&dir);
    let stats_path = dir.join("stats.json");

    for threads in ["1", "2", "3"] {
        let cache_dir = dir.join(format!("cache-t{threads}"));
        let run_args = [
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--bgp",
            bgp.to_str().unwrap(),
            "--start",
            "0",
            "--min-probes",
            "1",
            "--json",
            "--ingest-threads",
            threads,
            "--stats-out",
            stats_path.to_str().unwrap(),
        ];
        let windowed: Vec<&str> = run_args.iter().copied().chain(["--end", "86400"]).collect();
        let cached: Vec<&str> = windowed
            .iter()
            .copied()
            .chain(["--cache-dir", cache_dir.to_str().unwrap()])
            .collect();
        // Runs `args` and returns its stdout, stderr and the store's
        // (hits, misses, bypasses, inserts) from `--stats-out`.
        let run_counted = |args: &[&str], what: &str| {
            let (out, err, ok) = run(args);
            assert!(
                ok,
                "{what} classify at --ingest-threads {threads} failed: {err}"
            );
            let stats: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
            let store = ["hits", "misses", "bypasses", "inserts"].map(|k| {
                stats["store"][k]
                    .as_u64()
                    .unwrap_or_else(|| panic!("{stats}"))
            });
            (out, err, store)
        };

        let (baseline, _, store) = run_counted(&windowed, "uncached");
        assert_eq!(store, [0, 0, 0, 0], "uncached, --ingest-threads {threads}");

        // Both probes are looked up and miss; only probe 2 is memoized.
        let (cold, err, store) = run_counted(&cached, "cold cached");
        assert_eq!(cold, baseline, "cold cached output diverges");
        assert!(
            err.contains("(1 series"),
            "expected exactly probe 2 in the snapshot: {err}"
        );
        assert_eq!(store, [0, 2, 0, 1], "cold rw, --ingest-threads {threads}");

        // Probe 2 is served; probe 1 misses again and is never inserted.
        let (warm, err, store) = run_counted(&cached, "warm cached");
        assert!(err.contains("[cache] loaded"), "no snapshot served: {err}");
        assert_eq!(warm, baseline, "warm cached output diverges");
        assert_eq!(store, [1, 1, 0, 0], "warm rw, --ingest-threads {threads}");

        let ro: Vec<&str> = cached.iter().copied().chain(["--cache", "ro"]).collect();
        let (warm_ro, _, store) = run_counted(&ro, "warm ro");
        assert_eq!(warm_ro, baseline, "warm ro output diverges");
        assert_eq!(store, [1, 1, 0, 0], "warm ro, --ingest-threads {threads}");

        // With `--end` left to the data span the store cannot be asked:
        // the one cacheable probe (2) is a bypass.
        let open: Vec<&str> = run_args
            .iter()
            .copied()
            .chain(["--cache-dir", cache_dir.to_str().unwrap()])
            .collect();
        let (_, _, store) = run_counted(&open, "open-ended");
        assert_eq!(store, [0, 0, 1, 0], "open end, --ingest-threads {threads}");
    }
}

/// Record `i` of the column fixture: probe `1 + i % 3`, every 60 s from
/// 1,000,000 s. Its last private hop answers `near` times; its first
/// public hop answers `far` times, or is missing when `far` is 0.
fn column_record(i: u64, near: usize, far: usize) -> String {
    let replies = |from: &str, rtt: f64, n: usize| {
        vec![format!(r#"{{"from":"{from}","rtt":{rtt:?}}}"#); n].join(",")
    };
    let mut hops = vec![format!(
        r#"{{"hop":1,"result":[{}]}}"#,
        replies("192.168.1.1", 1.0, near)
    )];
    if far > 0 {
        hops.push(format!(
            r#"{{"hop":2,"result":[{}]}}"#,
            replies("20.0.0.1", 5.5 + (i % 7) as f64, far)
        ));
    }
    format!(
        r#"{{"fw":5020,"af":4,"dst_addr":"20.99.0.1","src_addr":"192.168.1.10","from":"20.0.0.1","msm_id":5001,"prb_id":{},"timestamp":{},"proto":"ICMP","type":"traceroute","result":[{}]}}"#,
        1 + i % 3,
        1_000_000 + i * 60,
        hops.join(",")
    )
}

#[test]
fn column_bytes_count_each_kept_row_and_rtt_at_any_thread_count() {
    // 3000 records over several ingest chunks, malformed lines between
    // them. Rows outside the window are never kept. An in-window row
    // costs 4 bytes, or 8 for one of more than 255 replies, plus 8 per
    // RTT; a row with no public hop keeps no RTT.
    let dir = Scratch::new("columns");
    std::fs::create_dir_all(&*dir).unwrap();
    let (first, last) = (100, 2900);
    let mut corpus = String::new();
    let mut expected = 0u64;
    for i in 0..3000u64 {
        let (near, far) = match i {
            1500 => (300, 2),
            _ => (1 + i as usize % 3, i as usize % 4),
        };
        corpus.push_str(&column_record(i, near, far));
        corpus.push('\n');
        if i % 400 == 0 {
            corpus.push_str("{\"prb_id\": 1, \"timestamp\": \n");
        }
        if (first..last).contains(&i) {
            let row = if near > 255 { 8 } else { 4 };
            let rtts = if far > 0 { near + far } else { 0 };
            expected += row + 8 * rtts as u64;
        }
    }
    let trs = dir.join("traceroutes.jsonl");
    std::fs::write(&trs, corpus).unwrap();
    let stats_path = dir.join("stats.json");
    let (start, end) = (
        (1_000_000 + first * 60).to_string(),
        (1_000_000 + last * 60).to_string(),
    );
    for threads in ["1", "2", "3"] {
        let (_, err, ok) = run(&[
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--start",
            &start,
            "--end",
            &end,
            "--min-probes",
            "1",
            "--json",
            "--ingest-threads",
            threads,
            "--stats-out",
            stats_path.to_str().unwrap(),
        ]);
        assert!(ok, "classify at --ingest-threads {threads} failed: {err}");
        let stats: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
        assert_eq!(
            stats["column_bytes"].as_u64(),
            Some(expected),
            "--ingest-threads {threads}: {stats}"
        );
        assert_eq!(stats["traceroutes_out_of_period"].as_u64(), Some(200));
    }
}

#[test]
fn empty_flag_window_fails_before_reading_the_corpus() {
    // The corpus does not exist: the window check must come first, with
    // or without a cache (whose fingerprint would read the corpus).
    let dir = Scratch::new("window");
    let missing = dir.join("missing.jsonl");
    let cache_dir = dir.join("cache");
    for sub in ["classify", "hygiene", "serve"] {
        for cached in [false, true] {
            let mut args = vec![
                sub,
                "--traceroutes",
                missing.to_str().unwrap(),
                "--start",
                "86400",
                "--end",
                "86400",
            ];
            if cached {
                args.extend(["--cache-dir", cache_dir.to_str().unwrap()]);
            }
            let (_, err, ok) = run(&args);
            assert!(!ok, "{args:?} succeeded");
            assert!(
                err.contains("empty window: 86400 .. 86400"),
                "{args:?}: {err}"
            );
        }
    }
}

#[test]
fn bad_usage_exits_nonzero() {
    let (_, _, ok) = run(&["classify"]); // missing --traceroutes
    assert!(!ok);
    let (_, _, ok) = run(&["frobnicate"]);
    assert!(!ok);
    let (_, _, ok) = run(&["simulate", "--scenario", "nope", "--out", "/tmp"]);
    assert!(!ok);
    // Removed options fail loudly, before any input is read.
    let (_, err, ok) = run(&[
        "classify",
        "--traceroutes",
        "missing.jsonl",
        "--cache-dir",
        "missing-cache",
        "--cache",
        "off",
    ]);
    assert!(!ok);
    assert!(err.contains("invalid cache mode off (ro|rw)"), "{err}");
    let (_, err, ok) = run(&[
        "simulate",
        "--scenario",
        "anchor",
        "--out",
        "/tmp",
        "--cache-dir",
        "c",
    ]);
    assert!(!ok);
    assert!(
        err.contains("unknown flag --cache-dir for simulate"),
        "{err}"
    );
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        "s.json",
        "--out",
        "/tmp",
        "--cache-dir",
        "c",
    ]);
    assert!(!ok);
    assert!(
        err.contains("unknown flag --cache-dir for fleet gen"),
        "{err}"
    );
    let (_, err, ok) = run(&[
        "loadgen",
        "--addr",
        "127.0.0.1:9",
        "--asn",
        "1",
        "--profile",
        "fanout",
    ]);
    assert!(!ok);
    assert!(
        err.contains("unknown --profile fanout (ladder|burst)"),
        "{err}"
    );
}
