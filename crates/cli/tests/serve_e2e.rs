//! End-to-end tests for the `lastmile serve` daemon: spawn the real
//! binary on an ephemeral port (`--addr 127.0.0.1:0` + `--ready-file`),
//! then talk plain HTTP/1.1 over `std::net::TcpStream`.
//!
//! Pinned behaviors, matching DESIGN.md's serving contract:
//!
//! * `/v1/classify` bytes are identical to batch `classify --json`
//!   stdout — even under concurrent requests;
//! * the populations CSV matches `--populations-csv` output modulo the
//!   timing column;
//! * a saturated accept queue answers `503` with `Retry-After` for
//!   classify traffic while `/healthz` keeps answering via the fast
//!   lane, and queued requests still complete (no worker panics);
//! * live intake (file appends + `POST /v1/traceroutes`) converges to
//!   byte-identity with a cold `classify --json` over the union corpus,
//!   and concurrent readers see exactly one epoch per response;
//! * SIGTERM drains in-flight requests AND any pending re-analysis
//!   (epoch swap before snapshot re-persist), then exits 0;
//! * every analysis decodes each record once: batch (cold, warm, cached
//!   `--bgp`), and a live pass decodes only what arrived since;
//! * a POSTed record nested past the parser's recursion limit is
//!   rejected as `json` and the daemon keeps serving;
//! * an idle daemon sleeps: its threads wake only to work or to stop
//!   (Linux, where `/proc` counts the wakeups).

mod common;

use common::{
    await_live_convergence, fixture, header, http_get, http_post, lastmile_bin, run, spawn_serve,
    spawn_serve_over, terminate, Scratch,
};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Drop a CSV's trailing (timing) column, which legitimately differs
/// between two runs over the same corpus.
fn strip_last_column(csv: &str) -> String {
    csv.lines()
        .map(|line| line.rsplit_once(',').expect("csv has columns").0)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn concurrent_responses_match_batch_output() {
    let dir = Scratch::new("serve-e2e");
    let (child, addr) = spawn_serve(&dir, &[]);

    // The batch outputs the daemon must reproduce byte-for-byte.
    let trs = dir.join("traceroutes.jsonl");
    let probes = dir.join("probes.json");
    let csv_path = dir.join("populations.csv");
    let (batch_json, err, ok) = run(&[
        "classify",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--json",
        "--populations-csv",
        csv_path.to_str().unwrap(),
    ]);
    assert!(ok, "batch classify failed: {err}");

    // Eight concurrent full-classification requests, all byte-identical
    // to the batch stdout.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || http_get(&addr, "/v1/classify"))
            })
            .collect();
        for handle in handles {
            let (status, headers, body) = handle.join().expect("client thread");
            assert_eq!(status, 200);
            assert_eq!(header(&headers, "content-type"), Some("application/json"));
            assert_eq!(
                header(&headers, "content-length"),
                Some(body.len().to_string().as_str())
            );
            assert_eq!(header(&headers, "connection"), Some("close"));
            assert_eq!(body, batch_json.as_bytes(), "daemon diverged from batch");
        }
    });

    // A single ASN's document equals its element of the batch array.
    let batch: serde_json::Value = serde_json::from_str(&batch_json).expect("batch JSON");
    let first = &batch.as_array().expect("array")[0];
    let asn = first["asn"].as_u64().expect("asn");
    let (status, _, body) = http_get(&addr, &format!("/v1/classify/{asn}"));
    assert_eq!(status, 200);
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("classify doc");
    assert_eq!(&doc, first);
    let (status, _, _) = http_get(&addr, "/v1/classify/999999");
    assert_eq!(status, 404);

    // The populations CSV matches --populations-csv modulo timings.
    let (status, headers, body) = http_get(&addr, "/v1/populations?format=csv");
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/csv; charset=utf-8")
    );
    let batch_csv = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(
        strip_last_column(std::str::from_utf8(&body).unwrap()),
        strip_last_column(&batch_csv),
        "daemon population table diverged from batch CSV"
    );

    // Series for the same ASN: well-formed, bounded by the query window.
    let (status, _, body) = http_get(&addr, &format!("/v1/series/{asn}"));
    assert_eq!(status, 200);
    let series: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("series doc");
    let points = series["points"].as_array().expect("points");
    assert!(!points.is_empty());
    let t0 = points[0]["t"].as_i64().expect("t");
    let (status, _, body) = http_get(&addr, &format!("/v1/series/{asn}?from={}", t0 + 1));
    assert_eq!(status, 200);
    let clipped: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    let clipped_points = clipped["points"].as_array().unwrap();
    assert_eq!(
        clipped_points.len(),
        points.len() - 1,
        "from= is inclusive-exclusive"
    );
    // Every 400 that quotes client input is still one JSON document
    // whose error names that input.
    for (path, input) in [
        ("/v1/classify/abc".to_string(), "abc"),
        (format!("/v1/series/{asn}?from=banana"), "banana"),
        ("/v1/populations?format=xml".to_string(), "xml"),
        ("/metrics?format=xml".to_string(), "xml"),
        ("/v1/ops/timeline?metric=nope".to_string(), "nope"),
    ] {
        let (status, _, body) = http_get(&addr, &path);
        assert_eq!(status, 400, "{path}");
        let body = String::from_utf8(body).unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&body).unwrap_or_else(|e| panic!("{path}: {e}: {body}"));
        let error = doc["error"].as_str().expect("error string");
        assert!(error.contains(input), "{path}: {error}");
    }

    // Without --live-spool, POST intake is explicitly disabled (409,
    // not 404: the endpoint exists, the daemon just has nowhere durable
    // to put records) and other methods are rejected.
    let (status, _, body) = http_post(&addr, "/v1/traceroutes", b"{}\n");
    assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("live ingest disabled"));
    let (status, _, _) = http_get(&addr, "/v1/traceroutes");
    assert_eq!(status, 405);

    // Liveness and metrics.
    let (status, _, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"status\":\"ok\"}\n");
    let (status, _, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let metrics: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc");
    assert!(metrics["run"]["traceroutes_ingested"].as_u64().unwrap() > 0);
    let serve = &metrics["serve"];
    assert!(serve["requests"].as_u64().unwrap() >= 8);
    assert_eq!(serve["worker_panics"].as_u64(), Some(0));
    assert_eq!(serve["rejected_busy"].as_u64(), Some(0));
    assert!(serve["latency"]["classify"]["count"].as_u64().unwrap() >= 8);

    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    assert!(stderr.contains("[serve] shutdown: drained"), "{stderr}");
}

#[test]
fn saturated_queue_answers_503_with_retry_after() {
    let dir = Scratch::new("serve-busy");
    // One worker, one queue slot, and a handler slow enough that two
    // staggered requests hold both; the third must bounce — but health
    // probes must keep answering via the fast lane the whole time.
    let (child, addr) = spawn_serve(
        &dir,
        &[
            "--serve-workers",
            "1",
            "--serve-queue",
            "1",
            "--serve-delay-ms",
            "1500",
            "--retry-after",
            "3",
        ],
    );

    let slow = |addr: String| {
        std::thread::spawn(move || {
            let (status, _, body) = http_get(&addr, "/v1/classify");
            (status, body)
        })
    };
    let a = slow(addr.clone()); // → in flight (worker sleeps 1.5s)
    std::thread::sleep(Duration::from_millis(400));
    let b = slow(addr.clone()); // → parked in the accept queue
    std::thread::sleep(Duration::from_millis(400));

    // The pool is saturated. Health probes bypass the full queue — they
    // must answer 200, promptly, while both worker slots are held.
    for _ in 0..3 {
        let probe_started = Instant::now();
        let (status, _, body) = http_get(&addr, "/healthz");
        assert_eq!(status, 200, "health probe bounced while saturated");
        assert_eq!(body, b"{\"status\":\"ok\"}\n");
        assert!(
            probe_started.elapsed() < Duration::from_millis(900),
            "health probe stuck behind the worker pool: {:?}",
            probe_started.elapsed()
        );
    }

    // Classify traffic, by contrast, must bounce: the fast lane serves
    // only health/metrics, so the acceptor 503s with the configured
    // Retry-After and a JSON error body.
    let (status, headers, body) = http_get(&addr, "/v1/classify");
    assert_eq!(status, 503, "expected a bounce while saturated");
    assert_eq!(header(&headers, "retry-after"), Some("3"));
    let err: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("503 body is JSON");
    assert_eq!(err["error"].as_str(), Some("accept queue full"));
    assert_eq!(err["retry_after_secs"].as_u64(), Some(3));

    // Both the in-flight and the queued request still complete.
    for handle in [a, b] {
        let (status, body) = handle.join().expect("slow client");
        assert_eq!(status, 200, "queued request must not be dropped");
        assert!(!body.is_empty());
    }

    // The daemon survived: metrics report the bounce, the fast-lane
    // hits, and zero panics. (/metrics itself also rides the fast lane
    // when saturated; here the pool has drained.)
    let (status, _, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let metrics: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc");
    let serve = &metrics["serve"];
    assert!(serve["rejected_busy"].as_u64().unwrap() >= 1, "{serve}");
    assert!(serve["fastlane_hits"].as_u64().unwrap() >= 3, "{serve}");
    assert_eq!(serve["worker_panics"].as_u64(), Some(0));
    assert!(serve["queue_max_depth"].as_u64().unwrap() >= 1, "{serve}");
    assert!(serve["latency"]["healthz"]["count"].as_u64().unwrap() >= 3);

    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
}

/// Append a newline-terminated chunk to a file (the collector-style
/// corpus append the `--watch` intake path is built for).
fn append_file(path: &Path, bytes: &[u8]) {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open corpus for append");
    f.write_all(bytes).unwrap();
}

#[test]
fn live_appends_and_posts_converge_to_cold_union_bytes() {
    let dir = Scratch::new("serve-live");
    let (full_corpus, probes) = fixture(&dir);
    let all = std::fs::read_to_string(&full_corpus).expect("fixture corpus");
    let lines: Vec<&str> = all.lines().collect();
    // The daemon starts without ANY of probe 6005's records — the
    // simulated signal is perfectly periodic, so dropping a time-tail
    // changes nothing; dropping a whole probe changes the population
    // (and therefore the classification bytes) for sure. Its records
    // arrive later: most as file appends, 500 via POST (bounded so the
    // body stays under the 4 MiB intake cap).
    let (head, tail): (Vec<&str>, Vec<&str>) = lines
        .iter()
        .partition(|line| !line.contains("\"prb_id\":6005"));
    assert!(tail.len() > 1000, "fixture probe 6005 too sparse to split");
    let (to_append, to_post) = tail.split_at(tail.len() - 500);
    let corpus = dir.join("live.jsonl");
    let spool = dir.join("spool.jsonl");
    let join = |ls: &[&str]| {
        ls.iter().fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
    };
    std::fs::write(&corpus, join(&head)).unwrap();

    let (child, addr) = spawn_serve_over(
        &corpus,
        &probes,
        &dir.join("ready-live"),
        &[
            "--watch",
            "--watch-poll-ms",
            "50",
            "--live-spool",
            spool.to_str().unwrap(),
        ],
    );

    // Epoch 1 serves the head-only analysis.
    let (status, headers, baseline) = http_get(&addr, "/v1/classify");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-epoch"), Some("1"));

    // Concurrent readers during the swaps: every response must carry
    // one consistent epoch — same X-Epoch ⇒ byte-identical body, and a
    // reader's epoch never goes backwards.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen: Vec<(u64, Vec<u8>)> = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, headers, body) = http_get(&addr, "/v1/classify");
                    assert_eq!(status, 200);
                    let epoch: u64 = header(&headers, "x-epoch")
                        .expect("x-epoch header")
                        .parse()
                        .expect("numeric epoch");
                    if let Some((last, _)) = seen.last() {
                        assert!(epoch >= *last, "epoch went backwards");
                    }
                    seen.push((epoch, body));
                    std::thread::sleep(Duration::from_millis(50));
                }
                seen
            })
        })
        .collect();

    // A malformed-only POST is rejected with the quarantine taxonomy
    // and must not disturb the pipeline.
    let (status, _, body) = http_post(&addr, "/v1/traceroutes", b"not json at all\n");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let err: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("reject doc");
    assert_eq!(err["rejected"][0]["kind"].as_str(), Some("json"));

    // Live intake: 3 records appended to the watched corpus (split so a
    // poll can observe a partial line), 3 POSTed (one good + bad mix).
    let appended = join(to_append);
    let (first_part, rest) = appended.as_bytes().split_at(appended.len() / 2);
    append_file(&corpus, first_part);
    std::thread::sleep(Duration::from_millis(120));
    append_file(&corpus, rest);
    let post_body = format!("{}garbage line\n", join(to_post));
    let (status, _, body) = http_post(&addr, "/v1/traceroutes", post_body.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let outcome: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("intake doc");
    assert_eq!(outcome["accepted"].as_u64(), Some(500));
    assert_eq!(outcome["rejected"].as_array().map(Vec::len), Some(1));

    // Wait until every accepted record has been re-analyzed, then stop
    // the readers.
    await_live_convergence(&addr, tail.len() as u64, Duration::from_secs(120));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut all_seen: Vec<(u64, Vec<u8>)> = Vec::new();
    for reader in readers {
        all_seen.extend(reader.join().expect("reader thread"));
    }

    // The live document now differs from the baseline and equals a cold
    // `classify --json` over the union corpus (corpus-after-appends +
    // spool), byte for byte.
    let (status, headers, live_body) = http_get(&addr, "/v1/classify");
    assert_eq!(status, 200);
    assert_ne!(live_body, baseline, "re-analysis changed nothing");
    let live_epoch: u64 = header(&headers, "x-epoch").unwrap().parse().unwrap();
    assert!(live_epoch >= 2);
    let union = dir.join("union.jsonl");
    let mut union_bytes = std::fs::read(&corpus).unwrap();
    union_bytes.extend_from_slice(&std::fs::read(&spool).unwrap());
    std::fs::write(&union, union_bytes).unwrap();
    let (cold, err, ok) = run(&[
        "classify",
        "--traceroutes",
        union.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "cold union classify failed: {err}");
    assert_eq!(
        live_body,
        cold.as_bytes(),
        "live daemon diverged from cold union classify"
    );

    // Same epoch ⇒ same bytes, across all readers.
    all_seen.push((live_epoch, live_body));
    all_seen.push((1, baseline));
    let mut by_epoch: std::collections::BTreeMap<u64, &[u8]> = std::collections::BTreeMap::new();
    for (epoch, body) in &all_seen {
        match by_epoch.get(epoch) {
            Some(existing) => assert_eq!(
                existing, body,
                "two readers saw different bytes under epoch {epoch}"
            ),
            None => {
                by_epoch.insert(*epoch, body);
            }
        }
    }

    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    assert!(stderr.contains("[live] epoch"), "{stderr}");
}

#[test]
fn sigterm_drains_pending_reanalysis_before_snapshot_persist() {
    let dir = Scratch::new("serve-drain");
    let cache_dir = dir.join("cache");
    // A watcher that polls once a minute has not seen the append when
    // SIGTERM lands: only its final poll at shutdown finds it, which
    // leaves the re-analysis PENDING, so the engine must run it during
    // shutdown (draining the swap) before the snapshot re-persist.
    let (child, addr) = spawn_serve(
        &dir,
        &[
            "--watch",
            "--watch-poll-ms",
            "60000",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ],
    );
    let corpus = dir.join("traceroutes.jsonl");
    let all = std::fs::read_to_string(&corpus).unwrap();
    let last_line = all.lines().next_back().expect("nonempty corpus");
    append_file(&corpus, format!("{last_line}\n").as_bytes());
    let (_, _, body) = http_get(&addr, "/metrics");
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc");
    let live = &doc["live"];
    assert_eq!(live["watch_appends"].as_u64(), Some(0), "{live}");

    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    // The pending window was drained: epoch 2 published during
    // shutdown, strictly before the final snapshot persist — so the
    // persisted store never mixes epochs.
    assert!(
        stderr.contains("[live] draining pending re-analysis before shutdown"),
        "{stderr}"
    );
    let swap_at = stderr
        .find("[live] epoch 2")
        .unwrap_or_else(|| panic!("drained re-analysis never published its epoch: {stderr}"));
    let last_persist_at = stderr.rfind("[cache] saved").expect("shutdown persist");
    assert!(
        swap_at < last_persist_at,
        "snapshot persisted before the drained epoch swap: {stderr}"
    );
}

#[test]
fn restart_reanalyses_nothing_the_startup_analysis_covered() {
    let dir = Scratch::new("serve-restart");
    let watch = ["--watch", "--watch-poll-ms", "50"];
    let (child, addr) = spawn_serve(&dir, &watch);
    let corpus = dir.join("traceroutes.jsonl");
    let probes = dir.join("probes.json");
    let all = std::fs::read_to_string(&corpus).unwrap();
    let last_line = format!("{}\n", all.lines().next_back().expect("nonempty corpus"));

    // One append the running daemon picks up and re-analyses.
    append_file(&corpus, last_line.as_bytes());
    await_live_convergence(&addr, 1, Duration::from_secs(60));
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");

    // Another append while the daemon is down, then a restart: its
    // startup analysis reads the whole grown corpus, so the watcher has
    // nothing left to signal.
    append_file(&corpus, last_line.as_bytes());
    let (child, addr) = spawn_serve_over(&corpus, &probes, &dir.join("ready"), &watch);
    std::thread::sleep(Duration::from_millis(1500));
    let (status, _, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc");
    let live = &doc["live"];
    assert_eq!(live["watch_appends"].as_u64(), Some(0), "{live}");
    assert_eq!(live["reanalyses"].as_u64(), Some(0), "{live}");
    let (status, headers, body) = http_get(&addr, "/v1/classify");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-epoch"), Some("1"));
    let (cold, err, ok) = run(&[
        "classify",
        "--traceroutes",
        corpus.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "cold classify failed: {err}");
    assert_eq!(
        body,
        cold.as_bytes(),
        "restarted daemon diverged from cold classify over the grown corpus"
    );
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    assert!(!stderr.contains("[live] epoch"), "{stderr}");
}

#[test]
fn sigterm_drains_in_flight_and_repersists_snapshot() {
    let dir = Scratch::new("serve-term");
    let cache_dir = dir.join("cache");
    let (child, addr) = spawn_serve(
        &dir,
        &[
            "--serve-delay-ms",
            "1500",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ],
    );
    // Startup analysis persisted the first snapshot.
    let snapshot = cache_dir.join("series.lmss");
    assert!(snapshot.exists(), "startup snapshot missing");

    // Park a request in flight, then SIGTERM mid-handling.
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || http_get(&addr, "/v1/classify"))
    };
    std::thread::sleep(Duration::from_millis(400));
    let (stderr, ok) = terminate(child);

    // The in-flight request completed with a full, valid body.
    let (status, headers, body) = in_flight.join().expect("in-flight client");
    assert_eq!(status, 200, "in-flight request was dropped by shutdown");
    assert_eq!(
        header(&headers, "content-length"),
        Some(body.len().to_string().as_str())
    );
    serde_json::from_str::<serde_json::Value>(std::str::from_utf8(&body).unwrap())
        .expect("complete JSON body");

    assert!(ok, "serve did not exit cleanly: {stderr}");
    assert!(stderr.contains("[serve] shutdown: drained"), "{stderr}");
    // Snapshot persisted twice: once at startup, once at shutdown.
    assert_eq!(
        stderr.matches("[cache] saved").count(),
        2,
        "expected startup + shutdown persists: {stderr}"
    );
    assert!(snapshot.exists(), "shutdown snapshot missing");
}

/// `ingest.records_decoded` of a `--stats-out` document.
fn records_decoded(stats: &serde_json::Value) -> Option<u64> {
    stats["ingest"]["records_decoded"].as_u64()
}

/// The `--stats-out` document a run wrote.
fn read_stats(path: &Path) -> serde_json::Value {
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).expect("stats JSON")
}

#[test]
fn each_record_is_decoded_once_per_analysis() {
    let dir = Scratch::new("serve-decode");
    let spool = dir.join("spool.jsonl");
    let (child, addr) = spawn_serve(&dir, &["--live-spool", spool.to_str().unwrap()]);
    let trs = dir.join("traceroutes.jsonl");
    let probes = dir.join("probes.json");
    let corpus = std::fs::read_to_string(&trs).unwrap();
    let records = corpus.lines().count() as u64;
    let stats = dir.join("stats.json");

    let classify = |extra: &[&str]| {
        let mut args = vec![
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--probes",
            probes.to_str().unwrap(),
            "--stats-out",
            stats.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let (_, err, ok) = run(&args);
        assert!(ok, "classify {extra:?} failed: {err}");
        read_stats(&stats)
    };
    assert_eq!(records_decoded(&classify(&[])), Some(records), "cold");

    // Warm `--cache ro` over a primed, midnight-aligned window: every
    // probe is served from the store, and each record is still decoded
    // exactly once.
    let timestamps: Vec<i64> = corpus
        .lines()
        .map(|l| {
            let doc: serde_json::Value = serde_json::from_str(l).unwrap();
            doc["timestamp"].as_i64().unwrap()
        })
        .collect();
    let start = timestamps.iter().min().unwrap().div_euclid(86_400) * 86_400;
    let end = (timestamps.iter().max().unwrap().div_euclid(86_400) + 1) * 86_400;
    let (start, end) = (start.to_string(), end.to_string());
    let cache_dir = dir.join("cache");
    let window = [
        "--start",
        &start,
        "--end",
        &end,
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];
    let primed = classify(&[&window[..], &["--cache", "rw"]].concat());
    assert_eq!(records_decoded(&primed), Some(records), "priming");
    let s = classify(&[&window[..], &["--cache", "ro"]].concat());
    assert_eq!(records_decoded(&s), Some(records), "warm");
    assert!(s["store"]["hits"].as_u64().unwrap() > 0, "{s}");
    assert_eq!(s["store"]["misses"].as_u64(), Some(0), "{s}");

    // Cached `--bgp`, cold and warm, over the multi-ASN fixture.
    let (bgp_trs, bgp) = common::write_multi_asn_fixture(&dir.join("bgp"));
    let bgp_cache = dir.join("bgp").join("cache");
    for run_kind in ["cold", "warm"] {
        let (_, err, ok) = run(&[
            "classify",
            "--traceroutes",
            bgp_trs.to_str().unwrap(),
            "--bgp",
            bgp.to_str().unwrap(),
            "--start",
            "0",
            "--end",
            "86400",
            "--min-probes",
            "1",
            "--cache-dir",
            bgp_cache.to_str().unwrap(),
            "--stats-out",
            stats.to_str().unwrap(),
        ]);
        assert!(ok, "{run_kind} cached --bgp classify failed: {err}");
        assert_eq!(
            records_decoded(&read_stats(&stats)),
            Some(48),
            "{run_kind} cached --bgp"
        );
    }

    // A live pass decodes nothing the startup read covered: it folds
    // the POSTed records' rows, each decoded once, at intake.
    let posted: Vec<&str> = corpus.lines().take(25).collect();
    let body = posted.join("\n") + "\n";
    let (status, _, reply) = http_post(&addr, "/v1/traceroutes", body.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    await_live_convergence(&addr, posted.len() as u64, Duration::from_secs(60));
    let (status, _, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let metrics: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc");
    assert_eq!(
        records_decoded(&metrics["run"]),
        Some(posted.len() as u64),
        "live pass"
    );

    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
}

/// The fixture corpus in `dir`, split into the records of every probe
/// but 6005 (`head`) and probe 6005's own (`tail`), which a daemon that
/// starts on `head` receives later: dropping a whole probe changes the
/// population, and so the classification bytes, for sure.
fn split_fixture(dir: &Path) -> (Vec<String>, Vec<String>, std::path::PathBuf) {
    let (full, probes) = fixture(dir);
    let all = std::fs::read_to_string(full).expect("fixture corpus");
    let (head, tail): (Vec<String>, Vec<String>) = all
        .lines()
        .map(str::to_string)
        .partition(|line| !line.contains("\"prb_id\":6005"));
    assert!(tail.len() > 1000, "fixture probe 6005 too sparse to split");
    (head, tail, probes)
}

/// Newline-terminated JSON Lines of `lines`.
fn jsonl(lines: &[String]) -> String {
    lines.iter().fold(String::new(), |mut s, l| {
        s.push_str(l);
        s.push('\n');
        s
    })
}

/// Cold `classify --json` over the live union (corpus, then spool):
/// its stdout and `--stats-out` document.
fn cold_union(
    dir: &Path,
    corpus: &Path,
    spool: &Path,
    probes: &Path,
) -> (String, serde_json::Value) {
    let union = dir.join("union.jsonl");
    let mut bytes = std::fs::read(corpus).unwrap();
    bytes.extend_from_slice(&std::fs::read(spool).unwrap());
    std::fs::write(&union, bytes).unwrap();
    let stats = dir.join("union-stats.json");
    let (cold, err, ok) = run(&[
        "classify",
        "--traceroutes",
        union.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
        "--json",
        "--stats-out",
        stats.to_str().unwrap(),
    ]);
    assert!(ok, "cold union classify failed: {err}");
    (cold, read_stats(&stats))
}

/// The daemon's `/metrics` document.
fn metrics_doc(addr: &str) -> serde_json::Value {
    let (status, _, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc")
}

/// The published records of `/v1/ops/epochs`.
fn published_epochs(addr: &str) -> Vec<serde_json::Value> {
    let (status, _, body) = http_get(addr, "/v1/ops/epochs");
    assert_eq!(status, 200);
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("epochs doc");
    doc["epochs"]
        .as_array()
        .expect("epochs array")
        .iter()
        .filter(|e| e["outcome"] == "published")
        .cloned()
        .collect()
}

#[test]
fn concurrent_posts_and_appends_converge_and_quarantine_like_a_restart() {
    let dir = Scratch::new("serve-mixed");
    let (head, tail, probes) = split_fixture(&dir);
    // Four posters send 100 records each, 25 per POST, while the rest of
    // probe 6005's records are appended to the watched corpus in chunks,
    // one malformed line among them.
    let (posted, appended) = tail.split_at(400);
    let corpus = dir.join("live.jsonl");
    let spool = dir.join("spool.jsonl");
    let dump = dir.join("quarantine-live.jsonl");
    std::fs::write(&corpus, jsonl(&head)).unwrap();
    let live = |dump: &Path| {
        vec![
            "--watch".to_string(),
            "--watch-poll-ms".into(),
            "20".into(),
            "--live-spool".into(),
            spool.to_str().unwrap().into(),
            "--quarantine".into(),
            dump.to_str().unwrap().into(),
        ]
    };
    let args = live(&dump);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (child, addr) = spawn_serve_over(&corpus, &probes, &dir.join("ready"), &args);

    std::thread::scope(|scope| {
        for share in posted.chunks(100) {
            let addr = addr.clone();
            scope.spawn(move || {
                for body in share.chunks(25) {
                    let (status, _, reply) =
                        http_post(&addr, "/v1/traceroutes", jsonl(body).as_bytes());
                    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
                    let outcome: serde_json::Value =
                        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
                    assert_eq!(outcome["accepted"].as_u64(), Some(body.len() as u64));
                }
            });
        }
        for (i, chunk) in appended.chunks(appended.len() / 8 + 1).enumerate() {
            append_file(&corpus, jsonl(chunk).as_bytes());
            if i == 3 {
                append_file(&corpus, b"not a traceroute\n");
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    });
    let delivered = (posted.len() + appended.len()) as u64;
    await_live_convergence(&addr, delivered, Duration::from_secs(120));

    let (_, _, live_body) = http_get(&addr, "/v1/classify");
    let (cold, _) = cold_union(&dir, &corpus, &spool, &probes);
    assert_eq!(
        live_body,
        cold.as_bytes(),
        "live daemon diverged from cold union classify"
    );
    let gauges = &metrics_doc(&addr)["live"];
    assert_eq!(gauges["watch_quarantined"].as_u64(), Some(1), "{gauges}");
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");

    // A daemon restarted over the final files dumps the same quarantine.
    let restarted = dir.join("quarantine-restart.jsonl");
    let args = live(&restarted);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (child, _) = spawn_serve_over(&corpus, &probes, &dir.join("ready"), &args);
    let (stderr, ok) = terminate(child);
    assert!(ok, "restarted serve did not exit cleanly: {stderr}");
    let live_dump = std::fs::read_to_string(&dump).unwrap();
    assert!(live_dump.contains("not a traceroute"), "{live_dump}");
    assert_eq!(live_dump, std::fs::read_to_string(&restarted).unwrap());
}

#[test]
fn rotation_mid_run_rebuilds_and_folds_no_record_twice() {
    let dir = Scratch::new("serve-rotate");
    let (head, tail, probes) = split_fixture(&dir);
    // POST `before`, rotate the corpus to head + `rotated`, POST `after`,
    // then append `appended` to the replacement.
    let (before, rest) = tail.split_at(200);
    let (after, rest) = rest.split_at(200);
    let (rotated, appended) = rest.split_at(300);
    let corpus = dir.join("live.jsonl");
    let spool = dir.join("spool.jsonl");
    std::fs::write(&corpus, jsonl(&head)).unwrap();
    let (child, addr) = spawn_serve_over(
        &corpus,
        &probes,
        &dir.join("ready"),
        &[
            "--watch",
            "--watch-poll-ms",
            "20",
            "--live-spool",
            spool.to_str().unwrap(),
        ],
    );
    let post = |lines: &[String]| {
        let (status, _, reply) = http_post(&addr, "/v1/traceroutes", jsonl(lines).as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    };

    post(before);
    await_live_convergence(&addr, before.len() as u64, Duration::from_secs(60));
    // Rotation by rename: a new file, longer than the old one. The POST
    // right after it lands in the rebuild's window, so the rebuild must
    // drop its rows: the spool it re-reads holds them.
    let staging = dir.join("live.jsonl.new");
    std::fs::write(&staging, jsonl(&[&head[..], rotated].concat())).unwrap();
    std::fs::rename(&staging, &corpus).unwrap();
    post(after);
    let started = std::time::Instant::now();
    while !published_epochs(&addr)
        .iter()
        .any(|e| e["trigger"].as_str().unwrap().contains("watch_truncation"))
    {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no rebuild published"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    append_file(&corpus, jsonl(appended).as_bytes());
    let delivered = (before.len() + after.len() + appended.len()) as u64;
    await_live_convergence(&addr, delivered, Duration::from_secs(60));

    let (_, _, live_body) = http_get(&addr, "/v1/classify");
    let (cold, cold_stats) = cold_union(&dir, &corpus, &spool, &probes);
    assert_eq!(
        live_body,
        cold.as_bytes(),
        "live daemon diverged from cold union classify"
    );
    // No record was folded twice: the kept pipelines were fed exactly
    // what a cold read of the union feeds them.
    let metrics = metrics_doc(&addr);
    assert_eq!(
        metrics["run"]["traceroutes_ingested"],
        cold_stats["traceroutes_ingested"]
    );
    // Intake counted every delivered record once; the passes decoded
    // each of them once, and the rebuild re-read the replacement and
    // `before` from the spool (`after` is decoded once either way: by
    // its own pass, or re-read by the rebuild with its rows dropped).
    assert_eq!(
        metrics["live"]["records_ingested"].as_u64(),
        Some(delivered)
    );
    let decoded: u64 = published_epochs(&addr)
        .iter()
        .map(|e| e["records_decoded"].as_u64().unwrap())
        .sum();
    let reread = (head.len() + rotated.len() + before.len()) as u64;
    assert_eq!(decoded, delivered + reread);
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
}

/// The fixture in `dir` with its probes split across two ASNs: 6000–6002
/// stay in AS64520, 6003–6005 move to AS64521. Returns its records and
/// the rewritten metadata path.
fn two_asn_fixture(dir: &Path) -> (Vec<String>, std::path::PathBuf) {
    let (full, probes) = fixture(dir);
    let meta: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(probes).unwrap()).unwrap();
    let serde_json::Value::Array(mut list) = meta else {
        panic!("probe metadata is not a list: {meta}");
    };
    for probe in &mut list {
        let moved = (6003..=6005).contains(&probe["id"].as_u64().unwrap());
        if let (true, serde_json::Value::Object(fields)) = (moved, probe) {
            let asn = fields.iter_mut().find(|(k, _)| k == "asn").unwrap();
            asn.1 = serde_json::json!(64521);
        }
    }
    let split = dir.join("probes-two-asn.json");
    std::fs::write(&split, serde_json::Value::Array(list).to_string()).unwrap();
    let lines = std::fs::read_to_string(full).unwrap();
    (lines.lines().map(str::to_string).collect(), split)
}

/// The published epochs' `(populations_reanalysed, probes_rebinned)`.
fn pass_work(addr: &str) -> Vec<(u64, u64)> {
    published_epochs(addr)
        .iter()
        .map(|e| {
            let n = |k: &str| e[k].as_u64().unwrap_or_else(|| panic!("no {k}: {e}"));
            (n("populations_reanalysed"), n("probes_rebinned"))
        })
        .collect()
}

/// The live daemon at `addr` serves what a cold run over the union of
/// `corpus` and `spool` gives: `/v1/classify` bytes, and every
/// non-timing field of `/metrics.run` and `/v1/populations`.
fn assert_serves_cold_union(dir: &Path, addr: &str, corpus: &Path, spool: &Path, probes: &Path) {
    let (_, _, live_body) = http_get(addr, "/v1/classify");
    let (cold, cold_stats) = cold_union(dir, corpus, spool, probes);
    assert_eq!(
        live_body,
        cold.as_bytes(),
        "diverged from cold union classify"
    );
    let run = &metrics_doc(addr)["run"];
    for counter in [
        "traceroutes_ingested",
        "traceroutes_out_of_period",
        "bins_discarded_sanity",
        "bins_interpolated",
        "welch_segments",
        "populations_analyzed",
        "populations_with_detection",
    ] {
        assert_eq!(run[counter], cold_stats[counter], "run.{counter}");
    }
    let untimed = |rows: &serde_json::Value| -> Vec<Vec<(String, serde_json::Value)>> {
        let row = |r: &serde_json::Value| {
            let fields = r.as_object().unwrap().iter();
            fields.filter(|(k, _)| k != "nanos").cloned().collect()
        };
        rows.as_array().unwrap().iter().map(row).collect()
    };
    let (status, _, body) = http_get(addr, "/v1/populations");
    assert_eq!(status, 200);
    let served: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("population table");
    assert_eq!(untimed(&served), untimed(&cold_stats["populations"]));
    assert_eq!(untimed(&run["populations"]), untimed(&served));
}

#[test]
fn posts_reaching_one_asn_leave_the_other_untouched() {
    let dir = Scratch::new("serve-partial");
    let (lines, probes) = two_asn_fixture(&dir);
    // 50 of probe 6000's records from the middle of its run arrive by
    // POST, so the data span, and the window, stay put.
    let ours: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].contains("\"prb_id\":6000,"))
        .collect();
    let held = &ours[ours.len() / 2..][..50];
    let posted: Vec<String> = held.iter().map(|&i| lines[i].clone()).collect();
    let head: Vec<String> = (0..lines.len())
        .filter(|i| !held.contains(i))
        .map(|i| lines[i].clone())
        .collect();
    let corpus = dir.join("live.jsonl");
    let spool = dir.join("spool.jsonl");
    std::fs::write(&corpus, jsonl(&head)).unwrap();
    let (child, addr) = spawn_serve_over(
        &corpus,
        &probes,
        &dir.join("ready"),
        &["--live-spool", spool.to_str().unwrap()],
    );
    let other = |addr: &str| http_get(addr, "/v1/classify/64521").2;
    let before = other(&addr);
    assert!(String::from_utf8_lossy(&before).contains("\"probes\": 3"));
    for (i, body) in posted.chunks(25).enumerate() {
        let (status, _, reply) = http_post(&addr, "/v1/traceroutes", jsonl(body).as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
        await_live_convergence(&addr, 25 * (i as u64 + 1), Duration::from_secs(60));
    }
    assert_eq!(other(&addr), before, "AS64521 was re-analysed");
    let work = pass_work(&addr);
    assert!(!work.is_empty());
    assert!(work.iter().all(|&w| w == (1, 1)), "{work:?}");
    assert_serves_cold_union(&dir, &addr, &corpus, &spool, &probes);
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
}

#[test]
fn a_post_that_moves_an_open_window_reanalyses_everything() {
    let dir = Scratch::new("serve-widen");
    let (lines, probes) = two_asn_fixture(&dir);
    // With no --end, the window ends at the data: a record of probe 6000
    // two days past the rest moves it for both populations.
    let last = lines
        .iter()
        .rev()
        .find(|l| l.contains("\"prb_id\":6000,"))
        .unwrap();
    let posted = [shifted(last, 2 * 86_400)];
    let corpus = dir.join("live.jsonl");
    let spool = dir.join("spool.jsonl");
    std::fs::write(&corpus, jsonl(&lines)).unwrap();
    let (child, addr) = spawn_serve_over(
        &corpus,
        &probes,
        &dir.join("ready"),
        &["--live-spool", spool.to_str().unwrap()],
    );
    let (_, _, before) = http_get(&addr, "/v1/classify");
    let (status, _, reply) = http_post(&addr, "/v1/traceroutes", jsonl(&posted).as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    await_live_convergence(&addr, 1, Duration::from_secs(60));
    assert_eq!(pass_work(&addr), vec![(2, 6)], "every probe binned again");
    let (_, _, after) = http_get(&addr, "/v1/classify");
    assert_ne!(after, before, "the window did not move");
    assert_serves_cold_union(&dir, &addr, &corpus, &spool, &probes);
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
}

/// `--start` and `--end` of the midnight-aligned days holding every
/// record of `lines`.
fn day_window<'a>(lines: impl IntoIterator<Item = &'a str>) -> (String, String) {
    let timestamps: Vec<i64> = lines
        .into_iter()
        .map(|l| {
            let doc: serde_json::Value = serde_json::from_str(l).unwrap();
            doc["timestamp"].as_i64().unwrap()
        })
        .collect();
    let day = 86_400;
    let start = timestamps.iter().min().unwrap().div_euclid(day) * day;
    let end = (timestamps.iter().max().unwrap().div_euclid(day) + 1) * day;
    (start.to_string(), end.to_string())
}

/// The record `line` moved `secs` later.
fn shifted(line: &str, secs: i64) -> String {
    let doc: serde_json::Value = serde_json::from_str(line).unwrap();
    let t = doc["timestamp"].as_i64().unwrap();
    let field = format!("\"timestamp\":{t},");
    assert!(line.contains(&field), "{line}");
    line.replacen(&field, &format!("\"timestamp\":{},", t + secs), 1)
}

#[test]
fn a_last_record_without_newline_is_analysed_and_persisted() {
    let dir = Scratch::new("serve-unterm");
    let (full, probes) = fixture(&dir);
    let all = std::fs::read_to_string(&full).unwrap();
    let last = all
        .lines()
        .rfind(|l| l.contains("\"prb_id\":6005"))
        .expect("a record of probe 6005");
    // Two days past the data, alone in its bin: it widens the window a
    // cold read closes at the data span, so the bytes show it, and its
    // probe's series gains a discarded bin.
    let (late, later) = (shifted(last, 2 * 86_400), shifted(last, 3 * 86_400));
    let corpus = dir.join("live.jsonl");
    std::fs::write(&corpus, format!("{all}{late}")).unwrap();
    let cold = |path: &Path, extra: &[&str]| {
        let path = path.to_str().unwrap();
        let args = ["classify", "--traceroutes", path, "--probes"];
        let (out, err, ok) =
            run(&[&args[..], &[probes.to_str().unwrap(), "--json"], extra].concat());
        assert!(ok, "cold classify failed: {err}");
        out
    };
    let watch = ["--watch", "--watch-poll-ms", "20"];
    let (child, addr) = spawn_serve_over(&corpus, &probes, &dir.join("ready"), &watch);
    let (_, _, body) = http_get(&addr, "/v1/classify");
    assert_eq!(body, cold(&corpus, &[]).as_bytes(), "last record left out");
    assert_ne!(
        body,
        cold(&full, &[]).as_bytes(),
        "the last record shows nowhere"
    );

    // Its newline lands with the start of one more record: the watcher
    // delivers the first, and the second is the new unterminated tail.
    append_file(&corpus, format!("\n{later}").as_bytes());
    await_live_convergence(&addr, 1, Duration::from_secs(60));
    let (_, _, body) = http_get(&addr, "/v1/classify");
    assert_eq!(body, cold(&corpus, &[]).as_bytes(), "after the newline");
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");

    // A daemon over a known window with a series cache saves its
    // snapshot at shutdown, the tail's series included: a warm
    // `classify` over the file is served every probe from it and agrees
    // with a cold one, discarded bins and all.
    let bytes = std::fs::read_to_string(&corpus).unwrap();
    let (start, end) = day_window(bytes.lines());
    let cache = dir.join("cache");
    let window = ["--start", &start, "--end", &end];
    let (child, _) = spawn_serve_over(
        &corpus,
        &probes,
        &dir.join("ready"),
        &[
            &watch[..],
            &window[..],
            &["--cache-dir", cache.to_str().unwrap()],
        ]
        .concat(),
    );
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    assert!(stderr.contains("[cache] saved"), "{stderr}");
    let stats = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (cold_stats, warm_stats) = (stats("cold.json"), stats("warm.json"));
    let uncached = cold(
        &corpus,
        &[&window[..], &["--stats-out", &cold_stats]].concat(),
    );
    let warm_args = ["--cache-dir", cache.to_str().unwrap(), "--cache", "ro"];
    let warm = cold(
        &corpus,
        &[&window[..], &warm_args[..], &["--stats-out", &warm_stats]].concat(),
    );
    assert_eq!(warm, uncached, "warm classify diverged from cold");
    let (cold_stats, warm_stats) = (
        read_stats(Path::new(&cold_stats)),
        read_stats(Path::new(&warm_stats)),
    );
    assert_eq!(
        warm_stats["store"]["misses"].as_u64(),
        Some(0),
        "{warm_stats}"
    );
    assert!(
        warm_stats["store"]["hits"].as_u64().unwrap() > 0,
        "{warm_stats}"
    );
    assert_eq!(
        warm_stats["bins_discarded_sanity"],
        cold_stats["bins_discarded_sanity"]
    );
}

/// A live daemon over `head` (`source`: routing flags and a known
/// window) with a series cache: POST `posted`, append `appended` to the
/// watched corpus, SIGTERM. Its snapshot must hold exactly the entries
/// a cold `classify --cache rw` over the final union writes, and its
/// last epoch the cold bytes. Returns the cold run's store inserts.
fn live_snapshot_matches_cold_union(
    dir: &Path,
    head: &[String],
    posted: &[String],
    appended: &[String],
    source: &[&str],
) -> u64 {
    let corpus = dir.join("live.jsonl");
    let spool = dir.join("spool.jsonl");
    let (live_cache, cold_cache) = (dir.join("live-cache"), dir.join("cold-cache"));
    std::fs::write(&corpus, jsonl(head)).unwrap();
    let live = [
        "--traceroutes",
        corpus.to_str().unwrap(),
        "--watch",
        "--watch-poll-ms",
        "20",
        "--live-spool",
        spool.to_str().unwrap(),
        "--cache-dir",
        live_cache.to_str().unwrap(),
    ];
    let (child, addr) = common::spawn_serve_with(&dir.join("ready"), &[&live[..], source].concat());
    let (status, _, reply) = http_post(&addr, "/v1/traceroutes", jsonl(posted).as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    append_file(&corpus, jsonl(appended).as_bytes());
    let delivered = (posted.len() + appended.len()) as u64;
    await_live_convergence(&addr, delivered, Duration::from_secs(60));
    let (_, _, live_body) = http_get(&addr, "/v1/classify");
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    assert!(stderr.contains("[cache] saved"), "{stderr}");

    let union = dir.join("union.jsonl");
    let mut bytes = std::fs::read(&corpus).unwrap();
    bytes.extend_from_slice(&std::fs::read(&spool).unwrap());
    std::fs::write(&union, bytes).unwrap();
    let stats = dir.join("cold-stats.json");
    let cold = [
        "classify",
        "--traceroutes",
        union.to_str().unwrap(),
        "--cache-dir",
        cold_cache.to_str().unwrap(),
        "--json",
        "--stats-out",
        stats.to_str().unwrap(),
    ];
    let (out, err, ok) = run(&[&cold[..], source].concat());
    assert!(ok, "cold union classify failed: {err}");
    assert_eq!(
        live_body,
        out.as_bytes(),
        "live daemon diverged from cold union"
    );
    // Bytes 8..16 are the source fingerprint (of two files live, of one
    // cold); the rest, entries and their checksum, must agree.
    let snapshot = |cache: &Path| std::fs::read(cache.join("series.lmss")).unwrap();
    let (live, cold) = (snapshot(&live_cache), snapshot(&cold_cache));
    assert_eq!(live[..8], cold[..8]);
    assert_eq!(live[16..], cold[16..], "live snapshot entries differ");
    read_stats(&stats)["store"]["inserts"].as_u64().unwrap()
}

#[test]
fn live_snapshot_holds_what_a_cold_build_of_the_union_holds() {
    let dir = Scratch::new("serve-refill");
    // Probe metadata: probe 6005 arrives live, by POST and by append.
    let anchor = dir.join("anchor");
    std::fs::create_dir_all(&anchor).unwrap();
    let (head, tail, probes) = split_fixture(&anchor);
    let (start, end) = day_window(head.iter().chain(&tail).map(String::as_str));
    let (posted, appended) = tail.split_at(300);
    let source = [
        "--probes",
        probes.to_str().unwrap(),
        "--start",
        &start,
        "--end",
        &end,
    ];
    let inserts = live_snapshot_matches_cold_union(&anchor, &head, posted, appended, &source);
    assert!(inserts > 0);

    // Per-traceroute BGP attribution: probe 1's records split across two
    // ASNs, so only probe 2's series may be stored.
    let (trs, bgp) = common::write_multi_asn_fixture(&dir.join("bgp"));
    let lines: Vec<String> = std::fs::read_to_string(trs)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let source = [
        "--bgp",
        bgp.to_str().unwrap(),
        "--min-probes",
        "1",
        "--start",
        "0",
        "--end",
        "86400",
    ];
    let (head, rest) = lines.split_at(24);
    let (posted, appended) = rest.split_at(12);
    let inserts =
        live_snapshot_matches_cold_union(&dir.join("bgp"), head, posted, appended, &source);
    assert_eq!(inserts, 1);
}

#[test]
fn a_live_daemon_refuses_a_read_only_cache() {
    let dir = Scratch::new("serve-live-ro");
    let (trs, bgp) = common::write_multi_asn_fixture(&dir);
    let (_, err, ok) = run(&[
        "serve",
        "--traceroutes",
        trs.to_str().unwrap(),
        "--bgp",
        bgp.to_str().unwrap(),
        "--min-probes",
        "1",
        "--watch",
        "--cache-dir",
        dir.join("cache").to_str().unwrap(),
        "--cache",
        "ro",
        "--addr",
        "127.0.0.1:0",
    ]);
    assert!(!ok, "a live daemon started with --cache ro");
    assert!(
        err.contains("--cache ro does nothing in a live daemon"),
        "{err}"
    );
}

#[test]
fn deeply_nested_post_is_rejected_and_the_daemon_stays_up() {
    let dir = Scratch::new("serve-deep");
    let spool = dir.join("spool.jsonl");
    let (child, addr) = spawn_serve(&dir, &["--live-spool", spool.to_str().unwrap()]);
    // 150,000 arrays deep: about 300 KB, far under the intake body cap
    // but far past any recursion limit.
    let depth = 150_000;
    let body = format!("{{\"deep\":{}{}}}\n", "[".repeat(depth), "]".repeat(depth));
    let (status, _, resp) = http_post(&addr, "/v1/traceroutes", body.as_bytes());
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&resp));
    let err: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&resp).unwrap()).expect("reject doc");
    assert_eq!(err["rejected"][0]["kind"].as_str(), Some("json"));
    let (status, _, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"status\":\"ok\"}\n");
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
}

/// Voluntary context switches summed over every thread of `pid`: how
/// often its threads went to sleep, so how often they had woken.
#[cfg(target_os = "linux")]
fn voluntary_switches(pid: u32) -> u64 {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("the daemon's task dir")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
        })
        .sum()
}

#[test]
#[cfg(target_os = "linux")]
fn idle_daemon_wakes_only_for_work() {
    let dir = Scratch::new("serve-idle");
    let spool = dir.join("spool.jsonl");
    // Live intake armed and the ops sampler at its default period: every
    // background thread of the daemon is running.
    let (child, addr) = spawn_serve(&dir, &["--live-spool", spool.to_str().unwrap()]);
    // One answered request: the acceptor and workers are up and parked.
    let (status, _, _) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    let before = voluntary_switches(child.id());
    std::thread::sleep(Duration::from_secs(2));
    let wakeups = voluntary_switches(child.id()).saturating_sub(before);
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    // The sampler ticks twice in 2 s; a polling acceptor would add
    // hundreds.
    assert!(
        wakeups <= 12,
        "{wakeups} voluntary context switches in 2 s idle"
    );
}

/// CPU time (user + system, in 1/100 s ticks) the process has used so far.
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat comm") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
#[cfg(target_os = "linux")]
fn a_zero_watch_poll_does_not_spin() {
    let dir = Scratch::new("serve-poll0");
    let (child, addr) = spawn_serve(&dir, &["--watch", "--watch-poll-ms", "0"]);
    let (status, _, _) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    let before = cpu_ticks(child.id());
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_ticks(child.id()).saturating_sub(before);
    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");
    // A watcher polling with no pause burns a whole core: ~200 ticks.
    assert!(
        used <= 40,
        "{used} CPU ticks in 2 s idle with --watch-poll-ms 0"
    );
}

#[test]
fn removed_serve_knobs_fail_loudly() {
    // The fast-lane queue, the cheap and intake budgets, the watcher's
    // offset sidecar and the re-analysis debounce are no longer
    // settable. Followed by a plain value, each used to parse as an
    // ignored value flag; now `serve` refuses to start. The corpus path does not exist, so a daemon that did
    // start fails on it instead.
    for knob in [
        "--serve-fastlane-queue",
        "--serve-budget-cheap",
        "--serve-budget-intake",
        "--live-offset-file",
        "--reanalyze-debounce-ms",
    ] {
        let out = Command::new(lastmile_bin())
            .args(["serve", "--traceroutes", "missing.jsonl", knob, "2"])
            .output()
            .expect("spawn lastmile");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{knob}: {err}");
        assert!(
            err.contains(&format!("unknown flag {knob} for serve")),
            "{knob}: {err}"
        );
        assert!(err.contains("usage:"), "{knob}: {err}");
    }
}
