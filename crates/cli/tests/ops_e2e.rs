//! End-to-end test for the ops plane: spawn the real `lastmile serve`
//! binary with the sampler, telemetry ring, access log, and trace
//! stream all enabled, push a shed-inducing burst through it, and
//! assert the whole observability story joins up:
//!
//! * `/v1/ops/timeline` shows the shed rate rising during the burst and
//!   recovering after it;
//! * `/v1/ops/epochs` records the mid-burst re-analysis the intake POST
//!   triggered;
//! * an explicit `X-Request-Id` is echoed on the response and appears
//!   in both the access log and the trace JSON;
//! * `/metrics?format=prom` passes the strict linter and its histogram
//!   `_count` agrees with the JSON snapshot, fetched prom-first;
//! * zero worker panics under all of it.

mod common;

use common::{header, http_get, http_get_with, http_post, spawn_serve, terminate};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

fn metrics_json(addr: &str) -> serde_json::Value {
    let (status, _, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc")
}

fn unix_now_secs() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs() as i64
}

#[test]
fn ops_plane_joins_timeline_epochs_access_log_and_prom() {
    let dir = std::env::temp_dir().join(format!("lastmile-ops-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let access = dir.join("access.jsonl");
    let trace = dir.join("trace.json");
    let spool = dir.join("spool.jsonl");
    // A tight heavy budget plus a per-heavy-request delay makes sheds
    // easy to force; a 50 ms sampler gives the timeline fine enough
    // grain to see the burst's shape; live flags arm the re-analysis
    // engine so an intake POST produces an epoch record.
    let (child, addr) = spawn_serve(
        &dir,
        &[
            "--serve-workers",
            "2",
            "--serve-budget-heavy",
            "1",
            "--serve-heavy-delay-ms",
            "200",
            "--watch",
            "--watch-poll-ms",
            "50",
            "--live-spool",
            spool.to_str().unwrap(),
            "--ops-sample-ms",
            "50",
            "--access-log",
            access.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ],
    );

    // Let the sampler lay down a few quiet ticks, then pin the query
    // window's `from` after the first tick so the timeline answers at
    // raw resolution.
    std::thread::sleep(Duration::from_millis(400));
    let from = unix_now_secs();

    // A client-supplied request id is echoed back on the response.
    let (status, headers, _) =
        http_get_with(&addr, "/v1/populations", &["X-Request-Id: ops-e2e-probe-1"]);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("ops-e2e-probe-1"));

    // The burst: three rounds of 12 concurrent heavy requests against a
    // budget of 1, with an intake POST in the middle to trigger a
    // re-analysis while the daemon is shedding.
    let corpus = dir.join("traceroutes.jsonl");
    let last_line = {
        let all = std::fs::read_to_string(&corpus).unwrap();
        all.lines()
            .next_back()
            .expect("nonempty corpus")
            .to_string()
    };
    let mut sheds = 0u64;
    let mut oks = 0u64;
    for round in 0..3 {
        let outcomes: Vec<(u16, Vec<(String, String)>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..12)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let (status, headers, _) = http_get(&addr, "/v1/classify");
                        (status, headers)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("burst client"))
                .collect()
        });
        for (status, headers) in outcomes {
            assert!(
                status == 200 || status == 503,
                "unexpected status {status} under burst"
            );
            // Every response — served or shed — carries a request id.
            let id = header(&headers, "x-request-id").expect("x-request-id on every response");
            assert!(!id.is_empty());
            if status == 503 {
                sheds += 1;
            } else {
                oks += 1;
            }
        }
        if round == 1 {
            let body = format!("{last_line}\n");
            let (status, _, resp) = http_post(&addr, "/v1/traceroutes", body.as_bytes());
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    assert!(sheds >= 1, "burst never shed (ok {oks}, sheds {sheds})");
    assert!(oks >= 1, "burst starved everything (sheds {sheds})");

    // Wait for the POSTed record's re-analysis to land, then give the
    // sampler time to record the recovery (zero-shed ticks).
    let started = Instant::now();
    loop {
        let doc = metrics_json(&addr);
        let live = &doc["live"];
        if live["reanalyses"].as_u64().unwrap_or(0) >= 1 && live["ingest_lag"].as_u64() == Some(0) {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "re-analysis never landed: {live}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    std::thread::sleep(Duration::from_millis(400));

    // Prometheus exposition, fetched BEFORE the JSON snapshot so the
    // self-incrementing metrics endpoint can't skew the comparison of a
    // quiesced endpoint (classify: the burst is fully joined).
    let (status, headers, prom_body) = http_get(&addr, "/metrics?format=prom");
    assert_eq!(status, 200);
    assert!(
        header(&headers, "content-type")
            .unwrap()
            .starts_with("text/plain; version=0.0.4"),
        "wrong prom content type"
    );
    let prom_text = std::str::from_utf8(&prom_body).expect("utf-8 exposition");
    if let Err(errors) = lastmile_repro::obs::prom::lint(prom_text) {
        panic!("exposition failed its own linter: {errors:?}");
    }
    let prom_classify_count: u64 = prom_text
        .lines()
        .find(|l| {
            l.starts_with("lastmile_serve_request_duration_nanos_count{endpoint=\"classify\"}")
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("classify _count series in exposition");

    // Accept-header negotiation: a text/plain scraper gets prom without
    // the query parameter; the bare endpoint still answers JSON.
    let (status, headers, _) = http_get_with(&addr, "/metrics", &["Accept: text/plain"]);
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type")
        .unwrap()
        .starts_with("text/plain; version=0.0.4"));
    let (_, headers, _) = http_get(&addr, "/metrics");
    assert_eq!(header(&headers, "content-type"), Some("application/json"));

    // The JSON snapshot agrees with the exposition and reports a clean
    // run: sheds happened, nothing panicked.
    let doc = metrics_json(&addr);
    let serve = &doc["serve"];
    assert_eq!(
        serve["latency"]["classify"]["count"].as_u64(),
        Some(prom_classify_count),
        "prom _count diverged from the JSON snapshot"
    );
    assert_eq!(serve["worker_panics"].as_u64(), Some(0));
    let heavy_shed = serve["admission"]["heavy"]["shed"].as_u64().unwrap();
    assert!(heavy_shed >= 1, "{serve}");

    // The timeline saw the burst: shed_rate_heavy rises above zero and
    // recovers to zero afterwards, at raw resolution, with monotone
    // timestamps.
    let to = unix_now_secs() + 60;
    let (status, _, body) = http_get(
        &addr,
        &format!("/v1/ops/timeline?metric=shed_rate_heavy&from={from}&to={to}"),
    );
    assert_eq!(status, 200);
    let timeline: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("timeline doc");
    assert_eq!(timeline["metric"].as_str(), Some("shed_rate_heavy"));
    let points = timeline["points"].as_array().expect("points");
    assert!(points.len() >= 2, "timeline too sparse: {timeline}");
    let times: Vec<i64> = points.iter().map(|p| p["t"].as_i64().unwrap()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    let maxes: Vec<f64> = points.iter().map(|p| p["max"].as_f64().unwrap()).collect();
    let rise = maxes
        .iter()
        .position(|&v| v > 0.0)
        .unwrap_or_else(|| panic!("shed rate never rose: {maxes:?}"));
    assert!(
        maxes[rise..].last() == Some(&0.0),
        "shed rate never recovered: {maxes:?}"
    );
    // Unknown metrics are a client error naming the valid set.
    let (status, _, body) = http_get(&addr, "/v1/ops/timeline?metric=bogus");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("shed_rate_heavy"));

    // The epoch telemetry ring recorded the mid-burst re-analysis.
    let (status, _, body) = http_get(&addr, "/v1/ops/epochs");
    assert_eq!(status, 200);
    let epochs: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("epochs doc");
    let records = epochs["epochs"].as_array().expect("epochs array");
    let posted = records
        .iter()
        .find(|r| r["trigger"].as_str().unwrap_or("").contains("post"))
        .unwrap_or_else(|| panic!("no post-triggered epoch record: {epochs}"));
    assert_eq!(posted["outcome"].as_str(), Some("published"));
    assert!(posted["epoch"].as_u64().unwrap() >= 2);
    assert!(posted["records_ingested"].as_u64().unwrap() >= 1);
    assert!(posted["pass_nanos"].as_u64().unwrap() > 0);

    let (stderr, ok) = terminate(child);
    assert!(ok, "serve did not exit cleanly: {stderr}");

    // The explicit request id joins the access log and the trace: one
    // JSON access-log line carries it (with the populations endpoint
    // and a 200), and the trace file mentions it in a span.
    let log = std::fs::read_to_string(&access).expect("access log written");
    let tagged = log
        .lines()
        .find(|l| l.contains("ops-e2e-probe-1"))
        .unwrap_or_else(|| panic!("request id missing from access log:\n{log}"));
    let entry: serde_json::Value = serde_json::from_str(tagged).expect("access line is JSON");
    assert_eq!(entry["request_id"].as_str(), Some("ops-e2e-probe-1"));
    assert_eq!(entry["status"].as_u64(), Some(200));
    assert_eq!(entry["endpoint"].as_str(), Some("populations"));
    // Every line is a parseable object, and both outcomes of the burst
    // (served + shed) are in the log.
    for line in log.lines() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable access line {line:?}: {e}"));
        assert!(v.as_object().is_some());
    }
    assert!(log.contains("\"shed_reason\":\"over_budget\""), "{log}");
    let trace_json = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        trace_json.contains("ops-e2e-probe-1"),
        "request id missing from trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}
