//! Saturation end-to-end test: the real `lastmile serve` daemon under a
//! real `lastmile loadgen` classify flood, with a heavy-class admission
//! budget of 1.
//!
//! Pinned behaviors, matching DESIGN.md's admission-control contract:
//!
//! * the flood sheds (`serve.admission.heavy.shed > 0`, 503s with
//!   `cost_class: "heavy"`) instead of queueing without bound;
//! * cheap endpoints (`/v1/populations`, `/v1/series/{asn}`) keep
//!   answering with bounded per-request latency while the flood runs;
//! * `POST /v1/traceroutes` intake lands mid-flood, the live engine
//!   re-analyzes, and `/v1/classify` converges to byte-identity with a
//!   cold `classify --json` over the union corpus;
//! * zero worker panics, and the loadgen report's shed accounting is
//!   consistent (`attempted == ok + shed + errors` — nonzero exit
//!   otherwise).
//!
//! A second test pins the admission knee that DESIGN.md's ladder recipe
//! shows: below the heavy budget's capacity nothing is shed; far above
//! it the budget sheds and the achieved rate stays capped.

mod common;

use common::{await_live_convergence, header, http_get, http_post, lastmile_bin, run};
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// GET with 503-retry: sheds under load are expected and carry a
/// `Retry-After` hint; a well-behaved client honors it (capped, so the
/// test stays fast) and tries again until `deadline`.
fn get_with_retry(
    addr: &str,
    target: &str,
    deadline: Duration,
) -> (Vec<(String, String)>, Vec<u8>) {
    let started = Instant::now();
    loop {
        let (status, headers, body) = http_get(addr, target);
        if status == 200 {
            return (headers, body);
        }
        assert_eq!(
            status,
            503,
            "unexpected status for {target}: {}",
            String::from_utf8_lossy(&body)
        );
        assert!(
            started.elapsed() < deadline,
            "{target} still shedding after {deadline:?}"
        );
        let hint = header(&headers, "retry-after")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        std::thread::sleep(Duration::from_millis((hint * 1000).min(300)));
    }
}

fn join_lines(ls: &[&str]) -> String {
    ls.iter().fold(String::new(), |mut s, l| {
        s.push_str(l);
        s.push('\n');
        s
    })
}

/// Wait for the `--ready-file` handshake, panicking with the daemon's
/// stderr if it dies first.
fn await_ready(child: &mut Child, ready: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(contents) = std::fs::read_to_string(ready) {
            if contents.ends_with('\n') {
                return contents.trim().to_string();
            }
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            // Child already exited: safe to steal its output.
            let mut err = String::new();
            if let Some(stderr) = child.stderr.as_mut() {
                stderr.read_to_string(&mut err).ok();
            }
            panic!("serve exited before ready ({status}): {err}");
        }
        assert!(Instant::now() < deadline, "serve never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn classify_flood_sheds_heavy_while_cheap_and_intake_survive() {
    let dir = std::env::temp_dir().join(format!("lastmile-loadgen-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (_, err, ok) = run(&[
        "simulate",
        "--scenario",
        "anchor",
        "--out",
        dir.to_str().unwrap(),
        "--days",
        "5",
    ]);
    assert!(ok, "simulate failed: {err}");
    let probes = dir.join("probes.json");

    // Withhold probe 6005 entirely (changes the classification bytes for
    // sure); 500 of its records arrive later via POST, racing the flood.
    let all = std::fs::read_to_string(dir.join("traceroutes.jsonl")).expect("fixture corpus");
    let lines: Vec<&str> = all.lines().collect();
    let (head, tail): (Vec<&str>, Vec<&str>) = lines
        .iter()
        .partition(|line| !line.contains("\"prb_id\":6005"));
    assert!(tail.len() > 500, "fixture probe 6005 too sparse to split");
    let to_post = &tail[..500];
    let corpus = dir.join("live.jsonl");
    let spool = dir.join("spool.jsonl");
    std::fs::write(&corpus, join_lines(&head)).unwrap();

    // Two workers, but only ONE may run the heavy endpoint at a time —
    // and the heavy handler is artificially slowed so the flood piles up
    // against the budget instead of finishing before the next arrival.
    let ready = dir.join("ready");
    let mut child = Command::new(lastmile_bin())
        .args([
            "serve",
            "--traceroutes",
            corpus.to_str().unwrap(),
            "--probes",
            probes.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--ready-file",
            ready.to_str().unwrap(),
            "--serve-workers",
            "2",
            "--serve-budget-heavy",
            "1",
            "--serve-heavy-delay-ms",
            "100",
            "--live-spool",
            spool.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lastmile serve");
    let addr = await_ready(&mut child, &ready);

    // Pre-flood baseline: epoch 1 classify bytes, and a real ASN for the
    // cheap per-ASN endpoint.
    let (headers, baseline) = get_with_retry(&addr, "/v1/classify", Duration::from_secs(30));
    assert_eq!(header(&headers, "x-epoch"), Some("1"));
    let (status, _, body) = http_get(&addr, "/v1/populations");
    assert_eq!(status, 200);
    let pops: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("populations doc");
    let asn = pops.as_array().expect("rows")[0]["asn"]
        .as_u64()
        .expect("asn");

    // The flood: the real loadgen binary, open loop, heavy endpoint
    // only, one ladder rung offered well above what one budgeted slot at
    // 100ms/request can absorb (~10 rps). The ladder also reconciles its
    // 503s against the server's shed counters; this test's own requests
    // can only add to the server side.
    let flood_report = dir.join("flood.json");
    let flood = Command::new(lastmile_bin())
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--profile",
            "ladder",
            "--mix",
            "classify=1",
            "--rates",
            "80",
            "--dwell-ms",
            "6000",
            "--concurrency",
            "8",
            "--out",
            flood_report.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lastmile loadgen");
    std::thread::sleep(Duration::from_millis(500));

    // While the flood runs: cheap endpoints must keep answering, each
    // successful round-trip bounded — the second worker is never
    // starved, because over-budget heavy requests are shed in
    // microseconds instead of holding a worker for 100ms.
    let series_target = format!("/v1/series/{asn}");
    for _ in 0..8 {
        for target in ["/v1/populations", series_target.as_str()] {
            let attempt = Instant::now();
            let (_, body) = get_with_retry(&addr, target, Duration::from_secs(10));
            assert!(!body.is_empty());
            assert!(
                attempt.elapsed() < Duration::from_secs(5),
                "cheap endpoint {target} starved under flood: {:?}",
                attempt.elapsed()
            );
        }
    }

    // Mid-flood intake: the POST must land (503 sheds are retried like
    // any well-behaved collector would).
    let post_body = join_lines(to_post);
    let post_started = Instant::now();
    let outcome = loop {
        let (status, headers, body) = http_post(&addr, "/v1/traceroutes", post_body.as_bytes());
        if status == 200 {
            break serde_json::from_str::<serde_json::Value>(
                std::str::from_utf8(&body).expect("intake doc utf8"),
            )
            .expect("intake doc");
        }
        assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
        assert!(
            post_started.elapsed() < Duration::from_secs(30),
            "intake POST never landed under flood"
        );
        let hint = header(&headers, "retry-after")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        std::thread::sleep(Duration::from_millis((hint * 1000).min(300)));
    };
    assert_eq!(outcome["accepted"].as_u64(), Some(500));

    // The flood finishes with consistent shed accounting (nonzero exit
    // otherwise) and a report showing real sheds naming the heavy class.
    let flood_out = flood.wait_with_output().expect("collect loadgen output");
    assert!(
        flood_out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&flood_out.stderr)
    );
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&flood_report).unwrap())
            .expect("flood report");
    assert_eq!(report["consistent"].as_bool(), Some(true));
    let classify = &report["endpoints"]["classify"];
    assert!(
        classify["shed"].as_u64().unwrap() > 0,
        "flood never hit the heavy budget: {report}"
    );
    assert!(classify["ok"].as_u64().unwrap() > 0, "{report}");
    assert!(
        report["totals"]["retry_after_max"].as_u64().unwrap() >= 1,
        "{report}"
    );

    // Quiet now: the live engine converges, and the served document is
    // byte-identical to a cold classify over the union corpus — the
    // flood never corrupted an epoch.
    await_live_convergence(&addr, 500, Duration::from_secs(120));
    let (headers, live_body) = get_with_retry(&addr, "/v1/classify", Duration::from_secs(30));
    assert_ne!(live_body, baseline, "intake changed nothing");
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
        "flooded daemon diverged from cold union classify"
    );

    // Daemon-side accounting agrees: heavy budget 1 enforced and hit,
    // sheds recorded in the dedicated rejected histogram, no panics.
    let (status, _, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let metrics: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc");
    let serve = &metrics["serve"];
    let heavy = &serve["admission"]["heavy"];
    assert_eq!(heavy["budget"].as_u64(), Some(1), "{serve}");
    assert!(heavy["shed"].as_u64().unwrap() > 0, "{serve}");
    assert!(heavy["admitted"].as_u64().unwrap() > 0, "{serve}");
    // Unset classes auto-size to the worker count: admission disengaged.
    assert_eq!(serve["admission"]["cheap"]["budget"].as_u64(), Some(2));
    assert_eq!(serve["admission"]["intake"]["budget"].as_u64(), Some(2));
    assert!(
        serve["latency"]["rejected"]["count"].as_u64().unwrap() > 0,
        "{serve}"
    );
    assert_eq!(serve["worker_panics"].as_u64(), Some(0), "{serve}");

    let ok = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill failed");
    let out = child.wait_with_output().expect("collect serve output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve did not exit cleanly: {stderr}");
    assert!(stderr.contains("[serve] shutdown: drained"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Check one ladder rung's ledger, `attempted == ok + shed + errors`,
/// and return `(ok, shed, not_sent)`.
fn rung_ledger(rung: &serde_json::Value) -> (u64, u64, u64) {
    let field = |name: &str| {
        rung[name]
            .as_u64()
            .unwrap_or_else(|| panic!("rung has no {name}: {rung}"))
    };
    let (ok, shed, errors) = (field("ok"), field("shed"), field("errors"));
    assert_eq!(field("attempted"), ok + shed + errors, "{rung}");
    (ok, shed, field("not_sent"))
}

#[test]
fn ladder_shows_the_heavy_budget_knee() {
    let dir = std::env::temp_dir().join(format!("lastmile-ladder-knee-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (_, err, ok) = run(&[
        "simulate",
        "--scenario",
        "anchor",
        "--out",
        dir.to_str().unwrap(),
        "--days",
        "3",
    ]);
    assert!(ok, "simulate failed: {err}");

    // One heavy slot (`--serve-budget-heavy 1`) held DELAY_MS per
    // request caps heavy throughput at 1000 / DELAY_MS = 20 rps,
    // whatever the offered rate.
    const DELAY_MS: u64 = 50;
    let capacity_rps = 1000.0 / DELAY_MS as f64;
    let ready = dir.join("ready");
    let mut child = Command::new(lastmile_bin())
        .args([
            "serve",
            "--traceroutes",
            dir.join("traceroutes.jsonl").to_str().unwrap(),
            "--probes",
            dir.join("probes.json").to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--ready-file",
            ready.to_str().unwrap(),
            "--serve-workers",
            "2",
            "--serve-budget-heavy",
            "1",
            "--serve-heavy-delay-ms",
            &DELAY_MS.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lastmile serve");
    let addr = await_ready(&mut child, &ready);

    // A low rung at a fifth of capacity (requests 250 ms apart, each
    // holding the slot 50 ms) and a high rung at four times capacity:
    // far enough apart that a stalled shared host cannot flip either.
    let report_path = dir.join("ladder.json");
    let (_, err, ok) = run(&[
        "loadgen",
        "--addr",
        &addr,
        "--profile",
        "ladder",
        "--mix",
        "classify=1",
        "--rates",
        "4,80",
        "--dwell-ms",
        "2000",
        "--out",
        report_path.to_str().unwrap(),
    ]);
    assert!(ok, "loadgen failed: {err}");
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap())
            .expect("ladder report");
    let rungs = report["rungs"].as_array().expect("rungs");
    assert_eq!(rungs.len(), 2, "{report}");
    let (low, high) = (&rungs[0], &rungs[1]);

    let (ok_low, shed_low, not_sent_low) = rung_ledger(low);
    assert_eq!(shed_low, 0, "below capacity the budget shed: {low}");
    assert_eq!(not_sent_low, 0, "{low}");
    assert!(ok_low > 0, "{low}");

    rung_ledger(high);
    assert!(
        high["shed_rate"].as_f64().unwrap() > 0.0,
        "above capacity the budget never shed: {high}"
    );
    // 25% slack over the cap for timer and scheduling jitter; with the
    // budget disengaged both workers run heavy requests and the rung
    // achieves about twice the cap.
    let achieved = high["achieved_rps"].as_f64().unwrap();
    assert!(
        achieved < capacity_rps * 1.25,
        "achieved {achieved:.1} rps past the heavy budget's {capacity_rps} rps: {high}"
    );

    let ok = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill failed");
    let out = child.wait_with_output().expect("collect serve output");
    assert!(
        out.status.success(),
        "serve did not exit cleanly: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
