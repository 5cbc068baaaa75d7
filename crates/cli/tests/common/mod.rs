//! Helpers and fixtures shared by the end-to-end test files: the
//! `lastmile` binary, scratch dirs, an anchor corpus, a spawned `serve`
//! daemon, and a plain HTTP/1.1 client over `std::net::TcpStream`.

// Each test file uses only some of these.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The `lastmile` binary: `target/<profile>/lastmile`, next to the test
/// binary's directory.
pub fn lastmile_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // deps/
    path.pop(); // debug/
    path.push(format!("lastmile{}", std::env::consts::EXE_SUFFIX));
    path
}

/// A scratch dir, removed when the test that made it ends. A failed
/// test keeps it, and names it, for a look at what the run left.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh, empty `lastmile-{tag}-{pid}` in the temp dir (parallel
    /// tests must not share a tag).
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lastmile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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
        if std::thread::panicking() {
            eprintln!("kept scratch dir {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A spawned `serve` daemon. One the test did not stop with
/// [`terminate`] (a failed assertion) is SIGKILLed and reaped on drop,
/// so it never outlives the test, nor holds the test binary's output
/// pipes open. Bound after the test's [`Scratch`], it drops first.
pub struct Daemon(Option<Child>);

impl Daemon {
    /// The daemon's process id.
    pub fn id(&self) -> u32 {
        self.0.as_ref().expect("daemon still running").id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Run `lastmile ARGS` to completion: `(stdout, stderr, success)`.
pub fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(lastmile_bin())
        .args(args)
        .output()
        .expect("spawn lastmile");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// A 5-day anchor-scenario corpus in `dir`: the traceroute and probe
/// metadata paths.
pub fn fixture(dir: &Path) -> (PathBuf, PathBuf) {
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
    (dir.join("traceroutes.jsonl"), dir.join("probes.json"))
}

/// Write the [`fixture`] corpus into `dir` and serve it with `extra`
/// flags (see [`spawn_serve_over`]).
pub fn spawn_serve(dir: &Path, extra: &[&str]) -> (Daemon, String) {
    let (trs, probes) = fixture(dir);
    spawn_serve_over(&trs, &probes, &dir.join("ready"), extra)
}

/// Serve the corpus `trs` with `probes` metadata on an ephemeral port
/// with `extra` flags; returns the daemon and its address once it
/// writes it to `ready` (removed first, so a restart never reads the
/// previous daemon's address).
pub fn spawn_serve_over(
    trs: &Path,
    probes: &Path,
    ready: &Path,
    extra: &[&str],
) -> (Daemon, String) {
    let args = [
        "--traceroutes",
        trs.to_str().unwrap(),
        "--probes",
        probes.to_str().unwrap(),
    ];
    spawn_serve_with(ready, &[&args[..], extra].concat())
}

/// `lastmile serve ARGS` on an ephemeral port; returns the daemon and
/// its address once it writes it to `ready` (removed first, so a restart
/// never reads the previous daemon's address).
pub fn spawn_serve_with(ready: &Path, args: &[&str]) -> (Daemon, String) {
    let _ = std::fs::remove_file(ready);
    let head = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--ready-file",
        ready.to_str().unwrap(),
    ];
    let args: Vec<&str> = [&head[..], args].concat();
    let mut daemon = Daemon(Some(
        Command::new(lastmile_bin())
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lastmile serve"),
    ));
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(contents) = std::fs::read_to_string(ready) {
            if contents.ends_with('\n') {
                break contents.trim().to_string();
            }
        }
        let child = daemon.0.as_mut().expect("daemon still running");
        if let Some(status) = child.try_wait().expect("try_wait") {
            let exited = daemon.0.take().expect("daemon still running");
            let out = exited.wait_with_output().expect("collect output");
            panic!(
                "serve exited before ready ({status}): {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        assert!(Instant::now() < deadline, "serve never became ready");
        std::thread::sleep(Duration::from_millis(20));
    };
    (daemon, addr)
}

/// SIGTERM the daemon and collect `(stderr, exited successfully)`.
pub fn terminate(mut daemon: Daemon) -> (String, bool) {
    let ok = Command::new("kill")
        .arg(daemon.id().to_string())
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill failed");
    let child = daemon.0.take().expect("daemon still running");
    let out = child.wait_with_output().expect("collect serve output");
    (
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// `GET target` with extra raw header lines: `(status, headers, body)`,
/// header names lower-cased.
pub fn http_get_with(
    addr: &str,
    target: &str,
    extra_headers: &[&str],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut request = format!("GET {target} HTTP/1.1\r\nHost: lastmile\r\n");
    for line in extra_headers {
        request.push_str(line);
        request.push_str("\r\n");
    }
    request.push_str("\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    read_response(stream)
}

/// `GET target`: `(status, headers, body)`.
pub fn http_get(addr: &str, target: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    http_get_with(addr, target, &[])
}

/// `POST target` with `body`: `(status, headers, body)`.
pub fn http_post(addr: &str, target: &str, body: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST {target} HTTP/1.1\r\nHost: lastmile\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    stream.write_all(body).unwrap();
    read_response(stream)
}

/// Read one response to EOF and split it into status, headers and body.
pub fn read_response(mut stream: TcpStream) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let pos = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no head terminator in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..pos]).into_owned();
    let body = raw[pos + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let headers = lines
        .map(|l| {
            let (k, v) = l
                .split_once(':')
                .unwrap_or_else(|| panic!("bad header {l:?}"));
            (k.trim().to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    (status, headers, body)
}

/// The value of header `name` (lower-case), if present.
pub fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Poll `/metrics` until the `live` gauges say every ingested record has
/// been analyzed (`ingest_lag == 0` after at least one re-analysis and
/// `expect_ingested` intake records), or panic after `deadline`.
pub fn await_live_convergence(addr: &str, expect_ingested: u64, deadline: Duration) {
    let started = Instant::now();
    loop {
        let (status, _, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        let doc: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("metrics doc");
        let live = &doc["live"];
        if live["records_ingested"].as_u64() == Some(expect_ingested)
            && live["ingest_lag"].as_u64() == Some(0)
            && live["reanalyses"].as_u64().unwrap_or(0) >= 1
            && live["epoch"].as_u64().unwrap_or(0) >= 2
        {
            return;
        }
        assert!(
            started.elapsed() < deadline,
            "live intake never converged: {live}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A corpus reproducing the per-traceroute-attribution hazard, with its
/// BGP table: probe 1's edge hop alternates between two ASNs (its
/// traceroutes legitimately split across AS pipelines), probe 2 is
/// single-homed. Eight 30-minute bins of three traceroutes each per probe
/// (48 records), inside the aligned window `0..86400`. Returns the
/// traceroute and table paths.
pub fn write_multi_asn_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let bgp = dir.join("bgp.csv");
    std::fs::write(&bgp, "20.0.0.0/16,64500\n20.1.0.0/16,64501\n").unwrap();

    let mut lines = String::new();
    let mut tr_line = |prb: u32, ts: i64, edge: &str, rtt: f64| {
        lines.push_str(&format!(
            r#"{{"fw":5020,"af":4,"dst_addr":"20.99.0.1","src_addr":"192.168.1.10","from":"{edge}","msm_id":5001,"prb_id":{prb},"timestamp":{ts},"proto":"ICMP","type":"traceroute","result":[{{"hop":1,"result":[{{"from":"192.168.1.1","rtt":1.0}}]}},{{"hop":2,"result":[{{"from":"{edge}","rtt":{rtt}}}]}}]}}"#,
        ));
        lines.push('\n');
    };
    for bin in 0..8i64 {
        for k in 0..3i64 {
            let ts = bin * 1800 + k * 600;
            let rtt = 10.0 + bin as f64;
            let edge1 = if k % 2 == 0 { "20.0.0.1" } else { "20.1.0.1" };
            tr_line(1, ts, edge1, rtt);
            tr_line(2, ts, "20.0.0.9", rtt + 0.5);
        }
    }
    let trs = dir.join("traceroutes.jsonl");
    std::fs::write(&trs, lines).unwrap();
    (trs, bgp)
}
