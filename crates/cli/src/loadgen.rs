//! `lastmile loadgen` — drive a running daemon with the open-loop load
//! harness (`lastmile-loadgen`).
//!
//! ```text
//! lastmile loadgen --addr HOST:PORT [--profile ladder|burst] ...
//! ```
//!
//! Profiles, each over a weighted `--mix classify=4,series=1,intake=1`
//! (default `classify=1`):
//!
//! * `ladder` (the default): `--rates 50,100,200` offered rates (rps),
//!   `--dwell-ms` per rung — the throughput-vs-latency curve. One rate
//!   sustained for a while is a one-rung ladder.
//! * `burst`: `--requests N` connections released at once, `--bursts B`
//!   times.
//!
//! Per-ASN endpoints (`classify_asn`, `series`) aim at `--asn`, or at
//! the first row of the daemon's `/v1/populations` table when the flag
//! is absent. Intake POSTs send `--post-batch` lines of `--post-file`
//! per request. The JSON report prints to stdout with `--json` and/or
//! lands at `--out`; a human summary always goes to stderr. Exit is
//! nonzero when the shed accounting is inconsistent (`attempted != ok +
//! shed + errors`), or when the ladder's client-vs-server shed
//! reconciliation fails — the self-checks `scripts/check.sh` leans on.

use crate::Flags;
use lastmile_repro::loadgen::{
    discover_asn, resolve, run_burst, run_ladder, BurstConfig, Endpoint, LadderConfig, LoadReport,
    Mix, Plan,
};
use std::time::Duration;

pub fn run(flags: &Flags) -> Result<(), String> {
    let addr_label = flags.required("addr")?.to_string();
    let addr = resolve(&addr_label)?;
    let profile = flags.optional("profile").unwrap_or("ladder");
    let timeout = Duration::from_millis(flags.parsed::<u64>("timeout-ms")?.unwrap_or(10_000));
    let concurrency = flags.parsed::<usize>("concurrency")?.unwrap_or(16);

    // By default every profile hammers the heavy endpoint: that is
    // where the knee is.
    let mix = match flags.optional("mix") {
        Some(spec) => Mix::parse(spec)?,
        None => Mix::single(Endpoint::Classify),
    };

    let plan = Plan {
        asn: match flags.parsed::<u32>("asn")? {
            Some(asn) => asn,
            None => discover_asn(addr, timeout).unwrap_or(0),
        },
        post_body: post_body(flags)?,
        timeout,
    };

    let report = match profile {
        "burst" => run_burst(BurstConfig {
            addr,
            addr_label,
            requests: flags.parsed::<usize>("requests")?.unwrap_or(32),
            bursts: flags.parsed::<usize>("bursts")?.unwrap_or(3),
            mix,
            plan,
        })?,
        "ladder" => run_ladder(LadderConfig {
            addr,
            addr_label,
            rates: parse_rates(flags.optional("rates").unwrap_or("25,50,100,200,400"))?,
            dwell: Duration::from_millis(flags.parsed::<u64>("dwell-ms")?.unwrap_or(2_000)),
            concurrency,
            mix,
            plan,
        })?,
        other => return Err(format!("unknown --profile {other} (ladder|burst)")),
    };

    emit(flags, &report)?;
    if !report.consistent {
        return Err(format!(
            "shed accounting inconsistent: attempted {} != ok {} + shed {} + errors {}",
            report.totals.attempted, report.totals.ok, report.totals.shed, report.totals.errors
        ));
    }
    // The ladder also reconciles client-side 503s against the daemon's
    // own shed counters (scraped from `/metrics` at rung boundaries);
    // a mismatch beyond connection-error slack is a metrics bug.
    if let Some(check) = report.shed_check.filter(|c| !c.consistent) {
        return Err(format!(
            "shed reconciliation failed: client saw {} sheds but the server's counters \
             moved by {} (+{} connection errors of slack)",
            check.client_shed, check.server_shed_delta, check.connection_errors
        ));
    }
    Ok(())
}

/// `--rates "25,50,100"` → offered rps per rung.
fn parse_rates(spec: &str) -> Result<Vec<f64>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("--rates entry '{s}' is not a number"))
        })
        .collect()
}

/// The body one intake POST carries: the first `--post-batch` lines of
/// `--post-file` (the whole file by default).
fn post_body(flags: &Flags) -> Result<Vec<u8>, String> {
    let Some(path) = flags.optional("post-file") else {
        return Ok(Vec::new());
    };
    let contents =
        std::fs::read_to_string(path).map_err(|e| format!("read --post-file {path}: {e}"))?;
    let batch = flags.parsed::<usize>("post-batch")?.unwrap_or(usize::MAX);
    let mut body = String::new();
    for line in contents
        .lines()
        .filter(|l| !l.trim().is_empty())
        .take(batch)
    {
        body.push_str(line);
        body.push('\n');
    }
    if body.is_empty() {
        return Err(format!("--post-file {path} has no records"));
    }
    Ok(body.into_bytes())
}

/// Report outputs: `--out FILE`, `--json` (stdout), and the stderr
/// summary line scripts grep.
fn emit(flags: &Flags, report: &LoadReport) -> Result<(), String> {
    let json = report.to_json();
    if let Some(path) = flags.optional("out") {
        std::fs::write(path, &json).map_err(|e| format!("write --out {path}: {e}"))?;
    }
    if flags.switch("json") {
        print!("{json}");
    }
    let t = &report.totals;
    eprintln!(
        "[loadgen] {} {}: attempted {} ok {} shed {} errors {} not_sent {} | p50 {:.2}ms p99 {:.2}ms | {:.1}s",
        report.profile,
        report.mix,
        t.attempted,
        t.ok,
        t.shed,
        t.errors,
        t.not_sent,
        t.latency.p50_nanos as f64 / 1e6,
        t.latency.p99_nanos as f64 / 1e6,
        report.wall_secs,
    );
    Ok(())
}
