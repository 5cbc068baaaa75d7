//! The sustained-ladder profile: stepped open-loop arrival rates.
//!
//! Each rung offers a fixed arrival rate for a dwell period and records
//! what came of it — offered vs achieved rate, latency percentiles,
//! shed rate. Stacked, the rungs trace the daemon's
//! throughput-vs-latency curve: the knee is the first rung where
//! achieved stops tracking offered and p99 (or the shed rate) takes
//! off. DESIGN.md § "Admission control & load testing" has the recipe
//! that shows it against a budgeted daemon.

use crate::client::scrape_shed_counters;
use crate::engine::run_open_loop;
use crate::mix::{Mix, Plan};
use crate::report::{EndpointTallies, LoadReport, RungReport, ShedReconciliation};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One ladder run's shape.
#[derive(Clone, Debug)]
pub struct LadderConfig {
    pub addr: SocketAddr,
    pub addr_label: String,
    /// Offered arrival rates (requests/second), one rung each, in
    /// order.
    pub rates: Vec<f64>,
    /// Time spent at each rung.
    pub dwell: Duration,
    /// Client worker threads — the in-flight cap; arrivals past it are
    /// counted `not_sent`.
    pub concurrency: usize,
    pub mix: Mix,
    pub plan: Plan,
}

/// Run the ladder profile.
pub fn run_ladder(config: LadderConfig) -> Result<LoadReport, String> {
    let mut mix = config.mix.clone();
    mix.validate(&config.plan)?;
    if config.rates.is_empty() {
        return Err("ladder needs at least one rate".into());
    }
    if let Some(bad) = config.rates.iter().find(|r| !r.is_finite() || **r <= 0.0) {
        return Err(format!("ladder rate {bad} must be a positive number"));
    }
    let started = Instant::now();
    let mut tallies = EndpointTallies::default();
    let mut rungs = Vec::with_capacity(config.rates.len());
    // Scrape the daemon's shed counters before the first rung and at
    // every rung boundary: each rung records the server-side shed delta
    // it caused, and the whole run reconciles the client-side 503 tally
    // against the server's counters. A failed scrape (fake server in
    // tests, non-lastmile target) disables the reconciliation rather
    // than failing the run.
    let baseline = scrape_shed_counters(config.addr, config.plan.timeout);
    let mut before = baseline;
    for &rate in &config.rates {
        let rung_started = Instant::now();
        let rung_tallies = run_open_loop(
            config.addr,
            &mut mix,
            &config.plan,
            rate,
            config.dwell,
            config.concurrency,
        );
        // Achieved rate is measured against the rung's true wall time:
        // the dispatch loop runs for `dwell`, but the tail of in-flight
        // requests drains after it.
        let rung_wall = rung_started.elapsed().as_secs_f64();
        let mut rung = RungReport::from_tally(
            rate,
            rung_wall.max(f64::MIN_POSITIVE),
            &rung_tallies.total(),
        );
        let after = before.and_then(|_| scrape_shed_counters(config.addr, config.plan.timeout));
        if let (Some(b), Some(a)) = (before, after) {
            rung.server_shed = Some(a.total().saturating_sub(b.total()));
        }
        before = after;
        rungs.push(rung);
        tallies.merge(&rung_tallies);
    }
    let totals = tallies.total();
    // `before` now holds the post-run scrape (or None if any scrape
    // failed along the way, which disables the check entirely).
    let shed_check = match (baseline, before) {
        (Some(first), Some(last)) => Some(ShedReconciliation::check(
            totals.shed,
            last.total().saturating_sub(first.total()),
            totals.errors,
        )),
        _ => None,
    };
    Ok(LoadReport {
        profile: "ladder".into(),
        addr: config.addr_label,
        mix: mix.spec(),
        concurrency: config.concurrency.max(1) as u64,
        wall_secs: started.elapsed().as_secs_f64(),
        consistent: totals.consistent(),
        totals: totals.summary(),
        endpoints: tallies.summaries(),
        rungs,
        bursts: vec![],
        shed_check,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_server::{FakeServer, OK};
    use crate::mix::Endpoint;

    #[test]
    fn ladder_reports_one_rung_per_rate() {
        let server = FakeServer::ok();
        let addr = server.addr;
        let report = run_ladder(LadderConfig {
            addr,
            addr_label: addr.to_string(),
            rates: vec![40.0, 80.0],
            dwell: Duration::from_millis(200),
            concurrency: 8,
            mix: Mix::single(Endpoint::Healthz),
            plan: Plan {
                timeout: Duration::from_secs(2),
                ..Plan::default()
            },
        })
        .expect("ladder runs");
        assert_eq!(report.profile, "ladder");
        assert_eq!(report.rungs.len(), 2);
        assert!(report.consistent);
        // 40 rps × 0.2 s = 8 arrivals, 80 × 0.2 = 16.
        assert_eq!(report.rungs[0].attempted + report.rungs[0].not_sent, 8);
        assert_eq!(report.rungs[1].attempted + report.rungs[1].not_sent, 16);
        assert!(report.rungs[0].achieved_rps > 0.0);
        assert_eq!(
            report.totals.attempted + report.totals.not_sent,
            24,
            "{report:?}"
        );
        // The fake server's `/metrics` answer isn't the daemon's JSON
        // schema, so reconciliation is silently skipped.
        assert_eq!(report.shed_check, None);
        assert!(report.rungs.iter().all(|r| r.server_shed.is_none()));
    }

    #[test]
    fn ladder_reconciles_sheds_against_a_metrics_scrape() {
        // A fake daemon that answers `/metrics` with the lastmile JSON
        // schema (static counters) and everything else with 200: zero
        // client-side sheds against a zero server-side delta must
        // reconcile as consistent, with per-rung deltas recorded.
        let server = FakeServer::start(|head| {
            if head.starts_with("GET /metrics") {
                b"HTTP/1.1 200 OK\r\n\r\n{\"serve\":{\"rejected_busy\":2,\"admission\":{\
                  \"cheap\":{\"shed\":1},\"heavy\":{\"shed\":0},\"intake\":{\"shed\":0}}}}\n"
            } else {
                OK
            }
        });
        let addr = server.addr;
        let report = run_ladder(LadderConfig {
            addr,
            addr_label: addr.to_string(),
            rates: vec![40.0],
            dwell: Duration::from_millis(200),
            concurrency: 8,
            mix: Mix::single(Endpoint::Healthz),
            plan: Plan {
                timeout: Duration::from_secs(2),
                ..Plan::default()
            },
        })
        .expect("ladder runs");
        let check = report.shed_check.expect("reconciliation ran");
        assert!(check.consistent, "{check:?}");
        assert_eq!(check.client_shed, 0);
        assert_eq!(check.server_shed_delta, 0);
        assert_eq!(report.rungs[0].server_shed, Some(0));
    }

    #[test]
    fn a_rung_splits_traffic_by_weight() {
        let server = FakeServer::ok();
        let addr = server.addr;
        let report = run_ladder(LadderConfig {
            addr,
            addr_label: addr.to_string(),
            rates: vec![80.0],
            dwell: Duration::from_millis(300),
            concurrency: 8,
            mix: Mix::parse("healthz=3,intake=1").unwrap(),
            plan: Plan {
                post_body: b"{\"x\":1}\n".to_vec(),
                timeout: Duration::from_secs(2),
                ..Plan::default()
            },
        })
        .expect("ladder runs");
        assert!(report.consistent);
        // 80 rps × 0.3 s = 24 arrivals, split 3:1.
        let scheduled = report.totals.attempted + report.totals.not_sent;
        assert_eq!(scheduled, 24);
        let healthz = &report.endpoints["healthz"];
        let intake = &report.endpoints["intake"];
        assert_eq!(healthz.attempted + healthz.not_sent, 18);
        assert_eq!(intake.attempted + intake.not_sent, 6);
    }

    #[test]
    fn ladder_refuses_intake_without_a_body() {
        let config = LadderConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            addr_label: "x".into(),
            rates: vec![10.0],
            dwell: Duration::from_millis(10),
            concurrency: 1,
            mix: Mix::single(Endpoint::Intake),
            plan: Plan::default(),
        };
        let err = run_ladder(config).expect_err("must refuse");
        assert!(err.contains("intake"), "{err}");
    }

    #[test]
    fn ladder_rejects_bad_rates() {
        let plan = Plan::default();
        let base = LadderConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            addr_label: "x".into(),
            rates: vec![],
            dwell: Duration::from_millis(10),
            concurrency: 1,
            mix: Mix::single(Endpoint::Healthz),
            plan,
        };
        assert!(run_ladder(base.clone()).is_err());
        let mut zero = base;
        zero.rates = vec![0.0];
        assert!(run_ladder(zero).is_err());
    }
}
