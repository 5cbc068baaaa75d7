//! Result accounting: per-endpoint tallies folded into one JSON report.
//!
//! The accounting invariant every profile is held to (and
//! `scripts/check.sh` asserts): every request the generator *attempted*
//! on the wire is exactly one of served (`ok`), shed by the daemon
//! (`shed`, a 503), or failed (`errors` — connect refused, timeout,
//! malformed response). Client-side drops — arrivals the open-loop
//! scheduler had no free worker for — never touched the wire and are
//! counted separately as `not_sent`, so a saturated *generator* can't
//! masquerade as a healthy server.

use crate::mix::{Endpoint, ENDPOINTS};
use crate::Outcome;
use lastmile_obs::{Histogram, HistogramSummary};
use serde::Serialize;
use std::collections::BTreeMap;

/// Mutable accumulator for one endpoint (or the run total).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub not_sent: u64,
    /// Body bytes received across ok responses.
    pub bytes: u64,
    /// Largest `Retry-After` hint seen on a shed.
    pub retry_after_max: u64,
    /// Latency of served (non-503) responses.
    pub latency_ok: Histogram,
    /// Latency of shed 503s — how fast the daemon turns traffic away.
    pub latency_shed: Histogram,
}

impl Tally {
    /// Fold in one wire outcome.
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        if outcome.status == 503 {
            self.shed += 1;
            self.latency_shed.record(outcome.nanos);
            if let Some(hint) = outcome.retry_after {
                self.retry_after_max = self.retry_after_max.max(hint);
            }
        } else if (200..400).contains(&outcome.status) {
            self.ok += 1;
            self.bytes += outcome.body_len as u64;
            self.latency_ok.record(outcome.nanos);
        } else {
            self.errors += 1;
        }
    }

    /// Fold in one transport failure (connect/IO/timeout).
    pub fn record_error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }

    /// Fold in one client-side drop (open-loop arrival with no worker).
    pub fn record_not_sent(&mut self) {
        self.not_sent += 1;
    }

    /// Fold another tally (e.g. one worker's) into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.not_sent += other.not_sent;
        self.bytes += other.bytes;
        self.retry_after_max = self.retry_after_max.max(other.retry_after_max);
        self.latency_ok.merge(&other.latency_ok);
        self.latency_shed.merge(&other.latency_shed);
    }

    /// `attempted == ok + shed + errors` — the accounting invariant.
    pub fn consistent(&self) -> bool {
        self.attempted == self.ok + self.shed + self.errors
    }

    /// The exported form.
    pub fn summary(&self) -> TallySummary {
        TallySummary {
            attempted: self.attempted,
            ok: self.ok,
            shed: self.shed,
            errors: self.errors,
            not_sent: self.not_sent,
            shed_rate: if self.attempted == 0 {
                0.0
            } else {
                self.shed as f64 / self.attempted as f64
            },
            bytes: self.bytes,
            retry_after_max: self.retry_after_max,
            latency: self.latency_ok.summary(),
            shed_latency: self.latency_shed.summary(),
        }
    }
}

/// Per-endpoint tallies, indexed densely by [`Endpoint::index`].
#[derive(Clone, Debug, Default)]
pub struct EndpointTallies(pub [Tally; 6]);

impl EndpointTallies {
    pub fn get_mut(&mut self, endpoint: Endpoint) -> &mut Tally {
        &mut self.0[endpoint.index()]
    }

    pub fn merge(&mut self, other: &EndpointTallies) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            mine.merge(theirs);
        }
    }

    /// Everything folded into one run-total tally.
    pub fn total(&self) -> Tally {
        let mut total = Tally::default();
        for tally in &self.0 {
            total.merge(tally);
        }
        total
    }

    /// Per-endpoint summaries, skipping endpoints never attempted.
    pub fn summaries(&self) -> BTreeMap<String, TallySummary> {
        ENDPOINTS
            .into_iter()
            .filter(|e| {
                let t = &self.0[e.index()];
                t.attempted + t.not_sent > 0
            })
            .map(|e| (e.key().to_string(), self.0[e.index()].summary()))
            .collect()
    }
}

/// Serialized counters + percentiles of one [`Tally`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct TallySummary {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub not_sent: u64,
    pub shed_rate: f64,
    pub bytes: u64,
    pub retry_after_max: u64,
    pub latency: HistogramSummary,
    pub shed_latency: HistogramSummary,
}

/// One rung of the sustained ladder: what was offered, what came back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct RungReport {
    /// Target arrival rate (requests/second) of this rung.
    pub offered_rps: f64,
    /// Served responses per second of dwell — the throughput actually
    /// achieved at this offered rate.
    pub achieved_rps: f64,
    pub dwell_secs: f64,
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub not_sent: u64,
    pub shed_rate: f64,
    pub p50_nanos: u64,
    pub p99_nanos: u64,
    pub max_nanos: u64,
    /// Server-observed shed delta across this rung (admission sheds +
    /// queue overflow), scraped from `/metrics` at the rung boundaries.
    /// `None` when the target's metrics endpoint isn't scrapeable.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub server_shed: Option<u64>,
}

impl RungReport {
    /// Summarize one rung's tally against its schedule.
    pub fn from_tally(offered_rps: f64, dwell_secs: f64, tally: &Tally) -> RungReport {
        let s = tally.latency_ok.summary();
        RungReport {
            offered_rps,
            achieved_rps: if dwell_secs > 0.0 {
                tally.ok as f64 / dwell_secs
            } else {
                0.0
            },
            dwell_secs,
            attempted: tally.attempted,
            ok: tally.ok,
            shed: tally.shed,
            errors: tally.errors,
            not_sent: tally.not_sent,
            shed_rate: if tally.attempted == 0 {
                0.0
            } else {
                tally.shed as f64 / tally.attempted as f64
            },
            p50_nanos: s.p50_nanos,
            p99_nanos: s.p99_nanos,
            max_nanos: s.max_nanos,
            server_shed: None,
        }
    }
}

/// Client-vs-server shed cross-check: the number of 503s the client
/// tallied against the growth of the server's own shed counters over
/// the run, scraped from `/metrics` before and after. The two views
/// are allowed to differ by the connection-error count (an error may
/// be a shed whose response was lost) plus any sheds the server dealt
/// to *other* clients mid-run — so the check is one-sided: the server
/// must account for at least `client_shed - connection_errors`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct ShedReconciliation {
    /// 503s the client received.
    pub client_shed: u64,
    /// Growth of the server's shed counters (admission + queue) across
    /// the run.
    pub server_shed_delta: u64,
    /// Client-side transport errors — the allowed slack.
    pub connection_errors: u64,
    /// `server_shed_delta + connection_errors >= client_shed`.
    pub consistent: bool,
}

impl ShedReconciliation {
    pub fn check(client_shed: u64, server_shed_delta: u64, connection_errors: u64) -> Self {
        ShedReconciliation {
            client_shed,
            server_shed_delta,
            connection_errors,
            consistent: server_shed_delta + connection_errors >= client_shed,
        }
    }
}

/// One burst's outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct BurstReport {
    pub requests: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub wall_secs: f64,
    pub p99_nanos: u64,
}

/// The top-level JSON document one profile run produces.
#[derive(Clone, Debug, Default, Serialize)]
pub struct LoadReport {
    /// `burst` / `ladder`.
    pub profile: String,
    /// Daemon address driven.
    pub addr: String,
    /// Canonical mix spec (`classify=1,...`).
    pub mix: String,
    /// Generator worker threads (concurrent in-flight cap).
    pub concurrency: u64,
    /// Whole-run wall time.
    pub wall_secs: f64,
    /// Run totals across endpoints.
    pub totals: TallySummary,
    /// `attempted == ok + shed + errors` held across all tallies.
    pub consistent: bool,
    /// Per-endpoint breakdown (endpoints never attempted omitted).
    pub endpoints: BTreeMap<String, TallySummary>,
    /// Ladder profile only: one entry per rung.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub rungs: Vec<RungReport>,
    /// Burst profile only: one entry per burst.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub bursts: Vec<BurstReport>,
    /// Client-vs-server shed cross-check (ladder profile against a
    /// scrapeable daemon only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shed_check: Option<ShedReconciliation>,
}

impl LoadReport {
    /// Pretty JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_outcome(nanos: u64, body_len: usize) -> Outcome {
        Outcome {
            status: 200,
            nanos,
            body_len,
            ..Outcome::default()
        }
    }

    #[test]
    fn tally_classifies_and_stays_consistent() {
        let mut t = Tally::default();
        t.record(&ok_outcome(1_000, 10));
        t.record(&ok_outcome(3_000, 20));
        t.record(&Outcome {
            status: 503,
            nanos: 200,
            retry_after: Some(4),
            ..Outcome::default()
        });
        t.record(&Outcome {
            status: 404,
            nanos: 500,
            ..Outcome::default()
        });
        t.record_error();
        t.record_not_sent();
        assert!(t.consistent());
        let s = t.summary();
        assert_eq!(
            (s.attempted, s.ok, s.shed, s.errors, s.not_sent),
            (5, 2, 1, 2, 1)
        );
        assert_eq!(s.bytes, 30);
        assert_eq!(s.retry_after_max, 4);
        assert_eq!(s.latency.count, 2);
        assert_eq!(s.latency.max_nanos, 3_000);
        assert_eq!(s.shed_latency.count, 1);
        assert!((s.shed_rate - 0.2).abs() < 1e-9);
    }

    #[test]
    fn endpoint_tallies_merge_and_total() {
        let mut a = EndpointTallies::default();
        a.get_mut(Endpoint::Classify).record(&ok_outcome(1_000, 5));
        let mut b = EndpointTallies::default();
        b.get_mut(Endpoint::Classify).record(&ok_outcome(2_000, 5));
        b.get_mut(Endpoint::Healthz).record(&ok_outcome(100, 3));
        a.merge(&b);
        let total = a.total();
        assert_eq!(total.attempted, 3);
        assert_eq!(total.ok, 3);
        assert!(total.consistent());
        let summaries = a.summaries();
        assert_eq!(summaries.len(), 2, "untouched endpoints omitted");
        assert_eq!(summaries["classify"].ok, 2);
        assert_eq!(summaries["healthz"].ok, 1);
    }

    #[test]
    fn rung_report_computes_rates() {
        let mut t = Tally::default();
        for _ in 0..8 {
            t.record(&ok_outcome(1_000_000, 1));
        }
        t.record(&Outcome {
            status: 503,
            nanos: 100,
            ..Outcome::default()
        });
        t.record_not_sent();
        let r = RungReport::from_tally(10.0, 2.0, &t);
        assert_eq!(r.offered_rps, 10.0);
        assert_eq!(r.achieved_rps, 4.0);
        assert_eq!(r.attempted, 9);
        assert_eq!(r.not_sent, 1);
        assert!((r.shed_rate - 1.0 / 9.0).abs() < 1e-9);
        assert!(r.p99_nanos >= r.p50_nanos);
    }

    #[test]
    fn load_report_serializes_with_golden_keys() {
        let mut tallies = EndpointTallies::default();
        tallies
            .get_mut(Endpoint::Series)
            .record(&ok_outcome(5_000, 2));
        let report = LoadReport {
            profile: "ladder".into(),
            addr: "127.0.0.1:1".into(),
            mix: "series=1".into(),
            concurrency: 4,
            wall_secs: 1.5,
            totals: tallies.total().summary(),
            consistent: tallies.total().consistent(),
            endpoints: tallies.summaries(),
            rungs: vec![],
            bursts: vec![],
            shed_check: None,
        };
        let json = report.to_json();
        for key in [
            "profile",
            "addr",
            "mix",
            "concurrency",
            "wall_secs",
            "totals",
            "consistent",
            "endpoints",
            "series",
            "attempted",
            "shed_rate",
            "latency",
            "p99_nanos",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Empty profile sections stay out of the document.
        assert!(!json.contains("\"rungs\""));
        assert!(!json.contains("\"bursts\""));
        assert!(!json.contains("\"shed_check\""));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn shed_reconciliation_allows_connection_error_slack() {
        // Exact match: consistent.
        assert!(ShedReconciliation::check(5, 5, 0).consistent);
        // Server saw more (other clients mid-run): still consistent.
        assert!(ShedReconciliation::check(5, 9, 0).consistent);
        // Client 503s the server can't account for: inconsistent…
        assert!(!ShedReconciliation::check(5, 3, 0).consistent);
        // …unless connection errors cover the gap.
        assert!(ShedReconciliation::check(5, 3, 2).consistent);
        assert!(!ShedReconciliation::check(5, 3, 1).consistent);
    }
}
