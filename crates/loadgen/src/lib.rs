//! `lastmile-loadgen`: an open-loop load generator for the `lastmile
//! serve` daemon.
//!
//! A closed-loop client (a polite `curl` loop) slows down exactly when
//! the server does, which is precisely how you *fail* to find a knee in
//! the throughput-vs-latency curve. This crate drives the daemon the way
//! real traffic does: requests are released on a wall-clock schedule
//! regardless of how the previous ones are faring (open loop), over raw
//! `std::net` TCP with the same one-request-per-connection HTTP/1.1
//! subset the daemon speaks. No external dependencies beyond the
//! workspace's vendored `serde`.
//!
//! Two profiles, each driving a weighted endpoint [`mix`](mix::Mix)
//! (which may include `POST /v1/traceroutes` intake racing live
//! re-analysis):
//!
//! * [`ladder`] — stepped arrival rates (open loop, fixed worker pool,
//!   client-side drops counted as `not_sent`), dwelling at each rung
//!   and recording offered vs achieved rate, latency percentiles, and
//!   shed rate per rung: the throughput-vs-latency curve. One rung is
//!   one rate sustained for one dwell.
//! * [`burst`] — N connections released at once, repeated B times: the
//!   thundering-herd shape that exercises the accept queue and the
//!   fast lane.
//!
//! Every profile reports per-endpoint log-linear latency histograms
//! (reusing [`lastmile_obs`]'s), plus shed accounting that must satisfy
//! `attempted == ok + shed + errors` — the invariant `scripts/check.sh`
//! asserts.

pub mod burst;
pub mod client;
pub mod ladder;
pub mod mix;
pub mod report;

mod engine;
#[cfg(test)]
mod fake_server;

pub use burst::{run_burst, BurstConfig};
pub use client::{discover_asn, one_shot, resolve, scrape_shed_counters, Outcome, ShedCounters};
pub use ladder::{run_ladder, LadderConfig};
pub use mix::{Endpoint, Mix, Plan};
pub use report::{BurstReport, LoadReport, RungReport, ShedReconciliation, Tally, TallySummary};
