//! # lastmile-atlas
//!
//! A faithful data model of the parts of the RIPE Atlas platform the
//! IMC 2020 paper consumes: probes and anchors, the 22 IPv4 *built-in*
//! traceroute measurements, traceroute results with per-hop RTT triples,
//! and (de)serialization of the Atlas API's JSON wire format.
//!
//! The paper "recycles the numerous public measurement data offered by
//! Atlas": every probe runs the built-ins towards all root DNS servers and
//! the Atlas controllers every 30 minutes, plus two randomly selected
//! addresses every 15 minutes — 24 traceroutes per probe per 30-minute
//! bin, each hop answered by three RTT replies (§2). This crate models
//! that supply side; the analysis lives in `lastmile-core` and the
//! *network* being measured is simulated by `lastmile-netsim`.
//!
//! Modules:
//!
//! * [`probe`] — probe identity: hardware version (v1/v2/v3), anchor flag,
//!   AS and country, public address, geographic tag.
//! * [`traceroute`] — measurement results: hops, replies, timeouts, and
//!   the last-mile row ([`LastMile`]) the analysis reads from each.
//! * [`measurement`] — the built-in measurement catalogue and its
//!   deterministic schedule (which traceroutes exist in a time range).
//! * [`json`] — the Atlas API JSON format (`prb_id`, `msm_id`, `result`
//!   arrays with `from`/`rtt` or `x: "*"` entries), round-trippable;
//!   records decode to the model through serde, and to their
//!   [`LastMile`] row in one borrowed pass held to serde, and are
//!   written in one direct pass, with serde as the reference.
//! * [`framing`] — incremental splitting of JSON Lines / JSON array
//!   inputs into record-aligned document frames, for streaming ingest.
//!
//! ## Example
//!
//! ```
//! use lastmile_atlas::measurement::BuiltinCatalogue;
//! use lastmile_timebase::{BinSpec, TimeRange, UnixTime};
//!
//! let catalogue = BuiltinCatalogue::standard();
//! assert_eq!(catalogue.len(), 22); // the paper's "22 IPv4 built-ins"
//!
//! // Any probe runs 24 built-in traceroutes per 30-minute bin.
//! let bin = TimeRange::new(UnixTime::from_secs(0), UnixTime::from_secs(1800));
//! let n = catalogue.schedule(lastmile_atlas::ProbeId(1), &bin).count();
//! assert_eq!(n, 24);
//! ```

pub mod framing;
pub mod json;
pub mod measurement;
pub mod probe;
pub mod traceroute;

pub use measurement::{BuiltinCatalogue, MeasurementId, ScheduledRun, TargetKind};
pub use probe::{Probe, ProbeId, ProbeVersion};
pub use traceroute::{Hop, LastMile, Reply, TracerouteResult};
