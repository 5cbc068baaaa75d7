//! The ops plane's in-memory state: the self-scraped metrics timeline
//! and the epoch telemetry ring.
//!
//! [`OpsTimeline`] answers "what did the daemon's own gauges look like
//! over the last while" without any external scraper: a sampler thread
//! in `lastmile serve` pushes one [`TimelineSample`] per tick and the
//! ring keeps three bounded resolutions — raw ticks, 10-second rollups,
//! and 1-minute rollups (min/mean/max per metric per window). Queries
//! use the same half-open `[from, to)` unix-second semantics as
//! `/v1/series/{asn}` and return the finest resolution that still
//! covers the requested window, so a ladder run's knee is visible from
//! the server side minutes later and a day-long incident still has
//! minute-level shape.
//!
//! [`EpochTelemetry`] is the live engine's flight recorder: one
//! structured [`EpochRecord`] per re-analysis pass (trigger, volume,
//! duration, outcome) in a last-N ring served at `/v1/ops/epochs`.
//!
//! Both are Mutex-guarded plain data — pushes happen once a second (or
//! once an epoch), far off any request hot path.

use crate::{LiveMetricsSnapshot, Metric, ServeMetricsSnapshot, Visitor};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Milliseconds since the unix epoch, for stamping samples and records.
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// How a timeline series reads its declared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reading {
    /// Per-second delta of a monotone counter between consecutive ticks.
    Rate,
    /// The instantaneous value.
    Level,
}

/// The series a timeline sample carries, in stable report order: each
/// name, how it reads, and the `/metrics` JSON path of the declared
/// metric it reads.
pub const TIMELINE: [(&str, Reading, &str); 9] = [
    ("request_rate", Reading::Rate, "serve.accepted"),
    (
        "shed_rate_cheap",
        Reading::Rate,
        "serve.admission.cheap.shed",
    ),
    (
        "shed_rate_heavy",
        Reading::Rate,
        "serve.admission.heavy.shed",
    ),
    (
        "shed_rate_intake",
        Reading::Rate,
        "serve.admission.intake.shed",
    ),
    ("rejected_rate", Reading::Rate, "serve.rejected_busy"),
    ("in_flight", Reading::Level, "serve.in_flight"),
    ("queue_depth", Reading::Level, "serve.queue_depth"),
    ("ingest_lag", Reading::Level, "live.ingest_lag"),
    ("epoch", Reading::Level, "live.epoch"),
];

/// The series names of [`TIMELINE`], in its order.
pub const TIMELINE_METRICS: [&str; TIMELINE.len()] = {
    let mut names = [""; TIMELINE.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = TIMELINE[i].0;
        i += 1;
    }
    names
};

const METRICS: usize = TIMELINE_METRICS.len();

/// Turns metric snapshots into [`TimelineSample`]s, one tick at a time:
/// levels are read as they are, rates as the per-second delta since the
/// previous tick (zero on the first).
#[derive(Default)]
pub struct TimelineSampler {
    prev: Option<(Instant, [f64; METRICS])>,
}

impl TimelineSampler {
    pub fn sample(
        &mut self,
        serve: &ServeMetricsSnapshot,
        live: &LiveMetricsSnapshot,
        unix_ms: u64,
    ) -> TimelineSample {
        let now = Instant::now();
        let mut read = [0.0; METRICS];
        let mut sink = |m: &Metric| {
            if let Some(i) = TIMELINE.iter().position(|(_, _, path)| m.path_is(path)) {
                read[i] = m.value.as_f64().unwrap_or(0.0);
            }
        };
        let mut v = Visitor::new(&mut sink);
        v.group("serve", &[], |v| serve.visit(v));
        v.group("live", &[], |v| live.visit(v));
        let mut values = read;
        for (i, (_, reading, _)) in TIMELINE.iter().enumerate() {
            if *reading == Reading::Rate {
                values[i] = match self.prev {
                    Some((t0, before)) => {
                        let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
                        (read[i] - before[i]).max(0.0) / dt
                    }
                    None => 0.0,
                };
            }
        }
        self.prev = Some((now, read));
        TimelineSample { unix_ms, values }
    }
}

/// Default ring capacities: 10 minutes of raw 1-second ticks, an hour
/// of 10-second windows, a day of 1-minute windows. Total worst-case
/// footprint is a few hundred kilobytes, independent of uptime.
const RAW_CAP: usize = 600;
const R10_CAP: usize = 360;
const R60_CAP: usize = 1440;

const W10_MS: u64 = 10_000;
const W60_MS: u64 = 60_000;

/// One sampler tick: a unix-millisecond timestamp plus every metric's
/// value, ordered as [`TIMELINE_METRICS`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelineSample {
    pub unix_ms: u64,
    pub values: [f64; METRICS],
}

/// One rollup window's running aggregates for every metric.
#[derive(Clone, Copy, Debug)]
struct Window {
    start_ms: u64,
    samples: u64,
    min: [f64; METRICS],
    sum: [f64; METRICS],
    max: [f64; METRICS],
}

impl Window {
    fn open(start_ms: u64, sample: &TimelineSample) -> Window {
        Window {
            start_ms,
            samples: 1,
            min: sample.values,
            sum: sample.values,
            max: sample.values,
        }
    }

    fn absorb(&mut self, sample: &TimelineSample) {
        self.samples += 1;
        for i in 0..METRICS {
            self.min[i] = self.min[i].min(sample.values[i]);
            self.sum[i] += sample.values[i];
            self.max[i] = self.max[i].max(sample.values[i]);
        }
    }

    fn point(&self, metric: usize, resolution_secs: u64) -> TimelinePoint {
        TimelinePoint {
            t: self.start_ms / 1000,
            resolution_secs,
            min: self.min[metric],
            mean: self.sum[metric] / self.samples as f64,
            max: self.max[metric],
            samples: self.samples,
        }
    }
}

/// One queried point: the window's start (unix seconds), its width, and
/// the metric's min/mean/max over the samples that landed in it. Raw
/// ticks report `resolution_secs: 0` with `min == mean == max`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TimelinePoint {
    pub t: u64,
    pub resolution_secs: u64,
    pub min: f64,
    pub mean: f64,
    pub max: f64,
    pub samples: u64,
}

struct TimelineInner {
    raw: VecDeque<TimelineSample>,
    r10: VecDeque<Window>,
    r60: VecDeque<Window>,
    open10: Option<Window>,
    open60: Option<Window>,
    last_ms: u64,
    raw_evicted: bool,
}

/// The bounded multi-resolution timeline ring. Shared by `Arc` between
/// the sampler thread and the `/v1/ops/timeline` handler.
pub struct OpsTimeline {
    caps: (usize, usize, usize),
    inner: Mutex<TimelineInner>,
}

impl Default for OpsTimeline {
    fn default() -> OpsTimeline {
        OpsTimeline::with_caps(RAW_CAP, R10_CAP, R60_CAP)
    }
}

impl OpsTimeline {
    pub fn new() -> OpsTimeline {
        OpsTimeline::default()
    }

    /// A timeline with explicit ring capacities (tests shrink them to
    /// exercise eviction without pushing hundreds of thousands of
    /// samples).
    pub fn with_caps(raw: usize, r10: usize, r60: usize) -> OpsTimeline {
        OpsTimeline {
            caps: (raw.max(1), r10.max(1), r60.max(1)),
            inner: Mutex::new(TimelineInner {
                raw: VecDeque::new(),
                r10: VecDeque::new(),
                r60: VecDeque::new(),
                open10: None,
                open60: None,
                last_ms: 0,
                raw_evicted: false,
            }),
        }
    }

    /// Index of `metric` in [`TIMELINE_METRICS`], `None` if unknown.
    pub fn metric_index(metric: &str) -> Option<usize> {
        TIMELINE_METRICS.iter().position(|m| *m == metric)
    }

    /// Record one sampler tick. Timestamps are clamped to be monotone
    /// non-decreasing (a wall-clock step backwards must not corrupt the
    /// ring's ordering invariant).
    pub fn push(&self, mut sample: TimelineSample) {
        let mut guard = self.inner.lock().expect("ops timeline lock");
        let inner = &mut *guard;
        sample.unix_ms = sample.unix_ms.max(inner.last_ms);
        inner.last_ms = sample.unix_ms;
        inner.raw.push_back(sample);
        while inner.raw.len() > self.caps.0 {
            inner.raw.pop_front();
            inner.raw_evicted = true;
        }
        let start10 = sample.unix_ms - sample.unix_ms % W10_MS;
        match &mut inner.open10 {
            Some(open) if open.start_ms == start10 => open.absorb(&sample),
            open => {
                if let Some(done) = open.replace(Window::open(start10, &sample)) {
                    inner.r10.push_back(done);
                    while inner.r10.len() > self.caps.1 {
                        inner.r10.pop_front();
                    }
                }
            }
        }
        let start60 = sample.unix_ms - sample.unix_ms % W60_MS;
        match &mut inner.open60 {
            Some(open) if open.start_ms == start60 => open.absorb(&sample),
            open => {
                if let Some(done) = open.replace(Window::open(start60, &sample)) {
                    inner.r60.push_back(done);
                    while inner.r60.len() > self.caps.2 {
                        inner.r60.pop_front();
                    }
                }
            }
        }
    }

    /// Samples currently held per ring `(raw, 10s, 1min)`, open windows
    /// included — the bounded-memory invariant tests pin.
    pub fn depths(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock().expect("ops timeline lock");
        (
            inner.raw.len(),
            inner.r10.len() + usize::from(inner.open10.is_some()),
            inner.r60.len() + usize::from(inner.open60.is_some()),
        )
    }

    /// Query one metric over half-open `[from, to)` unix seconds (the
    /// same window semantics as `/v1/series/{asn}`). Returns the finest
    /// resolution whose retained history still covers `from`: raw ticks
    /// first, then 10-second windows, then 1-minute windows. While no
    /// raw tick has ever been evicted the raw ring IS the complete
    /// history, so it covers any window — an unbounded query on a young
    /// daemon answers at raw resolution instead of degrading to the one
    /// open rollup window. `None` when the metric name is unknown.
    pub fn query(&self, metric: &str, from: i64, to: i64) -> Option<Vec<TimelinePoint>> {
        let metric = Self::metric_index(metric)?;
        let inner = self.inner.lock().expect("ops timeline lock");
        let in_range = |t_secs: u64| t_secs as i64 >= from && (t_secs as i64) < to;

        if let Some(first) = inner.raw.front() {
            if !inner.raw_evicted
                || first.unix_ms / 1000 <= from.max(0) as u64
                || inner.r10.is_empty()
            {
                return Some(
                    inner
                        .raw
                        .iter()
                        .filter(|s| in_range(s.unix_ms / 1000))
                        .map(|s| TimelinePoint {
                            t: s.unix_ms / 1000,
                            resolution_secs: 0,
                            min: s.values[metric],
                            mean: s.values[metric],
                            max: s.values[metric],
                            samples: 1,
                        })
                        .collect(),
                );
            }
        }
        let windows = |ring: &VecDeque<Window>, open: &Option<Window>, secs: u64| {
            ring.iter()
                .chain(open.iter())
                .filter(|w| in_range(w.start_ms / 1000))
                .map(|w| w.point(metric, secs))
                .collect::<Vec<_>>()
        };
        if let Some(first) = inner.r10.front().or(inner.open10.as_ref()) {
            if first.start_ms / 1000 <= from.max(0) as u64 || inner.r60.is_empty() {
                return Some(windows(&inner.r10, &inner.open10, 10));
            }
        }
        Some(windows(&inner.r60, &inner.open60, 60))
    }
}

/// One re-analysis pass of the live engine, as recorded for
/// `/v1/ops/epochs`.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct EpochRecord {
    /// Epoch generation this pass published (unchanged on error).
    pub epoch: u64,
    /// What woke the pass: `watch_append`, `watch_truncation`, `post`,
    /// or the intake paths it coalesced joined with `+`.
    pub trigger: String,
    /// Total records live-ingested when the pass started.
    pub records_ingested: u64,
    /// Records the pass decoded: the rows it folded (each decoded once,
    /// at intake), or what a rebuild re-read from the files.
    pub records_decoded: u64,
    /// Populations analysed again; every other one kept its analysis
    /// from the pass before.
    pub populations_reanalysed: u64,
    /// Probes binned again from their columns; every other probe of a
    /// re-analysed population kept its series from the pass before.
    pub probes_rebinned: u64,
    /// Wall nanoseconds the whole pass took.
    pub pass_nanos: u64,
    /// Wall nanoseconds the epoch pointer swap took.
    pub swap_nanos: u64,
    /// `published` or `error`.
    pub outcome: String,
    /// The error message when `outcome == "error"`, else empty.
    #[serde(skip_serializing_if = "String::is_empty")]
    pub error: String,
    /// Unix milliseconds the pass finished.
    pub unix_ms: u64,
}

/// Bounded last-N ring of [`EpochRecord`]s. Shared by `Arc` between the
/// live engine and the `/v1/ops/epochs` handler.
pub struct EpochTelemetry {
    cap: usize,
    ring: Mutex<VecDeque<EpochRecord>>,
}

impl Default for EpochTelemetry {
    fn default() -> EpochTelemetry {
        EpochTelemetry::with_capacity(64)
    }
}

impl EpochTelemetry {
    pub fn new() -> EpochTelemetry {
        EpochTelemetry::default()
    }

    pub fn with_capacity(cap: usize) -> EpochTelemetry {
        EpochTelemetry {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Append one pass record, evicting the oldest beyond capacity.
    pub fn record(&self, record: EpochRecord) {
        let mut ring = self.ring.lock().expect("epoch telemetry lock");
        ring.push_back(record);
        while ring.len() > self.cap {
            ring.pop_front();
        }
    }

    /// Oldest-first copy of the retained records.
    pub fn snapshot(&self) -> Vec<EpochRecord> {
        self.ring
            .lock()
            .expect("epoch telemetry lock")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn sample(unix_ms: u64, value: f64) -> TimelineSample {
        TimelineSample {
            unix_ms,
            values: [value; METRICS],
        }
    }

    #[test]
    fn rings_stay_bounded_under_long_runs() {
        let tl = OpsTimeline::with_caps(10, 5, 3);
        // Simulate ~3 hours of 1-second ticks.
        for i in 0..10_800u64 {
            tl.push(sample(1_700_000_000_000 + i * 1000, i as f64));
        }
        let (raw, r10, r60) = tl.depths();
        assert!(raw <= 10, "raw ring grew to {raw}");
        assert!(r10 <= 6, "10s ring grew to {r10}");
        assert!(r60 <= 4, "1min ring grew to {r60}");
        // Default caps hold too (cheap smoke, not 3 hours of default).
        let tl = OpsTimeline::new();
        for i in 0..2_000u64 {
            tl.push(sample(1_700_000_000_000 + i * 1000, 1.0));
        }
        assert!(tl.depths().0 <= 600);
    }

    #[test]
    fn timestamps_are_clamped_monotone() {
        let tl = OpsTimeline::new();
        tl.push(sample(5_000, 1.0));
        tl.push(sample(3_000, 2.0)); // wall clock stepped back
        tl.push(sample(7_000, 3.0));
        let points = tl.query("request_rate", 0, 100).expect("known metric");
        let times: Vec<u64> = points.iter().map(|p| p.t).collect();
        assert_eq!(times, vec![5, 5, 7]);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rollups_match_a_naive_oracle() {
        let base = 1_700_000_040_000u64; // 10s- and 60s-aligned
        let values: Vec<f64> = (0..25).map(|i| ((i * 7) % 13) as f64).collect();
        // A raw ring of 2 forces the query onto the 10s rollups, whose
        // min/mean/max must match the naive per-window aggregation.
        let tiny = OpsTimeline::with_caps(2, 10_000, 10_000);
        for (i, &v) in values.iter().enumerate() {
            tiny.push(sample(base + i as u64 * 1000, v));
        }
        let points = tiny
            .query(
                "request_rate",
                (base / 1000) as i64,
                (base / 1000 + 100) as i64,
            )
            .expect("known metric");
        // 25 one-second ticks from an aligned start: windows of 10, 10,
        // and an open 5.
        assert_eq!(points.len(), 3);
        for (w, point) in points.iter().enumerate() {
            let chunk: Vec<f64> = values.iter().copied().skip(w * 10).take(10).collect();
            let min = chunk.iter().copied().fold(f64::INFINITY, f64::min);
            let max = chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            assert_eq!(point.resolution_secs, 10);
            assert_eq!(point.samples, chunk.len() as u64);
            assert_eq!(point.min, min, "window {w} min");
            assert_eq!(point.max, max, "window {w} max");
            assert!((point.mean - mean).abs() < 1e-9, "window {w} mean");
            assert_eq!(point.t, base / 1000 + w as u64 * 10);
        }
    }

    #[test]
    fn query_is_half_open_like_v1_series() {
        let tl = OpsTimeline::new();
        for t in [10u64, 11, 12, 13, 14] {
            tl.push(sample(t * 1000, t as f64));
        }
        let points = tl.query("epoch", 11, 14).expect("known metric");
        let times: Vec<u64> = points.iter().map(|p| p.t).collect();
        // from inclusive, to exclusive.
        assert_eq!(times, vec![11, 12, 13]);
        assert!(tl.query("epoch", 14, 14).expect("known").is_empty());
        assert_eq!(tl.query("no_such_metric", 0, 100), None);
    }

    #[test]
    fn query_falls_back_to_coarser_rings_as_raw_evicts() {
        // Raw holds 3 ticks, 10s ring holds plenty: a query from the
        // distant past must come back at 10s resolution, not the
        // truncated raw view.
        let tl = OpsTimeline::with_caps(3, 100, 100);
        let base = 1_700_000_040_000u64;
        for i in 0..40u64 {
            tl.push(sample(base + i * 1000, i as f64));
        }
        let from = (base / 1000) as i64;
        let points = tl.query("request_rate", from, from + 1000).expect("known");
        assert!(points.iter().all(|p| p.resolution_secs == 10));
        assert!(points.len() >= 3);
        // A query covering only the freshest ticks stays raw.
        let points = tl
            .query("request_rate", from + 37, from + 1000)
            .expect("known");
        assert!(points.iter().all(|p| p.resolution_secs == 0));
        assert_eq!(points.len(), 3);
    }

    #[test]
    fn unbounded_query_stays_raw_until_first_eviction() {
        // 25 ticks crossing two 10s boundaries: rollup windows exist,
        // but raw still holds everything, so an unbounded query must
        // answer with all 25 raw ticks — not the open rollup window.
        let tl = OpsTimeline::new();
        let base = 1_700_000_040_000u64;
        for i in 0..25u64 {
            tl.push(sample(base + i * 1000, i as f64));
        }
        let points = tl.query("request_rate", i64::MIN, i64::MAX).expect("known");
        assert_eq!(points.len(), 25);
        assert!(points.iter().all(|p| p.resolution_secs == 0));
    }

    #[test]
    fn epoch_telemetry_ring_keeps_last_n_in_order() {
        let ring = EpochTelemetry::with_capacity(3);
        for i in 1..=5u64 {
            ring.record(EpochRecord {
                epoch: i,
                trigger: "post".into(),
                outcome: "published".into(),
                ..EpochRecord::default()
            });
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), 3);
        let epochs: Vec<u64> = records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![3, 4, 5]);
        // Serialization drops the empty error field, keeps the rest.
        let json = serde_json::to_string(&records[0]).expect("serializes");
        assert!(json.contains("\"trigger\":\"post\""));
        assert!(!json.contains("\"error\""));
        assert!(json
            .contains("\"records_decoded\":0,\"populations_reanalysed\":0,\"probes_rebinned\":0"));
        let mut with_error = records[0].clone();
        with_error.error = "boom".into();
        with_error.outcome = "error".into();
        let json = serde_json::to_string(&with_error).expect("serializes");
        assert!(json.contains("\"error\":\"boom\""));
    }

    #[test]
    fn timeline_names_are_stable() {
        assert_eq!(
            TIMELINE_METRICS,
            [
                "request_rate",
                "shed_rate_cheap",
                "shed_rate_heavy",
                "shed_rate_intake",
                "rejected_rate",
                "in_flight",
                "queue_depth",
                "ingest_lag",
                "epoch",
            ]
        );
    }

    #[test]
    fn every_series_reads_one_declared_metric() {
        let serve = crate::ServeMetrics::new().snapshot();
        let live = crate::LiveMetrics::new().snapshot();
        let mut hits = [0; METRICS];
        let mut sink = |m: &Metric| {
            for (i, (_, reading, path)) in TIMELINE.iter().enumerate() {
                if m.path_is(path) {
                    hits[i] += 1;
                    // A rate is only meaningful over a monotone counter.
                    let counter = m.kind == crate::Kind::Counter;
                    assert_eq!(*reading == Reading::Rate, counter, "{path}");
                }
            }
        };
        let mut v = Visitor::new(&mut sink);
        v.group("serve", &[], |v| serve.visit(v));
        v.group("live", &[], |v| live.visit(v));
        assert_eq!(hits, [1; METRICS]);
    }

    #[test]
    fn sampler_reports_rates_and_levels() {
        let serve = crate::ServeMetrics::new();
        let live = crate::LiveMetrics::new();
        let mut sampler = TimelineSampler::default();
        serve.accepted.store(100, Ordering::Relaxed);
        serve.queue_push();
        live.records_ingested.store(7, Ordering::Relaxed);
        live.epoch.store(2, Ordering::Relaxed);
        let first = sampler.sample(&serve.snapshot(), &live.snapshot(), 1_000);
        // Rates start at zero; levels read straight through.
        assert_eq!(first.values[0], 0.0);
        assert_eq!(&first.values[5..], &[0.0, 1.0, 7.0, 2.0]);
        serve.accepted.store(150, Ordering::Relaxed);
        serve.admission.heavy.shed.store(3, Ordering::Relaxed);
        let second = sampler.sample(&serve.snapshot(), &live.snapshot(), 2_000);
        assert!(second.values[0] > 0.0, "{:?}", second.values);
        assert!(second.values[2] > 0.0, "{:?}", second.values);
        // 50 accepted against 3 heavy sheds over the same interval.
        let ratio = second.values[0] / second.values[2];
        assert!((ratio - 50.0 / 3.0).abs() < 1e-9, "{ratio}");
        assert_eq!(second.values[1], 0.0);
        assert_eq!(second.unix_ms, 2_000);
    }
}
