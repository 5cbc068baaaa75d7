//! Run observability for the survey pipeline and the `serve` daemon.
//!
//! Every metric is declared once, in the `metrics!` tables below: its
//! kind, JSON field, Prometheus family, labels and help text. The help
//! text is the metric's documentation. From those tables come the
//! atomic structs the writers share ([`RunMetrics`], [`ServeMetrics`],
//! [`LiveMetrics`] and their nested groups), the snapshots that
//! serialize to the `--stats` and `/metrics` JSON, the Prometheus
//! exposition ([`prom`]) and the ops timeline's series ([`ops`]). The
//! table syntax is described in [`registry`].
//!
//! Counters use relaxed ordering: they are statistics, not
//! synchronisation, and the executor's join already orders the final
//! read after every write. Stage timers accumulate monotonic
//! [`std::time::Instant`] nanoseconds; under a multi-threaded executor
//! they sum *across* workers, so stage totals can exceed the elapsed
//! wall time.
//!
//! Beyond the metrics, the crate carries the rest of the observability
//! layer:
//!
//! * [`trace`] — a dependency-free span tracer (per-thread lock-free
//!   ring buffers, drained into Chrome trace-event JSON for
//!   Perfetto/`chrome://tracing`), installed by the CLI's `--trace`.
//! * [`hist`] — log-linear latency histograms, summarized as
//!   p50/p90/p99/max in the JSON.
//! * [`PopulationRow`] — the per-(ASN, period) table (`populations` in
//!   `--stats`, optional CSV via the CLI).
//! * [`LiveProgress`] — live gauges (bytes, records, queue depth,
//!   populations done/total) feeding the CLI's `--progress` heartbeat.
//! * [`Ticker`] — the stoppable periodic thread behind that heartbeat,
//!   the trace stream's drains and `serve`'s ops sampler.

#[macro_use]
pub mod registry;

pub mod hist;
pub mod ops;
pub mod prom;
pub mod ticker;
pub mod trace;

#[cfg(test)]
mod golden;

pub use hist::{AtomicHistogram, Histogram, HistogramSummary};
pub use ops::{EpochRecord, EpochTelemetry, OpsTimeline, TimelinePoint, TimelineSample};
pub use registry::{Gauge, HistogramSnapshot, Kind, Metric, Prom, Value, Visitor};
pub use ticker::Ticker;

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

metrics! {
    /// Series-store traffic of one run (see [`StoreStats`]).
    pub struct StoreMetrics;
    /// Series-store traffic of one run; all zero when no store was attached.
    pub struct StoreStats {
        counter hits("lastmile_run_store_lookups_total" {result: "hit"}, "Series-store lookups by result.");
        counter misses("lastmile_run_store_lookups_total" {result: "miss"});
        counter bypasses("lastmile_run_store_lookups_total" {result: "bypass"});
        counter inserts("lastmile_run_store_inserts_total", "Series-store entries inserted.");
        counter snapshot_bytes_written("lastmile_run_store_snapshot_bytes_total" {direction: "written"}, "Series-store snapshot bytes by direction.");
        counter snapshot_bytes_read("lastmile_run_store_snapshot_bytes_total" {direction: "read"});
        counter snapshot_save_nanos("lastmile_run_store_snapshot_save_nanos_total", "Nanoseconds spent saving series-store snapshots.");
        counter snapshot_load_nanos("lastmile_run_store_snapshot_load_nanos_total", "Nanoseconds spent loading series-store snapshots.");
        counter fingerprint_nanos("lastmile_run_store_fingerprint_nanos_total", "Nanoseconds spent fingerprinting the corpus a series-store snapshot is stamped with.");
    }
}

metrics! {
    /// Quarantined-record counts by error kind (see [`QuarantineStats`]).
    pub struct QuarantineMetrics;
    /// Quarantined-record counts by error kind; the typed taxonomy of the
    /// `--quarantine` triage dump.
    pub struct QuarantineStats {
        counter framing("lastmile_run_ingest_quarantined_total" {kind: "framing"}, "Quarantined ingest records by error kind.");
        counter json("lastmile_run_ingest_quarantined_total" {kind: "json"});
        counter model("lastmile_run_ingest_quarantined_total" {kind: "model"});
        counter worker_panic("lastmile_run_ingest_quarantined_total" {kind: "worker_panic"});
    }
}

metrics! {
    /// File-ingest traffic of one run (see [`IngestStats`]).
    pub struct IngestMetrics;
    /// File-ingest traffic of one run; all zero when nothing was read from
    /// disk.
    pub struct IngestStats {
        counter bytes_read("lastmile_run_ingest_bytes_read_total", "Bytes read from traceroute input files.");
        counter records_decoded("lastmile_run_ingest_records_decoded_total", "Traceroute records decoded.");
        derived records_per_sec(f64 = |_, s| if s.wall_nanos > 0 { s.records_decoded as f64 / (s.wall_nanos as f64 / 1e9) } else { 0.0 },
            "lastmile_run_ingest_records_per_sec", "Traceroute records decoded per second of ingest wall time.");
        group quarantined(QuarantineMetrics => QuarantineStats);
        counter frame_nanos("lastmile_run_ingest_frame_nanos_total", "Nanoseconds the ingest framing loop spent splitting records (one thread).");
        counter decode_nanos("lastmile_run_ingest_decode_nanos_total", "Nanoseconds spent decoding records, summed across parse workers.");
        counter fold_nanos("lastmile_run_ingest_fold_nanos_total", "Nanoseconds ingest workers spent folding decoded records into their own state (routing and binning), summed across workers.");
        /// Nonzero means the decoder's fast pass met a record shape it
        /// does not cover and serde decoded it at several times the cost.
        counter decode_fallbacks("lastmile_run_ingest_decode_fallbacks_total", "Records the decoder's fast pass declined and handed to serde, quarantined ones included.");
        counter wall_nanos("lastmile_run_ingest_wall_nanos_total", "Elapsed wall nanoseconds of file ingest, summed across input files.");
        /// A queue pinned at its capacity means the parse workers are the
        /// bottleneck, a queue near zero means framing/IO is. A
        /// scheduling-dependent high-water mark: two runs over the same
        /// input may differ, so it is outside the identical-across-threads
        /// contract the counters keep.
        max queue_max_depth("lastmile_run_ingest_queue_max_depth", "High-water mark of the bounded ingest batch queue.");
    }
}

metrics! {
    /// Latency histograms of the three per-item hot loops (see
    /// [`LatencyStats`]).
    pub struct LatencyMetrics;
    /// Latency distributions of the three per-item hot loops, as
    /// count/p50/p90/p99/max summaries (nanoseconds). All zero when the
    /// corresponding path never ran or latency recording was off.
    pub struct LatencyStats {
        /// Per-record traceroute decode (ingest workers).
        hist decode("lastmile_run_latency_nanos" / "lastmile_run_latency_samples_total" {loop: "decode"},
            "Bucketed latency quantiles of the per-item hot loops (upper-bound estimates, relative error <= 1/16).",
            "Samples recorded by the per-item latency histograms.");
        /// Per-probe median-series build (pipeline series stage).
        hist series("lastmile_run_latency_nanos" / "lastmile_run_latency_samples_total" {loop: "series"});
        /// Per-population end-to-end analyze (one sample per (ASN, period)).
        hist analyze("lastmile_run_latency_nanos" / "lastmile_run_latency_samples_total" {loop: "analyze"});
        /// With the log-linear layout this states the quantile precision
        /// (`1 / 16` relative) the summaries carry.
        derived bucket_count(u64 = |_, _| hist::BUCKET_COUNT as u64,
            "lastmile_run_histogram_buckets", "Fixed bucket-table size of every log-linear histogram.");
    }
}

metrics! {
    /// Per-stage wall-clock nanoseconds (see [`StageNanos`]).
    pub struct StageMetrics;
    /// Per-stage wall-clock nanoseconds. Stage fields sum across worker
    /// threads; `wall` is the driver's elapsed time.
    pub struct StageNanos {
        counter ingest("lastmile_run_stage_nanos_total" {stage: "ingest"}, "Wall nanoseconds per pipeline stage, summed across workers.");
        counter series("lastmile_run_stage_nanos_total" {stage: "series"});
        counter aggregate("lastmile_run_stage_nanos_total" {stage: "aggregate"});
        counter detect("lastmile_run_stage_nanos_total" {stage: "detect"});
        gauge wall("lastmile_run_wall_nanos", "Elapsed wall nanoseconds of the analysis run.");
    }
}

metrics! {
    /// Lock-free counters for one survey / classification run, shared
    /// between the workers by reference. Each names one of the paper's
    /// §2 pipeline filters or stages.
    pub struct RunMetrics;
    /// Plain-value export of [`RunMetrics`]; serializes to the `--stats`
    /// JSON document (see DESIGN.md for the schema).
    pub struct RunMetricsSnapshot {
        counter traceroutes_ingested("lastmile_run_traceroutes_ingested_total", "Traceroute measurements streamed into the analysis pipeline.");
        counter traceroutes_out_of_period("lastmile_run_traceroutes_out_of_period_total", "Traceroutes dropped for falling outside the measurement period.");
        counter bins_discarded_sanity("lastmile_run_bins_discarded_sanity_total", "Probe bins discarded by the per-bin sanity filter.");
        counter bins_interpolated("lastmile_run_bins_interpolated_total", "Signal gaps filled by linear interpolation before analysis.");
        counter welch_segments("lastmile_run_welch_segments_total", "Segments averaged by the Welch periodogram across detections.");
        counter populations_analyzed("lastmile_run_populations_analyzed_total", "(AS, period) populations fully analyzed.");
        counter populations_with_detection("lastmile_run_populations_with_detection_total", "Analyzed populations that produced a congestion detection.");
        counter tasks_failed("lastmile_run_tasks_failed_total", "Survey tasks whose worker panicked (isolated per task).");
        gauge column_bytes("lastmile_run_column_bytes", "Payload bytes of the last-mile columns the analysis read: each row as stored plus 8 per kept RTT.");
        group store(StoreMetrics => StoreStats);
        group ingest(IngestMetrics => IngestStats);
        group latency(LatencyMetrics => LatencyStats);
        group stage_nanos(StageMetrics => StageNanos);
        /// Per-population table, sorted by (asn, period).
        table populations(PopulationRow);
    }
}

impl RunMetrics {
    /// Record one population's end-to-end analyze latency and its row in
    /// the per-population table. Rows are kept sorted by (asn, period),
    /// so the document is deterministic regardless of worker scheduling.
    pub fn record_population_row(&self, row: PopulationRow) {
        self.latency.analyze.record(row.nanos);
        let mut rows = self.populations.lock().expect("population table lock");
        let at = rows.partition_point(|r| (r.asn, &r.period) <= (row.asn, &row.period));
        rows.insert(at, row);
    }

    /// Record the run's elapsed wall time (driver calls this once).
    pub fn set_wall(&self, timer: &StageTimer) {
        self.stage_nanos
            .wall
            .store(timer.elapsed_nanos(), Ordering::Relaxed);
    }
}

/// One analyzed (ASN, period) population: the paper's funnel counters
/// at per-population resolution, so a slow or lossy population can be
/// localized instead of disappearing into run-global sums.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct PopulationRow {
    /// Origin AS of the population (0 = "all probes").
    pub asn: u32,
    /// Measurement period label (e.g. `2019-09`, or `START..END` unix
    /// seconds for ad-hoc windows).
    pub period: String,
    /// Traceroutes offered to the population's pipeline.
    pub traceroutes: u64,
    /// Probe-bins its sanity filter discarded.
    pub bins_discarded: u64,
    /// Probes contributing data after filtering.
    pub probes: u64,
    /// Detection class name (`none`/`low`/`mild`/`severe`).
    pub class: String,
    /// Nanoseconds spent analysing it (the task's wall time).
    pub nanos: u64,
}

impl PopulationRow {
    /// Header of [`RunMetricsSnapshot::populations_csv`].
    pub const CSV_HEADER: &'static str = "asn,period,traceroutes,bins_discarded,probes,class,nanos";

    fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.asn,
            self.period,
            self.traceroutes,
            self.bins_discarded,
            self.probes,
            self.class,
            self.nanos
        )
    }
}

/// Live counters for the `--progress` heartbeat: updated by the ingest
/// pipeline and the population drivers *while they run* (unlike
/// [`RunMetrics`], which several paths only fold into at stage ends).
/// All atomics; share by `Arc`.
#[derive(Debug, Default)]
pub struct LiveProgress {
    /// Bytes read from traceroute inputs so far.
    pub bytes_read: AtomicU64,
    /// Traceroute records decoded so far.
    pub records: AtomicU64,
    /// Ingest batch queue: batches currently in flight.
    pub queue_depth: Gauge,
    /// Populations fully analysed so far.
    pub populations_done: AtomicU64,
    /// Total populations, once known (0 until then).
    pub populations_total: AtomicU64,
}

impl LiveProgress {
    /// Enqueue accounting for the ingest batch queue.
    pub fn queue_push(&self) {
        self.queue_depth.inc();
    }

    /// Dequeue accounting for the ingest batch queue.
    pub fn queue_pop(&self) {
        self.queue_depth.dec();
    }
}

impl RunMetricsSnapshot {
    /// The `--stats` JSON document (pretty-printed, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s =
            serde_json::to_string_pretty(self).expect("RunMetricsSnapshot serializes infallibly");
        s.push('\n');
        s
    }

    /// The per-population table as CSV (header + one row per
    /// population, trailing newline).
    pub fn populations_csv(&self) -> String {
        let mut out = String::from(PopulationRow::CSV_HEADER);
        out.push('\n');
        for row in &self.populations {
            out.push_str(&row.to_csv());
            out.push('\n');
        }
        out
    }
}

/// Monotonic stopwatch for one stage of work.
///
/// ```
/// # use lastmile_obs::{RunMetrics, StageTimer};
/// # use std::sync::atomic::Ordering;
/// let metrics = RunMetrics::new();
/// let t = StageTimer::start();
/// // ... stage work ...
/// metrics.stage_nanos.detect.fetch_add(t.elapsed_nanos(), Ordering::Relaxed);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StageTimer {
    started: Instant,
}

impl StageTimer {
    pub fn start() -> StageTimer {
        StageTimer {
            started: Instant::now(),
        }
    }

    /// Nanoseconds since `start()`, saturating at `u64::MAX` (584 years).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

metrics! {
    /// Admission accounting for one cost class: its configured concurrency
    /// budget (set once at bind), how many requests it admitted or shed,
    /// and how many are in a handler right now.
    pub struct AdmissionClassMetrics;
    /// Plain-value export of one class's [`AdmissionClassMetrics`].
    pub struct AdmissionClassSnapshot {
        gauge budget("lastmile_serve_admission_budget", "Configured concurrency budget per cost class (0 = disengaged).");
        counter admitted("lastmile_serve_admission_admitted_total", "Requests admitted under the class budget.");
        counter shed("lastmile_serve_admission_shed_total", "Requests shed with 503 because the class budget was exhausted.");
        /// Never exceeds `budget`.
        gauge in_flight("lastmile_serve_admission_in_flight", "Requests of this cost class in a handler right now.");
    }
}

metrics! {
    /// Per-cost-class admission accounting. The probe class (`/healthz`,
    /// `/metrics`) is never budgeted, so only the three budgeted classes
    /// appear.
    pub struct AdmissionMetrics;
    /// The `serve.admission` key of the `/metrics` JSON: one entry per
    /// budgeted cost class.
    pub struct AdmissionSnapshot {
        group cheap(AdmissionClassMetrics => AdmissionClassSnapshot {cost_class: "cheap"});
        group heavy(AdmissionClassMetrics => AdmissionClassSnapshot {cost_class: "heavy"});
        group intake(AdmissionClassMetrics => AdmissionClassSnapshot {cost_class: "intake"});
    }
}

metrics! {
    /// Per-endpoint request latency, accept to response flushed.
    pub struct ServeLatencyMetrics;
    /// Per-endpoint latency summaries inside [`ServeMetricsSnapshot`].
    pub struct ServeLatencyStats {
        hist classify("lastmile_serve_request_duration_nanos" {endpoint: "classify"}, "Request latency (accept to response flushed) per endpoint family.");
        hist series("lastmile_serve_request_duration_nanos" {endpoint: "series"});
        hist populations("lastmile_serve_request_duration_nanos" {endpoint: "populations"});
        hist ingest("lastmile_serve_request_duration_nanos" {endpoint: "ingest"});
        hist healthz("lastmile_serve_request_duration_nanos" {endpoint: "healthz"});
        hist metrics("lastmile_serve_request_duration_nanos" {endpoint: "metrics"});
        hist other("lastmile_serve_request_duration_nanos" {endpoint: "other"});
        /// Queue-full and over-budget 503s, answered without reaching a
        /// handler: how fast the daemon turns traffic away under overload.
        hist rejected("lastmile_serve_request_duration_nanos" {endpoint: "rejected"});
    }
}

metrics! {
    /// Request-side counters, gauges, and latency histograms for the
    /// `lastmile serve` daemon. All atomics; the acceptor, every worker, and
    /// the `/metrics` handler share one instance by `Arc`.
    pub struct ServeMetrics;
    /// Plain-value export of [`ServeMetrics`]; the `serve` key of the
    /// daemon's `/metrics` JSON.
    pub struct ServeMetricsSnapshot {
        counter accepted("lastmile_serve_accepted_total", "Connections accepted (queued or handled inline).");
        counter rejected_busy("lastmile_serve_rejected_busy_total", "Connections refused with 503 because the accept queue was full.");
        counter requests("lastmile_serve_requests_total", "Requests fully answered by a handler (any status).");
        /// The worker survives (the panic is caught); nonzero means a
        /// handler bug.
        counter worker_panics("lastmile_serve_worker_panics_total", "Worker iterations that panicked while handling a connection.");
        gauge in_flight("lastmile_serve_in_flight", "Requests being handled right now.");
        gauge queue_depth("lastmile_serve_queue_depth", "Connections sitting in the accept queue right now.");
        /// A scheduling-dependent high-water mark, outside the
        /// identical-across-threads contract the counters keep.
        derived queue_max_depth(u64 = |m, _| m.queue_depth.high_water(),
            "lastmile_serve_queue_max_depth", "High-water mark of the accept queue depth.");
        counter fastlane_hits("lastmile_serve_fastlane_hits_total", "Probes served by the fast lane while the accept queue was busy.");
        group admission(AdmissionMetrics => AdmissionSnapshot);
        group latency(ServeLatencyMetrics => ServeLatencyStats);
    }
}

impl AdmissionClassMetrics {
    /// Try to take one budget slot; `true` means admitted (the caller
    /// must release via [`AdmissionClassMetrics::release`]).
    pub fn try_acquire(&self) -> bool {
        let admitted = self
            .in_flight
            .inc_below(self.budget.load(Ordering::Relaxed));
        if admitted {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Return a slot taken by a successful [`try_acquire`].
    ///
    /// [`try_acquire`]: AdmissionClassMetrics::try_acquire
    pub fn release(&self) {
        self.in_flight.dec();
    }
}

/// Endpoint families a served request is attributed to (one latency
/// histogram each in [`ServeMetrics`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEndpoint {
    Classify,
    Series,
    Populations,
    /// `POST /v1/traceroutes` — the live intake path.
    Ingest,
    Healthz,
    Metrics,
    Other,
}

impl ServeEndpoint {
    /// Stable lowercase label used in `/metrics` keys, Prometheus
    /// `endpoint` labels, and access-log lines.
    pub fn label(self) -> &'static str {
        match self {
            ServeEndpoint::Classify => "classify",
            ServeEndpoint::Series => "series",
            ServeEndpoint::Populations => "populations",
            ServeEndpoint::Ingest => "ingest",
            ServeEndpoint::Healthz => "healthz",
            ServeEndpoint::Metrics => "metrics",
            ServeEndpoint::Other => "other",
        }
    }
}

impl ServeMetrics {
    /// Enqueue accounting for the accept queue (tracks the high-water
    /// mark).
    pub fn queue_push(&self) {
        self.queue_depth.inc();
    }

    /// Dequeue accounting for the accept queue.
    pub fn queue_pop(&self) {
        self.queue_depth.dec();
    }

    /// Record one shed (queue-full or over-budget 503) answered without
    /// reaching a handler. Does not count toward `requests` — that
    /// counter means "handler-served".
    pub fn record_rejected(&self, nanos: u64) {
        self.latency.rejected.record(nanos);
    }

    /// Record one answered request against its endpoint's histogram.
    pub fn record_request(&self, endpoint: ServeEndpoint, nanos: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let l = &self.latency;
        let hist = match endpoint {
            ServeEndpoint::Classify => &l.classify,
            ServeEndpoint::Series => &l.series,
            ServeEndpoint::Populations => &l.populations,
            ServeEndpoint::Ingest => &l.ingest,
            ServeEndpoint::Healthz => &l.healthz,
            ServeEndpoint::Metrics => &l.metrics,
            ServeEndpoint::Other => &l.other,
        };
        hist.record(nanos);
    }
}

metrics! {
    /// Counters and gauges for the live re-ingest engine (`lastmile-live`):
    /// intake volume on both paths (append watcher + `POST
    /// /v1/traceroutes`), re-analysis cadence, and the current published
    /// epoch. All atomics; the engine thread, the POST handler, and the
    /// `/metrics` handler share one instance by `Arc`.
    pub struct LiveMetrics;
    /// Plain-value export of [`LiveMetrics`]; the `live` key of the
    /// daemon's `/metrics` JSON.
    pub struct LiveMetricsSnapshot {
        counter records_ingested("lastmile_live_records_ingested_total", "Records accepted through live intake (watch appends + POSTs).");
        /// Value of `records_ingested` covered by the most recently
        /// published epoch.
        internal records_analyzed();
        derived ingest_lag(u64 = |m, s| s.records_ingested.saturating_sub(m.records_analyzed.load(Ordering::Relaxed)),
            "lastmile_live_ingest_lag", "Records ingested but not yet covered by a published epoch.");
        counter posts_accepted("lastmile_live_posts_accepted_total", "Records accepted via POST /v1/traceroutes.");
        counter posts_rejected("lastmile_live_posts_rejected_total", "Records rejected (quarantined) via POST /v1/traceroutes.");
        counter watch_appends("lastmile_live_watch_appends_total", "Append deltas slurped by the corpus-file watcher.");
        counter watch_truncations("lastmile_live_watch_truncations_total", "Truncation/rotation events (each forces a full re-ingest).");
        counter watch_quarantined("lastmile_live_watch_quarantined_total", "Records the watcher quarantined (malformed appended lines).");
        counter reanalyses("lastmile_live_reanalyses_total", "Re-analyses that published a new epoch.");
        counter reanalysis_errors("lastmile_live_reanalysis_errors_total", "Re-analyses that failed (epoch unchanged).");
        gauge epoch("lastmile_live_epoch", "Generation of the currently published analysis snapshot.");
        gauge swap_nanos("lastmile_live_swap_nanos", "Wall nanoseconds the last epoch pointer swap took.");
        gauge reanalysis_nanos("lastmile_live_reanalysis_nanos", "Wall nanoseconds the last full re-analysis took.");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = RunMetrics::new();
        m.traceroutes_ingested.fetch_add(10, Ordering::Relaxed);
        m.traceroutes_ingested.fetch_add(5, Ordering::Relaxed);
        m.traceroutes_out_of_period.fetch_add(2, Ordering::Relaxed);
        m.bins_discarded_sanity.fetch_add(3, Ordering::Relaxed);
        m.bins_interpolated.fetch_add(4, Ordering::Relaxed);
        m.welch_segments.fetch_add(7, Ordering::Relaxed);
        m.add(&RunMetricsSnapshot {
            populations_analyzed: 2,
            populations_with_detection: 1,
            tasks_failed: 1,
            column_bytes: 13,
            ..RunMetricsSnapshot::default()
        });
        m.store.add(&StoreStats {
            hits: 6,
            misses: 2,
            bypasses: 1,
            inserts: 2,
            ..StoreStats::default()
        });
        m.store.add(&StoreStats {
            hits: 1,
            ..StoreStats::default()
        });
        m.store.add(&StoreStats {
            snapshot_bytes_written: 100,
            snapshot_bytes_read: 80,
            snapshot_save_nanos: 11,
            snapshot_load_nanos: 9,
            fingerprint_nanos: 12,
            ..StoreStats::default()
        });
        m.ingest.add(&IngestStats {
            bytes_read: 1000,
            records_decoded: 50,
            quarantined: QuarantineStats {
                framing: 1,
                json: 2,
                model: 3,
                worker_panic: 4,
            },
            frame_nanos: 5,
            decode_nanos: 6,
            fold_nanos: 8,
            decode_fallbacks: 7,
            wall_nanos: 500_000_000, // 0.5 s
            queue_max_depth: 3,
            ..IngestStats::default()
        });
        m.ingest.add(&IngestStats {
            records_decoded: 50,
            wall_nanos: 500_000_000,
            queue_max_depth: 2, // below the max already seen
            ..IngestStats::default()
        });
        let mut decode = Histogram::new();
        decode.record(1_000);
        decode.record(2_000);
        m.latency.decode.merge(&decode);
        let mut series = Histogram::new();
        series.record(5_000);
        m.latency.series.merge(&series);
        m.record_population_row(PopulationRow {
            asn: 64500,
            period: "2019-09".into(),
            traceroutes: 100,
            bins_discarded: 2,
            probes: 5,
            class: "mild".into(),
            nanos: 9_000,
        });
        m.record_population_row(PopulationRow {
            asn: 64496,
            period: "2019-09".into(),
            nanos: 4_000,
            ..PopulationRow::default()
        });
        let s = m.snapshot();
        assert_eq!(s.traceroutes_ingested, 15);
        assert_eq!(s.traceroutes_out_of_period, 2);
        assert_eq!(s.bins_discarded_sanity, 3);
        assert_eq!(s.bins_interpolated, 4);
        assert_eq!(s.welch_segments, 7);
        assert_eq!(s.populations_analyzed, 2);
        assert_eq!(s.populations_with_detection, 1);
        assert_eq!(s.tasks_failed, 1);
        assert_eq!(s.column_bytes, 13);
        assert_eq!(
            s.store,
            StoreStats {
                hits: 7,
                misses: 2,
                bypasses: 1,
                inserts: 2,
                snapshot_bytes_written: 100,
                snapshot_bytes_read: 80,
                snapshot_save_nanos: 11,
                snapshot_load_nanos: 9,
                fingerprint_nanos: 12,
            }
        );
        assert_eq!(
            s.ingest,
            IngestStats {
                bytes_read: 1000,
                records_decoded: 100,
                records_per_sec: 100.0, // 100 records over 1 s of ingest wall
                quarantined: QuarantineStats {
                    framing: 1,
                    json: 2,
                    model: 3,
                    worker_panic: 4,
                },
                frame_nanos: 5,
                decode_nanos: 6,
                fold_nanos: 8,
                decode_fallbacks: 7,
                wall_nanos: 1_000_000_000,
                queue_max_depth: 3, // fetch_max, not a sum
            }
        );
        assert_eq!(s.latency.decode.count, 2);
        assert_eq!(s.latency.decode.max_nanos, 2_000);
        assert_eq!(s.latency.series.count, 1);
        // One analyze sample per recorded population.
        assert_eq!(s.latency.analyze.count, 2);
        assert_eq!(s.latency.analyze.max_nanos, 9_000);
        // The table is sorted by (asn, period) whatever the push order.
        assert_eq!(s.populations.len(), 2);
        assert_eq!(s.populations[0].asn, 64496);
        assert_eq!(s.populations[1].class, "mild");
        let csv = s.populations_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(PopulationRow::CSV_HEADER));
        assert_eq!(lines.next(), Some("64496,2019-09,0,0,0,,4000"));
        assert_eq!(lines.next(), Some("64500,2019-09,100,2,5,mild,9000"));
    }

    #[test]
    fn shared_across_threads() {
        let m = RunMetrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.traceroutes_ingested.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().traceroutes_ingested, 4000);
    }

    #[test]
    fn timer_is_monotonic_and_wall_recorded() {
        let m = RunMetrics::new();
        let t = StageTimer::start();
        let a = t.elapsed_nanos();
        let b = t.elapsed_nanos();
        assert!(b >= a);
        m.set_wall(&t);
        assert!(m.snapshot().stage_nanos.wall >= b);
    }

    #[test]
    fn snapshot_serializes_every_field() {
        let m = RunMetrics::new();
        m.traceroutes_ingested.fetch_add(1, Ordering::Relaxed);
        let json = m.snapshot().to_json();
        for key in [
            "traceroutes_ingested",
            "traceroutes_out_of_period",
            "bins_discarded_sanity",
            "bins_interpolated",
            "welch_segments",
            "populations_analyzed",
            "populations_with_detection",
            "tasks_failed",
            "column_bytes",
            "store",
            "hits",
            "misses",
            "bypasses",
            "inserts",
            "snapshot_bytes_written",
            "snapshot_bytes_read",
            "snapshot_save_nanos",
            "snapshot_load_nanos",
            "fingerprint_nanos",
            "ingest",
            "bytes_read",
            "records_decoded",
            "records_per_sec",
            "quarantined",
            "framing",
            "json",
            "model",
            "worker_panic",
            "frame_nanos",
            "decode_nanos",
            "fold_nanos",
            "decode_fallbacks",
            "wall_nanos",
            "queue_max_depth",
            "latency",
            "decode",
            "series",
            "analyze",
            "p50_nanos",
            "p90_nanos",
            "p99_nanos",
            "max_nanos",
            "count",
            "bucket_count",
            "stage_nanos",
            "wall",
            "populations",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn serve_metrics_snapshot_and_queue_gauges() {
        let m = ServeMetrics::new();
        m.accepted.fetch_add(3, Ordering::Relaxed);
        m.queue_push();
        m.queue_push();
        m.queue_pop();
        m.record_request(ServeEndpoint::Classify, 1_000);
        m.record_request(ServeEndpoint::Classify, 2_000);
        m.record_request(ServeEndpoint::Healthz, 500);
        m.rejected_busy.fetch_add(1, Ordering::Relaxed);
        m.record_rejected(4_000);
        let s = m.snapshot();
        assert_eq!(s.accepted, 3);
        assert_eq!(s.rejected_busy, 1);
        // Shed answers never count as handler-served requests…
        assert_eq!(s.requests, 3);
        assert_eq!(s.worker_panics, 0);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_max_depth, 2);
        assert_eq!(s.latency.classify.count, 2);
        assert_eq!(s.latency.classify.max_nanos, 2_000);
        assert_eq!(s.latency.healthz.count, 1);
        assert_eq!(s.latency.series.count, 0);
        // …but their latency lands in the dedicated rejected histogram.
        assert_eq!(s.latency.rejected.count, 1);
        assert_eq!(s.latency.rejected.max_nanos, 4_000);
        // Pop below zero saturates.
        m.queue_pop();
        m.queue_pop();
        assert_eq!(m.snapshot().queue_depth, 0);
        // The document keeps its golden keys.
        let json = serde_json::to_string_pretty(&s).expect("serve snapshot serializes");
        for key in [
            "accepted",
            "rejected_busy",
            "requests",
            "worker_panics",
            "in_flight",
            "queue_depth",
            "queue_max_depth",
            "fastlane_hits",
            "latency",
            "classify",
            "series",
            "populations",
            "ingest",
            "healthz",
            "metrics",
            "other",
            "rejected",
            "admission",
            "cheap",
            "heavy",
            "intake",
            "budget",
            "admitted",
            "shed",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn admission_class_budget_acquire_release() {
        let class = AdmissionClassMetrics::default();
        class.budget.store(2, Ordering::Relaxed);
        assert!(class.try_acquire());
        assert!(class.try_acquire());
        // Budget exhausted: third acquire sheds.
        assert!(!class.try_acquire());
        class.release();
        assert!(class.try_acquire());
        let s = class.snapshot();
        assert_eq!(s.budget, 2);
        assert_eq!(s.admitted, 3);
        assert_eq!(s.shed, 1);
        assert_eq!(s.in_flight, 2);
        class.release();
        class.release();
        // Release below zero saturates.
        class.release();
        assert_eq!(class.snapshot().in_flight, 0);
    }

    #[test]
    fn live_metrics_snapshot_lag_and_golden_keys() {
        let m = LiveMetrics::new();
        m.records_ingested.fetch_add(12, Ordering::Relaxed);
        m.records_analyzed.store(9, Ordering::Relaxed);
        m.posts_accepted.fetch_add(4, Ordering::Relaxed);
        m.posts_rejected.fetch_add(1, Ordering::Relaxed);
        m.watch_appends.fetch_add(2, Ordering::Relaxed);
        m.reanalyses.fetch_add(3, Ordering::Relaxed);
        m.epoch.store(4, Ordering::Relaxed);
        m.swap_nanos.store(1_500, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.records_ingested, 12);
        assert_eq!(s.ingest_lag, 3);
        assert_eq!(s.posts_accepted, 4);
        assert_eq!(s.posts_rejected, 1);
        assert_eq!(s.watch_appends, 2);
        assert_eq!(s.reanalyses, 3);
        assert_eq!(s.epoch, 4);
        assert_eq!(s.swap_nanos, 1_500);
        // Lag saturates rather than underflowing if analyzed races ahead.
        m.records_analyzed.store(20, Ordering::Relaxed);
        assert_eq!(m.snapshot().ingest_lag, 0);
        let json = serde_json::to_string_pretty(&s).expect("live snapshot serializes");
        for key in [
            "records_ingested",
            "ingest_lag",
            "posts_accepted",
            "posts_rejected",
            "watch_appends",
            "watch_truncations",
            "watch_quarantined",
            "reanalyses",
            "reanalysis_errors",
            "epoch",
            "swap_nanos",
            "reanalysis_nanos",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
