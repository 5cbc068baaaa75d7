//! Run observability for the survey pipeline.
//!
//! [`RunMetrics`] is a set of lock-free counters and stage-time
//! accumulators shared (by reference) between the survey workers.  Each
//! counter names one of the §2 pipeline filters or stages of the paper:
//!
//! * `traceroutes_ingested` — built-in measurements streamed into an
//!   [`AsPipeline`] (after probe selection).
//! * `traceroutes_out_of_period` — dropped because their timestamp fell
//!   outside the measurement period (§2's period cut).
//! * `bins_discarded_sanity` — 30-minute probe bins discarded by the
//!   "at least N traceroutes per bin" sanity filter (§2).
//! * `bins_interpolated` — gaps in the aggregated signal filled by
//!   linear interpolation before spectral analysis.
//! * `welch_segments` — segments averaged by the Welch periodogram
//!   across all detections.
//! * `populations_analyzed` / `populations_with_detection` — (AS,
//!   period) populations processed, and the subset that passed the
//!   probe-coverage gate and produced a [`Detection`].
//! * `tasks_failed` — survey tasks whose worker panicked; the executor
//!   isolates these per task instead of aborting the run.
//! * `store_*` — series-store traffic when a run is given a
//!   `lastmile-store` cache: lookup hits/misses/bypasses, entries
//!   inserted and evicted, snapshot bytes written/read and the
//!   nanoseconds spent saving/loading snapshots. A warm run over stored
//!   probes shows `store_hits > 0` and `traceroutes_ingested == 0`.
//! * `ingest_*` — file-ingest traffic when a run decodes traceroutes
//!   from disk through `lastmile-ingest`: bytes read, records decoded,
//!   quarantined records by error kind (framing / JSON / model
//!   conversion / worker panic), and per-stage decode timers (framing
//!   vs parse, plus the ingest wall clock the throughput is computed
//!   against).
//!
//! Stage timers accumulate wall-clock nanoseconds measured with the
//! monotonic [`std::time::Instant`] clock; under a multi-threaded
//! executor they sum *across* workers, so stage totals can exceed the
//! elapsed `wall_nanos`.
//!
//! Beyond the counters, the crate carries the rest of the observability
//! layer:
//!
//! * [`trace`] — a dependency-free span tracer (per-thread lock-free
//!   ring buffers, drained into Chrome trace-event JSON for
//!   Perfetto/`chrome://tracing`), installed by the CLI's `--trace`.
//! * [`hist`] — log-linear latency histograms; [`RunMetrics`] holds one
//!   each for per-record decode, per-probe series build, and
//!   per-population analyze, summarized as p50/p90/p99/max under the
//!   `latency` key of the `--stats` JSON.
//! * [`PopulationRow`] — the per-(ASN, period) metrics table
//!   (`populations` in `--stats`, optional CSV via the CLI).
//! * [`LiveProgress`] — live gauges (bytes, records, queue depth,
//!   populations done/total) feeding the CLI's `--progress` heartbeat.
//!
//! [`AsPipeline`]: ../lastmile_core/pipeline/struct.AsPipeline.html
//! [`Detection`]: ../lastmile_core/detect/struct.Detection.html

pub mod hist;
pub mod ops;
pub mod prom;
pub mod trace;

pub use hist::{AtomicHistogram, Histogram, HistogramSummary};
pub use ops::{EpochRecord, EpochTelemetry, OpsTimeline, TimelinePoint, TimelineSample};

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Lock-free counters for one survey / classification run.
///
/// All methods take `&self`; share between threads by reference.
/// Counters use relaxed ordering — they are statistics, not
/// synchronisation, and the executor's channel/join already orders the
/// final read after every write.
#[derive(Debug, Default)]
pub struct RunMetrics {
    traceroutes_ingested: AtomicU64,
    traceroutes_out_of_period: AtomicU64,
    bins_discarded_sanity: AtomicU64,
    bins_interpolated: AtomicU64,
    welch_segments: AtomicU64,
    populations_analyzed: AtomicU64,
    populations_with_detection: AtomicU64,
    tasks_failed: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_bypasses: AtomicU64,
    store_inserts: AtomicU64,
    store_evictions: AtomicU64,
    store_bytes_written: AtomicU64,
    store_bytes_read: AtomicU64,
    store_save_nanos: AtomicU64,
    store_load_nanos: AtomicU64,
    ingest_bytes_read: AtomicU64,
    ingest_records_decoded: AtomicU64,
    ingest_quarantined_framing: AtomicU64,
    ingest_quarantined_json: AtomicU64,
    ingest_quarantined_model: AtomicU64,
    ingest_quarantined_panic: AtomicU64,
    ingest_frame_nanos: AtomicU64,
    ingest_decode_nanos: AtomicU64,
    ingest_wall_nanos: AtomicU64,
    ingest_queue_max_depth: AtomicU64,
    /// Per-record decode latency (merged from ingest workers).
    decode_hist: AtomicHistogram,
    /// Per-probe series-build latency (merged from population stats).
    series_hist: AtomicHistogram,
    /// Per-population analyze latency (one sample per (ASN, period)).
    analyze_hist: AtomicHistogram,
    /// Per-population rows, pushed once per analyzed population. A
    /// Mutex, not an atomic — populations complete at most a few
    /// thousand times per run, far off any hot path.
    populations: Mutex<Vec<PopulationRow>>,
    /// Summed across workers (may exceed wall time).
    ingest_nanos: AtomicU64,
    series_nanos: AtomicU64,
    aggregate_nanos: AtomicU64,
    detect_nanos: AtomicU64,
    /// Elapsed time of the whole run (set once by the driver).
    wall_nanos: AtomicU64,
}

impl RunMetrics {
    pub fn new() -> RunMetrics {
        RunMetrics::default()
    }

    /// Add `n` to a counter. Used via the named helpers below.
    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_traceroutes_ingested(&self, n: u64) {
        Self::add(&self.traceroutes_ingested, n);
    }
    pub fn add_traceroutes_out_of_period(&self, n: u64) {
        Self::add(&self.traceroutes_out_of_period, n);
    }
    pub fn add_bins_discarded_sanity(&self, n: u64) {
        Self::add(&self.bins_discarded_sanity, n);
    }
    pub fn add_bins_interpolated(&self, n: u64) {
        Self::add(&self.bins_interpolated, n);
    }
    pub fn add_welch_segments(&self, n: u64) {
        Self::add(&self.welch_segments, n);
    }
    pub fn add_population(&self, with_detection: bool) {
        Self::add(&self.populations_analyzed, 1);
        if with_detection {
            Self::add(&self.populations_with_detection, 1);
        }
    }
    pub fn add_task_failed(&self) {
        Self::add(&self.tasks_failed, 1);
    }

    /// Record one batch of series-store lookup/insert traffic.
    pub fn add_store_traffic(&self, traffic: &StoreTraffic) {
        Self::add(&self.store_hits, traffic.hits);
        Self::add(&self.store_misses, traffic.misses);
        Self::add(&self.store_bypasses, traffic.bypasses);
        Self::add(&self.store_inserts, traffic.inserts);
        Self::add(&self.store_evictions, traffic.evictions);
    }
    pub fn add_store_bytes_written(&self, n: u64) {
        Self::add(&self.store_bytes_written, n);
    }
    pub fn add_store_bytes_read(&self, n: u64) {
        Self::add(&self.store_bytes_read, n);
    }
    pub fn add_store_save_nanos(&self, n: u64) {
        Self::add(&self.store_save_nanos, n);
    }
    pub fn add_store_load_nanos(&self, n: u64) {
        Self::add(&self.store_load_nanos, n);
    }

    /// Record one file ingest's traffic. A classify run reads each
    /// corpus file once and calls this once per file, so the decode and
    /// quarantine counts are per-record exact.
    pub fn add_ingest_traffic(&self, traffic: &IngestTraffic) {
        Self::add(&self.ingest_bytes_read, traffic.bytes_read);
        Self::add(&self.ingest_records_decoded, traffic.records_decoded);
        Self::add(
            &self.ingest_quarantined_framing,
            traffic.quarantined_framing,
        );
        Self::add(&self.ingest_quarantined_json, traffic.quarantined_json);
        Self::add(&self.ingest_quarantined_model, traffic.quarantined_model);
        Self::add(&self.ingest_quarantined_panic, traffic.quarantined_panic);
        Self::add(&self.ingest_frame_nanos, traffic.frame_nanos);
        Self::add(&self.ingest_decode_nanos, traffic.decode_nanos);
        Self::add(&self.ingest_wall_nanos, traffic.wall_nanos);
        self.ingest_queue_max_depth
            .fetch_max(traffic.queue_max_depth, Ordering::Relaxed);
    }

    /// Merge per-record decode latencies collected by an ingest.
    pub fn merge_decode_hist(&self, hist: &Histogram) {
        self.decode_hist.merge(hist);
    }

    /// Merge per-probe series-build latencies from one population.
    pub fn merge_series_hist(&self, hist: &Histogram) {
        self.series_hist.merge(hist);
    }

    /// Record one population's end-to-end analyze latency and its row in
    /// the per-population table.
    pub fn record_population_row(&self, row: PopulationRow) {
        self.analyze_hist.record(row.nanos);
        self.populations
            .lock()
            .expect("population table lock")
            .push(row);
    }

    pub fn add_ingest_nanos(&self, n: u64) {
        Self::add(&self.ingest_nanos, n);
    }
    pub fn add_series_nanos(&self, n: u64) {
        Self::add(&self.series_nanos, n);
    }
    pub fn add_aggregate_nanos(&self, n: u64) {
        Self::add(&self.aggregate_nanos, n);
    }
    pub fn add_detect_nanos(&self, n: u64) {
        Self::add(&self.detect_nanos, n);
    }

    /// Record the run's elapsed wall time (driver calls this once).
    pub fn set_wall(&self, timer: &StageTimer) {
        self.wall_nanos
            .store(timer.elapsed_nanos(), Ordering::Relaxed);
    }

    /// A plain-value copy of every counter, for reporting. The
    /// per-population table is sorted by (asn, period) so the document
    /// is deterministic regardless of worker scheduling.
    pub fn snapshot(&self) -> RunMetricsSnapshot {
        let get = |f: &AtomicU64| f.load(Ordering::Relaxed);
        let mut populations = self
            .populations
            .lock()
            .expect("population table lock")
            .clone();
        populations.sort_by(|a, b| (a.asn, &a.period).cmp(&(b.asn, &b.period)));
        RunMetricsSnapshot {
            traceroutes_ingested: get(&self.traceroutes_ingested),
            traceroutes_out_of_period: get(&self.traceroutes_out_of_period),
            bins_discarded_sanity: get(&self.bins_discarded_sanity),
            bins_interpolated: get(&self.bins_interpolated),
            welch_segments: get(&self.welch_segments),
            populations_analyzed: get(&self.populations_analyzed),
            populations_with_detection: get(&self.populations_with_detection),
            tasks_failed: get(&self.tasks_failed),
            store: StoreStats {
                hits: get(&self.store_hits),
                misses: get(&self.store_misses),
                bypasses: get(&self.store_bypasses),
                inserts: get(&self.store_inserts),
                evictions: get(&self.store_evictions),
                snapshot_bytes_written: get(&self.store_bytes_written),
                snapshot_bytes_read: get(&self.store_bytes_read),
                snapshot_save_nanos: get(&self.store_save_nanos),
                snapshot_load_nanos: get(&self.store_load_nanos),
            },
            ingest: {
                let wall = get(&self.ingest_wall_nanos);
                let records = get(&self.ingest_records_decoded);
                IngestStats {
                    bytes_read: get(&self.ingest_bytes_read),
                    records_decoded: records,
                    records_per_sec: if wall > 0 {
                        records as f64 / (wall as f64 / 1e9)
                    } else {
                        0.0
                    },
                    quarantined: QuarantineStats {
                        framing: get(&self.ingest_quarantined_framing),
                        json: get(&self.ingest_quarantined_json),
                        model: get(&self.ingest_quarantined_model),
                        worker_panic: get(&self.ingest_quarantined_panic),
                    },
                    frame_nanos: get(&self.ingest_frame_nanos),
                    decode_nanos: get(&self.ingest_decode_nanos),
                    wall_nanos: wall,
                    queue_max_depth: get(&self.ingest_queue_max_depth),
                }
            },
            latency: LatencyStats {
                decode: self.decode_hist.summary(),
                series: self.series_hist.summary(),
                analyze: self.analyze_hist.summary(),
                bucket_count: hist::BUCKET_COUNT as u64,
            },
            stage_nanos: StageNanos {
                ingest: get(&self.ingest_nanos),
                series: get(&self.series_nanos),
                aggregate: get(&self.aggregate_nanos),
                detect: get(&self.detect_nanos),
                wall: get(&self.wall_nanos),
            },
            populations,
        }
    }
}

/// One batch of series-store counter deltas, as reported by a store's
/// counter diff between two points of a run. Plain data so `lastmile-obs`
/// needs no dependency on `lastmile-store`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreTraffic {
    pub hits: u64,
    pub misses: u64,
    pub bypasses: u64,
    pub inserts: u64,
    pub evictions: u64,
}

/// One file ingest's counter deltas, as reported by the decode layer.
/// Plain data so `lastmile-obs` needs no dependency on `lastmile-ingest`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestTraffic {
    pub bytes_read: u64,
    pub records_decoded: u64,
    pub quarantined_framing: u64,
    pub quarantined_json: u64,
    pub quarantined_model: u64,
    pub quarantined_panic: u64,
    /// Nanoseconds the framing reader spent splitting records (one
    /// thread).
    pub frame_nanos: u64,
    /// Nanoseconds parse workers spent decoding, summed across workers
    /// (may exceed the ingest wall time).
    pub decode_nanos: u64,
    /// Elapsed time of the ingest, start to drain.
    pub wall_nanos: u64,
    /// Deepest the bounded batch queue got (batches in flight); a queue
    /// pinned at its capacity means the parse workers are the
    /// bottleneck, a queue near zero means framing/IO is.
    pub queue_max_depth: u64,
}

/// Quarantined-record counts by error kind; the typed taxonomy of the
/// `--quarantine` triage dump.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct QuarantineStats {
    pub framing: u64,
    pub json: u64,
    pub model: u64,
    pub worker_panic: u64,
}

/// File-ingest traffic of one run; all zero when nothing was read from
/// disk. `records_per_sec` is derived from `records_decoded` over
/// `wall_nanos` at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct IngestStats {
    pub bytes_read: u64,
    pub records_decoded: u64,
    pub records_per_sec: f64,
    pub quarantined: QuarantineStats,
    pub frame_nanos: u64,
    pub decode_nanos: u64,
    pub wall_nanos: u64,
    pub queue_max_depth: u64,
}

/// Series-store traffic of one run; all zero when no store was attached.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct StoreStats {
    pub hits: u64,
    pub misses: u64,
    pub bypasses: u64,
    pub inserts: u64,
    pub evictions: u64,
    pub snapshot_bytes_written: u64,
    pub snapshot_bytes_read: u64,
    pub snapshot_save_nanos: u64,
    pub snapshot_load_nanos: u64,
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

/// Latency distributions of the three per-item hot loops, as
/// count/p50/p90/p99/max summaries (nanoseconds). All zero when the
/// corresponding path never ran or latency recording was off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct LatencyStats {
    /// Per-record traceroute decode (ingest workers).
    pub decode: HistogramSummary,
    /// Per-probe median-series build (pipeline series stage).
    pub series: HistogramSummary,
    /// Per-population end-to-end analyze (one sample per (ASN, period)).
    pub analyze: HistogramSummary,
    /// Fixed bucket-table size of every histogram above
    /// ([`hist::BUCKET_COUNT`]); together with the log-linear layout it
    /// states the quantile precision (`1 / 16` relative) the summaries
    /// carry. Zero never occurs — the table is a compile-time constant.
    pub bucket_count: u64,
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
    pub queue_depth: AtomicU64,
    /// Populations fully analysed so far.
    pub populations_done: AtomicU64,
    /// Total populations, once known (0 until then).
    pub populations_total: AtomicU64,
}

impl LiveProgress {
    /// Enqueue accounting for the ingest batch queue.
    pub fn queue_push(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Dequeue accounting for the ingest batch queue (saturating: a
    /// racing reader can observe push/pop out of order).
    pub fn queue_pop(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }
}

/// Per-stage wall-clock nanoseconds. Stage fields sum across worker
/// threads; `wall` is the driver's elapsed time.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct StageNanos {
    pub ingest: u64,
    pub series: u64,
    pub aggregate: u64,
    pub detect: u64,
    pub wall: u64,
}

/// Plain-value export of [`RunMetrics`]; serializes to the `--stats`
/// JSON document (see DESIGN.md for the schema).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct RunMetricsSnapshot {
    pub traceroutes_ingested: u64,
    pub traceroutes_out_of_period: u64,
    pub bins_discarded_sanity: u64,
    pub bins_interpolated: u64,
    pub welch_segments: u64,
    pub populations_analyzed: u64,
    pub populations_with_detection: u64,
    pub tasks_failed: u64,
    pub store: StoreStats,
    pub ingest: IngestStats,
    pub latency: LatencyStats,
    pub stage_nanos: StageNanos,
    /// Per-population table, sorted by (asn, period).
    pub populations: Vec<PopulationRow>,
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
/// let metrics = RunMetrics::new();
/// let t = StageTimer::start();
/// // ... stage work ...
/// metrics.add_detect_nanos(t.elapsed_nanos());
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

/// Request-side counters, gauges, and latency histograms for the
/// `lastmile serve` daemon. All atomics; the acceptor, every worker, and
/// the `/metrics` handler share one instance by `Arc`.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted and queued (or handled inline).
    pub accepted: AtomicU64,
    /// Connections refused with 503 because the accept queue was full.
    pub rejected_busy: AtomicU64,
    /// Requests fully answered (any status), across all workers.
    pub requests: AtomicU64,
    /// Worker iterations that panicked while handling a connection. The
    /// worker survives (the panic is caught); nonzero means a handler
    /// bug.
    pub worker_panics: AtomicU64,
    /// Requests being handled right now (gauge).
    pub in_flight: AtomicU64,
    /// Connections sitting in the accept queue right now (gauge).
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub queue_max_depth: AtomicU64,
    /// Health/metrics probes served by the fast lane while the main
    /// accept queue was saturated.
    pub fastlane_hits: AtomicU64,
    /// Per-cost-class admission accounting (budgets, admitted, shed,
    /// in-flight); the probe class (`/healthz`, `/metrics`) is never
    /// budgeted, so only the three budgeted classes appear here.
    pub admission_cheap: AdmissionClassMetrics,
    pub admission_heavy: AdmissionClassMetrics,
    pub admission_intake: AdmissionClassMetrics,
    /// Per-endpoint request latency (accept-to-response-flushed), keyed
    /// like the `/metrics` document: classify / series / populations /
    /// ingest / healthz / metrics / other.
    pub latency_classify: AtomicHistogram,
    pub latency_series: AtomicHistogram,
    pub latency_populations: AtomicHistogram,
    pub latency_ingest: AtomicHistogram,
    pub latency_healthz: AtomicHistogram,
    pub latency_metrics: AtomicHistogram,
    pub latency_other: AtomicHistogram,
    /// Requests answered without reaching a handler: queue-full and
    /// over-budget 503 sheds. Kept separate from the per-endpoint
    /// histograms (which measure served work) so shed latency — how
    /// fast the daemon turns away traffic under overload — is visible
    /// instead of silently uncounted.
    pub latency_rejected: AtomicHistogram,
}

/// Admission accounting for one cost class: its configured concurrency
/// budget (a gauge, set once at bind), how many requests it admitted or
/// shed, and how many are in a handler right now.
#[derive(Debug, Default)]
pub struct AdmissionClassMetrics {
    /// Concurrency budget the server resolved for this class (gauge).
    pub budget: AtomicU64,
    /// Requests admitted under the budget (handler ran).
    pub admitted: AtomicU64,
    /// Requests shed with 503 because the budget was exhausted.
    pub shed: AtomicU64,
    /// Requests of this class in a handler right now (gauge; never
    /// exceeds `budget`).
    pub in_flight: AtomicU64,
}

impl AdmissionClassMetrics {
    /// Try to take one budget slot; `true` means admitted (the caller
    /// must release via [`AdmissionClassMetrics::release`]).
    pub fn try_acquire(&self) -> bool {
        let budget = self.budget.load(Ordering::Relaxed);
        let admitted = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < budget).then_some(n + 1)
            })
            .is_ok();
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
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }

    fn snapshot(&self) -> AdmissionClassSnapshot {
        AdmissionClassSnapshot {
            budget: self.budget.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
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
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Enqueue accounting for the accept queue (tracks the high-water
    /// mark).
    pub fn queue_push(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Dequeue accounting (saturating: a racing reader can observe
    /// push/pop out of order).
    pub fn queue_pop(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Record one shed (queue-full or over-budget 503) answered without
    /// reaching a handler. Does not count toward `requests` — that
    /// counter means "handler-served".
    pub fn record_rejected(&self, nanos: u64) {
        self.latency_rejected.record(nanos);
    }

    /// Record one answered request against its endpoint's histogram.
    pub fn record_request(&self, endpoint: ServeEndpoint, nanos: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let hist = match endpoint {
            ServeEndpoint::Classify => &self.latency_classify,
            ServeEndpoint::Series => &self.latency_series,
            ServeEndpoint::Populations => &self.latency_populations,
            ServeEndpoint::Ingest => &self.latency_ingest,
            ServeEndpoint::Healthz => &self.latency_healthz,
            ServeEndpoint::Metrics => &self.latency_metrics,
            ServeEndpoint::Other => &self.latency_other,
        };
        hist.record(nanos);
    }

    /// Plain-value export for the `/metrics` JSON document.
    pub fn snapshot(&self) -> ServeMetricsSnapshot {
        ServeMetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_max_depth: self.queue_max_depth.load(Ordering::Relaxed),
            fastlane_hits: self.fastlane_hits.load(Ordering::Relaxed),
            admission: AdmissionSnapshot {
                cheap: self.admission_cheap.snapshot(),
                heavy: self.admission_heavy.snapshot(),
                intake: self.admission_intake.snapshot(),
            },
            latency: ServeLatencyStats {
                classify: self.latency_classify.summary(),
                series: self.latency_series.summary(),
                populations: self.latency_populations.summary(),
                ingest: self.latency_ingest.summary(),
                healthz: self.latency_healthz.summary(),
                metrics: self.latency_metrics.summary(),
                other: self.latency_other.summary(),
                rejected: self.latency_rejected.summary(),
            },
        }
    }
}

/// Plain-value export of one class's [`AdmissionClassMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct AdmissionClassSnapshot {
    pub budget: u64,
    pub admitted: u64,
    pub shed: u64,
    pub in_flight: u64,
}

/// The `serve.admission` key of the `/metrics` JSON: one entry per
/// budgeted cost class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct AdmissionSnapshot {
    pub cheap: AdmissionClassSnapshot,
    pub heavy: AdmissionClassSnapshot,
    pub intake: AdmissionClassSnapshot,
}

/// Per-endpoint latency summaries inside [`ServeMetricsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct ServeLatencyStats {
    pub classify: HistogramSummary,
    pub series: HistogramSummary,
    pub populations: HistogramSummary,
    pub ingest: HistogramSummary,
    pub healthz: HistogramSummary,
    pub metrics: HistogramSummary,
    pub other: HistogramSummary,
    /// Shed 503s (queue-full and over-budget), answered without
    /// reaching a handler.
    pub rejected: HistogramSummary,
}

/// Plain-value export of [`ServeMetrics`]; the `serve` key of the
/// daemon's `/metrics` JSON.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ServeMetricsSnapshot {
    pub accepted: u64,
    pub rejected_busy: u64,
    pub requests: u64,
    pub worker_panics: u64,
    pub in_flight: u64,
    pub queue_depth: u64,
    pub queue_max_depth: u64,
    pub fastlane_hits: u64,
    pub admission: AdmissionSnapshot,
    pub latency: ServeLatencyStats,
}

/// Counters and gauges for the live re-ingest engine (`lastmile-live`):
/// intake volume on both paths (append watcher + `POST
/// /v1/traceroutes`), re-analysis cadence, and the current published
/// epoch. All atomics; the engine thread, the POST handler, and the
/// `/metrics` handler share one instance by `Arc`.
#[derive(Debug, Default)]
pub struct LiveMetrics {
    /// Records accepted through live intake (watch appends + POSTs).
    pub records_ingested: AtomicU64,
    /// Value of `records_ingested` covered by the most recently
    /// published epoch (`records_ingested - records_analyzed` is the
    /// ingest-lag gauge).
    pub records_analyzed: AtomicU64,
    /// Records accepted via `POST /v1/traceroutes`.
    pub posts_accepted: AtomicU64,
    /// Records rejected (quarantined) via `POST /v1/traceroutes`.
    pub posts_rejected: AtomicU64,
    /// Append deltas slurped by the corpus-file watcher.
    pub watch_appends: AtomicU64,
    /// Truncation/rotation events (each forces a full re-ingest).
    pub watch_truncations: AtomicU64,
    /// Records the watcher quarantined (malformed appended lines).
    pub watch_quarantined: AtomicU64,
    /// Re-analyses that published a new epoch.
    pub reanalyses: AtomicU64,
    /// Re-analyses that failed (logged, epoch unchanged).
    pub reanalysis_errors: AtomicU64,
    /// Generation of the currently published analysis snapshot.
    pub epoch: AtomicU64,
    /// Wall nanoseconds the last epoch swap (pointer publish) took.
    pub swap_nanos: AtomicU64,
    /// Wall nanoseconds the last full re-analysis took.
    pub reanalysis_nanos: AtomicU64,
}

impl LiveMetrics {
    pub fn new() -> LiveMetrics {
        LiveMetrics::default()
    }

    /// Plain-value export for the `live` key of the `/metrics` JSON.
    pub fn snapshot(&self) -> LiveMetricsSnapshot {
        let ingested = self.records_ingested.load(Ordering::Relaxed);
        let analyzed = self.records_analyzed.load(Ordering::Relaxed);
        LiveMetricsSnapshot {
            records_ingested: ingested,
            ingest_lag: ingested.saturating_sub(analyzed),
            posts_accepted: self.posts_accepted.load(Ordering::Relaxed),
            posts_rejected: self.posts_rejected.load(Ordering::Relaxed),
            watch_appends: self.watch_appends.load(Ordering::Relaxed),
            watch_truncations: self.watch_truncations.load(Ordering::Relaxed),
            watch_quarantined: self.watch_quarantined.load(Ordering::Relaxed),
            reanalyses: self.reanalyses.load(Ordering::Relaxed),
            reanalysis_errors: self.reanalysis_errors.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            swap_nanos: self.swap_nanos.load(Ordering::Relaxed),
            reanalysis_nanos: self.reanalysis_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value export of [`LiveMetrics`]; the `live` key of the
/// daemon's `/metrics` JSON.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct LiveMetricsSnapshot {
    pub records_ingested: u64,
    /// Records ingested but not yet covered by a published epoch.
    pub ingest_lag: u64,
    pub posts_accepted: u64,
    pub posts_rejected: u64,
    pub watch_appends: u64,
    pub watch_truncations: u64,
    pub watch_quarantined: u64,
    pub reanalyses: u64,
    pub reanalysis_errors: u64,
    pub epoch: u64,
    pub swap_nanos: u64,
    pub reanalysis_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = RunMetrics::new();
        m.add_traceroutes_ingested(10);
        m.add_traceroutes_ingested(5);
        m.add_traceroutes_out_of_period(2);
        m.add_bins_discarded_sanity(3);
        m.add_bins_interpolated(4);
        m.add_welch_segments(7);
        m.add_population(true);
        m.add_population(false);
        m.add_task_failed();
        m.add_store_traffic(&StoreTraffic {
            hits: 6,
            misses: 2,
            bypasses: 1,
            inserts: 2,
            evictions: 1,
        });
        m.add_store_traffic(&StoreTraffic {
            hits: 1,
            ..StoreTraffic::default()
        });
        m.add_store_bytes_written(100);
        m.add_store_bytes_read(80);
        m.add_store_save_nanos(11);
        m.add_store_load_nanos(9);
        m.add_ingest_traffic(&IngestTraffic {
            bytes_read: 1000,
            records_decoded: 50,
            quarantined_framing: 1,
            quarantined_json: 2,
            quarantined_model: 3,
            quarantined_panic: 4,
            frame_nanos: 5,
            decode_nanos: 6,
            wall_nanos: 500_000_000, // 0.5 s
            queue_max_depth: 3,
        });
        m.add_ingest_traffic(&IngestTraffic {
            records_decoded: 50,
            wall_nanos: 500_000_000,
            queue_max_depth: 2, // below the max already seen
            ..IngestTraffic::default()
        });
        let mut decode = Histogram::new();
        decode.record(1_000);
        decode.record(2_000);
        m.merge_decode_hist(&decode);
        let mut series = Histogram::new();
        series.record(5_000);
        m.merge_series_hist(&series);
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
        assert_eq!(
            s.store,
            StoreStats {
                hits: 7,
                misses: 2,
                bypasses: 1,
                inserts: 2,
                evictions: 1,
                snapshot_bytes_written: 100,
                snapshot_bytes_read: 80,
                snapshot_save_nanos: 11,
                snapshot_load_nanos: 9,
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
                        m.add_traceroutes_ingested(1);
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
        m.add_traceroutes_ingested(1);
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
            "store",
            "hits",
            "misses",
            "bypasses",
            "inserts",
            "evictions",
            "snapshot_bytes_written",
            "snapshot_bytes_read",
            "snapshot_save_nanos",
            "snapshot_load_nanos",
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
