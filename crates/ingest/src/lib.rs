//! # lastmile-ingest
//!
//! Parallel, bounded-memory ingest of Atlas-format traceroute files: the
//! data plane between bytes on disk and the analysis pipelines.
//!
//! Real Atlas built-in dumps are tens of gigabytes per day of
//! newline-delimited documents with routine truncation and interleaved
//! garbage; the API's list form is one giant JSON array. Both must be
//! decoded without ever holding the whole file, fast enough that cold
//! runs are not bound by a single parsing core, and without letting one
//! poisoned record kill the run. This crate does exactly that, with one
//! framing loop feeding one pool of workers that each decode a record
//! and fold it into their own state:
//!
//! ```text
//!  workers ≥ 2:
//!  file ──► framing loop ──► bounded batch queue ──► N workers, each:
//!           (DocSplitter,        (backpressure)        decode (one pass,
//!            caller thread,                            serde for what it
//!            junk → quarantine)                        declines,
//!                                                      catch_unwind), then
//!                                                      fold into its own S
//!                     ┌────────────────────────────────────┘
//!                     ▼
//!           join: N states S (+ quarantine) ──► caller merges them once
//!
//!  workers ≤ 1 (inline):
//!  file ──► framing loop ──► decode each chunk's frames ──► fold into S
//!           (DocSplitter)     (same decode, catch_unwind)
//!           └──────────────── all on the caller thread ──────────────┘
//!
//!  `ingest_slice`: the caller's bytes ──► DocSplitter ──► decode each
//!  frame where it lies (no read chunk, no copy), on the caller thread
//! ```
//!
//! * **Rows**: the engine is generic over what a record decodes to (a
//!   [`Row`]): the full [`TracerouteResult`], or the [`LastMile`] row the
//!   analysis reads, which decodes without building hops. There is no
//!   result queue and no consumer thread: a record is folded (routed and
//!   binned, for the CLI's analysis) by the worker that decoded it, and
//!   freed there. [`fold_reader`] hands the caller one state per worker.
//! * **Framing** reuses [`lastmile_atlas::framing::DocSplitter`]: JSON
//!   Lines and top-level JSON arrays are split into record-aligned byte
//!   frames incrementally, so peak memory is bounded by the chunk size
//!   plus the queue — never by the file. Framing, decode and fold are
//!   timed apart in both modes, so `frame_nanos`, `decode_nanos` and
//!   `fold_nanos` compare across worker counts.
//! * **Decode** is [`lastmile_atlas::json::decode_traceroute`] or
//!   [`lastmile_atlas::json::decode_last_mile`]: one borrowed pass over
//!   the record bytes, with serde deciding only the records that pass
//!   declines, so quarantine kinds and details are serde's.
//!   [`IngestSummary::decode_fallbacks`] counts those records.
//! * **Backpressure**: the batch queue is a `sync_channel`. Slow workers
//!   stall the framer, which stops reading.
//! * **Determinism**: which worker folds which record varies with thread
//!   count and scheduling — by design. Every state in this workspace
//!   accumulates per-probe/per-bin multisets (min, max, medians, maps
//!   keyed by probe), which are order-independent reductions, so reports
//!   are byte-identical at any `threads` value. The CLI's end-to-end
//!   tests pin this.
//! * **Quarantine**: a malformed record is captured — offset, raw bytes,
//!   and a typed reason ([`QuarantineKind`]: framing / JSON / model
//!   conversion / worker panic) — not just counted, so `--quarantine`
//!   can reproduce the bad records for offline triage. A record that
//!   panics its decoder is caught by a per-record `catch_unwind` and
//!   quarantined like any other.
//!
//! [`ingest_file`] keeps the model-per-record interface over the same
//! engine: its workers fold batches of [`TracerouteResult`]s into one
//! bounded channel, and `on_record` runs on the caller's thread.

use lastmile_atlas::framing::{DocSplitter, Frame};
use lastmile_atlas::json::{
    decode_last_mile_tallied, decode_traceroute_tallied, DecodeError, DecodeErrorKind,
};
use lastmile_atlas::{LastMile, TracerouteResult};
use lastmile_obs::{trace, Gauge, Histogram, LiveProgress};
use std::io::Read;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Why a record was quarantined instead of delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineKind {
    /// The bytes could not be framed as a document (truncated final
    /// document, content after the top-level array close).
    Framing,
    /// The document is not valid JSON of the Atlas traceroute shape
    /// (includes invalid UTF-8).
    Json,
    /// Valid JSON that does not convert to the internal model (bad
    /// address, non-traceroute type).
    Model,
    /// Decoding the record panicked its worker; the panic was caught
    /// and isolated to this record.
    WorkerPanic,
}

impl QuarantineKind {
    /// Stable lower-case name, used in `--stats` JSON and the
    /// `--quarantine` dump.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineKind::Framing => "framing",
            QuarantineKind::Json => "json",
            QuarantineKind::Model => "model",
            QuarantineKind::WorkerPanic => "worker_panic",
        }
    }
}

/// One malformed record, captured for triage.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// Absolute byte offset of the record in the input.
    pub offset: u64,
    pub kind: QuarantineKind,
    /// Human-readable error detail.
    pub detail: String,
    /// The record's raw bytes.
    pub record: Vec<u8>,
}

/// What one ingest did: delivered/quarantined counts, bytes, timers.
#[derive(Debug, Default)]
pub struct IngestSummary {
    /// Records decoded and folded (or delivered).
    pub parsed: u64,
    /// Bytes read from the input.
    pub bytes_read: u64,
    /// Malformed records, sorted by byte offset.
    pub quarantined: Vec<Quarantined>,
    /// Nanoseconds the framing loop spent splitting (one thread;
    /// excludes IO, decode and queue blocking).
    pub frame_nanos: u64,
    /// Nanoseconds spent decoding, summed across workers.
    pub decode_nanos: u64,
    /// Nanoseconds spent folding decoded rows into the workers' states,
    /// summed across workers.
    pub fold_nanos: u64,
    /// Records the decoder's fast pass declined and handed to serde
    /// (quarantined ones included).
    pub decode_fallbacks: u64,
    /// Elapsed time of the whole ingest.
    pub wall_nanos: u64,
    /// Deepest the bounded batch queue got, in batches (0 when decoding
    /// inline, which has no queue). Pinned at `queue_batches` means the
    /// workers are the bottleneck; near zero means framing/IO is.
    pub queue_max_depth: u64,
    /// Per-record decode latency, collected only when
    /// [`IngestOptions::record_latency`] is set; empty otherwise.
    pub decode_hist: Histogram,
}

impl IngestSummary {
    /// Total quarantined records (the CLI's "skipped" count).
    pub fn skipped(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Quarantined records of one kind.
    pub fn quarantined_of(&self, kind: QuarantineKind) -> u64 {
        self.quarantined.iter().filter(|q| q.kind == kind).count() as u64
    }
}

/// Ingest tuning. Peak memory is bounded regardless of file size: every
/// in-flight batch pins the read-chunk buffer(s) its records point into
/// (records are `(chunk, range)` slices, not copies), so the worker
/// pool holds at most roughly `(queue_batches + threads + 1) ×
/// chunk_bytes` of input at once (11 × 64 KiB = 704 KiB at the
/// defaults on a two-core host); inline decode holds one chunk.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Workers; `0` (the default) means one per available core, as
    /// [`worker_count`] resolves it. A count that resolves to one or
    /// fewer (`1`, or `0` on a one-core host) decodes inline on the
    /// calling thread: there a worker would only add queue hand-offs on
    /// top of one core's parsing. At most [`MAX_WORKERS`].
    pub threads: usize,
    /// Records per batch handed to a worker.
    pub batch_records: usize,
    /// Bounded batch-queue capacity, in batches.
    pub queue_batches: usize,
    /// Read chunk size in bytes.
    pub chunk_bytes: usize,
    /// Collect a per-record decode-latency histogram into
    /// [`IngestSummary::decode_hist`]. Off by default: two clock reads
    /// per record are cheap but not free, and most runs only want the
    /// distribution when `--stats` asked for it.
    pub record_latency: bool,
    /// Live gauges for a `--progress` heartbeat: bytes read, records
    /// decoded, and batch-queue depth are updated *while the ingest
    /// runs* (the summary only lands when it returns).
    pub progress: Option<Arc<LiveProgress>>,
    /// Test hook: panic while decoding the record at this byte offset,
    /// exercising per-record panic isolation from integration tests.
    #[doc(hidden)]
    pub inject_panic_offset: Option<u64>,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            threads: 0,
            batch_records: 64,
            queue_batches: 8,
            chunk_bytes: 64 * 1024,
            record_latency: false,
            progress: None,
            inject_panic_offset: None,
        }
    }
}

/// The most workers a thread count may ask for. Far above any core
/// count this workspace runs on; a count past it is a mistyped flag,
/// refused before any thread starts.
pub const MAX_WORKERS: usize = 256;

/// The workers a `--threads`-style count asks for: itself, or for `0`
/// one per available core (4 when that is unknown). Both the ingest
/// pool and the survey executor resolve their counts here.
pub fn worker_count(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    }
}

/// What a framed record decodes to: the full model or the last-mile
/// row. Both decoders accept and reject the same records, with the same
/// quarantine kinds and details.
pub trait Row: Sized + Send {
    /// Decode one framed record, adding one to `fallbacks` when serde
    /// had to decide it.
    fn decode(bytes: &[u8], fallbacks: &mut u64) -> Result<Self, DecodeError>;
}

impl Row for TracerouteResult {
    fn decode(bytes: &[u8], fallbacks: &mut u64) -> Result<Self, DecodeError> {
        decode_traceroute_tallied(bytes, fallbacks)
    }
}

impl Row for LastMile {
    fn decode(bytes: &[u8], fallbacks: &mut u64) -> Result<Self, DecodeError> {
        decode_last_mile_tallied(bytes, fallbacks)
    }
}

/// Bytes of one framed record on its way to decode.
///
/// The framing loop reads each chunk into an `Arc<Vec<u8>>`; the
/// splitter's zero-copy contract (a document completing inside the fed
/// chunk is emitted as a subslice of it) lets the common case ride to
/// the decoder as a `(buffer, range)` pair sharing that chunk
/// allocation — no per-record copy. Only a record spanning a chunk
/// boundary (at most one per chunk) is copied out of the splitter's
/// carry buffer.
enum RecordBytes {
    /// A subslice of a shared chunk buffer (whole-chunk records).
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        len: usize,
    },
    /// An owned copy (records spanning a chunk boundary).
    Owned(Vec<u8>),
}

impl RecordBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            RecordBytes::Shared { buf, start, len } => &buf[*start..*start + *len],
            RecordBytes::Owned(v) => v,
        }
    }
}

/// Framed records, each with its byte offset.
type Batch = Vec<(u64, RecordBytes)>;

/// Ingest a traceroute file (JSON Lines or a top-level JSON array),
/// calling `on_record` on the caller's thread for each decoded record.
/// Delivery order is unspecified under more than one worker; see the
/// crate docs for why consumers stay deterministic anyway.
pub fn ingest_file(
    path: &str,
    options: &IngestOptions,
    on_record: impl FnMut(TracerouteResult),
) -> Result<IngestSummary, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    ingest_reader(file, options, on_record).map_err(|e| format!("{path}: {e}"))
}

/// [`ingest_file`] over any reader (the file-free entry point tests and
/// benchmarks use).
///
/// The engine runs on a scoped thread whose workers fold decoded records
/// into batches and send each full batch over one bounded channel; the
/// calling thread drains it into `on_record`, so memory stays bounded
/// and `on_record` needs no `Send`.
pub fn ingest_reader(
    reader: impl Read + Send,
    options: &IngestOptions,
    mut on_record: impl FnMut(TracerouteResult),
) -> Result<IngestSummary, String> {
    let batch_records = options.batch_records.max(1);
    let (tx, rx) = mpsc::sync_channel::<Vec<TracerouteResult>>(options.queue_batches.max(1));
    std::thread::scope(|scope| {
        let engine = std::thread::Builder::new()
            .name("ingest".into())
            .spawn_scoped(scope, move || {
                // A send fails only once the caller stopped draining,
                // which it does only by unwinding.
                let (summary, rest) = fold_reader(reader, options, Vec::new, |batch, tr| {
                    batch.push(tr);
                    if batch.len() >= batch_records {
                        let _ = tx.send(std::mem::take(batch));
                    }
                })?;
                for batch in rest.into_iter().filter(|b| !b.is_empty()) {
                    let _ = tx.send(batch);
                }
                Ok(summary)
            })
            .map_err(|e| format!("spawn ingest thread: {e}"))?;
        for batch in rx {
            batch.into_iter().for_each(&mut on_record);
        }
        engine
            .join()
            .unwrap_or_else(|payload| resume_unwind(payload))
    })
}

/// The engine: frame `reader` on the calling thread, decode each record
/// as `R` on [`IngestOptions::threads`] workers (or inline), and fold
/// each row into the state of the thread that decoded it. Returns one
/// state per worker, made by `init`, for the caller to merge; which
/// state a record lands in is unspecified.
///
/// A thread count above [`MAX_WORKERS`], or a worker that cannot be
/// spawned, is an error; no record is folded then.
pub fn fold_reader<R: Row, S: Send>(
    reader: impl Read,
    options: &IngestOptions,
    init: impl Fn() -> S + Sync,
    fold: impl Fn(&mut S, R) + Sync,
) -> Result<(IngestSummary, Vec<S>), String> {
    let _span = trace::span("ingest");
    let workers = worker_count(options.threads);
    if workers > MAX_WORKERS {
        return Err(format!(
            "{workers} ingest threads asked for; at most {MAX_WORKERS}"
        ));
    }
    if workers <= 1 {
        let mut state = init();
        let summary = fold_inline(reader, options, |_, _, row| fold(&mut state, row))?;
        Ok((summary, vec![state]))
    } else {
        fold_workers(reader, options, workers, init, fold)
    }
}

/// Incremental feed entry point for live intake: frame and decode one
/// standalone byte slice (an appended corpus delta or a `POST
/// /v1/traceroutes` body) with exactly the framing and quarantine
/// semantics of [`fold_reader`]. Each decoded row is delivered, in
/// input order, with its byte offset within the slice and its raw framed
/// bytes, so callers can spool accepted records verbatim. The slice is
/// framed in place, as one chunk: a record is decoded from the caller's
/// bytes, never copied into a read buffer (only a last line with no
/// newline passes through the splitter's carry). Decoded inline — live
/// intake slices are small, and the worker pool's spawn cost would
/// dominate. Returns the quarantined records, sorted by offset.
pub fn ingest_slice<R: Row>(
    bytes: &[u8],
    mut on_record: impl FnMut(u64, &[u8], R),
) -> Vec<Quarantined> {
    let _span = trace::span("ingest_slice");
    let options = IngestOptions::default();
    let mut tally = Tally::default();
    let mut emit = |frame: Frame<'_>| match frame {
        Frame::Doc { offset, bytes } => match decode_record(offset, bytes, &options, &mut tally) {
            Ok(row) => on_record(offset, bytes, row),
            Err(q) => tally.quarantined.push(q),
        },
        Frame::Junk {
            offset,
            bytes,
            reason,
        } => tally.quarantined.push(framing_junk(offset, bytes, reason)),
    };
    let mut splitter = DocSplitter::new();
    splitter.feed(bytes, &mut emit);
    splitter.finish(&mut emit);
    tally.quarantined.sort_by_key(|q| q.offset);
    tally.quarantined
}

/// The quarantine record of bytes the splitter could not frame.
fn framing_junk(offset: u64, bytes: &[u8], reason: &str) -> Quarantined {
    Quarantined {
        offset,
        kind: QuarantineKind::Framing,
        detail: reason.to_string(),
        record: bytes.to_vec(),
    }
}

/// The message of a caught panic's payload: its `&str` or `String`, or
/// a placeholder for any other payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// What one decoding thread tallies besides its rows: counts, timers,
/// its quarantine, the latency histogram (only when
/// [`IngestOptions::record_latency`] asks for it) and the fast-pass
/// fallbacks.
#[derive(Default)]
struct Tally {
    parsed: u64,
    decode_nanos: u64,
    fold_nanos: u64,
    fallbacks: u64,
    hist: Histogram,
    quarantined: Vec<Quarantined>,
}

impl Tally {
    /// Add `other`'s counts and quarantine to this tally.
    fn merge(&mut self, other: Tally) {
        self.parsed += other.parsed;
        self.decode_nanos += other.decode_nanos;
        self.fold_nanos += other.fold_nanos;
        self.fallbacks += other.fallbacks;
        self.hist.merge(&other.hist);
        self.quarantined.extend(other.quarantined);
    }

    /// Decode `docs` into `rows` (offset, raw index, row), quarantining
    /// what fails, timed as decode.
    fn decode<R: Row>(
        &mut self,
        docs: &[(u64, RecordBytes)],
        options: &IngestOptions,
        rows: &mut Vec<(usize, R)>,
    ) {
        if docs.is_empty() {
            return;
        }
        let _span = trace::span_with("decode_batch", |a| {
            a.u64("records", docs.len() as u64);
        });
        let t = Instant::now();
        for (i, (offset, bytes)) in docs.iter().enumerate() {
            match decode_record(*offset, bytes.as_slice(), options, self) {
                Ok(row) => rows.push((i, row)),
                Err(q) => self.quarantined.push(q),
            }
        }
        self.decode_nanos += elapsed_nanos(t);
        self.parsed += rows.len() as u64;
        if let Some(p) = &options.progress {
            p.records.fetch_add(rows.len() as u64, Ordering::Relaxed);
        }
    }

    /// Summarize this tally with the framing loop's numbers.
    fn into_summary(mut self, framed: Framed, wall: Instant) -> IngestSummary {
        self.quarantined.sort_by_key(|q| q.offset);
        IngestSummary {
            parsed: self.parsed,
            bytes_read: framed.bytes_read,
            quarantined: self.quarantined,
            frame_nanos: framed.frame_nanos,
            decode_nanos: self.decode_nanos,
            fold_nanos: self.fold_nanos,
            decode_fallbacks: self.fallbacks,
            wall_nanos: elapsed_nanos(wall),
            queue_max_depth: 0,
            decode_hist: self.hist,
        }
    }
}

/// Decode one framed record; quarantines never escape as panics.
fn decode_record<R: Row>(
    offset: u64,
    bytes: &[u8],
    options: &IngestOptions,
    tally: &mut Tally,
) -> Result<R, Quarantined> {
    let t = options.record_latency.then(Instant::now);
    let quarantine = |kind: QuarantineKind, detail: String| Quarantined {
        offset,
        kind,
        detail,
        record: bytes.to_vec(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if options.inject_panic_offset == Some(offset) {
            panic!("injected ingest panic at byte {offset}");
        }
        R::decode(bytes, &mut tally.fallbacks)
    }));
    if let Some(t) = t {
        tally.hist.record(elapsed_nanos(t));
    }
    match outcome {
        Ok(Ok(row)) => Ok(row),
        Ok(Err(e)) => Err(quarantine(
            match e.kind {
                DecodeErrorKind::Json => QuarantineKind::Json,
                DecodeErrorKind::Model => QuarantineKind::Model,
            },
            e.detail,
        )),
        Err(payload) => Err(quarantine(
            QuarantineKind::WorkerPanic,
            panic_message(payload.as_ref()),
        )),
    }
}

/// What one framing loop read and how long it spent splitting.
#[derive(Default)]
struct Framed {
    bytes_read: u64,
    frame_nanos: u64,
}

/// The one framing loop: read a chunk, split it into documents and junk
/// with a [`DocSplitter`], and hand both to `sink`, which drains what it
/// takes. Only the split is timed as framing — whatever the sink does (a
/// queue send blocked by backpressure, an inline decode) is not.
fn frame_loop(
    mut reader: impl Read,
    options: &IngestOptions,
    mut sink: impl FnMut(&mut Batch, &mut Vec<Quarantined>),
) -> Result<Framed, String> {
    let mut framed = Framed::default();
    let mut splitter = DocSplitter::new();
    let mut docs: Batch = Vec::new();
    let mut junk: Vec<Quarantined> = Vec::new();
    loop {
        // Each chunk gets its own shared allocation: frames reference it
        // until their records are decoded, so it cannot be a reused
        // buffer.
        let mut buf = vec![0u8; options.chunk_bytes.max(1)];
        let n = reader.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        buf.truncate(n);
        let chunk = Arc::new(buf);
        framed.bytes_read += n as u64;
        if let Some(p) = &options.progress {
            p.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        }
        let t = Instant::now();
        // The splitter's zero-copy contract: a document completing inside
        // the fed chunk is emitted as a subslice of it. The pointer-range
        // test tells those apart from carry-buffer frames exactly.
        let base = chunk.as_ptr() as usize;
        let mut handle = |frame: Frame<'_>| match frame {
            Frame::Doc { offset, bytes } => {
                let p = bytes.as_ptr() as usize;
                let rec = if p >= base && p + bytes.len() <= base + chunk.len() {
                    RecordBytes::Shared {
                        buf: Arc::clone(&chunk),
                        start: p - base,
                        len: bytes.len(),
                    }
                } else {
                    RecordBytes::Owned(bytes.to_vec())
                };
                docs.push((offset, rec));
            }
            Frame::Junk {
                offset,
                bytes,
                reason,
            } => junk.push(framing_junk(offset, bytes, reason)),
        };
        if n == 0 {
            std::mem::take(&mut splitter).finish(&mut handle);
        } else {
            splitter.feed(&chunk, &mut handle);
        }
        framed.frame_nanos += elapsed_nanos(t);
        sink(&mut docs, &mut junk);
        if n == 0 {
            return Ok(framed);
        }
    }
}

/// Inline decode: the framing loop's sink decodes each chunk's documents
/// on the calling thread, then hands each row to `on_row` with its
/// offset and raw framed bytes, in input order. Decode is timed apart
/// from framing and from `on_row` (the fold).
fn fold_inline<R: Row>(
    reader: impl Read,
    options: &IngestOptions,
    mut on_row: impl FnMut(u64, &[u8], R),
) -> Result<IngestSummary, String> {
    let wall = Instant::now();
    let mut tally = Tally::default();
    let mut rows = Vec::new();
    let framed = frame_loop(reader, options, |docs, junk| {
        tally.decode(docs, options, &mut rows);
        let t = Instant::now();
        for (i, row) in rows.drain(..) {
            let (offset, bytes) = &docs[i];
            on_row(*offset, bytes.as_slice(), row);
        }
        tally.fold_nanos += elapsed_nanos(t);
        docs.clear();
        tally.quarantined.append(junk);
    })?;
    Ok(tally.into_summary(framed, wall))
}

/// The worker pool: `workers` scoped workers each take batches off the
/// bounded queue, decode them and fold the rows into their own state,
/// while the calling thread runs the framing loop and fills the queue.
fn fold_workers<R: Row, S: Send>(
    reader: impl Read,
    options: &IngestOptions,
    workers: usize,
    init: impl Fn() -> S + Sync,
    fold: impl Fn(&mut S, R) + Sync,
) -> Result<(IngestSummary, Vec<S>), String> {
    let wall = Instant::now();
    let batch_records = options.batch_records.max(1);
    let (batch_tx, batch_rx) = mpsc::sync_channel::<Batch>(options.queue_batches.max(1));
    let batch_queue = Mutex::new(batch_rx);
    // Batch-queue depth: pushed by the framer, popped by workers.
    let queue_depth = Gauge::default();

    std::thread::scope(|scope| {
        let (init, fold, queue_depth) = (&init, &fold, &queue_depth);
        let batch_queue = &batch_queue;
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let spawned = std::thread::Builder::new()
                .name(format!("ingest-parse-{worker}"))
                .spawn_scoped(scope, move || {
                    let mut state = init();
                    let mut tally = Tally::default();
                    let mut rows = Vec::new();
                    // A fold that panics stops folding, but the worker
                    // keeps draining batches, so the framer never blocks
                    // on a queue nobody reads; the panic resumes at join.
                    let mut failed = None;
                    loop {
                        // Blocking recv under the lock: the holder waits
                        // for a batch while the other workers wait for the
                        // lock, which hands batches to exactly one worker
                        // each. The guard drops at the end of this
                        // statement, before the batch is decoded.
                        let received = batch_queue.lock().expect("batch queue lock").recv();
                        let Ok(batch) = received else {
                            break;
                        };
                        queue_depth.dec();
                        if let Some(p) = &options.progress {
                            p.queue_pop();
                        }
                        tally.decode(&batch, options, &mut rows);
                        let t = Instant::now();
                        if failed.is_none() {
                            let folded = catch_unwind(AssertUnwindSafe(|| {
                                for (_, row) in rows.drain(..) {
                                    fold(&mut state, row);
                                }
                            }));
                            failed = folded.err();
                        }
                        rows.clear();
                        tally.fold_nanos += elapsed_nanos(t);
                    }
                    match failed {
                        Some(payload) => resume_unwind(payload),
                        None => (state, tally),
                    }
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Hanging up the queue ends the workers already
                    // spawned; the scope joins them.
                    drop(batch_tx);
                    return Err(format!("spawn ingest worker {worker}: {e}"));
                }
            }
        }

        // The framer, on this thread: batch the documents for the
        // workers. Count a batch before sending it: a worker can take it
        // and count the pop before `send` returns, and the gauges'
        // saturating pop would then leave them one high for good.
        let push_batch = |b: Batch| {
            queue_depth.inc();
            if let Some(p) = &options.progress {
                p.queue_push();
            }
            // Fails only once every worker is gone, which happens only
            // by unwinding: the join below resumes the panic.
            if batch_tx.send(b).is_err() {
                queue_depth.dec();
                if let Some(p) = &options.progress {
                    p.queue_pop();
                }
            }
        };
        let mut framer_tally = Tally::default();
        let mut batch: Batch = Vec::with_capacity(batch_records);
        let framed = frame_loop(reader, options, |docs, junk| {
            for doc in docs.drain(..) {
                batch.push(doc);
                if batch.len() >= batch_records {
                    push_batch(std::mem::replace(
                        &mut batch,
                        Vec::with_capacity(batch_records),
                    ));
                }
            }
            framer_tally.quarantined.append(junk);
        });
        if !batch.is_empty() {
            push_batch(batch);
        }
        // Hanging up lets the workers drain the queue and finish.
        drop(batch_tx);
        let mut states = Vec::with_capacity(workers);
        for handle in handles {
            let (state, tally) = handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            states.push(state);
            framer_tally.merge(tally);
        }
        let mut summary = framer_tally.into_summary(framed?, wall);
        summary.queue_max_depth = queue_depth.high_water();
        Ok((summary, states))
    })
}

fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_atlas::json::to_atlas_json;
    use lastmile_atlas::{Hop, ProbeId, Reply};
    use lastmile_timebase::UnixTime;
    use std::collections::BTreeMap;
    use std::io::Cursor;

    fn tr(probe: u32, ts: i64) -> TracerouteResult {
        TracerouteResult {
            probe: ProbeId(probe),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(ts),
            dst: "20.9.9.9".parse().unwrap(),
            src: "192.168.1.10".parse().unwrap(),
            hops: vec![Hop {
                hop: 1,
                replies: vec![Reply::answered("192.168.1.1".parse().unwrap(), 1.25)],
            }],
        }
    }

    fn tr_json(probe: u32, ts: i64) -> String {
        to_atlas_json(&tr(probe, ts), "20.0.0.1".parse().unwrap())
    }

    /// A multiset fingerprint of delivered records: order-independent,
    /// so inline and worker-pipeline ingests must agree exactly.
    fn fingerprint(
        options: &IngestOptions,
        input: &[u8],
    ) -> (BTreeMap<(u32, i64), u64>, IngestSummary) {
        let mut seen: BTreeMap<(u32, i64), u64> = BTreeMap::new();
        let summary = ingest_reader(Cursor::new(input.to_vec()), options, |tr| {
            *seen
                .entry((tr.probe.0, tr.timestamp.as_secs()))
                .or_default() += 1;
        })
        .unwrap();
        (seen, summary)
    }

    fn lines_input(n: u32) -> Vec<u8> {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&tr_json(i, 1000 + i64::from(i)));
            s.push('\n');
        }
        s.into_bytes()
    }

    fn array_input(n: u32) -> Vec<u8> {
        let docs: Vec<String> = (0..n).map(|i| tr_json(i, 1000 + i64::from(i))).collect();
        format!("[{}]", docs.join(",")).into_bytes()
    }

    #[test]
    fn ingest_slice_delivers_raw_bytes_and_matches_reader_semantics() {
        let input = lines_input(5);
        let mut records: Vec<(u64, Vec<u8>, u32)> = Vec::new();
        let quarantined = ingest_slice(&input, |offset, raw, tr: TracerouteResult| {
            records.push((offset, raw.to_vec(), tr.probe.0));
        });
        assert!(quarantined.is_empty());
        assert_eq!(records.len(), 5);
        for (i, (offset, raw, probe)) in records.iter().enumerate() {
            assert_eq!(*probe, i as u32);
            // The raw frame is the exact source line at its offset —
            // the spool can replay it verbatim.
            let end = *offset as usize + raw.len();
            assert_eq!(&input[*offset as usize..end], &raw[..]);
            assert_eq!(raw.first(), Some(&b'{'));
        }
        // The same inline loop over small read chunks hands over the
        // same frames: records spanning a chunk boundary come out of the
        // splitter's carry buffer byte for byte.
        let mut chunked: Vec<(u64, Vec<u8>, u32)> = Vec::new();
        let options = IngestOptions {
            chunk_bytes: 97,
            ..IngestOptions::default()
        };
        fold_inline(&input[..], &options, |offset, raw, tr: TracerouteResult| {
            chunked.push((offset, raw.to_vec(), tr.probe.0));
        })
        .unwrap();
        assert_eq!(chunked, records);
        // A top-level array frames too (same DocSplitter).
        let mut n = 0;
        assert!(ingest_slice(&array_input(3), |_, _, _: LastMile| n += 1).is_empty());
        assert_eq!(n, 3);
    }

    #[test]
    fn ingest_slice_frames_in_place_as_a_chunked_read_does() {
        // Junk lines among records and a last record with no newline;
        // then an array with content after its close (framing junk).
        let mut lines = Vec::new();
        for (i, junk) in ["not json at all", "{\"not\":\"atlas\"}", ""]
            .iter()
            .enumerate()
        {
            lines.extend_from_slice(tr_json(i as u32, 1000 + i as i64).as_bytes());
            lines.extend_from_slice(format!("\n{junk}\n").as_bytes());
        }
        lines.extend_from_slice(tr_json(9, 2000).as_bytes());
        let mut array = array_input(4);
        array.extend_from_slice(b" trailing");
        for body in [lines, array] {
            let mut rows: Vec<(u64, Vec<u8>, LastMile)> = Vec::new();
            let quarantined = ingest_slice(&body, |offset, raw, row: LastMile| {
                rows.push((offset, raw.to_vec(), row))
            });
            let (summary, folds) = fold_reader(
                &body[..],
                &IngestOptions {
                    threads: 1,
                    chunk_bytes: 97,
                    ..IngestOptions::default()
                },
                Vec::new,
                |seen: &mut Vec<LastMile>, row| seen.push(row),
            )
            .unwrap();
            let read: Vec<LastMile> = folds.into_iter().flatten().collect();
            let sliced: Vec<LastMile> = rows.iter().map(|(_, _, row)| row.clone()).collect();
            assert_eq!(sliced, read);
            assert!(read.len() >= 4, "{} rows", read.len());
            for (offset, raw, _) in &rows {
                assert_eq!(
                    &body[*offset as usize..*offset as usize + raw.len()],
                    &raw[..]
                );
            }
            let triage = |q: &[Quarantined]| -> Vec<(u64, &'static str, String, Vec<u8>)> {
                q.iter()
                    .map(|q| (q.offset, q.kind.name(), q.detail.clone(), q.record.clone()))
                    .collect()
            };
            assert_eq!(triage(&quarantined), triage(&summary.quarantined));
            assert!(!quarantined.is_empty());
        }
    }

    #[test]
    fn ingest_slice_quarantines_with_file_taxonomy() {
        let mut input = Vec::new();
        input.extend_from_slice(tr_json(1, 1000).as_bytes());
        input.push(b'\n');
        input.extend_from_slice(b"{\"not\":\"atlas\"}\n");
        input.extend_from_slice(b"not json at all\n");
        input.extend_from_slice(tr_json(2, 1001).as_bytes());
        input.push(b'\n');
        let mut accepted = 0;
        let quarantined = ingest_slice(&input, |_, _, _: LastMile| accepted += 1);
        assert_eq!(accepted, 2);
        assert_eq!(quarantined.len(), 2);
        // Sorted by offset; kinds match the batch ingest taxonomy.
        assert!(quarantined.windows(2).all(|w| w[0].offset <= w[1].offset));
        let kinds: Vec<&str> = quarantined.iter().map(|q| q.kind.name()).collect();
        assert_eq!(kinds, vec!["json", "json"]);
        // A reader-based ingest over the same bytes agrees on counts.
        let mut reader_accepted = 0;
        let summary = ingest_reader(
            Cursor::new(input.clone()),
            &IngestOptions {
                threads: 1,
                ..IngestOptions::default()
            },
            |_| reader_accepted += 1,
        )
        .unwrap();
        assert_eq!(reader_accepted, accepted);
        assert_eq!(summary.quarantined.len(), quarantined.len());
        for (a, b) in summary.quarantined.iter().zip(&quarantined) {
            assert_eq!((a.offset, a.kind), (b.offset, b.kind));
            assert_eq!(a.record, b.record);
        }
    }

    /// A record nested far past any parser's recursion limit: 100,000
    /// arrays deep, about 200 KB on one line.
    fn deep_record() -> Vec<u8> {
        let depth = 100_000;
        format!("{{\"deep\":{}{}}}", "[".repeat(depth), "]".repeat(depth)).into_bytes()
    }

    #[test]
    fn deeply_nested_record_is_quarantined_not_fatal() {
        // Overflowing the stack aborts the process, which no test
        // harness survives: the body runs in a child test process and
        // the parent checks how it exited.
        const CHILD: &str = "LASTMILE_INGEST_DEEP_CHILD";
        if std::env::var_os(CHILD).is_none() {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "tests::deeply_nested_record_is_quarantined_not_fatal",
                    "--exact",
                    "--nocapture",
                ])
                .env(CHILD, "1")
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "child test died ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        let mut input = Vec::new();
        input.extend_from_slice(tr_json(1, 1000).as_bytes());
        input.push(b'\n');
        let deep_offset = input.len() as u64;
        input.extend_from_slice(&deep_record());
        input.push(b'\n');
        input.extend_from_slice(tr_json(2, 1001).as_bytes());
        input.push(b'\n');
        let mut probes = Vec::new();
        let quarantined = ingest_slice(&input, |_, _, row: LastMile| probes.push(row.probe.0));
        assert_eq!(probes, vec![1, 2], "neighbours delivered");
        assert_eq!(quarantined.len(), 1);
        let q = &quarantined[0];
        assert_eq!((q.offset, q.kind), (deep_offset, QuarantineKind::Json));
        assert!(
            q.detail.contains("recursion limit exceeded"),
            "{}",
            q.detail
        );
        // The worker pipeline quarantines it the same way.
        let (seen, summary) = fingerprint(
            &IngestOptions {
                threads: 2,
                ..IngestOptions::default()
            },
            &input,
        );
        assert_eq!(seen.len(), 2);
        assert_eq!(summary.quarantined_of(QuarantineKind::Json), 1);
    }

    #[test]
    fn fallbacks_count_the_records_the_fast_pass_declined() {
        // Canonical records take the fast pass; an escaped string, a
        // duplicate key and two malformed records go to serde.
        let good = tr_json(1, 1000);
        let escaped = good.replace("\"ICMP\"", "\"IC\\u004dP\"");
        let duplicate = good.replace("\"fw\":5080", "\"fw\":5080,\"fw\":1");
        let model_bad = good.replace("traceroute", "ping");
        let input = format!("{good}\n{escaped}\n{duplicate}\nnot json\n{model_bad}\n{good}\n");
        for threads in [1, 2] {
            let options = IngestOptions {
                threads,
                ..IngestOptions::default()
            };
            let (seen, summary) = fingerprint(&options, input.as_bytes());
            assert_eq!(summary.parsed, 4, "threads={threads}");
            assert_eq!(seen.values().sum::<u64>(), 4);
            assert_eq!(summary.skipped(), 2);
            assert_eq!(summary.decode_fallbacks, 4, "threads={threads}");
            let (_, clean) = fingerprint(&options, &lines_input(50));
            assert_eq!(clean.decode_fallbacks, 0, "threads={threads}");
        }
    }

    #[test]
    fn inline_and_workers_agree_on_lines_and_array() {
        for input in [lines_input(100), array_input(100)] {
            let inline = fingerprint(
                &IngestOptions {
                    threads: 1,
                    ..IngestOptions::default()
                },
                &input,
            );
            for threads in [1, 2, 4] {
                let chunked = fingerprint(
                    &IngestOptions {
                        threads,
                        chunk_bytes: 97, // force documents across chunk boundaries
                        ..IngestOptions::default()
                    },
                    &input,
                );
                assert_eq!(inline.0, chunked.0, "threads={threads}");
                assert_eq!(inline.1.parsed, chunked.1.parsed);
                assert_eq!(inline.1.bytes_read, chunked.1.bytes_read);
                assert_eq!(inline.1.skipped(), chunked.1.skipped());
            }
        }
    }

    #[test]
    fn array_larger_than_the_bounded_queues_streams_through() {
        // 500 records but the pipeline may only ever hold 2 batches of 4
        // in the queue (plus one in each of 2 workers): completion
        // proves the framer streams under backpressure instead of
        // buffering the array.
        let input = array_input(500);
        let queue_capacity_records = 2 * 4;
        assert!(input.len() > 50 * queue_capacity_records);
        let (seen, summary) = fingerprint(
            &IngestOptions {
                threads: 2,
                batch_records: 4,
                queue_batches: 2,
                chunk_bytes: 512,
                ..IngestOptions::default()
            },
            &input,
        );
        assert_eq!(summary.parsed, 500);
        assert_eq!(summary.bytes_read as usize, input.len());
        assert_eq!(seen.len(), 500);
        assert!(summary.quarantined.is_empty());
    }

    #[test]
    fn quarantine_taxonomy_is_typed_with_offsets() {
        let good = tr_json(1, 1000);
        let model_bad = good.replace("traceroute", "ping");
        let input = format!("{good}\nnot-json\n{model_bad}\n{good}\n");
        for options in [
            IngestOptions {
                threads: 1,
                ..IngestOptions::default()
            },
            IngestOptions {
                threads: 3,
                ..IngestOptions::default()
            },
        ] {
            let (_, summary) = fingerprint(&options, input.as_bytes());
            assert_eq!(summary.parsed, 2);
            assert_eq!(summary.skipped(), 2);
            assert_eq!(summary.quarantined_of(QuarantineKind::Json), 1);
            assert_eq!(summary.quarantined_of(QuarantineKind::Model), 1);
            // Sorted by offset, with the raw bytes captured.
            let q = &summary.quarantined;
            assert!(q[0].offset < q[1].offset);
            assert_eq!(q[0].record, b"not-json");
            assert_eq!(q[0].offset as usize, good.len() + 1);
            assert!(String::from_utf8_lossy(&q[1].record).contains("ping"));
        }
    }

    #[test]
    fn truncated_array_tail_is_framing_quarantine() {
        let good = tr_json(1, 1000);
        let input = format!("[{good},{}", &good[..30]);
        let (_, summary) = fingerprint(&IngestOptions::default(), input.as_bytes());
        assert_eq!(summary.parsed, 1);
        assert_eq!(summary.quarantined_of(QuarantineKind::Framing), 1);
        assert!(summary.quarantined[0].detail.contains("truncated"));
    }

    #[test]
    fn worker_panic_is_isolated_to_the_record() {
        let input = lines_input(10);
        // Panic on the third record (offset = 2 lines in).
        let line_len = tr_json(0, 1000).len() + 1;
        let panic_offset = (2 * line_len) as u64;
        for threads in [1, 2] {
            let options = IngestOptions {
                threads,
                inject_panic_offset: Some(panic_offset),
                ..IngestOptions::default()
            };
            let (_, summary) = fingerprint(&options, &input);
            assert_eq!(summary.parsed, 9, "threads={threads}");
            assert_eq!(summary.quarantined_of(QuarantineKind::WorkerPanic), 1);
            let q = &summary.quarantined[0];
            assert_eq!(q.offset, panic_offset);
            assert!(q.detail.contains("injected"), "{}", q.detail);
        }
    }

    #[test]
    fn empty_and_whitespace_inputs_are_clean() {
        for input in [&b""[..], b"  \n \n", b"[]"] {
            let (seen, summary) = fingerprint(&IngestOptions::default(), input);
            assert!(seen.is_empty());
            assert_eq!(summary.parsed, 0);
            assert!(summary.quarantined.is_empty());
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let err =
            ingest_file("/does/not/exist.jsonl", &IngestOptions::default(), |_| {}).unwrap_err();
        assert!(err.contains("/does/not/exist.jsonl"), "{err}");
    }

    #[test]
    fn zero_threads_resolve_to_the_cores_and_counts_are_bounded() {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        assert_eq!(worker_count(0), cores);
        for n in [1, 2, 3, MAX_WORKERS, MAX_WORKERS + 1] {
            assert_eq!(worker_count(n), n);
        }
        // A count past the ceiling fails before any thread starts: the
        // reader is never read.
        struct Untouched;
        impl Read for Untouched {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                panic!("read before the thread count was checked");
            }
        }
        let options = IngestOptions {
            threads: MAX_WORKERS + 1,
            ..IngestOptions::default()
        };
        let err = fold_reader(Untouched, &options, || (), |_, _: LastMile| {}).unwrap_err();
        assert!(err.contains(&MAX_WORKERS.to_string()), "{err}");
    }

    #[test]
    fn workers_fold_last_mile_rows_into_their_own_states() {
        // Each worker's state is a per-probe count; merged, they equal
        // the inline run's one state, whatever the split.
        let input = lines_input(300);
        let count = |threads| {
            let options = IngestOptions {
                threads,
                batch_records: 7,
                ..IngestOptions::default()
            };
            let (summary, states) = fold_reader(
                Cursor::new(input.clone()),
                &options,
                BTreeMap::<u32, u64>::new,
                |seen, row: LastMile| *seen.entry(row.probe.0).or_default() += 1,
            )
            .unwrap();
            let mut merged = BTreeMap::new();
            for state in &states {
                for (probe, n) in state {
                    *merged.entry(*probe).or_insert(0) += n;
                }
            }
            (summary.parsed, states.len(), merged)
        };
        let (parsed, states, inline) = count(1);
        assert_eq!((parsed, states, inline.len()), (300, 1, 300));
        for threads in [2, 3] {
            let (parsed, states, merged) = count(threads);
            assert_eq!((parsed, states), (300, threads), "threads={threads}");
            assert_eq!(merged, inline, "threads={threads}");
        }
    }

    #[test]
    fn inline_decode_is_timed_apart_from_framing() {
        let options = IngestOptions {
            threads: 1,
            chunk_bytes: 512,
            record_latency: true,
            ..IngestOptions::default()
        };
        let input = lines_input(200);
        let (summary, _) = fold_reader(
            Cursor::new(input),
            &options,
            Vec::new,
            |rows, row: LastMile| rows.push(row),
        )
        .unwrap();
        assert_eq!(summary.parsed, 200);
        assert!(summary.frame_nanos > 0 && summary.decode_nanos > 0 && summary.fold_nanos > 0);
        assert!(
            summary.frame_nanos + summary.decode_nanos + summary.fold_nanos <= summary.wall_nanos,
            "frame {} + decode {} + fold {} > wall {}",
            summary.frame_nanos,
            summary.decode_nanos,
            summary.fold_nanos,
            summary.wall_nanos
        );
        assert!(summary.decode_hist.sum() <= summary.decode_nanos);
        assert_eq!(summary.queue_max_depth, 0, "inline decode has no queue");
    }

    #[test]
    fn latency_and_progress_gauges_are_collected_when_asked() {
        let input = lines_input(100);
        for threads in [1, 2] {
            let options = IngestOptions {
                threads,
                batch_records: 4,
                record_latency: true,
                progress: Some(Arc::new(LiveProgress::default())),
                ..IngestOptions::default()
            };
            let progress = options.progress.clone().unwrap();
            let (_, summary) = fingerprint(&options, &input);
            assert_eq!(summary.decode_hist.count(), 100, "threads={threads}");
            assert!(summary.decode_hist.max() > 0);
            assert_eq!(
                progress.bytes_read.load(Ordering::Relaxed) as usize,
                input.len()
            );
            assert_eq!(progress.records.load(Ordering::Relaxed), 100);
            assert_eq!(
                progress.queue_depth.load(Ordering::Relaxed),
                0,
                "queue fully drained"
            );
            if threads == 1 {
                assert_eq!(summary.queue_max_depth, 0, "inline decode has no queue");
            } else {
                assert!(summary.queue_max_depth > 0, "queue gauge never moved");
            }
        }
        // Latency collection is opt-in: off by default.
        let (_, summary) = fingerprint(&IngestOptions::default(), &input);
        assert_eq!(summary.decode_hist.count(), 0);
    }

    #[test]
    fn timers_and_throughput_inputs_are_populated() {
        let input = lines_input(50);
        let (_, summary) = fingerprint(&IngestOptions::default(), &input);
        assert!(summary.wall_nanos > 0);
        assert_eq!(summary.bytes_read as usize, input.len());
    }
}
