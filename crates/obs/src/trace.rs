//! Hand-rolled span tracing: per-thread ring buffers of begin / end /
//! instant events, drained — incrementally while the process runs, and
//! once more at exit — into Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`).
//!
//! # Design
//!
//! A [`Tracer`] owns a registry of per-thread [`ThreadBuffer`]s. Each
//! buffer is a fixed-capacity single-producer ring: only its owning
//! thread writes events (an index cached in thread-local storage finds
//! the buffer without touching the registry lock after the first event),
//! so recording is one monotonic clock read, one uncontended slot lock,
//! and a relaxed/release index bump — no allocation beyond the event's
//! args. When a ring wraps, the *oldest* undrained events are
//! overwritten and counted as dropped; the drain re-balances begin/end
//! pairs so a wrapped trace still loads.
//!
//! # Zero cost when disabled
//!
//! Nothing here runs unless a tracer is installed. Call sites go through
//! the free functions ([`span`], [`span_with`], [`instant_with`]), which
//! check one relaxed atomic and return `None` when tracing is off — the
//! argument-building closures are never invoked. The `disabled-path`
//! test below pins this to nanoseconds per call.
//!
//! # Incremental drain
//!
//! Each buffer carries a drain cursor; [`TraceSink`] consumes the events
//! recorded since the previous drain and appends them to its writer,
//! keeping per-thread begin/end depth across chunks so the finished file
//! always has matched pairs. [`TraceStream`] runs that drain on a
//! background thread every few hundred milliseconds, so a long-running
//! process (the `serve` daemon, a survey over a big corpus) persists its
//! spans as it goes instead of losing the oldest to ring wrap-around at
//! exit. Slot-level locks make the drain safe against threads that are
//! still recording; [`Tracer::drain_chrome_json`] remains the one-shot
//! form (header + everything undrained + footer) for short runs and
//! tests.

use crate::Ticker;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Events each thread's ring can hold before the oldest are overwritten.
pub const DEFAULT_THREAD_CAPACITY: usize = 64 * 1024;

/// A typed span/instant argument (rendered into the trace's `args`).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

/// Arguments attached to an event, built only when tracing is enabled.
#[derive(Debug, Default)]
pub struct ArgSet(Vec<(&'static str, ArgValue)>);

impl ArgSet {
    pub fn u64(&mut self, key: &'static str, v: u64) -> &mut Self {
        self.0.push((key, ArgValue::U64(v)));
        self
    }
    pub fn i64(&mut self, key: &'static str, v: i64) -> &mut Self {
        self.0.push((key, ArgValue::I64(v)));
        self
    }
    pub fn f64(&mut self, key: &'static str, v: f64) -> &mut Self {
        self.0.push((key, ArgValue::F64(v)));
        self
    }
    pub fn str(&mut self, key: &'static str, v: impl Into<String>) -> &mut Self {
        self.0.push((key, ArgValue::Str(v.into())));
        self
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    Begin,
    End,
    Instant,
}

#[derive(Clone, Debug)]
struct Event {
    kind: EventKind,
    name: &'static str,
    nanos: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// One thread's event ring. Single producer (the owning thread);
/// drained by a [`TraceSink`] — possibly while the owner still records,
/// which the per-slot locks make safe.
struct ThreadBuffer {
    tid: u64,
    name: String,
    /// Slot locks are uncontended except in the instant a drain passes
    /// the owner's write position, so a push pays one CAS.
    slots: Box<[Mutex<Option<Event>>]>,
    /// Total events ever written; `head - drained > capacity` means the
    /// ring wrapped over undrained events, which are lost.
    head: AtomicU64,
    /// Total events consumed by drains. Written only under the tracer's
    /// registry lock (one drainer at a time).
    drained: AtomicU64,
}

impl ThreadBuffer {
    fn new(tid: u64, name: String, capacity: usize) -> ThreadBuffer {
        ThreadBuffer {
            tid,
            name,
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Owning thread only.
    fn push(&self, event: Event) {
        let head = self.head.load(Ordering::Relaxed);
        *self.slots[(head % self.slots.len() as u64) as usize]
            .lock()
            .expect("trace slot lock") = Some(event);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Events recorded since the last drain, in write order, plus how
    /// many were lost to ring wrap-around since then. Advances the drain
    /// cursor. One drainer at a time (the registry lock serializes).
    fn drain_new(&self) -> (Vec<Event>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let drained = self.drained.load(Ordering::Relaxed);
        let start = drained.max(head.saturating_sub(cap));
        let newly_dropped = start - drained;
        let mut events = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            if let Some(e) = self.slots[(i % cap) as usize]
                .lock()
                .expect("trace slot lock")
                .as_ref()
            {
                events.push(e.clone());
            }
        }
        self.drained.store(head, Ordering::Relaxed);
        (events, newly_dropped)
    }
}

/// Distinguishes tracers in the thread-local buffer cache, so unit tests
/// with private tracers never cross wires with the installed global one.
static TRACER_IDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// (tracer id, this thread's buffer in that tracer). A thread rarely
    /// records into more than one tracer; the Vec handles tests that do.
    static THREAD_BUFFERS: RefCell<Vec<(usize, Arc<ThreadBuffer>)>> = const { RefCell::new(Vec::new()) };
}

/// The span tracer: thread-buffer registry plus the run's epoch.
pub struct Tracer {
    id: usize,
    epoch: Instant,
    capacity: usize,
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::with_capacity(DEFAULT_THREAD_CAPACITY)
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A tracer whose per-thread rings hold `capacity` events.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity,
            threads: Mutex::new(Vec::new()),
        }
    }

    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// This thread's buffer, registering (under the registry lock) on
    /// first use and serving from thread-local storage after.
    fn buffer(&self) -> Arc<ThreadBuffer> {
        THREAD_BUFFERS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, buf)) = cache.iter().find(|(id, _)| *id == self.id) {
                return buf.clone();
            }
            let mut threads = self.threads.lock().expect("tracer registry lock");
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{}", threads.len()));
            let buf = Arc::new(ThreadBuffer::new(threads.len() as u64, name, self.capacity));
            threads.push(buf.clone());
            cache.push((self.id, buf.clone()));
            buf
        })
    }

    fn push(&self, kind: EventKind, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        let nanos = self.now_nanos();
        self.buffer().push(Event {
            kind,
            name,
            nanos,
            args,
        });
    }

    /// Open a span; the returned guard records the end event on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_args(name, Vec::new())
    }

    /// Open a span with arguments on its begin event.
    pub fn span_with(&self, name: &'static str, build: impl FnOnce(&mut ArgSet)) -> SpanGuard<'_> {
        let mut args = ArgSet::default();
        build(&mut args);
        self.span_args(name, args.0)
    }

    fn span_args(&self, name: &'static str, args: Vec<(&'static str, ArgValue)>) -> SpanGuard<'_> {
        self.push(EventKind::Begin, name, args);
        SpanGuard { tracer: self, name }
    }

    /// Record a point-in-time event.
    pub fn instant_with(&self, name: &'static str, build: impl FnOnce(&mut ArgSet)) {
        let mut args = ArgSet::default();
        build(&mut args);
        self.push(EventKind::Instant, name, args.0);
    }

    /// Drain every thread's new events into `sink`. Safe while worker
    /// threads are still recording (they lose at most the events they
    /// push mid-drain to the *next* drain). The registry lock serializes
    /// concurrent drainers and briefly blocks first-event registration.
    pub fn drain_into<W: Write>(&self, sink: &mut TraceSink<W>) -> std::io::Result<()> {
        let threads = self.threads.lock().expect("tracer registry lock");
        for buf in threads.iter() {
            let (events, newly_dropped) = buf.drain_new();
            sink.consume(buf.tid, &buf.name, &events, newly_dropped)?;
        }
        Ok(())
    }

    /// One-shot drain of everything not yet drained, as a complete
    /// Chrome trace-event document (header + events + footer).
    ///
    /// Wrapped rings are re-balanced: end events whose begin was
    /// overwritten are skipped, and spans still open at the buffer's end
    /// are closed at their thread's last timestamp, so the output always
    /// has matched begin/end pairs per thread.
    pub fn drain_chrome_json(&self, w: impl Write) -> std::io::Result<()> {
        let mut sink = TraceSink::new(w)?;
        self.drain_into(&mut sink)?;
        sink.finish()?;
        Ok(())
    }
}

/// Per-thread emission state a [`TraceSink`] keeps across drains.
#[derive(Debug, Default)]
struct SinkThread {
    /// Open-span depth, so end events whose begin was lost to a ring
    /// wrap are skipped and spans still open at finish can be closed.
    depth: u64,
    /// Last timestamp emitted (µs). Incremental drains clamp to it, so
    /// the file stays monotonic per thread even if a drain races a ring
    /// wrap.
    last_ts_us: f64,
    /// Events lost to wrap-around, summed across drains.
    dropped: u64,
}

/// An incremental Chrome trace-event writer: the header goes out at
/// construction, each [`Tracer::drain_into`] appends the new events, and
/// [`TraceSink::finish`] balances still-open spans and writes the
/// footer. Between drains the file is a truncated-but-parseable-so-far
/// prefix; after `finish` it is a complete document.
pub struct TraceSink<W: Write> {
    w: W,
    first: bool,
    threads: std::collections::BTreeMap<u64, SinkThread>,
}

impl<W: Write> TraceSink<W> {
    /// Start a trace document: writes the header and process metadata.
    pub fn new(mut w: W) -> std::io::Result<TraceSink<W>> {
        writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let mut sink = TraceSink {
            w,
            first: true,
            threads: std::collections::BTreeMap::new(),
        };
        let doc = obj(vec![
            ("ph", json("M")),
            ("name", json("process_name")),
            ("pid", json(&1u32)),
            ("tid", json(&0u64)),
            ("args", obj(vec![("name", json("lastmile"))])),
        ]);
        sink.emit(doc)?;
        Ok(sink)
    }

    fn emit(&mut self, doc: serde_json::Value) -> std::io::Result<()> {
        if !std::mem::take(&mut self.first) {
            writeln!(self.w, ",")?;
        }
        write!(self.w, "{doc}")
    }

    /// Append one buffer's chunk of events.
    fn consume(
        &mut self,
        tid: u64,
        name: &str,
        events: &[Event],
        newly_dropped: u64,
    ) -> std::io::Result<()> {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.threads.entry(tid) {
            slot.insert(SinkThread::default());
            let doc = obj(vec![
                ("ph", json("M")),
                ("name", json("thread_name")),
                ("pid", json(&1u32)),
                ("tid", json(&tid)),
                ("args", obj(vec![("name", json(name))])),
            ]);
            self.emit(doc)?;
        }
        if newly_dropped > 0 {
            let state = self.threads.get_mut(&tid).expect("tid just inserted");
            state.dropped += newly_dropped;
            let ts = state.last_ts_us;
            self.emit(obj(vec![
                ("ph", json("i")),
                ("name", json("events_dropped")),
                ("pid", json(&1u32)),
                ("tid", json(&tid)),
                ("ts", json(&ts)),
                ("s", json("t")),
                ("args", obj(vec![("dropped", json(&newly_dropped))])),
            ]))?;
        }
        for event in events {
            let state = self.threads.get_mut(&tid).expect("tid just inserted");
            let ph = match event.kind {
                EventKind::Begin => {
                    state.depth += 1;
                    "B"
                }
                EventKind::End => {
                    if state.depth == 0 {
                        // Its begin was overwritten by a ring wrap.
                        continue;
                    }
                    state.depth -= 1;
                    "E"
                }
                EventKind::Instant => "i",
            };
            let ts = (event.nanos as f64 / 1_000.0).max(state.last_ts_us);
            state.last_ts_us = ts;
            let mut pairs = vec![
                ("ph", json(ph)),
                ("name", json(event.name)),
                ("pid", json(&1u32)),
                ("tid", json(&tid)),
                ("ts", json(&ts)),
            ];
            if event.kind == EventKind::Instant {
                pairs.push(("s", json("t")));
            }
            if !event.args.is_empty() {
                let args = event
                    .args
                    .iter()
                    .map(|(k, v)| {
                        let v = match v {
                            ArgValue::U64(n) => json(n),
                            ArgValue::I64(n) => json(n),
                            ArgValue::F64(n) => json(n),
                            ArgValue::Str(s) => json(s),
                        };
                        ((*k).to_string(), v)
                    })
                    .collect();
                pairs.push(("args", serde_json::Value::Object(args)));
            }
            self.emit(obj(pairs))?;
        }
        self.w.flush()
    }

    /// Close spans still open (a guard alive at drain time, or an end
    /// lost to a ring wrap), write the footer, and flush.
    pub fn finish(mut self) -> std::io::Result<W> {
        let unclosed: Vec<(u64, u64, f64)> = self
            .threads
            .iter()
            .map(|(tid, s)| (*tid, s.depth, s.last_ts_us))
            .collect();
        for (tid, depth, ts) in unclosed {
            for _ in 0..depth {
                self.emit(obj(vec![
                    ("ph", json("E")),
                    ("name", json("unclosed")),
                    ("pid", json(&1u32)),
                    ("tid", json(&tid)),
                    ("ts", json(&ts)),
                ]))?;
            }
        }
        writeln!(self.w, "\n]}}")?;
        self.w.flush()?;
        Ok(self.w)
    }
}

// The vendored serde_json has no `Map` type alias and its `json!` macro
// takes flat literals only, so event objects are built as pair-vecs.
fn obj(pairs: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn json<T: serde::Serialize + ?Sized>(v: &T) -> serde_json::Value {
    serde_json::to_value(v)
}

/// A background [`Ticker`] that drains the installed global tracer to a
/// file every `every`, so long-running processes persist spans
/// incrementally instead of losing the oldest to ring wrap-around at
/// exit.
///
/// [`TraceStream::finish`] stops the ticker, drains whatever the caller
/// recorded since the last tick, and completes the document — call it
/// after worker pools have quiesced for a loss-free tail.
pub struct TraceStream {
    tracer: &'static Tracer,
    /// The sink, or the first drain error (after which ticks stop
    /// draining and `finish` reports it).
    ticker: Ticker<std::io::Result<TraceSink<std::io::BufWriter<std::fs::File>>>>,
}

impl TraceStream {
    /// Create `path` (truncating) and start the periodic drain of the
    /// installed global tracer. Requires [`install`] to have run.
    pub fn start(path: &str, every: Duration) -> std::io::Result<TraceStream> {
        let tracer = installed().ok_or_else(|| std::io::Error::other("no tracer installed"))?;
        TraceStream::start_with(tracer, path, every)
    }

    /// [`TraceStream::start`] against an explicit tracer (tests, or a
    /// process with more than one tracer).
    pub fn start_with(
        tracer: &'static Tracer,
        path: &str,
        every: Duration,
    ) -> std::io::Result<TraceStream> {
        let file = std::fs::File::create(path)?;
        let sink = TraceSink::new(std::io::BufWriter::new(file))?;
        let ticker = Ticker::start("trace-stream", every, Ok(sink), move |sink| {
            if let Ok(s) = sink {
                if let Err(e) = tracer.drain_into(s) {
                    *sink = Err(e);
                }
            }
        });
        Ok(TraceStream { tracer, ticker })
    }

    /// Stop the periodic drain, flush everything recorded so far, and
    /// complete the trace document.
    pub fn finish(self) -> std::io::Result<()> {
        let mut sink = self.ticker.stop()?;
        self.tracer.drain_into(&mut sink)?;
        sink.finish()?;
        Ok(())
    }
}

/// An open span; records its end event when dropped. Must be dropped on
/// the thread that opened it (guards are neither `Send` nor stored).
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: &'static str,
}

impl SpanGuard<'_> {
    /// Close the span now, with arguments on its end event: for values
    /// known only once the work is done. Trace viewers merge them with
    /// the begin event's arguments.
    pub fn end_with(self, build: impl FnOnce(&mut ArgSet)) {
        let mut args = ArgSet::default();
        build(&mut args);
        self.tracer.push(EventKind::End, self.name, args.0);
        std::mem::forget(self);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.push(EventKind::End, self.name, Vec::new());
    }
}

/// The process-global tracer, installed once by `--trace`.
static GLOBAL: OnceLock<Tracer> = OnceLock::new();
/// One relaxed load gates every call site; false means `span()` et al.
/// return `None` without touching `GLOBAL`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Install the process-global tracer (idempotent) and return it.
pub fn install() -> &'static Tracer {
    let t = GLOBAL.get_or_init(Tracer::new);
    ENABLED.store(true, Ordering::Release);
    t
}

/// Whether a global tracer is installed — the disabled-path fast check.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed tracer, if any.
#[inline]
pub fn installed() -> Option<&'static Tracer> {
    if enabled() {
        GLOBAL.get()
    } else {
        None
    }
}

/// Open a span on the global tracer; `None` (and no work) when tracing
/// is off. Bind the result: `let _s = trace::span("aggregate");`.
#[inline]
pub fn span(name: &'static str) -> Option<SpanGuard<'static>> {
    installed().map(|t| t.span(name))
}

/// [`span`] with arguments; the closure only runs when tracing is on.
#[inline]
pub fn span_with(
    name: &'static str,
    build: impl FnOnce(&mut ArgSet),
) -> Option<SpanGuard<'static>> {
    installed().map(|t| t.span_with(name, build))
}

/// A point-in-time event on the global tracer; no-op when tracing is off.
#[inline]
pub fn instant_with(name: &'static str, build: impl FnOnce(&mut ArgSet)) {
    if let Some(t) = installed() {
        t.instant_with(name, build);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_events(json: &str) -> Vec<serde_json::Value> {
        let doc: serde_json::Value = serde_json::from_str(json).expect("trace JSON parses");
        doc["traceEvents"]
            .as_array()
            .expect("traceEvents array")
            .clone()
    }

    fn drain_to_string(tracer: &Tracer) -> String {
        let mut out = Vec::new();
        tracer.drain_chrome_json(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn spans_nest_and_balance_per_thread() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span_with("outer", |a| {
                a.u64("asn", 64500).str("period", "2019-09");
            });
            let _inner = tracer.span("inner");
            tracer.instant_with("tick", |a| {
                a.i64("delta", -3).f64("ratio", 0.5);
            });
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _s = tracer.span("worker");
            });
        });
        let events = parse_events(&drain_to_string(&tracer));
        // Balanced begin/end per tid, and timestamps never regress
        // within a thread.
        let mut depth: std::collections::BTreeMap<u64, i64> = Default::default();
        let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
        for e in &events {
            let tid = e["tid"].as_u64().unwrap();
            match e["ph"].as_str().unwrap() {
                "B" => *depth.entry(tid).or_default() += 1,
                "E" => *depth.entry(tid).or_default() -= 1,
                _ => {}
            }
            if let Some(ts) = e["ts"].as_f64() {
                let prev = last_ts.entry(tid).or_insert(ts);
                assert!(ts >= *prev, "timestamps regressed on tid {tid}");
                *prev = ts;
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
        // Args made it through typed.
        let outer = events
            .iter()
            .find(|e| e["name"] == "outer" && e["ph"] == "B")
            .expect("outer begin");
        assert_eq!(outer["args"]["asn"], 64500);
        assert_eq!(outer["args"]["period"], "2019-09");
        let tick = events.iter().find(|e| e["name"] == "tick").unwrap();
        assert_eq!(tick["ph"], "i");
        assert_eq!(tick["args"]["delta"], -3);
        // Two threads recorded, each named.
        let names: Vec<_> = events
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .collect();
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn end_with_closes_once_with_end_args() {
        let tracer = Tracer::new();
        let span = tracer.span_with("render", |a| {
            a.u64("records", 3);
        });
        span.end_with(|a| {
            a.u64("bytes", 42);
        });
        let events = parse_events(&drain_to_string(&tracer));
        let render: Vec<_> = events.iter().filter(|e| e["name"] == "render").collect();
        assert_eq!(render.len(), 2, "{render:?}");
        assert_eq!(render[0]["ph"], "B");
        assert_eq!(render[0]["args"]["records"], 3);
        assert_eq!(render[1]["ph"], "E");
        assert_eq!(render[1]["args"]["bytes"], 42);
    }

    #[test]
    fn wrapped_ring_still_balances() {
        let tracer = Tracer::with_capacity(8);
        for _ in 0..100 {
            let _s = tracer.span("tight");
        }
        let _open = tracer.span("open-at-drain");
        let json = drain_to_string(&tracer);
        let events = parse_events(&json);
        let begins = events.iter().filter(|e| e["ph"] == "B").count();
        let ends = events.iter().filter(|e| e["ph"] == "E").count();
        assert_eq!(begins, ends, "wrapped trace unbalanced");
        assert!(
            events.iter().any(
                |e| e["name"] == "events_dropped" && e["args"]["dropped"].as_u64().unwrap() > 0
            ),
            "dropped count missing"
        );
        drop(_open);
    }

    #[test]
    fn global_disabled_path_is_fast_and_inert() {
        // Not installed (tests in this binary never call install()):
        // span() must return None without side effects, fast. The bound
        // is generous — the real cost is ~1 ns; this only catches an
        // accidental lock or allocation on the disabled path.
        assert!(!enabled());
        let start = Instant::now();
        const N: u32 = 1_000_000;
        for _ in 0..N {
            let s = span("never");
            assert!(s.is_none());
            instant_with("never", |_| panic!("args built while disabled"));
        }
        let per_call = start.elapsed().as_nanos() / u128::from(N);
        assert!(per_call < 1_000, "disabled span() cost {per_call} ns/call");
    }

    #[test]
    fn empty_tracer_produces_valid_json() {
        let json = drain_to_string(&Tracer::new());
        let events = parse_events(&json);
        assert_eq!(events.len(), 1, "process_name metadata only");
    }

    #[test]
    fn incremental_drain_matches_one_shot_semantics() {
        let tracer = Tracer::new();
        let mut sink = TraceSink::new(Vec::new()).unwrap();
        {
            let _a = tracer.span("first");
        }
        tracer.drain_into(&mut sink).unwrap();
        // Events recorded after a drain land in the next chunk, spans
        // left open across a chunk boundary still balance at finish.
        let _open = tracer.span_with("second", |a| {
            a.u64("chunk", 2);
        });
        tracer.instant_with("mid", |_| {});
        tracer.drain_into(&mut sink).unwrap();
        let json = String::from_utf8(sink.finish().unwrap()).unwrap();
        let events = parse_events(&json);
        let begins = events.iter().filter(|e| e["ph"] == "B").count();
        let ends = events.iter().filter(|e| e["ph"] == "E").count();
        assert_eq!(begins, 2, "both chunks' begins present");
        assert_eq!(begins, ends, "open span closed at finish");
        assert!(events.iter().any(|e| e["name"] == "mid"));
        assert_eq!(
            events.iter().filter(|e| e["name"] == "thread_name").count(),
            1,
            "thread metadata emitted once across chunks"
        );
        // Nothing double-drained: "first" appears exactly once as a B.
        assert_eq!(
            events
                .iter()
                .filter(|e| e["ph"] == "B" && e["name"] == "first")
                .count(),
            1
        );
    }

    #[test]
    fn drain_races_recorder_without_duplication() {
        // A writer thread records continuously while the main thread
        // drains repeatedly; every event must appear at most once and
        // the final document must balance.
        let tracer = Tracer::new();
        let stop = AtomicBool::new(false);
        let mut sink = TraceSink::new(Vec::new()).unwrap();
        let total = 5_000u64;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..total {
                    tracer.instant_with("evt", |a| {
                        a.u64("i", i);
                    });
                }
                stop.store(true, Ordering::Release);
            });
            while !stop.load(Ordering::Acquire) {
                tracer.drain_into(&mut sink).unwrap();
            }
        });
        tracer.drain_into(&mut sink).unwrap();
        let json = String::from_utf8(sink.finish().unwrap()).unwrap();
        let events = parse_events(&json);
        let mut seen = std::collections::BTreeSet::new();
        for e in events.iter().filter(|e| e["name"] == "evt") {
            let i = e["args"]["i"].as_u64().unwrap();
            assert!(seen.insert(i), "event {i} drained twice");
        }
        assert_eq!(
            seen.len() as u64,
            total,
            "events lost without a drop marker"
        );
    }

    #[test]
    fn trace_stream_persists_incrementally_and_finishes() {
        let dir =
            std::env::temp_dir().join(format!("lastmile-trace-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.json");
        // Leaked rather than install()ed: the disabled-path test in this
        // binary asserts the global stays uninstalled.
        let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new()));
        let stream =
            TraceStream::start_with(tracer, path.to_str().unwrap(), Duration::from_millis(10))
                .unwrap();
        {
            let _s = tracer.span_with("streamed", |a| {
                a.u64("n", 1);
            });
        }
        // Give the background thread at least one tick to drain.
        std::thread::sleep(Duration::from_millis(60));
        let partial = std::fs::read_to_string(&path).unwrap();
        assert!(
            partial.contains("\"streamed\""),
            "span not on disk before finish: {partial}"
        );
        stream.finish().unwrap();
        let events = parse_events(&std::fs::read_to_string(&path).unwrap());
        assert!(events
            .iter()
            .any(|e| e["name"] == "streamed" && e["ph"] == "B"));
        let begins = events.iter().filter(|e| e["ph"] == "B").count();
        let ends = events.iter().filter(|e| e["ph"] == "E").count();
        assert_eq!(begins, ends);
        std::fs::remove_dir_all(&dir).ok();
    }
}
