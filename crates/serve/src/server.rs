//! The accept loop, worker pool, and health fast lane.
//!
//! Concurrency shape (fixed at bind time, nothing grows under load):
//!
//! ```text
//!   acceptor ──try_send──▶ bounded queue (cap Q) ──recv──▶ serve-0..N-1
//!      │                        full?
//!      ├──try_send──▶ fast lane (cap 32) ──recv──▶ serve-fast
//!      │                   full?          GET /healthz | /metrics:
//!      │                                  served; else 503
//!      └──────── inline 503 + Retry-After, close ◀────────┘
//! ```
//!
//! The acceptor never blocks on the queue: a full queue means the pool
//! is saturated, and the correct behaviour under the ISSUE's
//! backpressure contract is an immediate `503 Service Unavailable` with
//! `Retry-After`, not unbounded buffering. Overflow connections detour
//! through a dedicated fast lane first: a single thread that serves
//! `GET /healthz` and `GET /metrics` under a tight timeout, so a flood
//! of expensive classify/ingest work can never blind health probes;
//! anything else overflowing gets the same 503.
//!
//! The acceptor blocks in `accept`, so an idle server never wakes.
//! [`StopHandle::stop`] latches the stop flag and then connects once to
//! the listener; the blocked `accept` returns, and the acceptor drops
//! that connection uncounted and stops. Graceful shutdown then drops
//! both queues' senders and joins the workers, which drain every
//! connection already queued (and the one they are serving) before
//! exiting.
//!
//! Every connection, on either lane, is served by one function,
//! `serve_connection`: read the head, stamp the request id and trace
//! span, classify, admit, read the body, run the handler, write and
//! account the response. The lane (`Lane`) picks only the I/O timeout
//! and the admission rule.
//!
//! ## Admission control
//!
//! Beyond the queue there is a second, cost-aware shedding layer: every
//! request is classified into a [`CostClass`] (probe / cheap / heavy /
//! intake) from its head, and each budgeted class has a concurrency
//! budget checked before the body is read. A worker that dequeues a
//! request whose class is already at budget answers a fast 503 (with
//! the class named in the body and an adaptive `Retry-After`) instead
//! of running the handler — turning slow work into a cheap write, so
//! the shared accept queue keeps draining and the remaining workers
//! stay available for the other classes. With `budget_heavy <
//! workers`, a flood of full-classification requests can never occupy
//! the whole pool: series / populations / live-intake traffic always
//! finds a worker. The cheap and intake budgets are fixed at `workers`
//! (they can never be exceeded, so those classes are only counted), and
//! a heavy budget left at 0 resolves to `workers` too — so the default
//! daemon sheds only on queue overflow.

use crate::access::{AccessLog, AccessRecord};
use crate::http::{parse_request_head, read_body, ParseError, Request, Response};
use lastmile_obs::{ops::now_unix_ms, trace, AdmissionClassMetrics, ServeMetrics};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A request handler: pure function of the parsed request. Shared by
/// every worker; panics are caught per-connection (the worker survives
/// and answers 500).
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// Fixed resources for one [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8437` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads (`serve-0` … `serve-N-1`). Clamped to ≥ 1.
    pub workers: usize,
    /// Accept-queue capacity. Clamped to ≥ 1; `workers + queue` bounds
    /// the connections held at any instant.
    pub queue: usize,
    /// Base seconds advertised in `Retry-After` on a 503; the actual
    /// hint scales up with backlog (see [`adaptive_retry_after`]).
    pub retry_after_secs: u64,
    /// Concurrency budget for [`CostClass::Heavy`] requests (the full
    /// `GET /v1/classify` document). `0` = auto (`workers`). Set it
    /// below `workers` to guarantee a classify flood leaves workers
    /// free for every other class.
    pub budget_heavy: usize,
    /// Structured access log: one JSON object per request (served,
    /// errored, or shed) through a bounded non-blocking writer. `None`
    /// (the default) logs nothing. The server shuts the writer down
    /// (flush + join) after draining workers.
    pub access_log: Option<Arc<AccessLog>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8437".to_string(),
            workers: 4,
            queue: 16,
            retry_after_secs: 1,
            budget_heavy: 0,
            access_log: None,
        }
    }
}

/// What a request costs the daemon, decided from the request head
/// alone. Each class maps to one admission budget (except `Probe`,
/// which is never budgeted — it is also the fast-lane set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// `GET /healthz` and `GET /metrics`: tiny, operator-critical,
    /// never shed by admission (the fast lane exists for them).
    Probe,
    /// Everything not named below: per-ASN classify documents, series,
    /// populations, 404s. Cheap lookups against the published epoch.
    Cheap,
    /// `GET /v1/classify` — serializes the full classification
    /// document, the most expensive read the daemon offers.
    Heavy,
    /// `POST /v1/traceroutes` — live intake: parse, validate, spool.
    Intake,
}

impl CostClass {
    /// Stable lowercase name used in `/metrics` keys and 503 bodies.
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Probe => "probe",
            CostClass::Cheap => "cheap",
            CostClass::Heavy => "heavy",
            CostClass::Intake => "intake",
        }
    }
}

/// Classify a request head into its [`CostClass`].
pub fn cost_class(method: &str, path: &str) -> CostClass {
    let bare = path.split('?').next().unwrap_or(path);
    if method == "GET" && (bare == "/healthz" || bare == "/metrics") {
        CostClass::Probe
    } else if method == "POST" && bare == "/v1/traceroutes" {
        CostClass::Intake
    } else if method == "GET" && bare == "/v1/classify" {
        CostClass::Heavy
    } else {
        CostClass::Cheap
    }
}

/// The `Retry-After` hint for a 503: the configured base when the
/// shedding resource is merely full, growing linearly with how far the
/// backlog exceeds capacity (a client told to come back later when the
/// daemon is drowning is a client that won't pile on), capped at 8×
/// base so the hint never becomes "give up".
pub fn adaptive_retry_after(base: u64, occupancy: u64, capacity: u64) -> u64 {
    let capacity = capacity.max(1);
    let over = occupancy.saturating_sub(capacity);
    base.saturating_add(base.saturating_mul(over) / capacity)
        .min(base.saturating_mul(8))
}

/// How long a worker waits for a slow client before giving up on the
/// read or write side of a connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Pause after a failed `accept` (fd exhaustion, say), so a persistent
/// error cannot spin the acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Read/write timeout on the fast lane: tight, so one slow-loris
/// connection can't park the single thread that keeps health probes
/// answered while the pool is saturated.
const FASTLANE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Fast-lane queue capacity: connections overflowing the main queue
/// wait here for `serve-fast`; past it the acceptor answers 503 inline.
const FASTLANE_QUEUE: usize = 32;

/// A bound listener plus its pool configuration. `bind` then `run`.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    metrics: Arc<ServeMetrics>,
    stop: StopHandle,
}

/// Stops a [`Server`] from any thread: [`StopHandle::stop`] latches the
/// stop flag, then connects once to the listener so the acceptor's
/// blocked `accept` returns and sees it.
#[derive(Clone, Debug)]
pub struct StopHandle {
    stopped: Arc<AtomicBool>,
    /// The listener's bound address. A wildcard one (`0.0.0.0`, `::`)
    /// reaches the local host when connected to, on Linux and the BSDs.
    addr: SocketAddr,
}

impl StopHandle {
    /// Make [`Server::run`] stop accepting, drain and return. Safe to
    /// call more than once, and before or after `run`.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        // The acceptor drops this connection uncounted. It fails only
        // when the listener is already closed, and then nobody waits.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind `config.addr` (no traffic is accepted until [`Server::run`]).
    pub fn bind(config: ServerConfig, metrics: Arc<ServeMetrics>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = StopHandle {
            stopped: Arc::default(),
            addr,
        };
        Ok(Server {
            listener,
            config,
            metrics,
            stop,
        })
    }

    /// The bound address — the actual port when `addr` ended in `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// The handle that stops [`Server::run`].
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Serve until [`StopHandle::stop`], then drain and return.
    ///
    /// Blocks the calling thread (it becomes the acceptor, waiting in
    /// `accept`). On stop: stop accepting, close the queue, join the
    /// workers once every queued and in-flight connection has been
    /// answered.
    pub fn run(self, handler: Arc<Handler>) -> std::io::Result<()> {
        let workers = self.config.workers.max(1);
        let queue = self.config.queue.max(1);
        let heavy = match self.config.budget_heavy {
            0 => workers,
            budget => budget,
        };
        // Publish the budgets as gauges before any traffic.
        let admission = &self.metrics.admission;
        for (class, budget) in [
            (&admission.cheap, workers),
            (&admission.heavy, heavy),
            (&admission.intake, workers),
        ] {
            class.budget.store(budget as u64, Ordering::Relaxed);
        }
        let ctx = Ctx {
            metrics: &self.metrics,
            limits: Limits {
                retry_after_secs: self.config.retry_after_secs,
                workers: workers as u64,
                queue: queue as u64,
            },
            access: self.config.access_log.as_deref(),
        };
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue);
        let (ftx, frx) = std::sync::mpsc::sync_channel::<TcpStream>(FASTLANE_QUEUE);
        let (pool, fast) = (Mutex::new(rx), Mutex::new(frx));
        let handler = &*handler;
        std::thread::scope(|scope| {
            let threads = (0..workers)
                .map(|n| (format!("serve-{n}"), Lane::Pool, &pool))
                .chain([("serve-fast".to_string(), Lane::Fast, &fast)]);
            for (name, lane, rx) in threads {
                std::thread::Builder::new()
                    .name(name)
                    .spawn_scoped(scope, move || worker_loop(rx, lane, handler, ctx))
                    .expect("spawn serve worker");
            }
            let stopped = &*self.stop.stopped;
            while !stopped.load(Ordering::Acquire) {
                match self.listener.accept() {
                    // The stop's wake connection, or a client racing the
                    // stop: dropped unserved and uncounted.
                    Ok(_) if stopped.load(Ordering::Acquire) => break,
                    Ok((stream, _peer)) => {
                        self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                        // Gauge before send: a worker may dequeue (and
                        // queue_pop) the instant the send lands, and the
                        // pop saturates at zero — push-after-send would
                        // drift the gauge up by one each time it loses
                        // that race.
                        self.metrics.queue_push();
                        match tx.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(stream)) => {
                                self.metrics.queue_pop();
                                // Saturated: detour through the fast
                                // lane, which serves health probes and
                                // 503s the rest. Only when the fast
                                // lane itself is full does the acceptor
                                // answer inline.
                                match ftx.try_send(stream) {
                                    Ok(()) => {}
                                    Err(TrySendError::Full(stream))
                                    | Err(TrySendError::Disconnected(stream)) => {
                                        // Both queues full; the request
                                        // head was never read.
                                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                                        shed(
                                            stream,
                                            Shed::QueueFull,
                                            Exchange::unparsed(Instant::now()),
                                            ctx,
                                        );
                                    }
                                }
                            }
                            // Workers only stop once `tx` is dropped
                            // below, so the queue cannot disconnect
                            // while accepting.
                            Err(TrySendError::Disconnected(_)) => {
                                unreachable!("workers outlive the acceptor")
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // Transient per-connection accept failures (peer
                    // reset mid-handshake, fd pressure) shouldn't kill
                    // the daemon.
                    Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
                }
            }
            trace::instant_with("serve_shutdown", |a| {
                a.u64("queued", self.metrics.queue_depth.load(Ordering::Relaxed));
            });
            drop(tx); // workers drain the queue, then their recv() errors
            drop(ftx); // likewise for the fast lane
        });
        // Workers are drained and joined: every record is enqueued, so
        // the writer can flush and stop. Losses are reported, never
        // silent.
        if let Some(log) = &self.config.access_log {
            let (result, dropped) = log.shutdown();
            if let Err(e) = result {
                eprintln!("[serve] access log: write error: {e}");
            }
            if dropped > 0 {
                eprintln!("[serve] access log: dropped {dropped} records under pressure");
            }
        }
        Ok(())
    }
}

/// Everything a connection-serving path needs besides the socket:
/// shared metrics, fixed limits, and the optional access log.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    metrics: &'a ServeMetrics,
    limits: Limits,
    access: Option<&'a AccessLog>,
}

/// Sequence source for generated request ids.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// Echo a well-formed client `X-Request-Id` (alphanumeric plus
/// `.`/`_`/`-`, at most 64 bytes) or mint one: microsecond unix
/// timestamp plus a process-wide sequence number, both hex. The id is
/// sent back as `X-Request-Id` and stamped on the request trace span
/// and access-log line, so all three views of one request join on it.
fn request_id(client: Option<&str>) -> String {
    if let Some(id) = client {
        if !id.is_empty()
            && id.len() <= 64
            && id
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        {
            return id.to_string();
        }
    }
    let seq = REQUEST_SEQ.fetch_add(1, Ordering::Relaxed);
    let micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    format!("{micros:012x}-{seq:08x}")
}

/// The analysis epoch a response advertises via `X-Epoch`, or 0.
fn epoch_from(response: &Response) -> u64 {
    response
        .extra_headers
        .iter()
        .find(|(name, _)| *name == "X-Epoch")
        .and_then(|(_, value)| value.parse().ok())
        .unwrap_or(0)
}

/// Capacities fixed at bind time, shared with every shed site so
/// `Retry-After` hints can be derived from live occupancy.
#[derive(Clone, Copy, Debug)]
struct Limits {
    retry_after_secs: u64,
    workers: u64,
    queue: u64,
}

impl Limits {
    /// Hint for a queue-overflow shed: occupancy is everything the pool
    /// is holding (queued + in a handler) against its total capacity.
    fn queue_full_hint(&self, metrics: &ServeMetrics) -> u64 {
        let occupancy =
            metrics.queue_depth.load(Ordering::Relaxed) + metrics.in_flight.load(Ordering::Relaxed);
        adaptive_retry_after(self.retry_after_secs, occupancy, self.queue + self.workers)
    }

    /// Hint for an over-budget shed: the class's own in-flight count
    /// plus the queue backlog (work that may also land on this class)
    /// against the class budget.
    fn budget_hint(&self, metrics: &ServeMetrics, class: &AdmissionClassMetrics) -> u64 {
        let occupancy =
            class.in_flight.load(Ordering::Relaxed) + metrics.queue_depth.load(Ordering::Relaxed);
        adaptive_retry_after(
            self.retry_after_secs,
            occupancy,
            class.budget.load(Ordering::Relaxed),
        )
    }
}

/// Which queue a connection came through. The lane decides the I/O
/// timeout and the admission rule; every other step of
/// [`serve_connection`] is shared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// The worker pool behind the bounded accept queue.
    Pool,
    /// `serve-fast`, fed by connections overflowing a full accept queue.
    Fast,
}

impl Lane {
    fn io_timeout(self) -> Duration {
        match self {
            Lane::Pool => IO_TIMEOUT,
            Lane::Fast => FASTLANE_IO_TIMEOUT,
        }
    }

    /// Admit a request of `class`, or say why it is shed. The pool
    /// checks the class budget and hands back the slot to release after
    /// the handler (`None` for the unbudgeted probe class). The fast
    /// lane admits probes only; everything else overflowed a full
    /// queue.
    fn admit(
        self,
        class: CostClass,
        metrics: &ServeMetrics,
    ) -> Result<Option<&AdmissionClassMetrics>, Shed<'_>> {
        let admission = &metrics.admission;
        let budget = match class {
            CostClass::Probe => None,
            CostClass::Cheap => Some(&admission.cheap),
            CostClass::Heavy => Some(&admission.heavy),
            CostClass::Intake => Some(&admission.intake),
        };
        match (self, budget) {
            (Lane::Fast, None) => {
                metrics.fastlane_hits.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            (Lane::Fast, Some(_)) => Err(Shed::QueueFull),
            (Lane::Pool, Some(class)) if !class.try_acquire() => Err(Shed::OverBudget(class)),
            (Lane::Pool, slot) => Ok(slot),
        }
    }
}

/// Why a request is answered 503 without reaching its handler.
#[derive(Clone, Copy)]
enum Shed<'m> {
    /// No queue had room (shed by the acceptor or the fast lane).
    QueueFull,
    /// Its cost class is at budget.
    OverBudget(&'m AdmissionClassMetrics),
}

/// What an answer needs to know about its request, however far the
/// request got: when it arrived, its id, its head (once parsed) and
/// its cost class (`unknown` before the head parsed).
struct Exchange<'r> {
    started: Instant,
    id: String,
    head: Option<&'r Request>,
    class: &'static str,
}

impl Exchange<'_> {
    /// A connection whose head was never parsed.
    fn unparsed(started: Instant) -> Exchange<'static> {
        Exchange {
            started,
            id: request_id(None),
            head: None,
            class: "unknown",
        }
    }
}

/// One serving thread: pull connections off its lane's queue until the
/// acceptor drops the sender.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, lane: Lane, handler: &Handler, ctx: Ctx<'_>) {
    let metrics = ctx.metrics;
    // The queue and in-flight gauges describe the pool: the acceptor
    // already took a detoured connection off the queue gauge.
    let pool = lane == Lane::Pool;
    loop {
        // Hold the receiver lock only for the dequeue, never while
        // serving — otherwise one slow client would serialize the pool.
        let stream = match rx.lock().expect("serve queue lock").recv() {
            Ok(stream) => stream,
            Err(_) => return, // acceptor dropped the sender: drained
        };
        if pool {
            metrics.queue_pop();
            metrics.in_flight.inc();
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            serve_connection(stream, lane, handler, ctx);
        }));
        if pool {
            metrics.in_flight.dec();
        }
        if result.is_err() {
            // `serve_connection` already catches handler panics; this
            // catches bugs in the connection plumbing itself so the
            // thread (and the drain guarantee) survives them.
            metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serve exactly one request on `stream`, then close it. Both lanes run
/// the same steps in the same order.
fn serve_connection(mut stream: TcpStream, lane: Lane, handler: &Handler, ctx: Ctx<'_>) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(lane.io_timeout()));
    let _ = stream.set_write_timeout(Some(lane.io_timeout()));
    // 1. The head only: classifying and admitting need nothing more.
    let (mut request, leftover) = match parse_request_head(&mut stream) {
        Ok(head) => head,
        Err(ParseError::ConnectionClosed) => return, // nothing owed
        Err(e) => {
            // No head, no cost class. The fast lane admits probes only,
            // so it sheds this too; the pool answers the parse error.
            let exchange = Exchange::unparsed(started);
            match (lane, error_response(e)) {
                (Lane::Fast, _) => shed(stream, Shed::QueueFull, exchange, ctx),
                (Lane::Pool, Some(response)) => respond(stream, response, "", exchange, ctx),
                (Lane::Pool, None) => {}
            }
            return;
        }
    };
    // 2. The id joins the response header, trace span and access log.
    let id = request_id(request.header("x-request-id"));
    let _span = trace::span_with("request", |a| {
        a.str("method", request.method.clone())
            .str("path", request.path.clone())
            .str("request_id", id.clone());
    });
    // 3–4. Classify from the head, then admit.
    let class = cost_class(&request.method, &request.path);
    let slot = match lane.admit(class, ctx.metrics) {
        Ok(slot) => slot,
        Err(reason) => {
            let exchange = Exchange {
                started,
                id,
                head: Some(&request),
                class: class.name(),
            };
            return shed(stream, reason, exchange, ctx);
        }
    };
    // 5–6. Only an admitted request's body is read; then the handler.
    let response = match read_body(&mut stream, &mut request, leftover) {
        Err(e) => error_response(e),
        Ok(()) if request.method != "GET" && request.method != "POST" => Some(Response::json(
            405,
            "{\"error\":\"only GET and POST are served\"}\n",
        )),
        Ok(()) => Some(
            match std::panic::catch_unwind(AssertUnwindSafe(|| handler(&request))) {
                Ok(response) => response,
                Err(_) => {
                    ctx.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                    Response::json(500, "{\"error\":\"handler panicked\"}\n")
                }
            },
        ),
    };
    if let Some(slot) = slot {
        slot.release();
    }
    // 7. Write, record, log.
    if let Some(response) = response {
        let exchange = Exchange {
            started,
            id,
            head: Some(&request),
            class: class.name(),
        };
        respond(stream, response, "", exchange, ctx);
    }
}

/// The answer owed for a request that failed to parse, or `None` when
/// the socket itself failed and nothing can be answered.
fn error_response(e: ParseError) -> Option<Response> {
    let (status, msg) = match e {
        ParseError::HeadTooLarge => (431, "request head too large"),
        ParseError::BodyTooLarge => (413, "request body too large"),
        ParseError::Malformed(why) => (400, why),
        ParseError::Io(_) | ParseError::ConnectionClosed => return None,
    };
    Some(Response::json(status, format!("{{\"error\":\"{msg}\"}}\n")))
}

/// Answer a request with a 503 instead of running its handler: a
/// `Retry-After` hint and JSON body chosen by `reason`, naming the cost
/// class.
fn shed(stream: TcpStream, reason: Shed<'_>, exchange: Exchange<'_>, ctx: Ctx<'_>) {
    let metrics = ctx.metrics;
    let (error, shed_reason, hint) = match reason {
        Shed::QueueFull => {
            metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
            let hint = ctx.limits.queue_full_hint(metrics);
            ("accept queue full", "queue_full", hint)
        }
        Shed::OverBudget(class) => {
            let hint = ctx.limits.budget_hint(metrics, class);
            ("over budget", "over_budget", hint)
        }
    };
    let body = format!(
        "{{\"error\":\"{error}\",\"cost_class\":\"{}\",\"retry_after_secs\":{hint}}}\n",
        exchange.class
    );
    let response = Response::json(503, body).header("Retry-After", hint.to_string());
    respond(stream, response, shed_reason, exchange, ctx);
}

/// Write one answer, then account it once and log it once. A served
/// answer (`shed_reason` empty) counts toward `requests` and its
/// endpoint's latency histogram; a shed one drains the unread request
/// and lands in the `rejected` histogram instead.
fn respond(
    mut stream: TcpStream,
    response: Response,
    shed_reason: &'static str,
    exchange: Exchange<'_>,
    ctx: Ctx<'_>,
) {
    let Exchange {
        started,
        id,
        head,
        class,
    } = exchange;
    let shed = !shed_reason.is_empty();
    let response = response.header("X-Request-Id", id.clone());
    // A client that went away mid-write still had its request run, so
    // the answer is accounted either way.
    let _ = response.write_to(&mut stream);
    if shed {
        // Closing with the client's request still unread would RST the
        // connection and can discard the 503 out of the client's
        // receive buffer. Signal end-of-response, then drain what the
        // client already sent — bounded (tiny timeout, few reads) so a
        // flooding client can't park the acceptor here.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
        let mut scratch = [0u8; 1024];
        for _ in 0..4 {
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
    let elapsed = started.elapsed();
    let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    if shed {
        ctx.metrics.record_rejected(nanos);
        trace::instant_with("request_rejected", |a| {
            a.u64("status", 503)
                .str("cost_class", class)
                .str("shed_reason", shed_reason)
                .str("request_id", id.clone());
        });
    } else {
        ctx.metrics.record_request(response.endpoint, nanos);
        if response.status >= 400 {
            trace::instant_with("request_error", |a| {
                a.u64("status", u64::from(response.status));
            });
        }
    }
    if let Some(access) = ctx.access {
        access.log(&AccessRecord {
            request_id: id,
            method: head.map(|r| r.method.clone()).unwrap_or_default(),
            path: head.map(|r| r.path.clone()).unwrap_or_default(),
            endpoint: if shed {
                "rejected"
            } else {
                response.endpoint.label()
            },
            cost_class: class,
            status: response.status,
            latency_micros: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            epoch: epoch_from(&response),
            shed_reason,
            unix_ms: now_unix_ms(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_obs::ServeEndpoint;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::sync::mpsc;

    /// Raw one-shot HTTP client; returns (status, headers, body).
    fn get(addr: SocketAddr, target: &str) -> (u16, Vec<String>, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        read_response(stream)
    }

    fn read_response(stream: TcpStream) -> (u16, Vec<String>, String) {
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            headers.push(line);
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        (status, headers, body)
    }

    fn spawn_server(
        config: ServerConfig,
        handler: Arc<Handler>,
    ) -> (
        SocketAddr,
        Arc<ServeMetrics>,
        StopHandle,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let metrics = Arc::new(ServeMetrics::new());
        let server = Server::bind(config, Arc::clone(&metrics)).expect("bind");
        let addr = server.local_addr();
        let shutdown = server.stop_handle();
        let join = std::thread::spawn(move || server.run(handler));
        (addr, metrics, shutdown, join)
    }

    #[test]
    fn serves_concurrent_requests_and_drains_on_shutdown() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            Response::json(200, format!("{{\"path\":\"{}\"}}", req.path))
                .endpoint(ServeEndpoint::Classify)
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 8,
            retry_after_secs: 1,
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        std::thread::scope(|scope| {
            for n in 0..8 {
                scope.spawn(move || {
                    let (status, _, body) = get(addr, &format!("/p/{n}"));
                    assert_eq!(status, 200);
                    assert_eq!(body, format!("{{\"path\":\"/p/{n}\"}}"));
                });
            }
        });
        shutdown.stop();
        join.join().unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.requests, 8);
        assert_eq!(s.worker_panics, 0);
        assert_eq!(s.latency.classify.count, 8);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.queue_depth, 0);
    }

    #[test]
    fn stop_wakes_an_idle_acceptor_and_the_wake_is_not_counted() {
        // Loopback and wildcard binds: the wake connection must reach
        // the listener either way.
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let handler: Arc<Handler> = Arc::new(|_req: &Request| Response::text(200, "ok"));
            let config = ServerConfig {
                addr: addr.into(),
                ..ServerConfig::default()
            };
            let (_addr, metrics, shutdown, join) = spawn_server(config, handler);
            // Let the acceptor block in `accept` with no client at all.
            std::thread::sleep(Duration::from_millis(50));
            let started = Instant::now();
            shutdown.stop();
            join.join().unwrap().unwrap();
            let took = started.elapsed();
            assert!(took < Duration::from_secs(1), "{addr}: stop took {took:?}");
            let s = metrics.snapshot();
            assert_eq!(s.accepted, 0, "{addr}: the wake connection was counted");
            assert_eq!(s.requests, 0);
            // A second stop, after `run` returned, is harmless.
            shutdown.stop();
        }
    }

    #[test]
    fn full_queue_gets_503_with_retry_after() {
        // One worker parked in the handler + queue of one ⇒ the third
        // concurrent connection must be bounced, not buffered.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let handler: Arc<Handler> = Arc::new(move |_req: &Request| {
            gate_rx.lock().unwrap().recv().ok();
            Response::text(200, "slow")
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 1,
            retry_after_secs: 7,
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        // Saturate in stages (the acceptor can outrun the worker, so
        // firing both at once could bounce the second): park request A
        // in the worker, then request B in the queue, each confirmed
        // via the gauges before the next step.
        let send_slow = || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /slow HTTP/1.1\r\n\r\n").unwrap();
            stream.flush().unwrap();
            stream
        };
        let wait_for = |what: &str, reached: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !reached() {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "never reached: {what}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let slow_a = send_slow();
        wait_for("request A in the handler", &|| {
            metrics.in_flight.load(Ordering::Relaxed) == 1
        });
        let slow_b = send_slow();
        wait_for("request B parked in the queue", &|| {
            metrics.queue_depth.load(Ordering::Relaxed) == 1
        });
        let slow = [slow_a, slow_b];
        let (status, headers, body) = get(addr, "/bounced");
        assert_eq!(status, 503);
        assert!(
            headers.iter().any(|h| h == "Retry-After: 7"),
            "missing Retry-After: {headers:?}"
        );
        assert!(body.contains("accept queue full"), "{body}");
        // Release the parked requests; both complete (drain guarantee).
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        for stream in slow {
            let (status, _, _) = read_response(stream);
            assert_eq!(status, 200);
        }
        shutdown.stop();
        join.join().unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.rejected_busy, 1);
        assert_eq!(s.requests, 2, "bounced connection never reached a worker");
        assert_eq!(s.worker_panics, 0);
    }

    #[test]
    fn handler_panic_answers_500_and_worker_survives() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            if req.path == "/boom" {
                panic!("handler bug");
            }
            Response::text(200, "fine")
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 4,
            retry_after_secs: 1,
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        let (status, _, _) = get(addr, "/boom");
        assert_eq!(status, 500);
        // The same (only) worker keeps serving.
        let (status, _, body) = get(addr, "/ok");
        assert_eq!(status, 200);
        assert_eq!(body, "fine");
        shutdown.stop();
        join.join().unwrap().unwrap();
        assert_eq!(metrics.snapshot().worker_panics, 1);
    }

    #[test]
    fn bare_lf_request_gets_a_response() {
        // Regression: an LF-only client (`\n\n` head terminator) used
        // to hang on a worker slot until the read timeout instead of
        // being answered.
        let handler: Arc<Handler> =
            Arc::new(|req: &Request| Response::text(200, format!("path={}", req.path)));
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 4,
            retry_after_secs: 1,
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /lf-only HTTP/1.1\nHost: test\n\n").unwrap();
        let (status, _, body) = read_response(stream);
        assert_eq!(status, 200);
        assert_eq!(body, "path=/lf-only");
        shutdown.stop();
        join.join().unwrap().unwrap();
        assert_eq!(metrics.snapshot().requests, 1);
    }

    #[test]
    fn unsupported_methods_bodies_and_malformed_requests_get_errors() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            Response::text(200, format!("{}:{}", req.method, req.body.len()))
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 4,
            retry_after_secs: 1,
            ..ServerConfig::default()
        };
        let (addr, _metrics, shutdown, join) = spawn_server(config, handler);
        // POST now reaches the handler, with its body.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /v1/thing HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        .unwrap();
        let (status, _, body) = read_response(stream);
        assert_eq!(status, 200);
        assert_eq!(body, "POST:4");
        // Other methods stay 405.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "PUT /v1/thing HTTP/1.1\r\n\r\n").unwrap();
        let (status, _, _) = read_response(stream);
        assert_eq!(status, 405);
        // An oversized declared body is a 413 before any buffering.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /v1/thing HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            crate::http::MAX_BODY_BYTES + 1
        )
        .unwrap();
        let (status, _, _) = read_response(stream);
        assert_eq!(status, 413);
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "utter nonsense\r\n\r\n").unwrap();
        let (status, _, _) = read_response(stream);
        assert_eq!(status, 400);
        shutdown.stop();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn saturated_queue_still_answers_health_probes_via_fast_lane() {
        // One worker parked + queue of one ⇒ every further connection
        // overflows to the fast lane: health and metrics probes are
        // served there, anything else gets the busy 503.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| {
            if req.path == "/healthz" {
                return Response::json(200, "{\"status\":\"ok\"}\n")
                    .endpoint(ServeEndpoint::Healthz);
            }
            gate_rx.lock().unwrap().recv().ok();
            Response::text(200, "slow")
        });
        // Fast-lane requests run under the same request span as pool
        // requests; the global tracer collects it.
        let tracer = trace::install();
        #[derive(Clone, Default)]
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = SharedSink::default();
        let log_buf = Arc::clone(&sink.0);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 1,
            retry_after_secs: 2,
            access_log: Some(AccessLog::from_writer(Box::new(sink))),
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        let send_slow = || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /slow HTTP/1.1\r\n\r\n").unwrap();
            stream.flush().unwrap();
            stream
        };
        let wait_for = |what: &str, reached: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !reached() {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "never reached: {what}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let slow_a = send_slow();
        wait_for("request A in the handler", &|| {
            metrics.in_flight.load(Ordering::Relaxed) == 1
        });
        let slow_b = send_slow();
        wait_for("request B parked in the queue", &|| {
            metrics.queue_depth.load(Ordering::Relaxed) == 1
        });
        // Saturated. Health probes keep answering — several in a row.
        let mut probe_ids = Vec::new();
        for _ in 0..3 {
            let (status, headers, body) = get(addr, "/healthz");
            assert_eq!(status, 200, "health probe blinded under saturation");
            assert!(body.contains("ok"), "{body}");
            let id = headers
                .iter()
                .find_map(|h| h.strip_prefix("X-Request-Id: "))
                .expect("fast-lane response carries X-Request-Id");
            probe_ids.push(id.to_string());
        }
        // A classify overflowing at the same moment is bounced.
        let (status, headers, _) = get(addr, "/v1/classify");
        assert_eq!(status, 503);
        assert!(headers.iter().any(|h| h == "Retry-After: 2"), "{headers:?}");
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        for stream in [slow_a, slow_b] {
            let (status, _, _) = read_response(stream);
            assert_eq!(status, 200);
        }
        shutdown.stop();
        join.join().unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.fastlane_hits, 3);
        assert_eq!(s.rejected_busy, 1);
        assert_eq!(s.latency.healthz.count, 3);
        // Fast-lane successes count as requests; the bounce does not —
        // its latency lands in the rejected histogram instead.
        assert_eq!(s.requests, 5);
        assert_eq!(s.latency.rejected.count, 1);
        assert_eq!(s.worker_panics, 0);
        // Each fast-lane probe left one access-log line and one request
        // span, both joined to its response by the request id.
        let log = String::from_utf8(log_buf.lock().unwrap().clone()).unwrap();
        let mut trace = Vec::new();
        tracer.drain_chrome_json(&mut trace).unwrap();
        let trace = String::from_utf8(trace).unwrap();
        for id in &probe_ids {
            let needle = format!("\"request_id\":\"{id}\"");
            let line = log
                .lines()
                .find(|l| l.contains(&needle))
                .unwrap_or_else(|| panic!("no access-log line for {id}: {log}"));
            assert!(line.contains("\"cost_class\":\"probe\""), "{line}");
            assert!(line.contains("\"endpoint\":\"healthz\""), "{line}");
            assert!(line.contains("\"status\":200"), "{line}");
            assert!(
                trace.lines().any(|l| l.contains("\"ph\":\"B\"")
                    && l.contains("\"name\":\"request\"")
                    && l.contains(&needle)),
                "no request span for fast-lane probe {id}"
            );
        }
    }

    #[test]
    fn fast_lane_handler_panic_answers_500_and_the_lane_keeps_serving() {
        // Saturate the pool (one worker parked, queue of one) so probes
        // overflow to the fast lane, where `/metrics` panics.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| match req.path.as_str() {
            "/metrics" => panic!("metrics handler bug"),
            "/healthz" => Response::json(200, "{\"status\":\"ok\"}\n"),
            _ => {
                gate_rx.lock().unwrap().recv().ok();
                Response::text(200, "slow")
            }
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 1,
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        let send_slow = || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /slow HTTP/1.1\r\n\r\n").unwrap();
            stream
        };
        let wait_for = |what: &str, reached: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !reached() {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "never reached: {what}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let slow_a = send_slow();
        wait_for("request A in the handler", &|| {
            metrics.in_flight.load(Ordering::Relaxed) == 1
        });
        let slow_b = send_slow();
        wait_for("request B parked in the queue", &|| {
            metrics.queue_depth.load(Ordering::Relaxed) == 1
        });
        let (status, headers, _) = get(addr, "/metrics");
        assert_eq!(status, 500);
        assert!(
            headers.iter().any(|h| h.starts_with("X-Request-Id: ")),
            "{headers:?}"
        );
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "fast lane died with its handler");
        assert!(body.contains("ok"), "{body}");
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        for stream in [slow_a, slow_b] {
            assert_eq!(read_response(stream).0, 200);
        }
        shutdown.stop();
        join.join().unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.fastlane_hits, 2);
        assert_eq!(s.requests, 4);
        assert_eq!(s.rejected_busy, 0);
    }

    #[test]
    fn cost_classes_partition_the_api() {
        use CostClass::*;
        assert_eq!(cost_class("GET", "/healthz"), Probe);
        assert_eq!(cost_class("GET", "/metrics"), Probe);
        assert_eq!(cost_class("GET", "/v1/classify"), Heavy);
        assert_eq!(cost_class("GET", "/v1/classify?x=1"), Heavy);
        assert_eq!(cost_class("GET", "/v1/classify/3215"), Cheap);
        assert_eq!(cost_class("GET", "/v1/series/3215"), Cheap);
        assert_eq!(cost_class("GET", "/v1/populations"), Cheap);
        assert_eq!(cost_class("GET", "/nonsense"), Cheap);
        assert_eq!(cost_class("POST", "/v1/traceroutes"), Intake);
        // A POST to a GET-only path is not intake work.
        assert_eq!(cost_class("POST", "/v1/classify"), Cheap);
        assert_eq!(cost_class("POST", "/healthz"), Cheap);
    }

    #[test]
    fn request_ids_echo_and_access_log_joins_served_and_shed_requests() {
        // A shared in-memory sink stands in for the access-log file.
        #[derive(Clone, Default)]
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = SharedSink::default();
        let buf = Arc::clone(&sink.0);
        let handler: Arc<Handler> = Arc::new(|_req: &Request| {
            Response::json(200, "{\"ok\":true}\n")
                .header("X-Epoch", "7")
                .endpoint(ServeEndpoint::Series)
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 8,
            retry_after_secs: 1,
            access_log: Some(AccessLog::from_writer(Box::new(sink))),
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        // A well-formed client id is echoed verbatim.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /v1/series/3320 HTTP/1.1\r\nX-Request-Id: client-id.1\r\n\r\n"
        )
        .unwrap();
        let (status, headers, _) = read_response(stream);
        assert_eq!(status, 200);
        assert!(
            headers.iter().any(|h| h == "X-Request-Id: client-id.1"),
            "client id not echoed: {headers:?}"
        );
        // A malformed id (space) is replaced by a generated one.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /v1/series/3320 HTTP/1.1\r\nX-Request-Id: bad id\r\n\r\n"
        )
        .unwrap();
        let (status, headers, _) = read_response(stream);
        assert_eq!(status, 200);
        let generated = headers
            .iter()
            .find_map(|h| h.strip_prefix("X-Request-Id: "))
            .expect("generated id header")
            .to_string();
        assert_ne!(generated, "bad id");
        assert!(
            generated.contains('-') && generated.len() > 10,
            "{generated}"
        );
        shutdown.stop();
        join.join().unwrap().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one log line per request: {text}");
        assert!(
            lines[0].contains("\"request_id\":\"client-id.1\""),
            "{text}"
        );
        assert!(lines[0].contains("\"endpoint\":\"series\""), "{text}");
        assert!(lines[0].contains("\"cost_class\":\"cheap\""), "{text}");
        assert!(lines[0].contains("\"status\":200"), "{text}");
        assert!(lines[0].contains("\"epoch\":7"), "{text}");
        assert!(lines[0].contains("\"shed_reason\":\"\""), "{text}");
        assert!(
            lines[1].contains(&format!("\"request_id\":\"{generated}\"")),
            "{text}"
        );
        assert_eq!(metrics.snapshot().worker_panics, 0);
    }

    #[test]
    fn over_budget_sheds_are_access_logged_with_a_reason() {
        #[derive(Clone, Default)]
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = SharedSink::default();
        let buf = Arc::clone(&sink.0);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| {
            if req.path == "/v1/classify" {
                gate_rx.lock().unwrap().recv().ok();
            }
            Response::text(200, "done")
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 8,
            retry_after_secs: 1,
            budget_heavy: 1,
            access_log: Some(AccessLog::from_writer(Box::new(sink))),
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        let mut heavy_a = TcpStream::connect(addr).unwrap();
        write!(heavy_a, "GET /v1/classify HTTP/1.1\r\n\r\n").unwrap();
        heavy_a.flush().unwrap();
        let t0 = Instant::now();
        while metrics.admission.heavy.in_flight.load(Ordering::Relaxed) != 1 {
            assert!(t0.elapsed() < Duration::from_secs(5), "budget never taken");
            std::thread::sleep(Duration::from_millis(2));
        }
        let (status, headers, _) = get(addr, "/v1/classify");
        assert_eq!(status, 503);
        assert!(
            headers.iter().any(|h| h.starts_with("X-Request-Id: ")),
            "shed responses still carry a request id: {headers:?}"
        );
        gate_tx.send(()).unwrap();
        let (status, _, _) = read_response(heavy_a);
        assert_eq!(status, 200);
        shutdown.stop();
        join.join().unwrap().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let shed_line = text
            .lines()
            .find(|l| l.contains("\"status\":503"))
            .expect("shed line in access log");
        assert!(
            shed_line.contains("\"shed_reason\":\"over_budget\""),
            "{text}"
        );
        assert!(shed_line.contains("\"cost_class\":\"heavy\""), "{text}");
        assert!(shed_line.contains("\"endpoint\":\"rejected\""), "{text}");
        assert!(shed_line.contains("\"path\":\"/v1/classify\""), "{text}");
    }

    #[test]
    fn adaptive_retry_after_scales_with_backlog() {
        // Merely full (occupancy == capacity): exactly the base.
        assert_eq!(adaptive_retry_after(3, 2, 2), 3);
        assert_eq!(adaptive_retry_after(3, 0, 2), 3);
        // One capacity's worth over: double.
        assert_eq!(adaptive_retry_after(3, 4, 2), 6);
        // Deep backlog clamps at 8× base.
        assert_eq!(adaptive_retry_after(3, 1_000, 2), 24);
        // Degenerate capacity never divides by zero.
        assert_eq!(adaptive_retry_after(1, 5, 0), 5);
    }

    #[test]
    fn over_budget_heavy_sheds_while_cheap_is_served() {
        // Two workers but a heavy budget of one: with a heavy request
        // parked in the handler, a second heavy must shed 503 (naming
        // its class) while a cheap request sails through on the free
        // worker.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| {
            if req.path == "/v1/classify" {
                gate_rx.lock().unwrap().recv().ok();
                return Response::text(200, "heavy").endpoint(ServeEndpoint::Classify);
            }
            Response::text(200, "cheap")
        });
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 8,
            retry_after_secs: 1,
            budget_heavy: 1,
            ..ServerConfig::default()
        };
        let (addr, metrics, shutdown, join) = spawn_server(config, handler);
        let mut heavy_a = TcpStream::connect(addr).unwrap();
        write!(heavy_a, "GET /v1/classify HTTP/1.1\r\n\r\n").unwrap();
        heavy_a.flush().unwrap();
        let t0 = Instant::now();
        while metrics.admission.heavy.in_flight.load(Ordering::Relaxed) != 1 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "heavy request never acquired its budget slot"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // Budget exhausted: the second heavy request sheds.
        let (status, headers, body) = get(addr, "/v1/classify");
        assert_eq!(status, 503);
        assert!(
            headers.iter().any(|h| h.starts_with("Retry-After: ")),
            "{headers:?}"
        );
        assert!(body.contains("\"error\":\"over budget\""), "{body}");
        assert!(body.contains("\"cost_class\":\"heavy\""), "{body}");
        // Cheap traffic still finds the free worker.
        let (status, _, body) = get(addr, "/v1/populations");
        assert_eq!(status, 200);
        assert_eq!(body, "cheap");
        gate_tx.send(()).unwrap();
        let (status, _, _) = read_response(heavy_a);
        assert_eq!(status, 200);
        shutdown.stop();
        join.join().unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.admission.heavy.budget, 1);
        assert_eq!(s.admission.heavy.admitted, 1);
        assert_eq!(s.admission.heavy.shed, 1);
        assert_eq!(s.admission.heavy.in_flight, 0);
        // Auto budgets resolve to the worker count.
        assert_eq!(s.admission.cheap.budget, 2);
        assert_eq!(s.admission.intake.budget, 2);
        assert_eq!(s.admission.cheap.shed, 0);
        // The shed answered without a handler: latency lands in the
        // rejected histogram, not in requests.
        assert_eq!(s.requests, 2);
        assert_eq!(s.latency.rejected.count, 1);
        assert_eq!(s.rejected_busy, 0, "budget sheds are not queue sheds");
        assert_eq!(s.worker_panics, 0);
    }
}
