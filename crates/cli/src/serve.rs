//! `lastmile serve`: the always-on congestion observatory daemon.
//!
//! Startup runs the exact `classify` analysis (same flags, same
//! one-pass ingest; without live intake, the same series cache — a
//! warm `--cache-dir` snapshot skips recomputation), then serves the
//! results over a bounded worker pool (`lastmile-serve`) until
//! SIGTERM/SIGINT:
//!
//! | endpoint                      | payload                                             |
//! |-------------------------------|-----------------------------------------------------|
//! | `GET /v1/classify`            | the full `classify --json` document, byte-identical |
//! | `GET /v1/classify/{asn}`      | one ASN's classification document                   |
//! | `GET /v1/series/{asn}?from=&to=` | aggregated queuing-delay bins (half-open window) |
//! | `GET /v1/populations[?format=csv]` | the per-population stats table (JSON or CSV)   |
//! | `POST /v1/traceroutes`        | live intake: JSON Lines body → spool → re-analysis |
//! | `GET /healthz`                | liveness (fast lane: answers even when saturated)   |
//! | `GET /metrics`                | `{run, serve, live}` JSON (fast lane)               |
//!
//! # Live re-ingest
//!
//! With `--watch` and/or `--live-spool`, the daemon keeps ingesting
//! after startup: `--watch` polls the corpus file for records appended
//! past the length the startup read covered, and `--live-spool FILE`
//! enables `POST /v1/traceroutes` (accepted records are appended to the
//! spool, which is part of the analysis corpus from startup). Either
//! intake path decodes its records once and hands the rows to the engine
//! through one call; after a fixed [`REANALYZE_DEBOUNCE`] window the
//! engine folds them into the columns the startup read kept (a
//! [`Corpus`]), analyses again only what they reached and publishes the
//! result as a new **epoch**: a population no row reached keeps its last
//! analysis, and in one that was reached only the probes fed are binned
//! again ([`Corpus::analyze`]; the memo is dropped when the resolved
//! window moves). A pass decodes nothing it has already read, so its
//! cost follows the appended records and the probes they feed, not the
//! corpus size. Only a truncated or rotated corpus makes a pass re-read
//! the files, each up to the length the taken intake reaches, and
//! analyse everything afresh. Every live read of a file is bounded so: the
//! startup read stops where the watcher starts, so an append landing
//! mid-startup is folded once, by the first poll. A watched last line
//! with no newline yet, which the watcher leaves and a cold read
//! decodes, is analysed as a provisional tail and read afresh by each
//! pass ([`Corpus::read_tail`]). `--probes` and `--bgp` are read by the
//! startup read and by a rebuild only.
//! Publishing is an RCU-style atomic snapshot swap. In-flight
//! readers keep the epoch they started with (the `X-Epoch` header names
//! it) and never block on re-analysis. At any instant `GET /v1/classify`
//! is byte-identical to a cold `classify --json` over corpus + spool.
//!
//! A live daemon keeps no series store: the store memoizes one batch
//! pass over one window, so `--watch`/`--live-spool` refuse `--cache-dir`
//! and `--cache` before the corpus is read. Shutdown drains queued and
//! in-flight requests, polls the watcher once more, and drains any
//! pending re-analysis. A non-live daemon saves its snapshot once, at
//! start-up, as `classify` does.

use crate::classify::{
    analyze_file, classification_doc, classification_json, read_and_analyze, Analyses, Corpus,
    Recomputed,
};
use crate::input::{create_parent_dirs, flag_window, quarantine_doc};
use crate::stats::{emit_stats, wants_stats};
use crate::Flags;
use lastmile_repro::core::pipeline::PopulationAnalysis;
use lastmile_repro::live::{
    intake_body, newline_aligned_len, AppendWatcher, Batch, Epoch, LiveEngine, LiveHandle, Source,
    Spool,
};
use lastmile_repro::obs::ops::{now_unix_ms, TimelineSampler, TIMELINE_METRICS};
use lastmile_repro::obs::{
    prom, EpochRecord, EpochTelemetry, LiveMetrics, LiveMetricsSnapshot, OpsTimeline, RunMetrics,
    RunMetricsSnapshot, ServeEndpoint, ServeMetrics, ServeMetricsSnapshot, StageTimer, Ticker,
};
use lastmile_repro::prefix::Asn;
use lastmile_repro::serve::http::{Request, Response};
use lastmile_repro::serve::server::Handler;
use lastmile_repro::serve::{signal, AccessLog, Server, ServerConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long the live engine waits after the first intake before it runs
/// a pass: intake landing inside the window joins that pass, and a POST's
/// acknowledgement reaches its client before the pass it triggered starts.
const REANALYZE_DEBOUNCE: Duration = Duration::from_millis(250);

/// One fully-rendered analysis generation: everything a request needs,
/// immutable once published. Re-analysis builds the next one off to the
/// side and swaps it in via the [`Epoch`] cell.
struct AnalysisSnapshot {
    /// Exact `classify --json` bytes for `GET /v1/classify`.
    classify_all: String,
    /// Pre-rendered single-ASN documents.
    classify_by_asn: BTreeMap<Asn, String>,
    /// Aggregated signal points per ASN for `/v1/series`.
    series_by_asn: BTreeMap<Asn, SeriesData>,
    /// The run metrics of the analysis that produced this snapshot
    /// (startup or one re-analysis); `/metrics.run` and
    /// `/v1/populations` stay consistent with the classification.
    run: RunMetricsSnapshot,
}

/// Live-intake plumbing, present when `--watch`/`--live-spool` enabled.
struct LiveState {
    handle: LiveHandle,
    /// POST spool; `None` when only `--watch` is on (POST then 409s).
    spool: Option<Arc<Spool>>,
}

/// Everything the request handler needs, built once before the first
/// `accept`. Classification responses live in the epoch cell; metrics
/// documents render per request so gauges stay live.
struct ServeState {
    epoch: Arc<Epoch<AnalysisSnapshot>>,
    serve_metrics: Arc<ServeMetrics>,
    live_metrics: Arc<LiveMetrics>,
    live: Option<LiveState>,
    /// Hidden test hook (`--serve-delay-ms`): sleep this long in the
    /// handler, so tests can park requests in flight deterministically.
    /// Health and metrics probes are exempt — the fast lane must stay
    /// fast even in tests that park everything else.
    delay: Option<Duration>,
    /// Hidden test hook (`--serve-heavy-delay-ms`): extra sleep applied
    /// only to the heavy endpoint (`GET /v1/classify`), so saturation
    /// tests can flood an expensive class while cheap endpoints stay
    /// genuinely fast.
    heavy_delay: Option<Duration>,
    /// Self-scraped metrics timeline for `GET /v1/ops/timeline`.
    timeline: Arc<OpsTimeline>,
    /// Per-pass re-analysis records for `GET /v1/ops/epochs`.
    telemetry: Arc<EpochTelemetry>,
}

/// One ASN's aggregated queuing-delay signal, ready to slice.
struct SeriesData {
    bin_seconds: i64,
    coverage: f64,
    max_ms: Option<f64>,
    /// `(bin start unix seconds, median queuing delay ms)`; `None` where
    /// the sanity filter left the bin empty.
    points: Vec<(i64, Option<f64>)>,
}

/// `GET /v1/series/{asn}` response document.
#[derive(Serialize)]
struct SeriesDoc {
    asn: Asn,
    bin_seconds: i64,
    from: i64,
    to: i64,
    coverage: f64,
    max_agg_delay_ms: Option<f64>,
    points: Vec<SeriesPoint>,
}

/// One aggregated bin: its start time and the population-median queuing
/// delay (`null` where the sanity filter left the bin empty).
#[derive(Serialize)]
struct SeriesPoint {
    t: i64,
    ms: Option<f64>,
}

/// `GET /metrics` response document.
#[derive(Serialize)]
struct MetricsDoc {
    run: RunMetricsSnapshot,
    serve: ServeMetricsSnapshot,
    live: LiveMetricsSnapshot,
}

/// Render the per-ASN analyses into one immutable snapshot.
fn build_snapshot(results: &Analyses, run: RunMetricsSnapshot) -> AnalysisSnapshot {
    AnalysisSnapshot {
        classify_all: classification_json(results),
        classify_by_asn: results
            .iter()
            .map(|(asn, a)| (*asn, render_one(*asn, a)))
            .collect(),
        series_by_asn: results
            .iter()
            .map(|(asn, a)| {
                (
                    *asn,
                    SeriesData {
                        bin_seconds: a.aggregated.bin().width_secs(),
                        coverage: a.aggregated.coverage(),
                        max_ms: a.aggregated.max(),
                        points: a.aggregated.iter().map(|(t, v)| (t.as_secs(), v)).collect(),
                    },
                )
            })
            .collect(),
        run,
    }
}

/// Swap in a new snapshot and record the swap in the live gauges.
fn publish_snapshot(
    epoch: &Epoch<AnalysisSnapshot>,
    live_metrics: &LiveMetrics,
    snapshot: AnalysisSnapshot,
) -> u64 {
    let swap_timer = StageTimer::start();
    let generation = epoch.publish(snapshot);
    live_metrics
        .swap_nanos
        .store(swap_timer.elapsed_nanos(), Ordering::Relaxed);
    live_metrics.epoch.store(generation, Ordering::Relaxed);
    generation
}

/// A live daemon's kept ingest state, shared by its passes.
struct Kept {
    /// The merged read plus every row folded since; `None` after a
    /// rebuild failed, until one succeeds.
    corpus: Option<Corpus>,
    /// How far into each union file the kept columns reach: the bounds
    /// of the startup read, advanced by every taken hand-off. A watched
    /// file's provisional tail ([`Corpus::read_tail`]) reaches past it.
    lens: Vec<u64>,
}

/// A pass's work counts, as its epoch record carries them.
fn pass_work(records_decoded: u64, recomputed: Recomputed) -> EpochRecord {
    EpochRecord {
        records_decoded,
        populations_reanalysed: recomputed.populations,
        probes_rebinned: recomputed.probes,
        ..EpochRecord::default()
    }
}

impl Kept {
    /// Fold one taken batch into the kept columns, read the watched
    /// file's tail afresh and analyse again what the batch and the tail
    /// reached ([`Corpus::analyze`]); returns the pass's work (records
    /// decoded: folded, plus the tail's) and the analyses. A rotated
    /// corpus, or a rebuild that failed before, re-reads the files up to
    /// the lengths every taken hand-off reaches, drops the batch's rows,
    /// which those bytes hold, and analyses everything afresh.
    fn pass(
        &mut self,
        flags: &Flags,
        paths: &[String],
        batch: Batch,
        run: &RunMetrics,
    ) -> Result<(EpochRecord, Analyses), String> {
        if let Some(len) = batch.watched_len {
            self.lens[0] = len;
        }
        if let Some(len) = batch.spool_len {
            self.lens[1] = len;
        }
        match self.corpus.as_mut() {
            Some(corpus) if !batch.rebuild => {
                let mut decoded = corpus.fold_rows(batch.rows, batch.quarantined, run);
                if flags.switch("watch") {
                    decoded += corpus.read_tail(&paths[0], self.lens[0], Some(run));
                }
                corpus.write_quarantine(flags)?;
                let (results, recomputed) = corpus.analyze(Some(run), None)?;
                Ok((pass_work(decoded, recomputed), results))
            }
            _ => {
                self.corpus = None;
                let (corpus, results, recomputed) =
                    read_and_analyze(flags, paths, Some(&self.lens), Some(run), None)?;
                let work = pass_work(corpus.records_read(), recomputed);
                self.corpus = Some(corpus);
                Ok((work, results))
            }
        }
    }
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let corpus = flags.required("traceroutes")?.to_string();
    // An empty flag window fails before anything opens the corpus.
    flag_window(flags)?;
    let watch = flags.switch("watch");
    let live_enabled = watch || flags.optional("live-spool").is_some();
    if live_enabled && (flags.optional("cache-dir").is_some() || flags.optional("cache").is_some())
    {
        return Err("--cache-dir and --cache are for batch runs: a live daemon \
                    (--watch/--live-spool) keeps no series store"
            .into());
    }
    // Where the watcher starts, measured BEFORE the startup read: the
    // read stops here, and appends that land mid-read are left to the
    // first poll instead of being folded twice or silently skipped.
    // Newline-aligned, not a bare metadata length: a collector append
    // can be mid-record right now, and an offset inside that record
    // would make the watcher's first poll frame the record's tail as
    // quarantined junk.
    let corpus_len0 = newline_aligned_len(&corpus);
    let spool: Option<Arc<Spool>> = flags
        .optional("live-spool")
        .map(|p| Spool::open(p).map_err(|e| format!("open --live-spool {p}: {e}")))
        .transpose()?
        .map(Arc::new);
    // The analysis corpus: the traceroute file plus (in live mode) the
    // POST spool. Both cold `classify` over these paths and every
    // re-analysis see the same union, which is what makes the
    // byte-identity contract hold.
    let mut paths = vec![corpus.clone()];
    if let Some(s) = &spool {
        paths.push(s.path().display().to_string());
    }

    // Metrics are always collected: `/metrics` serves them.
    let metrics = Arc::new(RunMetrics::new());
    let run_timer = StageTimer::start();
    let (results, kept) = if live_enabled {
        // Every live read of a file stops at a recorded length: the
        // watcher's start offset for a watched corpus, else the length
        // each file has now.
        let mut lens = file_lens(&paths)?;
        if watch {
            lens[0] = corpus_len0;
        }
        let (corpus, results, _) =
            read_and_analyze(flags, &paths, Some(&lens), Some(&metrics), None)?;
        let kept = Kept {
            corpus: Some(corpus),
            lens,
        };
        (results, Some(Arc::new(Mutex::new(kept))))
    } else {
        (analyze_file(flags, &corpus, Some(&metrics))?, None)
    };
    metrics.set_wall(&run_timer);
    if results.is_empty() {
        return Err("no analysable traceroutes in the window".into());
    }
    let populations = results.len();

    let serve_metrics = Arc::new(ServeMetrics::new());
    let live_metrics = Arc::new(LiveMetrics::default());
    // Ops plane: the epoch-telemetry ring fills as re-analyses run; the
    // timeline ring fills from the sampler thread below. Both exist
    // even when their producers are disabled, so the `/v1/ops/*`
    // endpoints always answer (with empty rings) instead of 404ing
    // based on configuration.
    let telemetry = Arc::new(EpochTelemetry::new());
    let timeline = Arc::new(OpsTimeline::new());
    // The analyses live on only in a live corpus's memo.
    let epoch = Arc::new(Epoch::new(build_snapshot(&results, metrics.snapshot())));
    drop(results);
    live_metrics
        .epoch
        .store(epoch.generation(), Ordering::Relaxed);

    // The live engine: debounced re-analysis, wired to this daemon's
    // kept columns and epoch cell through one closure so `lastmile-live`
    // stays free of CLI types.
    let engine = kept.as_ref().map(|kept| {
        let reanalyze = {
            let flags = flags.clone();
            let paths = paths.clone();
            let epoch = Arc::clone(&epoch);
            let live_metrics = Arc::clone(&live_metrics);
            let kept = Arc::clone(kept);
            Box::new(move |batch: Batch| -> Result<EpochRecord, String> {
                // A fresh RunMetrics per re-analysis: each epoch's
                // `/metrics.run` and `/v1/populations` describe exactly
                // the run that produced it, not an accumulation.
                let run = RunMetrics::new();
                let timer = StageTimer::start();
                let mut kept = kept.lock().expect("kept corpus lock");
                let (work, results) = kept.pass(&flags, &paths, batch, &run)?;
                drop(kept);
                run.set_wall(&timer);
                if results.is_empty() {
                    return Err("no analysable traceroutes in the window".into());
                }
                let snapshot = build_snapshot(&results, run.snapshot());
                let generation = publish_snapshot(&epoch, &live_metrics, snapshot);
                eprintln!(
                    "[live] epoch {generation}: {} population(s) published, {} re-analysed",
                    results.len(),
                    work.populations_reanalysed
                );
                Ok(work)
            })
        };
        LiveEngine::start(
            REANALYZE_DEBOUNCE,
            Arc::clone(&live_metrics),
            Arc::clone(&telemetry),
            reanalyze,
        )
    });
    // The corpus watcher: one more intake producer, polled on its own
    // ticker every `--watch-poll-ms` (at least 10 ms, so 0 cannot spin).
    let watcher = match &engine {
        Some(engine) if watch => {
            let poll_ms = flags.parsed::<u64>("watch-poll-ms")?.unwrap_or(200);
            let period = Duration::from_millis(poll_ms.max(10));
            let handle = engine.handle();
            let watcher = AppendWatcher::new(&corpus, corpus_len0);
            Some(Ticker::start("live-watch", period, watcher, move |w| {
                handle.poll_watcher(w)
            }))
        }
        _ => None,
    };

    let state = Arc::new(ServeState {
        epoch: Arc::clone(&epoch),
        serve_metrics: Arc::clone(&serve_metrics),
        live_metrics: Arc::clone(&live_metrics),
        live: engine.as_ref().map(|e| LiveState {
            handle: e.handle(),
            spool: spool.clone(),
        }),
        delay: flags
            .parsed::<u64>("serve-delay-ms")?
            .map(Duration::from_millis),
        heavy_delay: flags
            .parsed::<u64>("serve-heavy-delay-ms")?
            .map(Duration::from_millis),
        timeline: Arc::clone(&timeline),
        telemetry: Arc::clone(&telemetry),
    });

    // `--access-log FILE`: structured request logs via a bounded
    // non-blocking writer (see `lastmile_serve::access`).
    let access_log = match flags.optional("access-log") {
        Some(path) => {
            create_parent_dirs("access-log", path)?;
            Some(
                AccessLog::create(std::path::Path::new(path))
                    .map_err(|e| format!("open --access-log {path}: {e}"))?,
            )
        }
        None => None,
    };

    let config = ServerConfig {
        addr: flags
            .optional("addr")
            .unwrap_or("127.0.0.1:8437")
            .to_string(),
        workers: flags.thread_count("serve-workers")?.unwrap_or(4),
        queue: flags.parsed::<usize>("serve-queue")?.unwrap_or(16),
        retry_after_secs: flags.parsed::<u64>("retry-after")?.unwrap_or(1),
        budget_heavy: flags.parsed::<usize>("serve-budget-heavy")?.unwrap_or(0),
        access_log,
    };
    let server = Server::bind(config.clone(), Arc::clone(&serve_metrics))
        .map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = server.local_addr();
    // SIGTERM/SIGINT stop the server from a detached thread that blocks
    // until the signal arrives; armed before the ready file announces
    // the daemon.
    signal::install().map_err(|e| format!("install signal handlers: {e}"))?;
    let stop = server.stop_handle();
    std::thread::Builder::new()
        .name("signal-wait".into())
        .spawn(move || {
            signal::wait();
            stop.stop();
        })
        .expect("spawn signal waiter");
    eprintln!(
        "[serve] listening on {addr} ({} workers, queue {}, {} population(s){})",
        config.workers.max(1),
        config.queue.max(1),
        populations,
        if live_enabled { ", live" } else { "" }
    );
    // Test/orchestration hook: the actual bound address (the port is
    // ephemeral under `--addr host:0`), written once ready to accept.
    if let Some(path) = flags.optional("ready-file") {
        create_parent_dirs("ready-file", path)?;
        let mut contents = addr.to_string();
        contents.push('\n');
        std::fs::write(path, contents).map_err(|e| format!("write --ready-file {path}: {e}"))?;
    }

    // Self-scrape sampler: snapshot the metrics surface into the
    // timeline ring every `--ops-sample-ms` (default 1s; 0 disables).
    let sample_ms = flags.parsed::<u64>("ops-sample-ms")?.unwrap_or(1000);
    let sampler = if sample_ms > 0 {
        let (timeline, live, serve) = (timeline, live_metrics, Arc::clone(&serve_metrics));
        // One sample now, then one per tick (see [`TimelineSampler`]
        // for how rates and levels are read).
        let sample = move |sampler: &mut TimelineSampler| {
            timeline.push(sampler.sample(&serve.snapshot(), &live.snapshot(), now_unix_ms()));
        };
        let mut sampler = TimelineSampler::default();
        sample(&mut sampler);
        let period = Duration::from_millis(sample_ms.max(10));
        Some(Ticker::start("ops-sampler", period, sampler, sample))
    } else {
        None
    };

    let handler: Arc<Handler> = Arc::new(move |req: &Request| route(req, &state));
    let run_result = server
        .run(handler)
        .map_err(|e| format!("serve on {addr}: {e}"));
    if let Some(sampler) = sampler {
        sampler.stop();
    }
    run_result?;
    // Drain live intake before reporting: stop the watcher's ticker and
    // poll once more, so an append that landed after its last tick still
    // counts; then a re-analysis in flight finishes and a pending one
    // (even mid-debounce) runs and swaps its epoch, so every accepted
    // append is analysed before the daemon exits.
    if let Some(engine) = engine {
        if let Some(watcher) = watcher {
            engine.handle().poll_watcher(&mut watcher.stop());
        }
        engine.shutdown();
    }
    let served = serve_metrics.requests.load(Ordering::Relaxed);
    eprintln!("[serve] shutdown: drained, {served} request(s) served");
    if wants_stats(flags) {
        emit_stats(flags, &metrics)?;
    }
    Ok(())
}

/// The byte lengths of the union-corpus files, in `paths` order.
fn file_lens(paths: &[String]) -> Result<Vec<u64>, String> {
    paths
        .iter()
        .map(|p| {
            std::fs::metadata(p)
                .map(|m| m.len())
                .map_err(|e| format!("open {p}: {e}"))
        })
        .collect()
}

/// Pretty-print one ASN's document with a trailing newline (the same
/// rendering `classify --json` gives the array elements).
fn render_one(asn: Asn, a: &PopulationAnalysis) -> String {
    let mut s = serde_json::to_string_pretty(&classification_doc(asn, a)).expect("json encodes");
    s.push('\n');
    s
}

/// Tag a `/v1` response with the epoch its data came from, so clients
/// (and the consistency tests) can tell which generation they observed.
fn with_epoch(resp: Response, generation: u64) -> Response {
    resp.header("X-Epoch", generation.to_string())
}

fn route(req: &Request, state: &ServeState) -> Response {
    if let Some(delay) = state.delay {
        // The fast-lane endpoints stay exempt from the test-hook delay:
        // parking /healthz would defeat the saturation tests' purpose.
        if req.path != "/healthz" && req.path != "/metrics" {
            std::thread::sleep(delay);
        }
    }
    if let Some(delay) = state.heavy_delay {
        if req.method == "GET" && req.path == "/v1/classify" {
            std::thread::sleep(delay);
        }
    }
    if req.path == "/v1/traceroutes" {
        return if req.method == "POST" {
            ingest(req, state)
        } else {
            Response::json(405, "{\"error\":\"POST here\"}\n")
        };
    }
    if req.method != "GET" {
        return Response::json(405, "{\"error\":\"only GET here\"}\n");
    }
    match req.path.as_str() {
        "/healthz" => Response::json(200, "{\"status\":\"ok\"}\n").endpoint(ServeEndpoint::Healthz),
        "/metrics" => metrics_response(req, state),
        "/v1/ops/timeline" => ops_timeline(req, state),
        "/v1/ops/epochs" => ops_epochs(state),
        "/v1/classify" => {
            let (generation, snap) = state.epoch.read();
            with_epoch(
                Response::json(200, snap.classify_all.clone()).endpoint(ServeEndpoint::Classify),
                generation,
            )
        }
        "/v1/populations" => populations(req, state),
        path => {
            if let Some(rest) = path.strip_prefix("/v1/classify/") {
                classify_one(rest, state)
            } else if let Some(rest) = path.strip_prefix("/v1/series/") {
                series(rest, req, state)
            } else {
                Response::json(404, "{\"error\":\"no such endpoint\"}\n")
            }
        }
    }
}

/// `GET /metrics`: the `{run, serve, live}` JSON document, or the
/// Prometheus text exposition when the client asks for it —
/// `?format=prom` explicitly, or (with no `format` given) an `Accept`
/// header naming `text/plain`. An explicit `?format=json` always wins,
/// so scripted consumers are immune to whatever `Accept` their client
/// sends; curl's default `Accept: */*` keeps getting JSON, so default
/// behaviour is byte-identical to before the ops plane existed.
fn metrics_response(req: &Request, state: &ServeState) -> Response {
    let (_, snap) = state.epoch.read();
    let live = state.live_metrics.snapshot();
    let prom_wanted = match req.query_param("format") {
        Some("prom") => true,
        Some("json") | Some("") => false,
        None => req
            .header("accept")
            .is_some_and(|a| a.contains("text/plain")),
        Some(other) => return bad_request(format!("unknown format {other:?} (json|prom)")),
    };
    if prom_wanted {
        Response::prom(
            200,
            prom::render(&snap.run, &state.serve_metrics.snapshot(), &live),
        )
    } else {
        let doc = MetricsDoc {
            run: snap.run.clone(),
            serve: state.serve_metrics.snapshot(),
            live,
        };
        let mut body = serde_json::to_string_pretty(&doc).expect("metrics doc encodes");
        body.push('\n');
        Response::json(200, body).endpoint(ServeEndpoint::Metrics)
    }
}

/// `GET /v1/ops/timeline?metric=&from=&to=`: slice the self-scraped
/// metrics timeline at the finest resolution that still covers `from`.
/// Bounds are unix seconds, half-open `[from, to)` — the same query
/// semantics as `/v1/series/{asn}`.
fn ops_timeline(req: &Request, state: &ServeState) -> Response {
    let metric = req
        .query_param("metric")
        .filter(|m| !m.is_empty())
        .unwrap_or("request_rate");
    if OpsTimeline::metric_index(metric).is_none() {
        return bad_request(format!(
            "unknown metric {metric:?} (one of: {})",
            TIMELINE_METRICS.join(", ")
        ));
    }
    let (from, to) = match (
        query_bound(req, "from", i64::MIN),
        query_bound(req, "to", i64::MAX),
    ) {
        (Ok(from), Ok(to)) => (from, to),
        (Err(resp), _) | (_, Err(resp)) => return resp,
    };
    let points = state.timeline.query(metric, from, to).unwrap_or_default();
    let doc = serde_json::json!({
        "metric": metric,
        "from": from,
        "to": to,
        "points": points,
    });
    Response::json(200, format!("{doc:#}\n"))
}

/// `GET /v1/ops/epochs`: the last-N re-analysis pass records, oldest
/// first (empty until live intake triggers a pass).
fn ops_epochs(state: &ServeState) -> Response {
    let doc = serde_json::json!({ "epochs": state.telemetry.snapshot() });
    Response::json(200, format!("{doc:#}\n"))
}

/// `POST /v1/traceroutes`: validate the body with the batch-ingest
/// framing/decoding (same quarantine taxonomy), spool accepted records,
/// and hand their decoded rows to the engine — under the spool lock, so
/// spool order is hand-off order (see [`intake_body`]).
fn ingest(req: &Request, state: &ServeState) -> Response {
    let resp = match &state.live {
        Some(LiveState {
            handle,
            spool: Some(spool),
        }) => {
            if req.body.is_empty() {
                Response::json(400, "{\"error\":\"empty body\"}\n")
            } else {
                match intake_body(&req.body, spool, |d| handle.intake(Source::Post, d)) {
                    Err(e) => Response::json(500, format!("{{\"error\":\"spool write: {e}\"}}\n")),
                    Ok(outcome) => {
                        let lm = &state.live_metrics;
                        let rejected: Vec<serde_json::Value> =
                            outcome.rejected.iter().map(quarantine_doc).collect();
                        lm.posts_rejected
                            .fetch_add(rejected.len() as u64, Ordering::Relaxed);
                        if outcome.accepted == 0 {
                            let body = serde_json::json!({
                                "error": "no record accepted",
                                "rejected": rejected,
                            });
                            Response::json(400, format!("{body:#}\n"))
                        } else {
                            lm.posts_accepted
                                .fetch_add(outcome.accepted, Ordering::Relaxed);
                            let body = serde_json::json!({
                                "accepted": outcome.accepted,
                                "rejected": rejected,
                            });
                            Response::json(200, format!("{body:#}\n"))
                        }
                    }
                }
            }
        }
        // --watch without --live-spool: the corpus is live but POST has
        // nowhere durable to put records.
        Some(LiveState { spool: None, .. }) | None => Response::json(
            409,
            "{\"error\":\"live ingest disabled; start serve with --live-spool FILE\"}\n",
        ),
    };
    resp.endpoint(ServeEndpoint::Ingest)
}

/// A 400 whose `{"error": ...}` body is encoded by serde_json, so a
/// message that quotes client input stays one parseable document.
fn bad_request(message: String) -> Response {
    let body = serde_json::json!({ "error": message });
    Response::json(400, format!("{body}\n"))
}

/// Parse the `{asn}` path segment (`0` is the "all probes" population).
fn parse_asn(segment: &str) -> Result<Asn, Response> {
    segment
        .parse::<Asn>()
        .map_err(|_| bad_request(format!("invalid asn {segment:?}")))
}

fn classify_one(segment: &str, state: &ServeState) -> Response {
    let (generation, snap) = state.epoch.read();
    let resp = match parse_asn(segment) {
        Ok(asn) => match snap.classify_by_asn.get(&asn) {
            Some(doc) => Response::json(200, doc.clone()),
            None => Response::json(404, format!("{{\"error\":\"unknown asn {asn}\"}}\n")),
        },
        Err(resp) => resp,
    };
    with_epoch(resp.endpoint(ServeEndpoint::Classify), generation)
}

/// Parse an integer query bound. Absent keys AND empty values
/// (`?from=&to=` — what a form with blank fields submits) mean
/// "unbounded" and fall back to `default`; anything else must parse or
/// the whole request 400s.
fn query_bound(req: &Request, key: &str, default: i64) -> Result<i64, Response> {
    match req.query_param(key) {
        None | Some("") => Ok(default),
        Some(v) => v
            .parse::<i64>()
            .map_err(|_| bad_request(format!("invalid {key}={v:?}"))),
    }
}

fn series(segment: &str, req: &Request, state: &ServeState) -> Response {
    let (generation, snap) = state.epoch.read();
    let resp = match (
        parse_asn(segment),
        query_bound(req, "from", i64::MIN),
        query_bound(req, "to", i64::MAX),
    ) {
        (Ok(asn), Ok(from), Ok(to)) => match snap.series_by_asn.get(&asn) {
            Some(data) => {
                // Half-open [from, to), like the analysis window.
                let points: Vec<SeriesPoint> = data
                    .points
                    .iter()
                    .filter(|(t, _)| *t >= from && *t < to)
                    .map(|&(t, ms)| SeriesPoint { t, ms })
                    .collect();
                let doc = SeriesDoc {
                    asn,
                    bin_seconds: data.bin_seconds,
                    from,
                    to,
                    coverage: data.coverage,
                    max_agg_delay_ms: data.max_ms,
                    points,
                };
                let mut body = serde_json::to_string_pretty(&doc).expect("series doc encodes");
                body.push('\n');
                Response::json(200, body)
            }
            None => Response::json(404, format!("{{\"error\":\"unknown asn {asn}\"}}\n")),
        },
        (Err(resp), _, _) | (_, Err(resp), _) | (_, _, Err(resp)) => resp,
    };
    with_epoch(resp.endpoint(ServeEndpoint::Series), generation)
}

fn populations(req: &Request, state: &ServeState) -> Response {
    let (generation, snap) = state.epoch.read();
    let resp = match req.query_param("format") {
        Some("csv") => Response::csv(200, snap.run.populations_csv()),
        None | Some("json") => {
            let mut body = serde_json::to_string_pretty(&snap.run.populations)
                .expect("population table encodes");
            body.push('\n');
            Response::json(200, body)
        }
        Some(other) => bad_request(format!("unknown format {other:?} (json|csv)")),
    };
    with_epoch(resp.endpoint(ServeEndpoint::Populations), generation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(query: &str) -> Request {
        Request {
            method: "GET".into(),
            path: "/v1/series/64500".into(),
            query: query.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn query_bound_defaults_on_absent_and_empty() {
        // `/v1/series/{asn}?from=&to=` — empty values mean "unbounded",
        // exactly like leaving the keys off.
        for q in ["", "from=&to=", "from=", "to="] {
            let r = req(q);
            assert_eq!(query_bound(&r, "from", i64::MIN), Ok(i64::MIN), "q={q:?}");
            assert_eq!(query_bound(&r, "to", i64::MAX), Ok(i64::MAX), "q={q:?}");
        }
    }

    #[test]
    fn query_bound_parses_values_and_rejects_junk() {
        let r = req("from=100&to=-5");
        assert_eq!(query_bound(&r, "from", i64::MIN), Ok(100));
        assert_eq!(query_bound(&r, "to", i64::MAX), Ok(-5));
        let bad = query_bound(&req("from=soon"), "from", i64::MIN).unwrap_err();
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8_lossy(&bad.body).contains("invalid from"));
        // A valueless pair is an empty value, not a parse error.
        assert_eq!(query_bound(&req("from"), "from", 7), Ok(7));
    }

    #[test]
    fn query_bound_uses_first_of_repeated_keys() {
        let r = req("from=1&from=2&to=&to=9");
        assert_eq!(query_bound(&r, "from", i64::MIN), Ok(1));
        // First `to` is empty ⇒ default wins even though a later
        // occurrence carries a value (first-wins, same as query_param).
        assert_eq!(query_bound(&r, "to", i64::MAX), Ok(i64::MAX));
    }
}
