//! The debounced re-analysis scheduler.
//!
//! One engine thread owns the corpus watcher and the re-analysis
//! closure. Intake events — watcher appends, `POST /v1/traceroutes`
//! notifications — mark the engine dirty; the first mark starts a
//! debounce window, and the re-analysis runs once the window closes, so
//! a burst of appends coalesces into one recompute instead of N. The
//! deadline is anchored to the *first* signal (not pushed by later
//! ones), so a continuous stream cannot starve re-analysis forever.
//!
//! Dirty state is cleared *before* the closure runs: signals landing
//! mid-analysis re-arm the window and trigger another pass, which is
//! how readers converge on the union corpus without the engine ever
//! holding intake back.
//!
//! Intake paths never invalidate the memoizing store themselves — they
//! *record* dirty probes (or, on truncation, "everything") in the engine
//! state, and each re-analysis pass snapshots-and-clears that record
//! (under the same lock that clears the dirty window) and hands it to
//! the re-analysis closure, which invalidates just before reading the
//! corpus.
//! Invalidating from the intake thread would race an in-flight
//! analysis: the analysis could insert a series built from bytes read
//! *before* the append, after the invalidation, resurrecting a stale
//! entry that the next pass would then cache-hit. With pass-start
//! invalidation the insert and the invalidation are sequenced on the
//! engine thread, so a dirty probe is always recomputed from bytes
//! that include its append.
//!
//! Shutdown drains: [`LiveEngine::shutdown`] lets an in-flight
//! re-analysis finish, then runs one final pass if signals are still
//! pending — so the epoch the daemon re-persists its cache under
//! reflects every accepted record, never a mix.

use crate::watch::{AppendWatcher, WatchPoll};
use lastmile_atlas::{LastMile, ProbeId};
use lastmile_ingest::ingest_slice;
use lastmile_obs::{ops::now_unix_ms, trace, EpochRecord, EpochTelemetry, LiveMetrics};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a re-analysis pass must invalidate before it reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invalidation {
    /// Probes with intake since the last pass (fresh records arrived
    /// for them). May repeat.
    pub probes: Vec<ProbeId>,
    /// The corpus was truncated/rotated: every memoized series is
    /// suspect, since the bytes it was built from may be gone.
    pub all: bool,
}

/// Invalidate what the pass was handed, re-run the analysis over the
/// union corpus and publish the next epoch. Runs on the engine thread
/// only, so the invalidation is sequenced after every earlier pass's
/// inserts and before this pass's read.
pub type ReanalyzeFn = Box<dyn FnMut(&Invalidation) -> Result<(), String> + Send>;

/// Scheduling knobs for [`LiveEngine::start`].
pub struct LiveConfig {
    /// Corpus append watcher (absent when only POST intake is enabled).
    pub watcher: Option<AppendWatcher>,
    /// Watcher poll cadence.
    pub poll_interval: Duration,
    /// Quiet window between the first intake signal and the re-analysis
    /// it triggers.
    pub debounce: Duration,
    /// Epoch telemetry ring every re-analysis pass records into (the
    /// `/v1/ops/epochs` flight recorder).
    pub telemetry: Arc<EpochTelemetry>,
}

/// Which intake paths signalled since the last pass snapshot-and-clear;
/// rendered into the epoch record's `trigger` field.
#[derive(Clone, Copy, Default)]
struct Triggers {
    watch_append: bool,
    watch_truncation: bool,
    post: bool,
}

impl Triggers {
    fn label(self) -> String {
        let mut parts = Vec::new();
        if self.watch_append {
            parts.push("watch_append");
        }
        if self.watch_truncation {
            parts.push("watch_truncation");
        }
        if self.post {
            parts.push("post");
        }
        if parts.is_empty() {
            "drain".to_string()
        } else {
            parts.join("+")
        }
    }
}

struct EngineState {
    /// When the current dirty window opened (None: clean).
    dirty_since: Option<Instant>,
    /// Probes with intake since the last re-analysis *started reading*;
    /// the next pass invalidates them before it reads. May repeat.
    dirty_probes: Vec<ProbeId>,
    /// Intake paths that signalled since the last pass; cleared with the
    /// dirty state so each epoch record attributes its own window. A
    /// watcher truncation also makes the next pass invalidate everything.
    triggers: Triggers,
    shutdown: bool,
}

struct Shared {
    metrics: Arc<LiveMetrics>,
    telemetry: Arc<EpochTelemetry>,
    state: Mutex<EngineState>,
    cond: Condvar,
}

/// Cloneable signalling endpoint for intake paths outside the engine
/// thread (the `POST /v1/traceroutes` handler).
#[derive(Clone)]
pub struct LiveHandle {
    shared: Arc<Shared>,
}

impl LiveHandle {
    /// The engine's metrics (shared with `/metrics`).
    pub fn metrics(&self) -> &Arc<LiveMetrics> {
        &self.shared.metrics
    }

    /// Mark the engine dirty (opens the debounce window if closed) and
    /// wake it.
    pub fn notify_dirty(&self) {
        self.notify_dirty_probes(&[]);
    }

    /// [`LiveHandle::notify_dirty`], additionally recording the probes
    /// whose memoized series the next re-analysis pass must invalidate
    /// before it reads the corpus. The caller must have durably
    /// appended the probes' records (spool/corpus) *before* calling:
    /// the recording happens-before the pass's snapshot-and-clear,
    /// which happens-before its read, so the recomputed series always
    /// covers the append.
    pub fn notify_dirty_probes(&self, probes: &[ProbeId]) {
        let mut state = self.shared.state.lock().expect("live state poisoned");
        state.dirty_probes.extend_from_slice(probes);
        state.triggers.post = true;
        state.dirty_since.get_or_insert_with(Instant::now);
        drop(state);
        self.shared.cond.notify_one();
    }
}

/// The engine thread plus its shared state; see the module docs.
pub struct LiveEngine {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveEngine {
    /// Spawn the engine thread.
    pub fn start(
        config: LiveConfig,
        metrics: Arc<LiveMetrics>,
        reanalyze: ReanalyzeFn,
    ) -> LiveEngine {
        let shared = Arc::new(Shared {
            metrics,
            telemetry: config.telemetry.clone(),
            state: Mutex::new(EngineState {
                dirty_since: None,
                dirty_probes: Vec::new(),
                triggers: Triggers::default(),
                shutdown: false,
            }),
            cond: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("live-engine".into())
                .spawn(move || engine_loop(&shared, config, reanalyze))
                .expect("spawn live engine")
        };
        LiveEngine {
            shared,
            thread: Some(thread),
        }
    }

    /// A signalling handle for other threads.
    pub fn handle(&self) -> LiveHandle {
        LiveHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop the engine: an in-flight re-analysis finishes, one final
    /// pass drains any still-pending signals, and the thread joins.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        {
            let mut state = self.shared.state.lock().expect("live state poisoned");
            state.shutdown = true;
        }
        self.shared.cond.notify_one();
        if thread.join().is_err() {
            eprintln!("[live] engine thread panicked during shutdown");
        }
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn engine_loop(shared: &Shared, config: LiveConfig, mut reanalyze: ReanalyzeFn) {
    let mut watcher = config.watcher;
    let debounce = config.debounce;
    loop {
        // Sleep until a signal, the watcher poll, or the debounce
        // deadline — whichever is nearest.
        let shutdown = {
            let mut state = shared.state.lock().expect("live state poisoned");
            if !state.shutdown {
                let now = Instant::now();
                let until_deadline = state.dirty_since.map(|t| {
                    (t + debounce)
                        .checked_duration_since(now)
                        .unwrap_or(Duration::ZERO)
                });
                let sleep = match (until_deadline, watcher.is_some()) {
                    (Some(d), true) => d.min(config.poll_interval),
                    (Some(d), false) => d,
                    (None, true) => config.poll_interval,
                    // Nothing to poll, nothing pending: wait for a
                    // notify (bounded, for robustness against a lost
                    // wakeup).
                    (None, false) => Duration::from_secs(3600),
                };
                if !sleep.is_zero() {
                    let (guard, _) = shared
                        .cond
                        .wait_timeout(state, sleep)
                        .expect("live state poisoned");
                    state = guard;
                }
            }
            state.shutdown
        };
        if shutdown {
            break;
        }
        if let Some(w) = watcher.as_mut() {
            process_poll(w.poll(), shared);
        }
        let due = {
            let state = shared.state.lock().expect("live state poisoned");
            let now = Instant::now();
            state.dirty_since.is_some_and(|t| now >= t + debounce)
        };
        if due {
            run_reanalysis(shared, &mut reanalyze);
        }
    }
    // Drain: signals accepted before shutdown must reach an epoch
    // before the daemon re-persists its snapshot.
    let pending = {
        let state = shared.state.lock().expect("live state poisoned");
        state.dirty_since.is_some()
    };
    if pending {
        eprintln!("[live] draining pending re-analysis before shutdown");
        run_reanalysis(shared, &mut reanalyze);
    }
}

/// Feed one watcher poll outcome into the dirty state.
fn process_poll(poll: WatchPoll, shared: &Shared) {
    match poll {
        WatchPoll::Unchanged => {}
        WatchPoll::Appended(bytes) => {
            let _span = trace::span_with("live_watch_append", |a| {
                a.u64("bytes", bytes.len() as u64);
            });
            let mut probes = Vec::new();
            let quarantined = ingest_slice(&bytes, |_, _, row: LastMile| probes.push(row.probe));
            let m = &shared.metrics;
            m.watch_appends.fetch_add(1, Ordering::Relaxed);
            m.watch_quarantined
                .fetch_add(quarantined.len() as u64, Ordering::Relaxed);
            for q in &quarantined {
                eprintln!(
                    "[live] watch: quarantined record at byte {} ({}): {}",
                    q.offset,
                    q.kind.name(),
                    q.detail
                );
            }
            if !probes.is_empty() {
                m.records_ingested
                    .fetch_add(probes.len() as u64, Ordering::Relaxed);
                mark_dirty_probes(shared, &probes, |t| t.watch_append = true);
            }
        }
        WatchPoll::Truncated(bytes) => {
            let _span = trace::span_with("live_watch_truncation", |a| {
                a.u64("bytes", bytes.len() as u64);
            });
            eprintln!(
                "[live] watch: corpus truncated/rotated; falling back to full re-ingest ({} bytes)",
                bytes.len()
            );
            shared
                .metrics
                .watch_truncations
                .fetch_add(1, Ordering::Relaxed);
            // The trigger also tells the next pass to invalidate every
            // memoized series before it reads.
            mark_dirty_probes(shared, &[], |t| t.watch_truncation = true);
        }
    }
}

fn mark_dirty_probes(shared: &Shared, probes: &[ProbeId], set_trigger: impl Fn(&mut Triggers)) {
    let mut state = shared.state.lock().expect("live state poisoned");
    state.dirty_probes.extend_from_slice(probes);
    set_trigger(&mut state.triggers);
    state.dirty_since.get_or_insert_with(Instant::now);
}

/// Run one re-analysis pass: snapshot-and-clear the dirty state (so
/// signals landing mid-analysis re-arm it) and hand it to the closure,
/// which invalidates, then re-reads and publishes. Invalidation happens
/// there — on the engine thread, after any prior pass's inserts and
/// before this pass's read — never on the intake threads (see the
/// module docs for the resurrection race that ordering prevents).
fn run_reanalysis(shared: &Shared, reanalyze: &mut ReanalyzeFn) {
    let m = &shared.metrics;
    // The base records_ingested this pass covers: everything counted
    // before the files are re-read (later arrivals re-arm the window).
    let base = m.records_ingested.load(Ordering::Relaxed);
    let (invalidation, triggers) = {
        let mut state = shared.state.lock().expect("live state poisoned");
        state.dirty_since = None;
        let triggers = std::mem::take(&mut state.triggers);
        let invalidation = Invalidation {
            probes: std::mem::take(&mut state.dirty_probes),
            all: triggers.watch_truncation,
        };
        (invalidation, triggers)
    };
    let started = Instant::now();
    let _span = trace::span("live_reanalyze");
    let outcome = reanalyze(&invalidation);
    let pass_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let error = match &outcome {
        Ok(()) => {
            m.reanalyses.fetch_add(1, Ordering::Relaxed);
            m.reanalysis_nanos.store(pass_nanos, Ordering::Relaxed);
            m.records_analyzed.fetch_max(base, Ordering::Relaxed);
            String::new()
        }
        Err(e) => {
            m.reanalysis_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("[live] re-analysis failed: {e}");
            e.clone()
        }
    };
    // Epoch and swap nanos are read *after* the pass: the reanalyze
    // closure published them (on success), so the record names the
    // epoch this pass produced.
    shared.telemetry.record(EpochRecord {
        epoch: m.epoch.load(Ordering::Relaxed),
        trigger: triggers.label(),
        records_ingested: base,
        probes_invalidated: invalidation.probes.len() as u64,
        pass_nanos,
        swap_nanos: m.swap_nanos.load(Ordering::Relaxed),
        outcome: if error.is_empty() {
            "published".to_string()
        } else {
            "error".to_string()
        },
        error,
        unix_ms: now_unix_ms(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn counting_engine(
        watcher: Option<AppendWatcher>,
        debounce_ms: u64,
    ) -> (LiveEngine, Arc<AtomicU64>, Arc<LiveMetrics>) {
        let runs = Arc::new(AtomicU64::new(0));
        let metrics = Arc::new(LiveMetrics::new());
        let runs2 = Arc::clone(&runs);
        let engine = LiveEngine::start(
            LiveConfig {
                watcher,
                poll_interval: Duration::from_millis(5),
                debounce: Duration::from_millis(debounce_ms),
                telemetry: Arc::new(EpochTelemetry::new()),
            },
            Arc::clone(&metrics),
            Box::new(move |_| {
                runs2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        );
        (engine, runs, metrics)
    }

    fn wait_until(what: &str, deadline: Duration, reached: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !reached() {
            assert!(t0.elapsed() < deadline, "never reached: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn burst_of_signals_coalesces_into_one_reanalysis() {
        let (engine, runs, metrics) = counting_engine(None, 40);
        let handle = engine.handle();
        for _ in 0..5 {
            handle.notify_dirty();
            std::thread::sleep(Duration::from_millis(2));
        }
        wait_until("debounced re-analysis", Duration::from_secs(5), || {
            runs.load(Ordering::SeqCst) == 1
        });
        // Quiet afterwards: no further runs.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(metrics.reanalyses.load(Ordering::Relaxed), 1);
        engine.shutdown();
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "clean shutdown re-runs nothing"
        );
    }

    #[test]
    fn shutdown_drains_a_pending_window() {
        // Debounce far in the future: the signal is pending, never due.
        let (engine, runs, _metrics) = counting_engine(None, 60_000);
        engine.handle().notify_dirty();
        engine.shutdown();
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "pending signal must drain through one final re-analysis"
        );
    }

    #[test]
    fn dirty_probes_invalidate_at_pass_start_not_at_intake() {
        // The regression this pins: POST intake must NOT invalidate the
        // store from the worker thread (an in-flight analysis could
        // re-insert a stale series after that). Instead the probes are
        // recorded, and the pass hands them to the re-analysis closure,
        // which invalidates right before it reads.
        let passes = Arc::new(std::sync::Mutex::new(Vec::<Invalidation>::new()));
        let metrics = Arc::new(LiveMetrics::new());
        let seen = Arc::clone(&passes);
        let engine = LiveEngine::start(
            LiveConfig {
                watcher: None,
                poll_interval: Duration::from_millis(5),
                // Never due on its own: the pass runs only at the
                // shutdown drain, so the assertions are deterministic.
                debounce: Duration::from_secs(600),
                telemetry: Arc::new(EpochTelemetry::new()),
            },
            metrics,
            Box::new(move |invalidation| {
                seen.lock().unwrap().push(invalidation.clone());
                Ok(())
            }),
        );
        let handle = engine.handle();
        handle.notify_dirty_probes(&[ProbeId(7)]);
        handle.notify_dirty_probes(&[ProbeId(9), ProbeId(7)]);
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            passes.lock().unwrap().is_empty(),
            "intake must only record dirty probes, never invalidate inline"
        );
        engine.shutdown();
        assert_eq!(
            *passes.lock().unwrap(),
            vec![Invalidation {
                probes: vec![ProbeId(7), ProbeId(9), ProbeId(7)],
                all: false,
            }],
            "one coalesced invalidation, handed to the pass that reads"
        );
    }

    #[test]
    fn truncation_makes_the_next_pass_clear_everything() {
        let dir =
            std::env::temp_dir().join(format!("lastmile-engine-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("corpus.jsonl");
        std::fs::write(&corpus, b"aaa\nbbb\n").unwrap();
        let passes = Arc::new(std::sync::Mutex::new(Vec::<Invalidation>::new()));
        let metrics = Arc::new(LiveMetrics::new());
        let seen = Arc::clone(&passes);
        let engine = LiveEngine::start(
            LiveConfig {
                watcher: Some(AppendWatcher::new(&corpus, 8)),
                poll_interval: Duration::from_millis(5),
                // Only the shutdown drain runs the pass: deterministic.
                debounce: Duration::from_secs(600),
                telemetry: Arc::new(EpochTelemetry::new()),
            },
            Arc::clone(&metrics),
            Box::new(move |invalidation| {
                seen.lock().unwrap().push(invalidation.clone());
                Ok(())
            }),
        );
        std::fs::write(&corpus, b"ccc\n").unwrap();
        wait_until("truncation observed", Duration::from_secs(5), || {
            metrics.watch_truncations.load(Ordering::Relaxed) == 1
        });
        assert!(
            passes.lock().unwrap().is_empty(),
            "the poll only records the truncation"
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            *passes.lock().unwrap(),
            vec![Invalidation {
                probes: Vec::new(),
                all: true,
            }]
        );
    }

    #[test]
    fn reanalysis_errors_count_and_do_not_hot_loop() {
        let runs = Arc::new(AtomicU64::new(0));
        let metrics = Arc::new(LiveMetrics::new());
        let telemetry = Arc::new(EpochTelemetry::new());
        let runs2 = Arc::clone(&runs);
        let engine = LiveEngine::start(
            LiveConfig {
                watcher: None,
                poll_interval: Duration::from_millis(5),
                debounce: Duration::from_millis(10),
                telemetry: Arc::clone(&telemetry),
            },
            Arc::clone(&metrics),
            Box::new(move |_| {
                runs2.fetch_add(1, Ordering::SeqCst);
                Err("boom".to_string())
            }),
        );
        engine.handle().notify_dirty();
        wait_until("failed re-analysis", Duration::from_secs(5), || {
            runs.load(Ordering::SeqCst) >= 1
        });
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "an error must not hot-loop");
        assert_eq!(metrics.reanalysis_errors.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.reanalyses.load(Ordering::Relaxed), 0);
        // The drain pass at shutdown is skipped when nothing is pending.
        engine.shutdown();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // The failed pass left a structured record in the telemetry ring.
        let records = telemetry.snapshot();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, "error");
        assert_eq!(records[0].error, "boom");
        assert_eq!(records[0].trigger, "post");
    }

    #[test]
    fn epoch_telemetry_attributes_triggers_per_pass() {
        let metrics = Arc::new(LiveMetrics::new());
        let telemetry = Arc::new(EpochTelemetry::new());
        let epoch = Arc::clone(&metrics);
        let engine = LiveEngine::start(
            LiveConfig {
                watcher: None,
                poll_interval: Duration::from_millis(5),
                // Only the shutdown drain runs the pass: deterministic.
                debounce: Duration::from_secs(600),
                telemetry: Arc::clone(&telemetry),
            },
            Arc::clone(&metrics),
            Box::new(move |_| {
                // Mimic the real closure: publishing bumps the epoch.
                epoch.epoch.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
        );
        let handle = engine.handle();
        handle.notify_dirty_probes(&[ProbeId(7), ProbeId(9)]);
        engine.shutdown();
        let records = telemetry.snapshot();
        assert_eq!(records.len(), 1, "one drain pass, one record");
        let r = &records[0];
        assert_eq!(r.trigger, "post");
        assert_eq!(r.probes_invalidated, 2);
        assert_eq!(r.outcome, "published");
        assert_eq!(r.epoch, 1, "records the epoch the pass produced");
        assert!(r.unix_ms > 0);
        assert_eq!(r.error, "");
    }
}
