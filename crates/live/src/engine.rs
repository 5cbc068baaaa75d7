//! The debounced re-analysis scheduler.
//!
//! One engine thread owns the re-analysis closure. Intake producers —
//! the corpus watcher's ticker and the `POST /v1/traceroutes` handler —
//! hand what they accepted to [`LiveHandle::intake`], which marks the
//! engine dirty. The first intake opens a debounce window and the pass
//! runs once the window closes, so a burst of intake coalesces into one
//! recompute instead of N. The deadline is anchored to the *first*
//! intake (not pushed by later ones), so a continuous stream cannot
//! starve re-analysis. The engine thread sleeps only on its condvar:
//! until intake or shutdown while clean, until the deadline while
//! dirty.
//!
//! Dirty state is cleared *before* the closure runs: intake landing
//! mid-analysis opens the next window and triggers another pass, which
//! is how readers converge on the union corpus without the engine ever
//! holding intake back. [`LiveHandle::intake`] counts the records under
//! the lock that the pass clears the dirty state under, so each pass
//! covers exactly the records counted before it started.
//!
//! Intake paths never invalidate the memoizing store themselves — they
//! *record* dirty probes (or, on truncation, "everything") in the engine
//! state, and each re-analysis pass snapshots-and-clears that record
//! and hands it to the re-analysis closure, which invalidates just
//! before reading the corpus.
//! Invalidating from the intake thread would race an in-flight
//! analysis: the analysis could insert a series built from bytes read
//! *before* the append, after the invalidation, resurrecting a stale
//! entry that the next pass would then cache-hit. With pass-start
//! invalidation the insert and the invalidation are sequenced on the
//! engine thread, so a dirty probe is always recomputed from bytes
//! that include its append.
//!
//! Shutdown drains: once the caller has stopped its intake producers,
//! [`LiveEngine::shutdown`] lets an in-flight re-analysis finish, then
//! runs one final pass at once if intake is still pending — so the
//! epoch the daemon re-persists its cache under reflects every accepted
//! record, never a mix.

use crate::watch::{AppendWatcher, WatchPoll};
use lastmile_atlas::{LastMile, ProbeId};
use lastmile_ingest::ingest_slice;
use lastmile_obs::{ops::now_unix_ms, trace, EpochRecord, EpochTelemetry, LiveMetrics};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// The intake path behind one [`LiveHandle::intake`] call; each epoch
/// record names the sources its pass covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Records the corpus watcher found appended.
    WatchAppend,
    /// The watched corpus was truncated or rotated: the next pass
    /// invalidates every memoized series.
    WatchTruncation,
    /// Records accepted by `POST /v1/traceroutes`.
    Post,
}

/// Which intake paths delivered since the last pass snapshot-and-clear;
/// rendered into the epoch record's `trigger` field.
#[derive(Clone, Copy, Default)]
struct Triggers {
    watch_append: bool,
    watch_truncation: bool,
    post: bool,
}

impl Triggers {
    fn set(&mut self, source: Source) {
        match source {
            Source::WatchAppend => self.watch_append = true,
            Source::WatchTruncation => self.watch_truncation = true,
            Source::Post => self.post = true,
        }
    }

    /// The delivering paths, `+`-joined. Every pass has at least one:
    /// only intake makes the engine dirty.
    fn label(self) -> String {
        let parts = [
            (self.watch_append, "watch_append"),
            (self.watch_truncation, "watch_truncation"),
            (self.post, "post"),
        ];
        let named: Vec<&str> = parts.iter().filter(|p| p.0).map(|p| p.1).collect();
        named.join("+")
    }
}

#[derive(Default)]
struct EngineState {
    /// When the current debounce window opened (None: clean).
    dirty_since: Option<Instant>,
    /// Probes with intake since the last re-analysis *started reading*;
    /// the next pass invalidates them before it reads. May repeat.
    dirty_probes: Vec<ProbeId>,
    /// Intake paths that delivered since the last pass; cleared with the
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

impl Shared {
    fn lock(&self) -> MutexGuard<'_, EngineState> {
        self.state.lock().expect("live state poisoned")
    }
}

/// Cloneable intake endpoint for the producers outside the engine
/// thread: the watcher's ticker and the `POST /v1/traceroutes` handler.
#[derive(Clone)]
pub struct LiveHandle {
    shared: Arc<Shared>,
}

impl LiveHandle {
    /// Hand `records` accepted records of `probes` to the engine: count
    /// them in `live.records_ingested`, record the probes whose memoized
    /// series the next pass must invalidate, note `source` in that
    /// pass's trigger, open the debounce window if it is closed, and
    /// wake the engine — all under the lock the pass takes them under.
    /// The caller must have durably appended the
    /// records (spool/corpus) *before* calling: the recording
    /// happens-before the pass's snapshot-and-clear, which
    /// happens-before its read, so the recomputed series always covers
    /// the append.
    pub fn intake(&self, source: Source, records: u64, probes: &[ProbeId]) {
        let mut state = self.shared.lock();
        self.shared
            .metrics
            .records_ingested
            .fetch_add(records, Ordering::Relaxed);
        state.dirty_probes.extend_from_slice(probes);
        state.triggers.set(source);
        state.dirty_since.get_or_insert_with(Instant::now);
        drop(state);
        self.shared.cond.notify_one();
    }

    /// Poll `watcher` once and hand what it found to
    /// [`LiveHandle::intake`]: the appended records' probes, or a
    /// truncation.
    pub fn poll_watcher(&self, watcher: &mut AppendWatcher) {
        let m = &self.shared.metrics;
        match watcher.poll() {
            WatchPoll::Unchanged => {}
            WatchPoll::Appended(bytes) => {
                let _span = trace::span_with("live_watch_append", |a| {
                    a.u64("bytes", bytes.len() as u64);
                });
                let mut probes = Vec::new();
                let quarantined =
                    ingest_slice(&bytes, |_, _, row: LastMile| probes.push(row.probe));
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
                    self.intake(Source::WatchAppend, probes.len() as u64, &probes);
                }
            }
            WatchPoll::Truncated(len) => {
                let _span = trace::span_with("live_watch_truncation", |a| {
                    a.u64("bytes", len);
                });
                eprintln!(
                    "[live] watch: corpus truncated/rotated; falling back to full re-ingest ({len} bytes)"
                );
                m.watch_truncations.fetch_add(1, Ordering::Relaxed);
                self.intake(Source::WatchTruncation, 0, &[]);
            }
        }
    }
}

/// The engine thread plus its shared state; see the module docs.
pub struct LiveEngine {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveEngine {
    /// Spawn the engine thread. A pass runs `debounce` after the intake
    /// that opens its window and records into `telemetry` (the
    /// `/v1/ops/epochs` flight recorder).
    pub fn start(
        debounce: Duration,
        metrics: Arc<LiveMetrics>,
        telemetry: Arc<EpochTelemetry>,
        reanalyze: ReanalyzeFn,
    ) -> LiveEngine {
        let shared = Arc::new(Shared {
            metrics,
            telemetry,
            state: Mutex::default(),
            cond: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("live-engine".into())
                .spawn(move || engine_loop(&shared, debounce, reanalyze))
                .expect("spawn live engine")
        };
        LiveEngine {
            shared,
            thread: Some(thread),
        }
    }

    /// An intake handle for other threads.
    pub fn handle(&self) -> LiveHandle {
        LiveHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop the engine: an in-flight re-analysis finishes, one final
    /// pass drains any still-pending intake, and the thread joins. Stop
    /// the intake producers first: intake after this call may miss the
    /// final epoch.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.lock().shutdown = true;
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

/// Run each pass once its debounce window closes; after shutdown, run
/// what is pending at once, then return.
fn engine_loop(shared: &Shared, debounce: Duration, mut reanalyze: ReanalyzeFn) {
    let mut state = shared.lock();
    loop {
        let Some(since) = state.dirty_since else {
            if state.shutdown {
                return;
            }
            state = shared.cond.wait(state).expect("live state poisoned");
            continue;
        };
        let left = (since + debounce).saturating_duration_since(Instant::now());
        if state.shutdown {
            // Intake accepted before shutdown must reach an epoch before
            // the daemon re-persists its snapshot.
            eprintln!("[live] draining pending re-analysis before shutdown");
        } else if !left.is_zero() {
            state = shared
                .cond
                .wait_timeout(state, left)
                .expect("live state poisoned")
                .0;
            continue;
        }
        state = run_reanalysis(shared, state, &mut reanalyze);
    }
}

/// Run one re-analysis pass: snapshot-and-clear the dirty state (so
/// intake landing mid-analysis opens the next window), release the lock
/// and hand the snapshot to the closure, which invalidates, then
/// re-reads and publishes; return the lock retaken. Invalidation
/// happens there — on the engine thread, after any prior pass's inserts
/// and before this pass's read — never on the intake threads (see the
/// module docs for the resurrection race that ordering prevents).
fn run_reanalysis<'a>(
    shared: &'a Shared,
    mut state: MutexGuard<'a, EngineState>,
    reanalyze: &mut ReanalyzeFn,
) -> MutexGuard<'a, EngineState> {
    let m = &shared.metrics;
    // The records this pass covers: intake counts them under this lock,
    // so the count and the probes taken below describe the same intake.
    let base = m.records_ingested.load(Ordering::Relaxed);
    state.dirty_since = None;
    let triggers = std::mem::take(&mut state.triggers);
    let invalidation = Invalidation {
        probes: std::mem::take(&mut state.dirty_probes),
        all: triggers.watch_truncation,
    };
    drop(state);
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
    shared.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intake::tests::record;
    use crate::watch::tests::TempDir;
    use lastmile_obs::Ticker;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// An engine with no debounce whose passes each log their
    /// invalidation and bump the epoch like the real closure, then wait
    /// for the test to release them, so a test can land intake while a
    /// pass is held.
    struct Gated {
        engine: LiveEngine,
        metrics: Arc<LiveMetrics>,
        telemetry: Arc<EpochTelemetry>,
        passes: Arc<Mutex<Vec<Invalidation>>>,
        /// One message per pass, sent as it starts.
        started: Receiver<()>,
        /// Each message lets one held pass finish; dropping it lets
        /// every pass run through.
        release: Sender<()>,
    }

    impl Gated {
        fn start() -> Gated {
            let metrics = Arc::new(LiveMetrics::new());
            let telemetry = Arc::new(EpochTelemetry::new());
            let passes = Arc::new(Mutex::new(Vec::new()));
            let (started_tx, started) = channel();
            let (release, released) = channel();
            let (seen, epoch) = (Arc::clone(&passes), Arc::clone(&metrics));
            let engine = LiveEngine::start(
                Duration::ZERO,
                Arc::clone(&metrics),
                Arc::clone(&telemetry),
                Box::new(move |invalidation: &Invalidation| {
                    seen.lock().unwrap().push(invalidation.clone());
                    let _ = started_tx.send(());
                    let _ = released.recv();
                    epoch.epoch.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
            );
            Gated {
                engine,
                metrics,
                telemetry,
                passes,
                started,
                release,
            }
        }

        /// Wait until the next pass has started and is held.
        fn held(&self) {
            self.started
                .recv_timeout(Duration::from_secs(10))
                .expect("a pass started");
        }

        /// Let every pass run through, shut down (draining) and return
        /// what each pass was handed.
        fn finish(self) -> (Vec<Invalidation>, Arc<LiveMetrics>, Arc<EpochTelemetry>) {
            drop(self.release);
            self.engine.shutdown();
            let passes = self.passes.lock().unwrap().clone();
            (passes, self.metrics, self.telemetry)
        }
    }

    fn probes(ids: &[u32]) -> Vec<ProbeId> {
        ids.iter().copied().map(ProbeId).collect()
    }

    #[test]
    fn burst_of_signals_coalesces_into_one_reanalysis() {
        let gated = Gated::start();
        let handle = gated.engine.handle();
        handle.intake(Source::Post, 1, &probes(&[1]));
        gated.held();
        // Five intakes while the first pass is held: one more pass
        // covers them all.
        for probe in 10..15 {
            handle.intake(Source::Post, 1, &probes(&[probe]));
        }
        gated.release.send(()).unwrap();
        gated.held();
        gated.release.send(()).unwrap();
        let (passes, metrics, _) = gated.finish();
        assert_eq!(
            passes,
            vec![
                Invalidation {
                    probes: probes(&[1]),
                    all: false,
                },
                Invalidation {
                    probes: probes(&[10, 11, 12, 13, 14]),
                    all: false,
                },
            ],
            "clean shutdown re-runs nothing"
        );
        assert_eq!(metrics.reanalyses.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.snapshot().ingest_lag, 0);
    }

    #[test]
    fn shutdown_drains_a_pending_window() {
        // An hour-long window: the intake is pending, never due, so the
        // pass runs only as the shutdown drain.
        let passes = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&passes);
        let metrics = Arc::new(LiveMetrics::new());
        let engine = LiveEngine::start(
            Duration::from_secs(3600),
            Arc::clone(&metrics),
            Arc::new(EpochTelemetry::new()),
            Box::new(move |invalidation: &Invalidation| {
                seen.lock().unwrap().push(invalidation.clone());
                Ok(())
            }),
        );
        let handle = engine.handle();
        handle.intake(Source::Post, 1, &probes(&[7]));
        handle.intake(Source::Post, 2, &probes(&[9, 7]));
        assert!(passes.lock().unwrap().is_empty(), "the window is open");
        engine.shutdown();
        assert_eq!(
            *passes.lock().unwrap(),
            vec![Invalidation {
                probes: probes(&[7, 9, 7]),
                all: false,
            }],
            "pending intake must drain through one final re-analysis"
        );
        assert_eq!(metrics.snapshot().ingest_lag, 0);
    }

    #[test]
    fn intake_inside_the_window_runs_as_one_timed_pass() {
        // A short window: the pass must fire by itself once it closes,
        // carrying every intake that landed inside it.
        let debounce = Duration::from_millis(200);
        let passes = Arc::new(Mutex::new(Vec::new()));
        let (seen, (ran, runs)) = (Arc::clone(&passes), channel());
        let engine = LiveEngine::start(
            debounce,
            Arc::new(LiveMetrics::new()),
            Arc::new(EpochTelemetry::new()),
            Box::new(move |invalidation: &Invalidation| {
                seen.lock().unwrap().push(invalidation.clone());
                ran.send(Instant::now()).unwrap();
                Ok(())
            }),
        );
        let handle = engine.handle();
        let opened = Instant::now();
        for probe in 1..=4 {
            handle.intake(Source::Post, 1, &probes(&[probe]));
        }
        let ran_at = runs
            .recv_timeout(Duration::from_secs(10))
            .expect("the window closed without a pass");
        assert!(
            ran_at >= opened + debounce,
            "the pass ran inside its window"
        );
        engine.shutdown();
        assert_eq!(runs.try_iter().count(), 0, "no second pass");
        assert_eq!(
            *passes.lock().unwrap(),
            vec![Invalidation {
                probes: probes(&[1, 2, 3, 4]),
                all: false,
            }]
        );
    }

    #[test]
    fn dirty_probes_invalidate_at_pass_start_not_at_intake() {
        // The regression this pins: POST intake must NOT invalidate the
        // store from the worker thread (an in-flight analysis could
        // re-insert a stale series after that). Instead the probes are
        // recorded, and the pass hands them to the re-analysis closure,
        // which invalidates right before it reads.
        let gated = Gated::start();
        let handle = gated.engine.handle();
        handle.intake(Source::Post, 1, &probes(&[1]));
        gated.held();
        handle.intake(Source::Post, 1, &probes(&[7]));
        handle.intake(Source::Post, 2, &probes(&[9, 7]));
        assert_eq!(
            gated.passes.lock().unwrap().len(),
            1,
            "intake must only record dirty probes, never invalidate inline"
        );
        gated.release.send(()).unwrap();
        gated.held();
        let (passes, _, _) = gated.finish();
        assert_eq!(
            passes[1],
            Invalidation {
                probes: probes(&[7, 9, 7]),
                all: false,
            },
            "one coalesced invalidation, handed to the pass that reads"
        );
    }

    #[test]
    fn truncation_makes_the_next_pass_clear_everything() {
        let dir = TempDir::new("engine-trunc");
        let corpus = dir.path("corpus.jsonl");
        std::fs::write(&corpus, b"aaa\nbbb\n").unwrap();
        let mut watcher = AppendWatcher::new(&corpus, 8);
        let gated = Gated::start();
        std::fs::write(&corpus, b"ccc\n").unwrap();
        gated.engine.handle().poll_watcher(&mut watcher);
        gated.held();
        let (passes, metrics, _) = gated.finish();
        assert_eq!(metrics.watch_truncations.load(Ordering::Relaxed), 1);
        assert_eq!(
            passes,
            vec![Invalidation {
                probes: Vec::new(),
                all: true,
            }]
        );
    }

    #[test]
    fn an_append_after_the_last_tick_reaches_the_drained_pass() {
        let dir = TempDir::new("engine-final-poll");
        let corpus = dir.path("corpus.jsonl");
        std::fs::write(&corpus, b"").unwrap();
        let gated = Gated::start();
        // The daemon's shutdown order: a ticker that has not ticked yet
        // when the append lands, stopped, one last poll, then the drain.
        let handle = gated.engine.handle();
        let ticker = Ticker::start(
            "live-watch-test",
            Duration::from_secs(3600),
            AppendWatcher::new(&corpus, 0),
            move |w| handle.poll_watcher(w),
        );
        std::fs::write(&corpus, format!("{}\n", record(42))).unwrap();
        gated.engine.handle().poll_watcher(&mut ticker.stop());
        let (passes, metrics, telemetry) = gated.finish();
        assert_eq!(
            passes,
            vec![Invalidation {
                probes: probes(&[42]),
                all: false,
            }]
        );
        let live = metrics.snapshot();
        assert_eq!((live.records_ingested, live.ingest_lag), (1, 0));
        assert_eq!(telemetry.snapshot()[0].trigger, "watch_append");
    }

    #[test]
    fn ingest_lag_reaches_zero_under_concurrent_intake() {
        let metrics = Arc::new(LiveMetrics::new());
        let engine = LiveEngine::start(
            Duration::ZERO,
            Arc::clone(&metrics),
            Arc::new(EpochTelemetry::new()),
            Box::new(|_| Ok(())),
        );
        let producers: Vec<_> = (0..4u32)
            .map(|t| {
                let handle = engine.handle();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        handle.intake(Source::Post, u64::from(i % 3 + 1), &probes(&[t, i]));
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        engine.shutdown();
        let live = metrics.snapshot();
        let per_producer: u64 = (0..500u64).map(|i| i % 3 + 1).sum();
        assert_eq!(live.records_ingested, 4 * per_producer);
        assert_eq!(live.ingest_lag, 0, "{live:?}");
    }

    #[test]
    fn reanalysis_errors_count_and_do_not_hot_loop() {
        let metrics = Arc::new(LiveMetrics::new());
        let telemetry = Arc::new(EpochTelemetry::new());
        let (ran, runs) = channel();
        let engine = LiveEngine::start(
            Duration::ZERO,
            Arc::clone(&metrics),
            Arc::clone(&telemetry),
            Box::new(move |_| {
                ran.send(()).unwrap();
                Err("boom".to_string())
            }),
        );
        engine.handle().intake(Source::Post, 1, &probes(&[1]));
        runs.recv_timeout(Duration::from_secs(10))
            .expect("failed re-analysis");
        // An error clears the dirty state like a success, so nothing is
        // pending and the shutdown drain runs no pass.
        engine.shutdown();
        assert_eq!(runs.try_iter().count(), 0, "an error must not hot-loop");
        assert_eq!(metrics.reanalysis_errors.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.reanalyses.load(Ordering::Relaxed), 0);
        // The failed pass left a structured record in the telemetry ring.
        let records = telemetry.snapshot();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, "error");
        assert_eq!(records[0].error, "boom");
        assert_eq!(records[0].trigger, "post");
    }

    #[test]
    fn epoch_telemetry_attributes_triggers_per_pass() {
        let gated = Gated::start();
        let handle = gated.engine.handle();
        handle.intake(Source::Post, 2, &probes(&[7, 9]));
        gated.held();
        handle.intake(Source::WatchAppend, 3, &probes(&[3, 3, 4]));
        handle.intake(Source::Post, 1, &probes(&[5]));
        let (_, _, telemetry) = gated.finish();
        let records = telemetry.snapshot();
        assert_eq!(records.len(), 2, "one record per pass");
        let (first, second) = (&records[0], &records[1]);
        assert_eq!(first.trigger, "post");
        assert_eq!(first.probes_invalidated, 2);
        assert_eq!(first.records_ingested, 2);
        assert_eq!(first.outcome, "published");
        assert_eq!(first.epoch, 1, "records the epoch the pass produced");
        assert!(first.unix_ms > 0);
        assert_eq!(first.error, "");
        assert_eq!(second.trigger, "watch_append+post");
        assert_eq!(second.probes_invalidated, 4);
        assert_eq!(second.records_ingested, 6);
        assert_eq!(second.epoch, 2);
    }
}
