//! The debounced re-analysis scheduler.
//!
//! One engine thread owns the re-analysis closure. Intake producers —
//! the corpus watcher's ticker and the `POST /v1/traceroutes` handler —
//! decode what they accepted and hand the rows to [`LiveHandle::intake`],
//! which adds them to the pending [`Batch`] and marks the engine dirty.
//! The first intake opens a debounce window and the pass runs once the
//! window closes, so a burst of intake coalesces into one recompute
//! instead of N. The deadline is anchored to the *first* intake (not
//! pushed by later ones), so a continuous stream cannot starve
//! re-analysis. The engine thread sleeps only on its condvar: until
//! intake or shutdown while clean, until the deadline while dirty.
//!
//! A pass takes the pending batch under the lock that clears the dirty
//! state, and [`LiveHandle::intake`] counts `live.records_ingested` under
//! that same lock, so each pass folds exactly the records counted before
//! it started. Intake landing mid-analysis opens the next window and
//! triggers another pass, which is how readers converge on the union
//! corpus without the engine ever holding intake back.
//!
//! Nothing is re-decoded: a pass folds the rows intake already decoded
//! into the caller's kept columns. Only a truncated or rotated corpus
//! makes the batch a rebuild, which re-reads the files up to the lengths
//! the batch records — the lengths every taken hand-off reaches — and
//! drops the rows handed over, since those bytes hold them.
//!
//! Shutdown drains: once the caller has stopped its intake producers,
//! [`LiveEngine::shutdown`] lets an in-flight re-analysis finish, then
//! runs one final pass at once if intake is still pending — so the
//! daemon's last epoch reflects every accepted record.

use crate::watch::{AppendWatcher, WatchPoll};
use lastmile_atlas::LastMile;
use lastmile_ingest::{ingest_slice, Quarantined};
use lastmile_obs::{ops::now_unix_ms, trace, EpochRecord, EpochTelemetry, LiveMetrics};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One hand-off from an intake path: the records it decoded and how far
/// into its file they reach.
#[derive(Debug, Default)]
pub struct Delivery {
    /// The accepted records' rows, in file order.
    pub rows: Vec<LastMile>,
    /// Records the watcher quarantined, at offsets in the corpus file
    /// (rejected POST records never reach the spool, so a POST hands
    /// over none).
    pub quarantined: Vec<Quarantined>,
    /// The length of the path's file once it holds these records: the
    /// watcher's new offset, or the spool's length after the append.
    pub reach: u64,
}

/// Everything intake delivered since the last pass took it: what that
/// pass folds.
#[derive(Debug, Default)]
pub struct Batch {
    /// The delivered rows, in hand-off order.
    pub rows: Vec<LastMile>,
    /// The watcher's quarantined records, at corpus-file offsets.
    pub quarantined: Vec<Quarantined>,
    /// How far into the watched corpus the delivered records reach, when
    /// the watcher delivered.
    pub watched_len: Option<u64>,
    /// The spool's length with the last taken POST in it, when a POST
    /// was taken.
    pub spool_len: Option<u64>,
    /// The watched corpus was truncated or rotated: the pass must
    /// re-read the files up to the recorded lengths instead of folding
    /// `rows`, which those bytes already hold.
    pub rebuild: bool,
}

/// Fold a taken batch into the analysis, re-run what it reached and
/// publish the next epoch. Returns the pass's work as the work fields
/// of its [`EpochRecord`] (`records_decoded`: the rows it folded, or
/// what a rebuild re-read; `populations_reanalysed`; `probes_rebinned`);
/// the engine fills in the rest. Runs on the engine thread only.
pub type ReanalyzeFn = Box<dyn FnMut(Batch) -> Result<EpochRecord, String> + Send>;

/// The intake path behind one [`LiveHandle::intake`] call; each epoch
/// record names the sources its pass covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Records the corpus watcher found appended.
    WatchAppend,
    /// The watched corpus was truncated or rotated: the next pass
    /// rebuilds from the files.
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
    /// What intake delivered since the last pass took it.
    pending: Batch,
    /// Intake paths that delivered since the last pass; cleared with the
    /// dirty state so each epoch record attributes its own window.
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
    /// Hand one `source` delivery to the engine: count its rows in
    /// `live.records_ingested`, add it to the pending batch (a
    /// truncation makes the batch a rebuild), note `source` in that
    /// pass's trigger, open the debounce window if it is closed, and
    /// wake the engine — all under the lock the pass takes the batch
    /// under. The caller must have durably appended the records
    /// (spool/corpus) *before* calling, and calls from one path must
    /// come in file order: a rebuild re-reads the files up to the last
    /// `reach` it took.
    pub fn intake(&self, source: Source, delivery: Delivery) {
        let mut state = self.shared.lock();
        self.shared
            .metrics
            .records_ingested
            .fetch_add(delivery.rows.len() as u64, Ordering::Relaxed);
        let batch = &mut state.pending;
        match source {
            Source::WatchAppend => batch.watched_len = Some(delivery.reach),
            Source::WatchTruncation => {
                batch.watched_len = Some(delivery.reach);
                batch.rebuild = true;
            }
            Source::Post => batch.spool_len = Some(delivery.reach),
        }
        batch.rows.extend(delivery.rows);
        batch.quarantined.extend(delivery.quarantined);
        state.triggers.set(source);
        state.dirty_since.get_or_insert_with(Instant::now);
        drop(state);
        self.shared.cond.notify_one();
    }

    /// Poll `watcher` once and hand what it found to
    /// [`LiveHandle::intake`]: the appended records' rows and quarantine,
    /// or a truncation.
    pub fn poll_watcher(&self, watcher: &mut AppendWatcher) {
        let m = &self.shared.metrics;
        match watcher.poll() {
            WatchPoll::Unchanged => {}
            WatchPoll::Appended(bytes) => {
                let _span = trace::span_with("live_watch_append", |a| {
                    a.u64("bytes", bytes.len() as u64);
                });
                let reach = watcher.offset();
                let start = reach - bytes.len() as u64;
                let mut rows = Vec::new();
                let mut quarantined = ingest_slice(&bytes, |_, _, row: LastMile| rows.push(row));
                m.watch_appends.fetch_add(1, Ordering::Relaxed);
                m.watch_quarantined
                    .fetch_add(quarantined.len() as u64, Ordering::Relaxed);
                for q in &mut quarantined {
                    q.offset += start;
                    eprintln!(
                        "[live] watch: quarantined record at byte {} ({}): {}",
                        q.offset,
                        q.kind.name(),
                        q.detail
                    );
                }
                self.intake(
                    Source::WatchAppend,
                    Delivery {
                        rows,
                        quarantined,
                        reach,
                    },
                );
            }
            WatchPoll::Truncated(len) => {
                let _span = trace::span_with("live_watch_truncation", |a| {
                    a.u64("bytes", len);
                });
                eprintln!(
                    "[live] watch: corpus truncated/rotated; rebuilding from the files ({len} bytes)"
                );
                m.watch_truncations.fetch_add(1, Ordering::Relaxed);
                self.intake(
                    Source::WatchTruncation,
                    Delivery {
                        reach: len,
                        ..Delivery::default()
                    },
                );
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
            // the daemon exits.
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

/// Run one re-analysis pass: take the pending batch and clear the dirty
/// state (so intake landing mid-analysis opens the next window), release
/// the lock and hand the batch to the closure, which folds it and
/// publishes; return the lock retaken.
fn run_reanalysis<'a>(
    shared: &'a Shared,
    mut state: MutexGuard<'a, EngineState>,
    reanalyze: &mut ReanalyzeFn,
) -> MutexGuard<'a, EngineState> {
    let m = &shared.metrics;
    // The records this pass covers: intake counts them under this lock,
    // so the count and the batch taken below describe the same intake.
    let base = m.records_ingested.load(Ordering::Relaxed);
    state.dirty_since = None;
    let triggers = std::mem::take(&mut state.triggers);
    let batch = std::mem::take(&mut state.pending);
    drop(state);
    let started = Instant::now();
    let _span = trace::span("live_reanalyze");
    let outcome = reanalyze(batch);
    let pass_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (work, error) = match outcome {
        Ok(work) => {
            m.reanalyses.fetch_add(1, Ordering::Relaxed);
            m.reanalysis_nanos.store(pass_nanos, Ordering::Relaxed);
            m.records_analyzed.fetch_max(base, Ordering::Relaxed);
            (work, String::new())
        }
        Err(e) => {
            m.reanalysis_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("[live] re-analysis failed: {e}");
            (EpochRecord::default(), e)
        }
    };
    // Epoch and swap nanos are read *after* the pass: the reanalyze
    // closure published them (on success), so the record names the
    // epoch this pass produced.
    shared.telemetry.record(EpochRecord {
        epoch: m.epoch.load(Ordering::Relaxed),
        trigger: triggers.label(),
        records_ingested: base,
        pass_nanos,
        swap_nanos: m.swap_nanos.load(Ordering::Relaxed),
        outcome: if error.is_empty() {
            "published".to_string()
        } else {
            "error".to_string()
        },
        error,
        unix_ms: now_unix_ms(),
        ..work
    });
    shared.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intake::tests::record;
    use crate::watch::tests::TempDir;
    use lastmile_atlas::ProbeId;
    use lastmile_obs::Ticker;
    use lastmile_timebase::UnixTime;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// What one pass was handed: the probes of its rows, in hand-off
    /// order, and whether it was a rebuild.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Taken {
        probes: Vec<ProbeId>,
        rebuild: bool,
    }

    impl Taken {
        fn of(batch: &Batch) -> Taken {
            Taken {
                probes: batch.rows.iter().map(|row| row.probe).collect(),
                rebuild: batch.rebuild,
            }
        }
    }

    /// The work of a pass that folded every row of `batch`.
    fn folded_all(batch: &Batch) -> Result<EpochRecord, String> {
        Ok(EpochRecord {
            records_decoded: batch.rows.len() as u64,
            ..EpochRecord::default()
        })
    }

    /// An engine with no debounce whose passes each log what they took
    /// and bump the epoch like the real closure, then wait for the test
    /// to release them, so a test can land intake while a pass is held.
    struct Gated {
        engine: LiveEngine,
        metrics: Arc<LiveMetrics>,
        telemetry: Arc<EpochTelemetry>,
        passes: Arc<Mutex<Vec<Taken>>>,
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
                Box::new(move |batch: Batch| {
                    seen.lock().unwrap().push(Taken::of(&batch));
                    let _ = started_tx.send(());
                    let _ = released.recv();
                    epoch.epoch.fetch_add(1, Ordering::Relaxed);
                    folded_all(&batch)
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
        fn finish(self) -> (Vec<Taken>, Arc<LiveMetrics>, Arc<EpochTelemetry>) {
            drop(self.release);
            self.engine.shutdown();
            let passes = self.passes.lock().unwrap().clone();
            (passes, self.metrics, self.telemetry)
        }
    }

    fn probes(ids: &[u32]) -> Vec<ProbeId> {
        ids.iter().copied().map(ProbeId).collect()
    }

    /// A delivery of one row per probe in `ids`.
    fn rows(ids: &[u32]) -> Delivery {
        Delivery {
            rows: ids
                .iter()
                .map(|&id| LastMile {
                    probe: ProbeId(id),
                    timestamp: UnixTime::from_secs(1000),
                    edge: None,
                    rtts: Vec::new(),
                    private: 0,
                })
                .collect(),
            ..Delivery::default()
        }
    }

    /// A pass that took the rows of `ids`, not as a rebuild.
    fn folded(ids: &[u32]) -> Taken {
        Taken {
            probes: probes(ids),
            rebuild: false,
        }
    }

    #[test]
    fn burst_of_signals_coalesces_into_one_reanalysis() {
        let gated = Gated::start();
        let handle = gated.engine.handle();
        handle.intake(Source::Post, rows(&[1]));
        gated.held();
        // Five intakes while the first pass is held: one more pass
        // covers them all.
        for probe in 10..15 {
            handle.intake(Source::Post, rows(&[probe]));
        }
        gated.release.send(()).unwrap();
        gated.held();
        gated.release.send(()).unwrap();
        let (passes, metrics, _) = gated.finish();
        assert_eq!(
            passes,
            vec![folded(&[1]), folded(&[10, 11, 12, 13, 14]),],
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
            Box::new(move |batch: Batch| {
                seen.lock().unwrap().push(Taken::of(&batch));
                folded_all(&batch)
            }),
        );
        let handle = engine.handle();
        handle.intake(Source::Post, rows(&[7]));
        handle.intake(Source::Post, rows(&[9, 7]));
        assert!(passes.lock().unwrap().is_empty(), "the window is open");
        engine.shutdown();
        assert_eq!(
            *passes.lock().unwrap(),
            vec![folded(&[7, 9, 7])],
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
            Box::new(move |batch: Batch| {
                seen.lock().unwrap().push(Taken::of(&batch));
                ran.send(Instant::now()).unwrap();
                folded_all(&batch)
            }),
        );
        let handle = engine.handle();
        let opened = Instant::now();
        for probe in 1..=4 {
            handle.intake(Source::Post, rows(&[probe]));
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
        assert_eq!(*passes.lock().unwrap(), vec![folded(&[1, 2, 3, 4])]);
    }

    #[test]
    fn intake_during_a_pass_waits_for_the_next_one() {
        // Intake landing while a pass runs is only recorded: the held
        // pass keeps what it took, and the next pass takes the rows of
        // every intake since, coalesced in hand-off order.
        let gated = Gated::start();
        let handle = gated.engine.handle();
        handle.intake(Source::Post, rows(&[1]));
        gated.held();
        handle.intake(Source::Post, rows(&[7]));
        handle.intake(Source::Post, rows(&[9, 7]));
        assert_eq!(
            gated.passes.lock().unwrap().len(),
            1,
            "intake must only add to the pending batch, never run a pass inline"
        );
        gated.release.send(()).unwrap();
        gated.held();
        let (passes, _, _) = gated.finish();
        assert_eq!(
            passes[1],
            folded(&[7, 9, 7]),
            "one coalesced batch, handed to the next pass"
        );
    }

    #[test]
    fn truncation_makes_the_next_pass_a_rebuild() {
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
            vec![Taken {
                probes: Vec::new(),
                rebuild: true,
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
        assert_eq!(passes, vec![folded(&[42])]);
        let live = metrics.snapshot();
        assert_eq!((live.records_ingested, live.ingest_lag), (1, 0));
        assert_eq!(telemetry.snapshot()[0].trigger, "watch_append");
    }

    #[test]
    fn ingest_lag_reaches_zero_under_concurrent_intake() {
        let metrics = Arc::new(LiveMetrics::new());
        let folded = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sum = Arc::clone(&folded);
        let engine = LiveEngine::start(
            Duration::ZERO,
            Arc::clone(&metrics),
            Arc::new(EpochTelemetry::new()),
            Box::new(move |batch: Batch| {
                sum.fetch_add(batch.rows.len() as u64, Ordering::Relaxed);
                folded_all(&batch)
            }),
        );
        let producers: Vec<_> = (0..4u32)
            .map(|t| {
                let handle = engine.handle();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        handle.intake(Source::Post, rows(&vec![t; (i % 3 + 1) as usize]));
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
        // Every row handed over was folded by exactly one pass.
        assert_eq!(folded.load(Ordering::Relaxed), live.records_ingested);
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
            Box::new(move |_: Batch| {
                ran.send(()).unwrap();
                Err("boom".to_string())
            }),
        );
        engine.handle().intake(Source::Post, rows(&[1]));
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
        handle.intake(Source::Post, rows(&[7, 9]));
        gated.held();
        handle.intake(Source::WatchAppend, rows(&[3, 3, 4]));
        handle.intake(Source::Post, rows(&[5]));
        let (_, _, telemetry) = gated.finish();
        let records = telemetry.snapshot();
        assert_eq!(records.len(), 2, "one record per pass");
        let (first, second) = (&records[0], &records[1]);
        assert_eq!(first.trigger, "post");
        assert_eq!(first.records_decoded, 2);
        assert_eq!(first.records_ingested, 2);
        assert_eq!(first.outcome, "published");
        assert_eq!(first.epoch, 1, "records the epoch the pass produced");
        assert!(first.unix_ms > 0);
        assert_eq!(first.error, "");
        assert_eq!(second.trigger, "watch_append+post");
        assert_eq!(second.records_decoded, 4);
        assert_eq!(second.records_ingested, 6);
        assert_eq!(second.epoch, 2);
    }
}
