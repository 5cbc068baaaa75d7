//! The `--progress` heartbeat: an opt-in thread that prints live ingest
//! and population gauges to stderr about once a second.
//!
//! The gauges live in a [`LiveProgress`] shared with the ingest workers
//! and the analysis loop; the heartbeat only ever reads them, so it adds
//! no synchronisation to the hot paths. Dropping the [`Heartbeat`] stops
//! and joins the thread, printing one final line so short runs still get
//! a summary.

use lastmile_repro::obs::{LiveProgress, Ticker};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to the heartbeat thread; stops and joins on drop.
pub struct Heartbeat(Option<Ticker<Beat>>);

/// What the heartbeat carries from one line to the next.
struct Beat {
    progress: Arc<LiveProgress>,
    started: Instant,
    last_records: u64,
    last_tick: Instant,
}

impl Heartbeat {
    /// Spawn the heartbeat over `progress`.
    pub fn start(progress: Arc<LiveProgress>) -> Heartbeat {
        let started = Instant::now();
        let beat = Beat {
            progress,
            started,
            last_records: 0,
            last_tick: started,
        };
        let ticker = Ticker::start("progress", Duration::from_secs(1), beat, Beat::report);
        Heartbeat(Some(ticker))
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        if let Some(ticker) = self.0.take() {
            ticker.stop().report();
        }
    }
}

impl Beat {
    /// Print one progress line, with the record rate since the last.
    fn report(&mut self) {
        let progress = &self.progress;
        let bytes = progress.bytes_read.load(Ordering::Relaxed);
        let records = progress.records.load(Ordering::Relaxed);
        let depth = progress.queue_depth.load(Ordering::Relaxed);
        let done = progress.populations_done.load(Ordering::Relaxed);
        let total = progress.populations_total.load(Ordering::Relaxed);
        let interval = self.last_tick.elapsed().as_secs_f64().max(1e-9);
        let rate = (records.saturating_sub(self.last_records)) as f64 / interval;
        eprintln!(
            "[progress +{:.1}s] {:.1} MiB read, {records} records ({rate:.0}/s), \
             queue depth {depth}, populations {done}/{total}",
            self.started.elapsed().as_secs_f64(),
            bytes as f64 / (1024.0 * 1024.0),
        );
        self.last_records = records;
        self.last_tick = Instant::now();
    }
}
