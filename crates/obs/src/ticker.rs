//! [`Ticker`]: a named thread that runs a closure once per period until
//! stopped. It is the one periodic loop behind the CLI's `--progress`
//! heartbeat, the `--trace` stream's drains and `serve`'s ops sampler.
//!
//! Between ticks the thread blocks in `recv_timeout` on a channel that
//! only ever closes, so it wakes only to tick or to stop, and
//! [`Ticker::stop`] returns as soon as a tick in progress ends, however
//! long the period.

use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running ticker over state `S`. [`Ticker::stop`] hands the state
/// back; dropping the ticker stops its thread too, discarding the state.
pub struct Ticker<S> {
    /// Never sent on: dropping it is the stop signal.
    stop: Sender<()>,
    thread: JoinHandle<S>,
}

impl<S: Send + 'static> Ticker<S> {
    /// Spawn thread `name`, which calls `tick(&mut state)` once per
    /// `period`, the first a period after the start, until stopped.
    pub fn start(
        name: &str,
        period: Duration,
        mut state: S,
        mut tick: impl FnMut(&mut S) + Send + 'static,
    ) -> Ticker<S> {
        let (stop, stopped) = channel();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                    tick(&mut state);
                }
                state
            })
            .expect("spawn ticker thread");
        Ticker { stop, thread }
    }

    /// Wake the thread at once (or when the tick in progress ends),
    /// join it and return its state. A panic in `tick` resumes here.
    pub fn stop(self) -> S {
        drop(self.stop);
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_long_period_stops_at_once() {
        let ticker = Ticker::start("tick-test", Duration::from_secs(3600), 0u32, |n| *n += 1);
        let started = Instant::now();
        assert_eq!(ticker.stop(), 0, "no tick before the first period ends");
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "stop took {took:?}");
    }

    #[test]
    fn ticks_arrive_on_the_period() {
        let period = Duration::from_millis(20);
        let started = Instant::now();
        let ticker = Ticker::start("tick-test", period, Vec::new(), move |at: &mut Vec<_>| {
            at.push(started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(250));
        let at = ticker.stop();
        // A shared host may run a tick late, never early, and ticks are
        // a period apart at least.
        assert!(at.len() >= 3, "only {} ticks in 250 ms", at.len());
        assert!(at[0] >= period, "first tick at {:?}", at[0]);
        for pair in at.windows(2) {
            assert!(pair[1] - pair[0] >= period, "ticks {pair:?}");
        }
    }

    #[test]
    fn a_panicking_tick_resumes_at_stop() {
        let (ticked, tick_seen) = std::sync::mpsc::channel();
        let ticker = Ticker::start("tick-test", Duration::from_millis(1), (), move |_| {
            ticked.send(()).unwrap();
            panic!("tick failed")
        });
        tick_seen.recv().expect("one tick ran");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticker.stop()))
            .expect_err("the tick's panic resumes");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"tick failed"));
    }
}
