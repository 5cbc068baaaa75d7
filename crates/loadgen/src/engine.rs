//! The open-loop dispatch engine behind each ladder rung (bursts are
//! simpler and spawn directly).
//!
//! A fixed pool of client threads drains a bounded job channel; a
//! dispatcher releases jobs on the wall-clock schedule `interval = 1 /
//! rate`, *never* waiting for responses. When every worker is busy and
//! the channel is full, the arrival is dropped client-side and counted
//! as `not_sent` — the open-loop discipline: a slow server must not
//! slow the arrival process down, it must make the drop/shed numbers
//! grow. Workers keep thread-local tallies (histograms merge cheaply at
//! join), so the hot path is lock-free.

use crate::client::one_shot;
use crate::mix::{Endpoint, Mix, Plan};
use crate::report::EndpointTallies;
use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One scheduled request.
struct Job {
    endpoint: Endpoint,
}

/// Drive `mix` at `rate` requests/second for `dwell`, with at most
/// `concurrency` requests in flight. Returns the merged tallies.
pub fn run_open_loop(
    addr: SocketAddr,
    mix: &mut Mix,
    plan: &Plan,
    rate: f64,
    dwell: Duration,
    concurrency: usize,
) -> EndpointTallies {
    let concurrency = concurrency.max(1);
    let total_jobs = (rate * dwell.as_secs_f64()).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / rate.max(f64::MIN_POSITIVE));
    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(concurrency);
    let rx = Arc::new(Mutex::new(rx));
    let mut dispatcher_tallies = EndpointTallies::default();
    let mut merged = EndpointTallies::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..concurrency)
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || worker(addr, plan, &rx))
            })
            .collect();
        let start = Instant::now();
        for n in 0..total_jobs {
            // Open loop: fire at start + n*interval regardless of how
            // the server is doing.
            let due = start + interval.mul_f64(n as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let endpoint = mix.pick();
            match tx.try_send(Job { endpoint }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    dispatcher_tallies.get_mut(endpoint).record_not_sent();
                }
                Err(TrySendError::Disconnected(_)) => unreachable!("workers outlive dispatch"),
            }
        }
        drop(tx); // workers drain the channel, then exit
        for w in workers {
            merged.merge(&w.join().expect("loadgen worker"));
        }
    });
    merged.merge(&dispatcher_tallies);
    merged
}

/// One client worker: pull jobs until the channel closes.
fn worker(addr: SocketAddr, plan: &Plan, rx: &Mutex<Receiver<Job>>) -> EndpointTallies {
    let mut tallies = EndpointTallies::default();
    loop {
        // Lock only for the dequeue — holding it across a request would
        // serialize the pool.
        let job = match rx.lock().expect("loadgen queue lock").recv() {
            Ok(job) => job,
            Err(_) => return tallies,
        };
        let (method, path, body) = plan.request(job.endpoint);
        match one_shot(addr, method, &path, body, plan.timeout) {
            Ok(outcome) => tallies.get_mut(job.endpoint).record(&outcome),
            Err(_) => tallies.get_mut(job.endpoint).record_error(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_server::FakeServer;
    use std::sync::atomic::Ordering;

    #[test]
    fn open_loop_attempts_the_scheduled_count_and_stays_consistent() {
        let server = FakeServer::ok();
        let mut mix = Mix::single(Endpoint::Healthz);
        let plan = Plan {
            timeout: Duration::from_secs(2),
            ..Plan::default()
        };
        // 200 rps for 0.25 s = 50 scheduled arrivals.
        let tallies = run_open_loop(
            server.addr,
            &mut mix,
            &plan,
            200.0,
            Duration::from_millis(250),
            8,
        );
        let total = tallies.total();
        assert!(total.consistent(), "attempted != ok + shed + errors");
        assert_eq!(total.attempted + total.not_sent, 50);
        assert!(total.ok > 0, "nothing served: {total:?}");
        assert_eq!(total.shed, 0);
        assert!(server.served.load(Ordering::Relaxed) >= total.ok);
    }
}
