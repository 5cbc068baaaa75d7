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
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Tiny threaded fake server answering 200 to everything, counting
    /// connections, until dropped.
    struct FakeServer {
        addr: SocketAddr,
        served: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
        join: Option<std::thread::JoinHandle<()>>,
    }

    impl FakeServer {
        fn start() -> FakeServer {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let served = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let (served2, stop2) = (Arc::clone(&served), Arc::clone(&stop));
            let join = std::thread::spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            let served = Arc::clone(&served2);
                            std::thread::spawn(move || {
                                let mut buf = [0u8; 2048];
                                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                                let _ = stream.read(&mut buf);
                                let _ = stream
                                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
                                served.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            });
            FakeServer {
                addr,
                served,
                stop,
                join: Some(join),
            }
        }
    }

    impl Drop for FakeServer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            if let Some(join) = self.join.take() {
                join.join().ok();
            }
        }
    }

    #[test]
    fn open_loop_attempts_the_scheduled_count_and_stays_consistent() {
        let server = FakeServer::start();
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
