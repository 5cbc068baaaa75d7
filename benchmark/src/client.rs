//! The benchmark's open-loop HTTP client.
//!
//! Arrivals follow a fixed schedule whatever the daemon does: request
//! `i` is due at `start + due_i`. At most `connections` requests are in
//! flight (one per thread, one request per connection, as the daemon
//! serves them), so when every connection is busy the next request
//! waits, and that wait counts: latency runs from the due time to the
//! last byte, never from when a thread got round to sending. How late
//! each send was is reported as generator lateness. Each request is also
//! split into connect, time to first byte and body.

use crate::stats::percentile;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Every phase of a request gives up after this long; a request that
/// times out is failed and counts as over any latency limit.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Offset of the due time from the schedule's start.
    pub due: Duration,
    pub method: &'static str,
    pub path: String,
    pub body: Vec<u8>,
}

impl Request {
    pub fn get(due: Duration, path: impl Into<String>) -> Request {
        Request {
            due,
            method: "GET",
            path: path.into(),
            body: Vec::new(),
        }
    }

    pub fn is_post(&self) -> bool {
        self.method == "POST"
    }
}

/// What one request measured. Times are nanoseconds after the
/// schedule's start.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub connected_ns: u64,
    pub first_byte_ns: u64,
    pub done_ns: u64,
    /// HTTP status; 0 when the request failed below HTTP.
    pub status: u16,
    /// Wall-clock time of the last byte, unix milliseconds.
    pub done_unix_ms: f64,
    pub body: Vec<u8>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Due time to last byte; a failed request reads as at least the
    /// timeout, i.e. over any limit.
    pub fn latency_ms(&self) -> f64 {
        let ms = (self.done_ns.saturating_sub(self.due_ns)) as f64 / 1e6;
        if self.ok() {
            ms
        } else {
            ms.max(TIMEOUT.as_secs_f64() * 1e3)
        }
    }

    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    pub fn connect_us(&self) -> f64 {
        self.connected_ns.saturating_sub(self.sent_ns) as f64 / 1e3
    }

    /// Send to first response byte.
    pub fn ttfb_ms(&self) -> f64 {
        self.first_byte_ns.saturating_sub(self.sent_ns) as f64 / 1e6
    }

    pub fn body_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.first_byte_ns) as f64 / 1e3
    }
}

/// Run `schedule` (sorted by due time) over at most `connections`
/// concurrent connections, one thread each. Request `i` carries
/// `X-Request-Id: {label}-{i}`, which the daemon's access log echoes.
/// Returns one sample per request, in schedule order.
pub fn run(addr: SocketAddr, schedule: &[Request], connections: usize, label: &str) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = schedule.get(i) else {
            return;
        };
        if let Some(wait) = req.due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let sample = send(addr, req, &format!("{label}-{i}"), start);
        samples.lock().expect("sample list lock").push((i, sample));
    };
    // The calling thread is one of the connections, so the client uses
    // exactly `connections` threads.
    std::thread::scope(|s| {
        for _ in 1..connections.max(1) {
            s.spawn(worker);
        }
        worker();
    });
    let mut samples = samples.into_inner().expect("sample list lock");
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn unix_ms_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0)
}

/// Issue one request, timing each phase. Failures below HTTP leave
/// `status` at 0.
fn send(addr: SocketAddr, req: &Request, id: &str, start: Instant) -> Sample {
    let mut s = Sample {
        due_ns: u64::try_from(req.due.as_nanos()).unwrap_or(u64::MAX),
        sent_ns: nanos_since(start),
        ..Sample::default()
    };
    let result = (|| -> std::io::Result<()> {
        let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        s.connected_ns = nanos_since(start);
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        let mut head = format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nX-Request-Id: {id}\r\n",
            req.method, req.path
        );
        if !req.body.is_empty() {
            head.push_str(&format!("Content-Length: {}\r\n", req.body.len()));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&req.body);
        stream.write_all(&bytes)?;
        let mut raw = Vec::with_capacity(4096);
        let mut buf = [0u8; 16 * 1024];
        loop {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                break;
            }
            if raw.is_empty() {
                s.first_byte_ns = nanos_since(start);
            }
            raw.extend_from_slice(&buf[..n]);
        }
        s.done_ns = nanos_since(start);
        s.done_unix_ms = unix_ms_now();
        let (status, body) = parse_response(&raw).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
        })?;
        s.status = status;
        s.body = body.to_vec();
        Ok(())
    })();
    if result.is_err() {
        s.status = 0;
        s.done_ns = nanos_since(start);
    }
    s
}

/// Status code and body of a raw HTTP response.
fn parse_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let status_line = std::str::from_utf8(&raw[..head_end]).ok()?.lines().next()?;
    let status = status_line.split(' ').nth(1)?.parse().ok()?;
    Some((status, &raw[head_end..]))
}

/// One request outside any schedule (warm-up, gates, counter scrapes):
/// the body of a 2xx response, or an error naming the path.
pub fn get(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    let s = send(
        addr,
        &Request::get(Duration::ZERO, path),
        "get",
        Instant::now(),
    );
    if s.ok() {
        Ok(s.body)
    } else {
        Err(format!("GET {path} answered status {}", s.status))
    }
}

/// [`get`], parsed as JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<serde_json::Value, String> {
    let body = get(addr, path)?;
    let text = std::str::from_utf8(&body).map_err(|e| format!("GET {path}: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("GET {path}: {e}"))
}

/// Whether a rung of the rate ladder held: p99 within `limit_ms`, at
/// most 1% failed, and the generator not falling further behind (the
/// median lateness of the last third of the rung within 1 ms of the
/// first third's).
pub fn rung_holds(samples: &[Sample], limit_ms: f64) -> bool {
    if samples.is_empty() {
        return false;
    }
    let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let failed = samples.iter().filter(|s| !s.ok()).count();
    let third = (samples.len() / 3).max(1);
    let lateness = |part: &[Sample]| {
        percentile(
            &part.iter().map(Sample::lateness_ms).collect::<Vec<_>>(),
            0.5,
        )
    };
    let growing = lateness(&samples[samples.len() - third..]) > lateness(&samples[..third]) + 1.0;
    percentile(&latency, 0.99) <= limit_ms && failed * 100 <= samples.len() && !growing
}

/// The highest rate `holds` accepts: climb from `start` by `growth` per
/// rung until a rung fails (or `max_rungs` are spent), then bisect
/// between the last rate that held and the first that failed until they
/// are within `resolution` of each other. 0 when not even the lowest
/// rate tried holds.
pub fn max_rate(
    start: f64,
    growth: f64,
    resolution: f64,
    max_rungs: usize,
    mut holds: impl FnMut(f64) -> bool,
) -> f64 {
    let mut rungs = 1;
    // `hi` infinite: still climbing; `lo` zero: still descending.
    let (mut lo, mut hi) = if holds(start) {
        (start, f64::INFINITY)
    } else {
        (0.0, start)
    };
    while rungs < max_rungs && (hi.is_infinite() || lo == 0.0) {
        let rate = if hi.is_infinite() {
            lo * growth
        } else {
            hi / growth
        };
        rungs += 1;
        if holds(rate) {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    while rungs < max_rungs && lo > 0.0 && hi / lo - 1.0 > resolution {
        let mid = (lo + hi) / 2.0;
        rungs += 1;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn max_rate_climbs_then_bisects_to_the_resolution() {
        let capacity = 437.0;
        let mut tried = Vec::new();
        let got = max_rate(100.0, 1.5, 0.06, 20, |r| {
            tried.push(r);
            r <= capacity
        });
        assert!(got <= capacity && capacity / got - 1.0 <= 0.06, "{got}");
        // 100, 150, 225, 337.5 hold; 506.25 fails; then bisection.
        assert_eq!(&tried[..5], &[100.0, 150.0, 225.0, 337.5, 506.25]);
    }

    #[test]
    fn max_rate_walks_down_when_the_start_fails_and_respects_the_rung_cap() {
        let got = max_rate(100.0, 2.0, 0.06, 30, |r| r <= 30.0);
        assert!(got <= 30.0 && 30.0 / got - 1.0 <= 0.06, "{got}");
        assert_eq!(max_rate(100.0, 2.0, 0.06, 3, |_| false), 0.0);
        let mut rungs = 0;
        max_rate(100.0, 1.5, 0.06, 4, |_| {
            rungs += 1;
            true
        });
        assert_eq!(rungs, 4);
    }

    fn sample(due_ms: u64, sent_ms: u64, done_ms: u64, status: u16) -> Sample {
        Sample {
            due_ns: due_ms * 1_000_000,
            sent_ns: sent_ms * 1_000_000,
            done_ns: done_ms * 1_000_000,
            status,
            ..Sample::default()
        }
    }

    #[test]
    fn rung_verdict_checks_tail_failures_and_growing_lateness() {
        let steady: Vec<Sample> = (0..100)
            .map(|i| sample(i * 10, i * 10, i * 10 + 2, 200))
            .collect();
        assert!(rung_holds(&steady, 10.0));
        let slow: Vec<Sample> = (0..100)
            .map(|i| sample(i * 10, i * 10, i * 10 + 20, 200))
            .collect();
        assert!(!rung_holds(&slow, 10.0));
        let mut failing = steady.clone();
        failing[3].status = 503;
        failing[7].status = 0;
        assert!(!rung_holds(&failing, 10.0), "2% failed");
        let behind: Vec<Sample> = (0..100)
            .map(|i| sample(i * 10, i * 10 + i / 10, i * 10 + i / 10 + 1, 200))
            .collect();
        assert!(!rung_holds(&behind, 50.0), "lateness grows");
        assert!(!rung_holds(&[], 10.0));
    }

    #[test]
    fn schedule_times_each_phase_from_the_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut heads = Vec::new();
            for _ in 0..3 {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut got = vec![0u8; 4096];
                let n = stream.read(&mut got).unwrap_or(0);
                heads.push(String::from_utf8_lossy(&got[..n]).into_owned());
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
            heads
        });
        let schedule: Vec<Request> = (0..3)
            .map(|i| Request::get(Duration::from_millis(20 * i), "/healthz"))
            .collect();
        let samples = run(addr, &schedule, 1, "t");
        let heads = server.join().unwrap();
        assert_eq!(samples.len(), 3);
        for (i, s) in samples.iter().enumerate() {
            assert!(s.ok() && s.body == b"ok", "{s:?}");
            assert!(s.sent_ns >= s.due_ns && s.due_ns == 20_000_000 * i as u64);
            assert!(s.connected_ns >= s.sent_ns && s.first_byte_ns >= s.connected_ns);
            assert!(s.done_ns >= s.first_byte_ns && s.latency_ms() >= s.ttfb_ms());
            assert!(heads[i].contains(&format!("X-Request-Id: t-{i}\r\n")));
        }
    }
}
