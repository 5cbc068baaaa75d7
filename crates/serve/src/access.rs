//! Structured access logs: one JSON object per request, written by a
//! dedicated thread behind a bounded channel.
//!
//! The worker path must never block on log I/O — a slow or full disk
//! would otherwise stall request serving, which is exactly backwards
//! for an ops plane. So [`AccessLog::log`] is a `try_send`: when the
//! channel is full the record is dropped and a counter incremented;
//! the drop total is reported on shutdown so silent loss is visible.
//!
//! The serve crate has no serde (vendor policy keeps it
//! dependency-light), so records are serialized by hand. Every
//! string field is escaped — `path` and `request_id` are
//! client-controlled bytes and must not be able to break the
//! one-object-per-line framing.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Bound on records buffered between workers and the writer thread.
/// At ~200 bytes/record this caps the backlog near 200 KiB.
const CHANNEL_CAP: usize = 1024;

enum Msg {
    Line(String),
    /// Flush, exit the writer loop. Lines already queued behind this
    /// marker were enqueued after shutdown began and are discarded.
    Shutdown,
}

/// One request's worth of access-log fields.
///
/// `request_id` matches the `X-Request-Id` response header and the
/// `request_id` arg on the request trace span, so an access-log line,
/// a trace span, and a timeline blip are joinable by id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessRecord {
    pub request_id: String,
    pub method: String,
    pub path: String,
    /// Endpoint label as used by the latency histograms
    /// (`classify`, `series`, `metrics`, …).
    pub endpoint: &'static str,
    /// Admission cost class (`probe`, `cheap`, `heavy`, `intake`),
    /// or `unknown` for connections rejected before parsing.
    pub cost_class: &'static str,
    pub status: u16,
    pub latency_micros: u64,
    /// Analysis epoch that served the response (0 when the response
    /// carried no `X-Epoch` header).
    pub epoch: u64,
    /// Why the request was shed (`queue_full`, `over_budget`), empty
    /// for served requests.
    pub shed_reason: &'static str,
    pub unix_ms: u64,
}

impl AccessRecord {
    /// Render as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push('{');
        push_str_field(&mut out, "request_id", &self.request_id);
        out.push(',');
        push_str_field(&mut out, "method", &self.method);
        out.push(',');
        push_str_field(&mut out, "path", &self.path);
        out.push(',');
        push_str_field(&mut out, "endpoint", self.endpoint);
        out.push(',');
        push_str_field(&mut out, "cost_class", self.cost_class);
        out.push(',');
        push_u64_field(&mut out, "status", u64::from(self.status));
        out.push(',');
        push_u64_field(&mut out, "latency_micros", self.latency_micros);
        out.push(',');
        push_u64_field(&mut out, "epoch", self.epoch);
        out.push(',');
        push_str_field(&mut out, "shed_reason", self.shed_reason);
        out.push(',');
        push_u64_field(&mut out, "unix_ms", self.unix_ms);
        out.push('}');
        out
    }
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Handle to the access-log writer. Share via `Arc`.
///
/// Call [`AccessLog::shutdown`] to flush and join the writer (the
/// server does this after draining workers); records logged after
/// shutdown count as drops.
pub struct AccessLog {
    tx: SyncSender<Msg>,
    dropped: AtomicU64,
    writer: std::sync::Mutex<Option<JoinHandle<std::io::Result<()>>>>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl AccessLog {
    /// Open (create/truncate) `path` and start the writer thread.
    pub fn create(path: &Path) -> std::io::Result<Arc<AccessLog>> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Start a writer thread over an arbitrary sink (used by tests).
    pub fn from_writer(mut sink: Box<dyn Write + Send>) -> Arc<AccessLog> {
        let (tx, rx) = sync_channel::<Msg>(CHANNEL_CAP);
        let writer = std::thread::Builder::new()
            .name("access-log".into())
            .spawn(move || -> std::io::Result<()> {
                for msg in rx {
                    match msg {
                        Msg::Line(line) => {
                            sink.write_all(line.as_bytes())?;
                            sink.write_all(b"\n")?;
                        }
                        Msg::Shutdown => break,
                    }
                }
                sink.flush()
            })
            .expect("spawn access-log writer");
        Arc::new(AccessLog {
            tx,
            dropped: AtomicU64::new(0),
            writer: std::sync::Mutex::new(Some(writer)),
        })
    }

    /// Enqueue one record; never blocks. Returns `false` (and counts
    /// the drop) if the writer is backlogged or gone.
    pub fn log(&self, record: &AccessRecord) -> bool {
        match self.tx.try_send(Msg::Line(record.to_json())) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Records dropped because the writer could not keep up.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Flush and join the writer thread. Safe to call more than once;
    /// later calls are no-ops. Returns the writer's I/O result and
    /// the final dropped-record count.
    pub fn shutdown(&self) -> (std::io::Result<()>, u64) {
        let handle = self.writer.lock().expect("access-log writer lock").take();
        let result = match handle {
            Some(handle) => {
                // Blocking send: queued lines ahead of the marker are
                // written before the writer exits. If the writer died
                // early (I/O error), send fails and join still works.
                let _ = self.tx.send(Msg::Shutdown);
                match handle.join() {
                    Ok(result) => result,
                    Err(_) => Err(std::io::Error::other("access-log writer panicked")),
                }
            }
            None => Ok(()),
        };
        (result, self.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A Write sink the test can inspect after shutdown.
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

    fn sample_record() -> AccessRecord {
        AccessRecord {
            request_id: "req-1".into(),
            method: "GET".into(),
            path: "/v1/classify?asn=3320".into(),
            endpoint: "classify",
            cost_class: "heavy",
            status: 200,
            latency_micros: 1234,
            epoch: 3,
            shed_reason: "",
            unix_ms: 1_700_000_000_000,
        }
    }

    #[test]
    fn records_render_as_one_json_object_per_line() {
        let json = sample_record().to_json();
        assert!(!json.contains('\n'));
        assert_eq!(
            json,
            "{\"request_id\":\"req-1\",\"method\":\"GET\",\
             \"path\":\"/v1/classify?asn=3320\",\"endpoint\":\"classify\",\
             \"cost_class\":\"heavy\",\"status\":200,\"latency_micros\":1234,\
             \"epoch\":3,\"shed_reason\":\"\",\"unix_ms\":1700000000000}"
        );
    }

    #[test]
    fn client_controlled_strings_cannot_break_framing() {
        let mut record = sample_record();
        record.path = "/x\"y\\z\nnewline\ttab\u{1}ctl".into();
        record.request_id = "a\"b".into();
        let json = record.to_json();
        assert!(!json.contains('\n'), "escaped newline leaked: {json}");
        assert!(json.contains("\\\"y\\\\z\\nnewline\\ttab\\u0001ctl"));
        assert!(json.contains("\"request_id\":\"a\\\"b\""));
    }

    #[test]
    fn writer_drains_lines_and_shutdown_flushes() {
        let sink = SharedSink::default();
        let buf = sink.0.clone();
        let log = AccessLog::from_writer(Box::new(sink));
        for i in 0..5 {
            let mut r = sample_record();
            r.status = 200 + i;
            assert!(log.log(&r));
        }
        let (result, dropped) = log.shutdown();
        result.expect("writer io");
        assert_eq!(dropped, 0);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"status\":200"));
        assert!(lines[4].contains("\"status\":204"));
    }

    #[test]
    fn full_channel_drops_and_counts_instead_of_blocking() {
        // A sink that never completes a write would block forever; a
        // zero-progress writer is simulated by blocking the writer
        // thread on its first line via a mutex held by the test.
        struct BlockingSink(Arc<Mutex<()>>);
        impl Write for BlockingSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let _hold = self.0.lock().unwrap();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let log = AccessLog::from_writer(Box::new(BlockingSink(gate.clone())));
        let record = sample_record();
        // One record enters the writer thread and blocks; CHANNEL_CAP
        // more fill the channel; everything past that must drop fast.
        let mut dropped_seen = 0u64;
        for _ in 0..(CHANNEL_CAP + 64) {
            if !log.log(&record) {
                dropped_seen += 1;
            }
        }
        assert!(dropped_seen > 0, "expected drops once the channel filled");
        assert_eq!(log.dropped(), dropped_seen);
        drop(held);
        let (result, _) = log.shutdown();
        result.expect("writer io");
    }

    #[test]
    fn logging_after_shutdown_counts_as_dropped() {
        let log = AccessLog::from_writer(Box::new(std::io::sink()));
        let (result, _) = log.shutdown();
        result.expect("writer io");
        assert!(!log.log(&sample_record()));
        assert_eq!(log.dropped(), 1);
    }
}
