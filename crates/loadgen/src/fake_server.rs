//! The fake HTTP server the load generator's tests drive. Like the
//! daemon's acceptor it blocks in `accept`, and it stops the same way:
//! latch a flag, then connect once so the blocked `accept` returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The answer to anything the test does not single out.
pub const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

/// A threaded server answering each connection with `respond(head)`,
/// counting answers, until dropped.
pub struct FakeServer {
    pub addr: SocketAddr,
    /// Connections answered.
    pub served: Arc<AtomicU64>,
    stopped: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl FakeServer {
    /// A server answering `200 ok` to everything.
    pub fn ok() -> FakeServer {
        FakeServer::start(|_| OK)
    }

    /// A server answering with `respond` of the request's first bytes.
    pub fn start(respond: fn(&str) -> &'static [u8]) -> FakeServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicU64::new(0));
        let stopped = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (served, stopped) = (Arc::clone(&served), Arc::clone(&stopped));
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopped.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let served = Arc::clone(&served);
                    std::thread::spawn(move || {
                        let mut buf = [0u8; 2048];
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                        let n = stream.read(&mut buf).unwrap_or(0);
                        let head = String::from_utf8_lossy(&buf[..n]);
                        let _ = stream.write_all(respond(&head));
                        served.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        };
        FakeServer {
            addr,
            served,
            stopped,
            acceptor: Some(acceptor),
        }
    }
}

impl Drop for FakeServer {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().ok();
        }
    }
}
