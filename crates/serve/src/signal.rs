//! SIGTERM / SIGINT → a blocking [`wait`], without a libc dependency.
//! `signal(2)` and `write(2)` are declared by hand, and the handler
//! does one async-signal-safe thing: it writes a byte to a self-pipe
//! whose read end [`wait`] blocks on. No thread polls for the signal.

use std::io::{PipeReader, Read};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::OnceLock;

/// The self-pipe's write end, for the handler (-1 until [`install`]).
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
/// The self-pipe's read end, for [`wait`].
static WAKE: OnceLock<PipeReader> = OnceLock::new();

#[cfg(unix)]
mod ffi {
    /// `void (*sighandler_t)(int)` — `signal(2)`'s handler type.
    pub type SigHandler = extern "C" fn(i32);

    extern "C" {
        /// POSIX `signal(2)`. Fine here: the handler is re-armed by
        /// default on every platform this builds for, and even one
        /// delivery is enough to wake [`super::wait`].
        pub fn signal(signum: i32, handler: SigHandler) -> usize;
        /// POSIX `write(2)`, async-signal-safe.
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // One byte per signal; the pipe would fill only after 64 KiB of
    // signals that nobody waited for.
    // SAFETY: `write(2)` is async-signal-safe. The handler is installed
    // only after `WAKE_FD` holds the pipe's write end, which is never
    // closed, and the one-byte buffer lives across the call.
    unsafe {
        ffi::write(WAKE_FD.load(Ordering::Relaxed), [1u8].as_ptr(), 1);
    }
}

/// Open the self-pipe and install handlers for SIGINT and SIGTERM.
/// Idempotent; call once before [`wait`].
pub fn install() -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::fd::IntoRawFd;
        let (reader, writer) = std::io::pipe()?;
        if WAKE.set(reader).is_ok() {
            WAKE_FD.store(writer.into_raw_fd(), Ordering::Relaxed);
            // SAFETY: `on_signal` matches `sighandler_t` and does only
            // async-signal-safe work.
            unsafe {
                ffi::signal(ffi::SIGINT, on_signal);
                ffi::signal(ffi::SIGTERM, on_signal);
            }
        }
    }
    Ok(())
}

/// Block until SIGINT or SIGTERM arrives after [`install`]. Without
/// handlers (not installed, or not a unix target) it never returns.
pub fn wait() {
    match WAKE.get() {
        Some(mut reader) => {
            let _ = reader.read_exact(&mut [0u8]);
        }
        None => loop {
            std::thread::park();
        },
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::time::Duration;

    extern "C" {
        /// C `raise(3)`: deliver a signal to the calling thread.
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn wait_returns_once_sigterm_arrives() {
        install().expect("self-pipe");
        let (woke, woken) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            wait();
            woke.send(()).unwrap();
        });
        assert!(woken.recv_timeout(Duration::from_millis(50)).is_err());
        // SAFETY: `raise(3)` takes a signal number and has no memory
        // preconditions; SIGTERM runs the handler installed above.
        assert_eq!(unsafe { raise(ffi::SIGTERM) }, 0);
        woken
            .recv_timeout(Duration::from_secs(5))
            .expect("wait() returned after SIGTERM");
    }
}
