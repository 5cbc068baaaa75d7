//! Child processes of the program under test: spawn, stop with
//! SIGTERM, and reap through `wait4` so every child's CPU time and peak
//! RSS come from the kernel's own accounting. A running daemon's CPU
//! time is read from its process CPU clock, its peak RSS from `VmHWM`.
//!
//! Plain `extern "C"` declarations stand in for a libc dependency; the
//! layouts below are those of 64-bit Linux.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark's process accounting assumes 64-bit Linux");

use std::os::unix::process::CommandExt;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;
const EINTR: i32 = 4;

/// How a reaped child ended and what it cost.
#[derive(Clone, Debug)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    pub wall_s: f64,
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    pub maxrss_kb: u64,
}

/// A spawned child that is killed and reaped on drop unless it was
/// reaped already, so no error path leaves a process behind.
pub struct Proc {
    pid: i32,
    started: Instant,
    // Never waited through std: `wait4` below reaps it.
    _child: Child,
    exit: Option<Exit>,
}

impl Proc {
    /// Spawn `cmd`. The child is also killed if this process dies first.
    pub fn spawn(mut cmd: Command) -> Result<Proc, String> {
        // SAFETY: prctl is async-signal-safe and touches only the
        // calling (child) process; no allocation happens in the closure.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
        Ok(Proc {
            pid,
            started,
            _child: child,
            exit: None,
        })
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Reap the child if it has exited, without blocking.
    pub fn try_wait(&mut self) -> Option<&Exit> {
        if self.exit.is_none() {
            self.exit = self.reap(WNOHANG).expect("wait4 on our own child");
        }
        self.exit.as_ref()
    }

    /// Block until the child exits.
    pub fn wait(mut self) -> Exit {
        if self.exit.is_none() {
            self.exit = self.reap(0).expect("wait4 on our own child");
        }
        self.exit.clone().expect("blocking wait4 reaps the child")
    }

    /// SIGTERM, then wait.
    pub fn terminate(self) -> Exit {
        if self.exit.is_none() {
            // SAFETY: plain syscall on a pid this process spawned and has
            // not reaped, so the pid cannot have been reused.
            unsafe { kill(self.pid, SIGTERM) };
        }
        self.wait()
    }

    /// CPU seconds the running child has used so far, all threads, from
    /// its process CPU clock (nanosecond resolution, unlike `/proc`'s
    /// clock ticks).
    pub fn cpu_s(&self) -> Result<f64, String> {
        // The kernel's encoding of a process CPU clock id:
        // (~pid << 3) | CPUCLOCK_SCHED.
        let clock = (!self.pid << 3) | 2;
        let mut ts = Timespec::default();
        // SAFETY: `ts` is a valid, writable timespec.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return Err(format!(
                "read CPU clock of pid {}: {}",
                self.pid,
                std::io::Error::last_os_error()
            ));
        }
        Ok(ts.sec as f64 + ts.nsec as f64 / 1e9)
    }

    /// Peak resident set of the running child (`VmHWM`), in KiB.
    pub fn vm_hwm_kb(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid);
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// `wait4` with `options`; `Ok(None)` when WNOHANG finds it running.
    fn reap(&self, options: i32) -> std::io::Result<Option<Exit>> {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: both out-pointers are valid for writes; the pid is
            // our unreaped child.
            let r = unsafe { wait4(self.pid, &mut status, options, &mut usage) };
            if r == self.pid {
                break;
            }
            if r == 0 {
                return Ok(None);
            }
            let err = std::io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
        }
        let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Ok(Some(Exit {
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            wall_s: self.started.elapsed().as_secs_f64(),
            cpu_s: tv(&usage.utime) + tv(&usage.stime),
            maxrss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
        }))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if self.exit.is_none() {
            // SAFETY: as in `terminate`; the child is unreaped.
            unsafe { kill(self.pid, SIGKILL) };
            let _ = self.reap(0);
        }
    }
}

/// Poll until `ready()` holds or the child exits or `timeout` passes.
pub fn wait_until(
    proc: &mut Proc,
    timeout: Duration,
    mut ready: impl FnMut() -> bool,
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        if ready() {
            return Ok(());
        }
        if let Some(exit) = proc.try_wait() {
            return Err(format!("exited early ({:?})", exit.code));
        }
        if Instant::now() > deadline {
            return Err(format!("not ready after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
