//! The few OS facilities the benchmark needs beyond `std`: `ppoll(2)` for
//! pacing the load generator, and `/proc` readers for the CPU time and peak
//! memory of a process. Declared with `extern "C"` the same way
//! `cold-serve`'s `sys.rs` binds epoll — no crates.io.
//!
//! Pacing uses `ppoll`'s nanosecond timeout rather than socket read
//! timeouts: a blocked read with `SO_RCVTIMEO` can wake milliseconds late,
//! and an open-loop generator that sends late understates latency.

use std::io;
use std::os::unix::io::RawFd;
use std::time::{Duration, Instant};

/// Readable.
pub const POLLIN: i16 = 0x001;
/// Writable.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported).
pub const POLLHUP: i16 = 0x010;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const SC_CLK_TCK: i32 = 2;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, ...) -> i32;
}

/// Have the kernel kill the child `cmd` starts if this process dies first,
/// so a crashed or killed benchmark never leaves a server running.
pub fn die_with_parent(cmd: &mut std::process::Command) {
    use std::os::unix::process::CommandExt;
    // SAFETY: the hook runs in the forked child before exec and only makes
    // one async-signal-safe syscall.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
}

/// Wait until one of `fds` is ready or `timeout` passes. Entries with a
/// negative fd are ignored, as `poll(2)` specifies. An interrupted wait
/// returns `Ok(0)`; callers loop on their own clock anyway.
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // `pollfd` structs that the kernel may write `revents` into; `ts` lives
    // across the call; a null sigmask means "keep the current mask".
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// User plus system CPU seconds `pid` has used (`/proc/<pid>/stat`),
/// including threads that already exited.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may hold spaces; fields after it are plain.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // SAFETY: plain libc query, no pointers.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Ok((ticks(11)? + ticks(12)?) / hz)
}

/// Peak resident set size of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Milliseconds a fixed integer spin takes (median of three). Run before
/// every measurement: a run on a noisy host shows up as a slow spin.
pub fn calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            1e3 * t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }

    #[test]
    fn wait_times_out_on_nothing() {
        let t = Instant::now();
        let n = wait(&mut [], Duration::from_millis(5)).unwrap();
        assert_eq!(n, 0);
        assert!(t.elapsed() >= Duration::from_millis(5));
    }
}
