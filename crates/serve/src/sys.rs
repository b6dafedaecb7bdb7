//! Hand-rolled epoll/eventfd bindings — direct `extern "C"` syscall
//! declarations, no crates.io, per the workspace shims policy.
//!
//! Only what the readiness-driven transport ([`crate::epoll`]) needs:
//! an epoll instance with add/modify/delete/wait, and an eventfd used as
//! a cross-thread wakeup (reload completions, shutdown). Everything is
//! wrapped in RAII types that close their fd on drop; `epoll_wait`
//! retries `EINTR` so callers never see spurious interrupt errors.
//!
//! Linux-only by construction (`cfg(target_os = "linux")` at the module
//! declaration): on other platforms this file is not compiled at all,
//! and `Server::start` returns an `Unsupported` error.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never needs arming.
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up (`EPOLLHUP`).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake only one of the epoll instances waiting on this fd
/// (`EPOLLEXCLUSIVE`); valid at `add` only, never at `modify`.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// `struct epoll_event`. Packed on x86/x86_64, where the kernel ABI has
/// no padding between `events` and `data`.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLL*`).
    pub events: u32,
    /// Caller-chosen token, handed back verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for sizing `epoll_wait` buffers.
    pub fn empty() -> Self {
        Self { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// One epoll instance; closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given interest bits and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest bits (and token) of a registered `fd`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`. Harmless if the fd is already gone.
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness, filling `events`; `None` blocks indefinitely.
    /// Sub-millisecond timeouts round *up* so a near deadline cannot
    /// degenerate into a busy spin. Retries `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: the buffer is valid for `events.len()` entries.
            let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used as a one-way doorbell: any thread calls
/// [`EventFd::wake`], the owning event loop sees `EPOLLIN` and calls
/// [`EventFd::drain`]. Closed on drop.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell. Infallible by design: the only failure mode of
    /// a nonblocking eventfd write is a saturated counter, which still
    /// leaves the fd readable — the wakeup is not lost.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: 8 valid bytes, as the eventfd contract requires.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Clear the counter so level-triggered epoll stops reporting it.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: 8 valid bytes; EAGAIN (already drained) is fine.
        unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_rings_through_epoll() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw(), EPOLLIN, 7).unwrap();

        // Nothing pending: a zero-timeout wait returns empty.
        let mut events = vec![EpollEvent::empty(); 4];
        let n = ep.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);

        // Wake from "another thread", observe readiness with our token.
        efd.wake();
        let n = ep.wait(&mut events, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        let (bits, token) = (events[0].events, events[0].data);
        assert_ne!(bits & EPOLLIN, 0);
        assert_eq!(token, 7);

        // Drained, the level-triggered readiness clears.
        efd.drain();
        let n = ep.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn modify_and_delete_are_honored() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw(), EPOLLIN, 1).unwrap();
        efd.wake();
        // Interest swapped to write-only: the pending read no longer
        // reports (an eventfd is always writable, so EPOLLOUT fires —
        // the point is the token change proves MOD took effect).
        ep.modify(efd.raw(), EPOLLOUT, 2).unwrap();
        let mut events = vec![EpollEvent::empty(); 4];
        let n = ep.wait(&mut events, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 2);
        ep.delete(efd.raw());
        let n = ep.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);
    }
}
