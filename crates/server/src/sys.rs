//! Thin zero-dependency Linux syscall shim: `epoll` and `RLIMIT_NOFILE`.
//!
//! The epoll driver (DESIGN.md §11) needs readiness
//! notification, which `std` does not expose. Rather than pull in the
//! `libc` crate (the workspace's dependency policy, DESIGN.md §5), this
//! module declares the four C entry points it needs directly — `std`
//! already links the platform libc into every binary, so the symbols
//! resolve with no new dependency — and wraps them in a safe, owned-fd
//! API. This is the **only** module in the workspace allowed to use
//! `unsafe`; everything above it handles [`Epoll`] like any other std
//! type (the fd closes on drop via [`OwnedFd`]).
//!
//! Scope is deliberately tiny: create/ctl/wait on one epoll instance,
//! plus a best-effort file-descriptor rlimit raise for the
//! high-connection benchmark. No other syscalls, no global state.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;

/// Readable (there are bytes, or a peer `shutdown(SHUT_WR)` under
/// `EPOLLRDHUP`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (the send buffer drained below its watermark).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition; always reported, never needs registering.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (both halves closed); always reported.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half — a clean FIN while replies may still be
/// owed.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake one of the epoll instances waiting on a shared fd, not all of
/// them (registration only): the loops sharing one listener do not all
/// stampede on each new connection.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const RLIMIT_NOFILE: c_int = 7;

/// One readiness notification: a bitmask of `EPOLL*` flags plus the
/// caller's 64-bit token (the connection key, not an fd).
///
/// Matches the kernel's `struct epoll_event` ABI — packed on x86-64,
/// naturally aligned elsewhere — so a slice of these is passed straight
/// to `epoll_wait`.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// The token registered with the fd.
    pub token: u64,
}

impl EpollEvent {
    /// A zeroed event (buffer initialisation).
    pub const fn empty() -> Self {
        Self {
            events: 0,
            token: 0,
        }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance. Interest is level-triggered (the default):
/// a readiness bit stays set across `wait` calls until the condition
/// drains, so a loop that cannot finish a read or write this tick simply
/// sees the event again next tick — no edge-tracking state machine.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 allocates a new fd or returns -1; the
        // successful fd is exclusively owned here.
        let raw = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `raw` was just returned by the kernel and is owned by
        // no other handle.
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(raw as RawFd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` outlives the call; the kernel copies it. A DEL op
        // ignores the event pointer entirely.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for `events`, delivering `token` on readiness.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd` (also implicit when the fd closes).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for readiness, filling
    /// `buf` from the front. Returns how many events were written.
    /// `EINTR` is retried internally.
    pub fn wait(&self, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `buf` is a live, writable slice of `EpollEvent`;
            // the kernel writes at most `buf.len()` entries.
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    buf.len().min(c_int::MAX as usize) as c_int,
                    timeout_ms,
                )
            };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Best-effort raise of this process's open-file limit to at least
/// `want` descriptors (the 10k-connection benchmark needs two fds per
/// loopback connection). Tries the hard limit first — root may raise it
/// — then clamps to whatever the kernel allows. Returns the resulting
/// soft limit; on any failure the current (unraised) limit comes back,
/// so callers size their connection count from the return value instead
/// of assuming the raise worked.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live out-param for getrlimit.
    if cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }).is_err() {
        return 0;
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    if lim.rlim_max < want {
        // Privileged processes may lift the hard cap too.
        let try_hard = Rlimit {
            rlim_cur: want,
            rlim_max: want,
        };
        // SAFETY: passing a valid, initialised rlimit by pointer.
        if cvt(unsafe { setrlimit(RLIMIT_NOFILE, &try_hard) }).is_ok() {
            return want;
        }
    }
    let raised = Rlimit {
        rlim_cur: want.min(lim.rlim_max),
        rlim_max: lim.rlim_max,
    };
    // SAFETY: passing a valid, initialised rlimit by pointer.
    match cvt(unsafe { setrlimit(RLIMIT_NOFILE, &raised) }) {
        Ok(_) => raised.rlim_cur,
        Err(_) => lim.rlim_cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readability_with_the_registered_token() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 0xfeed).unwrap();

        let mut buf = [EpollEvent::empty(); 8];
        // Nothing readable yet: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = buf[0];
        assert_eq!({ ev.token }, 0xfeed);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        // Interest updates and removal round-trip.
        ep.modify(b.as_raw_fd(), EPOLLIN | EPOLLOUT, 0xbeef)
            .unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert!(n >= 1);
        assert_eq!({ buf[0].token }, 0xbeef);
        ep.delete(b.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_raise_reports_a_usable_limit() {
        let got = raise_nofile_limit(64);
        assert!(got >= 64, "any environment grants at least 64 fds");
    }
}
