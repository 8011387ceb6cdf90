//! A dependency-free safe wrapper over Linux `epoll`.
//!
//! The build environment vendors no crates, so the three syscalls the
//! reactor needs — `epoll_create1`, `epoll_ctl`, `epoll_wait` — are
//! declared here as raw FFI against the C library every Rust binary on
//! Linux already links. The wrapper owns the epoll instance fd (closed
//! on drop via [`OwnedFd`]) and speaks in tokens: callers register a
//! file descriptor under an arbitrary `u64` token and get that token
//! back in readiness events, which insulates the connection table from
//! fd reuse races.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable readiness (`EPOLLIN`).
pub const EVENT_READ: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EVENT_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never requested.
pub const EVENT_ERROR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`) — always reported, never requested.
pub const EVENT_HANGUP: u32 = 0x010;
/// Report the next readiness once, then disable the fd until it is
/// modified again (`EPOLLONESHOT`).
pub const EVENT_ONESHOT: u32 = 1 << 30;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// The kernel's `struct epoll_event`. Packed on x86-64 (a quirk the ABI
/// inherited from aligning with 32-bit layouts); naturally aligned
/// everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    token: u64,
}

impl EpollEvent {
    /// Zeroed event, for sizing wait buffers.
    pub fn empty() -> EpollEvent {
        EpollEvent {
            events: 0,
            token: 0,
        }
    }

    /// The readiness bitmask (`EVENT_*`).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The token the fd was registered under.
    pub fn token(&self) -> u64 {
        self.token
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl AsRawFd for Epoll {
    /// An epoll instance is itself pollable: it reads as ready while any
    /// fd registered with it is.
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

impl Epoll {
    /// Create a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 has no memory arguments; a non-negative
        // return is a freshly created fd this process owns.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            token,
        };
        let ev_ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, ev_ptr) })?;
        Ok(())
    }

    /// Register `fd` under `token` for the `interest` events
    /// (level-triggered).
    pub fn register(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Remove `fd` from the interest list.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for readiness, filling `events`. Returns
    /// the number of events delivered (0 on timeout). A signal-interrupted
    /// wait is reported as 0 events rather than an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid, writable slice; the kernel fills
        // at most `events.len()` entries.
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn registered_sockets_report_readiness_under_their_token() {
        let ep = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        ep.register(b.as_raw_fd(), EVENT_READ, 42).unwrap();

        // Nothing readable yet: wait times out.
        let mut events = vec![EpollEvent::empty(); 8];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].events() & EVENT_READ, 0);

        // Modify to write interest: an empty socket buffer is writable.
        ep.modify(b.as_raw_fd(), EVENT_WRITE, 43).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 43);
        assert_ne!(events[0].events() & EVENT_WRITE, 0);

        // Deregistered fds never fire again.
        ep.deregister(b.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn hangup_is_reported_even_without_interest() {
        let ep = Epoll::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        // Interest 0: only the always-on error/hangup events can fire.
        ep.register(b.as_raw_fd(), 0, 7).unwrap();
        drop(a);
        let mut events = vec![EpollEvent::empty(); 8];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EVENT_HANGUP, 0);
    }
}
