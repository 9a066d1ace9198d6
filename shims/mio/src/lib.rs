//! Offline vendored subset of the [`mio`](https://docs.rs/mio) crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships the small slice of the `mio` API the net engine's
//! reactor actually uses: a [`Poll`] readiness queue over Linux epoll,
//! an [`Events`] buffer, [`Token`] association, and the non-blocking
//! [`read_fd`] syscall wrapper the event loop drains sockets with.
//! Semantics match the upstream crate for this subset (level-triggered
//! readable interest only); anything cmg does not call is omitted.
//!
//! This shim is also the *designated syscall boundary* of the reactor:
//! the `no-blocking-io-in-reactor` lint bans `std::io` read/write calls
//! inside `crates/net/src/reactor.rs`, so every kernel entry the event
//! loop performs funnels through the FFI declarations in this file.
//! No dependencies beyond `std`; the `extern "C"` declarations bind the
//! libc that `std` already links.

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Linux `struct epoll_event`. Packed on x86-64 (the kernel ABI), which
/// `repr(C, packed)` reproduces on every architecture this repo targets.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// Caller-chosen identifier associated with a registered fd, echoed back
/// in every readiness event for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// One readiness notification from [`Poll::poll`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: Token,
    flags: u32,
}

impl Event {
    /// The token the ready fd was registered with.
    #[inline]
    pub fn token(&self) -> Token {
        self.token
    }

    /// Whether the fd has bytes to read (or a pending EOF/error, which a
    /// read will surface — callers drain on any of these).
    #[inline]
    pub fn is_readable(&self) -> bool {
        self.flags & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0
    }

    /// Whether the peer closed its end (half-close or error).
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.flags & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0
    }
}

/// A fixed-capacity buffer [`Poll::poll`] fills with readiness events.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// An event buffer holding at most `capacity` notifications per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// The events delivered by the most recent [`Poll::poll`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| Event {
            token: Token(e.data as usize),
            flags: e.events,
        })
    }

    /// Whether the most recent poll delivered no events (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A readiness queue over Linux `epoll`, in the shape of `mio::Poll`
/// restricted to level-triggered readable interest.
pub struct Poll {
    epfd: RawFd,
}

impl Poll {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poll> {
        // Safety: epoll_create1 touches no caller memory.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poll { epfd })
    }

    /// Registers `fd` for level-triggered readable readiness, tagged with
    /// `token`. The caller keeps ownership of the fd and must keep it
    /// open while registered.
    pub fn register(&self, fd: RawFd, token: Token) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP,
            data: token.0 as u64,
        };
        // Safety: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Removes `fd` from the interest set. Harmless if the fd was
    /// already auto-removed by its close.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // Safety: as in `register`; DEL ignores the event payload.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(2) {
                // ENOENT: already gone.
                return Ok(());
            }
            return Err(err);
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait indefinitely), filling `events`. Returns
    /// the number of events delivered; retries transparently on EINTR.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let millis: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        loop {
            // Safety: `events.buf` is a live, correctly sized allocation.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.buf.as_mut_ptr(),
                    events.buf.len() as c_int,
                    millis,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            events.len = n as usize;
            return Ok(events.len);
        }
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        // Safety: the fd is owned by this Poll and closed exactly once.
        unsafe {
            close(self.epfd);
        }
    }
}

/// One non-blocking `read(2)` on `fd` into `buf`. `Ok(0)` is EOF;
/// `WouldBlock` means the socket is drained (the fd must have been put
/// into non-blocking mode by its owner). Retries transparently on EINTR.
pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        // Safety: `buf` is a live unique borrow of at least `len` bytes.
        let n = unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        return Ok(n as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_times_out_on_silence() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let poll = Poll::new().unwrap();
        poll.register(a.as_raw_fd(), Token(7)).unwrap();
        let mut events = Events::with_capacity(4);
        let n = poll
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn readable_event_carries_the_token_and_read_fd_drains() {
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let poll = Poll::new().unwrap();
        poll.register(a.as_raw_fd(), Token(3)).unwrap();
        b.write_all(b"hello").unwrap();
        let mut events = Events::with_capacity(4);
        let n = poll
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token(), Token(3));
        assert!(ev.is_readable());
        let mut buf = [0u8; 16];
        assert_eq!(read_fd(a.as_raw_fd(), &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        // Drained: the next read would block.
        let err = read_fd(a.as_raw_fd(), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn peer_close_is_visible_as_closed_readiness_then_eof() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let poll = Poll::new().unwrap();
        poll.register(a.as_raw_fd(), Token(0)).unwrap();
        drop(b);
        let mut events = Events::with_capacity(4);
        let n = poll
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.is_readable() && ev.is_closed());
        let mut buf = [0u8; 16];
        assert_eq!(read_fd(a.as_raw_fd(), &mut buf).unwrap(), 0, "EOF");
        poll.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn deregister_stops_readiness() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let (c, mut d) = UnixStream::pair().unwrap();
        let poll = Poll::new().unwrap();
        poll.register(a.as_raw_fd(), Token(1)).unwrap();
        poll.register(c.as_raw_fd(), Token(2)).unwrap();
        poll.deregister(a.as_raw_fd()).unwrap();
        b.write_all(b"unheard").unwrap();
        d.write_all(b"heard").unwrap();
        let mut events = Events::with_capacity(4);
        let n = poll
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1, "only the registered fd reports");
        assert_eq!(events.iter().next().unwrap().token(), Token(2));
        // Level-triggered: unread bytes keep `c` ready, and `a` stays out.
        let n = poll
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token(), Token(2));
        // Deregistering again is harmless (ENOENT is swallowed).
        poll.deregister(a.as_raw_fd()).unwrap();
    }
}
