//! A vendored readiness shim over Linux `epoll`, in the spirit of the
//! offline stand-ins under `vendor/`: just enough surface for a rank's
//! own thread to wait on every peer socket of its mesh at once, with
//! none of the cross-platform machinery a full `mio` would drag in.
//!
//! The kernel interface is declared directly (`epoll_create1`,
//! `epoll_ctl`, `epoll_pwait2`, `poll`) — libc is already linked into
//! every Rust binary through `std`, so no new dependency is required.
//! Level-triggered mode is used throughout: a socket with unread bytes
//! keeps reporting readable, so a reader that stops early (its frame
//! queue is full) simply finds it again on the next wait.
//!
//! Waits take their timeout to the nanosecond (`epoll_pwait2`): a
//! millisecond-granular `epoll_wait` would stretch a 0.3 ms deadline to
//! 1 ms and cut 1.9 ms to 1 ms, and the leader's ticks are 1 ms apart.
//! On a kernel without `epoll_pwait2` the wait falls back to
//! `epoll_wait`, rounding the timeout *up* to whole milliseconds.
//!
//! Linux-only, like the deployment targets of this repo (the paper's
//! cluster, the CI runners, the reference container).

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable readiness (data, EOF, or an error to be discovered by the
/// next `read`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (kernel send buffer has room).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition; always reported, never needs arming.
pub const EPOLLERR: u32 = 0x008;
/// Hangup; always reported, never needs arming.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half; armed so a dead peer wakes the waiter
/// even when its socket holds no data.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const POLLOUT: c_short = 0x004;
const ENOSYS: i32 = 38;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the one ABI
/// where the kernel declares it packed); naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

/// The C `struct timespec`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// The C `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut RawEpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn epoll_wait(
        epfd: c_int,
        events: *mut RawEpollEvent,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// `d` as a `timespec`, saturating at `i64::MAX` seconds.
fn timespec_of(d: Duration) -> Timespec {
    Timespec {
        tv_sec: i64::try_from(d.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: d.subsec_nanos() as c_long,
    }
}

/// `d` in whole milliseconds for `epoll_wait`, rounded up so a wait
/// never ends before its deadline; zero stays zero (a poll).
fn millis_rounded_up(d: Duration) -> c_int {
    d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Raw readiness bits (`EPOLLIN` / `EPOLLOUT` / `EPOLLERR` / ...).
    pub events: u32,
}

impl PollEvent {
    /// The fd should be read: data, EOF, hangup or a pending error (the
    /// error is surfaced by the read itself).
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0
    }

    /// The fd should be written: buffer space, or an error a write will
    /// surface.
    pub fn writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }
}

/// Thin RAII wrapper over an epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

// SAFETY: the one field is the epoll fd, which the kernel lets any
// thread use, concurrently too.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = RawEpollEvent { events: interest, data: token };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` under `token` with `interest` (level
    /// triggered).
    pub fn register(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces `fd`'s interest set.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks for readiness, up to `timeout` (`None` blocks forever, a
    /// zero timeout only polls). Fills `out` with this round's
    /// notifications; a signal-interrupted wait returns empty instead
    /// of erroring.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        const MAX_EVENTS: usize = 64;
        let mut raw = [RawEpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let spec = timeout.map(timespec_of);
        let spec_ptr = spec.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
        let (events, max) = (raw.as_mut_ptr(), MAX_EVENTS as c_int);
        // SAFETY: `events` points at `MAX_EVENTS` writable entries that
        // outlive the call, `spec_ptr` is null or points at `spec`,
        // which lives to the end of this function, and a null sigmask
        // leaves the signal mask alone.
        let mut rc = unsafe { epoll_pwait2(self.epfd, events, max, spec_ptr, std::ptr::null()) };
        if rc < 0 && io::Error::last_os_error().raw_os_error() == Some(ENOSYS) {
            let ms = timeout.map_or(-1, millis_rounded_up);
            // SAFETY: as above, without the timespec.
            rc = unsafe { epoll_wait(self.epfd, events, max, ms) };
        }
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in raw.iter().take(rc as usize) {
            out.push(PollEvent { token: ev.data, events: ev.events });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// Blocks until `fd` alone is writable (or errored). For a writer that
/// must not read anything else meanwhile.
pub fn wait_writable(fd: RawFd) -> io::Result<()> {
    let mut pfd = PollFd { fd, events: POLLOUT, revents: 0 };
    loop {
        // SAFETY: `pfd` is one valid, writable `pollfd` for the whole
        // call; an fd the caller has closed only makes poll report
        // `POLLNVAL`.
        if unsafe { poll(&mut pfd, 1, -1) } >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn readiness_tracks_data_and_interest() {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let mut events = Vec::new();

        // Nothing buffered: EPOLLIN-only interest stays quiet.
        poller.register(rx.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty(), "spurious readiness: {events:?}");

        tx.write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());

        // Level-triggered: unread data keeps reporting...
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(!events.is_empty());
        // ...until consumed.
        let mut buf = [0u8; 16];
        let mut rx_ref = &rx;
        assert_eq!(rx_ref.read(&mut buf).unwrap(), 4);
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());

        // An idle socket is instantly writable once EPOLLOUT is armed.
        poller.modify(rx.as_raw_fd(), 7, EPOLLOUT).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.writable()));
        wait_writable(rx.as_raw_fd()).unwrap();

        // Peer close surfaces as readable readiness (EOF).
        poller.modify(rx.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP).unwrap();
        drop(tx);
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.readable()));

        poller.deregister(rx.as_raw_fd()).unwrap();
    }

    #[test]
    fn timeouts_keep_sub_millisecond_precision() {
        let ms = Duration::from_millis;
        let us = Duration::from_micros;
        assert_eq!(timespec_of(us(1_900)), Timespec { tv_sec: 0, tv_nsec: 1_900_000 });
        assert_eq!(timespec_of(us(300)), Timespec { tv_sec: 0, tv_nsec: 300_000 });
        assert_eq!(timespec_of(ms(2_500)), Timespec { tv_sec: 2, tv_nsec: 500_000_000 });
        assert_eq!(timespec_of(Duration::MAX).tv_sec, i64::MAX);
        // The fallback never ends a wait early and never spins on a
        // sub-millisecond request.
        assert_eq!(millis_rounded_up(us(1_900)), 2);
        assert_eq!(millis_rounded_up(us(300)), 1);
        assert_eq!(millis_rounded_up(ms(3)), 3);
        assert_eq!(millis_rounded_up(Duration::ZERO), 0);
        assert_eq!(millis_rounded_up(Duration::MAX), c_int::MAX);

        // And the real wait honours a 300 µs deadline: it neither
        // returns at once nor sleeps a whole millisecond.
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let mut best = Duration::MAX;
        for _ in 0..20 {
            let t0 = Instant::now();
            poller.wait(&mut events, Some(us(300))).unwrap();
            let took = t0.elapsed();
            assert!(took >= us(300), "a 300 µs wait returned after {took:?}");
            best = best.min(took);
        }
        assert!(best < us(950), "the best of 20 waits of 300 µs took {best:?}");
    }
}
