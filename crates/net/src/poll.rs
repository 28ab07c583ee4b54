//! Readiness polling: the thin OS layer under the event-loop backend.
//!
//! A deliberately small subset of what `mio`/`polling` offer, written
//! directly against the platform C library (which `std` already links) so
//! the crate stays dependency-free:
//!
//! * [`Poller`] — register sockets with a `u64` token and an [`Interest`]
//!   (read/write), then [`Poller::wait`] for readiness events. Linux gets
//!   `epoll`; every other Unix falls back to `poll(2)` (the fallback also
//!   compiles — and is unit-tested — on Linux).
//! * [`Waker`] — a self-pipe that makes `wait` return from another thread,
//!   which is how writer threads hand buffered frames to the loop.
//!
//! Registration is **level-triggered**: an fd that still has unread bytes
//! (or writable space) keeps firing, so a loop that drains until
//! `WouldBlock` never misses data. Tokens are caller-chosen; the poller
//! never inspects them.
//!
//! ```
//! use rnet::poll::{Interest, Poller, Waker};
//! use std::time::Duration;
//!
//! let poller = Poller::new().unwrap();
//! let waker = Waker::new(&poller, 7).unwrap();
//! waker.wake().unwrap();
//! let mut events = Vec::new();
//! poller.wait(&mut events, Some(Duration::from_secs(1))).unwrap();
//! assert_eq!(events[0].token, 7);
//! waker.drain(); // reset for the next wake
//! ```

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Fire when the fd has bytes to read (or the peer hung up).
    pub read: bool,
    /// Fire when the fd can accept more bytes.
    pub write: bool,
}

impl Interest {
    /// Read readiness only — the steady state of a connection.
    pub const READ: Interest = Interest { read: true, write: false };
    /// Read and write readiness — while a send buffer has a backlog.
    pub const READ_WRITE: Interest = Interest { read: true, write: true };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (or at EOF/error — a read will tell).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
}

/// Timeout in whole milliseconds for the C APIs: `None` blocks forever,
/// sub-millisecond waits round up to 1 ms so they stay waits, not spins.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis().min(i32::MAX as u128) as i32;
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms
            }
        }
    }
}

/// Minimal FFI onto the platform C library. `std` links libc on every
/// supported Unix, so plain `extern "C"` declarations resolve without any
/// crate dependency.
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    // epoll_event is packed on x86-64 (kernel ABI), naturally aligned
    // elsewhere.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x0004;
}

/// A non-blocking pipe pair `(read_end, write_end)` — the self-pipe trick
/// behind [`Waker`].
fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
    unsafe {
        let mut fds = [0i32; 2];
        if sys::pipe(fds.as_mut_ptr()) != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            let flags = sys::fcntl(fd, sys::F_GETFL, 0);
            if flags < 0 || sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
                let e = io::Error::last_os_error();
                sys::close(fds[0]);
                sys::close(fds[1]);
                return Err(e);
            }
        }
        Ok((fds[0], fds[1]))
    }
}

/// Readiness selector over a set of registered fds.
///
/// On Linux this is an `epoll` instance; elsewhere it is the portable
/// [`PollFallback`]. Both are safe to drive from one thread while other
/// threads call `register`/`modify`, and in both such a change reaches a
/// `wait` already blocked (epoll is kernel-side thread-safe; the fallback
/// serialises its fd table behind a mutex and wakes its own wait).
#[derive(Debug)]
pub enum Poller {
    /// Linux epoll instance.
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    /// Portable `poll(2)` fallback.
    Fallback(PollFallback),
}

impl Poller {
    /// The platform's best poller: epoll on Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller::Epoll(Epoll::new()?))
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Poller::Fallback(PollFallback::new()))
        }
    }

    /// The portable fallback, selectable everywhere (used by tests to keep
    /// the non-Linux path honest on Linux CI).
    pub fn fallback() -> Poller {
        Poller::Fallback(PollFallback::new())
    }

    /// Start watching `fd` under `token` with `interest`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Fallback(p) => p.register(fd, token, interest),
        }
    }

    /// Change the interest (and/or token) of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Fallback(p) => p.register(fd, token, interest),
        }
    }

    /// Stop watching `fd`. Call *before* closing the fd — a closed duplicate
    /// elsewhere keeps an epoll registration alive otherwise.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::READ),
            Poller::Fallback(p) => p.deregister(fd),
        }
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses. Ready events are appended to `events` (cleared first);
    /// returns the number delivered (0 = timeout).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout),
            Poller::Fallback(p) => p.wait(events, timeout),
        }
    }
}

/// Linux `epoll` poller. The registration table lives in the kernel, so
/// every operation is a thin syscall wrapper.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct Epoll {
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut flags = 0u32;
        if interest.read {
            flags |= sys::EPOLLIN;
        }
        if interest.write {
            flags |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent { events: flags, data: token };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let n = loop {
            let rc = unsafe {
                sys::epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms(timeout))
            };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &raw[..n] {
            let ev = *ev; // copy out of the possibly-packed array slot
            let flags = ev.events;
            events.push(Event {
                token: ev.data,
                // Errors and hangups surface as readable: the next read
                // reports the condition precisely.
                readable: flags & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                writable: flags & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(events.len())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// Portable poller over `poll(2)`: the registration table lives in user
/// space behind a mutex and is rebuilt into a `pollfd` array per wait.
/// O(fds) per call — fine at the handful-of-workers scale this runtime
/// drives, and available on every Unix.
///
/// `poll(2)` only sees the array it was given, so a `register`, `modify` or
/// `deregister` that changes the table while a `wait` is blocked writes to
/// a self-pipe polled beside the fds: the wait wakes, rebuilds its array
/// and polls again for what is left of its timeout, as an epoll wait sees
/// a concurrent `epoll_ctl`.
#[derive(Debug, Default)]
pub struct PollFallback {
    table: std::sync::Mutex<Table>,
}

#[derive(Debug, Default)]
struct Table {
    fds: Vec<(RawFd, u64, Interest)>,
    /// `wait` calls between building their array and leaving `poll(2)`.
    waiting: usize,
    /// The self-pipe, made by the first `wait`.
    wake: Option<Waker>,
}

impl PollFallback {
    fn new() -> PollFallback {
        PollFallback::default()
    }

    /// Apply `change` to the table; if it changed anything while a wait is
    /// in flight, wake that wait so it polls the new table.
    fn update(
        &self,
        change: impl FnOnce(&mut Vec<(RawFd, u64, Interest)>) -> bool,
    ) -> io::Result<()> {
        let mut table = self.table.lock().expect("poller table poisoned");
        if change(&mut table.fds) && table.waiting > 0 {
            table.wake.as_ref().expect("a waiting poll made the pipe").wake()?;
        }
        Ok(())
    }

    fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let entry = (fd, token, interest);
        self.update(|fds| match fds.iter_mut().find(|(f, _, _)| *f == fd) {
            Some(slot) if *slot == entry => false,
            Some(slot) => {
                *slot = entry;
                true
            }
            None => {
                fds.push(entry);
                true
            }
        })
    }

    fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.update(|fds| {
            let before = fds.len();
            fds.retain(|(f, _, _)| *f != fd);
            fds.len() != before
        })
    }

    fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // Slot 0 is the self-pipe; the registered fds follow.
            let (mut pollfds, tokens): (Vec<sys::PollFd>, Vec<u64>) = {
                let mut table = self.table.lock().expect("poller table poisoned");
                if table.wake.is_none() {
                    table.wake = Some(Waker::pipe()?);
                }
                table.waiting += 1;
                let pipe = table.wake.as_ref().map(|w| (w.read_fd, u64::MAX, Interest::READ));
                pipe.into_iter()
                    .chain(table.fds.iter().copied())
                    .map(|(fd, token, interest)| {
                        let mut ev = 0i16;
                        if interest.read {
                            ev |= sys::POLLIN;
                        }
                        if interest.write {
                            ev |= sys::POLLOUT;
                        }
                        (sys::PollFd { fd, events: ev, revents: 0 }, token)
                    })
                    .unzip()
            };
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let polled = loop {
                // SAFETY: `pollfds` is an owned array of `pollfds.len()`
                // initialised `pollfd`s, borrowed mutably for the whole call.
                let rc = unsafe {
                    sys::poll(pollfds.as_mut_ptr(), pollfds.len() as u64, timeout_ms(remaining))
                };
                if rc >= 0 {
                    break Ok(());
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    break Err(e);
                }
            };
            let changed = {
                let mut table = self.table.lock().expect("poller table poisoned");
                table.waiting -= 1;
                let changed = pollfds[0].revents != 0;
                if changed {
                    table.wake.as_ref().expect("made above").drain();
                }
                changed
            };
            polled?;
            for (pfd, &token) in pollfds.iter().zip(&tokens).skip(1) {
                let re = pfd.revents;
                if re != 0 {
                    events.push(Event {
                        token,
                        readable: re & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0,
                        writable: re & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0,
                    });
                }
            }
            let expired = remaining.is_some_and(|r| r.is_zero());
            if !events.is_empty() || !changed || expired {
                return Ok(events.len());
            }
        }
    }
}

/// Cross-thread wakeup for a [`Poller`]: a non-blocking self-pipe whose
/// read end is registered like any socket. [`Waker::wake`] is safe from
/// any thread; the loop calls [`Waker::drain`] when it sees the token.
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Build a waker and register its read end on `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let waker = Waker::pipe()?;
        poller.register(waker.read_fd, token, Interest::READ)?;
        Ok(waker)
    }

    /// A waker registered nowhere: the fallback poller's own self-pipe.
    fn pipe() -> io::Result<Waker> {
        let (read_fd, write_fd) = nonblocking_pipe()?;
        Ok(Waker { read_fd, write_fd })
    }

    /// Make the poller's `wait` return. Idempotent while undrained: the
    /// pipe holds at most a buffer of bytes and `wake` ignores a full one.
    pub fn wake(&self) -> io::Result<()> {
        let buf = [1u8];
        let rc = unsafe { sys::write(self.write_fd, buf.as_ptr().cast(), 1) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            // A full pipe already guarantees a pending wakeup.
            if e.kind() != io::ErrorKind::WouldBlock {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Consume queued wakeups so the next `wait` blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let rc = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if rc <= 0 {
                return;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// Waker writes/reads raw fds it owns; both syscalls are thread-safe.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn pollers() -> Vec<Poller> {
        let mut v = vec![Poller::fallback()];
        v.push(Poller::new().unwrap());
        v
    }

    #[test]
    fn readable_after_peer_writes() {
        for poller in pollers() {
            let (mut a, b) = loopback_pair();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 42, Interest::READ).unwrap();
            let mut events = Vec::new();
            // Nothing to read yet: times out.
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0);
            a.write_all(b"ping").unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(n, 1);
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn write_interest_fires_when_writable() {
        for poller in pollers() {
            let (a, _b) = loopback_pair();
            a.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 7, Interest::READ_WRITE).unwrap();
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(n, 1);
            assert!(events[0].writable, "fresh socket has send-buffer space");
            // Downgrade to read-only: no more writable storms.
            poller.modify(a.as_raw_fd(), 7, Interest::READ).unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn peer_close_is_reported_as_readable() {
        for poller in pollers() {
            let (a, b) = loopback_pair();
            a.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
            drop(b.take_error()); // silence unused warnings
            drop(b);
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(n, 1);
            assert!(events[0].readable, "EOF must wake a reader");
        }
    }

    #[test]
    fn waker_crosses_threads_and_drains() {
        for poller in pollers() {
            let waker = std::sync::Arc::new(Waker::new(&poller, u64::MAX).unwrap());
            let w = std::sync::Arc::clone(&waker);
            let t0 = Instant::now();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                w.wake().unwrap();
            });
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1);
            assert_eq!(events[0].token, u64::MAX);
            assert!(t0.elapsed() < Duration::from_secs(4), "woke early, not by timeout");
            waker.drain();
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0, "drained waker stays quiet");
            handle.join().unwrap();
        }
    }

    #[test]
    fn an_interest_change_from_another_thread_wakes_a_blocked_wait() {
        for poller in pollers() {
            let (a, _b) = loopback_pair();
            a.set_nonblocking(true).unwrap();
            let fd = a.as_raw_fd();
            poller.register(fd, 3, Interest::READ).unwrap();
            let poller = Arc::new(poller);
            let p = Arc::clone(&poller);
            let t0 = Instant::now();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                p.modify(fd, 3, Interest::READ_WRITE).unwrap();
            });
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            let took = t0.elapsed();
            handle.join().unwrap();
            assert_eq!(n, 1, "{poller:?}: the new write interest must fire");
            assert!(events[0].writable && events[0].token == 3);
            assert!(
                took < Duration::from_secs(1),
                "{poller:?}: woke after {took:?}, not on the change"
            );
        }
    }

    #[test]
    fn deregister_stops_events() {
        for poller in pollers() {
            let (mut a, b) = loopback_pair();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
            a.write_all(b"x").unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(events.len(), 1);
            poller.deregister(b.as_raw_fd()).unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0, "deregistered fd is silent even with unread bytes");
            // Keep `b` alive so the fd is valid for the whole test.
            let mut sink = [0u8; 1];
            let _ = (&b).read(&mut sink);
        }
    }
}
