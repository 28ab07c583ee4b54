//! Readiness polling: the thin OS layer under the event-loop backend.
//!
//! A deliberately small subset of what `mio`/`polling` offer, written
//! directly against the C library (which `std` already links) so the crate
//! stays dependency-free. Linux only: the one backend is `epoll`.
//!
//! * [`Poller`] — register sockets with a `u64` token and an [`Interest`]
//!   (read/write), then [`Poller::wait`] for readiness events.
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

#[cfg(not(target_os = "linux"))]
compile_error!("rnet builds on Linux only: epoll is its one readiness backend");

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::time::Duration;

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

/// Poll token of an event loop's self-pipe [`Waker`]. Connection tokens
/// are dense small integers, so the two reserved tokens at the top of the
/// range never meet one.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Poll token of an event loop's listening socket.
pub const LISTEN_TOKEN: u64 = u64::MAX - 1;

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

/// Events one [`Poller::wait`] delivers at most. Level-triggered fds left
/// over stay ready, so the next `wait` delivers them.
const MAX_EVENTS: usize = 64;

/// Timeout in whole milliseconds for `epoll_wait`: `None` blocks forever,
/// sub-millisecond waits round up to 1 ms so they stay waits, not spins.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis().min(c_int::MAX as u128) as c_int;
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms
            }
        }
    }
}

/// `rc`, or the OS error a negative `rc` reports.
fn check(rc: c_int) -> io::Result<c_int> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// Minimal FFI onto the C library. `std` links libc, so plain `extern "C"`
/// declarations resolve without any crate dependency.
mod sys {
    use std::os::raw::c_int;

    /// `struct epoll_event`: packed on x86-64 (kernel ABI), naturally
    /// aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    }

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    /// `O_CLOEXEC`, which is also `EPOLL_CLOEXEC`.
    pub const O_CLOEXEC: c_int = 0o2000000;
    pub const O_NONBLOCK: c_int = 0o4000;
}

/// Readiness selector over a set of registered fds: one `epoll` instance.
///
/// The registration table lives in the kernel, so every operation is a thin
/// syscall wrapper. One thread may `wait` while others `register` or
/// `modify`; such a change reaches a `wait` already blocked.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// A new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers, and `check` lets through
        // only the fresh fd it returned, which nothing else owns.
        let epfd = unsafe { OwnedFd::from_raw_fd(check(sys::epoll_create1(sys::O_CLOEXEC))?) };
        Ok(Poller { epfd })
    }

    /// The same as `Poller::new().expect(..)`. Kept only for the two calls
    /// in `benchmark/src/probes.rs`, and goes with them.
    #[doc(hidden)]
    pub fn fallback() -> Poller {
        Poller::new().expect("epoll_create1")
    }

    /// Start watching `fd` under `token` with `interest`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest (and/or token) of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`. Call *before* closing the fd — a closed duplicate
    /// elsewhere keeps an epoll registration alive otherwise.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut flags = 0u32;
        if interest.read {
            flags |= sys::EPOLLIN;
        }
        if interest.write {
            flags |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent { events: flags, data: token };
        // SAFETY: `ev` is an initialised `epoll_event` that outlives the call.
        check(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses. Ready events are appended to `events` (cleared first);
    /// returns the number delivered (0 = timeout).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            // SAFETY: `raw` is an owned array of `MAX_EVENTS` initialised
            // events, borrowed mutably for the whole call.
            let rc = unsafe {
                sys::epoll_wait(
                    self.epfd.as_raw_fd(),
                    raw.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms(timeout),
                )
            };
            match check(rc) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
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

/// Cross-thread wakeup for a [`Poller`]: a non-blocking, close-on-exec
/// self-pipe whose read end is registered like any socket. [`Waker::wake`]
/// is safe from any thread; the loop calls [`Waker::drain`] when it sees
/// the token.
#[derive(Debug)]
pub struct Waker {
    read: File,
    write: File,
}

impl Waker {
    /// Build a waker and register its read end on `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` has room for the two fds `pipe2` writes, and `check`
        // lets through only a success, after which both are fresh fds that
        // nothing else owns.
        let (read, write) = unsafe {
            check(sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC))?;
            (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1]))
        };
        poller.register(read.as_raw_fd(), token, Interest::READ)?;
        Ok(Waker { read, write })
    }

    /// Make the poller's `wait` return. Idempotent while undrained: the
    /// pipe holds at most a buffer of bytes and `wake` ignores a full one.
    pub fn wake(&self) -> io::Result<()> {
        match (&self.write).write_all(&[1]) {
            // A full pipe already guarantees a pending wakeup.
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(()),
        }
    }

    /// Consume queued wakeups so the next `wait` blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.read).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn reserved_tokens_clear_the_connection_range() {
        // Connection tokens are dense small integers (a driver's node ids
        // among them); the reserved tokens must never collide with one.
        assert_eq!(WAKE_TOKEN, u64::MAX);
        assert_eq!(LISTEN_TOKEN, u64::MAX - 1);
        assert!(LISTEN_TOKEN > u64::from(u32::MAX));
    }

    #[test]
    fn readable_after_peer_writes() {
        let poller = Poller::new().unwrap();
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

    #[test]
    fn write_interest_fires_when_writable() {
        let poller = Poller::new().unwrap();
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

    #[test]
    fn peer_close_is_reported_as_readable() {
        let poller = Poller::new().unwrap();
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

    #[test]
    fn waker_crosses_threads_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new(&poller, u64::MAX).unwrap());
        let w = Arc::clone(&waker);
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

    #[test]
    fn a_child_process_inherits_no_waker_fd() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 1).unwrap();
        // `cat` holds no fd of its own while it blocks on stdin, so its fd
        // table, read from here, is what it inherited. The echo shows its
        // exec, which closes the close-on-exec fds after `spawn` returns,
        // is over.
        let mut child = std::process::Command::new("cat")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn cat");
        child.stdin.as_mut().unwrap().write_all(b"x").unwrap();
        child.stdout.as_mut().unwrap().read_exact(&mut [0u8]).unwrap();
        let inherited: Vec<RawFd> = std::fs::read_dir(format!("/proc/{}/fd", child.id()))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_str().unwrap().parse().unwrap())
            .collect();
        drop(child.stdin.take());
        assert!(child.wait().unwrap().success());
        for fd in [waker.read.as_raw_fd(), waker.write.as_raw_fd()] {
            assert!(!inherited.contains(&fd), "the child holds waker fd {fd}: {inherited:?}");
        }
    }

    #[test]
    fn a_wait_delivers_one_batch_and_the_next_wait_the_rest() {
        const SOCKETS: usize = 100;
        let poller = Poller::new().unwrap();
        let pairs: Vec<(TcpStream, TcpStream)> = (0..SOCKETS).map(|_| loopback_pair()).collect();
        for (token, (a, b)) in pairs.iter().enumerate() {
            (&*a).write_all(b"x").unwrap();
            // Blocks until the byte has arrived: every fd is ready before
            // the first wait.
            assert_eq!(b.peek(&mut [0u8]).unwrap(), 1);
            poller.register(b.as_raw_fd(), token as u64, Interest::READ).unwrap();
        }
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, MAX_EVENTS);
        let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        for &token in &tokens {
            let mut b = &pairs[token as usize].1;
            assert_eq!(b.read(&mut [0u8]).unwrap(), 1);
        }
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, SOCKETS - MAX_EVENTS, "the fds the first batch left out");
        tokens.extend(events.iter().map(|e| e.token));
        tokens.sort_unstable();
        assert_eq!(tokens, (0..SOCKETS as u64).collect::<Vec<_>>(), "each fd once");
    }

    #[test]
    fn an_interest_change_from_another_thread_wakes_a_blocked_wait() {
        let poller = Poller::new().unwrap();
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

    #[test]
    fn deregister_stops_events() {
        let poller = Poller::new().unwrap();
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
