//! One connection: the readiness-driven socket every event loop runs.
//!
//! The driver's worker links, a worker's driver connections and the sweep
//! server's clients are the same state machine over the same pieces — a
//! non-blocking socket, a [`RecvBuf`], a [`SendBuf`] and a registration on a
//! [`Poller`] — and this module is its one implementation:
//!
//! * [`Link`] reads (fill, zero-copy decode, back to the poller after a
//!   short read) and flushes (drain, then WRITE interest exactly while a
//!   backlog remains). The [`SendBuf`] stays outside: a caller keeps it
//!   where its writers can reach it, under a lock of its own if other
//!   threads push, and lends it to [`Link::flush`].
//! * [`Acceptor`] accepts until the listen queue is empty. When accept
//!   fails for any other reason (out of fds, say) it takes the listener
//!   off the poller — a level-triggered listener with a queued connection
//!   would end every wait at once — and puts it back once a connection
//!   closes or [`PARK_TICK`] has passed.
//! * [`dial`] connects with retries, for peers racing each other to start.
//!
//! ```
//! use rnet::link::{Acceptor, Link};
//! use rnet::poll::{Poller, LISTEN_TOKEN};
//! use rnet::{Frame, FrameRef, SendBuf};
//! use std::time::Duration;
//!
//! let poller = Poller::new().unwrap();
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let mut acceptor = Acceptor::new(listener, &poller, LISTEN_TOKEN).unwrap();
//! let mut client = Link::adopt(std::net::TcpStream::connect(addr).unwrap(), &poller, 1).unwrap();
//!
//! let mut server = None;
//! let mut events = Vec::new();
//! while server.is_none() {
//!     poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
//!     acceptor.accept(&poller, |stream, _| server = Link::adopt(stream, &poller, 2).ok());
//! }
//! let mut server = server.unwrap();
//!
//! let mut send = SendBuf::new();
//! send.push(&Frame::BlockRequest { hash: 9 });
//! client.flush(&poller, &mut send).unwrap();
//! let mut hashes = Vec::new();
//! while hashes.is_empty() {
//!     poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
//!     let got = server.read(|frame| {
//!         if let FrameRef::BlockRequest { hash } = frame {
//!             hashes.push(hash);
//!         }
//!         true
//!     });
//!     assert!(got.open);
//! }
//! assert_eq!(hashes, [9]);
//! ```

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::frame::FrameRef;
use crate::nonblock::{Fill, RecvBuf, SendBuf};
use crate::poll::{Interest, Poller};

/// What one [`Link::read`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Received {
    /// Bytes read off the socket.
    pub bytes: usize,
    /// False once the link has ended: EOF, a read error, a decode error,
    /// or a handler that returned `false`. Close it.
    pub open: bool,
}

/// One non-blocking connection registered on a [`Poller`]: its socket, its
/// receive buffer, its poll token and what the poller believes about its
/// write interest.
#[derive(Debug)]
pub struct Link {
    stream: TcpStream,
    recv: RecvBuf,
    token: u64,
    /// The poller watches for WRITE too: a flush left a backlog.
    write_armed: bool,
}

impl Link {
    /// Take over a connected socket: no Nagle delay, non-blocking, and
    /// registered for READ under `token`.
    pub fn adopt(stream: TcpStream, poller: &Poller, token: u64) -> io::Result<Link> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), token, Interest::READ)?;
        Ok(Link { stream, recv: RecvBuf::new(), token, write_armed: false })
    }

    /// Service a readable event: read, hand every complete frame to
    /// `on_frame` (it borrows the receive buffer), and read again only
    /// after a read that filled the space it was offered. A short read
    /// means the socket is empty, and the level-triggered poller raises
    /// the event again for later bytes, so no read is spent on
    /// `WouldBlock`.
    pub fn read(&mut self, mut on_frame: impl FnMut(FrameRef<'_>) -> bool) -> Received {
        let mut bytes = 0;
        loop {
            match self.recv.fill_from(&mut self.stream) {
                Ok(Fill::Bytes(n)) => bytes += n,
                Ok(Fill::WouldBlock) => return Received { bytes, open: true },
                Ok(Fill::Eof) | Err(_) => return Received { bytes, open: false },
            }
            loop {
                match self.recv.next_frame() {
                    Ok(Some(frame)) => {
                        if !on_frame(frame) {
                            return Received { bytes, open: false };
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return Received { bytes, open: false },
                }
            }
            if self.recv.last_read_short() {
                return Received { bytes, open: true };
            }
        }
    }

    /// Write as much of `send` as the socket takes, then keep the poller
    /// in step: READ|WRITE while a backlog remains, READ once it drained.
    /// Returns the bytes written; an error means the link is dead.
    pub fn flush(&mut self, poller: &Poller, send: &mut SendBuf) -> io::Result<usize> {
        if send.is_empty() && !self.write_armed {
            return Ok(0);
        }
        let (written, drained) = send.flush(&mut self.stream)?;
        if drained == self.write_armed {
            let interest = if drained { Interest::READ } else { Interest::READ_WRITE };
            if poller.modify(self.stream.as_raw_fd(), self.token, interest).is_ok() {
                self.write_armed = !drained;
            }
        }
        Ok(written)
    }

    /// The socket, for what is not a readiness read or flush: a second
    /// handle (`try_clone`), a shutdown from another thread.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Take the socket off the poller and shut it down; its fd closes with
    /// the link.
    pub fn close(self, poller: &Poller) {
        let _ = poller.deregister(self.stream.as_raw_fd());
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// How long a parked [`Acceptor`] waits for a closed connection before it
/// tries its listener again anyway.
pub const PARK_TICK: Duration = Duration::from_millis(200);

/// A non-blocking listener registered on a [`Poller`], parked while
/// accepting fails.
#[derive(Debug)]
pub struct Acceptor {
    listener: TcpListener,
    token: u64,
    /// When the listener left the poller, while it is off.
    parked: Option<Instant>,
}

impl Acceptor {
    /// Make `listener` non-blocking and register it for READ under `token`.
    pub fn new(listener: TcpListener, poller: &Poller, token: u64) -> io::Result<Acceptor> {
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), token, Interest::READ)?;
        Ok(Acceptor { listener, token, parked: None })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept every queued connection, handing each to `on_conn`, until the
    /// queue is empty. Any other error leaves the rest of the queue where
    /// it is and parks the listener (see [`Acceptor::unpark`]).
    pub fn accept(&mut self, poller: &Poller, mut on_conn: impl FnMut(TcpStream, SocketAddr)) {
        while self.parked.is_none() {
            match self.listener.accept() {
                Ok((stream, peer)) => on_conn(stream, peer),
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock => return,
                    // A peer that gave up while queued is gone: take the next.
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted => {}
                    _ => {
                        let _ = poller.deregister(self.listener.as_raw_fd());
                        self.parked = Some(Instant::now());
                    }
                },
            }
        }
    }

    /// Put a parked listener back on the poller once `freed` (a connection
    /// closed, so an fd is free) or [`PARK_TICK`] has passed. Call once a
    /// loop turn.
    pub fn unpark(&mut self, poller: &Poller, freed: bool) {
        let due = self.parked.is_some_and(|at| freed || at.elapsed() >= PARK_TICK);
        if due && poller.register(self.listener.as_raw_fd(), self.token, Interest::READ).is_ok() {
            self.parked = None;
        }
    }

    /// A loop's wait `timeout`, cut short to the next retry while parked.
    pub fn bound(&self, timeout: Option<Duration>) -> Option<Duration> {
        match self.parked {
            None => timeout,
            Some(at) => {
                let retry = PARK_TICK.saturating_sub(at.elapsed());
                Some(timeout.map_or(retry, |t| t.min(retry)))
            }
        }
    }
}

/// Connect to `addr`, retrying every 50 ms until `timeout` has passed: the
/// peer may still be starting. The error names `addr`.
pub fn dial(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => return Err(io::Error::new(e.kind(), format!("connecting to {addr}: {e}"))),
        }
    }
}
