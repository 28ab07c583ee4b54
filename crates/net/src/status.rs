//! A minimal HTTP/1.0 status endpoint for live scrapes.
//!
//! Prometheus-style observability wants a `GET /metrics` that any scraper
//! (or a bare `curl`) can hit while a run is in flight. Pulling in a web
//! framework for two read-only routes would break the crate's
//! dependency-free rule, so this module implements the 1 % of HTTP the
//! text exposition format needs: parse the request line of a `GET`, answer
//! with `HTTP/1.0`, `Content-Type`, `Content-Length`, a blank line and the
//! body, then close. `HTTP/1.0` semantics (connection closes after the
//! response) keep the state machine trivial and every client compatible.
//!
//! The server owns one background thread built on the same [`crate::poll`]
//! readiness layer as the event-loop backend: the listener, behind the
//! same [`Acceptor`] every loop accepts through, and a [`Waker`] are the
//! only registrations, and each
//! accepted connection is served synchronously with short socket timeouts —
//! a scrape is a few hundred bytes, so there is nothing to gain from
//! keeping per-connection state. Dropping the handle wakes the thread and
//! joins it.
//!
//! ```
//! use rnet::status::StatusServer;
//! use std::io::{Read, Write};
//!
//! let server = StatusServer::bind("127.0.0.1:0", |path| match path {
//!     "/metrics" => Some(("text/plain; version=0.0.4".into(), "up 1\n".into())),
//!     _ => None,
//! })
//! .unwrap();
//! let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
//! conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"));
//! assert!(reply.ends_with("up 1\n"));
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::link::Acceptor;
use crate::poll::{Event, Poller, Waker, LISTEN_TOKEN, WAKE_TOKEN};

/// Renders a response body for a request path: `Some((content_type, body))`
/// to answer 200, `None` for 404. `/healthz` is answered by the server
/// itself before the callback runs.
pub type Render = dyn Fn(&str) -> Option<(String, String)> + Send + Sync;

/// Longest request head we accept before answering 400 — a scrape request
/// line plus a handful of headers fits in a fraction of this.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a scraper that cannot ship its request
/// line or drain a few KiB of exposition in this window is gone.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A live `GET /metrics` + `GET /healthz` endpoint on its own thread.
///
/// See the [module docs](self) for the protocol subset and design notes.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for StatusServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusServer").field("addr", &self.addr).finish()
    }
}

impl StatusServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9100"`, port 0 for ephemeral) and
    /// start serving. `render` maps a request path to a response; it runs
    /// on the server thread, so keep it to a snapshot-and-format.
    pub fn bind<F>(addr: &str, render: F) -> io::Result<StatusServer>
    where
        F: Fn(&str) -> Option<(String, String)> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let poller = Poller::new()?;
        let acceptor = Acceptor::new(listener, &poller, LISTEN_TOKEN)?;
        let waker = Arc::new(Waker::new(&poller, WAKE_TOKEN)?);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            let render: Box<Render> = Box::new(render);
            std::thread::Builder::new()
                .name("rnet-status".into())
                .spawn(move || serve_loop(acceptor, poller, &waker, &stop, &render))?
        };
        Ok(StatusServer { addr: local, stop, waker, thread: Some(thread) })
    }

    /// The bound address — the actual port when bound with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_loop(
    mut acceptor: Acceptor,
    poller: Poller,
    waker: &Waker,
    stop: &AtomicBool,
    render: &Render,
) {
    let mut events: Vec<Event> = Vec::new();
    loop {
        if poller.wait(&mut events, acceptor.bound(None)).is_err() {
            return;
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        for ev in &events {
            match ev.token {
                WAKE_TOKEN => waker.drain(),
                _ => acceptor.accept(&poller, |conn, _| serve_one(conn, render)),
            }
        }
        // Every connection was served and closed in the accept above.
        acceptor.unpark(&poller, false);
    }
}

/// Read one request head, answer, close. Any I/O error just drops the
/// connection — the scraper retries on its next interval.
fn serve_one(mut conn: TcpStream, render: &Render) {
    let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
    let _ = conn.set_write_timeout(Some(IO_TIMEOUT));
    let head = match read_request_head(&mut conn) {
        Ok(head) => head,
        Err(_) => return,
    };
    let response = match parse_get_path(&head) {
        None => plain_response("400 Bad Request", "bad request\n"),
        Some("/healthz") => plain_response("200 OK", "ok\n"),
        Some(path) => match render(path) {
            Some((content_type, body)) => response("200 OK", &content_type, &body),
            None => plain_response("404 Not Found", "not found\n"),
        },
    };
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
}

/// Read until the `\r\n\r\n` head terminator (tolerating bare `\n\n`), up
/// to [`MAX_REQUEST_BYTES`].
fn read_request_head(conn: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "request head too large"));
        }
    }
    String::from_utf8(buf).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8"))
}

/// `"GET /metrics HTTP/1.0"` → `Some("/metrics")`; anything that is not a
/// well-formed GET request line → `None`.
fn parse_get_path(head: &str) -> Option<&str> {
    let line = head.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    // Strip a query string: scrapers sometimes append one.
    Some(path.split('?').next().unwrap_or(path))
}

fn response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn plain_response(status: &str, body: &str) -> String {
    response(status, "text/plain; charset=utf-8", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        reply
    }

    fn server() -> StatusServer {
        StatusServer::bind("127.0.0.1:0", |path| match path {
            "/metrics" => Some(("text/plain; version=0.0.4".into(), "jobs_total 3\n".into())),
            _ => None,
        })
        .unwrap()
    }

    #[test]
    fn metrics_path_serves_rendered_body() {
        let s = server();
        let reply = get(s.local_addr(), "/metrics");
        assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "got: {reply}");
        assert!(reply.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(reply.contains("Content-Length: 13\r\n"));
        assert!(reply.ends_with("\r\n\r\njobs_total 3\n"));
    }

    #[test]
    fn healthz_is_built_in_and_unknown_paths_404() {
        let s = server();
        assert!(get(s.local_addr(), "/healthz").ends_with("ok\n"));
        assert!(get(s.local_addr(), "/nope").starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn query_strings_are_stripped() {
        let s = server();
        let reply = get(s.local_addr(), "/metrics?format=prometheus");
        assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"));
    }

    #[test]
    fn non_get_requests_are_rejected() {
        let s = server();
        let mut conn = TcpStream::connect(s.local_addr()).unwrap();
        conn.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 400"), "got: {reply}");
    }

    #[test]
    fn sequential_scrapes_reuse_the_server() {
        let s = server();
        for _ in 0..5 {
            assert!(get(s.local_addr(), "/metrics").contains("jobs_total 3"));
        }
    }

    #[test]
    fn drop_joins_the_thread_and_frees_the_port() {
        let s = server();
        let addr = s.local_addr();
        drop(s);
        // The listener is closed: a fresh connect must fail (or connect to
        // nothing and read EOF immediately on some kernels).
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut conn) => {
                let _ = conn.write_all(b"GET /healthz HTTP/1.0\r\n\r\n");
                let mut out = String::new();
                let n = conn.read_to_string(&mut out).unwrap_or(0);
                assert_eq!(n, 0, "dead server must not answer");
            }
        }
    }
}
