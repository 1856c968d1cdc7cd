//! A minimal thread-per-connection HTTP/1.1 server over [`std::net`].
//!
//! No async runtime, no external dependencies, no polling: an accept
//! loop blocked in `accept` hands each connection to its own thread,
//! which serves keep-alive requests until the client leaves, the idle
//! timeout lapses, or [`Server::stop`] shuts its socket down.
//!
//! Every HTTP message, request or response, is read by
//! `read_message`, which [`crate::ServeClient`] shares. It sits on a
//! network-facing trust boundary and is deliberately paranoid: heads
//! are capped at exactly 16 KiB and request bodies at 64 KiB (both
//! answered 400 naming the cap), unknown methods and paths are
//! rejected without dispatch, and the query payload is a single line
//! handed to [`Query::parse_wire`], which validates every token.
//! Nothing from the wire is ever interpolated into a filesystem path
//! or command.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness probe, plain `ok`.
//! * `GET /v1/stats` — dispatcher + memo-layer counters (wire format).
//! * `POST /v1/query` — body is one wire-format query line; the
//!   response body is the wire-format response. Malformed queries get
//!   HTTP 400 with a wire-format error line.

use crate::dispatch::Dispatcher;
use interleave::sync::{lock_or_recover, Mutex};
use parallelism_core::query::{Query, QueryError, Response};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a message head: start line, headers and the blank
/// line that ends them.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// A keep-alive connection with no bytes arriving for this long is
/// dropped.
const IDLE: Duration = Duration::from_secs(10);

/// Pause after a failed `accept` (e.g. descriptor exhaustion) before
/// the loop tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A live connection: its serving thread and a handle to its socket,
/// so [`Server::stop`] can unblock the thread's read. The handle is
/// weak so the socket closes as soon as its thread lets go of it.
type Conn = (JoinHandle<()>, Weak<TcpStream>);

/// A running server. Dropping it (or calling [`Server::stop`]) stops
/// the accept loop and joins every connection thread. Threads of
/// closed connections are joined as new connections arrive.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections against `dispatcher`.
    ///
    /// # Errors
    /// [`io::Error`] when the address cannot be bound.
    pub fn start(addr: &str, dispatcher: Arc<Dispatcher>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok((stream, _peer)) = accepted else {
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                };
                // Responses are one small write; Nagle's algorithm
                // would add ~40 ms to each.
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(IDLE));
                let stream = Arc::new(stream);
                let socket = Arc::downgrade(&stream);
                let dispatcher = Arc::clone(&dispatcher);
                let handle = std::thread::spawn(move || serve_connection(&stream, &dispatcher));
                // Reap the connections that have closed, so a long-lived
                // daemon holds one handle per live connection; join them
                // outside the guard.
                let finished: Vec<Conn> = {
                    let mut conns = lock_or_recover(&conns);
                    let (done, live) = conns.drain(..).partition(|(h, _)| h.is_finished());
                    *conns = live;
                    conns.push((handle, socket));
                    done
                };
                for (h, _) in finished {
                    let _ = h.join();
                }
            })
        };

        Ok(Server {
            addr,
            shutdown,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (with the real port when `:0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts down every open connection's socket and
    /// joins the accept loop and every connection thread. Idempotent.
    pub fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Connections close before the accept loop exits, so its thread
        // exits last: glibc gives a new thread the malloc arena freed
        // last, and this order hands the next server's connection
        // threads the arenas earlier connection threads grew, instead of
        // spreading their heaps over one more arena.
        self.close_connections();
        // The accept loop is blocked in `accept`: one connection wakes
        // it to see the flag.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = accept.join();
        // Any connection accepted while stopping.
        self.close_connections();
    }

    /// Shuts every open connection's socket down, which ends its
    /// thread's read, and joins the threads outside the guard.
    fn close_connections(&self) {
        let open: Vec<Conn> = lock_or_recover(&self.conns).drain(..).collect();
        for (_, socket) in &open {
            if let Some(stream) = socket.upgrade() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for (h, _) in open {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One framed HTTP/1.1 message.
#[derive(Debug)]
pub(crate) struct Message {
    /// The request line or status line.
    pub(crate) start_line: String,
    /// `false` when the message carries `connection: close`.
    pub(crate) keep_alive: bool,
    /// Exactly `content-length` bytes.
    pub(crate) body: Vec<u8>,
}

/// Reads one HTTP/1.1 message from `stream`: a head of at most
/// [`MAX_HEAD_BYTES`] ending in a blank line, then a body of
/// `content-length` bytes (refused before it is read when it exceeds
/// `max_body`). `buf` carries bytes between calls: it is consulted
/// before the stream, and bytes read past this message stay in it for
/// the next pipelined one.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`], with a message fit to send back,
/// when the head is over its cap, a `content-length` is malformed or
/// the body is over `max_body`; [`io::ErrorKind::UnexpectedEof`] when
/// the peer closes first; any error of the stream itself, including
/// its read timeout.
pub(crate) fn read_message<R: Read>(
    stream: &mut R,
    buf: &mut Vec<u8>,
    max_body: Option<usize>,
) -> io::Result<Message> {
    let mut chunk = [0u8; 4096];
    let mut fill = |stream: &mut R, buf: &mut Vec<u8>| -> io::Result<()> {
        match stream.read(&mut chunk) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    };
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);

    let mut scanned = 0;
    let head_end = loop {
        let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
        if let Some(p) = window[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
            break scanned + p + 4;
        }
        if window.len() == MAX_HEAD_BYTES {
            return Err(invalid(format!(
                "message head exceeds the {MAX_HEAD_BYTES}-byte cap"
            )));
        }
        scanned = window.len().saturating_sub(3);
        fill(stream, buf)?;
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or("").to_string();
    let mut content_length = 0usize;
    let mut keep_alive = true;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let value = value.trim();
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
        } else if name.trim().eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if let Some(cap) = max_body.filter(|&cap| content_length > cap) {
        return Err(invalid(format!(
            "body of {content_length} bytes exceeds the {cap}-byte cap"
        )));
    }

    // Uncapped, an absurd length reads until the peer closes.
    let end = head_end.saturating_add(content_length);
    while buf.len() < end {
        fill(stream, buf)?;
    }
    // The body takes the buffer's allocation, so a large response is
    // not held in `buf` for the life of the connection.
    let surplus = buf.split_off(end);
    let mut body = std::mem::replace(buf, surplus);
    body.drain(..head_end);
    Ok(Message {
        start_line,
        keep_alive,
        body,
    })
}

/// Writes one HTTP/1.1 response.
fn write_response(mut stream: &TcpStream, status: u16, reason: &str, body: &str) -> bool {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: text/plain; charset=utf-8\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).is_ok() && stream.write_all(body.as_bytes()).is_ok()
}

/// Splits a request line into its method and path.
fn parse_request_line(line: &str) -> io::Result<(String, String)> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version)) if version.starts_with("HTTP/1.") => {
            Ok((method.to_string(), path.to_string()))
        }
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed request line {line:?}"),
        )),
    }
}

/// Serves keep-alive requests on one connection until the peer leaves,
/// the idle timeout lapses, or [`Server::stop`] shuts the socket down.
fn serve_connection(stream: &TcpStream, dispatcher: &Dispatcher) {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let request = read_message(&mut &*stream, &mut buf, Some(MAX_BODY_BYTES))
            .and_then(|m| Ok((parse_request_line(&m.start_line)?, m)));
        let ((method, path), message) = match request {
            Ok(r) => r,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let error = QueryError::new(e.to_string());
                write_response(stream, 400, "Bad Request", &Response::render_wire_error(&error));
                // Closing with request bytes unread would reset the
                // connection, and the reset can destroy the answer
                // before the peer reads it: finish sending, then drain.
                let _ = stream.shutdown(Shutdown::Write);
                let _ = io::copy(&mut stream.take(MAX_BODY_BYTES as u64), &mut io::sink());
                return;
            }
            Err(_) => return,
        };

        let ok = match (method.as_str(), path.as_str()) {
            ("GET", "/healthz") => write_response(stream, 200, "OK", "ok\n"),
            ("GET", "/v1/stats") => match dispatcher.dispatch(&Query::Stats) {
                Ok(r) => write_response(stream, 200, "OK", &r.render_wire()),
                Err(e) => write_response(
                    stream,
                    500,
                    "Internal Server Error",
                    &Response::render_wire_error(&e),
                ),
            },
            ("POST", "/v1/query") => {
                let text = String::from_utf8_lossy(&message.body);
                let line = text.lines().next().unwrap_or("");
                match Query::parse_wire(line).and_then(|q| dispatcher.dispatch(&q)) {
                    Ok(r) => write_response(stream, 200, "OK", &r.render_wire()),
                    Err(e) => {
                        write_response(stream, 400, "Bad Request", &Response::render_wire_error(&e))
                    }
                }
            }
            _ => write_response(
                stream,
                404,
                "Not Found",
                &Response::render_wire_error(&QueryError::new(format!(
                    "no such endpoint {method} {path}"
                ))),
            ),
        };
        if !ok || !message.keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn framing_extracts_what_both_sides_need_and_keeps_the_surplus() {
        let wire: &[u8] = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\
            Connection: close\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n";
        let (mut stream, mut buf) = (wire, Vec::new());
        let m = read_message(&mut stream, &mut buf, Some(MAX_BODY_BYTES)).unwrap();
        assert_eq!(m.start_line, "POST /v1/query HTTP/1.1");
        assert_eq!(m.body, b"hello");
        assert!(!m.keep_alive);
        let m = read_message(&mut stream, &mut buf, Some(MAX_BODY_BYTES)).unwrap();
        assert_eq!(m.start_line, "GET /healthz HTTP/1.1");
        assert!(m.keep_alive && m.body.is_empty() && buf.is_empty());
        let e = read_message(&mut stream, &mut buf, None).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);

        let read = |wire: &[u8]| read_message(&mut &*wire, &mut Vec::new(), Some(MAX_BODY_BYTES));
        let e = read(b"GET / HTTP/1.1\r\nContent-Length: huge\r\n\r\n").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let over = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(read(over.as_bytes()).unwrap_err().to_string().contains("65536-byte cap"));
        assert!(parse_request_line("garbage").is_err());
        assert!(parse_request_line("GET / HTTP/1.1").is_ok());
    }

    #[test]
    fn fresh_connections_are_served_without_waiting_on_accept() {
        let mut server = Server::start("127.0.0.1:0", Arc::new(Dispatcher::new())).unwrap();
        let t0 = Instant::now();
        for _ in 0..50 {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        }
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_secs(2), "50 fresh connections took {elapsed:?}");
        server.stop();
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let mut server = Server::start("127.0.0.1:0", Arc::new(Dispatcher::new())).unwrap();
        let healthz = |addr: SocketAddr| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        };
        // Each accept reaps every connection thread finished before it.
        for _ in 0..201 {
            healthz(server.addr());
        }
        let n = lock_or_recover(&server.conns).len();
        assert!(n <= 4, "{n} handles held after 201 closed connections");
        server.stop();
    }
}
