//! A tiny blocking HTTP/1.1 client for talking to the serve daemon —
//! used by `--self-test`, the serve benchmark, the conformance oracle
//! and `scripts/check.sh`'s smoke test. One connection per
//! [`ServeClient`]; requests on it are serial keep-alive, and responses
//! are framed by the server's own `http::read_message`.

use crate::http::read_message;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A keep-alive connection to a serve daemon.
pub struct ServeClient {
    stream: TcpStream,
    /// Bytes read past the last response.
    buf: Vec<u8>,
}

impl ServeClient {
    /// Connects to `addr` (e.g. `127.0.0.1:4157`).
    ///
    /// # Errors
    /// [`io::Error`] when the daemon is unreachable.
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        // Requests are one small write each; don't let Nagle's
        // algorithm batch them against the delayed ACK.
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one wire-format query line to `POST /v1/query` and
    /// returns `(http status, body)`.
    ///
    /// # Errors
    /// [`io::Error`] on a broken connection or malformed response.
    pub fn query(&mut self, wire_line: &str) -> io::Result<(u16, String)> {
        self.request("POST", "/v1/query", wire_line)
    }

    /// Fetches the dispatcher stats (`GET /v1/stats`).
    ///
    /// # Errors
    /// [`io::Error`] on a broken connection or malformed response.
    pub fn stats(&mut self) -> io::Result<(u16, String)> {
        self.request("GET", "/v1/stats", "")
    }

    /// Probes liveness (`GET /healthz`).
    ///
    /// # Errors
    /// [`io::Error`] on a broken connection or malformed response.
    pub fn healthz(&mut self) -> io::Result<(u16, String)> {
        self.request("GET", "/healthz", "")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: llama3sim\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        // Responses can be large: no body cap on this side.
        let message = read_message(&mut self.stream, &mut self.buf, None)?;
        let status: u16 = message
            .start_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        Ok((status, String::from_utf8_lossy(&message.body).into_owned()))
    }
}
