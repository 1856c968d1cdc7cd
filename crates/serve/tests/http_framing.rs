//! HTTP framing cases against a real [`Server`] on a loopback socket:
//! split reads, pipelined keep-alive, the exact 16 KiB head cap, the
//! 64 KiB body cap and unknown paths. Every rejection is an HTTP
//! answer, and none of them reaches the dispatcher.

use parallelism_core::query::{AnalyzeMode, Query};
use serve::{Dispatcher, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const HEAD_CAP: usize = 16 * 1024;

fn start() -> (Arc<Dispatcher>, Server) {
    let dispatcher = Arc::new(Dispatcher::new());
    let server = Server::start("127.0.0.1:0", Arc::clone(&dispatcher)).expect("bind ephemeral port");
    (dispatcher, server)
}

/// The exact bytes the server sends for a 200 with `body`.
fn ok_response(body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\ncontent-type: text/plain; charset=utf-8\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Writes `request` in one `write` and reads until the server closes.
fn exchange(server: &Server, request: &[u8]) -> String {
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.write_all(request).expect("write");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read until close");
    String::from_utf8(out).expect("utf-8 response")
}

/// A `GET /healthz` head of exactly `len` bytes, blank line included.
fn healthz_head_of(len: usize) -> String {
    let bare = "GET /healthz HTTP/1.1\r\nconnection: close\r\nx-pad: \r\n\r\n";
    let head = bare.replace("x-pad: ", &format!("x-pad: {}", "a".repeat(len - bare.len())));
    assert_eq!(head.len(), len);
    head
}

#[test]
fn a_head_written_one_byte_per_write_is_reassembled() {
    let (_dispatcher, mut server) = start();
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    for byte in b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n" {
        s.write_all(&[*byte]).expect("write one byte");
    }
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    assert_eq!(out, ok_response("ok\n"));
    server.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    let (dispatcher, mut server) = start();
    let query = Query::Analyze(AnalyzeMode::List);
    let wire = query.to_wire();
    let request = format!(
        "GET /healthz HTTP/1.1\r\n\r\n\
         POST /v1/query HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{wire}",
        wire.len()
    );
    let out = exchange(&server, request.as_bytes());
    let direct = Dispatcher::new().dispatch(&query).expect("direct dispatch").render_wire();
    assert_eq!(out, ok_response("ok\n") + &ok_response(&direct));
    assert_eq!(dispatcher.stats().queries, 1);
    server.stop();
}

#[test]
fn the_head_cap_is_exactly_16_kib_and_answered() {
    let (_dispatcher, mut server) = start();
    let at_cap = exchange(&server, healthz_head_of(HEAD_CAP).as_bytes());
    assert_eq!(at_cap, ok_response("ok\n"));

    let over = exchange(&server, healthz_head_of(HEAD_CAP + 1).as_bytes());
    assert!(over.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{over}");
    assert!(over.contains("16384-byte cap"), "{over}");
    server.stop();
}

#[test]
fn an_oversized_body_is_refused_before_dispatch() {
    let (dispatcher, mut server) = start();
    let out = exchange(
        &server,
        format!("POST /v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 64 * 1024 + 1).as_bytes(),
    );
    assert!(out.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{out}");
    assert!(out.contains("65536-byte cap"), "{out}");
    assert_eq!(dispatcher.stats().queries, 0);
    server.stop();
}

#[test]
fn an_unknown_path_is_404_without_dispatch() {
    let (dispatcher, mut server) = start();
    let wire = Query::Analyze(AnalyzeMode::List).to_wire();
    let out = exchange(
        &server,
        format!(
            "POST /v1/nope HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{wire}",
            wire.len()
        )
        .as_bytes(),
    );
    assert!(out.starts_with("HTTP/1.1 404 Not Found\r\n"), "{out}");
    assert!(out.contains("no such endpoint POST /v1/nope"), "{out}");
    assert_eq!(dispatcher.stats().queries, 0);
    server.stop();
}
