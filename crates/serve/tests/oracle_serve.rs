//! The serve conformance oracle (the repo's eighth): for every config
//! in the 64-point conformance grid, the HTTP daemon's response must
//! be byte-identical to a direct `Dispatcher::dispatch` — both on a
//! cold cache (first pass computes every config) and on the shared
//! warm cache (second pass must serve memoized responses, still
//! identical).
//!
//! It lives here rather than in `crates/conformance` because the
//! dependency arrow points the other way: serve sits above conformance
//! in the workspace layering. A socket-level herd test rides along:
//! concurrent clients asking the same search over HTTP must coalesce
//! onto one computation and all get the direct-dispatch bytes.

use parallelism_core::query::{AnalyzeMode, Query, SearchQuery};
use serve::{Dispatcher, ServeClient, Server};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const GRID_CONFIGS: usize = 64;

#[test]
fn oracle_serve_matches_direct_dispatch_cold_and_warm() {
    let dispatcher = Arc::new(Dispatcher::new());
    let mut server =
        Server::start("127.0.0.1:0", Arc::clone(&dispatcher)).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");

    // The reference dispatcher is cold and independent: byte-equality
    // against it proves the server's caches never change an answer.
    let reference = Dispatcher::new();

    let mut first_pass = Vec::with_capacity(GRID_CONFIGS);
    for i in 0..GRID_CONFIGS {
        let query = Query::Analyze(AnalyzeMode::GridIndex(i));
        let (status, body) = client.query(&query.to_wire()).expect("query");
        assert_eq!(status, 200, "grid {i}");
        let direct = reference
            .dispatch(&query)
            .expect("direct dispatch")
            .render_wire();
        assert_eq!(body, direct, "grid {i}: served response diverges from direct dispatch");
        first_pass.push(body);
    }
    let cold = dispatcher.stats();
    assert_eq!(cold.queries, GRID_CONFIGS as u64);
    assert_eq!(cold.response_hits, 0, "first pass must compute cold");

    // Second pass: every config again, now against the warm shared
    // cache. Same bytes, and all served from the response memo.
    for (i, expected) in first_pass.iter().enumerate() {
        let query = Query::Analyze(AnalyzeMode::GridIndex(i));
        let (status, body) = client.query(&query.to_wire()).expect("query");
        assert_eq!(status, 200, "grid {i} (warm)");
        assert_eq!(&body, expected, "grid {i}: warm response diverges from cold");
    }
    let warm = dispatcher.stats();
    assert_eq!(warm.queries, 2 * GRID_CONFIGS as u64);
    assert_eq!(
        warm.response_hits, GRID_CONFIGS as u64,
        "second pass must be served from the shared response cache"
    );

    // `client` is still connected and idle: stop must shut its socket
    // down rather than wait out the idle timeout.
    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "stop with an idle client took {took:?}");
    drop(client);
}

#[test]
fn herd_of_socket_clients_coalesces_onto_one_search() {
    const CLIENTS: usize = 8;
    let dispatcher = Arc::new(Dispatcher::new());
    let mut server =
        Server::start("127.0.0.1:0", Arc::clone(&dispatcher)).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let query = Query::Search(SearchQuery {
        model: "8b".into(),
        gpus: 8,
        seq: 8192,
        layers: 4,
        budget: 131_072,
        max_cp: 2,
        ..SearchQuery::default()
    });
    let wire = query.to_wire();

    // Every client connects first, then all POST at once.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (addr, wire, barrier) = (addr.clone(), wire.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).expect("connect");
                barrier.wait();
                client.query(&wire).expect("query")
            })
        })
        .collect();
    let answers: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();

    let direct = Dispatcher::new()
        .dispatch(&query)
        .expect("direct dispatch")
        .render_wire();
    for (i, (status, body)) in answers.iter().enumerate() {
        assert_eq!(*status, 200, "client {i}");
        assert_eq!(body, &direct, "client {i}: diverges from direct dispatch");
    }
    let s = dispatcher.stats();
    assert_eq!(s.queries, CLIENTS as u64);
    assert_eq!(s.searches_computed, 1, "the herd must collapse to one search");
    server.stop();
}
