//! The `llama3sim serve` subcommand: the long-running daemon plus its
//! self-test.
//!
//! * default — bind `--addr` and serve until killed;
//! * `--self-test` — ephemeral port, a handful of queries over a real
//!   socket verified byte-identical against direct dispatch, clean
//!   shutdown (the `scripts/check.sh` smoke test).

use crate::client::ServeClient;
use crate::dispatch::Dispatcher;
use crate::http::Server;
use bench_harness::cli::Flags;
use parallelism_core::query::{AnalyzeMode, InferQuery, Query, Response, SearchQuery};
use parallelism_core::TrafficShape;
use std::sync::Arc;

/// Parsed options for the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Listen address for daemon mode.
    pub addr: String,
    /// Run the socket-level self-test and exit.
    pub self_test: bool,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        // lint: allow(cli-args) — the canonical defaults
        ServeArgs {
            addr: "127.0.0.1:4157".to_string(),
            self_test: false,
        }
    }
}

impl ServeArgs {
    /// Parses `[--addr HOST:PORT] [--self-test]`.
    pub fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let mut f = Flags::new(args);
        let mut parsed = ServeArgs::default();
        if let Some(a) = f.opt("addr")? {
            parsed.addr = a;
        }
        parsed.self_test = f.switch("self-test");
        f.finish()?;
        Ok(parsed)
    }
}

/// Runs the subcommand; returns the process exit code (daemon mode
/// never returns).
pub fn run(args: &ServeArgs) -> i32 {
    if args.self_test {
        return self_test();
    }
    serve_forever(&args.addr)
}

fn serve_forever(addr: &str) -> i32 {
    let dispatcher = Arc::new(Dispatcher::new());
    let server = match Server::start(addr, dispatcher) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return 1;
        }
    };
    println!(
        "llama3sim serve: listening on {} (POST /v1/query, GET /v1/stats, GET /healthz)",
        server.addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// The self-test queries: cheap, deterministic, and covering the
/// catalog, the grid, the search and the inference paths.
fn self_test_queries() -> Vec<Query> {
    vec![
        Query::Analyze(AnalyzeMode::List),
        Query::Analyze(AnalyzeMode::GridIndex(0)),
        Query::Search(small_search()),
        Query::Infer(small_infer()),
    ]
}

fn small_search() -> SearchQuery {
    SearchQuery {
        model: "8b".into(),
        gpus: 8,
        seq: 8192,
        layers: 4,
        budget: 131_072,
        max_cp: 2,
        ..SearchQuery::default()
    }
}

/// A five-minute 8B serving slice — cheap enough for the self-test,
/// real enough to exercise admission, prefill and decode.
fn small_infer() -> InferQuery {
    InferQuery {
        model: "8b".into(),
        gpus: 8,
        traffic: TrafficShape::Steady,
        requests_per_day: 20_000,
        horizon_s: 300,
        seed: 7,
        ..InferQuery::default()
    }
}

fn self_test() -> i32 {
    let dispatcher = Arc::new(Dispatcher::new());
    let mut server = match Server::start("127.0.0.1:0", dispatcher) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind an ephemeral port: {e}");
            return 1;
        }
    };
    let addr = server.addr().to_string();
    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    match client.healthz() {
        Ok((200, body)) if body == "ok\n" => {}
        other => {
            eprintln!("error: healthz: unexpected {other:?}");
            return 1;
        }
    }
    let reference = Dispatcher::new();
    let queries = self_test_queries();
    for q in &queries {
        let wire = q.to_wire();
        let (status, body) = match client.query(&wire) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {wire}: {e}");
                return 1;
            }
        };
        let expected = match reference.dispatch(q) {
            Ok(r) => r.render_wire(),
            Err(e) => Response::render_wire_error(&e),
        };
        if status != 200 || body != expected {
            eprintln!("error: {wire}: HTTP {status}, response diverges from direct dispatch");
            return 1;
        }
    }
    drop(client);
    server.stop();
    println!(
        "serve self-test: {} queries on {addr} byte-identical to direct dispatch; clean shutdown",
        queries.len()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse_the_surface() {
        let a = ServeArgs::parse(&args(&["--addr", "127.0.0.1:9000", "--self-test"])).unwrap();
        assert_eq!(a.addr, "127.0.0.1:9000");
        assert!(a.self_test);
        assert!(ServeArgs::parse(&args(&["--port", "1"])).is_err());
        let d = ServeArgs::parse(&args(&[])).unwrap();
        assert_eq!(d.addr, "127.0.0.1:4157");
        assert!(!d.self_test);
    }
}
