//! `daemon-mix`: a closed loop over two keep-alive loopback connections
//! to an in-process `serve::Server`, sending a seeded set of distinct
//! cheap queries.
//!
//! In the cold phase every query is sent exactly once, split between the
//! connections; after both finish, each connection replays the other's
//! set. Coalescing (none) and response-cache hits (every cacheable
//! replayed query) are therefore fixed by construction, not by client
//! timing. This is the workload where wire parsing, dispatch, rendering
//! and HTTP are the work.

use crate::{another_rep, clear_memos, pins, traced_loop, Args, Ledger, RunLog};
use parallelism_core::query::{AnalyzeMode, InferQuery, Query, Response, SearchQuery};
use parallelism_core::TrafficShape;
use serve::{Dispatcher, ServeClient, Server};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Connections (one per core on the reference host).
const CONNECTIONS: usize = 2;

/// Named configurations analyzed by the mix.
const NAMED: [&str; 4] = [
    "llama3_405b_16k",
    "llama3_405b_16k_long",
    "llama3_405b_8k",
    "scaled_405b",
];

/// Conformance-grid configurations analyzed by the mix.
const GRID: usize = 64;

/// Short-horizon 8B inference queries, each with its own traffic seed.
const INFERS: usize = 48;

/// Small 8B search families `(gpus, layers)`, each searched at every
/// `max_cp` in [`SEARCH_CPS`]. Each family's widest search costs about
/// 10–40 ms, so the computed searches form the latency tail.
const SEARCH_FAMILIES: [(u32, u64); 8] = [
    (8, 2),
    (8, 4),
    (16, 4),
    (32, 4),
    (8, 6),
    (16, 6),
    (32, 6),
    (8, 8),
];

/// Token budget of the small searches: 32 sequences of 8192 tokens.
const SEARCH_BUDGET: u64 = 262_144;

/// `max_cp` values per search family, widest first so the narrower
/// searches reuse the family's funnel outcomes deterministically.
const SEARCH_CPS: [u32; 3] = [4, 2, 1];

/// `stats` polls per connection and phase.
const STATS_PER_CONN: usize = 60;

/// SplitMix64: the seeded stream the query set is drawn from.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Each connection's cold-phase wire lines. The cheap queries are
/// shuffled and dealt alternately, and `stats` polls land at seeded
/// positions. The search families, the most expensive queries and so
/// the latency tail, all go on the first connection, evenly spaced and
/// widest `max_cp` first: with a fixed placement, their contention (and
/// the p99) does not depend on the seed, and frontier reuse within a
/// family is deterministic.
pub fn query_sets(seed: u64) -> [Vec<String>; CONNECTIONS] {
    let mut rng = SplitMix(seed);
    let mut cheap: Vec<Query> = Vec::new();
    for name in NAMED {
        cheap.push(Query::Analyze(AnalyzeMode::Config(name.into())));
    }
    for i in 0..GRID {
        cheap.push(Query::Analyze(AnalyzeMode::GridIndex(i)));
    }
    let shapes = [
        TrafficShape::Steady,
        TrafficShape::Diurnal,
        TrafficShape::Bursty,
    ];
    for i in 0..INFERS {
        cheap.push(Query::Infer(InferQuery {
            model: "8b".into(),
            gpus: 8,
            tp: 1,
            pp: 1,
            traffic: shapes[i % shapes.len()],
            requests_per_day: 864_000,
            horizon_s: 30,
            seed: rng.next() >> 16,
            ..InferQuery::default()
        }));
    }
    rng.shuffle(&mut cheap);
    let mut sets: [Vec<String>; CONNECTIONS] = Default::default();
    for (i, q) in cheap.iter().enumerate() {
        sets[i % CONNECTIONS].push(q.to_wire());
    }
    for set in &mut sets {
        for _ in 0..STATS_PER_CONN {
            let at = rng.below(set.len() + 1);
            set.insert(at, Query::Stats.to_wire());
        }
    }
    let stride = sets[0].len() / (SEARCH_FAMILIES.len() + 1);
    for (k, &(gpus, layers)) in SEARCH_FAMILIES.iter().enumerate().rev() {
        let family = SEARCH_CPS.iter().map(|&max_cp| {
            Query::Search(SearchQuery {
                model: "8b".into(),
                gpus,
                layers,
                budget: SEARCH_BUDGET,
                max_cp,
                ..SearchQuery::default()
            })
            .to_wire()
        });
        let at = (k + 1) * stride;
        sets[0].splice(at..at, family);
    }
    sets
}

fn is_stats(line: &str) -> bool {
    line.ends_with(" stats")
}

/// The in-process answer to one wire line, as the server renders it.
fn direct_answer(d: &Dispatcher, line: &str) -> String {
    match Query::parse_wire(line).and_then(|q| d.dispatch(&q)) {
        Ok(r) => r.render_wire(),
        Err(e) => Response::render_wire_error(&e),
    }
}

/// Whether `body` is the expected answer to `line`: the pinned digest
/// for a deterministic query, the right shape for a `stats` poll (its
/// counters are live).
fn answer_ok(expected: &HashMap<String, String>, line: &str, body: &str) -> bool {
    if is_stats(line) {
        return body.starts_with("llama3sim/1 ok stats\n");
    }
    expected
        .get(line)
        .is_some_and(|d| *d == format!("{:016x}", pins::fnv1a(body.as_bytes())))
}

/// The pin text of `lines`: each line with the FNV-1a digest of its
/// in-process answer on a dispatcher of its own (`stats` answers carry
/// live counters and are marked instead).
fn digests(lines: &[String]) -> String {
    let direct = Dispatcher::new();
    lines
        .iter()
        .map(|l| {
            if is_stats(l) {
                format!("{l}\tstats\n")
            } else {
                format!(
                    "{l}\t{:016x}\n",
                    pins::fnv1a(direct_answer(&direct, l).as_bytes())
                )
            }
        })
        .collect()
}

/// One served answer: the line, HTTP status (0 on a transport error),
/// body and round-trip milliseconds.
type Served = (String, u16, String, f64);

/// A live server with its connected clients. Dropping it closes the
/// clients first, then stops the server and joins its threads.
pub struct Daemon {
    clients: Vec<ServeClient>,
    _server: Server,
    dispatcher: Arc<Dispatcher>,
}

/// Everything the first operation needs: binds a server on a fresh
/// dispatcher, generates the seed's query sets, then connects the
/// clients. The first operation is ready once every connection answered
/// a health probe: the accept loop polls every 100 ms, so a connection
/// is only served after the loop wakes. Generating the inputs between
/// bind and connect lets the loop reach its first poll before any client
/// connects, so the wait is one poll interval, not a race.
pub fn setup(seed: u64) -> std::io::Result<(Daemon, [Vec<String>; CONNECTIONS])> {
    let dispatcher = Arc::new(Dispatcher::new());
    let server = Server::start("127.0.0.1:0", Arc::clone(&dispatcher))?;
    let sets = query_sets(seed);
    let addr = server.addr().to_string();
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        clients.push(ServeClient::connect(&addr)?);
    }
    for c in &mut clients {
        c.healthz()?;
    }
    Ok((
        Daemon {
            clients,
            _server: server,
            dispatcher,
        },
        sets,
    ))
}

/// Sends `lines` on `client`, in order, recording every answer.
fn send_all(client: &mut ServeClient, lines: &[String], out: &mut Vec<Served>) {
    for line in lines {
        let t0 = Instant::now();
        let (status, body) = client.query(line).unwrap_or_else(|e| (0, e.to_string()));
        out.push((line.clone(), status, body, t0.elapsed().as_secs_f64() * 1e3));
    }
}

/// One round of the fixed work: the cold phase, a barrier, the warm
/// replay. Returns the wall seconds and every answer.
fn round(daemon: &mut Daemon, sets: &[Vec<String>; CONNECTIONS]) -> (f64, Vec<Served>) {
    let barrier = Barrier::new(CONNECTIONS);
    let t0 = Instant::now();
    let answers: Vec<Vec<Served>> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::new();
                    send_all(client, &sets[i], &mut out);
                    barrier.wait();
                    send_all(client, &sets[(i + 1) % CONNECTIONS], &mut out);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (
        t0.elapsed().as_secs_f64(),
        answers.into_iter().flatten().collect(),
    )
}

/// Checks every served answer against the expected answers and
/// the round's counters against the construction.
fn check_round(
    answers: Vec<Served>,
    expected: &HashMap<String, String>,
    d: &Dispatcher,
    log: &mut RunLog,
) {
    for (line, status, body, ms) in answers {
        log.latencies_ms.push(ms);
        let problem = if status == 0 {
            Some(format!("{line}: transport error: {body}"))
        } else if status != 200 || !answer_ok(expected, &line, &body) {
            Some(format!(
                "{line}: served bytes differ from the expected answer ({status})"
            ))
        } else {
            None
        };
        log.op(problem);
    }
    let stats = d.stats();
    let replayed: usize = expected.keys().filter(|l| !is_stats(l)).count();
    if stats.coalesced != 0 || stats.response_hits != replayed as u64 {
        log.guard(
            "fixed-mix",
            false,
            format!(
                "coalesced {} == 0, response hits {} == {replayed}",
                stats.coalesced, stats.response_hits
            ),
        );
    }
}

/// The traced pass: every layer of the daemon's request path, called
/// from here. Cold in-process answers (parse, hash, dispatch, render),
/// then the cached answers in-process and over HTTP, whose difference
/// is the HTTP layer's own cost.
fn layer_pass(
    ledger: &mut Ledger,
    lines: &[String],
    daemon: &mut Daemon,
    log: &mut RunLog,
    expected: &HashMap<String, String>,
) {
    let d = &daemon.dispatcher;
    let mut parsed = Vec::with_capacity(lines.len());
    for line in lines {
        let Ok(q) = ledger.time("query.parse_wire", || Query::parse_wire(line)) else {
            log.op(Some(format!("{line}: does not parse")));
            continue;
        };
        ledger.time("query.canonical_hash", || q.canonical_hash());
        let result = ledger.time("dispatch.compute", || d.dispatch(&q));
        let wire = match &result {
            Ok(r) => {
                ledger.time("render.human", || r.render_human());
                ledger.time("query.render_wire", || r.render_wire())
            }
            Err(e) => Response::render_wire_error(e),
        };
        log.op(
            (!answer_ok(expected, line, &wire)).then(|| format!("{line}: traced answer differs"))
        );
        parsed.push((line, q));
    }
    let client = &mut daemon.clients[0];
    for (line, q) in parsed.iter().filter(|(l, _)| !is_stats(l)) {
        ledger.time("dispatch.hit", || d.dispatch(q)).ok();
        let sent = ledger.time("http.roundtrip", || client.query(line));
        log.op(match sent {
            Ok((200, body)) if answer_ok(expected, line, &body) => None,
            Ok((status, _)) => Some(format!("{line}: cached HTTP answer differs ({status})")),
            Err(e) => Some(format!("{line}: transport error: {e}")),
        });
    }
}

/// Runs the workload for `args.seconds`.
pub fn run(args: &Args, log: &mut RunLog) {
    let start = |log: &mut RunLog| match setup(args.seed) {
        Ok((daemon, _)) => Some(daemon),
        Err(e) => {
            log.op(Some(format!("daemon setup failed: {e}")));
            None
        }
    };
    let sets = query_sets(args.seed);

    // Expected bytes, as one FNV-1a digest per line: the pin at a pinned
    // seed, otherwise an in-process dispatch of every distinct query,
    // computed before anything is measured.
    let lines: Vec<String> = sets.concat();
    let reference = digests(&lines);
    let expected = pins::expected("daemon-mix", args.seed, reference, log);
    // Without a pin, the reference shares the code under test with the
    // server, so the default seed's pin checks that code.
    if pins::pin("daemon-mix", args.seed).is_none() {
        let default = digests(&query_sets(pins::DEFAULT_SEED).concat());
        let found = pins::check("daemon-mix", pins::DEFAULT_SEED, &default);
        log.op(found.map(|p| format!("default seed vs pin: {p}")));
    }
    let expected: HashMap<String, String> = expected
        .lines()
        .filter_map(|l| l.rsplit_once('\t'))
        .map(|(line, digest)| (line.to_string(), digest.to_string()))
        .collect();

    if args.trace {
        let ledger = traced_loop(args, log, start, |ledger, log, daemon| {
            layer_pass(ledger, &lines, daemon, log, &expected)
        });
        // One untraced round over HTTP for the dispatcher's counters.
        if let Some(mut daemon) = start(log) {
            clear_memos();
            let (_, answers) = round(&mut daemon, &sets);
            check_round(answers, &expected, &daemon.dispatcher, log);
            let stats = daemon.dispatcher.stats();
            log.layers.insert(
                "dispatch.response_hit_rate",
                stats.response_hits as f64 / stats.queries.max(1) as f64,
            );
            log.layers
                .insert("dispatch.coalesced", stats.coalesced as f64);
        }
        let l = &mut log.layers;
        l.insert(
            "query.parse_wire_us",
            ledger.us_per_call("query.parse_wire"),
        );
        l.insert(
            "query.canonical_hash_us",
            ledger.us_per_call("query.canonical_hash"),
        );
        l.insert("dispatch.compute_ms", ledger.ms("dispatch.compute"));
        l.insert("dispatch.hit_us", ledger.us_per_call("dispatch.hit"));
        l.insert(
            "query.render_wire_us",
            ledger.us_per_call("query.render_wire"),
        );
        l.insert("render.human_us", ledger.us_per_call("render.human"));
        l.insert("http.roundtrip_ms", ledger.ms("http.roundtrip"));
        l.insert(
            "http.self_us",
            ledger.us_per_call("http.roundtrip") - ledger.us_per_call("dispatch.hit"),
        );
        return;
    }

    let started = Instant::now();
    let mut rep_s: Vec<f64> = Vec::new();
    while another_rep(started, args.seconds, &rep_s, 3) {
        let rep0 = Instant::now();
        clear_memos();
        for warm in [false, true] {
            let Some(mut daemon) = start(log) else {
                continue;
            };
            let (wall, answers) = round(&mut daemon, &sets);
            if warm {
                &mut log.warm_wall_s
            } else {
                &mut log.wall_s
            }
            .push(wall);
            check_round(answers, &expected, &daemon.dispatcher, log);
        }
        rep_s.push(rep0.elapsed().as_secs_f64());
    }
}
