//! `serve-idle` and `serve-saturated`: one `Query::Infer` per pass,
//! sent in-process through `Dispatcher::dispatch`.
//!
//! serve-idle models an over-provisioned 405B fleet (1 024 replicas,
//! about 0.02 requests/s each), where nearly all host time is batch-1
//! decode iterations in `simulate_replica`. serve-saturated runs the
//! same layer on eight 8B replicas under bursty overload: KV blocks hit
//! capacity, queues build and decode batches are large, so traffic
//! generation and the fold take a larger share.

use crate::{another_rep, clear_memos, pins, traced_loop, Args, Ledger, RunLog};
use parallelism_core::infer::{simulate_replica, ReplicaResult};
use parallelism_core::query::{InferQuery, InferResponse, Query, Response};
use parallelism_core::{Request, TrafficShape};
use serve::Dispatcher;
use std::time::Instant;

/// Which serving regime the workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// 405B on 16 384 GPUs, diurnal, 1 M requests/day, 6 h.
    Idle,
    /// 8B on 8 GPUs (tp1 × 8), bursty, 8 M requests/day, 2 h.
    Saturated,
}

impl Regime {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Idle => "serve-idle",
            Regime::Saturated => "serve-saturated",
        }
    }
}

/// The workload's query at `seed` (the seed drives the traffic trace).
pub fn infer_query(regime: Regime, seed: u64) -> InferQuery {
    match regime {
        Regime::Idle => InferQuery {
            model: "405b".into(),
            gpus: 16_384,
            traffic: TrafficShape::Diurnal,
            requests_per_day: 1_000_000,
            horizon_s: 6 * 3_600,
            seed,
            ..InferQuery::default()
        },
        Regime::Saturated => InferQuery {
            model: "8b".into(),
            gpus: 8,
            tp: 1,
            pp: 1,
            traffic: TrafficShape::Bursty,
            requests_per_day: 8_000_000,
            horizon_s: 2 * 3_600,
            seed,
            ..InferQuery::default()
        },
    }
}

/// Computes the query's response by calling each layer's public
/// function directly (plan and costs, traffic generation, routing, the
/// replica loop fanned out like `InferenceModel::simulate`, the fold),
/// charging each call to `ledger`. This is both the traced pass and the
/// independent reference the dispatched response must equal. Also
/// returns each replica's host milliseconds, in replica order.
pub fn reference_response(q: &InferQuery, ledger: &mut Ledger) -> (InferResponse, Vec<f64>) {
    let model = ledger
        .time("infer.costs", || q.to_model())
        .expect("the benchmark's infer query must plan");
    let requests = ledger.time("traffic.generate", || q.traffic_spec().generate());
    let replicas = model.spec.plan.replicas as usize;
    let shards = ledger.time("infer.route", || {
        let mut shards: Vec<Vec<Request>> = vec![Vec::new(); replicas];
        for r in &requests {
            shards[(r.id % replicas as u64) as usize].push(*r);
        }
        shards
    });
    let threads = if model.spec.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        model.spec.threads
    }
    .clamp(1, replicas);
    let chunk_len = replicas.div_ceil(threads).max(1);
    let (results, times): (Vec<ReplicaResult>, Vec<f64>) = ledger.time("infer.parallel", || {
        std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .chunks(chunk_len)
                .map(|chunk| {
                    let (costs, max_batch) = (&model.costs, model.spec.max_batch);
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|reqs| {
                                let t0 = Instant::now();
                                let r = simulate_replica(costs, max_batch, reqs);
                                (r, t0.elapsed().as_secs_f64() * 1e3)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("replica worker panicked"))
                .unzip()
        })
    });
    let report = ledger.time("infer.fold", || model.fold(requests.len() as u64, &results));
    let response = InferResponse {
        model: q.model.clone(),
        plan: model.spec.plan,
        traffic: q.traffic,
        offered: requests.len() as u64,
        report,
    };
    (response, times)
}

/// Generated tokens per decode iteration.
fn mean_decode_batch(r: &InferResponse) -> f64 {
    r.report.generated_tokens as f64 / r.report.decode_iters.max(1) as f64
}

/// The regime guards: the workload must run the code it claims to.
fn guards(regime: Regime, r: &InferResponse, log: &mut RunLog) {
    let m = &r.report;
    let batch = mean_decode_batch(r);
    log.guard(
        "drained",
        m.leaked_blocks == 0 && m.completed + m.dropped == m.requests && m.requests == r.offered,
        format!(
            "leaked {} completed {} dropped {} requests {} offered {}",
            m.leaked_blocks, m.completed, m.dropped, m.requests, r.offered
        ),
    );
    match regime {
        Regime::Idle => log.guard(
            "idle-batch",
            batch < 1.05,
            format!("mean decode batch {batch:.4} < 1.05"),
        ),
        Regime::Saturated => {
            log.guard(
                "kv-full",
                m.peak_blocks == m.block_capacity,
                format!("peak {} of {} KV blocks", m.peak_blocks, m.block_capacity),
            );
            log.guard(
                "slo-missed",
                m.slo_attainment < 0.9,
                format!("SLO attainment {:.4} < 0.9", m.slo_attainment),
            );
            log.guard(
                "large-batch",
                batch > 10.0,
                format!("mean decode batch {batch:.2} > 10"),
            );
        }
    }
}

/// Checks one dispatched response against the expected description.
fn check(
    result: Result<Response, parallelism_core::query::QueryError>,
    expected: &str,
) -> Option<String> {
    match result {
        Ok(resp) => pins::diff(expected, &pins::describe(&resp)),
        Err(e) => Some(format!("infer query failed: {e}")),
    }
}

/// One timed dispatch: the query plus rendering its wire answer, as a
/// front end would.
fn timed_dispatch(
    d: &Dispatcher,
    q: &Query,
    log: &mut RunLog,
) -> (f64, Result<Response, parallelism_core::query::QueryError>) {
    let t0 = Instant::now();
    let result = d.dispatch(q);
    if let Ok(r) = &result {
        std::hint::black_box(r.render_wire());
    }
    let s = t0.elapsed().as_secs_f64();
    log.latencies_ms.push(s * 1e3);
    (s, result)
}

/// Everything the first operation needs: the query and a dispatcher.
pub fn setup(regime: Regime, seed: u64) -> (Query, Dispatcher) {
    (Query::Infer(infer_query(regime, seed)), Dispatcher::new())
}

/// Runs the workload for `args.seconds`.
pub fn run(args: &Args, regime: Regime, log: &mut RunLog) {
    let iq = &infer_query(regime, args.seed);

    // The expected description: the pin at a pinned seed, otherwise the
    // direct-path reference, computed once before measuring.
    let (reference, _) = reference_response(iq, &mut Ledger::off());
    let expected = pins::expected(
        regime.name(),
        args.seed,
        pins::describe_infer(&reference),
        log,
    );
    guards(regime, &reference, log);
    // Without a pin, the reference shares the layers under test with the
    // dispatched path, so the default seed's pin checks those layers.
    if pins::pin(regime.name(), args.seed).is_none() {
        let (r, _) =
            reference_response(&infer_query(regime, pins::DEFAULT_SEED), &mut Ledger::off());
        let found = pins::check(regime.name(), pins::DEFAULT_SEED, &pins::describe_infer(&r));
        log.op(found.map(|p| format!("default seed vs pin: {p}")));
    }

    if args.trace {
        let mut times = Vec::new();
        let ledger = traced_loop(
            args,
            log,
            |_| Some(()),
            |ledger, log, _| {
                let (r, t) = reference_response(iq, ledger);
                log.op(pins::diff(&expected, &pins::describe_infer(&r)));
                times = t;
            },
        );
        let m = &reference.report;
        let l = &mut log.layers;
        l.insert("infer.costs_us", ledger.us_per_call("infer.costs"));
        l.insert("traffic.generate_ms", ledger.ms("traffic.generate"));
        l.insert("traffic.requests", reference.offered as f64);
        l.insert("infer.route_ms", ledger.ms("infer.route"));
        l.insert("infer.parallel_ms", ledger.ms("infer.parallel"));
        l.insert("infer.replica_ms", times.iter().sum());
        l.insert(
            "infer.replica_max_ms",
            times.iter().copied().fold(0.0, f64::max),
        );
        l.insert("infer.fold_ms", ledger.ms("infer.fold"));
        l.insert("infer.decode_iters", m.decode_iters as f64);
        l.insert("infer.mean_decode_batch", mean_decode_batch(&reference));
        l.insert(
            "infer.kv_peak_ratio",
            m.peak_blocks as f64 / m.block_capacity.max(1) as f64,
        );
        l.insert("infer.dropped", m.dropped as f64);
        return;
    }

    let started = Instant::now();
    let mut rep_s: Vec<f64> = Vec::new();
    while another_rep(started, args.seconds, &rep_s, 3) {
        let rep0 = Instant::now();
        clear_memos();
        for warm in [false, true] {
            let (q, d) = setup(regime, args.seed);
            let (wall, result) = timed_dispatch(&d, &q, log);
            log.op(check(result, &expected));
            if warm {
                &mut log.warm_wall_s
            } else {
                &mut log.wall_s
            }
            .push(wall);
        }
        rep_s.push(rep0.elapsed().as_secs_f64());
    }
}
