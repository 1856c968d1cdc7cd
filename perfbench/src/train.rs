//! `train-plan`: the planning user's questions, one caller in a closed
//! loop sending queries in-process through `Dispatcher::dispatch`.
//!
//! The search funnel, the analyzer, the step engine and the memo caches
//! do all of the work; `core::infer` does none. The queries take no
//! seed, so every seed runs the same inputs against the same pin.

use crate::{
    another_rep, clear_memos, memo_counters, memo_hit_rates, pins, traced_loop, Args, Ledger,
    RunLog,
};
use bench_harness::configs::production_8k_gpu_step;
use parallelism_core::planner::{plan, PlannerInput};
use parallelism_core::pp::sim::{lower_pp, lowering_capacity, PpSimOp, TableCosts};
use parallelism_core::query::{Query, Response, SearchQuery};
use parallelism_core::search::{enumerate_configs, finish_search, search_outcomes, SearchReport};
use parallelism_core::step::{SimFidelity, SimOptions};
use serve::Dispatcher;
use sim_engine::fluid::{FluidNet, Transfer};
use sim_engine::graph::TaskGraph;
use sim_engine::time::SimTime;
use std::time::Instant;

/// Candidates sampled for the `analyze.step_us` probe.
const ANALYZE_SAMPLES: usize = 8;

/// The fixed queries, in the order the caller sends them.
fn queries() -> Vec<Query> {
    let base = SearchQuery::default(); // 405B on 16 384 GPUs, seq 8192
    vec![
        Query::Bench,
        Query::Search(SearchQuery {
            max_cp: 1,
            goodput_head: 4,
            ..base.clone()
        }),
        Query::Search(SearchQuery {
            seq: 131_072,
            max_cp: 16,
            ..base.clone()
        }),
        Query::Search(SearchQuery {
            max_cp: 1,
            guided: true,
            ..base
        }),
    ]
}

/// The pin section header of a query.
fn header(q: &Query) -> String {
    format!("== {}\n", q.to_wire())
}

/// Splits a pin into its per-query sections, in query order.
fn sections(pin: &str, queries: &[Query]) -> Vec<String> {
    queries
        .iter()
        .map(|q| {
            let h = header(q);
            pin.find(&h).map_or_else(String::new, |start| {
                let body = &pin[start + h.len()..];
                let end = body.find("\n== ").map_or(body.len(), |e| e + 1);
                format!("{h}{}", &body[..end])
            })
        })
        .collect()
}

/// One pass of dispatches; returns its wall seconds and the responses.
fn dispatch_pass(
    d: &Dispatcher,
    queries: &[Query],
    expected: &[String],
    log: &mut RunLog,
) -> (f64, Vec<Option<Response>>) {
    let pass0 = Instant::now();
    let mut responses = Vec::with_capacity(queries.len());
    for (q, want) in queries.iter().zip(expected) {
        let t0 = Instant::now();
        let result = d.dispatch(q);
        if let Ok(r) = &result {
            std::hint::black_box(r.render_wire());
        }
        log.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(r) => {
                log.op(pins::diff(
                    want,
                    &format!("{}{}", header(q), pins::describe(&r)),
                ));
                responses.push(Some(r));
            }
            Err(e) => {
                log.op(Some(format!("{}: {e}", q.to_wire())));
                responses.push(None);
            }
        }
    }
    (pass0.elapsed().as_secs_f64(), responses)
}

fn search_report(r: &Option<Response>) -> Option<&SearchReport> {
    match r {
        Some(Response::Search(s)) => Some(&s.report),
        _ => None,
    }
}

/// The frontier as `(mesh, step time, peak memory)` triples.
fn frontier(r: &SearchReport) -> Vec<(String, u64, u64)> {
    r.frontier
        .iter()
        .map(|p| (p.config.to_string(), p.step_time.as_nanos(), p.peak_memory))
        .collect()
}

/// The train-plan regime guards over one cold pass's responses.
fn guards(responses: &[Option<Response>], log: &mut RunLog) {
    let reports: Vec<Option<&SearchReport>> = responses.iter().map(search_report).collect();
    let [_, Some(head4), Some(long), Some(guided)] = reports[..] else {
        log.guard(
            "responses",
            false,
            "a search query returned no report".into(),
        );
        return;
    };
    let rejected: usize = [head4, long, guided]
        .iter()
        .map(|r| r.counts.rejected_preflight)
        .sum();
    log.guard(
        "preflight-rejects",
        rejected > 0,
        format!("{rejected} pre-flight rejections > 0"),
    );
    log.guard(
        "refined",
        head4.counts.refined == 4,
        format!("refined {} == 4", head4.counts.refined),
    );
    log.guard(
        "guided-frontier",
        frontier(guided) == frontier(head4) && guided.guided.is_some(),
        format!(
            "guided frontier of {} points equals the exhaustive {}",
            guided.frontier.len(),
            head4.frontier.len()
        ),
    );
}

/// Ledger layers of the traced pass that map one-to-one onto a `*_ms`
/// per-layer metric.
const TIMED_LAYERS: [(&str, &str); 8] = [
    ("plan.plan", "plan.plan_ms"),
    ("step.folded", "step.folded_ms"),
    ("step.full", "step.full_ms"),
    ("graph.build", "graph.build_ms"),
    ("graph.execute", "graph.execute_ms"),
    ("fluid.solve", "fluid.solve_ms"),
    ("search.outcomes", "search.outcomes_ms"),
    ("search.finish", "search.finish_ms"),
];

/// What a traced pass answered.
struct LayerPass {
    /// Each query with the response the direct calls produced.
    answers: Vec<(Query, Response)>,
    /// Ops in the hand-lowered full-fidelity graph.
    graph_ops: usize,
}

/// The traced pass: the same questions, answered by calling each
/// layer's public function directly and charging it to `ledger`.
fn layer_pass(ledger: &mut Ledger, queries: &[Query]) -> LayerPass {
    let mut out = Vec::new();
    // `Query::Bench` measures the planner, the folded and full 8K-GPU
    // step and a fluid solve; the traced pass makes the same calls.
    let mut identical = true;
    let mut mesh = String::new();
    for _ in 0..5 {
        let p = ledger.time("plan.plan", || {
            plan(&PlannerInput::llama3_405b(16_384, 8_192))
        });
        mesh = p.map_or_else(|e| format!("error: {e}"), |p| p.mesh.to_string());
    }
    let step = production_8k_gpu_step(16);
    let folded_opts = SimOptions::new().fidelity(SimFidelity::Folded);
    let full_opts = SimOptions::new().fidelity(SimFidelity::Full);
    let mut folded = None;
    for _ in 0..5 {
        folded = ledger
            .time("step.folded", || step.run(&folded_opts))
            .ok()
            .map(|o| o.report);
    }
    let mut full = None;
    for _ in 0..2 {
        full = ledger
            .time("step.full", || step.run(&full_opts))
            .ok()
            .map(|o| o.report);
        identical &= full == folded;
    }
    // The third full-fidelity run is lowered by hand from the step's
    // public costs, so graph construction and `TaskGraph::execute` are
    // timed apart; its makespan must equal the full report's step time.
    let graph = ledger.time("graph.build", || {
        let sched = step.schedule().ok()?;
        let (fwd, bwd) = step.stage_costs();
        let costs = TableCosts {
            fwd,
            bwd,
            p2p: step.stage_p2p_time(),
        };
        let dp = step.mesh.dp() as usize;
        let pp = step.mesh.pp() as usize;
        let (ops, streams) = lowering_capacity(&sched);
        let mut g: TaskGraph<(u32, PpSimOp)> =
            TaskGraph::with_capacity(ops * dp + pp, streams * dp);
        let lowered: Vec<_> = (0..dp as u32)
            .map(|d| lower_pp(&mut g, &sched, &costs, &[], |op| (d, op)))
            .collect();
        let dp_cost = folded.as_ref()?.exposed.dp;
        for r in 0..pp {
            let streams: Vec<_> = lowered.iter().map(|l| l.compute_streams[r]).collect();
            g.add_op((u32::MAX, PpSimOp::Transfer), dp_cost, streams, []);
        }
        Some(g)
    });
    let graph_ops = graph.as_ref().map_or(0, |g| g.op_count());
    let makespan = graph.and_then(|g| {
        ledger
            .time("graph.execute", || g.execute())
            .ok()
            .map(|r| r.makespan())
    });
    identical &= makespan.is_some() && makespan == full.as_ref().map(|r| r.step_time);

    let mut net = FluidNet::new();
    let links: Vec<_> = (0..1024).map(|_| net.add_link(50e9)).collect();
    let transfers: Vec<Transfer> = links
        .iter()
        .enumerate()
        .map(|(i, &l)| Transfer {
            route: vec![l],
            bytes: (1 + i as u64 % 64) as f64 * (1 << 20) as f64,
            start: SimTime::from_nanos(i as u64 * 100),
        })
        .collect();
    let mut fluid_outcomes = 0;
    for _ in 0..9 {
        fluid_outcomes = ledger
            .time("fluid.solve", || net.run(transfers.clone()))
            .map_or(0, |o| o.len());
    }
    out.push((
        Query::Bench,
        Response::Bench(parallelism_core::query::BenchResponse {
            plan_ms: 0.0,
            plan_mesh: mesh,
            folded_ms: 0.0,
            full_ms: 0.0,
            identical,
            fluid_ms: 0.0,
            fluid_outcomes,
        }),
    ));

    for q in queries.iter().filter(|q| matches!(q, Query::Search(_))) {
        let Query::Search(sq) = q else { continue };
        let Ok(spec) = sq.to_spec() else { continue };
        let Ok(outcomes) = ledger.time("search.outcomes", || search_outcomes(&spec)) else {
            continue;
        };
        let Ok(report) = ledger.time("search.finish", || finish_search(&spec, &outcomes)) else {
            continue;
        };
        out.push((
            q.clone(),
            Response::Search(Box::new(parallelism_core::query::SearchResponse {
                report,
                expect: None,
                expect_hit: None,
            })),
        ));
    }
    LayerPass {
        answers: out,
        graph_ops,
    }
}

/// Checks a traced pass's answers against the pin sections.
fn check_pass(pass: &LayerPass, queries: &[Query], expected: &[String], log: &mut RunLog) {
    for ((q, r), want) in pass.answers.iter().zip(expected) {
        log.op(pins::diff(
            want,
            &format!("{}{}", header(q), pins::describe(r)),
        ));
    }
    if pass.answers.len() != queries.len() {
        log.op(Some(format!(
            "traced pass answered {} of {} queries",
            pass.answers.len(),
            queries.len()
        )));
    }
}

/// The traced run: per-layer times, memo hit rates and probes.
fn run_traced(args: &Args, qs: &[Query], expected: &[String], log: &mut RunLog) {
    let mut cold_rates = (0.0, 0.0);
    let mut last_pass = None;
    let ledger = traced_loop(
        args,
        log,
        |_| Some(()),
        |ledger, log, _| {
            let before = memo_counters();
            let pass = layer_pass(ledger, qs);
            cold_rates = memo_hit_rates(before, memo_counters());
            check_pass(&pass, qs, expected, log);
            last_pass = Some(pass);
        },
    );
    // The same questions again with the memos the last pass left warm.
    let before = memo_counters();
    check_pass(&layer_pass(&mut Ledger::off(), qs), qs, expected, log);
    let warm_rates = memo_hit_rates(before, memo_counters());

    // Probes, timed outside the traced pass: enumeration alone (it also
    // runs inside `search_outcomes`) and the full analyzer on a sample of
    // candidates (the funnel memoizes its verdicts instead).
    let mut probe = Ledger::default();
    for (i, q) in qs.iter().enumerate() {
        let Query::Search(sq) = q else { continue };
        let Ok(spec) = sq.to_spec() else { continue };
        let (configs, _) = probe.time("search.enumerate", || enumerate_configs(&spec));
        if i == 1 {
            let stride = (configs.len() / ANALYZE_SAMPLES).max(1);
            for c in configs.iter().step_by(stride).take(ANALYZE_SAMPLES) {
                if let Some(step) = spec.build_step(c) {
                    probe.time("analyze.step", || parallelism_core::analyze_step(&step));
                }
            }
        }
    }

    let Some(pass) = last_pass else { return };
    let reports: Vec<&SearchReport> = pass
        .answers
        .iter()
        .filter_map(|(_, r)| match r {
            Response::Search(s) => Some(&s.report),
            _ => None,
        })
        .collect();
    let count = |f: fn(&SearchReport) -> usize| reports.iter().map(|r| f(r)).sum::<usize>() as f64;
    let l = &mut log.layers;
    for (layer, metric) in TIMED_LAYERS {
        l.insert(metric, ledger.ms(layer));
    }
    l.insert("graph.ops", pass.graph_ops as f64);
    l.insert("search.enumerate_ms", probe.ms("search.enumerate"));
    l.insert("analyze.step_us", probe.us_per_call("analyze.step"));
    l.insert("search.candidates", count(|r| r.counts.candidates));
    l.insert(
        "search.rejected_preflight",
        count(|r| r.counts.rejected_preflight),
    );
    l.insert("search.scored", count(|r| r.counts.scored));
    l.insert("search.refined", count(|r| r.counts.refined));
    l.insert(
        "search.guided_evals",
        count(|r| r.guided.as_ref().map_or(0, |g| g.candidates_verified)),
    );
    l.insert("cost_cache.hit_rate_cold", cold_rates.0);
    l.insert("cost_cache.hit_rate_warm", warm_rates.0);
    l.insert("verdict_cache.hit_rate_cold", cold_rates.1);
    l.insert("verdict_cache.hit_rate_warm", warm_rates.1);
}

/// Everything the first operation needs: the inputs and a dispatcher.
pub fn setup() -> (Vec<Query>, Dispatcher) {
    (queries(), Dispatcher::new())
}

/// Runs the workload for `args.seconds`.
pub fn run(args: &Args, log: &mut RunLog) {
    let qs = queries();
    let expected = sections(pins::pin("train-plan", args.seed).unwrap_or(""), &qs);
    if args.trace {
        run_traced(args, &qs, &expected, log);
        return;
    }

    let started = Instant::now();
    let mut rep_s: Vec<f64> = Vec::new();
    while another_rep(started, args.seconds, &rep_s, 2) {
        let rep0 = Instant::now();
        clear_memos();
        let (qs, d) = setup();
        let c0 = memo_counters();
        let (cold, responses) = dispatch_pass(&d, &qs, &expected, log);
        log.wall_s.push(cold);
        let c1 = memo_counters();
        if rep_s.is_empty() {
            guards(&responses, log);
            let text: String = qs
                .iter()
                .zip(&responses)
                .map(|(q, r)| {
                    format!(
                        "{}{}",
                        header(q),
                        r.as_ref().map_or(String::new(), pins::describe)
                    )
                })
                .collect();
            if let Some(problem) = pins::check("train-plan", args.seed, &text) {
                log.problems.push(problem);
            }
        }
        let (qs, d) = setup();
        let (warm, _) = dispatch_pass(&d, &qs, &expected, log);
        log.warm_wall_s.push(warm);
        let (cost_cold, verdict_cold) = memo_hit_rates(c0, c1);
        let (cost_warm, verdict_warm) = memo_hit_rates(c1, memo_counters());
        let ok = cost_warm > cost_cold && verdict_warm > verdict_cold;
        if !ok || rep_s.is_empty() {
            log.guard(
                "warm-memos",
                ok,
                format!("hit rates warm vs cold: cost {cost_warm:.4} > {cost_cold:.4}, verdict {verdict_warm:.4} > {verdict_cold:.4}"),
            );
        }
        rep_s.push(rep0.elapsed().as_secs_f64());
    }
}
