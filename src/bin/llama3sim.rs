//! `llama3sim` — the consolidated multi-command CLI.
//!
//! Every subcommand is a thin front end over the versioned query API
//! ([`parallelism_core::query`]): flags parse into a [`Query`], a
//! shared [`serve::Dispatcher`] executes it, and the payload prints
//! through the same [`Response`] renderers the HTTP daemon serves —
//! so `llama3sim search ...` and `POST /v1/query` are byte-identical
//! by construction. The `fuzz`, `search`, `infer` and `trace` flags
//! parse through the query's own field table ([`Query::parse_cli`]),
//! so each flag is the CLI spelling of one wire key. Only CLI-only
//! switches go through [`bench_harness::cli::Flags`]: `--json`
//! (machine-readable output on stdout in addition to the
//! `BENCH_*.json` envelope files the snapshot commands write),
//! `--grid`, and `--stats`/`--smoke`, which set the trace `mode` key:
//!
//! ```text
//! llama3sim analyze  --list | --config NAME [--json] | --grid [--json]
//! llama3sim fuzz     [--cases N] [--seed S]
//! llama3sim bench    [--json]
//! llama3sim goodput  [--json]
//! llama3sim search   [--model 405b|70b|8b] [--gpus N] [--seq N]
//!                    [--layers N] [--budget TOKENS]
//!                    [--goodput-head N] [--threads N] [--max-cp N]
//!                    [--zero M1[,M2...]] [--expect tp,cp,pp,dp]
//!                    [--workload train|infer] [--guided] [--json]
//! llama3sim infer    [--model 405b|70b|8b] [--gpus N] [--tp N] [--pp N]
//!                    [--traffic steady|diurnal|bursty] [--rpd N]
//!                    [--horizon-s N] [--seed S] [--block N]
//!                    [--max-batch N] [--slo-ttft-ms N] [--slo-tpot-ms N]
//!                    [--threads N] [--grid] [--json]
//! llama3sim trace    [--model 405b|70b|8b] [--gpus N] [--seq N]
//!                    [--horizon-s N] [--seed S] [--tier0 N]
//!                    [--window T0,T1] [--zoom N] [--stats | --smoke]
//!                    [--json]
//! llama3sim serve    [--addr HOST:PORT] [--self-test]
//!                    [--bench [--clients N] [--json]]
//! llama3sim lint     [--json]
//! ```

use analyzer::cli::{self as analyze_cli, AnalyzeArgs};
use bench_harness::cli::Flags;
use bench_harness::snapshot::{
    emit, goodput_envelope, infer_envelope, perf_envelope, search_envelope, trace_envelope,
    SnapshotArgs,
};
use conformance::fuzz::run_sweep;
use parallelism_core::query::{AnalyzeMode, InferQuery, Query, Response};
use parallelism_core::TrafficShape;
use serve::cli::ServeArgs;
use serve::Dispatcher;
use std::time::Instant;

fn usage() -> i32 {
    eprintln!("usage: llama3sim <command> [flags]");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  analyze   pre-flight static analysis (no simulation)");
    eprintln!("            --list | --config NAME [--json] | --grid [--json]");
    eprintln!("  fuzz      seeded conformance fuzz sweep");
    eprintln!("            [--cases N] [--seed S]");
    eprintln!("  bench     performance snapshot -> BENCH_step_sim.json");
    eprintln!("            [--json]");
    eprintln!("  goodput   seeded 24 h goodput snapshot -> BENCH_goodput.json");
    eprintln!("            [--json]");
    eprintln!("  search    Pareto auto-parallelism search -> BENCH_search.json");
    eprintln!("            [--model 405b|70b|8b] [--gpus N] [--seq N]");
    eprintln!("            [--layers N] [--budget TOKENS]");
    eprintln!("            [--goodput-head N] [--threads N] [--max-cp N] [--zero M1[,M2...]]");
    eprintln!("            [--expect tp,cp,pp,dp] [--workload train|infer] [--guided] [--json]");
    eprintln!("            --guided: gradient-guided candidate selection (autodiff");
    eprintln!("            surrogate + projected descent), verified vs the exhaustive");
    eprintln!("            baseline and reported with the measured speedup");
    eprintln!("            --workload infer: rank serving meshes by (p99 TTFT, peak HBM)");
    eprintln!("  infer     continuous-batching serving simulation -> BENCH_infer.json");
    eprintln!("            [--model 405b|70b|8b] [--gpus N] [--tp N] [--pp N]");
    eprintln!("            [--traffic steady|diurnal|bursty] [--rpd N] [--horizon-s N]");
    eprintln!("            [--seed S] [--block N] [--max-batch N] [--slo-ttft-ms N]");
    eprintln!("            [--slo-tpot-ms N] [--threads N] [--grid] [--json]");
    eprintln!("            --grid: sweep all three traffic shapes into one envelope");
    eprintln!("  trace     tiered-trace export of a simulated multi-day run");
    eprintln!("            [--model 405b|70b|8b] [--gpus N] [--seq N] [--horizon-s N]");
    eprintln!("            [--seed S] [--tier0 N] [--window T0,T1] [--zoom N]");
    eprintln!("            [--stats | --smoke] [--json]");
    eprintln!("            default: chrome-trace JSON of the O(log N) retained timeline;");
    eprintln!("            --window seeks (replay-exact), --stats prints aggregates,");
    eprintln!("            --smoke self-checks replay exactness -> BENCH_trace.json");
    eprintln!("  serve     HTTP daemon exposing the query API -> POST /v1/query");
    eprintln!("            [--addr HOST:PORT] [--self-test] [--bench [--clients N] [--json]]");
    eprintln!("  lint      static analysis of the workspace sources (hygiene LINT001-007,");
    eprintln!("            concurrency LOCK001-003 over the serve/cache substrate)");
    eprintln!("            [--json]  (exit 0 clean, 1 on findings)");
    2
}

/// Parses a subcommand's flags into its query (see [`Query::parse_cli`]).
fn parse_query(kind: &str, args: &[String], extra: &[&str]) -> Result<Query, String> {
    Query::parse_cli(kind, args, extra).map_err(|e| e.message)
}

fn run_analyze(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let args = AnalyzeArgs::parse(rest)?;
    let mode = if args.list {
        AnalyzeMode::List
    } else if let Some(name) = &args.config {
        AnalyzeMode::Config(name.clone())
    } else {
        AnalyzeMode::Grid
    };
    let response = match d.dispatch(&Query::Analyze(mode)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            analyze_cli::print_usage("analyze");
            return Ok(2);
        }
    };
    let Response::Analyze(payload) = &response else {
        return Err("analyze dispatch returned a non-analyze response".to_string());
    };
    if args.json && !args.list {
        let jsonl = payload.render_jsonl();
        if !jsonl.is_empty() {
            println!("{jsonl}");
        }
    } else {
        println!("{}", response.render_human());
    }
    Ok(response.exit_code())
}

fn run_fuzz(rest: &[String]) -> Result<i32, String> {
    let Query::Fuzz(args) = parse_query("fuzz", rest, &[])? else {
        return Err("fuzz flags parsed to a non-fuzz query".to_string());
    };
    // The heartbeat streams to stderr mid-sweep, which a one-shot
    // dispatch cannot carry, so the CLI drives the sweep itself and
    // renders through the same response type the dispatcher returns.
    let outcome = run_sweep(&args, |clean| {
        eprintln!("conformance fuzz: {clean}/{} cases clean", args.cases);
    });
    let payload = outcome.into_response();
    if let Some(diag) = payload.render_diagnostics() {
        eprintln!("{diag}");
    }
    let response = Response::Fuzz(payload);
    println!("{}", response.render_human());
    Ok(response.exit_code())
}

fn run_bench(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let args = SnapshotArgs::parse(rest)?;
    let response = d.dispatch(&Query::Bench).map_err(|e| e.to_string())?;
    let Response::Bench(r) = &response else {
        return Err("bench dispatch returned a non-bench response".to_string());
    };
    println!("{}", response.render_human());
    let code = emit(&perf_envelope(r), "BENCH_step_sim.json", args.json);
    assert!(r.identical, "folded and full reports diverged");
    Ok(code)
}

fn run_goodput(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let args = SnapshotArgs::parse(rest)?;
    let response = d.dispatch(&Query::Goodput).map_err(|e| e.to_string())?;
    let Response::Goodput(r) = &response else {
        return Err("goodput dispatch returned a non-goodput response".to_string());
    };
    println!("{}", response.render_human());
    println!();
    Ok(emit(&goodput_envelope(r), "BENCH_goodput.json", args.json))
}

fn run_search(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch("json");
    let Query::Search(query) = parse_query("search", &f.into_rest(), &[])? else {
        return Err("search flags parsed to a non-search query".to_string());
    };
    let t0 = Instant::now();
    let response = match d.dispatch(&Query::Search(query.clone())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            // A plan-level failure keeps the search exit code; anything
            // else (bad model name, bad flags) is a usage error.
            return Ok(if e.to_string().starts_with("search failed") { 1 } else { 2 });
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let Response::Search(r) = &response else {
        return Err("search dispatch returned a non-search response".to_string());
    };
    println!("{}", response.render_human());
    println!("searched in {wall_ms:.0} ms");

    // With --guided, also time the exhaustive baseline so the snapshot
    // pins the measured speedup and whether the frontiers agree.
    let baseline = if query.guided {
        let mut ex_query = query.clone();
        ex_query.guided = false;
        let t1 = Instant::now();
        match d.dispatch(&Query::Search(ex_query)) {
            Ok(Response::Search(ex)) => {
                let ex_ms = t1.elapsed().as_secs_f64() * 1e3;
                let matches = ex.report.frontier.len() == r.report.frontier.len()
                    && ex
                        .report
                        .frontier
                        .iter()
                        .zip(&r.report.frontier)
                        .all(|(a, b)| a.config == b.config && a.step_time == b.step_time);
                println!(
                    "exhaustive baseline in {ex_ms:.0} ms ({:.1}x speedup, frontier match: {matches})",
                    ex_ms / wall_ms.max(1e-9)
                );
                Some((ex_ms, matches))
            }
            Ok(_) => {
                return Err("search dispatch returned a non-search response".to_string());
            }
            Err(e) => {
                let msg = e.to_string();
                let msg = msg.strip_prefix("search failed: ").unwrap_or(&msg);
                eprintln!("error: exhaustive baseline failed: {msg}");
                return Ok(1);
            }
        }
    } else {
        None
    };

    let spec = query.to_spec().map_err(|e| e.to_string())?;
    let mut envelope = search_envelope(&query, &spec, &r.report, wall_ms, baseline);
    let mut code = 0;
    if let Some((tp, cp, pp, dp)) = query.expect {
        let hit = r.expect_hit == Some(true);
        envelope = envelope.metric("expected_mesh_on_frontier", hit);
        if hit {
            println!("expected mesh tp{tp}·cp{cp}·pp{pp}·dp{dp} is on the frontier");
        } else {
            eprintln!("error: expected mesh tp{tp}·cp{cp}·pp{pp}·dp{dp} is NOT on the frontier");
            code = 1;
        }
    }
    Ok(emit(&envelope, "BENCH_search.json", json).max(code))
}

/// The `infer` subcommand: price a serving workload (or, with `--grid`,
/// the full three-shape traffic envelope) and write `BENCH_infer.json`.
fn run_infer(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch("json");
    let grid = f.switch("grid");
    let Query::Infer(query) = parse_query("infer", &f.into_rest(), &[])? else {
        return Err("infer flags parsed to a non-infer query".to_string());
    };
    let shapes = if grid {
        TrafficShape::ALL.to_vec()
    } else {
        vec![query.traffic]
    };
    let t0 = Instant::now();
    let mut rows = Vec::with_capacity(shapes.len());
    for shape in shapes {
        let q = InferQuery {
            traffic: shape,
            ..query.clone()
        };
        let r = match d.dispatch(&Query::Infer(q.clone())) {
            Ok(Response::Infer(r)) => r,
            Ok(_) => return Err("infer dispatch returned a non-infer response".to_string()),
            Err(e) => {
                eprintln!("error: infer: {e}");
                return Ok(1);
            }
        };
        println!("{}", Response::Infer(r.clone()).render_human());
        println!();
        // Grid runs double as the thread-invariance smoke: the first
        // shape is re-simulated single-threaded and must reproduce the
        // report bit-identically. The re-run needs a fresh dispatcher:
        // the canonical hash ignores `threads`, so this one would answer
        // from its cache.
        if grid && rows.is_empty() {
            let serial = InferQuery {
                threads: 1,
                ..q.clone()
            };
            match Dispatcher::new().dispatch(&Query::Infer(serial)) {
                Ok(Response::Infer(s)) if s.report == r.report => {
                    println!("thread-invariance check: serial re-simulation bit-identical");
                    println!();
                }
                Ok(_) => {
                    eprintln!(
                        "error: infer: threads=1 re-simulation diverged from threads={}",
                        q.threads
                    );
                    return Ok(1);
                }
                Err(e) => {
                    eprintln!("error: infer: {e}");
                    return Ok(1);
                }
            }
        }
        rows.push(*r);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("simulated in {wall_ms:.0} ms");
    let code = i32::from(rows.iter().all(|r| r.report.completed == 0));
    let envelope = infer_envelope(&query, &rows, wall_ms);
    Ok(emit(&envelope, "BENCH_infer.json", json).max(code))
}

fn run_trace(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch("json");
    let mode = match (f.switch("stats"), f.switch("smoke")) {
        (false, false) => None,
        (true, false) => Some("mode=stats"),
        (false, true) => Some("mode=smoke"),
        (true, true) => return Err("--stats and --smoke are mutually exclusive".to_string()),
    };
    let Query::Trace(query) = parse_query("trace", &f.into_rest(), mode.as_slice())? else {
        return Err("trace flags parsed to a non-trace query".to_string());
    };
    let response = match d.dispatch(&Query::Trace(query.clone())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(2);
        }
    };
    let Response::Trace(r) = &response else {
        return Err("trace dispatch returned a non-trace response".to_string());
    };
    println!("{}", response.render_human());
    let code = emit(&trace_envelope(&query, r), "BENCH_trace.json", json);
    Ok(code.max(response.exit_code()))
}

fn run_lint(rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch("json");
    f.finish()?;
    let report = lint::lint_repo(&lint::repo_root());
    for d in &report.diagnostics {
        if json {
            println!("{}", d.to_json_line());
        } else {
            println!("{}", d.render_human());
        }
    }
    if report.clean() {
        eprintln!("lint: {} library sources clean", report.files);
        Ok(0)
    } else {
        eprintln!(
            "lint: {} violation(s) across {} library sources",
            report.diagnostics.len(),
            report.files
        );
        Ok(1)
    }
}

fn dispatch(cmd: &str, rest: &[String]) -> Result<i32, String> {
    match cmd {
        "analyze" => run_analyze(&Dispatcher::new(), rest),
        "fuzz" => run_fuzz(rest),
        "bench" => run_bench(&Dispatcher::new(), rest),
        "goodput" => run_goodput(&Dispatcher::new(), rest),
        "search" => run_search(&Dispatcher::new(), rest),
        "infer" => run_infer(&Dispatcher::new(), rest),
        "trace" => run_trace(&Dispatcher::new(), rest),
        "serve" => Ok(serve::cli::run(&ServeArgs::parse(rest)?)),
        "lint" => run_lint(rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        None => usage(),
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" || cmd == "help" => {
            usage();
            0
        }
        Some((cmd, rest)) => dispatch(cmd, rest).unwrap_or_else(|e| {
            eprintln!("llama3sim {cmd}: {e}");
            if cmd == "analyze" {
                analyze_cli::print_usage("llama3sim analyze");
                2
            } else {
                usage()
            }
        }),
    };
    std::process::exit(code);
}
