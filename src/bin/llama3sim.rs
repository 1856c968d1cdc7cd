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
//! switches go through [`bench_harness::cli::Flags`]: `--json` on
//! `analyze` and `lint`, `--grid` on `infer`, and `--stats`/`--smoke`,
//! which set the trace `mode` key:
//!
//! ```text
//! llama3sim analyze  --list | --config NAME [--json] | --grid [--json]
//! llama3sim fuzz     [--cases N] [--seed S]
//! llama3sim bench
//! llama3sim goodput
//! llama3sim search   [--model 405b|70b|8b] [--gpus N] [--seq N]
//!                    [--layers N] [--budget TOKENS]
//!                    [--goodput-head N] [--threads N] [--max-cp N]
//!                    [--zero M1[,M2...]] [--expect tp,cp,pp,dp]
//!                    [--workload train|infer] [--guided]
//! llama3sim infer    [--model 405b|70b|8b] [--gpus N] [--tp N] [--pp N]
//!                    [--traffic steady|diurnal|bursty] [--rpd N]
//!                    [--horizon-s N] [--seed S] [--block N]
//!                    [--max-batch N] [--slo-ttft-ms N] [--slo-tpot-ms N]
//!                    [--threads N] [--grid]
//! llama3sim trace    [--model 405b|70b|8b] [--gpus N] [--seq N]
//!                    [--horizon-s N] [--seed S] [--tier0 N]
//!                    [--window T0,T1] [--zoom N] [--stats | --smoke]
//! llama3sim serve    [--addr HOST:PORT] [--self-test]
//! llama3sim lint     [--json]
//! ```

use analyzer::cli::{self as analyze_cli, AnalyzeArgs};
use bench_harness::cli::Flags;
use conformance::fuzz::run_sweep;
use parallelism_core::query::{AnalyzeMode, InferQuery, Query, Response};
use parallelism_core::search::SearchPoint;
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
    eprintln!("  bench     wall-clock timings of the simulator's hot paths");
    eprintln!("  goodput   seeded 24 h goodput simulation");
    eprintln!("  search    Pareto auto-parallelism search");
    eprintln!("            [--model 405b|70b|8b] [--gpus N] [--seq N]");
    eprintln!("            [--layers N] [--budget TOKENS]");
    eprintln!("            [--goodput-head N] [--threads N] [--max-cp N] [--zero M1[,M2...]]");
    eprintln!("            [--expect tp,cp,pp,dp] [--workload train|infer] [--guided]");
    eprintln!("            --guided: gradient-guided candidate selection (autodiff");
    eprintln!("            surrogate + projected descent), verified vs the exhaustive");
    eprintln!("            baseline and reported with the measured speedup");
    eprintln!("            --workload infer: rank serving meshes by (p99 TTFT, peak HBM)");
    eprintln!("  infer     continuous-batching serving simulation");
    eprintln!("            [--model 405b|70b|8b] [--gpus N] [--tp N] [--pp N]");
    eprintln!("            [--traffic steady|diurnal|bursty] [--rpd N] [--horizon-s N]");
    eprintln!("            [--seed S] [--block N] [--max-batch N] [--slo-ttft-ms N]");
    eprintln!("            [--slo-tpot-ms N] [--threads N] [--grid]");
    eprintln!("            --grid: sweep all three traffic shapes");
    eprintln!("  trace     tiered-trace export of a simulated multi-day run");
    eprintln!("            [--model 405b|70b|8b] [--gpus N] [--seq N] [--horizon-s N]");
    eprintln!("            [--seed S] [--tier0 N] [--window T0,T1] [--zoom N]");
    eprintln!("            [--stats | --smoke]");
    eprintln!("            default: chrome-trace JSON of the O(log N) retained timeline;");
    eprintln!("            --window seeks (replay-exact), --stats prints aggregates,");
    eprintln!("            --smoke self-checks replay exactness");
    eprintln!("  serve     HTTP daemon exposing the query API -> POST /v1/query");
    eprintln!("            [--addr HOST:PORT] [--self-test]");
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
    let payload = run_sweep(&args, |clean| {
        eprintln!("conformance fuzz: {clean}/{} cases clean", args.cases);
    });
    if let Some(diag) = payload.render_diagnostics() {
        eprintln!("{diag}");
    }
    let response = Response::Fuzz(payload);
    println!("{}", response.render_human());
    Ok(response.exit_code())
}

fn run_bench(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    Flags::new(rest).finish()?;
    let response = d.dispatch(&Query::Bench).map_err(|e| e.to_string())?;
    println!("{}", response.render_human());
    let code = response.exit_code();
    if code != 0 {
        eprintln!("error: folded and full step reports diverged");
    }
    Ok(code)
}

fn run_goodput(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    Flags::new(rest).finish()?;
    let response = d.dispatch(&Query::Goodput).map_err(|e| e.to_string())?;
    println!("{}", response.render_human());
    println!();
    Ok(response.exit_code())
}

fn run_search(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let Query::Search(query) = parse_query("search", rest, &[])? else {
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

    // With --guided, also time the exhaustive baseline: the guided
    // frontier must equal it, and the speedup is reported.
    let mut code = 0;
    if query.guided {
        let mut ex_query = query.clone();
        ex_query.guided = false;
        let t1 = Instant::now();
        match d.dispatch(&Query::Search(ex_query)) {
            Ok(Response::Search(ex)) => {
                let ex_ms = t1.elapsed().as_secs_f64() * 1e3;
                let mismatch = frontier_mismatch(&r.report.frontier, &ex.report.frontier);
                println!(
                    "exhaustive baseline in {ex_ms:.0} ms ({:.1}x speedup, frontier match: {})",
                    ex_ms / wall_ms.max(1e-9),
                    mismatch.is_none()
                );
                if let Some(point) = mismatch {
                    eprintln!("error: guided and exhaustive frontiers differ at {point}");
                    code = 1;
                }
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
    }

    if let Some((tp, cp, pp, dp)) = query.expect {
        if r.expect_hit == Some(true) {
            println!("expected mesh tp{tp}·cp{cp}·pp{pp}·dp{dp} is on the frontier");
        } else {
            eprintln!("error: expected mesh tp{tp}·cp{cp}·pp{pp}·dp{dp} is NOT on the frontier");
            code = 1;
        }
    }
    Ok(code)
}

/// The first point where two frontiers disagree (in configuration or
/// step time), rendered for an error line; `None` when they are equal.
fn frontier_mismatch(guided: &[SearchPoint], exhaustive: &[SearchPoint]) -> Option<String> {
    let show = |p: Option<&SearchPoint>| {
        p.map_or("no point".to_string(), |p| {
            format!(
                "{} ({:.3} ms, {:.1} GiB)",
                p.config,
                p.step_time.as_millis_f64(),
                p.peak_memory as f64 / (1u64 << 30) as f64
            )
        })
    };
    let i = (0..guided.len().max(exhaustive.len())).find(|&i| {
        match (guided.get(i), exhaustive.get(i)) {
            (Some(g), Some(e)) => g.config != e.config || g.step_time != e.step_time,
            _ => true,
        }
    })?;
    Some(format!(
        "frontier point {}: guided has {}, exhaustive has {}",
        i + 1,
        show(guided.get(i)),
        show(exhaustive.get(i))
    ))
}

/// The `infer` subcommand: price a serving workload (or, with `--grid`,
/// all three traffic shapes).
fn run_infer(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
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
    let mut completed = 0;
    for (i, shape) in shapes.into_iter().enumerate() {
        let q = InferQuery {
            traffic: shape,
            ..query.clone()
        };
        let response = match d.dispatch(&Query::Infer(q.clone())) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: infer: {e}");
                return Ok(1);
            }
        };
        let Response::Infer(r) = &response else {
            return Err("infer dispatch returned a non-infer response".to_string());
        };
        println!("{}", response.render_human());
        println!();
        // Grid runs double as the thread-invariance smoke: the first
        // shape is re-simulated single-threaded and must reproduce the
        // report bit-identically. The re-run needs a fresh dispatcher:
        // the canonical hash ignores `threads`, so this one would answer
        // from its cache.
        if grid && i == 0 {
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
        completed += r.report.completed;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("simulated in {wall_ms:.0} ms");
    Ok(i32::from(completed == 0))
}

fn run_trace(d: &Dispatcher, rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let mode = match (f.switch("stats"), f.switch("smoke")) {
        (false, false) => None,
        (true, false) => Some("mode=stats"),
        (false, true) => Some("mode=smoke"),
        (true, true) => return Err("--stats and --smoke are mutually exclusive".to_string()),
    };
    let query = parse_query("trace", &f.into_rest(), mode.as_slice())?;
    let response = match d.dispatch(&query) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(2);
        }
    };
    println!("{}", response.render_human());
    Ok(response.exit_code())
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
