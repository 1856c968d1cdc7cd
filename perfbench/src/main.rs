//! The repository's benchmark: drives the simulator through its public
//! API on four workloads and prints end-to-end metrics (host time,
//! tracing off) or per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-plan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every operation's
//! output is checked against pinned values (see `pins.rs`) or an
//! independent in-process reference; a mismatch or a failed regime
//! guard counts as a failed operation and makes the run incorrect.

mod daemon;
mod infer;
mod pins;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["train-plan", "serve-idle", "serve-saturated", "daemon-mix"];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
/// `*_ms` layers are totals over one traced pass, `*_us` layers are
/// means per call.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.wall_ms", "ms"),
    ("trace.layers_ms", "ms"),
    ("other_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("plan.plan_ms", "ms"),
    ("step.folded_ms", "ms"),
    ("step.full_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.execute_ms", "ms"),
    ("graph.ops", "count"),
    ("fluid.solve_ms", "ms"),
    ("search.enumerate_ms", "ms"),
    ("search.outcomes_ms", "ms"),
    ("search.finish_ms", "ms"),
    ("analyze.step_us", "us"),
    ("search.candidates", "count"),
    ("search.rejected_preflight", "count"),
    ("search.scored", "count"),
    ("search.refined", "count"),
    ("search.guided_evals", "count"),
    ("cost_cache.hit_rate_cold", "ratio"),
    ("cost_cache.hit_rate_warm", "ratio"),
    ("verdict_cache.hit_rate_cold", "ratio"),
    ("verdict_cache.hit_rate_warm", "ratio"),
    ("infer.costs_us", "us"),
    ("traffic.generate_ms", "ms"),
    ("traffic.requests", "count"),
    ("infer.route_ms", "ms"),
    ("infer.parallel_ms", "ms"),
    ("infer.replica_ms", "ms"),
    ("infer.replica_max_ms", "ms"),
    ("infer.fold_ms", "ms"),
    ("infer.decode_iters", "count"),
    ("infer.mean_decode_batch", "tok/iter"),
    ("infer.kv_peak_ratio", "ratio"),
    ("infer.dropped", "count"),
    ("query.parse_wire_us", "us"),
    ("query.canonical_hash_us", "us"),
    ("dispatch.compute_ms", "ms"),
    ("dispatch.hit_us", "us"),
    ("query.render_wire_us", "us"),
    ("render.human_us", "us"),
    ("http.roundtrip_ms", "ms"),
    ("http.self_us", "us"),
    ("dispatch.response_hit_rate", "ratio"),
    ("dispatch.coalesced", "count"),
];

/// Child processes timed for `setup_s`, which reports their median.
const SETUP_PROBES: usize = 9;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up the workload, report it ready, and exit: the child side of
    /// the `setup_s` measurement.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} wants a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!("unknown workload {value:?} (want {WORKLOADS:?})"));
                }
                workload = Some(value.to_string());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: if setup_probe {
            0.0
        } else {
            seconds.ok_or("missing --seconds")?
        },
        trace: if setup_probe {
            false
        } else {
            trace.ok_or("missing --trace")?
        },
        setup_probe,
    })
}

/// What one run of a workload measured and checked.
#[derive(Default)]
pub struct RunLog {
    /// Seconds from spawning a process until it had the first operation
    /// ready to send, one sample per probe.
    pub setup_s: Vec<f64>,
    /// Host seconds of the fixed work with cold memos, one per repetition.
    pub wall_s: Vec<f64>,
    /// Host seconds of the fixed work on a fresh dispatcher, memos warm.
    pub warm_wall_s: Vec<f64>,
    /// Per-operation latency, milliseconds, cold and warm passes.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Verification and guard failures, one line each.
    pub problems: Vec<String>,
    /// Operations that failed (error, transport error or wrong output).
    pub failed: u64,
    /// Per-layer metrics of a traced run, by name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl RunLog {
    /// Counts one operation, failed when `problem` is `Some`.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Records a regime-guard verdict: a failed guard is an error.
    pub fn guard(&mut self, name: &str, ok: bool, detail: String) {
        println!(
            "guard {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            self.problems.push(format!("guard {name} failed: {detail}"));
        }
    }
}

/// Accumulates host time per layer for a traced pass. Each timed call is
/// disjoint from the others, so the layers plus the untimed remainder
/// (`other_ms`) add up to the pass's wall time. A ledger made with
/// [`Ledger::off`] runs the same calls without reading the clock: the
/// untraced twin of a traced pass.
pub struct Ledger {
    enabled: bool,
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger {
            enabled: true,
            totals: BTreeMap::new(),
        }
    }
}

impl Ledger {
    /// A ledger that records nothing.
    pub fn off() -> Ledger {
        Ledger {
            enabled: false,
            totals: BTreeMap::new(),
        }
    }

    /// Runs `f`, charging its host time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let e = self.totals.entry(layer).or_insert((0.0, 0));
        e.0 += t0.elapsed().as_secs_f64() * 1e3;
        e.1 += 1;
        out
    }

    /// Total milliseconds charged to `layer`.
    pub fn ms(&self, layer: &str) -> f64 {
        self.totals.get(layer).map_or(0.0, |e| e.0)
    }

    /// Mean microseconds per call charged to `layer`.
    pub fn us_per_call(&self, layer: &str) -> f64 {
        self.totals.get(layer).map_or(
            0.0,
            |&(ms, n)| if n == 0 { 0.0 } else { ms * 1e3 / n as f64 },
        )
    }

    /// Sum of every layer's milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.totals.values().map(|e| e.0).sum()
    }

    /// Prints the per-layer breakdown of a pass of `wall_ms`.
    fn print_breakdown(&self, wall_ms: f64) {
        println!("layer breakdown of the traced pass (wall {wall_ms:.3} ms):");
        for (layer, (ms, n)) in &self.totals {
            println!(
                "  {layer:<24} {ms:>12.3} ms  {:>5.1}%  {n} calls",
                100.0 * ms / wall_ms
            );
        }
        let other = wall_ms - self.total_ms();
        println!(
            "  {:<24} {other:>12.3} ms  {:>5.1}%",
            "other",
            100.0 * other / wall_ms
        );
    }
}

/// The traced run shared by every workload: alternates an untraced and
/// a traced pass (memos cleared before each) until the window closes,
/// at least once each. `prepare` builds what a pass needs outside its
/// timed region. Records the accounting metrics and returns the last
/// traced pass's ledger.
pub fn traced_loop<R>(
    args: &Args,
    log: &mut RunLog,
    mut prepare: impl FnMut(&mut RunLog) -> Option<R>,
    mut pass: impl FnMut(&mut Ledger, &mut RunLog, &mut R),
) -> Ledger {
    let started = Instant::now();
    let (mut traced_ms, mut untraced_ms, mut rep_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Ledger::default();
    while another_rep(started, args.seconds, &rep_s, 1) {
        let rep0 = Instant::now();
        for traced in [false, true] {
            let Some(mut resources) = prepare(log) else {
                continue;
            };
            let mut ledger = if traced {
                Ledger::default()
            } else {
                Ledger::off()
            };
            clear_memos();
            let t0 = Instant::now();
            pass(&mut ledger, log, &mut resources);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if traced {
                traced_ms.push(ms);
                last = ledger;
            } else {
                untraced_ms.push(ms);
            }
        }
        rep_s.push(rep0.elapsed().as_secs_f64());
    }
    let wall_ms = traced_ms.last().copied().unwrap_or(0.0);
    last.print_breakdown(wall_ms);
    let accounted = last.total_ms();
    let l = &mut log.layers;
    l.insert("trace.wall_ms", wall_ms);
    l.insert("trace.layers_ms", accounted);
    l.insert("other_ms", wall_ms - accounted);
    l.insert(
        "trace.overhead_pct",
        100.0 * (median(&traced_ms) / median(&untraced_ms) - 1.0),
    );
    last
}

/// Median of `v` (the mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Decides whether another repetition fits in the measuring window:
/// always run `min_reps`, then only while the median repetition still
/// ends before the deadline.
pub fn another_rep(started: Instant, seconds: f64, rep_s: &[f64], min_reps: usize) -> bool {
    if rep_s.len() < min_reps {
        return true;
    }
    started.elapsed().as_secs_f64() + median(rep_s) <= seconds
}

/// Empties the process-global memo layers (collective costs and the
/// pre-flight verdicts) so the next pass starts cold.
pub fn clear_memos() {
    collectives::cost::clear_cost_cache();
    parallelism_core::search::clear_verdict_caches();
}

/// Hits and lookups over every process-global memo layer, as
/// `(cost hits, cost lookups, verdict hits, verdict lookups)`.
pub fn memo_counters() -> (u64, u64, u64, u64) {
    let cost = collectives::cost_cache_stats();
    let verdicts = parallelism_core::search::verdict_cache_stats();
    let vh: u64 = verdicts.iter().map(|s| s.hits).sum();
    let vl: u64 = verdicts.iter().map(|s| s.hits + s.misses).sum();
    (cost.hits, cost.hits + cost.misses, vh, vl)
}

/// Hit rate between two [`memo_counters`] snapshots, as
/// `(cost hit rate, verdict hit rate)`.
pub fn memo_hit_rates(before: (u64, u64, u64, u64), after: (u64, u64, u64, u64)) -> (f64, f64) {
    let rate = |h: u64, l: u64| if l == 0 { 0.0 } else { h as f64 / l as f64 };
    (
        rate(after.0 - before.0, after.1 - before.1),
        rate(after.2 - before.2, after.3 - before.3),
    )
}

/// The process's host-memory high-water mark (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working
/// directory when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the host record: everything a result depends on besides the code.
fn print_host(args: &Args, samples: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"cpu\":{},\"rustc\":{},\"profile\":\"{profile}\",\"commit\":{},\"latency_samples\":{samples}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&git_commit()),
    );
}

/// The child side of a setup probe: performs the workload's setup,
/// reports it ready on standard output, then tears it down.
fn setup_probe(args: &Args) -> ExitCode {
    let kept: std::io::Result<Box<dyn std::any::Any>> = match args.workload.as_str() {
        "train-plan" => Ok(Box::new(train::setup())),
        "serve-idle" => Ok(Box::new(infer::setup(infer::Regime::Idle, args.seed))),
        "serve-saturated" => Ok(Box::new(infer::setup(infer::Regime::Saturated, args.seed))),
        _ => daemon::setup(args.seed).map(|d| Box::new(d) as Box<dyn std::any::Any>),
    };
    match kept {
        Ok(kept) => {
            println!("ready");
            drop(kept);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: setup failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times [`SETUP_PROBES`] child processes from spawn until each reports
/// the workload's first operation ready: process start, building the
/// inputs and the dispatcher, and for the daemon binding the server and
/// connecting. Each child is waited for.
fn measure_setup(args: &Args, log: &mut RunLog) {
    use std::io::BufRead;
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return log.op(Some(format!("setup probe: no executable path: {e}"))),
    };
    for _ in 0..SETUP_PROBES {
        let t0 = Instant::now();
        let child = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--setup-probe",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => return log.op(Some(format!("setup probe: spawn failed: {e}"))),
        };
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = std::io::BufReader::new(out).read_line(&mut line);
        }
        let ready = t0.elapsed().as_secs_f64();
        let ok = child.wait().is_ok_and(|s| s.success());
        if ok && line.trim() == "ready" {
            log.setup_s.push(ready);
        } else {
            log.op(Some(format!("setup probe failed: {:?}", line.trim())));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return setup_probe(&args);
    }
    let mut log = RunLog::default();
    if !args.trace {
        measure_setup(&args, &mut log);
    }
    match args.workload.as_str() {
        "train-plan" => train::run(&args, &mut log),
        "serve-idle" => infer::run(&args, infer::Regime::Idle, &mut log),
        "serve-saturated" => infer::run(&args, infer::Regime::Saturated, &mut log),
        "daemon-mix" => daemon::run(&args, &mut log),
        _ => unreachable!("workload validated by parse_args"),
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        // Every per-layer metric is printed on every workload; a layer
        // the workload never calls reads 0.
        for &(name, unit) in LAYER_METRICS {
            metrics.push((name, log.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let wall: f64 = log.wall_s.iter().sum::<f64>() + log.warm_wall_s.iter().sum::<f64>();
        let ops = log.latencies_ms.len() as f64;
        metrics.push(("setup_s", median(&log.setup_s), "s"));
        metrics.push(("wall_s", median(&log.wall_s), "s"));
        metrics.push(("warm_wall_s", median(&log.warm_wall_s), "s"));
        metrics.push(("qps", if wall > 0.0 { ops / wall } else { 0.0 }, "1/s"));
        metrics.push(("latency_p50_ms", percentile(&log.latencies_ms, 0.50), "ms"));
        metrics.push(("latency_p99_ms", percentile(&log.latencies_ms, 0.99), "ms"));
        metrics.push(("peak_rss_mib", peak_rss_mib(), "MiB"));
    }

    let correct = log.problems.is_empty() && log.failed == 0 && log.attempted > 0;
    print_host(&args, log.latencies_ms.len());
    if !args.trace {
        let show = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "repetitions: {} cold, {} warm, {} setup probes, {} latency samples",
            log.wall_s.len(),
            log.warm_wall_s.len(),
            log.setup_s.len(),
            log.latencies_ms.len()
        );
        println!("wall_s samples: {}", show(&log.wall_s));
        println!("warm_wall_s samples: {}", show(&log.warm_wall_s));
    }
    for p in log.problems.iter().take(20) {
        println!("problem: {p}");
    }
    println!(
        "verification: {} ({} of {} operations failed, error_rate {})",
        if correct { "PASS" } else { "FAIL" },
        log.failed,
        log.attempted,
        log.failed as f64 / log.attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        log.attempted,
        log.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
