//! Expected outputs, pinned in `perfbench/pins/` and keyed by seed.
//!
//! Simulated statistics are deterministic, so the benchmark checks them
//! for exact equality: every response is reduced to a text description
//! that prints each checked value exactly (integers as integers, times
//! in nanoseconds, floats in shortest round-trip form), and that text is
//! compared line by line with the pin. Wall-clock fields are never part
//! of a description.
//!
//! Regenerate a pin only when a change is meant to alter simulated
//! results, never to make a failing run pass:
//! `BLESS=1 cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <w> --seed <s> --seconds 1 --trace 0`.

use parallelism_core::query::{BenchResponse, InferResponse, Response};
use parallelism_core::search::SearchReport;
use std::fmt::Write as _;

/// The documented default seed of every workload.
pub const DEFAULT_SEED: u64 = 1;

/// The held-out seed of every workload: pinned, but never used while
/// the benchmark was tuned.
pub const HELD_OUT_SEED: u64 = 424_242;

/// `(workload, seed, pin)`; `None` as the seed matches every seed, for a
/// workload whose inputs do not depend on it.
const PINS: &[(&str, Option<u64>, &str)] = &[
    ("train-plan", None, include_str!("../pins/train-plan.txt")),
    (
        "serve-idle",
        Some(DEFAULT_SEED),
        include_str!("../pins/serve-idle.seed1.txt"),
    ),
    (
        "serve-idle",
        Some(HELD_OUT_SEED),
        include_str!("../pins/serve-idle.seed424242.txt"),
    ),
    (
        "serve-saturated",
        Some(DEFAULT_SEED),
        include_str!("../pins/serve-saturated.seed1.txt"),
    ),
    (
        "serve-saturated",
        Some(HELD_OUT_SEED),
        include_str!("../pins/serve-saturated.seed424242.txt"),
    ),
    (
        "daemon-mix",
        Some(DEFAULT_SEED),
        include_str!("../pins/daemon-mix.seed1.txt"),
    ),
    (
        "daemon-mix",
        Some(HELD_OUT_SEED),
        include_str!("../pins/daemon-mix.seed424242.txt"),
    ),
];

/// The pin of `workload` at `seed`, if one exists.
pub fn pin(workload: &str, seed: u64) -> Option<&'static str> {
    PINS.iter()
        .find(|(w, s, _)| *w == workload && s.is_none_or(|s| s == seed))
        .map(|&(_, _, text)| text)
}

/// The pin file a seed's description is blessed into.
fn pin_path(workload: &str, seed: u64) -> String {
    if workload == "train-plan" {
        format!("perfbench/pins/{workload}.txt")
    } else {
        format!("perfbench/pins/{workload}.seed{seed}.txt")
    }
}

/// Checks a run's description against its pin. With `BLESS=1` in the
/// environment the description is written as the new pin instead.
/// Returns the first mismatch, or `None` when the description matches
/// or no pin exists for this seed.
pub fn check(workload: &str, seed: u64, actual: &str) -> Option<String> {
    if std::env::var_os("BLESS").is_some_and(|v| v == "1") {
        let path = pin_path(workload, seed);
        return std::fs::write(&path, actual)
            .err()
            .map(|e| format!("bless: cannot write {path}: {e}"));
    }
    pin(workload, seed).and_then(|expected| diff(expected, actual))
}

/// What a run's operations are checked against: the pin when the seed
/// has one, otherwise `reference`, the description of an independent
/// in-process computation. A reference that departs from its pin is
/// reported; the operations are then still held to the pin, so each
/// of them fails too.
pub fn expected(workload: &str, seed: u64, reference: String, log: &mut crate::RunLog) -> String {
    if let Some(problem) = check(workload, seed, &reference) {
        log.problems.push(format!("reference vs pin: {problem}"));
    }
    match pin(workload, seed) {
        Some(p) if std::env::var_os("BLESS").is_none() => p.to_string(),
        _ => reference,
    }
}

/// The first line where `actual` departs from `expected`.
pub fn diff(expected: &str, actual: &str) -> Option<String> {
    let mut e = expected.lines();
    let mut a = actual.lines();
    for line in 1.. {
        match (e.next(), a.next()) {
            (None, None) => return None,
            (x, y) if x == y => continue,
            (x, y) => {
                return Some(format!(
                    "pin mismatch at line {line}: expected {:?}, got {:?}",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                ))
            }
        }
    }
    None
}

/// Exact description of a response's deterministic content.
pub fn describe(response: &Response) -> String {
    match response {
        Response::Search(r) => describe_search(&r.report),
        Response::Infer(r) => describe_infer(r),
        Response::Bench(r) => describe_bench(r),
        other => other.render_wire(),
    }
}

/// The deterministic fields of a `bench` response (its timings are
/// wall-clock and are not pinned).
fn describe_bench(r: &BenchResponse) -> String {
    format!(
        "bench plan_mesh {} identical {} fluid_outcomes {}\n",
        r.plan_mesh, r.identical, r.fluid_outcomes
    )
}

/// Funnel counts, guided statistics and every frontier point.
pub fn describe_search(r: &SearchReport) -> String {
    let c = &r.counts;
    let mut out = format!(
        "funnel meshes {} admitted {} candidates {} rejected_preflight {} scored {} refined {}\n",
        c.meshes_enumerated,
        c.meshes_admitted,
        c.candidates,
        c.rejected_preflight,
        c.scored,
        c.refined
    );
    if let Some(g) = &r.guided {
        let _ = writeln!(
            out,
            "guided starts {} descent_steps {} meshes {} verified {} exhaustive {} saved_pct {:?}",
            g.starts,
            g.descent_steps,
            g.meshes_selected,
            g.candidates_verified,
            g.exhaustive_candidates,
            g.evals_saved_pct
        );
    }
    let _ = writeln!(out, "frontier {}", r.frontier.len());
    for p in &r.frontier {
        let _ = writeln!(
            out,
            "  {} step_ns {} mem {} tflops {:?} bubble {:?} goodput {:?}",
            p.config,
            p.step_time.as_nanos(),
            p.peak_memory,
            p.tflops_per_gpu,
            p.bubble_ratio,
            p.goodput
        );
    }
    for (label, p) in [
        ("fastest", &r.best_step_time),
        ("leanest", &r.best_memory),
        ("best_goodput", &r.best_goodput),
    ] {
        let _ = writeln!(
            out,
            "{label} {}",
            p.as_ref().map_or("-".into(), |p| p.config.to_string())
        );
    }
    out
}

/// Every field of an inference report, exactly.
pub fn describe_infer(r: &InferResponse) -> String {
    let m = &r.report;
    let ns = |d: &[sim_engine::time::SimDuration; 3]| {
        format!(
            "{} {} {}",
            d[0].as_nanos(),
            d[1].as_nanos(),
            d[2].as_nanos()
        )
    };
    format!(
        "model {} plan tp{} pp{} replicas {} traffic {} offered {}\n\
         requests {} completed {} dropped {}\n\
         prompt_tokens {} generated_tokens {}\n\
         tokens_per_s {:?} goodput_tokens_per_s {:?} slo_attainment {:?}\n\
         ttft_ns {}\n\
         tpot_ns {}\n\
         peak_hbm_bytes {} block_capacity {} peak_blocks {} leaked_blocks {}\n\
         decode_iters {} makespan_ns {}\n",
        r.model,
        r.plan.tp,
        r.plan.pp,
        r.plan.replicas,
        r.traffic.tag(),
        r.offered,
        m.requests,
        m.completed,
        m.dropped,
        m.prompt_tokens,
        m.generated_tokens,
        m.tokens_per_s,
        m.goodput_tokens_per_s,
        m.slo_attainment,
        ns(&m.ttft),
        ns(&m.tpot),
        m.peak_hbm_bytes,
        m.block_capacity,
        m.peak_blocks,
        m.leaked_blocks,
        m.decode_iters,
        m.makespan.as_nanos()
    )
}

/// 64-bit FNV-1a digest, for pinning served bytes compactly.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_query, reference_response, Regime};

    #[test]
    fn every_workload_has_default_and_held_out_pins() {
        for w in crate::WORKLOADS {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let p = pin(w, seed).unwrap_or_else(|| panic!("no pin for {w} seed {seed}"));
                assert!(p.lines().count() > 1, "{w} seed {seed}: pin is empty");
            }
        }
    }

    #[test]
    fn diff_reports_the_first_departing_line() {
        assert_eq!(diff("a\nb\n", "a\nb\n"), None);
        let d = diff("a\nb\nc\n", "a\nx\nc\n").expect("mismatch");
        assert!(
            d.contains("line 2") && d.contains("\"b\"") && d.contains("\"x\""),
            "{d}"
        );
        assert!(
            diff("a\n", "a\nb\n").is_some(),
            "an extra line is a mismatch"
        );
        assert!(
            diff("a\nb\n", "a\n").is_some(),
            "a missing line is a mismatch"
        );
    }

    /// The saturated day at the default seed matches its pin, and the
    /// same pin with one digit changed is caught.
    #[test]
    fn perturbed_pin_is_caught() {
        let q = infer_query(Regime::Saturated, DEFAULT_SEED);
        let actual = describe_infer(&reference_response(&q, &mut crate::Ledger::default()).0);
        let pinned = pin("serve-saturated", DEFAULT_SEED).expect("pinned");
        assert_eq!(diff(pinned, &actual), None, "the real pin must match");

        let line = pinned
            .lines()
            .position(|l| l.starts_with("decode_iters"))
            .expect("pin has decode_iters");
        let perturbed: String = pinned
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == line {
                    l.replacen("decode_iters ", "decode_iters 1", 1)
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let found = diff(&perturbed, &actual).expect("a perturbed pin must be caught");
        assert!(found.contains("decode_iters"), "{found}");
    }
}
