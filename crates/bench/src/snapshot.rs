//! The measurements behind the `bench` and `goodput` subcommands of
//! `llama3sim`: the computations the serve dispatcher runs for
//! `Query::Bench` and `Query::Goodput`.

use crate::configs::production_8k_gpu_step;
use crate::experiments::goodput as goodput_exp;
use parallelism_core::planner::{plan, PlannerInput};
use parallelism_core::query::{BenchResponse, GoodputResponse};
use parallelism_core::step::{SimFidelity, SimOptions};
use sim_engine::fluid::{FluidNet, Transfer};
use sim_engine::time::SimTime;
use std::time::Instant;

/// Median wall-clock milliseconds of `iters` runs of `f`.
fn time_ms<T>(iters: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(iters as usize);
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], last.unwrap())
}

/// Measures the `bench` numbers: wall-clock timings of the simulator's
/// hot paths. This is the computation behind `Query::Bench`; the
/// payload is inherently wall-clock, so the serve dispatcher computes
/// it fresh on every dispatch.
pub fn measure_perf() -> BenchResponse {
    // 1. Planning throughput: the full §5.1 sweep at production scale.
    let (plan_ms, p) = time_ms(5, || {
        plan(&PlannerInput::llama3_405b(16_384, 8_192)).expect("405B@16K must be plannable")
    });

    // 2. Folded vs full step simulation on the 8 K-GPU 405B step.
    let step = production_8k_gpu_step(16);
    let folded_opts = SimOptions::new().fidelity(SimFidelity::Folded);
    let full_opts = SimOptions::new().fidelity(SimFidelity::Full);
    let (folded_ms, folded) = time_ms(5, || step.run(&folded_opts).expect("valid step").report);
    let (full_ms, full) = time_ms(3, || step.run(&full_opts).expect("valid step").report);

    // 3. Fluid solver on 1 024 transfers, one per link (the disjoint
    //    single-link fast path).
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
    let (fluid_ms, outcomes) = time_ms(9, || net.run(transfers.clone()).expect("valid transfers"));

    BenchResponse {
        plan_ms,
        plan_mesh: p.mesh.to_string(),
        folded_ms,
        full_ms,
        identical: folded == full,
        fluid_ms,
        fluid_outcomes: outcomes.len(),
    }
}

/// Runs the seeded 24-hour 16 K-GPU 405B goodput simulation under
/// production fault rates and flattens the report into the query
/// response. This is the computation behind `Query::Goodput`.
///
/// # Panics
/// Panics if the simulated day exceeds the 60 s interactivity budget —
/// the subcommand's acceptance bar.
pub fn measure_goodput() -> GoodputResponse {
    let t0 = Instant::now();
    let run = goodput_exp::production_run(900.0).expect("production run must build");
    let report = run.simulate().expect("production run must simulate");
    let sim_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The acceptance bar: a full simulated day at 16 K GPUs must be
    // interactive, not an overnight job.
    assert!(
        sim_ms < 60_000.0,
        "24 h goodput sim took {sim_ms:.0} ms (budget 60 s)"
    );

    GoodputResponse {
        sim_wall_ms: sim_ms,
        seed: goodput_exp::SEED,
        wall_time_s: report.wall_time_s,
        goodput: report.goodput,
        steps_completed: report.steps_completed,
        restarts: report.restarts,
        healthy_step_s: report.healthy_step_s,
        loss_checkpoint_s: report.loss.checkpoint_s,
        loss_detect_s: report.loss.detect_s,
        loss_restart_s: report.loss.restart_s,
        loss_rework_s: report.loss.rework_s,
        loss_degraded_s: report.loss.degraded_s,
        checkpoint_bytes_per_rank: report.checkpoint_bytes_per_rank,
        checkpoint_write_s: report.checkpoint_write_s,
        checkpoint_interval_s: report.checkpoint_interval_s,
        young_daly_interval_s: report.young_daly_interval_s,
        mtbf_s: report.mtbf_s,
    }
}
