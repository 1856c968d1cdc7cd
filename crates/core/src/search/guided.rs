//! Gradient-guided candidate generation for [`super::search`].
//!
//! The exhaustive strategy prices every admissible configuration
//! through the folded simulator. This module replaces the *generation*
//! of candidates — never their verification — with a descent over a
//! continuous relaxation of the configuration space:
//!
//! 1. **Surrogate extraction** — the analytic cost model of
//!    [`crate::costs`] is parameterized by constants sampled from the
//!    exact model (`llm_model::flops` kernel costs are affine in the
//!    token count, so two samples recover the per-token coefficients).
//! 2. **Projected gradient descent** — the five degrees of freedom
//!    `(tp, cp, pp, dp, nmb)` are relaxed to log2-space reals. The
//!    mesh-product constraint `tp·cp·pp·dp = ngpu` and the batch
//!    constraint `dp·nmb = gbs` are affine in log-space; descent
//!    iterates alternate a gradient step (forward-mode duals,
//!    [`numerics::Dual`]) with a closed-form least-squares projection
//!    onto the constraint subspace intersected with the box bounds.
//!    Multi-start (seeded, deterministic) × a λ sweep of the
//!    `ln time + λ·ln memory` scalarization × three variant profiles
//!    trace different regions of the Pareto frontier.
//! 3. **Lattice rounding** — every visited relaxed point is snapped to
//!    the neighbouring feasible integer meshes (floor/ceil corners of
//!    the log2 exponents). The snapped meshes select a subset of the
//!    *exhaustively enumerated* admission list, so candidate order,
//!    divisibility rules and schedule-variant expansion are exactly the
//!    funnel's own; the subset then flows through the unchanged
//!    pre-flight + folded-scoring stages.
//!
//! Selection is two-phase: the surrogate's Pareto layers nominate a
//! few dozen *anchor* meshes, one representative candidate per anchor
//! runs the exact folded simulation (charged to the evaluation
//! budget), and the verification order is re-derived from those
//! measured `(time, memory)` anchors — the surrogate is a few percent
//! off, which is enough to rank regions but not to pick a dozen
//! winners near the frontier, where 1% of step time separates Pareto
//! layers.
//!
//! Determinism: the descent is pure float arithmetic from a seeded LCG
//! start set, mesh sets live in `BTreeSet`s, and anchor scoring
//! re-joins in chunk order — the guided report is bit-identical across
//! runs and thread counts, like the exhaustive one.

use super::{score_survivor, ConfigPoint, Outcome, SearchPoint, SearchSpec};
use crate::costs::{
    guided_objective, surrogate_step, RelaxedMesh, SurrogateConsts, VariantKnobs,
};
use crate::planner::plan;
use cluster_model::gpu::Dtype;
use cluster_model::topology::TopologySpec;
use collectives::CommCostModel;
use llm_model::masks::MaskSpec;
use llm_model::memory as mem;
use llm_model::{ModelLayout, PrecisionPolicy};
use numerics::{Dual, Scalar};
use std::collections::{BTreeMap, BTreeSet};

/// Spaces at or below this many candidates skip the descent and verify
/// everything — the exhaustive funnel finishes in seconds there, the
/// verification floor of [`MIN_BUDGET`] plus anchor probes approaches
/// the space size anyway, and the guided machinery could only lose
/// frontier points. The `oracle_guided_frontier` conformance oracle
/// pins guided ≡ exhaustive on grids up to 256 candidates, safely
/// inside this bound.
const SMALL_SPACE: usize = 512;

/// Verification budget floor: even at aggressive savings the guided
/// strategy may verify this many candidates.
const MIN_BUDGET: usize = 48;

/// Relative price tolerance of the anchor-calibrated surrogate. A
/// variant is pruned only when some other variant beats it by this
/// margin *on both axes simultaneously* — `w·(1+ε) < v·(1−ε)` — so a
/// true frontier point survives unless the calibration is off by more
/// than ~2ε, well beyond the observed within-mesh ratio error.
const EPS_VARIANT: f64 = 0.05;

/// Mesh-level tolerance of the raw (uncalibrated) surrogate, used only
/// to skip *anchoring* meshes whose plainest shape is dominated beyond
/// this margin on both axes. The production mesh frontier trades time
/// for memory monotonically with >10% spacing, so the margin has slack
/// even against the surrogate's few-percent absolute error.
const EPS_MESH: f64 = 0.05;

/// Gradient steps per descent trajectory.
const STEPS: usize = 60;

/// Seeded random starts (the §5.1 planner's answer and the box centre
/// are added on top).
const RANDOM_STARTS: usize = 6;

/// λ values of the `ln time + λ·ln mem` scalarization, sweeping the
/// frontier from the time end to the memory end.
const LAMBDAS: [f64; 3] = [0.0, 0.2, 0.6];

/// Descent variant profiles `(recompute, grad_sharded, param_sharded)`:
/// the lean baseline, the recompute end, and the ZeRO-3 end. The knobs
/// shift where the memory barrier bites, steering trajectories toward
/// different mesh regions.
const PROFILES: [(f64, f64, f64); 3] = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0)];

/// How the guided strategy spent and saved its budget; attached to the
/// report and printed in its `guided:` summary line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidedStats {
    /// Descent trajectories launched (starts × λ × profiles).
    pub starts: usize,
    /// Total projected-gradient steps across all trajectories.
    pub descent_steps: usize,
    /// Distinct feasible meshes selected by lattice rounding.
    pub meshes_selected: usize,
    /// Folded evaluations spent: exact anchor probes (whose results
    /// the funnel reuses rather than recomputes) plus the fresh
    /// candidates handed to the verification funnel.
    pub candidates_verified: usize,
    /// Candidates the exhaustive strategy would have verified.
    pub exhaustive_candidates: usize,
    /// `100 · (1 − verified / exhaustive)`.
    pub evals_saved_pct: f64,
}

/// A guided candidate selection: the funnel input plus the stats and
/// the anchor scores the funnel can reuse. `score_survivor` is a pure
/// function of `(spec, config)`, so replaying a stored anchor score is
/// exact — the funnel skips the duplicate folded run, not the
/// pre-flight gates.
pub(super) struct Selection {
    pub candidates: Vec<ConfigPoint>,
    pub stats: GuidedStats,
    pub prescored: Vec<(ConfigPoint, SearchPoint)>,
}

/// Extracts the surrogate constants from the spec by sampling the
/// exact model. Kernel costs are affine in the token count; two
/// samples recover slope and intercept exactly.
fn surrogate_consts(spec: &SearchSpec) -> SurrogateConsts<f64> {
    let input = &spec.input;
    let cfg = &input.model;
    let gpu = &input.gpu;
    let topo = TopologySpec::llama3_production(input.ngpu.div_ceil(input.gpus_per_node));
    let comm = CommCostModel::new(topo.clone());
    let eff = comm.bandwidth_efficiency;
    let layout = ModelLayout::text(cfg.clone());

    let (t1, t2) = (1024u64, 3072u64);
    let dt = (t2 - t1) as f64;
    let dense = |t: u64| {
        llm_model::flops::attention_projections_fwd(cfg, t)
            .merge(llm_model::flops::ffn_fwd(cfg, t))
            .merge(llm_model::flops::norms_fwd(cfg, t))
    };
    let (d1, d2) = (dense(t1), dense(t2));
    let dense_flops_per_token = (d2.flops - d1.flops) / dt;
    let dense_bytes_per_token = (d2.bytes - d1.bytes) / dt;
    let dense_bytes_fixed = (d1.bytes - dense_bytes_per_token * t1 as f64).max(0.0);

    let seq = input.seq;
    let pairs_total = MaskSpec::Causal.attended_pairs(seq);
    let p1 = (pairs_total / 2).max(1);
    let attn = |t: u64, p: u128| llm_model::flops::attention_kernel_fwd(cfg, t, seq, p);
    let (a_half, a_full, a_t2) = (attn(t1, p1), attn(t1, pairs_total), attn(t2, pairs_total));
    let attn_flops_per_pair =
        (a_full.flops - a_half.flops) / (pairs_total - p1).max(1) as f64;
    let attn_bytes_per_q_token = (a_t2.bytes - a_full.bytes) / dt;
    let attn_bytes_fixed = (a_full.bytes - attn_bytes_per_q_token * t1 as f64).max(0.0);

    let head = |t: u64| llm_model::flops::output_head_fwd(cfg, t);
    let (h1, h2) = (head(t1), head(t2));
    let head_flops_per_token = (h2.flops - h1.flops) / dt;
    let head_bytes_per_token = (h2.bytes - h1.bytes) / dt;
    let head_bytes_fixed = (h1.bytes - head_bytes_per_token * t1 as f64).max(0.0);

    let tp2 = crate::tp::TpPlan::new(2, true);
    let tp_coll_bytes_per_token =
        2.0 * tp2.collective_bytes_per_rank(cfg, 4096) as f64 / 4096.0;

    let act_bytes_per_token = layout
        .layers
        .iter()
        .map(|l| l.activation_bytes_per_token(cfg))
        .sum::<u64>() as f64
        / cfg.num_layers as f64;

    let policy = PrecisionPolicy::llama3();
    SurrogateConsts {
        ngpu: input.ngpu as f64,
        gpus_per_node: input.gpus_per_node as f64,
        seq: seq as f64,
        layers: cfg.num_layers as f64,
        params_total: layout.total_params() as f64,
        gemm_eff_flops: gpu.peak_bf16_flops * gpu.max_gemm_efficiency,
        attn_eff_flops: gpu.peak_bf16_flops * gpu.max_attention_efficiency,
        hbm_bw: gpu.hbm_bandwidth,
        kernel_launch_s: gpu.kernel_launch_overhead.as_secs_f64(),
        nv_bw: topo.nvlink_bandwidth * eff,
        nic_bw: topo.nic_bandwidth * eff,
        nv_lat_s: topo.nvlink_latency.as_secs_f64(),
        net_lat_s: topo.net_latency.as_secs_f64(),
        coll_launch_s: comm.launch_overhead.as_secs_f64(),
        dense_flops_per_token,
        dense_bytes_per_token,
        dense_bytes_fixed,
        dense_launches: d1.launches as f64,
        attn_flops_per_pair,
        attn_bytes_per_q_token,
        attn_bytes_per_kv_token: attn_bytes_fixed / seq as f64,
        attn_launches: a_full.launches as f64,
        pairs_total: pairs_total as f64,
        head_flops_per_token,
        head_bytes_per_token,
        head_bytes_fixed,
        head_launches: h1.launches as f64,
        tp_coll_bytes_per_token,
        tp_colls_per_layer: crate::tp::COLLECTIVES_PER_LAYER as f64,
        kv_ag_bytes_per_token: (cfg.kv_dim() * 2 * Dtype::Bf16.bytes()) as f64,
        boundary_bytes_per_token: mem::boundary_activation_bytes_per_token(cfg) as f64,
        act_bytes_per_token,
        act_release: crate::planner::ACT_RELEASE_FACTOR,
        param_bytes: policy.param_bytes as f64,
        grad_bytes: policy.grad_bytes as f64,
        optim_bytes: policy.optim_bytes as f64,
    }
}

/// The log2-space box and constraint targets of the relaxation.
struct Box5 {
    lo: [f64; 5],
    hi: [f64; 5],
    /// `log2(ngpu)` — target of `ltp + lcp + lpp + ldp`.
    s_mesh: f64,
    /// `log2(gbs)` — target of `ldp + lnmb`.
    s_batch: f64,
}

impl Box5 {
    fn new(spec: &SearchSpec, gbs: u64) -> Box5 {
        let l2 = |x: u32| (x.max(1) as f64).log2();
        let s_mesh = (spec.input.ngpu as f64).log2();
        let s_batch = (gbs as f64).log2();
        Box5 {
            lo: [0.0; 5],
            hi: [
                l2(spec.tp_bound()),
                l2(spec.max_cp.min(spec.input.ngpu)),
                l2(spec.pp_bound()),
                s_mesh.min(s_batch),
                s_batch,
            ],
            s_mesh,
            s_batch,
        }
    }

    /// Alternating projection onto the affine constraint subspace and
    /// the box. The subspace has `A = [[1,1,1,1,0],[0,0,0,1,1]]`,
    /// `AAᵀ = [[4,1],[1,2]]`, `(AAᵀ)⁻¹ = 1/7·[[2,−1],[−1,4]]`, giving a
    /// closed-form least-squares step; a few alternations land inside
    /// both sets to working accuracy.
    fn project(&self, u: &mut [f64; 5]) {
        for _ in 0..12 {
            let r1 = u[0] + u[1] + u[2] + u[3] - self.s_mesh;
            let r2 = u[3] + u[4] - self.s_batch;
            let y1 = (2.0 * r1 - r2) / 7.0;
            let y2 = (4.0 * r2 - r1) / 7.0;
            u[0] -= y1;
            u[1] -= y1;
            u[2] -= y1;
            u[3] -= y1 + y2;
            u[4] -= y2;
            for (i, slot) in u.iter_mut().enumerate() {
                *slot = slot.clamp(self.lo[i], self.hi[i]);
            }
        }
    }
}

/// Objective value and gradient at a log2-space point: the five
/// coordinates become dual variables, `exp2` maps them to the relaxed
/// mesh, and the shared cost expressions do the rest — one evaluation
/// yields all five partials.
fn eval_grad(
    cd: &SurrogateConsts<Dual<5>>,
    u: [f64; 5],
    profile: (f64, f64, f64),
    lambda: f64,
    hbm_capacity: f64,
) -> (f64, [f64; 5]) {
    let x = RelaxedMesh {
        tp: Dual::<5>::var(u[0], 0).exp2(),
        cp: Dual::<5>::var(u[1], 1).exp2(),
        pp: Dual::<5>::var(u[2], 2).exp2(),
        dp: Dual::<5>::var(u[3], 3).exp2(),
        nmb: Dual::<5>::var(u[4], 4).exp2(),
    };
    let knobs = VariantKnobs {
        recompute: Dual::constant(profile.0),
        grad_sharded: Dual::constant(profile.1),
        param_sharded: Dual::constant(profile.2),
        afab: false,
        nc_mult: Dual::constant(1.0),
    };
    let price = surrogate_step(cd, &x, &knobs);
    let obj = guided_objective(&price, Dual::constant(lambda), Dual::constant(hbm_capacity));
    (obj.v, obj.grad())
}

/// Surrogate price of a concrete mesh at the float type (the same
/// expressions the descent differentiates): the component-wise best
/// `(time, memory)` over the variant profiles — time at its fastest
/// profile, memory at its leanest. Used to Pareto-rank snapped meshes
/// for budget selection; mixing components across profiles is fine
/// there because the exact funnel re-verifies every variant anyway.
fn mesh_price(
    c: &SurrogateConsts<f64>,
    spec: &SearchSpec,
    gbs: u64,
    mesh: (u32, u32, u32),
) -> (f64, f64) {
    let (tp, cp, pp) = mesh;
    let dp = spec.input.ngpu as u64 / (tp as u64 * cp as u64 * pp as u64);
    let x = RelaxedMesh {
        tp: tp as f64,
        cp: cp as f64,
        pp: pp as f64,
        dp: dp as f64,
        nmb: gbs as f64 / dp as f64,
    };
    PROFILES
        .iter()
        .map(|&(recompute, grad_sharded, param_sharded)| {
            let knobs = VariantKnobs {
                recompute,
                grad_sharded,
                param_sharded,
                afab: false,
                nc_mult: 1.0,
            };
            let price = surrogate_step(c, &x, &knobs);
            (price.time_s, price.mem_bytes)
        })
        .fold((f64::INFINITY, f64::INFINITY), |acc, p| {
            (acc.0.min(p.0), acc.1.min(p.1))
        })
}

/// A surrogate `(time s, memory bytes)` price tagged with its mesh.
type MeshPrice = ((f64, f64), (u32, u32, u32));

/// Peels Pareto layers of the `(time, memory)` plane: layer 0 is the
/// indices of the non-dominated set, layer 1 the non-dominated set of
/// the rest, and so on. Walking layers covers the whole frontier
/// *arc* before anything strictly behind it — a scalarized rank (any
/// λ mix) would over-sample whichever end the pricing likes best and
/// starve the interior trade-off points. Within a layer, indices are
/// ordered outside-in — fastest, leanest, second-fastest, … — so a
/// budget cutting mid-layer still keeps both ends of the arc.
fn pareto_layers(prices: &[(f64, f64)]) -> Vec<Vec<usize>> {
    let dominates =
        |a: (f64, f64), b: (f64, f64)| a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1);
    let mut remaining: Vec<usize> = (0..prices.len()).collect();
    let mut layers: Vec<Vec<usize>> = Vec::new();
    while !remaining.is_empty() {
        let mut nd: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                !remaining
                    .iter()
                    .any(|&j| j != i && dominates(prices[j], prices[i]))
            })
            .collect();
        nd.sort_by(|&a, &b| prices[a].0.total_cmp(&prices[b].0).then(a.cmp(&b)));
        let mut interleaved = Vec::with_capacity(nd.len());
        let (mut lo, mut hi) = (0usize, nd.len());
        while lo < hi {
            interleaved.push(nd[lo]);
            lo += 1;
            if lo < hi {
                hi -= 1;
                interleaved.push(nd[hi]);
            }
        }
        remaining.retain(|i| !nd.contains(i));
        layers.push(interleaved);
    }
    layers
}

/// Flattened [`pareto_layers`] order of a mesh list.
fn pareto_order(prices: &[MeshPrice]) -> Vec<(u32, u32, u32)> {
    let plain: Vec<(f64, f64)> = prices.iter().map(|&(p, _)| p).collect();
    pareto_layers(&plain)
        .into_iter()
        .flatten()
        .map(|i| prices[i].1)
        .collect()
}

/// Surrogate price of one *discrete* candidate: the exact variant
/// knobs — recompute, ZeRO sharding, schedule family, chunk
/// multiplier — at the candidate's own mesh and micro-batch count.
/// Within one mesh the shared constants cancel, so the ordering of a
/// mesh's variants is far more reliable than cross-mesh comparisons.
fn variant_price(
    c: &SurrogateConsts<f64>,
    cfg: &ConfigPoint,
) -> (f64, f64) {
    use crate::fsdp::ZeroMode;
    use crate::pp::schedule::ScheduleKind;
    let x = RelaxedMesh {
        tp: cfg.tp as f64,
        cp: cfg.cp as f64,
        pp: cfg.pp as f64,
        dp: cfg.dp as f64,
        nmb: cfg.nmb as f64,
    };
    let knobs = VariantKnobs {
        recompute: f64::from(u8::from(cfg.recompute)),
        grad_sharded: f64::from(u8::from(!matches!(cfg.zero, ZeroMode::Zero1))),
        param_sharded: f64::from(u8::from(matches!(cfg.zero, ZeroMode::Zero3))),
        afab: matches!(cfg.schedule, ScheduleKind::AllFwdAllBwd),
        nc_mult: match cfg.schedule {
            ScheduleKind::Flexible { nc } => nc as f64 / cfg.pp as f64,
            _ => 1.0,
        },
    };
    let p = surrogate_step(c, &x, &knobs);
    (p.time_s, p.mem_bytes)
}

/// The anchor representative of a mesh: the deterministic "plainest"
/// admitted variant — no recompute, ZeRO-2, flexible schedule with
/// `nc` nearest `2·pp` (§3.1's production shape). One folded run of
/// this candidate prices the mesh where its frontier variants live:
/// the measured 405B frontier is almost entirely exactly this shape.
/// With `lean`, the *memory-leanest* variant instead — recompute,
/// ZeRO-3, smallest `nc` — the fallback when the plain shape does not
/// fit in HBM but a leaner variant of the mesh still might.
fn anchor_variant(
    admitted: &[ConfigPoint],
    mesh: (u32, u32, u32),
    lean: bool,
) -> Option<ConfigPoint> {
    use crate::fsdp::ZeroMode;
    use crate::pp::schedule::ScheduleKind;
    admitted
        .iter()
        .filter(|c| (c.tp, c.cp, c.pp) == mesh)
        .min_by_key(|c| {
            let zero = match (c.zero, lean) {
                (ZeroMode::Zero2, false) | (ZeroMode::Zero3, true) => 0u8,
                (ZeroMode::Zero1, false) | (ZeroMode::Zero2, true) => 1,
                _ => 2,
            };
            let (sched, nc_key) = match c.schedule {
                ScheduleKind::Flexible { nc } => {
                    (0u8, if lean { nc } else { nc.abs_diff(2 * c.pp) })
                }
                ScheduleKind::Interleaved1F1B => (1, 0),
                ScheduleKind::AllFwdAllBwd => (2, 0),
            };
            (c.recompute != lean, zero, sched, nc_key)
        })
        .copied()
}

/// The static peak-memory verdict of one candidate — the same sound
/// bound funnel pass 1 evaluates, µs-cheap. Anchor nomination gates on
/// it: a mesh whose representative cannot fit in HBM must not be
/// *measured* (the folded run prices OOM configs as fast, since
/// nothing in the timing graph charges for the overflow) — it falls
/// back to the surrogate-ordered tail of the fill order instead.
fn fits_memory(spec: &SearchSpec, c: &ConfigPoint) -> bool {
    spec.build_step(c).is_some_and(|step| {
        step.schedule()
            .map(|sched| super::clean(&crate::analyze::memory::check_step(&step, &sched)))
            .unwrap_or(false)
    })
}

/// Exact anchor scores — one folded run per representative, in
/// parallel over `spec.threads` scoped threads. Results re-join in
/// chunk order, so the outcome is identical for any thread count;
/// `None` marks a representative the simulator rejected. The full
/// [`SearchPoint`] is kept so the funnel can reuse the score instead
/// of running the same candidate a second time.
fn anchor_prices(
    spec: &SearchSpec,
    reps: &[((u32, u32, u32), ConfigPoint)],
) -> Vec<Option<SearchPoint>> {
    let threads = if spec.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        spec.threads
    }
    .clamp(1, reps.len().max(1));
    let chunk_len = reps.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = reps
            .chunks(chunk_len)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(_, cfg)| match score_survivor(spec, cfg) {
                            Outcome::Scored(p) => Some(p),
                            Outcome::Rejected => None,
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(unwrap) — propagating a worker panic is the intended behaviour
            .flat_map(|h| h.join().expect("guided anchor thread panicked"))
            .collect()
    })
}

/// A minimal SplitMix64 step — deterministic start-point generator.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Snaps a relaxed point to its neighbouring integer meshes: the eight
/// floor/ceil corners of the `(ltp, lcp, lpp)` exponents (`dp` and
/// `nmb` are derived from the mesh by the admission arithmetic).
fn snap(u: [f64; 5], b: &Box5, out: &mut BTreeSet<(u32, u32, u32)>) {
    // Floor/ceil corners widened by one exponent on each side: the
    // continuous optimum often sits between two frontier meshes, and
    // the memory tail of the frontier lives one halving/doubling away
    // from the time-optimal trajectory. The ±1 shell costs nothing —
    // selection is still budget-bound — but covers those neighbours.
    let exps = |i: usize| {
        let lo = (u[i].floor() - 1.0).clamp(b.lo[i], b.hi[i].floor()) as u32;
        let hi = (u[i].ceil() + 1.0).clamp(b.lo[i], b.hi[i].floor()) as u32;
        lo..=hi
    };
    for et in exps(0) {
        for ec in exps(1) {
            for ep in exps(2) {
                if et < 31 && ec < 31 && ep < 31 {
                    out.insert((1 << et, 1 << ec, 1 << ep));
                }
            }
        }
    }
}

/// Runs the descent + rounding + anchor pipeline and selects the
/// candidate subset from the exhaustive admission list. Pure and
/// thread-count-independent: the outcome depends only on the spec and
/// the admitted list.
pub(super) fn select_candidates(spec: &SearchSpec, admitted: Vec<ConfigPoint>) -> Selection {
    let exhaustive_candidates = admitted.len();
    if exhaustive_candidates <= SMALL_SPACE {
        let n = admitted.len();
        let mut meshes: Vec<(u32, u32, u32)> =
            admitted.iter().map(|c| (c.tp, c.cp, c.pp)).collect();
        meshes.dedup();
        return Selection {
            candidates: admitted,
            stats: GuidedStats {
                starts: 0,
                descent_steps: 0,
                meshes_selected: meshes.len(),
                candidates_verified: n,
                exhaustive_candidates,
                evals_saved_pct: 0.0,
            },
            prescored: Vec::new(),
        };
    }

    let input = &spec.input;
    let gbs = input.token_budget / input.seq;
    let c64 = surrogate_consts(spec);
    let cd: SurrogateConsts<Dual<5>> = c64.lift();
    let hbm_capacity = input.gpu.hbm_capacity as f64;
    let b = Box5::new(spec, gbs);

    // Start set: seeded random points, the box centre, and the §5.1
    // planner's answer (when it has one).
    let mut starts: Vec<[f64; 5]> = Vec::new();
    let mut rng = spec.seed ^ 0xA076_1D64_78BD_642F;
    for _ in 0..RANDOM_STARTS {
        let mut u = [0.0; 5];
        for slot in &mut u {
            *slot = splitmix(&mut rng);
        }
        for (i, slot) in u.iter_mut().enumerate() {
            *slot = b.lo[i] + *slot * (b.hi[i] - b.lo[i]);
        }
        starts.push(u);
    }
    starts.push([
        (b.lo[0] + b.hi[0]) / 2.0,
        (b.lo[1] + b.hi[1]) / 2.0,
        (b.lo[2] + b.hi[2]) / 2.0,
        (b.lo[3] + b.hi[3]) / 2.0,
        (b.lo[4] + b.hi[4]) / 2.0,
    ]);
    let planner_mesh = plan(input).ok().map(|p| {
        let (tp, cp, pp) = (p.mesh.tp(), p.mesh.cp(), p.mesh.pp());
        starts.push([
            (tp as f64).log2(),
            (cp as f64).log2(),
            (pp as f64).log2(),
            (p.mesh.dp() as f64).log2(),
            (gbs as f64 / p.mesh.dp() as f64).max(1.0).log2(),
        ]);
        (tp, cp, pp)
    });

    // Descent: every (start, λ, profile) trajectory, recording visited
    // points for rounding.
    let mut snapped: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    let mut descent_steps = 0usize;
    let mut trajectories = 0usize;
    for start in &starts {
        for &lambda in &LAMBDAS {
            for &profile in &PROFILES {
                trajectories += 1;
                let mut u = *start;
                b.project(&mut u);
                snap(u, &b, &mut snapped);
                let mut lr = 0.25;
                for step in 0..STEPS {
                    let (_, g) = eval_grad(&cd, u, profile, lambda, hbm_capacity);
                    if g.iter().any(|x| !x.is_finite()) {
                        break;
                    }
                    // Clip the step so one iterate never tunnels across
                    // the whole box.
                    let norm = g.iter().map(|x| x * x).sum::<f64>().sqrt();
                    let scale = if norm > 4.0 { 4.0 / norm } else { 1.0 };
                    for i in 0..5 {
                        u[i] -= lr * scale * g[i];
                    }
                    lr *= 0.97;
                    b.project(&mut u);
                    descent_steps += 1;
                    if step % 10 == 9 {
                        snap(u, &b, &mut snapped);
                    }
                }
                snap(u, &b, &mut snapped);
            }
        }
    }
    if let Some(m) = planner_mesh {
        snapped.insert(m);
    }

    // Lattice rounding keeps only meshes the admission stage accepted;
    // per-mesh candidate counts drive the budgeted selection.
    let mut per_mesh: BTreeMap<(u32, u32, u32), usize> = BTreeMap::new();
    for c in &admitted {
        *per_mesh.entry((c.tp, c.cp, c.pp)).or_insert(0) += 1;
    }
    let feasible: Vec<(u32, u32, u32)> = snapped
        .iter()
        .copied()
        .filter(|m| per_mesh.contains_key(m))
        .collect();

    // Surrogate-Pareto-layer order of the rounded meshes.
    let prices: Vec<MeshPrice> = feasible
        .iter()
        .map(|&m| (mesh_price(&c64, spec, gbs, m), m))
        .collect();
    let surrogate_order = pareto_order(&prices);

    // The folded simulator's work is proportional to the schedule
    // length `pp · nmb · v = nmb · layers`, i.e. to `nmb` alone under
    // a fixed model — a pp64·nmb2048 candidate costs ~100× a
    // pp16·nmb32 one. The candidate-count budget bounds *evaluations*;
    // this unit budget bounds the *simulated work* so selection cannot
    // meet the eval quota by picking only the deepest (most expensive)
    // pipelines. It is set below a tenth of the exhaustive work
    // because the guided wall-clock target must also absorb the fixed
    // overheads — descent, anchor probes, and the pre-flight graph
    // analyses of the selected shapes.
    let budget = (exhaustive_candidates / 10).max(MIN_BUDGET);
    let total_units: u64 = admitted.iter().map(|c| c.nmb).sum();
    let mut nmbs: Vec<u64> = admitted.iter().map(|c| c.nmb).collect();
    nmbs.sort_unstable();
    let unit_budget = (total_units / 16).max(nmbs[nmbs.len() / 2] * MIN_BUDGET as u64);

    // Phase A — exact anchors. The surrogate ranks meshes to within a
    // few percent, which is not precise enough to pick ~a dozen
    // winners out of fifty: near the frontier, 1% of step time is the
    // gap between layer 0 and layer 3. So every surrogate mesh that is
    // not dominated by a wide margin gets ONE exact folded evaluation
    // (its plainest variant); those measurements both order the
    // verification and calibrate the surrogate below. Anchors are
    // folded runs like any other evaluation, so they are charged
    // against both budgets (a third of the unit budget at most).
    let anchor_cap = (budget / 3).max(12);
    let mesh_price_of: BTreeMap<(u32, u32, u32), (f64, f64)> =
        prices.iter().map(|&(p, m)| (m, p)).collect();
    let mesh_eps_dominated = |m: (u32, u32, u32)| -> bool {
        let (t, mem) = mesh_price_of[&m];
        prices.iter().any(|&((t2, m2), _)| {
            t2 * (1.0 + EPS_MESH) < t * (1.0 - EPS_MESH)
                && m2 * (1.0 + EPS_MESH) < mem * (1.0 - EPS_MESH)
        })
    };
    let nominate = |m: (u32, u32, u32)| -> Option<((u32, u32, u32), ConfigPoint)> {
        let plain = anchor_variant(&admitted, m, false)?;
        if fits_memory(spec, &plain) {
            return Some((m, plain));
        }
        let lean = anchor_variant(&admitted, m, true)?;
        fits_memory(spec, &lean).then_some((m, lean))
    };
    let mut reps: Vec<((u32, u32, u32), ConfigPoint)> = Vec::new();
    let mut anchor_units = 0u64;
    if let Some(m) = planner_mesh {
        if per_mesh.contains_key(&m) {
            if let Some((m, c)) = nominate(m) {
                anchor_units += c.nmb;
                reps.push((m, c));
            }
        }
    }
    for &m in &surrogate_order {
        if reps.len() >= anchor_cap {
            break;
        }
        if reps.iter().any(|&(rm, _)| rm == m) || mesh_eps_dominated(m) {
            continue;
        }
        if let Some((m, c)) = nominate(m) {
            if anchor_units + c.nmb > unit_budget / 3 {
                continue;
            }
            anchor_units += c.nmb;
            reps.push((m, c));
        }
    }
    let exact = anchor_prices(spec, &reps);

    // Phase B — anchor-calibrated variant pruning. Within one mesh the
    // surrogate's shared constants cancel, so its *ratios* between
    // variants are trustworthy even where its absolute prices drift;
    // multiplying each measured mesh's exact anchor price by those
    // ratios yields a calibrated absolute price for every variant with
    // no cross-mesh surrogate error. The funnel then verifies only the
    // calibrated frontier arc: a variant is dropped when it is
    // (a) dominated *within its own mesh* (exact ratios — ZeRO-1,
    // ZeRO-3 and all-fwd-all-bwd lose here), or (b) beaten cross-mesh
    // by more than the EPS_VARIANT tolerance on both axes.
    let mut variants: BTreeMap<(u32, u32, u32), Vec<ConfigPoint>> = BTreeMap::new();
    for c in &admitted {
        variants.entry((c.tp, c.cp, c.pp)).or_default().push(*c);
    }

    let mut chosen: std::collections::HashSet<ConfigPoint> = Default::default();
    let mut prescored: Vec<(ConfigPoint, SearchPoint)> = Vec::new();
    let mut count = reps.len();
    let mut units = anchor_units;
    for (&(_, cfg), point) in reps.iter().zip(&exact) {
        if let Some(p) = point {
            chosen.insert(cfg);
            prescored.push((cfg, p.clone()));
        }
    }
    // The planner's mesh is always verified in full, budgets
    // notwithstanding — the guided frontier must never be worse than
    // §5.1's answer.
    if let Some(m) = planner_mesh {
        if let Some(vs) = variants.get(&m) {
            for c in vs {
                if chosen.insert(*c) {
                    count += 1;
                    units += c.nmb;
                }
            }
        }
    }

    // Calibrated pool: each measured mesh's within-mesh Pareto layer 0,
    // priced by anchor × surrogate ratio. Anchors calibrate themselves
    // (ratio 1), so their entries are exact.
    let mut pool: Vec<(ConfigPoint, (f64, f64))> = Vec::new();
    for ((mesh, anchor_cfg), point) in reps.iter().zip(&exact) {
        let Some(p) = point else { continue };
        let (st, sm) = variant_price(&c64, anchor_cfg);
        let (kt, km) = (p.step_time.as_secs_f64() / st, p.peak_memory as f64 / sm);
        let vs = &variants[mesh];
        let vprices: Vec<(f64, f64)> = vs.iter().map(|c| variant_price(&c64, c)).collect();
        if let Some(layer0) = pareto_layers(&vprices).into_iter().next() {
            for i in layer0 {
                pool.push((vs[i], (vprices[i].0 * kt, vprices[i].1 * km)));
            }
        }
    }
    let kept: Vec<usize> = (0..pool.len())
        .filter(|&i| {
            let (t, m) = pool[i].1;
            !pool.iter().any(|&(_, (t2, m2))| {
                t2 * (1.0 + EPS_VARIANT) < t * (1.0 - EPS_VARIANT)
                    && m2 * (1.0 + EPS_VARIANT) < m * (1.0 - EPS_VARIANT)
            })
        })
        .collect();
    let kept_prices: Vec<(f64, f64)> = kept.iter().map(|&i| pool[i].1).collect();
    for layer in pareto_layers(&kept_prices) {
        for k in layer {
            let c = pool[kept[k]].0;
            if chosen.contains(&c) || count + 1 > budget || units + c.nmb > unit_budget {
                continue;
            }
            chosen.insert(c);
            count += 1;
            units += c.nmb;
        }
    }
    // A mesh whose anchor the simulator rejected has no calibration;
    // rather than dropping it silently, verify its within-mesh layer 0
    // under the leftover budget.
    for ((mesh, _), point) in reps.iter().zip(&exact) {
        if point.is_some() {
            continue;
        }
        let vs = &variants[mesh];
        let vprices: Vec<(f64, f64)> = vs.iter().map(|c| variant_price(&c64, c)).collect();
        if let Some(layer0) = pareto_layers(&vprices).into_iter().next() {
            for i in layer0 {
                let c = vs[i];
                if chosen.contains(&c) || count + 1 > budget || units + c.nmb > unit_budget {
                    continue;
                }
                chosen.insert(c);
                count += 1;
                units += c.nmb;
            }
        }
    }
    // Degenerate spaces (no anchor survived, no planner mesh) still
    // verify something: the leading surrogate mesh's best variant.
    if chosen.is_empty() {
        if let Some(vs) = surrogate_order.first().map(|m| &variants[m]) {
            let vprices: Vec<(f64, f64)> = vs.iter().map(|c| variant_price(&c64, c)).collect();
            if let Some(&i) = pareto_layers(&vprices).first().and_then(|l| l.first()) {
                chosen.insert(vs[i]);
                count += 1;
            }
        }
    }

    let candidates: Vec<ConfigPoint> = admitted
        .into_iter()
        .filter(|c| chosen.contains(c))
        .collect();
    let meshes_selected = candidates
        .iter()
        .map(|c| (c.tp, c.cp, c.pp))
        .collect::<BTreeSet<_>>()
        .len();
    Selection {
        stats: GuidedStats {
            starts: trajectories,
            descent_steps,
            meshes_selected,
            // Every folded evaluation counts once: anchor probes (the
            // funnel reuses their scores) + fresh funnel input.
            candidates_verified: count,
            exhaustive_candidates,
            evals_saved_pct: 100.0
                * (1.0 - count as f64 / exhaustive_candidates.max(1) as f64),
        },
        candidates,
        prescored,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{search, SearchStrategy};
    use super::*;

    fn spec_405b_cp1() -> SearchSpec {
        SearchSpec::llama3_405b(16_384, 8_192).max_cp(1)
    }

    #[test]
    fn surrogate_consts_are_finite_and_positive() {
        let c = surrogate_consts(&spec_405b_cp1());
        for (name, v) in [
            ("dense_flops_per_token", c.dense_flops_per_token),
            ("dense_bytes_per_token", c.dense_bytes_per_token),
            ("attn_flops_per_pair", c.attn_flops_per_pair),
            ("params_total", c.params_total),
            ("tp_coll_bytes_per_token", c.tp_coll_bytes_per_token),
            ("kv_ag_bytes_per_token", c.kv_ag_bytes_per_token),
            ("act_bytes_per_token", c.act_bytes_per_token),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }

    #[test]
    fn projection_lands_on_both_constraints_inside_the_box() {
        let spec = spec_405b_cp1();
        let b = Box5::new(&spec, 2048);
        let mut u = [5.0, 3.0, 9.0, 1.0, 0.0];
        b.project(&mut u);
        let r1 = (u[0] + u[1] + u[2] + u[3] - b.s_mesh).abs();
        let r2 = (u[3] + u[4] - b.s_batch).abs();
        assert!(r1 < 1e-6 && r2 < 1e-6, "residuals {r1} {r2}");
        for (i, slot) in u.iter().enumerate() {
            assert!(*slot >= b.lo[i] - 1e-9 && *slot <= b.hi[i] + 1e-9);
        }
    }

    #[test]
    fn descent_gradient_is_finite_at_interior_points() {
        let spec = spec_405b_cp1();
        let cd = surrogate_consts(&spec).lift::<Dual<5>>();
        let (v, g) = eval_grad(
            &cd,
            [3.0, 0.0, 4.0, 7.0, 4.0],
            PROFILES[0],
            0.2,
            spec.input.gpu.hbm_capacity as f64,
        );
        assert!(v.is_finite());
        assert!(g.iter().all(|x| x.is_finite()), "{g:?}");
        assert!(g.iter().any(|&x| x != 0.0), "gradient identically zero");
    }

    #[test]
    fn descent_gradient_matches_central_finite_differences() {
        // The full surrogate objective, not just the primitives: every
        // dual partial at smooth interior points (coordinates chosen
        // off the max/min branch boundaries) must match a central
        // finite difference in log2-space to 1e-6 relative.
        let spec = spec_405b_cp1();
        let c = surrogate_consts(&spec);
        let cd = c.lift::<Dual<5>>();
        let cap = spec.input.gpu.hbm_capacity as f64;
        let obj_f64 = |u: [f64; 5], profile: (f64, f64, f64), lambda: f64| -> f64 {
            let x = RelaxedMesh {
                tp: u[0].exp2(),
                cp: u[1].exp2(),
                pp: u[2].exp2(),
                dp: u[3].exp2(),
                nmb: u[4].exp2(),
            };
            let knobs = VariantKnobs {
                recompute: profile.0,
                grad_sharded: profile.1,
                param_sharded: profile.2,
                afab: false,
                nc_mult: 1.0,
            };
            let price = surrogate_step(&c, &x, &knobs);
            guided_objective(&price, lambda, cap)
        };
        let points = [
            [3.1, 0.4, 3.9, 6.9, 4.2],
            [2.2, 0.7, 2.6, 8.0, 3.3],
            [1.6, 1.2, 4.4, 6.3, 2.1],
        ];
        for u in points {
            for (pi, &profile) in PROFILES.iter().enumerate() {
                for lambda in [0.0, 0.6] {
                    let (v, g) = eval_grad(&cd, u, profile, lambda, cap);
                    let vf = obj_f64(u, profile, lambda);
                    assert!(
                        (v - vf).abs() <= 1e-12 * v.abs().max(1.0),
                        "value path diverged: {v} vs {vf}"
                    );
                    for i in 0..5 {
                        let h = 3e-4;
                        let mut hi = u;
                        hi[i] += h;
                        let mut lo = u;
                        lo[i] -= h;
                        let fd = (obj_f64(hi, profile, lambda) - obj_f64(lo, profile, lambda))
                            / (2.0 * h);
                        let scale = g[i].abs().max(fd.abs()).max(1e-6 * v.abs()).max(1.0);
                        assert!(
                            (g[i] - fd).abs() <= 1e-6 * scale,
                            "∂/∂u{i} at {u:?} profile {pi} λ={lambda}: dual {} vs fd {fd}",
                            g[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn selection_is_deterministic_and_within_budget() {
        // The unrestricted 405B/16K space (~2.5k candidates) exercises
        // the descent; the cp-pinned variant falls below SMALL_SPACE.
        let spec = SearchSpec::llama3_405b(16_384, 8_192);
        let (admitted, _) = super::super::enumerate_configs(&spec);
        assert!(admitted.len() > SMALL_SPACE, "{}", admitted.len());
        let a = select_candidates(&spec, admitted.clone());
        let b = select_candidates(&spec, admitted.clone());
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.candidates_verified <= admitted.len());
        assert!(a.stats.descent_steps > 0);
        // Selection preserves enumeration order.
        let idx: Vec<usize> = a
            .candidates
            .iter()
            .map(|c| admitted.iter().position(|x| x == c).unwrap())
            .collect();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tiny_spaces_fall_back_to_full_verification() {
        let mut spec = SearchSpec::llama3_8b(8, 8_192);
        spec.input.model = spec.input.model.with_layers(4);
        spec.input.token_budget = 16 * 8_192;
        spec.max_cp = 2;
        let (admitted, _) = super::super::enumerate_configs(&spec);
        assert!(admitted.len() <= SMALL_SPACE, "{}", admitted.len());
        let sel = select_candidates(&spec, admitted.clone());
        assert_eq!(sel.candidates, admitted);
        assert_eq!(sel.stats.evals_saved_pct, 0.0);
        assert_eq!(sel.stats.descent_steps, 0);
    }

    #[test]
    #[ignore = "release-scale acceptance run (~4 min); the same check is `llama3sim search --guided`"]
    fn guided_recovers_the_405b_frontier_with_a_fraction_of_the_evals() {
        let spec = SearchSpec::llama3_405b(16_384, 8_192);
        let exhaustive = search(&spec).unwrap();
        let guided = search(&spec.clone().guided()).unwrap();
        let stats = guided.guided.expect("guided stats");
        assert!(
            stats.candidates_verified * 10 <= stats.exhaustive_candidates,
            "verified {} of {}",
            stats.candidates_verified,
            stats.exhaustive_candidates
        );
        assert_eq!(exhaustive.frontier, guided.frontier);
    }

    #[test]
    fn guided_matches_exhaustive_on_a_small_grid() {
        let mut spec = SearchSpec::llama3_8b(8, 8_192);
        spec.input.model = spec.input.model.with_layers(4);
        spec.input.token_budget = 16 * 8_192;
        spec.max_cp = 2;
        let exhaustive = search(&spec).unwrap();
        spec.strategy = SearchStrategy::Guided;
        let guided = search(&spec).unwrap();
        assert_eq!(exhaustive.frontier, guided.frontier);
        let stats = guided.guided.expect("guided stats");
        assert_eq!(stats.exhaustive_candidates, exhaustive.counts.candidates);
    }
}


