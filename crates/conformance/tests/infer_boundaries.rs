//! Hand-made serving traces that land requests exactly on the event
//! boundaries of the continuous-batching loop: arrivals at, and one
//! nanosecond after, a decode-iteration boundary; arrivals behind a
//! KV-blocked head, into a full batch, and behind an inadmissible head;
//! several sequences finishing in one iteration; single-token outputs.
//! Arrival instants are computed from `prefill_time` and
//! `decode_iter_time`, so each boundary is hit to the nanosecond. Every
//! trace must give the engine's `ReplicaResult` bit-identical to
//! conformance's naive one-iteration-at-a-time rewalk.

use cluster_model::GpuSpec;
use conformance::oracles::naive_continuous_batching;
use llm_model::TransformerConfig;
use parallelism_core::infer::{simulate_replica, InferCosts, InferPlan, InferSpec, ReplicaResult};
use parallelism_core::Request;

const BLOCK: u64 = 16;

/// 8B on one H100 whose HBM leaves room for only a few hundred KV
/// blocks, so the tests can fill the cache with modest prompts.
fn costs() -> InferCosts {
    let gpu = GpuSpec::h100_sxm_hbm3().with_hbm_capacity(19 << 30);
    let spec = InferSpec::new(
        TransformerConfig::llama3_8b(),
        gpu,
        8,
        InferPlan::new(1, 1, 1),
    )
    .block_tokens(BLOCK);
    let costs = InferCosts::new(&spec).unwrap();
    assert!(
        (100..2_000).contains(&costs.block_capacity()),
        "{}",
        costs.block_capacity()
    );
    costs
}

fn req(id: u64, arrival_ns: u64, prompt_tokens: u64, output_tokens: u64) -> Request {
    Request {
        id,
        arrival_ns,
        prompt_tokens,
        output_tokens,
    }
}

/// The instant `iters` decode iterations of a constant `batch` end,
/// starting at `start` with `kv` resident tokens.
fn after_decode(costs: &InferCosts, start: u64, batch: u64, kv: u64, iters: u64) -> u64 {
    (0..iters).fold(start, |t, j| {
        t + costs.decode_iter_time(batch, kv + j * batch).as_nanos()
    })
}

fn prefill(costs: &InferCosts, prompt: u64) -> u64 {
    costs.prefill_time(prompt).as_nanos()
}

/// Runs both walks and demands bit-identical results.
fn run(costs: &InferCosts, max_batch: usize, requests: &[Request]) -> ReplicaResult {
    let fast = simulate_replica(costs, max_batch, requests);
    let naive = naive_continuous_batching(costs, max_batch, requests);
    assert_eq!(fast, naive, "engine and naive rewalk diverge");
    assert_eq!(fast.free_blocks_end, costs.block_capacity());
    fast
}

fn first_token(res: &ReplicaResult, id: u64) -> u64 {
    res.outcomes
        .iter()
        .find(|o| o.id == id)
        .unwrap()
        .first_token_ns
}

#[test]
fn arrival_exactly_at_an_iteration_boundary_is_admitted_there() {
    let c = costs();
    let p = prefill(&c, 100);
    let t3 = after_decode(&c, p, 1, 101, 3);
    let t4 = after_decode(&c, p, 1, 101, 4);
    let res = run(&c, 8, &[req(0, 0, 100, 10), req(1, t3, 50, 4)]);
    assert_eq!(first_token(&res, 1), t3 + prefill(&c, 50));

    // One nanosecond later it waits for the next boundary.
    let res = run(&c, 8, &[req(0, 0, 100, 10), req(1, t3 + 1, 50, 4)]);
    assert_eq!(first_token(&res, 1), t4 + prefill(&c, 50));
}

#[test]
fn arrival_behind_a_kv_blocked_head_waits_for_the_completion() {
    let c = costs();
    let cap = c.block_capacity();
    // The first request leaves one free block; the second needs three.
    let big = (cap - 2) * BLOCK;
    let p = prefill(&c, big);
    let t2 = after_decode(&c, p, 1, big + 1, 2);
    let t4 = after_decode(&c, p, 1, big + 1, 4);
    let done = after_decode(&c, p, 1, big + 1, 7);
    let res = run(
        &c,
        8,
        &[
            req(0, 0, big, 8),
            req(1, t2, 2 * BLOCK, 4),
            req(2, t4 - 1, 8, 3),
        ],
    );
    assert_eq!(res.peak_blocks, cap - 1);
    let admitted = done + prefill(&c, 2 * BLOCK) + prefill(&c, 8);
    assert_eq!(first_token(&res, 1), admitted);
    assert_eq!(first_token(&res, 2), admitted);
}

#[test]
fn arrival_into_a_full_batch_waits_for_a_free_slot() {
    let c = costs();
    // max_batch 1: the second request waits out the first.
    let p = prefill(&c, 64);
    let t2 = after_decode(&c, p, 1, 65, 2);
    let done = after_decode(&c, p, 1, 65, 5);
    let res = run(&c, 1, &[req(0, 0, 64, 6), req(1, t2, 32, 3)]);
    assert_eq!(first_token(&res, 1), done + prefill(&c, 32));

    // max_batch 2: a third request waits for the shorter of two.
    let p = prefill(&c, 64) + prefill(&c, 128);
    let t1 = after_decode(&c, p, 2, 65 + 129, 1);
    let done = after_decode(&c, p, 2, 65 + 129, 3);
    let res = run(
        &c,
        2,
        &[req(0, 0, 64, 4), req(1, 0, 128, 9), req(2, t1, 32, 3)],
    );
    assert_eq!(first_token(&res, 2), done + prefill(&c, 32));
}

#[test]
fn same_iteration_completions_follow_admission_order() {
    let c = costs();
    // Admitted at iterations 0, 0 and 2; the first and third both
    // finish at iteration 5, the second at 8.
    let p = prefill(&c, 64) + prefill(&c, 80);
    let t2 = after_decode(&c, p, 2, 65 + 81, 2);
    let res = run(
        &c,
        8,
        &[req(0, 0, 64, 6), req(1, 0, 80, 9), req(2, t2, 300, 4)],
    );
    let order: Vec<u64> = res.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(order, [0, 2, 1]);
    assert_eq!(res.outcomes[0].finish_ns, res.outcomes[1].finish_ns);
    assert_eq!(res.decode_iters, 8);
}

#[test]
fn single_token_outputs_finish_at_their_prefill() {
    let c = costs();
    let p = prefill(&c, 40) + prefill(&c, 64);
    let t1 = after_decode(&c, p, 1, 65, 1);
    let res = run(
        &c,
        8,
        &[req(0, 0, 40, 1), req(1, 0, 64, 4), req(2, t1, 20, 1)],
    );
    let single = |id| res.outcomes.iter().find(|o| o.id == id).unwrap();
    assert_eq!(single(0).finish_ns, p);
    assert_eq!(single(2).finish_ns, t1 + prefill(&c, 20));
    assert_eq!(res.decode_iters, 3);
}

#[test]
fn inadmissible_head_is_dropped_once_the_replica_drains() {
    let c = costs();
    let huge = c.block_capacity() * BLOCK + 1;
    let p = prefill(&c, 64);
    let t2 = after_decode(&c, p, 1, 65, 2);
    let t3 = after_decode(&c, p, 1, 65, 3);
    let done = after_decode(&c, p, 1, 65, 7);
    let res = run(
        &c,
        8,
        &[req(0, 0, 64, 8), req(1, t2, huge, 2), req(2, t3, 32, 2)],
    );
    assert_eq!(res.dropped, 1);
    assert_eq!(res.outcomes.len(), 2);
    assert_eq!(first_token(&res, 2), done + prefill(&c, 32));
}
