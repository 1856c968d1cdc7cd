//! Fixture: one violation per hygiene rule, in rule order, so the
//! fixture test pins every rule ID and location at once. Linted under
//! the path `crates/collectives/src/fixture.rs` (a wire-free substrate
//! crate) so LINT005 applies; LINT004 is path-scoped to the cost
//! modules and exercised separately in `rules::tests`.

fn unwrap_site(y: Result<u32, ()>) -> u32 {
    y.unwrap()
}

// LINT002 (callers of the deprecated `simulate*` wrappers) was retired
// with the wrappers. This note holds its place so the sites below keep
// the line numbers pinned in `tests/golden/lint_fixture.*`.

fn cli_args_site(json: bool) -> AnalyzeArgs {
    AnalyzeArgs { json }
}

fn wire_site() {
    let q = parallelism_core::query::Query::Version;
}

fn trace_vec_site() {
    let buf: Vec<TraceEvent> = Vec::new();
}
