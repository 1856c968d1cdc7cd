//! The versioned query surface shared by the CLI and `llama3sim serve`.
//!
//! Every front end — the `llama3sim` subcommands and the HTTP daemon —
//! speaks the same API: build a [`Query`], dispatch it (the dispatcher
//! lives in the `serve` crate, above this one), and render the
//! [`Response`]. The wire encoding is a single line of text,
//!
//! ```text
//! llama3sim/1 <kind> key=value key=value ...
//! ```
//!
//! with the protocol version first (see [`QUERY_API_VERSION`]), so a
//! server can reject queries from a future client instead of
//! misreading them. Keys at their default value are omitted; the
//! encoder emits keys in one fixed order, which makes
//! [`Query::canonical_wire`] a canonical form: two queries are the
//! same computation iff their canonical lines are equal. The canonical
//! form also normalizes out pure *execution hints* (today: the scoring
//! `threads` knob), so a thundering herd that only disagrees about
//! thread counts coalesces onto one computation.
//!
//! Each payload kind declares its keys once, in a field table (wire
//! key, CLI flag, parse, render with default omission). The encoder,
//! the decoder, the canonical form and [`Query::parse_cli`] — the
//! `llama3sim` flag parser — all read that table, so the CLI and the
//! wire cannot drift apart.
//!
//! This module defines only data — no I/O, no dispatch — so it can sit
//! in `parallelism_core` without dragging the analyzer, conformance or
//! bench crates into the dependency graph. A `llama3sim lint` rule
//! keeps these wire types out of the crates *below* core: the substrate
//! must not grow knowledge of the network protocol.

use crate::analyze;
use crate::fsdp::ZeroMode;
use crate::infer::{InferPlan, InferReport, InferSpec, InferenceModel};
use crate::planner::PlannerInput;
use crate::search::{SearchReport, SearchSpec, SearchStrategy};
use crate::step::Workload;
use collectives::CacheStats;
use llm_model::TransformerConfig;
use sim_engine::time::SimDuration;
use std::fmt;
use workload::traffic::{TrafficShape, TrafficSpec};

/// Query-schema version.
///
/// - **v1** — the original seven kinds (`analyze`, `fuzz`, `bench`,
///   `goodput`, `search`, `stats`, `trace`), implicitly all training.
/// - **v2** — workload-generic: adds the `infer` kind and the
///   `workload=` key on `search`. Purely additive, so the magic token
///   below stays at `llama3sim/1` and every v1 line (and its canonical
///   encoding) is byte-identical under v2.
pub const QUERY_API_VERSION: u32 = 2;

/// The magic token opening every wire line, `llama3sim/<wire-format>`.
/// This tracks the *line format*, which has not changed; see
/// [`QUERY_API_VERSION`] for the schema revision.
pub const WIRE_MAGIC: &str = "llama3sim/1";

/// A malformed or unanswerable query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// What went wrong, suitable for the wire error line.
    pub message: String,
}

impl QueryError {
    /// A new error with the given message.
    pub fn new(message: impl Into<String>) -> QueryError {
        QueryError {
            message: message.into(),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for QueryError {}

/// How a wire key is spelled on the `llama3sim` command line.
#[derive(Debug, Clone, Copy)]
enum Cli {
    /// Wire-only (the CLI sets it through a CLI-only switch, if at all).
    None,
    /// `--flag VALUE`, sent as `key=VALUE`.
    Opt(&'static str),
    /// A bare `--flag`, sent as `key=true`.
    Switch(&'static str),
}

/// One row of a payload's field table: the single declaration of a
/// wire key.
struct Field<Q: 'static> {
    /// The wire key.
    key: &'static str,
    /// The CLI spelling.
    cli: Cli,
    /// An execution hint: results are bit-identical for any value, so
    /// [`Query::canonical_wire`] leaves it out.
    hint: bool,
    /// Parses a wire value into the payload.
    parse: fn(&mut Q, &str) -> Result<(), QueryError>,
    /// The wire value of `q`, or `None` when it equals the default `d`.
    render: fn(q: &Q, d: &Q) -> Option<String>,
}

/// A payload whose wire keys are declared by a field table. Row order
/// is the fixed key order of the encoding.
trait Fields: Default + 'static {
    const FIELDS: &'static [Field<Self>];
}

/// A numeric row: decimal on the wire, omitted at its default. The CLI
/// flag defaults to the key.
macro_rules! num_field {
    ($key:literal, $field:ident) => {
        num_field!($key, Cli::Opt($key), $field)
    };
    ($key:literal, $cli:expr, $field:ident) => {
        Field {
            key: $key,
            cli: $cli,
            hint: false,
            parse: |q, v| {
                q.$field = parse_num($key, v)?;
                Ok(())
            },
            render: |q, d| (q.$field != d.$field).then(|| q.$field.to_string()),
        }
    };
}

/// An enum row: its `tag()` on the wire, omitted at its default;
/// `$err` formats the rejected value.
macro_rules! tag_field {
    ($key:literal, $cli:expr, $field:ident, $parse:expr, $err:literal) => {
        Field {
            key: $key,
            cli: $cli,
            hint: false,
            parse: |q, v| {
                q.$field = $parse(v).ok_or_else(|| QueryError::new(format!($err, v)))?;
                Ok(())
            },
            render: |q, d| (q.$field != d.$field).then(|| q.$field.tag().to_string()),
        }
    };
}

/// The `model` row shared by every kind that names a model.
macro_rules! model_field {
    () => {
        Field {
            key: "model",
            cli: Cli::Opt("model"),
            hint: false,
            parse: |q, v| {
                q.model = v.to_string();
                Ok(())
            },
            render: |q, d| (q.model != d.model).then(|| q.model.clone()),
        }
    };
}

/// Resolves a model name (`405b`, `70b` or `8b`) to its config.
fn model_config(name: &str) -> Result<TransformerConfig, QueryError> {
    match name {
        "405b" => Ok(TransformerConfig::llama3_405b()),
        "70b" => Ok(TransformerConfig::llama3_70b()),
        "8b" => Ok(TransformerConfig::llama3_8b()),
        other => Err(QueryError::new(format!(
            "unknown model {other:?} (want 405b|70b|8b)"
        ))),
    }
}

/// What the `analyze` query should look at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeMode {
    /// Enumerate the named configurations.
    List,
    /// Analyze one named configuration.
    Config(String),
    /// Sweep the 64-config conformance grid.
    Grid,
    /// Analyze a single grid configuration by index (0-based). Used by
    /// the serve benchmark and the conformance oracle to replay the
    /// grid one query at a time.
    GridIndex(usize),
}

/// The `fuzz` query: a seeded conformance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzQuery {
    /// Number of sampled cases.
    pub cases: u64,
    /// RNG seed; the same `(cases, seed)` pair replays the same specs.
    pub seed: u64,
}

impl Default for FuzzQuery {
    fn default() -> FuzzQuery {
        FuzzQuery {
            cases: 500,
            seed: 1,
        }
    }
}

impl Fields for FuzzQuery {
    const FIELDS: &'static [Field<FuzzQuery>] =
        &[num_field!("cases", cases), num_field!("seed", seed)];
}

/// The `search` query: the Pareto auto-parallelism sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchQuery {
    /// Model name: `405b`, `70b` or `8b`.
    pub model: String,
    /// Cluster size in GPUs.
    pub gpus: u32,
    /// Sequence length.
    pub seq: u64,
    /// Override the model's layer count (`0` = the model default).
    pub layers: u64,
    /// Override the token budget (`0` = the 16 M-token default).
    pub budget: u64,
    /// Goodput-refine the best `head` frontier points (0 = off).
    pub goodput_head: usize,
    /// Scoring threads (0 = all available). An execution hint, not a
    /// semantic input: the report is bit-identical for any value, so
    /// the canonical form normalizes it to 0.
    pub threads: usize,
    /// Largest CP degree to enumerate (0 = the spec default, 64).
    pub max_cp: u32,
    /// ZeRO modes to enumerate (empty = all three).
    pub zero: Vec<ZeroMode>,
    /// Report whether this `tp,cp,pp,dp` mesh is on the frontier.
    pub expect: Option<(u32, u32, u32, u32)>,
    /// Use the gradient-guided candidate strategy.
    pub guided: bool,
    /// Which workload to rank meshes for: training (step time, peak
    /// HBM) or inference (p99 TTFT, peak HBM).
    pub workload: Workload,
}

impl Default for SearchQuery {
    fn default() -> SearchQuery {
        SearchQuery {
            model: "405b".to_string(),
            gpus: 16_384,
            seq: 8_192,
            layers: 0,
            budget: 0,
            goodput_head: 0,
            threads: 0,
            max_cp: 0,
            zero: Vec::new(),
            expect: None,
            guided: false,
            workload: Workload::Training,
        }
    }
}

impl Fields for SearchQuery {
    const FIELDS: &'static [Field<SearchQuery>] = &[
        model_field!(),
        num_field!("gpus", gpus),
        num_field!("seq", seq),
        num_field!("layers", layers),
        num_field!("budget", budget),
        num_field!("head", Cli::Opt("goodput-head"), goodput_head),
        Field {
            hint: true,
            ..num_field!("threads", threads)
        },
        num_field!("max_cp", Cli::Opt("max-cp"), max_cp),
        Field {
            key: "zero",
            cli: Cli::Opt("zero"),
            hint: false,
            parse: |q, v| {
                q.zero = parse_zero(v)?;
                Ok(())
            },
            render: |q, _| {
                (!q.zero.is_empty()).then(|| {
                    q.zero
                        .iter()
                        .map(|&z| zero_tag(z))
                        .collect::<Vec<_>>()
                        .join(",")
                })
            },
        },
        Field {
            key: "expect",
            cli: Cli::Opt("expect"),
            hint: false,
            parse: |q, v| {
                let [tp, cp, pp, dp] = parse_list(v).ok_or_else(|| {
                    QueryError::new(format!("expect: want tp,cp,pp,dp, got {v:?}"))
                })?;
                q.expect = Some((tp, cp, pp, dp));
                Ok(())
            },
            render: |q, _| {
                q.expect
                    .map(|(tp, cp, pp, dp)| format!("{tp},{cp},{pp},{dp}"))
            },
        },
        Field {
            key: "guided",
            cli: Cli::Switch("guided"),
            hint: false,
            parse: |q, v| {
                q.guided = match v {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(QueryError::new(format!(
                            "guided: want true|false, got {other:?}"
                        )))
                    }
                };
                Ok(())
            },
            render: |q, _| q.guided.then(|| "true".to_string()),
        },
        tag_field!(
            "workload",
            Cli::Opt("workload"),
            workload,
            Workload::parse,
            "workload: unknown tag {:?} (want train|infer)"
        ),
    ];
}

impl SearchQuery {
    /// Resolves the query to a [`SearchSpec`].
    ///
    /// # Errors
    /// [`QueryError`] on an unknown model name.
    pub fn to_spec(&self) -> Result<SearchSpec, QueryError> {
        let mut input = PlannerInput::llama3_405b(self.gpus, self.seq);
        input.model = model_config(&self.model)?;
        let mut spec = SearchSpec::training(input);
        if self.layers > 0 {
            spec.input.model = spec.input.model.with_layers(self.layers);
        }
        if self.budget > 0 {
            spec.input.token_budget = self.budget;
        }
        if self.max_cp > 0 {
            spec = spec.max_cp(self.max_cp);
        }
        if !self.zero.is_empty() {
            spec.zero_modes = self.zero.clone();
        }
        if self.guided {
            spec.strategy = SearchStrategy::Guided;
        }
        spec.workload = self.workload;
        Ok(spec.threads(self.threads).goodput_head(self.goodput_head))
    }
}

/// What the `trace` query should return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Chrome-trace JSON of the retained (or windowed) timeline.
    #[default]
    Chrome,
    /// JSON stats envelope: tier residency plus window aggregates.
    Stats,
    /// Self-checking smoke: stream the run into the tower, seek three
    /// windows, and diff each against a full-resolution replay.
    Smoke,
}

impl TraceMode {
    /// The mode's wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            TraceMode::Chrome => "chrome",
            TraceMode::Stats => "stats",
            TraceMode::Smoke => "smoke",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Option<TraceMode> {
        [TraceMode::Chrome, TraceMode::Stats, TraceMode::Smoke]
            .into_iter()
            .find(|m| m.tag() == s)
    }
}

/// Default fault-timeline seed for `trace` runs — the same seed the
/// `goodput` experiment pins, so the two queries describe the same
/// simulated day.
pub const DEFAULT_TRACE_SEED: u64 = 0x0060_01D9;

/// The `trace` query: simulate a multi-day run, store its timeline in
/// the tiered (tower-sampling) trace store, and export a window of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceQuery {
    /// Model name: `405b`, `70b` or `8b`.
    pub model: String,
    /// Cluster size in GPUs.
    pub gpus: u32,
    /// Sequence length.
    pub seq: u64,
    /// Run horizon, seconds.
    pub horizon_s: u64,
    /// Fault-timeline seed.
    pub seed: u64,
    /// Tier-0 capacity of the store, events.
    pub tier0: u64,
    /// Optional seek window `[t0, t1)` in seconds. With a window the
    /// response covers only that range (rematerialized by replay when
    /// it needs finer resolution than storage kept).
    pub window: Option<(u64, u64)>,
    /// Zoom level: events decimated to global-index stride `2^zoom`.
    pub zoom: u32,
    /// Response flavour.
    pub mode: TraceMode,
}

impl Default for TraceQuery {
    fn default() -> TraceQuery {
        TraceQuery {
            model: "405b".to_string(),
            gpus: 16_384,
            seq: 8_192,
            horizon_s: 86_400,
            seed: DEFAULT_TRACE_SEED,
            tier0: 4_096,
            window: None,
            zoom: 0,
            mode: TraceMode::default(),
        }
    }
}

impl Fields for TraceQuery {
    const FIELDS: &'static [Field<TraceQuery>] = &[
        model_field!(),
        num_field!("gpus", gpus),
        num_field!("seq", seq),
        num_field!("horizon", Cli::Opt("horizon-s"), horizon_s),
        num_field!("seed", seed),
        num_field!("tier0", tier0),
        Field {
            key: "window",
            cli: Cli::Opt("window"),
            hint: false,
            parse: |q, v| {
                let [t0, t1] = parse_list(v)
                    .ok_or_else(|| QueryError::new(format!("window: want t0,t1, got {v:?}")))?;
                if t0 >= t1 {
                    return Err(QueryError::new(format!(
                        "window: t0 must be before t1, got {v:?}"
                    )));
                }
                q.window = Some((t0, t1));
                Ok(())
            },
            render: |q, _| q.window.map(|(t0, t1)| format!("{t0},{t1}")),
        },
        num_field!("zoom", zoom),
        // Set from the CLI by the `--stats` / `--smoke` switches.
        tag_field!(
            "mode",
            Cli::None,
            mode,
            TraceMode::parse,
            "trace: unknown mode {:?} (want chrome|stats|smoke)"
        ),
    ];
}

impl TraceQuery {
    /// Resolves the query to a [`crate::step::StepModel`] via the §5.1
    /// planner: the planner picks the mesh, then the candidate builder
    /// materializes the step. Deterministic in the query fields.
    ///
    /// # Errors
    /// [`QueryError`] on an unknown model name or an infeasible
    /// (model, gpus, seq) combination.
    pub fn to_step(&self) -> Result<crate::step::StepModel, QueryError> {
        use crate::planner::{candidate_step, plan};
        let mut input = PlannerInput::llama3_405b(self.gpus, self.seq);
        input.model = model_config(&self.model)?;
        let p = plan(&input).map_err(|e| QueryError::new(format!("trace: {e}")))?;
        let (step, _bs) = candidate_step(&input, p.mesh.tp(), p.mesh.cp(), p.mesh.pp())
            .ok_or_else(|| QueryError::new("trace: planned mesh is not admissible"))?;
        Ok(step)
    }
}

/// The `infer` query: price a serving workload — seeded traffic over a
/// TP/PP/replica mesh with continuous batching and paged KV cache.
#[derive(Debug, Clone, PartialEq)]
pub struct InferQuery {
    /// Model name: `405b`, `70b` or `8b`.
    pub model: String,
    /// Fleet size in GPUs.
    pub gpus: u32,
    /// Tensor-parallel degree per replica (`0` = auto-plan).
    pub tp: u32,
    /// Pipeline stages per replica (`0` = auto-plan).
    pub pp: u32,
    /// Traffic intensity profile.
    pub traffic: TrafficShape,
    /// Offered load, requests per day (the rate holds even when the
    /// horizon is shorter than a day).
    pub requests_per_day: u64,
    /// Arrival-window length, seconds.
    pub horizon_s: u64,
    /// Traffic seed.
    pub seed: u64,
    /// KV-block size, tokens.
    pub block: u64,
    /// Max resident sequences per replica.
    pub max_batch: usize,
    /// TTFT SLO, milliseconds.
    pub slo_ttft_ms: u64,
    /// TPOT SLO, milliseconds.
    pub slo_tpot_ms: u64,
    /// Simulation threads (`0` = all available). An execution hint —
    /// results are bit-identical for any value, so the canonical form
    /// normalizes it to 0.
    pub threads: usize,
}

impl Default for InferQuery {
    fn default() -> InferQuery {
        InferQuery {
            model: "405b".to_string(),
            gpus: 16_384,
            tp: 0,
            pp: 0,
            traffic: TrafficShape::Diurnal,
            requests_per_day: 1_000_000,
            horizon_s: 86_400,
            seed: 1,
            block: 16,
            max_batch: 256,
            slo_ttft_ms: 2_000,
            slo_tpot_ms: 100,
            threads: 0,
        }
    }
}

impl Fields for InferQuery {
    const FIELDS: &'static [Field<InferQuery>] = &[
        model_field!(),
        num_field!("gpus", gpus),
        num_field!("tp", tp),
        num_field!("pp", pp),
        tag_field!(
            "traffic",
            Cli::Opt("traffic"),
            traffic,
            TrafficShape::parse,
            "traffic: unknown shape {:?} (want steady|diurnal|bursty)"
        ),
        num_field!("rpd", requests_per_day),
        num_field!("horizon", Cli::Opt("horizon-s"), horizon_s),
        num_field!("seed", seed),
        num_field!("block", block),
        num_field!("batch", Cli::Opt("max-batch"), max_batch),
        num_field!("slo_ttft", Cli::Opt("slo-ttft-ms"), slo_ttft_ms),
        num_field!("slo_tpot", Cli::Opt("slo-tpot-ms"), slo_tpot_ms),
        Field {
            hint: true,
            ..num_field!("threads", threads)
        },
    ];
}

impl InferQuery {
    /// Resolves the query to an [`InferenceModel`]: explicit `tp`/`pp`
    /// when given, otherwise [`InferPlan::auto`], with replicas filling
    /// the fleet.
    ///
    /// # Errors
    /// [`QueryError`] on an unknown model, an infeasible mesh, or a
    /// fleet smaller than one replica.
    pub fn to_model(&self) -> Result<InferenceModel, QueryError> {
        let cfg = model_config(&self.model)?;
        let gpu = cluster_model::gpu::GpuSpec::h100_sxm_hbm3();
        let gpus_per_node = 8;
        let plan = if self.tp > 0 || self.pp > 0 {
            let tp = self.tp.max(1);
            let pp = self.pp.max(1);
            if tp * pp > self.gpus {
                return Err(QueryError::new(format!(
                    "infer: tp {tp} × pp {pp} exceeds the {}-GPU fleet",
                    self.gpus
                )));
            }
            InferPlan::new(tp, pp, self.gpus / (tp * pp))
        } else {
            InferPlan::auto(&cfg, &gpu, self.gpus, gpus_per_node).ok_or_else(|| {
                QueryError::new(format!(
                    "infer: no tp×pp plan fits {} on {} GPUs",
                    self.model, self.gpus
                ))
            })?
        };
        let spec = InferSpec::new(cfg, gpu, gpus_per_node, plan)
            .block_tokens(self.block.max(1))
            .max_batch(self.max_batch)
            .threads(self.threads)
            .slo(
                SimDuration::from_millis(self.slo_ttft_ms),
                SimDuration::from_millis(self.slo_tpot_ms),
            );
        InferenceModel::new(spec).map_err(|e| QueryError::new(format!("infer: {e}")))
    }

    /// The seeded traffic this query offers.
    pub fn traffic_spec(&self) -> TrafficSpec {
        TrafficSpec::serving_day(self.traffic, self.requests_per_day, self.seed)
            .horizon_s(self.horizon_s as f64)
    }
}

/// One query: everything a client can ask of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Pre-flight static analysis (no simulation).
    Analyze(AnalyzeMode),
    /// Seeded conformance fuzz sweep.
    Fuzz(FuzzQuery),
    /// Wall-clock performance snapshot of the simulator's hot paths.
    Bench,
    /// The seeded 24 h production goodput simulation.
    Goodput,
    /// The Pareto auto-parallelism search.
    Search(SearchQuery),
    /// Memo-layer and dispatcher statistics.
    Stats,
    /// Tiered-trace export of a simulated multi-day run.
    Trace(TraceQuery),
    /// Continuous-batching inference simulation over seeded traffic.
    Infer(InferQuery),
}

fn zero_tag(z: ZeroMode) -> &'static str {
    match z {
        ZeroMode::Zero1 => "zero1",
        ZeroMode::Zero2 => "zero2",
        ZeroMode::Zero3 => "zero3",
    }
}

/// Parses a ZeRO mode list, keeping its order. A repeated mode is
/// rejected: it would enumerate every candidate twice.
fn parse_zero(s: &str) -> Result<Vec<ZeroMode>, QueryError> {
    let mut modes = Vec::new();
    for m in s.split(',') {
        let mode = match m.trim() {
            "zero1" | "1" => ZeroMode::Zero1,
            "zero2" | "2" => ZeroMode::Zero2,
            "zero3" | "3" => ZeroMode::Zero3,
            other => {
                return Err(QueryError::new(format!(
                    "zero: unknown mode {other:?} (want zero1|zero2|zero3)"
                )))
            }
        };
        if modes.contains(&mode) {
            return Err(QueryError::new(format!(
                "zero: mode {} repeated in {s:?}",
                zero_tag(mode)
            )));
        }
        modes.push(mode);
    }
    Ok(modes)
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, QueryError> {
    v.parse()
        .map_err(|_| QueryError::new(format!("{key}: bad number {v:?}")))
}

/// Parses exactly `N` comma-separated numbers; `None` if the count is
/// wrong or any part is not a number.
fn parse_list<T: std::str::FromStr, const N: usize>(v: &str) -> Option<[T; N]> {
    let parts: Vec<T> = v
        .split(',')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    parts.try_into().ok()
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    out.push_str(value);
}

/// Appends `q`'s non-default keys in table order; `canonical` leaves
/// out the execution hints.
fn render_fields<Q: Fields>(q: &Q, canonical: bool, out: &mut String) {
    let d = Q::default();
    for f in Q::FIELDS {
        if canonical && f.hint {
            continue;
        }
        if let Some(v) = (f.render)(q, &d) {
            push_kv(out, f.key, &v);
        }
    }
}

/// Builds a payload from its wire pairs, rejecting keys its table does
/// not declare.
fn parse_fields<Q: Fields>(kind: &str, pairs: &[(&str, &str)]) -> Result<Q, QueryError> {
    let mut q = Q::default();
    for &(k, v) in pairs {
        let field = Q::FIELDS
            .iter()
            .find(|f| f.key == k)
            .ok_or_else(|| QueryError::new(format!("{kind}: unknown key {k:?}")))?;
        (field.parse)(&mut q, v)?;
    }
    Ok(q)
}

/// Turns `--flag VALUE` and bare `--switch` arguments into wire tokens
/// through `Q`'s table. A `0x` hex value becomes decimal here: hex is a
/// CLI convenience for seeds, and the wire stays decimal.
fn push_flags<Q: Fields>(args: &[String], out: &mut String) -> Result<(), QueryError> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let field = arg
            .strip_prefix("--")
            .and_then(|name| {
                Q::FIELDS
                    .iter()
                    .find(|f| matches!(f.cli, Cli::Opt(n) | Cli::Switch(n) if n == name))
            })
            .ok_or_else(|| QueryError::new(format!("unrecognized argument {arg:?}")))?;
        if let Cli::Switch(_) = field.cli {
            push_kv(out, field.key, "true");
            continue;
        }
        let v = args
            .next()
            .ok_or_else(|| QueryError::new(format!("{arg} requires a value")))?;
        if v.is_empty() || v.contains(char::is_whitespace) {
            return Err(QueryError::new(format!("{arg}: bad value {v:?}")));
        }
        let hex = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X"));
        match hex.and_then(|h| u64::from_str_radix(h, 16).ok()) {
            Some(n) => push_kv(out, field.key, &n.to_string()),
            None => push_kv(out, field.key, v),
        }
    }
    Ok(())
}

impl Query {
    /// The query kind tag used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Analyze(_) => "analyze",
            Query::Fuzz(_) => "fuzz",
            Query::Bench => "bench",
            Query::Goodput => "goodput",
            Query::Search(_) => "search",
            Query::Stats => "stats",
            Query::Trace(_) => "trace",
            Query::Infer(_) => "infer",
        }
    }

    /// Encodes the query as one wire line (no trailing newline). Keys
    /// at their default value are omitted; key order is fixed, so the
    /// encoding is injective over semantically distinct queries.
    pub fn to_wire(&self) -> String {
        self.encode(false)
    }

    /// The canonical wire form: [`Query::to_wire`] with execution
    /// hints (the `threads` knob) normalized out. Two queries describe
    /// the same computation iff their canonical lines are equal.
    pub fn canonical_wire(&self) -> String {
        self.encode(true)
    }

    fn encode(&self, canonical: bool) -> String {
        let mut out = format!("{WIRE_MAGIC} {}", self.kind());
        match self {
            Query::Analyze(mode) => match mode {
                AnalyzeMode::List => push_kv(&mut out, "mode", "list"),
                AnalyzeMode::Config(name) => {
                    push_kv(&mut out, "mode", "config");
                    push_kv(&mut out, "config", name);
                }
                AnalyzeMode::Grid => push_kv(&mut out, "mode", "grid"),
                AnalyzeMode::GridIndex(i) => {
                    push_kv(&mut out, "mode", "grid_index");
                    push_kv(&mut out, "index", &i.to_string());
                }
            },
            Query::Fuzz(f) => render_fields(f, canonical, &mut out),
            Query::Search(s) => render_fields(s, canonical, &mut out),
            Query::Trace(t) => render_fields(t, canonical, &mut out),
            Query::Infer(i) => render_fields(i, canonical, &mut out),
            Query::Bench | Query::Goodput | Query::Stats => {}
        }
        out
    }

    /// A stable 64-bit hash (FNV-1a) of the canonical wire form — the
    /// coalescing key of the serve dispatcher.
    pub fn canonical_hash(&self) -> u64 {
        fnv1a(self.canonical_wire().as_bytes())
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    /// [`QueryError`] on a bad magic/version token, unknown kind,
    /// unknown/duplicate/malformed key, or a missing required key.
    pub fn parse_wire(line: &str) -> Result<Query, QueryError> {
        let mut tokens = line.split_whitespace();
        let magic = tokens
            .next()
            .ok_or_else(|| QueryError::new("empty query"))?;
        if magic != WIRE_MAGIC {
            return Err(QueryError::new(format!(
                "bad protocol token {magic:?} (this server speaks {WIRE_MAGIC})"
            )));
        }
        let kind = tokens
            .next()
            .ok_or_else(|| QueryError::new("missing query kind"))?;
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for t in tokens {
            let Some((k, v)) = t.split_once('=') else {
                return Err(QueryError::new(format!("bad token {t:?} (want key=value)")));
            };
            if pairs.iter().any(|&(seen, _)| seen == k) {
                return Err(QueryError::new(format!("duplicate key {k:?}")));
            }
            pairs.push((k, v));
        }
        let no_keys = |q: Query| match pairs.first() {
            Some((k, _)) => Err(QueryError::new(format!("{kind}: unknown key {k:?}"))),
            None => Ok(q),
        };
        match kind {
            "analyze" => parse_analyze(&pairs).map(Query::Analyze),
            "fuzz" => parse_fields(kind, &pairs).map(Query::Fuzz),
            "bench" => no_keys(Query::Bench),
            "goodput" => no_keys(Query::Goodput),
            "stats" => no_keys(Query::Stats),
            "search" => parse_fields(kind, &pairs).map(Query::Search),
            "trace" => parse_fields(kind, &pairs).map(Query::Trace),
            "infer" => parse_fields(kind, &pairs).map(Query::Infer),
            other => Err(QueryError::new(format!(
                "unknown query kind {other:?} (want analyze|fuzz|bench|goodput|search|stats|trace|infer)"
            ))),
        }
    }

    /// Parses the flags of `llama3sim <kind>` (`fuzz`, `search`,
    /// `trace` or `infer`). Each `--flag VALUE` or bare `--switch`
    /// becomes its `key=value` wire token through the kind's field
    /// table; `extra` holds wire tokens the caller derived from
    /// CLI-only switches (such as `mode=stats`). The line then goes
    /// through [`Query::parse_wire`], so the CLI and the wire share one
    /// parser.
    ///
    /// # Errors
    /// [`QueryError`] on an unrecognized flag, a missing or malformed
    /// value, or anything [`Query::parse_wire`] rejects.
    pub fn parse_cli(kind: &str, args: &[String], extra: &[&str]) -> Result<Query, QueryError> {
        let mut line = format!("{WIRE_MAGIC} {kind}");
        match kind {
            "fuzz" => push_flags::<FuzzQuery>(args, &mut line)?,
            "search" => push_flags::<SearchQuery>(args, &mut line)?,
            "trace" => push_flags::<TraceQuery>(args, &mut line)?,
            "infer" => push_flags::<InferQuery>(args, &mut line)?,
            other => {
                return Err(QueryError::new(format!(
                    "no command-line form for query kind {other:?}"
                )))
            }
        }
        for token in extra {
            line.push(' ');
            line.push_str(token);
        }
        Query::parse_wire(&line)
    }
}

/// Decodes the `analyze` keys. Unlike the table-declared kinds, which
/// key is required depends on the mode.
fn parse_analyze(pairs: &[(&str, &str)]) -> Result<AnalyzeMode, QueryError> {
    if let Some((k, _)) = pairs
        .iter()
        .find(|(k, _)| !["mode", "config", "index"].contains(k))
    {
        return Err(QueryError::new(format!("analyze: unknown key {k:?}")));
    }
    let get = |key: &str| pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
    match get("mode").unwrap_or("grid") {
        "list" => Ok(AnalyzeMode::List),
        "grid" => Ok(AnalyzeMode::Grid),
        "config" => get("config")
            .map(|name| AnalyzeMode::Config(name.to_string()))
            .ok_or_else(|| QueryError::new("analyze: mode=config wants config=NAME")),
        "grid_index" => {
            let index = get("index")
                .ok_or_else(|| QueryError::new("analyze: mode=grid_index wants index=N"))?;
            parse_num("index", index).map(AnalyzeMode::GridIndex)
        }
        other => Err(QueryError::new(format!(
            "analyze: unknown mode {other:?} (want list|config|grid|grid_index)"
        ))),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `analyze` response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeResponse {
    /// The named-configuration catalog: `(name, description)` pairs.
    List(Vec<(String, String)>),
    /// One analyzed configuration (a named config or one grid index).
    Config {
        /// The config's name (or grid spec display).
        name: String,
        /// The analyzer's findings.
        report: analyze::Report,
    },
    /// The full grid sweep: `(spec display, report)` per config.
    Grid(Vec<(String, analyze::Report)>),
}

impl AnalyzeResponse {
    /// `true` if any analyzed config has error-severity findings.
    pub fn has_errors(&self) -> bool {
        match self {
            AnalyzeResponse::List(_) => false,
            AnalyzeResponse::Config { report, .. } => report.has_errors(),
            AnalyzeResponse::Grid(results) => results.iter().any(|(_, r)| r.has_errors()),
        }
    }

    /// The legacy `--json` rendering: one JSON object per diagnostic
    /// (empty for a clean sweep or a list query).
    pub fn render_jsonl(&self) -> String {
        match self {
            AnalyzeResponse::List(_) => String::new(),
            AnalyzeResponse::Config { report, .. } => report.render_jsonl(),
            AnalyzeResponse::Grid(results) => results
                .iter()
                .map(|(_, r)| r.render_jsonl())
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }

    fn render_human(&self) -> String {
        match self {
            AnalyzeResponse::List(names) => names
                .iter()
                .map(|(name, desc)| format!("{name:<22} {desc}"))
                .collect::<Vec<_>>()
                .join("\n"),
            AnalyzeResponse::Config { name, report } => {
                format!("{name}: {}", report.render_human())
            }
            AnalyzeResponse::Grid(results) => {
                let mut out = String::new();
                let mut failed = 0usize;
                for (spec, report) in results {
                    if !report.is_clean() {
                        out.push_str(&format!("[{spec}]\n{}\n", report.render_human()));
                    }
                    if report.has_errors() {
                        failed += 1;
                    }
                }
                out.push_str(&format!(
                    "analyzed {} grid configs: {} with errors",
                    results.len(),
                    failed
                ));
                out
            }
        }
    }
}

/// A shrunk fuzz counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Index of the failing case in the sweep.
    pub case: u64,
    /// The original violation message.
    pub message: String,
    /// Display form of the minimized spec.
    pub min_display: String,
    /// The minimized spec's violation message.
    pub min_message: String,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
    /// Ready-to-paste `#[test]` reproducing the failure.
    pub snippet: String,
}

/// The `fuzz` response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzResponse {
    /// Cases swept.
    pub cases: u64,
    /// The sweep seed.
    pub seed: u64,
    /// The first (shrunk) violation, `None` on a clean sweep.
    pub counterexample: Option<Counterexample>,
}

impl FuzzResponse {
    fn render_human(&self) -> String {
        match &self.counterexample {
            None => format!(
                "conformance fuzz: {} cases, seed {:#x}: no counterexamples",
                self.cases, self.seed
            ),
            Some(ce) => ce.snippet.clone(),
        }
    }

    /// The diagnostic lines the CLI prints to stderr on a violation.
    pub fn render_diagnostics(&self) -> Option<String> {
        self.counterexample.as_ref().map(|ce| {
            format!(
                "counterexample at case {}/{} (seed {:#x}):\n  {}\nshrunk in {} steps to: {}\n  {}\n\npaste this test to pin the regression:\n",
                ce.case, self.cases, self.seed, ce.message, ce.shrink_steps, ce.min_display,
                ce.min_message
            )
        })
    }
}

/// The `bench` response payload: wall-clock timings of the simulator's
/// hot paths. Inherently nondeterministic — the only response kind
/// whose payload is wall-clock, which is why the serve dispatcher
/// never caches it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResponse {
    /// Median §5.1 planning sweep at 405B@16K, milliseconds.
    pub plan_ms: f64,
    /// The planner's chosen mesh, display form.
    pub plan_mesh: String,
    /// Median folded 8K-GPU step simulation, milliseconds.
    pub folded_ms: f64,
    /// Median full-fidelity step simulation, milliseconds.
    pub full_ms: f64,
    /// Whether folded and full reports were bit-identical.
    pub identical: bool,
    /// Median fluid solve of 1 024 transfers, milliseconds.
    pub fluid_ms: f64,
    /// Outcome count of the fluid solve.
    pub fluid_outcomes: usize,
}

impl BenchResponse {
    /// Full-over-folded speedup.
    pub fn speedup(&self) -> f64 {
        self.full_ms / self.folded_ms
    }

    fn render_human(&self) -> String {
        format!(
            "plan 405B @ 16K GPUs        {:9.2} ms   ({})\n\
             folded 8K-GPU 405B step     {:9.2} ms\n\
             full   8K-GPU 405B step     {:9.2} ms   ({:.1}x, identical: {})\n\
             fluid solve 1K transfers    {:9.2} ms   ({} outcomes)",
            self.plan_ms,
            self.plan_mesh,
            self.folded_ms,
            self.full_ms,
            self.speedup(),
            self.identical,
            self.fluid_ms,
            self.fluid_outcomes
        )
    }
}

/// The `goodput` response payload: the seeded 24 h production run.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputResponse {
    /// Wall-clock of the simulation itself, milliseconds.
    pub sim_wall_ms: f64,
    /// The fault-timeline seed.
    pub seed: u64,
    /// Simulated wall time, seconds.
    pub wall_time_s: f64,
    /// Goodput (effective-training-time ratio).
    pub goodput: f64,
    /// Steps whose work survived to the end of the run.
    pub steps_completed: u64,
    /// Job restarts.
    pub restarts: u32,
    /// Healthy step time, seconds.
    pub healthy_step_s: f64,
    /// Checkpoint write stalls, seconds.
    pub loss_checkpoint_s: f64,
    /// Failure-detection lag, seconds.
    pub loss_detect_s: f64,
    /// Reschedule plus restore, seconds.
    pub loss_restart_s: f64,
    /// Re-executed steps, seconds.
    pub loss_rework_s: f64,
    /// Degraded-mode overhead, seconds.
    pub loss_degraded_s: f64,
    /// Checkpoint shard size per rank, bytes.
    pub checkpoint_bytes_per_rank: u64,
    /// One checkpoint write stall, seconds.
    pub checkpoint_write_s: f64,
    /// Configured checkpoint interval, seconds.
    pub checkpoint_interval_s: f64,
    /// Young/Daly optimal interval, seconds.
    pub young_daly_interval_s: f64,
    /// Mean time between fatal faults, seconds.
    pub mtbf_s: f64,
}

impl GoodputResponse {
    fn render_human(&self) -> String {
        format!(
            "24 h, 16K GPUs, 405B, seed {:#x}\n\
             simulated in                {:9.2} ms\n\
             goodput                     {:9.4}\n\
             effective training time     {:9.4}\n\
             steps completed             {:9}\n\
             restarts                    {:9}\n\
             lost to checkpoints         {:9.0} s\n\
             lost to rework              {:9.0} s\n\
             lost to detect+restart      {:9.0} s\n\
             lost to degradation         {:9.0} s\n\
             Young/Daly interval         {:9.0} s (simulated: {:.0} s)",
            self.seed,
            self.sim_wall_ms,
            self.goodput,
            self.goodput,
            self.steps_completed,
            self.restarts,
            self.loss_checkpoint_s,
            self.loss_rework_s,
            self.loss_detect_s + self.loss_restart_s,
            self.loss_degraded_s,
            self.young_daly_interval_s,
            self.checkpoint_interval_s
        )
    }
}

/// The `search` response payload. Carries no wall-clock — timings are
/// measured by the caller around the dispatch, so two dispatches of
/// one query are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// The deterministic search report.
    pub report: SearchReport,
    /// The `expect` mesh of the query, if any.
    pub expect: Option<(u32, u32, u32, u32)>,
    /// Whether the expected mesh is on the frontier (`None` when no
    /// expectation was asked).
    pub expect_hit: Option<bool>,
}

/// One memo layer's stats line.
fn stats_line(label: &str, s: &CacheStats) -> String {
    format!(
        "{label:<16} hits {:>8}  misses {:>8}  entries {:>7}  ({:5.1}% hits)",
        s.hits,
        s.misses,
        s.entries,
        s.hit_rate() * 100.0
    )
}

/// The `stats` response payload: dispatcher counters plus every shared
/// memo layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsResponse {
    /// Queries dispatched (all kinds).
    pub queries: u64,
    /// Queries that joined an identical in-flight computation.
    pub coalesced: u64,
    /// Queries answered from the bounded response cache.
    pub response_hits: u64,
    /// Search computations actually run.
    pub searches_computed: u64,
    /// Searches derived from a cached wider-`max_cp` outcome set
    /// instead of re-running the funnel.
    pub frontier_reuses: u64,
    /// The shared collective-cost memo.
    pub cost: CacheStats,
    /// The shared schedule-shape (deadlock/race) verdict memo.
    pub sched: CacheStats,
    /// The shared TP/CP collective verdict memo.
    pub tp_cp: CacheStats,
    /// The shared FSDP collective verdict memo.
    pub fsdp: CacheStats,
}

impl StatsResponse {
    fn render_human(&self) -> String {
        format!(
            "queries dispatched    {:>8}\n\
             coalesced in-flight   {:>8}\n\
             response-cache hits   {:>8}\n\
             searches computed     {:>8}\n\
             frontier reuses       {:>8}\n\
             {}\n{}\n{}\n{}",
            self.queries,
            self.coalesced,
            self.response_hits,
            self.searches_computed,
            self.frontier_reuses,
            stats_line("cost cache", &self.cost),
            stats_line("sched verdicts", &self.sched),
            stats_line("tp/cp verdicts", &self.tp_cp),
            stats_line("fsdp verdicts", &self.fsdp),
        )
    }
}

/// The `trace` response payload. The body is fully deterministic (no
/// wall-clock), so the serve dispatcher caches and coalesces trace
/// queries like any other pure computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceResponse {
    /// The response flavour (echoes the query).
    pub mode: TraceMode,
    /// Full-resolution events the simulated run emitted.
    pub appended: u64,
    /// Events resident in the tiered store (the memory actually used).
    pub resident: u64,
    /// Tiers in the tower (including tier 0).
    pub tiers: u32,
    /// `false` if a smoke self-check found a mismatch.
    pub ok: bool,
    /// The rendered payload: chrome-trace JSON, the stats JSON
    /// envelope, or the smoke report.
    pub body: String,
}

impl TraceResponse {
    fn render_human(&self) -> String {
        self.body.clone()
    }
}

/// The `infer` response payload. Fully deterministic (no wall-clock),
/// so the serve dispatcher caches and coalesces inference queries like
/// any other pure computation.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Model name (echoes the query).
    pub model: String,
    /// The resolved serving mesh.
    pub plan: InferPlan,
    /// Traffic shape (echoes the query).
    pub traffic: TrafficShape,
    /// Requests the trace offered.
    pub offered: u64,
    /// The serving metrics.
    pub report: InferReport,
}

impl InferResponse {
    fn render_human(&self) -> String {
        format!(
            "{} × {} GPUs  tp{} pp{} × {} replicas  traffic {}\n{}",
            self.model,
            self.plan.gpus(),
            self.plan.tp,
            self.plan.pp,
            self.plan.replicas,
            self.traffic.tag(),
            self.report.render_human()
        )
    }
}

/// One response: the result of dispatching a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Query::Analyze`].
    Analyze(AnalyzeResponse),
    /// Answer to [`Query::Fuzz`].
    Fuzz(FuzzResponse),
    /// Answer to [`Query::Bench`].
    Bench(BenchResponse),
    /// Answer to [`Query::Goodput`].
    Goodput(GoodputResponse),
    /// Answer to [`Query::Search`].
    Search(Box<SearchResponse>),
    /// Answer to [`Query::Stats`].
    Stats(StatsResponse),
    /// Answer to [`Query::Trace`].
    Trace(TraceResponse),
    /// Answer to [`Query::Infer`].
    Infer(Box<InferResponse>),
}

impl Response {
    /// The response kind tag used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Analyze(_) => "analyze",
            Response::Fuzz(_) => "fuzz",
            Response::Bench(_) => "bench",
            Response::Goodput(_) => "goodput",
            Response::Search(_) => "search",
            Response::Stats(_) => "stats",
            Response::Trace(_) => "trace",
            Response::Infer(_) => "infer",
        }
    }

    /// The human rendering — for the deterministic kinds, byte-for-byte
    /// what the pre-query CLI printed (minus wall-clock and envelope
    /// lines, which stay with the caller). No trailing newline.
    pub fn render_human(&self) -> String {
        match self {
            Response::Analyze(r) => r.render_human(),
            Response::Fuzz(r) => r.render_human(),
            Response::Bench(r) => r.render_human(),
            Response::Goodput(r) => r.render_human(),
            Response::Search(r) => r.report.render_human(),
            Response::Stats(r) => r.render_human(),
            Response::Trace(r) => r.render_human(),
            Response::Infer(r) => r.render_human(),
        }
    }

    /// The wire encoding: a status line, then the human rendering.
    /// Both the server and direct dispatch serialize through here, so
    /// the conformance oracle can compare the two byte-for-byte.
    pub fn render_wire(&self) -> String {
        format!("{WIRE_MAGIC} ok {}\n{}\n", self.kind(), self.render_human())
    }

    /// The wire encoding of an error.
    pub fn render_wire_error(err: &QueryError) -> String {
        format!("{WIRE_MAGIC} err {}\n", err.message)
    }

    /// The process exit code the CLI maps this response to.
    pub fn exit_code(&self) -> i32 {
        match self {
            Response::Analyze(r) => i32::from(r.has_errors()),
            Response::Bench(r) => i32::from(!r.identical),
            Response::Fuzz(r) => i32::from(r.counterexample.is_some()),
            Response::Search(r) => i32::from(r.expect_hit == Some(false)),
            Response::Trace(r) => i32::from(!r.ok),
            Response::Infer(r) => i32::from(r.report.completed == 0),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_hash_ignores_execution_hints() {
        let a = Query::Search(SearchQuery {
            threads: 1,
            ..SearchQuery::default()
        });
        let b = Query::Search(SearchQuery {
            threads: 16,
            ..SearchQuery::default()
        });
        assert_eq!(a.canonical_wire(), b.canonical_wire());
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        let c = Query::Search(SearchQuery {
            max_cp: 2,
            ..SearchQuery::default()
        });
        assert_ne!(a.canonical_hash(), c.canonical_hash());

        let i1 = Query::Infer(InferQuery {
            threads: 1,
            ..InferQuery::default()
        });
        let i16 = Query::Infer(InferQuery {
            threads: 16,
            ..InferQuery::default()
        });
        assert_eq!(i1.canonical_hash(), i16.canonical_hash());
        let ib = Query::Infer(InferQuery {
            traffic: TrafficShape::Bursty,
            ..InferQuery::default()
        });
        assert_ne!(i1.canonical_hash(), ib.canonical_hash());
    }

    #[test]
    fn defaults_are_omitted_from_the_wire() {
        assert_eq!(
            Query::Search(SearchQuery::default()).to_wire(),
            "llama3sim/1 search"
        );
        assert_eq!(
            Query::Fuzz(FuzzQuery::default()).to_wire(),
            "llama3sim/1 fuzz"
        );
        assert_eq!(
            Query::Infer(InferQuery::default()).to_wire(),
            "llama3sim/1 infer"
        );
        assert_eq!(
            Query::parse_wire("llama3sim/1 search").unwrap(),
            Query::Search(SearchQuery::default())
        );
        assert_eq!(
            Query::parse_wire("llama3sim/1 infer").unwrap(),
            Query::Infer(InferQuery::default())
        );
    }

    #[test]
    fn v1_training_lines_are_byte_identical_under_v2() {
        // The schema bump to v2 is additive: every v1 training line
        // must re-encode to exactly itself.
        for line in [
            "llama3sim/1 search",
            "llama3sim/1 search model=8b gpus=8 max_cp=2",
            "llama3sim/1 search gpus=8192 zero=zero1,zero3 expect=8,1,16,128 guided=true",
            "llama3sim/1 trace model=8b gpus=8 seq=4096 horizon=3600 seed=9",
            "llama3sim/1 analyze mode=grid",
            "llama3sim/1 fuzz cases=40 seed=7",
            "llama3sim/1 goodput",
        ] {
            let q = Query::parse_wire(line).unwrap();
            assert_eq!(q.to_wire(), line, "v1 line must survive v2 re-encoding");
        }
        // The workload key is emitted only when non-default.
        let infer_search = Query::Search(SearchQuery {
            workload: Workload::Inference,
            ..SearchQuery::default()
        });
        assert_eq!(infer_search.to_wire(), "llama3sim/1 search workload=infer");
    }

    #[test]
    fn malformed_wire_is_rejected() {
        for bad in [
            "",
            "llama3sim/2 stats",
            "llama3sim/1",
            "llama3sim/1 frobnicate",
            "llama3sim/1 search bogus=1",
            "llama3sim/1 search gpus=x",
            "llama3sim/1 search gpus=8 gpus=8",
            "llama3sim/1 search expect=1,2",
            "llama3sim/1 search zero=zero9",
            "llama3sim/1 search guided=maybe",
            "llama3sim/1 analyze mode=config",
            "llama3sim/1 analyze mode=what",
            "llama3sim/1 fuzz cases",
            "llama3sim/1 bench cases=1",
            "llama3sim/1 trace mode=zoomy",
            "llama3sim/1 trace window=5",
            "llama3sim/1 trace window=9,3",
            "llama3sim/1 trace zoom=x",
            "llama3sim/1 trace bogus=1",
            "llama3sim/1 search workload=serving",
            "llama3sim/1 infer traffic=nope",
            "llama3sim/1 infer gpus=x",
            "llama3sim/1 infer bogus=1",
            "llama3sim/1 infer rpd=1 rpd=1",
            // Every part of a list value must parse.
            "llama3sim/1 search expect=1,x,1,1,8",
            "llama3sim/1 search expect=8,1,16,",
            "llama3sim/1 trace window=100,abc,160",
            "llama3sim/1 trace window=,160",
            // A repeated ZeRO mode would enumerate every candidate twice.
            "llama3sim/1 search zero=zero1,zero1",
            "llama3sim/1 search zero=zero1,zero3,1",
        ] {
            assert!(Query::parse_wire(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn repeated_zero_mode_is_named_and_order_is_kept() {
        let err = Query::parse_wire("llama3sim/1 search zero=zero2,zero1,zero2").unwrap_err();
        assert!(err.message.contains("zero2 repeated"), "{err}");
        let Query::Search(s) = Query::parse_wire("llama3sim/1 search zero=zero3,zero1").unwrap()
        else {
            panic!("expected a search query");
        };
        assert_eq!(s.zero, vec![ZeroMode::Zero3, ZeroMode::Zero1]);
    }

    fn cli(kind: &str, args: &[&str], extra: &[&str]) -> Result<Query, QueryError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Query::parse_cli(kind, &args, extra)
    }

    #[test]
    fn cli_flags_parse_the_full_surface() {
        let search = cli(
            "search",
            &[
                "--model",
                "8b",
                "--gpus",
                "16",
                "--seq",
                "4096",
                "--layers",
                "4",
                "--budget",
                "65536",
                "--expect",
                "2,1,2,4",
                "--goodput-head",
                "3",
                "--threads",
                "2",
                "--max-cp",
                "2",
                "--zero",
                "zero1,zero3",
                "--workload",
                "infer",
                "--guided",
            ],
            &[],
        )
        .unwrap();
        assert_eq!(
            search,
            Query::Search(SearchQuery {
                model: "8b".into(),
                gpus: 16,
                seq: 4096,
                layers: 4,
                budget: 65_536,
                goodput_head: 3,
                threads: 2,
                max_cp: 2,
                zero: vec![ZeroMode::Zero1, ZeroMode::Zero3],
                expect: Some((2, 1, 2, 4)),
                guided: true,
                workload: Workload::Inference,
            })
        );
        let Query::Search(q) = &search else {
            unreachable!()
        };
        let spec = q.to_spec().unwrap();
        assert_eq!(spec.input.ngpu, 16);
        assert_eq!(spec.strategy, SearchStrategy::Guided);
        assert_eq!(
            cli("search", &[], &[]).unwrap(),
            Query::Search(SearchQuery::default())
        );

        let infer = cli(
            "infer",
            &[
                "--model",
                "8b",
                "--gpus",
                "16",
                "--tp",
                "2",
                "--pp",
                "2",
                "--traffic",
                "bursty",
                "--rpd",
                "50000",
                "--horizon-s",
                "3600",
                "--seed",
                "0x9",
                "--block",
                "32",
                "--max-batch",
                "64",
                "--slo-ttft-ms",
                "500",
                "--slo-tpot-ms",
                "50",
                "--threads",
                "2",
            ],
            &[],
        )
        .unwrap();
        assert_eq!(
            infer,
            Query::Infer(InferQuery {
                model: "8b".into(),
                gpus: 16,
                tp: 2,
                pp: 2,
                traffic: TrafficShape::Bursty,
                requests_per_day: 50_000,
                horizon_s: 3_600,
                seed: 9,
                block: 32,
                max_batch: 64,
                slo_ttft_ms: 500,
                slo_tpot_ms: 50,
                threads: 2,
            })
        );

        let trace = cli(
            "trace",
            &[
                "--model",
                "8b",
                "--gpus",
                "8",
                "--seq",
                "4096",
                "--horizon-s",
                "3600",
                "--seed",
                "0xC0FFEE",
                "--tier0",
                "128",
                "--window",
                "100,160",
                "--zoom",
                "2",
            ],
            &["mode=stats"],
        )
        .unwrap();
        assert_eq!(
            trace,
            Query::Trace(TraceQuery {
                model: "8b".into(),
                gpus: 8,
                seq: 4096,
                horizon_s: 3600,
                seed: 12_648_430,
                tier0: 128,
                window: Some((100, 160)),
                zoom: 2,
                mode: TraceMode::Stats,
            })
        );
        // Hex is a CLI convenience; the wire stays decimal.
        assert!(
            trace.to_wire().contains(" seed=12648430 "),
            "{}",
            trace.to_wire()
        );

        assert_eq!(
            cli("fuzz", &["--cases", "200", "--seed", "0xC0FFEE"], &[]).unwrap(),
            Query::Fuzz(FuzzQuery {
                cases: 200,
                seed: 12_648_430
            })
        );
    }

    #[test]
    fn bad_cli_flags_are_rejected() {
        for (kind, args) in [
            ("search", &["--expect", "8,1,16"][..]),
            ("search", &["--expect", "1,x,1,1,8"]),
            ("search", &["--frontier"]),
            ("search", &["--zero", "zero4"]),
            ("search", &["--zero", "zero1,zero1"]),
            ("search", &["--gpus"]),
            ("search", &["--gpus", "lots"]),
            ("search", &["--gpus", "99999999999"]),
            ("search", &["--gpus", "8", "--gpus", "8"]),
            ("search", &["--head", "2"]),
            ("search", &["--model", "8b gpus=4"]),
            ("search", &["gpus", "8"]),
            ("infer", &["--traffic", "nope"]),
            ("infer", &["--grid"]),
            ("infer", &["--horizon", "60"]),
            ("trace", &["--window", "100,abc,160"]),
            ("trace", &["--window", "9,3"]),
            ("trace", &["--mode", "stats"]),
            ("trace", &["--json"]),
            ("fuzz", &["--seed", "0xZZ"]),
            ("analyze", &["--list"]),
        ] {
            assert!(
                cli(kind, args, &[]).is_err(),
                "{kind} {args:?} should not parse"
            );
        }
        // An unknown model parses; it is rejected when the query resolves.
        let Query::Search(q) = cli("search", &["--model", "1t"], &[]).unwrap() else {
            unreachable!()
        };
        assert!(q.to_spec().is_err());
    }

    /// Sampling helpers over the vendored proptest stream.
    struct Rng(proptest::test_runner::TestRng);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0.next_u64() % n
        }

        fn coin(&mut self) -> bool {
            self.below(2) == 0
        }

        /// Half the time the default, otherwise a small or a huge value.
        fn num<T: TryFrom<u64>>(&mut self, default: T) -> T {
            match self.below(4) {
                0 | 1 => default,
                2 => T::try_from(self.below(100)).ok().unwrap_or(default),
                _ => T::try_from(self.0.next_u64() >> self.below(64))
                    .ok()
                    .unwrap_or(default),
            }
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    fn random_query(rng: &mut Rng) -> Query {
        let model = ["405b", "70b", "8b", "1t"][rng.below(4) as usize].to_string();
        match rng.below(8) {
            0 => Query::Analyze(match rng.below(4) {
                0 => AnalyzeMode::List,
                1 => AnalyzeMode::Grid,
                2 => AnalyzeMode::Config(format!("cfg_{}", rng.below(100))),
                _ => AnalyzeMode::GridIndex(rng.num(0)),
            }),
            1 => Query::Fuzz(FuzzQuery {
                cases: rng.num(500),
                seed: rng.num(1),
            }),
            2 => [Query::Bench, Query::Goodput, Query::Stats][rng.below(3) as usize].clone(),
            3 => {
                let mut zero = Vec::new();
                for z in [ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3] {
                    if rng.coin() {
                        zero.insert(rng.below(zero.len() as u64 + 1) as usize, z);
                    }
                }
                Query::Search(SearchQuery {
                    model,
                    gpus: rng.num(16_384),
                    seq: rng.num(8_192),
                    layers: rng.num(0),
                    budget: rng.num(0),
                    goodput_head: rng.num(0),
                    threads: rng.num(0),
                    max_cp: rng.num(0),
                    zero,
                    expect: rng
                        .coin()
                        .then(|| (rng.num(8), rng.num(1), rng.num(16), rng.num(128))),
                    guided: rng.coin(),
                    workload: rng.pick(&[Workload::Training, Workload::Inference]),
                })
            }
            4 | 5 => {
                let t0: u64 = rng.num(0);
                Query::Trace(TraceQuery {
                    model,
                    gpus: rng.num(16_384),
                    seq: rng.num(8_192),
                    horizon_s: rng.num(86_400),
                    seed: rng.num(DEFAULT_TRACE_SEED),
                    tier0: rng.num(4_096),
                    window: (rng.coin() && t0 < u64::MAX).then(|| (t0, t0 + 1 + rng.below(1000))),
                    zoom: rng.num(0),
                    mode: rng.pick(&[TraceMode::Chrome, TraceMode::Stats, TraceMode::Smoke]),
                })
            }
            _ => Query::Infer(InferQuery {
                model,
                gpus: rng.num(16_384),
                tp: rng.num(0),
                pp: rng.num(0),
                traffic: rng.pick(&TrafficShape::ALL),
                requests_per_day: rng.num(1_000_000),
                horizon_s: rng.num(86_400),
                seed: rng.num(1),
                block: rng.num(16),
                max_batch: rng.num(256),
                slo_ttft_ms: rng.num(2_000),
                slo_tpot_ms: rng.num(100),
                threads: rng.num(0),
            }),
        }
    }

    /// A parse of an arbitrary line must not panic, and whatever parses
    /// must re-encode to a line that parses back to the same query.
    fn parses_stably(line: &str) {
        if let Ok(q) = Query::parse_wire(line) {
            let wire = q.to_wire();
            assert_eq!(
                Query::parse_wire(&wire).as_ref(),
                Ok(&q),
                "{line:?} -> {wire:?}"
            );
        }
    }

    #[test]
    fn codec_round_trips_seeded_random_queries_and_survives_mutation() {
        let mut rng = Rng(proptest::test_runner::TestRng::new(0xC0DEC));
        for _ in 0..2_000 {
            let q = random_query(&mut rng);
            let wire = q.to_wire();
            assert_eq!(Query::parse_wire(&wire).as_ref(), Ok(&q), "{wire}");

            // `threads` is an execution hint: the canonical form drops it.
            let mut hinted = q.clone();
            match &mut hinted {
                Query::Search(s) => s.threads = 7,
                Query::Infer(i) => i.threads = 7,
                _ => {}
            }
            assert_eq!(hinted.canonical_wire(), q.canonical_wire());
            assert_eq!(hinted.canonical_hash(), q.canonical_hash());
            assert!(!q.canonical_wire().contains("threads="));

            // Truncation at every byte: never a panic. Cutting into
            // the magic token or dropping the kind is always an error.
            for cut in 0..=wire.len() {
                if wire.is_char_boundary(cut) {
                    parses_stably(&wire[..cut]);
                }
            }
            for cut in 0..WIRE_MAGIC.len() + 1 {
                assert!(
                    Query::parse_wire(&wire[..cut]).is_err(),
                    "{:?}",
                    &wire[..cut]
                );
            }

            // Token drops: losing the magic or the kind is an error;
            // losing a table-declared pair resets that key to its
            // default (analyze keys depend on the mode, so they only
            // have to parse stably).
            let tokens: Vec<&str> = wire.split(' ').collect();
            for drop in 0..tokens.len() {
                let mut kept = tokens.clone();
                kept.remove(drop);
                let line = kept.join(" ");
                if drop < 2 {
                    assert!(Query::parse_wire(&line).is_err(), "{line:?}");
                } else if let Query::Analyze(_) = q {
                    parses_stably(&line);
                } else {
                    let back = Query::parse_wire(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
                    assert_eq!(back.kind(), q.kind());
                }
            }

            // Byte mutations: never a panic; a key=value token whose
            // '=' is replaced, or a duplicated pair, is always an error.
            let mut bytes = wire.clone().into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.below(128) as u8;
            parses_stably(&String::from_utf8_lossy(&bytes));
            if let Some(eq) = wire.find('=') {
                let mut broken = wire.clone();
                broken.replace_range(eq..=eq, ":");
                assert!(Query::parse_wire(&broken).is_err(), "{broken:?}");
                let pair = tokens[2];
                assert!(Query::parse_wire(&format!("{wire} {pair}")).is_err());
            }
        }
    }

    #[test]
    fn search_query_resolves_to_the_spec() {
        let q = SearchQuery {
            model: "8b".into(),
            gpus: 8,
            seq: 8192,
            layers: 4,
            budget: 16 * 8192,
            max_cp: 2,
            zero: vec![ZeroMode::Zero1],
            threads: 2,
            goodput_head: 1,
            ..SearchQuery::default()
        };
        let spec = q.to_spec().unwrap();
        assert_eq!(spec.input.ngpu, 8);
        assert_eq!(spec.input.model.num_layers, 4);
        assert_eq!(spec.input.token_budget, 16 * 8192);
        assert_eq!(spec.max_cp, 2);
        assert_eq!(spec.zero_modes, vec![ZeroMode::Zero1]);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.goodput_head, 1);
        assert!(SearchQuery {
            model: "1t".into(),
            ..SearchQuery::default()
        }
        .to_spec()
        .is_err());
    }

    #[test]
    fn responses_render_and_map_exit_codes() {
        let clean = Response::Fuzz(FuzzResponse {
            cases: 3,
            seed: 0xC0FFEE,
            counterexample: None,
        });
        assert_eq!(clean.exit_code(), 0);
        assert_eq!(
            clean.render_human(),
            "conformance fuzz: 3 cases, seed 0xc0ffee: no counterexamples"
        );
        assert!(clean.render_wire().starts_with("llama3sim/1 ok fuzz\n"));
        let err = Response::render_wire_error(&QueryError::new("nope"));
        assert_eq!(err, "llama3sim/1 err nope\n");

        let list = Response::Analyze(AnalyzeResponse::List(vec![(
            "a".into(),
            "first config".into(),
        )]));
        assert_eq!(list.render_human(), format!("{:<22} first config", "a"));
        assert_eq!(list.exit_code(), 0);

        let stats = Response::Stats(StatsResponse::default());
        assert!(stats.render_human().contains("cost cache"));

        // A folded/full divergence is a failed check, not a panic.
        let bench = |identical| BenchResponse {
            plan_ms: 1.0,
            plan_mesh: "tp8".into(),
            folded_ms: 1.0,
            full_ms: 2.0,
            identical,
            fluid_ms: 1.0,
            fluid_outcomes: 1,
        };
        assert_eq!(Response::Bench(bench(true)).exit_code(), 0);
        assert_eq!(Response::Bench(bench(false)).exit_code(), 1);
    }
}
