//! # bench-harness
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation. Run `cargo run -p bench-harness --bin repro --
//! all` (or a single experiment id; `list` enumerates them). The
//! simulator's own performance is measured by the `perfbench` benchmark
//! at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod configs;
pub mod experiments;
pub mod report;
pub mod snapshot;
