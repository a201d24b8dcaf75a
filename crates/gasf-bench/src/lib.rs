//! # gasf-bench — experiment harness
//!
//! One runner per table/figure of the dissertation's evaluation (Ch. 4 and
//! Ch. 5), regenerating the paper's rows/series on the synthetic
//! substrates; each table notes the paper's claim next to the measured
//! rows, and `experiments -- --list` lists the runners.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p gasf-bench --release --bin experiments -- all
//! ```
//!
//! or a single experiment (`fig4_2`, `tab5_3`, …). Criterion benches for
//! the CPU-cost figures live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod soak;
pub mod specs;

pub use report::Table;
pub use runner::{run_engine, RunOutcome, Variant};
pub use soak::{run_soak, SoakConfig, SoakOutcome};
