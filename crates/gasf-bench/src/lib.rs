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
//! or a single experiment (`fig4_2`, `tab5_3`, …). The CPU-cost figures
//! are tables here too (fig4_3, fig4_10, fig4_14, fig4_18, fig4_24,
//! tab5_3); the workspace's timings live in `perfbench/`.

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
