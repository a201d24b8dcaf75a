//! The GASF benchmark's parts; the `bench` binary (`src/bin/bench.rs`)
//! is the one command that runs them. See `perfbench/README.md`.

pub mod driver;
pub mod hist;
pub mod layers;
pub mod report;
pub mod subscriber;
pub mod timed;
pub mod workloads;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
