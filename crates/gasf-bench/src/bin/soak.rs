//! Soak-run CLI: drives the million-subscriber soak and prints its
//! outcome as one JSON object.
//!
//! ```text
//! cargo run -q --release -p gasf-bench --bin soak          # full: 10⁶ subscriptions
//! GASF_BENCH_SMOKE=1 cargo run -q --release -p gasf-bench --bin soak   # CI: 10⁴
//! ```
//!
//! Every run asserts the soak invariants ([`SoakOutcome::assert_sane`]):
//! deliveries happened, p50 ≤ p99 ≤ max, the group-aware path spent
//! fewer bytes than naive multicast, pressure throttled and degraded
//! headroom subscriptions, and calm restored every one of them. The one
//! full run on record is in `docs/ARCHITECTURE.md`'s "soak layer" bullet
//! (single-vCPU caveat: wall-clock is one core doing a cluster's work).

use gasf_bench::soak::{run_soak, SoakConfig, SoakOutcome};
use std::time::Instant;

fn main() {
    let cfg = SoakConfig::from_env();
    eprintln!(
        "soak: {} subscriptions, {} tuples, {}x{} grid, parallelism {}",
        cfg.subscriptions, cfg.tuples, cfg.grid.0, cfg.grid.1, cfg.parallelism
    );
    let started = Instant::now();
    let outcome: SoakOutcome = run_soak(&cfg);
    let wall = started.elapsed();
    outcome.assert_sane();
    eprintln!(
        "soak: done in {:.1}s — p50 {} µs, p99 {} µs, saved {:.1}% of naive bytes",
        wall.as_secs_f64(),
        outcome.p50_us,
        outcome.p99_us,
        outcome.savings_ratio() * 100.0
    );
    println!("{}", outcome.to_json());
}
