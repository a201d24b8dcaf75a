//! Wide-roster sweep: per-tuple CPU of the fused `CompiledRoster`
//! evaluator at 16/64/256 filters per group.
//!
//! The rosters are overlapping delta filters on one attribute (the
//! paper's group premise), so the compiled roster collapses them into one
//! key class whose cohort cascade decides most members with a single
//! `|Δ|` plus a binary search.
//!
//! `twin_roster/compiled/4x64` holds the 64-filter roster four times
//! over: the compiled roster folds the copies into the 64 members
//! (identical subscriptions cost one filter), so it should read close to
//! `twin_roster/compiled/64`, the same 64 filters once.

mod common;

use criterion::{criterion_main, BenchmarkId, Criterion};
use gasf_core::engine::{Algorithm, GroupEngine};
use gasf_core::quality::FilterSpec;
use gasf_core::sink::NullSink;
use gasf_sources::Trace;
use std::hint::black_box;

const WIDTHS: [usize; 3] = [16, 64, 256];

/// `n` overlapping delta filters over one attribute: granularities spread
/// from tight to loose with a fixed small slack, so a handful of filters
/// track every swing while the long tail sits searching far below its
/// qualification threshold — the regime the cohort cascade prunes
/// wholesale.
fn roster(trace: &Trace, n: usize) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    (0..n)
        .map(|i| FilterSpec::delta("tmpr4", s * (3.0 + 0.25 * i as f64), s * 0.6))
        .collect()
}

fn run(trace: &Trace, specs: &[FilterSpec]) -> u64 {
    let mut engine = GroupEngine::builder(trace.schema().clone())
        .algorithm(Algorithm::RegionGreedy)
        .filters(specs.iter().cloned())
        .build()
        .expect("bench roster builds");
    let mut sink = NullSink;
    engine
        .run_into(trace.tuples().iter().cloned(), &mut sink)
        .expect("bench stream is well-formed");
    engine.metrics().emissions
}

fn bench(c: &mut Criterion) {
    let trace = common::trace();
    let mut g = c.benchmark_group("wide_roster");
    for width in WIDTHS {
        let specs = roster(&trace, width);
        g.bench_with_input(BenchmarkId::new("compiled", width), &specs, |b, specs| {
            b.iter(|| black_box(run(&trace, specs)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("twin_roster");
    let distinct = roster(&trace, 64);
    let copies: Vec<FilterSpec> = (0..256).map(|i| distinct[i % 64].clone()).collect();
    for (label, specs) in [("64", &distinct), ("4x64", &copies)] {
        g.bench_with_input(BenchmarkId::new("compiled", label), specs, |b, specs| {
            b.iter(|| black_box(run(&trace, specs)))
        });
    }
    g.finish();
}

fn benches() {
    let mut c = common::criterion();
    bench(&mut c);
}
criterion_main!(benches);
