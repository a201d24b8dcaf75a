//! Columnar-batch ingestion vs. the single-tuple hot path.
//!
//! `batch_ingest/<feed>/<n>shards` replays the shared 2 000-tuple NAMOS
//! trace through one group of 256 overlapping delta filters (the
//! `wide_roster` roster) — `single` pushes one row at a
//! time (a `Tuple` through `push_into` inline; a one-row batch through
//! the sharded engine, whose only entry is columnar — so at 4 shards it
//! prices a thread hand-off per row), `batch64`/`batch1024` feed
//! pre-chunked [`TupleBatch`]es through `push_batch_columnar`. One
//! iteration is a full trace replay into a [`NullSink`], so the columnar
//! win (amortised per-batch validation/derivation, lazy payload
//! interning, one `Arc` per shard broadcast) appears as a lower mean.
//! Batches are chunked once outside the timed loop: the generators emit
//! batches natively, so ingestion — not conversion — is what is priced.

mod common;

use criterion::{criterion_main, BenchmarkId, Criterion};
use gasf_core::batch::TupleBatch;
use gasf_core::engine::{Algorithm, GroupEngine, GroupEngineBuilder};
use gasf_core::quality::FilterSpec;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::NullSink;
use gasf_sources::Trace;
use std::hint::black_box;
use std::sync::Arc;

const ROSTER_WIDTH: usize = 256;
const BATCH_SIZES: [usize; 2] = [64, 1024];

/// The `wide_roster` 256-filter roster: overlapping deltas on one
/// attribute, granularities spread from tight to loose with fixed slack.
fn roster(trace: &Trace) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    (0..ROSTER_WIDTH)
        .map(|i| FilterSpec::delta("tmpr4", s * (3.0 + 0.25 * i as f64), s * 0.6))
        .collect()
}

fn engine_builder(trace: &Trace, specs: &[FilterSpec]) -> GroupEngineBuilder {
    GroupEngine::builder(trace.schema().clone())
        .algorithm(Algorithm::RegionGreedy)
        .filters(specs.iter().cloned())
}

fn run_single(trace: &Trace, specs: &[FilterSpec]) -> u64 {
    let mut engine = engine_builder(trace, specs).build().expect("roster builds");
    engine
        .run_into(trace.tuples().iter().cloned(), &mut NullSink)
        .expect("bench stream is well-formed");
    engine.metrics().emissions
}

fn run_batched(trace: &Trace, specs: &[FilterSpec], batches: &[Arc<TupleBatch>]) -> u64 {
    let mut engine = engine_builder(trace, specs).build().expect("roster builds");
    for batch in batches {
        engine
            .push_batch_columnar(batch, &mut NullSink)
            .expect("bench stream is well-formed");
    }
    engine.finish_into(&mut NullSink).expect("finish succeeds");
    engine.metrics().emissions
}

fn sharded(trace: &Trace, specs: &[FilterSpec], shards: usize) -> ShardedEngine {
    ShardedEngine::builder()
        .parallelism(shards)
        .route("group", engine_builder(trace, specs))
        .build()
        .expect("sharded roster builds")
}

fn run_batched_sharded(
    trace: &Trace,
    specs: &[FilterSpec],
    batches: &[Arc<TupleBatch>],
    shards: usize,
) -> u64 {
    let mut engine = sharded(trace, specs, shards);
    for batch in batches {
        engine
            .push_batch_columnar(batch, &mut NullSink)
            .expect("bench stream is well-formed");
    }
    engine.finish_into(&mut NullSink).expect("finish succeeds");
    engine.metrics().emissions
}

fn bench(c: &mut Criterion) {
    let trace = common::trace();
    let specs = roster(&trace);
    let chunked: Vec<(usize, Vec<Arc<TupleBatch>>)> = BATCH_SIZES
        .iter()
        .map(|&size| {
            (
                size,
                trace.batches(size).into_iter().map(Arc::new).collect(),
            )
        })
        .collect();

    let rows: Vec<Arc<TupleBatch>> = trace.batches(1).into_iter().map(Arc::new).collect();

    let mut g = c.benchmark_group("batch_ingest");
    for shards in [1usize, 4] {
        let suffix = format!("{shards}shards");
        g.bench_with_input(
            BenchmarkId::new("single", &suffix),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    black_box(if shards == 1 {
                        run_single(&trace, &specs)
                    } else {
                        run_batched_sharded(&trace, &specs, &rows, shards)
                    })
                })
            },
        );
        for (size, batches) in &chunked {
            g.bench_with_input(
                BenchmarkId::new(format!("batch{size}"), &suffix),
                &shards,
                |b, &shards| {
                    b.iter(|| {
                        black_box(if shards == 1 {
                            run_batched(&trace, &specs, batches)
                        } else {
                            run_batched_sharded(&trace, &specs, batches, shards)
                        })
                    })
                },
            );
        }
    }
    g.finish();
}

fn benches() {
    let mut c = common::criterion();
    bench(&mut c);
}
criterion_main!(benches);
