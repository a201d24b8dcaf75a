//! Shard-scaling sweep: the ten-group stateless workload through a
//! [`ShardedEngine`](gasf_core::shard::ShardedEngine) at 1/2/4/8 shards
//! for each of RG/PS/SI.
//!
//! One iteration builds the sharded engine (routes dealt round-robin
//! over the shards), replays the whole trace into a [`NullSink`] in 128-row
//! batches (chunked once, outside the timed loop) and finishes the
//! stream — so `mean_ns` is the wall-clock cost of the complete run
//! and shard scaling shows up directly as a lower mean. The ten routes
//! are independent filter groups, which is exactly the parallelism the
//! sharding exploits; expect near-linear scaling up to the machine's core
//! count and a plateau beyond it (a single-core container shows ~1×
//! across the whole sweep — the channels and merge add only a few percent
//! there).

mod common;

use criterion::{criterion_main, BenchmarkId, Criterion};
use gasf_bench::runner::{sharded_engine, Variant};
use gasf_bench::specs::ten_groups_stateless;
use gasf_core::engine::OutputStrategy;
use gasf_core::sink::NullSink;
use std::hint::black_box;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let trace = common::trace();
    let groups = ten_groups_stateless(&trace);
    let batches: Vec<_> = trace.batches(128).into_iter().map(Arc::new).collect();
    let mut g = c.benchmark_group("scaling");
    for v in [Variant::Rg, Variant::Ps, Variant::Si] {
        for shards in [1usize, 2, 4, 8] {
            let id = BenchmarkId::new(v.label(), format!("{shards}shards"));
            g.bench_with_input(id, &shards, |b, &shards| {
                b.iter(|| {
                    let mut engine = sharded_engine(
                        &trace,
                        &groups,
                        v.algorithm(),
                        OutputStrategy::Earliest,
                        shards,
                    );
                    for batch in &batches {
                        engine.push_batch_columnar(batch, &mut NullSink).unwrap();
                    }
                    engine.finish_into(&mut NullSink).unwrap();
                    black_box(engine.metrics().emissions)
                })
            });
        }
    }
    g.finish();
}

fn benches() {
    let mut c = common::criterion();
    bench(&mut c);
}
criterion_main!(benches);
