//! Fault-tolerance cost: checkpoint barriers and crash-restore
//! throughput, at 1 and 4 worker shards.
//!
//! `recovery/checkpoint/<n>shards` replays the shared NAMOS trace
//! through a `ShardedEngine` in 128-row batches while taking a
//! safe-point checkpoint every 500 tuples — one iteration is the full
//! run (build + stream + 4
//! barriers + finish), so the mean against `scaling/...`'s
//! checkpoint-free shape is the end-to-end price of durability.
//! `recovery/restore/<n>shards` checkpoints once at mid-stream, crashes
//! (drops the engine) at the three-quarter mark, restores a new engine
//! from the checkpoint and replays the suffix from there — the mean
//! tracks crash-recovery throughput (restore + replay of ~500 tuples +
//! the remaining stream).
//! Byte-identical output is asserted in `tests/`; here only the cost is
//! measured.

mod common;

use criterion::{criterion_main, BenchmarkId, Criterion};
use gasf_core::prelude::*;
use std::hint::black_box;
use std::sync::Arc;

fn engine(trace: &gasf_sources::Trace, s: f64, shards: usize) -> ShardedEngine {
    let group = GroupEngine::builder(trace.schema().clone())
        .filter(FilterSpec::delta("tmpr4", s * 2.0, s))
        .filter(FilterSpec::delta("tmpr4", s * 3.0, s * 1.4))
        .filter(FilterSpec::delta("tmpr4", s * 2.5, s * 1.2));
    ShardedEngine::builder()
        .parallelism(shards)
        .route("group0", group)
        .build()
        .unwrap()
}

/// Feeds `tuples` in 128-row batches.
fn feed(e: &mut ShardedEngine, schema: &Schema, tuples: &[Tuple], out: &mut VecSink) {
    for rows in tuples.chunks(128) {
        let batch = TupleBatch::from_tuples(schema, rows).unwrap();
        e.push_batch_columnar(&Arc::new(batch), out).unwrap();
    }
}

/// Full run with a checkpoint barrier every `every` tuples.
fn checkpointed_run(trace: &gasf_sources::Trace, s: f64, shards: usize, every: usize) -> u64 {
    let mut e = engine(trace, s, shards);
    let mut out = VecSink::new();
    let mut checkpoints = 0u64;
    for chunk in trace.tuples().chunks(every) {
        feed(&mut e, trace.schema(), chunk, &mut out);
        e.checkpoint(&mut out).unwrap();
        checkpoints += 1;
    }
    e.finish_into(&mut out).unwrap();
    checkpoints + out.len() as u64
}

/// Full run with one mid-stream checkpoint and a crash at the
/// three-quarter mark, recovered by a restore from the checkpoint and a
/// replay of the suffix.
fn failover_run(trace: &gasf_sources::Trace, s: f64, shards: usize) -> u64 {
    let tuples = trace.tuples();
    let (half, three_q) = (tuples.len() / 2, tuples.len() * 3 / 4);
    let mut e = engine(trace, s, shards);
    let mut out = VecSink::new();
    feed(&mut e, trace.schema(), &tuples[..half], &mut out);
    let snap = e.checkpoint(&mut out).unwrap();
    feed(&mut e, trace.schema(), &tuples[half..three_q], &mut out);
    drop(e); // the crash
    let mut e = ShardedEngine::restore(&snap).unwrap();
    feed(&mut e, trace.schema(), &tuples[half..], &mut out);
    e.finish_into(&mut out).unwrap();
    out.len() as u64
}

fn bench(c: &mut Criterion) {
    let trace = common::trace();
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let mut g = c.benchmark_group("recovery");

    for shards in [1usize, 4] {
        let id = BenchmarkId::new("checkpoint", format!("{shards}shards"));
        g.bench_with_input(id, &shards, |b, &shards| {
            b.iter(|| black_box(checkpointed_run(&trace, s, shards, 500)))
        });
    }
    for shards in [1usize, 4] {
        let id = BenchmarkId::new("restore", format!("{shards}shards"));
        g.bench_with_input(id, &shards, |b, &shards| {
            b.iter(|| black_box(failover_run(&trace, s, shards)))
        });
    }

    g.finish();
}

fn benches() {
    let mut c = common::criterion();
    bench(&mut c);
}
criterion_main!(benches);
