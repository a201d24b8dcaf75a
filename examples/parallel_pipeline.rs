//! Parallel pipeline: the sharded engine.
//!
//! Reproduces the paper's ten-group workload shape (Ch. 5, Table 5.2) at
//! production scale: ten independent filter groups share one NAMOS buoy
//! stream, each group hosted by its own `GroupEngine` route inside a
//! [`ShardedEngine`] that deals the routes round-robin over worker
//! threads, fed the stream in 256-row batches (the engine's one data
//! entry: a push is a hand-off per shard, so hand over a batch). The demo
//! verifies the headline guarantee — merged output is **byte-identical at
//! every parallelism** — and times the sweep.
//!
//! Knobs exercised: `ShardedEngineBuilder::{parallelism, route}`,
//! `ShardedEngine::push_batch_columnar`.
//!
//! ```text
//! cargo run --release --example parallel_pipeline
//! ```

use gasf_core::prelude::*;
use gasf_sources::NamosBuoy;
use std::sync::Arc;
use std::time::Instant;

/// Ten DC1 groups over the buoy channels, three filters each.
fn groups(trace: &gasf_sources::Trace) -> Vec<(String, Vec<FilterSpec>)> {
    let attrs = [
        "fluoro", "tmpr1", "tmpr2", "tmpr3", "tmpr4", "tmpr5", "tmpr6",
    ];
    (0..10)
        .map(|i| {
            let attr = attrs[i % attrs.len()];
            let s = trace.stats(attr).expect("buoy attr").mean_abs_delta;
            let specs = (1..=3)
                .map(|k| {
                    let delta = s * (1.5 + k as f64 + i as f64 * 0.2);
                    FilterSpec::delta(attr, delta, delta * 0.5)
                })
                .collect();
            (format!("G{} ({attr})", i + 1), specs)
        })
        .collect()
}

fn build(
    trace: &gasf_sources::Trace,
    groups: &[(String, Vec<FilterSpec>)],
    parallelism: usize,
) -> Result<ShardedEngine, Error> {
    let mut builder = ShardedEngine::builder().parallelism(parallelism);
    for (name, specs) in groups {
        builder = builder.route(
            name,
            GroupEngine::builder(trace.schema().clone()).filters(specs.clone()),
        );
    }
    builder.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = NamosBuoy::new().tuples(4_000).seed(7).generate();
    let groups = groups(&trace);
    let batches: Vec<Arc<TupleBatch>> = trace.batches(256).into_iter().map(Arc::new).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "ten groups x {} tuples, {} hardware thread(s)\n",
        trace.len(),
        cores
    );

    // --- determinism + scaling sweep -------------------------------
    let mut reference = VecSink::new();
    let mut baseline_ms = 0.0;
    for parallelism in [1usize, 2, 4, 8] {
        let mut engine = build(&trace, &groups, parallelism)?;
        let mut out = VecSink::new();
        let t0 = Instant::now();
        for batch in &batches {
            engine.push_batch_columnar(batch, &mut out)?;
        }
        engine.finish_into(&mut out)?;
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        if parallelism == 1 {
            baseline_ms = wall;
            reference = out;
        } else {
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "sharded output must be byte-identical at every parallelism"
            );
        }
        let m = engine.metrics();
        println!(
            "  {parallelism} shard(s) ({} spawned): {wall:>7.1} ms wall, \
             {:>5.2}x vs 1 shard, {} emissions, O/I {:.3}",
            engine.shards(),
            baseline_ms / wall,
            m.emissions,
            m.oi_ratio(),
        );
    }
    println!("  merged emission streams identical across all parallelism levels");
    Ok(())
}
