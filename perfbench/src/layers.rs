//! Standalone replays: one layer's public function over the recorded
//! input, timed on its own. Together with the wrappers' spans these give
//! the per-layer numbers of the traced run.

use crate::workloads::{Inputs, Kind, Workload};
use crate::Res;
use gasf_core::batch::TupleBatch;
use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, GroupEngineBuilder};
use gasf_core::event_time::{EventTimeConfig, ReorderBuffer};
use gasf_core::metrics::EngineMetrics;
use gasf_core::plan::CompiledRoster;
use gasf_core::quality::FilterSpec;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::{NullSink, VecSink};
use gasf_core::time::Micros;
use gasf_net::{GroupId, NodeId, Overlay, Topology};
use gasf_wire::frame::encode_emission_frame;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Filters per part after `regroup(MaxSize(256))`.
const PART_SIZE: usize = 256;

/// Per-layer numbers of the standalone replays; 0 where a layer is not
/// on the workload's path.
#[derive(Debug, Default)]
pub struct Layers {
    pub plan_build_us: f64,
    pub plan_classes: f64,
    pub plan_members: f64,
    pub columnar_ns_per_tuple: f64,
    pub row_ns_per_tuple: f64,
    pub engine: EngineMetrics,
    pub reorder_ns_per_tuple: f64,
    pub shard_speedup: f64,
    pub shard_overhead_ns_per_tuple: f64,
    pub multicast_ns_per_emission: f64,
    pub multicast_bytes_per_emission: f64,
    pub encode_ns_per_emission: f64,
    pub frame_bytes_per_emission: f64,
    pub emissions: u64,
}

/// The workload's roster as the parts the middleware hosts: one part,
/// or `PART_SIZE`-filter parts for `churn-sharded` (control ops are not
/// replayed — the standalone engines see the initial roster throughout).
fn parts<'a>(w: &Workload, inputs: &'a Inputs) -> Vec<&'a [(NodeId, FilterSpec)]> {
    if w.kind == Kind::ChurnSharded {
        inputs.roster.chunks(PART_SIZE).collect()
    } else {
        vec![&inputs.roster[..]]
    }
}

fn builders(w: &Workload, inputs: &Inputs) -> Vec<GroupEngineBuilder> {
    parts(w, inputs)
        .into_iter()
        .map(|part| {
            GroupEngine::builder(inputs.trace.schema().clone())
                .algorithm(Algorithm::RegionGreedy)
                .filters(part.iter().map(|(_, spec)| spec.clone()))
        })
        .collect()
}

fn engines(w: &Workload, inputs: &Inputs) -> Res<Vec<GroupEngine>> {
    Ok(builders(w, inputs)
        .into_iter()
        .map(GroupEngineBuilder::build)
        .collect::<Result<_, _>>()?)
}

fn ns_per(elapsed: std::time::Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// `ShardedEngine` over the parts as routes, whole stream into a
/// `NullSink`; returns ns per tuple.
fn sharded_ns_per_tuple(
    w: &Workload,
    inputs: &Inputs,
    batches: &[Arc<TupleBatch>],
    parallelism: usize,
) -> Res<f64> {
    let mut builder = ShardedEngine::builder().parallelism(parallelism);
    for (i, b) in builders(w, inputs).into_iter().enumerate() {
        builder = builder.route(format!("part{i}"), b);
    }
    let mut engine = builder.build()?;
    let t = Instant::now();
    for batch in batches {
        engine.push_batch_columnar(batch, &mut NullSink)?;
    }
    engine.finish_into(&mut NullSink)?;
    Ok(ns_per(t.elapsed(), inputs.trace.len()))
}

pub fn replay(w: &Workload, inputs: &Inputs) -> Res<Layers> {
    let mut out = Layers::default();
    let schema = inputs.trace.schema();
    let tuples = inputs.trace.len();
    let batches: Vec<Arc<TupleBatch>> = inputs
        .trace
        .batches(w.chunk_rows)
        .into_iter()
        .map(Arc::new)
        .collect();

    // core.plan: compile the whole roster, median of five.
    let mut build_us = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let compiled = CompiledRoster::compile(
            inputs
                .roster
                .iter()
                .enumerate()
                .map(|(i, (_, spec))| (FilterId::from_index(i), spec)),
            schema,
            Algorithm::RegionGreedy,
        )?;
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.plan_classes = compiled.class_count() as f64;
        out.plan_members = compiled.member_count() as f64;
        black_box(compiled);
    }
    build_us.sort_by(f64::total_cmp);
    out.plan_build_us = build_us[build_us.len() / 2];

    // core.engine columnar: every part's engine sees every batch. The
    // layer the other attributions lean on, so the fastest of three passes.
    let mut columnar_ns = Vec::new();
    for _ in 0..3 {
        let mut columnar = engines(w, inputs)?;
        let t = Instant::now();
        for batch in &batches {
            for engine in &mut columnar {
                engine.push_batch_columnar(batch, &mut NullSink)?;
            }
        }
        for engine in &mut columnar {
            engine.finish_into(&mut NullSink)?;
        }
        columnar_ns.push(ns_per(t.elapsed(), tuples));
        out.engine = EngineMetrics::default();
        for engine in columnar {
            out.engine.merge(&engine.into_metrics());
        }
    }
    out.columnar_ns_per_tuple = columnar_ns.iter().copied().fold(f64::MAX, f64::min);

    // core.engine row: the same roster one tuple at a time.
    let mut row = engines(w, inputs)?;
    let rows = inputs.trace.tuples().to_vec();
    let t = Instant::now();
    for tuple in rows {
        for engine in &mut row {
            engine.push_into(tuple.clone(), &mut NullSink)?;
        }
    }
    for engine in &mut row {
        engine.finish_into(&mut NullSink)?;
    }
    out.row_ns_per_tuple = ns_per(t.elapsed(), tuples);
    drop(row);

    // core.event_time: the arrivals through a standalone reorder buffer.
    // (The row path pushes released tuples one by one; the
    // `TupleBatch::from_tuples` repack belongs to `push_columnar` over a
    // buffered source, which no workload uses, so it is not timed.)
    if let Some(arrivals) = &inputs.arrivals {
        let mut buffer = ReorderBuffer::new(EventTimeConfig::bounded(Micros::from_millis(160)));
        let mut released = Vec::new();
        let arrivals = arrivals.clone();
        let t = Instant::now();
        for tuple in arrivals {
            black_box(buffer.push_into(tuple, &mut released));
            released.clear();
        }
        buffer.flush_into(&mut released);
        out.reorder_ns_per_tuple = ns_per(t.elapsed(), tuples);
    }

    // core.shard: the parts as routes of one ShardedEngine.
    if w.kind == Kind::ChurnSharded {
        let one = sharded_ns_per_tuple(w, inputs, &batches, 1)?;
        let two = sharded_ns_per_tuple(w, inputs, &batches, 2)?;
        out.shard_speedup = one / two;
        out.shard_overhead_ns_per_tuple = one - out.columnar_ns_per_tuple;
    }

    // Record the emissions once (untimed) for the dissemination replays.
    let mut recording = engines(w, inputs)?;
    let mut sinks: Vec<VecSink> = recording.iter().map(|_| VecSink::new()).collect();
    let mut emitted: Vec<(usize, Emission)> = Vec::new();
    let drain = |sinks: &mut [VecSink], emitted: &mut Vec<(usize, Emission)>| {
        for (p, sink) in sinks.iter_mut().enumerate() {
            emitted.extend(sink.drain_vec().into_iter().map(|e| (p, e)));
        }
    };
    for batch in &batches {
        for (engine, sink) in recording.iter_mut().zip(&mut sinks) {
            engine.push_batch_columnar(batch, sink)?;
        }
        drain(&mut sinks, &mut emitted);
    }
    for (engine, sink) in recording.iter_mut().zip(&mut sinks) {
        engine.finish_into(sink)?;
    }
    drain(&mut sinks, &mut emitted);
    drop(recording);
    out.emissions = emitted.len() as u64;
    let part_nodes: Vec<Vec<NodeId>> = parts(w, inputs)
        .into_iter()
        .map(|part| part.iter().map(|(node, _)| *node).collect())
        .collect();

    if w.kind == Kind::FanoutWire {
        // wire.frame: encode every emission for its recipient nodes.
        let node_lists: Vec<Vec<NodeId>> = emitted
            .iter()
            .map(|(p, e)| {
                let set: BTreeSet<NodeId> = e
                    .recipients
                    .iter()
                    .map(|f| part_nodes[*p][f.index()])
                    .collect();
                set.into_iter().collect()
            })
            .collect();
        let mut buf = Vec::new();
        let mut bytes = 0usize;
        let t = Instant::now();
        for ((_, emission), nodes) in emitted.iter().zip(&node_lists) {
            buf.clear();
            encode_emission_frame(&mut buf, GroupId::from_raw(1), NodeId(0), nodes, emission);
            bytes += black_box(&buf).len();
        }
        out.encode_ns_per_emission = ns_per(t.elapsed(), emitted.len());
        out.frame_bytes_per_emission = bytes as f64 / emitted.len().max(1) as f64;
    } else {
        // net.multicast: the same emissions through an identically built
        // overlay group per part.
        let mut overlay = Overlay::new(Topology::ring(w.nodes).build());
        let mut groups = Vec::new();
        for (p, nodes) in part_nodes.iter().enumerate() {
            let mut members: BTreeSet<NodeId> = nodes.iter().copied().collect();
            members.insert(NodeId(0));
            let members: Vec<NodeId> = members.into_iter().collect();
            groups.push(overlay.create_group(&format!("replay:p{p}"), &members)?);
        }
        let t = Instant::now();
        for (p, emission) in &emitted {
            let nodes = &part_nodes[*p];
            black_box(
                overlay
                    .multicast_emission(groups[*p], NodeId(0), emission, |f| nodes[f.index()])?,
            );
        }
        out.multicast_ns_per_emission = ns_per(t.elapsed(), emitted.len());
        out.multicast_bytes_per_emission =
            overlay.total_bytes() as f64 / emitted.len().max(1) as f64;
    }
    Ok(out)
}
