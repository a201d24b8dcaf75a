//! Pins the control plane's determinism contract: a run with dynamic
//! subscribe/unsubscribe/update events applied at epoch boundaries is
//! **byte-identical** to the equivalent sequence of static rebuilds — stop
//! the stream at each boundary (`finish_into`), rebuild an engine with the
//! post-churn roster (ids pinned via `GroupEngineBuilder::filter_at` so
//! vacancies survive), and continue on the remaining tuples.
//!
//! Covered exhaustively for every `Algorithm` × `OutputStrategy` and for
//! parallelism ∈ {1, 2, 4} (the sharded engine ships control ops
//! interleaved with the data batches), plus a property-based sweep over
//! random churn schedules — over random rosters of every compiled gate
//! kind too, with a checkpoint → restore hop, since the engine recompiles
//! its roster at every boundary. The lifetime metrics are pinned against
//! the per-segment static engines' metrics added up by filter id, and a
//! removed filter's stats must survive in its vacant slot.

mod common;

use common::{fold_by_id, wide_specs};
use gasf_core::batch::TupleBatch;
use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, GroupEngineBuilder, OutputStrategy};
use gasf_core::metrics::EngineMetrics;
use gasf_core::quality::FilterSpec;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::VecSink;
use gasf_sources::{NamosBuoy, Trace};
use proptest::prelude::*;
use std::sync::Arc;

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::RegionGreedy,
    Algorithm::PerCandidateSet,
    Algorithm::SelfInterested,
];

const STRATEGIES: [OutputStrategy; 3] = [
    OutputStrategy::Earliest,
    OutputStrategy::PerCandidateSet,
    OutputStrategy::Batched(7),
];

/// One roster change, scheduled before the tuple at index `at`.
#[derive(Debug, Clone)]
enum ChurnOp {
    Add(FilterSpec),
    Remove(FilterId),
    Update(FilterId, FilterSpec),
    /// A safe point with no roster change: the dynamic engine takes a
    /// snapshot and continues on an engine restored from it.
    Checkpoint,
}

#[derive(Debug, Clone)]
struct ChurnEvent {
    /// Stream index the op lands before (the epoch boundary).
    at: usize,
    op: ChurnOp,
}

fn trace(tuples: usize, seed: u64) -> Trace {
    NamosBuoy::new().tuples(tuples).seed(seed).generate()
}

fn base_specs(trace: &Trace) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    vec![
        FilterSpec::delta("tmpr4", s * 2.0, s),
        FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
        FilterSpec::delta("tmpr4", s * 2.5, s * 1.2),
    ]
}

fn builder(trace: &Trace, algorithm: Algorithm, strategy: OutputStrategy) -> GroupEngineBuilder {
    GroupEngine::builder(trace.schema().clone())
        .algorithm(algorithm)
        .output_strategy(strategy)
}

/// Applies the events to a roster mirror, returning the post-event roster.
fn apply_to_roster(roster: &mut Vec<(FilterId, FilterSpec)>, next_id: &mut usize, op: &ChurnOp) {
    match op {
        ChurnOp::Add(spec) => {
            roster.push((FilterId::from_index(*next_id), spec.clone()));
            *next_id += 1;
        }
        ChurnOp::Remove(id) => roster.retain(|(i, _)| i != id),
        ChurnOp::Update(id, spec) => {
            for (i, s) in roster.iter_mut() {
                if i == id {
                    *s = spec.clone();
                }
            }
        }
        ChurnOp::Checkpoint => {}
    }
}

/// Runs the dynamic engine over the `initial` roster: push the stream,
/// queuing each event's op just before the tuple it is scheduled at.
/// Returns emissions + the engine.
fn run_dynamic(
    trace: &Trace,
    initial: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
    events: &[ChurnEvent],
) -> (Vec<Emission>, GroupEngine) {
    let mut engine = builder(trace, algorithm, strategy)
        .filters(initial.iter().cloned())
        .build()
        .unwrap();
    let mut sink = VecSink::new();
    for (i, t) in trace.tuples().iter().enumerate() {
        for ev in events.iter().filter(|e| e.at == i) {
            match &ev.op {
                ChurnOp::Add(spec) => {
                    engine.add_filter(spec.clone()).unwrap();
                }
                ChurnOp::Remove(id) => engine.remove_filter(*id).unwrap(),
                ChurnOp::Update(id, spec) => engine.update_filter(*id, spec.clone()).unwrap(),
                ChurnOp::Checkpoint => {
                    let snap = engine.snapshot_into(&mut sink).unwrap();
                    engine = GroupEngine::restore(&snap).unwrap();
                }
            }
        }
        engine.push_into(t.clone(), &mut sink).unwrap();
    }
    engine.finish_into(&mut sink).unwrap();
    (sink.into_vec(), engine)
}

/// Runs the equivalent static composite: one freshly built engine per
/// epoch segment (roster ids pinned, starting from `initial`), each fed
/// its segment and finished. Returns the concatenated emissions and each
/// segment engine.
fn run_static_segments(
    trace: &Trace,
    initial: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
    events: &[ChurnEvent],
) -> (Vec<Emission>, Vec<GroupEngine>) {
    let mut boundaries: Vec<usize> = events.iter().map(|e| e.at).collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    let mut segments = Vec::new(); // (start, end, roster)
    let mut roster: Vec<(FilterId, FilterSpec)> = (initial.iter().cloned())
        .enumerate()
        .map(|(i, s)| (FilterId::from_index(i), s))
        .collect();
    let mut next_id = roster.len();
    let mut start = 0usize;
    for &b in &boundaries {
        if b > start {
            segments.push((start, b, roster.clone()));
            start = b;
        }
        for ev in events.iter().filter(|e| e.at == b) {
            apply_to_roster(&mut roster, &mut next_id, &ev.op);
        }
    }
    segments.push((start, trace.tuples().len(), roster));

    let mut sink = VecSink::new();
    let mut engines = Vec::new();
    for (lo, hi, roster) in segments {
        let mut b = builder(trace, algorithm, strategy);
        for (id, spec) in roster {
            b = b.filter_at(id, spec);
        }
        let mut engine = b.build().unwrap();
        for t in &trace.tuples()[lo..hi] {
            engine.push_into(t.clone(), &mut sink).unwrap();
        }
        engine.finish_into(&mut sink).unwrap();
        engines.push(engine);
    }
    (sink.into_vec(), engines)
}

/// Deterministic subset of the metrics (everything but wall-clock CPU),
/// down to each filter's counters and the region-size and latency
/// histograms.
fn fingerprint(m: &EngineMetrics) -> impl PartialEq + std::fmt::Debug {
    (
        (m.input_tuples, m.output_tuples, m.emissions),
        (m.recipient_labels, m.disordered_emissions),
        (m.regions, m.regions_cut, m.region_size.clone()),
        m.latency_us.clone(),
        m.per_filter.clone(),
    )
}

/// The engine's lifetime metrics equal its segment engines' added up by
/// filter id.
fn assert_lifetime_is_the_segments(engine: &GroupEngine, segments: &[GroupEngine], label: &str) {
    let segments: Vec<&EngineMetrics> = segments.iter().map(GroupEngine::metrics).collect();
    assert_eq!(
        fingerprint(engine.metrics()),
        fingerprint(&fold_by_id(&segments)),
        "{label}: lifetime metrics"
    );
}

/// The fixed churn schedule of the exhaustive pin: a join, then a
/// remove + retune at a later boundary.
fn standard_events(trace: &Trace) -> Vec<ChurnEvent> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    vec![
        ChurnEvent {
            at: 200,
            op: ChurnOp::Add(FilterSpec::delta("tmpr4", s * 1.8, s * 0.8)),
        },
        ChurnEvent {
            at: 400,
            op: ChurnOp::Remove(FilterId::from_index(1)),
        },
        ChurnEvent {
            at: 400,
            op: ChurnOp::Update(
                FilterId::from_index(2),
                FilterSpec::delta("tmpr4", s * 4.0, s * 1.9),
            ),
        },
    ]
}

#[test]
fn dynamic_churn_equals_static_rebuilds_for_every_combination() {
    let trace = trace(600, 42);
    let base = base_specs(&trace);
    let events = standard_events(&trace);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let label = format!("{algorithm:?}/{strategy:?}");
            let (dynamic, engine) = run_dynamic(&trace, &base, algorithm, strategy, &events);
            let (statics, segment_engines) =
                run_static_segments(&trace, &base, algorithm, strategy, &events);
            assert_eq!(dynamic, statics, "{label}: emission stream");
            assert!(!dynamic.is_empty(), "{label}: churn trace must emit");

            assert_eq!(engine.epoch(), 2, "{label}");
            assert_eq!(segment_engines.len(), 3, "{label}");
            assert_lifetime_is_the_segments(&engine, &segment_engines, &label);

            // The removed filter's stats survive in its slot, and the
            // lifetime metrics account the whole stream.
            let lifetime = engine.metrics();
            assert!(
                lifetime.per_filter[1].sets_closed > 0,
                "{label}: removed filter's history must survive"
            );
            assert_eq!(lifetime.input_tuples, 600, "{label}");
        }
    }
}

/// A schedule that takes twin classes (identical specs, which the
/// compiled roster folds into one member led by the lowest slot) through
/// everything the control plane can do to one: two classes form when
/// existing specs join again, a follower is retuned away, then the
/// leader is (the next slot takes over), a leader is removed, and a new
/// filter joins the class the retuned leader started.
fn twin_events(trace: &Trace) -> Vec<ChurnEvent> {
    let base = base_specs(trace);
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let retuned = FilterSpec::delta("tmpr4", s * 3.6, s * 1.7);
    let id = FilterId::from_index;
    let event = |at, op| ChurnEvent { at, op };
    vec![
        // {0, 3, 4} and {1, 5}
        event(100, ChurnOp::Add(base[0].clone())),
        event(100, ChurnOp::Add(base[0].clone())),
        event(100, ChurnOp::Add(base[1].clone())),
        // follower 4 leaves: {0, 3}
        event(200, ChurnOp::Update(id(4), retuned.clone())),
        // leader 0 leaves and joins 4: {3}, {0, 4}
        event(300, ChurnOp::Update(id(0), retuned.clone())),
        // leader 1 is removed: {5}
        event(400, ChurnOp::Remove(id(1))),
        // 6 joins: {0, 4, 6}
        event(500, ChurnOp::Add(retuned)),
    ]
}

#[test]
fn twin_classes_split_join_and_lose_their_leader_like_static_rebuilds() {
    let trace = trace(600, 42);
    let base = base_specs(&trace);
    let events = twin_events(&trace);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let label = format!("{algorithm:?}/{strategy:?}");
            let (dynamic, engine) = run_dynamic(&trace, &base, algorithm, strategy, &events);
            let (statics, segment_engines) =
                run_static_segments(&trace, &base, algorithm, strategy, &events);
            assert_eq!(dynamic, statics, "{label}: emission stream");
            assert_eq!(engine.epoch(), 5, "{label}");
            assert_eq!(segment_engines.len(), 6, "{label}");
            assert_lifetime_is_the_segments(&engine, &segment_engines, &label);
            // While {0, 3, 4} stood together its members fared alike.
            let together = &segment_engines[1].metrics().per_filter;
            assert!(together[0].sets_closed > 0, "{label}");
            for twin in [3, 4] {
                assert_eq!(together[twin], together[0], "{label}: twin {twin}");
            }
            let sharded = run_sharded(&trace, &base, algorithm, strategy, &events, 2, 23);
            assert_eq!(sharded, dynamic, "{label}: sharded");
        }
    }
}

/// Runs the schedule through a one-route sharded engine over the `initial`
/// roster, slicing the trace into batches of `chunk` rows — and at every
/// event, since a control op lands between batches.
fn run_sharded(
    trace: &Trace,
    initial: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
    events: &[ChurnEvent],
    parallelism: usize,
    chunk: usize,
) -> Vec<Emission> {
    let mut sharded = ShardedEngine::builder()
        .parallelism(parallelism)
        .route(
            "group",
            builder(trace, algorithm, strategy).filters(initial.iter().cloned()),
        )
        .build()
        .unwrap();
    let mut out = VecSink::new();
    let mut cuts: Vec<usize> = events.iter().map(|e| e.at).collect();
    cuts.extend([0, trace.tuples().len()]);
    cuts.sort_unstable();
    cuts.dedup();
    for segment in cuts.windows(2) {
        for ev in events.iter().filter(|e| e.at == segment[0]) {
            match &ev.op {
                ChurnOp::Add(spec) => {
                    sharded.add_filter(0, spec.clone()).unwrap();
                }
                ChurnOp::Remove(id) => sharded.remove_filter(0, *id).unwrap(),
                ChurnOp::Update(id, spec) => sharded.update_filter(0, *id, spec.clone()).unwrap(),
                ChurnOp::Checkpoint => {
                    let snap = sharded.checkpoint(&mut out).unwrap();
                    sharded = ShardedEngine::restore(&snap).unwrap();
                }
            }
        }
        for rows in trace.tuples()[segment[0]..segment[1]].chunks(chunk) {
            let batch = TupleBatch::from_tuples(trace.schema(), rows).unwrap();
            sharded
                .push_batch_columnar(&Arc::new(batch), &mut out)
                .unwrap();
        }
    }
    sharded.finish_into(&mut out).unwrap();
    out.into_vec()
}

#[test]
fn sharded_churn_matches_inline_for_every_combination() {
    // The same schedule driven through the sharded control path (control
    // messages interleaved with the data channel) must reproduce the
    // inline dynamic run byte for byte at every parallelism.
    let trace = trace(600, 42);
    let base = base_specs(&trace);
    let events = standard_events(&trace);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let label = format!("{algorithm:?}/{strategy:?}");
            let (expected, _) = run_dynamic(&trace, &base, algorithm, strategy, &events);
            for n in [0usize, 1, 2, 4] {
                // 23 rows: off the boundary indices, so control ops split
                // what a steady chunking would have kept together
                let out = run_sharded(&trace, &base, algorithm, strategy, &events, n, 23);
                assert_eq!(out, expected, "{label}: n={n}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomised churn schedules: random boundaries, random op kinds
    /// (add/remove/update over a tracked roster mirror), random
    /// `Algorithm` × `OutputStrategy` draw — dynamic must equal the
    /// static composite, and the sharded path must equal dynamic at
    /// parallelism 2.
    #[test]
    fn random_churn_schedules_stay_deterministic(
        seed in 0u64..500,
        algo_idx in 0usize..3,
        strat_idx in 0usize..3,
        b1 in 40usize..150,
        b2 in 160usize..280,
        kind1 in 0u8..3,
        kind2 in 0u8..3,
        batch in 1usize..40,
    ) {
        let algorithm = ALGORITHMS[algo_idx];
        let strategy = STRATEGIES[strat_idx];
        let trace = trace(320, seed);
        let s = trace.stats("tmpr4").unwrap().mean_abs_delta;

        // Build a valid schedule against a roster mirror.
        let base = base_specs(&trace);
        let mut roster: Vec<(FilterId, FilterSpec)> = (base.iter().cloned())
            .enumerate()
            .map(|(i, sp)| (FilterId::from_index(i), sp))
            .collect();
        let mut next_id = roster.len();
        let mut events = Vec::new();
        for (at, kind) in [(b1, kind1), (b2, kind2)] {
            let op = match kind {
                0 => ChurnOp::Add(FilterSpec::delta("tmpr4", s * 1.7, s * 0.7)),
                1 if roster.len() > 1 => ChurnOp::Remove(roster[roster.len() / 2].0),
                _ => {
                    let target = roster[0].0;
                    ChurnOp::Update(target, FilterSpec::delta("tmpr4", s * 3.5, s * 1.6))
                }
            };
            apply_to_roster(&mut roster, &mut next_id, &op);
            events.push(ChurnEvent { at, op });
        }

        let (dynamic, _) = run_dynamic(&trace, &base, algorithm, strategy, &events);
        let (statics, _) = run_static_segments(&trace, &base, algorithm, strategy, &events);
        prop_assert_eq!(&dynamic, &statics);

        let out = run_sharded(&trace, &base, algorithm, strategy, &events, 2, batch);
        prop_assert_eq!(out, dynamic);
    }

    /// Random rosters of every compiled gate kind under interleaved
    /// add/remove/update churn, with a mid-stream checkpoint → restore
    /// hop at `cut`: the engine recompiles at every boundary and on
    /// restore, and must equal the static composite, lifetime metrics
    /// included, and the sharded path at parallelism 2.
    #[test]
    fn random_churn_rosters_recompile_identically(
        seed in 0u64..500,
        algo_idx in 0usize..3,
        strat_idx in 0usize..3,
        b1 in 40usize..120,
        b2 in 130usize..240,
        cut in 250usize..300,
        kind1 in 0u8..3,
        kind2 in 0u8..3,
        attr_idx in 0usize..3,
    ) {
        let extra_attr = ["tmpr2", "tmpr4", "fluoro"][attr_idx];
        let algorithm = ALGORITHMS[algo_idx];
        let strategy = STRATEGIES[strat_idx];
        let trace = trace(340, seed);
        let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
        let wide = wide_specs(&trace, algorithm);

        let mut roster: Vec<(FilterId, FilterSpec)> = (wide.iter().cloned())
            .enumerate()
            .map(|(i, sp)| (FilterId::from_index(i), sp))
            .collect();
        let mut next_id = roster.len();
        let mut events = Vec::new();
        for (at, kind) in [(b1, kind1), (b2, kind2)] {
            let op = match kind {
                0 => ChurnOp::Add(FilterSpec::delta(extra_attr, s * 1.7, s * 0.7)),
                1 if roster.len() > 1 => ChurnOp::Remove(roster[roster.len() / 2].0),
                _ => ChurnOp::Update(roster[0].0, FilterSpec::delta("tmpr4", s * 3.5, s * 1.6)),
            };
            apply_to_roster(&mut roster, &mut next_id, &op);
            events.push(ChurnEvent { at, op });
        }
        events.push(ChurnEvent { at: cut, op: ChurnOp::Checkpoint });

        let (dynamic, engine) = run_dynamic(&trace, &wide, algorithm, strategy, &events);
        let (statics, segments) = run_static_segments(&trace, &wide, algorithm, strategy, &events);
        prop_assert_eq!(&dynamic, &statics);
        assert_lifetime_is_the_segments(&engine, &segments, "random roster");
        let sharded = run_sharded(&trace, &wide, algorithm, strategy, &events, 2, 23);
        prop_assert_eq!(sharded, dynamic);
    }
}
