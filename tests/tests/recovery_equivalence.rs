//! Pins the **recovery determinism contract**: crash-at-step-K + restore
//! from the last safe-point checkpoint + replay of the suffix is
//! **byte-identical** to the fault-free run with the same checkpoint
//! schedule — for the inline `GroupEngine` (snapshot/restore), for the
//! `ShardedEngine` at every parallelism (the full `EngineSnapshot` restore,
//! from any checkpoint the caller kept, which is also how a dead worker is
//! recovered: workers are fail-stop), and for the middleware
//! (`checkpoint`/`recover` continuing per-app reports under stable
//! handles).
//!
//! Covered exhaustively for every `Algorithm` × `OutputStrategy` and for
//! parallelism ∈ {1, 2, 4}, plus property-based random crash schedules
//! and a snapshot → restore state round-trip oracle. The overlay half of
//! the fault model is pinned too: a run with a failed interior tree node
//! still delivers to every live member (Scribe re-graft).

mod common;

use common::{fold_by_id, twin_specs};
use gasf_core::batch::TupleBatch;
use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, GroupEngineBuilder, OutputStrategy};
use gasf_core::metrics::EngineMetrics;
use gasf_core::quality::FilterSpec;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::VecSink;
use gasf_core::snapshot::{EngineSnapshot, GroupSnapshot};
use gasf_core::tuple::Tuple;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{Middleware, MiddlewareConfig, RunReport};
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

/// Deterministic subset of the metrics (everything but wall-clock CPU),
/// down to each filter's counters and the latency and region-size
/// histograms.
fn fingerprint(m: &EngineMetrics) -> impl PartialEq + std::fmt::Debug {
    (
        (m.input_tuples, m.output_tuples, m.emissions),
        (m.recipient_labels, m.disordered_emissions),
        (m.latency_us.clone(), m.region_size.clone()),
        m.per_filter.clone(),
    )
}

/// Fault-free inline reference over `specs` with a checkpoint at `ckpt`:
/// returns the pre-boundary emissions (including the boundary drain), the
/// snapshot, and the post-boundary emissions.
fn reference_inline(
    trace: &Trace,
    specs: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
    ckpt: usize,
) -> (Vec<Emission>, GroupSnapshot, Vec<Emission>, GroupEngine) {
    let mut engine = builder(trace, algorithm, strategy)
        .filters(specs.iter().cloned())
        .build()
        .unwrap();
    let mut pre = VecSink::new();
    for t in &trace.tuples()[..ckpt] {
        engine.push_into(t.clone(), &mut pre).unwrap();
    }
    let snap = engine.snapshot_into(&mut pre).unwrap();
    let mut post = VecSink::new();
    for t in &trace.tuples()[ckpt..] {
        engine.push_into(t.clone(), &mut post).unwrap();
    }
    engine.finish_into(&mut post).unwrap();
    (pre.into_vec(), snap, post.into_vec(), engine)
}

#[test]
fn inline_crash_restore_replay_equals_fault_free_for_every_combination() {
    let trace = trace(600, 42);
    const CKPT: usize = 211;
    const CRASH: usize = 387;
    // The base roster, and a twin roster whose copies the compiled roster
    // folds under region-greedy and self-interested.
    let rosters = |algorithm| {
        [
            ("base", base_specs(&trace)),
            ("twins", twin_specs(&trace, algorithm)),
        ]
    };
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            for (name, specs) in rosters(algorithm) {
                let label = format!("{name}/{algorithm:?}/{strategy:?}");
                let (pre, snap, post, live) =
                    reference_inline(&trace, &specs, algorithm, strategy, CKPT);
                assert!(!pre.is_empty(), "{label}: boundary must drain something");

                // Crash at step CRASH: the outputs delivered between the
                // checkpoint and the crash are recomputed by the replay —
                // byte-identically, so downstream consumers can dedup by
                // (tuple id, recipients) or simply re-consume the suffix.
                let mut crashed = GroupEngine::restore(&snap).unwrap();
                let mut lost = VecSink::new();
                for t in &trace.tuples()[CKPT..CRASH] {
                    crashed.push_into(t.clone(), &mut lost).unwrap();
                }
                drop(crashed); // the crash: in-memory state is gone

                let mut restored = GroupEngine::restore(&snap).unwrap();
                // the restored engine refuses anything but the exact suffix
                assert!(restored
                    .push_into(trace.tuples()[0].clone(), &mut VecSink::new())
                    .is_err());
                let mut replayed = VecSink::new();
                for t in &trace.tuples()[CKPT..] {
                    restored.push_into(t.clone(), &mut replayed).unwrap();
                }
                restored.finish_into(&mut replayed).unwrap();
                assert_eq!(replayed.into_vec(), post, "{label}: suffix bytes");

                // the lifetime metrics continue identically (modulo wall
                // clock), and are the two segments' static engines added up
                assert_eq!(restored.epoch(), live.epoch(), "{label}");
                assert_eq!(
                    fingerprint(restored.metrics()),
                    fingerprint(live.metrics()),
                    "{label}: lifetime metrics"
                );
                let segments = [0..CKPT, CKPT..trace.tuples().len()].map(|rows| {
                    let mut engine = builder(&trace, algorithm, strategy)
                        .filters(specs.iter().cloned())
                        .build()
                        .unwrap();
                    let rows = trace.tuples()[rows].iter().cloned();
                    engine.run_into(rows, &mut VecSink::new()).unwrap();
                    engine
                });
                assert_eq!(
                    fingerprint(live.metrics()),
                    fingerprint(&fold_by_id(&[segments[0].metrics(), segments[1].metrics()])),
                    "{label}: the segments added up"
                );
            }
        }
    }
}

/// Feeds `rows` to a sharded engine in batches of `chunk` rows — how
/// these tests slice the trace; no output may depend on it.
fn feed(
    engine: &mut ShardedEngine,
    trace: &Trace,
    rows: &[Tuple],
    chunk: usize,
    out: &mut VecSink,
) {
    for rows in rows.chunks(chunk) {
        let batch = TupleBatch::from_tuples(trace.schema(), rows).unwrap();
        engine.push_batch_columnar(&Arc::new(batch), out).unwrap();
    }
}

/// A sharded run's emission bytes, each checkpoint with the output length
/// at it, and the final metrics (a crashed run has none).
type ShardedRun = (
    Vec<Emission>,
    Vec<(EngineSnapshot, usize)>,
    Option<EngineMetrics>,
);

/// One sharded run over the single base route that checkpoints before
/// each row of `ckpts` (ascending) and either finishes or, given a crash
/// row, stops there: the crash drops the engine.
fn sharded_run(
    trace: &Trace,
    algorithm: Algorithm,
    strategy: OutputStrategy,
    parallelism: usize,
    batch: usize,
    ckpts: &[usize],
    crash: Option<usize>,
) -> ShardedRun {
    let engine = ShardedEngine::builder()
        .parallelism(parallelism)
        .route(
            "group",
            builder(trace, algorithm, strategy).filters(base_specs(trace)),
        )
        .build()
        .unwrap();
    let end = crash.unwrap_or(trace.tuples().len());
    resume(engine, trace, 0, ckpts, batch, end)
}

/// Feeds `engine` the trace from row `from` up to row `end`, in batches
/// of `batch` rows cut at each checkpoint row of `ckpts` past `from`, and
/// finishes when `end` is the trace's end — the caller's own log of the
/// stream, replayed the same way by a fault-free run and a restored one.
fn resume(
    mut engine: ShardedEngine,
    trace: &Trace,
    from: usize,
    ckpts: &[usize],
    batch: usize,
    end: usize,
) -> ShardedRun {
    let tuples = trace.tuples();
    let mut out = VecSink::new();
    let mut snaps = Vec::new();
    let mut at = from;
    for &ckpt in ckpts.iter().filter(|&&c| c > from && c <= end) {
        feed(&mut engine, trace, &tuples[at..ckpt], batch, &mut out);
        let snap = engine.checkpoint(&mut out).unwrap();
        assert_eq!(snap.input_tuples(), ckpt as u64);
        snaps.push((snap, out.len()));
        at = ckpt;
    }
    feed(&mut engine, trace, &tuples[at..end], batch, &mut out);
    if end < tuples.len() {
        return (out.into_vec(), snaps, None); // the crash
    }
    engine.finish_into(&mut out).unwrap();
    let metrics = engine.metrics();
    (out.into_vec(), snaps, Some(metrics))
}

/// Restores `snap`, taken at row `from` with `delivered` emissions out,
/// replays the rest of the trace with the same checkpoint schedule, and
/// checks the delivered prefix plus the replay against the fault-free
/// run's bytes and metrics.
fn assert_restore_matches(
    trace: &Trace,
    snap: &EngineSnapshot,
    delivered: &[Emission],
    ckpts: &[usize],
    batch: usize,
    (expected, expected_metrics): (&[Emission], &EngineMetrics),
    label: &str,
) {
    let from = snap.input_tuples() as usize;
    let restored = ShardedEngine::restore(snap).unwrap();
    let (replayed, _, metrics) = resume(restored, trace, from, ckpts, batch, trace.tuples().len());
    let mut run = delivered.to_vec();
    run.extend(replayed);
    assert_eq!(run, expected, "{label}: emission stream");
    assert_eq!(
        fingerprint(&metrics.unwrap()),
        fingerprint(expected_metrics),
        "{label}: metrics"
    );
}

#[test]
fn restores_from_either_checkpoint_byte_identically_for_every_combination() {
    let trace = trace(600, 42);
    // The engine keeps no copy of a checkpoint: restoring from the first
    // after the second was taken shows the snapshot alone carries it.
    let ckpts = [200, 377];
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            for n in [1usize, 2, 4] {
                let label = format!("{algorithm:?}/{strategy:?} n={n}");
                let (expected, snaps, metrics) =
                    sharded_run(&trace, algorithm, strategy, n, 23, &ckpts, None);
                let metrics = metrics.unwrap();
                assert_eq!(snaps.len(), 2, "{label}");
                for (i, (snap, delivered)) in snaps.iter().enumerate() {
                    let label = format!("{label} from checkpoint {i}");
                    assert_restore_matches(
                        &trace,
                        snap,
                        &expected[..*delivered],
                        &ckpts,
                        23,
                        (&expected, &metrics),
                        &label,
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_restore_replays_the_suffix_byte_identically() {
    let trace = trace(600, 42);
    const CKPT: usize = 250;
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let label = format!("{algorithm:?}/{strategy:?}");
            for n in [1usize, 2, 4] {
                // fault-free reference with the same checkpoint schedule
                let mut engine = ShardedEngine::builder()
                    .parallelism(n)
                    .route(
                        "group",
                        builder(&trace, algorithm, strategy).filters(base_specs(&trace)),
                    )
                    .build()
                    .unwrap();
                let mut pre = VecSink::new();
                feed(&mut engine, &trace, &trace.tuples()[..CKPT], 17, &mut pre);
                let snap = engine.checkpoint(&mut pre).unwrap();
                assert_eq!(snap.input_tuples(), CKPT as u64);
                let mut post = VecSink::new();
                feed(&mut engine, &trace, &trace.tuples()[CKPT..], 17, &mut post);
                engine.finish_into(&mut post).unwrap();
                let expected = post.into_vec();

                // crash the whole engine after the checkpoint; restore and
                // replay the suffix from the (caller-side) log
                let mut restored = ShardedEngine::restore(&snap).unwrap();
                let mut replayed = VecSink::new();
                feed(
                    &mut restored,
                    &trace,
                    &trace.tuples()[CKPT..],
                    17,
                    &mut replayed,
                );
                restored.finish_into(&mut replayed).unwrap();
                assert_eq!(replayed.into_vec(), expected, "{label} n={n}");
                assert_eq!(
                    restored.metrics().input_tuples,
                    engine.metrics().input_tuples,
                    "{label} n={n}: lifetime metrics continue"
                );
            }
        }
    }
}

#[test]
fn failed_interior_overlay_node_still_delivers_to_every_live_member() {
    // The acceptance pin: under a live middleware deployment, fail the
    // interior forwarder nodes of the multicast tree — every live member
    // keeps receiving, via re-grafted branches.
    let overlay = Overlay::new(Topology::ring(9).build());
    let mut mw = Middleware::new(overlay);
    let tr = trace(300, 7);
    let src = mw
        .register_source("buoy", NodeId(0), tr.schema().clone())
        .unwrap();
    let s = tr.stats("tmpr4").unwrap().mean_abs_delta;
    for (name, node) in [("a1", 2u32), ("a2", 4), ("a3", 6), ("a4", 8)] {
        let _ = mw
            .subscribe(
                name,
                NodeId(node),
                src,
                FilterSpec::delta("tmpr4", s * 2.0, s),
            )
            .unwrap();
    }
    mw.deploy().unwrap();
    mw.pipeline(src)
        .unwrap()
        .push_batch(tr.tuples()[..150].to_vec())
        .unwrap();
    let mid_deliveries: Vec<u64> = mw
        .report(src)
        .unwrap()
        .per_app
        .iter()
        .map(|a| a.tuples)
        .collect();
    // fail every pure forwarder (odd nodes host no source/subscriber)
    let mut regrafts = 0usize;
    for forwarder in [1u32, 3, 5, 7] {
        let report = mw.fail_node(NodeId(forwarder)).unwrap();
        regrafts += report.regrafts + report.reroots;
    }
    assert!(
        regrafts > 0,
        "at least one forwarder was on a delivery path"
    );
    mw.pipeline(src)
        .unwrap()
        .push_batch(tr.tuples()[150..].to_vec())
        .unwrap();
    mw.finish(src).unwrap();
    let report = mw.report(src).unwrap();
    for (app, before) in report.per_app.iter().zip(mid_deliveries) {
        assert!(
            app.tuples > before,
            "{} stopped receiving after the failures ({} vs {before})",
            app.name,
            app.tuples
        );
    }
}

#[test]
fn middleware_crash_recover_matches_fault_free_reports() {
    let tr = trace(400, 11);
    let s = tr.stats("tmpr4").unwrap().mean_abs_delta;
    let setup = |parallelism: usize| {
        let overlay = Overlay::new(Topology::ring(7).build());
        let mut mw = Middleware::with_config(
            overlay,
            MiddlewareConfig {
                parallelism,
                ..Default::default()
            },
        );
        let src = mw
            .register_source("buoy", NodeId(0), tr.schema().clone())
            .unwrap();
        for (name, node) in [("a1", 2u32), ("a2", 4), ("a3", 6)] {
            let _ = mw
                .subscribe(
                    name,
                    NodeId(node),
                    src,
                    FilterSpec::delta("tmpr4", s * 2.0, s),
                )
                .unwrap();
        }
        mw.deploy().unwrap();
        (mw, src)
    };
    let report_fp = |r: &RunReport| {
        (
            r.engine.input_tuples,
            r.engine.output_tuples,
            r.engine.emissions,
            r.per_app.clone(),
        )
    };
    for parallelism in [1usize, 2] {
        let expected = {
            let (mut mw, src) = setup(parallelism);
            mw.pipeline(src)
                .unwrap()
                .push_batch(tr.tuples()[..200].to_vec())
                .unwrap();
            let _snap = mw.checkpoint().unwrap();
            mw.pipeline(src)
                .unwrap()
                .push_batch(tr.tuples()[200..].to_vec())
                .unwrap();
            mw.finish(src).unwrap();
            mw.report(src).unwrap()
        };
        let recovered = {
            let (mut mw, src) = setup(parallelism);
            mw.pipeline(src)
                .unwrap()
                .push_batch(tr.tuples()[..200].to_vec())
                .unwrap();
            let snap = mw.checkpoint().unwrap();
            mw.pipeline(src)
                .unwrap()
                .push_batch(tr.tuples()[200..240].to_vec())
                .unwrap();
            drop(mw); // the crash
            let mut mw =
                Middleware::recover(Overlay::new(Topology::ring(7).build()), &snap).unwrap();
            mw.pipeline(src)
                .unwrap()
                .push_batch(tr.tuples()[200..].to_vec())
                .unwrap();
            mw.finish(src).unwrap();
            mw.report(src).unwrap()
        };
        assert_eq!(
            report_fp(&recovered),
            report_fp(&expected),
            "parallelism={parallelism}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random crash schedules: random checkpoint position, random crash
    /// step, random `Algorithm` × `OutputStrategy` × parallelism draw —
    /// the crashed run's output up to its checkpoint plus a restore from
    /// that checkpoint and a replay of the suffix must equal the
    /// fault-free run with the same checkpoint schedule, byte for byte.
    #[test]
    fn random_crash_schedules_recover_byte_identically(
        seed in 0u64..400,
        algo_idx in 0usize..3,
        strat_idx in 0usize..3,
        n_idx in 0usize..3,
        batch in 1usize..40,
        ckpt in 40usize..160,
        gap in 1usize..140,
    ) {
        let algorithm = ALGORITHMS[algo_idx];
        let strategy = STRATEGIES[strat_idx];
        let parallelism = [1usize, 2, 4][n_idx];
        let tr = trace(320, seed);
        let crash_at = ckpt + gap;
        let ckpts = [ckpt];
        let (expected, _, metrics) =
            sharded_run(&tr, algorithm, strategy, parallelism, batch, &ckpts, None);
        let (crashed, snaps, _) =
            sharded_run(&tr, algorithm, strategy, parallelism, batch, &ckpts, Some(crash_at));
        prop_assert!(expected.starts_with(&crashed));
        let (snap, delivered) = &snaps[0];
        assert_restore_matches(
            &tr,
            snap,
            &crashed[..*delivered],
            &ckpts,
            batch,
            (&expected, &metrics.unwrap()),
            "random crash",
        );
    }

    /// The satellite oracle: `snapshot()` → `restore()` at a random safe
    /// point round-trips the roster (vacancy holes included), the epoch
    /// counter and the lifetime metrics exactly — checked field-wise
    /// against the live engine after the same no-op churn (the boundary
    /// crossing both engines share), then byte-wise over the remaining
    /// suffix.
    #[test]
    fn snapshot_restore_round_trips_at_random_safe_points(
        seed in 0u64..400,
        algo_idx in 0usize..3,
        strat_idx in 0usize..3,
        cut in 20usize..260,
        hole in 0usize..3,
    ) {
        let algorithm = ALGORITHMS[algo_idx];
        let strategy = STRATEGIES[strat_idx];
        let tr = trace(320, seed);
        let mut live = builder(&tr, algorithm, strategy)
            .filters(base_specs(&tr))
            .build()
            .unwrap();
        let mut sink = VecSink::new();
        for t in &tr.tuples()[..cut] {
            live.push_into(t.clone(), &mut sink).unwrap();
        }
        // punch a vacancy hole into the roster at the same boundary
        live.remove_filter(FilterId::from_index(hole)).unwrap();
        let snap = live.snapshot_into(&mut sink).unwrap();

        let restored = GroupEngine::restore(&snap).unwrap();
        // state round-trip: roster (with the hole), epoch, metrics
        prop_assert_eq!(restored.roster(), live.roster());
        prop_assert_eq!(restored.group_size(), 2);
        prop_assert_eq!(restored.epoch(), live.epoch());
        prop_assert_eq!(restored.time_constraint(), live.time_constraint());
        prop_assert_eq!(fingerprint(restored.metrics()), fingerprint(live.metrics()));
        // the snapshot's own accessors agree with the engine
        prop_assert_eq!(snap.roster(), live.roster());
        prop_assert_eq!(snap.epoch(), live.epoch());
        prop_assert_eq!(fingerprint(snap.metrics()), fingerprint(live.metrics()));
        prop_assert_eq!(snap.group_size(), 2);

        // and the continuation is byte-identical
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        let mut restored = restored;
        for t in &tr.tuples()[cut..] {
            live.push_into(t.clone(), &mut a).unwrap();
            restored.push_into(t.clone(), &mut b).unwrap();
        }
        live.finish_into(&mut a).unwrap();
        restored.finish_into(&mut b).unwrap();
        prop_assert_eq!(a.into_vec(), b.into_vec());
    }
}
