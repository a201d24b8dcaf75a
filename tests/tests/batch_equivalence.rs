//! Pins the columnar-batch contract: feeding the engines
//! [`TupleBatch`]es through the batch-native hot path is **byte-identical**
//! to pushing the same rows one tuple at a time — same emission stream,
//! same recipient sets, same deterministic metrics — across every
//! `Algorithm` × `OutputStrategy`, at every parallelism of the sharded
//! path, for every batch size, under live roster churn at batch
//! boundaries, and through a mid-stream checkpoint → restore hop.
//!
//! The `GASF_TEST_BATCH` environment knob narrows the exhaustive sweeps
//! to one batch size (CI shards the matrix with it); unset, the suite
//! covers 1, 7, 64 and 1024.

mod common;

use common::{twin_specs, wide_specs};
use gasf_core::batch::TupleBatch;
use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, GroupEngineBuilder, OutputStrategy};
use gasf_core::metrics::{EngineMetrics, Histogram};
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::VecSink;
use gasf_core::tuple::TupleBuilder;
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

/// Batch sizes under test: the `GASF_TEST_BATCH` knob pins one size
/// (CI matrix sharding); unset, the canonical four are swept.
fn batch_sizes() -> Vec<usize> {
    match std::env::var("GASF_TEST_BATCH") {
        Ok(v) => vec![v
            .parse()
            .expect("GASF_TEST_BATCH must be a positive integer batch size")],
        Err(_) => vec![1, 7, 64, 1024],
    }
}

fn trace(tuples: usize, seed: u64) -> Trace {
    NamosBuoy::new().tuples(tuples).seed(seed).generate()
}

fn builder(trace: &Trace, algorithm: Algorithm, strategy: OutputStrategy) -> GroupEngineBuilder {
    GroupEngine::builder(trace.schema().clone())
        .algorithm(algorithm)
        .output_strategy(strategy)
}

/// Deterministic subset of the metrics (everything but wall-clock CPU).
fn fingerprint(m: &EngineMetrics) -> (u64, u64, u64, u64, Histogram) {
    (
        m.input_tuples,
        m.output_tuples,
        m.emissions,
        m.recipient_labels,
        m.latency_us.clone(),
    )
}

/// The single-tuple reference path over `specs`.
fn run_single(
    trace: &Trace,
    specs: Vec<FilterSpec>,
    algorithm: Algorithm,
    strategy: OutputStrategy,
) -> (Vec<Emission>, GroupEngine) {
    let mut engine = builder(trace, algorithm, strategy)
        .filters(specs)
        .build()
        .unwrap();
    let mut sink = VecSink::new();
    engine
        .run_into(trace.tuples().iter().cloned(), &mut sink)
        .unwrap();
    (sink.into_vec(), engine)
}

/// The columnar path at one batch size over the wide roster.
fn run_columnar(
    trace: &Trace,
    algorithm: Algorithm,
    strategy: OutputStrategy,
    size: usize,
) -> (Vec<Emission>, GroupEngine) {
    let mut engine = builder(trace, algorithm, strategy)
        .filters(wide_specs(trace, algorithm))
        .build()
        .unwrap();
    let mut sink = VecSink::new();
    for batch in trace.batches(size) {
        engine
            .push_batch_columnar(&Arc::new(batch), &mut sink)
            .unwrap();
    }
    engine.finish_into(&mut sink).unwrap();
    (sink.into_vec(), engine)
}

#[test]
fn columnar_batches_equal_single_tuple_for_every_combination() {
    let trace = trace(700, 11);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let specs = wide_specs(&trace, algorithm);
            let (expected, se) = run_single(&trace, specs, algorithm, strategy);
            assert!(!expected.is_empty(), "{algorithm:?}/{strategy:?} must emit");
            for size in batch_sizes() {
                let label = format!("{algorithm:?}/{strategy:?}/batch={size}");
                let (got, be) = run_columnar(&trace, algorithm, strategy, size);
                assert_eq!(got, expected, "{label}: emission stream");
                assert_eq!(
                    fingerprint(be.metrics()),
                    fingerprint(se.metrics()),
                    "{label}: metrics"
                );
            }
        }
    }
}

type Roster = fn(&Trace, Algorithm) -> Vec<FilterSpec>;

/// Runs `roster` through a one-route `ShardedEngine` at every parallelism
/// and batch size, against the inline single-tuple run of the same roster.
fn assert_sharded_matches_inline(name: &str, roster: Roster) {
    let trace = trace(700, 11);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let specs = roster(&trace, algorithm);
            let (expected, _) = run_single(&trace, specs.clone(), algorithm, strategy);
            for n in [0usize, 1, 2, 4] {
                for size in batch_sizes() {
                    let label = format!("{name}/{algorithm:?}/{strategy:?}/n={n}/batch={size}");
                    let mut engine = ShardedEngine::builder()
                        .parallelism(n)
                        .route(
                            "group",
                            builder(&trace, algorithm, strategy).filters(specs.clone()),
                        )
                        .build()
                        .unwrap();
                    let mut out = VecSink::new();
                    for batch in trace.batches(size) {
                        engine
                            .push_batch_columnar(&Arc::new(batch), &mut out)
                            .unwrap();
                    }
                    engine.finish_into(&mut out).unwrap();
                    assert_eq!(out.as_slice(), &expected[..], "{label}");
                }
            }
        }
    }
}

#[test]
fn sharded_columnar_matches_inline_at_every_parallelism() {
    assert_sharded_matches_inline("wide", wide_specs);
}

#[test]
fn sharded_twin_roster_matches_inline_at_every_parallelism() {
    // The twin roster's copies are folded by the compiled roster under
    // region-greedy and self-interested; sharding must not show it.
    assert_sharded_matches_inline("twins", twin_specs);
}

#[test]
fn columnar_batches_interleave_with_single_tuples() {
    // Mixed feeding — some rows as batches, some as plain pushes — is one
    // stream; the representation seam must not show.
    let trace = trace(500, 3);
    let algorithm = Algorithm::RegionGreedy;
    let strategy = OutputStrategy::Earliest;
    let (expected, _) = run_single(&trace, wide_specs(&trace, algorithm), algorithm, strategy);
    let mut engine = builder(&trace, algorithm, strategy)
        .filters(wide_specs(&trace, algorithm))
        .build()
        .unwrap();
    let mut sink = VecSink::new();
    let tuples = trace.tuples();
    let mut i = 0usize;
    let mut chunk = 0usize;
    while i < tuples.len() {
        // Alternate: a run of single pushes, then a columnar batch.
        let n = 1 + (chunk * 7) % 13;
        if chunk.is_multiple_of(2) {
            for t in &tuples[i..(i + n).min(tuples.len())] {
                engine.push_into(t.clone(), &mut sink).unwrap();
            }
        } else {
            let end = (i + n).min(tuples.len());
            let batch = TupleBatch::from_tuples(trace.schema(), &tuples[i..end]).unwrap();
            engine
                .push_batch_columnar(&Arc::new(batch), &mut sink)
                .unwrap();
        }
        i = (i + n).min(tuples.len());
        chunk += 1;
    }
    engine.finish_into(&mut sink).unwrap();
    assert_eq!(sink.as_slice(), &expected[..]);
}

#[test]
fn columnar_ingestion_materializes_only_emitted_payloads() {
    // The lazy-intern regression pin: on the batch path a payload
    // `Tuple` is allocated only when a row is actually emitted — never
    // per input tuple in steady state.
    let trace = trace(700, 11);
    let algorithm = Algorithm::RegionGreedy;
    let strategy = OutputStrategy::Earliest;
    let (_, single) = run_single(&trace, wide_specs(&trace, algorithm), algorithm, strategy);
    assert_eq!(
        single.tuple_materializations(),
        0,
        "single-tuple interning never rematerializes"
    );
    let (_, batched) = run_columnar(&trace, algorithm, strategy, 64);
    let m = batched.metrics().clone();
    assert!(m.output_tuples > 0, "trace must emit");
    assert_eq!(
        batched.tuple_materializations(),
        m.output_tuples,
        "exactly one materialization per distinct emitted tuple"
    );
    assert!(
        batched.tuple_materializations() < m.input_tuples,
        "dismissed rows ({} of {}) must never be materialized",
        m.input_tuples - m.output_tuples,
        m.input_tuples,
    );
}

#[test]
fn missing_values_fail_at_the_same_row_with_the_same_error() {
    // A NaN hole mid-batch: the columnar path must reproduce the exact
    // per-tuple error, emission prefix, and partial state.
    let schema = Schema::new(["t"]);
    let mut b = TupleBuilder::new(&schema);
    let mut tuples = Vec::new();
    for i in 0..10u64 {
        b.at_millis(i * 10 + 1);
        if i != 6 {
            b.set("t", i as f64 * 5.0);
        }
        tuples.push(b.build().unwrap());
    }
    let mk = || {
        GroupEngine::builder(schema.clone())
            .algorithm(Algorithm::RegionGreedy)
            .filter(FilterSpec::delta("t", 12.0, 4.0))
            .build()
            .unwrap()
    };
    let mut single = mk();
    let mut s_out = VecSink::new();
    let s_err = tuples
        .iter()
        .map(|t| single.push_into(t.clone(), &mut s_out))
        .find(|r| r.is_err())
        .unwrap()
        .unwrap_err();
    let mut batched = mk();
    let mut b_out = VecSink::new();
    let batch = Arc::new(TupleBatch::from_tuples(&schema, &tuples).unwrap());
    let b_err = batched.push_batch_columnar(&batch, &mut b_out).unwrap_err();
    assert_eq!(format!("{s_err:?}"), format!("{b_err:?}"));
    assert_eq!(s_out.as_slice(), b_out.as_slice(), "emission prefix");
    assert_eq!(
        fingerprint(single.metrics()),
        fingerprint(batched.metrics()),
        "partial state"
    );
}

#[test]
fn sharded_run_cuts_at_the_failing_row() {
    // A value missing strictly inside a batch must still cut the merged
    // stream at exactly that row: everything both routes released before
    // it is delivered, nothing at or after it is, and the engine stays
    // poisoned.
    const BAD: usize = 24; // 4th row of the 4th 7-row batch
    let schema = Schema::new(["t"]);
    let mut b = TupleBuilder::new(&schema);
    let tuples: Vec<_> = (0..60usize)
        .map(|i| {
            b.at_millis(10 * (i as u64 + 1));
            if i != BAD {
                b.set("t", (i as f64 * 0.7).sin() * 20.0);
            }
            b.build().unwrap()
        })
        .collect();
    let routes = || {
        [
            GroupEngine::builder(schema.clone()).filter(FilterSpec::delta("t", 12.0, 4.0)),
            GroupEngine::builder(schema.clone())
                .filter(FilterSpec::delta("t", 7.0, 3.0))
                .filter(FilterSpec::delta("t", 9.0, 2.0)),
        ]
    };
    let mut expected = VecSink::new();
    let mut inline = routes().map(|r| r.build().unwrap());
    for t in &tuples[..BAD] {
        for engine in &mut inline {
            engine.push_into(t.clone(), &mut expected).unwrap();
        }
    }
    assert!(!expected.is_empty(), "the prefix must emit");

    for n in [0usize, 1, 2] {
        let [r0, r1] = routes();
        let mut sharded = ShardedEngine::builder()
            .parallelism(n)
            .route("a", r0)
            .route("c", r1)
            .build()
            .unwrap();
        assert_eq!(
            sharded.shards(),
            n,
            "the two routes must spread over {n} shards"
        );
        let mut out = VecSink::new();
        let mut surfaced = false;
        for rows in tuples.chunks(7) {
            let batch = Arc::new(TupleBatch::from_tuples(&schema, rows).unwrap());
            match sharded.push_batch_columnar(&batch, &mut out) {
                Ok(()) => assert!(!surfaced, "n={n}: a poisoned engine accepted input"),
                Err(gasf_core::Error::MissingValue { .. }) => surfaced = true,
                Err(other) => panic!("n={n}: unexpected error {other:?}"),
            }
        }
        assert!(surfaced, "n={n}: the failing batch is merged mid-stream");
        assert!(matches!(
            sharded.finish_into(&mut out),
            Err(gasf_core::Error::MissingValue { .. })
        ));
        assert_eq!(out.as_slice(), expected.as_slice(), "n={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random batch-size schedules, churn ops at batch boundaries, and a
    /// mid-stream checkpoint → restore hop: the batch run must stay
    /// byte-identical to a single-tuple run applying the same ops at the
    /// same stream positions.
    #[test]
    fn random_batch_schedules_with_churn_and_recovery_hold(
        seed in 0u64..500,
        algo_idx in 0usize..3,
        strat_idx in 0usize..3,
        sizes in proptest::collection::vec(1usize..40, 12..30),
        op1_at in 0usize..6,
        op2_at in 6usize..12,
        cut_at in 4usize..10,
        kind1 in 0u8..3,
        kind2 in 0u8..3,
    ) {
        let algorithm = ALGORITHMS[algo_idx];
        let strategy = STRATEGIES[strat_idx];
        let trace = trace(340, seed);
        let s = trace.stats("tmpr4").unwrap().mean_abs_delta;

        // Chunk the trace by the random schedule (cycling if it is too
        // short), recording each batch's starting row.
        let tuples = trace.tuples();
        let mut batches: Vec<(usize, TupleBatch)> = Vec::new();
        let mut start = 0usize;
        let mut si = 0usize;
        while start < tuples.len() {
            let size = sizes[si % sizes.len()];
            si += 1;
            let end = (start + size).min(tuples.len());
            let batch = TupleBatch::from_tuples(trace.schema(), &tuples[start..end]).unwrap();
            batches.push((start, batch));
            start = end;
        }
        let boundary_row = |bi: usize| batches.get(bi).map(|(row, _)| *row);

        let mk_op = |kind: u8, live: &[FilterId]| match kind {
            0 => (None, Some(FilterSpec::delta("tmpr2", s * 1.7, s * 0.7))),
            1 if live.len() > 1 => (Some(live[live.len() / 2]), None),
            _ => (
                Some(live[0]),
                Some(FilterSpec::delta("tmpr4", s * 3.5, s * 1.6)),
            ),
        };
        let apply = |engine: &mut GroupEngine, live: &mut Vec<FilterId>, kind: u8| {
            match mk_op(kind, live) {
                (None, Some(spec)) => live.push(engine.add_filter(spec).unwrap()),
                (Some(id), None) => {
                    engine.remove_filter(id).unwrap();
                    live.retain(|&l| l != id);
                }
                (Some(id), Some(spec)) => engine.update_filter(id, spec).unwrap(),
                (None, None) => unreachable!(),
            }
        };

        let mut streams = Vec::new();
        for columnar in [false, true] {
            let mut engine = builder(&trace, algorithm, strategy)
                .filters(wide_specs(&trace, algorithm))
                .build()
                .unwrap();
            let mut live: Vec<FilterId> =
                engine.roster().iter().map(|(id, _)| *id).collect();
            let mut out = VecSink::new();
            let at_boundary = |engine: &mut GroupEngine,
                                   live: &mut Vec<FilterId>,
                                   out: &mut VecSink,
                                   row: usize| {
                for (bi, kind) in [(op1_at, kind1), (op2_at, kind2)] {
                    if boundary_row(bi) == Some(row) {
                        apply(engine, live, kind);
                    }
                }
                if boundary_row(cut_at) == Some(row) {
                    // Checkpoint → restore hop at the batch boundary.
                    let snap = engine.snapshot_into(out).unwrap();
                    *engine = GroupEngine::restore(&snap).unwrap();
                }
            };
            if columnar {
                for (row, batch) in &batches {
                    at_boundary(&mut engine, &mut live, &mut out, *row);
                    engine
                        .push_batch_columnar(&Arc::new(batch.clone()), &mut out)
                        .unwrap();
                }
            } else {
                for (row, t) in tuples.iter().enumerate() {
                    at_boundary(&mut engine, &mut live, &mut out, row);
                    engine.push_into(t.clone(), &mut out).unwrap();
                }
            }
            engine.finish_into(&mut out).unwrap();
            streams.push(out.into_vec());
        }
        prop_assert_eq!(&streams[0], &streams[1]);
    }
}
