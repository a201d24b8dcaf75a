//! Pins the sink seam byte-for-byte across every `Algorithm` ×
//! `OutputStrategy` combination, on a deterministic `gasf-sources` trace:
//! how an engine's emissions are cut into sink calls — a fresh sink per
//! push, one shared sink, one `run_into` — never changes what comes out,
//! and the sharded engine at any parallelism equals the plain engine.
//!
//! If the scratch-buffer release, the batching boundaries, or the metrics
//! accounting ever depend on the sink calls, one of these assertions
//! trips.

use gasf_core::engine::{Algorithm, Emission, GroupEngine, OutputStrategy};
use gasf_core::metrics::Histogram;
use gasf_core::quality::FilterSpec;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::{EmissionSink, VecSink};
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

/// Runs the whole trace through a sharded engine in batches of `chunk`
/// rows — how these tests slice the trace; no output may depend on it.
fn run_sharded(sharded: &mut ShardedEngine, trace: &Trace, chunk: usize) -> VecSink {
    let mut out = VecSink::new();
    for batch in trace.batches(chunk) {
        sharded
            .push_batch_columnar(&Arc::new(batch), &mut out)
            .unwrap();
    }
    sharded.finish_into(&mut out).unwrap();
    out
}

fn trace() -> Trace {
    NamosBuoy::new().tuples(600).seed(42).generate()
}

fn specs(trace: &Trace) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    vec![
        FilterSpec::delta("tmpr4", s * 2.0, s),
        FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
        FilterSpec::delta("tmpr4", s * 2.5, s * 1.2),
    ]
}

fn engine(trace: &Trace, algorithm: Algorithm, strategy: OutputStrategy) -> GroupEngine {
    GroupEngine::builder(trace.schema().clone())
        .algorithm(algorithm)
        .output_strategy(strategy)
        .filters(specs(trace))
        .build()
        .unwrap()
}

/// Deterministic subset of the metrics (everything but wall-clock CPU).
fn metric_fingerprint(e: &GroupEngine) -> (u64, u64, u64, u64, u64, Histogram) {
    let m = e.metrics();
    (
        m.input_tuples,
        m.output_tuples,
        m.emissions,
        m.recipient_labels,
        m.disordered_emissions,
        m.latency_us.clone(),
    )
}

#[test]
fn sink_call_boundaries_do_not_change_output_for_every_combination() {
    let trace = trace();
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let label = format!("{algorithm:?}/{strategy:?}");

            // Reference: a fresh sink per push_into, concatenated, then one
            // finish_into.
            let mut reference = engine(&trace, algorithm, strategy);
            let mut reference_out: Vec<Emission> = Vec::new();
            for t in trace.tuples() {
                let mut step = VecSink::new();
                reference.push_into(t.clone(), &mut step).unwrap();
                reference_out.extend(step.into_vec());
            }
            let mut tail = VecSink::new();
            reference.finish_into(&mut tail).unwrap();
            reference_out.extend(tail.into_vec());

            // One shared sink across every push_into and the finish_into.
            let mut streamed = engine(&trace, algorithm, strategy);
            let mut sink = VecSink::new();
            for t in trace.tuples() {
                streamed.push_into(t.clone(), &mut sink).unwrap();
            }
            streamed.finish_into(&mut sink).unwrap();

            assert_eq!(sink.as_slice(), &reference_out[..], "{label}: emissions");
            assert_eq!(
                metric_fingerprint(&streamed),
                metric_fingerprint(&reference),
                "{label}: metrics"
            );

            // Batch path: one run_into call over the whole trace.
            let mut batched = engine(&trace, algorithm, strategy);
            let mut batch_sink = VecSink::new();
            batched
                .run_into(trace.tuples().iter().cloned(), &mut batch_sink)
                .unwrap();
            assert_eq!(
                batch_sink.as_slice(),
                &reference_out[..],
                "{label}: run_into emissions"
            );
            assert_eq!(
                metric_fingerprint(&batched),
                metric_fingerprint(&reference),
                "{label}: run_into metrics"
            );

            assert!(!reference_out.is_empty(), "{label}: trace must emit");
        }
    }
}

/// The sharded engine's headline guarantee, exhaustively: a single route
/// at any parallelism is byte-for-byte the plain `GroupEngine`, for every
/// `Algorithm` × `OutputStrategy` combination.
#[test]
fn sharded_engine_equals_group_engine_for_every_combination() {
    let trace = trace();
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let label = format!("{algorithm:?}/{strategy:?}");

            let mut reference = engine(&trace, algorithm, strategy);
            let mut expected = VecSink::new();
            reference
                .run_into(trace.tuples().iter().cloned(), &mut expected)
                .unwrap();

            for n in [0usize, 1, 2, 4] {
                let mut sharded = ShardedEngine::builder()
                    .parallelism(n)
                    .route(
                        "group",
                        GroupEngine::builder(trace.schema().clone())
                            .algorithm(algorithm)
                            .output_strategy(strategy)
                            .filters(specs(&trace)),
                    )
                    .build()
                    .unwrap();
                // 23 rows: off the trace length, so the last batch is ragged
                let out = run_sharded(&mut sharded, &trace, 23);
                assert_eq!(out.as_slice(), expected.as_slice(), "{label}: n={n}");
                let merged = sharded.metrics();
                let m = reference.metrics();
                assert_eq!(merged.output_tuples, m.output_tuples, "{label}: n={n}");
                assert_eq!(merged.emissions, m.emissions, "{label}: n={n}");
                assert_eq!(merged.latency_us, m.latency_us, "{label}: n={n}");
                assert_eq!(
                    merged.disordered_emissions, m.disordered_emissions,
                    "{label}: n={n}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomised version of the pin: random filter parameters, trace
    /// seed, batch size and `Algorithm` × `OutputStrategy` draw — the
    /// sharded single-route output must equal `GroupEngine` byte for byte
    /// at every parallelism in {1, 2, 4}.
    #[test]
    fn sharded_output_is_deterministic_across_parallelism(
        seed in 0u64..1_000,
        delta_pct in 150u64..400,
        slack_pct in 20u64..50,
        batch in 1usize..40,
        algo_idx in 0usize..3,
        strat_idx in 0usize..3,
    ) {
        let algorithm = ALGORITHMS[algo_idx];
        let strategy = STRATEGIES[strat_idx];
        let trace = NamosBuoy::new().tuples(300).seed(seed).generate();
        let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
        let delta = s * delta_pct as f64 / 100.0;
        let specs = vec![
            FilterSpec::delta("tmpr4", delta, delta * slack_pct as f64 / 100.0),
            FilterSpec::delta("tmpr4", delta * 1.5, delta * 0.6),
        ];
        let group = || {
            GroupEngine::builder(trace.schema().clone())
                .algorithm(algorithm)
                .output_strategy(strategy)
                .filters(specs.clone())
        };

        let mut reference = group().build().unwrap();
        let mut expected = VecSink::new();
        reference
            .run_into(trace.tuples().iter().cloned(), &mut expected)
            .unwrap();

        for n in [0usize, 1, 2, 4] {
            let mut sharded = ShardedEngine::builder()
                .parallelism(n)
                .route("group", group())
                .build()
                .unwrap();
            let out = run_sharded(&mut sharded, &trace, batch);
            prop_assert_eq!(out.as_slice(), expected.as_slice());
        }
    }

    /// Multi-route merges are equally deterministic: the `(step, route)`
    /// merge order never depends on shard count or batch size.
    #[test]
    fn multi_route_merge_is_invariant_to_parallelism(
        seed in 0u64..1_000,
        routes in 2usize..5,
        batch in 1usize..40,
    ) {
        let trace = NamosBuoy::new().tuples(250).seed(seed).generate();
        let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
        let build = |n: usize| {
            let mut builder = ShardedEngine::builder().parallelism(n);
            for r in 0..routes {
                let delta = s * (1.5 + r as f64 * 0.7);
                builder = builder.route(
                    format!("route-{r}"),
                    GroupEngine::builder(trace.schema().clone())
                        .filter(FilterSpec::delta("tmpr4", delta, delta * 0.4)),
                );
            }
            builder.build().unwrap()
        };
        let base_sink = run_sharded(&mut build(1), &trace, 64);
        for n in [0usize, 2, 4] {
            let out = run_sharded(&mut build(n), &trace, batch);
            prop_assert_eq!(out.as_slice(), base_sink.as_slice());
        }
    }
}

#[test]
fn custom_sink_observes_the_same_stream_as_vec_sink() {
    #[derive(Default)]
    struct Audit {
        emissions: u64,
        labels: u64,
        last_emitted_at: u64,
        ordered: bool,
    }
    impl Audit {
        fn new() -> Self {
            Audit {
                ordered: true,
                ..Default::default()
            }
        }
    }
    impl EmissionSink for Audit {
        fn accept(&mut self, e: &Emission) {
            self.emissions += 1;
            self.labels += e.recipients.len() as u64;
            let at = e.emitted_at.as_micros();
            self.ordered &= at >= self.last_emitted_at;
            self.last_emitted_at = at;
        }
    }

    let trace = trace();
    let mut e = engine(&trace, Algorithm::RegionGreedy, OutputStrategy::Earliest);
    let mut audit = Audit::new();
    e.run_into(trace.tuples().iter().cloned(), &mut audit)
        .unwrap();
    assert_eq!(audit.emissions, e.metrics().emissions);
    assert_eq!(audit.labels, e.metrics().recipient_labels);
    assert!(audit.ordered, "release times must be monotone per stream");
}
