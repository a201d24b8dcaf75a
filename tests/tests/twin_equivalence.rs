//! Pins twin folding at the engine level. Under `RegionGreedy` and
//! `SelfInterested` the compiled roster evaluates one member per class of
//! identical filters, and the engine books that member's outcome for
//! every filter of its class. So `k` copies of a roster must run exactly
//! like one copy with every label expanded to its `k` twins: the same
//! tuples released at the same times, every copy's per-filter counters
//! equal to the one copy's, the same regions and cuts, and regions `k`
//! times as large — across every `OutputStrategy`.
//!
//! `PerCandidateSet` compiles unfolded (a set is decided from the group
//! utilities as they stand at its slot, so twins may choose differently)
//! and has no twin oracle. Per filter, `gasf_core::plan`'s lockstep tests
//! compare each slot's trait-object reference with the compiled member
//! that stands for it.

mod common;

use common::{expand_labels, wide_specs, TwinMetrics};
use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, GroupEngine, OutputStrategy};
use gasf_core::plan::CompiledRoster;
use gasf_core::sink::VecSink;
use gasf_sources::NamosBuoy;

const STRATEGIES: [OutputStrategy; 3] = [
    OutputStrategy::Earliest,
    OutputStrategy::PerCandidateSet,
    OutputStrategy::Batched(7),
];

#[test]
fn k_copies_run_like_one_copy_with_expanded_labels() {
    let trace = NamosBuoy::new().tuples(700).seed(11).generate();
    for algorithm in [Algorithm::RegionGreedy, Algorithm::SelfInterested] {
        let one = wide_specs(&trace, algorithm);
        let width = one.len();
        for strategy in STRATEGIES {
            let run = |copies: usize| {
                let mut engine = GroupEngine::builder(trace.schema().clone())
                    .algorithm(algorithm)
                    .output_strategy(strategy)
                    .filters((0..copies).flat_map(|_| one.iter().cloned()))
                    .build()
                    .unwrap();
                let mut sink = VecSink::new();
                engine
                    .run_into(trace.tuples().iter().cloned(), &mut sink)
                    .unwrap();
                (sink.into_vec(), engine.into_metrics())
            };
            let (emissions, metrics) = run(1);
            assert!(
                !emissions.is_empty(),
                "{algorithm:?}/{strategy:?} must emit"
            );
            for k in [2, 3] {
                let label = format!("{algorithm:?}/{strategy:?}/k={k}");
                let specs: Vec<_> = (0..k).flat_map(|_| one.iter()).collect();
                let roster = (specs.iter().enumerate()).map(|(i, s)| (FilterId::from_index(i), *s));
                let compiled = CompiledRoster::compile(roster, trace.schema(), algorithm).unwrap();
                assert_eq!(
                    (compiled.distinct_members(), compiled.member_count()),
                    (width, k * width),
                    "{label}: every copy folds"
                );
                let (got, got_metrics) = run(k);
                assert_eq!(
                    got,
                    expand_labels(&emissions, width, k),
                    "{label}: emissions"
                );
                assert_eq!(
                    TwinMetrics::of(&got_metrics),
                    TwinMetrics::expanded(&metrics, k),
                    "{label}: metrics"
                );
            }
        }
    }
}
