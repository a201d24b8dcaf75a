//! Property tests for the core engine guarantees, on randomized streams.
//!
//! These pin the dissertation's formal claims:
//! * every filter receives exactly one tuple per logical output (its
//!   candidate sets are all "hit"),
//! * group-aware output never exceeds self-interested output (the
//!   guarantee of §3.3 extends to cuts),
//! * delivered tuples satisfy the quality slack (§2.1),
//! * region segmentation does not change the greedy solution (Theorem 2's
//!   operational consequence).

use gasf_core::prelude::*;
use proptest::prelude::*;

/// Builds a stream from arbitrary step increments (bounded so deltas stay
/// meaningful) at 10 ms intervals.
fn stream_from_steps(steps: &[i32]) -> (Schema, Vec<Tuple>) {
    let schema = Schema::new(["v"]);
    let mut b = TupleBuilder::new(&schema);
    let mut v = 0.0;
    let tuples = steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            v += *s as f64;
            b.at_millis(10 * (i as u64 + 1))
                .set("v", v)
                .build()
                .expect("fixture")
        })
        .collect();
    (schema, tuples)
}

fn engine(schema: &Schema, specs: &[FilterSpec], algorithm: Algorithm) -> GroupEngine {
    GroupEngine::builder(schema.clone())
        .algorithm(algorithm)
        .filters(specs.to_vec())
        .build()
        .expect("valid test config")
}

/// Runs the whole stream through `e` into a [`VecSink`] and returns what
/// it collected.
fn run_all(e: &mut GroupEngine, tuples: &[Tuple]) -> Vec<Emission> {
    let mut out = VecSink::new();
    e.run_into(tuples.to_vec(), &mut out).expect("run");
    out.into_vec()
}

fn spec_strategy() -> impl Strategy<Value = Vec<FilterSpec>> {
    // 2..5 DC filters with deltas 8..40 and slack 10..50% of delta.
    proptest::collection::vec((8.0f64..40.0, 0.1f64..0.5), 2..5).prop_map(|params| {
        params
            .into_iter()
            .map(|(delta, frac)| FilterSpec::delta("v", delta, delta * frac))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ga_never_worse_than_si(
        steps in proptest::collection::vec(-12i32..12, 10..120),
        specs in spec_strategy(),
    ) {
        let (schema, tuples) = stream_from_steps(&steps);
        for algorithm in [Algorithm::RegionGreedy, Algorithm::PerCandidateSet] {
            let mut ga = engine(&schema, &specs, algorithm);
            run_all(&mut ga, &tuples);
            let mut si = engine(&schema, &specs, Algorithm::SelfInterested);
            run_all(&mut si, &tuples);
            prop_assert!(
                ga.metrics().output_tuples <= si.metrics().output_tuples,
                "{algorithm:?}: GA {} > SI {}",
                ga.metrics().output_tuples,
                si.metrics().output_tuples
            );
        }
    }

    #[test]
    fn every_logical_output_is_delivered(
        steps in proptest::collection::vec(-12i32..12, 10..120),
        specs in spec_strategy(),
    ) {
        let (schema, tuples) = stream_from_steps(&steps);
        for algorithm in [Algorithm::RegionGreedy, Algorithm::PerCandidateSet] {
            let mut e = engine(&schema, &specs, algorithm);
            let emissions = run_all(&mut e, &tuples);
            let m = e.metrics();
            for (i, f) in m.per_filter.iter().enumerate() {
                let delivered = emissions
                    .iter()
                    .filter(|em| em.recipients.iter().any(|r| r.index() == i))
                    .count() as u64;
                prop_assert_eq!(
                    delivered, f.sets_closed,
                    "{:?}: filter {} got {} of {} outputs",
                    algorithm, i, delivered, f.sets_closed
                );
                prop_assert_eq!(f.chosen, f.sets_closed);
            }
        }
    }

    #[test]
    fn delivered_tuples_respect_slack(
        steps in proptest::collection::vec(-12i32..12, 10..120),
        specs in spec_strategy(),
    ) {
        let (schema, tuples) = stream_from_steps(&steps);
        // Reference values per filter come from the SI run.
        let mut si = engine(&schema, &specs, Algorithm::SelfInterested);
        let si_emissions = run_all(&mut si, &tuples);
        let mut refs: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        for em in &si_emissions {
            for r in &em.recipients {
                refs[r.index()].push(em.tuple.values()[0]);
            }
        }
        let slack_of = |spec: &FilterSpec| match &spec.kind {
            FilterKind::Delta { slack, .. } => *slack,
            _ => unreachable!("test uses DC specs only"),
        };
        let mut ga = engine(&schema, &specs, Algorithm::RegionGreedy);
        for em in run_all(&mut ga, &tuples) {
            for r in &em.recipients {
                let i = r.index();
                let v = em.tuple.values()[0];
                let ok = refs[i]
                    .iter()
                    .any(|rf| (v - rf).abs() <= slack_of(&specs[i]) + 1e-9);
                prop_assert!(
                    ok,
                    "filter {} received {} outside slack of references {:?}",
                    i, v, refs[i]
                );
            }
        }
    }

    #[test]
    fn determinism(
        steps in proptest::collection::vec(-12i32..12, 10..80),
        specs in spec_strategy(),
    ) {
        let (schema, tuples) = stream_from_steps(&steps);
        let run = |algorithm| {
            let mut e = engine(&schema, &specs, algorithm);
            run_all(&mut e, &tuples)
        };
        for algorithm in [Algorithm::RegionGreedy, Algorithm::PerCandidateSet, Algorithm::SelfInterested] {
            prop_assert_eq!(run(algorithm), run(algorithm));
        }
    }

    #[test]
    fn cuts_preserve_delivery_and_si_bound(
        steps in proptest::collection::vec(-12i32..12, 10..120),
        specs in spec_strategy(),
        deadline_ms in 10u64..200,
    ) {
        let (schema, tuples) = stream_from_steps(&steps);
        let mut cut = GroupEngine::builder(schema.clone())
            .algorithm(Algorithm::RegionGreedy)
            .time_constraint(TimeConstraint::max_delay(Micros::from_millis(deadline_ms)))
            .filters(specs.clone())
            .build()
            .expect("valid");
        let emissions = run_all(&mut cut, &tuples);
        let mut si = engine(&schema, &specs, Algorithm::SelfInterested);
        run_all(&mut si, &tuples);
        prop_assert!(cut.metrics().output_tuples <= si.metrics().output_tuples);
        // every closed set still delivered under cuts
        for (i, f) in cut.metrics().per_filter.iter().enumerate() {
            let delivered = emissions
                .iter()
                .filter(|em| em.recipients.iter().any(|r| r.index() == i))
                .count() as u64;
            prop_assert_eq!(delivered, f.sets_closed);
        }
    }

    #[test]
    fn emissions_cover_all_algorithms_consistently(
        steps in proptest::collection::vec(-12i32..12, 10..80),
        specs in spec_strategy(),
    ) {
        // The per-candidate-set strategy may re-emit, but distinct output
        // accounting must match the set of distinct emitted seqs.
        let (schema, tuples) = stream_from_steps(&steps);
        let mut e = GroupEngine::builder(schema.clone())
            .algorithm(Algorithm::PerCandidateSet)
            .output_strategy(OutputStrategy::PerCandidateSet)
            .filters(specs.clone())
            .build()
            .expect("valid");
        let emissions = run_all(&mut e, &tuples);
        let mut seqs: Vec<u64> = emissions.iter().map(|em| em.tuple.seq()).collect();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(seqs.len() as u64, e.metrics().output_tuples);
    }
}
