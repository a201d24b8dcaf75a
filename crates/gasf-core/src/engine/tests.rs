//! Engine tests transcribing the dissertation's worked examples
//! (Figs. 2.8, 2.11, 3.4, 3.5) plus behavioural coverage of strategies,
//! cuts and the SI baseline.

use super::*;
use crate::quality::FilterSpec;
use crate::tuple::series;

/// The running example stream: §2.1.1's nine tuples plus the closing 112,
/// one tuple every 10 ms starting at 10 ms.
fn paper_stream() -> (Schema, Vec<Tuple>) {
    let schema = Schema::new(["t"]);
    let values = [0.0, 35.0, 29.0, 45.0, 50.0, 59.0, 80.0, 97.0, 100.0, 112.0];
    let pts: Vec<(u64, f64)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| ((i as u64 + 1) * 10, v))
        .collect();
    let tuples = series(&schema, "t", &pts);
    (schema, tuples)
}

/// Filters A(10,50), B(5,40), C(25,80) from Fig. 2.5.
fn abc_specs() -> Vec<FilterSpec> {
    vec![
        FilterSpec::delta("t", 50.0, 10.0).with_label("A"),
        FilterSpec::delta("t", 40.0, 5.0).with_label("B"),
        FilterSpec::delta("t", 80.0, 25.0).with_label("C"),
    ]
}

fn run(
    algorithm: Algorithm,
    strategy: OutputStrategy,
    constraint: Option<TimeConstraint>,
) -> (GroupEngine, Vec<Emission>) {
    let (schema, tuples) = paper_stream();
    let mut b = GroupEngine::builder(schema)
        .algorithm(algorithm)
        .output_strategy(strategy)
        .filters(abc_specs());
    if let Some(c) = constraint {
        b = b.time_constraint(c);
    }
    let mut engine = b.build().unwrap();
    let emissions = engine.run(tuples).unwrap();
    (engine, emissions)
}

/// Value of the single attribute of an emission.
fn val(e: &Emission) -> f64 {
    e.tuple.values()[0]
}

fn recipients(e: &Emission) -> Vec<usize> {
    e.recipients.iter().map(|f| f.index()).collect()
}

#[test]
fn region_greedy_reproduces_fig_2_8() {
    let (engine, emissions) = run(Algorithm::RegionGreedy, OutputStrategy::Earliest, None);
    // Region 1 at slot 2: 0 -> {A,B,C}; region 2 at slot 10: 100 -> {A,B,C}
    // then 50 -> {A,B}.
    let summary: Vec<(f64, Vec<usize>)> =
        emissions.iter().map(|e| (val(e), recipients(e))).collect();
    assert_eq!(
        summary,
        vec![
            (0.0, vec![0, 1, 2]),
            (50.0, vec![0, 1]),
            (100.0, vec![0, 1, 2]),
        ]
    );
    let m = engine.metrics();
    assert_eq!(m.input_tuples, 10);
    assert_eq!(m.output_tuples, 3);
    assert_eq!(m.regions, 2);
    assert_eq!(m.regions_cut, 0);
    // SI would output {0,50,100} ∪ {0,45,97} ∪ {0,80} = 6 distinct tuples.
    // Group-aware needs only 3.
    assert!(m.oi_ratio() < 0.5);
}

#[test]
fn per_candidate_set_reproduces_fig_2_11() {
    let (engine, emissions) = run(Algorithm::PerCandidateSet, OutputStrategy::Earliest, None);
    // Decisions: 0 -> {A,B,C} (slot 2), 50 -> {B} (slot 6), 50 -> {A}
    // (slot 7), 100 -> {A,B,C} (slot 10). Under the Earliest strategy the
    // decisions are multicast at region completion, merged per tuple.
    let summary: Vec<(f64, Vec<usize>)> =
        emissions.iter().map(|e| (val(e), recipients(e))).collect();
    assert_eq!(
        summary,
        vec![
            (0.0, vec![0, 1, 2]),
            (50.0, vec![0, 1]),
            (100.0, vec![0, 1, 2]),
        ]
    );
    assert_eq!(engine.metrics().output_tuples, 3);
    // Each filter chose one tuple per closed set: A and B have 3 sets, C 2.
    let chosen: Vec<u64> = engine
        .metrics()
        .per_filter
        .iter()
        .map(|f| f.chosen)
        .collect();
    assert_eq!(chosen, vec![3, 3, 2]);
}

#[test]
fn per_candidate_set_output_strategy_emits_at_decision_time() {
    let (_, emissions) = run(
        Algorithm::PerCandidateSet,
        OutputStrategy::PerCandidateSet,
        None,
    );
    // Decision times: slot 2 (20 ms), slot 6 (60 ms), slot 7 (70 ms),
    // slot 10 (100 ms); tuple 50 is emitted twice (to B, then to A).
    let summary: Vec<(f64, Vec<usize>, u64)> = emissions
        .iter()
        .map(|e| (val(e), recipients(e), e.emitted_at.as_micros() / 1000))
        .collect();
    assert_eq!(
        summary,
        vec![
            (0.0, vec![0, 1, 2], 20),
            (50.0, vec![1], 60),
            (50.0, vec![0], 70),
            (100.0, vec![0, 1, 2], 100),
        ]
    );
}

#[test]
fn self_interested_baseline_emits_references() {
    let (engine, emissions) = run(Algorithm::SelfInterested, OutputStrategy::Earliest, None);
    // A: {0,50,100}; B: {0,45,97}; C: {0,80} -> union {0,45,50,80,97,100}.
    let mut vals: Vec<f64> = emissions.iter().map(val).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(vals, vec![0.0, 45.0, 50.0, 80.0, 97.0, 100.0]);
    let m = engine.metrics();
    assert_eq!(m.output_tuples, 6);
    // SI emits at reference identification: zero filtering latency.
    assert_eq!((m.latency_us.count(), m.latency_us.max()), (m.emissions, 0));
    // tuple 0 is shared by all three filters even under SI multiplexing
    let zero = emissions.iter().find(|e| val(e) == 0.0).unwrap();
    assert_eq!(recipients(zero), vec![0, 1, 2]);
}

#[test]
fn group_aware_never_exceeds_si_output() {
    for algo in [Algorithm::RegionGreedy, Algorithm::PerCandidateSet] {
        let (ga, _) = run(algo, OutputStrategy::Earliest, None);
        let (si, _) = run(Algorithm::SelfInterested, OutputStrategy::Earliest, None);
        assert!(
            ga.metrics().output_tuples <= si.metrics().output_tuples,
            "{algo:?} produced more than SI"
        );
    }
}

#[test]
fn rg_with_cut_reproduces_fig_3_4() {
    // A 30 ms group constraint triggers the cut right after slot 7
    // (tuple 80): C's open set {59, 80} is force-closed, region 2 closes,
    // and the greedy picks 59 -> {A, C}, 50 -> {B}. Later 100 -> {A, B}.
    let (engine, emissions) = run(
        Algorithm::RegionGreedy,
        OutputStrategy::Earliest,
        Some(TimeConstraint::max_delay(Micros::from_millis(30))),
    );
    let summary: Vec<(f64, Vec<usize>)> =
        emissions.iter().map(|e| (val(e), recipients(e))).collect();
    assert_eq!(
        summary,
        vec![
            (0.0, vec![0, 1, 2]),
            (50.0, vec![1]),
            (59.0, vec![0, 2]),
            (100.0, vec![0, 1]),
        ]
    );
    let m = engine.metrics();
    assert_eq!(m.regions, 3);
    assert_eq!(m.regions_cut, 1);
    assert_eq!(m.output_tuples, 4, "cuts trade bandwidth for latency");
}

#[test]
fn ps_with_cut_reproduces_fig_3_5() {
    // A 30 ms per-filter budget cuts C's candidate set before tuple 100 is
    // admitted (slot 9): C chooses 97; A and B then follow (heuristic 1).
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .algorithm(Algorithm::PerCandidateSet)
        .output_strategy(OutputStrategy::PerCandidateSet)
        .time_constraint(TimeConstraint::max_delay(Micros::from_millis(30)))
        .filters(abc_specs())
        .build()
        .unwrap();
    let emissions = engine.run(tuples).unwrap();
    let summary: Vec<(f64, Vec<usize>)> =
        emissions.iter().map(|e| (val(e), recipients(e))).collect();
    assert_eq!(
        summary,
        vec![
            (0.0, vec![0, 1, 2]),
            (50.0, vec![1]),
            (50.0, vec![0]),
            (97.0, vec![2]),
            (97.0, vec![0, 1]),
        ]
    );
    assert_eq!(engine.metrics().output_tuples, 3);
}

#[test]
fn batched_strategy_delays_emissions() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .algorithm(Algorithm::RegionGreedy)
        .output_strategy(OutputStrategy::Batched(10))
        .filters(abc_specs())
        .build()
        .unwrap();
    let mut per_push: Vec<usize> = Vec::new();
    for t in tuples {
        per_push.push(engine.push(t).unwrap().len());
    }
    // Nothing before the 10th tuple; everything decided so far at tuple 10.
    assert!(per_push[..9].iter().all(|&n| n == 0));
    assert_eq!(per_push[9], 3);
}

#[test]
fn earliest_latency_below_batched_latency() {
    let run_with = |strategy| {
        let (engine, _) = run(Algorithm::RegionGreedy, strategy, None);
        engine.metrics().mean_latency()
    };
    let earliest = run_with(OutputStrategy::Earliest);
    let batched = run_with(OutputStrategy::Batched(10));
    assert!(
        earliest <= batched,
        "earliest {earliest} vs batched {batched}"
    );
}

#[test]
fn compression_ratio_preserved_by_region_greedy() {
    // §2.3.3: for stateless filters, RG chooses exactly one tuple per
    // reference output.
    let (engine, _) = run(Algorithm::RegionGreedy, OutputStrategy::Earliest, None);
    for f in &engine.metrics().per_filter {
        assert_eq!(f.references, f.chosen);
    }
}

#[test]
fn stateful_filters_require_per_candidate_set() {
    let schema = Schema::new(["t"]);
    let err = GroupEngine::builder(schema.clone())
        .algorithm(Algorithm::RegionGreedy)
        .filter(FilterSpec::stateful_delta("t", 50.0, 10.0))
        .build()
        .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig { .. }));
    // …but PS accepts them, and SI silently builds a stateless twin.
    assert!(GroupEngine::builder(schema.clone())
        .algorithm(Algorithm::PerCandidateSet)
        .filter(FilterSpec::stateful_delta("t", 50.0, 10.0))
        .build()
        .is_ok());
    assert!(GroupEngine::builder(schema)
        .algorithm(Algorithm::SelfInterested)
        .filter(FilterSpec::stateful_delta("t", 50.0, 10.0))
        .build()
        .is_ok());
}

#[test]
fn empty_group_rejected() {
    let err = GroupEngine::builder(Schema::new(["t"]))
        .build()
        .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig { .. }));
}

#[test]
fn ordering_violations_rejected() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .filters(abc_specs())
        .build()
        .unwrap();
    engine.push(tuples[0].clone()).unwrap();
    // a decreasing timestamp
    let bad_ts = Tuple::from_wire(1, Micros::from_millis(5), tuples[0].values().to_vec());
    assert!(matches!(engine.push(bad_ts), Err(Error::OutOfOrder { .. })));
    // an equal timestamp with the next dense seq is legal (non-decreasing
    // order; the seq range is the tiebreak)
    engine.push(tuples[0].with_seq(1)).unwrap();
    // gap in sequence numbers
    let bad_seq = tuples[2].clone().with_seq(5);
    assert!(matches!(
        engine.push(bad_seq),
        Err(Error::NonContiguousSeq { .. })
    ));
    // a correct continuation still works
    engine.push(tuples[1].with_seq(2)).unwrap();
}

#[test]
fn push_after_finish_fails() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .filters(abc_specs())
        .build()
        .unwrap();
    engine.finish().unwrap();
    assert!(matches!(
        engine.push(tuples[0].clone()),
        Err(Error::Finished)
    ));
    assert!(matches!(engine.finish(), Err(Error::Finished)));
}

#[test]
fn finish_flushes_open_state() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .algorithm(Algorithm::RegionGreedy)
        .filters(abc_specs())
        .build()
        .unwrap();
    let mut emissions = Vec::new();
    // Stop mid-stream (after tuple 97): sets are still open.
    for t in tuples.into_iter().take(8) {
        emissions.extend(engine.push(t).unwrap());
    }
    let tail = engine.finish().unwrap();
    assert!(!tail.is_empty(), "finish must flush the open region");
    // every filter's quality still satisfied: at least region-1 output 0
    assert!(emissions.iter().any(|e| val(e) == 0.0));
}

#[test]
fn every_closed_set_is_hit_by_some_emission() {
    for algo in [Algorithm::RegionGreedy, Algorithm::PerCandidateSet] {
        let (engine, emissions) = run(algo, OutputStrategy::Earliest, None);
        // Per filter: #sets closed == #logical outputs delivered.
        let m = engine.metrics();
        for (i, f) in m.per_filter.iter().enumerate() {
            let delivered: u64 = emissions
                .iter()
                .filter(|e| e.recipients.iter().any(|r| r.index() == i))
                .count() as u64;
            assert_eq!(
                delivered, f.sets_closed,
                "{algo:?}: filter {i} delivered {delivered} of {} sets",
                f.sets_closed
            );
        }
    }
}

#[test]
fn quality_guarantee_all_chosen_tuples_within_slack() {
    // Every tuple delivered to a DC filter must be within slack of one of
    // its reference values.
    let (schema, tuples) = paper_stream();
    let refs: Vec<Vec<f64>> = vec![
        vec![0.0, 50.0, 100.0], // A
        vec![0.0, 45.0, 97.0],  // B
        vec![0.0, 80.0],        // C
    ];
    let slacks = [10.0, 5.0, 25.0];
    let mut engine = GroupEngine::builder(schema)
        .algorithm(Algorithm::RegionGreedy)
        .filters(abc_specs())
        .build()
        .unwrap();
    let emissions = engine.run(tuples).unwrap();
    for e in &emissions {
        for r in &e.recipients {
            let i = r.index();
            let v = e.tuple.values()[0];
            let ok = refs[i].iter().any(|rf| (v - rf).abs() <= slacks[i]);
            assert!(ok, "tuple {v} not within slack of filter {i}'s references");
        }
    }
}

#[test]
fn metrics_latency_reflects_region_wait() {
    let (engine, emissions) = run(Algorithm::RegionGreedy, OutputStrategy::Earliest, None);
    // Tuple 0 (ts 10 ms) is released at 20 ms; tuple 50 (ts 50 ms) at
    // 100 ms; tuple 100 (ts 90 ms) at 100 ms.
    let mut lats: Vec<u64> = emissions.iter().map(|e| e.latency().as_micros()).collect();
    lats.sort_unstable();
    assert_eq!(lats, vec![10_000, 10_000, 50_000]);
    // The engine's histogram holds the same samples.
    let m = engine.metrics();
    assert_eq!((m.latency_us.count(), m.latency_us.max()), (3, 50_000));
    assert_eq!(m.mean_latency(), Micros(70_000 / 3));
}

#[test]
fn run_convenience_equals_manual_loop() {
    let (schema, tuples) = paper_stream();
    let mut e1 = GroupEngine::builder(schema.clone())
        .filters(abc_specs())
        .build()
        .unwrap();
    let all = e1.run(tuples.clone()).unwrap();
    let mut e2 = GroupEngine::builder(schema)
        .filters(abc_specs())
        .build()
        .unwrap();
    let mut manual = Vec::new();
    for t in tuples {
        manual.extend(e2.push(t).unwrap());
    }
    manual.extend(e2.finish().unwrap());
    assert_eq!(all, manual);
}

#[test]
fn accessors_report_configuration() {
    let (schema, _) = paper_stream();
    let engine = GroupEngine::builder(schema.clone())
        .algorithm(Algorithm::PerCandidateSet)
        .time_constraint(TimeConstraint::max_delay(Micros::from_millis(5)))
        .filters(abc_specs())
        .build()
        .unwrap();
    assert_eq!(engine.algorithm(), Algorithm::PerCandidateSet);
    assert_eq!(
        engine.time_constraint(),
        Some(TimeConstraint::max_delay(Micros::from_millis(5)))
    );
    assert_eq!(engine.specs().len(), 3);
    assert!(engine.schema().same_as(&schema));
    let m = engine.into_metrics();
    assert_eq!(m.input_tuples, 0);
}

#[test]
fn constraint_derived_from_filter_tolerances() {
    let (schema, _) = paper_stream();
    let engine = GroupEngine::builder(schema)
        .filter(FilterSpec::delta("t", 50.0, 10.0).with_latency_tolerance(Micros::from_millis(40)))
        .filter(FilterSpec::delta("t", 40.0, 5.0).with_latency_tolerance(Micros::from_millis(20)))
        .build()
        .unwrap();
    assert_eq!(
        engine.time_constraint(),
        Some(TimeConstraint::max_delay(Micros::from_millis(20)))
    );
}

#[test]
fn emission_latency_helper() {
    let (_, emissions) = run(Algorithm::RegionGreedy, OutputStrategy::Earliest, None);
    for e in &emissions {
        assert_eq!(
            e.latency(),
            e.emitted_at.saturating_sub(e.tuple.timestamp())
        );
    }
}

#[test]
fn aggressive_cuts_degrade_towards_si_but_never_worse() {
    // With an extremely tight constraint, every region is cut almost
    // immediately; output size must still be <= SI's.
    let (ga, _) = run(
        Algorithm::RegionGreedy,
        OutputStrategy::Earliest,
        Some(TimeConstraint::max_delay(Micros::from_millis(1))),
    );
    let (si, _) = run(Algorithm::SelfInterested, OutputStrategy::Earliest, None);
    assert!(ga.metrics().output_tuples <= si.metrics().output_tuples);
    assert!(ga.metrics().regions_cut > 0);
    assert!(ga.metrics().cut_fraction() > 0.0);
}

#[test]
fn cut_inputs_count_every_twin_of_a_folded_member() {
    // What the group cut reads — the oldest pending candidate and the
    // candidate count the run-time predictor is asked about — must not
    // change when identical filters are folded into one member: the
    // compiled engine (A, B and C each three times: three members) and
    // the interpreted one (nine filters) agree after every tuple, over
    // open sets and pending regions alike.
    let (schema, tuples) = paper_stream();
    let mut engines: Vec<GroupEngine> = [EvaluatorTier::Compiled, EvaluatorTier::Interpreted]
        .into_iter()
        .map(|tier| {
            GroupEngine::builder(schema.clone())
                .evaluator(tier)
                .time_constraint(TimeConstraint::max_delay(Micros::from_millis(45)))
                .filters((0..9).map(|i| abc_specs()[i % 3].clone()))
                .build()
                .unwrap()
        })
        .collect();
    let folded = engines[0].compiled.as_ref().unwrap();
    assert_eq!((folded.distinct_members(), folded.member_count()), (3, 9));
    let mut seen = 0;
    for t in tuples {
        let views: Vec<_> = (engines.iter_mut())
            .map(|e| {
                let released = e.push(t.clone()).unwrap();
                (
                    e.pending_candidates(),
                    e.oldest_pending_candidate(),
                    released,
                )
            })
            .collect();
        assert_eq!(views[0], views[1], "after tuple {}", t.seq());
        seen = seen.max(views[0].0);
    }
    assert!(seen >= 9, "never more than {seen} candidates pending");
    assert!(
        engines[0].metrics().regions_cut > 0,
        "the deadline never cut"
    );
}

#[test]
fn mean_region_size_matches_paper_scale() {
    let (engine, _) = run(Algorithm::RegionGreedy, OutputStrategy::Earliest, None);
    // Region 1 has 3 candidates; region 2's five sets hold 3+2+4+2+2 = 13
    // candidates with multiplicity.
    let m = engine.metrics();
    // Sizes below 32 are exact buckets: the two quantiles are the sizes.
    let sizes = &m.region_size;
    assert_eq!((sizes.count(), sizes.sum()), (2, 16));
    assert_eq!((sizes.quantile(0.5), sizes.quantile(1.0)), (3, 13));
    assert_eq!(m.mean_region_size(), 8.0);
}

#[test]
fn watermark_advances_with_region_completion() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .filters(abc_specs())
        .build()
        .unwrap();
    assert_eq!(engine.watermark(), Micros::ZERO);
    let mut tuples = tuples.into_iter();
    for t in tuples.by_ref().take(3) {
        engine.push(t).unwrap();
    }
    // region 1 (cover [10,10] ms) completed at slot 2
    assert_eq!(engine.watermark(), Micros::from_millis(10));
    for t in tuples {
        engine.push(t).unwrap();
    }
    engine.finish().unwrap();
    // region 2's cover extends to tuple 100 @ 90 ms
    assert_eq!(engine.watermark(), Micros::from_millis(90));
}

#[test]
fn pcs_strategy_reports_disorder() {
    // Disorder happens when a *lower* sequence number is released in a
    // later flush than a higher one. Build it with misaligned sampler
    // windows: P samples 50 ms windows (decides and emits early), Q is a
    // k=3 reservoir over 170 ms windows — when Q closes it prefers P's
    // already-decided tuples (heuristic 1), which are older than P's most
    // recent emission.
    let build = |strategy| {
        let schema = Schema::new(["t"]);
        let pts: Vec<(u64, f64)> = (0..40).map(|i| (10 * (i + 1), i as f64)).collect();
        let tuples = crate::tuple::series(&schema, "t", &pts);
        let mut engine = GroupEngine::builder(schema)
            .algorithm(Algorithm::PerCandidateSet)
            .output_strategy(strategy)
            .filter(FilterSpec::stratified_sample(
                "t",
                Micros::from_millis(50),
                1000.0, // never "high dynamics": always the low rate
                20.0,
                20.0,
            ))
            .filter(FilterSpec::reservoir("t", Micros::from_millis(170), 3))
            .build()
            .unwrap();
        engine.run(tuples).unwrap();
        engine
    };
    let pcs = build(OutputStrategy::PerCandidateSet);
    assert!(
        pcs.metrics().disordered_emissions > 0,
        "expected out-of-order emissions under Pcs with misaligned windows"
    );
    // ...while the Earliest strategy holds outputs until the region
    // completes and releases them in sequence order: no disorder.
    let ordered = build(OutputStrategy::Earliest);
    assert_eq!(ordered.metrics().disordered_emissions, 0);
}

/// What the release path keeps per emitted id must die with the id's
/// pool slot: over a long stream the distinct-output accounting stays
/// exact — re-emissions to late recipients included — while the engine
/// holds nothing that grows with the number of emissions.
#[test]
fn distinct_output_accounting_is_exact_and_holds_no_per_emission_state() {
    /// Recomputes the release-side counters from the emission stream.
    #[derive(Default)]
    struct Recount {
        emissions: u64,
        distinct: std::collections::HashSet<TupleId>,
        disordered: u64,
        max_id: Option<TupleId>,
    }
    impl EmissionSink for Recount {
        fn accept(&mut self, e: &Emission) {
            let id = e.tuple.id();
            self.emissions += 1;
            self.distinct.insert(id);
            if self.max_id.is_some_and(|m| id < m) {
                self.disordered += 1;
            }
            self.max_id = self.max_id.max(Some(id));
        }
    }

    const TUPLES: u64 = 100_000;
    let schema = Schema::new(["t"]);
    for algorithm in [
        Algorithm::RegionGreedy,
        Algorithm::PerCandidateSet,
        Algorithm::SelfInterested,
    ] {
        for strategy in [
            OutputStrategy::Earliest,
            OutputStrategy::PerCandidateSet,
            OutputStrategy::Batched(7),
        ] {
            // Two deltas plus the misaligned samplers of
            // `pcs_strategy_reports_disorder`, so that tuples are chosen
            // again after they were first released.
            let mut engine = GroupEngine::builder(schema.clone())
                .algorithm(algorithm)
                .output_strategy(strategy)
                .filter(FilterSpec::delta("t", 8.0, 3.0))
                .filter(FilterSpec::delta("t", 13.0, 2.0))
                .filter(FilterSpec::stratified_sample(
                    "t",
                    Micros::from_millis(50),
                    1000.0,
                    20.0,
                    20.0,
                ))
                .filter(FilterSpec::reservoir("t", Micros::from_millis(170), 3))
                .build()
                .unwrap();
            let mut sink = Recount::default();
            let mut builder = crate::tuple::TupleBuilder::new(&schema);
            let (mut rng, mut value, mut buffered) = (0x9E37_79B9_7F4A_7C15u64, 50.0, 0);
            for i in 0..TUPLES {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                value += ((rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10.0;
                let tuple = builder.at_millis(10 * (i + 1)).set("t", value).build();
                engine.push_into(tuple.unwrap(), &mut sink).unwrap();
                buffered = buffered.max(engine.buffered_tuples());
            }
            let ctx = format!("{algorithm:?}/{strategy:?}");
            // The live window (longest region chain), not the stream.
            assert!(buffered <= 1_000, "{ctx}: {buffered} tuples buffered");
            engine.finish_into(&mut sink).unwrap();
            assert_eq!(engine.buffered_tuples(), 0, "{ctx}");
            let m = engine.metrics();
            assert_eq!(m.emissions, sink.emissions, "{ctx}");
            assert_eq!(m.output_tuples, sink.distinct.len() as u64, "{ctx}");
            assert_eq!(m.disordered_emissions, sink.disordered, "{ctx}");
            if (algorithm, strategy)
                == (Algorithm::PerCandidateSet, OutputStrategy::PerCandidateSet)
            {
                assert!(m.emissions > m.output_tuples, "{ctx}: no re-emission");
            }
        }
    }
}

// ------------------------------------------------------------------
// sink-based streaming path
// ------------------------------------------------------------------

#[test]
fn sink_path_matches_vec_wrappers_per_push() {
    // Two identical engines in lockstep: per push, the sink path must
    // release exactly what the legacy Vec wrapper returns — including the
    // batching boundaries of every strategy.
    for algorithm in [
        Algorithm::RegionGreedy,
        Algorithm::PerCandidateSet,
        Algorithm::SelfInterested,
    ] {
        for strategy in [
            OutputStrategy::Earliest,
            OutputStrategy::PerCandidateSet,
            OutputStrategy::Batched(3),
        ] {
            let (schema, tuples) = paper_stream();
            let build = || {
                GroupEngine::builder(schema.clone())
                    .algorithm(algorithm)
                    .output_strategy(strategy)
                    .filters(abc_specs())
                    .build()
                    .unwrap()
            };
            let mut legacy = build();
            let mut streamed = build();
            let mut sink = VecSink::new();
            for t in tuples {
                let expected = legacy.push(t.clone()).unwrap();
                streamed.push_into(t, &mut sink).unwrap();
                assert_eq!(sink.drain_vec(), expected, "{algorithm:?}/{strategy:?}");
            }
            let expected_tail = legacy.finish().unwrap();
            streamed.finish_into(&mut sink).unwrap();
            assert_eq!(
                sink.drain_vec(),
                expected_tail,
                "{algorithm:?}/{strategy:?}"
            );
            assert_eq!(
                legacy.metrics().output_tuples,
                streamed.metrics().output_tuples
            );
        }
    }
}

#[test]
fn run_into_equals_run() {
    let (schema, tuples) = paper_stream();
    let build = || {
        GroupEngine::builder(schema.clone())
            .filters(abc_specs())
            .build()
            .unwrap()
    };
    let legacy = build().run(tuples.clone()).unwrap();
    let mut sink = VecSink::new();
    build().run_into(tuples, &mut sink).unwrap();
    assert_eq!(sink.into_vec(), legacy);
}

#[test]
fn stream_operator_seam_drives_the_engine() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .filters(abc_specs())
        .build()
        .unwrap();
    let mut sink = VecSink::new();
    engine.push_batch(tuples, &mut sink).unwrap();
    engine.finish_into(&mut sink).unwrap();
    assert_eq!(sink.len() as u64, engine.metrics().emissions);
    assert!(!sink.is_empty());
}

#[test]
fn push_into_after_finish_fails() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .filters(abc_specs())
        .build()
        .unwrap();
    let mut sink = crate::sink::NullSink;
    engine.finish_into(&mut sink).unwrap();
    assert!(matches!(
        engine.push_into(tuples[0].clone(), &mut sink),
        Err(Error::Finished)
    ));
    assert!(matches!(
        engine.finish_into(&mut sink),
        Err(Error::Finished)
    ));
}

#[test]
fn batched_strategy_batches_through_sink() {
    let (schema, tuples) = paper_stream();
    let mut engine = GroupEngine::builder(schema)
        .algorithm(Algorithm::SelfInterested)
        .output_strategy(OutputStrategy::Batched(10))
        .filters(abc_specs())
        .build()
        .unwrap();
    // SI releases everything pending on every push regardless of batching;
    // use a counting check on the sink batches instead: every accept_batch
    // call carries at least one emission (empty steps skip the sink).
    struct BatchAudit {
        batches: usize,
        emissions: usize,
    }
    impl EmissionSink for BatchAudit {
        fn accept(&mut self, _: &Emission) {
            self.emissions += 1;
        }
        fn accept_batch(&mut self, emissions: &[Emission]) {
            assert!(!emissions.is_empty(), "engine must skip empty batches");
            self.batches += 1;
            self.emissions += emissions.len();
        }
    }
    let mut audit = BatchAudit {
        batches: 0,
        emissions: 0,
    };
    engine.run_into(tuples, &mut audit).unwrap();
    assert!(audit.batches > 0);
    assert_eq!(audit.emissions as u64, engine.metrics().emissions);
    assert!(
        audit.batches <= audit.emissions,
        "batches group emissions, never split them"
    );
}

// ---------------------------------------------------------------------
// subscription control plane (epochs)
// ---------------------------------------------------------------------

mod control_plane {
    use super::*;
    use crate::metrics::{EngineMetrics, FilterMetrics, Histogram};
    use crate::sink::VecSink;

    fn long_stream(n: usize) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(["t"]);
        let pts: Vec<(u64, f64)> = (0..n)
            .map(|i| {
                (
                    (i as u64 + 1) * 10,
                    (i as f64 * 0.7).sin() * 40.0 + i as f64 * 0.3,
                )
            })
            .collect();
        let tuples = series(&schema, "t", &pts);
        (schema, tuples)
    }

    type Fingerprint = (u64, u64, u64, u64, Histogram, Histogram, Vec<FilterMetrics>);

    fn fingerprint(m: &EngineMetrics) -> Fingerprint {
        (
            m.input_tuples,
            m.output_tuples,
            m.emissions,
            m.recipient_labels,
            m.latency_us.clone(),
            m.region_size.clone(),
            m.per_filter.clone(),
        )
    }

    /// The oracle of a churned engine's lifetime metrics: its static
    /// segment engines' metrics added up, per-filter counters by filter id
    /// (every segment pins the ids it keeps).
    fn fold_by_id(segments: &[&EngineMetrics]) -> EngineMetrics {
        let mut total = EngineMetrics::default();
        for &m in segments {
            let mut scalars = m.clone();
            let per_filter = std::mem::take(&mut scalars.per_filter);
            total.merge(&scalars);
            if total.per_filter.len() < per_filter.len() {
                total
                    .per_filter
                    .resize(per_filter.len(), FilterMetrics::default());
            }
            for (sum, f) in total.per_filter.iter_mut().zip(&per_filter) {
                sum.references += f.references;
                sum.chosen += f.chosen;
                sum.sets_closed += f.sets_closed;
                sum.sets_cut += f.sets_cut;
                sum.admitted += f.admitted;
                sum.dismissed += f.dismissed;
            }
        }
        total
    }

    #[test]
    fn ids_are_stable_and_never_reused() {
        let (schema, tuples) = long_stream(40);
        let mut e = GroupEngine::builder(schema)
            .filters(abc_specs())
            .build()
            .unwrap();
        let mut sink = VecSink::new();
        e.push_batch(tuples[..10].to_vec(), &mut sink).unwrap();
        let d = e.add_filter(FilterSpec::delta("t", 30.0, 10.0)).unwrap();
        assert_eq!(d.index(), 3);
        e.remove_filter(FilterId::from_index(1)).unwrap();
        assert_eq!(e.pending_control_ops(), 2);
        e.push_batch(tuples[10..20].to_vec(), &mut sink).unwrap();
        assert_eq!(e.pending_control_ops(), 0);
        assert_eq!(e.epoch(), 1);
        // the vacated slot is never handed out again
        let d2 = e.add_filter(FilterSpec::delta("t", 25.0, 8.0)).unwrap();
        assert_eq!(d2.index(), 4);
        e.push_batch(tuples[20..].to_vec(), &mut sink).unwrap();
        let roster: Vec<usize> = e.roster().iter().map(|(id, _)| id.index()).collect();
        assert_eq!(roster, vec![0, 2, 3, 4]);
        assert_eq!(e.group_size(), 4);
        e.finish_into(&mut sink).unwrap();
    }

    #[test]
    fn control_op_validation() {
        let (schema, tuples) = long_stream(10);
        let mut e = GroupEngine::builder(schema)
            .filter(FilterSpec::delta("t", 40.0, 5.0))
            .build()
            .unwrap();
        // unknown id / unknown attribute / empty-group guard
        assert!(matches!(
            e.remove_filter(FilterId::from_index(7)),
            Err(Error::UnknownFilter { .. })
        ));
        assert!(matches!(
            e.remove_filter(FilterId::from_index(0)),
            Err(Error::InvalidConfig { .. }),
        ));
        assert!(e.add_filter(FilterSpec::delta("nope", 1.0, 0.1)).is_err());
        assert!(matches!(
            e.update_filter(FilterId::from_index(3), FilterSpec::delta("t", 1.0, 0.1)),
            Err(Error::UnknownFilter { .. })
        ));
        // a queued add makes its id a valid remove target, and removing
        // the only *remaining* filter is still rejected
        let id = e.add_filter(FilterSpec::delta("t", 20.0, 4.0)).unwrap();
        e.remove_filter(FilterId::from_index(0)).unwrap();
        assert!(matches!(
            e.remove_filter(id),
            Err(Error::InvalidConfig { .. })
        ));
        let mut sink = VecSink::new();
        e.run_into(tuples, &mut sink).unwrap();
        // after finish every op errors
        assert!(matches!(
            e.add_filter(FilterSpec::delta("t", 9.0, 1.0)),
            Err(Error::Finished)
        ));
    }

    #[test]
    fn rejected_push_does_not_cross_the_epoch_boundary() {
        // A tuple that fails stream-order validation must leave the
        // engine exactly as it was: no epoch advance, no boundary drain,
        // ops still queued for the next accepted tuple.
        let (schema, tuples) = long_stream(20);
        let mut e = GroupEngine::builder(schema)
            .filters(abc_specs())
            .build()
            .unwrap();
        let mut sink = VecSink::new();
        e.push_batch(tuples[..10].to_vec(), &mut sink).unwrap();
        e.add_filter(FilterSpec::delta("t", 30.0, 10.0)).unwrap();
        let emitted_before = sink.len();
        // replaying an old tuple is rejected before the safe point
        assert!(matches!(
            e.push_into(tuples[3].clone(), &mut sink),
            Err(Error::OutOfOrder { .. })
        ));
        assert_eq!(e.epoch(), 0, "failed push must not advance the epoch");
        assert_eq!(e.pending_control_ops(), 1, "ops stay queued");
        assert_eq!(sink.len(), emitted_before, "no boundary drain leaked");
        // the next accepted tuple crosses the boundary normally
        e.push_into(tuples[10].clone(), &mut sink).unwrap();
        assert_eq!(e.epoch(), 1);
        assert_eq!(e.pending_control_ops(), 0);
        e.finish_into(&mut sink).unwrap();
    }

    #[test]
    fn stateful_add_rejected_under_region_greedy() {
        let (schema, _) = long_stream(4);
        let mut e = GroupEngine::builder(schema)
            .filter(FilterSpec::delta("t", 40.0, 5.0))
            .build()
            .unwrap();
        assert!(matches!(
            e.add_filter(FilterSpec::stateful_delta("t", 20.0, 4.0)),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn churn_is_byte_identical_to_static_rebuild() {
        // The determinism contract, in miniature (the cross-crate
        // `churn_equivalence` suite covers the full matrix): dynamic
        // add/remove/update at a boundary == stop + rebuild (with
        // `filter_at` pinning the surviving ids) + continue.
        let (schema, tuples) = long_stream(60);
        let retuned = FilterSpec::delta("t", 35.0, 12.0);
        let added = FilterSpec::delta("t", 28.0, 9.0);

        let mut dynamic = GroupEngine::builder(schema.clone())
            .filters(abc_specs())
            .build()
            .unwrap();
        let mut dyn_sink = VecSink::new();
        dynamic
            .push_batch(tuples[..30].to_vec(), &mut dyn_sink)
            .unwrap();
        dynamic.add_filter(added.clone()).unwrap();
        dynamic.remove_filter(FilterId::from_index(1)).unwrap();
        dynamic
            .update_filter(FilterId::from_index(2), retuned.clone())
            .unwrap();
        dynamic
            .push_batch(tuples[30..].to_vec(), &mut dyn_sink)
            .unwrap();
        dynamic.finish_into(&mut dyn_sink).unwrap();

        // Static composite: epoch 0 engine over the prefix…
        let mut epoch0 = GroupEngine::builder(schema.clone())
            .filters(abc_specs())
            .build()
            .unwrap();
        let mut static_sink = VecSink::new();
        epoch0
            .push_batch(tuples[..30].to_vec(), &mut static_sink)
            .unwrap();
        epoch0.finish_into(&mut static_sink).unwrap();
        // …then a fresh engine with the post-churn roster on the suffix.
        let specs = abc_specs();
        let mut epoch1 = GroupEngine::builder(schema)
            .filter_at(FilterId::from_index(0), specs[0].clone())
            .filter_at(FilterId::from_index(2), retuned)
            .filter_at(FilterId::from_index(3), added)
            .build()
            .unwrap();
        epoch1
            .push_batch(tuples[30..].to_vec(), &mut static_sink)
            .unwrap();
        epoch1.finish_into(&mut static_sink).unwrap();

        assert_eq!(dyn_sink.as_slice(), static_sink.as_slice());
        // the lifetime metrics are the segment engines' added up by
        // filter id, and the removed filter's stats survive in its slot
        assert_eq!(dynamic.epoch(), 1);
        assert_eq!(
            fingerprint(dynamic.metrics()),
            fingerprint(&fold_by_id(&[epoch0.metrics(), epoch1.metrics()]))
        );
        let removed = &dynamic.metrics().per_filter[1];
        assert!(removed.sets_closed > 0, "removed filter's stats survive");
        assert_eq!(removed, &epoch0.metrics().per_filter[1]);
    }

    #[test]
    fn builder_rejects_double_pinned_slot() {
        let schema = Schema::new(["t"]);
        assert!(matches!(
            GroupEngine::builder(schema)
                .filter_at(FilterId::from_index(1), FilterSpec::delta("t", 2.0, 0.5))
                .filter_at(FilterId::from_index(1), FilterSpec::delta("t", 3.0, 0.5))
                .build(),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn unpinned_specs_fill_lowest_free_slots() {
        let schema = Schema::new(["t"]);
        let e = GroupEngine::builder(schema)
            .filter_at(FilterId::from_index(1), FilterSpec::delta("t", 2.0, 0.5))
            .filter(FilterSpec::delta("t", 3.0, 0.5))
            .filter(FilterSpec::delta("t", 4.0, 0.5))
            .build()
            .unwrap();
        let ids: Vec<usize> = e.roster().iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn sharded_control_ops_match_inline() {
        let (schema, tuples) = long_stream(80);
        let added = FilterSpec::delta("t", 28.0, 9.0);

        let mut inline = GroupEngine::builder(schema.clone())
            .filters(abc_specs())
            .build()
            .unwrap();
        let mut expected = VecSink::new();
        inline
            .push_batch(tuples[..40].to_vec(), &mut expected)
            .unwrap();
        let inline_id = inline.add_filter(added.clone()).unwrap();
        inline.remove_filter(FilterId::from_index(0)).unwrap();
        inline
            .push_batch(tuples[40..].to_vec(), &mut expected)
            .unwrap();
        inline.finish_into(&mut expected).unwrap();

        for n in [1usize, 2, 4] {
            let mut sharded = crate::shard::ShardedEngine::builder()
                .parallelism(n)
                .route(
                    "group",
                    GroupEngine::builder(schema.clone()).filters(abc_specs()),
                )
                .build()
                .unwrap();
            let mut out = VecSink::new();
            // 17-row batches: the control ops land inside what would be
            // the third one.
            let mut feed = |sharded: &mut crate::shard::ShardedEngine, rows: &[Tuple]| {
                for chunk in rows.chunks(17) {
                    let batch = TupleBatch::from_tuples(&schema, chunk).unwrap();
                    sharded
                        .push_batch_columnar(&Arc::new(batch), &mut out)
                        .unwrap();
                }
            };
            feed(&mut sharded, &tuples[..40]);
            let id = sharded.add_filter(0, added.clone()).unwrap();
            assert_eq!(id, inline_id, "mirrored id assignment");
            sharded.remove_filter(0, FilterId::from_index(0)).unwrap();
            feed(&mut sharded, &tuples[40..]);
            sharded.finish_into(&mut out).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "n={n}");
            assert_eq!(
                sharded.metrics().output_tuples,
                inline.metrics().output_tuples,
                "n={n}"
            );
        }
    }

    #[test]
    fn sharded_control_op_validation_mirrors_inline() {
        let (schema, _) = long_stream(4);
        let mut e = crate::shard::ShardedEngine::builder()
            .route(
                "group",
                GroupEngine::builder(schema).filter(FilterSpec::delta("t", 40.0, 5.0)),
            )
            .build()
            .unwrap();
        assert!(matches!(
            e.remove_filter(0, FilterId::from_index(0)),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            e.remove_filter(0, FilterId::from_index(5)),
            Err(Error::UnknownFilter { .. })
        ));
        assert!(matches!(
            e.update_filter(1, FilterId::from_index(0), FilterSpec::delta("t", 1.0, 0.1)),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(e
            .add_filter(0, FilterSpec::delta("nope", 1.0, 0.1))
            .is_err());
    }
}
