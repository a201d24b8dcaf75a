//! Integration coverage for the framework extensions: reservoir sampling,
//! mixed-type groups under the region algorithm (multi-degree hitting
//! set), the benefit monitor + regrouping loop, and engine memory
//! boundedness on long streams.

use gasf_core::prelude::*;
use gasf_net::{NodeId, Topology};
use gasf_solar::{partition, GroupingStrategy};
use gasf_sources::{NamosBuoy, VolcanoSeismic};

#[test]
fn engine_memory_stays_bounded_on_long_streams() {
    let trace = NamosBuoy::new().tuples(20_000).seed(12).generate();
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta * 2.0;
    let mut engine = GroupEngine::builder(trace.schema().clone())
        .filter(FilterSpec::delta("tmpr4", s, s * 0.5))
        .filter(FilterSpec::delta("tmpr4", s * 2.0, s))
        .filter(FilterSpec::delta("tmpr4", s * 3.0, s * 1.5))
        .build()
        .unwrap();
    let mut peak = 0usize;
    let mut out = VecSink::new();
    for t in trace.into_tuples() {
        engine.push_into(t, &mut out).unwrap();
        peak = peak.max(engine.buffered_tuples());
        out.clear();
    }
    engine.finish_into(&mut out).unwrap();
    assert!(
        peak < 2_000,
        "engine buffered {peak} tuples of 20k — region cleanup is broken"
    );
    assert_eq!(engine.buffered_tuples(), 0, "finish must drain everything");
}

#[test]
fn mixed_group_with_samplers_under_region_greedy() {
    // DC + SS + RS in one group, solved per region with the multi-degree
    // greedy: every sampler set must receive exactly its pick degree.
    let trace = VolcanoSeismic::new().tuples(3_000).seed(5).generate();
    let s = trace.stats("seis").unwrap().mean_abs_delta * 2.0;
    let mut engine = GroupEngine::builder(trace.schema().clone())
        .algorithm(Algorithm::RegionGreedy)
        .filter(FilterSpec::delta("seis", s * 2.0, s))
        .filter(FilterSpec::stratified_sample(
            "seis",
            Micros::from_millis(500),
            0.002,
            40.0,
            10.0,
        ))
        .filter(FilterSpec::reservoir("seis", Micros::from_millis(800), 2))
        .build()
        .unwrap();
    let mut emissions = VecSink::new();
    engine
        .run_into(trace.into_tuples(), &mut emissions)
        .unwrap();
    let m = engine.metrics();
    // every filter got at least one delivery
    for (i, f) in m.per_filter.iter().enumerate() {
        assert!(f.sets_closed > 0, "filter {i} closed no sets");
        assert!(f.chosen > 0, "filter {i} got nothing");
    }
    // reservoir deliveries: 2 per window (except possibly a short tail)
    let rs_deliveries: u64 = m.per_filter[2].chosen;
    let rs_sets = m.per_filter[2].sets_closed;
    assert!(
        rs_deliveries >= rs_sets * 2 - 1,
        "reservoir should get 2 tuples per window: {rs_deliveries} over {rs_sets} sets"
    );
    // sharing happened: distinct outputs below sum of per-filter choices
    let total_choices: u64 = m.per_filter.iter().map(|f| f.chosen).sum();
    assert!(m.output_tuples < total_choices);
    assert!(!emissions.is_empty());
}

#[test]
fn monitor_feeds_regrouping() {
    // Run a group with one greedy consumer; the monitor should isolate it
    // and the partition should reflect that.
    let trace = NamosBuoy::new().tuples(3_000).seed(3).generate();
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let mut engine = GroupEngine::builder(trace.schema().clone())
        .filter(FilterSpec::delta("tmpr4", s * 4.0, s * 2.0))
        .filter(FilterSpec::delta("tmpr4", s * 6.0, s * 3.0))
        // a "bad" filter: delta below the typical step -> wants most data
        .filter(FilterSpec::delta("tmpr4", s * 0.4, s * 0.05))
        .build()
        .unwrap();
    engine
        .run_into(trace.into_tuples(), &mut VecSink::new())
        .unwrap();
    let report = BenefitMonitor::new().assess(engine.metrics());
    let Recommendation::IsolateFilters { filters } = &report.recommendation else {
        panic!("expected isolation advice, got {:?}", report.recommendation);
    };
    assert_eq!(filters, &vec![2]);

    // Feed the recommendation into the regrouping strategy.
    let rates: Vec<f64> = report
        .selectivity
        .iter()
        .map(|f| f.reference_rate)
        .collect();
    let topo = Topology::ring(7).build();
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let parts = partition(
        GroupingStrategy::BySelectivity { isolate_above: 0.6 },
        &topo,
        &nodes,
        &rates,
        3,
    );
    assert!(gasf_solar::is_valid_partition(&parts, 3));
    assert!(parts.contains(&vec![2]), "the greedy consumer is isolated");
    assert!(
        parts.contains(&vec![0, 1]),
        "the modest filters stay grouped"
    );
}

#[test]
fn watermark_is_monotone_and_bounded_by_stream_time() {
    let trace = NamosBuoy::new().tuples(2_000).seed(8).generate();
    let s = trace.stats("fluoro").unwrap().mean_abs_delta * 2.0;
    let mut engine = GroupEngine::builder(trace.schema().clone())
        .algorithm(Algorithm::PerCandidateSet)
        .output_strategy(OutputStrategy::PerCandidateSet)
        .filter(FilterSpec::delta("fluoro", s, s * 0.5))
        .filter(FilterSpec::delta("fluoro", s * 2.0, s))
        .build()
        .unwrap();
    let mut last_watermark = Micros::ZERO;
    let mut out = VecSink::new();
    for t in trace.into_tuples() {
        let now = t.timestamp();
        engine.push_into(t, &mut out).unwrap();
        let w = engine.watermark();
        assert!(w >= last_watermark, "watermark regressed");
        assert!(w <= now, "watermark ahead of stream time");
        last_watermark = w;
    }
    assert!(last_watermark > Micros::ZERO, "watermark never advanced");
}

#[test]
fn reservoir_bounds_subscriber_bandwidth() {
    // The RS use case: a subscriber capped at k tuples per second.
    let trace = NamosBuoy::new().tuples(5_000).seed(6).generate(); // 50 s
    let mut engine = GroupEngine::builder(trace.schema().clone())
        .filter(FilterSpec::reservoir("tmpr4", Micros::from_secs(1), 3))
        .build()
        .unwrap();
    let mut emissions = VecSink::new();
    engine
        .run_into(trace.into_tuples(), &mut emissions)
        .unwrap();
    // Timestamps run 10 ms..=50 s, so the stream touches 51 one-second
    // windows (the last contains a single tuple).
    let delivered: u64 = engine.metrics().per_filter[0].chosen;
    assert!(delivered <= 51 * 3, "cap violated: {delivered}");
    assert!(delivered >= 50 * 3, "windows under-served: {delivered}");
    assert!(!emissions.is_empty());
}
