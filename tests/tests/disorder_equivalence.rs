//! Pins the **event-time determinism contract**: a stream delivered out
//! of order within a disorder bound, reordered by the middleware's
//! watermark-driven [`ReorderBuffer`] front end, is **byte-identical** to
//! the pre-sorted stream on the classic ordered path — same engine
//! metrics, same per-subscription deliveries — across every `Algorithm` ×
//! `OutputStrategy`, at parallelism ∈ {1, 2, 4}, for every disorder
//! bound, and through a mid-stream checkpoint → recover hop that carries
//! the watermark and the buffered-but-unreleased tuples.
//!
//! Also pinned here: the trivial front end (bound 0, in-order arrivals)
//! equals the path with no front end at all; late-tuple policies (`Drop`
//! counted, `EmitPatch` delivered and flagged) at every parallelism; and
//! the windowed aggregation filters against a scalar oracle under random
//! watermark schedules.
//!
//! Two pins hold the middleware's one data path in place: the *shape* a
//! stream arrives in (one `Pipeline::offer` per row, one one-row
//! `push_batch` per row, ragged row chunks or columnar chunks through
//! `ingest`) never
//! shows in the run, and a run with a bad row cuts exactly where feeding
//! its rows one at a time cuts — with and without the front end, inline
//! and on a worker thread.
//!
//! The `GASF_TEST_DISORDER` environment knob (milliseconds) narrows the
//! bound sweep to one bound (CI shards the matrix with it); unset, the
//! suite covers 0, 16 and 1024 ms.

use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::event_time::{
    Aggregate, EventTimeConfig, LatePolicy, ReorderBuffer, WindowFilter, WindowKind,
};
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::time::Micros;
use gasf_core::tuple::{Tuple, TupleBuilder};
use gasf_core::Error;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{
    AppReport, EventTimeStats, GrantPolicy, IngestOptions, Middleware, MiddlewareConfig, Offer,
    RunReport, SolarError, SourceId,
};
use gasf_sources::{ArrivalReplay, Disorder, NamosBuoy, Trace, TraceReplay};
use proptest::prelude::*;

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

/// Disorder bounds under test. The `GASF_TEST_DISORDER` knob (in
/// milliseconds) pins one bound (CI matrix sharding); unset, the
/// canonical three are swept. Bound 0 is the trivial watermark: in-order
/// arrivals, immediate release.
fn disorder_bounds() -> Vec<Micros> {
    match std::env::var("GASF_TEST_DISORDER") {
        Ok(v) => vec![Micros::from_millis(v.parse().expect(
            "GASF_TEST_DISORDER must be a disorder bound in milliseconds",
        ))],
        Err(_) => vec![
            Micros::ZERO,
            Micros::from_millis(16),
            Micros::from_millis(1024),
        ],
    }
}

fn trace(tuples: usize, seed: u64) -> Trace {
    NamosBuoy::new().tuples(tuples).seed(seed).generate()
}

/// A middleware over a 7-ring with three overlapping subscriptions on
/// the NAMOS schema, deployed and ready to stream.
fn setup(config: MiddlewareConfig, trace: &Trace) -> (Middleware, SourceId) {
    let overlay = Overlay::new(Topology::ring(7).build());
    let mut mw = Middleware::with_config(overlay, config);
    let src = mw
        .register_source("buoy", NodeId(0), trace.schema().clone())
        .unwrap();
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let _ = mw
        .subscribe("a1", NodeId(2), src, FilterSpec::delta("tmpr4", s * 2.0, s))
        .unwrap();
    let _ = mw
        .subscribe(
            "a2",
            NodeId(4),
            src,
            FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
        )
        .unwrap();
    let _ = mw
        .subscribe(
            "a3",
            NodeId(6),
            src,
            FilterSpec::delta("tmpr2", s * 2.2, s * 0.9),
        )
        .unwrap();
    mw.deploy().unwrap();
    (mw, src)
}

fn config(parallelism: usize, algorithm: Algorithm, strategy: OutputStrategy) -> MiddlewareConfig {
    MiddlewareConfig {
        algorithm,
        strategy,
        parallelism,
        ..Default::default()
    }
}

/// Deterministic slice of a run report (wall-clock-free): engine
/// counters plus the full per-subscription delivery statistics.
fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64, Vec<AppReport>) {
    (
        r.engine.input_tuples,
        r.engine.output_tuples,
        r.engine.emissions,
        r.engine.recipient_labels,
        r.per_app.clone(),
    )
}

/// The reference run: the pre-sorted trace through the classic ordered
/// path (no event-time front end).
fn run_ordered(cfg: MiddlewareConfig, trace: &Trace) -> (u64, u64, u64, u64, Vec<AppReport>) {
    let (mut mw, src) = setup(cfg, trace);
    let report = mw.run_trace(src, trace.tuples().iter().cloned()).unwrap();
    fingerprint(&report)
}

/// The run under test: `arrivals` (a bounded permutation of the trace)
/// through a middleware whose front end reorders with `bound`.
fn run_disordered(
    mut cfg: MiddlewareConfig,
    trace: &Trace,
    arrivals: Vec<Tuple>,
    bound: Micros,
) -> (u64, u64, u64, u64, Vec<AppReport>) {
    cfg.event_time = Some(EventTimeConfig::bounded(bound));
    let (mut mw, src) = setup(cfg, trace);
    let report = mw.run_trace(src, arrivals).unwrap();
    let stats = mw.event_time_stats(src).unwrap();
    assert_eq!(stats.late_dropped, 0, "within-bound jitter is never late");
    assert_eq!(stats.buffered, 0, "finish flushes the buffer");
    fingerprint(&report)
}

#[test]
fn reordered_arrivals_equal_presorted_for_every_combination() {
    let trace = trace(400, 11);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            for parallelism in [1usize, 2, 4] {
                let cfg = config(parallelism, algorithm, strategy);
                let expected = run_ordered(cfg, &trace);
                for bound in disorder_bounds() {
                    let label =
                        format!("{algorithm:?}/{strategy:?}/n={parallelism}/bound={bound:?}");
                    let arrivals = Disorder::bounded(bound).seed(7).apply(&trace);
                    let got = run_disordered(cfg, &trace, arrivals, bound);
                    assert_eq!(got, expected, "{label}");
                }
            }
        }
    }
}

#[test]
fn trivial_watermark_on_ordered_stream_equals_no_front_end() {
    // Contract (b): an in-order stream under a zero-bound watermark is
    // byte-identical to the path without any event-time front end — the
    // front end is pay-for-what-you-use.
    let trace = trace(400, 3);
    for parallelism in [1usize, 2, 4] {
        let cfg = config(
            parallelism,
            Algorithm::RegionGreedy,
            OutputStrategy::Earliest,
        );
        let expected = run_ordered(cfg, &trace);
        let got = run_disordered(cfg, &trace, trace.tuples().to_vec(), Micros::ZERO);
        assert_eq!(got, expected, "n={parallelism}");
    }
}

#[test]
fn checkpoint_recover_hop_carries_watermark_and_buffer_state() {
    // Contract (a), fault-tolerance leg: split the disordered arrival
    // sequence at an arbitrary point, checkpoint (tuples are still held
    // in the reorder buffer there), crash, recover on a fresh overlay,
    // stream the rest — byte-identical to the pre-sorted fault-free run
    // with the same checkpoint schedule. A checkpoint is a safe-point
    // boundary, so "same schedule" means the ordered reference
    // checkpoints after exactly the tuples the buffer had *released* by
    // the cut — the engines see identical prefixes either way.
    let trace = trace(400, 19);
    const CUT: usize = 213;
    for parallelism in [1usize, 2, 4] {
        for bound in disorder_bounds() {
            let label = format!("n={parallelism}/bound={bound:?}");
            let cfg = config(
                parallelism,
                Algorithm::RegionGreedy,
                OutputStrategy::Earliest,
            );

            let mut hop_cfg = cfg;
            hop_cfg.event_time = Some(EventTimeConfig::bounded(bound));
            let arrivals = Disorder::bounded(bound).seed(5).apply(&trace);
            let (mut mw, src) = setup(hop_cfg, &trace);
            let mut pipeline = mw.pipeline(src).unwrap();
            for t in &arrivals[..CUT] {
                pipeline.push_batch([t.clone()]).unwrap();
            }
            let snap = mw.checkpoint().unwrap();
            let before = mw.event_time_stats(src).unwrap();
            if bound > Micros::ZERO {
                assert!(
                    before.buffered > 0,
                    "{label}: the cut must catch the buffer non-empty"
                );
            }
            drop(mw); // the crash

            let mut mw =
                Middleware::recover(Overlay::new(Topology::ring(7).build()), &snap).unwrap();
            assert_eq!(
                mw.event_time_stats(src).unwrap(),
                before,
                "{label}: watermark + buffer survive the hop"
            );
            let mut pipeline = mw.pipeline(src).unwrap();
            for t in &arrivals[CUT..] {
                pipeline.push_batch([t.clone()]).unwrap();
            }
            pipeline.finish().unwrap();
            let got = fingerprint(&mw.report(src).unwrap());

            // Fault-free ordered reference with the matching schedule.
            let released = before.released as usize;
            let (mut mw, src) = setup(cfg, &trace);
            let mut pipeline = mw.pipeline(src).unwrap();
            for t in &trace.tuples()[..released] {
                pipeline.push_batch([t.clone()]).unwrap();
            }
            let _snap = mw.checkpoint().unwrap();
            let mut pipeline = mw.pipeline(src).unwrap();
            for t in &trace.tuples()[released..] {
                pipeline.push_batch([t.clone()]).unwrap();
            }
            pipeline.finish().unwrap();
            let expected = fingerprint(&mw.report(src).unwrap());

            assert_eq!(got, expected, "{label}");
        }
    }
}

#[test]
fn late_policies_hold_at_every_parallelism() {
    // Satellite: `Drop` counts the stragglers without the engines ever
    // seeing them; `EmitPatch` turns each one into a flagged correction
    // that reaches every active subscription, accounted by the
    // FlowMonitor and the multicast sink.
    let trace = trace(300, 23);
    let bound = Micros::from_millis(40);
    let spec = Disorder::bounded(bound)
        .seed(2)
        .stragglers(60, Micros::from_millis(400));
    let arrivals = spec.apply(&trace);

    // Count the stragglers the disorder spec actually produced late, via
    // a standalone buffer with the same bound.
    let mut oracle = ReorderBuffer::new(EventTimeConfig::bounded(bound));
    let mut sunk = Vec::new();
    let late_count = arrivals
        .iter()
        .filter(|t| oracle.push_into((*t).clone(), &mut sunk).is_some())
        .count() as u64;
    assert!(late_count > 0, "the spec must produce stragglers");

    for parallelism in [1usize, 2, 4] {
        let mut drop_cfg = config(
            parallelism,
            Algorithm::RegionGreedy,
            OutputStrategy::Earliest,
        );
        drop_cfg.event_time = Some(EventTimeConfig::bounded(bound).late(LatePolicy::Drop));
        let (mut mw, src) = setup(drop_cfg, &trace);
        let drop_report = mw.run_trace(src, arrivals.iter().cloned()).unwrap();
        let drop_stats = mw.event_time_stats(src).unwrap();
        assert_eq!(drop_stats.late_dropped, late_count, "n={parallelism}");
        assert_eq!(drop_stats.patches, 0);
        assert_eq!(
            drop_report.engine.input_tuples,
            trace.len() as u64 - late_count,
            "n={parallelism}: engines never see dropped stragglers"
        );

        let mut patch_cfg = drop_cfg;
        patch_cfg.event_time = Some(EventTimeConfig::bounded(bound).late(LatePolicy::EmitPatch));
        let (mut mw, src) = setup(patch_cfg, &trace);
        let patch_report = mw.run_trace(src, arrivals.iter().cloned()).unwrap();
        let patch_stats = mw.event_time_stats(src).unwrap();
        assert_eq!(patch_stats.patches, late_count, "n={parallelism}");
        assert_eq!(patch_stats.late_dropped, 0);
        assert_eq!(
            patch_report.engine.input_tuples, drop_report.engine.input_tuples,
            "n={parallelism}: patches bypass the engines too"
        );
        // Each patch reaches each of the three subscriptions, beyond the
        // regular deliveries (which are identical to the drop run).
        let drop_delivered: u64 = drop_report.per_app.iter().map(|a| a.tuples).sum();
        let patch_delivered: u64 = patch_report.per_app.iter().map(|a| a.tuples).sum();
        assert_eq!(
            patch_delivered,
            drop_delivered + late_count * 3,
            "n={parallelism}: every active subscription receives every patch"
        );
    }
}

// ---------------------------------------------------------------------
// one data path: input shape and the error cut
// ---------------------------------------------------------------------

/// How a test hands a stream of arrivals to the middleware.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One `offer` per row, each through a freshly borrowed pipeline.
    OfferRow,
    /// One one-row `push_batch` per row, on one pipeline.
    PushRow,
    /// `ingest` over ragged row chunks.
    RowChunks,
    /// `ingest` over ragged columnar chunks (ordered arrivals only).
    BatchChunks,
}

/// Feeds `arrivals` without finishing, stopping at the first error.
fn feed(
    mw: &mut Middleware,
    src: SourceId,
    trace: &Trace,
    arrivals: &[Tuple],
    how: Feed,
) -> Result<(), SolarError> {
    let options = IngestOptions {
        max_rows: 64,
        grant: GrantPolicy::Refill,
        finish: false,
    };
    match how {
        Feed::OfferRow => {
            for t in arrivals {
                let run = Offer::Rows(std::slice::from_ref(t));
                let (_, outcome) = mw.pipeline(src)?.offer(run, 0)?;
                assert!(outcome.is_accepted(), "no gate, no throttle");
            }
        }
        Feed::PushRow => {
            let mut pipeline = mw.pipeline(src)?;
            for t in arrivals {
                pipeline.push_batch([t.clone()])?;
            }
        }
        Feed::RowChunks => {
            let mut replay = ArrivalReplay::new(trace.schema().clone(), arrivals.to_vec())
                .chunk_sizes([5, 1, 9, 33]);
            mw.ingest(src, &mut replay, options)?;
        }
        Feed::BatchChunks => {
            let mut replay = TraceReplay::new(trace.clone()).chunk_sizes([13, 1, 7]);
            mw.ingest(src, &mut replay, options)?;
        }
    }
    Ok(())
}

#[test]
fn input_shape_never_shows_in_the_run() {
    let trace = trace(300, 29);
    let bound = Micros::from_millis(16);
    // Stragglers arrive past the bound, so the late path (a patch per
    // straggler) is part of what every shape must reproduce.
    let disordered = Disorder::bounded(bound)
        .seed(7)
        .stragglers(40, Micros::from_millis(300))
        .apply(&trace);
    let front_end = EventTimeConfig::bounded(bound).late(LatePolicy::EmitPatch);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            for parallelism in [1usize, 2] {
                for event_time in [None, Some(front_end)] {
                    let mut cfg = config(parallelism, algorithm, strategy);
                    cfg.event_time = event_time;
                    let (arrivals, feeds): (&[Tuple], &[Feed]) = match event_time {
                        None => (
                            trace.tuples(),
                            &[
                                Feed::OfferRow,
                                Feed::PushRow,
                                Feed::RowChunks,
                                Feed::BatchChunks,
                            ],
                        ),
                        Some(_) => (
                            &disordered,
                            &[Feed::OfferRow, Feed::PushRow, Feed::RowChunks],
                        ),
                    };
                    let run = |how: Feed| {
                        let (mut mw, src) = setup(cfg, &trace);
                        feed(&mut mw, src, &trace, arrivals, how).unwrap();
                        mw.finish(src).unwrap();
                        let stats = mw.event_time_stats(src).unwrap();
                        (fingerprint(&mw.report(src).unwrap()), stats)
                    };
                    let want = run(feeds[0]);
                    if event_time.is_some() {
                        assert!(want.1.patches > 0, "the stragglers must arrive late");
                    } else {
                        assert_eq!(want.1, EventTimeStats::default());
                    }
                    for &how in &feeds[1..] {
                        assert_eq!(
                            run(how),
                            want,
                            "{algorithm:?}/{strategy:?}/n={parallelism}/{event_time:?}: {how:?}"
                        );
                    }
                }
            }
        }
    }
}

/// What a subscriber-side observer can tell about a run: tuples per
/// subscription, bytes and messages on the overlay.
fn delivered(mw: &Middleware, src: SourceId) -> (Vec<u64>, u64, u64) {
    let report = mw.report(src).unwrap();
    (
        report.per_app.iter().map(|a| a.tuples).collect(),
        report.network_bytes,
        report.messages,
    )
}

#[test]
fn a_run_cuts_at_its_bad_row_like_single_row_pushes() {
    const BAD: usize = 137;
    let trace = trace(300, 31);
    let tmpr4 = trace.schema().attr("tmpr4").unwrap().index();
    let good = &trace.tuples()[BAD];
    let remade = |ts: Micros, values: Vec<f64>| Tuple::from_wire(good.seq(), ts, values);
    let mut missing = good.values().to_vec();
    missing[tmpr4] = f64::NAN;
    let mut wide = good.values().to_vec();
    wide.push(0.0);
    // (the bad row, the error it must surface as, whether the reorder
    // front end lets it through as an error at all — it re-sequences, so
    // order and sequence violations become lateness there)
    type IsKind = fn(&Error) -> bool;
    let cases: [(Tuple, &str, IsKind, bool); 4] = [
        (
            remade(trace.tuples()[BAD - 2].timestamp(), good.values().to_vec()),
            "out of order",
            |e| matches!(e, Error::OutOfOrder { .. }),
            false,
        ),
        (
            good.with_seq(good.seq() + 5),
            "sequence gap",
            |e| matches!(e, Error::NonContiguousSeq { .. }),
            false,
        ),
        (
            remade(good.timestamp(), wide),
            "wrong width",
            |e| matches!(e, Error::SchemaMismatch { .. }),
            true,
        ),
        (
            remade(good.timestamp(), missing),
            "missing value",
            |e| matches!(e, Error::MissingValue { .. }),
            true,
        ),
    ];
    for (bad, kind, is_kind, survives_reorder) in &cases {
        let mut arrivals = trace.tuples().to_vec();
        arrivals[BAD] = bad.clone();
        for event_time in [
            None,
            Some(EventTimeConfig::bounded(Micros::from_millis(16))),
        ] {
            if event_time.is_some() && !survives_reorder {
                continue;
            }
            for parallelism in [1usize, 2] {
                let label = format!("{kind}/n={parallelism}/{event_time:?}");
                let mut cfg = config(
                    parallelism,
                    Algorithm::RegionGreedy,
                    OutputStrategy::Earliest,
                );
                cfg.event_time = event_time;
                // A checkpoint is the drain: on a worker thread, emissions
                // decided before the cut may still be in flight when the
                // error returns, and a worker-side failure surfaces on a
                // later merge — at the latest this one, which delivers
                // what was decided before the cut and nothing after it.
                let run = |how: Feed| {
                    let (mut mw, src) = setup(cfg, &trace);
                    let fed = feed(&mut mw, src, &trace, &arrivals, how);
                    let drained = mw.checkpoint().map(drop);
                    match fed.and(drained) {
                        Err(SolarError::Core(error)) => (error, delivered(&mw, src)),
                        other => panic!("{label}: expected an engine error, got {other:?}"),
                    }
                };
                let want = run(Feed::PushRow);
                assert!(is_kind(&want.0), "{label}: {:?}", want.0);
                if parallelism == 1 && event_time.is_none() && *kind != "missing value" {
                    // rejected before it touched an engine: rows 0..BAD went in
                    let (mut mw, src) = setup(cfg, &trace);
                    feed(&mut mw, src, &trace, &arrivals, Feed::RowChunks).unwrap_err();
                    assert_eq!(mw.report(src).unwrap().engine.input_tuples, BAD as u64);
                }
                assert!(want.1 .2 > 0, "{label}: the prefix must deliver");
                assert_eq!(run(Feed::OfferRow), want, "{label}: offer per row");
                assert_eq!(run(Feed::RowChunks), want, "{label}: row chunks");
            }
        }
    }
}

// ---------------------------------------------------------------------
// windowed aggregation vs a scalar oracle
// ---------------------------------------------------------------------

/// Scalar oracle: assigns every `(ts, value)` to each window
/// `[k·slide, k·slide + size)` containing `ts` and aggregates per window;
/// returns `(start, value, count)` in window-start order.
fn window_oracle(
    points: &[(u64, f64)],
    size: u64,
    slide: u64,
    agg: Aggregate,
) -> Vec<(u64, f64, u64)> {
    use std::collections::BTreeMap;
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(ts, v) in points {
        let hi = ts / slide;
        let lo = if ts >= size {
            (ts - size) / slide + 1
        } else {
            0
        };
        for k in lo..=hi {
            windows.entry(k * slide).or_default().push(v);
        }
    }
    windows
        .into_iter()
        .map(|(start, vs)| {
            let n = vs.len() as u64;
            let value = match agg {
                Aggregate::Min => vs.iter().copied().fold(f64::INFINITY, f64::min),
                Aggregate::Max => vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                Aggregate::Mean => vs.iter().sum::<f64>() / n as f64,
                Aggregate::Count => n as f64,
            };
            (start, value, n)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random streams, random window geometry, random watermark
    /// schedules: the concatenation of everything the watermark closes
    /// (plus the end-of-stream flush) must equal the scalar oracle — and
    /// the schedule only decides *when* windows close, never what they
    /// contain.
    #[test]
    fn window_filters_match_the_scalar_oracle_under_random_watermarks(
        raw in proptest::collection::vec((0u64..20_000, -100.0f64..100.0), 1..80),
        size_ms in 1u64..40,
        slide_div in 1u64..4,
        agg_idx in 0usize..4,
        marks in proptest::collection::vec(0u64..25_000, 0..10),
    ) {
        let agg = [Aggregate::Min, Aggregate::Max, Aggregate::Mean, Aggregate::Count][agg_idx];
        let size = size_ms * 1000;
        let slide = (size / slide_div).max(1);
        let kind = if slide == size {
            WindowKind::Tumbling { size: Micros(size) }
        } else {
            WindowKind::Sliding { size: Micros(size), slide: Micros(slide) }
        };

        let schema = Schema::new(["t"]);
        let attr = schema.attr("t").unwrap();
        let mut b = TupleBuilder::new(&schema);
        let points: Vec<(u64, f64)> = raw;
        let tuples: Vec<Tuple> = points
            .iter()
            .map(|&(ts, v)| b.at(Micros(ts)).set("t", v).build().unwrap())
            .collect();

        // Watermark schedule: sorted, then driven monotonically.
        let mut schedule = marks;
        schedule.sort_unstable();

        let run = |schedule: &[u64]| {
            let mut wf = WindowFilter::new(attr, kind, agg);
            for t in &tuples {
                wf.observe(t);
            }
            let mut out = Vec::new();
            for &m in schedule {
                wf.advance_into(Micros(m), &mut out);
            }
            wf.finish_into(&mut out);
            out
        };

        let got = run(&schedule);
        // Equal watermark schedules ⇒ byte-equal window streams.
        prop_assert_eq!(&got, &run(&schedule));
        // Any schedule yields the same total content as closing
        // everything at end-of-stream.
        prop_assert_eq!(&got, &run(&[]));

        let expected = window_oracle(&points, size, slide, agg);
        prop_assert_eq!(got.len(), expected.len());
        for (o, (start, value, count)) in got.iter().zip(&expected) {
            prop_assert_eq!(o.start, Micros(*start));
            prop_assert_eq!(o.end, Micros(start + size));
            prop_assert_eq!(o.count, *count);
            prop_assert!(
                (o.value - value).abs() <= 1e-9 * value.abs().max(1.0),
                "window@{}: {} vs oracle {}", start, o.value, value
            );
        }
    }
}
