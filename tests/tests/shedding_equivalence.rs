//! Pins the quality-aware shedding contract (§4.8):
//!
//! 1. **Pressure-free neutrality** — a middleware deployed with the
//!    credit gate and the [`Shedder`](gasf_solar::Shedder) attached but
//!    never pressured is **byte-identical** to one deployed without
//!    them, across every `Algorithm` × `OutputStrategy` and parallelism
//!    ∈ {1, 2, 4}: same engine metrics (including the per-emission
//!    latency histogram), same wire bytes and message count, same per-app
//!    delivery statistics — and every flow counter still zero.
//! 2. **Slack obedience under pressure** — a starvation schedule climbs
//!    the ladder to its cap; the specs the engines actually ran are
//!    oracle-checked against each subscription's declaration
//!    (unchanged delta, monotone slack under the declared ceiling and
//!    the Axiom-1 cap, `None` forever for no-headroom subscriptions),
//!    and every no-headroom subscription's delivered-set count equals
//!    the unpressured baseline exactly — degradation may never leak
//!    outside declared headroom.
//! 3. **Counter reconciliation** — throttle/degrade/restore/drop
//!    counters in [`FlowMonitor`](gasf_solar::FlowMonitor) reconcile
//!    exactly with what the driving loop observed at the call sites,
//!    and [`IngestReport`](gasf_solar::IngestReport) agrees with the
//!    monitor for connector-driven ingest.
//!
//! Emission *order* is not compared here. Every part engine rejects a
//! gap or a reorder in the row stream, so its emission order follows
//! from the rows it is fed and where its safe points land: the rungs'
//! row positions are pinned below, the engines' order at any slicing by
//! `sink_equivalence` and `batch_equivalence`, and the middleware's
//! per-node delivery order by `distributed_equivalence`'s stream digests.

use std::sync::Arc;

use gasf_core::batch::TupleBatch;
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::metrics::Histogram;
use gasf_core::quality::{FilterKind, FilterSpec};
use gasf_core::schema::Schema;
use gasf_core::shed::{PushOutcome, ShedHeadroom};
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{
    GrantPolicy, IngestOptions, Middleware, MiddlewareConfig, Offer, ShedConfig, SourceId,
};
use gasf_sources::{ArrivalReplay, NamosBuoy, Trace, TraceReplay};

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

fn trace(tuples: usize) -> Trace {
    NamosBuoy::new().tuples(tuples).seed(11).generate()
}

/// Half the roster declares headroom (different ladders and ceilings),
/// half is a control population the shedder must never touch.
fn roster(trace: &Trace) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    vec![
        FilterSpec::delta("tmpr4", s * 2.0, s * 0.6).with_shed_headroom(ShedHeadroom::rungs(2)),
        FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
        FilterSpec::delta("tmpr4", s * 2.5, s * 0.5)
            .with_shed_headroom(ShedHeadroom::rungs(3).with_max_slack(s * 1.0)),
        FilterSpec::delta("tmpr2", s * 2.2, s * 0.9),
        FilterSpec::reservoir("fluoro", Micros::from_millis(70), 4)
            .with_shed_headroom(ShedHeadroom::rungs(2).with_floor_fraction(0.5)),
        FilterSpec::reservoir("fluoro", Micros::from_millis(90), 3),
    ]
}

fn build(
    trace: &Trace,
    specs: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
    parallelism: usize,
    ingress: Option<u64>,
    shedding: Option<ShedConfig>,
) -> (Middleware, SourceId) {
    let mut mw = Middleware::with_config(
        Overlay::new(Topology::ring(9).build()),
        MiddlewareConfig {
            algorithm,
            strategy,
            parallelism,
            ingress_capacity: ingress,
            shedding,
            ..MiddlewareConfig::default()
        },
    );
    let src = mw
        .register_source("buoy", NodeId(0), trace.schema().clone())
        .unwrap();
    for (i, spec) in specs.iter().enumerate() {
        let _ = mw
            .subscribe(
                format!("app{i}"),
                NodeId(1 + (i as u32 % 8)),
                src,
                spec.clone(),
            )
            .unwrap();
    }
    mw.deploy().unwrap();
    (mw, src)
}

/// Every deterministic observable of one middleware run.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    input_tuples: u64,
    output_tuples: u64,
    emissions: u64,
    recipient_labels: u64,
    latency_us: Histogram,
    network_bytes: u64,
    messages: u64,
    per_app: Vec<(String, bool, u64, u64)>,
}

fn fingerprint(mw: &Middleware, src: SourceId) -> RunFingerprint {
    let report = mw.report(src).unwrap();
    RunFingerprint {
        input_tuples: report.engine.input_tuples,
        output_tuples: report.engine.output_tuples,
        emissions: report.engine.emissions,
        recipient_labels: report.engine.recipient_labels,
        latency_us: report.engine.latency_us.clone(),
        network_bytes: report.network_bytes,
        messages: report.messages,
        per_app: report
            .per_app
            .iter()
            .map(|a| {
                (
                    a.name.clone(),
                    a.active,
                    a.tuples,
                    a.mean_e2e_latency.as_micros(),
                )
            })
            .collect(),
    }
}

/// One offer through a freshly borrowed pipeline.
fn offer(mw: &mut Middleware, src: SourceId, run: Offer<'_>, start: usize) -> (usize, PushOutcome) {
    mw.pipeline(src).unwrap().offer(run, start).unwrap()
}

/// Offers one row.
fn offer_row(mw: &mut Middleware, src: SourceId, t: &Tuple) -> PushOutcome {
    offer(mw, src, Offer::Rows(std::slice::from_ref(t)), 0).1
}

/// Offers every tuple one row at a time, asserting nothing throttles.
fn drive_calm(mw: &mut Middleware, src: SourceId, tuples: &[Tuple]) {
    for t in tuples {
        let outcome = offer_row(mw, src, t);
        assert!(outcome.is_accepted(), "calm run must never throttle");
    }
    mw.finish(src).unwrap();
}

#[test]
fn pressure_free_shedder_on_matches_off_for_every_combination() {
    let trace = trace(400);
    let specs = roster(&trace);
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            for parallelism in [1usize, 2, 4] {
                // Capacity covers the whole stream: the gate exists but
                // never bites, so the shedder sees only full admissions.
                let (mut with, src_a) = build(
                    &trace,
                    &specs,
                    algorithm,
                    strategy,
                    parallelism,
                    Some(trace.tuples().len() as u64),
                    Some(ShedConfig::default()),
                );
                let (mut without, src_b) =
                    build(&trace, &specs, algorithm, strategy, parallelism, None, None);
                drive_calm(&mut with, src_a, trace.tuples());
                drive_calm(&mut without, src_b, trace.tuples());
                assert_eq!(
                    fingerprint(&with, src_a),
                    fingerprint(&without, src_b),
                    "shedder-on diverged pressure-free at {algorithm:?}/{strategy:?}/x{parallelism}"
                );
                let flow = with.flow_monitor(src_a).unwrap();
                assert_eq!(flow.throttled(), 0);
                assert_eq!(flow.degrade_ops(), 0);
                assert_eq!(flow.restore_ops(), 0);
                assert_eq!(flow.shed_dropped(), 0);
                assert_eq!(with.shed_rung(src_a).unwrap(), 0);
            }
        }
    }
}

/// Starves the gate during the middle third: each pressured batch is
/// fed back one credit at a time, so the final retry is the only full
/// admission — a pure throttle streak the shedder must react to.
/// Returns the rungs the source occupied and the call-site throttle
/// count. No tuple is ever dropped: the driver keeps granting until
/// every row of every batch is admitted.
fn drive_pressured(
    mw: &mut Middleware,
    src: SourceId,
    batches: &[Arc<TupleBatch>],
    capacity: u64,
) -> (Vec<u8>, u64) {
    let mut rungs = vec![0u8];
    let mut throttles = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        // First third calm, middle third starved, final third calm.
        let calm = i < batches.len() / 3 || i >= 2 * batches.len() / 3;
        if calm {
            mw.grant_credits(src, capacity).unwrap();
        }
        let mut row = 0;
        while row < batch.rows() {
            let (n, outcome) = offer(mw, src, Offer::Batch(batch), row);
            row += n;
            let rung = mw.shed_rung(src).unwrap();
            if *rungs.last().unwrap() != rung {
                rungs.push(rung);
            }
            if outcome == PushOutcome::Throttled {
                throttles += 1;
                mw.grant_credits(src, 1).unwrap();
            }
        }
    }
    mw.finish(src).unwrap();
    (rungs, throttles)
}

#[test]
fn pressure_degrades_only_inside_declared_headroom() {
    let trace = trace(360);
    let specs = roster(&trace);
    // recover 3: the calm tail (a third of the batches, one full
    // admission each) must walk the ladder all the way back to 0.
    let shed = ShedConfig {
        trigger: 4,
        recover: 3,
        max_rung: 3,
    };
    let (mut pressured, src_p) = build(
        &trace,
        &specs,
        Algorithm::RegionGreedy,
        OutputStrategy::Earliest,
        2,
        Some(8),
        Some(shed),
    );
    let (mut baseline, src_b) = build(
        &trace,
        &specs,
        Algorithm::RegionGreedy,
        OutputStrategy::Earliest,
        2,
        None,
        None,
    );
    let batches: Vec<Arc<TupleBatch>> = trace.batches(8).into_iter().map(Arc::new).collect();
    let (rungs, throttles) = drive_pressured(&mut pressured, src_p, &batches, 8);
    drive_calm(&mut baseline, src_b, trace.tuples());

    let top = *rungs.iter().max().unwrap();
    assert!(throttles > 0, "the starvation schedule never throttled");
    assert!(top > 0, "pressure never climbed the ladder");
    assert!(top <= shed.max_rung, "rung {top} above the configured cap");
    assert_eq!(
        pressured.shed_rung(src_p).unwrap(),
        0,
        "the calm tail must restore rung 0"
    );

    // Oracle 1: every spec the engines actually ran stays inside the
    // subscription's declaration, rung by occupied rung.
    for spec in &specs {
        let mut prev_slack: Option<f64> = None;
        for r in 0..=top {
            match (spec.shed_headroom(), spec.degraded(r)) {
                (None, got) => {
                    if r == 0 {
                        assert_eq!(got.as_ref(), Some(spec), "rung 0 must be the spec itself");
                    } else {
                        assert_eq!(got, None, "no-headroom spec degraded at rung {r}");
                    }
                }
                (Some(headroom), got) => {
                    let got = got.expect("headroom spec has every rung");
                    got.validate().unwrap();
                    if let (
                        FilterKind::Delta {
                            delta, slack: s0, ..
                        },
                        FilterKind::Delta {
                            delta: delta_r,
                            slack: s_r,
                            ..
                        },
                    ) = (&spec.kind, &got.kind)
                    {
                        assert_eq!(delta, delta_r, "degradation must not move delta");
                        let cap = delta / 2.0;
                        let ceiling = headroom.max_slack.unwrap_or(cap).min(cap);
                        assert!(
                            *s_r <= ceiling.max(*s0) + 1e-12,
                            "rung {r} slack {s_r} above declared ceiling {ceiling}"
                        );
                        if let Some(prev) = prev_slack {
                            assert!(*s_r >= prev, "slack must widen monotonically");
                        }
                        prev_slack = Some(*s_r);
                    }
                }
            }
        }
    }

    // Oracle 2: backpressure itself loses nothing — the driver retried
    // every throttled row, so the engines saw the full input stream and
    // every subscription kept receiving data while degraded.
    let pressured_report = pressured.report(src_p).unwrap();
    let baseline_report = baseline.report(src_b).unwrap();
    assert_eq!(
        pressured_report.engine.input_tuples, baseline_report.engine.input_tuples,
        "backpressure must not lose tuples"
    );
    for got in &pressured_report.per_app {
        assert!(got.tuples > 0, "{} starved under pressure", got.name);
    }
}

/// Degradation must never leak outside declared headroom: with a roster
/// in which **no** subscription declares any, the same starvation
/// schedule — shedder climbing and descending the whole time — retunes
/// nothing, and the run stays byte-identical to an unpressured,
/// ungated one. (Exact per-app equality can't be asserted for the
/// *mixed* roster above: delta filters reference the last delivered
/// value, so a neighbour's degradation legitimately shifts shared
/// representative choices.)
#[test]
fn pressure_without_headroom_changes_nothing() {
    let trace = trace(360);
    let specs: Vec<FilterSpec> = roster(&trace)
        .into_iter()
        .filter(|s| s.shed_headroom().is_none())
        .collect();
    assert!(specs.len() >= 2, "roster lost its control population");
    let shed = ShedConfig {
        trigger: 4,
        recover: 3,
        max_rung: 3,
    };
    let (mut pressured, src_p) = build(
        &trace,
        &specs,
        Algorithm::PerCandidateSet,
        OutputStrategy::Earliest,
        2,
        Some(8),
        Some(shed),
    );
    let (mut baseline, src_b) = build(
        &trace,
        &specs,
        Algorithm::PerCandidateSet,
        OutputStrategy::Earliest,
        2,
        None,
        None,
    );
    let batches: Vec<Arc<TupleBatch>> = trace.batches(8).into_iter().map(Arc::new).collect();
    let (rungs, throttles) = drive_pressured(&mut pressured, src_p, &batches, 8);
    drive_calm(&mut baseline, src_b, trace.tuples());
    assert!(throttles > 0, "the starvation schedule never throttled");
    assert!(
        *rungs.iter().max().unwrap() > 0,
        "the shedder never climbed — the schedule is not exercising it"
    );
    assert_eq!(
        fingerprint(&pressured, src_p),
        fingerprint(&baseline, src_b),
        "a no-headroom roster must be untouched by pressure"
    );
    let flow = pressured.flow_monitor(src_p).unwrap();
    assert_eq!(flow.throttled(), throttles);
    assert_eq!(
        flow.degrade_ops(),
        0,
        "nothing declared headroom to degrade"
    );
    assert_eq!(flow.restore_ops(), 0);
    assert_eq!(flow.shed_dropped(), 0);
}

#[test]
fn flow_counters_reconcile_with_call_site_observations() {
    let trace = trace(240);
    let specs = roster(&trace);
    let shed = ShedConfig {
        trigger: 4,
        recover: 3,
        max_rung: 2,
    };
    let (mut mw, src) = build(
        &trace,
        &specs,
        Algorithm::RegionGreedy,
        OutputStrategy::Earliest,
        1,
        Some(8),
        Some(shed),
    );

    // Count eligible retunes per ladder move exactly as the middleware
    // defines them: active, headroom-declaring, and with actual room
    // between the two rungs.
    let eligible = |from: u8, to: u8| -> u64 {
        specs
            .iter()
            .filter(|spec| spec.shed_headroom().is_some())
            .filter(|spec| spec.degraded(to) != spec.degraded(from))
            .count() as u64
    };

    let batches: Vec<Arc<TupleBatch>> = trace.batches(8).into_iter().map(Arc::new).collect();
    let mut throttles = 0u64;
    let mut expect_degrades = 0u64;
    let mut expect_restores = 0u64;
    let mut rung = 0u8;
    for (i, batch) in batches.iter().enumerate() {
        let calm = i < batches.len() / 3 || i >= 2 * batches.len() / 3;
        if calm {
            mw.grant_credits(src, 8).unwrap();
        }
        let mut row = 0;
        while row < batch.rows() {
            let (n, outcome) = offer(&mut mw, src, Offer::Batch(batch), row);
            row += n;
            let now = mw.shed_rung(src).unwrap();
            if now > rung {
                expect_degrades += eligible(rung, now);
            } else if now < rung {
                expect_restores += eligible(rung, now);
            }
            rung = now;
            if outcome == PushOutcome::Throttled {
                throttles += 1;
                mw.grant_credits(src, 1).unwrap();
            }
        }
    }
    mw.finish(src).unwrap();

    let flow = mw.flow_monitor(src).unwrap();
    assert!(throttles > 0 && expect_degrades > 0, "schedule never bit");
    assert_eq!(flow.throttled(), throttles, "throttle counter drifted");
    assert_eq!(
        flow.degrade_ops(),
        expect_degrades,
        "degrade counter drifted"
    );
    assert_eq!(
        flow.restore_ops(),
        expect_restores,
        "restore counter drifted"
    );
    assert_eq!(
        flow.shed_dropped(),
        0,
        "nothing was dropped at the call site"
    );
}

#[test]
fn ingest_report_reconciles_with_flow_monitor() {
    let trace = trace(300);
    let specs = roster(&trace);
    let (mut mw, src) = build(
        &trace,
        &specs,
        Algorithm::RegionGreedy,
        OutputStrategy::Earliest,
        1,
        Some(4),
        Some(ShedConfig::default()),
    );
    let mut replay = TraceReplay::new(trace.clone()).chunk_sizes([16, 3, 9]);
    let report = mw
        .ingest(
            src,
            &mut replay,
            IngestOptions {
                max_rows: 16,
                grant: GrantPolicy::Refill,
                finish: true,
            },
        )
        .unwrap();
    let flow = mw.flow_monitor(src).unwrap();
    assert_eq!(report.rows, trace.tuples().len() as u64);
    assert_eq!(
        report.accepted + report.dropped,
        report.rows,
        "ingest must account every row"
    );
    // A 4-credit gate against 16-row chunks exhausts the default ladder:
    // the last-resort drops must be counted, never silent.
    assert!(report.dropped > 0, "exhausted ladder must record its drops");
    assert_eq!(
        report.dropped,
        flow.shed_dropped(),
        "driver and monitor disagree on drops"
    );
    assert!(report.throttled > 0, "a 4-credit gate must throttle");
    assert_eq!(
        report.throttled,
        flow.throttled(),
        "driver and monitor disagree on throttles"
    );
    let run = mw.report(src).unwrap();
    assert_eq!(run.engine.input_tuples, report.accepted);
}

// ---------------------------------------------------------------------
// The golden ladder schedule: where the ladder moves, to the row, for
// each input shape. Captured from the implementation that booked calm
// once per one-row call (then `try_push`, now a one-row `offer`); any
// change to what the shedder is told, or to where a restore's
// `update_filter` lands, moves these numbers. Feed (iii)'s counts were
// re-recorded when a drop began to replenish the gate (its transitions
// did not move).
// ---------------------------------------------------------------------

const LADDER_CAPACITY: u64 = 16;
const LADDER_SHED: ShedConfig = ShedConfig {
    trigger: 4,
    recover: 4,
    max_rung: 4,
};

/// What one pressured run did: where the ladder moved, what the monitor
/// counted, what the subscribers got.
#[derive(Debug, PartialEq)]
struct LadderRun {
    /// `(input rows consumed, rung)` at every observed ladder move.
    transitions: Vec<(usize, u8)>,
    /// `throttled`, `degrade_ops`, `restore_ops`, `shed_dropped`.
    counters: [u64; 4],
    /// Input tuples, output tuples, emissions, recipient labels,
    /// network bytes, messages.
    report: [u64; 6],
    /// Exact sum and maximum of the per-emission latencies, µs.
    latency_sum_max: (u128, u64),
    /// Tuples delivered per subscription.
    per_app: Vec<u64>,
}

fn ladder_rig(trace: &Trace, parallelism: usize) -> (Middleware, SourceId) {
    build(
        trace,
        &roster(trace),
        Algorithm::RegionGreedy,
        OutputStrategy::Earliest,
        parallelism,
        Some(LADDER_CAPACITY),
        Some(LADDER_SHED),
    )
}

fn note_rung(mw: &Middleware, src: SourceId, rows: usize, transitions: &mut Vec<(usize, u8)>) {
    let rung = mw.shed_rung(src).unwrap();
    if transitions.last().map_or(0, |&(_, r)| r) != rung {
        transitions.push((rows, rung));
    }
}

fn ladder_run(mw: &Middleware, src: SourceId, transitions: Vec<(usize, u8)>) -> LadderRun {
    let flow = mw.flow_monitor(src).unwrap();
    let fp = fingerprint(mw, src);
    LadderRun {
        transitions,
        counters: [
            flow.throttled(),
            flow.degrade_ops(),
            flow.restore_ops(),
            flow.shed_dropped(),
        ],
        report: [
            fp.input_tuples,
            fp.output_tuples,
            fp.emissions,
            fp.recipient_labels,
            fp.network_bytes,
            fp.messages,
        ],
        latency_sum_max: (fp.latency_us.sum(), fp.latency_us.max()),
        per_app: fp.per_app.iter().map(|a| a.2).collect(),
    }
}

/// Hands `ingest` one chunk of the inner connector per call, so the test
/// can read the rung between chunks.
struct OneChunk<'a> {
    inner: &'a mut dyn SourceConnector,
    spent: bool,
}

impl SourceConnector for OneChunk<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Chunk>, gasf_core::Error> {
        if std::mem::replace(&mut self.spent, true) {
            return Ok(None);
        }
        self.inner.next_chunk(max_rows)
    }
}

/// Drives `connector` to EOF through `ingest`, one chunk per call,
/// recording the rung after each chunk; `rows` carries the input
/// position in and out.
fn ingest_chunkwise(
    mw: &mut Middleware,
    src: SourceId,
    connector: &mut dyn SourceConnector,
    max_rows: usize,
    rows: &mut usize,
    transitions: &mut Vec<(usize, u8)>,
) {
    loop {
        let mut one = OneChunk {
            inner: connector,
            spent: false,
        };
        let report = mw
            .ingest(
                src,
                &mut one,
                IngestOptions {
                    max_rows,
                    grant: GrantPolicy::Refill,
                    finish: false,
                },
            )
            .unwrap();
        if report.chunks == 0 {
            break;
        }
        assert_eq!(report.accepted + report.dropped, report.rows);
        *rows += report.rows as usize;
        note_rung(mw, src, *rows, transitions);
    }
    mw.finish(src).unwrap();
}

/// Feed (i): one one-row `offer` per row. The middle third is starved — a
/// throttled row is retried four times before a single credit arrives,
/// so every row costs a full trigger streak; the calm thirds refill the
/// window on the first throttle.
fn ladder_by_row_offers(parallelism: usize) -> LadderRun {
    let trace = trace(360);
    let (mut mw, src) = ladder_rig(&trace, parallelism);
    let n = trace.tuples().len();
    let mut transitions = Vec::new();
    for (i, t) in trace.tuples().iter().enumerate() {
        let starved = (n / 3..2 * n / 3).contains(&i);
        let mut stalls = 0u32;
        loop {
            let outcome = offer_row(&mut mw, src, t);
            note_rung(
                &mw,
                src,
                i + usize::from(outcome.is_accepted()),
                &mut transitions,
            );
            if outcome.is_accepted() {
                break;
            }
            stalls += 1;
            if !starved {
                mw.grant_credits(src, LADDER_CAPACITY).unwrap();
            } else if stalls.is_multiple_of(5) {
                mw.grant_credits(src, 1).unwrap();
            }
        }
    }
    mw.finish(src).unwrap();
    ladder_run(&mw, src, transitions)
}

/// Feed (ii): the first half climbs the ladder through trickle-fed
/// 8-row batches; the second half arrives as row chunks of 5, 1 and 9
/// through `ingest`, where every fourth calm row restores a rung — in
/// the middle of a chunk, twice inside a 9-row one.
fn ladder_by_row_chunks(parallelism: usize) -> LadderRun {
    let trace = trace(360);
    let (mut mw, src) = ladder_rig(&trace, parallelism);
    let half = trace.tuples().len() / 2;
    let mut transitions = Vec::new();
    let mut rows = 0usize;
    let head = TupleBatch::from_tuples(trace.schema(), &trace.tuples()[..half]).unwrap();
    for start in (0..half).step_by(8) {
        let batch = Arc::new(head.slice(start, 8.min(half - start)));
        let mut row = 0;
        while row < batch.rows() {
            let (n, outcome) = offer(&mut mw, src, Offer::Batch(&batch), row);
            row += n;
            note_rung(&mw, src, rows + row, &mut transitions);
            if outcome == PushOutcome::Throttled {
                mw.grant_credits(src, 1).unwrap();
            }
        }
        rows += batch.rows();
    }
    let mut tail = ArrivalReplay::new(trace.schema().clone(), trace.tuples()[half..].to_vec())
        .chunk_sizes([5, 1, 9]);
    ingest_chunkwise(&mut mw, src, &mut tail, 16, &mut rows, &mut transitions);
    ladder_run(&mw, src, transitions)
}

/// Feed (iii): columnar chunks through `ingest`. A 160-row chunk
/// trickles through the 16-credit window in ten admissions (nine
/// partial, so two rungs up); sixteen 4-row chunks walk the ladder back
/// down; at the top rung the last wide chunks exhaust the ladder. Each
/// drop replenishes the window like any throttle, so they shed 7 rows
/// and admit the rest.
fn ladder_by_batch_chunks(parallelism: usize) -> LadderRun {
    let trace = trace(864);
    let (mut mw, src) = ladder_rig(&trace, parallelism);
    let mut pattern = vec![160, 160];
    pattern.extend([4; 16]);
    pattern.extend([160; 3]);
    let mut replay = TraceReplay::new(trace.clone()).chunk_sizes(pattern);
    let mut transitions = Vec::new();
    let mut rows = 0usize;
    ingest_chunkwise(&mut mw, src, &mut replay, 256, &mut rows, &mut transitions);
    assert_eq!(rows, 864);
    ladder_run(&mw, src, transitions)
}

#[test]
fn golden_ladder_schedule_holds_for_every_input_shape() {
    let by_row_offers = LadderRun {
        transitions: vec![
            (128, 1),
            (129, 2),
            (130, 3),
            (131, 4),
            (244, 3),
            (248, 2),
            (252, 1),
            (256, 0),
        ],
        counters: [575, 7, 7, 0],
        report: [360, 209, 209, 593, 306_000, 209],
        latency_sum_max: (101_000_000, 1_260_000),
        per_app: vec![76, 55, 65, 83, 181, 133],
    };
    // Rows 185 → 195 are one 9-row chunk: two rungs down inside it.
    let by_row_chunks = LadderRun {
        transitions: vec![
            (19, 1),
            (23, 2),
            (27, 3),
            (31, 4),
            (185, 3),
            (195, 1),
            (200, 0),
        ],
        counters: [176, 7, 7, 0],
        report: [360, 201, 201, 574, 295_800, 201],
        latency_sum_max: (103_980_000, 1_580_000),
        per_app: vec![77, 54, 65, 81, 166, 131],
    };
    let by_batch_chunks = LadderRun {
        transitions: vec![
            (160, 2),
            (320, 4),
            (336, 3),
            (352, 2),
            (368, 1),
            (384, 0),
            (544, 2),
            (704, 4),
        ],
        counters: [53, 14, 7, 7],
        report: [857, 428, 428, 1283, 645_456, 428],
        latency_sum_max: (258_620_000, 2_710_000),
        per_app: vec![190, 131, 156, 189, 313, 304],
    };
    for parallelism in [1usize, 2] {
        assert_eq!(ladder_by_row_offers(parallelism), by_row_offers);
        assert_eq!(ladder_by_row_chunks(parallelism), by_row_chunks);
        assert_eq!(ladder_by_batch_chunks(parallelism), by_batch_chunks);
    }
}
