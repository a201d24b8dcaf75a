//! Credit-gate properties: bounded ingress is **flow control, not
//! semantics**. For any capacity and any (always-eventually-positive)
//! credit schedule, the driving loop terminates (no deadlock), admits
//! every tuple exactly once, and drains to the same run fingerprint as
//! the unbounded path — row-wise or columnar, shedder attached or not
//! (the roster declares no headroom, so the climbing shedder has
//! nothing it may touch). Plus the resumability regression pinned in
//! `Pipeline::offer`'s contract: a mid-batch `Throttled` leaves the
//! batch resumable at the exact rejected row. And every entry is one
//! admission: `push_columnar`, `push_batch`, `ingest` and a loop over
//! `offer` feed a gated, shedding source alike.
//!
//! Emission *order* is not compared: the engines reject a gap or a
//! reorder in the row stream and no spec here can be retuned, so no
//! run crosses a safe point and the order follows from the rows alone.
//! `sink_equivalence` and `batch_equivalence` pin the engines' order at
//! any slicing, and `distributed_equivalence` the middleware's per-node
//! delivery order.

use std::slice;
use std::sync::Arc;

use gasf_core::batch::TupleBatch;
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::metrics::Histogram;
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::shed::{PushOutcome, ShedHeadroom};
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{
    GrantPolicy, IngestOptions, Middleware, MiddlewareConfig, Offer, ShedConfig, Shedder, SourceId,
};
use gasf_sources::{NamosBuoy, Trace};
use proptest::prelude::*;

fn trace(tuples: usize) -> Trace {
    NamosBuoy::new().tuples(tuples).seed(31).generate()
}

/// No spec declares shed headroom: whatever rung the shedder reaches,
/// `apply_shed_action` may not retune anything.
fn specs(trace: &Trace) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    vec![
        FilterSpec::delta("tmpr4", s * 2.0, s * 0.7),
        FilterSpec::delta("tmpr2", s * 2.6, s * 1.0),
        FilterSpec::reservoir("fluoro", Micros::from_millis(80), 3),
    ]
}

fn build(trace: &Trace, ingress: Option<u64>, shed: bool) -> (Middleware, SourceId) {
    build_with(trace, &specs(trace), ingress, shed)
}

/// [`specs`] with two of them declaring shed headroom, so a climbing
/// ladder retunes subscriptions and moves the degrade/restore counters.
fn headroom_specs(trace: &Trace) -> Vec<FilterSpec> {
    let mut specs = specs(trace);
    specs[0] = specs[0].clone().with_shed_headroom(ShedHeadroom::rungs(2));
    specs[2] = specs[2]
        .clone()
        .with_shed_headroom(ShedHeadroom::rungs(3).with_floor_fraction(0.5));
    specs
}

fn build_with(
    trace: &Trace,
    specs: &[FilterSpec],
    ingress: Option<u64>,
    shed: bool,
) -> (Middleware, SourceId) {
    let mut mw = Middleware::with_config(
        Overlay::new(Topology::ring(6).build()),
        MiddlewareConfig {
            algorithm: Algorithm::RegionGreedy,
            strategy: OutputStrategy::Earliest,
            parallelism: 2,
            ingress_capacity: ingress,
            shedding: shed.then(ShedConfig::default),
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
                NodeId(1 + (i as u32 % 5)),
                src,
                spec.clone(),
            )
            .unwrap();
    }
    mw.deploy().unwrap();
    (mw, src)
}

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

fn unbounded(trace: &Trace) -> RunFingerprint {
    let (mut mw, src) = build(trace, None, false);
    for t in trace.tuples() {
        assert!(offer(&mut mw, src, Offer::Rows(slice::from_ref(t)), 0)
            .1
            .is_accepted());
    }
    mw.finish(src).unwrap();
    fingerprint(&mw, src)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Row-wise pushes under a random credit schedule: the loop always
    /// terminates, every tuple is admitted exactly once, and the drained
    /// run equals the unbounded one — with the shedder attached the
    /// whole time.
    #[test]
    fn random_credit_schedule_drains_to_the_unbounded_run(
        capacity in 1u64..12,
        grants in proptest::collection::vec(1u64..8, 1..16),
    ) {
        let trace = trace(150);
        let want = unbounded(&trace);
        let (mut mw, src) = build(&trace, Some(capacity), true);
        let mut at = 0usize;
        let mut throttles = 0u64;
        let mut admissions = 0u64;
        for t in trace.tuples() {
            // Budget far above any legitimate retry count: if the gate
            // could wedge with credits pending, this trips instead of
            // hanging the suite.
            let mut attempts = 0;
            loop {
                attempts += 1;
                prop_assert!(attempts <= 10_000, "gate wedged: push never admitted");
                if offer(&mut mw, src, Offer::Rows(slice::from_ref(t)), 0).1.is_accepted() {
                    admissions += 1;
                    break;
                }
                throttles += 1;
                let g = grants[at % grants.len()];
                at += 1;
                prop_assert!(g >= 1);
                mw.grant_credits(src, g).unwrap();
            }
        }
        mw.finish(src).unwrap();
        prop_assert_eq!(admissions, trace.tuples().len() as u64);
        let flow = mw.flow_monitor(src).unwrap();
        prop_assert_eq!(flow.throttled(), throttles);
        prop_assert_eq!(flow.shed_dropped(), 0, "the driver never dropped");
        prop_assert_eq!(fingerprint(&mw, src), want);
    }

    /// Columnar pushes with random batch sizes under the same random
    /// credit schedules: resumable partial admissions re-slice the
    /// stream but never change it, lose a row, or deadlock.
    #[test]
    fn columnar_credit_schedule_drains_to_the_unbounded_run(
        capacity in 1u64..10,
        batch_rows in 1usize..24,
        grants in proptest::collection::vec(1u64..6, 1..12),
    ) {
        let trace = trace(150);
        let want = unbounded(&trace);
        let (mut mw, src) = build(&trace, Some(capacity), true);
        let batches: Vec<Arc<TupleBatch>> =
            trace.batches(batch_rows).into_iter().map(Arc::new).collect();
        let mut at = 0usize;
        let mut admitted_rows = 0u64;
        for batch in &batches {
            let mut row = 0;
            let mut attempts = 0;
            while row < batch.rows() {
                attempts += 1;
                prop_assert!(attempts <= 10_000, "gate wedged: batch never drained");
                let (n, outcome) = offer(&mut mw, src, Offer::Batch(batch), row);
                row += n;
                admitted_rows += n as u64;
                if outcome == PushOutcome::Throttled {
                    let g = grants[at % grants.len()];
                    at += 1;
                    mw.grant_credits(src, g).unwrap();
                }
            }
        }
        mw.finish(src).unwrap();
        prop_assert_eq!(admitted_rows, trace.tuples().len() as u64);
        prop_assert_eq!(fingerprint(&mw, src), want);
    }
}

/// Regression for the resumability contract: a `Throttled` mid-batch
/// admits exactly the credit prefix, and resuming at `start_row +
/// admitted` after a grant completes the batch with a run identical to
/// one unbounded push of the whole batch.
#[test]
fn throttled_mid_batch_resumes_at_the_exact_row() {
    let trace = trace(120);
    let batch = Arc::new(trace.batches(trace.tuples().len()).remove(0));
    assert!(batch.rows() > 50);

    let (mut bounded, src_b) = build(&trace, Some(50), false);
    let (admitted, outcome) = offer(&mut bounded, src_b, Offer::Batch(&batch), 0);
    assert_eq!(admitted, 50, "the gate must admit exactly its credits");
    assert_eq!(outcome, PushOutcome::Throttled);
    // A starved retry admits nothing and stays at the same row.
    let (zero, outcome) = offer(&mut bounded, src_b, Offer::Batch(&batch), 50);
    assert_eq!((zero, outcome), (0, PushOutcome::Throttled));
    // Grants saturate at the gate's capacity: a full refill admits the
    // next 50-row slice, and one more finishes the batch.
    let added = bounded.grant_credits(src_b, batch.rows() as u64).unwrap();
    assert_eq!(added, 50, "the gate must saturate at its capacity");
    let (next, outcome) = offer(&mut bounded, src_b, Offer::Batch(&batch), 50);
    assert_eq!((next, outcome), (50, PushOutcome::Throttled));
    bounded.grant_credits(src_b, 50).unwrap();
    let (rest, outcome) = offer(&mut bounded, src_b, Offer::Batch(&batch), 100);
    assert_eq!(rest, batch.rows() - 100, "resume must finish the suffix");
    assert_eq!(outcome, PushOutcome::Accepted);
    bounded.finish(src_b).unwrap();

    let (mut unbounded, src_u) = build(&trace, None, false);
    let (all, outcome) = offer(&mut unbounded, src_u, Offer::Batch(&batch), 0);
    assert_eq!((all, outcome), (batch.rows(), PushOutcome::Accepted));
    unbounded.finish(src_u).unwrap();

    assert_eq!(
        fingerprint(&bounded, src_b),
        fingerprint(&unbounded, src_u),
        "the split admission changed the stream"
    );
}

/// Hands out one prepared chunk, then end-of-stream.
struct OneChunk(Schema, Option<Chunk>);

impl SourceConnector for OneChunk {
    fn schema(&self) -> &Schema {
        &self.0
    }

    fn next_chunk(&mut self, _max_rows: usize) -> Result<Option<Chunk>, gasf_core::Error> {
        Ok(self.1.take())
    }
}

/// The ways one input chunk can enter a source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    PushColumnar,
    IngestBatch,
    OfferLoop,
    PushBatch,
    IngestRows,
}

/// What feeding a whole trace through one entry leaves behind.
#[derive(Debug, PartialEq)]
struct EntryRun {
    fingerprint: RunFingerprint,
    /// `FlowMonitor` throttled, degrade, restore and shed-drop counts
    /// (the offer loop's drops are its own count: only the middleware's
    /// loop books a drop with the monitor).
    flow: [u64; 4],
    /// The ladder's rung after each chunk.
    rungs: Vec<u8>,
}

/// `batch` with every row moved down by `shed` sequence numbers: what the
/// middleware's own loop feeds after `shed` drops, so the stream the
/// engine sees stays dense.
fn rebase(batch: &TupleBatch, shed: u64) -> Arc<TupleBatch> {
    let rows: Vec<Tuple> = batch
        .materialize()
        .iter()
        .map(|t| t.with_seq(t.seq() - shed))
        .collect();
    Arc::new(TupleBatch::from_tuples(batch.schema(), &rows).unwrap())
}

/// A loop over `offer` that refills the gate on `Throttled`, and first
/// drops the blocked row once a shadow of the source's shedder says the
/// ladder is exhausted; `dropped` counts its drops across calls, and the
/// rows after them are offered rebased past them. The shadow is booked
/// as the admission books a batch: calm only for a whole admission, then
/// the throttle.
fn offer_loop(
    mw: &mut Middleware,
    src: SourceId,
    batch: &TupleBatch,
    mut shadow: Option<&mut Shedder>,
    dropped: &mut u64,
) {
    let mut run = rebase(batch, *dropped);
    let mut row = 0;
    while row < run.rows() {
        let (n, outcome) = offer(mw, src, Offer::Batch(&run), row);
        row += n;
        let throttled = outcome == PushOutcome::Throttled;
        if let Some(shadow) = shadow.as_deref_mut() {
            shadow.on_accepted(u32::from(n > 0 && !throttled));
            if throttled {
                shadow.on_throttled();
            }
            assert_eq!(shadow.rung(), mw.shed_rung(src).unwrap());
        }
        if throttled {
            if shadow.as_deref().is_some_and(Shedder::should_drop) {
                *dropped += 1;
                row += 1;
                run = rebase(batch, *dropped);
            }
            let (_, capacity) = mw.credit_window(src).unwrap().unwrap();
            mw.grant_credits(src, capacity).unwrap();
        }
    }
}

/// Feeds `trace` through `entry` in chunks of the cycled `sizes`.
fn run_entry(
    trace: &Trace,
    capacity: Option<u64>,
    shed: bool,
    sizes: &[usize],
    entry: Entry,
) -> EntryRun {
    let (mut mw, src) = build_with(trace, &headroom_specs(trace), capacity, shed);
    let mut shadow = shed.then(|| Shedder::new(ShedConfig::default()));
    let mut own_drops = 0;
    let mut rungs = Vec::new();
    let mut tuples = trace.tuples();
    for &size in sizes.iter().cycle() {
        if tuples.is_empty() {
            break;
        }
        let (rows, rest) = tuples.split_at(size.min(tuples.len()));
        tuples = rest;
        let batch = Arc::new(TupleBatch::from_tuples(trace.schema(), rows).unwrap());
        let chunk = match entry {
            Entry::PushColumnar => {
                mw.pipeline(src).unwrap().push_columnar(&batch).unwrap();
                None
            }
            Entry::PushBatch => {
                mw.pipeline(src).unwrap().push_batch(rows.to_vec()).unwrap();
                None
            }
            Entry::OfferLoop => {
                offer_loop(&mut mw, src, &batch, shadow.as_mut(), &mut own_drops);
                None
            }
            Entry::IngestBatch => Some(Chunk::Batch((*batch).clone())),
            Entry::IngestRows => Some(Chunk::Rows(rows.to_vec())),
        };
        if let Some(chunk) = chunk {
            let options = IngestOptions {
                max_rows: rows.len(),
                grant: GrantPolicy::Refill,
                finish: false,
            };
            let mut one = OneChunk(trace.schema().clone(), Some(chunk));
            let report = mw.ingest(src, &mut one, options).unwrap();
            assert_eq!(report.accepted + report.dropped, rows.len() as u64);
        }
        rungs.push(mw.shed_rung(src).unwrap());
    }
    mw.finish(src).unwrap();
    let flow = mw.flow_monitor(src).unwrap();
    EntryRun {
        fingerprint: fingerprint(&mw, src),
        flow: [
            flow.throttled(),
            flow.degrade_ops(),
            flow.restore_ops(),
            flow.shed_dropped() + own_drops,
        ],
        rungs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every entry is one admission: on a source with or without a
    /// credit gate and a shedder, `push_columnar` per batch, `ingest`
    /// over the same batches under `Refill` and a loop over `offer` that
    /// refills on `Throttled` give the same run, the same flow counters
    /// and the same rung after every batch; so do `push_batch` and
    /// row-chunk `ingest`.
    #[test]
    fn every_entry_is_one_admission(
        gate in 0u64..13,
        shed in 0u8..2,
        sizes in proptest::collection::vec(1usize..40, 1..8),
    ) {
        // capacity 1–12, or no gate at 0
        let capacity = (gate > 0).then_some(gate);
        let shed = shed == 1;
        let trace = trace(300);
        let run = |entry| run_entry(&trace, capacity, shed, &sizes, entry);
        let columnar = run(Entry::PushColumnar);
        prop_assert_eq!(&run(Entry::IngestBatch), &columnar, "ingest over batches");
        prop_assert_eq!(&run(Entry::OfferLoop), &columnar, "offer loop");
        let rows = run(Entry::PushBatch);
        prop_assert_eq!(&run(Entry::IngestRows), &rows, "row-chunk ingest");
    }
}

/// An exhausted ladder sheds the blocked row and then grants what any
/// throttle grants: the rows after a drop meet a replenished window, so
/// a gated, shedding source admits more than it drops.
#[test]
fn an_exhausted_ladder_still_admits_more_than_it_drops() {
    let trace = trace(300);
    let run = run_entry(&trace, Some(3), true, &[12, 14], Entry::PushColumnar);
    let admitted = run.fingerprint.input_tuples;
    let dropped = run.flow[3];
    assert!(dropped > 0, "the ladder must exhaust for this case to bite");
    assert_eq!(admitted + dropped, 300);
    assert!(
        admitted > dropped,
        "admitted {admitted}, dropped {dropped}: a drop must replenish the gate"
    );
}
