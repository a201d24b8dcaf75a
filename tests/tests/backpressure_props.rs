//! Credit-gate properties: bounded ingress is **flow control, not
//! semantics**. For any capacity and any (always-eventually-positive)
//! credit schedule, the driving loop terminates (no deadlock), admits
//! every tuple exactly once, and drains to the same run fingerprint as
//! the unbounded path — row-wise or columnar, shedder attached or not
//! (the roster declares no headroom, so the climbing shedder has
//! nothing it may touch). Plus the resumability regression pinned in
//! `try_push_columnar`'s contract: a mid-batch `Throttled` leaves the
//! batch resumable at the exact rejected row.
//!
//! Emission *order* is not compared: the engines reject a gap or a
//! reorder in the row stream and no spec here can be retuned, so no
//! run crosses a safe point and the order follows from the rows alone.
//! `sink_equivalence` and `batch_equivalence` pin the engines' order at
//! any slicing, and `distributed_equivalence` the middleware's per-node
//! delivery order.

use std::sync::Arc;

use gasf_core::batch::TupleBatch;
use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::metrics::Histogram;
use gasf_core::quality::FilterSpec;
use gasf_core::shed::PushOutcome;
use gasf_core::time::Micros;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{Middleware, MiddlewareConfig, ShedConfig, SourceId};
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
    for (i, spec) in specs(trace).iter().enumerate() {
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

fn unbounded(trace: &Trace) -> RunFingerprint {
    let (mut mw, src) = build(trace, None, false);
    for t in trace.tuples() {
        assert!(mw.try_push(src, t).unwrap().is_accepted());
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
                if mw.try_push(src, t).unwrap().is_accepted() {
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
                let (n, outcome) = mw.try_push_columnar(src, batch, row).unwrap();
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
    let (admitted, outcome) = bounded.try_push_columnar(src_b, &batch, 0).unwrap();
    assert_eq!(admitted, 50, "the gate must admit exactly its credits");
    assert_eq!(outcome, PushOutcome::Throttled);
    // A starved retry admits nothing and stays at the same row.
    let (zero, outcome) = bounded.try_push_columnar(src_b, &batch, 50).unwrap();
    assert_eq!((zero, outcome), (0, PushOutcome::Throttled));
    // Grants saturate at the gate's capacity: a full refill admits the
    // next 50-row slice, and one more finishes the batch.
    let added = bounded.grant_credits(src_b, batch.rows() as u64).unwrap();
    assert_eq!(added, 50, "the gate must saturate at its capacity");
    let (next, outcome) = bounded.try_push_columnar(src_b, &batch, 50).unwrap();
    assert_eq!((next, outcome), (50, PushOutcome::Throttled));
    bounded.grant_credits(src_b, 50).unwrap();
    let (rest, outcome) = bounded.try_push_columnar(src_b, &batch, 100).unwrap();
    assert_eq!(rest, batch.rows() - 100, "resume must finish the suffix");
    assert_eq!(outcome, PushOutcome::Accepted);
    bounded.finish(src_b).unwrap();

    let (mut unbounded, src_u) = build(&trace, None, false);
    let (all, outcome) = unbounded.try_push_columnar(src_u, &batch, 0).unwrap();
    assert_eq!((all, outcome), (batch.rows(), PushOutcome::Accepted));
    unbounded.finish(src_u).unwrap();

    assert_eq!(
        fingerprint(&bounded, src_b),
        fingerprint(&unbounded, src_u),
        "the split admission changed the stream"
    );
}
