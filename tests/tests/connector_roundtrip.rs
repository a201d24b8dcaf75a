//! Connector-seam roundtrips: every [`SourceConnector`] must reproduce
//! the in-memory [`run_trace`](Middleware::run_trace) run **byte for
//! byte** — same engine metrics (the per-emission latency histogram
//! included), same wire bytes and message count, same per-app delivery
//! statistics.
//! The seam may change how tuples *arrive*; it must never change what
//! the engines *see*:
//!
//! - file replay ([`TraceReplay`]), both from an in-memory trace and
//!   from a CSV file on disk;
//! - the localhost socket connector ([`SocketSource`]) fed by a
//!   [`SocketFeeder`], including a producer crash mid-stream and the
//!   reconnect that resumes it;
//! - a disordered arrival stream ([`ArrivalReplay`]) through the
//!   event-time front end;
//! - property: ragged connector chunking (any `chunk_sizes` pattern ×
//!   any ingest `max_rows`) and any crash/burst schedule are invisible.
//!
//! Emission *order* is not compared: the engines reject a gap or a
//! reorder in the row stream and no run here crosses a safe point, so
//! the order follows from the rows alone. `sink_equivalence` and
//! `batch_equivalence` pin the engines' order at any slicing, and
//! `distributed_equivalence` the middleware's per-node delivery order.

use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::event_time::EventTimeConfig;
use gasf_core::metrics::Histogram;
use gasf_core::quality::FilterSpec;
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{GrantPolicy, IngestOptions, Middleware, MiddlewareConfig, SourceId};
use gasf_sources::{to_csv, ArrivalReplay, Disorder, NamosBuoy, Trace, TraceReplay};
use gasf_wire::socket::{SocketFeeder, SocketSource};
use proptest::prelude::*;

fn trace(tuples: usize) -> Trace {
    NamosBuoy::new().tuples(tuples).seed(23).generate()
}

fn specs(trace: &Trace) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    vec![
        FilterSpec::delta("tmpr4", s * 2.0, s * 0.7),
        FilterSpec::delta("tmpr4", s * 3.5, s * 1.2),
        FilterSpec::delta("tmpr2", s * 2.4, s * 0.9),
        FilterSpec::reservoir("fluoro", Micros::from_millis(80), 3),
    ]
}

fn build(trace: &Trace, event_time: Option<EventTimeConfig>) -> (Middleware, SourceId) {
    let mut mw = Middleware::with_config(
        Overlay::new(Topology::ring(7).build()),
        MiddlewareConfig {
            algorithm: Algorithm::RegionGreedy,
            strategy: OutputStrategy::Earliest,
            parallelism: 2,
            event_time,
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
                NodeId(1 + (i as u32 % 6)),
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

/// The in-memory reference: the same deployment driven by `run_trace`.
fn reference(trace: &Trace, arrivals: impl IntoIterator<Item = Tuple>) -> RunFingerprint {
    let (mut mw, src) = build(trace, None);
    mw.run_trace(src, arrivals).unwrap();
    fingerprint(&mw, src)
}

fn options(max_rows: usize) -> IngestOptions {
    IngestOptions {
        max_rows,
        grant: GrantPolicy::Refill,
        finish: true,
    }
}

#[test]
fn file_replay_reproduces_the_trace_run() {
    let trace = trace(300);
    let want = reference(&trace, trace.tuples().iter().cloned());
    let (mut mw, src) = build(&trace, None);
    let mut replay = TraceReplay::new(trace.clone()).chunk_sizes([13, 1, 7]);
    let report = mw.ingest(src, &mut replay, options(16)).unwrap();
    assert_eq!(report.rows, trace.tuples().len() as u64);
    assert_eq!(report.accepted, report.rows, "ungated ingest accepts all");
    assert_eq!(report.throttled, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(fingerprint(&mw, src), want, "file replay diverged");
}

#[test]
fn csv_file_replay_reproduces_the_trace_run() {
    let trace = trace(240);
    let want = reference(&trace, trace.tuples().iter().cloned());
    let path = std::env::temp_dir().join(format!(
        "gasf-connector-roundtrip-{}.csv",
        std::process::id()
    ));
    std::fs::write(&path, to_csv(&trace)).unwrap();
    let mut replay = TraceReplay::from_csv_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let (mut mw, src) = build(&trace, None);
    let report = mw.ingest(src, &mut replay, options(32)).unwrap();
    assert_eq!(report.accepted, trace.tuples().len() as u64);
    assert_eq!(
        fingerprint(&mw, src),
        want,
        "the CSV encode/decode roundtrip leaked into the run"
    );
}

#[test]
fn socket_connector_reproduces_the_trace_run() {
    let trace = trace(260);
    let want = reference(&trace, trace.tuples().iter().cloned());
    let mut source = SocketSource::bind(trace.schema().clone()).unwrap();
    let addr = source.local_addr().unwrap();
    let rows = trace.tuples().to_vec();
    let feeder = std::thread::spawn(move || {
        let mut f = SocketFeeder::connect(addr).unwrap();
        for burst in rows.chunks(17) {
            f.send(burst).unwrap();
        }
        f.finish().unwrap();
    });
    let (mut mw, src) = build(&trace, None);
    let report = mw.ingest(src, &mut source, options(11)).unwrap();
    feeder.join().unwrap();
    assert_eq!(report.accepted, trace.tuples().len() as u64);
    assert_eq!(source.reconnects(), 0, "a clean stream never reconnects");
    assert_eq!(fingerprint(&mw, src), want, "socket framing diverged");
}

#[test]
fn socket_producer_crash_and_reconnect_reassembles_the_stream() {
    let trace = trace(200);
    let want = reference(&trace, trace.tuples().iter().cloned());
    let mut source = SocketSource::bind(trace.schema().clone()).unwrap();
    let addr = source.local_addr().unwrap();
    let rows = trace.tuples().to_vec();
    let feeder = std::thread::spawn(move || {
        // Producer one ships 80 rows in bursts and crashes (drop
        // without Finish); its replacement resumes at the exact row.
        let mut f1 = SocketFeeder::connect(addr).unwrap();
        for burst in rows[..80].chunks(19) {
            f1.send(burst).unwrap();
        }
        drop(f1);
        let mut f2 = SocketFeeder::connect(addr).unwrap();
        for burst in rows[80..].chunks(23) {
            f2.send(burst).unwrap();
        }
        f2.finish().unwrap();
    });
    let (mut mw, src) = build(&trace, None);
    let report = mw.ingest(src, &mut source, options(9)).unwrap();
    feeder.join().unwrap();
    assert_eq!(report.accepted, trace.tuples().len() as u64);
    assert_eq!(source.reconnects(), 1, "the crash must be counted");
    assert_eq!(
        fingerprint(&mw, src),
        want,
        "reconnect lost or reordered rows"
    );
}

#[test]
fn disordered_arrivals_through_the_connector_match_the_event_time_run() {
    let trace = trace(280);
    let bound = Micros::from_millis(150);
    let arrivals = Disorder::bounded(bound).seed(7).apply(&trace);
    // Reference: the same disordered stream through run_trace on an
    // identically-configured event-time deployment.
    let (mut ref_mw, ref_src) = build(&trace, Some(EventTimeConfig::bounded(bound)));
    ref_mw.run_trace(ref_src, arrivals.iter().cloned()).unwrap();
    let want = fingerprint(&ref_mw, ref_src);

    let (mut mw, src) = build(&trace, Some(EventTimeConfig::bounded(bound)));
    let mut replay = ArrivalReplay::new(trace.schema().clone(), arrivals).chunk_sizes([5, 1, 9]);
    let report = mw.ingest(src, &mut replay, options(8)).unwrap();
    assert_eq!(report.accepted, trace.tuples().len() as u64);
    assert_eq!(
        fingerprint(&mw, src),
        want,
        "the connector seam must be invisible to the event-time front end"
    );
    // And the front end did its job: the disordered connector run equals
    // the ordered in-order trace run byte for byte.
    assert_eq!(
        fingerprint(&mw, src),
        reference(&trace, trace.tuples().iter().cloned()),
        "bounded disorder within the reorder bound must be fully hidden"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any ragged chunk-size pattern composed with any ingest `max_rows`
    /// re-slices the stream but never changes the run.
    #[test]
    fn ragged_chunking_never_changes_the_run(
        pattern in proptest::collection::vec(1usize..24, 1..6),
        max_rows in 1usize..32,
    ) {
        let trace = trace(160);
        let want = reference(&trace, trace.tuples().iter().cloned());
        let (mut mw, src) = build(&trace, None);
        let mut replay = TraceReplay::new(trace.clone()).chunk_sizes(pattern);
        let report = mw.ingest(src, &mut replay, options(max_rows)).unwrap();
        prop_assert_eq!(report.accepted, trace.tuples().len() as u64);
        prop_assert_eq!(fingerprint(&mw, src), want);
    }

    /// Any crash point and any burst sizes: the reconnecting producer
    /// pair reassembles the identical run.
    #[test]
    fn any_crash_schedule_reassembles_byte_for_byte(
        split in 1usize..139,
        burst1 in 1usize..40,
        burst2 in 1usize..40,
        max_rows in 1usize..24,
    ) {
        let trace = trace(140);
        let want = reference(&trace, trace.tuples().iter().cloned());
        let mut source = SocketSource::bind(trace.schema().clone()).unwrap();
        let addr = source.local_addr().unwrap();
        let rows = trace.tuples().to_vec();
        let feeder = std::thread::spawn(move || {
            let mut f1 = SocketFeeder::connect(addr).unwrap();
            for burst in rows[..split].chunks(burst1) {
                f1.send(burst).unwrap();
            }
            drop(f1);
            let mut f2 = SocketFeeder::connect(addr).unwrap();
            for burst in rows[split..].chunks(burst2) {
                f2.send(burst).unwrap();
            }
            f2.finish().unwrap();
        });
        let (mut mw, src) = build(&trace, None);
        let report = mw.ingest(src, &mut source, options(max_rows)).unwrap();
        feeder.join().unwrap();
        prop_assert_eq!(report.accepted, trace.tuples().len() as u64);
        prop_assert_eq!(source.reconnects(), 1);
        prop_assert_eq!(fingerprint(&mw, src), want);
    }
}
