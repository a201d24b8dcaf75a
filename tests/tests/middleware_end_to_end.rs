//! End-to-end integration: sources → middleware → engines → overlay
//! multicast → applications, across crates.

use gasf_core::batch::TupleBatch;
use gasf_core::candidate::FilterId;
use gasf_core::cuts::TimeConstraint;
use gasf_core::engine::{Algorithm, Emission, OutputStrategy};
use gasf_core::quality::FilterSpec;
use gasf_core::time::Micros;
use gasf_net::{
    resolve_nodes, Delivery, GroupId, LinkLoad, NetError, NodeId, NullTransport, Overlay, Topology,
    Transport,
};
use gasf_solar::{GroupingStrategy, IngestOptions, Middleware, MiddlewareConfig};
use gasf_sources::{ChlorinePlume, NamosBuoy, SourceKind, TraceReplay};
use gasf_wire::Recorded;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

fn build(
    algorithm: Algorithm,
    topology: Topology,
    trace: &gasf_sources::Trace,
    specs: &[FilterSpec],
    app_nodes: &[u32],
) -> (Middleware, gasf_solar::SourceId) {
    let overlay = Overlay::new(topology);
    let mut mw = Middleware::with_config(
        overlay,
        MiddlewareConfig {
            algorithm,
            strategy: OutputStrategy::Earliest,
            constraint: Some(TimeConstraint::max_delay(Micros::from_millis(200))),
            ..Default::default()
        },
    );
    let src = mw
        .register_source("s", NodeId(0), trace.schema().clone())
        .unwrap();
    for (i, spec) in specs.iter().enumerate() {
        let _ = mw
            .subscribe(
                format!("app{i}"),
                NodeId(app_nodes[i % app_nodes.len()]),
                src,
                spec.clone(),
            )
            .unwrap();
    }
    mw.deploy().unwrap();
    (mw, src)
}

fn namos_specs(trace: &gasf_sources::Trace) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta * 2.0;
    vec![
        FilterSpec::delta("tmpr4", s, s * 0.5),
        FilterSpec::delta("tmpr4", s * 2.0, s),
        FilterSpec::delta("tmpr4", s * 1.5, s * 0.75),
    ]
}

#[test]
fn full_pipeline_on_every_topology() {
    let trace = NamosBuoy::new().tuples(1_500).seed(5).generate();
    let specs = namos_specs(&trace);
    for topology in [
        Topology::ring(7).build(),
        Topology::star(6).build(),
        Topology::line(5).build(),
        Topology::grid(3, 3).build(),
    ] {
        let (mut mw, src) = build(
            Algorithm::RegionGreedy,
            topology,
            &trace,
            &specs,
            &[1, 2, 3, 4],
        );
        let report = mw.run_trace(src, trace.tuples().to_vec()).unwrap();
        assert_eq!(report.engine.input_tuples, 1_500);
        assert!(report.engine.output_tuples > 0);
        assert!(report.network_bytes > 0);
        for app in &report.per_app {
            assert!(app.tuples > 0, "{} starved", app.name);
            assert!(
                app.mean_e2e_latency >= Micros::from_millis(10),
                "{}: e2e latency {} implausibly low",
                app.name,
                app.mean_e2e_latency
            );
        }
    }
}

#[test]
fn bandwidth_ordering_ga_si_nofilter() {
    // The Fig. 1.3 ordering must hold through the whole stack.
    let trace = NamosBuoy::new().tuples(2_000).seed(9).generate();
    let specs = namos_specs(&trace);
    let bytes_of = |algorithm| {
        let (mut mw, src) = build(
            algorithm,
            Topology::ring(7).build(),
            &trace,
            &specs,
            &[2, 4, 6],
        );
        mw.run_trace(src, trace.tuples().to_vec())
            .unwrap()
            .network_bytes
    };
    let ga = bytes_of(Algorithm::RegionGreedy);
    let si = bytes_of(Algorithm::SelfInterested);
    assert!(ga <= si, "group-aware {ga} vs self-interested {si}");
}

#[test]
fn all_algorithms_and_strategies_deliver_everything() {
    let trace = ChlorinePlume::new().tuples(1_000).seed(3).generate();
    let s = trace.stats("chlorine").unwrap().mean_abs_delta * 2.0;
    let specs = [
        FilterSpec::delta("chlorine", s * 1.5, s * 0.7),
        FilterSpec::delta("chlorine", s * 3.0, s * 1.5),
    ];
    for algorithm in [
        Algorithm::RegionGreedy,
        Algorithm::PerCandidateSet,
        Algorithm::SelfInterested,
    ] {
        for strategy in [
            OutputStrategy::Earliest,
            OutputStrategy::PerCandidateSet,
            OutputStrategy::Batched(64),
        ] {
            let overlay = Overlay::new(Topology::ring(5).build());
            let mut mw = Middleware::with_config(
                overlay,
                MiddlewareConfig {
                    algorithm,
                    strategy,
                    constraint: None,
                    ..Default::default()
                },
            );
            let src = mw
                .register_source("c", NodeId(0), trace.schema().clone())
                .unwrap();
            let _ = mw
                .subscribe("a0", NodeId(2), src, specs[0].clone())
                .unwrap();
            let _ = mw
                .subscribe("a1", NodeId(4), src, specs[1].clone())
                .unwrap();
            mw.deploy().unwrap();
            let report = mw.run_trace(src, trace.tuples().to_vec()).unwrap();
            // per-app deliveries equal the engine's per-filter set counts
            for (i, app) in report.per_app.iter().enumerate() {
                assert_eq!(
                    app.tuples, report.engine.per_filter[i].sets_closed,
                    "{algorithm:?}/{strategy:?}: app{i}"
                );
            }
        }
    }
}

#[test]
fn every_source_kind_flows_through_the_stack() {
    for kind in [
        SourceKind::Namos,
        SourceKind::Cow,
        SourceKind::Volcano,
        SourceKind::Fire,
        SourceKind::Chlorine,
    ] {
        let trace = kind.generate(800, 4);
        let attr = kind.primary_attr();
        let s = trace.stats(attr).unwrap().mean_abs_delta * 2.0;
        let specs = vec![
            FilterSpec::delta(attr, s * 1.5, s * 0.7),
            FilterSpec::delta(attr, s * 2.5, s * 1.2),
        ];
        let (mut mw, src) = build(
            Algorithm::PerCandidateSet,
            Topology::ring(5).build(),
            &trace,
            &specs,
            &[1, 3],
        );
        let report = mw.run_trace(src, trace.tuples().to_vec()).unwrap();
        assert!(
            report.engine.output_tuples > 0,
            "{kind:?} produced no output"
        );
    }
}

#[test]
fn quality_propagation_matches_middleware_deployment() {
    let trace = NamosBuoy::new().tuples(100).seed(1).generate();
    let specs = namos_specs(&trace);
    let (mw, _) = build(
        Algorithm::RegionGreedy,
        Topology::ring(7).build(),
        &trace,
        &specs,
        &[1, 2, 3],
    );
    let graph = mw.operator_graph();
    let sites = graph.group_filter_sites();
    assert_eq!(sites.len(), 1);
    assert_eq!(sites[0].1.len(), specs.len());
    for spec in &specs {
        assert!(sites[0].1.contains(spec));
    }
}

#[test]
fn tighter_constraints_cut_more_and_lower_latency() {
    let trace = NamosBuoy::new().tuples(2_000).seed(7).generate();
    let specs = namos_specs(&trace);
    let run = |deadline_ms: u64| {
        let overlay = Overlay::new(Topology::ring(7).build());
        let mut mw = Middleware::with_config(
            overlay,
            MiddlewareConfig {
                algorithm: Algorithm::RegionGreedy,
                strategy: OutputStrategy::Earliest,
                constraint: Some(TimeConstraint::max_delay(Micros::from_millis(deadline_ms))),
                ..Default::default()
            },
        );
        let src = mw
            .register_source("s", NodeId(0), trace.schema().clone())
            .unwrap();
        for (i, spec) in specs.iter().enumerate() {
            let _ = mw
                .subscribe(format!("a{i}"), NodeId(1 + i as u32), src, spec.clone())
                .unwrap();
        }
        mw.deploy().unwrap();
        let r = mw.run_trace(src, trace.tuples().to_vec()).unwrap();
        (r.engine.cut_fraction(), r.engine.mean_latency())
    };
    let (loose_cuts, loose_latency) = run(500);
    let (tight_cuts, tight_latency) = run(30);
    assert!(tight_cuts >= loose_cuts, "{tight_cuts} vs {loose_cuts}");
    assert!(
        tight_latency <= loose_latency,
        "{tight_latency} vs {loose_latency}"
    );
}

/// A multi-part source's per-node streams depend on neither the run size
/// nor the parallelism: its parts are routes of one engine, merged in
/// `(row, part)` order. Node 4 subscribes in both parts, so its stream
/// interleaves them. Between runs one subscription is retuned and the
/// second part is emptied, which leaves it a dormant route.
#[test]
fn multi_part_streams_ignore_run_size_and_parallelism() {
    let trace = NamosBuoy::new().tuples(3_000).seed(13).generate();
    let step = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let spec = |k: usize| {
        let k = k as f64;
        FilterSpec::delta("tmpr4", step * (1.5 + 0.4 * k), step * (0.6 + 0.15 * k))
    };
    // Rows 1 024 and 2 048, where the churn lands, start a run at every
    // run size.
    let tuples = trace.tuples();
    let segments = [&tuples[..1_024], &tuples[1_024..2_048], &tuples[2_048..]];
    let run = |algorithm: Algorithm, rows: usize, parallelism: usize| {
        let config = MiddlewareConfig {
            algorithm,
            parallelism,
            ..Default::default()
        };
        let mut mw = Middleware::with_config(Overlay::new(Topology::ring(7).build()), config);
        let src = mw
            .register_source("buoy", NodeId(0), trace.schema().clone())
            .unwrap();
        let subs: Vec<_> = [2u32, 4, 2, 4, 3, 5]
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                mw.subscribe(format!("a{i}"), NodeId(node), src, spec(i))
                    .unwrap()
            })
            .collect();
        mw.deploy().unwrap();
        let parts = mw.regroup(src, GroupingStrategy::MaxSize(3)).unwrap();
        assert_eq!(parts, [subs[..3].to_vec(), subs[3..].to_vec()]);
        let mut wire = Recorded::new(NullTransport::default());
        for (k, segment) in segments.iter().enumerate() {
            if k == 1 {
                mw.resubscribe(subs[1], spec(6)).unwrap();
            }
            if k == 2 {
                for &h in &subs[3..] {
                    mw.unsubscribe(h).unwrap();
                }
            }
            let mut pipeline = mw.pipeline_over(src, &mut wire).unwrap();
            for chunk in segment.chunks(rows) {
                let batch = TupleBatch::from_tuples(trace.schema(), chunk).unwrap();
                pipeline.push_columnar(&Arc::new(batch)).unwrap();
            }
        }
        mw.pipeline_over(src, &mut wire).unwrap().finish().unwrap();
        wire.digests().clone()
    };
    for algorithm in [Algorithm::RegionGreedy, Algorithm::PerCandidateSet] {
        let reference = run(algorithm, 1_024, 1);
        assert!(reference.contains_key(&NodeId(4)), "{algorithm:?}");
        for rows in [1, 64, 1_024] {
            for parallelism in [1, 2, 4] {
                assert_eq!(
                    run(algorithm, rows, parallelism),
                    reference,
                    "{algorithm:?}: runs of {rows} rows at parallelism {parallelism}"
                );
            }
        }
    }
}

/// `ingest` runs on a pipeline over any transport: a connector driven
/// through `pipeline_over` delivers, node for node, the stream that
/// pushing the same trace 1 024 rows a batch through `push_columnar`
/// delivers, on a two-part source, inline and on worker threads.
#[test]
fn ingest_over_a_transport_matches_the_per_batch_drive() {
    let trace = NamosBuoy::new().tuples(3_000).seed(17).generate();
    let step = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let run = |parallelism: usize, by_ingest: bool| {
        let config = MiddlewareConfig {
            parallelism,
            ..Default::default()
        };
        let mut mw = Middleware::with_config(Overlay::new(Topology::ring(7).build()), config);
        let src = mw
            .register_source("buoy", NodeId(0), trace.schema().clone())
            .unwrap();
        for (i, node) in [2u32, 4, 2, 4, 3, 5].into_iter().enumerate() {
            let k = i as f64;
            let spec = FilterSpec::delta("tmpr4", step * (1.5 + 0.4 * k), step * (0.6 + 0.15 * k));
            let _ = mw
                .subscribe(format!("a{i}"), NodeId(node), src, spec)
                .unwrap();
        }
        mw.deploy().unwrap();
        mw.regroup(src, GroupingStrategy::MaxSize(3)).unwrap();
        let mut wire = Recorded::new(NullTransport::default());
        let mut pipeline = mw.pipeline_over(src, &mut wire).unwrap();
        if by_ingest {
            let mut replay = TraceReplay::new(trace.clone());
            let report = pipeline
                .ingest(&mut replay, IngestOptions::default())
                .unwrap();
            assert_eq!(report.accepted, 3_000);
        } else {
            for batch in trace.batches(1_024) {
                pipeline.push_columnar(&Arc::new(batch)).unwrap();
            }
            pipeline.finish().unwrap();
        }
        wire.digests().clone()
    };
    for parallelism in [1, 2] {
        let want = run(parallelism, false);
        assert!(want.len() > 1, "parallelism {parallelism}: nodes served");
        assert_eq!(run(parallelism, true), want, "parallelism {parallelism}");
    }
}

/// A data plane that checks every send the middleware resolves against
/// the per-label resolution: the nodes it is handed must be exactly what
/// `resolve_nodes` makes of the label → node map handed along with them.
///
/// It also counts sends whose walk is known from outside. The sink walks
/// label by label when an emission has fewer labels than the sending part
/// has nodes, and by node mask otherwise. A part spans at least the nodes
/// its group has been sent to so far, and at most the distinct nodes of
/// every subscription made (`subscribed`, kept by the test).
#[derive(Debug, Default)]
struct CheckedResolution {
    inner: NullTransport,
    expected: Vec<NodeId>,
    resolved_sends: u64,
    first_mismatch: Option<String>,
    subscribed: BTreeSet<NodeId>,
    group_nodes: BTreeMap<GroupId, BTreeSet<NodeId>>,
    per_label_sends: u64,
    per_mask_sends: u64,
    /// `(emission, label)` deliveries per recipient node.
    delivered: BTreeMap<NodeId, u64>,
}

/// Deliveries booked per node, and the latency samples behind them.
type Booked = (BTreeMap<NodeId, u64>, u64);

impl CheckedResolution {
    /// `before` plus one delivery per label sent since the last call: what
    /// the sink must have booked by now.
    fn booked_after(&mut self, (mut per_node, mut samples): Booked) -> Booked {
        for (node, n) in std::mem::take(&mut self.delivered) {
            *per_node.entry(node).or_default() += n;
            samples += n;
        }
        (per_node, samples)
    }
}

impl Transport for CheckedResolution {
    fn send_emission(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        self.inner.send_emission(group, src, emission, node_of)
    }

    fn send_to_nodes(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        nodes: &[NodeId],
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        resolve_nodes(&mut self.expected, emission, &mut *node_of);
        self.resolved_sends += 1;
        let labels = emission.recipients.len();
        let seen = self.group_nodes.entry(group).or_default();
        seen.extend(&self.expected);
        if labels < seen.len() {
            self.per_label_sends += 1;
        } else if labels >= self.subscribed.len() {
            self.per_mask_sends += 1;
        }
        for f in emission.recipients.iter() {
            *self.delivered.entry(node_of(f)).or_default() += 1;
        }
        if self.expected != nodes && self.first_mismatch.is_none() {
            self.first_mismatch = Some(format!(
                "labels {} resolved to {nodes:?}, per label {:?}",
                emission.recipients, self.expected
            ));
        }
        self.inner
            .send_to_nodes(group, src, emission, nodes, node_of)
    }

    fn flush(&mut self) -> Result<(), NetError> {
        self.inner.flush()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn messages(&self) -> u64 {
        self.inner.messages()
    }

    fn link_loads(&self) -> Vec<LinkLoad> {
        self.inner.link_loads()
    }
}

/// Cases of `node_masks_resolve_like_the_per_label_map`.
const RESOLUTION_CASES: u32 = 12;

/// Over the cases run so far: `(cases, sends known to walk label by
/// label, sends known to walk by node mask)`.
static RESOLUTION_WALKS: Mutex<(u32, u64, u64)> = Mutex::new((0, 0, 0));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(RESOLUTION_CASES))]

    /// The sink resolves every emission to the nodes the per-label map →
    /// sort → dedup gives, and books one delivery per label to the app on
    /// the label's node, across random rosters (several filters per node,
    /// vacancies left by unsubscribes, filters appended live), regroups
    /// into several parts and a checkpoint → recover hop, inline and
    /// sharded — on both walks, which the cases together must exercise.
    #[test]
    fn node_masks_resolve_like_the_per_label_map(
        ring in 3u32..9,
        roster in collection::vec((0u32..8, 0u64..6), 2..10),
        ops in collection::vec((0u64..5, 0u64..64, 0u64..6), 3..9),
        parallelism in 1usize..3,
    ) {
        let trace = NamosBuoy::new().tuples(1_200).seed(11).generate();
        let step = trace.stats("tmpr4").unwrap().mean_abs_delta;
        let spec = |k: u64| {
            let k = k as f64;
            FilterSpec::delta("tmpr4", step * (1.5 + 0.6 * k), step * (0.6 + 0.1 * k))
        };
        let node = |raw: u32| NodeId(1 + raw % (ring - 1));
        // Subscription names say where the app lives: `a{i}` is roster
        // entry `i`, `late{pick}` sits on `node(pick)`.
        let app_node = |name: &str| match name.strip_prefix("late") {
            Some(pick) => node(pick.parse().unwrap()),
            None => node(roster[name[1..].parse::<usize>().unwrap()].0),
        };
        let topology = || Topology::ring(ring as usize).build();
        let config = MiddlewareConfig {
            parallelism,
            ..Default::default()
        };
        let mut mw = Middleware::with_config(Overlay::new(topology()), config);
        let src = mw
            .register_source("s", NodeId(0), trace.schema().clone())
            .unwrap();
        for (i, &(raw, k)) in roster.iter().enumerate() {
            let _ = mw.subscribe(format!("a{i}"), node(raw), src, spec(k)).unwrap();
        }
        mw.deploy().unwrap();
        let mut wire = CheckedResolution {
            subscribed: roster.iter().map(|&(raw, _)| node(raw)).collect(),
            ..Default::default()
        };
        // What a push books must be what the wire saw it send. (Control
        // ops disseminate their boundary drains over the overlay, so only
        // pushes are compared.)
        let booked = |mw: &Middleware| -> Booked {
            let mut per_node = BTreeMap::new();
            for app in mw.report(src).unwrap().per_app {
                if app.tuples > 0 {
                    *per_node.entry(app_node(&app.name)).or_default() += app.tuples;
                }
            }
            (per_node, mw.latency_histogram(src).unwrap().count())
        };
        let chunks: Vec<_> = trace.tuples().chunks(1_200 / (ops.len() + 1) + 1).collect();
        for (chunk, &(op, pick, k)) in chunks.iter().zip(&ops) {
            let before = booked(&mw);
            mw.pipeline_over(src, &mut wire)
                .unwrap()
                .push_batch(chunk.to_vec())
                .unwrap();
            prop_assert_eq!(booked(&mw), wire.booked_after(before));
            let live = mw.subscriptions(src).unwrap();
            let picked = live[pick as usize % live.len()];
            match op {
                0 => {
                    let name = format!("late{pick}");
                    let _ = mw.subscribe(name, node(pick as u32), src, spec(k)).unwrap();
                    wire.subscribed.insert(node(pick as u32));
                }
                1 if live.len() > 1 => mw.unsubscribe(picked).unwrap(),
                2 => mw.resubscribe(picked, spec(k)).unwrap(),
                3 => {
                    let strategy = GroupingStrategy::MaxSize(1 + pick as usize % 3);
                    mw.regroup(src, strategy).unwrap();
                }
                _ => {
                    let snap = mw.checkpoint().unwrap();
                    mw = Middleware::recover(Overlay::new(topology()), &snap).unwrap();
                }
            }
        }
        let before = booked(&mw);
        let mut pipeline = mw.pipeline_over(src, &mut wire).unwrap();
        for chunk in &chunks[ops.len().min(chunks.len())..] {
            pipeline.push_batch(chunk.to_vec()).unwrap();
        }
        pipeline.finish().unwrap();
        prop_assert_eq!(booked(&mw), wire.booked_after(before));
        prop_assert!(wire.resolved_sends > 0, "the sink sent nothing resolved");
        prop_assert_eq!(wire.first_mismatch, None);
        let mut walks = RESOLUTION_WALKS.lock().unwrap();
        walks.0 += 1;
        walks.1 += wire.per_label_sends;
        walks.2 += wire.per_mask_sends;
        if walks.0 == RESOLUTION_CASES {
            prop_assert!(walks.1 > 0 && walks.2 > 0, "both walks taken: {:?}", *walks);
        }
    }
}
