//! The four workloads: frozen sizes and rates, seeded inputs, and the
//! set-up (`Rig::build`) every repetition times afresh.
//!
//! Sizes and rates were calibrated once at the seed commit on the 2-vCPU
//! reference host and are constants here — never rescaled at run time —
//! so a later commit is measured against the same offered load.

use crate::Res;
use gasf_core::event_time::EventTimeConfig;
use gasf_core::quality::FilterSpec;
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{GroupingStrategy, Middleware, MiddlewareConfig, SourceId, SubscriptionHandle};
use gasf_sources::{Disorder, NamosBuoy, Trace};
use gasf_wire::layout::{HostLayout, ProcessSpec, Role, WorkloadSpec};
use gasf_wire::tcp::{TcpTransport, WireConfig};
use std::net::SocketAddr;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WideRoster,
    FanoutWire,
    DisorderRows,
    ChurnSharded,
}

/// One workload's frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Stream length of one repetition (closed and paced alike).
    pub tuples: usize,
    /// Offered load of the paced phase, tuples/s (about half the closed
    /// phase's throughput at the seed commit).
    pub rate: f64,
    /// Rows per chunk pulled from the connector.
    pub chunk_rows: usize,
    /// Overlay nodes; node 0 hosts the source.
    pub nodes: usize,
}

/// Event-time disorder bound of `disorder-rows`.
const DISORDER_BOUND: Micros = Micros::from_millis(160);
/// `churn-sharded`: control ops every this many batches, checkpoint
/// every `CHECKPOINT_EVERY`.
pub const CHURN_EVERY: usize = 8;
pub const CHECKPOINT_EVERY: usize = 64;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wide-roster",
        // 256 overlapping delta filters, 1024-row batches via ingest into
        // the in-process overlay: the fused evaluator, region drain and
        // hitting set do most of the work, wire and encode none
        kind: Kind::WideRoster,
        tuples: 288 * 1024,
        rate: 100_000.0,
        chunk_rows: 1024,
        nodes: 9,
    },
    Workload {
        name: "fanout-wire",
        // 16 tight filters over 8 attributes (0.79 emissions per tuple)
        // through pipeline_over a loopback TcpTransport into a subscriber
        // thread: the only workload where sink, frame encode, socket and
        // decode run at all
        kind: Kind::FanoutWire,
        tuples: 288 * 1024,
        rate: 100_000.0,
        chunk_rows: 256,
        nodes: 17,
    },
    Workload {
        name: "disorder-rows",
        // 64 filters behind a 160 ms reorder buffer and a 256-credit gate,
        // fed row chunks of jittered arrivals: the row-at-a-time try_push
        // path instead of columnar batches
        kind: Kind::DisorderRows,
        tuples: 288 * 1024,
        rate: 100_000.0,
        chunk_rows: 256,
        nodes: 9,
    },
    Workload {
        name: "churn-sharded",
        // 512 subscriptions in 2 sharded parts (parallelism 2) with
        // subscribe/resubscribe/unsubscribe every 8 batches and a checkpoint
        // every 64: writes beside reads on the shard/merge path
        kind: Kind::ChurnSharded,
        tuples: 128 * 1024,
        rate: 42_000.0,
        chunk_rows: 1024,
        nodes: 9,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One boundary of the `churn-sharded` control schedule. The picks index
/// the driver's live-handle list modulo its length at that moment.
#[derive(Debug, Clone, Copy)]
pub struct ControlStep {
    pub join_node: NodeId,
    pub join_combo: usize,
    pub retune_pick: usize,
    pub retune_combo: usize,
    pub leave_pick: usize,
}

/// Everything a workload's repetitions share, generated from the seed.
pub struct Inputs {
    pub trace: Trace,
    /// `disorder-rows`: the jittered arrival order of `trace`.
    pub arrivals: Option<Vec<Tuple>>,
    /// Initial subscriptions, in subscription order.
    pub roster: Vec<(NodeId, FilterSpec)>,
    /// `churn-sharded`: spec pool the schedule draws from, and the schedule.
    pub combos: Vec<FilterSpec>,
    pub schedule: Vec<ControlStep>,
    pub gen_s: f64,
}

/// SplitMix64: the seeded choice stream behind the churn schedule.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `wide_roster` bench's overlapping roster: one attribute,
/// granularities spread from tight to loose, fixed small slack.
fn overlapping(trace: &Trace, n: usize) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").expect("namos attr").mean_abs_delta;
    (0..n)
        .map(|i| FilterSpec::delta("tmpr4", s * (3.0 + 0.25 * i as f64), s * 0.6))
        .collect()
}

impl Workload {
    /// Subscriber nodes, `1..nodes`.
    fn subscriber_node(&self, i: usize) -> NodeId {
        NodeId((i % (self.nodes - 1)) as u32 + 1)
    }

    pub fn inputs(&self, seed: u64, tuples: usize) -> Inputs {
        let t0 = Instant::now();
        let trace = NamosBuoy::new().tuples(tuples).seed(seed).generate();
        let mut arrivals = None;
        let mut combos = Vec::new();
        let mut schedule = Vec::new();
        let specs: Vec<FilterSpec> = match self.kind {
            Kind::WideRoster => overlapping(&trace, 256),
            Kind::DisorderRows => {
                arrivals = Some(Disorder::bounded(DISORDER_BOUND).seed(seed).apply(&trace));
                overlapping(&trace, 64)
            }
            Kind::FanoutWire => {
                // Two tight filters on each of eight attributes: nearly
                // every tuple is somebody's reference.
                let attrs = [
                    "fluoro", "tmpr1", "tmpr2", "tmpr3", "tmpr4", "tmpr5", "tmpr6", "wind",
                ];
                (0..16)
                    .map(|i| {
                        let attr = attrs[i % 8];
                        let s = trace.stats(attr).expect("namos attr").mean_abs_delta;
                        let k = (i / 8) as f64;
                        FilterSpec::delta(attr, s * (2.2 + 0.9 * k), s * (0.5 + 0.3 * k))
                    })
                    .collect()
            }
            Kind::ChurnSharded => {
                // 64 combos: the overlapping roster's first 64 specs, so
                // the 512 subscriptions hold eight copies of each.
                combos = overlapping(&trace, 64);
                let mut rng = SplitMix(seed ^ 0xc4a2_11d0);
                let boundaries = tuples.div_ceil(self.chunk_rows) / CHURN_EVERY;
                schedule = (0..boundaries)
                    .map(|_| ControlStep {
                        join_node: self.subscriber_node(rng.next() as usize),
                        join_combo: rng.next() as usize % combos.len(),
                        retune_pick: rng.next() as usize,
                        retune_combo: rng.next() as usize % combos.len(),
                        leave_pick: rng.next() as usize,
                    })
                    .collect();
                (0..512).map(|i| combos[i % combos.len()].clone()).collect()
            }
        };
        let roster = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| (self.subscriber_node(i), spec))
            .collect();
        Inputs {
            trace,
            arrivals,
            roster,
            combos,
            schedule,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Whether the deployment runs engine worker threads beside the
    /// driver (`parallelism` above 1).
    pub fn runs_workers(&self) -> bool {
        self.config(false).parallelism > 1
    }

    fn config(&self, reference: bool) -> MiddlewareConfig {
        let mut config = MiddlewareConfig::default();
        if reference {
            // The reference is the repo's own equivalence baseline:
            // parallelism 1, pre-sorted input, no gate.
            return config;
        }
        match self.kind {
            Kind::WideRoster => config.ingress_capacity = Some(4096),
            Kind::DisorderRows => {
                config.event_time = Some(EventTimeConfig::bounded(DISORDER_BOUND));
                config.ingress_capacity = Some(256);
            }
            Kind::ChurnSharded => config.parallelism = 2,
            Kind::FanoutWire => {}
        }
        config
    }

    /// The deployment `fanout-wire` connects: the source process hosts
    /// node 0, one subscriber process hosts every other node.
    fn layout(&self) -> HostLayout {
        let process = |id, role, nodes: std::ops::Range<usize>| ProcessSpec {
            id,
            role,
            addr: "127.0.0.1:0".into(),
            nodes: nodes.map(|n| NodeId(n as u32)).collect(),
        };
        HostLayout {
            name: "perfbench".into(),
            workload: WorkloadSpec::default(),
            processes: vec![
                process(0, Role::Source, 0..1),
                process(1, Role::Subscriber, 1..self.nodes),
            ],
        }
    }
}

/// Wall time of each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub deploy_ms: f64,
    pub regroup_ms: f64,
    pub connect_ms: f64,
}

/// A freshly set-up deployment: what one repetition streams through.
pub struct Rig {
    pub mw: Middleware,
    pub src: SourceId,
    /// `fanout-wire` (non-reference): the connected data plane.
    pub wire: Option<TcpTransport>,
    /// Live subscriptions, for the churn schedule's picks.
    pub live: Vec<SubscriptionHandle>,
    pub setup: SetupTimes,
}

impl Rig {
    /// register + subscribe x N + deploy (+ regroup, + connect) — the
    /// interval `setup_s` measures.
    pub fn build(
        w: &Workload,
        inputs: &Inputs,
        reference: bool,
        subscriber: Option<SocketAddr>,
    ) -> Res<Rig> {
        let t0 = Instant::now();
        let mut setup = SetupTimes::default();
        let overlay = Overlay::new(Topology::ring(w.nodes).build());
        let mut mw = Middleware::with_config(overlay, w.config(reference));
        let src = mw.register_source("buoy", NodeId(0), inputs.trace.schema().clone())?;
        let mut live = Vec::with_capacity(inputs.roster.len());
        for (i, (node, spec)) in inputs.roster.iter().enumerate() {
            live.push(mw.subscribe(format!("app{i}"), *node, src, spec.clone())?);
        }
        let t = Instant::now();
        mw.deploy()?;
        setup.deploy_ms = t.elapsed().as_secs_f64() * 1e3;
        if w.kind == Kind::ChurnSharded {
            let t = Instant::now();
            mw.regroup(src, GroupingStrategy::MaxSize(256))?;
            setup.regroup_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        let mut wire = None;
        if let Some(addr) = subscriber {
            let t = Instant::now();
            wire = Some(TcpTransport::connect(
                &w.layout(),
                0,
                WireConfig::default(),
                |_| Ok(addr),
            )?);
            setup.connect_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        setup.total_s = t0.elapsed().as_secs_f64();
        Ok(Rig {
            mw,
            src,
            wire,
            live,
            setup,
        })
    }
}
