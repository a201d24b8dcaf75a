//! The Solar-like middleware: pub/sub + group-aware filtering service +
//! multicast dissemination (Fig. 4.1's software architecture).
//!
//! * the **quality specification manager** is the [`FilterSpec`] registry
//!   maintained through the subscription lifecycle
//!   ([`Middleware::subscribe`] / [`Middleware::unsubscribe`] /
//!   [`Middleware::resubscribe`]),
//! * the **group-aware filtering manager** instantiates the filtering
//!   engines — one or more *parts* per source — at
//!   [`Middleware::deploy`] time and keeps them in sync with live
//!   subscription churn afterwards,
//! * the **global state manager** lives inside the engines,
//! * the **output scheduler** is the engine's output strategy feeding the
//!   overlay's tuple-level multicast.
//!
//! The data path is a sink-based pipeline (Fig. 4.1 as an API): a
//! [`Pipeline`] wires source → engine(s) → [`MulticastSink`] — the
//! overlay dissemination implemented as an
//! [`EmissionSink`](gasf_core::sink::EmissionSink) — with
//! [`FlowMonitor`] accounting tee'd in via
//! [`Metered`](crate::flow::Metered).
//!
//! ## The subscription control plane
//!
//! Subscriptions are live: [`Middleware::subscribe`] returns a stable
//! [`SubscriptionHandle`] and — once deployed — attaches the application
//! mid-stream (the engine queues the filter for its next safe point and
//! the app's node joins the multicast tree in place).
//! [`Middleware::unsubscribe`] removes the filter at the same epoch
//! boundary, delivers everything already decided for the app, and prunes
//! the node from the tree after the first push that leaves nothing in
//! flight (with worker threads, where boundary emissions can trail by a
//! few batches, that is the next checkpoint or the stream's finish — a
//! stale member costs nothing meanwhile, since every send is pruned to
//! its recipient subset);
//! [`Middleware::resubscribe`] retunes a live filter in place. Delivery
//! accounting follows the *subscription* (the handle), not the engine
//! slot: a removed app keeps its statistics in every report.
//! [`Middleware::regroup`] re-partitions a source's live subscribers with
//! [`crate::regroup::partition`] and migrates them across engines at an
//! epoch boundary — in-flight candidate sets are drained (and their
//! outputs disseminated) before the old engines are torn down, and their
//! metrics survive in the source's retired total.
//!
//! The legacy one-shot protocol — subscribe everything, then
//! [`deploy`](Middleware::deploy), then stream — still works unchanged:
//! `deploy` is simply the static rebuild the live operations are defined
//! against.

use crate::backpressure::CreditGate;
use crate::flow::{FlowDecision, FlowMonitor, Metered};
use crate::graph::OperatorGraph;
use crate::regroup::{self, GroupingStrategy};
use crate::shedder::{ShedAction, ShedConfig, Shedder};
use gasf_core::batch::TupleBatch;
use gasf_core::bitset::FilterSet;
use gasf_core::candidate::FilterId;
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::cuts::TimeConstraint;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, OutputStrategy};
use gasf_core::event_time::{
    EventTimeConfig, LateOutcome, LateTuple, ReorderBuffer, ReorderSnapshot,
};
use gasf_core::metrics::{EngineMetrics, Histogram};
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::shard::ShardedEngine;
use gasf_core::shed::PushOutcome;
use gasf_core::sink::EmissionSink;
use gasf_core::snapshot::EngineSnapshot;
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;
use gasf_net::{GroupId, NodeId, Overlay, RepairReport, Transport};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Identifier of a registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(usize);

/// Stable handle of one subscription, returned by
/// [`Middleware::subscribe`] and valid for the middleware's lifetime —
/// it keys delivery statistics even after
/// [`unsubscribe`](Middleware::unsubscribe), and is never recycled.
#[must_use = "the handle is the only way to unsubscribe/resubscribe or read per-app reports"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionHandle(usize);

impl SubscriptionHandle {
    /// Dense index of the subscription (assignment order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

impl fmt::Display for SubscriptionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// Middleware errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum SolarError {
    /// A source name was registered twice.
    DuplicateSource(String),
    /// A referenced source/subscription id is unknown.
    UnknownId(String),
    /// A node id is outside the overlay's topology.
    UnknownNode(NodeId),
    /// The middleware was never deployed; call `deploy` first.
    NotDeployed,
    /// A source has no subscribers, so it cannot be run.
    NoSubscribers(String),
    /// The subscription is already unsubscribed.
    NotSubscribed(String),
    /// The node hosts a live source or subscription, so it cannot be
    /// failed from the middleware (detach it first).
    NodeInUse(NodeId),
    /// Error from the filtering engine.
    Core(gasf_core::Error),
    /// Error from the overlay network.
    Net(gasf_net::multicast::NetError),
}

impl fmt::Display for SolarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolarError::DuplicateSource(n) => write!(f, "source `{n}` already registered"),
            SolarError::UnknownId(what) => write!(f, "unknown id: {what}"),
            SolarError::UnknownNode(n) => write!(f, "node {n} is not in the topology"),
            SolarError::NotDeployed => write!(f, "middleware not deployed; call deploy()"),
            SolarError::NoSubscribers(n) => write!(f, "source `{n}` has no subscribers"),
            SolarError::NotSubscribed(h) => write!(f, "{h} is already unsubscribed"),
            SolarError::NodeInUse(n) => write!(
                f,
                "node {n} hosts a live source or subscription; detach it before failing the node"
            ),
            SolarError::Core(e) => write!(f, "filtering error: {e}"),
            SolarError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for SolarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolarError::Core(e) => Some(e),
            SolarError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gasf_core::Error> for SolarError {
    fn from(e: gasf_core::Error) -> Self {
        SolarError::Core(e)
    }
}

impl From<gasf_net::multicast::NetError> for SolarError {
    fn from(e: gasf_net::multicast::NetError) -> Self {
        SolarError::Net(e)
    }
}

/// Filtering-service configuration applied to every source engine.
#[derive(Debug, Clone, Copy)]
pub struct MiddlewareConfig {
    /// Second-stage algorithm.
    pub algorithm: Algorithm,
    /// Output strategy.
    pub strategy: OutputStrategy,
    /// Optional group time constraint (timely cuts).
    pub constraint: Option<TimeConstraint>,
    /// Where a part's engine runs. Every part hosts a single-route
    /// [`ShardedEngine`]: at `1` (the default) or below it has no worker
    /// thread and filters on the caller thread; **any** value above one
    /// gives every part one worker thread of its own. Shards that own no
    /// route are never spawned, so 2 and 64 configure the same deployment
    /// — the setting is two-valued. The worker moves filtering off the
    /// caller thread so it overlaps with multicast dissemination; output
    /// (and therefore all delivery accounting) is byte-identical either
    /// way. (The byte-identical guarantee holds whenever the engine itself
    /// is input-deterministic; with a `constraint` set, timely-cut timing
    /// depends on measured wall clock at *every* setting, so no two runs
    /// are guaranteed identical there.)
    pub parallelism: usize,
    /// Event-time front end. `Some(cfg)` puts a per-source
    /// [`ReorderBuffer`] **ahead of** every part's engine: tuples may
    /// arrive in any order within `cfg.bound` of event time, the buffer
    /// releases them to the ordered path only once the source's watermark
    /// passes them, and tuples later than the bound are handled per
    /// `cfg.late` ([`LatePolicy`](gasf_core::event_time::LatePolicy)). `None` (the default) is the classic
    /// arrival-order contract: the stream must already be ordered.
    pub event_time: Option<EventTimeConfig>,
    /// Bounded ingress. `Some(capacity)` puts a [`CreditGate`] of that
    /// capacity in front of every source: the `try_push` family and
    /// [`ingest`](Middleware::ingest) admit rows only while credits
    /// remain and return [`PushOutcome::Throttled`] otherwise, leaving
    /// the input with the caller. `None` (the default) is the unbounded
    /// contract — every offered row is admitted.
    pub ingress_capacity: Option<u64>,
    /// Quality-aware load shedding. `Some(cfg)` attaches a per-source
    /// [`Shedder`]: sustained `Throttled` streaks climb the degradation
    /// ladder (subscriptions with declared
    /// [`ShedHeadroom`](gasf_core::shed::ShedHeadroom) are retuned to
    /// `spec.degraded(rung)` through the epoch-based control path),
    /// sustained calm restores them, and only an exhausted ladder lets
    /// the ingest driver drop tuples. A shedder that never observes
    /// pressure never changes anything — pressure-free runs are
    /// byte-identical to `None`.
    pub shedding: Option<ShedConfig>,
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            algorithm: Algorithm::RegionGreedy,
            strategy: OutputStrategy::Earliest,
            constraint: None,
            parallelism: 1,
            event_time: None,
            ingress_capacity: None,
            shedding: None,
        }
    }
}

/// How [`Middleware::ingest`] replenishes a throttled source's credit
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantPolicy {
    /// Refill to capacity on every throttle. Filtering is synchronous,
    /// so everything admitted has fully drained by the time the driver
    /// regains control — this is the drain-barrier model, right for
    /// functional runs where the bound should never bite.
    Refill,
    /// Replenish according to the source's [`FlowDecision`]:
    /// [`Ok`](FlowDecision::Ok) refills the window,
    /// [`Shed`](FlowDecision::Shed) grants only the un-shed fraction,
    /// [`DegradeQuality`](FlowDecision::DegradeQuality) grants a
    /// one-credit trickle — keeping pressure on so the
    /// [`Shedder`] climbs the ladder. Always grants at least one
    /// credit: ingest never deadlocks.
    Adaptive,
}

/// Knobs for [`Middleware::ingest`].
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Upper bound on rows per [`SourceConnector::next_chunk`] pull
    /// (clamped to at least 1).
    pub max_rows: usize,
    /// Credit replenishment under throttle.
    pub grant: GrantPolicy,
    /// Whether to [`finish`](Middleware::finish) the source at EOF.
    pub finish: bool,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            max_rows: 1024,
            grant: GrantPolicy::Refill,
            finish: true,
        }
    }
}

/// What [`Middleware::ingest`] did with a connector's stream. Always
/// `rows == accepted + dropped` at EOF; `throttled` counts throttle
/// *events* (each may block many rows or one), reconciling exactly with
/// [`FlowMonitor::throttled`] minus any throttles observed outside the
/// driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Chunks pulled from the connector.
    pub chunks: u64,
    /// Rows pulled from the connector.
    pub rows: u64,
    /// Rows admitted through the gate and processed.
    pub accepted: u64,
    /// Rows shed after the ladder was exhausted (§4.8's last resort).
    pub dropped: u64,
    /// Throttle events the driver absorbed.
    pub throttled: u64,
}

/// Most rows the middleware packs into one dispatch unit — far below the
/// sharded engines' 65 536-row replay log.
const MAX_RUN_ROWS: usize = 1024;

/// What an admission is offered: a run of rows, in the shape its caller
/// holds them — arrival-order tuples (`try_push`, [`Chunk::Rows`]) or a
/// stream-ordered batch (`try_push_columnar`, [`Chunk::Batch`]). Either
/// crosses the middleware as one columnar run; the shape only decides
/// what the shedder is told.
#[derive(Debug, Clone, Copy)]
enum Run<'a> {
    Rows(&'a [Tuple]),
    Batch(&'a Arc<TupleBatch>),
}

/// One filter group of a source: its engine, its multicast tree and the
/// stable [`FilterId`] → subscription mapping.
#[derive(Debug)]
struct PartEntry {
    /// The group's engine: route 0 of a [`ShardedEngine`], with no worker
    /// thread at parallelism ≤ 1 (see [`MiddlewareConfig::parallelism`]).
    engine: ShardedEngine,
    group: GroupId,
    /// The overlay group's creation name (kept so a checkpoint can
    /// recreate the identical tree on a fresh overlay).
    group_name: String,
    /// `filter_apps[id]` is the app index the engine's filter `id` serves.
    /// Append-only: vacated slots keep their mapping so emissions drained
    /// at an epoch boundary still resolve to the (now inactive) app.
    filter_apps: Vec<usize>,
    /// `filter_apps` grouped by node: `(node, the filter ids whose app
    /// lives there)` for every node a filter of this part ever served,
    /// ascending by node. Append-only like `filter_apps` (a vacated slot
    /// keeps its bit), so an emission's recipient nodes are the entries
    /// whose mask meets its labels.
    node_masks: Vec<(NodeId, FilterSet)>,
    /// Nodes whose overlay membership should be dropped once the next
    /// epoch boundary has passed (their final deliveries are out).
    deferred_leaves: Vec<NodeId>,
}

impl PartEntry {
    /// A part over `engine` and its tree whose filter ids serve
    /// `filter_apps`, in id order.
    fn new(
        engine: ShardedEngine,
        group: GroupId,
        group_name: String,
        filter_apps: &[usize],
        apps: &[AppEntry],
        deferred_leaves: Vec<NodeId>,
    ) -> PartEntry {
        let mut part = PartEntry {
            engine,
            group,
            group_name,
            filter_apps: Vec::with_capacity(filter_apps.len()),
            node_masks: Vec::new(),
            deferred_leaves,
        };
        for &a in filter_apps {
            part.push_filter(a, apps[a].node);
        }
        part
    }

    /// Maps the next filter id to subscription `app`, which lives on
    /// `node`, and returns the id.
    fn push_filter(&mut self, app: usize, node: NodeId) -> FilterId {
        let id = FilterId::from_index(self.filter_apps.len());
        self.filter_apps.push(app);
        match self.node_masks.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(i) => {
                self.node_masks[i].1.insert(id);
            }
            Err(i) => self
                .node_masks
                .insert(i, (node, FilterSet::from_iter([id]))),
        }
        id
    }
}

#[derive(Debug)]
struct SourceEntry {
    name: String,
    node: NodeId,
    schema: Schema,
    /// Every subscription ever attached to this source (active or not).
    subscribers: Vec<usize>,
    /// Live filter groups (one in the common case; several after
    /// [`Middleware::regroup`]). Every part sees the full stream.
    parts: Vec<PartEntry>,
    /// Lifetime metrics of every engine retired by regroup/unsubscribe,
    /// merged into one, so their history survives in reports.
    retired: EngineMetrics,
    /// Bumped by every regroup so retired multicast trees never collide
    /// with their replacements (reset by [`Middleware::deploy`]).
    generation: u64,
    flow: FlowMonitor,
    /// Event-time front end ([`MiddlewareConfig::event_time`]): one
    /// watermark + reorder buffer per source, sitting ahead of the part
    /// fan-out (every part sees the full stream, so reordering once ahead
    /// of all parts is equivalent to reordering per part).
    reorder: Option<ReorderBuffer>,
    /// Delivery-latency distribution (microseconds) across every
    /// subscriber of this source (filtering + overlay multicast),
    /// fixed-footprint so it stays cheap at soak scale.
    lat_hist: Histogram,
    /// Bounded ingress ([`MiddlewareConfig::ingress_capacity`]).
    gate: Option<CreditGate>,
    /// Quality-aware shedding policy ([`MiddlewareConfig::shedding`]).
    shedder: Option<Shedder>,
}

impl SourceEntry {
    /// The source's engine metrics, folded over every live part and
    /// every engine retired by churn — the single definition both
    /// [`Middleware::report`] and [`Pipeline::metrics`] present.
    fn folded_metrics(&self) -> EngineMetrics {
        let mut total = self.retired.clone();
        for part in &self.parts {
            total.merge(&part.engine.metrics());
        }
        total
    }
}

/// One subscription, live and as captured by [`MiddlewareSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct AppEntry {
    name: String,
    node: NodeId,
    /// Kept for introspection/debugging of multi-source deployments.
    #[allow(dead_code)]
    source: SourceId,
    /// The subscription's *declared* spec — always the rung-0 original.
    /// Shedding retunes the engine-side filter through `update_filter`
    /// without touching this, so restoration is exact.
    spec: FilterSpec,
    active: bool,
    tuples: u64,
    /// Aggregated end-to-end latency (mean = sum / tuples). An aggregate
    /// rather than per-delivery samples so a million-subscriber soak run
    /// doesn't grow memory per delivery.
    e2e_latency_sum_us: u64,
}

impl AppEntry {
    /// Counts one delivery that took `e2e` end to end.
    fn book(&mut self, e2e: Micros) {
        self.tuples += 1;
        self.e2e_latency_sum_us += e2e.as_micros();
    }
}

/// Per-subscription run statistics, keyed by the stable
/// [`SubscriptionHandle`] — entries survive
/// [`unsubscribe`](Middleware::unsubscribe) with their counters frozen.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// The subscription.
    pub handle: SubscriptionHandle,
    /// Its registered name.
    pub name: String,
    /// Whether the subscription is still live.
    pub active: bool,
    /// Tuples delivered to it.
    pub tuples: u64,
    /// Mean end-to-end latency (filtering + overlay multicast).
    pub mean_e2e_latency: Micros,
}

/// Event-time accounting of one source's reorder front end
/// ([`Middleware::event_time_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventTimeStats {
    /// Tuples currently held back waiting for the watermark.
    pub buffered: usize,
    /// Tuples released to the ordered path so far.
    pub released: u64,
    /// Late tuples dropped under [`LatePolicy::Drop`](gasf_core::event_time::LatePolicy::Drop).
    pub late_dropped: u64,
    /// Patch emissions produced under [`LatePolicy::EmitPatch`](gasf_core::event_time::LatePolicy::EmitPatch).
    pub patches: u64,
    /// The source's current watermark (`None` before the first tuple).
    pub watermark: Option<Micros>,
}

/// Result of running one trace through a source.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine metrics (O/I ratio, CPU, filtering latency, regions, …),
    /// folded over every epoch, part and retired engine of the source.
    pub engine: EngineMetrics,
    /// Bytes that crossed overlay links during this run.
    pub network_bytes: u64,
    /// Multicast messages sent during this run.
    pub messages: u64,
    /// Per-subscription delivery statistics (active and removed).
    pub per_app: Vec<AppReport>,
}

impl RunReport {
    /// Mean end-to-end latency across all applications.
    pub fn mean_e2e_latency(&self) -> Micros {
        let (sum, n) = self.per_app.iter().fold((0u64, 0u64), |(s, n), a| {
            (s + a.mean_e2e_latency.as_micros() * a.tuples, n + a.tuples)
        });
        match sum.checked_div(n) {
            Some(mean) => Micros(mean),
            None => Micros::ZERO,
        }
    }
}

/// A full middleware checkpoint: every part engine captured at its
/// safe-point boundary ([`Middleware::checkpoint`]), the subscription
/// roster with its per-app delivery statistics, the per-source
/// [`FlowMonitor`] accounting, and enough overlay membership to recreate
/// the multicast trees — everything [`Middleware::recover`] needs to
/// continue the deployment on a fresh overlay under the same stable
/// [`SubscriptionHandle`]s.
///
/// Derives the workspace serde markers; with the real `serde` crate this
/// is the unit of durable middleware state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MiddlewareSnapshot {
    pub(crate) config: MiddlewareConfig,
    pub(crate) deployed: bool,
    pub(crate) sources: Vec<SourceState>,
    pub(crate) apps: Vec<AppEntry>,
}

impl MiddlewareSnapshot {
    /// Number of sources captured.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of subscriptions captured (active and removed — handles and
    /// their statistics survive recovery).
    pub fn subscriptions(&self) -> usize {
        self.apps.len()
    }
}

/// One source's captured state (see [`MiddlewareSnapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SourceState {
    name: String,
    node: NodeId,
    schema: Schema,
    subscribers: Vec<usize>,
    retired: EngineMetrics,
    generation: u64,
    flow: FlowMonitor,
    /// Watermark + reorder-buffer state (sources with an event-time
    /// front end): buffered-but-unreleased tuples survive the hop.
    reorder: Option<ReorderSnapshot>,
    /// Delivery-latency distribution (lifetime counters travel with the
    /// flow monitor).
    lat_hist: Histogram,
    /// The shedding ladder rung at the checkpoint boundary. The part
    /// engines' snapshots carry that rung's degraded specs, so recovery
    /// resumes the shedder at the same rung (streaks and the credit
    /// window restart fresh — a recovered node begins unpressured).
    shed_rung: u8,
    parts: Vec<PartState>,
}

/// One filter group's captured state (see [`MiddlewareSnapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PartState {
    engine: EngineSnapshot,
    group_name: String,
    /// Current multicast-tree membership; recreating the group with the
    /// full member list reproduces the identical tree (pinned by the
    /// overlay's join-equals-create property).
    members: Vec<NodeId>,
    filter_apps: Vec<usize>,
    deferred_leaves: Vec<NodeId>,
}

/// The data-dissemination middleware.
///
/// ```rust
/// use gasf_solar::{Middleware, MiddlewareConfig};
/// use gasf_net::{Overlay, Topology, NodeId};
/// use gasf_core::prelude::*;
///
/// # fn main() -> Result<(), gasf_solar::SolarError> {
/// let overlay = Overlay::new(Topology::ring(7).build());
/// let mut mw = Middleware::new(overlay);
/// let schema = Schema::new(["t"]);
/// let src = mw.register_source("buoy", NodeId(0), schema.clone())?;
/// let ui = mw.subscribe("ui", NodeId(3), src, FilterSpec::delta("t", 1.0, 0.4))?;
/// mw.subscribe("log", NodeId(5), src, FilterSpec::delta("t", 2.0, 0.9))?;
/// mw.deploy()?;
/// let mut b = TupleBuilder::new(&schema);
/// let tuples: Vec<Tuple> = (0..20)
///     .map(|i| b.at_millis(10 * (i + 1)).set("t", i as f64).build().unwrap())
///     .collect();
/// // subscriptions stay live after deploy: retune `ui` mid-stream…
/// mw.push_batch(src, tuples[..10].to_vec())?;
/// mw.resubscribe(ui, FilterSpec::delta("t", 3.0, 1.2))?;
/// mw.push_batch(src, tuples[10..].to_vec())?;
/// mw.finish(src)?;
/// let report = mw.report(src)?;
/// assert!(report.engine.oi_ratio() <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Middleware {
    overlay: Overlay,
    config: MiddlewareConfig,
    sources: Vec<SourceEntry>,
    apps: Vec<AppEntry>,
    deployed: bool,
    /// [`MulticastSink`]'s recipient-node scratch, kept here so every
    /// push's sink reuses one allocation.
    recipient_nodes: Vec<NodeId>,
}

impl Middleware {
    /// Creates a middleware over an overlay with default configuration.
    pub fn new(overlay: Overlay) -> Self {
        Self::with_config(overlay, MiddlewareConfig::default())
    }

    /// Creates a middleware with explicit filtering configuration.
    pub fn with_config(overlay: Overlay, config: MiddlewareConfig) -> Self {
        Middleware {
            overlay,
            config,
            sources: Vec::new(),
            apps: Vec::new(),
            deployed: false,
            recipient_nodes: Vec::new(),
        }
    }

    /// The overlay (traffic counters, topology).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Registers (advertises) a source at a node.
    ///
    /// # Errors
    /// [`SolarError::DuplicateSource`] / [`SolarError::UnknownNode`].
    pub fn register_source(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
        schema: Schema,
    ) -> Result<SourceId, SolarError> {
        let name = name.into();
        if self.sources.iter().any(|s| s.name == name) {
            return Err(SolarError::DuplicateSource(name));
        }
        if node.index() >= self.overlay.topology().len() {
            return Err(SolarError::UnknownNode(node));
        }
        self.sources.push(SourceEntry {
            name,
            node,
            schema,
            subscribers: Vec::new(),
            parts: Vec::new(),
            retired: EngineMetrics::default(),
            generation: 0,
            flow: FlowMonitor::default(),
            reorder: self.config.event_time.map(ReorderBuffer::new),
            lat_hist: Histogram::default(),
            gate: self.config.ingress_capacity.map(CreditGate::new),
            shedder: self.config.shedding.map(Shedder::new),
        });
        self.deployed = false;
        Ok(SourceId(self.sources.len() - 1))
    }

    /// Subscribes an application (at `node`) to a source with its quality
    /// requirement, returning a stable [`SubscriptionHandle`].
    ///
    /// Before [`deploy`](Self::deploy) the subscription is pending and
    /// the engine is built from the full roster at deploy time (the
    /// legacy one-shot path). After deploy the subscription goes **live**:
    /// the source's engine queues the filter for its next safe point and
    /// the app's node joins the multicast tree in place — no teardown, no
    /// replay.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] / [`SolarError::UnknownNode`]; on the
    /// live path additionally engine validation errors (the handle is
    /// *not* live when an error is returned).
    pub fn subscribe(
        &mut self,
        app_name: impl Into<String>,
        node: NodeId,
        source: SourceId,
        spec: FilterSpec,
    ) -> Result<SubscriptionHandle, SolarError> {
        if source.0 >= self.sources.len() {
            return Err(SolarError::UnknownId(source.to_string()));
        }
        if node.index() >= self.overlay.topology().len() {
            return Err(SolarError::UnknownNode(node));
        }
        let idx = self.apps.len();
        self.apps.push(AppEntry {
            name: app_name.into(),
            node,
            source,
            spec,
            active: true,
            tuples: 0,
            e2e_latency_sum_us: 0,
        });
        self.sources[source.0].subscribers.push(idx);
        if self.deployed {
            if let Err(e) = self.attach_live(source, idx) {
                self.apps[idx].active = false;
                return Err(e);
            }
        }
        Ok(SubscriptionHandle(idx))
    }

    /// Ends a subscription. Live (after deploy): the filter leaves its
    /// engine at the next safe point — outputs already decided for the
    /// app are still delivered at that boundary — and the node leaves the
    /// multicast tree once the boundary has passed (unless another active
    /// subscription still needs it). The handle keeps its statistics
    /// forever. The last subscriber of a part retires the whole part,
    /// draining its in-flight candidate sets through the multicast path.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] for a foreign handle,
    /// [`SolarError::NotSubscribed`] when already unsubscribed, engine
    /// errors on the live path.
    pub fn unsubscribe(&mut self, handle: SubscriptionHandle) -> Result<(), SolarError> {
        let idx = handle.0;
        if idx >= self.apps.len() {
            return Err(SolarError::UnknownId(handle.to_string()));
        }
        if !self.apps[idx].active {
            return Err(SolarError::NotSubscribed(handle.to_string()));
        }
        let source = self.apps[idx].source;
        let node = self.apps[idx].node;
        self.apps[idx].active = false;
        if !self.deployed {
            return Ok(());
        }
        let Some((part_idx, fid)) = self.locate(source, idx) else {
            return Ok(()); // source was never spawned
        };
        let part = &self.sources[source.0].parts[part_idx];
        let others_active = part
            .filter_apps
            .iter()
            .any(|&a| a != idx && self.apps[a].active);
        if !others_active {
            return self.retire_part(source.0, part_idx).map(|_| ());
        }
        let part = &mut self.sources[source.0].parts[part_idx];
        part.engine.remove_filter(0, fid)?;
        part.deferred_leaves.push(node);
        Ok(())
    }

    /// Retunes a live subscription: the same handle, a new quality spec.
    /// Live (after deploy) the filter restarts under the new spec at the
    /// engine's next safe point; pending it simply replaces the spec the
    /// next [`deploy`](Self::deploy) will use.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] / [`SolarError::NotSubscribed`], or
    /// engine validation errors (the old spec stays in force then).
    pub fn resubscribe(
        &mut self,
        handle: SubscriptionHandle,
        spec: FilterSpec,
    ) -> Result<(), SolarError> {
        let idx = handle.0;
        if idx >= self.apps.len() {
            return Err(SolarError::UnknownId(handle.to_string()));
        }
        if !self.apps[idx].active {
            return Err(SolarError::NotSubscribed(handle.to_string()));
        }
        let source = self.apps[idx].source;
        if self.deployed {
            if let Some((part_idx, fid)) = self.locate(source, idx) {
                // A source mid-shed installs the new spec at its current
                // rung; the declared original still lands in `apps` below.
                let rung = self.sources[source.0]
                    .shedder
                    .as_ref()
                    .map_or(0, Shedder::rung);
                let engine_spec = spec.degraded(rung).unwrap_or_else(|| spec.clone());
                self.sources[source.0].parts[part_idx]
                    .engine
                    .update_filter(0, fid, engine_spec)?;
            }
        }
        self.apps[idx].spec = spec;
        Ok(())
    }

    /// The live subscriptions of a source, in subscription order.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] for unknown sources.
    pub fn subscriptions(&self, source: SourceId) -> Result<Vec<SubscriptionHandle>, SolarError> {
        let s = self
            .sources
            .get(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        Ok(s.subscribers
            .iter()
            .copied()
            .filter(|&a| self.apps[a].active)
            .map(SubscriptionHandle)
            .collect())
    }

    /// Re-partitions a source's live subscribers with
    /// [`regroup::partition`] and migrates them across engines at an
    /// epoch boundary: every existing part is drained (in-flight
    /// candidate sets close, pending outputs are multicast) and retired —
    /// its metrics survive in the source's retired total — then one fresh
    /// engine and multicast tree is spawned per non-empty partition part.
    /// The continuing stream flows through the new engines seamlessly.
    ///
    /// Reference rates for [`GroupingStrategy::BySelectivity`] come from
    /// the engines' own per-filter metrics (`references / input_tuples`)
    /// over each drained engine's whole life — every epoch since its part
    /// was spawned, whatever the parallelism.
    ///
    /// # Errors
    /// [`SolarError::NotDeployed`], [`SolarError::UnknownId`],
    /// [`SolarError::NoSubscribers`], or engine/overlay errors during the
    /// migration.
    pub fn regroup(
        &mut self,
        source: SourceId,
        strategy: GroupingStrategy,
    ) -> Result<Vec<Vec<SubscriptionHandle>>, SolarError> {
        if !self.deployed {
            return Err(SolarError::NotDeployed);
        }
        let s = self
            .sources
            .get(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        let active: Vec<usize> = s
            .subscribers
            .iter()
            .copied()
            .filter(|&a| self.apps[a].active)
            .collect();
        if active.is_empty() {
            return Err(SolarError::NoSubscribers(s.name.clone()));
        }
        let nodes: Vec<NodeId> = active.iter().map(|&a| self.apps[a].node).collect();
        // Remember where each live subscription sat before the drain.
        let table = self.locate_all(source);
        let locations: Vec<Option<(usize, FilterId)>> = active.iter().map(|&a| table[a]).collect();
        // Epoch boundary: drain and retire every live part, collecting
        // each engine's lifetime metrics. Rates are computed *after* the
        // drain, when a worker's per-route metrics have materialised.
        let mut lifetimes: Vec<EngineMetrics> = Vec::new();
        while !self.sources[source.0].parts.is_empty() {
            lifetimes.push(self.retire_part(source.0, 0)?);
        }
        let mut rates = vec![0.0; active.len()];
        for (k, loc) in locations.iter().enumerate() {
            let Some((part_idx, fid)) = loc else { continue };
            let Some(m) = lifetimes.get(*part_idx) else {
                continue;
            };
            if m.input_tuples > 0 && fid.index() < m.per_filter.len() {
                rates[k] = m.per_filter[fid.index()].references as f64 / m.input_tuples as f64;
            }
        }
        let partition = regroup::partition(
            strategy,
            self.overlay.topology(),
            &nodes,
            &rates,
            active.len(),
        );
        self.sources[source.0].generation += 1;
        // …and spawn one fresh engine + tree per partition part.
        for part in &partition {
            if part.is_empty() {
                continue;
            }
            let app_idxs: Vec<usize> = part.iter().map(|&k| active[k]).collect();
            self.spawn_part(source.0, &app_idxs)?;
        }
        Ok(partition
            .into_iter()
            .map(|part| {
                part.into_iter()
                    .map(|k| SubscriptionHandle(active[k]))
                    .collect()
            })
            .collect())
    }

    /// Builds the operator graph implied by the current live
    /// subscriptions — the structure Fig. 2.2 propagates quality specs
    /// over.
    pub fn operator_graph(&self) -> OperatorGraph {
        let mut g = OperatorGraph::new();
        for s in &self.sources {
            let sid = g.add(s.name.clone(), crate::graph::OpKind::Source);
            for &app in &s.subscribers {
                let a = &self.apps[app];
                if !a.active {
                    continue;
                }
                let aid = g.add(
                    a.name.clone(),
                    crate::graph::OpKind::Application(a.spec.clone()),
                );
                g.connect(sid, aid).expect("source->app edge is acyclic");
            }
        }
        g
    }

    /// Instantiates the filtering engines and multicast groups from the
    /// live subscriptions — the *static rebuild* the dynamic lifecycle is
    /// defined against. Also the reset path: deploying again rebuilds
    /// every engine, clears the per-source retired totals and restarts the
    /// multicast generation.
    ///
    /// # Errors
    /// Propagates engine-construction and group-creation failures.
    pub fn deploy(&mut self) -> Result<(), SolarError> {
        for i in 0..self.sources.len() {
            let s = &mut self.sources[i];
            // Reclaim the previous deployment's trees before rebuilding
            // (post-regroup generations would otherwise leak forever).
            for part in s.parts.drain(..) {
                let _ = self.overlay.remove_group(part.group);
            }
            s.retired = EngineMetrics::default();
            s.generation = 0;
            // Deploy restarts the stream, so the event-time front end
            // restarts with it (fresh watermark, empty buffer) — and so
            // do the ingress gate and the shedding ladder (engines are
            // rebuilt from the declared rung-0 specs below).
            s.reorder = self.config.event_time.map(ReorderBuffer::new);
            s.gate = self.config.ingress_capacity.map(CreditGate::new);
            s.shedder = self.config.shedding.map(Shedder::new);
            let active: Vec<usize> = s
                .subscribers
                .iter()
                .copied()
                .filter(|&a| self.apps[a].active)
                .collect();
            if active.is_empty() {
                continue;
            }
            self.spawn_part(i, &active)?;
        }
        self.deployed = true;
        Ok(())
    }

    /// Wires a source's dataflow — engine(s) → metered multicast sinks —
    /// and returns it ready to push tuples. This is the primary data
    /// path: emissions stream from each engine's release scratch straight
    /// into the overlay's multicast trees, with [`FlowMonitor`]
    /// accounting tee'd in, and no intermediate `Vec<Emission>` is ever
    /// built.
    ///
    /// # Errors
    /// [`SolarError::NotDeployed`] / [`SolarError::UnknownId`] /
    /// [`SolarError::NoSubscribers`].
    pub fn pipeline(&mut self, source: SourceId) -> Result<Pipeline<'_>, SolarError> {
        if !self.deployed {
            return Err(SolarError::NotDeployed);
        }
        let s = self
            .sources
            .get(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        if s.parts.is_empty() {
            return Err(SolarError::NoSubscribers(s.name.clone()));
        }
        Ok(Pipeline {
            mw: self,
            source: source.0,
            wire: None,
        })
    }

    /// Like [`pipeline`](Self::pipeline), but drains the source's
    /// emissions through an external [`Transport`] (e.g. the TCP wire in
    /// `gasf-wire`) instead of this middleware's in-process overlay.
    ///
    /// The overlay stays the *control plane* — groups, membership and
    /// subscription bookkeeping are unchanged — while the data plane
    /// (every emission the engines release) goes over the given wire.
    /// Per-subscription delivery statistics still accumulate locally;
    /// end-to-end latency contributions from the wire are measured by the
    /// receiving processes, so the transport's deliveries may report
    /// zero network latency.
    ///
    /// # Errors
    /// Same as [`pipeline`](Self::pipeline).
    pub fn pipeline_over<'m>(
        &'m mut self,
        source: SourceId,
        wire: &'m mut dyn Transport,
    ) -> Result<Pipeline<'m>, SolarError> {
        let mut p = self.pipeline(source)?;
        p.wire = Some(wire);
        Ok(p)
    }

    /// Pushes a batch of tuples through a source's pipeline without
    /// re-wiring it per tuple.
    ///
    /// # Errors
    /// [`SolarError::NotDeployed`], engine errors, network errors; stops
    /// at the first failure.
    pub fn push_batch(
        &mut self,
        source: SourceId,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), SolarError> {
        self.pipeline(source)?.push_batch(tuples)
    }

    /// Ends a source's stream and disseminates the tail.
    ///
    /// # Errors
    /// Same as [`push_batch`](Self::push_batch).
    pub fn finish(&mut self, source: SourceId) -> Result<(), SolarError> {
        self.pipeline(source)?.finish()
    }

    /// The flow-control monitor's current advice for a source (§4.8:
    /// congested input buffers call for shedding or quality degradation).
    ///
    /// # Errors
    /// Returns [`SolarError::UnknownId`] for unknown sources.
    pub fn flow_decision(&self, source: SourceId) -> Result<FlowDecision, SolarError> {
        self.sources
            .get(source.0)
            .map(|s| s.flow.decision())
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))
    }

    /// Event-time statistics of a source's reorder front end. All zeros
    /// (with `buffered == 0`) for sources without
    /// [`MiddlewareConfig::event_time`].
    ///
    /// # Errors
    /// Returns [`SolarError::UnknownId`] for unknown sources.
    pub fn event_time_stats(&self, source: SourceId) -> Result<EventTimeStats, SolarError> {
        let s = self
            .sources
            .get(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        Ok(match &s.reorder {
            Some(buf) => EventTimeStats {
                buffered: buf.buffered(),
                released: buf.released(),
                late_dropped: buf.late_dropped(),
                patches: buf.patches(),
                watermark: buf.watermark().current(),
            },
            None => EventTimeStats::default(),
        })
    }

    // ------------------------------------------------------------------
    // bounded ingress: credit gate, quality-aware shedding, connectors
    // ------------------------------------------------------------------

    /// Pushes one tuple through the source's bounded ingress.
    ///
    /// A run of one row through the source's one admission. Without
    /// [`MiddlewareConfig::ingress_capacity`] this is exactly
    /// [`pipeline`](Self::pipeline)`.push` and always returns
    /// [`PushOutcome::Accepted`]. With a credit gate the tuple is
    /// admitted only if a credit is available; otherwise the push
    /// returns [`PushOutcome::Throttled`] **without consuming the
    /// input** — the caller still owns the tuple and may retry after
    /// [`grant_credits`](Self::grant_credits) (or hold it, propagating
    /// the pressure outward).
    ///
    /// Each outcome is observed by the source's [`Shedder`] when one is
    /// configured: sustained throttling climbs the degradation ladder
    /// (headroom-declaring subscriptions are retuned to
    /// [`degraded`](FilterSpec::degraded) specs through the epoch-based
    /// control path), sustained acceptance restores it rung by rung.
    ///
    /// # Errors
    /// [`SolarError::NotDeployed`] / [`SolarError::UnknownId`] /
    /// [`SolarError::NoSubscribers`] — all raised before a credit moves —
    /// plus any pipeline error while the admitted tuple is processed.
    pub fn try_push(&mut self, source: SourceId, tuple: &Tuple) -> Result<PushOutcome, SolarError> {
        let run = Run::Rows(std::slice::from_ref(tuple));
        self.admit(source, run, 0).map(|(_, outcome)| outcome)
    }

    /// Pushes the suffix of a columnar batch (rows `start_row..`)
    /// through the source's bounded ingress, returning how many rows
    /// were admitted together with the outcome.
    ///
    /// The gate may admit a *prefix* of the suffix (partial take): the
    /// admitted rows are processed, the outcome is `Throttled`, and the
    /// batch is **resumable at the exact rejected row** — call again
    /// with `start_row + admitted`. `Accepted` means every requested
    /// row went through. Admitting a sub-range goes through
    /// [`TupleBatch::slice`], so the engines observe the identical
    /// row stream an unbounded push would have produced.
    ///
    /// # Errors
    /// [`SolarError::NotDeployed`] / [`SolarError::UnknownId`] /
    /// [`SolarError::NoSubscribers`] — all raised before a credit moves —
    /// plus pipeline errors for the admitted slice.
    ///
    /// # Panics
    /// Panics if `start_row > batch.rows()`.
    pub fn try_push_columnar(
        &mut self,
        source: SourceId,
        batch: &Arc<TupleBatch>,
        start_row: usize,
    ) -> Result<(usize, PushOutcome), SolarError> {
        assert!(start_row <= batch.rows(), "start_row out of range");
        self.admit(source, Run::Batch(batch), start_row)
    }

    /// The one admission: offers rows `start..` of `run` to the source's
    /// bounded ingress and returns how many went through. Resolve the
    /// pipeline, take credits, feed the admitted rows through the
    /// event-time front end into every part's columnar entry, book the
    /// outcome — in that order, so a source with no live part fails
    /// before its credit window moves.
    ///
    /// `Accepted` means everything *offered* was admitted. Under a
    /// degraded ladder a row-shaped offer stops at the row that completes
    /// the calm streak, so the `Restore` — an `update_filter` that must
    /// land at an exact stream position — lands where pushing the rows
    /// one at a time puts it; callers loop while rows remain.
    fn admit(
        &mut self,
        source: SourceId,
        run: Run<'_>,
        start: usize,
    ) -> Result<(usize, PushOutcome), SolarError> {
        let mut pipeline = self.pipeline(source)?;
        let s = &mut pipeline.mw.sources[source.0];
        let offered = match run {
            Run::Rows(rows) => {
                let calm = s
                    .shedder
                    .as_ref()
                    .map_or(u32::MAX, Shedder::calm_until_restore);
                (rows.len() - start).min(calm as usize)
            }
            Run::Batch(batch) => batch.rows() - start,
        };
        let admitted = match s.gate.as_mut() {
            Some(gate) => gate.take(offered as u64) as usize,
            None => offered,
        };
        match run {
            _ if admitted == 0 => {}
            Run::Rows(rows) => pipeline.push_rows(Cow::Borrowed(&rows[start..start + admitted]))?,
            Run::Batch(batch) if admitted == batch.rows() => pipeline.push_columnar(batch)?,
            Run::Batch(batch) => pipeline.push_columnar(&Arc::new(batch.slice(start, admitted)))?,
        }
        // What the shedder is told depends on the input's shape — an
        // inconsistency this body inherits rather than settles: rows book
        // one unit of calm per admitted row, then the throttle that
        // stopped them; a batch books one unit only when admitted whole,
        // and only the throttle when admitted in part. (An empty offer
        // books nothing.)
        let throttled = admitted < offered;
        let calm = match run {
            Run::Rows(_) => admitted as u32,
            Run::Batch(_) => u32::from(admitted > 0 && !throttled),
        };
        let s = &mut self.sources[source.0];
        if throttled {
            s.flow.observe_throttle();
        }
        if let Some(shedder) = s.shedder.as_mut() {
            let restore = shedder.on_accepted(calm);
            let degrade = if throttled {
                shedder.on_throttled()
            } else {
                ShedAction::None
            };
            self.apply_shed_action(source, restore)?;
            self.apply_shed_action(source, degrade)?;
        }
        let outcome = if throttled {
            PushOutcome::Throttled
        } else {
            PushOutcome::Accepted
        };
        Ok((admitted, outcome))
    }

    /// Grants ingress credits back to a source's gate (saturating at
    /// its capacity), returning how many were actually added. No-op
    /// (returning 0) for sources without a gate.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] for unknown sources.
    pub fn grant_credits(&mut self, source: SourceId, credits: u64) -> Result<u64, SolarError> {
        let s = self
            .sources
            .get_mut(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        Ok(s.gate.as_mut().map_or(0, |g| g.grant(credits)))
    }

    /// The source's `(available, capacity)` credit window, `None` when
    /// ingress is unbounded.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] for unknown sources.
    pub fn credit_window(&self, source: SourceId) -> Result<Option<(u64, u64)>, SolarError> {
        let s = self
            .sources
            .get(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        Ok(s.gate.as_ref().map(|g| (g.available(), g.capacity())))
    }

    /// The source's current degradation-ladder rung (0 = every
    /// subscription at its original quality; also 0 when no shedder is
    /// configured).
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] for unknown sources.
    pub fn shed_rung(&self, source: SourceId) -> Result<u8, SolarError> {
        let s = self
            .sources
            .get(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        Ok(s.shedder.as_ref().map_or(0, Shedder::rung))
    }

    /// The source's [`FlowMonitor`] — EWMA load accounting plus the
    /// lifetime throttle/shed/degrade/restore counters.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] for unknown sources.
    pub fn flow_monitor(&self, source: SourceId) -> Result<&FlowMonitor, SolarError> {
        self.sources
            .get(source.0)
            .map(|s| &s.flow)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))
    }

    /// The source's delivery-latency distribution, in microseconds: one
    /// sample per (emission, recipient) delivery, fixed footprint at any
    /// scale.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] for unknown sources.
    pub fn latency_histogram(&self, source: SourceId) -> Result<&Histogram, SolarError> {
        self.sources
            .get(source.0)
            .map(|s| &s.lat_hist)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))
    }

    /// Drives a [`SourceConnector`] through the bounded ingress until
    /// end-of-stream: the §4.8 escalation as a loop. Admitted rows flow
    /// through the ordinary pipeline; a `Throttled` answer first lets
    /// the configured [`GrantPolicy`] replenish the window, and only
    /// when the source's degradation ladder is exhausted *and* pressure
    /// persists is the blocked row dropped — counted in both the
    /// returned [`IngestReport`] and the [`FlowMonitor`].
    ///
    /// Every chunk — an ordered [`Chunk::Batch`] or row-form, possibly
    /// disordered [`Chunk::Rows`] — is offered as the rest of the chunk,
    /// with row-exact resumption after a partial admission: what the gate
    /// admits crosses the middleware as one run, never row by row.
    ///
    /// # Errors
    /// Connector failures (as [`SolarError::Core`]) and any pipeline
    /// error; [`SolarError::NotDeployed`] / [`SolarError::UnknownId`] /
    /// [`SolarError::NoSubscribers`] up front, before the connector is
    /// asked for anything.
    pub fn ingest(
        &mut self,
        source: SourceId,
        connector: &mut dyn SourceConnector,
        options: IngestOptions,
    ) -> Result<IngestReport, SolarError> {
        self.pipeline(source)?;
        let mut report = IngestReport::default();
        let max_rows = options.max_rows.max(1);
        while let Some(chunk) = connector.next_chunk(max_rows).map_err(SolarError::from)? {
            let total = chunk.rows();
            report.chunks += 1;
            report.rows += total as u64;
            let (batch, rows);
            let run = match chunk {
                Chunk::Batch(b) => {
                    batch = Arc::new(b);
                    Run::Batch(&batch)
                }
                Chunk::Rows(r) => {
                    rows = r;
                    Run::Rows(&rows)
                }
            };
            let mut row = 0;
            while row < total {
                let (n, outcome) = self.admit(source, run, row)?;
                row += n;
                report.accepted += n as u64;
                if outcome == PushOutcome::Throttled {
                    report.throttled += 1;
                    if self.ladder_exhausted(source) {
                        // §4.8's last resort: quality is already at every
                        // subscription's floor, so shed the blocked row —
                        // counted, never silent.
                        self.sources[source.0].flow.observe_shed_drop();
                        report.dropped += 1;
                        row += 1;
                    } else {
                        self.replenish(source, options.grant);
                    }
                }
            }
        }
        if options.finish {
            self.finish(source)?;
        }
        Ok(report)
    }

    /// Retunes every headroom-declaring live subscription of the source
    /// to the action's rung, through the same epoch-based
    /// `update_filter` path [`resubscribe`](Self::resubscribe) uses.
    /// Subscriptions whose ladder has no room between the previous and
    /// the new rung are skipped (no gratuitous filter restarts), and
    /// `AppEntry::spec` is never touched — it stays the rung-0 original
    /// so restoration is exact by construction.
    fn apply_shed_action(
        &mut self,
        source: SourceId,
        action: ShedAction,
    ) -> Result<(), SolarError> {
        let (rung, prev, degrade) = match action {
            ShedAction::None => return Ok(()),
            ShedAction::Degrade(r) => (r, r - 1, true),
            ShedAction::Restore(r) => (r, r + 1, false),
        };
        let subs = self.sources[source.0].subscribers.clone();
        // One sweep for every lookup: a per-subscription `locate` scan
        // here would make each ladder move O(roster²).
        let locations = self.locate_all(source);
        for a in subs {
            if !self.apps[a].active || self.apps[a].spec.shed_headroom().is_none() {
                continue;
            }
            let Some(next) = self.apps[a].spec.degraded(rung) else {
                continue;
            };
            if self.apps[a].spec.degraded(prev).as_ref() == Some(&next) {
                continue; // this ladder has no room between these rungs
            }
            let Some((part_idx, fid)) = locations[a] else {
                continue;
            };
            self.sources[source.0].parts[part_idx]
                .engine
                .update_filter(0, fid, next)?;
            if degrade {
                self.sources[source.0].flow.observe_degrade();
            } else {
                self.sources[source.0].flow.observe_restore();
            }
        }
        Ok(())
    }

    /// Whether the source's ladder is exhausted (top rung, still
    /// throttled) — the only state in which ingest may drop.
    fn ladder_exhausted(&self, source: SourceId) -> bool {
        self.sources[source.0]
            .shedder
            .as_ref()
            .is_some_and(Shedder::should_drop)
    }

    /// Replenishes a source's credit window per the grant policy.
    fn replenish(&mut self, source: SourceId, policy: GrantPolicy) {
        let decision = self.sources[source.0].flow.decision();
        let Some(gate) = self.sources[source.0].gate.as_mut() else {
            return;
        };
        match policy {
            GrantPolicy::Refill => gate.refill(),
            GrantPolicy::Adaptive => {
                let window = gate.capacity();
                let credits = match decision {
                    FlowDecision::Ok => window,
                    FlowDecision::Shed { drop_fraction } => {
                        ((window as f64) * (1.0 - drop_fraction)).floor() as u64
                    }
                    FlowDecision::DegradeQuality => 1,
                };
                // Always at least one credit: ingest makes progress (and
                // the ladder keeps climbing) even under the worst verdict.
                gate.grant(credits.max(1));
            }
        }
    }

    /// Runs a full trace through a source's pipeline and reports the
    /// outcome. Resets per-app statistics and traffic counters first, so
    /// reports from consecutive runs are independent.
    ///
    /// # Errors
    /// Propagates any `process`/`finish` error.
    pub fn run_trace<I: IntoIterator<Item = Tuple>>(
        &mut self,
        source: SourceId,
        tuples: I,
    ) -> Result<RunReport, SolarError> {
        if !self.deployed {
            return Err(SolarError::NotDeployed);
        }
        // reset stats
        self.overlay.reset_stats();
        for app in &mut self.apps {
            app.tuples = 0;
            app.e2e_latency_sum_us = 0;
        }
        for s in &mut self.sources {
            s.lat_hist = Histogram::default();
        }
        let mut pipeline = self.pipeline(source)?;
        pipeline.push_batch(tuples)?;
        pipeline.finish()?;
        self.report(source)
    }

    /// Assembles the [`RunReport`] for a source's most recent run:
    /// lifetime metrics folded over every part (and every engine retired
    /// by churn), plus per-subscription delivery statistics keyed by
    /// [`SubscriptionHandle`] — removed subscriptions stay listed with
    /// their counters frozen.
    ///
    /// # Errors
    /// [`SolarError::UnknownId`] / [`SolarError::NoSubscribers`].
    pub fn report(&self, source: SourceId) -> Result<RunReport, SolarError> {
        let s = self
            .sources
            .get(source.0)
            .ok_or_else(|| SolarError::UnknownId(source.to_string()))?;
        // Every engine has at least one filter slot, so a source that
        // never ran one has no per-filter counters at all.
        if s.parts.is_empty() && s.retired.per_filter.is_empty() {
            return Err(SolarError::NoSubscribers(s.name.clone()));
        }
        let engine = s.folded_metrics();
        let per_app = s
            .subscribers
            .iter()
            .map(|&a| {
                let app = &self.apps[a];
                let mean = Micros(app.e2e_latency_sum_us.checked_div(app.tuples).unwrap_or(0));
                AppReport {
                    handle: SubscriptionHandle(a),
                    name: app.name.clone(),
                    active: app.active,
                    tuples: app.tuples,
                    mean_e2e_latency: mean,
                }
            })
            .collect();
        Ok(RunReport {
            engine,
            network_bytes: self.overlay.total_bytes(),
            messages: self.overlay.messages(),
            per_app,
        })
    }

    // ------------------------------------------------------------------
    // fault tolerance: checkpoint / recover / node failure
    // ------------------------------------------------------------------

    /// Takes a full middleware checkpoint. Every part engine crosses its
    /// safe-point boundary — the boundary drain is disseminated through
    /// the normal multicast path and accounted to its subscriptions, so
    /// nothing decided is lost — and the returned
    /// [`MiddlewareSnapshot`] captures the engines, the subscription
    /// roster (with per-app delivery statistics), the [`FlowMonitor`]s
    /// and the multicast-tree memberships.
    ///
    /// Like the engine-level checkpoint, this perturbs the stream exactly
    /// like an empty control-op application: a deployment that
    /// checkpoints and keeps going is byte-identical to one that
    /// checkpoints, crashes, [`recover`](Self::recover)s and replays the
    /// suffix (pinned in `tests/tests/recovery_equivalence.rs`).
    ///
    /// # Errors
    /// Engine errors ([`gasf_core::Error::Finished`] for sources whose
    /// stream already ended), or network errors while disseminating the
    /// boundary drains.
    pub fn checkpoint(&mut self) -> Result<MiddlewareSnapshot, SolarError> {
        let mut sources = Vec::with_capacity(self.sources.len());
        for si in 0..self.sources.len() {
            let n_parts = self.sources[si].parts.len();
            let mut parts = Vec::with_capacity(n_parts);
            for p in 0..n_parts {
                let engine =
                    self.with_part_sink(None, si, p, |engine, sink| engine.checkpoint(sink))?;
                // The boundary has passed: stale tree members may leave
                // before the membership is captured.
                Pipeline::process_deferred_leaves(self, si, p)?;
                let part = &self.sources[si].parts[p];
                let members = self.overlay.group_members(part.group)?.to_vec();
                parts.push(PartState {
                    engine,
                    group_name: part.group_name.clone(),
                    members,
                    filter_apps: part.filter_apps.clone(),
                    deferred_leaves: part.deferred_leaves.clone(),
                });
            }
            let s = &self.sources[si];
            sources.push(SourceState {
                name: s.name.clone(),
                node: s.node,
                schema: s.schema.clone(),
                subscribers: s.subscribers.clone(),
                retired: s.retired.clone(),
                generation: s.generation,
                flow: s.flow.clone(),
                reorder: s.reorder.as_ref().map(ReorderBuffer::snapshot),
                lat_hist: s.lat_hist.clone(),
                shed_rung: s.shedder.as_ref().map_or(0, Shedder::rung),
                parts,
            });
        }
        Ok(MiddlewareSnapshot {
            config: self.config,
            deployed: self.deployed,
            sources,
            apps: self.apps.clone(),
        })
    }

    /// Rebuilds a middleware from a checkpoint on a fresh overlay — the
    /// full-process recovery path. Part engines restore at their snapshot
    /// boundaries, multicast trees are recreated with their captured
    /// memberships (identical shapes: creating a group with the full
    /// member list equals the original create-then-join history), and the
    /// subscription roster — including removed subscriptions and all
    /// per-app delivery statistics — continues under the **same stable
    /// [`SubscriptionHandle`]s**, so post-recovery reports extend
    /// pre-crash reports seamlessly. Overlay traffic counters start from
    /// zero (they belong to the dead process).
    ///
    /// The overlay must span the same topology (node ids are preserved).
    ///
    /// # Errors
    /// [`SolarError::UnknownNode`] when the overlay's topology is too
    /// small for a captured node, plus engine-restore and group-creation
    /// failures.
    pub fn recover(overlay: Overlay, snap: &MiddlewareSnapshot) -> Result<Middleware, SolarError> {
        for a in &snap.apps {
            if a.node.index() >= overlay.topology().len() {
                return Err(SolarError::UnknownNode(a.node));
            }
        }
        let mut mw = Middleware {
            overlay,
            config: snap.config,
            sources: Vec::with_capacity(snap.sources.len()),
            apps: snap.apps.clone(),
            deployed: snap.deployed,
            recipient_nodes: Vec::new(),
        };
        for s in &snap.sources {
            if s.node.index() >= mw.overlay.topology().len() {
                return Err(SolarError::UnknownNode(s.node));
            }
            let mut parts = Vec::with_capacity(s.parts.len());
            for p in &s.parts {
                let engine = ShardedEngine::restore(&p.engine)?;
                let group = mw.overlay.create_group(&p.group_name, &p.members)?;
                parts.push(PartEntry::new(
                    engine,
                    group,
                    p.group_name.clone(),
                    &p.filter_apps,
                    &mw.apps,
                    p.deferred_leaves.clone(),
                ));
            }
            mw.sources.push(SourceEntry {
                name: s.name.clone(),
                node: s.node,
                schema: s.schema.clone(),
                subscribers: s.subscribers.clone(),
                parts,
                retired: s.retired.clone(),
                generation: s.generation,
                flow: s.flow.clone(),
                reorder: s.reorder.as_ref().map(ReorderBuffer::restore),
                lat_hist: s.lat_hist.clone(),
                gate: snap.config.ingress_capacity.map(CreditGate::new),
                shedder: snap
                    .config
                    .shedding
                    .map(|cfg| Shedder::restore_at(cfg, s.shed_rung)),
            });
        }
        Ok(mw)
    }

    /// Fails an overlay node's process and lets the Scribe self-repair
    /// re-graft every multicast tree around it
    /// ([`Overlay::fail_node`]) — the chaos-drill entry point for
    /// interior forwarder nodes. Nodes hosting a registered source or a
    /// live subscription are refused: a dead subscriber must be
    /// [`unsubscribe`](Self::unsubscribe)d (and a dead source retired)
    /// explicitly, so delivery accounting stays truthful.
    ///
    /// # Errors
    /// [`SolarError::NodeInUse`] for source/subscriber nodes, plus the
    /// overlay's own failure errors.
    pub fn fail_node(&mut self, node: NodeId) -> Result<RepairReport, SolarError> {
        if self.sources.iter().any(|s| s.node == node)
            || self.apps.iter().any(|a| a.active && a.node == node)
        {
            return Err(SolarError::NodeInUse(node));
        }
        Ok(self.overlay.fail_node(node)?)
    }

    /// Revives a failed overlay node ([`Overlay::recover_node`]). Like a
    /// restarted Scribe node it holds no memberships; subscribers placed
    /// on it re-enter trees via [`subscribe`](Self::subscribe).
    ///
    /// # Errors
    /// [`SolarError::Net`] for unknown nodes.
    pub fn recover_node(&mut self, node: NodeId) -> Result<bool, SolarError> {
        Ok(self.overlay.recover_node(node)?)
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Builds one part (engine + multicast tree) hosting `app_idxs`, in
    /// subscription order (filter ids are dense `0..n` within the part).
    fn spawn_part(&mut self, source_idx: usize, app_idxs: &[usize]) -> Result<(), SolarError> {
        let s = &self.sources[source_idx];
        let mut builder = GroupEngine::builder(s.schema.clone())
            .algorithm(self.config.algorithm)
            .output_strategy(self.config.strategy);
        if let Some(c) = self.config.constraint {
            builder = builder.time_constraint(c);
        }
        for &a in app_idxs {
            builder = builder.filter(self.apps[a].spec.clone());
        }
        // One route: one worker above parallelism 1, none (the caller
        // thread filters) at or below it.
        let engine = ShardedEngine::builder()
            .parallelism(usize::from(self.config.parallelism > 1))
            .track_step_costs(true)
            .route(format!("src:{source_idx}:{}", s.name), builder)
            .build()?;
        let mut members: BTreeSet<NodeId> = app_idxs.iter().map(|&a| self.apps[a].node).collect();
        members.insert(s.node); // the source proxy is always a member
        let members: Vec<NodeId> = members.into_iter().collect();
        let name = format!(
            "src:{source_idx}:{}:g{}:p{}",
            s.name,
            s.generation,
            s.parts.len()
        );
        let group = self.overlay.create_group(&name, &members)?;
        let part = PartEntry::new(engine, group, name, app_idxs, &self.apps, Vec::new());
        self.sources[source_idx].parts.push(part);
        Ok(())
    }

    /// Attaches a freshly subscribed app to a live source: queue the
    /// filter on the first part's engine, join the multicast tree.
    fn attach_live(&mut self, source: SourceId, app_idx: usize) -> Result<(), SolarError> {
        if self.sources[source.0].parts.is_empty() {
            // First live subscriber of a source that deployed empty.
            return self.spawn_part(source.0, &[app_idx]);
        }
        let declared = self.apps[app_idx].spec.clone();
        // Joining a source mid-shed means joining at its current rung.
        let rung = self.sources[source.0]
            .shedder
            .as_ref()
            .map_or(0, Shedder::rung);
        let spec = declared.degraded(rung).unwrap_or(declared);
        let node = self.apps[app_idx].node;
        let part = &mut self.sources[source.0].parts[0];
        let id = part.engine.add_filter(0, spec)?;
        let slot = part.push_filter(app_idx, node);
        debug_assert_eq!(id, slot);
        let group = part.group;
        self.overlay.join_group(group, node)?;
        Ok(())
    }

    /// Finds the part and live filter id serving a subscription.
    fn locate(&self, source: SourceId, app_idx: usize) -> Option<(usize, FilterId)> {
        for (pi, part) in self.sources[source.0].parts.iter().enumerate() {
            if let Some(fi) = part.filter_apps.iter().position(|&a| a == app_idx) {
                return Some((pi, FilterId::from_index(fi)));
            }
        }
        None
    }

    /// Every subscription's location in one sweep: `table[app]` is what
    /// [`locate`](Self::locate) would return for that app (first part,
    /// first slot — stale vacated slots lose to earlier entries exactly
    /// as `position` would find them). Bulk paths that touch the whole
    /// roster (ladder moves, regroup) use this instead of per-app scans.
    fn locate_all(&self, source: SourceId) -> Vec<Option<(usize, FilterId)>> {
        let mut table = vec![None; self.apps.len()];
        for (pi, part) in self.sources[source.0].parts.iter().enumerate() {
            for (fi, &a) in part.filter_apps.iter().enumerate() {
                if table[a].is_none() {
                    table[a] = Some((pi, FilterId::from_index(fi)));
                }
            }
        }
        table
    }

    /// Drains a part's engine through the multicast path (in-flight
    /// candidate sets close, pending outputs are delivered), merges its
    /// lifetime metrics into the source's retired total, removes its
    /// multicast group from the overlay and drops the part. A part whose
    /// stream already finished has nothing in flight and is merged
    /// directly.
    ///
    /// Returns the part's lifetime metrics — the sample regrouping
    /// heuristics judge.
    fn retire_part(
        &mut self,
        source_idx: usize,
        part_idx: usize,
    ) -> Result<EngineMetrics, SolarError> {
        let drained = self.with_part_sink(None, source_idx, part_idx, |engine, sink| {
            match engine.finish_into(sink) {
                // already finished = already drained; nothing was in flight
                Ok(()) | Err(gasf_core::Error::Finished) => Ok(()),
                Err(e) => Err(e),
            }
        });
        let s = &mut self.sources[source_idx];
        let part = s.parts.remove(part_idx);
        let lifetime = part.engine.metrics();
        s.retired.merge(&lifetime);
        // The tree is dead — reclaim it so churn can't grow the overlay
        // without bound.
        let _ = self.overlay.remove_group(part.group);
        drained?;
        Ok(lifetime)
    }

    /// The one place a part's engine meets its sink: split-borrows the
    /// middleware into the part's engine and a [`Metered`]
    /// [`MulticastSink`] over `wire` (the overlay when `None`), runs
    /// `drive`, feeds the step costs it merged to the flow monitor, then
    /// re-raises what it produced — engine errors first, then the first
    /// network error the sink latched.
    fn with_part_sink<R>(
        &mut self,
        wire: Option<&mut (dyn Transport + '_)>,
        source_idx: usize,
        part_idx: usize,
        drive: impl FnOnce(
            &mut ShardedEngine,
            &mut Metered<'_, MulticastSink<'_>>,
        ) -> Result<R, gasf_core::Error>,
    ) -> Result<R, SolarError> {
        let transport: &mut dyn Transport = match wire {
            Some(w) => w,
            None => &mut self.overlay,
        };
        let s = &mut self.sources[source_idx];
        let part = &mut s.parts[part_idx];
        let sink = MulticastSink {
            transport,
            apps: &mut self.apps,
            filter_apps: &part.filter_apps,
            node_masks: &part.node_masks,
            group: part.group,
            src_node: s.node,
            lat_hist: &mut s.lat_hist,
            nodes: &mut self.recipient_nodes,
            error: None,
        };
        let mut sink = Metered::new(sink, &mut s.flow);
        let out = drive(&mut part.engine, &mut sink);
        for (arrival, cpu) in part.engine.drain_step_costs() {
            sink.monitor().observe(arrival, cpu);
        }
        let out = out?;
        match sink.inner_mut().error.take() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// Transport dissemination as an [`EmissionSink`]: every accepted
/// emission is sent through a [`Transport`] — by default the in-process
/// overlay (the emission's tuple-level multicast, pruned to its recipient
/// nodes), or a real wire when the pipeline was built with
/// [`Middleware::pipeline_over`] — and per-subscription delivery
/// statistics are updated in place.
///
/// Recipient nodes are resolved by whichever walk is shorter. The part
/// keeps one filter mask per node its filters live on: an emission with
/// at least as many labels as the part has nodes goes to the nodes whose
/// mask meets its labels, one block-AND each; one with fewer labels maps
/// each label to its app's node. Either way the nodes are distinct and
/// ascending, handed to [`Transport::send_to_nodes`], and the deliveries
/// are booked along the same walk. The masks, like the part's
/// append-only id → subscription table, keep vacated slots, so labels
/// drained at an epoch boundary still reach (and are accounted to) apps
/// that just unsubscribed.
///
/// Network failures cannot surface through [`accept`](EmissionSink::accept)
/// (the sink contract is infallible), so the sink latches the first error
/// and ignores later emissions; [`Pipeline`] re-raises it after every
/// engine step. Obtained via [`Middleware::pipeline`].
#[derive(Debug)]
pub struct MulticastSink<'a> {
    transport: &'a mut (dyn Transport + 'a),
    apps: &'a mut Vec<AppEntry>,
    filter_apps: &'a [usize],
    node_masks: &'a [(NodeId, FilterSet)],
    group: GroupId,
    src_node: NodeId,
    /// The source's delivery-latency histogram: one sample per
    /// (emission, recipient) delivery, same quantity the per-app means
    /// aggregate.
    lat_hist: &'a mut Histogram,
    /// The recipient nodes of the emission being sent.
    nodes: &'a mut Vec<NodeId>,
    error: Option<SolarError>,
}

impl MulticastSink<'_> {
    /// Resolves the emission's labels to their recipient nodes, ascending
    /// and distinct, into `nodes`, and returns whether it went label by
    /// label. The walk is the shorter one: an emission with fewer labels
    /// than the part has nodes maps each label to its app's node
    /// ([`resolve_nodes`](gasf_net::resolve_nodes)); any other takes one
    /// block-AND per node mask.
    fn resolve(&mut self, emission: &Emission) -> bool {
        let labels = &emission.recipients;
        let per_label = labels.len() < self.node_masks.len();
        if per_label {
            let (apps, filter_apps) = (&*self.apps, self.filter_apps);
            gasf_net::resolve_nodes(self.nodes, emission, |f| apps[filter_apps[f.index()]].node);
        } else {
            self.nodes.clear();
            self.nodes.extend(
                self.node_masks
                    .iter()
                    .filter(|(_, mask)| mask.intersects(labels))
                    .map(|&(node, _)| node),
            );
        }
        per_label
    }
}

impl EmissionSink for MulticastSink<'_> {
    fn accept(&mut self, emission: &Emission) {
        if self.error.is_some() {
            return;
        }
        let per_label = self.resolve(emission);
        let filter_apps = self.filter_apps;
        let apps = &*self.apps;
        let sent = self.transport.send_to_nodes(
            self.group,
            self.src_node,
            emission,
            self.nodes,
            &mut |f| apps[filter_apps[f.index()]].node,
        );
        let delivery = match sent {
            Ok(d) => d,
            Err(e) => {
                self.error = Some(e.into());
                return;
            }
        };
        // A node the delivery does not list reads zero.
        let e2e = |node: &NodeId| {
            emission.latency() + delivery.latencies.get(node).copied().unwrap_or_default()
        };
        let labels = &emission.recipients;
        if per_label {
            for f in labels.iter() {
                let entry = &mut self.apps[filter_apps[f.index()]];
                let e2e = e2e(&entry.node);
                entry.book(e2e);
                self.lat_hist.record(e2e.as_micros());
            }
            return;
        }
        let mut sent_to = self.nodes.iter().peekable();
        for (node, mask) in self.node_masks {
            if sent_to.next_if_eq(&node).is_none() {
                continue;
            }
            let e2e = e2e(node);
            let mut n = 0;
            for f in labels.intersection(mask) {
                self.apps[filter_apps[f.index()]].book(e2e);
                n += 1;
            }
            self.lat_hist.record_n(e2e.as_micros(), n);
        }
    }

    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.transport.flush() {
            self.error = Some(e.into());
        }
    }
}

/// A wired dataflow for one source: engine(s) → [`Metered`] flow
/// accounting → [`MulticastSink`] dissemination (Fig. 4.1 as an API).
///
/// Borrow one from [`Middleware::pipeline`], feed it with
/// [`push`](Pipeline::push)/[`push_batch`](Pipeline::push_batch), and end
/// the stream with [`finish`](Pipeline::finish). Dropping the pipeline
/// without finishing leaves the source open for a later pipeline — which
/// is also how live subscription churn interleaves with streaming: drop
/// (or simply don't hold) the pipeline, call
/// `subscribe`/`unsubscribe`/`resubscribe`/`regroup`, and keep pushing.
///
/// Each part's engine is a single-route [`ShardedEngine`]. At
/// [`MiddlewareConfig::parallelism`] ≤ 1 it has no worker thread: a push
/// filters on the caller thread and multicasts everything it released
/// before returning. Above one, filtering runs on worker threads and this
/// pipeline's caller thread only merges emissions and disseminates them —
/// emissions released by a push may be multicast up to three pushes
/// later (two runs stay in flight per worker), with
/// [`finish`](Pipeline::finish) always draining everything. Every push
/// is then one hand-off to each part's worker, so hand over what you
/// have: [`push_columnar`](Pipeline::push_columnar) or
/// [`push_batch`](Pipeline::push_batch) rather than a loop of
/// [`push`](Pipeline::push).
///
/// An error raised inside a part's engine while it filters (such as
/// [`MissingValue`](gasf_core::Error::MissingValue)) poisons that engine
/// at every parallelism: later pushes, checkpoints and the finish return
/// the same error. Ordering and width violations are rejected before the
/// engine moves and leave it usable.
#[derive(Debug)]
pub struct Pipeline<'m> {
    mw: &'m mut Middleware,
    source: usize,
    /// External data-plane transport ([`Middleware::pipeline_over`]);
    /// `None` drains through the middleware's own overlay.
    wire: Option<&'m mut (dyn Transport + 'm)>,
}

impl Pipeline<'_> {
    /// Pushes one tuple through every part of the source — a run of one
    /// row through the same front end and columnar engine entry a batch
    /// takes; released emissions are multicast as they stream out of the
    /// release paths.
    ///
    /// With an event-time front end
    /// ([`MiddlewareConfig::event_time`]) the tuple first enters the
    /// source's [`ReorderBuffer`]: it may arrive out of event order
    /// (within the bound), and only the prefix the watermark has passed
    /// flows on to the engines — in event order, re-sequenced densely, so
    /// everything downstream runs exactly as on the ordered path. Tuples
    /// later than the bound never reach an engine; they are dropped (and
    /// counted) or turned into patch emissions per the [`LatePolicy`](gasf_core::event_time::LatePolicy).
    ///
    /// # Errors
    /// Engine errors first (ordering violations, finished streams), then
    /// any network error raised while disseminating this step's emissions.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), SolarError> {
        self.push_rows(Cow::Owned(vec![tuple]))
    }

    /// Feeds a run of row-form arrivals: through the event-time front end
    /// when the source has one, straight to the parts otherwise.
    fn push_rows(&mut self, rows: Cow<'_, [Tuple]>) -> Result<(), SolarError> {
        if self.mw.sources[self.source].reorder.is_some() {
            self.reorder_run(rows.into_owned())
        } else {
            self.feed_rows(&rows)
        }
    }

    /// The event-time front end: drives the source's [`ReorderBuffer`]
    /// with a run of arrivals and feeds what the watermark releases to
    /// the parts as one ordered run. A late arrival is settled where it
    /// arrives: a drop is counted; a patch — stamped at the watermark
    /// frontier, so its latency is exactly how late the tuple was — goes
    /// out after what earlier arrivals released, as it would arriving
    /// alone.
    fn reorder_run(&mut self, arrivals: Vec<Tuple>) -> Result<(), SolarError> {
        let mut buf = self.mw.sources[self.source]
            .reorder
            .take()
            .expect("callers check for a front end");
        let mut released = Vec::new();
        let feed = || {
            for arrival in arrivals {
                match buf.push_into(arrival, &mut released) {
                    None => {}
                    Some(LateOutcome::Dropped) => {
                        self.mw.sources[self.source].flow.observe_late_drop();
                    }
                    Some(LateOutcome::Patch(late)) => {
                        self.feed_rows(&released)?;
                        released.clear();
                        let emitted_at = buf
                            .watermark()
                            .max_seen()
                            .unwrap_or_else(|| late.tuple.timestamp());
                        self.patch_all_parts(late, emitted_at)?;
                    }
                }
            }
            self.feed_rows(&released)
        };
        let result = feed();
        self.mw.sources[self.source].reorder = Some(buf);
        result
    }

    /// Packs an ordered run of rows — at most [`MAX_RUN_ROWS`] per
    /// dispatch unit — and feeds it to every part. Packing validates a
    /// whole run before any row is processed; the per-row cut is kept by
    /// feeding the longest prefix that packs and going round again, so a
    /// row that does not extend the stream heads its own run and the
    /// engine rejects it as it would a single-row push — after the rows
    /// before it were processed.
    fn feed_rows(&mut self, mut rows: &[Tuple]) -> Result<(), SolarError> {
        while !rows.is_empty() {
            let unit = &rows[..rows.len().min(MAX_RUN_ROWS)];
            let (batch, rejected) =
                TupleBatch::pack_prefix(&self.mw.sources[self.source].schema, unit);
            if batch.is_empty() {
                // only a row of the wrong width leaves nothing to feed
                return Err(rejected.expect("an empty prefix names its row").into());
            }
            rows = &rows[batch.rows()..];
            self.feed_parts(&Arc::new(batch))?;
        }
        Ok(())
    }

    /// Fans one stream-ordered columnar run out to every part of the
    /// source; every part shares the same `Arc`. A push that leaves
    /// nothing in flight has delivered every boundary drain its engine
    /// crossed (queued ops apply, and their drain goes out, at the run's
    /// head — a run is never split by a safe point), so stale tree
    /// members can safely leave.
    fn feed_parts(&mut self, batch: &Arc<TupleBatch>) -> Result<(), SolarError> {
        let source = self.source;
        for p in 0..self.mw.sources[source].parts.len() {
            self.mw
                .with_part_sink(self.wire.as_deref_mut(), source, p, |engine, sink| {
                    engine.push_batch_columnar(batch, sink)
                })?;
            if self.mw.sources[source].parts[p].engine.in_flight() == 0 {
                Self::process_deferred_leaves(self.mw, source, p)?;
            }
        }
        Ok(())
    }

    /// Disseminates one patch emission through every part's multicast
    /// sink ([`EmissionSink::accept_patch`]), addressed to the part's
    /// currently active subscriptions. The engines are bypassed: the
    /// ordered stream (and all state built from it) never sees the late
    /// tuple.
    fn patch_all_parts(&mut self, late: LateTuple, emitted_at: Micros) -> Result<(), SolarError> {
        let payload = Arc::new(late.tuple);
        let n_parts = self.mw.sources[self.source].parts.len();
        for p in 0..n_parts {
            let mut recipients = FilterSet::new();
            for (i, &a) in self.mw.sources[self.source].parts[p]
                .filter_apps
                .iter()
                .enumerate()
            {
                if self.mw.apps[a].active {
                    recipients.insert(FilterId::from_index(i));
                }
            }
            if recipients.is_empty() {
                continue;
            }
            let emission = Emission {
                tuple: Arc::clone(&payload),
                recipients,
                emitted_at,
            };
            self.mw
                .with_part_sink(self.wire.as_deref_mut(), self.source, p, |_, sink| {
                    sink.accept_patch(&emission);
                    Ok(())
                })?;
        }
        Ok(())
    }

    /// Executes a part's deferred overlay leaves: nodes with no remaining
    /// active subscription in the part are pruned from its tree. Until
    /// this runs a stale member costs nothing — the tuple-level multicast
    /// prunes every send to its recipient subset.
    fn process_deferred_leaves(
        mw: &mut Middleware,
        source: usize,
        p: usize,
    ) -> Result<(), SolarError> {
        if mw.sources[source].parts[p].deferred_leaves.is_empty() {
            return Ok(());
        }
        let src_node = mw.sources[source].node;
        let leaves = std::mem::take(&mut mw.sources[source].parts[p].deferred_leaves);
        for node in leaves {
            if node == src_node {
                continue;
            }
            let part = &mw.sources[source].parts[p];
            let still_needed = part
                .filter_apps
                .iter()
                .any(|&a| mw.apps[a].active && mw.apps[a].node == node);
            if still_needed {
                continue;
            }
            match mw.overlay.leave_group(part.group, node) {
                Ok(()) | Err(gasf_net::multicast::NetError::NotAMember(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Pushes a stream of tuples, stopping at the first failure. The
    /// iterator is drawn 1 024 rows at a time and each draw
    /// crosses the middleware as one run.
    ///
    /// # Errors
    /// Same as [`push`](Self::push).
    pub fn push_batch(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), SolarError> {
        let mut tuples = tuples.into_iter();
        loop {
            let run: Vec<Tuple> = tuples.by_ref().take(MAX_RUN_ROWS).collect();
            if run.is_empty() {
                return Ok(());
            }
            self.push_rows(Cow::Owned(run))?;
        }
    }

    /// Pushes one columnar [`TupleBatch`] through every part of the
    /// source — the batch-native data path. Every part shares the same
    /// `Arc` (no per-part copy of the columns), each engine consumes it
    /// through its columnar hot path, and the flow monitor observes the
    /// batch as per-row samples with the batch cost amortised across
    /// them, so flow decisions stay comparable to per-tuple feeding.
    ///
    /// Emission bytes on the wire are identical to
    /// [`push`](Self::push)ing the rows one at a time.
    ///
    /// With an event-time front end the batch's rows pass through the
    /// source's [`ReorderBuffer`] first (batches may arrive disordered
    /// within the bound); whatever the watermark releases is re-packed
    /// into a fresh ordered batch and fed to the engines' columnar path.
    ///
    /// # Errors
    /// Same as [`push`](Self::push).
    pub fn push_columnar(&mut self, batch: &Arc<TupleBatch>) -> Result<(), SolarError> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.mw.sources[self.source].reorder.is_some() {
            self.reorder_run(batch.materialize())
        } else {
            self.feed_parts(batch)
        }
    }

    /// Ends the stream on every part, disseminating the tails. An
    /// event-time front end is flushed first: everything still buffered
    /// is released in event order, as one run (end-of-stream is the final
    /// watermark).
    ///
    /// # Errors
    /// Same as [`push`](Self::push).
    pub fn finish(mut self) -> Result<(), SolarError> {
        if let Some(buf) = self.mw.sources[self.source].reorder.as_mut() {
            let mut released = Vec::new();
            buf.flush_into(&mut released);
            self.feed_rows(&released)?;
        }
        let source = self.source;
        let n_parts = self.mw.sources[source].parts.len();
        for p in 0..n_parts {
            self.mw
                .with_part_sink(self.wire.as_deref_mut(), source, p, |engine, sink| {
                    engine.finish_into(sink)
                })?;
            Self::process_deferred_leaves(self.mw, source, p)?;
        }
        Ok(())
    }

    /// Metrics of the engines this pipeline feeds: lifetime metrics
    /// folded over every part and every engine retired by churn. Live at
    /// parallelism ≤ 1; with worker threads a live part reports only its
    /// input count until it finishes (see [`ShardedEngine::metrics`]).
    pub fn metrics(&self) -> EngineMetrics {
        self.mw.sources[self.source].folded_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasf_core::tuple::TupleBuilder;
    use gasf_net::Topology;

    fn stream(schema: &Schema, n: usize) -> Vec<Tuple> {
        let mut b = TupleBuilder::new(schema);
        (0..n)
            .map(|i| {
                let v = (i as f64 * 0.7).sin() * 10.0 + i as f64 * 0.05;
                b.at_millis(10 * (i as u64 + 1))
                    .set("t", v)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn setup(config: MiddlewareConfig) -> (Middleware, SourceId, Schema) {
        let overlay = Overlay::new(Topology::ring(7).build());
        let mut mw = Middleware::with_config(overlay, config);
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        let _ = mw
            .subscribe("a1", NodeId(2), src, FilterSpec::delta("t", 2.0, 0.9))
            .unwrap();
        let _ = mw
            .subscribe("a2", NodeId(4), src, FilterSpec::delta("t", 3.0, 1.4))
            .unwrap();
        let _ = mw
            .subscribe("a3", NodeId(6), src, FilterSpec::delta("t", 2.5, 1.2))
            .unwrap();
        mw.deploy().unwrap();
        (mw, src, schema)
    }

    #[test]
    fn end_to_end_delivery() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let report = mw.run_trace(src, stream(&schema, 300)).unwrap();
        assert_eq!(report.engine.input_tuples, 300);
        assert!(report.engine.output_tuples > 0);
        assert!(report.network_bytes > 0);
        assert_eq!(report.per_app.len(), 3);
        for app in &report.per_app {
            assert!(app.tuples > 0, "{} received nothing", app.name);
            assert!(app.mean_e2e_latency > Micros::ZERO);
            assert!(app.active);
        }
        // network latency beyond filtering latency
        assert!(report.mean_e2e_latency() > report.engine.mean_latency());
    }

    #[test]
    fn group_aware_uses_less_bandwidth_than_si() {
        let ga = {
            let (mut mw, src, schema) = setup(MiddlewareConfig::default());
            mw.run_trace(src, stream(&schema, 500)).unwrap()
        };
        let si = {
            let (mut mw, src, schema) = setup(MiddlewareConfig {
                algorithm: Algorithm::SelfInterested,
                ..Default::default()
            });
            mw.run_trace(src, stream(&schema, 500)).unwrap()
        };
        assert!(
            ga.engine.output_tuples <= si.engine.output_tuples,
            "group-aware {} vs SI {}",
            ga.engine.output_tuples,
            si.engine.output_tuples
        );
        assert!(
            ga.network_bytes <= si.network_bytes,
            "group-aware bytes {} vs SI {}",
            ga.network_bytes,
            si.network_bytes
        );
    }

    #[test]
    fn requires_deploy() {
        let overlay = Overlay::new(Topology::ring(3).build());
        let mut mw = Middleware::new(overlay);
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        let _ = mw
            .subscribe("a", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
            .unwrap();
        let mut b = TupleBuilder::new(&schema);
        let t = b.at_millis(10).set("t", 0.0).build().unwrap();
        assert!(matches!(
            mw.pipeline(src).map(|mut p| p.push(t)),
            Err(SolarError::NotDeployed)
        ));
    }

    #[test]
    fn live_subscribe_joins_mid_stream() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let tuples = stream(&schema, 200);
        mw.push_batch(src, tuples[..100].to_vec()).unwrap();
        // a fourth app joins while the stream is live — no redeploy
        let late = mw
            .subscribe("late", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
            .unwrap();
        mw.push_batch(src, tuples[100..].to_vec()).unwrap();
        mw.finish(src).unwrap();
        let report = mw.report(src).unwrap();
        assert_eq!(report.per_app.len(), 4);
        let late_report = report.per_app.iter().find(|a| a.handle == late).unwrap();
        assert!(late_report.active);
        assert!(
            late_report.tuples > 0,
            "late joiner must receive post-join traffic"
        );
        assert_eq!(mw.subscriptions(src).unwrap().len(), 4);
    }

    #[test]
    fn unsubscribe_freezes_stats_and_prunes_the_tree() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let handle = mw.subscriptions(src).unwrap()[1];
        let tuples = stream(&schema, 300);
        mw.push_batch(src, tuples[..150].to_vec()).unwrap();
        mw.unsubscribe(handle).unwrap();
        assert!(matches!(
            mw.unsubscribe(handle),
            Err(SolarError::NotSubscribed(_))
        ));
        let frozen_at_boundary = {
            // one more push crosses the boundary and delivers the drain
            mw.push_batch(src, tuples[150..151].to_vec()).unwrap();
            mw.report(src).unwrap()
        };
        let frozen = frozen_at_boundary
            .per_app
            .iter()
            .find(|a| a.handle == handle)
            .unwrap()
            .tuples;
        assert!(frozen > 0, "pre-churn deliveries kept");
        mw.push_batch(src, tuples[151..].to_vec()).unwrap();
        mw.finish(src).unwrap();
        let report = mw.report(src).unwrap();
        let entry = report.per_app.iter().find(|a| a.handle == handle).unwrap();
        assert!(!entry.active);
        assert_eq!(entry.tuples, frozen, "stats frozen after removal");
        assert_eq!(mw.subscriptions(src).unwrap().len(), 2);
        // the app's node left the multicast tree once the boundary passed
        let group = mw.sources[src.0].parts[0].group;
        assert!(!mw
            .overlay
            .group_members(group)
            .unwrap()
            .contains(&NodeId(4)));
        // the others kept receiving
        for other in report.per_app.iter().filter(|a| a.handle != handle) {
            assert!(other.tuples > frozen / 2);
        }
    }

    #[test]
    fn resubscribe_retunes_in_place() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let handle = mw.subscriptions(src).unwrap()[0];
        let tuples = stream(&schema, 200);
        mw.push_batch(src, tuples[..100].to_vec()).unwrap();
        // retune to a much looser delta: fewer reference points
        mw.resubscribe(handle, FilterSpec::delta("t", 8.0, 3.0))
            .unwrap();
        mw.push_batch(src, tuples[100..].to_vec()).unwrap();
        // the engine crossed exactly one epoch boundary before the
        // checkpoint crosses its own
        let snap = mw.checkpoint().unwrap();
        assert_eq!(
            snap.sources[0].parts[0].engine.route_snapshots()[0].epoch(),
            2
        );
        mw.finish(src).unwrap();
        let report = mw.report(src).unwrap();
        assert_eq!(report.per_app.len(), 3);
        assert!(report.per_app.iter().all(|a| a.active));
    }

    #[test]
    fn regroup_isolates_and_migrates_live() {
        let overlay = Overlay::new(Topology::ring(7).build());
        let mut mw = Middleware::new(overlay);
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        // two modest apps and one greedy one (tiny delta = dense refs)
        let _ = mw
            .subscribe("calm1", NodeId(2), src, FilterSpec::delta("t", 6.0, 2.5))
            .unwrap();
        let _ = mw
            .subscribe("calm2", NodeId(4), src, FilterSpec::delta("t", 5.0, 2.0))
            .unwrap();
        let greedy = mw
            .subscribe("greedy", NodeId(6), src, FilterSpec::delta("t", 0.05, 0.02))
            .unwrap();
        mw.deploy().unwrap();
        let tuples = stream(&schema, 400);
        mw.push_batch(src, tuples[..200].to_vec()).unwrap();
        let parts = mw
            .regroup(src, GroupingStrategy::BySelectivity { isolate_above: 0.5 })
            .unwrap();
        assert_eq!(parts.len(), 2, "greedy consumer isolated: {parts:?}");
        assert!(parts.iter().any(|p| p == &vec![greedy]));
        assert_eq!(mw.sources[src.0].parts.len(), 2);
        // the stream continues through the new engines
        mw.push_batch(src, tuples[200..].to_vec()).unwrap();
        mw.finish(src).unwrap();
        let report = mw.report(src).unwrap();
        // every engine generation is accounted: the retired engine (its
        // three filters, the first 200 tuples) plus both live parts (the
        // other 200, once each) cover the whole stream.
        let retired = &mw.sources[src.0].retired;
        assert_eq!((retired.per_filter.len(), retired.input_tuples), (3, 200));
        assert_eq!(report.engine.input_tuples, 200 + 2 * 200);
        for app in &report.per_app {
            assert!(app.tuples > 0, "{} starved across the migration", app.name);
        }
    }

    #[test]
    fn regroup_isolates_on_the_sharded_path_too() {
        // Selectivity rates come from the drained engines' metrics, which
        // on the sharded path only materialise at finish — the regroup
        // drain must surface them.
        let overlay = Overlay::new(Topology::ring(7).build());
        let mut mw = Middleware::with_config(
            overlay,
            MiddlewareConfig {
                parallelism: 2,
                ..Default::default()
            },
        );
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        let _ = mw
            .subscribe("calm", NodeId(2), src, FilterSpec::delta("t", 6.0, 2.5))
            .unwrap();
        let greedy = mw
            .subscribe("greedy", NodeId(6), src, FilterSpec::delta("t", 0.05, 0.02))
            .unwrap();
        mw.deploy().unwrap();
        let tuples = stream(&schema, 300);
        mw.push_batch(src, tuples[..150].to_vec()).unwrap();
        let parts = mw
            .regroup(src, GroupingStrategy::BySelectivity { isolate_above: 0.5 })
            .unwrap();
        assert!(
            parts.iter().any(|p| p == &vec![greedy]),
            "sharded regroup must still isolate: {parts:?}"
        );
        mw.push_batch(src, tuples[150..].to_vec()).unwrap();
        mw.finish(src).unwrap();
        let report = mw.report(src).unwrap();
        assert!(report.per_app.iter().all(|a| a.tuples > 0));
    }

    /// Selectivity rates are lifetime rates at every parallelism: a
    /// subscriber that was greedy before a resubscribe still counts as
    /// greedy, so the regroup — and every byte after it — is the same
    /// with or without worker threads.
    #[test]
    fn regroup_partitions_alike_at_every_parallelism() {
        let run = |parallelism: usize| {
            let overlay = Overlay::new(Topology::ring(7).build());
            let config = MiddlewareConfig {
                parallelism,
                ..Default::default()
            };
            let mut mw = Middleware::with_config(overlay, config);
            let schema = Schema::new(["t"]);
            let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
            let calm = |delta: f64, slack: f64| FilterSpec::delta("t", delta, slack);
            let _ = mw
                .subscribe("calm1", NodeId(2), src, calm(6.0, 2.5))
                .unwrap();
            let _ = mw
                .subscribe("calm2", NodeId(4), src, calm(5.0, 2.0))
                .unwrap();
            let greedy = mw
                .subscribe("greedy", NodeId(6), src, calm(0.05, 0.02))
                .unwrap();
            mw.deploy().unwrap();
            let tuples = stream(&schema, 600);
            mw.push_batch(src, tuples[..200].to_vec()).unwrap();
            mw.resubscribe(greedy, calm(6.0, 2.5)).unwrap();
            mw.push_batch(src, tuples[200..300].to_vec()).unwrap();
            let parts = mw
                .regroup(src, GroupingStrategy::BySelectivity { isolate_above: 0.5 })
                .unwrap();
            mw.push_batch(src, tuples[300..].to_vec()).unwrap();
            mw.finish(src).unwrap();
            let report = mw.report(src).unwrap();
            (parts, report.per_app, report.network_bytes)
        };
        let (parts, per_app, bytes) = run(1);
        for parallelism in [2, 4] {
            let (p, a, b) = run(parallelism);
            assert_eq!(p, parts, "partition at parallelism {parallelism}");
            assert_eq!(a, per_app, "per_app at parallelism {parallelism}");
            assert_eq!(b, bytes, "network_bytes at parallelism {parallelism}");
        }
    }

    #[test]
    fn retired_trees_are_reclaimed_from_the_overlay() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        mw.push_batch(src, stream(&schema, 100)).unwrap();
        let old_group = mw.sources[src.0].parts[0].group;
        mw.regroup(src, GroupingStrategy::MaxSize(1)).unwrap();
        assert!(
            mw.overlay.group_members(old_group).is_err(),
            "retired tree must be removed from the overlay"
        );
        assert_eq!(mw.sources[src.0].parts.len(), 3);
        mw.push_batch(src, stream(&schema, 150)[100..].to_vec())
            .unwrap();
        mw.finish(src).unwrap();
    }

    #[test]
    fn regroup_requires_deploy_and_subscribers() {
        let overlay = Overlay::new(Topology::ring(3).build());
        let mut mw = Middleware::new(overlay);
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        assert!(matches!(
            mw.regroup(src, GroupingStrategy::Single),
            Err(SolarError::NotDeployed)
        ));
        mw.deploy().unwrap();
        assert!(matches!(
            mw.regroup(src, GroupingStrategy::Single),
            Err(SolarError::NoSubscribers(_))
        ));
    }

    #[test]
    fn unsubscribing_last_app_retires_the_part() {
        let overlay = Overlay::new(Topology::ring(3).build());
        let mut mw = Middleware::new(overlay);
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        let only = mw
            .subscribe("only", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
            .unwrap();
        mw.deploy().unwrap();
        mw.push_batch(src, stream(&schema, 50)).unwrap();
        mw.unsubscribe(only).unwrap();
        assert!(mw.sources[src.0].parts.is_empty());
        // the drained deliveries are still accounted to the handle
        let report = mw.report(src).unwrap();
        assert!(report.per_app[0].tuples > 0);
        assert!(!report.per_app[0].active);
        // and the source can come back to life
        let again = mw
            .subscribe("again", NodeId(2), src, FilterSpec::delta("t", 1.0, 0.4))
            .unwrap();
        let more: Vec<Tuple> = stream(&schema, 80)[50..].to_vec();
        mw.push_batch(src, more).unwrap();
        mw.finish(src).unwrap();
        let report = mw.report(src).unwrap();
        let entry = report.per_app.iter().find(|a| a.handle == again).unwrap();
        assert!(entry.tuples > 0);
    }

    #[test]
    fn duplicate_source_and_bad_nodes_rejected() {
        let overlay = Overlay::new(Topology::ring(3).build());
        let mut mw = Middleware::new(overlay);
        let schema = Schema::new(["t"]);
        mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        assert!(matches!(
            mw.register_source("s", NodeId(1), schema.clone()),
            Err(SolarError::DuplicateSource(_))
        ));
        assert!(matches!(
            mw.register_source("s2", NodeId(9), schema.clone()),
            Err(SolarError::UnknownNode(_))
        ));
        let src = SourceId(0);
        assert!(matches!(
            mw.subscribe("a", NodeId(9), src, FilterSpec::delta("t", 1.0, 0.4)),
            Err(SolarError::UnknownNode(_))
        ));
        assert!(matches!(
            mw.subscribe(
                "a",
                NodeId(0),
                SourceId(5),
                FilterSpec::delta("t", 1.0, 0.4)
            ),
            Err(SolarError::UnknownId(_))
        ));
        assert!(matches!(
            mw.unsubscribe(SubscriptionHandle(9)),
            Err(SolarError::UnknownId(_))
        ));
        assert!(matches!(
            mw.resubscribe(SubscriptionHandle(9), FilterSpec::delta("t", 1.0, 0.4)),
            Err(SolarError::UnknownId(_))
        ));
    }

    #[test]
    fn operator_graph_reflects_live_subscriptions() {
        let (mut mw, src, _) = setup(MiddlewareConfig::default());
        let g = mw.operator_graph();
        let sites = g.group_filter_sites();
        assert_eq!(sites.len(), 1, "one source serving three specs");
        assert_eq!(sites[0].1.len(), 3);
        let handle = mw.subscriptions(src).unwrap()[0];
        mw.unsubscribe(handle).unwrap();
        let g = mw.operator_graph();
        assert_eq!(g.group_filter_sites()[0].1.len(), 2);
    }

    #[test]
    fn consecutive_runs_reset_counters() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let r1 = mw.run_trace(src, stream(&schema, 100)).unwrap();
        // engine is finished after run 1; redeploy for run 2
        mw.deploy().unwrap();
        let r2 = mw.run_trace(src, stream(&schema, 100)).unwrap();
        assert_eq!(r1.per_app[0].tuples, r2.per_app[0].tuples);
        assert_eq!(r1.network_bytes, r2.network_bytes);
    }

    #[test]
    fn explicit_pipeline_matches_run_trace() {
        // Driving the pipeline by hand must be exactly the run_trace path.
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let via_run_trace = mw.run_trace(src, stream(&schema, 200)).unwrap();

        let (mut mw2, src2, schema2) = setup(MiddlewareConfig::default());
        {
            let mut p = mw2.pipeline(src2).unwrap();
            for t in stream(&schema2, 200) {
                p.push(t).unwrap();
            }
            assert!(p.metrics().input_tuples == 200);
            p.finish().unwrap();
        }
        let report = mw2.report(src2).unwrap();
        assert_eq!(via_run_trace.network_bytes, report.network_bytes);
        assert_eq!(via_run_trace.messages, report.messages);
        assert_eq!(via_run_trace.per_app, report.per_app);
        assert_eq!(
            via_run_trace.engine.output_tuples,
            report.engine.output_tuples
        );
    }

    #[test]
    fn push_batch_feeds_whole_slice() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        mw.push_batch(src, stream(&schema, 150)).unwrap();
        mw.finish(src).unwrap();
        let report = mw.report(src).unwrap();
        assert_eq!(report.engine.input_tuples, 150);
        assert!(report.per_app.iter().all(|a| a.tuples > 0));
    }

    #[test]
    fn pipeline_requires_deploy_and_known_source() {
        let overlay = Overlay::new(Topology::ring(3).build());
        let mut mw = Middleware::new(overlay);
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        let _ = mw
            .subscribe("a", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
            .unwrap();
        assert!(matches!(mw.pipeline(src), Err(SolarError::NotDeployed)));
        mw.deploy().unwrap();
        assert!(matches!(
            mw.pipeline(SourceId(7)),
            Err(SolarError::UnknownId(_))
        ));
        assert!(mw.pipeline(src).is_ok());
    }

    #[test]
    fn a_source_with_no_live_part_keeps_its_credits() {
        // Both ways a deployed source ends up without a part: its last
        // subscriber left, or it deployed empty.
        let config = MiddlewareConfig {
            ingress_capacity: Some(2),
            shedding: Some(ShedConfig::default()),
            ..Default::default()
        };
        let (mut left, src, schema) = setup(config);
        for handle in left.subscriptions(src).unwrap() {
            left.unsubscribe(handle).unwrap();
        }
        let mut empty = Middleware::with_config(Overlay::new(Topology::ring(3).build()), config);
        let empty_src = empty
            .register_source("s", NodeId(0), schema.clone())
            .unwrap();
        empty.deploy().unwrap();

        let tuples = stream(&schema, 4);
        let batch = Arc::new(TupleBatch::from_tuples(&schema, &tuples).unwrap());
        for (mw, src) in [(&mut left, src), (&mut empty, empty_src)] {
            // capacity + 2 pushes: a leak would turn the third into a
            // `Throttled` that feeds the shedder
            for t in &tuples {
                assert!(matches!(
                    mw.try_push(src, t),
                    Err(SolarError::NoSubscribers(_))
                ));
            }
            assert!(matches!(
                mw.try_push_columnar(src, &batch, 0),
                Err(SolarError::NoSubscribers(_))
            ));
            assert_eq!(mw.credit_window(src).unwrap(), Some((2, 2)));
            assert_eq!(mw.flow_monitor(src).unwrap().throttled(), 0);
        }
    }

    #[test]
    fn flow_monitor_sees_emissions_via_metered_sink() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let report = mw.run_trace(src, stream(&schema, 200)).unwrap();
        let s = &mw.sources[src.0];
        assert_eq!(s.flow.emitted(), report.engine.emissions);
        assert_eq!(s.flow.emitted_labels(), report.engine.recipient_labels);
        assert_eq!(s.flow.samples(), 200);
    }

    #[test]
    fn sharded_pipeline_is_byte_identical_to_inline() {
        // Deliveries, byte counts and per-app stats must not change when
        // the engine moves onto a worker thread — only who runs it does.
        let inline = {
            let (mut mw, src, schema) = setup(MiddlewareConfig::default());
            mw.run_trace(src, stream(&schema, 400)).unwrap()
        };
        let sharded = {
            let (mut mw, src, schema) = setup(MiddlewareConfig {
                parallelism: 2,
                ..Default::default()
            });
            mw.run_trace(src, stream(&schema, 400)).unwrap()
        };
        assert_eq!(sharded.per_app, inline.per_app);
        assert_eq!(sharded.network_bytes, inline.network_bytes);
        assert_eq!(sharded.messages, inline.messages);
        assert_eq!(sharded.engine.output_tuples, inline.engine.output_tuples);
        assert_eq!(sharded.engine.emissions, inline.engine.emissions);
        assert_eq!(sharded.engine.latency_us, inline.engine.latency_us);
    }

    #[test]
    fn sharded_live_churn_matches_inline() {
        // The control plane rides the data channel to a worker thread;
        // deliveries with mid-stream churn must match the caller-thread
        // engine delivery-for-delivery.
        let run = |parallelism: usize| {
            let (mut mw, src, schema) = setup(MiddlewareConfig {
                parallelism,
                ..Default::default()
            });
            let tuples = stream(&schema, 300);
            mw.push_batch(src, tuples[..120].to_vec()).unwrap();
            let late = mw
                .subscribe("late", NodeId(1), src, FilterSpec::delta("t", 1.5, 0.6))
                .unwrap();
            let first = mw.subscriptions(src).unwrap()[0];
            mw.push_batch(src, tuples[120..200].to_vec()).unwrap();
            mw.unsubscribe(first).unwrap();
            mw.resubscribe(late, FilterSpec::delta("t", 2.2, 0.8))
                .unwrap();
            mw.push_batch(src, tuples[200..].to_vec()).unwrap();
            mw.finish(src).unwrap();
            mw.report(src).unwrap()
        };
        let inline = run(1);
        let sharded = run(2);
        assert_eq!(sharded.per_app, inline.per_app);
        assert_eq!(sharded.engine.emissions, inline.engine.emissions);
        assert_eq!(sharded.engine.output_tuples, inline.engine.output_tuples);
    }

    #[test]
    fn sharded_flow_monitor_aggregates_across_shards() {
        let (mut mw, src, schema) = setup(MiddlewareConfig {
            parallelism: 2,
            ..Default::default()
        });
        let report = mw.run_trace(src, stream(&schema, 200)).unwrap();
        let s = &mw.sources[src.0];
        // output-side accounting flows through the same Metered sink …
        assert_eq!(s.flow.emitted(), report.engine.emissions);
        assert_eq!(s.flow.emitted_labels(), report.engine.recipient_labels);
        // … and the input side sees one (arrival, cpu) sample per tuple,
        // reconstructed from the shards' step costs.
        assert_eq!(s.flow.samples(), 200);
        assert_eq!(mw.flow_decision(src).unwrap(), FlowDecision::Ok);
    }

    mod fault_tolerance {
        use super::*;

        /// Deterministic slice of a report (wall-clock-free).
        pub(super) fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64, Vec<AppReport>) {
            (
                r.engine.input_tuples,
                r.engine.output_tuples,
                r.engine.emissions,
                r.engine.recipient_labels,
                r.per_app.clone(),
            )
        }

        #[test]
        fn recover_continues_reports_under_the_same_handles() {
            for parallelism in [1usize, 2] {
                let config = MiddlewareConfig {
                    parallelism,
                    ..Default::default()
                };
                let tuples = {
                    let (_, _, schema) = setup(config);
                    stream(&schema, 400)
                };
                // Fault-free arm: checkpoint at 200 and keep going.
                let expected = {
                    let (mut mw, src, _) = setup(config);
                    mw.push_batch(src, tuples[..200].to_vec()).unwrap();
                    let snap = mw.checkpoint().unwrap();
                    assert_eq!(snap.sources(), 1);
                    assert_eq!(snap.subscriptions(), 3);
                    mw.push_batch(src, tuples[200..].to_vec()).unwrap();
                    mw.finish(src).unwrap();
                    mw.report(src).unwrap()
                };
                // Crash arm: checkpoint at 200, lose the process (some
                // post-checkpoint pushes included), recover on a fresh
                // overlay, replay the suffix.
                let recovered = {
                    let (mut mw, src, _) = setup(config);
                    mw.push_batch(src, tuples[..200].to_vec()).unwrap();
                    let snap = mw.checkpoint().unwrap();
                    mw.push_batch(src, tuples[200..260].to_vec()).unwrap();
                    drop(mw); // the crash
                    let overlay = Overlay::new(Topology::ring(7).build());
                    let mut mw = Middleware::recover(overlay, &snap).unwrap();
                    mw.push_batch(src, tuples[200..].to_vec()).unwrap();
                    mw.finish(src).unwrap();
                    mw.report(src).unwrap()
                };
                assert_eq!(
                    fingerprint(&recovered),
                    fingerprint(&expected),
                    "parallelism={parallelism}"
                );
                // handles stayed stable and stats continued (not restarted)
                for (a, b) in recovered.per_app.iter().zip(&expected.per_app) {
                    assert_eq!(a.handle, b.handle);
                    assert_eq!(a.tuples, b.tuples);
                }
            }
        }

        #[test]
        fn recovered_middleware_keeps_the_live_control_plane() {
            let (mut mw, src, schema) = setup(MiddlewareConfig::default());
            let tuples = stream(&schema, 300);
            mw.push_batch(src, tuples[..150].to_vec()).unwrap();
            let snap = mw.checkpoint().unwrap();
            let mut mw =
                Middleware::recover(Overlay::new(Topology::ring(7).build()), &snap).unwrap();
            // subscribe/unsubscribe/regroup still work post-recovery
            let late = mw
                .subscribe("late", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
                .unwrap();
            let first = mw.subscriptions(src).unwrap()[0];
            mw.unsubscribe(first).unwrap();
            mw.push_batch(src, tuples[150..].to_vec()).unwrap();
            mw.finish(src).unwrap();
            let report = mw.report(src).unwrap();
            assert_eq!(report.per_app.len(), 4);
            let entry = report.per_app.iter().find(|a| a.handle == late).unwrap();
            assert!(entry.active && entry.tuples > 0);
            let removed = report.per_app.iter().find(|a| a.handle == first).unwrap();
            assert!(!removed.active);
            assert!(removed.tuples > 0, "pre-crash stats survive recovery");
        }

        #[test]
        fn checkpoint_boundary_drain_is_disseminated_and_accounted() {
            let (mut mw, src, schema) = setup(MiddlewareConfig::default());
            let tuples = stream(&schema, 200);
            mw.push_batch(src, tuples[..100].to_vec()).unwrap();
            let before: u64 = mw
                .report(src)
                .unwrap()
                .per_app
                .iter()
                .map(|a| a.tuples)
                .sum();
            let snap = mw.checkpoint().unwrap();
            let after: u64 = mw
                .report(src)
                .unwrap()
                .per_app
                .iter()
                .map(|a| a.tuples)
                .sum();
            assert!(after >= before, "drain cannot lose deliveries");
            // the engines crossed exactly one epoch boundary
            let engine = &snap.sources[0].parts[0].engine;
            assert_eq!(engine.route_snapshots()[0].epoch(), 1);
            mw.push_batch(src, tuples[100..].to_vec()).unwrap();
            mw.finish(src).unwrap();
        }

        #[test]
        fn failed_forwarder_node_keeps_every_subscriber_delivering() {
            // ring(9) with subscribers on 2/4/6 and the source on 0: the
            // odd nodes are pure forwarders. Failing one exercises the
            // Scribe re-graft under a live middleware deployment.
            let (mut mw, src, schema) = setup_ring9();
            let tuples = stream(&schema, 300);
            mw.push_batch(src, tuples[..150].to_vec()).unwrap();
            // nodes hosting sources/subscribers are protected
            assert!(matches!(
                mw.fail_node(NodeId(0)),
                Err(SolarError::NodeInUse(_))
            ));
            assert!(matches!(
                mw.fail_node(NodeId(2)),
                Err(SolarError::NodeInUse(_))
            ));
            let mut repaired = false;
            for forwarder in [1u32, 3, 5, 7] {
                let report = mw.fail_node(NodeId(forwarder)).unwrap();
                repaired |= report.regrafts > 0 || report.reroots > 0;
            }
            assert!(repaired, "some forwarder was load-bearing");
            mw.push_batch(src, tuples[150..].to_vec()).unwrap();
            mw.finish(src).unwrap();
            let report = mw.report(src).unwrap();
            for app in &report.per_app {
                assert!(
                    app.tuples > 0,
                    "{} starved after forwarder failures",
                    app.name
                );
            }
            assert!(mw.recover_node(NodeId(1)).unwrap());
        }

        fn setup_ring9() -> (Middleware, SourceId, Schema) {
            let overlay = Overlay::new(Topology::ring(9).build());
            let mut mw = Middleware::new(overlay);
            let schema = Schema::new(["t"]);
            let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
            for (name, node) in [("a1", 2u32), ("a2", 4), ("a3", 6)] {
                let _ = mw
                    .subscribe(name, NodeId(node), src, FilterSpec::delta("t", 2.0, 0.9))
                    .unwrap();
            }
            mw.deploy().unwrap();
            (mw, src, schema)
        }
    }

    #[test]
    fn error_display_covers_variants() {
        let e = SolarError::DuplicateSource("x".into());
        assert!(e.to_string().contains('x'));
        let e = SolarError::NotDeployed;
        assert!(e.to_string().contains("deploy"));
        let e = SolarError::NotSubscribed("sub3".into());
        assert!(e.to_string().contains("sub3"));
    }

    /// Shuffles a stream within `bound` of event time, deterministically.
    fn shuffle_within(tuples: &[Tuple], bound: Micros, salt: u64) -> Vec<Tuple> {
        let mut keyed: Vec<(Micros, u64, Tuple)> = tuples
            .iter()
            .map(|t| {
                // Cheap deterministic jitter in [0, bound): splitmix64
                // finalizer over (seq, salt).
                let mut x = t.seq().wrapping_add(salt);
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                let j = x % bound.as_micros().max(1);
                (
                    t.timestamp().checked_add(Micros(j)).unwrap(),
                    t.seq(),
                    t.clone(),
                )
            })
            .collect();
        keyed.sort_by_key(|&(d, s, _)| (d, s));
        keyed.into_iter().map(|(_, _, t)| t).collect()
    }

    #[test]
    fn event_time_front_end_matches_ordered_run() {
        use gasf_core::event_time::EventTimeConfig;
        let bound = Micros::from_millis(50);
        let config = MiddlewareConfig {
            event_time: Some(EventTimeConfig::bounded(bound)),
            ..Default::default()
        };
        let ordered = {
            let (mut mw, src, schema) = setup(MiddlewareConfig::default());
            mw.run_trace(src, stream(&schema, 400)).unwrap()
        };
        let disordered = {
            let (mut mw, src, schema) = setup(config);
            let tuples = stream(&schema, 400);
            let shuffled = shuffle_within(&tuples, bound, 17);
            assert_ne!(shuffled, tuples, "the shuffle must actually disorder");
            let report = mw.run_trace(src, shuffled).unwrap();
            let stats = mw.event_time_stats(src).unwrap();
            assert_eq!(stats.late_dropped, 0, "jitter within bound is never late");
            assert_eq!(stats.released, 400);
            assert_eq!(stats.buffered, 0, "finish flushes the buffer");
            report
        };
        assert_eq!(
            fault_tolerance::fingerprint(&ordered),
            fault_tolerance::fingerprint(&disordered),
            "reordered arrivals must reproduce the ordered run byte for byte"
        );
    }

    #[test]
    fn late_tuples_drop_or_patch_per_policy() {
        use gasf_core::event_time::{EventTimeConfig, LatePolicy};
        let bound = Micros::from_millis(20);
        let run = |late: LatePolicy| {
            let (mut mw, src, schema) = setup(MiddlewareConfig {
                event_time: Some(EventTimeConfig::bounded(bound).late(late)),
                ..Default::default()
            });
            let tuples = stream(&schema, 200);
            let mut arrivals = shuffle_within(&tuples, Micros::from_millis(10), 3);
            // Hold one early tuple back to the end: a guaranteed straggler.
            let straggler = arrivals.remove(5);
            arrivals.push(straggler);
            mw.run_trace(src, arrivals).unwrap();
            let stats = mw.event_time_stats(src).unwrap();
            let report = mw.report(src).unwrap();
            (stats, report)
        };

        let (drop_stats, drop_report) = run(LatePolicy::Drop);
        assert_eq!(drop_stats.late_dropped, 1, "the straggler is dropped");
        assert_eq!(drop_stats.patches, 0);
        assert_eq!(drop_report.engine.input_tuples, 199, "engines never see it");

        let (patch_stats, patch_report) = run(LatePolicy::EmitPatch);
        assert_eq!(patch_stats.late_dropped, 0);
        assert_eq!(patch_stats.patches, 1, "the straggler becomes a patch");
        assert_eq!(patch_report.engine.input_tuples, 199);
        // The patch was delivered to subscribers beyond the engine output.
        let drop_delivered: u64 = drop_report.per_app.iter().map(|a| a.tuples).sum();
        let patch_delivered: u64 = patch_report.per_app.iter().map(|a| a.tuples).sum();
        assert_eq!(
            patch_delivered,
            drop_delivered + 3,
            "one patch reaches each of the three subscriptions"
        );
    }

    #[test]
    fn event_time_state_survives_checkpoint_recover() {
        use gasf_core::event_time::EventTimeConfig;
        let bound = Micros::from_millis(100);
        let (mut mw, src, schema) = setup(MiddlewareConfig {
            event_time: Some(EventTimeConfig::bounded(bound)),
            ..Default::default()
        });
        let tuples = stream(&schema, 100);
        // Push an in-order prefix: the last few tuples sit in the buffer
        // (the watermark trails max_seen by the bound).
        let mut pipeline = mw.pipeline(src).unwrap();
        for t in &tuples[..60] {
            pipeline.push(t.clone()).unwrap();
        }
        let before = mw.event_time_stats(src).unwrap();
        assert!(before.buffered > 0, "bound must hold tuples back");
        let snap = mw.checkpoint().unwrap();
        let recovered =
            Middleware::recover(Overlay::new(Topology::ring(7).build()), &snap).unwrap();
        let after = recovered.event_time_stats(src).unwrap();
        assert_eq!(before, after, "watermark + buffer state survive the hop");
        drop(schema);
    }
}
// (appended test module extension)
#[cfg(test)]
mod flow_tests {
    use super::*;
    use gasf_core::tuple::TupleBuilder;
    use gasf_net::Topology;

    #[test]
    fn flow_decision_available_after_processing() {
        let overlay = Overlay::new(Topology::ring(3).build());
        let mut mw = Middleware::new(overlay);
        let schema = Schema::new(["t"]);
        let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
        let _ = mw
            .subscribe("a", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
            .unwrap();
        mw.deploy().unwrap();
        let mut b = TupleBuilder::new(&schema);
        for i in 0..50u64 {
            let t = b
                .at_millis(10 * (i + 1))
                .set("t", i as f64)
                .build()
                .unwrap();
            mw.pipeline(src).unwrap().push(t).unwrap();
        }
        // A real engine is far faster than 10 ms per tuple.
        assert_eq!(mw.flow_decision(src).unwrap(), FlowDecision::Ok);
        assert!(mw.flow_decision(SourceId(9)).is_err());
    }
}
