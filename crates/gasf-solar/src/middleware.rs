//! The Solar-like middleware: pub/sub + group-aware filtering service +
//! multicast dissemination (Fig. 4.1's software architecture).
//!
//! * the **quality specification manager** is the [`FilterSpec`] registry
//!   maintained through the subscription lifecycle
//!   ([`Middleware::subscribe`] / [`Middleware::unsubscribe`] /
//!   [`Middleware::resubscribe`]),
//! * the **group-aware filtering manager** instantiates one filtering
//!   engine per source — its routes are the source's *parts* — at
//!   [`Middleware::deploy`] time and keeps it in sync with live
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
//! [`crate::regroup::partition`] and rebuilds the source's engine, one
//! route per part, at an epoch boundary — in-flight candidate sets are
//! drained (and their outputs disseminated) before the old engine is torn
//! down, and its metrics survive in the source's retired total.
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
    /// Worker threads of each source's engine, one [`ShardedEngine`]
    /// whose routes are the source's parts: none at `1` (the default) or
    /// below — the caller thread filters — and `min(parallelism, parts)`
    /// above. Workers let filtering overlap with multicast dissemination;
    /// output (and therefore all delivery accounting) is byte-identical
    /// at every setting, a multi-part source's in `(row, part)` order.
    /// (The byte-identical guarantee holds whenever the engine itself
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
    /// capacity in front of every source: [`Pipeline::offer`] admits
    /// rows only while credits remain and returns
    /// [`PushOutcome::Throttled`] otherwise, leaving the input with the
    /// caller; [`Pipeline::ingest`], `push_columnar` and `push_batch`
    /// spend credits through it and replenish on every throttle. `None`
    /// (the default) is the unbounded contract — every offered row is
    /// admitted.
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

/// How [`Pipeline::ingest`] replenishes a throttled source's credit
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

/// Knobs for [`Pipeline::ingest`].
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Upper bound on rows per [`SourceConnector::next_chunk`] pull
    /// (clamped to at least 1).
    pub max_rows: usize,
    /// Credit replenishment under throttle.
    pub grant: GrantPolicy,
    /// Whether to [`finish`](Pipeline::finish) the source at EOF.
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

/// What [`Pipeline::ingest`] did with a connector's stream. Always
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

/// Most rows the middleware packs into one dispatch unit.
const MAX_RUN_ROWS: usize = 1024;

/// What [`Pipeline::offer`] is offered: a run of rows, in the shape its
/// caller holds them — arrival-order tuples (a [`Chunk::Rows`]) or a
/// stream-ordered batch (a [`Chunk::Batch`]). Either crosses the
/// middleware as one columnar run; the shape only decides what the
/// shedder is told.
#[derive(Debug, Clone, Copy)]
pub enum Offer<'a> {
    /// Row-form arrivals; out of event order only within the bound of
    /// the source's event-time front end.
    Rows(&'a [Tuple]),
    /// A stream-ordered columnar batch.
    Batch(&'a Arc<TupleBatch>),
}

impl Offer<'_> {
    fn len(self) -> usize {
        match self {
            Offer::Rows(rows) => rows.len(),
            Offer::Batch(batch) => batch.rows(),
        }
    }

    fn row(self, r: usize) -> Tuple {
        match self {
            Offer::Rows(rows) => rows[r].clone(),
            Offer::Batch(batch) => batch.materialize_row(r),
        }
    }
}

/// One filter group of a source — a route of the source's engine — with
/// its multicast tree and the stable [`FilterId`] → subscription mapping.
#[derive(Debug)]
struct PartEntry {
    group: GroupId,
    /// The overlay group's creation name and the part's route key (kept
    /// so a checkpoint can recreate the identical tree on a fresh overlay).
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
    /// A part over its tree whose filter ids serve `filter_apps`, in id
    /// order.
    fn new(
        group: GroupId,
        group_name: String,
        filter_apps: &[usize],
        apps: &[AppEntry],
        deferred_leaves: Vec<NodeId>,
    ) -> PartEntry {
        let mut part = PartEntry {
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
    /// The source's engine, route `i` filtering for `parts[i]`; `None`
    /// while the source has no live subscription.
    engine: Option<ShardedEngine>,
    /// Filter groups in route order (several after [`Middleware::regroup`]);
    /// one whose subscriptions all left stays, dormant, until a rebuild.
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
    /// The source's engine metrics, folded over its engine and every
    /// engine retired by churn — the single definition both
    /// [`Middleware::report`] and [`Pipeline::metrics`] present.
    fn folded_metrics(&self) -> EngineMetrics {
        let mut total = self.retired.clone();
        if let Some(engine) = &self.engine {
            total.merge(&engine.metrics());
        }
        total
    }

    /// The source's engine, which every source with a part has.
    fn engine_mut(&mut self) -> Result<&mut ShardedEngine, SolarError> {
        self.engine
            .as_mut()
            .ok_or_else(|| SolarError::NoSubscribers(self.name.clone()))
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
    /// Each part counts the stream in `input_tuples`, a dormant one too.
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

/// A full middleware checkpoint: every source engine captured at its
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
    /// The source's engine, one route per part (`None` without one).
    engine: Option<EngineSnapshot>,
    parts: Vec<PartState>,
}

/// One filter group's captured state (see [`MiddlewareSnapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PartState {
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
/// mw.pipeline(src)?.push_batch(tuples[..10].to_vec())?;
/// mw.resubscribe(ui, FilterSpec::delta("t", 3.0, 1.2))?;
/// mw.pipeline(src)?.push_batch(tuples[10..].to_vec())?;
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
            engine: None,
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
    /// forever. A part left without subscriptions stays a dormant route
    /// until the next rebuild; the source's last live subscription ends
    /// its engine, draining in-flight candidate sets through the multicast path.
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
        let Some((part_idx, fid)) = self.locate_all(source)[idx] else {
            return Ok(()); // source was never spawned
        };
        let s = &mut self.sources[source.0];
        if !s.subscribers.iter().any(|&a| self.apps[a].active) {
            return self.retire_engine(source.0).map(|_| ());
        }
        s.engine_mut()?.remove_filter(part_idx, fid)?;
        s.parts[part_idx].deferred_leaves.push(node);
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
            if let Some((part_idx, fid)) = self.locate_all(source)[idx] {
                // A source mid-shed installs the new spec at its current
                // rung; the declared original still lands in `apps` below.
                let rung = self.sources[source.0]
                    .shedder
                    .as_ref()
                    .map_or(0, Shedder::rung);
                let engine_spec = spec.degraded(rung).unwrap_or_else(|| spec.clone());
                self.sources[source.0]
                    .engine_mut()?
                    .update_filter(part_idx, fid, engine_spec)?;
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
    /// [`regroup::partition`] and rebuilds the source's engine at an
    /// epoch boundary: the engine is finished (in-flight candidate sets
    /// close, pending outputs are multicast) and retired — its metrics
    /// survive in the source's retired total — then a fresh one is built
    /// with a route and multicast tree per non-empty partition part.
    ///
    /// Reference rates for [`GroupingStrategy::BySelectivity`] come from
    /// the engine's own per-route, per-filter metrics (`references /
    /// input_tuples`) over its whole life — every epoch since it was
    /// built, whatever the parallelism.
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
        // Epoch boundary: finish and retire the engine, collecting each
        // part's lifetime metrics. Rates are computed *after* the drain,
        // when a worker's per-route metrics have materialised.
        let lifetimes = self.retire_engine(source.0)?;
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
        // …and build one fresh engine, a route + tree per partition part.
        let parts: Vec<Vec<usize>> = partition
            .iter()
            .filter(|part| !part.is_empty())
            .map(|part| part.iter().map(|&k| active[k]).collect())
            .collect();
        self.build_source(source.0, &parts)?;
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
            s.engine = None;
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
            self.build_source(i, &[active])?;
        }
        self.deployed = true;
        Ok(())
    }

    /// Wires a source's dataflow — engine → metered multicast sink — and
    /// returns it ready to push tuples. This is the primary data path:
    /// emissions stream from the engine's merge straight into each part's
    /// multicast tree, with [`FlowMonitor`]
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
        if s.engine.is_none() {
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

    /// Ends a source's stream and disseminates the tail:
    /// [`Pipeline::finish`] on a pipeline over the overlay.
    ///
    /// # Errors
    /// Same as [`pipeline`](Self::pipeline), plus engine and network
    /// errors.
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

    /// Drives a [`SourceConnector`] through the source's admission until
    /// end-of-stream: [`Pipeline::ingest`] on a pipeline over the overlay.
    ///
    /// # Errors
    /// Same as [`Pipeline::ingest`]; [`SolarError::NotDeployed`] /
    /// [`SolarError::UnknownId`] / [`SolarError::NoSubscribers`] up
    /// front, before the connector is asked for anything.
    pub fn ingest(
        &mut self,
        source: SourceId,
        connector: &mut dyn SourceConnector,
        options: IngestOptions,
    ) -> Result<IngestReport, SolarError> {
        self.pipeline(source)?.ingest(connector, options)
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
            self.sources[source.0]
                .engine_mut()?
                .update_filter(part_idx, fid, next)?;
            if degrade {
                self.sources[source.0].flow.observe_degrade();
            } else {
                self.sources[source.0].flow.observe_restore();
            }
        }
        Ok(())
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
        if s.engine.is_none() && s.retired.per_filter.is_empty() {
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

    /// Takes a full middleware checkpoint. Every source engine crosses its
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
            let engine = match self.sources[si].engine {
                Some(_) => Some(self.with_source_sink(None, si, |e, sink| e.checkpoint(sink))?),
                None => None,
            };
            // The boundary has passed: stale tree members may leave before
            // the membership is captured.
            self.leave_deferred(si)?;
            let s = &self.sources[si];
            let mut parts = Vec::with_capacity(s.parts.len());
            for part in &s.parts {
                parts.push(PartState {
                    group_name: part.group_name.clone(),
                    members: self.overlay.group_members(part.group)?.to_vec(),
                    filter_apps: part.filter_apps.clone(),
                    deferred_leaves: part.deferred_leaves.clone(),
                });
            }
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
                engine,
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
    /// full-process recovery path. Source engines restore at their
    /// snapshot boundaries, multicast trees are recreated with their captured
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
            let engine = s.engine.as_ref().map(ShardedEngine::restore).transpose()?;
            let mut parts = Vec::with_capacity(s.parts.len());
            for p in &s.parts {
                let group = mw.overlay.create_group(&p.group_name, &p.members)?;
                parts.push(PartEntry::new(
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
                engine,
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

    /// Builds a source's engine and trees, the one place they are made:
    /// part `i` (subscriptions, whose filter ids are dense in list order)
    /// becomes route `i`, keyed by its tree's name.
    fn build_source(&mut self, source_idx: usize, parts: &[Vec<usize>]) -> Result<(), SolarError> {
        let s = &self.sources[source_idx];
        // `min(parallelism, parts)` workers above 1, none at or below it.
        let workers = if self.config.parallelism > 1 {
            self.config.parallelism
        } else {
            0
        };
        let mut engine = ShardedEngine::builder()
            .parallelism(workers)
            .track_step_costs(true);
        let mut names = Vec::with_capacity(parts.len());
        for (p, app_idxs) in parts.iter().enumerate() {
            let mut builder = GroupEngine::builder(s.schema.clone())
                .algorithm(self.config.algorithm)
                .output_strategy(self.config.strategy);
            if let Some(c) = self.config.constraint {
                builder = builder.time_constraint(c);
            }
            for &a in app_idxs {
                builder = builder.filter(self.apps[a].spec.clone());
            }
            let name = format!("src:{source_idx}:{}:g{}:p{p}", s.name, s.generation);
            engine = engine.route(name.clone(), builder);
            names.push(name);
        }
        let engine = engine.build()?;
        let mut entries = Vec::with_capacity(parts.len());
        for (app_idxs, name) in parts.iter().zip(names) {
            let mut members: BTreeSet<NodeId> =
                app_idxs.iter().map(|&a| self.apps[a].node).collect();
            members.insert(s.node); // the source proxy is always a member
            let members: Vec<NodeId> = members.into_iter().collect();
            let group = self.overlay.create_group(&name, &members)?;
            entries.push(PartEntry::new(
                group,
                name,
                app_idxs,
                &self.apps,
                Vec::new(),
            ));
        }
        let s = &mut self.sources[source_idx];
        s.engine = Some(engine);
        s.parts = entries;
        Ok(())
    }

    /// Attaches a freshly subscribed app to a live source: queue the
    /// filter on the first part's route, join its multicast tree.
    fn attach_live(&mut self, source: SourceId, app_idx: usize) -> Result<(), SolarError> {
        if self.sources[source.0].engine.is_none() {
            // First live subscriber of a source without an engine.
            return self.build_source(source.0, &[vec![app_idx]]);
        }
        let declared = self.apps[app_idx].spec.clone();
        let node = self.apps[app_idx].node;
        let s = &mut self.sources[source.0];
        // Joining a source mid-shed means joining at its current rung.
        let rung = s.shedder.as_ref().map_or(0, Shedder::rung);
        let spec = declared.degraded(rung).unwrap_or(declared);
        let id = s.engine_mut()?.add_filter(0, spec)?;
        let part = &mut s.parts[0];
        let slot = part.push_filter(app_idx, node);
        debug_assert_eq!(id, slot);
        self.overlay.join_group(part.group, node)?;
        Ok(())
    }

    /// Every subscription's location in one sweep: `table[app]` is the
    /// part and filter id serving it (first part, first slot — a stale
    /// vacated slot loses to an earlier entry).
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

    /// Finishes a source's engine through the multicast path, merges its
    /// parts' lifetime metrics into the retired total and removes every
    /// part and tree. Returns those metrics, in part order: the sample
    /// regrouping heuristics judge.
    fn retire_engine(&mut self, source_idx: usize) -> Result<Vec<EngineMetrics>, SolarError> {
        let drained = self.with_source_sink(None, source_idx, |engine, sink| {
            match engine.finish_into(sink) {
                // already finished = already drained; nothing was in flight
                Ok(()) | Err(gasf_core::Error::Finished) => Ok(()),
                Err(e) => Err(e),
            }
        });
        let s = &mut self.sources[source_idx];
        let lifetimes = s
            .engine
            .take()
            .map_or_else(Vec::new, |e| e.route_metrics().to_vec());
        for m in &lifetimes {
            s.retired.merge(m);
        }
        // The trees are dead — reclaim them so churn can't grow the
        // overlay without bound.
        for part in s.parts.drain(..) {
            let _ = self.overlay.remove_group(part.group);
        }
        drained?;
        Ok(lifetimes)
    }

    /// The one place a source's engine meets its sink: split-borrows the
    /// middleware into the engine and a [`Metered`] [`MulticastSink`] over
    /// `wire` (the overlay when `None`), runs `drive`, feeds the step costs
    /// it merged to the flow monitor, then re-raises what it produced —
    /// engine errors first, then the first network error the sink latched.
    fn with_source_sink<R>(
        &mut self,
        wire: Option<&mut (dyn Transport + '_)>,
        source_idx: usize,
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
        let Some(engine) = s.engine.as_mut() else {
            return Err(SolarError::NoSubscribers(s.name.clone()));
        };
        let sink = MulticastSink {
            transport,
            apps: &mut self.apps,
            parts: &s.parts,
            part: 0,
            src_node: s.node,
            lat_hist: &mut s.lat_hist,
            nodes: &mut self.recipient_nodes,
            error: None,
        };
        let mut sink = Metered::new(sink, &mut s.flow);
        let out = drive(engine, &mut sink);
        for (arrival, cpu) in engine.drain_step_costs() {
            sink.monitor().observe(arrival, cpu);
        }
        let out = out?;
        match sink.inner_mut().error.take() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Executes a source's deferred overlay leaves: a node with no active
    /// subscription left in a part leaves that part's tree. Until then a
    /// stale member costs nothing: every send is pruned to its recipients.
    fn leave_deferred(&mut self, source: usize) -> Result<(), SolarError> {
        let s = &mut self.sources[source];
        for part in &mut s.parts {
            for node in std::mem::take(&mut part.deferred_leaves) {
                let apps = &self.apps;
                let still_needed = node == s.node
                    || part
                        .filter_apps
                        .iter()
                        .any(|&a| apps[a].active && apps[a].node == node);
                if still_needed {
                    continue;
                }
                match self.overlay.leave_group(part.group, node) {
                    Ok(()) | Err(gasf_net::multicast::NetError::NotAMember(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(())
    }
}

/// Transport dissemination as an [`EmissionSink`]: every accepted
/// emission is sent through a [`Transport`] — by default the in-process
/// overlay (the emission's tuple-level multicast, pruned to its recipient
/// nodes), or a real wire when the pipeline was built with
/// [`Middleware::pipeline_over`] — and per-subscription delivery
/// statistics are updated in place.
///
/// One sink serves a source: the engine hands it route `i`'s emissions
/// through [`accept_route`](EmissionSink::accept_route), and they go down
/// part `i`'s tree.
///
/// Recipient nodes are resolved by whichever walk is shorter. Each part
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
    /// The source's parts, in route order.
    parts: &'a [PartEntry],
    /// The part [`accept`](EmissionSink::accept) sends to.
    part: usize,
    src_node: NodeId,
    /// The source's delivery-latency histogram: one sample per
    /// (emission, recipient) delivery, same quantity the per-app means
    /// aggregate.
    lat_hist: &'a mut Histogram,
    /// The recipient nodes of the emission being sent.
    nodes: &'a mut Vec<NodeId>,
    error: Option<SolarError>,
}

impl<'a> MulticastSink<'a> {
    /// Resolves the emission's labels to their recipient nodes, ascending
    /// and distinct, into `nodes`, and returns whether it went label by
    /// label, with the part it goes to. The walk is the shorter one: an
    /// emission with fewer labels than the part has nodes maps each label
    /// to its app's node ([`resolve_nodes`](gasf_net::resolve_nodes)); any
    /// other takes one block-AND per node mask.
    fn resolve(&mut self, emission: &Emission) -> (bool, &'a PartEntry) {
        let part = &self.parts[self.part];
        let labels = &emission.recipients;
        let per_label = labels.len() < part.node_masks.len();
        if per_label {
            let (apps, filter_apps) = (&*self.apps, &part.filter_apps);
            gasf_net::resolve_nodes(self.nodes, emission, |f| apps[filter_apps[f.index()]].node);
        } else {
            self.nodes.clear();
            self.nodes.extend(
                part.node_masks
                    .iter()
                    .filter(|(_, mask)| mask.intersects(labels))
                    .map(|&(node, _)| node),
            );
        }
        (per_label, part)
    }
}

impl EmissionSink for MulticastSink<'_> {
    fn accept(&mut self, emission: &Emission) {
        if self.error.is_some() {
            return;
        }
        let (per_label, part) = self.resolve(emission);
        let filter_apps = &part.filter_apps;
        let apps = &*self.apps;
        let sent = self.transport.send_to_nodes(
            part.group,
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
        for (node, mask) in &part.node_masks {
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

    fn accept_route(&mut self, route: usize, emissions: &[Emission]) {
        self.part = route;
        self.accept_batch(emissions);
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

/// A wired dataflow for one source: admission → engine(s) → [`Metered`]
/// flow accounting → [`MulticastSink`] dissemination (Fig. 4.1 as an
/// API). It is the one way rows reach a source's engine.
///
/// Borrow one from [`Middleware::pipeline`] (over the overlay) or
/// [`Middleware::pipeline_over`] (over any [`Transport`]), feed it with
/// [`offer`](Pipeline::offer), [`push_columnar`](Pipeline::push_columnar),
/// [`push_batch`](Pipeline::push_batch) or [`ingest`](Pipeline::ingest),
/// and end the stream with [`finish`](Pipeline::finish). Every feed runs
/// [`offer`](Pipeline::offer), the source's one admission: the credit
/// gate, the event-time front end, the engine and the shedder's booking,
/// each present or absent by [`MiddlewareConfig`]. Dropping the pipeline
/// without finishing leaves the source open for a later pipeline — which
/// is also how live subscription churn interleaves with streaming: drop
/// (or simply don't hold) the pipeline, call
/// `subscribe`/`unsubscribe`/`resubscribe`/`regroup`, and keep pushing.
///
/// The source's engine is one [`ShardedEngine`] whose routes are its
/// parts. At [`MiddlewareConfig::parallelism`] ≤ 1 it has no worker
/// thread: a push filters on the caller thread and multicasts everything
/// it released before returning. Above one, filtering runs on
/// `min(parallelism, parts)` worker threads and this pipeline's caller
/// thread only merges emissions and disseminates them — emissions
/// released by a push may be multicast up to three pushes later (two
/// runs stay in flight per worker), with [`finish`](Pipeline::finish)
/// always draining everything. Every push is then one hand-off to each
/// worker, so hand over what you have rather than one row at a time.
///
/// A multi-part source's emissions go out in `(row, part)` order, each
/// down its part's tree, at every parallelism and for every run size.
///
/// An error raised inside the engine while it filters (such as
/// [`MissingValue`](gasf_core::Error::MissingValue)) poisons it at every
/// parallelism: later pushes, checkpoints and the finish return the same
/// error. Ordering and width violations are rejected before the
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
    /// The one admission: offers rows `start..` of `run` to the source's
    /// bounded ingress and returns how many went through, with the
    /// outcome. Take credits, feed the admitted rows through the
    /// event-time front end into the engine's columnar entry, book the
    /// outcome with the [`FlowMonitor`] and the [`Shedder`] — in that
    /// order.
    ///
    /// Without [`MiddlewareConfig::ingress_capacity`] every offered row
    /// is admitted and the outcome is [`PushOutcome::Accepted`]. With a
    /// credit gate the gate may admit a *prefix* (partial take): the
    /// admitted rows are processed, the outcome is `Throttled`, and the
    /// input is **resumable at the exact rejected row** — offer again
    /// from `start + admitted` after
    /// [`grant_credits`](Middleware::grant_credits) (or hold it,
    /// propagating the pressure outward). A batch sub-range goes through
    /// [`TupleBatch::slice`], so the engine observes the identical row
    /// stream an unbounded push would have produced.
    ///
    /// Each outcome is observed by the source's [`Shedder`] when one is
    /// configured: sustained throttling climbs the degradation ladder
    /// (headroom-declaring subscriptions are retuned to
    /// [`degraded`](FilterSpec::degraded) specs through the epoch-based
    /// control path), sustained acceptance restores it rung by rung.
    /// Under a degraded ladder a row-shaped offer stops at the row that
    /// completes the calm streak, so the `Restore` — an `update_filter`
    /// that must land at an exact stream position — lands where offering
    /// the rows one at a time puts it; `Accepted` then means everything
    /// *offered* was admitted, and callers loop while rows remain.
    ///
    /// # Errors
    /// Engine errors for the admitted rows (ordering violations, finished
    /// streams), then network errors while disseminating their emissions.
    /// A source that is not deployed, unknown or without a live part
    /// fails when the pipeline is borrowed, before a credit moves.
    ///
    /// # Panics
    /// Panics if `start` exceeds the run's rows.
    pub fn offer(
        &mut self,
        run: Offer<'_>,
        start: usize,
    ) -> Result<(usize, PushOutcome), SolarError> {
        assert!(start <= run.len(), "start row out of range");
        let s = &mut self.mw.sources[self.source];
        let offered = match run {
            Offer::Rows(rows) => {
                let calm = s
                    .shedder
                    .as_ref()
                    .map_or(u32::MAX, Shedder::calm_until_restore);
                (rows.len() - start).min(calm as usize)
            }
            Offer::Batch(batch) => batch.rows() - start,
        };
        let admitted = match s.gate.as_mut() {
            Some(gate) => gate.take(offered as u64) as usize,
            None => offered,
        };
        if admitted > 0 {
            self.front_end(run, start, admitted)?;
        }
        // What the shedder is told depends on the input's shape — an
        // inconsistency this body inherits rather than settles: rows book
        // one unit of calm per admitted row, then the throttle that
        // stopped them; a batch books one unit only when admitted whole,
        // and only the throttle when admitted in part. (An empty offer
        // books nothing.)
        let throttled = admitted < offered;
        let calm = match run {
            Offer::Rows(_) => admitted as u32,
            Offer::Batch(_) => u32::from(admitted > 0 && !throttled),
        };
        let source = SourceId(self.source);
        let s = &mut self.mw.sources[self.source];
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
            self.mw.apply_shed_action(source, restore)?;
            self.mw.apply_shed_action(source, degrade)?;
        }
        let outcome = if throttled {
            PushOutcome::Throttled
        } else {
            PushOutcome::Accepted
        };
        Ok((admitted, outcome))
    }

    /// Feeds `len` admitted rows of `run`, from `start`, through the
    /// event-time front end when the source has one, straight to the
    /// engine otherwise.
    ///
    /// Rows shed by the exhausted ladder leave gaps, which the event-time
    /// front end closes by re-sequencing; without one, the rows after
    /// `shed` drops move down by `shed`, so the engine's stream stays dense.
    fn front_end(&mut self, run: Offer<'_>, start: usize, len: usize) -> Result<(), SolarError> {
        let s = &self.mw.sources[self.source];
        let shed = s.flow.shed_dropped();
        let span = start..start + len;
        match run {
            _ if s.reorder.is_some() => self.reorder_run(span.map(|r| run.row(r))),
            _ if shed > 0 => {
                let moved = |t: Tuple| t.with_seq(t.seq().wrapping_sub(shed));
                self.feed_rows(&span.map(|r| moved(run.row(r))).collect::<Vec<_>>())
            }
            Offer::Rows(rows) => self.feed_rows(&rows[start..start + len]),
            Offer::Batch(batch) if len == batch.rows() => self.feed_engine(batch),
            Offer::Batch(batch) => self.feed_engine(&Arc::new(batch.slice(start, len))),
        }
    }

    /// Offers the whole of `run`, row-exact across partial admissions —
    /// the §4.8 escalation as a loop. A `Throttled` answer lets `grant`
    /// replenish the window, after dropping the blocked row when the
    /// source's degradation ladder is exhausted *and* pressure persists
    /// (a drop counted in `report` and the [`FlowMonitor`]).
    fn offer_all(
        &mut self,
        run: Offer<'_>,
        grant: GrantPolicy,
        report: &mut IngestReport,
    ) -> Result<(), SolarError> {
        let mut row = 0;
        while row < run.len() {
            let (n, outcome) = self.offer(run, row)?;
            row += n;
            report.accepted += n as u64;
            if outcome == PushOutcome::Throttled {
                report.throttled += 1;
                if self.ladder_exhausted() {
                    // §4.8's last resort: quality is already at every
                    // subscription's floor, so shed the blocked row —
                    // counted, never silent.
                    self.mw.sources[self.source].flow.observe_shed_drop();
                    report.dropped += 1;
                    row += 1;
                }
                self.replenish(grant);
            }
        }
        Ok(())
    }

    /// Whether the source's ladder is exhausted (top rung, still
    /// throttled) — the only state in which an offer loop may drop.
    fn ladder_exhausted(&self) -> bool {
        self.mw.sources[self.source]
            .shedder
            .as_ref()
            .is_some_and(Shedder::should_drop)
    }

    /// Replenishes the source's credit window per the grant policy.
    fn replenish(&mut self, policy: GrantPolicy) {
        let s = &mut self.mw.sources[self.source];
        let decision = s.flow.decision();
        let Some(gate) = s.gate.as_mut() else {
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

    /// Drives a [`SourceConnector`] through the source's admission until
    /// end-of-stream, then finishes the source if `options.finish` says
    /// so. Every chunk — an ordered [`Chunk::Batch`] or row-form,
    /// possibly disordered [`Chunk::Rows`] — is offered whole and resumed
    /// row-exactly after a partial admission: what the gate admits
    /// crosses the middleware as one run, never row by row. A `Throttled`
    /// answer lets `options.grant` replenish the window; only an
    /// exhausted degradation ladder lets a blocked row drop (§4.8's last
    /// resort), counted in the returned [`IngestReport`] and the
    /// [`FlowMonitor`].
    ///
    /// # Errors
    /// Connector failures (as [`SolarError::Core`]) and any error of
    /// [`offer`](Self::offer) or [`finish`](Self::finish).
    pub fn ingest(
        mut self,
        connector: &mut dyn SourceConnector,
        options: IngestOptions,
    ) -> Result<IngestReport, SolarError> {
        let mut report = IngestReport::default();
        let max_rows = options.max_rows.max(1);
        while let Some(chunk) = connector.next_chunk(max_rows).map_err(SolarError::from)? {
            report.chunks += 1;
            report.rows += chunk.rows() as u64;
            match chunk {
                Chunk::Batch(b) => {
                    self.offer_all(Offer::Batch(&Arc::new(b)), options.grant, &mut report)?;
                }
                Chunk::Rows(r) => self.offer_all(Offer::Rows(&r), options.grant, &mut report)?,
            }
        }
        if options.finish {
            self.finish()?;
        }
        Ok(report)
    }

    /// The event-time front end: drives the source's [`ReorderBuffer`]
    /// with a run of arrivals and feeds what the watermark releases to
    /// the engine as one ordered run. A late arrival is settled where it
    /// arrives: a drop is counted; a patch — stamped at the watermark
    /// frontier, so its latency is exactly how late the tuple was — goes
    /// out after what earlier arrivals released, as it would arriving
    /// alone.
    fn reorder_run(&mut self, arrivals: impl IntoIterator<Item = Tuple>) -> Result<(), SolarError> {
        let mut buf = self.mw.sources[self.source]
            .reorder
            .take()
            .expect("callers check for a front end");
        let mut released = Vec::new();
        let feed = || {
            for arrival in arrivals {
                // a dropped arrival is counted by the buffer itself
                if let Some(LateOutcome::Patch(late)) = buf.push_into(arrival, &mut released) {
                    self.feed_rows(&released)?;
                    released.clear();
                    let emitted_at = buf
                        .watermark()
                        .max_seen()
                        .unwrap_or_else(|| late.tuple.timestamp());
                    self.patch_all_parts(late, emitted_at)?;
                }
            }
            self.feed_rows(&released)
        };
        let result = feed();
        self.mw.sources[self.source].reorder = Some(buf);
        result
    }

    /// Packs an ordered run of rows — at most [`MAX_RUN_ROWS`] per
    /// dispatch unit — and feeds it to the engine. Packing validates a
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
            self.feed_engine(&Arc::new(batch))?;
        }
        Ok(())
    }

    /// Feeds one stream-ordered columnar run to the source's engine. A
    /// push that leaves nothing in flight has delivered every boundary
    /// drain the engine crossed (queued ops apply, and their drain goes
    /// out, at the run's head — a run is never split by a safe point), so
    /// stale tree members can safely leave.
    fn feed_engine(&mut self, batch: &Arc<TupleBatch>) -> Result<(), SolarError> {
        let in_flight =
            self.mw
                .with_source_sink(self.wire.as_deref_mut(), self.source, |engine, sink| {
                    engine.push_batch_columnar(batch, sink)?;
                    Ok(engine.in_flight())
                })?;
        if in_flight == 0 {
            self.mw.leave_deferred(self.source)?;
        }
        Ok(())
    }

    /// Disseminates one patch emission down every part's tree, addressed
    /// to the part's currently active subscriptions: each goes out as the
    /// emission it is, through [`EmissionSink::accept_route`]. The engine
    /// is bypassed: the ordered stream (and all state built from it) never
    /// sees the late tuple.
    fn patch_all_parts(&mut self, late: LateTuple, emitted_at: Micros) -> Result<(), SolarError> {
        let payload = Arc::new(late.tuple);
        let apps = &self.mw.apps;
        let mut patches = Vec::new();
        for (p, part) in self.mw.sources[self.source].parts.iter().enumerate() {
            let recipients: FilterSet = part
                .filter_apps
                .iter()
                .enumerate()
                .filter(|&(_, &a)| apps[a].active)
                .map(|(i, _)| FilterId::from_index(i))
                .collect();
            if !recipients.is_empty() {
                let tuple = Arc::clone(&payload);
                patches.push((
                    p,
                    Emission {
                        tuple,
                        recipients,
                        emitted_at,
                    },
                ));
            }
        }
        self.mw
            .with_source_sink(self.wire.as_deref_mut(), self.source, |_, sink| {
                for (p, emission) in &patches {
                    sink.accept_route(*p, std::slice::from_ref(emission));
                }
                Ok(())
            })
    }

    /// Pushes a stream of tuples, stopping at the first failure. The
    /// iterator is drawn 1 024 rows at a time, and each draw is offered
    /// as one row-form chunk exactly as [`ingest`](Self::ingest) offers
    /// it under [`GrantPolicy::Refill`]: on a source with a credit gate a
    /// push spends credits, refills on `Throttled` and reports to the
    /// shedder (which may drop rows once its ladder is exhausted).
    ///
    /// # Errors
    /// Same as [`offer`](Self::offer).
    pub fn push_batch(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), SolarError> {
        let mut tuples = tuples.into_iter();
        let mut report = IngestReport::default();
        loop {
            let run: Vec<Tuple> = tuples.by_ref().take(MAX_RUN_ROWS).collect();
            if run.is_empty() {
                return Ok(());
            }
            self.offer_all(Offer::Rows(&run), GrantPolicy::Refill, &mut report)?;
        }
    }

    /// Pushes one columnar [`TupleBatch`] through the source's engine —
    /// the batch-native data path, offered exactly as
    /// [`ingest`](Self::ingest) offers one batch chunk under
    /// [`GrantPolicy::Refill`] (on a gated source: credits spent, a
    /// refill per `Throttled`, the shedder told). Every worker shares the
    /// same `Arc` (no copy of the columns), each part's route consumes it
    /// through its columnar hot path, and the flow monitor observes the
    /// batch as per-row samples with the batch cost amortised across
    /// them, so flow decisions stay comparable to per-tuple feeding.
    /// Emission bytes on the wire are identical to offering the rows one
    /// at a time.
    ///
    /// With an event-time front end the batch's rows pass through the
    /// source's [`ReorderBuffer`] first (batches may arrive disordered
    /// within the bound); whatever the watermark releases is re-packed
    /// into a fresh ordered batch and fed to the engines' columnar path.
    ///
    /// # Errors
    /// Same as [`offer`](Self::offer).
    pub fn push_columnar(&mut self, batch: &Arc<TupleBatch>) -> Result<(), SolarError> {
        self.offer_all(
            Offer::Batch(batch),
            GrantPolicy::Refill,
            &mut IngestReport::default(),
        )
    }

    /// Ends the source's stream, disseminating every part's tail. An
    /// event-time front end is flushed first: everything still buffered
    /// is released in event order, as one run (end-of-stream is the final
    /// watermark).
    ///
    /// # Errors
    /// Engine errors, then network errors while disseminating the tail.
    pub fn finish(mut self) -> Result<(), SolarError> {
        if let Some(buf) = self.mw.sources[self.source].reorder.as_mut() {
            let mut released = Vec::new();
            buf.flush_into(&mut released);
            self.feed_rows(&released)?;
        }
        let source = self.source;
        self.mw
            .with_source_sink(self.wire.as_deref_mut(), source, |engine, sink| {
                engine.finish_into(sink)
            })?;
        self.mw.leave_deferred(source)
    }

    /// Metrics of the engine this pipeline feeds: lifetime metrics folded
    /// over every part and every engine retired by churn. Live at
    /// parallelism ≤ 1; with worker threads a live engine reports only
    /// its input count until it finishes (see [`ShardedEngine::metrics`]).
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
            mw.pipeline(src).map(|mut p| p.push_batch([t])),
            Err(SolarError::NotDeployed)
        ));
    }

    #[test]
    fn live_subscribe_joins_mid_stream() {
        let (mut mw, src, schema) = setup(MiddlewareConfig::default());
        let tuples = stream(&schema, 200);
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[..100].to_vec())
            .unwrap();
        // a fourth app joins while the stream is live — no redeploy
        let late = mw
            .subscribe("late", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
            .unwrap();
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[100..].to_vec())
            .unwrap();
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
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[..150].to_vec())
            .unwrap();
        mw.unsubscribe(handle).unwrap();
        assert!(matches!(
            mw.unsubscribe(handle),
            Err(SolarError::NotSubscribed(_))
        ));
        let frozen_at_boundary = {
            // one more push crosses the boundary and delivers the drain
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[150..151].to_vec())
                .unwrap();
            mw.report(src).unwrap()
        };
        let frozen = frozen_at_boundary
            .per_app
            .iter()
            .find(|a| a.handle == handle)
            .unwrap()
            .tuples;
        assert!(frozen > 0, "pre-churn deliveries kept");
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[151..].to_vec())
            .unwrap();
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
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[..100].to_vec())
            .unwrap();
        // retune to a much looser delta: fewer reference points
        mw.resubscribe(handle, FilterSpec::delta("t", 8.0, 3.0))
            .unwrap();
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[100..].to_vec())
            .unwrap();
        // the engine crossed exactly one epoch boundary before the
        // checkpoint crosses its own
        let snap = mw.checkpoint().unwrap();
        assert_eq!(
            snap.sources[0].engine.as_ref().unwrap().route_snapshots()[0].epoch(),
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
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[..200].to_vec())
            .unwrap();
        let parts = mw
            .regroup(src, GroupingStrategy::BySelectivity { isolate_above: 0.5 })
            .unwrap();
        assert_eq!(parts.len(), 2, "greedy consumer isolated: {parts:?}");
        assert!(parts.iter().any(|p| p == &vec![greedy]));
        assert_eq!(mw.sources[src.0].parts.len(), 2);
        // the stream continues through the new engines
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[200..].to_vec())
            .unwrap();
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
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[..150].to_vec())
            .unwrap();
        let parts = mw
            .regroup(src, GroupingStrategy::BySelectivity { isolate_above: 0.5 })
            .unwrap();
        assert!(
            parts.iter().any(|p| p == &vec![greedy]),
            "sharded regroup must still isolate: {parts:?}"
        );
        mw.pipeline(src)
            .unwrap()
            .push_batch(tuples[150..].to_vec())
            .unwrap();
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
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[..200].to_vec())
                .unwrap();
            mw.resubscribe(greedy, calm(6.0, 2.5)).unwrap();
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[200..300].to_vec())
                .unwrap();
            let parts = mw
                .regroup(src, GroupingStrategy::BySelectivity { isolate_above: 0.5 })
                .unwrap();
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[300..].to_vec())
                .unwrap();
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
        mw.pipeline(src)
            .unwrap()
            .push_batch(stream(&schema, 100))
            .unwrap();
        let old_group = mw.sources[src.0].parts[0].group;
        mw.regroup(src, GroupingStrategy::MaxSize(1)).unwrap();
        assert!(
            mw.overlay.group_members(old_group).is_err(),
            "retired tree must be removed from the overlay"
        );
        assert_eq!(mw.sources[src.0].parts.len(), 3);
        mw.pipeline(src)
            .unwrap()
            .push_batch(stream(&schema, 150)[100..].to_vec())
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
        mw.pipeline(src)
            .unwrap()
            .push_batch(stream(&schema, 50))
            .unwrap();
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
        mw.pipeline(src).unwrap().push_batch(more).unwrap();
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
                p.push_batch([t]).unwrap();
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
        mw.pipeline(src)
            .unwrap()
            .push_batch(stream(&schema, 150))
            .unwrap();
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

        for (mw, src) in [(&mut left, src), (&mut empty, empty_src)] {
            // the pipeline every row needs is refused, so 4 rows never
            // meet the gate: a leak would throttle the third and feed the
            // shedder
            assert!(matches!(
                mw.pipeline(src),
                Err(SolarError::NoSubscribers(_))
            ));
            let mut replay = gasf_sources::ArrivalReplay::new(schema.clone(), stream(&schema, 4));
            assert!(matches!(
                mw.ingest(src, &mut replay, IngestOptions::default()),
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
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[..120].to_vec())
                .unwrap();
            let late = mw
                .subscribe("late", NodeId(1), src, FilterSpec::delta("t", 1.5, 0.6))
                .unwrap();
            let first = mw.subscriptions(src).unwrap()[0];
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[120..200].to_vec())
                .unwrap();
            mw.unsubscribe(first).unwrap();
            mw.resubscribe(late, FilterSpec::delta("t", 2.2, 0.8))
                .unwrap();
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[200..].to_vec())
                .unwrap();
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
        // A regrouped source books one sample per tuple too, at every
        // parallelism: its parts are routes of one engine, whose step
        // costs are drained once.
        for parallelism in [1, 2] {
            let (mut mw, src, schema) = setup(MiddlewareConfig {
                parallelism,
                ..Default::default()
            });
            mw.regroup(src, GroupingStrategy::MaxSize(2)).unwrap();
            assert_eq!(mw.sources[src.0].parts.len(), 2);
            mw.pipeline(src)
                .unwrap()
                .push_batch(stream(&schema, 3_000))
                .unwrap();
            mw.finish(src).unwrap();
            let samples = mw.sources[src.0].flow.samples();
            assert_eq!(samples, 3_000, "parallelism {parallelism}");
        }
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
                    mw.pipeline(src)
                        .unwrap()
                        .push_batch(tuples[..200].to_vec())
                        .unwrap();
                    let snap = mw.checkpoint().unwrap();
                    assert_eq!(snap.sources(), 1);
                    assert_eq!(snap.subscriptions(), 3);
                    mw.pipeline(src)
                        .unwrap()
                        .push_batch(tuples[200..].to_vec())
                        .unwrap();
                    mw.finish(src).unwrap();
                    mw.report(src).unwrap()
                };
                // Crash arm: checkpoint at 200, lose the process (some
                // post-checkpoint pushes included), recover on a fresh
                // overlay, replay the suffix.
                let recovered = {
                    let (mut mw, src, _) = setup(config);
                    mw.pipeline(src)
                        .unwrap()
                        .push_batch(tuples[..200].to_vec())
                        .unwrap();
                    let snap = mw.checkpoint().unwrap();
                    mw.pipeline(src)
                        .unwrap()
                        .push_batch(tuples[200..260].to_vec())
                        .unwrap();
                    drop(mw); // the crash
                    let overlay = Overlay::new(Topology::ring(7).build());
                    let mut mw = Middleware::recover(overlay, &snap).unwrap();
                    mw.pipeline(src)
                        .unwrap()
                        .push_batch(tuples[200..].to_vec())
                        .unwrap();
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
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[..150].to_vec())
                .unwrap();
            let snap = mw.checkpoint().unwrap();
            let mut mw =
                Middleware::recover(Overlay::new(Topology::ring(7).build()), &snap).unwrap();
            // subscribe/unsubscribe/regroup still work post-recovery
            let late = mw
                .subscribe("late", NodeId(1), src, FilterSpec::delta("t", 1.0, 0.4))
                .unwrap();
            let first = mw.subscriptions(src).unwrap()[0];
            mw.unsubscribe(first).unwrap();
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[150..].to_vec())
                .unwrap();
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
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[..100].to_vec())
                .unwrap();
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
            let engine = snap.sources[0].engine.as_ref().unwrap();
            assert_eq!(engine.route_snapshots()[0].epoch(), 1);
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[100..].to_vec())
                .unwrap();
            mw.finish(src).unwrap();
        }

        #[test]
        fn failed_forwarder_node_keeps_every_subscriber_delivering() {
            // ring(9) with subscribers on 2/4/6 and the source on 0: the
            // odd nodes are pure forwarders. Failing one exercises the
            // Scribe re-graft under a live middleware deployment.
            let (mut mw, src, schema) = setup_ring9();
            let tuples = stream(&schema, 300);
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[..150].to_vec())
                .unwrap();
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
            mw.pipeline(src)
                .unwrap()
                .push_batch(tuples[150..].to_vec())
                .unwrap();
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
            let emitted = mw.flow_monitor(src).unwrap().emitted();
            let live_parts = mw.sources[src.0]
                .parts
                .iter()
                .filter(|p| p.filter_apps.iter().any(|&a| mw.apps[a].active))
                .count() as u64;
            (stats, report, emitted, live_parts)
        };

        let (drop_stats, drop_report, drop_emitted, _) = run(LatePolicy::Drop);
        assert_eq!(drop_stats.late_dropped, 1, "the straggler is dropped");
        assert_eq!(drop_stats.patches, 0);
        assert_eq!(drop_report.engine.input_tuples, 199, "engines never see it");

        let (patch_stats, patch_report, patch_emitted, live_parts) = run(LatePolicy::EmitPatch);
        assert_eq!(patch_stats.late_dropped, 0);
        assert_eq!(patch_stats.patches, 1, "the straggler becomes a patch");
        assert_eq!(patch_report.engine.input_tuples, 199);
        // The metered sink counts each patch emission once: one per part
        // with an active subscription, on top of the engine's output.
        assert!(live_parts > 0);
        assert_eq!(patch_emitted, drop_emitted + live_parts);
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
            pipeline.push_batch([t.clone()]).unwrap();
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
            mw.pipeline(src).unwrap().push_batch([t]).unwrap();
        }
        // A real engine is far faster than 10 ms per tuple.
        assert_eq!(mw.flow_decision(src).unwrap(), FlowDecision::Ok);
        assert!(mw.flow_decision(SourceId(9)).is_err());
    }
}
