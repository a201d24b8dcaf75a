//! The group-aware filtering engines (two-stage process, Fig. 2.4).
//!
//! [`GroupEngine`] hosts a group of filters sharing one source. Tuples are
//! pushed in stream order; the engine drives the filters through the first
//! stage (candidate admission), maintains the shared global state (group
//! utilities, regions, decided outputs), runs the configured second-stage
//! algorithm, enforces timely cuts, and emits [`Emission`]s — tuples
//! labelled with the recipient filters, ready for tuple-level multicast
//! (Fig. 1.2).
//!
//! The primary output path is sink-based: [`GroupEngine::push_into`],
//! [`GroupEngine::push_batch`] and [`GroupEngine::finish_into`] write
//! released emissions into any [`EmissionSink`] through a reusable
//! internal scratch buffer, so the steady-state release path performs no
//! per-push `Vec<Emission>` allocation.
//! [`push`](GroupEngine::push) / [`finish`](GroupEngine::finish) /
//! [`run`](GroupEngine::run) remain as thin [`VecSink`]-backed
//! compatibility wrappers.
//!
//! ## The subscription control plane (epochs)
//!
//! The filter group is no longer frozen at build time:
//! [`GroupEngine::add_filter`] / [`GroupEngine::remove_filter`] /
//! [`GroupEngine::update_filter`] queue roster changes that are applied at
//! the next **safe point** — the boundary before the next pushed tuple,
//! where every open candidate set is force-closed, every region completed
//! and everything pending released (exactly what
//! [`finish_into`](GroupEngine::finish_into) does, without ending the
//! stream). Each application starts a new **epoch**:
//!
//! * [`FilterId`]s are stable for the lifetime of the engine — ids are
//!   never reused or renumbered, removal leaves a *vacant slot*, and
//!   recipient [`FilterSet`] labels simply skip vacancies;
//! * retained filters restart from a fresh state, so a run with churn
//!   applied at epoch `E` is **byte-identical** to stopping at `E`,
//!   rebuilding statically with the post-churn roster (see
//!   [`GroupEngineBuilder::filter_at`]) and continuing — the contract
//!   `tests/tests/churn_equivalence.rs` pins across every
//!   `Algorithm` × `OutputStrategy` × parallelism;
//! * [`metrics`](GroupEngine::metrics) is one lifetime accumulator that
//!   every epoch adds into: a boundary only widens the per-filter
//!   counters to the new slot count, and since ids are never reused, slot
//!   `i` is filter `i` in every epoch (a removed filter's stats stay in
//!   its vacant slot). Its size is O(roster) at any stream length.

mod decide;
#[cfg(test)]
mod tests;

use crate::batch::TupleBatch;
use crate::bitset::FilterSet;
use crate::candidate::{CloseCause, FilterAction, FilterId, TimeCover};
use crate::cuts::{RuntimePredictor, TimeConstraint};
use crate::error::Error;
use crate::filter::{build_filter, ForceCloseOutcome, GroupFilter};
use crate::hitting_set::{collect_distinct_ids, GreedySolver};
use crate::metrics::{EngineMetrics, FilterMetrics};
use crate::plan::{CompiledRoster, EvaluatorTier, FilterPlan, StepActions, TwinTable};
use crate::quality::FilterSpec;
use crate::region::{OpenCovers, Region, RegionTracker};
use crate::schema::Schema;
use crate::sink::{EmissionSink, VecSink};
use crate::snapshot::GroupSnapshot;
use crate::time::Micros;
use crate::tuple::{Tuple, TupleId, TuplePool};
use crate::utility::GroupUtility;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Second-stage algorithm selecting outputs from candidate sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Region-based greedy (Fig. 2.6): accumulate connected candidate sets
    /// into regions and solve a greedy hitting set per closed region.
    /// Best bandwidth, highest latency.
    RegionGreedy,
    /// Per-candidate-set greedy (Fig. 2.10): each filter decides as soon as
    /// its set closes, preferring tuples already chosen by others. The only
    /// algorithm valid for stateful filters.
    PerCandidateSet,
    /// The baseline: every filter independently emits its reference tuples
    /// (no slack exploitation); the union is multicast.
    SelfInterested,
}

/// When decided outputs are handed to the multicaster (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputStrategy {
    /// Emit at region completion — the earliest time that cannot hurt the
    /// solution's optimality (the default).
    Earliest,
    /// Emit as soon as a decision is made (lower latency, may reorder
    /// output relative to region order).
    PerCandidateSet,
    /// Emit every `n` input tuples.
    Batched(u32),
}

/// A decided tuple labelled with the filters that should receive it.
///
/// The payload is the engine pool's shared `Arc<Tuple>` (no copy is made
/// at release time) and the recipient labels are a packed [`FilterSet`],
/// iterated in ascending filter order.
#[derive(Debug, Clone, PartialEq)]
pub struct Emission {
    /// The tuple to multicast (shared with the engine's intern pool).
    pub tuple: Arc<Tuple>,
    /// Recipient filters.
    pub recipients: FilterSet,
    /// Stream time at which the engine released the tuple.
    pub emitted_at: Micros,
}

impl Emission {
    /// Filtering-stage latency of this emission (release − source stamp).
    pub fn latency(&self) -> Micros {
        self.emitted_at.saturating_sub(self.tuple.timestamp())
    }
}

/// Builder for [`GroupEngine`] (see [`GroupEngine::builder`]).
#[derive(Debug)]
pub struct GroupEngineBuilder {
    schema: Schema,
    specs: Vec<FilterSpec>,
    pinned: Vec<(FilterId, FilterSpec)>,
    algorithm: Algorithm,
    strategy: OutputStrategy,
    constraint: Option<TimeConstraint>,
    predictor_window: usize,
    overestimate_us: f64,
    tier: EvaluatorTier,
}

impl GroupEngineBuilder {
    /// Adds a filter specification to the group.
    pub fn filter(mut self, spec: FilterSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds several filter specifications.
    pub fn filters<I: IntoIterator<Item = FilterSpec>>(mut self, specs: I) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Adds a filter pinned to an explicit [`FilterId`] slot.
    ///
    /// This is the *static rebuild* counterpart of the dynamic control
    /// plane: after churn a roster may contain vacancies (e.g. ids
    /// `{0, 2, 3}` once filter 1 was removed), and rebuilding that roster
    /// statically must reproduce the same ids so recipient labels — and
    /// therefore the whole emission stream — are byte-identical. Ids not
    /// pinned here are assigned to [`filter`](Self::filter) specs in the
    /// lowest free slots, in insertion order. Pinning the same slot twice
    /// fails at [`build`](Self::build).
    pub fn filter_at(mut self, id: FilterId, spec: FilterSpec) -> Self {
        self.pinned.push((id, spec));
        self
    }

    /// Selects the second-stage algorithm (default
    /// [`Algorithm::RegionGreedy`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the output strategy (default [`OutputStrategy::Earliest`]).
    pub fn output_strategy(mut self, strategy: OutputStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets an explicit group time constraint, enabling timely cuts. When
    /// absent, the minimum of the filters' latency tolerances (if any) is
    /// used.
    pub fn time_constraint(mut self, constraint: TimeConstraint) -> Self {
        self.constraint = Some(constraint);
        self
    }

    /// Configures the greedy run-time predictor (window size and additive
    /// overestimation in microseconds, §3.3).
    pub fn predictor(mut self, window: usize, overestimate_us: f64) -> Self {
        self.predictor_window = window;
        self.overestimate_us = overestimate_us;
        self
    }

    /// Selects the first-stage evaluator tier (default
    /// [`EvaluatorTier::Compiled`]). Both tiers produce byte-identical
    /// output; the interpreted trait-object path is the oracle the
    /// compiled roster is checked against.
    pub fn evaluator(mut self, tier: EvaluatorTier) -> Self {
        self.tier = tier;
        self
    }

    /// The configured evaluator tier (see [`evaluator`](Self::evaluator)).
    pub fn configured_evaluator(&self) -> EvaluatorTier {
        self.tier
    }

    /// The stream schema this builder targets.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configured second-stage algorithm.
    pub fn configured_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The safe-point snapshot of the engine this builder *would* build:
    /// a never-fed engine at epoch 0, whose roster holds the pinned specs
    /// in their explicit slots, then the plain [`filter`](Self::filter)
    /// specs in the lowest free slots, insertion order preserved.
    /// [`build`](Self::build) restores it, and the sharded host builds its
    /// initial engines *and* rebuilds crashed pre-first-checkpoint workers
    /// through it too, so building and restoring cannot drift. Spec
    /// validation happens when the snapshot is restored.
    pub(crate) fn initial_snapshot(self) -> Result<GroupSnapshot, Error> {
        let mut slots: BTreeMap<u32, FilterSpec> = BTreeMap::new();
        for (id, spec) in self.pinned {
            if slots.insert(id.0, spec).is_some() {
                return Err(Error::InvalidConfig {
                    reason: format!("filter slot {id} pinned twice"),
                });
            }
        }
        let mut next = 0u32;
        for spec in self.specs {
            while slots.contains_key(&next) {
                next += 1;
            }
            slots.insert(next, spec);
            next += 1;
        }
        let Some((&last, _)) = slots.last_key_value() else {
            return Err(Error::InvalidConfig {
                reason: "a group needs at least one filter".into(),
            });
        };
        let mut roster: Vec<Option<FilterSpec>> = vec![None; last as usize + 1];
        for (i, spec) in slots {
            roster[i as usize] = Some(spec);
        }
        Ok(GroupSnapshot {
            schema: self.schema,
            algorithm: self.algorithm,
            strategy: self.strategy,
            constraint: self.constraint,
            predictor_window: self.predictor_window,
            overestimate_us: self.overestimate_us,
            roster,
            next_filter_id: last + 1,
            epoch: 0,
            metrics: EngineMetrics::default(),
            watermark: Micros::ZERO,
            last_ts: None,
            last_seq: None,
        })
    }

    /// Builds the engine.
    ///
    /// # Errors
    /// * [`Error::InvalidConfig`] if the group is empty, a slot is pinned
    ///   twice, or stateful filters are combined with the region-based
    ///   algorithm.
    /// * [`Error::InvalidSpec`] / [`Error::UnknownAttribute`] from filter
    ///   instantiation.
    pub fn build(self) -> Result<GroupEngine, Error> {
        let tier = self.tier;
        GroupEngine::restore_owned(self.initial_snapshot()?, tier)
    }
}

/// Instantiates one filter, enforcing the algorithm/statefulness rules the
/// whole control plane shares (build time, live adds and live updates).
pub(crate) fn instantiate_filter(
    spec: &FilterSpec,
    id: FilterId,
    schema: &Schema,
    algorithm: Algorithm,
) -> Result<Box<dyn GroupFilter>, Error> {
    if spec.is_stateful() && algorithm == Algorithm::RegionGreedy {
        return Err(Error::InvalidConfig {
            reason: format!(
                "filter {id} is stateful; stateful candidate sets require \
                 Algorithm::PerCandidateSet"
            ),
        });
    }
    // Under the self-interested baseline the chosen output *is* the
    // reference, so stateful and stateless bases coincide: build a
    // stateless twin.
    if spec.is_stateful() && algorithm == Algorithm::SelfInterested {
        let mut s = spec.clone();
        if let crate::quality::FilterKind::Delta { dependency, .. } = &mut s.kind {
            *dependency = crate::quality::Dependency::Stateless;
        }
        build_filter(&s, id, schema)
    } else {
        build_filter(spec, id, schema)
    }
}

/// Validates one filter spec against the control-plane rules without
/// instantiating anything: exactly [`instantiate_filter`]'s checks (same
/// errors, same order), shared by the queue-time validation of live adds
/// and updates on both tiers.
pub(crate) fn validate_filter(
    spec: &FilterSpec,
    id: FilterId,
    schema: &Schema,
    algorithm: Algorithm,
) -> Result<(), Error> {
    FilterPlan::lower(spec, id, schema, algorithm).map(|_| ())
}

/// Compiles the occupied slots of a roster into a fused evaluator.
fn compile_slots(
    slots: &[Option<FilterSlot>],
    schema: &Schema,
    algorithm: Algorithm,
) -> Result<CompiledRoster, Error> {
    CompiledRoster::compile(
        slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (FilterId::from_index(i), &s.spec))),
        schema,
        algorithm,
    )
}

/// Which slots each first-stage member of a `width`-slot roster stands
/// for: the compiled roster's twin classes, or — on the interpreted tier,
/// which runs every filter itself — each slot alone.
fn twin_table(compiled: Option<&CompiledRoster>, width: usize) -> TwinTable {
    compiled.map_or_else(|| TwinTable::solo(width), CompiledRoster::twin_table)
}

/// The group time constraint in effect for a roster: the explicit one, or
/// the minimum of the occupied filters' latency tolerances.
fn effective_constraint(
    explicit: Option<TimeConstraint>,
    slots: &[Option<FilterSlot>],
) -> Option<TimeConstraint> {
    explicit.or_else(|| {
        slots
            .iter()
            .flatten()
            .filter_map(|s| s.spec.latency_tolerance)
            .min()
            .map(TimeConstraint::max_delay)
    })
}

/// One occupied filter slot: the spec it was built from (kept so epochs
/// can rebuild retained filters from scratch) plus — on the interpreted
/// tier only — the live trait object. On the compiled tier the filter's
/// state lives in the engine's [`CompiledRoster`] arenas instead.
#[derive(Debug)]
struct FilterSlot {
    spec: FilterSpec,
    filter: Option<Box<dyn GroupFilter>>,
}

/// A queued roster change, applied at the next safe point.
#[derive(Debug, Clone)]
pub(crate) enum ControlOp {
    /// Install `spec` in the (brand-new) slot `id`.
    Add(FilterId, FilterSpec),
    /// Vacate slot `id`.
    Remove(FilterId),
    /// Replace the spec in slot `id`.
    Update(FilterId, FilterSpec),
}

/// A group-aware stream-filtering engine for one source shared by a group
/// of filters.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug)]
pub struct GroupEngine {
    schema: Schema,
    /// Filter slots indexed by [`FilterId`]; `None` marks a vacancy left
    /// by a removed filter (ids are never reused or renumbered).
    slots: Vec<Option<FilterSlot>>,
    /// Which first-stage evaluator drives the roster.
    tier: EvaluatorTier,
    /// The fused evaluator (compiled tier only); recompiled from the
    /// roster at every epoch boundary.
    compiled: Option<CompiledRoster>,
    /// Reusable per-tuple action buffer for the compiled path.
    step: StepActions,
    /// Which filters each first-stage member stands for: the compiled
    /// roster evaluates one leader per class of identical filters, and
    /// every place below that books a filter, moves a utility, sizes a
    /// region or labels an output does it for the leader's whole class.
    /// Rebuilt with the roster at every epoch boundary.
    twins: TwinTable,
    algorithm: Algorithm,
    strategy: OutputStrategy,
    /// The constraint the caller set explicitly (kept so the effective
    /// constraint can be recomputed when the roster changes).
    explicit_constraint: Option<TimeConstraint>,
    constraint: Option<TimeConstraint>,
    predictor_window: usize,
    overestimate_us: f64,
    predictor: RuntimePredictor,
    utility: GroupUtility,
    tracker: RegionTracker,
    /// Reusable buffers of the per-row region drain and solve: the
    /// interpreted tier's open covers (the compiled roster keeps its
    /// own), ready regions, a region's distinct ids and its sets'
    /// weights, and the hitting-set solver's working storage.
    cover_buf: OpenCovers,
    ready_buf: Vec<Region>,
    ids_buf: Vec<TupleId>,
    weights_buf: Vec<u32>,
    solver: GreedySolver,
    /// Intern pool owning the live tuples that may still be chosen/emitted.
    pool: TuplePool,
    /// Decided but not yet emitted outputs (recipient sets by id).
    pending: BTreeMap<TupleId, FilterSet>,
    /// Pending ids whose region has completed (eligible under `Earliest`).
    releasable: BTreeSet<TupleId>,
    /// Ids chosen in still-incomplete regions (PS heuristic 1).
    recently_decided: HashSet<TupleId>,
    batch_counter: u32,
    /// Stream time up to which every region is complete (the punctuation
    /// value of §3.4).
    watermark: Micros,
    /// Highest id emitted so far (disorder detection).
    max_emitted_id: Option<TupleId>,
    last_ts: Option<Micros>,
    last_seq: Option<u64>,
    finished: bool,
    /// Reusable emission buffer: the release path fills it (reusing the
    /// allocation across pushes), the CPU clock stops, and only then is the
    /// batch handed to the sink — so downstream cost never pollutes engine
    /// CPU metrics and the hot path allocates no `Vec<Emission>`.
    scratch: Vec<Emission>,
    /// Queued roster changes, applied together at the next safe point.
    control_queue: Vec<ControlOp>,
    /// How many queued ops are *structural* (`Add`/`Remove`). While
    /// zero, the projected roster equals the live slots, so single-id
    /// liveness checks are O(1) — the case the shedding ladder leans on
    /// when it queues one `Update` per filter across a huge roster.
    queued_structural: usize,
    /// The next never-used filter id (monotone; ids are never recycled).
    next_filter_id: u32,
    /// Epochs completed so far (bumped by every control-op application).
    epoch: u64,
    /// Lifetime metrics, one slot of `per_filter` per roster slot.
    metrics: EngineMetrics,
}

/// Validates that a tuple at `(ts, seq)` extends a stream whose last
/// accepted tuple had `last_ts`/`last_seq`. Shared by the inline
/// ([`GroupEngine::push_into`]) and sharded (`crate::shard`) ingest paths
/// so their eager ordering contracts cannot drift apart. A [`TupleBatch`]
/// validated its internal contiguity at construction, so only its head
/// row needs checking against the frontier.
pub(crate) fn validate_stream_order(
    last_ts: Option<Micros>,
    last_seq: Option<u64>,
    ts: Micros,
    seq: u64,
) -> Result<(), Error> {
    if let Some(last) = last_ts {
        // Non-decreasing, not strictly increasing: equal timestamps are
        // legal sensor output and the dense seq check below is the
        // deterministic tiebreak (the reorder buffer's release order).
        if ts < last {
            return Err(Error::OutOfOrder {
                last_us: last.as_micros(),
                got_us: ts.as_micros(),
            });
        }
    }
    if let Some(last) = last_seq {
        if seq != last + 1 {
            return Err(Error::NonContiguousSeq {
                expected: last + 1,
                got: seq,
            });
        }
    }
    Ok(())
}

/// Which pending outputs a release step covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Release {
    /// Everything pending.
    All,
    /// Only ids whose region has completed (the `Earliest` strategy).
    Ready,
}

impl GroupEngine {
    /// Starts building an engine over `schema`.
    pub fn builder(schema: Schema) -> GroupEngineBuilder {
        GroupEngineBuilder {
            schema,
            specs: Vec::new(),
            pinned: Vec::new(),
            algorithm: Algorithm::RegionGreedy,
            strategy: OutputStrategy::Earliest,
            constraint: None,
            predictor_window: RuntimePredictor::DEFAULT_WINDOW,
            overestimate_us: 0.0,
            tier: EvaluatorTier::default(),
        }
    }

    /// The stream schema this engine was built for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The live filter specifications of the group, in [`FilterId`] order
    /// (vacated slots are skipped; see [`roster`](Self::roster) for the
    /// ids).
    pub fn specs(&self) -> Vec<FilterSpec> {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.spec.clone())
            .collect()
    }

    /// The live roster: `(id, spec)` for every occupied slot, ascending by
    /// id. Queued control ops are *not* reflected until they apply.
    pub fn roster(&self) -> Vec<(FilterId, FilterSpec)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .map(|s| (FilterId::from_index(i), s.spec.clone()))
            })
            .collect()
    }

    /// Number of live filters in the group.
    pub fn group_size(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// The configured second-stage algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The first-stage evaluator tier driving this engine.
    pub fn evaluator_tier(&self) -> EvaluatorTier {
        self.tier
    }

    /// The effective group time constraint, if cuts are enabled.
    pub fn time_constraint(&self) -> Option<TimeConstraint> {
        self.constraint
    }

    /// Metrics accumulated over the engine's whole life, across every
    /// epoch (and, for a restored engine, from before its snapshot), with
    /// per-filter counters indexed by stable [`FilterId`].
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Number of completed epochs (control-op applications so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of queued control ops awaiting the next safe point.
    pub fn pending_control_ops(&self) -> usize {
        self.control_queue.len()
    }

    /// Number of tuples currently interned by the engine (live window +
    /// pending outputs). For well-formed streams this stays bounded by the
    /// current region's extent regardless of stream length — the region
    /// cleanup is what makes the engine usable on unbounded streams.
    pub fn buffered_tuples(&self) -> usize {
        self.pool.len()
    }

    /// Number of tuple payloads materialised from columnar batch rows so
    /// far (see [`TuplePool::materializations`]). Payloads materialise
    /// only at emission, so on the columnar path this stays at the
    /// emission count rather than the input count — the steady-state
    /// no-per-tuple-allocation property pinned by the batch regression
    /// tests.
    pub fn tuple_materializations(&self) -> u64 {
        self.pool.materializations()
    }

    /// The output watermark: the stream time up to which every region has
    /// been decided. Under the per-candidate-set output strategy emissions
    /// may arrive out of order (§3.4); this is the "punctuation" a
    /// downstream operator can use to know when reordering is safe —
    /// every output with a timestamp at or before the watermark has been
    /// released.
    pub fn watermark(&self) -> Micros {
        self.watermark
    }

    /// Consumes the engine, returning its lifetime
    /// [`metrics`](Self::metrics) without a copy.
    pub fn into_metrics(self) -> EngineMetrics {
        self.metrics
    }

    // ------------------------------------------------------------------
    // subscription control plane
    // ------------------------------------------------------------------

    /// Queues a new filter for the group, returning its stable
    /// [`FilterId`] immediately. The filter joins at the next safe point
    /// (before the next pushed tuple); until then it sees no input.
    ///
    /// # Errors
    /// [`Error::Finished`] after the stream ended, or any spec/algorithm
    /// validation error ([`GroupEngineBuilder::build`]'s rules).
    pub fn add_filter(&mut self, spec: FilterSpec) -> Result<FilterId, Error> {
        let id = FilterId(self.next_filter_id);
        self.queue_add_at(id, spec)?;
        Ok(id)
    }

    /// Queues an add into an explicit, never-used slot (the sharded
    /// engine mirrors id assignment on the caller thread and replays it
    /// here).
    pub(crate) fn queue_add_at(&mut self, id: FilterId, spec: FilterSpec) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        if id.0 < self.next_filter_id {
            return Err(Error::InvalidConfig {
                reason: format!("filter id {id} was already assigned; ids are never reused"),
            });
        }
        validate_filter(&spec, id, &self.schema, self.algorithm)?;
        self.next_filter_id = id.0 + 1;
        self.control_queue.push(ControlOp::Add(id, spec));
        self.queued_structural += 1;
        Ok(())
    }

    /// Queues the removal of a filter. Applied at the next safe point: the
    /// filter's open candidate set is closed with everything else at the
    /// epoch boundary, its pending outputs are released, its slot becomes
    /// a vacancy and its counters stay in its slot of
    /// [`metrics`](Self::metrics).
    ///
    /// # Errors
    /// [`Error::Finished`], [`Error::UnknownFilter`] for ids that are not
    /// live (counting queued ops), or [`Error::InvalidConfig`] when the
    /// removal would leave the group empty.
    pub fn remove_filter(&mut self, id: FilterId) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        let live = self.projected_roster();
        if !live.contains(&id.0) {
            return Err(Error::UnknownFilter { id });
        }
        if live.len() == 1 {
            return Err(Error::InvalidConfig {
                reason: format!("removing {id} would leave the group empty"),
            });
        }
        self.control_queue.push(ControlOp::Remove(id));
        self.queued_structural += 1;
        Ok(())
    }

    /// Queues a spec replacement for a live filter (same [`FilterId`], new
    /// quality requirement). At the safe point the filter restarts from a
    /// fresh state under the new spec.
    ///
    /// # Errors
    /// [`Error::Finished`], [`Error::UnknownFilter`], or spec validation
    /// errors.
    pub fn update_filter(&mut self, id: FilterId, spec: FilterSpec) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        if !self.projected_live(id) {
            return Err(Error::UnknownFilter { id });
        }
        validate_filter(&spec, id, &self.schema, self.algorithm)?;
        self.control_queue.push(ControlOp::Update(id, spec));
        Ok(())
    }

    /// Whether `id` will be live once the queued ops apply. O(1) while
    /// no structural op is queued; otherwise one pass over the queue
    /// (last structural op on the id wins, matching apply order).
    fn projected_live(&self, id: FilterId) -> bool {
        let mut live = self.slots.get(id.index()).is_some_and(Option::is_some);
        if self.queued_structural == 0 {
            return live;
        }
        for op in &self.control_queue {
            match op {
                ControlOp::Add(i, _) if i.0 == id.0 => live = true,
                ControlOp::Remove(i) if i.0 == id.0 => live = false,
                _ => {}
            }
        }
        live
    }

    /// The roster as it will look once the queued ops apply.
    fn projected_roster(&self) -> BTreeSet<u32> {
        let mut live: BTreeSet<u32> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i as u32)
            .collect();
        for op in &self.control_queue {
            match op {
                ControlOp::Add(id, _) => {
                    live.insert(id.0);
                }
                ControlOp::Remove(id) => {
                    live.remove(&id.0);
                }
                ControlOp::Update(..) => {}
            }
        }
        live
    }

    /// Crosses the epoch boundary: drains all open state (exactly like
    /// [`finish_into`](Self::finish_into), without ending the stream) and
    /// applies the queued roster changes. Retained filters restart fresh,
    /// so the continuation is byte-identical to a static rebuild with the
    /// post-churn roster. The boundary tail stays staged in the scratch
    /// buffer, ahead of whatever the push that crossed the boundary
    /// releases.
    fn apply_control_ops(&mut self) {
        let start = Instant::now();
        let now = self.last_ts.unwrap_or(Micros::ZERO);
        self.drain_open_state(now);
        self.metrics.cpu += start.elapsed();
        self.advance_epoch();
    }

    /// Applies the queued ops to the roster and resets all per-epoch
    /// state; the lifetime metrics carry over, widened to the new slot
    /// count. Must only run with the engine fully drained.
    fn advance_epoch(&mut self) {
        debug_assert!(self.pending.is_empty() && self.releasable.is_empty());
        // The retained specs are moved, not cloned: the old slots are dead
        // (the boundary drained every filter) and the specs come right
        // back in the rebuilt slots.
        let mut specs: Vec<Option<FilterSpec>> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(|s| s.map(|s| s.spec))
            .collect();
        self.queued_structural = 0;
        for op in std::mem::take(&mut self.control_queue) {
            match op {
                ControlOp::Add(id, spec) => {
                    if id.index() >= specs.len() {
                        specs.resize(id.index() + 1, None);
                    }
                    specs[id.index()] = Some(spec);
                }
                ControlOp::Remove(id) => specs[id.index()] = None,
                ControlOp::Update(id, spec) => specs[id.index()] = Some(spec),
            }
        }
        self.slots = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                spec.map(|spec| {
                    let filter = match self.tier {
                        EvaluatorTier::Interpreted => Some(
                            instantiate_filter(
                                &spec,
                                FilterId::from_index(i),
                                &self.schema,
                                self.algorithm,
                            )
                            .expect("control ops are validated when queued"),
                        ),
                        EvaluatorTier::Compiled => None,
                    };
                    FilterSlot { spec, filter }
                })
            })
            .collect();
        // Safe-point recompile: compilation is a pure function of the
        // post-churn roster (vacancy holes preserved).
        self.compiled = match self.tier {
            EvaluatorTier::Compiled => Some(
                compile_slots(&self.slots, &self.schema, self.algorithm)
                    .expect("control ops are validated when queued"),
            ),
            EvaluatorTier::Interpreted => None,
        };
        self.twins = twin_table(self.compiled.as_ref(), self.slots.len());
        self.constraint = effective_constraint(self.explicit_constraint, &self.slots);
        // Per-epoch state restarts exactly like a freshly built engine
        // (the determinism contract depends on it). The pool is already
        // empty — the drain released everything — and the watermark is
        // monotone stream time, so both carry over.
        self.predictor = RuntimePredictor::with_window(self.predictor_window, self.overestimate_us);
        self.utility = GroupUtility::new();
        self.tracker = RegionTracker::new();
        self.recently_decided.clear();
        self.batch_counter = 0;
        self.max_emitted_id = None;
        // Slots never shrink: ids are not reused, a removal leaves a
        // vacancy.
        self.metrics
            .per_filter
            .resize(self.slots.len(), FilterMetrics::default());
        self.epoch += 1;
    }

    // ------------------------------------------------------------------
    // checkpoint / restore
    // ------------------------------------------------------------------

    /// Takes a safe-point snapshot: crosses an epoch boundary — draining
    /// every open candidate set, completing every region and handing the
    /// boundary tail to `sink`, exactly like a queued control op with an
    /// empty op set — then captures the durable state
    /// ([`GroupSnapshot`]): roster (with vacancy holes), epoch counter,
    /// lifetime metrics, stream position and configuration.
    /// Queued control ops apply at this boundary (it *is* the next safe
    /// point) and are reflected in the snapshot.
    ///
    /// Because the boundary restarts retained filters fresh, the
    /// continuation after a snapshot is byte-identical whether it runs on
    /// this engine or on [`restore`](Self::restore)d replica fed the same
    /// suffix — the recovery determinism contract pinned by
    /// `tests/tests/recovery_equivalence.rs`.
    ///
    /// # Errors
    /// Returns [`Error::Finished`] after the stream ended (a finished
    /// engine has no further safe point; its durable state is its final
    /// metrics, which [`into_metrics`](Self::into_metrics) already
    /// serves).
    pub fn snapshot_into<S: EmissionSink>(&mut self, sink: &mut S) -> Result<GroupSnapshot, Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        self.apply_control_ops();
        self.drain_scratch(sink);
        Ok(GroupSnapshot {
            schema: self.schema.clone(),
            algorithm: self.algorithm,
            strategy: self.strategy,
            constraint: self.explicit_constraint,
            predictor_window: self.predictor_window,
            overestimate_us: self.overestimate_us,
            roster: self
                .slots
                .iter()
                .map(|s| s.as_ref().map(|s| s.spec.clone()))
                .collect(),
            next_filter_id: self.next_filter_id,
            epoch: self.epoch,
            metrics: self.metrics.clone(),
            watermark: self.watermark,
            last_ts: self.last_ts,
            last_seq: self.last_seq,
        })
    }

    /// Takes a safe-point snapshot, returning it together with the
    /// boundary-drain emissions.
    ///
    /// Compatibility wrapper over [`snapshot_into`](Self::snapshot_into)
    /// (the emissions are collected through a [`VecSink`]).
    ///
    /// # Errors
    /// Same as [`snapshot_into`](Self::snapshot_into).
    pub fn snapshot(&mut self) -> Result<(GroupSnapshot, Vec<Emission>), Error> {
        let mut out = VecSink::new();
        let snap = self.snapshot_into(&mut out)?;
        Ok((snap, out.into_vec()))
    }

    /// Rebuilds an engine from a safe-point snapshot. The restored engine
    /// is state-equivalent to the engine that took the snapshot at the
    /// moment the boundary passed: same roster (ids, vacancies and the
    /// never-reused id frontier included), same epoch counter and lifetime
    /// metrics, same stream-order frontier — so feeding it the
    /// post-checkpoint suffix reproduces the original run byte for byte.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for a snapshot without live filters, or
    /// any filter-instantiation error ([`GroupEngineBuilder::build`]'s
    /// rules).
    pub fn restore(snap: &GroupSnapshot) -> Result<GroupEngine, Error> {
        GroupEngine::restore_with_tier(snap, EvaluatorTier::default())
    }

    /// [`restore`](Self::restore) with an explicit evaluator tier.
    ///
    /// Snapshots carry no evaluator state at all (the safe-point boundary
    /// drains everything, and compilation is a pure function of the
    /// roster), so any snapshot restores onto either tier — the tier is a
    /// property of the replica, not of the checkpoint.
    ///
    /// # Errors
    /// Same as [`restore`](Self::restore).
    pub fn restore_with_tier(
        snap: &GroupSnapshot,
        tier: EvaluatorTier,
    ) -> Result<GroupEngine, Error> {
        GroupEngine::restore_owned(snap.clone(), tier)
    }

    /// [`restore_with_tier`](Self::restore_with_tier) from a snapshot the
    /// caller gives up: its roster and metrics move into the engine
    /// instead of being copied.
    pub(crate) fn restore_owned(
        snap: GroupSnapshot,
        tier: EvaluatorTier,
    ) -> Result<GroupEngine, Error> {
        if !snap.roster.iter().any(Option::is_some) {
            return Err(Error::InvalidConfig {
                reason: "snapshot holds no live filter".into(),
            });
        }
        let width = snap.roster.len();
        let mut slots: Vec<Option<FilterSlot>> = Vec::with_capacity(width);
        for (i, spec) in snap.roster.into_iter().enumerate() {
            slots.push(match spec {
                Some(spec) => {
                    let filter = match tier {
                        EvaluatorTier::Interpreted => Some(instantiate_filter(
                            &spec,
                            FilterId::from_index(i),
                            &snap.schema,
                            snap.algorithm,
                        )?),
                        // Compilation below validates every spec with
                        // the same errors in the same (ascending-slot)
                        // order.
                        EvaluatorTier::Compiled => None,
                    };
                    Some(FilterSlot { spec, filter })
                }
                None => None,
            });
        }
        let compiled = match tier {
            EvaluatorTier::Compiled => Some(compile_slots(&slots, &snap.schema, snap.algorithm)?),
            EvaluatorTier::Interpreted => None,
        };
        let constraint = effective_constraint(snap.constraint, &slots);
        let mut metrics = snap.metrics;
        metrics.per_filter.resize(width, FilterMetrics::default());
        Ok(GroupEngine {
            schema: snap.schema,
            slots,
            tier,
            twins: twin_table(compiled.as_ref(), width),
            compiled,
            step: StepActions::default(),
            algorithm: snap.algorithm,
            strategy: snap.strategy,
            explicit_constraint: snap.constraint,
            constraint,
            predictor_window: snap.predictor_window,
            overestimate_us: snap.overestimate_us,
            predictor: RuntimePredictor::with_window(snap.predictor_window, snap.overestimate_us),
            utility: GroupUtility::new(),
            tracker: RegionTracker::new(),
            cover_buf: OpenCovers::default(),
            ready_buf: Vec::new(),
            ids_buf: Vec::new(),
            weights_buf: Vec::new(),
            solver: GreedySolver::default(),
            pool: TuplePool::new(),
            pending: BTreeMap::new(),
            releasable: BTreeSet::new(),
            recently_decided: HashSet::new(),
            batch_counter: 0,
            watermark: snap.watermark,
            max_emitted_id: None,
            last_ts: snap.last_ts,
            last_seq: snap.last_seq,
            finished: false,
            scratch: Vec::new(),
            control_queue: Vec::new(),
            queued_structural: 0,
            next_filter_id: snap.next_filter_id,
            epoch: snap.epoch,
            metrics,
        })
    }

    /// Feeds the next stream tuple, writing the emissions released by this
    /// step (possibly none) into `sink`.
    ///
    /// This is the primary, allocation-free ingest path: emissions are
    /// staged in a reusable scratch buffer and handed to the sink as one
    /// [`accept_batch`](EmissionSink::accept_batch) call after the engine's
    /// CPU clock stops.
    ///
    /// # Errors
    /// * [`Error::Finished`] after [`finish_into`](Self::finish_into),
    /// * [`Error::OutOfOrder`] / [`Error::NonContiguousSeq`] for ordering
    ///   violations,
    /// * [`Error::MissingValue`] when the tuple lacks an attribute a filter
    ///   needs.
    pub fn push_into<S: EmissionSink>(&mut self, tuple: Tuple, sink: &mut S) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        // Ordering is validated *before* the safe point: a rejected tuple
        // must not advance the epoch (the queued ops stay queued and apply
        // on the next accepted tuple's boundary instead).
        validate_stream_order(self.last_ts, self.last_seq, tuple.timestamp(), tuple.seq())?;
        // Safe point: queued roster changes apply on the boundary before
        // this tuple (the previous epoch's tail reaches the sink first).
        if !self.control_queue.is_empty() {
            self.apply_control_ops();
        }
        let staged = self.stage_row(tuple);
        self.drain_scratch(sink);
        staged
    }

    /// Runs one (order-validated) tuple through the per-row step, leaving
    /// what it releases staged in the scratch buffer.
    fn stage_row(&mut self, tuple: Tuple) -> Result<(), Error> {
        let start = Instant::now();
        let now = tuple.timestamp();
        // Intern once: the pool owns the payload, everything downstream
        // carries the id.
        let (id, tuple) = self.pool.intern(tuple);
        self.begin_row(id, now);

        // First stage: candidate admission (vacant slots are skipped).
        // The compiled tier runs the whole roster in one fused pass and
        // replays the recorded step; the interpreted tier — the reference
        // the compiled one is tested against — makes one virtual call per
        // filter. Both produce byte-identical state.
        if let Some(compiled) = self.compiled.as_mut() {
            compiled.process_tuple(&tuple, &mut self.step)?;
            self.replay_step(id, now);
        } else {
            for i in 0..self.slots.len() {
                let Some(slot) = self.slots[i].as_mut() else {
                    continue;
                };
                let action = slot
                    .filter
                    .as_mut()
                    .expect("interpreted tier holds filter objects")
                    .process(&tuple)?;
                self.apply_action(i, id, now, action);
            }
        }
        self.finish_row(id, now);
        self.metrics.cpu += start.elapsed();
        Ok(())
    }

    /// Ends the stream: force-closes all open candidate sets, completes the
    /// remaining regions, writes everything still pending into `sink` and
    /// calls [`flush`](EmissionSink::flush) on it.
    ///
    /// # Errors
    /// Returns [`Error::Finished`] if called twice.
    pub fn finish_into<S: EmissionSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        let start = Instant::now();
        if self.finished {
            return Err(Error::Finished);
        }
        self.finished = true;
        // Control ops still queued at end-of-stream never apply: the
        // stream has no further safe point (a rebuilt roster would close
        // immediately without seeing input anyway).
        self.control_queue.clear();
        self.queued_structural = 0;
        let now = self.last_ts.unwrap_or(Micros::ZERO);
        self.drain_open_state(now);
        self.metrics.cpu += start.elapsed();
        self.drain_scratch(sink);
        sink.flush();
        Ok(())
    }

    /// Feeds a batch of tuples into `sink` without per-tuple caller
    /// dispatch — the slice-friendly entry point for sources and the bench
    /// harness. The stream stays open; call
    /// [`finish_into`](Self::finish_into) to end it.
    ///
    /// # Errors
    /// Stops at (and returns) the first tuple that fails, like
    /// [`push_into`](Self::push_into).
    pub fn push_batch<S: EmissionSink>(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
        sink: &mut S,
    ) -> Result<(), Error> {
        for t in tuples {
            self.push_into(t, sink)?;
        }
        Ok(())
    }

    /// Feeds a columnar [`TupleBatch`] through the batch-native hot path,
    /// writing everything the batch releases into `sink`.
    ///
    /// Byte-identical to [`push_into`](Self::push_into) on each
    /// materialised row (pinned by `tests/tests/batch_equivalence.rs`),
    /// but evaluated column-at-a-time: the compiled roster derives every
    /// CSE key class over whole columns first, rows are interned lazily
    /// (payloads materialise only if emitted), and each row's fused pass
    /// drops its admission mask into the existing bitset machinery with
    /// one bulk utility probe. Queued control ops apply at the boundary
    /// before the batch — a batch is never split by a safe point.
    ///
    /// On the interpreted tier the batch is simply replayed row by row
    /// through the reference path. A row whose key derivation fails (a
    /// missing value) is also delegated to the reference path, which
    /// reproduces the exact per-tuple error and partial state.
    ///
    /// # Errors
    /// Same contract as [`push_into`](Self::push_into), plus
    /// [`Error::SchemaMismatch`] when the batch width differs from the
    /// engine schema. Everything released before a failing row still
    /// reaches `sink`.
    pub fn push_batch_columnar<S: EmissionSink>(
        &mut self,
        batch: &Arc<TupleBatch>,
        sink: &mut S,
    ) -> Result<(), Error> {
        let result = self.push_columnar_rows(batch, |_| {});
        self.drain_scratch(sink);
        result
    }

    /// The columnar ingest body. `per_row` observes the scratch buffer
    /// after every row: a no-op when the whole batch drains into one
    /// sink, a move for the sharded worker, whose merge layer needs each
    /// row's emissions as their own step to keep its `(input step, route)`
    /// ordering across routes. Emissions from a safe-point boundary
    /// crossed by this batch are staged ahead of the first row's —
    /// exactly where the per-tuple path drains them.
    ///
    /// On error, `per_row` has seen every row completed before the
    /// failing one (which contributes no call).
    pub(crate) fn push_columnar_rows(
        &mut self,
        batch: &Arc<TupleBatch>,
        mut per_row: impl FnMut(&mut Vec<Emission>),
    ) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.validate_batch_head(batch)?;
        if !self.control_queue.is_empty() {
            self.apply_control_ops();
        }
        // Compiled tier: derive key columns for the derivable prefix,
        // bulk-intern those rows, then run the per-row step over the
        // pre-derived columns.
        let start = Instant::now();
        let ok = self
            .compiled
            .as_mut()
            .map_or(0, |compiled| compiled.derive_batch(batch));
        self.pool.intern_rows(batch, ok);
        for r in 0..ok {
            let now = batch.timestamp(r);
            let id = TupleId::from_seq(batch.seq(r));
            self.begin_row(id, now);
            self.compiled
                .as_mut()
                .expect("only the compiled tier derives rows")
                .evaluate_row(r, id, now, &mut self.step);
            self.replay_step(id, now);
            self.finish_row(id, now);
            per_row(&mut self.scratch);
        }
        self.metrics.cpu += start.elapsed();
        // Interpreted tier, and any row whose key derivation fails: the
        // row-form step, which reproduces the exact per-tuple error.
        for r in ok..batch.rows() {
            self.stage_row(batch.materialize_row(r))?;
            per_row(&mut self.scratch);
        }
        Ok(())
    }

    /// Head-of-batch admission checks: width against the engine schema,
    /// stream order of row 0 against the engine frontier. Rows past the
    /// head were validated by the batch constructor (contiguous seqs,
    /// non-decreasing timestamps), so no per-row check remains.
    fn validate_batch_head(&self, batch: &TupleBatch) -> Result<(), Error> {
        if batch.schema().len() != self.schema.len() {
            return Err(Error::SchemaMismatch {
                expected: self.schema.len(),
                actual: batch.schema().len(),
            });
        }
        validate_stream_order(
            self.last_ts,
            self.last_seq,
            batch.timestamp(0),
            batch.seq(0),
        )
    }

    /// Runs an entire stream through the engine into `sink`
    /// ([`push_batch`](Self::push_batch) followed by
    /// [`finish_into`](Self::finish_into)).
    ///
    /// # Errors
    /// Propagates any push/finish error.
    pub fn run_into<S: EmissionSink>(
        &mut self,
        stream: impl IntoIterator<Item = Tuple>,
        sink: &mut S,
    ) -> Result<(), Error> {
        self.push_batch(stream, sink)?;
        self.finish_into(sink)
    }

    /// Feeds the next stream tuple; returns the emissions released by this
    /// step (possibly empty).
    ///
    /// Compatibility wrapper over [`push_into`](Self::push_into) — it
    /// clones every emission into a fresh `Vec` via [`VecSink`]. Prefer the
    /// sink path on hot paths.
    ///
    /// # Errors
    /// Same as [`push_into`](Self::push_into).
    pub fn push(&mut self, tuple: Tuple) -> Result<Vec<Emission>, Error> {
        let mut out = VecSink::new();
        self.push_into(tuple, &mut out)?;
        Ok(out.into_vec())
    }

    /// Ends the stream, returning everything still pending.
    ///
    /// Compatibility wrapper over [`finish_into`](Self::finish_into).
    ///
    /// # Errors
    /// Returns [`Error::Finished`] if called twice.
    pub fn finish(&mut self) -> Result<Vec<Emission>, Error> {
        let mut out = VecSink::new();
        self.finish_into(&mut out)?;
        Ok(out.into_vec())
    }

    /// Runs an entire stream through the engine, returning all emissions.
    ///
    /// Compatibility wrapper over [`run_into`](Self::run_into).
    ///
    /// # Errors
    /// Propagates any [`push`](Self::push)/[`finish`](Self::finish) error.
    pub fn run<I: IntoIterator<Item = Tuple>>(
        &mut self,
        stream: I,
    ) -> Result<Vec<Emission>, Error> {
        let mut out = VecSink::new();
        self.run_into(stream, &mut out)?;
        Ok(out.into_vec())
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Force-closes every open candidate set, completes the remaining
    /// regions and stages everything pending into the scratch buffer —
    /// the shared tail-drain of [`finish_into`](Self::finish_into) and
    /// the epoch boundary.
    fn drain_open_state(&mut self, now: Micros) {
        for i in 0..self.slots.len() {
            if self.slots[i].is_none() {
                continue;
            }
            let outcome = self.force_close_slot(i, CloseCause::EndOfStream);
            self.handle_force_outcome(i, now, outcome);
        }
        for region in self.tracker.drain_all() {
            self.complete_region(region, now);
        }
        self.release_to_scratch(now, Release::All);
    }

    fn per_filter_cuts(&mut self, now: Micros) {
        for i in 0..self.slots.len() {
            let Some(slot) = self.slots[i].as_ref() else {
                continue;
            };
            let budget = slot
                .spec
                .latency_tolerance
                .or(self.constraint.map(|c| c.max_delay));
            let (Some(budget), Some(cover)) = (budget, self.open_cover_of(i)) else {
                continue;
            };
            if now.saturating_sub(cover.min) >= budget {
                let outcome = self.force_close_slot(i, CloseCause::Cut);
                self.handle_force_outcome(i, now, outcome);
            }
        }
    }

    fn cut_all(&mut self, now: Micros) {
        for i in 0..self.slots.len() {
            if self.slots[i].is_none() {
                continue;
            }
            let outcome = self.force_close_slot(i, CloseCause::Cut);
            self.handle_force_outcome(i, now, outcome);
        }
    }

    fn handle_force_outcome(&mut self, i: usize, now: Micros, outcome: ForceCloseOutcome) {
        self.handle_dismissed(i, &outcome.dismissed);
        if let Some(set) = outcome.closed {
            self.handle_closed_set(i, now, set);
        }
    }

    /// Opens the per-row step, shared by every tier and ingest shape:
    /// advances the stream frontier and runs the per-filter timely cuts
    /// (PS+C), which are checked *before* admitting the new tuple —
    /// "admitting a new tuple will likely violate the time constraint"
    /// (§3.3, Fig. 3.5).
    fn begin_row(&mut self, id: TupleId, now: Micros) {
        self.last_ts = Some(now);
        self.last_seq = Some(id.seq());
        self.metrics.input_tuples += 1;
        if self.algorithm == Algorithm::PerCandidateSet {
            self.per_filter_cuts(now);
        }
    }

    /// Closes the per-row step once the first stage has admitted the
    /// tuple: the group timely cut (RG+C, checked after admission —
    /// Fig. 3.3), the second stage over any regions that became ready,
    /// release staging, and the drop of a tuple nothing references.
    fn finish_row(&mut self, id: TupleId, now: Micros) {
        if self.algorithm == Algorithm::RegionGreedy {
            self.maybe_cut_all(now);
        }
        self.drain_regions(now);
        self.flush_to_scratch(now);
        self.maybe_drop(id);
    }

    /// Replays the fused pass recorded in `self.step` into the engine's
    /// bookkeeping: the admission mask's weight (one bit per twin class)
    /// lands on the new tuple as one bulk utility probe, references
    /// follow as a block scan, and only the (rare) events walk slot by
    /// slot, each booked for the leader's whole class. Byte-identical to the
    /// interpreted tier's per-slot [`apply_action`](Self::apply_action)
    /// loop because a step's closed sets and dismissals never involve the
    /// current tuple (window seal precedes push, the delta vicinity seal
    /// excludes the current tuple, and dismissals prune previously
    /// admitted ids), so hoisting its admissions and references commutes
    /// with the events — which keep their ascending slot order,
    /// preserving the dismissal-before-decision interleaving that group
    /// utilities see.
    fn replay_step(&mut self, id: TupleId, now: Micros) {
        let mut step = std::mem::take(&mut self.step);
        let mut admissions = 0u32;
        for leader in step.admitted.iter() {
            let class = self.twins.class(leader.index());
            for &f in class {
                self.metrics.per_filter[f as usize].admitted += 1;
            }
            admissions += class.len() as u32;
        }
        self.utility.increment_by(id, admissions);
        for leader in step.references.iter() {
            let i = leader.index();
            let emits =
                self.algorithm == Algorithm::SelfInterested && self.si_emits_at_reference(i);
            for &f in self.twins.class(i) {
                let booked = &mut self.metrics.per_filter[f as usize];
                booked.references += 1;
                booked.chosen += u64::from(emits);
            }
            if emits {
                self.enqueue(id, leader);
            }
        }
        for (slot, ev) in step.events.drain(..) {
            let i = slot as usize;
            self.handle_dismissed(i, &step.dismissed[ev.dismissed]);
            if let Some(set) = ev.closed {
                self.handle_closed_set(i, now, set);
            }
        }
        self.step = step; // hand the allocations back for reuse
    }

    fn apply_action(&mut self, i: usize, id: TupleId, now: Micros, action: FilterAction) {
        if action.reference {
            self.metrics.per_filter[i].references += 1;
            if self.algorithm == Algorithm::SelfInterested && self.si_emits_at_reference(i) {
                self.enqueue(id, FilterId::from_index(i));
                self.metrics.per_filter[i].chosen += 1;
            }
        }
        for d in action.dismissed {
            self.metrics.per_filter[i].dismissed += 1;
            self.utility.decrement(d);
            self.maybe_drop(d);
        }
        if action.admitted {
            self.metrics.per_filter[i].admitted += 1;
            self.utility.increment(id);
        }
        if let Some(set) = action.closed {
            self.handle_closed_set(i, now, set);
        }
    }

    /// Books the ids the member in slot `i` dismissed from its open set,
    /// for every filter of its class.
    fn handle_dismissed(&mut self, i: usize, dismissed: &[TupleId]) {
        for &f in self.twins.class(i) {
            self.metrics.per_filter[f as usize].dismissed += dismissed.len() as u64;
        }
        let weight = self.twins.weight(i);
        for &id in dismissed {
            self.utility.decrement_by(id, weight);
            self.maybe_drop(id);
        }
    }

    /// Takes a set the member in slot `i` closed — the set of every
    /// filter of its class — into the second stage.
    fn handle_closed_set(&mut self, i: usize, now: Micros, set: crate::candidate::ClosedSet) {
        let weight = self.twins.weight(i);
        // What a self-interested filter that did not already emit at its
        // reference (a sampler) outputs for this set.
        let si_choice: &[TupleId] = match self.algorithm {
            Algorithm::SelfInterested if !self.si_emits_at_reference(i) => &set.si_choice,
            _ => &[],
        };
        for &f in self.twins.class(i) {
            let booked = &mut self.metrics.per_filter[f as usize];
            booked.sets_closed += 1;
            booked.sets_cut += u64::from(set.cause == CloseCause::Cut);
            booked.chosen += si_choice.len() as u64;
        }
        match self.algorithm {
            Algorithm::SelfInterested => {
                for &id in si_choice {
                    self.enqueue(id, set.filter);
                }
                for c in &set.candidates {
                    self.utility.decrement_by(c.id, weight);
                }
                for c in &set.candidates {
                    self.maybe_drop(c.id);
                }
            }
            Algorithm::PerCandidateSet => {
                let chosen = decide::decide_outputs(&set, &self.utility, &self.recently_decided);
                self.metrics.per_filter[i].chosen += chosen.len() as u64;
                if self.slot_is_stateful(i) {
                    if let Some(&first) = chosen.first() {
                        let key = set
                            .candidates
                            .iter()
                            .find(|c| c.id == first)
                            .map(|c| c.key)
                            .unwrap_or_default();
                        self.notify_output_chosen(i, first, key);
                    }
                }
                for &id in &chosen {
                    self.enqueue(id, set.filter);
                    self.recently_decided.insert(id);
                }
                for c in &set.candidates {
                    self.utility.decrement(c.id);
                }
                let _ = now;
                self.tracker.add(set);
            }
            Algorithm::RegionGreedy => {
                self.tracker.add_weighted(set, weight as usize);
            }
        }
    }

    /// The live trait object in slot `i` (interpreted tier only; panics
    /// on vacancies — callers only reach here for ids that produced an
    /// event this epoch).
    fn slot_filter(&self, i: usize) -> &dyn GroupFilter {
        self.slots[i]
            .as_ref()
            .expect("events only come from occupied slots")
            .filter
            .as_ref()
            .expect("interpreted tier holds filter objects")
            .as_ref()
    }

    // ------------------------------------------------------------------
    // tier dispatch: each per-slot query/command goes to the compiled
    // arenas or to the slot's trait object, whichever tier is live
    // ------------------------------------------------------------------

    fn si_emits_at_reference(&self, i: usize) -> bool {
        match &self.compiled {
            Some(c) => c.si_emits_at_reference(i),
            None => self.slot_filter(i).si_emits_at_reference(),
        }
    }

    fn slot_is_stateful(&self, i: usize) -> bool {
        match &self.compiled {
            Some(c) => c.is_stateful(i),
            None => self.slot_filter(i).is_stateful(),
        }
    }

    fn notify_output_chosen(&mut self, i: usize, first: TupleId, key: f64) {
        match &mut self.compiled {
            Some(c) => c.output_chosen(i, key),
            None => self.slots[i]
                .as_mut()
                .expect("closed sets come from occupied slots")
                .filter
                .as_mut()
                .expect("interpreted tier holds filter objects")
                .output_chosen(first, key),
        }
    }

    fn force_close_slot(&mut self, i: usize, cause: CloseCause) -> ForceCloseOutcome {
        match &mut self.compiled {
            Some(c) => c.force_close(i, cause),
            None => match self.slots[i].as_mut() {
                Some(slot) => slot
                    .filter
                    .as_mut()
                    .expect("interpreted tier holds filter objects")
                    .force_close(cause),
                None => ForceCloseOutcome::default(),
            },
        }
    }

    fn open_cover_of(&self, i: usize) -> Option<TimeCover> {
        match &self.compiled {
            Some(c) => c.open_cover(i),
            None => self.slots[i]
                .as_ref()?
                .filter
                .as_ref()
                .expect("interpreted tier holds filter objects")
                .open_cover(),
        }
    }

    fn open_len_of(&self, i: usize) -> usize {
        match &self.compiled {
            Some(c) => c.open_len(i),
            None => self.slots[i].as_ref().map_or(0, |s| {
                s.filter
                    .as_ref()
                    .expect("interpreted tier holds filter objects")
                    .open_len()
            }),
        }
    }

    /// The RG+C group timely cut (Fig. 3.3), shared by the per-tuple and
    /// columnar ingest paths: force-close everything when the open span
    /// plus the predicted greedy run time would breach the constraint.
    fn maybe_cut_all(&mut self, now: Micros) {
        if let Some(c) = self.constraint {
            if let Some(oldest) = self.oldest_pending_candidate() {
                let predicted = self.predictor.predict(self.pending_candidates() + 1);
                let span = now.saturating_sub(oldest);
                if span.checked_add(predicted).is_none_or(|t| t >= c.max_delay) {
                    self.cut_all(now);
                }
            }
        }
    }

    /// Second stage: solves/completes the regions that became ready.
    /// The one tier-dependent line is where the open covers come from:
    /// the index the compiled roster maintains as it goes, or one filled
    /// here from a scan of the interpreted tier's slots — the same covers
    /// by the same slots either way.
    fn drain_regions(&mut self, now: Micros) {
        if !self.tracker.any_time_ready(now) {
            return;
        }
        let open = match &self.compiled {
            Some(compiled) => compiled.open_covers(),
            None => {
                self.cover_buf.reset(self.slots.len());
                for (i, slot) in self.slots.iter().enumerate() {
                    let filter = slot.as_ref().and_then(|s| s.filter.as_ref());
                    self.cover_buf
                        .update(i, filter.and_then(|f| f.open_cover()));
                }
                &self.cover_buf
            }
        };
        let mut ready = std::mem::take(&mut self.ready_buf);
        self.tracker.drain_ready_into(open, now, &mut ready);
        for region in ready.drain(..) {
            self.complete_region(region, now);
        }
        self.ready_buf = ready;
    }

    fn complete_region(&mut self, region: Region, _now: Micros) {
        self.watermark = self.watermark.max(region.cover().max);
        self.metrics.regions += 1;
        self.metrics.region_size.record(region.size() as u64);
        if region.was_cut() {
            self.metrics.regions_cut += 1;
        }
        // The distinct-id universe serves both the solver and the cleanup
        // below — collected once per region.
        let mut ids = std::mem::take(&mut self.ids_buf);
        collect_distinct_ids(region.sets(), &mut ids);
        if self.algorithm == Algorithm::RegionGreedy {
            let mut solver = std::mem::take(&mut self.solver);
            let mut weights = std::mem::take(&mut self.weights_buf);
            weights.clear();
            weights.extend((region.sets().iter()).map(|s| self.twins.weight(s.filter.index())));
            let t0 = Instant::now();
            solver.solve(region.sets(), &weights, &ids);
            let elapsed = t0.elapsed();
            self.metrics.greedy_cpu += elapsed;
            self.predictor
                .observe(region.size(), Micros(elapsed.as_micros() as u64));
            for (id, covers) in solver.choices() {
                let recipients = self.pending.entry(id).or_default();
                for &si in covers {
                    for &f in self.twins.class(region.sets()[si].filter.index()) {
                        recipients.insert(FilterId(f));
                        self.metrics.per_filter[f as usize].chosen += 1;
                    }
                }
            }
            self.solver = solver;
            self.weights_buf = weights;
        }
        // Cleanup: tuples of a completed region can never appear in a
        // future candidate set (their covers would intersect the region's),
        // so their ids leave every engine structure here — this is the
        // moment the id-stability window of `crate::tuple` ends.
        for &id in &ids {
            self.utility.remove(id);
            self.recently_decided.remove(&id);
            if self.pending.contains_key(&id) {
                self.releasable.insert(id);
            } else {
                self.pool.release(id);
            }
        }
        self.ids_buf = ids;
        // The region's lists go back to where they came from.
        let mut sets = region.into_sets();
        if let Some(compiled) = self.compiled.as_mut() {
            for set in sets.drain(..) {
                compiled.recycle(set);
            }
        }
        self.tracker.recycle(sets);
    }

    /// Labels the pending output `id` for every filter of the class
    /// `leader` leads.
    fn enqueue(&mut self, id: TupleId, leader: FilterId) {
        let recipients = self.pending.entry(id).or_default();
        for &f in self.twins.class(leader.index()) {
            recipients.insert(FilterId(f));
        }
    }

    /// Drops a tuple from the pool once nothing can reference it again.
    fn maybe_drop(&mut self, id: TupleId) {
        if self.utility.get(id) == 0
            && !self.pending.contains_key(&id)
            && !self.recently_decided.contains(&id)
        {
            self.pool.release(id);
        }
    }

    /// Stages this push step's releases into the scratch buffer, honouring
    /// the output strategy.
    fn flush_to_scratch(&mut self, now: Micros) {
        match (self.algorithm, self.strategy) {
            (Algorithm::SelfInterested, _) => self.release_to_scratch(now, Release::All),
            (_, OutputStrategy::PerCandidateSet) => self.release_to_scratch(now, Release::All),
            (_, OutputStrategy::Batched(n)) => {
                self.batch_counter += 1;
                if self.batch_counter >= n {
                    self.batch_counter = 0;
                    self.release_to_scratch(now, Release::All);
                }
            }
            (_, OutputStrategy::Earliest) => self.release_to_scratch(now, Release::Ready),
        }
    }

    /// Releases pending outputs into the scratch buffer. The buffer's
    /// allocation is reused across pushes; the recipient sets are moved out
    /// of `pending`, so releasing performs no allocation at all.
    fn release_to_scratch(&mut self, now: Micros, which: Release) {
        match which {
            Release::All => {
                while let Some((id, recipients)) = self.pending.pop_first() {
                    self.releasable.remove(&id);
                    self.emit_to_scratch(id, recipients, now);
                }
            }
            Release::Ready => {
                while let Some(id) = self.releasable.pop_first() {
                    let Some(recipients) = self.pending.remove(&id) else {
                        continue;
                    };
                    self.emit_to_scratch(id, recipients, now);
                }
            }
        }
    }

    /// Builds one emission (with all release-side accounting) onto the
    /// scratch buffer.
    fn emit_to_scratch(&mut self, id: TupleId, recipients: FilterSet, now: Micros) {
        // `resolve`, not `get`: rows interned from a columnar batch
        // materialise their payload here, at emission, and only here.
        let Some(tuple) = self.pool.resolve(id) else {
            debug_assert!(false, "pending tuple {id} missing from pool");
            return;
        };
        self.metrics.emissions += 1;
        self.metrics.recipient_labels += recipients.len() as u64;
        if self.max_emitted_id.is_some_and(|m| id < m) {
            self.metrics.disordered_emissions += 1;
        }
        self.max_emitted_id = Some(self.max_emitted_id.map_or(id, |m| m.max(id)));
        if self.pool.mark_emitted(id) {
            self.metrics.output_tuples += 1;
        }
        self.metrics
            .latency_us
            .record(now.saturating_sub(tuple.timestamp()).as_micros());
        // The tuple may still be re-chosen while its region is
        // incomplete (per-candidate-set strategy); region completion
        // releases it from the pool for good.
        if self.utility.get(id) == 0 && !self.recently_decided.contains(&id) {
            self.pool.release(id);
        }
        self.scratch.push(Emission {
            tuple,
            recipients,
            emitted_at: now,
        });
    }

    /// Hands the staged emissions to the sink and recycles the buffer.
    /// Runs after the CPU clock stops so sink-side work (multicast,
    /// collection) never counts as filtering cost.
    fn drain_scratch<S: EmissionSink>(&mut self, sink: &mut S) {
        if !self.scratch.is_empty() {
            sink.accept_batch(&self.scratch);
            self.scratch.clear();
        }
    }

    fn oldest_pending_candidate(&self) -> Option<Micros> {
        let open_min = (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .filter_map(|i| self.open_cover_of(i))
            .map(|c| c.min)
            .min();
        match (self.tracker.earliest_pending(), open_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn pending_candidates(&self) -> usize {
        self.tracker.pending_candidates()
            + (0..self.slots.len())
                .filter(|&i| self.slots[i].is_some())
                .map(|i| self.open_len_of(i) * self.twins.weight(i) as usize)
                .sum::<usize>()
    }
}
