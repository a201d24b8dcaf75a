//! Sharded multi-threaded execution behind the sink seam.
//!
//! A [`GroupEngine`] is inherently single-threaded: candidate admission is
//! a sequential scan of the stream and the shared global state (utilities,
//! regions, pending outputs) is one group's state. What *does* parallelise
//! is the filter-group population: independent groups share nothing but
//! the input stream. [`ShardedEngine`] exploits exactly that — it hosts
//! any number of *routes* (one [`GroupEngine`] each, identified by a
//! string key), deals the routes round-robin over `N` worker shards
//! (route `i` on shard `i mod N`), and fans every input tuple out to the
//! shards. Each shard is a plain OS thread running its engines
//! single-threaded, fed by a bounded channel (backpressure, bounded
//! memory), and the emissions stream back to the caller where they are
//! **merged in deterministic sequence order** — input step first, route
//! index second — into any [`EmissionSink`].
//!
//! ```text
//!                      ┌─ shard 0 ── GroupEngine(route 0), GroupEngine(route 3) ─┐
//!   batch ──broadcast──┼─ shard 1 ── GroupEngine(route 1), GroupEngine(route 4) ─├─ merge ─▶ EmissionSink
//!   (bounded channels) └─ shard 2 ── GroupEngine(route 2)                        ┘ (step, route) order
//! ```
//!
//! Because the merge order depends only on `(input step, route index)` and
//! never on shard count, timing, or batch boundaries, the output byte
//! sequence is **identical for every parallelism level** — and for a
//! single route it is byte-for-byte the output of running that
//! [`GroupEngine`] directly (`tests/tests/sink_equivalence.rs` pins both
//! properties across every `Algorithm` × `OutputStrategy` combination).
//! One qualification: the guarantee covers every configuration in which
//! the hosted engines are themselves input-deterministic. Under a
//! [`TimeConstraint`](crate::cuts::TimeConstraint), timely-cut decisions
//! consult the wall-clock-trained run-time predictor, so *any* two runs —
//! inline or sharded — may cut at different points; sharding adds no new
//! nondeterminism, but cannot remove the clock from that path either.
//!
//! In `gasf-solar`'s middleware a source owns one such engine and its
//! routes are the source's *parts* (the filter groups a regroup splits
//! its subscribers into), so a multi-part source's emissions reach the
//! subscribers in `(row, part)` order whatever the run size or
//! parallelism. A route whose last filter is removed stays *dormant*: it
//! drains at its next safe point, then emits nothing until a filter is
//! added to it again.
//!
//! Parallelism `0` spawns no thread: every route sits on one *inline*
//! shard that the caller thread steps inside each send, so a push merges
//! before it returns. Merge, barrier, control mirror, step costs and
//! snapshots are one code path at every parallelism; only the private
//! send and receive helpers tell a worker from the inline shard.
//!
//! ## Batching and delivery latency
//!
//! [`push_batch_columnar`](ShardedEngine::push_batch_columnar) — the one
//! data entry — ships the caller's [`TupleBatch`] to the shards as one
//! shared `Arc`: one hand-off per shard per call, and nothing staged on
//! the way in. A caller that wants the hand-off amortised pushes the rows
//! it holds as one batch; one-row batches pay a hand-off per row. The
//! library hides no input buffer, because no timer would bound its flush:
//! a slow source would wait on rows that have not arrived yet, and its
//! worker would see no tuple to fire a timely cut on.
//!
//! Two batches are kept in flight per worker before the caller blocks and
//! merges, so a step's emissions reach the sink at most three batches *of
//! the caller's own size* after the push that released them (and always by
//! [`finish_into`](ShardedEngine::finish_into)); an inline engine delivers
//! them before the push returns. The emission *sequence* is unaffected;
//! only the sink-call boundaries move.
//!
//! ## The reply layout
//!
//! A worker answers a batch with **one** emission vector: each route
//! consumes the whole batch in turn, and every row that emits appends its
//! emissions (moved out of the engine's release buffer, which keeps its
//! capacity) plus one `(row, route, end)` run marking where they end.
//! The caller sorts every shard's runs by `(row, route)` and hands the
//! sink **one [`accept_route`](EmissionSink::accept_route) per contiguous
//! run of one route in one reply**, tagged with that route — a single
//! call per batch when one route is hosted, since its runs are already
//! in row order. Barrier tails reach the sink the same way, one call per
//! route in route order. Nothing in the reply is allocated per row. A route
//! failure voids the runs at and past the failing `(row, route)` in every
//! shard's reply, and nothing merged after it is delivered — exactly
//! where feeding the routes one tuple at a time would have stopped.
//!
//! ## Checkpoint barriers and fail-stop workers
//!
//! [`checkpoint`](ShardedEngine::checkpoint) and
//! [`finish_into`](ShardedEngine::finish_into) are one barrier: merge
//! everything in flight, send every shard one barrier message, collect
//! every shard's reply, deliver the tails in route order. A checkpoint
//! hands the caller the only copy of the routes' snapshots; the engine
//! keeps none and logs no input.
//!
//! Workers are fail-stop. Before the stream ends a worker thread ends
//! only by a panic, and the engine is deterministic, so running the same input again would panic
//! again. The first send or receive that finds a worker's channel
//! disconnected joins the worker and poisons the engine with
//! [`Error::ShardFailed`], which carries the panic message. Nothing merged
//! from then on reaches a sink, and every later push, control op,
//! checkpoint and finish returns that error; finish and drop still join
//! every worker. Recovery is [`restore`](ShardedEngine::restore) from the
//! last checkpoint plus a replay of the caller's own log of the suffix,
//! which reproduces the fault-free run byte for byte.
//!
//! ## Errors
//!
//! Stream-order violations ([`Error::OutOfOrder`] /
//! [`Error::NonContiguousSeq`]), a batch of the wrong width
//! ([`Error::SchemaMismatch`]) and [`Error::Finished`] are rejected
//! eagerly on the caller thread, exactly like [`GroupEngine`], and leave
//! the engine usable. Errors
//! raised inside a shard (e.g. [`Error::MissingValue`]) surface on the
//! next merge — emissions already released by other steps are still
//! delivered, then the first error in `(step, route)` order is returned
//! and the engine refuses further input.

use crate::batch::TupleBatch;
use crate::candidate::FilterId;
use crate::engine::{ControlOp, Emission, GroupEngine, GroupEngineBuilder};
use crate::error::Error;
use crate::metrics::EngineMetrics;
use crate::quality::FilterSpec;
use crate::schema::Schema;
use crate::sink::{EmissionSink, VecSink};
use crate::snapshot::{EngineSnapshot, GroupSnapshot};
use crate::time::Micros;
use std::collections::{BTreeSet, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Non-empty emission batches tagged with their route, in ascending route
/// order.
type RouteBatches = Vec<(u32, Vec<Emission>)>;

/// Worker → caller reply for one input batch: one flat emission vector
/// and the runs that cut it into `(row, route)` steps.
#[derive(Debug)]
struct BatchReply {
    /// Every emitting step's emissions, appended in the order the worker
    /// ran them: route by route, rows ascending within a route.
    emissions: Vec<Emission>,
    /// One `(row, route, end)` per emitting step, in `emissions` order:
    /// the step's emissions are `emissions[start..end]`, where `start` is
    /// the previous run's `end` (0 for the first run).
    runs: Vec<(u32, u32, u32)>,
    /// Rows the shard completed a step for: the batch's rows, up to and
    /// including the failing row after an error, none while poisoned.
    steps: usize,
    /// What each step cost on the shard (all of its routes): the batch's
    /// wall clock divided evenly across its rows.
    cpu: Duration,
    /// First failure, as (step offset in batch, route index, error). Runs
    /// at or past its `(row, route)` are void: feeding the routes one
    /// tuple at a time would have stopped there.
    error: Option<(usize, u32, Error)>,
}

/// The two barriers (see [`ToShard::Barrier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Barrier {
    /// Cross every route's safe-point boundary and snapshot it.
    Checkpoint,
    /// End every route's stream and drop the engines; the worker exits
    /// after replying.
    Finish,
}

/// Worker → caller reply for a barrier.
#[derive(Debug)]
struct BarrierReply {
    /// Boundary drains (checkpoint) or force-closed tails (finish).
    tail: RouteBatches,
    /// At a checkpoint: each route's safe-point snapshot.
    snaps: Vec<(u32, GroupSnapshot)>,
    /// At the end of the stream: each route's lifetime metrics, so filters
    /// removed by control ops keep their stats in the aggregate.
    metrics: Vec<(u32, EngineMetrics)>,
    /// First failure, as (route index, error).
    error: Option<(u32, Error)>,
}

/// Strips the route tags off `tagged`, in ascending route order.
fn in_route_order<T>(mut tagged: Vec<(u32, T)>) -> Vec<T> {
    tagged.sort_unstable_by_key(|&(route, _)| route);
    tagged.into_iter().map(|(_, t)| t).collect()
}

#[derive(Debug)]
enum ToShard {
    /// The one data message: a columnar tuple batch, shared across shards
    /// as one `Arc` (the broadcast clones the pointer, never the
    /// columns). The worker runs it through each route's batch-native
    /// path and replies with one step per row.
    Columnar(Arc<TupleBatch>),
    /// A control-plane op for one route, interleaved with the data
    /// batches so it lands at the exact stream position it was issued
    /// at. The worker queues it on the route's engine, which applies it
    /// at its next safe point — as `GroupEngine`'s own control ops do.
    Control(u32, ControlOp),
    /// The caller has merged everything in flight, so every hosted engine
    /// sits exactly at the barrier position. The worker crosses each
    /// engine's boundary (`GroupEngine::snapshot_into` or
    /// `GroupEngine::finish_into`) and replies with one [`BarrierReply`].
    Barrier(Barrier),
    /// Test-only fault: the shard panics with this payload.
    #[cfg(test)]
    Panic(Box<dyn std::any::Any + Send>),
}

#[derive(Debug)]
enum FromShard {
    Batch(BatchReply),
    Barrier(BarrierReply),
}

/// Caller-side mirror of one route's roster, used to validate control ops
/// and assign stable [`FilterId`]s without a round-trip to the worker.
#[derive(Debug)]
struct RouteControl {
    schema: Schema,
    algorithm: crate::engine::Algorithm,
    /// Live filter ids (as the worker's engine will see them once every
    /// queued op applies).
    live: BTreeSet<u32>,
    /// The next never-used filter id on this route.
    next_id: u32,
}

/// Builder for [`ShardedEngine`] (see [`ShardedEngine::builder`]).
#[derive(Debug)]
pub struct ShardedEngineBuilder {
    parallelism: usize,
    track_step_costs: bool,
    routes: Vec<(String, GroupEngineBuilder)>,
}

/// Batches kept in flight per worker before a push blocks and merges:
/// one being filtered, one queued behind it, so a worker never idles
/// while the caller merges. This bounds the engine's buffering to
/// `QUEUE_DEPTH + 1` of the caller's batches per worker. An inline
/// engine keeps none: its shard has already run a batch when it merges.
const QUEUE_DEPTH: usize = 2;

/// [`Error::ShardFailed`]'s reason when the dead worker's panic payload is
/// neither a `&str` nor a `String`.
const NO_PANIC_MESSAGE: &str = "the worker panicked without a message";

impl ShardedEngineBuilder {
    /// Adds a filter group as a route. The key names the route in
    /// checkpoints and must be unique; the route's index — its position
    /// in insertion order — determines its shard (`index mod
    /// parallelism`) and its slot in the merged output order.
    pub fn route(mut self, key: impl Into<String>, engine: GroupEngineBuilder) -> Self {
        self.routes.push((key.into(), engine));
        self
    }

    /// Number of worker shards (default 1). Routes are dealt round-robin,
    /// so `min(n, routes)` workers are spawned and `n` larger than the
    /// route count costs nothing. `0` spawns no worker: the routes run on
    /// the caller thread, and every push merges before it returns.
    pub fn parallelism(mut self, n: usize) -> Self {
        self.parallelism = n;
        self
    }

    /// Record per-step `(arrival timestamp, CPU cost)` samples, summed
    /// across shards, for the caller to drain via
    /// [`ShardedEngine::drain_step_costs`] (default off). Middleware uses
    /// this to feed flow-control monitors without touching the data path.
    /// A step's cost is its batch's wall-clock cost divided by the batch's
    /// rows — monitoring data only; the merge order never depends on it.
    pub fn track_step_costs(mut self, on: bool) -> Self {
        self.track_step_costs = on;
        self
    }

    /// Builds the engines, partitions them across shards and spawns the
    /// worker threads.
    ///
    /// # Errors
    /// * [`Error::InvalidConfig`] without routes, with duplicate keys, or
    ///   with routes over different schemas (every route filters the same
    ///   stream, so one packed batch must be valid for all of them),
    /// * any [`GroupEngineBuilder::build`] error from a route.
    pub fn build(self) -> Result<ShardedEngine, Error> {
        if self.routes.is_empty() {
            return Err(Error::InvalidConfig {
                reason: "a sharded engine needs at least one route".into(),
            });
        }
        let schema = self.routes[0].1.schema();
        for (i, (key, builder)) in self.routes.iter().enumerate() {
            if self.routes[..i].iter().any(|(k, _)| k == key) {
                return Err(Error::InvalidConfig {
                    reason: format!("duplicate route key `{key}`"),
                });
            }
            if builder.schema() != schema {
                return Err(Error::InvalidConfig {
                    reason: format!("route `{key}` filters a different schema than route 0"),
                });
            }
        }
        // A fresh engine is a restore of the routes' never-fed
        // snapshots, so build and restore are one code path.
        let mut snaps = Vec::with_capacity(self.routes.len());
        let mut route_keys = Vec::with_capacity(self.routes.len());
        for (key, builder) in self.routes {
            snaps.push(builder.initial_snapshot()?);
            route_keys.push(key);
        }
        let snap = EngineSnapshot {
            snaps,
            route_keys,
            parallelism: self.parallelism,
            track_step_costs: self.track_step_costs,
            last_ts: None,
            last_seq: None,
            input_tuples: 0,
        };
        ShardedEngine::start(snap)
    }
}

/// Deals the routes round-robin over `parallelism` shards — route `i` on
/// shard `i mod parallelism`, whatever its key — and spawns one worker
/// thread per non-empty shard, so `min(parallelism, routes)` workers run;
/// parallelism 0 keeps every route on one inline shard instead.
/// Returns the shard links plus the route-index → shard map. Build and
/// restore both come through here with the routes in snapshot order, so
/// shard `s`'s lowest route is route `s`.
fn spawn_shards(
    parallelism: usize,
    engines: Vec<GroupEngine>,
) -> Result<(Vec<Link>, Vec<usize>), Error> {
    let n = parallelism.clamp(1, engines.len());
    let mut assignment: Vec<Vec<(u32, GroupEngine)>> = Vec::new();
    assignment.resize_with(n, Vec::new);
    let route_shard: Vec<usize> = (0..engines.len()).map(|idx| idx % n).collect();
    for (idx, engine) in engines.into_iter().enumerate() {
        assignment[idx % n].push((idx as u32, engine));
    }
    let mut shards = Vec::with_capacity(n);
    for (shard_no, slots) in assignment.into_iter().enumerate() {
        shards.push(if parallelism == 0 {
            Link::Inline {
                shard: Shard::new(slots),
                replies: VecDeque::new(),
            }
        } else {
            spawn_worker(shard_no, slots)?
        });
    }
    Ok((shards, route_shard))
}

/// Spawns one shard worker thread over `engines`.
///
/// Capacities are chosen so a worker can always park one more reply than
/// the caller keeps in flight: the worker never blocks on its reply
/// channel, therefore always drains its input channel, therefore the
/// caller's send never deadlocks, and neither does the join of a worker
/// whose input channel the caller has closed.
fn spawn_worker(shard_no: usize, engines: Vec<(u32, GroupEngine)>) -> Result<Link, Error> {
    let (tx, rx) = sync_channel::<ToShard>(QUEUE_DEPTH + 1);
    let (reply_tx, reply_rx) = sync_channel::<FromShard>(QUEUE_DEPTH + 2);
    let shard = Shard::new(engines);
    let join = std::thread::Builder::new()
        .name(format!("gasf-shard-{shard_no}"))
        .spawn(move || shard_worker(shard, rx, reply_tx))
        .map_err(|e| Error::InvalidConfig {
            reason: format!("failed to spawn shard worker: {e}"),
        })?;
    Ok(Link::Worker {
        tx: Some(tx),
        rx: reply_rx,
        join: Some(join),
    })
}

/// How the caller reaches a shard's engines.
#[derive(Debug)]
enum Link {
    /// A worker thread behind bounded channels.
    Worker {
        /// `None` once the engine shuts down or finds the worker dead
        /// (dropping it closes the worker).
        tx: Option<SyncSender<ToShard>>,
        rx: Receiver<FromShard>,
        /// `None` once the worker is joined.
        join: Option<JoinHandle<()>>,
    },
    /// No thread (parallelism 0): [`ShardedEngine::send`] steps the shard
    /// on the caller thread and queues its reply for
    /// [`ShardedEngine::recv`].
    Inline {
        shard: Shard,
        replies: VecDeque<FromShard>,
    },
}

/// A multi-threaded host for independent filter groups, dealt
/// round-robin over worker shards, with deterministic in-order emission
/// merging.
///
/// See the [module documentation](self) for the execution model. Built via
/// [`ShardedEngine::builder`]; a single route moves one group onto a
/// worker thread, or, at parallelism 0, hosts it on the caller thread.
///
/// ```rust
/// use gasf_core::prelude::*;
///
/// # fn main() -> Result<(), gasf_core::Error> {
/// let schema = Schema::new(["t"]);
/// let group = |delta: f64| {
///     GroupEngine::builder(schema.clone())
///         .filter(FilterSpec::delta("t", delta, delta * 0.4))
///         .filter(FilterSpec::delta("t", delta * 1.5, delta * 0.6))
/// };
/// let mut engine = ShardedEngine::builder()
///     .parallelism(2)
///     .route("coarse", group(4.0))
///     .route("fine", group(2.0))
///     .build()?;
///
/// let mut b = TupleBuilder::new(&schema);
/// let tuples: Vec<Tuple> = (0..200)
///     .map(|i| b.at_millis(10 * (i + 1)).set("t", (i as f64 * 0.7).sin() * 6.0).build().unwrap())
///     .collect();
/// let mut out = VecSink::new();
/// for rows in tuples.chunks(64) {
///     let batch = std::sync::Arc::new(TupleBatch::from_tuples(&schema, rows)?);
///     engine.push_batch_columnar(&batch, &mut out)?;
/// }
/// engine.finish_into(&mut out)?;
/// assert!(!out.is_empty());
/// assert_eq!(engine.metrics().input_tuples, 2 * 200); // both routes saw the stream
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Link>,
    n_routes: usize,
    track_step_costs: bool,
    /// Each dispatched-but-unmerged batch (its timestamps are the step
    /// costs' arrivals). Every live worker owes exactly one reply per
    /// entry.
    in_flight: VecDeque<Arc<TupleBatch>>,
    input_tuples: u64,
    last_ts: Option<Micros>,
    last_seq: Option<u64>,
    finished: bool,
    /// First shard-side error observed (a route error or a dead worker);
    /// once set the engine refuses further input (only
    /// [`finish_into`](ShardedEngine::finish_into) remains, to drain and
    /// join the workers).
    poisoned: Option<Error>,
    /// A route error has been merged, or a worker found dead. The output
    /// stops where feeding the routes one tuple at a time would have
    /// stopped, or before the batch the dead worker owed a reply for, so
    /// nothing merged after it — a later batch from a healthy shard, a
    /// barrier tail — is delivered.
    halted: bool,
    /// Caller-side roster mirror per route (control-op validation and
    /// [`FilterId`] assignment).
    controls: Vec<RouteControl>,
    /// Which shard owns each route.
    route_shard: Vec<usize>,
    /// Per-route final metrics, in route order (populated at finish).
    route_metrics: Vec<EngineMetrics>,
    /// Undrained `(arrival, cpu)` samples when tracking is on.
    step_costs: Vec<(Micros, Duration)>,
    /// Reused merge buffers: one batch's replies, and every reply's runs
    /// as `(row, route, reply, start, end)` sorted into `(row, route)`
    /// order.
    merge_replies: Vec<BatchReply>,
    merge_runs: Vec<(u32, u32, usize, usize, usize)>,
    /// Route keys in route-index order (kept for checkpoints).
    route_keys: Vec<String>,
    /// The configured worker-shard count (`shards` holds
    /// `min(parallelism, routes)` workers, or one inline shard at 0).
    parallelism: usize,
}

impl ShardedEngine {
    /// Starts building a sharded engine.
    pub fn builder() -> ShardedEngineBuilder {
        ShardedEngineBuilder {
            parallelism: 1,
            track_step_costs: false,
            routes: Vec::new(),
        }
    }

    /// Number of routes (filter groups) hosted.
    pub fn routes(&self) -> usize {
        self.n_routes
    }

    /// Number of worker shards actually spawned: `min(parallelism,
    /// routes)`, since routes are dealt round-robin — none at
    /// parallelism 0.
    pub fn shards(&self) -> usize {
        self.parallelism.min(self.n_routes)
    }

    /// Total input tuples accepted so far.
    pub fn input_tuples(&self) -> u64 {
        self.input_tuples
    }

    /// Batches shipped whose emissions have not reached a sink yet: at
    /// most two after a push on worker threads, always 0 on an inline
    /// engine, and 0 after a checkpoint or finish.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Aggregated metrics across every route, summed field-wise.
    ///
    /// Per-route metrics live on the worker threads while the stream is
    /// open, so before [`finish_into`](Self::finish_into) only
    /// `input_tuples` is populated (counting each route's view of the
    /// stream); after finish the aggregate is complete. An inline engine
    /// reads its routes' lifetime metrics live at any time.
    pub fn metrics(&self) -> EngineMetrics {
        let mut total = EngineMetrics::default();
        if !self.route_metrics.is_empty() {
            for m in &self.route_metrics {
                total.merge(m);
            }
        } else if let [Link::Inline { shard, .. }] = &self.shards[..] {
            for (_, engine) in &shard.engines {
                total.merge(engine.metrics());
            }
        } else {
            total.input_tuples = self.input_tuples * self.n_routes as u64;
        }
        total
    }

    /// Final per-route metrics, in route order. Empty until
    /// [`finish_into`](Self::finish_into) completes.
    pub fn route_metrics(&self) -> &[EngineMetrics] {
        &self.route_metrics
    }

    /// Drains the per-step `(arrival timestamp, CPU cost)` samples merged
    /// since the last call, in step order. CPU is the wall-clock filtering
    /// cost of the step summed across shards. Always empty unless the
    /// engine was built with
    /// [`track_step_costs`](ShardedEngineBuilder::track_step_costs). The
    /// engine keeps the buffer, so draining allocates nothing.
    pub fn drain_step_costs(&mut self) -> impl Iterator<Item = (Micros, Duration)> + '_ {
        self.step_costs.drain(..)
    }

    // ------------------------------------------------------------------
    // fault tolerance: checkpoint barriers, fail-stop workers, restore
    // ------------------------------------------------------------------

    /// Takes a checkpoint: a barrier that merges every in-flight batch
    /// into `sink`, then crosses each
    /// route engine's safe-point boundary (the boundary drains land in
    /// `sink`, in route order) and collects the per-route
    /// [`GroupSnapshot`]s into one [`EngineSnapshot`].
    ///
    /// The returned snapshot is the only copy: the engine keeps none. It
    /// is the recovery point for every fault, a dead worker included:
    /// keep it, and after the crash rebuild the whole engine with
    /// [`restore`](Self::restore), replaying the suffix from the caller's
    /// own log.
    ///
    /// # Errors
    /// [`Error::Finished`] after the stream ended, or the first pending
    /// shard error, [`Error::ShardFailed`] included (a failed checkpoint
    /// poisons the engine like any other shard error).
    pub fn checkpoint<S: EmissionSink>(&mut self, sink: &mut S) -> Result<EngineSnapshot, Error> {
        self.ensure_open()?;
        let (snaps, _, err) = self.barrier(Barrier::Checkpoint, sink);
        if let Some(e) = err {
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        Ok(EngineSnapshot {
            snaps,
            route_keys: self.route_keys.clone(),
            parallelism: self.parallelism,
            track_step_costs: self.track_step_costs,
            last_ts: self.last_ts,
            last_seq: self.last_seq,
            input_tuples: self.input_tuples,
        })
    }

    /// Rebuilds a whole sharded engine from a checkpoint — the one
    /// recovery path, after a process crash or a dead worker alike. Every
    /// route engine is restored at its snapshot boundary
    /// ([`GroupEngine::restore`]), the workers are spawned with the same
    /// route placement, and the caller-side stream position resumes at
    /// the checkpoint, so the only input the restored engine accepts is
    /// the post-checkpoint suffix — which reproduces the fault-free run
    /// byte for byte (`tests/tests/recovery_equivalence.rs`).
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for a snapshot without routes, or any
    /// restore/spawn failure.
    pub fn restore(snap: &EngineSnapshot) -> Result<ShardedEngine, Error> {
        if snap.snaps.is_empty() || snap.snaps.len() != snap.route_keys.len() {
            return Err(Error::InvalidConfig {
                reason: "engine snapshot holds no routes".into(),
            });
        }
        ShardedEngine::start(snap.clone())
    }

    /// Restores every route of `snap` and spawns the workers — what
    /// [`ShardedEngineBuilder::build`] and [`restore`](Self::restore) both
    /// are.
    fn start(snap: EngineSnapshot) -> Result<ShardedEngine, Error> {
        let mut controls = Vec::with_capacity(snap.snaps.len());
        let mut engines = Vec::with_capacity(snap.snaps.len());
        for g in snap.snaps {
            controls.push(RouteControl {
                schema: g.schema().clone(),
                algorithm: g.algorithm(),
                live: g.roster_iter().map(|(id, _)| id.index() as u32).collect(),
                next_id: g.next_filter_id,
            });
            engines.push(GroupEngine::restore_owned(g)?);
        }
        let (shards, route_shard) = spawn_shards(snap.parallelism, engines)?;
        Ok(ShardedEngine {
            shards,
            n_routes: controls.len(),
            route_keys: snap.route_keys,
            parallelism: snap.parallelism,
            track_step_costs: snap.track_step_costs,
            in_flight: VecDeque::new(),
            input_tuples: snap.input_tuples,
            last_ts: snap.last_ts,
            last_seq: snap.last_seq,
            finished: false,
            poisoned: None,
            halted: false,
            controls,
            route_shard,
            route_metrics: Vec::new(),
            step_costs: Vec::new(),
            merge_replies: Vec::new(),
            merge_runs: Vec::new(),
        })
    }

    /// Whether the routes run on the caller thread (parallelism 0).
    fn inline(&self) -> bool {
        self.parallelism == 0
    }

    /// Sends `msg` to shard `si`; an inline shard runs it on the spot and
    /// queues its reply. One of the two places a dead worker is found (the
    /// other is [`recv`](Self::recv)).
    fn send(&mut self, si: usize, msg: ToShard) -> Result<(), Error> {
        match &mut self.shards[si] {
            Link::Inline { shard, replies } => {
                replies.extend(shard.step(msg));
                return Ok(());
            }
            Link::Worker { tx: Some(tx), .. } => {
                if tx.send(msg).is_ok() {
                    return Ok(());
                }
            }
            Link::Worker { tx: None, .. } => {}
        }
        Err(self.fail(si))
    }

    /// Receives shard `si`'s next reply; a disconnected channel is a dead
    /// worker.
    fn recv(&mut self, si: usize) -> Result<FromShard, Error> {
        match &mut self.shards[si] {
            Link::Inline { replies, .. } => {
                let reply = replies.pop_front();
                return Ok(reply.expect("the send a reply answers queued it"));
            }
            Link::Worker { rx, .. } => {
                if let Ok(reply) = rx.recv() {
                    return Ok(reply);
                }
            }
        }
        Err(self.fail(si))
    }

    /// Shard `si`'s worker is gone: joins it, poisons the engine with
    /// [`Error::ShardFailed`] carrying the worker's panic message, and
    /// halts the output. Returns the engine's poison — the first error it
    /// met, which is the same error however often the dead worker is found
    /// again.
    fn fail(&mut self, si: usize) -> Error {
        self.halted = true;
        let joined = match &mut self.shards[si] {
            Link::Worker { tx, join, .. } => {
                *tx = None;
                join.take().map(JoinHandle::join)
            }
            Link::Inline { .. } => unreachable!("an inline shard has no worker to lose"),
        };
        let reason = match joined {
            Some(Err(payload)) => match payload.downcast::<String>() {
                Ok(text) => *text,
                Err(payload) => match payload.downcast::<&str>() {
                    Ok(text) => text.to_string(),
                    Err(_) => NO_PANIC_MESSAGE.into(),
                },
            },
            _ => NO_PANIC_MESSAGE.into(),
        };
        let failed = Error::ShardFailed { shard: si, reason };
        self.poisoned.get_or_insert(failed).clone()
    }

    // ------------------------------------------------------------------
    // subscription control plane
    // ------------------------------------------------------------------

    /// Queues a new filter on route `route`, returning its stable
    /// [`FilterId`] immediately (ids are assigned on the caller thread
    /// from a mirror of the route's roster, and sent to the worker as
    /// a control message interleaved with the data batches). The filter
    /// joins at the route engine's next safe point — the stream position
    /// at which this call was made — exactly like
    /// [`GroupEngine::add_filter`] inline.
    ///
    /// # Errors
    /// [`Error::Finished`], a pending shard error, an unknown route
    /// ([`Error::InvalidConfig`]), or spec validation errors.
    pub fn add_filter(&mut self, route: usize, spec: FilterSpec) -> Result<FilterId, Error> {
        self.control_guard(route)?;
        let ctl = &self.controls[route];
        let id = FilterId::from_index(ctl.next_id as usize);
        crate::engine::validate_filter(&spec, id, &ctl.schema, ctl.algorithm)?;
        self.send_control(route, ControlOp::Add(id, spec))?;
        let ctl = &mut self.controls[route];
        ctl.live.insert(ctl.next_id);
        ctl.next_id += 1;
        Ok(id)
    }

    /// Queues the removal of a filter from route `route` (see
    /// [`GroupEngine::remove_filter`] for the boundary semantics).
    /// Removing a route's last filter leaves it *dormant*: its boundary
    /// drain goes out with the next batch, in `(row, route)` order, it
    /// emits nothing after that (while still counting its view of the
    /// stream in `input_tuples`), and [`add_filter`](Self::add_filter)
    /// revives it.
    ///
    /// # Errors
    /// [`Error::Finished`], a pending shard error, or
    /// [`Error::UnknownFilter`].
    pub fn remove_filter(&mut self, route: usize, id: FilterId) -> Result<(), Error> {
        self.control_guard(route)?;
        if !self.controls[route].live.contains(&(id.index() as u32)) {
            return Err(Error::UnknownFilter { id });
        }
        self.send_control(route, ControlOp::Remove(id))?;
        self.controls[route].live.remove(&(id.index() as u32));
        Ok(())
    }

    /// Queues a spec replacement for a live filter of route `route` (see
    /// [`GroupEngine::update_filter`]).
    ///
    /// # Errors
    /// [`Error::Finished`], a pending shard error,
    /// [`Error::UnknownFilter`], or spec validation errors.
    pub fn update_filter(
        &mut self,
        route: usize,
        id: FilterId,
        spec: FilterSpec,
    ) -> Result<(), Error> {
        self.control_guard(route)?;
        let ctl = &self.controls[route];
        if !ctl.live.contains(&(id.index() as u32)) {
            return Err(Error::UnknownFilter { id });
        }
        crate::engine::validate_filter(&spec, id, &ctl.schema, ctl.algorithm)?;
        self.send_control(route, ControlOp::Update(id, spec))
    }

    fn control_guard(&self, route: usize) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if route >= self.n_routes {
            return Err(Error::InvalidConfig {
                reason: format!("unknown route index {route} (have {})", self.n_routes),
            });
        }
        Ok(())
    }

    /// Ships a control op to the route's shard at the current stream
    /// position — between the batches it was issued between. Nothing
    /// needs merging first: every push that succeeded left at most
    /// [`QUEUE_DEPTH`] batches in flight (none inline), a failed one
    /// poisoned the engine, and [`control_guard`](Self::control_guard)
    /// refuses a poisoned engine. The worker consumes control ops
    /// without replying, so the send cannot outgrow its channel.
    fn send_control(&mut self, route: usize, op: ControlOp) -> Result<(), Error> {
        debug_assert!(self.in_flight.len() <= if self.inline() { 0 } else { QUEUE_DEPTH });
        let msg = ToShard::Control(route as u32, op);
        self.send(self.route_shard[route], msg)
            .inspect_err(|e| self.poisoned = Some((*e).clone()))
    }

    /// The shared head of every call that takes a sink while the stream
    /// is open: refuses a finished or poisoned engine.
    fn ensure_open(&self) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Feeds a columnar [`TupleBatch`], broadcast to every shard as one
    /// shared `Arc` and consumed by each route through
    /// [`GroupEngine::push_batch_columnar`]'s batch-native path. The
    /// workers reply with per-*row* step outputs, so the caller-side
    /// `(input step, route)` merge — and therefore the emission byte
    /// sequence — is identical for every way of slicing the stream into
    /// batches, one-row batches included.
    ///
    /// This is the engine's only data entry, and a batch is one dispatch
    /// unit: checkpoints and control ops land only at its boundaries, and
    /// merged emissions for a step may reach the sink on a later call
    /// (see the [module docs](self) on delivery latency).
    ///
    /// # Errors
    /// Same contract as [`GroupEngine::push_batch_columnar`]: the batch's
    /// width ([`Error::SchemaMismatch`]) and the stream order of its head
    /// row are validated eagerly on the caller thread and reject the
    /// batch before anything moves — the engine stays usable. Shard-side
    /// errors surface on the merge that observes them and poison the
    /// engine: every subsequent push returns the same error.
    pub fn push_batch_columnar<S: EmissionSink>(
        &mut self,
        batch: &Arc<TupleBatch>,
        sink: &mut S,
    ) -> Result<(), Error> {
        self.ensure_open()?;
        if batch.is_empty() {
            return Ok(());
        }
        // Every route filters the same schema (checked at build), so one
        // width check here is the check each worker would make.
        let width = self.controls[0].schema.len();
        if batch.schema().len() != width {
            return Err(Error::SchemaMismatch {
                expected: width,
                actual: batch.schema().len(),
            });
        }
        crate::engine::validate_stream_order(
            self.last_ts,
            self.last_seq,
            batch.timestamp(0),
            batch.seq(0),
        )?;
        let rows = batch.rows();
        self.last_ts = Some(batch.timestamp(rows - 1));
        self.last_seq = Some(batch.seq(rows - 1));
        self.input_tuples += rows as u64;
        self.ship(batch)
            .and_then(|()| self.merge_down(sink))
            .inspect_err(|e| self.poisoned = Some(e.clone()))
    }

    /// Ends the stream on every route: drains all in-flight batches,
    /// force-closes and merges each route's tail in route order, collects
    /// the final per-route metrics, flushes `sink` and joins the workers.
    ///
    /// # Errors
    /// Returns [`Error::Finished`] if called twice; otherwise the first
    /// pending shard error.
    pub fn finish_into<S: EmissionSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        self.finished = true;
        let pending = self.poisoned.take();
        let (_, metrics, err) = self.barrier(Barrier::Finish, sink);
        sink.flush();
        self.route_metrics = metrics;
        self.shutdown();
        match pending.or(err) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// The one barrier behind [`checkpoint`](Self::checkpoint) and
    /// [`finish_into`](Self::finish_into): merges everything in flight
    /// into `sink`, sends one barrier to every shard, collects **every**
    /// shard's reply (so none is ever left queued behind the next
    /// request) and delivers the tails in route order. Returns the routes'
    /// snapshots and metrics, in route order, and the first error — an
    /// in-flight batch's before any barrier's, and among barrier errors
    /// the lowest route's (a dead shard `s` counts as its first route,
    /// route `s`).
    fn barrier<S: EmissionSink>(
        &mut self,
        kind: Barrier,
        sink: &mut S,
    ) -> (Vec<GroupSnapshot>, Vec<EngineMetrics>, Option<Error>) {
        let mut merge_err = None;
        while !self.in_flight.is_empty() {
            if let Err(e) = self.merge_oldest(sink) {
                merge_err.get_or_insert(e);
            }
        }
        let mut route_err: Option<(u32, Error)> = None;
        let mut note = |route: u32, e: Error| {
            if route_err.as_ref().is_none_or(|(r, _)| route < *r) {
                route_err = Some((route, e));
            }
        };
        // Send every barrier before collecting any reply, so the
        // per-shard drains run concurrently.
        let mut awaiting = Vec::with_capacity(self.shards.len());
        for si in 0..self.shards.len() {
            match self.send(si, ToShard::Barrier(kind)) {
                Ok(()) => awaiting.push(si),
                Err(e) => note(si as u32, e),
            }
        }
        let (mut tails, mut snaps, mut metrics) = (Vec::new(), Vec::new(), Vec::new());
        for si in awaiting {
            match self.recv(si) {
                Ok(FromShard::Barrier(reply)) => {
                    tails.extend(reply.tail);
                    snaps.extend(reply.snaps);
                    metrics.extend(reply.metrics);
                    if let Some((route, e)) = reply.error {
                        note(route, e);
                    }
                }
                Ok(FromShard::Batch(_)) => {
                    unreachable!("every batch in flight was merged before the barrier was sent")
                }
                Err(e) => note(si as u32, e),
            }
        }
        tails.sort_unstable_by_key(|&(route, _)| route);
        for (route, batch) in tails {
            if !batch.is_empty() && !self.halted {
                sink.accept_route(route as usize, &batch);
            }
        }
        let err = merge_err.or(route_err.map(|(_, e)| e));
        (in_route_order(snaps), in_route_order(metrics), err)
    }

    /// Merges the oldest batches until at most [`QUEUE_DEPTH`] stay in
    /// flight — none on an inline engine.
    fn merge_down<S: EmissionSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        let depth = if self.inline() { 0 } else { QUEUE_DEPTH };
        while self.in_flight.len() > depth {
            self.merge_oldest(sink)?;
        }
        Ok(())
    }

    /// Broadcasts one batch to every shard (an `Arc` bump each). Every
    /// shard is offered the batch even past a dead one, so each live
    /// worker still owes one reply per batch in flight.
    fn ship(&mut self, batch: &Arc<TupleBatch>) -> Result<(), Error> {
        self.in_flight.push_back(Arc::clone(batch));
        let mut first_err = None;
        for si in 0..self.shards.len() {
            if let Err(e) = self.send(si, ToShard::Columnar(Arc::clone(batch))) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Receives the oldest in-flight batch's reply from every shard and
    /// feeds the merged emissions to the sink in `(step, route)` order,
    /// one `accept_route` per contiguous run of one route in one reply. A
    /// worker found dead here halts the output before this batch, but
    /// every other shard's reply is still received, so no live worker is
    /// left owing one.
    fn merge_oldest<S: EmissionSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        let batch = self
            .in_flight
            .pop_front()
            .expect("merge_oldest called with a batch in flight");
        let mut replies = std::mem::take(&mut self.merge_replies);
        let mut first_err: Option<(usize, u32, Error)> = None;
        let mut dead_err: Option<Error> = None;
        for si in 0..self.shards.len() {
            match self.recv(si) {
                Ok(FromShard::Batch(reply)) => {
                    if let Some(e) = &reply.error {
                        if first_err.as_ref().is_none_or(|f| (e.0, e.1) < (f.0, f.1)) {
                            first_err = Some(e.clone());
                        }
                    }
                    replies.push(reply);
                }
                Ok(FromShard::Barrier(_)) => {
                    unreachable!("a barrier collects its replies before anything else is sent")
                }
                Err(e) => {
                    dead_err.get_or_insert(e);
                }
            }
        }
        // A route error voids the runs at or past its `(row, route)` on
        // every shard, and everything after this batch.
        let cut = first_err.as_ref().map(|&(row, route, _)| (row, route));
        let runs = &mut self.merge_runs;
        runs.clear();
        for (ri, reply) in replies.iter().enumerate() {
            let mut start = 0;
            for &(row, route, end) in &reply.runs {
                if !self.halted && cut.is_none_or(|cut| (row as usize, route) < cut) {
                    runs.push((row, route, ri, start, end as usize));
                }
                start = end as usize;
            }
        }
        self.halted |= cut.is_some();
        runs.sort_unstable();
        let mut next = 0;
        while let Some(&(_, route, ri, start, mut end)) = runs.get(next) {
            next += 1;
            while let Some(&(_, rt, r, s, e)) = runs.get(next) {
                if rt != route || r != ri || s != end {
                    break;
                }
                end = e;
                next += 1;
            }
            sink.accept_route(route as usize, &replies[ri].emissions[start..end]);
        }
        if self.track_step_costs {
            let steps = replies.iter().map(|r| r.steps).max().unwrap_or(0);
            for step in 0..steps {
                let cpu = replies.iter().filter(|r| r.steps > step).map(|r| r.cpu);
                self.step_costs.push((batch.timestamp(step), cpu.sum()));
            }
        }
        replies.clear();
        self.merge_replies = replies;
        match first_err {
            Some((_, _, e)) => Err(e),
            None => match dead_err {
                Some(e) => Err(e),
                None => Ok(()),
            },
        }
    }

    /// Closes the input channels and joins the workers.
    fn shutdown(&mut self) {
        for shard in &mut self.shards {
            if let Link::Worker { tx, .. } = shard {
                *tx = None; // dropping the sender ends the worker loop
            }
        }
        for shard in &mut self.shards {
            if let Link::Worker { join, .. } = shard {
                if let Some(join) = join.take() {
                    let _ = join.join();
                }
            }
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The shard thread: steps its [`Shard`] through every message and sends
/// each reply back, until the stream ends or the caller goes away. A
/// panic ends it too, and the disconnected channels are what the caller
/// finds.
fn shard_worker(mut shard: Shard, rx: Receiver<ToShard>, tx: SyncSender<FromShard>) {
    while let Ok(msg) = rx.recv() {
        let last = matches!(msg, ToShard::Barrier(Barrier::Finish));
        let sent = shard.step(msg).map_or(Ok(()), |reply| tx.send(reply));
        if sent.is_err() || last {
            return; // the caller went away, or this was the last message
        }
    }
}

/// One shard's engines and what its steps carry from message to message.
/// A worker thread steps it over its channels; an inline shard is stepped
/// on the caller thread.
#[derive(Debug)]
struct Shard {
    engines: Vec<(u32, GroupEngine)>,
    /// The first failure, as (step offset in batch, route index, error).
    /// After it the shard stops filtering and answers with it until
    /// finish.
    poisoned: Option<(usize, u32, Error)>,
    collector: VecSink,
    /// The last batch reply's sizes: the next one reserves them up front
    /// instead of growing to them.
    emitted: usize,
    stepped: usize,
}

impl Shard {
    fn new(engines: Vec<(u32, GroupEngine)>) -> Shard {
        Shard {
            engines,
            poisoned: None,
            collector: VecSink::new(),
            emitted: 0,
            stepped: 0,
        }
    }

    /// Runs one message through the engines (in ascending route order)
    /// and returns the reply it owes: a batch's emissions appended to one
    /// vector and cut into per-row, per-route runs, or a barrier's tails.
    /// A control op owes none.
    fn step(&mut self, msg: ToShard) -> Option<FromShard> {
        match msg {
            ToShard::Columnar(batch) => Some(FromShard::Batch(self.run_batch(&batch))),
            ToShard::Control(route, op) => {
                // Queue the op on the route's engine; it applies at the
                // engine's next safe point (the first tuple of the next
                // batch), matching `GroupEngine`'s own boundary exactly.
                // Ops are validated on the caller thread, so a failure
                // here poisons the shard like any engine error.
                if self.poisoned.is_none() {
                    let found = self.engines.iter_mut().find(|(r, _)| *r == route);
                    if let Some((_, engine)) = found {
                        let result = match op {
                            ControlOp::Add(id, spec) => engine.queue_add_at(id, spec),
                            ControlOp::Remove(id) => engine.remove_filter(id),
                            ControlOp::Update(id, spec) => engine.update_filter(id, spec),
                        };
                        if let Err(e) = result {
                            self.poisoned = Some((0, route, e));
                        }
                    }
                }
                None
            }
            ToShard::Barrier(kind) => Some(FromShard::Barrier(self.cross(kind))),
            #[cfg(test)]
            ToShard::Panic(payload) => std::panic::resume_unwind(payload),
        }
    }

    fn run_batch(&mut self, batch: &Arc<TupleBatch>) -> BatchReply {
        let rows = batch.rows();
        let mut reply = BatchReply {
            emissions: Vec::with_capacity(self.emitted),
            runs: Vec::with_capacity(self.stepped),
            steps: 0,
            cpu: Duration::ZERO,
            error: self.poisoned.clone(),
        };
        if self.poisoned.is_some() {
            return reply;
        }
        // Each route consumes the whole batch column-at-a-time, appending
        // every emitting row's emissions as one run.
        let start = Instant::now();
        for (route, engine) in &mut self.engines {
            let mut row = 0;
            let pushed = engine.push_columnar_rows(batch, |emissions| {
                if !emissions.is_empty() {
                    reply.emissions.append(emissions);
                    let end = reply.emissions.len() as u32;
                    reply.runs.push((row, *route, end));
                }
                row += 1;
            });
            // On failure `row` is the failing row: the first one the route
            // completed no step for.
            if let Err(e) = pushed {
                let (row, poisoned) = (row as usize, &mut self.poisoned);
                if poisoned.as_ref().is_none_or(|f| (row, *route) < (f.0, f.1)) {
                    *poisoned = Some((row, *route, e));
                }
            }
        }
        // Whole-batch wall clock, attributed evenly across the rows
        // (per-step costs are monitoring data; the merge order never
        // depends on them).
        reply.cpu = start.elapsed() / rows.max(1) as u32;
        reply.steps = self.poisoned.as_ref().map_or(rows, |(erow, _, _)| erow + 1);
        reply.error = self.poisoned.clone();
        (self.emitted, self.stepped) = (reply.emissions.len(), reply.runs.len());
        reply
    }

    fn cross(&mut self, kind: Barrier) -> BarrierReply {
        let mut reply = BarrierReply {
            tail: Vec::with_capacity(self.engines.len()),
            snaps: Vec::new(),
            metrics: Vec::new(),
            error: None,
        };
        for (route, engine) in &mut self.engines {
            if self.poisoned.is_none() {
                let snap = match kind {
                    Barrier::Checkpoint => engine.snapshot_into(&mut self.collector).map(Some),
                    Barrier::Finish => engine.finish_into(&mut self.collector).map(|()| None),
                };
                match snap {
                    Ok(snap) => {
                        reply.tail.push((*route, self.collector.drain_vec()));
                        reply.snaps.extend(snap.map(|s| (*route, s)));
                    }
                    Err(e) => self.poisoned = Some((0, *route, e)),
                }
            }
        }
        if kind == Barrier::Finish {
            // The engines are done with: hand back their lifetime metrics
            // and free them — on the caller thread too, not just when a
            // worker exits.
            let engines = self.engines.drain(..);
            reply.metrics = engines.map(|(r, e)| (r, e.into_metrics())).collect();
        }
        reply.error = self.poisoned.as_ref().map(|(_, r, e)| (*r, e.clone()));
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, GroupEngine};
    use crate::quality::FilterSpec;
    use crate::schema::Schema;
    use crate::sink::VecSink;
    use crate::tuple::{Tuple, TupleBuilder};

    fn schema() -> Schema {
        Schema::new(["t"])
    }

    fn group(schema: &Schema, scale: f64) -> GroupEngineBuilder {
        GroupEngine::builder(schema.clone())
            .filter(FilterSpec::delta("t", 2.0 * scale, 0.9 * scale))
            .filter(FilterSpec::delta("t", 3.0 * scale, 1.4 * scale))
    }

    fn stream(schema: &Schema, n: usize) -> Vec<Tuple> {
        let mut b = TupleBuilder::new(schema);
        (0..n)
            .map(|i| {
                let v = (i as f64 * 0.7).sin() * 8.0 + (i as f64 * 0.05);
                b.at_millis(10 * (i as u64 + 1))
                    .set("t", v)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    /// Feeds `tuples` in batches of `chunk` rows — the chunk size is how a
    /// test slices its trace, and no output may depend on it.
    fn feed<S: EmissionSink>(
        e: &mut ShardedEngine,
        tuples: &[Tuple],
        chunk: usize,
        sink: &mut S,
    ) -> Result<(), Error> {
        for rows in tuples.chunks(chunk) {
            let batch = TupleBatch::from_tuples(&e.controls[0].schema, rows)?;
            e.push_batch_columnar(&Arc::new(batch), sink)?;
        }
        Ok(())
    }

    /// [`feed`] then finish.
    fn run<S: EmissionSink>(
        e: &mut ShardedEngine,
        tuples: &[Tuple],
        chunk: usize,
        sink: &mut S,
    ) -> Result<(), Error> {
        feed(e, tuples, chunk, sink)?;
        e.finish_into(sink)
    }

    #[test]
    fn single_route_matches_group_engine() {
        let s = schema();
        let mut reference = group(&s, 1.0).build().unwrap();
        let mut expected = VecSink::new();
        reference.run_into(stream(&s, 500), &mut expected).unwrap();

        for n in [0usize, 1, 2, 4] {
            let mut sharded = ShardedEngine::builder()
                .parallelism(n)
                .route("only", group(&s, 1.0))
                .build()
                .unwrap();
            let mut out = VecSink::new();
            // deliberately odd, so the trace length is no multiple of it
            run(&mut sharded, &stream(&s, 500), 17, &mut out).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "n={n}");
            assert_eq!(
                sharded.metrics().output_tuples,
                reference.metrics().output_tuples
            );
        }
    }

    #[test]
    fn merge_order_is_invariant_to_parallelism() {
        let s = schema();
        let run_with = |parallelism: usize, chunk: usize| {
            let mut e = ShardedEngine::builder()
                .parallelism(parallelism)
                .route("a", group(&s, 1.0))
                .route("b", group(&s, 0.5))
                .route("c", group(&s, 2.0))
                .route("d", group(&s, 1.5).algorithm(Algorithm::SelfInterested))
                .build()
                .unwrap();
            let mut out = VecSink::new();
            run(&mut e, &stream(&s, 400), chunk, &mut out).unwrap();
            (out.into_vec(), e.metrics())
        };
        let (base_out, base_metrics) = run_with(1, 128);
        for (n, chunk) in [(0usize, 64usize), (2, 128), (4, 31), (8, 1), (3, 400)] {
            let (out, metrics) = run_with(n, chunk);
            assert_eq!(out, base_out, "n={n} chunk={chunk}");
            assert_eq!(metrics.output_tuples, base_metrics.output_tuples);
            assert_eq!(metrics.emissions, base_metrics.emissions);
            assert_eq!(metrics.input_tuples, base_metrics.input_tuples);
        }
    }

    #[test]
    fn route_metrics_cover_every_route() {
        let s = schema();
        let mut e = ShardedEngine::builder()
            .parallelism(3)
            .route("a", group(&s, 1.0))
            .route("b", group(&s, 0.7))
            .build()
            .unwrap();
        assert_eq!(e.routes(), 2);
        assert!(e.shards() <= 2);
        run(&mut e, &stream(&s, 200), 64, &mut crate::sink::NullSink).unwrap();
        assert_eq!(e.route_metrics().len(), 2);
        for m in e.route_metrics() {
            assert_eq!(m.input_tuples, 200);
            assert!(m.output_tuples > 0);
        }
        assert_eq!(e.metrics().input_tuples, 400);
    }

    #[test]
    fn eager_validation_matches_group_engine() {
        let s = schema();
        let mut e = ShardedEngine::builder()
            .route("a", group(&s, 1.0))
            .build()
            .unwrap();
        let mut sink = VecSink::new();
        let tuples = stream(&s, 3);
        feed(&mut e, &tuples[1..2], 1, &mut sink).unwrap();
        // decreasing timestamp → out of order, detected before any batch
        // ships (an equal timestamp would be legal)
        assert!(matches!(
            feed(&mut e, &[tuples[0].with_seq(2)], 1, &mut sink),
            Err(Error::OutOfOrder { .. })
        ));
        // seq gap → non-contiguous
        let mut b = TupleBuilder::new(&s);
        let _ = b.at_millis(1).set("t", 0.0).build().unwrap();
        let _ = b.at_millis(2).set("t", 0.0).build().unwrap();
        let _ = b.at_millis(3).set("t", 0.0).build().unwrap();
        let skipped = b.at_millis(500).set("t", 0.0).build().unwrap();
        assert!(matches!(
            feed(&mut e, &[skipped], 1, &mut sink),
            Err(Error::NonContiguousSeq { .. })
        ));
        e.finish_into(&mut sink).unwrap();
        assert!(matches!(e.finish_into(&mut sink), Err(Error::Finished)));
        assert!(matches!(
            feed(&mut e, &tuples[2..], 1, &mut sink),
            Err(Error::Finished)
        ));
    }

    #[test]
    fn shard_side_errors_surface() {
        let s = Schema::new(["t", "u"]);
        let mut e = ShardedEngine::builder()
            .route(
                "needs-u",
                GroupEngine::builder(s.clone()).filter(FilterSpec::delta("u", 2.0, 0.9)),
            )
            .build()
            .unwrap();
        let mut b = TupleBuilder::new(&s);
        // `u` is never set, so every shard-side push fails.
        let tuples: Vec<Tuple> = (0..20u64)
            .map(|i| b.at_millis(10 * (i + 1)).set("t", 0.0).build().unwrap())
            .collect();
        let mut sink = VecSink::new();
        let mut saw_error = false;
        for rows in tuples.chunks(4) {
            match feed(&mut e, rows, 4, &mut sink) {
                Ok(()) => {}
                Err(Error::MissingValue { .. }) => {
                    saw_error = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        if saw_error {
            // the engine is poisoned: further input is refused with the
            // same error, and finish still drains/joins cleanly
            let t = b.at_millis(10_000).set("t", 0.0).build().unwrap();
            assert!(matches!(
                feed(&mut e, &[t], 1, &mut sink),
                Err(Error::MissingValue { .. })
            ));
        }
        assert!(matches!(
            e.finish_into(&mut sink),
            Err(Error::MissingValue { .. })
        ));
    }

    /// A route failing mid-batch cuts the merged output exactly where
    /// feeding the routes one tuple at a time, in route order, stops:
    /// every route's steps before the failing row, and at the failing row
    /// only the routes before the failing one — while the other route of
    /// the batch has already run past it on the worker.
    #[test]
    fn a_route_error_cuts_the_merge_where_per_tuple_feeding_stops() {
        let s = Schema::new(["t", "u"]);
        let on =
            |attr: &str| GroupEngine::builder(s.clone()).filter(FilterSpec::delta(attr, 1.0, 0.4));
        let mut b = TupleBuilder::new(&s);
        // Row 37 (of 64, the third 16-row batch) carries no `u`.
        let tuples: Vec<Tuple> = (0..64u64)
            .map(|i| {
                let v = (i as f64 * 0.9).sin() * 6.0;
                b.at_millis(10 * (i + 1)).set("t", v);
                if i != 37 {
                    b.set("u", -v);
                }
                b.build().unwrap()
            })
            .collect();
        for failing in [0usize, 1] {
            let attrs = if failing == 0 { ["u", "t"] } else { ["t", "u"] };
            let mut oracle: Vec<GroupEngine> =
                attrs.iter().map(|a| on(a).build().unwrap()).collect();
            let mut expected = VecSink::new();
            'rows: for t in &tuples {
                for engine in &mut oracle {
                    let mut step = VecSink::new();
                    if engine.push_into(t.clone(), &mut step).is_err() {
                        break 'rows;
                    }
                    expected.accept_batch(step.as_slice());
                }
            }
            for parallelism in [0, 1, 2] {
                let mut e = ShardedEngine::builder()
                    .parallelism(parallelism)
                    .route("r0", on(attrs[0]))
                    .route("r1", on(attrs[1]))
                    .build()
                    .unwrap();
                let mut out = VecSink::new();
                let fed = feed(&mut e, &tuples, 16, &mut out);
                let finished = e.finish_into(&mut out);
                assert!(matches!(fed.and(finished), Err(Error::MissingValue { .. })));
                let label = format!("route {failing} fails, parallelism {parallelism}");
                assert!(!expected.is_empty(), "{label}");
                assert_eq!(out.as_slice(), expected.as_slice(), "{label}");
            }
        }
    }

    #[test]
    fn builder_rejects_empty_and_duplicate_routes() {
        assert!(matches!(
            ShardedEngine::builder().build(),
            Err(Error::InvalidConfig { .. })
        ));
        let s = schema();
        assert!(matches!(
            ShardedEngine::builder()
                .route("x", group(&s, 1.0))
                .route("x", group(&s, 2.0))
                .build(),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn builder_rejects_routes_over_different_schemas() {
        let built = ShardedEngine::builder()
            .route("narrow", group(&schema(), 1.0))
            .route("wide", group(&Schema::new(["t", "u"]), 1.0))
            .build();
        assert!(matches!(built, Err(Error::InvalidConfig { .. })));
    }

    #[test]
    fn push_rejects_a_wrong_width_batch_on_the_caller_thread() {
        let s = schema();
        let tuples = stream(&s, 60);
        let wide = Schema::new(["t", "u"]);
        let bad_row = TupleBuilder::new(&wide).at_millis(10).build().unwrap();
        let bad = Arc::new(TupleBatch::from_tuples(&wide, &[bad_row]).unwrap());
        let mismatch = Error::SchemaMismatch {
            expected: 1,
            actual: 2,
        };
        for parallelism in [0usize, 1, 2] {
            let build = || {
                ShardedEngine::builder()
                    .parallelism(parallelism)
                    .route("a", group(&s, 1.0))
                    .route("b", group(&s, 0.5))
                    .build()
                    .unwrap()
            };
            let mut expected = VecSink::new();
            run(&mut build(), &tuples, 10, &mut expected).unwrap();

            let mut e = build();
            let mut out = VecSink::new();
            feed(&mut e, &tuples[..30], 10, &mut out).unwrap();
            assert_eq!(
                e.push_batch_columnar(&bad, &mut out),
                Err(mismatch.clone()),
                "x{parallelism}"
            );
            // rejected before anything moved: the stream position stands
            // and the engine is not poisoned
            assert_eq!(e.input_tuples(), 30);
            run(&mut e, &tuples[30..], 10, &mut out).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "x{parallelism}");
        }
    }

    #[test]
    fn step_costs_drain_when_tracked() {
        let s = schema();
        let mut e = ShardedEngine::builder()
            .track_step_costs(true)
            .route("a", group(&s, 1.0))
            .build()
            .unwrap();
        run(&mut e, &stream(&s, 64), 8, &mut crate::sink::NullSink).unwrap();
        let samples: Vec<_> = e.drain_step_costs().collect();
        assert_eq!(samples.len(), 64);
        // arrival stamps are the tuples' own timestamps, in order
        assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(e.drain_step_costs().count(), 0, "drained");
    }

    /// `n` routes at `parallelism(n)` run on `n` workers whatever their
    /// keys ("part0" and "part1" once hashed onto one shard of two), and
    /// a restore from a checkpoint places them the same way.
    #[test]
    fn routes_are_dealt_round_robin_whatever_their_keys() {
        let s = schema();
        for (routes, parallelism) in [(2, 2), (3, 3), (4, 4), (5, 2), (2, 8)] {
            let mut builder = ShardedEngine::builder().parallelism(parallelism);
            for r in 0..routes {
                builder = builder.route(format!("part{r}"), group(&s, 1.0 + r as f64));
            }
            let mut e = builder.build().unwrap();
            let want = routes.min(parallelism);
            assert_eq!(
                e.shards(),
                want,
                "{routes} routes at parallelism {parallelism}"
            );
            let snap = e.checkpoint(&mut crate::sink::NullSink).unwrap();
            assert_eq!(ShardedEngine::restore(&snap).unwrap().shards(), want);
        }
    }

    /// Keeps each route's emissions apart, in delivery order.
    #[derive(Debug, Default)]
    struct ByRoute(Vec<Vec<Emission>>);

    impl ByRoute {
        fn route(&self, r: usize) -> &[Emission] {
            self.0.get(r).map(Vec::as_slice).unwrap_or_default()
        }
    }

    impl EmissionSink for ByRoute {
        fn accept(&mut self, _: &Emission) {
            unreachable!("a sharded engine delivers through accept_route")
        }

        fn accept_route(&mut self, route: usize, emissions: &[Emission]) {
            if self.0.len() <= route {
                self.0.resize(route + 1, Vec::new());
            }
            self.0[route].extend_from_slice(emissions);
        }
    }

    /// A route whose last filter leaves goes dormant: at its next safe
    /// point it drains what `GroupEngine::finish_into` drains over the
    /// same prefix and then emits nothing, while the other route's output
    /// stays a one-route engine's. The empty roster survives checkpoint →
    /// restore, and an added filter revives the route.
    #[test]
    fn a_route_emptied_by_remove_filter_goes_dormant() {
        let s = schema();
        let tuples = stream(&s, 400);
        let mut b_alone = group(&s, 0.5).build().unwrap();
        let mut b_expected = VecSink::new();
        b_alone
            .push_batch(tuples[..120].to_vec(), &mut b_expected)
            .unwrap();
        b_alone.finish_into(&mut b_expected).unwrap();
        for n in [0usize, 1, 2] {
            let mut a_alone = ShardedEngine::builder()
                .parallelism(n)
                .route("a", group(&s, 1.0))
                .build()
                .unwrap();
            let mut a_expected = VecSink::new();
            feed(&mut a_alone, &tuples[..200], 40, &mut a_expected).unwrap();
            a_alone.checkpoint(&mut a_expected).unwrap();
            run(&mut a_alone, &tuples[200..], 40, &mut a_expected).unwrap();

            let mut e = ShardedEngine::builder()
                .parallelism(n)
                .route("a", group(&s, 1.0))
                .route("b", group(&s, 0.5))
                .build()
                .unwrap();
            let mut out = ByRoute::default();
            feed(&mut e, &tuples[..120], 40, &mut out).unwrap();
            e.remove_filter(1, FilterId::from_index(0)).unwrap();
            e.remove_filter(1, FilterId::from_index(1)).unwrap();
            feed(&mut e, &tuples[120..200], 40, &mut out).unwrap();
            let snap = e.checkpoint(&mut out).unwrap();
            assert_eq!(out.route(1), b_expected.as_slice(), "n={n}: finish tail");
            assert_eq!(snap.route_snapshots()[1].group_size(), 0, "n={n}");
            // The live engine and its restored replica agree from here on:
            // dormant for 100 rows, then revived by an added filter.
            let mut restored = ShardedEngine::restore(&snap).unwrap();
            let mut suffix = Vec::new();
            for engine in [&mut e, &mut restored] {
                let mut tail = ByRoute::default();
                feed(engine, &tuples[200..300], 40, &mut tail).unwrap();
                assert!(tail.route(1).is_empty(), "n={n}: dormant");
                engine
                    .add_filter(1, FilterSpec::delta("t", 1.2, 0.5))
                    .unwrap();
                run(engine, &tuples[300..], 40, &mut tail).unwrap();
                assert!(!tail.route(1).is_empty(), "n={n}: revived");
                suffix.push(tail.0);
            }
            assert_eq!(suffix[0], suffix[1], "n={n}: restored");
            let mut a = out.route(0).to_vec();
            a.extend_from_slice(&suffix[0][0]);
            assert_eq!(a, a_expected.as_slice(), "n={n}: route a as if alone");
        }
    }

    mod fault_tolerance {
        use super::*;
        use crate::sink::NullSink;
        use std::any::Any;
        use std::ops::Range;

        /// Queues a panic with `payload` on shard `si`'s worker, behind
        /// everything already sent to it.
        fn kill(e: &ShardedEngine, si: usize, payload: Box<dyn Any + Send>) {
            match &e.shards[si] {
                Link::Worker { tx: Some(tx), .. } => tx.send(ToShard::Panic(payload)).unwrap(),
                _ => panic!("shard {si} has no live worker"),
            }
        }

        /// Shard 0 dies with a `&str`, every other shard with a `String`.
        fn payload(shard: usize) -> (Box<dyn Any + Send>, String) {
            match shard {
                0 => (Box::new("boom"), "boom".into()),
                _ => (Box::new(format!("boom {shard}")), format!("boom {shard}")),
            }
        }

        /// One call of a run, as the caller's own log records it.
        #[derive(Debug, Clone)]
        enum Op {
            Feed(Range<usize>),
            Checkpoint,
            Add(usize, FilterSpec),
            Update(usize, FilterId, FilterSpec),
            Finish,
        }

        fn apply(
            e: &mut ShardedEngine,
            tuples: &[Tuple],
            op: &Op,
            out: &mut VecSink,
        ) -> Result<Option<EngineSnapshot>, Error> {
            match op {
                Op::Feed(rows) => feed(e, &tuples[rows.clone()], 17, out).map(|()| None),
                Op::Checkpoint => e.checkpoint(out).map(Some),
                Op::Add(route, spec) => e.add_filter(*route, spec.clone()).map(|_| None),
                Op::Update(route, id, spec) => {
                    e.update_filter(*route, *id, spec.clone()).map(|()| None)
                }
                Op::Finish => e.finish_into(out).map(|()| None),
            }
        }

        /// Checkpoint at row 150, rows up to 200, then `next`, then the
        /// rest of the stream: the kill lands right before `next`, the
        /// log's fourth op.
        fn log(next: Op) -> Vec<Op> {
            let mut ops = vec![Op::Feed(0..150), Op::Checkpoint, Op::Feed(150..200)];
            let rest = match next {
                Op::Finish => vec![],
                Op::Feed(_) => vec![Op::Finish],
                _ => vec![Op::Feed(200..400), Op::Finish],
            };
            ops.push(next);
            ops.extend(rest);
            ops
        }

        /// Runs `ops` over four routes at `parallelism`, once fault-free
        /// and once with the workers of `victims` (every shard when
        /// `None`) killed right before `ops[kill_before]`, under a
        /// one-minute watchdog: a death the engine fails to notice hangs
        /// more often than it diverges. Checks the fail-stop contract:
        /// * the first call that finds the death returns
        ///   [`Error::ShardFailed`] with the victim's panic text, and so
        ///   does every call after it;
        /// * nothing merged after the death reaches the sink, so the
        ///   output is a prefix of the fault-free one;
        /// * a restore from the last checkpoint (a fresh build before the
        ///   first one) plus the logged suffix is the fault-free run.
        fn check_fail_stop(
            parallelism: usize,
            ops: Vec<Op>,
            kill_before: usize,
            victims: Option<usize>,
        ) {
            let label = format!("x{parallelism} ops {ops:?}, kill before op {kill_before}");
            let (alive, watchdog) = std::sync::mpsc::channel::<()>();
            let run_label = label.clone();
            let worker = std::thread::spawn(move || {
                let _alive = alive; // dropped when the run returns or panics
                let label = run_label;
                let s = schema();
                let tuples = stream(&s, 400);
                let build = || {
                    ShardedEngine::builder()
                        .parallelism(parallelism)
                        .route("a", group(&s, 1.0))
                        .route("b", group(&s, 0.5))
                        .route("c", group(&s, 2.0))
                        .route("d", group(&s, 1.5))
                        .build()
                        .unwrap()
                };
                let fingerprint = |e: &ShardedEngine| {
                    let m = e.metrics();
                    (m.input_tuples, m.output_tuples, m.emissions)
                };
                let mut e = build();
                let mut expected = VecSink::new();
                for op in &ops {
                    apply(&mut e, &tuples, op, &mut expected).unwrap();
                }
                let expected_metrics = fingerprint(&e);

                let mut e = build();
                let victims = victims.map_or(0..e.shards(), |v| v..v + 1);
                let mut out = VecSink::new();
                let mut resume = (0, None, 0); // op, snapshot, output length
                let mut failed: Option<(Error, usize)> = None;
                for (i, op) in ops.iter().enumerate() {
                    if i == kill_before {
                        for v in victims.clone() {
                            kill(&e, v, payload(v).0);
                        }
                    }
                    match (apply(&mut e, &tuples, op, &mut out), &failed) {
                        (Ok(snap), None) => {
                            if let Some(snap) = snap {
                                resume = (i + 1, Some(snap), out.len());
                            }
                        }
                        (Err(err), None) => {
                            let Error::ShardFailed { shard, reason } = &err else {
                                panic!("{label}: op {i} failed with {err:?}");
                            };
                            assert!(victims.contains(shard), "{label}: {err}");
                            assert_eq!(*reason, payload(*shard).1, "{label}");
                            assert!(err.to_string().contains("boom"), "{label}: {err}");
                            failed = Some((err, out.len()));
                        }
                        (result, Some((first, delivered))) => {
                            assert_eq!(result.err().as_ref(), Some(first), "{label}: op {i}");
                            assert_eq!(out.len(), *delivered, "{label}: op {i} delivered");
                        }
                    }
                }
                assert!(failed.is_some(), "{label}: the finish finds the death");
                assert!(out.len() <= expected.len(), "{label}");
                assert_eq!(out.as_slice(), &expected.as_slice()[..out.len()], "{label}");

                let (at, snap, delivered) = resume;
                let mut restored = match snap {
                    Some(snap) => ShardedEngine::restore(&snap).unwrap(),
                    None => build(),
                };
                let mut replayed = VecSink::new();
                replayed.accept_batch(&out.as_slice()[..delivered]);
                for op in &ops[at..] {
                    apply(&mut restored, &tuples, op, &mut replayed).unwrap();
                }
                assert_eq!(replayed.as_slice(), expected.as_slice(), "{label}");
                assert_eq!(fingerprint(&restored), expected_metrics, "{label}");
            });
            let waited = watchdog.recv_timeout(Duration::from_secs(60));
            if waited == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                panic!("{label} did not finish within a minute");
            }
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }

        #[test]
        fn kill_right_before_a_barrier_or_a_control_op_is_recovered() {
            for parallelism in [1usize, 2, 4] {
                for next in [
                    Op::Feed(200..400),
                    Op::Add(1, FilterSpec::delta("t", 1.0, 0.4)),
                    Op::Update(0, FilterId::from_index(1), FilterSpec::delta("t", 2.5, 1.1)),
                    Op::Checkpoint,
                    Op::Finish,
                ] {
                    check_fail_stop(parallelism, log(next), 3, Some(0));
                }
            }
        }

        /// Killing every worker reports one of them, by its own message.
        #[test]
        fn checkpoint_then_kill_replays_only_the_suffix() {
            for parallelism in [2usize, 4] {
                check_fail_stop(parallelism, log(Op::Feed(200..400)), 3, None);
            }
        }

        /// Before the first checkpoint the recovery point is the build, and
        /// the caller's log replays from the start.
        #[test]
        fn kill_without_checkpoint_replays_from_the_start() {
            for parallelism in [1usize, 2, 4] {
                let ops = vec![Op::Feed(0..150), Op::Feed(150..400), Op::Finish];
                check_fail_stop(parallelism, ops, 1, Some(0));
            }
        }

        #[test]
        fn a_panic_without_a_message_is_reported_with_a_fixed_reason() {
            let s = schema();
            let mut e = ShardedEngine::builder()
                .route("only", group(&s, 1.0))
                .build()
                .unwrap();
            kill(&e, 0, Box::new(7u32));
            let failed = Error::ShardFailed {
                shard: 0,
                reason: NO_PANIC_MESSAGE.into(),
            };
            assert_eq!(e.finish_into(&mut NullSink), Err(failed));
        }

        #[test]
        fn restore_resumes_at_the_checkpoint_position() {
            let s = schema();
            let tuples = stream(&s, 500);
            let mut e = ShardedEngine::builder()
                .route("only", group(&s, 1.0))
                .build()
                .unwrap();
            let mut pre = VecSink::new();
            feed(&mut e, &tuples[..250], 19, &mut pre).unwrap();
            let snap = e.checkpoint(&mut pre).unwrap();
            let mut expected_post = VecSink::new();
            run(&mut e, &tuples[250..], 19, &mut expected_post).unwrap();

            // "Crash": drop everything, rebuild from the snapshot, replay
            // the suffix from the caller's log.
            let mut restored = ShardedEngine::restore(&snap).unwrap();
            assert_eq!(restored.input_tuples(), 250);
            let mut replayed = VecSink::new();
            // the restored engine rejects anything but the exact suffix
            assert!(feed(&mut restored, &tuples[100..101], 1, &mut replayed).is_err());
            run(&mut restored, &tuples[250..], 19, &mut replayed).unwrap();
            assert_eq!(replayed.as_slice(), expected_post.as_slice());
            assert_eq!(restored.metrics().input_tuples, 500, "lifetime continues");
        }

        /// Parallelism 0 spawns no worker, before or after a restore: the
        /// output is the one a worker produces, every push has merged by
        /// the time it returns, and a checkpoint restores inline.
        #[test]
        fn an_inline_engine_has_no_worker_to_kill() {
            let s = schema();
            let tuples = stream(&s, 300);
            let build = |parallelism: usize| {
                ShardedEngine::builder()
                    .parallelism(parallelism)
                    .route("a", group(&s, 1.0))
                    .route("b", group(&s, 0.5))
                    .build()
                    .unwrap()
            };
            let mut expected = VecSink::new();
            let mut worker = build(1);
            feed(&mut worker, &tuples[..120], 16, &mut expected).unwrap();
            worker.checkpoint(&mut expected).unwrap();
            run(&mut worker, &tuples[120..], 16, &mut expected).unwrap();

            let threadless = |e: &ShardedEngine| {
                e.shards() == 0 && matches!(e.shards[..], [Link::Inline { .. }])
            };
            let mut inline = build(0);
            assert!(threadless(&inline));
            let mut out = VecSink::new();
            feed(&mut inline, &tuples[..120], 16, &mut out).unwrap();
            assert_eq!(inline.in_flight(), 0, "an inline push merges at once");
            assert_eq!(inline.metrics().input_tuples, 2 * 120, "live metrics");
            let snap = inline.checkpoint(&mut out).unwrap();
            assert_eq!(snap.parallelism(), 0);
            let mut restored = ShardedEngine::restore(&snap).unwrap();
            assert!(threadless(&restored), "an inline snapshot restores inline");
            run(&mut restored, &tuples[120..], 16, &mut out).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice());
        }

        #[test]
        fn checkpoint_applies_queued_control_ops_at_the_barrier() {
            let s = schema();
            let mut e = ShardedEngine::builder()
                .route("only", group(&s, 1.0))
                .build()
                .unwrap();
            let mut out = VecSink::new();
            let tuples = stream(&s, 200);
            feed(&mut e, &tuples[..90], 11, &mut out).unwrap();
            let added = e.add_filter(0, FilterSpec::delta("t", 1.0, 0.4)).unwrap();
            let snap = e.checkpoint(&mut out).unwrap();
            let roster = snap.route_snapshots()[0].roster();
            assert!(roster.iter().any(|(id, _)| *id == added));
            assert_eq!(snap.route_snapshots()[0].epoch(), 1);
            run(&mut e, &tuples[90..], 11, &mut out).unwrap();
        }

        #[test]
        fn a_route_error_fails_the_checkpoint_and_then_the_finish() {
            let s = Schema::new(["t", "u"]);
            let on = |attr: &str| {
                GroupEngine::builder(s.clone()).filter(FilterSpec::delta(attr, 2.0, 0.9))
            };
            for parallelism in [1usize, 2] {
                let mut e = ShardedEngine::builder()
                    .parallelism(parallelism)
                    .route("needs-t", on("t"))
                    .route("needs-u", on("u"))
                    .build()
                    .unwrap();
                let mut b = TupleBuilder::new(&s);
                // `u` is never set, so the second route fails on the first row
                let rows: Vec<Tuple> = (0..8u64)
                    .map(|i| {
                        b.at_millis(10 * (i + 1))
                            .set("t", i as f64)
                            .build()
                            .unwrap()
                    })
                    .collect();
                let mut out = VecSink::new();
                feed(&mut e, &rows, 8, &mut out).unwrap();
                let err = e.checkpoint(&mut out).unwrap_err();
                assert!(
                    matches!(err, Error::MissingValue { .. }),
                    "x{parallelism}: {err:?}"
                );
                assert_eq!(e.finish_into(&mut out), Err(err), "x{parallelism}");
            }
        }
    }
}
