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
//! sink **one `accept_batch` per contiguous run of one reply** — a single
//! call per batch when one route is hosted, since its runs are already
//! in row order. Nothing in the reply is allocated per row. A route
//! failure voids the runs at and past the failing `(row, route)` in every
//! shard's reply, and nothing merged after it is delivered — exactly
//! where feeding the routes one tuple at a time would have stopped.
//!
//! ## Checkpoint barriers and worker respawn
//!
//! [`checkpoint`](ShardedEngine::checkpoint) and
//! [`finish_into`](ShardedEngine::finish_into) are one barrier: merge
//! everything in flight, send every shard one barrier message, collect
//! every shard's reply, deliver the tails in route order. Between
//! checkpoints the engine logs every batch and control op it ships, up to
//! [`REPLAY_CAPACITY`] tuple-equivalents. A worker found dead — a panic,
//! or [`kill_shard`](ShardedEngine::kill_shard) — is rebuilt from the last
//! checkpoint, the log is replayed into it and the replies the caller
//! already merged are discarded, at most [`MAX_RESPAWNS`] times per engine.
//! Whatever the caller was waiting on when it found the death reaches the
//! new worker one of two ways:
//!
//! | outstanding request | after a respawn |
//! |---|---|
//! | data batch (`push_batch_columnar`) | carried by the replay: logged before it is sent |
//! | control op (`add_filter`, `remove_filter`, `update_filter`) | carried by the replay: logged before it is sent |
//! | barrier (`checkpoint`, `finish_into`) | re-issued: never logged |
//! | any, at parallelism 0 | none: no worker can die, so nothing is logged and `kill_shard` has no shard to kill |
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
use crate::plan::EvaluatorTier;
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

#[derive(Debug, Clone)]
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
    /// Fault injection: the worker exits immediately without replying —
    /// indistinguishable, from the caller's side, from a panicked worker
    /// thread (both disconnect the channels).
    Die,
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
    /// The evaluator tier this route's engine runs (worker rebuilds after
    /// a crash keep the tier the route was configured with).
    tier: EvaluatorTier,
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

/// Bound of the post-checkpoint replay log, in tuple-equivalents (one per
/// tuple, one per control op). The engine logs every batch and control op
/// it ships since the last [`checkpoint`](ShardedEngine::checkpoint) so a
/// crashed worker can be respawned and replayed; once the log would
/// exceed this bound it is dropped — memory stays bounded, but a death is
/// an error until the next checkpoint resets the log. Checkpoint at least
/// every `REPLAY_CAPACITY` tuples to keep the recovery guarantee live.
pub const REPLAY_CAPACITY: usize = 65_536;

/// How many times crashed shard workers may be rebuilt from the last
/// checkpoint over an engine's lifetime (a restored engine starts afresh)
/// before a death is reported as an error instead. The budget guards
/// against crash loops: a worker that dies deterministically on replay
/// would otherwise respawn forever.
pub const MAX_RESPAWNS: u32 = 4;

/// Batches kept in flight per worker before a push blocks and merges:
/// one being filtered, one queued behind it, so a worker never idles
/// while the caller merges. This bounds the engine's buffering to
/// `QUEUE_DEPTH + 1` of the caller's batches per worker. An inline
/// engine keeps none: its shard has already run a batch when it merges.
const QUEUE_DEPTH: usize = 2;

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
        // The recovery baseline: a worker that dies before the first
        // checkpoint is rebuilt from the routes' never-fed snapshots —
        // and a fresh engine is itself a restore of those snapshots, so
        // "fresh build" and "recovery rebuild" are one code path that
        // cannot drift apart.
        let mut snaps = Vec::with_capacity(self.routes.len());
        let mut tiers = Vec::with_capacity(self.routes.len());
        let mut route_keys = Vec::with_capacity(self.routes.len());
        for (key, builder) in self.routes {
            tiers.push(builder.configured_evaluator());
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
        ShardedEngine::start(snap, tiers)
    }
}

/// Deals the routes round-robin over `parallelism` shards — route `i` on
/// shard `i mod parallelism`, whatever its key — and spawns one worker
/// thread per non-empty shard, so `min(parallelism, routes)` workers run;
/// parallelism 0 keeps every route on one inline shard instead.
/// Returns the shard handles plus the route-index → shard map. Build and
/// restore both come through here with the routes in snapshot order, and
/// the worker-respawn path rebuilds one shard's own routes through
/// [`spawn_worker`], so placement is the same rule everywhere.
fn spawn_shards(
    parallelism: usize,
    engines: Vec<GroupEngine>,
) -> Result<(Vec<ShardHandle>, Vec<usize>), Error> {
    let n = parallelism.clamp(1, engines.len());
    let mut assignment: Vec<Vec<(u32, GroupEngine)>> = Vec::new();
    assignment.resize_with(n, Vec::new);
    let route_shard: Vec<usize> = (0..engines.len()).map(|idx| idx % n).collect();
    for (idx, engine) in engines.into_iter().enumerate() {
        assignment[idx % n].push((idx as u32, engine));
    }
    let mut shards = Vec::with_capacity(n);
    for (shard_no, slots) in assignment.into_iter().enumerate() {
        let routes: Vec<u32> = slots.iter().map(|(idx, _)| *idx).collect();
        let link = if parallelism == 0 {
            Link::Inline {
                shard: Shard::new(slots),
                replies: VecDeque::new(),
            }
        } else {
            let (tx, rx, join) = spawn_worker(shard_no, slots)?;
            Link::Worker {
                tx: Some(tx),
                rx,
                join: Some(join),
            }
        };
        shards.push(ShardHandle {
            link,
            routes,
            shard_no,
        });
    }
    Ok((shards, route_shard))
}

/// Spawns one shard worker thread over `engines`, returning its channel
/// endpoints and join handle.
///
/// Capacities are chosen so a worker can always park one more reply than
/// the caller keeps in flight: the worker never blocks on its reply
/// channel, therefore always drains its input channel, therefore the
/// caller's send never deadlocks. The same margin is what lets the
/// respawn path replay a full in-flight window into a fresh worker
/// without draining the live merges first.
#[allow(clippy::type_complexity)]
fn spawn_worker(
    shard_no: usize,
    engines: Vec<(u32, GroupEngine)>,
) -> Result<(SyncSender<ToShard>, Receiver<FromShard>, JoinHandle<()>), Error> {
    let (tx, rx) = sync_channel::<ToShard>(QUEUE_DEPTH + 1);
    let (reply_tx, reply_rx) = sync_channel::<FromShard>(QUEUE_DEPTH + 2);
    let shard = Shard::new(engines);
    let join = std::thread::Builder::new()
        .name(format!("gasf-shard-{shard_no}"))
        .spawn(move || shard_worker(shard, rx, reply_tx))
        .map_err(|e| Error::InvalidConfig {
            reason: format!("failed to spawn shard worker: {e}"),
        })?;
    Ok((tx, reply_rx, join))
}

#[derive(Debug)]
struct ShardHandle {
    link: Link,
    /// Route indices this shard owns, ascending (what a respawn rebuilds).
    routes: Vec<u32>,
    /// The stable shard number (names the worker thread across respawns).
    shard_no: usize,
}

/// How the caller reaches a shard's engines.
#[derive(Debug)]
enum Link {
    /// A worker thread behind bounded channels.
    Worker {
        /// `None` once the engine shuts down (dropping it closes the
        /// worker).
        tx: Option<SyncSender<ToShard>>,
        rx: Receiver<FromShard>,
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
    shards: Vec<ShardHandle>,
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
    /// First shard-side error observed; once set the engine refuses
    /// further input (only [`finish_into`](ShardedEngine::finish_into)
    /// remains, to drain and join the workers).
    poisoned: Option<Error>,
    /// A route error has been merged. The output stops where feeding the
    /// routes one tuple at a time would have stopped, so nothing merged
    /// after it — a later batch from a healthy shard, a barrier tail — is
    /// delivered.
    halted: bool,
    /// Caller-side roster mirror per route (control-op validation and
    /// [`FilterId`] assignment).
    controls: Vec<RouteControl>,
    /// Which spawned shard handle owns each route.
    route_shard: Vec<usize>,
    /// Emissions merged while servicing a control op (the caller has no
    /// sink at that moment); delivered at the start of the next
    /// push/finish, preserving the emission sequence exactly.
    staged: VecSink,
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
    /// Per-route safe-point snapshots from the last checkpoint barrier
    /// (never-fed initial snapshots until the first checkpoint) — what a
    /// crashed worker is rebuilt from. Empty on an inline engine.
    last_checkpoint: Vec<GroupSnapshot>,
    /// The bounded post-checkpoint replay log: every data batch (each
    /// shard received it; the log holds the same shared `Arc`) and control
    /// op (only the owning shard did) shipped since the last checkpoint,
    /// in channel order, so a respawned shard can be brought back to the
    /// live stream position deterministically. Never written on an inline
    /// engine.
    replay_log: Vec<ToShard>,
    /// Cost of the replay log in tuple-equivalents (one per tuple, one
    /// per control op), so churn-heavy streams stay bounded too.
    replay_cost: usize,
    /// The log exceeded [`REPLAY_CAPACITY`] and was dropped: respawn is
    /// refused until the next checkpoint.
    replay_overflowed: bool,
    /// Batches merged (delivered to a sink) since the last checkpoint —
    /// how many replayed replies a respawned worker must discard.
    merged_since_ckpt: usize,
    /// Worker respawns performed so far (at most [`MAX_RESPAWNS`]).
    respawns: u32,
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
        } else if let [ShardHandle {
            link: Link::Inline { shard, .. },
            ..
        }] = &self.shards[..]
        {
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
    // fault tolerance: checkpoint barriers, worker respawn, restore
    // ------------------------------------------------------------------

    /// Takes a checkpoint: a barrier that merges every in-flight batch
    /// into `sink`, then crosses each
    /// route engine's safe-point boundary (the boundary drains land in
    /// `sink`, in route order) and collects the per-route
    /// [`GroupSnapshot`]s into one [`EngineSnapshot`].
    ///
    /// The checkpoint serves two recovery paths:
    ///
    /// * **worker respawn** (internal, transparent): a shard whose worker
    ///   thread dies — a panic, or [`kill_shard`](Self::kill_shard) fault
    ///   injection — is rebuilt from these snapshots and the bounded
    ///   replay log re-feeds the post-checkpoint suffix, with output
    ///   byte-identical to a fault-free run;
    /// * **full restore** (external): persist the returned snapshot, and
    ///   after a process crash rebuild the whole engine with
    ///   [`restore`](Self::restore), replaying the suffix from the
    ///   caller's own log.
    ///
    /// Checkpointing also resets the replay log, so its memory is bounded
    /// by the checkpoint interval.
    ///
    /// # Errors
    /// [`Error::Finished`] after the stream ended, or the first pending
    /// shard error (a failed checkpoint poisons the engine like any other
    /// shard error).
    pub fn checkpoint<S: EmissionSink>(&mut self, sink: &mut S) -> Result<EngineSnapshot, Error> {
        self.ensure_open(sink)?;
        let (snaps, _, err) = self.barrier(Barrier::Checkpoint, sink);
        if let Some(e) = err {
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        if !self.inline() {
            self.last_checkpoint = snaps.clone();
        }
        self.replay_log.clear();
        self.replay_cost = 0;
        self.replay_overflowed = false;
        self.merged_since_ckpt = 0;
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

    /// Rebuilds a whole sharded engine from a checkpoint — the
    /// full-process recovery path. Every route engine is restored at its
    /// snapshot boundary ([`GroupEngine::restore`]), the worker topology
    /// is respawned with the same route placement, and the caller-side
    /// stream position resumes at the checkpoint, so the only input the
    /// restored engine accepts is the post-checkpoint suffix — which
    /// reproduces the fault-free run byte for byte
    /// (`tests/tests/recovery_equivalence.rs`).
    ///
    /// The restored engine starts with a fresh replay log and a fresh
    /// budget of [`MAX_RESPAWNS`].
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
        // Snapshots carry no tier (compilation is a pure function of the
        // roster); restored processes run the default.
        let tiers = vec![EvaluatorTier::default(); snap.snaps.len()];
        ShardedEngine::start(snap.clone(), tiers)
    }

    /// Restores every route of `snap` onto its tier and spawns the
    /// workers — what [`ShardedEngineBuilder::build`] and
    /// [`restore`](Self::restore) both are.
    fn start(snap: EngineSnapshot, tiers: Vec<EvaluatorTier>) -> Result<ShardedEngine, Error> {
        // Workers keep the snapshots to rebuild a dead one from; an inline
        // engine, which never rebuilds, moves them into its engines.
        let parallelism = snap.parallelism;
        let mut last_checkpoint = snap.snaps;
        let owned = match parallelism {
            0 => std::mem::take(&mut last_checkpoint),
            _ => last_checkpoint.clone(),
        };
        let mut controls = Vec::with_capacity(owned.len());
        let mut engines = Vec::with_capacity(owned.len());
        for (g, tier) in owned.into_iter().zip(tiers) {
            controls.push(RouteControl {
                schema: g.schema().clone(),
                algorithm: g.algorithm(),
                tier,
                live: g.roster_iter().map(|(id, _)| id.index() as u32).collect(),
                next_id: g.next_filter_id,
            });
            engines.push(GroupEngine::restore_owned(g, tier)?);
        }
        let (shards, route_shard) = spawn_shards(parallelism, engines)?;
        Ok(ShardedEngine {
            shards,
            n_routes: controls.len(),
            route_keys: snap.route_keys,
            parallelism,
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
            staged: VecSink::new(),
            route_metrics: Vec::new(),
            step_costs: Vec::new(),
            merge_replies: Vec::new(),
            merge_runs: Vec::new(),
            last_checkpoint,
            replay_log: Vec::new(),
            replay_cost: 0,
            replay_overflowed: false,
            merged_since_ckpt: 0,
            respawns: 0,
        })
    }

    /// Fault injection: simulates a hard crash of one worker shard (for
    /// tests, chaos drills and the `failover` example). The worker exits
    /// without replying, exactly as if its thread had panicked; the
    /// engine detects the death on the next send or merge that touches
    /// the shard and respawns it transparently from the last checkpoint
    /// (see [`checkpoint`](Self::checkpoint)). Output remains
    /// byte-identical to a fault-free run as long as the respawn budget
    /// and the replay log hold out.
    ///
    /// # Errors
    /// [`Error::Finished`] after the stream ended, or
    /// [`Error::InvalidConfig`] for an unknown shard index — every index
    /// on an inline engine, which has no worker.
    pub fn kill_shard(&mut self, shard: usize) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        if shard >= self.shards() {
            return Err(Error::InvalidConfig {
                reason: format!("unknown shard index {shard} (have {})", self.shards()),
            });
        }
        // An already-dead worker ignores the message either way.
        if let Link::Worker { tx: Some(tx), .. } = &self.shards[shard].link {
            let _ = tx.send(ToShard::Die);
        }
        Ok(())
    }

    /// Worker respawns performed so far (0 in a fault-free run).
    pub fn respawns(&self) -> u32 {
        self.respawns
    }

    /// Whether the routes run on the caller thread (parallelism 0).
    fn inline(&self) -> bool {
        self.parallelism == 0
    }

    /// Reserves `cost` tuple-equivalents in the bounded replay log,
    /// reporting whether the entry may be appended. Past the bound the
    /// log is useless, so it is dropped — memory stays bounded and
    /// respawn is refused until the next checkpoint resets it. An inline
    /// engine has nothing to respawn and logs nothing.
    fn try_log_replay(&mut self, cost: usize) -> bool {
        if self.replay_overflowed || self.inline() {
            return false;
        }
        if self.replay_cost.saturating_add(cost) > REPLAY_CAPACITY {
            self.replay_log.clear();
            self.replay_log.shrink_to_fit();
            self.replay_cost = 0;
            self.replay_overflowed = true;
            return false;
        }
        self.replay_cost += cost;
        true
    }

    /// Sends `msg` to shard `si`; an inline shard runs it on the spot and
    /// queues its reply. One of the two places a dead worker is found (the
    /// other is [`recv`](Self::recv)): it is respawned, and a data batch
    /// or control op — logged before it is sent — reaches it through the
    /// replay, while a barrier, which is never logged, is sent again.
    fn send(&mut self, si: usize, mut msg: ToShard) -> Result<(), Error> {
        loop {
            match &mut self.shards[si].link {
                Link::Inline { shard, replies } => {
                    replies.extend(shard.step(msg));
                    return Ok(());
                }
                Link::Worker { tx: Some(tx), .. } => match tx.send(msg) {
                    Ok(()) => return Ok(()),
                    Err(unsent) => msg = unsent.0,
                },
                Link::Worker { tx: None, .. } => {}
            }
            self.recover_shard(si)?;
            if !matches!(msg, ToShard::Barrier(_)) {
                return Ok(());
            }
        }
    }

    /// Receives shard `si`'s next reply, respawning a dead worker. The
    /// replay re-feeds every logged batch and discards the replies already
    /// merged, so an awaited batch reply arrives on the fresh channel; an
    /// awaited barrier reply needs its barrier (`awaited`) sent again.
    fn recv(&mut self, si: usize, awaited: Option<Barrier>) -> Result<FromShard, Error> {
        loop {
            match &mut self.shards[si].link {
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
            self.recover_shard(si)?;
            if let Some(kind) = awaited {
                self.send(si, ToShard::Barrier(kind))?;
            }
        }
    }

    /// Rebuilds a dead shard worker from the last checkpoint and replays
    /// the post-checkpoint suffix into it. Replies for batches the caller
    /// already merged are discarded as they stream back (their emissions
    /// were delivered before the crash, byte-identically — the engines
    /// are deterministic); replies for the still-unmerged window stay
    /// queued for the live merge path. Only [`send`](Self::send) and
    /// [`recv`](Self::recv) call this.
    fn recover_shard(&mut self, si: usize) -> Result<(), Error> {
        let shard_no = self.shards[si].shard_no;
        if self.replay_overflowed {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "shard worker {shard_no} died after the replay log overflowed its \
                     {REPLAY_CAPACITY}-tuple bound; checkpoint more often"
                ),
            });
        }
        if self.respawns == MAX_RESPAWNS {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "shard worker {shard_no} died and the respawn budget is exhausted \
                     ({MAX_RESPAWNS} respawns used)"
                ),
            });
        }
        self.respawns += 1;
        // Reap the dead worker (only a worker can die).
        if let Link::Worker { tx, join, .. } = &mut self.shards[si].link {
            *tx = None;
            if let Some(join) = join.take() {
                let _ = join.join();
            }
        }
        // Rebuild this shard's engines at the last checkpoint boundary.
        let routes = self.shards[si].routes.clone();
        let mut engines = Vec::with_capacity(routes.len());
        for &r in &routes {
            engines.push((
                r,
                GroupEngine::restore_with_tier(
                    &self.last_checkpoint[r as usize],
                    self.controls[r as usize].tier,
                )?,
            ));
        }
        let (tx, rx, join) = spawn_worker(shard_no, engines)?;
        let dead = || Error::InvalidConfig {
            reason: "respawned shard worker died during replay".into(),
        };
        let mut to_discard = self.merged_since_ckpt;
        for msg in &self.replay_log {
            if matches!(msg, ToShard::Control(route, _) if !routes.contains(route)) {
                continue; // another shard's op
            }
            tx.send(msg.clone()).map_err(|_| dead())?;
            // Consume already-merged replies eagerly so the replay of a
            // long suffix never fills the bounded channels.
            if matches!(msg, ToShard::Columnar(_)) && to_discard > 0 {
                match rx.recv() {
                    Ok(FromShard::Batch(_)) => to_discard -= 1,
                    _ => return Err(dead()),
                }
            }
        }
        self.shards[si].link = Link::Worker {
            tx: Some(tx),
            rx,
            join: Some(join),
        };
        Ok(())
    }

    // ------------------------------------------------------------------
    // subscription control plane
    // ------------------------------------------------------------------

    /// Queues a new filter on route `route`, returning its stable
    /// [`FilterId`] immediately (ids are assigned on the caller thread
    /// from a mirror of the route's roster, and replayed to the worker as
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
    ///
    /// # Errors
    /// [`Error::Finished`], a pending shard error,
    /// [`Error::UnknownFilter`], or [`Error::InvalidConfig`] when the
    /// removal would empty the route.
    pub fn remove_filter(&mut self, route: usize, id: FilterId) -> Result<(), Error> {
        self.control_guard(route)?;
        let ctl = &self.controls[route];
        if !ctl.live.contains(&(id.index() as u32)) {
            return Err(Error::UnknownFilter { id });
        }
        if ctl.live.len() == 1 {
            return Err(Error::InvalidConfig {
                reason: format!("removing {id} would leave the route empty"),
            });
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
    /// position — between the batches it was issued between. The
    /// in-flight window is merged down first (into the staging buffer —
    /// the caller has no sink here) so channel capacities are never
    /// exceeded.
    fn send_control(&mut self, route: usize, op: ControlOp) -> Result<(), Error> {
        let mut staged = std::mem::take(&mut self.staged);
        let merged = self.merge_down(&mut staged);
        self.staged = staged;
        merged.inspect_err(|e| self.poisoned = Some((*e).clone()))?;
        let msg = ToShard::Control(route as u32, op);
        if self.try_log_replay(1) {
            self.replay_log.push(msg.clone());
        }
        self.send(self.route_shard[route], msg)
            .inspect_err(|e| self.poisoned = Some((*e).clone()))
    }

    /// The shared head of every call that takes a sink while the stream
    /// is open: refuses a finished engine, delivers what control ops
    /// staged, then refuses a poisoned engine.
    fn ensure_open<S: EmissionSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        if self.finished {
            return Err(Error::Finished);
        }
        self.deliver_staged(sink);
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Delivers emissions merged during control ops (kept in sequence
    /// ahead of anything this call merges).
    fn deliver_staged<S: EmissionSink>(&mut self, sink: &mut S) {
        if !self.staged.is_empty() {
            sink.accept_batch(self.staged.as_slice());
            self.staged.clear();
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
        self.ensure_open(sink)?;
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
        self.deliver_staged(sink);
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
    /// the lowest route's (a dead shard counts as its first route).
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
                Err(e) => note(self.shards[si].routes[0], e),
            }
        }
        let (mut tails, mut snaps, mut metrics) = (Vec::new(), Vec::new(), Vec::new());
        for si in awaiting {
            match self.recv(si, Some(kind)) {
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
                Err(e) => note(self.shards[si].routes[0], e),
            }
        }
        for batch in in_route_order(tails) {
            if !batch.is_empty() && !self.halted {
                sink.accept_batch(&batch);
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

    /// Broadcasts one batch to every shard (an `Arc` bump each). The
    /// batch is appended to the bounded replay log first, so a send that
    /// finds a dead worker recovers it — and the replay, which includes
    /// this batch, *is* the delivery. Every shard is offered the batch
    /// even past a failed one, so each live worker still owes one reply
    /// per batch in flight.
    fn ship(&mut self, batch: &Arc<TupleBatch>) -> Result<(), Error> {
        let msg = ToShard::Columnar(Arc::clone(batch));
        if self.try_log_replay(batch.rows()) {
            self.replay_log.push(msg.clone());
        }
        self.in_flight.push_back(Arc::clone(batch));
        let mut first_err = None;
        for si in 0..self.shards.len() {
            if let Err(e) = self.send(si, msg.clone()) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Receives the oldest in-flight batch's reply from every shard and
    /// feeds the merged emissions to the sink in `(step, route)` order,
    /// one `accept_batch` per contiguous run of one reply. A worker found
    /// dead here is respawned by [`recv`](Self::recv), and its reply for
    /// this batch is taken from the fresh channel, so the merged output is
    /// byte-identical to a fault-free run.
    fn merge_oldest<S: EmissionSink>(&mut self, sink: &mut S) -> Result<(), Error> {
        let batch = self
            .in_flight
            .pop_front()
            .expect("merge_oldest called with a batch in flight");
        let mut replies = std::mem::take(&mut self.merge_replies);
        let mut first_err: Option<(usize, u32, Error)> = None;
        let mut dead_err: Option<Error> = None;
        for si in 0..self.shards.len() {
            match self.recv(si, None) {
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
        // Merge whatever arrived before reporting a dead shard, so healthy
        // routes' emissions for this batch are still delivered. A route
        // error voids the runs at or past its `(row, route)` on every
        // shard, and everything after this batch.
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
        while let Some(&(_, _, ri, start, mut end)) = runs.get(next) {
            next += 1;
            while let Some(&(_, _, r, s, e)) = runs.get(next) {
                if r != ri || s != end {
                    break;
                }
                end = e;
                next += 1;
            }
            sink.accept_batch(&replies[ri].emissions[start..end]);
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
        self.merged_since_ckpt += 1;
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
            if let Link::Worker { tx, .. } = &mut shard.link {
                *tx = None; // dropping the sender ends the worker loop
            }
        }
        for shard in &mut self.shards {
            if let Link::Worker { join, .. } = &mut shard.link {
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
/// each reply back, until the stream ends, a kill arrives or the caller
/// goes away.
fn shard_worker(mut shard: Shard, rx: Receiver<ToShard>, tx: SyncSender<FromShard>) {
    while let Ok(msg) = rx.recv() {
        // Fault injection exits without replying, exactly like a panicked
        // worker — the disconnected channels are what the caller's failure
        // detection keys on. The stream's end exits after its reply.
        let last = matches!(msg, ToShard::Die | ToShard::Barrier(Barrier::Finish));
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
    /// A control op and a kill owe none.
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
            ToShard::Die => None,
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

    mod fault_tolerance {
        use super::*;
        use crate::sink::NullSink;

        #[test]
        fn kill_without_checkpoint_replays_from_the_start() {
            let s = schema();
            let tuples = stream(&s, 400);
            let mut reference = group(&s, 1.0).build().unwrap();
            let mut expected = VecSink::new();
            reference.run_into(tuples.clone(), &mut expected).unwrap();

            let mut e = ShardedEngine::builder()
                .route("only", group(&s, 1.0))
                .build()
                .unwrap();
            let mut out = VecSink::new();
            feed(&mut e, &tuples[..150], 13, &mut out).unwrap();
            e.kill_shard(0).unwrap();
            run(&mut e, &tuples[150..], 13, &mut out).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice());
            assert_eq!(e.respawns(), 1);
        }

        #[test]
        fn checkpoint_then_kill_replays_only_the_suffix() {
            let s = schema();
            let tuples = stream(&s, 500);
            // The fault-free reference takes the same checkpoint (the
            // boundary drain is part of the contract).
            let run_with = |kill: bool| {
                let mut e = ShardedEngine::builder()
                    .parallelism(2)
                    .route("a", group(&s, 1.0))
                    .route("b", group(&s, 0.5))
                    .build()
                    .unwrap();
                let mut out = VecSink::new();
                feed(&mut e, &tuples[..200], 17, &mut out).unwrap();
                let snap = e.checkpoint(&mut out).unwrap();
                assert_eq!(snap.routes(), 2);
                assert_eq!(snap.input_tuples(), 200);
                feed(&mut e, &tuples[200..350], 17, &mut out).unwrap();
                if kill {
                    for shard in 0..e.shards() {
                        e.kill_shard(shard).unwrap();
                    }
                }
                run(&mut e, &tuples[350..], 17, &mut out).unwrap();
                (out.into_vec(), e.respawns(), e.metrics())
            };
            let (expected, zero, m1) = run_with(false);
            let (killed, respawns, m2) = run_with(true);
            assert_eq!(zero, 0);
            assert!(respawns >= 1, "every spawned shard was killed");
            assert_eq!(killed, expected, "respawned output must be byte-identical");
            assert_eq!(m1.output_tuples, m2.output_tuples);
            assert_eq!(m1.input_tuples, m2.input_tuples);
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

        /// Kills shard 0, then feeds `rows` in batches of ten: a death is
        /// found by the third push at the latest (the merge of the first
        /// batch sent after the kill), so 30 rows or more see it inside
        /// the call.
        fn kill_then_feed(
            e: &mut ShardedEngine,
            rows: &[Tuple],
            out: &mut VecSink,
        ) -> Result<(), Error> {
            e.kill_shard(0)?;
            feed(e, rows, 10, out)
        }

        fn one_route(s: &Schema) -> ShardedEngine {
            ShardedEngine::builder()
                .route("only", group(s, 1.0))
                .build()
                .unwrap()
        }

        #[test]
        fn respawn_budget_and_replay_bound_are_enforced() {
            let s = schema();
            // The budget: MAX_RESPAWNS deaths are recovered, the next is
            // fatal.
            let tuples = stream(&s, 50 * (MAX_RESPAWNS as usize + 1));
            let mut chunks = tuples.chunks(50);
            let mut e = one_route(&s);
            let mut out = VecSink::new();
            for rows in chunks.by_ref().take(MAX_RESPAWNS as usize) {
                kill_then_feed(&mut e, rows, &mut out).unwrap();
            }
            assert_eq!(e.respawns(), MAX_RESPAWNS);
            let err = kill_then_feed(&mut e, chunks.next().unwrap(), &mut out).unwrap_err();
            assert!(err.to_string().contains("respawn budget"), "{err}");

            // The replay bound: one tuple past REPLAY_CAPACITY drops the
            // log, so the next death is an error…
            let tuples = stream(&s, REPLAY_CAPACITY + 1 + 50);
            let (head, tail) = tuples.split_at(REPLAY_CAPACITY + 1);
            let mut e = one_route(&s);
            let mut out = VecSink::new();
            feed(&mut e, head, 1024, &mut out).unwrap();
            let err = kill_then_feed(&mut e, tail, &mut out).unwrap_err();
            assert!(err.to_string().contains("replay log overflowed"), "{err}");

            // …until a checkpoint resets the log, making respawn live again.
            let mut e = one_route(&s);
            let mut out = VecSink::new();
            feed(&mut e, head, 1024, &mut out).unwrap();
            e.checkpoint(&mut out).unwrap();
            kill_then_feed(&mut e, tail, &mut out).unwrap();
            e.finish_into(&mut out).unwrap();
            assert_eq!(e.respawns(), 1);
        }

        #[test]
        fn control_ops_count_toward_the_replay_bound() {
            // A churn-heavy stream must not grow the replay log without
            // bound: an op costs one tuple-equivalent, so at exactly
            // REPLAY_CAPACITY tuples the log still replays a death, and one
            // op more drops it.
            let s = schema();
            let tuples = stream(&s, REPLAY_CAPACITY);
            let kill_at_the_bound = |op: bool| {
                let mut e = one_route(&s);
                let mut out = VecSink::new();
                feed(&mut e, &tuples, 1024, &mut out).unwrap();
                if op {
                    let spec = FilterSpec::delta("t", 2.0, 0.9);
                    e.update_filter(0, FilterId::from_index(0), spec).unwrap();
                }
                e.kill_shard(0).unwrap();
                e.finish_into(&mut out).map(|()| e.respawns())
            };
            assert_eq!(kill_at_the_bound(false), Ok(1));
            let err = kill_at_the_bound(true).unwrap_err();
            assert!(err.to_string().contains("replay log overflowed"), "{err}");
        }

        #[test]
        fn restore_keeps_the_fault_tolerance_envelope() {
            // A restored engine has a fresh budget of MAX_RESPAWNS, however
            // much of its own the checkpointed engine spent: the budget-th
            // kill is respawned and the next one is an error.
            let s = schema();
            let budget = MAX_RESPAWNS as usize;
            let tuples = stream(&s, 50 * (2 * budget + 1));
            let mut chunks = tuples.chunks(50);
            let mut e = one_route(&s);
            let mut out = VecSink::new();
            for rows in chunks.by_ref().take(budget) {
                kill_then_feed(&mut e, rows, &mut out).unwrap();
            }
            assert_eq!(e.respawns(), MAX_RESPAWNS);
            let snap = e.checkpoint(&mut out).unwrap();
            let mut restored = ShardedEngine::restore(&snap).unwrap();
            for rows in chunks.by_ref().take(budget) {
                kill_then_feed(&mut restored, rows, &mut out).unwrap();
            }
            assert_eq!(restored.respawns(), MAX_RESPAWNS);
            let err = kill_then_feed(&mut restored, chunks.next().unwrap(), &mut out).unwrap_err();
            assert!(err.to_string().contains("respawn budget"), "{err}");
        }

        /// Parallelism 0 spawns no worker: there is no shard to kill, the
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

            let mut inline = build(0);
            assert_eq!(inline.shards(), 0);
            let err = inline.kill_shard(0).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig { .. }), "{err:?}");
            let mut out = VecSink::new();
            feed(&mut inline, &tuples[..120], 16, &mut out).unwrap();
            assert_eq!(inline.in_flight(), 0, "an inline push merges at once");
            assert_eq!(inline.metrics().input_tuples, 2 * 120, "live metrics");
            let snap = inline.checkpoint(&mut out).unwrap();
            assert_eq!(snap.parallelism(), 0);
            let mut restored = ShardedEngine::restore(&snap).unwrap();
            assert_eq!(restored.shards(), 0, "an inline snapshot restores inline");
            assert!(restored.kill_shard(0).is_err());
            run(&mut restored, &tuples[120..], 16, &mut out).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice());
            assert_eq!(restored.respawns(), 0);
        }

        #[test]
        fn kill_shard_validates_input() {
            let s = schema();
            let mut e = ShardedEngine::builder()
                .route("only", group(&s, 1.0))
                .build()
                .unwrap();
            assert!(matches!(e.kill_shard(7), Err(Error::InvalidConfig { .. })));
            e.finish_into(&mut NullSink).unwrap();
            assert!(matches!(e.kill_shard(0), Err(Error::Finished)));
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

        /// What a kill-at-the-barrier run calls right after the kill.
        #[derive(Debug, Clone, Copy)]
        enum Next {
            Checkpoint,
            Finish,
            Add,
            Update,
        }

        /// Two routes, a checkpoint at row 150, rows up to 200, then
        /// (when `kill`) every shard killed, then `next`, then the rest of
        /// the stream. Runs under a one-minute watchdog: a broken respawn
        /// policy deadlocks — a barrier nobody sends again, a reply channel
        /// full of replies nobody discarded — more often than it diverges.
        fn kill_then(
            parallelism: usize,
            next: Next,
            kill: bool,
        ) -> (Vec<crate::engine::Emission>, u32) {
            let (alive, watchdog) = std::sync::mpsc::channel::<()>();
            let worker = std::thread::spawn(move || {
                let _alive = alive; // dropped when the run returns or panics
                let s = schema();
                let tuples = stream(&s, 400);
                let mut e = ShardedEngine::builder()
                    .parallelism(parallelism)
                    .route("a", group(&s, 1.0))
                    .route("b", group(&s, 0.5))
                    .build()
                    .unwrap();
                let mut out = VecSink::new();
                feed(&mut e, &tuples[..150], 17, &mut out).unwrap();
                e.checkpoint(&mut out).unwrap();
                feed(&mut e, &tuples[150..200], 17, &mut out).unwrap();
                if kill {
                    for shard in 0..e.shards() {
                        e.kill_shard(shard).unwrap();
                    }
                }
                match next {
                    Next::Checkpoint => {
                        e.checkpoint(&mut out).unwrap();
                    }
                    Next::Finish => {}
                    Next::Add => {
                        e.add_filter(1, FilterSpec::delta("t", 1.0, 0.4)).unwrap();
                    }
                    Next::Update => {
                        let spec = FilterSpec::delta("t", 2.5, 1.1);
                        e.update_filter(0, FilterId::from_index(1), spec).unwrap();
                    }
                }
                if !matches!(next, Next::Finish) {
                    feed(&mut e, &tuples[200..], 17, &mut out).unwrap();
                }
                e.finish_into(&mut out).unwrap();
                (out.into_vec(), e.respawns())
            });
            let waited = watchdog.recv_timeout(Duration::from_secs(60));
            if waited == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                panic!("{next:?} x{parallelism} (kill: {kill}) did not finish within a minute");
            }
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }

        #[test]
        fn kill_right_before_a_barrier_or_a_control_op_is_recovered() {
            for parallelism in [1usize, 2] {
                for next in [Next::Checkpoint, Next::Finish, Next::Add, Next::Update] {
                    let (expected, zero) = kill_then(parallelism, next, false);
                    let (killed, respawns) = kill_then(parallelism, next, true);
                    assert_eq!(zero, 0);
                    assert!(respawns >= 1, "{next:?} x{parallelism}");
                    assert_eq!(killed, expected, "{next:?} x{parallelism}");
                }
            }
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
