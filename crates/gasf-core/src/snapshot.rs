//! Checkpoint/restore at safe points: the engine-side half of the
//! fault-tolerance story.
//!
//! A long-lived deployment must survive a crashed worker, a killed
//! process, or a whole host going away without losing its subscription
//! roster, its accounting, or — most importantly — its
//! **determinism**. The mechanism is the *safe point* the subscription
//! control plane already defines: the epoch boundary where every open
//! candidate set is force-closed, every region completed, and everything
//! pending released (see the [engine docs](crate::engine)). At that
//! boundary the engine's only durable state is
//!
//! * the filter roster (with vacancy holes and the never-reused
//!   [`FilterId`] frontier),
//! * the epoch counter and the lifetime metrics (one accumulator of
//!   O(roster) size),
//! * the stream position (last accepted timestamp + sequence number, i.e.
//!   the seq-ring frontier) and the output watermark,
//! * the engine configuration (schema, algorithm, output strategy, time
//!   constraint, predictor tuning).
//!
//! Open candidate/region state is **excluded by construction**: snapshots
//! are taken only at boundary drains, so there is nothing transient to
//! serialise.
//!
//! None of it grows with stream length or with the number of boundaries
//! crossed: latencies and region sizes are fixed-footprint
//! [`Histogram`](crate::metrics::Histogram)s, so a snapshot's size is set
//! by the roster. [`GroupSnapshot`] captures exactly that state for one
//! [`GroupEngine`](crate::engine::GroupEngine);
//! [`EngineSnapshot`] collects one `GroupSnapshot` per route plus the
//! caller-side stream position for a whole
//! [`ShardedEngine`](crate::shard::ShardedEngine). Both derive the
//! workspace serde markers, so a real serialisation backend drops in with
//! the real `serde` crate.
//!
//! ## The recovery determinism contract
//!
//! Taking a checkpoint crosses an epoch boundary (exactly like a queued
//! control op with an empty op set): the boundary drain is handed to the
//! caller's sink and retained filters restart fresh. Therefore a run that
//! checkpoints at step `K`, **crashes at any later step, restores and
//! replays the suffix** produces — byte for byte — the emission stream of
//! the fault-free run with the same checkpoint schedule. The contract is
//! pinned exhaustively (every `Algorithm` × `OutputStrategy` ×
//! parallelism ∈ {1, 2, 4}, plus property-based random crash schedules)
//! in `tests/tests/recovery_equivalence.rs`.
//!
//! ```rust
//! use gasf_core::prelude::*;
//!
//! # fn main() -> Result<(), gasf_core::Error> {
//! let schema = Schema::new(["t"]);
//! let mut live = GroupEngine::builder(schema.clone())
//!     .filter(FilterSpec::delta("t", 2.0, 0.9))
//!     .filter(FilterSpec::delta("t", 3.0, 1.4))
//!     .build()?;
//! let mut b = TupleBuilder::new(&schema);
//! let tuples: Vec<Tuple> = (0..200)
//!     .map(|i| {
//!         b.at_millis(10 * (i + 1))
//!             .set("t", (i as f64 * 0.7).sin() * 6.0)
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//!
//! // Stream half, then checkpoint at the safe-point boundary.
//! let mut out = VecSink::new();
//! for t in &tuples[..100] {
//!     live.push_into(t.clone(), &mut out)?;
//! }
//! let snapshot = live.snapshot_into(&mut out)?; // boundary drain lands in `out`
//!
//! // The fault-free engine keeps going…
//! let mut expected = VecSink::new();
//! for t in &tuples[100..] {
//!     live.push_into(t.clone(), &mut expected)?;
//! }
//! live.finish_into(&mut expected)?;
//!
//! // …while a crashed replica restores from the snapshot and replays the
//! // suffix: the continuation is byte-identical.
//! let mut restored = GroupEngine::restore(&snapshot)?;
//! let mut replayed = VecSink::new();
//! for t in &tuples[100..] {
//!     restored.push_into(t.clone(), &mut replayed)?;
//! }
//! restored.finish_into(&mut replayed)?;
//! assert_eq!(replayed.as_slice(), expected.as_slice());
//! assert_eq!(restored.epoch(), 1); // the checkpoint crossed one epoch boundary
//! # Ok(())
//! # }
//! ```

use crate::candidate::FilterId;
use crate::cuts::TimeConstraint;
use crate::engine::{Algorithm, OutputStrategy};
use crate::metrics::EngineMetrics;
use crate::quality::FilterSpec;
use crate::schema::Schema;
use crate::time::Micros;
use serde::{Deserialize, Serialize};

/// The full safe-point state of one
/// [`GroupEngine`](crate::engine::GroupEngine).
///
/// Produced by [`GroupEngine::snapshot_into`](crate::engine::GroupEngine::snapshot_into)
/// (which first drains the epoch boundary into the caller's sink) and
/// consumed by [`GroupEngine::restore`](crate::engine::GroupEngine::restore).
/// See the [module docs](self) for what is — and deliberately is not —
/// captured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupSnapshot {
    pub(crate) schema: Schema,
    pub(crate) algorithm: Algorithm,
    pub(crate) strategy: OutputStrategy,
    /// The caller's explicit constraint (the effective one is recomputed
    /// from the restored roster, exactly as the live engine does).
    pub(crate) constraint: Option<TimeConstraint>,
    pub(crate) predictor_window: usize,
    pub(crate) overestimate_us: f64,
    /// Slot-indexed roster; `None` is a vacancy left by a removed filter.
    pub(crate) roster: Vec<Option<FilterSpec>>,
    /// The never-reused filter-id frontier.
    pub(crate) next_filter_id: u32,
    /// Epochs completed at the snapshot boundary (the checkpoint itself
    /// counts: it ends the running epoch).
    pub(crate) epoch: u64,
    /// Lifetime metrics at the boundary, which a restored engine
    /// continues from.
    pub(crate) metrics: EngineMetrics,
    pub(crate) watermark: Micros,
    /// Timestamp of the last accepted tuple (stream-order frontier).
    pub(crate) last_ts: Option<Micros>,
    /// Sequence number of the last accepted tuple (seq-ring frontier).
    pub(crate) last_seq: Option<u64>,
}

impl GroupSnapshot {
    /// The stream schema the engine was built for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configured second-stage algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Epochs completed at the snapshot boundary.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime metrics at the boundary — what a restored engine
    /// continues from.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The live roster at the boundary: `(id, spec)` per occupied slot,
    /// ascending by id (vacancy holes are skipped but preserved).
    pub fn roster(&self) -> Vec<(FilterId, FilterSpec)> {
        self.roster_iter().map(|(id, s)| (id, s.clone())).collect()
    }

    /// Borrowing form of [`roster`](Self::roster): the occupied slots
    /// without cloning any spec.
    pub fn roster_iter(&self) -> impl Iterator<Item = (FilterId, &FilterSpec)> {
        self.roster
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (FilterId::from_index(i), s)))
    }

    /// Number of live filters captured.
    pub fn group_size(&self) -> usize {
        self.roster.iter().flatten().count()
    }

    /// The stream position `(timestamp, seq)` of the last tuple accepted
    /// before the boundary, or `None` for a snapshot of a never-fed
    /// engine. A restored engine resumes ordering validation from exactly
    /// this frontier, so replaying the post-checkpoint suffix is the only
    /// input it accepts.
    pub fn stream_position(&self) -> Option<(Micros, u64)> {
        match (self.last_ts, self.last_seq) {
            (Some(ts), Some(seq)) => Some((ts, seq)),
            _ => None,
        }
    }
}

/// A whole-engine checkpoint of a
/// [`ShardedEngine`](crate::shard::ShardedEngine): one [`GroupSnapshot`]
/// per route (collected by the checkpoint barrier at every route's safe
/// point) plus the caller-side stream position and enough configuration
/// to rebuild the worker topology.
///
/// Produced by [`ShardedEngine::checkpoint`](crate::shard::ShardedEngine::checkpoint),
/// which keeps no copy of it, and consumed by
/// [`ShardedEngine::restore`](crate::shard::ShardedEngine::restore): the
/// one recovery path, after a process crash or a dead worker
/// ([`Error::ShardFailed`](crate::Error::ShardFailed)) alike.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Per-route safe-point snapshots, in route-index order.
    pub(crate) snaps: Vec<GroupSnapshot>,
    /// Route keys, in route-index order (drive shard placement).
    pub(crate) route_keys: Vec<String>,
    pub(crate) parallelism: usize,
    pub(crate) track_step_costs: bool,
    pub(crate) last_ts: Option<Micros>,
    pub(crate) last_seq: Option<u64>,
    pub(crate) input_tuples: u64,
}

impl EngineSnapshot {
    /// Number of routes captured.
    pub fn routes(&self) -> usize {
        self.snaps.len()
    }

    /// The per-route safe-point snapshots, in route-index order.
    pub fn route_snapshots(&self) -> &[GroupSnapshot] {
        &self.snaps
    }

    /// The route keys, in route-index order.
    pub fn route_keys(&self) -> &[String] {
        &self.route_keys
    }

    /// The worker-shard count the engine was built with.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Input tuples the engine had accepted when the checkpoint was taken.
    pub fn input_tuples(&self) -> u64 {
        self.input_tuples
    }

    /// The caller-side stream position at the checkpoint (see
    /// [`GroupSnapshot::stream_position`]).
    pub fn stream_position(&self) -> Option<(Micros, u64)> {
        match (self.last_ts, self.last_seq) {
            (Some(ts), Some(seq)) => Some((ts, seq)),
            _ => None,
        }
    }
}
