//! # gasf-core — Group-Aware Stream Filtering
//!
//! A Rust implementation of the *group-aware stream filtering* approach of
//! Ming Li's ICDCS 2007 paper / Dartmouth dissertation TR2008-621.
//!
//! Many monitoring applications subscribe to the same high-rate data source
//! over a bandwidth-constrained network. Each application installs a
//! *data-selection filter* at the source node and the multiplexed filter
//! outputs are disseminated with tuple-level multicast. Because applications
//! tolerate *slack* in their data-granularity requirements, each filter has —
//! for every logical output — a **candidate set** of quality-equivalent
//! tuples. Group-aware filtering picks one tuple (or `k` tuples) from every
//! candidate set such that the union over the whole group is as small as
//! possible, maximising multicast sharing. That selection problem is the
//! NP-hard minimum hitting-set problem; this crate implements the paper's
//! heuristics:
//!
//! * [`engine::GroupEngine`] with [`engine::Algorithm::RegionGreedy`] — the
//!   region-based greedy algorithm (Fig. 2.6), solving a greedy hitting set
//!   per closed *region* of connected candidate sets,
//! * [`engine::Algorithm::PerCandidateSet`] — the per-candidate-set greedy
//!   algorithm (Fig. 2.10), deciding each filter's output as soon as its
//!   candidate set closes (required for *stateful* candidate sets),
//! * [`engine::Algorithm::SelfInterested`] — the baseline where every filter
//!   emits exactly its reference tuples,
//! * **timely cuts** ([`cuts`]) that force-close candidate sets when a
//!   latency constraint would otherwise be violated (Ch. 3), and
//! * pluggable **output strategies** ([`engine::OutputStrategy`]).
//!
//! The filter taxonomy of Ch. 5 is covered by [`filter::DeltaCompression`]
//! (DC1), [`filter::TrendDelta`] (DC2), [`filter::MultiAttrDelta`] (DC3) and
//! [`filter::StratifiedSampler`] (SS), all implementing [`filter::GroupFilter`]
//! so downstream users can add their own.
//!
//! ## Data path
//!
//! The hot path runs on interned identities, not payloads: every tuple is
//! interned once into the engine's [`tuple::TuplePool`] (an `Arc<Tuple>`
//! pool keyed by the copyable [`tuple::TupleId`] newtype), candidate sets
//! and solvers carry ids only, and recipient labels are packed
//! [`bitset::FilterSet`] bitsets. Payloads are resolved again exactly once,
//! at emission time — and emissions flow downstream through the
//! [`sink::EmissionSink`] seam: the engine stages releases in a reusable
//! scratch buffer and hands them to the sink by reference, so the
//! steady-state release path allocates no `Vec<Emission>` per push.
//!
//! The same seam hosts the multi-core path: [`shard::ShardedEngine`]
//! deals independent filter groups round-robin over worker threads fed by
//! bounded channels and merges their emissions back in deterministic
//! `(input step, route)` order, so sharded output is byte-identical to
//! running each group inline.
//!
//! Filter groups are **live**: `add_filter`/`remove_filter`/
//! `update_filter` (on both engines; the sharded one ships them as
//! control messages interleaved with the data channel) queue roster
//! changes that apply at the next epoch boundary, with stable
//! never-reused [`candidate::FilterId`]s, vacancy-tolerant recipient
//! bitsets and lifetime metrics — and churn is byte-identical to a
//! static rebuild with the post-churn roster (see the engine docs).
//!
//! The same safe point powers **fault tolerance** ([`snapshot`]):
//! `GroupEngine::snapshot_into`/`restore` capture and rebuild the full
//! boundary state, `ShardedEngine::checkpoint` collects per-route
//! snapshots behind a barrier, and a crashed worker shard is respawned
//! from the last checkpoint with a bounded replay log — crash + restore
//! + replay reproduces the fault-free run byte for byte.
//!
//! ## Quickstart
//!
//! ```rust
//! use gasf_core::prelude::*;
//!
//! # fn main() -> Result<(), gasf_core::Error> {
//! let schema = Schema::new(["temperature"]);
//! let mut engine = GroupEngine::builder(schema.clone())
//!     .algorithm(Algorithm::RegionGreedy)
//!     .filter(FilterSpec::delta("temperature", 50.0, 10.0))
//!     .filter(FilterSpec::delta("temperature", 40.0, 5.0))
//!     .build()?;
//!
//! let mut stream = TupleBuilder::new(&schema);
//! let tuples = [0.0, 35.0, 29.0, 45.0, 50.0, 59.0]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, v)| {
//!         stream
//!             .at_millis(i as u64 * 10 + 1)
//!             .set("temperature", *v)
//!             .build()
//!             .expect("fixture")
//!     });
//!
//! // Emissions stream into any `EmissionSink`; `VecSink` materialises
//! // them when the whole output is wanted at once.
//! let mut out = VecSink::new();
//! engine.run_into(tuples, &mut out)?;
//! for emission in out.as_slice() {
//!     // `emission.tuple` is the pool's shared Arc<Tuple>;
//!     // `emission.recipients` is a packed FilterSet of filter ids.
//!     println!("send {} to {}", emission.tuple.id(), emission.recipients);
//! }
//! assert!(!out.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod batch;
pub mod bitset;
pub mod candidate;
pub mod connector;
pub mod cuts;
pub mod engine;
pub mod error;
pub mod event_time;
pub mod filter;
pub mod hitting_set;
pub mod metrics;
pub mod monitor;
pub mod plan;
pub mod prelude;
pub mod quality;
pub mod region;
pub mod schema;
mod seq_ring;
pub mod shard;
pub mod shed;
pub mod sink;
pub mod snapshot;
pub mod time;
pub mod tuple;
pub mod utility;

pub use error::Error;
