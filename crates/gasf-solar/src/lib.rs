//! # gasf-solar — stream-processing middleware substrate
//!
//! The paper's prototype packages group-aware filtering as a service of
//! *Solar*, Dartmouth's content-based publish/subscribe data-dissemination
//! system (§4.1.1): sources advertise via source proxies, applications
//! subscribe with data-quality specifications, specs propagate through the
//! operator graph toward the sources (Fig. 2.2/3.1), and a group-aware
//! filtering service on each source node feeds an application-level
//! multicast facility.
//!
//! This crate rebuilds that middleware over the [`gasf_net`] overlay:
//!
//! * [`Middleware`] — pub/sub registry + the group-aware filtering service
//!   (one [`ShardedEngine`](gasf_core::shard::ShardedEngine) per source,
//!   one [`GroupEngine`](gasf_core::engine::GroupEngine) route per filter
//!   group) + multicast dissemination with end-to-end accounting; its
//!   data path is the sink-based [`Pipeline`] (event-time front end →
//!   engine → [`Metered`] flow accounting → [`MulticastSink`]), and a
//!   **run of rows** is the only thing that crosses it: a single tuple is
//!   a run of one, and every run reaches the engine as one columnar
//!   batch. A source's engine filters on the caller thread at
//!   [`MiddlewareConfig::parallelism`] ≤ 1 and on `min(parallelism,
//!   parts)` worker threads above it — byte-identical output, the parts
//!   merged in `(row, part)` order, one thread hand-off per run, so hand
//!   over what you have,
//! * a **live subscription control plane** — [`Middleware::subscribe`] /
//!   [`Middleware::unsubscribe`] / [`Middleware::resubscribe`] work after
//!   deployment and return stable [`SubscriptionHandle`]s, and
//!   [`Middleware::regroup`] re-partitions a source's live subscribers
//!   (via [`partition`]) into the routes of a rebuilt engine at an epoch
//!   boundary — §4.8/§6.2's
//!   regrouping, running inside the system instead of on paper,
//! * **checkpoint/recover fault tolerance** —
//!   [`Middleware::checkpoint`] snapshots every source engine at its
//!   safe-point boundary together with the subscription roster, per-app
//!   delivery statistics and [`FlowMonitor`] accounting;
//!   [`Middleware::recover`] rebuilds the deployment on a fresh overlay
//!   under the same stable [`SubscriptionHandle`]s, and
//!   [`Middleware::fail_node`] drives the overlay's Scribe self-repair
//!   for interior forwarder failures,
//! * [`OperatorGraph`] — quality-spec propagation from applications to
//!   sources through in-network operators,
//! * [`FlowMonitor`] — the input-buffer congestion/flow-control logic the
//!   paper discusses in §4.8 (large groups can congest the filter's input
//!   buffer; the system must shed load or degrade quality),
//! * **bounded ingress + quality-aware shedding** — §4.8 made mechanical:
//!   a per-source [`CreditGate`] bounds the input buffer
//!   ([`Pipeline::offer`], the one admission every row reaches an engine
//!   through, returns [`PushOutcome`](gasf_core::shed::PushOutcome)
//!   instead of buffering without limit; borrowing the pipeline fails
//!   before a credit moves when the source has no live part), a
//!   [`Shedder`] climbs each
//!   subscription's declared degradation ladder under sustained pressure
//!   (and fully restores it when pressure clears), and
//!   [`Pipeline::ingest`] drives a
//!   [`SourceConnector`](gasf_core::connector::SourceConnector) through
//!   the gated path end to end, over the overlay or any transport.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backpressure;
mod flow;
mod graph;
mod middleware;
mod regroup;
pub mod shedder;

pub use backpressure::CreditGate;
pub use flow::{FlowDecision, FlowMonitor, Metered};
pub use graph::{OpKind, OperatorGraph, OperatorId};
pub use middleware::{
    AppReport, EventTimeStats, GrantPolicy, IngestOptions, IngestReport, Middleware,
    MiddlewareConfig, MiddlewareSnapshot, MulticastSink, Offer, Pipeline, RunReport, SolarError,
    SourceId, SubscriptionHandle,
};
pub use regroup::{is_valid_partition, partition, GroupingStrategy, Partition};
pub use shedder::{ShedAction, ShedConfig, Shedder};
