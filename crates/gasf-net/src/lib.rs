//! # gasf-net — network substrate
//!
//! The paper's prototype disseminates filtered streams with Solar's
//! application-level multicast, built on a Pastry/Scribe-style DHT overlay
//! (§4.1.1), deployed on a small Emulab network with 1–5 Mbps links
//! (§4.1.2). This crate provides the equivalent substrate as a
//! deterministic simulator:
//!
//! * [`Topology`] — an undirected graph of nodes and links with bandwidth
//!   and propagation delay (ring/star/line/grid/random builders),
//! * [`Overlay`] — a DHT ring with Scribe-like rendezvous multicast trees,
//! * [`Overlay::multicast`] — **tuple-level** multicast: every message may
//!   target a different subset of the group, and each message traverses
//!   any link at most once (the property group-aware filtering exploits,
//!   Fig. 1.2),
//! * per-link byte accounting and end-to-end latency modelling
//!   (store-and-forward: software delay per overlay hop + transmission +
//!   propagation per link), calibrated so a small overlay shows the
//!   ~130 ms software-dominated multicast delay the paper measured,
//! * **node-failure semantics with Scribe self-repair** —
//!   [`Overlay::fail_node`] / [`Overlay::recover_node`]: children of a
//!   failed interior tree node re-graft toward the rendezvous root, root
//!   failures hand key ownership to the live ring successor, surviving
//!   members keep receiving, and the repair control cost is accounted
//!   ([`RepairReport`], [`Delivery::repair_bytes`]).
//!
//! * [`Transport`] — the transport seam: the overlay send path behind an
//!   object-safe trait, so the same middleware drains emissions into the
//!   analytic simulator here or a real length-prefixed TCP wire (the
//!   `gasf-wire` crate) without touching engine or middleware code.
//!
//! The paper explicitly scopes out network dynamics (§1.2), so the
//! simulator is analytic (no queuing/congestion model) — delays and byte
//! counts are deterministic functions of topology and message size.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod multicast;
pub mod topology;
pub mod transport;

pub use multicast::{Delivery, GroupId, NetError, Overlay, RepairReport};
pub use topology::{LinkSpec, NodeId, Topology, TopologyBuilder};
pub use transport::{resolve_nodes, LinkLoad, NullTransport, Transport};
