//! # gasf-wire — the real wire under the transport seam
//!
//! The paper's prototype ran over Solar on a real Emulab network; the
//! rest of this workspace models that network analytically. This crate
//! is the other side of the [`Transport`](gasf_net::Transport) seam: a
//! **length-prefixed TCP transport** that moves the engine's emissions
//! between OS processes on localhost, plus everything needed to stand a
//! deployment up and prove it faithful:
//!
//! * [`codec`] — a hand-rolled little-endian byte codec
//!   ([`WireEncode`]/[`WireDecode`]) for `Emission`, `Delivery` and the
//!   core id types, allocation-free on the send path, with
//!   [`StreamDigest`] (each emission's canonical bytes hashed once, the
//!   hash folded into a per-node chain) as the byte-identical-stream
//!   witness;
//! * [`frame`] — the versioned frame format
//!   (`[len][magic][version][tag][body]`) and the [`Frame`] control
//!   protocol (`Hello`/`Emission`/`Finish`/`StatusRequest`/
//!   `StatusReport`/`Shutdown`);
//! * [`layout`] — [`HostLayout`]: a TOML-subset config mapping overlay
//!   [`NodeId`](gasf_net::NodeId)s onto processes, with `GASF_WIRE_*`
//!   env overrides;
//! * [`tcp`] — [`TcpTransport`]: one multiplexed connection per peer
//!   process, buffered writes with explicit flush/backpressure;
//! * [`record`] — [`Recorded`]: a digest-recording tee over any
//!   transport, producing the in-process reference a wire run must
//!   match;
//! * [`socket`] — [`SocketSource`]/[`SocketFeeder`]: the
//!   localhost-socket connector pair (ingress direction of the
//!   connector seam), with crash-reconnect semantics;
//! * [`worker`] — the source/subscriber process bodies behind the
//!   `gasfctl` control binary (`launch`/`smoke`/`status`/`kill`/
//!   `inspect`).
//!
//! The contract throughout: a deployment is correct iff every
//! subscriber node's received stream is **byte-identical** to the
//! in-process run — same emissions, same order, same encoded bytes —
//! while per-link bandwidth accounting stays observable through the
//! seam.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod codec;
pub mod frame;
pub mod layout;
pub mod record;
pub mod socket;
pub mod tcp;
pub mod worker;

pub use codec::{StreamDigest, WireDecode, WireEncode, WireError};
pub use frame::{Frame, NodeDigest, SubscriberReport, DEFAULT_MAX_FRAME};
pub use layout::{HostLayout, ProcessSpec, Role, WorkloadSpec};
pub use record::Recorded;
pub use socket::{SocketFeeder, SocketSource};
pub use tcp::{TcpTransport, WireConfig};
pub use worker::{run_source, run_subscriber, DeploymentOutcome};
