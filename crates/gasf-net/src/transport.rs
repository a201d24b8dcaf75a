//! The transport seam: one trait, many ways to move an emission.
//!
//! [`Overlay::multicast_emission`] is the single funnel through which the
//! middleware pushes filtered tuples into the network. [`Transport`]
//! abstracts that funnel so the *same* middleware code can drain its
//! emissions into
//!
//! * the in-process analytic overlay (this crate — [`Overlay`] implements
//!   `Transport` by delegating to `multicast`, byte-for-byte identical to
//!   calling `multicast_emission` directly), or
//! * a real wire (the `gasf-wire` crate's length-prefixed TCP transport,
//!   which frames each emission and multiplexes per-peer connections), or
//! * a recording tee that wraps either of the above and hashes the
//!   canonical byte stream each recipient node observes.
//!
//! The trait is object safe (`&mut dyn Transport`) because the middleware
//! stores it behind a reference in its per-source sink; that is also why
//! `node_of` is a `&mut dyn FnMut` rather than a generic parameter.
//!
//! ## Two ways to name the recipients
//!
//! [`Transport::send_emission`] takes a label → node map and resolves the
//! emission's recipient nodes itself, with [`resolve_nodes`] — the one
//! place in the workspace that maps every label, sorts and dedups.
//! [`Transport::send_to_nodes`] takes the nodes already resolved, so a
//! caller that keeps per-node label masks (the middleware's
//! `MulticastSink`) can pay one block-AND per node instead of a map call
//! per label plus a sort, whichever is shorter. Every transport in the workspace does its work in
//! `send_to_nodes`; their `send_emission` is `resolve_nodes` followed by
//! `send_to_nodes`.
//!
//! ## Flush and backpressure
//!
//! [`Transport::flush`] is the explicit drain point: a transport may
//! buffer frames (the TCP transport batches small frames per peer
//! connection) and must push everything to the underlying medium when
//! flushed. Backpressure is the transport's responsibility — a bounded
//! implementation blocks inside a send or `flush` until the medium
//! accepts the bytes, and reports a hard failure as
//! [`NetError::Transport`]. The analytic overlay transmits synchronously,
//! so its `flush` is a no-op.

use crate::multicast::{Delivery, GroupId, NetError, Overlay};
use crate::topology::NodeId;
use gasf_core::candidate::FilterId;
use gasf_core::engine::Emission;
use std::fmt;

/// Cumulative traffic over one transport link, as reported by
/// [`Transport::link_loads`]. What a "link" is depends on the transport:
/// an undirected underlay edge for the analytic overlay, a per-peer TCP
/// connection for the wire transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkLoad {
    /// Human-readable link name (e.g. `"n0-n1"` for an overlay edge,
    /// `"p0->p2"` for a peer connection).
    pub link: String,
    /// Bytes that crossed the link since construction or the last
    /// counter reset.
    pub bytes: u64,
}

impl fmt::Display for LinkLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} B", self.link, self.bytes)
    }
}

/// A way to move one emission from a source node to the overlay nodes
/// hosting its recipient filters.
///
/// Implementations must be deterministic given the same call sequence:
/// the distributed-equivalence contract (`tests/tests/
/// distributed_equivalence.rs`) compares per-node byte streams across
/// transports, which only works when neither side reorders or drops
/// emissions.
pub trait Transport: fmt::Debug {
    /// Sends one emission to the nodes hosting its recipient filters.
    ///
    /// `node_of` maps each recipient [`FilterId`] to the overlay node its
    /// subscriber application lives on; implementations collapse
    /// duplicate nodes before sending. The returned [`Delivery`] carries
    /// the transport's own accounting — the analytic overlay reports
    /// modelled per-recipient latencies, while a real wire transport
    /// reports actual bytes written and leaves latencies to the
    /// receiving process.
    ///
    /// # Errors
    /// Transport-specific; the analytic overlay returns its usual
    /// membership/topology errors, a wire transport maps I/O failures to
    /// [`NetError::Transport`].
    fn send_emission(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError>;

    /// Sends one emission to `nodes`, which the caller has already
    /// resolved from the emission's recipients: exactly what
    /// [`resolve_nodes`] makes of them with `node_of` — ascending,
    /// distinct, and every one a member of `group` (a node that is not is
    /// an error, as for `send_emission`). The [`Delivery`], the traffic
    /// counters and what reaches each node must equal those of
    /// [`send_emission`](Self::send_emission) with the same `node_of`.
    ///
    /// `node_of` stays in the signature for the default, which forwards
    /// to `send_emission` so a transport that implements only that (a
    /// wrapper timing its sends, say) still sends real emissions. Every
    /// transport in this workspace overrides it and ignores `node_of`.
    ///
    /// # Errors
    /// Same as [`send_emission`](Self::send_emission).
    fn send_to_nodes(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        nodes: &[NodeId],
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        let _ = nodes;
        self.send_emission(group, src, emission, node_of)
    }

    /// Drains any buffered frames to the underlying medium (see the
    /// module docs on flush/backpressure semantics).
    ///
    /// # Errors
    /// Returns [`NetError::Transport`] when the medium rejects the
    /// buffered bytes.
    fn flush(&mut self) -> Result<(), NetError>;

    /// Total bytes this transport has put on its links.
    fn total_bytes(&self) -> u64;

    /// Number of send operations so far.
    fn messages(&self) -> u64;

    /// Per-link byte counters, sorted by link name — the bandwidth
    /// report `gasfctl inspect` prints.
    fn link_loads(&self) -> Vec<LinkLoad>;
}

/// The distinct nodes an emission's recipients live on, ascending, into
/// `nodes` (cleared first): `node_of` per label, then sort and dedup. The
/// one place the workspace resolves labels this way — every transport's
/// `send_emission` and [`Overlay::multicast_emission`] call it.
pub fn resolve_nodes(
    nodes: &mut Vec<NodeId>,
    emission: &Emission,
    node_of: impl FnMut(FilterId) -> NodeId,
) {
    nodes.clear();
    nodes.extend(emission.recipients.iter().map(node_of));
    nodes.sort_unstable();
    nodes.dedup();
}

/// The analytic overlay *is* a transport: sends delegate to
/// [`Overlay::multicast_emission`] and [`Overlay::multicast`] unchanged,
/// so routing a middleware through `&mut dyn Transport` instead of
/// `&mut Overlay` produces byte-for-byte identical deliveries and
/// accounting.
impl Transport for Overlay {
    fn send_emission(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        self.multicast_emission(group, src, emission, node_of)
    }

    fn send_to_nodes(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        nodes: &[NodeId],
        _node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        self.multicast(group, src, nodes, emission.tuple.wire_size())
    }

    fn flush(&mut self) -> Result<(), NetError> {
        // Synchronous analytic sends: nothing is ever buffered.
        Ok(())
    }

    fn total_bytes(&self) -> u64 {
        Overlay::total_bytes(self)
    }

    fn messages(&self) -> u64 {
        Overlay::messages(self)
    }

    fn link_loads(&self) -> Vec<LinkLoad> {
        Overlay::link_loads(self)
            .into_iter()
            .map(|(a, b, bytes)| LinkLoad {
                link: format!("{a}-{b}"),
                bytes,
            })
            .collect()
    }
}

/// A transport that accepts every send and moves nothing: the seam's
/// `/dev/null`. Deliveries report zero bytes and zero latency for each
/// (deduplicated) recipient node. Useful as the inner transport of a
/// recording tee when only the *stream content* matters — e.g. computing
/// reference digests for a distributed-equivalence check without
/// standing up an overlay — and as a baseline in transport benchmarks.
#[derive(Debug, Default, Clone)]
pub struct NullTransport {
    messages: u64,
    scratch_nodes: Vec<NodeId>,
}

impl NullTransport {
    /// Creates a fresh null transport.
    pub fn new() -> Self {
        NullTransport::default()
    }
}

impl Transport for NullTransport {
    fn send_emission(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        let mut nodes = std::mem::take(&mut self.scratch_nodes);
        resolve_nodes(&mut nodes, emission, &mut *node_of);
        let delivery = self.send_to_nodes(group, src, emission, &nodes, node_of);
        self.scratch_nodes = nodes;
        delivery
    }

    fn send_to_nodes(
        &mut self,
        _group: GroupId,
        _src: NodeId,
        _emission: &Emission,
        nodes: &[NodeId],
        _node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        let latencies = nodes
            .iter()
            .map(|&n| (n, gasf_core::time::Micros::ZERO))
            .collect();
        self.messages += 1;
        Ok(Delivery {
            latencies,
            bytes_on_wire: 0,
            overlay_hops: 0,
            repair_bytes: 0,
        })
    }

    fn flush(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    fn total_bytes(&self) -> u64 {
        0
    }

    fn messages(&self) -> u64 {
        self.messages
    }

    fn link_loads(&self) -> Vec<LinkLoad> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use gasf_core::bitset::FilterSet;
    use gasf_core::candidate::FilterId;
    use gasf_core::schema::Schema;
    use gasf_core::time::Micros;
    use gasf_core::tuple::Tuple;
    use std::sync::Arc;

    fn emission(recipients: &[usize]) -> Emission {
        let schema = Schema::new(["a", "b"]);
        let tuple = Tuple::new(&schema, 0, Micros(10), vec![1.0, 2.0]).unwrap();
        let set: FilterSet = recipients
            .iter()
            .map(|&i| FilterId::from_index(i))
            .collect();
        Emission {
            tuple: Arc::new(tuple),
            recipients: set,
            emitted_at: Micros(10),
        }
    }

    /// The trait path and the inherent path must be the same code path:
    /// identical Delivery, identical accounting.
    #[test]
    fn overlay_behind_seam_is_byte_identical() {
        let topo = Topology::ring(5).build();
        let members: Vec<NodeId> = (0..5).map(NodeId).collect();

        let mut direct = Overlay::new(topo.clone());
        let g1 = direct.create_group("g", &members).unwrap();
        let e = emission(&[0, 1, 2]);
        let d1 = direct
            .multicast_emission(g1, NodeId(0), &e, |f| NodeId(f.index() as u32 + 1))
            .unwrap();

        let mut seamed = Overlay::new(topo);
        let g2 = seamed.create_group("g", &members).unwrap();
        let t: &mut dyn Transport = &mut seamed;
        let d2 = t
            .send_emission(g2, NodeId(0), &e, &mut |f| NodeId(f.index() as u32 + 1))
            .unwrap();
        t.flush().unwrap();

        assert_eq!(d1, d2);
        assert_eq!(Transport::total_bytes(&seamed), direct.total_bytes());
        assert_eq!(Transport::messages(&seamed), direct.messages());
        let loads = Transport::link_loads(&seamed);
        assert!(!loads.is_empty());
        assert_eq!(
            loads.iter().map(|l| l.bytes).sum::<u64>(),
            direct.total_bytes()
        );
    }

    /// Sends `emissions` through `per_label` with `send_emission` and
    /// through `resolved` with `send_to_nodes` over what `resolve_nodes`
    /// makes of the same map: every result (errors included) and every
    /// traffic counter must agree.
    fn assert_resolved_sends_match<T: Transport>(
        mut per_label: T,
        mut resolved: T,
        group: GroupId,
        emissions: &[Emission],
    ) {
        let mut node_of = |f: FilterId| NodeId((f.index() * 7 % 6) as u32);
        let mut nodes = Vec::new();
        for e in emissions {
            let a = per_label.send_emission(group, NodeId(0), e, &mut node_of);
            resolve_nodes(&mut nodes, e, node_of);
            let b = resolved.send_to_nodes(group, NodeId(0), e, &nodes, &mut node_of);
            assert_eq!(a, b, "recipients {}", e.recipients);
        }
        assert_eq!(per_label.total_bytes(), resolved.total_bytes());
        assert_eq!(per_label.messages(), resolved.messages());
        assert_eq!(per_label.link_loads(), resolved.link_loads());
    }

    #[test]
    fn resolved_sends_match_per_label_sends() {
        // Labels 0..12 land on nodes 0..6 with repeats; node 5 (label 5,
        // 11) is outside the group, so that send must fail on both paths.
        let emissions: Vec<Emission> = [&[0, 1, 2][..], &[3, 9], &[1, 4, 6, 8, 10], &[11], &[]]
            .iter()
            .map(|labels| emission(labels))
            .collect();
        let members: Vec<NodeId> = (0..5).map(NodeId).collect();
        let overlay = || {
            let mut o = Overlay::new(Topology::ring(6).build());
            let g = o.create_group("g", &members).unwrap();
            (o, g)
        };
        let ((a, g), (b, _)) = (overlay(), overlay());
        assert_resolved_sends_match(a, b, g, &emissions);
        let g = GroupId::from_raw(1);
        assert_resolved_sends_match(NullTransport::new(), NullTransport::new(), g, &emissions);
    }

    #[test]
    fn null_transport_dedups_recipients_and_counts_messages() {
        let mut t = NullTransport::new();
        let e = emission(&[0, 1, 2]);
        // Filters 0 and 1 map to the same node.
        let d = t
            .send_emission(GroupId::from_raw(1), NodeId(9), &e, &mut |f| {
                NodeId(if f.index() < 2 { 3 } else { 4 })
            })
            .unwrap();
        assert_eq!(d.latencies.len(), 2);
        assert_eq!(d.bytes_on_wire, 0);
        assert_eq!(t.messages(), 1);
        assert_eq!(t.total_bytes(), 0);
        assert!(t.link_loads().is_empty());
    }
}
