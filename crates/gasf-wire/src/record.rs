//! A recording tee over any [`Transport`]: per-node stream digests for
//! the distributed-equivalence contract.
//!
//! `Recorded<T>` delegates every call to the inner transport unchanged
//! and, on the way through, hashes each emission's canonical bytes once
//! and folds the hash into a [`StreamDigest`] per recipient node —
//! exactly the digest the
//! subscriber workers compute from decoded frames on the far side of a
//! TCP deployment. Wrapping the in-process [`Overlay`](gasf_net::Overlay)
//! therefore produces the *reference* digests a wire run must match:
//! byte-identical streams per node, or the deployment fails its
//! equivalence check.

use crate::codec::{canon_hash, canonical_emission, StreamDigest};
use gasf_core::candidate::FilterId;
use gasf_core::engine::Emission;
use gasf_net::transport::LinkLoad;
use gasf_net::{resolve_nodes, Delivery, GroupId, NetError, NodeId, Transport};
use std::collections::BTreeMap;

/// A [`Transport`] wrapper recording per-node stream digests.
#[derive(Debug)]
pub struct Recorded<T> {
    inner: T,
    digests: BTreeMap<NodeId, StreamDigest>,
    scratch_canon: Vec<u8>,
    scratch_nodes: Vec<NodeId>,
}

impl<T: Transport> Recorded<T> {
    /// Wraps a transport; digests start empty.
    pub fn new(inner: T) -> Self {
        Recorded {
            inner,
            digests: BTreeMap::new(),
            scratch_canon: Vec::new(),
            scratch_nodes: Vec::new(),
        }
    }

    /// The digests recorded so far, keyed by recipient node.
    pub fn digests(&self) -> &BTreeMap<NodeId, StreamDigest> {
        &self.digests
    }

    /// Unwraps, returning the inner transport and the digests.
    pub fn into_parts(self) -> (T, BTreeMap<NodeId, StreamDigest>) {
        (self.inner, self.digests)
    }

    /// Borrows the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for Recorded<T> {
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
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        nodes: &[NodeId],
        node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        // Record first, so the digest reflects what *will* be sent; if the
        // inner send then fails the whole pipeline aborts and digests are
        // moot.
        canonical_emission(&mut self.scratch_canon, group, src, emission);
        let hash = canon_hash(&self.scratch_canon);
        for &node in nodes {
            self.digests.entry(node).or_default().fold(hash);
        }
        self.inner
            .send_to_nodes(group, src, emission, nodes, node_of)
    }

    fn flush(&mut self) -> Result<(), NetError> {
        self.inner.flush()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn messages(&self) -> u64 {
        self.inner.messages()
    }

    fn link_loads(&self) -> Vec<LinkLoad> {
        self.inner.link_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasf_core::bitset::FilterSet;
    use gasf_core::schema::Schema;
    use gasf_core::time::Micros;
    use gasf_core::tuple::Tuple;
    use gasf_net::{Overlay, Topology};
    use std::sync::Arc;

    #[test]
    fn recording_does_not_change_the_inner_transport() {
        let topo = Topology::ring(4).build();
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();

        let schema = Schema::new(["a"]);
        let mk = |seq: u64| {
            let tuple = Tuple::new(&schema, seq, Micros(seq), vec![seq as f64]).unwrap();
            Emission {
                tuple: Arc::new(tuple),
                recipients: [0usize, 1]
                    .into_iter()
                    .map(FilterId::from_index)
                    .collect::<FilterSet>(),
                emitted_at: Micros(seq),
            }
        };

        let mut plain = Overlay::new(topo.clone());
        let g = plain.create_group("g", &members).unwrap();
        let mut plain_deliveries = Vec::new();
        for seq in 0..5 {
            plain_deliveries.push(
                plain
                    .multicast_emission(g, NodeId(0), &mk(seq), |f| NodeId(f.index() as u32 + 1))
                    .unwrap(),
            );
        }

        let mut inner = Overlay::new(topo);
        let g2 = inner.create_group("g", &members).unwrap();
        let mut recorded = Recorded::new(inner);
        for seq in 0..5 {
            let d = recorded
                .send_emission(g2, NodeId(0), &mk(seq), &mut |f| {
                    NodeId(f.index() as u32 + 1)
                })
                .unwrap();
            assert_eq!(d, plain_deliveries[seq as usize]);
        }
        assert_eq!(recorded.total_bytes(), plain.total_bytes());
        let digests = recorded.digests();
        assert_eq!(digests.len(), 2, "nodes 1 and 2 each have a digest");
        assert!(digests.values().all(|d| d.count == 5));
        // Different nodes observed the same stream here, so their
        // digests agree — the digest is a function of the bytes alone.
        let hashes: Vec<u64> = digests.values().map(|d| d.hash).collect();
        assert_eq!(hashes[0], hashes[1]);
    }

    /// A resolved send through the tee records and sends what the
    /// per-label send does.
    #[test]
    fn resolved_sends_record_like_per_label_sends() {
        let topo = Topology::ring(5).build();
        let members: Vec<NodeId> = (0..5).map(NodeId).collect();
        let schema = Schema::new(["a"]);
        let recorded = || {
            let mut o = Overlay::new(topo.clone());
            let g = o.create_group("g", &members).unwrap();
            (Recorded::new(o), g)
        };
        let ((mut per_label, g), (mut resolved, _)) = (recorded(), recorded());
        let mut node_of = |f: FilterId| NodeId((f.index() % 4) as u32 + 1);
        let mut nodes = Vec::new();
        for (seq, labels) in [&[0usize, 4, 5][..], &[2], &[1, 3, 6, 7], &[0, 8]]
            .into_iter()
            .enumerate()
        {
            let tuple = Tuple::new(&schema, seq as u64, Micros(seq as u64), vec![1.0]).unwrap();
            let e = Emission {
                tuple: Arc::new(tuple),
                recipients: labels.iter().map(|&i| FilterId::from_index(i)).collect(),
                emitted_at: Micros(seq as u64),
            };
            let a = per_label.send_emission(g, NodeId(0), &e, &mut node_of);
            resolve_nodes(&mut nodes, &e, node_of);
            let b = resolved.send_to_nodes(g, NodeId(0), &e, &nodes, &mut node_of);
            assert_eq!(a, b);
        }
        assert_eq!(per_label.digests(), resolved.digests());
        assert_eq!(per_label.total_bytes(), resolved.total_bytes());
        assert_eq!(per_label.messages(), resolved.messages());
        assert_eq!(per_label.link_loads(), resolved.link_loads());
    }
}
