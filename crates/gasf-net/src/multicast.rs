//! DHT overlay and Scribe-like tuple-level multicast.
//!
//! Solar multicasts events on top of a Pastry ring via Scribe (§4.1.1):
//! every group has a rendezvous *root* (the node owning the group key);
//! members join by routing toward the root, and the union of the reverse
//! routes forms the dissemination tree. Our overlay uses successor routing
//! on a hashed ring — the tree shapes and sharing behaviour match what the
//! experiments need, while staying fully deterministic.
//!
//! `multicast` is **tuple-level** (§2.2.1): each message can address a
//! different subset of the group, the tree is pruned to that subset, and
//! the message crosses every link at most once — so the more recipients
//! share a tuple, the fewer bytes per recipient.
//!
//! ## Route resolution
//!
//! A send does no graph search and builds no container but the returned
//! [`Delivery::latencies`]. What it walks is laid out ahead of it:
//!
//! * the underlay never changes after [`Overlay::new`], so every
//!   overlay hop `(from, to)` is resolved to its underlay links **once**,
//!   on first use, and kept for the overlay's lifetime (`Underlay`);
//!   per-link byte counters are indexed by a dense link id;
//! * a group's tree is a node-indexed `child → parent` array, rewritten
//!   only by `create_group` / `join_group` / `leave_group` / `fail_node`
//!   (repair, re-graft) / `remove_group` — a send reads whatever tree
//!   those left behind, so there is no derived per-group route state to
//!   invalidate;
//! * the `src → root` leg steps the live ring directly (it depends on the
//!   failed set, which `fail_node` / `recover_node` change), so nothing
//!   about it is cached either;
//! * which tree nodes one send has reached is epoch-stamped per-node
//!   scratch, reused by the next send.

use crate::topology::{LinkSpec, NodeId, Topology};
use crate::transport::resolve_nodes;
use gasf_core::candidate::FilterId;
use gasf_core::engine::Emission;
use gasf_core::time::Micros;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Identifier of a multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(u64);

impl GroupId {
    /// The raw 64-bit value (the hash of the group name), for wire
    /// codecs that must ship the id byte-for-byte.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value (the inverse of
    /// [`GroupId::raw`], for the decode side of a wire codec). The value
    /// is only meaningful on an overlay that created the same group.
    pub const fn from_raw(raw: u64) -> Self {
        GroupId(raw)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{:08x}", self.0)
    }
}

/// Software cost of receiving + forwarding a message at one overlay node
/// (serialisation, group lookup, socket push). The paper measured ~130 ms
/// end-to-end for Solar's overlay multicast on a 7-node ring and >50 ms
/// for invoking application-level multicast at all — this constant
/// dominates the latency (§3.2, §4.1.2).
pub const SOFTWARE_DELAY: Micros = Micros::from_millis(25);

/// Per-message header overhead in bytes (overlay + transport headers).
pub const HEADER_BYTES: usize = 48;

/// Errors from overlay operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The group id was never created on this overlay.
    UnknownGroup(GroupId),
    /// A recipient is not a member of the group.
    NotAMember(NodeId),
    /// Two nodes have no connecting path.
    Disconnected(NodeId, NodeId),
    /// A node id is outside the topology.
    UnknownNode(NodeId),
    /// A group needs at least one member.
    EmptyGroup,
    /// The node's overlay process is marked failed (see
    /// [`Overlay::fail_node`]); it cannot send, join, or be failed again
    /// until [`Overlay::recover_node`] revives it.
    NodeFailed(NodeId),
    /// A real transport (e.g. the TCP transport in `gasf-wire`) failed at
    /// the I/O layer — connection refused, peer hung up, frame rejected.
    /// Carries the transport's own description; the analytic overlay
    /// never produces this variant.
    Transport(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownGroup(g) => write!(f, "unknown multicast group {g}"),
            NetError::NotAMember(n) => write!(f, "node {n} is not a group member"),
            NetError::Disconnected(a, b) => write!(f, "no path between {a} and {b}"),
            NetError::UnknownNode(n) => write!(f, "node {n} is not in the topology"),
            NetError::EmptyGroup => write!(f, "multicast group needs at least one member"),
            NetError::NodeFailed(n) => write!(f, "node {n} has failed"),
            NetError::Transport(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result of one multicast/unicast send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival time (relative to the send) per recipient.
    pub latencies: BTreeMap<NodeId, Micros>,
    /// Total bytes that crossed underlay links for this send.
    pub bytes_on_wire: u64,
    /// Overlay hops taken (tree edges + source-to-root leg).
    pub overlay_hops: usize,
    /// The share of [`bytes_on_wire`](Self::bytes_on_wire) that crossed
    /// *repaired* tree edges — branches re-grafted by the self-repair a
    /// [`fail_node`](Overlay::fail_node) triggered. Zero in a fault-free
    /// run; after a failure this is the per-send cost of the detours the
    /// repair introduced (the one-time control cost of the repair itself
    /// is reported by [`fail_node`](Overlay::fail_node) and accumulated
    /// in [`Overlay::repair_bytes`]).
    pub repair_bytes: u64,
}

impl Delivery {
    /// The slowest recipient's latency.
    pub fn max_latency(&self) -> Micros {
        self.latencies
            .values()
            .copied()
            .max()
            .unwrap_or(Micros::ZERO)
    }

    /// Mean recipient latency.
    pub fn mean_latency(&self) -> Micros {
        if self.latencies.is_empty() {
            return Micros::ZERO;
        }
        Micros(
            self.latencies.values().map(|l| l.as_micros()).sum::<u64>()
                / self.latencies.len() as u64,
        )
    }
}

/// `parent` entry of a node that has no uplink in a group's tree.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug)]
struct Group {
    root: NodeId,
    members: Vec<NodeId>,
    /// Tree edges, indexed by child node: `parent[child]`, [`NO_PARENT`]
    /// for the root and for nodes off the tree.
    parent: Vec<u32>,
    /// Tree edges (as `(parent, child)` id pairs) created by self-repair
    /// after a node failure — what [`Delivery::repair_bytes`] accounts.
    repaired: HashSet<(u32, u32)>,
}

impl Group {
    fn new(root: NodeId, nodes: usize) -> Group {
        Group {
            root,
            members: Vec::new(),
            parent: vec![NO_PARENT; nodes],
            repaired: HashSet::new(),
        }
    }

    fn parent_of(&self, child: NodeId) -> Option<NodeId> {
        match self.parent[child.index()] {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        }
    }

    /// Whether `node` already stands on the tree (the root, or a node
    /// with an uplink) — where a join route stops.
    fn on_tree(&self, node: NodeId) -> bool {
        node == self.root || self.parent[node.index()] != NO_PARENT
    }

    /// The Scribe join: walks `route` (joiner first, root last) and makes
    /// each hop's next node the parent, stopping at the first node that
    /// is already on the tree. Returns how many edges — the leading
    /// `(child, parent)` pairs of `route` — it created.
    fn graft(&mut self, route: &[NodeId]) -> usize {
        let new = route.iter().take_while(|&&n| !self.on_tree(n)).count();
        for pair in route.windows(2).take(new) {
            self.parent[pair[0].index()] = pair[1].0;
        }
        new
    }
}

/// One underlay link of a resolved overlay hop.
#[derive(Debug, Clone, Copy)]
struct HopLink {
    /// Dense id of the undirected link (index into the byte counters).
    link: u32,
    spec: LinkSpec,
}

/// `hop_of` entry of a hop nobody has sent over yet (resolved hops are
/// stored as their `hops` index plus one).
const UNRESOLVED: u32 = 0;

/// The underlay as the send path sees it: the immutable [`Topology`] plus
/// every overlay hop `(from, to)` sent over so far, resolved to its
/// minimum-hop underlay path once and kept (the topology cannot change
/// under an overlay), and per-link byte counters indexed densely.
#[derive(Debug)]
struct Underlay {
    topology: Topology,
    /// `hop_of[from][to]`: [`UNRESOLVED`] or a `hops` index plus one; a
    /// row is allocated when its node first sends.
    hop_of: Vec<Vec<u32>>,
    /// Resolved hops as ranges into `hop_links`; `None` for a pair the
    /// underlay does not connect.
    hops: Vec<Option<(u32, u32)>>,
    hop_links: Vec<HopLink>,
    /// Undirected link `(a, b)`, `a <= b` → dense link id, assigned when
    /// a resolved hop first crosses the link (cold path only).
    link_ids: HashMap<(u32, u32), u32>,
    link_ends: Vec<(u32, u32)>,
    /// Bytes per link id since construction or the last reset; `None`
    /// until the link carries a message.
    link_bytes: Vec<Option<u64>>,
}

impl Underlay {
    fn new(topology: Topology) -> Underlay {
        Underlay {
            hop_of: vec![Vec::new(); topology.len()],
            topology,
            hops: Vec::new(),
            hop_links: Vec::new(),
            link_ids: HashMap::new(),
            link_ends: Vec::new(),
            link_bytes: Vec::new(),
        }
    }

    /// The underlay links of overlay hop `from → to`, resolved on first
    /// use.
    fn hop(&mut self, from: NodeId, to: NodeId) -> Result<(u32, u32), NetError> {
        let nodes = self.topology.len();
        let row = self
            .hop_of
            .get_mut(from.index())
            .ok_or(NetError::UnknownNode(from))?;
        if to.index() >= nodes {
            return Err(NetError::Disconnected(from, to));
        }
        if row.is_empty() {
            row.resize(nodes, UNRESOLVED);
        }
        if row[to.index()] == UNRESOLVED {
            let resolved = self.resolve(from, to);
            self.hops.push(resolved);
            self.hop_of[from.index()][to.index()] = self.hops.len() as u32;
        }
        let hop = self.hop_of[from.index()][to.index()] - 1;
        self.hops[hop as usize].ok_or(NetError::Disconnected(from, to))
    }

    /// The one graph search a hop ever costs.
    fn resolve(&mut self, from: NodeId, to: NodeId) -> Option<(u32, u32)> {
        let path = self.topology.path(from, to)?;
        let start = self.hop_links.len() as u32;
        for pair in path.windows(2) {
            let spec = self
                .topology
                .link(pair[0], pair[1])
                .expect("BFS path follows links");
            let ends = (pair[0].0.min(pair[1].0), pair[0].0.max(pair[1].0));
            let next_id = self.link_ends.len() as u32;
            let link = *self.link_ids.entry(ends).or_insert(next_id);
            if link == next_id {
                self.link_ends.push(ends);
                self.link_bytes.push(None);
            }
            self.hop_links.push(HopLink { link, spec });
        }
        Some((start, self.hop_links.len() as u32))
    }

    /// One overlay hop: software delay + store-and-forward along the
    /// underlay shortest path, accounting bytes per link.
    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
    ) -> Result<(Micros, u64), NetError> {
        let (start, end) = self.hop(from, to)?;
        let mut latency = SOFTWARE_DELAY;
        for hl in &self.hop_links[start as usize..end as usize] {
            latency += hl.spec.transfer_time(bytes);
            let counter = &mut self.link_bytes[hl.link as usize];
            *counter = Some(counter.unwrap_or(0) + bytes as u64);
        }
        Ok((latency, bytes as u64 * u64::from(end - start)))
    }
}

/// The next overlay node on the route from `at` to `to`: the clockwise
/// ring successor (Chord-style; ring order is node-id order), skipping
/// failed nodes — a live overlay routes around dead neighbours.
fn next_live(failed: &BTreeSet<NodeId>, nodes: usize, at: NodeId, to: NodeId) -> NodeId {
    let mut i = at.index();
    loop {
        i = (i + 1) % nodes;
        let n = NodeId(i as u32);
        if n == to || !failed.contains(&n) {
            return n;
        }
    }
}

/// What one [`Overlay::fail_node`] repair pass did: how many branches
/// were re-grafted, how many rendezvous trees moved to a new root, and
/// what the repair control traffic (Scribe re-JOIN messages) cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Orphaned branches re-grafted toward their root (plus, after a root
    /// failure, every member's re-join to the new root).
    pub regrafts: usize,
    /// Groups whose rendezvous root was the failed node and moved to the
    /// next live ring successor.
    pub reroots: usize,
    /// Overlay hops the re-JOIN control messages took.
    pub control_hops: usize,
    /// Underlay bytes the re-JOIN control messages cost (also accumulated
    /// into the overlay's traffic counters and
    /// [`Overlay::repair_bytes`]).
    pub control_bytes: u64,
}

/// A DHT-ring overlay with Scribe-like multicast over a [`Topology`].
#[derive(Debug)]
pub struct Overlay {
    net: Underlay,
    groups: HashMap<GroupId, Group>,
    messages: u64,
    /// Reusable recipient-node buffer for the borrow-based
    /// [`multicast_emission`](Overlay::multicast_emission) path.
    scratch_nodes: Vec<NodeId>,
    /// Per-node send scratch: the send that last reached the node (see
    /// `sends`) and the message's arrival time there.
    reached: Vec<(u64, Micros)>,
    /// Tree sends so far — the stamp of the current one in `reached`.
    sends: u64,
    /// Reusable buffer for the chain one recipient climbs.
    chain: Vec<NodeId>,
    /// Nodes whose overlay process is currently failed (fail-stop; the
    /// underlay keeps forwarding — see [`Overlay::fail_node`]).
    failed: BTreeSet<NodeId>,
    /// Repair operations (re-grafts + re-roots) performed so far.
    repairs: u64,
    /// Underlay bytes spent on repair control traffic so far.
    repair_bytes: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h)
}

impl Overlay {
    /// Builds an overlay over `topology`. Every hop costs
    /// [`SOFTWARE_DELAY`] and every message [`HEADER_BYTES`] on top of
    /// its payload.
    ///
    /// The ring order follows node ids: Pastry's proximity-aware routing
    /// keeps overlay neighbours physically close, which we model by
    /// aligning the DHT ring with the deployment order (nodes are
    /// typically numbered along the mesh).
    pub fn new(topology: Topology) -> Self {
        Overlay {
            reached: vec![(0, Micros::ZERO); topology.len()],
            net: Underlay::new(topology),
            groups: HashMap::new(),
            messages: 0,
            scratch_nodes: Vec::new(),
            sends: 0,
            chain: Vec::new(),
            failed: BTreeSet::new(),
            repairs: 0,
            repair_bytes: 0,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.net.topology
    }

    /// The live node owning a key: the ring slot the key hashes into, or
    /// — when that node has failed — its first live clockwise successor
    /// (Pastry's key-ownership handover on node departure).
    fn owner(&self, key: u64) -> NodeId {
        let nodes = self.net.topology.len();
        let slot = (key % nodes as u64) as usize;
        (0..nodes)
            .map(|step| NodeId(((slot + step) % nodes) as u32))
            .find(|n| !self.failed.contains(n))
            // Every node failed: degenerate, but keep the mapping total.
            .unwrap_or(NodeId(slot as u32))
    }

    /// Overlay route from `from` to `to` over the live ring (see
    /// [`next_live`]). Includes both endpoints.
    fn overlay_route(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut route = vec![from];
        let mut at = from;
        while at != to {
            at = next_live(&self.failed, self.net.topology.len(), at, to);
            route.push(at);
        }
        route
    }

    /// Creates a multicast group rooted at the owner of `hash(name)`,
    /// with Scribe-style join routes from every member.
    ///
    /// # Errors
    /// * [`NetError::EmptyGroup`] without members,
    /// * [`NetError::UnknownNode`] for members outside the topology.
    pub fn create_group(&mut self, name: &str, members: &[NodeId]) -> Result<GroupId, NetError> {
        if members.is_empty() {
            return Err(NetError::EmptyGroup);
        }
        for &m in members {
            if m.index() >= self.net.topology.len() {
                return Err(NetError::UnknownNode(m));
            }
            if self.failed.contains(&m) {
                return Err(NetError::NodeFailed(m));
            }
        }
        let id = GroupId(hash_str(name));
        let mut g = Group::new(self.owner(id.0), self.net.topology.len());
        g.members = members.to_vec();
        for &m in members {
            g.graft(&self.overlay_route(m, g.root));
        }
        self.groups.insert(id, g);
        Ok(id)
    }

    /// The rendezvous root of a group.
    ///
    /// # Errors
    /// Returns [`NetError::UnknownGroup`] for unknown ids.
    pub fn group_root(&self, group: GroupId) -> Result<NodeId, NetError> {
        self.groups
            .get(&group)
            .map(|g| g.root)
            .ok_or(NetError::UnknownGroup(group))
    }

    /// Removes a multicast group entirely, dropping its tree state.
    /// Subsequent sends on the id fail with [`NetError::UnknownGroup`].
    /// This is how a control plane retires a tree it replaced (e.g. after
    /// regrouping) so long-lived deployments don't accumulate dead groups.
    ///
    /// # Errors
    /// Returns [`NetError::UnknownGroup`] for unknown ids.
    pub fn remove_group(&mut self, group: GroupId) -> Result<(), NetError> {
        self.groups
            .remove(&group)
            .map(|_| ())
            .ok_or(NetError::UnknownGroup(group))
    }

    /// The current members of a group.
    ///
    /// # Errors
    /// Returns [`NetError::UnknownGroup`] for unknown ids.
    pub fn group_members(&self, group: GroupId) -> Result<&[NodeId], NetError> {
        self.groups
            .get(&group)
            .map(|g| g.members.as_slice())
            .ok_or(NetError::UnknownGroup(group))
    }

    /// Adds a member to an existing group — the Scribe join: the node
    /// routes toward the rendezvous root and grafts onto the first tree
    /// node its join route meets. Paths of existing members are untouched,
    /// so deliveries they were receiving are bit-for-bit unaffected.
    /// Joining twice is a no-op.
    ///
    /// # Errors
    /// [`NetError::UnknownGroup`] / [`NetError::UnknownNode`].
    pub fn join_group(&mut self, group: GroupId, node: NodeId) -> Result<(), NetError> {
        if node.index() >= self.net.topology.len() {
            return Err(NetError::UnknownNode(node));
        }
        if self.failed.contains(&node) {
            return Err(NetError::NodeFailed(node));
        }
        let root = self.group_root(group)?;
        let route = self.overlay_route(node, root);
        let g = self
            .groups
            .get_mut(&group)
            .expect("group_root proved the group exists");
        if !g.members.contains(&node) {
            g.members.push(node);
            g.graft(&route);
        }
        Ok(())
    }

    /// Removes a member from a group — the Scribe leave: the departing
    /// node's branch is pruned only as far as no remaining member depends
    /// on it, and every surviving member keeps its exact path (no tree
    /// rebuild). The group may become empty; multicasting to an empty
    /// recipient set is well-defined, and a later
    /// [`join_group`](Self::join_group) revives it.
    ///
    /// # Errors
    /// [`NetError::UnknownGroup`], or [`NetError::NotAMember`] when the
    /// node is not currently a member.
    pub fn leave_group(&mut self, group: GroupId, node: NodeId) -> Result<(), NetError> {
        let g = self
            .groups
            .get_mut(&group)
            .ok_or(NetError::UnknownGroup(group))?;
        let Some(pos) = g.members.iter().position(|&m| m == node) else {
            return Err(NetError::NotAMember(node));
        };
        g.members.remove(pos);
        // Prune: keep exactly the chains the remaining members stand on.
        let mut needed = vec![false; g.parent.len()];
        for &m in &g.members {
            let mut cur = m;
            while cur != g.root && !std::mem::replace(&mut needed[cur.index()], true) {
                cur = g
                    .parent_of(cur)
                    .expect("tree connects every member to the root");
            }
        }
        for (uplink, needed) in g.parent.iter_mut().zip(needed) {
            if !needed {
                *uplink = NO_PARENT;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // node failure & Scribe self-repair
    // ------------------------------------------------------------------

    /// Marks a node's overlay process as **failed** (fail-stop) and
    /// repairs every multicast tree that depended on it — the Scribe
    /// self-repair protocol:
    ///
    /// * the node stops being a member of any group (its deliveries end);
    /// * **interior failure**: children orphaned by the failed forwarder
    ///   re-graft by routing toward their rendezvous root and joining the
    ///   first live tree node their route meets — every surviving
    ///   member's delivery resumes, and subtrees below the orphans keep
    ///   their exact paths;
    /// * **root failure**: key ownership moves to the next live ring
    ///   successor and every member re-joins toward the new root (the
    ///   tree is rebuilt from scratch, as Scribe must).
    ///
    /// The re-JOIN control messages are accounted like any other traffic
    /// (plus the dedicated [`repairs`](Self::repairs) /
    /// [`repair_bytes`](Self::repair_bytes) counters), and tree edges
    /// created by repair are tracked so subsequent deliveries report the
    /// detour share in [`Delivery::repair_bytes`].
    ///
    /// Failure is modelled at the overlay (process) level: the underlay
    /// keeps store-and-forwarding through the host, the way a crashed
    /// broker process leaves its machine's network stack running. The
    /// paper scopes network dynamics out (§1.2); this keeps repair fully
    /// deterministic.
    ///
    /// ```rust
    /// use gasf_net::{NodeId, Overlay, Topology};
    ///
    /// # fn main() -> Result<(), gasf_net::NetError> {
    /// let mut overlay = Overlay::new(Topology::ring(7).build());
    /// let members: Vec<NodeId> = (0..7).map(NodeId).collect();
    /// let group = overlay.create_group("sensors", &members)?;
    ///
    /// // Fail an interior forwarder: the tree self-repairs and every
    /// // surviving member keeps receiving.
    /// let root = overlay.group_root(group)?;
    /// let victim = members.iter().copied().find(|&n| n != root).unwrap();
    /// let repair = overlay.fail_node(victim)?;
    /// assert!(overlay.is_failed(victim));
    ///
    /// let recipients: Vec<NodeId> = members
    ///     .iter()
    ///     .copied()
    ///     .filter(|&n| n != victim && n != root)
    ///     .collect();
    /// let delivery = overlay.multicast(group, root, &recipients, 100)?;
    /// assert_eq!(delivery.latencies.len(), recipients.len());
    /// // repair work is accounted: if the victim forwarded for anyone,
    /// // its orphans re-grafted and this send crosses repaired branches
    /// assert_eq!(delivery.repair_bytes > 0, repair.regrafts > 0);
    ///
    /// // a revived node re-joins explicitly, like a restarted Scribe node
    /// overlay.recover_node(victim)?;
    /// overlay.join_group(group, victim)?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// [`NetError::UnknownNode`] outside the topology,
    /// [`NetError::NodeFailed`] when the node is already failed.
    pub fn fail_node(&mut self, node: NodeId) -> Result<RepairReport, NetError> {
        if node.index() >= self.net.topology.len() {
            return Err(NetError::UnknownNode(node));
        }
        if !self.failed.insert(node) {
            return Err(NetError::NodeFailed(node));
        }
        let mut report = RepairReport::default();
        // Deterministic repair order: ascending group id.
        let mut ids: Vec<GroupId> = self.groups.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let mut g = self.groups.remove(&id).expect("listed above");
            self.repair_group(&mut g, node, &mut report);
            self.groups.insert(id, g);
        }
        self.repairs += (report.regrafts + report.reroots) as u64;
        self.repair_bytes += report.control_bytes;
        Ok(report)
    }

    /// Revives a failed node's overlay process. The node becomes routable
    /// and joinable again, but — like a restarted Scribe node — it holds
    /// no memberships: it re-enters its groups via
    /// [`join_group`](Self::join_group). Returns whether the node was
    /// actually failed (reviving a live node is a no-op).
    ///
    /// # Errors
    /// [`NetError::UnknownNode`] outside the topology.
    pub fn recover_node(&mut self, node: NodeId) -> Result<bool, NetError> {
        if node.index() >= self.net.topology.len() {
            return Err(NetError::UnknownNode(node));
        }
        Ok(self.failed.remove(&node))
    }

    /// Whether a node's overlay process is currently failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed.contains(&node)
    }

    /// The currently failed nodes, ascending.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.failed.iter().copied()
    }

    /// Repair operations (re-grafts + re-roots) performed over the
    /// overlay's lifetime.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Underlay bytes spent on repair control traffic (re-JOIN messages)
    /// over the overlay's lifetime. Also included in
    /// [`total_bytes`](Self::total_bytes) while that counter is unreset.
    pub fn repair_bytes(&self) -> u64 {
        self.repair_bytes
    }

    /// Repairs one group after `failed` went down (see
    /// [`fail_node`](Self::fail_node)).
    fn repair_group(&mut self, g: &mut Group, failed: NodeId, report: &mut RepairReport) {
        if let Some(pos) = g.members.iter().position(|&m| m == failed) {
            g.members.remove(pos);
        }
        // The failed node leaves the tree entirely: its own uplink *and*
        // every child's edge into it — those children are the orphaned
        // chain heads the re-graft walk below picks up. (Removing only
        // the uplink would leave the corpse forwarding for its subtree.)
        g.parent[failed.index()] = NO_PARENT;
        for uplink in &mut g.parent {
            if *uplink == failed.0 {
                *uplink = NO_PARENT;
            }
        }
        g.repaired.retain(|&(p, c)| p != failed.0 && c != failed.0);
        if g.root == failed {
            // Rendezvous-root failover: ownership moves to the next live
            // ring successor and the tree is rebuilt from scratch.
            report.reroots += 1;
            // (`failed` itself again only when every node is down.)
            g.root = next_live(&self.failed, g.parent.len(), failed, failed);
            g.parent.fill(NO_PARENT);
            g.repaired.clear();
            if g.root == failed {
                return; // nothing to rebuild
            }
            for m in g.members.clone() {
                self.regraft(g, m, report);
            }
            return;
        }
        // Interior/leaf failure: re-graft exactly the orphaned chain heads
        // that still support a member (orphan subtrees keep their paths).
        let mut orphans: BTreeSet<NodeId> = BTreeSet::new();
        for &m in &g.members {
            let mut cur = m;
            loop {
                if cur == g.root {
                    break;
                }
                match g.parent_of(cur) {
                    Some(p) => cur = p,
                    None => {
                        orphans.insert(cur);
                        break;
                    }
                }
            }
        }
        for orphan in orphans {
            self.regraft(g, orphan, report);
        }
    }

    /// One Scribe re-JOIN: `from` routes toward the group root over the
    /// live ring and grafts onto the first tree node it meets, accounting
    /// the control message hop by hop and marking the new edges repaired.
    fn regraft(&mut self, g: &mut Group, from: NodeId, report: &mut RepairReport) {
        let route = self.overlay_route(from, g.root);
        let new = g.graft(&route);
        for pair in route.windows(2).take(new) {
            let (child, parent) = (pair[0], pair[1]);
            g.repaired.insert((parent.0, child.0));
            if let Ok((_, bytes)) = self.net.transmit(child, parent, HEADER_BYTES) {
                report.control_hops += 1;
                report.control_bytes += bytes;
            }
        }
        report.regrafts += 1;
        self.messages += 1;
    }

    /// Sends one message of `payload_bytes` from `src` to a subset of the
    /// group. The message travels src → root, then down the tree pruned to
    /// the recipients; every link carries it at most once.
    ///
    /// # Errors
    /// * [`NetError::UnknownGroup`] / [`NetError::NotAMember`],
    /// * [`NetError::Disconnected`] if the underlay lacks a path.
    pub fn multicast(
        &mut self,
        group: GroupId,
        src: NodeId,
        recipients: &[NodeId],
        payload_bytes: usize,
    ) -> Result<Delivery, NetError> {
        if self.failed.contains(&src) {
            return Err(NetError::NodeFailed(src));
        }
        let g = self
            .groups
            .get(&group)
            .ok_or(NetError::UnknownGroup(group))?;
        if let Some(&r) = recipients.iter().find(|r| !g.members.contains(r)) {
            return Err(NetError::NotAMember(r));
        }
        let msg_bytes = payload_bytes + HEADER_BYTES;
        let mut delivery = Delivery {
            latencies: BTreeMap::new(),
            bytes_on_wire: 0,
            overlay_hops: 0,
            repair_bytes: 0,
        };

        // Leg 1: src to root along the live ring (skipped when src == root).
        let mut at = src;
        let mut clock = Micros::ZERO;
        while at != g.root {
            let next = next_live(&self.failed, g.parent.len(), at, g.root);
            let (lat, bytes) = self.net.transmit(at, next, msg_bytes)?;
            clock += lat;
            delivery.bytes_on_wire += bytes;
            delivery.overlay_hops += 1;
            at = next;
        }

        // Leg 2: down the tree pruned to the recipients. Each recipient
        // climbs to the first node this send already reached, then its
        // chain is transmitted top-down — so every needed edge carries
        // the message exactly once, whatever the recipient order.
        self.sends += 1;
        self.reached[g.root.index()] = (self.sends, clock);
        for &r in recipients {
            self.chain.clear();
            let mut cur = r;
            while self.reached[cur.index()].0 != self.sends {
                self.chain.push(cur);
                cur = g
                    .parent_of(cur)
                    .expect("tree connects every member to the root");
            }
            let mut clock = self.reached[cur.index()].1;
            while let Some(child) = self.chain.pop() {
                let (lat, bytes) = self.net.transmit(cur, child, msg_bytes)?;
                delivery.bytes_on_wire += bytes;
                delivery.overlay_hops += 1;
                if !g.repaired.is_empty() && g.repaired.contains(&(cur.0, child.0)) {
                    delivery.repair_bytes += bytes;
                }
                clock += lat;
                self.reached[child.index()] = (self.sends, clock);
                cur = child;
            }
            // (Not `collect`: that would stage the pairs in a `Vec` first.)
            delivery.latencies.insert(r, clock);
        }
        self.messages += 1;
        Ok(delivery)
    }

    /// Sends one [`Emission`] to the nodes its recipient filters map to —
    /// the borrow-based send path of the sink dataflow.
    ///
    /// `node_of` translates each recipient [`FilterId`] to its subscriber
    /// node (the caller owns that mapping — the overlay knows nothing about
    /// filters). Duplicate nodes are collapsed, the payload size is the
    /// tuple's wire size, and the recipient list is staged in a buffer
    /// reused across calls, so sending allocates nothing per emission.
    ///
    /// # Errors
    /// Same as [`multicast`](Self::multicast).
    pub fn multicast_emission(
        &mut self,
        group: GroupId,
        src: NodeId,
        emission: &Emission,
        node_of: impl FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        let mut nodes = std::mem::take(&mut self.scratch_nodes);
        resolve_nodes(&mut nodes, emission, node_of);
        let result = self.multicast(group, src, &nodes, emission.tuple.wire_size());
        self.scratch_nodes = nodes;
        result
    }

    /// Sends one message point-to-point along the underlay shortest path
    /// (the "no multicast" baseline).
    ///
    /// # Errors
    /// Returns [`NetError::Disconnected`]/[`NetError::UnknownNode`] when no
    /// path exists.
    pub fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: usize,
    ) -> Result<Delivery, NetError> {
        if self.failed.contains(&from) {
            return Err(NetError::NodeFailed(from));
        }
        if self.failed.contains(&to) {
            return Err(NetError::NodeFailed(to));
        }
        let (lat, bytes) = self.net.transmit(from, to, payload_bytes + HEADER_BYTES)?;
        self.messages += 1;
        Ok(Delivery {
            latencies: BTreeMap::from([(to, lat)]),
            bytes_on_wire: bytes,
            overlay_hops: 1,
            repair_bytes: 0,
        })
    }

    /// Total bytes transmitted across all links since construction (or the
    /// last [`reset_stats`](Self::reset_stats)).
    pub fn total_bytes(&self) -> u64 {
        self.net.link_bytes.iter().flatten().sum()
    }

    /// The most heavily loaded link's byte count — the bottleneck metric
    /// for low-bandwidth meshes.
    pub fn max_link_bytes(&self) -> u64 {
        self.net
            .link_bytes
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Per-link byte counters, sorted by endpoint pair. Each entry is an
    /// undirected underlay link `(a, b)` with `a <= b` and the bytes that
    /// crossed it since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    pub fn link_loads(&self) -> Vec<(NodeId, NodeId, u64)> {
        let mut loads: Vec<(NodeId, NodeId, u64)> = self
            .net
            .link_ends
            .iter()
            .zip(&self.net.link_bytes)
            .filter_map(|(&(a, b), &bytes)| Some((NodeId(a), NodeId(b), bytes?)))
            .collect();
        loads.sort_unstable();
        loads
    }

    /// Clears the traffic counters (not the groups).
    pub fn reset_stats(&mut self) {
        self.net.link_bytes.fill(None);
        self.messages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring7() -> Overlay {
        Overlay::new(Topology::ring(7).build())
    }

    fn all_nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn group_creation_and_root() {
        let mut o = ring7();
        let g = o.create_group("fluoro", &all_nodes(7)).unwrap();
        let root = o.group_root(g).unwrap();
        assert!(root.index() < 7);
        assert!(o.group_root(GroupId(42)).is_err());
    }

    #[test]
    fn empty_group_rejected() {
        let mut o = ring7();
        assert_eq!(o.create_group("x", &[]), Err(NetError::EmptyGroup));
        assert_eq!(
            o.create_group("x", &[NodeId(99)]),
            Err(NetError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn multicast_reaches_all_recipients() {
        let mut o = ring7();
        let members = all_nodes(7);
        let g = o.create_group("grp", &members).unwrap();
        let d = o.multicast(g, NodeId(0), &members[1..], 100).unwrap();
        assert_eq!(d.latencies.len(), 6);
        for lat in d.latencies.values() {
            assert!(*lat > Micros::ZERO);
        }
        assert!(d.max_latency() >= d.mean_latency());
    }

    #[test]
    fn non_member_recipient_rejected() {
        let mut o = ring7();
        let g = o.create_group("grp", &[NodeId(0), NodeId(1)]).unwrap();
        assert_eq!(
            o.multicast(g, NodeId(0), &[NodeId(5)], 10),
            Err(NetError::NotAMember(NodeId(5)))
        );
    }

    #[test]
    fn shared_recipients_cost_less_than_unicasts() {
        // The whole point: one multicast to k recipients uses fewer bytes
        // than k unicasts of the same payload.
        let mut o = ring7();
        let members = all_nodes(7);
        let g = o.create_group("grp", &members).unwrap();
        let d = o.multicast(g, NodeId(0), &members[1..], 200).unwrap();
        let multicast_bytes = d.bytes_on_wire;

        let mut o2 = ring7();
        let mut unicast_bytes = 0;
        for m in &members[1..] {
            unicast_bytes += o2.unicast(NodeId(0), *m, 200).unwrap().bytes_on_wire;
        }
        assert!(
            multicast_bytes < unicast_bytes,
            "multicast {multicast_bytes} vs unicast {unicast_bytes}"
        );
    }

    #[test]
    fn subset_multicast_costs_less_than_full() {
        let mut o = ring7();
        let members = all_nodes(7);
        let g = o.create_group("grp", &members).unwrap();
        let full = o.multicast(g, NodeId(0), &members[1..], 200).unwrap();
        let sub = o.multicast(g, NodeId(0), &members[1..3], 200).unwrap();
        assert!(sub.bytes_on_wire <= full.bytes_on_wire);
        assert_eq!(sub.latencies.len(), 2);
    }

    #[test]
    fn latency_dominated_by_software_delay() {
        // §4.1.2: 130 ms overlay multicast on the 7-node 1 Mbps ring. With
        // 25 ms per overlay hop and small tuples, recipients several hops
        // deep see ~50-175 ms.
        let mut o = ring7();
        let members = all_nodes(7);
        let g = o.create_group("grp", &members).unwrap();
        let d = o.multicast(g, NodeId(0), &members[1..], 60).unwrap();
        let max_ms = d.max_latency().as_millis_f64();
        assert!(
            (50.0..400.0).contains(&max_ms),
            "overlay delay {max_ms} ms out of the Solar ballpark"
        );
    }

    #[test]
    fn byte_accounting_accumulates() {
        let mut o = ring7();
        let g = o.create_group("grp", &all_nodes(7)).unwrap();
        assert_eq!(o.total_bytes(), 0);
        o.multicast(g, NodeId(0), &[NodeId(3)], 100).unwrap();
        let after_one = o.total_bytes();
        assert!(after_one > 0);
        o.multicast(g, NodeId(0), &[NodeId(3)], 100).unwrap();
        assert_eq!(o.total_bytes(), after_one * 2);
        assert!(o.max_link_bytes() <= o.total_bytes());
        assert_eq!(o.messages(), 2);
        o.reset_stats();
        assert_eq!(o.total_bytes(), 0);
        assert_eq!(o.messages(), 0);
    }

    #[test]
    fn unicast_on_disconnected_fails() {
        let topo = crate::topology::TopologyBuilder::with_nodes(2).build();
        let mut o = Overlay::new(topo);
        assert!(matches!(
            o.unicast(NodeId(0), NodeId(1), 10),
            Err(NetError::Disconnected(..))
        ));
    }

    #[test]
    fn deterministic_deliveries() {
        let run = || {
            let mut o = ring7();
            let members = all_nodes(7);
            let g = o.create_group("grp", &members).unwrap();
            o.multicast(g, NodeId(0), &members[1..], 123).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn error_display() {
        let e = NetError::NotAMember(NodeId(3));
        assert!(e.to_string().contains("n3"));
    }

    mod membership {
        use super::*;

        #[test]
        fn join_grafts_without_touching_existing_paths() {
            // Existing members' deliveries must be bit-for-bit unaffected
            // by someone else joining.
            let mut grown = ring7();
            let g1 = grown.create_group("grp", &[NodeId(0), NodeId(2)]).unwrap();
            let before = grown.multicast(g1, NodeId(0), &[NodeId(2)], 100).unwrap();
            assert_eq!(
                grown.multicast(g1, NodeId(0), &[NodeId(5)], 100),
                Err(NetError::NotAMember(NodeId(5)))
            );
            grown.join_group(g1, NodeId(5)).unwrap();
            grown.join_group(g1, NodeId(5)).unwrap(); // idempotent
            assert_eq!(grown.group_members(g1).unwrap().len(), 3);
            let after = grown.multicast(g1, NodeId(0), &[NodeId(2)], 100).unwrap();
            assert_eq!(before.latencies, after.latencies);
            assert_eq!(before.bytes_on_wire, after.bytes_on_wire);
            // …and the joiner is reachable
            let d = grown.multicast(g1, NodeId(0), &[NodeId(5)], 100).unwrap();
            assert_eq!(d.latencies.len(), 1);
        }

        #[test]
        fn join_equals_create_with_full_membership() {
            // Creating {a, b} then joining c must behave like creating
            // {a, b, c} (same join-route algorithm, same order).
            let mut grown = ring7();
            let g1 = grown.create_group("grp", &[NodeId(1), NodeId(3)]).unwrap();
            grown.join_group(g1, NodeId(6)).unwrap();

            let mut fresh = ring7();
            let g2 = fresh
                .create_group("grp", &[NodeId(1), NodeId(3), NodeId(6)])
                .unwrap();

            let recipients = [NodeId(1), NodeId(3), NodeId(6)];
            let a = grown.multicast(g1, NodeId(0), &recipients, 64).unwrap();
            let b = fresh.multicast(g2, NodeId(0), &recipients, 64).unwrap();
            assert_eq!(a, b);
        }

        #[test]
        fn leave_prunes_only_the_orphan_branch() {
            let mut o = ring7();
            let members = all_nodes(7);
            let g = o.create_group("grp", &members).unwrap();
            let survivors: Vec<NodeId> = members.iter().copied().filter(|n| n.0 != 4).collect();
            let before = o.multicast(g, NodeId(0), &survivors[1..], 80).unwrap();
            o.leave_group(g, NodeId(4)).unwrap();
            assert_eq!(o.group_members(g).unwrap().len(), 6);
            let after = o.multicast(g, NodeId(0), &survivors[1..], 80).unwrap();
            assert_eq!(before, after, "survivors keep their exact paths");
            assert_eq!(
                o.multicast(g, NodeId(0), &[NodeId(4)], 80),
                Err(NetError::NotAMember(NodeId(4)))
            );
            assert_eq!(
                o.leave_group(g, NodeId(4)),
                Err(NetError::NotAMember(NodeId(4)))
            );
        }

        #[test]
        fn leave_then_rejoin_round_trips() {
            let mut o = ring7();
            let g = o
                .create_group("grp", &[NodeId(0), NodeId(3), NodeId(5)])
                .unwrap();
            o.leave_group(g, NodeId(3)).unwrap();
            o.join_group(g, NodeId(3)).unwrap();
            let d = o.multicast(g, NodeId(0), &[NodeId(3)], 50).unwrap();
            assert_eq!(d.latencies.len(), 1);
        }

        #[test]
        fn remove_group_reclaims_the_id() {
            let mut o = ring7();
            let g = o.create_group("grp", &[NodeId(0), NodeId(1)]).unwrap();
            o.remove_group(g).unwrap();
            assert_eq!(o.remove_group(g), Err(NetError::UnknownGroup(g)));
            assert_eq!(
                o.multicast(g, NodeId(0), &[NodeId(1)], 10),
                Err(NetError::UnknownGroup(g))
            );
            // same name can be created again afterwards
            let g2 = o.create_group("grp", &[NodeId(0), NodeId(1)]).unwrap();
            assert_eq!(g, g2);
        }

        #[test]
        fn join_rejects_unknown_targets() {
            let mut o = ring7();
            let g = o.create_group("grp", &[NodeId(0)]).unwrap();
            assert_eq!(
                o.join_group(g, NodeId(99)),
                Err(NetError::UnknownNode(NodeId(99)))
            );
            assert_eq!(
                o.join_group(GroupId(42), NodeId(1)),
                Err(NetError::UnknownGroup(GroupId(42)))
            );
            assert_eq!(
                o.leave_group(GroupId(42), NodeId(1)),
                Err(NetError::UnknownGroup(GroupId(42)))
            );
        }
    }

    mod failure {
        use super::*;

        /// The lowest-id node that forwards for someone else in the
        /// group's tree (neither root nor a pure leaf), if any.
        fn interior_node(o: &Overlay, g: GroupId) -> Option<NodeId> {
            let group = o.groups.get(&g).unwrap();
            o.topology()
                .nodes()
                .filter_map(|c| group.parent_of(c))
                .filter(|&p| p != group.root)
                .min()
        }

        #[test]
        fn interior_failure_regrafts_and_members_keep_receiving() {
            let mut o = ring7();
            let members = all_nodes(7);
            let g = o.create_group("grp", &members).unwrap();
            let failed = interior_node(&o, g).expect("7-node tree has forwarders");
            let report = o.fail_node(failed).unwrap();
            assert!(report.regrafts > 0, "orphans must re-graft");
            assert_eq!(report.reroots, 0);
            assert!(o.is_failed(failed));
            assert_eq!(o.failed_nodes().collect::<Vec<_>>(), vec![failed]);
            assert!(o.repairs() > 0);

            // every surviving member still receives; sending from the
            // root guarantees the re-grafted orphan is a recipient, so
            // its repaired uplink must appear in the delivery accounting
            let src = o.group_root(g).unwrap();
            let survivors: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|&n| n != failed && n != src)
                .collect();
            let d = o.multicast(g, src, &survivors, 100).unwrap();
            assert_eq!(d.latencies.len(), survivors.len());
            // some of the delivery flowed over repaired branches
            assert!(d.repair_bytes > 0, "repaired edges must be accounted");
            assert!(d.repair_bytes <= d.bytes_on_wire);

            // the failed node is out of the membership and cannot send
            assert_eq!(
                o.multicast(g, src, &[failed], 10),
                Err(NetError::NotAMember(failed))
            );
            assert_eq!(
                o.multicast(g, failed, &survivors[1..2], 10),
                Err(NetError::NodeFailed(failed))
            );
        }

        #[test]
        fn failed_node_is_fully_evicted_from_the_tree() {
            // The corpse must neither keep an uplink nor keep forwarding
            // for its children — its children are the ones that re-graft.
            let mut o = ring7();
            let g = o.create_group("grp", &all_nodes(7)).unwrap();
            let failed = interior_node(&o, g).unwrap();
            let orphans: Vec<NodeId> = {
                let group = o.groups.get(&g).unwrap();
                o.topology()
                    .nodes()
                    .filter(|&c| group.parent_of(c) == Some(failed))
                    .collect()
            };
            assert!(!orphans.is_empty(), "interior node has children");
            o.fail_node(failed).unwrap();
            let group = o.groups.get(&g).unwrap();
            assert!(group.parent_of(failed).is_none(), "uplink removed");
            assert!(
                group.parent.iter().all(|&p| p != failed.0),
                "no child may still route through the corpse"
            );
            for orphan in orphans {
                assert!(
                    group.parent_of(orphan).is_some(),
                    "{orphan} must have re-grafted"
                );
            }
        }

        #[test]
        fn root_failure_hands_over_to_the_live_successor() {
            let mut o = ring7();
            let members = all_nodes(7);
            let g = o.create_group("grp", &members).unwrap();
            let old_root = o.group_root(g).unwrap();
            let report = o.fail_node(old_root).unwrap();
            assert_eq!(report.reroots, 1);
            let new_root = o.group_root(g).unwrap();
            assert_ne!(new_root, old_root);
            assert!(!o.is_failed(new_root));
            // the rebuilt tree still reaches everyone alive
            let survivors: Vec<NodeId> =
                members.iter().copied().filter(|&n| n != old_root).collect();
            let d = o.multicast(g, survivors[0], &survivors[1..], 80).unwrap();
            assert_eq!(d.latencies.len(), survivors.len() - 1);
        }

        #[test]
        fn repair_equals_fresh_join_of_the_survivors() {
            // After an interior failure, the repaired tree must deliver to
            // every survivor just like a freshly built overlay where the
            // failed node never existed in the membership. (Shapes may
            // differ — repair grafts in place — but coverage must not.)
            let mut broken = ring7();
            let members = all_nodes(7);
            let g1 = broken.create_group("grp", &members).unwrap();
            let failed = interior_node(&broken, g1).unwrap();
            broken.fail_node(failed).unwrap();

            let survivors: Vec<NodeId> = members.iter().copied().filter(|&n| n != failed).collect();
            let d = broken
                .multicast(g1, survivors[0], &survivors[1..], 64)
                .unwrap();
            for (node, lat) in &d.latencies {
                assert!(*lat > Micros::ZERO, "{node} starved after repair");
            }
        }

        #[test]
        fn recover_node_rejoins_explicitly() {
            let mut o = ring7();
            let g = o
                .create_group("grp", &[NodeId(0), NodeId(2), NodeId(4)])
                .unwrap();
            o.fail_node(NodeId(2)).unwrap();
            assert_eq!(o.fail_node(NodeId(2)), Err(NetError::NodeFailed(NodeId(2))));
            assert_eq!(
                o.join_group(g, NodeId(2)),
                Err(NetError::NodeFailed(NodeId(2)))
            );
            assert!(o.recover_node(NodeId(2)).unwrap());
            assert!(!o.recover_node(NodeId(2)).unwrap(), "idempotent");
            assert!(!o.is_failed(NodeId(2)));
            // like a restarted Scribe node, it re-enters via join_group
            assert!(!o.group_members(g).unwrap().contains(&NodeId(2)));
            o.join_group(g, NodeId(2)).unwrap();
            let d = o.multicast(g, NodeId(0), &[NodeId(2)], 50).unwrap();
            assert_eq!(d.latencies.len(), 1);
        }

        #[test]
        fn repair_cost_is_accounted() {
            let mut o = ring7();
            let members = all_nodes(7);
            let g = o.create_group("grp", &members).unwrap();
            let failed = interior_node(&o, g).unwrap();
            let bytes_before = o.total_bytes();
            let report = o.fail_node(failed).unwrap();
            assert!(report.control_hops > 0);
            assert!(report.control_bytes > 0);
            assert_eq!(o.repair_bytes(), report.control_bytes);
            assert_eq!(
                o.total_bytes(),
                bytes_before + report.control_bytes,
                "repair traffic flows through the same accounting"
            );
        }

        #[test]
        fn failed_nodes_are_rejected_everywhere() {
            let mut o = ring7();
            o.fail_node(NodeId(3)).unwrap();
            assert_eq!(
                o.create_group("grp", &[NodeId(0), NodeId(3)]),
                Err(NetError::NodeFailed(NodeId(3)))
            );
            assert_eq!(
                o.unicast(NodeId(3), NodeId(0), 10),
                Err(NetError::NodeFailed(NodeId(3)))
            );
            assert_eq!(
                o.unicast(NodeId(0), NodeId(3), 10),
                Err(NetError::NodeFailed(NodeId(3)))
            );
            assert_eq!(
                o.fail_node(NodeId(99)),
                Err(NetError::UnknownNode(NodeId(99)))
            );
            assert_eq!(
                o.recover_node(NodeId(99)),
                Err(NetError::UnknownNode(NodeId(99)))
            );
        }

        #[test]
        fn groups_created_after_a_failure_route_around_it() {
            let mut o = ring7();
            o.fail_node(NodeId(1)).unwrap();
            let members: Vec<NodeId> = all_nodes(7)
                .into_iter()
                .filter(|&n| n != NodeId(1))
                .collect();
            let g = o.create_group("grp", &members).unwrap();
            assert_ne!(o.group_root(g).unwrap(), NodeId(1));
            let d = o.multicast(g, members[0], &members[1..], 90).unwrap();
            assert_eq!(d.latencies.len(), members.len() - 1);
            assert_eq!(d.repair_bytes, 0, "no repaired edges in a fresh tree");
        }

        #[test]
        fn fault_free_deliveries_report_zero_repair_bytes() {
            let mut o = ring7();
            let members = all_nodes(7);
            let g = o.create_group("grp", &members).unwrap();
            let d = o.multicast(g, NodeId(0), &members[1..], 100).unwrap();
            assert_eq!(d.repair_bytes, 0);
            assert_eq!(o.repairs(), 0);
            assert_eq!(o.repair_bytes(), 0);
        }
    }

    mod emission_path {
        use super::*;
        use gasf_core::bitset::FilterSet;
        use gasf_core::schema::Schema;
        use gasf_core::tuple::TupleBuilder;
        use std::sync::Arc;

        fn emission(filters: &[usize]) -> Emission {
            let schema = Schema::new(["t"]);
            let mut b = TupleBuilder::new(&schema);
            let tuple = b.at_millis(10).set("t", 1.0).build().unwrap();
            let mut recipients = FilterSet::new();
            for &f in filters {
                recipients.insert(FilterId::from_index(f));
            }
            Emission {
                tuple: Arc::new(tuple),
                recipients,
                emitted_at: Micros::from_millis(10),
            }
        }

        #[test]
        fn emission_send_matches_explicit_multicast() {
            let e = emission(&[0, 2]);
            let nodes = [NodeId(3), NodeId(5), NodeId(1)];

            let mut a = ring7();
            let g = a.create_group("grp", &all_nodes(7)).unwrap();
            let via_emission = a
                .multicast_emission(g, NodeId(0), &e, |f| nodes[f.index()])
                .unwrap();

            let mut b = ring7();
            let g = b.create_group("grp", &all_nodes(7)).unwrap();
            let explicit = b
                .multicast(g, NodeId(0), &[NodeId(1), NodeId(3)], e.tuple.wire_size())
                .unwrap();

            assert_eq!(via_emission, explicit);
            assert_eq!(a.total_bytes(), b.total_bytes());
        }

        #[test]
        fn duplicate_recipient_nodes_collapse() {
            // Two filters living on the same node must cost one delivery.
            let e = emission(&[0, 1]);
            let mut o = ring7();
            let g = o.create_group("grp", &all_nodes(7)).unwrap();
            let d = o
                .multicast_emission(g, NodeId(0), &e, |_| NodeId(4))
                .unwrap();
            assert_eq!(d.latencies.len(), 1);

            let mut o2 = ring7();
            let g2 = o2.create_group("grp", &all_nodes(7)).unwrap();
            let single = o2
                .multicast(g2, NodeId(0), &[NodeId(4)], e.tuple.wire_size())
                .unwrap();
            assert_eq!(d, single);
        }

        #[test]
        fn emission_send_surfaces_errors() {
            let e = emission(&[0]);
            let mut o = ring7();
            let g = o.create_group("grp", &[NodeId(0), NodeId(1)]).unwrap();
            assert_eq!(
                o.multicast_emission(g, NodeId(0), &e, |_| NodeId(6)),
                Err(NetError::NotAMember(NodeId(6)))
            );
        }
    }
}
