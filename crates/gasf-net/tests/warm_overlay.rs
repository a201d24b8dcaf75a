//! Warm overlay == cold overlay.
//!
//! The send path reads state that was laid out ahead of it — resolved
//! underlay hops, node-indexed trees, per-node send scratch — so the one
//! way it can go wrong is by trusting something a control operation has
//! since changed. This suite drives a long-lived ("warm") overlay through
//! seeded schedules of group, membership and failure operations
//! interleaved with sends, and checks every send against a "cold"
//! overlay: built fresh, fed only the control history, then given the
//! same send. The cold overlay has never sent before, so nothing in it
//! can be stale; the two must agree on the [`Delivery`] (or the error)
//! and on every traffic counter.

use gasf_net::{Delivery, GroupId, LinkSpec, NetError, NodeId, Overlay, Topology, TopologyBuilder};
use std::collections::BTreeMap;

/// Deterministic xorshift64*: the suite needs no external RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn node(&mut self, nodes: usize) -> NodeId {
        NodeId(self.below(nodes) as u32)
    }

    /// A random non-empty subset of the nodes, ascending.
    fn subset(&mut self, nodes: usize) -> Vec<NodeId> {
        let mask = self.next() | (1 << self.below(nodes));
        (0..nodes)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| NodeId(i as u32))
            .collect()
    }
}

/// One control operation; groups are named by their creation index.
#[derive(Debug, Clone)]
enum Control {
    Create(String, Vec<NodeId>),
    Join(usize, NodeId),
    Leave(usize, NodeId),
    Fail(NodeId),
    Recover(NodeId),
    Remove(usize),
}

#[derive(Debug, Clone)]
struct Send {
    group: usize,
    /// The raw id sent to when the group index names no live group.
    key: u64,
    src: NodeId,
    recipients: Vec<NodeId>,
    payload: usize,
}

/// An overlay plus the groups created on it so far (`None`: the creation
/// failed, or the group was removed).
struct World {
    overlay: Overlay,
    groups: Vec<Option<GroupId>>,
}

type LinkBytes = BTreeMap<(NodeId, NodeId), u64>;

/// Every traffic counter the overlay exposes.
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    links: LinkBytes,
    total: u64,
    max_link: u64,
    messages: u64,
    repairs: u64,
    repair_bytes: u64,
}

impl World {
    fn new(topology: Topology) -> World {
        World {
            overlay: Overlay::new(topology),
            groups: Vec::new(),
        }
    }

    /// Applies one control operation, returning its outcome as text (so
    /// that the replay can be checked against the original run).
    fn control(&mut self, op: &Control) -> String {
        let o = &mut self.overlay;
        match op {
            Control::Create(name, members) => {
                let made = o.create_group(name, members);
                self.groups.push(made.clone().ok());
                format!("{made:?}")
            }
            Control::Join(g, node) => match self.groups.get(*g) {
                Some(Some(id)) => format!("{:?}", o.join_group(*id, *node)),
                _ => format!("{:?}", o.join_group(GroupId::from_raw(7), *node)),
            },
            Control::Leave(g, node) => match self.groups.get(*g) {
                Some(Some(id)) => format!("{:?}", o.leave_group(*id, *node)),
                _ => format!("{:?}", o.leave_group(GroupId::from_raw(7), *node)),
            },
            Control::Fail(node) => format!("{:?}", o.fail_node(*node)),
            Control::Recover(node) => format!("{:?}", o.recover_node(*node)),
            Control::Remove(g) => match self.groups.get_mut(*g).and_then(Option::take) {
                Some(id) => format!("{:?}", o.remove_group(id)),
                None => format!("{:?}", o.remove_group(GroupId::from_raw(7))),
            },
        }
    }

    /// The tree a send to group `group` uses (`key` names no live group).
    fn target(&self, group: usize, key: u64) -> GroupId {
        match self.groups.get(group) {
            Some(Some(id)) => *id,
            _ => GroupId::from_raw(key),
        }
    }

    fn send(&mut self, s: &Send) -> Result<Delivery, NetError> {
        let id = self.target(s.group, s.key);
        self.overlay.multicast(id, s.src, &s.recipients, s.payload)
    }

    fn counters(&self) -> Counters {
        let o = &self.overlay;
        Counters {
            links: o
                .link_loads()
                .into_iter()
                .map(|(a, b, bytes)| ((a, b), bytes))
                .collect(),
            total: o.total_bytes(),
            max_link: o.max_link_bytes(),
            messages: o.messages(),
            repairs: o.repairs(),
            repair_bytes: o.repair_bytes(),
        }
    }
}

/// `after − before` for the links that carried something in between (a
/// link first used in between counts from zero; every message here has a
/// non-empty header, so a used link's count moves).
fn link_delta(before: &LinkBytes, after: &LinkBytes) -> LinkBytes {
    after
        .iter()
        .map(|(link, bytes)| (*link, bytes - before.get(link).copied().unwrap_or(0)))
        .filter(|(_, bytes)| *bytes > 0)
        .collect()
}

fn add_links(into: &mut LinkBytes, delta: &LinkBytes) {
    for (link, bytes) in delta {
        *into.entry(*link).or_insert(0) += bytes;
    }
}

fn random_control(rng: &mut Rng, nodes: usize, groups: usize, serial: usize) -> Control {
    let group = rng.below(groups + 1); // one past the end: no such group
    match rng.below(16) {
        0..=3 => Control::Create(format!("g{serial}"), rng.subset(nodes)),
        4..=7 => Control::Join(group, rng.node(nodes)),
        8..=10 => Control::Leave(group, rng.node(nodes)),
        11..=12 => Control::Fail(rng.node(nodes)),
        13..=14 => Control::Recover(rng.node(nodes)),
        _ => Control::Remove(group),
    }
}

/// Runs one seeded schedule over `topology`; returns how many sends
/// succeeded and which errors were seen.
fn check_schedule(topology: &Topology, seed: u64, steps: usize) -> (usize, Vec<NetError>) {
    let nodes = topology.len();
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut warm = World::new(topology.clone());
    let mut history: Vec<(Control, String)> = Vec::new();
    // What the sends so far put on each link, summed from the *cold*
    // overlays' per-send figures.
    let mut sent_links = LinkBytes::new();
    let mut sent_messages = 0;
    let (mut delivered, mut errors) = (0, Vec::new());

    // Always start with one full group, so early sends have a target.
    let all: Vec<NodeId> = topology.nodes().collect();
    let first = Control::Create("g-first".into(), all);
    let outcome = warm.control(&first);
    history.push((first, outcome));

    for step in 0..steps {
        if rng.below(3) == 0 {
            let op = random_control(&mut rng, nodes, warm.groups.len(), step);
            let outcome = warm.control(&op);
            history.push((op, outcome));
            continue;
        }
        // Mostly a random subset of the members; now and then any subset
        // of the nodes (usually not all members).
        let (group, key) = (rng.below(warm.groups.len() + 1), rng.next());
        let mut recipients = rng.subset(nodes);
        if rng.below(8) != 0 {
            let members = warm.overlay.group_members(warm.target(group, key));
            let members = members.unwrap_or_default();
            recipients.retain(|r| members.contains(r));
        }
        let send = Send {
            group,
            key,
            src: rng.node(nodes),
            recipients,
            payload: 16 + rng.below(200),
        };
        let ctx = format!("seed {seed} step {step}: {send:?}");

        // The cold overlay: the control history and nothing else.
        let mut cold = World::new(topology.clone());
        for (op, outcome) in &history {
            assert_eq!(&cold.control(op), outcome, "{ctx}: replay of {op:?}");
        }
        let cold_before = cold.counters();
        let warm_before = warm.counters();

        let warm_result = warm.send(&send);
        let cold_result = cold.send(&send);
        assert_eq!(warm_result, cold_result, "{ctx}");

        // This send cost the same, link by link, on both...
        let (warm_after, cold_after) = (warm.counters(), cold.counters());
        let delta = link_delta(&cold_before.links, &cold_after.links);
        assert_eq!(
            link_delta(&warm_before.links, &warm_after.links),
            delta,
            "{ctx}"
        );
        // ...and the warm overlay's totals are exactly the control
        // traffic plus every send, each at its cold price.
        add_links(&mut sent_links, &delta);
        sent_messages += cold_after.messages - cold_before.messages;
        let mut links = cold_before.links.clone();
        add_links(&mut links, &sent_links);
        let expected = Counters {
            total: links.values().sum(),
            max_link: links.values().copied().max().unwrap_or(0),
            links,
            messages: cold_before.messages + sent_messages,
            repairs: cold_before.repairs,
            repair_bytes: cold_before.repair_bytes,
        };
        assert_eq!(warm_after, expected, "{ctx}");

        match warm_result {
            Ok(delivery) => {
                assert_eq!(
                    delivery.latencies.keys().copied().collect::<Vec<_>>(),
                    send.recipients,
                    "{ctx}"
                );
                delivered += 1;
            }
            Err(e) => errors.push(e),
        }
    }
    (delivered, errors)
}

fn saw(errors: &[NetError], what: fn(&NetError) -> bool) -> bool {
    errors.iter().any(what)
}

#[test]
fn warm_overlay_matches_cold_overlay_on_connected_topologies() {
    let topologies = [
        Topology::ring(8).build(),
        Topology::line(7).build(),
        Topology::grid(3, 3).build(),
    ];
    let (mut delivered, mut errors) = (0, Vec::new());
    for topology in &topologies {
        for seed in 1..=6 {
            let (ok, errs) = check_schedule(topology, seed, 120);
            delivered += ok;
            errors.extend(errs);
        }
    }
    assert!(delivered > 200, "only {delivered} sends went through");
    assert!(saw(&errors, |e| matches!(e, NetError::NotAMember(_))));
    assert!(saw(&errors, |e| matches!(e, NetError::NodeFailed(_))));
    assert!(saw(&errors, |e| matches!(e, NetError::UnknownGroup(_))));
    assert!(!saw(&errors, |e| matches!(e, NetError::Disconnected(..))));
}

#[test]
fn warm_overlay_matches_cold_overlay_on_a_disconnected_underlay() {
    // Two islands: {0, 1, 2} and {3, 4, 5}. Trees span both, so sends
    // (and repair traffic) run into hops the underlay cannot carry.
    let spec = LinkSpec::default();
    let topology = TopologyBuilder::with_nodes(6)
        .link(0, 1, spec)
        .link(1, 2, spec)
        .link(3, 4, spec)
        .link(4, 5, spec)
        .build();
    let (mut delivered, mut errors) = (0, Vec::new());
    for seed in 1..=8 {
        let (ok, errs) = check_schedule(&topology, seed, 120);
        delivered += ok;
        errors.extend(errs);
    }
    assert!(delivered > 0, "sends inside one island still go through");
    assert!(saw(&errors, |e| matches!(e, NetError::Disconnected(..))));
}
