//! The length-prefixed TCP transport: per-peer connection multiplexing
//! over a host layout.
//!
//! One [`TcpTransport`] lives in the source process and implements
//! [`Transport`] over real sockets. It keeps **one connection per peer
//! process** (not per overlay node): every node a peer hosts shares that
//! connection, and each emission crosses each process link **at most
//! once** — the frame carries the recipient-node list, so the tuple-level
//! multicast property of Fig. 1.2 is preserved at process granularity.
//!
//! ## Flush and backpressure
//!
//! Frames are staged in a per-peer userspace buffer and written out when
//! the buffer crosses [`WireConfig::flush_threshold`] or on
//! [`Transport::flush`]. The write is blocking: once the peer's kernel
//! socket buffer is full, a send blocks until the receiver
//! drains — that *is* the backpressure, propagated straight up the
//! pipeline to the engine's release path. Hard I/O failures surface as
//! [`NetError::Transport`].

use crate::codec::WireError;
use crate::frame::{encode_emission_frame, read_frame, Frame, SubscriberReport, DEFAULT_MAX_FRAME};
use crate::layout::HostLayout;
use gasf_core::candidate::FilterId;
use gasf_core::engine::Emission;
use gasf_core::time::Micros;
use gasf_net::transport::LinkLoad;
use gasf_net::{resolve_nodes, Delivery, GroupId, NetError, NodeId, Transport};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Tuning knobs for [`TcpTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Reject frames larger than this on both sides.
    pub max_frame: usize,
    /// Write the peer buffer out once it holds this many bytes.
    pub flush_threshold: usize,
    /// How long to keep retrying the initial connect per peer.
    pub connect_timeout: Duration,
    /// Read timeout for request/response control exchanges.
    pub reply_timeout: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame: DEFAULT_MAX_FRAME,
            flush_threshold: 32 * 1024,
            connect_timeout: Duration::from_secs(30),
            reply_timeout: Duration::from_secs(30),
        }
    }
}

#[derive(Debug)]
struct Peer {
    process: u32,
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Staged frames not yet written to the socket.
    buffer: Vec<u8>,
    /// Bytes put on this connection (flushed + staged).
    bytes: u64,
}

impl Peer {
    fn flush(&mut self) -> Result<(), WireError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let stream = self
            .stream
            .as_mut()
            .expect("peer with staged bytes is connected");
        stream.write_all(&self.buffer)?;
        self.buffer.clear();
        Ok(())
    }
}

/// A [`Transport`] that frames emissions onto per-peer TCP connections
/// according to a [`HostLayout`].
///
/// Construct with [`TcpTransport::connect`] in the source process after
/// the subscriber processes are listening, hand it to
/// [`Middleware::pipeline_over`](gasf_solar::Middleware::pipeline_over),
/// and the engine's emissions stream over the wire instead of the
/// in-process overlay.
#[derive(Debug)]
pub struct TcpTransport {
    deployment: String,
    local_process: u32,
    peers: Vec<Peer>,
    /// `NodeId` index → index into `peers` (or `usize::MAX` for nodes
    /// hosted locally, e.g. the source's own node).
    node_peer: Vec<usize>,
    config: WireConfig,
    messages: u64,
    /// Scratch: deduplicated recipient nodes of the current send.
    scratch_nodes: Vec<NodeId>,
    /// Scratch: frame bytes of the current send.
    scratch_frame: Vec<u8>,
    /// Scratch: the per-peer slice of the recipient list.
    scratch_frame_nodes: Vec<NodeId>,
}

impl TcpTransport {
    /// Connects to every peer process in the layout (everyone but
    /// `local_process`), retrying each until [`WireConfig::connect_timeout`]
    /// so the source can start before its subscribers finish binding.
    /// `resolve` maps a process id to its actual socket address (the run
    /// directory's port files, when the layout uses ephemeral ports).
    ///
    /// # Errors
    /// [`WireError::Io`] when a peer stays unreachable past the timeout.
    pub fn connect(
        layout: &HostLayout,
        local_process: u32,
        config: WireConfig,
        mut resolve: impl FnMut(u32) -> Result<SocketAddr, WireError>,
    ) -> Result<TcpTransport, WireError> {
        let mut peers = Vec::new();
        for p in &layout.processes {
            if p.id == local_process {
                continue;
            }
            peers.push(Peer {
                process: p.id,
                addr: resolve(p.id)?,
                stream: None,
                buffer: Vec::new(),
                bytes: 0,
            });
        }
        let mut node_peer = vec![usize::MAX; layout.total_nodes()];
        for (i, peer) in peers.iter().enumerate() {
            let spec = layout
                .process(peer.process)
                .expect("peer ids come from the layout");
            for n in &spec.nodes {
                node_peer[n.index()] = i;
            }
        }
        let mut transport = TcpTransport {
            deployment: layout.name.clone(),
            local_process,
            peers,
            node_peer,
            config,
            messages: 0,
            scratch_nodes: Vec::new(),
            scratch_frame: Vec::new(),
            scratch_frame_nodes: Vec::new(),
        };
        for i in 0..transport.peers.len() {
            transport.connect_peer(i)?;
        }
        Ok(transport)
    }

    fn connect_peer(&mut self, i: usize) -> Result<(), WireError> {
        let deadline = Instant::now() + self.config.connect_timeout;
        let peer = &mut self.peers[i];
        loop {
            match TcpStream::connect(peer.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    peer.stream = Some(stream);
                    break;
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    return Err(WireError::Io(format!(
                        "connect to process {} at {}: {e}",
                        peer.process, peer.addr
                    )))
                }
            }
        }
        let hello = Frame::Hello {
            process: self.local_process,
            deployment: self.deployment.clone(),
        };
        self.stage_control(i, &hello)?;
        Ok(())
    }

    /// Stages a control frame on peer `i`'s buffer (flushed with data).
    fn stage_control(&mut self, i: usize, frame: &Frame) -> Result<(), WireError> {
        let peer = &mut self.peers[i];
        let before = peer.buffer.len();
        frame.encode_into(&mut peer.buffer);
        peer.bytes += (peer.buffer.len() - before) as u64;
        if peer.buffer.len() >= self.config.flush_threshold {
            peer.flush()?;
        }
        Ok(())
    }

    /// Sends a control frame to every peer and flushes.
    ///
    /// # Errors
    /// [`WireError::Io`] on write failure.
    pub fn broadcast_control(&mut self, frame: &Frame) -> Result<(), WireError> {
        for i in 0..self.peers.len() {
            self.stage_control(i, frame)?;
            self.peers[i].flush()?;
        }
        Ok(())
    }

    /// Sends [`Frame::StatusRequest`] to the peer with process id
    /// `process` and blocks for its [`SubscriberReport`] (bounded by
    /// [`WireConfig::reply_timeout`]).
    ///
    /// # Errors
    /// [`WireError::Io`] on write/read failure or timeout, codec errors
    /// on a malformed reply.
    pub fn query_status(&mut self, process: u32) -> Result<SubscriberReport, WireError> {
        let i = self
            .peers
            .iter()
            .position(|p| p.process == process)
            .ok_or_else(|| WireError::Io(format!("no peer with process id {process}")))?;
        self.stage_control(i, &Frame::StatusRequest)?;
        let peer = &mut self.peers[i];
        peer.flush()?;
        let stream = peer.stream.as_mut().expect("flushed peer is connected");
        stream.set_read_timeout(Some(self.config.reply_timeout))?;
        let frame = read_frame(stream, self.config.max_frame)?
            .ok_or_else(|| WireError::Io(format!("process {process} hung up mid-query")))?;
        match frame {
            Frame::StatusReport(report) => Ok(report),
            other => Err(WireError::Io(format!(
                "process {process} answered StatusRequest with {other:?}"
            ))),
        }
    }

    /// The deployment name this transport was built for.
    pub fn deployment(&self) -> &str {
        &self.deployment
    }
}

impl Transport for TcpTransport {
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
        _node_of: &mut dyn FnMut(FilterId) -> NodeId,
    ) -> Result<Delivery, NetError> {
        let mut latencies = BTreeMap::new();
        let mut bytes_on_wire = 0u64;
        let mut hops = 0usize;
        // Group the recipient list by hosting peer: one frame per peer
        // connection, carrying that peer's slice of the node list. The
        // per-peer slice is contiguous after the sort only if the layout
        // assigns contiguous node ranges, so filter per peer instead —
        // recipient lists are short and this stays allocation-free.
        let mut frame_nodes = std::mem::take(&mut self.scratch_frame_nodes);
        let mut err: Option<WireError> = None;
        for pi in 0..self.peers.len() {
            frame_nodes.clear();
            frame_nodes.extend(
                nodes
                    .iter()
                    .copied()
                    .filter(|n| self.node_peer.get(n.index()).copied() == Some(pi)),
            );
            if frame_nodes.is_empty() {
                continue;
            }
            self.scratch_frame.clear();
            encode_emission_frame(&mut self.scratch_frame, group, src, &frame_nodes, emission);
            let peer = &mut self.peers[pi];
            peer.buffer.extend_from_slice(&self.scratch_frame);
            peer.bytes += self.scratch_frame.len() as u64;
            bytes_on_wire += self.scratch_frame.len() as u64;
            hops += 1;
            if peer.buffer.len() >= self.config.flush_threshold {
                if let Err(e) = peer.flush() {
                    err = Some(e);
                    break;
                }
            }
        }
        frame_nodes.clear();
        self.scratch_frame_nodes = frame_nodes;
        // Latency over a real wire is measured at the receiver; the
        // sender reports zero per recipient (the analytic model belongs
        // to the simulated overlay).
        for &node in nodes {
            latencies.insert(node, Micros::ZERO);
        }
        if let Some(e) = err {
            return Err(NetError::Transport(e.to_string()));
        }
        self.messages += 1;
        Ok(Delivery {
            latencies,
            bytes_on_wire,
            overlay_hops: hops,
            repair_bytes: 0,
        })
    }

    fn flush(&mut self) -> Result<(), NetError> {
        for peer in &mut self.peers {
            peer.flush()
                .map_err(|e| NetError::Transport(e.to_string()))?;
        }
        Ok(())
    }

    fn total_bytes(&self) -> u64 {
        self.peers.iter().map(|p| p.bytes).sum()
    }

    fn messages(&self) -> u64 {
        self.messages
    }

    fn link_loads(&self) -> Vec<LinkLoad> {
        let mut loads: Vec<LinkLoad> = self
            .peers
            .iter()
            .map(|p| LinkLoad {
                link: format!("p{}->p{}", self.local_process, p.process),
                bytes: p.bytes,
            })
            .collect();
        loads.sort_by(|a, b| a.link.cmp(&b.link));
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HostLayout;
    use gasf_core::bitset::FilterSet;
    use gasf_core::schema::Schema;
    use gasf_core::tuple::Tuple;
    use std::net::TcpListener;
    use std::sync::Arc;

    const LAYOUT: &str = r#"
[deployment]
name = "t"
[[process]]
id = 0
role = "source"
addr = "127.0.0.1:0"
nodes = [0]
[[process]]
id = 1
role = "subscriber"
addr = "127.0.0.1:0"
nodes = [1, 2]
"#;

    fn emission(recipients: &[usize], seq: u64) -> Emission {
        let schema = Schema::new(["a"]);
        let tuple = Tuple::new(&schema, seq, Micros(seq * 10), vec![seq as f64]).unwrap();
        let set: FilterSet = recipients
            .iter()
            .map(|&i| FilterId::from_index(i))
            .collect();
        Emission {
            tuple: Arc::new(tuple),
            recipients: set,
            emitted_at: Micros(seq * 10),
        }
    }

    /// One frame per peer, nodes deduplicated, flush pushes the bytes.
    #[test]
    fn frames_multiplex_per_peer_connection() {
        let layout = HostLayout::from_toml(LAYOUT).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut frames = Vec::new();
            while let Some(f) = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap() {
                frames.push(f);
            }
            frames
        });

        let mut t = TcpTransport::connect(&layout, 0, WireConfig::default(), |_| Ok(addr)).unwrap();
        // Filters 0 and 1 both live on node 1; node 2 hosts filter 2.
        let e = emission(&[0, 1, 2], 7);
        let d = t
            .send_emission(GroupId::from_raw(9), NodeId(0), &e, &mut |f| {
                NodeId(if f.index() < 2 { 1 } else { 2 })
            })
            .unwrap();
        assert_eq!(d.overlay_hops, 1, "both nodes share one peer frame");
        assert!(d.bytes_on_wire > 0);
        Transport::flush(&mut t).unwrap();
        assert_eq!(Transport::messages(&t), 1);
        assert_eq!(Transport::total_bytes(&t), {
            let loads = Transport::link_loads(&t);
            loads.iter().map(|l| l.bytes).sum::<u64>()
        });
        drop(t);

        let frames = server.join().unwrap();
        assert!(matches!(&frames[0], Frame::Hello { process: 0, .. }));
        match &frames[1] {
            Frame::Emission {
                group, src, nodes, ..
            } => {
                assert_eq!(group.raw(), 9);
                assert_eq!(*src, NodeId(0));
                assert_eq!(nodes, &vec![NodeId(1), NodeId(2)]);
            }
            other => panic!("expected emission frame, got {other:?}"),
        }
    }

    /// A loopback peer that collects every frame until the sender hangs
    /// up: returns the address to connect to and the collector.
    fn collecting_peer() -> (SocketAddr, std::thread::JoinHandle<Vec<Frame>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut frames = Vec::new();
            while let Some(f) = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap() {
                frames.push(f);
            }
            frames
        });
        (addr, peer)
    }

    /// A resolved send puts the same frames on the wire, and books the
    /// same bytes and messages, as the per-label send.
    #[test]
    fn resolved_sends_frame_like_per_label_sends() {
        let layout = HostLayout::from_toml(LAYOUT).unwrap();
        let (addr_a, peer_a) = collecting_peer();
        let (addr_b, peer_b) = collecting_peer();
        let config = WireConfig::default();
        let mut per_label = TcpTransport::connect(&layout, 0, config, |_| Ok(addr_a)).unwrap();
        let mut resolved = TcpTransport::connect(&layout, 0, config, |_| Ok(addr_b)).unwrap();
        let mut node_of = |f: FilterId| NodeId(f.index() as u32 % 2 + 1);
        let mut nodes = Vec::new();
        let group = GroupId::from_raw(9);
        for (seq, labels) in [&[0usize, 2][..], &[1], &[0, 1, 2, 3], &[]]
            .into_iter()
            .enumerate()
        {
            let e = emission(labels, seq as u64);
            let a = per_label.send_emission(group, NodeId(0), &e, &mut node_of);
            resolve_nodes(&mut nodes, &e, node_of);
            let b = resolved.send_to_nodes(group, NodeId(0), &e, &nodes, &mut node_of);
            assert_eq!(a.unwrap(), b.unwrap());
        }
        Transport::flush(&mut per_label).unwrap();
        Transport::flush(&mut resolved).unwrap();
        assert_eq!(
            Transport::total_bytes(&per_label),
            Transport::total_bytes(&resolved)
        );
        assert_eq!(
            Transport::messages(&per_label),
            Transport::messages(&resolved)
        );
        assert_eq!(
            Transport::link_loads(&per_label),
            Transport::link_loads(&resolved)
        );
        drop((per_label, resolved));
        assert_eq!(peer_a.join().unwrap(), peer_b.join().unwrap());
    }

    #[test]
    fn connect_timeout_fails_loudly() {
        let layout = HostLayout::from_toml(LAYOUT).unwrap();
        let config = WireConfig {
            connect_timeout: Duration::from_millis(50),
            ..WireConfig::default()
        };
        // A port that nothing listens on: bind + drop reserves then
        // releases it.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = TcpTransport::connect(&layout, 0, config, |_| Ok(addr)).unwrap_err();
        assert!(matches!(err, WireError::Io(_)));
    }
}
