//! Worker entrypoints: the processes of a localhost deployment.
//!
//! A deployment (described by a [`HostLayout`]) is one **source** worker
//! and N **subscriber** workers:
//!
//! * [`run_subscriber`] binds the process's listen address (publishing
//!   ephemeral ports through a `proc-<id>.port` file in the run
//!   directory), then serves framed connections: emission frames fold
//!   into per-node [`StreamDigest`]s, `StatusRequest` answers with a
//!   [`SubscriberReport`], `Shutdown` writes `proc-<id>.report.txt` and
//!   returns.
//! * [`run_source`] builds the middleware partition from the layout's
//!   workload, replays the trace **twice** — once through a recording
//!   null transport (the in-process reference) and once over a real
//!   [`TcpTransport`] — then queries every subscriber, compares per-node
//!   digests, writes `report.txt`, and returns the
//!   [`DeploymentOutcome`].
//!
//! Byte-identical streams are the contract: the engines are
//! deterministic, so the reference digests and the digests the remote
//! subscribers computed from decoded frames must match exactly,
//! exhaustively over whatever Algorithm × OutputStrategy the layout (or
//! the `GASF_WIRE_*` env overrides) selects.
//!
//! ## Failure semantics
//!
//! Workers never hang forever: subscribers poll their listener against a
//! caller-supplied deadline and time out stalled reads; the source
//! bounds connect retries and status replies with [`WireConfig`]
//! timeouts. A dead peer therefore surfaces as a loud [`WireError`]
//! within the deadline, and `gasfctl` (or the CI timeout guard) reaps
//! whatever is left.

use crate::codec::{canon_hash, canonical_emission, StreamDigest, WireError};
use crate::frame::{write_frame, Frame, NodeDigest, SubscriberReport, DEFAULT_MAX_FRAME};
use crate::layout::{algorithm_name, strategy_name, HostLayout, ProcessSpec, Role};
use crate::record::Recorded;
use crate::tcp::{TcpTransport, WireConfig};
use gasf_core::quality::FilterSpec;
use gasf_net::transport::LinkLoad;
use gasf_net::{NodeId, NullTransport, Overlay, Topology, Transport};
use gasf_solar::{IngestOptions, Middleware, MiddlewareConfig, SourceId};
use gasf_sources::{NamosBuoy, Trace, TraceReplay};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn solar_err(e: impl std::fmt::Display) -> WireError {
    WireError::Io(e.to_string())
}

/// Builds the deployment's middleware partition from a layout: a ring
/// overlay over [`HostLayout::total_nodes`], one source, and one delta
/// filter per subscriber node with deterministically spread parameters
/// (scaled off the trace's `tmpr4` mean absolute delta, like the
/// equivalence suites). Returns the deployed middleware, the source id
/// and the generated trace.
///
/// # Errors
/// [`WireError::Io`] wrapping any middleware/trace failure.
pub fn build_middleware(layout: &HostLayout) -> Result<(Middleware, SourceId, Trace), WireError> {
    let trace = NamosBuoy::new()
        .tuples(layout.workload.tuples)
        .seed(layout.workload.seed)
        .generate();
    let overlay = Overlay::new(Topology::ring(layout.total_nodes()).build());
    let config = MiddlewareConfig {
        algorithm: layout.workload.algorithm,
        strategy: layout.workload.strategy,
        constraint: None,
        parallelism: layout.workload.parallelism,
        event_time: None,
        ingress_capacity: None,
        shedding: None,
    };
    let mut mw = Middleware::with_config(overlay, config);
    let src_node = layout.source().nodes[0];
    let src = mw
        .register_source("wire-src", src_node, trace.schema().clone())
        .map_err(solar_err)?;
    let s = trace.stats("tmpr4").map_err(solar_err)?.mean_abs_delta;
    for (k, node) in layout.subscriber_nodes().into_iter().enumerate() {
        let k = k as f64;
        let spec = FilterSpec::delta("tmpr4", s * (2.0 + 0.5 * k), s * (0.9 + 0.25 * k));
        // Static deployment: the handle's unsubscribe lifecycle is unused.
        let _handle = mw
            .subscribe(format!("app-{}", node.index()), node, src, spec)
            .map_err(solar_err)?;
    }
    mw.deploy().map_err(solar_err)?;
    Ok((mw, src, trace))
}

/// The run directory's port file for a process.
pub fn port_file(run_dir: &Path, process: u32) -> PathBuf {
    run_dir.join(format!("proc-{process}.port"))
}

/// The run directory's report file for a process (the deployment-level
/// `report.txt` belongs to the source).
pub fn report_file(run_dir: &Path, process: u32) -> PathBuf {
    run_dir.join(format!("proc-{process}.report.txt"))
}

/// Resolves a process's actual socket address: fixed ports parse
/// directly, ephemeral (`:0`) ports poll the process's port file until
/// `timeout`.
///
/// # Errors
/// [`WireError::Io`] on unparseable addresses or when the port file
/// does not appear in time.
pub fn resolve_addr(
    spec: &ProcessSpec,
    run_dir: &Path,
    timeout: Duration,
) -> Result<SocketAddr, WireError> {
    let (host, port) = spec
        .addr
        .rsplit_once(':')
        .ok_or_else(|| WireError::Io(format!("address {:?} lacks a port", spec.addr)))?;
    let port: u16 = port
        .parse()
        .map_err(|_| WireError::Io(format!("bad port in {:?}", spec.addr)))?;
    if port != 0 {
        return format!("{host}:{port}")
            .parse()
            .map_err(|e| WireError::Io(format!("address {:?}: {e}", spec.addr)));
    }
    let file = port_file(run_dir, spec.id);
    let deadline = Instant::now() + timeout;
    loop {
        match std::fs::read_to_string(&file) {
            Ok(text) => {
                let actual: u16 = text
                    .trim()
                    .parse()
                    .map_err(|_| WireError::Io(format!("bad port file {}", file.display())))?;
                return format!("{host}:{actual}")
                    .parse()
                    .map_err(|e| WireError::Io(format!("address {:?}: {e}", spec.addr)));
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                return Err(WireError::Io(format!(
                    "port file {} never appeared: {e}",
                    file.display()
                )))
            }
        }
    }
}

/// What one `read` attempt on a subscriber connection produced.
enum Step {
    Frame(Vec<u8>),
    Idle,
    Eof,
}

/// Reads one length-prefixed frame body (header bytes included) off a
/// stream with a read timeout, distinguishing "no bytes yet" from EOF
/// and truncation. `deadline` bounds a stalled mid-frame sender.
fn read_frame_step(
    stream: &mut TcpStream,
    max_frame: usize,
    deadline: Instant,
) -> Result<Step, WireError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match stream.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(Step::Eof),
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed: 4,
                    have: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 {
                    return Ok(Step::Idle);
                }
                if Instant::now() > deadline {
                    return Err(WireError::Io("peer stalled mid-frame".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_frame {
        return Err(WireError::Oversize {
            len,
            max: max_frame,
        });
    }
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match stream.read(&mut body[got..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed: len,
                    have: got,
                })
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() > deadline {
                    return Err(WireError::Io("peer stalled mid-frame".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Step::Frame(body))
}

struct SubscriberState {
    process: u32,
    deployment: String,
    hosted: Vec<NodeId>,
    frames: u64,
    emissions: u64,
    bytes: u64,
    done: bool,
    digests: BTreeMap<NodeId, StreamDigest>,
    scratch_canon: Vec<u8>,
}

impl SubscriberState {
    fn report(&self) -> SubscriberReport {
        SubscriberReport {
            process: self.process,
            frames: self.frames,
            emissions: self.emissions,
            bytes: self.bytes,
            done: self.done,
            per_node: self
                .hosted
                .iter()
                .map(|&node| {
                    let d = self.digests.get(&node).copied().unwrap_or_default();
                    NodeDigest {
                        node,
                        count: d.count,
                        hash: d.hash,
                    }
                })
                .collect(),
        }
    }

    fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "subscriber process {} (deployment {})\n",
            self.process, self.deployment
        ));
        out.push_str(&format!(
            "frames: {}  emissions: {}  bytes: {}  done: {}\n",
            self.frames, self.emissions, self.bytes, self.done
        ));
        for d in self.report().per_node {
            out.push_str(&format!(
                "node {}: count={} hash={:016x}\n",
                d.node, d.count, d.hash
            ));
        }
        out
    }

    fn handle(&mut self, frame: Frame, raw_len: u64) -> Result<Option<Frame>, WireError> {
        self.frames += 1;
        self.bytes += raw_len;
        match frame {
            Frame::Hello {
                process: _,
                deployment,
            } => {
                if deployment != self.deployment {
                    return Err(WireError::Io(format!(
                        "crossed wires: caller is deployment {deployment:?}, \
                         this worker serves {:?}",
                        self.deployment
                    )));
                }
                Ok(None)
            }
            Frame::Emission {
                group,
                src,
                nodes,
                emission,
            } => {
                self.emissions += 1;
                // Re-encode the decoded emission into its canonical
                // bytes — identical to the sender's encoding iff the
                // stream really is byte-identical end to end.
                canonical_emission(&mut self.scratch_canon, group, src, &emission);
                let hash = canon_hash(&self.scratch_canon);
                for node in nodes {
                    if self.hosted.contains(&node) {
                        self.digests.entry(node).or_default().fold(hash);
                    }
                }
                Ok(None)
            }
            Frame::Finish => {
                self.done = true;
                Ok(None)
            }
            Frame::StatusRequest => Ok(Some(Frame::StatusReport(self.report()))),
            Frame::Shutdown => Ok(Some(Frame::Shutdown)),
            Frame::StatusReport(_) => Err(WireError::Io(
                "subscriber received a StatusReport (protocol confusion)".into(),
            )),
            Frame::Tuples(_) => Err(WireError::Io(
                "subscriber received a raw tuple burst (protocol confusion: \
                 Tuples frames address a SocketSource, not a subscriber)"
                    .into(),
            )),
        }
    }
}

/// Runs a subscriber worker until a `Shutdown` frame or `max_lifetime`
/// elapses. Binds the process's layout address (publishing the real
/// port via [`port_file`] when ephemeral), accepts connections
/// sequentially, and maintains per-node digests across all of them.
/// Returns the final report (also written to [`report_file`]).
///
/// # Errors
/// [`WireError::Io`] on bind/accept failures, protocol violations,
/// deployment-name mismatches, or deadline exhaustion.
pub fn run_subscriber(
    layout: &HostLayout,
    process: u32,
    run_dir: &Path,
    max_lifetime: Duration,
) -> Result<SubscriberReport, WireError> {
    let spec = layout
        .process(process)
        .ok_or_else(|| WireError::Io(format!("no process {process} in layout")))?;
    if spec.role != Role::Subscriber {
        return Err(WireError::Io(format!(
            "process {process} is a {}, not a subscriber",
            spec.role
        )));
    }
    std::fs::create_dir_all(run_dir)?;
    let (host, port) = spec.addr.rsplit_once(':').expect("validated addr");
    let listener = TcpListener::bind(format!("{host}:{port}"))
        .map_err(|e| WireError::Io(format!("bind {}: {e}", spec.addr)))?;
    let actual = listener.local_addr()?.port();
    // Publish the bound port atomically: write-then-rename, so a reader
    // polling the path never sees a half-written file.
    let pf = port_file(run_dir, process);
    let tmp = pf.with_extension("port.tmp");
    std::fs::write(&tmp, format!("{actual}\n"))?;
    std::fs::rename(&tmp, &pf)?;
    listener.set_nonblocking(true)?;

    let deadline = Instant::now() + max_lifetime;
    let mut state = SubscriberState {
        process,
        deployment: layout.name.clone(),
        hosted: spec.nodes.clone(),
        frames: 0,
        emissions: 0,
        bytes: 0,
        done: false,
        digests: BTreeMap::new(),
        scratch_canon: Vec::new(),
    };

    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(WireError::Io("subscriber lifetime exhausted".into()));
                }
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        stream.set_nodelay(true)?;
        // Serve this connection until EOF or Shutdown.
        loop {
            match read_frame_step(&mut stream, DEFAULT_MAX_FRAME, deadline)? {
                Step::Eof => break,
                Step::Idle => {
                    if Instant::now() > deadline {
                        return Err(WireError::Io("subscriber lifetime exhausted".into()));
                    }
                }
                Step::Frame(body) => {
                    let raw_len = body.len() as u64 + 4;
                    let frame = Frame::decode(&body)?;
                    match state.handle(frame, raw_len)? {
                        Some(Frame::Shutdown) => {
                            let report = state.report();
                            std::fs::write(report_file(run_dir, process), state.render_report())?;
                            return Ok(report);
                        }
                        Some(reply) => write_frame(&mut stream, &reply)?,
                        None => {}
                    }
                    if state.done {
                        // Persist progress at end-of-stream so `gasfctl
                        // inspect` reads digests even before shutdown.
                        std::fs::write(report_file(run_dir, process), state.render_report())?;
                    }
                }
            }
        }
    }
}

/// Everything a finished deployment run knows, returned by
/// [`run_source`] and rendered into `report.txt`.
#[derive(Debug)]
pub struct DeploymentOutcome {
    /// Whether every subscriber's per-node digests matched the
    /// in-process reference — the distributed-equivalence verdict.
    pub equivalent: bool,
    /// Human-readable mismatch descriptions (empty when equivalent).
    pub mismatches: Vec<String>,
    /// Reference digests per subscriber node (recorded in-process).
    pub reference: BTreeMap<NodeId, StreamDigest>,
    /// What each subscriber process reported receiving.
    pub received: Vec<SubscriberReport>,
    /// Per-peer-connection bytes the wire transport sent.
    pub wire_links: Vec<LinkLoad>,
    /// Per-underlay-link bytes of the in-process overlay baseline run —
    /// the analytic bandwidth accounting, preserved through the seam.
    pub overlay_links: Vec<LinkLoad>,
    /// Emission sends over the wire.
    pub wire_messages: u64,
    /// Total bytes the wire transport put on its connections.
    pub wire_bytes: u64,
    /// Total bytes of the overlay baseline run.
    pub overlay_bytes: u64,
}

impl DeploymentOutcome {
    /// Renders the deployment report `gasfctl inspect` prints.
    pub fn render(&self, layout: &HostLayout) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "deployment {} — {} tuples, seed {}, {} / {}, parallelism {}\n",
            layout.name,
            layout.workload.tuples,
            layout.workload.seed,
            algorithm_name(layout.workload.algorithm),
            strategy_name(layout.workload.strategy),
            layout.workload.parallelism,
        ));
        out.push_str(&format!(
            "wire: {} emission sends, {} bytes\n",
            self.wire_messages, self.wire_bytes
        ));
        for l in &self.wire_links {
            out.push_str(&format!("  link {l}\n"));
        }
        out.push_str(&format!(
            "overlay baseline: {} bytes across {} links\n",
            self.overlay_bytes,
            self.overlay_links.len()
        ));
        for l in &self.overlay_links {
            out.push_str(&format!("  link {l}\n"));
        }
        out.push_str("per-node delivery digests (reference | received):\n");
        for report in &self.received {
            for d in &report.per_node {
                let r = self.reference.get(&d.node).copied().unwrap_or_default();
                out.push_str(&format!(
                    "  node {} @ p{}: {}x{:016x} | {}x{:016x}\n",
                    d.node, report.process, r.count, r.hash, d.count, d.hash
                ));
            }
        }
        out.push_str(&format!(
            "EQUIVALENT: {}\n",
            if self.equivalent { "yes" } else { "NO" }
        ));
        for m in &self.mismatches {
            out.push_str(&format!("  mismatch: {m}\n"));
        }
        out
    }
}

/// Runs the source worker of a deployment: reference digest run, wire
/// run over a [`TcpTransport`], subscriber status collection, digest
/// comparison, and the deployment `report.txt`. The subscriber workers
/// must already be launching (the connect retries cover startup races);
/// they are sent `Finish` + `Shutdown`, so a successful `run_source`
/// leaves no worker behind.
///
/// # Errors
/// [`WireError`] on any middleware, socket or protocol failure.
pub fn run_source(
    layout: &HostLayout,
    run_dir: &Path,
    config: WireConfig,
) -> Result<DeploymentOutcome, WireError> {
    std::fs::create_dir_all(run_dir)?;

    // 1. Reference run: digests recorded in-process, no sockets.
    let (mut mw, src, trace) = build_middleware(layout)?;
    let mut reference_transport = Recorded::new(NullTransport::new());
    mw.pipeline_over(src, &mut reference_transport)
        .and_then(|p| p.ingest(&mut TraceReplay::new(trace), IngestOptions::default()))
        .map_err(solar_err)?;
    let (_, reference) = reference_transport.into_parts();

    // 2. Overlay baseline: the same workload through the in-process
    //    overlay (the pre-seam path), for the bandwidth report.
    let (mut mw2, src2, trace) = build_middleware(layout)?;
    mw2.pipeline(src2)
        .and_then(|p| p.ingest(&mut TraceReplay::new(trace), IngestOptions::default()))
        .map_err(solar_err)?;
    let overlay_links = Transport::link_loads(mw2.overlay());
    let overlay_bytes = mw2.overlay().total_bytes();

    // 3. Wire run: fresh middleware, emissions over TCP.
    let (mut mw3, src3, trace) = build_middleware(layout)?;
    //    The wire is recorded on the way through, for the sender-side
    //    tripwire below.
    let mut recorded = Recorded::new(TcpTransport::connect(
        layout,
        layout.source().id,
        config,
        |pid| {
            let spec = layout
                .process(pid)
                .ok_or_else(|| WireError::Io(format!("no process {pid} in layout")))?;
            resolve_addr(spec, run_dir, config.connect_timeout)
        },
    )?);
    mw3.pipeline_over(src3, &mut recorded)
        .and_then(|p| p.ingest(&mut TraceReplay::new(trace), IngestOptions::default()))
        .map_err(solar_err)?;
    Transport::flush(&mut recorded).map_err(|e| WireError::Io(e.to_string()))?;
    let (mut wire, sent) = recorded.into_parts();
    wire.broadcast_control(&Frame::Finish)?;

    // 4. Collect subscriber reports, then release the workers.
    let mut received = Vec::new();
    for sub in layout.subscribers() {
        received.push(wire.query_status(sub.id)?);
    }
    let wire_links = Transport::link_loads(&wire);
    let wire_messages = Transport::messages(&wire);
    let wire_bytes = Transport::total_bytes(&wire);
    wire.broadcast_control(&Frame::Shutdown)?;

    // 5. Compare digests: every subscriber node must have observed the
    //    reference stream byte for byte.
    let mut mismatches = Vec::new();
    for report in &received {
        if !report.done {
            mismatches.push(format!("process {} never saw Finish", report.process));
        }
        for d in &report.per_node {
            let r = reference.get(&d.node).copied().unwrap_or_default();
            if (d.count, d.hash) != (r.count, r.hash) {
                mismatches.push(format!(
                    "node {} @ p{}: reference {}x{:016x}, received {}x{:016x}",
                    d.node, report.process, r.count, r.hash, d.count, d.hash
                ));
            }
        }
    }
    // The sender-side digests must agree with the reference too — a
    // cheap tripwire for transport-side recipient-mapping bugs.
    for (node, d) in sent {
        let r = reference.get(&node).copied().unwrap_or_default();
        if (d.count, d.hash) != (r.count, r.hash) {
            mismatches.push(format!(
                "node {node} sender-side digest diverged from reference"
            ));
        }
    }

    let outcome = DeploymentOutcome {
        equivalent: mismatches.is_empty(),
        mismatches,
        reference,
        received,
        wire_links,
        overlay_links,
        wire_messages,
        wire_bytes,
        overlay_bytes,
    };
    std::fs::write(run_dir.join("report.txt"), outcome.render(layout))?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HostLayout;

    const LAYOUT: &str = r#"
[deployment]
name = "unit"
[workload]
tuples = 120
seed = 7
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

    /// Subscriber worker on a thread + source run in this thread: the
    /// full deployment handshake, over real localhost sockets.
    #[test]
    fn single_process_pair_reaches_equivalence() {
        let layout = HostLayout::from_toml(LAYOUT).unwrap();
        let run_dir = std::env::temp_dir().join(format!("gasf-wire-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&run_dir);

        let sub_layout = layout.clone();
        let sub_dir = run_dir.clone();
        let sub = std::thread::spawn(move || {
            run_subscriber(&sub_layout, 1, &sub_dir, Duration::from_secs(60))
        });

        let outcome = run_source(&layout, &run_dir, WireConfig::default()).unwrap();
        let report = sub.join().unwrap().unwrap();

        assert!(outcome.equivalent, "{:?}", outcome.mismatches);
        assert!(report.done);
        assert_eq!(report.per_node.len(), 2);
        assert!(report.emissions > 0, "the workload must emit");
        assert!(outcome.wire_bytes > 0);
        assert!(outcome.overlay_bytes > 0, "overlay accounting preserved");
        assert!(run_dir.join("report.txt").exists());
        let _ = std::fs::remove_dir_all(&run_dir);
    }
}
