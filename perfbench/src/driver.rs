//! One repetition: fresh set-up, the whole stream through the public data
//! path, and everything observed on the way.
//!
//! The loop is the same for every workload and both phases: pull one
//! chunk through the connector wrapper, push it (via `Middleware::ingest`
//! or a `Pipeline`), flush the transport, stamp. The closed phase offers
//! the next chunk as soon as the previous returned; the paced phase
//! waits for each chunk's due time and measures from it.

use crate::hist::Histogram;
use crate::subscriber::{self, SubscriberOut};
use crate::timed::{ns_since, Span, Stepped, Timed};
use crate::workloads::{Inputs, Kind, Rig, SetupTimes, Workload, CHECKPOINT_EVERY, CHURN_EVERY};
use crate::Res;
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_net::{NodeId, NullTransport, Transport};
use gasf_solar::{GrantPolicy, IngestOptions, IngestReport};
use gasf_sources::{ArrivalReplay, TraceReplay};
use gasf_wire::frame::Frame;
use gasf_wire::tcp::TcpTransport;
use gasf_wire::{Recorded, StreamDigest};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Next chunk as soon as the previous returned.
    Closed,
    /// Chunks due on a fixed schedule at the workload's rate.
    Paced,
}

#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    pub phase: Phase,
    /// Wrap the transport, keep spans, time decode.
    pub trace: bool,
    /// Build the reference deployment (parallelism 1, pre-sorted input,
    /// no gate, no wire) whose outcome every other repetition must equal.
    pub reference: bool,
}

/// What a run delivered, in the form the correctness check compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Overlay workloads: the `RunReport` fields the repo's equivalence
    /// suites pin.
    Overlay {
        emissions: u64,
        output_tuples: u64,
        recipient_labels: u64,
        per_app: Vec<u64>,
        network_bytes: u64,
    },
    /// Wire workload: per-node stream digests.
    Wire(BTreeMap<NodeId, StreamDigest>),
}

impl Outcome {
    /// Deliveries `self` is missing (or has in excess) against `reference`.
    pub fn missing(&self, reference: &Outcome) -> u64 {
        match (self, reference) {
            (Outcome::Overlay { per_app: a, .. }, Outcome::Overlay { per_app: b, .. }) => {
                let n = a.len().max(b.len());
                let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
                let diff: u64 = (0..n).map(|i| at(a, i).abs_diff(at(b, i))).sum();
                diff.max(u64::from(self != reference))
            }
            (Outcome::Wire(a), Outcome::Wire(b)) => b
                .iter()
                .map(|(node, want)| match a.get(node) {
                    Some(got) if got == want => 0,
                    Some(got) => got.count.abs_diff(want.count).max(1),
                    None => want.count.max(1),
                })
                .sum(),
            _ => 1,
        }
    }
}

#[derive(Default)]
pub struct RepOut {
    pub tuples: u64,
    /// First `next_chunk` to the return of `finish`, the final flush and
    /// the subscriber having seen `Finish`.
    pub wall_s: f64,
    pub setup: SetupTimes,
    /// `Transport::total_bytes` of the data plane.
    pub bytes: u64,
    pub outcome: Option<Outcome>,
    /// Rows dropped, shed, late-dropped or rejected.
    pub rows_failed: u64,
    pub ingest: IngestReport,
    pub late_dropped: u64,
    pub released: u64,
    /// Paced: delivery latency, ns from the releasing chunk's due time.
    pub delivery: Histogram,
    /// The same samples split by position in the stream, so one stall of
    /// the shared host spoils a quarter of a repetition, not all of it.
    pub delivery_quarters: [Histogram; 4],
    /// Paced: how late each chunk was offered, ns.
    pub lag: Histogram,
    /// Paced: whole chunks' worth of rows the generator ran behind
    /// schedule over the last tenth of the stream (median lag there).
    pub backlog_rows: u64,
    // --- per-layer observations ---
    pub connector_ns: u64,
    /// Per chunk: offer to return of the push (and transport flush).
    pub chunk_ns: Vec<u64>,
    /// Chunks that were the first push after control operations.
    pub boundary_chunks: Vec<usize>,
    pub control_op_ns: Vec<u64>,
    pub checkpoint_ns: Vec<u64>,
    pub finish_ns: u64,
    pub send_ns: u64,
    pub sends: u64,
    pub flush_ns: u64,
    pub flushes: u64,
    pub subscriber: Option<SubscriberOut>,
    pub spans: Vec<Span>,
}

/// The data plane of one repetition.
enum Plane {
    /// The middleware's own in-process overlay.
    Overlay,
    Tcp(TcpTransport),
    TimedTcp(Timed<TcpTransport>),
    Reference(Recorded<NullTransport>),
}

impl Plane {
    fn external(&mut self) -> Option<&mut dyn Transport> {
        match self {
            Plane::Overlay => None,
            Plane::Tcp(t) => Some(t),
            Plane::TimedTcp(t) => Some(t),
            Plane::Reference(t) => Some(t),
        }
    }

    fn tcp(&mut self) -> Option<&mut TcpTransport> {
        match self {
            Plane::Tcp(t) => Some(t),
            Plane::TimedTcp(t) => Some(&mut t.inner),
            _ => None,
        }
    }
}

impl RepOut {
    /// Books `n` deliveries of `latency` ns released by chunk `chunk` of
    /// `chunks`.
    fn delivered(&mut self, latency: u64, n: u64, chunk: usize, chunks: usize) {
        self.delivery.record_n(latency, n);
        self.delivery_quarters[(chunk * 4 / chunks.max(1)).min(3)].record_n(latency, n);
    }
}

/// Waits for `due` (ns since `epoch`). With `spin` the driver never
/// leaves its vCPU — it yields in a loop — which on the shared reference
/// host cuts the run-to-run spread of the delivery percentiles to a third
/// (a halted vCPU is rescheduled at the host's convenience). A deployment
/// with engine worker threads needs that vCPU, so there the driver sleeps
/// to just short of `due` and spins only the last stretch.
fn wait_until(epoch: Instant, due: u64, spin: bool) {
    const LAST_STRETCH: u64 = 150_000;
    loop {
        let now = ns_since(epoch);
        if now >= due {
            return;
        }
        if spin {
            std::thread::yield_now();
        } else if due - now > LAST_STRETCH {
            std::thread::sleep(Duration::from_nanos(due - now - LAST_STRETCH));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn median(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

fn add_ingest(total: &mut IngestReport, r: IngestReport) {
    total.chunks += r.chunks;
    total.rows += r.rows;
    total.accepted += r.accepted;
    total.dropped += r.dropped;
    total.throttled += r.throttled;
}

/// `churn-sharded`, after batch `k`: every `CHURN_EVERY` batches the
/// scheduled subscribe, resubscribe and unsubscribe; every
/// `CHECKPOINT_EVERY` a checkpoint. Returns whether control ops are now
/// pending.
fn churn(rig: &mut Rig, inputs: &Inputs, k: usize, out: &mut RepOut) -> Res<bool> {
    let mut pending = false;
    if k.is_multiple_of(CHURN_EVERY) {
        if let Some(step) = inputs.schedule.get(k / CHURN_EVERY - 1) {
            let t = Instant::now();
            let spec = inputs.combos[step.join_combo].clone();
            let joined = rig
                .mw
                .subscribe(format!("join{k}"), step.join_node, rig.src, spec)?;
            rig.live.push(joined);
            let retuned = rig.live[step.retune_pick % rig.live.len()];
            rig.mw
                .resubscribe(retuned, inputs.combos[step.retune_combo].clone())?;
            let left = rig.live.swap_remove(step.leave_pick % rig.live.len());
            rig.mw.unsubscribe(left)?;
            out.control_op_ns.push(t.elapsed().as_nanos() as u64 / 3);
            pending = true;
        }
    }
    if k.is_multiple_of(CHECKPOINT_EVERY) {
        let t = Instant::now();
        std::hint::black_box(rig.mw.checkpoint()?);
        out.checkpoint_ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok(pending)
}

/// Runs one repetition. `listener` is the subscriber side of
/// `fanout-wire` (bound once per process; each repetition accepts one
/// fresh connection on it).
pub fn run_rep(
    w: &Workload,
    inputs: &Inputs,
    opts: RepOpts,
    listener: Option<&TcpListener>,
) -> Res<RepOut> {
    let wired = w.kind == Kind::FanoutWire && !opts.reference;
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let listener = listener.filter(|_| wired);
        let paced = opts.phase == Phase::Paced;
        let serving =
            listener.map(|l| scope.spawn(move || subscriber::serve(l, epoch, paced, opts.trace)));
        let result = stream(w, inputs, opts, listener, epoch);
        match (serving, result) {
            (Some(handle), Ok((mut out, notes))) => {
                let sub = handle.join().expect("subscriber thread panicked")?;
                finish_wire(&mut out, notes, sub, epoch);
                Ok(out)
            }
            (Some(handle), Err(e)) => {
                // Unblock a subscriber still waiting in `accept`.
                if let Some(l) = listener {
                    let _ = TcpStream::connect(l.local_addr()?);
                }
                let _ = handle.join();
                Err(e)
            }
            (None, result) => result.map(|(out, _)| out),
        }
    })
}

/// Scratch the wire repetition keeps for after the subscriber is joined.
#[derive(Default)]
struct WireNotes {
    start_ns: u64,
    dues: Vec<u64>,
    /// `Transport::messages` after each chunk's flush.
    sent_after: Vec<u64>,
}

/// After the subscriber saw `Finish`: close the clock, attribute each
/// stamped frame to the chunk whose push released it, take its digests.
fn finish_wire(out: &mut RepOut, notes: WireNotes, mut sub: SubscriberOut, epoch: Instant) {
    out.wall_s = (ns_since(epoch) - notes.start_ns) as f64 / 1e9;
    let mut chunk = 0;
    for (i, &(stamp, nodes)) in sub.stamps.iter().enumerate() {
        while chunk < notes.sent_after.len() && notes.sent_after[chunk] <= i as u64 {
            chunk += 1;
        }
        // Frames past the last chunk are the end-of-stream drain.
        let Some(&due) = notes.dues.get(chunk) else {
            break;
        };
        out.delivered(
            stamp.saturating_sub(due),
            u64::from(nodes),
            chunk,
            notes.dues.len(),
        );
    }
    out.outcome = Some(Outcome::Wire(std::mem::take(&mut sub.digests)));
    out.subscriber = Some(sub);
}

fn stream(
    w: &Workload,
    inputs: &Inputs,
    opts: RepOpts,
    listener: Option<&TcpListener>,
    epoch: Instant,
) -> Res<(RepOut, WireNotes)> {
    let addr = listener.map(|l| l.local_addr()).transpose()?;
    let mut rig = Rig::build(w, inputs, opts.reference, addr)?;
    let mut out = RepOut {
        setup: rig.setup,
        ..RepOut::default()
    };
    let mut plane = match (w.kind, rig.wire.take()) {
        (Kind::FanoutWire, Some(tcp)) if opts.trace => Plane::TimedTcp(Timed::new(tcp, epoch)),
        (Kind::FanoutWire, Some(tcp)) => Plane::Tcp(tcp),
        (Kind::FanoutWire, None) => Plane::Reference(Recorded::new(NullTransport::new())),
        _ => Plane::Overlay,
    };
    let inner: Box<dyn SourceConnector> = match &inputs.arrivals {
        Some(arrivals) if !opts.reference => Box::new(ArrivalReplay::new(
            inputs.trace.schema().clone(),
            arrivals.clone(),
        )),
        _ => Box::new(TraceReplay::new(inputs.trace.clone())),
    };
    let mut conn = Stepped::new(inner, epoch, opts.trace);
    let ingest_opts = IngestOptions {
        max_rows: w.chunk_rows,
        grant: GrantPolicy::Refill,
        finish: false,
    };
    let paced = opts.phase == Phase::Paced;
    let spin = !w.runs_workers();
    let interval_ns = w.chunk_rows as f64 / w.rate * 1e9;
    let chunks = inputs.trace.len().div_ceil(w.chunk_rows);
    let mut notes = WireNotes::default();
    let mut lags = Vec::new();
    let mut sent_before = 0;
    let mut after_control = false;

    let start = ns_since(epoch);
    notes.start_ns = start;
    let mut k = 0usize;
    loop {
        let due = start + (k as f64 * interval_ns) as u64;
        if paced {
            wait_until(epoch, due, spin);
        }
        let offered = ns_since(epoch);
        conn.arm(k as u32);
        if let Plane::TimedTcp(t) = &mut plane {
            t.chunk = k as u32;
        }
        let rows = match w.kind {
            Kind::WideRoster | Kind::DisorderRows => {
                let r = rig.mw.ingest(rig.src, &mut conn, ingest_opts)?;
                add_ingest(&mut out.ingest, r);
                r.rows as usize
            }
            Kind::FanoutWire | Kind::ChurnSharded => match conn.next_chunk(w.chunk_rows)? {
                None => 0,
                Some(Chunk::Batch(batch)) => {
                    let batch = Arc::new(batch);
                    match plane.external() {
                        Some(t) => {
                            rig.mw.pipeline_over(rig.src, t)?.push_columnar(&batch)?;
                            t.flush()?;
                        }
                        None => rig.mw.pipeline(rig.src)?.push_columnar(&batch)?,
                    }
                    batch.rows()
                }
                Some(Chunk::Rows(_)) => return Err("ordered replay yielded row chunks".into()),
            },
        };
        if rows == 0 {
            break;
        }
        let returned = ns_since(epoch);
        out.tuples += rows as u64;
        out.chunk_ns.push(returned - offered);
        if std::mem::take(&mut after_control) {
            out.boundary_chunks.push(k);
        }
        if opts.trace {
            out.spans.push(Span {
                name: "chunk",
                parent: "",
                chunk: k as u32,
                start: offered,
                end: returned,
            });
        }
        if paced {
            lags.push(offered - due);
            out.lag.record_n(offered - due, 1);
            match plane.external() {
                // The analytic overlay delivers synchronously: everything
                // this push released has arrived by its return.
                None => {
                    let sent = rig.mw.overlay().messages();
                    out.delivered(returned - due, sent - sent_before, k, chunks);
                    sent_before = sent;
                }
                Some(t) => {
                    notes.dues.push(due);
                    notes.sent_after.push(t.messages());
                }
            }
        }
        k += 1;
        if w.kind == Kind::ChurnSharded {
            after_control = churn(&mut rig, inputs, k, &mut out)?;
        }
    }

    let finishing = ns_since(epoch);
    match plane.external() {
        Some(t) => {
            rig.mw.pipeline_over(rig.src, t)?.finish()?;
            t.flush()?;
        }
        None => rig.mw.finish(rig.src)?,
    }
    out.bytes = match plane.external() {
        Some(t) => t.total_bytes(),
        None => rig.mw.overlay().total_bytes(),
    };
    if let Some(tcp) = plane.tcp() {
        tcp.broadcast_control(&Frame::Finish)?;
    }
    let end = ns_since(epoch);
    out.finish_ns = end - finishing;
    out.wall_s = (end - start) as f64 / 1e9;
    if opts.trace {
        out.spans.push(Span {
            name: "finish",
            parent: "",
            chunk: k as u32,
            start: finishing,
            end,
        });
    }

    let stats = rig.mw.event_time_stats(rig.src)?;
    out.late_dropped = stats.late_dropped;
    out.released = stats.released;
    let rejected = out.ingest.rows - out.ingest.accepted - out.ingest.dropped;
    out.rows_failed = out.ingest.dropped + out.late_dropped + rejected;
    out.connector_ns = conn.busy_ns;
    out.spans.extend(conn.spans.take().unwrap_or_default());
    match plane {
        Plane::Overlay => {
            let report = rig.mw.report(rig.src)?;
            out.outcome = Some(Outcome::Overlay {
                emissions: report.engine.emissions,
                output_tuples: report.engine.output_tuples,
                recipient_labels: report.engine.recipient_labels,
                per_app: report.per_app.iter().map(|a| a.tuples).collect(),
                network_bytes: report.network_bytes,
            });
        }
        Plane::Reference(recorded) => {
            out.outcome = Some(Outcome::Wire(recorded.digests().clone()));
        }
        Plane::TimedTcp(t) => {
            out.sends = t.inner.messages();
            (out.send_ns, out.flush_ns, out.flushes) = (t.send_ns, t.flush_ns, t.flushes);
            out.spans.extend(t.spans);
        }
        Plane::Tcp(_) => {}
    }
    if paced {
        let tail = &mut lags[k - k.div_ceil(10)..];
        let behind_chunks = (median(tail) as f64 / interval_ns).floor() as u64;
        out.backlog_rows = behind_chunks * w.chunk_rows as u64;
    }
    Ok((out, notes))
}
