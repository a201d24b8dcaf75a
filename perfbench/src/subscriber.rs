//! The subscriber "process" of `fanout-wire`: one thread serving one
//! loopback connection the way `gasf_wire::worker::run_subscriber` does —
//! length prefix, body, `Frame::decode`, canonical re-encode into the
//! per-node `StreamDigest`s — and stamping each emission frame on arrival.

use crate::Res;
use gasf_net::NodeId;
use gasf_wire::codec::canonical_emission;
use gasf_wire::frame::Frame;
use gasf_wire::{StreamDigest, DEFAULT_MAX_FRAME};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::TcpListener;
use std::time::Instant;

#[derive(Default)]
pub struct SubscriberOut {
    pub digests: BTreeMap<NodeId, StreamDigest>,
    /// Per emission frame, in arrival order: receive stamp (ns since the
    /// epoch, taken after decode) and recipient-node count.
    pub stamps: Vec<(u64, u32)>,
    pub frames: u64,
    pub decode_ns: u64,
    /// Thread CPU time over its wall time, accept to `Finish`.
    pub busy_share: f64,
}

/// CPU time this thread has used, in seconds (`utime + stime` of
/// `/proc/thread-self/stat`, 100 ticks per second on Linux).
fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Accepts one connection and reads it until `Frame::Finish`.
/// `stamp` keeps per-frame receive stamps (paced phase); `trace` times
/// `Frame::decode` and the thread's CPU share.
pub fn serve(
    listener: &TcpListener,
    epoch: Instant,
    stamp: bool,
    trace: bool,
) -> Res<SubscriberOut> {
    let (mut stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    let mut out = SubscriberOut::default();
    let (wall0, cpu0) = (Instant::now(), if trace { thread_cpu_s() } else { 0.0 });
    let mut canon = Vec::new();
    let mut body = Vec::new();
    loop {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > DEFAULT_MAX_FRAME {
            return Err(format!("oversize frame: {len} bytes").into());
        }
        body.resize(len, 0);
        stream.read_exact(&mut body)?;
        let t = trace.then(Instant::now);
        let frame = Frame::decode(&body)?;
        if let Some(t) = t {
            out.decode_ns += t.elapsed().as_nanos() as u64;
        }
        out.frames += 1;
        match frame {
            Frame::Emission {
                group,
                src,
                nodes,
                emission,
            } => {
                if stamp {
                    out.stamps
                        .push((crate::timed::ns_since(epoch), nodes.len() as u32));
                }
                canonical_emission(&mut canon, group, src, &emission);
                for node in nodes {
                    out.digests.entry(node).or_default().update(&canon);
                }
            }
            Frame::Finish => break,
            Frame::Hello { .. } => {}
            other => return Err(format!("unexpected frame on the data plane: {other:?}").into()),
        }
    }
    if trace {
        out.busy_share = (thread_cpu_s() - cpu0) / wall0.elapsed().as_secs_f64();
    }
    Ok(out)
}
