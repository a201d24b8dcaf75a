//! Length-prefixed frames: the unit of transmission on a wire connection.
//!
//! Every message crosses a connection as
//!
//! ```text
//! +----------+---------+---------+-------+----------------+
//! | len: u32 | magic:  | version | tag   | body (len - 4  |
//! | (LE)     | u16 LE  | u8      | u8    |  bytes)        |
//! +----------+---------+---------+-------+----------------+
//! ```
//!
//! `len` counts everything after itself (magic + version + tag + body),
//! so a reader can skip unknown frames wholesale. The magic pins the
//! byte order and protocol family; the version byte gates codec
//! evolution — a reader rejects versions it does not speak rather than
//! guessing at the body layout.

use crate::codec::{put_str, put_u16, put_u32, put_u64, Reader, WireDecode, WireEncode, WireError};
use gasf_core::engine::Emission;
use gasf_core::tuple::Tuple;
use gasf_net::{GroupId, NodeId};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// `"GW"` little-endian — the frame magic.
pub const MAGIC: u16 = 0x5747;
/// Codec version this build speaks.
pub const VERSION: u8 = 1;
/// Default cap on a single frame's size (16 MiB) — a corrupt or
/// malicious length prefix must not trigger a giant allocation.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

const TAG_HELLO: u8 = 1;
const TAG_EMISSION: u8 = 2;
const TAG_FINISH: u8 = 3;
const TAG_STATUS_REQUEST: u8 = 4;
const TAG_STATUS_REPORT: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_TUPLES: u8 = 7;

/// Per-node stream digest inside a [`SubscriberReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeDigest {
    /// The overlay node the digest belongs to.
    pub node: NodeId,
    /// Emissions the node observed.
    pub count: u64,
    /// The node's chain over its emissions' canonical-byte hashes (see
    /// [`StreamDigest`](crate::codec::StreamDigest)).
    pub hash: u64,
}

/// What a subscriber worker reports back on [`Frame::StatusRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SubscriberReport {
    /// The reporting process id from the host layout.
    pub process: u32,
    /// Frames received on data connections so far.
    pub frames: u64,
    /// Emission frames among them.
    pub emissions: u64,
    /// Raw frame bytes received (length prefixes included).
    pub bytes: u64,
    /// Whether a [`Frame::Finish`] has arrived (the stream is complete).
    pub done: bool,
    /// Per hosted node: emission count and stream digest hash.
    pub per_node: Vec<NodeDigest>,
}

/// One wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener: who is calling and for which deployment.
    Hello {
        /// Sender's process id from the host layout.
        process: u32,
        /// Deployment name, so crossed wires between two deployments on
        /// one host fail loudly instead of corrupting digests.
        deployment: String,
    },
    /// One emission for the `nodes` hosted by the receiving process.
    Emission {
        /// Multicast group the emission belongs to.
        group: GroupId,
        /// Source overlay node.
        src: NodeId,
        /// Recipient nodes hosted by the receiving process (already
        /// deduplicated; other processes get their own frame).
        nodes: Vec<NodeId>,
        /// The emission itself, canonical codec form.
        emission: Emission,
    },
    /// A burst of raw stream tuples, producer → source process (the
    /// ingress direction of the connector seam; see
    /// [`SocketSource`](crate::socket::SocketSource)). Tuples travel in
    /// arrival order; the receiving source's event-time front end deals
    /// with any disorder.
    Tuples(Vec<Tuple>),
    /// End of stream: the source has drained its engines.
    Finish,
    /// Ask the receiver for its [`SubscriberReport`].
    StatusRequest,
    /// The receiver's answer to [`Frame::StatusRequest`].
    StatusReport(SubscriberReport),
    /// Ask the receiver to write its report and exit its serve loop.
    Shutdown,
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::Emission { .. } => TAG_EMISSION,
            Frame::Tuples(_) => TAG_TUPLES,
            Frame::Finish => TAG_FINISH,
            Frame::StatusRequest => TAG_STATUS_REQUEST,
            Frame::StatusReport(_) => TAG_STATUS_REPORT,
            Frame::Shutdown => TAG_SHUTDOWN,
        }
    }

    /// Appends the full frame — length prefix, header, body — to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let len_at = buf.len();
        put_u32(buf, 0); // patched below
        put_u16(buf, MAGIC);
        buf.push(VERSION);
        buf.push(self.tag());
        match self {
            Frame::Hello {
                process,
                deployment,
            } => {
                put_u32(buf, *process);
                put_str(buf, deployment);
            }
            Frame::Emission {
                group,
                src,
                nodes,
                emission,
            } => {
                group.encode(buf);
                src.encode(buf);
                nodes.encode(buf);
                emission.encode(buf);
            }
            Frame::Tuples(tuples) => {
                put_u32(buf, tuples.len() as u32);
                for t in tuples {
                    t.encode(buf);
                }
            }
            Frame::Finish | Frame::StatusRequest | Frame::Shutdown => {}
            Frame::StatusReport(report) => {
                put_u32(buf, report.process);
                put_u64(buf, report.frames);
                put_u64(buf, report.emissions);
                put_u64(buf, report.bytes);
                buf.push(report.done as u8);
                put_u32(buf, report.per_node.len() as u32);
                for d in &report.per_node {
                    d.node.encode(buf);
                    put_u64(buf, d.count);
                    put_u64(buf, d.hash);
                }
            }
        }
        let len = (buf.len() - len_at - 4) as u32;
        buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Decodes a frame from its post-length-prefix bytes (magic,
    /// version, tag, body).
    ///
    /// # Errors
    /// [`WireError::BadMagic`]/[`WireError::BadVersion`]/
    /// [`WireError::BadTag`] on header mismatch, the usual codec errors
    /// on a malformed body, [`WireError::TrailingBytes`] if the body is
    /// longer than the frame's content.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.u16()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let tag = r.u8()?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                process: r.u32()?,
                deployment: r.string()?,
            },
            TAG_EMISSION => Frame::Emission {
                group: GroupId::decode(&mut r)?,
                src: NodeId::decode(&mut r)?,
                nodes: Vec::<NodeId>::decode(&mut r)?,
                emission: Emission::decode(&mut r)?,
            },
            TAG_TUPLES => {
                let n = r.u32()? as usize;
                let mut tuples = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    tuples.push(Tuple::decode(&mut r)?);
                }
                Frame::Tuples(tuples)
            }
            TAG_FINISH => Frame::Finish,
            TAG_STATUS_REQUEST => Frame::StatusRequest,
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_STATUS_REPORT => {
                let process = r.u32()?;
                let frames = r.u64()?;
                let emissions = r.u64()?;
                let bytes = r.u64()?;
                let done = r.u8()? != 0;
                let n = r.u32()? as usize;
                let mut per_node = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    per_node.push(NodeDigest {
                        node: NodeId::decode(&mut r)?,
                        count: r.u64()?,
                        hash: r.u64()?,
                    });
                }
                Frame::StatusReport(SubscriberReport {
                    process,
                    frames,
                    emissions,
                    bytes,
                    done,
                    per_node,
                })
            }
            other => return Err(WireError::BadTag(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Appends a full [`Frame::Emission`] — length prefix, header, body —
/// to `buf` from borrowed parts, so the hot send path never builds the
/// owned enum (no `Vec<NodeId>`/`Emission` clone per peer frame).
/// Byte-identical to `Frame::Emission { .. }.encode_into(buf)`.
pub fn encode_emission_frame(
    buf: &mut Vec<u8>,
    group: GroupId,
    src: NodeId,
    nodes: &[NodeId],
    emission: &Emission,
) {
    let len_at = buf.len();
    put_u32(buf, 0); // patched below
    put_u16(buf, MAGIC);
    buf.push(VERSION);
    buf.push(TAG_EMISSION);
    group.encode(buf);
    src.encode(buf);
    put_u32(buf, nodes.len() as u32);
    for n in nodes {
        n.encode(buf);
    }
    emission.encode(buf);
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes one frame to a stream (buffered writers flush separately).
///
/// # Errors
/// [`WireError::Io`] when the write fails.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let mut buf = Vec::new();
    frame.encode_into(&mut buf);
    w.write_all(&buf)?;
    Ok(())
}

/// Reads one frame off a stream. Returns `Ok(None)` on clean EOF at a
/// frame boundary; EOF inside a frame is [`WireError::Truncated`].
///
/// # Errors
/// Header/body errors as in [`Frame::decode`]; [`WireError::Oversize`]
/// when the length prefix exceeds `max_frame`.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Frame>, WireError> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_frame {
        return Err(WireError::Oversize {
            len,
            max: max_frame,
        });
    }
    if len < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            have: len,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated {
                needed: len,
                have: 0,
            }
        } else {
            WireError::from(e)
        }
    })?;
    Frame::decode(&body).map(Some)
}

enum ReadOutcome {
    Full,
    Eof,
}

/// Fills `buf` fully, distinguishing clean EOF before the first byte
/// (frame boundary) from EOF mid-prefix (truncation).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(WireError::Truncated {
                    needed: buf.len(),
                    have: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_frames_round_trip_through_a_stream() {
        let frames = vec![
            Frame::Hello {
                process: 3,
                deployment: "local3".into(),
            },
            Frame::Finish,
            Frame::StatusRequest,
            Frame::StatusReport(SubscriberReport {
                process: 3,
                frames: 10,
                emissions: 8,
                bytes: 1234,
                done: true,
                per_node: vec![NodeDigest {
                    node: NodeId(2),
                    count: 8,
                    hash: 0xabc,
                }],
            }),
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = &wire[..];
        for f in &frames {
            let got = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(&got, f);
        }
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Finish).unwrap();
        let mut evil = wire.clone();
        evil[4] ^= 0xff; // corrupt magic
        assert!(matches!(
            read_frame(&mut &evil[..], DEFAULT_MAX_FRAME),
            Err(WireError::BadMagic(_))
        ));
        let mut future = wire.clone();
        future[6] = 99; // unsupported version
        assert!(matches!(
            read_frame(&mut &future[..], DEFAULT_MAX_FRAME),
            Err(WireError::BadVersion(99))
        ));
    }

    #[test]
    fn oversize_prefix_is_rejected_before_allocation() {
        let wire = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &wire[..], 1024),
            Err(WireError::Oversize { .. })
        ));
    }
}
