//! Framed binary codec for emissions and control messages.
//!
//! The serde shim in this workspace provides marker traits only (no wire
//! format), so the codec is hand-rolled on top of it: every wire type
//! implements [`WireEncode`]/[`WireDecode`] against a flat little-endian
//! layout. Frames are length-prefixed with a versioned header (see
//! [`frame`](crate::frame)); this module owns the *body* encoding.
//!
//! Layout rules (all integers little-endian):
//!
//! * `u8/u16/u32/u64` — raw LE bytes;
//! * `f64` — the IEEE-754 bit pattern via `to_bits`, so NaN payloads and
//!   signed zeros survive the round trip bit-for-bit;
//! * `String`/`str` — `u32` byte length + UTF-8 bytes;
//! * sequences — `u32` element count + elements;
//! * [`FilterSet`] — `u32` block count + the packed `u64` blocks
//!   straight out of [`FilterSet::blocks`], no per-id materialisation
//!   (decode re-trims, so equality is preserved);
//! * [`Tuple`] — `seq: u64`, `timestamp: u64`, values as a sequence;
//! * [`Emission`] — tuple + recipients + `emitted_at`;
//! * [`Delivery`] — latencies as a `(NodeId, u64)` sequence + the three
//!   byte/hop counters.
//!
//! Encoding appends to a caller-owned `Vec<u8>` (reused across sends on
//! the hot path, so steady-state encoding does not allocate); decoding
//! reads from a [`Reader`] cursor and fails loudly on truncation or
//! trailing bytes.

use gasf_core::bitset::FilterSet;
use gasf_core::engine::Emission;
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;
use gasf_net::{Delivery, GroupId, NodeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced while encoding, decoding or framing wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The frame header's magic bytes are wrong — not a GASF frame.
    BadMagic(u16),
    /// The frame's codec version is not supported by this build.
    BadVersion(u8),
    /// The frame tag does not name a known message kind.
    BadTag(u8),
    /// A declared length exceeds the configured maximum frame size.
    Oversize {
        /// Declared length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A frame body decoded fully but left unread bytes behind.
    TrailingBytes(usize),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An underlying socket/file operation failed.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::Oversize { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Io(msg) => write!(f, "i/o failure: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Borrowing cursor over a frame body.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Asserts the body was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Appends little-endian primitives to a byte buffer.
pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A type with a canonical byte-level wire encoding.
pub trait WireEncode {
    /// Appends the encoding to `buf` (no length prefix, no header).
    fn encode(&self, buf: &mut Vec<u8>);
}

/// The decode side of [`WireEncode`].
pub trait WireDecode: Sized {
    /// Reads one value off the cursor.
    ///
    /// # Errors
    /// [`WireError::Truncated`] and friends when the bytes do not form a
    /// valid value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl WireEncode for NodeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.0);
    }
}

impl WireDecode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.u32()?))
    }
}

impl WireEncode for GroupId {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.raw());
    }
}

impl WireDecode for GroupId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GroupId::from_raw(r.u64()?))
    }
}

impl WireEncode for Micros {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.0);
    }
}

impl WireDecode for Micros {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Micros(r.u64()?))
    }
}

impl WireEncode for FilterSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        let blocks = self.blocks();
        put_u32(buf, blocks.len() as u32);
        for &b in blocks {
            put_u64(buf, b);
        }
    }
}

impl WireDecode for FilterSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        let mut blocks = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            blocks.push(r.u64()?);
        }
        Ok(FilterSet::from_blocks(blocks))
    }
}

impl WireEncode for Tuple {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.seq());
        put_u64(buf, self.timestamp().0);
        let values = self.values();
        put_u32(buf, values.len() as u32);
        for &v in values {
            put_u64(buf, v.to_bits());
        }
    }
}

impl WireDecode for Tuple {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let seq = r.u64()?;
        let ts = Micros(r.u64()?);
        let n = r.u32()? as usize;
        let mut values = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            values.push(r.f64()?);
        }
        Ok(Tuple::from_wire(seq, ts, values))
    }
}

impl WireEncode for Emission {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tuple.encode(buf);
        self.recipients.encode(buf);
        self.emitted_at.encode(buf);
    }
}

impl WireDecode for Emission {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Emission {
            tuple: Arc::new(Tuple::decode(r)?),
            recipients: FilterSet::decode(r)?,
            emitted_at: Micros::decode(r)?,
        })
    }
}

impl WireEncode for Delivery {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.latencies.len() as u32);
        for (&node, &lat) in &self.latencies {
            node.encode(buf);
            lat.encode(buf);
        }
        put_u64(buf, self.bytes_on_wire);
        put_u64(buf, self.overlay_hops as u64);
        put_u64(buf, self.repair_bytes);
    }
}

impl WireDecode for Delivery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        let mut latencies = BTreeMap::new();
        for _ in 0..n {
            let node = NodeId::decode(r)?;
            let lat = Micros::decode(r)?;
            latencies.insert(node, lat);
        }
        Ok(Delivery {
            latencies,
            bytes_on_wire: r.u64()?,
            overlay_hops: r.u64()? as usize,
            repair_bytes: r.u64()?,
        })
    }
}

impl WireEncode for Vec<NodeId> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        for n in self {
            n.encode(buf);
        }
    }
}

impl WireDecode for Vec<NodeId> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        let mut nodes = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            nodes.push(NodeId::decode(r)?);
        }
        Ok(nodes)
    }
}

/// Digest of a per-node emission stream: hash each emission once, then
/// fold the hash into every recipient node's chain.
///
/// [`canon_hash`] reads an emission's canonical bytes once, eight at a
/// time; [`fold`](Self::fold) advances one node's chain by that hash in
/// O(1), so a send to many nodes hashes its bytes once.
/// [`update`](Self::update) is the two in one. Two nodes saw
/// byte-identical streams iff their `(count, hash)` pairs match (up to
/// 64-bit collisions; this is a witness, not a cryptographic hash). This
/// is the currency of the distributed-equivalence contract: the
/// in-process reference records digests through
/// [`Recorded`](crate::Recorded), the subscriber workers compute them
/// from decoded frames, and `gasfctl` compares.
///
/// The definition is not versioned: digests from builds with a different
/// definition do not compare. They only ever meet inside one deployment,
/// whose processes run one build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamDigest {
    /// Emissions folded in so far.
    pub count: u64,
    /// The chain over the emissions' [`canon_hash`]es.
    pub hash: u64,
}

/// Odd multiplier of the word step (2⁶⁴ / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 64-bit finaliser of MurmurHash3: a bijection, so two different
/// states stay different.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Hashes one emission's canonical bytes (see [`canonical_emission`]),
/// eight bytes per step, the length folded in first and a partial last
/// word zero-padded. Each step is a bijection of the state for a fixed
/// word and of the word for a fixed state, so inputs of one length that
/// differ in a single word — a flipped bit, say — always hash apart.
pub fn canon_hash(canon: &[u8]) -> u64 {
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut words = canon.chunks_exact(8);
    let mut h = (canon.len() as u64).wrapping_mul(K);
    for word in &mut words {
        h = step(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    mix(h)
}

impl StreamDigest {
    /// Folds one emission's [`canon_hash`] into the digest. The chain is
    /// a bijection of the previous state for a fixed hash and of the
    /// hash for a fixed state, so two streams of hashes that differ at a
    /// single position always digest apart.
    pub fn fold(&mut self, canon_hash: u64) {
        self.hash = mix(self.hash ^ canon_hash);
        self.count += 1;
    }

    /// Folds one emission's canonical bytes into the digest:
    /// `fold(canon_hash(canon))`.
    pub fn update(&mut self, canon: &[u8]) {
        self.fold(canon_hash(canon));
    }
}

/// Encodes the canonical per-node bytes of one emission send —
/// `(group, src, emission)` — into `buf` (clearing it first). Both the
/// recording reference and the receiving workers hash exactly these
/// bytes, so the comparison is over the codec's own canonical form.
pub fn canonical_emission(buf: &mut Vec<u8>, group: GroupId, src: NodeId, emission: &Emission) {
    buf.clear();
    group.encode(buf);
    src.encode(buf);
    emission.encode(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasf_core::candidate::FilterId;
    use gasf_core::schema::Schema;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        NodeId(7).encode(&mut buf);
        GroupId::from_raw(0xdead_beef).encode(&mut buf);
        Micros(123_456).encode(&mut buf);
        put_str(&mut buf, "hello");
        let mut r = Reader::new(&buf);
        assert_eq!(NodeId::decode(&mut r).unwrap(), NodeId(7));
        assert_eq!(GroupId::decode(&mut r).unwrap().raw(), 0xdead_beef);
        assert_eq!(Micros::decode(&mut r).unwrap(), Micros(123_456));
        assert_eq!(r.string().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_loud() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn emission_round_trips_with_nan_values() {
        let schema = Schema::new(["a", "b", "c"]);
        let tuple = Tuple::new(&schema, 9, Micros(77), vec![1.5, f64::NAN, -0.0]).unwrap();
        let recipients: FilterSet = [0usize, 2, 70]
            .into_iter()
            .map(FilterId::from_index)
            .collect();
        let e = Emission {
            tuple: Arc::new(tuple),
            recipients,
            emitted_at: Micros(80),
        };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = Emission::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.recipients, e.recipients);
        assert_eq!(back.emitted_at, e.emitted_at);
        assert_eq!(back.tuple.seq(), 9);
        // Bit-for-bit: NaN and -0.0 must survive.
        let orig: Vec<u64> = e.tuple.values().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = back.tuple.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(orig, got);
    }

    #[test]
    fn digest_distinguishes_stream_boundaries() {
        let mut a = StreamDigest::default();
        a.update(b"xy");
        a.update(b"z");
        let mut b = StreamDigest::default();
        b.update(b"x");
        b.update(b"yz");
        assert_ne!(a.hash, b.hash, "chaining must break concat ambiguity");
        assert_eq!(a.count, b.count);
    }

    /// The digest of a fixed two-emission stream, pinned: a change to the
    /// hash or the chain must change this value on purpose.
    #[test]
    fn golden_stream_digest() {
        let schema = Schema::new(["a", "b"]);
        let mut digest = StreamDigest::default();
        let mut canon = Vec::new();
        for (seq, labels) in [(3u64, &[0usize, 5][..]), (4, &[70])] {
            let values = vec![seq as f64 * 1.5, -(seq as f64)];
            let tuple = Tuple::new(&schema, seq, Micros(seq * 1000), values).unwrap();
            let e = Emission {
                tuple: Arc::new(tuple),
                recipients: labels.iter().map(|&i| FilterId::from_index(i)).collect(),
                emitted_at: Micros(seq * 1000 + 7),
            };
            canonical_emission(&mut canon, GroupId::from_raw(42), NodeId(1), &e);
            digest.update(&canon);
        }
        assert_eq!(digest.count, 2);
        assert_eq!(
            digest.hash, 0x9b45_1477_e204_cb07,
            "got {:#018x}",
            digest.hash
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `update` is `fold` over `canon_hash`, so a sender that hashes
        /// once and folds per node digests what a receiver updating per
        /// node does.
        #[test]
        fn update_is_fold_of_canon_hash(
            stream in collection::vec(bytes(0..300), 1..6),
        ) {
            let (mut updated, mut folded) = (StreamDigest::default(), StreamDigest::default());
            for canon in &stream {
                updated.update(canon);
                folded.fold(canon_hash(canon));
            }
            prop_assert_eq!(updated, folded);
        }

        /// Flipping any one bit, or inserting or removing one byte
        /// anywhere, changes the hash, at every length across the
        /// partial-word tail. Every position of each input is tried.
        #[test]
        fn canon_hash_sees_every_bit_and_the_length(
            canon in bytes(0..301),
            byte in 0u16..256,
        ) {
            let h = canon_hash(&canon);
            // A zero byte too: a zero-padded tail word must not hide it.
            for b in [0, byte as u8] {
                for at in 0..=canon.len() {
                    let mut longer = canon.clone();
                    longer.insert(at, b);
                    prop_assert!(canon_hash(&longer) != h, "inserted {b} at {at} of {}", canon.len());
                }
            }
            for at in 0..canon.len() {
                let mut shorter = canon.clone();
                shorter.remove(at);
                prop_assert!(canon_hash(&shorter) != h, "removed {at} of {}", canon.len());
                let mut flipped = canon.clone();
                for bit in 0..8 {
                    flipped[at] ^= 1 << bit;
                    prop_assert!(canon_hash(&flipped) != h, "bit {bit} of byte {at}");
                    flipped[at] ^= 1 << bit;
                }
            }
        }
    }

    /// Byte strings with a length drawn from `len`.
    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        collection::vec((0u16..256).prop_map(|b| b as u8), len)
    }
}
