//! Event time: watermarks, bounded-disorder reordering and windowed
//! aggregation.
//!
//! Every engine in this crate consumes an **ordered** stream: dense
//! sequence numbers and non-decreasing timestamps (the paper's §2.2.1
//! source-side timestamps). Real sensor deployments — buoys behind lossy
//! radio links, seismometer relays, cow-mounted nodes — deliver tuples
//! *out of order*, so this module provides the seam that turns an
//! event-time-disordered arrival stream back into the ordered stream the
//! whole filtering machinery (compiled rosters, columnar batches,
//! sharding, checkpoints) already handles:
//!
//! * [`Watermark`] — per-source low-watermark tracking under a bounded
//!   disorder assumption: after seeing an arrival with event timestamp
//!   `t`, no future arrival may carry a timestamp below `t − bound`.
//! * [`ReorderBuffer`] — sits **ahead** of the engine (and ahead of
//!   `push_batch_columnar`), holding arrivals until the watermark passes
//!   them, then releasing in `(timestamp, source seq)` order with fresh
//!   dense sequence numbers. Downstream of the buffer nothing changes.
//! * [`LatePolicy`] — what happens to a tuple that arrives *after* the
//!   watermark already passed its timestamp: count-and-[`Drop`]
//!   (`LatePolicy::Drop`) or surface it as a flagged correction
//!   ([`LatePolicy::EmitPatch`] → [`LateTuple`]).
//! * [`WindowFilter`] — the windowed-aggregation branch of the filter
//!   taxonomy (tumbling + sliding windows; min/max/mean/count
//!   aggregators) whose windows close at **watermark advancement**, not
//!   arrival order.
//!
//! # The determinism contract
//!
//! *Byte-identical emissions given equal watermark schedules.* The
//! watermark schedule is a pure function of the arrival sequence, the
//! buffer releases in a total order (`(event timestamp, source sequence
//! number)` — the tiebreak that makes equal timestamps legal), and
//! released tuples are re-sequenced densely in release order. Two
//! consequences, pinned by `tests/disorder_equivalence.rs`:
//!
//! 1. a disordered arrival stream whose displacement stays within
//!    `bound` releases **exactly** the pre-sorted stream, so engine
//!    emissions are byte-identical to filtering the sorted trace, and
//! 2. an already-ordered stream passes through any buffer (including the
//!    trivial `bound = 0` watermark) unchanged — same tuples, same
//!    sequence numbers — so the event-time seam costs nothing in
//!    equivalence when disorder never happens.
//!
//! The buffer's full state ([`ReorderSnapshot`]) serializes next to the
//! engine's [`GroupSnapshot`](crate::snapshot::GroupSnapshot), so a
//! checkpoint/restore hop mid-stream carries the watermark and the
//! buffered suffix with it.

use crate::cuts::RuntimePredictor;
use crate::schema::AttrId;
use crate::time::Micros;
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What to do with a tuple whose event timestamp is already below the
/// watermark when it arrives (the watermark passed it; its slot in the
/// ordered stream has been released).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Count it ([`ReorderBuffer::late_dropped`]) and discard it.
    Drop,
    /// Surface it as a flagged correction ([`LateTuple`]) so the caller
    /// can disseminate a patch out-of-band of the ordered stream.
    EmitPatch,
}

/// Event-time configuration for one source: the disorder bound its
/// watermark assumes and the late-tuple policy applied at the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTimeConfig {
    /// Maximum event-time displacement an arrival may have (the bounded
    /// disorder assumption). `Micros::ZERO` means "already ordered".
    pub bound: Micros,
    /// Policy for tuples that violate the bound.
    pub late: LatePolicy,
}

impl EventTimeConfig {
    /// A config with the given bound and the counting [`LatePolicy::Drop`].
    pub fn bounded(bound: Micros) -> Self {
        EventTimeConfig {
            bound,
            late: LatePolicy::Drop,
        }
    }

    /// Replaces the late policy.
    pub fn late(mut self, late: LatePolicy) -> Self {
        self.late = late;
        self
    }
}

/// Per-source low-watermark tracker under bounded disorder.
///
/// After observing an arrival with event timestamp `t`, the watermark is
/// `max_seen − bound`: the promise that no future arrival carries a
/// timestamp **below** it. Tuples with `timestamp < watermark` can be
/// released (every equal-timestamp peer must already have arrived);
/// tuples *arriving* below the watermark are late.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Watermark {
    bound: Micros,
    max_seen: Option<Micros>,
}

impl Watermark {
    /// A watermark assuming at most `bound` of event-time displacement.
    pub fn new(bound: Micros) -> Self {
        Watermark {
            bound,
            max_seen: None,
        }
    }

    /// The disorder bound.
    pub fn bound(&self) -> Micros {
        self.bound
    }

    /// Highest event timestamp observed so far.
    pub fn max_seen(&self) -> Option<Micros> {
        self.max_seen
    }

    /// Folds one arrival's event timestamp into the frontier.
    pub fn observe(&mut self, ts: Micros) {
        self.max_seen = Some(self.max_seen.map_or(ts, |m| m.max(ts)));
    }

    /// The current watermark (`max_seen − bound`), or `None` before any
    /// observation.
    pub fn current(&self) -> Option<Micros> {
        self.max_seen.map(|m| m.saturating_sub(self.bound))
    }
}

/// A tuple that arrived after the watermark passed its timestamp, handed
/// back by [`ReorderBuffer::push_into`] under [`LatePolicy::EmitPatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct LateTuple {
    /// The late tuple, unmodified (it keeps its source sequence number —
    /// that is what identifies the stream position it corrects).
    pub tuple: Tuple,
    /// How far behind the watermark it arrived.
    pub late_by: Micros,
}

/// Outcome of pushing a late arrival, per the buffer's [`LatePolicy`].
#[derive(Debug, Clone, PartialEq)]
pub enum LateOutcome {
    /// The tuple was counted and discarded ([`LatePolicy::Drop`]).
    Dropped,
    /// The tuple should be disseminated as a flagged correction
    /// ([`LatePolicy::EmitPatch`]).
    Patch(LateTuple),
}

/// One buffered tuple in serialized form (see [`ReorderSnapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferedRow {
    /// Source-assigned sequence number (the sort tiebreak).
    pub seq: u64,
    /// Event timestamp.
    pub ts: Micros,
    /// Payload values (NaN marks absent slots, as in [`Tuple`]).
    pub values: Vec<f64>,
}

/// Serialized [`ReorderBuffer`] state: watermark frontier, release
/// cursor, late accounting and the still-buffered suffix. Captured by
/// [`ReorderBuffer::snapshot`] and rebuilt by [`ReorderBuffer::restore`],
/// it is what lets a checkpoint/restore hop mid-disordered-stream
/// continue byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReorderSnapshot {
    bound: Micros,
    late: LatePolicy,
    max_seen: Option<Micros>,
    next_seq: u64,
    late_dropped: u64,
    patches: u64,
    pending: Vec<BufferedRow>,
}

/// Bounded-disorder reorder buffer: the event-time front door of every
/// engine.
///
/// Arrivals carry their *source* sequence numbers (dense in event order,
/// the deterministic tiebreak for equal timestamps) and may be disordered
/// by at most the watermark's bound. The buffer holds them in a
/// `(timestamp, seq)`-ordered map and releases a prefix every time the
/// watermark advances past it; released tuples are re-sequenced densely
/// in release order, so downstream consumers see exactly the ordered
/// stream contract (`GroupEngine::push_into` / `push_batch_columnar`) they
/// always had.
///
/// ```rust
/// use gasf_core::event_time::{EventTimeConfig, ReorderBuffer};
/// use gasf_core::schema::Schema;
/// use gasf_core::time::Micros;
/// use gasf_core::tuple::series;
///
/// let schema = Schema::new(["t"]);
/// let tuples = series(&schema, "t", &[(10, 1.0), (20, 2.0), (30, 3.0)]);
/// let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(Micros::from_millis(15)));
/// let mut released = Vec::new();
/// // Arrivals disordered within the bound: 20ms, 10ms, 30ms.
/// for t in [&tuples[1], &tuples[0], &tuples[2]] {
///     assert!(buf.push_into(t.clone(), &mut released).is_none());
/// }
/// buf.flush_into(&mut released);
/// // Released in event order, re-sequenced densely — the sorted stream.
/// assert_eq!(released, tuples);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    watermark: Watermark,
    late: LatePolicy,
    /// Buffered arrivals in `(event timestamp, source seq)` order — the
    /// total release order.
    pending: BTreeMap<(Micros, u64), Tuple>,
    /// Next dense sequence number to assign on release.
    next_seq: u64,
    late_dropped: u64,
    patches: u64,
}

impl ReorderBuffer {
    /// A buffer with the given event-time configuration.
    pub fn new(config: EventTimeConfig) -> Self {
        ReorderBuffer {
            watermark: Watermark::new(config.bound),
            late: config.late,
            pending: BTreeMap::new(),
            next_seq: 0,
            late_dropped: 0,
            patches: 0,
        }
    }

    /// The buffer's watermark.
    pub fn watermark(&self) -> &Watermark {
        &self.watermark
    }

    /// Tuples currently held back waiting for the watermark.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Late tuples counted and discarded ([`LatePolicy::Drop`]).
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Late tuples surfaced as corrections ([`LatePolicy::EmitPatch`]).
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// The next sequence number the release path will assign — i.e. how
    /// many tuples have been released so far.
    pub fn released(&self) -> u64 {
        self.next_seq
    }

    /// Accepts one arrival, appending any now-releasable prefix (in
    /// `(timestamp, seq)` order, re-sequenced densely) to `released`.
    ///
    /// Returns `Some` when the arrival was late — already counted and
    /// discarded under [`LatePolicy::Drop`], or wrapped as a
    /// [`LateTuple`] correction under [`LatePolicy::EmitPatch`]. Source
    /// `(timestamp, seq)` pairs must be unique; pushing a duplicate
    /// replaces the buffered twin (debug builds assert).
    pub fn push_into(&mut self, tuple: Tuple, released: &mut Vec<Tuple>) -> Option<LateOutcome> {
        let ts = tuple.timestamp();
        if let Some(w) = self.watermark.current() {
            if ts < w {
                return Some(self.on_late(tuple, w.saturating_sub(ts)));
            }
        }
        self.watermark.observe(ts);
        let evicted = self.pending.insert((ts, tuple.seq()), tuple);
        debug_assert!(evicted.is_none(), "duplicate (timestamp, seq) arrival");
        self.release_ready(released);
        None
    }

    /// End of stream: releases everything still buffered, in order.
    pub fn flush_into(&mut self, released: &mut Vec<Tuple>) {
        while let Some(entry) = self.pending.pop_first() {
            self.release(entry.1, released);
        }
    }

    /// Captures the buffer's full state at the current position.
    pub fn snapshot(&self) -> ReorderSnapshot {
        ReorderSnapshot {
            bound: self.watermark.bound(),
            late: self.late,
            max_seen: self.watermark.max_seen(),
            next_seq: self.next_seq,
            late_dropped: self.late_dropped,
            patches: self.patches,
            pending: self
                .pending
                .values()
                .map(|t| BufferedRow {
                    seq: t.seq(),
                    ts: t.timestamp(),
                    values: t.values().to_vec(),
                })
                .collect(),
        }
    }

    /// Rebuilds a buffer from a [`snapshot`](Self::snapshot), continuing
    /// the stream byte-identically.
    pub fn restore(snap: &ReorderSnapshot) -> Self {
        let mut watermark = Watermark::new(snap.bound);
        if let Some(m) = snap.max_seen {
            watermark.observe(m);
        }
        ReorderBuffer {
            watermark,
            late: snap.late,
            pending: snap
                .pending
                .iter()
                .map(|r| {
                    (
                        (r.ts, r.seq),
                        Tuple::from_wire(r.seq, r.ts, r.values.as_slice()),
                    )
                })
                .collect(),
            next_seq: snap.next_seq,
            late_dropped: snap.late_dropped,
            patches: snap.patches,
        }
    }

    fn on_late(&mut self, tuple: Tuple, late_by: Micros) -> LateOutcome {
        match self.late {
            LatePolicy::Drop => {
                self.late_dropped += 1;
                LateOutcome::Dropped
            }
            LatePolicy::EmitPatch => {
                self.patches += 1;
                LateOutcome::Patch(LateTuple { tuple, late_by })
            }
        }
    }

    fn release_ready(&mut self, released: &mut Vec<Tuple>) {
        let Some(w) = self.watermark.current() else {
            return;
        };
        // Strictly-below release rule: a tuple with `ts == watermark` may
        // still gain equal-timestamp peers (the tiebreak sort needs them
        // all), so it is held until the watermark moves past it.
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 >= w {
                break;
            }
            let tuple = entry.remove();
            self.release(tuple, released);
        }
    }

    fn release(&mut self, tuple: Tuple, released: &mut Vec<Tuple>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        released.push(if tuple.seq() == seq {
            tuple
        } else {
            tuple.with_seq(seq)
        });
    }
}

/// Window shape of a [`WindowFilter`]: the WA branch of the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowKind {
    /// Contiguous fixed-size windows `[k·size, (k+1)·size)`.
    Tumbling {
        /// Window length in event time.
        size: Micros,
    },
    /// Overlapping windows `[k·slide, k·slide + size)`.
    Sliding {
        /// Window length in event time.
        size: Micros,
        /// Offset between consecutive window starts.
        slide: Micros,
    },
}

impl WindowKind {
    fn size(&self) -> Micros {
        match *self {
            WindowKind::Tumbling { size } | WindowKind::Sliding { size, .. } => size,
        }
    }

    fn slide(&self) -> Micros {
        match *self {
            WindowKind::Tumbling { size } => size,
            WindowKind::Sliding { slide, .. } => slide,
        }
    }
}

/// Aggregation function applied over one window's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregate {
    /// Smallest value in the window.
    Min,
    /// Largest value in the window.
    Max,
    /// Arithmetic mean of the window.
    Mean,
    /// Number of (non-absent) values in the window.
    Count,
}

/// One closed window's result.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutput {
    /// Window start (inclusive, event time).
    pub start: Micros,
    /// Window end (exclusive, event time).
    pub end: Micros,
    /// The aggregate value.
    pub value: f64,
    /// Values that fell into the window.
    pub count: u64,
}

/// Per-open-window accumulator (constant space per window regardless of
/// how many tuples fall into it).
#[derive(Debug, Clone, Copy)]
struct WindowAcc {
    min: f64,
    max: f64,
    sum: f64,
    count: u64,
}

impl WindowAcc {
    fn new(v: f64) -> Self {
        WindowAcc {
            min: v,
            max: v,
            sum: v,
            count: 1,
        }
    }

    fn fold(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
    }

    fn value(&self, agg: Aggregate) -> f64 {
        match agg {
            Aggregate::Min => self.min,
            Aggregate::Max => self.max,
            Aggregate::Mean => self.sum / self.count as f64,
            Aggregate::Count => self.count as f64,
        }
    }
}

/// Windowed aggregation over one attribute of the *released* (ordered)
/// stream, closing windows at watermark advancement.
///
/// This is the event-time branch of the filter taxonomy: where DC1–DC3
/// forward a subset of the stream's tuples, a window filter summarises
/// event-time intervals of it — and because a window only closes once the
/// watermark proves no further tuple can land in it, the results are a
/// pure function of the watermark schedule, never of arrival order.
///
/// Feed it released tuples via [`observe`](Self::observe), advance it
/// with the buffer's watermark ([`advance_into`](Self::advance_into)) and
/// close the tail at end of stream with [`finish_into`](Self::finish_into).
/// Window-close cost is observed into a [`RuntimePredictor`] (the same
/// online regression the timely-cut machinery uses), so callers can ask
/// [`predicted_close_us`](Self::predicted_close_us) what a pending close
/// will cost before scheduling it.
#[derive(Debug, Clone)]
pub struct WindowFilter {
    attr: AttrId,
    kind: WindowKind,
    agg: Aggregate,
    /// Open windows by start timestamp; every open window holds at least
    /// one value (empty windows are never materialised).
    open: BTreeMap<Micros, WindowAcc>,
    predictor: RuntimePredictor,
}

impl WindowFilter {
    /// A window filter over `attr`.
    ///
    /// # Panics
    /// Panics if the window size or slide is zero.
    pub fn new(attr: AttrId, kind: WindowKind, agg: Aggregate) -> Self {
        assert!(kind.size() > Micros::ZERO, "window size must be positive");
        assert!(kind.slide() > Micros::ZERO, "window slide must be positive");
        WindowFilter {
            attr,
            kind,
            agg,
            open: BTreeMap::new(),
            predictor: RuntimePredictor::new(),
        }
    }

    /// The attribute this filter aggregates.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// The window shape.
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// The aggregation function.
    pub fn aggregate(&self) -> Aggregate {
        self.agg
    }

    /// Folds one released tuple into every window containing its
    /// timestamp. Tuples without a value for the attribute are skipped
    /// (NaN "absent" slots never contribute).
    pub fn observe(&mut self, tuple: &Tuple) {
        let Some(v) = tuple.get(self.attr) else {
            return;
        };
        let ts = tuple.timestamp().as_micros();
        let size = self.kind.size().as_micros();
        let slide = self.kind.slide().as_micros();
        let hi = ts / slide;
        let lo = if ts >= size {
            (ts - size) / slide + 1
        } else {
            0
        };
        for k in lo..=hi {
            let start = Micros(k * slide);
            self.open
                .entry(start)
                .and_modify(|acc| acc.fold(v))
                .or_insert_with(|| WindowAcc::new(v));
        }
    }

    /// Closes every open window whose end lies at or below `watermark`,
    /// appending results in start order. The close cost is observed into
    /// the filter's [`RuntimePredictor`].
    pub fn advance_into(&mut self, watermark: Micros, out: &mut Vec<WindowOutput>) {
        let started = std::time::Instant::now();
        let mut closed_values = 0usize;
        while let Some(entry) = self.open.first_entry() {
            let start = *entry.key();
            let Some(end) = start.checked_add(self.kind.size()) else {
                break;
            };
            if end > watermark {
                break;
            }
            let acc = entry.remove();
            closed_values += acc.count as usize;
            out.push(WindowOutput {
                start,
                end,
                value: acc.value(self.agg),
                count: acc.count,
            });
        }
        if closed_values > 0 {
            self.predictor.observe(
                closed_values,
                Micros(started.elapsed().as_micros().min(u64::MAX as u128) as u64),
            );
        }
    }

    /// End of stream: closes all remaining windows in start order.
    pub fn finish_into(&mut self, out: &mut Vec<WindowOutput>) {
        self.advance_into(Micros::MAX, out);
        // Micros::MAX may not be expressible as `start + size`; drain the
        // remainder explicitly.
        while let Some(entry) = self.open.first_entry() {
            let start = *entry.key();
            let acc = entry.remove();
            out.push(WindowOutput {
                start,
                end: start.checked_add(self.kind.size()).unwrap_or(Micros::MAX),
                value: acc.value(self.agg),
                count: acc.count,
            });
        }
    }

    /// Predicted cost (microseconds) of closing windows totalling
    /// `values` buffered values — the watermark-driven window scheduler's
    /// view into [`RuntimePredictor::predict_us`].
    pub fn predicted_close_us(&self, values: usize) -> f64 {
        self.predictor.predict_us(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::series;

    fn tuples(points: &[(u64, f64)]) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(["t"]);
        let t = series(&schema, "t", points);
        (schema, t)
    }

    #[test]
    fn in_order_stream_passes_through_unchanged() {
        let (_, tuples) = tuples(&[(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0)]);
        for bound in [0u64, 5, 1000] {
            let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(Micros::from_millis(bound)));
            let mut out = Vec::new();
            for t in &tuples {
                assert!(buf.push_into(t.clone(), &mut out).is_none());
            }
            buf.flush_into(&mut out);
            assert_eq!(out, tuples, "bound {bound}ms");
            assert_eq!(buf.late_dropped(), 0);
        }
    }

    #[test]
    fn bounded_disorder_releases_the_sorted_stream() {
        let (_, tuples) = tuples(&[(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0), (50, 5.0)]);
        // Arrival order displaced by up to 20 ms.
        let arrival = [2usize, 0, 1, 4, 3];
        let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(Micros::from_millis(20)));
        let mut out = Vec::new();
        for &i in &arrival {
            assert!(buf.push_into(tuples[i].clone(), &mut out).is_none());
        }
        buf.flush_into(&mut out);
        assert_eq!(out, tuples);
        assert_eq!(buf.released(), 5);
    }

    #[test]
    fn equal_timestamps_release_in_seq_order() {
        let mk =
            |seq: u64, ms: u64, v: f64| Tuple::from_wire(seq, Micros::from_millis(ms), vec![v]);
        let sorted = vec![
            mk(0, 10, 1.0),
            mk(1, 10, 2.0),
            mk(2, 10, 3.0),
            mk(3, 30, 4.0),
        ];
        let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(Micros::from_millis(10)));
        let mut out = Vec::new();
        for i in [1usize, 2, 0, 3] {
            assert!(buf.push_into(sorted[i].clone(), &mut out).is_none());
        }
        buf.flush_into(&mut out);
        assert_eq!(out, sorted, "(ts, seq) is the total release order");
    }

    #[test]
    fn late_tuple_is_dropped_and_counted() {
        let (_, tuples) = tuples(&[(10, 1.0), (100, 2.0)]);
        let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(Micros::from_millis(20)));
        let mut out = Vec::new();
        assert!(buf.push_into(tuples[1].clone(), &mut out).is_none());
        // Watermark is now 80 ms; a 10 ms arrival is 70 ms late.
        let outcome = buf.push_into(tuples[0].clone(), &mut out);
        assert_eq!(outcome, Some(LateOutcome::Dropped));
        assert_eq!(buf.late_dropped(), 1);
        assert_eq!(buf.patches(), 0);
        buf.flush_into(&mut out);
        assert_eq!(out, vec![tuples[1].with_seq(0)]);
    }

    #[test]
    fn late_tuple_surfaces_as_patch_under_emit_patch() {
        let (_, tuples) = tuples(&[(10, 1.0), (100, 2.0)]);
        let cfg = EventTimeConfig::bounded(Micros::from_millis(20)).late(LatePolicy::EmitPatch);
        let mut buf = ReorderBuffer::new(cfg);
        let mut out = Vec::new();
        assert!(buf.push_into(tuples[1].clone(), &mut out).is_none());
        match buf.push_into(tuples[0].clone(), &mut out) {
            Some(LateOutcome::Patch(late)) => {
                assert_eq!(late.tuple, tuples[0]);
                assert_eq!(late.late_by, Micros::from_millis(70));
            }
            other => panic!("expected a patch, got {other:?}"),
        }
        assert_eq!(buf.patches(), 1);
        assert_eq!(buf.late_dropped(), 0);
    }

    #[test]
    fn watermark_held_tuples_wait_for_equal_ts_peers() {
        // bound 0: a tuple at the watermark is NOT released until the
        // watermark moves past its timestamp (equal-ts peers may follow).
        let (_, tuples) = tuples(&[(10, 1.0), (20, 2.0)]);
        let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(Micros::ZERO));
        let mut out = Vec::new();
        buf.push_into(tuples[0].clone(), &mut out);
        assert!(out.is_empty(), "held at the watermark");
        assert_eq!(buf.buffered(), 1);
        buf.push_into(tuples[1].clone(), &mut out);
        assert_eq!(out, vec![tuples[0].clone()]);
        buf.flush_into(&mut out);
        assert_eq!(out, tuples);
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        let (_, tuples) = tuples(&[
            (10, 1.0),
            (20, 2.0),
            (30, 3.0),
            (40, 4.0),
            (50, 5.0),
            (60, 6.0),
        ]);
        let arrival = [1usize, 0, 3, 2, 5, 4];
        let bound = Micros::from_millis(25);

        let mut reference = Vec::new();
        let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(bound));
        for &i in &arrival {
            buf.push_into(tuples[i].clone(), &mut reference);
        }
        buf.flush_into(&mut reference);

        let mut hopped = Vec::new();
        let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(bound));
        for (n, &i) in arrival.iter().enumerate() {
            if n == 3 {
                let snap = buf.snapshot();
                buf = ReorderBuffer::restore(&snap);
            }
            buf.push_into(tuples[i].clone(), &mut hopped);
        }
        buf.flush_into(&mut hopped);
        assert_eq!(hopped, reference);
        assert_eq!(reference, tuples);
    }

    #[test]
    fn snapshot_carries_late_accounting() {
        let (_, tuples) = tuples(&[(10, 1.0), (200, 2.0)]);
        let mut buf = ReorderBuffer::new(EventTimeConfig::bounded(Micros::from_millis(20)));
        let mut out = Vec::new();
        buf.push_into(tuples[1].clone(), &mut out);
        buf.push_into(tuples[0].clone(), &mut out);
        assert_eq!(buf.late_dropped(), 1);
        let restored = ReorderBuffer::restore(&buf.snapshot());
        assert_eq!(restored.late_dropped(), 1);
        assert_eq!(restored.buffered(), buf.buffered());
        assert_eq!(restored.watermark().current(), buf.watermark().current());
    }

    fn window_oracle(points: &[(u64, f64)], kind: WindowKind, agg: Aggregate) -> Vec<WindowOutput> {
        let size = kind.size().as_micros();
        let slide = kind.slide().as_micros();
        let mut out = Vec::new();
        let max_ts = points.iter().map(|&(ms, _)| ms * 1000).max().unwrap_or(0);
        let mut start = 0u64;
        while start <= max_ts {
            let vals: Vec<f64> = points
                .iter()
                .filter(|&&(ms, _)| {
                    let ts = ms * 1000;
                    ts >= start && ts < start + size
                })
                .map(|&(_, v)| v)
                .collect();
            if !vals.is_empty() {
                let value = match agg {
                    Aggregate::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
                    Aggregate::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    Aggregate::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
                    Aggregate::Count => vals.len() as f64,
                };
                out.push(WindowOutput {
                    start: Micros(start),
                    end: Micros(start + size),
                    value,
                    count: vals.len() as u64,
                });
            }
            start += slide;
        }
        out
    }

    #[test]
    fn tumbling_windows_match_the_oracle() {
        let points = [(5u64, 2.0), (12, 4.0), (18, 6.0), (25, 8.0), (39, 1.0)];
        let (schema, tuples) = tuples(&points);
        let attr = schema.attr("t").unwrap();
        let kind = WindowKind::Tumbling {
            size: Micros::from_millis(10),
        };
        for agg in [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Mean,
            Aggregate::Count,
        ] {
            let mut wf = WindowFilter::new(attr, kind, agg);
            let mut out = Vec::new();
            for t in &tuples {
                wf.observe(t);
            }
            wf.finish_into(&mut out);
            assert_eq!(out, window_oracle(&points, kind, agg), "{agg:?}");
        }
    }

    #[test]
    fn sliding_windows_match_the_oracle() {
        let points = [(5u64, 2.0), (12, 4.0), (18, 6.0), (25, 8.0), (39, 1.0)];
        let (schema, tuples) = tuples(&points);
        let attr = schema.attr("t").unwrap();
        let kind = WindowKind::Sliding {
            size: Micros::from_millis(20),
            slide: Micros::from_millis(5),
        };
        let mut wf = WindowFilter::new(attr, kind, Aggregate::Mean);
        let mut out = Vec::new();
        for t in &tuples {
            wf.observe(t);
        }
        wf.finish_into(&mut out);
        assert_eq!(out, window_oracle(&points, kind, Aggregate::Mean));
    }

    #[test]
    fn windows_close_only_when_the_watermark_passes_them() {
        let points = [(5u64, 2.0), (12, 4.0), (25, 8.0)];
        let (schema, tuples) = tuples(&points);
        let attr = schema.attr("t").unwrap();
        let kind = WindowKind::Tumbling {
            size: Micros::from_millis(10),
        };
        let mut wf = WindowFilter::new(attr, kind, Aggregate::Max);
        let mut out = Vec::new();
        wf.observe(&tuples[0]);
        wf.advance_into(Micros::from_millis(9), &mut out);
        assert!(out.is_empty(), "watermark below the window end");
        wf.advance_into(Micros::from_millis(10), &mut out);
        assert_eq!(out.len(), 1, "end == watermark closes");
        wf.observe(&tuples[1]);
        wf.observe(&tuples[2]);
        wf.finish_into(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].value, 2.0);
        assert_eq!(out[1].value, 4.0);
        assert_eq!(out[2].value, 8.0);
    }

    #[test]
    fn window_close_feeds_the_runtime_predictor() {
        let points: Vec<(u64, f64)> = (0..40).map(|i| (i * 5, i as f64)).collect();
        let (schema, tuples) = tuples(&points);
        let attr = schema.attr("t").unwrap();
        let mut wf = WindowFilter::new(
            attr,
            WindowKind::Tumbling {
                size: Micros::from_millis(20),
            },
            Aggregate::Mean,
        );
        let mut out = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            wf.observe(t);
            if i % 8 == 7 {
                wf.advance_into(t.timestamp(), &mut out);
            }
        }
        wf.finish_into(&mut out);
        assert!(wf.predicted_close_us(10) >= 0.0);
        assert!(!out.is_empty());
    }

    #[test]
    fn absent_values_never_contribute() {
        let schema = Schema::new(["a", "b"]);
        let mut b = crate::tuple::TupleBuilder::new(&schema);
        let t0 = b.at_millis(5).set("a", 1.0).build().unwrap(); // b absent
        let t1 = b.at_millis(6).set("a", 2.0).set("b", 9.0).build().unwrap();
        let attr = schema.attr("b").unwrap();
        let mut wf = WindowFilter::new(
            attr,
            WindowKind::Tumbling {
                size: Micros::from_millis(10),
            },
            Aggregate::Count,
        );
        wf.observe(&t0);
        wf.observe(&t1);
        let mut out = Vec::new();
        wf.finish_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 1, "absent slot skipped");
    }
}
