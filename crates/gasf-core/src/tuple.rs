//! Stream tuples, their interned identities and the engine's tuple pool.
//!
//! "A tuple consists of a collection of attribute-value pairs … all tuples
//! are timestamped at the originating sources" (§2.2.1). Values are `f64`
//! aligned to the stream's [`Schema`]; an absent value is `NaN` and filters
//! reject tuples missing the attributes they need.
//!
//! ## Interned identities
//!
//! The selection hot path (candidate sets, hitting set, regions) never
//! moves tuple payloads around. Each tuple entering an engine is *interned*
//! once into a [`TuplePool`], which owns the payload behind an
//! `Arc<Tuple>` and hands out a [`TupleId`] — a copyable `u64` newtype
//! over the stream sequence number. Everything downstream (candidate
//! membership, utilities, greedy choices, pending emissions) carries
//! `TupleId`s and only resolves back to the payload at emission time.
//!
//! **Invariants:**
//! * a `TupleId` is stable for the whole lifetime of the region that
//!   references it — the pool never reuses or renumbers ids, and region
//!   cleanup is the only thing that releases them;
//! * ids are strictly increasing in stream order (they mirror the source
//!   sequence numbers the engine already requires to be contiguous), so
//!   `TupleId` order *is* arrival order, which the solvers' freshest-tie-
//!   break rule relies on;
//! * the pool's storage is a dense ring: lookup and release are O(1), and
//!   memory stays bounded by the live window (the region span), not the
//!   stream length.

use crate::batch::TupleBatch;
use crate::error::Error;
use crate::schema::{AttrId, Schema};
use crate::seq_ring::SeqRing;
use crate::time::Micros;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Stable, copyable identity of an interned tuple.
///
/// A `TupleId` is a `u64` newtype over the stream sequence number assigned
/// by the source. It is the currency of the whole selection data path:
/// candidate sets, group utilities, hitting-set choices and pending
/// emissions all reference tuples by id and never clone payloads. Ids are
/// strictly increasing in stream order, so comparing ids compares arrival
/// (and, for in-order streams, freshness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TupleId(u64);

impl TupleId {
    /// The id a tuple with stream sequence number `seq` interns to.
    pub const fn from_seq(seq: u64) -> Self {
        TupleId(seq)
    }

    /// The underlying stream sequence number.
    pub const fn seq(self) -> u64 {
        self.0
    }

    /// The id of the immediately following stream tuple.
    pub const fn next(self) -> Self {
        TupleId(self.0 + 1)
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Where an interned tuple's payload lives: already materialised behind a
/// shared `Arc`, or still a row of a columnar [`TupleBatch`] (materialised
/// lazily, the first time the payload is actually needed — i.e. at
/// emission).
#[derive(Debug, Clone)]
enum PoolSlot {
    Tuple(Arc<Tuple>),
    Row(Arc<TupleBatch>, u32),
}

/// The engine's output bookkeeping for one live tuple, kept in the
/// pool's slot so that every question about it is one ring probe. Eight
/// bytes: the recipients of a pending tuple live in the engine's list of
/// pending outputs, at `pending`, so the slot of every other tuple in
/// the live window stays small.
#[derive(Debug)]
pub(crate) struct Decided {
    /// Decided but not yet emitted: its entry in the engine's pending
    /// outputs, or [`Decided::NONE`].
    pub(crate) pending: u32,
    /// Pending, and its region has completed (eligible under the
    /// `Earliest` output strategy).
    pub(crate) releasable: bool,
    /// Chosen in a still-incomplete region (the per-candidate-set
    /// algorithm's first heuristic).
    pub(crate) recent: bool,
    /// Emitted at least once (see [`TuplePool::mark_emitted`]).
    emitted: bool,
}

impl Decided {
    /// [`pending`](Self::pending) of a tuple that is not pending.
    pub(crate) const NONE: u32 = u32::MAX;

    /// Whether the tuple is pending.
    pub(crate) fn is_pending(&self) -> bool {
        self.pending != Decided::NONE
    }

    /// Whether the engine still needs the tuple: pending, or chosen in a
    /// region that may choose it again.
    pub(crate) fn held(&self) -> bool {
        self.is_pending() || self.recent
    }
}

impl Default for Decided {
    fn default() -> Self {
        Decided {
            pending: Decided::NONE,
            releasable: false,
            recent: false,
            emitted: false,
        }
    }
}

/// Intern table owning the engine's live tuple window.
///
/// Tuples are interned in arrival order; the pool stores each payload once
/// and resolves [`TupleId`]s in O(1) via a dense ring buffer (`id - base`
/// indexing). Releasing ids from the front — which is what region cleanup
/// does, since regions complete oldest-first — trims the ring, keeping
/// memory proportional to the live window.
///
/// Two ingest shapes share the ring:
/// * [`intern`](Self::intern) — the single-tuple path, one `Arc<Tuple>`
///   per tuple;
/// * [`intern_rows`](Self::intern_rows) — the columnar path: one bulk
///   ring reservation and one `Arc<TupleBatch>` refcount bump per row,
///   **no per-tuple allocation**. Payloads materialise lazily through
///   [`resolve`](Self::resolve), so rows that are never emitted never
///   become `Arc<Tuple>`s at all.
#[derive(Debug, Default)]
pub struct TuplePool {
    /// Each live id's payload and the engine's output state for it.
    ring: SeqRing<(PoolSlot, Decided)>,
    materialized: u64,
}

impl TuplePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        TuplePool::default()
    }

    /// Interns a tuple, returning its id and the shared payload.
    ///
    /// # Panics
    /// Panics if `tuple.seq()` does not come strictly after every
    /// sequence number this pool has ever interned (released or not) —
    /// ids are never reused, and the engine validates stream order before
    /// interning, so a violation here is a bug.
    pub fn intern(&mut self, tuple: Tuple) -> (TupleId, Arc<Tuple>) {
        let id = tuple.id();
        assert!(
            id.seq() >= self.ring.end(),
            "tuple {} interned out of order (expected >= {})",
            id.seq(),
            self.ring.end()
        );
        let arc = Arc::new(tuple);
        self.ring.set(
            id.seq(),
            (PoolSlot::Tuple(Arc::clone(&arc)), Decided::default()),
        );
        (id, arc)
    }

    /// Bulk-interns the first `rows` rows of a columnar batch as lazy
    /// slots: the ring grows once, each slot holds `(batch, row)` and the
    /// payload is only gathered into an `Arc<Tuple>` if
    /// [`resolve`](Self::resolve) is ever called for it.
    ///
    /// # Panics
    /// Same ordering contract as [`intern`](Self::intern), checked on the
    /// batch's first row (rows within a batch are contiguous by
    /// construction).
    pub fn intern_rows(&mut self, batch: &Arc<TupleBatch>, rows: usize) {
        let rows = rows.min(batch.rows());
        if rows == 0 {
            return;
        }
        assert!(
            batch.first_seq() >= self.ring.end(),
            "tuple {} interned out of order (expected >= {})",
            batch.first_seq(),
            self.ring.end()
        );
        self.ring.reserve(rows);
        for r in 0..rows {
            let row = PoolSlot::Row(Arc::clone(batch), r as u32);
            self.ring.set(batch.seq(r), (row, Decided::default()));
        }
    }

    /// The shared payload of a live, already-materialised id. Lazily
    /// interned batch rows read as `None` here until
    /// [`resolve`](Self::resolve)d — use [`contains`](Self::contains) for
    /// liveness.
    pub fn get(&self, id: TupleId) -> Option<&Arc<Tuple>> {
        match &self.ring.get(id.seq())?.0 {
            PoolSlot::Tuple(arc) => Some(arc),
            PoolSlot::Row(..) => None,
        }
    }

    /// The shared payload of a live id, materialising a lazy batch row in
    /// place on first resolution; `None` once released.
    pub fn resolve(&mut self, id: TupleId) -> Option<Arc<Tuple>> {
        let (slot, _) = self.ring.get_mut(id.seq())?;
        if let PoolSlot::Row(batch, r) = slot {
            let arc = Arc::new(batch.materialize_row(*r as usize));
            *slot = PoolSlot::Tuple(arc);
            self.materialized += 1;
        }
        match slot {
            PoolSlot::Tuple(arc) => Some(Arc::clone(arc)),
            PoolSlot::Row(..) => unreachable!("lazy slot materialised above"),
        }
    }

    /// Marks a live id as emitted; `true` the first time (and for ids the
    /// pool no longer holds, which cannot be emitted at all). This is the
    /// engine's distinct-output accounting: an id can only be emitted
    /// again while the pool still holds it, so the mark lives and dies
    /// with the slot instead of in a set that grows with the stream.
    pub(crate) fn mark_emitted(&mut self, id: TupleId) -> bool {
        match self.ring.get_mut(id.seq()) {
            Some((_, decided)) => !std::mem::replace(&mut decided.emitted, true),
            None => true,
        }
    }

    /// The output state of a live id.
    pub(crate) fn decided(&self, id: TupleId) -> Option<&Decided> {
        self.ring.get(id.seq()).map(|(_, decided)| decided)
    }

    /// Mutable access to the output state of a live id.
    pub(crate) fn decided_mut(&mut self, id: TupleId) -> Option<&mut Decided> {
        self.ring.get_mut(id.seq()).map(|(_, decided)| decided)
    }

    /// Whether the id is still live in the pool (materialised or lazy).
    pub fn contains(&self, id: TupleId) -> bool {
        self.ring.get(id.seq()).is_some()
    }

    /// Releases an id, dropping the pool's reference to the payload.
    /// Releasing an unknown or already-released id is a no-op; a released
    /// id is spent forever and will never resolve again.
    pub fn release(&mut self, id: TupleId) {
        self.ring.take(id.seq());
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no tuple is live.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// How many lazy batch rows have been materialised into `Arc<Tuple>`s
    /// over the pool's lifetime — the steady-state columnar path keeps
    /// this equal to the number of *emitted* rows, not ingested ones (the
    /// allocation-regression contract of `batch_equivalence`).
    pub fn materializations(&self) -> u64 {
        self.materialized
    }
}

/// One item of a data stream.
///
/// Tuples are cheap to clone: the value payload is shared behind an `Arc`
/// because the same tuple flows into every filter of a group and may sit in
/// several buffers at once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    seq: u64,
    timestamp: Micros,
    values: Arc<[f64]>,
}

impl Tuple {
    /// Creates a tuple directly from parts.
    ///
    /// Most callers should prefer [`TupleBuilder`], which checks names
    /// against a schema. This constructor only checks the value count.
    ///
    /// # Errors
    /// Returns [`Error::SchemaMismatch`] when `values.len() != schema.len()`.
    pub fn new(
        schema: &Schema,
        seq: u64,
        timestamp: Micros,
        values: Vec<f64>,
    ) -> Result<Self, Error> {
        if values.len() != schema.len() {
            return Err(Error::SchemaMismatch {
                expected: schema.len(),
                actual: values.len(),
            });
        }
        Ok(Tuple {
            seq,
            timestamp,
            values: values.into(),
        })
    }

    /// Reassembles a tuple from its wire representation — sequence
    /// number, timestamp and raw values — with no schema check.
    ///
    /// This is the decode-side counterpart of [`Tuple::wire_size`]'s
    /// layout: codecs that shipped a tuple byte-for-byte must be able to
    /// rebuild it byte-for-byte, including NaN "absent" slots a schema
    /// check could not distinguish. Encode-side callers should keep using
    /// [`Tuple::new`] / [`TupleBuilder`].
    pub fn from_wire(seq: u64, timestamp: Micros, values: Vec<f64>) -> Self {
        Tuple {
            seq,
            timestamp,
            values: values.into(),
        }
    }

    /// Sequence number assigned by the source (strictly increasing).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The interned identity this tuple resolves to (its sequence number
    /// as a [`TupleId`]).
    pub fn id(&self) -> TupleId {
        TupleId(self.seq)
    }

    /// Source timestamp.
    pub fn timestamp(&self) -> Micros {
        self.timestamp
    }

    /// Value of an attribute, or `None` if it was never set (NaN).
    pub fn get(&self, attr: AttrId) -> Option<f64> {
        let v = *self.values.get(attr.index())?;
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Value of an attribute, failing with a descriptive error when absent.
    ///
    /// # Errors
    /// Returns [`Error::MissingValue`] when the attribute was never set.
    pub fn require(&self, attr: AttrId) -> Result<f64, Error> {
        self.get(attr).ok_or(Error::MissingValue {
            attr: attr.index(),
            seq: self.seq,
        })
    }

    /// All values in schema order (absent values are NaN).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Approximate on-the-wire size in bytes (seq + timestamp + payload),
    /// used by the network substrate for bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        8 + 8 + self.values.len() * 8
    }

    /// Re-sequences the tuple (used when splicing streams together).
    pub fn with_seq(&self, seq: u64) -> Tuple {
        Tuple {
            seq,
            timestamp: self.timestamp,
            values: Arc::clone(&self.values),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}@{}{:?}", self.seq, self.timestamp, &self.values[..])
    }
}

/// Incremental builder producing schema-checked, auto-sequenced tuples.
///
/// ```rust
/// use gasf_core::{schema::Schema, tuple::TupleBuilder};
/// # fn main() -> Result<(), gasf_core::Error> {
/// let schema = Schema::new(["t"]);
/// let mut b = TupleBuilder::new(&schema);
/// let t0 = b.at_millis(0).set("t", 1.0).build()?;
/// let t1 = b.at_millis(10).set("t", 2.0).build()?;
/// assert_eq!(t0.seq(), 0);
/// assert_eq!(t1.seq(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TupleBuilder {
    schema: Schema,
    next_seq: u64,
    pending_ts: Micros,
    pending: Vec<f64>,
    error: Option<Error>,
}

impl TupleBuilder {
    /// Creates a builder for `schema`, starting at sequence number 0.
    pub fn new(schema: &Schema) -> Self {
        TupleBuilder {
            schema: schema.clone(),
            next_seq: 0,
            pending_ts: Micros::ZERO,
            pending: vec![f64::NAN; schema.len()],
            error: None,
        }
    }

    /// Sets the timestamp of the tuple under construction (microseconds).
    pub fn at(&mut self, ts: Micros) -> &mut Self {
        self.pending_ts = ts;
        self
    }

    /// Sets the timestamp in milliseconds.
    pub fn at_millis(&mut self, ms: u64) -> &mut Self {
        self.at(Micros::from_millis(ms))
    }

    /// Sets one attribute by name.
    ///
    /// Unknown names are reported when [`build`](Self::build) is called, so
    /// call chains stay ergonomic.
    pub fn set(&mut self, name: &str, value: f64) -> &mut Self {
        match self.schema.attr(name) {
            Ok(id) => self.pending[id.index()] = value,
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Sets one attribute by id.
    pub fn set_attr(&mut self, attr: AttrId, value: f64) -> &mut Self {
        self.pending[attr.index()] = value;
        self
    }

    /// Sets all values at once, in schema order.
    pub fn set_all(&mut self, values: &[f64]) -> &mut Self {
        if values.len() != self.schema.len() {
            self.error = Some(Error::SchemaMismatch {
                expected: self.schema.len(),
                actual: values.len(),
            });
        } else {
            self.pending.copy_from_slice(values);
        }
        self
    }

    /// Finalises the pending tuple, assigns the next sequence number and
    /// resets the builder for the next tuple.
    ///
    /// # Errors
    /// Returns any error recorded by `set`/`set_all` (unknown attribute,
    /// schema mismatch).
    pub fn build(&mut self) -> Result<Tuple, Error> {
        if let Some(e) = self.error.take() {
            self.pending.fill(f64::NAN);
            return Err(e);
        }
        let values = std::mem::replace(&mut self.pending, vec![f64::NAN; self.schema.len()]);
        let t = Tuple {
            seq: self.next_seq,
            timestamp: self.pending_ts,
            values: values.into(),
        };
        self.next_seq += 1;
        Ok(t)
    }
}

/// Convenience: builds a single-attribute stream from `(millis, value)` pairs.
///
/// Used pervasively by tests and examples to transcribe the paper's worked
/// examples, e.g. the nine-tuple temperature sequence of §2.1.1.
///
/// # Panics
/// Panics if `schema` does not contain `attr` — this helper is meant for
/// literal test fixtures where that is a programming error.
pub fn series(schema: &Schema, attr: &str, points: &[(u64, f64)]) -> Vec<Tuple> {
    let mut b = TupleBuilder::new(schema);
    points
        .iter()
        .map(|(ms, v)| {
            b.at_millis(*ms)
                .set(attr, *v)
                .build()
                .expect("series fixture must match schema")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["a", "b"])
    }

    #[test]
    fn builder_sequences_and_checks() {
        let s = schema();
        let mut b = TupleBuilder::new(&s);
        let t = b.at_millis(5).set("a", 1.0).build().unwrap();
        assert_eq!(t.seq(), 0);
        assert_eq!(t.timestamp(), Micros::from_millis(5));
        assert_eq!(t.get(s.attr("a").unwrap()), Some(1.0));
        assert_eq!(t.get(s.attr("b").unwrap()), None);
        assert!(t.require(s.attr("b").unwrap()).is_err());

        let err = b.set("nope", 2.0).build().unwrap_err();
        assert!(matches!(err, Error::UnknownAttribute { .. }));
        // builder recovers after an error
        let t2 = b.set("b", 3.0).build().unwrap();
        assert_eq!(t2.seq(), 1);
        assert_eq!(t2.get(s.attr("b").unwrap()), Some(3.0));
        assert_eq!(t2.get(s.attr("a").unwrap()), None, "pending was reset");
    }

    #[test]
    fn set_all_checks_width() {
        let s = schema();
        let mut b = TupleBuilder::new(&s);
        assert!(matches!(
            b.set_all(&[1.0]).build(),
            Err(Error::SchemaMismatch { .. })
        ));
        let t = b.set_all(&[1.0, 2.0]).build().unwrap();
        assert_eq!(t.values(), &[1.0, 2.0]);
    }

    #[test]
    fn direct_constructor_checks_width() {
        let s = schema();
        assert!(Tuple::new(&s, 0, Micros::ZERO, vec![0.0]).is_err());
        let t = Tuple::new(&s, 7, Micros(3), vec![0.0, 1.0]).unwrap();
        assert_eq!(t.seq(), 7);
        assert_eq!(t.with_seq(9).seq(), 9);
    }

    #[test]
    fn wire_size_counts_header_and_payload() {
        let s = schema();
        let t = Tuple::new(&s, 0, Micros::ZERO, vec![0.0, 1.0]).unwrap();
        assert_eq!(t.wire_size(), 8 + 8 + 16);
    }

    #[test]
    fn series_helper_builds_ordered_stream() {
        let s = Schema::new(["t"]);
        let ts = series(&s, "t", &[(0, 0.0), (10, 35.0), (20, 29.0)]);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[2].seq(), 2);
        assert_eq!(ts[1].get(s.attr("t").unwrap()), Some(35.0));
    }

    #[test]
    fn display_mentions_seq_and_time() {
        let s = Schema::new(["t"]);
        let t = Tuple::new(&s, 4, Micros::from_millis(2), vec![1.5]).unwrap();
        let txt = t.to_string();
        assert!(txt.contains("#4"));
        assert!(txt.contains("1.5"));
    }

    #[test]
    fn tuple_id_mirrors_seq_and_orders_by_arrival() {
        let s = Schema::new(["t"]);
        let t = Tuple::new(&s, 7, Micros(3), vec![0.0]).unwrap();
        assert_eq!(t.id(), TupleId::from_seq(7));
        assert_eq!(t.id().seq(), 7);
        assert_eq!(t.id().next(), TupleId::from_seq(8));
        assert!(TupleId::from_seq(7) < TupleId::from_seq(8));
        assert_eq!(TupleId::from_seq(7).to_string(), "t7");
    }

    #[test]
    fn pool_interns_resolves_and_releases() {
        let s = Schema::new(["t"]);
        let mut pool = TuplePool::new();
        assert!(pool.is_empty());
        let mut ids = Vec::new();
        for seq in 0..5u64 {
            let t = Tuple::new(&s, seq, Micros(seq * 10 + 1), vec![seq as f64]).unwrap();
            let (id, arc) = pool.intern(t);
            assert_eq!(id.seq(), seq);
            assert_eq!(arc.seq(), seq);
            ids.push(id);
        }
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.get(ids[3]).unwrap().values(), &[3.0]);
        // releasing from the middle keeps later ids resolvable
        pool.release(ids[1]);
        assert!(!pool.contains(ids[1]));
        assert!(pool.contains(ids[4]));
        assert_eq!(pool.len(), 4);
        // double release is a no-op
        pool.release(ids[1]);
        assert_eq!(pool.len(), 4);
        // releasing the front trims the ring
        pool.release(ids[0]);
        assert_eq!(pool.len(), 3);
        assert!(pool.get(ids[0]).is_none());
        for id in &ids[2..] {
            pool.release(*id);
        }
        assert!(pool.is_empty());
    }

    #[test]
    fn pool_ids_are_never_reused_even_across_a_drain() {
        let s = Schema::new(["t"]);
        let mut pool = TuplePool::new();
        let (a, _) = pool.intern(Tuple::new(&s, 10, Micros(1), vec![0.0]).unwrap());
        pool.release(a);
        assert!(pool.is_empty());
        // a stale id held across the drain can never alias a new payload
        assert!(pool.get(a).is_none());
        let (b, _) = pool.intern(Tuple::new(&s, 11, Micros(2), vec![1.0]).unwrap());
        assert!(pool.contains(b));
        assert!(pool.get(a).is_none());
        // gaps (spliced streams) leave vacant, unresolvable slots
        let (c, _) = pool.intern(Tuple::new(&s, 14, Micros(3), vec![2.0]).unwrap());
        assert!(pool.contains(c));
        assert!(!pool.contains(TupleId::from_seq(12)));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pool_interns_batch_rows_lazily() {
        let s = Schema::new(["t"]);
        let mut b = TupleBuilder::new(&s);
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| b.at_millis(i * 10 + 1).set("t", i as f64).build().unwrap())
            .collect();
        let batch = Arc::new(crate::batch::TupleBatch::from_tuples(&s, &tuples).unwrap());
        let mut pool = TuplePool::new();
        pool.intern_rows(&batch, 4);
        assert_eq!(pool.len(), 4);
        assert_eq!(
            pool.materializations(),
            0,
            "interning allocates no payloads"
        );
        let id = TupleId::from_seq(2);
        assert!(pool.contains(id));
        assert!(pool.get(id).is_none(), "lazy row not materialised yet");
        let arc = pool.resolve(id).unwrap();
        assert_eq!(&*arc, &tuples[2]);
        assert_eq!(pool.materializations(), 1);
        // second resolve reuses the materialised payload
        let again = pool.resolve(id).unwrap();
        assert!(Arc::ptr_eq(&arc, &again));
        assert_eq!(pool.materializations(), 1);
        assert!(pool.get(id).is_some(), "materialised slot now reads back");
        // rows past the requested prefix were not interned
        assert!(!pool.contains(TupleId::from_seq(4)));
        // single-tuple interning continues after the batch run
        let (id5, _) = pool.intern(tuples[4].clone());
        assert_eq!(id5.seq(), 4);
        pool.release(id);
        assert!(pool.resolve(id).is_none(), "released ids never resolve");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn pool_rejects_batch_rows_behind_the_frontier() {
        let s = Schema::new(["t"]);
        let mut b = TupleBuilder::new(&s);
        let tuples: Vec<Tuple> = (0..3)
            .map(|i| b.at_millis(i * 10 + 1).set("t", 0.0).build().unwrap())
            .collect();
        let batch = Arc::new(crate::batch::TupleBatch::from_tuples(&s, &tuples).unwrap());
        let mut pool = TuplePool::new();
        pool.intern(Tuple::new(&s, 9, Micros(1), vec![0.0]).unwrap());
        pool.intern_rows(&batch, 3);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn pool_rejects_reusing_a_drained_seq() {
        let s = Schema::new(["t"]);
        let mut pool = TuplePool::new();
        let (a, _) = pool.intern(Tuple::new(&s, 10, Micros(1), vec![0.0]).unwrap());
        pool.release(a);
        // the frontier never rewinds, even when the pool is empty
        pool.intern(Tuple::new(&s, 3, Micros(2), vec![1.0]).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn pool_rejects_out_of_order_interning() {
        let s = Schema::new(["t"]);
        let mut pool = TuplePool::new();
        pool.intern(Tuple::new(&s, 5, Micros(1), vec![0.0]).unwrap());
        pool.intern(Tuple::new(&s, 5, Micros(2), vec![1.0]).unwrap());
    }
}
