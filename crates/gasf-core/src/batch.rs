//! Columnar tuple batches: the SoA form of a stream segment.
//!
//! The engines' hot path historically ingested one [`Tuple`] at a time —
//! one `Arc` allocation, one stream-order check and one sink hand-off per
//! tuple. Production rates want the source→engine seam to carry
//! *schema-typed column arenas* instead: a [`TupleBatch`] stores a
//! contiguous run of the stream as one `Vec<f64>` **per attribute** plus a
//! timestamp column and a first sequence number. The compiled roster can
//! then derive each key class column-at-a-time
//! ([`CompiledRoster::derive_batch`](crate::plan::CompiledRoster)), and
//! the engine walks the derived keys row by row without ever touching a
//! per-tuple payload ([`GroupEngine::push_batch_columnar`](
//! crate::engine::GroupEngine::push_batch_columnar)).
//!
//! **Ordering is validated at construction**: rows carry contiguous
//! sequence numbers (`first_seq + row`) and non-decreasing timestamps
//! (equal timestamps are legal sensor output — the dense sequence range
//! is the deterministic tiebreak, matching the reorder buffer's
//! `(timestamp, seq)` release order), so an engine only has to check the
//! batch's *first* row against its stream frontier — the per-row checks
//! of the single-tuple path are hoisted out of the loop.
//!
//! A batch row materialises back into an ordinary [`Tuple`] bit-for-bit
//! ([`materialize_row`](TupleBatch::materialize_row) gathers across the
//! columns, preserving NaN "absent" slots), which is what keeps the
//! columnar path byte-identical to the single-tuple reference: payloads
//! are materialised lazily, only for rows that are actually emitted.

use crate::error::Error;
use crate::schema::{AttrId, Schema};
use crate::time::Micros;
use crate::tuple::Tuple;
use std::sync::Arc;

/// A contiguous, stream-ordered run of tuples in columnar (SoA) form.
///
/// Row `r` corresponds to the stream tuple with sequence number
/// `first_seq + r`; values live in per-attribute columns aligned to the
/// batch's [`Schema`], with NaN marking absent values exactly as in
/// [`Tuple`].
#[derive(Debug, Clone, PartialEq)]
pub struct TupleBatch {
    schema: Schema,
    first_seq: u64,
    timestamps: Vec<Micros>,
    /// Attr-major value arenas; `columns[a][r]` is attribute `a` of row
    /// `r`. Every column has exactly `timestamps.len()` rows.
    columns: Vec<Vec<f64>>,
}

impl TupleBatch {
    /// Builds a batch from a run of row-form tuples.
    ///
    /// # Errors
    /// * [`Error::SchemaMismatch`] if a tuple's width differs from
    ///   `schema`,
    /// * [`Error::NonContiguousSeq`] if sequence numbers are not
    ///   contiguous,
    /// * [`Error::OutOfOrder`] if timestamps decrease.
    pub fn from_tuples(schema: &Schema, tuples: &[Tuple]) -> Result<TupleBatch, Error> {
        match TupleBatch::pack_prefix(schema, tuples) {
            (batch, None) => Ok(batch),
            (_, Some(rejected)) => Err(rejected),
        }
    }

    /// Packs the longest prefix of `tuples` that forms a valid batch,
    /// returning it with the error [`from_tuples`](Self::from_tuples)
    /// gives for the first row past it (`None` when every row packed).
    ///
    /// This is how a caller holding rows keeps the per-row error cut: it
    /// feeds the prefix, and the rejected row — now at the head of its
    /// own run — meets the engine's stream-order check exactly as a
    /// single-row push would.
    pub fn pack_prefix(schema: &Schema, tuples: &[Tuple]) -> (TupleBatch, Option<Error>) {
        let rows = tuples.len();
        let mut timestamps = Vec::with_capacity(rows);
        let mut columns: Vec<Vec<f64>> = (0..schema.len())
            .map(|_| Vec::with_capacity(rows))
            .collect();
        let first_seq = tuples.first().map_or(0, Tuple::seq);
        let mut rejected = None;
        for (r, t) in tuples.iter().enumerate() {
            if t.values().len() != schema.len() {
                rejected = Some(Error::SchemaMismatch {
                    expected: schema.len(),
                    actual: t.values().len(),
                });
                break;
            }
            if t.seq() != first_seq + r as u64 {
                rejected = Some(Error::NonContiguousSeq {
                    expected: first_seq + r as u64,
                    got: t.seq(),
                });
                break;
            }
            if let Some(&last) = timestamps.last() {
                if t.timestamp() < last {
                    rejected = Some(Error::OutOfOrder {
                        last_us: last.as_micros(),
                        got_us: t.timestamp().as_micros(),
                    });
                    break;
                }
            }
            timestamps.push(t.timestamp());
            for (col, &v) in columns.iter_mut().zip(t.values()) {
                col.push(v);
            }
        }
        let batch = TupleBatch {
            schema: schema.clone(),
            first_seq,
            timestamps,
            columns,
        };
        (batch, rejected)
    }

    /// Builds a batch directly from column arenas (the zero-copy
    /// constructor for columnar sources).
    ///
    /// # Errors
    /// * [`Error::SchemaMismatch`] if the column count differs from the
    ///   schema width or any column's length differs from the timestamp
    ///   column's,
    /// * [`Error::OutOfOrder`] if timestamps decrease.
    pub fn from_columns(
        schema: &Schema,
        first_seq: u64,
        timestamps: Vec<Micros>,
        columns: Vec<Vec<f64>>,
    ) -> Result<TupleBatch, Error> {
        if columns.len() != schema.len() {
            return Err(Error::SchemaMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        for col in &columns {
            if col.len() != timestamps.len() {
                return Err(Error::SchemaMismatch {
                    expected: timestamps.len(),
                    actual: col.len(),
                });
            }
        }
        for w in timestamps.windows(2) {
            if w[1] < w[0] {
                return Err(Error::OutOfOrder {
                    last_us: w[0].as_micros(),
                    got_us: w[1].as_micros(),
                });
            }
        }
        Ok(TupleBatch {
            schema: schema.clone(),
            first_seq,
            timestamps,
            columns,
        })
    }

    /// The schema the columns are aligned to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows in the batch.
    pub fn rows(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Sequence number of the first row.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Sequence number of row `r` (`first_seq + r`).
    pub fn seq(&self, r: usize) -> u64 {
        debug_assert!(r < self.rows());
        self.first_seq + r as u64
    }

    /// Timestamp of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn timestamp(&self, r: usize) -> Micros {
        self.timestamps[r]
    }

    /// The timestamp column.
    pub fn timestamps(&self) -> &[Micros] {
        &self.timestamps
    }

    /// The value column of one attribute (length [`rows`](Self::rows);
    /// NaN marks absent values).
    ///
    /// # Panics
    /// Panics if `attr` is out of range for the batch's schema.
    pub fn column(&self, attr: AttrId) -> &[f64] {
        &self.columns[attr.index()]
    }

    /// Gathers row `r` back into an ordinary row-form [`Tuple`],
    /// bit-for-bit (NaN absent slots included). One allocation: the
    /// values are collected straight into the tuple's shared slice.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn materialize_row(&self, r: usize) -> Tuple {
        assert!(r < self.rows(), "row {r} out of range ({})", self.rows());
        let values: Arc<[f64]> = self.columns.iter().map(|col| col[r]).collect();
        Tuple::from_wire(self.seq(r), self.timestamps[r], values)
    }

    /// Materialises every row (reference/diagnostic path).
    pub fn materialize(&self) -> Vec<Tuple> {
        (0..self.rows()).map(|r| self.materialize_row(r)).collect()
    }

    /// Copies rows `start..start + len` into a new batch.
    ///
    /// Any contiguous sub-range of a valid batch is itself valid (dense
    /// sequence numbers starting at `first_seq + start`, non-decreasing
    /// timestamps), which is what makes a throttled batch push resumable
    /// at the exact rejected row: the caller re-offers
    /// `batch.slice(accepted, rest)` once credit returns.
    ///
    /// # Panics
    /// Panics if `start + len` exceeds [`rows`](Self::rows).
    pub fn slice(&self, start: usize, len: usize) -> TupleBatch {
        assert!(
            start + len <= self.rows(),
            "slice {start}..{} out of range ({})",
            start + len,
            self.rows()
        );
        TupleBatch {
            schema: self.schema.clone(),
            first_seq: self.first_seq + start as u64,
            timestamps: self.timestamps[start..start + len].to_vec(),
            columns: self
                .columns
                .iter()
                .map(|col| col[start..start + len].to_vec())
                .collect(),
        }
    }

    /// Approximate on-the-wire size in bytes (sum of the rows'
    /// [`Tuple::wire_size`]-equivalent layouts) — the replay-log and
    /// bandwidth accounting currency.
    pub fn wire_size(&self) -> usize {
        self.rows() * (8 + 8 + self.schema.len() * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleBuilder;

    fn schema() -> Schema {
        Schema::new(["a", "b"])
    }

    fn fixture(n: usize) -> (Schema, Vec<Tuple>) {
        let s = schema();
        let mut b = TupleBuilder::new(&s);
        let tuples = (0..n)
            .map(|i| {
                b.at_millis(i as u64 * 10 + 1)
                    .set("a", i as f64)
                    .set("b", 100.0 + i as f64)
                    .build()
                    .unwrap()
            })
            .collect();
        (s, tuples)
    }

    #[test]
    fn roundtrips_rows_bit_for_bit() {
        let (s, tuples) = fixture(5);
        let batch = TupleBatch::from_tuples(&s, &tuples).unwrap();
        assert_eq!(batch.rows(), 5);
        assert_eq!(batch.first_seq(), 0);
        assert_eq!(
            batch.column(s.attr("a").unwrap()),
            &[0.0, 1.0, 2.0, 3.0, 4.0]
        );
        for (r, t) in tuples.iter().enumerate() {
            assert_eq!(&batch.materialize_row(r), t);
        }
        assert_eq!(batch.materialize(), tuples);
    }

    #[test]
    fn preserves_nan_absent_slots() {
        let s = schema();
        let mut b = TupleBuilder::new(&s);
        let t0 = b.at_millis(1).set("a", 1.0).build().unwrap(); // b absent
        let t1 = b.at_millis(2).set("b", 2.0).build().unwrap(); // a absent
        let batch = TupleBatch::from_tuples(&s, &[t0.clone(), t1.clone()]).unwrap();
        let a = s.attr("a").unwrap();
        let bb = s.attr("b").unwrap();
        assert!(batch.column(bb)[0].is_nan());
        assert!(batch.column(a)[1].is_nan());
        assert_eq!(batch.materialize_row(0).get(bb), None);
        assert_eq!(batch.materialize_row(1).get(a), None);
        assert_eq!(batch.materialize_row(0).get(a), Some(1.0));
    }

    #[test]
    fn rejects_non_contiguous_and_disordered_runs() {
        let (s, mut tuples) = fixture(3);
        tuples[2] = tuples[2].with_seq(7);
        assert!(matches!(
            TupleBatch::from_tuples(&s, &tuples),
            Err(Error::NonContiguousSeq {
                expected: 2,
                got: 7
            })
        ));
        let (s, tuples) = fixture(3);
        let mut disordered = tuples.clone();
        disordered.swap(0, 1);
        assert!(matches!(
            TupleBatch::from_tuples(&s, &disordered),
            Err(Error::NonContiguousSeq { .. })
        ));
        let wrong = Tuple::from_wire(2, Micros::from_millis(5), vec![0.0, 0.0]);
        let run = vec![tuples[0].clone(), tuples[1].clone(), wrong];
        assert!(matches!(
            TupleBatch::from_tuples(&s, &run),
            Err(Error::OutOfOrder { .. })
        ));
    }

    #[test]
    fn pack_prefix_stops_at_the_first_rejected_row() {
        let (s, mut tuples) = fixture(5);
        let (all, rejected) = TupleBatch::pack_prefix(&s, &tuples);
        assert_eq!((all.rows(), rejected), (5, None));
        tuples[3] = tuples[3].with_seq(9);
        let (prefix, rejected) = TupleBatch::pack_prefix(&s, &tuples);
        assert_eq!(prefix, TupleBatch::from_tuples(&s, &tuples[..3]).unwrap());
        assert_eq!(rejected, TupleBatch::from_tuples(&s, &tuples).err());
        assert!(matches!(
            rejected,
            Some(Error::NonContiguousSeq {
                expected: 3,
                got: 9
            })
        ));
        // a rejected head row leaves an empty prefix
        let narrow = Tuple::from_wire(0, Micros(1), vec![1.0]);
        let (prefix, rejected) = TupleBatch::pack_prefix(&s, &[narrow]);
        assert!(prefix.is_empty());
        assert!(matches!(rejected, Some(Error::SchemaMismatch { .. })));
    }

    #[test]
    fn equal_timestamps_are_legal() {
        // Non-decreasing, not strictly increasing: equal timestamps with
        // the dense seq range as the tiebreak are valid sensor output.
        let s = schema();
        let same = Micros::from_millis(7);
        let tuples: Vec<Tuple> = (0..3)
            .map(|i| Tuple::from_wire(i, same, vec![i as f64, 0.0]))
            .collect();
        let batch = TupleBatch::from_tuples(&s, &tuples).unwrap();
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.materialize(), tuples);
        let cols = TupleBatch::from_columns(
            &s,
            0,
            vec![same, same],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        )
        .unwrap();
        assert_eq!(cols.rows(), 2);
    }

    #[test]
    fn rejects_schema_width_mismatch() {
        let (s, _) = fixture(0);
        let narrow = Tuple::from_wire(0, Micros(1), vec![1.0]);
        assert!(matches!(
            TupleBatch::from_tuples(&s, &[narrow]),
            Err(Error::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn from_columns_validates_shape() {
        let s = schema();
        let ts = vec![Micros(1), Micros(2)];
        let ok = TupleBatch::from_columns(&s, 4, ts.clone(), vec![vec![1.0, 2.0], vec![3.0, 4.0]])
            .unwrap();
        assert_eq!(ok.seq(1), 5);
        assert_eq!(ok.wire_size(), 2 * (16 + 16));
        assert!(matches!(
            TupleBatch::from_columns(&s, 0, ts.clone(), vec![vec![1.0, 2.0]]),
            Err(Error::SchemaMismatch { .. })
        ));
        assert!(matches!(
            TupleBatch::from_columns(&s, 0, ts.clone(), vec![vec![1.0], vec![2.0]]),
            Err(Error::SchemaMismatch { .. })
        ));
        assert!(matches!(
            TupleBatch::from_columns(
                &s,
                0,
                vec![Micros(2), Micros(1)],
                vec![vec![1.0, 2.0], vec![3.0, 4.0]]
            ),
            Err(Error::OutOfOrder { .. })
        ));
    }

    #[test]
    fn slice_preserves_seqs_order_and_values() {
        let (s, tuples) = fixture(6);
        let batch = TupleBatch::from_tuples(&s, &tuples).unwrap();
        let mid = batch.slice(2, 3);
        assert_eq!(mid.rows(), 3);
        assert_eq!(mid.first_seq(), 2);
        assert_eq!(mid.materialize(), tuples[2..5].to_vec());
        // whole-range and empty slices are legal
        assert_eq!(batch.slice(0, 6).materialize(), tuples);
        assert!(batch.slice(6, 0).is_empty());
        // a slice is a valid batch: re-deriving it from its rows agrees
        let again = TupleBatch::from_tuples(&s, &mid.materialize()).unwrap();
        assert_eq!(again, mid);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_rejects_overrun() {
        let (s, tuples) = fixture(3);
        let batch = TupleBatch::from_tuples(&s, &tuples).unwrap();
        let _ = batch.slice(2, 2);
    }

    #[test]
    fn empty_batch_is_fine() {
        let s = schema();
        let batch = TupleBatch::from_tuples(&s, &[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.rows(), 0);
        assert!(batch.materialize().is_empty());
    }
}
