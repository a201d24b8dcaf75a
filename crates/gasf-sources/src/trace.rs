//! In-memory traces: a schema plus time-ordered tuples.
//!
//! [`Trace`] is the unit every generator produces and every experiment
//! consumes — an immutable, schema-aligned, strictly time-ordered tuple
//! sequence. Beyond iteration it provides the derivations the paper's
//! methodology needs:
//!
//! * [`Trace::stats`] — per-attribute [`SourceStats`], the
//!   `srcStatistics` quantity filter deltas are calibrated from (§4.3),
//! * [`Trace::series_of`] — a `(timestamp, value)` series for an
//!   attribute, used to derive trend (DC2) statistics,
//! * [`Trace::truncate`] / [`Trace::mean_interval`] — workload sizing
//!   helpers for the bench harness.
//!
//! Construction validates ordering ([`Trace::new`] rejects decreasing
//! timestamps or non-contiguous sequence numbers; equal timestamps are
//! legal, with the dense seq range as the tiebreak), so a `Trace` can
//! always be replayed through an engine without ordering errors. For the
//! event-time path, [`Disorder`](crate::Disorder) turns an ordered trace
//! into a jittered *arrival* sequence without touching the trace itself.

use crate::stats::SourceStats;
use gasf_core::batch::TupleBatch;
use gasf_core::error::Error;
use gasf_core::schema::Schema;
use gasf_core::time::Micros;
use gasf_core::tuple::Tuple;

/// A finite recorded stream: the unit the experiment harness replays.
///
/// Invariants (enforced at construction): timestamps are non-decreasing
/// and sequence numbers dense (strictly increasing by one), matching what
/// [`GroupEngine::push_into`](gasf_core::engine::GroupEngine::push_into)
/// requires.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Trace {
    /// Wraps tuples into a trace, validating stream order.
    ///
    /// # Errors
    /// Returns [`Error::OutOfOrder`] / [`Error::NonContiguousSeq`] if the
    /// tuples violate the stream invariants.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self, Error> {
        for pair in tuples.windows(2) {
            if pair[1].timestamp() < pair[0].timestamp() {
                return Err(Error::OutOfOrder {
                    last_us: pair[0].timestamp().as_micros(),
                    got_us: pair[1].timestamp().as_micros(),
                });
            }
            if pair[1].seq() != pair[0].seq() + 1 {
                return Err(Error::NonContiguousSeq {
                    expected: pair[0].seq() + 1,
                    got: pair[1].seq(),
                });
            }
        }
        Ok(Trace { schema, tuples })
    }

    /// The trace's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples, in stream order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// Consumes the trace, yielding its tuples (what engines ingest).
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Source statistics for one attribute — `mean_abs_delta` is the
    /// paper's `srcStatistics` (average change between consecutive tuples).
    ///
    /// # Errors
    /// Returns [`Error::UnknownAttribute`] for names outside the schema.
    pub fn stats(&self, attr: &str) -> Result<SourceStats, Error> {
        let id = self.schema.attr(attr)?;
        Ok(SourceStats::from_values(
            self.tuples.iter().filter_map(|t| t.get(id)),
        ))
    }

    /// A sub-trace of the first `n` tuples (re-sequenced from 0).
    pub fn truncate(&self, n: usize) -> Trace {
        let tuples = self.tuples[..n.min(self.tuples.len())]
            .iter()
            .enumerate()
            .map(|(i, t)| t.with_seq(i as u64))
            .collect();
        Trace {
            schema: self.schema.clone(),
            tuples,
        }
    }

    /// Mean inter-arrival time of the trace.
    pub fn mean_interval(&self) -> Micros {
        if self.tuples.len() < 2 {
            return Micros::ZERO;
        }
        let span = self
            .tuples
            .last()
            .expect("non-empty")
            .timestamp()
            .saturating_sub(self.tuples[0].timestamp());
        Micros(span.as_micros() / (self.tuples.len() as u64 - 1))
    }

    /// Chunks the trace into columnar [`TupleBatch`]es of (at most)
    /// `rows` rows each — the native feed for the engines' batch hot
    /// path ([`GroupEngine::push_batch_columnar`]). The last batch
    /// carries the remainder; `rows` is clamped to at least 1.
    ///
    /// A trace is stream-ordered by construction, so the conversion
    /// cannot fail.
    ///
    /// [`GroupEngine::push_batch_columnar`]:
    ///     gasf_core::engine::GroupEngine::push_batch_columnar
    pub fn batches(&self, rows: usize) -> Vec<TupleBatch> {
        let size = rows.max(1);
        self.tuples
            .chunks(size)
            .map(|chunk| {
                TupleBatch::from_tuples(&self.schema, chunk)
                    .expect("trace invariants imply valid batches")
            })
            .collect()
    }

    /// Extracts the time series of one attribute as `(timestamp, value)`
    /// pairs — used by the figure dumps (Figs. 4.21–4.23).
    ///
    /// # Errors
    /// Returns [`Error::UnknownAttribute`] for names outside the schema.
    pub fn series_of(&self, attr: &str) -> Result<Vec<(Micros, f64)>, Error> {
        let id = self.schema.attr(attr)?;
        Ok(self
            .tuples
            .iter()
            .filter_map(|t| t.get(id).map(|v| (t.timestamp(), v)))
            .collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasf_core::tuple::series;

    fn mk() -> Trace {
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", &[(0, 1.0), (10, 2.0), (20, 4.0)]);
        Trace::new(schema, tuples).unwrap()
    }

    #[test]
    fn construction_validates_order() {
        let schema = Schema::new(["t"]);
        let mut tuples = series(&schema, "t", &[(0, 1.0), (10, 2.0)]);
        tuples.swap(0, 1);
        assert!(Trace::new(schema, tuples).is_err());
    }

    #[test]
    fn construction_validates_seq_density() {
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", &[(0, 1.0), (10, 2.0)]);
        let gappy = vec![tuples[0].clone(), tuples[1].with_seq(5)];
        assert!(matches!(
            Trace::new(schema, gappy),
            Err(Error::NonContiguousSeq { .. })
        ));
    }

    #[test]
    fn stats_and_series() {
        let t = mk();
        let s = t.stats("t").unwrap();
        assert!((s.mean_abs_delta - 1.5).abs() < 1e-12);
        let series = t.series_of("t").unwrap();
        assert_eq!(series.len(), 3);
        assert_eq!(series[2].1, 4.0);
        assert!(t.stats("zz").is_err());
    }

    #[test]
    fn truncate_reseqs() {
        let t = mk().truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.tuples()[1].seq(), 1);
        let full = mk().truncate(100);
        assert_eq!(full.len(), 3);
    }

    #[test]
    fn mean_interval() {
        assert_eq!(mk().mean_interval(), Micros::from_millis(10));
        let schema = Schema::new(["t"]);
        let single = Trace::new(schema.clone(), series(&schema, "t", &[(0, 1.0)])).unwrap();
        assert_eq!(single.mean_interval(), Micros::ZERO);
    }

    #[test]
    fn batches_chunk_and_roundtrip() {
        let t = mk();
        let batches = t.batches(2);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].rows(), 2);
        assert_eq!(batches[1].rows(), 1, "last batch takes the remainder");
        let rebuilt: Vec<_> = batches.iter().flat_map(|b| b.materialize()).collect();
        assert_eq!(rebuilt, t.tuples(), "batching is lossless");
        assert_eq!(t.batches(0).len(), 3, "batch size clamps to 1");
        assert_eq!(t.batches(100).len(), 1);
    }

    #[test]
    fn iteration() {
        let t = mk();
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
        assert_eq!(t.clone().into_iter().count(), 3);
        assert!(!t.is_empty());
    }
}
