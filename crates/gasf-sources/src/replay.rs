//! File/trace replay connectors: the `gasf-sources` side of the
//! connector seam.
//!
//! [`SourceConnector`](gasf_core::connector::SourceConnector) abstracts
//! where stream input comes from; this module implements the replay
//! family:
//!
//! * [`TraceReplay`] — replays an in-memory [`Trace`] as columnar
//!   [`Chunk::Batch`]es, honouring the driver's `max_rows` and an
//!   optional *ragged* chunk-size pattern (real sources do not deliver
//!   neat fixed-size runs; the round-trip proptests sweep this),
//! * `TraceReplay::`[`from_csv_file`](TraceReplay::from_csv_file) — the
//!   file-replay connector: a CSV trace on disk becomes the stream,
//! * [`ArrivalReplay`] — replays a *disordered arrival sequence* (see
//!   [`Disorder`](crate::Disorder)) as row-form [`Chunk::Rows`], which
//!   the ingest driver routes through the event-time front end.
//!
//! Replay is deterministic: the same trace and the same chunk pattern
//! produce the same chunk sequence, which is what lets
//! `tests/connector_roundtrip.rs` pin connector-fed runs against
//! [`Middleware::run_trace`]-fed runs byte for byte.
//!
//! [`Middleware::run_trace`]: ../gasf_solar/struct.Middleware.html#method.run_trace

use crate::trace::Trace;
use gasf_core::batch::TupleBatch;
use gasf_core::connector::{Chunk, SourceConnector};
use gasf_core::error::Error;
use gasf_core::schema::Schema;
use gasf_core::tuple::Tuple;
use std::path::Path;

/// Replays an ordered trace as columnar batches.
///
/// ```rust
/// use gasf_core::connector::SourceConnector;
/// use gasf_sources::{NamosBuoy, TraceReplay};
///
/// let trace = NamosBuoy::new().tuples(100).seed(7).generate();
/// let mut replay = TraceReplay::new(trace).chunk_sizes([3, 1, 8]);
/// let mut rows = 0;
/// while let Some(chunk) = replay.next_chunk(64).unwrap() {
///     rows += chunk.rows();
/// }
/// assert_eq!(rows, 100);
/// ```
#[derive(Debug, Clone)]
pub struct TraceReplay {
    schema: Schema,
    tuples: Vec<Tuple>,
    at: usize,
    /// Cycled chunk sizes (empty ⇒ always fill to `max_rows`). Each
    /// entry is additionally clamped by the driver's `max_rows` and the
    /// remaining rows, and to at least 1.
    pattern: Vec<usize>,
    pattern_at: usize,
}

impl TraceReplay {
    /// A connector replaying `trace` from the beginning.
    pub fn new(trace: Trace) -> Self {
        let schema = trace.schema().clone();
        TraceReplay {
            schema,
            tuples: trace.into_tuples(),
            at: 0,
            pattern: Vec::new(),
            pattern_at: 0,
        }
    }

    /// The file-replay connector: parses a CSV trace (the
    /// [`csv`](crate::csv) format) from disk and replays it.
    ///
    /// # Errors
    /// [`Error::Connector`] describing the I/O or parse failure.
    pub fn from_csv_file(path: impl AsRef<Path>) -> Result<Self, Error> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| Error::Connector {
            reason: format!("read {}: {e}", path.display()),
        })?;
        let trace = crate::csv::from_csv(&text).map_err(|e| Error::Connector {
            reason: format!("parse {}: {e}", path.display()),
        })?;
        Ok(TraceReplay::new(trace))
    }

    /// Imposes a ragged chunk-size pattern, cycled for the whole replay.
    /// Zero entries count as 1; an empty pattern restores "fill to
    /// `max_rows`".
    pub fn chunk_sizes(mut self, pattern: impl IntoIterator<Item = usize>) -> Self {
        self.pattern = pattern.into_iter().collect();
        self.pattern_at = 0;
        self
    }

    /// Rows not yet handed out.
    pub fn remaining(&self) -> usize {
        self.tuples.len() - self.at
    }
}

impl SourceConnector for TraceReplay {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Chunk>, Error> {
        if self.at == self.tuples.len() {
            return Ok(None);
        }
        let mut n = max_rows.max(1);
        if !self.pattern.is_empty() {
            let want = self.pattern[self.pattern_at % self.pattern.len()].max(1);
            self.pattern_at += 1;
            n = n.min(want);
        }
        n = n.min(self.tuples.len() - self.at);
        let batch = TupleBatch::from_tuples(&self.schema, &self.tuples[self.at..self.at + n])?;
        self.at += n;
        Ok(Some(Chunk::Batch(batch)))
    }
}

/// Replays a disordered *arrival* sequence as row-form chunks.
///
/// Arrival sequences (e.g. from [`Disorder::apply`](crate::Disorder))
/// violate the columnar-batch invariants by construction, so this
/// connector hands over [`Chunk::Rows`] and relies on the driver to
/// route them through the event-time reorder buffer.
#[derive(Debug, Clone)]
pub struct ArrivalReplay {
    schema: Schema,
    arrivals: Vec<Tuple>,
    at: usize,
    pattern: Vec<usize>,
    pattern_at: usize,
}

impl ArrivalReplay {
    /// A connector replaying `arrivals` (any order) under `schema`.
    pub fn new(schema: Schema, arrivals: Vec<Tuple>) -> Self {
        ArrivalReplay {
            schema,
            arrivals,
            at: 0,
            pattern: Vec::new(),
            pattern_at: 0,
        }
    }

    /// Imposes a ragged chunk-size pattern (see
    /// [`TraceReplay::chunk_sizes`]).
    pub fn chunk_sizes(mut self, pattern: impl IntoIterator<Item = usize>) -> Self {
        self.pattern = pattern.into_iter().collect();
        self.pattern_at = 0;
        self
    }
}

impl SourceConnector for ArrivalReplay {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Chunk>, Error> {
        if self.at == self.arrivals.len() {
            return Ok(None);
        }
        let mut n = max_rows.max(1);
        if !self.pattern.is_empty() {
            let want = self.pattern[self.pattern_at % self.pattern.len()].max(1);
            self.pattern_at += 1;
            n = n.min(want);
        }
        n = n.min(self.arrivals.len() - self.at);
        let rows = self.arrivals[self.at..self.at + n].to_vec();
        self.at += n;
        Ok(Some(Chunk::Rows(rows)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Disorder, NamosBuoy};
    use gasf_core::time::Micros;

    #[test]
    fn trace_replay_is_lossless_and_ordered() {
        let trace = NamosBuoy::new().tuples(57).seed(5).generate();
        let mut replay = TraceReplay::new(trace.clone()).chunk_sizes([5, 2, 9, 1]);
        assert_eq!(replay.remaining(), 57);
        let mut rebuilt = Vec::new();
        let mut sizes = Vec::new();
        while let Some(chunk) = replay.next_chunk(6).unwrap() {
            sizes.push(chunk.rows());
            match chunk {
                Chunk::Batch(b) => rebuilt.extend(b.materialize()),
                Chunk::Rows(_) => panic!("trace replay is columnar"),
            }
        }
        assert_eq!(rebuilt, trace.tuples());
        // pattern entries clamp to the driver's max_rows (9 → 6)
        assert!(sizes.iter().all(|&s| s <= 6));
        assert!(sizes.contains(&5) && sizes.contains(&2) && sizes.contains(&1));
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn file_replay_round_trips_through_disk() {
        let trace = NamosBuoy::new().tuples(20).seed(9).generate();
        let dir = std::env::temp_dir().join("gasf-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(&path, crate::csv::to_csv(&trace)).unwrap();
        let mut replay = TraceReplay::from_csv_file(&path).unwrap();
        let mut rows = 0;
        while let Some(chunk) = replay.next_chunk(7).unwrap() {
            rows += chunk.rows();
        }
        assert_eq!(rows, 20);
        assert!(TraceReplay::from_csv_file(dir.join("missing.csv")).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arrival_replay_preserves_arrival_order() {
        let trace = NamosBuoy::new().tuples(40).seed(2).generate();
        let arrivals = Disorder::bounded(Micros::from_millis(120))
            .seed(4)
            .apply(&trace);
        let mut replay =
            ArrivalReplay::new(trace.schema().clone(), arrivals.clone()).chunk_sizes([3]);
        let mut rebuilt = Vec::new();
        while let Some(chunk) = replay.next_chunk(64).unwrap() {
            match chunk {
                Chunk::Rows(r) => rebuilt.extend(r),
                Chunk::Batch(_) => panic!("arrival replay is row-form"),
            }
        }
        assert_eq!(rebuilt, arrivals);
    }
}
