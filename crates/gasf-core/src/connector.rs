//! The connector seam: how external worlds feed the pipeline.
//!
//! Everything inside the middleware speaks interned tuples, columnar
//! batches and [`EmissionSink`](crate::sink::EmissionSink)s; everything
//! outside speaks files, sockets and processes. A [`SourceConnector`] is
//! the trait-shaped boundary on the way in: it pulls the next [`Chunk`]
//! of input from somewhere external (a replayed trace file, a localhost
//! socket, a generator). The **ingest driver owns the pacing**: it asks
//! for at most `max_rows` rows at a time and, when the bounded ingress
//! path answers [`Throttled`](crate::shed::PushOutcome::Throttled),
//! simply stops asking — backpressure propagates to the external
//! producer as "the connector is not being polled" (a file stops being
//! read, a socket's kernel buffer fills).
//!
//! The way out is the sink seam alone: emissions leave an engine through
//! an `EmissionSink`, and the middleware's sink hands them to a
//! `Transport` (the overlay, or a socket in `gasf-wire`).
//!
//! Concrete source connectors live with their dependencies: file replay
//! in `gasf-sources`, the localhost socket in `gasf-wire`.
//!
//! ```rust
//! use gasf_core::connector::{Chunk, SourceConnector};
//! use gasf_core::prelude::*;
//!
//! /// A source connector over an in-memory ordered run.
//! struct VecSource {
//!     schema: Schema,
//!     rows: Vec<Tuple>,
//!     at: usize,
//! }
//!
//! impl SourceConnector for VecSource {
//!     fn schema(&self) -> &Schema {
//!         &self.schema
//!     }
//!
//!     fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Chunk>, gasf_core::Error> {
//!         if self.at == self.rows.len() {
//!             return Ok(None); // EOF
//!         }
//!         let n = max_rows.max(1).min(self.rows.len() - self.at);
//!         let batch = TupleBatch::from_tuples(&self.schema, &self.rows[self.at..self.at + n])?;
//!         self.at += n;
//!         Ok(Some(Chunk::Batch(batch)))
//!     }
//! }
//!
//! # fn main() -> Result<(), gasf_core::Error> {
//! let schema = Schema::new(["t"]);
//! let mut b = TupleBuilder::new(&schema);
//! let rows: Vec<Tuple> = (0..10)
//!     .map(|i| b.at_millis(10 * (i + 1)).set("t", i as f64).build().unwrap())
//!     .collect();
//! let mut src = VecSource { schema: schema.clone(), rows, at: 0 };
//! let mut total = 0;
//! while let Some(chunk) = src.next_chunk(4)? {
//!     total += chunk.rows();
//! }
//! assert_eq!(total, 10);
//! # Ok(())
//! # }
//! ```

use crate::batch::TupleBatch;
use crate::error::Error;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// One unit of input pulled from a [`SourceConnector`].
///
/// Ordered sources hand over columnar [`TupleBatch`]es (dense seqs,
/// non-decreasing timestamps — the hot path); sources replaying
/// *disordered arrivals* cannot satisfy the batch invariants and hand
/// over row-form [`Tuple`]s instead, which the ingest driver routes
/// through the event-time reorder buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Chunk {
    /// A stream-ordered columnar run (fast path).
    Batch(TupleBatch),
    /// Row-form tuples in *arrival* order, possibly disordered
    /// (event-time path).
    Rows(Vec<Tuple>),
}

impl Chunk {
    /// Number of rows carried by the chunk.
    pub fn rows(&self) -> usize {
        match self {
            Chunk::Batch(b) => b.rows(),
            Chunk::Rows(r) => r.len(),
        }
    }

    /// Whether the chunk carries no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }
}

/// An external producer of stream input.
///
/// The contract is pull-based and EOF-terminated: the ingest driver
/// calls [`next_chunk`](Self::next_chunk) repeatedly; `Ok(None)` means
/// the source is exhausted (a clean end-of-stream, after which the
/// driver finishes the pipeline). Transient conditions — an empty
/// socket buffer, a peer mid-reconnect — are represented as `Ok(Some)`
/// of an **empty** chunk or handled inside the connector; errors are
/// reserved for unrecoverable failures.
pub trait SourceConnector {
    /// The schema of the tuples this source produces.
    fn schema(&self) -> &Schema;

    /// Pulls the next chunk, at most `max_rows` rows (`max_rows ≥ 1`;
    /// connectors may return fewer — ragged chunk sizes are legal and
    /// exercised by the round-trip proptests). `None` is end-of-stream.
    ///
    /// # Errors
    /// Unrecoverable connector failure (I/O, framing, validation).
    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Chunk>, Error>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleBuilder;

    #[test]
    fn chunk_row_counts() {
        let schema = Schema::new(["t"]);
        let mut b = TupleBuilder::new(&schema);
        let rows: Vec<Tuple> = (0..3)
            .map(|i| b.at_millis(10 * (i + 1)).set("t", 0.0).build().unwrap())
            .collect();
        let batch = TupleBatch::from_tuples(&schema, &rows).unwrap();
        assert_eq!(Chunk::Batch(batch).rows(), 3);
        assert_eq!(Chunk::Rows(rows).rows(), 3);
        assert!(Chunk::Rows(vec![]).is_empty());
    }
}
