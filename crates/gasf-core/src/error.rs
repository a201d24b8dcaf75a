//! Error type for the `gasf-core` crate.

use std::fmt;

/// Errors produced by gasf-core APIs.
///
/// All public fallible functions in this crate return `Result<_, Error>`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An attribute name was not found in the [`Schema`](crate::schema::Schema).
    UnknownAttribute {
        /// The attribute name that failed to resolve.
        name: String,
    },
    /// A tuple's value vector did not match the schema width.
    SchemaMismatch {
        /// Number of attributes the schema defines.
        expected: usize,
        /// Number of values the tuple carried.
        actual: usize,
    },
    /// Tuples must arrive in non-decreasing timestamp order (equal
    /// timestamps are legal; dense sequence numbers are the tiebreak).
    OutOfOrder {
        /// Timestamp of the previously accepted tuple (microseconds).
        last_us: u64,
        /// Timestamp of the offending tuple (microseconds).
        got_us: u64,
    },
    /// A filter specification violated a validity constraint.
    InvalidSpec {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The engine configuration is inconsistent
    /// (e.g. stateful filters with the region-based algorithm).
    InvalidConfig {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// Tuple sequence numbers must be dense (each exactly one more than the
    /// previous) so that candidate-set contiguity is well defined.
    NonContiguousSeq {
        /// The sequence number the engine expected.
        expected: u64,
        /// The sequence number the tuple carried.
        got: u64,
    },
    /// `push` was called after `finish`.
    Finished,
    /// A filter id does not name a live member of the group (never
    /// assigned, or already removed by the subscription control plane).
    UnknownFilter {
        /// The unknown or vacated filter id.
        id: crate::candidate::FilterId,
    },
    /// A tuple was missing a value for an attribute a filter needs.
    MissingValue {
        /// The attribute index whose value was NaN/absent.
        attr: usize,
        /// Sequence number of the offending tuple.
        seq: u64,
    },
    /// A source or sink connector failed (I/O, framing, or transport).
    Connector {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A [`ShardedEngine`](crate::shard::ShardedEngine) worker thread died.
    /// The engine is poisoned with this error; recovery is a restore
    /// from the last checkpoint.
    ShardFailed {
        /// Index of the dead worker's shard.
        shard: usize,
        /// The worker's panic message.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute { name } => {
                write!(f, "unknown attribute `{name}`")
            }
            Error::SchemaMismatch { expected, actual } => {
                write!(f, "schema expects {expected} values, tuple has {actual}")
            }
            Error::OutOfOrder { last_us, got_us } => write!(
                f,
                "out-of-order tuple: timestamp {got_us}us not after {last_us}us"
            ),
            Error::NonContiguousSeq { expected, got } => {
                write!(
                    f,
                    "non-contiguous sequence number: expected {expected}, got {got}"
                )
            }
            Error::InvalidSpec { reason } => write!(f, "invalid filter spec: {reason}"),
            Error::InvalidConfig { reason } => write!(f, "invalid engine config: {reason}"),
            Error::Finished => write!(f, "engine already finished"),
            Error::UnknownFilter { id } => write!(f, "unknown filter {id}"),
            Error::MissingValue { attr, seq } => {
                write!(f, "tuple {seq} has no value for attribute #{attr}")
            }
            Error::Connector { reason } => write!(f, "connector failure: {reason}"),
            Error::ShardFailed { shard, reason } => {
                write!(f, "shard worker {shard} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::UnknownAttribute { name: "x".into() };
        let s = e.to_string();
        assert!(s.starts_with("unknown attribute"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn out_of_order_message_mentions_both_timestamps() {
        let e = Error::OutOfOrder {
            last_us: 10,
            got_us: 5,
        };
        let s = e.to_string();
        assert!(s.contains("10us") && s.contains("5us"));
    }
}
