//! Group-aware filters (the taxonomy of Ch. 5).
//!
//! A filter that fits group-aware stream filtering (§2.2.2):
//! * is exclusively a data-*selection* filter (its output is a subset of its
//!   input tuples),
//! * offers, for each logical output, a set of quality-equivalent candidate
//!   tuples,
//! * chooses all candidates of an output before any candidate of the next,
//! * can be asked to finish an output early (timely cuts), and
//! * computes candidates online.
//!
//! [`GroupFilter`] expresses these properties one filter at a time; this
//! module provides the paper's four concrete filter types
//! ([`DeltaCompression`] / [`TrendDelta`] / [`MultiAttrDelta`] /
//! [`StratifiedSampler`]) and the [`build_filter`] factory that
//! instantiates them from a [`crate::quality::FilterSpec`]. They are the
//! readable per-filter reference: the engines run the same specs compiled
//! into one fused evaluator ([`crate::plan::CompiledRoster`]), whose arena
//! automata mirror these types statement for statement, and `plan`'s
//! lockstep tests drive both side by side, checking every answer the
//! engine asks of its first stage after every tuple.

mod delta;
mod sampling;

pub use delta::{DeltaCompression, MultiAttrDelta, TrendDelta};
pub use sampling::{ReservoirSampler, StratifiedSampler};

use crate::candidate::{CloseCause, ClosedSet, FilterAction, FilterId, TimeCover};
use crate::error::Error;
use crate::quality::{FilterKind, FilterSpec};
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};
use std::fmt;

/// Result of forcing a filter to close its open candidate set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForceCloseOutcome {
    /// The set that closed, if the filter had committed to an output
    /// (a reference had been identified / a window had content).
    pub closed: Option<ClosedSet>,
    /// Tuples dropped without closure (tentative candidates of an output
    /// the self-interested filter had not committed to either); the engine
    /// decrements their group utility.
    pub dismissed: Vec<TupleId>,
}

/// The contract between a filter and the group-aware engines.
///
/// Implementations must be deterministic given the input stream: the engines
/// replay the paper's two-stage process (admit candidates → decide outputs)
/// and rely on [`FilterAction`] events for all bookkeeping.
pub trait GroupFilter: fmt::Debug + Send {
    /// This filter's identity within its group.
    fn id(&self) -> FilterId;

    /// The specification the filter was built from.
    fn spec(&self) -> &FilterSpec;

    /// Feeds the next stream tuple through the filter's first stage.
    ///
    /// # Errors
    /// Returns [`Error::MissingValue`] if the tuple lacks an attribute this
    /// filter requires.
    fn process(&mut self, tuple: &Tuple) -> Result<FilterAction, Error>;

    /// Forces the open candidate set to finish (timely cut / end of stream).
    fn force_close(&mut self, cause: CloseCause) -> ForceCloseOutcome;

    /// Informs a *stateful* filter which tuple was chosen from its last
    /// closed set (`key` is the derived value recorded for that candidate).
    /// Stateless filters ignore this.
    fn output_chosen(&mut self, id: TupleId, key: f64) {
        let _ = (id, key);
    }

    /// Whether candidate sets depend on previously chosen outputs
    /// (requires the per-candidate-set algorithm).
    fn is_stateful(&self) -> bool {
        false
    }

    /// Whether the self-interested twin of this filter emits at reference
    /// identification (DC filters) rather than at set closure (samplers).
    fn si_emits_at_reference(&self) -> bool {
        true
    }

    /// Time cover of the currently open candidate set, if any — used for
    /// region-readiness checks and cut accounting.
    fn open_cover(&self) -> Option<TimeCover>;

    /// Number of candidates in the currently open set (run-time-prediction
    /// input). The default derives a coarse 0/1 estimate from
    /// [`open_cover`](Self::open_cover); implementations should override it.
    fn open_len(&self) -> usize {
        usize::from(self.open_cover().is_some())
    }

    /// The currently open candidate set, in arrival order (what the
    /// compiled roster's lockstep tests compare a shared set with).
    #[cfg(test)]
    fn open_candidates(&self) -> &[crate::candidate::CandidateTuple];
}

/// Instantiates a concrete filter from a specification.
///
/// # Errors
/// Returns [`Error::InvalidSpec`] for invalid parameters and
/// [`Error::UnknownAttribute`] if the spec references attributes missing
/// from `schema`.
pub fn build_filter(
    spec: &FilterSpec,
    id: FilterId,
    schema: &Schema,
) -> Result<Box<dyn GroupFilter>, Error> {
    spec.validate()?;
    match &spec.kind {
        FilterKind::Delta { attr, .. } => {
            let attr = schema.attr(attr)?;
            Ok(Box::new(DeltaCompression::from_spec(
                spec.clone(),
                id,
                attr,
            )?))
        }
        FilterKind::TrendDelta { attr, .. } => {
            let attr = schema.attr(attr)?;
            Ok(Box::new(TrendDelta::from_spec(spec.clone(), id, attr)?))
        }
        FilterKind::MultiAttrDelta { attrs, .. } => {
            let attrs = attrs
                .iter()
                .map(|a| schema.attr(a))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Box::new(MultiAttrDelta::from_spec(
                spec.clone(),
                id,
                attrs,
            )?))
        }
        FilterKind::Reservoir { attr, .. } => {
            let attr = schema.attr(attr)?;
            Ok(Box::new(ReservoirSampler::from_spec(
                spec.clone(),
                id,
                attr,
            )?))
        }
        FilterKind::StratifiedSample { attr, .. } => {
            let attr = schema.attr(attr)?;
            Ok(Box::new(StratifiedSampler::from_spec(
                spec.clone(),
                id,
                attr,
            )?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::FilterSpec;
    use crate::time::Micros;

    #[test]
    fn factory_builds_each_kind() {
        let schema = Schema::new(["a", "b"]);
        let specs = [
            FilterSpec::delta("a", 1.0, 0.2),
            FilterSpec::trend_delta("a", 1.0, 0.2),
            FilterSpec::multi_attr_delta(["a", "b"], 1.0, 0.2),
            FilterSpec::stratified_sample("a", Micros::from_secs(1), 0.1, 50.0, 20.0),
            FilterSpec::reservoir("a", Micros::from_secs(1), 3),
        ];
        for (i, s) in specs.iter().enumerate() {
            let f = build_filter(s, FilterId::from_index(i), &schema).unwrap();
            assert_eq!(f.id().index(), i);
        }
    }

    #[test]
    fn factory_rejects_unknown_attribute() {
        let schema = Schema::new(["a"]);
        let err = build_filter(
            &FilterSpec::delta("zz", 1.0, 0.2),
            FilterId::from_index(0),
            &schema,
        )
        .unwrap_err();
        assert!(matches!(err, Error::UnknownAttribute { .. }));
    }

    #[test]
    fn factory_rejects_invalid_spec() {
        let schema = Schema::new(["a"]);
        let err = build_filter(
            &FilterSpec::delta("a", 1.0, 0.9),
            FilterId::from_index(0),
            &schema,
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidSpec { .. }));
    }
}
