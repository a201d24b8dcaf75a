//! Lowering: each filter spec becomes its key derivation and its gate,
//! and the roster's keys are shared into common-subexpression classes.

use crate::candidate::FilterId;
use crate::engine::Algorithm;
use crate::error::Error;
use crate::quality::{Dependency, FilterKind, FilterSpec, Prescription};
use crate::schema::{AttrId, Schema};
use crate::time::Micros;
use std::collections::BTreeMap;

/// The derivation of the one scalar a filter compares with its base: the
/// key a [`CompiledRoster`](super::CompiledRoster) class derives once per
/// tuple for every filter that shares it. Structurally equal keys are one
/// class ([`RosterPlan::classes`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Load of one attribute value.
    Attr(AttrId),
    /// Discrete derivative of an attribute per second (the DC2 "trend"
    /// derivation; stateful in the previous sample).
    Trend(AttrId),
    /// Mean of several attribute loads (DC3). The summation order is
    /// semantic — floating-point addition does not commute bit-exactly —
    /// so the list is never reordered. Lowering never builds a
    /// one-attribute mean: `x/1.0 ≡ x` bit-exactly, so that key is
    /// [`Attr`](Expr::Attr) and DC1 and single-attribute DC3 share a
    /// class.
    Mean(Vec<AttrId>),
}

/// The executable gate parameters of one lowered filter — the part of the
/// plan the fused evaluator specializes on: what it does with the key.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// A `(slack, delta)` admission automaton (DC1/DC2/DC3).
    Delta {
        /// Compression granularity.
        delta: f64,
        /// Tolerated deviation.
        slack: f64,
        /// Whether the base tracks the chosen output (vs. the reference).
        stateful: bool,
    },
    /// A fixed-`k`-per-window reservoir gate (RS).
    Reservoir {
        /// Window length used to segment the stream.
        window: Micros,
        /// Samples per window.
        k: u32,
    },
    /// A stratified sampling gate (SS): the window's sample range picks
    /// the high or low rate.
    Stratified {
        /// Window length used to segment the stream.
        window: Micros,
        /// Sample-range threshold separating the strata.
        threshold: f64,
        /// Sampling percentage for high-dynamics windows.
        high_pct: f64,
        /// Sampling percentage for low-dynamics windows.
        low_pct: f64,
        /// Which candidates are eligible.
        prescription: Prescription,
    },
}

impl Gate {
    /// The gate's parameters as raw bits — the half of a *twin key* the
    /// key class does not cover ([`RosterPlan::twin_of`]). Floats compare
    /// by bit pattern, so `0.0` and `-0.0` are different gates (they do
    /// drive the same automaton, but "same bits" needs no argument);
    /// validated specs hold no NaN.
    fn bits(&self) -> [u64; 6] {
        match *self {
            Gate::Delta {
                delta,
                slack,
                stateful,
            } => [0, delta.to_bits(), slack.to_bits(), stateful.into(), 0, 0],
            Gate::Reservoir { window, k } => [1, window.as_micros(), k.into(), 0, 0, 0],
            Gate::Stratified {
                window,
                threshold,
                high_pct,
                low_pct,
                prescription,
            } => [
                2,
                window.as_micros(),
                threshold.to_bits(),
                high_pct.to_bits(),
                low_pct.to_bits(),
                prescription as u64,
            ],
        }
    }
}

/// One filter of the roster, lowered: its key derivation and its gate.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterPlan {
    /// The filter's stable slot id.
    pub id: FilterId,
    /// Derivation of the scalar the filter compares (the CSE unit:
    /// structurally equal keys share one evaluation per tuple).
    pub key: Expr,
    /// The gate parameters the evaluator specializes on.
    pub gate: Gate,
}

impl FilterPlan {
    /// Lowers one validated spec into its plan.
    ///
    /// Under [`Algorithm::SelfInterested`] a stateful delta filter lowers
    /// as its stateless twin (the chosen output *is* the reference, so the
    /// bases coincide) — the same rule the trait-object factory applies.
    ///
    /// # Errors
    /// [`Error::InvalidSpec`] / [`Error::UnknownAttribute`] /
    /// [`Error::InvalidConfig`] exactly as filter instantiation reports
    /// them.
    pub fn lower(
        spec: &FilterSpec,
        id: FilterId,
        schema: &Schema,
        algorithm: Algorithm,
    ) -> Result<FilterPlan, Error> {
        if spec.is_stateful() && algorithm == Algorithm::RegionGreedy {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "filter {id} is stateful; stateful candidate sets require \
                     Algorithm::PerCandidateSet"
                ),
            });
        }
        spec.validate()?;
        let delta_plan = |key: Expr, delta: f64, slack: f64, stateful: bool| FilterPlan {
            id,
            key,
            gate: Gate::Delta {
                delta,
                slack,
                stateful,
            },
        };
        Ok(match &spec.kind {
            FilterKind::Delta {
                attr,
                delta,
                slack,
                dependency,
            } => {
                let stateful =
                    *dependency == Dependency::Stateful && algorithm != Algorithm::SelfInterested;
                delta_plan(Expr::Attr(schema.attr(attr)?), *delta, *slack, stateful)
            }
            FilterKind::TrendDelta { attr, delta, slack } => {
                delta_plan(Expr::Trend(schema.attr(attr)?), *delta, *slack, false)
            }
            FilterKind::MultiAttrDelta {
                attrs,
                delta,
                slack,
            } => {
                let key = match attrs.as_slice() {
                    [attr] => Expr::Attr(schema.attr(attr)?),
                    _ => Expr::Mean(
                        attrs
                            .iter()
                            .map(|a| schema.attr(a))
                            .collect::<Result<_, _>>()?,
                    ),
                };
                delta_plan(key, *delta, *slack, false)
            }
            FilterKind::Reservoir { attr, window, k } => FilterPlan {
                id,
                key: Expr::Attr(schema.attr(attr)?),
                gate: Gate::Reservoir {
                    window: *window,
                    k: *k,
                },
            },
            FilterKind::StratifiedSample {
                attr,
                window,
                threshold,
                high_pct,
                low_pct,
                prescription,
            } => FilterPlan {
                id,
                key: Expr::Attr(schema.attr(attr)?),
                gate: Gate::Stratified {
                    window: *window,
                    threshold: *threshold,
                    high_pct: *high_pct,
                    low_pct: *low_pct,
                    prescription: *prescription,
                },
            },
        })
    }
}

/// The logical plan of a whole roster: every occupied slot lowered, with
/// structurally equal key derivations shared into **classes** (the
/// common-subexpression units — one class evaluates once per tuple, no
/// matter how many filters consume it) and whole filters that are equal
/// folded onto a **leader** ([`twin_of`](Self::twin_of)).
#[derive(Debug, Clone)]
pub struct RosterPlan {
    /// Lowered filters, ascending by slot id.
    pub filters: Vec<FilterPlan>,
    /// Distinct key derivations, ordered by first use.
    pub classes: Vec<Expr>,
    /// `class_of[i]` is the index into [`classes`](Self::classes) of
    /// `filters[i]`'s key.
    pub class_of: Vec<usize>,
    /// `twin_of[i]` is the index into [`filters`](Self::filters) of
    /// `filters[i]`'s **leader**: the lowest-slot filter with the same
    /// key class and a bit-equal [`Gate`] — `i` itself for a filter that
    /// has none below it.
    ///
    /// Under [`Algorithm::RegionGreedy`] and [`Algorithm::SelfInterested`]
    /// a filter's first-stage state is a function of `(class, gate)` and
    /// the stream alone (stateful bases are rejected resp. lowered
    /// stateless, cuts and epoch boundaries close every filter together),
    /// so such *twins* admit, dismiss, reference and close in lockstep
    /// and the evaluator runs the leader only. `latency_tolerance`,
    /// `label` and `shed` are not part of the key: those algorithms read
    /// only the group minimum of the tolerances.
    ///
    /// Under [`Algorithm::PerCandidateSet`] every filter is its own
    /// leader: a set's decision reads the utilities and recent decisions
    /// that sets decided between two twins' slots have changed, a
    /// stateful base follows that decision, and the timely cut runs per
    /// filter on its own tolerance.
    pub twin_of: Vec<usize>,
}

impl RosterPlan {
    /// Lowers a roster (occupied slots, ascending by id) and shares the
    /// key derivations.
    ///
    /// # Errors
    /// The first per-filter lowering error, in slot order.
    pub fn lower<'a>(
        roster: impl IntoIterator<Item = (FilterId, &'a FilterSpec)>,
        schema: &Schema,
        algorithm: Algorithm,
    ) -> Result<RosterPlan, Error> {
        let mut plan = RosterPlan {
            filters: Vec::new(),
            classes: Vec::new(),
            class_of: Vec::new(),
            twin_of: Vec::new(),
        };
        let fold = algorithm != Algorithm::PerCandidateSet;
        // Twin classes found so far, by key; it holds the distinct
        // filters only, however many copies the roster has.
        let mut leaders: BTreeMap<(usize, [u64; 6]), usize> = BTreeMap::new();
        for (id, spec) in roster {
            let fp = FilterPlan::lower(spec, id, schema, algorithm)?;
            let ci = match plan.classes.iter().position(|c| *c == fp.key) {
                Some(ci) => ci,
                None => {
                    plan.classes.push(fp.key.clone());
                    plan.classes.len() - 1
                }
            };
            let i = plan.filters.len();
            let leader = if fold {
                *leaders.entry((ci, fp.gate.bits())).or_insert(i)
            } else {
                i
            };
            plan.class_of.push(ci);
            plan.twin_of.push(leader);
            plan.filters.push(fp);
        }
        Ok(plan)
    }

    /// Number of shared key-derivation classes (≤ number of filters; the
    /// gap is the work CSE eliminates per tuple).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["x", "y"])
    }

    #[test]
    fn single_attr_mean_collapses_and_shares_with_plain_delta() {
        let s = schema();
        let plan = RosterPlan::lower(
            [
                (FilterId::from_index(0), &FilterSpec::delta("x", 10.0, 1.0)),
                (
                    FilterId::from_index(1),
                    &FilterSpec::multi_attr_delta(["x"], 20.0, 2.0),
                ),
                (
                    FilterId::from_index(2),
                    &FilterSpec::multi_attr_delta(["x", "y"], 20.0, 2.0),
                ),
                // Summation order is semantic: a different class.
                (
                    FilterId::from_index(3),
                    &FilterSpec::multi_attr_delta(["y", "x"], 20.0, 2.0),
                ),
                // A trend is not the plain load.
                (
                    FilterId::from_index(4),
                    &FilterSpec::trend_delta("x", 10.0, 1.0),
                ),
            ],
            &s,
            Algorithm::RegionGreedy,
        )
        .unwrap();
        assert_eq!(
            plan.classes,
            vec![
                Expr::Attr(AttrId(0)),
                Expr::Mean(vec![AttrId(0), AttrId(1)]),
                Expr::Mean(vec![AttrId(1), AttrId(0)]),
                Expr::Trend(AttrId(0)),
            ],
            "x, mean(x,y), mean(y,x), trend(x)"
        );
        assert_eq!(plan.class_of, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn stateful_lowers_stateless_under_self_interested() {
        let s = schema();
        let spec = FilterSpec::stateful_delta("x", 10.0, 1.0);
        let si = FilterPlan::lower(
            &spec,
            FilterId::from_index(0),
            &s,
            Algorithm::SelfInterested,
        )
        .unwrap();
        assert!(matches!(
            si.gate,
            Gate::Delta {
                stateful: false,
                ..
            }
        ));
        let ps = FilterPlan::lower(
            &spec,
            FilterId::from_index(0),
            &s,
            Algorithm::PerCandidateSet,
        )
        .unwrap();
        assert!(matches!(ps.gate, Gate::Delta { stateful: true, .. }));
        assert!(
            FilterPlan::lower(&spec, FilterId::from_index(0), &s, Algorithm::RegionGreedy).is_err()
        );
    }
}
