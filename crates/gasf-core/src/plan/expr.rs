//! The typed expression IR filters lower into, and the logical-plan
//! optimizer that hoists loads, normalizes comparisons and shares common
//! subexpressions across a roster.

use crate::candidate::FilterId;
use crate::engine::Algorithm;
use crate::error::Error;
use crate::quality::{Dependency, FilterKind, FilterSpec, Prescription};
use crate::schema::{AttrId, Schema};
use crate::time::Micros;
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt;

/// A typed expression over one stream tuple plus a filter's comparison
/// base (its last reference / last chosen output).
///
/// This is the lowering target of every [`FilterSpec`] kind — the grammar
/// is exactly what the paper's filter taxonomy needs: attribute loads
/// (plain, trend, mean), the last-emitted-value reference ([`Base`](Expr::Base)),
/// absolute deltas compared against thresholds with slack, time-window
/// membership, and boolean combination. Expressions exist for plan
/// construction, CSE identity and documentation; execution uses the
/// specialized arenas of [`CompiledRoster`](super::CompiledRoster), which
/// are derived from the same plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Load of one attribute value.
    Attr(AttrId),
    /// Discrete derivative of an attribute per second (the DC2 "trend"
    /// derivation; stateful in the previous sample).
    Trend(AttrId),
    /// Mean of several attribute loads (DC3). The summation order is
    /// semantic — floating-point addition does not commute bit-exactly —
    /// so the list is never reordered.
    Mean(Vec<AttrId>),
    /// The filter's comparison base: the last reference value (stateless)
    /// or the last chosen output value (stateful).
    Base,
    /// A literal.
    Const(f64),
    /// `|a − b|`.
    AbsDelta(Box<Expr>, Box<Expr>),
    /// `a ≥ b` (1.0 / 0.0).
    Ge(Box<Expr>, Box<Expr>),
    /// `a ≤ b` (1.0 / 0.0).
    Le(Box<Expr>, Box<Expr>),
    /// Whether the tuple's timestamp falls in the filter's currently open
    /// sampling window of the given length (window-gate membership).
    InWindow(Micros),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
}

impl Expr {
    /// Normalizes the expression into the canonical form the planner
    /// shares subexpressions over:
    ///
    /// * constants fold (`|c₁ − c₂|` → literal);
    /// * a single-attribute mean collapses to the plain load (`x/1.0 ≡ x`
    ///   bit-exactly, so DC1 and single-attribute DC3 share one class);
    /// * threshold comparisons are normalized with the derived value on
    ///   the **left** and the threshold on the right (`c ≥ x` ⇒ `x ≤ c`),
    ///   so equal checks become structurally equal;
    /// * nested conjunctions/disjunctions flatten, duplicate branches
    ///   drop, and single-branch combinators unwrap.
    #[must_use]
    pub fn normalize(self) -> Expr {
        match self {
            Expr::Mean(attrs) if attrs.len() == 1 => Expr::Attr(attrs[0]),
            Expr::AbsDelta(a, b) => match (a.normalize(), b.normalize()) {
                (Expr::Const(a), Expr::Const(b)) => Expr::Const((a - b).abs()),
                (a, b) => Expr::AbsDelta(Box::new(a), Box::new(b)),
            },
            Expr::Ge(a, b) => match (a.normalize(), b.normalize()) {
                (Expr::Const(c), x) => Expr::Le(Box::new(x), Box::new(Expr::Const(c))),
                (a, b) => Expr::Ge(Box::new(a), Box::new(b)),
            },
            Expr::Le(a, b) => match (a.normalize(), b.normalize()) {
                (Expr::Const(c), x) => Expr::Ge(Box::new(x), Box::new(Expr::Const(c))),
                (a, b) => Expr::Le(Box::new(a), Box::new(b)),
            },
            Expr::And(xs) => normalize_variadic(xs, true),
            Expr::Or(xs) => normalize_variadic(xs, false),
            other => other,
        }
    }

    /// Evaluates a *pure* expression against one tuple and a base value;
    /// booleans are 1.0/0.0. Returns `None` for stateful nodes
    /// ([`Trend`](Expr::Trend), [`InWindow`](Expr::InWindow) — those only
    /// evaluate inside a [`CompiledRoster`](super::CompiledRoster), which
    /// owns their state) and for missing attribute values.
    pub fn eval_pure(&self, tuple: &Tuple, base: f64) -> Option<f64> {
        match self {
            Expr::Attr(a) => tuple.require(*a).ok(),
            Expr::Trend(_) | Expr::InWindow(_) => None,
            Expr::Mean(attrs) => {
                let mut sum = 0.0;
                for a in attrs {
                    sum += tuple.require(*a).ok()?;
                }
                Some(sum / attrs.len() as f64)
            }
            Expr::Base => Some(base),
            Expr::Const(c) => Some(*c),
            Expr::AbsDelta(a, b) => {
                Some((a.eval_pure(tuple, base)? - b.eval_pure(tuple, base)?).abs())
            }
            Expr::Ge(a, b) => Some(f64::from(
                a.eval_pure(tuple, base)? >= b.eval_pure(tuple, base)?,
            )),
            Expr::Le(a, b) => Some(f64::from(
                a.eval_pure(tuple, base)? <= b.eval_pure(tuple, base)?,
            )),
            Expr::And(xs) => {
                for x in xs {
                    if x.eval_pure(tuple, base)? == 0.0 {
                        return Some(0.0);
                    }
                }
                Some(1.0)
            }
            Expr::Or(xs) => {
                for x in xs {
                    if x.eval_pure(tuple, base)? != 0.0 {
                        return Some(1.0);
                    }
                }
                Some(0.0)
            }
        }
    }
}

/// Shared normalization of `And`/`Or`: flatten, dedupe, unwrap.
fn normalize_variadic(xs: Vec<Expr>, conjunction: bool) -> Expr {
    let mut flat: Vec<Expr> = Vec::with_capacity(xs.len());
    for x in xs {
        match x.normalize() {
            Expr::And(inner) if conjunction => flat.extend(inner),
            Expr::Or(inner) if !conjunction => flat.extend(inner),
            other => flat.push(other),
        }
    }
    let mut dedup: Vec<Expr> = Vec::with_capacity(flat.len());
    for x in flat {
        if !dedup.contains(&x) {
            dedup.push(x);
        }
    }
    match dedup.len() {
        0 => Expr::Const(if conjunction { 1.0 } else { 0.0 }),
        1 => dedup.into_iter().next().expect("len checked"),
        _ if conjunction => Expr::And(dedup),
        _ => Expr::Or(dedup),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(f: &mut fmt::Formatter<'_>, xs: &[Expr], sep: &str) -> fmt::Result {
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, "{sep}")?;
                }
                write!(f, "{x}")?;
            }
            Ok(())
        }
        match self {
            Expr::Attr(a) => write!(f, "a{}", a.index()),
            Expr::Trend(a) => write!(f, "trend(a{})", a.index()),
            Expr::Mean(attrs) => {
                write!(f, "mean(")?;
                for (i, a) in attrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "a{}", a.index())?;
                }
                write!(f, ")")
            }
            Expr::Base => write!(f, "base"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::AbsDelta(a, b) => write!(f, "|{a} - {b}|"),
            Expr::Ge(a, b) => write!(f, "{a} >= {b}"),
            Expr::Le(a, b) => write!(f, "{a} <= {b}"),
            Expr::InWindow(w) => write!(f, "win({w})"),
            Expr::And(xs) => {
                write!(f, "(")?;
                list(f, xs, " && ")?;
                write!(f, ")")
            }
            Expr::Or(xs) => {
                write!(f, "(")?;
                list(f, xs, " || ")?;
                write!(f, ")")
            }
        }
    }
}

/// The executable gate parameters of one lowered filter — the part of the
/// plan the fused evaluator specializes on (the admission [`Expr`] is the
/// same predicate in IR form).
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

/// One filter of the roster, lowered: its key derivation, its admission
/// predicate (both normalized IR) and the executable gate parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterPlan {
    /// The filter's stable slot id.
    pub id: FilterId,
    /// Normalized derivation of the scalar the filter compares (the CSE
    /// unit: structurally equal keys share one evaluation per tuple).
    pub key: Expr,
    /// Normalized admission predicate over `key` and [`Expr::Base`].
    pub admit: Expr,
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
        let delta_plan = |key: Expr, delta: f64, slack: f64, stateful: bool| {
            // Admitted ⇔ far enough from the base to qualify for the next
            // set (searching/tentative), or inside the slack vicinity of
            // the current reference.
            let dist = Expr::AbsDelta(Box::new(key.clone()), Box::new(Expr::Base));
            let admit = Expr::Or(vec![
                Expr::Ge(Box::new(dist.clone()), Box::new(Expr::Const(delta - slack))),
                Expr::Le(Box::new(dist), Box::new(Expr::Const(slack))),
            ])
            .normalize();
            FilterPlan {
                id,
                key: key.normalize(),
                admit,
                gate: Gate::Delta {
                    delta,
                    slack,
                    stateful,
                },
            }
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
                let attrs = attrs
                    .iter()
                    .map(|a| schema.attr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                delta_plan(Expr::Mean(attrs), *delta, *slack, false)
            }
            FilterKind::Reservoir { attr, window, k } => FilterPlan {
                id,
                key: Expr::Attr(schema.attr(attr)?).normalize(),
                admit: Expr::InWindow(*window).normalize(),
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
                key: Expr::Attr(schema.attr(attr)?).normalize(),
                admit: Expr::InWindow(*window).normalize(),
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
    /// Distinct normalized key derivations, ordered by first use.
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
    use crate::tuple::TupleBuilder;

    fn schema() -> Schema {
        Schema::new(["x", "y"])
    }

    #[test]
    fn threshold_comparisons_normalize_to_value_on_the_left() {
        let x = Expr::Attr(AttrId(0));
        let e = Expr::Ge(Box::new(Expr::Const(5.0)), Box::new(x.clone()));
        assert_eq!(
            e.normalize(),
            Expr::Le(Box::new(x), Box::new(Expr::Const(5.0)))
        );
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
            ],
            &s,
            Algorithm::RegionGreedy,
        )
        .unwrap();
        assert_eq!(plan.class_count(), 2, "x and mean(x,y)");
        assert_eq!(plan.class_of, vec![0, 0, 1]);
    }

    #[test]
    fn and_or_flatten_dedupe_and_unwrap() {
        let a = Expr::Attr(AttrId(0));
        let e = Expr::And(vec![
            Expr::And(vec![a.clone(), a.clone()]),
            Expr::And(vec![a.clone()]),
        ]);
        assert_eq!(e.normalize(), a);
        assert_eq!(Expr::Or(vec![]).normalize(), Expr::Const(0.0));
    }

    #[test]
    fn admit_predicate_matches_the_automaton_regions() {
        // delta 10, slack 2 over base 0: admitted iff |v| >= 8 or |v| <= 2.
        let s = schema();
        let plan = FilterPlan::lower(
            &FilterSpec::delta("x", 10.0, 2.0),
            FilterId::from_index(0),
            &s,
            Algorithm::RegionGreedy,
        )
        .unwrap();
        let mut b = TupleBuilder::new(&s);
        for (v, admit) in [(0.5, 1.0), (5.0, 0.0), (8.0, 1.0), (12.0, 1.0)] {
            let t = b.at_millis(10).set("x", v).set("y", 0.0).build().unwrap();
            assert_eq!(plan.admit.eval_pure(&t, 0.0), Some(admit), "v={v}");
        }
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

    #[test]
    fn display_renders_the_ir_grammar() {
        let s = schema();
        let plan = FilterPlan::lower(
            &FilterSpec::delta("x", 10.0, 2.0),
            FilterId::from_index(0),
            &s,
            Algorithm::RegionGreedy,
        )
        .unwrap();
        assert_eq!(plan.key.to_string(), "a0");
        assert_eq!(
            plan.admit.to_string(),
            "(|a0 - base| >= 8 || |a0 - base| <= 2)"
        );
    }
}
