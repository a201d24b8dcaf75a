//! Data-quality and filter specifications.
//!
//! Applications communicate their needs as a *filter specification*: the
//! filter type plus its parameters, and an optional latency tolerance
//! (§2.2.2: "an application needs to choose a filter function and specify its
//! parameters, along with a latency-tolerance parameter"). The middleware
//! propagates these specs toward the sources (Fig. 2.2/3.1) and the engine
//! compiles them into its first stage
//! ([`CompiledRoster`](crate::plan::CompiledRoster)); the per-filter
//! reference ([`build_filter`](crate::filter::build_filter)) instantiates
//! one [`GroupFilter`](crate::filter::GroupFilter) from a spec.

use crate::error::Error;
use crate::shed::ShedHeadroom;
use crate::time::Micros;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether candidate-set computation depends on previously chosen outputs.
///
/// *Stateless* (reference-based) filters compute candidate sets around the
/// reference tuples a self-interested filter would pick (§2.2.3); *stateful*
/// filters base the next candidate set on the tuple actually chosen from the
/// previous one (§2.3.3, Fig. 2.9) and therefore require the
/// per-candidate-set algorithm.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dependency {
    /// Reference-based candidate sets (the default).
    #[default]
    Stateless,
    /// Candidate sets keyed off the previously *chosen* output.
    Stateful,
}

/// Domain-specific rule for which candidates are eligible as outputs
/// (the "prescriptive function" dimension of the taxonomy, Fig. 5.1).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Prescription {
    /// Any candidate may be chosen ("random" in the paper's terms — the
    /// group decides, so nothing is actually random).
    #[default]
    Any,
    /// Only the `k` candidates with the highest attribute values are
    /// eligible, at most one per rank.
    Top,
    /// Only the `k` candidates with the lowest attribute values are
    /// eligible, at most one per rank.
    Bottom,
}

/// How many tuples must be picked from a candidate set
/// (the "degree/quantity/unit" dimension of the taxonomy, Fig. 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PickDegree {
    /// A fixed number of tuples per candidate set.
    Count(u32),
    /// A percentage of the candidate set's size (rounded up, minimum 1).
    Percent(f64),
}

impl PickDegree {
    /// Resolves the degree against a candidate set of `set_len` tuples.
    /// Always returns at least 1 (for non-empty sets) and at most `set_len`.
    pub fn resolve(&self, set_len: usize) -> usize {
        if set_len == 0 {
            return 0;
        }
        match *self {
            PickDegree::Count(n) => (n as usize).clamp(1, set_len),
            PickDegree::Percent(p) => {
                let k = ((p / 100.0) * set_len as f64).ceil() as usize;
                k.clamp(1, set_len)
            }
        }
    }
}

impl Default for PickDegree {
    fn default() -> Self {
        PickDegree::Count(1)
    }
}

/// Output-selection settings of a filter (degree + prescription).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PickSpec {
    /// How many tuples to pick from each candidate set.
    pub degree: PickDegree,
    /// Which candidates are eligible.
    pub prescription: Prescription,
}

impl PickSpec {
    /// The common case: pick exactly one, any candidate.
    pub fn one() -> Self {
        PickSpec::default()
    }
}

/// The filter-function part of a specification (type + parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FilterKind {
    /// DC1: delta compression on a single attribute — emit a representative
    /// whenever the attribute moves by `delta`, tolerating `slack` deviation.
    Delta {
        /// Attribute the filter watches.
        attr: String,
        /// Compression granularity ("delta").
        delta: f64,
        /// Tolerated quality deviation ("slack"), `0 <= slack <= delta/2`.
        slack: f64,
        /// Stateless (reference-based) or stateful candidate sets.
        dependency: Dependency,
    },
    /// DC2: delta compression on the *trend* (discrete derivative per
    /// second) of an attribute.
    TrendDelta {
        /// Attribute whose rate of change the filter watches.
        attr: String,
        /// Granularity on the trend value.
        delta: f64,
        /// Tolerated deviation on the trend value.
        slack: f64,
    },
    /// DC3: delta compression on the mean of several attributes.
    MultiAttrDelta {
        /// Attributes that are averaged (e.g. co-located thermistors).
        attrs: Vec<String>,
        /// Granularity on the averaged value.
        delta: f64,
        /// Tolerated deviation on the averaged value.
        slack: f64,
    },
    /// RS: reservoir sampling over fixed time windows — exactly `k` tuples
    /// per window, any candidates equivalent (§5.1: "reservoir sampling
    /// chooses a fixed number of samples from a given population … the
    /// candidate set of each output tuple is the whole data sequence in a
    /// predefined window"). Useful to bound a subscriber's bandwidth.
    Reservoir {
        /// Attribute recorded as the candidates' derived key.
        attr: String,
        /// Window length used to segment the stream.
        window: Micros,
        /// Samples per window.
        k: u32,
    },
    /// SS: stratified sampling over fixed time windows; the sample range of
    /// `attr` within the window decides whether the high or low rate is used.
    StratifiedSample {
        /// Attribute whose dynamics pick the stratum.
        attr: String,
        /// Window length used to segment the stream.
        window: Micros,
        /// Sample-range threshold separating high- from low-dynamics windows.
        threshold: f64,
        /// Percentage of tuples sampled in high-dynamics windows.
        high_pct: f64,
        /// Percentage of tuples sampled in low-dynamics windows.
        low_pct: f64,
        /// Which candidates are eligible (random/top/bottom).
        prescription: Prescription,
    },
}

/// Complete application-facing filter specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterSpec {
    /// Filter function and parameters.
    pub kind: FilterKind,
    /// Maximum tolerated filtering delay per tuple, if any (drives timely
    /// cuts, Ch. 3).
    pub latency_tolerance: Option<Micros>,
    /// Optional human-readable label used in reports.
    pub label: Option<String>,
    /// Declared load-shedding headroom, if any (§4.8: graceful quality
    /// degradation under pressure). See [`FilterSpec::degraded`].
    pub shed: Option<ShedHeadroom>,
}

impl FilterSpec {
    /// A stateless `(slack, delta)` delta-compression filter (DC1).
    pub fn delta(attr: impl Into<String>, delta: f64, slack: f64) -> Self {
        FilterSpec {
            kind: FilterKind::Delta {
                attr: attr.into(),
                delta,
                slack,
                dependency: Dependency::Stateless,
            },
            latency_tolerance: None,
            label: None,
            shed: None,
        }
    }

    /// A *stateful* delta-compression filter (base = chosen output).
    pub fn stateful_delta(attr: impl Into<String>, delta: f64, slack: f64) -> Self {
        FilterSpec {
            kind: FilterKind::Delta {
                attr: attr.into(),
                delta,
                slack,
                dependency: Dependency::Stateful,
            },
            latency_tolerance: None,
            label: None,
            shed: None,
        }
    }

    /// A trend (rate-of-change) delta-compression filter (DC2).
    pub fn trend_delta(attr: impl Into<String>, delta: f64, slack: f64) -> Self {
        FilterSpec {
            kind: FilterKind::TrendDelta {
                attr: attr.into(),
                delta,
                slack,
            },
            latency_tolerance: None,
            label: None,
            shed: None,
        }
    }

    /// A multi-attribute-average delta-compression filter (DC3).
    pub fn multi_attr_delta<I, S>(attrs: I, delta: f64, slack: f64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FilterSpec {
            kind: FilterKind::MultiAttrDelta {
                attrs: attrs.into_iter().map(Into::into).collect(),
                delta,
                slack,
            },
            latency_tolerance: None,
            label: None,
            shed: None,
        }
    }

    /// A reservoir-sampling filter (RS): `k` tuples per `window`.
    pub fn reservoir(attr: impl Into<String>, window: Micros, k: u32) -> Self {
        FilterSpec {
            kind: FilterKind::Reservoir {
                attr: attr.into(),
                window,
                k,
            },
            latency_tolerance: None,
            label: None,
            shed: None,
        }
    }

    /// A stratified-sampling filter (SS).
    pub fn stratified_sample(
        attr: impl Into<String>,
        window: Micros,
        threshold: f64,
        high_pct: f64,
        low_pct: f64,
    ) -> Self {
        FilterSpec {
            kind: FilterKind::StratifiedSample {
                attr: attr.into(),
                window,
                threshold,
                high_pct,
                low_pct,
                prescription: Prescription::Any,
            },
            latency_tolerance: None,
            label: None,
            shed: None,
        }
    }

    /// Sets the per-tuple latency tolerance (enables timely cuts).
    pub fn with_latency_tolerance(mut self, tolerance: Micros) -> Self {
        self.latency_tolerance = Some(tolerance);
        self
    }

    /// Sets a report label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Declares load-shedding headroom: how far the system may degrade
    /// this subscription's quality under sustained pressure (see
    /// [`FilterSpec::degraded`]). Subscriptions without headroom are
    /// never degraded.
    pub fn with_shed_headroom(mut self, headroom: ShedHeadroom) -> Self {
        self.shed = Some(headroom);
        self
    }

    /// Sets the output-selection prescription (sampling filters only).
    pub fn with_prescription(mut self, p: Prescription) -> Self {
        if let FilterKind::StratifiedSample { prescription, .. } = &mut self.kind {
            *prescription = p;
        }
        self
    }

    /// Validates the parameters against the constraints the algorithms rely
    /// on; called by the engine builder.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSpec`] when
    /// * `delta <= 0` or `slack < 0`,
    /// * `slack > delta / 2` (violates Axiom 1 — time covers of a filter's
    ///   candidate sets must not intersect),
    /// * a sampling window is zero, rates are outside `(0, 100]`, or the
    ///   attribute list of a DC3 filter is empty.
    pub fn validate(&self) -> Result<(), Error> {
        if let Some(headroom) = &self.shed {
            headroom.validate()?;
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // negation is deliberate: rejects NaN too
        fn check_delta_slack(delta: f64, slack: f64) -> Result<(), Error> {
            if !(delta > 0.0) {
                return Err(Error::InvalidSpec {
                    reason: format!("delta must be positive, got {delta}"),
                });
            }
            if !(slack >= 0.0) {
                return Err(Error::InvalidSpec {
                    reason: format!("slack must be non-negative, got {slack}"),
                });
            }
            if slack > delta / 2.0 {
                return Err(Error::InvalidSpec {
                    reason: format!(
                        "slack {slack} exceeds delta/2 = {}; candidate-set time \
                         covers could intersect (Axiom 1)",
                        delta / 2.0
                    ),
                });
            }
            Ok(())
        }
        match &self.kind {
            FilterKind::Delta { delta, slack, .. }
            | FilterKind::TrendDelta { delta, slack, .. } => check_delta_slack(*delta, *slack),
            FilterKind::MultiAttrDelta {
                attrs,
                delta,
                slack,
            } => {
                if attrs.is_empty() {
                    return Err(Error::InvalidSpec {
                        reason: "multi-attribute filter needs at least one attribute".into(),
                    });
                }
                check_delta_slack(*delta, *slack)
            }
            FilterKind::Reservoir { window, k, .. } => {
                if *window == Micros::ZERO {
                    return Err(Error::InvalidSpec {
                        reason: "reservoir window must be positive".into(),
                    });
                }
                if *k == 0 {
                    return Err(Error::InvalidSpec {
                        reason: "reservoir size must be at least 1".into(),
                    });
                }
                Ok(())
            }
            FilterKind::StratifiedSample {
                window,
                threshold,
                high_pct,
                low_pct,
                ..
            } => {
                if *window == Micros::ZERO {
                    return Err(Error::InvalidSpec {
                        reason: "sampling window must be positive".into(),
                    });
                }
                #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: rejects NaN
                if !(*threshold >= 0.0) {
                    return Err(Error::InvalidSpec {
                        reason: "sample-range threshold must be non-negative".into(),
                    });
                }
                for (name, pct) in [("high", *high_pct), ("low", *low_pct)] {
                    if !(pct > 0.0 && pct <= 100.0) {
                        return Err(Error::InvalidSpec {
                            reason: format!("{name} sample rate must be in (0, 100], got {pct}"),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// Whether the spec describes a stateful filter.
    pub fn is_stateful(&self) -> bool {
        matches!(
            self.kind,
            FilterKind::Delta {
                dependency: Dependency::Stateful,
                ..
            }
        )
    }
}

/// Formats a parameter compactly (4 significant-ish digits, scientific
/// notation for extreme magnitudes) for spec displays.
fn fmt_param(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() < 1e-3 || x.abs() >= 1e4 {
        format!("{x:.3e}")
    } else if x.fract() == 0.0 {
        format!("{x}")
    } else {
        let s = format!("{x:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            return write!(f, "{label}");
        }
        match &self.kind {
            FilterKind::Delta {
                attr,
                delta,
                slack,
                dependency,
            } => {
                let tag = match dependency {
                    Dependency::Stateless => "DC1",
                    Dependency::Stateful => "DC1*",
                };
                write!(
                    f,
                    "{tag}({attr}, {}, {})",
                    fmt_param(*delta),
                    fmt_param(*slack)
                )
            }
            FilterKind::TrendDelta { attr, delta, slack } => {
                write!(
                    f,
                    "DC2({attr}, {}, {})",
                    fmt_param(*delta),
                    fmt_param(*slack)
                )
            }
            FilterKind::MultiAttrDelta {
                attrs,
                delta,
                slack,
            } => write!(
                f,
                "DC3({}, {}, {})",
                attrs.join(", "),
                fmt_param(*delta),
                fmt_param(*slack)
            ),
            FilterKind::Reservoir { attr, window, k } => {
                write!(f, "RS({attr}, {window}, {k})")
            }
            FilterKind::StratifiedSample {
                attr,
                window,
                threshold,
                high_pct,
                low_pct,
                ..
            } => write!(
                f,
                "SS({attr}, {window}, {}, {}, {})",
                fmt_param(*threshold),
                fmt_param(*high_pct),
                fmt_param(*low_pct)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_spec_validates_axiom_1() {
        assert!(FilterSpec::delta("t", 50.0, 10.0).validate().is_ok());
        assert!(FilterSpec::delta("t", 50.0, 25.0).validate().is_ok()); // slack == delta/2 allowed
        assert!(FilterSpec::delta("t", 50.0, 26.0).validate().is_err());
        assert!(FilterSpec::delta("t", 0.0, 0.0).validate().is_err());
        assert!(FilterSpec::delta("t", 50.0, -1.0).validate().is_err());
        assert!(FilterSpec::delta("t", f64::NAN, 1.0).validate().is_err());
    }

    #[test]
    fn sampling_spec_validation() {
        let ok = FilterSpec::stratified_sample("t", Micros::from_secs(1), 0.15, 50.0, 20.0);
        assert!(ok.validate().is_ok());
        let bad_window = FilterSpec::stratified_sample("t", Micros::ZERO, 0.1, 50.0, 20.0);
        assert!(bad_window.validate().is_err());
        let bad_rate = FilterSpec::stratified_sample("t", Micros::from_secs(1), 0.1, 0.0, 20.0);
        assert!(bad_rate.validate().is_err());
        let bad_rate2 = FilterSpec::stratified_sample("t", Micros::from_secs(1), 0.1, 120.0, 20.0);
        assert!(bad_rate2.validate().is_err());
    }

    #[test]
    fn multi_attr_needs_attrs() {
        let empty: Vec<String> = vec![];
        assert!(FilterSpec::multi_attr_delta(empty, 1.0, 0.1)
            .validate()
            .is_err());
        assert!(FilterSpec::multi_attr_delta(["a", "b"], 1.0, 0.1)
            .validate()
            .is_ok());
    }

    #[test]
    fn pick_degree_resolution() {
        assert_eq!(PickDegree::Count(2).resolve(5), 2);
        assert_eq!(PickDegree::Count(9).resolve(5), 5);
        assert_eq!(PickDegree::Count(0).resolve(5), 1);
        assert_eq!(PickDegree::Percent(40.0).resolve(5), 2);
        assert_eq!(PickDegree::Percent(1.0).resolve(5), 1);
        assert_eq!(PickDegree::Percent(100.0).resolve(5), 5);
        assert_eq!(PickDegree::Count(1).resolve(0), 0);
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = FilterSpec::delta("fluoro", 0.0301, 0.015);
        assert_eq!(s.to_string(), "DC1(fluoro, 0.0301, 0.015)");
        let s = FilterSpec::multi_attr_delta(["t2", "t4"], 0.03, 0.015);
        assert_eq!(s.to_string(), "DC3(t2, t4, 0.03, 0.015)");
        let labeled = FilterSpec::delta("x", 1.0, 0.1).with_label("mine");
        assert_eq!(labeled.to_string(), "mine");
        assert!(FilterSpec::stateful_delta("x", 1.0, 0.1)
            .to_string()
            .contains("DC1*"));
    }

    #[test]
    fn statefulness_flag() {
        assert!(!FilterSpec::delta("x", 1.0, 0.1).is_stateful());
        assert!(FilterSpec::stateful_delta("x", 1.0, 0.1).is_stateful());
    }

    #[test]
    fn builder_style_modifiers() {
        let s = FilterSpec::delta("x", 1.0, 0.1)
            .with_latency_tolerance(Micros::from_millis(100))
            .with_label("L");
        assert_eq!(s.latency_tolerance, Some(Micros::from_millis(100)));
        assert_eq!(s.label.as_deref(), Some("L"));
        let ss = FilterSpec::stratified_sample("x", Micros::from_secs(1), 0.1, 50.0, 20.0)
            .with_prescription(Prescription::Top);
        match ss.kind {
            FilterKind::StratifiedSample { prescription, .. } => {
                assert_eq!(prescription, Prescription::Top)
            }
            _ => panic!(),
        }
        // with_prescription is a no-op for non-sampling filters
        let d = FilterSpec::delta("x", 1.0, 0.1).with_prescription(Prescription::Top);
        assert!(matches!(d.kind, FilterKind::Delta { .. }));
    }
}
