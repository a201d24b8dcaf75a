//! Quality-aware load shedding: declared headroom and the degradation
//! ladder.
//!
//! §4.8 of the paper names three remedies for a congested filtering
//! stage — flow-control filters in the input buffer, aggressive sampling
//! to shed load, and *graceful degradation of the filters' quality
//! requirements*. The third is the one only a quality-aware middleware
//! can offer: applications already state slack the system may exploit
//! (that is the whole premise of group-aware filtering), so under
//! pressure the system can **widen candidate sets or lower sampling
//! degrees inside each subscription's declared tolerance** before a
//! single tuple is dropped.
//!
//! This module is the engine-facing half of that mechanism:
//!
//! * [`PushOutcome`] — the credit-based admission verdict bounded
//!   ingress paths return ([`Accepted`](PushOutcome::Accepted) /
//!   [`Throttled`](PushOutcome::Throttled)), surfaced to connectors so
//!   *they* hold data back instead of an unbounded queue absorbing it;
//! * [`ShedHeadroom`] — the application's declaration of how far its
//!   [`FilterSpec`] may be degraded (attached via
//!   [`FilterSpec::with_shed_headroom`]);
//! * [`FilterSpec::degraded`] — the pure **degradation ladder**: rung 0
//!   is the spec itself (byte-identical), higher rungs interpolate
//!   toward the declared floor. Every rung is a valid spec, so the
//!   subscription control plane can apply it like any retune.
//!
//! The policy half — *when* to climb or descend the ladder — lives in
//! `gasf-solar`'s `Shedder`, next to the credit gate that produces the
//! pressure signal.

use crate::quality::{FilterKind, FilterSpec};
use serde::{Deserialize, Serialize};

/// Admission verdict of a credit-gated push.
///
/// A bounded ingress path (the middleware's `Pipeline::offer`) admits a
/// tuple only while credits remain; otherwise the input is **not
/// consumed** and the caller — typically a
/// [`SourceConnector`](crate::connector::SourceConnector) driver — must
/// retry the same row once credit returns, or decide to shed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Throttled outcome means the input was NOT consumed"]
pub enum PushOutcome {
    /// The input was admitted (one credit per row was consumed).
    Accepted,
    /// No credit: the input was left with the caller, byte-untouched.
    Throttled,
}

impl PushOutcome {
    /// Whether the input was admitted.
    pub fn is_accepted(self) -> bool {
        matches!(self, PushOutcome::Accepted)
    }
}

/// Degradation headroom declared by an application: how far (and along
/// which axis) the system may degrade the subscription's quality under
/// sustained pressure. Attached to a spec with
/// [`FilterSpec::with_shed_headroom`]; subscriptions without headroom
/// are never degraded.
///
/// The ladder has `rungs + 1` operating points: rung 0 is the spec as
/// subscribed, rung `rungs` sits at the declared floor, intermediate
/// rungs interpolate linearly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedHeadroom {
    /// Number of degradation rungs above the operating point (≥ 1).
    pub rungs: u8,
    /// Delta-family filters: the slack ceiling the application
    /// tolerates. `None` defaults to `delta / 2` — the Axiom-1 maximum,
    /// where consecutive candidate sets touch without intersecting.
    /// Values above `delta / 2` are clamped to it.
    pub max_slack: Option<f64>,
    /// Sampling filters: the floor as a fraction of the operating
    /// point, in `(0, 1]` — reservoir `k` and stratified rates are
    /// lowered toward `operating · floor_fraction`. `None` defaults
    /// to `0.25`.
    pub floor_fraction: Option<f64>,
}

impl ShedHeadroom {
    /// Headroom with `rungs` rungs and default floors (`delta/2` slack
    /// ceiling, `0.25` sampling floor).
    pub fn rungs(rungs: u8) -> Self {
        ShedHeadroom {
            rungs: rungs.max(1),
            max_slack: None,
            floor_fraction: None,
        }
    }

    /// Sets the slack ceiling for delta-family filters.
    pub fn with_max_slack(mut self, max_slack: f64) -> Self {
        self.max_slack = Some(max_slack);
        self
    }

    /// Sets the sampling floor fraction.
    pub fn with_floor_fraction(mut self, floor: f64) -> Self {
        self.floor_fraction = Some(floor);
        self
    }

    /// Validates the declaration (called from [`FilterSpec::validate`]).
    pub(crate) fn validate(&self) -> Result<(), crate::error::Error> {
        if self.rungs == 0 {
            return Err(crate::error::Error::InvalidSpec {
                reason: "shed headroom needs at least one rung".into(),
            });
        }
        if let Some(s) = self.max_slack {
            // `s < 0.0` alone would wave NaN through.
            if s.is_nan() || s < 0.0 {
                return Err(crate::error::Error::InvalidSpec {
                    reason: format!("shed max_slack must be non-negative, got {s}"),
                });
            }
        }
        if let Some(fr) = self.floor_fraction {
            if !(fr > 0.0 && fr <= 1.0) {
                return Err(crate::error::Error::InvalidSpec {
                    reason: format!("shed floor_fraction must be in (0, 1], got {fr}"),
                });
            }
        }
        Ok(())
    }
}

/// Linear interpolation from `from` (rung 0) to `to` (rung `rungs`).
fn ladder(from: f64, to: f64, rung: u8, rungs: u8) -> f64 {
    from + (to - from) * (rung as f64 / rungs as f64)
}

impl FilterSpec {
    /// The spec at one rung of its degradation ladder.
    ///
    /// * Rung 0 is **exactly** this spec (a plain clone) — a shedder
    ///   that never sees pressure never changes anything.
    /// * Rungs `1..=headroom.rungs` interpolate toward the declared
    ///   floor: delta-family slack widens toward the ceiling (wider
    ///   candidate sets → more multicast sharing), reservoir `k` and
    ///   stratified rates drop toward the floor (fewer tuples per
    ///   window). Rungs above the ladder clamp to the top rung.
    /// * Every returned spec still passes [`validate`](Self::validate)
    ///   and keeps its headroom, label and latency tolerance.
    ///
    /// Returns `None` when the subscription declared no headroom and
    /// `rung > 0` — such subscriptions must never be degraded.
    pub fn degraded(&self, rung: u8) -> Option<FilterSpec> {
        if rung == 0 {
            return Some(self.clone());
        }
        let headroom = self.shed?;
        let rungs = headroom.rungs.max(1);
        let rung = rung.min(rungs);
        let mut spec = self.clone();
        match &mut spec.kind {
            FilterKind::Delta { delta, slack, .. }
            | FilterKind::TrendDelta { delta, slack, .. }
            | FilterKind::MultiAttrDelta { delta, slack, .. } => {
                let cap = *delta / 2.0;
                let ceiling = headroom.max_slack.unwrap_or(cap).min(cap);
                if ceiling > *slack {
                    *slack = ladder(*slack, ceiling, rung, rungs);
                }
            }
            FilterKind::Reservoir { k, .. } => {
                let fraction = headroom.floor_fraction.unwrap_or(0.25);
                let floor = ((*k as f64 * fraction).ceil() as u32).clamp(1, *k);
                *k = (ladder(*k as f64, floor as f64, rung, rungs).round() as u32).clamp(floor, *k);
            }
            FilterKind::StratifiedSample {
                high_pct, low_pct, ..
            } => {
                let fraction = headroom.floor_fraction.unwrap_or(0.25);
                for pct in [high_pct, low_pct] {
                    let floor = (*pct * fraction).max(f64::MIN_POSITIVE);
                    *pct = ladder(*pct, floor, rung, rungs).clamp(floor, 100.0);
                }
            }
        }
        Some(spec)
    }

    /// The declared degradation headroom, if any.
    pub fn shed_headroom(&self) -> Option<ShedHeadroom> {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Micros;

    #[test]
    fn rung_zero_is_identity_without_headroom() {
        let spec = FilterSpec::delta("t", 2.0, 0.5);
        assert_eq!(spec.degraded(0), Some(spec.clone()));
        assert_eq!(spec.degraded(1), None, "no headroom, no degradation");
    }

    #[test]
    fn delta_ladder_widens_slack_to_the_axiom_cap() {
        let spec = FilterSpec::delta("t", 2.0, 0.5).with_shed_headroom(ShedHeadroom::rungs(4));
        let slacks: Vec<f64> = (0..=5)
            .map(|r| match spec.degraded(r).unwrap().kind {
                FilterKind::Delta { slack, .. } => slack,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slacks[0], 0.5);
        assert_eq!(slacks[4], 1.0, "top rung hits delta/2");
        assert_eq!(slacks[5], 1.0, "rungs clamp to the ladder top");
        assert!(
            slacks.windows(2).all(|w| w[1] >= w[0]),
            "monotone: {slacks:?}"
        );
        for r in 0..=5 {
            spec.degraded(r).unwrap().validate().unwrap();
        }
    }

    #[test]
    fn delta_ladder_respects_declared_ceiling() {
        let spec = FilterSpec::delta("t", 2.0, 0.5)
            .with_shed_headroom(ShedHeadroom::rungs(2).with_max_slack(0.8));
        match spec.degraded(2).unwrap().kind {
            FilterKind::Delta { slack, .. } => assert_eq!(slack, 0.8),
            _ => unreachable!(),
        }
        // a ceiling below the operating slack degrades nothing
        let tight = FilterSpec::delta("t", 2.0, 0.9)
            .with_shed_headroom(ShedHeadroom::rungs(2).with_max_slack(0.1));
        match tight.degraded(2).unwrap().kind {
            FilterKind::Delta { slack, .. } => assert_eq!(slack, 0.9),
            _ => unreachable!(),
        }
    }

    #[test]
    fn reservoir_ladder_lowers_k_to_the_floor() {
        let spec = FilterSpec::reservoir("t", Micros::from_secs(1), 8)
            .with_shed_headroom(ShedHeadroom::rungs(4).with_floor_fraction(0.25));
        let ks: Vec<u32> = (0..=4)
            .map(|r| match spec.degraded(r).unwrap().kind {
                FilterKind::Reservoir { k, .. } => k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ks[0], 8);
        assert_eq!(ks[4], 2, "floor = ceil(8 * 0.25)");
        assert!(ks.windows(2).all(|w| w[1] <= w[0]), "monotone: {ks:?}");
        for r in 0..=4 {
            spec.degraded(r).unwrap().validate().unwrap();
        }
    }

    #[test]
    fn stratified_ladder_lowers_rates_and_stays_valid() {
        let spec = FilterSpec::stratified_sample("t", Micros::from_secs(1), 0.2, 80.0, 20.0)
            .with_shed_headroom(ShedHeadroom::rungs(3));
        for r in 0..=3 {
            let d = spec.degraded(r).unwrap();
            d.validate().unwrap();
            match d.kind {
                FilterKind::StratifiedSample {
                    high_pct, low_pct, ..
                } => {
                    assert!((20.0..=80.0).contains(&high_pct));
                    assert!((5.0..=20.0).contains(&low_pct));
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn degraded_keeps_headroom_label_and_tolerance() {
        let spec = FilterSpec::delta("t", 2.0, 0.5)
            .with_latency_tolerance(Micros::from_millis(5))
            .with_label("L")
            .with_shed_headroom(ShedHeadroom::rungs(2));
        let d = spec.degraded(1).unwrap();
        assert_eq!(d.shed_headroom(), spec.shed_headroom());
        assert_eq!(d.label, spec.label);
        assert_eq!(d.latency_tolerance, spec.latency_tolerance);
    }

    #[test]
    fn headroom_validation() {
        assert!(FilterSpec::delta("t", 2.0, 0.5)
            .with_shed_headroom(ShedHeadroom {
                rungs: 0,
                max_slack: None,
                floor_fraction: None,
            })
            .validate()
            .is_err());
        assert!(FilterSpec::delta("t", 2.0, 0.5)
            .with_shed_headroom(ShedHeadroom::rungs(2).with_floor_fraction(0.0))
            .validate()
            .is_err());
        assert!(FilterSpec::delta("t", 2.0, 0.5)
            .with_shed_headroom(ShedHeadroom::rungs(2).with_max_slack(f64::NAN))
            .validate()
            .is_err());
        assert!(FilterSpec::delta("t", 2.0, 0.5)
            .with_shed_headroom(ShedHeadroom::rungs(2))
            .validate()
            .is_ok());
    }

    #[test]
    fn push_outcome_accessors() {
        assert!(PushOutcome::Accepted.is_accepted());
        assert!(!PushOutcome::Throttled.is_accepted());
    }
}
