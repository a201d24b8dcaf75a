//! Quality-aware load shedding: the degradation-ladder policy.
//!
//! §4.8 lists the remedies for a congested filtering stage in escalating
//! order; the paper's distinctive one is to *gracefully degrade the
//! quality requirements of the filters* — legal precisely because
//! group-aware applications already declared slack. The mechanism (the
//! per-spec ladder) lives in [`gasf_core::shed`]; this module is the
//! **policy**: a [`Shedder`] watches the credit gate's admission stream
//! and decides when each source climbs or descends its ladder.
//!
//! The rules are deliberately simple and deterministic:
//!
//! * `trigger` consecutive [`Throttled`](gasf_core::shed::PushOutcome)
//!   outcomes ⇒ climb one rung ([`ShedAction::Degrade`]). The middleware
//!   responds by retuning every headroom-declaring subscription of the
//!   source to `spec.degraded(rung)` — widening candidate sets /
//!   lowering `k` — through the ordinary epoch-based `update_filter`
//!   control path, so degradation lands at a safe point and is counted
//!   per subscription.
//! * `recover` units of uninterrupted calm ⇒ descend one rung
//!   ([`ShedAction::Restore`]); at rung 0 every subscription is back at
//!   its exact original spec — degradation is fully reversible. What a
//!   unit of calm *is* (an admitted row, or a fully admitted batch) is
//!   the admission's call — see [`Shedder::on_accepted`].
//! * Only when the ladder is exhausted (top rung reached) does
//!   [`Shedder::should_drop`] permit the ingest driver to drop tuples,
//!   and every such drop is counted. Quality bends before data breaks.
//!
//! A shedder that never observes a `Throttled` outcome never issues any
//! action — the pressure-free run is byte-identical to a run without a
//! shedder, which `tests/tests/shedding_equivalence.rs` pins.

use serde::{Deserialize, Serialize};

/// Policy knobs for a per-source [`Shedder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedConfig {
    /// Consecutive throttled pushes that trigger one degradation rung.
    pub trigger: u32,
    /// Consecutive units of calm ([`Shedder::on_accepted`]) that restore
    /// one rung.
    pub recover: u32,
    /// Ladder cap across the source (individual subscriptions still
    /// clamp to their own declared `rungs`).
    pub max_rung: u8,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            trigger: 4,
            recover: 16,
            max_rung: 4,
        }
    }
}

/// What the policy wants done after an admission observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedAction {
    /// No change.
    None,
    /// Climb to this rung: retune headroom subscriptions to
    /// `spec.degraded(rung)`.
    Degrade(u8),
    /// Descend to this rung (0 = original specs).
    Restore(u8),
}

/// Per-source degradation-ladder state machine.
#[derive(Debug, Clone)]
pub struct Shedder {
    config: ShedConfig,
    rung: u8,
    throttled_streak: u32,
    accepted_streak: u32,
}

impl Shedder {
    /// A shedder at rung 0 (no degradation).
    pub fn new(config: ShedConfig) -> Self {
        Shedder {
            config,
            rung: 0,
            throttled_streak: 0,
            accepted_streak: 0,
        }
    }

    /// A shedder resuming at a captured rung (clamped to the ladder
    /// cap) with cleared streaks — the recovery path, where the restored
    /// engines already carry that rung's specs.
    pub fn restore_at(config: ShedConfig, rung: u8) -> Self {
        let mut s = Shedder::new(config);
        s.rung = rung.min(config.max_rung);
        s
    }

    /// The current ladder rung (0 = original quality).
    pub fn rung(&self) -> u8 {
        self.rung
    }

    /// The policy configuration.
    pub fn config(&self) -> ShedConfig {
        self.config
    }

    /// Observes a throttled push. Returns [`ShedAction::Degrade`] when
    /// the throttle streak warrants climbing a rung.
    pub fn on_throttled(&mut self) -> ShedAction {
        self.accepted_streak = 0;
        self.throttled_streak += 1;
        if self.throttled_streak >= self.config.trigger && self.rung < self.config.max_rung {
            self.throttled_streak = 0;
            self.rung += 1;
            return ShedAction::Degrade(self.rung);
        }
        ShedAction::None
    }

    /// Observes `calm` units of uninterrupted acceptance (the middleware
    /// books one per admitted row of row-shaped input, one per fully
    /// admitted batch). Returns [`ShedAction::Restore`] when the calm
    /// streak warrants descending a rung — one rung per call, however
    /// large `calm` is, so a caller that needs the restore to land on an
    /// exact row reports no more than `recover − streak` units at a time.
    pub fn on_accepted(&mut self, calm: u32) -> ShedAction {
        if calm == 0 {
            return ShedAction::None; // nothing was accepted
        }
        self.throttled_streak = 0;
        if self.rung == 0 {
            return ShedAction::None;
        }
        self.accepted_streak += calm;
        if self.accepted_streak >= self.config.recover {
            self.accepted_streak = 0;
            self.rung -= 1;
            return ShedAction::Restore(self.rung);
        }
        ShedAction::None
    }

    /// Units of calm left before the next [`ShedAction::Restore`]
    /// (unbounded at rung 0, where calm restores nothing).
    pub(crate) fn calm_until_restore(&self) -> u32 {
        match self.rung {
            0 => u32::MAX,
            _ => (self.config.recover.saturating_sub(self.accepted_streak)).max(1),
        }
    }

    /// Whether the ladder is exhausted: the source sits at the top rung
    /// and is *still* being throttled. Only now may the ingest driver
    /// drop tuples (counting each one) — the paper's last resort.
    pub fn should_drop(&self) -> bool {
        self.rung >= self.config.max_rung && self.throttled_streak >= self.config.trigger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShedConfig {
        ShedConfig {
            trigger: 2,
            recover: 3,
            max_rung: 2,
        }
    }

    #[test]
    fn climbs_on_sustained_throttle_only() {
        let mut s = Shedder::new(cfg());
        assert_eq!(s.on_throttled(), ShedAction::None);
        // an accepted push resets the streak
        assert_eq!(s.on_accepted(1), ShedAction::None);
        assert_eq!(s.on_throttled(), ShedAction::None);
        assert_eq!(s.on_throttled(), ShedAction::Degrade(1));
        assert_eq!(s.rung(), 1);
        assert_eq!(s.on_throttled(), ShedAction::None);
        assert_eq!(s.on_throttled(), ShedAction::Degrade(2));
        // ladder capped
        assert_eq!(s.on_throttled(), ShedAction::None);
        assert_eq!(s.on_throttled(), ShedAction::None);
        assert_eq!(s.rung(), 2);
    }

    #[test]
    fn restores_on_sustained_calm_to_original() {
        let mut s = Shedder::new(cfg());
        for _ in 0..4 {
            s.on_throttled();
        }
        assert_eq!(s.rung(), 2);
        let mut actions = vec![];
        for _ in 0..6 {
            actions.push(s.on_accepted(1));
        }
        assert_eq!(
            actions,
            vec![
                ShedAction::None,
                ShedAction::None,
                ShedAction::Restore(1),
                ShedAction::None,
                ShedAction::None,
                ShedAction::Restore(0),
            ]
        );
        assert_eq!(s.rung(), 0);
        assert_eq!(s.on_accepted(1), ShedAction::None, "idempotent at rung 0");
    }

    #[test]
    fn calm_is_counted_in_the_callers_units() {
        let mut s = Shedder::new(cfg());
        assert_eq!(s.calm_until_restore(), u32::MAX, "rung 0 restores nothing");
        for _ in 0..4 {
            s.on_throttled();
        }
        assert_eq!(s.calm_until_restore(), 3);
        assert_eq!(s.on_accepted(2), ShedAction::None);
        assert_eq!(s.calm_until_restore(), 1);
        // a run capped at the remaining calm restores on its last row
        assert_eq!(s.on_accepted(1), ShedAction::Restore(1));
        assert_eq!(s.calm_until_restore(), 3);
        // an uncapped run still moves one rung only
        assert_eq!(s.on_accepted(10), ShedAction::Restore(0));
        assert_eq!(s.calm_until_restore(), u32::MAX);
    }

    #[test]
    fn drops_only_when_ladder_exhausted_and_still_throttled() {
        let mut s = Shedder::new(cfg());
        assert!(!s.should_drop());
        for _ in 0..4 {
            s.on_throttled();
        }
        assert_eq!(s.rung(), 2);
        assert!(!s.should_drop(), "just reached top; streak was consumed");
        s.on_throttled();
        s.on_throttled();
        assert!(s.should_drop(), "top rung and still throttled");
        s.on_accepted(1);
        assert!(!s.should_drop(), "calm clears the drop state");
    }
}
