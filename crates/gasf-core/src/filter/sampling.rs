//! Stratified-sampling filters (SS).
//!
//! An `SS(attrib, timeInterval, threshold, highSmplRt, lowSmplRt)` filter
//! (Table 5.1) segments the stream into fixed time windows. Every tuple of
//! a window is a candidate; when the window ends, the *sample range*
//! (max − min of the watched attribute) decides whether the high or low
//! sample rate applies, which resolves the set's pick degree. The candidate
//! set therefore has **multi-degree candidacy** and the engines use the
//! multi-degree greedy hitting set (§5.3) for it.

use super::{ForceCloseOutcome, GroupFilter};
use crate::candidate::{CandidateTuple, CloseCause, ClosedSet, FilterAction, FilterId, TimeCover};
use crate::error::Error;
use crate::quality::{FilterKind, FilterSpec, PickDegree, Prescription};
use crate::schema::AttrId;
use crate::time::Micros;
use crate::tuple::{Tuple, TupleId};

/// A group-aware stratified sampler.
#[derive(Debug)]
pub struct StratifiedSampler {
    spec: FilterSpec,
    id: FilterId,
    attr: AttrId,
    window: Micros,
    threshold: f64,
    high_pct: f64,
    low_pct: f64,
    prescription: Prescription,
    /// Index of the window currently being accumulated.
    current_window: Option<u64>,
    open: Vec<CandidateTuple>,
    min_val: f64,
    max_val: f64,
    set_index: u64,
}

impl StratifiedSampler {
    /// Builds an SS filter from its spec.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSpec`] if the spec is not a
    /// `StratifiedSample` spec or fails validation.
    pub fn from_spec(spec: FilterSpec, id: FilterId, attr: AttrId) -> Result<Self, Error> {
        spec.validate()?;
        let FilterKind::StratifiedSample {
            window,
            threshold,
            high_pct,
            low_pct,
            prescription,
            ..
        } = &spec.kind
        else {
            return Err(Error::InvalidSpec {
                reason: "expected a StratifiedSample spec".into(),
            });
        };
        Ok(StratifiedSampler {
            id,
            attr,
            window: *window,
            threshold: *threshold,
            high_pct: *high_pct,
            low_pct: *low_pct,
            prescription: *prescription,
            current_window: None,
            open: Vec::new(),
            min_val: f64::INFINITY,
            max_val: f64::NEG_INFINITY,
            set_index: 0,
            spec,
        })
    }

    fn window_of(&self, ts: Micros) -> u64 {
        ts.as_micros() / self.window.as_micros().max(1)
    }

    /// The sample range observed in the open window.
    fn sample_range(&self) -> f64 {
        if self.open.is_empty() {
            0.0
        } else {
            self.max_val - self.min_val
        }
    }

    /// Evenly spaced deterministic sample — what the self-interested
    /// sampler ships (a fixed-rate pick, blind to the group).
    pub(crate) fn si_sample(candidates: &[CandidateTuple], k: usize) -> Vec<TupleId> {
        let n = candidates.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        (0..k).map(|i| candidates[i * n / k].id).collect()
    }

    fn seal(&mut self, cause: CloseCause) -> Option<ClosedSet> {
        if self.open.is_empty() {
            return None;
        }
        let rate = if self.sample_range() >= self.threshold {
            self.high_pct
        } else {
            self.low_pct
        };
        let candidates = std::mem::take(&mut self.open);
        let pick_degree = PickDegree::Percent(rate).resolve(candidates.len());
        let si_choice = Self::si_sample(&candidates, pick_degree);
        self.min_val = f64::INFINITY;
        self.max_val = f64::NEG_INFINITY;
        let set = ClosedSet {
            filter: self.id,
            set_index: self.set_index,
            candidates,
            pick_degree,
            prescription: self.prescription,
            si_choice,
            cause,
        };
        self.set_index += 1;
        Some(set)
    }
}

impl GroupFilter for StratifiedSampler {
    fn id(&self) -> FilterId {
        self.id
    }

    fn spec(&self) -> &FilterSpec {
        &self.spec
    }

    fn process(&mut self, tuple: &Tuple) -> Result<FilterAction, Error> {
        let v = tuple.require(self.attr)?;
        let w = self.window_of(tuple.timestamp());
        let mut action = FilterAction::none();
        if self.current_window != Some(w) {
            if self.current_window.is_some() {
                action.closed = self.seal(CloseCause::Natural);
            }
            self.current_window = Some(w);
        }
        self.open.push(CandidateTuple {
            id: tuple.id(),
            timestamp: tuple.timestamp(),
            key: v,
        });
        self.min_val = self.min_val.min(v);
        self.max_val = self.max_val.max(v);
        action.admitted = true;
        Ok(action)
    }

    fn force_close(&mut self, cause: CloseCause) -> ForceCloseOutcome {
        ForceCloseOutcome {
            closed: self.seal(cause),
            dismissed: Vec::new(),
        }
    }

    fn si_emits_at_reference(&self) -> bool {
        false
    }

    #[cfg(test)]
    fn open_candidates(&self) -> &[CandidateTuple] {
        &self.open
    }

    fn open_cover(&self) -> Option<TimeCover> {
        let first = self.open.first()?;
        let last = self.open.last()?;
        Some(TimeCover {
            min: first.timestamp,
            max: last.timestamp,
        })
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::series;

    fn sampler(
        window_ms: u64,
        threshold: f64,
        high: f64,
        low: f64,
        schema: &Schema,
    ) -> StratifiedSampler {
        StratifiedSampler::from_spec(
            FilterSpec::stratified_sample(
                "t",
                Micros::from_millis(window_ms),
                threshold,
                high,
                low,
            ),
            FilterId::from_index(0),
            schema.attr("t").unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn windows_close_on_boundary() {
        let schema = Schema::new(["t"]);
        // 100 ms windows; tuples every 30 ms.
        let tuples = series(
            &schema,
            "t",
            &[(0, 1.0), (30, 2.0), (60, 3.0), (90, 4.0), (120, 5.0)],
        );
        let mut f = sampler(100, 10.0, 50.0, 20.0, &schema);
        let mut closed = Vec::new();
        for t in &tuples {
            if let Some(s) = f.process(t).unwrap().closed {
                closed.push(s);
            }
        }
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].len(), 4, "first window holds ts 0..=90");
        let tail = f.force_close(CloseCause::EndOfStream).closed.unwrap();
        assert_eq!(tail.len(), 1);
    }

    #[test]
    fn rate_picked_by_sample_range() {
        let schema = Schema::new(["t"]);
        // Window 1: range 9 (high dynamics); window 2: range 0.2 (low).
        let tuples = series(
            &schema,
            "t",
            &[
                (0, 0.0),
                (20, 9.0),
                (40, 3.0),
                (60, 5.0),
                (100, 1.0),
                (120, 1.1),
                (140, 1.2),
                (160, 1.0),
            ],
        );
        let mut f = sampler(100, 5.0, 50.0, 25.0, &schema);
        let mut sets = Vec::new();
        for t in &tuples {
            if let Some(s) = f.process(t).unwrap().closed {
                sets.push(s);
            }
        }
        sets.extend(f.force_close(CloseCause::EndOfStream).closed);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].pick_degree, 2, "50% of 4 tuples");
        assert_eq!(sets[1].pick_degree, 1, "25% of 4 tuples");
    }

    #[test]
    fn si_sample_is_evenly_spaced_and_sized() {
        let cands: Vec<CandidateTuple> = (0..10)
            .map(|i| CandidateTuple {
                id: TupleId::from_seq(i),
                timestamp: Micros::from_millis(i * 10),
                key: i as f64,
            })
            .collect();
        let s = StratifiedSampler::si_sample(&cands, 5);
        assert_eq!(s.len(), 5);
        let want: Vec<TupleId> = [0, 2, 4, 6, 8]
            .iter()
            .map(|&i| TupleId::from_seq(i))
            .collect();
        assert_eq!(s, want);
        assert!(StratifiedSampler::si_sample(&cands, 0).is_empty());
        assert!(StratifiedSampler::si_sample(&[], 3).is_empty());
    }

    #[test]
    fn does_not_emit_at_reference() {
        let schema = Schema::new(["t"]);
        let f = sampler(100, 1.0, 50.0, 20.0, &schema);
        assert!(!f.si_emits_at_reference());
        assert!(!f.is_stateful());
    }

    #[test]
    fn empty_force_close_yields_nothing() {
        let schema = Schema::new(["t"]);
        let mut f = sampler(100, 1.0, 50.0, 20.0, &schema);
        let out = f.force_close(CloseCause::EndOfStream);
        assert!(out.closed.is_none());
        assert!(out.dismissed.is_empty());
    }

    #[test]
    fn prescription_propagates_to_sets() {
        let schema = Schema::new(["t"]);
        let spec = FilterSpec::stratified_sample("t", Micros::from_millis(50), 0.0, 50.0, 50.0)
            .with_prescription(Prescription::Top);
        let mut f =
            StratifiedSampler::from_spec(spec, FilterId::from_index(0), schema.attr("t").unwrap())
                .unwrap();
        let tuples = series(&schema, "t", &[(0, 1.0), (10, 9.0), (20, 3.0), (30, 7.0)]);
        for t in &tuples {
            f.process(t).unwrap();
        }
        let set = f.force_close(CloseCause::EndOfStream).closed.unwrap();
        assert_eq!(set.prescription, Prescription::Top);
        assert_eq!(set.pick_degree, 2);
        // top-2 ranks: 9.0 (seq 1), 7.0 (seq 3)
        assert_eq!(
            set.eligible_ranks(),
            vec![vec![TupleId::from_seq(1)], vec![TupleId::from_seq(3)]]
        );
    }
}

/// A group-aware reservoir sampler (RS): exactly `k` tuples per fixed time
/// window, all window tuples equivalent in quality (§5.1). The
/// self-interested twin ships an evenly spaced `k`-sample per window; the
/// group-aware version lets the group pick which `k` tuples, maximising
/// overlap with other filters.
#[derive(Debug)]
pub struct ReservoirSampler {
    spec: FilterSpec,
    id: FilterId,
    attr: AttrId,
    window: Micros,
    k: u32,
    current_window: Option<u64>,
    open: Vec<CandidateTuple>,
    set_index: u64,
}

impl ReservoirSampler {
    /// Builds an RS filter from its spec.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSpec`] if the spec is not a `Reservoir` spec
    /// or fails validation.
    pub fn from_spec(spec: FilterSpec, id: FilterId, attr: AttrId) -> Result<Self, Error> {
        spec.validate()?;
        let FilterKind::Reservoir { window, k, .. } = &spec.kind else {
            return Err(Error::InvalidSpec {
                reason: "expected a Reservoir spec".into(),
            });
        };
        Ok(ReservoirSampler {
            id,
            attr,
            window: *window,
            k: *k,
            current_window: None,
            open: Vec::new(),
            set_index: 0,
            spec,
        })
    }

    fn window_of(&self, ts: Micros) -> u64 {
        ts.as_micros() / self.window.as_micros().max(1)
    }

    fn seal(&mut self, cause: CloseCause) -> Option<ClosedSet> {
        if self.open.is_empty() {
            return None;
        }
        let candidates = std::mem::take(&mut self.open);
        let pick_degree = (self.k as usize).min(candidates.len());
        let si_choice = StratifiedSampler::si_sample(&candidates, pick_degree);
        let set = ClosedSet {
            filter: self.id,
            set_index: self.set_index,
            candidates,
            pick_degree,
            prescription: Prescription::Any,
            si_choice,
            cause,
        };
        self.set_index += 1;
        Some(set)
    }
}

impl GroupFilter for ReservoirSampler {
    fn id(&self) -> FilterId {
        self.id
    }

    fn spec(&self) -> &FilterSpec {
        &self.spec
    }

    fn process(&mut self, tuple: &Tuple) -> Result<FilterAction, Error> {
        let v = tuple.require(self.attr)?;
        let w = self.window_of(tuple.timestamp());
        let mut action = FilterAction::none();
        if self.current_window != Some(w) {
            if self.current_window.is_some() {
                action.closed = self.seal(CloseCause::Natural);
            }
            self.current_window = Some(w);
        }
        self.open.push(CandidateTuple {
            id: tuple.id(),
            timestamp: tuple.timestamp(),
            key: v,
        });
        action.admitted = true;
        Ok(action)
    }

    fn force_close(&mut self, cause: CloseCause) -> ForceCloseOutcome {
        ForceCloseOutcome {
            closed: self.seal(cause),
            dismissed: Vec::new(),
        }
    }

    fn si_emits_at_reference(&self) -> bool {
        false
    }

    #[cfg(test)]
    fn open_candidates(&self) -> &[CandidateTuple] {
        &self.open
    }

    fn open_cover(&self) -> Option<TimeCover> {
        let first = self.open.first()?;
        let last = self.open.last()?;
        Some(TimeCover {
            min: first.timestamp,
            max: last.timestamp,
        })
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod reservoir_tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::series;

    fn sampler(window_ms: u64, k: u32, schema: &Schema) -> ReservoirSampler {
        ReservoirSampler::from_spec(
            FilterSpec::reservoir("t", Micros::from_millis(window_ms), k),
            FilterId::from_index(0),
            schema.attr("t").unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn fixed_count_per_window() {
        let schema = Schema::new(["t"]);
        let pts: Vec<(u64, f64)> = (0..10).map(|i| (i * 20, i as f64)).collect();
        let tuples = series(&schema, "t", &pts);
        let mut f = sampler(100, 2, &schema);
        let mut sets = Vec::new();
        for t in &tuples {
            sets.extend(f.process(t).unwrap().closed);
        }
        sets.extend(f.force_close(CloseCause::EndOfStream).closed);
        assert_eq!(sets.len(), 2);
        for s in &sets {
            assert_eq!(s.pick_degree, 2);
            assert_eq!(s.si_choice.len(), 2);
            assert_eq!(s.prescription, Prescription::Any);
        }
    }

    #[test]
    fn k_clamped_to_window_size() {
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", &[(0, 1.0), (10, 2.0)]);
        let mut f = sampler(100, 50, &schema);
        for t in &tuples {
            f.process(t).unwrap();
        }
        let set = f.force_close(CloseCause::EndOfStream).closed.unwrap();
        assert_eq!(set.pick_degree, 2);
    }

    #[test]
    fn zero_k_rejected() {
        assert!(FilterSpec::reservoir("t", Micros::from_millis(10), 0)
            .validate()
            .is_err());
        assert!(FilterSpec::reservoir("t", Micros::ZERO, 3)
            .validate()
            .is_err());
    }

    #[test]
    fn display_notation() {
        let s = FilterSpec::reservoir("t", Micros::from_secs(1), 5);
        assert_eq!(s.to_string(), "RS(t, 1.000s, 5)");
    }
}
