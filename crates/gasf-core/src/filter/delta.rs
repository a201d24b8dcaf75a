//! Delta-compression filters (DC1/DC2/DC3) and the shared admission
//! automaton.
//!
//! A `(slack, delta)` delta-compression filter selects data at `delta`-unit
//! granularity with `slack` units of tolerated deviation (§2.1.1). The
//! *reference tuples* are exactly what a self-interested DC filter would
//! emit: the first tuple, then every first tuple whose value moved by at
//! least `delta` from the previous reference (stateless) or from the
//! previously *chosen* output (stateful, Fig. 2.9). The candidate set of a
//! reference is the contiguous run of tuples around it whose derived value
//! is within `slack` of the reference value (Fig. 2.3).

use super::{ForceCloseOutcome, GroupFilter};
use crate::candidate::{CandidateTuple, CloseCause, ClosedSet, FilterAction, FilterId, TimeCover};
use crate::error::Error;
use crate::quality::{Dependency, FilterKind, FilterSpec, Prescription};
use crate::schema::AttrId;
use crate::time::Micros;
use crate::tuple::{Tuple, TupleId};

/// Derivation of the scalar a DC filter compresses: the taxonomy's
/// "state-update function" applied to the watched attributes (Fig. 5.1).
#[derive(Debug, Clone)]
enum Deriver {
    /// DC1 — the raw value of one attribute.
    Single(AttrId),
    /// DC2 — rate of change of one attribute per second.
    Trend {
        attr: AttrId,
        prev: Option<(Micros, f64)>,
    },
    /// DC3 — mean of several attributes.
    Mean(Vec<AttrId>),
}

impl Deriver {
    fn derive(&mut self, tuple: &Tuple) -> Result<f64, Error> {
        match self {
            Deriver::Single(a) => tuple.require(*a),
            Deriver::Trend { attr, prev } => {
                let v = tuple.require(*attr)?;
                let now = tuple.timestamp();
                let trend = match *prev {
                    Some((t0, v0)) if now > t0 => (v - v0) / (now - t0).as_secs_f64(),
                    _ => 0.0,
                };
                *prev = Some((now, v));
                Ok(trend)
            }
            Deriver::Mean(attrs) => {
                let mut sum = 0.0;
                for a in attrs.iter() {
                    sum += tuple.require(*a)?;
                }
                Ok(sum / attrs.len() as f64)
            }
        }
    }
}

/// Phase of the admission automaton.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// No tuple seen yet; the first tuple is always a reference.
    Initial,
    /// Previous set closed; waiting for tuples near the predicted next
    /// reference (`|v - base| >= delta - slack` admits tentatively).
    Searching,
    /// Open set holds tentative candidates; the reference
    /// (`|v - base| >= delta`) has not arrived yet.
    Tentative,
    /// Reference identified; admitting the contiguous vicinity
    /// (`|v - ref| <= slack`) until a tuple falls outside.
    Vicinity,
}

/// The shared `(slack, delta)` admission automaton used by DC1/DC2/DC3.
#[derive(Debug, Clone)]
struct DeltaCore {
    id: FilterId,
    delta: f64,
    slack: f64,
    stateful: bool,
    /// Comparison base: last reference value (stateless) or last chosen
    /// output value (stateful).
    base: f64,
    phase: Phase,
    open: Vec<CandidateTuple>,
    reference_id: Option<TupleId>,
    reference_val: f64,
    set_index: u64,
}

impl DeltaCore {
    fn new(id: FilterId, delta: f64, slack: f64, stateful: bool) -> Self {
        DeltaCore {
            id,
            delta,
            slack,
            stateful,
            base: 0.0,
            phase: Phase::Initial,
            open: Vec::new(),
            reference_id: None,
            reference_val: 0.0,
            set_index: 0,
        }
    }

    fn candidate(&self, tuple: &Tuple, key: f64) -> CandidateTuple {
        CandidateTuple {
            id: tuple.id(),
            timestamp: tuple.timestamp(),
            key,
        }
    }

    /// Seals the open candidates into a `ClosedSet`.
    fn seal(&mut self, cause: CloseCause) -> ClosedSet {
        let candidates = std::mem::take(&mut self.open);
        let si_choice = self.reference_id.take().into_iter().collect();
        let set = ClosedSet {
            filter: self.id,
            set_index: self.set_index,
            candidates,
            pick_degree: 1,
            prescription: Prescription::Any,
            si_choice,
            cause,
        };
        self.set_index += 1;
        self.phase = Phase::Searching;
        set
    }

    /// Handles reference identification: admits the tuple, dismisses
    /// tentative candidates that are not contiguous-with and within `slack`
    /// of the reference, and switches to the vicinity phase.
    fn on_reference(&mut self, tuple: &Tuple, key: f64, action: &mut FilterAction) {
        // Keep only the contiguous run (by id, i.e. arrival order)
        // immediately preceding the reference whose keys are within slack
        // of it.
        let mut keep_from = self.open.len();
        let mut expected = tuple.id();
        for (i, c) in self.open.iter().enumerate().rev() {
            if c.id.next() == expected && (c.key - key).abs() <= self.slack {
                keep_from = i;
                expected = c.id;
            } else {
                break;
            }
        }
        for c in self.open.drain(..keep_from) {
            action.dismissed.push(c.id);
        }
        self.open.push(self.candidate(tuple, key));
        self.reference_id = Some(tuple.id());
        self.reference_val = key;
        if !self.stateful {
            self.base = key;
        }
        self.phase = Phase::Vicinity;
        action.admitted = true;
        action.reference = true;
    }

    fn process(&mut self, tuple: &Tuple, key: f64) -> FilterAction {
        let mut action = FilterAction::none();
        match self.phase {
            Phase::Initial => {
                // The first tuple is always a reference output.
                self.on_reference(tuple, key, &mut action);
            }
            Phase::Vicinity => {
                if (key - self.reference_val).abs() <= self.slack {
                    self.open.push(self.candidate(tuple, key));
                    action.admitted = true;
                } else {
                    // Closes the current set; the same tuple may then open
                    // (or even be the reference of) the next one.
                    action.closed = Some(self.seal(CloseCause::Natural));
                    self.search_step(tuple, key, &mut action);
                }
            }
            Phase::Searching | Phase::Tentative => {
                self.search_step(tuple, key, &mut action);
            }
        }
        action
    }

    /// Searching/tentative logic shared with the fall-through after closure.
    fn search_step(&mut self, tuple: &Tuple, key: f64, action: &mut FilterAction) {
        let dist = (key - self.base).abs();
        if dist >= self.delta {
            self.on_reference(tuple, key, action);
        } else if dist >= self.delta - self.slack {
            // Tentative admission based on the estimate of the next
            // reference tuple (§2.3.3).
            self.open.push(self.candidate(tuple, key));
            self.phase = Phase::Tentative;
            action.admitted = true;
        }
    }

    fn force_close(&mut self, cause: CloseCause) -> ForceCloseOutcome {
        match self.phase {
            Phase::Vicinity => ForceCloseOutcome {
                closed: Some(self.seal(cause)),
                dismissed: Vec::new(),
            },
            Phase::Tentative => {
                // No reference yet: the self-interested filter has not
                // committed to this output either, so the tentative
                // candidates are dismissed rather than closed — keeping the
                // guarantee that cuts never perform worse than SI (§3.3).
                let dismissed = self.open.drain(..).map(|c| c.id).collect();
                self.phase = Phase::Searching;
                ForceCloseOutcome {
                    closed: None,
                    dismissed,
                }
            }
            Phase::Initial | Phase::Searching => ForceCloseOutcome::default(),
        }
    }

    fn output_chosen(&mut self, key: f64) {
        if self.stateful {
            self.base = key;
        }
    }

    fn open_cover(&self) -> Option<TimeCover> {
        let first = self.open.first()?;
        let last = self.open.last()?;
        Some(TimeCover {
            min: first.timestamp,
            max: last.timestamp,
        })
    }
}

macro_rules! delegate_group_filter {
    ($ty:ty) => {
        impl GroupFilter for $ty {
            fn id(&self) -> FilterId {
                self.core.id
            }
            fn spec(&self) -> &FilterSpec {
                &self.spec
            }
            fn process(&mut self, tuple: &Tuple) -> Result<FilterAction, Error> {
                let key = self.deriver.derive(tuple)?;
                Ok(self.core.process(tuple, key))
            }
            fn force_close(&mut self, cause: CloseCause) -> ForceCloseOutcome {
                self.core.force_close(cause)
            }
            fn output_chosen(&mut self, _id: crate::tuple::TupleId, key: f64) {
                self.core.output_chosen(key);
            }
            fn is_stateful(&self) -> bool {
                self.core.stateful
            }
            fn open_cover(&self) -> Option<TimeCover> {
                self.core.open_cover()
            }
            fn open_len(&self) -> usize {
                self.core.open.len()
            }
            #[cfg(test)]
            fn open_candidates(&self) -> &[CandidateTuple] {
                &self.core.open
            }
        }
    };
}

/// DC1 — delta compression on a single attribute.
///
/// ```rust
/// use gasf_core::prelude::*;
/// # fn main() -> Result<(), gasf_core::Error> {
/// let schema = Schema::new(["t"]);
/// let spec = FilterSpec::delta("t", 50.0, 10.0);
/// let mut engine = GroupEngine::builder(schema).filter(spec).build()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DeltaCompression {
    spec: FilterSpec,
    core: DeltaCore,
    deriver: Deriver,
}

impl DeltaCompression {
    /// Builds a DC1 filter from its (validated) spec.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSpec`] if the spec is not a `Delta` spec or
    /// fails validation.
    pub fn from_spec(spec: FilterSpec, id: FilterId, attr: AttrId) -> Result<Self, Error> {
        spec.validate()?;
        let FilterKind::Delta {
            delta,
            slack,
            dependency,
            ..
        } = &spec.kind
        else {
            return Err(Error::InvalidSpec {
                reason: "expected a Delta spec".into(),
            });
        };
        let stateful = *dependency == Dependency::Stateful;
        Ok(DeltaCompression {
            core: DeltaCore::new(id, *delta, *slack, stateful),
            deriver: Deriver::Single(attr),
            spec,
        })
    }
}

delegate_group_filter!(DeltaCompression);

/// DC2 — delta compression on the rate of change (units per second) of an
/// attribute. Useful when applications care about *trends* rather than
/// levels (§5.1).
#[derive(Debug)]
pub struct TrendDelta {
    spec: FilterSpec,
    core: DeltaCore,
    deriver: Deriver,
}

impl TrendDelta {
    /// Builds a DC2 filter from its spec.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSpec`] if the spec is not a `TrendDelta`
    /// spec or fails validation.
    pub fn from_spec(spec: FilterSpec, id: FilterId, attr: AttrId) -> Result<Self, Error> {
        spec.validate()?;
        let FilterKind::TrendDelta { delta, slack, .. } = &spec.kind else {
            return Err(Error::InvalidSpec {
                reason: "expected a TrendDelta spec".into(),
            });
        };
        Ok(TrendDelta {
            core: DeltaCore::new(id, *delta, *slack, false),
            deriver: Deriver::Trend { attr, prev: None },
            spec,
        })
    }
}

delegate_group_filter!(TrendDelta);

/// DC3 — delta compression on the mean of several attributes (e.g.
/// co-located thermistors whose average an application monitors, §5.1).
#[derive(Debug)]
pub struct MultiAttrDelta {
    spec: FilterSpec,
    core: DeltaCore,
    deriver: Deriver,
}

impl MultiAttrDelta {
    /// Builds a DC3 filter from its spec.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSpec`] if the spec is not a `MultiAttrDelta`
    /// spec or fails validation.
    pub fn from_spec(spec: FilterSpec, id: FilterId, attrs: Vec<AttrId>) -> Result<Self, Error> {
        spec.validate()?;
        let FilterKind::MultiAttrDelta { delta, slack, .. } = &spec.kind else {
            return Err(Error::InvalidSpec {
                reason: "expected a MultiAttrDelta spec".into(),
            });
        };
        Ok(MultiAttrDelta {
            core: DeltaCore::new(id, *delta, *slack, false),
            deriver: Deriver::Mean(attrs),
            spec,
        })
    }
}

delegate_group_filter!(MultiAttrDelta);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::series;

    /// The paper's nine-tuple running example plus the closing tuple 112
    /// (Figs. 2.5/2.8): values at 10 ms intervals.
    fn paper_stream() -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(["t"]);
        let tuples = series(
            &schema,
            "t",
            &[
                (10, 0.0),
                (20, 35.0),
                (30, 29.0),
                (40, 45.0),
                (50, 50.0),
                (60, 59.0),
                (70, 80.0),
                (80, 97.0),
                (90, 100.0),
                (100, 112.0),
            ],
        );
        (schema, tuples)
    }

    fn run_filter(mut f: Box<dyn GroupFilter>, tuples: &[Tuple]) -> (Vec<Vec<f64>>, Vec<u64>) {
        let mut sets = Vec::new();
        let mut refs = Vec::new();
        for t in tuples {
            let a = f.process(t).unwrap();
            if a.reference {
                refs.push(t.seq());
            }
            if let Some(s) = a.closed {
                sets.push(s.candidates.iter().map(|c| c.key).collect());
            }
        }
        let out = f.force_close(CloseCause::EndOfStream);
        if let Some(s) = out.closed {
            sets.push(s.candidates.iter().map(|c| c.key).collect());
        }
        (sets, refs)
    }

    fn dc(delta: f64, slack: f64, schema: &Schema) -> Box<dyn GroupFilter> {
        Box::new(
            DeltaCompression::from_spec(
                FilterSpec::delta("t", delta, slack),
                FilterId::from_index(0),
                schema.attr("t").unwrap(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn filter_a_matches_fig_2_5() {
        // (10, 50) DC filter: cands {0}, {45,50,59}, {97,100}
        let (schema, tuples) = paper_stream();
        let (sets, refs) = run_filter(dc(50.0, 10.0, &schema), &tuples);
        assert_eq!(
            sets,
            vec![vec![0.0], vec![45.0, 50.0, 59.0], vec![97.0, 100.0]]
        );
        // SI output {0, 50, 100} -> seqs 0, 4, 8
        assert_eq!(refs, vec![0, 4, 8]);
    }

    #[test]
    fn filter_b_matches_fig_2_5() {
        // (5, 40) DC filter: cands {0}, {45,50}, {97,100}
        let (schema, tuples) = paper_stream();
        let (sets, refs) = run_filter(dc(40.0, 5.0, &schema), &tuples);
        assert_eq!(sets, vec![vec![0.0], vec![45.0, 50.0], vec![97.0, 100.0]]);
        // SI output {0, 45, 97}
        assert_eq!(refs, vec![0, 3, 7]);
    }

    #[test]
    fn filter_c_matches_fig_2_5() {
        // (25, 80) DC filter: cands {0}, {59,80,97,100}
        let (schema, tuples) = paper_stream();
        let (sets, refs) = run_filter(dc(80.0, 25.0, &schema), &tuples);
        assert_eq!(sets, vec![vec![0.0], vec![59.0, 80.0, 97.0, 100.0]]);
        assert_eq!(refs, vec![0, 6]);
    }

    #[test]
    fn tentative_candidates_dismissed_at_reference() {
        // Filter B admits 35 tentatively (|35-0| >= 40-5) and must dismiss
        // it when the reference 45 arrives (|35-45| = 10 > 5).
        let (schema, tuples) = paper_stream();
        let mut f = dc(40.0, 5.0, &schema);
        let mut dismissed = Vec::new();
        for t in &tuples[..4] {
            let a = f.process(t).unwrap();
            dismissed.extend(a.dismissed);
        }
        assert_eq!(dismissed, vec![TupleId::from_seq(1)]); // seq 1 carries value 35
    }

    #[test]
    fn contiguity_enforced_at_reference() {
        // 0, then 8 (tentative for delta 10 slack 2), then 5 (gap), then 10
        // (reference). 8 is not contiguous with the reference, so it must
        // be dismissed even though |8 - 10| = 2 <= slack.
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", &[(0, 0.0), (10, 8.0), (20, 5.0), (30, 10.0)]);
        let mut f = dc(10.0, 2.0, &schema);
        let mut all_dismissed = Vec::new();
        let mut last_open: Vec<f64> = Vec::new();
        for t in &tuples {
            let a = f.process(t).unwrap();
            all_dismissed.extend(a.dismissed.clone());
            if a.admitted {
                last_open.push(t.get(schema.attr("t").unwrap()).unwrap());
            }
        }
        assert!(all_dismissed.contains(&TupleId::from_seq(1)));
        let out = f.force_close(CloseCause::EndOfStream);
        assert_eq!(
            out.closed
                .unwrap()
                .candidates
                .iter()
                .map(|c| c.key)
                .collect::<Vec<_>>(),
            vec![10.0]
        );
    }

    #[test]
    fn closing_tuple_can_become_next_reference() {
        // A jump of 2*delta closes the vicinity and is itself the next
        // reference.
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", &[(0, 0.0), (10, 100.0)]);
        let mut f = dc(50.0, 10.0, &schema);
        let a0 = f.process(&tuples[0]).unwrap();
        assert!(a0.reference);
        let a1 = f.process(&tuples[1]).unwrap();
        assert!(a1.reference, "100 jumps by 2*delta and is a reference");
        assert!(a1.closed.is_some(), "set {{0}} closed");
    }

    #[test]
    fn force_close_in_vicinity_closes_with_cut_cause() {
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", &[(0, 0.0)]);
        let mut f = dc(50.0, 10.0, &schema);
        f.process(&tuples[0]).unwrap();
        let out = f.force_close(CloseCause::Cut);
        let set = out.closed.unwrap();
        assert_eq!(set.cause, CloseCause::Cut);
        assert_eq!(set.si_choice, vec![TupleId::from_seq(0)]);
        assert!(out.dismissed.is_empty());
    }

    #[test]
    fn force_close_in_tentative_dismisses() {
        let schema = Schema::new(["t"]);
        // 0 (ref) closes at 20 (|20|>10 slack... delta 50 slack 10: 20 not
        // within slack of 0 -> closes set; |20-0|=20 < 40 -> searching).
        // Then 42 is tentative (40 <= 42 < 50).
        let tuples = series(&schema, "t", &[(0, 0.0), (10, 20.0), (20, 42.0)]);
        let mut f = dc(50.0, 10.0, &schema);
        for t in &tuples {
            f.process(t).unwrap();
        }
        let out = f.force_close(CloseCause::Cut);
        assert!(out.closed.is_none());
        assert_eq!(out.dismissed, vec![TupleId::from_seq(2)]);
    }

    #[test]
    fn stateful_uses_chosen_output_as_base() {
        let schema = Schema::new(["t"]);
        // Stateless: base after first set would be 50 (the reference).
        // Stateful with chosen output 59: next reference needs |v-59| >= 50.
        let spec = FilterSpec::stateful_delta("t", 50.0, 10.0);
        let mut f =
            DeltaCompression::from_spec(spec, FilterId::from_index(0), schema.attr("t").unwrap())
                .unwrap();
        assert!(f.is_stateful());
        let tuples = series(
            &schema,
            "t",
            &[(0, 50.0), (10, 59.0), (20, 75.0), (30, 102.0), (40, 106.0)],
        );
        let a0 = f.process(&tuples[0]).unwrap();
        assert!(a0.reference);
        f.process(&tuples[1]).unwrap(); // 59 in vicinity of 50
        let a2 = f.process(&tuples[2]).unwrap(); // 75 closes the set
        assert!(a2.closed.is_some());
        // The group chose 59; inform the filter.
        f.output_chosen(TupleId::from_seq(1), 59.0);
        // 102: |102 - 59| = 43 < 50 -> only tentative (43 >= 40).
        let a3 = f.process(&tuples[3]).unwrap();
        assert!(a3.admitted && !a3.reference);
        // 106: |106 - 59| = 47 < 50 -> still tentative.
        let a4 = f.process(&tuples[4]).unwrap();
        assert!(a4.admitted && !a4.reference);
    }

    #[test]
    fn trend_filter_fires_on_rate_changes() {
        let schema = Schema::new(["t"]);
        // 10 ms steps; values rising 1.0 per tuple = 100 units/s, then flat.
        let mut pts = Vec::new();
        for i in 0..10u64 {
            pts.push((i * 10, i as f64));
        }
        for i in 10..20u64 {
            pts.push((i * 10, 9.0));
        }
        let tuples = series(&schema, "t", &pts);
        let spec = FilterSpec::trend_delta("t", 80.0, 10.0);
        let mut f = TrendDelta::from_spec(spec, FilterId::from_index(0), schema.attr("t").unwrap())
            .unwrap();
        let mut refs = 0;
        for t in &tuples {
            if f.process(t).unwrap().reference {
                refs += 1;
            }
        }
        // trend goes 0 -> 100 (fires) -> 0 (fires again)
        assert!(refs >= 2, "trend filter fired {refs} times");
    }

    #[test]
    fn multi_attr_uses_mean() {
        let schema = Schema::new(["a", "b"]);
        let mut b = crate::tuple::TupleBuilder::new(&schema);
        let t0 = b.at_millis(0).set_all(&[0.0, 0.0]).build().unwrap();
        let t1 = b.at_millis(10).set_all(&[10.0, 0.0]).build().unwrap(); // mean 5
        let t2 = b.at_millis(20).set_all(&[10.0, 10.0]).build().unwrap(); // mean 10
        let spec = FilterSpec::multi_attr_delta(["a", "b"], 10.0, 1.0);
        let a_id = schema.attr("a").unwrap();
        let b_id = schema.attr("b").unwrap();
        let mut f =
            MultiAttrDelta::from_spec(spec, FilterId::from_index(0), vec![a_id, b_id]).unwrap();
        assert!(f.process(&t0).unwrap().reference);
        assert!(!f.process(&t1).unwrap().reference, "mean 5 below delta 10");
        assert!(f.process(&t2).unwrap().reference, "mean 10 hits delta");
    }

    #[test]
    fn missing_value_is_an_error() {
        let schema = Schema::new(["a", "b"]);
        let mut builder = crate::tuple::TupleBuilder::new(&schema);
        let t = builder.at_millis(0).set("a", 1.0).build().unwrap();
        let mut f = dc(1.0, 0.1, &Schema::new(["t"]));
        // filter built against schema ["t"] attr 0 == "a" here; use a filter
        // over "b" to provoke the missing value instead:
        let spec = FilterSpec::delta("b", 1.0, 0.1);
        let mut g =
            DeltaCompression::from_spec(spec, FilterId::from_index(1), schema.attr("b").unwrap())
                .unwrap();
        assert!(matches!(g.process(&t), Err(Error::MissingValue { .. })));
        // and the original filter still works on its own stream
        let s2 = Schema::new(["t"]);
        let ts = series(&s2, "t", &[(0, 1.0)]);
        assert!(f.process(&ts[0]).is_ok());
    }

    #[test]
    fn open_cover_tracks_open_set() {
        let (schema, tuples) = paper_stream();
        let mut f = dc(50.0, 10.0, &schema);
        f.process(&tuples[0]).unwrap();
        let c = f.open_cover().unwrap();
        assert_eq!(c.min, Micros::from_millis(10));
        assert_eq!(c.max, Micros::from_millis(10));
        f.process(&tuples[1]).unwrap(); // 35 closes {0}; searching
        assert!(f.open_cover().is_none());
    }

    #[test]
    fn set_indexes_increment() {
        let (schema, tuples) = paper_stream();
        let mut f = dc(50.0, 10.0, &schema);
        let mut indices = Vec::new();
        for t in &tuples {
            if let Some(s) = f.process(t).unwrap().closed {
                indices.push(s.set_index);
            }
        }
        if let Some(s) = f.force_close(CloseCause::EndOfStream).closed {
            indices.push(s.set_index);
        }
        assert_eq!(indices, vec![0, 1, 2]);
    }
}
