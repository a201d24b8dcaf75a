//! The fused one-pass evaluator: the execution back end of a
//! [`RosterPlan`].
//!
//! All per-filter admission state lives in packed struct-of-arrays arenas
//! ([`DeltaArena`] / [`WindowArena`]) instead of per-trait-object fields,
//! and members are indexed by *class* (shared key derivation): each tuple
//! derives every distinct key exactly once, window gates fill the
//! recipient [`FilterSet`] by block-union, and delta members that share a
//! key **and** a comparison base form a *cohort* sorted by qualification
//! threshold — one `|Δ|` plus one binary search decides, for the whole
//! cohort, which members the tuple can possibly touch.
//!
//! Every state transition here mirrors the trait-object implementations in
//! `crate::filter` **verbatim** (same float comparisons, same event
//! order); the equivalence suite pins the two byte-identical.
//!
//! ## Twin folding
//!
//! Filters the plan found equal as a whole — same key class, bit-equal
//! gate ([`RosterPlan::twin_of`]) — are compiled as **one** member, in
//! the slot of their *leader* (the lowest slot among them). Every arena,
//! cohort, open cover and [`StepActions`] bit here belongs to a leader; a
//! follower's slot holds nothing and ignores `force_close`. The engine
//! expands a leader's actions to the whole class through the
//! [`TwinTable`] at the few places a filter's identity leaves the first
//! stage (per-filter counters, group utility, region size, solver
//! weight, recipient labels). A filter without a twin is a class of one,
//! so there is no unfolded mode.
//!
//! Under `Algorithm::PerCandidateSet` the plan folds nothing — every
//! filter is its own leader — because there twins do *not* stay in
//! lockstep past the first stage: a set is decided the moment it closes,
//! from the utilities and recent decisions as they stand at that slot,
//! and the sets decided between two twins' slots have already changed
//! both; a stateful twin's base then follows its own decision
//! (`output_chosen`), and the timely cut runs per filter on its own
//! tolerance.
//!
//! ## Shared vicinity sets
//!
//! Twin folding merges filters that are equal as a whole. Filters that
//! differ only in `δ` still hold the *same* open set whenever they took
//! the same reference tuple with bit-equal slack and kept the same run of
//! tentative candidates before it (what [`DeltaArena::on_reference`]
//! keeps, almost always nothing): from then on every tuple passes or
//! fails their slack test alike, so they admit the same vicinity and
//! close it on the same tuple. Such members form one **vicinity group**:
//! the first by rank leads it, and its open list, reference and slack are
//! the group's; the others follow it ([`DeltaArena::followers`]) and keep
//! no open list of their own. The slack test, the candidate push, the
//! open-cover update and the seal run once per group. On exit the members measure one distance
//! from their shared base, like a cohort's; each one it reaches runs its
//! own `search_step` with its own `δ`, and those that keep searching enter
//! their base's cohort as one sorted run.
//!
//! A group's sealed set leaves the first stage once, as an [`OwnedSet`]:
//! the set, owned by the group's leader, plus every member's slot.
//! The engine expands it over *owners × twin classes* wherever it already
//! expanded twins. Under the region-greedy algorithm that is exact for
//! the reason folding twins is: a region's identical sets are one set of
//! summed weight to the weighted greedy solver, and choosing a tuple
//! covers all of them at once (paper Fig. 2.8: a region is solved as a
//! whole, never set by set). Under the self-interested baseline a set
//! closing only releases utility. Under `Algorithm::PerCandidateSet`
//! nothing is grouped, for the reason nothing is folded there: every
//! member is a group of one.
//!
//! Groups are per-epoch state. Every safe point drains them (each group
//! seals once), and the next epoch's roster starts without any.

use super::{Expr, Gate, RosterPlan};
use crate::batch::TupleBatch;
use crate::bitset::FilterSet;
use crate::candidate::{CandidateTuple, CloseCause, ClosedSet, FilterId, TimeCover};
use crate::engine::Algorithm;
use crate::error::Error;
use crate::quality::{FilterSpec, PickDegree, Prescription};
use crate::region::OpenCovers;
use crate::schema::{AttrId, Schema};
use crate::time::Micros;
use crate::tuple::{Tuple, TupleId};

/// Everything one tuple did to the roster, in packed form: membership
/// bits for the common events (admission, reference) written a block at a
/// time, and an ordered sparse list of the rare ones (dismissals,
/// closures). The engine replays the masks in bulk and the events slot
/// by slot (`GroupEngine::replay_step`). A vicinity group's closure is
/// one event, at its leader's slot.
#[derive(Debug, Default)]
pub(crate) struct StepActions {
    /// Slots whose open set admitted the tuple.
    pub(crate) admitted: FilterSet,
    /// Slots for which the tuple is a reference output.
    pub(crate) references: FilterSet,
    /// Rare events, ascending by slot; at most one entry per slot.
    pub(crate) events: Vec<(u32, StepEvent)>,
    /// Every id dismissed this step, one run per event
    /// ([`StepEvent::dismissed`]).
    pub(crate) dismissed: Vec<TupleId>,
}

/// Which slots stand behind each compiled member: the engine's key for
/// expanding a leader's first-stage actions to every filter of its twin
/// class (a filter without a twin is a class of one).
#[derive(Debug, Default)]
pub(crate) struct TwinTable {
    /// Slots grouped by twin class, ascending within a class (so each
    /// group starts with its leader).
    members: Vec<u32>,
    /// Per slot: its class as a range of `members` — empty for a
    /// follower and for a vacancy.
    span: Vec<std::ops::Range<u32>>,
}

impl TwinTable {
    /// The slots of the class led by `slot`, ascending, `slot` first.
    #[inline]
    pub(crate) fn class(&self, slot: usize) -> &[u32] {
        let span = &self.span[slot];
        &self.members[span.start as usize..span.end as usize]
    }

    /// How many filters the member compiled in `slot` stands for.
    #[inline]
    pub(crate) fn weight(&self, slot: usize) -> u32 {
        self.span[slot].len() as u32
    }
}

/// The non-bitmask events one filter produced for one tuple.
#[derive(Debug, Default)]
pub(crate) struct StepEvent {
    /// Ids dismissed from the filter's open set, as a range of
    /// [`StepActions::dismissed`].
    pub(crate) dismissed: std::ops::Range<usize>,
    /// A candidate set that closed during this step.
    pub(crate) closed: Option<OwnedSet>,
}

/// A sealed candidate set and the members it closed for: the slots of
/// every member of its vicinity group (one slot for a window or a group
/// of one), the set's own `filter` first. Each slot stands for its whole
/// twin class ([`TwinTable`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OwnedSet {
    pub(crate) set: ClosedSet,
    pub(crate) owners: Vec<u32>,
}

/// What [`CompiledRoster::force_close`] closed or dropped for one slot.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ForceClosed {
    /// The set that closed, once for its whole vicinity group.
    pub(crate) closed: Option<OwnedSet>,
    /// Tentative candidates dropped without closure.
    pub(crate) dismissed: Vec<TupleId>,
}

impl StepActions {
    fn clear(&mut self) {
        self.admitted.clear();
        self.references.clear();
        self.events.clear();
        self.dismissed.clear();
    }
}

/// What one delta member's search step did with the current tuple (the
/// compiled form of a `FilterAction`; closures are its group's); its
/// dismissals go straight into [`StepActions::dismissed`].
#[derive(Debug, Default)]
struct MemberStep {
    admitted: bool,
    reference: bool,
}

/// Folds one member's step into the roster's; `dismissed_from` is where
/// the member's run of [`StepActions::dismissed`] starts.
fn record(step: &mut StepActions, slot: u32, dismissed_from: usize, member: MemberStep) {
    let id = FilterId::from_index(slot as usize);
    if member.admitted {
        step.admitted.insert(id);
    }
    if member.reference {
        step.references.insert(id);
    }
    let dismissed = dismissed_from..step.dismissed.len();
    if !dismissed.is_empty() {
        step.events.push((
            slot,
            StepEvent {
                dismissed,
                closed: None,
            },
        ));
    }
}

/// The emptied lists of one [`OwnedSet`] the engine is done with.
#[derive(Debug, Default)]
struct SetLists {
    candidates: Vec<CandidateTuple>,
    si_choice: Vec<TupleId>,
    owners: Vec<u32>,
}

/// Lists of sealed sets the engine is done with, waiting to back the
/// next one: a vicinity group takes one [`SetLists`] when it opens (its
/// open set, choice and member lists) and hands them out when it seals, a
/// window seal takes one, and every [`CompiledRoster::recycle`] returns
/// one, so the pool never outgrows the number of sets in flight.
type SetPool = Vec<SetLists>;

fn candidate_at(id: TupleId, ts: Micros, key: f64) -> CandidateTuple {
    CandidateTuple {
        id,
        timestamp: ts,
        key,
    }
}

fn cover_of(open: &[CandidateTuple]) -> Option<TimeCover> {
    let first = open.first()?;
    let last = open.last()?;
    Some(TimeCover {
        min: first.timestamp,
        max: last.timestamp,
    })
}

/// One shared key derivation, executed once per tuple for its whole class:
/// the plan's [`Expr`] key plus the state a trend carries between tuples.
#[derive(Debug, Clone)]
enum KeyDeriver {
    Single(AttrId),
    Trend {
        attr: AttrId,
        prev: Option<(Micros, f64)>,
    },
    Mean(Vec<AttrId>),
}

impl KeyDeriver {
    fn from_expr(key: &Expr) -> KeyDeriver {
        match key {
            Expr::Attr(a) => KeyDeriver::Single(*a),
            Expr::Trend(a) => KeyDeriver::Trend {
                attr: *a,
                prev: None,
            },
            Expr::Mean(attrs) => KeyDeriver::Mean(attrs.clone()),
        }
    }

    /// Mirrors `filter::delta::Deriver::derive` exactly (same summation
    /// order, same error-before-state-update rule for trends).
    fn derive(&mut self, tuple: &Tuple) -> Result<f64, Error> {
        match self {
            KeyDeriver::Single(a) => tuple.require(*a),
            KeyDeriver::Trend { attr, prev } => {
                let v = tuple.require(*attr)?;
                let now = tuple.timestamp();
                let trend = match *prev {
                    Some((t0, v0)) if now > t0 => (v - v0) / (now - t0).as_secs_f64(),
                    _ => 0.0,
                };
                *prev = Some((now, v));
                Ok(trend)
            }
            KeyDeriver::Mean(attrs) => {
                let mut sum = 0.0;
                for a in attrs.iter() {
                    sum += tuple.require(*a)?;
                }
                Ok(sum / attrs.len() as f64)
            }
        }
    }

    /// First row of `batch[..rows]` whose [`derive`](Self::derive) would
    /// fail (a required attribute is NaN), or `rows` when every row is
    /// derivable. Pure — no deriver state is touched.
    fn first_missing_row(&self, batch: &TupleBatch, rows: usize) -> usize {
        let first_nan = |a: &AttrId| -> usize {
            batch.column(*a)[..rows]
                .iter()
                .position(|v| v.is_nan())
                .unwrap_or(rows)
        };
        match self {
            KeyDeriver::Single(a) => first_nan(a),
            KeyDeriver::Trend { attr, .. } => first_nan(attr),
            KeyDeriver::Mean(attrs) => attrs.iter().map(first_nan).min().unwrap_or(rows),
        }
    }

    /// Derives `out[0..rows]` column-at-a-time. Every float operation
    /// happens in exactly the order the per-row [`derive`](Self::derive)
    /// loop would have used (rows outer, attributes inner), so the
    /// results — and any trend state left behind — are bit-identical.
    /// The caller guarantees (via [`first_missing_row`]) that no required
    /// value in `0..rows` is NaN.
    ///
    /// [`first_missing_row`]: Self::first_missing_row
    fn derive_column(&mut self, batch: &TupleBatch, rows: usize, out: &mut Vec<f64>) {
        out.clear();
        match self {
            KeyDeriver::Single(a) => out.extend_from_slice(&batch.column(*a)[..rows]),
            KeyDeriver::Trend { attr, prev } => {
                let col = &batch.column(*attr)[..rows];
                for (r, &v) in col.iter().enumerate() {
                    let now = batch.timestamp(r);
                    let trend = match *prev {
                        Some((t0, v0)) if now > t0 => (v - v0) / (now - t0).as_secs_f64(),
                        _ => 0.0,
                    };
                    *prev = Some((now, v));
                    out.push(trend);
                }
            }
            KeyDeriver::Mean(attrs) => {
                for r in 0..rows {
                    let mut sum = 0.0;
                    for a in attrs.iter() {
                        sum += batch.column(*a)[r];
                    }
                    out.push(sum / attrs.len() as f64);
                }
            }
        }
    }
}

/// Phase of a delta member's admission automaton (mirror of
/// `filter::delta::Phase`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Initial,
    Searching,
    Tentative,
    Vicinity,
}

/// Where an occupied roster slot's state lives.
#[derive(Debug, Clone, Copy)]
enum MemberRef {
    /// Index into the [`DeltaArena`].
    Delta(u32),
    /// Index into the [`WindowArena`].
    Window(u32),
}

/// Struct-of-arrays state of every delta member, indexed by member id
/// (ascending with the slot). The method bodies mirror
/// `filter::delta::DeltaCore` statement for statement — only the storage
/// layout differs, and a member that follows a vicinity group's leader
/// shares the leader's open set.
#[derive(Debug, Default)]
struct DeltaArena {
    slot: Vec<u32>,
    class: Vec<u32>,
    delta: Vec<f64>,
    slack: Vec<f64>,
    /// `delta - slack`: the cohort sort key ("qualification threshold" —
    /// the least distance `search_step` reacts to).
    qualify: Vec<f64>,
    stateful: Vec<bool>,
    phase: Vec<Phase>,
    base: Vec<f64>,
    reference_val: Vec<f64>,
    reference_id: Vec<Option<TupleId>>,
    set_index: Vec<u64>,
    /// The open set: tentative candidates, or a vicinity group's set
    /// (held by its leader; empty for a follower).
    open: Vec<Vec<CandidateTuple>>,
    /// For a member in the vicinity phase, the leader of its group (the
    /// member itself when it leads).
    leader: Vec<u32>,
    /// For a vicinity group's leader, the other members, ascending by
    /// [`rank`](Self::rank) (empty otherwise).
    followers: Vec<Vec<u32>>,
}

impl DeltaArena {
    fn push_member(
        &mut self,
        slot: u32,
        class: u32,
        delta: f64,
        slack: f64,
        stateful: bool,
    ) -> u32 {
        let m = self.slot.len() as u32;
        self.slot.push(slot);
        self.class.push(class);
        self.delta.push(delta);
        self.slack.push(slack);
        self.qualify.push(delta - slack);
        self.stateful.push(stateful);
        self.phase.push(Phase::Initial);
        self.base.push(0.0);
        self.reference_val.push(0.0);
        self.reference_id.push(None);
        self.set_index.push(0);
        self.open.push(Vec::new());
        self.leader.push(m);
        self.followers.push(Vec::new());
        m
    }

    /// The order of members in a cohort or a vicinity group (leader
    /// first): by the least distance `search_step` reacts to, then by
    /// member.
    fn rank(&self, m: u32) -> (f64, u32) {
        (self.qualify[m as usize], m)
    }

    /// What a member that just took a reference shares with the members
    /// whose open lists equal its own: its slack bits and the first id of
    /// its kept run (the run ends at the reference, and its keys are the
    /// class's).
    fn vicinity_key(&self, m: u32) -> (u64, TupleId) {
        let m = m as usize;
        (self.slack[m].to_bits(), self.open[m][0].id)
    }

    fn on_reference(
        &mut self,
        m: usize,
        id: TupleId,
        ts: Micros,
        key: f64,
        step: &mut MemberStep,
        dismissed: &mut Vec<TupleId>,
    ) {
        // Keep only the contiguous run (by id, i.e. arrival order)
        // immediately preceding the reference whose keys are within slack
        // of it.
        let mut keep_from = self.open[m].len();
        let mut expected = id;
        for (i, c) in self.open[m].iter().enumerate().rev() {
            if c.id.next() == expected && (c.key - key).abs() <= self.slack[m] {
                keep_from = i;
                expected = c.id;
            } else {
                break;
            }
        }
        dismissed.extend(self.open[m].drain(..keep_from).map(|c| c.id));
        self.open[m].push(candidate_at(id, ts, key));
        self.reference_id[m] = Some(id);
        self.reference_val[m] = key;
        if !self.stateful[m] {
            self.base[m] = key;
        }
        self.phase[m] = Phase::Vicinity;
        step.admitted = true;
        step.reference = true;
    }

    fn search_step(
        &mut self,
        m: usize,
        id: TupleId,
        ts: Micros,
        key: f64,
        step: &mut MemberStep,
        dismissed: &mut Vec<TupleId>,
    ) {
        let dist = (key - self.base[m]).abs();
        if dist >= self.delta[m] {
            self.on_reference(m, id, ts, key, step, dismissed);
        } else if dist >= self.delta[m] - self.slack[m] {
            self.open[m].push(candidate_at(id, ts, key));
            self.phase[m] = Phase::Tentative;
            step.admitted = true;
        }
    }
}

/// Gate parameters of one window member.
#[derive(Debug, Clone, Copy)]
enum WindowGate {
    Reservoir {
        k: u32,
    },
    Stratified {
        threshold: f64,
        high_pct: f64,
        low_pct: f64,
        prescription: Prescription,
    },
}

/// Struct-of-arrays state of every sampling-window member. Mirrors
/// `filter::sampling::{ReservoirSampler, StratifiedSampler}`.
#[derive(Debug, Default)]
struct WindowArena {
    slot: Vec<u32>,
    window: Vec<Micros>,
    gate: Vec<WindowGate>,
    current: Vec<Option<u64>>,
    min_val: Vec<f64>,
    max_val: Vec<f64>,
    set_index: Vec<u64>,
    open: Vec<Vec<CandidateTuple>>,
}

impl WindowArena {
    fn push_member(&mut self, slot: u32, window: Micros, gate: WindowGate) -> u32 {
        let m = self.slot.len() as u32;
        self.slot.push(slot);
        self.window.push(window);
        self.gate.push(gate);
        self.current.push(None);
        self.min_val.push(f64::INFINITY);
        self.max_val.push(f64::NEG_INFINITY);
        self.set_index.push(0);
        self.open.push(Vec::new());
        m
    }

    /// One tuple through one window member: maybe close the previous
    /// window, then accumulate. Admission is unconditional and recorded by
    /// the caller's block-union, not here.
    fn step(
        &mut self,
        m: usize,
        id: TupleId,
        ts: Micros,
        v: f64,
        pool: &mut SetPool,
    ) -> Option<OwnedSet> {
        let w = ts.as_micros() / self.window[m].as_micros().max(1);
        let mut closed = None;
        if self.current[m] != Some(w) {
            if self.current[m].is_some() {
                closed = self.seal(m, CloseCause::Natural, pool);
            }
            self.current[m] = Some(w);
        }
        self.open[m].push(candidate_at(id, ts, v));
        if matches!(self.gate[m], WindowGate::Stratified { .. }) {
            self.min_val[m] = self.min_val[m].min(v);
            self.max_val[m] = self.max_val[m].max(v);
        }
        closed
    }

    fn seal(&mut self, m: usize, cause: CloseCause, pool: &mut SetPool) -> Option<OwnedSet> {
        if self.open[m].is_empty() {
            return None;
        }
        // (The pooled choice list is dropped: `si_sample` builds its own.)
        let lists = pool.pop().unwrap_or_default();
        let candidates = std::mem::replace(&mut self.open[m], lists.candidates);
        let mut owners = lists.owners;
        owners.push(self.slot[m]);
        let (pick_degree, prescription) = match self.gate[m] {
            WindowGate::Reservoir { k } => ((k as usize).min(candidates.len()), Prescription::Any),
            WindowGate::Stratified {
                threshold,
                high_pct,
                low_pct,
                prescription,
            } => {
                let rate = if self.max_val[m] - self.min_val[m] >= threshold {
                    high_pct
                } else {
                    low_pct
                };
                self.min_val[m] = f64::INFINITY;
                self.max_val[m] = f64::NEG_INFINITY;
                (
                    PickDegree::Percent(rate).resolve(candidates.len()),
                    prescription,
                )
            }
        };
        let si_choice = crate::filter::StratifiedSampler::si_sample(&candidates, pick_degree);
        let set = ClosedSet {
            filter: FilterId::from_index(self.slot[m] as usize),
            set_index: self.set_index[m],
            candidates,
            pick_degree,
            prescription,
            si_choice,
            cause,
        };
        self.set_index[m] += 1;
        Some(OwnedSet { set, owners })
    }
}

/// Run-time bookkeeping of one key-derivation class: the shared deriver
/// plus its members bucketed by automaton situation, so the per-tuple pass
/// touches each bucket with the cheapest loop that is still exact.
#[derive(Debug)]
struct ClassState {
    deriver: KeyDeriver,
    /// Delta members that have not seen a tuple yet (first tuple is always
    /// a reference).
    initial: Vec<u32>,
    /// Leaders of this class's vicinity groups (compare against their
    /// reference value).
    vicinity: Vec<u32>,
    /// Delta members searching/tentative, grouped by comparison base.
    cohorts: CohortTable,
    /// Window members of this class.
    window_members: Vec<u32>,
    /// Recipient bits of `window_members` — window admission is
    /// unconditional, so one block-union fills them all.
    sampler_mask: FilterSet,
}

/// The searching/tentative delta members of a class that share one
/// comparison base. Every member measures the same `|key − base|`, so the
/// per-tuple pass computes that distance once: below `min_qualify` the
/// whole cohort provably does nothing (one compare, no pointer chase),
/// otherwise one `partition_point` over the sorted members yields exactly
/// those `search_step` would touch.
#[derive(Debug)]
struct Cohort {
    base: f64,
    /// `qualify` of `members[0]` — the least distance any member reacts
    /// to.
    min_qualify: f64,
    /// Ascending by `(qualify, member)`; never empty.
    members: Vec<u32>,
}

/// The cohorts of one class in contiguous storage, scanned linearly per
/// tuple and kept sorted by base bits so that finding a base's cohort
/// (relocation, stateful rebasing) is a binary search — a roster with
/// many distinct bases pays O(log cohorts) per relocation, never a scan.
#[derive(Debug, Default)]
struct CohortTable {
    cohorts: Vec<Cohort>,
    /// Member lists of emptied cohorts, reused by the next new cohort.
    spare: Vec<Vec<u32>>,
}

impl CohortTable {
    fn position(&self, bits: u64) -> Result<usize, usize> {
        self.cohorts
            .binary_search_by_key(&bits, |c| c.base.to_bits())
    }

    /// Inserts the members of `run` into the cohorts of their current
    /// bases (created for a base no member is on yet), leaving `run`
    /// sorted. Members that left one vicinity group share a base, so they
    /// merge into their cohort as one sorted run: one pass over the
    /// cohort, not one shift per member.
    fn insert_run(&mut self, delta: &DeltaArena, run: &mut [u32]) {
        let rank = |m: u32| delta.rank(m);
        let bits = |m: u32| delta.base[m as usize].to_bits();
        run.sort_unstable_by(|&a, &b| {
            (bits(a).cmp(&bits(b))).then_with(|| rank(a).partial_cmp(&rank(b)).expect("no NaN"))
        });
        for same_base in run.chunk_by(|&a, &b| bits(a) == bits(b)) {
            let base = delta.base[same_base[0] as usize];
            let at = match self.position(base.to_bits()) {
                Ok(at) => at,
                Err(at) => {
                    let cohort = Cohort {
                        base,
                        min_qualify: 0.0,
                        members: self.spare.pop().unwrap_or_default(),
                    };
                    self.cohorts.insert(at, cohort);
                    at
                }
            };
            // Merge from the back, into the room the run is given at the
            // end.
            let cohort = &mut self.cohorts[at];
            let members = &mut cohort.members;
            let (mut kept, mut added) = (members.len(), same_base.len());
            members.extend_from_slice(same_base);
            while added > 0 {
                let from_run = kept == 0 || rank(members[kept - 1]) < rank(same_base[added - 1]);
                let next = if from_run {
                    added -= 1;
                    same_base[added]
                } else {
                    kept -= 1;
                    members[kept]
                };
                members[kept + added] = next;
            }
            cohort.min_qualify = delta.qualify[members[0] as usize];
        }
    }

    /// Removes `m` from the cohort on base `bits` (its base at insertion
    /// time).
    fn remove(&mut self, delta: &DeltaArena, bits: u64, m: u32) {
        let Ok(at) = self.position(bits) else {
            return;
        };
        let cohort = &mut self.cohorts[at];
        cohort.members.retain(|&o| o != m);
        match cohort.members.first() {
            Some(&first) => cohort.min_qualify = delta.qualify[first as usize],
            None => self.spare.push(self.cohorts.remove(at).members),
        }
    }
}

/// A roster compiled into fused evaluators: the execution form of a
/// [`RosterPlan`].
///
/// Construction is a pure function of `(roster, schema, algorithm)` — the
/// compiled state holds nothing a snapshot would need to persist, which is
/// what keeps [`GroupSnapshot`](crate::snapshot::GroupSnapshot) format-
/// stable: restore simply recompiles. The engine recompiles at every epoch
/// safe point (vacancy holes preserved).
#[derive(Debug)]
pub struct CompiledRoster {
    plan: RosterPlan,
    classes: Vec<ClassState>,
    delta: DeltaArena,
    windows: WindowArena,
    /// Whether members that can share a vicinity set do (not under
    /// `Algorithm::PerCandidateSet`).
    shares_vicinity: bool,
    /// Per engine slot: where that filter's state lives (`None` =
    /// vacancy).
    member_of: Vec<Option<MemberRef>>,
    /// Per-class derived-key scratch, refilled each tuple.
    keys: Vec<f64>,
    /// Per-class derived-key *columns*, refilled each batch by
    /// [`derive_batch`](Self::derive_batch) (class-major; allocations are
    /// reused across batches).
    key_cols: Vec<Vec<f64>>,
    /// Relocation scratch (members changing bucket mid-pass are staged so
    /// a tuple never reaches the same member twice).
    to_vicinity: Vec<u32>,
    to_cohort: Vec<u32>,
    /// Positions of the cohorts the current tuple's distance reaches.
    reached: Vec<usize>,
    /// Cover of every non-empty open set by slot, written at each arena
    /// mutation — when the open list is hot in cache — so the engine's
    /// per-row region drain never chases `member_of` → arena → list.
    open_idx: OpenCovers,
    set_pool: SetPool,
}

impl CompiledRoster {
    /// Lowers and compiles a roster (occupied `(id, spec)` slots,
    /// ascending by id).
    ///
    /// # Errors
    /// Exactly the errors filter instantiation would report, in the same
    /// slot order ([`super::FilterPlan::lower`]).
    pub fn compile<'a>(
        roster: impl IntoIterator<Item = (FilterId, &'a FilterSpec)>,
        schema: &Schema,
        algorithm: Algorithm,
    ) -> Result<CompiledRoster, Error> {
        let plan = RosterPlan::lower(roster, schema, algorithm)?;
        let mut classes: Vec<ClassState> = plan
            .classes
            .iter()
            .map(|key| ClassState {
                deriver: KeyDeriver::from_expr(key),
                initial: Vec::new(),
                vicinity: Vec::new(),
                cohorts: CohortTable::default(),
                window_members: Vec::new(),
                sampler_mask: FilterSet::new(),
            })
            .collect();
        let mut darena = DeltaArena::default();
        let mut warena = WindowArena::default();
        let width = plan.filters.last().map_or(0, |fp| fp.id.index() + 1);
        let mut member_of: Vec<Option<MemberRef>> = vec![None; width];
        for (i, fp) in plan.filters.iter().enumerate() {
            if plan.twin_of[i] != i {
                // A follower: its leader's member is its state.
                continue;
            }
            let ci = plan.class_of[i];
            let slot = fp.id.index() as u32;
            match fp.gate {
                Gate::Delta {
                    delta,
                    slack,
                    stateful,
                } => {
                    let m = darena.push_member(slot, ci as u32, delta, slack, stateful);
                    classes[ci].initial.push(m);
                    member_of[slot as usize] = Some(MemberRef::Delta(m));
                }
                Gate::Reservoir { window, k } => {
                    let m = warena.push_member(slot, window, WindowGate::Reservoir { k });
                    classes[ci].window_members.push(m);
                    classes[ci].sampler_mask.insert(fp.id);
                    member_of[slot as usize] = Some(MemberRef::Window(m));
                }
                Gate::Stratified {
                    window,
                    threshold,
                    high_pct,
                    low_pct,
                    prescription,
                } => {
                    let m = warena.push_member(
                        slot,
                        window,
                        WindowGate::Stratified {
                            threshold,
                            high_pct,
                            low_pct,
                            prescription,
                        },
                    );
                    classes[ci].window_members.push(m);
                    classes[ci].sampler_mask.insert(fp.id);
                    member_of[slot as usize] = Some(MemberRef::Window(m));
                }
            }
        }
        let keys = vec![0.0; classes.len()];
        let key_cols = vec![Vec::new(); classes.len()];
        Ok(CompiledRoster {
            plan,
            classes,
            delta: darena,
            windows: warena,
            shares_vicinity: algorithm != Algorithm::PerCandidateSet,
            member_of,
            keys,
            key_cols,
            to_vicinity: Vec::new(),
            to_cohort: Vec::new(),
            reached: Vec::new(),
            open_idx: OpenCovers::with_slots(width),
            set_pool: SetPool::new(),
        })
    }

    /// The logical plan this roster was compiled from.
    pub fn plan(&self) -> &RosterPlan {
        &self.plan
    }

    /// Number of shared key-derivation classes (the CSE result).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of filters compiled (folded or not).
    pub fn member_count(&self) -> usize {
        self.plan.filters.len()
    }

    /// Number of members that hold state and are evaluated per tuple:
    /// one per twin class ([`RosterPlan::twin_of`]).
    pub fn distinct_members(&self) -> usize {
        self.delta.slot.len() + self.windows.slot.len()
    }

    /// The slots behind each member, for the engine to expand a step by.
    pub(crate) fn twin_table(&self) -> TwinTable {
        let filters = &self.plan.filters;
        let slot_of = |i: usize| filters[i].id.index();
        // Count each class at its leader's slot, turn the counts into
        // (still empty) ranges laid end to end, then drop the filters in,
        // ascending by slot.
        let mut span = vec![0..0; self.member_of.len()];
        for &leader in &self.plan.twin_of {
            span[slot_of(leader)].end += 1;
        }
        let mut next = 0;
        for class in &mut span {
            let size = class.end;
            *class = next..next;
            next += size;
        }
        let mut members = vec![0; filters.len()];
        for (i, &leader) in self.plan.twin_of.iter().enumerate() {
            let class = &mut span[slot_of(leader)];
            members[class.end as usize] = slot_of(i) as u32;
            class.end += 1;
        }
        TwinTable { members, span }
    }

    /// Runs one tuple through every member in a single pass, filling
    /// `step` with the roster's combined actions.
    ///
    /// # Errors
    /// The first derivation error in class (= first-use slot) order —
    /// identical to the error the slot loop would return.
    pub(crate) fn process_tuple(
        &mut self,
        tuple: &Tuple,
        step: &mut StepActions,
    ) -> Result<(), Error> {
        step.clear();
        // Stage 1 — hoisted loads: derive every distinct key once.
        for (ci, class) in self.classes.iter_mut().enumerate() {
            self.keys[ci] = class.deriver.derive(tuple)?;
        }
        self.evaluate_derived(tuple.id(), tuple.timestamp(), step);
        Ok(())
    }

    /// Derives every key class over `batch` column-at-a-time, filling the
    /// per-class key columns for [`evaluate_row`](Self::evaluate_row).
    ///
    /// Returns the number of *derivable* leading rows: the prefix before
    /// the first row on which any class's derivation would fail (a
    /// required value is NaN). Deriver state (trend history) advances for
    /// exactly that prefix, so delegating the failing row to the
    /// single-tuple path afterwards reproduces the per-tuple run — error,
    /// partial state and all — bit for bit.
    pub(crate) fn derive_batch(&mut self, batch: &TupleBatch) -> usize {
        let rows = batch.rows();
        let ok_rows = self
            .classes
            .iter()
            .map(|c| c.deriver.first_missing_row(batch, rows))
            .min()
            .unwrap_or(rows);
        for (ci, class) in self.classes.iter_mut().enumerate() {
            class
                .deriver
                .derive_column(batch, ok_rows, &mut self.key_cols[ci]);
        }
        ok_rows
    }

    /// Runs one already-derived batch row through every member — stage 2
    /// of [`process_tuple`] against row `r`'s column of keys. Only valid
    /// for `r` within the prefix the last [`derive_batch`](Self::derive_batch)
    /// returned.
    ///
    /// [`process_tuple`]: Self::process_tuple
    pub(crate) fn evaluate_row(
        &mut self,
        r: usize,
        id: TupleId,
        ts: Micros,
        step: &mut StepActions,
    ) {
        step.clear();
        for ci in 0..self.keys.len() {
            self.keys[ci] = self.key_cols[ci][r];
        }
        self.evaluate_derived(id, ts, step);
    }

    /// Stage 2 — fused evaluation per class over `self.keys`. Shared by
    /// the per-tuple and columnar paths: the tuple identity is fully
    /// captured by `(id, ts, keys)`, so both paths run the identical
    /// member loops and produce the identical step.
    fn evaluate_derived(&mut self, id: TupleId, ts: Micros, step: &mut StepActions) {
        for ci in 0..self.classes.len() {
            let key = self.keys[ci];
            // Window members: accumulate, closing on window boundaries;
            // admission is one block-union over the whole class.
            for wi in 0..self.classes[ci].window_members.len() {
                let m = self.classes[ci].window_members[wi] as usize;
                if let Some(set) = self.windows.step(m, id, ts, key, &mut self.set_pool) {
                    let slot = self.windows.slot[m];
                    step.events.push((
                        slot,
                        StepEvent {
                            dismissed: 0..0,
                            closed: Some(set),
                        },
                    ));
                }
                // `step` always pushes the current tuple.
                self.open_idx.update(
                    self.windows.slot[m] as usize,
                    cover_of(&self.windows.open[m]),
                );
            }
            step.admitted.union_with(&self.classes[ci].sampler_mask);

            // Delta members still in Initial: first tuple is a reference.
            for ii in 0..self.classes[ci].initial.len() {
                let m = self.classes[ci].initial[ii] as usize;
                let mut member = MemberStep::default();
                let dismissed_from = step.dismissed.len();
                self.delta
                    .on_reference(m, id, ts, key, &mut member, &mut step.dismissed);
                // The reference itself stays open.
                self.open_idx
                    .update(self.delta.slot[m] as usize, cover_of(&self.delta.open[m]));
                record(step, self.delta.slot[m], dismissed_from, member);
                self.to_vicinity.push(m as u32);
            }
            self.classes[ci].initial.clear();

            // Vicinity groups: within slack of their reference stay open;
            // otherwise seal once, and the members whose threshold the
            // tuple reaches fall through to their own search steps.
            let mut vi = 0;
            while vi < self.classes[ci].vicinity.len() {
                let l = self.classes[ci].vicinity[vi] as usize;
                if (key - self.delta.reference_val[l]).abs() <= self.delta.slack[l] {
                    self.delta.open[l].push(candidate_at(id, ts, key));
                    let slot = self.delta.slot[l] as usize;
                    self.open_idx.update(slot, cover_of(&self.delta.open[l]));
                    step.admitted.insert(FilterId::from_index(slot));
                    for &f in &self.delta.followers[l] {
                        let slot = self.delta.slot[f as usize] as usize;
                        step.admitted.insert(FilterId::from_index(slot));
                    }
                    vi += 1;
                } else {
                    self.classes[ci].vicinity.swap_remove(vi);
                    self.exit_group(l, id, ts, key, step);
                }
            }

            // Cohorts: one distance per distinct base. The scan itself only
            // reads — a cohort whose smallest threshold the distance does
            // not reach costs one compare — and the few it does reach pay
            // one binary search each, after which only the qualifying
            // prefix runs `search_step` (the suffix provably produces no
            // action).
            let table = &mut self.classes[ci].cohorts;
            self.reached.clear();
            self.reached.extend(
                (table.cohorts.iter().enumerate())
                    .filter(|(_, c)| c.min_qualify <= (key - c.base).abs())
                    .map(|(at, _)| at),
            );
            for &at in &self.reached {
                let cohort = &mut table.cohorts[at];
                let dist = (key - cohort.base).abs();
                let members = &mut cohort.members;
                let cut = members.partition_point(|&m| self.delta.qualify[m as usize] <= dist);
                let mut w = 0;
                for r in 0..cut {
                    let m = members[r] as usize;
                    let mut member = MemberStep::default();
                    let dismissed_from = step.dismissed.len();
                    self.delta
                        .search_step(m, id, ts, key, &mut member, &mut step.dismissed);
                    self.open_idx
                        .update(self.delta.slot[m] as usize, cover_of(&self.delta.open[m]));
                    record(step, self.delta.slot[m], dismissed_from, member);
                    if self.delta.phase[m] == Phase::Vicinity {
                        self.to_vicinity.push(m as u32); // leaves the cohort
                    } else {
                        members[w] = members[r];
                        w += 1;
                    }
                }
                members.copy_within(cut.., w);
                members.truncate(w + members.len() - cut);
                if let Some(&first) = members.first() {
                    cohort.min_qualify = self.delta.qualify[first as usize];
                }
            }
            // Emptied cohorts leave the table (last first, so the earlier
            // positions stay valid); their lists are kept for reuse.
            for &at in self.reached.iter().rev() {
                if table.cohorts[at].members.is_empty() {
                    table.spare.push(table.cohorts.remove(at).members);
                }
            }

            // Staged relocations (never within the same scan, so a tuple
            // reaches each member exactly once); most tuples stage none.
            if !self.to_cohort.is_empty() {
                (self.classes[ci].cohorts).insert_run(&self.delta, &mut self.to_cohort);
                self.to_cohort.clear();
            }
            if !self.to_vicinity.is_empty() {
                self.open_groups(ci);
            }
        }
        // Engine replay order is ascending slot (≤ 1 event per slot).
        step.events.sort_unstable_by_key(|(slot, _)| *slot);
    }

    /// Seals the set of the group led by `l` (already out of its class's
    /// list) for every member, and backs the leader with fresh lists. The
    /// members now search from their unchanged, shared base; the followers
    /// stay listed for the caller to move on.
    fn seal_group(&mut self, l: usize, cause: CloseCause) -> OwnedSet {
        let lists = self.set_pool.pop().unwrap_or_default();
        let delta = &mut self.delta;
        let mut si_choice = lists.si_choice;
        si_choice.extend(delta.reference_id[l].take());
        let set = ClosedSet {
            filter: FilterId::from_index(delta.slot[l] as usize),
            set_index: delta.set_index[l],
            candidates: std::mem::replace(&mut delta.open[l], lists.candidates),
            pick_degree: 1,
            prescription: Prescription::Any,
            si_choice,
            cause,
        };
        let mut owners = lists.owners;
        owners.push(delta.slot[l]);
        owners.extend(delta.followers[l].iter().map(|&f| delta.slot[f as usize]));
        for &f in &delta.followers[l] {
            let f = f as usize;
            delta.set_index[f] += 1;
            delta.reference_id[f] = None;
            delta.phase[f] = Phase::Searching;
        }
        delta.set_index[l] += 1;
        delta.phase[l] = Phase::Searching;
        self.open_idx.update(set.filter.index(), None);
        OwnedSet { set, owners }
    }

    /// A tuple outside the slack of the group led by `l`: the group seals
    /// once, and each member runs its own search step on the tuple. The
    /// members share their base (the reference value; a stateful base is
    /// only ever alone in its group), so like a cohort's they measure one
    /// distance, and only the members whose threshold it reaches can act
    /// (the leader first, then a prefix of the followers); the rest go
    /// back to searching as they are. A follower's open list is empty and
    /// the leader's was just sealed, so the steps dismiss nothing and the
    /// closure is the only event at the leader's slot.
    fn exit_group(&mut self, l: usize, id: TupleId, ts: Micros, key: f64, step: &mut StepActions) {
        let sealed = self.seal_group(l, CloseCause::Natural);
        let mut followers = std::mem::take(&mut self.delta.followers[l]);
        let base = self.delta.base[l];
        debug_assert!(
            (followers.iter()).all(|&f| self.delta.base[f as usize].to_bits() == base.to_bits())
        );
        let dist = (key - base).abs();
        let dismissed_from = step.dismissed.len();
        if self.delta.qualify[l] <= dist {
            self.search_member(l, id, ts, key, step);
            let reached = followers.partition_point(|&f| self.delta.qualify[f as usize] <= dist);
            for &f in &followers[..reached] {
                self.search_member(f as usize, id, ts, key, step);
            }
            self.to_cohort.extend_from_slice(&followers[reached..]);
        } else {
            self.to_cohort.push(l as u32);
            self.to_cohort.extend_from_slice(&followers);
        }
        followers.clear();
        self.delta.followers[l] = followers;
        debug_assert_eq!(step.dismissed.len(), dismissed_from);
        step.events.push((
            sealed.owners[0],
            StepEvent {
                dismissed: dismissed_from..dismissed_from,
                closed: Some(sealed),
            },
        ));
    }

    /// Runs delta member `m`'s search step on the tuple and stages its
    /// move: to the vicinity if it took the tuple as its reference, to a
    /// cohort otherwise.
    fn search_member(
        &mut self,
        m: usize,
        id: TupleId,
        ts: Micros,
        key: f64,
        step: &mut StepActions,
    ) {
        let mut member = MemberStep::default();
        let dismissed_from = step.dismissed.len();
        self.delta
            .search_step(m, id, ts, key, &mut member, &mut step.dismissed);
        let slot = self.delta.slot[m];
        self.open_idx
            .update(slot as usize, cover_of(&self.delta.open[m]));
        record(step, slot, dismissed_from, member);
        if self.delta.phase[m] == Phase::Vicinity {
            self.to_vicinity.push(m as u32);
        } else {
            self.to_cohort.push(m as u32);
        }
    }

    /// Puts the members staged in `to_vicinity` — each just took the
    /// current tuple as its reference, its open list holding the kept run
    /// and the reference — into vicinity groups of class `ci`, in
    /// ascending [`rank`](DeltaArena::rank) order. A member follows a
    /// leader that opened its group on this tuple with a bit-equal slack
    /// and an open list that starts at the same id, and so equals its own
    /// (unless `shares_vicinity` is off); a member that finds none leads a
    /// group of its own.
    fn open_groups(&mut self, ci: usize) {
        let mut entered = std::mem::take(&mut self.to_vicinity);
        let delta = &mut self.delta;
        entered
            .sort_unstable_by(|&a, &b| delta.rank(a).partial_cmp(&delta.rank(b)).expect("no NaN"));
        let opened = self.classes[ci].vicinity.len();
        for &m in &entered {
            let mi = m as usize;
            let key = delta.vicinity_key(m);
            let leaders = &self.classes[ci].vicinity[opened..];
            let leader = (leaders.iter().copied())
                .find(|&l| self.shares_vicinity && delta.vicinity_key(l) == key);
            match leader {
                Some(l) => {
                    debug_assert_eq!(delta.open[mi], delta.open[l as usize]);
                    delta.followers[l as usize].push(m);
                    delta.open[mi].clear();
                    delta.leader[mi] = l;
                    self.open_idx.update(delta.slot[mi] as usize, None);
                }
                None => {
                    delta.leader[mi] = m;
                    self.classes[ci].vicinity.push(m);
                }
            }
        }
        entered.clear();
        self.to_vicinity = entered;
    }

    /// Force-closes the open set of the member in `slot` (timely cut /
    /// epoch boundary / end of stream) — once for its whole twin class,
    /// and a vicinity set once for its whole group (the group's other
    /// slots then have nothing left to close). No-op for vacancies and
    /// twin followers.
    pub(crate) fn force_close(&mut self, slot: usize, cause: CloseCause) -> ForceClosed {
        match self.member_of.get(slot).copied().flatten() {
            Some(MemberRef::Window(m)) => {
                let closed = self.windows.seal(m as usize, cause, &mut self.set_pool);
                self.open_idx.update(slot, None);
                ForceClosed {
                    closed,
                    dismissed: Vec::new(),
                }
            }
            Some(MemberRef::Delta(m)) => {
                let mi = m as usize;
                match self.delta.phase[mi] {
                    Phase::Vicinity => {
                        let l = self.delta.leader[mi];
                        let ci = self.delta.class[mi] as usize;
                        let vicinity = &mut self.classes[ci].vicinity;
                        let at = (vicinity.iter().position(|&o| o == l))
                            .expect("a group's leader is listed in its class");
                        vicinity.swap_remove(at);
                        let sealed = self.seal_group(l as usize, cause);
                        // Sealed out of the vicinity: the members now
                        // search from their (unchanged, shared) base.
                        self.to_cohort.push(l);
                        (self.to_cohort).append(&mut self.delta.followers[l as usize]);
                        (self.classes[ci].cohorts).insert_run(&self.delta, &mut self.to_cohort);
                        self.to_cohort.clear();
                        ForceClosed {
                            closed: Some(sealed),
                            dismissed: Vec::new(),
                        }
                    }
                    Phase::Tentative => {
                        let dismissed = self.delta.open[mi].drain(..).map(|c| c.id).collect();
                        self.delta.phase[mi] = Phase::Searching;
                        self.open_idx.update(slot, None);
                        ForceClosed {
                            closed: None,
                            dismissed,
                        }
                    }
                    Phase::Initial | Phase::Searching => ForceClosed::default(),
                }
            }
            None => ForceClosed::default(),
        }
    }

    /// Takes back a sealed set the engine is done with (its region
    /// completed), so its lists back a later sealed set instead of being
    /// freed here and allocated again there.
    pub(crate) fn recycle(&mut self, sealed: OwnedSet) {
        let OwnedSet {
            set:
                ClosedSet {
                    mut candidates,
                    mut si_choice,
                    ..
                },
            mut owners,
        } = sealed;
        candidates.clear();
        si_choice.clear();
        owners.clear();
        self.set_pool.push(SetLists {
            candidates,
            si_choice,
            owners,
        });
    }

    /// Informs a stateful member which value the group chose for its last
    /// set, rebasing its cohort membership if the base moved.
    pub(crate) fn output_chosen(&mut self, slot: usize, key: f64) {
        if let Some(MemberRef::Delta(m)) = self.member_of.get(slot).copied().flatten() {
            let mi = m as usize;
            if !self.delta.stateful[mi] {
                return;
            }
            let old = self.delta.base[mi];
            self.delta.base[mi] = key;
            if old.to_bits() != key.to_bits()
                && matches!(self.delta.phase[mi], Phase::Searching | Phase::Tentative)
            {
                let cohorts = &mut self.classes[self.delta.class[mi] as usize].cohorts;
                cohorts.remove(&self.delta, old.to_bits(), m);
                cohorts.insert_run(&self.delta, &mut [m]);
            }
        }
    }

    /// The open set of delta member `m`: its leader's in the vicinity.
    fn delta_open(&self, m: usize) -> &[CandidateTuple] {
        match self.delta.phase[m] {
            Phase::Vicinity => &self.delta.open[self.delta.leader[m] as usize],
            _ => &self.delta.open[m],
        }
    }

    /// Time cover of the open set of the filter in `slot`.
    pub(crate) fn open_cover(&self, slot: usize) -> Option<TimeCover> {
        match self.member_of.get(slot).copied().flatten()? {
            MemberRef::Delta(m) => cover_of(self.delta_open(m as usize)),
            MemberRef::Window(m) => cover_of(&self.windows.open[m as usize]),
        }
    }

    /// The cover of every non-empty open set, by slot — what a full
    /// roster scan would find.
    pub(crate) fn open_covers(&self) -> &OpenCovers {
        &self.open_idx
    }

    /// Number of candidates in the open set of the filter in `slot`.
    pub(crate) fn open_len(&self, slot: usize) -> usize {
        match self.member_of.get(slot).copied().flatten() {
            Some(MemberRef::Delta(m)) => self.delta_open(m as usize).len(),
            Some(MemberRef::Window(m)) => self.windows.open[m as usize].len(),
            None => 0,
        }
    }

    /// Whether the filter in `slot` emits at reference identification
    /// under the self-interested baseline (DC yes, samplers no).
    pub(crate) fn si_emits_at_reference(&self, slot: usize) -> bool {
        !matches!(
            self.member_of.get(slot).copied().flatten(),
            Some(MemberRef::Window(_))
        )
    }

    /// Whether the filter in `slot` is stateful.
    pub(crate) fn is_stateful(&self, slot: usize) -> bool {
        match self.member_of.get(slot).copied().flatten() {
            Some(MemberRef::Delta(m)) => self.delta.stateful[m as usize],
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{build_filter, GroupFilter};
    use crate::tuple::series;

    impl CompiledRoster {
        /// The cohort tables' structural invariants: every class's table
        /// is strictly ascending by base bits (so one cohort per distinct
        /// base), every cohort is non-empty, sorted by `(qualify,
        /// member)` with `min_qualify` its head's threshold, and the
        /// cohorts hold exactly the searching/tentative members, each
        /// under its current base.
        fn assert_cohort_invariants(&self) {
            let mut in_cohorts = 0;
            for (ci, class) in self.classes.iter().enumerate() {
                let cohorts = &class.cohorts.cohorts;
                assert!(
                    cohorts
                        .windows(2)
                        .all(|w| w[0].base.to_bits() < w[1].base.to_bits()),
                    "class {ci}: table not strictly ascending by base bits"
                );
                for cohort in cohorts {
                    let keys: Vec<(f64, u32)> = (cohort.members.iter())
                        .map(|&m| (self.delta.qualify[m as usize], m))
                        .collect();
                    assert!(!keys.is_empty(), "class {ci}: empty cohort kept");
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted cohort");
                    assert_eq!(cohort.min_qualify, keys[0].0);
                    for &m in &cohort.members {
                        let m = m as usize;
                        assert_eq!(self.delta.class[m] as usize, ci);
                        assert_eq!(self.delta.base[m].to_bits(), cohort.base.to_bits());
                        assert!(matches!(
                            self.delta.phase[m],
                            Phase::Searching | Phase::Tentative
                        ));
                    }
                    in_cohorts += cohort.members.len();
                }
            }
            let searching = (self.delta.phase.iter())
                .filter(|p| matches!(p, Phase::Searching | Phase::Tentative))
                .count();
            assert_eq!(in_cohorts, searching, "a searching member is in no cohort");
        }

        fn cohort_count(&self) -> usize {
            self.classes.iter().map(|c| c.cohorts.cohorts.len()).sum()
        }

        /// A vicinity group's members, leader first.
        fn group_of(&self, l: u32) -> Vec<u32> {
            std::iter::once(l)
                .chain(self.delta.followers[l as usize].iter().copied())
                .collect()
        }

        /// The vicinity groups' invariants, against the trait objects of
        /// a roster whose slots are dense (`oracles[slot]`): every member
        /// in the vicinity phase leads exactly one listed group of its
        /// class or follows exactly one leader, and only they do; a
        /// group's members (leader first) ascend by rank, and the
        /// followers share the leader's reference id and the bits of its
        /// reference value, slack and base; a follower keeps no open list
        /// and no open cover of its own, and
        /// each member's trait object holds the leader's open list, whose
        /// cover is the leader slot's. Members that could share a group do
        /// (no two groups of a class share a reference, slack bits and a
        /// kept run), except under `PerCandidateSet`, where every group
        /// has one member.
        fn assert_vicinity_group_invariants(&self, oracles: &[Box<dyn GroupFilter>]) {
            let delta = &self.delta;
            let mut grouped = vec![false; delta.slot.len()];
            for (ci, class) in self.classes.iter().enumerate() {
                let mut keys = std::collections::BTreeSet::new();
                for &l in &class.vicinity {
                    let li = l as usize;
                    let members = self.group_of(l);
                    let ranks = members.iter().map(|&m| delta.rank(m));
                    assert!(ranks.clone().zip(ranks.skip(1)).all(|(a, b)| a < b));
                    assert!(self.shares_vicinity || members.len() == 1);
                    let open = &delta.open[li];
                    let key = (
                        delta.reference_id[li],
                        delta.slack[li].to_bits(),
                        open[0].id,
                    );
                    let new = keys.insert(key) || !self.shares_vicinity;
                    assert!(new, "class {ci}: two groups could share {key:?}");
                    let leader_slot = delta.slot[li] as usize;
                    assert_eq!(self.open_idx.get(leader_slot), cover_of(open));
                    for &m in &members {
                        let m = m as usize;
                        let slot = delta.slot[m] as usize;
                        let ctx = format!("class {ci}, group of slot {leader_slot}, slot {slot}");
                        assert!(!std::mem::replace(&mut grouped[m], true), "{ctx}: twice");
                        assert_eq!(delta.class[m] as usize, ci, "{ctx}");
                        assert_eq!(delta.phase[m], Phase::Vicinity, "{ctx}");
                        assert_eq!(delta.leader[m], l, "{ctx}");
                        assert_eq!(delta.reference_id[m], delta.reference_id[li], "{ctx}");
                        let bits = |v: &[f64]| v[m].to_bits() == v[li].to_bits();
                        assert!(bits(&delta.reference_val) && bits(&delta.slack), "{ctx}");
                        assert!(bits(&delta.base), "{ctx}: base");
                        assert_eq!(oracles[slot].open_candidates(), &open[..], "{ctx}");
                        if m != li {
                            assert!(delta.open[m].is_empty(), "{ctx}: own open list");
                            assert!(delta.followers[m].is_empty(), "{ctx}: followers");
                            assert_eq!(self.open_idx.get(slot), None, "{ctx}: own cover");
                        }
                    }
                }
            }
            for (m, phase) in delta.phase.iter().enumerate() {
                let ctx = format!("member {m}");
                assert_eq!(*phase == Phase::Vicinity, grouped[m], "{ctx}: group");
                assert!(
                    grouped[m] || delta.followers[m].is_empty(),
                    "{ctx}: followers"
                );
            }
        }

        /// How many sets the member in `slot` has closed.
        fn sets_closed_by(&self, slot: usize) -> u64 {
            match self.member_of[slot] {
                Some(MemberRef::Delta(m)) => self.delta.set_index[m as usize],
                Some(MemberRef::Window(m)) => self.windows.set_index[m as usize],
                None => 0,
            }
        }
    }

    /// Drives the compiled roster and one trait object per slot over the
    /// same stream and asserts, at every tuple, that each slot's oracle did
    /// what the member standing for it — its twin class's leader — did,
    /// and answers every question the engine asks its first stage alike:
    /// open cover, open length, statefulness, and whether it emits at a
    /// reference under the self-interested baseline. A set closes once
    /// for its vicinity group, at its leader's slot, and must equal
    /// each owner's oracle's set but for the owning filter and its set
    /// count. A twin follower holds no open set of its own. A step never
    /// closes or dismisses the current tuple, which the engine's replay
    /// relies on (`GroupEngine::replay_step`); and the cohort and
    /// vicinity-group invariants hold after each tuple. A stateful member
    /// whose set closes is told an output (a different candidate each
    /// time) on both sides, like the engine would; closed sets go back to
    /// the roster's pool. With a `cut_after` budget, every slot is
    /// force-closed as a timely cut whenever an open set has waited that
    /// long, the way the region-greedy engine's `cut_all` closes them.
    /// `after_tuple` sees the roster after every tuple.
    fn assert_lockstep_with(
        specs: Vec<FilterSpec>,
        algorithm: Algorithm,
        schema: &Schema,
        tuples: &[Tuple],
        cut_after: Option<Micros>,
        mut after_tuple: impl FnMut(&CompiledRoster),
    ) -> Exercised {
        let mut seen = Exercised::default();
        let roster: Vec<(FilterId, FilterSpec)> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| (FilterId::from_index(i), s))
            .collect();
        let mut compiled =
            CompiledRoster::compile(roster.iter().map(|(id, s)| (*id, s)), schema, algorithm)
                .unwrap();
        // Slots are dense here, so plan indices are slots.
        let leader_of = compiled.plan().twin_of.clone();
        let mut oracles: Vec<Box<dyn GroupFilter>> = roster
            .iter()
            .map(|(id, s)| {
                let effective = if s.is_stateful() && algorithm == Algorithm::SelfInterested {
                    let mut s = s.clone();
                    if let crate::quality::FilterKind::Delta { dependency, .. } = &mut s.kind {
                        *dependency = crate::quality::Dependency::Stateless;
                    }
                    s
                } else {
                    s.clone()
                };
                build_filter(&effective, *id, schema).unwrap()
            })
            .collect();
        let mut step = StepActions::default();
        for t in tuples {
            compiled.process_tuple(t, &mut step).unwrap();
            let events: std::collections::BTreeMap<usize, StepEvent> =
                (step.events.drain(..).map(|(slot, ev)| (slot as usize, ev))).collect();
            assert!(
                events.keys().all(|&slot| leader_of[slot] == slot),
                "event for a follower"
            );
            let mut closed_for = std::collections::BTreeMap::new();
            for (&slot, ev) in &events {
                let closed = ev.closed.iter().flat_map(|sealed| &sealed.set.candidates);
                assert!(
                    !step.dismissed[ev.dismissed.clone()].contains(&t.id())
                        && closed.map(|c| c.id).all(|id| id != t.id()),
                    "slot {slot} closed or dismissed tuple {} in its own step",
                    t.seq()
                );
                if let Some(sealed) = &ev.closed {
                    let owners = &sealed.owners;
                    assert_eq!(sealed.set.filter.index(), slot, "owned by its event's slot");
                    assert_eq!(owners[0] as usize, slot, "the owner first");
                    for &o in owners {
                        let twice = closed_for.insert(o as usize, &sealed.set).is_some();
                        assert!(!twice, "slot {o} closed two sets");
                    }
                }
            }
            for (slot, oracle) in oracles.iter_mut().enumerate() {
                let want = oracle.process(t).unwrap();
                let leader = leader_of[slot];
                let id = FilterId::from_index(leader);
                assert_eq!(
                    step.admitted.contains(id),
                    want.admitted,
                    "admit slot {slot}"
                );
                assert_eq!(
                    step.references.contains(id),
                    want.reference,
                    "reference slot {slot}"
                );
                let none = StepEvent::default();
                let ev = events.get(&leader).unwrap_or(&none);
                assert_eq!(
                    step.dismissed[ev.dismissed.clone()],
                    want.dismissed,
                    "dismissed slot {slot}"
                );
                let got =
                    (closed_for.get(&leader)).map(|set| as_oracle(&compiled, set, slot, leader));
                assert_eq!(got, want.closed, "closed slot {slot}");
                assert_eq!(compiled.is_stateful(leader), oracle.is_stateful());
                if oracle.is_stateful() {
                    // (Stateful members are never folded.)
                    if let Some(set) = &got {
                        let pick = set.candidates[set.set_index as usize % set.len()];
                        compiled.output_chosen(slot, pick.key);
                        oracle.output_chosen(pick.id, pick.key);
                    }
                }
            }
            for (slot, oracle) in oracles.iter().enumerate() {
                let leader = leader_of[slot];
                let ctx = format!("slot {slot} after tuple {}", t.seq());
                assert_eq!(compiled.open_cover(leader), oracle.open_cover(), "{ctx}");
                assert_eq!(compiled.open_len(leader), oracle.open_len(), "{ctx}");
                assert_eq!(
                    compiled.si_emits_at_reference(leader),
                    oracle.si_emits_at_reference(),
                    "{ctx}"
                );
                if leader != slot {
                    assert_eq!(compiled.open_cover(slot), None, "follower {ctx}");
                    assert_eq!(compiled.open_len(slot), 0, "follower {ctx}");
                }
            }
            drop(closed_for);
            for sealed in events.into_values().filter_map(|ev| ev.closed) {
                compiled.recycle(sealed);
            }
            compiled.assert_cohort_invariants();
            compiled.assert_vicinity_group_invariants(&oracles);
            let waited = |cover: TimeCover| t.timestamp().saturating_sub(cover.min);
            let covers = (0..oracles.len()).filter_map(|slot| compiled.open_cover(slot));
            seen.count_groups(&compiled, tuples[0].id());
            if cut_after.is_some_and(|budget| covers.map(waited).any(|w| w >= budget)) {
                let cut =
                    assert_close_all(&mut compiled, &mut oracles, &leader_of, CloseCause::Cut);
                seen.shared_sets_cut += cut;
                compiled.assert_cohort_invariants();
                compiled.assert_vicinity_group_invariants(&oracles);
            }
            after_tuple(&compiled);
        }
        assert_close_all(
            &mut compiled,
            &mut oracles,
            &leader_of,
            CloseCause::EndOfStream,
        );
        seen
    }

    /// What a lockstep run's vicinity groups went through.
    #[derive(Debug, Default)]
    struct Exercised {
        /// The most members one group held, past the first tuple (which
        /// every member takes as its reference).
        widest_group: usize,
        /// Tuples after which two groups of a class had taken the same
        /// reference with different slack.
        same_reference_other_slack: usize,
        /// ... with bit-equal slack but different kept runs.
        same_reference_other_run: usize,
        /// Groups of several members seen holding a twin-class leader.
        groups_with_twins: usize,
        /// Sets of several owners that timely cuts sealed.
        shared_sets_cut: usize,
    }

    impl Exercised {
        fn count_groups(&mut self, compiled: &CompiledRoster, first: TupleId) {
            let twins = compiled.twin_table();
            let delta = &compiled.delta;
            for class in &compiled.classes {
                let leaders = &class.vicinity;
                let pairs = (leaders.iter().enumerate())
                    .flat_map(|(i, &a)| leaders[i + 1..].iter().map(move |&b| (a, b)));
                let (mut other_slack, mut other_run) = (false, false);
                for (a, b) in pairs.map(|(a, b)| (a as usize, b as usize)) {
                    if delta.reference_id[a] == delta.reference_id[b] {
                        let same_slack = delta.slack[a].to_bits() == delta.slack[b].to_bits();
                        other_slack |= !same_slack;
                        other_run |= same_slack;
                    }
                }
                self.same_reference_other_slack += usize::from(other_slack);
                self.same_reference_other_run += usize::from(other_run);
                for &l in leaders {
                    if delta.reference_id[l as usize] == Some(first) {
                        continue;
                    }
                    let members = compiled.group_of(l);
                    self.widest_group = self.widest_group.max(members.len());
                    let slot = |&m: &u32| delta.slot[m as usize] as usize;
                    let twinned = members.iter().any(|m| twins.weight(slot(m)) > 1);
                    self.groups_with_twins += usize::from(members.len() > 1 && twinned);
                }
            }
        }
    }

    /// A set closed for the member in slot `leader`, the way the trait
    /// object in `slot` reports it: its own, numbered by its own count.
    fn as_oracle(
        compiled: &CompiledRoster,
        set: &ClosedSet,
        slot: usize,
        leader: usize,
    ) -> ClosedSet {
        ClosedSet {
            filter: FilterId::from_index(slot),
            set_index: compiled.sets_closed_by(leader) - 1,
            ..set.clone()
        }
    }

    /// Force-closes every slot in ascending order on both sides, as the
    /// engine's drains and `cut_all` do, and asserts that each slot's
    /// oracle closed or dropped what the member standing for it did. A
    /// vicinity set closes at the first of its group's slots the sweep
    /// reaches and a twin class's at its leader, so by its own turn each
    /// slot's set has closed. The sets go back to the roster's pool. Returns how many
    /// had several owners.
    fn assert_close_all(
        compiled: &mut CompiledRoster,
        oracles: &mut [Box<dyn GroupFilter>],
        leader_of: &[usize],
        cause: CloseCause,
    ) -> usize {
        let mut sealed: Vec<OwnedSet> = Vec::new();
        let mut closed_for = std::collections::BTreeMap::new();
        let mut dismissed_by = std::collections::BTreeMap::new();
        for (slot, oracle) in oracles.iter_mut().enumerate() {
            let want = oracle.force_close(cause);
            let got = compiled.force_close(slot, cause);
            let leader = leader_of[slot];
            if leader == slot {
                dismissed_by.insert(slot, got.dismissed);
            } else {
                assert_eq!(got, ForceClosed::default(), "follower {slot} closed");
            }
            if let Some(set) = got.closed {
                assert!(set.owners.contains(&(slot as u32)), "closed for an owner");
                for &o in &set.owners {
                    closed_for.insert(o as usize, sealed.len());
                }
                sealed.push(set);
            }
            assert_eq!(
                dismissed_by[&leader], want.dismissed,
                "{cause:?} slot {slot}"
            );
            let got = (closed_for.get(&leader))
                .map(|&at| as_oracle(compiled, &sealed[at].set, slot, leader));
            assert_eq!(got, want.closed, "{cause:?} slot {slot}");
        }
        let shared = sealed.iter().filter(|s| s.owners.len() > 1).count();
        for set in sealed {
            compiled.recycle(set);
        }
        shared
    }

    fn assert_lockstep(specs: Vec<FilterSpec>, algorithm: Algorithm, points: &[(u64, f64)]) {
        let (schema, tuples) = one_attribute(points);
        assert_lockstep_with(specs, algorithm, &schema, &tuples, None, |_| {});
    }

    /// `points` as a stream over the one attribute `t`.
    fn one_attribute(points: &[(u64, f64)]) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", points);
        (schema, tuples)
    }

    /// A seeded random walk in steps of a quarter unit (so values — and
    /// with them comparison bases — repeat), one tuple every 10 ms.
    fn random_walk(seed: u64, tuples: u64, max_step: f64) -> Vec<(u64, f64)> {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut value = 50.0;
        (0..tuples)
            .map(|i| {
                value += ((rng.next_f64() - 0.5) * 2.0 * max_step * 4.0).round() / 4.0;
                (10 * (i + 1), value)
            })
            .collect()
    }

    fn paper_points() -> Vec<(u64, f64)> {
        vec![
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
        ]
    }

    #[test]
    fn lockstep_on_the_paper_roster() {
        assert_lockstep(
            vec![
                FilterSpec::delta("t", 50.0, 10.0),
                FilterSpec::delta("t", 40.0, 5.0),
                FilterSpec::delta("t", 80.0, 25.0),
            ],
            Algorithm::RegionGreedy,
            &paper_points(),
        );
    }

    #[test]
    fn lockstep_with_samplers_and_trends() {
        assert_lockstep(
            vec![
                FilterSpec::delta("t", 50.0, 10.0),
                FilterSpec::trend_delta("t", 400.0, 40.0),
                FilterSpec::reservoir("t", Micros::from_millis(30), 2),
                FilterSpec::stratified_sample("t", Micros::from_millis(40), 20.0, 60.0, 25.0),
                FilterSpec::multi_attr_delta(["t"], 30.0, 3.0),
            ],
            Algorithm::PerCandidateSet,
            &paper_points(),
        );
    }

    #[test]
    fn lockstep_with_stateful_under_si() {
        assert_lockstep(
            vec![
                FilterSpec::stateful_delta("t", 50.0, 10.0),
                FilterSpec::delta("t", 50.0, 10.0),
            ],
            Algorithm::SelfInterested,
            &paper_points(),
        );
    }

    /// Two independent random walks `t` and `u` in quarter-unit steps of
    /// at most 2 (mean |Δ| ≈ 1), one tuple every 10 ms.
    fn two_attribute_walk(seed: u64, tuples: u64) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(["t", "u"]);
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut step = || ((rng.next_f64() - 0.5) * 16.0).round() / 4.0;
        let (mut t, mut u) = (50.0, 20.0);
        let mut b = crate::tuple::TupleBuilder::new(&schema);
        let rows = (0..tuples)
            .map(|i| {
                t += step();
                u += step();
                b.at_millis(10 * (i + 1)).set("t", t).set("u", u);
                b.build().unwrap()
            })
            .collect();
        (schema, rows)
    }

    /// Every gate kind over `t` and `u` — overlapping deltas sharing a
    /// key, a second attribute, a trend, a multi-attribute mean, both
    /// samplers and, off region-greedy, a stateful delta — three times
    /// over at interleaved slots, with a singleton after each round.
    fn twin_roster(algorithm: Algorithm) -> Vec<FilterSpec> {
        let window = Micros::from_millis;
        let mut specs = Vec::new();
        for round in 0..3 {
            specs.extend([
                FilterSpec::delta("t", 2.0, 1.0),
                FilterSpec::delta("t", 3.0, 1.4),
                FilterSpec::delta("t", 2.5, 1.2),
                FilterSpec::delta("u", 2.2, 0.9),
                FilterSpec::trend_delta("t", 90.0, 40.0),
                FilterSpec::multi_attr_delta(["u", "t"], 2.4, 1.1),
                FilterSpec::reservoir("u", window(70), 3),
                FilterSpec::stratified_sample("t", window(110), 1.5, 60.0, 20.0),
            ]);
            if algorithm != Algorithm::RegionGreedy {
                specs.push(FilterSpec::stateful_delta("t", 2.8, 1.3));
            }
            specs.push(FilterSpec::delta("t", 3.3 + f64::from(round), 0.8));
        }
        specs
    }

    fn assert_twin_roster_lockstep(algorithm: Algorithm) {
        let (schema, tuples) = two_attribute_walk(5, 600);
        let specs = twin_roster(algorithm);
        let roster = (specs.iter().enumerate()).map(|(i, s)| (FilterId::from_index(i), s));
        let mut probe = CompiledRoster::compile(roster, &schema, algorithm).unwrap();
        let folds = algorithm != Algorithm::PerCandidateSet;
        let folded = probe.distinct_members() < probe.member_count();
        assert_eq!(folded, folds, "{algorithm:?}");
        // The walk must exercise the automata: admissions and closures.
        let (mut admitted, mut closed) = (0, 0);
        let mut step = StepActions::default();
        for t in &tuples {
            probe.process_tuple(t, &mut step).unwrap();
            admitted += step.admitted.len();
            closed += step
                .events
                .iter()
                .filter(|(_, e)| e.closed.is_some())
                .count();
        }
        assert!(
            admitted > 0 && closed > 0,
            "{algorithm:?}: {admitted} / {closed}"
        );
        assert_lockstep_with(specs, algorithm, &schema, &tuples, None, |_| {});
    }

    #[test]
    fn lockstep_on_a_twin_roster_under_region_greedy() {
        assert_twin_roster_lockstep(Algorithm::RegionGreedy);
    }

    #[test]
    fn lockstep_on_a_twin_roster_under_per_candidate_set() {
        assert_twin_roster_lockstep(Algorithm::PerCandidateSet);
    }

    #[test]
    fn lockstep_on_a_twin_roster_under_self_interested() {
        assert_twin_roster_lockstep(Algorithm::SelfInterested);
    }

    fn compile_dense(specs: &[FilterSpec], algorithm: Algorithm) -> CompiledRoster {
        CompiledRoster::compile(
            (specs.iter().enumerate()).map(|(i, s)| (FilterId::from_index(i), s)),
            &Schema::new(["t"]),
            algorithm,
        )
        .unwrap()
    }

    #[test]
    fn identical_specs_share_one_cohort_per_base() {
        // 8 specs × 64 copies at interleaved slots, then 8 specs of their
        // own: 520 filters compile to 16 members, and every one of the
        // 520 reference filters does, tuple by tuple, what the member
        // standing for it does. With 16 members there are at most 16
        // distinct bases, and the table holds exactly one cohort per
        // base in use.
        let shared = |i: usize| FilterSpec::delta("t", 6.0 + 1.5 * (i % 8) as f64, 2.0);
        let mut specs: Vec<FilterSpec> = (0..512).map(shared).collect();
        specs.extend((0..8).map(|i| FilterSpec::delta("t", 5.25 + 4.0 * i as f64, 1.0 + i as f64)));
        let compiled = compile_dense(&specs, Algorithm::RegionGreedy);
        assert_eq!(compiled.member_count(), 520);
        assert_eq!(compiled.distinct_members(), 16);
        let twins = compiled.twin_table();
        assert_eq!(twins.weight(3), 64);
        assert_eq!(twins.class(3)[..3], [3, 11, 19]);
        assert_eq!(twins.weight(11), 0, "a follower leads nothing");
        assert_eq!(twins.class(515), [515]);

        let mut most = 0;
        let (schema, tuples) = one_attribute(&random_walk(7, 400, 6.0));
        assert_lockstep_with(
            specs,
            Algorithm::RegionGreedy,
            &schema,
            &tuples,
            None,
            |compiled| {
                let bases: std::collections::BTreeSet<u64> = (0..compiled.delta.slot.len())
                    .filter(|&m| {
                        matches!(compiled.delta.phase[m], Phase::Searching | Phase::Tentative)
                    })
                    .map(|m| compiled.delta.base[m].to_bits())
                    .collect();
                assert_eq!(compiled.cohort_count(), bases.len());
                assert!(bases.len() <= 16);
                most = most.max(bases.len());
            },
        );
        assert!(most > 1, "the walk never separated the specs' bases");
    }

    #[test]
    fn twin_key_is_bit_equality_of_class_and_gate() {
        // `0.0` and `-0.0` slack drive the same automaton but are not the
        // same bits, so they are not folded — and still run in lockstep.
        // Window gates fold on every parameter; a different attribute is
        // a different class. Tolerance and label are not part of the key.
        let window = Micros::from_millis(30);
        let specs = vec![
            FilterSpec::delta("t", 10.0, 0.0),
            FilterSpec::delta("t", 10.0, -0.0),
            FilterSpec::delta("t", 10.0, 0.0).with_latency_tolerance(Micros::from_millis(500)),
            FilterSpec::reservoir("t", window, 2),
            FilterSpec::reservoir("t", window, 3),
            FilterSpec::reservoir("t", window, 2).with_label("again"),
            FilterSpec::stratified_sample("t", window, 20.0, 60.0, 25.0),
            FilterSpec::stratified_sample("t", window, 20.0, 60.0, 25.0),
            FilterSpec::multi_attr_delta(["t"], 10.0, 0.0),
        ];
        let plan = compile_dense(&specs, Algorithm::RegionGreedy)
            .plan()
            .clone();
        assert_eq!(plan.twin_of, [0, 1, 0, 3, 4, 3, 6, 6, 0]);
        assert_lockstep(specs.clone(), Algorithm::RegionGreedy, &paper_points());
        // Under SI a stateful delta lowers stateless and joins the fold.
        let si = vec![
            FilterSpec::stateful_delta("t", 50.0, 10.0),
            FilterSpec::delta("t", 50.0, 10.0),
        ];
        let plan = compile_dense(&si, Algorithm::SelfInterested).plan().clone();
        assert_eq!(plan.twin_of, [0, 0]);
        // A NaN never reaches a key: validation rejects the spec first.
        let nan = FilterSpec::delta("t", f64::NAN, 1.0);
        let err = CompiledRoster::compile(
            [(FilterId::from_index(0), &nan)],
            &Schema::new(["t"]),
            Algorithm::RegionGreedy,
        );
        assert!(matches!(err, Err(Error::InvalidSpec { .. })), "{err:?}");
    }

    #[test]
    fn per_candidate_set_rosters_compile_unfolded() {
        let mut specs = vec![FilterSpec::delta("t", 12.0, 3.0); 4];
        specs.push(FilterSpec::reservoir("t", Micros::from_millis(30), 2));
        specs.push(FilterSpec::reservoir("t", Micros::from_millis(30), 2));
        let compiled = compile_dense(&specs, Algorithm::PerCandidateSet);
        assert_eq!(compiled.plan().twin_of, [0, 1, 2, 3, 4, 5]);
        assert_eq!(compiled.distinct_members(), compiled.member_count());
        let twins = compiled.twin_table();
        assert!((0..6).all(|slot| twins.class(slot) == [slot as u32]));
        assert_lockstep(specs, Algorithm::PerCandidateSet, &paper_points());
    }

    #[test]
    fn twins_fold_across_vacancies() {
        // Slots 1, 3 and 4 are holes; 0 and 5 hold the same spec.
        let (a, b) = (
            FilterSpec::delta("t", 10.0, 2.0),
            FilterSpec::delta("t", 40.0, 5.0),
        );
        let roster = [(0, &a), (2, &b), (5, &a)];
        let mut compiled = CompiledRoster::compile(
            roster.map(|(i, s)| (FilterId::from_index(i), s)),
            &Schema::new(["t"]),
            Algorithm::RegionGreedy,
        )
        .unwrap();
        assert_eq!(compiled.member_count(), 3);
        assert_eq!(compiled.distinct_members(), 2);
        let twins = compiled.twin_table();
        assert_eq!(twins.class(0), [0, 5]);
        assert_eq!(twins.class(2), [2]);
        for hole_or_follower in [1, 3, 4, 5] {
            assert_eq!(twins.weight(hole_or_follower), 0);
        }
        let tuples = series(&Schema::new(["t"]), "t", &[(10, 0.0), (20, 1.0)]);
        let mut step = StepActions::default();
        for t in &tuples {
            compiled.process_tuple(t, &mut step).unwrap();
            let admitted: Vec<usize> = step.admitted.iter().map(FilterId::index).collect();
            assert_eq!(admitted, [0, 2], "leaders only");
        }
        assert_eq!(compiled.open_len(0), 2);
        assert_eq!(compiled.open_len(5), 0, "a follower holds nothing");
        assert!(compiled.open_cover(5).is_none());
    }

    #[test]
    fn force_close_closes_a_class_once_at_its_leader() {
        let specs = vec![FilterSpec::delta("t", 10.0, 2.0); 3];
        let mut compiled = compile_dense(&specs, Algorithm::RegionGreedy);
        assert_eq!(compiled.distinct_members(), 1);
        let tuples = series(&Schema::new(["t"]), "t", &[(10, 0.0), (20, 1.0)]);
        let mut step = StepActions::default();
        for t in &tuples {
            compiled.process_tuple(t, &mut step).unwrap();
        }
        for follower in [1, 2] {
            let out = compiled.force_close(follower, CloseCause::Cut);
            assert_eq!(out, ForceClosed::default(), "follower {follower}");
        }
        let out = compiled.force_close(0, CloseCause::Cut);
        let sealed = out.closed.expect("the class's open set");
        assert_eq!(
            (sealed.set.filter, sealed.set.len()),
            (FilterId::from_index(0), 2)
        );
        assert_eq!(sealed.owners, [0]);
        assert_eq!(
            compiled.force_close(0, CloseCause::Cut),
            ForceClosed::default(),
            "nothing left to close"
        );
    }

    #[test]
    fn stateful_rebasing_stays_in_lockstep() {
        // Stateful members are rebased to a chosen candidate whenever a
        // set of theirs closes: that takes them out of one cohort and into
        // another (or a new one, or one a stateless member's reference
        // already opened on the same value), empties cohorts and reuses
        // their lists.
        let mut specs = Vec::new();
        for i in 0..6 {
            let (delta, slack) = (4.0 + 1.5 * i as f64, 1.0 + 0.25 * i as f64);
            specs.push(FilterSpec::stateful_delta("t", delta, slack));
            specs.push(FilterSpec::stateful_delta("t", delta, slack));
            specs.push(FilterSpec::delta("t", delta, slack));
        }
        let mut most = 0;
        let (schema, tuples) = one_attribute(&random_walk(11, 2_500, 3.0));
        assert_lockstep_with(
            specs,
            Algorithm::PerCandidateSet,
            &schema,
            &tuples,
            None,
            |compiled| most = most.max(compiled.cohort_count()),
        );
        assert!(most > 6, "only {most} cohorts at once");
    }

    #[test]
    fn cse_shares_identical_attrs() {
        let schema = Schema::new(["t"]);
        let specs = [
            FilterSpec::delta("t", 50.0, 10.0),
            FilterSpec::delta("t", 40.0, 5.0),
            FilterSpec::reservoir("t", Micros::from_millis(100), 2),
        ];
        let compiled = CompiledRoster::compile(
            specs
                .iter()
                .enumerate()
                .map(|(i, s)| (FilterId::from_index(i), s)),
            &schema,
            Algorithm::RegionGreedy,
        )
        .unwrap();
        assert_eq!(compiled.class_count(), 1, "all three watch `t`");
        assert_eq!(compiled.member_count(), 3);
        assert!(!compiled.is_stateful(0));
        assert!(compiled.si_emits_at_reference(0));
        assert!(!compiled.si_emits_at_reference(2), "sampler emits at close");
    }

    #[test]
    fn cohort_cascade_skips_non_qualifying_members() {
        // Two filters share base 0 after the first reference; a small step
        // must only touch the tighter filter.
        let schema = Schema::new(["t"]);
        let tuples = series(&schema, "t", &[(10, 0.0), (20, 3.0), (30, 9.0)]);
        let specs = [
            FilterSpec::delta("t", 10.0, 2.0),
            FilterSpec::delta("t", 100.0, 2.0),
        ];
        let mut compiled = CompiledRoster::compile(
            specs
                .iter()
                .enumerate()
                .map(|(i, s)| (FilterId::from_index(i), s)),
            &schema,
            Algorithm::RegionGreedy,
        )
        .unwrap();
        let mut step = StepActions::default();
        compiled.process_tuple(&tuples[0], &mut step).unwrap();
        assert_eq!(step.references.len(), 2, "first tuple references both");
        compiled.process_tuple(&tuples[1], &mut step).unwrap();
        // 3.0 closes both vicinities (slack 2); dist 3 < qualify 8 and 98.
        assert!(step.admitted.is_empty());
        compiled.process_tuple(&tuples[2], &mut step).unwrap();
        // dist 9 ≥ 10−2 qualifies only the tight filter (tentative).
        assert!(step.admitted.contains(FilterId::from_index(0)));
        assert!(!step.admitted.contains(FilterId::from_index(1)));
        assert!(step.events.iter().all(|(slot, _)| *slot != 1));
    }

    fn assert_steps_equal(a: &StepActions, b: &StepActions, ctx: &str) {
        assert_eq!(a.admitted, b.admitted, "admitted blocks: {ctx}");
        assert_eq!(a.references, b.references, "reference blocks: {ctx}");
        assert_eq!(a.events.len(), b.events.len(), "event count: {ctx}");
        for ((sa, ea), (sb, eb)) in a.events.iter().zip(&b.events) {
            assert_eq!(sa, sb, "event slot: {ctx}");
            assert_eq!(
                a.dismissed[ea.dismissed.clone()],
                b.dismissed[eb.dismissed.clone()],
                "dismissed: {ctx}"
            );
            assert_eq!(ea.closed, eb.closed, "closed: {ctx}");
        }
    }

    /// Deterministic xorshift so the randomised oracle sweep needs no
    /// external RNG.
    struct XorShift(u64);

    impl XorShift {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn chance(&mut self, p: f64) -> bool {
            self.next_f64() < p
        }
    }

    /// The columnar-evaluation oracle: random rosters over random column
    /// batches (random batch splits, NaN holes included) produce, row for
    /// row, bit-identical block masks and events to both the per-tuple
    /// compiled pass and the interpreted trait objects.
    #[test]
    fn columnar_evaluation_matches_per_tuple_and_interpreted() {
        let schema = Schema::new(["t", "u"]);
        for seed in 1..=64u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            // Random roster: always one delta, plus a random mix of every
            // other taxonomy branch.
            let mut specs = vec![FilterSpec::delta(
                "t",
                15.0 + 25.0 * rng.next_f64(),
                2.0 + 5.0 * rng.next_f64(),
            )];
            if rng.chance(0.6) {
                specs.push(FilterSpec::delta("t", 35.0, 8.0));
            }
            if rng.chance(0.6) {
                specs.push(FilterSpec::trend_delta("t", 300.0, 50.0));
            }
            if rng.chance(0.6) {
                specs.push(FilterSpec::multi_attr_delta(["t", "u"], 25.0, 4.0));
            }
            if rng.chance(0.5) {
                specs.push(FilterSpec::reservoir("t", Micros::from_millis(50), 2));
            }
            if rng.chance(0.5) {
                specs.push(FilterSpec::stratified_sample(
                    "u",
                    Micros::from_millis(70),
                    30.0,
                    60.0,
                    20.0,
                ));
            }
            let roster: Vec<(FilterId, FilterSpec)> = specs
                .into_iter()
                .enumerate()
                .map(|(i, s)| (FilterId::from_index(i), s))
                .collect();
            let compile = |algorithm| {
                CompiledRoster::compile(roster.iter().map(|(id, s)| (*id, s)), &schema, algorithm)
                    .unwrap()
            };
            let mut by_tuple = compile(Algorithm::PerCandidateSet);
            let mut by_batch = compile(Algorithm::PerCandidateSet);
            let mut oracles: Vec<Box<dyn GroupFilter>> = roster
                .iter()
                .map(|(id, s)| build_filter(s, *id, &schema).unwrap())
                .collect();

            // Random column data: a walk on `t`, a correlated `u` with
            // occasional NaN holes on half the seeds.
            let mut tuples = Vec::new();
            let mut b = crate::tuple::TupleBuilder::new(&schema);
            let mut val = 50.0;
            for i in 0..200u64 {
                val += (rng.next_f64() - 0.5) * 40.0;
                b.at_millis(i * 10 + 1).set("t", val);
                if seed % 2 == 1 || !rng.chance(0.02) {
                    b.set("u", val * 0.5 + rng.next_f64());
                }
                tuples.push(b.build().unwrap());
            }

            let mut step_t = StepActions::default();
            let mut step_b = StepActions::default();
            let mut pos = 0usize;
            'stream: while pos < tuples.len() {
                let size = 1 + (rng.next_u64() % 9) as usize;
                let chunk = &tuples[pos..(pos + size).min(tuples.len())];
                let batch = TupleBatch::from_tuples(&schema, chunk).unwrap();
                let ok = by_batch.derive_batch(&batch);
                for (r, t) in chunk.iter().enumerate().take(ok) {
                    by_tuple.process_tuple(t, &mut step_t).unwrap();
                    by_batch.evaluate_row(r, t.id(), t.timestamp(), &mut step_b);
                    let ctx = format!("seed {seed} tuple {}", t.seq());
                    assert_steps_equal(&step_b, &step_t, &ctx);
                    // ... and the interpreted trait objects agree too.
                    for (slot, oracle) in oracles.iter_mut().enumerate() {
                        let want = oracle.process(t).unwrap();
                        let fid = FilterId::from_index(slot);
                        assert_eq!(step_b.admitted.contains(fid), want.admitted, "{ctx}");
                        assert_eq!(step_b.references.contains(fid), want.reference, "{ctx}");
                    }
                }
                if ok < chunk.len() {
                    // The failing row errors identically on both paths;
                    // the engine stops a stream there, and so do we.
                    let row = batch.materialize_row(ok);
                    let e1 = by_tuple.process_tuple(&row, &mut step_t).unwrap_err();
                    let e2 = by_batch.process_tuple(&row, &mut step_b).unwrap_err();
                    assert_eq!(format!("{e1:?}"), format!("{e2:?}"), "seed {seed}");
                    break 'stream;
                }
                pos += chunk.len();
            }
        }
    }

    #[test]
    fn vacancies_are_inert() {
        let schema = Schema::new(["t"]);
        let spec = FilterSpec::delta("t", 10.0, 2.0);
        let mut compiled = CompiledRoster::compile(
            [(FilterId::from_index(1), &spec)],
            &schema,
            Algorithm::RegionGreedy,
        )
        .unwrap();
        assert_eq!(compiled.member_count(), 1);
        assert!(compiled.open_cover(0).is_none());
        assert_eq!(compiled.open_len(0), 0);
        assert_eq!(
            compiled.force_close(0, CloseCause::Cut),
            ForceClosed::default()
        );
        assert!(compiled.open_cover(7).is_none(), "past-width slots inert");
    }

    /// A seeded walk in quarter-unit steps of at most `step`, with a jump
    /// of up to `spike` one tuple in twelve, one tuple every 10 ms: small
    /// steps keep vicinities open over several tuples, and a jump makes
    /// many members take the same reference.
    fn spiky_walk(seed: u64, tuples: u64, step: f64, spike: f64) -> Vec<(u64, f64)> {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut value = 50.0;
        (0..tuples)
            .map(|i| {
                let most = if rng.chance(1.0 / 12.0) { spike } else { step };
                value += ((rng.next_f64() - 0.5) * 2.0 * most * 4.0).round() / 4.0;
                (10 * (i + 1), value)
            })
            .collect()
    }

    /// The benchmark's wide roster in miniature: one slack, `δ` spread
    /// from tight to loose.
    fn wide_shape(filters: usize, slack: impl Fn(usize) -> f64) -> Vec<FilterSpec> {
        (0..filters)
            .map(|i| FilterSpec::delta("t", 3.0 + 0.25 * i as f64, slack(i)))
            .collect()
    }

    const SHARING: [Algorithm; 2] = [Algorithm::RegionGreedy, Algorithm::SelfInterested];

    fn assert_groups_lockstep(
        specs: Vec<FilterSpec>,
        algorithm: Algorithm,
        walk: &[(u64, f64)],
        cut_after: Option<Micros>,
    ) -> Exercised {
        let (schema, tuples) = one_attribute(walk);
        assert_lockstep_with(specs, algorithm, &schema, &tuples, cut_after, |_| {})
    }

    #[test]
    fn vicinity_groups_on_the_wide_shape() {
        let walk = spiky_walk(3, 1_500, 0.5, 12.0);
        for algorithm in SHARING {
            let seen = assert_groups_lockstep(wide_shape(48, |_| 0.6), algorithm, &walk, None);
            assert!(seen.widest_group >= 8, "{algorithm:?}: {seen:?}");
        }
    }

    #[test]
    fn vicinity_groups_split_by_slack() {
        let walk = spiky_walk(5, 1_500, 0.5, 12.0);
        let slack = |i: usize| [0.6, 1.1][i % 2];
        for algorithm in SHARING {
            let seen = assert_groups_lockstep(wide_shape(48, slack), algorithm, &walk, None);
            assert!(seen.widest_group >= 4, "{algorithm:?}: {seen:?}");
            assert!(
                seen.same_reference_other_slack > 0,
                "{algorithm:?}: {seen:?}"
            );
        }
    }

    #[test]
    fn vicinity_groups_split_by_kept_run() {
        // A wide slack against small steps: a member still in its vicinity
        // when another admits a tuple tentatively keeps a different run
        // when both take the same reference.
        let walk = spiky_walk(7, 2_000, 0.5, 9.0);
        for algorithm in SHARING {
            let seen = assert_groups_lockstep(wide_shape(40, |_| 1.5), algorithm, &walk, None);
            assert!(seen.widest_group >= 2, "{algorithm:?}: {seen:?}");
            assert!(seen.same_reference_other_run > 0, "{algorithm:?}: {seen:?}");
        }
    }

    #[test]
    fn vicinity_groups_hold_twin_leaders() {
        // Every third spec twice over, at slots far apart.
        let walk = spiky_walk(9, 1_500, 0.5, 12.0);
        for algorithm in SHARING {
            let mut specs = wide_shape(36, |_| 0.6);
            specs.extend(wide_shape(36, |_| 0.6).into_iter().step_by(3));
            let seen = assert_groups_lockstep(specs, algorithm, &walk, None);
            assert!(seen.groups_with_twins > 0, "{algorithm:?}: {seen:?}");
        }
    }

    #[test]
    fn timely_cuts_seal_each_group_once() {
        let walk = spiky_walk(11, 1_500, 0.5, 12.0);
        let budget = Some(Micros::from_millis(40));
        let specs = wide_shape(48, |_| 0.6);
        let seen = assert_groups_lockstep(specs, Algorithm::RegionGreedy, &walk, budget);
        assert!(seen.shared_sets_cut > 10, "{seen:?}");
    }
}
