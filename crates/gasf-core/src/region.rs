//! Region-based segmentation of the candidate-set stream.
//!
//! A **region** is a maximal family of candidate sets connected through
//! intersecting time covers (Definitions 2–4). Regions never intersect
//! (Axiom 2), and solving the hitting set per region preserves both the
//! optimum (Theorem 2) and the greedy approximation ratio (Theorem 3) —
//! which is what makes group-aware filtering possible on unbounded streams.
//!
//! ## Representation
//!
//! Regions hold their member sets' candidates as interned
//! [`TupleId`]s only; no tuple payloads are cloned into (or moved through)
//! the segmentation and selection path. The ids a region references are
//! stable for the region's whole lifetime: the engine's tuple pool keeps
//! every referenced payload alive until [`RegionTracker`] hands the
//! completed region back and region cleanup releases its ids — which is
//! also the moment the ids leave every other engine structure (utilities,
//! pending outputs). Id order is arrival order, so the solvers' freshness
//! tie-breaks need no timestamps beyond the candidates' denormalised ones.

use crate::candidate::{ClosedSet, TimeCover};
use crate::time::Micros;
use crate::tuple::TupleId;

/// The time covers of the currently open candidate sets, indexed by
/// filter slot: a dense bitmask of the slots whose open set is non-empty
/// plus, for each of those, its cover. Whoever owns the open sets writes a
/// slot's entry whenever that set changes, so the per-row region drain
/// reads one dense array — O(1) for "is slot `i` still in the way?",
/// O(open slots), ascending, for a full scan.
#[derive(Debug)]
pub(crate) struct OpenCovers {
    words: Vec<u64>,
    /// Valid only where the slot's bit is set.
    covers: Vec<TimeCover>,
}

impl OpenCovers {
    /// An empty index for `n` slots.
    pub(crate) fn with_slots(n: usize) -> OpenCovers {
        OpenCovers {
            words: vec![0; n.div_ceil(64)],
            covers: vec![TimeCover::point(Micros::ZERO); n],
        }
    }

    #[inline]
    pub(crate) fn update(&mut self, slot: usize, cover: Option<TimeCover>) {
        let (w, b) = (slot / 64, slot % 64);
        match cover {
            Some(c) => {
                self.words[w] |= 1 << b;
                self.covers[slot] = c;
            }
            None => self.words[w] &= !(1 << b),
        }
    }

    pub(crate) fn get(&self, slot: usize) -> Option<TimeCover> {
        let open = self.words.get(slot / 64)? & (1 << (slot % 64)) != 0;
        open.then(|| self.covers[slot])
    }

    fn iter(&self) -> impl Iterator<Item = (usize, TimeCover)> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            // `successors` computes the next value eagerly, so the
            // clear-lowest-bit step must be total at w = 0.
            std::iter::successors(Some(word), |&w| Some(w & w.wrapping_sub(1)))
                .take_while(|&w| w != 0)
                .map(move |w| wi * 64 + w.trailing_zeros() as usize)
                .map(|slot| (slot, self.covers[slot]))
        })
    }
}

/// `Region::blocker` before any open set was found in the way.
const NO_BLOCKER: usize = usize::MAX;

/// A family of connected candidate sets awaiting (or ready for) a group
/// decision.
#[derive(Debug, Clone)]
pub struct Region {
    sets: Vec<ClosedSet>,
    /// Per set, the slots it closed for ([`RegionTracker::add_owned`]).
    owners: Vec<Vec<u32>>,
    cover: TimeCover,
    /// Candidates across the member sets, each set counted once per
    /// filter it stands for.
    size: usize,
    /// Slot of the open set that last kept this region from completing —
    /// a hint, re-checked on every drain: an open set stays in the way
    /// until it closes, so the common drain is one lookup, not a scan.
    blocker: usize,
}

impl Region {
    /// A single-set region in `lists` (empty, possibly recycled).
    fn from_set(set: ClosedSet, owners: Vec<u32>, weight: usize, lists: RegionLists) -> Self {
        let (mut sets, mut owned) = lists;
        let cover = set.cover();
        let size = set.len() * weight;
        sets.push(set);
        owned.push(owners);
        Region {
            sets,
            owners: owned,
            cover,
            size,
            blocker: NO_BLOCKER,
        }
    }

    /// Whether an open candidate set's cover still intersects the
    /// region's (checking the remembered one first).
    fn blocked_by(&mut self, open: &OpenCovers) -> bool {
        let cover = self.cover;
        if open
            .get(self.blocker)
            .is_some_and(|oc| oc.intersects(&cover))
        {
            return true;
        }
        let found = open.iter().find(|(_, oc)| oc.intersects(&cover));
        self.blocker = found.map_or(NO_BLOCKER, |(slot, _)| slot);
        found.is_some()
    }

    /// Candidate sets of the region, in merge order (not meaningful —
    /// every consumer is order-independent; see
    /// [`RegionTracker::add`]).
    pub fn sets(&self) -> &[ClosedSet] {
        &self.sets
    }

    /// Consumes the region, yielding its sets.
    pub fn into_sets(self) -> Vec<ClosedSet> {
        self.sets
    }

    /// Per set of [`sets`](Self::sets), the slots it closed for.
    pub(crate) fn owners(&self) -> &[Vec<u32>] {
        &self.owners
    }

    /// Consumes the region, yielding its sets and their owners.
    pub(crate) fn into_parts(self) -> RegionLists {
        (self.sets, self.owners)
    }

    /// The union of the member sets' time covers (Definition 5).
    pub fn cover(&self) -> TimeCover {
        self.cover
    }

    /// Total number of candidate tuples across the member sets (with
    /// multiplicity, a set that stands for several identical filters
    /// counting once for each) — the paper's "region size" for run-time
    /// prediction.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The *distinct* tuple ids referenced by the region, ascending.
    pub fn distinct_ids(&self) -> Vec<TupleId> {
        let mut ids = Vec::new();
        crate::hitting_set::collect_distinct_ids(&self.sets, &mut ids);
        ids
    }

    /// Number of *distinct* tuples in the region.
    pub fn distinct_tuples(&self) -> usize {
        self.distinct_ids().len()
    }

    /// Whether any member set was closed by a timely cut.
    pub fn was_cut(&self) -> bool {
        self.sets
            .iter()
            .any(|s| s.cause == crate::candidate::CloseCause::Cut)
    }

    /// Moves `other`'s sets in, handing back its emptied lists.
    fn merge_from(&mut self, mut other: Region) -> RegionLists {
        self.cover = self.cover.union(&other.cover);
        self.size += other.size;
        self.sets.append(&mut other.sets);
        self.owners.append(&mut other.owners);
        (other.sets, other.owners)
    }
}

/// A region's sets and, per set, the slots it closed for.
pub(crate) type RegionLists = (Vec<ClosedSet>, Vec<Vec<u32>>);

/// Accumulates closed candidate sets into regions and releases regions once
/// they can no longer grow.
///
/// A pending region is *ready* when every candidate set that could connect
/// to it is already in it: all member sets are closed by construction, so
/// the only threats are (a) a filter's currently open set whose cover
/// intersects the region's, and (b) future sets — which is impossible once
/// the stream clock has passed the region's cover, because candidates are
/// admitted in arrival order.
#[derive(Debug, Default)]
pub struct RegionTracker {
    /// Pairwise disjoint (Axiom 2), kept in time order — so the regions
    /// a new set connects are one run, found by binary search.
    pending: Vec<Region>,
    /// Emptied set lists (of merged-away regions, and of completed ones the
    /// engine hands back), reused by the next single-set region.
    spare: Vec<RegionLists>,
}

impl RegionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RegionTracker::default()
    }

    /// Adds a freshly closed candidate set, merging any pending regions it
    /// connects (directly or transitively — Definition 3).
    pub fn add(&mut self, set: ClosedSet) {
        self.add_owned(set, Vec::new(), 1);
    }

    /// [`add`](Self::add) for a set that closed for the slots in `owners`
    /// and stands for `weight` identical filters' sets (the owners' twin
    /// classes): one entry, counted `weight` times in the region's
    /// [`size`](Region::size).
    pub(crate) fn add_owned(&mut self, set: ClosedSet, owners: Vec<u32>, weight: usize) {
        let cover = set.cover();
        // The run of pending regions the set intersects. (Merging them
        // cannot reach a further region: the merged cover spans exactly
        // the set and the run, and everything else is disjoint from both.)
        let lo = self.pending.partition_point(|r| r.cover.max < cover.min);
        let hi = lo + self.pending[lo..].partition_point(|r| r.cover.min <= cover.max);
        if hi - lo == 1 {
            // The common case: the set joins one region, in place.
            let home = &mut self.pending[lo];
            home.cover = home.cover.union(&cover);
            home.size += set.len() * weight;
            home.sets.push(set);
            home.owners.push(owners);
            return;
        }
        let spare = self.spare.pop().unwrap_or_default();
        let mut merged = Region::from_set(set, owners, weight, spare);
        for mut other in self.pending.drain(lo..hi) {
            // Merge the smaller side into the larger: a long-lived
            // region accumulates thousands of sets, and moving it into
            // each new single-set region would make the steady stream of
            // merges quadratic in region size. Set order inside a region
            // is not meaningful — the solver's tie-breaks are
            // (usefulness, ts, id), never set index.
            if other.sets.len() > merged.sets.len() {
                std::mem::swap(&mut other, &mut merged);
            }
            self.spare.push(merged.merge_from(other));
        }
        self.pending.insert(lo, merged);
    }

    /// Removes and returns the regions that are ready, given the time
    /// covers of all currently open candidate sets and the current stream
    /// time. Ready regions are returned oldest-first.
    pub fn drain_ready(&mut self, open_covers: &[TimeCover], now: Micros) -> Vec<Region> {
        let mut open = OpenCovers::with_slots(open_covers.len());
        for (slot, &cover) in open_covers.iter().enumerate() {
            open.update(slot, Some(cover));
        }
        let mut ready = Vec::new();
        self.drain_ready_into(&open, now, &mut ready);
        ready
    }

    /// [`drain_ready`](Self::drain_ready) over slot-indexed covers,
    /// appending to a caller-owned buffer (oldest first). Pending regions
    /// are disjoint and in time order, so `cover.max` rises along them:
    /// the regions past their time bound are a prefix, and only those are
    /// checked against the open sets, then taken out in one compaction
    /// pass. A region only rescans the open covers once the open set it
    /// remembers being blocked by has closed or moved on.
    pub(crate) fn drain_ready_into(
        &mut self,
        open: &OpenCovers,
        now: Micros,
        ready: &mut Vec<Region>,
    ) {
        let due = self.pending.partition_point(|r| r.cover.max <= now);
        ready.extend(self.pending.extract_if(..due, |r| !r.blocked_by(open)));
    }

    /// Takes back the (emptied) lists of a completed region for reuse.
    pub(crate) fn recycle(&mut self, (mut sets, mut owners): RegionLists) {
        sets.clear();
        owners.clear();
        self.spare.push((sets, owners));
    }

    /// Drains every pending region unconditionally (end of stream).
    pub fn drain_all(&mut self) -> Vec<Region> {
        std::mem::take(&mut self.pending)
    }

    /// Whether any pending region has passed its time bound (`now >=
    /// cover.max`) — the oldest one, if any has, since regions are in
    /// time order. A region still inside its cover can never be ready
    /// regardless of open sets, so a `false` here guarantees
    /// [`drain_ready`](Self::drain_ready) would drain nothing — the
    /// engine uses this to skip the drain on the (common) rows where no
    /// region can complete.
    pub fn any_time_ready(&self, now: Micros) -> bool {
        self.pending.first().is_some_and(|r| now >= r.cover.max)
    }

    /// Earliest timestamp across pending regions (used for cut accounting).
    pub fn earliest_pending(&self) -> Option<Micros> {
        self.pending.first().map(|r| r.cover.min)
    }

    /// Number of regions currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total candidate tuples (with multiplicity) across pending regions —
    /// the input-size estimate for the greedy run-time predictor.
    pub fn pending_candidates(&self) -> usize {
        self.pending.iter().map(|r| r.size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandidateTuple, CloseCause, FilterId};
    use crate::quality::Prescription;

    fn set(filter: usize, ms: &[u64]) -> ClosedSet {
        ClosedSet {
            filter: FilterId::from_index(filter),
            set_index: 0,
            candidates: ms
                .iter()
                .map(|&m| CandidateTuple {
                    id: crate::tuple::TupleId::from_seq(m / 10),
                    timestamp: Micros::from_millis(m),
                    key: 0.0,
                })
                .collect(),
            pick_degree: 1,
            prescription: Prescription::Any,
            si_choice: vec![],
            cause: CloseCause::Natural,
        }
    }

    #[test]
    fn disjoint_sets_make_disjoint_regions() {
        let mut t = RegionTracker::new();
        t.add(set(0, &[0, 10]));
        t.add(set(1, &[30, 40]));
        assert_eq!(t.pending_len(), 2);
        let ready = t.drain_ready(&[], Micros::from_millis(100));
        assert_eq!(ready.len(), 2);
        assert!(ready[0].cover().min <= ready[1].cover().min);
    }

    #[test]
    fn intersecting_sets_merge() {
        let mut t = RegionTracker::new();
        t.add(set(0, &[0, 20]));
        t.add(set(1, &[20, 40]));
        assert_eq!(t.pending_len(), 1);
        let r = &t.drain_all()[0];
        assert_eq!(r.sets().len(), 2);
        assert_eq!(r.cover().min, Micros::ZERO);
        assert_eq!(r.cover().max, Micros::from_millis(40));
    }

    #[test]
    fn transitive_connection_merges_through_bridge() {
        let mut t = RegionTracker::new();
        t.add(set(0, &[0, 10]));
        t.add(set(1, &[40, 50]));
        assert_eq!(t.pending_len(), 2);
        // bridge connects both
        t.add(set(2, &[10, 40]));
        assert_eq!(t.pending_len(), 1);
        assert_eq!(t.pending[0].sets().len(), 3);
    }

    #[test]
    fn open_cover_blocks_readiness() {
        let mut t = RegionTracker::new();
        t.add(set(0, &[0, 20]));
        let open = TimeCover {
            min: Micros::from_millis(15),
            max: Micros::from_millis(25),
        };
        assert!(t.drain_ready(&[open], Micros::from_millis(30)).is_empty());
        // once the open set has moved past, the region is ready
        let open2 = TimeCover {
            min: Micros::from_millis(21),
            max: Micros::from_millis(25),
        };
        assert_eq!(t.drain_ready(&[open2], Micros::from_millis(30)).len(), 1);
    }

    #[test]
    fn a_blocked_region_stays_while_the_rest_of_the_due_prefix_drains() {
        let mut t = RegionTracker::new();
        for (f, ms) in [&[0, 10], &[30, 40], &[60, 70], &[90, 100]]
            .iter()
            .enumerate()
        {
            t.add(set(f, *ms));
        }
        // Blocks only the second region; the fourth is not yet due.
        let open = TimeCover {
            min: Micros::from_millis(35),
            max: Micros::from_millis(45),
        };
        let ready = t.drain_ready(&[open], Micros::from_millis(80));
        let maxes: Vec<_> = ready.iter().map(|r| r.cover().max).collect();
        assert_eq!(maxes, [10, 70].map(Micros::from_millis));
        let left: Vec<_> = t.pending.iter().map(|r| r.cover().max).collect();
        assert_eq!(left, [40, 100].map(Micros::from_millis));
        assert!(
            t.any_time_ready(Micros::from_millis(80)),
            "the blocked one is due"
        );
        let ready = t.drain_ready(&[], Micros::from_millis(80));
        assert_eq!(ready.len(), 1);
        assert!(!t.any_time_ready(Micros::from_millis(80)));
    }

    #[test]
    fn now_before_cover_max_blocks_readiness() {
        let mut t = RegionTracker::new();
        t.add(set(0, &[0, 20]));
        assert!(t.drain_ready(&[], Micros::from_millis(10)).is_empty());
        assert_eq!(t.drain_ready(&[], Micros::from_millis(20)).len(), 1);
    }

    #[test]
    fn region_size_and_distinct() {
        let mut t = RegionTracker::new();
        t.add(set(0, &[0, 10]));
        t.add(set(1, &[10, 20]));
        let r = &t.drain_all()[0];
        assert_eq!(r.size(), 4);
        assert_eq!(r.distinct_tuples(), 3);
        assert!(!r.was_cut());
    }

    #[test]
    fn earliest_pending_tracks_min() {
        let mut t = RegionTracker::new();
        assert!(t.earliest_pending().is_none());
        t.add(set(0, &[50]));
        t.add(set(1, &[10]));
        assert_eq!(t.earliest_pending(), Some(Micros::from_millis(10)));
    }

    #[test]
    fn was_cut_reports_cut_sets() {
        let mut s = set(0, &[0]);
        s.cause = CloseCause::Cut;
        let mut t = RegionTracker::new();
        t.add(s);
        assert!(t.drain_all()[0].was_cut());
    }
}
