//! Group-utility bookkeeping.
//!
//! The *group utility* of a tuple counts how many filters have included it
//! in their (open or not-yet-decided) candidate sets (§2.3.3). The engines
//! increment it on admission, decrement it on dismissal and when a set is
//! decided, and consult it for the greedy choices.
//!
//! Utilities are keyed by [`TupleId`] and stored in the same dense
//! `SeqRing` mechanism as the engine's tuple pool: ids enter in stream
//! order and leave at region boundaries, so `id - base` indexing gives
//! O(1) updates with memory bounded by the live window (the `BTreeMap`
//! this replaces paid a logarithmic probe per event on the hot path).
//! Only positive counts are stored; an entry decremented to zero leaves
//! the ring.

use crate::seq_ring::SeqRing;
use crate::tuple::TupleId;

/// Utility counters keyed by interned tuple id.
#[derive(Debug, Default, Clone)]
pub struct GroupUtility {
    counts: SeqRing<u32>,
}

impl GroupUtility {
    /// Creates an empty utility table.
    pub fn new() -> Self {
        GroupUtility::default()
    }

    /// Increments the utility of `id` (a filter admitted it).
    ///
    /// Incrementing an id whose region already completed (a spent seq) is
    /// a no-op — admissions always target the newest tuple, so this only
    /// guards against stale events.
    pub fn increment(&mut self, id: TupleId) {
        self.increment_by(id, 1);
    }

    /// Increments the utility of `id` by `n` in one ring probe — the
    /// columnar path's bulk form of [`increment`](Self::increment), used
    /// when a whole admission mask's popcount lands on one tuple.
    /// `n == 0` and spent seqs are no-ops.
    pub fn increment_by(&mut self, id: TupleId, n: u32) {
        if n == 0 {
            return;
        }
        if let Some(c) = self.counts.get_mut(id.seq()) {
            *c += n;
        } else {
            self.counts.set(id.seq(), n);
        }
    }

    /// Decrements the utility of `id`, removing the entry at zero.
    ///
    /// Decrementing an absent entry is a no-op: dismissal events may arrive
    /// for tuples whose sets were already cleaned up at region boundaries.
    pub fn decrement(&mut self, id: TupleId) {
        self.decrement_by(id, 1);
    }

    /// Decrements the utility of `id` by `n` in one ring probe — `n`
    /// filters that admitted it together let go of it together (a folded
    /// twin class). Absent entries are a no-op, as for
    /// [`decrement`](Self::decrement).
    pub fn decrement_by(&mut self, id: TupleId, n: u32) {
        if let Some(c) = self.counts.get_mut(id.seq()) {
            *c -= n;
            if *c == 0 {
                self.counts.take(id.seq());
            }
        }
    }

    /// Current utility of a tuple.
    pub fn get(&self, id: TupleId) -> u32 {
        self.counts.get(id.seq()).copied().unwrap_or(0)
    }

    /// Removes a tuple's entry entirely (region cleanup).
    pub fn remove(&mut self, id: TupleId) {
        self.counts.take(id.seq());
    }

    /// Number of tuples with positive utility.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no tuple currently has positive utility.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Among `ids`, returns the one with maximal utility, breaking ties by
    /// preferring the *latest* id (which, for time-ordered streams, is the
    /// freshest timestamp — the paper's tie-break rule).
    pub fn argmax<I: IntoIterator<Item = TupleId>>(&self, ids: I) -> Option<TupleId> {
        let mut best: Option<(u32, TupleId)> = None;
        for id in ids {
            let cand = (self.get(id), id);
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
            }
        }
        best.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64) -> TupleId {
        TupleId::from_seq(seq)
    }

    #[test]
    fn increment_decrement_roundtrip() {
        let mut u = GroupUtility::new();
        u.increment(id(5));
        u.increment(id(5));
        u.increment(id(7));
        assert_eq!(u.get(id(5)), 2);
        assert_eq!(u.get(id(7)), 1);
        assert_eq!(u.len(), 2);
        u.decrement(id(5));
        assert_eq!(u.get(id(5)), 1);
        u.decrement(id(5));
        assert_eq!(u.get(id(5)), 0);
        assert_eq!(u.len(), 1);
        u.decrement(id(5)); // no-op
        assert_eq!(u.get(id(5)), 0);
    }

    #[test]
    fn increment_by_matches_repeated_increments() {
        let mut a = GroupUtility::new();
        let mut b = GroupUtility::new();
        a.increment_by(id(5), 3);
        for _ in 0..3 {
            b.increment(id(5));
        }
        assert_eq!(a.get(id(5)), b.get(id(5)));
        a.increment_by(id(5), 0);
        assert_eq!(a.get(id(5)), 3, "zero bulk increment is a no-op");
        a.increment_by(id(6), 2);
        assert_eq!(a.get(id(6)), 2, "fresh id enters with the bulk count");
        a.remove(id(5));
        a.remove(id(6));
        a.increment_by(id(3), 4);
        assert_eq!(a.get(id(3)), 0, "spent seqs ignore bulk increments");
    }

    #[test]
    fn remove_clears_entry() {
        let mut u = GroupUtility::new();
        u.increment(id(1));
        u.remove(id(1));
        assert!(u.is_empty());
    }

    #[test]
    fn argmax_prefers_utility_then_freshness() {
        let mut u = GroupUtility::new();
        u.increment(id(1));
        u.increment(id(1));
        u.increment(id(2));
        u.increment(id(3));
        // 1 has utility 2 -> wins
        assert_eq!(u.argmax([id(1), id(2), id(3)]), Some(id(1)));
        u.increment(id(3));
        // tie between 1 and 3 -> freshest (3)
        assert_eq!(u.argmax([id(1), id(2), id(3)]), Some(id(3)));
        assert_eq!(u.argmax(std::iter::empty()), None);
    }

    #[test]
    fn ring_advances_with_the_stream() {
        let mut u = GroupUtility::new();
        for seq in 0..100 {
            u.increment(id(seq));
        }
        for seq in 0..90 {
            u.remove(id(seq));
        }
        assert_eq!(u.len(), 10);
        assert_eq!(u.get(id(95)), 1);
        assert_eq!(u.get(id(10)), 0, "released ids read as zero");
        // stale increments (region already completed) are ignored
        u.increment(id(3));
        assert_eq!(u.get(id(3)), 0);
        for seq in 90..100 {
            u.remove(id(seq));
        }
        assert!(u.is_empty());
        // fresh ids past the frontier still work after a full drain
        u.increment(id(200));
        assert_eq!(u.get(id(200)), 1);
    }
}
