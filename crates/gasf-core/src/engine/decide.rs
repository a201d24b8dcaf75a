//! Per-candidate-set output decision (Fig. 2.10, second stage).
//!
//! When a candidate set closes under the per-candidate-set algorithm, its
//! filter decides the output immediately using two heuristics (§2.3.3):
//!
//! 1. prefer tuples **already chosen** by other filters (in the current
//!    region's scope),
//! 2. otherwise prefer the tuple with the **highest group utility**,
//!
//! both subject to the tie-breaking rule (freshest tuple wins). Multi-degree
//! sets pick `k` tuples the same way, honouring the at-most-one-per-rank
//! constraint for top/bottom prescriptions.

use crate::candidate::ClosedSet;
use crate::quality::Prescription;
use crate::tuple::TupleId;
use crate::utility::GroupUtility;

/// Chooses this set's output tuples.
///
/// `recently_decided` tells the ids already chosen by filters in the
/// still-incomplete regions (the global state's `decidedOutput`).
pub(crate) fn decide_outputs(
    set: &ClosedSet,
    utility: &GroupUtility,
    recently_decided: impl Fn(TupleId) -> bool,
) -> Vec<TupleId> {
    let ranks = set.eligible_ranks();
    let ranked = set.prescription != Prescription::Any;
    let k = if ranked {
        set.pick_degree.min(ranks.len())
    } else {
        set.pick_degree.min(set.len())
    };
    // (already-chosen, utility, id) — all compared descending.
    let mut candidates: Vec<(bool, u32, TupleId, usize)> = Vec::new();
    for (rank_idx, rank) in ranks.iter().enumerate() {
        for &id in rank {
            candidates.push((recently_decided(id), utility.get(id), id, rank_idx));
        }
    }
    candidates.sort_by_key(|&(already, utility, id, _)| std::cmp::Reverse((already, utility, id)));

    let mut chosen = Vec::with_capacity(k);
    let mut used_ranks = crate::bitset::BitSet::with_capacity(ranks.len());
    for (_, _, id, rank_idx) in candidates {
        if chosen.len() == k {
            break;
        }
        if ranked && used_ranks.contains(rank_idx) {
            continue;
        }
        if chosen.contains(&id) {
            continue;
        }
        used_ranks.insert(rank_idx);
        chosen.push(id);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandidateTuple, CloseCause, FilterId};
    use crate::time::Micros;
    use std::collections::HashSet;

    fn none(_: TupleId) -> bool {
        false
    }

    fn id(seq: u64) -> TupleId {
        TupleId::from_seq(seq)
    }

    fn set(seqs: &[u64], degree: usize, p: Prescription) -> ClosedSet {
        ClosedSet {
            filter: FilterId::from_index(0),
            set_index: 0,
            candidates: seqs
                .iter()
                .map(|&s| CandidateTuple {
                    id: id(s),
                    timestamp: Micros::from_millis(s * 10),
                    key: s as f64,
                })
                .collect(),
            pick_degree: degree,
            prescription: p,
            si_choice: vec![],
            cause: CloseCause::Natural,
        }
    }

    #[test]
    fn already_decided_takes_precedence() {
        let s = set(&[3, 4], 1, Prescription::Any);
        let mut u = GroupUtility::new();
        u.increment(id(3));
        u.increment(id(3)); // utility 2 for the older tuple
        u.increment(id(4));
        let mut decided = HashSet::new();
        decided.insert(id(4));
        // Rule 1 beats rule 2: 4 wins despite lower utility.
        assert_eq!(
            decide_outputs(&s, &u, |id| decided.contains(&id)),
            vec![id(4)]
        );
    }

    #[test]
    fn utility_then_freshness() {
        let s = set(&[3, 4, 5], 1, Prescription::Any);
        let mut u = GroupUtility::new();
        for _ in 0..2 {
            u.increment(id(3));
            u.increment(id(5));
        }
        u.increment(id(4));
        // 3 and 5 tie on utility; 5 is fresher.
        assert_eq!(decide_outputs(&s, &u, none), vec![id(5)]);
    }

    #[test]
    fn multi_degree_picks_k_distinct() {
        let s = set(&[1, 2, 3, 4], 3, Prescription::Any);
        let u = GroupUtility::new();
        let chosen = decide_outputs(&s, &u, none);
        assert_eq!(chosen.len(), 3);
        let unique: HashSet<TupleId> = chosen.iter().copied().collect();
        assert_eq!(unique.len(), 3);
        // with equal utilities, freshest first
        assert_eq!(chosen, vec![id(4), id(3), id(2)]);
    }

    #[test]
    fn ranked_sets_use_one_per_rank() {
        // keys = seq; Top with degree 2 -> ranks [4], [3]
        let s = set(&[1, 3, 4], 2, Prescription::Top);
        let chosen = decide_outputs(&s, &GroupUtility::new(), none);
        assert_eq!(chosen.len(), 2);
        assert!(chosen.contains(&id(4)) && chosen.contains(&id(3)));
    }

    #[test]
    fn degree_clamps_to_rank_count() {
        let mut s = set(&[1, 2, 3], 3, Prescription::Top);
        for c in &mut s.candidates {
            c.key = 1.0; // single rank
        }
        let chosen = decide_outputs(&s, &GroupUtility::new(), none);
        assert_eq!(chosen.len(), 1);
    }
}
