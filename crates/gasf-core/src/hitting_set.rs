//! Greedy hitting-set solvers.
//!
//! Group-aware filtering reduces to the minimum hitting-set problem
//! (Theorem 1): given the candidate sets of a region, pick one tuple from
//! each so that the union is minimal. The classical greedy algorithm gives
//! a `H(max |C|)` approximation; [`greedy_hitting_set`] implements it with
//! the paper's tie-break (freshest timestamp). [`ClosedSet::pick_degree`]
//! generalises to the **multi-degree hitting set** (Definition 6 /
//! Axiom 3) needed by sampling filters, with at most one tuple per rank
//! for top/bottom prescriptions (§5.3).
//!
//! ## Representation
//!
//! The solver operates purely on interned [`TupleId`]s — no `Tuple`
//! payloads enter the selection loop. The region's distinct ids are mapped
//! to a dense index space once and all working state lives in the flat
//! buffers of a `GreedySolver` that the caller keeps across regions, so
//! a steady stream of regions is solved without touching the allocator:
//! every `(tuple, set, rank)` incidence is one entry of a single list in
//! set order, rank usage of every ranked set shares one flag vector, and
//! the choices and the sets they cover are written into reused buffers.
//! Ids are stable for the lifetime of the region being solved (see
//! [`crate::tuple`]), which is what makes the dense mapping sound.

use crate::candidate::ClosedSet;
use crate::quality::Prescription;
use crate::tuple::TupleId;

/// One tuple chosen by the solver and the sets it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Choice {
    /// Interned id of the chosen tuple.
    pub id: TupleId,
    /// Indices (into the input slice) of the sets this choice counts
    /// toward.
    pub covers: Vec<usize>,
}

/// Solves the (multi-degree) hitting-set instance formed by `sets` with the
/// greedy heuristic: repeatedly choose the tuple useful to the most
/// still-unsatisfied sets, preferring the freshest timestamp on ties
/// (Fig. 2.7).
///
/// Each returned [`Choice`] lists the sets it was counted for; every set
/// ends up covered by exactly `min(pick_degree, #ranks)` choices.
///
/// Sets with `pick_degree == 1` and
/// [`Prescription::Any`] reproduce the
/// classical greedy hitting set exactly.
pub fn greedy_hitting_set(sets: &[ClosedSet]) -> Vec<Choice> {
    weighted_greedy_hitting_set(sets, &vec![1; sets.len()])
}

/// [`greedy_hitting_set`] over an instance in which `sets[i]` stands for
/// `weights[i]` identical copies of itself. Copies of one set are owed,
/// hit and satisfied together, so the picks — and, once each cover is
/// read as all of its copies, the covers — are exactly those of the
/// expanded instance, at the cost of the distinct sets alone. This is
/// how the engine solves a region of folded twin classes.
///
/// # Panics
/// Panics if `weights` and `sets` differ in length.
pub fn weighted_greedy_hitting_set(sets: &[ClosedSet], weights: &[u32]) -> Vec<Choice> {
    let mut universe = Vec::new();
    collect_distinct_ids(sets, &mut universe);
    let mut solver = GreedySolver::default();
    solver.solve(sets, weights, &universe);
    solver
        .choices()
        .map(|(id, covers)| Choice {
            id,
            covers: covers.to_vec(),
        })
        .collect()
}

/// Fills `universe` (cleared first) with the sorted distinct ids
/// referenced by `sets` — the dense universe the solver indexes over.
pub(crate) fn collect_distinct_ids(sets: &[ClosedSet], universe: &mut Vec<TupleId>) {
    universe.clear();
    for set in sets {
        universe.extend(set.candidates.iter().map(|c| c.id));
    }
    universe.sort_unstable();
    universe.dedup();
}

/// `Incidence::rank` of a candidate in an unranked set (any of the set's
/// candidates may fill any of its picks).
const NO_RANK: u32 = u32::MAX;

/// A tuple that can fill one pick of one set.
#[derive(Debug, Clone, Copy)]
struct Incidence {
    /// Dense index of the tuple in the universe.
    tuple: u32,
    set: u32,
    /// Index into [`GreedySolver::rank_used`], or [`NO_RANK`].
    rank: u32,
}

/// The greedy solver's working storage, reused across regions by the
/// engine's region-completion path.
#[derive(Debug, Default)]
pub(crate) struct GreedySolver {
    /// Every incidence of the instance, in set order (so one tuple's
    /// incidences appear in ascending set order).
    incidences: Vec<Incidence>,
    /// Per set: picks still owed (to each of the copies it stands for).
    needed: Vec<u32>,
    /// Per rank of every ranked set: already filled.
    rank_used: Vec<bool>,
    /// Per tuple: timestamp (the tie-break), chosen flag, and this
    /// round's usefulness.
    ts: Vec<u64>,
    chosen: Vec<bool>,
    useful: Vec<u32>,
    /// The choices in pick order, each with the end of its run in
    /// `covers`.
    picks: Vec<(TupleId, usize)>,
    covers: Vec<usize>,
}

impl GreedySolver {
    /// Solves the instance in which `sets[i]` counts `weights[i]` times,
    /// over `universe` — the sorted distinct ids of `sets`, which callers
    /// that need them anyway (region cleanup) collect once. Read the
    /// result with [`choices`](Self::choices).
    pub(crate) fn solve(&mut self, sets: &[ClosedSet], weights: &[u32], universe: &[TupleId]) {
        assert_eq!(sets.len(), weights.len(), "one weight per set");
        let dense = |id: TupleId| {
            universe
                .binary_search(&id)
                .expect("universe covers every candidate id") as u32
        };
        self.incidences.clear();
        self.needed.clear();
        self.rank_used.clear();
        self.picks.clear();
        self.covers.clear();
        self.ts.clear();
        self.ts.resize(universe.len(), 0);
        self.chosen.clear();
        self.chosen.resize(universe.len(), false);

        for (si, set) in sets.iter().enumerate() {
            let set_index = si as u32;
            if set.prescription == Prescription::Any {
                // One rank holding every candidate: no rank bookkeeping.
                for c in &set.candidates {
                    let tuple = dense(c.id);
                    self.ts[tuple as usize] = c.timestamp.as_micros();
                    self.incidences.push(Incidence {
                        tuple,
                        set: set_index,
                        rank: NO_RANK,
                    });
                }
                self.needed.push(set.pick_degree.min(set.len()) as u32);
            } else {
                for c in &set.candidates {
                    self.ts[dense(c.id) as usize] = c.timestamp.as_micros();
                }
                let ranks = set.eligible_ranks();
                let first_rank = self.rank_used.len();
                self.rank_used.resize(first_rank + ranks.len(), false);
                for (ri, rank) in ranks.iter().enumerate() {
                    for &id in rank {
                        self.incidences.push(Incidence {
                            tuple: dense(id),
                            set: set_index,
                            rank: (first_rank + ri) as u32,
                        });
                    }
                }
                self.needed.push(set.pick_degree.min(ranks.len()) as u32);
            }
        }

        let mut owed: u64 = (self.needed.iter().zip(weights))
            .map(|(&n, &w)| u64::from(n) * u64::from(w))
            .sum();
        while owed > 0 {
            // Usefulness: the incidences that could still fill a pick,
            // each once per copy of its set.
            self.useful.clear();
            self.useful.resize(universe.len(), 0);
            for inc in &self.incidences {
                if self.needed[inc.set as usize] > 0
                    && (inc.rank == NO_RANK || !self.rank_used[inc.rank as usize])
                {
                    self.useful[inc.tuple as usize] += weights[inc.set as usize];
                }
            }
            // Pick the tuple with max utility; ties -> freshest timestamp,
            // then highest id (deterministic).
            let mut best: Option<((u32, u64, TupleId), usize)> = None;
            for (t, &id) in universe.iter().enumerate() {
                if self.chosen[t] || self.useful[t] == 0 {
                    continue;
                }
                let key = (self.useful[t], self.ts[t], id);
                if best.is_none_or(|(b, _)| key > b) {
                    best = Some((key, t));
                }
            }
            let Some(((_, _, id), t)) = best else {
                // No tuple can satisfy the remaining demand (can only happen
                // for ranked sets with fewer usable ranks than degree, which
                // the clamped degree already prevents) — defensive break.
                debug_assert!(false, "greedy hitting set ran out of useful tuples");
                break;
            };
            self.chosen[t] = true;
            for inc in self.incidences.iter().filter(|inc| inc.tuple as usize == t) {
                let needed = &mut self.needed[inc.set as usize];
                if *needed > 0 && (inc.rank == NO_RANK || !self.rank_used[inc.rank as usize]) {
                    *needed -= 1;
                    owed -= u64::from(weights[inc.set as usize]);
                    if inc.rank != NO_RANK {
                        self.rank_used[inc.rank as usize] = true;
                    }
                    self.covers.push(inc.set as usize);
                }
            }
            debug_assert!(self.picks.last().map_or(0, |p| p.1) < self.covers.len());
            self.picks.push((id, self.covers.len()));
        }
    }

    /// The choices of the last [`solve`](Self::solve) in pick order, each
    /// with the indices of the sets it counts toward (ascending).
    pub(crate) fn choices(&self) -> impl Iterator<Item = (TupleId, &[usize])> {
        let mut start = 0;
        self.picks.iter().map(move |&(id, end)| {
            let covers = &self.covers[start..end];
            start = end;
            (id, covers)
        })
    }
}

/// Exhaustive minimum hitting set for tiny instances (≤ ~20 candidate
/// tuples). Only 1-degree, unranked sets are supported. Used to validate
/// the greedy heuristic in tests and to measure approximation quality.
///
/// Returns the chosen ids, or `None` if the instance has more than
/// `max_universe` distinct tuples.
pub fn brute_force_minimum(sets: &[ClosedSet], max_universe: usize) -> Option<Vec<TupleId>> {
    let mut universe = Vec::new();
    collect_distinct_ids(sets, &mut universe);
    if universe.len() > max_universe || universe.len() > 25 {
        return None;
    }
    let n = universe.len();
    let mut best: Option<Vec<TupleId>> = None;
    for mask in 0u32..(1u32 << n) {
        let chosen: Vec<TupleId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| universe[i])
            .collect();
        if let Some(b) = &best {
            if chosen.len() >= b.len() {
                continue;
            }
        }
        let hits_all = sets
            .iter()
            .all(|s| s.candidates.iter().any(|c| chosen.contains(&c.id)));
        if hits_all {
            best = Some(chosen);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandidateTuple, CloseCause, FilterId};
    use crate::quality::Prescription;
    use crate::time::Micros;

    fn id(seq: u64) -> TupleId {
        TupleId::from_seq(seq)
    }

    fn set(filter: usize, seqs: &[u64]) -> ClosedSet {
        set_with(filter, seqs, 1, Prescription::Any)
    }

    fn set_with(filter: usize, seqs: &[u64], degree: usize, p: Prescription) -> ClosedSet {
        ClosedSet {
            filter: FilterId::from_index(filter),
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

    fn chosen_ids(sets: &[ClosedSet]) -> Vec<TupleId> {
        let mut v: Vec<TupleId> = greedy_hitting_set(sets).into_iter().map(|c| c.id).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn paper_region_2_example() {
        // Fig. 2.8 region 2: cands1-2 {45,50,59} = seqs {3,4,5},
        // cands2-2 {45,50} = {3,4}, cands3-2 {59,80,97,100} = {5,6,7,8},
        // cands1-3 {97,100} = {7,8}, cands2-3 {97,100} = {7,8}.
        let sets = vec![
            set(0, &[3, 4, 5]),
            set(1, &[3, 4]),
            set(2, &[5, 6, 7, 8]),
            set(0, &[7, 8]),
            set(1, &[7, 8]),
        ];
        let result = greedy_hitting_set(&sets);
        // Utilities: 7 and 8 have 3; freshest wins -> 8 (=tuple 100) first,
        // covering sets 2,3,4. Then 3,4 have utility 2 each; freshest -> 4
        // (=tuple 50), covering sets 0,1.
        assert_eq!(result[0].id, id(8));
        assert_eq!(result[0].covers, vec![2, 3, 4]);
        assert_eq!(result[1].id, id(4));
        assert_eq!(result[1].covers, vec![0, 1]);
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn every_set_is_hit() {
        let sets = vec![set(0, &[1, 2]), set(1, &[3]), set(2, &[2, 3])];
        let result = greedy_hitting_set(&sets);
        for (si, s) in sets.iter().enumerate() {
            let hit = result
                .iter()
                .any(|c| c.covers.contains(&si) && s.contains(c.id));
            assert!(hit, "set {si} not hit");
        }
    }

    #[test]
    fn singleton_sets_force_choices() {
        let sets = vec![set(0, &[1]), set(1, &[2])];
        assert_eq!(chosen_ids(&sets), vec![id(1), id(2)]);
    }

    #[test]
    fn greedy_matches_brute_force_on_small_instances() {
        let sets = vec![
            set(0, &[1, 2, 3]),
            set(1, &[2, 4]),
            set(2, &[3, 4]),
            set(3, &[4]),
        ];
        let greedy = chosen_ids(&sets);
        let best = brute_force_minimum(&sets, 20).unwrap();
        // 4 hits sets 1,2,3; one of {1,2,3} hits set 0 -> optimum 2.
        assert_eq!(best.len(), 2);
        assert_eq!(greedy.len(), 2);
    }

    #[test]
    fn multi_degree_set_gets_k_distinct_tuples() {
        let sets = vec![
            set_with(0, &[1, 2, 3, 4], 2, Prescription::Any),
            set(1, &[2]),
        ];
        let result = greedy_hitting_set(&sets);
        let covering: Vec<&Choice> = result.iter().filter(|c| c.covers.contains(&0)).collect();
        assert_eq!(covering.len(), 2, "degree-2 set covered twice");
        let ids: Vec<TupleId> = covering.iter().map(|c| c.id).collect();
        assert_eq!(
            ids.len(),
            ids.iter().collect::<std::collections::HashSet<_>>().len()
        );
        // 2 should be shared with the singleton set.
        assert!(result.iter().any(|c| c.id == id(2) && c.covers.len() == 2));
    }

    #[test]
    fn ranked_set_uses_one_tuple_per_rank() {
        // Top-2 of {1:10.0, 2:10.0, 3:5.0}: rank0 = {1,2} (tied), rank1 = {3}.
        let mut s = set_with(0, &[1, 2, 3], 2, Prescription::Top);
        s.candidates[0].key = 10.0;
        s.candidates[1].key = 10.0;
        s.candidates[2].key = 5.0;
        let result = greedy_hitting_set(&[s]);
        assert_eq!(result.len(), 2);
        let ids: Vec<TupleId> = result.iter().map(|c| c.id).collect();
        // must include 3 (only rank-1 tuple) and exactly one of {1,2}
        assert!(ids.contains(&id(3)));
        assert_eq!(ids.iter().filter(|&&i| i == id(1) || i == id(2)).count(), 1);
    }

    #[test]
    fn ranked_set_with_fewer_ranks_than_degree_is_satisfiable() {
        // All keys equal -> a single rank; degree 3 clamps to 1 choice.
        let mut s = set_with(0, &[1, 2, 3], 3, Prescription::Top);
        for c in &mut s.candidates {
            c.key = 1.0;
        }
        let result = greedy_hitting_set(&[s]);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(greedy_hitting_set(&[]).is_empty());
    }

    #[test]
    fn brute_force_gives_up_on_large_universe() {
        let sets = vec![set(0, &(0..30).collect::<Vec<u64>>())];
        assert!(brute_force_minimum(&sets, 20).is_none());
    }

    #[test]
    fn tie_break_prefers_freshest() {
        // Both 1 and 9 hit both sets; 9 is fresher.
        let sets = vec![set(0, &[1, 9]), set(1, &[1, 9])];
        let result = greedy_hitting_set(&sets);
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].id, id(9));
    }
}
