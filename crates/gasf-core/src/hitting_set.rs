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
//! payloads enter the selection loop — and all its working state lives
//! in the flat buffers of a `GreedySolver` that the caller keeps across
//! regions, so a steady stream of regions is solved without touching the
//! allocator.
//!
//! A region of `I` `(tuple, set, rank)` incidences over `T` distinct
//! tuples costs `O(I + picks × T)`, where recomputing every usefulness
//! per round cost `O(picks × (I + T))`:
//! - one pass over the candidates maps each id to a dense index through a
//!   small open-addressing table (a multiplicative hash of the sequence
//!   number), which builds the distinct-id universe at the same time;
//! - every incidence is one entry of a list in set order; each set and
//!   each rank of a ranked set is a run of it, and each tuple's
//!   incidences are chained in set order, so the covers of a choice come
//!   out ascending;
//! - each tuple's usefulness is summed once. A pick walks only the picked
//!   tuple's chain, and weight is subtracted only from incidences that
//!   die: every incidence of a set that reaches its degree, or of a rank
//!   that gets used. Each incidence dies at most once;
//! - the next pick is the maximum of `(usefulness, timestamp, id)` over
//!   a list of the unchosen tuples, which drops each tuple the first time
//!   it is seen useless. A region averages under six distinct tuples on
//!   the benchmark rosters, where one short scan beats keeping a heap.
//!
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
    let mut solver = GreedySolver::default();
    solver.index(sets);
    solver.solve(sets, weights);
    solver
        .choices()
        .map(|(id, covers)| Choice {
            id,
            covers: covers.to_vec(),
        })
        .collect()
}

/// Fills `universe` (cleared first) with the sorted distinct ids
/// referenced by `sets`.
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

/// End of a tuple's incidence chain.
const END: u32 = u32::MAX;

/// A tuple that can fill one pick of one set.
#[derive(Debug, Clone, Copy)]
struct Incidence {
    /// Dense index of the tuple in the universe.
    tuple: u32,
    set: u32,
    /// Index into [`GreedySolver::ranks`], or [`NO_RANK`].
    rank: u32,
    /// The tuple's next incidence (in set order), or [`END`].
    next: u32,
}

/// A set of the instance: its run of incidences, the picks it still owes
/// and how many copies it stands for.
#[derive(Debug, Clone, Copy)]
struct SetRun {
    start: u32,
    end: u32,
    needed: u32,
    weight: u32,
}

/// A rank of a ranked set: its run of incidences, and whether a pick has
/// filled it.
#[derive(Debug, Clone, Copy)]
struct RankRun {
    start: u32,
    end: u32,
    used: bool,
}

/// One entry of the id → dense-index table, valid while `stamp` matches
/// the solver's.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    dense: u32,
    seq: u64,
}

/// The greedy solver's working storage, reused across regions by the
/// engine's region-completion path.
#[derive(Debug, Default)]
pub(crate) struct GreedySolver {
    /// Open-addressing id → dense-index table; a power of two long, and
    /// emptied by bumping `stamp`.
    table: Vec<Slot>,
    stamp: u32,
    /// log2 of the part of `table` the current index pass uses.
    bits: u32,
    /// The distinct ids of the indexed sets, in first-seen order, and per
    /// id its timestamp (the tie-break).
    universe: Vec<TupleId>,
    ts: Vec<u64>,
    /// Per candidate of the indexed sets, in order: its dense index.
    dense: Vec<u32>,
    /// Every incidence of the instance, in set order.
    incidences: Vec<Incidence>,
    sets: Vec<SetRun>,
    ranks: Vec<RankRun>,
    /// Per tuple: the first incidence of its chain and its usefulness
    /// (the weight of its live incidences).
    head: Vec<u32>,
    useful: Vec<u32>,
    /// The unchosen tuples that may still be useful.
    live: Vec<u32>,
    /// The choices in pick order, each with the end of its run in
    /// `covers`.
    picks: Vec<(TupleId, usize)>,
    covers: Vec<usize>,
}

impl GreedySolver {
    /// Maps the candidates of `sets` to dense indices, collecting their
    /// distinct ids into [`universe`](Self::universe) — one table probe
    /// per candidate.
    pub(crate) fn index(&mut self, sets: &[ClosedSet]) {
        let candidates: usize = sets.iter().map(ClosedSet::len).sum();
        // At most half full, so probe runs stay short.
        self.bits = (2 * candidates).max(2).next_power_of_two().trailing_zeros();
        if self.table.len() < 1 << self.bits {
            self.table.resize(1 << self.bits, Slot::default());
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.table.fill(Slot::default());
            self.stamp = 1;
        }
        self.universe.clear();
        self.ts.clear();
        self.dense.clear();
        for c in sets.iter().flat_map(|s| &s.candidates) {
            let (dense, fresh) = self.probe(c.id);
            if fresh {
                self.universe.push(c.id);
                self.ts.push(c.timestamp.as_micros());
            } else {
                // The last set to mention an id sets its timestamp.
                self.ts[dense as usize] = c.timestamp.as_micros();
            }
            self.dense.push(dense);
        }
    }

    /// The dense index of `id`, inserting it as the next one if absent
    /// (`true`).
    fn probe(&mut self, id: TupleId) -> (u32, bool) {
        let mask = (1usize << self.bits) - 1;
        let mut at = (id.seq().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.bits)) as usize;
        loop {
            let slot = &mut self.table[at];
            if slot.stamp != self.stamp {
                let dense = self.universe.len() as u32;
                *slot = Slot {
                    stamp: self.stamp,
                    dense,
                    seq: id.seq(),
                };
                return (dense, true);
            }
            if slot.seq == id.seq() {
                return (slot.dense, false);
            }
            at = (at + 1) & mask;
        }
    }

    /// The distinct ids of the last [`index`](Self::index)ed sets, in
    /// first-seen order.
    pub(crate) fn universe(&self) -> &[TupleId] {
        &self.universe
    }

    /// Solves the instance in which `sets[i]` counts `weights[i]` times.
    /// `sets` must be the ones last [`index`](Self::index)ed. Read the
    /// result with [`choices`](Self::choices).
    pub(crate) fn solve(&mut self, sets: &[ClosedSet], weights: &[u32]) {
        assert_eq!(sets.len(), weights.len(), "one weight per set");
        let tuples = self.universe.len();
        self.incidences.clear();
        self.sets.clear();
        self.ranks.clear();
        self.picks.clear();
        self.covers.clear();
        self.useful.clear();
        self.useful.resize(tuples, 0);

        let mut owed: u64 = 0;
        let mut first = 0;
        for (si, (set, &weight)) in sets.iter().zip(weights).enumerate() {
            let set_index = si as u32;
            let start = self.incidences.len() as u32;
            let needed = if set.prescription == Prescription::Any {
                // One rank holding every candidate: no rank bookkeeping.
                let dense = &self.dense[first..first + set.len()];
                self.incidences.extend(dense.iter().map(|&tuple| Incidence {
                    tuple,
                    set: set_index,
                    rank: NO_RANK,
                    next: END,
                }));
                set.pick_degree.min(set.len())
            } else {
                let ranks = set.eligible_ranks();
                for rank in &ranks {
                    let rank_start = self.incidences.len() as u32;
                    for &id in rank {
                        let (tuple, fresh) = self.probe(id);
                        debug_assert!(!fresh, "a rank holds candidates of its set");
                        self.incidences.push(Incidence {
                            tuple,
                            set: set_index,
                            rank: self.ranks.len() as u32,
                            next: END,
                        });
                    }
                    self.ranks.push(RankRun {
                        start: rank_start,
                        end: self.incidences.len() as u32,
                        used: false,
                    });
                }
                set.pick_degree.min(ranks.len())
            } as u32;
            first += set.len();
            let end = self.incidences.len() as u32;
            if needed > 0 {
                for inc in &self.incidences[start as usize..] {
                    self.useful[inc.tuple as usize] += weight;
                }
            }
            owed += u64::from(needed) * u64::from(weight);
            self.sets.push(SetRun {
                start,
                end,
                needed,
                weight,
            });
        }
        debug_assert_eq!(first, self.dense.len(), "solve the sets last indexed");
        // Chain every tuple's incidences in set order.
        self.head.clear();
        self.head.resize(tuples, END);
        for (i, inc) in self.incidences.iter_mut().enumerate().rev() {
            inc.next = std::mem::replace(&mut self.head[inc.tuple as usize], i as u32);
        }
        self.live.clear();
        self.live.extend(0..tuples as u32);

        while owed > 0 {
            let Some(t) = self.next_pick() else {
                // No tuple can satisfy the remaining demand (can only happen
                // for ranked sets with fewer usable ranks than degree, which
                // the clamped degree already prevents) — defensive break.
                debug_assert!(false, "greedy hitting set ran out of useful tuples");
                break;
            };
            let mut i = self.head[t];
            while i != END {
                let inc = self.incidences[i as usize];
                i = inc.next;
                let set = self.sets[inc.set as usize];
                let ranked = inc.rank != NO_RANK;
                if set.needed == 0 || (ranked && self.ranks[inc.rank as usize].used) {
                    continue;
                }
                owed -= u64::from(set.weight);
                self.sets[inc.set as usize].needed -= 1;
                if set.needed == 1 {
                    // The set is satisfied: its live incidences die.
                    self.kill(set.start, set.end, set.weight);
                } else if ranked {
                    // The rank is filled: its incidences die.
                    let rank = self.ranks[inc.rank as usize];
                    self.kill(rank.start, rank.end, set.weight);
                }
                if ranked {
                    self.ranks[inc.rank as usize].used = true;
                }
                self.covers.push(inc.set as usize);
            }
            debug_assert!(self.picks.last().map_or(0, |p| p.1) < self.covers.len());
            self.picks.push((self.universe[t], self.covers.len()));
        }
    }

    /// Subtracts `weight` from the usefulness of every tuple with an
    /// incidence in `start..end` (a run of one set, which still owes
    /// picks), except the incidences of ranks already used: they died
    /// with their rank.
    fn kill(&mut self, start: u32, end: u32, weight: u32) {
        for inc in &self.incidences[start as usize..end as usize] {
            if inc.rank != NO_RANK && self.ranks[inc.rank as usize].used {
                continue;
            }
            self.useful[inc.tuple as usize] -= weight;
        }
    }

    /// The unchosen tuple with the greatest `(usefulness, timestamp, id)`
    /// among those still useful.
    fn next_pick(&mut self) -> Option<usize> {
        let mut best = None;
        let mut at = 0;
        let mut i = 0;
        while i < self.live.len() {
            let t = self.live[i] as usize;
            if self.useful[t] == 0 {
                self.live.swap_remove(i);
                continue;
            }
            let key = (self.useful[t], self.ts[t], self.universe[t]);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
                at = i;
            }
            i += 1;
        }
        best?;
        Some(self.live.swap_remove(at) as usize)
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
