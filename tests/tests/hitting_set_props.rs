//! Property tests for the greedy hitting-set solvers.

use gasf_core::candidate::{CandidateTuple, CloseCause, ClosedSet, FilterId};
use gasf_core::hitting_set::{
    brute_force_minimum, greedy_hitting_set, weighted_greedy_hitting_set, Choice,
};
use gasf_core::quality::Prescription;
use gasf_core::time::Micros;
use gasf_core::tuple::TupleId;
use proptest::prelude::*;

fn mk_set(filter: usize, seqs: Vec<u64>, degree: usize, p: Prescription) -> ClosedSet {
    ClosedSet {
        filter: FilterId::from_index(filter),
        set_index: 0,
        candidates: seqs
            .iter()
            .map(|&s| CandidateTuple {
                id: TupleId::from_seq(s),
                timestamp: Micros::from_millis(s * 10),
                key: (s % 7) as f64,
            })
            .collect(),
        pick_degree: degree,
        prescription: p,
        si_choice: vec![],
        cause: CloseCause::Natural,
    }
}

/// The greedy hitting set the way the solver first computed it: every
/// round recomputes each tuple's usefulness from all incidences, scans the
/// universe for the maximum `(usefulness, timestamp, id)`, and walks all
/// incidences for the picked tuple's. The property below holds the
/// incremental solver to it.
fn reference_greedy(sets: &[ClosedSet], weights: &[u32]) -> Vec<Choice> {
    const NO_RANK: usize = usize::MAX;
    let mut universe: Vec<TupleId> = sets
        .iter()
        .flat_map(|s| s.candidates.iter().map(|c| c.id))
        .collect();
    universe.sort_unstable();
    universe.dedup();
    let dense = |id: TupleId| universe.binary_search(&id).unwrap();
    let mut ts = vec![0u64; universe.len()];
    // (tuple, set, rank)
    let mut incidences: Vec<(usize, usize, usize)> = Vec::new();
    let mut needed: Vec<u32> = Vec::new();
    let mut rank_used: Vec<bool> = Vec::new();
    for (si, set) in sets.iter().enumerate() {
        for c in &set.candidates {
            ts[dense(c.id)] = c.timestamp.as_micros();
        }
        if set.prescription == Prescription::Any {
            incidences.extend(set.candidates.iter().map(|c| (dense(c.id), si, NO_RANK)));
            needed.push(set.pick_degree.min(set.len()) as u32);
        } else {
            let ranks = set.eligible_ranks();
            for rank in &ranks {
                incidences.extend(rank.iter().map(|&id| (dense(id), si, rank_used.len())));
                rank_used.push(false);
            }
            needed.push(set.pick_degree.min(ranks.len()) as u32);
        }
    }
    let mut owed: u64 = (needed.iter().zip(weights))
        .map(|(&n, &w)| u64::from(n) * u64::from(w))
        .sum();
    let mut chosen = vec![false; universe.len()];
    let mut choices = Vec::new();
    while owed > 0 {
        let mut useful = vec![0u32; universe.len()];
        for &(t, s, r) in &incidences {
            if needed[s] > 0 && (r == NO_RANK || !rank_used[r]) {
                useful[t] += weights[s];
            }
        }
        let best = (0..universe.len())
            .filter(|&t| !chosen[t] && useful[t] > 0)
            .max_by_key(|&t| (useful[t], ts[t], universe[t]))
            .expect("a useful tuple remains while picks are owed");
        chosen[best] = true;
        let mut covers = Vec::new();
        for &(_, s, r) in incidences.iter().filter(|inc| inc.0 == best) {
            if needed[s] > 0 && (r == NO_RANK || !rank_used[r]) {
                needed[s] -= 1;
                owed -= u64::from(weights[s]);
                if r != NO_RANK {
                    rank_used[r] = true;
                }
                covers.push(s);
            }
        }
        choices.push(Choice {
            id: universe[best],
            covers,
        });
    }
    choices
}

/// 1..6 sets over a universe of 1..12 tuples, each set with 1..5 members.
fn instance_strategy() -> impl Strategy<Value = Vec<ClosedSet>> {
    proptest::collection::vec(proptest::collection::btree_set(0u64..12, 1..5), 1..6).prop_map(
        |sets| {
            sets.into_iter()
                .enumerate()
                .map(|(i, s)| mk_set(i, s.into_iter().collect(), 1, Prescription::Any))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_covers_every_set(sets in instance_strategy()) {
        let choices = greedy_hitting_set(&sets);
        for (si, set) in sets.iter().enumerate() {
            let covered = choices
                .iter()
                .any(|c| c.covers.contains(&si) && set.contains(c.id));
            prop_assert!(covered, "set {si} not covered");
        }
    }

    #[test]
    fn greedy_choices_are_distinct_and_useful(sets in instance_strategy()) {
        let choices = greedy_hitting_set(&sets);
        let mut seen = std::collections::HashSet::new();
        for c in &choices {
            prop_assert!(seen.insert(c.id), "tuple {} chosen twice", c.id);
            prop_assert!(!c.covers.is_empty(), "useless choice {}", c.id);
        }
    }

    #[test]
    fn greedy_within_harmonic_bound_of_optimum(sets in instance_strategy()) {
        let greedy = greedy_hitting_set(&sets).len() as f64;
        if let Some(best) = brute_force_minimum(&sets, 12) {
            let max_set = sets.iter().map(|s| s.len()).max().unwrap_or(1);
            let h: f64 = (1..=max_set).map(|k| 1.0 / k as f64).sum();
            prop_assert!(
                greedy <= best.len() as f64 * h + 1e-9,
                "greedy {} vs optimum {} (H = {h:.2})",
                greedy,
                best.len()
            );
        }
    }

    #[test]
    fn multi_degree_sets_get_required_count(
        seqs in proptest::collection::btree_set(0u64..20, 4..10),
        degree in 1usize..4,
    ) {
        let set = mk_set(0, seqs.into_iter().collect(), degree, Prescription::Any);
        let want = degree.min(set.len());
        let choices = greedy_hitting_set(std::slice::from_ref(&set));
        let covering = choices.iter().filter(|c| c.covers.contains(&0)).count();
        prop_assert_eq!(covering, want);
    }

    #[test]
    fn ranked_sets_never_reuse_a_rank(
        seqs in proptest::collection::btree_set(0u64..20, 3..10),
        degree in 1usize..4,
    ) {
        let set = mk_set(0, seqs.into_iter().collect(), degree, Prescription::Top);
        let ranks = set.eligible_ranks();
        let choices = greedy_hitting_set(std::slice::from_ref(&set));
        // each chosen tuple maps to a distinct rank
        let mut used = std::collections::HashSet::new();
        for c in &choices {
            let rank = ranks.iter().position(|r| r.contains(&c.id));
            prop_assert!(rank.is_some(), "chosen {} not eligible", c.id);
            prop_assert!(used.insert(rank.unwrap()), "rank reused");
        }
        prop_assert_eq!(choices.len(), degree.min(ranks.len()));
    }

    /// Solving distinct sets with weights is solving the instance that
    /// holds each set `weight` times: the same picks in the same order,
    /// and — reading a cover of a distinct set as a cover of all its
    /// copies — the same `(id, covers)`. Multi-degree sets under all
    /// three prescriptions, the copies scattered through the expanded
    /// instance rather than adjacent.
    #[test]
    fn weighted_greedy_equals_greedy_on_the_expanded_instance(
        shapes in proptest::collection::vec(
            ((proptest::collection::btree_set(0u64..14, 1..7), 1usize..4), (0usize..3, 1u32..5)),
            1..7,
        ),
    ) {
        let prescriptions = [Prescription::Any, Prescription::Top, Prescription::Bottom];
        let (sets, weights): (Vec<ClosedSet>, Vec<u32>) = (shapes.into_iter().enumerate())
            .map(|(i, ((seqs, degree), (p, weight)))| {
                (mk_set(i, seqs.into_iter().collect(), degree, prescriptions[p]), weight)
            })
            .unzip();
        // Round `r` of the expansion holds a copy of every set that has
        // more than `r` copies.
        let expanded_from: Vec<usize> = (0..4)
            .flat_map(|round| (0..sets.len()).map(move |si| (round, si)))
            .filter(|&(round, si)| round < weights[si])
            .map(|(_, si)| si)
            .collect();
        let expanded: Vec<ClosedSet> = expanded_from.iter().map(|&si| sets[si].clone()).collect();

        let weighted = weighted_greedy_hitting_set(&sets, &weights);
        let reference = greedy_hitting_set(&expanded);
        let unfolded: Vec<(TupleId, Vec<usize>)> = (weighted.iter())
            .map(|c| {
                let copies = (0..expanded.len()).filter(|&e| c.covers.contains(&expanded_from[e]));
                (c.id, copies.collect())
            })
            .collect();
        let reference: Vec<(TupleId, Vec<usize>)> =
            reference.into_iter().map(|c| (c.id, c.covers)).collect();
        prop_assert_eq!(unfolded, reference);
        prop_assert_eq!(
            greedy_hitting_set(&sets),
            weighted_greedy_hitting_set(&sets, &vec![1; sets.len()])
        );
    }

    /// The incremental solver picks exactly what [`reference_greedy`]
    /// picks, with the same covers, on instances of 1..40 sets over up to
    /// 60 tuples: every prescription, degrees 1..3, weights 1..5, and
    /// per-tuple timestamps drawn from a few values with no relation to
    /// the id, so usefulness ties fall through to the timestamp and then
    /// to the id. Rank keys take a few values too, so ranks tie.
    #[test]
    fn solver_equals_the_reference(
        shapes in proptest::collection::vec(
            (
                proptest::collection::btree_set(0u64..60, 1..10),
                (1usize..4, 0usize..3),
                (1u32..6, 0u64..1_000),
            ),
            1..41,
        ),
        stamps in proptest::collection::vec(0u64..6, 60..61),
    ) {
        let prescriptions = [Prescription::Any, Prescription::Top, Prescription::Bottom];
        let (sets, weights): (Vec<ClosedSet>, Vec<u32>) = (shapes.into_iter().enumerate())
            .map(|(i, (seqs, (degree, p), (weight, salt)))| {
                let mut set = mk_set(i, seqs.into_iter().collect(), degree, prescriptions[p]);
                for c in &mut set.candidates {
                    c.timestamp = Micros::from_millis(stamps[c.id.seq() as usize]);
                    c.key = ((c.id.seq() ^ salt) % 3) as f64;
                }
                (set, weight)
            })
            .unzip();
        prop_assert_eq!(
            weighted_greedy_hitting_set(&sets, &weights),
            reference_greedy(&sets, &weights)
        );
        let ones = vec![1; sets.len()];
        prop_assert_eq!(greedy_hitting_set(&sets), reference_greedy(&sets, &ones));
    }
}
