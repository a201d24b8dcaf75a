//! Property tests for [`RuntimePredictor`] on the degenerate inputs that
//! show up in practice and used to be easy to regress: a window full of
//! **constant region sizes** (the least-squares denominator collapses),
//! a **single observation**, and **zero-CPU samples** (timer granularity
//! rounds a fast region to 0 µs). In every case the predictor must stay
//! defined, finite, and non-negative — a NaN or negative prediction here
//! silently disables the cut heuristic in the sharded engine.
//!
//! Plus the group timely cut itself (RG+C) over a roster of identical
//! filters, which the compiled tier folds into one member per distinct
//! spec: `cut_all` must close, book and solve for every filter the
//! member stands for, exactly as the unfolded interpreted tier does.

use gasf_core::cuts::{RuntimePredictor, TimeConstraint};
use gasf_core::engine::{Algorithm, GroupEngine};
use gasf_core::plan::EvaluatorTier;
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::time::Micros;
use gasf_core::tuple::TupleBuilder;
use proptest::prelude::*;

proptest! {
    /// Constant sizes make the least-squares denominator exactly zero:
    /// `fit` must decline rather than divide, and `predict` must fall
    /// back to the conservative max-observed runtime for *any* queried
    /// size — never NaN, never negative.
    #[test]
    fn constant_sizes_fall_back_to_max_observed(
        size in 1usize..50_000,
        cpus in proptest::collection::vec(0u64..5_000_000, 2..24),
        query in 0usize..100_000,
        overestimate in 0.0f64..10_000.0,
    ) {
        let mut p = RuntimePredictor::with_window(cpus.len(), overestimate);
        for &c in &cpus {
            p.observe(size, Micros(c));
        }
        prop_assert_eq!(p.fit(), None, "constant sizes have no defined slope");
        let max = *cpus.iter().max().unwrap() as f64;
        let us = p.predict_us(query);
        prop_assert!(us.is_finite());
        prop_assert!((us - (max + overestimate)).abs() < 1e-6);
        prop_assert_eq!(p.predict(query), Micros((max + overestimate).round() as u64));
    }

    /// One observation is never enough for a line: `fit` is `None` and
    /// the fallback predicts that single runtime regardless of size.
    #[test]
    fn single_observation_predicts_itself(
        size in 0usize..100_000,
        cpu in 0u64..10_000_000,
        query in 0usize..100_000,
    ) {
        let mut p = RuntimePredictor::new();
        p.observe(size, Micros(cpu));
        prop_assert_eq!(p.observations(), 1);
        prop_assert_eq!(p.fit(), None);
        prop_assert_eq!(p.predict(query), Micros(cpu));
    }

    /// Zero-CPU samples (sub-microsecond regions) must clamp cleanly:
    /// whatever mix of sizes and zero runtimes lands in the window, the
    /// prediction is finite and ≥ 0 — extrapolating a downward-sloping
    /// fit below zero is clamped, not returned.
    #[test]
    fn zero_cpu_samples_never_predict_negative(
        obs in proptest::collection::vec((1usize..10_000, 0u64..3), 1..24),
        query in 0usize..1_000_000,
    ) {
        let mut p = RuntimePredictor::with_window(obs.len(), 0.0);
        for &(s, c) in &obs {
            p.observe(s, Micros(c));
        }
        let us = p.predict_us(query);
        prop_assert!(us.is_finite(), "prediction must be finite, got {}", us);
        prop_assert!(us >= 0.0, "prediction must clamp at zero, got {}", us);
        // An all-zero window predicts exactly zero everywhere.
        if obs.iter().all(|&(_, c)| c == 0) {
            prop_assert_eq!(p.predict(query), Micros(0));
        }
    }

    /// The empty predictor (no observations at all) is also defined: it
    /// predicts only its overestimation margin.
    #[test]
    fn empty_window_predicts_the_margin(
        query in 0usize..100_000,
        overestimate in 0.0f64..1_000.0,
    ) {
        let p = RuntimePredictor::with_window(8, overestimate);
        prop_assert_eq!(p.fit(), None);
        prop_assert!((p.predict_us(query) - overestimate).abs() < 1e-9);
    }

    /// RG+C over a twin roster: 2–4 copies of each spec at interleaved
    /// slots under a group deadline tight enough to cut. Both tiers must
    /// release the same emissions, cut the same regions and book every
    /// copy's counters alike. (The deadline sits 5 ms off the 10 ms
    /// tuple spacing, so the microseconds the run-time predictor adds
    /// cannot decide a cut.)
    #[test]
    fn group_cuts_treat_every_twin_alike(
        steps in proptest::collection::vec(-12i32..12, 40..160),
        params in proptest::collection::vec((8.0f64..40.0, 0.1f64..0.5), 1..4),
        copies in 2usize..5,
        deadline in 2u64..8,
    ) {
        let schema = Schema::new(["v"]);
        let mut b = TupleBuilder::new(&schema);
        let mut v = 0.0;
        let tuples: Vec<_> = (steps.iter().enumerate())
            .map(|(i, s)| {
                v += f64::from(*s);
                b.at_millis(10 * (i as u64 + 1)).set("v", v).build().unwrap()
            })
            .collect();
        let distinct = params.len();
        let specs: Vec<FilterSpec> = (0..copies * distinct)
            .map(|i| {
                let (delta, frac) = params[i % distinct];
                FilterSpec::delta("v", delta, delta * frac)
            })
            .collect();
        let run = |tier| {
            let mut engine = GroupEngine::builder(schema.clone())
                .algorithm(Algorithm::RegionGreedy)
                .time_constraint(TimeConstraint::max_delay(Micros::from_millis(10 * deadline + 5)))
                .evaluator(tier)
                .filters(specs.clone())
                .build()
                .unwrap();
            let emissions = engine.run(tuples.clone()).unwrap();
            (emissions, engine.into_metrics())
        };
        let (folded, fm) = run(EvaluatorTier::Compiled);
        let (unfolded, um) = run(EvaluatorTier::Interpreted);
        prop_assert_eq!(&folded, &unfolded);
        prop_assert_eq!((fm.regions, fm.regions_cut), (um.regions, um.regions_cut));
        prop_assert_eq!(&fm.region_size, &um.region_size);
        prop_assert_eq!(&fm.per_filter, &um.per_filter);
        // Copies of a spec receive the same tuples.
        for e in &folded {
            for f in e.recipients.iter() {
                let twin = gasf_core::candidate::FilterId::from_index((f.index() + distinct) % specs.len());
                prop_assert!(e.recipients.contains(twin), "{f} without its twin {twin}");
            }
        }
    }
}
