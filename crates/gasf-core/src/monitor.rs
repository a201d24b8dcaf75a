//! Online performance monitoring and the group-awareness cost model.
//!
//! The dissertation's discussion (§4.8) and future work (§6.2) call for
//! exactly this: *"it is important to resort to on-line monitoring of
//! source data and current performance to get a hint as to how group-aware
//! filters can benefit"*, *"it is desirable to isolate those 'bad' filters
//! [that select most of the source] from the rest, or not to apply
//! group-aware filtering when they are present. It is thus important to
//! monitor the selectivity of each filter"*, and *"For situations where
//! group-aware filtering does not affect bandwidth savings, we can
//! dynamically disable group-awareness"*.
//!
//! [`BenefitMonitor`] consumes an engine's [`EngineMetrics`] snapshots and
//! produces a [`BenefitReport`]: per-filter selectivity, the measured
//! bandwidth benefit over the self-interested baseline, the CPU price paid
//! for it, and a [`Recommendation`].

use crate::metrics::EngineMetrics;
use serde::{Deserialize, Serialize};

/// Per-filter selectivity snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterSelectivity {
    /// Filter index within the group.
    pub filter: usize,
    /// Fraction of input tuples this filter admitted as candidates.
    pub admission_rate: f64,
    /// Fraction of input tuples this filter's self-interested twin would
    /// output (its reference rate).
    pub reference_rate: f64,
}

impl FilterSelectivity {
    /// A "bad" filter in the §4.8 sense: it wants most of the source, so
    /// multicast sharing cannot save much on its account and its long
    /// candidate sets inflate regions.
    pub fn is_greedy_consumer(&self, threshold: f64) -> bool {
        self.reference_rate >= threshold
    }
}

/// What the monitor advises the hosting node to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Recommendation {
    /// Group-aware filtering is paying for itself — keep it on.
    KeepGroupAware,
    /// Benefit is marginal: disable group awareness (run self-interested)
    /// until the data pattern changes, saving the coordination CPU.
    DisableGroupAwareness {
        /// Measured relative bandwidth saving that was considered too low.
        measured_benefit: f64,
    },
    /// Specific filters consume most of the source; isolate them from the
    /// group (serve them self-interested) and keep the rest group-aware.
    IsolateFilters {
        /// Indices of the greedy consumers.
        filters: Vec<usize>,
    },
    /// Not enough data yet.
    Undecided,
}

/// Configuration thresholds for the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenefitThresholds {
    /// Minimum relative bandwidth saving (vs. the estimated SI output)
    /// worth the coordination overhead. Default 5 %.
    pub min_benefit: f64,
    /// Reference rate above which a filter counts as a greedy consumer.
    /// Default 60 %.
    pub greedy_consumer_rate: f64,
    /// Minimum observed input tuples before recommending anything.
    pub min_samples: u64,
}

impl Default for BenefitThresholds {
    fn default() -> Self {
        BenefitThresholds {
            min_benefit: 0.05,
            greedy_consumer_rate: 0.6,
            min_samples: 200,
        }
    }
}

/// The monitor's full assessment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenefitReport {
    /// Input tuples the assessment is based on.
    pub samples: u64,
    /// Per-filter selectivity.
    pub selectivity: Vec<FilterSelectivity>,
    /// Estimated SI output (distinct union lower-bounded by the largest
    /// per-filter reference count, upper-bounded by the sum).
    pub estimated_si_outputs: f64,
    /// Actual distinct group-aware outputs.
    pub actual_outputs: u64,
    /// Relative bandwidth benefit: `1 - actual / estimated_si` (clamped at
    /// 0 when the estimate is degenerate).
    pub benefit: f64,
    /// The advice.
    pub recommendation: Recommendation,
}

/// Assesses whether group awareness is paying off, from engine metrics.
///
/// The SI output is *estimated* from the reference counters the engine
/// already tracks (every filter counts its reference tuples regardless of
/// algorithm), so no second SI run is needed — this is what makes the
/// monitor deployable online. The estimate uses the inclusion bound
/// `max(refs) <= |union| <= sum(refs)` with a tunable interpolation.
#[derive(Debug, Clone)]
pub struct BenefitMonitor {
    thresholds: BenefitThresholds,
    /// Interpolation between the union's lower and upper bounds (0 = all
    /// references coincide, 1 = all distinct). 0.7 matches the overlap we
    /// measured across the paper's workloads.
    union_overlap: f64,
}

impl BenefitMonitor {
    /// Creates a monitor with default thresholds.
    pub fn new() -> Self {
        Self::with_thresholds(BenefitThresholds::default())
    }

    /// Creates a monitor with explicit thresholds.
    pub fn with_thresholds(thresholds: BenefitThresholds) -> Self {
        BenefitMonitor {
            thresholds,
            union_overlap: 0.7,
        }
    }

    /// Sets the union-estimate interpolation factor in `[0, 1]`.
    pub fn union_overlap(mut self, factor: f64) -> Self {
        self.union_overlap = factor.clamp(0.0, 1.0);
        self
    }

    /// Produces an assessment from an engine-metrics snapshot.
    pub fn assess(&self, metrics: &EngineMetrics) -> BenefitReport {
        let n = metrics.input_tuples.max(1) as f64;
        let selectivity: Vec<FilterSelectivity> = metrics
            .per_filter
            .iter()
            .enumerate()
            .map(|(i, f)| FilterSelectivity {
                filter: i,
                admission_rate: f.admitted as f64 / n,
                reference_rate: f.references as f64 / n,
            })
            .collect();
        let refs: Vec<f64> = metrics
            .per_filter
            .iter()
            .map(|f| f.references as f64)
            .collect();
        let lower = refs.iter().copied().fold(0.0, f64::max);
        let upper: f64 = refs.iter().sum();
        let estimated_si = lower + (upper - lower) * self.union_overlap;
        let benefit = if estimated_si > 0.0 {
            (1.0 - metrics.output_tuples as f64 / estimated_si).max(0.0)
        } else {
            0.0
        };

        let recommendation = if metrics.input_tuples < self.thresholds.min_samples {
            Recommendation::Undecided
        } else {
            let greedy: Vec<usize> = selectivity
                .iter()
                .filter(|s| s.is_greedy_consumer(self.thresholds.greedy_consumer_rate))
                .map(|s| s.filter)
                .collect();
            if !greedy.is_empty() && greedy.len() < selectivity.len() {
                Recommendation::IsolateFilters { filters: greedy }
            } else if benefit < self.thresholds.min_benefit {
                Recommendation::DisableGroupAwareness {
                    measured_benefit: benefit,
                }
            } else {
                Recommendation::KeepGroupAware
            }
        };
        BenefitReport {
            samples: metrics.input_tuples,
            selectivity,
            estimated_si_outputs: estimated_si,
            actual_outputs: metrics.output_tuples,
            benefit,
            recommendation,
        }
    }
}

impl Default for BenefitMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FilterMetrics;

    fn metrics(input: u64, outputs: u64, refs: &[u64], admitted: &[u64]) -> EngineMetrics {
        EngineMetrics {
            input_tuples: input,
            output_tuples: outputs,
            per_filter: refs
                .iter()
                .zip(admitted)
                .map(|(&r, &a)| FilterMetrics {
                    references: r,
                    admitted: a,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn undecided_until_enough_samples() {
        let m = metrics(50, 10, &[20, 20], &[30, 30]);
        let report = BenefitMonitor::new().assess(&m);
        assert_eq!(report.recommendation, Recommendation::Undecided);
        assert_eq!(report.samples, 50);
    }

    #[test]
    fn healthy_group_keeps_awareness() {
        // two filters with 200 refs each, union estimate ~340, actual 200
        let m = metrics(1000, 200, &[200, 200], &[400, 400]);
        let report = BenefitMonitor::new().assess(&m);
        assert!(report.benefit > 0.3, "benefit {}", report.benefit);
        assert_eq!(report.recommendation, Recommendation::KeepGroupAware);
    }

    #[test]
    fn marginal_benefit_disables_group_awareness() {
        // actual output ≈ SI estimate: nothing gained
        let m = metrics(1000, 335, &[200, 200], &[210, 210]);
        let report = BenefitMonitor::new().assess(&m);
        assert!(matches!(
            report.recommendation,
            Recommendation::DisableGroupAwareness { .. }
        ));
    }

    #[test]
    fn greedy_consumer_gets_isolated() {
        // filter 1 references 80% of the source
        let m = metrics(1000, 500, &[100, 800], &[150, 950]);
        let report = BenefitMonitor::new().assess(&m);
        assert_eq!(
            report.recommendation,
            Recommendation::IsolateFilters { filters: vec![1] }
        );
        assert!(report.selectivity[1].is_greedy_consumer(0.6));
        assert!(!report.selectivity[0].is_greedy_consumer(0.6));
    }

    #[test]
    fn all_greedy_consumers_means_disable_not_isolate() {
        let m = metrics(1000, 900, &[800, 820], &[900, 950]);
        let report = BenefitMonitor::new().assess(&m);
        // isolating everyone is meaningless; falls through to benefit check
        assert!(matches!(
            report.recommendation,
            Recommendation::DisableGroupAwareness { .. } | Recommendation::KeepGroupAware
        ));
    }

    #[test]
    fn union_estimate_bounds() {
        let m = metrics(1000, 100, &[100, 100], &[0, 0]);
        let low = BenefitMonitor::new().union_overlap(0.0).assess(&m);
        let high = BenefitMonitor::new().union_overlap(1.0).assess(&m);
        assert_eq!(low.estimated_si_outputs, 100.0);
        assert_eq!(high.estimated_si_outputs, 200.0);
        assert!(low.benefit <= high.benefit);
    }

    #[test]
    fn live_engine_assessment() {
        // End-to-end: run an engine, assess, expect a sane report.
        use crate::prelude::*;
        let schema = Schema::new(["t"]);
        let mut b = TupleBuilder::new(&schema);
        let tuples: Vec<Tuple> = (0..500)
            .map(|i| {
                let v = (i as f64 * 0.3).sin() * 20.0 + i as f64 * 0.01;
                b.at_millis(10 * (i + 1)).set("t", v).build().unwrap()
            })
            .collect();
        let mut engine = GroupEngine::builder(schema)
            .filter(FilterSpec::delta("t", 8.0, 4.0))
            .filter(FilterSpec::delta("t", 12.0, 6.0))
            .build()
            .unwrap();
        engine.run_into(tuples, &mut VecSink::new()).unwrap();
        let report = BenefitMonitor::new().assess(engine.metrics());
        assert_eq!(report.samples, 500);
        assert!(report.actual_outputs > 0);
        assert!(report.estimated_si_outputs >= report.actual_outputs as f64 * 0.5);
        assert!(!matches!(report.recommendation, Recommendation::Undecided));
    }
}
