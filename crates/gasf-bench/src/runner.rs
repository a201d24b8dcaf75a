//! Engine-run helpers shared by all experiments.

use gasf_core::cuts::TimeConstraint;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, OutputStrategy};
use gasf_core::metrics::EngineMetrics;
use gasf_core::quality::FilterSpec;
use gasf_core::sink::VecSink;
use gasf_core::time::Micros;
use gasf_sources::Trace;

/// The five algorithm variants of Fig. 4.2 (Table 4.2's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Region-based greedy.
    Rg,
    /// Region-based greedy with timely cuts.
    RgC,
    /// Per-candidate-set greedy.
    Ps,
    /// Per-candidate-set greedy with timely cuts.
    PsC,
    /// Self-interested baseline.
    Si,
}

impl Variant {
    /// All five, in the paper's plotting order.
    pub const ALL: [Variant; 5] = [
        Variant::Rg,
        Variant::RgC,
        Variant::Ps,
        Variant::PsC,
        Variant::Si,
    ];

    /// The paper's abbreviation.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Rg => "RG",
            Variant::RgC => "RG+C",
            Variant::Ps => "PS",
            Variant::PsC => "PS+C",
            Variant::Si => "SI",
        }
    }

    /// The engine algorithm for this variant.
    pub fn algorithm(self) -> Algorithm {
        match self {
            Variant::Rg | Variant::RgC => Algorithm::RegionGreedy,
            Variant::Ps | Variant::PsC => Algorithm::PerCandidateSet,
            Variant::Si => Algorithm::SelfInterested,
        }
    }

    /// Whether this variant enables cuts.
    pub fn cuts(self) -> bool {
        matches!(self, Variant::RgC | Variant::PsC)
    }
}

/// Everything an experiment needs from one engine run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final engine metrics.
    pub metrics: EngineMetrics,
    /// All emissions, in release order.
    pub emissions: Vec<Emission>,
}

impl RunOutcome {
    /// Distinct output tuples (the O/I numerator).
    pub fn distinct_outputs(&self) -> u64 {
        self.metrics.output_tuples
    }

    /// Distinct output-tuple count within a half-open seq window
    /// (per-batch output-ratio accounting of §5.4).
    pub fn distinct_outputs_in(&self, lo: u64, hi: u64) -> usize {
        let mut seqs: Vec<u64> = self
            .emissions
            .iter()
            .map(|e| e.tuple.seq())
            .filter(|&s| s >= lo && s < hi)
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        seqs.len()
    }
}

/// Builds one engine for an experiment configuration.
///
/// # Panics
/// Panics on construction failure — experiment configurations are static
/// and a failure is a harness bug.
pub fn build_engine(
    trace: &Trace,
    specs: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
    constraint: Option<TimeConstraint>,
) -> GroupEngine {
    let mut builder = GroupEngine::builder(trace.schema().clone())
        .algorithm(algorithm)
        .output_strategy(strategy)
        .filters(specs.to_vec());
    if let Some(c) = constraint {
        builder = builder.time_constraint(c);
    }
    builder.build().expect("experiment spec must be valid")
}

/// Runs one engine configuration over a trace on the sink path (tuples
/// stream straight from the trace, emissions stream into one reused
/// collector).
///
/// # Panics
/// Panics on engine construction/run failure — experiment configurations
/// are static and a failure is a harness bug.
pub fn run_engine(
    trace: &Trace,
    specs: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
    constraint: Option<TimeConstraint>,
) -> RunOutcome {
    let mut engine = build_engine(trace, specs, algorithm, strategy, constraint);
    let mut sink = VecSink::new();
    engine
        .run_into(trace.tuples().iter().cloned(), &mut sink)
        .expect("experiment trace must replay cleanly");
    RunOutcome {
        metrics: engine.into_metrics(),
        emissions: sink.into_vec(),
    }
}

/// Runs one of the five standard variants with a default cut constraint.
pub fn run_variant(
    trace: &Trace,
    specs: &[FilterSpec],
    variant: Variant,
    cut_constraint: Micros,
) -> RunOutcome {
    run_engine(
        trace,
        specs,
        variant.algorithm(),
        OutputStrategy::Earliest,
        variant
            .cuts()
            .then_some(TimeConstraint::max_delay(cut_constraint)),
    )
}

/// GA-output over SI-output ratio ("output ratio" of §4.7/§5.4);
/// `<= 1.0` by the never-worse-than-SI guarantee.
pub fn output_ratio(ga: &RunOutcome, si: &RunOutcome) -> f64 {
    if si.distinct_outputs() == 0 {
        return f64::NAN;
    }
    ga.distinct_outputs() as f64 / si.distinct_outputs() as f64
}

/// Per-batch output ratios (batches of `batch` input tuples), skipping
/// batches where SI produced nothing.
pub fn per_batch_output_ratios(ga: &RunOutcome, si: &RunOutcome, batch: u64) -> Vec<f64> {
    let n = ga.metrics.input_tuples.max(si.metrics.input_tuples);
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + batch).min(n);
        let s = si.distinct_outputs_in(lo, hi);
        if s > 0 {
            out.push(ga.distinct_outputs_in(lo, hi) as f64 / s as f64);
        }
        lo = hi;
    }
    out
}

/// The constant overlay-multicast latency added to reported per-tuple
/// latencies, as the paper does (§4.1.2 assumes end-to-end latency =
/// filtering delay + a constant overlay multicast cost; they measured
/// ~12 ms per tuple for SI, which is pure multicast).
pub const MULTICAST_CONSTANT: Micros = Micros(12_000);

/// Mean reported latency (filtering + multicast constant), milliseconds.
pub fn mean_latency_ms(outcome: &RunOutcome) -> f64 {
    outcome.metrics.mean_latency().as_millis_f64() + MULTICAST_CONSTANT.as_millis_f64()
}

/// Latency samples (filtering + multicast constant), milliseconds, one
/// per emission in release order — the raw samples the paper's box plots
/// need, taken from the emissions rather than kept by the engine.
pub fn latency_samples_ms(outcome: &RunOutcome) -> Vec<f64> {
    outcome
        .emissions
        .iter()
        .map(|e| e.latency().as_millis_f64() + MULTICAST_CONSTANT.as_millis_f64())
        .collect()
}

/// CPU cost per input tuple in microseconds.
pub fn cpu_per_tuple_us(outcome: &RunOutcome) -> f64 {
    if outcome.metrics.input_tuples == 0 {
        return 0.0;
    }
    outcome.metrics.cpu.as_secs_f64() * 1e6 / outcome.metrics.input_tuples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasf_sources::NamosBuoy;

    fn trace() -> Trace {
        NamosBuoy::new().tuples(400).seed(1).generate()
    }

    fn specs(trace: &Trace) -> Vec<FilterSpec> {
        let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
        vec![
            FilterSpec::delta("tmpr4", s * 2.0, s),
            FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
        ]
    }

    #[test]
    fn variants_cover_algorithms() {
        assert_eq!(Variant::ALL.len(), 5);
        assert_eq!(Variant::Rg.label(), "RG");
        assert!(Variant::PsC.cuts());
        assert!(!Variant::Ps.cuts());
        assert_eq!(Variant::Si.algorithm(), Algorithm::SelfInterested);
    }

    #[test]
    fn run_and_ratio() {
        let t = trace();
        let sp = specs(&t);
        let ga = run_variant(&t, &sp, Variant::Rg, Micros::from_millis(100));
        let si = run_variant(&t, &sp, Variant::Si, Micros::from_millis(100));
        assert_eq!(ga.metrics.input_tuples, 400);
        let r = output_ratio(&ga, &si);
        assert!(r > 0.0 && r <= 1.0, "ratio {r}");
        assert!(cpu_per_tuple_us(&ga) > 0.0);
        assert!(mean_latency_ms(&ga) >= 12.0);
        let samples = latency_samples_ms(&ga);
        assert_eq!(samples.len() as u64, ga.metrics.latency_us.count());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - mean_latency_ms(&ga)).abs() < 1e-3, "{mean}");
    }

    #[test]
    fn per_batch_ratios_bounded() {
        let t = trace();
        let sp = specs(&t);
        let ga = run_variant(&t, &sp, Variant::Ps, Micros::from_millis(100));
        let si = run_variant(&t, &sp, Variant::Si, Micros::from_millis(100));
        let ratios = per_batch_output_ratios(&ga, &si, 100);
        assert!(!ratios.is_empty());
        for r in ratios {
            assert!(r > 0.0 && r <= 2.0, "per-batch ratio {r}");
        }
    }

    #[test]
    fn distinct_outputs_in_window() {
        let t = trace();
        let sp = specs(&t);
        let ga = run_variant(&t, &sp, Variant::Rg, Micros::from_millis(100));
        let total: usize = ga.distinct_outputs_in(0, u64::MAX);
        assert_eq!(total as u64, ga.distinct_outputs());
    }
}
