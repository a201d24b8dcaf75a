//! Helpers shared by the equivalence suites (each suite uses a subset).
#![allow(dead_code)]

use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, Emission};
use gasf_core::metrics::{EngineMetrics, FilterMetrics, Histogram};
use gasf_core::quality::FilterSpec;
use gasf_core::time::Micros;
use gasf_sources::Trace;

/// The oracle of a churned or checkpointed engine's lifetime metrics: the
/// metrics of the static engines that ran its segments, added up —
/// per-filter counters by filter id, which every segment keeps pinned.
pub fn fold_by_id(segments: &[&EngineMetrics]) -> EngineMetrics {
    let mut total = EngineMetrics::default();
    for &m in segments {
        let mut scalars = m.clone();
        let per_filter = std::mem::take(&mut scalars.per_filter);
        total.merge(&scalars);
        if total.per_filter.len() < per_filter.len() {
            total
                .per_filter
                .resize(per_filter.len(), FilterMetrics::default());
        }
        for (sum, f) in total.per_filter.iter_mut().zip(&per_filter) {
            sum.references += f.references;
            sum.chosen += f.chosen;
            sum.sets_closed += f.sets_closed;
            sum.sets_cut += f.sets_cut;
            sum.admitted += f.admitted;
            sum.dismissed += f.dismissed;
        }
    }
    total
}

/// A roster that exercises every compiled gate on a NAMOS trace:
/// overlapping deltas on one attribute (shared key class + cohort
/// cascade), a second attribute class, a trend, a multi-attr mean, both
/// samplers, and — off the region-greedy algorithm — a stateful delta.
pub fn wide_specs(trace: &Trace, algorithm: Algorithm) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let mut specs = vec![
        FilterSpec::delta("tmpr4", s * 2.0, s),
        FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
        FilterSpec::delta("tmpr4", s * 2.5, s * 1.2),
        FilterSpec::delta("tmpr2", s * 2.2, s * 0.9),
        FilterSpec::trend_delta("tmpr4", s * 90.0, s * 40.0),
        FilterSpec::multi_attr_delta(["tmpr2", "tmpr4"], s * 2.4, s * 1.1),
        FilterSpec::reservoir("fluoro", Micros::from_millis(70), 3),
        FilterSpec::stratified_sample("tmpr4", Micros::from_millis(110), s * 1.5, 60.0, 20.0),
    ];
    if algorithm != Algorithm::RegionGreedy {
        specs.push(FilterSpec::stateful_delta("tmpr4", s * 2.8, s * 1.3));
    }
    specs
}

/// [`wide_specs`] three times over at interleaved slots, with a filter
/// of its own after each round: every gate kind has twins (which the
/// compiled roster folds into one member under the region-greedy and
/// self-interested algorithms), with singletons in the slots between
/// them.
pub fn twin_specs(trace: &Trace, algorithm: Algorithm) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    let mut specs = Vec::new();
    for round in 0..3 {
        specs.extend(wide_specs(trace, algorithm));
        specs.push(FilterSpec::delta(
            "tmpr4",
            s * (3.3 + f64::from(round)),
            s * 0.8,
        ));
    }
    specs
}

/// What `copies` copies of a `width`-filter roster — copy `j` of filter
/// `f` in slot `f + j * width` — must emit, given what one copy emitted:
/// the same tuples at the same times, every label expanded to its twins.
pub fn expand_labels(one: &[Emission], width: usize, copies: usize) -> Vec<Emission> {
    (one.iter())
        .map(|e| Emission {
            recipients: (e.recipients.iter())
                .flat_map(|f| (0..copies).map(move |j| f.index() + j * width))
                .map(FilterId::from_index)
                .collect(),
            ..e.clone()
        })
        .collect()
}

/// The deterministic metrics of a run, in the shape twin folding must
/// preserve: region sizes by count and sum (a region of `copies` copies
/// counts every copy's candidates, so no bucket lines up), everything
/// else as recorded.
#[derive(Debug, PartialEq)]
pub struct TwinMetrics {
    tuples: (u64, u64, u64, u64),
    recipient_labels: u64,
    regions: (u64, u64),
    region_size: (u64, u128),
    latency_us: Histogram,
    per_filter: Vec<FilterMetrics>,
}

impl TwinMetrics {
    /// A run's metrics as they are.
    pub fn of(m: &EngineMetrics) -> TwinMetrics {
        TwinMetrics::expanded(m, 1)
    }

    /// What `copies` copies of the roster that recorded `m` must record
    /// (slots laid out as in [`expand_labels`]): `copies` times the labels
    /// and region-size sum, and every copy's per-filter counters equal
    /// to the one copy's.
    pub fn expanded(m: &EngineMetrics, copies: usize) -> TwinMetrics {
        let k = copies as u64;
        TwinMetrics {
            tuples: (
                m.input_tuples,
                m.output_tuples,
                m.emissions,
                m.disordered_emissions,
            ),
            recipient_labels: m.recipient_labels * k,
            regions: (m.regions, m.regions_cut),
            region_size: (m.region_size.count(), m.region_size.sum() * u128::from(k)),
            latency_us: m.latency_us.clone(),
            per_filter: (0..copies).flat_map(|_| m.per_filter.clone()).collect(),
        }
    }
}
