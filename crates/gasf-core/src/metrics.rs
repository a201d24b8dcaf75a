//! Metrics: the paper's evaluation quantities (§4.4).
//!
//! * **O/I ratio** — total distinct output tuples over input tuples; lower
//!   is better (bandwidth).
//! * **CPU cost per tuple** — filtering wall-clock time per input tuple.
//! * **Latency per tuple** — source-to-emission delay per output tuple.
//! * **% regions cut**, region sizes, per-filter compression counters.
//!
//! [`BoxPlot`] reproduces the paper's box-plot summaries (min, quartiles,
//! median, max, 1.5·IQR outliers).

use crate::time::Micros;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-filter counters.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterMetrics {
    /// Reference tuples identified (what SI would output).
    pub references: u64,
    /// Tuples chosen for this filter by the group decision.
    pub chosen: u64,
    /// Candidate sets closed.
    pub sets_closed: u64,
    /// Candidate sets closed by a timely cut.
    pub sets_cut: u64,
    /// Candidates admitted in total.
    pub admitted: u64,
    /// Candidates dismissed (tentative candidates dropped at reference).
    pub dismissed: u64,
}

impl FilterMetrics {
    /// Adds another set of counters for the *same* filter into this one
    /// (used by the per-epoch metrics fold).
    pub fn absorb(&mut self, other: &FilterMetrics) {
        self.references += other.references;
        self.chosen += other.chosen;
        self.sets_closed += other.sets_closed;
        self.sets_cut += other.sets_cut;
        self.admitted += other.admitted;
        self.dismissed += other.dismissed;
    }
}

/// Metrics accumulated by a [`GroupEngine`](crate::engine::GroupEngine) run.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Input tuples pushed.
    pub input_tuples: u64,
    /// Distinct tuples emitted (the union the paper's O/I ratio counts).
    pub output_tuples: u64,
    /// Emission records produced (a tuple re-emitted to late recipients
    /// under the per-candidate-set output strategy counts again here).
    pub emissions: u64,
    /// Total recipient labels across emissions (≥ `output_tuples`).
    pub recipient_labels: u64,
    /// Emissions released out of stream order (possible under the
    /// per-candidate-set output strategy, §3.4). Downstream operators can
    /// reorder using the engine's watermark "punctuations".
    pub disordered_emissions: u64,
    /// Regions solved.
    pub regions: u64,
    /// Regions containing at least one cut set.
    pub regions_cut: u64,
    /// Region sizes (candidate tuples with multiplicity).
    pub region_sizes: Vec<usize>,
    /// Per-output-tuple latency, microseconds (emission time − source
    /// timestamp).
    pub latencies_us: Vec<u64>,
    /// Total filtering CPU time (wall clock inside `push`/`finish`).
    pub cpu: Duration,
    /// CPU time spent in the greedy hitting-set solver alone.
    pub greedy_cpu: Duration,
    /// Per-filter counters, indexed by filter id.
    pub per_filter: Vec<FilterMetrics>,
}

impl EngineMetrics {
    /// Accumulates another engine's metrics into this one, field-wise.
    ///
    /// This is how the sharded execution path aggregates across routes:
    /// counters and CPU add up, sample vectors concatenate, and the
    /// per-filter counters append (each route keeps its own filter-id
    /// space, so the combined vector is indexed by `(route, filter)` in
    /// route order). Note that `input_tuples` sums each engine's *view* of
    /// the stream — `G` routes over one stream count it `G` times, which
    /// keeps `oi_ratio`/`cpu_per_tuple` meaningful as per-engine means.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.accumulate_scalars(other);
        self.per_filter.extend_from_slice(&other.per_filter);
    }

    /// Accumulates another *epoch of the same engine* into this one.
    ///
    /// Counters, samples and CPU add up exactly like
    /// [`merge`](Self::merge), but `per_filter` is added element-wise by
    /// filter id instead of appended: epochs of one engine share a stable
    /// [`FilterId`](crate::candidate::FilterId) space, so slot `i` is
    /// filter `i` in every epoch (vacant slots contribute zeros and the
    /// vector grows to the larger id space). This is how
    /// `GroupEngine::lifetime_metrics` folds the per-epoch archive.
    pub fn absorb(&mut self, other: &EngineMetrics) {
        self.accumulate_scalars(other);
        if self.per_filter.len() < other.per_filter.len() {
            self.per_filter
                .resize(other.per_filter.len(), FilterMetrics::default());
        }
        for (dst, src) in self.per_filter.iter_mut().zip(&other.per_filter) {
            dst.absorb(src);
        }
    }

    fn accumulate_scalars(&mut self, other: &EngineMetrics) {
        self.input_tuples += other.input_tuples;
        self.output_tuples += other.output_tuples;
        self.emissions += other.emissions;
        self.recipient_labels += other.recipient_labels;
        self.disordered_emissions += other.disordered_emissions;
        self.regions += other.regions;
        self.regions_cut += other.regions_cut;
        self.region_sizes.extend_from_slice(&other.region_sizes);
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.cpu += other.cpu;
        self.greedy_cpu += other.greedy_cpu;
    }

    /// Output/input ratio (§4.4); `NaN` when no input was processed.
    pub fn oi_ratio(&self) -> f64 {
        self.output_tuples as f64 / self.input_tuples as f64
    }

    /// Mean CPU cost per input tuple.
    pub fn cpu_per_tuple(&self) -> Duration {
        if self.input_tuples == 0 {
            Duration::ZERO
        } else {
            self.cpu / self.input_tuples as u32
        }
    }

    /// Mean latency per output tuple.
    pub fn mean_latency(&self) -> Micros {
        if self.latencies_us.is_empty() {
            Micros::ZERO
        } else {
            Micros(self.latencies_us.iter().sum::<u64>() / self.latencies_us.len() as u64)
        }
    }

    /// Fraction of regions affected by cuts, in `[0, 1]`.
    pub fn cut_fraction(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.regions_cut as f64 / self.regions as f64
        }
    }

    /// Mean region size (candidate tuples, with multiplicity).
    pub fn mean_region_size(&self) -> f64 {
        if self.region_sizes.is_empty() {
            0.0
        } else {
            self.region_sizes.iter().sum::<usize>() as f64 / self.region_sizes.len() as f64
        }
    }

    /// Latency samples in milliseconds (for box plots).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies_us
            .iter()
            .map(|&u| u as f64 / 1000.0)
            .collect()
    }
}

/// A fixed-footprint log₂-bucketed latency histogram (microseconds).
///
/// Per-sample `Vec` accounting is fine at benchmark scale but not at
/// soak scale — 10⁶ subscribers × many deliveries would spend gigabytes
/// on samples nobody reads individually. This histogram spends 64
/// counters total: bucket `b` covers latencies with `ilog2 == b`
/// (bucket 0 is `{0, 1}` µs), so quantile estimates carry at most a
/// factor-of-two error — ample for p50/p99 soak reporting, and
/// completely deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// `buckets[b]` counts samples with `ilog2(max(us, 1)) == b`.
    buckets: [u64; 64],
    /// Total samples recorded.
    count: u64,
    /// Sum of all samples (exact mean).
    sum_us: u64,
    /// Largest sample seen (exact max).
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Micros) {
        self.record_n(latency, 1);
    }

    /// Records `n` samples of the same latency — the same histogram as
    /// `n` calls to [`record`](Self::record); nothing for `n == 0`.
    pub fn record_n(&mut self, latency: Micros, n: u64) {
        if n == 0 {
            return;
        }
        let us = latency.as_micros();
        self.buckets[us.max(1).ilog2() as usize] += n;
        self.count += n;
        self.sum_us += us * n;
        self.max_us = self.max_us.max(us);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean latency (zero when empty).
    pub fn mean(&self) -> Micros {
        Micros(self.sum_us.checked_div(self.count).unwrap_or(0))
    }

    /// Exact maximum latency.
    pub fn max(&self) -> Micros {
        Micros(self.max_us)
    }

    /// Estimated percentile (`pct` in `[0, 100]`): the upper edge of the
    /// bucket containing the rank, clamped to the exact max. Zero when
    /// empty.
    pub fn percentile(&self, pct: f64) -> Micros {
        if self.count == 0 {
            return Micros::ZERO;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if b >= 63 { u64::MAX } else { (2u64 << b) - 1 };
                return Micros(upper.min(self.max_us));
            }
        }
        Micros(self.max_us)
    }

    /// Adds another histogram's counts into this one.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Five-number summary with 1.5·IQR outliers — the paper's box plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// Minimum non-outlier value.
    pub min: f64,
    /// 25 % quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75 % quartile.
    pub q3: f64,
    /// Maximum non-outlier value.
    pub max: f64,
    /// Values below `q1 - 1.5·IQR` or above `q3 + 1.5·IQR`.
    pub outliers: Vec<f64>,
}

impl BoxPlot {
    /// Computes a box plot from samples.
    ///
    /// Returns `None` for an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Option<BoxPlot> {
        if samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q1 = percentile_sorted(&v, 25.0);
        let median = percentile_sorted(&v, 50.0);
        let q3 = percentile_sorted(&v, 75.0);
        let iqr = q3 - q1;
        let lo = q1 - 1.5 * iqr;
        let hi = q3 + 1.5 * iqr;
        let outliers: Vec<f64> = v.iter().copied().filter(|&x| x < lo || x > hi).collect();
        let inliers: Vec<f64> = v.iter().copied().filter(|&x| x >= lo && x <= hi).collect();
        let (min, max) = if inliers.is_empty() {
            (v[0], v[v.len() - 1])
        } else {
            (inliers[0], inliers[inliers.len() - 1])
        };
        Some(BoxPlot {
            min,
            q1,
            median,
            q3,
            max,
            outliers,
        })
    }
}

/// Linear-interpolated percentile over a **sorted** slice.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = (pct / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Mean of a sample set (`NaN` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (`0` for fewer than two samples).
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oi_ratio_and_means() {
        let m = EngineMetrics {
            input_tuples: 100,
            output_tuples: 35,
            latencies_us: vec![10_000, 20_000, 30_000],
            regions: 4,
            regions_cut: 1,
            region_sizes: vec![2, 4, 6, 8],
            cpu: Duration::from_millis(50),
            ..Default::default()
        };
        assert!((m.oi_ratio() - 0.35).abs() < 1e-12);
        assert_eq!(m.mean_latency(), Micros(20_000));
        assert!((m.cut_fraction() - 0.25).abs() < 1e-12);
        assert!((m.mean_region_size() - 5.0).abs() < 1e-12);
        assert_eq!(m.cpu_per_tuple(), Duration::from_micros(500));
        assert_eq!(m.latencies_ms(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = EngineMetrics::default();
        assert_eq!(m.mean_latency(), Micros::ZERO);
        assert_eq!(m.cut_fraction(), 0.0);
        assert_eq!(m.mean_region_size(), 0.0);
        assert_eq!(m.cpu_per_tuple(), Duration::ZERO);
        assert!(m.oi_ratio().is_nan());
    }

    #[test]
    fn absorb_aligns_per_filter_by_id_while_merge_appends() {
        let a = EngineMetrics {
            input_tuples: 10,
            per_filter: vec![
                FilterMetrics {
                    chosen: 1,
                    ..Default::default()
                },
                FilterMetrics {
                    chosen: 2,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let b = EngineMetrics {
            input_tuples: 5,
            per_filter: vec![
                FilterMetrics {
                    chosen: 10,
                    ..Default::default()
                },
                FilterMetrics {
                    chosen: 20,
                    ..Default::default()
                },
                FilterMetrics {
                    chosen: 30,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.input_tuples, 15);
        assert_eq!(merged.per_filter.len(), 5, "merge concatenates");

        let mut folded = a.clone();
        folded.absorb(&b);
        assert_eq!(folded.input_tuples, 15);
        assert_eq!(folded.per_filter.len(), 3, "absorb aligns by id");
        let chosen: Vec<u64> = folded.per_filter.iter().map(|f| f.chosen).collect();
        assert_eq!(chosen, vec![11, 22, 30]);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 4.0);
        assert_eq!(percentile_sorted(&v, 50.0), 2.5);
        assert_eq!(percentile_sorted(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn box_plot_basic() {
        let samples: Vec<f64> = (1..=11).map(|x| x as f64).collect();
        let b = BoxPlot::from_samples(&samples).unwrap();
        assert_eq!(b.median, 6.0);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 11.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn box_plot_flags_outliers() {
        let mut samples: Vec<f64> = (1..=11).map(|x| x as f64).collect();
        samples.push(100.0);
        let b = BoxPlot::from_samples(&samples).unwrap();
        assert_eq!(b.outliers, vec![100.0]);
        assert!(b.max < 100.0);
    }

    #[test]
    fn box_plot_empty_and_nan() {
        assert!(BoxPlot::from_samples(&[]).is_none());
        assert!(BoxPlot::from_samples(&[f64::NAN]).is_none());
        let b = BoxPlot::from_samples(&[f64::NAN, 2.0]).unwrap();
        assert_eq!(b.median, 2.0);
    }

    #[test]
    fn latency_histogram_percentiles_bound_samples() {
        let mut h = LatencyHistogram::new();
        for us in [0u64, 1, 2, 3, 100, 1000, 1001, 5000, 100_000, 1_000_000] {
            h.record(Micros(us));
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), Micros(1_000_000));
        assert_eq!(h.mean(), Micros(1_107_107 / 10));
        // p100 is the exact max; estimates never exceed it
        assert_eq!(h.percentile(100.0), Micros(1_000_000));
        // p50 falls in the bucket holding the 5th sample (100µs → [64,127])
        let p50 = h.percentile(50.0).as_micros();
        assert!((100..=127).contains(&p50), "p50 {p50}");
        // within a factor of two of the true percentile, always above it
        let p90 = h.percentile(90.0).as_micros();
        assert!((100_000..=200_000).contains(&p90), "p90 {p90}");
        assert_eq!(LatencyHistogram::new().percentile(99.0), Micros::ZERO);
        assert_eq!(LatencyHistogram::new().mean(), Micros::ZERO);
    }

    #[test]
    fn latency_histogram_absorb_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Micros(10));
        b.record(Micros(1000));
        b.record(Micros(7));
        a.absorb(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Micros(1000));
        assert_eq!(a.mean(), Micros(1017 / 3));
    }

    #[test]
    fn latency_histogram_record_n_is_n_records() {
        let (mut once, mut each) = (LatencyHistogram::new(), LatencyHistogram::new());
        for (us, n) in [(0u64, 3u64), (70, 1), (70, 0), (900, 5)] {
            once.record_n(Micros(us), n);
            for _ in 0..n {
                each.record(Micros(us));
            }
        }
        once.record_n(Micros(1_000_000), 0);
        assert_eq!(once, each);
    }

    #[test]
    fn mean_and_std_dev() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.138).abs() < 0.01, "sd {sd}");
    }
}
