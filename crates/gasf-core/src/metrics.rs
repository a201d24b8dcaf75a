//! Metrics: the paper's evaluation quantities (§4.4).
//!
//! * **O/I ratio** — total distinct output tuples over input tuples; lower
//!   is better (bandwidth).
//! * **CPU cost per tuple** — filtering wall-clock time per input tuple.
//! * **Latency per tuple** — source-to-emission delay per output tuple.
//! * **% regions cut**, region sizes, per-filter compression counters.
//!
//! Distributions (latencies, region sizes) are kept as [`Histogram`]s:
//! fixed footprint at any stream length, mergeable, exact in count, sum
//! and max. [`BoxPlot`] reproduces the paper's box-plot summaries (min,
//! quartiles, median, max, 1.5·IQR outliers) from raw samples, which the
//! experiment harness takes from the emissions themselves.

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

/// Metrics accumulated by a [`GroupEngine`](crate::engine::GroupEngine)
/// over its whole life: every epoch adds into the same accumulator, so its
/// size is O(roster) at any stream length.
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
    /// Region sizes (candidate tuples with multiplicity), one sample per
    /// region.
    pub region_size: Histogram,
    /// Per-emission latency, microseconds (emission time − source
    /// timestamp), one sample per emission.
    pub latency_us: Histogram,
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
    /// counters and CPU add up, histograms merge, and the per-filter
    /// counters append (each route keeps its own filter-id space, so the
    /// combined vector is indexed by `(route, filter)` in route order).
    /// Note that `input_tuples` sums each engine's *view* of the stream —
    /// `G` routes over one stream count it `G` times, which keeps
    /// `oi_ratio`/`cpu_per_tuple` meaningful as per-engine means.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.input_tuples += other.input_tuples;
        self.output_tuples += other.output_tuples;
        self.emissions += other.emissions;
        self.recipient_labels += other.recipient_labels;
        self.disordered_emissions += other.disordered_emissions;
        self.regions += other.regions;
        self.regions_cut += other.regions_cut;
        self.region_size.merge(&other.region_size);
        self.latency_us.merge(&other.latency_us);
        self.cpu += other.cpu;
        self.greedy_cpu += other.greedy_cpu;
        self.per_filter.extend_from_slice(&other.per_filter);
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

    /// Mean latency per output tuple (exact, truncated to the
    /// microsecond).
    pub fn mean_latency(&self) -> Micros {
        let mean = self
            .latency_us
            .sum()
            .checked_div(u128::from(self.latency_us.count()));
        // A mean never exceeds the largest sample, which is a `u64`.
        Micros(mean.map_or(0, |m| m as u64))
    }

    /// Fraction of regions affected by cuts, in `[0, 1]`.
    pub fn cut_fraction(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.regions_cut as f64 / self.regions as f64
        }
    }

    /// Mean region size (candidate tuples, with multiplicity; exact).
    pub fn mean_region_size(&self) -> f64 {
        match self.region_size.count() {
            0 => 0.0,
            n => self.region_size.sum() as f64 / n as f64,
        }
    }
}

/// Bits of the sub-bucket index: values below `SUB` get exact unit
/// buckets, and every octave above is cut into `SUB` equal sub-buckets.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// The bucket holding `v`: `v` itself below `SUB`; above, the octave
/// (`ilog2(v) - SUB_BITS + 1`, counted from 1) times `SUB` plus the
/// `SUB_BITS` bits right after the leading one.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = v.ilog2() - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((u64::from(shift) + 1) * SUB + sub) as usize
}

/// The midpoint (rounded down) of the values bucket `i` holds.
fn midpoint(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let shift = i / SUB - 1;
    let lo = (SUB + i % SUB) << shift;
    lo + ((1u64 << shift) - 1) / 2
}

/// A fixed-footprint, mergeable log-linear histogram of `u64` samples.
///
/// Values below 32 land in exact unit buckets; above that every
/// power-of-two octave is cut into 32 equal sub-buckets, so a
/// [`quantile`](Self::quantile) — its bucket's midpoint — is within 1.6 %
/// of any value the bucket holds. `count`, `sum` and `max` are exact, so
/// means are exact too. The bucket counts live in a `Vec` grown only up
/// to the highest bucket touched (at most 1 920 counters for `u64::MAX`),
/// so an empty histogram allocates nothing, and two histograms of the
/// same samples compare equal however they were recorded or merged.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Samples per bucket, up to the highest non-empty one.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value — the same histogram as `n`
    /// calls to [`record`](Self::record); nothing for `n == 0`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.max = self.max.max(v);
    }

    /// Adds another histogram's samples into this one: the same histogram
    /// as recording both sample sets into one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every sample (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample (exact); zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank rule: the
    /// midpoint of the bucket holding that rank, capped at the exact max.
    /// Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return midpoint(i).min(self.max);
            }
        }
        self.max
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

    /// A histogram holding `samples`.
    fn hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn oi_ratio_and_means() {
        let m = EngineMetrics {
            input_tuples: 100,
            output_tuples: 35,
            latency_us: hist(&[10_000, 20_000, 30_001]),
            regions: 4,
            regions_cut: 1,
            region_size: hist(&[2, 4, 6, 9]),
            cpu: Duration::from_millis(50),
            ..Default::default()
        };
        assert!((m.oi_ratio() - 0.35).abs() < 1e-12);
        // exact to the unit, not to a bucket
        assert_eq!(m.mean_latency(), Micros(20_000));
        assert!((m.cut_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(m.mean_region_size(), 5.25);
        assert_eq!(m.cpu_per_tuple(), Duration::from_micros(500));
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
    fn merge_adds_counters_and_histograms_and_appends_per_filter() {
        let filters = |chosen: &[u64]| -> Vec<FilterMetrics> {
            (chosen.iter())
                .map(|&chosen| FilterMetrics {
                    chosen,
                    ..Default::default()
                })
                .collect()
        };
        let a = EngineMetrics {
            input_tuples: 10,
            latency_us: hist(&[5, 700]),
            per_filter: filters(&[1, 2]),
            ..Default::default()
        };
        let b = EngineMetrics {
            input_tuples: 5,
            latency_us: hist(&[90_000]),
            per_filter: filters(&[10, 20, 30]),
            ..Default::default()
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.input_tuples, 15);
        assert_eq!(merged.latency_us, hist(&[5, 700, 90_000]));
        assert_eq!(merged.per_filter, filters(&[1, 2, 10, 20, 30]));
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

    /// Exact nearest-rank quantile of a sorted sample.
    fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn latency_histogram_quantiles_are_within_two_percent_of_exact() {
        // Skewed over seven decades: x_k = floor(1.00013^k) + k mod 7.
        let mut sample: Vec<u64> = (0..120_000i32)
            .map(|k| 1.00013f64.powi(k) as u64 + (k % 7) as u64)
            .collect();
        let h = hist(&sample);
        sample.sort_unstable();
        assert!(sample[sample.len() - 1] > 5_000_000, "seven decades");
        for q in [0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let (got, want) = (h.quantile(q) as f64, nearest_rank(&sample, q) as f64);
            assert!(
                (got - want).abs() <= 0.02 * want,
                "q={q}: histogram {got} against exact {want}"
            );
        }
        assert_eq!(h.count(), sample.len() as u64);
        assert_eq!(h.max(), sample[sample.len() - 1]);
        assert_eq!(h.sum(), sample.iter().map(|&v| u128::from(v)).sum());
        assert_eq!(Histogram::default().quantile(0.99), 0);
    }

    #[test]
    fn small_values_are_exact_and_u64_max_fits() {
        let h = hist(&(0..SUB).collect::<Vec<_>>());
        for v in 0..SUB {
            let q = (v + 1) as f64 / SUB as f64;
            assert_eq!(h.quantile(q), v, "q={q}");
        }
        let h = hist(&[u64::MAX, u64::MAX, 3]);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX) + 3);
        let top = h.quantile(1.0);
        assert!(top as f64 >= u64::MAX as f64 * 0.98, "{top}");
    }

    #[test]
    fn latency_histogram_merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for k in 0..5_000u64 {
            let v = k * k * k + 3;
            let half = if k % 2 == 0 { &mut a } else { &mut b };
            half.record_n(v, 1 + k % 3);
            both.record_n(v, 1 + k % 3);
        }
        // the wider histogram merged into the narrower one, and back
        let mut ab = a.clone();
        ab.merge(&b);
        b.merge(&a);
        assert_eq!(ab, both);
        assert_eq!(b, both);
        let mut empty = Histogram::default();
        empty.merge(&Histogram::default());
        assert_eq!(empty, Histogram::default());
    }

    #[test]
    fn latency_histogram_record_n_is_n_records() {
        let (mut once, mut each) = (Histogram::default(), Histogram::default());
        for (v, n) in [(0u64, 3u64), (70, 1), (70, 0), (900, 5), (1 << 40, 2)] {
            once.record_n(v, n);
            for _ in 0..n {
                each.record(v);
            }
        }
        once.record_n(1_000_000_000, 0);
        assert_eq!(once, each);
        let mut nothing = Histogram::default();
        nothing.record_n(u64::MAX, 0);
        assert_eq!(nothing, Histogram::default());
        assert_eq!(nothing.max(), 0);
    }

    #[test]
    fn mean_and_std_dev() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.138).abs() < 0.01, "sd {sd}");
    }
}
