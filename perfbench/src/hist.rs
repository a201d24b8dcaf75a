//! A log-linear latency histogram: fixed footprint, mergeable, and
//! accurate to within 2% of the recorded value.
//!
//! `gasf_core::metrics::LatencyHistogram` is a 64-bucket log2 histogram
//! whose percentiles are bucket *upper edges* (up to 100% off), so the
//! benchmark keeps its own. Values below `SUB` land in exact unit
//! buckets; above that every power-of-two octave is cut into `SUB` equal
//! sub-buckets, and a quantile reports its bucket's midpoint — at most
//! `1 / (2 * SUB)` = 1.6% from any value the bucket holds.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves `SUB_BITS..64`, `SUB` buckets each, after the exact range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Midpoint of the value range bucket `i` covers.
fn midpoint(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let lo = (SUB + i % SUB) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.total += n;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0 < q <= 1`) by the nearest-rank rule, as the
    /// midpoint of the bucket holding that rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(i).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile of a sorted sample.
    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn quantiles_within_two_percent_of_exact() {
        // A skewed sample spanning seven decades: x_k = floor(1.00013^k) + k % 7.
        let mut sample: Vec<u64> = (0..120_000u32)
            .map(|k| 1.00013f64.powi(k as i32) as u64 + u64::from(k % 7))
            .collect();
        let mut h = Histogram::default();
        for &v in &sample {
            h.record_n(v, 1);
        }
        sample.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let (got, want) = (h.quantile(q), exact(&sample, q));
            assert!(
                (got - want).abs() <= 0.02 * want.max(1.0),
                "q={q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(h.max(), *sample.last().unwrap());
        assert_eq!(h.count(), sample.len() as u64);
    }

    #[test]
    fn small_values_are_exact_and_extremes_fit() {
        let mut h = Histogram::default();
        for v in 0..SUB {
            h.record_n(v, 1);
        }
        assert_eq!(h.quantile(0.5), (SUB / 2 - 1) as f64);
        h.record_n(u64::MAX, 1);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0) >= u64::MAX as f64 * 0.98);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for k in 0..5_000u64 {
            let v = k * k + 3;
            let half = if k % 2 == 0 { &mut a } else { &mut b };
            half.record_n(v, 1 + k % 3);
            both.record_n(v, 1 + k % 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }
}
