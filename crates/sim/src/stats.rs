//! Statistics used by the evaluation harness.
//!
//! Fig. 5c of the paper is a latency histogram over thousands of frames with
//! a mean, hard extremes (1.73–2.27 ms) and an extreme-quantile statement
//! ("99.97 % of the cases the latency is below 1.9 ms"). [`StreamingStats`]
//! accumulates exact moments in one pass (Welford), [`Histogram`] bins for
//! the figure itself, and [`Quantiles`] computes exact order statistics from
//! retained samples.

use serde::{Deserialize, Serialize};

/// One-pass mean/variance/min/max accumulator (Welford's algorithm —
/// numerically stable for millions of samples).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−inf if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Fixed-width histogram over `[lo, hi)` with under/overflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// `n_bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or `n_bins == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(lo < hi, "empty histogram range");
        assert!(n_bins > 0, "zero bins");
        Self {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let f = (x - self.lo) / (self.hi - self.lo);
            let idx = ((f * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    #[must_use]
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `[start, end)` edges of bin `i`.
    #[must_use]
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Number of bins (excluding under/overflow).
    #[must_use]
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Observations below range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Fraction of all observations strictly below `x` (bin-resolution
    /// approximation; exact when `x` lies on a bin edge).
    #[must_use]
    pub fn fraction_below(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut below = self.underflow;
        for i in 0..self.bins.len() {
            let (start, end) = self.bin_edges(i);
            if end <= x {
                below += self.bins[i];
            } else if start < x {
                // Partial bin: assume uniform within the bin.
                let frac = (x - start) / (end - start);
                below += (self.bins[i] as f64 * frac).round() as u64;
            }
        }
        below as f64 / total as f64
    }

    /// Renders an ASCII bar chart (used by `repro fig5c`).
    #[must_use]
    pub fn render_ascii(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let max = self.bins.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for i in 0..self.bins.len() {
            let (s, e) = self.bin_edges(i);
            let n = self.bins[i];
            let bar = "#".repeat(((n as f64 / max as f64) * width as f64).round() as usize);
            let _ = writeln!(out, "[{s:9.3}, {e:9.3})  {n:>8}  {bar}");
        }
        out
    }
}

/// Exact order statistics over a retained sample set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds from samples (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if any sample is NaN.
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample in quantile input"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN checked above"));
        Self { sorted: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
    /// statistics (the common "type 7" estimator).
    ///
    /// # Panics
    /// Panics if empty or `q` outside `[0,1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty sample set");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        if i + 1 < n {
            self.sorted[i] * (1.0 - frac) + self.sorted[i + 1] * frac
        } else {
            self.sorted[n - 1]
        }
    }

    /// Fraction of samples strictly below `x` (exact empirical CDF).
    #[must_use]
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Minimum sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("nonempty")
    }

    /// Mean of the samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [1.0, 2.0, 3.0, 4.0, 100.0, -7.0];
        let mut s = StreamingStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-9);
        assert_eq!(s.min(), -7.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        let mut whole = StreamingStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            whole.push(x);
            if i < 37 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamingStats::new();
        a.push(5.0);
        let before = a.clone();
        a.merge(&StreamingStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = StreamingStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1, "bin {i}");
        }
        h.push(-1.0);
        h.push(10.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 12);
    }

    #[test]
    fn histogram_fraction_below() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.push((i % 10) as f64 + 0.001);
        }
        let f = h.fraction_below(5.0);
        assert!((f - 0.5).abs() < 0.01, "{f}");
    }

    #[test]
    fn histogram_edges() {
        let h = Histogram::new(1.0, 3.0, 4);
        assert_eq!(h.bin_edges(0), (1.0, 1.5));
        assert_eq!(h.bin_edges(3), (2.5, 3.0));
    }

    #[test]
    fn quantiles_exact_on_known_set() {
        let q = Quantiles::from_samples(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(1.0), 5.0);
        assert_eq!(q.quantile(0.5), 3.0);
        assert_eq!(q.quantile(0.25), 2.0);
        assert!((q.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let q = Quantiles::from_samples(vec![0.0, 10.0]);
        assert_eq!(q.quantile(0.5), 5.0);
        assert_eq!(q.quantile(0.9), 9.0);
    }

    #[test]
    fn fraction_below_cdf() {
        let q = Quantiles::from_samples((0..1000).map(f64::from).collect());
        assert_eq!(q.fraction_below(500.0), 0.5);
        assert_eq!(q.fraction_below(0.0), 0.0);
        assert_eq!(q.fraction_below(1e9), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn quantiles_reject_nan() {
        let _ = Quantiles::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    fn ascii_render_shape() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.push(0.5);
        h.push(1.5);
        h.push(1.6);
        let s = h.render_ascii(10);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
    }
}
