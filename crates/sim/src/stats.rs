//! Online statistics used by telemetry and the figure harness.
//!
//! All accumulators are single-pass and O(1) per observation so they can be
//! updated on every simulated request without perturbing performance:
//!
//! * [`OnlineStats`] — Welford mean/variance with min/max.
//! * [`P2Quantile`] — the P² streaming quantile estimator (Jain & Chlamtac),
//!   used for response-time percentiles without storing samples.
//! * [`Histogram`] — fixed-width binning for distribution dumps.

/// Welford single-pass mean/variance accumulator with min/max tracking.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored (and debug-panic),
    /// so a single pathological sample cannot poison a whole run's telemetry.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation (std dev / |mean|); 0 for empty or zero-mean.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// P² streaming quantile estimator for a single quantile `q`.
///
/// Keeps five markers; after five initial samples the estimate tracks the
/// target quantile with O(1) space. Accuracy is adequate for reporting
/// p50/p95/p99 response times in the figure harness.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based sample indices).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments.
    increments: [f64; 5],
    n: usize,
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            n: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(|a, b| a.partial_cmp(b).unwrap());
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Find cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust interior markers with the piecewise-parabolic formula.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let parabolic = self.heights[i]
                    + s / (self.positions[i + 1] - self.positions[i - 1])
                        * ((self.positions[i] - self.positions[i - 1] + s)
                            * (self.heights[i + 1] - self.heights[i])
                            / right
                            + (self.positions[i + 1] - self.positions[i] - s)
                                * (self.heights[i] - self.heights[i - 1])
                                / (-left));
                let new_height =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        // Linear fallback.
                        let j = if s > 0.0 { i + 1 } else { i - 1 };
                        self.heights[i]
                            + s * (self.heights[j] - self.heights[i])
                                / (self.positions[j] - self.positions[i])
                    };
                self.heights[i] = new_height;
                self.positions[i] += s;
            }
        }
    }

    /// Current estimate of the target quantile. With fewer than five samples
    /// falls back to the empirical quantile of what has been seen.
    pub fn estimate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if self.initial.len() < 5 {
            let mut xs = self.initial.clone();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((xs.len() as f64 - 1.0) * self.q).round() as usize;
            return xs[idx];
        }
        self.heights[2]
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.n
    }
}

/// Fixed-width histogram over `[lo, hi)` with saturating under/overflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width cells spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// In-range bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(bin_center, count)` pairs for reporting.
    pub fn centers(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, c)| (self.lo + w * (i as f64 + 0.5), *c))
    }

    /// Empirical quantile from the binned data (approximate; in-range only).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        let in_range: u64 = self.bins.iter().sum();
        if in_range == 0 {
            return self.lo;
        }
        let target = (q * in_range as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.lo + w * (i as f64 + 0.5);
            }
        }
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.is_empty());
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn online_stats_single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut rng = SimRng::new(77);
        let xs: Vec<f64> = (0..1000).map(|_| rng.normal(10.0, 3.0)).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..400] {
            a.push(x);
        }
        for &x in &xs[400..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn p2_tracks_median_of_uniform() {
        let mut rng = SimRng::new(21);
        let mut est = P2Quantile::new(0.5);
        for _ in 0..50_000 {
            est.push(rng.uniform(0.0, 100.0));
        }
        let e = est.estimate();
        assert!((e - 50.0).abs() < 2.0, "median estimate {e}");
    }

    #[test]
    fn p2_tracks_p95_of_exponential() {
        let mut rng = SimRng::new(22);
        let mut est = P2Quantile::new(0.95);
        for _ in 0..100_000 {
            est.push(rng.exponential(1.0));
        }
        // True p95 of Exp(1) is ln(20) = 2.9957.
        let e = est.estimate();
        assert!((e - 2.9957).abs() < 0.25, "p95 estimate {e}");
    }

    #[test]
    fn p2_small_samples_fall_back_to_empirical() {
        let mut est = P2Quantile::new(0.5);
        est.push(10.0);
        est.push(30.0);
        est.push(20.0);
        let e = est.estimate();
        assert_eq!(e, 20.0);
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn histogram_bins_and_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.push(i as f64 / 10.0); // 0.0 .. 9.9 uniformly
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert!(h.bins().iter().all(|&c| c == 10));
        let median = h.quantile(0.5);
        assert!((median - 4.5).abs() <= 1.0, "median {median}");
    }

    #[test]
    fn histogram_under_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(2.0);
        h.push(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_centers_are_midpoints() {
        let h = Histogram::new(0.0, 4.0, 4);
        let centers: Vec<f64> = h.centers().map(|(c, _)| c).collect();
        assert_eq!(centers, vec![0.5, 1.5, 2.5, 3.5]);
    }
}
