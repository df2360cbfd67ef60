//! Sample statistics and output digests.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILES: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of [`PERCENTILES`] that has at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Best (lowest) host time of each unit of a set that a run repeats.
///
/// The host shares its cores with other tenants: the same unit on the
/// same input runs up to ~25 % slower for stretches of seconds to
/// minutes, with the process still getting its full CPU time. The
/// fastest of several repetitions is the unit's cost with the least such
/// interference, which is what a change to the program can move.
#[derive(Debug, Clone)]
pub struct Best {
    ms: Vec<f64>,
}

impl Best {
    /// `units` slots, none measured yet.
    pub fn new(units: usize) -> Self {
        Best {
            ms: vec![f64::INFINITY; units],
        }
    }

    /// Records one repetition of unit `slot`.
    pub fn record(&mut self, slot: usize, ms: f64) {
        self.ms[slot] = self.ms[slot].min(ms);
    }

    /// Sum of the best times, ms.
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Median of the best times, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.ms)
    }
}

/// Timing summary of one unit of work: median and, where the sample
/// count allows it, the highest percentile with ten samples beyond it.
#[derive(Debug, Clone)]
pub struct Timings {
    sorted_ms: Vec<f64>,
}

impl Timings {
    /// Builds the summary from per-unit host times in milliseconds.
    pub fn new(mut ms: Vec<f64>) -> Self {
        ms.sort_by(f64::total_cmp);
        Timings { sorted_ms: ms }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// Median (nearest rank).
    pub fn p50(&self) -> f64 {
        percentile(&self.sorted_ms, 0.5)
    }

    /// The `p`-th percentile if it has at least ten samples beyond it.
    pub fn tail(&self, p: f64) -> Option<f64> {
        (samples_beyond(self.len(), p) >= 10).then(|| percentile(&self.sorted_ms, p))
    }

    /// The median, the highest qualifying tail percentile and the sample
    /// count, e.g. `p50=1.000ms p90=2.000ms(10 beyond) n=100`.
    pub fn describe(&self) -> String {
        let mut out = format!("p50={:.3}ms", self.p50());
        if let Some(p) = highest_percentile(self.len()).filter(|&p| p > 0.5) {
            out.push_str(&format!(
                " p{}={:.3}ms({} beyond)",
                p * 100.0,
                percentile(&self.sorted_ms, p),
                samples_beyond(self.len(), p)
            ));
        }
        out.push_str(&format!(" n={}", self.len()));
        out
    }
}

/// FNV-1a 64-bit digest of simulated outputs: equal digests mean a
/// host-time-only change left the simulation byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string and a separator (so `"ab","c"` ≠ `"a","bc"`).
    pub fn str(&mut self, s: &str) {
        self.update(s.as_bytes());
        self.update(&[0xff]);
    }

    /// Hex form.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(101, 0.9), 10);
    }

    #[test]
    fn tail_is_withheld_below_the_rule() {
        let t = Timings::new((1..=99).map(f64::from).collect());
        assert_eq!(t.p50(), 50.0);
        assert_eq!(t.tail(0.9), None);
        let t = Timings::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(t.tail(0.9), Some(90.0));
        assert_eq!(t.tail(0.99), None);
        assert!(t.describe().contains("p90=90.000ms(10 beyond)"));
    }

    #[test]
    fn best_keeps_each_units_fastest_repetition() {
        let mut b = Best::new(3);
        for (slot, ms) in [(0, 5.0), (1, 2.0), (2, 9.0), (0, 4.0), (1, 3.0), (2, 1.0)] {
            b.record(slot, ms);
        }
        assert_eq!(b.total_ms(), 7.0);
        assert_eq!(b.median_ms(), 2.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.str("ab");
        c.str("c");
        assert_eq!(a, c);
    }
}
