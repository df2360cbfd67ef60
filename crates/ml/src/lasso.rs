//! Lasso: L1-regularised linear regression by cyclic coordinate descent.
//!
//! F2PM uses Lasso twice (paper Sec. III): to **select the most relevant
//! system features** — "this selection allows to reduce the amount of
//! information to be managed when the system is operational" — and as a
//! predictor in its own right. Coordinate descent with soft thresholding is
//! the standard solver (Friedman et al.); on standardised columns each
//! update is a closed-form shrinkage.

use crate::dataset::Dataset;
use crate::linalg::dot;
use crate::scaler::StandardScaler;

/// Convergence tolerance on the max coordinate change (standardised scale).
const TOL: f64 = 1e-7;
/// Hard cap on coordinate-descent sweeps.
const MAX_SWEEPS: usize = 10_000;

/// A trained Lasso model.
#[derive(Debug, Clone, PartialEq)]
pub struct LassoRegression {
    /// Weights in the original feature space.
    weights: Vec<f64>,
    intercept: f64,
    /// Weights on the standardised scale (used for feature selection —
    /// comparable across features).
    std_weights: Vec<f64>,
    alpha: f64,
    sweeps: usize,
}

impl LassoRegression {
    /// Fits with L1 strength `alpha` (standardised scale).
    pub fn fit(ds: &Dataset, alpha: f64) -> Self {
        assert!(!ds.is_empty(), "cannot fit on empty dataset");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let n = ds.len();
        let p = ds.width();
        let scaler = StandardScaler::fit(ds.rows());
        let xs = scaler.transform(ds.rows());
        let y_mean = ds.target_mean();
        let yc: Vec<f64> = ds.targets().iter().map(|y| y - y_mean).collect();

        // Column-major copy: coordinate descent walks columns.
        let mut cols = vec![vec![0.0; n]; p];
        for (i, row) in xs.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                cols[j][i] = *v;
            }
        }
        // Column squared norms (≈ n after standardisation, but constant
        // columns map to all-zero and need the exact value).
        let col_sq: Vec<f64> = cols.iter().map(|c| dot(c, c)).collect();

        let mut w = vec![0.0; p];
        let mut residual = yc.clone(); // residual = y - Xw
        let mut sweeps = 0;
        for sweep in 0..MAX_SWEEPS {
            sweeps = sweep + 1;
            let mut max_delta: f64 = 0.0;
            for j in 0..p {
                if col_sq[j] == 0.0 {
                    continue;
                }
                let col = &cols[j];
                // rho = x_j · (residual + w_j x_j)
                let rho = dot(col, &residual) + w[j] * col_sq[j];
                let new_w = soft_threshold(rho, alpha * n as f64) / col_sq[j];
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for (r, x) in residual.iter_mut().zip(col) {
                        *r -= delta * x;
                    }
                    w[j] = new_w;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < TOL {
                break;
            }
        }

        let weights: Vec<f64> = w.iter().zip(scaler.stds()).map(|(w, s)| w / s).collect();
        let intercept = y_mean - dot(&weights, scaler.means());
        LassoRegression {
            weights,
            intercept,
            std_weights: w,
            alpha,
            sweeps,
        }
    }

    /// A reasonable default regularisation strength: 1 % of the smallest
    /// alpha that zeroes every coefficient (`alpha_max = max_j |x_jᵀy| / n`).
    pub fn default_alpha(ds: &Dataset) -> f64 {
        Self::alpha_max(ds) * 0.01
    }

    /// The smallest alpha at which the Lasso solution is identically zero.
    pub fn alpha_max(ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        let scaler = StandardScaler::fit(ds.rows());
        let xs = scaler.transform(ds.rows());
        let y_mean = ds.target_mean();
        let n = ds.len() as f64;
        let mut best: f64 = 0.0;
        for j in 0..ds.width() {
            let corr: f64 = xs
                .iter()
                .zip(ds.targets())
                .map(|(row, y)| row[j] * (y - y_mean))
                .sum();
            best = best.max(corr.abs() / n);
        }
        best
    }

    /// Weights in original feature units.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weights on the standardised scale (magnitude-comparable across
    /// features).
    pub fn std_weights(&self) -> &[f64] {
        &self.std_weights
    }

    /// Intercept in target units.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// L1 strength used at fit time.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Coordinate-descent sweeps performed.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Indices of features whose standardised weight magnitude exceeds
    /// `threshold` — the Lasso feature-selection output F2PM feeds to the
    /// runtime monitors.
    pub fn selected_features(&self, threshold: f64) -> Vec<usize> {
        self.std_weights
            .iter()
            .enumerate()
            .filter(|(_, w)| w.abs() > threshold)
            .map(|(j, _)| j)
            .collect()
    }

    /// Predicts one row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.intercept
    }
}

impl crate::model::Regressor for LassoRegression {
    fn predict_one(&self, x: &[f64]) -> f64 {
        LassoRegression::predict_one(self, x)
    }
    fn name(&self) -> &'static str {
        "lasso"
    }
}

/// Soft-thresholding operator `S(z, g) = sign(z)·max(|z| − g, 0)`.
fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use acm_sim::rng::SimRng;

    /// y depends on features 0 and 2 only; 1 and 3 are noise.
    fn sparse_ds(seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["signal_a", "noise_a", "signal_b", "noise_b"]);
        for _ in 0..400 {
            let s1 = rng.uniform(-1.0, 1.0);
            let n1 = rng.uniform(-1.0, 1.0);
            let s2 = rng.uniform(-1.0, 1.0);
            let n2 = rng.uniform(-1.0, 1.0);
            let y = 4.0 * s1 - 6.0 * s2 + rng.normal(0.0, 0.1);
            ds.push(vec![s1, n1, s2, n2], y);
        }
        ds
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.0, 2.0), 0.0);
        assert_eq!(soft_threshold(-1.0, 2.0), 0.0);
    }

    #[test]
    fn selects_the_true_support() {
        let ds = sparse_ds(1);
        let m = LassoRegression::fit(&ds, 0.05);
        let sel = m.selected_features(0.01);
        assert_eq!(sel, vec![0, 2], "std weights {:?}", m.std_weights());
    }

    #[test]
    fn zero_alpha_matches_ols() {
        let ds = sparse_ds(2);
        let lasso = LassoRegression::fit(&ds, 0.0);
        let ols = LinearRegression::fit(&ds);
        for (l, o) in lasso.weights().iter().zip(ols.weights()) {
            assert!((l - o).abs() < 1e-4, "{l} vs {o}");
        }
    }

    #[test]
    fn alpha_max_zeroes_everything() {
        let ds = sparse_ds(3);
        let amax = LassoRegression::alpha_max(&ds);
        let m = LassoRegression::fit(&ds, amax * 1.001);
        assert!(
            m.std_weights().iter().all(|w| w.abs() < 1e-9),
            "{:?}",
            m.std_weights()
        );
        // Predicts the target mean everywhere.
        let p = m.predict_one(ds.row(0));
        assert!((p - ds.target_mean()).abs() < 1e-6);
    }

    #[test]
    fn stronger_alpha_is_sparser() {
        let ds = sparse_ds(4);
        let weak = LassoRegression::fit(&ds, 0.001);
        let strong = LassoRegression::fit(&ds, 1.0);
        let nz = |m: &LassoRegression| m.std_weights().iter().filter(|w| w.abs() > 1e-9).count();
        assert!(nz(&strong) <= nz(&weak));
        assert!(nz(&strong) <= 2);
    }

    #[test]
    fn prediction_quality_on_sparse_problem() {
        let ds = sparse_ds(5);
        let m = LassoRegression::fit(&ds, LassoRegression::default_alpha(&ds));
        // y(1, *, -1, *) = 4 + 6 = 10.
        let p = m.predict_one(&[1.0, 0.0, -1.0, 0.0]);
        assert!((p - 10.0).abs() < 0.5, "{p}");
    }

    #[test]
    fn converges_quickly_on_orthogonal_design() {
        let ds = sparse_ds(6);
        let m = LassoRegression::fit(&ds, 0.01);
        assert!(m.sweeps() < 100, "took {} sweeps", m.sweeps());
    }

    #[test]
    fn constant_feature_gets_zero_weight() {
        let mut ds = Dataset::new(["x", "const"]);
        let mut rng = SimRng::new(7);
        for _ in 0..100 {
            let x = rng.uniform(0.0, 1.0);
            ds.push(vec![x, 3.0], 2.0 * x);
        }
        let m = LassoRegression::fit(&ds, 0.001);
        assert_eq!(m.std_weights()[1], 0.0);
        assert!((m.predict_one(&[0.5, 3.0]) - 1.0).abs() < 0.05);
    }
}
