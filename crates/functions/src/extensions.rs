//! Extension functions from the paper's §5/§6 discussion: sketch queries
//! and augmented-vector statistics.

use automon_autodiff::{Scalar, ScalarFn};

/// Second-moment (F₂) query over an AMS sketch local vector
/// (paper §5: "AutoMon can monitor a linear sketch by defining `f` as
/// the query function and `x` as the sketched data structure").
///
/// `f(s) = (1/w) Σ_j s_j²` — a pure quadratic form with constant Hessian
/// `(2/w)·I`, so AutoMon automatically selects ADCD-E and the
/// deterministic ε-guarantee applies to the sketch estimate.
#[derive(Debug, Clone, Copy)]
pub struct F2FromSketch {
    width: usize,
}

impl F2FromSketch {
    /// Query over sketches of `width` counters.
    ///
    /// # Panics
    /// Panics when `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "F2FromSketch: zero width");
        Self { width }
    }
}

impl ScalarFn for F2FromSketch {
    fn dim(&self) -> usize {
        self.width
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let mut acc = S::from_f64(0.0);
        for &s in x {
            acc = acc + s * s;
        }
        acc * S::from_f64(1.0 / self.width as f64)
    }
}

/// Simple-regression slope from the augmented moment vector
/// `x = [mx, my, mxx, mxy]` (paper §6's function-rewriting direction;
/// the augmentation itself lives in `automon_data::regression`):
///
/// ```text
/// slope(x) = (mxy - mx·my) / (mxx - mx² + ridge)
/// ```
///
/// The ridge keeps the denominator bounded away from zero so the
/// function stays differentiable on the whole neighborhood the
/// eigenvalue search explores. Non-constant Hessian ⇒ ADCD-X.
#[derive(Debug, Clone, Copy)]
pub struct RegressionSlope {
    ridge: f64,
}

impl RegressionSlope {
    /// Slope with the given ridge regularizer.
    ///
    /// # Panics
    /// Panics when `ridge ≤ 0` (a positive ridge is what makes the
    /// function total).
    pub fn new(ridge: f64) -> Self {
        assert!(ridge > 0.0, "RegressionSlope: ridge must be positive");
        Self { ridge }
    }
}

impl Default for RegressionSlope {
    fn default() -> Self {
        Self::new(1e-2)
    }
}

impl ScalarFn for RegressionSlope {
    fn dim(&self) -> usize {
        4
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let (mx, my, mxx, mxy) = (x[0], x[1], x[2], x[3]);
        let cov = mxy - mx * my;
        // Variance can dip negative for off-manifold points in B; the
        // abs keeps the denominator positive everywhere, matching the
        // ridge's purpose.
        let var = (mxx - mx * mx).abs() + S::from_f64(self.ridge);
        cov / var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, DifferentiableFn};

    #[test]
    fn f2_query_matches_sketch_estimate() {
        let f = AutoDiffFn::new(F2FromSketch::new(4));
        // mean of squares of [1, -2, 3, 0] = 14/4.
        assert!((f.eval(&[1.0, -2.0, 3.0, 0.0]) - 3.5).abs() < 1e-12);
        assert!(f.has_constant_hessian());
        let h = f.hessian(&[0.3; 4]);
        assert!((h[(0, 0)] - 0.5).abs() < 1e-12);
        assert_eq!(h[(0, 1)], 0.0);
    }

    #[test]
    fn slope_recovers_linear_relation() {
        // Perfect relation y = 2x over x ∈ {-1, 0, 1}:
        // mx = 0, my = 0, mxx = 2/3, mxy = 4/3 → slope = 2 (ridge-damped).
        let f = AutoDiffFn::new(RegressionSlope::new(1e-6));
        let v = f.eval(&[0.0, 0.0, 2.0 / 3.0, 4.0 / 3.0]);
        assert!((v - 2.0).abs() < 1e-4, "slope {v}");
    }

    #[test]
    fn slope_is_differentiable_everywhere() {
        let f = AutoDiffFn::new(RegressionSlope::default());
        // Degenerate point: zero variance — ridge keeps it finite.
        let (v, g) = f.grad(&[1.0, 1.0, 1.0, 1.0]);
        assert!(v.is_finite());
        assert!(g.iter().all(|gi| gi.is_finite()));
        assert!(!f.has_constant_hessian());
    }
}

/// Frequency moment `F_k(x) = Σᵢ xᵢᵏ` over a (non-negative) frequency /
/// histogram vector — the Stream-PolyLog-style query family the paper's
/// §5 contrasts with universal sketches. For `k ≥ 1` and `x ≥ 0` the
/// function is convex, so AutoMon's deterministic guarantee applies
/// (`k = 2` additionally has a constant Hessian and gets ADCD-E).
#[derive(Debug, Clone, Copy)]
pub struct FrequencyMoment {
    d: usize,
    k: i32,
}

impl FrequencyMoment {
    /// `F_k` over `d`-dimensional frequency vectors.
    ///
    /// # Panics
    /// Panics when `d` is zero or `k < 1`.
    pub fn new(d: usize, k: i32) -> Self {
        assert!(d > 0, "FrequencyMoment: zero dimension");
        assert!(k >= 1, "FrequencyMoment: k must be ≥ 1");
        Self { d, k }
    }
}

impl ScalarFn for FrequencyMoment {
    fn dim(&self) -> usize {
        self.d
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let mut acc = S::from_f64(0.0);
        for &xi in x {
            acc = acc + xi.powi(self.k);
        }
        acc
    }

    fn lower_bounds(&self) -> Option<Vec<f64>> {
        Some(vec![0.0; self.d])
    }
}

#[cfg(test)]
mod moment_tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, DifferentiableFn};
    use automon_linalg::SymEigen;

    #[test]
    fn values_and_variants() {
        let f2 = AutoDiffFn::new(FrequencyMoment::new(3, 2));
        assert_eq!(f2.eval(&[1.0, 2.0, 3.0]), 14.0);
        assert!(f2.has_constant_hessian());
        let f3 = AutoDiffFn::new(FrequencyMoment::new(3, 3));
        assert_eq!(f3.eval(&[1.0, 2.0, 3.0]), 36.0);
        assert!(!f3.has_constant_hessian());
    }

    #[test]
    fn convex_on_nonnegative_orthant() {
        let f3 = AutoDiffFn::new(FrequencyMoment::new(3, 3));
        for x in [[0.1, 0.5, 2.0], [1.0, 1.0, 1.0], [0.0, 3.0, 0.2]] {
            let h = f3.hessian(&x);
            assert!(SymEigen::new(&h).lambda_min() >= -1e-9, "{x:?}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be ≥ 1")]
    fn zeroth_moment_rejected() {
        FrequencyMoment::new(2, 0);
    }
}

/// Cosine similarity `⟨u, v⟩ / (‖u‖·‖v‖ + ridge)` over packed vectors
/// `x = [u, v]` — a staple of the hand-crafted GM literature (the Convex
/// Bound paper monitors it); AutoMon handles it automatically via
/// ADCD-X.
#[derive(Debug, Clone, Copy)]
pub struct CosineSimilarity {
    d: usize,
    ridge: f64,
}

impl CosineSimilarity {
    /// Cosine similarity over `R^(d/2) × R^(d/2)` with a denominator
    /// ridge keeping the function total.
    ///
    /// # Panics
    /// Panics when `d` is odd/zero or `ridge ≤ 0`.
    pub fn new(d: usize, ridge: f64) -> Self {
        assert!(d > 0 && d.is_multiple_of(2), "CosineSimilarity: even dimension");
        assert!(ridge > 0.0, "CosineSimilarity: positive ridge required");
        Self { d, ridge }
    }
}

impl ScalarFn for CosineSimilarity {
    fn dim(&self) -> usize {
        self.d
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let half = self.d / 2;
        let (u, v) = x.split_at(half);
        let dot = automon_autodiff::ops::dot(u, v);
        let nu = automon_autodiff::ops::norm_sq(u).sqrt();
        let nv = automon_autodiff::ops::norm_sq(v).sqrt();
        dot / (nu * nv + S::from_f64(self.ridge))
    }
}

/// Pearson correlation from the augmented moment vector
/// `x = [mx, my, mxx, myy, mxy]` (the §6 rewriting direction applied to
/// another classic statistic):
///
/// ```text
/// ρ(x) = (mxy - mx·my) / √((mxx - mx² + ridge)(myy - my² + ridge))
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PearsonCorrelation {
    ridge: f64,
}

impl PearsonCorrelation {
    /// Correlation with the given variance ridge.
    ///
    /// # Panics
    /// Panics when `ridge ≤ 0`.
    pub fn new(ridge: f64) -> Self {
        assert!(ridge > 0.0, "PearsonCorrelation: positive ridge required");
        Self { ridge }
    }
}

impl Default for PearsonCorrelation {
    fn default() -> Self {
        Self::new(1e-2)
    }
}

impl ScalarFn for PearsonCorrelation {
    fn dim(&self) -> usize {
        5
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let (mx, my, mxx, myy, mxy) = (x[0], x[1], x[2], x[3], x[4]);
        let ridge = S::from_f64(self.ridge);
        let cov = mxy - mx * my;
        let vx = (mxx - mx * mx).abs() + ridge;
        let vy = (myy - my * my).abs() + ridge;
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod correlation_tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, DifferentiableFn};

    #[test]
    fn cosine_of_parallel_and_orthogonal_vectors() {
        let f = AutoDiffFn::new(CosineSimilarity::new(4, 1e-9));
        assert!((f.eval(&[1.0, 2.0, 2.0, 4.0]) - 1.0).abs() < 1e-6);
        assert!(f.eval(&[1.0, 0.0, 0.0, 1.0]).abs() < 1e-9);
        assert!((f.eval(&[1.0, 0.0, -1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert!(!f.has_constant_hessian());
    }

    #[test]
    fn cosine_gradient_matches_finite_difference() {
        let f = AutoDiffFn::new(CosineSimilarity::new(4, 1e-6));
        let x = [0.8, -0.3, 0.5, 0.9];
        let (_, g) = f.grad(&x);
        let fd = automon_autodiff::finite_diff::gradient(|y| f.eval(y), &x, 1e-6);
        for (a, b) in g.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn pearson_recovers_known_correlations() {
        let f = AutoDiffFn::new(PearsonCorrelation::new(1e-9));
        // Perfect positive: y = x over {-1, 0, 1}: mx=my=0, mxx=myy=mxy=2/3.
        let v = f.eval(&[0.0, 0.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]);
        assert!((v - 1.0).abs() < 1e-6, "ρ = {v}");
        // Perfect negative.
        let v = f.eval(&[0.0, 0.0, 2.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0]);
        assert!((v + 1.0).abs() < 1e-6);
        // Independence: mxy = mx·my.
        let v = f.eval(&[0.5, 0.2, 0.35, 0.14, 0.1]);
        assert!(v.abs() < 1e-6);
    }

    #[test]
    fn pearson_finite_at_degenerate_moments() {
        let f = AutoDiffFn::new(PearsonCorrelation::default());
        let (v, g) = f.grad(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert!(v.is_finite());
        assert!(g.iter().all(|gi| gi.is_finite()));
    }
}
