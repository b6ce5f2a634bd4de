//! Closed-form monitored functions from the evaluation.

use automon_autodiff::{Scalar, ScalarFn};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Inner product `f([u, v]) = ⟨u, v⟩` over a packed local vector of even
/// dimension `d` (paper §4.2).
///
/// Its Hessian is the constant block matrix `[[0, I], [I, 0]]`, so AutoMon
/// automatically selects ADCD-E — which the paper shows is equivalent to
/// the hand-crafted Convex Bound decomposition
/// `⟨u,v⟩ = ¼‖u+v‖² - ¼‖u-v‖²`.
#[derive(Debug, Clone, Copy)]
pub struct InnerProduct {
    d: usize,
}

impl InnerProduct {
    /// Inner product over `R^(d/2) × R^(d/2)`.
    ///
    /// # Panics
    /// Panics when `d` is odd or zero.
    pub fn new(d: usize) -> Self {
        assert!(d > 0 && d.is_multiple_of(2), "InnerProduct: dimension must be even");
        Self { d }
    }
}

impl ScalarFn for InnerProduct {
    fn dim(&self) -> usize {
        self.d
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let half = self.d / 2;
        let mut acc = S::from_f64(0.0);
        for i in 0..half {
            acc = acc + x[i] * x[half + i];
        }
        acc
    }
}

/// Quadratic form `f(x) = xᵀQx` with a fixed matrix `Q` (paper §4.2).
#[derive(Debug, Clone)]
pub struct QuadraticForm {
    /// Row-major `d × d` coefficients.
    q: Vec<f64>,
    d: usize,
}

impl QuadraticForm {
    /// Quadratic form with the given row-major `d × d` matrix.
    ///
    /// # Panics
    /// Panics when `q.len() != d * d`.
    pub fn new(d: usize, q: Vec<f64>) -> Self {
        assert_eq!(q.len(), d * d, "QuadraticForm: wrong matrix size");
        Self { q, d }
    }

    /// The paper's setup: entries drawn from a standard normal.
    pub fn random(d: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Box–Muller standard normals.
        let q = (0..d * d)
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        Self { q, d }
    }
}

impl ScalarFn for QuadraticForm {
    fn dim(&self) -> usize {
        self.d
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let mut acc = S::from_f64(0.0);
        for i in 0..self.d {
            for j in 0..self.d {
                let c = self.q[i * self.d + j];
                if c != 0.0 {
                    acc = acc + S::from_f64(c) * x[i] * x[j];
                }
            }
        }
        acc
    }
}

/// The §4.6 ablation function `f(x) = -x₁² + x₂²`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaddleQuadratic;

impl ScalarFn for SaddleQuadratic {
    fn dim(&self) -> usize {
        2
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        -x[0] * x[0] + x[1] * x[1]
    }
}

/// The Rozenbrock function `f(x) = (1 - x₁)² + 100(x₂ - x₁²)²`
/// (paper §3.6 / §4.5; the paper's spelling is kept).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rozenbrock;

impl ScalarFn for Rozenbrock {
    fn dim(&self) -> usize {
        2
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let one = S::from_f64(1.0);
        let hundred = S::from_f64(100.0);
        (one - x[0]) * (one - x[0]) + hundred * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0])
    }
}

/// `f(x) = sin(x)`, the Figure 1 illustration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sine;

impl ScalarFn for Sine {
    fn dim(&self) -> usize {
        1
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0].sin()
    }
}

/// Variance over augmented local vectors `[mean(x), mean(x²)]`:
/// `f([m₁, m₂]) = m₂ - m₁²` (the classic GM task; constant Hessian).
#[derive(Debug, Clone, Copy, Default)]
pub struct Variance;

impl ScalarFn for Variance {
    fn dim(&self) -> usize {
        2
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[1] - x[0] * x[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::AutoDiffFn;

    #[test]
    fn inner_product_value_and_hessian() {
        let f = AutoDiffFn::new(InnerProduct::new(4));
        assert_eq!(f.eval(&[1.0, 2.0, 3.0, 4.0]), 1.0 * 3.0 + 2.0 * 4.0);
        let h = f.hessian(&[0.5; 4]);
        // H = [[0, I], [I, 0]].
        assert_eq!(h[(0, 2)], 1.0);
        assert_eq!(h[(1, 3)], 1.0);
        assert_eq!(h[(0, 1)], 0.0);
        assert_eq!(h[(0, 0)], 0.0);
    }

    #[test]
    fn quadratic_form_matches_matrix_math() {
        let q = QuadraticForm::new(2, vec![1.0, 2.0, 0.0, 3.0]);
        let f = AutoDiffFn::new(q);
        // f = x₁² + 2x₁x₂ + 3x₂² at (1, 2): 1 + 4 + 12 = 17.
        assert_eq!(f.eval(&[1.0, 2.0]), 17.0);
        // Hessian is Q + Qᵀ.
        let h = f.hessian(&[0.3, -0.4]);
        assert_eq!(h[(0, 0)], 2.0);
        assert_eq!(h[(0, 1)], 2.0);
        assert_eq!(h[(1, 1)], 6.0);
    }

    #[test]
    fn random_quadratic_is_deterministic_per_seed() {
        let a = QuadraticForm::random(3, 5);
        let b = QuadraticForm::random(3, 5);
        let f = AutoDiffFn::new(a);
        let g = AutoDiffFn::new(b);
        assert_eq!(f.eval(&[1.0, 2.0, 3.0]), g.eval(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn saddle_and_variance() {
        let f = AutoDiffFn::new(SaddleQuadratic);
        assert_eq!(f.eval(&[2.0, 3.0]), -4.0 + 9.0);
        let v = AutoDiffFn::new(Variance);
        // var of {1, 3}: m₁ = 2, m₂ = 5 → 5 - 4 = 1.
        assert_eq!(v.eval(&[2.0, 5.0]), 1.0);
    }

    #[test]
    fn rozenbrock_minimum() {
        let f = AutoDiffFn::new(Rozenbrock);
        assert_eq!(f.eval(&[1.0, 1.0]), 0.0);
        let (_, g) = f.grad(&[1.0, 1.0]);
        assert_eq!(g, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension must be even")]
    fn odd_inner_product_rejected() {
        InnerProduct::new(5);
    }
}
