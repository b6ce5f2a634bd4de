//! Generic vector helpers for writing monitored functions.
//!
//! Function bodies operate on `&[S]` for a generic [`Scalar`]; these
//! helpers cover the linear-algebra idioms the evaluation functions use
//! (dot products, norms, affine maps, element-wise activations) so user code
//! reads like the paper's NumPy snippets.

use crate::Scalar;

/// `Σᵢ aᵢ·bᵢ`.
///
/// # Panics
/// Panics on length mismatch.
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = S::from_f64(0.0);
    for (&x, &y) in a.iter().zip(b) {
        acc = acc + x * y;
    }
    acc
}

/// `Σᵢ xᵢ`.
pub fn sum<S: Scalar>(x: &[S]) -> S {
    let mut acc = S::from_f64(0.0);
    for &v in x {
        acc = acc + v;
    }
    acc
}

/// Arithmetic mean.
///
/// # Panics
/// Panics on empty input.
pub fn mean<S: Scalar>(x: &[S]) -> S {
    assert!(!x.is_empty(), "mean: empty slice");
    sum(x) * S::from_f64(1.0 / x.len() as f64)
}

/// Squared Euclidean norm `Σ xᵢ²`.
pub fn norm_sq<S: Scalar>(x: &[S]) -> S {
    let mut acc = S::from_f64(0.0);
    for &v in x {
        acc = acc + v * v;
    }
    acc
}

/// Affine map `W·x + b` with constant (f64) weights, row-major
/// `out × in` — one dense neural-network layer, the `W @ x + b` of the
/// paper's `f_nn` snippet.
///
/// # Panics
/// Panics when shapes disagree.
pub fn affine<S: Scalar>(w: &[f64], b: &[f64], x: &[S]) -> Vec<S> {
    let out_dim = b.len();
    assert!(out_dim > 0, "affine: empty output");
    assert_eq!(w.len() % out_dim, 0, "affine: ragged weight matrix");
    let in_dim = w.len() / out_dim;
    assert_eq!(x.len(), in_dim, "affine: input width mismatch");
    (0..out_dim)
        .map(|o| {
            let mut acc = S::from_f64(b[o]);
            for (wi, &xi) in w[o * in_dim..(o + 1) * in_dim].iter().zip(x) {
                if *wi != 0.0 {
                    acc = acc + S::from_f64(*wi) * xi;
                }
            }
            acc
        })
        .collect()
}

/// Element-wise `tanh`.
pub fn tanh_all<S: Scalar>(x: &[S]) -> Vec<S> {
    x.iter().map(|v| v.tanh()).collect()
}

/// Element-wise ReLU.
pub fn relu_all<S: Scalar>(x: &[S]) -> Vec<S> {
    x.iter().map(|v| v.relu()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutoDiffFn, ScalarFn};

    #[test]
    fn dot_sum_mean_norm() {
        let a = [1.0f64, 2.0, 3.0];
        let b = [4.0f64, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(sum(&a), 6.0);
        assert_eq!(mean(&a), 2.0);
        assert_eq!(norm_sq(&b), 77.0);
    }

    #[test]
    fn affine_matches_manual() {
        // W = [[1, 2], [3, 4]], b = [10, 20], x = [1, 1].
        let y = affine(&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0], &[1.0f64, 1.0]);
        assert_eq!(y, vec![13.0, 27.0]);
    }

    #[test]
    fn generic_ops_differentiate() {
        // f(x) = log Σ exp(W·x + b): a softmax-classifier margin — the
        // kind of function a user would monitor.
        struct SoftMargin;
        impl ScalarFn for SoftMargin {
            fn dim(&self) -> usize {
                2
            }
            fn call<S: crate::Scalar>(&self, x: &[S]) -> S {
                let z = affine(&[1.0, -1.0, 0.5, 2.0], &[0.0, 0.1], x);
                (z[0].exp() + z[1].exp()).ln()
            }
        }
        let f = AutoDiffFn::new(SoftMargin);
        let x = [0.3, -0.2];
        let (_, g) = f.grad(&x);
        let fd = crate::finite_diff::gradient(|y| f.eval(y), &x, 1e-6);
        for (a, b) in g.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        // Softmax gradients sum structure: Hessian symmetric + finite.
        let h = f.hessian(&x);
        assert!(h.is_symmetric(1e-12));
    }

    #[test]
    fn elementwise_helpers() {
        let x = [-1.0f64, 0.5];
        assert_eq!(relu_all(&x), vec![0.0, 0.5]);
        assert!((tanh_all(&x)[1] - 0.5f64.tanh()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_checks_lengths() {
        let _ = dot(&[1.0f64], &[1.0, 2.0]);
    }
}
