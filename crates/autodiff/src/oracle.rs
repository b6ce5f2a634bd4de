//! The test oracle of every derivative [`crate::AutoDiffFn`] serves:
//! forward-over-reverse on a reverse-mode tape that re-traces `f` per
//! query. A tape over `f64` gives `(f(x), ∇f(x))`, a tape over dual
//! numbers seeded with `v` gives `H(x)·v`, and `d` such products
//! symmetrized give `H(x)`. The recorded graph must reproduce each of
//! them bit for bit (`graph.rs`, "Bit-identity contract").
//!
//! The tests here hold that contract at the numerical edges of the
//! monitored functions — empty and τ-sized histogram bins, ties and
//! kinks of `max`/`abs`, saturated `tanh`, `sqrt` at 0 and overflow to
//! ±inf — where NaN and infinite entries make any difference in
//! operation order visible in the bits.

use crate::dual::Dual;
use crate::tape::Tape;
use crate::{Scalar, ScalarFn};
use automon_linalg::Matrix;

/// `(f(x), ∇f(x))` from one reverse sweep over a tape of `f64`.
pub(crate) fn grad<F: ScalarFn + ?Sized>(f: &F, x: &[f64]) -> (f64, Vec<f64>) {
    let tape = Tape::<f64>::new();
    let vars: Vec<_> = x.iter().map(|&xi| tape.var(xi)).collect();
    let out = f.call(&vars);
    let g = tape.gradient(out, &vars);
    (out.value(), g)
}

/// `H(x)·v` from one reverse sweep over a tape of duals seeded with `v`.
pub(crate) fn hvp<F: ScalarFn + ?Sized>(f: &F, x: &[f64], v: &[f64]) -> Vec<f64> {
    let tape = Tape::<Dual>::new();
    let vars: Vec<_> = x
        .iter()
        .zip(v)
        .map(|(&xi, &vi)| tape.var(Dual::new(xi, vi)))
        .collect();
    let out = f.call(&vars);
    tape.gradient(out, &vars).into_iter().map(|d| d.d).collect()
}

/// `H(x)` as `d` unit-direction products, symmetrized.
pub(crate) fn hessian<F: ScalarFn + ?Sized>(f: &F, x: &[f64]) -> Matrix {
    let d = x.len();
    let mut h = Matrix::zeros(d, d);
    let mut dir = vec![0.0; d];
    for j in 0..d {
        dir[j] = 1.0;
        let col = hvp(f, x, &dir);
        dir[j] = 0.0;
        for i in 0..d {
            h[(i, j)] = col[i];
        }
    }
    h.symmetrize();
    h
}

/// An [`crate::AutoDiffFn`] around an ad-hoc function of `$dim` inputs
/// with body `$body`, generic over `S`.
macro_rules! wrap {
    ($dim:expr, |$x:ident| $body:expr) => {{
        struct F;
        impl $crate::ScalarFn for F {
            fn dim(&self) -> usize {
                $dim
            }
            fn call<S: $crate::Scalar>(&self, $x: &[S]) -> S {
                $body
            }
        }
        $crate::AutoDiffFn::new(F)
    }};
}
pub(crate) use wrap;

/// The bit patterns of `v`: equal bits are equal values, NaN payloads
/// and signed zeros included.
pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{finite_diff, AutoDiffFn};

    /// Production `grad`, `hvp` and `hessian` at `x` against the oracle,
    /// bit for bit; at a `smooth` point also against finite differences.
    fn check<F: ScalarFn>(f: &AutoDiffFn<F>, x: &[f64], smooth: bool) {
        let d = x.len();
        let (v, g) = f.grad(x);
        let (ov, og) = grad(f.inner(), x);
        assert_eq!(v.to_bits(), ov.to_bits(), "f at {x:?}: {v} vs {ov}");
        assert_eq!(bits(&g), bits(&og), "∇f at {x:?}: {g:?} vs {og:?}");
        let dir: Vec<f64> = (0..d).map(|i| 0.3 - 0.7 * i as f64).collect();
        let (hv, ohv) = (f.hvp(x, &dir), hvp(f.inner(), x, &dir));
        assert_eq!(bits(&hv), bits(&ohv), "H·v at {x:?}: {hv:?} vs {ohv:?}");
        let (h, oh) = (f.hessian(x), hessian(f.inner(), x));
        assert_eq!(bits(h.as_slice()), bits(oh.as_slice()), "H at {x:?}");
        if !smooth {
            return;
        }
        let finite = |s: &[f64]| s.iter().all(|e| e.is_finite());
        assert!(v.is_finite() && finite(&g) && finite(h.as_slice()), "{x:?}");
        let g_fd = finite_diff::gradient(|y| f.eval(y), x, 1e-6);
        for (a, b) in g.iter().zip(&g_fd) {
            assert!(
                (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                "∇f at {x:?}: {a} vs {b}"
            );
        }
        let h_fd = finite_diff::hessian(|y| f.eval(y), x, 1e-5);
        let tol = 1e-3 * (1.0 + h_fd.frobenius_norm());
        assert!(h.approx_eq(&h_fd, tol), "H at {x:?}: {h:?} vs {h_fd:?}");
    }

    const TAU: f64 = 1e-3;

    #[test]
    fn histogram_bins_at_zero_and_at_tau() {
        // KLD over two 2-bin histograms and entropy over one 3-bin one,
        // τ-smoothed as in the functions crate. A bin at -τ is an empty
        // smoothed bin: ln 0 = -inf, 0·(-inf) = NaN.
        let kld = wrap!(4, |x| {
            let tau = S::from_f64(TAU);
            let mut acc = S::from_f64(0.0);
            for i in 0..2 {
                let (p, q) = (x[i] + tau, x[2 + i] + tau);
                acc = acc + p * (p.ln() - q.ln());
            }
            acc
        });
        let entropy = wrap!(3, |x| {
            let tau = S::from_f64(TAU);
            let mut acc = S::from_f64(0.0);
            for &xi in x {
                let p = xi + tau;
                acc = acc + p * p.ln();
            }
            -acc
        });
        for x in [
            [0.0, 0.0, 0.0, 0.0],
            [TAU, 0.0, 0.0, TAU],
            [0.0, TAU, 0.7, 0.3],
        ] {
            check(&kld, &x, true);
            check(&entropy, &x[..3], true);
        }
        for x in [[-TAU, 0.5, 0.5, 0.5], [0.5, 0.5, -TAU, 0.0], [-TAU; 4]] {
            check(&kld, &x, false);
            check(&entropy, &x[..3], false);
        }
    }

    #[test]
    fn ties_and_kinks_of_max_and_abs() {
        let max = wrap!(3, |x| Scalar::max(x[0], x[1]) * x[2]
            + Scalar::max(x[0] * x[0], x[1])
            + x[2].relu() * x[0]);
        check(&max, &[0.2, 0.5, 0.3], true);
        for x in [
            [0.4, 0.4, 0.0],
            [-0.3, -0.3, 0.0],
            [0.0, 0.0, -0.0],
            [1.0, 1.0, 2.0],
        ] {
            check(&max, &x, false);
        }
        let abs = wrap!(2, |x| x[0].abs() * x[1] + (x[0] - x[1]).abs());
        check(&abs, &[0.3, -0.4], true);
        for x in [[0.0, 0.5], [-0.0, 0.5], [0.5, 0.5], [0.0, 0.0]] {
            check(&abs, &x, false);
        }
    }

    #[test]
    fn saturated_tanh() {
        let f = wrap!(2, |x| (S::from_f64(40.0) * x[0]).tanh() * x[1]
            + (S::from_f64(40.0) * x[1]).tanh());
        check(&f, &[0.01, -0.02], true);
        for x in [[1.0, -1.0], [20.0, 0.5], [-20.0, 40.0]] {
            check(&f, &x, true);
        }
    }

    #[test]
    fn sqrt_at_zero() {
        let f = wrap!(2, |x| x[0].sqrt() * x[1]
            + (x[0] * x[0] + x[1] * x[1]).sqrt());
        check(&f, &[0.5, 0.7], true);
        for x in [[0.0, 0.0], [0.0, 1.0], [0.25, 0.0]] {
            check(&f, &x, false);
        }
    }

    #[test]
    fn rozenbrock_at_the_edge_of_the_range() {
        let f = wrap!(2, |x| (S::from_f64(1.0) - x[0]).powi(2)
            + S::from_f64(100.0) * (x[1] - x[0].powi(2)).powi(2));
        check(&f, &[0.3, -0.2], true);
        for x in [
            [1e300, 1e300],
            [-1e300, 1e300],
            [1e300, -1e300],
            [1e150, 1e300],
        ] {
            check(&f, &x, false);
        }
    }
}
