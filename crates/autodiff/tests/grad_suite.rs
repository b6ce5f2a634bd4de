//! A battery of distinct functions checked against finite differences
//! and closed forms — the AD engine's acceptance suite. Each case
//! exercises a different composition of primitives (the failure modes of
//! tape-based AD are op-specific, so variety beats repetition).

use automon_autodiff::{finite_diff, ops, AutoDiffFn, Scalar, ScalarFn};

/// Check gradient and Hessian of `f` against finite differences at `x`.
fn check<F: ScalarFn>(f: F, x: &[f64], tol: f64) {
    let ad = AutoDiffFn::new(f);
    let (v, g) = ad.grad(x);
    assert!(v.is_finite());
    let g_fd = finite_diff::gradient(|y| ad.eval(y), x, 1e-6);
    for (i, (a, b)) in g.iter().zip(&g_fd).enumerate() {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "grad[{i}]: {a} vs {b}"
        );
    }
    let h = ad.hessian(x);
    assert!(h.is_symmetric(1e-10));
    let h_fd = finite_diff::hessian(|y| ad.eval(y), x, 1e-4);
    assert!(
        h.approx_eq(&h_fd, 50.0 * tol * (1.0 + h_fd.frobenius_norm())),
        "hessian mismatch"
    );
}

macro_rules! case {
    ($name:ident, $dim:expr, $x:expr, |$xv:ident| $body:expr) => {
        #[test]
        fn $name() {
            struct F;
            impl ScalarFn for F {
                fn dim(&self) -> usize {
                    $dim
                }
                fn call<S: Scalar>(&self, $xv: &[S]) -> S {
                    $body
                }
            }
            check(F, &$x, 1e-4);
        }
    };
}

case!(polynomial_cubic, 2, [0.7, -0.3], |x| {
    x[0] * x[0] * x[0] + S::from_f64(3.0) * x[0] * x[1] - x[1] * x[1]
});

case!(rational_function, 2, [0.5, 0.8], |x| {
    (x[0] + S::from_f64(2.0)) / (x[1] * x[1] + S::from_f64(1.0))
});

case!(exp_of_sum, 3, [0.1, 0.2, -0.4], |x| ops::sum(x).exp());

case!(log_of_norm, 3, [0.6, -0.9, 1.2], |x| {
    (ops::norm_sq(x) + S::from_f64(1.0)).ln()
});

case!(trig_mix, 2, [0.4, 1.1], |x| {
    x[0].sin() * x[1].cos() + (x[0] * x[1]).sin()
});

case!(sqrt_chain, 1, [2.5], |x| (x[0].sqrt() + S::from_f64(1.0)).sqrt());

case!(tanh_network_layer, 3, [0.3, -0.5, 0.9], |x| {
    let z = ops::affine(&[0.5, -1.0, 0.25, 1.5, 0.0, -0.75], &[0.1, -0.2], x);
    ops::dot(&ops::tanh_all(&z), &[S::from_f64(2.0), S::from_f64(-1.0)])
});

case!(sigmoid_composition, 2, [0.2, -0.7], |x| {
    (x[0] * S::from_f64(3.0) + x[1]).sigmoid() * x[1]
});

case!(powi_negative_exponent, 1, [1.7], |x| x[0].powi(-2));

case!(powf_const_exponent, 1, [2.3], |x| x[0].powf_const(1.7));

case!(logsumexp_margin, 3, [0.5, -0.2, 0.1], |x| {
    (x[0].exp() + x[1].exp() + x[2].exp()).ln() - ops::mean(x)
});

// 8 nested unary ops: stresses adjoint accumulation depth.
case!(deep_chain, 1, [0.4], |x| x[0].sin().exp().sqrt().ln().cos().tanh().exp().sqrt());

#[test]
fn relu_gradient_away_from_kink() {
    struct F;
    impl ScalarFn for F {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].relu() * S::from_f64(2.0) + (x[1] - S::from_f64(0.5)).relu()
        }
    }
    let ad = AutoDiffFn::new(F);
    // Both units active.
    let (_, g) = ad.grad(&[1.0, 1.0]);
    assert_eq!(g, vec![2.0, 1.0]);
    // Both inactive.
    let (_, g) = ad.grad(&[-1.0, 0.0]);
    assert_eq!(g, vec![0.0, 0.0]);
}

#[test]
fn abs_and_min_subgradients() {
    struct F;
    impl ScalarFn for F {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].abs() + x[0].min(x[1])
        }
    }
    let ad = AutoDiffFn::new(F);
    let (_, g) = ad.grad(&[-2.0, 5.0]);
    // d|x|/dx = -1; min picks x[0].
    assert_eq!(g, vec![0.0, 0.0]); // -1 (abs) + 1 (min) = 0 on x0
    let (_, g) = ad.grad(&[3.0, -5.0]);
    assert_eq!(g, vec![1.0, 1.0]); // +1 (abs) on x0; min picks x1
}

#[test]
fn second_derivatives_of_classic_functions() {
    // Closed forms: f = x·eˣ → f'' = (x + 2)eˣ.
    struct XExp;
    impl ScalarFn for XExp {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0] * x[0].exp()
        }
    }
    let ad = AutoDiffFn::new(XExp);
    let x = 0.8;
    let h = ad.hessian(&[x]);
    assert!((h[(0, 0)] - (x + 2.0) * x.exp()).abs() < 1e-10);

    // f = ln(x)² → f'' = 2(1 - ln x)/x².
    struct LnSq;
    impl ScalarFn for LnSq {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0].ln() * x[0].ln()
        }
    }
    let ad = AutoDiffFn::new(LnSq);
    let x = 1.9;
    let h = ad.hessian(&[x]);
    assert!((h[(0, 0)] - 2.0 * (1.0 - x.ln()) / (x * x)).abs() < 1e-10);
}

#[test]
fn gradient_scales_to_larger_dimensions() {
    // log Σ exp over 64 inputs: gradient is softmax; sums to 1.
    struct Lse;
    impl ScalarFn for Lse {
        fn dim(&self) -> usize {
            64
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x.iter()
                .fold(S::from_f64(0.0), |acc, &xi| acc + xi.exp())
                .ln()
        }
    }
    let ad = AutoDiffFn::new(Lse);
    let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let (_, g) = ad.grad(&x);
    let total: f64 = g.iter().sum();
    assert!((total - 1.0).abs() < 1e-12);
    assert!(g.iter().all(|&gi| gi > 0.0));
}
