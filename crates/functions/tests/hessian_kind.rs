//! Which exported function gets ADCD-E (constant Hessian) and which gets
//! ADCD-X, and the exact bits of the Hessian handed to ADCD-E.
//!
//! `AutoDiffFn::new` evaluates the Hessian once, at `p = (0.137 +
//! 0.061·i)ᵢ` clamped into the declared box, and keeps it when the
//! Hessian is constant. ADCD-E decomposes that matrix, so it must be
//! `to_bits`-equal to `DifferentiableFn::hessian(p)`.

use automon_autodiff::{AutoDiffFn, DifferentiableFn, ScalarFn};
use automon_functions::{
    train_mlp_d, CosineSimilarity, Entropy, F2FromSketch, FrequencyMoment, InnerProduct,
    IntrusionDnnSpec, KlDivergence, MlpFunction, PearsonCorrelation, QuadraticForm,
    RegressionSlope, Rozenbrock, SaddleQuadratic, Sine, Variance,
};

/// The point the wrapper evaluates its Hessian at.
fn wrap_point(f: &dyn DifferentiableFn) -> Vec<f64> {
    let mut p: Vec<f64> = (0..f.dim()).map(|i| 0.137 + 0.061 * i as f64).collect();
    if let Some(lo) = f.lower_bounds() {
        p.iter_mut().zip(lo).for_each(|(x, l)| *x = x.max(l));
    }
    if let Some(hi) = f.upper_bounds() {
        p.iter_mut().zip(hi).for_each(|(x, h)| *x = x.min(h));
    }
    p
}

fn assert_constant<F: ScalarFn>(name: &str, f: F) {
    let f = AutoDiffFn::new(f);
    assert!(
        f.has_constant_hessian(),
        "{name}: expected a constant Hessian"
    );
    let cached = f.constant_hessian().expect("constant Hessian is kept");
    let oracle = DifferentiableFn::hessian(&f, &wrap_point(&f));
    let bits =
        |m: &automon_linalg::Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&cached), bits(&oracle), "{name}: cached Hessian bits");
}

fn assert_varying<F: ScalarFn>(name: &str, f: F) {
    let f = AutoDiffFn::new(f);
    assert!(
        !f.has_constant_hessian(),
        "{name}: expected a varying Hessian"
    );
    assert!(f.constant_hessian().is_none(), "{name}: nothing cached");
}

#[test]
fn constant_hessian_functions_get_adcd_e_with_the_oracle_bits() {
    assert_constant("inner product", InnerProduct::new(6));
    assert_constant("quadratic form", QuadraticForm::random(4, 3));
    assert_constant("saddle", SaddleQuadratic);
    assert_constant("variance", Variance);
    assert_constant("F2 sketch query", F2FromSketch::new(5));
    assert_constant("F1", FrequencyMoment::new(3, 1));
    assert_constant("F2", FrequencyMoment::new(3, 2));
}

#[test]
fn varying_hessian_functions_get_adcd_x() {
    assert_varying("rozenbrock", Rozenbrock);
    assert_varying("sine", Sine);
    assert_varying("kld", KlDivergence::new(4, 0.01));
    assert_varying("entropy", Entropy::new(3, 0.01));
    assert_varying("mlp-d", train_mlp_d(2, 1));
    assert_varying(
        "intrusion dnn",
        MlpFunction::new(IntrusionDnnSpec::scaled().build(7)),
    );
    assert_varying("regression slope", RegressionSlope::default());
    assert_varying("cosine similarity", CosineSimilarity::new(4, 1e-6));
    assert_varying("pearson correlation", PearsonCorrelation::default());
    assert_varying("F3", FrequencyMoment::new(3, 3));
}
