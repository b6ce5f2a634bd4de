//! `HvpEvaluator::at` + `apply` on one long-lived evaluator against a
//! fresh evaluator per product, bit for bit, over every function of this
//! crate whose Hessian varies with the point — the functions ADCD-X
//! drives the primed evaluator on. A fresh evaluator does one `at` and
//! one `apply` and so holds no state from any earlier point or
//! direction. (Both are bit-identical to the tape oracle in
//! `automon-autodiff`'s own tests.)
//!
//! Each case draws a random point `A`, a point `B` that is `A` with a
//! random subset of coordinates snapped to `0.0` (KLD and entropy bins at
//! exactly zero probability, the ReLU kink of a zero-bias layer, signed
//! zeros in `sin''`), and two directions, then runs (A,v1) (A,v2) (B,v1)
//! (A,v2) on one evaluator with one `at` per point change: a product that
//! read anything left over from another point or direction differs from
//! the fresh one in some bit.

use automon_autodiff::{AutoDiffFn, DifferentiableFn, ScalarFn};
use automon_functions::{
    CosineSimilarity, Entropy, FrequencyMoment, KlDivergence, MlpFunction, PearsonCorrelation,
    RegressionSlope, Rozenbrock, Sine,
};
use automon_nn::{Activation, Mlp};
use proptest::prelude::*;

/// Widest input of the functions under test.
const MAX_DIM: usize = 8;

struct Case {
    /// Coordinates in `[0, 1)`, scaled into each function's box.
    unit: Vec<f64>,
    /// Coordinates of `B` snapped to `0.0`.
    snap: Vec<bool>,
    v1: Vec<f64>,
    v2: Vec<f64>,
}

fn check<F: ScalarFn>(f: F, lo: f64, hi: f64, case: &Case) {
    let f = AutoDiffFn::new(f);
    assert!(!f.has_constant_hessian(), "not an ADCD-X function");
    let d = DifferentiableFn::dim(&f);
    let a: Vec<f64> = case.unit[..d].iter().map(|u| lo + (hi - lo) * u).collect();
    let b: Vec<f64> = a
        .iter()
        .zip(&case.snap)
        .map(|(&x, &snap)| if snap { 0.0 } else { x })
        .collect();
    let (v1, v2) = (&case.v1[..d], &case.v2[..d]);

    let mut he = f.hvp_eval();
    let mut out = vec![f64::NAN; d];
    let mut product = |he: &mut dyn automon_autodiff::HvpEvaluator, x: &[f64], v: &[f64]| {
        he.apply(v, &mut out);
        let mut fresh = vec![f64::NAN; d];
        let mut once = f.hvp_eval();
        once.at(x);
        once.apply(v, &mut fresh);
        for i in 0..d {
            assert_eq!(
                out[i].to_bits(),
                fresh[i].to_bits(),
                "hvp[{i}] at {x:?} along {v:?}: primed {} vs fresh {}",
                out[i],
                fresh[i]
            );
        }
    };
    he.at(&a);
    product(&mut *he, &a, v1);
    product(&mut *he, &a, v2);
    he.at(&b);
    product(&mut *he, &b, v1);
    he.at(&a);
    product(&mut *he, &a, v2);
    assert_eq!(he.point_sweeps(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn primed_products_match_fresh_ones_bit_for_bit(
        unit in proptest::collection::vec(0.0f64..1.0, MAX_DIM),
        snap in proptest::collection::vec(proptest::bool::ANY, MAX_DIM),
        v1 in proptest::collection::vec(-1.0f64..1.0, MAX_DIM),
        v2 in proptest::collection::vec(-1.0f64..1.0, MAX_DIM),
    ) {
        let case = Case { unit, snap, v1, v2 };
        check(KlDivergence::new(8, 1e-3), 0.0, 1.0, &case);
        check(Entropy::new(6, 1e-3), 0.0, 1.0, &case);
        check(Rozenbrock, -2.0, 2.0, &case);
        check(Sine, -4.0, 4.0, &case);
        let tanh = Mlp::new(&[4, 5, 1], &[Activation::Tanh, Activation::Identity], 3);
        check(MlpFunction::new(tanh), -2.0, 2.0, &case);
        let relu = Mlp::new(&[4, 6, 1], &[Activation::Relu, Activation::Sigmoid], 5);
        check(MlpFunction::new(relu), -2.0, 2.0, &case);
        check(RegressionSlope::new(1e-2), -1.0, 1.0, &case);
        check(FrequencyMoment::new(4, 3), 0.0, 2.0, &case);
        check(CosineSimilarity::new(4, 1e-2), -1.0, 1.0, &case);
        check(PearsonCorrelation::new(1e-2), -1.0, 1.0, &case);
    }
}
