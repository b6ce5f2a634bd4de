//! Property tests for the box-projected simplex search.

use automon_opt::{nelder_mead, Bounds, OptimizeOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Started from the box center, the minimizer of a random convex
    /// quadratic over a random box is feasible and no worse than the center.
    #[test]
    fn quadratic_minimizer_is_feasible_and_improving(
        center in proptest::collection::vec(-3.0f64..3.0, 2),
        half in proptest::collection::vec(0.1f64..2.0, 2),
        target in proptest::collection::vec(-4.0f64..4.0, 2),
        scale in proptest::collection::vec(0.5f64..4.0, 2),
    ) {
        let lo: Vec<f64> = center.iter().zip(&half).map(|(c, h)| c - h).collect();
        let hi: Vec<f64> = center.iter().zip(&half).map(|(c, h)| c + h).collect();
        let bounds = Bounds::new(lo, hi);
        let mut f = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&target)
                .zip(&scale)
                .map(|((xi, t), s)| s * (xi - t) * (xi - t))
                .sum()
        };
        let r = nelder_mead(&mut f, &bounds.center(), &bounds, &OptimizeOptions::default());
        prop_assert!(bounds.contains(&r.x), "{:?}", r.x);
        // A polish, not a solver: a projected simplex can stall on a face
        // short of the constrained optimum, but it never loses ground.
        prop_assert!(r.value <= f(&bounds.center()));
    }

    /// Same inputs, same result: the search draws nothing at random.
    #[test]
    fn optimizer_is_deterministic(
        target in proptest::collection::vec(-2.0f64..2.0, 2),
    ) {
        let bounds = Bounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let mut f = |x: &[f64]| -> f64 {
            (x[0] - target[0]).powi(2) + (x[1] - target[1]).powi(4)
        };
        let a = nelder_mead(&mut f, &[0.0, 0.0], &bounds, &OptimizeOptions::default());
        let b = nelder_mead(&mut f, &[0.0, 0.0], &bounds, &OptimizeOptions::default());
        prop_assert_eq!(a.x, b.x);
        prop_assert_eq!(a.value, b.value);
    }
}
