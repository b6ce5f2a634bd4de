//! Property-based tests (proptest) for core invariants across crates.

use automon::autodiff::{finite_diff, AutoDiffFn, Scalar, ScalarFn};
use automon::core::{Curvature, DcKind, SafeZone};
use automon::linalg::{Matrix, SymEigen};
use automon::net::wire;
use automon::prelude::*;
use proptest::prelude::*;

/// A random symmetric matrix of size `n` with entries in [-5, 5].
fn sym_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_rows(n, n, data);
        m.symmetrize();
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jacobi_reconstructs_input(m in sym_matrix(4)) {
        let e = SymEigen::new(&m);
        let scale = m.frobenius_norm().max(1.0);
        prop_assert!(e.reconstruct().approx_eq(&m, 1e-8 * scale));
    }

    #[test]
    fn jacobi_eigenvalues_sorted_and_trace_preserved(m in sym_matrix(5)) {
        let e = SymEigen::new(&m);
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        let trace: f64 = (0..5).map(|i| m[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn psd_nsd_split_is_exact_and_signed(m in sym_matrix(4)) {
        let e = SymEigen::new(&m);
        let plus = e.psd_part();
        let minus = e.nsd_part();
        let scale = m.frobenius_norm().max(1.0);
        // H⁺ + H⁻ = H (Lemma 2's foundation).
        prop_assert!(plus.add(&minus).approx_eq(&m, 1e-8 * scale));
        // Signs: H⁺ ⪰ 0 ⪰ H⁻.
        prop_assert!(SymEigen::new(&plus).lambda_min() >= -1e-8 * scale);
        prop_assert!(SymEigen::new(&minus).lambda_max() <= 1e-8 * scale);
    }

    #[test]
    fn ad_gradient_matches_finite_difference(
        coeffs in proptest::collection::vec(-2.0f64..2.0, 6),
        x in proptest::collection::vec(-1.5f64..1.5, 2),
    ) {
        // Random smooth function: polynomial + transcendental mix.
        struct Mix { c: Vec<f64> }
        impl ScalarFn for Mix {
            fn dim(&self) -> usize { 2 }
            fn call<S: Scalar>(&self, x: &[S]) -> S {
                let c: Vec<S> = self.c.iter().map(|&v| S::from_f64(v)).collect();
                c[0] * x[0] + c[1] * x[1]
                    + c[2] * x[0] * x[1]
                    + c[3] * x[0] * x[0]
                    + c[4] * x[0].sin()
                    + c[5] * (x[1] * S::from_f64(0.5)).exp()
            }
        }
        let f = AutoDiffFn::new(Mix { c: coeffs });
        let (_, g) = f.grad(&x);
        let fd = finite_diff::gradient(|y| f.eval(y), &x, 1e-6);
        for (a, b) in g.iter().zip(&fd) {
            prop_assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Hessian symmetry and finite-difference agreement.
        let h = f.hessian(&x);
        prop_assert!(h.is_symmetric(1e-12));
        let hfd = finite_diff::hessian(|y| f.eval(y), &x, 1e-4);
        prop_assert!(h.approx_eq(&hfd, 1e-3 * (1.0 + hfd.frobenius_norm())));
    }

    #[test]
    fn hvp_equals_hessian_product(
        x in proptest::collection::vec(-1.0f64..1.0, 3),
        v in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        struct Poly3;
        impl ScalarFn for Poly3 {
            fn dim(&self) -> usize { 3 }
            fn call<S: Scalar>(&self, x: &[S]) -> S {
                x[0] * x[0] * x[1] + x[1] * x[2].sin() + x[2] * x[2] * x[2]
            }
        }
        let f = AutoDiffFn::new(Poly3);
        let h = f.hessian(&x);
        let hv = f.hvp(&x, &v);
        let expected = h.matvec(&v);
        for (a, b) in hv.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn wire_round_trip_node_messages(
        node in 0usize..64,
        kind in 0u8..4,
        vector in proptest::collection::vec(-1e6f64..1e6, 0..32),
        epoch in 0u64..=u64::MAX,
    ) {
        let kind = match kind {
            0 => ViolationKind::Uninitialized,
            1 => ViolationKind::Neighborhood,
            2 => ViolationKind::SafeZone,
            _ => ViolationKind::FaultyConstraints,
        };
        let msg = NodeMessage::Violation { node, kind, local_vector: vector, epoch };
        let bytes = wire::encode_node_message(&msg);
        prop_assert_eq!(wire::decode_node_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn wire_round_trip_safe_zones(
        x0 in proptest::collection::vec(-10.0f64..10.0, 1..6),
        f0 in -10.0f64..10.0,
        eps in 0.01f64..2.0,
        c in 0.0f64..5.0,
        with_box in proptest::bool::ANY,
    ) {
        let d = x0.len();
        let zone = SafeZone {
            grad0: x0.iter().map(|v| v * 0.5).collect(),
            neighborhood: with_box.then(|| automon::core::NeighborhoodBox {
                lo: x0.iter().map(|v| v - 1.0).collect(),
                hi: x0.iter().map(|v| v + 1.0).collect(),
            }),
            x0,
            f0,
            l: f0 - eps,
            u: f0 + eps,
            dc: if c > 2.5 { DcKind::ConcaveDiff } else { DcKind::ConvexDiff },
            curvature: Curvature::Scalar(c),
        };
        let msg = automon::core::CoordinatorMessage::NewConstraints {
            zone,
            slack: vec![0.25; d],
            epoch: 3,
        };
        let bytes = wire::encode_coordinator_message(&msg);
        prop_assert_eq!(wire::decode_coordinator_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn safe_zone_subset_of_admissible_for_true_decomposition(
        q_entries in proptest::collection::vec(-2.0f64..2.0, 4),
        probe in proptest::collection::vec(-2.0f64..2.0, 2),
        eps in 0.1f64..1.0,
    ) {
        // Quadratic form: ADCD-E is exact, so every safe-zone point must
        // be admissible (the §3.3 convexity/correctness property).
        let f = AutoDiffFn::new(QuadraticForm::new(2, q_entries));
        let x0 = vec![0.2, -0.1];
        let h = f.hessian(&x0);
        let e = SymEigen::new(&h);
        let (f0, grad0) = f.grad(&x0);
        let zone = SafeZone {
            x0: x0.clone(),
            f0,
            grad0,
            l: f0 - eps,
            u: f0 + eps,
            dc: DcKind::ConvexDiff,
            curvature: Curvature::Quadratic(e.nsd_part().scale(-1.0)),
            neighborhood: None,
        };
        if zone.check(&f, &probe).is_none() {
            let v = f.eval(&probe);
            prop_assert!(zone.admissible(v), "point {probe:?} in zone but f = {v} outside [{}, {}]", zone.l, zone.u);
        }
    }

    #[test]
    fn safe_zone_is_convex_midpoints(
        q_entries in proptest::collection::vec(-2.0f64..2.0, 4),
        a in proptest::collection::vec(-2.0f64..2.0, 2),
        b in proptest::collection::vec(-2.0f64..2.0, 2),
    ) {
        let f = AutoDiffFn::new(QuadraticForm::new(2, q_entries));
        let x0 = vec![0.0, 0.0];
        let h = f.hessian(&x0);
        let e = SymEigen::new(&h);
        let (f0, grad0) = f.grad(&x0);
        let zone = SafeZone {
            x0,
            f0,
            grad0,
            l: f0 - 0.5,
            u: f0 + 0.5,
            dc: DcKind::ConvexDiff,
            curvature: Curvature::Quadratic(e.nsd_part().scale(-1.0)),
            neighborhood: None,
        };
        if zone.check(&f, &a).is_none() && zone.check(&f, &b).is_none() {
            let mid: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 0.5 * (x + y)).collect();
            prop_assert!(zone.check(&f, &mid).is_none(),
                "midpoint of two safe points escaped the safe zone");
        }
    }

    #[test]
    fn sliding_window_mean_matches_direct(
        samples in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, 3), 1..40),
        cap in 1usize..10,
    ) {
        let mut w = automon::data::SlidingWindow::new(cap, 3);
        for s in &samples {
            w.push(s.clone());
        }
        let tail: Vec<&Vec<f64>> = samples.iter().rev().take(cap).collect();
        let mean = w.mean().unwrap();
        for j in 0..3 {
            let direct: f64 = tail.iter().map(|s| s[j]).sum::<f64>() / tail.len() as f64;
            prop_assert!((mean[j] - direct).abs() < 1e-9 * (1.0 + direct.abs()));
        }
    }

    #[test]
    fn curvature_penalty_nonnegative_for_psd(
        m in sym_matrix(3),
        delta in proptest::collection::vec(-3.0f64..3.0, 3),
    ) {
        // The PSD part of any symmetric matrix yields a nonnegative
        // penalty — the property that makes ǧ/ĝ convex/concave.
        let e = SymEigen::new(&m);
        prop_assert!(0.5 * e.psd_part().quadratic_form(&delta) >= -1e-9);
        prop_assert!(0.5 * e.nsd_part().scale(-1.0).quadratic_form(&delta) >= -1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delta codec round trip against arbitrary previous/current pairs.
    #[test]
    fn delta_codec_round_trips(
        prev in proptest::collection::vec(-1e3f64..1e3, 1..24),
        mask in proptest::collection::vec(proptest::bool::ANY, 1..24),
        delta_vals in proptest::collection::vec(-10.0f64..10.0, 1..24),
    ) {
        let d = prev.len().min(mask.len()).min(delta_vals.len());
        let prev = &prev[..d];
        let cur: Vec<f64> = (0..d)
            .map(|i| if mask[i] { prev[i] + delta_vals[i] } else { prev[i] })
            .collect();
        let frame = automon::net::delta::encode_delta(prev, &cur, 1e-12);
        let decoded = automon::net::delta::decode_delta(prev, &frame).unwrap();
        for (a, b) in decoded.iter().zip(&cur) {
            prop_assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
        }
        // The frame never exceeds dense size plus the tag/len header.
        prop_assert!(frame.len() <= 5 + d * 12);
    }

    /// Gershgorin bounds bracket the Jacobi spectrum on random symmetric
    /// matrices (the §6 extension's soundness property, end to end).
    #[test]
    fn monitoring_survives_duplicate_and_constant_updates(
        value in -5.0f64..5.0,
        repeats in 2usize..30,
    ) {
        // Degenerate stream: every node sends the same constant vector
        // over and over — exactly one full sync, zero violations.
        let f: std::sync::Arc<dyn MonitoredFunction> =
            std::sync::Arc::new(AutoDiffFn::new(QuadraticForm::new(2, vec![1.0, 0.0, 0.0, 1.0])));
        let series: Vec<Vec<Vec<f64>>> =
            (0..3).map(|_| vec![vec![value, -value]; repeats]).collect();
        let w = automon::sim::Workload::from_dense(&series);
        let stats = Simulation::new(f, MonitorConfig::builder(0.5).build()).run(&w);
        prop_assert_eq!(stats.full_syncs, 1);
        prop_assert_eq!(stats.messages, 6); // 3 registrations + 3 installs
        prop_assert_eq!(stats.max_error, 0.0);
    }
}
