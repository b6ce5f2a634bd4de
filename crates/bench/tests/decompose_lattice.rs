//! `adcd::decompose` on a fixed KLD lattice (d = 10, 20; eight points
//! each), pinned bitwise: the guard that a change to the plumbing under
//! `decompose_x` (the cache-carried Ritz seeds PR 14 removed, the
//! evaluator PR 15 primed once per point) changed no decomposition, and
//! the record of what PR 21's one-stream search and value stop did
//! change. This test owns the lattice and its config.

use automon_core::{adcd, Curvature, DcKind, EigenSearch, MonitorConfig, NeighborhoodBox};
use automon_linalg::SymEigen;

/// Per lattice point: `λ̂_min` bits, `λ̂_min` bits before PR 21, Lanczos
/// iterations, eigen probes.
///
/// KLD is convex, so the search runs its Min stream only and `λ̂_max` is
/// the box-center value (asserted below against a dense eigensolve); and
/// `λ_min(H) ≡ 0` over the box, so the Min stream's polish sees nothing
/// but Lanczos noise and the value stop ends it on its initial simplex
/// on every row: `probes + d + 1` evaluations (4 + 11, 4 + 21) where the
/// two-stream search with its diameter-only stop spent 76–140.
///
/// The skip alone moves no `λ̂_min` bit (`adcd::tests::
/// one_stream_search_equals_two_stream_search`). The value stop did, on
/// the rows whose two columns differ — d = 10 points 0, 1, 3, 6 and
/// d = 20 points 0, 1, 3, 4, 7: the old polish kept the lowest of a few
/// hundred samples of the noise, the new one the lowest of its first
/// `d + 1`. The largest move is 1.9e-13 (d = 20 point 0) on Hessians
/// whose spectrum is `[0, 18–38]` (Gershgorin half-width 9–19), i.e.
/// 1e-14 of the scale the eigenvalues are resolved at; the test bounds
/// every row by `1e-12 · λ_max(H(center))`.
type Row = (u64, u64, u64, u64);

const D10: [Row; 8] = [
    (0xbd002c0270f72ed5, 0xbd08000000000000, 79, 15),
    (0xbcf0000000000000, 0xbcf8000000000000, 74, 15),
    (0xbcf0000000000000, 0xbcf0000000000000, 80, 15),
    (0xbcf0000000000000, 0xbcf8000000000000, 79, 15),
    (0xbd000507cd7cc5aa, 0xbd000507cd7cc5aa, 89, 15),
    (0xbcf0000000000000, 0xbcf0000000000000, 68, 15),
    (0xbcf0000000000000, 0xbcf8000000000000, 104, 15),
    (0xbcf0000000000000, 0xbcf0000000000000, 68, 15),
];

const D20: [Row; 8] = [
    (0xbd5f000000000000, 0xbd66400000000000, 230, 25),
    (0xbd57400000000000, 0xbd5b400000000000, 209, 25),
    (0xbd62600000000000, 0xbd62600000000000, 219, 25),
    (0xbcf0000000000000, 0xbd00000000000000, 106, 25),
    (0xbd3d000000000000, 0xbd43800000000000, 224, 25),
    (0xbd44000000000000, 0xbd44000000000000, 199, 25),
    (0xbd08000000000000, 0xbd08000000000000, 102, 25),
    (0xbd22000000000000, 0xbd3a000000000000, 234, 25),
];

fn box_around(x0: &[f64]) -> NeighborhoodBox {
    NeighborhoodBox {
        lo: x0.iter().map(|v| (v - 0.05).max(1e-6)).collect(),
        hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
    }
}

#[test]
fn decompose_is_bitwise_unchanged_on_the_bench_lattice() {
    let cfg = MonitorConfig::builder(0.1)
        .eigen_search(EigenSearch {
            probes: 4,
            nm_iters: 12,
            seed: 2,
            ..Default::default()
        })
        .build();
    for (d, rows) in [(10usize, D10), (20, D20)] {
        let bench = automon_bench::funcs::kld(d, 2, 30, 1);
        for (j, (min_bits, old_min_bits, iters, probes)) in rows.into_iter().enumerate() {
            let x0: Vec<f64> = (0..d)
                .map(|i| 1.0 / d as f64 + 1e-3 * j as f64 + 1e-5 * i as f64)
                .collect();
            let b = box_around(&x0);
            let dec = adcd::decompose(bench.f.as_ref(), &x0, Some(&b), &cfg);
            let at = format!("d = {d}, lattice point {j}");
            assert_eq!(dec.lambda_min_hat.to_bits(), min_bits, "λ̂_min at {at}");
            // The Max stream did not run.
            let lambda_max_center =
                SymEigen::new(&bench.f.hessian(&b.to_bounds().center())).lambda_max();
            assert_eq!(dec.lambda_max_hat.to_bits(), lambda_max_center.to_bits(), "λ̂_max at {at}");
            let moved = (dec.lambda_min_hat - f64::from_bits(old_min_bits)).abs();
            assert!(moved <= 1e-12 * lambda_max_center, "{at}: {moved:e}");
            assert_eq!(dec.dc, DcKind::ConvexDiff, "{at}");
            // Convex difference with eigen_margin 1: the penalty is |λ̂_min|.
            match dec.curvature {
                Curvature::Scalar(c) => assert_eq!(c.to_bits(), min_bits ^ (1 << 63), "{at}"),
                ref other => panic!("{at}: expected scalar curvature, got {other:?}"),
            }
            assert_eq!(dec.spectral.lanczos_iterations, iters, "{at}");
            assert_eq!(dec.spectral.eigen_probes, probes, "{at}");
        }
    }
}

/// The mechanism behind the `kld_fullsync` full-sync cost, as a count:
/// KLD d = 20 at the uniform histogram, box ±0.05, default configuration
/// — 8 probes and the 21 vertices of one simplex, all in the Min stream.
#[test]
fn kld_full_sync_search_is_one_stream_and_one_simplex() {
    let bench = automon_bench::funcs::kld(20, 12, 30, 1);
    let x0 = vec![0.1; 20];
    let b = box_around(&x0);
    let dec = adcd::decompose(bench.f.as_ref(), &x0, Some(&b), &MonitorConfig::builder(0.02).build());
    assert_eq!(dec.spectral.eigen_probes, 29);
    assert_eq!(dec.spectral.hessian_materializations, 2);
    assert_eq!(dec.dc, DcKind::ConvexDiff);
    let lambda_max_center = SymEigen::new(&bench.f.hessian(&b.to_bounds().center())).lambda_max();
    assert_eq!(dec.lambda_max_hat.to_bits(), lambda_max_center.to_bits());
    match dec.curvature {
        // `λ_min(H) ≡ 0` on the box: the penalty is evaluation noise.
        Curvature::Scalar(c) => assert!((0.0..1e-12).contains(&c), "{c:e}"),
        ref other => panic!("expected scalar curvature, got {other:?}"),
    }
}
