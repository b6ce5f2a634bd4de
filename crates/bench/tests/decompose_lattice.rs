//! `adcd::decompose` on the `decomp_cache` bench lattice, pinned bitwise
//! to the values the tree produced before the cache-carried Ritz seeds
//! were removed (PR 14): the seeds plumbing ran through `decompose_x` and
//! the Lanczos streams, and this is the guard that taking it out changed
//! no decomposition. The lattice and config mirror
//! `benches/decomp_cache.rs`.

use automon_core::{adcd, Curvature, DcKind, EigenSearch, MonitorConfig, NeighborhoodBox};

/// Per lattice point: `λ̂_min` bits, `λ̂_max` bits, Lanczos iterations,
/// eigen probes.
type Row = (u64, u64, u64, u64);

const D10: [Row; 8] = [
    (0xbd08000000000000, 0x404ecb77757e4e7b, 427, 82),
    (0xbcf8000000000000, 0x404dee15d9bd076d, 533, 92),
    (0xbcf0000000000000, 0x404d1bba41556792, 568, 103),
    (0xbcf8000000000000, 0x404c53a3ab16f282, 438, 92),
    (0xbd000507cd7cc5aa, 0x404b9521961c3e26, 489, 93),
    (0xbcf0000000000000, 0x404adf92544aa0da, 527, 101),
    (0xbcf8000000000000, 0x404a32618f22df12, 442, 81),
    (0xbcf0000000000000, 0x40498d06f83e2009, 389, 84),
];

const D20: [Row; 8] = [
    (0xbd66400000000000, 0x408bd94c233bdc30, 775, 98),
    (0xbd5b400000000000, 0x40b3cd652a24ed9f, 739, 99),
    (0xbd62600000000000, 0x40830e9d0e70abc5, 766, 100),
    (0xbd00000000000000, 0x40844809a5fd92c6, 527, 99),
    (0xbd43800000000000, 0x407c06c283df1ca6, 1089, 140),
    (0xbd44000000000000, 0x4078840fccc97c43, 668, 98),
    (0xbd08000000000000, 0x4075ad065897b7aa, 362, 76),
    (0xbd3a000000000000, 0x407357e1a93ecddb, 936, 118),
];

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
        for (j, (min_bits, max_bits, iters, probes)) in rows.into_iter().enumerate() {
            let x0: Vec<f64> = (0..d)
                .map(|i| 1.0 / d as f64 + 1e-3 * j as f64 + 1e-5 * i as f64)
                .collect();
            let b = NeighborhoodBox {
                lo: x0.iter().map(|v| (v - 0.05).max(1e-6)).collect(),
                hi: x0.iter().map(|v| (v + 0.05).min(1.0)).collect(),
            };
            let dec = adcd::decompose(bench.f.as_ref(), &x0, Some(&b), &cfg);
            let at = format!("d = {d}, lattice point {j}");
            assert_eq!(dec.lambda_min_hat.to_bits(), min_bits, "λ̂_min at {at}");
            assert_eq!(dec.lambda_max_hat.to_bits(), max_bits, "λ̂_max at {at}");
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
