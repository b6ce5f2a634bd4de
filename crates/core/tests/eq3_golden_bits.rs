//! The ADCD-X eigen search (paper eq. 3) pinned bit for bit on fixed
//! `(x0, B)`: KLD at d = 10, 20 and 40 (40 is past
//! `EigenSearch::nm_dim_cap`, so its streams run no polish), Rozenbrock
//! and a seeded MLP at d = 10, all under the default configuration (the
//! matrix-free Lanczos path).
//!
//! Every row was recorded before the search's sweeps were rewritten for
//! speed, and must not move: the DC kind, the curvature's bits, both
//! extremes' bits and every [`SpectralStats`] counter. One reordered
//! floating-point operation anywhere in a tangent lane shows up here.

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{adcd, Curvature, DcKind, MonitorConfig, NeighborhoodBox, SpectralStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// τ-smoothed KLD over two `d/2`-bin histograms, as in
/// `automon_functions::KlDivergence`.
struct Kld(usize);
impl ScalarFn for Kld {
    fn dim(&self) -> usize {
        self.0
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let half = self.0 / 2;
        let tau = S::from_f64(1.0 / 60.0);
        let mut acc = S::from_f64(0.0);
        for i in 0..half {
            let (p, q) = (x[i] + tau, x[half + i] + tau);
            acc = acc + p * (p.ln() - q.ln());
        }
        acc
    }
    fn lower_bounds(&self) -> Option<Vec<f64>> {
        Some(vec![0.0; self.0])
    }
    fn upper_bounds(&self) -> Option<Vec<f64>> {
        Some(vec![1.0; self.0])
    }
}

/// `(1 − x)² + 100·(y − x²)²`.
struct Rozenbrock;
impl ScalarFn for Rozenbrock {
    fn dim(&self) -> usize {
        2
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let a = S::from_f64(1.0) - x[0];
        let b = x[1] - x[0] * x[0];
        a * a + S::from_f64(100.0) * b * b
    }
}

/// `w₃·tanh(W₂·tanh(W₁x + b₁) + b₂)` with seeded weights.
struct Mlp {
    d: usize,
    hidden: usize,
    weights: Vec<f64>,
}

impl Mlp {
    fn seeded(d: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = hidden * (d + 1) + hidden * (hidden + 1) + hidden;
        Self {
            d,
            hidden,
            weights: (0..n).map(|_| rng.gen_range(-0.8..0.8)).collect(),
        }
    }
}

impl ScalarFn for Mlp {
    fn dim(&self) -> usize {
        self.d
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let mut w = self.weights.iter().map(|&w| S::from_f64(w));
        let mut layer = |input: &[S]| -> Vec<S> {
            (0..self.hidden)
                .map(|_| {
                    let mut z = w.next().unwrap();
                    for &v in input {
                        z = z + w.next().unwrap() * v;
                    }
                    z.tanh()
                })
                .collect()
        };
        let h1 = layer(x);
        let h2 = layer(&h1);
        let mut out = S::from_f64(0.0);
        for v in h2 {
            out = out + w.next().unwrap() * v;
        }
        out
    }
}

/// `B = [x0 − half, x0 + half] ∩ [lo, hi]`.
fn box_around(x0: &[f64], half: f64, lo: f64, hi: f64) -> NeighborhoodBox {
    NeighborhoodBox {
        lo: x0.iter().map(|v| (v - half).max(lo)).collect(),
        hi: x0.iter().map(|v| (v + half).min(hi)).collect(),
    }
}

/// A skewed pair of histograms: KLD's Hessian varies over the box.
fn kld_x0(d: usize) -> Vec<f64> {
    let half = d / 2;
    let (p, q): (Vec<f64>, Vec<f64>) = (0..half)
        .map(|i| (1.0 + i as f64, (half - i) as f64 + 0.5 * (i % 3) as f64))
        .unzip();
    let (sp, sq) = (p.iter().sum::<f64>(), q.iter().sum::<f64>());
    p.iter()
        .map(|v| v / sp)
        .chain(q.iter().map(|v| v / sq))
        .collect()
}

/// One pinned decomposition: DC kind, curvature bits, `λ̂_min` and
/// `λ̂_max` bits, and the [`SpectralStats`] counters in field order
/// (materializations, probes, Lanczos iterations, reorthogonalization
/// passes, products).
type Golden = (DcKind, u64, u64, u64, [u64; 5]);

fn decompose_bits<F: ScalarFn>(f: F, x0: &[f64], b: &NeighborhoodBox) -> Golden {
    let f = AutoDiffFn::new(f);
    let cfg = MonitorConfig::builder(0.05).build();
    let dec = adcd::decompose(&f, x0, Some(b), &cfg);
    let Curvature::Scalar(c) = dec.curvature else {
        panic!("ADCD-X yields a scalar curvature");
    };
    let SpectralStats {
        hessian_materializations,
        eigen_probes,
        lanczos_iterations,
        reorth_passes,
        hvp_applies,
    } = dec.spectral;
    (
        dec.dc,
        c.to_bits(),
        dec.lambda_min_hat.to_bits(),
        dec.lambda_max_hat.to_bits(),
        [
            hessian_materializations,
            eigen_probes,
            lanczos_iterations,
            reorth_passes,
            hvp_applies,
        ],
    )
}

#[test]
fn kld_search_is_bitwise_unchanged() {
    let golden: [(usize, Golden); 3] = [(10, GOLDEN_KLD10), (20, GOLDEN_KLD20), (40, GOLDEN_KLD40)];
    for (d, want) in golden {
        let x0 = kld_x0(d);
        let b = box_around(&x0, 0.05, 1e-6, 1.0);
        assert_eq!(decompose_bits(Kld(d), &x0, &b), want, "KLD d = {d}");
    }
}

#[test]
fn rozenbrock_search_is_bitwise_unchanged() {
    let x0 = [0.3, -0.2];
    let b = box_around(&x0, 0.5, f64::NEG_INFINITY, f64::INFINITY);
    assert_eq!(decompose_bits(Rozenbrock, &x0, &b), GOLDEN_ROZENBROCK);
}

#[test]
fn mlp_search_is_bitwise_unchanged() {
    let x0: Vec<f64> = (0..10).map(|i| 0.1 * i as f64 - 0.4).collect();
    let b = box_around(&x0, 0.3, f64::NEG_INFINITY, f64::INFINITY);
    assert_eq!(decompose_bits(Mlp::seeded(10, 8, 7), &x0, &b), GOLDEN_MLP10);
}

// Recorded on the tree before the flat-row tangent sweep, the forked
// evaluators and the values-only H(x0) spectrum.
const GOLDEN_KLD10: Golden = (
    DcKind::ConvexDiff,
    0x3d14000000000000,
    0xbd14000000000000,
    0x404154ce22499a53,
    [2, 19, 119, 238, 119],
);
const GOLDEN_KLD20: Golden = (
    DcKind::ConvexDiff,
    0x3d24000000000000,
    0xbd24000000000000,
    0x4087ce2499486fcd,
    [2, 100, 545, 1090, 545],
);
const GOLDEN_KLD40: Golden = (
    DcKind::ConvexDiff,
    0x3d1a41a9b2c064ac,
    0xbd1a41a9b2c064ac,
    0x40758d8d386c904e,
    [2, 16, 133, 266, 133],
);
const GOLDEN_ROZENBROCK: Golden = (
    DcKind::ConvexDiff,
    0x405d7ffffffffe58,
    0xc05d7ffffffffe58,
    0x4073b1aa7b4ce4d9,
    [2, 62, 124, 248, 124],
);
const GOLDEN_MLP10: Golden = (
    DcKind::ConcaveDiff,
    0x4001f6ae5f6831c3,
    0xbfff043945cc48d4,
    0x4001f6ae5f6831c3,
    [2, 138, 1335, 2670, 1335],
);
