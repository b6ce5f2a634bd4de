//! Matrix-free Lanczos iteration for extreme eigenvalues.
//!
//! ADCD-X (paper §3.1/§3.4) only needs `λ_min`/`λ_max` of a Hessian per
//! probe point, and the AD engine can apply `H·v` (a Hessian-vector
//! product) without materializing `H`. Lanczos builds an orthonormal
//! Krylov basis from such products and reads the extreme eigenvalues off
//! a small tridiagonal projection — the extremes converge first, which
//! is exactly the access pattern the eigen search has.
//!
//! Design choices, all in service of determinism (same input ⇒ same
//! bits, independent of thread count — the run loop is strictly
//! sequential and every reduction is a fixed-order loop):
//!
//! * **Full reorthogonalization** (two Gram-Schmidt passes against the
//!   entire basis per step). The basis stays orthonormal to machine
//!   precision, so no ghost eigenvalues; cost is fine at ADCD sizes.
//! * **Gershgorin-seeded shift**: the caller passes a shift (midpoint of
//!   a Gershgorin enclosure of the Hessian at the neighborhood center)
//!   and a scale (its half-width) so convergence tests are relative to
//!   the actual spectral range.
//! * **Warm-starting**: the workspace keeps the Ritz vector of the
//!   requested extreme from the previous run and uses it as the next
//!   starting vector. Neighboring probe points have nearby Hessians, so
//!   successive probes converge in a handful of iterations.
//! * **Deterministic breakdown recovery**: a (happy) breakdown means an
//!   invariant subspace was captured; the iteration restarts with the
//!   first canonical basis vector that survives orthogonalization
//!   against the current basis, keeping a zero coupling in `T`.

use crate::tridiag::ql_implicit;
use crate::Matrix;

/// A symmetric linear operator `v ↦ A·v`, applied matrix-free.
///
/// `apply` takes `&mut self` so implementations can reuse scratch
/// buffers (e.g. an AD graph replay workspace) across applications.
pub trait SymOperator {
    /// The operator's dimension `d`.
    fn dim(&self) -> usize;
    /// Compute `out ← A·v`. Both slices have length [`Self::dim`].
    fn apply(&mut self, v: &[f64], out: &mut [f64]);
}

/// [`SymOperator`] view of a dense symmetric [`Matrix`] (tests, oracle
/// comparisons, and callers that already hold a materialized Hessian).
pub struct MatrixOperator<'a> {
    m: &'a Matrix,
}

impl<'a> MatrixOperator<'a> {
    /// Wrap a square matrix.
    pub fn new(m: &'a Matrix) -> Self {
        assert_eq!(m.rows(), m.cols(), "MatrixOperator: matrix must be square");
        Self { m }
    }
}

impl SymOperator for MatrixOperator<'_> {
    fn dim(&self) -> usize {
        self.m.rows()
    }
    fn apply(&mut self, v: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &vj) in v.iter().enumerate() {
                acc += self.m[(i, j)] * vj;
            }
            *o = acc;
        }
    }
}

/// Options for [`LanczosWorkspace::extremes`].
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Declare convergence when both extreme Ritz values move by at most
    /// `tol * scale` between consecutive iterations, twice in a row.
    pub tol: f64,
    /// Cap on Lanczos iterations; `0` means the operator dimension
    /// (at which point the projection is exact).
    pub max_iters: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_iters: 0,
        }
    }
}

/// Counters describing one or more Lanczos runs (merged additively).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanczosStats {
    /// Lanczos iterations (one operator application each).
    pub iterations: u64,
    /// Gram-Schmidt reorthogonalization passes over the basis.
    pub reorth_passes: u64,
    /// Operator applications (`A·v` evaluations).
    pub applies: u64,
    /// Deterministic restarts after a happy breakdown.
    pub restarts: u64,
}

/// Which extreme's Ritz vector to keep as the next warm start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RitzSide {
    /// Track the smallest eigenvalue's Ritz vector.
    Smallest,
    /// Track the largest eigenvalue's Ritz vector.
    Largest,
}

/// Reusable scratch (Krylov basis, tridiagonal coefficients, warm-start
/// vector) for repeated extreme-eigenvalue extractions.
#[derive(Debug, Clone)]
pub struct LanczosWorkspace {
    /// Orthonormal basis, row `j` at `q[j*d..(j+1)*d]`.
    q: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    w: Vec<f64>,
    td: Vec<f64>,
    te: Vec<f64>,
    start: Vec<f64>,
    zsmall: Matrix,
}

impl Default for LanczosWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl LanczosWorkspace {
    /// An empty workspace; buffers size themselves on first use.
    pub fn new() -> Self {
        Self {
            q: Vec::new(),
            alpha: Vec::new(),
            beta: Vec::new(),
            w: Vec::new(),
            td: Vec::new(),
            te: Vec::new(),
            start: Vec::new(),
            zsmall: Matrix::zeros(0, 0),
        }
    }

    /// Seed the next run's starting vector (e.g. an eigenvector of the
    /// Hessian at the neighborhood center). Overridden by the Ritz
    /// vector each [`Self::extremes`] call leaves behind.
    pub fn set_start(&mut self, v: &[f64]) {
        self.start.clear();
        self.start.extend_from_slice(v);
    }

    /// Extreme eigenvalues `(λ_min, λ_max)` of `op`, matrix-free.
    ///
    /// `shift` is subtracted from the operator during the iteration and
    /// added back to the returned values (a Gershgorin-midpoint shift
    /// balances the spectrum around zero); `scale` sets the absolute
    /// convergence/breakdown scale and should be a bound on the spectral
    /// half-width. The Ritz vector of the `side` extreme is stored as
    /// the next run's starting vector (warm start).
    ///
    /// An operator that returns a non-finite product yields `(NaN, NaN)`
    /// and leaves the warm start untouched.
    ///
    /// # Panics
    /// Panics if `op.dim() == 0`.
    pub fn extremes(
        &mut self,
        op: &mut dyn SymOperator,
        shift: f64,
        scale: f64,
        side: RitzSide,
        opts: &LanczosOptions,
        stats: &mut LanczosStats,
    ) -> (f64, f64) {
        let d = op.dim();
        assert!(d > 0, "LanczosWorkspace: empty operator");
        let scale = scale.abs().max(f64::MIN_POSITIVE);
        let m_max = if opts.max_iters == 0 {
            d
        } else {
            opts.max_iters.min(d)
        };
        let breakdown_tol = 8.0 * f64::EPSILON * scale;

        self.w.resize(d, 0.0);
        self.prepare_start(d);
        self.q.clear();
        self.q.reserve(m_max * d);
        self.q.extend_from_slice(&self.start);
        self.alpha.clear();
        self.beta.clear();

        let mut prev_lo = f64::INFINITY;
        let mut prev_hi = f64::NEG_INFINITY;
        let mut stable = 0u32;
        let mut restart_from = 0usize;

        for j in 0..m_max {
            {
                let qj = &self.q[j * d..(j + 1) * d];
                op.apply(qj, &mut self.w);
            }
            stats.applies += 1;
            stats.iterations += 1;
            let qj = &self.q[j * d..(j + 1) * d];
            if shift != 0.0 {
                for (wi, &qi) in self.w.iter_mut().zip(qj) {
                    *wi -= shift * qi;
                }
            }
            let a_j = dot(&self.w, qj);
            if !a_j.is_finite() {
                // The operator produced a non-finite product: it has no
                // spectrum to report. The warm start stays as it was.
                return (f64::NAN, f64::NAN);
            }
            self.alpha.push(a_j);
            for (wi, &qi) in self.w.iter_mut().zip(qj) {
                *wi -= a_j * qi;
            }
            if j > 0 {
                let b = self.beta[j - 1];
                let qm = &self.q[(j - 1) * d..j * d];
                for (wi, &qi) in self.w.iter_mut().zip(qm) {
                    *wi -= b * qi;
                }
            }
            // Full reorthogonalization, two fixed-order passes.
            for _ in 0..2 {
                for k in 0..=j {
                    let qk = &self.q[k * d..(k + 1) * d];
                    let c = dot(&self.w, qk);
                    for (wi, &qi) in self.w.iter_mut().zip(qk) {
                        *wi -= c * qi;
                    }
                }
                stats.reorth_passes += 1;
            }

            if j + 1 == m_max {
                break;
            }

            let b_j = norm(&self.w);
            if b_j <= breakdown_tol {
                // Happy breakdown: the basis spans an invariant
                // subspace. Restart deterministically, keeping a zero
                // coupling in T (the projection stays block-diagonal).
                if !self.restart_vector(j + 1, d, &mut restart_from) {
                    break;
                }
                self.beta.push(0.0);
                stats.restarts += 1;
                let w = std::mem::take(&mut self.w);
                self.q.extend_from_slice(&w);
                self.w = w;
            } else {
                self.beta.push(b_j);
                let inv = 1.0 / b_j;
                let w = std::mem::take(&mut self.w);
                self.q.extend(w.iter().map(|&x| x * inv));
                self.w = w;
            }

            // Convergence test on the current projection's extremes.
            let m = self.alpha.len();
            if m >= 2 {
                self.load_tridiag(m);
                if ql_implicit(&mut self.td[..m], &mut self.te[..m], None).is_ok() {
                    let (lo, hi) = extreme_pair(&self.td[..m]);
                    if (lo - prev_lo).abs() <= opts.tol * scale
                        && (hi - prev_hi).abs() <= opts.tol * scale
                    {
                        stable += 1;
                        if stable >= 2 {
                            break;
                        }
                    } else {
                        stable = 0;
                    }
                    prev_lo = lo;
                    prev_hi = hi;
                }
            }
        }

        // Final projection with Ritz vectors for the warm start.
        let m = self.alpha.len();
        self.load_tridiag(m);
        self.reset_zsmall(m);
        let (lo_idx, hi_idx);
        if ql_implicit(&mut self.td[..m], &mut self.te[..m], Some(&mut self.zsmall)).is_ok() {
            let (i_lo, i_hi) = argmin_argmax(&self.td[..m]);
            lo_idx = i_lo;
            hi_idx = i_hi;
        } else {
            // QL failed on the projection (essentially unreachable);
            // fall back to the Jacobi oracle on the dense tridiagonal.
            let mut t = Matrix::zeros(m, m);
            for i in 0..m {
                t[(i, i)] = self.alpha[i];
                if i > 0 {
                    t[(i, i - 1)] = self.beta[i - 1];
                    t[(i - 1, i)] = self.beta[i - 1];
                }
            }
            let eig = crate::SymEigen::with_options(&t, crate::JacobiOptions::default());
            self.td[..m].copy_from_slice(&eig.values);
            self.zsmall = eig.vectors;
            lo_idx = 0;
            hi_idx = m - 1;
        }
        let lambda_lo = self.td[lo_idx] + shift;
        let lambda_hi = self.td[hi_idx] + shift;

        // Compose the chosen extreme's Ritz vector in the original space
        // and stash it as the next warm start.
        let col = match side {
            RitzSide::Smallest => lo_idx,
            RitzSide::Largest => hi_idx,
        };
        self.start.clear();
        self.start.resize(d, 0.0);
        for k in 0..m {
            let zk = self.zsmall[(k, col)];
            if zk == 0.0 {
                continue;
            }
            let qk = &self.q[k * d..(k + 1) * d];
            for (si, &qi) in self.start.iter_mut().zip(qk) {
                *si += zk * qi;
            }
        }
        let sn = norm(&self.start);
        if sn > 0.0 {
            let inv = 1.0 / sn;
            for s in &mut self.start {
                *s *= inv;
            }
        }

        (lambda_lo, lambda_hi)
    }

    /// Normalize `self.start`, or fill it with a deterministic
    /// pseudo-random unit vector when absent/degenerate.
    fn prepare_start(&mut self, d: usize) {
        if self.start.len() == d {
            let n = norm(&self.start);
            if n > 0.0 && n.is_finite() {
                let inv = 1.0 / n;
                for s in &mut self.start {
                    *s *= inv;
                }
                return;
            }
        }
        self.start.clear();
        self.start.resize(d, 0.0);
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for s in &mut self.start {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s = ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        }
        let n = norm(&self.start);
        let inv = 1.0 / n;
        for s in &mut self.start {
            *s *= inv;
        }
    }

    /// Fill `self.w` with a unit vector orthogonal to basis rows
    /// `0..basis_len`, trying canonical vectors from `*from` on.
    /// Returns `false` when none survives (basis spans the space).
    fn restart_vector(&mut self, basis_len: usize, d: usize, from: &mut usize) -> bool {
        while *from < d {
            let k = *from;
            *from += 1;
            self.w.iter_mut().for_each(|x| *x = 0.0);
            self.w[k] = 1.0;
            for _ in 0..2 {
                for b in 0..basis_len {
                    let qb = &self.q[b * d..(b + 1) * d];
                    let c = dot(&self.w, qb);
                    for (wi, &qi) in self.w.iter_mut().zip(qb) {
                        *wi -= c * qi;
                    }
                }
            }
            let n = norm(&self.w);
            if n > 1e-3 {
                let inv = 1.0 / n;
                for wi in &mut self.w {
                    *wi *= inv;
                }
                return true;
            }
        }
        false
    }

    /// Copy the projection's coefficients into the QL scratch in the
    /// layout [`ql_implicit`] expects (`te[0]` unused).
    fn load_tridiag(&mut self, m: usize) {
        self.td.clear();
        self.td.extend_from_slice(&self.alpha[..m]);
        self.te.clear();
        self.te.push(0.0);
        self.te.extend_from_slice(&self.beta[..m - 1]);
    }

    fn reset_zsmall(&mut self, m: usize) {
        if self.zsmall.rows() == m && self.zsmall.cols() == m {
            self.zsmall.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
            for i in 0..m {
                self.zsmall[(i, i)] = 1.0;
            }
        } else {
            self.zsmall = Matrix::identity(m);
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn extreme_pair(v: &[f64]) -> (f64, f64) {
    let mut lo = v[0];
    let mut hi = v[0];
    for &x in &v[1..] {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    (lo, hi)
}

fn argmin_argmax(v: &[f64]) -> (usize, usize) {
    let mut i_lo = 0;
    let mut i_hi = 0;
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x < v[i_lo] {
            i_lo = i;
        }
        if x > v[i_hi] {
            i_hi = i;
        }
    }
    (i_lo, i_hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymEigen;

    fn random_sym(n: usize, mut seed: u64) -> Matrix {
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Matrix::from_fn(n, n, |_, _| next());
        a.symmetrize();
        a
    }

    fn gershgorin(h: &Matrix) -> (f64, f64) {
        let n = h.rows();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..n {
            let mut r = 0.0;
            for j in 0..n {
                if j != i {
                    r += h[(i, j)].abs();
                }
            }
            lo = lo.min(h[(i, i)] - r);
            hi = hi.max(h[(i, i)] + r);
        }
        (lo, hi)
    }

    fn extremes_of(h: &Matrix, ws: &mut LanczosWorkspace, stats: &mut LanczosStats) -> (f64, f64) {
        let (glo, ghi) = gershgorin(h);
        let shift = 0.5 * (glo + ghi);
        let scale = 0.5 * (ghi - glo);
        let mut op = MatrixOperator::new(h);
        ws.extremes(
            &mut op,
            shift,
            scale,
            RitzSide::Smallest,
            &LanczosOptions::default(),
            stats,
        )
    }

    // d = 40 carries ci.sh step 6 (retired): Lanczos extremes against QL.
    #[test]
    fn matches_full_decomposition_on_random_matrices() {
        let mut ws = LanczosWorkspace::new();
        let mut stats = LanczosStats::default();
        for (n, seed) in [(1usize, 2u64), (2, 3), (3, 5), (8, 7), (24, 11), (40, 1)] {
            let h = random_sym(n, seed);
            let eig = SymEigen::new(&h);
            let (lo, hi) = extremes_of(&h, &mut ws, &mut stats);
            let scale = eig.lambda_max().abs().max(eig.lambda_min().abs()).max(1.0);
            assert!(
                (lo - eig.lambda_min()).abs() <= 1e-9 * scale,
                "n={n}: λ_min {lo} vs {}",
                eig.lambda_min()
            );
            assert!(
                (hi - eig.lambda_max()).abs() <= 1e-9 * scale,
                "n={n}: λ_max {hi} vs {}",
                eig.lambda_max()
            );
        }
        assert!(stats.applies > 0);
        assert_eq!(stats.applies, stats.iterations);
    }

    #[test]
    fn warm_start_cuts_iterations_on_nearby_matrix() {
        let n = 24;
        let h = random_sym(n, 19);
        let mut ws = LanczosWorkspace::new();
        let mut cold = LanczosStats::default();
        let (lo0, hi0) = extremes_of(&h, &mut ws, &mut cold);
        // Perturb slightly; the warm-started rerun should converge in
        // fewer iterations and to the perturbed spectrum.
        let mut h2 = h.clone();
        for i in 0..n {
            h2[(i, i)] += 1e-6 * (i as f64);
        }
        let mut warm = LanczosStats::default();
        let (lo1, hi1) = extremes_of(&h2, &mut ws, &mut warm);
        let eig2 = SymEigen::new(&h2);
        let scale = hi0.abs().max(lo0.abs()).max(1.0);
        assert!((lo1 - eig2.lambda_min()).abs() <= 1e-8 * scale);
        assert!((hi1 - eig2.lambda_max()).abs() <= 1e-8 * scale);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn identical_inputs_are_bit_identical() {
        let h = random_sym(16, 23);
        let run = || {
            let mut ws = LanczosWorkspace::new();
            let mut stats = LanczosStats::default();
            let a = extremes_of(&h, &mut ws, &mut stats);
            let b = extremes_of(&h, &mut ws, &mut stats);
            (a, b, stats)
        };
        let (a1, b1, s1) = run();
        let (a2, b2, s2) = run();
        assert_eq!(a1.0.to_bits(), a2.0.to_bits());
        assert_eq!(a1.1.to_bits(), a2.1.to_bits());
        assert_eq!(b1.0.to_bits(), b2.0.to_bits());
        assert_eq!(b1.1.to_bits(), b2.1.to_bits());
        assert_eq!(s1, s2);
    }

    #[test]
    fn survives_breakdown_on_low_rank_input() {
        // Rank-1 matrix: the Krylov space collapses after two steps, so
        // reaching both extremes (4 and 0) requires restarts.
        let n = 6;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = 2.0 / (n as f64).sqrt() * 2.0 / (n as f64).sqrt();
            }
        }
        let mut ws = LanczosWorkspace::new();
        let mut stats = LanczosStats::default();
        let (lo, hi) = extremes_of(&h, &mut ws, &mut stats);
        assert!((hi - 4.0).abs() < 1e-9, "λ_max {hi}");
        assert!(lo.abs() < 1e-9, "λ_min {lo}");
        assert!(stats.restarts > 0, "expected a breakdown restart");
    }

    #[test]
    fn diagonal_matrix_is_exact() {
        let h = Matrix::from_diag(&[4.0, -2.0, 1.0, 0.5]);
        let mut ws = LanczosWorkspace::new();
        let mut stats = LanczosStats::default();
        let (lo, hi) = extremes_of(&h, &mut ws, &mut stats);
        assert!((lo + 2.0).abs() < 1e-10);
        assert!((hi - 4.0).abs() < 1e-10);
    }

    #[test]
    fn non_finite_operator_reports_nan_and_keeps_the_warm_start() {
        let good = random_sym(8, 5);
        let mut ws = LanczosWorkspace::new();
        let mut stats = LanczosStats::default();
        let first = extremes_of(&good, &mut ws, &mut stats);
        let warm = ws.start.clone();

        let mut bad = good.clone();
        bad[(3, 3)] = f64::NAN;
        let mut op = MatrixOperator::new(&bad);
        let opts = LanczosOptions::default();
        let (lo, hi) = ws.extremes(&mut op, 0.0, 1.0, RitzSide::Smallest, &opts, &mut stats);
        assert!(lo.is_nan() && hi.is_nan());
        assert_eq!(ws.start, warm);
        // The next finite run is unaffected by the poisoned one.
        let mut fresh = LanczosWorkspace::new();
        extremes_of(&good, &mut fresh, &mut stats);
        let (a, b) = (
            extremes_of(&good, &mut ws, &mut stats),
            extremes_of(&good, &mut fresh, &mut stats),
        );
        assert_eq!((a.0.to_bits(), a.1.to_bits()), (b.0.to_bits(), b.1.to_bits()));
        assert!((a.0 - first.0).abs() < 1e-9 && (a.1 - first.1).abs() < 1e-9);
    }
}
