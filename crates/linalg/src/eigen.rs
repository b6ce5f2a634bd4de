//! Symmetric eigendecomposition: tridiagonal QL by default, cyclic
//! Jacobi as the oracle.
//!
//! ADCD-E (paper Lemma 2) needs the full spectral decomposition
//! `H = QΛQᵀ` of a constant Hessian so it can split it into a PSD part
//! `H⁺ = QΛ⁺Qᵀ` and an NSD part `H⁻ = QΛ⁻Qᵀ`. The DC heuristic (paper
//! §3.4) and ADCD-X both need extreme eigenvalues of Hessians evaluated
//! at points. The default path is Householder tridiagonalization +
//! implicit-shift QL ([`crate::tridiag`]) — an order of magnitude
//! faster than Jacobi at ADCD sizes — with cyclic Jacobi retained under
//! [`SymEigen::with_options`] / [`SpectralBackend::Jacobi`] as the
//! simple, unconditionally convergent test oracle and escape hatch (and
//! as the deterministic fallback should QL ever hit its iteration cap).

use crate::tridiag::{ql_implicit, tridiagonalize};
use crate::Matrix;

/// Which spectral kernel to use for eigendecompositions.
///
/// Lives here (rather than in core's config) so every layer — config,
/// CLI, benches, tests — shares one vocabulary for the escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectralBackend {
    /// Householder tridiagonalization + implicit-shift QL for full
    /// spectra; matrix-free Lanczos for extreme-only queries. The
    /// default and the fast path.
    #[default]
    Ql,
    /// Cyclic threshold Jacobi everywhere: the original kernel, kept as
    /// the test oracle and rollback switch.
    Jacobi,
}

/// Options controlling the Jacobi iteration.
#[derive(Debug, Clone, Copy)]
pub struct JacobiOptions {
    /// Stop when the largest off-diagonal magnitude falls below
    /// `tol * frobenius_norm`.
    pub tol: f64,
    /// Hard cap on full sweeps (each sweep rotates every off-diagonal pair).
    pub max_sweeps: usize,
}

impl Default for JacobiOptions {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_sweeps: 64,
        }
    }
}

/// The eigendecomposition `H = QΛQᵀ` of a symmetric matrix.
///
/// Eigenvalues are sorted ascending; `vectors` holds the corresponding
/// eigenvectors as columns and is orthonormal.
///
/// ```
/// use automon_linalg::{Matrix, SymEigen};
///
/// // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
/// let h = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let eig = SymEigen::new(&h);
/// assert!((eig.lambda_min() - 1.0).abs() < 1e-10);
/// assert!((eig.lambda_max() - 3.0).abs() < 1e-10);
/// // Lemma 2's split: H⁺ + H⁻ = H, with H⁺ ⪰ 0 ⪰ H⁻.
/// assert!(eig.psd_part().add(&eig.nsd_part()).approx_eq(&h, 1e-9));
/// ```
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues `λ₁ ≤ λ₂ ≤ … ≤ λ_d`.
    pub values: Vec<f64>,
    /// Orthonormal eigenvector matrix `Q`; column `j` pairs with `values[j]`.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Decompose a symmetric matrix with the default (QL) backend.
    ///
    /// # Panics
    /// Panics if `h` is not square. Input asymmetry up to roundoff is
    /// tolerated: the matrix is symmetrized first.
    pub fn new(h: &Matrix) -> Self {
        Self::ql(h)
    }

    /// Decompose with an explicit [`SpectralBackend`].
    pub fn with_backend(h: &Matrix, backend: SpectralBackend) -> Self {
        match backend {
            SpectralBackend::Ql => Self::ql(h),
            SpectralBackend::Jacobi => Self::with_options(h, JacobiOptions::default()),
        }
    }

    /// Decompose via Householder tridiagonalization + implicit-shift QL,
    /// falling back to Jacobi if QL hits its iteration cap (the
    /// fallback decision depends only on the tridiagonal coefficients,
    /// which are identical across the values-only and full flavors, so
    /// [`EigenWorkspace`]'s bit-identity contract survives it).
    fn ql(h: &Matrix) -> Self {
        assert_eq!(h.rows(), h.cols(), "SymEigen: matrix must be square");
        let n = h.rows();
        let mut a = h.clone();
        a.symmetrize();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(&mut a, &mut d, &mut e, true);
        if ql_implicit(&mut d, &mut e, Some(&mut a)).is_err() {
            return Self::with_options(h, JacobiOptions::default());
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).expect("NaN eigenvalue"));
        let values: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
        let vectors = Matrix::from_fn(n, n, |i, j| a[(i, idx[j])]);
        Self { values, vectors }
    }

    /// Decompose with explicit [`JacobiOptions`] (the Jacobi oracle).
    pub fn with_options(h: &Matrix, opts: JacobiOptions) -> Self {
        assert_eq!(h.rows(), h.cols(), "SymEigen: matrix must be square");
        let n = h.rows();
        let mut a = h.clone();
        a.symmetrize();
        let mut q = Matrix::identity(n);
        jacobi_sweeps(&mut a, Some(&mut q), &opts);

        // Extract and sort ascending, permuting eigenvectors along.
        let mut idx: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        idx.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).expect("NaN eigenvalue"));
        let values: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
        let vectors = Matrix::from_fn(n, n, |i, j| q[(i, idx[j])]);
        Self { values, vectors }
    }

    /// Smallest eigenvalue `λ_min`.
    pub fn lambda_min(&self) -> f64 {
        *self.values.first().expect("empty decomposition")
    }

    /// Largest eigenvalue `λ_max`.
    pub fn lambda_max(&self) -> f64 {
        *self.values.last().expect("empty decomposition")
    }

    /// Reconstruct `QΛQᵀ` (testing / verification helper).
    pub fn reconstruct(&self) -> Matrix {
        self.compose(|l| l)
    }

    /// The PSD part `H⁺ = QΛ⁺Qᵀ` where `Λ⁺` keeps only non-negative
    /// eigenvalues (paper Lemma 2).
    pub fn psd_part(&self) -> Matrix {
        self.compose(|l| if l > 0.0 { l } else { 0.0 })
    }

    /// The NSD part `H⁻ = QΛ⁻Qᵀ` where `Λ⁻` keeps only negative
    /// eigenvalues (paper Lemma 2). `psd_part() + nsd_part() = H`.
    pub fn nsd_part(&self) -> Matrix {
        self.compose(|l| if l < 0.0 { l } else { 0.0 })
    }

    /// `Q·f(Λ)·Qᵀ` for an element-wise eigenvalue map `f`.
    fn compose(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let n = self.values.len();
        let q = &self.vectors;
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let lk = f(self.values[k]);
            if lk == 0.0 {
                continue;
            }
            for i in 0..n {
                let qik = q[(i, k)];
                if qik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += lk * qik * q[(j, k)];
                }
            }
        }
        out
    }
}

/// Run cyclic Jacobi sweeps on `a` until the off-diagonal mass falls
/// below `tol · ‖A‖_F`, optionally accumulating rotations into `q`.
///
/// This is the shared kernel behind [`SymEigen`] and [`EigenWorkspace`]:
/// both must perform the exact same rotation sequence so eigenvalues
/// from either path agree bit for bit. The sweep is *threshold-cyclic*:
/// pairs already below the convergence threshold are skipped (classic
/// threshold Jacobi), which prunes the last sweep to a no-op and most
/// rotations on near-diagonal input. Skipping only leaves sub-threshold
/// mass behind, so the eigenvalue perturbation stays within the
/// convergence tolerance that callers already accept.
fn jacobi_sweeps(a: &mut Matrix, mut q: Option<&mut Matrix>, opts: &JacobiOptions) {
    let n = a.rows();
    if n == 0 {
        return;
    }
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
    let threshold = opts.tol * scale;
    for _sweep in 0..opts.max_sweeps {
        if a.max_off_diagonal() <= threshold {
            break;
        }
        for p in 0..n {
            for r in (p + 1)..n {
                jacobi_rotate(a, q.as_deref_mut(), p, r, threshold);
            }
        }
    }
}

/// One Jacobi rotation zeroing `a[(p, r)]`, accumulating into `q`.
/// Pairs at or below `skip_threshold` (the convergence threshold) are
/// left untouched — see [`jacobi_sweeps`].
fn jacobi_rotate(a: &mut Matrix, q: Option<&mut Matrix>, p: usize, r: usize, skip_threshold: f64) {
    let apr = a[(p, r)];
    // NaN also skips (the comparison is ordered on purpose).
    let rotate = apr.abs() > skip_threshold;
    if !rotate {
        return;
    }
    let app = a[(p, p)];
    let arr = a[(r, r)];
    let theta = (arr - app) / (2.0 * apr);
    // Stable tangent of the rotation angle.
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    let n = a.rows();

    for k in 0..n {
        let akp = a[(k, p)];
        let akr = a[(k, r)];
        a[(k, p)] = c * akp - s * akr;
        a[(k, r)] = s * akp + c * akr;
    }
    for k in 0..n {
        let apk = a[(p, k)];
        let ark = a[(r, k)];
        a[(p, k)] = c * apk - s * ark;
        a[(r, k)] = s * apk + c * ark;
    }
    // Re-impose exact zeros to fight drift.
    a[(p, r)] = 0.0;
    a[(r, p)] = 0.0;

    // Rotations on `a` are independent of `q`, so an eigenvalues-only
    // caller skipping the accumulation gets bit-identical eigenvalues.
    if let Some(q) = q {
        for k in 0..n {
            let qkp = q[(k, p)];
            let qkr = q[(k, r)];
            q[(k, p)] = c * qkp - s * qkr;
            q[(k, r)] = s * qkp + c * qkr;
        }
    }
}

/// Reusable scratch for eigenvalues-only decompositions.
///
/// The ADCD-X extreme-eigenvalue search evaluates `λ_min`/`λ_max` of a
/// fresh Hessian per probe point; a full [`SymEigen`] there allocates a
/// working copy, an identity `Q`, and sorted outputs per call, and pays
/// for accumulating `Q` only to discard it. A workspace keeps one
/// scratch matrix and sorts in place, and skips `Q` entirely.
/// Eigenvalues are **bit-identical** to the corresponding full
/// decomposition on the same input: for QL the tridiagonal coefficients
/// are shared and the rotation arithmetic never reads `z`
/// ([`crate::tridiag`]); for Jacobi the rotation sequence on `a` is
/// shared ([`jacobi_sweeps`]) and `Q` feeds nothing back into it.
#[derive(Debug, Clone)]
pub struct EigenWorkspace {
    a: Matrix,
    diag: Vec<f64>,
    offdiag: Vec<f64>,
}

impl Default for EigenWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl EigenWorkspace {
    /// An empty workspace; scratch buffers size themselves on first use.
    pub fn new() -> Self {
        Self {
            a: Matrix::zeros(0, 0),
            diag: Vec::new(),
            offdiag: Vec::new(),
        }
    }

    /// The extreme eigenvalues `(λ_min, λ_max)` of symmetric `h` with
    /// the default (QL) backend — the values `SymEigen::new(h)` would
    /// report, without computing eigenvectors or allocating.
    ///
    /// # Panics
    /// Panics if `h` is not square, is empty, or yields NaN eigenvalues.
    pub fn extreme_eigenvalues(&mut self, h: &Matrix) -> (f64, f64) {
        self.extreme_eigenvalues_backend(h, SpectralBackend::Ql)
    }

    /// As [`Self::extreme_eigenvalues`] with an explicit backend.
    pub fn extreme_eigenvalues_backend(
        &mut self,
        h: &Matrix,
        backend: SpectralBackend,
    ) -> (f64, f64) {
        match backend {
            SpectralBackend::Ql => {
                let n = self.load(h);
                self.offdiag.clear();
                self.offdiag.resize(n, 0.0);
                self.diag.clear();
                self.diag.resize(n, 0.0);
                tridiagonalize(&mut self.a, &mut self.diag, &mut self.offdiag, false);
                if ql_implicit(&mut self.diag, &mut self.offdiag, None).is_err() {
                    // Mirror SymEigen::ql's Jacobi fallback exactly.
                    return self.extreme_eigenvalues_with(h, JacobiOptions::default());
                }
                self.sorted_extremes()
            }
            SpectralBackend::Jacobi => self.extreme_eigenvalues_with(h, JacobiOptions::default()),
        }
    }

    /// Extreme eigenvalues via the Jacobi oracle with explicit options
    /// — bit-identical to [`SymEigen::with_options`] on the same input.
    pub fn extreme_eigenvalues_with(&mut self, h: &Matrix, opts: JacobiOptions) -> (f64, f64) {
        let n = self.load(h);
        jacobi_sweeps(&mut self.a, None, &opts);
        self.diag.clear();
        self.diag.extend((0..n).map(|i| self.a[(i, i)]));
        self.sorted_extremes()
    }

    /// Copy `h` into the scratch matrix (reusing its allocation when the
    /// shape matches) and symmetrize; returns the dimension.
    fn load(&mut self, h: &Matrix) -> usize {
        assert_eq!(h.rows(), h.cols(), "EigenWorkspace: matrix must be square");
        let n = h.rows();
        assert!(n > 0, "empty decomposition");
        if self.a.rows() == n && self.a.cols() == n {
            self.a.as_mut_slice().copy_from_slice(h.as_slice());
        } else {
            self.a = h.clone();
        }
        self.a.symmetrize();
        n
    }

    /// Mirror SymEigen's sort (same comparator, hence the same bits for
    /// the first/last element) without allocating.
    fn sorted_extremes(&mut self) -> (f64, f64) {
        self.diag
            .sort_by(|x, y| x.partial_cmp(y).expect("NaN eigenvalue"));
        (self.diag[0], self.diag[self.diag.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(vals: Vec<f64>, n: usize) -> Matrix {
        let mut m = Matrix::from_rows(n, n, vals);
        m.symmetrize();
        m
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let d = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = SymEigen::new(&d);
        assert_eq!(e.values, vec![-1.0, 2.0, 3.0]);
        assert_eq!(e.lambda_min(), -1.0);
        assert_eq!(e.lambda_max(), 3.0);
    }

    #[test]
    fn known_2x2_spectrum() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = sym(vec![2.0, 1.0, 1.0, 2.0], 2);
        let e = SymEigen::new(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = sym(
            vec![4.0, 1.0, -2.0, 1.0, 2.0, 0.0, -2.0, 0.0, 3.0],
            3,
        );
        let e = SymEigen::new(&a);
        assert!(e.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = sym(vec![1.0, 2.0, 3.0, 2.0, 5.0, -1.0, 3.0, -1.0, 0.0], 3);
        let e = SymEigen::new(&a);
        let qtq = e.vectors.transpose().matmul(&e.vectors);
        assert!(qtq.approx_eq(&Matrix::identity(3), 1e-9));
    }

    #[test]
    fn psd_nsd_split_sums_to_original() {
        let a = sym(vec![0.0, 2.0, 2.0, 0.0], 2); // eigenvalues ±2
        let e = SymEigen::new(&a);
        let plus = e.psd_part();
        let minus = e.nsd_part();
        assert!(plus.add(&minus).approx_eq(&a, 1e-9));
        // H⁺ is PSD, H⁻ is NSD.
        let ep = SymEigen::new(&plus);
        let em = SymEigen::new(&minus);
        assert!(ep.lambda_min() >= -1e-9);
        assert!(em.lambda_max() <= 1e-9);
    }

    #[test]
    fn psd_matrix_has_zero_nsd_part() {
        let a = sym(vec![2.0, 1.0, 1.0, 2.0], 2);
        let e = SymEigen::new(&a);
        assert!(e.nsd_part().approx_eq(&Matrix::zeros(2, 2), 1e-9));
        assert!(e.psd_part().approx_eq(&a, 1e-9));
    }

    #[test]
    fn empty_and_single_element() {
        let e0 = SymEigen::new(&Matrix::zeros(0, 0));
        assert!(e0.values.is_empty());
        let e1 = SymEigen::new(&Matrix::from_diag(&[7.0]));
        assert_eq!(e1.values, vec![7.0]);
    }

    #[test]
    fn workspace_extremes_bit_identical_to_full_decomposition() {
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut ws = EigenWorkspace::new();
        // Reuse one workspace across shapes and inputs, including a
        // shrink (12 → 5) that exercises the reallocation path.
        for n in [1usize, 3, 5, 12, 5] {
            let mut a = Matrix::from_fn(n, n, |_, _| next());
            a.symmetrize();
            let e = SymEigen::new(&a);
            let (lo, hi) = ws.extreme_eigenvalues(&a);
            assert_eq!(lo.to_bits(), e.lambda_min().to_bits());
            assert_eq!(hi.to_bits(), e.lambda_max().to_bits());
        }
    }

    #[test]
    fn workspace_handles_near_diagonal_input() {
        // Threshold sweeps skip everything here; extremes still match.
        let mut a = Matrix::from_diag(&[4.0, -2.0, 1.0]);
        a[(0, 1)] = 1e-30;
        a[(1, 0)] = 1e-30;
        let e = SymEigen::new(&a);
        let (lo, hi) = EigenWorkspace::new().extreme_eigenvalues(&a);
        assert_eq!(lo.to_bits(), e.lambda_min().to_bits());
        assert_eq!(hi.to_bits(), e.lambda_max().to_bits());
    }

    // d = 40 carries ci.sh step 6 (retired): QL against the Jacobi oracle.
    #[test]
    fn backends_agree_within_tolerance() {
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [2usize, 5, 16, 40] {
            let mut a = Matrix::from_fn(n, n, |_, _| next());
            a.symmetrize();
            let ql = SymEigen::with_backend(&a, SpectralBackend::Ql);
            let jac = SymEigen::with_backend(&a, SpectralBackend::Jacobi);
            let scale = jac.lambda_max().abs().max(jac.lambda_min().abs()).max(1.0);
            for (x, y) in ql.values.iter().zip(&jac.values) {
                assert!((x - y).abs() <= 1e-9 * scale, "n={n}: {x} vs {y}");
            }
            assert!(ql.reconstruct().approx_eq(&a, 1e-9));
        }
    }

    #[test]
    fn jacobi_workspace_bit_identical_to_jacobi_full() {
        let mut seed = 17u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut ws = EigenWorkspace::new();
        for n in [2usize, 4, 9] {
            let mut a = Matrix::from_fn(n, n, |_, _| next());
            a.symmetrize();
            let e = SymEigen::with_backend(&a, SpectralBackend::Jacobi);
            let (lo, hi) = ws.extreme_eigenvalues_backend(&a, SpectralBackend::Jacobi);
            assert_eq!(lo.to_bits(), e.lambda_min().to_bits());
            assert_eq!(hi.to_bits(), e.lambda_max().to_bits());
        }
    }

    #[test]
    fn handles_larger_random_like_matrix() {
        // Deterministic pseudo-random symmetric matrix; checks reconstruction.
        let n = 20;
        let mut seed = 42u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Matrix::from_fn(n, n, |_, _| next());
        a.symmetrize();
        let e = SymEigen::new(&a);
        assert!(e.reconstruct().approx_eq(&a, 1e-8));
        // Trace equals the eigenvalue sum.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let lsum: f64 = e.values.iter().sum();
        assert!((trace - lsum).abs() < 1e-8);
    }
}
