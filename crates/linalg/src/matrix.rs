//! A row-major dense matrix with the operations AutoMon needs.

use serde::{Deserialize, Serialize};

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// This is deliberately minimal: AutoMon only needs construction,
/// element access, mat-vec products, quadratic forms, and a few
/// structural queries. Matrices are serializable because ADCD-E safe
/// zones carry the PSD/NSD Hessian parts inside sync messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows: wrong data length");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `A·x`: entry `i` is `vector::dot(row_i, x)`,
    /// one row at a time (the oracle the penalty kernel of
    /// [`PanelMatrix::form_and_dot`] is pinned against).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| crate::vector::dot(&self.data[i * self.cols..][..self.cols], x))
            .collect()
    }

    /// Quadratic form `xᵀ·A·x`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        crate::vector::dot(x, &self.matvec(x))
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a_ik = self[(i, k)];
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += a_ik * b[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Element-wise sum `A + B`.
    pub fn add(&self, b: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols), "add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&b.data).map(|(x, y)| x + y).collect(),
        }
    }

    /// Element-wise difference `A - B`.
    pub fn sub(&self, b: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols), "sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&b.data).map(|(x, y)| x - y).collect(),
        }
    }

    /// Scalar multiple `c·A`.
    pub fn scale(&self, c: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| c * x).collect(),
        }
    }

    /// Frobenius norm `√(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute off-diagonal entry (square matrices).
    pub fn max_off_diagonal(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "max_off_diagonal: not square");
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }

    /// `true` when `|aᵢⱼ - aⱼᵢ| ≤ tol` for all entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrize in place: `A ← (A + Aᵀ)/2`.
    ///
    /// Used to remove floating-point asymmetry from AD-computed Hessians
    /// before eigendecomposition.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize: not square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// `true` when every pairwise entry difference is within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(x, y)| (x - y).abs() <= tol)
    }
}

/// Rows per panel of a [`PanelMatrix`].
const PANEL: usize = 8;

/// A square `d × d` matrix stored the way the quadratic form `xᵀ·M·x`
/// reads it: the ADCD-E penalty of a safe zone.
///
/// The full panels of eight rows come first, each stored column by column
/// (entry `(8p + r, j)` sits at `8p·d + 8j + r`); the last `d mod 8` rows
/// follow as plain rows. A sweep down one panel's columns keeps its eight
/// row sums in registers and reads memory in order.
///
/// Packing moves entries, not bits: [`form_and_dot`](Self::form_and_dot)
/// gives the bits of the row-major formulas for any matrix, symmetric or
/// not, and the JSON form is [`Matrix`]'s (`rows`, `cols`, row-major
/// `data`).
#[derive(Debug, Clone, PartialEq)]
pub struct PanelMatrix {
    d: usize,
    data: Vec<f64>,
}

impl PanelMatrix {
    /// Pack the square matrix `m`.
    ///
    /// # Panics
    /// Panics if `m` is not square.
    pub fn pack(m: &Matrix) -> Self {
        assert_eq!(m.rows, m.cols, "PanelMatrix::pack: not square");
        Self::from_fn(m.rows, |i, j| m[(i, j)])
    }

    /// The `d × d` matrix whose entry `(i, j)` is `f(i, j)`, written
    /// straight into the packed layout.
    pub fn from_fn(d: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let full = d - d % PANEL;
        let mut data = Vec::with_capacity(d * d);
        for p in (0..full).step_by(PANEL) {
            for j in 0..d {
                data.extend((p..p + PANEL).map(|i| f(i, j)));
            }
        }
        for i in full..d {
            data.extend((0..d).map(|j| f(i, j)));
        }
        Self { d, data }
    }

    /// Number of rows (`d`).
    pub fn rows(&self) -> usize {
        self.d
    }

    /// Number of columns (`d`).
    pub fn cols(&self) -> usize {
        self.d
    }

    /// The row-major matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.d, self.d, |i, j| self[(i, j)])
    }

    /// `(xᵀ·M·x, gᵀ·x)` in one pass over `M`, with the bits of
    /// `(vector::dot(x, &M.matvec(x)), vector::dot(g, x))`.
    ///
    /// Each entry of `M·x` has its own accumulator, which starts at
    /// `-0.0` (the value `f64: Sum` folds from) and adds `M[i][j]·x[j]`
    /// for `j` in column order; each finished panel is folded into the
    /// form's chain in row order, and the `gᵀ·x` chain runs in the first
    /// panel's column loop. No sum is reordered and no `M·x` is stored.
    ///
    /// # Panics
    /// Panics if `x` or `g` is not `d` long.
    pub fn form_and_dot(&self, x: &[f64], g: &[f64]) -> (f64, f64) {
        let d = self.d;
        assert_eq!(x.len(), d, "form_and_dot: dimension mismatch");
        assert_eq!(g.len(), d, "form_and_dot: dimension mismatch");
        let full = d - d % PANEL;
        let (panels, tail) = self.data.split_at(full * d);
        let mut form = -0.0f64;
        let mut dot = if full == 0 { crate::vector::dot(g, x) } else { -0.0 };
        for (p, xs) in x[..full].chunks_exact(PANEL).enumerate() {
            let panel = &panels[p * PANEL * d..][..PANEL * d];
            let sums = if p == 0 {
                panel_sums::<true>(panel, x, g, &mut dot)
            } else {
                panel_sums::<false>(panel, x, g, &mut dot)
            };
            for (&xi, &mi) in xs.iter().zip(&sums) {
                form += xi * mi;
            }
        }
        for (k, &xi) in x[full..].iter().enumerate() {
            form += xi * crate::vector::dot(&tail[k * d..][..d], x);
        }
        (form, dot)
    }
}

/// One panel's eight row sums of `M·x`, swept column by column; with
/// `TANGENT`, `dot` adds `g[j]·x[j]` in the same loop.
#[inline(always)]
fn panel_sums<const TANGENT: bool>(
    panel: &[f64],
    x: &[f64],
    g: &[f64],
    dot: &mut f64,
) -> [f64; PANEL] {
    let mut sums = [-0.0f64; PANEL];
    let mut t = *dot;
    for ((col, &xj), &gj) in panel.as_chunks::<PANEL>().0.iter().zip(x).zip(g) {
        for r in 0..PANEL {
            sums[r] += col[r] * xj;
        }
        if TANGENT {
            t += gj * xj;
        }
    }
    *dot = t;
    sums
}

impl Serialize for PanelMatrix {
    fn to_value(&self) -> serde::Value {
        self.to_matrix().to_value()
    }
}

impl Deserialize for PanelMatrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = Matrix::from_value(v)?;
        if m.rows != m.cols || m.data.len() != m.rows * m.cols {
            return Err(serde::DeError::custom(format!(
                "expected a square matrix, got {}×{} with {} entries",
                m.rows,
                m.cols,
                m.data.len()
            )));
        }
        Ok(Self::pack(&m))
    }
}

impl std::ops::Index<(usize, usize)> for PanelMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.d && j < self.d, "PanelMatrix: ({i}, {j}) out of bounds");
        let full = self.d - self.d % PANEL;
        let at = if i < full {
            (i - i % PANEL) * self.d + j * PANEL + i % PANEL
        } else {
            i * self.d + j
        };
        &self.data[at]
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_noop() {
        let i3 = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(i3.matvec(&x), x);
    }

    #[test]
    fn quadratic_form_matches_manual() {
        // A = [[2, 1], [1, 3]], x = [1, 2] => xᵀAx = 2 + 2 + 2 + 12 = 18
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        assert_eq!(a.quadratic_form(&[1.0, 2.0]), 18.0);
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.transpose();
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 14.0);
        assert_eq!(c[(0, 1)], 32.0);
        assert_eq!(c[(1, 1)], 77.0);
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::identity(2);
        assert_eq!(a.add(&b)[(0, 0)], 2.0);
        assert_eq!(a.sub(&b)[(1, 1)], 3.0);
        assert_eq!(a.scale(2.0)[(0, 1)], 4.0);
    }

    #[test]
    fn symmetry_helpers() {
        let mut a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 4.0, 1.0]);
        assert!(!a.is_symmetric(1e-12));
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    fn diag_and_off_diagonal() {
        let d = Matrix::from_diag(&[1.0, -5.0]);
        assert_eq!(d[(1, 1)], -5.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.max_off_diagonal(), 0.0);
        let a = Matrix::from_rows(2, 2, vec![0.0, -3.0, 2.0, 0.0]);
        assert_eq!(a.max_off_diagonal(), 3.0);
    }

    #[test]
    fn frobenius() {
        let a = Matrix::from_rows(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn a_panel_matrix_holds_every_entry_and_reads_as_its_matrix() {
        for d in [0, 1, 7, 8, 9, 17] {
            let m = Matrix::from_fn(d, d, |i, j| (i * 100 + j) as f64);
            let p = PanelMatrix::pack(&m);
            assert_eq!(p.to_matrix(), m, "d = {d}");
            let json = serde_json::to_string(&p).unwrap();
            assert_eq!(json, serde_json::to_string(&m).unwrap(), "d = {d}");
            assert_eq!(serde_json::from_str::<PanelMatrix>(&json).unwrap(), p);
        }
        // The first panel is column-major, the tail row-major.
        let p = PanelMatrix::pack(&Matrix::from_fn(9, 9, |i, j| (i * 100 + j) as f64));
        assert_eq!(&p.data[..3], &[0.0, 100.0, 200.0]);
        assert_eq!(&p.data[72..75], &[800.0, 801.0, 802.0]);
    }

    #[test]
    fn a_panel_matrix_refuses_a_non_square_json_form() {
        for json in [
            r#"{"rows":2,"cols":3,"data":[1,2,3,4,5,6]}"#,
            r#"{"rows":2,"cols":2,"data":[1,2,3]}"#,
        ] {
            assert!(serde_json::from_str::<PanelMatrix>(json).is_err(), "{json}");
        }
    }
}
