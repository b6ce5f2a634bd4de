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

    /// Matrix-vector product `A·x` in a fresh vector, computed by
    /// [`matvec_into`](Self::matvec_into): entry `i` has the bits of
    /// `vector::dot(row_i, x)`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix-vector product `A·x` into `out`'s own buffer: the one dense
    /// mat-vec kernel.
    ///
    /// Entry `i` has the bits of `vector::dot(row_i, x)`: it has its own
    /// accumulator, which starts at `-0.0` (the value `f64: Sum` folds
    /// from) and adds `row_i[j]·x[j]` for `j` in column order. The kernel
    /// walks eight rows side by side, then four, then the rest one at a
    /// time, so the core overlaps independent add chains instead of
    /// waiting on one add at a time; no sum is reordered.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let n = self.cols;
        out.clear();
        out.reserve(self.rows);
        // The rows of `$rows`, each dotted with `x` in a local of its own
        // (an array of accumulators spills).
        macro_rules! side_by_side {
            ($rows:expr; $($row:ident $acc:ident),+) => {{
                let rest = $rows;
                $(let ($row, rest) = rest.split_at(n); let mut $acc = -0.0f64;)+
                debug_assert!(rest.is_empty());
                for (j, &xj) in x.iter().enumerate() {
                    $($acc += $row[j] * xj;)+
                }
                out.extend([$($acc),+]);
            }};
        }
        // Row counts, not `chunks_exact`: no division, and no panic at
        // `n == 0`, where every entry is the empty sum `-0.0`.
        let (mut rest, mut left) = (self.data.as_slice(), self.rows);
        while left >= 8 {
            let (rows, tail) = rest.split_at(8 * n);
            side_by_side!(rows; r0 a0, r1 a1, r2 a2, r3 a3, r4 a4, r5 a5, r6 a6, r7 a7);
            (rest, left) = (tail, left - 8);
        }
        if left >= 4 {
            let (rows, tail) = rest.split_at(4 * n);
            side_by_side!(rows; r0 a0, r1 a1, r2 a2, r3 a3);
            (rest, left) = (tail, left - 4);
        }
        for _ in 0..left {
            let (row, tail) = rest.split_at(n);
            out.push(crate::vector::dot(row, x));
            rest = tail;
        }
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
}
