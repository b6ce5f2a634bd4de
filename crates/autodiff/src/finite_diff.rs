//! Finite-difference derivative approximations.
//!
//! The cross-check oracle for the AD engines' test suites.

use automon_linalg::Matrix;

/// Central-difference gradient of `f` at `x` with step `h`.
pub fn gradient(mut f: impl FnMut(&[f64]) -> f64, x: &[f64], h: f64) -> Vec<f64> {
    let mut g = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let xi = x[i];
        xp[i] = xi + h;
        let fp = f(&xp);
        xp[i] = xi - h;
        let fm = f(&xp);
        xp[i] = xi;
        g[i] = (fp - fm) / (2.0 * h);
    }
    g
}

/// Central-difference Hessian of `f` at `x` with step `h` (symmetrized).
pub fn hessian(mut f: impl FnMut(&[f64]) -> f64, x: &[f64], h: f64) -> Matrix {
    let d = x.len();
    let mut m = Matrix::zeros(d, d);
    let f0 = f(x);
    let mut xp = x.to_vec();
    // Diagonal: (f(x+h) - 2f(x) + f(x-h)) / h².
    for i in 0..d {
        let xi = x[i];
        xp[i] = xi + h;
        let fp = f(&xp);
        xp[i] = xi - h;
        let fm = f(&xp);
        xp[i] = xi;
        m[(i, i)] = (fp - 2.0 * f0 + fm) / (h * h);
    }
    // Off-diagonal: four-point formula.
    for i in 0..d {
        for j in (i + 1)..d {
            let (xi, xj) = (x[i], x[j]);
            xp[i] = xi + h;
            xp[j] = xj + h;
            let fpp = f(&xp);
            xp[j] = xj - h;
            let fpm = f(&xp);
            xp[i] = xi - h;
            let fmm = f(&xp);
            xp[j] = xj + h;
            let fmp = f(&xp);
            xp[i] = xi;
            xp[j] = xj;
            let v = (fpp - fpm - fmp + fmm) / (4.0 * h * h);
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_quadratic() {
        let g = gradient(|x| x[0] * x[0] + 2.0 * x[1], &[3.0, 1.0], 1e-6);
        assert!((g[0] - 6.0).abs() < 1e-6);
        assert!((g[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn hessian_of_coupled_quadratic() {
        // f = x² + 4xy + y² → H = [[2, 4], [4, 2]].
        let h = hessian(|x| x[0] * x[0] + 4.0 * x[0] * x[1] + x[1] * x[1], &[0.3, -0.2], 1e-4);
        assert!((h[(0, 0)] - 2.0).abs() < 1e-3);
        assert!((h[(0, 1)] - 4.0).abs() < 1e-3);
        assert!((h[(1, 1)] - 2.0).abs() < 1e-3);
        assert!(h.is_symmetric(0.0));
    }
}
