//! Box-constrained numerical optimization substrate for AutoMon.
//!
//! ADCD-X (paper §3.1, eq. 3) needs to solve
//!
//! ```text
//! λ̂_min = min_{x ∈ B} λ_min(H(x))      λ̂_max = max_{x ∈ B} λ_max(H(x))
//! ```
//!
//! over the neighborhood box `B`. The paper's prototype calls SciPy's
//! L-BFGS-B; here the search itself lives in `automon_core::adcd` (seeded
//! probes of `B` pick an incumbent) and this crate supplies its two
//! substrates:
//!
//! * [`Bounds`] — the box: projection, containment, intersection;
//! * [`nelder_mead`] — a box-projected Nelder–Mead simplex that polishes
//!   the incumbent, because `λ_min(H(x))` is only piecewise-smooth (it has
//!   kinks at eigenvalue crossings) and a derivative-free search is robust
//!   there. It has two stop rules besides its iteration cap: the simplex
//!   *diameter* ([`OptimizeOptions::tol`]) and the *spread of the values*
//!   on it ([`OptimizeOptions::value_tol`]). The second is what ends a
//!   polish on a flat objective, as the paper's L-BFGS-B ends at once on a
//!   zero gradient: a simplex whose vertices differ by less than the
//!   objective's own evaluation error ranks them by noise, and every
//!   iteration it spends can only shrink it toward a vertex it already has.
//!
//! Like the paper's optimizer, the search is *local*: there is no global
//! optimality guarantee for non-convex spectra, and AutoMon's protocol
//! layer compensates with its safe-zone sanity check (paper §3.7).

mod bounds;
mod nelder_mead;

pub use bounds::Bounds;
pub use nelder_mead::nelder_mead;

/// Budget of one [`nelder_mead`] search.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance on the simplex diameter.
    pub tol: f64,
    /// Convergence tolerance on the spread of the objective over the
    /// simplex, `worst − best`: the resolution below which the caller's
    /// objective values are indistinguishable. `0.0` stops only on an
    /// exactly flat simplex; a negative value never stops.
    pub value_tol: f64,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        Self {
            max_iters: 200,
            tol: 1e-8,
            value_tol: 0.0,
        }
    }
}

/// Result of a minimization.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Total objective evaluations.
    pub evals: usize,
    /// Whether the search met its tolerance.
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A neighborhood clamped to a domain edge can be a single point.
    #[test]
    fn degenerate_point_box() {
        let b = Bounds::new(vec![2.0, 2.0], vec![2.0, 2.0]);
        let r = nelder_mead(&mut |x| x[0] + x[1], &[2.0, 2.0], &b, &OptimizeOptions::default());
        assert_eq!(r.x, vec![2.0, 2.0]);
        assert_eq!(r.value, 4.0);
    }
}
