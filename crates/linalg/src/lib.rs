//! Dense linear algebra substrate for AutoMon.
//!
//! AutoMon's ADCD machinery needs a small, dependable set of dense
//! linear-algebra primitives:
//!
//! * vector arithmetic over `&[f64]` slices ([`vector`]),
//! * a row-major dense [`Matrix`] with the handful of operations the
//!   protocol uses (mat-vec, quadratic forms, symmetry checks),
//! * a symmetric eigendecomposition ([`SymEigen`]) used by ADCD-E to
//!   split a constant Hessian into PSD and NSD parts and by the DC
//!   heuristic to read off extreme eigenvalues,
//! * a matrix-free Lanczos iteration ([`LanczosWorkspace`]) for the
//!   extreme-only eigenvalue queries the ADCD-X search makes, driven by
//!   Hessian-vector products through the [`SymOperator`] trait.
//!
//! The paper's prototype delegates these to NumPy/MKL; this crate is
//! the from-scratch Rust replacement. The spectral kernel is two-tier:
//! Householder reduction + implicit-shift QL when the full spectrum is
//! needed, Lanczos with full reorthogonalization when only
//! `λ_min`/`λ_max` are. The original cyclic Jacobi kernel — simple and
//! unconditionally convergent, but an order of magnitude slower at
//! d≈100 — remains as the test oracle and as QL's fallback should it
//! hit its iteration cap.

mod eigen;
mod lanczos;
mod matrix;
mod tridiag;
pub mod vector;

pub use eigen::{EigenWorkspace, JacobiOptions, SpectralBackend, SymEigen};
pub use lanczos::{LanczosOptions, LanczosStats, LanczosWorkspace, MatrixOperator, RitzSide, SymOperator};
pub use matrix::Matrix;
