//! Automatic differentiation substrate for AutoMon.
//!
//! The AutoMon paper relies on JAX to turn the *source code* of a monitored
//! function into procedures that evaluate its gradient and Hessian at
//! arbitrary points (§3.1). Rust has no JAX; this crate is the from-scratch
//! replacement, built from two pieces:
//!
//! * [`Scalar`] — a numeric trait over which users write their function
//!   *once*, generically. This is the Rust idiom for "hand AutoMon your
//!   source code": the same body is instantiated with plain `f64` for
//!   evaluation and with a recording scalar that writes the function's
//!   computation graph.
//! * [`AutoDiffFn`] — the user-facing wrapper. It records the graph once
//!   when it wraps `f` and serves `eval`, `grad`, `hvp` and the full
//!   `hessian` from that recording: the gradient is the primal half of
//!   one forward-over-reverse sweep, a Hessian-vector product adds one
//!   tangent lane, a Hessian `d` lanes side by side. The same recording
//!   decides whether the Hessian is constant, which picks ADCD-E over
//!   ADCD-X.
//!
//! A reverse-mode tape over `f64` and over forward-mode dual numbers is
//! compiled into the crate's tests only, as their oracle: every graph
//! read-out is checked against it bit for bit, NaN payloads included.
//!
//! Non-smooth primitives (`abs`, `max`, and ReLU built from them) propagate
//! the derivative of the active branch, exactly as JAX does — the paper
//! leans on this to monitor ReLU networks (§3.1, §4.2).
//!
//! # Example
//!
//! ```
//! use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
//!
//! struct Rosenbrock;
//! impl ScalarFn for Rosenbrock {
//!     fn dim(&self) -> usize { 2 }
//!     fn call<S: Scalar>(&self, x: &[S]) -> S {
//!         let one = S::from_f64(1.0);
//!         let hundred = S::from_f64(100.0);
//!         (one - x[0]) * (one - x[0])
//!             + hundred * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0])
//!     }
//! }
//!
//! let f = AutoDiffFn::new(Rosenbrock);
//! let x = [1.0, 1.0];
//! assert_eq!(f.eval(&x), 0.0);
//! assert_eq!(f.grad(&x).1, vec![0.0, 0.0]); // the global minimum
//! let h = f.hessian(&x);
//! assert!((h[(0, 0)] - 802.0).abs() < 1e-9);
//! ```

#[cfg(test)]
mod dual;
pub mod finite_diff;
mod func;
mod graph;
pub mod ops;
#[cfg(test)]
mod oracle;
mod scalar;
#[cfg(test)]
mod tape;

pub use func::{AutoDiffFn, DifferentiableFn, HessianEvaluator, HvpEvaluator, ScalarFn};
pub use scalar::{lit, Scalar};
