//! # AutoMon
//!
//! A Rust implementation of **AutoMon: Automatic Distributed Monitoring for
//! Arbitrary Multivariate Functions** (Sivan, Gabel, Schuster — SIGMOD 2022).
//!
//! AutoMon continuously approximates an arbitrary function
//! `f : R^d -> R` of the *average* `x̄ = (1/n) Σ xᵢ` of `n` dynamic,
//! distributed local data vectors, to within a user-specified error bound
//! `ε`, while communicating far less than centralizing every update.
//!
//! Given a function written once over a generic scalar type (the Rust
//! equivalent of "hand AutoMon your source code"), the library derives
//! Geometric-Monitoring local constraints automatically via:
//!
//! * automatic differentiation ([`autodiff`]) to evaluate Hessians,
//! * numerical optimization ([`opt`]) to bound extreme Hessian eigenvalues
//!   inside a neighborhood of the reference point (ADCD-X), or a symmetric
//!   eigendecomposition ([`linalg`]) for constant-Hessian functions
//!   (ADCD-E),
//! * the DC-decomposition machinery and the coordinator/node protocol in
//!   [`core`].
//!
//! ## Quickstart
//!
//! ```
//! use automon::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Write the function once, generically over the AD scalar.
//! struct Norm2;
//! impl ScalarFn for Norm2 {
//!     fn dim(&self) -> usize { 2 }
//!     fn call<S: Scalar>(&self, x: &[S]) -> S { x[0] * x[0] + x[1] * x[1] }
//! }
//!
//! // 2. Build a monitor over 3 nodes with additive error bound 0.1.
//! let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Norm2));
//! let cfg = MonitorConfig::builder(0.1).build();
//! let mut coord = Coordinator::new(f.clone(), 3, cfg);
//! let mut nodes: Vec<Node> = (0..3).map(|i| Node::new(i, f.clone())).collect();
//!
//! // 3. Drive it: push local vectors and route the resulting messages.
//! for (i, node) in nodes.iter_mut().enumerate() {
//!     if let Some(msg) = node.update_data(vec![0.1 * i as f64, 0.2]) {
//!         let _replies = coord.handle(msg);
//!     }
//! }
//! // (See `examples/quickstart.rs` for the full loop.)
//! ```
//!
//! The runnable examples under `examples/` and the experiment harness in
//! `automon-bench` exercise the full evaluation of the paper.

pub use automon_autodiff as autodiff;
pub use automon_chaos as chaos;
pub use automon_core as core;
pub use automon_data as data;
pub use automon_fleet as fleet;
pub use automon_functions as functions;
pub use automon_linalg as linalg;
pub use automon_net as net;
pub use automon_nn as nn;
pub use automon_opt as opt;
pub use automon_sim as sim;
pub use automon_store as store;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    pub use automon_chaos::FaultPlan;
    pub use automon_core::{
        AdcdKind, ApproximationKind, Coordinator, DcKind, Domain, MonitorConfig, MonitoredFunction,
        Node, NodeMessage, SafeZone, ViolationKind,
    };
    pub use automon_data::SlidingWindow;
    pub use automon_fleet::{Fleet, FleetConfig, ShardMap};
    pub use automon_functions::{InnerProduct, KlDivergence, QuadraticForm, Rozenbrock};
    pub use automon_linalg::{Matrix, SymEigen};
    pub use automon_sim::{RunStats, Simulation};
}
