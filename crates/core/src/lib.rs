//! AutoMon core: automatic distributed monitoring of arbitrary functions.
//!
//! This crate implements the contribution of *AutoMon: Automatic
//! Distributed Monitoring for Arbitrary Multivariate Functions* (SIGMOD
//! 2022): given a differentiable function `f` of the average `x̄` of `n`
//! distributed local vectors and an approximation error bound `ε`, it
//! maintains `|f(x0) - f(x̄)| ≤ ε` at a coordinator while nodes stay silent
//! as long as their local constraints hold.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`adcd`] — ADCD-X (extreme Hessian eigenvalues over a neighborhood,
//!   found numerically; §3.1) and ADCD-E (eigendecomposition split of a
//!   constant Hessian; §3.2), plus the convex-vs-concave DC heuristic
//!   (§3.4).
//! * [`safezone`] — the local constraints derived from a DC decomposition
//!   (§3.3) together with the neighborhood box `B` (§3.5) and the sanity
//!   check for possibly-faulty constraints (§3.7).
//! * [`coordinator`] / [`node`] — Algorithm 1, with slack and LRU lazy
//!   sync (§3.5) and the adaptive neighborhood-growth heuristic (§3.6).
//! * [`tuning`] — Algorithm 2, the neighborhood-size tuning procedure
//!   (§3.6).
//! * [`messages`] — the typed messages the two sides exchange; an
//!   application routes them over a fabric of its choice (§3.8), e.g. the
//!   in-process fabric in `automon-net`.
//!
//! The function abstraction is [`MonitoredFunction`] (an alias for
//! `automon_autodiff::DifferentiableFn`); the usual way to obtain one is
//! wrapping a generic function body in `automon_autodiff::AutoDiffFn`.

pub mod adcd;
mod cache;
mod config;
pub mod coordinator;
mod id_set;
pub mod journal;
pub mod ledger;
pub mod messages;
pub mod node;
pub mod safezone;
mod slot_list;
pub mod tuning;

pub use adcd::{AdcdKind, DcDecomposition, SpectralStats};
#[doc(hidden)]
pub use cache::{CacheLookup, CacheStats, DecompCache, DecompCacheConfig, RitzSeeds};
pub use config::{ApproximationKind, EigenSearch, MonitorConfig, MonitorConfigBuilder, NeighborhoodMode, Parallelism};
pub use coordinator::{Coordinator, CoordinatorSnapshot, CoordinatorStats};
pub use journal::{Journal, Transition};
pub use ledger::{CommCause, CommLedger, LedgerCell, LedgerEntry};
pub use messages::{
    CoordinatorMessage, Epoch, NodeId, NodeMessage, Outbound, Recipient, TierMessage,
};
pub use node::Node;
pub use safezone::{
    Curvature, DcKind, Domain, NeighborhoodBox, SafeZone, ViolationKind, ZoneUpdate,
};

/// The object-safe function interface AutoMon monitors.
///
/// Alias of [`automon_autodiff::DifferentiableFn`]; wrap a generic
/// function body in [`automon_autodiff::AutoDiffFn`] to obtain one.
pub use automon_autodiff::DifferentiableFn as MonitoredFunction;
