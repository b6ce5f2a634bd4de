//! Discrete-event simulation of AutoMon and its baselines (paper §4.1).
//!
//! The paper evaluates with "discrete event simulation \[of\] the
//! distributed network on a single machine": in each round nodes read
//! data updates, update local vectors, and run the node algorithm; the
//! coordinator resolves violations synchronously. This crate reproduces
//! that harness:
//!
//! * [`Workload`] — per-round local-vector updates, either dense (every
//!   node updates every round, the synthetic datasets) or event-driven
//!   (one node per round, the DNN intrusion stream).
//! * [`Simulation`] — the one Algorithm-1 round driver for the flat
//!   topology: it runs AutoMon (or any `MonitorConfig` ablation) over a
//!   workload, recording communication, approximation error, violation
//!   counts, and optional per-round traces. What the caller supplies picks
//!   the link the frames cross — nothing: the byte-accounting fabric; a
//!   fault plan: the fault-injecting fabric; a network seed: the reactor
//!   transport; a coordinator transport type: real loopback sockets — and
//!   [`RunStats`], ledger and trace do not depend on it. [`RunReport`]
//!   adds the fault trace, the quiescence verdict, the reactor's or
//!   sockets' [`TransportReport`] and a socket transport's failure.
//! * [`hybrid`] — the §6 Periodic fallback, a per-round policy hook on
//!   that driver ([`Simulation::run_hybrid`]).
//! * [`baselines`] — Centralization, Periodic(P), and the hand-crafted
//!   Convex Bound (CB) arm for inner-product monitoring.
//! * [`RunStats`] — max/p99/mean error, message and payload totals, and
//!   trace points for the time-series figures.
//! * [`FleetSimulation`] — the same harness over the two-tier sharded
//!   coordinator fleet (DESIGN.md §3.14), reporting the per-tier
//!   message split and the combined leaf+root ledger.
//!
//! Faults are one `automon_chaos::FaultPlan` for both runners; the code
//! that executes it lives here, the chaos crate holding only the
//! schedule. Each link of [`Simulation`] and the fleet runner executes
//! the plan parts its `Executor` constant names and refuses a plan using
//! any other — [`Simulation::check_plan`] / [`FleetSimulation::check_plan`]
//! as an error, a run as a panic with the same message (DESIGN.md §3.8).
//! How the driver recovers from what the plan breaks is its
//! [`RecoveryConfig`].

pub mod baselines;
mod fabric;
mod fleet_runner;
pub mod hybrid;
mod link;
mod runner;
mod stats;
mod workload;

pub use baselines::{run_centralization, run_convex_bound, run_periodic};
pub use fleet_runner::{FleetReport, FleetSimulation};
pub use hybrid::{HybridConfig, HybridStats};
pub use link::TransportReport;
pub use runner::{RecoveryConfig, RunReport, Simulation};
pub use stats::{RunStats, TracePoint};
pub use workload::Workload;
