//! Deterministic fault injection for the AutoMon protocol.
//!
//! AutoMon's communication savings only matter if the protocol survives
//! the network it saves. This crate provides the adversary: a seeded
//! [`FaultPlan`] describing what goes wrong (per-frame drop, duplicate,
//! reorder and delay probabilities, timed node, leaf and coordinator
//! crashes, coordinator↔node partitions) and a [`ChaosFabric`] that
//! executes the plan at the frame boundary of the in-process fabric.
//! The plan is the workspace's one schedule type: every other executor
//! (the reactor and socket links, the fleet runner — all in
//! `automon-sim`) names the [`PlanPart`]s it runs in an [`Executor`]
//! constant and refuses the rest through [`Executor::admit`].
//! Every injected fault lands in a replayable [`FaultEvent`] trace; the
//! same plan and seed reproduce the same trace bit for bit, so any
//! failure a chaos run finds can be replayed under a debugger.
//!
//! The self-healing counterpart lives in `automon-core` (epoch-tagged
//! sync rounds, node eviction and resynchronization) and `automon-sim`'s
//! round driver (retransmission, eviction on failed sends); this crate
//! only breaks things, deterministically.

mod fabric;
pub mod gate;
mod plan;

pub use fabric::{ChaosFabric, DeliveryFailure, Direction, FaultEvent, FaultKind};
pub use gate::{GateCounts, LadderGate};
pub use plan::{
    Executor, FaultPlan, LeafCrash, NodeCrash, Partition, PlanPart, RecoveryConfig, TimedFault,
};
