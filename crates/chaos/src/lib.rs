//! Deterministic fault schedules for the AutoMon protocol.
//!
//! AutoMon's communication savings only matter if the protocol survives
//! the network it saves. This crate describes the adversary: a seeded
//! [`FaultPlan`] says what goes wrong (per-frame drop, duplicate,
//! reorder and delay probabilities, timed node, leaf and coordinator
//! crashes, coordinator↔node partitions). Its per-frame fault ladder is
//! [`LadderGate`], and frames wait in a [`FaultQueue`], the one place a
//! ladder verdict moves a frame; `automon-sim`'s chaos and reactor links
//! use both.
//! The plan is the workspace's one schedule type: every executor (the
//! round driver's links and the fleet runner, all in `automon-sim`) names
//! the [`PlanPart`]s it runs in an [`Executor`] constant and refuses the
//! rest through [`Executor::admit`].
//! Every injected fault lands in a replayable [`FaultEvent`] trace; the
//! same plan and seed reproduce the same trace bit for bit, so any
//! failure a chaos run finds can be replayed under a debugger.
//!
//! The self-healing counterpart lives in `automon-core` (epoch-tagged
//! sync rounds, node eviction and resynchronization) and `automon-sim`'s
//! round driver (retransmission, eviction on failed sends); this crate
//! only says what breaks, deterministically.

mod event;
pub mod gate;
mod plan;
mod queue;

pub use event::{Direction, FaultEvent, FaultKind};
pub use gate::{GateCounts, GateVerdict, LadderGate};
pub use plan::{Executor, FaultPlan, LeafCrash, NodeCrash, Partition, PlanPart, TimedFault};
pub use queue::FaultQueue;
