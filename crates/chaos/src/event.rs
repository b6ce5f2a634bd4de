//! The fault trace's vocabulary: what a link did to which frame or node.

use serde::{Deserialize, Serialize};

/// Which way a frame was travelling when a fault hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Node report heading to the coordinator.
    NodeToCoord,
    /// Coordinator install/pull heading to a node.
    CoordToNode,
}

impl Direction {
    /// The direction's name in a `fault` trace event.
    pub fn name(self) -> &'static str {
        match self {
            Self::NodeToCoord => "node_to_coord",
            Self::CoordToNode => "coord_to_node",
        }
    }
}

/// What a link did to a frame (or a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Frame discarded.
    Drop,
    /// Frame delivered now and again later.
    Duplicate,
    /// Frame delivered after everything queued behind it.
    Reorder,
    /// Frame held for this many rounds.
    Delay {
        /// Rounds the frame is held before maturing.
        rounds: usize,
    },
    /// Frame addressed to a crashed node/endpoint; the sender observes a
    /// dead connection.
    NodeDown,
    /// Frame swallowed by an active partition; the sender observes nothing.
    PartitionDrop,
    /// Scheduled crash fired.
    Crash,
    /// Scheduled restart fired.
    Restart,
    /// Scheduled coordinator crash fired; the runner rebuilds the
    /// coordinator from its durable store before the round proceeds.
    CoordinatorCrash,
}

impl FaultKind {
    /// The kind's name: the `kind` label of a link's fault counters and
    /// the `fault` field of its trace events.
    pub fn name(self) -> &'static str {
        match self {
            Self::Drop => "drop",
            Self::Duplicate => "duplicate",
            Self::Reorder => "reorder",
            Self::Delay { .. } => "delay",
            Self::NodeDown => "node_down",
            Self::PartitionDrop => "partition_drop",
            Self::Crash => "crash",
            Self::Restart => "restart",
            Self::CoordinatorCrash => "coordinator_crash",
        }
    }
}

/// One injected fault, in injection order. Traces from two runs with the
/// same plan compare with `==`; serialize them to diff across processes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Position in the injection sequence (0-based, gap-free).
    pub seq: u64,
    /// Simulation round the fault fired in.
    pub round: usize,
    /// Travel direction of the affected frame ([`Direction::NodeToCoord`]
    /// for `Crash`/`Restart`, which have no frame).
    pub dir: Direction,
    /// The node whose frame/link/process was hit.
    pub node: usize,
    /// What happened.
    pub kind: FaultKind,
}
