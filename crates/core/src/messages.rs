//! Protocol messages exchanged between nodes and the coordinator.
//!
//! AutoMon is transport-agnostic (paper §3.8): the library produces and
//! consumes message *values*, and the application moves them over a fabric
//! of its choice. All message types are `serde`-serializable; the
//! `automon-net` crate provides a compact binary codec and an in-process
//! fabric with byte accounting.

use std::sync::Arc;

use automon_obs::SpanId;
use serde::{Deserialize, Serialize};

use crate::ledger::CommCause;
use crate::safezone::{SafeZone, ViolationKind, ZoneUpdate};

/// Node identifier, dense in `0..n`.
pub type NodeId = usize;

/// Sync-round epoch. The coordinator bumps it on every completed full
/// sync; both sides stamp every message with their current epoch so a
/// frame delayed across a re-sync is recognized as stale and discarded
/// instead of corrupting protocol state (lossy-transport hardening).
pub type Epoch = u64;

/// Message from a node to the coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeMessage {
    /// A local-constraint violation, carrying the current raw local
    /// vector so the coordinator needs no follow-up round trip.
    Violation {
        /// Reporting node.
        node: NodeId,
        /// What was violated.
        kind: ViolationKind,
        /// The node's raw (un-slacked) local vector.
        local_vector: Vec<f64>,
        /// The constraint epoch the node was monitoring under.
        epoch: Epoch,
    },
    /// Reply to [`CoordinatorMessage::RequestLocalVector`].
    LocalVector {
        /// Replying node.
        node: NodeId,
        /// The node's raw local vector.
        vector: Vec<f64>,
        /// The constraint epoch the node holds.
        epoch: Epoch,
    },
}

impl NodeMessage {
    /// The sending node.
    pub fn sender(&self) -> NodeId {
        match *self {
            NodeMessage::Violation { node, .. } | NodeMessage::LocalVector { node, .. } => node,
        }
    }

    /// The epoch stamped on the message.
    pub fn epoch(&self) -> Epoch {
        match *self {
            NodeMessage::Violation { epoch, .. } | NodeMessage::LocalVector { epoch, .. } => epoch,
        }
    }
}

/// Message from the coordinator to one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordinatorMessage {
    /// Pull the node's current local vector (lazy or full sync).
    RequestLocalVector {
        /// The coordinator's current epoch.
        epoch: Epoch,
    },
    /// Install new local constraints and this node's slack vector
    /// (full sync).
    NewConstraints {
        /// The safe zone to monitor: the sync's shared head and penalty,
        /// the same allocations in every member's install.
        zone: SafeZone,
        /// This node's slack `sᵢ`.
        slack: Vec<f64>,
        /// The epoch these constraints open.
        epoch: Epoch,
    },
    /// Full-sync constraints whose curvature penalty is byte-identical
    /// to the node's current one (always the case for ADCD-E after the
    /// first sync): the node keeps its stored curvature, and the
    /// O(d²) matrix payload never crosses the wire again (§4.4, §4.7).
    NewConstraintsCached {
        /// The curvature-free zone fields, shared by every member's
        /// install of the sync.
        update: Arc<ZoneUpdate>,
        /// This node's slack `sᵢ`.
        slack: Vec<f64>,
        /// The epoch these constraints open.
        epoch: Epoch,
    },
    /// Rebalanced slack for a node in the balancing set (lazy sync).
    SlackUpdate {
        /// This node's new slack `sᵢ`.
        slack: Vec<f64>,
        /// The epoch the rebalance belongs to (lazy syncs do not bump it).
        epoch: Epoch,
    },
}

impl CoordinatorMessage {
    /// The epoch stamped on the message.
    pub fn epoch(&self) -> Epoch {
        match *self {
            CoordinatorMessage::RequestLocalVector { epoch }
            | CoordinatorMessage::NewConstraints { epoch, .. }
            | CoordinatorMessage::NewConstraintsCached { epoch, .. }
            | CoordinatorMessage::SlackUpdate { epoch, .. } => epoch,
        }
    }
}

/// An addressed coordinator message.
///
/// Besides the destination and payload, an outbound carries accounting
/// metadata that never hits the wire body: the protocol [`CommCause`]
/// the frame's bytes are charged to in the communication ledger, and the
/// coordinator-side span the frame's trace context propagates (the
/// handler span that produced it, or [`SpanId::NONE`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Destination node.
    pub to: NodeId,
    /// Payload.
    pub msg: CoordinatorMessage,
    /// Protocol cause this frame's bytes are charged to.
    pub cause: CommCause,
    /// Span to propagate in the frame header's trace context.
    pub span: SpanId,
}

impl Outbound {
    /// An outbound with no span context.
    pub fn new(to: NodeId, msg: CoordinatorMessage, cause: CommCause) -> Self {
        Self {
            to,
            msg,
            cause,
            span: SpanId::NONE,
        }
    }

    /// Attach the producing span's id for wire propagation.
    pub fn with_span(mut self, span: SpanId) -> Self {
        self.span = span;
        self
    }
}

/// Inter-tier message between a leaf coordinator and the root
/// coordinator of a sharded fleet (DESIGN.md §3.14).
///
/// A leaf coordinator is simultaneously a *node* of the root's
/// monitoring group: it holds a root-assigned safe zone over its shard's
/// partial mean and stays silent while that zone holds. The two frame
/// kinds here are the traffic that crosses the tier boundary *besides*
/// the ordinary [`CoordinatorMessage`]/[`NodeMessage`] frames the root's
/// own sync protocol reuses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TierMessage {
    /// Leaf → root: the shard's refreshed weighted partial mean violated
    /// the root-assigned constraints. Carries everything the plain
    /// violation frame cannot: the shard's population weight, so the
    /// root can re-derive the composition scale after rebalances.
    LeafReport {
        /// Reporting leaf (the root-tier node id).
        leaf: NodeId,
        /// What the partial-mean stream violated.
        kind: ViolationKind,
        /// The weighted partial mean (already composition-scaled).
        partial: Vec<f64>,
        /// Streams currently alive in the shard (the composition weight).
        weight: u64,
        /// Root-tier epoch the leaf was monitoring under.
        epoch: Epoch,
    },
    /// Root → leaf: adopt the listed streams from a crashed leaf. The
    /// receiving leaf rebuilds its coordinator over the enlarged shard
    /// and re-registers every member (an intra-shard full sync).
    Rebalance {
        /// Receiving leaf.
        leaf: NodeId,
        /// Global stream ids the leaf adopts.
        adopted: Vec<NodeId>,
        /// Root-tier epoch the rebalance belongs to.
        epoch: Epoch,
    },
}

impl TierMessage {
    /// The leaf the frame concerns (sender for reports, destination for
    /// rebalance directives).
    pub fn leaf(&self) -> NodeId {
        match *self {
            TierMessage::LeafReport { leaf, .. } | TierMessage::Rebalance { leaf, .. } => leaf,
        }
    }

    /// The root-tier epoch stamped on the message.
    pub fn epoch(&self) -> Epoch {
        match *self {
            TierMessage::LeafReport { epoch, .. } | TierMessage::Rebalance { epoch, .. } => epoch,
        }
    }
}

/// Addressing helper for transports that support broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipient {
    /// A single node.
    Node(NodeId),
    /// Every node.
    Broadcast,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_extraction() {
        let m = NodeMessage::Violation {
            node: 3,
            kind: ViolationKind::SafeZone,
            local_vector: vec![1.0],
            epoch: 2,
        };
        assert_eq!(m.sender(), 3);
        assert_eq!(m.epoch(), 2);
        let m = NodeMessage::LocalVector {
            node: 7,
            vector: vec![],
            epoch: 0,
        };
        assert_eq!(m.sender(), 7);
        assert_eq!(m.epoch(), 0);
    }

    #[test]
    fn serde_round_trip() {
        let m = CoordinatorMessage::SlackUpdate {
            slack: vec![0.5, -0.5],
            epoch: 9,
        };
        assert_eq!(m.epoch(), 9);
        let s = serde_json::to_string(&m).unwrap();
        let back: CoordinatorMessage = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }
}
