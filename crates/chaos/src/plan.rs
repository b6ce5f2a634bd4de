//! Fault schedules: what goes wrong, when, with which probability.
//!
//! A [`FaultPlan`] is pure data — rates for the per-frame fault ladder,
//! plus timed node crashes and coordinator↔node partitions — and one RNG
//! seed. The same plan and seed always produce the same injected-fault
//! sequence (see `ChaosFabric`), which is what makes a chaos failure
//! reproducible from its trace.

use automon_core::NodeId;
use serde::{Deserialize, Serialize};

/// A timed node crash, with an optional restart.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// The node that dies.
    pub node: NodeId,
    /// Round at which it dies (messages to/from it fail from this round).
    pub at: usize,
    /// Round at which a fresh process comes back up, if any. The
    /// restarted node has lost all protocol state and must re-register.
    pub restart: Option<usize>,
}

/// A coordinator↔node partition over a round interval.
///
/// While active, frames between the coordinator and the listed nodes
/// vanish silently in both directions — unlike a crash, nothing ever
/// reports a connection failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Nodes cut off from the coordinator.
    pub nodes: Vec<NodeId>,
    /// First round of the partition (inclusive).
    pub from: usize,
    /// First round after the partition heals (exclusive).
    pub until: usize,
}

impl Partition {
    /// `true` when `node` is unreachable at `round`.
    pub fn cuts(&self, node: NodeId, round: usize) -> bool {
        round >= self.from && round < self.until && self.nodes.contains(&node)
    }
}

/// A deterministic, seeded schedule of faults.
///
/// Per-frame faults (drop, duplicate, reorder, delay) are decided by a
/// single RNG draw per frame against a threshold ladder, so rates are
/// mutually exclusive per frame and must sum to at most 1. Timed faults
/// (crashes, partitions) fire by round number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RNG seed; same seed + same plan ⇒ identical fault sequence.
    pub seed: u64,
    /// Probability a frame is dropped.
    pub drop_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame is delivered after the frames queued behind it.
    pub reorder_rate: f64,
    /// Probability a frame is held for 1..=`max_delay_rounds` rounds.
    pub delay_rate: f64,
    /// Longest delivery delay, in rounds.
    pub max_delay_rounds: usize,
    /// Timed node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Timed partitions.
    pub partitions: Vec<Partition>,
    /// Rounds at which the *coordinator* crashes and is rebuilt from
    /// its durable store (WAL + snapshot; see
    /// `sim::Simulation::with_store`). Absent in plans serialized by
    /// older versions.
    #[serde(default)]
    pub coordinator_crashes: Vec<usize>,
}

impl FaultPlan {
    /// The no-fault plan: wrapping a fabric with it changes nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            max_delay_rounds: 0,
            crashes: Vec::new(),
            partitions: Vec::new(),
            coordinator_crashes: Vec::new(),
        }
    }

    /// A no-fault plan with a seed, ready for `with_*` composition.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Set the frame drop probability.
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Set the frame duplication probability.
    pub fn with_duplicate_rate(mut self, p: f64) -> Self {
        self.duplicate_rate = p;
        self
    }

    /// Set the frame reorder probability.
    pub fn with_reorder_rate(mut self, p: f64) -> Self {
        self.reorder_rate = p;
        self
    }

    /// Set the frame delay probability and the maximum delay.
    pub fn with_delay(mut self, p: f64, max_rounds: usize) -> Self {
        self.delay_rate = p;
        self.max_delay_rounds = max_rounds;
        self
    }

    /// Schedule a crash (and optional restart) for `node`.
    pub fn with_crash(mut self, node: NodeId, at: usize, restart: Option<usize>) -> Self {
        self.crashes.push(NodeCrash { node, at, restart });
        self
    }

    /// Schedule a coordinator crash (+ recovery from the durable store)
    /// at the start of `round`.
    pub fn with_coordinator_crash(mut self, round: usize) -> Self {
        self.coordinator_crashes.push(round);
        self
    }

    /// Schedule a partition cutting `nodes` off during `[from, until)`.
    pub fn with_partition(mut self, nodes: Vec<NodeId>, from: usize, until: usize) -> Self {
        self.partitions.push(Partition { nodes, from, until });
        self
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.delay_rate == 0.0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.coordinator_crashes.is_empty()
    }

    /// `true` when `node` is partitioned from the coordinator at `round`.
    pub fn partitioned(&self, node: NodeId, round: usize) -> bool {
        self.partitions.iter().any(|p| p.cuts(node, round))
    }

    /// `true` when any partition is active at `round`.
    pub fn partition_active(&self, round: usize) -> bool {
        self.partitions
            .iter()
            .any(|p| round >= p.from && round < p.until)
    }

    /// Validate rate invariants.
    ///
    /// # Panics
    /// Panics when a rate is outside `[0, 1]`, the rates sum past 1, or
    /// delay is enabled with `max_delay_rounds == 0`.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop_rate", self.drop_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("reorder_rate", self.reorder_rate),
            ("delay_rate", self.delay_rate),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} out of [0, 1]: {p}");
        }
        let total = self.drop_rate + self.duplicate_rate + self.reorder_rate + self.delay_rate;
        assert!(total <= 1.0, "fault rates sum past 1: {total}");
        assert!(
            self.delay_rate == 0.0 || self.max_delay_rounds > 0,
            "delay_rate > 0 requires max_delay_rounds > 0"
        );
    }
}

/// Recovery policy for a chaos run: how patiently the endpoints wait
/// before retransmitting, and how many dead-connection failures the
/// coordinator tolerates before evicting a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Rounds a report/pull stays unanswered before the first
    /// retransmission; subsequent waits double (exponential backoff).
    pub retransmit_after: usize,
    /// Consecutive dead-connection failures before the coordinator
    /// declares the node dead and redistributes its slack.
    pub evict_after: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            retransmit_after: 4,
            evict_after: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().with_drop_rate(0.1).is_none());
        FaultPlan::none().validate();
    }

    #[test]
    fn partition_window_is_half_open() {
        let p = FaultPlan::seeded(1).with_partition(vec![1, 2], 10, 20);
        assert!(!p.partitioned(1, 9));
        assert!(p.partitioned(1, 10));
        assert!(p.partitioned(2, 19));
        assert!(!p.partitioned(2, 20));
        assert!(!p.partitioned(0, 15));
        assert!(p.partition_active(15));
        assert!(!p.partition_active(25));
    }

    #[test]
    #[should_panic(expected = "sum past 1")]
    fn oversubscribed_rates_rejected() {
        FaultPlan::seeded(0)
            .with_drop_rate(0.6)
            .with_duplicate_rate(0.6)
            .validate();
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::seeded(42)
            .with_drop_rate(0.1)
            .with_delay(0.05, 3)
            .with_crash(1, 50, Some(80))
            .with_partition(vec![0], 10, 30);
        let s = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(plan, back);
    }
}
