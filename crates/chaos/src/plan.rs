//! The fault schedule: what goes wrong, when, with which probability —
//! and which executor can make it happen.
//!
//! A [`FaultPlan`] is pure data — rates for the per-frame fault ladder,
//! timed node, leaf and coordinator crashes, coordinator↔node
//! partitions — and one RNG seed. It is the only schedule type in the
//! workspace: the flat driver's links and the fleet runner all take one,
//! each running the [`PlanPart`]s its [`Executor`] constant names and
//! refusing, with one message, a plan that uses any other. The same plan
//! and seed always produce the same injected-fault sequence, which is
//! what makes a chaos failure reproducible from its trace.

use serde::{Deserialize, Serialize};

/// A timed node crash, with an optional restart. Under the fleet `node`
/// is a global stream id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// The node that dies.
    pub node: usize,
    /// Round at which it dies (messages to/from it fail from this round).
    pub at: usize,
    /// Round at which a fresh process comes back up, if any. The
    /// restarted node has lost all protocol state and must re-register.
    pub restart: Option<usize>,
}

/// A permanent leaf-coordinator crash in a fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeafCrash {
    /// Leaf (shard) index.
    pub leaf: usize,
    /// Round the crash takes effect (before that round's updates).
    pub at: usize,
}

/// A coordinator↔node partition over a round interval.
///
/// While active, frames between the coordinator and the listed nodes
/// vanish silently in both directions — unlike a crash, nothing ever
/// reports a connection failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Nodes cut off from the coordinator.
    pub nodes: Vec<usize>,
    /// First round of the partition (inclusive).
    pub from: usize,
    /// First round after the partition heals (exclusive).
    pub until: usize,
}

impl Partition {
    /// `true` when `node` is unreachable at `round`.
    pub fn cuts(&self, node: usize, round: usize) -> bool {
        round >= self.from && round < self.until && self.nodes.contains(&node)
    }
}

/// One timed fault falling due in a round (see [`FaultPlan::timed_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedFault {
    /// The coordinator dies and is rebuilt from its durable store.
    CoordinatorCrash,
    /// This node's (stream's) process dies.
    NodeCrash(usize),
    /// This node's (stream's) process comes back, state-less.
    NodeRestart(usize),
    /// This leaf coordinator dies for good.
    LeafCrash(usize),
}

/// The independently executable parts of a plan. An [`Executor`] names
/// the ones it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPart {
    /// The per-frame drop/duplicate/reorder/delay ladder.
    FrameFaults,
    /// Timed node crashes and restarts.
    NodeCrashes,
    /// Coordinator↔node partitions.
    Partitions,
    /// Timed coordinator crashes.
    CoordinatorCrashes,
    /// Timed leaf-coordinator crashes.
    LeafCrashes,
}

impl PlanPart {
    /// Every part, in the order refusals list them.
    pub const ALL: [PlanPart; 5] = [
        Self::FrameFaults,
        Self::NodeCrashes,
        Self::Partitions,
        Self::CoordinatorCrashes,
        Self::LeafCrashes,
    ];

    /// The part's name in a refusal.
    pub fn name(self) -> &'static str {
        match self {
            Self::FrameFaults => "frame faults",
            Self::NodeCrashes => "node crashes",
            Self::Partitions => "partitions",
            Self::CoordinatorCrashes => "coordinator crashes",
            Self::LeafCrashes => "leaf crashes",
        }
    }
}

/// Something that executes fault plans: its name in a refusal and the
/// plan parts it runs. Every link of the round driver and the fleet
/// runner carries one as a constant; running a weaker plan than the one
/// given would be silent, so each admits a plan before its first round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    /// Who is refusing, e.g. `"socket link"`.
    pub name: &'static str,
    /// The parts this executor runs.
    pub runs: &'static [PlanPart],
}

impl Executor {
    /// `Ok` when this executor runs every part `plan` uses and the plan
    /// is [valid](FaultPlan::validate) for `nodes` nodes (streams) and
    /// `leaves` leaf coordinators; otherwise the message to refuse it
    /// with.
    pub fn admit(&self, plan: &FaultPlan, nodes: usize, leaves: usize) -> Result<(), String> {
        let refused = names(plan.parts().filter(|p| !self.runs.contains(p)));
        if !refused.is_empty() {
            let runs = match self.runs {
                [] => "no faults".to_string(),
                runs => names(runs.iter().copied()),
            };
            return Err(format!(
                "the {} does not run {refused} (it runs {runs})",
                self.name
            ));
        }
        plan.validate(nodes, leaves)
    }
}

fn names(parts: impl Iterator<Item = PlanPart>) -> String {
    parts.map(PlanPart::name).collect::<Vec<_>>().join(", ")
}

/// A deterministic, seeded schedule of faults.
///
/// Per-frame faults (drop, duplicate, reorder, delay) are decided by a
/// single RNG draw per frame against a threshold ladder, so rates are
/// mutually exclusive per frame and must sum to at most 1. Timed faults
/// (crashes, partitions) fire by round number.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// Timed leaf-coordinator crashes (fleet runs). Absent in plans
    /// serialized by older versions.
    #[serde(default)]
    pub leaf_crashes: Vec<LeafCrash>,
}

impl FaultPlan {
    /// The no-fault plan: wrapping a fabric with it changes nothing.
    pub fn none() -> Self {
        Self::default()
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
    pub fn with_crash(mut self, node: usize, at: usize, restart: Option<usize>) -> Self {
        self.crashes.push(NodeCrash { node, at, restart });
        self
    }

    /// Schedule a permanent crash of leaf coordinator `leaf`.
    pub fn with_leaf_crash(mut self, leaf: usize, at: usize) -> Self {
        self.leaf_crashes.push(LeafCrash { leaf, at });
        self
    }

    /// Schedule a coordinator crash (+ recovery from the durable store)
    /// at the start of `round`.
    pub fn with_coordinator_crash(mut self, round: usize) -> Self {
        self.coordinator_crashes.push(round);
        self
    }

    /// Schedule a partition cutting `nodes` off during `[from, until)`.
    pub fn with_partition(mut self, nodes: Vec<usize>, from: usize, until: usize) -> Self {
        self.partitions.push(Partition { nodes, from, until });
        self
    }

    /// The parts this plan uses, in [`PlanPart::ALL`] order.
    pub fn parts(&self) -> impl Iterator<Item = PlanPart> + '_ {
        PlanPart::ALL.into_iter().filter(|part| match part {
            PlanPart::FrameFaults => {
                self.drop_rate != 0.0
                    || self.duplicate_rate != 0.0
                    || self.reorder_rate != 0.0
                    || self.delay_rate != 0.0
            }
            PlanPart::NodeCrashes => !self.crashes.is_empty(),
            PlanPart::Partitions => !self.partitions.is_empty(),
            PlanPart::CoordinatorCrashes => !self.coordinator_crashes.is_empty(),
            PlanPart::LeafCrashes => !self.leaf_crashes.is_empty(),
        })
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.parts().next().is_none()
    }

    /// The timed faults falling due at `round`, in the order every
    /// executor applies them: the coordinator crash, then node crashes,
    /// then node restarts, then leaf crashes — declaration order within
    /// each kind. Partitions are intervals, not events; see
    /// [`FaultPlan::partitioned`].
    pub fn timed_at(&self, round: usize) -> impl Iterator<Item = TimedFault> + '_ {
        let coordinator = self
            .coordinator_crashes
            .contains(&round)
            .then_some(TimedFault::CoordinatorCrash);
        let crashes = self.crashes.iter().filter(move |c| c.at == round);
        let restarts = self.crashes.iter().filter(move |c| c.restart == Some(round));
        let leaves = self.leaf_crashes.iter().filter(move |c| c.at == round);
        coordinator
            .into_iter()
            .chain(crashes.map(|c| TimedFault::NodeCrash(c.node)))
            .chain(restarts.map(|c| TimedFault::NodeRestart(c.node)))
            .chain(leaves.map(|c| TimedFault::LeafCrash(c.leaf)))
    }

    /// `true` when `node` is partitioned from the coordinator at `round`.
    pub fn partitioned(&self, node: usize, round: usize) -> bool {
        self.partitions.iter().any(|p| p.cuts(node, round))
    }

    /// `true` when any partition is active at `round`.
    pub fn partition_active(&self, round: usize) -> bool {
        self.partitions
            .iter()
            .any(|p| round >= p.from && round < p.until)
    }

    /// Check the plan against a topology of `nodes` nodes (streams) and
    /// `leaves` leaf coordinators: every rate in `[0, 1]` and their sum at
    /// most 1, a delay bound when frames can be delayed, restarts after
    /// their crash, non-empty partition windows, and every node and leaf
    /// id in range. The error names the first offending entry.
    pub fn validate(&self, nodes: usize, leaves: usize) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop_rate),
            ("duplicate", self.duplicate_rate),
            ("reorder", self.reorder_rate),
            ("delay", self.delay_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} rate must be in [0, 1], got {p}"));
            }
        }
        let total = self.drop_rate + self.duplicate_rate + self.reorder_rate + self.delay_rate;
        if total > 1.0 {
            return Err(format!("fault rates must sum to at most 1, got {total}"));
        }
        if self.delay_rate > 0.0 && self.max_delay_rounds == 0 {
            return Err("a delay rate needs a delay bound of at least 1 round".into());
        }
        let node_in_range = |node: usize| {
            if node < nodes {
                Ok(())
            } else {
                Err(format!("node {node} out of range (nodes = {nodes})"))
            }
        };
        for c in &self.crashes {
            node_in_range(c.node)?;
            if let Some(restart) = c.restart.filter(|&r| r <= c.at) {
                return Err(format!(
                    "node {} must restart after its crash at round {}, not at round {restart}",
                    c.node, c.at
                ));
            }
        }
        for p in &self.partitions {
            p.nodes.iter().try_for_each(|&node| node_in_range(node))?;
            if p.until <= p.from {
                return Err(format!(
                    "partition of {:?} must heal after it starts (rounds {}..{})",
                    p.nodes, p.from, p.until
                ));
            }
        }
        for c in &self.leaf_crashes {
            if c.leaf >= leaves {
                return Err(format!("leaf {} out of range (shards = {leaves})", c.leaf));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().with_drop_rate(0.1).is_none());
        assert!(!FaultPlan::none().with_leaf_crash(0, 3).is_none());
        assert_eq!(FaultPlan::none().validate(0, 0), Ok(()));
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
    fn validate_names_the_first_offending_entry() {
        let ok = FaultPlan::seeded(0);
        for (plan, needle) in [
            (ok.clone().with_drop_rate(2.0), "drop rate must be in [0, 1], got 2"),
            (ok.clone().with_reorder_rate(-0.1), "reorder rate"),
            (
                ok.clone().with_drop_rate(0.7).with_duplicate_rate(0.7),
                "sum to at most 1",
            ),
            (ok.clone().with_delay(0.2, 0), "needs a delay bound"),
            (ok.clone().with_crash(4, 1, None), "node 4 out of range (nodes = 4)"),
            (ok.clone().with_crash(1, 5, Some(3)), "must restart after its crash"),
            (ok.clone().with_crash(1, 5, Some(5)), "must restart after its crash"),
            (ok.clone().with_partition(vec![0, 7], 1, 2), "node 7 out of range"),
            (ok.clone().with_partition(vec![0], 20, 10), "must heal after it starts"),
            (ok.clone().with_leaf_crash(2, 1), "leaf 2 out of range (shards = 2)"),
        ] {
            let err = plan.validate(4, 2).expect_err(needle);
            assert!(err.contains(needle), "{err}");
        }
        let full = ok
            .with_drop_rate(0.5)
            .with_delay(0.5, 1)
            .with_crash(3, 5, Some(6))
            .with_partition(vec![0, 3], 1, 2)
            .with_coordinator_crash(9)
            .with_leaf_crash(1, 1);
        assert_eq!(full.validate(4, 2), Ok(()));
    }

    /// All four timed kinds in one round come out in the one fixed order,
    /// declaration order within a kind, whatever order they were declared
    /// in; other rounds' entries stay out.
    #[test]
    fn timed_faults_come_in_the_fixed_order() {
        let plan = FaultPlan::seeded(0)
            .with_leaf_crash(2, 7)
            .with_crash(5, 3, Some(7))
            .with_crash(1, 7, None)
            .with_leaf_crash(0, 7)
            .with_crash(4, 7, Some(9))
            .with_crash(6, 2, Some(7))
            .with_coordinator_crash(9)
            .with_coordinator_crash(7)
            .with_partition(vec![0], 7, 8);
        assert_eq!(
            plan.timed_at(7).collect::<Vec<_>>(),
            vec![
                TimedFault::CoordinatorCrash,
                TimedFault::NodeCrash(1),
                TimedFault::NodeCrash(4),
                TimedFault::NodeRestart(5),
                TimedFault::NodeRestart(6),
                TimedFault::LeafCrash(2),
                TimedFault::LeafCrash(0),
            ]
        );
        assert_eq!(plan.timed_at(8).count(), 0);
        assert_eq!(
            plan.timed_at(9).collect::<Vec<_>>(),
            vec![TimedFault::CoordinatorCrash, TimedFault::NodeRestart(4)]
        );
    }

    #[test]
    fn executor_refuses_the_parts_it_does_not_run() {
        const FRAMES_ONLY: Executor = Executor {
            name: "test link",
            runs: &[PlanPart::FrameFaults],
        };
        const NOTHING: Executor = Executor {
            name: "inert link",
            runs: &[],
        };
        let plan = FaultPlan::seeded(1)
            .with_drop_rate(0.1)
            .with_crash(0, 1, None)
            .with_leaf_crash(0, 2);
        assert_eq!(
            FRAMES_ONLY.admit(&plan, 2, 1).unwrap_err(),
            "the test link does not run node crashes, leaf crashes (it runs frame faults)"
        );
        assert_eq!(
            NOTHING.admit(&plan, 2, 1).unwrap_err(),
            "the inert link does not run frame faults, node crashes, leaf crashes \
             (it runs no faults)"
        );
        assert_eq!(NOTHING.admit(&FaultPlan::seeded(9), 2, 1), Ok(()));
        // A part it runs is still validated.
        let err = FRAMES_ONLY
            .admit(&FaultPlan::seeded(1).with_drop_rate(2.0), 2, 1)
            .unwrap_err();
        assert!(err.contains("drop rate"), "{err}");
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::seeded(42)
            .with_drop_rate(0.1)
            .with_delay(0.05, 3)
            .with_crash(1, 50, Some(80))
            .with_partition(vec![0], 10, 30)
            .with_leaf_crash(2, 40);
        let s = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(plan, back);
    }

    /// A plan written before `leaf_crashes` (and `coordinator_crashes`)
    /// existed reads back as the same plan with none scheduled.
    #[test]
    fn plan_json_without_leaf_crashes_still_reads() {
        let old = r#"{"seed":42,"drop_rate":0.1,"duplicate_rate":0.0,"reorder_rate":0.0,
            "delay_rate":0.05,"max_delay_rounds":3,
            "crashes":[{"node":1,"at":50,"restart":80}],
            "partitions":[{"nodes":[0],"from":10,"until":30}]}"#;
        let plan: FaultPlan = serde_json::from_str(old).unwrap();
        let expected = FaultPlan::seeded(42)
            .with_drop_rate(0.1)
            .with_delay(0.05, 3)
            .with_crash(1, 50, Some(80))
            .with_partition(vec![0], 10, 30);
        assert_eq!(plan, expected);
    }
}
