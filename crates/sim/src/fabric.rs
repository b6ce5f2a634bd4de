//! The chaos link: the in-process [`CountingFabric`] behind a fault plan.
//!
//! Every frame crossing the link — node→coordinator reports and
//! coordinator→node installs alike — waits in one [`FaultQueue`] and is
//! gated when popped. The gate first consults the timed schedule (crashed
//! nodes fail the delivery, partitioned nodes swallow it silently), then,
//! for a fresh frame, makes exactly one RNG draw against the plan's
//! threshold ladder to pick at most one probabilistic fault: drop,
//! duplicate, reorder, or delay, which the queue carries out. Because the
//! draws are strictly sequential and the schedule is pure data, the same
//! plan and seed always yield the same [`FaultEvent`] trace, byte for
//! byte — a chaos failure replays exactly. The schedule checks apply to
//! re-injected frames too: a delayed frame maturing into a partition
//! still vanishes.

use std::collections::BTreeMap;

use automon_chaos::{
    Direction, Executor, FaultEvent, FaultKind, FaultPlan, FaultQueue, GateVerdict, LadderGate,
    PlanPart, TimedFault,
};
use automon_core::{CommCause, CommLedger, NodeId, NodeMessage, Outbound};
use automon_net::{CountingFabric, TrafficStats};
use automon_obs::{Counter, SpanId, Telemetry};

use crate::link::{Link, Peers};

/// A failed delivery the sender can observe: the peer's connection was
/// dead. Partitions deliberately do *not* produce these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeliveryFailure {
    /// The crashed endpoint.
    pub node: NodeId,
    /// Direction the failed frame was travelling.
    pub dir: Direction,
}

/// A frame in flight. Upward frames carry the trace span riding their
/// header and the ledger cause their bytes are charged to on delivery
/// (downward frames carry both inside the [`Outbound`]); a re-injected
/// copy keeps them, so a duplicate or matured delayed frame is charged
/// like the original.
#[derive(Debug, Clone)]
enum Pending {
    ToCoord {
        msg: NodeMessage,
        span: SpanId,
        cause: CommCause,
    },
    ToNode(Outbound),
}

impl Pending {
    fn endpoint(&self) -> (NodeId, Direction) {
        match self {
            Self::ToCoord { msg, .. } => (msg.sender(), Direction::NodeToCoord),
            Self::ToNode(out) => (out.to, Direction::CoordToNode),
        }
    }
}

/// Every fault kind, in the order the link registers its counters.
const KINDS: [FaultKind; 9] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::Delay { rounds: 0 },
    FaultKind::NodeDown,
    FaultKind::PartitionDrop,
    FaultKind::Crash,
    FaultKind::Restart,
    FaultKind::CoordinatorCrash,
];

/// The fault-injecting fabric as a [`Link`].
///
/// Counters only advance for frames that actually deliver, so a run
/// under [`FaultPlan::none`] produces byte-identical [`TrafficStats`] to
/// the bare fabric. The link is strictly sequential (one `record` call
/// at a time, in deterministic order), so the `fault` events it emits
/// replay byte-identically, mirroring its fault trace.
pub(crate) struct ChaosLink {
    inner: CountingFabric,
    plan: FaultPlan,
    /// The probabilistic ladder, shared with the reactor link: one
    /// implementation, one draw sequence.
    ladder: LadderGate,
    round: usize,
    crashed: Vec<bool>,
    trace: Vec<FaultEvent>,
    /// Every frame in flight, delayed ones included.
    queue: FaultQueue<Pending>,
    failures: Vec<DeliveryFailure>,
    tel: Telemetry,
    /// Faults injected, by [`FaultKind::name`].
    counters: BTreeMap<&'static str, Counter>,
}

impl ChaosLink {
    /// What this link executes of a plan. Coordinator crashes are
    /// recorded here and carried out by the round driver.
    pub const EXECUTOR: Executor = Executor {
        name: "in-process fabric",
        runs: &[
            PlanPart::FrameFaults,
            PlanPart::NodeCrashes,
            PlanPart::Partitions,
            PlanPart::CoordinatorCrashes,
        ],
    };

    /// Wrap `inner`, injecting faults per `plan` over `n` nodes, with a
    /// counter per fault kind and a `fault` event per injection on `tel`.
    /// The driver has admitted `plan` against [`ChaosLink::EXECUTOR`].
    pub fn new(inner: CountingFabric, plan: FaultPlan, n: usize, tel: Telemetry) -> Self {
        let counters = KINDS
            .iter()
            .map(|kind| {
                let name = kind.name();
                let counter = tel.counter(
                    &format!("automon_chaos_faults_total{{kind=\"{name}\"}}"),
                    "Faults injected by the chaos fabric, by kind",
                );
                (name, counter)
            })
            .collect();
        Self {
            inner,
            ladder: LadderGate::new(&plan),
            plan,
            round: 0,
            crashed: vec![false; n],
            trace: Vec::new(),
            queue: FaultQueue::default(),
            failures: Vec::new(),
            tel,
            counters,
        }
    }

    /// FIFO delivery loop: pop a frame, gate it, deliver survivors
    /// through the counting fabric, enqueue replies at the back.
    fn drain(&mut self, peers: &mut Peers) {
        while let Some((frame, fresh)) = self.queue.pop() {
            let (node, dir) = frame.endpoint();
            if self.crashed[node] {
                self.record(dir, node, FaultKind::NodeDown);
                self.failures.push(DeliveryFailure { node, dir });
                continue;
            }
            if self.plan.partitioned(node, self.round) {
                self.record(dir, node, FaultKind::PartitionDrop);
                continue;
            }
            let verdict = if fresh {
                self.ladder.gate()
            } else {
                GateVerdict::Deliver
            };
            let fault = match verdict {
                GateVerdict::Deliver => None,
                GateVerdict::DeliverTwice => Some(FaultKind::Duplicate),
                GateVerdict::Reorder => Some(FaultKind::Reorder),
                GateVerdict::Delay(rounds) => Some(FaultKind::Delay { rounds }),
                GateVerdict::Discard => Some(FaultKind::Drop),
            };
            if let Some(kind) = fault {
                self.record(dir, node, kind);
            }
            if let Some(frame) = self.queue.settle(frame, verdict) {
                self.deliver(peers, frame);
            }
        }
    }

    fn deliver(&mut self, Peers { coord, nodes }: &mut Peers, frame: Pending) {
        match frame {
            Pending::ToCoord { msg, span, cause } => {
                for out in self.inner.deliver_to_coordinator_as(coord, msg, cause, span) {
                    self.queue.push(Pending::ToNode(out));
                }
            }
            Pending::ToNode(out) => {
                let to = out.to;
                // The reply inherits the eliciting outbound's span and
                // cause (a pull reply answers the pull).
                if let Some((reply, span, cause)) =
                    self.inner.deliver_to_node_tagged(&mut nodes[to], out)
                {
                    self.queue.push(Pending::ToCoord {
                        msg: reply,
                        span,
                        cause,
                    });
                }
            }
        }
    }

    fn record(&mut self, dir: Direction, node: NodeId, kind: FaultKind) {
        self.counters[kind.name()].inc();
        if self.tel.is_enabled() {
            let mut fields: Vec<(&str, automon_obs::FieldValue)> = vec![
                ("fault", kind.name().into()),
                ("node", node.into()),
                ("dir", dir.name().into()),
            ];
            if let FaultKind::Delay { rounds } = kind {
                fields.push(("delay_rounds", rounds.into()));
            }
            self.tel.event("fault", &fields);
        }
        self.trace.push(FaultEvent {
            seq: self.trace.len() as u64,
            round: self.round,
            dir,
            node,
            kind,
        });
    }
}

impl Link for ChaosLink {
    /// Fire the round's timed faults in [`FaultPlan::timed_at`] order.
    fn begin_round(&mut self, round: usize) -> Vec<NodeId> {
        self.round = round;
        self.queue.begin_round(round);
        let due: Vec<TimedFault> = self.plan.timed_at(round).collect();
        let mut restarted = Vec::new();
        for fault in due {
            match fault {
                // The coordinator has no NodeId; by convention its fault
                // events carry node 0 with the NodeToCoord direction.
                TimedFault::CoordinatorCrash => {
                    self.record(Direction::NodeToCoord, 0, FaultKind::CoordinatorCrash);
                }
                TimedFault::NodeCrash(node) if !self.crashed[node] => {
                    self.crashed[node] = true;
                    self.record(Direction::NodeToCoord, node, FaultKind::Crash);
                }
                TimedFault::NodeRestart(node) if self.crashed[node] => {
                    self.crashed[node] = false;
                    self.record(Direction::NodeToCoord, node, FaultKind::Restart);
                    restarted.push(node);
                }
                // Already down, or already up.
                TimedFault::NodeCrash(_) | TimedFault::NodeRestart(_) => {}
                TimedFault::LeafCrash(_) => unreachable!("refused by `EXECUTOR`"),
            }
        }
        restarted
    }
    fn release_matured(&mut self, peers: &mut Peers) {
        self.queue.release_matured();
        self.drain(peers);
    }
    fn report(&mut self, peers: &mut Peers, msg: NodeMessage, cause: CommCause, span: SpanId) {
        self.queue.push(Pending::ToCoord { msg, span, cause });
        self.drain(peers);
    }
    fn push(&mut self, peers: &mut Peers, outs: Vec<Outbound>, cause: CommCause) {
        for out in outs {
            self.queue.push(Pending::ToNode(Outbound { cause, ..out }));
        }
        self.drain(peers);
    }
    fn node_down(&self, node: NodeId) -> bool {
        self.crashed[node]
    }
    /// Frames held back by a delay; nothing else is in flight between calls.
    fn frames_in_flight(&self) -> usize {
        self.queue.in_flight()
    }
    fn take_delivery_failures(&mut self) -> Vec<DeliveryFailure> {
        std::mem::take(&mut self.failures)
    }
    fn stats(&self) -> &TrafficStats {
        self.inner.stats()
    }
    /// Delivered frames only: dropped, swallowed, and still-delayed frames
    /// are uncharged, so conservation against the stats holds under faults.
    fn ledger(&self) -> &CommLedger {
        self.inner.ledger()
    }
    fn fault_trace(&self) -> &[FaultEvent] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::{Coordinator, MonitorConfig, MonitoredFunction, Node};
    use std::sync::Arc;

    struct Mean;
    impl ScalarFn for Mean {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            (x[0] + x[1]) * S::from_f64(0.5)
        }
    }

    fn f() -> Arc<dyn MonitoredFunction> {
        Arc::new(AutoDiffFn::new(Mean))
    }

    fn chaos(plan: FaultPlan, n: usize) -> ChaosLink {
        ChaosLink::new(CountingFabric::new(), plan, n, Telemetry::disabled())
    }

    /// Route a report under its intrinsic cause, outside any span.
    fn route(link: &mut impl Link, peers: &mut Peers, m: NodeMessage) {
        let cause = CommCause::of_node_message(&m);
        link.report(peers, m, cause, SpanId::NONE);
    }

    fn setup(n: usize) -> Peers {
        let f = f();
        let coord = Coordinator::new(f.clone(), n, MonitorConfig::builder(0.5).build());
        let nodes = (0..n).map(|i| Node::new(i, f.clone())).collect();
        Peers { coord, nodes }
    }

    /// Run a short noisy workload and return (trace, stats).
    fn run_noisy(plan: FaultPlan, rounds: usize) -> (Vec<FaultEvent>, TrafficStats) {
        let n = 4;
        let mut peers = setup(n);
        let mut link = chaos(plan, n);
        for round in 0..rounds {
            let restarted = link.begin_round(round);
            for id in restarted {
                peers.nodes[id] = Node::new(id, f());
            }
            link.release_matured(&mut peers);
            for i in 0..n {
                if link.node_down(i) {
                    continue;
                }
                let drift = (round as f64) * 0.37 + i as f64;
                if let Some(m) = peers.nodes[i].update_data(vec![drift.sin(), drift.cos()]) {
                    route(&mut link, &mut peers, m);
                }
            }
        }
        (link.fault_trace().to_vec(), link.stats().clone())
    }

    #[test]
    fn same_seed_same_trace_and_stats() {
        let plan = FaultPlan::seeded(0xC0FFEE)
            .with_drop_rate(0.10)
            .with_duplicate_rate(0.05)
            .with_reorder_rate(0.05)
            .with_delay(0.05, 3)
            .with_crash(2, 10, Some(20))
            .with_partition(vec![1], 5, 9);
        let (trace_a, stats_a) = run_noisy(plan.clone(), 30);
        let (trace_b, stats_b) = run_noisy(plan, 30);
        assert!(!trace_a.is_empty(), "noisy plan should inject something");
        assert_eq!(trace_a, trace_b, "same seed must replay bit-identically");
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn different_seed_different_trace() {
        let base = FaultPlan::seeded(1).with_drop_rate(0.25);
        let (trace_a, _) = run_noisy(base.clone(), 30);
        let (trace_b, _) = run_noisy(FaultPlan { seed: 2, ..base }, 30);
        assert_ne!(trace_a, trace_b);
    }

    #[test]
    fn none_plan_is_transparent() {
        let n = 3;
        let mut peers_a = setup(n);
        let mut bare = CountingFabric::new();
        let mut peers_b = setup(n);
        let mut chaos = chaos(FaultPlan::none(), n);
        for round in 0..20 {
            assert!(chaos.begin_round(round).is_empty());
            chaos.release_matured(&mut peers_b);
            assert_eq!(chaos.frames_in_flight(), 0);
            for i in 0..n {
                let x = vec![(round * 7 + i) as f64 * 0.11, (round + i) as f64 * -0.3];
                if let Some(m) = peers_a.nodes[i].update_data(x.clone()) {
                    route(&mut bare, &mut peers_a, m);
                }
                if let Some(m) = peers_b.nodes[i].update_data(x) {
                    route(&mut chaos, &mut peers_b, m);
                }
            }
        }
        assert_eq!(chaos.fault_trace(), &[] as &[FaultEvent]);
        assert_eq!(
            chaos.stats(),
            bare.stats(),
            "FaultPlan::none must be byte-identical to the unwrapped fabric"
        );
        assert_eq!(chaos.ledger().entries(), bare.ledger().entries());
    }

    #[test]
    fn crash_reports_node_down_and_restart_fires_once() {
        let n = 2;
        let mut peers = setup(n);
        let plan = FaultPlan::seeded(9).with_crash(1, 1, Some(3));
        let mut link = chaos(plan, n);

        assert!(link.begin_round(0).is_empty());
        for i in 0..n {
            if let Some(m) = peers.nodes[i].update_data(vec![0.1 * i as f64, 0.2]) {
                route(&mut link, &mut peers, m);
            }
        }

        assert!(link.begin_round(1).is_empty());
        assert!(link.node_down(1));
        // A pull addressed to the dead node must fail observably.
        link.push(
            &mut peers,
            vec![Outbound::new(
                1,
                automon_core::CoordinatorMessage::RequestLocalVector { epoch: 0 },
                CommCause::FullSync,
            )],
            CommCause::Retransmit,
        );
        let failures = link.take_delivery_failures();
        assert_eq!(
            failures,
            vec![DeliveryFailure {
                node: 1,
                dir: Direction::CoordToNode
            }]
        );
        assert!(link.take_delivery_failures().is_empty(), "drained");

        assert!(link.begin_round(2).is_empty());
        assert_eq!(link.begin_round(3), vec![1]);
        assert!(!link.node_down(1));
        assert_eq!(link.begin_round(4), vec![], "restart fires once");

        let kinds: Vec<FaultKind> = link.fault_trace().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultKind::Crash));
        assert!(kinds.contains(&FaultKind::NodeDown));
        assert!(kinds.contains(&FaultKind::Restart));
    }

    #[test]
    fn partition_swallows_without_failure() {
        let n = 2;
        let mut peers = setup(n);
        let plan = FaultPlan::seeded(4).with_partition(vec![0], 0, 5);
        let mut link = chaos(plan, n);
        link.begin_round(0);
        let m = peers.nodes[0].update_data(vec![1.0, 2.0]).expect("first report");
        route(&mut link, &mut peers, m);
        assert_eq!(link.stats().node_to_coord_msgs, 0, "frame swallowed");
        assert!(link.take_delivery_failures().is_empty());
        assert_eq!(link.fault_trace().len(), 1);
        assert_eq!(link.fault_trace()[0].kind, FaultKind::PartitionDrop);

        // After the partition heals, the node's retransmission of the
        // still-outstanding report goes through.
        link.begin_round(5);
        let m = peers.nodes[0].retransmit_report().expect("outstanding report");
        route(&mut link, &mut peers, m);
        assert_eq!(link.stats().node_to_coord_msgs, 1);
    }

    #[test]
    fn delayed_frames_mature_in_order() {
        let n = 2;
        let mut peers = setup(n);
        // delay_rate 1.0: every fresh frame is delayed.
        let plan = FaultPlan::seeded(11).with_delay(1.0, 2);
        let mut link = chaos(plan, n);
        link.begin_round(0);
        let m = peers.nodes[0].update_data(vec![0.5, 0.5]).expect("report");
        route(&mut link, &mut peers, m);
        assert_eq!(link.stats().node_to_coord_msgs, 0);
        assert_eq!(link.frames_in_flight(), 1);

        for round in 1..=3 {
            link.begin_round(round);
            link.release_matured(&mut peers);
        }
        assert_eq!(link.frames_in_flight(), 0);
        assert_eq!(link.stats().node_to_coord_msgs, 1, "matured and counted");
    }

    #[test]
    fn duplicate_delivers_twice_and_is_not_reduplicated() {
        let n = 2;
        let mut peers = setup(n);
        let plan = FaultPlan::seeded(5).with_duplicate_rate(1.0);
        let mut link = chaos(plan, n);
        link.begin_round(0);
        let m = peers.nodes[0].update_data(vec![0.5, 0.5]).expect("report");
        route(&mut link, &mut peers, m);
        // The report is duplicated (2 deliveries); the coordinator's
        // replies are gated too but the copies are not re-split, so the
        // cascade terminates.
        assert_eq!(link.stats().node_to_coord_msgs, 2);
        let dups = link
            .fault_trace()
            .iter()
            .filter(|e| e.kind == FaultKind::Duplicate)
            .count();
        assert!(dups >= 1);
        assert!(
            link.fault_trace().len() < 64,
            "duplication must not cascade unboundedly"
        );
    }
}
