//! The chaos fabric: a fault-injecting wrapper around the in-process
//! [`CountingFabric`].
//!
//! Every frame crossing the fabric — node→coordinator reports and
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

use automon_core::{CommCause, CommLedger, Coordinator, Node, NodeId, NodeMessage, Outbound};
use automon_net::{CountingFabric, TrafficStats};
use automon_obs::{Counter, SpanId, Telemetry};
use serde::{Deserialize, Serialize};

use crate::gate::{GateVerdict, LadderGate};
use crate::plan::{Executor, FaultPlan, PlanPart, TimedFault};
use crate::queue::FaultQueue;

/// Which way a frame was travelling when a fault hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Node report heading to the coordinator.
    NodeToCoord,
    /// Coordinator install/pull heading to a node.
    CoordToNode,
}

/// What the fabric did to a frame (or a node).
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
    /// dead connection (surfaced via [`ChaosFabric::take_delivery_failures`]).
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
    pub node: NodeId,
    /// What happened.
    pub kind: FaultKind,
}

/// A failed delivery the sender can observe: the peer's connection was
/// dead. Partitions deliberately do *not* produce these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryFailure {
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

/// Every [`FaultKind`]'s name, in [`kind_index`] order: the `kind` label of
/// the fabric's fault counters and the `fault` field of its trace events.
const KIND_NAMES: [&str; 9] = [
    "drop",
    "duplicate",
    "reorder",
    "delay",
    "node_down",
    "partition_drop",
    "crash",
    "restart",
    "coordinator_crash",
];

fn kind_index(kind: FaultKind) -> usize {
    match kind {
        FaultKind::Drop => 0,
        FaultKind::Duplicate => 1,
        FaultKind::Reorder => 2,
        FaultKind::Delay { .. } => 3,
        FaultKind::NodeDown => 4,
        FaultKind::PartitionDrop => 5,
        FaultKind::Crash => 6,
        FaultKind::Restart => 7,
        FaultKind::CoordinatorCrash => 8,
    }
}

/// Per-fault-kind counters (by [`kind_index`]) plus the trace handle. The
/// fabric is strictly sequential (one `record` call at a time, in
/// deterministic order), so it may emit trace events — the fault trace in
/// the JSONL sink replays byte-identically, mirroring
/// [`ChaosFabric::trace`].
#[derive(Debug, Default)]
struct FabricTel {
    tel: Telemetry,
    counters: [Counter; 9],
}

impl FabricTel {
    fn new(tel: Telemetry) -> Self {
        let counters = KIND_NAMES.map(|k| {
            tel.counter(
                &format!("automon_chaos_faults_total{{kind=\"{k}\"}}"),
                "Faults injected by the chaos fabric, by kind",
            )
        });
        Self { tel, counters }
    }
}

/// Fault-injecting wrapper around [`CountingFabric`].
///
/// Counters only advance for frames that actually deliver, so a run
/// under [`FaultPlan::none`] produces byte-identical [`TrafficStats`] to
/// the bare fabric.
#[derive(Debug)]
pub struct ChaosFabric {
    inner: CountingFabric,
    plan: FaultPlan,
    /// The probabilistic ladder, shared with `automon-sim`'s reactor
    /// link: one implementation, one draw sequence.
    ladder: LadderGate,
    round: usize,
    crashed: Vec<bool>,
    trace: Vec<FaultEvent>,
    /// Every frame in flight, delayed ones included.
    queue: FaultQueue<Pending>,
    failures: Vec<DeliveryFailure>,
    /// Observability handles (no-op until `set_telemetry`).
    tel: FabricTel,
}

impl ChaosFabric {
    /// What this fabric executes of a plan. Coordinator crashes are
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

    /// Wrap `inner`, injecting faults per `plan` over `n` nodes.
    ///
    /// # Panics
    /// Panics with [`Executor::admit`]'s message when the plan uses a part
    /// this fabric does not run or is invalid for `n` nodes.
    pub fn new(inner: CountingFabric, plan: FaultPlan, n: usize) -> Self {
        Self::EXECUTOR
            .admit(&plan, n, 0)
            .unwrap_or_else(|refusal| panic!("{refusal}"));
        let ladder = LadderGate::new(&plan);
        Self {
            inner,
            plan,
            ladder,
            round: 0,
            crashed: vec![false; n],
            trace: Vec::new(),
            queue: FaultQueue::default(),
            failures: Vec::new(),
            tel: FabricTel::default(),
        }
    }

    /// Install an observability handle: per-kind fault counters plus a
    /// `fault` trace event per injection, mirroring the in-memory
    /// [`ChaosFabric::trace`].
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = FabricTel::new(tel);
    }

    /// The wrapped fabric's traffic counters (delivered frames only).
    pub fn stats(&self) -> &TrafficStats {
        self.inner.stats()
    }

    /// The wrapped fabric's communication ledger (delivered frames only:
    /// dropped, swallowed, and still-delayed frames are uncharged, so
    /// conservation against [`ChaosFabric::stats`] holds under faults).
    pub fn ledger(&self) -> &CommLedger {
        self.inner.ledger()
    }

    /// Every fault injected so far, in injection order.
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// `true` while `node`'s process is down.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node]
    }

    /// Drain the dead-connection failures observed since the last call.
    /// The caller (the recovery loop) uses these to count strikes toward
    /// eviction.
    pub fn take_delivery_failures(&mut self) -> Vec<DeliveryFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Frames held back by a delay; nothing else is in flight between calls.
    pub fn delayed_frames(&self) -> usize {
        self.queue.in_flight()
    }

    /// Advance to `round`: fire its timed faults in [`FaultPlan::timed_at`]
    /// order. Returns the ids restarted *this* round — the caller must
    /// replace each with a fresh, state-less [`Node`] before delivering
    /// anything (in particular before [`ChaosFabric::release_delayed`]).
    pub fn begin_round(&mut self, round: usize) -> Vec<NodeId> {
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
                TimedFault::LeafCrash(_) => unreachable!("refused by `new`"),
            }
        }
        restarted
    }

    /// Deliver every delayed frame that matured by the current round,
    /// cascading replies as usual. The round driver calls this after the
    /// round's coordinator recovery and rejoins, so those run before any
    /// matured frame (the reactor link releases as the round begins).
    pub fn release_delayed(&mut self, coord: &mut Coordinator, nodes: &mut [Node]) {
        self.queue.release_matured();
        self.drain(coord, nodes);
    }

    /// Deliver a node report to the coordinator and cascade every reply
    /// to quiescence, gating each frame: the chaos analogue of
    /// [`CountingFabric::route_as`]. The first frame is charged to `cause`
    /// (e.g. `CommCause::Rejoin` for a restarted node's re-registration)
    /// and carries `span` (the sim's violation span).
    pub fn route_as(
        &mut self,
        coord: &mut Coordinator,
        nodes: &mut [Node],
        first: NodeMessage,
        cause: CommCause,
        span: SpanId,
    ) {
        self.queue.push(Pending::ToCoord {
            msg: first,
            span,
            cause,
        });
        self.drain(coord, nodes);
    }

    /// Inject coordinator-initiated frames (retransmitted pulls, evictions'
    /// fresh syncs) and cascade to quiescence, with every frame's ledger
    /// cause overridden — recovery traffic (`Retransmit`, `Eviction`) is
    /// charged separably from the steady-state cause the coordinator
    /// stamped on the outbound.
    pub fn route_outbounds_as(
        &mut self,
        coord: &mut Coordinator,
        nodes: &mut [Node],
        outs: Vec<Outbound>,
        cause: CommCause,
    ) {
        for out in outs {
            self.queue.push(Pending::ToNode(Outbound { cause, ..out }));
        }
        self.drain(coord, nodes);
    }

    /// FIFO delivery loop: pop a frame, gate it, deliver survivors
    /// through the counting fabric, enqueue replies at the back.
    fn drain(&mut self, coord: &mut Coordinator, nodes: &mut [Node]) {
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
                self.deliver(coord, nodes, frame);
            }
        }
    }

    fn deliver(&mut self, coord: &mut Coordinator, nodes: &mut [Node], frame: Pending) {
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
        self.tel.counters[kind_index(kind)].inc();
        if self.tel.tel.is_enabled() {
            let dir_name = match dir {
                Direction::NodeToCoord => "node_to_coord",
                Direction::CoordToNode => "coord_to_node",
            };
            let mut fields: Vec<(&str, automon_obs::FieldValue)> = vec![
                ("fault", KIND_NAMES[kind_index(kind)].into()),
                ("node", node.into()),
                ("dir", dir_name.into()),
            ];
            if let FaultKind::Delay { rounds } = kind {
                fields.push(("delay_rounds", rounds.into()));
            }
            self.tel.tel.event("fault", &fields);
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

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::{MonitorConfig, MonitoredFunction};
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

    /// Route a report under its intrinsic cause, outside any span.
    fn route(fabric: &mut ChaosFabric, coord: &mut Coordinator, nodes: &mut [Node], m: NodeMessage) {
        let cause = CommCause::of_node_message(&m);
        fabric.route_as(coord, nodes, m, cause, SpanId::NONE);
    }

    fn setup(n: usize) -> (Coordinator, Vec<Node>) {
        let f = f();
        let coord = Coordinator::new(f.clone(), n, MonitorConfig::builder(0.5).build());
        let nodes = (0..n).map(|i| Node::new(i, f.clone())).collect();
        (coord, nodes)
    }

    /// Run a short noisy workload and return (trace, stats).
    fn run_noisy(plan: FaultPlan, rounds: usize) -> (Vec<FaultEvent>, TrafficStats) {
        let n = 4;
        let (mut coord, mut nodes) = setup(n);
        let mut fabric = ChaosFabric::new(CountingFabric::new(), plan, n);
        for round in 0..rounds {
            let restarted = fabric.begin_round(round);
            for id in restarted {
                nodes[id] = Node::new(id, f());
            }
            fabric.release_delayed(&mut coord, &mut nodes);
            for i in 0..n {
                if fabric.is_crashed(i) {
                    continue;
                }
                let drift = (round as f64) * 0.37 + i as f64;
                if let Some(m) = nodes[i].update_data(vec![drift.sin(), drift.cos()]) {
                    route(&mut fabric, &mut coord, &mut nodes, m);
                }
            }
        }
        (fabric.trace().to_vec(), fabric.stats().clone())
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
        let (mut coord_a, mut nodes_a) = setup(n);
        let mut bare = CountingFabric::new();
        let (mut coord_b, mut nodes_b) = setup(n);
        let mut chaos = ChaosFabric::new(CountingFabric::new(), FaultPlan::none(), n);
        for round in 0..20 {
            assert!(chaos.begin_round(round).is_empty());
            chaos.release_delayed(&mut coord_b, &mut nodes_b);
            assert_eq!(chaos.delayed_frames(), 0);
            for i in 0..n {
                let x = vec![(round * 7 + i) as f64 * 0.11, (round + i) as f64 * -0.3];
                if let Some(m) = nodes_a[i].update_data(x.clone()) {
                    let cause = CommCause::of_node_message(&m);
                    bare.route_as(&mut coord_a, &mut nodes_a, m, cause, SpanId::NONE);
                }
                if let Some(m) = nodes_b[i].update_data(x) {
                    route(&mut chaos, &mut coord_b, &mut nodes_b, m);
                }
            }
        }
        assert_eq!(chaos.trace(), &[] as &[FaultEvent]);
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
        let (mut coord, mut nodes) = setup(n);
        let plan = FaultPlan::seeded(9).with_crash(1, 1, Some(3));
        let mut fabric = ChaosFabric::new(CountingFabric::new(), plan, n);

        assert!(fabric.begin_round(0).is_empty());
        for i in 0..n {
            if let Some(m) = nodes[i].update_data(vec![0.1 * i as f64, 0.2]) {
                route(&mut fabric, &mut coord, &mut nodes, m);
            }
        }

        assert!(fabric.begin_round(1).is_empty());
        assert!(fabric.is_crashed(1));
        // A pull addressed to the dead node must fail observably.
        fabric.route_outbounds_as(
            &mut coord,
            &mut nodes,
            vec![Outbound::new(
                1,
                automon_core::CoordinatorMessage::RequestLocalVector { epoch: 0 },
                CommCause::FullSync,
            )],
            CommCause::Retransmit,
        );
        let failures = fabric.take_delivery_failures();
        assert_eq!(
            failures,
            vec![DeliveryFailure {
                node: 1,
                dir: Direction::CoordToNode
            }]
        );
        assert!(fabric.take_delivery_failures().is_empty(), "drained");

        assert!(fabric.begin_round(2).is_empty());
        assert_eq!(fabric.begin_round(3), vec![1]);
        assert!(!fabric.is_crashed(1));
        assert_eq!(fabric.begin_round(4), vec![], "restart fires once");

        let kinds: Vec<FaultKind> = fabric.trace().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultKind::Crash));
        assert!(kinds.contains(&FaultKind::NodeDown));
        assert!(kinds.contains(&FaultKind::Restart));
    }

    #[test]
    fn partition_swallows_without_failure() {
        let n = 2;
        let (mut coord, mut nodes) = setup(n);
        let plan = FaultPlan::seeded(4).with_partition(vec![0], 0, 5);
        let mut fabric = ChaosFabric::new(CountingFabric::new(), plan, n);
        fabric.begin_round(0);
        let m = nodes[0].update_data(vec![1.0, 2.0]).expect("first report");
        route(&mut fabric, &mut coord, &mut nodes, m);
        assert_eq!(fabric.stats().node_to_coord_msgs, 0, "frame swallowed");
        assert!(fabric.take_delivery_failures().is_empty());
        assert_eq!(fabric.trace().len(), 1);
        assert_eq!(fabric.trace()[0].kind, FaultKind::PartitionDrop);

        // After the partition heals, the node's retransmission of the
        // still-outstanding report goes through.
        fabric.begin_round(5);
        let m = nodes[0].retransmit_report().expect("outstanding report");
        route(&mut fabric, &mut coord, &mut nodes, m);
        assert_eq!(fabric.stats().node_to_coord_msgs, 1);
    }

    #[test]
    fn delayed_frames_mature_in_order() {
        let n = 2;
        let (mut coord, mut nodes) = setup(n);
        // delay_rate 1.0: every fresh frame is delayed.
        let plan = FaultPlan::seeded(11).with_delay(1.0, 2);
        let mut fabric = ChaosFabric::new(CountingFabric::new(), plan, n);
        fabric.begin_round(0);
        let m = nodes[0].update_data(vec![0.5, 0.5]).expect("report");
        route(&mut fabric, &mut coord, &mut nodes, m);
        assert_eq!(fabric.stats().node_to_coord_msgs, 0);
        assert_eq!(fabric.delayed_frames(), 1);

        for round in 1..=3 {
            fabric.begin_round(round);
            fabric.release_delayed(&mut coord, &mut nodes);
        }
        assert_eq!(fabric.delayed_frames(), 0);
        assert_eq!(fabric.stats().node_to_coord_msgs, 1, "matured and counted");
    }

    #[test]
    fn duplicate_delivers_twice_and_is_not_reduplicated() {
        let n = 2;
        let (mut coord, mut nodes) = setup(n);
        let plan = FaultPlan::seeded(5).with_duplicate_rate(1.0);
        let mut fabric = ChaosFabric::new(CountingFabric::new(), plan, n);
        fabric.begin_round(0);
        let m = nodes[0].update_data(vec![0.5, 0.5]).expect("report");
        route(&mut fabric, &mut coord, &mut nodes, m);
        // The report is duplicated (2 deliveries); the coordinator's
        // replies are gated too but the copies are not re-split, so the
        // cascade terminates.
        assert_eq!(fabric.stats().node_to_coord_msgs, 2);
        let dups = fabric
            .trace()
            .iter()
            .filter(|e| e.kind == FaultKind::Duplicate)
            .count();
        assert!(dups >= 1);
        assert!(
            fabric.trace().len() < 64,
            "duplication must not cascade unboundedly"
        );
    }

    #[test]
    #[should_panic(expected = "node 9 out of range (nodes = 2)")]
    fn plan_naming_unknown_node_rejected() {
        let plan = FaultPlan::seeded(0).with_crash(9, 1, None);
        let _ = ChaosFabric::new(CountingFabric::new(), plan, 2);
    }
}
