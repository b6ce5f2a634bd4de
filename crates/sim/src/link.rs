//! The link seam: everything the round driver needs from a transport.
//!
//! Four things implement [`Link`], and the driver never branches on which
//! one it holds: the bare [`CountingFabric`] (reliable and synchronous, so
//! the driver's recovery phases are no-ops over it, with one exception: on
//! an event stream a node that registered early stays `is_pending()` until
//! the last node registers, and the retransmit phase re-sends its
//! registration, +3 messages at n = 6), [`ChaosLink`](crate::fabric::ChaosLink)
//! (the same fabric behind a seeded fault plan), [`ReactorLink`] (the
//! real transport state machines over a simulated poller, with the plan's
//! fault ladder applied to every node frame the reactor decodes), and
//! [`SocketLink`] (real loopback sockets, one frame in flight). All four
//! charge every *delivered* frame through the one
//! [`CountingFabric::account_up`]/[`CountingFabric::account_down`] pair, so
//! traffic totals, the ledger, `comm` events and span propagation cannot
//! differ by transport.
//!
//! [`SocketLink`] runs the same FIFO cascade as
//! [`CountingFabric::route_as`] but does not share its code. The fabric's
//! hop charges the codec's exact frame length and hands the message on,
//! about six times per `Fleet::update` resolution; the socket's is two
//! fallible calls with a deadline; a cascade parameterised over both
//! would branch on its caller in the fabric's hot loop. Every link
//! charges a message the same length, [`wire::node_message_len`] /
//! [`wire::coordinator_message_len`], which the wire proptests pin to the
//! encoders' output.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::time::Duration;

use automon_chaos::{
    Executor, FaultEvent, FaultPlan, FaultQueue, GateCounts, GateVerdict, LadderGate, PlanPart,
};
use automon_core::{CommCause, CommLedger, Coordinator, Node, NodeId, NodeMessage, Outbound};
use automon_net::reactor::{Reactor, ReactorConfig, ReactorTraffic};
use automon_net::sim_poller::{SimClient, SimNet, SimPoller};
use automon_net::tcp::{TcpError, TcpNodeTransport};
use automon_net::{wire, CoordinatorTransport, CountingFabric, SyscallStats, TrafficStats};
use automon_obs::{SpanId, TraceCtx};

use crate::fabric::DeliveryFailure;

/// The protocol endpoints a link delivers to. The driver swaps the
/// coordinator on a crash/recover and a node on a restart, so links borrow
/// the pair per call instead of holding it.
pub(crate) struct Peers {
    pub coord: Coordinator,
    pub nodes: Vec<Node>,
}

/// Transport-level cost of a run over the reactor or socket link (absent
/// on the fabrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportReport {
    /// Syscall counts (reads, writevs, waits): the poller's simulated ones
    /// on the reactor link, the coordinator end's real ones on sockets.
    pub syscalls: SyscallStats,
    /// Frame/byte counts from the reactor core; zero on sockets, where no
    /// core this process can read moves the bytes.
    pub traffic: ReactorTraffic,
    /// Faults the ladder injected at the inbound frame boundary; sockets
    /// inject none.
    pub faults: GateCounts,
}

/// What the round driver calls on a transport. Every exchange cascades to
/// quiescence before the call returns (FIFO, like an ordered transport).
pub(crate) trait Link {
    /// Advance to `round`: fire its timed faults and return the nodes
    /// restarted, which the driver must replace with fresh processes before
    /// anything else is delivered. Links without timed faults or held
    /// frames have nothing to do. Nothing is delivered here.
    fn begin_round(&mut self, _round: usize) -> Vec<NodeId> {
        Vec::new()
    }
    /// Called after the round's coordinator recovery and rejoins, on every
    /// link alike: deliver outbounds held back by backpressure and frames
    /// whose delay matured by the current round.
    fn release_matured(&mut self, _peers: &mut Peers) {}
    /// Send one node report, charged to `cause` with `span` riding its
    /// header, and cascade every reply.
    fn report(&mut self, peers: &mut Peers, msg: NodeMessage, cause: CommCause, span: SpanId);
    /// Send coordinator-initiated frames (re-issued pulls, an eviction's or
    /// a recovery's resync), all charged to `cause`, and cascade.
    fn push(&mut self, peers: &mut Peers, outs: Vec<Outbound>, cause: CommCause);
    /// `true` while `node`'s process is down.
    fn node_down(&self, _node: NodeId) -> bool {
        false
    }
    /// Frames parked somewhere in the transport; quiescence needs zero.
    fn frames_in_flight(&self) -> usize {
        0
    }
    /// Dead-connection send failures observed since the last call.
    fn take_delivery_failures(&mut self) -> Vec<DeliveryFailure> {
        Vec::new()
    }
    /// The stage at which the transport itself broke, once it has: the
    /// link delivers nothing afterwards and the driver ends the run.
    fn failure(&self) -> Option<&str> {
        None
    }
    /// Delivered-frame counters.
    fn stats(&self) -> &TrafficStats;
    /// Per-cause ledger, charged at exactly the counter-bump points.
    fn ledger(&self) -> &CommLedger;
    /// Every fault injected as a replayable event, in injection order.
    fn fault_trace(&self) -> &[FaultEvent] {
        &[]
    }
    /// Transport cost, for links that have one.
    fn transport(&self) -> Option<TransportReport> {
        None
    }
}

impl Link for CountingFabric {
    fn report(&mut self, p: &mut Peers, msg: NodeMessage, cause: CommCause, span: SpanId) {
        self.route_as(&mut p.coord, &mut p.nodes, msg, cause, span);
    }
    fn push(&mut self, p: &mut Peers, outs: Vec<Outbound>, cause: CommCause) {
        self.route_outbounds_as(&mut p.coord, &mut p.nodes, outs, cause);
    }
    fn stats(&self) -> &TrafficStats {
        CountingFabric::stats(self)
    }
    fn ledger(&self) -> &CommLedger {
        CountingFabric::ledger(self)
    }
}

/// The reactor transport's knobs: chunking seed, largest simulated read,
/// client buffer capacity.
pub(crate) type NetOptions = (u64, usize, usize);

/// Idle pump iterations that count as in-exchange quiescence.
const IDLE_ITERS: usize = 4;

/// A decoded node frame, the span on its header and the cause it was sent
/// under: a duplicate's copy is charged to the same cause.
type Frame = (SpanId, NodeMessage, CommCause);

/// The reactor transport as a [`Link`]: one simulated connection per node
/// into a `Reactor<SimPoller>`. Every report is encoded to wire bytes, pushed
/// down a duplex pipe with seeded read-chunking and short writes, reassembled
/// by the reactor's frame coalescer, gated by the plan's ladder, and only
/// then handled; replies take the mirrored path back through `writev`
/// batching. Protocol-visible outcomes depend only on frame contents and
/// order, never on how the bytes were chunked in transit.
///
/// Each [`pump`](Self::pump) iteration pushes the frames its poll decoded
/// onto a [`FaultQueue`], fresh, and the ladder draws once per fresh frame
/// as the handle loop pops it, in decode order: a frame delivered twice
/// or reordered goes (again) behind that poll's frames, and a delayed one
/// is parked until the round it matures in releases it, after that round's
/// coordinator recovery and rejoins, as on the chaos link.
pub(crate) struct ReactorLink {
    reactor: Reactor<SimPoller>,
    clients: Vec<SimClient>,
    /// Accounting only: nothing is routed through it.
    fabric: CountingFabric,
    ladder: LadderGate,
    /// Decoded frames awaiting their verdict or their handling, delayed
    /// ones included.
    queue: FaultQueue<Frame>,
    /// Outbounds refused by a backpressured queue, retried every pump.
    pending_out: VecDeque<Outbound>,
    /// Causes of the frames queued toward each node, in wire order. The down
    /// direction is reliable and ordered but the cause is not on the wire; a
    /// node's reply is charged to the frame that elicited it.
    down_causes: Vec<VecDeque<CommCause>>,
    /// Causes of the frames each node's client accepted and the reactor has
    /// not yet handed out, in wire order. A connection decodes in send order
    /// and this link sends only frames that decode, so a frame leaving
    /// `pop_inbound` takes the front cause of its sender; from there the
    /// cause rides the frame through the fault queue.
    up_causes: Vec<VecDeque<CommCause>>,
}

impl ReactorLink {
    /// This link gates frames and has no process or partition model; the
    /// driver carries out coordinator crashes over it.
    pub const EXECUTOR: Executor = Executor {
        name: "sim-reactor link",
        runs: &[PlanPart::FrameFaults, PlanPart::CoordinatorCrashes],
    };

    /// Connect `n` nodes over a network built from `net`, gating inbound
    /// frames with `plan`'s ladder; `fabric` does the accounting. The
    /// driver has admitted `plan` against [`ReactorLink::EXECUTOR`].
    pub fn new(fabric: CountingFabric, plan: &FaultPlan, net: NetOptions, n: usize) -> Self {
        let net = SimNet::with_limits(net.0, net.1, net.2);
        let mut reactor = Reactor::new(net.poller(), net.listener(), ReactorConfig::new(n))
            .expect("sim reactor never fails to build");

        // Connect + hello each node, in id order. The reactor consumes
        // hellos itself, so they never hit the fault ladder.
        let clients: Vec<SimClient> = (0..n).map(|_| net.connect()).collect();
        for (node, c) in clients.iter().enumerate() {
            let hello = NodeMessage::LocalVector {
                node,
                vector: Vec::new(),
                epoch: 0,
            };
            let sent = c.send_frame(&wire::encode_node_message(&hello));
            assert!(sent, "fresh connection accepts the hello");
        }
        while reactor.connected_count() < n {
            reactor
                .poll_once(Some(Duration::ZERO))
                .expect("sim poll never fails");
        }
        Self {
            reactor,
            clients,
            fabric,
            ladder: LadderGate::new(plan),
            queue: FaultQueue::default(),
            pending_out: VecDeque::new(),
            down_causes: vec![VecDeque::new(); n],
            up_causes: vec![VecDeque::new(); n],
        }
    }

    /// Put one node frame on the wire. A send on a connection the server
    /// dropped is lost, like a send on a dead socket; retransmission
    /// recovers it.
    fn send_up(&mut self, msg: &NodeMessage, cause: CommCause, span: SpanId) {
        let frame = wire::encode_node_message_ctx(msg, span);
        if self.clients[msg.sender()].send_frame(&frame) {
            self.up_causes[msg.sender()].push_back(cause);
        }
    }

    /// Queue one coordinator frame; `true` when the reactor took it.
    fn send_down(&mut self, out: Outbound) -> bool {
        match self.reactor.enqueue(&out) {
            Ok(()) => {
                let len = wire::coordinator_message_len(&out.msg);
                self.fabric.account_down(out.to, out.cause, len, out.span);
                self.down_causes[out.to].push_back(out.cause);
                true
            }
            Err(TcpError::Backpressured(_)) => {
                self.pending_out.push_back(out);
                false
            }
            // Node gone: drop; the retransmit path recovers.
            Err(_) => false,
        }
    }

    /// Exchange frames until quiescent: reactor inbound → ladder →
    /// coordinator → reactor outbound → clients → node replies → back in,
    /// with queued outbounds retried as backpressure relieves.
    fn pump(&mut self, Peers { coord, nodes }: &mut Peers) {
        let mut idle = 0usize;
        while idle < IDLE_ITERS {
            self.reactor
                .poll_once(Some(Duration::ZERO))
                .expect("sim poll never fails");
            while let Some((span, msg)) = self.reactor.pop_inbound() {
                let cause = self.up_causes[msg.sender()]
                    .pop_front()
                    .expect("decoded ⇒ sent");
                self.queue.push((span, msg, cause));
            }
            let mut progress = false;
            for _ in 0..self.pending_out.len() {
                let out = self.pending_out.pop_front().expect("len checked");
                progress |= self.send_down(out);
            }
            while let Some((frame, fresh)) = self.queue.pop() {
                let verdict = if fresh {
                    self.ladder.gate()
                } else {
                    GateVerdict::Deliver
                };
                let Some((span, msg, cause)) = self.queue.settle(frame, verdict) else {
                    continue;
                };
                progress = true;
                let len = wire::node_message_len(&msg);
                self.fabric.account_up(msg.sender(), cause, len, span);
                let ctx = TraceCtx::new(span, msg.epoch());
                for out in coord.handle_with_context(msg, ctx) {
                    self.send_down(out);
                }
            }
            self.reactor.flush_all();
            for (i, node) in nodes.iter_mut().enumerate() {
                for frame in self.clients[i].recv_frames() {
                    progress = true;
                    let (span, cm) = wire::decode_coordinator_message_ctx(&frame)
                        .expect("reactor emits valid frames");
                    let cause = self.down_causes[i].pop_front().expect("delivered ⇒ queued");
                    if let Some(reply) = node.handle(cm) {
                        self.send_up(&reply, cause, span);
                    }
                }
            }
            idle = if progress { 0 } else { idle + 1 };
        }
    }
}

impl Link for ReactorLink {
    fn begin_round(&mut self, round: usize) -> Vec<NodeId> {
        self.queue.begin_round(round);
        Vec::new()
    }
    fn release_matured(&mut self, peers: &mut Peers) {
        self.queue.release_matured();
        self.pump(peers);
    }
    fn report(&mut self, peers: &mut Peers, msg: NodeMessage, cause: CommCause, span: SpanId) {
        self.send_up(&msg, cause, span);
        self.pump(peers);
    }
    fn push(&mut self, peers: &mut Peers, outs: Vec<Outbound>, cause: CommCause) {
        self.pending_out
            .extend(outs.into_iter().map(|out| Outbound { cause, ..out }));
        self.pump(peers);
    }
    fn frames_in_flight(&self) -> usize {
        self.queue.in_flight() + self.pending_out.len()
    }
    fn stats(&self) -> &TrafficStats {
        self.fabric.stats()
    }
    fn ledger(&self) -> &CommLedger {
        self.fabric.ledger()
    }
    fn transport(&self) -> Option<TransportReport> {
        Some(TransportReport {
            syscalls: self.reactor.syscalls(),
            traffic: self.reactor.traffic(),
            faults: self.ladder.counts(),
        })
    }
}

/// Real sockets inject no faults.
pub(crate) const SOCKETS: Executor = Executor {
    name: "socket link",
    runs: &[],
};

/// Longest a socket hop may take, connect included: a frame that is not
/// there by then is a wedged transport, not something to wait out.
const HOP_DEADLINE: Duration = Duration::from_secs(20);
const LATE: &str = "no frame before the deadline";

/// Names the stage a socket call failed at: `stage (node i): why`.
fn at<E: std::fmt::Display>(stage: &'static str, node: NodeId) -> impl Fn(E) -> String {
    move |why| format!("{stage} (node {node}): {why}")
}

/// A node frame queued for the coordinator with the span and cause it
/// inherits from the frame that elicited it.
type Tagged = (NodeMessage, SpanId, CommCause);

/// Real loopback sockets as a [`Link`]: `T` on the coordinator end, one
/// [`TcpNodeTransport`] per node, all driven from the caller's thread with
/// one frame in flight — the sender's `send` and the receiver's `recv` of
/// every hop run back to back, so the protocol's decision sequence depends
/// on the workload only, never on socket scheduling.
pub(crate) struct SocketLink<T> {
    /// The coordinator end and the node ends by id. The first transport
    /// failure replaces them with the stage that failed, closing every
    /// socket; the link is inert from then on.
    ends: Result<(T, Vec<TcpNodeTransport>), String>,
    /// Accounting only: nothing is routed through it.
    fabric: CountingFabric,
}

impl<T: CoordinatorTransport> SocketLink<T> {
    /// Bind a free loopback port and connect `n` nodes to it; `fabric`
    /// does the accounting. A failure to connect latches like any other.
    pub fn open(fabric: CountingFabric, n: usize) -> Self {
        // `bind` returns only after every hello, so the port is chosen
        // first and the nodes dial it (retrying until the listener is up)
        // while a scoped thread binds.
        let ends = TcpListener::bind("127.0.0.1:0")
            .and_then(|probe| probe.local_addr())
            .map_err(|e| format!("choosing a loopback port: {e}"))
            .and_then(|addr| {
                std::thread::scope(|s| {
                    let binder = s.spawn(move || T::bind(addr, n, Some(HOP_DEADLINE)));
                    let nodes: Result<Vec<_>, String> = (0..n)
                        .map(|i| TcpNodeTransport::connect(addr, i).map_err(at("connect", i)))
                        .collect();
                    let bound = binder.join().map_err(|_| "coordinator bind panicked")?;
                    Ok((bound.map_err(|e| format!("coordinator bind: {e}"))?, nodes?))
                })
            });
        Self { ends, fabric }
    }

    /// Deliver `outs`, then `first` and every cascading reply, to
    /// quiescence; a transport failure latches and ends the exchange.
    fn cascade(&mut self, peers: &mut Peers, first: Option<Tagged>, outs: Vec<Outbound>) {
        let Ok((coord_end, node_ends)) = &mut self.ends else {
            return;
        };
        if let Err(stage) = route(coord_end, node_ends, &mut self.fabric, peers, first, outs) {
            self.ends = Err(stage);
        }
    }
}

/// The fabric's FIFO cascade with every hop on a socket: a coordinator
/// batch goes down frame by frame in batch order, each reply queueing
/// behind the node frames already waiting; then the oldest waiting frame
/// goes up and its replies are the next batch.
fn route<T: CoordinatorTransport>(
    coord_end: &T,
    node_ends: &mut [TcpNodeTransport],
    fabric: &mut CountingFabric,
    Peers { coord, nodes }: &mut Peers,
    first: Option<Tagged>,
    mut outs: Vec<Outbound>,
) -> Result<(), String> {
    let mut inbox = VecDeque::from_iter(first);
    loop {
        for out in outs {
            let to = out.to;
            coord_end.send(&out).map_err(at("coordinator send", to))?;
            let (span, msg) = node_ends[to]
                .recv_timeout_traced(HOP_DEADLINE)
                .map_err(at("node receive", to))?
                .ok_or_else(|| at("node receive", to)(LATE))?;
            let len = wire::coordinator_message_len(&msg);
            fabric.account_down(to, out.cause, len, span);
            if let Some(reply) = nodes[to].handle(msg) {
                inbox.push_back((reply, span, out.cause));
            }
        }
        let Some((msg, span, cause)) = inbox.pop_front() else {
            return Ok(());
        };
        let from = msg.sender();
        node_ends[from]
            .send_traced(&msg, span)
            .map_err(at("node send", from))?;
        let (span, msg) = coord_end
            .recv_timeout_traced(HOP_DEADLINE)
            .ok_or_else(|| at("coordinator receive", from)(LATE))?;
        let len = wire::node_message_len(&msg);
        fabric.account_up(msg.sender(), cause, len, span);
        let ctx = TraceCtx::new(span, msg.epoch());
        outs = coord.handle_with_context(msg, ctx);
    }
}

impl<T: CoordinatorTransport> Link for SocketLink<T> {
    fn report(&mut self, peers: &mut Peers, msg: NodeMessage, cause: CommCause, span: SpanId) {
        self.cascade(peers, Some((msg, span, cause)), Vec::new());
    }
    fn push(&mut self, peers: &mut Peers, outs: Vec<Outbound>, cause: CommCause) {
        let outs = outs
            .into_iter()
            .map(|out| Outbound { cause, ..out })
            .collect();
        self.cascade(peers, None, outs);
    }
    fn failure(&self) -> Option<&str> {
        self.ends.as_ref().err().map(String::as_str)
    }
    fn stats(&self) -> &TrafficStats {
        self.fabric.stats()
    }
    fn ledger(&self) -> &CommLedger {
        self.fabric.ledger()
    }
    fn transport(&self) -> Option<TransportReport> {
        let (coord_end, _) = self.ends.as_ref().ok()?;
        Some(TransportReport {
            syscalls: coord_end.syscall_stats(),
            ..TransportReport::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::AutoDiffFn;
    use automon_core::{MonitorConfig, MonitoredFunction};
    use automon_functions::InnerProduct;
    use std::sync::Arc;

    /// Every frame a node's client accepted leaves `pop_inbound` exactly
    /// once, so a reactor link that has delivered everything, duplicates
    /// and matured delays included, holds no cause in either direction.
    #[test]
    fn a_quiesced_reactor_link_keeps_no_cause() {
        let n = 4;
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(2)));
        let plan = FaultPlan::seeded(5)
            .with_duplicate_rate(0.2)
            .with_delay(0.2, 3);
        let mut link = ReactorLink::new(CountingFabric::new(), &plan, (1, 97, 1 << 14), n);
        let mut peers = Peers {
            coord: Coordinator::new(f.clone(), n, MonitorConfig::builder(0.1).build()),
            nodes: (0..n).map(|i| Node::new(i, f.clone())).collect(),
        };
        let mut round = 0;
        while round < 60 || link.frames_in_flight() > 0 {
            assert!(round < 100, "delayed frames never matured");
            link.begin_round(round);
            link.release_matured(&mut peers);
            for i in (0..n).filter(|_| round < 60) {
                let t = round as f64 * 0.3 + i as f64;
                let x = [t.sin(), 0.5 * t.cos()];
                if let Some(msg) = peers.nodes[i].update_data(x) {
                    let cause = CommCause::of_node_message(&msg);
                    link.report(&mut peers, msg, cause, SpanId::NONE);
                }
            }
            round += 1;
        }
        let faults = link.ladder.counts();
        assert!(faults.duplicates > 0 && faults.delays > 0, "{faults:?}");
        assert!(link.up_causes.iter().all(VecDeque::is_empty));
        assert!(link.down_causes.iter().all(VecDeque::is_empty));
    }
}
