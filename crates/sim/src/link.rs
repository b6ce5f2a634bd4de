//! The link seam: everything the round driver needs from a transport.
//!
//! Four things implement [`Link`], and the driver never branches on which
//! one it holds: the bare [`CountingFabric`] (reliable and synchronous, so
//! the driver's recovery phases are no-ops over it, with one exception: on
//! an event stream a node that registered early stays `is_pending()` until
//! the last node registers, and the retransmit phase re-sends its
//! registration, +3 messages at n = 6), [`ChaosFabric`]
//! (the same fabric behind a seeded fault plan), [`ReactorLink`] (the
//! real transport state machines over a simulated poller, with the plan's
//! fault ladder gating the coordinator's inbound frame boundary), and
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

use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use automon_chaos::{
    ChaosFabric, DeliveryFailure, Executor, FaultEvent, FaultPlan, GateCounts, LadderGate, PlanPart,
};
use automon_core::{CommCause, CommLedger, Coordinator, Node, NodeId, NodeMessage, Outbound};
use automon_net::reactor::{Reactor, ReactorConfig, ReactorTraffic};
use automon_net::sim_poller::{SimClient, SimNet, SimPoller};
use automon_net::tcp::{TcpError, TcpNodeTransport};
use automon_net::{
    wire, CoordinatorTransport, CountingFabric, FrameGate, GateVerdict, SyscallStats, TrafficStats,
};
use automon_obs::{SpanId, TraceCtx};

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
    /// anything else is delivered.
    fn begin_round(&mut self, round: usize) -> Vec<NodeId>;
    /// Deliver frames whose delay matured by the current round and outbounds
    /// held back by backpressure.
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
    fn begin_round(&mut self, round: usize) -> Vec<NodeId> {
        self.set_round(round as u64);
        Vec::new()
    }
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

impl Link for ChaosFabric {
    fn begin_round(&mut self, round: usize) -> Vec<NodeId> {
        ChaosFabric::begin_round(self, round)
    }
    fn release_matured(&mut self, p: &mut Peers) {
        self.release_delayed(&mut p.coord, &mut p.nodes);
    }
    fn report(&mut self, p: &mut Peers, msg: NodeMessage, cause: CommCause, span: SpanId) {
        self.route_as(&mut p.coord, &mut p.nodes, msg, cause, span);
    }
    fn push(&mut self, p: &mut Peers, outs: Vec<Outbound>, cause: CommCause) {
        self.route_outbounds_as(&mut p.coord, &mut p.nodes, outs, cause);
    }
    fn node_down(&self, node: NodeId) -> bool {
        self.is_crashed(node)
    }
    fn frames_in_flight(&self) -> usize {
        self.delayed_frames()
    }
    fn take_delivery_failures(&mut self) -> Vec<DeliveryFailure> {
        ChaosFabric::take_delivery_failures(self)
    }
    fn stats(&self) -> &TrafficStats {
        ChaosFabric::stats(self)
    }
    fn ledger(&self) -> &CommLedger {
        ChaosFabric::ledger(self)
    }
    fn fault_trace(&self) -> &[FaultEvent] {
        self.trace()
    }
}

/// The reactor transport's knobs: chunking seed, largest simulated read,
/// client buffer capacity.
pub(crate) type NetOptions = (u64, usize, usize);

/// Idle pump iterations that count as in-exchange quiescence.
const IDLE_ITERS: usize = 4;

/// A [`LadderGate`] that mirrors its fault tally into a shared cell the link
/// can read after the gate is boxed into the reactor.
struct SharedLadder {
    inner: LadderGate,
    counts: Arc<Mutex<GateCounts>>,
}

impl FrameGate for SharedLadder {
    fn gate(&mut self, immune: bool) -> GateVerdict {
        let v = self.inner.gate(immune);
        *self.counts.lock().unwrap_or_else(|e| e.into_inner()) = self.inner.counts();
        v
    }
}

/// The reactor transport as a [`Link`]: one simulated connection per node
/// into a `Reactor<SimPoller>`. Every report is encoded to wire bytes, pushed
/// down a duplex pipe with seeded read-chunking and short writes, reassembled
/// by the reactor's frame coalescer, gated by the plan's ladder, and only
/// then handled; replies take the mirrored path back through `writev`
/// batching. Protocol-visible outcomes depend only on frame contents and
/// order, never on how the bytes were chunked in transit.
pub(crate) struct ReactorLink {
    reactor: Reactor<SimPoller>,
    clients: Vec<SimClient>,
    /// Accounting only: nothing is routed through it.
    fabric: CountingFabric,
    faults: Arc<Mutex<GateCounts>>,
    /// Outbounds refused by a backpressured queue, retried every pump.
    pending_out: VecDeque<Outbound>,
    /// Causes of the frames queued toward each node, in wire order. The down
    /// direction is reliable and ordered but the cause is not on the wire; a
    /// node's reply is charged to the frame that elicited it.
    down_causes: Vec<VecDeque<CommCause>>,
    /// Cause each up frame was sent under, by encoded frame. The gate may
    /// drop, duplicate or hold a frame between send and delivery, so the tag
    /// is looked up (never consumed) at delivery; a byte-identical re-send
    /// overwrites it.
    up_causes: BTreeMap<Vec<u8>, CommCause>,
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
        let mut reactor = Reactor::new(net.poller(), Some(net.listener()), ReactorConfig::new(n))
            .expect("sim reactor never fails to build");
        let faults = Arc::new(Mutex::new(GateCounts::default()));
        let gate = SharedLadder {
            inner: LadderGate::new(plan),
            counts: faults.clone(),
        };
        reactor.set_gate(Box::new(gate));

        // Connect + hello each node, in id order. The reactor consumes
        // hellos pre-gate, so they never hit the fault ladder.
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
            faults,
            pending_out: VecDeque::new(),
            down_causes: vec![VecDeque::new(); n],
            up_causes: BTreeMap::new(),
        }
    }

    /// Put one node frame on the wire. A send on a connection the server
    /// dropped is lost, like a send on a dead socket; retransmission
    /// recovers it.
    fn send_up(&mut self, msg: &NodeMessage, cause: CommCause, span: SpanId) {
        let frame = wire::encode_node_message_ctx(msg, span);
        if self.clients[msg.sender()].send_frame(&frame) {
            self.up_causes.insert(frame.to_vec(), cause);
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

    /// Exchange frames until quiescent: reactor inbound → coordinator →
    /// reactor outbound → clients → node replies → back in, with queued
    /// outbounds retried as backpressure relieves.
    fn pump(&mut self, Peers { coord, nodes }: &mut Peers) {
        let mut idle = 0usize;
        while idle < IDLE_ITERS {
            self.reactor
                .poll_once(Some(Duration::ZERO))
                .expect("sim poll never fails");
            let mut progress = false;
            // Mirror transport backpressure into the protocol layer so
            // lazy-sync growth prefers responsive nodes.
            for i in 0..nodes.len() {
                coord.set_backpressured(i, self.reactor.node_backpressured(i));
            }
            for _ in 0..self.pending_out.len() {
                let out = self.pending_out.pop_front().expect("len checked");
                progress |= self.send_down(out);
            }
            while let Some((span, msg)) = self.reactor.pop_inbound() {
                progress = true;
                let frame = wire::encode_node_message_ctx(&msg, span);
                let sent_as = self.up_causes.get(&frame[..]).copied();
                let cause = sent_as.unwrap_or_else(|| CommCause::of_node_message(&msg));
                self.fabric
                    .account_up(msg.sender(), cause, frame.len(), span);
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
        self.fabric.set_round(round as u64);
        self.reactor.begin_round(round);
        Vec::new()
    }
    fn release_matured(&mut self, peers: &mut Peers) {
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
        self.reactor.delayed_frames() + self.pending_out.len()
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
            faults: *self.faults.lock().unwrap_or_else(|e| e.into_inner()),
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
    fn begin_round(&mut self, round: usize) -> Vec<NodeId> {
        self.fabric.set_round(round as u64);
        Vec::new()
    }
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
