//! Message fabrics: in-process accounting and channel-based transport.

use automon_core::{
    CommCause, CommLedger, Coordinator, CoordinatorMessage, Node, NodeId, NodeMessage, Outbound,
};
use automon_obs::{SpanId, Telemetry, TraceCtx};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::wire;

/// Per-direction traffic counters (paper §4.7's payload/traffic split).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages from nodes to the coordinator.
    pub node_to_coord_msgs: usize,
    /// Messages from the coordinator to nodes.
    pub coord_to_node_msgs: usize,
    /// Payload bytes from nodes to the coordinator.
    pub node_to_coord_payload: usize,
    /// Payload bytes from the coordinator to nodes.
    pub coord_to_node_payload: usize,
}

impl TrafficStats {
    /// Total messages in both directions.
    pub fn total_msgs(&self) -> usize {
        self.node_to_coord_msgs + self.coord_to_node_msgs
    }

    /// Total payload bytes in both directions.
    pub fn total_payload(&self) -> usize {
        self.node_to_coord_payload + self.coord_to_node_payload
    }

    /// Total *traffic* bytes including `overhead` per-message transport
    /// framing (TCP/IP + messaging-stack headers; Figure 10's orange
    /// series).
    pub fn total_traffic(&self, overhead: usize) -> usize {
        self.total_payload() + overhead * self.total_msgs()
    }
}

/// An in-process fabric that *really* serializes every message (payload
/// sizes are measured, not estimated) and accounts messages and bytes in
/// both directions while delivering synchronously, one frame at a time
/// on the caller's thread. A node's handler only installs what the
/// frame carries (`Node::handle` moves fields or clones one vector), so
/// there is nothing in a delivery worth placing on another thread.
#[derive(Debug)]
pub struct CountingFabric {
    stats: TrafficStats,
    per_node: Vec<usize>,
    ledger: CommLedger,
    round: u64,
    tel: Telemetry,
    cause_map: fn(CommCause) -> CommCause,
}

impl Default for CountingFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl CountingFabric {
    /// A fresh fabric with zeroed counters.
    pub fn new() -> Self {
        Self {
            stats: TrafficStats::default(),
            per_node: Vec::new(),
            ledger: CommLedger::default(),
            round: 0,
            tel: Telemetry::disabled(),
            cause_map: std::convert::identity,
        }
    }

    /// Attach telemetry: the fabric emits one `comm` trace event per
    /// frame.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Install a cause map applied at every charge point, *before* the
    /// ledger row, counter bump, and `comm` trace event are written.
    /// The root tier of a sharded fleet installs
    /// [`CommCause::at_root`] here so its flat-protocol machinery is
    /// charged under the inter-tier causes natively — ledger and trace
    /// agree without any merge-time rewriting.
    pub fn with_cause_map(mut self, map: fn(CommCause) -> CommCause) -> Self {
        self.cause_map = map;
        self
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The per-cause communication ledger. Always on — conservation
    /// against [`CountingFabric::stats`] holds by construction, because
    /// the ledger is charged at exactly the counter-bump points.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Set the simulation round subsequent frames are charged to.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn comm_event(&self, dir: &str, node: NodeId, cause: CommCause, bytes: usize, span: SpanId) {
        self.tel.event(
            "comm",
            &[
                ("dir", dir.into()),
                ("node", node.into()),
                ("cause", cause.name().into()),
                ("bytes", bytes.into()),
                ("span", span.0.into()),
            ],
        );
    }

    /// Messages involving each node (sent or received), for analyzing
    /// skew — e.g. whether the DNN workload's round-robin split keeps
    /// the per-node load balanced.
    pub fn per_node_messages(&self) -> &[usize] {
        &self.per_node
    }

    /// Account one node→coordinator frame of `bytes`: counter bump,
    /// ledger row, per-node tally, and `comm` trace event, with the
    /// installed cause map applied first. Every up-direction charge in
    /// this fabric funnels through here; it is public so a sharded
    /// fleet can charge inter-tier frames (encoded elsewhere) on the
    /// root fabric without double-encoding.
    pub fn account_up(&mut self, node: NodeId, cause: CommCause, bytes: usize, span: SpanId) {
        let cause = (self.cause_map)(cause);
        self.stats.node_to_coord_msgs += 1;
        self.stats.node_to_coord_payload += bytes;
        self.ledger.charge_up(self.round, node, cause, bytes as u64);
        self.bump_node(node);
        self.comm_event("up", node, cause, bytes, span);
    }

    /// Account one coordinator→node frame of `bytes`; the down-direction
    /// mirror of [`CountingFabric::account_up`].
    pub fn account_down(&mut self, node: NodeId, cause: CommCause, bytes: usize, span: SpanId) {
        let cause = (self.cause_map)(cause);
        self.stats.coord_to_node_msgs += 1;
        self.stats.coord_to_node_payload += bytes;
        self.ledger.charge_down(self.round, node, cause, bytes as u64);
        self.bump_node(node);
        self.comm_event("down", node, cause, bytes, span);
    }

    fn bump_node(&mut self, node: usize) {
        if self.per_node.len() <= node {
            self.per_node.resize(node + 1, 0);
        }
        self.per_node[node] += 1;
    }

    /// Deliver a node message to the coordinator (through the codec) and
    /// return its replies, each of which must then be delivered with
    /// [`CountingFabric::deliver_to_node`]. The frame's ledger cause is
    /// classified from the message itself and no span context rides the
    /// header; use [`CountingFabric::deliver_to_coordinator_as`] when the
    /// eliciting context is known.
    pub fn deliver_to_coordinator(
        &mut self,
        coord: &mut Coordinator,
        msg: NodeMessage,
    ) -> Vec<Outbound> {
        let cause = CommCause::of_node_message(&msg);
        self.deliver_to_coordinator_as(coord, msg, cause, SpanId::NONE)
    }

    /// Deliver a node message with an explicit ledger cause and trace
    /// span: the span rides the frame header and parents the
    /// coordinator's handler span; the cause is what the frame's bytes
    /// are charged to (e.g. `Rejoin` for a re-registration after a
    /// crash, `LazySync` for a pull reply).
    pub fn deliver_to_coordinator_as(
        &mut self,
        coord: &mut Coordinator,
        msg: NodeMessage,
        cause: CommCause,
        span: SpanId,
    ) -> Vec<Outbound> {
        let frame = wire::encode_node_message_ctx(&msg, span);
        self.account_up(msg.sender(), cause, frame.len(), span);
        let (ctx_span, decoded) =
            wire::decode_node_message_ctx(&frame).expect("self-encoded frame decodes");
        let epoch = decoded.epoch();
        coord.handle_with_context(decoded, TraceCtx::new(ctx_span, epoch))
    }

    /// Deliver one coordinator message to its node; returns the node's
    /// reply, if any.
    pub fn deliver_to_node(&mut self, node: &mut Node, out: Outbound) -> Option<NodeMessage> {
        self.deliver_to_node_tagged(node, out).map(|(m, _, _)| m)
    }

    /// [`CountingFabric::deliver_to_node`], returning the reply tagged
    /// with the span and cause it inherits from the eliciting outbound —
    /// a pull reply answers the pull, so its bytes are charged to the
    /// pull's cause and its frame carries the pull's span back up.
    pub fn deliver_to_node_tagged(
        &mut self,
        node: &mut Node,
        out: Outbound,
    ) -> Option<(NodeMessage, SpanId, CommCause)> {
        debug_assert_eq!(node.id(), out.to, "misrouted message");
        let frame = wire::encode_coordinator_message_ctx(&out.msg, out.span);
        self.account_down(out.to, out.cause, frame.len(), out.span);
        let (span, decoded) =
            wire::decode_coordinator_message_ctx(&frame).expect("self-encoded frame decodes");
        node.handle(decoded).map(|m| (m, span, out.cause))
    }

    /// Convenience: deliver `first` and every cascading reply until the
    /// exchange quiesces (FIFO, like an ordered transport).
    pub fn route(&mut self, coord: &mut Coordinator, nodes: &mut [Node], first: NodeMessage) {
        let cause = CommCause::of_node_message(&first);
        self.route_as(coord, nodes, first, cause, SpanId::NONE);
    }

    /// [`CountingFabric::route`] with an explicit cause and span for the
    /// first frame; cascading replies inherit the cause and span of the
    /// outbound that elicited them.
    pub fn route_as(
        &mut self,
        coord: &mut Coordinator,
        nodes: &mut [Node],
        first: NodeMessage,
        cause: CommCause,
        span: SpanId,
    ) {
        let mut inbox = std::collections::VecDeque::from([(first, span, cause)]);
        while let Some((m, span, cause)) = inbox.pop_front() {
            let outs = self.deliver_to_coordinator_as(coord, m, cause, span);
            inbox.extend(self.deliver_batch_tagged(nodes, outs));
        }
    }

    /// Deliver a coordinator-originated outbound batch (e.g. the
    /// recovery sync an eviction issues) and every cascading reply to
    /// quiescence, FIFO. Replies inherit each eliciting frame's cause
    /// and span, exactly as in [`CountingFabric::route_as`].
    pub fn route_outbounds(
        &mut self,
        coord: &mut Coordinator,
        nodes: &mut [Node],
        outs: Vec<Outbound>,
    ) {
        let mut inbox: std::collections::VecDeque<_> =
            self.deliver_batch_tagged(nodes, outs).into();
        while let Some((m, span, cause)) = inbox.pop_front() {
            let outs = self.deliver_to_coordinator_as(coord, m, cause, span);
            inbox.extend(self.deliver_batch_tagged(nodes, outs));
        }
    }

    /// [`CountingFabric::route_outbounds`] with every frame's ledger
    /// cause overridden first — recovery traffic (`Eviction`, `Rejoin`)
    /// is charged separably from the steady-state cause the coordinator
    /// stamped on the outbound.
    pub fn route_outbounds_as(
        &mut self,
        coord: &mut Coordinator,
        nodes: &mut [Node],
        outs: Vec<Outbound>,
        cause: CommCause,
    ) {
        let outs = outs
            .into_iter()
            .map(|mut o| {
                o.cause = cause;
                o
            })
            .collect();
        self.route_outbounds(coord, nodes, outs);
    }

    /// Deliver one coordinator batch, frame by frame in batch order.
    /// Returns the nodes' replies in that order, each tagged with the
    /// span and cause inherited from its eliciting outbound.
    pub fn deliver_batch_tagged(
        &mut self,
        nodes: &mut [Node],
        outs: Vec<Outbound>,
    ) -> Vec<(NodeMessage, SpanId, CommCause)> {
        // A push loop on purpose: `filter_map(..).collect()` specializes
        // to an in-place collect into the batch's own, several times
        // larger, buffer, and a shard-wide full sync measured 1.6 ms
        // that way against 1.05 ms this way (`fleet_variance`,
        // `fullsync_p50_us`).
        let mut replies = Vec::new();
        for o in outs {
            let to = o.to;
            replies.extend(self.deliver_to_node_tagged(&mut nodes[to], o));
        }
        replies
    }
}

/// A crossbeam-channel fabric carrying encoded frames between threads —
/// the in-process stand-in for the paper's ZeroMQ deployment (§4.7).
pub struct ChannelFabric {
    coord_rx: Receiver<Vec<u8>>,
    coord_tx: Sender<Vec<u8>>,
    node_txs: Vec<Sender<Vec<u8>>>,
    node_rxs: Vec<Option<Receiver<Vec<u8>>>>,
}

impl ChannelFabric {
    /// A fabric connecting one coordinator with `n` nodes.
    pub fn new(n: usize) -> Self {
        let (coord_tx, coord_rx) = unbounded();
        let mut node_txs = Vec::with_capacity(n);
        let mut node_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            node_txs.push(tx);
            node_rxs.push(Some(rx));
        }
        Self {
            coord_rx,
            coord_tx,
            node_txs,
            node_rxs,
        }
    }

    /// The coordinator's endpoint (take once).
    pub fn coordinator_endpoint(&mut self) -> CoordinatorEndpoint {
        CoordinatorEndpoint {
            rx: self.coord_rx.clone(),
            node_txs: self.node_txs.clone(),
        }
    }

    /// Node `id`'s endpoint (take once per node).
    ///
    /// # Panics
    /// Panics when taken twice for the same node.
    pub fn node_endpoint(&mut self, id: NodeId) -> NodeEndpoint {
        NodeEndpoint {
            id,
            tx: self.coord_tx.clone(),
            rx: self.node_rxs[id].take().expect("endpoint already taken"),
        }
    }
}

/// The coordinator's side of a [`ChannelFabric`].
pub struct CoordinatorEndpoint {
    rx: Receiver<Vec<u8>>,
    node_txs: Vec<Sender<Vec<u8>>>,
}

impl CoordinatorEndpoint {
    /// Block for the next node message; `None` when all nodes hung up.
    pub fn recv(&self) -> Option<NodeMessage> {
        self.recv_traced().map(|(_, m)| m)
    }

    /// Like [`CoordinatorEndpoint::recv`], also yielding the span the
    /// sender propagated in the frame header.
    pub fn recv_traced(&self) -> Option<(SpanId, NodeMessage)> {
        let frame = self.rx.recv().ok()?;
        Some(wire::decode_node_message_ctx(&frame).expect("valid frame"))
    }

    /// Send one outbound message to its node; the outbound's span rides
    /// the frame header.
    pub fn send(&self, out: &Outbound) {
        let frame = wire::encode_coordinator_message_ctx(&out.msg, out.span);
        // A disconnected node (receiver dropped) is fine during shutdown.
        let _ = self.node_txs[out.to].send(frame.to_vec());
    }
}

/// One node's side of a [`ChannelFabric`].
pub struct NodeEndpoint {
    id: NodeId,
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl NodeEndpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Send a node message to the coordinator.
    pub fn send(&self, msg: &NodeMessage) {
        self.send_traced(msg, SpanId::NONE);
    }

    /// Send a node message, propagating `span` in the frame header.
    pub fn send_traced(&self, msg: &NodeMessage, span: SpanId) {
        let frame = wire::encode_node_message_ctx(msg, span);
        let _ = self.tx.send(frame.to_vec());
    }

    /// Non-blocking poll for a coordinator message.
    pub fn try_recv(&self) -> Option<CoordinatorMessage> {
        let frame = self.rx.try_recv().ok()?;
        Some(wire::decode_coordinator_message(&frame).expect("valid frame"))
    }

    /// Blocking receive; `None` when the coordinator hung up.
    pub fn recv(&self) -> Option<CoordinatorMessage> {
        let frame = self.rx.recv().ok()?;
        Some(wire::decode_coordinator_message(&frame).expect("valid frame"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::{MonitorConfig, MonitoredFunction};
    use std::sync::Arc;

    pub(super) struct Mean1;
    impl ScalarFn for Mean1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0]
        }
    }

    pub(super) fn fabric_mean1() -> Mean1 {
        Mean1
    }

    fn f() -> Arc<dyn MonitoredFunction> {
        Arc::new(AutoDiffFn::new(Mean1))
    }

    #[test]
    fn counting_fabric_accounts_both_directions() {
        let f = f();
        let mut coord = Coordinator::new(f.clone(), 2, MonitorConfig::builder(0.5).build());
        let mut nodes = vec![Node::new(0, f.clone()), Node::new(1, f.clone())];
        let mut fabric = CountingFabric::new();
        for i in 0..2 {
            if let Some(m) = nodes[i].update_data(vec![0.0]) {
                fabric.route(&mut coord, &mut nodes, m);
            }
        }
        let st = fabric.stats().clone();
        // 2 registrations up, 2 NewConstraints down.
        assert_eq!(st.node_to_coord_msgs, 2);
        assert_eq!(st.coord_to_node_msgs, 2);
        assert!(st.node_to_coord_payload > 0);
        assert!(st.coord_to_node_payload > st.node_to_coord_payload);
        assert_eq!(st.total_msgs(), 4);
        assert_eq!(
            st.total_traffic(66),
            st.total_payload() + 66 * st.total_msgs()
        );
        // The ledger charged every frame: totals match the counters
        // exactly, split into registration (up) and full-sync installs
        // (down).
        let ledger = fabric.ledger();
        assert_eq!(
            ledger.check_conservation(st.total_msgs() as u64, st.total_payload() as u64),
            None
        );
        let by_cause = ledger.by_cause();
        assert_eq!(by_cause[&CommCause::Registration].up_msgs, 2);
        assert_eq!(by_cause[&CommCause::Registration].down_msgs, 0);
        assert_eq!(by_cause[&CommCause::FullSync].down_msgs, 2);
        assert_eq!(
            by_cause[&CommCause::FullSync].down_bytes,
            st.coord_to_node_payload as u64
        );
    }

    #[test]
    fn channel_fabric_moves_frames_across_threads() {
        let mut fabric = ChannelFabric::new(1);
        let coord_ep = fabric.coordinator_endpoint();
        let node_ep = fabric.node_endpoint(0);

        let t = std::thread::spawn(move || {
            let msg = coord_ep.recv().expect("one message");
            assert_eq!(msg.sender(), 0);
            coord_ep.send(&Outbound::new(
                0,
                CoordinatorMessage::RequestLocalVector { epoch: 0 },
                CommCause::FullSync,
            ));
        });

        node_ep.send(&NodeMessage::LocalVector {
            node: 0,
            vector: vec![1.0, 2.0],
            epoch: 0,
        });
        let got = node_ep.recv().expect("reply");
        assert_eq!(got, CoordinatorMessage::RequestLocalVector { epoch: 0 });
        t.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn node_endpoint_single_take() {
        let mut fabric = ChannelFabric::new(1);
        let _a = fabric.node_endpoint(0);
        let _b = fabric.node_endpoint(0);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use automon_core::{Coordinator, Node};
    use std::sync::Arc;

    #[test]
    fn per_node_counters_track_involvement() {
        let f: Arc<dyn automon_core::MonitoredFunction> = Arc::new(
            automon_autodiff::AutoDiffFn::new(super::tests::fabric_mean1()),
        );
        let mut coord =
            Coordinator::new(f.clone(), 2, automon_core::MonitorConfig::builder(0.5).build());
        let mut nodes = vec![Node::new(0, f.clone()), Node::new(1, f.clone())];
        let mut fabric = CountingFabric::new();
        for i in 0..2 {
            if let Some(m) = nodes[i].update_data(vec![0.0]) {
                fabric.route(&mut coord, &mut nodes, m);
            }
        }
        // Each node: 1 registration + 1 constraint install.
        assert_eq!(fabric.per_node_messages(), &[2, 2]);
        let total: usize = fabric.per_node_messages().iter().sum();
        assert_eq!(total, fabric.stats().total_msgs());
    }

    #[test]
    fn traffic_stats_arithmetic() {
        let st = TrafficStats {
            node_to_coord_msgs: 3,
            coord_to_node_msgs: 2,
            node_to_coord_payload: 100,
            coord_to_node_payload: 250,
        };
        assert_eq!(st.total_msgs(), 5);
        assert_eq!(st.total_payload(), 350);
        assert_eq!(st.total_traffic(0), 350);
        assert_eq!(st.total_traffic(66), 350 + 5 * 66);
    }
}
