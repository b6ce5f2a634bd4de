//! The in-process accounting fabric.

use std::collections::VecDeque;

use automon_core::{CommCause, CommLedger, Coordinator, Node, NodeId, NodeMessage, Outbound};
use automon_obs::{SpanId, Telemetry, TraceCtx};

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
}

/// An in-process fabric that charges the codec's exact frame length for
/// every message ([`wire::node_message_len`] /
/// [`wire::coordinator_message_len`], pinned to the encoders' output by
/// the wire proptests) and accounts messages and bytes in both
/// directions while delivering synchronously, one frame at a time on
/// the caller's thread. The message itself is handed on: the codec is
/// lossless, so the frame it would have produced decodes to the same
/// message, span and epoch. A node's handler only installs what the
/// frame carries (`Node::handle` moves fields or clones one vector), so
/// there is nothing in a delivery worth placing on another thread.
#[derive(Debug)]
pub struct CountingFabric {
    stats: TrafficStats,
    ledger: CommLedger,
    tel: Telemetry,
    cause_map: fn(CommCause) -> CommCause,
    /// The node frames waiting to go up, oldest first. Empty between
    /// routes; kept so every route reuses its capacity.
    fifo: VecDeque<(NodeMessage, SpanId, CommCause)>,
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
            ledger: CommLedger::default(),
            tel: Telemetry::disabled(),
            cause_map: std::convert::identity,
            fifo: VecDeque::new(),
        }
    }

    /// Attach telemetry: the fabric emits one `comm` trace event per
    /// frame.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Install a cause map applied at every charge point, *before* the
    /// ledger cell, counter bump, and `comm` trace event are written.
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

    fn comm_event(
        &self,
        dir: &'static str,
        node: NodeId,
        cause: CommCause,
        bytes: usize,
        span: SpanId,
    ) {
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

    /// Account one node→coordinator frame of `bytes`: counter bump,
    /// ledger charge, and `comm` trace event, with the
    /// installed cause map applied first. Every up-direction charge in
    /// this fabric funnels through here; it is public so a sharded
    /// fleet can charge inter-tier frames (encoded elsewhere) on the
    /// root fabric without double-encoding.
    pub fn account_up(&mut self, node: NodeId, cause: CommCause, bytes: usize, span: SpanId) {
        let cause = (self.cause_map)(cause);
        self.stats.node_to_coord_msgs += 1;
        self.stats.node_to_coord_payload += bytes;
        self.ledger.charge_up(cause, bytes as u64);
        self.comm_event("up", node, cause, bytes, span);
    }

    /// Account one coordinator→node frame of `bytes`; the down-direction
    /// mirror of [`CountingFabric::account_up`].
    pub fn account_down(&mut self, node: NodeId, cause: CommCause, bytes: usize, span: SpanId) {
        let cause = (self.cause_map)(cause);
        self.stats.coord_to_node_msgs += 1;
        self.stats.coord_to_node_payload += bytes;
        self.ledger.charge_down(cause, bytes as u64);
        self.comm_event("down", node, cause, bytes, span);
    }

    /// Deliver a node message to the coordinator, charged its exact
    /// frame length, and return its replies, each of which must then be
    /// delivered with [`CountingFabric::deliver_to_node_tagged`]. The
    /// span is the trace context the frame header carries and parents
    /// the coordinator's handler span; the cause is what the frame's bytes
    /// are charged to (e.g. `Rejoin` for a re-registration after a
    /// crash, `LazySync` for a pull reply).
    pub fn deliver_to_coordinator_as(
        &mut self,
        coord: &mut Coordinator,
        msg: NodeMessage,
        cause: CommCause,
        span: SpanId,
    ) -> Vec<Outbound> {
        self.account_up(msg.sender(), cause, wire::node_message_len(&msg), span);
        let epoch = msg.epoch();
        coord.handle_with_context(msg, TraceCtx::new(span, epoch))
    }

    /// Deliver one coordinator message to its node; returns the node's
    /// reply, if any, tagged with the span and cause it inherits from the
    /// eliciting outbound — a pull reply answers the pull, so its bytes
    /// are charged to the pull's cause and its frame carries the pull's
    /// span back up.
    pub fn deliver_to_node_tagged(
        &mut self,
        node: &mut Node,
        out: Outbound,
    ) -> Option<(NodeMessage, SpanId, CommCause)> {
        debug_assert_eq!(node.id(), out.to, "misrouted message");
        let len = wire::coordinator_message_len(&out.msg);
        self.account_down(out.to, out.cause, len, out.span);
        node.handle(out.msg).map(|m| (m, out.span, out.cause))
    }

    /// Deliver `first`, charged to `cause` with `span` riding its header,
    /// and every cascading reply until the exchange quiesces (FIFO, like
    /// an ordered transport); replies inherit the cause and span of the
    /// outbound that elicited them.
    pub fn route_as(
        &mut self,
        coord: &mut Coordinator,
        nodes: &mut [Node],
        first: NodeMessage,
        cause: CommCause,
        span: SpanId,
    ) {
        self.fifo.push_back((first, span, cause));
        self.drain(coord, nodes);
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
        self.deliver_batch_tagged(nodes, outs);
        self.drain(coord, nodes);
    }

    /// The FIFO cascade: the oldest waiting node frame goes up, the
    /// coordinator's replies go down in batch order, and what the nodes
    /// answer queues behind the frames already waiting.
    fn drain(&mut self, coord: &mut Coordinator, nodes: &mut [Node]) {
        while let Some((m, span, cause)) = self.fifo.pop_front() {
            let outs = self.deliver_to_coordinator_as(coord, m, cause, span);
            self.deliver_batch_tagged(nodes, outs);
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

    /// Deliver one coordinator batch, frame by frame in batch order,
    /// and queue the nodes' replies on the FIFO in that order, each
    /// tagged with the span and cause inherited from its eliciting
    /// outbound.
    fn deliver_batch_tagged(&mut self, nodes: &mut [Node], outs: Vec<Outbound>) {
        for o in outs {
            let to = o.to;
            if let Some(reply) = self.deliver_to_node_tagged(&mut nodes[to], o) {
                self.fifo.push_back(reply);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::{MonitorConfig, MonitoredFunction};
    use std::sync::Arc;

    struct Mean1;
    impl ScalarFn for Mean1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0]
        }
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
                let cause = CommCause::of_node_message(&m);
                fabric.route_as(&mut coord, &mut nodes, m, cause, SpanId::NONE);
            }
        }
        let st = fabric.stats().clone();
        // 2 registrations up, 2 NewConstraints down.
        assert_eq!(st.node_to_coord_msgs, 2);
        assert_eq!(st.coord_to_node_msgs, 2);
        assert!(st.node_to_coord_payload > 0);
        assert!(st.coord_to_node_payload > st.node_to_coord_payload);
        assert_eq!(st.total_msgs(), 4);
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
    fn traffic_stats_arithmetic() {
        let st = TrafficStats {
            node_to_coord_msgs: 3,
            coord_to_node_msgs: 2,
            node_to_coord_payload: 100,
            coord_to_node_payload: 250,
        };
        assert_eq!(st.total_msgs(), 5);
        assert_eq!(st.total_payload(), 350);
    }
}
