//! The nonblocking reactor: one event loop instead of a thread per node.
//!
//! The blocking transport ([`crate::tcp`]) spawns a reader thread per
//! connection and issues two syscalls per frame in each direction. That
//! is fine for the paper's 10-node experiments and fatal for the
//! 10k-stream fleets the ROADMAP targets. [`Reactor`] replaces it with
//! a slab of per-connection state machines driven by edge-triggered
//! readiness behind the [`Poller`] seam:
//!
//! * **Frame coalescing** — a readable connection is drained to
//!   `WouldBlock` into one reused buffer; every complete frame in the
//!   chunk decodes from that single `read` via [`FrameAssembler`].
//! * **Scatter-gather writes** — pending outbound frames batch into one
//!   `writev` through [`OutQueue`]; the iovec list is reused across
//!   rounds, so steady-state flushing allocates nothing per frame.
//! * **Bounded queues with backpressure** — each node's outbound queue
//!   is capped; a send over the cap fails with
//!   [`TcpError::Backpressured`] instead of buffering without bound,
//!   and the node is flagged so the coordinator can degrade it to
//!   lazy-sync participation (surfaced as `automon_net_backpressure_*`).
//! * **The chaos seam** — an installed [`FrameGate`] sees every decoded
//!   inbound frame, the same boundary the in-process chaos fabric
//!   gates, so seeded fault plans replay identically here.
//!
//! The core is synchronous: `poll_once` + `pop_inbound`, no hidden
//! threads — which is what lets [`crate::sim_poller::SimPoller`] drive
//! it deterministically. [`ReactorCoordinatorTransport`] wraps the core
//! in one event-loop thread and exposes the same API as
//! [`crate::tcp::TcpCoordinatorTransport`], selectable at runtime via
//! `--net-backend {threaded,reactor}`.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use automon_core::{NodeId, NodeMessage, Outbound};
use automon_obs::{Counter, Gauge, SpanId, Telemetry};
use bytes::Bytes;

use crate::frame::{FrameAssembler, OutQueue};
use crate::gate::{FrameGate, GateVerdict};
use crate::poller::{EpollPoller, Event, Poller, PollWaker, SyscallStats, LISTENER_TOKEN};
use crate::tcp::{CoordinatorTransport, TcpError};
use crate::wire;

/// Tuning for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Node count (ids `0..n`).
    pub n: usize,
    /// Per-node outbound frame cap; sends beyond it are refused with
    /// [`TcpError::Backpressured`].
    pub max_outbound_frames: usize,
    /// Size of the reused read buffer.
    pub read_buf_len: usize,
}

impl ReactorConfig {
    /// Defaults for `n` nodes: 64 queued frames per node, 64 KiB reads.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            max_outbound_frames: 64,
            read_buf_len: 64 * 1024,
        }
    }
}

/// Traffic counts accumulated by the reactor core (delivered work, as
/// opposed to the [`SyscallStats`] it cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorTraffic {
    /// Frames decoded from node connections (heartbeats included).
    pub frames_in: u64,
    /// Wire bytes read.
    pub bytes_in: u64,
    /// Frames queued toward nodes.
    pub frames_out: u64,
    /// Wire bytes accepted by the kernel.
    pub bytes_out: u64,
    /// Heartbeat frames absorbed.
    pub heartbeats: u64,
    /// Connections admitted (initial + rejoins).
    pub accepts: u64,
}

/// Backpressure + traffic telemetry; disabled handles until
/// `set_telemetry`.
#[derive(Default)]
struct ReactorTel {
    frames_in: Counter,
    bytes_in: Counter,
    frames_out: Counter,
    bytes_out: Counter,
    heartbeats: Counter,
    accepts: Counter,
    send_failures: Counter,
    bp_rejects: Counter,
    bp_engaged: Counter,
    bp_nodes: Gauge,
}

impl ReactorTel {
    fn new(tel: &Telemetry) -> Self {
        Self {
            frames_in: tel.counter(
                "automon_net_frames_total{dir=\"in\"}",
                "Frames moved over the transport, by direction",
            ),
            bytes_in: tel.counter(
                "automon_net_bytes_total{dir=\"in\"}",
                "Wire bytes moved (payload + length prefix), by direction",
            ),
            frames_out: tel.counter(
                "automon_net_frames_total{dir=\"out\"}",
                "Frames moved over the transport, by direction",
            ),
            bytes_out: tel.counter(
                "automon_net_bytes_total{dir=\"out\"}",
                "Wire bytes moved (payload + length prefix), by direction",
            ),
            heartbeats: tel.counter(
                "automon_net_heartbeats_total",
                "Heartbeat frames received",
            ),
            accepts: tel.counter(
                "automon_net_accepts_total",
                "Node connections admitted (initial + rejoins)",
            ),
            send_failures: tel.counter(
                "automon_net_send_failures_total",
                "Coordinator sends that failed (dead connection)",
            ),
            bp_rejects: tel.counter(
                "automon_net_backpressure_rejects_total",
                "Sends refused because the node's outbound queue was full",
            ),
            bp_engaged: tel.counter(
                "automon_net_backpressure_engaged_total",
                "Times a node's outbound queue crossed into backpressure",
            ),
            bp_nodes: tel.gauge(
                "automon_net_backpressure_nodes",
                "Nodes currently under outbound backpressure",
            ),
        }
    }
}

/// Per-connection state machine in the slab.
struct ConnState<C> {
    conn: C,
    asm: FrameAssembler,
    outq: OutQueue,
    /// Set by the hello frame; `None` while the handshake is pending.
    node: Option<NodeId>,
    /// The last write was cut short; hold flushes until the next
    /// writable edge.
    write_blocked: bool,
}

/// Event-loop core: slab of connections over a [`Poller`].
///
/// Synchronous by design — `poll_once` runs one readiness round, frames
/// come out of `pop_inbound`, sends go in through `enqueue`. The
/// [`ReactorCoordinatorTransport`] wraps it in a thread; the sim
/// harness calls it inline.
pub struct Reactor<P: Poller> {
    poller: P,
    listener: Option<P::Listener>,
    slab: Vec<Option<ConnState<P::Conn>>>,
    free: Vec<usize>,
    /// node id -> slab slot of its live connection.
    node_slot: Vec<Option<usize>>,
    cfg: ReactorConfig,
    gate: Option<Box<dyn FrameGate>>,
    inbound: VecDeque<(SpanId, NodeMessage)>,
    /// Frames the gate pushed behind the current batch.
    reordered: Vec<(SpanId, NodeMessage)>,
    /// Frames parked by the gate, keyed by maturity round.
    delayed: BTreeMap<usize, Vec<(SpanId, NodeMessage)>>,
    round: usize,
    /// Nodes whose queue crossed the cap and has not drained below half.
    backpressured: Vec<bool>,
    last_seen_ms: Vec<u64>,
    read_buf: Vec<u8>,
    events: Vec<Event>,
    traffic: ReactorTraffic,
    tel: ReactorTel,
}

impl<P: Poller> Reactor<P> {
    /// A reactor over `poller` accepting on `listener` (pass `None` for
    /// pre-established connection setups via [`Reactor::adopt`]).
    pub fn new(
        mut poller: P,
        listener: Option<P::Listener>,
        cfg: ReactorConfig,
    ) -> io::Result<Self> {
        if let Some(l) = &listener {
            poller.register_listener(l)?;
        }
        let n = cfg.n;
        Ok(Self {
            poller,
            listener,
            slab: Vec::new(),
            free: Vec::new(),
            node_slot: vec![None; n],
            read_buf: vec![0u8; cfg.read_buf_len.max(4096)],
            cfg,
            gate: None,
            inbound: VecDeque::new(),
            reordered: Vec::new(),
            delayed: BTreeMap::new(),
            round: 0,
            backpressured: vec![false; n],
            last_seen_ms: vec![0; n],
            events: Vec::new(),
            traffic: ReactorTraffic::default(),
            tel: ReactorTel::default(),
        })
    }

    /// Install the fault-injection gate (chaos at the frame boundary).
    pub fn set_gate(&mut self, gate: Box<dyn FrameGate>) {
        self.gate = Some(gate);
    }

    /// Install observability handles.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = ReactorTel::new(tel);
    }

    /// Adopt a pre-established connection (used by tests and setups
    /// without a listener).
    pub fn adopt(&mut self, conn: P::Conn) -> io::Result<()> {
        self.install(conn)
    }

    /// Advance the protocol round: frames the gate delayed until now
    /// mature into the inbound queue.
    pub fn begin_round(&mut self, round: usize) {
        self.round = round;
        let due: Vec<usize> = self.delayed.range(..=round).map(|(&r, _)| r).collect();
        for r in due {
            for f in self.delayed.remove(&r).unwrap_or_default() {
                self.inbound.push_back(f);
            }
        }
    }

    /// One readiness round: wait (bounded by `timeout`), service every
    /// event, then append gate-reordered frames behind the batch.
    pub fn poll_once(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.poller.wait(&mut events, timeout)?;
        for &ev in &events {
            self.handle_event(ev);
        }
        self.events = events;
        for f in self.reordered.drain(..).collect::<Vec<_>>() {
            self.inbound.push_back(f);
        }
        Ok(())
    }

    /// Next decoded (and gate-surviving) inbound frame.
    pub fn pop_inbound(&mut self) -> Option<(SpanId, NodeMessage)> {
        self.inbound.pop_front()
    }

    /// Queue one outbound frame and flush opportunistically.
    ///
    /// [`TcpError::NotConnected`] without a live connection;
    /// [`TcpError::Backpressured`] when the node's queue is at its cap —
    /// the caller decides whether to drop, retry, or degrade the node.
    pub fn enqueue(&mut self, out: &Outbound) -> Result<(), TcpError> {
        let Some(slot) = self.node_slot.get(out.to).copied().flatten() else {
            return Err(TcpError::NotConnected(out.to));
        };
        let state = self.slab[slot].as_mut().expect("node_slot points at live slot");
        if state.outq.is_saturated() {
            self.tel.bp_rejects.inc();
            self.engage_backpressure(out.to);
            return Err(TcpError::Backpressured(out.to));
        }
        let frame: Bytes = wire::encode_coordinator_message_ctx(&out.msg, out.span);
        let wire_len = frame.len() as u64 + 4;
        state
            .outq
            .push(frame)
            .map_err(|_| TcpError::Backpressured(out.to))?;
        self.traffic.frames_out += 1;
        self.traffic.bytes_out += wire_len;
        self.tel.frames_out.inc();
        self.tel.bytes_out.add(wire_len);
        self.flush_slot(slot);
        Ok(())
    }

    /// Flush every connection with pending output (up to writability).
    pub fn flush_all(&mut self) {
        for slot in 0..self.slab.len() {
            if self.slab[slot].is_some() {
                self.flush_slot(slot);
            }
        }
    }

    /// `true` while a live (post-hello) connection to `node` exists.
    pub fn is_connected(&self, node: NodeId) -> bool {
        self.node_slot.get(node).copied().flatten().is_some()
    }

    /// Nodes with a live connection.
    pub fn connected_count(&self) -> usize {
        self.node_slot.iter().filter(|s| s.is_some()).count()
    }

    /// `true` while `node`'s outbound queue is in the backpressure band.
    pub fn node_backpressured(&self, node: NodeId) -> bool {
        self.backpressured.get(node).copied().unwrap_or(false)
    }

    /// Nodes currently under backpressure.
    pub fn backpressured_nodes(&self) -> Vec<NodeId> {
        (0..self.cfg.n).filter(|&i| self.backpressured[i]).collect()
    }

    /// Nodes not heard from (frame or heartbeat) for `timeout` on the
    /// poller's clock.
    pub fn stale_nodes(&self, timeout: Duration) -> Vec<NodeId> {
        let now = self.poller.now_ms();
        let horizon = timeout.as_millis() as u64;
        (0..self.cfg.n)
            .filter(|&i| now.saturating_sub(self.last_seen_ms[i]) >= horizon)
            .collect()
    }

    /// Traffic counters (frames/bytes moved).
    pub fn traffic(&self) -> ReactorTraffic {
        self.traffic
    }

    /// Syscalls the poller issued.
    pub fn syscalls(&self) -> SyscallStats {
        self.poller.stats()
    }

    /// Frames parked in the gate's delay queue.
    pub fn delayed_frames(&self) -> usize {
        self.delayed.values().map(Vec::len).sum()
    }

    // -- internals ----------------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        if ev.token == LISTENER_TOKEN {
            self.accept_ready();
            return;
        }
        let slot = ev.token;
        if self.slab.get(slot).is_none_or(Option::is_none) {
            return; // connection already closed this batch
        }
        if ev.writable {
            if let Some(state) = self.slab[slot].as_mut() {
                state.write_blocked = false;
            }
            self.flush_slot(slot);
        }
        if ev.readable || ev.closed {
            self.read_ready(slot);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match self.poller.accept(listener) {
                Ok(Some(conn)) => {
                    if self.install(conn).is_err() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(_) => return,
            }
        }
    }

    fn install(&mut self, conn: P::Conn) -> io::Result<()> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.poller.register(&conn, slot)?;
        self.slab[slot] = Some(ConnState {
            conn,
            asm: FrameAssembler::new(),
            // Double headroom over the advertised cap: `enqueue`
            // pre-checks saturation against the cap, the hard bound
            // only catches races on the threaded wrapper.
            outq: OutQueue::new(self.cfg.max_outbound_frames),
            node: None,
            write_blocked: false,
        });
        // Bytes may have arrived before registration; drain them now so
        // an edge that fired early is not lost.
        self.read_ready(slot);
        Ok(())
    }

    fn read_ready(&mut self, slot: usize) {
        loop {
            let Some(state) = self.slab[slot].as_mut() else { return };
            match self.poller.read(&mut state.conn, &mut self.read_buf) {
                Ok(0) => {
                    self.close_slot(slot);
                    return;
                }
                Ok(n) => {
                    self.traffic.bytes_in += n as u64;
                    self.tel.bytes_in.add(n as u64);
                    let chunk = &self.read_buf[..n];
                    if let Some(state) = self.slab[slot].as_mut() {
                        state.asm.feed(chunk);
                    }
                    if !self.drain_frames(slot) {
                        return; // connection closed on protocol error
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_slot(slot);
                    return;
                }
            }
        }
    }

    /// Decode every complete frame buffered on `slot`; `false` when the
    /// connection was dropped (corrupt frame, bad hello).
    fn drain_frames(&mut self, slot: usize) -> bool {
        loop {
            let Some(state) = self.slab[slot].as_mut() else { return false };
            let frame = match state.asm.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => return true,
                Err(_) => {
                    // Framing is byte-synchronized: an oversized or
                    // corrupt prefix means the stream is lost.
                    self.close_slot(slot);
                    return false;
                }
            };
            self.traffic.frames_in += 1;
            self.tel.frames_in.inc();
            let node = state.node;
            if frame.is_empty() {
                self.traffic.heartbeats += 1;
                self.tel.heartbeats.inc();
                if let Some(id) = node {
                    self.touch(id);
                }
                continue;
            }
            match node {
                None => {
                    // Handshake: the first frame introduces the node.
                    let Ok(msg) = wire::decode_node_message(&frame) else {
                        self.close_slot(slot);
                        return false;
                    };
                    let id = msg.sender();
                    if id >= self.cfg.n {
                        self.close_slot(slot);
                        return false;
                    }
                    // A rejoin replaces any stale connection.
                    if let Some(old) = self.node_slot[id] {
                        if old != slot {
                            self.close_slot(old);
                        }
                    }
                    if let Some(state) = self.slab[slot].as_mut() {
                        state.node = Some(id);
                    }
                    self.node_slot[id] = Some(slot);
                    self.traffic.accepts += 1;
                    self.tel.accepts.inc();
                    self.touch(id);
                }
                Some(id) => {
                    let Ok((span, msg)) = wire::decode_node_message_ctx(&frame) else {
                        self.close_slot(slot);
                        return false;
                    };
                    self.touch(id);
                    self.admit_inbound(span, msg);
                }
            }
        }
    }

    /// Pass one decoded frame through the gate (chaos seam) and into
    /// the inbound queue.
    fn admit_inbound(&mut self, span: SpanId, msg: NodeMessage) {
        let verdict = match self.gate.as_mut() {
            Some(g) => g.gate(false),
            None => GateVerdict::Deliver,
        };
        match verdict {
            GateVerdict::Deliver => self.inbound.push_back((span, msg)),
            GateVerdict::DeliverTwice => {
                self.inbound.push_back((span, msg.clone()));
                self.reordered.push((span, msg));
            }
            GateVerdict::Reorder => self.reordered.push((span, msg)),
            GateVerdict::Delay(rounds) => self
                .delayed
                .entry(self.round + rounds)
                .or_default()
                .push((span, msg)),
            GateVerdict::Discard => {}
        }
    }

    fn flush_slot(&mut self, slot: usize) {
        loop {
            let Some(state) = self.slab[slot].as_mut() else { return };
            if state.write_blocked || state.outq.is_empty() {
                break;
            }
            let mut offered = 0usize;
            let poller = &mut self.poller;
            let conn = &mut state.conn;
            let res = state.outq.flush_with(|iov| {
                offered = iov.iter().map(|v| v.len).sum();
                poller.writev(conn, iov)
            });
            match res {
                Ok(n) if n == offered => continue,
                Ok(_) => {
                    // Partial acceptance: the send buffer filled; the
                    // next writable edge resumes exactly where the
                    // written bytes stopped.
                    state.write_blocked = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    state.write_blocked = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.tel.send_failures.inc();
                    self.close_slot(slot);
                    return;
                }
            }
        }
        // Draining below half the cap relieves backpressure.
        if let Some(state) = self.slab[slot].as_ref() {
            if let Some(id) = state.node {
                if self.backpressured[id]
                    && state.outq.len() <= self.cfg.max_outbound_frames / 2
                {
                    self.backpressured[id] = false;
                    self.sync_bp_gauge();
                }
            }
        }
    }

    fn engage_backpressure(&mut self, node: NodeId) {
        if !self.backpressured[node] {
            self.backpressured[node] = true;
            self.tel.bp_engaged.inc();
            self.sync_bp_gauge();
        }
    }

    fn sync_bp_gauge(&self) {
        self.tel
            .bp_nodes
            .set(self.backpressured.iter().filter(|&&b| b).count() as f64);
    }

    fn touch(&mut self, node: NodeId) {
        self.last_seen_ms[node] = self.poller.now_ms();
    }

    fn close_slot(&mut self, slot: usize) {
        let Some(state) = self.slab[slot].take() else { return };
        let _ = self.poller.deregister(&state.conn);
        if let Some(id) = state.node {
            if self.node_slot[id] == Some(slot) {
                self.node_slot[id] = None;
                // A dead connection cannot exert queue pressure.
                if self.backpressured[id] {
                    self.backpressured[id] = false;
                    self.sync_bp_gauge();
                }
            }
        }
        self.free.push(slot);
    }
}

// ---------------------------------------------------------------------
// Threaded wrapper over the epoll reactor
// ---------------------------------------------------------------------

/// State shared between the caller-facing handle and the event loop.
struct LoopShared {
    /// Outbounds accepted by `send`, waiting for the loop.
    cmd: Mutex<VecDeque<Outbound>>,
    /// Per-node frames in flight (cmd queue + reactor queue), the
    /// synchronous backpressure check.
    depth: Vec<AtomicUsize>,
    connected: Vec<AtomicBool>,
    backpressured: Vec<AtomicBool>,
    last_seen_ms: Vec<AtomicU64>,
    now_ms: AtomicU64,
    traffic: [AtomicU64; 6],
    shutdown: AtomicBool,
    bp_rejects: Counter,
    send_failures: Counter,
}

impl LoopShared {
    fn publish(&self, reactor: &Reactor<EpollPoller>) {
        for i in 0..reactor.cfg.n {
            self.connected[i].store(reactor.is_connected(i), Ordering::Relaxed);
            self.backpressured[i].store(reactor.node_backpressured(i), Ordering::Relaxed);
            self.last_seen_ms[i].store(reactor.last_seen_ms[i], Ordering::Relaxed);
        }
        self.now_ms.store(reactor.poller.now_ms(), Ordering::Relaxed);
        let t = reactor.traffic();
        for (cell, v) in self.traffic.iter().zip([
            t.frames_in,
            t.bytes_in,
            t.frames_out,
            t.bytes_out,
            t.heartbeats,
            t.accepts,
        ]) {
            cell.store(v, Ordering::Relaxed);
        }
    }
}

/// Coordinator transport over the epoll reactor: same API surface as
/// [`crate::tcp::TcpCoordinatorTransport`], one event-loop thread
/// instead of a reader thread per node, and synchronous backpressure on
/// `send`.
pub struct ReactorCoordinatorTransport {
    /// Inbound frames cross the loop→caller channel in per-poll-cycle
    /// batches (one channel node per batch, not per frame); `buf`
    /// holds the tail of the last batch between `recv` calls.
    rx: Receiver<Vec<(SpanId, NodeMessage)>>,
    buf: Mutex<VecDeque<(SpanId, NodeMessage)>>,
    shared: Arc<LoopShared>,
    waker: crate::poller::EpollWaker,
    syscalls: Arc<crate::poller::SyscallCounters>,
    max_outbound_frames: usize,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ReactorCoordinatorTransport {
    /// Bind `addr` and accept `n` node hellos (blocking; see
    /// [`ReactorCoordinatorTransport::bind_with_timeout`]).
    pub fn bind(addr: SocketAddr, n: usize) -> Result<(Self, SocketAddr), TcpError> {
        Self::bind_with_timeout(addr, n, None)
    }

    /// Like [`ReactorCoordinatorTransport::bind`] with a hello deadline.
    pub fn bind_with_timeout(
        addr: SocketAddr,
        n: usize,
        hello_timeout: Option<Duration>,
    ) -> Result<(Self, SocketAddr), TcpError> {
        Self::bind_with_telemetry(addr, n, hello_timeout, Telemetry::disabled())
    }

    /// Full constructor: transport + backpressure counters registered
    /// on `tel`.
    pub fn bind_with_telemetry(
        addr: SocketAddr,
        n: usize,
        hello_timeout: Option<Duration>,
        tel: Telemetry,
    ) -> Result<(Self, SocketAddr), TcpError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = EpollPoller::new()?;
        let syscalls = poller.counters();
        let waker = poller.waker();
        let mut reactor = Reactor::new(poller, Some(listener), ReactorConfig::new(n))?;
        reactor.set_telemetry(&tel);

        // Hello phase: pump the loop inline until every node greeted.
        let deadline = hello_timeout.map(|t| Instant::now() + t);
        while reactor.connected_count() < n {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                let missing = (0..n).filter(|&i| !reactor.is_connected(i)).collect();
                return Err(TcpError::HelloTimeout(missing));
            }
            reactor
                .poll_once(Some(Duration::from_millis(20)))
                .map_err(TcpError::Io)?;
        }

        let shared = Arc::new(LoopShared {
            cmd: Mutex::new(VecDeque::new()),
            depth: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            connected: (0..n).map(|_| AtomicBool::new(true)).collect(),
            backpressured: (0..n).map(|_| AtomicBool::new(false)).collect(),
            last_seen_ms: (0..n).map(|_| AtomicU64::new(0)).collect(),
            now_ms: AtomicU64::new(0),
            traffic: Default::default(),
            shutdown: AtomicBool::new(false),
            bp_rejects: tel.counter(
                "automon_net_backpressure_rejects_total",
                "Sends refused because the node's outbound queue was full",
            ),
            send_failures: tel.counter(
                "automon_net_send_failures_total",
                "Coordinator sends that failed (dead connection)",
            ),
        });
        shared.publish(&reactor);

        let (tx, rx) = channel();
        let max_outbound_frames = reactor.cfg.max_outbound_frames;
        let loop_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("automon-reactor".into())
            .spawn(move || event_loop(reactor, loop_shared, tx))
            .map_err(TcpError::Io)?;

        Ok((
            Self {
                rx,
                buf: Mutex::new(VecDeque::new()),
                shared,
                waker,
                syscalls,
                max_outbound_frames,
                handle: Some(handle),
            },
            local,
        ))
    }

    /// Blocking receive; `None` once the loop exits.
    pub fn recv(&self) -> Option<NodeMessage> {
        self.recv_traced().map(|(_, m)| m)
    }

    /// Receive with the propagated span.
    pub fn recv_traced(&self) -> Option<(SpanId, NodeMessage)> {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = buf.pop_front() {
                return Some(item);
            }
            buf.extend(self.rx.recv().ok()?);
        }
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<NodeMessage> {
        self.recv_timeout_traced(timeout).map(|(_, m)| m)
    }

    /// [`ReactorCoordinatorTransport::recv_traced`] with a timeout.
    pub fn recv_timeout_traced(&self, timeout: Duration) -> Option<(SpanId, NodeMessage)> {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = buf.pop_front() {
                return Some(item);
            }
            buf.extend(self.rx.recv_timeout(timeout).ok()?);
        }
    }

    /// Queue one outbound frame toward its node.
    ///
    /// Fails synchronously: [`TcpError::NotConnected`] without a live
    /// connection, [`TcpError::Backpressured`] when the node already
    /// has a full queue's worth of frames in flight — the signal to
    /// degrade that node to lazy-sync participation instead of letting
    /// its queue grow without bound.
    pub fn send(&self, out: &Outbound) -> Result<(), TcpError> {
        if !self.shared.connected[out.to].load(Ordering::Relaxed) {
            return Err(TcpError::NotConnected(out.to));
        }
        if self.shared.backpressured[out.to].load(Ordering::Relaxed)
            || self.shared.depth[out.to].load(Ordering::Relaxed) >= self.max_outbound_frames
        {
            self.shared.bp_rejects.inc();
            return Err(TcpError::Backpressured(out.to));
        }
        self.shared.depth[out.to].fetch_add(1, Ordering::Relaxed);
        self.shared.cmd.lock().unwrap_or_else(|e| e.into_inner()).push_back(out.clone());
        self.waker.wake();
        Ok(())
    }

    /// `true` while a live connection to `node` exists.
    pub fn is_connected(&self, node: NodeId) -> bool {
        self.shared.connected[node].load(Ordering::Relaxed)
    }

    /// `true` while `node` is under outbound backpressure.
    pub fn is_backpressured(&self, node: NodeId) -> bool {
        self.shared.backpressured[node].load(Ordering::Relaxed)
    }

    /// Nodes currently under backpressure — feed to
    /// `Coordinator::set_backpressured` so lazy-sync growth prefers
    /// responsive nodes.
    pub fn backpressured_nodes(&self) -> Vec<NodeId> {
        (0..self.shared.backpressured.len())
            .filter(|&i| self.shared.backpressured[i].load(Ordering::Relaxed))
            .collect()
    }

    /// Nodes not heard from for `timeout`.
    pub fn stale_nodes(&self, timeout: Duration) -> Vec<NodeId> {
        let now = self.shared.now_ms.load(Ordering::Relaxed);
        let horizon = timeout.as_millis() as u64;
        (0..self.shared.last_seen_ms.len())
            .filter(|&i| {
                now.saturating_sub(self.shared.last_seen_ms[i].load(Ordering::Relaxed))
                    >= horizon
            })
            .collect()
    }

    /// Syscalls the event loop has issued.
    pub fn syscall_stats(&self) -> SyscallStats {
        self.syscalls.snapshot()
    }

    /// Traffic moved by the event loop.
    pub fn traffic(&self) -> ReactorTraffic {
        let t = &self.shared.traffic;
        ReactorTraffic {
            frames_in: t[0].load(Ordering::Relaxed),
            bytes_in: t[1].load(Ordering::Relaxed),
            frames_out: t[2].load(Ordering::Relaxed),
            bytes_out: t[3].load(Ordering::Relaxed),
            heartbeats: t[4].load(Ordering::Relaxed),
            accepts: t[5].load(Ordering::Relaxed),
        }
    }
}

impl Drop for ReactorCoordinatorTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl CoordinatorTransport for ReactorCoordinatorTransport {
    fn bind(addr: SocketAddr, n: usize, hello_timeout: Option<Duration>) -> Result<Self, TcpError> {
        Self::bind_with_timeout(addr, n, hello_timeout).map(|(tp, _)| tp)
    }
    fn recv_timeout_traced(&self, timeout: Duration) -> Option<(SpanId, NodeMessage)> {
        ReactorCoordinatorTransport::recv_timeout_traced(self, timeout)
    }
    fn send(&self, out: &Outbound) -> Result<(), TcpError> {
        ReactorCoordinatorTransport::send(self, out)
    }
    fn syscall_stats(&self) -> SyscallStats {
        ReactorCoordinatorTransport::syscall_stats(self)
    }
}

fn event_loop(
    mut reactor: Reactor<EpollPoller>,
    shared: Arc<LoopShared>,
    tx: Sender<Vec<(SpanId, NodeMessage)>>,
) {
    // `publish` mirrors per-node state into `shared` with O(n) atomic
    // stores — at 10k nodes that is ~30k stores, far more work than
    // handling one frame. The mirror feeds introspection (staleness,
    // backpressure flags) that only needs coarse freshness, so under
    // load it is refreshed every `PUBLISH_EVERY` iterations and
    // immediately whenever the loop goes idle.
    const PUBLISH_EVERY: u32 = 64;
    let mut since_publish = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Move accepted sends into the reactor's per-node queues.
        loop {
            let Some(out) = shared
                .cmd
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
            else {
                break;
            };
            let to = out.to;
            match reactor.enqueue(&out) {
                Ok(()) => {
                    shared.depth[to].fetch_sub(1, Ordering::Relaxed);
                }
                Err(TcpError::Backpressured(_)) => {
                    // Rare race: the pre-check admitted more than the
                    // queue takes. Put it back and let the queue drain.
                    shared
                        .cmd
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_front(out);
                    break;
                }
                Err(_) => {
                    shared.depth[to].fetch_sub(1, Ordering::Relaxed);
                    shared.send_failures.inc();
                }
            }
        }
        if reactor.poll_once(Some(Duration::from_millis(100))).is_err() {
            break;
        }
        let mut batch = Vec::new();
        while let Some(item) = reactor.pop_inbound() {
            batch.push(item);
        }
        let drained = !batch.is_empty();
        if drained && tx.send(batch).is_err() {
            shared.shutdown.store(true, Ordering::Relaxed);
        }
        since_publish += 1;
        if !drained || since_publish >= PUBLISH_EVERY {
            shared.publish(&reactor);
            since_publish = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_poller::{SimNet, SimPoller};
    use crate::tcp::TcpNodeTransport;
    use automon_core::{CommCause, CoordinatorMessage, ViolationKind};

    fn sim_reactor(seed: u64, n: usize) -> (Reactor<SimPoller>, SimNet) {
        let net = SimNet::with_limits(seed, 64, 1 << 16);
        let reactor = Reactor::new(
            net.poller(),
            Some(net.listener()),
            ReactorConfig::new(n),
        )
        .expect("sim reactor");
        (reactor, net)
    }

    fn hello(client: &crate::sim_poller::SimClient, id: usize) {
        let frame = wire::encode_node_message(&NodeMessage::LocalVector {
            node: id,
            vector: Vec::new(),
            epoch: 0,
        });
        assert!(client.send_frame(&frame));
    }

    #[test]
    fn coalesces_many_frames_per_read_batch() {
        let (mut reactor, net) = sim_reactor(7, 1);
        let client = net.connect();
        hello(&client, 0);
        // Ten reports queued before the reactor looks: they arrive in
        // few big chunks and all decode.
        for k in 0..10 {
            let frame = wire::encode_node_message(&NodeMessage::Violation {
                node: 0,
                kind: ViolationKind::SafeZone,
                local_vector: vec![k as f64],
                epoch: 1,
            });
            client.send_frame(&frame);
        }
        let mut got = Vec::new();
        for _ in 0..64 {
            reactor.poll_once(Some(Duration::ZERO)).unwrap();
            while let Some((_, m)) = reactor.pop_inbound() {
                got.push(m);
            }
            if got.len() == 10 {
                break;
            }
        }
        assert_eq!(got.len(), 10, "all coalesced frames decode");
        assert!(reactor.is_connected(0));
        let t = reactor.traffic();
        assert_eq!(t.frames_in, 11, "hello + 10 reports");
        assert!(
            reactor.syscalls().reads < 2 * 11,
            "coalescing must beat two syscalls per frame: {:?}",
            reactor.syscalls()
        );
    }

    #[test]
    fn backpressure_engages_and_relieves() {
        // Tiny client buffer so writes jam immediately.
        let net = SimNet::with_limits(3, 64, 32);
        let mut reactor = Reactor::new(
            net.poller(),
            Some(net.listener()),
            ReactorConfig {
                max_outbound_frames: 4,
                ..ReactorConfig::new(1)
            },
        )
        .unwrap();
        let client = net.connect();
        hello(&client, 0);
        for _ in 0..16 {
            reactor.poll_once(Some(Duration::ZERO)).unwrap();
            if reactor.is_connected(0) {
                break;
            }
        }
        let out = Outbound::new(
            0,
            CoordinatorMessage::SlackUpdate {
                slack: vec![0.0; 8],
                epoch: 1,
            },
            CommCause::LazySync,
        );
        // Fill the bounded queue; the 5th+ send must be refused.
        let mut refused = 0;
        for _ in 0..10 {
            match reactor.enqueue(&out) {
                Ok(()) => {}
                Err(TcpError::Backpressured(0)) => refused += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(refused > 0, "bounded queue must refuse past the cap");
        assert!(reactor.node_backpressured(0));
        assert_eq!(reactor.backpressured_nodes(), vec![0]);

        // The client drains; flushes resume; pressure relieves.
        for _ in 0..200 {
            let _ = client.recv_frames();
            reactor.poll_once(Some(Duration::ZERO)).unwrap();
            if !reactor.node_backpressured(0) {
                break;
            }
        }
        assert!(!reactor.node_backpressured(0), "drain must relieve");
        assert!(reactor.enqueue(&out).is_ok());
    }

    #[test]
    fn rejoin_replaces_stale_connection() {
        let (mut reactor, net) = sim_reactor(5, 2);
        let old = net.connect();
        hello(&old, 1);
        for _ in 0..8 {
            reactor.poll_once(Some(Duration::ZERO)).unwrap();
        }
        assert!(reactor.is_connected(1));
        // Same node dials back in (crash + restart): the new connection
        // takes over the id.
        let new = net.connect();
        hello(&new, 1);
        for _ in 0..8 {
            reactor.poll_once(Some(Duration::ZERO)).unwrap();
        }
        assert!(reactor.is_connected(1));
        let out = Outbound::new(
            1,
            CoordinatorMessage::RequestLocalVector { epoch: 0 },
            CommCause::FullSync,
        );
        reactor.enqueue(&out).unwrap();
        for _ in 0..8 {
            reactor.poll_once(Some(Duration::ZERO)).unwrap();
        }
        assert_eq!(new.recv_frames().len(), 1, "frame lands on the rejoin");
        assert!(old.recv_frames().is_empty(), "stale conn got nothing");
        assert!(!reactor.is_connected(0), "node 0 never connected");
    }

    #[test]
    fn real_sockets_end_to_end_with_tcp_node_transport() {
        // The reactor speaks the same wire protocol as the blocking
        // transport: an unmodified TcpNodeTransport talks to it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let binder = std::thread::spawn(move || {
            ReactorCoordinatorTransport::bind(addr, 2).expect("bind")
        });
        let mut a = TcpNodeTransport::connect(addr, 0).expect("connect 0");
        let mut b = TcpNodeTransport::connect(addr, 1).expect("connect 1");
        let (tp, _) = binder.join().unwrap();
        assert!(tp.is_connected(0) && tp.is_connected(1));

        // Up: both nodes report; frames arrive with spans intact.
        let report = |node| NodeMessage::Violation {
            node,
            kind: ViolationKind::SafeZone,
            local_vector: vec![1.5, -0.5],
            epoch: 2,
        };
        a.send_traced(&report(0), automon_obs::SpanId(11)).unwrap();
        b.send_traced(&report(1), automon_obs::SpanId(22)).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(tp.recv_timeout_traced(Duration::from_secs(5)).expect("frame"));
        }
        got.sort_by_key(|(_, m)| m.sender());
        assert_eq!(got[0].0, automon_obs::SpanId(11));
        assert_eq!(got[0].1, report(0));
        assert_eq!(got[1].0, automon_obs::SpanId(22));

        // Down: send queues through the loop and lands on the node.
        let out = Outbound::new(
            1,
            CoordinatorMessage::RequestLocalVector { epoch: 2 },
            CommCause::FullSync,
        )
        .with_span(automon_obs::SpanId(7));
        tp.send(&out).unwrap();
        let (span, msg) = b.recv_traced().expect("reply");
        assert_eq!(span, automon_obs::SpanId(7));
        assert_eq!(msg, out.msg);

        // Heartbeats keep liveness fresh without surfacing.
        a.send_heartbeat().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(tp.stale_nodes(Duration::from_secs(60)).is_empty());
        let t = tp.traffic();
        assert!(t.frames_in >= 5 && t.frames_out >= 1);
        assert!(tp.syscall_stats().waits > 0);
    }

    #[test]
    fn disconnect_surfaces_as_not_connected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let binder = std::thread::spawn(move || {
            ReactorCoordinatorTransport::bind(addr, 1).expect("bind")
        });
        let a = TcpNodeTransport::connect(addr, 0).expect("connect");
        let (tp, _) = binder.join().unwrap();
        drop(a);
        let out = Outbound::new(
            0,
            CoordinatorMessage::RequestLocalVector { epoch: 0 },
            CommCause::FullSync,
        );
        let mut saw_down = false;
        for _ in 0..200 {
            match tp.send(&out) {
                Err(TcpError::NotConnected(0)) => {
                    saw_down = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(saw_down, "loop must notice the hangup");
    }
}
