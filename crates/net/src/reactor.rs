//! The nonblocking reactor: one event loop, run by its caller, instead
//! of a thread per node.
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
//! it deterministically. [`ReactorCoordinatorTransport`] is the same
//! core over epoll behind a lock, driven by whoever calls it (`send`
//! writes inline, `recv*` runs the readiness rounds), with the same API
//! as [`crate::tcp::TcpCoordinatorTransport`]; `--net-backend
//! {threaded,reactor}` picks between them at runtime.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use automon_core::{NodeId, NodeMessage, Outbound};
use automon_obs::{Counter, Gauge, SpanId, Telemetry};
use bytes::Bytes;

use crate::frame::{FrameAssembler, OutQueue};
use crate::gate::{FrameGate, GateVerdict};
use crate::poller::{EpollPoller, Event, Poller, SyscallCounters, SyscallStats, LISTENER_TOKEN};
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
/// come out of `pop_inbound`, sends go in through `enqueue`.
/// [`ReactorCoordinatorTransport`] and the sim harness both call it
/// inline, from the thread that wants the frames.
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
    /// [`TcpError::NotConnected`] without a live connection, or when the
    /// flush found the connection dead (the frame is lost with it);
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
        if self.slab[slot].is_none() {
            // The kernel rejected the write and the slot was closed.
            return Err(TcpError::NotConnected(out.to));
        }
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
                    // Every frame still queued goes down with the
                    // connection.
                    self.tel.send_failures.add(state.outq.len() as u64);
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
// Caller-driven wrapper over the epoll reactor
// ---------------------------------------------------------------------

/// Coordinator transport over the epoll reactor: same API surface as
/// [`crate::tcp::TcpCoordinatorTransport`], no thread of its own.
///
/// **Service contract.** The sockets are serviced while the caller is
/// inside [`send`](Self::send), a `recv*` method or
/// [`stale_nodes`](Self::stale_nodes), and only then: `send` encodes and
/// `writev`s on the caller's thread, `recv*` runs the readiness rounds.
/// Between calls inbound bytes wait in the kernel's socket buffers,
/// where TCP flow control bounds them, and frames a short write left
/// queued wait for the next call. `Coordinator::handle` is
/// single-threaded, so a frame decoded any earlier would only have
/// waited in a queue. One driver thread is the intended use; the
/// methods take `&self` and lock the core, so a `send` from a second
/// thread is safe but waits behind a `recv*` in progress.
pub struct ReactorCoordinatorTransport {
    core: Mutex<Reactor<EpollPoller>>,
    /// The poller's counters, readable without the lock.
    syscalls: Arc<SyscallCounters>,
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
        let mut reactor = Reactor::new(poller, Some(listener), ReactorConfig::new(n))?;
        reactor.set_telemetry(&tel);

        // Hello phase: pump the loop until every node greeted.
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

        let core = Mutex::new(reactor);
        Ok((Self { core, syscalls }, local))
    }

    fn core(&self) -> MutexGuard<'_, Reactor<EpollPoller>> {
        self.core
            .lock()
            .expect("a thread panicked while driving the reactor")
    }

    /// The next inbound frame: one already decoded, else readiness rounds
    /// until one surfaces or `timeout` has passed (`None`: no deadline).
    /// At least one round runs, so a zero timeout is still one
    /// non-blocking look at the sockets.
    fn recv_within(&self, timeout: Option<Duration>) -> Option<(SpanId, NodeMessage)> {
        let mut core = self.core();
        if let Some(item) = core.pop_inbound() {
            return Some(item);
        }
        // A timeout past the clock's range is no deadline at all.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut left = timeout;
        loop {
            core.poll_once(left).ok()?;
            if let Some(item) = core.pop_inbound() {
                return Some(item);
            }
            left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return None;
            }
        }
    }

    /// Blocking receive; `None` only if polling the sockets fails.
    pub fn recv(&self) -> Option<NodeMessage> {
        self.recv_traced().map(|(_, m)| m)
    }

    /// Receive with the propagated span.
    pub fn recv_traced(&self) -> Option<(SpanId, NodeMessage)> {
        self.recv_within(None)
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<NodeMessage> {
        self.recv_timeout_traced(timeout).map(|(_, m)| m)
    }

    /// [`ReactorCoordinatorTransport::recv_traced`] with a timeout: the
    /// caller sleeps in `epoll_wait` until a frame surfaces or `timeout`
    /// has passed, never less. A zero timeout is one non-blocking
    /// readiness round.
    pub fn recv_timeout_traced(&self, timeout: Duration) -> Option<(SpanId, NodeMessage)> {
        self.recv_within(Some(timeout))
    }

    /// Encode one outbound frame and write it toward its node, on this
    /// thread; only what the kernel refuses stays queued.
    ///
    /// Fails synchronously: [`TcpError::NotConnected`] without a live
    /// connection (or when this write found it dead),
    /// [`TcpError::Backpressured`] when the node's queue is full — the
    /// signal to degrade that node to lazy-sync participation instead of
    /// letting its queue grow without bound.
    pub fn send(&self, out: &Outbound) -> Result<(), TcpError> {
        self.core().enqueue(out)
    }

    /// `true` while a live connection to `node` exists.
    pub fn is_connected(&self, node: NodeId) -> bool {
        self.core().is_connected(node)
    }

    /// `true` while `node` is under outbound backpressure.
    pub fn is_backpressured(&self, node: NodeId) -> bool {
        self.core().node_backpressured(node)
    }

    /// Nodes currently under backpressure — feed to
    /// `Coordinator::set_backpressured` so lazy-sync growth prefers
    /// responsive nodes.
    pub fn backpressured_nodes(&self) -> Vec<NodeId> {
        self.core().backpressured_nodes()
    }

    /// Nodes not heard from for `timeout`. Runs one non-blocking
    /// readiness round first, so a heartbeat that reached the kernel
    /// while the caller was busy elsewhere (a long `decompose`) counts
    /// before the clock is read.
    pub fn stale_nodes(&self, timeout: Duration) -> Vec<NodeId> {
        let mut core = self.core();
        // A failed poll leaves the last-seen times as they were.
        let _ = core.poll_once(Some(Duration::ZERO));
        core.stale_nodes(timeout)
    }

    /// Syscalls issued on the reactor's behalf so far.
    pub fn syscall_stats(&self) -> SyscallStats {
        self.syscalls.snapshot()
    }

    /// Traffic moved so far; exact whenever it is read.
    pub fn traffic(&self) -> ReactorTraffic {
        self.core().traffic()
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

    /// A transport over loopback sockets with nodes `0..n` connected.
    /// `bind` returns only after every hello, so it runs on a helper
    /// thread while this one dials.
    fn loopback(
        n: usize,
        tel: Telemetry,
    ) -> (ReactorCoordinatorTransport, Vec<TcpNodeTransport>, SocketAddr) {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let hello = Some(Duration::from_secs(10));
        std::thread::scope(|s| {
            let binder = s.spawn(move || {
                ReactorCoordinatorTransport::bind_with_telemetry(addr, n, hello, tel).expect("bind")
            });
            let nodes = (0..n)
                .map(|i| TcpNodeTransport::connect(addr, i).expect("connect"))
                .collect();
            (binder.join().unwrap().0, nodes, addr)
        })
    }

    fn report(node: NodeId) -> NodeMessage {
        NodeMessage::Violation {
            node,
            kind: ViolationKind::SafeZone,
            local_vector: vec![1.5, -0.5],
            epoch: 2,
        }
    }

    fn pull(to: NodeId) -> Outbound {
        Outbound::new(
            to,
            CoordinatorMessage::RequestLocalVector { epoch: 2 },
            CommCause::FullSync,
        )
    }

    #[test]
    fn real_sockets_end_to_end_with_tcp_node_transport() {
        // The reactor speaks the same wire protocol as the blocking
        // transport: an unmodified TcpNodeTransport talks to it.
        let (tp, mut nodes, _) = loopback(2, Telemetry::disabled());
        assert!(tp.is_connected(0) && tp.is_connected(1));

        // Up: both nodes report; frames arrive with spans intact.
        nodes[0].send_traced(&report(0), SpanId(11)).unwrap();
        nodes[1].send_traced(&report(1), SpanId(22)).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(tp.recv_timeout_traced(Duration::from_secs(5)).expect("frame"));
        }
        got.sort_by_key(|(_, m)| m.sender());
        assert_eq!(got[0].0, SpanId(11));
        assert_eq!(got[0].1, report(0));
        assert_eq!(got[1].0, SpanId(22));

        // Down: send writes inline and the frame lands on the node.
        let out = pull(1).with_span(SpanId(7));
        tp.send(&out).unwrap();
        let (span, msg) = nodes[1].recv_traced().expect("reply");
        assert_eq!(span, SpanId(7));
        assert_eq!(msg, out.msg);

        // Heartbeats keep liveness fresh without surfacing: `stale_nodes`
        // reads the sockets itself before it reads the clock, so the
        // heartbeat counts with no `recv*` call in between.
        nodes[0].send_heartbeat().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while tp.traffic().heartbeats == 0 {
            assert!(tp.stale_nodes(Duration::from_secs(60)).is_empty());
            assert!(Instant::now() < deadline, "heartbeat never absorbed");
        }
        assert!(tp.recv_timeout(Duration::from_millis(50)).is_none());
        let t = tp.traffic();
        assert!(t.frames_in >= 5 && t.frames_out >= 1);
        assert!(tp.syscall_stats().waits > 0);
    }

    #[test]
    fn lockstep_round_trip_costs_one_wait_two_reads_one_writev() {
        let (tp, mut nodes, _) = loopback(1, Telemetry::disabled());
        let up_len = wire::encode_node_message_ctx(&report(0), SpanId::NONE).len() as u64 + 4;
        let out = pull(0);
        let down_len = wire::encode_coordinator_message_ctx(&out.msg, out.span).len() as u64 + 4;
        // The first pass absorbs the connection's registration edge.
        for pass in 0..3 {
            let (sys0, t0) = (tp.syscall_stats(), tp.traffic());
            nodes[0].send(&report(0)).unwrap();
            let got = tp.recv_timeout_traced(Duration::from_secs(5)).expect("frame");
            assert_eq!(got.1, report(0));
            tp.send(&out).unwrap();
            // No settling loop: the counters are exact once `send` returns.
            let (sys1, t1) = (tp.syscall_stats(), tp.traffic());
            assert_eq!(nodes[0].recv().unwrap(), out.msg);
            assert_eq!(t1.frames_in, t0.frames_in + 1);
            assert_eq!(t1.bytes_in, t0.bytes_in + up_len);
            assert_eq!(t1.frames_out, t0.frames_out + 1);
            assert_eq!(t1.bytes_out, t0.bytes_out + down_len);
            if pass > 0 {
                assert_eq!(sys1.waits, sys0.waits + 1, "one epoll_wait");
                assert_eq!(sys1.reads, sys0.reads + 2, "the frame, then WouldBlock");
                assert_eq!(sys1.writevs, sys0.writevs + 1, "one inline writev");
            }
        }
    }

    #[test]
    fn idle_transport_issues_no_syscalls() {
        let (tp, _nodes, _) = loopback(2, Telemetry::disabled());
        let before = tp.syscall_stats();
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(tp.syscall_stats(), before, "nobody called, nothing ran");
    }

    #[test]
    fn recv_timeout_waits_its_whole_timeout_without_spinning() {
        let (tp, mut nodes, _) = loopback(2, Telemetry::disabled());
        // Sub-millisecond: rounded up to epoll's resolution, never
        // truncated to a zero-timeout spin or an early `None`.
        let timeout = Duration::from_micros(300);
        let waits = tp.syscall_stats().waits;
        let started = Instant::now();
        assert!(tp.recv_timeout(timeout).is_none());
        assert!(started.elapsed() >= timeout, "ended early");
        let spent = tp.syscall_stats().waits - waits;
        assert!(spent <= 2, "{spent} waits for one 300 us timeout");

        // Zero: one non-blocking readiness round, frame or no frame.
        let waits = tp.syscall_stats().waits;
        assert!(tp.recv_timeout(Duration::ZERO).is_none());
        assert_eq!(tp.syscall_stats().waits, waits + 1);
        nodes[1].send(&report(1)).unwrap();
        // Loopback delivers inside the sender's `write` unless the kernel
        // defers its softirq work to a thread; give that thread a turn.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(tp.recv_timeout(Duration::ZERO), Some(report(1)));
        assert_eq!(tp.syscall_stats().waits, waits + 2);
    }

    #[test]
    fn real_socket_backpressure_engages_and_relieves_at_half_the_cap() {
        let (tp, mut nodes, _) = loopback(1, Telemetry::disabled());
        let cap = ReactorConfig::new(1).max_outbound_frames;
        let queued = |tp: &ReactorCoordinatorTransport| {
            let core = tp.core();
            let slot = core.node_slot[0].expect("connected");
            core.slab[slot].as_ref().expect("live slot").outq.len()
        };
        // Big frames fill the kernel's buffers in a few dozen sends; the
        // span and epoch number them.
        let frame = |k: u64| {
            Outbound::new(
                0,
                CoordinatorMessage::SlackUpdate {
                    slack: (0..8192).map(|i| (i as f64) * 0.37 + k as f64).collect(),
                    epoch: k,
                },
                CommCause::LazySync,
            )
            .with_span(SpanId(k + 1))
        };

        // The node does not read. `send` keeps returning at once — first
        // the kernel takes the bytes, then the queue does — until the
        // queue is full.
        let mut accepted = 0u64;
        loop {
            match tp.send(&frame(accepted)) {
                Ok(()) => accepted += 1,
                Err(TcpError::Backpressured(0)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(accepted < 100_000, "never saturated");
        }
        assert_eq!(queued(&tp), cap);
        assert!(accepted > cap as u64, "the kernel buffered some too");
        assert!(tp.is_backpressured(0));
        assert_eq!(tp.backpressured_nodes(), vec![0]);
        assert_eq!(tp.traffic().frames_out, accepted, "refused frames not counted");

        // The node drains; each time the caller re-enters `recv_timeout`
        // a writable edge flushes more of the queue. Every accepted
        // frame arrives once, in order, equal to what was sent.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = 0u64;
        while got < accepted {
            assert!(tp.recv_timeout(Duration::ZERO).is_none());
            assert_eq!(tp.is_backpressured(0), queued(&tp) > cap / 2);
            if let Some((span, msg)) = nodes[0]
                .recv_timeout_traced(Duration::from_millis(10))
                .expect("node read")
            {
                let sent = frame(got);
                assert_eq!((span, &msg), (sent.span, &sent.msg), "frame {got}");
                got += 1;
            }
            assert!(Instant::now() < deadline, "drain stalled at {got}/{accepted}");
        }
        assert_eq!(queued(&tp), 0);
        assert!(!tp.is_backpressured(0));
        assert!(nodes[0].try_recv().expect("node read").is_none(), "nothing twice");
        tp.send(&pull(0)).expect("accepted again");
        assert_eq!(nodes[0].recv().unwrap(), pull(0).msg);
    }

    #[test]
    fn rejoin_during_recv_timeout_is_admitted_in_that_call() {
        let (tp, mut nodes, addr) = loopback(1, Telemetry::disabled());
        assert_eq!(tp.traffic().accepts, 1);
        // Nothing services the listener but the caller's own wait: the
        // restarted node's hello and its first report both surface from
        // the one `recv_timeout`.
        let mut rejoined = std::thread::scope(|s| {
            let dialer = s.spawn(move || {
                let mut node = TcpNodeTransport::connect(addr, 0).expect("rejoin");
                node.send(&report(0)).unwrap();
                node
            });
            assert_eq!(tp.recv_timeout(Duration::from_secs(5)), Some(report(0)));
            dialer.join().unwrap()
        });
        assert_eq!(tp.traffic().accepts, 2);
        assert!(tp.is_connected(0));
        tp.send(&pull(0)).unwrap();
        assert_eq!(rejoined.recv().unwrap(), pull(0).msg);
        assert!(
            !matches!(nodes[0].try_recv(), Ok(Some(_))),
            "stale connection got nothing"
        );
    }

    #[test]
    fn disconnect_surfaces_as_not_connected() {
        let tel = Telemetry::enabled();
        let (tp, nodes, _) = loopback(1, tel.clone());
        drop(nodes);
        let send_failures = tel.counter("automon_net_send_failures_total", "");
        // Only `send` is called, so only a write can notice the hangup:
        // the kernel may take the first frame (and answer with a reset);
        // the write it rejects reports the loss itself.
        let mut sent_ok = 0;
        while tp.send(&pull(0)).is_ok() {
            assert_eq!(send_failures.get(), 0, "a lost frame was reported sent");
            sent_ok += 1;
            assert!(sent_ok < 200, "the hangup never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(send_failures.get(), 1, "the rejected frame, once");
        // Once a send has failed none later succeeds, and a frame refused
        // up front was never in flight to be lost.
        for _ in 0..5 {
            assert!(matches!(tp.send(&pull(0)), Err(TcpError::NotConnected(0))));
        }
        assert!(!tp.is_connected(0));
        assert_eq!(send_failures.get(), 1);
    }
}
