//! TCP transport: AutoMon's protocol over real sockets.
//!
//! The paper's deployment moves frames with ZeroMQ (§3.8, §4.7); this
//! module is the dependency-free equivalent on `std::net`. Frames are
//! length-prefixed wire-codec messages; each node opens one connection
//! and introduces itself with a hello frame carrying its id. A frame that
//! does not decode, an empty one included, closes its connection.
//! Liveness is the round driver's (`automon-sim`): it evicts a node on
//! failed sends, and this module keeps no clock of when a node was last
//! heard from.
//!
//! This module holds the node end, [`TcpNodeTransport`], and the
//! [`CoordinatorTransport`] seam. The one coordinator end is the reactor
//! ([`crate::reactor::ReactorCoordinatorTransport`]): an event loop run by
//! its caller, which admits a node that dials back in (a crashed node
//! rejoins by connecting again) during its next `recv*` call. Nodes read
//! their single connection blocking, polling or up to a deadline, and
//! dial with bounded retry (see [`RetryPolicy`]).
//!
//! Framing is [`crate::frame`]'s, the same code the reactor runs: the
//! node's read side is a `FrameReader` (one buffered `recv` yields every
//! frame it carried; a poll that finds nothing costs one
//! `recv(MSG_DONTWAIT)` and arms no timer), and every send is one `writev`
//! of prefix and payload through an [`OutQueue`] (`FrameWriter`).

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use automon_core::{CoordinatorMessage, NodeId, NodeMessage, Outbound};
use automon_obs::{Counter, SpanId, Telemetry};

use crate::backoff::Backoff;
use crate::frame::{FrameAssembler, OutQueue};
use crate::poller::{self, SyscallStats};
use crate::wire;

/// Transport failure.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level error.
    Io(std::io::Error),
    /// Frame decoded but malformed.
    Wire(wire::WireError),
    /// Peer closed the connection.
    Disconnected,
    /// The accept deadline expired before every node said hello; carries
    /// the ids that never arrived.
    HelloTimeout(Vec<NodeId>),
    /// No live connection to this node (it crashed or never connected).
    NotConnected(NodeId),
    /// Connect retries exhausted without reaching the coordinator.
    ConnectExhausted(NodeId),
    /// The node's bounded outbound queue is full: the frame was not
    /// queued, and the caller holds it and retries once the queue drains
    /// rather than buffer without bound.
    Backpressured(NodeId),
}

impl From<std::io::Error> for TcpError {
    fn from(e: std::io::Error) -> Self {
        TcpError::Io(e)
    }
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "io: {e}"),
            TcpError::Wire(e) => write!(f, "wire: {e}"),
            TcpError::Disconnected => write!(f, "peer disconnected"),
            TcpError::HelloTimeout(missing) => {
                write!(f, "nodes {missing:?} never said hello")
            }
            TcpError::NotConnected(id) => write!(f, "node {id} is not connected"),
            TcpError::ConnectExhausted(id) => {
                write!(f, "node {id}: connect retries exhausted")
            }
            TcpError::Backpressured(id) => {
                write!(f, "node {id}: outbound queue full (backpressure)")
            }
        }
    }
}

impl std::error::Error for TcpError {}

/// Bounded-retry schedule with exponential backoff, used for node
/// connects.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (the first try included).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 8,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no waiting.
    pub fn once() -> Self {
        Self {
            attempts: 1,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Whether attempt `i` (0-based) has a retry left in the budget.
    /// The actual delay comes from a seeded [`Backoff`] so the schedule
    /// is jittered yet deterministic per endpoint.
    fn retries_left(&self, i: u32) -> bool {
        i + 1 < self.attempts
    }
}

/// Write side of one blocking connection.
#[derive(Debug)]
struct FrameWriter {
    /// Holds the one frame in flight, prefix included.
    out: OutQueue,
    /// `writev` calls issued.
    writes: u64,
}

impl FrameWriter {
    fn new() -> Self {
        Self {
            out: OutQueue::new(1),
            writes: 0,
        }
    }

    /// Write one length-prefixed frame: prefix and payload leave in one
    /// `writev`, hence one segment under `TCP_NODELAY`. Frames over the
    /// wire cap are refused outright — a silent `as u32` truncation here
    /// would desync the whole byte stream for the peer.
    fn write(&mut self, stream: &TcpStream, frame: Vec<u8>) -> Result<(), TcpError> {
        wire::frame_len_prefix(frame.len()).map_err(TcpError::Wire)?;
        // Only a send that failed mid-frame leaves the queue occupied,
        // and the stream it was bound for is out of step for good.
        self.out.push(frame).map_err(|_| TcpError::Disconnected)?;
        while !self.out.is_empty() {
            self.writes += 1;
            match self
                .out
                .flush_with(|iov| poller::write_vectored(stream, iov))
            {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

/// How long a [`FrameReader`] read may wait for bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Until a frame or an error.
    Forever,
    /// Not at all: at most one non-blocking read.
    No,
    /// Until the instant passes.
    Until(Instant),
}

/// Buffered read side of one blocking connection.
///
/// Every `recv` lands in a [`FrameAssembler`], so one syscall yields all
/// the frames it carried and a partial frame — even a split length
/// prefix — waits there for the next read instead of being lost. The
/// socket stays in blocking mode with no timeout option throughout:
/// non-blocking reads are per-call (`MSG_DONTWAIT`) and timed waits are
/// a `poll`.
#[derive(Debug, Default)]
struct FrameReader {
    asm: FrameAssembler,
    /// `recv` calls issued.
    reads: u64,
    /// `poll` calls issued.
    waits: u64,
}

impl FrameReader {
    /// The next frame's payload, borrowed until the next read. A frame
    /// already buffered costs no syscall. `Ok(None)` when `wait` ran out
    /// first; end of stream is [`TcpError::Disconnected`].
    fn read(&mut self, stream: &TcpStream, wait: Wait) -> Result<Option<&[u8]>, TcpError> {
        while self.asm.ready_len().map_err(TcpError::Wire)?.is_none() {
            if !self.fill(stream, wait)? {
                return Ok(None);
            }
            if wait == Wait::No {
                break;
            }
        }
        self.asm.next_frame_ref().map_err(TcpError::Wire)
    }

    /// One `recv` into the assembler; `false` when `wait` ran out with
    /// nothing read.
    fn fill(&mut self, stream: &TcpStream, wait: Wait) -> Result<bool, TcpError> {
        loop {
            if let Wait::Until(deadline) = wait {
                self.waits += 1;
                if !poller::wait_readable(stream, deadline)? {
                    return Ok(false);
                }
            }
            self.reads += 1;
            match poller::recv_append(stream, self.asm.recv_buf(), wait != Wait::Forever) {
                Ok(0) => return Err(TcpError::Disconnected),
                Ok(_) => return Ok(true),
                Err(e) if wait != Wait::Forever && e.kind() == std::io::ErrorKind::WouldBlock => {
                    if wait == Wait::No {
                        return Ok(false);
                    }
                    // Readiness without bytes: wait out the rest.
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Wire cost of a frame: payload plus the 4-byte length prefix.
fn frame_bytes(frame_len: usize) -> u64 {
    frame_len as u64 + 4
}

/// Node-side transport counters. Commutative counters only, never trace
/// events (see the contract in [`automon_obs::trace`]).
#[derive(Default)]
struct NodeNetTel {
    connect_attempts: Counter,
    connect_retries: Counter,
    backoff_ms: Counter,
    frames_in: Counter,
    bytes_in: Counter,
    frames_out: Counter,
    bytes_out: Counter,
}

impl NodeNetTel {
    fn new(tel: &Telemetry) -> Self {
        Self {
            connect_attempts: tel.counter(
                "automon_net_connect_attempts_total",
                "Dial attempts (first tries included)",
            ),
            connect_retries: tel.counter(
                "automon_net_connect_retries_total",
                "Dial attempts beyond the first per connect",
            ),
            backoff_ms: tel.counter(
                "automon_net_backoff_ms_total",
                "Milliseconds slept in connect backoff",
            ),
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
        }
    }
}

/// The coordinator end of a socket transport, as the round driver sees
/// it: [`crate::reactor::ReactorCoordinatorTransport`] forwards to its
/// inherent methods of the same names, and a test or a bench substitutes
/// an end of its own (one that never delivers, a baseline to race).
pub trait CoordinatorTransport: Sized + Send {
    /// Bind `addr` and block until `n` nodes said hello, or
    /// [`TcpError::HelloTimeout`] once `hello_timeout` has passed.
    fn bind(addr: SocketAddr, n: usize, hello_timeout: Option<Duration>) -> Result<Self, TcpError>;
    /// The next node frame with the span its header carried; `None` when
    /// `timeout` passes first.
    fn recv_timeout_traced(&self, timeout: Duration) -> Option<(SpanId, NodeMessage)>;
    /// Send one outbound frame to its node.
    fn send(&self, out: &Outbound) -> Result<(), TcpError>;
    /// Frame I/O syscalls issued so far.
    fn syscall_stats(&self) -> SyscallStats;
}

/// The name the retired thread-per-connection coordinator went by. The
/// frozen benchmark package still names it (ROADMAP 1(c)); it is the
/// reactor, and nothing else should use it.
pub type TcpCoordinatorTransport = crate::reactor::ReactorCoordinatorTransport;

/// Node side of the TCP transport.
pub struct TcpNodeTransport {
    id: NodeId,
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    tel: NodeNetTel,
}

impl TcpNodeTransport {
    /// Connect to the coordinator and introduce this node, retrying with
    /// exponential backoff per [`RetryPolicy::default`] — callers no
    /// longer need to sleep-race the listener.
    pub fn connect(addr: SocketAddr, id: NodeId) -> Result<Self, TcpError> {
        Self::connect_with(addr, id, RetryPolicy::default())
    }

    /// Connect with an explicit retry schedule.
    pub fn connect_with(
        addr: SocketAddr,
        id: NodeId,
        retry: RetryPolicy,
    ) -> Result<Self, TcpError> {
        Self::connect_with_telemetry(addr, id, retry, Telemetry::disabled())
    }

    /// Connect with transport counters (dial attempts, retries, backoff,
    /// frames, bytes) registered on `tel`.
    pub fn connect_with_telemetry(
        addr: SocketAddr,
        id: NodeId,
        retry: RetryPolicy,
        tel: Telemetry,
    ) -> Result<Self, TcpError> {
        let tel = NodeNetTel::new(&tel);
        let stream = Self::dial(addr, id, retry, &tel)?;
        Ok(Self {
            id,
            stream,
            reader: FrameReader::default(),
            writer: FrameWriter::new(),
            tel,
        })
    }

    /// One full connect + hello cycle with bounded retry.
    fn dial(
        addr: SocketAddr,
        id: NodeId,
        retry: RetryPolicy,
        tel: &NodeNetTel,
    ) -> Result<TcpStream, TcpError> {
        let mut attempt = 0u32;
        // Seeded by the node's own id: every node jitters differently
        // (no thundering herd on coordinator restart), every run of the
        // same node sleeps the same schedule.
        let mut backoff = Backoff::new(retry.initial_backoff, retry.max_backoff, id as u64);
        loop {
            tel.connect_attempts.inc();
            match Self::dial_once(addr, id) {
                Ok(stream) => return Ok(stream),
                Err(_) => {
                    if !retry.retries_left(attempt) {
                        return Err(TcpError::ConnectExhausted(id));
                    }
                    let wait = backoff.next_delay();
                    tel.connect_retries.inc();
                    tel.backoff_ms.add(wait.as_millis() as u64);
                    std::thread::sleep(wait);
                    attempt += 1;
                }
            }
        }
    }

    fn dial_once(addr: SocketAddr, id: NodeId) -> Result<TcpStream, TcpError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let hello = wire::encode_node_message(&NodeMessage::LocalVector {
            node: id,
            vector: Vec::new(),
            epoch: 0,
        });
        FrameWriter::new().write(&stream, hello)?;
        Ok(stream)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Send a node message on the current connection.
    pub fn send(&mut self, msg: &NodeMessage) -> Result<(), TcpError> {
        self.send_traced(msg, SpanId::NONE)
    }

    /// Send a node message, propagating `span` in the frame header — the
    /// node-side span (e.g. a violation span) that coordinator-side
    /// handler spans will parent on.
    pub fn send_traced(&mut self, msg: &NodeMessage, span: SpanId) -> Result<(), TcpError> {
        debug_assert_eq!(msg.sender(), self.id, "sending as the wrong node");
        let frame = wire::encode_node_message_ctx(msg, span);
        let len = frame.len();
        self.writer.write(&self.stream, frame)?;
        self.tel.frames_out.inc();
        self.tel.bytes_out.add(frame_bytes(len));
        Ok(())
    }

    /// Blocking receive of the next coordinator message.
    pub fn recv(&mut self) -> Result<CoordinatorMessage, TcpError> {
        self.recv_traced().map(|(_, m)| m)
    }

    /// Like [`TcpNodeTransport::recv`], also yielding the coordinator
    /// span carried in the frame header.
    pub fn recv_traced(&mut self) -> Result<(SpanId, CoordinatorMessage), TcpError> {
        // An unbounded wait ends with a frame or an error, never `None`.
        self.read(Wait::Forever)?.ok_or(TcpError::Disconnected)
    }

    /// Non-blocking poll: `Ok(None)` when no complete frame is ready.
    ///
    /// A frame already buffered (it arrived behind an earlier one)
    /// returns with no syscall; otherwise the call makes at most one
    /// non-blocking read — no timer, no socket option, the cost of one
    /// `recv` when idle — and a frame received in part, even a split
    /// length prefix, is kept for the next call. This is the
    /// `message_received` drain at the top of the node's update loop; a
    /// loop with nothing else to do waits in
    /// [`TcpNodeTransport::recv_timeout`] instead of spinning on this.
    pub fn try_recv(&mut self) -> Result<Option<CoordinatorMessage>, TcpError> {
        Ok(self.try_recv_traced()?.map(|(_, m)| m))
    }

    /// Like [`TcpNodeTransport::try_recv`], also yielding the
    /// coordinator span carried in the frame header.
    pub fn try_recv_traced(&mut self) -> Result<Option<(SpanId, CoordinatorMessage)>, TcpError> {
        self.read(Wait::No)
    }

    /// Receive with a timeout: the next coordinator message, or
    /// `Ok(None)` once `timeout` has passed without a complete one. The
    /// wait is a `poll` on the socket (never shorter than `timeout`, and
    /// over by scheduling latency only); a frame received in part is
    /// kept for the next call.
    pub fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<CoordinatorMessage>, TcpError> {
        Ok(self.recv_timeout_traced(timeout)?.map(|(_, m)| m))
    }

    /// Like [`TcpNodeTransport::recv_timeout`], also yielding the
    /// coordinator span carried in the frame header.
    pub fn recv_timeout_traced(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(SpanId, CoordinatorMessage)>, TcpError> {
        self.read(Wait::Until(Instant::now() + timeout))
    }

    fn read(&mut self, wait: Wait) -> Result<Option<(SpanId, CoordinatorMessage)>, TcpError> {
        let Some(frame) = self.reader.read(&self.stream, wait)? else {
            return Ok(None);
        };
        self.tel.frames_in.inc();
        self.tel.bytes_in.add(frame_bytes(frame.len()));
        wire::decode_coordinator_message_ctx(frame)
            .map(Some)
            .map_err(TcpError::Wire)
    }

    /// Syscalls this transport has issued on established connections:
    /// `recv`s (`reads`), `poll`s (`waits`) and `writev`s — there is no
    /// other kind.
    pub fn syscall_stats(&self) -> SyscallStats {
        SyscallStats {
            waits: self.reader.waits,
            reads: self.reader.reads,
            writevs: self.writer.writes,
            accepts: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::ReactorCoordinatorTransport;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::{Coordinator, MonitorConfig, MonitoredFunction, Node};
    use std::net::TcpListener;
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

    /// A loopback address nothing listens on yet.
    fn free_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    /// A coordinator end over `addr` with nodes `0..n` connected; `bind`
    /// returns only after every hello, so it runs on a helper thread while
    /// this one dials.
    fn bound(addr: SocketAddr, n: usize) -> (ReactorCoordinatorTransport, Vec<TcpNodeTransport>) {
        let binder =
            std::thread::spawn(move || ReactorCoordinatorTransport::bind(addr, n).expect("bind"));
        let nodes = (0..n)
            .map(|i| TcpNodeTransport::connect(addr, i).expect("connect"))
            .collect();
        (binder.join().unwrap().0, nodes)
    }

    /// Serve `coord_tp` until `node`'s connection is closed; no frame may
    /// surface meanwhile. The reactor notices a close while the caller is
    /// inside `recv*`.
    fn until_closed(coord_tp: &ReactorCoordinatorTransport, node: NodeId, why: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while coord_tp.is_connected(node) {
            assert!(Instant::now() < deadline, "{why}");
            assert_eq!(coord_tp.recv_timeout(Duration::from_millis(1)), None);
        }
    }

    #[test]
    fn full_monitoring_session_over_tcp() {
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Mean1));
        let n = 2;

        // The coordinator must accept while nodes connect: bind the
        // listener in a thread and hand back the transport.
        let addr = free_addr();
        let coord_thread = {
            let f = f.clone();
            std::thread::spawn(move || {
                let (tp, _) = ReactorCoordinatorTransport::bind(addr, n).expect("bind and accept");
                let mut coord = Coordinator::new(f, n, MonitorConfig::builder(0.5).build());
                // Serve until both nodes finish (they close; recv drains).
                let mut served = 0usize;
                while let Some(msg) = tp.recv_timeout(Duration::from_secs(5)) {
                    served += 1;
                    for out in coord.handle(msg) {
                        if tp.send(&out).is_err() {
                            break;
                        }
                    }
                    if served >= 6 {
                        break;
                    }
                }
                (coord.current_value(), served)
            })
        };

        // No sleep: the nodes' connect retries the race with the
        // listener away.
        let mut workers = Vec::new();
        for id in 0..n {
            let f = f.clone();
            workers.push(std::thread::spawn(move || {
                let mut tp = TcpNodeTransport::connect(addr, id).expect("connect");
                let mut node = Node::new(id, f);
                // Serve coordinator traffic until `quiet` passes without any.
                let serve = |node: &mut Node, tp: &mut TcpNodeTransport, quiet| {
                    while let Ok(Some(msg)) = tp.recv_timeout(quiet) {
                        if let Some(reply) = node.handle(msg) {
                            tp.send(&reply).unwrap();
                        }
                    }
                };
                for t in 0..30 {
                    // A sample every 2 ms; the wait for it is the socket's.
                    serve(&mut node, &mut tp, Duration::from_millis(2));
                    let x = vec![t as f64 * 0.01 + id as f64 * 0.1];
                    if let Some(report) = node.update_data(x) {
                        tp.send(&report).unwrap();
                    }
                }
                // Serve any last sync traffic.
                serve(&mut node, &mut tp, Duration::from_millis(200));
                node.current_value()
            }));
        }
        let node_values: Vec<Option<f64>> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();
        let (coord_value, served) = coord_thread.join().unwrap();
        assert!(served >= 2, "coordinator must have served registrations");
        assert!(coord_value.is_some());
        // Every node received constraints (hence an estimate).
        assert!(node_values.iter().all(Option::is_some), "{node_values:?}");
    }

    #[test]
    fn connect_retries_until_listener_appears() {
        let addr = free_addr();
        // Bind only after the node has started dialing.
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            ReactorCoordinatorTransport::bind(addr, 1).expect("bind")
        });
        let tp = TcpNodeTransport::connect(addr, 0).expect("retry until bound");
        assert_eq!(tp.id(), 0);
        let (coord_tp, _) = binder.join().unwrap();
        assert!(coord_tp.is_connected(0));
    }

    #[test]
    fn connect_exhaustion_is_an_error_not_a_hang() {
        let addr = free_addr();
        let policy = RetryPolicy {
            attempts: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        };
        match TcpNodeTransport::connect_with(addr, 3, policy) {
            Err(TcpError::ConnectExhausted(3)) => {}
            Err(other) => panic!("expected ConnectExhausted, got {other:?}"),
            Ok(_) => panic!("connect unexpectedly succeeded"),
        }
    }

    #[test]
    fn bind_timeout_reports_missing_nodes() {
        // Nobody connects: bind must give up instead of panicking.
        match ReactorCoordinatorTransport::bind_with_timeout(
            free_addr(),
            2,
            Some(Duration::from_millis(50)),
        ) {
            Err(TcpError::HelloTimeout(missing)) => assert_eq!(missing, vec![0, 1]),
            other => panic!("expected HelloTimeout, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn send_to_crashed_node_errs_then_rejoin_heals() {
        let addr = free_addr();
        let (coord_tp, nodes) = bound(addr, 1);

        // Crash the node: its connection drops and sends start failing.
        drop(nodes);
        let out = Outbound::new(
            0,
            CoordinatorMessage::RequestLocalVector { epoch: 0 },
            automon_core::CommCause::FullSync,
        );
        let mut saw_down = false;
        for _ in 0..100 {
            match coord_tp.send(&out) {
                Err(TcpError::NotConnected(0)) => {
                    saw_down = true;
                    break;
                }
                // The kernel may take the first write after the close
                // (and answer with a reset); the write it rejects fails.
                Ok(()) | Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(saw_down, "crash never surfaced as NotConnected");

        // The node dials back in. The coordinator end admits it while its
        // caller is inside a `recv*` call, so poll before sending.
        let mut tp = TcpNodeTransport::connect(addr, 0).expect("rejoin");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !coord_tp.is_connected(0) {
            assert!(Instant::now() < deadline, "rejoin never admitted");
            assert_eq!(coord_tp.recv_timeout(Duration::from_millis(5)), None);
        }
        coord_tp.send(&out).expect("send after rejoin");
        let msg = tp.recv().expect("delivered after rejoin");
        assert_eq!(msg, CoordinatorMessage::RequestLocalVector { epoch: 0 });
    }

    #[test]
    fn trace_context_propagates_over_tcp_in_both_directions() {
        let (coord_tp, mut nodes) = bound(free_addr(), 1);
        let tp = &mut nodes[0];

        // Node → coordinator: the violation span rides the header.
        let report = NodeMessage::Violation {
            node: 0,
            kind: automon_core::ViolationKind::SafeZone,
            local_vector: vec![1.0],
            epoch: 3,
        };
        tp.send_traced(&report, SpanId(42)).expect("send");
        let (span, msg) = coord_tp
            .recv_timeout_traced(Duration::from_secs(5))
            .expect("frame");
        assert_eq!(span, SpanId(42));
        assert_eq!(msg, report);

        // Coordinator → node: the handler span rides back down.
        let out = Outbound::new(
            0,
            CoordinatorMessage::RequestLocalVector { epoch: 3 },
            automon_core::CommCause::FullSync,
        )
        .with_span(SpanId(7));
        coord_tp.send(&out).expect("send down");
        let (span, msg) = tp.recv_traced().expect("reply");
        assert_eq!(span, SpanId(7));
        assert_eq!(msg, out.msg);

        // A polled or timed receive keeps the span too.
        coord_tp.send(&out).expect("send down");
        let polled = loop {
            if let Some(got) = tp.try_recv_traced().expect("poll") {
                break got;
            }
            std::thread::yield_now();
        };
        assert_eq!(polled, (SpanId(7), out.msg.clone()));
        coord_tp.send(&out).expect("send down");
        let timed = tp
            .recv_timeout_traced(Duration::from_secs(5))
            .expect("timed receive");
        assert_eq!(timed, Some((SpanId(7), out.msg.clone())));

        // A plain send decodes as span NONE on the coordinator end.
        tp.send(&report).expect("untraced send");
        let (span, _) = coord_tp
            .recv_timeout_traced(Duration::from_secs(5))
            .expect("frame");
        assert_eq!(span, SpanId::NONE);
    }

    #[test]
    fn an_empty_frame_closes_its_connection() {
        let (coord_tp, mut nodes) = bound(free_addr(), 1);
        let tp = &mut nodes[0];

        let report = NodeMessage::LocalVector {
            node: 0,
            vector: vec![1.0],
            epoch: 0,
        };
        tp.send(&report).expect("send");
        // A zero-length frame decodes as nothing: the coordinator end
        // drops the connection, as it does for any corrupt frame.
        tp.writer
            .write(&tp.stream, Vec::new())
            .expect("empty frame");
        let got = coord_tp.recv_timeout(Duration::from_secs(5));
        assert_eq!(got, Some(report), "the report ahead of it is delivered");
        until_closed(&coord_tp, 0, "empty frame left the connection open");
    }

    #[test]
    fn a_frame_naming_another_sender_closes_its_connection() {
        // Node 0's connection sends its own report, then one naming node
        // 1 (a member) or node 7 (no such node). Neither spoof reaches the
        // coordinator, and each closes node 0's connection.
        for spoof in [1, 7] {
            let (coord_tp, mut nodes) = bound(free_addr(), 2);
            let tp = &mut nodes[0];
            let report = |node| NodeMessage::LocalVector {
                node,
                vector: vec![1.0],
                epoch: 0,
            };
            tp.send(&report(0)).expect("send");
            tp.writer
                .write(&tp.stream, wire::encode_node_message(&report(spoof)))
                .expect("spoofed frame");
            let got = coord_tp.recv_timeout(Duration::from_secs(5));
            assert_eq!(got, Some(report(0)), "the report ahead of it is delivered");
            until_closed(&coord_tp, 0, "a spoof left the connection open");
            assert_eq!(coord_tp.recv_timeout(Duration::from_millis(50)), None);
            assert!(
                coord_tp.is_connected(1),
                "the spoofed node keeps its own connection"
            );
        }
    }
}
