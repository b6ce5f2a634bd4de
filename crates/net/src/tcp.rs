//! TCP transport: AutoMon's protocol over real sockets.
//!
//! The paper's deployment moves frames with ZeroMQ (§3.8, §4.7); this
//! module is the dependency-free equivalent on `std::net`. Frames are
//! length-prefixed wire-codec messages; each node opens one connection
//! and introduces itself with a hello frame carrying its id. An empty
//! frame (zero-length payload) is a heartbeat: it refreshes the sender's
//! liveness clock and is never surfaced to the protocol.
//!
//! Concurrency model: the coordinator accepts the initial `n` node
//! connections, then keeps accepting in a background thread so a crashed
//! node can reconnect; a reader thread per connection decodes frames into
//! one mpsc channel, and replies are written to per-node writer slots. A
//! slot empties when its connection dies and refills when the node dials
//! back in. Nodes read their single connection blocking, polling or up
//! to a deadline, with bounded connect-retry and
//! reconnect-on-send-failure (see [`RetryPolicy`]).
//!
//! Framing is [`crate::frame`]'s, the same code the reactor runs: every
//! read side is a `FrameReader` (one buffered `recv` yields every
//! frame it carried; a poll that finds nothing costs one
//! `recv(MSG_DONTWAIT)` and arms no timer), every send is one `writev`
//! of prefix and payload through an [`OutQueue`] (`FrameWriter`).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use automon_core::{CoordinatorMessage, NodeId, NodeMessage, Outbound};
use automon_obs::{Counter, SpanId, Telemetry};

use bytes::Bytes;

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
    /// A hello frame carried an id outside `0..n`.
    UnknownNode(NodeId),
    /// The accept deadline expired before every node said hello; carries
    /// the ids that never arrived.
    HelloTimeout(Vec<NodeId>),
    /// No live connection to this node (it crashed or never connected).
    NotConnected(NodeId),
    /// Connect retries exhausted without reaching the coordinator.
    ConnectExhausted(NodeId),
    /// The node's bounded outbound queue is full; the caller should
    /// degrade this node (e.g. prefer others for lazy-sync growth)
    /// rather than buffer without bound. Reactor backend only.
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
            TcpError::UnknownNode(id) => write!(f, "hello from unknown node {id}"),
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
/// connects and send-side reconnects.
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
    fn write(&mut self, stream: &TcpStream, frame: Bytes) -> Result<(), TcpError> {
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

/// Coordinator-side transport counters. Reader threads and the send path
/// touch these concurrently, so they are commutative counters only —
/// never trace events (see the contract in [`automon_obs::trace`]).
/// Default is all-disabled handles: zero-cost until a telemetry-carrying
/// constructor is used.
#[derive(Default)]
struct CoordNetTel {
    frames_in: Counter,
    bytes_in: Counter,
    frames_out: Counter,
    bytes_out: Counter,
    heartbeats: Counter,
    accepts: Counter,
    send_failures: Counter,
}

impl CoordNetTel {
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
        }
    }
}

/// Node-side transport counters; same commutative-only discipline as
/// [`CoordNetTel`].
#[derive(Default)]
struct NodeNetTel {
    connect_attempts: Counter,
    connect_retries: Counter,
    backoff_ms: Counter,
    reconnects: Counter,
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
            reconnects: tel.counter(
                "automon_net_reconnects_total",
                "Explicit reconnects after a dead connection",
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

/// One node's write side. The generation lets a reader thread that dies
/// late avoid clearing a slot a reconnect already refilled.
struct WriterSlot {
    stream: Option<TcpStream>,
    writer: FrameWriter,
    generation: u64,
}

/// State shared between the transport handle, the acceptor, and the
/// per-connection reader threads.
struct Shared {
    writers: Vec<Mutex<WriterSlot>>,
    last_seen: Vec<Mutex<Instant>>,
    shutdown: AtomicBool,
    /// `recv` calls by the reader threads and `writev` calls by
    /// [`TcpCoordinatorTransport::send`].
    reads: AtomicU64,
    writes: AtomicU64,
    tel: CoordNetTel,
}

impl Shared {
    fn touch(&self, id: NodeId) {
        *lock_clean(&self.last_seen[id]) = Instant::now();
    }
}

/// Lock that shrugs off poisoning: a panicked writer holds no invariant
/// worth propagating here (the slot is just a socket handle).
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Admit one freshly accepted connection: read its hello, install the
/// writer, spawn the reader. Returns the node id on success.
fn admit(
    shared: &Arc<Shared>,
    tx: &Sender<(SpanId, NodeMessage)>,
    stream: TcpStream,
    n: usize,
) -> Result<NodeId, TcpError> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let mut reader = FrameReader::default();
    // A connection that never completes its hello must not wedge accepts.
    let hello = reader
        .read(
            &stream,
            Wait::Until(Instant::now() + Duration::from_secs(2)),
        )?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::TimedOut))?;
    let msg = wire::decode_node_message(hello).map_err(TcpError::Wire)?;
    shared
        .reads
        .fetch_add(std::mem::take(&mut reader.reads), Ordering::Relaxed);
    let id = msg.sender();
    if id >= n {
        return Err(TcpError::UnknownNode(id));
    }
    let writer = stream.try_clone()?;
    let generation = {
        let mut slot = lock_clean(&shared.writers[id]);
        slot.generation += 1;
        slot.stream = Some(writer);
        slot.writer = FrameWriter::new();
        slot.generation
    };
    shared.touch(id);
    shared.tel.accepts.inc();
    let shared = shared.clone();
    let tx = tx.clone();
    std::thread::spawn(move || {
        // `reader` comes along: it may already hold frames that arrived
        // behind the hello.
        loop {
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let Ok(Some(frame)) = reader.read(&stream, Wait::Forever) else {
                break;
            };
            let len = frame.len();
            // An empty frame is a heartbeat: nothing to decode.
            let decoded = (len > 0).then(|| wire::decode_node_message_ctx(frame));
            // Counted before the frame is handed over, so a caller that
            // has the frame also sees the reads that fetched it.
            shared
                .reads
                .fetch_add(std::mem::take(&mut reader.reads), Ordering::Relaxed);
            shared.touch(id);
            shared.tel.frames_in.inc();
            shared.tel.bytes_in.add(frame_bytes(len));
            let Some(decoded) = decoded else {
                shared.tel.heartbeats.inc();
                continue;
            };
            let Ok((span, msg)) = decoded else {
                // Framing is byte-synchronized; a corrupt frame means the
                // stream can no longer be trusted. Drop the connection
                // and let the node reconnect.
                break;
            };
            if tx.send((span, msg)).is_err() {
                break;
            }
        }
        let mut slot = lock_clean(&shared.writers[id]);
        if slot.generation == generation {
            slot.stream = None;
        }
    });
    Ok(id)
}

/// Coordinator side of the TCP transport.
pub struct TcpCoordinatorTransport {
    rx: Receiver<(SpanId, NodeMessage)>,
    shared: Arc<Shared>,
}

impl TcpCoordinatorTransport {
    /// Bind `addr`, accept `n` node connections (each must send a hello
    /// [`NodeMessage::LocalVector`]-shaped frame carrying its id), and
    /// start the reader threads plus a background acceptor that admits
    /// reconnecting nodes for the transport's lifetime.
    ///
    /// Blocks until every node said hello; use
    /// [`TcpCoordinatorTransport::bind_with_timeout`] to bound the wait.
    pub fn bind(addr: SocketAddr, n: usize) -> Result<(Self, SocketAddr), TcpError> {
        Self::bind_with_timeout(addr, n, None)
    }

    /// Like [`TcpCoordinatorTransport::bind`], but gives up with
    /// [`TcpError::HelloTimeout`] when not every node said hello within
    /// `hello_timeout`. Connections with malformed or out-of-range
    /// hellos are dropped and accepting continues.
    pub fn bind_with_timeout(
        addr: SocketAddr,
        n: usize,
        hello_timeout: Option<Duration>,
    ) -> Result<(Self, SocketAddr), TcpError> {
        Self::bind_with_telemetry(addr, n, hello_timeout, Telemetry::disabled())
    }

    /// Like [`TcpCoordinatorTransport::bind_with_timeout`], with transport
    /// counters (frames, bytes, accepts, heartbeats, send failures)
    /// registered on `tel`. Pass [`Telemetry::disabled`] to opt out.
    pub fn bind_with_telemetry(
        addr: SocketAddr,
        n: usize,
        hello_timeout: Option<Duration>,
        tel: Telemetry,
    ) -> Result<(Self, SocketAddr), TcpError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (tx, rx) = channel::<(SpanId, NodeMessage)>();
        let shared = Arc::new(Shared {
            writers: (0..n)
                .map(|_| {
                    Mutex::new(WriterSlot {
                        stream: None,
                        writer: FrameWriter::new(),
                        generation: 0,
                    })
                })
                .collect(),
            last_seen: (0..n).map(|_| Mutex::new(Instant::now())).collect(),
            shutdown: AtomicBool::new(false),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            tel: CoordNetTel::new(&tel),
        });
        let deadline = hello_timeout.map(|t| Instant::now() + t);
        listener.set_nonblocking(true)?;

        let mut greeted = vec![false; n];
        // Idle-poll schedule seeded by the bound port: deterministic
        // per endpoint, reset whenever an accept makes progress.
        let mut poll = Backoff::accept_poll(local.port() as u64);
        while !greeted.iter().all(|&g| g) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                let missing = (0..n).filter(|&i| !greeted[i]).collect();
                return Err(TcpError::HelloTimeout(missing));
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    // A bad hello only costs that connection.
                    if let Ok(id) = admit(&shared, &tx, stream, n) {
                        greeted[id] = true;
                    }
                    poll.reset();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    poll.sleep();
                }
                Err(e) => return Err(e.into()),
            }
        }

        // Keep admitting rejoining nodes until the transport drops.
        let bg_shared = shared.clone();
        let mut bg_poll = Backoff::accept_poll(local.port() as u64 ^ 0xACCE);
        std::thread::spawn(move || loop {
            if bg_shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = admit(&bg_shared, &tx, stream, n);
                    bg_poll.reset();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    bg_poll.sleep();
                }
                Err(_) => break,
            }
        });

        Ok((Self { rx, shared }, local))
    }

    /// Blocking receive of the next node message; `None` when every node
    /// hung up and the acceptor stopped.
    pub fn recv(&self) -> Option<NodeMessage> {
        self.recv_traced().map(|(_, m)| m)
    }

    /// Like [`TcpCoordinatorTransport::recv`], also yielding the span the
    /// node propagated in the frame header — feed it (with the message's
    /// epoch) to `Coordinator::handle_with_context` so coordinator-side
    /// spans parent on the node-side span that caused them.
    pub fn recv_traced(&self) -> Option<(SpanId, NodeMessage)> {
        self.rx.recv().ok()
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<NodeMessage> {
        self.recv_timeout_traced(timeout).map(|(_, m)| m)
    }

    /// [`TcpCoordinatorTransport::recv_traced`] with a timeout.
    pub fn recv_timeout_traced(&self, timeout: Duration) -> Option<(SpanId, NodeMessage)> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Send one outbound message to its node; the outbound's span rides
    /// the frame header as trace context.
    ///
    /// [`TcpError::NotConnected`] when the node's connection is down
    /// (crashed or not yet rejoined); the caller decides whether to
    /// retransmit later or evict.
    pub fn send(&self, out: &Outbound) -> Result<(), TcpError> {
        let frame = wire::encode_coordinator_message_ctx(&out.msg, out.span);
        let len = frame.len();
        let mut guard = lock_clean(&self.shared.writers[out.to]);
        let slot = &mut *guard;
        let Some(stream) = slot.stream.as_ref() else {
            return Err(TcpError::NotConnected(out.to));
        };
        let sent = slot.writer.write(stream, frame);
        self.shared
            .writes
            .fetch_add(std::mem::take(&mut slot.writer.writes), Ordering::Relaxed);
        match sent {
            Ok(()) => {
                self.shared.tel.frames_out.inc();
                self.shared.tel.bytes_out.add(frame_bytes(len));
                Ok(())
            }
            Err(e) => {
                // A failed write means the connection is gone; free the
                // slot so a reconnect can claim it.
                slot.stream = None;
                self.shared.tel.send_failures.inc();
                Err(e)
            }
        }
    }

    /// Frame I/O syscalls so far — the reader threads' `recv`s and this
    /// handle's `writev`s — the comparison point for the reactor's
    /// [`crate::reactor::ReactorCoordinatorTransport::syscall_stats`].
    pub fn syscall_stats(&self) -> SyscallStats {
        SyscallStats {
            waits: 0,
            reads: self.shared.reads.load(Ordering::Relaxed),
            writevs: self.shared.writes.load(Ordering::Relaxed),
            accepts: 0,
        }
    }

    /// `true` while a live connection to `node` exists.
    pub fn is_connected(&self, node: NodeId) -> bool {
        lock_clean(&self.shared.writers[node]).stream.is_some()
    }

    /// Nodes not heard from (frame or heartbeat) for at least `timeout` —
    /// the liveness input for eviction decisions.
    pub fn stale_nodes(&self, timeout: Duration) -> Vec<NodeId> {
        let now = Instant::now();
        (0..self.shared.last_seen.len())
            .filter(|&i| {
                now.duration_since(*lock_clean(&self.shared.last_seen[i])) >= timeout
            })
            .collect()
    }
}

impl Drop for TcpCoordinatorTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

/// The coordinator end of a socket transport, as a driver that serves
/// both backends sees it: [`TcpCoordinatorTransport`] and
/// [`crate::reactor::ReactorCoordinatorTransport`] forward to their
/// inherent methods of the same names, and a test substitutes an end that
/// never delivers.
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

impl CoordinatorTransport for TcpCoordinatorTransport {
    fn bind(addr: SocketAddr, n: usize, hello_timeout: Option<Duration>) -> Result<Self, TcpError> {
        Self::bind_with_timeout(addr, n, hello_timeout).map(|(tp, _)| tp)
    }
    fn recv_timeout_traced(&self, timeout: Duration) -> Option<(SpanId, NodeMessage)> {
        TcpCoordinatorTransport::recv_timeout_traced(self, timeout)
    }
    fn send(&self, out: &Outbound) -> Result<(), TcpError> {
        TcpCoordinatorTransport::send(self, out)
    }
    fn syscall_stats(&self) -> SyscallStats {
        TcpCoordinatorTransport::syscall_stats(self)
    }
}

/// Node side of the TCP transport.
pub struct TcpNodeTransport {
    id: NodeId,
    addr: SocketAddr,
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    retry: RetryPolicy,
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
            addr,
            stream,
            reader: FrameReader::default(),
            writer: FrameWriter::new(),
            retry,
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

    /// Drop the current connection and dial the coordinator again (with
    /// the transport's retry schedule) — a crashed-and-restarted node's
    /// path back into the group.
    pub fn reconnect(&mut self) -> Result<(), TcpError> {
        self.tel.reconnects.inc();
        self.stream = Self::dial(self.addr, self.id, self.retry, &self.tel)?;
        // Bytes buffered from the dead connection, in either direction,
        // are no part of the new one's stream.
        self.reader.asm = FrameAssembler::new();
        self.writer.out = OutQueue::new(1);
        Ok(())
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
        self.write(wire::encode_node_message_ctx(msg, span))
    }

    fn write(&mut self, frame: Bytes) -> Result<(), TcpError> {
        let len = frame.len();
        self.writer.write(&self.stream, frame)?;
        self.tel.frames_out.inc();
        self.tel.bytes_out.add(frame_bytes(len));
        Ok(())
    }

    /// Send, reconnecting with backoff when the connection is dead.
    pub fn send_with_retry(&mut self, msg: &NodeMessage) -> Result<(), TcpError> {
        if self.send(msg).is_ok() {
            return Ok(());
        }
        self.reconnect()?;
        self.send(msg)
    }

    /// Send a heartbeat (empty frame): refreshes this node's liveness
    /// clock on the coordinator without touching the protocol.
    pub fn send_heartbeat(&mut self) -> Result<(), TcpError> {
        self.write(Bytes::new())
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
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::{Coordinator, MonitorConfig, MonitoredFunction, Node};

    struct Mean1;
    impl ScalarFn for Mean1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0]
        }
    }

    #[test]
    fn full_monitoring_session_over_tcp() {
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Mean1));
        let n = 2;

        // The coordinator must accept while nodes connect: bind the
        // listener in a thread and hand back the transport.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // free the port for the real bind below
        let coord_thread = {
            let f = f.clone();
            std::thread::spawn(move || {
                let (tp, _) =
                    TcpCoordinatorTransport::bind(addr, n).expect("bind and accept");
                let mut coord =
                    Coordinator::new(f, n, MonitorConfig::builder(0.5).build());
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        // Bind only after the node has started dialing.
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            TcpCoordinatorTransport::bind(addr, 1).expect("bind")
        });
        let tp = TcpNodeTransport::connect(addr, 0).expect("retry until bound");
        assert_eq!(tp.id(), 0);
        let (coord_tp, _) = binder.join().unwrap();
        assert!(coord_tp.is_connected(0));
    }

    #[test]
    fn connect_exhaustion_is_an_error_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        // Nobody connects: bind must give up instead of panicking.
        match TcpCoordinatorTransport::bind_with_timeout(
            addr,
            2,
            Some(Duration::from_millis(50)),
        ) {
            Err(TcpError::HelloTimeout(missing)) => assert_eq!(missing, vec![0, 1]),
            other => panic!("expected HelloTimeout, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn send_to_crashed_node_errs_then_rejoin_heals() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let binder =
            std::thread::spawn(move || TcpCoordinatorTransport::bind(addr, 1).expect("bind"));
        let tp = TcpNodeTransport::connect(addr, 0).expect("connect");
        let (coord_tp, _) = binder.join().unwrap();

        // Crash the node: its connection drops and sends start failing.
        drop(tp);
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
                // The reader may not have noticed the close yet, or the
                // first write after close fails with Io; both settle to
                // NotConnected.
                Ok(()) | Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(saw_down, "crash never surfaced as NotConnected");

        // The node dials back in; the background acceptor admits it and
        // sends flow again.
        let mut tp = TcpNodeTransport::connect(addr, 0).expect("rejoin");
        let mut ok = false;
        for _ in 0..100 {
            if coord_tp.send(&out).is_ok() {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ok, "send never recovered after rejoin");
        let msg = tp.recv().expect("delivered after rejoin");
        assert_eq!(msg, CoordinatorMessage::RequestLocalVector { epoch: 0 });
    }

    #[test]
    fn trace_context_propagates_over_tcp_in_both_directions() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let binder =
            std::thread::spawn(move || TcpCoordinatorTransport::bind(addr, 1).expect("bind"));
        let mut tp = TcpNodeTransport::connect(addr, 0).expect("connect");
        let (coord_tp, _) = binder.join().unwrap();

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

        // The plain hello path still decodes as span NONE on the reader.
        tp.send(&report).expect("untraced send");
        let (span, _) = coord_tp
            .recv_timeout_traced(Duration::from_secs(5))
            .expect("frame");
        assert_eq!(span, SpanId::NONE);
    }

    #[test]
    fn heartbeats_keep_a_quiet_node_fresh() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let binder =
            std::thread::spawn(move || TcpCoordinatorTransport::bind(addr, 1).expect("bind"));
        let mut tp = TcpNodeTransport::connect(addr, 0).expect("connect");
        let (coord_tp, _) = binder.join().unwrap();

        for _ in 0..5 {
            tp.send_heartbeat().expect("heartbeat");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Heard from recently: not stale at a 1s horizon.
        assert!(coord_tp.stale_nodes(Duration::from_secs(1)).is_empty());
        // At a zero horizon everyone is trivially stale — the filter works.
        assert_eq!(coord_tp.stale_nodes(Duration::ZERO), vec![0]);
    }
}
