//! How one protocol frame gets from a node to the coordinator and back.
//!
//! The round driver in `pass.rs` is written once against [`Link`]. The
//! in-process link hands the message value straight over (no codec, no
//! socket); the wire link pushes it through `TcpNodeTransport` on one side
//! and a coordinator transport on the other, over the host loopback.
//!
//! Threads: the driver thread owns every node socket and calls both ends.
//! The only other thread is the coordinator transport's own (the reactor's
//! event loop; reader threads on the threaded backend). A helper thread
//! exists while `bind` accepts the hellos and is joined before `connect`
//! returns. One frame is in flight at a time, so at most two threads are
//! ever runnable — the load is sized for a 2-core host.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use automon_core::{CoordinatorMessage, NodeId, NodeMessage, Outbound};
use automon_net::reactor::ReactorCoordinatorTransport;
use automon_net::tcp::{TcpCoordinatorTransport, TcpError, TcpNodeTransport};
use automon_obs::Telemetry;

use crate::trace::{Stage, Tracer};

/// A resolution that takes longer than this counts as failed.
pub const RESOLVE_DEADLINE: Duration = Duration::from_secs(5);

/// Why an update could not be completed.
#[derive(Debug)]
pub enum Fail {
    Transport(String),
    /// The coordinator saw no frame before the resolution deadline.
    Deadline,
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Transport(e) => write!(f, "transport error: {e}"),
            Fail::Deadline => write!(f, "resolution exceeded the {RESOLVE_DEADLINE:?} deadline"),
        }
    }
}

impl From<TcpError> for Fail {
    fn from(e: TcpError) -> Self {
        Fail::Transport(e.to_string())
    }
}

pub trait Link {
    /// Set the instant past which the current resolution has failed.
    fn arm(&mut self, deadline: Instant);
    /// Move a node's frame to the coordinator; returns it as received.
    fn up(&mut self, msg: NodeMessage, tr: &mut Tracer) -> Result<NodeMessage, Fail>;
    /// Move a coordinator frame to its node; returns it as received.
    fn down(&mut self, out: Outbound, tr: &mut Tracer) -> Result<CoordinatorMessage, Fail>;
    /// The documented node loop's poll: one `try_recv` on `node`'s
    /// connection. The in-process link has nothing to poll.
    fn poll(&mut self, node: NodeId, tr: &mut Tracer) -> Result<Option<CoordinatorMessage>, Fail>;
}

/// Direct calls: no sockets, no codec.
pub struct InProcess;

impl Link for InProcess {
    fn arm(&mut self, _deadline: Instant) {}

    fn up(&mut self, msg: NodeMessage, _tr: &mut Tracer) -> Result<NodeMessage, Fail> {
        Ok(msg)
    }

    fn down(&mut self, out: Outbound, _tr: &mut Tracer) -> Result<CoordinatorMessage, Fail> {
        Ok(out.msg)
    }

    fn poll(
        &mut self,
        _node: NodeId,
        _tr: &mut Tracer,
    ) -> Result<Option<CoordinatorMessage>, Fail> {
        Ok(None)
    }
}

/// Which coordinator-side socket transport a wire link runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Reactor,
    /// Reader thread per connection; only used for the one
    /// `net.tcp.threaded_over_reactor_resolve` comparison pass.
    Threaded,
}

enum CoordSide {
    Reactor(ReactorCoordinatorTransport),
    Threaded(TcpCoordinatorTransport),
}

impl CoordSide {
    fn recv_timeout(&self, d: Duration) -> Option<NodeMessage> {
        match self {
            CoordSide::Reactor(t) => t.recv_timeout(d),
            CoordSide::Threaded(t) => t.recv_timeout(d),
        }
    }

    fn send(&self, out: &Outbound) -> Result<(), TcpError> {
        match self {
            CoordSide::Reactor(t) => t.send(out),
            CoordSide::Threaded(t) => t.send(out),
        }
    }
}

/// Transport-side totals of a reactor link, for the verification pass's
/// byte cross-check and the syscall metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireTotals {
    pub frames: u64,
    pub bytes: u64,
    pub syscalls: u64,
    pub reads: u64,
}

/// Loopback sockets: `n` node connections and one coordinator transport.
pub struct Wire {
    coord: CoordSide,
    nodes: Vec<TcpNodeTransport>,
    deadline: Instant,
}

impl Wire {
    /// Bind the coordinator transport on a free loopback port and connect
    /// `n` nodes to it. `tel` is attached to both sides when given.
    pub fn connect(backend: Backend, n: usize, tel: &Telemetry) -> Result<Self, Fail> {
        let io = |e: std::io::Error| Fail::Transport(e.to_string());
        // Reserve a port, free it, and let the transport bind it: `bind`
        // only reports its address after every node said hello.
        let probe = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr: SocketAddr = probe.local_addr().map_err(io)?;
        drop(probe);
        let hello_timeout = Some(RESOLVE_DEADLINE);
        let binder = {
            let tel = tel.clone();
            std::thread::spawn(move || -> Result<CoordSide, TcpError> {
                Ok(match backend {
                    Backend::Reactor => CoordSide::Reactor(
                        ReactorCoordinatorTransport::bind_with_telemetry(
                            addr,
                            n,
                            hello_timeout,
                            tel,
                        )?
                        .0,
                    ),
                    Backend::Threaded => CoordSide::Threaded(
                        TcpCoordinatorTransport::bind_with_telemetry(addr, n, hello_timeout, tel)?
                            .0,
                    ),
                })
            })
        };
        // Let the binder reach its accept loop first: this thread shares
        // its CPU, and a dial that beats the listener is refused and
        // sleeps out a jittered backoff before its retry.
        std::thread::yield_now();
        let nodes: Result<Vec<_>, TcpError> = (0..n)
            .map(|i| {
                TcpNodeTransport::connect_with_telemetry(addr, i, Default::default(), tel.clone())
            })
            .collect();
        let coord = binder
            .join()
            .map_err(|_| Fail::Transport("bind thread panicked".into()))??;
        Ok(Wire {
            coord,
            nodes: nodes?,
            deadline: Instant::now() + RESOLVE_DEADLINE,
        })
    }

    /// What the reactor itself counted (zeros on the threaded backend).
    /// The event loop publishes its counters when it goes idle, so call
    /// this at a quiescent point and poll until `frames` is what you sent.
    pub fn totals(&self) -> WireTotals {
        match &self.coord {
            CoordSide::Reactor(t) => {
                let (tr, sys) = (t.traffic(), t.syscall_stats());
                WireTotals {
                    frames: tr.frames_in + tr.frames_out,
                    bytes: tr.bytes_in + tr.bytes_out,
                    syscalls: sys.total(),
                    reads: sys.reads,
                }
            }
            CoordSide::Threaded(_) => WireTotals::default(),
        }
    }
}

impl Link for Wire {
    fn arm(&mut self, deadline: Instant) {
        self.deadline = deadline;
    }

    fn up(&mut self, msg: NodeMessage, tr: &mut Tracer) -> Result<NodeMessage, Fail> {
        let t0 = tr.now();
        self.nodes[msg.sender()].send(&msg)?;
        let t1 = tr.now();
        tr.span(Stage::NodeSend, t0, t1);
        // The only wait that could last forever: bound it by the deadline.
        let left = self.deadline.saturating_duration_since(Instant::now());
        let got = self.coord.recv_timeout(left).ok_or(Fail::Deadline)?;
        tr.span(Stage::UpTransit, t1, tr.now());
        Ok(got)
    }

    fn down(&mut self, out: Outbound, tr: &mut Tracer) -> Result<CoordinatorMessage, Fail> {
        let t0 = tr.now();
        self.coord.send(&out)?;
        let t1 = tr.now();
        tr.span(Stage::CoordSend, t0, t1);
        // Blocking read of a frame the transport has just accepted: it
        // ends with the frame or, if the transport died, a closed socket.
        let got = self.nodes[out.to].recv()?;
        tr.span(Stage::DownTransit, t1, tr.now());
        Ok(got)
    }

    fn poll(&mut self, node: NodeId, tr: &mut Tracer) -> Result<Option<CoordinatorMessage>, Fail> {
        let t0 = tr.now();
        let got = self.nodes[node].try_recv()?;
        if got.is_none() {
            tr.span(Stage::IdlePoll, t0, tr.now());
        }
        Ok(got)
    }
}
