//! Messaging fabric for AutoMon.
//!
//! The paper treats messaging as the application's concern (§3.8): the
//! library produces and consumes message *contents*, and a fabric such as
//! ZeroMQ moves them. This crate supplies the Rust equivalents used by
//! the evaluation:
//!
//! * [`wire`] — a compact, hand-rolled binary codec for every protocol
//!   message. Payload sizes are deterministic, which is what the §4.7
//!   bandwidth experiments measure.
//! * [`CountingFabric`] — an in-process fabric that round-trips every
//!   message through the codec (so the bytes are real, not estimated),
//!   accumulating per-direction message and byte counts plus a
//!   configurable per-message transport overhead — reproducing the
//!   payload-vs-traffic split of Figure 10.
//! * [`delta`] — sparse delta compression for local vectors, the §5
//!   bandwidth-reduction direction the paper defers to future work.
//! * [`tcp`] — the protocol over real `std::net` sockets with
//!   length-prefixed frames: the dependency-free ZeroMQ replacement for
//!   actual multi-process deployments. One reader thread per
//!   connection; the baseline (`--net-backend threaded`). Its coordinator
//!   end and the reactor's share the [`CoordinatorTransport`] trait.
//! * [`reactor`] — the nonblocking runtime (`--net-backend reactor`):
//!   an edge-triggered epoll event loop ([`poller`]) over a slab of
//!   per-connection state machines, with frame coalescing and `writev`
//!   scatter-gather batching ([`frame`]), bounded outbound queues that
//!   surface backpressure, and a chaos seam at the decoded-frame
//!   boundary ([`gate`]). The loop has no thread of its own: it runs
//!   while its caller is inside `send` / `recv*`, over epoll in
//!   production and over [`sim_poller`]'s seeded in-memory network for
//!   byte-identical replay (DESIGN.md §3.15).
//! * [`backoff`] — the one seeded, jittered retry/poll schedule both
//!   backends sleep on.
//!
//! For the hierarchical fleet (DESIGN.md §3.14), [`ShardedFabric`]
//! composes one `CountingFabric` per leaf shard with a cause-mapped
//! root fabric for inter-tier frames, and merges their accounting.

pub mod backoff;
pub mod delta;
mod fabric;
pub mod frame;
pub mod gate;
pub mod poller;
pub mod reactor;
mod sharded;
pub mod sim_poller;
pub mod tcp;
pub mod wire;

pub use backoff::Backoff;
pub use fabric::{CountingFabric, TrafficStats};
pub use frame::{FrameAssembler, IoVec, OutQueue};
pub use gate::{FrameGate, GateVerdict, OpenGate};
pub use poller::{EpollPoller, Event, Poller, SyscallStats, Token};
pub use reactor::{Reactor, ReactorConfig, ReactorCoordinatorTransport, ReactorTraffic};
pub use sharded::ShardedFabric;
pub use sim_poller::{SimClient, SimNet, SimPoller};
pub use tcp::CoordinatorTransport;
