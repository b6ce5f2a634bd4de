//! Messaging fabric for AutoMon.
//!
//! The paper treats messaging as the application's concern (§3.8): the
//! library produces and consumes message *contents*, and a fabric such as
//! ZeroMQ moves them. This crate supplies the Rust equivalents used by
//! the evaluation:
//!
//! * [`wire`] — a compact, hand-rolled binary codec for every protocol
//!   message: each frame is a plain `Vec<u8>`. Payload sizes are
//!   deterministic, which is what the §4.7 bandwidth experiments measure.
//! * [`CountingFabric`] — an in-process fabric that charges every
//!   message the codec's exact frame length (so the bytes are real, not
//!   estimated) and hands the message itself on, accumulating
//!   per-direction message and byte counts (the messages and payload of
//!   Figure 10).
//! * [`tcp`] — the node end of the protocol over real `std::net`
//!   sockets with length-prefixed frames: the dependency-free ZeroMQ
//!   replacement for actual multi-process deployments, and the
//!   [`CoordinatorTransport`] seam the round driver runs a coordinator
//!   end through.
//! * [`reactor`] — the one coordinator end (`--net-backend reactor`):
//!   an edge-triggered epoll event loop ([`poller`]) over a slab of
//!   per-connection state machines, with frame coalescing and `writev`
//!   scatter-gather batching ([`frame`]), and bounded outbound queues
//!   that surface backpressure. The loop has no thread of its own: it
//!   runs while its caller is inside `send` / `recv*`, over epoll in
//!   production and over [`sim_poller`]'s seeded in-memory network for
//!   byte-identical replay (DESIGN.md §3.15). It injects no faults:
//!   `automon-sim`'s reactor link applies a fault plan to the frames the
//!   reactor hands it.
//! * [`backoff`] — the seeded, jittered schedule a node's connect
//!   retries sleep on.
//!
//! For the hierarchical fleet (DESIGN.md §3.14), [`ShardedFabric`]
//! composes one `CountingFabric` per leaf shard with a cause-mapped
//! root fabric for inter-tier frames, and merges their accounting.

pub mod backoff;
mod fabric;
pub mod frame;
pub mod poller;
pub mod reactor;
mod sharded;
pub mod sim_poller;
pub mod tcp;
pub mod wire;

pub use backoff::Backoff;
pub use fabric::{CountingFabric, TrafficStats};
pub use frame::{FrameAssembler, IoVec, OutQueue};
pub use poller::{EpollPoller, Event, Poller, SyscallStats, Token};
pub use reactor::{Reactor, ReactorConfig, ReactorCoordinatorTransport, ReactorTraffic};
pub use sharded::ShardedFabric;
pub use sim_poller::{SimClient, SimNet, SimPoller};
pub use tcp::CoordinatorTransport;
