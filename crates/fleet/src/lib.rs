//! # automon-fleet — hierarchical sharded coordinator fleet
//!
//! Scales AutoMon monitoring past a single coordinator by stacking the
//! protocol on itself (DESIGN.md §3.14). Streams are partitioned into
//! shards; each shard gets a full leaf [`Coordinator`] running the
//! unmodified geometric-monitoring protocol over its members with a
//! fraction of the error budget. Above the leaves, a *root*
//! coordinator monitors `f` of the global average by treating each
//! leaf's scaled partial mean as one node stream — a proxy
//! [`automon_core::Node`] per shard holds the root-assigned safe zone.
//! A shard-local violation is resolved by the leaf's own lazy/full
//! sync; the root hears about it only when the *resolved shard
//! aggregate* leaves the proxy's zone, which is what makes root-tier
//! message volume sublinear in the stream count.
//!
//! Module map:
//! - [`shard`] — stream→shard assignment ([`ShardMap`]): round-robin,
//!   plus crash-time adoption.
//! - [`compose`] — the canonical shard-major summation order under
//!   which weighted composition of partial means is *bitwise* equal to
//!   the flat global mean.
//! - [`fleet`] — the assembled two-tier engine ([`Fleet`]), with the
//!   membership faults it can suffer as methods
//!   ([`Fleet::crash_node`], [`Fleet::restart_node`],
//!   [`Fleet::crash_leaf`]). *When* they happen is an
//!   `automon_chaos::FaultPlan`, the workspace's one fault schedule,
//!   which `automon_sim::FleetSimulation` reads and dispatches — this
//!   crate has no schedule type and no dependency on the chaos crate.
//!
//! [`Coordinator`]: automon_core::Coordinator

pub mod compose;
mod fleet;
mod shard;

pub use fleet::{Fleet, FleetConfig, FleetEvents};
pub use shard::ShardMap;
