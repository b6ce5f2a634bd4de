//! Per-byte communication ledger.
//!
//! AutoMon's evaluation is communication volume; flat counters say how
//! many bytes moved but not *why*. The ledger charges every frame to a
//! protocol [`CommCause`], one cell per cause with an up/down direction
//! split, so a run can be decomposed into "what the protocol spent on
//! what" — the bytes/update-by-cause table `automon trace summarize`
//! prints, and the sharded fleet's per-tier audit. The ledger is
//! per-cause only: the node and round of each frame are on its `comm`
//! trace event, which is where a per-node or per-round table comes from.
//!
//! Conservation invariant: the fabric charges the ledger at exactly the
//! points where it bumps its traffic counters, so ledger totals equal
//! the `TrafficStats`/`RunStats` message and payload totals *exactly* —
//! enforced by a proptest in `automon-sim` and a CI parity check.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::messages::NodeMessage;
use crate::safezone::ViolationKind;

/// The protocol reason a frame crossed the fabric.
///
/// Node→coordinator frames are classified by what the node reports
/// (violation kind, registration, pull reply); coordinator→node frames
/// carry their cause on the [`crate::Outbound`] that produced them.
/// Fault-tolerance paths (retransmission, eviction, rejoin) override the
/// base cause at charge time so recovery traffic is separable from
/// steady-state protocol traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommCause {
    /// Initial registration (an `Uninitialized` violation).
    Registration,
    /// Neighborhood-constraint violation report.
    ViolationNeighborhood,
    /// Safe-zone violation report.
    ViolationSafeZone,
    /// Faulty-constraints report (node-side numerical trouble).
    ViolationFaulty,
    /// Full synchronization: pulls and constraint installs.
    FullSync,
    /// Lazy synchronization: pulls and slack rebalances.
    LazySync,
    /// Epoch resynchronization of a stale node.
    Resync,
    /// Crashed node dialing back into the group.
    Rejoin,
    /// Traffic triggered by evicting an unresponsive node.
    Eviction,
    /// Retransmission of an unacknowledged frame.
    Retransmit,
    /// Fleet resynchronization after a coordinator crash: the restored
    /// coordinator's pulls, their replies, and the closing installs
    /// (docs/DURABILITY.md) — durability costs disk, and this cause
    /// makes its wire cost separable too.
    Recovery,
    /// Leaf → root: a shard's refreshed partial mean violated the
    /// root-assigned constraints (the fleet's inter-tier report frame,
    /// DESIGN.md §3.14). Covers root-tier registrations too — a leaf's
    /// first report is how it joins the root's group.
    LeafReport,
    /// Root-tier synchronization traffic: the root coordinator's pulls
    /// of other leaves' partial means, their replies, and the closing
    /// constraint/slack installs. The hierarchical analogue of
    /// [`CommCause::FullSync`]/[`CommCause::LazySync`], kept separate so
    /// the two tiers stay separable in one merged ledger.
    RootSync,
    /// Shard-rebalancing traffic after a leaf crash or root-tier
    /// eviction: the root's adopt directives, proxy evictions, and the
    /// re-registrations they trigger.
    ShardRebalance,
}

impl CommCause {
    /// Every cause, in declaration order: `ALL[c as usize] == c`.
    pub const ALL: [CommCause; 14] = [
        CommCause::Registration,
        CommCause::ViolationNeighborhood,
        CommCause::ViolationSafeZone,
        CommCause::ViolationFaulty,
        CommCause::FullSync,
        CommCause::LazySync,
        CommCause::Resync,
        CommCause::Rejoin,
        CommCause::Eviction,
        CommCause::Retransmit,
        CommCause::Recovery,
        CommCause::LeafReport,
        CommCause::RootSync,
        CommCause::ShardRebalance,
    ];

    /// Stable lowercase name used in trace events, ledger tables, and
    /// the `automon trace summarize` output.
    pub fn name(self) -> &'static str {
        match self {
            CommCause::Registration => "registration",
            CommCause::ViolationNeighborhood => "violation_neighborhood",
            CommCause::ViolationSafeZone => "violation_safezone",
            CommCause::ViolationFaulty => "violation_faulty",
            CommCause::FullSync => "full_sync",
            CommCause::LazySync => "lazy_sync",
            CommCause::Resync => "resync",
            CommCause::Rejoin => "rejoin",
            CommCause::Eviction => "eviction",
            CommCause::Retransmit => "retransmit",
            CommCause::Recovery => "recovery",
            CommCause::LeafReport => "leaf_report",
            CommCause::RootSync => "root_sync",
            CommCause::ShardRebalance => "shard_rebalance",
        }
    }

    /// Lift a flat-protocol cause to the root tier of a sharded fleet.
    ///
    /// The root coordinator runs the unmodified flat protocol over leaf
    /// partial-mean streams, so its machinery emits flat causes
    /// (`full_sync`, `violation_safezone`, …). Charging those names
    /// as-is would make them indistinguishable from intra-shard traffic
    /// in the merged two-tier ledger; this map folds them into the
    /// three inter-tier causes instead. Already-tiered causes map to
    /// themselves.
    pub fn at_root(self) -> CommCause {
        match self {
            CommCause::Registration
            | CommCause::ViolationNeighborhood
            | CommCause::ViolationSafeZone
            | CommCause::ViolationFaulty => CommCause::LeafReport,
            CommCause::Eviction | CommCause::Rejoin => CommCause::ShardRebalance,
            CommCause::LeafReport | CommCause::ShardRebalance => self,
            _ => CommCause::RootSync,
        }
    }

    /// Classify a node→coordinator message by its protocol content.
    /// `LocalVector` replies answer a coordinator pull, so their cause is
    /// the pull's — callers that know the eliciting request should prefer
    /// inheriting its cause and use this only for unsolicited messages.
    pub fn of_node_message(msg: &NodeMessage) -> CommCause {
        match msg {
            NodeMessage::Violation { kind, .. } => match kind {
                ViolationKind::Uninitialized => CommCause::Registration,
                ViolationKind::Neighborhood => CommCause::ViolationNeighborhood,
                ViolationKind::SafeZone => CommCause::ViolationSafeZone,
                ViolationKind::FaultyConstraints => CommCause::ViolationFaulty,
            },
            NodeMessage::LocalVector { .. } => CommCause::FullSync,
        }
    }
}

/// Message/byte tallies for one ledger cell or rollup, split by
/// direction (`up` = node→coordinator, `down` = coordinator→node).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LedgerCell {
    pub up_msgs: u64,
    pub up_bytes: u64,
    pub down_msgs: u64,
    pub down_bytes: u64,
}

impl LedgerCell {
    /// Messages in both directions.
    pub fn msgs(&self) -> u64 {
        self.up_msgs + self.down_msgs
    }

    /// Bytes in both directions.
    pub fn bytes(&self) -> u64 {
        self.up_bytes + self.down_bytes
    }

    fn absorb(&mut self, other: &LedgerCell) {
        self.up_msgs += other.up_msgs;
        self.up_bytes += other.up_bytes;
        self.down_msgs += other.down_msgs;
        self.down_bytes += other.down_bytes;
    }
}

/// Per-cause rollup row, pre-rendered for `RunStats` serialization.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LedgerEntry {
    /// [`CommCause::name`] of the row.
    pub cause: String,
    /// Messages in both directions.
    pub msgs: u64,
    /// Frame bytes in both directions.
    pub bytes: u64,
}

/// The communication ledger: frame tallies per cause.
///
/// One fixed cell per [`CommCause`], indexed by the cause itself, so a
/// charge is two adds on a cell that lives inline in its fabric: no heap
/// access, no search. Per-node and per-round detail is not kept here;
/// every charge point also emits a `comm` trace event carrying the node,
/// cause and bytes, and the trace clock stamps its round
/// (docs/OBSERVABILITY.md, "The communication ledger").
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CommLedger {
    cells: [LedgerCell; CommCause::ALL.len()],
}

impl CommLedger {
    /// Charge one node→coordinator frame of `bytes` to `cause`.
    pub fn charge_up(&mut self, cause: CommCause, bytes: u64) {
        let cell = &mut self.cells[cause as usize];
        cell.up_msgs += 1;
        cell.up_bytes += bytes;
    }

    /// Charge one coordinator→node frame of `bytes` to `cause`.
    pub fn charge_down(&mut self, cause: CommCause, bytes: u64) {
        let cell = &mut self.cells[cause as usize];
        cell.down_msgs += 1;
        cell.down_bytes += bytes;
    }

    /// Grand totals over every cause.
    pub fn totals(&self) -> LedgerCell {
        let mut t = LedgerCell::default();
        for cell in &self.cells {
            t.absorb(cell);
        }
        t
    }

    /// Rollup by cause, in `CommCause` order; a cause never charged has
    /// no entry.
    pub fn by_cause(&self) -> BTreeMap<CommCause, LedgerCell> {
        CommCause::ALL
            .into_iter()
            .zip(self.cells)
            .filter(|(_, cell)| cell.msgs() > 0)
            .collect()
    }

    /// The per-cause rollup as serializable [`LedgerEntry`] rows.
    pub fn entries(&self) -> Vec<LedgerEntry> {
        self.by_cause()
            .into_iter()
            .map(|(cause, cell)| LedgerEntry {
                cause: cause.name().to_string(),
                msgs: cell.msgs(),
                bytes: cell.bytes(),
            })
            .collect()
    }

    /// Fold another ledger's cells into this one, cause by cause.
    ///
    /// The fleet uses this to merge each leaf fabric's intra-shard
    /// ledger and the root fabric's inter-tier ledger into one two-tier
    /// ledger whose totals conserve against the fleet-wide frame
    /// counters.
    pub fn absorb_ledger(&mut self, other: &CommLedger) {
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            mine.absorb(theirs);
        }
    }

    /// Verify conservation against externally counted totals; returns a
    /// description of the first mismatch, `None` when exact.
    pub fn check_conservation(&self, total_msgs: u64, total_bytes: u64) -> Option<String> {
        let t = self.totals();
        if t.msgs() != total_msgs {
            return Some(format!(
                "ledger msgs {} != counter msgs {total_msgs}",
                t.msgs()
            ));
        }
        if t.bytes() != total_bytes {
            return Some(format!(
                "ledger bytes {} != counter bytes {total_bytes}",
                t.bytes()
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_aggregate_per_cause() {
        let mut l = CommLedger::default();
        l.charge_up(CommCause::Registration, 30);
        l.charge_up(CommCause::Registration, 30);
        l.charge_down(CommCause::FullSync, 100);
        l.charge_down(CommCause::LazySync, 50);

        let by_cause = l.by_cause();
        let reg = by_cause[&CommCause::Registration];
        assert_eq!((reg.up_msgs, reg.up_bytes), (2, 60));
        assert_eq!((reg.down_msgs, reg.down_bytes), (0, 0));
        assert_eq!(by_cause[&CommCause::FullSync].down_bytes, 100);
        assert_eq!(by_cause[&CommCause::LazySync].msgs(), 1);
        assert_eq!(by_cause.len(), 3, "uncharged causes have no entry");

        let totals = l.totals();
        assert_eq!(totals.msgs(), 4);
        assert_eq!(totals.bytes(), 210);

        assert_eq!(l.check_conservation(4, 210), None);
        assert!(l.check_conservation(5, 210).is_some());
        assert!(l.check_conservation(4, 211).is_some());
    }

    #[test]
    fn every_cause_indexes_its_own_cell() {
        for (i, c) in CommCause::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
    }

    #[test]
    fn entries_render_in_cause_order() {
        let mut l = CommLedger::default();
        l.charge_down(CommCause::Resync, 40);
        l.charge_up(CommCause::ViolationSafeZone, 25);
        let rows = l.entries();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cause, "violation_safezone");
        assert_eq!(rows[1].cause, "resync");
        assert_eq!(rows[1].bytes, 40);
    }

    #[test]
    fn node_messages_classify_by_violation_kind() {
        let v = |kind| NodeMessage::Violation {
            node: 0,
            kind,
            local_vector: vec![],
            epoch: 0,
        };
        assert_eq!(
            CommCause::of_node_message(&v(ViolationKind::Uninitialized)),
            CommCause::Registration
        );
        assert_eq!(
            CommCause::of_node_message(&v(ViolationKind::SafeZone)),
            CommCause::ViolationSafeZone
        );
        assert_eq!(
            CommCause::of_node_message(&v(ViolationKind::Neighborhood)),
            CommCause::ViolationNeighborhood
        );
        assert_eq!(
            CommCause::of_node_message(&v(ViolationKind::FaultyConstraints)),
            CommCause::ViolationFaulty
        );
        let reply = NodeMessage::LocalVector {
            node: 0,
            vector: vec![],
            epoch: 0,
        };
        assert_eq!(CommCause::of_node_message(&reply), CommCause::FullSync);
    }

    #[test]
    fn root_lift_folds_flat_causes_into_tier_causes() {
        use CommCause::*;
        for c in [
            Registration,
            ViolationNeighborhood,
            ViolationSafeZone,
            ViolationFaulty,
        ] {
            assert_eq!(c.at_root(), LeafReport);
        }
        for c in [Eviction, Rejoin] {
            assert_eq!(c.at_root(), ShardRebalance);
        }
        for c in [FullSync, LazySync, Resync, Retransmit, Recovery] {
            assert_eq!(c.at_root(), RootSync);
        }
        // Already-tiered causes are fixed points, so lifting is idempotent.
        for c in [LeafReport, RootSync, ShardRebalance] {
            assert_eq!(c.at_root(), c);
            assert_eq!(c.at_root().at_root(), c.at_root());
        }
    }

    #[test]
    fn absorb_ledger_adds_cells_and_conserves() {
        let mut a = CommLedger::default();
        a.charge_up(CommCause::Registration, 30);
        a.charge_down(CommCause::FullSync, 80);

        let mut b = CommLedger::default();
        // Colliding cause: charged in `a` too.
        b.charge_up(CommCause::Registration, 30);
        b.charge_up(CommCause::LeafReport, 44);
        b.charge_down(CommCause::RootSync, 90);

        let (ta, tb) = (a.totals(), b.totals());
        a.absorb_ledger(&b);
        assert_eq!(
            a.check_conservation(ta.msgs() + tb.msgs(), ta.bytes() + tb.bytes()),
            None
        );
        let by_cause = a.by_cause();
        let reg = by_cause[&CommCause::Registration];
        assert_eq!((reg.up_msgs, reg.up_bytes), (2, 60));
        assert_eq!(by_cause[&CommCause::LeafReport].up_bytes, 44);
    }
}
