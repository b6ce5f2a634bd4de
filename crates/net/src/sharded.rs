//! Shard-aware fabric for the hierarchical coordinator fleet.
//!
//! A [`ShardedFabric`] is one accounting surface over a two-tier
//! topology (DESIGN.md §3.14): each *leaf* shard gets its own
//! [`CountingFabric`] for intra-shard traffic, and a distinguished
//! *root* fabric carries the inter-tier traffic between leaf
//! coordinators and the root coordinator. The root fabric is built with
//! [`CommCause::at_root`] installed as its cause map, so the flat
//! protocol machinery the root tier reuses is charged under the
//! inter-tier causes (`leaf_report` / `root_sync` / `shard_rebalance`)
//! natively — the merged ledger needs no rewriting, and trace `comm`
//! events agree with the ledger by construction.
//!
//! Inter-tier frames are the [`TierMessage`] kinds from `automon-core`,
//! charged at [`wire::tier_message_len`], the exact length
//! [`wire::encode_tier_message_ctx`] gives them. A leaf's report
//! *replaces* the flat violation frame as the charged frame — the hop
//! is charged once, at the tier boundary, for the bytes that actually
//! cross it.

use automon_core::{CommCause, CommLedger, Coordinator, Node, NodeMessage, TierMessage};
use automon_obs::{SpanId, Telemetry, TraceCtx};

use crate::fabric::{CountingFabric, TrafficStats};
use crate::wire;

/// Per-tier fabrics of a sharded fleet, plus merged accounting views.
#[derive(Debug)]
pub struct ShardedFabric {
    leaves: Vec<CountingFabric>,
    root: CountingFabric,
}

impl ShardedFabric {
    /// A fresh fabric set for `shards` leaves. The root fabric carries
    /// the [`CommCause::at_root`] cause map from birth.
    pub fn new(shards: usize) -> Self {
        Self {
            leaves: (0..shards).map(|_| CountingFabric::new()).collect(),
            root: CountingFabric::new().with_cause_map(CommCause::at_root),
        }
    }

    /// Attach one telemetry handle to every tier's fabric; `comm`
    /// events carry the per-tier cause names, so the tiers stay
    /// separable in the trace.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.leaves = self
            .leaves
            .into_iter()
            .map(|f| f.with_telemetry(tel.clone()))
            .collect();
        self.root = self.root.with_telemetry(tel.clone());
        self
    }

    /// Number of leaf shards.
    pub fn shards(&self) -> usize {
        self.leaves.len()
    }

    /// Leaf shard `i`'s fabric.
    pub fn leaf(&mut self, i: usize) -> &mut CountingFabric {
        &mut self.leaves[i]
    }

    /// The inter-tier (root) fabric.
    pub fn root(&mut self) -> &mut CountingFabric {
        &mut self.root
    }

    /// The inter-tier (root) fabric, read-only.
    pub fn root_ref(&self) -> &CountingFabric {
        &self.root
    }

    /// Fleet-wide traffic totals: every leaf fabric plus the root
    /// fabric, summed field-wise.
    pub fn total_stats(&self) -> TrafficStats {
        let mut t = self.root.stats().clone();
        for f in &self.leaves {
            let s = f.stats();
            t.node_to_coord_msgs += s.node_to_coord_msgs;
            t.coord_to_node_msgs += s.coord_to_node_msgs;
            t.node_to_coord_payload += s.node_to_coord_payload;
            t.coord_to_node_payload += s.coord_to_node_payload;
        }
        t
    }

    /// The two-tier ledger: every leaf's intra-shard ledger and the
    /// root's inter-tier ledger folded into one. Leaf charges keep their
    /// flat causes; root charges carry only tier causes (the cause map
    /// guarantees it), so the two tiers stay separable by cause.
    pub fn combined_ledger(&self) -> CommLedger {
        let mut out = CommLedger::default();
        for f in &self.leaves {
            out.absorb_ledger(f.ledger());
        }
        out.absorb_ledger(self.root.ledger());
        out
    }

    /// Conservation across both tiers: the combined ledger's totals
    /// must equal the summed fabric counters exactly.
    pub fn check_conservation(&self) -> Option<String> {
        let t = self.total_stats();
        self.combined_ledger()
            .check_conservation(t.total_msgs() as u64, t.total_payload() as u64)
    }

    /// Deliver a leaf's report to the root coordinator and run the
    /// ensuing root-tier exchange to quiescence.
    ///
    /// The [`TierMessage::LeafReport`] frame is what crosses the tier
    /// boundary, so *its* bytes are charged (cause classified from the
    /// violation kind, then lifted to `leaf_report` by the root cause
    /// map) — not a flat violation's. The report is restated as the
    /// equivalent [`NodeMessage::Violation`] and handed to the root
    /// coordinator, whose cascade (pulls, replies, installs) then flows
    /// through the root fabric's ordinary charge points under the
    /// `root_sync` cause.
    pub fn route_leaf_report(
        &mut self,
        root_coord: &mut Coordinator,
        proxies: &mut [Node],
        report: &TierMessage,
        span: SpanId,
    ) {
        let TierMessage::LeafReport {
            leaf,
            kind,
            partial,
            epoch,
            ..
        } = report
        else {
            panic!("route_leaf_report takes a LeafReport");
        };
        let violation = NodeMessage::Violation {
            node: *leaf,
            kind: *kind,
            local_vector: partial.clone(),
            epoch: *epoch,
        };
        let cause = CommCause::of_node_message(&violation);
        self.root
            .account_up(*leaf, cause, wire::tier_message_len(report), span);
        let outs = root_coord.handle_with_context(violation, TraceCtx::new(span, *epoch));
        self.root.route_outbounds(root_coord, proxies, outs);
    }

    /// Charge a root→leaf rebalance directive on the inter-tier fabric.
    pub fn send_rebalance(&mut self, directive: &TierMessage, span: SpanId) {
        debug_assert!(matches!(directive, TierMessage::Rebalance { .. }));
        let len = wire::tier_message_len(directive);
        self.root
            .account_down(directive.leaf(), CommCause::ShardRebalance, len, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::{MonitorConfig, MonitoredFunction, ViolationKind};
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
    fn leaf_reports_charge_tier_causes_and_conserve() {
        let f = f();
        let mut root = Coordinator::new(f.clone(), 2, MonitorConfig::builder(0.5).build());
        let mut proxies = vec![Node::new(0, f.clone()), Node::new(1, f.clone())];
        let mut fab = ShardedFabric::new(2);

        for leaf in 0..2usize {
            let m = proxies[leaf].update_data(vec![leaf as f64 * 0.1]);
            let kind = match m {
                Some(NodeMessage::Violation { kind, .. }) => kind,
                _ => ViolationKind::Uninitialized,
            };
            let report = TierMessage::LeafReport {
                leaf,
                kind,
                partial: vec![leaf as f64 * 0.1],
                weight: 5,
                epoch: 0,
            };
            fab.route_leaf_report(&mut root, &mut proxies, &report, SpanId::NONE);
        }

        // Registration reports lift to leaf_report; the full-sync
        // installs the root pushed back lift to root_sync. Nothing on
        // the root fabric may carry a flat cause.
        let by_cause = fab.root_ref().ledger().by_cause();
        assert!(by_cause[&CommCause::LeafReport].up_msgs >= 2);
        assert!(by_cause[&CommCause::RootSync].down_msgs >= 2);
        for cause in by_cause.keys() {
            assert_eq!(cause.at_root(), *cause, "flat cause {cause:?} on root fabric");
        }
        assert_eq!(fab.check_conservation(), None);
    }

    #[test]
    fn rebalance_directives_charge_shard_rebalance() {
        let mut fab = ShardedFabric::new(1);
        let directive = TierMessage::Rebalance {
            leaf: 0,
            adopted: vec![7, 8],
            epoch: 3,
        };
        fab.send_rebalance(&directive, SpanId::NONE);
        let by_cause = fab.root_ref().ledger().by_cause();
        assert_eq!(by_cause[&CommCause::ShardRebalance].down_msgs, 1);
        assert_eq!(
            by_cause[&CommCause::ShardRebalance].down_bytes,
            wire::encode_tier_message(&directive).len() as u64
        );
        assert_eq!(fab.check_conservation(), None);
    }
}
