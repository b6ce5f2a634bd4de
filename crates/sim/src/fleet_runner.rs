//! The two-tier fleet simulation runner (DESIGN.md §3.14).

use std::sync::Arc;

use automon_chaos::{Executor, FaultPlan, PlanPart, TimedFault};
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_fleet::{compose, Fleet, FleetConfig};
use automon_obs::Telemetry;
use serde::Serialize;

use crate::runner::ERROR_BOUNDS;
use crate::stats::RunStats;
use crate::workload::Workload;

/// Aggregated results of one fleet run: the flat [`RunStats`] surface
/// (errors, totals, combined two-tier ledger) plus the per-tier split
/// the hierarchy exists to improve.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FleetReport {
    /// Shards (leaf coordinators) the fleet started with.
    pub shards: usize,
    /// Global streams the fleet started with.
    pub streams: usize,
    /// Data updates pushed through the hierarchy.
    pub updates: usize,
    /// Messages on the root tier only (leaf↔root traffic) — the
    /// volume that must stay sublinear in the stream count.
    pub root_messages: usize,
    /// Payload bytes on the root tier only.
    pub root_payload_bytes: usize,
    /// Messages inside the leaf tiers (intra-shard traffic).
    pub leaf_messages: usize,
    /// Payload bytes inside the leaf tiers.
    pub leaf_payload_bytes: usize,
    /// Leaf→root reports (tier-boundary crossings).
    pub leaf_reports: u64,
    /// Shard rebalances after leaf crashes.
    pub rebalances: u64,
    /// Node crashes applied from the fault plan.
    pub node_crashes: u64,
    /// Node restarts applied from the fault plan.
    pub restarts: u64,
    /// Leaf crashes applied from the fault plan.
    pub leaf_crashes: u64,
    /// Flat run surface: errors, grand totals (`messages`,
    /// `payload_bytes` = both tiers), coordinator counters summed over
    /// every leaf, and the *combined* two-tier per-cause ledger.
    pub stats: RunStats,
}

/// What the fleet runner executes of a plan: membership faults only (no
/// frame gate sits between the tiers, and neither tier has a store to
/// recover a coordinator from).
const FLEET: Executor = Executor {
    name: "fleet",
    runs: &[PlanPart::NodeCrashes, PlanPart::LeafCrashes],
};

/// Apply the membership faults `plan` schedules for `round`.
fn apply_timed_faults(fleet: &mut Fleet, plan: &FaultPlan, round: usize) {
    for fault in plan.timed_at(round) {
        match fault {
            TimedFault::NodeCrash(g) => fleet.crash_node(g),
            TimedFault::NodeRestart(g) => fleet.restart_node(g),
            TimedFault::LeafCrash(l) => fleet.crash_leaf(l),
            TimedFault::CoordinatorCrash => unreachable!("refused by `check_plan`"),
        }
    }
}

/// A configured fleet simulation: the flat harness's round loop, but
/// updates route into per-shard leaf coordinators and only resolved
/// shard-aggregate movement crosses to the root.
pub struct FleetSimulation {
    f: Arc<dyn MonitoredFunction>,
    cfg: MonitorConfig,
    fleet_cfg: FleetConfig,
    plan: FaultPlan,
    telemetry: Telemetry,
}

impl FleetSimulation {
    /// A fleet simulation of `f` under `cfg`, sharded per `fleet_cfg`.
    pub fn new(f: Arc<dyn MonitoredFunction>, cfg: MonitorConfig, fleet_cfg: FleetConfig) -> Self {
        Self {
            f,
            cfg,
            fleet_cfg,
            plan: FaultPlan::none(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Apply `plan`'s node crashes/restarts (`node` is a global stream
    /// id) and leaf crashes each round. A run panics on a plan that
    /// [`FleetSimulation::check_plan`] refuses.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// `Err` with the refusal when the plan uses a part the fleet does not
    /// run, or is invalid for `streams` streams over this fleet's shards.
    pub fn check_plan(&self, streams: usize) -> Result<(), String> {
        FLEET.admit(&self.plan, streams, self.fleet_cfg.shards)
    }

    /// Thread an observability handle through both tiers. The round
    /// loop is sequential, so same workload + config + plan ⇒
    /// byte-identical trace.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.telemetry = tel;
        self
    }

    /// Run the workload to completion.
    pub fn run(&self, workload: &Workload) -> FleetReport {
        let n = workload.nodes();
        self.check_plan(n)
            .unwrap_or_else(|refusal| panic!("{refusal}"));
        let mut fleet = Fleet::new(self.f.clone(), n, self.cfg.clone(), self.fleet_cfg.clone())
            .with_telemetry(self.telemetry.clone());

        let g_estimate = self
            .telemetry
            .gauge("automon_fleet_estimate", "Root-side f(x0) this round");
        let g_truth = self
            .telemetry
            .gauge("automon_fleet_truth", "True f(global mean) this round");
        let h_error = self.telemetry.histogram(
            "automon_fleet_abs_error",
            "Per-round |root estimate - truth|",
            ERROR_BOUNDS,
        );

        let mut current: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut errors = Vec::new();
        let mut updates = 0usize;

        for t in 0..workload.rounds() {
            self.telemetry.set_round(t as u64);
            fleet.set_round(t as u64);
            apply_timed_faults(&mut fleet, &self.plan, t);
            for (node, x) in workload.updates(t) {
                if !fleet.stream_is_alive(*node) {
                    continue;
                }
                current[*node] = Some(x.clone());
                updates += 1;
                fleet.update(*node, x.clone());
            }

            let (estimate, truth) = (fleet.estimate(), self.canonical_truth(&fleet, &current));
            if let (Some(est), Some(truth)) = (estimate, truth) {
                errors.push((est - truth).abs());
                g_estimate.set(est);
                g_truth.set(truth);
                h_error.observe((est - truth).abs());
                if self.telemetry.is_enabled() {
                    self.telemetry.event(
                        "round",
                        &[
                            ("truth", truth.into()),
                            ("estimate", est.into()),
                            (
                                "root_messages",
                                fleet.fabric().root_ref().stats().total_msgs().into(),
                            ),
                            ("messages", fleet.fabric().total_stats().total_msgs().into()),
                        ],
                    );
                }
            }
        }

        if self.telemetry.is_enabled() {
            self.telemetry.event(
                "run_info",
                &[
                    ("nodes", n.into()),
                    ("shards", fleet.shards().into()),
                    ("rounds", workload.rounds().into()),
                    ("updates", updates.into()),
                ],
            );
        }

        debug_assert_eq!(
            fleet.fabric().check_conservation(),
            None,
            "two-tier ledger must conserve fleet traffic totals"
        );

        let total = fleet.fabric().total_stats();
        let root = fleet.fabric().root_ref().stats().clone();
        let st = fleet.leaf_stats_total();
        let ev = fleet.events().clone();
        let mut stats = RunStats {
            messages: total.total_msgs(),
            payload_bytes: total.total_payload(),
            neighborhood_violations: st.neighborhood_violations,
            safezone_violations: st.safezone_violations,
            faulty_reports: st.faulty_reports,
            full_syncs: st.full_syncs,
            lazy_syncs: st.lazy_syncs,
            evictions: st.evictions,
            rejoins: st.rejoins,
            ledger: Some(fleet.fabric().combined_ledger().entries()),
            ..RunStats::default()
        };
        stats.set_errors(errors);
        FleetReport {
            shards: fleet.shards(),
            streams: n,
            updates,
            root_messages: root.total_msgs(),
            root_payload_bytes: root.total_payload(),
            leaf_messages: total.total_msgs() - root.total_msgs(),
            leaf_payload_bytes: total.total_payload() - root.total_payload(),
            leaf_reports: ev.leaf_reports,
            rebalances: ev.rebalances,
            node_crashes: ev.node_crashes,
            restarts: ev.restarts,
            leaf_crashes: ev.leaf_crashes,
            stats,
        }
    }

    /// `f` of the alive population's mean under the fleet's canonical
    /// shard-major summation order — the truth series a flat run must
    /// follow to agree with the fleet bitwise. `None` until every alive
    /// stream has reported at least one vector.
    fn canonical_truth(&self, fleet: &Fleet, current: &[Option<Vec<f64>>]) -> Option<f64> {
        let map = fleet.shard_map();
        let d = current.iter().flatten().next()?.len();
        let mut partials = Vec::new();
        for s in 0..map.shards() {
            if !fleet.leaf_is_alive(s) {
                continue;
            }
            let alive: Vec<usize> = map
                .members(s)
                .iter()
                .copied()
                .filter(|&g| fleet.stream_is_alive(g))
                .collect();
            if alive.is_empty() {
                continue;
            }
            if alive.iter().any(|&g| current[g].is_none()) {
                return None;
            }
            let sum = compose::shard_partial_sum(
                alive.iter().map(|&g| current[g].as_deref().expect("checked")),
                d,
            );
            partials.push((sum, alive.len() as u64));
        }
        if partials.is_empty() {
            return None;
        }
        Some(self.f.eval(&compose::compose_global_mean(&partials)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::AutoDiffFn;
    use automon_core::NeighborhoodMode;
    use automon_functions::InnerProduct;

    #[test]
    fn timed_faults_apply_in_order() {
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(2)));
        let cfg = MonitorConfig::builder(0.5)
            .neighborhood(NeighborhoodMode::Fixed(1.0))
            .build();
        let mut fl = Fleet::new(f, 6, cfg, FleetConfig::new(3));
        for g in 0..6 {
            fl.update(g, vec![0.1 * g as f64, 0.2]);
        }
        let plan = FaultPlan::none()
            .with_crash(0, 1, Some(2))
            .with_leaf_crash(2, 2);
        apply_timed_faults(&mut fl, &plan, 1);
        assert!(!fl.stream_is_alive(0));
        apply_timed_faults(&mut fl, &plan, 2);
        assert!(fl.stream_is_alive(0));
        assert!(!fl.leaf_is_alive(2));
        assert_eq!(fl.fabric().check_conservation(), None);
    }
}
