//! Fleet determinism and conservation contracts (DESIGN §3.14).
//!
//! A fleet run is a deterministic function of (workload, config, fault
//! plan): the round loop is sequential, accounting sections are
//! ordered, shard routing hashes are pinned — so the full report
//! (errors, per-tier message split, combined ledger), the telemetry
//! trace, and the metrics exposition must be *byte-identical* across
//! repeated runs, with and without a membership-fault schedule. The
//! combined two-tier ledger must conserve the fleet's traffic totals in
//! every case.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_chaos::FaultPlan;
use automon_fleet::FleetConfig;
use automon_functions::InnerProduct;
use automon_obs::Telemetry;
use automon_sim::{FleetReport, FleetSimulation, Workload};

const STREAMS: usize = 12;
const SHARDS: usize = 4;

fn setup() -> (Arc<dyn MonitoredFunction>, MonitorConfig, Workload) {
    let (rounds, dim, seed) = (60, 4, 11);
    let raw = InnerProductDataset::generate(STREAMS, rounds + 19, dim, seed);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(dim)));
    let cfg = MonitorConfig::builder(0.3).build();
    (f, cfg, w)
}

fn faults() -> FaultPlan {
    FaultPlan::none()
        .with_crash(3, 10, Some(25))
        .with_crash(7, 15, None)
        .with_leaf_crash(1, 30)
}

fn run(plan: Option<FaultPlan>) -> (FleetReport, String, String) {
    let (f, cfg, w) = setup();
    let tel = Telemetry::enabled();
    let mut sim =
        FleetSimulation::new(f, cfg, FleetConfig::new(SHARDS)).with_telemetry(tel.clone());
    if let Some(plan) = plan {
        sim = sim.with_plan(plan);
    }
    let report = sim.run(&w);
    (report, tel.trace_jsonl(), tel.prometheus())
}

fn report_json(report: &FleetReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

#[test]
fn plain_fleet_run_is_byte_identical() {
    let (ra, ta, ma) = run(None);
    let (rb, tb, mb) = run(None);
    assert!(!ta.is_empty(), "instrumented run must emit events");
    assert_eq!(report_json(&ra), report_json(&rb));
    assert_eq!(ta, tb);
    assert_eq!(ma, mb);
}

#[test]
fn faulted_fleet_run_is_byte_identical() {
    let (ra, ta, ma) = run(Some(faults()));
    let (rb, tb, mb) = run(Some(faults()));
    assert_eq!(ra.node_crashes, 2);
    assert_eq!(ra.leaf_crashes, 1);
    assert_eq!(ra.rebalances, 1);
    assert_eq!(ra.restarts, 1);
    assert_eq!(report_json(&ra), report_json(&rb));
    assert_eq!(ta, tb);
    assert_eq!(ma, mb);
}

#[test]
fn combined_ledger_conserves_two_tier_totals() {
    for plan in [None, Some(faults())] {
        let (report, _, _) = run(plan.clone());
        let entries = report.stats.ledger.as_deref().expect("ledger recorded");
        let msgs: u64 = entries.iter().map(|e| e.msgs).sum();
        let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        assert_eq!(
            msgs,
            report.stats.messages as u64,
            "Σ per-cause msgs == grand total (plan: {})",
            plan.is_some()
        );
        assert_eq!(
            bytes,
            report.stats.payload_bytes as u64,
            "Σ per-cause bytes == grand total (plan: {})",
            plan.is_some()
        );
        assert_eq!(
            report.leaf_messages + report.root_messages,
            report.stats.messages,
            "tier split partitions the total"
        );
    }
}

#[test]
fn root_tier_carries_only_tier_causes_and_stays_sublinear() {
    let (report, _, _) = run(None);
    assert!(report.leaf_reports > 0, "drifting data must reach the root");
    assert!(
        report.root_messages < report.leaf_messages,
        "root tier ({}) must carry less than the leaf tiers ({})",
        report.root_messages,
        report.leaf_messages
    );
    let entries = report.stats.ledger.as_deref().expect("ledger recorded");
    let tier_causes = ["leaf_report", "root_sync", "shard_rebalance"];
    let tier_msgs: u64 = entries
        .iter()
        .filter(|e| tier_causes.contains(&e.cause.as_str()))
        .map(|e| e.msgs)
        .sum();
    assert_eq!(
        tier_msgs, report.root_messages as u64,
        "every root-fabric message is charged to a tier cause"
    );
}
