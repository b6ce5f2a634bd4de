//! The round driver under a fault plan: seeded replay, convergence
//! through drops/crashes/partitions, the crash→evict→restart→rejoin arc,
//! and the recovery regressions that motivated the current backoff and
//! re-registration rules.

use std::collections::BTreeMap;
use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_chaos::{FaultEvent, FaultKind, FaultPlan};
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_functions::InnerProduct;
use automon_sim::{RecoveryConfig, RunReport, Simulation, Workload};

/// Linear mean of a 2-vector: ADCD-E is exact, so the ε-guarantee is
/// tight at quiescence — the right probe for recovery correctness.
struct Mean2;
impl ScalarFn for Mean2 {
    fn dim(&self) -> usize {
        2
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        (x[0] + x[1]) * S::from_f64(0.5)
    }
}

fn drifting_workload(n: usize, rounds: usize) -> Workload {
    let series: Vec<Vec<Vec<f64>>> = (0..n)
        .map(|i| {
            (0..rounds)
                .map(|t| {
                    let phase = t as f64 * 0.11 + i as f64;
                    vec![phase.sin() * 2.0, (phase * 0.7).cos() * 2.0]
                })
                .collect()
        })
        .collect();
    Workload::from_dense(&series)
}

fn noisy_plan() -> FaultPlan {
    FaultPlan::seeded(0xFEED)
        .with_drop_rate(0.10)
        .with_duplicate_rate(0.04)
        .with_reorder_rate(0.04)
        .with_delay(0.04, 2)
        .with_crash(2, 40, Some(70))
        .with_partition(vec![1], 20, 28)
}

/// Mean2 under ε = 0.4 and an eager recovery policy.
fn run_eager(plan: FaultPlan, w: &Workload) -> RunReport {
    Simulation::new(
        Arc::new(AutoDiffFn::new(Mean2)),
        MonitorConfig::builder(0.4).build(),
    )
    .with_plan(plan)
    .with_recovery(RecoveryConfig {
        retransmit_after: 2,
        evict_after: 3,
    })
    .run_report(w)
}

/// Inner product (d = 4) on the paper's synthetic data, default —
/// patient — recovery policy.
fn run_patient(plan: FaultPlan, rounds: usize, eps: f64) -> RunReport {
    let (nodes, dim) = (4, 4);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, 1);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(dim)));
    Simulation::new(f, MonitorConfig::builder(eps).build())
        .with_plan(plan)
        .run_report(&w)
}

/// Same seed ⇒ bit-identical fault trace and final statistics across two
/// independent runs.
#[test]
fn same_seed_is_bit_identical() {
    let w = drifting_workload(4, 110);
    let a = run_eager(noisy_plan(), &w);
    let b = run_eager(noisy_plan(), &w);
    assert!(!a.fault_trace.is_empty());
    assert_eq!(a.fault_trace, b.fault_trace, "fault trace must replay");
    assert_eq!(a.stats, b.stats, "stats must replay");
    assert_eq!(a.quiesced, b.quiesced);
}

#[test]
fn different_seed_diverges() {
    let w = drifting_workload(4, 110);
    let a = run_eager(noisy_plan(), &w);
    let b = run_eager(
        FaultPlan {
            seed: 0xBEEF,
            ..noisy_plan()
        },
        &w,
    );
    assert_ne!(a.fault_trace, b.fault_trace);
}

/// 10% frame drop plus a mid-run crash and rejoin still converges to
/// |f(x0) − f(x̄)| ≤ ε at quiescence, and never deadlocks.
#[test]
fn drop_crash_rejoin_converges_within_epsilon() {
    let eps = 0.4;
    let report = run_eager(noisy_plan(), &drifting_workload(4, 110));
    assert!(report.quiesced, "protocol deadlocked: {:?}", report.stats);
    assert!(
        report.stats.final_error <= eps + 1e-9,
        "error at quiescence {} > ε {eps}",
        report.stats.final_error
    );
    assert!(
        report.stats.max_error <= eps + 1e-9,
        "quiescent-round error {} escaped ε {eps} (missed {} rounds)",
        report.stats.max_error,
        report.stats.missed_violation_rounds
    );
    assert!(report.stats.injected_faults > 0);
    assert!(report.stats.retransmits > 0, "drops must force retransmits");
    assert!(
        report.stats.max_error_during_partition > 0.0,
        "degraded rounds should be observed"
    );
}

/// The crash→evict→restart→rejoin arc actually exercises the membership
/// machinery, not just the frame faults.
#[test]
fn crash_is_evicted_then_rejoins() {
    let plan = FaultPlan::seeded(7).with_crash(2, 30, Some(75));
    let report = run_eager(plan, &drifting_workload(4, 110));
    assert!(report.quiesced);
    assert!(
        report.stats.evictions >= 1,
        "dead node never evicted: {:?}",
        report.stats
    );
    assert!(
        report.stats.rejoins >= 1,
        "restarted node never rejoined: {:?}",
        report.stats
    );
    assert!(report.stats.final_error <= 0.4 + 1e-9);
}

/// Regression: a node that restarted without being evicted used to
/// receive `NewConstraintsCached` (the coordinator still believed it
/// held curvature), so its fresh incarnation re-registered forever and
/// the run deadlocked. The default — patient — recovery config is
/// exactly the regime where eviction never fires, which is what exposed
/// the loop.
#[test]
fn patient_recovery_still_converges_after_restart() {
    let plan = FaultPlan::seeded(7)
        .with_drop_rate(0.1)
        .with_crash(2, 30, Some(60))
        .with_partition(vec![1], 10, 20);
    let report = run_patient(plan, 90, 0.3);
    assert!(report.quiesced, "re-registration loop: {:?}", report.stats);
    assert!(report.stats.final_error <= 0.3 + 1e-9, "{:?}", report.stats);
    assert_eq!(
        report.stats.evictions, 0,
        "patience should outlast the crash"
    );
}

/// Regression: a node that crashes for good used to take
/// Σ 2ᵏ·retransmit_after rounds to strike out, because strikes only
/// accrued on coordinator retransmits and those backed off
/// exponentially — eviction outlasted the drain cap and the run was
/// reported as a deadlock. Delivery failures are synchronous send
/// errors, so the coordinator now fast-retries at the base interval
/// while they persist; a dead node must be evicted and the run must
/// quiesce with the survivors.
#[test]
fn permanent_crash_is_evicted_and_quiesces() {
    let plan = FaultPlan::seeded(3)
        .with_drop_rate(0.15)
        .with_crash(1, 40, None);
    let report = run_patient(plan, 120, 0.5);
    assert!(report.quiesced, "eviction too slow: {:?}", report.stats);
    assert_eq!(report.stats.evictions, 1, "{:?}", report.stats);
    assert_eq!(report.stats.rejoins, 0);
    assert!(report.stats.final_error <= 0.5 + 1e-9, "{:?}", report.stats);
}

/// Every fault kind the fabric injects, named as `FaultKind`'s `Debug`
/// without a delay's round count, with how often it fired.
fn kind_counts(trace: &[FaultEvent]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for e in trace {
        let name = match e.kind {
            FaultKind::Delay { .. } => "Delay".to_string(),
            kind => format!("{kind:?}"),
        };
        *counts.entry(name).or_default() += 1;
    }
    counts
}

/// What the fabric's whole ladder does, not only that it replays: drops,
/// duplicates, reorders and delays next to two node crashes with
/// restarts, a partition and two coordinator crashes. Moving when a
/// delayed frame matures, where a duplicate's copy or a reordered frame
/// queues, or which frame draws a verdict changes a number pinned here.
/// The values are this run's from when the fabric kept its own delay map
/// and re-injection flag.
#[test]
fn every_fabric_fault_and_two_coordinator_crashes_pin_the_run() {
    let plan = FaultPlan::seeded(2)
        .with_drop_rate(0.05)
        .with_duplicate_rate(0.08)
        .with_reorder_rate(0.1)
        .with_delay(0.2, 3)
        .with_crash(2, 30, Some(60))
        .with_crash(4, 50, Some(90))
        .with_partition(vec![1], 10, 20)
        .with_coordinator_crash(45)
        .with_coordinator_crash(100);
    let r = run_eager(plan, &drifting_workload(6, 150));
    assert!(r.quiesced, "the run must drain");
    let s = &r.stats;
    assert_eq!((s.messages, s.payload_bytes), (748, 33144));
    assert_eq!((s.retransmits, s.injected_faults), (100, 342));
    assert_eq!((s.full_syncs, s.lazy_syncs), (12, 81));
    assert_eq!(s.coordinator_recoveries, 2);
    let want: BTreeMap<String, usize> = [
        ("CoordinatorCrash", 2),
        ("Crash", 2),
        ("Delay", 143),
        ("Drop", 37),
        ("Duplicate", 51),
        ("NodeDown", 6),
        ("PartitionDrop", 6),
        ("Reorder", 93),
        ("Restart", 2),
    ]
    .into_iter()
    .map(|(k, n)| (k.to_string(), n))
    .collect();
    assert_eq!(kind_counts(&r.fault_trace), want);
}
