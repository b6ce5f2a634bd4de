//! Conservation of the communication ledger (DESIGN.md §3.12): the
//! fabric charges the ledger at exactly the points where it bumps its
//! traffic counters, so the per-cause rollup must sum to the
//! `RunStats` message and byte totals *exactly* — on a plain run and
//! under chaos, where dropped and swallowed frames are deliberately
//! uncharged on both sides of the equation.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_chaos::{FaultPlan, RecoveryConfig};
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_functions::InnerProduct;
use automon_sim::{RunStats, Simulation, Workload};
use proptest::prelude::*;

fn setup(seed: u64) -> (Arc<dyn MonitoredFunction>, Workload) {
    let (nodes, rounds, dim) = (4, 60, 4);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, seed);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(dim)));
    (f, w)
}

/// Ledger rows must sum to the flat counters, exactly.
fn assert_conserved(stats: &RunStats) {
    let rows = stats.ledger.as_deref().expect("runners always attach a ledger");
    let msgs: u64 = rows.iter().map(|r| r.msgs).sum();
    let bytes: u64 = rows.iter().map(|r| r.bytes).sum();
    assert_eq!(msgs as usize, stats.messages, "ledger msgs drifted: {rows:?}");
    assert_eq!(
        bytes as usize, stats.payload_bytes,
        "ledger bytes drifted: {rows:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation holds on a plain run, and a repeat run charges the
    /// identical rollup.
    #[test]
    fn plain_run_conserves(seed in 0u64..500) {
        let (f, w) = setup(seed);
        let run = || Simulation::new(f.clone(), MonitorConfig::builder(0.2).build()).run(&w);
        let reference = run();
        assert_conserved(&reference);
        prop_assert_eq!(&reference.ledger, &run().ledger);
    }

    /// Conservation holds under injected faults: drops, duplicates,
    /// delays, a crash/restart arc, and a partition. Suppressed frames
    /// are uncharged on both the counter and the ledger side.
    #[test]
    fn chaos_run_conserves_under_faults(
        seed in 0u64..200,
        drop_rate in 0.0f64..0.15,
        dup_rate in 0.0f64..0.05,
    ) {
        let (f, w) = setup(seed);
        let plan = FaultPlan::seeded(seed ^ 0xBEEF)
            .with_drop_rate(drop_rate)
            .with_duplicate_rate(dup_rate)
            .with_delay(0.03, 2)
            .with_crash(2, 20, Some(40))
            .with_partition(vec![1], 10, 18);
        let report = Simulation::new(f, MonitorConfig::builder(0.3).build())
            .with_plan(plan)
            .with_recovery(RecoveryConfig { retransmit_after: 2, evict_after: 3 })
            .run_report(&w);
        prop_assert!(report.quiesced);
        assert_conserved(&report.stats);
    }
}

/// The fault-tolerance causes actually show up as separable ledger rows.
/// A lossy run charges `retransmit`; a drop-free crash arc charges
/// `eviction` and `rejoin` (drop-free because a dropped or
/// failed-delivery frame is uncharged by design, and the rejoin
/// re-registration is a single frame).
#[test]
fn recovery_traffic_is_charged_to_recovery_causes() {
    let recovery = RecoveryConfig {
        retransmit_after: 2,
        evict_after: 3,
    };

    let (f, w) = setup(7);
    let plan = FaultPlan::seeded(7).with_drop_rate(0.15);
    let report = Simulation::new(f, MonitorConfig::builder(0.3).build())
        .with_plan(plan)
        .with_recovery(recovery)
        .run_report(&w);
    assert!(report.quiesced, "{:?}", report.stats);
    assert_conserved(&report.stats);
    let rows = report.stats.ledger.as_deref().unwrap();
    assert!(report.stats.retransmits > 0, "{:?}", report.stats);
    assert!(
        rows.iter().any(|r| r.cause == "retransmit" && r.msgs > 0),
        "{rows:?}"
    );

    let (f, w) = setup(7);
    let plan = FaultPlan::seeded(7).with_crash(2, 20, Some(45));
    let report = Simulation::new(f, MonitorConfig::builder(0.3).build())
        .with_plan(plan)
        .with_recovery(recovery)
        .run_report(&w);
    assert!(report.quiesced, "{:?}", report.stats);
    assert_conserved(&report.stats);
    let rows = report.stats.ledger.as_deref().unwrap();
    let has = |cause: &str| rows.iter().any(|r| r.cause == cause && r.msgs > 0);
    assert!(report.stats.evictions > 0, "{:?}", report.stats);
    assert!(has("eviction"), "{rows:?}");
    assert!(report.stats.rejoins > 0, "{:?}", report.stats);
    assert!(has("rejoin"), "{rows:?}");
    assert!(has("registration"), "{rows:?}");
}

/// Quiet data: the whole run is registration plus the initial full sync,
/// and the ledger says exactly that.
#[test]
fn quiet_run_ledger_is_registration_plus_full_sync() {
    let series: Vec<Vec<Vec<f64>>> =
        (0..4).map(|_| vec![vec![1.0, 2.0, 3.0, 4.0]; 50]).collect();
    let w = Workload::from_dense(&series);
    let stats = Simulation::new(
        Arc::new(AutoDiffFn::new(InnerProduct::new(4))),
        MonitorConfig::builder(0.1).build(),
    )
    .run(&w);
    assert_conserved(&stats);
    let rows = stats.ledger.as_deref().unwrap();
    let causes: Vec<&str> = rows.iter().map(|r| r.cause.as_str()).collect();
    assert_eq!(causes, vec!["registration", "full_sync"], "{rows:?}");
    let reg = rows.iter().find(|r| r.cause == "registration").unwrap();
    assert_eq!(reg.msgs, 4, "one registration per node: {rows:?}");
}
