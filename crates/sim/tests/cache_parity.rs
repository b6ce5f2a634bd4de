//! The decomposition-cache bit-identity contract (DESIGN §3.11): with
//! `warm_start` off (the default), enabling the cache — under any of
//! the three eviction policies — must leave the monitoring output
//! bit-identical to a cache-off run. Exact hits replay stored
//! decompositions whose inputs matched bitwise, so the protocol cannot
//! observe the cache at all.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_chaos::FaultPlan;
use automon_core::{CachePolicy, DecompCacheConfig, MonitorConfig, MonitoredFunction};
use automon_data::synthetic::{InnerProductDataset, RozenbrockDataset};
use automon_data::windowed_mean_series;
use automon_functions::{InnerProduct, Rozenbrock};
use automon_obs::Telemetry;
use automon_sim::{Simulation, Workload};

const POLICIES: [CachePolicy; 3] = [CachePolicy::LruK, CachePolicy::Slru, CachePolicy::Arc];

/// Rozenbrock: non-constant Hessian, so full syncs run ADCD-X and the
/// cache sits on the hot path.
fn rozenbrock_setup() -> (Arc<dyn MonitoredFunction>, Workload) {
    let raw = RozenbrockDataset::generate(4, 140, 21);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Rozenbrock));
    (f, w)
}

/// Inner product: constant Hessian (ADCD-E), so the cache must be a
/// pure bystander on this path too.
fn inner_product_setup() -> (Arc<dyn MonitoredFunction>, Workload) {
    let raw = InnerProductDataset::generate(4, 120, 4, 42);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(4)));
    (f, w)
}

fn cfg_with(policy: Option<CachePolicy>) -> MonitorConfig {
    let b = MonitorConfig::builder(0.2);
    match policy {
        Some(p) => b.decomp_cache(DecompCacheConfig::with_policy(p)).build(),
        None => b.build(),
    }
}

#[test]
fn cache_on_matches_cache_off_on_section_4_2_functions() {
    type Setup = fn() -> (Arc<dyn MonitoredFunction>, Workload);
    for (name, setup) in [
        ("rozenbrock", rozenbrock_setup as Setup),
        ("inner-product", inner_product_setup as Setup),
    ] {
        let (f, w) = setup();
        let baseline = Simulation::new(f.clone(), cfg_with(None)).run(&w);
        assert!(baseline.full_syncs > 0, "{name}: workload must sync");
        for policy in POLICIES {
            let cached = Simulation::new(f.clone(), cfg_with(Some(policy))).run(&w);
            assert_eq!(cached, baseline, "{name} with {policy:?} diverged");
        }
    }
}

#[test]
fn chaos_run_with_cache_is_byte_identical_under_fixed_seed() {
    let plan = || {
        FaultPlan::seeded(0xC0FFEE)
            .with_drop_rate(0.08)
            .with_duplicate_rate(0.03)
            .with_delay(0.03, 2)
            .with_crash(2, 30, Some(60))
            .with_partition(vec![1], 15, 25)
    };
    let run = || {
        let (f, w) = rozenbrock_setup();
        let cfg = cfg_with(Some(CachePolicy::Arc));
        let tel = Telemetry::enabled();
        let report = Simulation::new(f, cfg)
            .with_plan(plan())
            .with_telemetry(tel.clone())
            .run_report(&w);
        (report, tel.trace_jsonl(), tel.prometheus())
    };
    let (report_a, trace_a, metrics_a) = run();
    let (report_b, trace_b, metrics_b) = run();
    assert!(!trace_a.is_empty(), "instrumented run must emit events");
    assert_eq!(report_a.stats, report_b.stats);
    assert_eq!(report_a.fault_trace, report_b.fault_trace);
    assert_eq!(trace_a, trace_b);
    assert_eq!(metrics_a, metrics_b);
}

#[test]
fn chaos_with_cache_matches_chaos_without_cache() {
    let (f, w) = rozenbrock_setup();
    let plain = Simulation::new(f.clone(), cfg_with(None))
        .with_plan(FaultPlan::none())
        .run_report(&w);
    let cached = Simulation::new(f, cfg_with(Some(CachePolicy::Slru)))
        .with_plan(FaultPlan::none())
        .run_report(&w);
    assert_eq!(cached, plain);
}
