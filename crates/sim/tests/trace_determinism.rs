//! The telemetry determinism contract (DESIGN §3.9): trace events are
//! recorded only from sequential control flow on logical clocks, so two
//! runs with the same seed emit byte-identical JSONL — including under
//! chaos, where fault injection is itself seeded. Metrics rendering is
//! sorted, so the exposition text replays too.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_chaos::FaultPlan;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::{InnerProductDataset, RozenbrockDataset};
use automon_data::windowed_mean_series;
use automon_functions::{InnerProduct, Rozenbrock};
use automon_obs::Telemetry;
use automon_sim::{RunReport, Simulation, Workload};

type Setup = fn() -> (Arc<dyn MonitoredFunction>, MonitorConfig, Workload);

fn setup() -> (Arc<dyn MonitoredFunction>, MonitorConfig, Workload) {
    let (nodes, rounds, dim, seed) = (4, 100, 4, 7);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, seed);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(dim)));
    (f, MonitorConfig::builder(0.2).build(), w)
}

/// Rozenbrock: a non-constant Hessian, so every full sync runs ADCD-X
/// (inner product's constant Hessian decomposes once, through ADCD-E).
fn rozenbrock_setup() -> (Arc<dyn MonitoredFunction>, MonitorConfig, Workload) {
    let raw = RozenbrockDataset::generate(4, 140, 21);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Rozenbrock));
    (f, MonitorConfig::builder(0.2).build(), w)
}

fn noisy_plan() -> FaultPlan {
    FaultPlan::seeded(0xC0FFEE)
        .with_drop_rate(0.08)
        .with_duplicate_rate(0.03)
        .with_delay(0.03, 2)
        .with_crash(2, 30, Some(60))
        .with_partition(vec![1], 15, 25)
}

fn plain_run() -> (String, String) {
    let (f, cfg, w) = setup();
    let tel = Telemetry::enabled();
    Simulation::new(f, cfg)
        .with_telemetry(tel.clone())
        .run(&w);
    (tel.trace_jsonl(), tel.prometheus())
}

fn chaos_run(setup: Setup) -> (RunReport, String, String) {
    let (f, cfg, w) = setup();
    let tel = Telemetry::enabled();
    let report = Simulation::new(f, cfg)
        .with_plan(noisy_plan())
        .with_telemetry(tel.clone())
        .run_report(&w);
    (report, tel.trace_jsonl(), tel.prometheus())
}

#[test]
fn plain_trace_is_byte_identical_across_runs() {
    let (trace_a, metrics_a) = plain_run();
    let (trace_b, metrics_b) = plain_run();
    assert!(!trace_a.is_empty(), "instrumented run must emit events");
    assert_eq!(trace_a, trace_b);
    assert_eq!(metrics_a, metrics_b);
}

#[test]
fn chaos_trace_is_byte_identical_across_runs() {
    for setup in [setup as Setup, rozenbrock_setup] {
        let (report_a, trace_a, metrics_a) = chaos_run(setup);
        let (report_b, trace_b, metrics_b) = chaos_run(setup);
        assert!(
            trace_a.lines().any(|l| l.contains("\"kind\":\"fault\"")),
            "chaos run must record injected faults"
        );
        assert_eq!(report_a.stats, report_b.stats);
        assert_eq!(report_a.fault_trace, report_b.fault_trace);
        assert_eq!(trace_a, trace_b);
        assert_eq!(metrics_a, metrics_b);
    }
}

#[test]
fn trace_sequence_is_gap_free_and_rounds_monotone() {
    let (_, trace, _) = chaos_run(setup);
    let mut last_round = 0u64;
    for (i, line) in trace.lines().enumerate() {
        let seq_field = format!("\"seq\":{i},");
        assert!(line.starts_with('{') && line.contains(&seq_field), "{line}");
        let round: u64 = line
            .split("\"round\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("round field");
        assert!(round >= last_round, "rounds must be non-decreasing: {line}");
        last_round = round;
    }
}
