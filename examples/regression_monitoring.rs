//! Monitoring a least-squares model over distributed streams
//! (the paper's §6 "function rewriting" direction, following the
//! least-squares monitoring line of work it cites).
//!
//! Each node observes `(x, y)` pairs whose underlying linear relation
//! drifts over time. Nodes summarize their window as the *augmented
//! moment vector* `[mean x, mean y, mean x², mean xy]`; the across-node
//! average of those vectors is the global moment vector, from which the
//! regression slope is an ordinary (non-convex!) function that AutoMon
//! monitors automatically.
//!
//! Run with: `cargo run --release --example regression_monitoring`

use automon::data::regression::{drifting_slope_streams, moment_series};
use automon::functions::RegressionSlope;
use automon::prelude::*;
use automon::sim::{run_centralization, run_periodic, Workload};
use std::sync::Arc;

fn main() {
    let nodes = 8;
    let rounds = 1500;
    let window = 150;

    println!("generating {nodes} drifting (x, y) streams…");
    let streams = drifting_slope_streams(nodes, rounds, 0x51073);
    let series = moment_series(&streams, window);
    let workload = Workload::from_dense(&series);

    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(RegressionSlope::default()));
    let epsilon = 0.05;
    println!(
        "monitoring the regression slope over {} rounds (ε = {epsilon})…",
        workload.rounds()
    );
    let cfg = MonitorConfig::builder(epsilon).build();

    // The slope's curvature is wildly position-dependent (ridge-damped
    // rational function), so Algorithm 2's neighborhood tuning matters.
    let r = Simulation::new(f.clone(), cfg.clone())
        .tune_r(&workload.prefix(200))
        .r;
    println!("  tuned neighborhood size r̂ = {r:.3}");
    let stats = Simulation::new(f.clone(), cfg.with_r(r)).run(&workload);

    let central = run_centralization(&f, &workload);
    let periodic = run_periodic(&f, &workload, 25);

    println!("results:");
    println!(
        "  AutoMon        : {:>6} msgs, max error {:.4}",
        stats.messages, stats.max_error
    );
    println!(
        "  Periodic(25)   : {:>6} msgs, max error {:.4}",
        periodic.messages, periodic.max_error
    );
    println!(
        "  Centralization : {:>6} msgs, max error {:.4}",
        central.messages, central.max_error
    );
    println!(
        "  full/lazy syncs: {}/{}; the slope drifted ≈0.8 over the run",
        stats.full_syncs, stats.lazy_syncs
    );
    assert!(
        stats.messages < central.messages,
        "moment-vector monitoring should beat centralizing moments"
    );
    assert!(stats.max_error <= 3.0 * epsilon, "{stats:?}");
}
