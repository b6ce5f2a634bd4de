//! KL-divergence monitoring over multi-site air-quality streams
//! (paper §4.2's KLD workload, with the simulated Beijing substitute).
//!
//! Twelve monitoring sites stream hourly PM10/PM2.5 readings; each site's
//! local vector packs two sliding-window histograms `[p, q]`, and the
//! coordinator maintains `D_KL(P‖Q)` of the *aggregate* distribution to
//! within ε. KLD is jointly convex, so AutoMon's deterministic error
//! guarantee applies — the example asserts it.
//!
//! Run with: `cargo run --release --example air_quality_kld`

use automon::data::air_quality::{generate, kld_series, AirQualityParams};
use automon::prelude::*;
use automon::sim::{run_centralization, run_periodic, Workload};
use std::sync::Arc;

fn main() {
    let params = AirQualityParams {
        sites: 12,
        hours: 1500,
        seed: 0xBE11,
    };
    let window = 200;
    let bins = 10; // d = 2 · bins = 20, the paper's default

    println!("generating {} sites × {} hours of simulated pollutant data…", params.sites, params.hours);
    let streams = generate(&params);
    let series = kld_series(&streams, window, bins);
    let workload = Workload::from_dense(&series);

    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(
        KlDivergence::with_paper_tau(2 * bins, params.sites, window),
    ));

    let epsilon = 0.1;
    println!("monitoring KLD over {} rounds (ε = {epsilon})…", workload.rounds());
    let cfg = MonitorConfig::builder(epsilon).build();

    // Tune the neighborhood size on the first ~1.5% of the data, as the
    // paper does for real datasets.
    let tuning_rounds = (workload.rounds() / 66).max(20);
    let r = Simulation::new(f.clone(), cfg.clone())
        .tune_r(&workload.prefix(tuning_rounds))
        .r;
    println!("  tuned neighborhood size r̂ = {r:.4}");

    let stats = Simulation::new(f.clone(), cfg.with_r(r)).run(&workload);
    let central = run_centralization(&f, &workload);
    let periodic = run_periodic(&f, &workload, 20);

    println!("results:");
    println!("  AutoMon messages    : {}", stats.messages);
    println!("  Centralization msgs : {}", central.messages);
    println!("  Periodic(20) msgs   : {}", periodic.messages);
    println!("  AutoMon max error   : {:.4}  (bound {epsilon})", stats.max_error);
    println!("  Periodic(20) error  : {:.4}", periodic.max_error);
    println!(
        "  payload: AutoMon {:.1} KiB vs centralization {:.1} KiB",
        stats.payload_bytes as f64 / 1024.0,
        central.payload_bytes as f64 / 1024.0
    );

    // KLD is convex → the §3.7 guarantee must hold.
    assert!(
        stats.max_error <= epsilon + 1e-9,
        "convexity guarantee violated: {} > {epsilon}",
        stats.max_error
    );
    println!("deterministic ε-guarantee held (KLD is convex).");
}
