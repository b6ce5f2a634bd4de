//! Integration tests for the §5/§6 extension features: sketch
//! monitoring, augmented-vector regression, and the hybrid Periodic
//! fallback, plus a convex KLD run held within ε.

use automon::data::regression::{drifting_slope_streams, moment_series};
use automon::data::sketch::AmsSketch;
use automon::functions::{F2FromSketch, RegressionSlope};
use automon::prelude::*;
use automon::sim::{run_centralization, HybridConfig, Workload};
use std::sync::Arc;

#[test]
fn sketched_f2_monitoring_respects_multiplicative_bound() {
    // Windowed AMS sketches per node; F₂ query is a quadratic form ⇒
    // ADCD-E ⇒ deterministic guarantee on the sketch estimate.
    let n = 4;
    let width = 16;
    let seed = 0x51;
    let mut sketches: Vec<AmsSketch> = (0..n).map(|_| AmsSketch::new(width, seed)).collect();
    let mut windows: Vec<std::collections::VecDeque<u64>> =
        (0..n).map(|_| std::collections::VecDeque::new()).collect();
    let mut series: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n];
    for t in 0..600usize {
        for (i, sk) in sketches.iter_mut().enumerate() {
            let item = ((t / 150) + (t * 7 + i * 13) % 5) as u64;
            sk.update(item, 1.0);
            windows[i].push_back(item);
            if windows[i].len() > 50 {
                let old = windows[i].pop_front().unwrap();
                sk.update(old, -1.0);
            }
            if windows[i].len() == 50 {
                series[i].push(sk.vector().to_vec());
            }
        }
    }
    let w = Workload::from_dense(&series);
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(F2FromSketch::new(width)));
    let eps = 0.15;
    let cfg = MonitorConfig::builder(eps).multiplicative().build();
    let stats = Simulation::new(f.clone(), cfg).run(&w);
    assert_eq!(stats.missed_violation_rounds, 0, "{stats:?}");
    assert!(stats.messages < run_centralization(&f, &w).messages);
}

#[test]
fn regression_slope_monitoring_tracks_drift() {
    // Augmented moment vectors (paper §6's rewriting direction): the
    // slope is a non-convex function of the averaged moments; ADCD-X
    // with the sanity check must keep the estimate near the truth.
    let streams = drifting_slope_streams(5, 800, 0x9);
    let series = moment_series(&streams, 100);
    let w = Workload::from_dense(&series);
    let f: Arc<dyn MonitoredFunction> =
        Arc::new(AutoDiffFn::new(RegressionSlope::default()));
    let eps = 0.1;
    // The slope's curvature explodes near the ridge-regularized
    // denominator, so the neighborhood size matters enormously here —
    // run Algorithm 2 on a prefix exactly as the paper prescribes.
    let cfg = MonitorConfig::builder(eps).build();
    let r = Simulation::new(f.clone(), cfg.clone()).tune_r(&w.prefix(150)).r;
    let stats = Simulation::new(f.clone(), cfg.with_r(r)).run(&w);
    // The slope drifts from ~1.0 to ~1.8; the monitor must track it
    // within a small multiple of ε (no guarantee class, sanity-checked).
    assert!(stats.max_error <= 3.0 * eps, "{stats:?}");
    assert!(stats.full_syncs >= 2, "drift must force re-syncs: {stats:?}");
    let central = run_centralization(&f, &w);
    assert!(stats.messages < central.messages, "{stats:?}");
}

#[test]
fn kld_monitoring_stays_within_epsilon() {
    // KLD is convex: the default run must honor the convexity guarantee.
    let bins = 3;
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(KlDivergence::new(
        2 * bins,
        1e-2,
    )));
    let series: Vec<Vec<Vec<f64>>> = (0..3)
        .map(|i| {
            (0..200)
                .map(|t| {
                    let wgt = 0.4 + 0.3 * ((t as f64 / 40.0) + i as f64).sin();
                    vec![
                        wgt / 2.0,
                        (1.0 - wgt) / 2.0,
                        0.5,
                        1.0 / 3.0,
                        1.0 / 3.0,
                        1.0 / 3.0,
                    ]
                })
                .collect()
        })
        .collect();
    let w = Workload::from_dense(&series);
    let eps = 0.1;
    let stats = Simulation::new(f, MonitorConfig::builder(eps).build()).run(&w);
    assert!(stats.max_error <= eps + 1e-9, "{stats:?}");
}

#[test]
fn hybrid_caps_communication_under_thrashing() {
    // Violent quadratic data with a tight bound: the hybrid must fall
    // back at least once and spend fewer messages than plain AutoMon.
    let raw = automon::data::synthetic::QuadraticDataset::generate(4, 400, 6, 0xAB);
    let series = automon::data::windowed_mean_series(&raw, 5);
    let w = Workload::from_dense(&series);
    let f: Arc<dyn MonitoredFunction> =
        Arc::new(AutoDiffFn::new(QuadraticForm::random(6, 3)));
    let eps = 0.01;
    let plain =
        Simulation::new(f.clone(), MonitorConfig::builder(eps).build()).run(&w);
    let hybrid = Simulation::new(f.clone(), MonitorConfig::builder(eps).build()).run_hybrid(
        &w,
        HybridConfig {
            switch_threshold: 0.6,
            rate_window: 15,
            period: 1,
            cooldown: 80,
        },
    );
    assert!(hybrid.fallbacks >= 1, "{hybrid:?}");
    assert!(
        hybrid.run.messages < plain.messages,
        "hybrid {} vs plain {}",
        hybrid.run.messages,
        plain.messages
    );
    // With period-1 fallback the estimate stays exact during fallback.
    assert!(hybrid.run.max_error <= plain.max_error + eps, "{hybrid:?}");
}

#[test]
fn cosine_similarity_monitoring_end_to_end() {
    // Two vector populations rotating relative to each other: cosine
    // similarity drifts from ~1 toward ~0.5; AutoMon must track it.
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(
        automon::functions::CosineSimilarity::new(4, 1e-6),
    ));
    let series: Vec<Vec<Vec<f64>>> = (0..4)
        .map(|i| {
            (0..300)
                .map(|t| {
                    let theta = t as f64 / 300.0 + i as f64 * 0.01;
                    vec![1.0, 0.0, theta.cos(), theta.sin()]
                })
                .collect()
        })
        .collect();
    let w = Workload::from_dense(&series);
    let eps = 0.1;
    let cfg = MonitorConfig::builder(eps).build();
    let r = Simulation::new(f.clone(), cfg.clone()).tune_r(&w.prefix(60)).r;
    let stats = Simulation::new(f.clone(), cfg.with_r(r)).run(&w);
    assert!(stats.max_error <= 3.0 * eps, "{stats:?}");
    assert!(
        stats.messages < run_centralization(&f, &w).messages,
        "{stats:?}"
    );
}

#[test]
fn pearson_correlation_monitoring_end_to_end() {
    // Moment vectors whose correlation decays from ~1 to ~0.
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(
        automon::functions::PearsonCorrelation::default(),
    ));
    let series: Vec<Vec<Vec<f64>>> = (0..3)
        .map(|i| {
            (0..300)
                .map(|t| {
                    // var x = var y = 1; cov decays linearly.
                    let rho: f64 = 1.0 - t as f64 / 300.0 + i as f64 * 1e-3;
                    vec![0.0, 0.0, 1.0, 1.0, rho.clamp(-1.0, 1.0)]
                })
                .collect()
        })
        .collect();
    let w = Workload::from_dense(&series);
    let eps = 0.1;
    let cfg = MonitorConfig::builder(eps).build();
    let r = Simulation::new(f.clone(), cfg.clone()).tune_r(&w.prefix(60)).r;
    let stats = Simulation::new(f.clone(), cfg.with_r(r)).run(&w);
    assert!(stats.max_error <= 3.0 * eps, "{stats:?}");
    assert!(stats.full_syncs >= 2, "the drift must force re-syncs: {stats:?}");
}
