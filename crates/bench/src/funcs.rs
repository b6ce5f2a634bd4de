//! Shared builders: the evaluation's functions paired with their datasets
//! (paper §4.2), at configurable scale.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::MonitoredFunction;
use automon_data::air_quality::{self, AirQualityParams};
use automon_data::intrusion::{IntrusionDataset, IntrusionParams, FEATURES, NODES};
use automon_data::synthetic::{
    InnerProductDataset, MlpDataset, QuadraticDataset, RozenbrockDataset, SaddleDriftDataset,
};
use automon_data::{windowed_mean_series, SlidingWindow};
use automon_functions::{
    train_mlp_d, InnerProduct, IntrusionDnnSpec, KlDivergence, MlpFunction, QuadraticForm,
    Rozenbrock, SaddleQuadratic,
};
use automon_nn::{train, Loss, TrainOptions};
use automon_sim::Workload;

/// Mean sliding-window length for the synthetic datasets (paper §4.2).
pub const MEAN_WINDOW: usize = 20;

/// Histogram window length for KLD (paper §4.2).
pub const KLD_WINDOW: usize = 200;

/// A monitored function together with its workload.
pub struct Bench {
    /// Short label used in tables.
    pub name: String,
    /// The monitored function.
    pub f: Arc<dyn MonitoredFunction>,
    /// The update schedule.
    pub workload: Workload,
}

/// Inner Product on its phase-scheduled synthetic data (§4.2).
pub fn inner_product(d: usize, n: usize, rounds: usize, seed: u64) -> Bench {
    let raw = InnerProductDataset::generate(n, rounds + MEAN_WINDOW - 1, d, seed);
    let series = windowed_mean_series(&raw, MEAN_WINDOW);
    Bench {
        name: format!("InnerProduct(d={d})"),
        f: Arc::new(AutoDiffFn::new(InnerProduct::new(d))),
        workload: Workload::from_dense(&series),
    }
}

/// Quadratic Form with the alternating outlier node (§4.2).
pub fn quadratic(d: usize, n: usize, rounds: usize, seed: u64) -> Bench {
    let raw = QuadraticDataset::generate(n, rounds + MEAN_WINDOW - 1, d, seed);
    let series = windowed_mean_series(&raw, MEAN_WINDOW);
    Bench {
        name: format!("Quadratic(d={d})"),
        f: Arc::new(AutoDiffFn::new(QuadraticForm::random(d, seed ^ 0x9A))),
        workload: Workload::from_dense(&series),
    }
}

/// KLD over the simulated air-quality archive (§4.2; `d = 2 · bins`).
pub fn kld(d: usize, n: usize, rounds: usize, seed: u64) -> Bench {
    assert!(d.is_multiple_of(2), "kld: even dimension required");
    let bins = d / 2;
    let params = AirQualityParams {
        sites: n,
        hours: rounds + KLD_WINDOW - 1,
        seed,
    };
    let streams = air_quality::generate(&params);
    let series = air_quality::kld_series(&streams, KLD_WINDOW, bins);
    Bench {
        name: format!("KLD(d={d})"),
        f: Arc::new(AutoDiffFn::new(KlDivergence::with_paper_tau(
            d, n, KLD_WINDOW,
        ))),
        workload: Workload::from_dense(&series),
    }
}

/// MLP-d: the tanh network trained on `x₁·exp(-Σx²/(d-1))`, over the
/// drifting synthetic data with outliers (§4.2).
pub fn mlp_d(d: usize, n: usize, rounds: usize, seed: u64) -> Bench {
    let raw = MlpDataset::generate(n, rounds + MEAN_WINDOW - 1, d, seed);
    let series = windowed_mean_series(&raw, MEAN_WINDOW);
    Bench {
        name: format!("MLP-{d}"),
        f: Arc::new(AutoDiffFn::new(train_mlp_d(d, seed ^ 0x3D))),
        workload: Workload::from_dense(&series),
    }
}

/// The DNN intrusion-detection pipeline: simulated records, trained
/// detector, event-driven workload (§4.2). `records` controls the stream
/// length (the paper streams 311,029).
pub fn dnn_intrusion(records: usize, seed: u64) -> Bench {
    let params = IntrusionParams {
        records,
        attack_fraction: 0.2,
        seed,
    };
    let dataset = IntrusionDataset::generate(&params);
    let (xs, ys) = IntrusionDataset::training_set(&params, 1500.min(records));
    let mut net = IntrusionDnnSpec::scaled().build(seed ^ 0xD);
    train(
        &mut net,
        &xs,
        &ys,
        &TrainOptions {
            epochs: 5,
            lr: 1e-3,
            batch_size: 32,
            loss: Loss::Bce,
            seed,
            ..Default::default()
        },
    );
    let mut windows: Vec<SlidingWindow> = (0..NODES)
        .map(|_| SlidingWindow::new(MEAN_WINDOW, FEATURES))
        .collect();
    let mut events = Vec::new();
    for (node, rec) in &dataset.events {
        windows[*node].push(rec.features.clone());
        if windows[*node].is_full() {
            events.push((*node, windows[*node].mean().expect("full window")));
        }
    }
    Bench {
        name: "DNN".to_string(),
        f: Arc::new(AutoDiffFn::new(MlpFunction::new(net))),
        workload: Workload::from_events(NODES, &events),
    }
}

/// Rozenbrock on N(0, 0.2²) inputs (§3.6, §4.5).
pub fn rozenbrock(n: usize, rounds: usize, seed: u64) -> Bench {
    let raw = RozenbrockDataset::generate(n, rounds + MEAN_WINDOW - 1, seed);
    let series = windowed_mean_series(&raw, MEAN_WINDOW);
    Bench {
        name: "Rozenbrock".to_string(),
        f: Arc::new(AutoDiffFn::new(Rozenbrock)),
        workload: Workload::from_dense(&series),
    }
}

/// The §4.6 ablation function and its four-node drift script.
pub fn saddle(rounds: usize, seed: u64) -> Bench {
    let raw = SaddleDriftDataset::generate(rounds, seed);
    Bench {
        name: "-x1^2+x2^2".to_string(),
        f: Arc::new(AutoDiffFn::new(SaddleQuadratic)),
        workload: Workload::from_dense(&raw),
    }
}

/// Run AutoMon over a bench the way the paper runs every experiment:
/// with Algorithm 2 neighborhood tuning on a stream prefix (§4.1: "In
/// all the experiments, we use AutoMon with Algorithm 2 for
/// neighborhood-size tuning"). Constant-Hessian functions skip tuning —
/// ADCD-E has no neighborhood.
pub fn run_tuned(bench: &Bench, cfg: automon_core::MonitorConfig) -> automon_sim::RunStats {
    use automon_sim::Simulation;
    let cfg = if bench.f.has_constant_hessian() {
        cfg
    } else {
        let prefix_rounds = (bench.workload.rounds() / 20).clamp(50, 300);
        let prefix = bench.workload.prefix(prefix_rounds);
        let r = Simulation::new(bench.f.clone(), cfg.clone()).tune_r(&prefix).r;
        cfg.with_r(r)
    };
    Simulation::new(bench.f.clone(), cfg).run(&bench.workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_consistent_shapes() {
        let b = inner_product(4, 3, 50, 1);
        assert_eq!(b.workload.nodes(), 3);
        assert_eq!(b.workload.dim(), 4);
        assert_eq!(b.workload.rounds(), 50);
        assert_eq!(b.f.dim(), 4);

        let b = kld(8, 2, 30, 2);
        assert_eq!(b.workload.dim(), 8);
        assert_eq!(b.workload.rounds(), 30);

        let b = saddle(40, 3);
        assert_eq!(b.workload.nodes(), 4);
    }

    #[test]
    fn dnn_builder_produces_events() {
        let b = dnn_intrusion(400, 5);
        assert_eq!(b.workload.nodes(), NODES);
        assert!(b.workload.rounds() > 0);
        assert_eq!(b.f.dim(), FEATURES);
    }
}
