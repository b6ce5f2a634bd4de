//! Algorithm 2 scores a candidate radius by replaying the stream prefix
//! through `core::tuning::replay`, a delivery loop of its own (core cannot
//! depend on this crate). The radius it picks is only as good as that loop
//! is faithful, so under the same `Fixed(r)` configuration `replay` and the
//! round driver must count the same protocol.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::tuning::replay;
use automon_core::{MonitorConfig, MonitoredFunction, NeighborhoodMode};
use automon_data::air_quality::{self, AirQualityParams};
use automon_data::synthetic::RozenbrockDataset;
use automon_data::windowed_mean_series;
use automon_functions::{KlDivergence, Rozenbrock};
use automon_sim::{Simulation, Workload};

#[test]
fn replay_counts_what_the_round_driver_runs() {
    // `automon simulate --function {rozenbrock,kld} --nodes 6 --rounds 200`.
    let (nodes, rounds, eps) = (6, 200, 0.05);
    let rozenbrock = windowed_mean_series(&RozenbrockDataset::generate(nodes, rounds + 19, 1), 20);
    let streams = air_quality::generate(&AirQualityParams {
        sites: nodes,
        hours: rounds + 199,
        seed: 1,
    });
    let kld = air_quality::kld_series(&streams, 200, 10);
    let cases: [(&str, Arc<dyn MonitoredFunction>, _, [f64; 3]); 2] = [
        (
            "rozenbrock",
            Arc::new(AutoDiffFn::new(Rozenbrock)),
            rozenbrock,
            [0.01, 0.04, 0.2],
        ),
        (
            "kld",
            Arc::new(AutoDiffFn::new(KlDivergence::new(20, 1.0 / 2400.0))),
            kld,
            [0.01, 0.03, 0.1],
        ),
    ];
    for (name, f, series, radii) in cases {
        let workload = Workload::from_dense(&series);
        for r in radii {
            let cfg = MonitorConfig::builder(eps)
                .neighborhood(NeighborhoodMode::Fixed(r))
                .build();
            let replayed = replay(&f, &series, r, &cfg);
            let run = Simulation::new(f.clone(), cfg).run(&workload);
            assert!(run.lazy_syncs > 0 && run.full_syncs > 1, "{name} r={r}");
            assert_eq!(
                (
                    replayed.messages,
                    replayed.neighborhood,
                    replayed.safezone,
                    replayed.full_syncs,
                    replayed.lazy_syncs,
                ),
                (
                    run.messages,
                    run.neighborhood_violations,
                    run.safezone_violations,
                    run.full_syncs,
                    run.lazy_syncs,
                ),
                "{name} r={r}: (messages, neighbourhood, safe-zone, full, lazy)"
            );
        }
    }
}
