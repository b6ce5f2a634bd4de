//! The fleet counts its ε breaches the way the flat runner does.
//!
//! The workload is a shard-heterogeneous inner product (`f = x₀x₁`,
//! 8 streams in 2 round-robin shards): shard 0's streams start at (0, 0)
//! and drift along x₀ by 0.01 a round, shard 1's sit at (0, 10). `f` is
//! flat along x₀ at shard 0's own mean but steep at the global mean, so a
//! leaf that bounds `f` of its shard never syncs while the global value
//! moves. The flat run stays inside ε; the fleet does not (ROADMAP 19).
//! Both runs must count a missed violation exactly when their error left
//! ε. That the fleet's error stays inside ε waits for the fix.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_fleet::FleetConfig;
use automon_functions::InnerProduct;
use automon_sim::{FleetSimulation, RunStats, Simulation, Workload};

const STREAMS: usize = 8;
const SHARDS: usize = 2;
const ROUNDS: usize = 300;
const EPSILON: f64 = 0.5;

fn workload() -> Workload {
    let series: Vec<Vec<Vec<f64>>> = (0..STREAMS)
        .map(|g| {
            (0..ROUNDS)
                .map(|t| match g % SHARDS {
                    0 => vec![0.01 * t as f64, 0.0],
                    _ => vec![0.0, 10.0],
                })
                .collect()
        })
        .collect();
    Workload::from_dense(&series)
}

/// `max_error > ε` exactly when the run counted a missed violation.
fn assert_breaches_counted(run: &str, stats: &RunStats) {
    assert_eq!(
        stats.max_error > EPSILON,
        stats.missed_violation_rounds > 0,
        "{run}: max_error {} against {} missed rounds",
        stats.max_error,
        stats.missed_violation_rounds
    );
}

#[test]
fn flat_and_fleet_count_a_breach_exactly_when_the_error_leaves_epsilon() {
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(2)));
    let cfg = MonitorConfig::builder(EPSILON).build();
    let w = workload();
    let flat = Simulation::new(f.clone(), cfg.clone()).run(&w);
    let fleet = FleetSimulation::new(f, cfg, FleetConfig::new(SHARDS)).run(&w);
    assert_eq!(fleet.updates, STREAMS * ROUNDS);
    assert_breaches_counted("flat", &flat);
    assert_breaches_counted("fleet", &fleet.stats);
    assert_eq!(flat.missed_violation_rounds, 0, "{flat:?}");
}
