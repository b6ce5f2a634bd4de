//! The fleet counts its ε breaches the way the flat runner does.
//!
//! Two shard-heterogeneous workloads, 8 streams in 2 round-robin shards,
//! each a direction along which `f` is flat at one shard's own mean but
//! steep at the global mean, so a leaf that bounds `f` of its shard never
//! syncs while the global value moves (ROADMAP 19):
//! - inner product, `f = x₀x₁`: shard 0's streams start at (0, 0) and
//!   drift along x₀ by 0.01 a round, shard 1's sit at (0, 10);
//! - variance, `f = x₁ − x₀²` over streams `[s, s²]`: shard 0's sit at
//!   s = 3 and drift by +0.002 a round, shard 1's sit at s = −3.
//!
//! The flat runs stay inside ε; the fleet runs do not. Every run must
//! count a missed violation exactly when its error left ε, so the fleet's
//! breach stays pinned as counted. That the fleet's error stays inside ε
//! waits for the fix (ROADMAP 19(b)), which inverts the last assertion.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_fleet::FleetConfig;
use automon_functions::{InnerProduct, Variance};
use automon_sim::{FleetSimulation, RunStats, Simulation, Workload};

const STREAMS: usize = 8;
const SHARDS: usize = 2;
const ROUNDS: usize = 300;
const EPSILON: f64 = 0.5;

/// Stream `g`'s vector at round `t`, by its shard.
type Input = fn(shard: usize, t: f64) -> Vec<f64>;

fn inner_product(shard: usize, t: f64) -> Vec<f64> {
    match shard {
        0 => vec![0.01 * t, 0.0],
        _ => vec![0.0, 10.0],
    }
}

fn variance(shard: usize, t: f64) -> Vec<f64> {
    let s = match shard {
        0 => 3.0 + 0.002 * t,
        _ => -3.0,
    };
    vec![s, s * s]
}

fn workload(input: Input) -> Workload {
    let series: Vec<Vec<Vec<f64>>> = (0..STREAMS)
        .map(|g| (0..ROUNDS).map(|t| input(g % SHARDS, t as f64)).collect())
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
    let cases: [(&str, Arc<dyn MonitoredFunction>, Input); 2] = [
        (
            "inner product",
            Arc::new(AutoDiffFn::new(InnerProduct::new(2))),
            inner_product,
        ),
        ("variance", Arc::new(AutoDiffFn::new(Variance)), variance),
    ];
    let cfg = MonitorConfig::builder(EPSILON).build();
    for (name, f, input) in cases {
        let w = workload(input);
        let flat = Simulation::new(f.clone(), cfg.clone()).run(&w);
        let fleet = FleetSimulation::new(f, cfg.clone(), FleetConfig::new(SHARDS)).run(&w);
        assert_eq!(fleet.updates, STREAMS * ROUNDS);
        assert_breaches_counted(&format!("{name}, flat"), &flat);
        assert_breaches_counted(&format!("{name}, fleet"), &fleet.stats);
        assert_eq!(flat.missed_violation_rounds, 0, "{name}: {flat:?}");
        assert!(
            fleet.stats.missed_violation_rounds > 0,
            "{name}: {:?}",
            fleet.stats
        );
    }
}
