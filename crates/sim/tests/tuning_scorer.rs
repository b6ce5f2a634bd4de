//! Algorithm 2 is only as good as its scorer is faithful to what later
//! runs. `Simulation::tune_r` scores a candidate radius by running the round
//! driver itself over the prefix under the caller's configuration, so the
//! counts in its grid are, by construction, the counts of the run that
//! configuration gives — on any workload shape, in any neighborhood mode —
//! and tuning leaves no mark on the tuned run's trace.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::tuning::ReplayCounts;
use automon_core::{MonitorConfig, MonitoredFunction, NeighborhoodMode};
use automon_data::air_quality::{self, AirQualityParams};
use automon_data::synthetic::RozenbrockDataset;
use automon_data::windowed_mean_series;
use automon_functions::{KlDivergence, Rozenbrock};
use automon_obs::Telemetry;
use automon_sim::{RunStats, Simulation, Workload};

const NODES: usize = 6;
const EPSILON: f64 = 0.05;

/// `automon simulate --function rozenbrock --nodes 6 --rounds 200`'s streams.
fn rozenbrock() -> (Arc<dyn MonitoredFunction>, Vec<Vec<Vec<f64>>>) {
    let series = windowed_mean_series(&RozenbrockDataset::generate(NODES, 219, 1), 20);
    (Arc::new(AutoDiffFn::new(Rozenbrock)), series)
}

/// `automon simulate --function kld --nodes 6 --rounds 200`'s streams.
fn kld() -> (Arc<dyn MonitoredFunction>, Vec<Vec<Vec<f64>>>) {
    let streams = air_quality::generate(&AirQualityParams {
        sites: NODES,
        hours: 399,
        seed: 1,
    });
    let f = KlDivergence::new(20, 1.0 / 2400.0);
    (
        Arc::new(AutoDiffFn::new(f)),
        air_quality::kld_series(&streams, 200, 10),
    )
}

fn fixed(r: f64) -> MonitorConfig {
    MonitorConfig::builder(EPSILON)
        .neighborhood(NeighborhoodMode::Fixed(r))
        .build()
}

fn counts(run: &RunStats) -> ReplayCounts {
    ReplayCounts {
        neighborhood: run.neighborhood_violations,
        safezone: run.safezone_violations,
        faulty: run.faulty_reports,
        full_syncs: run.full_syncs,
        lazy_syncs: run.lazy_syncs,
        messages: run.messages,
    }
}

/// One node per round, node 0 every other round and the rest taking turns
/// in between: regrouping this stream into lockstep per-node rounds (what
/// the scorer this replaced did) runs a different interleaving.
fn skewed_events(series: &[Vec<Vec<f64>>], rounds: usize) -> Workload {
    let mut next = vec![0usize; series.len()];
    let mut turn = 0;
    let events: Vec<(usize, Vec<f64>)> = (0..rounds)
        .map(|t| {
            let node = if t % 2 == 0 {
                0
            } else {
                turn = turn % (series.len() - 1) + 1;
                turn
            };
            next[node] += 1;
            (node, series[node][next[node] - 1].clone())
        })
        .collect();
    Workload::from_events(series.len(), &events)
}

#[test]
fn the_grid_holds_the_counts_of_the_run_it_tunes() {
    let (f, series) = rozenbrock();
    let prefix = skewed_events(&series, 240);
    for cfg in [MonitorConfig::builder(EPSILON).build(), fixed(1.0)] {
        let tuned = Simulation::new(f.clone(), cfg.clone()).tune_r(&prefix);
        assert_eq!(tuned.grid.len(), 10);
        assert!(
            tuned.grid.iter().any(|(_, c)| c.total_violations() > 0),
            "a prefix with no violations pins nothing"
        );
        for (r, scored) in &tuned.grid {
            let run = Simulation::new(f.clone(), cfg.clone().with_r(*r)).run(&prefix);
            assert_eq!(
                *scored,
                counts(&run),
                "{:?} r = {r}: the grid's counts are not the run's",
                cfg.neighborhood
            );
        }
    }
}

/// `(r, neighborhood, safe-zone, faulty, full syncs, lazy syncs, messages)`.
type Row = (f64, usize, usize, usize, usize, usize, usize);

/// Under a `Fixed` configuration on dense streams the driver-backed scorer
/// is the protocol `core::tuning::replay` ran (it forced `Fixed(r)` and fed
/// nodes in lockstep): `r̂` and the grid it produced on the first 40 rounds,
/// recorded from the last commit that had it, to the bit.
#[test]
fn fixed_mode_dense_prefixes_tune_as_the_retired_replay_did() {
    const ROZENBROCK: (f64, [Row; 10]) = (
        0.036458333333333336,
        [
            (0.00390625, 223, 0, 0, 104, 120, 2795),
            (0.010416666666666668, 172, 11, 0, 31, 153, 1548),
            (0.016927083333333336, 107, 54, 0, 29, 133, 1324),
            (0.0234375, 65, 91, 0, 24, 133, 1260),
            (0.029947916666666668, 25, 115, 0, 23, 118, 1138),
            (0.036458333333333336, 9, 130, 0, 27, 113, 1175),
            (0.04296875, 4, 141, 0, 23, 123, 1199),
            (0.049479166666666664, 0, 148, 0, 23, 126, 1223),
            (0.055989583333333336, 0, 148, 0, 24, 125, 1217),
            (0.0625, 0, 145, 0, 26, 120, 1229),
        ],
    );
    const KLD: (f64, [Row; 10]) = (
        0.0625,
        [
            (0.0078125, 59, 0, 0, 6, 54, 409),
            (0.013888888888888888, 34, 1, 0, 3, 33, 235),
            (0.019965277777777776, 27, 2, 0, 2, 28, 187),
            (0.026041666666666668, 11, 11, 0, 2, 21, 149),
            (0.03211805555555555, 7, 14, 0, 1, 21, 117),
            (0.03819444444444445, 3, 16, 0, 1, 19, 107),
            (0.044270833333333336, 1, 17, 0, 1, 18, 102),
            (0.050347222222222224, 0, 18, 0, 1, 18, 102),
            (0.05642361111111111, 0, 18, 0, 1, 18, 102),
            (0.0625, 0, 18, 0, 1, 18, 102),
        ],
    );
    for (name, (f, series), (r_hat, rows)) in
        [("rozenbrock", rozenbrock(), ROZENBROCK), ("kld", kld(), KLD)]
    {
        let prefix = Workload::from_dense(&series).prefix(40);
        let tuned = Simulation::new(f, fixed(1.0)).tune_r(&prefix);
        assert_eq!(tuned.r.to_bits(), r_hat.to_bits(), "{name}: r̂ = {}", tuned.r);
        assert_eq!(tuned.grid.len(), rows.len(), "{name}");
        for ((r, scored), row) in tuned.grid.iter().zip(&rows) {
            assert_eq!(r.to_bits(), row.0.to_bits(), "{name}: r = {r}");
            let want = ReplayCounts {
                neighborhood: row.1,
                safezone: row.2,
                faulty: row.3,
                full_syncs: row.4,
                lazy_syncs: row.5,
                messages: row.6,
            };
            assert_eq!(*scored, want, "{name}: r = {r}");
        }
    }
}

/// The scorer owns its coordinator, its nodes and a disabled telemetry
/// handle, so a run that was tuned first traces exactly as the same run
/// handed `r̂` by configuration with no tuning call anywhere.
#[test]
fn tuning_leaves_no_mark_on_the_trace_of_the_run_it_tuned() {
    let (f, series) = rozenbrock();
    let workload = Workload::from_dense(&series);
    let cfg = MonitorConfig::builder(EPSILON).build();

    let tel = Telemetry::enabled();
    let r_hat = Simulation::new(f.clone(), cfg.clone())
        .with_telemetry(tel.clone())
        .tune_r(&workload.prefix(20))
        .r;
    assert_eq!(tel.trace_jsonl(), "", "tuning itself emits nothing");
    Simulation::new(f.clone(), cfg.clone().with_r(r_hat))
        .with_telemetry(tel.clone())
        .run(&workload);

    let untuned = Telemetry::enabled();
    Simulation::new(f, cfg.with_r(r_hat))
        .with_telemetry(untuned.clone())
        .run(&workload);
    assert!(tel.trace_jsonl().contains("\"full_sync\""));
    assert_eq!(tel.trace_jsonl(), untuned.trace_jsonl());
    assert_eq!(tel.prometheus(), untuned.prometheus());
}
