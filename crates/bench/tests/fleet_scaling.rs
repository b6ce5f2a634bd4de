//! Fleet scaling: root-tier message volume vs the flat single-
//! coordinator baseline (DESIGN.md §3.14).
//!
//! The hierarchy's claim is that leaf-local violations resolve
//! intra-shard, so the *root tier* — the only place a centralized
//! bottleneck could form — carries a small share of the messages the
//! flat baseline does. Each test runs the same workload through the
//! flat runner and the fleet runner at 10k streams / 32 shards, for
//! inner product and for variance (the F2 second-moment style
//! function: the pair that "Optimal Communication for Classic Functions
//! in the Coordinator Model" grounds the coordinator-model lower bounds
//! with), and asserts root/flat ≤ 0.5 messages per update.
//!
//! The protocol is deterministic, so one run is the measurement: the
//! message and byte totals of the flat run and of both fleet tiers are
//! pinned as exact integers. A change that moves one must say why.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::{InnerProductDataset, QuadraticDataset};
use automon_data::windowed_mean_series;
use automon_fleet::FleetConfig;
use automon_functions::{InnerProduct, Variance};
use automon_sim::{FleetSimulation, Simulation, Workload};

const MEAN_WINDOW: usize = 20;
const STREAMS: usize = 10_000;
const SHARDS: usize = 32;
const ROUNDS: usize = 50;
const DIM: usize = 4;
const EPSILON: f64 = 0.5;
const SEED: u64 = 17;

/// Message and payload-byte totals of one flat run and one fleet run.
#[derive(Debug, PartialEq, Eq)]
struct Volume {
    flat_msgs: usize,
    flat_bytes: usize,
    root_msgs: usize,
    root_bytes: usize,
    leaf_msgs: usize,
    leaf_bytes: usize,
}

fn inner_product_case() -> (Arc<dyn MonitoredFunction>, Workload) {
    let raw = InnerProductDataset::generate(STREAMS, ROUNDS + MEAN_WINDOW - 1, DIM, SEED);
    (
        Arc::new(AutoDiffFn::new(InnerProduct::new(DIM))),
        Workload::from_dense(&windowed_mean_series(&raw, MEAN_WINDOW)),
    )
}

/// Variance via §6 rewriting: augmented vectors `[x, x²]` from scalar
/// samples; `f(u, v) = v - u²` is the second-moment (F2-style) read.
fn variance_case() -> (Arc<dyn MonitoredFunction>, Workload) {
    let scalars = QuadraticDataset::generate(STREAMS, ROUNDS + MEAN_WINDOW - 1, 1, SEED);
    let raw: Vec<Vec<Vec<f64>>> = scalars
        .into_iter()
        .map(|s| s.into_iter().map(|v| vec![v[0], v[0] * v[0]]).collect())
        .collect();
    (
        Arc::new(AutoDiffFn::new(Variance)),
        Workload::from_dense(&windowed_mean_series(&raw, MEAN_WINDOW)),
    )
}

/// Run the flat and the fleet runner over `w`, assert the root tier
/// stays at or below half the flat messages per update, and return the
/// volumes.
fn run_case(name: &str, f: Arc<dyn MonitoredFunction>, w: &Workload) -> Volume {
    let cfg = MonitorConfig::builder(EPSILON).build();
    let flat = Simulation::new(f.clone(), cfg.clone()).run(w);
    let fleet = FleetSimulation::new(f, cfg, FleetConfig::new(SHARDS)).run(w);
    assert_eq!(fleet.updates, STREAMS * ROUNDS);
    let per_update = |x: usize| x as f64 / fleet.updates as f64;
    let (flat_mpu, root_mpu) = (per_update(flat.messages), per_update(fleet.root_messages));
    assert!(
        root_mpu <= 0.5 * flat_mpu,
        "{name}: root tier ({root_mpu:.4}/update) must stay ≤ 0.5× the flat \
         baseline ({flat_mpu:.4}/update)"
    );
    Volume {
        flat_msgs: flat.messages,
        flat_bytes: flat.payload_bytes,
        root_msgs: fleet.root_messages,
        root_bytes: fleet.root_payload_bytes,
        leaf_msgs: fleet.leaf_messages,
        leaf_bytes: fleet.leaf_payload_bytes,
    }
}

#[test]
fn inner_product_root_tier_stays_under_half_of_flat() {
    let (f, w) = inner_product_case();
    let volume = run_case("inner-product", f, &w);
    assert_eq!(
        volume,
        Volume {
            flat_msgs: 193_309,
            flat_bytes: 12_303_700,
            root_msgs: 960,
            root_bytes: 62_030,
            leaf_msgs: 451_416,
            leaf_bytes: 25_990_698,
        }
    );
}

#[test]
fn variance_root_tier_stays_under_half_of_flat() {
    let (f, w) = variance_case();
    let volume = run_case("variance", f, &w);
    assert_eq!(
        volume,
        Volume {
            flat_msgs: 20_787,
            flat_bytes: 1_906_398,
            root_msgs: 69,
            root_bytes: 6_459,
            leaf_msgs: 23_625,
            leaf_bytes: 2_022_020,
        }
    );
}
