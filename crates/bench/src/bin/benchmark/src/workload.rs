//! The five named workloads: what each one is, why it exists, and the
//! guards that keep it the workload it was chosen to be.

use std::sync::Arc;
use std::time::Duration;

use automon_autodiff::AutoDiffFn;
use automon_core::{MonitorConfig, MonitoredFunction, Parallelism};
use automon_functions::{InnerProduct, KlDivergence, Variance};

use crate::fleet::Tiered;
use crate::inputs::{self, Inputs};
use crate::link::Backend;
use crate::pass::{Flat, Transport, Walk};

/// Sizes: the published run, or the seconds-long self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub enum Shape {
    Flat(Flat),
    Tiered(Tiered),
}

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Asserted range of violations per update.
    pub violation_ratio: (f64, f64),
    /// Asserted range of full-sync resolutions per violation.
    pub fullsync_ratio: (f64, f64),
    /// Time-boxed passes cover a varying number of laps, so their counts
    /// are compared per update, not exactly.
    pub fixed_count: bool,
}

impl Workload {
    pub fn inputs(&self) -> &Inputs {
        match &self.shape {
            Shape::Flat(w) => &w.inputs,
            Shape::Tiered(w) => &w.inputs,
        }
    }

    pub fn f(&self) -> &Arc<dyn MonitoredFunction> {
        match &self.shape {
            Shape::Flat(w) => &w.f,
            Shape::Tiered(w) => &w.f,
        }
    }

    /// Whether the workload's own passes run over sockets.
    pub fn wired(&self) -> bool {
        matches!(&self.shape, Shape::Flat(w) if w.transport != Transport::InProcess)
    }

    pub fn cfg(&self) -> &MonitorConfig {
        match &self.shape {
            Shape::Flat(w) => &w.cfg,
            Shape::Tiered(w) => &w.cfg,
        }
    }
}

/// Name and one-line reason, in the order they run and are listed in
/// `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "wire_drift",
        "inner product d=40 over 4 reactor connections, every 4th update a violation: net.reactor, net.tcp and net.wire do the work, core.adcd almost none",
    ),
    (
        "wire_quiet",
        "same sockets, 96% of updates inside the safe zone and preceded by the documented try_recv poll: the transport's idle path, not its sync path",
    ),
    (
        "kld_fullsync",
        "KLD d=20 n=12 eps=0.02 on the air-quality series, in-process: core.adcd, autodiff and linalg do nearly all the work, the transport none",
    ),
    (
        "ip_nodecheck",
        "inner product d=100 n=20 on the paper's 4.2 data, in-process: Node::update_data, paid per update per node, dominates and the coordinator idles",
    ),
    (
        "fleet_variance",
        "variance d=2, 10000 streams in 32 shards through Fleet::update: many tiny streams, LRU lazy sync over hundreds of nodes per leaf, two tiers",
    ),
];

/// Every end-to-end workload pins the single-threaded ADCD path: on this
/// host `Auto` ran the same KLD simulation in 2.5–12.0 s against
/// 1.76–2.20 s sequential. `Auto` is measured as `core.adcd.auto_over_seq`.
fn config(epsilon: f64) -> MonitorConfig {
    MonitorConfig::builder(epsilon)
        .parallelism(Parallelism::Sequential)
        .build()
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let full = scale == Scale::Full;
    let reactor = Transport::Wire(Backend::Reactor);
    Some(match name {
        "wire_drift" => Workload {
            name: "wire_drift",
            shape: Shape::Flat(Flat {
                f: Arc::new(AutoDiffFn::new(InnerProduct::new(inputs::WIRE_DIM))),
                cfg: config(0.1),
                inputs: inputs::wire_drift(seed, if full { 12_000 } else { 300 }),
                transport: reactor,
                idle_poll: false,
                walk: Walk::Once,
            }),
            violation_ratio: (0.15, 0.35),
            fullsync_ratio: (0.1, 0.4),
            fixed_count: true,
        },
        "wire_quiet" => Workload {
            name: "wire_quiet",
            shape: Shape::Flat(Flat {
                f: Arc::new(AutoDiffFn::new(InnerProduct::new(inputs::WIRE_DIM))),
                cfg: config(inputs::QUIET_EPSILON),
                inputs: inputs::wire_quiet(seed, if full { inputs::QUIET_LAP_ROUNDS } else { 8 }),
                transport: reactor,
                idle_poll: true,
                walk: if full {
                    Walk::LapsFor(Duration::from_millis(1500))
                } else {
                    Walk::Laps(1)
                },
            }),
            violation_ratio: (0.02, 0.08),
            fullsync_ratio: (0.3, 0.7),
            fixed_count: false,
        },
        "kld_fullsync" => {
            let (n, d) = (12, 20);
            Workload {
                name: "kld_fullsync",
                shape: Shape::Flat(Flat {
                    f: Arc::new(AutoDiffFn::new(KlDivergence::with_paper_tau(
                        d,
                        n,
                        inputs::KLD_WINDOW,
                    ))),
                    cfg: config(0.02),
                    inputs: inputs::kld_air_quality(seed, n, d, if full { 600 } else { 40 }),
                    transport: Transport::InProcess,
                    idle_poll: false,
                    walk: Walk::Once,
                }),
                violation_ratio: (0.25, 0.45),
                fullsync_ratio: (0.08, 0.2),
                fixed_count: true,
            }
        }
        "ip_nodecheck" => {
            let (n, d) = (20, 100);
            Workload {
                name: "ip_nodecheck",
                shape: Shape::Flat(Flat {
                    f: Arc::new(AutoDiffFn::new(InnerProduct::new(d))),
                    cfg: config(0.3),
                    inputs: inputs::inner_product_phases(
                        seed,
                        n,
                        d,
                        if full { 4_000 } else { 120 },
                    ),
                    transport: Transport::InProcess,
                    idle_poll: false,
                    walk: Walk::Once,
                }),
                violation_ratio: (0.01, 0.04),
                fullsync_ratio: (0.04, 0.12),
                fixed_count: true,
            }
        }
        "fleet_variance" => Workload {
            name: "fleet_variance",
            shape: Shape::Tiered(Tiered {
                f: Arc::new(AutoDiffFn::new(Variance)),
                cfg: config(0.01),
                inputs: if full {
                    inputs::variance_streams(seed, 10_000, 200)
                } else {
                    inputs::variance_streams(seed, 320, 30)
                },
                shards: 32,
            }),
            violation_ratio: (0.03, 0.07),
            fullsync_ratio: (0.0005, 0.002),
            fixed_count: true,
        },
        _ => return None,
    })
}
