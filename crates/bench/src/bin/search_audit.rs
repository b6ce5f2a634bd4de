//! What the eq.-3 search spends and how sound its bound is, per §4.2
//! ADCD-X function over one whole `simulate`-style run (EXPERIMENTS.md,
//! "What the eq.-3 search spends"; ROADMAP item 3(b)'s audit, first cut).
//!
//! Per function: run the flat driver the way `automon simulate` does at
//! its defaults (Algorithm 2 on a prefix, then the run), logging the
//! `(x0, B)` of every full sync; then, per logged full sync, decompose it
//! again through a counting wrapper (which streams ran, what each spent)
//! and sample 256 points of `B` with a dense QL eigensolve to see whether
//! the curvature the decomposition *used* covers them.
//!
//! Reads only public API, so the same file built in a checkout of an
//! earlier commit gives that commit's column.
//!
//! Usage: `search_audit [name-substring]` (all six functions, or those
//! whose row label contains the argument).

use std::sync::{Arc, Mutex};

use automon_autodiff::{AutoDiffFn, HessianEvaluator, HvpEvaluator};
use automon_bench::funcs;
use automon_core::{adcd, Curvature, DcKind, Domain, MonitorConfig, MonitoredFunction};
use automon_data::synthetic::QuadraticDataset;
use automon_data::{air_quality, windowed_mean_series};
use automon_functions::{train_mlp_d, KlDivergence};
use automon_linalg::{Matrix, SymEigen};
use automon_obs::Telemetry;
use automon_sim::{Simulation, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dense-QL samples of `H(x)` per full sync.
const SAMPLES: usize = 256;

/// One stream of a decomposition: probe points primed, products applied.
#[derive(Debug, Clone, Copy, Default)]
struct StreamLog {
    points: u64,
    products: u64,
}

#[derive(Default)]
struct Log {
    /// Every point a dense Hessian was asked at, with the number of
    /// `r_doubled` events the run had traced by then.
    hessians: Vec<(Vec<f64>, usize)>,
    doublings: usize,
    streams: Vec<StreamLog>,
}

/// Forwards to `inner`, logging what the eigen search asks of it.
struct Logged {
    inner: Arc<dyn MonitoredFunction>,
    tel: Telemetry,
    log: Mutex<Log>,
}

impl MonitoredFunction for Logged {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn eval(&self, x: &[f64]) -> f64 {
        self.inner.eval(x)
    }
    fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.inner.eval_grad(x)
    }
    fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
        self.inner.hvp(x, v)
    }
    fn lower_bounds(&self) -> Option<Vec<f64>> {
        self.inner.lower_bounds()
    }
    fn upper_bounds(&self) -> Option<Vec<f64>> {
        self.inner.upper_bounds()
    }
    fn has_constant_hessian(&self) -> bool {
        self.inner.has_constant_hessian()
    }
    fn hessian_eval(&self) -> Box<dyn HessianEvaluator + '_> {
        Box::new(LoggedHessians {
            he: self.inner.hessian_eval(),
            owner: self,
        })
    }
    fn hvp_eval(&self) -> Box<dyn HvpEvaluator + '_> {
        Box::new(LoggedStream {
            he: self.inner.hvp_eval(),
            owner: self,
            stream: StreamLog::default(),
        })
    }
}

struct LoggedHessians<'a> {
    he: Box<dyn HessianEvaluator + 'a>,
    owner: &'a Logged,
}

impl HessianEvaluator for LoggedHessians<'_> {
    fn dim(&self) -> usize {
        self.he.dim()
    }
    fn hessian_into(&mut self, x: &[f64], out: &mut Matrix) {
        let mut log = self.owner.log.lock().expect("log lock");
        // The trace is drained as it is read: each event is scanned once.
        let mut fresh = Vec::new();
        self.owner.tel.drain_trace_to(&mut fresh).expect("write to a Vec");
        log.doublings += String::from_utf8_lossy(&fresh).matches("\"kind\":\"r_doubled\"").count();
        let doublings = log.doublings;
        log.hessians.push((x.to_vec(), doublings));
        self.he.hessian_into(x, out);
    }
}

struct LoggedStream<'a> {
    he: Box<dyn HvpEvaluator + 'a>,
    owner: &'a Logged,
    stream: StreamLog,
}

impl HvpEvaluator for LoggedStream<'_> {
    fn dim(&self) -> usize {
        self.he.dim()
    }
    fn at(&mut self, x: &[f64]) {
        self.stream.points += 1;
        self.he.at(x);
    }
    fn apply(&mut self, v: &[f64], out: &mut [f64]) {
        self.stream.products += 1;
        self.he.apply(v, out);
    }
    fn point_sweeps(&self) -> u64 {
        self.he.point_sweeps()
    }
}

impl Drop for LoggedStream<'_> {
    fn drop(&mut self) {
        self.owner.log.lock().expect("log lock").streams.push(self.stream);
    }
}

struct Case {
    name: &'static str,
    f: Arc<dyn MonitoredFunction>,
    workload: Workload,
    epsilon: f64,
}

/// The functions and workloads of `automon simulate` at its defaults
/// (10 nodes, 500 rounds, ε = 0.1, seed 1), plus the DNN stream.
fn cases() -> Vec<Case> {
    let (nodes, rounds, seed) = (10, 500, 1);
    let kld = |d: usize| {
        let streams = air_quality::generate(&air_quality::AirQualityParams {
            sites: nodes,
            hours: rounds + 199,
            seed,
        });
        Case {
            name: if d == 10 { "kld d=10" } else { "kld d=20" },
            f: Arc::new(AutoDiffFn::new(KlDivergence::new(d, 1.0 / 2400.0))),
            workload: Workload::from_dense(&air_quality::kld_series(&streams, 200, d / 2)),
            epsilon: 0.1,
        }
    };
    let mlp = |d: usize| {
        let raw = QuadraticDataset::generate(nodes, rounds + 19, d, seed);
        Case {
            name: if d == 10 { "mlp d=10" } else { "mlp d=20" },
            f: Arc::new(AutoDiffFn::new(train_mlp_d(d, 7))),
            workload: Workload::from_dense(&windowed_mean_series(&raw, 20)),
            epsilon: 0.1,
        }
    };
    let roz = funcs::rozenbrock(nodes, rounds, seed);
    let dnn = funcs::dnn_intrusion(4000, 1);
    vec![
        kld(10),
        kld(20),
        Case {
            name: "rozenbrock",
            f: roz.f,
            workload: roz.workload,
            epsilon: 0.1,
        },
        mlp(10),
        mlp(20),
        Case {
            name: "dnn d=41",
            f: dnn.f,
            workload: dnn.workload,
            epsilon: 0.02,
        },
    ]
}

fn main() {
    println!(
        "| function | r̂ | full syncs | Min only / Max only / both | polishes ended early (of run) | \
         probes / HVPs per decomposition | messages | max error / ε | samples beaten (beyond 1e-9·‖H‖) | \
         worst shortfall (abs; share of the curvature the sample needs) |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let only = std::env::args().nth(1).unwrap_or_default();
    for case in cases().into_iter().filter(|c| c.name.contains(&only)) {
        let cfg = MonitorConfig::builder(case.epsilon).build();
        let prefix = case.workload.prefix((case.workload.rounds() / 10).clamp(20, 200));
        let r0 = Simulation::new(case.f.clone(), cfg.clone()).tune_r(&prefix).r;
        let cfg = cfg.with_r(r0);

        let tel = Telemetry::enabled();
        let logged = Arc::new(Logged {
            inner: case.f.clone(),
            tel: tel.clone(),
            log: Mutex::default(),
        });
        let stats = Simulation::new(logged.clone(), cfg.clone())
            .with_telemetry(tel)
            .run(&case.workload);

        // Two dense Hessians per decomposition on the matrix-free path:
        // x0, then the box center.
        let hessians = std::mem::take(&mut logged.log.lock().expect("log lock").hessians);
        assert_eq!(hessians.len() % 2, 0);
        let domain = Domain::of(case.f.as_ref());
        let es = cfg.eigen_search;
        let d = case.f.dim();
        let polished = es.nm_iters > 0 && d <= es.nm_dim_cap;

        let (mut min_only, mut max_only, mut both) = (0, 0, 0);
        let (mut early, mut polishes) = (0, 0);
        let (mut probes, mut hvps) = (0u64, 0u64);
        let (mut beaten, mut beaten_clear, mut samples) = (0usize, 0usize, 0usize);
        let (mut worst_abs, mut worst_rel) = (0.0f64, 0.0f64);
        let mut rng = SmallRng::seed_from_u64(0xA0D17);
        let (mut sampler, mut h) = (case.f.hessian_eval(), Matrix::zeros(d, d));
        for pair in hessians.chunks(2) {
            let (x0, doublings) = &pair[0];
            let b = domain.neighborhood(x0, r0 * f64::powi(2.0, *doublings as i32));
            assert_eq!(b.to_bounds().center(), pair[1].0, "logged center is not the center of B(x0, r)");

            logged.log.lock().expect("log lock").streams.clear();
            let dec = adcd::decompose(logged.as_ref(), x0, Some(&b), &cfg);
            let streams = std::mem::take(&mut logged.log.lock().expect("log lock").streams);
            match (streams.len(), dec.dc) {
                (2, _) => both += 1,
                (1, DcKind::ConvexDiff) => min_only += 1,
                (1, _) => max_only += 1,
                other => panic!("unexpected stream count {other:?}"),
            }
            for s in &streams {
                probes += s.points;
                hvps += s.products;
                if polished {
                    polishes += 1;
                    // A polish that ran all its iterations spent at least
                    // one evaluation in each, after its d + 1 vertices.
                    if s.points < (es.probes + d + 1 + es.nm_iters) as u64 {
                        early += 1;
                    }
                }
            }

            let used = match dec.curvature {
                Curvature::Scalar(c) => c,
                Curvature::Quadratic(_) => unreachable!("ADCD-X penalties are scalar"),
            };
            let mut x = vec![0.0; d];
            for _ in 0..SAMPLES {
                for (i, xi) in x.iter_mut().enumerate() {
                    *xi = if b.lo[i] < b.hi[i] {
                        rng.gen_range(b.lo[i]..=b.hi[i])
                    } else {
                        b.lo[i]
                    };
                }
                sampler.hessian_into(&x, &mut h);
                let eig = SymEigen::new(&h);
                let needed = match dec.dc {
                    DcKind::ConvexDiff => (-eig.lambda_min()).max(0.0),
                    _ => eig.lambda_max().max(0.0),
                };
                let norm = eig.lambda_min().abs().max(eig.lambda_max().abs());
                let excess = needed - used;
                samples += 1;
                if excess > 0.0 {
                    beaten += 1;
                    if excess > 1e-9 * norm {
                        beaten_clear += 1;
                        worst_abs = worst_abs.max(excess);
                        worst_rel = worst_rel.max(excess / needed);
                    }
                }
            }
        }
        let n = hessians.len() / 2;
        assert_eq!(n, stats.full_syncs, "one logged decomposition per full sync");
        println!(
            "| {} | {r0:.4} | {n} | {min_only} / {max_only} / {both} | {early} of {polishes} | \
             {:.1} / {:.1} | {} | {:.4} | {beaten} ({beaten_clear}) of {samples} | {worst_abs:.3e}; {worst_rel:.3e} |",
            case.name,
            probes as f64 / n as f64,
            hvps as f64 / n as f64,
            stats.messages,
            stats.max_error / case.epsilon,
        );
    }
}
