//! Link parity: the round driver must not be able to tell its three
//! transports apart when nothing goes wrong. The same workload over the
//! bare fabric, the fault-injecting fabric under `FaultPlan::none()`,
//! and the fault-free reactor link — each under sequential and threaded
//! fan-out — must produce the *whole* `RunStats` (traffic totals and the
//! per-cause ledger included) and a byte-identical telemetry trace.
//! Every link charges delivered frames through the same
//! `account_up`/`account_down`, so a link that counts a frame twice, or
//! not at all, fails here.

use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_chaos::FaultPlan;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_functions::InnerProduct;
use automon_obs::Telemetry;
use automon_sim::{RunReport, Simulation, Workload};

struct Mean1;
impl ScalarFn for Mean1 {
    fn dim(&self) -> usize {
        1
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0]
    }
}

type Case = (&'static str, Arc<dyn MonitoredFunction>, f64, Workload);

fn cases() -> Vec<Case> {
    // The paper's synthetic inner-product workload …
    let (nodes, rounds, dim, seed) = (4, 120, 4, 42);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, seed);
    let inner_product = Workload::from_dense(&windowed_mean_series(&raw, 20));
    // … and a drifting series with per-node phase offsets: enough motion
    // to trigger violations, lazy syncs, and full syncs.
    let series: Vec<Vec<Vec<f64>>> = (0..4)
        .map(|i| {
            (0..80)
                .map(|t| {
                    let drift = t as f64 * 0.07;
                    let wiggle = ((t + i) as f64 * 0.9).sin() * 0.35;
                    vec![drift + wiggle + i as f64 * 0.05]
                })
                .collect()
        })
        .collect();
    vec![
        (
            "inner-product",
            Arc::new(AutoDiffFn::new(InnerProduct::new(dim))),
            0.2,
            inner_product,
        ),
        (
            "drifting mean",
            Arc::new(AutoDiffFn::new(Mean1)),
            0.4,
            Workload::from_dense(&series),
        ),
    ]
}

type OnLink = fn(Simulation) -> Simulation;

/// The three links, by what the caller supplies to select them.
const LINKS: [(&str, OnLink); 3] = [
    ("bare fabric", |sim| sim),
    ("none-plan chaos fabric", |sim| {
        sim.with_plan(FaultPlan::none())
    }),
    ("fault-free reactor", |sim| sim.with_net_seed(3)),
];

fn run(case: &Case, on_link: OnLink, tel: Telemetry) -> RunReport {
    let (_, f, eps, w) = case;
    let cfg = MonitorConfig::builder(*eps).build();
    on_link(Simulation::new(f.clone(), cfg))
        .with_telemetry(tel)
        .run_report(w)
}

#[test]
fn every_link_gives_the_same_stats_ledger_and_trace() {
    for case in cases() {
        let name = case.0;
        let tel = Telemetry::enabled();
        let reference = run(&case, LINKS[0].1, tel.clone());
        let reference_trace = tel.trace_jsonl();
        assert!(
            reference.stats.full_syncs > 0 && reference.stats.lazy_syncs > 0,
            "{name}"
        );
        assert!(reference
            .stats
            .ledger
            .as_deref()
            .is_some_and(|l| l.len() > 1));
        assert!(reference_trace.contains("\"kind\":\"comm\""));

        for (link, on_link) in LINKS {
            let tel = Telemetry::enabled();
            let got = run(&case, on_link, tel.clone());
            let at = format!("{name} over {link}");
            assert!(got.quiesced, "{at}");
            assert!(got.fault_trace.is_empty(), "{at}");
            assert_eq!(got.stats, reference.stats, "{at}: RunStats diverged");
            assert_eq!(got.transport.is_some(), link == LINKS[2].0, "{at}");
            if let Some(line) = first_difference(&tel.trace_jsonl(), &reference_trace) {
                panic!("{at}: telemetry trace diverged at {line}");
            }
        }
    }
}

/// Instrumentation must not perturb the protocol on any link.
#[test]
fn telemetry_does_not_perturb_the_protocol() {
    for case in cases() {
        for (link, on_link) in LINKS {
            let bare = run(&case, on_link, Telemetry::disabled());
            let observed = run(&case, on_link, Telemetry::enabled());
            assert_eq!(observed, bare, "{} over {link}", case.0);
        }
    }
}

/// `Some("line N: left | right")` at the first differing line.
fn first_difference(left: &str, right: &str) -> Option<String> {
    if left == right {
        return None;
    }
    let (mut l, mut r) = (left.lines(), right.lines());
    for n in 1.. {
        match (l.next(), r.next()) {
            (a, b) if a == b && a.is_some() => continue,
            (a, b) => return Some(format!("line {n}:\n  {a:?}\n  {b:?}")),
        }
    }
    None
}
