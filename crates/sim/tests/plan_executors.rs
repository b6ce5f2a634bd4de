//! One fault schedule, four executors (DESIGN §3.8): every cell of the
//! executor × plan-part table either runs the part or refuses the plan
//! with the one message `Executor::admit` formats — before the first
//! round, from `check_plan` as an error and from a run as a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_chaos::{FaultPlan, PlanPart};
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_fleet::FleetConfig;
use automon_functions::InnerProduct;
use automon_net::ReactorCoordinatorTransport;
use automon_sim::{FleetSimulation, Simulation, Workload};

const NODES: usize = 4;
const SHARDS: usize = 2;

fn f() -> Arc<dyn MonitoredFunction> {
    Arc::new(AutoDiffFn::new(InnerProduct::new(2)))
}

fn workload() -> Workload {
    let series: Vec<Vec<Vec<f64>>> = (0..NODES)
        .map(|i| {
            (0..16)
                .map(|t| vec![0.05 * t as f64 + 0.1 * i as f64, 1.0 - 0.02 * t as f64])
                .collect()
        })
        .collect();
    Workload::from_dense(&series)
}

/// A plan using exactly `part`.
fn plan_with(part: PlanPart) -> FaultPlan {
    let plan = FaultPlan::seeded(3);
    match part {
        PlanPart::FrameFaults => plan.with_drop_rate(0.2),
        PlanPart::NodeCrashes => plan.with_crash(1, 3, Some(8)),
        PlanPart::Partitions => plan.with_partition(vec![1], 2, 5),
        PlanPart::CoordinatorCrashes => plan.with_coordinator_crash(4),
        PlanPart::LeafCrashes => plan.with_leaf_crash(1, 4),
    }
}

/// `check_plan`'s verdict on `plan`, then the run itself; `true` when the
/// run went through, the refusal when both refused with the same words.
type Attempt = fn(FaultPlan) -> Result<bool, String>;

fn flat(sim: Simulation) -> Result<bool, String> {
    let verdict = sim.check_plan(NODES);
    let run = catch_unwind(AssertUnwindSafe(|| sim.run_report(&workload())));
    reconcile(verdict, run.map(|report| report.quiesced))
}

fn reconcile(
    verdict: Result<(), String>,
    run: std::thread::Result<bool>,
) -> Result<bool, String> {
    match (verdict, run) {
        (Ok(()), Ok(done)) => Ok(done),
        (Err(refusal), Err(panic)) => {
            let said = panic.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(said, &refusal, "the run must refuse in check_plan's words");
            Err(refusal)
        }
        (verdict, run) => panic!("check_plan said {verdict:?} but the run {:?}", run.is_ok()),
    }
}

const EXECUTORS: [(&str, &str, Attempt); 4] = [
    (
        "in-process fabric",
        "frame faults, node crashes, partitions, coordinator crashes",
        |plan| flat(Simulation::new(f(), MonitorConfig::builder(0.3).build()).with_plan(plan)),
    ),
    ("sim-reactor link", "frame faults, coordinator crashes", |plan| {
        let sim = Simulation::new(f(), MonitorConfig::builder(0.3).build());
        flat(sim.with_plan(plan).with_net_seed(5))
    }),
    ("socket link", "no faults", |plan| {
        let sim = Simulation::new(f(), MonitorConfig::builder(0.3).build());
        flat(sim.with_plan(plan).over_sockets::<ReactorCoordinatorTransport>())
    }),
    ("fleet", "node crashes, leaf crashes", |plan| {
        let cfg = MonitorConfig::builder(0.3).build();
        let sim = FleetSimulation::new(f(), cfg, FleetConfig::new(SHARDS)).with_plan(plan);
        let verdict = sim.check_plan(NODES);
        let run = catch_unwind(AssertUnwindSafe(|| sim.run(&workload())));
        reconcile(verdict, run.map(|report| report.updates > 0))
    }),
];

#[test]
fn every_executor_runs_its_parts_and_refuses_the_rest() {
    for (name, runs, execute) in EXECUTORS {
        for part in PlanPart::ALL {
            let outcome = execute(plan_with(part));
            if runs.split(", ").any(|run| run == part.name()) {
                assert_eq!(outcome, Ok(true), "{name} runs {}", part.name());
            } else {
                let refusal = format!("the {name} does not run {} (it runs {runs})", part.name());
                assert_eq!(outcome, Err(refusal), "{name} × {}", part.name());
            }
        }
    }
}

/// An admitted part is still validated against the topology.
#[test]
fn an_executor_validates_the_parts_it_runs() {
    let cfg = MonitorConfig::builder(0.3).build();
    let sim = Simulation::new(f(), cfg.clone()).with_plan(plan_with(PlanPart::NodeCrashes));
    assert_eq!(sim.check_plan(1), Err("node 1 out of range (nodes = 1)".into()));
    let fleet = FleetSimulation::new(f(), cfg, FleetConfig::new(1))
        .with_plan(plan_with(PlanPart::LeafCrashes));
    assert_eq!(fleet.check_plan(NODES), Err("leaf 1 out of range (shards = 1)".into()));
}
