//! The trace carries what the ledger does not keep (DESIGN.md §3.12).
//!
//! The ledger tallies frames per cause only. Every charge point also
//! emits one `comm` trace event with the frame's node, cause and bytes,
//! and the trace clock stamps its round, so the `(round, node, cause)`
//! table is rebuilt from the trace alone. Its per-cause rollup must equal
//! the run's `RunStats.ledger` exactly: on a seeded flat run under
//! faults and on a two-tier fleet run with membership faults.
//!
//! The same holds for faults: every injected fault emits one `fault`
//! event, so the fault trace is rebuilt from the telemetry alone.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_chaos::{Direction, FaultKind, FaultPlan};
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_fleet::FleetConfig;
use automon_functions::InnerProduct;
use automon_obs::{parse_trace, Telemetry};
use automon_sim::{FleetSimulation, RunStats, Simulation, Workload};

/// Up and down tallies of one table cell: `[msgs, bytes]` per direction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Cell {
    up: [u64; 2],
    down: [u64; 2],
}

type Table = BTreeMap<(u64, u64, String), Cell>;

fn setup(nodes: usize, seed: u64) -> (Arc<dyn MonitoredFunction>, Workload) {
    let (rounds, dim) = (60, 4);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, seed);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(dim)));
    (f, w)
}

/// The `(round, node, cause)` table of every `comm` event in `trace`.
fn table(trace: &str) -> Table {
    let mut out = Table::new();
    for e in parse_trace(trace).expect("trace parses") {
        if e.kind != "comm" {
            continue;
        }
        let node = e.u64("node").expect("comm event names its node");
        let cause = e.str("cause").expect("comm event names its cause");
        let bytes = e.u64("bytes").expect("comm event carries its bytes");
        let cell = out.entry((e.round, node, cause.to_string())).or_default();
        let dir = match e.str("dir") {
            Some("up") => &mut cell.up,
            Some("down") => &mut cell.down,
            other => panic!("comm event with direction {other:?}"),
        };
        dir[0] += 1;
        dir[1] += bytes;
    }
    out
}

/// Assert the table rolls up to the run's ledger exactly, and that it
/// holds detail the ledger cannot: several rounds and several nodes.
fn assert_rolls_up_to_ledger(table: &Table, stats: &RunStats) {
    let mut rollup: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for ((_, _, cause), c) in table {
        let r = rollup.entry(cause.as_str()).or_default();
        r.0 += c.up[0] + c.down[0];
        r.1 += c.up[1] + c.down[1];
    }
    let ledger: BTreeMap<&str, (u64, u64)> = stats
        .ledger
        .as_deref()
        .expect("runners always attach a ledger")
        .iter()
        .map(|e| (e.cause.as_str(), (e.msgs, e.bytes)))
        .collect();
    assert_eq!(rollup, ledger, "trace rollup != ledger");
    let msgs: u64 = ledger.values().map(|v| v.0).sum();
    assert_eq!(msgs as usize, stats.messages);

    let rounds: BTreeSet<u64> = table.keys().map(|k| k.0).collect();
    let nodes: BTreeSet<u64> = table.keys().map(|k| k.1).collect();
    assert!(rounds.len() > 5, "rounds {rounds:?}");
    assert!(nodes.len() > 2, "nodes {nodes:?}");
}

#[test]
fn flat_run_trace_rebuilds_the_ledger() {
    let (f, w) = setup(5, 7);
    let plan = FaultPlan::seeded(3)
        .with_drop_rate(0.08)
        .with_duplicate_rate(0.03)
        .with_crash(2, 15, Some(30));
    let tel = Telemetry::enabled();
    let sim = Simulation::new(f, MonitorConfig::builder(0.2).build())
        .with_plan(plan)
        .with_telemetry(tel.clone());
    let stats = sim.run(&w);
    let table = table(&tel.trace_jsonl());
    assert_rolls_up_to_ledger(&table, &stats);
    let causes: BTreeSet<&str> = table.keys().map(|k| k.2.as_str()).collect();
    assert!(causes.contains("registration"), "{causes:?}");
    assert!(causes.contains("retransmit"), "{causes:?}");
}

#[test]
fn fleet_run_trace_rebuilds_the_combined_ledger() {
    let (f, w) = setup(24, 11);
    let plan = FaultPlan::none()
        .with_crash(3, 10, Some(25))
        .with_leaf_crash(1, 30);
    let tel = Telemetry::enabled();
    let sim = FleetSimulation::new(f, MonitorConfig::builder(0.3).build(), FleetConfig::new(4))
        .with_plan(plan)
        .with_telemetry(tel.clone());
    let report = sim.run(&w);
    let table = table(&tel.trace_jsonl());
    assert_rolls_up_to_ledger(&table, &report.stats);
    let causes: BTreeSet<&str> = table.keys().map(|k| k.2.as_str()).collect();
    for tier in ["leaf_report", "root_sync", "shard_rebalance"] {
        assert!(causes.contains(tier), "{tier} missing from {causes:?}");
    }
}

/// One injected fault as the telemetry carries it: round, node,
/// direction, kind and, for a delay, its rounds.
type FaultRow = (u64, u64, &'static str, &'static str, Option<u64>);

#[test]
fn fault_events_mirror_the_fault_trace() {
    let (f, w) = setup(6, 5);
    let plan = FaultPlan::seeded(2)
        .with_drop_rate(0.05)
        .with_duplicate_rate(0.08)
        .with_reorder_rate(0.1)
        .with_delay(0.2, 3)
        .with_crash(2, 15, Some(30))
        .with_partition(vec![1], 5, 12)
        .with_coordinator_crash(20)
        .with_coordinator_crash(40);
    let tel = Telemetry::enabled();
    let report = Simulation::new(f, MonitorConfig::builder(0.2).build())
        .with_plan(plan)
        .with_telemetry(tel.clone())
        .run_report(&w);
    let want: Vec<FaultRow> = report
        .fault_trace
        .iter()
        .map(|e| {
            let dir = match e.dir {
                Direction::NodeToCoord => "node_to_coord",
                Direction::CoordToNode => "coord_to_node",
            };
            let (fault, delay) = match e.kind {
                FaultKind::Drop => ("drop", None),
                FaultKind::Duplicate => ("duplicate", None),
                FaultKind::Reorder => ("reorder", None),
                FaultKind::Delay { rounds } => ("delay", Some(rounds as u64)),
                FaultKind::NodeDown => ("node_down", None),
                FaultKind::PartitionDrop => ("partition_drop", None),
                FaultKind::Crash => ("crash", None),
                FaultKind::Restart => ("restart", None),
                FaultKind::CoordinatorCrash => ("coordinator_crash", None),
            };
            (e.round as u64, e.node as u64, dir, fault, delay)
        })
        .collect();
    let events = parse_trace(&tel.trace_jsonl()).expect("trace parses");
    let got: Vec<(u64, u64, &str, &str, Option<u64>)> = events
        .iter()
        .filter(|e| e.kind == "fault")
        .map(|e| {
            let field = |k| e.str(k).expect("fault event field");
            let node = e.u64("node").expect("fault event names its node");
            (e.round, node, field("dir"), field("fault"), e.u64("delay_rounds"))
        })
        .collect();
    assert_eq!(got.len(), want.len(), "one event per injected fault");
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "fault {i}");
    }
    let kinds: BTreeSet<&str> = want.iter().map(|row| row.3).collect();
    assert_eq!(kinds.len(), 9, "every fault kind fires: {kinds:?}");
}
