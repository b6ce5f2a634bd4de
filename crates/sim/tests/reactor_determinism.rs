//! The reactor-path determinism contract: a run over `Reactor<SimPoller>`
//! is a pure function of `(net_seed, plan, workload)` — same inputs ⇒
//! byte-identical telemetry trace and identical serialized `RunStats`,
//! with chaos faults injected at the decoded-frame boundary. (Parity of
//! the fault-free reactor link with the in-process fabrics is
//! `link_parity.rs`.)

use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_chaos::{FaultPlan, GateCounts};
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_obs::Telemetry;
use automon_sim::{RunReport, Simulation, TransportReport, Workload};

struct Mean1;
impl ScalarFn for Mean1 {
    fn dim(&self) -> usize {
        1
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0]
    }
}

fn f() -> Arc<dyn MonitoredFunction> {
    Arc::new(AutoDiffFn::new(Mean1))
}

fn workload(n: usize, rounds: usize) -> Workload {
    // A deterministic drifting series with per-node phase offsets —
    // enough motion to trigger violations, syncs, and pulls.
    let series: Vec<Vec<Vec<f64>>> = (0..n)
        .map(|i| {
            (0..rounds)
                .map(|t| {
                    let drift = t as f64 * 0.07;
                    let wiggle = ((t + i) as f64 * 0.9).sin() * 0.35;
                    vec![drift + wiggle + i as f64 * 0.05]
                })
                .collect()
        })
        .collect();
    Workload::from_dense(&series)
}

fn plan() -> FaultPlan {
    FaultPlan::seeded(2024)
        .with_drop_rate(0.08)
        .with_duplicate_rate(0.05)
        .with_reorder_rate(0.05)
        .with_delay(0.05, 3)
}

/// Run `sim` with a fresh telemetry handle; the report, its transport
/// block, and the JSONL trace.
fn traced(sim: Simulation, w: &Workload) -> (RunReport, TransportReport, String) {
    let tel = Telemetry::enabled();
    let report = sim.with_telemetry(tel.clone()).run_report(w);
    let transport = report
        .transport
        .expect("reactor runs report their transport");
    (report, transport, tel.trace_jsonl())
}

#[test]
fn same_seed_is_byte_identical_under_faults() {
    let w = workload(4, 60);
    let cfg = MonitorConfig::builder(0.4).build();
    let run = || {
        traced(
            Simulation::new(f(), cfg.clone())
                .with_plan(plan())
                .with_net_seed(7)
                .with_limits(23, 512),
            &w,
        )
    };
    let (a, net_a, trace_a) = run();
    let (b, net_b, trace_b) = run();

    assert!(a.quiesced, "protocol must drain after the workload");
    assert!(
        net_a.faults.injected() > 0,
        "rates this high over {} gated frames must fire",
        net_a.faults.gated
    );
    assert_eq!(a.stats.injected_faults as u64, net_a.faults.injected());
    assert_eq!(trace_a, trace_b, "same seed must replay byte-identically");
    assert_eq!(
        serde_json::to_string(&a.stats).unwrap(),
        serde_json::to_string(&b.stats).unwrap(),
        "RunStats must be identical under replay"
    );
    assert_eq!(
        net_a, net_b,
        "syscalls, traffic and fault tally must replay"
    );
}

#[test]
fn different_net_seed_changes_the_byte_schedule_not_the_outcome() {
    // The net seed only reshuffles how bytes are chunked in transit;
    // with no faults the protocol outcome must be invariant while the
    // syscall schedule differs.
    let w = workload(3, 40);
    let cfg = MonitorConfig::builder(0.4).build();
    let run = |seed| {
        traced(
            Simulation::new(f(), cfg.clone())
                .with_net_seed(seed)
                .with_limits(17, 256),
            &w,
        )
    };
    let (a, net_a, trace_a) = run(1);
    let (b, net_b, trace_b) = run(2);
    assert!(a.quiesced && b.quiesced);
    assert_eq!(
        trace_a, trace_b,
        "fault-free protocol events must not depend on byte chunking"
    );
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.retransmits, 0, "no faults, no retransmits");
    assert_ne!(
        net_a.syscalls, net_b.syscalls,
        "different chunk schedules should change the simulated syscall mix"
    );
}

#[test]
fn different_fault_seed_diverges() {
    let w = workload(4, 60);
    let cfg = MonitorConfig::builder(0.4).build();
    let run = |seed| {
        let p = FaultPlan::seeded(seed)
            .with_drop_rate(0.15)
            .with_delay(0.1, 3);
        traced(
            Simulation::new(f(), cfg.clone())
                .with_plan(p)
                .with_net_seed(7),
            &w,
        )
        .2
    };
    assert_ne!(
        run(1),
        run(99),
        "different fault seeds must produce different traces"
    );
}

#[test]
fn drops_are_recovered_by_retransmission() {
    let w = workload(3, 50);
    let cfg = MonitorConfig::builder(0.4).build();
    let p = FaultPlan::seeded(5).with_drop_rate(0.2);
    let (r, net, _) = traced(Simulation::new(f(), cfg).with_plan(p).with_net_seed(11), &w);
    assert!(r.quiesced, "dropped frames must not wedge the protocol");
    assert!(net.faults.drops > 0, "a 20% drop rate must fire");
    assert!(
        r.stats.retransmits > 0,
        "dropped frames must force retransmissions"
    );
    // Delivered frames only, charged once each: the ledger conserves the
    // totals under faults on this link too.
    let rows = r.stats.ledger.as_deref().expect("ledger attached");
    assert_eq!(
        rows.iter().map(|r| r.msgs).sum::<u64>() as usize,
        r.stats.messages
    );
    assert_eq!(
        rows.iter().map(|r| r.bytes).sum::<u64>() as usize,
        r.stats.payload_bytes
    );
    assert!(
        rows.iter().any(|r| r.cause == "retransmit" && r.msgs > 0),
        "{rows:?}"
    );
}

/// What each ladder fault does on the reactor link, not only that it
/// replays: a drop, a duplicate, a reorder and a delay change different
/// totals, so moving any of them (or the coordinator crash's recovery)
/// changes a number pinned here. The values are this run's at the time
/// the reactor itself applied the ladder.
#[test]
fn every_ladder_fault_and_a_coordinator_crash_pin_the_run() {
    let w = workload(5, 90);
    let cfg = MonitorConfig::builder(0.3).build();
    let plan = FaultPlan::seeded(31)
        .with_drop_rate(0.06)
        .with_duplicate_rate(0.06)
        .with_reorder_rate(0.08)
        .with_delay(0.08, 3)
        .with_coordinator_crash(40);
    let sim = Simulation::new(f(), cfg)
        .with_plan(plan)
        .with_net_seed(5)
        .with_limits(19, 384);
    let (r, net, _) = traced(sim, &w);
    assert!(r.quiesced, "the run must drain");
    let s = &r.stats;
    assert_eq!((s.messages, s.payload_bytes), (986, 35011));
    assert_eq!((s.retransmits, s.injected_faults), (33, 98));
    assert_eq!((s.full_syncs, s.lazy_syncs), (22, 106));
    assert_eq!(s.coordinator_recoveries, 1);
    assert_eq!(
        net.faults,
        GateCounts {
            drops: 20,
            duplicates: 22,
            reorders: 25,
            delays: 31,
            gated: 407,
        }
    );
}

/// Where the reactor link releases matured delayed frames within a round:
/// after a coordinator crash's recovery exchange and the round's rejoins,
/// where the chaos fabric releases its own, so one plan means one schedule
/// on both links. Releasing them as the round begins, ahead of the
/// recovery push, read 934 messages here instead of 1 046; a crash at
/// round 40, as above, happens not to show the difference.
#[test]
fn matured_frames_follow_a_coordinator_recovery() {
    let w = workload(5, 90);
    let cfg = MonitorConfig::builder(0.3).build();
    let plan = FaultPlan::seeded(31)
        .with_drop_rate(0.06)
        .with_duplicate_rate(0.06)
        .with_reorder_rate(0.08)
        .with_delay(0.08, 3)
        .with_coordinator_crash(20);
    let sim = Simulation::new(f(), cfg)
        .with_plan(plan)
        .with_net_seed(5)
        .with_limits(19, 384);
    let (r, net, _) = traced(sim, &w);
    assert!(r.quiesced, "the run must drain");
    let s = &r.stats;
    assert_eq!((s.messages, s.payload_bytes), (1046, 37466));
    assert_eq!((s.retransmits, s.injected_faults), (34, 104));
    assert_eq!((s.full_syncs, s.lazy_syncs), (25, 112));
    assert_eq!(s.coordinator_recoveries, 1);
    assert_eq!(
        net.faults,
        GateCounts {
            drops: 22,
            duplicates: 23,
            reorders: 27,
            delays: 32,
            gated: 433,
        }
    );
}
