//! Snapshot/restore round-trip property: cutting a coordinator's life
//! at ANY quiescent point with `restore(snapshot())` must be
//! undetectable — the subsequent outbound trace and the final protocol
//! state are byte-identical to the uninterrupted run. This is the
//! fidelity contract the durable store's crash recovery builds on
//! (docs/DURABILITY.md).

use std::collections::VecDeque;
use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{Coordinator, MonitorConfig, MonitoredFunction, Node, NodeMessage};
use proptest::prelude::*;

/// A genuinely curved dim-2 function (x·y), so full syncs ship real
/// curvature and the §4.4 cached-install path (`node_has_curvature`)
/// is exercised by the round trip.
struct Prod2;
impl ScalarFn for Prod2 {
    fn dim(&self) -> usize {
        2
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0] * x[1]
    }
}

fn prod2() -> Arc<dyn MonitoredFunction> {
    Arc::new(AutoDiffFn::new(Prod2))
}

fn cfg() -> MonitorConfig {
    MonitorConfig::builder(0.5).build()
}

/// Feed one data update through the protocol, FIFO-routing every
/// cascading message, appending a line per coordinator outbound to
/// `trace` (when given).
fn step(
    coord: &mut Coordinator,
    nodes: &mut [Node],
    node: usize,
    x: Vec<f64>,
    trace: Option<&mut Vec<String>>,
) {
    let mut sink = Vec::new();
    let trace = trace.unwrap_or(&mut sink);
    let mut inbox: VecDeque<NodeMessage> = VecDeque::new();
    if let Some(m) = nodes[node].update_data(x) {
        inbox.push_back(m);
    }
    while let Some(m) = inbox.pop_front() {
        for out in coord.handle(m) {
            trace.push(format!("{out:?}"));
            if let Some(reply) = nodes[out.to].handle(out.msg) {
                inbox.push_back(reply);
            }
        }
    }
}

/// Run `updates` over a fresh fleet, recording the outbound trace from
/// update index `record_from` onward. When `restore_at` is set, the
/// coordinator is snapshot + restored right before that update.
/// Returns the recorded trace plus the final protocol snapshot.
fn run(
    n: usize,
    updates: &[(usize, Vec<f64>)],
    record_from: usize,
    restore_at: Option<usize>,
) -> (Vec<String>, automon_core::CoordinatorSnapshot) {
    let f = prod2();
    let mut coord = Coordinator::new(f.clone(), n, cfg());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    let mut trace = Vec::new();
    for (i, (node, x)) in updates.iter().enumerate() {
        if restore_at == Some(i) {
            // Every update boundary is quiescent (routing drains the
            // cascade), so the snapshot must exist.
            let snap = coord.snapshot().expect("quiescent between updates");
            coord = Coordinator::restore(f.clone(), cfg(), snap);
        }
        let rec = (i >= record_from).then_some(&mut trace);
        step(&mut coord, &mut nodes, *node, x.clone(), rec);
    }
    let final_snap = coord.snapshot().expect("quiescent at end");
    (trace, final_snap)
}

/// Decode one raw op into an update: target node plus a dim-2 vector
/// on a coarse grid (exact in f64; never produces -0.0, which JSON
/// round-trips differently).
fn decode_op(op: u64, n: usize) -> (usize, Vec<f64>) {
    let node = (op % n as u64) as usize;
    let a = ((op >> 8) % 17) as i32 - 8;
    let b = ((op >> 16) % 17) as i32 - 8;
    (node, vec![f64::from(a) * 0.25, f64::from(b) * 0.25])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restore_mid_history_is_undetectable(
        n in 2usize..=4,
        ops in proptest::collection::vec(0u64..1u64 << 32, 4..24),
        cut_sel in 0u64..1u64 << 32,
    ) {
        let seq: Vec<(usize, Vec<f64>)> =
            ops.iter().map(|&op| decode_op(op, n)).collect();
        let cut = (cut_sel as usize) % seq.len();
        // Control: uninterrupted run, trace recorded from `cut` so the
        // comparison covers identical ground.
        let (control_suffix, control_final) = run(n, &seq, cut, None);
        let (restored_suffix, restored_final) = run(n, &seq, cut, Some(cut));

        prop_assert_eq!(
            &restored_suffix,
            &control_suffix,
            "trace diverged after restore at update {}",
            cut
        );
        prop_assert_eq!(
            &restored_final,
            &control_final,
            "final state diverged after restore at update {}",
            cut
        );
    }

    #[test]
    fn snapshot_json_round_trip_is_lossless(
        n in 2usize..=4,
        ops in proptest::collection::vec(0u64..1u64 << 32, 4..24),
    ) {
        let seq: Vec<(usize, Vec<f64>)> =
            ops.iter().map(|&op| decode_op(op, n)).collect();
        let f = prod2();
        let mut coord = Coordinator::new(f.clone(), n, cfg());
        let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
        for (node, x) in &seq {
            step(&mut coord, &mut nodes, *node, x.clone(), None);
        }
        let snap = coord.snapshot().expect("quiescent");
        // Persisting through serde (what the durable store does) must
        // reproduce the exact same snapshot, floats included.
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: automon_core::CoordinatorSnapshot =
            serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(
            serde_json::to_string(&back).expect("serializes"),
            json,
            "re-encoding must be byte-stable"
        );
    }
}
