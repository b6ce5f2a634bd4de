//! Snapshot/restore round-trip property: cutting a coordinator's life
//! at ANY quiescent point with `restore(snapshot())` must be
//! undetectable — the subsequent outbound trace and the final protocol
//! state are byte-identical to the uninterrupted run. This is the
//! fidelity contract the durable store's crash recovery builds on
//! (docs/DURABILITY.md). Histories mix updates with evictions (and the
//! rejoins later updates cause), and after every step the alive count,
//! the per-node flags and the LRU order must name the same members.

use std::collections::VecDeque;
use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{Coordinator, MonitorConfig, MonitoredFunction, Node, NodeMessage, Outbound};
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

/// One step of a history: a data update at a node, or the node's
/// eviction. A later update from an evicted node that reaches the
/// coordinator is its rejoin.
#[derive(Clone, Debug)]
enum Op {
    Update(usize, Vec<f64>),
    Evict(usize),
}

/// Apply one op, FIFO-routing every cascading message, appending a
/// line per coordinator outbound to `trace` (when given).
fn step(coord: &mut Coordinator, nodes: &mut [Node], op: &Op, trace: Option<&mut Vec<String>>) {
    let mut sink = Vec::new();
    let trace = trace.unwrap_or(&mut sink);
    let mut inbox: VecDeque<NodeMessage> = VecDeque::new();
    let first = match op {
        Op::Update(node, x) => {
            inbox.extend(nodes[*node].update_data(x.clone()));
            Vec::new()
        }
        Op::Evict(node) => coord.evict(*node),
    };
    let mut deliver = |outs: Vec<Outbound>, inbox: &mut VecDeque<NodeMessage>| {
        for out in outs {
            trace.push(format!("{out:?}"));
            if let Some(reply) = nodes[out.to].handle(out.msg) {
                inbox.push_back(reply);
            }
        }
    };
    deliver(first, &mut inbox);
    while let Some(m) = inbox.pop_front() {
        deliver(coord.handle(m), &mut inbox);
    }
}

/// The membership set has one home: the alive count, the per-node
/// flags and the LRU order must all describe the same nodes.
fn assert_membership(coord: &Coordinator, n: usize) {
    let alive: Vec<usize> = (0..n).filter(|&i| coord.is_alive(i)).collect();
    assert_eq!(coord.alive_count(), alive.len());
    let snap = coord.snapshot().expect("quiescent between ops");
    let mut lru = snap.lru.clone();
    lru.sort_unstable();
    assert_eq!(lru, alive, "LRU order links exactly the alive nodes");
    assert_eq!(snap.alive, (0..n).map(|i| coord.is_alive(i)).collect::<Vec<_>>());
}

/// Run `ops` over a fresh fleet, recording the outbound trace from
/// op index `record_from` onward. When `restore_at` is set, the
/// coordinator is snapshot + restored right before that op.
/// Returns the recorded trace plus the final protocol snapshot.
fn run(
    n: usize,
    ops: &[Op],
    record_from: usize,
    restore_at: Option<usize>,
) -> (Vec<String>, automon_core::CoordinatorSnapshot) {
    let f = prod2();
    let mut coord = Coordinator::new(f.clone(), n, cfg());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    let mut trace = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if restore_at == Some(i) {
            // Every op boundary is quiescent (routing drains the
            // cascade), so the snapshot must exist.
            let snap = coord.snapshot().expect("quiescent between ops");
            coord = Coordinator::restore(f.clone(), cfg(), snap);
            assert_membership(&coord, n);
        }
        let rec = (i >= record_from).then_some(&mut trace);
        step(&mut coord, &mut nodes, op, rec);
        assert_membership(&coord, n);
    }
    let final_snap = coord.snapshot().expect("quiescent at end");
    (trace, final_snap)
}

/// Decode one raw op: one in eight evicts its target node, the rest
/// are updates with a dim-2 vector on a coarse grid (exact in f64;
/// never produces -0.0, which JSON round-trips differently).
fn decode_op(op: u64, n: usize) -> Op {
    let node = (op % n as u64) as usize;
    if (op >> 24).is_multiple_of(8) {
        return Op::Evict(node);
    }
    let a = ((op >> 8) % 17) as i32 - 8;
    let b = ((op >> 16) % 17) as i32 - 8;
    Op::Update(node, vec![f64::from(a) * 0.25, f64::from(b) * 0.25])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restore_mid_history_is_undetectable(
        n in 2usize..=4,
        ops in proptest::collection::vec(0u64..1u64 << 32, 4..24),
        cut_sel in 0u64..1u64 << 32,
    ) {
        let seq: Vec<Op> = ops.iter().map(|&op| decode_op(op, n)).collect();
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
        let seq: Vec<Op> = ops.iter().map(|&op| decode_op(op, n)).collect();
        let f = prod2();
        let mut coord = Coordinator::new(f.clone(), n, cfg());
        let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
        for op in &seq {
            step(&mut coord, &mut nodes, op, None);
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
