//! Allocations on the protocol's hot paths, counted rather than timed.
//!
//! A counting global allocator tallies the calling thread's allocations
//! while a probe is armed (each test runs on its own thread, so parallel
//! tests do not pollute each other's tallies). It pins three properties
//! of sharing one sync's constraints:
//!
//! * a quiet `Node::update_data` allocates nothing, fed an owned or a
//!   borrowed vector;
//! * an in-process ADCD-E full sync over `k` members allocates the `k`
//!   slack vectors plus a constant, and the members' installs allocate
//!   nothing at all;
//! * afterwards every member holds the coordinator's own zone head and
//!   curvature allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{
    Coordinator, CoordinatorMessage, MonitorConfig, MonitoredFunction, Node, NodeMessage,
};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    // `try_with`: the thread's slots may already be gone while it exits.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `body`'s result and the allocations it made on this thread.
fn allocations<T>(body: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = body();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// `x₀·x₂ + x₁·x₃`: a constant, indefinite Hessian (ADCD-E, quadratic
/// penalty), as the inner-product workloads monitor.
struct Inner4;
impl ScalarFn for Inner4 {
    fn dim(&self) -> usize {
        4
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0] * x[2] + x[1] * x[3]
    }
}

fn f() -> Arc<dyn MonitoredFunction> {
    Arc::new(AutoDiffFn::new(Inner4))
}

/// Deliver `first` and every cascading reply FIFO.
fn route(coord: &mut Coordinator, nodes: &mut [Node], first: NodeMessage) {
    let mut inbox = VecDeque::from([first]);
    while let Some(m) = inbox.pop_front() {
        for out in coord.handle(m) {
            inbox.extend(nodes[out.to].handle(out.msg));
        }
    }
}

fn start(k: usize) -> (Coordinator, Vec<Node>) {
    let f = f();
    let cfg = MonitorConfig::builder(0.5).without_lazy_sync().build();
    let mut coord = Coordinator::new(f.clone(), k, cfg);
    let mut nodes: Vec<Node> = (0..k).map(|i| Node::new(i, f.clone())).collect();
    for i in 0..k {
        let m = nodes[i].update_data(vec![0.1 * i as f64, 0.2, 0.3, 0.4]).unwrap();
        route(&mut coord, &mut nodes, m);
    }
    assert_eq!(coord.stats().full_syncs, 1);
    (coord, nodes)
}

fn assert_members_share(coord: &Coordinator, nodes: &[Node]) {
    let zone = coord.zone().expect("synced");
    for n in nodes {
        let held = n.zone().expect("installed");
        assert!(
            held.shares_allocation(zone),
            "node {} holds a copy of the zone",
            n.id()
        );
    }
}

#[test]
fn a_quiet_update_allocates_nothing() {
    let (_, mut nodes) = start(3);
    // The first check grows the thread's scratch buffers; later ones
    // reuse them.
    assert!(nodes[0].update_data(vec![0.0, 0.2, 0.3, 0.4]).is_none());
    for step in 1..=16 {
        let x = vec![0.001 * step as f64, 0.2, 0.3, 0.4];
        let (report, allocs) = allocations(|| nodes[0].update_data(&x));
        assert!(report.is_none(), "step {step} left the zone");
        assert_eq!(allocs, 0, "quiet borrowed update {step} allocated");
        let (report, allocs) = allocations(|| nodes[0].update_data(x));
        assert!(report.is_none(), "step {step} left the zone");
        assert_eq!(allocs, 0, "quiet update {step} allocated");
    }
}

/// Drive one full sync (a violation with lazy sync off) and return the
/// allocations of the coordinator call that performs it and of the
/// members' installs.
fn full_sync_allocations(k: usize) -> (usize, usize) {
    let (mut coord, mut nodes) = start(k);
    assert_members_share(&coord, &nodes);
    let violation = nodes[0].update_data(vec![9.0, 0.2, 0.3, 0.4]).expect("violation");
    let pulls = coord.handle(violation);
    assert_eq!(pulls.len(), k - 1);
    let replies: Vec<NodeMessage> = pulls
        .into_iter()
        .map(|o| nodes[o.to].handle(o.msg).expect("pulled node replies"))
        .collect();
    let mut replies = replies.into_iter();
    let last = replies.next_back().expect("k > 1");
    for r in replies {
        assert!(coord.handle(r).is_empty(), "the sync waits for every vector");
    }
    let (installs, sync_allocs) = allocations(|| coord.handle(last));
    assert_eq!(installs.len(), k);
    assert!(installs
        .iter()
        .all(|o| matches!(o.msg, CoordinatorMessage::NewConstraintsCached { .. })));
    let (_, install_allocs) = allocations(|| {
        for o in installs {
            assert!(nodes[o.to].handle(o.msg).is_none());
        }
    });
    assert_eq!(coord.stats().full_syncs, 2);
    assert_members_share(&coord, &nodes);
    (sync_allocs, install_allocs)
}

#[test]
fn an_adcd_e_full_sync_allocates_the_slacks_and_a_constant() {
    let (small, small_installs) = full_sync_allocations(4);
    let (large, large_installs) = full_sync_allocations(32);
    assert_eq!(small_installs, 0, "an install allocated");
    assert_eq!(large_installs, 0, "an install allocated");
    // One slack vector per member; everything else is per sync: `x0`,
    // `∇f(x0)`, the shared head and the outbound list.
    assert_eq!(large - small, 32 - 4, "per-member allocations beyond the slack");
    assert!(small <= 4 + 4, "{small} allocations for a 4-member sync");
}
