//! Protocol edge cases: single-node systems, lazy-sync escalation, LRU
//! ordering, faulty-constraint recovery, adaptive neighborhood growth,
//! and reports of the wrong dimension.

use std::collections::VecDeque;
use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{
    Coordinator, CoordinatorMessage, MonitorConfig, MonitoredFunction, NeighborhoodMode, Node,
    NodeMessage, ViolationKind,
};

struct Mean1;
impl ScalarFn for Mean1 {
    fn dim(&self) -> usize {
        1
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0]
    }
}

struct Sin1;
impl ScalarFn for Sin1 {
    fn dim(&self) -> usize {
        1
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0].sin()
    }
}

fn mean1() -> Arc<dyn MonitoredFunction> {
    Arc::new(AutoDiffFn::new(Mean1))
}

/// FIFO-route a message and all cascading replies; count messages.
fn route(coord: &mut Coordinator, nodes: &mut [Node], first: NodeMessage) -> usize {
    let mut inbox = VecDeque::from([first]);
    let mut count = 0;
    while let Some(m) = inbox.pop_front() {
        count += 1;
        for out in coord.handle(m) {
            count += 1;
            if let Some(reply) = nodes[out.to].handle(out.msg) {
                inbox.push_back(reply);
            }
        }
    }
    count
}

fn init(coord: &mut Coordinator, nodes: &mut [Node], x: f64) {
    for i in 0..nodes.len() {
        if let Some(m) = nodes[i].update_data(vec![x]) {
            route(coord, nodes, m);
        }
    }
}

#[test]
fn single_node_system_works() {
    let f = mean1();
    let mut coord = Coordinator::new(f.clone(), 1, MonitorConfig::builder(0.1).build());
    let mut nodes = vec![Node::new(0, f)];
    init(&mut coord, &mut nodes, 0.0);
    assert_eq!(coord.stats().full_syncs, 1);
    // Drift past ε: with n = 1, every violation is a full sync.
    let m = nodes[0].update_data(vec![0.5]).expect("violation");
    route(&mut coord, &mut nodes, m);
    assert_eq!(coord.stats().full_syncs, 2);
    assert_eq!(coord.stats().lazy_syncs, 0);
    assert_eq!(coord.current_value(), Some(0.5));
}

#[test]
fn lazy_escalates_to_full_when_majority_cannot_balance() {
    // All nodes drift the same way: no balancing set can cancel it, so
    // lazy must escalate and the full sync must recenter.
    let f = mean1();
    let n = 5;
    let mut coord = Coordinator::new(f.clone(), n, MonitorConfig::builder(0.1).build());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    init(&mut coord, &mut nodes, 0.0);

    // Everyone moves to 1.0; first reporter triggers the cascade.
    let mut reports = Vec::new();
    for node in &mut nodes {
        if let Some(m) = node.update_data(vec![1.0]) {
            reports.push(m);
        }
    }
    let mut inbox: VecDeque<NodeMessage> = reports.into();
    while let Some(m) = inbox.pop_front() {
        for out in coord.handle(m) {
            if let Some(reply) = nodes[out.to].handle(out.msg) {
                inbox.push_back(reply);
            }
        }
    }
    assert_eq!(coord.stats().full_syncs, 2, "{:?}", coord.stats());
    assert_eq!(coord.current_value(), Some(1.0));
    // All nodes are quiet at the new reference.
    for node in &mut nodes {
        assert!(node.update_data(vec![1.0]).is_none());
    }
}

#[test]
fn faulty_constraints_force_full_sync() {
    // sin with a crippled eigen search under-estimates curvature; the
    // node-side sanity check reports FaultyConstraints and the
    // coordinator must resolve it with a full sync (never lazily).
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Sin1));
    let cfg = MonitorConfig::builder(0.05)
        .neighborhood(NeighborhoodMode::Fixed(2.0))
        .eigen_search(automon_core::EigenSearch {
            probes: 0,
            nm_iters: 0,
            ..Default::default()
        })
        .build();
    let n = 3;
    let mut coord = Coordinator::new(f.clone(), n, cfg);
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    // Start near the inflection so center-only probing under-estimates.
    init(&mut coord, &mut nodes, 0.1);
    let full_before = coord.stats().full_syncs;

    // March the nodes along sin's curve until something trips.
    let mut faulty_seen = false;
    for t in 1..200 {
        let x = 0.1 + t as f64 * 0.02;
        for i in 0..n {
            if let Some(m) = nodes[i].update_data(vec![x]) {
                if matches!(
                    m,
                    NodeMessage::Violation {
                        kind: ViolationKind::FaultyConstraints,
                        ..
                    }
                ) {
                    faulty_seen = true;
                }
                route(&mut coord, &mut nodes, m);
            }
        }
    }
    // Whether or not a faulty report occurred on this trajectory, the
    // coordinator must have kept the estimate sane via full syncs.
    assert!(coord.stats().full_syncs > full_before);
    if faulty_seen {
        assert!(coord.stats().faulty_reports > 0);
    }
    let estimate = coord.current_value().expect("initialized");
    let truth = (0.1 + 199.0 * 0.02).sin();
    assert!((estimate - truth).abs() < 0.5, "estimate {estimate} truth {truth}");
}

#[test]
fn adaptive_r_doubles_under_neighborhood_pressure() {
    // Rapidly drifting data with a microscopic fixed starting radius:
    // the §3.6 heuristic must double r (several times) once 5n
    // consecutive neighborhood violations accumulate.
    struct Quad1;
    impl ScalarFn for Quad1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0] * x[0] * x[0] // non-constant Hessian → ADCD-X + B
        }
    }
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Quad1));
    let cfg = MonitorConfig::builder(5.0)
        .neighborhood(NeighborhoodMode::Adaptive(1e-6))
        .build();
    let mut coord = Coordinator::new(f.clone(), 2, cfg);
    let mut nodes: Vec<Node> = (0..2).map(|i| Node::new(i, f.clone())).collect();
    init(&mut coord, &mut nodes, 0.0);
    assert_eq!(coord.neighborhood_r(), 1e-6);

    for t in 1..200 {
        let x = t as f64 * 0.001; // leaves a 1e-6 box every round
        for i in 0..2 {
            if let Some(m) = nodes[i].update_data(vec![x]) {
                route(&mut coord, &mut nodes, m);
            }
        }
    }
    assert!(
        coord.stats().r_doublings > 0,
        "adaptive growth never fired: {:?}",
        coord.stats()
    );
    assert!(coord.neighborhood_r() > 1e-6);
}

#[test]
fn lru_pulls_least_recently_contacted_node_first() {
    let f = mean1();
    let n = 3;
    let mut coord = Coordinator::new(f.clone(), n, MonitorConfig::builder(0.1).build());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    // Register in order 0, 1, 2 → node 0 is least recently contacted.
    init(&mut coord, &mut nodes, 0.0);

    // Node 2 violates; the coordinator's first pull must target node 0.
    let m = nodes[2].update_data(vec![1.0]).expect("violation");
    let outs = coord.handle(m);
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].to, 0, "expected LRU node 0, got {}", outs[0].to);
}

#[test]
fn messages_quiesce_after_every_resolution() {
    // Liveness: any single-node violation cascade terminates and leaves
    // all nodes unpending.
    let f = mean1();
    let n = 4;
    let mut coord = Coordinator::new(f.clone(), n, MonitorConfig::builder(0.2).build());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    init(&mut coord, &mut nodes, 0.0);
    for t in 1..50 {
        let x = (t as f64 * 0.7).sin();
        for i in 0..n {
            if let Some(m) = nodes[i].update_data(vec![x + 0.01 * i as f64]) {
                let count = route(&mut coord, &mut nodes, m);
                assert!(count < 100, "cascade failed to quiesce promptly");
            }
        }
        assert!(nodes.iter().all(|nd| !nd.is_pending()), "round {t}");
    }
}

#[test]
fn snapshot_restore_failover_round_trip() {
    // Run a while, snapshot, "crash", restore a fresh coordinator from
    // the (serialized) snapshot, re-sync the nodes, and keep monitoring.
    let f = mean1();
    let n = 3;
    let cfg = MonitorConfig::builder(0.1).build();
    let mut coord = Coordinator::new(f.clone(), n, cfg.clone());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    init(&mut coord, &mut nodes, 0.0);
    let m = nodes[0].update_data(vec![0.5]).expect("violation");
    route(&mut coord, &mut nodes, m);
    let value_before = coord.current_value();

    // Snapshot is only offered while quiescent.
    let snap = coord.snapshot().expect("quiescent coordinator snapshots");
    let json = serde_json::to_string(&snap).unwrap();
    drop(coord); // the crash

    let snap: automon_core::CoordinatorSnapshot = serde_json::from_str(&json).unwrap();
    let mut coord = Coordinator::restore(f.clone(), cfg, snap);
    assert_eq!(coord.current_value(), value_before);
    // Re-install constraints on (possibly restarted) nodes.
    let mut fresh: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    for out in coord.resync_messages() {
        assert!(fresh[out.to].handle(out.msg).is_none());
    }
    // The revived system keeps monitoring: restarted nodes first feed
    // their current data (silent near their last values)…
    assert!(fresh[0].update_data(vec![0.5]).is_none());
    assert!(fresh[1].update_data(vec![0.05]).is_none());
    let m = fresh[2].update_data(vec![5.0]).expect("violation");
    route(&mut coord, &mut fresh, m);
    assert!(coord.current_value().unwrap() > value_before.unwrap());
}

#[test]
fn snapshot_refused_mid_sync() {
    let f = mean1();
    let mut coord = Coordinator::new(f.clone(), 3, MonitorConfig::builder(0.1).build());
    let mut nodes: Vec<Node> = (0..3).map(|i| Node::new(i, f.clone())).collect();
    init(&mut coord, &mut nodes, 0.0);
    // Trigger a violation but do NOT deliver the coordinator's pulls:
    // the coordinator is now mid-lazy-sync.
    let m = nodes[0].update_data(vec![9.0]).expect("violation");
    let outs = coord.handle(m);
    assert!(!outs.is_empty());
    assert!(coord.snapshot().is_none(), "mid-sync snapshot must be refused");
}

#[test]
fn stats_and_current_value_follow_the_syncs() {
    let f = mean1();
    let n = 2;
    let mut coord = Coordinator::new(f.clone(), n, MonitorConfig::builder(0.1).build());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    init(&mut coord, &mut nodes, 0.0);
    // The first sync installs f(x0) = 0.
    assert_eq!(coord.stats().full_syncs, 1);
    assert_eq!(coord.current_value(), Some(0.0));

    // Opposite drifts → one lazy sync; common drift → full sync.
    let m0 = nodes[0].update_data(vec![0.5]).expect("violation");
    assert!(nodes[1].update_data(vec![-0.5]).is_some());
    route(&mut coord, &mut nodes, m0);
    assert!(coord.stats().lazy_syncs >= 1, "{:?}", coord.stats());
    assert_eq!(coord.current_value(), Some(0.0), "a lazy sync keeps x0");
    // Re-arm node 1 (its report was absorbed by the lazy resolution).
    let m = nodes[0].update_data(vec![5.0]).expect("violation");
    route(&mut coord, &mut nodes, m);

    assert!(coord.stats().full_syncs >= 2, "{:?}", coord.stats());
    assert_ne!(coord.current_value(), Some(0.0));
}

#[test]
fn constant_hessian_syncs_reuse_curvature_after_first() {
    use automon_core::CoordinatorMessage;

    // Quadratic f = x² (constant Hessian): the second and later full
    // syncs must ship the matrix-free cached form.
    struct Sq;
    impl ScalarFn for Sq {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0] * x[0]
        }
    }
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Sq));
    let mut coord = Coordinator::new(f.clone(), 1, MonitorConfig::builder(0.1).build());
    let mut node = Node::new(0, f);

    // First sync: full constraints.
    let m = node.update_data(vec![0.0]).unwrap();
    let outs = coord.handle(m);
    assert!(matches!(outs[0].msg, CoordinatorMessage::NewConstraints { .. }));
    assert!(node.handle(outs[0].msg.clone()).is_none());
    let penalty = coord.zone().unwrap().curvature.clone();

    // Violation → second sync: cached constraints.
    let m = node.update_data(vec![1.0]).expect("violation");
    let outs = coord.handle(m);
    assert!(
        matches!(outs[0].msg, CoordinatorMessage::NewConstraintsCached { .. }),
        "{:?}",
        outs[0].msg
    );
    assert!(node.handle(outs[0].msg.clone()).is_none());
    // The node's zone carries the reused curvature and new reference;
    // both sides moved the first sync's penalty across, neither lost it.
    let z = node.zone().unwrap();
    assert_eq!(z.f0, 1.0);
    assert_eq!(z.curvature, penalty);
    assert_eq!(coord.zone().unwrap().curvature, penalty);
    // Monitoring continues correctly on the reused curvature.
    assert!(node.update_data(vec![1.01]).is_none());
    assert!(node.update_data(vec![2.0]).is_some());
}

#[test]
fn a_wrong_length_vector_is_refused_and_resynced() {
    let f = mean1();
    let cfg = MonitorConfig::builder(0.1).without_lazy_sync().build();
    let mut coord = Coordinator::new(f.clone(), 2, cfg);
    let mut nodes = vec![Node::new(0, f.clone()), Node::new(1, f)];
    init(&mut coord, &mut nodes, 0.0);
    let epoch = coord.epoch();

    // Node 0 drifts past ε; the full sync pulls node 1.
    let m = nodes[0].update_data(vec![0.5]).expect("violation");
    let pulls = coord.handle(m);
    assert_eq!(pulls.iter().map(|o| o.to).collect::<Vec<_>>(), vec![1]);

    // Node 1 answers with two entries for a one-dimensional f: refused,
    // not summed into x0, and answered as a stale frame is, with the
    // constraints in force and the pull re-issued.
    let bad = NodeMessage::LocalVector {
        node: 1,
        vector: vec![0.0, 0.0],
        epoch,
    };
    let out = coord.handle(bad);
    assert_eq!(coord.stats().malformed_discards, 1);
    assert_eq!(coord.stats().resyncs, 1);
    assert_eq!(coord.stats().full_syncs, 1, "the sync still waits for node 1");
    assert!(coord.is_resolving());
    assert_eq!(out.iter().map(|o| o.to).collect::<Vec<_>>(), vec![1, 1]);
    assert!(matches!(out[0].msg, CoordinatorMessage::NewConstraints { .. }));
    assert!(matches!(out[1].msg, CoordinatorMessage::RequestLocalVector { .. }));

    // The re-issued pull completes the sync with node 1's real vector.
    for o in out {
        if let Some(reply) = nodes[1].handle(o.msg) {
            route(&mut coord, &mut nodes, reply);
        }
    }
    assert_eq!(coord.stats().full_syncs, 2);
    assert_eq!(coord.current_value(), Some(0.25));

    // A wrong-length violation report while monitoring is refused too.
    let bad = NodeMessage::Violation {
        node: 0,
        kind: ViolationKind::SafeZone,
        local_vector: vec![],
        epoch: coord.epoch(),
    };
    let out = coord.handle(bad);
    assert_eq!(coord.stats().malformed_discards, 2);
    assert_eq!(coord.stats().safezone_violations, 1, "not counted as a violation");
    assert_eq!(out.len(), 1);
    assert!(!coord.is_resolving());
}
