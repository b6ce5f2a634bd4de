//! Decomposition-cache observability round trip: drive a coordinator
//! whose reference point recurs bitwise, render the registry to
//! Prometheus exposition text, parse it back, and check the
//! `automon_coord_decomp_cache_*` counters.

use std::collections::VecDeque;
use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{
    Coordinator, DecompCacheConfig, MonitorConfig, MonitoredFunction, NeighborhoodMode, Node,
    NodeMessage,
};
use automon_obs::{parse_prometheus, value_of, Telemetry};

struct Sin1;
impl ScalarFn for Sin1 {
    fn dim(&self) -> usize {
        1
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0].sin()
    }
}

fn route(coord: &mut Coordinator, nodes: &mut [Node], first: NodeMessage) {
    let mut inbox = VecDeque::from([first]);
    while let Some(m) = inbox.pop_front() {
        for out in coord.handle(m) {
            if let Some(reply) = nodes[out.to].handle(out.msg) {
                inbox.push_back(reply);
            }
        }
    }
}

#[test]
fn cache_counters_round_trip_through_exposition() {
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Sin1));
    let cfg = MonitorConfig::builder(0.05)
        .neighborhood(NeighborhoodMode::Fixed(1.0))
        .decomp_cache(DecompCacheConfig::default())
        .build();
    let mut coord = Coordinator::new(f.clone(), 1, cfg);
    let tel = Telemetry::enabled();
    coord.set_telemetry(tel.clone());
    let mut nodes = vec![Node::new(0, f)];

    // A single node oscillating between two exact values: every
    // violation is a full sync, and after the first lap each reference
    // point recurs bitwise — exact cache hits.
    let m = nodes[0].update_data(vec![0.0]).expect("initial report");
    route(&mut coord, &mut nodes, m);
    for _ in 0..3 {
        for v in [0.8, 0.0] {
            let m = nodes[0].update_data(vec![v]).expect("violation");
            route(&mut coord, &mut nodes, m);
        }
    }
    assert!(coord.stats().full_syncs >= 4, "{:?}", coord.stats());

    let text = tel.prometheus();
    let samples = parse_prometheus(&text).expect("well-formed exposition");
    let hits = value_of(&samples, "automon_coord_decomp_cache_hits_total", &[])
        .expect("hits counter exported");
    let misses = value_of(&samples, "automon_coord_decomp_cache_misses_total", &[])
        .expect("misses counter exported");
    assert!(hits >= 1.0, "recurring x0 must produce exact hits: {text}");
    assert!(misses >= 2.0, "both reference points miss once: {text}");
    assert_eq!(
        value_of(&samples, "automon_coord_decomp_cache_evictions_total", &[]),
        Some(0.0),
        "capacity 64 never evicts here"
    );
}

#[test]
fn cache_counters_stay_zero_when_cache_disabled() {
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Sin1));
    let mut coord = Coordinator::new(f.clone(), 1, MonitorConfig::builder(0.05).build());
    let tel = Telemetry::enabled();
    coord.set_telemetry(tel.clone());
    let mut nodes = vec![Node::new(0, f)];
    let m = nodes[0].update_data(vec![0.0]).expect("initial report");
    route(&mut coord, &mut nodes, m);

    let samples = parse_prometheus(&tel.prometheus()).expect("well-formed exposition");
    // The counters are registered unconditionally (stable exposition
    // schema) but must stay at zero without a cache.
    assert_eq!(
        value_of(&samples, "automon_coord_decomp_cache_hits_total", &[]),
        Some(0.0)
    );
    assert_eq!(
        value_of(&samples, "automon_coord_decomp_cache_misses_total", &[]),
        Some(0.0)
    );
}
