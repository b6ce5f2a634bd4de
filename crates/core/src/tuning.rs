//! Neighborhood-size tuning (paper §3.6, Algorithm 2).
//!
//! The optimal neighborhood size `r*` balances neighborhood violations
//! (too small a box) against safe-zone violations (too extreme eigenvalues
//! from too big a box). [`tune_neighborhood_size`] reproduces Algorithm 2:
//! bracket the interesting range by halving/doubling, then grid-search ten
//! radii and keep the one with the fewest total violations. Tuning runs on
//! a recorded prefix of the streams via [`replay`], a synchronous
//! in-process execution of the full protocol.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::config::{MonitorConfig, NeighborhoodMode};
use crate::coordinator::Coordinator;
use crate::messages::NodeMessage;
use crate::node::Node;
use crate::MonitoredFunction;

/// Violation/communication counts from one [`replay`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Neighborhood violations reported.
    pub neighborhood: usize,
    /// Safe-zone violations reported.
    pub safezone: usize,
    /// Faulty-constraint reports.
    pub faulty: usize,
    /// Full syncs performed (including the initial one).
    pub full_syncs: usize,
    /// Lazy syncs resolved.
    pub lazy_syncs: usize,
    /// Total protocol messages exchanged (both directions).
    pub messages: usize,
}

impl ReplayCounts {
    /// Neighborhood + safe-zone violations (the quantity Algorithm 2
    /// minimizes).
    pub fn total_violations(&self) -> usize {
        self.neighborhood + self.safezone
    }
}

/// Result of the tuning procedure.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The recommended neighborhood size `r̂`.
    pub r: f64,
    /// Every `(r, counts)` pair evaluated on the final grid.
    pub grid: Vec<(f64, ReplayCounts)>,
}

/// Run the full protocol synchronously over recorded local-vector series.
///
/// `series[node][round]` is node `node`'s local vector at `round`; series
/// may have unequal lengths (a node simply stops updating when its series
/// ends — this supports the paper's one-node-per-round DNN workload).
/// The neighborhood radius is forced to `Fixed(r)` so each candidate is
/// evaluated at exactly that size.
pub fn replay(
    f: &Arc<dyn MonitoredFunction>,
    series: &[Vec<Vec<f64>>],
    r: f64,
    cfg: &MonitorConfig,
) -> ReplayCounts {
    let n = series.len();
    assert!(n > 0, "replay: need at least one node series");
    let mut cfg = cfg.clone();
    cfg.neighborhood = NeighborhoodMode::Fixed(r);
    let mut coord = Coordinator::new(f.clone(), n, cfg);
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    let rounds = series.iter().map(Vec::len).max().unwrap_or(0);

    let mut messages = 0usize;
    for round in 0..rounds {
        for (i, s) in series.iter().enumerate() {
            let Some(x) = s.get(round) else { continue };
            if let Some(m) = nodes[i].update_data(x.clone()) {
                messages += route(&mut coord, &mut nodes, m);
            }
        }
    }

    let st = coord.stats();
    ReplayCounts {
        neighborhood: st.neighborhood_violations,
        safezone: st.safezone_violations,
        faulty: st.faulty_reports,
        full_syncs: st.full_syncs,
        lazy_syncs: st.lazy_syncs,
        messages,
    }
}

/// Deliver `first` and all cascading replies, FIFO like every transport
/// the protocol runs on (a stack here once replayed a different protocol
/// than the one deployed); returns messages exchanged.
fn route(coord: &mut Coordinator, nodes: &mut [Node], first: NodeMessage) -> usize {
    let mut inbox = VecDeque::from([first]);
    let mut count = 0usize;
    while let Some(m) = inbox.pop_front() {
        count += 1; // node → coordinator
        for out in coord.handle(m) {
            count += 1; // coordinator → node
            if let Some(reply) = nodes[out.to].handle(out.msg) {
                inbox.push_back(reply);
            }
        }
    }
    count
}

/// Evaluate a set of candidate radii (used by the Figure 3 / Figure 8
/// experiments and by the final grid of Algorithm 2).
pub fn evaluate_grid(
    f: &Arc<dyn MonitoredFunction>,
    series: &[Vec<Vec<f64>>],
    radii: &[f64],
    cfg: &MonitorConfig,
) -> Vec<(f64, ReplayCounts)> {
    radii
        .iter()
        .map(|&r| (r, replay(f, series, r, cfg)))
        .collect()
}

/// Paper Algorithm 2: find an approximately optimal neighborhood size.
///
/// `series` should be a small prefix of the streams (the paper uses ~200
/// rounds of synthetic data / ~1.5% of real data).
///
/// ```
/// use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
/// use automon_core::{tuning, MonitorConfig, MonitoredFunction};
/// use std::sync::Arc;
///
/// struct Cubic;
/// impl ScalarFn for Cubic {
///     fn dim(&self) -> usize { 1 }
///     fn call<S: Scalar>(&self, x: &[S]) -> S { x[0] * x[0] * x[0] }
/// }
///
/// // A short recorded prefix for two nodes.
/// let series: Vec<Vec<Vec<f64>>> = (0..2)
///     .map(|i| (0..30).map(|t| vec![0.02 * t as f64 + 0.01 * i as f64]).collect())
///     .collect();
/// let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Cubic));
/// let cfg = MonitorConfig::builder(0.5).build();
/// let result = tuning::tune_neighborhood_size(&f, &series, &cfg);
/// assert!(result.r > 0.0);
/// ```
pub fn tune_neighborhood_size(
    f: &Arc<dyn MonitoredFunction>,
    series: &[Vec<Vec<f64>>],
    cfg: &MonitorConfig,
) -> TuningResult {
    // 16 halvings span radii down to ~1.5e-5 and up to 65536× — far
    // beyond any data scale the protocol can use; each step is a full
    // prefix replay, so the cap is also the tuning-cost bound.
    const MAX_STEPS: usize = 16;
    // Memoize replays: the bracket loops and the grid revisit radii.
    let mut cache: std::collections::BTreeMap<u64, ReplayCounts> =
        std::collections::BTreeMap::new();
    let mut replay_cached = |r: f64| -> ReplayCounts {
        cache
            .entry(r.to_bits())
            .or_insert_with(|| replay(f, series, r, cfg))
            .clone()
    };

    // b ← 1; while no neighborhood violations, halve.
    let mut b = 1.0f64;
    let mut saw_neighborhood = false;
    for _ in 0..MAX_STEPS {
        if replay_cached(b).neighborhood > 0 {
            saw_neighborhood = true;
            break;
        }
        b /= 2.0;
    }
    // lo ← b; while safe-zone violations persist, halve.
    let mut lo = b;
    for _ in 0..MAX_STEPS {
        if replay_cached(lo).safezone == 0 {
            break;
        }
        lo /= 2.0;
    }
    // hi ← b; while neighborhood violations persist, double.
    // Guard beyond the paper's pseudocode: if the prefix was so quiet
    // that halving never produced a neighborhood violation, the bracket
    // would collapse to a microscopic radius that floods the real run
    // with neighborhood violations. Anchor `hi` back at the default
    // radius instead.
    let mut hi = if saw_neighborhood { b } else { 1.0 };
    for _ in 0..MAX_STEPS {
        if replay_cached(hi).neighborhood == 0 {
            break;
        }
        hi *= 2.0;
    }
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }

    // Grid of 10 radii in [lo, hi]; keep the total-violation minimizer.
    // Ties break toward the LARGEST radius: on a quiet tuning prefix many
    // radii show zero violations, and a too-small r would flood the full
    // run with neighborhood violations later.
    let grid_r: Vec<f64> = (0..10)
        .map(|i| lo + (hi - lo) * i as f64 / 9.0)
        .filter(|&r| r > 0.0)
        .collect();
    let grid: Vec<(f64, ReplayCounts)> =
        grid_r.iter().map(|&r| (r, replay_cached(r))).collect();
    let best = grid
        .iter()
        .rev()
        .min_by_key(|(_, c)| c.total_violations())
        .expect("non-empty grid");
    TuningResult {
        r: best.0,
        grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};

    struct Rozenbrock;
    impl ScalarFn for Rozenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            let one = S::from_f64(1.0);
            let hundred = S::from_f64(100.0);
            (one - x[0]) * (one - x[0])
                + hundred * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0])
        }
    }

    fn rozenbrock() -> Arc<dyn MonitoredFunction> {
        Arc::new(AutoDiffFn::new(Rozenbrock))
    }

    /// Deterministic pseudo-random walk data, N(0, 0.2²)-ish.
    fn walk_series(nodes: usize, rounds: usize, seed: u64) -> Vec<Vec<Vec<f64>>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.2
        };
        (0..nodes)
            .map(|_| (0..rounds).map(|_| vec![next(), next()]).collect())
            .collect()
    }

    #[test]
    fn replay_runs_and_counts() {
        let f = rozenbrock();
        let series = walk_series(3, 40, 42);
        let cfg = MonitorConfig::builder(0.5).build();
        let counts = replay(&f, &series, 0.5, &cfg);
        assert!(counts.full_syncs >= 1);
        assert!(counts.messages > 0);
    }

    #[test]
    fn tiny_radius_causes_neighborhood_violations() {
        let f = rozenbrock();
        let series = walk_series(3, 40, 7);
        let cfg = MonitorConfig::builder(10.0).build(); // huge ε: no SZ viols
        let tight = replay(&f, &series, 1e-4, &cfg);
        assert!(
            tight.neighborhood > 0,
            "expected neighborhood violations, got {tight:?}"
        );
        let roomy = replay(&f, &series, 10.0, &cfg);
        assert!(roomy.neighborhood < tight.neighborhood);
    }

    #[test]
    fn tuning_returns_radius_in_bracket() {
        let f = rozenbrock();
        let series = walk_series(3, 30, 99);
        let cfg = MonitorConfig::builder(0.5).build();
        let result = tune_neighborhood_size(&f, &series, &cfg);
        assert!(result.r > 0.0);
        assert!(!result.grid.is_empty());
        // The recommendation must be a grid member with minimal violations.
        let min = result
            .grid
            .iter()
            .map(|(_, c)| c.total_violations())
            .min()
            .unwrap();
        let picked = result
            .grid
            .iter()
            .find(|(r, _)| *r == result.r)
            .expect("picked radius evaluated");
        assert_eq!(picked.1.total_violations(), min);
    }

    #[test]
    fn uneven_series_lengths_supported() {
        let f = rozenbrock();
        let mut series = walk_series(2, 20, 5);
        series[1].truncate(5);
        let cfg = MonitorConfig::builder(0.5).build();
        let counts = replay(&f, &series, 0.5, &cfg);
        assert!(counts.full_syncs >= 1);
    }
}
