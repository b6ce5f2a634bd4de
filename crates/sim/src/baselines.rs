//! Baseline algorithms (paper §4.1): Centralization, Periodic, and the
//! hand-crafted Convex Bound arm.

use std::sync::Arc;

use automon_core::{AdcdKind, MonitorConfig, MonitoredFunction, NodeMessage};
use automon_linalg::vector;
use automon_net::wire;

use crate::runner::Simulation;
use crate::stats::RunStats;
use crate::workload::Workload;

/// Which algorithm a run used (labeling for the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Baseline {
    /// AutoMon proper.
    AutoMon,
    /// Every node sends every update.
    Centralization,
    /// Every node sends every `P` rounds.
    Periodic(usize),
    /// Convex Bound (Lazerson et al.): the hand-crafted inner-product
    /// decomposition `⟨u,v⟩ = ¼‖u+v‖² - ¼‖u-v‖²`, run through the same
    /// GM protocol. Equivalent to forcing ADCD-E (the paper proves the
    /// equivalence in §4.3), valid only for constant-Hessian functions.
    ConvexBound,
}

impl Baseline {
    /// Harness label.
    pub fn label(&self) -> String {
        match self {
            Baseline::AutoMon => "AutoMon".into(),
            Baseline::Centralization => "Centralization".into(),
            Baseline::Periodic(p) => format!("Periodic({p})"),
            Baseline::ConvexBound => "CB".into(),
        }
    }
}

/// Wire size of one baseline report: the `LocalVector` frame carrying `x`.
pub(crate) fn report_bytes(node: usize, x: &[f64]) -> usize {
    let report = NodeMessage::LocalVector {
        node,
        vector: x.to_vec(),
        epoch: 0,
    };
    wire::node_message_len(&report)
}

/// Centralization: every node forwards every local-vector update; the
/// coordinator always holds the exact aggregate (error 0 for dense
/// workloads; for event-driven workloads the estimate is exact by
/// construction as well, since it re-evaluates on every update).
pub fn run_centralization(f: &Arc<dyn MonitoredFunction>, workload: &Workload) -> RunStats {
    let n = workload.nodes();
    let mut current: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut messages = 0usize;
    let mut payload = 0usize;
    let mut errors = Vec::new();

    for t in 0..workload.rounds() {
        for (node, x) in workload.updates(t) {
            current[*node] = Some(x.clone());
            messages += 1;
            payload += report_bytes(*node, x);
        }
        if current.iter().all(Option::is_some) {
            // The coordinator re-evaluates on the exact aggregate.
            errors.push(0.0);
        }
    }
    let _ = f;
    let mut out = RunStats {
        messages,
        payload_bytes: payload,
        ..RunStats::default()
    };
    out.set_errors(errors);
    out
}

/// Periodic(P): every node that has data sends its local vector every `P`
/// rounds; between reports the coordinator's estimate goes stale, which
/// is where its error comes from (paper §4.1: "not adaptive … suffers
/// from many missed violations when the period is out of sync with the
/// changes in the data").
pub fn run_periodic(
    f: &Arc<dyn MonitoredFunction>,
    workload: &Workload,
    period: usize,
) -> RunStats {
    assert!(period > 0, "run_periodic: period must be positive");
    let n = workload.nodes();
    let mut current: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut received: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut messages = 0usize;
    let mut payload = 0usize;
    let mut errors = Vec::new();

    for t in 0..workload.rounds() {
        for (node, x) in workload.updates(t) {
            current[*node] = Some(x.clone());
        }
        if t % period == 0 {
            for (i, cur) in current.iter().enumerate() {
                if let Some(x) = cur {
                    messages += 1;
                    payload += report_bytes(i, x);
                    received[i] = Some(x.clone());
                }
            }
        }
        let all_current = current.iter().all(Option::is_some);
        let all_received = received.iter().all(Option::is_some);
        if all_current && all_received {
            let truth_xs: Vec<Vec<f64>> =
                current.iter().map(|x| x.clone().expect("present")).collect();
            let est_xs: Vec<Vec<f64>> =
                received.iter().map(|x| x.clone().expect("present")).collect();
            let truth = f.eval(&vector::mean(&truth_xs).expect("n > 0"));
            let est = f.eval(&vector::mean(&est_xs).expect("n > 0"));
            errors.push((est - truth).abs());
        }
    }
    let mut out = RunStats {
        messages,
        payload_bytes: payload,
        ..RunStats::default()
    };
    out.set_errors(errors);
    out
}

/// Convex Bound: the same GM protocol with the hand-crafted
/// constant-Hessian decomposition (forced ADCD-E, which §4.3 shows is the
/// identical safe zone for the inner product), with lazy sync and slack
/// as in the paper's CB runs.
///
/// # Panics
/// Panics when `f` does not have a constant Hessian — CB's hand-crafted
/// decomposition only exists for that class.
pub fn run_convex_bound(
    f: &Arc<dyn MonitoredFunction>,
    workload: &Workload,
    epsilon: f64,
) -> RunStats {
    assert!(
        f.has_constant_hessian(),
        "Convex Bound requires a constant-Hessian function"
    );
    let cfg = MonitorConfig::builder(epsilon).adcd(AdcdKind::E).build();
    Simulation::new(f.clone(), cfg).run(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::AutoDiffFn;
    use automon_functions::InnerProduct;

    fn drift_series(nodes: usize, rounds: usize) -> Vec<Vec<Vec<f64>>> {
        (0..nodes)
            .map(|i| {
                (0..rounds)
                    .map(|t| {
                        let v = t as f64 * 0.02 + i as f64 * 0.1;
                        vec![v, 1.0, 1.0, v]
                    })
                    .collect()
            })
            .collect()
    }

    fn ip() -> Arc<dyn MonitoredFunction> {
        Arc::new(AutoDiffFn::new(InnerProduct::new(4)))
    }

    #[test]
    fn centralization_message_count_and_zero_error() {
        let w = Workload::from_dense(&drift_series(3, 50));
        let stats = run_centralization(&ip(), &w);
        assert_eq!(stats.messages, 150);
        assert_eq!(stats.max_error, 0.0);
        assert!(stats.payload_bytes > 0);
    }

    #[test]
    fn periodic_trades_messages_for_error() {
        let f = ip();
        let w = Workload::from_dense(&drift_series(3, 120));
        let p1 = run_periodic(&f, &w, 1);
        let p10 = run_periodic(&f, &w, 10);
        assert!(p10.messages < p1.messages);
        assert!(p10.max_error > p1.max_error);
        // Period 1 with a dense workload is exactly centralization.
        assert_eq!(p1.messages, run_centralization(&f, &w).messages);
        assert_eq!(p1.max_error, 0.0);
    }

    #[test]
    fn convex_bound_bounds_error_by_epsilon() {
        let f = ip();
        let w = Workload::from_dense(&drift_series(3, 100));
        let eps = 0.5;
        let stats = run_convex_bound(&f, &w, eps);
        // Constant Hessian ⇒ true DC decomposition ⇒ deterministic bound.
        assert!(stats.max_error <= eps + 1e-9, "{stats:?}");
        assert_eq!(stats.missed_violation_rounds, 0);
    }

    #[test]
    fn labels() {
        assert_eq!(Baseline::Periodic(5).label(), "Periodic(5)");
        assert_eq!(Baseline::ConvexBound.label(), "CB");
    }

    #[test]
    #[should_panic(expected = "constant-Hessian")]
    fn cb_rejects_general_functions() {
        let f: Arc<dyn MonitoredFunction> =
            Arc::new(AutoDiffFn::new(automon_functions::Rozenbrock));
        let w = Workload::from_dense(&drift_series(2, 5));
        let _ = run_convex_bound(&f, &w, 0.1);
    }
}
