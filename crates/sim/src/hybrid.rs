//! Hybrid monitoring: AutoMon with an automatic Periodic fallback.
//!
//! The paper's §6 suggests "switching on the fly to other monitoring
//! approaches (e.g. Periodic)" when AutoMon's constraints thrash — e.g.
//! when extreme curvature makes safe zones so small that every round
//! violates. [`Simulation::run_hybrid`] runs the one round driver with
//! this policy hooked into each round:
//!
//! * run AutoMon normally, tracking the violation rate over a sliding
//!   window of rounds;
//! * when the rate exceeds `switch_threshold`, drop to Periodic mode for
//!   `cooldown` rounds (every node ships its vector every `period`
//!   rounds; the coordinator's estimate is exact-but-stale);
//! * after the cooldown, re-enter AutoMon with a fresh full sync.

use std::collections::VecDeque;

use automon_core::{MonitoredFunction, NodeMessage};
use automon_linalg::vector;

use crate::baselines::report_bytes;
use crate::runner::Simulation;
use crate::stats::RunStats;
use crate::workload::Workload;

/// Policy knobs for the hybrid runner.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Violation-per-round rate (over `rate_window` rounds) that triggers
    /// the fallback.
    pub switch_threshold: f64,
    /// Rounds over which the violation rate is measured.
    pub rate_window: usize,
    /// Periodic reporting period while in fallback mode.
    pub period: usize,
    /// Rounds to stay in fallback before re-trying AutoMon.
    pub cooldown: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            switch_threshold: 0.8,
            rate_window: 25,
            period: 1,
            cooldown: 50,
        }
    }
}

/// Statistics specific to the hybrid policy.
#[derive(Debug, Clone, Default)]
pub struct HybridStats {
    /// The underlying run statistics.
    pub run: RunStats,
    /// Number of AutoMon → Periodic switches.
    pub fallbacks: usize,
    /// Rounds spent in Periodic mode.
    pub periodic_rounds: usize,
}

/// The per-round hook the driver consults: whether the nodes are silent
/// this round, which estimate is the active one, and when to resync.
#[derive(Debug, Default)]
pub(crate) struct HybridPolicy {
    cfg: HybridConfig,
    recent_violations: VecDeque<usize>,
    round_violations: usize,
    periodic_until: Option<usize>,
    in_fallback: bool,
    periodic_estimate: Option<f64>,
    fallbacks: usize,
    periodic_rounds: usize,
    /// Periodic-mode traffic, which never crosses the link.
    extra_msgs: usize,
    extra_bytes: usize,
}

impl HybridPolicy {
    /// Start round `t`. `true` while in fallback: nodes stay silent and
    /// the periodic shipper in [`HybridPolicy::end_updates`] reports.
    pub fn begin_round(&mut self, t: usize) -> bool {
        self.round_violations = 0;
        self.in_fallback = self.periodic_until.is_some_and(|until| t < until);
        self.in_fallback
    }

    /// Count a report a workload update produced this round.
    pub fn observe(&mut self, m: &NodeMessage) {
        if matches!(m, NodeMessage::Violation { .. }) {
            self.round_violations += 1;
        }
    }

    /// Close round `t`'s updates. In fallback, ship the periodic reports;
    /// otherwise do the violation-rate bookkeeping and the switch
    /// decision. `true` when the cooldown just ended and the driver must
    /// resync AutoMon by replaying every node's current vector.
    pub fn end_updates(
        &mut self,
        t: usize,
        f: &dyn MonitoredFunction,
        current: &[Option<Vec<f64>>],
    ) -> bool {
        if !self.in_fallback {
            self.recent_violations.push_back(self.round_violations);
            if self.recent_violations.len() > self.cfg.rate_window {
                self.recent_violations.pop_front();
            }
            if self.recent_violations.len() == self.cfg.rate_window {
                let rate = self.recent_violations.iter().sum::<usize>() as f64
                    / self.cfg.rate_window as f64;
                if rate > self.cfg.switch_threshold {
                    self.periodic_until = Some(t + 1 + self.cfg.cooldown);
                    self.fallbacks += 1;
                    self.recent_violations.clear();
                }
            }
            return false;
        }
        self.periodic_rounds += 1;
        if t.is_multiple_of(self.cfg.period) {
            for (i, x) in current.iter().enumerate() {
                if let Some(x) = x {
                    self.extra_msgs += 1;
                    self.extra_bytes += report_bytes(i, x);
                }
            }
            if let Some(xs) = current.iter().cloned().collect::<Option<Vec<_>>>() {
                self.periodic_estimate = Some(f.eval(&vector::mean(&xs).expect("n > 0")));
            }
        }
        if self.periodic_until == Some(t + 1) {
            self.periodic_until = None;
            return true;
        }
        false
    }

    /// While in fallback, the estimate in force (`None` inside until the
    /// first periodic report lands); `None` in AutoMon mode.
    pub fn fallback_estimate(&self) -> Option<Option<f64>> {
        self.in_fallback.then_some(self.periodic_estimate)
    }
}

impl Simulation {
    /// Run the hybrid policy over a workload.
    pub fn run_hybrid(&self, workload: &Workload, hybrid: HybridConfig) -> HybridStats {
        assert!(hybrid.period > 0, "run_hybrid: period must be positive");
        let mut policy = HybridPolicy {
            cfg: hybrid,
            ..HybridPolicy::default()
        };
        let mut run = self.drive(workload, Some(&mut policy)).stats;
        // Periodic-mode reports are accounted beside the link, so the
        // per-cause ledger would no longer conserve the totals.
        run.messages += policy.extra_msgs;
        run.payload_bytes += policy.extra_bytes;
        run.ledger = None;
        HybridStats {
            run,
            fallbacks: policy.fallbacks,
            periodic_rounds: policy.periodic_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_core::MonitorConfig;

    struct Mean1;
    impl ScalarFn for Mean1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0]
        }
    }

    fn sim(eps: f64) -> Simulation {
        Simulation::new(
            Arc::new(AutoDiffFn::new(Mean1)),
            MonitorConfig::builder(eps).build(),
        )
    }

    #[test]
    fn quiet_data_never_falls_back() {
        let series: Vec<Vec<Vec<f64>>> = (0..3).map(|_| vec![vec![1.0]; 100]).collect();
        let w = Workload::from_dense(&series);
        let stats = sim(0.5).run_hybrid(&w, HybridConfig::default());
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.periodic_rounds, 0);
        assert_eq!(stats.run.max_error, 0.0);
    }

    #[test]
    fn thrashing_data_triggers_fallback() {
        // ε tiny + rapidly moving aggregate → violation every round.
        let series: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|i| (0..200).map(|t| vec![t as f64 * 0.5 + i as f64]).collect())
            .collect();
        let w = Workload::from_dense(&series);
        let hybrid = HybridConfig {
            switch_threshold: 0.5,
            rate_window: 10,
            period: 1,
            cooldown: 40,
        };
        let stats = sim(1e-3).run_hybrid(&w, hybrid);
        assert!(stats.fallbacks >= 1, "{stats:?}");
        assert!(stats.periodic_rounds > 0);
        // With period 1 the fallback estimate is exact, so error stays
        // bounded even while thrashing.
        assert!(stats.run.max_error <= 2.0, "{stats:?}");
    }

    #[test]
    fn fallback_resumes_automon_after_cooldown() {
        // Thrash for the first half, then go quiet.
        let series: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|i| {
                (0..300)
                    .map(|t| {
                        if t < 100 {
                            vec![t as f64 * 1.0 + i as f64]
                        } else {
                            vec![100.0 + i as f64]
                        }
                    })
                    .collect()
            })
            .collect();
        let w = Workload::from_dense(&series);
        let hybrid = HybridConfig {
            switch_threshold: 0.5,
            rate_window: 10,
            period: 1,
            cooldown: 30,
        };
        let stats = sim(0.01).run_hybrid(&w, hybrid);
        assert!(stats.fallbacks >= 1);
        // After the quiet stretch begins, AutoMon resumes: periodic
        // rounds must be far fewer than the total.
        assert!(stats.periodic_rounds < 200, "stuck in fallback: {stats:?}");
    }
}
