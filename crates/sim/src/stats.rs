//! Run statistics and traces.

use automon_core::LedgerEntry;
use serde::Serialize;

/// One per-round trace sample for the time-series figures (4 and 9).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TracePoint {
    /// Simulation round.
    pub round: usize,
    /// The true `f(x̄)` over current local vectors.
    pub truth: f64,
    /// The coordinator-side approximation `f(x0)`.
    pub estimate: f64,
    /// Lower threshold `L` in force.
    pub lower: f64,
    /// Upper threshold `U` in force.
    pub upper: f64,
    /// Cumulative protocol messages so far.
    pub cumulative_messages: usize,
}

/// Aggregated results of one monitoring run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RunStats {
    /// Total protocol messages (both directions).
    pub messages: usize,
    /// Total payload bytes (both directions, real encoded sizes).
    pub payload_bytes: usize,
    /// Maximum `|estimate - truth|` over measured rounds.
    pub max_error: f64,
    /// Mean absolute error over measured rounds.
    pub mean_error: f64,
    /// 99th-percentile absolute error.
    pub p99_error: f64,
    /// Rounds where a finite error was measured.
    pub measured_rounds: usize,
    /// Rounds where the true value escaped `[L, U]` while every local
    /// constraint held — the *missed violations* of paper §2/§4.6 — plus
    /// rounds whose error was not finite (nothing was shown to hold).
    pub missed_violation_rounds: usize,
    /// Neighborhood violations reported to the coordinator.
    pub neighborhood_violations: usize,
    /// Safe-zone violations reported to the coordinator.
    pub safezone_violations: usize,
    /// Faulty-constraint reports (§3.7 sanity check).
    pub faulty_reports: usize,
    /// Full syncs (including the initial one).
    pub full_syncs: usize,
    /// Lazy syncs resolved without a full sync.
    pub lazy_syncs: usize,
    /// `|estimate - truth|` at the last measured round (for chaos runs,
    /// after the recovery drain — the at-quiescence error).
    pub final_error: f64,
    /// Reports/pulls re-sent because the original went unanswered
    /// (chaos runs only).
    pub retransmits: usize,
    /// Faults the chaos fabric injected (trace length).
    pub injected_faults: usize,
    /// Extra rounds spent draining retransmissions and resyncs after the
    /// workload ended, until the protocol quiesced.
    pub recovery_rounds: usize,
    /// Maximum `|estimate - truth|` over degraded rounds (a partition
    /// active, a node down, or a node evicted) — the error the
    /// ε-guarantee does *not* cover.
    pub max_error_during_partition: f64,
    /// Nodes the coordinator declared dead and evicted.
    pub evictions: usize,
    /// Nodes that rejoined after a crash or eviction.
    pub rejoins: usize,
    /// Coordinator crash/recovery cycles (rebuilds from the durable
    /// store; chaos runs with `--crash-coordinator` only).
    pub coordinator_recoveries: usize,
    /// Optional per-round trace (enabled via the runner).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<Vec<TracePoint>>,
    /// Per-cause communication ledger rollup. Conservation against
    /// `messages`/`payload_bytes` is exact: the fabric charges the
    /// ledger at the same points it bumps its traffic counters.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ledger: Option<Vec<LedgerEntry>>,
}

impl RunStats {
    /// Finalize error aggregates from raw per-round errors.
    ///
    /// A non-finite error (e.g. KLD or entropy evaluating `0 · ln 0` at
    /// a zero bin) is not a measurement: the ε contract was not shown to
    /// hold that round, so it counts as a missed-violation round and
    /// stays out of every aggregate.
    pub(crate) fn set_errors(&mut self, mut errors: Vec<f64>) {
        let reported = errors.len();
        errors.retain(|e| e.is_finite());
        self.missed_violation_rounds += reported - errors.len();
        self.measured_rounds = errors.len();
        if errors.is_empty() {
            return;
        }
        self.final_error = *errors.last().expect("non-empty");
        self.max_error = errors.iter().fold(0.0f64, |m, e| m.max(*e));
        self.mean_error = errors.iter().sum::<f64>() / errors.len() as f64;
        errors.sort_by(f64::total_cmp);
        let idx = ((errors.len() as f64) * 0.99).ceil() as usize;
        self.p99_error = errors[idx.saturating_sub(1).min(errors.len() - 1)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_aggregates() {
        let mut s = RunStats::default();
        let mut errors: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        errors.reverse();
        s.set_errors(errors);
        assert_eq!(s.measured_rounds, 100);
        assert_eq!(s.max_error, 100.0);
        assert_eq!(s.mean_error, 50.5);
        assert_eq!(s.p99_error, 99.0);
    }

    #[test]
    fn empty_errors_leave_zeroes() {
        let mut s = RunStats::default();
        s.set_errors(Vec::new());
        assert_eq!(s.max_error, 0.0);
        assert_eq!(s.measured_rounds, 0);
    }

    #[test]
    fn non_finite_errors_count_as_missed_and_stay_out_of_aggregates() {
        let mut s = RunStats {
            missed_violation_rounds: 1,
            ..RunStats::default()
        };
        s.set_errors(vec![0.5, f64::NAN, 0.25, f64::INFINITY, f64::NAN]);
        assert_eq!(
            s.missed_violation_rounds, 4,
            "1 from the zone + 3 non-finite"
        );
        assert_eq!(s.measured_rounds, 2);
        assert_eq!(s.max_error, 0.5);
        assert_eq!(s.mean_error, 0.375);
        assert_eq!(s.p99_error, 0.5);
        assert_eq!(s.final_error, 0.25, "last finite measurement");

        let mut s = RunStats::default();
        s.set_errors(vec![f64::NAN]);
        assert_eq!((s.missed_violation_rounds, s.measured_rounds), (1, 0));
        assert_eq!(s.max_error, 0.0);
    }

    #[test]
    fn single_error() {
        let mut s = RunStats::default();
        s.set_errors(vec![0.25]);
        assert_eq!(s.max_error, 0.25);
        assert_eq!(s.p99_error, 0.25);
    }
}
