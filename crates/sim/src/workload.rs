//! Workloads: per-round local-vector update schedules.

/// A monitoring workload: which node installs which local vector in each
/// simulation round.
///
/// Two shapes from the paper (§4.1):
/// * **dense** — every node updates every round (all synthetic datasets
///   and KLD);
/// * **event-driven** — one node updates per round, following record
///   timestamps (the DNN intrusion stream).
///
/// ```
/// use automon_sim::Workload;
///
/// let series = vec![
///     vec![vec![1.0], vec![2.0]], // node 0's local vectors per round
///     vec![vec![5.0], vec![6.0]], // node 1's
/// ];
/// let w = Workload::from_dense(&series);
/// assert_eq!(w.nodes(), 2);
/// assert_eq!(w.rounds(), 2);
/// assert_eq!(w.updates(1), &[(0, vec![2.0]), (1, vec![6.0])]);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    n: usize,
    dim: usize,
    /// `rounds[t]` lists `(node, new_local_vector)` updates of round `t`.
    rounds: Vec<Vec<(usize, Vec<f64>)>>,
}

impl Workload {
    /// Dense workload from per-node series (`series[node][round]`).
    ///
    /// Ragged series are allowed: a node whose series ends simply stops
    /// updating.
    ///
    /// # Panics
    /// Panics when `series` is empty or vectors disagree in dimension.
    pub fn from_dense(series: &[Vec<Vec<f64>>]) -> Self {
        let n = series.len();
        assert!(n > 0, "Workload: need at least one node");
        let dim = series
            .iter()
            .flat_map(|s| s.first())
            .map(Vec::len)
            .next()
            .expect("Workload: all series empty");
        let total_rounds = series.iter().map(Vec::len).max().unwrap_or(0);
        let mut rounds = Vec::with_capacity(total_rounds);
        for t in 0..total_rounds {
            let mut updates = Vec::new();
            for (i, s) in series.iter().enumerate() {
                if let Some(x) = s.get(t) {
                    assert_eq!(x.len(), dim, "Workload: dimension mismatch");
                    updates.push((i, x.clone()));
                }
            }
            rounds.push(updates);
        }
        Self { n, dim, rounds }
    }

    /// Event-driven workload: one `(node, vector)` update per round.
    ///
    /// # Panics
    /// Panics on empty events, node ids ≥ `n`, or dimension mismatches.
    pub fn from_events(n: usize, events: &[(usize, Vec<f64>)]) -> Self {
        assert!(!events.is_empty(), "Workload: no events");
        let dim = events[0].1.len();
        let rounds = events
            .iter()
            .map(|(node, x)| {
                assert!(*node < n, "Workload: node {node} out of range");
                assert_eq!(x.len(), dim, "Workload: dimension mismatch");
                vec![(*node, x.clone())]
            })
            .collect();
        Self { n, dim, rounds }
    }

    /// Round-major workload: `rounds[t]` lists round `t`'s `(node, vector)`
    /// updates in the order they are applied — a recorded stream, where
    /// any subset of the `n` nodes may report in a round.
    ///
    /// # Panics
    /// Panics when no round has an update, on node ids ≥ `n`, or on
    /// dimension mismatches.
    pub fn from_rounds(n: usize, rounds: Vec<Vec<(usize, Vec<f64>)>>) -> Self {
        let first = rounds.iter().flatten().next();
        let dim = first.expect("Workload: no updates").1.len();
        for (node, x) in rounds.iter().flatten() {
            assert!(*node < n, "Workload: node {node} out of range");
            assert_eq!(x.len(), dim, "Workload: dimension mismatch");
        }
        Self { n, dim, rounds }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Local-vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of simulation rounds.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The updates of round `t`.
    pub fn updates(&self, t: usize) -> &[(usize, Vec<f64>)] {
        &self.rounds[t]
    }

    /// A workload containing only the first `k` rounds (tuning prefixes).
    pub fn prefix(&self, k: usize) -> Workload {
        Workload {
            n: self.n,
            dim: self.dim,
            rounds: self.rounds[..k.min(self.rounds.len())].to_vec(),
        }
    }

    /// Convert to per-node series (`out[node][k]` = k-th update): one
    /// node's stream on its own, which round each update fell in dropped
    /// (the per-node input of the Figure 7 runtime table and the Figure 10
    /// delta-encoding row). Tuning does not use it — Algorithm 2 scores
    /// the workload as it runs, rounds intact ([`crate::Simulation::tune_r`]).
    pub fn to_node_series(&self) -> Vec<Vec<Vec<f64>>> {
        let mut out = vec![Vec::new(); self.n];
        for round in &self.rounds {
            for (node, x) in round {
                out[*node].push(x.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_workload_round_structure() {
        let series = vec![
            vec![vec![1.0], vec![2.0]],
            vec![vec![10.0], vec![20.0], vec![30.0]],
        ];
        let w = Workload::from_dense(&series);
        assert_eq!(w.nodes(), 2);
        assert_eq!(w.dim(), 1);
        assert_eq!(w.rounds(), 3);
        assert_eq!(w.updates(0).len(), 2);
        assert_eq!(w.updates(2), &[(1, vec![30.0])]);
    }

    #[test]
    fn event_workload_single_update_per_round() {
        let events = vec![(0, vec![1.0, 2.0]), (2, vec![3.0, 4.0])];
        let w = Workload::from_events(3, &events);
        assert_eq!(w.rounds(), 2);
        assert_eq!(w.updates(1), &[(2, vec![3.0, 4.0])]);
    }

    #[test]
    fn round_major_workload_keeps_order_and_sparse_rounds() {
        let w = Workload::from_rounds(
            3,
            vec![
                vec![(2, vec![1.0]), (0, vec![2.0])],
                vec![],
                vec![(1, vec![3.0])],
            ],
        );
        assert_eq!((w.nodes(), w.dim(), w.rounds()), (3, 1, 3));
        assert_eq!(w.updates(0), &[(2, vec![1.0]), (0, vec![2.0])]);
        assert!(w.updates(1).is_empty());
    }

    #[test]
    fn prefix_and_series_round_trip() {
        let series = vec![vec![vec![1.0], vec![2.0], vec![3.0]]];
        let w = Workload::from_dense(&series);
        assert_eq!(w.prefix(2).rounds(), 2);
        assert_eq!(w.to_node_series(), series);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_id_rejected() {
        Workload::from_events(1, &[(3, vec![1.0])]);
    }
}
