//! The AutoMon node algorithm (paper Algorithm 1, node side).
//!
//! A node keeps its raw local vector `x`, the slack `s` assigned by the
//! coordinator, and the current [`SafeZone`]. On every data update it
//! checks the slack-adjusted vector `x + s` against the constraints and
//! reports a violation at most once per resolution cycle; while a report
//! is outstanding further updates stay silent until new constraints or a
//! slack rebalance arrive.

use std::sync::Arc;

use crate::messages::{CoordinatorMessage, Epoch, NodeId, NodeMessage};
use crate::safezone::{SafeZone, ViolationKind};
use crate::MonitoredFunction;
use automon_obs::{Counter, Telemetry};

/// One monitoring node.
pub struct Node {
    id: NodeId,
    f: Arc<dyn MonitoredFunction>,
    x: Option<Vec<f64>>,
    slack: Vec<f64>,
    zone: Option<SafeZone>,
    /// A violation has been reported and not yet resolved.
    pending: bool,
    /// The epoch of the constraints currently held (0 before any).
    epoch: Epoch,
    /// Kind of the outstanding violation, kept for retransmission over
    /// lossy transports.
    pending_kind: Option<ViolationKind>,
    /// Constraint checks performed (shared across nodes; no-op until
    /// `set_telemetry`).
    tel_checks: Counter,
    /// Reports sent to the coordinator (shared across nodes).
    tel_reports: Counter,
}

impl Node {
    /// Create node `id` monitoring `f`.
    pub fn new(id: NodeId, f: Arc<dyn MonitoredFunction>) -> Self {
        let d = f.dim();
        Self {
            id,
            f,
            x: None,
            slack: vec![0.0; d],
            zone: None,
            pending: false,
            epoch: 0,
            pending_kind: None,
            tel_checks: Counter::disabled(),
            tel_reports: Counter::disabled(),
        }
    }

    /// Install shared observability counters.
    ///
    /// In a deployment every node is its own thread or process, so
    /// nodes touch only commutative counters and never emit trace
    /// events — see the determinism contract in [`automon_obs::trace`].
    /// Every node registers the same
    /// metric names, so the registry hands them the same cells and the
    /// counters aggregate across the fleet.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel_checks = tel.counter(
            "automon_node_checks_total",
            "Constraint checks performed across all nodes",
        );
        self.tel_reports = tel.counter(
            "automon_node_reports_total",
            "Violation/registration reports sent across all nodes",
        );
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The installed safe zone, if any.
    pub fn zone(&self) -> Option<&SafeZone> {
        self.zone.as_ref()
    }

    /// The current approximation `f(x0)` (paper §3.8,
    /// `node.current_value()`), available once constraints arrived.
    pub fn current_value(&self) -> Option<f64> {
        self.zone.as_ref().map(|z| z.f0)
    }

    /// The raw local vector last supplied.
    pub fn local_vector(&self) -> Option<&[f64]> {
        self.x.as_deref()
    }

    /// The current slack vector.
    pub fn slack(&self) -> &[f64] {
        &self.slack
    }

    /// `true` while a violation report awaits resolution.
    pub fn is_pending(&self) -> bool {
        self.pending
    }

    /// The constraint epoch this node currently holds.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Re-issue the outstanding report with the node's current vector —
    /// what a lossy transport sends after a retransmit timeout. `None`
    /// when nothing is outstanding (or no data exists yet).
    pub fn retransmit_report(&self) -> Option<NodeMessage> {
        if !self.pending {
            return None;
        }
        let x = self.x.as_ref()?;
        Some(NodeMessage::Violation {
            node: self.id,
            kind: self.pending_kind.unwrap_or(ViolationKind::Uninitialized),
            local_vector: x.clone(),
            epoch: self.epoch,
        })
    }

    /// Install a new local vector (paper `node.update_data(x)`).
    ///
    /// Returns the message to forward to the coordinator, if any.
    ///
    /// # Panics
    /// Panics if `x` has the wrong dimension.
    pub fn update_data(&mut self, x: Vec<f64>) -> Option<NodeMessage> {
        assert_eq!(x.len(), self.f.dim(), "update_data: wrong dimension");
        self.x = Some(x);
        self.check()
    }

    /// Re-check the current vector against the constraints.
    fn check(&mut self) -> Option<NodeMessage> {
        if self.pending {
            return None;
        }
        let x = self.x.as_ref()?;
        let Some(zone) = &self.zone else {
            // First contact: register with the coordinator.
            self.pending = true;
            self.pending_kind = Some(ViolationKind::Uninitialized);
            self.tel_reports.inc();
            return Some(NodeMessage::Violation {
                node: self.id,
                kind: ViolationKind::Uninitialized,
                local_vector: x.clone(),
                epoch: self.epoch,
            });
        };
        self.tel_checks.inc();
        let kind = zone.check_shifted(self.f.as_ref(), x, &self.slack)?;
        self.pending = true;
        self.pending_kind = Some(kind);
        self.tel_reports.inc();
        Some(NodeMessage::Violation {
            node: self.id,
            kind,
            local_vector: x.clone(),
            epoch: self.epoch,
        })
    }

    /// A fresh registration report — what a node that lost its protocol
    /// state (e.g. a restarted process handed a cached-constraints frame
    /// it cannot apply) sends to ask the coordinator for a full resync.
    fn reregister(&mut self) -> Option<NodeMessage> {
        let x = self.x.as_ref()?;
        self.pending = true;
        self.pending_kind = Some(ViolationKind::Uninitialized);
        self.tel_reports.inc();
        Some(NodeMessage::Violation {
            node: self.id,
            kind: ViolationKind::Uninitialized,
            local_vector: x.clone(),
            epoch: self.epoch,
        })
    }

    /// Process a coordinator message (paper `node.message_received`).
    ///
    /// Returns the reply to send back, if any. Frames stamped with an
    /// epoch older than the constraints this node already holds are
    /// discarded: over a lossy/reordering transport a delayed
    /// constraint install from a superseded sync must not clobber the
    /// current one.
    pub fn handle(&mut self, msg: CoordinatorMessage) -> Option<NodeMessage> {
        if msg.epoch() < self.epoch {
            return None;
        }
        match msg {
            CoordinatorMessage::RequestLocalVector { .. } => {
                // A restarted node can be pulled before its first data
                // update; stay silent and let the coordinator's
                // retransmit timer re-pull once data exists.
                let vector = self.x.clone()?;
                Some(NodeMessage::LocalVector {
                    node: self.id,
                    vector,
                    epoch: self.epoch,
                })
            }
            CoordinatorMessage::NewConstraints { zone, slack, epoch } => {
                assert_eq!(slack.len(), self.f.dim(), "slack dimension mismatch");
                self.zone = Some(zone);
                self.slack = slack;
                self.epoch = epoch;
                self.pending = false;
                self.pending_kind = None;
                None
            }
            CoordinatorMessage::NewConstraintsCached { update, slack, epoch } => {
                assert_eq!(slack.len(), self.f.dim(), "slack dimension mismatch");
                // The matrix-free form is only applicable when this node
                // still holds the curvature it refers to. A restarted
                // node does not, and neither does one that skipped a
                // sync on a lossy link (the missed install could have
                // changed the curvature) — ask for a full resync
                // instead of panicking or silently monitoring the wrong
                // penalty (self-healing under crash/rejoin).
                if epoch > self.epoch + 1 {
                    return self.reregister();
                }
                // The d×d penalty moves from the old zone to the new one;
                // nothing else of the old zone survives the install.
                let Some(curvature) = self.zone.take().map(|z| z.curvature) else {
                    return self.reregister();
                };
                self.zone = Some(SafeZone {
                    x0: update.x0,
                    f0: update.f0,
                    grad0: update.grad0,
                    l: update.l,
                    u: update.u,
                    dc: update.dc,
                    curvature,
                    neighborhood: update.neighborhood,
                });
                self.slack = slack;
                self.epoch = epoch;
                self.pending = false;
                self.pending_kind = None;
                None
            }
            CoordinatorMessage::SlackUpdate { slack, epoch } => {
                assert_eq!(slack.len(), self.f.dim(), "slack dimension mismatch");
                // A rebalance presumes the constraints of its epoch. A
                // node that lost them (restart) or skipped the sync that
                // opened `epoch` (lossy link) must resync fully first.
                if self.zone.is_none() || epoch > self.epoch {
                    return self.reregister();
                }
                self.slack = slack;
                self.pending = false;
                self.pending_kind = None;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safezone::{Curvature, DcKind};
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};

    struct Identity1;
    impl ScalarFn for Identity1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0]
        }
    }

    fn f() -> Arc<dyn MonitoredFunction> {
        Arc::new(AutoDiffFn::new(Identity1))
    }

    fn zone() -> SafeZone {
        // f(x) = x, x0 = 0, ε = 1: safe zone is simply |x| ≤ 1.
        SafeZone {
            x0: vec![0.0],
            f0: 0.0,
            grad0: vec![1.0],
            l: -1.0,
            u: 1.0,
            dc: DcKind::ConvexDiff,
            curvature: Curvature::Scalar(0.0),
            neighborhood: None,
        }
    }

    #[test]
    fn first_update_registers() {
        let mut n = Node::new(0, f());
        let m = n.update_data(vec![0.5]).expect("registration message");
        assert!(matches!(
            m,
            NodeMessage::Violation {
                kind: ViolationKind::Uninitialized,
                ..
            }
        ));
        // Second update while pending stays silent.
        assert!(n.update_data(vec![0.6]).is_none());
    }

    #[test]
    fn monitors_quietly_inside_zone() {
        let mut n = Node::new(1, f());
        let _ = n.update_data(vec![0.0]);
        n.handle(CoordinatorMessage::NewConstraints {
            zone: zone(),
            slack: vec![0.0],
            epoch: 1,
        });
        assert!(!n.is_pending());
        assert!(n.update_data(vec![0.3]).is_none());
        assert!(n.update_data(vec![-0.9]).is_none());
        assert_eq!(n.current_value(), Some(0.0));
    }

    #[test]
    fn reports_violation_once() {
        let mut n = Node::new(2, f());
        let _ = n.update_data(vec![0.0]);
        n.handle(CoordinatorMessage::NewConstraints {
            zone: zone(),
            slack: vec![0.0],
            epoch: 1,
        });
        let m = n.update_data(vec![1.5]).expect("violation");
        match m {
            NodeMessage::Violation {
                node,
                kind,
                local_vector,
                epoch: 1,
            } => {
                assert_eq!(node, 2);
                assert_eq!(kind, ViolationKind::SafeZone);
                assert_eq!(local_vector, vec![1.5]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Suppressed while pending.
        assert!(n.update_data(vec![2.0]).is_none());
        // Resolution re-arms the check.
        n.handle(CoordinatorMessage::SlackUpdate {
            slack: vec![-1.5],
            epoch: 1,
        });
        assert!(!n.is_pending());
        // 2.0 + (-1.5) = 0.5 is inside — silent.
        assert!(n.update_data(vec![2.0]).is_none());
        // 3.0 - 1.5 = 1.5 violates again.
        assert!(n.update_data(vec![3.0]).is_some());
    }

    #[test]
    fn slack_shifts_the_checked_point() {
        let mut n = Node::new(0, f());
        let _ = n.update_data(vec![0.0]);
        n.handle(CoordinatorMessage::NewConstraints {
            zone: zone(),
            slack: vec![0.9],
            epoch: 1,
        });
        // 0.3 + 0.9 = 1.2 > 1 → violation even though raw x is inside.
        assert!(n.update_data(vec![0.3]).is_some());
    }

    #[test]
    fn replies_with_local_vector() {
        let mut n = Node::new(4, f());
        let _ = n.update_data(vec![0.7]);
        let m = n
            .handle(CoordinatorMessage::RequestLocalVector { epoch: 0 })
            .unwrap();
        assert_eq!(
            m,
            NodeMessage::LocalVector {
                node: 4,
                vector: vec![0.7],
                epoch: 0,
            }
        );
    }
}
