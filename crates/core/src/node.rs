//! The AutoMon node algorithm (paper Algorithm 1, node side).
//!
//! A node owns its raw local vector `x`, the slack `s` assigned by the
//! coordinator, its epoch and its pending flags; the current [`SafeZone`]
//! it only shares (the sync's head and penalty, the same allocations at
//! every member). `x` and `s` sit in one `[x | s]` block of `2d` floats,
//! allocated once with the node: data updates and installs copy into it,
//! so neither the data path nor a sync moves a heap vector into the
//! node. On every data update it
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
    /// `[x | s]`: the local vector, then the slack, `d` floats each.
    block: Box<[f64]>,
    /// `x` holds data (an `update_data` has supplied a vector).
    has_x: bool,
    /// Shared with the coordinator and the other members of the sync.
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
    /// Installs refused for a slack or zone of the wrong dimension
    /// (shared across nodes).
    tel_refused: Counter,
}

impl Node {
    /// Create node `id` monitoring `f`.
    pub fn new(id: NodeId, f: Arc<dyn MonitoredFunction>) -> Self {
        let d = f.dim();
        Self {
            id,
            f,
            block: vec![0.0; 2 * d].into_boxed_slice(),
            has_x: false,
            zone: None,
            pending: false,
            epoch: 0,
            pending_kind: None,
            tel_checks: Counter::disabled(),
            tel_reports: Counter::disabled(),
            tel_refused: Counter::disabled(),
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
        self.tel_refused = tel.counter(
            "automon_node_refused_installs_total",
            "Constraint or slack installs refused for a wrong dimension across all nodes",
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
        self.has_x.then(|| &self.block[..self.dim()])
    }

    /// The current slack vector.
    pub fn slack(&self) -> &[f64] {
        &self.block[self.dim()..]
    }

    /// `d`, the length of `x` and of `s`.
    fn dim(&self) -> usize {
        self.block.len() / 2
    }

    /// Copy an installed slack into the block.
    fn install_slack(&mut self, slack: &[f64]) {
        let d = self.dim();
        self.block[d..].copy_from_slice(slack);
    }

    /// Refuse an install whose slack or zone is not `d`-dimensional: a
    /// corrupt or foreign frame that decoded cleanly. The node keeps what
    /// it holds and asks for a full resync, as it does for constraints it
    /// cannot apply.
    fn refuse(&mut self) -> Option<NodeMessage> {
        self.tel_refused.inc();
        self.reregister()
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
        let x = self.local_vector()?;
        Some(NodeMessage::Violation {
            node: self.id,
            kind: self.pending_kind.unwrap_or(ViolationKind::Uninitialized),
            local_vector: x.to_vec(),
            epoch: self.epoch,
        })
    }

    /// Install a new local vector (paper `node.update_data(x)`), owned or
    /// borrowed: the node copies it into its own block either way.
    ///
    /// Returns the message to forward to the coordinator, if any.
    ///
    /// # Panics
    /// Panics if `x` has the wrong dimension.
    pub fn update_data(&mut self, x: impl AsRef<[f64]>) -> Option<NodeMessage> {
        let d = self.dim();
        let v = x.as_ref();
        assert_eq!(v.len(), d, "update_data: wrong dimension");
        self.block[..d].copy_from_slice(v);
        // An owned vector is freed here, while its memory is still hot.
        drop(x);
        self.has_x = true;
        self.check()
    }

    /// Re-check the current vector against the constraints.
    fn check(&mut self) -> Option<NodeMessage> {
        if self.pending || !self.has_x {
            return None;
        }
        let (x, slack) = self.block.split_at(self.dim());
        let Some(zone) = &self.zone else {
            // First contact: register with the coordinator.
            self.pending = true;
            self.pending_kind = Some(ViolationKind::Uninitialized);
            self.tel_reports.inc();
            return Some(NodeMessage::Violation {
                node: self.id,
                kind: ViolationKind::Uninitialized,
                local_vector: x.to_vec(),
                epoch: self.epoch,
            });
        };
        self.tel_checks.inc();
        let kind = zone.check_shifted(self.f.as_ref(), x, slack)?;
        self.pending = true;
        self.pending_kind = Some(kind);
        self.tel_reports.inc();
        Some(NodeMessage::Violation {
            node: self.id,
            kind,
            local_vector: x.to_vec(),
            epoch: self.epoch,
        })
    }

    /// The node's process restarted as node `id`: its constraints, slack,
    /// epoch and any outstanding report are gone, and only its data
    /// stream's last vector survives. It re-registers from that vector,
    /// exactly as a fresh node fed the vector by
    /// [`update_data`](Self::update_data) would; `None` when it never
    /// had one.
    pub fn restart(&mut self, id: NodeId) -> Option<NodeMessage> {
        self.id = id;
        let d = self.dim();
        self.block[d..].fill(0.0);
        self.zone = None;
        self.pending = false;
        self.epoch = 0;
        self.pending_kind = None;
        self.check()
    }

    /// A fresh registration report — what a node that lost its protocol
    /// state (e.g. a restarted process handed a cached-constraints frame
    /// it cannot apply) sends to ask the coordinator for a full resync.
    fn reregister(&mut self) -> Option<NodeMessage> {
        let x = self.local_vector()?.to_vec();
        self.pending = true;
        self.pending_kind = Some(ViolationKind::Uninitialized);
        self.tel_reports.inc();
        Some(NodeMessage::Violation {
            node: self.id,
            kind: ViolationKind::Uninitialized,
            local_vector: x,
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
                let vector = self.local_vector()?.to_vec();
                Some(NodeMessage::LocalVector {
                    node: self.id,
                    vector,
                    epoch: self.epoch,
                })
            }
            CoordinatorMessage::NewConstraints { zone, slack, epoch } => {
                if slack.len() != self.dim() || !zone.fits(self.dim()) {
                    return self.refuse();
                }
                self.install_slack(&slack);
                self.zone = Some(zone);
                self.epoch = epoch;
                self.pending = false;
                self.pending_kind = None;
                None
            }
            CoordinatorMessage::NewConstraintsCached { update, slack, epoch } => {
                if slack.len() != self.dim() || !update.fits(self.dim()) {
                    return self.refuse();
                }
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
                // The penalty handle moves from the old zone to the new
                // one beside the sync's shared head: two pointer moves.
                let Some(old) = self.zone.take() else {
                    return self.reregister();
                };
                self.zone = Some(SafeZone {
                    head: update,
                    curvature: old.curvature,
                });
                self.install_slack(&slack);
                self.epoch = epoch;
                self.pending = false;
                self.pending_kind = None;
                None
            }
            CoordinatorMessage::SlackUpdate { slack, epoch } => {
                if slack.len() != self.dim() {
                    return self.refuse();
                }
                // A rebalance presumes the constraints of its epoch. A
                // node that lost them (restart) or skipped the sync that
                // opened `epoch` (lossy link) must resync fully first.
                if self.zone.is_none() || epoch > self.epoch {
                    return self.reregister();
                }
                self.install_slack(&slack);
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
    use crate::safezone::{Curvature, DcKind, NeighborhoodBox, ZoneUpdate};
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_linalg::Matrix;

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
        SafeZone::new(
            ZoneUpdate {
                x0: vec![0.0],
                f0: 0.0,
                grad0: vec![1.0],
                l: -1.0,
                u: 1.0,
                dc: DcKind::ConvexDiff,
                neighborhood: None,
            },
            Curvature::Scalar(0.0),
        )
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
    fn a_restart_keeps_only_the_vector_and_reregisters_from_it() {
        let mut n = Node::new(3, f());
        assert!(n.restart(3).is_none(), "no vector, nothing to register");
        let _ = n.update_data(vec![0.0]);
        n.handle(CoordinatorMessage::NewConstraints {
            zone: zone(),
            slack: vec![0.25],
            epoch: 4,
        });
        let m = n.restart(7).expect("re-registers");
        assert_eq!(
            m,
            NodeMessage::Violation {
                node: 7,
                kind: ViolationKind::Uninitialized,
                local_vector: vec![0.0],
                epoch: 0,
            }
        );
        assert!(n.zone().is_none());
        assert_eq!(n.slack(), &[0.0]);
        assert_eq!(n.epoch(), 0);
        assert!(n.is_pending());
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

    #[test]
    fn vector_and_slack_are_written_in_place_bit_for_bit() {
        let mut n = Node::new(5, f());
        let at = |n: &Node| (n.local_vector().unwrap().as_ptr(), n.slack().as_ptr());
        let _ = n.update_data(vec![0.0]);
        let home = at(&n);
        let z = zone();
        n.handle(CoordinatorMessage::NewConstraints {
            zone: z.clone(),
            slack: vec![0.25],
            epoch: 1,
        });
        assert_eq!((at(&n), n.slack()), (home, &[0.25][..]));
        assert!(n.update_data(vec![0.5]).is_none());
        assert_eq!((at(&n), n.local_vector()), (home, Some(&[0.5][..])));
        n.handle(CoordinatorMessage::NewConstraintsCached {
            update: z.head.clone(),
            slack: vec![-0.5],
            epoch: 2,
        });
        assert_eq!((at(&n), n.slack()), (home, &[-0.5][..]));
        n.handle(CoordinatorMessage::SlackUpdate {
            slack: vec![0.125],
            epoch: 2,
        });
        assert_eq!((at(&n), n.slack()), (home, &[0.125][..]));
        assert!(n.restart(5).is_some());
        assert_eq!((at(&n), n.slack()), (home, &[0.0][..]));

        // Pending after the restart's registration: updates only write
        // the block, and a pull returns exactly the bits written.
        let pull = |n: &mut Node| {
            let pulled = n.handle(CoordinatorMessage::RequestLocalVector { epoch: 0 });
            match pulled {
                Some(NodeMessage::LocalVector { vector, .. }) => vector[0].to_bits(),
                other => panic!("unexpected {other:?}"),
            }
        };
        let nan = 0x7ff8_0000_dead_beef_u64;
        for bits in [nan, 0xfff0_0000_0000_0001, (-0.0f64).to_bits()] {
            assert!(n.update_data(vec![f64::from_bits(bits)]).is_none());
            assert_eq!(at(&n), home);
            assert_eq!(pull(&mut n), bits);
        }
        // A registration carries the payload bit for bit too.
        match Node::new(6, f()).update_data(vec![f64::from_bits(nan)]) {
            Some(NodeMessage::Violation { local_vector, .. }) => {
                assert_eq!(local_vector[0].to_bits(), nan);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn an_install_of_the_wrong_dimension_is_refused_with_a_resync() {
        let tel = Telemetry::enabled();
        let refused = || tel.counter("automon_node_refused_installs_total", "").get();
        let good = zone();
        let head = |edit: fn(&mut ZoneUpdate)| {
            let mut h = (*good.head).clone();
            edit(&mut h);
            h
        };
        fn boxed(lo: Vec<f64>, hi: Vec<f64>) -> Option<NeighborhoodBox> {
            Some(NeighborhoodBox { lo, hi })
        }
        let bad_heads = [
            head(|h| h.x0 = vec![0.0, 0.0]),
            head(|h| h.grad0 = vec![]),
            head(|h| h.neighborhood = boxed(vec![-1.0], vec![1.0, 1.0])),
            head(|h| h.neighborhood = boxed(vec![], vec![1.0])),
        ];
        let mut installs: Vec<CoordinatorMessage> = bad_heads
            .iter()
            .map(|h| CoordinatorMessage::NewConstraints {
                zone: SafeZone::new(h.clone(), Curvature::Scalar(0.0)),
                slack: vec![0.0],
                epoch: 2,
            })
            .collect();
        installs.extend(bad_heads.into_iter().map(|h| {
            CoordinatorMessage::NewConstraintsCached {
                update: Arc::new(h),
                slack: vec![0.0],
                epoch: 2,
            }
        }));
        installs.extend([
            CoordinatorMessage::NewConstraints {
                zone: SafeZone {
                    head: good.head.clone(),
                    curvature: Arc::new(Curvature::quadratic(&Matrix::identity(2))),
                },
                slack: vec![0.0],
                epoch: 2,
            },
            CoordinatorMessage::NewConstraints {
                zone: good.clone(),
                slack: vec![0.0, 0.0],
                epoch: 2,
            },
            CoordinatorMessage::NewConstraintsCached {
                update: good.head.clone(),
                slack: vec![],
                epoch: 2,
            },
            CoordinatorMessage::SlackUpdate {
                slack: vec![0.0, 0.0],
                epoch: 1,
            },
        ]);
        for (k, msg) in installs.into_iter().enumerate() {
            let mut n = Node::new(0, f());
            n.set_telemetry(&tel);
            let _ = n.update_data([0.5]);
            n.handle(CoordinatorMessage::NewConstraints {
                zone: good.clone(),
                slack: vec![0.25],
                epoch: 1,
            });
            let what = format!("{msg:?}");
            assert_eq!(
                n.handle(msg),
                Some(NodeMessage::Violation {
                    node: 0,
                    kind: ViolationKind::Uninitialized,
                    local_vector: vec![0.5],
                    epoch: 1,
                }),
                "{what}"
            );
            assert_eq!(refused(), k as u64 + 1, "{what}");
            // Nothing was installed, and the node checks again once the
            // coordinator's resync arrives.
            assert!(n.zone().unwrap().shares_allocation(&good), "{what}");
            assert_eq!((n.slack(), n.epoch()), (&[0.25][..], 1), "{what}");
            assert!(n.update_data(&[0.25][..]).is_none(), "{what}");
            n.handle(CoordinatorMessage::NewConstraints {
                zone: good.clone(),
                slack: vec![0.0],
                epoch: 2,
            });
            assert!(n.update_data([0.75]).is_none(), "{what}");
            assert!(n.update_data(vec![1.5]).is_some(), "{what}");
        }
    }
}
