//! The AutoMon coordinator algorithm (paper Algorithm 1, coordinator side)
//! with slack and LRU lazy sync (paper §3.5).

use std::collections::BTreeSet;
use std::sync::Arc;

use automon_linalg::vector;
use automon_obs::{Counter, Gauge, Telemetry, TraceCtx};

use crate::adcd::{self, AdcdKind, DcDecomposition};
use crate::config::{ApproximationKind, MonitorConfig};
use crate::ledger::CommCause;
use crate::messages::{CoordinatorMessage, Epoch, NodeId, NodeMessage, Outbound};
use crate::safezone::{zip_into, Curvature, DcKind, Domain, SafeZone, ViolationKind};
use crate::slot_list::SlotList;
use crate::MonitoredFunction;

/// Counters the coordinator accumulates over a run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoordinatorStats {
    /// Full syncs performed (including the initial one).
    pub full_syncs: usize,
    /// Lazy syncs that resolved without a full sync.
    pub lazy_syncs: usize,
    /// Neighborhood violations received.
    pub neighborhood_violations: usize,
    /// Safe-zone violations received.
    pub safezone_violations: usize,
    /// Faulty-constraint reports received (§3.7 sanity check).
    pub faulty_reports: usize,
    /// Times the adaptive heuristic doubled `r` (§3.6).
    pub r_doublings: usize,
    /// Stale-epoch frames discarded (lossy-transport hardening).
    #[serde(default)]
    pub stale_discards: usize,
    /// Per-node constraint re-installs triggered by stale frames or
    /// re-registrations.
    #[serde(default)]
    pub resyncs: usize,
    /// Nodes evicted after being declared dead.
    #[serde(default)]
    pub evictions: usize,
    /// Nodes re-admitted after an eviction.
    #[serde(default)]
    pub rejoins: usize,
}

/// A restorable snapshot of the coordinator's protocol state
/// (everything except the function and configuration, which are code).
///
/// Produce with [`Coordinator::snapshot`], persist anywhere (`serde`),
/// and revive with [`Coordinator::restore`] +
/// [`Coordinator::resync_messages`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoordinatorSnapshot {
    /// Number of nodes.
    pub n: usize,
    /// Neighborhood radius in force.
    pub r: f64,
    /// Constraints in force, if initialized.
    pub zone: Option<SafeZone>,
    /// Per-node slack vectors.
    pub slack: Vec<Vec<f64>>,
    /// Last known raw local vectors.
    pub known_x: Vec<Option<Vec<f64>>>,
    /// LRU contact order (front = least recent).
    pub lru: Vec<NodeId>,
    /// Accumulated statistics.
    pub stats: CoordinatorStats,
    /// Adaptive-growth counter (§3.6).
    pub consecutive_neighborhood: usize,
    /// Constraint epoch in force (snapshots from older versions restore
    /// as epoch 0; the first post-restore full sync re-opens it).
    #[serde(default)]
    pub epoch: Epoch,
    /// Per-node liveness; evicted nodes are `false`. Empty in snapshots
    /// from older versions (restored as all-alive).
    #[serde(default)]
    pub alive: Vec<bool>,
    /// Which nodes hold the current curvature matrices (§4.4 cached
    /// installs). Empty in snapshots from older versions (restored as
    /// all-false: the first post-restore sync re-ships curvature).
    #[serde(default)]
    pub node_has_curvature: Vec<bool>,
}

/// Pre-registered telemetry handles for the coordinator.
///
/// Built from [`Telemetry::disabled`] by default, so every update below
/// is a single no-op branch until [`Coordinator::set_telemetry`]
/// installs a live handle — the protocol pays nothing for observability
/// it did not ask for.
struct CoordTel {
    tel: Telemetry,
    full_syncs: Counter,
    lazy_syncs: Counter,
    viol_neighborhood: Counter,
    viol_safezone: Counter,
    viol_faulty: Counter,
    r_doublings: Counter,
    stale_discards: Counter,
    resyncs: Counter,
    evictions: Counter,
    rejoins: Counter,
    slack_updates: Counter,
    /// Lazy-sync growth picks that had to fall back to a backpressured
    /// node because no unpressured candidate existed.
    backpressure_fallbacks: Counter,
    snap_taken: Counter,
    snap_deferred: Counter,
    epoch: Gauge,
    radius: Gauge,
    alive: Gauge,
}

impl CoordTel {
    fn new(tel: Telemetry) -> Self {
        Self {
            full_syncs: tel.counter(
                "automon_coord_full_syncs_total",
                "Full syncs performed (including the initial one)",
            ),
            lazy_syncs: tel.counter(
                "automon_coord_lazy_syncs_total",
                "Lazy syncs resolved without a full sync",
            ),
            viol_neighborhood: tel.counter(
                "automon_coord_violations_total{kind=\"neighborhood\"}",
                "Violation reports received, by kind",
            ),
            viol_safezone: tel.counter(
                "automon_coord_violations_total{kind=\"safezone\"}",
                "Violation reports received, by kind",
            ),
            viol_faulty: tel.counter(
                "automon_coord_violations_total{kind=\"faulty\"}",
                "Violation reports received, by kind",
            ),
            r_doublings: tel.counter(
                "automon_coord_r_doublings_total",
                "Adaptive doublings of the neighborhood radius",
            ),
            stale_discards: tel.counter(
                "automon_coord_stale_discards_total",
                "Stale-epoch frames discarded",
            ),
            resyncs: tel.counter(
                "automon_coord_resyncs_total",
                "Per-node constraint re-installs",
            ),
            evictions: tel.counter(
                "automon_coord_evictions_total",
                "Nodes evicted after being declared dead",
            ),
            rejoins: tel.counter(
                "automon_coord_rejoins_total",
                "Nodes re-admitted after an eviction",
            ),
            slack_updates: tel.counter(
                "automon_coord_slack_updates_total",
                "Slack vectors redistributed by lazy syncs",
            ),
            backpressure_fallbacks: tel.counter(
                "automon_coord_backpressure_fallbacks_total",
                "Lazy-sync growth picks forced onto a backpressured node",
            ),
            snap_taken: tel.counter(
                "automon_coord_snapshot_taken_total",
                "Durable snapshots captured (including retried deferrals)",
            ),
            snap_deferred: tel.counter(
                "automon_coord_snapshot_deferred_total",
                "Snapshot requests deferred because a sync was in flight",
            ),
            epoch: tel.gauge("automon_coord_epoch", "Constraint epoch in force"),
            radius: tel.gauge(
                "automon_coord_neighborhood_r",
                "Neighborhood radius in force",
            ),
            alive: tel.gauge("automon_coord_alive_nodes", "Non-evicted nodes"),
            tel,
        }
    }
}

/// Violation-resolution state.
enum SyncState {
    /// Waiting for every node's first vector.
    Initializing,
    /// All constraints in force; nothing outstanding.
    Monitoring,
    /// Lazy sync in progress: `set` is the balancing set `S`, `pending`
    /// the node whose vector was requested.
    Lazy {
        set: BTreeSet<NodeId>,
        pending: Option<NodeId>,
    },
    /// Full sync in progress, waiting for `pending`'s vectors.
    Full { pending: BTreeSet<NodeId> },
}

/// The AutoMon coordinator.
///
/// Drive it by feeding every [`NodeMessage`] to [`Coordinator::handle`]
/// and forwarding the returned [`Outbound`] messages to their nodes.
pub struct Coordinator {
    f: Arc<dyn MonitoredFunction>,
    n: usize,
    cfg: MonitorConfig,
    domain: Domain,
    r: f64,
    zone: Option<SafeZone>,
    slack: Vec<Vec<f64>>,
    known_x: Vec<Option<Vec<f64>>>,
    /// Alive members whose vector is still unknown (`known_x` is
    /// `None`); initialization is complete when this reaches zero.
    unregistered: usize,
    /// Least-recently-contacted order; front = least recent. Intrusive
    /// slot-index list: touch/remove are O(1) (paper §3.5's LRU). It
    /// links exactly the alive nodes, so it is also the membership set:
    /// eviction unlinks a node, a rejoin links it again.
    lru: SlotList,
    state: SyncState,
    stats: CoordinatorStats,
    /// Cached ADCD-E decomposition (constant Hessian ⇒ computed once).
    e_cache: Option<DcDecomposition>,
    /// Nodes that already hold the current curvature (can receive the
    /// matrix-free `NewConstraintsCached`).
    node_has_curvature: Vec<bool>,
    /// Consecutive neighborhood violations without a safe-zone violation.
    consecutive_neighborhood: usize,
    /// Constraint epoch; bumped on every completed full sync. Stamped on
    /// every outgoing message so stale frames are recognizable.
    epoch: Epoch,
    /// Transport backpressure flags (reactor backend): flagged nodes
    /// are deprioritized when growing a lazy-sync balancing set, since
    /// pulling from a node whose outbound queue is jammed adds latency
    /// to the whole resolution. Not journaled — purely transient
    /// transport state, reset to all-clear on restore.
    backpressured: Vec<bool>,
    /// Durability sink (no-op until `set_journal`): every state
    /// transition that a restore must reproduce is recorded here.
    journal: Option<Box<dyn crate::journal::Journal>>,
    /// A snapshot was requested mid-sync and must be retried at the
    /// next quiescent point (see `request_snapshot`).
    snapshot_deferred: bool,
    /// Observability handles (no-op until `set_telemetry`).
    tel: CoordTel,
}

impl Coordinator {
    /// Create a coordinator for `n` nodes monitoring `f`.
    pub fn new(f: Arc<dyn MonitoredFunction>, n: usize, cfg: MonitorConfig) -> Self {
        assert!(n > 0, "Coordinator: need at least one node");
        let d = f.dim();
        let domain = Domain::of(f.as_ref());
        let r = cfg.neighborhood.initial_r();
        Self {
            f,
            n,
            cfg,
            domain,
            r,
            zone: None,
            slack: vec![vec![0.0; d]; n],
            known_x: vec![None; n],
            unregistered: n,
            lru: SlotList::with_all(n),
            state: SyncState::Initializing,
            stats: CoordinatorStats::default(),
            e_cache: None,
            node_has_curvature: vec![false; n],
            consecutive_neighborhood: 0,
            epoch: 0,
            backpressured: vec![false; n],
            journal: None,
            snapshot_deferred: false,
            tel: CoordTel::new(Telemetry::disabled()),
        }
    }

    /// Install an observability handle. Metrics are registered eagerly
    /// so hot-path updates touch pre-resolved atomics; gauges are primed
    /// with the state in force. The coordinator is driven by a single
    /// loop, so its trace events satisfy the sequential-context contract
    /// of [`automon_obs::trace`].
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        let t = CoordTel::new(tel);
        t.epoch.set(self.epoch as f64);
        t.radius.set(self.r);
        t.alive.set(self.alive_count() as f64);
        self.tel = t;
    }

    /// Install a durability sink. From now on every state transition a
    /// restore must reproduce — node registrations, slack updates,
    /// epoch bumps, evictions, rejoins, r-doublings — is recorded
    /// through it (DESIGN.md §3.13).
    pub fn set_journal(&mut self, journal: Box<dyn crate::journal::Journal>) {
        self.journal = Some(journal);
    }

    fn journal_node(&mut self, node: NodeId) {
        let t = crate::journal::Transition::Node {
            node,
            x: self.known_x[node].clone(),
            slack: self.slack[node].clone(),
            alive: self.lru.contains(node),
            has_curvature: self.node_has_curvature[node],
        };
        if let Some(j) = &mut self.journal {
            j.record(t);
        }
    }

    fn journal_zone(&mut self) {
        let t = crate::journal::Transition::Zone {
            epoch: self.epoch,
            r: self.r,
            zone: self.zone.clone().map(Box::new),
        };
        if let Some(j) = &mut self.journal {
            j.record(t);
        }
    }

    fn journal_control(&mut self) {
        let t = crate::journal::Transition::Control {
            lru: self.lru.iter().collect(),
            stats: self.stats.clone(),
            consecutive_neighborhood: self.consecutive_neighborhood,
        };
        if let Some(j) = &mut self.journal {
            j.record(t);
        }
    }

    /// Journal the delta a just-handled message (or eviction) produced.
    ///
    /// `pre` is `(epoch, r, lazy_syncs)` captured before the mutation.
    /// An epoch bump means a full sync rewrote every member's slack; a
    /// `lazy_syncs` bump rewrote the balancing set's — both journal all
    /// alive nodes. Otherwise only `touched` changed. The control
    /// record (LRU order, counters) rides along every time.
    fn journal_delta(&mut self, touched: Option<NodeId>, pre: (Epoch, f64, usize)) {
        let (epoch0, r0, lazy0) = pre;
        let full = self.epoch != epoch0;
        if full || self.r != r0 {
            self.journal_zone();
        }
        if full || self.stats.lazy_syncs != lazy0 {
            for i in 0..self.n {
                if self.lru.contains(i) {
                    self.journal_node(i);
                }
            }
            if let Some(t) = touched {
                if !self.lru.contains(t) {
                    self.journal_node(t);
                }
            }
        } else if let Some(t) = touched {
            self.journal_node(t);
        }
        self.journal_control();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// The current approximation `f(x0)`, once initialized.
    pub fn current_value(&self) -> Option<f64> {
        self.zone.as_ref().map(|z| z.f0)
    }

    /// The safe zone currently in force.
    pub fn zone(&self) -> Option<&SafeZone> {
        self.zone.as_ref()
    }

    /// The current neighborhood radius `r`.
    pub fn neighborhood_r(&self) -> f64 {
        self.r
    }

    /// The constraint epoch currently in force.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// `true` while `node` is part of the monitored set.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.lru.contains(node)
    }

    /// Number of non-evicted nodes. O(1).
    pub fn alive_count(&self) -> usize {
        self.lru.len()
    }

    /// Flag (or clear) transport backpressure on `node`. Backpressured
    /// nodes are passed over when a lazy sync grows its balancing set,
    /// as long as an unpressured candidate exists; with no flags set the
    /// growth order is plain LRU. Drive this from the reactor
    /// transport's `backpressured_nodes()` between rounds.
    pub fn set_backpressured(&mut self, node: NodeId, on: bool) {
        self.backpressured[node] = on;
    }

    /// `true` while `node` is flagged as backpressured.
    pub fn is_backpressured(&self, node: NodeId) -> bool {
        self.backpressured[node]
    }

    /// `true` while a violation resolution (lazy or full sync) is in
    /// flight — i.e. the coordinator is waiting on node replies.
    pub fn is_resolving(&self) -> bool {
        matches!(self.state, SyncState::Lazy { .. } | SyncState::Full { .. })
    }

    /// The vector pulls the coordinator is still waiting on — what a
    /// lossy transport re-sends after a retransmit timeout, and what a
    /// liveness monitor uses to identify candidate dead nodes.
    pub fn outstanding_requests(&self) -> Vec<Outbound> {
        // The cause derives from the sync state (not from what triggered
        // it) so a re-issued pull is value-identical to the original.
        let pull = |i: NodeId, cause: CommCause| {
            Outbound::new(
                i,
                CoordinatorMessage::RequestLocalVector { epoch: self.epoch },
                cause,
            )
        };
        match &self.state {
            SyncState::Lazy {
                pending: Some(p), ..
            } => vec![pull(*p, CommCause::LazySync)],
            SyncState::Full { pending } => pending
                .iter()
                .copied()
                .map(|i| pull(i, CommCause::FullSync))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Declare `node` dead and remove it from the monitored set.
    ///
    /// The remaining nodes are re-synced in full so the reference point
    /// and slack are redistributed over the survivors — restoring the
    /// ε-guarantee for the average of the nodes that still exist. A
    /// later message from the node re-admits it (see
    /// [`Coordinator::handle`]).
    ///
    /// Returns the messages driving that recovery sync (empty when the
    /// node was already evicted or no survivors remain).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn evict(&mut self, node: NodeId) -> Vec<Outbound> {
        assert!(node < self.n, "evict: unknown node {node}");
        if !self.lru.contains(node) {
            return Vec::new();
        }
        let pre = self
            .journal
            .is_some()
            .then_some((self.epoch, self.r, self.stats.lazy_syncs));
        let out = self.evict_inner(node);
        if let Some(pre) = pre {
            self.journal_delta(Some(node), pre);
        }
        out
    }

    fn evict_inner(&mut self, node: NodeId) -> Vec<Outbound> {
        if self.known_x[node].take().is_none() {
            self.unregistered -= 1;
        }
        self.node_has_curvature[node] = false;
        self.lru.remove(node);
        self.stats.evictions += 1;
        self.tel.evictions.inc();
        self.tel.alive.set(self.alive_count() as f64);
        self.tel.tel.event("evict", &[("node", node.into())]);
        if self.alive_count() == 0 {
            self.state = SyncState::Initializing;
            return Vec::new();
        }
        if self.zone.is_none() {
            // Not initialized yet: the survivors may now be complete.
            self.state = SyncState::Initializing;
            if self.unregistered == 0 {
                return self.full_sync();
            }
            return Vec::new();
        }
        // Pull fresh vectors from every survivor, then full-sync.
        self.begin_full_sync(BTreeSet::new())
    }

    /// Re-install the current constraints (and, when the node is holding
    /// up a sync, re-issue the pull) on a node that sent a stale-epoch
    /// frame: it missed a constraint install on a lossy link.
    fn resync_node(&mut self, node: NodeId) -> Vec<Outbound> {
        let Some(zone) = self.zone.clone() else {
            return Vec::new();
        };
        self.stats.resyncs += 1;
        self.tel.resyncs.inc();
        self.node_has_curvature[node] = true;
        let mut out = vec![Outbound::new(
            node,
            CoordinatorMessage::NewConstraints {
                zone,
                slack: self.slack[node].clone(),
                epoch: self.epoch,
            },
            CommCause::Resync,
        )];
        let repull = match &self.state {
            SyncState::Lazy { pending, .. } => *pending == Some(node),
            SyncState::Full { pending } => pending.contains(&node),
            _ => false,
        };
        if repull {
            out.push(Outbound::new(
                node,
                CoordinatorMessage::RequestLocalVector { epoch: self.epoch },
                CommCause::Resync,
            ));
        }
        out
    }

    /// Capture a restorable snapshot of the protocol state.
    ///
    /// Only available while no violation resolution is in flight
    /// (`None` otherwise): a mid-sync snapshot would strand the pending
    /// pulls. Pair with [`Coordinator::restore`] and
    /// [`Coordinator::resync_messages`] for coordinator failover.
    pub fn snapshot(&self) -> Option<CoordinatorSnapshot> {
        match self.state {
            SyncState::Monitoring | SyncState::Initializing => Some(CoordinatorSnapshot {
                n: self.n,
                r: self.r,
                zone: self.zone.clone(),
                slack: self.slack.clone(),
                known_x: self.known_x.clone(),
                lru: self.lru.iter().collect(),
                stats: self.stats.clone(),
                consecutive_neighborhood: self.consecutive_neighborhood,
                epoch: self.epoch,
                alive: (0..self.n).map(|i| self.lru.contains(i)).collect(),
                node_has_curvature: self.node_has_curvature.clone(),
            }),
            _ => None,
        }
    }

    /// [`Coordinator::snapshot`] with deferral tracking: a request that
    /// lands mid-sync is remembered and retried via
    /// [`Coordinator::take_deferred_snapshot`] at the next quiescent
    /// point, instead of being silently skipped. Counted in
    /// `automon_coord_snapshot_{taken,deferred}_total`.
    pub fn request_snapshot(&mut self) -> Option<CoordinatorSnapshot> {
        match self.snapshot() {
            Some(s) => {
                self.snapshot_deferred = false;
                self.tel.snap_taken.inc();
                Some(s)
            }
            None => {
                self.snapshot_deferred = true;
                self.tel.snap_deferred.inc();
                None
            }
        }
    }

    /// Retry a deferred snapshot request. `Some` only when a request
    /// was deferred and the coordinator is now quiescent.
    pub fn take_deferred_snapshot(&mut self) -> Option<CoordinatorSnapshot> {
        if !self.snapshot_deferred {
            return None;
        }
        let snap = self.snapshot()?;
        self.snapshot_deferred = false;
        self.tel.snap_taken.inc();
        Some(snap)
    }

    /// `true` while a deferred snapshot request is outstanding.
    pub fn snapshot_pending(&self) -> bool {
        self.snapshot_deferred
    }

    /// Start the post-recovery resynchronization: pull fresh vectors
    /// from every alive node, then full-sync the fleet — the restored
    /// reference point may be arbitrarily stale, and the sync also
    /// re-opens a fresh epoch so anything in flight from before the
    /// crash is recognizably stale.
    ///
    /// Empty before initialization completes (no constraints exist to
    /// rebuild; registration traffic converges on its own — and nodes
    /// that never registered cannot answer a pull yet).
    pub fn begin_recovery_sync(&mut self) -> Vec<Outbound> {
        if self.zone.is_some() && self.alive_count() > 0 {
            self.begin_full_sync(BTreeSet::new())
        } else {
            Vec::new()
        }
    }

    /// Rebuild a coordinator from a snapshot.
    ///
    /// The function and configuration are supplied by the caller (they
    /// are code, not state) and must match the snapshotting process's.
    ///
    /// # Panics
    /// Panics when the function dimension disagrees with the snapshot.
    pub fn restore(
        f: Arc<dyn MonitoredFunction>,
        cfg: MonitorConfig,
        snap: CoordinatorSnapshot,
    ) -> Self {
        let d = f.dim();
        assert!(
            snap.slack.iter().all(|s| s.len() == d),
            "restore: snapshot dimension mismatch"
        );
        let alive = if snap.alive.len() == snap.n {
            snap.alive
        } else {
            // Older snapshot without liveness: everyone is alive.
            vec![true; snap.n]
        };
        let node_has_curvature = if snap.node_has_curvature.len() == snap.n {
            snap.node_has_curvature
        } else {
            // Older snapshot: conservative — the first post-restore
            // sync re-ships curvature to everyone.
            vec![false; snap.n]
        };
        // Membership comes from `alive`, contact order from `lru`; an
        // alive node the order omits counts as the most recently touched.
        let mut lru = SlotList::from_order(snap.n, &snap.lru);
        for (i, &a) in alive.iter().enumerate() {
            if !a {
                lru.remove(i);
            } else if !lru.contains(i) {
                lru.touch(i);
            }
        }
        let unregistered = snap
            .known_x
            .iter()
            .zip(&alive)
            .filter(|(x, &a)| a && x.is_none())
            .count();
        let state = if unregistered == 0 && snap.zone.is_some() {
            SyncState::Monitoring
        } else {
            SyncState::Initializing
        };
        // The domain is code-derived, exactly as in `new`.
        let domain = Domain::of(f.as_ref());
        Self {
            f,
            n: snap.n,
            cfg,
            domain,
            r: snap.r,
            zone: snap.zone,
            slack: snap.slack,
            known_x: snap.known_x,
            unregistered,
            lru,
            state,
            stats: snap.stats,
            e_cache: None,
            node_has_curvature,
            consecutive_neighborhood: snap.consecutive_neighborhood,
            epoch: snap.epoch,
            backpressured: vec![false; snap.n],
            journal: None,
            snapshot_deferred: false,
            tel: CoordTel::new(Telemetry::disabled()),
        }
    }

    /// Messages that re-install the current constraints on every node —
    /// what a restored (or restarted) coordinator broadcasts so nodes
    /// converge back to a known state.
    ///
    /// Empty when no constraints exist yet.
    pub fn resync_messages(&self) -> Vec<Outbound> {
        let Some(zone) = &self.zone else {
            return Vec::new();
        };
        (0..self.n)
            .filter(|&i| self.lru.contains(i))
            .map(|i| {
                Outbound::new(
                    i,
                    CoordinatorMessage::NewConstraints {
                        zone: zone.clone(),
                        slack: self.slack[i].clone(),
                        epoch: self.epoch,
                    },
                    CommCause::Resync,
                )
            })
            .collect()
    }

    /// Process one node message; returns the coordinator's replies.
    ///
    /// Self-healing behavior on top of the paper's Algorithm 1:
    ///
    /// * a frame stamped with an epoch older than the constraints in
    ///   force is **discarded** (it predates a re-sync the node missed)
    ///   and answered with a fresh constraint install;
    /// * an `Uninitialized` report from an already-initialized node is a
    ///   **re-registration** (the node lost its state, e.g. a process
    ///   restart) and triggers a full sync from scratch;
    /// * any message from an evicted node **re-admits** it; the whole
    ///   group is then full-synced so the rejoining node gets fresh
    ///   constraints and the slack invariant is re-established.
    pub fn handle(&mut self, msg: NodeMessage) -> Vec<Outbound> {
        self.handle_with_context(msg, TraceCtx::NONE)
    }

    /// [`Coordinator::handle`] with wire-propagated trace context.
    ///
    /// Opens a coordinator-side `handle` span parented on `ctx.span` —
    /// the node-side span that produced the frame, carried in its
    /// header — and stamps the new span on every reply, so downstream
    /// frames propagate it back out and the whole exchange forms one
    /// causal tree. With telemetry disabled this is exactly `handle`
    /// (one branch, no allocation).
    pub fn handle_with_context(&mut self, msg: NodeMessage, ctx: TraceCtx) -> Vec<Outbound> {
        let span = self.tel.tel.span_begin(
            "handle",
            ctx.span,
            &[("node", msg.sender().into()), ("epoch", msg.epoch().into())],
        );
        let sender = msg.sender();
        let pre = self
            .journal
            .is_some()
            .then_some((self.epoch, self.r, self.stats.lazy_syncs));
        let mut out = self.handle_inner(msg);
        if let Some(pre) = pre {
            self.journal_delta(Some(sender), pre);
        }
        if span.is_some() {
            for o in &mut out {
                o.span = span;
            }
            self.tel.tel.span_end(span, &[("replies", out.len().into())]);
        }
        out
    }

    fn handle_inner(&mut self, msg: NodeMessage) -> Vec<Outbound> {
        let sender = msg.sender();
        assert!(sender < self.n, "message from unknown node {sender}");
        let epoch = msg.epoch();
        let (vector, violation) = match msg {
            NodeMessage::Violation {
                kind, local_vector, ..
            } => (local_vector, Some(kind)),
            NodeMessage::LocalVector { vector, .. } => (vector, None),
        };
        let rejoining = !self.lru.contains(sender);
        if rejoining {
            // Re-admit: linking the node makes it a member again, with
            // no vector known yet.
            self.touch_lru(sender);
            self.unregistered += 1;
            self.node_has_curvature[sender] = false;
            self.stats.rejoins += 1;
            self.tel.rejoins.inc();
            self.tel.alive.set(self.alive_count() as f64);
            self.tel.tel.event("rejoin", &[("node", sender.into())]);
        } else if epoch < self.epoch && violation != Some(ViolationKind::Uninitialized) {
            // Stale frame: the node is monitoring under superseded
            // constraints (a full-sync install got lost or delayed).
            // Its payload must not be mixed into the current sync;
            // re-install the constraints in force instead.
            self.stats.stale_discards += 1;
            self.tel.stale_discards.inc();
            return self.resync_node(sender);
        }
        if violation == Some(ViolationKind::Uninitialized) {
            // An uninitialized node holds no zone and no cached
            // curvature — whatever we knew belonged to a previous
            // incarnation. Every later install must carry the full
            // payload or the node would re-register forever.
            self.node_has_curvature[sender] = false;
        }
        if self.known_x[sender].replace(vector).is_none() {
            self.unregistered -= 1;
        }
        self.touch_lru(sender);
        if let Some(kind) = violation {
            self.record_violation(kind);
        }
        if rejoining && self.zone.is_some() {
            // Resync from scratch, newcomer included: fresh vectors from
            // every survivor, then a full sync that redistributes slack
            // over the enlarged group.
            return self.begin_full_sync([sender].into_iter().collect());
        }

        match std::mem::replace(&mut self.state, SyncState::Monitoring) {
            SyncState::Initializing => {
                if self.unregistered == 0 {
                    self.full_sync()
                } else {
                    self.state = SyncState::Initializing;
                    Vec::new()
                }
            }
            SyncState::Monitoring => {
                // A LocalVector reply can straggle in after its sync was
                // resolved (e.g. a lazy sync satisfied by another node's
                // violation report); absorb it as a free refresh.
                let Some(kind) = violation else {
                    return Vec::new();
                };
                if kind == ViolationKind::Uninitialized {
                    // Re-registration: the node lost its constraints.
                    self.stats.resyncs += 1;
                    self.tel.resyncs.inc();
                    return self.begin_full_sync([sender].into_iter().collect());
                }
                let lazy_applicable = self.cfg.enable_lazy_sync
                    && self.cfg.enable_slack
                    && kind != ViolationKind::FaultyConstraints
                    && self.alive_count() > 1;
                if !lazy_applicable {
                    return self.begin_full_sync([sender].into_iter().collect());
                }
                let mut set = BTreeSet::new();
                set.insert(sender);
                self.continue_lazy(set)
            }
            SyncState::Lazy { mut set, pending } => {
                set.insert(sender);
                if matches!(
                    violation,
                    Some(ViolationKind::FaultyConstraints) | Some(ViolationKind::Uninitialized)
                ) {
                    return self.begin_full_sync(set);
                }
                match pending {
                    Some(p) if p != sender => {
                        // Still waiting for p; keep state.
                        self.state = SyncState::Lazy {
                            set,
                            pending: Some(p),
                        };
                        Vec::new()
                    }
                    _ => self.continue_lazy(set),
                }
            }
            SyncState::Full { mut pending } => {
                pending.remove(&sender);
                if pending.is_empty() {
                    self.full_sync()
                } else {
                    self.state = SyncState::Full { pending };
                    Vec::new()
                }
            }
        }
    }

    fn record_violation(&mut self, kind: ViolationKind) {
        /// `r` doubles after this many times `n` consecutive neighborhood
        /// violations with no safe-zone violation in between (paper §3.6).
        const ADAPTIVE_R_FACTOR: usize = 5;

        match kind {
            ViolationKind::Neighborhood => {
                self.stats.neighborhood_violations += 1;
                self.tel.viol_neighborhood.inc();
                self.consecutive_neighborhood += 1;
                // Adaptive growth heuristic (paper §3.6): after
                // `factor · n` consecutive neighborhood violations with no
                // intervening safe-zone violation, double r.
                if self.cfg.neighborhood.is_adaptive()
                    && self.consecutive_neighborhood >= ADAPTIVE_R_FACTOR * self.n
                {
                    self.r *= 2.0;
                    self.stats.r_doublings += 1;
                    self.tel.r_doublings.inc();
                    self.tel.radius.set(self.r);
                    self.tel.tel.event("r_doubled", &[("r", self.r.into())]);
                    self.consecutive_neighborhood = 0;
                }
            }
            ViolationKind::SafeZone => {
                self.stats.safezone_violations += 1;
                self.tel.viol_safezone.inc();
                self.consecutive_neighborhood = 0;
            }
            ViolationKind::FaultyConstraints => {
                self.stats.faulty_reports += 1;
                self.tel.viol_faulty.inc();
                self.consecutive_neighborhood = 0;
            }
            ViolationKind::Uninitialized => {}
        }
    }

    fn touch_lru(&mut self, node: NodeId) {
        self.lru.touch(node);
    }

    /// Try to resolve with the current balancing set, growing it via the
    /// LRU strategy; escalate to full sync past `n/2` (paper §3.5).
    fn continue_lazy(&mut self, set: BTreeSet<NodeId>) -> Vec<Outbound> {
        if let Some(b) = self.try_balance(&set) {
            let mut out = Vec::with_capacity(set.len());
            for &i in &set {
                let xi = self.known_x[i].as_ref().expect("vector known for set member");
                zip_into(&mut self.slack[i], &b, xi, |a, c| a - c);
                out.push(Outbound::new(
                    i,
                    CoordinatorMessage::SlackUpdate {
                        slack: self.slack[i].clone(),
                        epoch: self.epoch,
                    },
                    CommCause::LazySync,
                ));
            }
            self.stats.lazy_syncs += 1;
            self.tel.lazy_syncs.inc();
            self.tel.slack_updates.add(set.len() as u64);
            self.tel
                .tel
                .event("lazy_sync", &[("nodes", set.len().into())]);
            self.state = SyncState::Monitoring;
            return out;
        }
        if 2 * set.len() > self.alive_count() {
            return self.begin_full_sync(set);
        }
        // Grow S with the least-recently-used node outside it (the LRU
        // order only ever contains alive nodes). Nodes under transport
        // backpressure are passed over when any unpressured candidate
        // exists — identical to plain LRU when no flags are set.
        let next = self
            .lru
            .iter()
            .find(|i| !set.contains(i) && !self.backpressured[*i])
            .or_else(|| self.lru.iter().find(|i| !set.contains(i)));
        if let Some(p) = next {
            if self.backpressured[p] {
                self.tel.backpressure_fallbacks.inc();
            }
        }
        match next {
            Some(p) => {
                self.touch_lru(p);
                self.state = SyncState::Lazy {
                    set,
                    pending: Some(p),
                };
                vec![Outbound::new(
                    p,
                    CoordinatorMessage::RequestLocalVector { epoch: self.epoch },
                    CommCause::LazySync,
                )]
            }
            None => self.begin_full_sync(set),
        }
    }

    /// Average of the slack-adjusted vectors `xᵢ + sᵢ` of the balancing
    /// set, summed in one pass in id order: the bits of `vector::mean`
    /// over `vector::add(xᵢ, sᵢ)` (its `+= 1.0 · v` is exact), with no
    /// vector per member.
    fn balance_point(&self, set: &BTreeSet<NodeId>) -> Vec<f64> {
        assert!(!set.is_empty(), "non-empty balancing set");
        let mut b = vec![0.0; self.f.dim()];
        for &i in set {
            let xi = self.known_x[i].as_ref().expect("vector known");
            for ((bk, xk), sk) in b.iter_mut().zip(xi).zip(&self.slack[i]) {
                *bk += xk + sk;
            }
        }
        let inv = 1.0 / set.len() as f64;
        for bk in &mut b {
            *bk *= inv;
        }
        b
    }

    /// The balance point, when it satisfies all local constraints.
    fn try_balance(&self, set: &BTreeSet<NodeId>) -> Option<Vec<f64>> {
        let zone = self.zone.as_ref()?;
        let b = self.balance_point(set);
        zone.contains(self.f.as_ref(), &b).then_some(b)
    }

    /// Request vectors from every alive node not in `have`, or sync
    /// immediately if everything is known.
    fn begin_full_sync(&mut self, have: BTreeSet<NodeId>) -> Vec<Outbound> {
        let pending: BTreeSet<NodeId> = (0..self.n)
            .filter(|&i| self.lru.contains(i) && !have.contains(&i))
            .collect();
        if pending.is_empty() {
            return self.full_sync();
        }
        let out = pending
            .iter()
            .map(|&i| {
                Outbound::new(
                    i,
                    CoordinatorMessage::RequestLocalVector { epoch: self.epoch },
                    CommCause::FullSync,
                )
            })
            .collect();
        self.state = SyncState::Full { pending };
        out
    }

    /// Paper Algorithm 1, `CoordinatorFullSync`: recompute `x0`,
    /// thresholds, decomposition, safe zone, and slack; broadcast.
    fn full_sync(&mut self) -> Vec<Outbound> {
        // x0 is `vector::mean` of the alive vectors, summed in place in id
        // order: the same bits without cloning any member.
        let members: Vec<NodeId> = (0..self.n).filter(|&i| self.lru.contains(i)).collect();
        assert!(!members.is_empty(), "at least one alive node");
        let mut x0 = vec![0.0; self.f.dim()];
        for &i in &members {
            let xi = self.known_x[i]
                .as_ref()
                .expect("full sync requires all alive vectors");
            vector::axpy(&mut x0, 1.0, xi);
        }
        let inv = 1.0 / members.len() as f64;
        for v in &mut x0 {
            *v *= inv;
        }
        let (f0, grad0) = self.f.eval_grad(&x0);
        let (l, u) = self.thresholds(f0);

        let mut old = self.zone.take();
        // Set where the new zone's penalty is the old zone's own matrix.
        let mut reused = false;
        let (dc, curvature, neighborhood) = if self.cfg.disable_adcd {
            (DcKind::AdmissibleOnly, Curvature::Scalar(0.0), None)
        } else {
            let use_e = self
                .cfg
                .adcd_override
                .map(|k| k == AdcdKind::E)
                .unwrap_or_else(|| self.f.has_constant_hessian());
            if use_e {
                // Constant Hessian: decomposition computed once, then
                // cached (paper §4.4: "eigendecomposition is done only
                // once at initialization").
                let cached = self.e_cache.is_some();
                let dec = self.e_cache.get_or_insert_with(|| {
                    adcd::decompose_observed(self.f.as_ref(), &x0, None, &self.cfg, &self.tel.tel)
                });
                // Every zone built since the cache was filled took its
                // penalty from it, so the old zone's matrix *is* the
                // cached one: move it across instead of copying d²
                // entries and then comparing them to learn as much. (A
                // zone restored from a snapshot predates the cache and
                // takes the copy-and-compare path once.)
                match old.take_if(|_| cached) {
                    Some(old) => {
                        reused = true;
                        (dec.dc, old.curvature, None)
                    }
                    None => (dec.dc, dec.curvature.clone(), None),
                }
            } else {
                let b = self.domain.neighborhood(&x0, self.r);
                let dec = adcd::decompose_observed(
                    self.f.as_ref(),
                    &x0,
                    Some(&b),
                    &self.cfg,
                    &self.tel.tel,
                );
                (dec.dc, dec.curvature, Some(b))
            }
        };
        let zone = SafeZone {
            x0: x0.clone(),
            f0,
            grad0,
            l,
            u,
            dc,
            curvature,
            neighborhood,
        };

        // A node that already holds this exact curvature gets the
        // matrix-free form — for ADCD-E the O(d²) penalty never crosses
        // the wire after the first sync (paper §4.4).
        let curvature_unchanged =
            reused || old.is_some_and(|old| old.curvature == zone.curvature && old.dc == zone.dc);
        // A completed full sync opens a new epoch; the installs below
        // carry it, and anything still in flight from before is stale.
        self.epoch += 1;
        let mut out = Vec::with_capacity(members.len());
        for &i in &members {
            if self.cfg.enable_slack {
                let xi = self.known_x[i].as_ref().expect("vector known");
                zip_into(&mut self.slack[i], &x0, xi, |a, c| a - c);
            } else {
                self.slack[i].clear();
                self.slack[i].resize(x0.len(), 0.0);
            }
            let msg = if curvature_unchanged && self.node_has_curvature[i] {
                CoordinatorMessage::NewConstraintsCached {
                    update: crate::messages::ZoneUpdate {
                        x0: zone.x0.clone(),
                        f0: zone.f0,
                        grad0: zone.grad0.clone(),
                        l: zone.l,
                        u: zone.u,
                        dc: zone.dc,
                        neighborhood: zone.neighborhood.clone(),
                    },
                    slack: self.slack[i].clone(),
                    epoch: self.epoch,
                }
            } else {
                self.node_has_curvature[i] = true;
                CoordinatorMessage::NewConstraints {
                    zone: zone.clone(),
                    slack: self.slack[i].clone(),
                    epoch: self.epoch,
                }
            };
            out.push(Outbound::new(i, msg, CommCause::FullSync));
        }
        self.tel.full_syncs.inc();
        self.tel.epoch.set(self.epoch as f64);
        self.tel.tel.event(
            "full_sync",
            &[
                ("epoch", self.epoch.into()),
                ("value", zone.f0.into()),
                ("lower", zone.l.into()),
                ("upper", zone.u.into()),
                ("members", members.len().into()),
            ],
        );
        self.zone = Some(zone);
        self.stats.full_syncs += 1;
        // Note: the consecutive-neighborhood-violation counter (paper
        // §3.6) deliberately survives full syncs — only an intervening
        // safe-zone violation resets it, so a too-small `r` that keeps
        // forcing syncs still triggers adaptive growth.
        self.state = SyncState::Monitoring;
        out
    }

    /// Thresholds from `f(x0)` (paper §2).
    fn thresholds(&self, f0: f64) -> (f64, f64) {
        match self.cfg.approximation {
            ApproximationKind::Additive => (f0 - self.cfg.epsilon, f0 + self.cfg.epsilon),
            ApproximationKind::Multiplicative => {
                let a = (1.0 - self.cfg.epsilon) * f0;
                let b = (1.0 + self.cfg.epsilon) * f0;
                (a.min(b), a.max(b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};

    struct Sum2;
    impl ScalarFn for Sum2 {
        fn dim(&self) -> usize {
            2
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0] + x[1]
        }
    }

    fn setup(n: usize, cfg: MonitorConfig) -> (Coordinator, Vec<Node>) {
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Sum2));
        let coord = Coordinator::new(f.clone(), n, cfg);
        let nodes = (0..n).map(|i| Node::new(i, f.clone())).collect();
        (coord, nodes)
    }

    /// Deliver `first` and every cascading reply FIFO; returns the number
    /// of messages exchanged.
    fn route(coord: &mut Coordinator, nodes: &mut [Node], first: NodeMessage) -> usize {
        let mut inbox = std::collections::VecDeque::from([first]);
        let mut count = 0usize;
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

    #[test]
    fn initializes_after_all_register() {
        let (mut coord, mut nodes) = setup(3, MonitorConfig::builder(0.5).build());
        for i in 0..3 {
            let m = nodes[i].update_data(vec![i as f64, 0.0]).unwrap();
            route(&mut coord, &mut nodes, m);
        }
        // After three registrations the coordinator full-synced.
        assert_eq!(coord.stats().full_syncs, 1);
        // x0 = mean([0,0],[1,0],[2,0]) = [1, 0]; f(x0) = 1.
        assert_eq!(coord.current_value(), Some(1.0));
        assert_eq!(nodes[2].current_value(), Some(1.0));
    }

    #[test]
    fn lazy_sync_resolves_opposite_drifts() {
        // Linear function: safe zone contains the whole slab
        // L ≤ x₀+x₁ ≤ U. Two nodes drift in opposite directions; their
        // average stays at the reference, so lazy sync must resolve
        // without a second full sync.
        let (mut coord, mut nodes) = setup(2, MonitorConfig::builder(0.4).build());
        for i in 0..nodes.len() {
            if let Some(m) = nodes[i].update_data(vec![0.0, 0.0]) {
                for out in coord.handle(m) {
                    let _ = nodes[out.to].handle(out.msg);
                }
            }
        }
        assert_eq!(coord.stats().full_syncs, 1);

        // Both nodes drift by ±1 in x₀ (each violating ε = 0.4); the
        // drifts cancel, so a single lazy sync must resolve them.
        let m0 = nodes[0].update_data(vec![1.0, 0.0]).expect("violation");
        let m1 = nodes[1].update_data(vec![-1.0, 0.0]).expect("violation");
        // Deliver both reports through one FIFO queue, as a transport would.
        let mut inbox = std::collections::VecDeque::from([m0, m1]);
        while let Some(m) = inbox.pop_front() {
            for out in coord.handle(m) {
                if let Some(reply) = nodes[out.to].handle(out.msg) {
                    inbox.push_back(reply);
                }
            }
        }
        assert_eq!(coord.stats().lazy_syncs, 1, "{:?}", coord.stats());
        assert_eq!(coord.stats().full_syncs, 1);
        // Both nodes keep monitoring silently at the balanced point.
        assert!(nodes[0].update_data(vec![1.0, 0.0]).is_none());
        assert!(nodes[1].update_data(vec![-1.0, 0.0]).is_none());
    }

    #[test]
    fn full_sync_when_lazy_disabled() {
        let cfg = MonitorConfig::builder(0.4).without_lazy_sync().build();
        let (mut coord, mut nodes) = setup(2, cfg);
        let init = |coord: &mut Coordinator, nodes: &mut Vec<Node>| {
            for i in 0..2 {
                if let Some(m) = nodes[i].update_data(vec![0.0, 0.0]) {
                    for out in coord.handle(m) {
                        let _ = nodes[out.to].handle(out.msg);
                    }
                }
            }
        };
        init(&mut coord, &mut nodes);
        assert_eq!(coord.stats().full_syncs, 1);

        let m = nodes[0].update_data(vec![5.0, 0.0]).expect("violation");
        let mut inbox = vec![m];
        while let Some(m) = inbox.pop() {
            for out in coord.handle(m) {
                if let Some(reply) = nodes[out.to].handle(out.msg) {
                    inbox.push(reply);
                }
            }
        }
        assert_eq!(coord.stats().full_syncs, 2);
        assert_eq!(coord.stats().lazy_syncs, 0);
        // New reference: mean([5,0],[0,0]) = [2.5, 0] → f = 2.5.
        assert_eq!(coord.current_value(), Some(2.5));
    }

    #[test]
    fn thresholds_additive_and_multiplicative() {
        let (coord, _) = setup(1, MonitorConfig::builder(0.1).build());
        assert_eq!(coord.thresholds(2.0), (1.9, 2.1));
        let (coord, _) = setup(1, MonitorConfig::builder(0.1).multiplicative().build());
        let (l, u) = coord.thresholds(2.0);
        assert!((l - 1.8).abs() < 1e-12);
        assert!((u - 2.2).abs() < 1e-12);
        // Negative f(x0): bounds stay ordered.
        let (l, u) = coord.thresholds(-2.0);
        assert!(l < u);
        assert!((l + 2.2).abs() < 1e-12);
    }

    /// Register all nodes at the given vectors and run the initial sync.
    fn init(coord: &mut Coordinator, nodes: &mut [Node], xs: &[Vec<f64>]) {
        for (i, x) in xs.iter().enumerate() {
            if let Some(m) = nodes[i].update_data(x.clone()) {
                route(coord, nodes, m);
            }
        }
    }

    #[test]
    fn unbalanceable_violation_escalates_in_the_section_3_5_shape() {
        // One node drifts by 100 against ε = 0.1 while n − 1 stay at 0:
        // the balance point of any S is f = 100/|S| ≥ 100/16 > ε, so no
        // balancing set fixes it. §3.5 grows S = {sender} one pull at a
        // time while 2|S| ≤ n: |S| = 1 … 8 each fail and pull, n/2 = 8
        // single pulls. At |S| = 9, 2·9 = 18 > 16 escalates: one batch
        // pulls the other 16 − 9 = 7, and the last of their replies
        // completes a full sync that installs at all 16 nodes.
        let n = 16;
        let (mut coord, mut nodes) = setup(n, MonitorConfig::builder(0.1).build());
        init(&mut coord, &mut nodes, &vec![vec![0.0, 0.0]; n]);
        let violation = nodes[0].update_data(vec![100.0, 0.0]).expect("violation");
        let mut out = coord.handle(violation);

        let is_pull = |o: &Outbound, cause| {
            matches!(o.msg, CoordinatorMessage::RequestLocalVector { .. }) && o.cause == cause
        };
        let mut single_pulls = 0;
        while out.len() == 1 && is_pull(&out[0], CommCause::LazySync) {
            single_pulls += 1;
            let o = out.pop().unwrap();
            let reply = nodes[o.to].handle(o.msg).expect("pulled node replies");
            out = coord.handle(reply);
        }
        assert_eq!(single_pulls, n / 2);

        let batch = out;
        assert_eq!(batch.len(), n - (n / 2 + 1));
        assert!(batch.iter().all(|o| is_pull(o, CommCause::FullSync)));
        let mut installs = Vec::new();
        for (k, o) in batch.into_iter().enumerate() {
            let reply = nodes[o.to].handle(o.msg).expect("pulled node replies");
            let replies = coord.handle(reply);
            if k + 1 < n - (n / 2 + 1) {
                assert!(replies.is_empty(), "the full sync waits for every vector");
            } else {
                installs = replies;
            }
        }
        assert_eq!(installs.len(), n);
        let recipients: BTreeSet<NodeId> = installs.iter().map(|o| o.to).collect();
        assert_eq!(recipients.len(), n);
        let is_install = |o: &Outbound| {
            o.cause == CommCause::FullSync
                && matches!(
                    o.msg,
                    CoordinatorMessage::NewConstraints { .. }
                        | CoordinatorMessage::NewConstraintsCached { .. }
                )
        };
        assert!(installs.iter().all(is_install));
        assert_eq!(coord.stats().lazy_syncs, 0);
        assert_eq!(coord.stats().full_syncs, 2);
    }

    #[test]
    fn epoch_bumps_on_full_sync_only() {
        let (mut coord, mut nodes) = setup(2, MonitorConfig::builder(0.4).build());
        assert_eq!(coord.epoch(), 0);
        init(&mut coord, &mut nodes, &[vec![0.0, 0.0], vec![0.0, 0.0]]);
        assert_eq!(coord.epoch(), 1);
        assert_eq!(nodes[0].epoch(), 1);

        // Opposite drifts resolve lazily: epoch must not move.
        let m0 = nodes[0].update_data(vec![1.0, 0.0]).expect("violation");
        let m1 = nodes[1].update_data(vec![-1.0, 0.0]).expect("violation");
        let mut inbox = std::collections::VecDeque::from([m0, m1]);
        while let Some(m) = inbox.pop_front() {
            for out in coord.handle(m) {
                if let Some(reply) = nodes[out.to].handle(out.msg) {
                    inbox.push_back(reply);
                }
            }
        }
        assert_eq!(coord.stats().lazy_syncs, 1);
        assert_eq!(coord.epoch(), 1);

        // A one-sided drift forces a full sync: epoch advances.
        let m = nodes[0].update_data(vec![9.0, 0.0]).expect("violation");
        route(&mut coord, &mut nodes, m);
        assert_eq!(coord.stats().full_syncs, 2);
        assert_eq!(coord.epoch(), 2);
        assert_eq!(nodes[1].epoch(), 2);
    }

    #[test]
    fn stale_frame_discarded_and_resynced() {
        let (mut coord, mut nodes) = setup(2, MonitorConfig::builder(0.4).build());
        init(&mut coord, &mut nodes, &[vec![0.0, 0.0], vec![0.0, 0.0]]);
        assert_eq!(coord.epoch(), 1);

        // A frame from a superseded epoch must not enter the sync logic.
        let stale = NodeMessage::Violation {
            node: 1,
            kind: ViolationKind::SafeZone,
            local_vector: vec![50.0, 0.0],
            epoch: 0,
        };
        let out = coord.handle(stale);
        assert_eq!(coord.stats().stale_discards, 1);
        assert_eq!(coord.stats().resyncs, 1);
        // The reply re-installs the constraints in force.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, 1);
        assert!(matches!(
            out[0].msg,
            CoordinatorMessage::NewConstraints { epoch: 1, .. }
        ));
        // The bogus vector was not absorbed.
        assert_eq!(coord.current_value(), Some(0.0));
        assert_eq!(coord.stats().full_syncs, 1);
    }

    #[test]
    fn eviction_redistributes_over_survivors() {
        let (mut coord, mut nodes) = setup(3, MonitorConfig::builder(0.5).build());
        init(
            &mut coord,
            &mut nodes,
            &[vec![0.0, 0.0], vec![3.0, 0.0], vec![6.0, 0.0]],
        );
        // x0 = mean = [3, 0] → f = 3.
        assert_eq!(coord.current_value(), Some(3.0));
        assert_eq!(coord.alive_count(), 3);

        // Node 2 dies; the survivors re-sync and the reference moves to
        // the mean over {0, 1}.
        let mut inbox: std::collections::VecDeque<NodeMessage> = Default::default();
        for out in coord.evict(2) {
            if let Some(reply) = nodes[out.to].handle(out.msg) {
                inbox.push_back(reply);
            }
        }
        while let Some(m) = inbox.pop_front() {
            for out in coord.handle(m) {
                if let Some(reply) = nodes[out.to].handle(out.msg) {
                    inbox.push_back(reply);
                }
            }
        }
        assert_eq!(coord.alive_count(), 2);
        assert_eq!(coord.stats().evictions, 1);
        assert_eq!(coord.current_value(), Some(1.5));
        // Evicting again is a no-op.
        assert!(coord.evict(2).is_empty());
        assert_eq!(coord.stats().evictions, 1);

        // The dead node speaks again (fresh process: epoch 0,
        // Uninitialized): it rejoins and the reference includes it.
        nodes[2] = Node::new(2, Arc::new(AutoDiffFn::new(Sum2)));
        let m = nodes[2].update_data(vec![6.0, 0.0]).expect("registers");
        route(&mut coord, &mut nodes, m);
        assert_eq!(coord.stats().rejoins, 1);
        assert_eq!(coord.alive_count(), 3);
        assert_eq!(coord.current_value(), Some(3.0));
        assert_eq!(nodes[2].epoch(), coord.epoch());
        // The group keeps monitoring normally afterwards.
        assert!(nodes[2].update_data(vec![6.1, 0.0]).is_none());
    }

    #[test]
    fn evicting_the_last_unregistered_node_completes_initialization() {
        let (mut coord, mut nodes) = setup(3, MonitorConfig::builder(0.5).build());
        for (i, x) in [vec![0.0, 0.0], vec![3.0, 0.0]].into_iter().enumerate() {
            let m = nodes[i].update_data(x).unwrap();
            route(&mut coord, &mut nodes, m);
        }
        assert_eq!(coord.stats().full_syncs, 0);

        // Node 2 never registered; once it is gone the survivors are
        // complete, so the full sync over {0, 1} fires at once.
        let out = coord.evict(2);
        assert_eq!(coord.stats().full_syncs, 1);
        assert_eq!(out.iter().map(|o| o.to).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(coord.current_value(), Some(1.5));
        assert_eq!(coord.alive_count(), 2);
        assert!(!coord.is_resolving());
    }

    #[test]
    fn evicting_a_registered_node_waits_for_the_last_registration() {
        let (mut coord, mut nodes) = setup(3, MonitorConfig::builder(0.5).build());
        for (i, x) in [vec![0.0, 0.0], vec![3.0, 0.0]].into_iter().enumerate() {
            let m = nodes[i].update_data(x).unwrap();
            route(&mut coord, &mut nodes, m);
        }
        // Node 1 had registered; node 2 still has not, so nothing fires.
        assert!(coord.evict(1).is_empty());
        assert_eq!(coord.stats().full_syncs, 0);
        assert_eq!(coord.current_value(), None);

        // The last registration completes the survivors {0, 2}.
        let m = nodes[2].update_data(vec![6.0, 0.0]).unwrap();
        route(&mut coord, &mut nodes, m);
        assert_eq!(coord.stats().full_syncs, 1);
        assert_eq!(coord.current_value(), Some(3.0));
        assert!(!coord.is_alive(1));
        assert_eq!(coord.alive_count(), 2);
    }

    #[test]
    fn restarted_node_receives_full_constraints() {
        // A node process that restarts without being evicted keeps its
        // `alive` flag, but its new incarnation has no curvature cache:
        // the resync must carry full constraints, or the node would
        // re-register forever.
        let (mut coord, mut nodes) = setup(2, MonitorConfig::builder(0.4).build());
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Sum2));
        init(&mut coord, &mut nodes, &[vec![0.5, 0.0], vec![0.0, 0.5]]);
        assert_eq!(coord.stats().full_syncs, 1);

        // Node 1 comes back empty and re-registers from its data stream.
        nodes[1] = Node::new(1, f);
        let m = nodes[1].update_data(vec![0.0, 0.5]).expect("re-register");
        assert!(matches!(
            m,
            NodeMessage::Violation {
                kind: ViolationKind::Uninitialized,
                ..
            }
        ));
        route(&mut coord, &mut nodes, m);

        // The resync completed: node 1 monitors again under the new
        // epoch, with a zone installed (i.e. it got the full payload).
        assert_eq!(coord.stats().resyncs, 1);
        assert_eq!(coord.stats().full_syncs, 2);
        assert!(nodes[1].zone().is_some(), "constraints never landed");
        assert!(!nodes[1].is_pending(), "node stuck re-registering");
        assert_eq!(nodes[1].epoch(), coord.epoch());
    }

    #[test]
    fn outstanding_requests_reissue_pending_pulls() {
        let cfg = MonitorConfig::builder(0.4).without_lazy_sync().build();
        let (mut coord, mut nodes) = setup(3, cfg);
        init(
            &mut coord,
            &mut nodes,
            &[vec![0.0, 0.0], vec![0.0, 0.0], vec![0.0, 0.0]],
        );
        assert!(!coord.is_resolving());
        assert!(coord.outstanding_requests().is_empty());

        // A violation starts a full sync: two pulls go out and stay
        // outstanding until answered.
        let m = nodes[0].update_data(vec![5.0, 0.0]).expect("violation");
        let out = coord.handle(m);
        assert_eq!(out.len(), 2);
        assert!(coord.is_resolving());
        let again = coord.outstanding_requests();
        assert_eq!(again.len(), 2);
        // The re-issued pulls are byte-identical to the originals.
        assert_eq!(out, again);
    }
}
