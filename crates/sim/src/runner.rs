//! The AutoMon round driver: one Algorithm-1 loop for every transport.
//!
//! [`Simulation`] applies a workload round by round and routes every
//! resulting frame through a [`Link`]. Each round runs the same phases, every
//! one a no-op when nothing is pending: timed faults (crashes, coordinator
//! recovery, restarts, matured delayed frames) → workload updates →
//! retransmission with exponential backoff in both directions → strike-based
//! eviction → measurement of `|f(x0) − f(x̄)|` → checkpoint. After the
//! workload the driver keeps stepping (the *recovery drain*) until the
//! protocol quiesces — no outstanding report, no unresolved sync, no frame in
//! flight — or the round cap trips, which the tests treat as a deadlock.
//!
//! The driver alone decides when the coordinator's state is persisted: a
//! checkpoint falls due at each snapshot interval and after a coordinator
//! recovery, and lands at the first round the coordinator can give one. A
//! store error (opening, a journal append, a checkpoint, a recovery scan)
//! ends the run the way a broken socket does, named in
//! [`RunReport::failure`].

use std::sync::Arc;

use automon_chaos::{Direction, Executor, FaultEvent, FaultPlan, TimedFault};
use automon_core::tuning::{tune_neighborhood_size, ReplayCounts, TuningResult};
use automon_core::{CommCause, Coordinator, MonitorConfig, MonitoredFunction, Node, NodeMessage};
use automon_linalg::vector;
use automon_net::{CoordinatorTransport, CountingFabric};
use automon_obs::{Counter, SpanId, Telemetry};
use automon_store::{DiskManager, DynDisk, MemDisk, SharedStore, StoreOptions};
use serde::{Deserialize, Serialize};

use crate::fabric::ChaosLink;
use crate::hybrid::HybridPolicy;
use crate::link::{Link, NetOptions, Peers, ReactorLink, SocketLink, TransportReport, SOCKETS};
use crate::stats::{RunStats, TracePoint};
use crate::workload::Workload;

/// Absolute-error histogram buckets (decades around typical ε values).
pub(crate) const ERROR_BOUNDS: &[f64] = &[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Longest a retransmit backoff interval is allowed to grow, in rounds.
const MAX_BACKOFF: usize = 64;

/// Post-workload drain cap, in rounds: a run still busy after it ends
/// with [`RunReport::quiesced`] `false`.
const MAX_RECOVERY_ROUNDS: usize = 256;

/// Checkpoint cadence of the auto-provisioned store.
const DEFAULT_SNAPSHOT_INTERVAL: usize = 16;

/// Reactor-transport defaults: seed 0, 97-byte reads, 16 KiB client buffer.
const NET_DEFAULTS: NetOptions = (0, 97, 1 << 14);

/// Default retransmit base interval over the reactor transport.
const REACTOR_RETRANSMIT_AFTER: usize = 2;

/// Everything one run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Aggregated run statistics.
    pub stats: RunStats,
    /// Every fault the fabric injected, in injection order; the same plan
    /// replays it exactly. (The reactor transport only tallies its faults,
    /// in [`TransportReport::faults`].)
    pub fault_trace: Vec<FaultEvent>,
    /// `false` when the protocol failed to quiesce within the drain cap.
    pub quiesced: bool,
    /// Syscall, frame and fault counts of the reactor or socket transport.
    pub transport: Option<TransportReport>,
    /// The stage at which the run broke: a socket transport's (a refused
    /// connect, a dead connection, a frame that missed its deadline) or
    /// the coordinator store's (`store open`, `store journal append`,
    /// `store checkpoint`, `store recovery scan`). The run ended there:
    /// `stats` cover what was delivered before it.
    pub failure: Option<String>,
}

/// A configured AutoMon simulation (paper §4.1's harness).
///
/// The transport follows from what is supplied: nothing — the in-process
/// fabric; [`Simulation::with_plan`] — the same fabric under seeded fault
/// injection; [`Simulation::with_net_seed`] or [`Simulation::with_limits`] —
/// the reactor transport, gated by the plan's per-frame ladder;
/// [`Simulation::over_sockets`] — real loopback sockets. The loop is
/// sequential and everything is seeded: same workload, config, plan and
/// seeds ⇒ identical [`RunReport`] and byte-identical telemetry trace.
pub struct Simulation {
    f: Arc<dyn MonitoredFunction>,
    cfg: MonitorConfig,
    trace_stride: Option<usize>,
    telemetry: Telemetry,
    plan: Option<FaultPlan>,
    net: Option<NetOptions>,
    sockets: Option<OpenSockets>,
    recovery: Option<RecoveryConfig>,
    /// Disk factory and checkpoint cadence. `run` may be called more than
    /// once, so each run opens (and clears) a fresh disk.
    durability: Option<(Box<dyn Fn() -> DynDisk>, usize)>,
}

/// Opens the socket link over `n` nodes for the coordinator transport
/// [`Simulation::over_sockets`] was given; the fabric does its accounting.
type OpenSockets = fn(CountingFabric, usize) -> Box<dyn Link>;

/// The driver's recovery policy: how patiently the endpoints wait before
/// retransmitting, and how many dead-connection failures the coordinator
/// tolerates before evicting a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Rounds a report/pull stays unanswered before the first
    /// retransmission; subsequent waits double (exponential backoff).
    pub retransmit_after: usize,
    /// Consecutive dead-connection failures before the coordinator
    /// declares the node dead and redistributes its slack.
    pub evict_after: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            retransmit_after: 4,
            evict_after: 8,
        }
    }
}

/// Exponential retransmit backoff for one endpoint, in rounds: wait `base`,
/// then 2×, 4×, … that, up to [`MAX_BACKOFF`].
struct Backoff {
    base: usize,
    interval: usize,
    retry_at: usize,
}

impl Backoff {
    fn new(base: usize) -> Self {
        Self {
            base,
            interval: base,
            retry_at: base,
        }
    }

    /// Nothing outstanding at round `t`: start over from the base.
    fn reset(&mut self, t: usize) {
        *self = Self {
            retry_at: t + self.base,
            ..Self::new(self.base)
        };
    }

    /// `true` when a retransmission is due at round `t`; the next wait doubles.
    fn due(&mut self, t: usize) -> bool {
        if t < self.retry_at {
            return false;
        }
        self.interval = (self.interval * 2).min(MAX_BACKOFF);
        self.retry_at = t + self.interval;
        true
    }

    /// A send failed synchronously (connection refused, not silence): retry
    /// at the base cadence instead of backing off. Without this, eviction of
    /// a dead node takes Σ 2ᵏ·base rounds and outlasts any drain cap.
    fn fast_retry(&mut self, t: usize) {
        self.interval = self.base;
        self.retry_at = self.retry_at.min(t + 1 + self.base);
    }
}

/// The run's coordinator store and its checkpoint schedule.
struct Durability {
    store: SharedStore,
    /// Rounds between due checkpoints.
    interval: usize,
    /// A checkpoint fell due and has not landed: the coordinator was
    /// resolving a violation each time it was offered.
    due: bool,
    taken: Counter,
    deferred: Counter,
}

impl Durability {
    /// Checkpoint when one is due and the coordinator can give a snapshot;
    /// `request` makes one due. A request that must wait is counted as
    /// deferred; requests that wait together land as one checkpoint.
    fn checkpoint(&mut self, coord: &Coordinator, request: bool) -> Result<(), String> {
        self.due |= request;
        if !self.due {
            return Ok(());
        }
        let Some(snap) = coord.snapshot() else {
            if request {
                self.deferred.inc();
            }
            return Ok(());
        };
        let written = self
            .store
            .lock()
            .write_snapshot(&snap)
            .map_err(|e| format!("store checkpoint: {e}"))?;
        if written.is_some() {
            self.taken.inc();
        }
        self.due = false;
        Ok(())
    }

    /// The journal append that failed, if one did: the coordinator's
    /// journal cannot fail mid-handle, so the store keeps the error.
    fn journal_failure(&self) -> Option<String> {
        let error = self.store.lock().take_io_error()?;
        Some(format!("store journal append: {error}"))
    }
}

/// One run's wiring: the link, its endpoints, and the telemetry handle.
struct Wiring<'a> {
    tel: &'a Telemetry,
    link: Box<dyn Link>,
    peers: Peers,
}

impl Wiring<'_> {
    /// Send one node report inside a root `violation` span; the
    /// coordinator's handler span parents under it via the wire header.
    fn report(&mut self, m: NodeMessage, cause: CommCause) {
        let fields = [("node", m.sender().into()), ("cause", cause.name().into())];
        let span = self.tel.span_begin("violation", SpanId::NONE, &fields);
        self.link.report(&mut self.peers, m, cause, span);
        let messages = self.link.stats().total_msgs();
        self.tel.span_end(span, &[("messages", messages.into())]);
    }

    /// Replay `x` into node `i` (a restarted process, a resync); a resulting
    /// report is charged to `cause`, or to its intrinsic cause when `None`.
    fn feed(&mut self, i: usize, x: Vec<f64>, cause: Option<CommCause>) {
        if let Some(m) = self.peers.nodes[i].update_data(x) {
            let cause = cause.unwrap_or_else(|| CommCause::of_node_message(&m));
            self.report(m, cause);
        }
    }
}

impl Simulation {
    /// A simulation of `f` under `cfg` over the fault-free in-process fabric.
    pub fn new(f: Arc<dyn MonitoredFunction>, cfg: MonitorConfig) -> Self {
        Self {
            f,
            cfg,
            trace_stride: None,
            telemetry: Telemetry::disabled(),
            plan: None,
            net: None,
            sockets: None,
            recovery: None,
            durability: None,
        }
    }

    /// Record a per-round [`TracePoint`] every `stride` rounds.
    pub fn with_trace(mut self, stride: usize) -> Self {
        self.trace_stride = Some(stride.max(1));
        self
    }

    /// Instrument the coordinator, every node (restarted incarnations
    /// included), the link, and the round loop.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.telemetry = tel;
        self
    }

    /// Inject `plan`. Each transport runs only some parts of a plan (the
    /// reactor transport the per-frame ladder and coordinator crashes, real
    /// sockets nothing); a run panics on a plan
    /// [`Simulation::check_plan`] refuses rather than execute a weaker one.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// `Err` with the refusal when the plan uses a part the selected
    /// transport does not run, or is invalid for `nodes` nodes.
    pub fn check_plan(&self, nodes: usize) -> Result<(), String> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        let executor: &Executor = match (self.sockets, self.net) {
            (Some(_), _) => &SOCKETS,
            (None, Some(_)) => &ReactorLink::EXECUTOR,
            (None, None) => &ChaosLink::EXECUTOR,
        };
        executor.admit(plan, nodes, 0)
    }

    /// Run over the reactor transport, seeding its read-chunk/short-write
    /// schedule (independent of the plan's fault seed).
    pub fn with_net_seed(mut self, seed: u64) -> Self {
        self.net.get_or_insert(NET_DEFAULTS).0 = seed;
        self
    }

    /// Run over the reactor transport, bounding its read chunks and client
    /// buffer (smaller values force more frame splits and partial writes).
    pub fn with_limits(mut self, max_read_chunk: usize, client_buf_cap: usize) -> Self {
        let seed = self.net.map_or(NET_DEFAULTS.0, |net| net.0);
        self.net = Some((seed, max_read_chunk, client_buf_cap));
        self
    }

    /// Run over real loopback sockets: `T` on the coordinator end, one
    /// `TcpNodeTransport` per node, one frame in flight. Sockets have no
    /// simulated network: a run panics on reactor-transport options rather
    /// than ignore them. A transport failure ends the run and is reported
    /// in [`RunReport::failure`].
    pub fn over_sockets<T: CoordinatorTransport + 'static>(mut self) -> Self {
        self.sockets = Some(|fabric, n| Box::new(SocketLink::<T>::open(fabric, n)));
        self
    }

    /// Persist the coordinator through `make_disk`'s backend (WAL +
    /// snapshots, DESIGN.md §3.13), checkpointing every `snapshot_interval`
    /// rounds, or at the first quiescent round after that when a sync is
    /// in flight. A plan with `coordinator_crashes` but no store gets a
    /// deterministic in-memory backend automatically. A store error ends
    /// the run, named in [`RunReport::failure`].
    pub fn with_store<F>(mut self, make_disk: F, snapshot_interval: usize) -> Self
    where
        F: Fn() -> DynDisk + 'static,
    {
        self.durability = Some((Box::new(make_disk), snapshot_interval.max(1)));
        self
    }

    /// Override the retransmit/eviction policy.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Tune the neighborhood size on a workload prefix (paper Algorithm 2).
    ///
    /// Each candidate `r` is scored by a fresh fault-free, uninstrumented
    /// simulation of the same function under this configuration with only
    /// the radius swapped ([`MonitorConfig::with_r`]: mode kept) run over
    /// the prefix as it stands, round structure included — so what is
    /// scored is what [`Simulation::run`] executes once the configuration
    /// carries `r̂`. This simulation's telemetry, plan and store play no
    /// part: a tuned run's trace does not depend on tuning having happened.
    pub fn tune_r(&self, tuning_prefix: &Workload) -> TuningResult {
        tune_neighborhood_size(|r| {
            let run = Simulation::new(self.f.clone(), self.cfg.clone().with_r(r))
                .run(tuning_prefix);
            ReplayCounts {
                neighborhood: run.neighborhood_violations,
                safezone: run.safezone_violations,
                faulty: run.faulty_reports,
                full_syncs: run.full_syncs,
                lazy_syncs: run.lazy_syncs,
                messages: run.messages,
            }
        })
    }

    /// Run the workload to completion and return its statistics.
    pub fn run(&self, workload: &Workload) -> RunStats {
        self.drive(workload, None).stats
    }

    /// Run the workload, then drain to quiescence; the full report.
    pub fn run_report(&self, workload: &Workload) -> RunReport {
        self.drive(workload, None)
    }

    fn new_node(&self, id: usize) -> Node {
        let mut node = Node::new(id, self.f.clone());
        node.set_telemetry(&self.telemetry);
        node
    }

    /// The transport the supplied options select (see the type docs).
    fn open_link(&self, n: usize) -> Box<dyn Link> {
        self.check_plan(n)
            .unwrap_or_else(|refusal| panic!("{refusal}"));
        let fabric = CountingFabric::new().with_telemetry(self.telemetry.clone());
        if let Some(open) = self.sockets {
            assert!(
                self.net.is_none(),
                "real sockets have no simulated network to seed or bound"
            );
            return open(fabric, n);
        }
        match (self.net, &self.plan) {
            (Some(net), plan) => {
                let plan = plan.clone().unwrap_or_else(FaultPlan::none);
                Box::new(ReactorLink::new(fabric, &plan, net, n))
            }
            (None, Some(plan)) => Box::new(ChaosLink::new(
                fabric,
                plan.clone(),
                n,
                self.telemetry.clone(),
            )),
            (None, None) => Box::new(fabric),
        }
    }

    /// The `with_store` backend, or an in-memory one when the plan
    /// schedules a coordinator crash without it, journaling `coord` and
    /// holding its baseline checkpoint, which gives recovery a base to fold
    /// the WAL into; `Err` names the failed stage.
    fn open_store(
        &self,
        crashes: &[usize],
        coord: &mut Coordinator,
    ) -> Result<Option<Durability>, String> {
        let (mut disk, interval): (DynDisk, usize) = match &self.durability {
            Some((make_disk, interval)) => (make_disk(), *interval),
            None if crashes.is_empty() => return Ok(None),
            None => (Box::new(MemDisk::new()), DEFAULT_SNAPSHOT_INTERVAL),
        };
        let failed = |e| format!("store open: {e}");
        // A reused directory must not leak a previous run's state.
        for file in disk.list().map_err(failed)? {
            disk.remove(&file).map_err(failed)?;
        }
        let (store, _) = SharedStore::open(disk, StoreOptions::default()).map_err(failed)?;
        coord.set_journal(store.journal());
        let tel = &self.telemetry;
        let mut durable = Durability {
            store,
            interval,
            due: false,
            taken: tel.counter(
                "automon_coord_snapshot_taken_total",
                "Durable checkpoints written (including retried deferrals)",
            ),
            deferred: tel.counter(
                "automon_coord_snapshot_deferred_total",
                "Snapshot requests deferred because a sync was in flight",
            ),
        };
        durable.checkpoint(coord, true)?;
        Ok(Some(durable))
    }

    /// Rebuild a crashed coordinator: everything unsynced is lost; recovery
    /// folds the valid WAL prefix onto the newest decodable checkpoint.
    /// The rebuilt coordinator is checkpointed at once: the next crash
    /// must not depend on pre-crash segments beyond what retention keeps.
    fn recover_coordinator(&self, durable: &mut Durability) -> Result<Coordinator, String> {
        let store = &durable.store;
        let recovered = {
            let mut s = store.lock();
            s.crash();
            s.recover().map_err(|e| format!("store recovery scan: {e}"))?
        };
        let snap = recovered
            .snapshot
            .ok_or("store recovery scan: no decodable checkpoint")?;
        let mut coord = Coordinator::restore(self.f.clone(), self.cfg.clone(), snap);
        coord.set_telemetry(self.telemetry.clone());
        coord.set_journal(store.journal());
        self.telemetry.event(
            "coordinator_recovered",
            &[
                ("epoch", coord.epoch().into()),
                ("replayed", recovered.report.records_replayed.into()),
            ],
        );
        durable.checkpoint(&coord, true)?;
        Ok(coord)
    }

    /// The round loop. `policy` is the hybrid hook: it may silence the nodes
    /// for a round, substitute the estimate in force, and ask for a resync.
    pub(crate) fn drive(
        &self,
        workload: &Workload,
        mut policy: Option<&mut HybridPolicy>,
    ) -> RunReport {
        let n = workload.nodes();
        let tel = &self.telemetry;
        let mut coord = Coordinator::new(self.f.clone(), n, self.cfg.clone());
        coord.set_telemetry(tel.clone());
        let link = self.open_link(n);
        let nodes = (0..n).map(|i| self.new_node(i)).collect();
        let mut w = Wiring {
            tel,
            link,
            peers: Peers { coord, nodes },
        };
        let no_plan = FaultPlan::none();
        let plan = self.plan.as_ref().unwrap_or(&no_plan);
        let mut recovery = self.recovery.unwrap_or_default();
        if self.recovery.is_none() && self.net.is_some() {
            recovery.retransmit_after = REACTOR_RETRANSMIT_AFTER;
        }

        let (mut durable, mut failure) =
            match self.open_store(&plan.coordinator_crashes, &mut w.peers.coord) {
                Ok(durable) => (durable, None),
                Err(stage) => (None, Some(stage)),
            };
        let mut coordinator_recoveries = 0usize;

        let g_round = tel.gauge("automon_sim_round", "Current workload round");
        let g_estimate = tel.gauge("automon_sim_estimate", "Coordinator-side f(x0) this round");
        let g_truth = tel.gauge(
            "automon_sim_truth",
            "True f(mean of local vectors) this round",
        );
        let g_messages = tel.gauge(
            "automon_sim_cumulative_messages",
            "Protocol messages routed so far",
        );
        let h_error = tel.histogram(
            "automon_sim_abs_error",
            "Per-round |estimate - truth|",
            ERROR_BOUNDS,
        );

        let mut current: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut errors = Vec::with_capacity(workload.rounds());
        let mut trace = Vec::new();
        let mut max_degraded = 0.0f64;
        let (mut missed, mut retransmits, mut updates) = (0usize, 0usize, 0usize);
        // Report-retransmit backoff per node, pull re-issue backoff for the
        // coordinator, consecutive dead-connection strikes per node.
        let mut node_retry: Vec<Backoff> = (0..n)
            .map(|_| Backoff::new(recovery.retransmit_after))
            .collect();
        let mut coord_retry = Backoff::new(recovery.retransmit_after);
        let mut strikes = vec![0usize; n];

        let total = workload.rounds();
        let mut recovery_rounds = 0usize;
        let mut t = 0usize;
        let quiesced = loop {
            if failure.is_some() || w.link.failure().is_some() {
                break false;
            }
            if t >= total {
                let quiet = !w.peers.coord.is_resolving()
                    && w.link.frames_in_flight() == 0
                    && (0..n).all(|i| w.link.node_down(i) || !w.peers.nodes[i].is_pending());
                if quiet || recovery_rounds >= MAX_RECOVERY_ROUNDS {
                    break quiet;
                }
                recovery_rounds += 1;
            }
            // The logical clock only advances for rounds that run.
            tel.set_round(t as u64);
            g_round.set(t as f64);

            // 1. Timed faults. Restarted nodes come back as fresh processes
            //    and re-register from their data stream; a crashed
            //    coordinator recovers first, so they hit the rebuilt one.
            let restarted = w.link.begin_round(t);
            // The coordinator's crash comes first in `timed_at`'s order.
            if plan.timed_at(t).next() == Some(TimedFault::CoordinatorCrash) {
                let d = durable.as_mut().expect("coordinator crash requires a store");
                match self.recover_coordinator(d) {
                    Ok(coord) => w.peers.coord = coord,
                    Err(stage) => {
                        failure = Some(stage);
                        continue;
                    }
                }
                coordinator_recoveries += 1;
                // Resync the fleet; pulls and their replies are charged to
                // `recovery`, the closing installs keep their own cause.
                let outs = w.peers.coord.begin_recovery_sync();
                w.link.push(&mut w.peers, outs, CommCause::Recovery);
                coord_retry.reset(t);
            }
            for id in restarted {
                w.peers.nodes[id] = self.new_node(id);
                node_retry[id].reset(t);
                if let Some(x) = current[id].clone() {
                    w.feed(id, x, Some(CommCause::Rejoin));
                }
            }
            w.link.release_matured(&mut w.peers);

            // 2. Workload updates, each report resolved before the next.
            //    The data stream advances even for a downed node.
            if t < total {
                let silent = policy.as_deref_mut().is_some_and(|p| p.begin_round(t));
                for (node, x) in workload.updates(t) {
                    current[*node] = Some(x.clone());
                    updates += 1;
                    if silent || w.link.node_down(*node) {
                        continue;
                    }
                    if let Some(m) = w.peers.nodes[*node].update_data(x) {
                        if let Some(p) = &mut policy {
                            p.observe(&m);
                        }
                        let cause = CommCause::of_node_message(&m);
                        w.report(m, cause);
                    }
                }
                let f = self.f.as_ref();
                if policy
                    .as_deref_mut()
                    .is_some_and(|p| p.end_updates(t, f, &current))
                {
                    // Fallback over: resync by replaying the current state.
                    for (i, x) in current.iter().enumerate() {
                        if let Some(x) = x.clone() {
                            w.feed(i, x, None);
                        }
                    }
                }
            }

            // 3. Retransmission, both directions (byte-identical frames, so
            //    duplicates are harmless under the epoch protocol).
            for (i, retry) in node_retry.iter_mut().enumerate() {
                if w.link.node_down(i) {
                    continue;
                }
                if !w.peers.nodes[i].is_pending() {
                    retry.reset(t);
                } else if retry.due(t) {
                    if let Some(m) = w.peers.nodes[i].retransmit_report() {
                        retransmits += 1;
                        w.report(m, CommCause::Retransmit);
                    }
                }
            }
            if !w.peers.coord.is_resolving() {
                coord_retry.reset(t);
            } else if coord_retry.due(t) {
                let outs = w.peers.coord.outstanding_requests();
                retransmits += outs.len();
                w.link.push(&mut w.peers, outs, CommCause::Retransmit);
            }

            // 4. Eviction on observed send failures, as a deployment would;
            //    ground truth only *resets* strikes once a process is back.
            let failures = w.link.take_delivery_failures();
            if failures
                .iter()
                .any(|f| matches!(f.dir, Direction::CoordToNode))
            {
                coord_retry.fast_retry(t);
            }
            for failure in failures {
                strikes[failure.node] += 1;
            }
            for (i, strike) in strikes.iter_mut().enumerate() {
                if !w.link.node_down(i) {
                    *strike = 0;
                } else if *strike >= recovery.evict_after && w.peers.coord.is_alive(i) {
                    let outs = w.peers.coord.evict(i);
                    w.link.push(&mut w.peers, outs, CommCause::Eviction);
                }
            }

            // 5. Measure against the aggregate over the coordinator's
            //    members. A round is *degraded* — outside the ε-guarantee —
            //    while a partition is active, an un-evicted node is down, or
            //    an exchange is unresolved.
            let Peers { coord, nodes } = &w.peers;
            let members: Vec<Vec<f64>> = (0..n)
                .filter(|&i| coord.is_alive(i))
                .filter_map(|i| current[i].clone())
                .collect();
            let fallback = policy.as_deref().and_then(HybridPolicy::fallback_estimate);
            let estimate = fallback.unwrap_or_else(|| coord.current_value());
            if let (Some(zone), Some(est), false) = (coord.zone(), estimate, members.is_empty()) {
                let truth = self.f.eval(&vector::mean(&members).expect("non-empty"));
                let err = (est - truth).abs();
                let degraded = plan.partition_active(t)
                    || (0..n).any(|i| w.link.node_down(i) && coord.is_alive(i))
                    || coord.is_resolving()
                    || (0..n).any(|i| !w.link.node_down(i) && nodes[i].is_pending());
                let messages = w.link.stats().total_msgs();
                g_estimate.set(est);
                g_truth.set(truth);
                g_messages.set(messages as f64);
                h_error.observe(err);
                tel.event(
                    "round",
                    &[
                        ("truth", truth.into()),
                        ("estimate", est.into()),
                        ("lower", zone.l.into()),
                        ("upper", zone.u.into()),
                        ("degraded", degraded.into()),
                        ("messages", messages.into()),
                    ],
                );
                if self
                    .trace_stride
                    .is_some_and(|stride| t.is_multiple_of(stride))
                {
                    trace.push(TracePoint {
                        round: t,
                        truth,
                        estimate: est,
                        lower: zone.l,
                        upper: zone.u,
                        cumulative_messages: messages,
                    });
                }
                if degraded {
                    max_degraded = max_degraded.max(err);
                } else {
                    // A non-finite error is counted by `set_errors`.
                    if fallback.is_none() && err.is_finite() && !zone.admissible(truth) {
                        missed += 1;
                    }
                    errors.push(err);
                }
            }

            // 6. A failed journal append ends the run; otherwise checkpoint
            //    when one is due, deferred while a sync is in flight.
            if let Some(d) = &mut durable {
                let tick = (t + 1).is_multiple_of(d.interval);
                failure = d
                    .journal_failure()
                    .or_else(|| d.checkpoint(&w.peers.coord, tick).err());
            }
            t += 1;
        };

        // `trace summarize`'s bytes-per-update denominators.
        tel.event(
            "run_info",
            &[
                ("nodes", n.into()),
                ("rounds", total.into()),
                ("updates", updates.into()),
            ],
        );

        let st = w.peers.coord.stats();
        let traffic = w.link.stats();
        debug_assert_eq!(
            w.link
                .ledger()
                .check_conservation(traffic.total_msgs() as u64, traffic.total_payload() as u64),
            None,
            "ledger must conserve traffic totals"
        );
        let transport = w.link.transport();
        let failure = failure.or_else(|| w.link.failure().map(str::to_string));
        let fault_trace = w.link.fault_trace().to_vec();
        let mut stats = RunStats {
            messages: traffic.total_msgs(),
            payload_bytes: traffic.total_payload(),
            missed_violation_rounds: missed,
            neighborhood_violations: st.neighborhood_violations,
            safezone_violations: st.safezone_violations,
            faulty_reports: st.faulty_reports,
            full_syncs: st.full_syncs,
            lazy_syncs: st.lazy_syncs,
            retransmits,
            injected_faults: transport.map_or(fault_trace.len(), |t| t.faults.injected() as usize),
            recovery_rounds,
            max_error_during_partition: max_degraded,
            evictions: st.evictions,
            rejoins: st.rejoins,
            coordinator_recoveries,
            trace: self.trace_stride.map(|_| trace),
            ledger: Some(w.link.ledger().entries()),
            ..RunStats::default()
        };
        stats.set_errors(errors);
        RunReport {
            stats,
            fault_trace,
            quiesced,
            transport,
            failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
    use automon_functions::InnerProduct;

    struct Mean1;
    impl ScalarFn for Mean1 {
        fn dim(&self) -> usize {
            1
        }
        fn call<S: Scalar>(&self, x: &[S]) -> S {
            x[0]
        }
    }

    #[test]
    fn error_stays_within_epsilon_for_linear_function() {
        // Linear f: ADCD-E with exact decomposition — the §3.7 guarantee
        // applies, so the measured error must stay ≤ ε.
        let eps = 0.3;
        let series: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|i| {
                (0..200)
                    .map(|t| vec![(t as f64 * 0.01) + i as f64 * 0.05])
                    .collect()
            })
            .collect();
        let w = Workload::from_dense(&series);
        let sim = Simulation::new(
            Arc::new(AutoDiffFn::new(Mean1)),
            MonitorConfig::builder(eps).build(),
        );
        let stats = sim.run(&w);
        assert!(stats.max_error <= eps + 1e-9, "{stats:?}");
        assert_eq!(stats.missed_violation_rounds, 0);
        assert!(stats.messages > 0);
        assert!(stats.full_syncs >= 1);
    }

    #[test]
    fn quiet_data_costs_only_initialization() {
        let series: Vec<Vec<Vec<f64>>> = (0..4)
            .map(|_| vec![vec![1.0, 2.0, 3.0, 4.0]; 100])
            .collect();
        let w = Workload::from_dense(&series);
        let sim = Simulation::new(
            Arc::new(AutoDiffFn::new(InnerProduct::new(4))),
            MonitorConfig::builder(0.1).build(),
        );
        let stats = sim.run(&w);
        // 4 registrations + 4 NewConstraints, nothing else.
        assert_eq!(stats.messages, 8, "{stats:?}");
        assert_eq!(stats.full_syncs, 1);
        assert_eq!(stats.max_error, 0.0);
    }

    #[test]
    fn trace_is_recorded_with_stride() {
        let series: Vec<Vec<Vec<f64>>> = (0..2).map(|_| vec![vec![0.5]; 50]).collect();
        let w = Workload::from_dense(&series);
        let sim = Simulation::new(
            Arc::new(AutoDiffFn::new(Mean1)),
            MonitorConfig::builder(0.1).build(),
        )
        .with_trace(10);
        let stats = sim.run(&w);
        let trace = stats.trace.expect("trace enabled");
        assert_eq!(trace.len(), 5);
        assert_eq!(trace[0].round, 0);
        assert_eq!(trace[1].round, 10);
        assert!(trace.iter().all(|p| (p.truth - 0.5).abs() < 1e-12));
    }

    #[test]
    fn trace_bounds_bracket_the_estimate() {
        let eps = 0.25;
        let series: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|i| {
                (0..80)
                    .map(|t| vec![t as f64 * 0.02 + i as f64 * 0.01])
                    .collect()
            })
            .collect();
        let w = Workload::from_dense(&series);
        let sim = Simulation::new(
            Arc::new(AutoDiffFn::new(Mean1)),
            MonitorConfig::builder(eps).build(),
        )
        .with_trace(1);
        let stats = sim.run(&w);
        for p in stats.trace.as_deref().unwrap() {
            assert!(p.lower <= p.estimate && p.estimate <= p.upper, "{p:?}");
            assert!((p.upper - p.lower - 2.0 * eps).abs() < 1e-12);
        }
        // Cumulative message counts are non-decreasing.
        let msgs: Vec<usize> = stats
            .trace
            .as_deref()
            .unwrap()
            .iter()
            .map(|p| p.cumulative_messages)
            .collect();
        assert!(msgs.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A plan the reactor link cannot honour is refused in every build
    /// profile, not only where `debug_assert!` is compiled in.
    #[test]
    #[should_panic(expected = "the sim-reactor link does not run node crashes")]
    fn reactor_transport_refuses_timed_node_faults() {
        let series: Vec<Vec<Vec<f64>>> = (0..2).map(|_| vec![vec![0.5]; 5]).collect();
        let w = Workload::from_dense(&series);
        Simulation::new(
            Arc::new(AutoDiffFn::new(Mean1)),
            MonitorConfig::builder(0.1).build(),
        )
        .with_plan(FaultPlan::seeded(1).with_crash(0, 2, None))
        .with_net_seed(1)
        .run(&w);
    }
}
