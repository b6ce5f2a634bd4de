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

use std::sync::Arc;

use automon_chaos::{
    ChaosFabric, Direction, Executor, FaultEvent, FaultPlan, RecoveryConfig, TimedFault,
};
use automon_core::tuning::{tune_neighborhood_size, ReplayCounts, TuningResult};
use automon_core::{CommCause, Coordinator, MonitorConfig, MonitoredFunction, Node, NodeMessage};
use automon_linalg::vector;
use automon_net::{CoordinatorTransport, CountingFabric};
use automon_obs::{SpanId, Telemetry};
use automon_store::{DiskManager, DynDisk, MemDisk, SharedStore, StoreOptions};

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
    /// The stage at which a socket transport broke (a refused connect, a
    /// dead connection, a frame that missed its deadline). The run ended
    /// there: `stats` cover what was delivered before it.
    pub transport_failure: Option<String>,
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
            (None, None) => &ChaosFabric::EXECUTOR,
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
    /// in [`RunReport::transport_failure`].
    pub fn over_sockets<T: CoordinatorTransport + 'static>(mut self) -> Self {
        self.sockets = Some(|fabric, n| Box::new(SocketLink::<T>::open(fabric, n)));
        self
    }

    /// Persist the coordinator through `make_disk`'s backend (WAL +
    /// snapshots, DESIGN.md §3.13), checkpointing every `snapshot_interval`
    /// rounds. A plan with `coordinator_crashes` but no store gets a
    /// deterministic in-memory backend automatically.
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
            (None, Some(plan)) => {
                let mut chaos = ChaosFabric::new(fabric, plan.clone(), n);
                chaos.set_telemetry(self.telemetry.clone());
                Box::new(chaos)
            }
            (None, None) => Box::new(fabric),
        }
    }

    /// The `with_store` backend, or an in-memory one when the plan
    /// schedules a coordinator crash without it.
    fn open_store(&self, crashes: &[usize]) -> Option<SharedStore> {
        let mut disk: DynDisk = match &self.durability {
            Some((make_disk, _)) => make_disk(),
            None if crashes.is_empty() => return None,
            None => Box::new(MemDisk::new()),
        };
        // A reused directory must not leak a previous run's state.
        for file in disk.list().expect("store: list backend") {
            disk.remove(&file).expect("store: clear backend");
        }
        let (shared, _) =
            SharedStore::open(disk, StoreOptions::default()).expect("store: open failed");
        Some(shared)
    }

    /// Rebuild a crashed coordinator: everything unsynced is lost; recovery
    /// folds the valid WAL prefix onto the newest decodable checkpoint.
    fn recover_coordinator(&self, store: &SharedStore) -> Coordinator {
        let recovered = {
            let mut s = store.lock();
            s.crash();
            s.recover().expect("store: recovery scan failed")
        };
        let snap = recovered
            .snapshot
            .expect("baseline checkpoint always exists");
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
        coord
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

        // The baseline checkpoint gives recovery a base to fold the WAL into.
        let snapshot_interval = self
            .durability
            .as_ref()
            .map_or(DEFAULT_SNAPSHOT_INTERVAL, |d| d.1);
        let store = self.open_store(&plan.coordinator_crashes);
        let checkpoint = |snap| {
            let store = store
                .as_ref()
                .expect("snapshots come from a journaled coordinator");
            store
                .lock()
                .write_snapshot(&snap)
                .expect("store: checkpoint");
        };
        if let Some(store) = &store {
            w.peers.coord.set_journal(store.journal());
            checkpoint(
                w.peers
                    .coord
                    .request_snapshot()
                    .expect("fresh coordinator is quiescent"),
            );
        }
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
            if w.link.failure().is_some() {
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
                let store = store.as_ref().expect("coordinator crash requires a store");
                w.peers.coord = self.recover_coordinator(store);
                coordinator_recoveries += 1;
                // Re-checkpoint at once: the next crash must not depend on
                // pre-crash segments beyond what retention keeps.
                if let Some(snap) = w.peers.coord.request_snapshot() {
                    checkpoint(snap);
                }
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
                    if let Some(m) = w.peers.nodes[*node].update_data(x.clone()) {
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

            // 6. Checkpoint; a request that lands mid-sync is deferred and
            //    retried here at the next quiescent round.
            if store.is_some() {
                let snap = if (t + 1).is_multiple_of(snapshot_interval) {
                    w.peers.coord.request_snapshot()
                } else {
                    w.peers.coord.take_deferred_snapshot()
                };
                if let Some(snap) = snap {
                    checkpoint(snap);
                }
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
        let transport_failure = w.link.failure().map(str::to_string);
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
            transport_failure,
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
