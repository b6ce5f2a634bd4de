//! One pass of a flat (single-coordinator) workload: fresh coordinator and
//! nodes, round 0 as set-up, then the timed window.
//!
//! The loop is a closed lockstep. A node ingests one update; if the check
//! reports a violation the driver carries the report to the coordinator,
//! carries every reply to its node, carries every node answer back, one
//! frame at a time and first-in first-out, until the coordinator is no
//! longer resolving. Only then does the next update happen. The same
//! function drives the timed passes, the traced passes (tracer on), the
//! verification pass (ε check, byte accounting, echo check) and the
//! comparison passes (other backend, telemetry attached).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use automon_core::{
    Coordinator, CoordinatorMessage, Journal, MonitorConfig, MonitoredFunction, NeighborhoodBox,
    Node, NodeMessage, Transition,
};
use automon_net::wire;
use automon_obs::Telemetry;

use crate::host::{Pace, Probe, Spent};
use crate::inputs::Inputs;
use crate::link::{Backend, Fail, InProcess, Link, Wire, RESOLVE_DEADLINE};
use crate::trace::{Stage, Tracer};

/// Resolution samples kept per pass; a pass that outgrows this (a
/// time-boxed pass after the poll path got fast) keeps the first ones.
const MAX_SAMPLES: usize = 1 << 20;
/// Messages, sync points and transitions kept for the standalone replays.
const MAX_RECORDED: usize = 512;
const MAX_TRANSITIONS: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    InProcess,
    Wire(Backend),
}

/// How the rounds of the input block are walked.
#[derive(Clone, Copy, Debug)]
pub enum Walk {
    /// Rounds `1..rounds`, once.
    Once,
    /// The block is a ring: whole laps of rounds `1..rounds` until the
    /// time box is used up.
    LapsFor(Duration),
    /// Exactly this many laps (verification and smoke runs).
    Laps(usize),
}

/// Everything that defines a flat deployment and its stream.
pub struct Flat {
    pub f: Arc<dyn MonitoredFunction>,
    pub cfg: MonitorConfig,
    pub inputs: Inputs,
    pub transport: Transport,
    /// Follow the documented node loop: `try_recv` until `None` before
    /// every `update_data`.
    pub idle_poll: bool,
    pub walk: Walk,
}

/// The reference point of one full sync, as broadcast to the nodes: what
/// `decompose` was called with.
#[derive(Clone)]
pub struct SyncPoint {
    pub x0: Vec<f64>,
    pub neighborhood: Option<NeighborhoodBox>,
}

/// What a traced pass keeps for the standalone layer replays.
#[derive(Default)]
pub struct Recording {
    pub sync_points: Vec<SyncPoint>,
    pub up: Vec<NodeMessage>,
    pub down: Vec<CoordinatorMessage>,
    /// Update vectors, one per recorded message, for the AD replays.
    pub points: Vec<Vec<f64>>,
    pub journal: Arc<Mutex<JournalLog>>,
}

/// Transitions captured through the benchmark's own [`Journal`].
#[derive(Default)]
pub struct JournalLog {
    pub kept: Vec<Transition>,
    pub total: u64,
}

struct Capture(Arc<Mutex<JournalLog>>);

impl Journal for Capture {
    fn record(&mut self, transition: Transition) {
        let mut log = self.0.lock().expect("journal log poisoned");
        log.total += 1;
        if log.kept.len() < MAX_TRANSITIONS {
            log.kept.push(transition);
        }
    }
}

/// Per-pass switches on top of the workload definition.
#[derive(Default)]
pub struct PassOpts<'a> {
    /// Check the ε contract at every quiescent round, compute framed
    /// bytes with the codec, and check every frame arrives as sent.
    pub verify: bool,
    pub record: Option<&'a mut Recording>,
    pub telemetry: Option<Telemetry>,
    /// Run over this transport instead of the workload's own.
    pub transport: Option<Transport>,
    pub walk: Option<Walk>,
    /// Restate set-up, window and resolutions by this probe (host.rs).
    pub probe: Option<&'a mut Probe>,
}

#[derive(Clone, Debug, Default)]
pub struct PassOutcome {
    /// Wall and CPU seconds of the timed window, as measured.
    pub window: Spent,
    /// Set-up and the timed window restated at reference speed (host.rs);
    /// as measured when the pass had no probe. `resolve_us` and
    /// `fullsync_us` are restated likewise.
    pub setup_ref_s: f64,
    pub window_ref_s: f64,
    pub updates: u64,
    pub violations: u64,
    pub fullsync_resolutions: u64,
    /// Protocol frames in both directions inside the timed window.
    pub frames: u64,
    /// Framed bytes of those frames (verification pass only).
    pub bytes: u64,
    pub up_frames: u64,
    pub up_bytes: u64,
    /// Frames and bytes of set-up: round 0 and, on the wire, the hellos.
    pub setup_frames: u64,
    pub setup_bytes: u64,
    pub setup_up_frames: u64,
    pub resolve_us: Vec<f64>,
    pub fullsync_us: Vec<f64>,
    /// Growth of the coordinator's `stats()` over the timed window.
    pub full_syncs: u64,
    pub lazy_syncs: u64,
    /// Updates that hit a transport error or the deadline (the pass stops
    /// at the first one), plus quiescent rounds that broke the ε contract.
    pub failed: u64,
    pub failure: Option<String>,
    pub rounds_checked: u64,
    pub max_err_over_eps: f64,
    pub sum_err_over_eps: f64,
    /// Reactor-side counters over the whole pass, set-up included.
    pub wire_frames: u64,
    pub wire_bytes: u64,
    pub wire_syscalls: u64,
    pub wire_reads: u64,
}

impl PassOutcome {
    /// The counts every pass of a fixed-count workload must reproduce.
    pub fn identity(&self) -> [u64; 6] {
        [
            self.updates,
            self.violations,
            self.fullsync_resolutions,
            self.frames,
            self.full_syncs,
            self.lazy_syncs,
        ]
    }
}

pub fn run(w: &Flat, mut opts: PassOpts<'_>, tr: &mut Tracer) -> PassOutcome {
    let started = Pace::start(opts.probe.take());
    let tel = opts.telemetry.clone().unwrap_or_else(Telemetry::disabled);
    match opts.transport.unwrap_or(w.transport) {
        Transport::InProcess => drive(w, opts, tr, InProcess, started, |_, _| Default::default()),
        Transport::Wire(backend) => match Wire::connect(backend, w.inputs.n, &tel) {
            Ok(link) => drive(w, opts, tr, link, started, settle_totals),
            Err(e) => PassOutcome {
                failed: 1,
                failure: Some(format!("connect: {e}")),
                ..Default::default()
            },
        },
    }
}

/// Read the reactor's counters once they cover `frames` frames. The event
/// loop publishes them when it goes idle, which can be a poll timeout
/// (100 ms) after the last frame; past half a second whatever is there is
/// returned and the caller's cross-check reports the gap.
fn settle_totals(link: &Wire, frames: u64) -> crate::link::WireTotals {
    let deadline = Instant::now() + Duration::from_millis(500);
    loop {
        let now = link.totals();
        if now.frames >= frames || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

struct Deployment<'a, L: Link> {
    coord: Coordinator,
    nodes: Vec<Node>,
    link: L,
    f: &'a dyn MonitoredFunction,
    /// `f(x0)` of the constraints last installed: the estimate.
    estimate: f64,
    last_epoch: u64,
    verify: bool,
    out: PassOutcome,
    queue: VecDeque<NodeMessage>,
}

impl<L: Link> Deployment<'_, L> {
    /// Carry every queued node frame to the coordinator and every
    /// consequence to its destination until the coordinator is quiescent.
    fn resolve(&mut self, tr: &mut Tracer, mut rec: Option<&mut Recording>) -> Result<(), Fail> {
        while let Some(msg) = self.queue.pop_front() {
            if let Some(rec) = rec.as_deref_mut() {
                if rec.up.len() < MAX_RECORDED {
                    rec.up.push(msg.clone());
                }
            }
            self.out.frames += 1;
            self.out.up_frames += 1;
            let sent = self.verify.then(|| msg.clone());
            let got = self.link.up(msg, tr)?;
            if let Some(sent) = sent {
                let len = wire::encode_node_message(&sent).len() as u64 + 4;
                self.out.bytes += len;
                self.out.up_bytes += len;
                if sent != got {
                    return Err(Fail::Transport("node frame altered in transit".into()));
                }
            }
            let syncs = self.coord.stats().full_syncs;
            let t0 = tr.now();
            let outs = self.coord.handle(got);
            let stage = if self.coord.stats().full_syncs > syncs {
                Stage::HandleFull
            } else {
                Stage::HandleLazy
            };
            tr.span(stage, t0, tr.now());
            for out in outs {
                let to = out.to;
                self.out.frames += 1;
                let sent = self.verify.then(|| out.msg.clone());
                let got = self.link.down(out, tr)?;
                if let Some(sent) = sent {
                    self.out.bytes += wire::encode_coordinator_message(&sent).len() as u64 + 4;
                    if sent != got {
                        return Err(Fail::Transport(
                            "coordinator frame altered in transit".into(),
                        ));
                    }
                }
                self.note_install(&got, rec.as_deref_mut());
                let t0 = tr.now();
                let reply = self.nodes[to].handle(got);
                tr.span(Stage::NodeInstall, t0, tr.now());
                self.queue.extend(reply);
            }
        }
        if self.coord.is_resolving() {
            return Err(Fail::Transport(
                "coordinator still resolving with nothing in flight".into(),
            ));
        }
        Ok(())
    }

    /// Track the estimate `f(x0)` from the constraint installs going by,
    /// and record each new epoch's reference point once.
    fn note_install(&mut self, msg: &CoordinatorMessage, rec: Option<&mut Recording>) {
        let (f0, x0, neighborhood, epoch) = match msg {
            CoordinatorMessage::NewConstraints { zone, epoch, .. } => {
                (zone.f0, &zone.x0, &zone.neighborhood, *epoch)
            }
            CoordinatorMessage::NewConstraintsCached { update, epoch, .. } => {
                (update.f0, &update.x0, &update.neighborhood, *epoch)
            }
            _ => {
                if let Some(rec) = rec {
                    if rec.down.len() < MAX_RECORDED {
                        rec.down.push(msg.clone());
                    }
                }
                return;
            }
        };
        self.estimate = f0;
        if epoch > self.last_epoch {
            self.last_epoch = epoch;
            if let Some(rec) = rec {
                if rec.sync_points.len() < MAX_RECORDED {
                    rec.sync_points.push(SyncPoint {
                        x0: x0.clone(),
                        neighborhood: neighborhood.clone(),
                    });
                }
                if rec.down.len() < MAX_RECORDED {
                    rec.down.push(msg.clone());
                }
            }
        }
    }
}

impl PassOutcome {
    /// Check `|f(x̄) − estimate| ≤ ε` at quiescent round `t`, `x̄` being the
    /// mean of every stream's vector in that round.
    pub fn check_epsilon(
        &mut self,
        f: &dyn MonitoredFunction,
        inputs: &Inputs,
        t: usize,
        estimate: f64,
        epsilon: f64,
    ) {
        let mut mean = vec![0.0; inputs.d];
        for i in 0..inputs.n {
            for (m, x) in mean.iter_mut().zip(inputs.x(t, i)) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= inputs.n as f64;
        }
        let err = (f.eval(&mean) - estimate).abs() / epsilon;
        self.rounds_checked += 1;
        self.sum_err_over_eps += err;
        self.max_err_over_eps = self.max_err_over_eps.max(err);
        // Additive thresholds are closed; leave room for the rounding of
        // the mean, which the coordinator sums in a different order. A NaN
        // (no estimate) is a breach.
        if err.is_nan() || err > 1.0 + 1e-9 {
            self.failed += 1;
        }
    }
}

fn drive<L: Link>(
    w: &Flat,
    mut opts: PassOpts<'_>,
    tr: &mut Tracer,
    link: L,
    started: Pace<'_>,
    totals: impl Fn(&L, u64) -> crate::link::WireTotals,
) -> PassOutcome {
    let wired = opts.transport.unwrap_or(w.transport) != Transport::InProcess;
    let inputs = &w.inputs;
    let n = inputs.n;
    let mut coord = Coordinator::new(w.f.clone(), n, w.cfg.clone());
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, w.f.clone())).collect();
    if let Some(tel) = &opts.telemetry {
        coord.set_telemetry(tel.clone());
        for node in &mut nodes {
            node.set_telemetry(tel);
        }
    }
    if let Some(rec) = opts.record.as_deref_mut() {
        coord.set_journal(Box::new(Capture(rec.journal.clone())));
    }
    let mut dep = Deployment {
        coord,
        nodes,
        link,
        f: w.f.as_ref(),
        estimate: f64::NAN,
        last_epoch: 0,
        verify: opts.verify,
        out: PassOutcome::default(),
        queue: VecDeque::new(),
    };

    let mut base_syncs = (0u64, 0u64);
    let result = (|| -> Result<(), Fail> {
        // Round 0: registration and the first full sync — set-up. Not
        // traced, not counted.
        let mut quiet = Tracer::off();
        dep.link.arm(Instant::now() + RESOLVE_DEADLINE);
        for i in 0..n {
            let report = dep.nodes[i].update_data(inputs.x(0, i).to_vec());
            dep.queue.extend(report);
            dep.resolve(&mut quiet, None)?;
        }
        if dep.estimate.is_nan() {
            return Err(Fail::Transport(
                "no constraints installed after round 0".into(),
            ));
        }
        // Each node's connection opened with one hello frame: an empty
        // `LocalVector` carrying its id.
        let hellos = if wired { n as u64 } else { 0 };
        let hello_bytes = wire::encode_node_message(&NodeMessage::LocalVector {
            node: 0,
            vector: Vec::new(),
            epoch: 0,
        })
        .len() as u64
            + 4;
        let (_, setup_ref_s, probe) = started.finish(&mut [], &mut []);
        dep.out = PassOutcome {
            setup_ref_s,
            setup_frames: dep.out.frames + hellos,
            setup_bytes: dep.out.bytes + hellos * hello_bytes,
            setup_up_frames: dep.out.up_frames + hellos,
            ..Default::default()
        };

        let at_setup = dep.coord.stats();
        base_syncs = (at_setup.full_syncs as u64, at_setup.lazy_syncs as u64);
        let mut pace = Pace::start(probe);
        let window_start = Instant::now();
        let pass_start = tr.now();
        let walk = opts.walk.unwrap_or(w.walk);
        let mut laps = 0usize;
        loop {
            for t in 1..inputs.rounds {
                for i in 0..n {
                    if w.idle_poll {
                        // Lockstep leaves nothing in flight, so this is
                        // the idle path: one poll that finds nothing.
                        while let Some(msg) = dep.link.poll(i, tr)? {
                            let reply = dep.nodes[i].handle(msg);
                            dep.queue.extend(reply);
                        }
                        if !dep.queue.is_empty() {
                            dep.resolve(tr, None)?;
                        }
                    }
                    let x = inputs.x(t, i).to_vec();
                    if let Some(rec) = opts.record.as_deref_mut() {
                        if rec.points.len() < MAX_RECORDED {
                            rec.points.push(x.clone());
                        }
                    }
                    let t0 = tr.now();
                    let report = dep.nodes[i].update_data(x);
                    tr.span(Stage::NodeCheck, t0, tr.now());
                    dep.out.updates += 1;
                    let Some(report) = report else { continue };

                    dep.out.violations += 1;
                    tr.vid = dep.out.violations as u32;
                    let begun = Instant::now();
                    let r0 = tr.now();
                    let syncs = dep.coord.stats().full_syncs;
                    dep.link.arm(begun + RESOLVE_DEADLINE);
                    dep.queue.push_back(report);
                    let resolved = dep.resolve(tr, opts.record.as_deref_mut());
                    let us = begun.elapsed().as_secs_f64() * 1e6;
                    tr.span(Stage::Resolve, r0, tr.now());
                    tr.vid = 0;
                    if let Err(e) = resolved {
                        dep.out.failed += 1;
                        return Err(e);
                    }
                    let full = dep.coord.stats().full_syncs > syncs;
                    if dep.out.resolve_us.len() < MAX_SAMPLES {
                        dep.out.resolve_us.push(us);
                        if full {
                            dep.out.fullsync_us.push(us);
                        }
                    }
                    dep.out.fullsync_resolutions += u64::from(full);
                }
                if opts.verify {
                    dep.out
                        .check_epsilon(dep.f, inputs, t, dep.estimate, w.cfg.epsilon);
                }
                pace.tick(&mut dep.out.resolve_us, &mut dep.out.fullsync_us);
            }
            laps += 1;
            let done = match walk {
                Walk::Once => true,
                Walk::Laps(k) => laps >= k,
                Walk::LapsFor(time_box) => window_start.elapsed() >= time_box,
            };
            if done {
                break;
            }
        }
        (dep.out.window, dep.out.window_ref_s, _) =
            pace.finish(&mut dep.out.resolve_us, &mut dep.out.fullsync_us);
        tr.span(Stage::Pass, pass_start, tr.now());
        Ok(())
    })();

    if let Err(e) = result {
        dep.out.failed = dep.out.failed.max(1);
        dep.out.failure = Some(e.to_string());
    }
    let stats = dep.coord.stats();
    dep.out.full_syncs = stats.full_syncs as u64 - base_syncs.0;
    dep.out.lazy_syncs = stats.lazy_syncs as u64 - base_syncs.1;
    // Only the passes that read the reactor's counters wait for them.
    let t = if opts.verify || tr.is_on() {
        totals(&dep.link, dep.out.frames + dep.out.setup_frames)
    } else {
        Default::default()
    };
    dep.out.wire_frames = t.frames;
    dep.out.wire_bytes = t.bytes;
    dep.out.wire_syscalls = t.syscalls;
    dep.out.wire_reads = t.reads;
    dep.out
}
