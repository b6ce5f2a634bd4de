//! One pass of the two-tier workload, driven through `Fleet::update`.
//!
//! The fleet resolves violations inside `update`, so the driver cannot
//! see a report come back. It learns which updates are violations from
//! the fabric's counters in the verification pass — the passes are
//! deterministic replays of each other — and the timed passes read the
//! clock only around those.

use std::sync::Arc;
use std::time::Instant;

use automon_core::{CommCause, MonitorConfig, MonitoredFunction};
use automon_fleet::{Fleet, FleetConfig};
use automon_obs::Telemetry;

use crate::host::{Pace, Probe};
use crate::inputs::Inputs;
use crate::pass::PassOutcome;
use crate::trace::{Stage, Tracer};

pub struct Tiered {
    pub f: Arc<dyn MonitoredFunction>,
    pub cfg: MonitorConfig,
    pub inputs: Inputs,
    pub shards: usize,
}

/// What an update turned out to be, per update index of the timed window.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Quiet,
    /// Exchanged frames, resolved without re-syncing a whole shard.
    Violation,
    /// Re-synced at least one whole shard.
    FullSync,
}

/// Fleet-tier counters of one pass, for the `fleet.*` layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierCounts {
    pub root_msgs: u64,
    pub leaf_msgs: u64,
    pub leaf_reports: u64,
}

/// Run one pass. `classes` is `None` in the verification pass, which
/// returns the classification it observed; timed and traced passes are
/// given it.
pub fn run(
    w: &Tiered,
    classes: Option<&[Class]>,
    telemetry: Option<Telemetry>,
    probe: Option<&mut Probe>,
    tr: &mut Tracer,
) -> (PassOutcome, Vec<Class>, TierCounts) {
    let started = Pace::start(probe);
    let inputs = &w.inputs;
    let streams = inputs.n;
    let mut fleet = Fleet::new(
        w.f.clone(),
        streams,
        w.cfg.clone(),
        FleetConfig::new(w.shards),
    );
    if let Some(tel) = telemetry {
        fleet = fleet.with_telemetry(tel);
    }
    for g in 0..streams {
        fleet.update(g, inputs.x(0, g).to_vec());
    }
    let (_, setup_ref_s, probe) = started.finish(&mut [], &mut []);
    let mut out = PassOutcome {
        setup_ref_s,
        ..Default::default()
    };
    if fleet.estimate().is_none() {
        out.failed = 1;
        out.failure = Some("fleet has no estimate after round 0".into());
        return (out, Vec::new(), TierCounts::default());
    }

    // A full sync of a shard of k members sends k − 1 pulls and k
    // installs; a lazy sync that stays lazy balances at most k/2 + 1
    // members (paper §3.5), so at most k + 1 coordinator→node frames.
    // With shards of k or k + 1 members and k ≥ 4 the two cannot be
    // confused: "≥ 2k − 1 frames down" is exactly "a shard re-synced".
    let full_sync_floor = 2 * (streams / w.shards) - 1;
    let before = fleet.fabric().total_stats();
    let root_before = fleet.fabric().root_ref().stats().total_msgs();
    let verify = classes.is_none();
    let mut observed = Vec::new();
    let mut pace = Pace::start(probe);
    let pass_start = tr.now();
    let mut at = 0usize;
    for t in 1..inputs.rounds {
        for g in 0..streams {
            let x = inputs.x(t, g).to_vec();
            out.updates += 1;
            match classes {
                None => {
                    let s0 = fleet.fabric().total_stats();
                    fleet.update(g, x);
                    let s1 = fleet.fabric().total_stats();
                    let class = if s1.total_msgs() == s0.total_msgs() {
                        Class::Quiet
                    } else if s1.coord_to_node_msgs - s0.coord_to_node_msgs >= full_sync_floor {
                        Class::FullSync
                    } else {
                        Class::Violation
                    };
                    observed.push(class);
                    out.violations += u64::from(class != Class::Quiet);
                    out.fullsync_resolutions += u64::from(class == Class::FullSync);
                }
                Some(classes) if classes[at] == Class::Quiet => {
                    let t0 = tr.now();
                    fleet.update(g, x);
                    tr.span(Stage::FleetUpdate, t0, tr.now());
                }
                Some(classes) => {
                    out.violations += 1;
                    tr.vid = out.violations as u32;
                    let t0 = tr.now();
                    let begun = Instant::now();
                    fleet.update(g, x);
                    let us = begun.elapsed().as_secs_f64() * 1e6;
                    tr.span(Stage::FleetUpdate, t0, tr.now());
                    tr.vid = 0;
                    out.resolve_us.push(us);
                    if classes[at] == Class::FullSync {
                        out.fullsync_resolutions += 1;
                        out.fullsync_us.push(us);
                    }
                }
            }
            at += 1;
        }
        if verify {
            let estimate = fleet.estimate().unwrap_or(f64::NAN);
            out.check_epsilon(w.f.as_ref(), inputs, t, estimate, w.cfg.epsilon);
        }
        pace.tick(&mut out.resolve_us, &mut out.fullsync_us);
    }
    (out.window, out.window_ref_s, _) = pace.finish(&mut out.resolve_us, &mut out.fullsync_us);
    tr.span(Stage::Pass, pass_start, tr.now());

    let after = fleet.fabric().total_stats();
    out.frames = (after.total_msgs() - before.total_msgs()) as u64;
    out.bytes = (after.total_payload() - before.total_payload()) as u64;
    out.up_frames = (after.node_to_coord_msgs - before.node_to_coord_msgs) as u64;
    out.up_bytes = (after.node_to_coord_payload - before.node_to_coord_payload) as u64;
    let root = fleet.fabric().root_ref();
    let root_msgs = (root.stats().total_msgs() - root_before) as u64;
    let tiers = TierCounts {
        root_msgs,
        leaf_msgs: out.frames - root_msgs,
        leaf_reports: root
            .ledger()
            .by_cause()
            .get(&CommCause::LeafReport)
            .map_or(0, |c| c.up_msgs),
    };
    if verify {
        if let Some(broken) = fleet.fabric().check_conservation() {
            out.failed += 1;
            out.failure = Some(format!("ledger conservation: {broken}"));
        }
    }
    (out, observed, tiers)
}
