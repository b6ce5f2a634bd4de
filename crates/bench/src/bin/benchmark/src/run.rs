//! One run of one workload: generate, verify, measure, check.
//!
//! An untraced run produces the end-to-end metrics from as many identical
//! passes as fit in the time budget. A traced run produces the per-layer
//! metrics from two span-recording passes, a few untraced reference
//! passes, the comparison passes and the standalone replays.

use std::path::PathBuf;
use std::time::Instant;

use automon_obs::Telemetry;

use crate::fleet::{self, Class, TierCounts, Tiered};
use crate::host::{self, Pin};
use crate::layers;
use crate::link::{Backend, Link, Wire};
use crate::metrics::Values;
use crate::pass::{self, Flat, PassOpts, PassOutcome, Recording, Transport, Walk};
use crate::stats::{guarded_percentile, median, median_or_zero, rel_spread};
use crate::trace::{resolve_self_time_ns, Stage, Tracer};
use crate::workload::{self, Scale, Shape, Workload};

pub struct Settings {
    pub seed: u64,
    /// Time budget of the measured passes.
    pub seconds: f64,
    pub scale: Scale,
    /// A directory inside the checkout for the WAL replay.
    pub scratch: PathBuf,
    pub trace_out: Option<PathBuf>,
}

pub struct Report {
    pub workload: &'static str,
    pub values: Values,
    /// Updates ingested over every pass of the run.
    pub attempted: u64,
    /// Updates that hit a transport error or the deadline, plus verified
    /// rounds that broke the ε contract.
    pub failed: u64,
    /// Everything else that makes the run's output incorrect.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub passes: usize,
    /// Updates per second of each timed pass, in run order.
    pub pass_rates: Vec<f64>,
    /// Median over passes of the timed window as measured over the
    /// window restated at reference speed (host.rs); 0 in traced runs,
    /// which restate nothing.
    pub slowdown: f64,
    pub input_fnv64: u64,
    pub input_bytes: usize,
    /// Seconds the input generation took, as measured.
    pub generation_s: f64,
    pub violation_ratio: f64,
    pub fullsync_ratio: f64,
    pub violation_range: (f64, f64),
    pub fullsync_range: (f64, f64),
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The line the driver reads.
    pub fn contract_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.values.to_json()
        )
    }

    /// Identity and guards, for the run header.
    pub fn guard_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"input_fnv64\": \"{:016x}\", \"input_bytes\": {}, \"input_generation_s\": {:.4}, \"passes\": {}, \"pass_updates_per_s_as_measured\": {:.0?}, \"host_slowdown_vs_reference\": {:.4}, \
             \"driver.violation_ratio\": {}, \"asserted_violation_ratio\": [{}, {}], \
             \"driver.fullsync_ratio\": {}, \"asserted_fullsync_ratio\": [{}, {}]}}",
            self.workload,
            self.input_fnv64,
            self.input_bytes,
            self.generation_s,
            self.passes,
            self.pass_rates,
            self.slowdown,
            self.violation_ratio,
            self.violation_range.0,
            self.violation_range.1,
            self.fullsync_ratio,
            self.fullsync_range.0,
            self.fullsync_range.1,
        )
    }
}

/// A generated workload plus what its verification pass established.
struct Prepared {
    w: Workload,
    verify: PassOutcome,
    classes: Vec<Class>,
}

impl Prepared {
    fn pass(&self, opts: PassOpts<'_>, tr: &mut Tracer) -> (PassOutcome, TierCounts) {
        match &self.w.shape {
            Shape::Flat(w) => (pass::run(w, opts, tr), TierCounts::default()),
            Shape::Tiered(w) => {
                let (out, _, tiers) =
                    fleet::run(w, Some(&self.classes), opts.telemetry, opts.probe, tr);
                (out, tiers)
            }
        }
    }
}

const MAX_INPUT_BYTES: usize = 128 << 20;

fn prepare(name: &str, s: &Settings, report: &mut Report) -> Option<Prepared> {
    // Inputs are the benchmark's own product, generated once before any
    // timed window; the time is printed, not published as a metric.
    let started = Instant::now();
    let w = workload::build(name, s.seed, s.scale);
    report.generation_s = started.elapsed().as_secs_f64();
    let w = w?;
    report.workload = w.name;
    report.input_fnv64 = w.inputs().fnv64();
    report.input_bytes = w.inputs().bytes();
    report.violation_range = w.violation_ratio;
    report.fullsync_range = w.fullsync_ratio;
    if report.input_bytes > MAX_INPUT_BYTES {
        report.problems.push(format!(
            "inputs are {} bytes, over the 128 MiB cap",
            report.input_bytes
        ));
    }

    // The verification pass: ε at every quiescent round, framed bytes,
    // every frame echoed intact, and for the fleet the classification of
    // every update.
    let mut off = Tracer::off();
    let (verify, classes) = match &w.shape {
        Shape::Flat(f) => {
            let walk = match f.walk {
                Walk::LapsFor(_) => Some(Walk::Laps(if s.scale == Scale::Full { 3 } else { 1 })),
                _ => None,
            };
            let opts = PassOpts {
                verify: true,
                walk,
                ..Default::default()
            };
            (pass::run(f, opts, &mut off), Vec::new())
        }
        Shape::Tiered(t) => {
            let (out, classes, _) = fleet::run(t, None, None, None, &mut off);
            (out, classes)
        }
    };
    absorb(report, &verify, "verification pass");
    check_wire_bytes(&w, &verify, report);
    report.violation_ratio = ratio(verify.violations, verify.updates);
    report.fullsync_ratio = ratio(verify.fullsync_resolutions, verify.violations);
    for (what, value, (lo, hi)) in [
        (
            "driver.violation_ratio",
            report.violation_ratio,
            w.violation_ratio,
        ),
        (
            "driver.fullsync_ratio",
            report.fullsync_ratio,
            w.fullsync_ratio,
        ),
    ] {
        // The ranges describe the published sizes, not the toy ones.
        if s.scale == Scale::Full && !(lo..=hi).contains(&value) {
            report.problems.push(format!(
                "{what} = {value:.4} left its asserted range [{lo}, {hi}]: the generated stream is no longer this workload"
            ));
        }
    }
    Some(Prepared { w, verify, classes })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Count a pass's updates and failures into the report.
fn absorb(report: &mut Report, out: &PassOutcome, what: &str) {
    report.attempted += out.updates;
    report.failed += out.failed;
    if let Some(why) = &out.failure {
        report.problems.push(format!("{what}: {why}"));
    }
}

/// On the wire the framed bytes the codec predicts must be the bytes the
/// reactor says it moved: hellos, set-up round and timed window together.
fn check_wire_bytes(w: &Workload, verify: &PassOutcome, report: &mut Report) {
    let Shape::Flat(f) = &w.shape else { return };
    if f.transport != Transport::Wire(Backend::Reactor) || verify.failure.is_some() {
        return;
    }
    if verify.wire_frames != verify.frames + verify.setup_frames
        || verify.wire_bytes != verify.bytes + verify.setup_bytes
    {
        report.problems.push(format!(
            "reactor moved {} frames / {} bytes, the codec accounts for {} / {}",
            verify.wire_frames,
            verify.wire_bytes,
            verify.frames + verify.setup_frames,
            verify.bytes + verify.setup_bytes
        ));
    }
}

/// An empty report; `prepare` fills in the workload's name.
fn blank(values: Values) -> Report {
    Report {
        workload: "unknown",
        values,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        notes: Vec::new(),
        passes: 0,
        pass_rates: Vec::new(),
        slowdown: 0.0,
        input_fnv64: 0,
        input_bytes: 0,
        generation_s: 0.0,
        violation_ratio: 0.0,
        fullsync_ratio: 0.0,
        violation_range: (0.0, 1.0),
        fullsync_range: (0.0, 1.0),
    }
}

/// Seconds per update of a pass: comparable between fixed-count and
/// time-boxed passes.
fn per_update_s(out: &PassOutcome) -> f64 {
    out.window.wall_s / out.updates.max(1) as f64
}

/// Fixed-count passes must reproduce the verification pass's counts
/// exactly; time-boxed passes cover whole laps of the same ring, so their
/// counts must be the same multiple of a lap's.
fn check_identity(p: &Prepared, out: &PassOutcome, report: &mut Report) {
    if out.failure.is_some() {
        return;
    }
    let (a, b) = (p.verify.identity(), out.identity());
    let same = if p.w.fixed_count {
        a == b
    } else {
        // a[k] / a[0] == b[k] / b[0] for every count k, without dividing.
        (1..a.len()).all(|k| a[k] as u128 * b[0] as u128 == b[k] as u128 * a[0] as u128)
    };
    if !same {
        report.problems.push(format!(
            "pass counts {b:?} differ from the verification pass's {a:?} \
             (updates, violations, full-sync resolutions, frames, full syncs, lazy syncs)"
        ));
    }
}

/// The end-to-end metrics of one workload, untraced.
pub fn untraced(name: &str, s: &Settings) -> Report {
    let mut report = blank(Values::end_to_end());
    let full = s.scale == Scale::Full;
    let Some(p) = prepare(name, s, &mut report) else {
        report.problems.push(format!("unknown workload `{name}`"));
        return report;
    };

    // Timed passes, restated piece by piece by the speed probe that
    // matches the workload's link (host.rs): CPU seconds are restated at
    // reference speed, blocked seconds are not.
    let mut probe = match host::Probe::for_link(p.w.wired()) {
        Ok(probe) => probe,
        Err(e) => {
            report
                .problems
                .push(format!("starting the hand-off probe: {e}"));
            return report;
        }
    };
    let mut passes: Vec<PassOutcome> = Vec::new();
    let mut off = Tracer::off();
    let started = Instant::now();
    let min_passes = if full { 3 } else { 1 };
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < s.seconds {
        let opts = PassOpts {
            probe: Some(&mut probe),
            ..Default::default()
        };
        let (out, _) = p.pass(opts, &mut off);
        absorb(&mut report, &out, "timed pass");
        check_identity(&p, &out, &mut report);
        let stop = out.failure.is_some();
        passes.push(out);
        if stop || !report.problems.is_empty() {
            break;
        }
    }
    report.passes = passes.len();
    let slowdowns: Vec<f64> = passes
        .iter()
        .map(|o| o.window.wall_s / o.window_ref_s)
        .collect();
    report.slowdown = median_or_zero(&slowdowns);

    let mut rates: Vec<f64> = passes
        .iter()
        .map(|o| o.updates as f64 / o.window_ref_s)
        .collect();
    report.pass_rates = passes.iter().map(|o| 1.0 / per_update_s(o)).collect();
    let mut setups: Vec<f64> = passes.iter().map(|o| o.setup_ref_s).collect();
    let mut resolve: Vec<f64> = passes
        .iter()
        .flat_map(|o| o.resolve_us.iter().copied())
        .collect();
    let mut fullsync: Vec<f64> = passes
        .iter()
        .flat_map(|o| o.fullsync_us.iter().copied())
        .collect();
    let frames: u64 = passes.iter().map(|o| o.frames).sum();
    let updates: u64 = passes.iter().map(|o| o.updates).sum();
    let v = &mut report.values;
    v.set("updates_per_s", median(&mut rates).unwrap_or(f64::NAN));
    v.set("resolve_p50_us", median(&mut resolve).unwrap_or(f64::NAN));
    v.set("fullsync_p50_us", median(&mut fullsync).unwrap_or(f64::NAN));
    v.set("msgs_per_update", ratio(frames, updates));
    v.set("bytes_per_update", ratio(p.verify.bytes, p.verify.updates));
    v.set("setup_s", median(&mut setups).unwrap_or(f64::NAN));
    for name in v.unset() {
        report.problems.push(format!(
            "{name} has no value: the workload produced no sample for it"
        ));
    }
    report
}

/// Passes of a traced run: untraced reference passes, then traced ones.
fn traced_passes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (3, 2),
        Scale::Smoke => (1, 1),
    }
}

/// The per-layer metrics of one workload.
pub fn traced(name: &str, s: &Settings, pin: &Pin) -> Report {
    let mut report = blank(Values::per_layer());
    let Some(p) = prepare(name, s, &mut report) else {
        report.problems.push(format!("unknown workload `{name}`"));
        return report;
    };
    let mut off = Tracer::off();

    // Untraced reference passes: what tracing is compared against.
    let mut reference = Vec::new();
    let (reference_passes, traced_passes) = traced_passes(s.scale);
    for _ in 0..reference_passes {
        let (out, _) = p.pass(PassOpts::default(), &mut off);
        absorb(&mut report, &out, "reference pass");
        check_identity(&p, &out, &mut report);
        reference.push(out);
    }

    // Traced passes; the first also records messages, sync points and
    // journal transitions for the replays.
    let mut rec = Recording::default();
    let mut tracers = Vec::new();
    let mut traced = Vec::new();
    let mut tiers = TierCounts::default();
    let before = (Instant::now(), host::proc_sample());
    for k in 0..traced_passes {
        let mut tr = Tracer::on();
        let opts = PassOpts {
            record: (k == 0).then_some(&mut rec),
            ..Default::default()
        };
        let (out, t) = p.pass(opts, &mut tr);
        absorb(&mut report, &out, "traced pass");
        check_identity(&p, &out, &mut report);
        tiers = t;
        traced.push(out);
        tracers.push(tr);
    }
    let (wall, proc_after) = (before.0.elapsed().as_secs_f64(), host::proc_sample());
    report.passes = reference.len() + traced.len();

    let spans = Spans { tracers: &tracers };
    let window_ns = spans.total(Stage::Pass) as f64;
    let traced_updates: u64 = traced.iter().map(|o| o.updates).sum();
    let reference_times: Vec<f64> = reference.iter().map(per_update_s).collect();
    let ref_per_update = median_or_zero(&reference_times);
    let v = &mut report.values;

    // driver.*: close the books.
    let share = |ns: u64| {
        if window_ns > 0.0 {
            ns as f64 / window_ns
        } else {
            0.0
        }
    };
    v.set("driver.stage_sum_over_total", share(spans.leaf_total()));
    let traced_per_update = median_or_zero(&traced.iter().map(per_update_s).collect::<Vec<_>>());
    v.set(
        "driver.trace_overhead_ratio",
        traced_per_update / ref_per_update,
    );
    let reference_resolve: Vec<f64> = reference
        .iter()
        .flat_map(|o| o.resolve_us.iter().copied())
        .collect();
    // The tail needs every sample it can get; a span costs a resolution
    // two clock reads per layer call, which the tail does not notice.
    let mut resolve: Vec<f64> = traced
        .iter()
        .flat_map(|o| o.resolve_us.iter().copied())
        .chain(reference_resolve.iter().copied())
        .collect();
    resolve.sort_unstable_by(f64::total_cmp);
    if let Some((p99, used)) = guarded_percentile(&mut resolve, 0.99) {
        v.set("driver.resolve_p99_us", p99);
        if used < 0.99 {
            report.notes.push(format!(
                "driver.resolve_p99_us is the p{:.1} of {} samples: a higher rank would have fewer than ten samples beyond it",
                used * 100.0,
                resolve.len()
            ));
        }
    }
    v.set(
        "driver.resolve_max_us",
        resolve.last().copied().unwrap_or(0.0),
    );
    v.set("driver.violation_ratio", report.violation_ratio);
    v.set("driver.fullsync_ratio", report.fullsync_ratio);
    v.set("driver.max_err_over_eps", p.verify.max_err_over_eps);
    v.set(
        "driver.mean_err_over_eps",
        p.verify.sum_err_over_eps / p.verify.rounds_checked.max(1) as f64,
    );
    v.set("driver.pass_spread", rel_spread(&reference_times));
    let unattributed = tracers
        .iter()
        .map(|t| resolve_self_time_ns(&t.spans))
        .sum::<u64>();
    report.notes.push(format!(
        "driver.resolve self time (inside resolutions, in no layer call): {:.4} of the traced window",
        share(unattributed)
    ));

    // Spans of the workload's own passes, or of a probe: the same function
    // and the workload's first streams as a flat four-connection reactor
    // deployment, for the layers the workload itself does not run.
    let own_flat = match &p.w.shape {
        Shape::Flat(w) => Some(w),
        Shape::Tiered(_) => None,
    };
    let own_wire = p.w.wired();
    let probe = (!own_wire).then(|| probe_flat(&p.w));
    let mut probe_tr = Tracer::on();
    let mut probe_rec = Recording::default();
    let mut probe_out = PassOutcome::default();
    if let Some(probe) = &probe {
        let opts = PassOpts {
            record: Some(&mut probe_rec),
            ..Default::default()
        };
        probe_out = pass::run(probe, opts, &mut probe_tr);
        if let Some(why) = &probe_out.failure {
            report.problems.push(format!("wire probe: {why}"));
        }
    }
    let probe_spans = Spans {
        tracers: std::slice::from_ref(&probe_tr),
    };
    // Node and coordinator calls are visible in every flat workload's own
    // passes; the fleet hides them inside `Fleet::update`.
    let (core, core_rec, core_out) = if own_flat.is_some() {
        (&spans, &rec, &traced[0])
    } else {
        (&probe_spans, &probe_rec, &probe_out)
    };
    let (net, net_rec, net_out) = if own_wire {
        (&spans, &rec, &traced[0])
    } else {
        (&probe_spans, &probe_rec, &probe_out)
    };

    // core.node.*
    let check_ns = core.p50(Stage::NodeCheck);
    v.set("core.node.check_ns_p50", check_ns);
    v.set("core.node.install_ns_p50", core.p50(Stage::NodeInstall));
    v.set(
        "core.node.check_share",
        share(spans.total(Stage::NodeCheck)),
    );
    v.set(
        "core.node.install_share",
        share(spans.total(Stage::NodeInstall)),
    );

    // core.coordinator.*
    let handle_full_us = core.p50(Stage::HandleFull) / 1e3;
    v.set("core.coordinator.handle_full_us_p50", handle_full_us);
    v.set(
        "core.coordinator.handle_lazy_us_p50",
        core.p50(Stage::HandleLazy) / 1e3,
    );
    let full_share = share(spans.total(Stage::HandleFull));
    v.set(
        "core.coordinator.handle_share",
        full_share + share(spans.total(Stage::HandleLazy)),
    );
    v.set(
        "core.coordinator.msgs_per_violation",
        ratio(p.verify.frames, p.verify.violations),
    );
    v.set(
        "core.coordinator.lazy_resolved_ratio",
        1.0 - report.fullsync_ratio,
    );

    // Standalone replays.
    let (f, cfg) = (p.w.f().as_ref(), p.w.cfg());
    let budget = layers::Budget::of(s.scale);
    layers::adcd(
        f,
        cfg,
        &core_rec.sync_points,
        handle_full_us,
        pin,
        budget,
        v,
    );
    layers::kernels(f, cfg, &core_rec.points, &core_rec.sync_points, budget, v);
    layers::cache(f, cfg, &core_rec.sync_points, budget, v);
    let eval_ns = v.get("autodiff.eval_ns");
    if eval_ns > 0.0 {
        v.set("core.node.check_over_eval", check_ns / eval_ns);
    }
    let decompose_share = v.get("core.adcd.decompose_share_of_full") * full_share;

    // net.wire.*: the codec on recorded frames; its share of the window
    // only where frames really crossed it.
    let (up_ns, down_ns) = layers::codec(&net_rec.up, &net_rec.down, budget, v);
    if own_wire {
        let (up, down) = traced.iter().fold((0u64, 0u64), |(u, d), o| {
            (u + o.up_frames, d + o.frames - o.up_frames)
        });
        v.set(
            "net.wire.share",
            (up as f64 * up_ns + down as f64 * down_ns) / window_ns,
        );
    }

    // net.tcp.* and net.reactor.*
    v.set("net.tcp.node_send_us_p50", net.p50(Stage::NodeSend) / 1e3);
    v.set(
        "net.tcp.node_recv_wait_us_p50",
        net.p50(Stage::DownTransit) / 1e3,
    );
    v.set(
        "net.reactor.up_transit_us_p50",
        net.p50(Stage::UpTransit) / 1e3,
    );
    v.set(
        "net.reactor.down_transit_us_p50",
        net.p50(Stage::DownTransit) / 1e3,
    );
    v.set("net.reactor.send_us_p50", net.p50(Stage::CoordSend) / 1e3);
    v.set(
        "net.reactor.syscalls_per_frame",
        ratio(net_out.wire_syscalls, net_out.wire_frames),
    );
    v.set(
        "net.reactor.frames_per_read",
        ratio(
            net_out.up_frames + net_out.setup_up_frames,
            net_out.wire_reads,
        ),
    );
    let refused = traced
        .iter()
        .chain(&reference)
        .filter(|o| {
            o.failure
                .as_deref()
                .is_some_and(|w| w.contains("backpressure"))
        })
        .count();
    v.set("net.reactor.backpressured_sends", refused as f64);
    let transit_share = share(spans.total(Stage::UpTransit) + spans.total(Stage::DownTransit));
    v.set("net.reactor.transit_share", transit_share);
    // With both threads on one CPU the scheduler decides whether the
    // reactor's work on a frame lands inside the sender's `send` span (it
    // preempts the sender) or in the transit span after it; only the four
    // spans together are the link.
    let link_share =
        transit_share + share(spans.total(Stage::NodeSend) + spans.total(Stage::CoordSend));
    v.set("net.link_share", link_share);
    let idle = spans.p50(Stage::IdlePoll);
    v.set(
        "net.tcp.try_recv_idle_us_p50",
        if idle > 0.0 {
            idle
        } else {
            idle_poll_ns(budget.idle_polls, &mut report.problems)
        } / 1e3,
    );
    // One pass over the threaded backend: ROADMAP 3(c)'s retirement
    // condition at the paper's small n.
    let threaded_opts = PassOpts {
        transport: Some(Transport::Wire(Backend::Threaded)),
        ..Default::default()
    };
    // Against the reactor's resolutions on the same deployment: the
    // workload's own reference passes, or the probe's traced pass.
    let (wire_flat, reactor_resolve) = match (&probe, own_flat) {
        (Some(probe), _) => (probe, median_or_zero(&probe_out.resolve_us)),
        (None, Some(own)) => (own, median_or_zero(&reference_resolve)),
        (None, None) => unreachable!("a workload without sockets has a probe"),
    };
    let threaded = pass::run(wire_flat, threaded_opts, &mut off);
    if let Some(why) = &threaded.failure {
        report
            .problems
            .push(format!("threaded-backend pass: {why}"));
    } else if reactor_resolve > 0.0 {
        v.set(
            "net.tcp.threaded_over_reactor_resolve",
            median_or_zero(&threaded.resolve_us) / reactor_resolve,
        );
    }

    // store.*: recorded transitions into a file-backed WAL.
    let journal = core_rec.journal.lock().expect("journal log poisoned");
    match layers::wal(&journal.kept, &s.scratch.join("wal"), budget) {
        Ok(Some(wal)) => {
            v.set("store.wal_append_us_p50", wal.append_us_p50);
            v.set(
                "store.wal_bytes_per_update",
                wal.bytes_per_transition * journal.total as f64 / core_out.updates.max(1) as f64,
            );
            v.set(
                "store.journal_share",
                wal.append_us_p50 * 1e-6 * journal.total as f64 / core_out.window.wall_s,
            );
        }
        Ok(None) => {}
        Err(e) => report
            .problems
            .push(format!("WAL replay in {}: {e}", s.scratch.display())),
    }
    drop(journal);

    // fleet.*: the workload's own tiers, or the same stream through a
    // two-shard fleet.
    let (fleet_ns, fleet_tiers, fleet_updates) = match &p.w.shape {
        Shape::Tiered(_) => (spans.p50(Stage::FleetUpdate), tiers, traced[0].updates),
        Shape::Flat(w) => {
            let tiered = Tiered {
                f: w.f.clone(),
                cfg: w.cfg.clone(),
                inputs: w.inputs.head(8),
                shards: 2,
            };
            let (_, classes, _) = fleet::run(&tiered, None, None, None, &mut off);
            let mut tr = Tracer::on();
            let (out, _, t) = fleet::run(&tiered, Some(&classes), None, None, &mut tr);
            (
                median_or_zero(&tr.durations(Stage::FleetUpdate)),
                t,
                out.updates,
            )
        }
    };
    v.set("fleet.update_ns_p50", fleet_ns);
    v.set(
        "fleet.root_msgs_per_update",
        ratio(fleet_tiers.root_msgs, fleet_updates),
    );
    v.set(
        "fleet.leaf_msgs_per_update",
        ratio(fleet_tiers.leaf_msgs, fleet_updates),
    );
    v.set(
        "fleet.root_over_leaf_msgs",
        ratio(fleet_tiers.root_msgs, fleet_tiers.leaf_msgs),
    );
    v.set("fleet.leaf_reports", fleet_tiers.leaf_reports as f64);

    // obs.* and proc.*
    let opts = PassOpts {
        telemetry: Some(Telemetry::enabled()),
        ..Default::default()
    };
    let (with_tel, _) = p.pass(opts, &mut off);
    absorb(&mut report, &with_tel, "telemetry pass");
    let v = &mut report.values;
    v.set(
        "obs.enabled_over_disabled",
        per_update_s(&with_tel) / ref_per_update,
    );
    v.set("proc.peak_rss_mib", host::peak_rss_mib());
    v.set(
        "proc.cpu_s_over_wall",
        (proc_after.cpu_s - before.1.cpu_s) / wall,
    );
    v.set(
        "proc.ctx_switches_per_update",
        ratio(
            proc_after
                .ctx_switches
                .saturating_sub(before.1.ctx_switches),
            traced_updates,
        ),
    );

    // Each workload is dominated by the layer it was chosen for.
    if s.scale == Scale::Full {
        let sum = v.get("driver.stage_sum_over_total");
        let check = v.get("core.node.check_share");
        let musts: &[(bool, String)] = match p.w.name {
            "wire_drift" => &[
                (
                    link_share >= 0.5,
                    format!("net.link_share = {link_share:.3} < 0.5"),
                ),
                (
                    decompose_share <= 0.1,
                    format!("decompose share = {decompose_share:.3} > 0.1"),
                ),
            ],
            "kld_fullsync" => &[(
                full_share >= 0.8,
                format!("full-sync handle share = {full_share:.3} < 0.8"),
            )],
            "ip_nodecheck" => &[(
                check >= 0.6,
                format!("core.node.check_share = {check:.3} < 0.6"),
            )],
            _ => &[],
        };
        if !musts.is_empty() && sum < 0.9 {
            report
                .problems
                .push(format!("driver.stage_sum_over_total = {sum:.3} < 0.9"));
        }
        for (ok, what) in musts {
            if !ok {
                report.problems.push(what.clone());
            }
        }
    }

    if let Some(path) = &s.trace_out {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|file| {
                let mut w = std::io::BufWriter::new(file);
                for t in &tracers {
                    t.write_jsonl(&mut w, p.w.name)?;
                }
                std::io::Write::flush(&mut w)
            });
        if let Err(e) = written {
            report
                .problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    for name in report.values.unset() {
        report
            .problems
            .push(format!("{name} is not a finite number"));
    }
    report
}

/// The spans of several traced passes, read together.
struct Spans<'a> {
    tracers: &'a [Tracer],
}

impl Spans<'_> {
    fn total(&self, stage: Stage) -> u64 {
        self.tracers.iter().map(|t| t.total(stage)).sum()
    }

    fn leaf_total(&self) -> u64 {
        self.tracers.iter().map(Tracer::leaf_total).sum()
    }

    /// Median duration in ns, 0 when the stage never ran.
    fn p50(&self, stage: Stage) -> f64 {
        let all: Vec<f64> = self
            .tracers
            .iter()
            .flat_map(|t| t.durations(stage))
            .collect();
        median_or_zero(&all)
    }
}

/// The workload's function and its first four streams as a flat
/// four-connection reactor deployment: the probe that gives a workload
/// without sockets (or without visible node and coordinator calls) its
/// `net.*` and `core.*` timings.
fn probe_flat(w: &Workload) -> Flat {
    Flat {
        f: w.f().clone(),
        cfg: w.cfg().clone(),
        inputs: w.inputs().head(crate::inputs::WIRE_NODES),
        transport: Transport::Wire(Backend::Reactor),
        idle_poll: false,
        walk: Walk::Once,
    }
}

/// Median cost in ns of a `try_recv` that finds nothing, on a fresh idle
/// connection.
fn idle_poll_ns(polls: usize, problems: &mut Vec<String>) -> f64 {
    let mut tr = Tracer::on();
    match Wire::connect(Backend::Reactor, 1, &Telemetry::disabled()) {
        Ok(mut link) => {
            for _ in 0..polls {
                if let Err(e) = link.poll(0, &mut tr) {
                    problems.push(format!("idle poll probe: {e}"));
                    break;
                }
            }
        }
        Err(e) => problems.push(format!("idle poll probe: {e}")),
    }
    median_or_zero(&tr.durations(Stage::IdlePoll))
}
