//! Subcommand implementations.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::{InnerProductDataset, QuadraticDataset, RozenbrockDataset};
use automon_data::windowed_mean_series;
use automon_functions::{train_mlp_d, InnerProduct, KlDivergence, QuadraticForm, Rozenbrock, Variance};
use automon_chaos::FaultPlan;
use automon_fleet::FleetConfig;
use automon_obs::{MetricsServer, Telemetry};
use automon_sim::{run_centralization, run_periodic, FleetSimulation, Simulation, Workload};
use automon_store::{DynDisk, FileDisk, MemDisk};
use serde::{Serialize, Value};

use crate::args::{Args, CliError, Flag};
use crate::csvio::{parse_csv_updates, render_estimates, Update};

/// Build a built-in monitored function by name.
pub fn build_function(name: &str, dim: usize) -> Result<Arc<dyn MonitoredFunction>, CliError> {
    Ok(match name {
        "inner-product" => Arc::new(AutoDiffFn::new(InnerProduct::new(dim))),
        "quadratic" => Arc::new(AutoDiffFn::new(QuadraticForm::random(dim, 7))),
        "kld" => Arc::new(AutoDiffFn::new(KlDivergence::new(dim, 1.0 / 2400.0))),
        "variance" => Arc::new(AutoDiffFn::new(Variance)),
        "rozenbrock" => Arc::new(AutoDiffFn::new(Rozenbrock)),
        "mlp" => Arc::new(AutoDiffFn::new(train_mlp_d(dim, 7))),
        other => {
            return Err(CliError::new(format!(
                "unknown function `{other}` (see `automon help`)"
            )))
        }
    })
}

/// Default dimension per function when `--dim` is omitted.
fn default_dim(name: &str) -> usize {
    match name {
        "variance" | "rozenbrock" => 2,
        "kld" => 20,
        _ => 4,
    }
}

/// Build the built-in workload matching a function name.
fn build_workload(
    name: &str,
    nodes: usize,
    rounds: usize,
    dim: usize,
    seed: u64,
) -> Result<Workload, CliError> {
    let window = 20;
    let raw = match name {
        "inner-product" => InnerProductDataset::generate(nodes, rounds + window - 1, dim, seed),
        "variance" => {
            // Augmented vectors [x, x²] from scalar samples (§6 rewriting).
            let scalars = QuadraticDataset::generate(nodes, rounds + window - 1, 1, seed);
            scalars
                .into_iter()
                .map(|s| {
                    s.into_iter()
                        .map(|v| vec![v[0], v[0] * v[0]])
                        .collect()
                })
                .collect()
        }
        "quadratic" | "mlp" => QuadraticDataset::generate(nodes, rounds + window - 1, dim, seed),
        "rozenbrock" => RozenbrockDataset::generate(nodes, rounds + window - 1, seed),
        "kld" => {
            let streams = automon_data::air_quality::generate(&automon_data::air_quality::AirQualityParams {
                sites: nodes,
                hours: rounds + 199,
                seed,
            });
            return Ok(Workload::from_dense(&automon_data::air_quality::kld_series(
                &streams,
                200,
                dim / 2,
            )));
        }
        other => return Err(CliError::new(format!("unknown function `{other}`"))),
    };
    Ok(Workload::from_dense(&windowed_mean_series(&raw, window)))
}

/// The fault flags: one group, admitted whole on `simulate` and `net-smoke`
/// (the runner's `Executor::admit` refuses by name what it cannot run).
pub(crate) const FAULT_FLAGS: &[Flag] = &[
    ("chaos-seed", "S"), ("drop-rate", "P"), ("duplicate-rate", "P"), ("reorder-rate", "P"),
    ("delay-rate", "P"), ("max-delay-rounds", "N"), ("crash-node", "SPEC"), ("crash-leaf", "SPEC"),
    ("crash-coordinator", "R"), ("partition", "SPEC"),
];

/// Read [`FAULT_FLAGS`] into the run's [`FaultPlan`], or `None` when none
/// was given; `default_seed` stands in for `--chaos-seed`. Crash specs
/// are `node:at[:restart]` and `leaf:at`, partition specs
/// `n1[,n2,…]:from:until` (rounds; `until` exclusive).
/// Only the grammar is checked here: ranges, and whether the run's
/// transport can execute the plan at all, are the plan's own checks
/// (`Simulation::check_plan` / `FleetSimulation::check_plan`).
pub(crate) fn fault_plan(args: &Args, default_seed: u64) -> Result<Option<FaultPlan>, CliError> {
    if FAULT_FLAGS.iter().all(|flag| args.get(flag.0).is_none()) {
        return Ok(None);
    }
    if args.get("max-delay-rounds").is_some() && args.get("delay-rate").is_none() {
        return Err(CliError::new("--max-delay-rounds requires --delay-rate"));
    }
    let mut plan = FaultPlan::seeded(args.num("chaos-seed", default_seed)?)
        .with_drop_rate(args.num("drop-rate", 0.0f64)?)
        .with_duplicate_rate(args.num("duplicate-rate", 0.0f64)?)
        .with_reorder_rate(args.num("reorder-rate", 0.0f64)?);
    let delay = args.num("delay-rate", 0.0f64)?;
    if delay != 0.0 {
        plan = plan.with_delay(delay, args.num("max-delay-rounds", 3usize)?);
    }
    let wants = |flag: &str, shape: &str, spec: &str| {
        CliError::new(format!("--{flag} wants {shape}, got `{spec}`"))
    };
    let numbers = |part: &str, sep: char| -> Option<Vec<usize>> {
        part.split(sep).map(|raw| raw.parse().ok()).collect()
    };
    for spec in args.get_all("crash-node") {
        plan = match numbers(spec, ':').as_deref() {
            Some(&[node, at]) => plan.with_crash(node, at, None),
            Some(&[node, at, restart]) => plan.with_crash(node, at, Some(restart)),
            _ => return Err(wants("crash-node", "`node:at[:restart]`", spec)),
        };
    }
    for spec in args.get_all("crash-leaf") {
        plan = match numbers(spec, ':').as_deref() {
            Some(&[leaf, at]) => plan.with_leaf_crash(leaf, at),
            _ => return Err(wants("crash-leaf", "`leaf:at`", spec)),
        };
    }
    for spec in args.get_all("crash-coordinator") {
        let round = spec
            .parse()
            .map_err(|_| wants("crash-coordinator", "a round number", spec))?;
        plan = plan.with_coordinator_crash(round);
    }
    for spec in args.get_all("partition") {
        let fields = spec
            .split_once(':')
            .and_then(|(ids, window)| Some((numbers(ids, ',')?, numbers(window, ':')?)));
        plan = match fields {
            Some((nodes, window)) if window.len() == 2 => {
                plan.with_partition(nodes, window[0], window[1])
            }
            _ => return Err(wants("partition", "`n1[,n2,…]:from:until`", spec)),
        };
    }
    Ok(Some(plan))
}

/// Parse the fleet flags into a [`FleetConfig`], or `None` when `--fleet`
/// was not given.
///
/// Flag hygiene is strict both ways: fleet-only flags without `--fleet`
/// are rejected, and the flat runner's non-fault features that have no
/// meaning in a fleet run are rejected with `--fleet` instead of being
/// silently ignored. (Fault flags are not listed on either side: the
/// plan they build is refused by the executor that cannot run it.)
fn parse_fleet(args: &Args, streams: usize) -> Result<Option<FleetConfig>, CliError> {
    if !args.flag("fleet") {
        for key in ["shards", "leaf-epsilon-frac"] {
            if args.get(key).is_some() {
                return Err(CliError::new(format!("--{key} requires --fleet")));
            }
        }
        return Ok(None);
    }
    for key in ["wal-dir", "snapshot-every", "baseline"] {
        if args.get(key).is_some() {
            return Err(CliError::new(format!(
                "--{key} cannot be combined with --fleet (the fleet runner has no \
                 coordinator store and no baselines)"
            )));
        }
    }
    let shards = args.num("shards", 8usize)?;
    if shards == 0 {
        return Err(CliError::new("--shards must be ≥ 1"));
    }
    if streams < shards {
        return Err(CliError::new(format!(
            "--fleet needs at least one stream per shard ({streams} nodes < {shards} shards)"
        )));
    }
    let frac = args.num("leaf-epsilon-frac", 0.5f64)?;
    if !(frac > 0.0 && frac < 1.0) {
        return Err(CliError::new("--leaf-epsilon-frac must be in (0, 1)"));
    }
    let mut fleet_cfg = FleetConfig::new(shards);
    fleet_cfg.leaf_epsilon_frac = frac;
    Ok(Some(fleet_cfg))
}

/// The observability sinks a run was asked for: an enabled [`Telemetry`]
/// handle when any of `--metrics-out`, `--trace-out`, `--serve-metrics`
/// is present, plus the live HTTP responder and the streaming trace
/// writer.
struct ObsSinks {
    telemetry: Telemetry,
    server: Option<MetricsServer>,
    trace: Option<TraceStream>,
}

/// Streaming `--trace-out` writer. A background thread drains the
/// tracer's buffer to the file while the run executes, so trace memory
/// stays bounded on long runs; drains preserve event order, and the
/// concatenation of all drains is byte-identical to a run-end dump.
struct TraceStream {
    path: String,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    writer: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TraceStream {
    fn start(path: &str, telemetry: Telemetry) -> Result<Self, CliError> {
        use std::sync::atomic::{AtomicBool, Ordering};
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop_seen = stop.clone();
        let writer = std::thread::spawn(move || {
            use std::io::Write;
            let mut w = std::io::BufWriter::new(file);
            loop {
                // Read the flag before draining: once `finish` sets it,
                // the run is over, so this drain is the final, complete
                // one.
                let done = stop_seen.load(Ordering::Acquire);
                telemetry.drain_trace_to(&mut w)?;
                if done {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            w.flush()
        });
        Ok(Self {
            path: path.to_string(),
            stop,
            writer,
        })
    }

    fn finish(self) -> Result<String, CliError> {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        match self.writer.join() {
            Ok(Ok(())) => Ok(format!("trace written to {}", self.path)),
            Ok(Err(e)) => Err(CliError::new(format!(
                "cannot write `{}`: {e}",
                self.path
            ))),
            Err(_) => Err(CliError::new("trace writer thread panicked")),
        }
    }
}

impl ObsSinks {
    fn from_args(args: &Args) -> Result<Self, CliError> {
        let wanted = args.get("metrics-out").is_some()
            || args.get("trace-out").is_some()
            || args.get("serve-metrics").is_some();
        let telemetry = if wanted {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let server = match args.get("serve-metrics") {
            Some(addr) => Some(MetricsServer::bind(addr, telemetry.clone()).map_err(|e| {
                CliError::new(format!("cannot serve metrics on `{addr}`: {e}"))
            })?),
            None => None,
        };
        let trace = match args.get("trace-out") {
            Some(path) => Some(TraceStream::start(path, telemetry.clone())?),
            None => None,
        };
        Ok(Self {
            telemetry,
            server,
            trace,
        })
    }

    /// Flush the file sinks and stop the HTTP responder. Returns human
    /// notes (one per sink) for the text report; `--json` mode discards
    /// them to keep stdout pure JSON.
    fn finish(self, args: &Args) -> Result<Vec<String>, CliError> {
        let mut notes = Vec::new();
        if let Some(path) = args.get("metrics-out") {
            self.telemetry
                .write_metrics(std::path::Path::new(path))
                .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
            notes.push(format!("metrics written to {path}"));
        }
        if let Some(stream) = self.trace {
            notes.push(stream.finish()?);
        }
        if let Some(server) = self.server {
            notes.push(format!(
                "metrics served at http://{}/metrics for the duration of the run",
                server.local_addr()
            ));
            server.shutdown();
        }
        Ok(notes)
    }
}

/// Render run statistics as a compact JSON object, with any extra
/// run-level fields appended (e.g. `quiesced` for chaos runs).
fn stats_json(stats: &automon_sim::RunStats, extra: &[(&str, Value)]) -> Result<String, CliError> {
    let mut v = stats.to_value();
    if let Value::Map(entries) = &mut v {
        for (k, val) in extra {
            entries.push((k.to_string(), val.clone()));
        }
    }
    serde_json::to_string(&v).map_err(|e| CliError::new(format!("JSON encoding failed: {e}")))
}

/// Flags `automon simulate` reads besides [`FAULT_FLAGS`]; `dispatch`
/// rejects any other.
pub(crate) const SIMULATE_FLAGS: &[Flag] = &[
    ("function", "<NAME>"), ("epsilon", "E"), ("nodes", "N"), ("rounds", "R"), ("dim", "D"),
    ("seed", "S"), ("baseline", "SPEC"), ("wal-dir", "DIR"), ("snapshot-every", "N"), ("json", ""),
    ("metrics-out", "FILE"), ("trace-out", "FILE"), ("serve-metrics", "ADDR"), ("fleet", ""),
    ("shards", "S"), ("leaf-epsilon-frac", "F"),
];

/// `automon simulate …`
pub fn run_simulate(args: &Args) -> Result<String, CliError> {
    let function = args.require("function")?;
    let dim = args.num("dim", default_dim(function))?;
    let nodes = args.num("nodes", 10usize)?;
    let rounds = args.num("rounds", 500usize)?;
    let epsilon = args.num("epsilon", 0.1f64)?;
    let seed = args.num("seed", 1u64)?;
    if epsilon <= 0.0 {
        return Err(CliError::new("--epsilon must be positive"));
    }

    let f = build_function(function, dim)?;
    let workload = build_workload(function, nodes, rounds, dim, seed)?;
    let cfg = MonitorConfig::builder(epsilon).build();

    let sinks = ObsSinks::from_args(args)?;
    let json = args.flag("json");

    // The fault flags mean the same on every path; what each runner can
    // execute of the plan is its own `check_plan`.
    let plan = fault_plan(args, 1)?;
    let mut out = if let Some(fleet_cfg) = parse_fleet(args, nodes)? {
        let shards = fleet_cfg.shards;
        let plan = plan.unwrap_or_else(FaultPlan::none);
        let sim = FleetSimulation::new(f, cfg, fleet_cfg)
            .with_plan(plan.clone())
            .with_telemetry(sinks.telemetry.clone());
        sim.check_plan(nodes).map_err(CliError::new)?;
        let report = sim.run(&workload);
        if json {
            serde_json::to_string(&report)
                .map_err(|e| CliError::new(format!("JSON encoding failed: {e}")))?
        } else {
            let s = &report.stats;
            let per_update = |msgs: usize| {
                if report.updates == 0 {
                    0.0
                } else {
                    msgs as f64 / report.updates as f64
                }
            };
            let mut out = format!(
                "function {function} (d = {dim}), {nodes} streams over {shards} shards (fleet), \
                 {} rounds, ε = {epsilon}\n",
                workload.rounds()
            );
            out.push_str(&format!(
                "fleet totals   : {:>8} msgs, max error {:.5}, full/lazy syncs {}/{}\n",
                s.messages, s.max_error, s.full_syncs, s.lazy_syncs
            ));
            out.push_str(&format!(
                "root tier      : {:>8} msgs ({:.4}/update), {} leaf report(s)\n",
                report.root_messages,
                per_update(report.root_messages),
                report.leaf_reports
            ));
            out.push_str(&format!(
                "leaf tier      : {:>8} msgs ({:.4}/update)\n",
                report.leaf_messages,
                per_update(report.leaf_messages)
            ));
            if !plan.is_none() {
                out.push_str(&format!(
                    "faults         : {} node crash(es), {} restart(s), {} leaf crash(es), \
                     {} rebalance(s), evictions/rejoins {}/{}\n",
                    report.node_crashes,
                    report.restarts,
                    report.leaf_crashes,
                    report.rebalances,
                    s.evictions,
                    s.rejoins
                ));
            }
            out
        }
    } else {
        // One flat simulation: tune the radius when the function has a
        // neighborhood, attach the plan and the store when the flags ask
        // for them, run once.
        let snapshot_every = args.num("snapshot-every", 16usize)?;
        if snapshot_every == 0 {
            return Err(CliError::new("--snapshot-every must be positive"));
        }
        let r = (!f.has_constant_hessian()).then(|| {
            let prefix = workload.prefix((workload.rounds() / 10).clamp(20, 200));
            Simulation::new(f.clone(), cfg.clone()).tune_r(&prefix).r
        });
        let cfg = match r {
            Some(r) => cfg.with_r(r),
            None => cfg,
        };
        let mut sim = Simulation::new(f.clone(), cfg).with_telemetry(sinks.telemetry.clone());
        if let Some(plan) = &plan {
            sim = sim.with_plan(plan.clone());
            sim.check_plan(nodes).map_err(CliError::new)?;
        }
        if let Some(dir) = args.get("wal-dir") {
            let dir = dir.to_string();
            sim = sim.with_store(
                move || {
                    Box::new(FileDisk::open(&dir).expect("--wal-dir: cannot open directory"))
                        as DynDisk
                },
                snapshot_every,
            );
        } else if args.get("snapshot-every").is_some() {
            // A cadence without a directory: the deterministic in-memory
            // backend (replays identically to the file one), which the
            // driver also provisions by itself for `--crash-coordinator`.
            sim = sim.with_store(|| Box::new(MemDisk::new()) as DynDisk, snapshot_every);
        }
        let report = sim.run_report(&workload);
        let s = &report.stats;
        let mut out = format!(
            "function {function} (d = {dim}), {nodes} nodes, {} rounds, ε = {epsilon}\n",
            workload.rounds()
        );
        if json {
            let extra = plan.is_some().then_some(("quiesced", Value::Bool(report.quiesced)));
            out = stats_json(s, extra.as_slice())?;
        } else if let Some(plan) = &plan {
            out.push_str(&format!(
                "chaos: seed {}, drop rate {}, {} crash(es), {} partition(s)\n",
                plan.seed,
                plan.drop_rate,
                plan.crashes.len(),
                plan.partitions.len(),
            ));
            out.push_str(&format!(
                "AutoMon (chaos): {:>8} msgs, max error {:.5} (quiescent rounds), \
                 final error {:.5}\n",
                s.messages, s.max_error, s.final_error
            ));
            out.push_str(&format!(
                "faults injected : {:>8}, retransmits {}, evictions {}, rejoins {}\n",
                s.injected_faults, s.retransmits, s.evictions, s.rejoins
            ));
            out.push_str(&format!(
                "recovery        : {:>8} drain rounds, max degraded error {:.5}, {}\n",
                s.recovery_rounds,
                s.max_error_during_partition,
                if report.quiesced { "quiesced" } else { "DEADLOCKED" }
            ));
            if s.coordinator_recoveries > 0 {
                out.push_str(&format!(
                    "durability      : {:>8} coordinator crash/recovery cycle(s) replayed from the WAL\n",
                    s.coordinator_recoveries
                ));
            }
        } else {
            if let Some(r) = r {
                out.push_str(&format!("tuned neighborhood r̂ = {r:.4}\n"));
            }
            out.push_str(&format!(
                "AutoMon        : {:>8} msgs, max error {:.5}, full/lazy syncs {}/{}\n",
                s.messages, s.max_error, s.full_syncs, s.lazy_syncs
            ));
            for spec in args.get_all("baseline") {
                if spec == "centralization" {
                    let c = run_centralization(&f, &workload);
                    out.push_str(&format!(
                        "Centralization : {:>8} msgs, max error {:.5}\n",
                        c.messages, c.max_error
                    ));
                } else if let Some(p) = spec.strip_prefix("periodic:") {
                    let period: usize = p
                        .parse()
                        .map_err(|_| CliError::new(format!("bad baseline `{spec}`")))?;
                    let s = run_periodic(&f, &workload, period);
                    out.push_str(&format!(
                        "Periodic({period})    : {:>8} msgs, max error {:.5}\n",
                        s.messages, s.max_error
                    ));
                } else {
                    return Err(CliError::new(format!(
                        "unknown baseline `{spec}` (centralization | periodic:<P>)"
                    )));
                }
            }
        }
        out
    };

    // One epilogue for every path: flush the sinks; their notes join the
    // text report, while `--json` keeps stdout pure JSON.
    let notes = sinks.finish(args)?;
    if !json {
        for note in notes {
            out.push_str(&note);
            out.push('\n');
        }
    }
    Ok(out)
}

/// The workload a CSV describes — one driver round per distinct round
/// label, in file order — and those labels: what `monitor` runs is what
/// `tune` scores.
fn csv_workload(updates: Vec<Update>, nodes: usize) -> (Vec<usize>, Workload) {
    let mut labels = Vec::new();
    let mut rounds: Vec<Vec<(usize, Vec<f64>)>> = Vec::new();
    for (label, node, vector) in updates {
        if labels.last() != Some(&label) {
            labels.push(label);
            rounds.push(Vec::new());
        }
        rounds.last_mut().expect("just pushed").push((node, vector));
    }
    (labels, Workload::from_rounds(nodes, rounds))
}

/// Flags `automon monitor` reads; `dispatch` rejects any other.
pub(crate) const MONITOR_FLAGS: &[Flag] = &[
    ("function", "<NAME>"), ("input", "<FILE.csv>"), ("nodes", "<N>"), ("epsilon", "E"), ("dim", "D"),
    ("output", "FILE.csv"),
];

/// `automon monitor …` — run the real protocol over CSV updates.
pub fn run_monitor(args: &Args) -> Result<String, CliError> {
    let function = args.require("function")?;
    let input = args.require("input")?;
    let nodes = args.num("nodes", 0usize)?;
    if nodes == 0 {
        return Err(CliError::new("--nodes is required and must be positive"));
    }
    let epsilon = args.num("epsilon", 0.1f64)?;
    let text = std::fs::read_to_string(input)
        .map_err(|e| CliError::new(format!("cannot read `{input}`: {e}")))?;
    let updates = parse_csv_updates(&text, nodes)?;
    let dim = args.num("dim", updates[0].2.len())?;
    if dim != updates[0].2.len() {
        return Err(CliError::new(format!(
            "--dim {dim} disagrees with CSV dimension {}",
            updates[0].2.len()
        )));
    }
    let f = build_function(function, dim)?;

    let cfg = MonitorConfig::builder(epsilon).build();
    // The labels go back on the rows. The driver measures a round once
    // every node has reported (the coordinator has no estimate before that).
    let (labels, workload) = csv_workload(updates, nodes);
    let stats = Simulation::new(f, cfg).with_trace(1).run(&workload);
    let rows: Vec<(usize, f64, f64)> = stats
        .trace
        .iter()
        .flatten()
        .filter_map(|p| Some((*labels.get(p.round)?, p.estimate, p.truth)))
        .collect();
    let (messages, max_error) = (stats.messages, stats.max_error);

    let csv = render_estimates(&rows);
    if let Some(path) = args.get("output") {
        std::fs::write(path, &csv)
            .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
        Ok(format!(
            "monitored {} rounds: {} messages, max error {:.5}; estimates written to {path}",
            rows.len(),
            messages,
            max_error
        ))
    } else {
        Ok(csv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_ledger_conserves, cli, field, ledger, with};

    /// A scratch file path unique to `name`.
    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join("automon_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).display().to_string()
    }

    #[test]
    fn builds_every_builtin_function() {
        for (name, dim) in [
            ("inner-product", 4),
            ("quadratic", 3),
            ("kld", 8),
            ("variance", 2),
            ("rozenbrock", 2),
        ] {
            let f = build_function(name, dim).unwrap();
            assert_eq!(f.dim(), dim, "{name}");
        }
        assert!(build_function("bogus", 2).is_err());
    }

    #[test]
    fn monitor_runs_over_csv() {
        let input = scratch("updates.csv");
        let mut text = String::new();
        for t in 0..40 {
            let v = t as f64 * 0.01;
            text.push_str(&format!("{t},0,{},{},1.0,1.0\n", v, v * 0.5));
            text.push_str(&format!("{t},1,{},{},1.0,1.0\n", v + 0.1, v));
        }
        std::fs::write(&input, text).unwrap();
        let out = cli(&[
            "monitor", "--function", "inner-product", "--input", &input, "--nodes", "2",
            "--epsilon", "0.2",
        ])
        .unwrap();
        assert!(out.starts_with("round,estimate,truth,abs_error"));
        assert!(out.lines().count() > 30);
        // Every reported error respects the constant-Hessian guarantee.
        for line in out.lines().skip(1) {
            let err: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(err <= 0.2 + 1e-9, "{line}");
        }
    }

    /// Round labels with gaps, a node that skips rounds, and a node whose
    /// first report comes late: the rows carry the CSV's labels and start
    /// at the first round by which every node has reported.
    #[test]
    fn monitor_keeps_csv_round_labels_and_waits_for_every_node() {
        let input = scratch("gaps.csv");
        let labels = [3, 4, 7, 8, 9, 15, 16, 20, 21, 22, 30, 31, 32, 33, 40, 41, 50, 60, 61, 62];
        let mut text = String::new();
        for (k, label) in labels.iter().enumerate() {
            for node in 0..3 {
                let late = node == 2 && k < 4;
                let skips = node == 1 && k % 5 == 3;
                if !late && !skips {
                    let v = 0.05 * k as f64 + 0.2 * ((k * 7 + node * 3) % 5) as f64 / 5.0;
                    let w = 0.5 * v + 0.1 * node as f64;
                    text.push_str(&format!("{label},{node},{v},{w},1.0,{}\n", 1.0 + 0.01 * k as f64));
                }
            }
        }
        std::fs::write(&input, text).unwrap();
        let output = scratch("gaps-estimates.csv");
        let summary = cli(&[
            "monitor", "--function", "inner-product", "--nodes", "3", "--epsilon", "0.2",
            "--input", &input, "--output", &output,
        ])
        .unwrap();
        // What the hand-written delivery loop this replaced counted here.
        assert!(summary.starts_with("monitored 16 rounds: 122 messages"), "{summary}");
        let rows = std::fs::read_to_string(&output).unwrap();
        let got: Vec<usize> = rows
            .lines()
            .skip(1)
            .map(|line| line.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(got, labels[4..], "{rows}");
    }

    // Carries ci.sh step 4(a) (retired): its argv, twice byte-identical and
    // quiesced. The second row is the whole frame ladder on `simulate`.
    #[test]
    fn simulate_chaos_is_deterministic_and_reports_faults() {
        let base = [
            "simulate", "--function", "inner-product", "--dim", "4", "--nodes", "4", "--rounds",
            "90", "--epsilon", "0.3",
        ];
        let timed = |seed| {
            let faults = [
                "--chaos-seed", seed, "--drop-rate", "0.1", "--crash-node", "2:30:60",
                "--partition", "1:10:20",
            ];
            cli(&with(&base, &faults)).unwrap()
        };
        let a = timed("7");
        assert_eq!(a, timed("7"), "same chaos seed must reproduce the same report");
        assert!(a.contains("AutoMon (chaos)"), "{a}");
        assert!(a.contains("quiesced"), "{a}");
        assert!(!a.contains("DEADLOCKED"), "{a}");
        assert_ne!(a, timed("8"), "different seed should change the run");

        let ladder = with(&base, &["--chaos-seed", "1", "--duplicate-rate", "0.05", "--delay-rate", "0.05"]);
        let a = cli(&ladder).unwrap();
        assert_eq!(a, cli(&ladder).unwrap());
        assert!(a.contains("quiesced"), "{a}");
    }

    #[test]
    fn chaos_specs_are_validated() {
        let base = ["simulate", "--function", "inner-product", "--nodes", "3"];
        let run = |extra: &[&str]| cli(&with(&base, extra));
        assert!(run(&["--drop-rate", "1.5"]).is_err());
        assert!(run(&["--crash-node", "9:10"]).is_err(), "node out of range");
        assert!(run(&["--crash-node", "1:10:5"]).is_err(), "restart < crash");
        assert!(run(&["--crash-node", "nonsense"]).is_err());
        assert!(run(&["--partition", "1:20:10"]).is_err(), "until < from");
        assert!(run(&["--partition", "1,2"]).is_err());
    }

    #[test]
    fn json_output_is_parseable_runstats() {
        let base = ["simulate", "--function", "inner-product", "--rounds", "60", "--nodes", "3", "--json"];
        let out = cli(&base).unwrap();
        let v: Value = serde_json::from_str(&out).expect("valid JSON");
        assert!(matches!(field(&v, "messages"), Value::UInt(n) if n > 0), "{out}");
        assert!(matches!(field(&v, "full_syncs"), Value::UInt(n) if n >= 1));
        assert!(matches!(field(&v, "quiesced"), Value::Null), "plain runs have no quiesced");

        // Chaos runs append `quiesced`.
        let out = cli(&with(&base, &["--chaos-seed", "7"])).unwrap();
        let v: Value = serde_json::from_str(&out).expect("valid JSON");
        assert!(matches!(field(&v, "quiesced"), Value::Bool(_)), "{out}");
    }

    /// A zero-rate plan swaps the bare fabric for the chaos fabric and must
    /// change nothing else — on a constant-Hessian function and on one that
    /// tunes its radius. Carries ci.sh step 4(b) (retired).
    #[test]
    fn zero_rate_plan_does_not_change_a_run_that_tunes() {
        for function in [&["inner-product", "--dim", "4"][..], &["rozenbrock"]] {
            let argv = with(
                &with(&["simulate", "--function"], function),
                &["--nodes", "4", "--rounds", "90", "--epsilon", "0.2", "--json"],
            );
            let plain: Value = serde_json::from_str(&cli(&argv).unwrap()).expect("valid JSON");
            let zero = cli(&with(&argv, &["--chaos-seed", "1"])).unwrap();
            let zero: Value = serde_json::from_str(&zero).expect("valid JSON");
            assert!(matches!(field(&plain, "lazy_syncs"), Value::UInt(n) if n > 0), "{function:?}");
            assert!(!ledger(&plain).is_empty());
            for (key, value) in plain.as_map().expect("object") {
                assert_eq!(*value, field(&zero, key), "{function:?}: stats key `{key}`");
            }
            assert_eq!(field(&zero, "quiesced"), Value::Bool(true));
        }
    }

    #[test]
    fn observability_sinks_write_files_and_serve() {
        let metrics = scratch("metrics.prom");
        let trace = scratch("trace.jsonl");
        let argv = [
            "simulate", "--function", "inner-product", "--rounds", "60", "--nodes", "3",
            "--metrics-out", &metrics, "--trace-out", &trace,
        ];
        let out = cli(&argv).unwrap();
        assert!(out.contains("metrics written to"), "{out}");
        assert!(out.contains("trace written to"), "{out}");

        let text = std::fs::read_to_string(&metrics).unwrap();
        let samples = automon_obs::parse_prometheus(&text).expect("valid exposition");
        assert!(
            automon_obs::value_of(&samples, "automon_coord_full_syncs_total", &[])
                .is_some_and(|v| v >= 1.0),
            "{text}"
        );
        assert!(
            automon_obs::value_of(&samples, "automon_node_checks_total", &[]).is_some(),
            "{text}"
        );

        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let v: Value = serde_json::from_str(line).expect("each trace line is JSON");
            assert!(matches!(field(&v, "seq"), Value::UInt(_)), "{line}");
            assert!(matches!(field(&v, "kind"), Value::Str(_)), "{line}");
        }

        // Byte-identical on a re-run with the same arguments.
        cli(&argv).unwrap();
        assert_eq!(jsonl, std::fs::read_to_string(&trace).unwrap());
    }

    #[test]
    fn serve_metrics_responds_during_run() {
        let out = cli(&[
            "simulate", "--function", "inner-product", "--rounds", "40", "--nodes", "3",
            "--serve-metrics", "127.0.0.1:0",
        ])
        .unwrap();
        assert!(out.contains("metrics served at http://127.0.0.1:"), "{out}");
    }

    // Carries ci.sh step 11 (retired) at 12 streams: the faulted `--json`
    // pair byte-equal, traces `trace diff` accepts, the two-tier ledger and
    // the per-tier split conserving the totals, the root tier the quieter.
    #[test]
    fn fleet_flags_run_the_two_tier_simulator() {
        let base = [
            "simulate", "--function", "inner-product", "--rounds", "50", "--nodes", "12",
            "--epsilon", "0.3", "--fleet", "--shards", "4",
        ];
        let run = |extra: &[&str]| cli(&with(&base, extra)).unwrap();
        let a = run(&[]);
        assert!(a.contains("12 streams over 4 shards (fleet)"), "{a}");
        assert!(a.contains("root tier"), "{a}");
        assert!(a.contains("leaf tier"), "{a}");
        // Deterministic: same flags, byte-identical report.
        assert_eq!(a, run(&[]));

        // Fleet faults run through the deterministic schedule and are
        // reported.
        let faults = ["--crash-node", "3:10:25", "--crash-leaf", "1:30"];
        let faulted = run(&faults);
        assert!(faulted.contains("1 node crash(es)"), "{faulted}");
        assert!(faulted.contains("1 leaf crash(es)"), "{faulted}");
        assert!(faulted.contains("1 rebalance(s)"), "{faulted}");

        // JSON mode emits the per-tier report, the same bytes every time.
        let (left, right) = (scratch("fleet-a.jsonl"), scratch("fleet-b.jsonl"));
        let json = run(&with(&faults, &["--json", "--trace-out", &left]));
        assert_eq!(json, run(&with(&faults, &["--json", "--trace-out", &right])));
        cli(&["trace", "diff", "--left", &left, "--right", &right]).unwrap();
        let report: Value = serde_json::from_str(&json).expect("valid JSON");
        let count = |key: &str| match field(&report, key) {
            Value::UInt(n) => n,
            other => panic!("`{key}` is {other:?} in {json}"),
        };
        assert!(count("leaf_reports") > 0, "{json}");
        assert_eq!((count("leaf_crashes"), count("rebalances")), (1, 1), "{json}");
        let stats = field(&report, "stats");
        assert_ledger_conserves(&stats);
        assert_eq!(
            Value::UInt(count("root_messages") + count("leaf_messages")),
            field(&stats, "messages")
        );
        assert_eq!(
            Value::UInt(count("root_payload_bytes") + count("leaf_payload_bytes")),
            field(&stats, "payload_bytes")
        );
        assert!(count("root_messages") < count("leaf_messages"), "{json}");
    }

    #[test]
    fn fleet_flag_hygiene_rejects_contradictory_combos() {
        let base = ["simulate", "--function", "inner-product", "--rounds", "40", "--nodes", "12"];
        let run = |extra: &[&str]| cli(&with(&base, extra));
        // Fleet-only flags without --fleet.
        for flags in [&["--shards", "4"][..], &["--leaf-epsilon-frac", "0.5"][..]] {
            let err = run(flags).unwrap_err();
            assert!(err.to_string().contains("requires --fleet"), "{flags:?}: {err}");
        }
        // Flat-runner features with --fleet.
        for flags in [
            &["--fleet", "--wal-dir", "/tmp/x"][..],
            &["--fleet", "--snapshot-every", "4"][..],
            &["--fleet", "--baseline", "centralization"][..],
        ] {
            let err = run(flags).unwrap_err();
            assert!(
                err.to_string().contains("cannot be combined with --fleet"),
                "{flags:?}: {err}"
            );
        }
        // Faults the selected runner cannot execute: the plan's one refusal.
        for (flags, refusal) in [
            (&["--crash-leaf", "1:30"][..], "the in-process fabric does not run leaf crashes"),
            (&["--fleet", "--drop-rate", "0.1"][..], "the fleet does not run frame faults"),
            (&["--fleet", "--partition", "1:10:20"][..], "the fleet does not run partitions"),
            (
                &["--fleet", "--crash-coordinator", "30"][..],
                "the fleet does not run coordinator crashes (it runs node crashes, leaf crashes)",
            ),
        ] {
            let err = run(flags).unwrap_err();
            assert!(err.to_string().contains(refusal), "{flags:?}: {err}");
        }
        // Malformed fleet values.
        assert!(run(&["--fleet", "--shards", "0"]).is_err());
        assert!(run(&["--fleet", "--shards", "20"]).is_err(), "12 < 20");
        assert!(run(&["--fleet", "--leaf-epsilon-frac", "1.5"]).is_err());
        assert!(run(&["--fleet", "--crash-leaf", "9:10"]).is_err(), "leaf range");
        assert!(run(&["--fleet", "--crash-leaf", "nonsense"]).is_err());
        assert!(run(&["--fleet", "--crash-node", "3:10:5"]).is_err(), "restart < crash");
        assert!(run(&["--fleet", "--crash-node", "99:10"]).is_err(), "node range");
    }

    // Carries ci.sh step 10 (retired): its argv, the `--json` pair and the
    // trace pair identical, one recovery, its resync on the `recovery` cause.
    #[test]
    fn crash_coordinator_flag_runs_and_is_deterministic() {
        let base = [
            "simulate", "--function", "inner-product", "--dim", "4", "--nodes", "4", "--rounds",
            "90", "--epsilon", "0.3", "--chaos-seed", "7", "--drop-rate", "0.1",
            "--crash-coordinator", "40",
        ];
        let run = |extra: &[&str]| cli(&with(&base, extra));
        let (left, right) = (scratch("crash-a.jsonl"), scratch("crash-b.jsonl"));
        let a = run(&["--json", "--trace-out", &left]).unwrap();
        let b = run(&["--json", "--trace-out", &right]).unwrap();
        assert_eq!(a, b, "same seed + crash schedule must be byte-identical");
        cli(&["trace", "diff", "--left", &left, "--right", &right]).unwrap();
        let stats: Value = serde_json::from_str(&a).expect("valid JSON");
        assert_eq!(field(&stats, "coordinator_recoveries"), Value::UInt(1), "{a}");
        let recovery = ledger(&stats).into_iter().find(|row| row.0 == "recovery");
        assert!(recovery.is_some_and(|row| row.1 > 0), "recovery ledger cause: {a}");
        // The text report names the durability line only on crash runs.
        let text = run(&[]).unwrap();
        assert!(text.contains("durability"), "{text}");
        assert!(text.contains("1 coordinator crash/recovery cycle"), "{text}");
        // Cadence flag composes; zero is rejected; garbage rounds are
        // rejected.
        assert!(run(&["--snapshot-every", "4"]).is_ok());
        let err = run(&["--snapshot-every", "0"]).unwrap_err();
        assert!(err.to_string().contains("--snapshot-every"), "{err}");
        let err = cli(&["simulate", "--function", "inner-product", "--crash-coordinator", "soon"])
            .unwrap_err();
        assert!(err.to_string().contains("--crash-coordinator"), "{err}");
    }

    #[test]
    fn wal_dir_backend_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("automon_cli_wal_{}", std::process::id()));
        let base = [
            "simulate", "--function", "inner-product", "--dim", "4", "--rounds", "60", "--nodes",
            "3", "--epsilon", "0.3", "--chaos-seed", "9", "--crash-coordinator", "25", "--json",
        ];
        let mem = cli(&base).unwrap();
        let file = cli(&with(&base, &["--wal-dir", &dir.display().to_string()])).unwrap();
        // The store leaves its files behind for inspection.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("--wal-dir created")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(mem, file, "file backend must replay identically to memory");
        assert!(
            names.iter().any(|n| n.starts_with("wal-")),
            "WAL segments persisted: {names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("snap-")),
            "checkpoints persisted: {names:?}"
        );
    }

    #[test]
    fn simulate_variance_with_defaults() {
        let out = cli(&["simulate", "--function", "variance", "--rounds", "80", "--nodes", "3"]);
        assert!(out.unwrap().contains("AutoMon"));
    }
}

/// Flags `automon tune` reads; `dispatch` rejects any other.
pub(crate) const TUNE_FLAGS: &[Flag] =
    &[("function", "<NAME>"), ("input", "<FILE.csv>"), ("nodes", "<N>"), ("epsilon", "E")];

/// `automon tune …` — run Algorithm 2 over a recorded CSV prefix and
/// report the recommended neighborhood size with its violation grid.
pub fn run_tune(args: &Args) -> Result<String, CliError> {
    let function = args.require("function")?;
    let input = args.require("input")?;
    let nodes = args.num("nodes", 0usize)?;
    if nodes == 0 {
        return Err(CliError::new("--nodes is required and must be positive"));
    }
    let epsilon = args.num("epsilon", 0.1f64)?;
    let text = std::fs::read_to_string(input)
        .map_err(|e| CliError::new(format!("cannot read `{input}`: {e}")))?;
    let updates = parse_csv_updates(&text, nodes)?;
    let dim = updates[0].2.len();
    let f = build_function(function, dim)?;
    if f.has_constant_hessian() {
        return Ok(format!(
            "function `{function}` has a constant Hessian: AutoMon uses \
             ADCD-E, which needs no neighborhood — nothing to tune."
        ));
    }

    let (_, prefix) = csv_workload(updates, nodes);
    let cfg = MonitorConfig::builder(epsilon).build();
    let result = Simulation::new(f, cfg).tune_r(&prefix);

    let mut out = format!(
        "Algorithm 2 on {} rounds × {nodes} nodes (ε = {epsilon}):\n\
         recommended neighborhood size r̂ = {:.6}\n\n\
         {:>10}  {:>14}  {:>10}  {:>8}\n",
        prefix.rounds(),
        result.r,
        "r",
        "neighborhood",
        "safe zone",
        "total"
    );
    for (r, counts) in &result.grid {
        out.push_str(&format!(
            "{r:>10.5}  {:>14}  {:>10}  {:>8}\n",
            counts.neighborhood,
            counts.safezone,
            counts.total_violations()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tune_tests {
    use crate::testkit::cli;

    #[test]
    fn tune_over_csv_prefix() {
        let dir = std::env::temp_dir().join("automon_cli_tune_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("prefix.csv");
        let mut text = String::new();
        for t in 0..50 {
            for node in 0..2 {
                let v = t as f64 * 0.02 + node as f64 * 0.01;
                text.push_str(&format!("{t},{node},{},{}\n", v, v * 0.5));
            }
        }
        std::fs::write(&input, text).unwrap();
        let input = input.display().to_string();
        let out = cli(&[
            "tune", "--function", "rozenbrock", "--input", &input, "--nodes", "2", "--epsilon", "0.5",
        ])
        .unwrap();
        assert!(out.contains("recommended neighborhood size"), "{out}");
        assert!(out.contains("safe zone"), "{out}");
    }

    #[test]
    fn tune_skips_constant_hessian_functions() {
        let dir = std::env::temp_dir().join("automon_cli_tune_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("prefix.csv");
        std::fs::write(&input, "0,0,1.0,2.0,3.0,4.0\n").unwrap();
        let input = input.display().to_string();
        let out = cli(&["tune", "--function", "inner-product", "--input", &input, "--nodes", "1"])
            .unwrap();
        assert!(out.contains("nothing to tune"), "{out}");
    }
}
