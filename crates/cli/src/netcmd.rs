//! `automon net-smoke` — drive the monitoring protocol over a network
//! transport and report protocol outcome + transport cost.
//!
//! Two backends behind `--net-backend`, both of them links of the one
//! round driver (`automon_sim::Simulation`):
//!
//! * `reactor`  — real loopback sockets, the epoll reactor (one event
//!   loop on the driver's thread, coalesced reads, inline writev).
//! * `sim`      — `Reactor<SimPoller>`: no sockets, seeded byte
//!   chunking, optional chaos at the frame boundary, byte-identical
//!   replay.
//!
//! Output is one JSON object split into a `stats` block (the driver's
//! `RunStats`, ledger included — identical across backends for the same
//! workload seed; `tests/net_smoke.rs` compares the two) and a
//! `transport` block (syscalls, timing — backend-specific by design).
//! `--trace-out` writes the standard telemetry JSONL on every backend,
//! so `automon trace summarize|diff` read it.

use std::time::Instant;

use automon_core::MonitorConfig;
use automon_net::reactor::ReactorCoordinatorTransport;
use automon_net::SyscallStats;
use automon_obs::Telemetry;
use automon_sim::{Simulation, Workload};
use serde::{Serialize, Value};

use crate::args::{Args, CliError, Flag};
use crate::run::{build_function, fault_plan, positive_epsilon};

/// Deterministic drifting workload shared by every backend: per-node
/// phase offsets and a slow upward drift — enough motion to exercise
/// violations, lazy syncs, and full syncs. Pure function of
/// `(seed, t, node, dim)`.
fn sample(seed: u64, t: usize, node: usize, dim: usize) -> Vec<f64> {
    let phase = (seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .wrapping_add(node as u64)
        % 997) as f64
        / 997.0;
    (0..dim)
        .map(|d| {
            let drift = t as f64 * 0.07;
            let wiggle =
                ((t as f64 + node as f64 * 1.3 + d as f64 * 0.7) * 0.9
                    + phase * std::f64::consts::TAU)
                    .sin()
                    * 0.35;
            drift + wiggle + node as f64 * 0.05
        })
        .collect()
}

fn dense_workload(seed: u64, n: usize, rounds: usize, dim: usize) -> Workload {
    let series: Vec<Vec<Vec<f64>>> = (0..n)
        .map(|i| (0..rounds).map(|t| sample(seed, t, i, dim)).collect())
        .collect();
    Workload::from_dense(&series)
}

/// Flags `automon net-smoke` reads besides [`crate::run::FAULT_FLAGS`];
/// `dispatch` rejects any other.
pub(crate) const NET_SMOKE_FLAGS: &[Flag] = &[
    ("net-backend", "B"), ("nodes", "N"), ("rounds", "R"), ("dim", "D"), ("seed", "S"),
    ("epsilon", "E"), ("function", "NAME"), ("trace-out", "FILE"),
];

/// Run `net-smoke` per the parsed arguments.
pub fn run_net_smoke(args: &Args) -> Result<String, CliError> {
    let backend = args.get("net-backend").unwrap_or("reactor");
    let n: usize = args.num("nodes", 4usize)?;
    let rounds: usize = args.num("rounds", 60usize)?;
    let dim: usize = args.num("dim", 2usize)?;
    let seed: u64 = args.num("seed", 1u64)?;
    let epsilon = positive_epsilon(args, 0.4)?;
    let fname = args.get("function").unwrap_or("inner-product");
    if n == 0 || rounds == 0 {
        return Err(CliError::new("--nodes and --rounds must be positive"));
    }
    let f = build_function(fname, dim, "--dim")?;
    let cfg = MonitorConfig::builder(epsilon).build();

    // Telemetry goes to the driver and its protocol endpoints only, so the
    // trace is byte-identical across backends.
    let tel = match args.get("trace-out") {
        Some(_) => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    let mut sim = Simulation::new(f, cfg).with_telemetry(tel.clone());
    if let Some(plan) = fault_plan(args, seed)? {
        sim = sim.with_plan(plan);
    }
    let sim = match backend {
        "sim" => sim.with_net_seed(seed),
        "reactor" => sim.over_sockets::<ReactorCoordinatorTransport>(),
        other => {
            return Err(CliError::new(format!(
                "unknown --net-backend `{other}` (reactor | sim)"
            )))
        }
    };
    // Faults inject at the simulated frame boundary, not on real sockets:
    // the socket link refuses any.
    sim.check_plan(n).map_err(CliError::new)?;
    let started = Instant::now();
    let report = sim.run_report(&dense_workload(seed, n, rounds, dim));
    let elapsed = started.elapsed();

    if let Some(path) = args.get("trace-out") {
        tel.write_trace(std::path::Path::new(path))
            .map_err(|e| CliError::new(format!("writing {path}: {e}")))?;
    }
    if let Some(stage) = &report.failure {
        return Err(CliError::new(format!(
            "{backend} transport failed at {stage}"
        )));
    }
    if !report.quiesced {
        return Err(CliError::new(
            "protocol failed to quiesce inside the recovery budget",
        ));
    }
    let net = report
        .transport
        .expect("every net-smoke link reports its transport");

    let mut transport = vec![
        ("backend", Value::Str(backend.to_string())),
        ("syscalls", syscalls_json(&net.syscalls)),
    ];
    if backend == "sim" {
        // No elapsed_ms: the sim backend's output is part of the
        // determinism contract — wall time would break byte-identity
        // between same-seed runs.
        transport.extend([
            ("frames_in", Value::UInt(net.traffic.frames_in)),
            ("frames_out", Value::UInt(net.traffic.frames_out)),
            ("bytes_in", Value::UInt(net.traffic.bytes_in)),
            ("bytes_out", Value::UInt(net.traffic.bytes_out)),
            ("injected_faults", Value::UInt(net.faults.injected())),
        ]);
    } else {
        transport.push(("elapsed_ms", Value::UInt(elapsed.as_millis() as u64)));
    }
    let out = obj(vec![
        ("stats", report.stats.to_value()),
        ("transport", obj(transport)),
    ]);
    serde_json::to_string(&out).map_err(|e| CliError::new(format!("JSON encoding failed: {e}")))
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn syscalls_json(s: &SyscallStats) -> Value {
    obj(vec![
        ("waits", Value::UInt(s.waits)),
        ("reads", Value::UInt(s.reads)),
        ("writevs", Value::UInt(s.writevs)),
        ("accepts", Value::UInt(s.accepts)),
        ("total", Value::UInt(s.total())),
    ])
}

#[cfg(test)]
mod tests {
    use crate::testkit::{cli, with};

    /// `tests/net_smoke.rs`'s workload on `backend`, plus `extra` flags.
    fn smoke(backend: &str, extra: &[&str]) -> Result<String, crate::CliError> {
        let base = [
            "net-smoke", "--nodes", "4", "--rounds", "40", "--dim", "2", "--seed", "3",
            "--net-backend", backend,
        ];
        cli(&with(&base, extra))
    }

    #[test]
    fn sockets_refuse_frame_faults_and_a_delay_bound_needs_a_rate() {
        for flags in [
            &["--drop-rate", "0.1"][..],
            &["--delay-rate", "0.1", "--max-delay-rounds", "2"][..],
        ] {
            let err = smoke("reactor", flags).unwrap_err().to_string();
            assert_eq!(
                err, "the socket link does not run frame faults (it runs no faults)",
                "{flags:?}"
            );
        }
        // The whole fault group parses here; the link says what it runs.
        assert_eq!(
            smoke("sim", &["--crash-node", "1:5"]).unwrap_err().to_string(),
            "the sim-reactor link does not run node crashes \
             (it runs frame faults, coordinator crashes)"
        );
        let err = smoke("sim", &["--max-delay-rounds", "2"]).unwrap_err();
        assert!(err.to_string().contains("requires --delay-rate"), "{err}");
        smoke("sim", &["--max-delay-rounds", "2", "--delay-rate", "0.05"]).unwrap();
    }
}
