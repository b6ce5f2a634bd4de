//! The repository's benchmark: five named workloads, six end-to-end
//! metrics, per-layer attribution from outside. See README.md beside
//! Cargo.toml and /BENCHMARK.json.

mod fleet;
mod host;
mod inputs;
mod layers;
mod link;
mod metrics;
mod pass;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use host::Pin;
use metrics::{Better, END_TO_END};
use run::{Report, Settings};
use workload::{Scale, WORKLOADS};

/// Seconds one run measures; `/BENCHMARK.json` says the same.
pub const RUN_SECONDS: u64 = 20;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                 [--trace-out FILE] [--sets K] [--smoke]

  --workload NAME   run one workload and print one result line (the driver's
                    mode); without it every workload runs, in order
  --seed N          input seed (default 1)
  --seconds S       time budget of the measured passes per workload
  --trace [0|1]     1 (or bare): per-layer metrics from traced passes;
                    0: end-to-end metrics, untraced (default)
  --trace-out FILE  append the traced passes' spans to FILE as JSONL
  --sets K          run K full sets back to back; with K >= 2 print each
                    end-to-end metric's relative difference beside its bound
                    and fail if any exceeds it
  --smoke           tiny sizes of all five workloads, untraced and traced,
                    in a few seconds; checks only, publishes no numbers
workloads: wire_drift wire_quiet kld_fullsync ip_nodecheck fleet_variance";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    sets: usize,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        sets: 1,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--sets" => {
                cli.sets = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if !(1..=8).contains(&cli.sets) {
                    return Err("--sets must be between 1 and 8".into());
                }
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(cli)
}

/// A directory inside the checkout for files the run writes and removes.
fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join(format!("benchmark-scratch-{}", std::process::id()))
}

fn header(pin: &Pin, cli: &Cli) -> String {
    format!(
        "{{\"benchmark\": \"automon\", \"nproc\": {}, \"pinned_cpu\": {}, \"uname\": \"{}\", \"seed\": {}, \
         \"seconds_per_workload\": {}, \"trace\": {}, \"transport\": \"host loopback only: link rates and WAN latency are not measured\"}}",
        pin.nproc,
        pin.cpu.map_or("null".to_string(), |c| c.to_string()),
        host::uname(),
        cli.seed,
        cli.seconds,
        cli.trace,
    )
}

fn print_report(r: &Report) {
    println!("{}", r.guard_json());
    for note in &r.notes {
        println!("note: {note}");
    }
    for problem in &r.problems {
        println!("INCORRECT: {}: {problem}", r.workload);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pin = Pin::to_one_cpu();
    let scratch = scratch_dir();
    let settings = |scale: Scale, seconds: f64| Settings {
        seed: cli.seed,
        seconds,
        scale,
        scratch: scratch.clone(),
        trace_out: cli.trace_out.clone(),
    };
    let ok = if cli.smoke {
        smoke(&settings(Scale::Smoke, 0.0), &pin)
    } else if let Some(name) = &cli.workload {
        one(name, &settings(Scale::Full, cli.seconds), &pin, &cli)
    } else {
        suite(&settings(Scale::Full, cli.seconds), &pin, &cli)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn measure(name: &str, s: &Settings, pin: &Pin, trace: bool) -> Report {
    if trace {
        run::traced(name, s, pin)
    } else {
        run::untraced(name, s)
    }
}

/// The driver's mode: one workload, the result object on the last line.
fn one(name: &str, s: &Settings, pin: &Pin, cli: &Cli) -> bool {
    println!("{}", header(pin, cli));
    let report = measure(name, s, pin, cli.trace);
    print_report(&report);
    println!("{}", report.contract_json());
    report.correct()
}

/// Every workload from one process, `--sets` times over.
fn suite(s: &Settings, pin: &Pin, cli: &Cli) -> bool {
    println!("{}", header(pin, cli));
    let mut ok = true;
    let mut sets: Vec<Vec<Report>> = Vec::new();
    for set in 0..cli.sets {
        let started = Instant::now();
        let mut reports = Vec::new();
        for (name, _) in WORKLOADS {
            let report = measure(name, s, pin, cli.trace);
            print_report(&report);
            println!(
                "{{\"set\": {set}, \"workload\": \"{name}\", \"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"metrics\": {}}}",
                report.correct(),
                report.attempted,
                report.failed,
                report.values.to_json()
            );
            ok &= report.correct();
            reports.push(report);
        }
        println!(
            "{{\"set\": {set}, \"seconds\": {:.1}}}",
            started.elapsed().as_secs_f64()
        );
        sets.push(reports);
    }
    if !cli.trace {
        for pair in sets.windows(2) {
            ok &= agree(&pair[0], &pair[1]);
        }
    }
    ok
}

/// Self-agreement: how far two sets of the same code differ, per
/// end-to-end metric and workload, beside the bound that a regression is
/// judged by. A difference in the worse direction beyond the bound fails.
fn agree(first: &[Report], second: &[Report]) -> bool {
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (x, y) = (a.values.get(m.name), b.values.get(m.name));
            let diff = stats::rel_diff(x, y);
            let worse = match m.better {
                Better::Higher => y < x,
                Better::Lower => y > x,
            };
            let within = !(worse && diff > m.bound);
            println!(
                "{{\"agreement\": \"{}\", \"metric\": \"{}\", \"first\": {}, \"second\": {}, \"rel_diff\": {:.4}, \"bound\": {}, \"within\": {within}}}",
                a.workload,
                m.name,
                metrics::json_number(x),
                metrics::json_number(y),
                diff,
                m.bound
            );
            ok &= within;
        }
    }
    ok
}

/// The fast self-test: every workload at toy size through both paths.
fn smoke(s: &Settings, pin: &Pin) -> bool {
    let started = Instant::now();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            let report = measure(name, s, pin, trace);
            for problem in &report.problems {
                println!("INCORRECT: {name} (trace {trace}): {problem}");
            }
            ok &= report.correct();
        }
    }
    println!(
        "smoke {} in {:.1} s (toy sizes: no numbers published)",
        if ok { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    ok
}
