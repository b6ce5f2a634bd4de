//! `automon net-smoke` — drive the monitoring protocol over a real
//! network transport and report protocol outcome + transport cost.
//!
//! Three backends behind `--net-backend`:
//!
//! * `threaded` — the blocking TCP transport (reader thread per node).
//! * `reactor`  — the epoll reactor (single event-loop thread,
//!   coalesced reads, writev batching).
//! * `sim`      — `Reactor<SimPoller>`: no sockets, seeded byte
//!   chunking, optional chaos at the frame boundary, byte-identical
//!   replay (`--trace-out` writes the standard telemetry JSONL, so
//!   `automon trace summarize|diff` read it).
//!
//! Output is one JSON object split into a `stats` block (protocol
//! outcome — identical across backends for the same workload seed; CI
//! diffs it between `threaded` and `reactor`) and a `transport` block
//! (syscalls, timing — backend-specific by design).
//!
//! The socket drivers serialize rounds node-by-node and handle
//! same-sync replies in node-id order, so the protocol's decision
//! sequence depends only on the workload — never on socket scheduling.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use automon_chaos::FaultPlan;
use automon_core::{Coordinator, MonitorConfig, MonitoredFunction, Node, NodeMessage, Outbound};
use automon_linalg::vector;
use automon_net::reactor::ReactorCoordinatorTransport;
use automon_net::tcp::{TcpCoordinatorTransport, TcpNodeTransport};
use automon_net::SyscallStats;
use automon_obs::Telemetry;
use automon_sim::{Simulation, Workload};
use serde::{Serialize, Value};

use crate::args::{Args, CliError};
use crate::run::build_function;

/// Per-resolution deadline on the socket paths: a wedged sync is a bug,
/// not something to wait out.
const RESOLVE_DEADLINE: Duration = Duration::from_secs(20);

/// How long a node worker waits on its socket between looks at its
/// command channel: the latency of a command that arrives while the
/// worker is idle, and the only timer in its loop.
const COMMAND_POLL: Duration = Duration::from_millis(1);

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

/// One abstraction over the two socket-backed coordinator transports so
/// the lockstep driver below is written once.
enum CoordTransport {
    Threaded(TcpCoordinatorTransport),
    Reactor(ReactorCoordinatorTransport),
}

impl CoordTransport {
    fn recv_timeout(&self, d: Duration) -> Option<NodeMessage> {
        match self {
            CoordTransport::Threaded(t) => t.recv_timeout(d),
            CoordTransport::Reactor(t) => t.recv_timeout(d),
        }
    }

    fn send(&self, out: &Outbound) -> Result<(), automon_net::tcp::TcpError> {
        match self {
            CoordTransport::Threaded(t) => t.send(out),
            CoordTransport::Reactor(t) => t.send(out),
        }
    }

    fn syscalls(&self) -> SyscallStats {
        match self {
            CoordTransport::Threaded(t) => t.syscall_stats(),
            CoordTransport::Reactor(t) => t.syscall_stats(),
        }
    }
}

enum Cmd {
    Update(Vec<f64>),
    /// Drain the socket until `target` coordinator frames have been
    /// consumed since connect, then ack — the causal barrier that makes
    /// the next update see every constraint install already sent.
    Sync(usize),
    Shutdown,
}

/// Wait up to `wait` for one coordinator frame and serve it; `false`
/// when none came or the connection is gone.
fn serve_one(tp: &mut TcpNodeTransport, node: &mut Node, wait: Duration) -> bool {
    let Ok(Some(cm)) = tp.recv_timeout(wait) else {
        return false;
    };
    if let Some(reply) = node.handle(cm) {
        let _ = tp.send(&reply);
    }
    true
}

/// Flags `automon net-smoke` reads; `dispatch` rejects any other.
pub(crate) const NET_SMOKE_FLAGS: &[&str] = &[
    "net-backend", "nodes", "rounds", "dim", "seed", "epsilon", "function", "chaos-seed",
    "drop-rate", "duplicate-rate", "reorder-rate", "delay-rate", "max-delay-rounds", "trace-out",
];

/// Run `net-smoke` per the parsed arguments.
pub fn run_net_smoke(args: &Args) -> Result<String, CliError> {
    let backend = args.get("net-backend").unwrap_or("reactor");
    let n: usize = args.num("nodes", 4usize)?;
    let rounds: usize = args.num("rounds", 60usize)?;
    let dim: usize = args.num("dim", 2usize)?;
    let seed: u64 = args.num("seed", 1u64)?;
    let epsilon: f64 = args.num("epsilon", 0.4f64)?;
    let fname = args.get("function").unwrap_or("inner-product");
    if n == 0 || rounds == 0 {
        return Err(CliError::new("--nodes and --rounds must be positive"));
    }
    let f = build_function(fname, dim)?;
    let cfg = MonitorConfig::builder(epsilon).build();

    let chaotic = args.get("chaos-seed").is_some()
        || ["drop-rate", "duplicate-rate", "reorder-rate", "delay-rate"]
            .iter()
            .any(|k| args.get(k).is_some());

    match backend {
        "sim" => run_sim_backend(args, f, cfg, seed, n, rounds, dim),
        "threaded" | "reactor" => {
            if chaotic {
                return Err(CliError::new(
                    "chaos flags need --net-backend sim (faults inject at the \
                     simulated frame boundary, not on real sockets)",
                ));
            }
            run_socket_backend(backend, f, cfg, seed, n, rounds, dim)
        }
        other => Err(CliError::new(format!(
            "unknown --net-backend `{other}` (threaded | reactor | sim)"
        ))),
    }
}

fn run_sim_backend(
    args: &Args,
    f: Arc<dyn MonitoredFunction>,
    cfg: MonitorConfig,
    seed: u64,
    n: usize,
    rounds: usize,
    dim: usize,
) -> Result<String, CliError> {
    let mut plan = FaultPlan::seeded(args.num("chaos-seed", seed)?);
    plan = plan
        .with_drop_rate(args.num("drop-rate", 0.0f64)?)
        .with_duplicate_rate(args.num("duplicate-rate", 0.0f64)?)
        .with_reorder_rate(args.num("reorder-rate", 0.0f64)?);
    let delay: f64 = args.num("delay-rate", 0.0f64)?;
    if delay > 0.0 {
        plan = plan.with_delay(delay, args.num("max-delay-rounds", 3usize)?);
    }

    let w = dense_workload(seed, n, rounds, dim);
    let tel = match args.get("trace-out") {
        Some(_) => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    let report = Simulation::new(f, cfg)
        .with_plan(plan)
        .with_net_seed(seed)
        .with_telemetry(tel.clone())
        .run_report(&w);
    let net = report
        .transport
        .expect("the reactor link reports its transport");

    if let Some(path) = args.get("trace-out") {
        tel.write_trace(std::path::Path::new(path))
            .map_err(|e| CliError::new(format!("writing {path}: {e}")))?;
    }
    if !report.quiesced {
        return Err(CliError::new(
            "protocol failed to quiesce inside the recovery budget",
        ));
    }

    let out = obj(vec![
        ("stats", report.stats.to_value()),
        (
            "transport",
            obj(vec![
                ("backend", Value::Str("sim".to_string())),
                ("syscalls", syscalls_json(&net.syscalls)),
                ("frames_in", Value::UInt(net.traffic.frames_in)),
                ("frames_out", Value::UInt(net.traffic.frames_out)),
                ("bytes_in", Value::UInt(net.traffic.bytes_in)),
                ("bytes_out", Value::UInt(net.traffic.bytes_out)),
                ("injected_faults", Value::UInt(net.faults.injected())),
                // No elapsed_ms: the sim backend's output is part of the
                // determinism contract — wall time would break
                // byte-identity between same-seed runs.
            ]),
        ),
    ]);
    serde_json::to_string(&out).map_err(|e| CliError::new(format!("JSON encoding failed: {e}")))
}

fn run_socket_backend(
    backend: &str,
    f: Arc<dyn MonitoredFunction>,
    cfg: MonitorConfig,
    seed: u64,
    n: usize,
    rounds: usize,
    dim: usize,
) -> Result<String, CliError> {
    // Pick a free port, then bind the coordinator transport while the
    // node workers dial it (their connect path retries with backoff).
    let probe = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| CliError::new(format!("binding probe socket: {e}")))?;
    let addr: SocketAddr = probe
        .local_addr()
        .map_err(|e| CliError::new(format!("probe addr: {e}")))?;
    drop(probe);

    let binder = {
        let backend = backend.to_string();
        std::thread::spawn(move || -> Result<CoordTransport, String> {
            match backend.as_str() {
                "threaded" => TcpCoordinatorTransport::bind(addr, n)
                    .map(|(t, _)| CoordTransport::Threaded(t))
                    .map_err(|e| e.to_string()),
                _ => ReactorCoordinatorTransport::bind(addr, n)
                    .map(|(t, _)| CoordTransport::Reactor(t))
                    .map_err(|e| e.to_string()),
            }
        })
    };

    // Node workers: apply pushed updates, answer pulls, ack each round.
    let mut cmd_txs = Vec::with_capacity(n);
    let (ack_tx, ack_rx) = mpsc::channel::<(usize, bool)>();
    let mut workers = Vec::with_capacity(n);
    for i in 0..n {
        let (tx, rx) = mpsc::channel::<Cmd>();
        cmd_txs.push(tx);
        let ack = ack_tx.clone();
        let f = f.clone();
        workers.push(std::thread::spawn(move || {
            let mut tp = match TcpNodeTransport::connect(addr, i) {
                Ok(tp) => tp,
                Err(e) => {
                    eprintln!("node {i}: connect failed: {e}");
                    return;
                }
            };
            let mut node = Node::new(i, f);
            let mut seen = 0usize;
            loop {
                match rx.try_recv() {
                    Ok(Cmd::Update(x)) => {
                        let report = node.update_data(x);
                        let violated = report.is_some();
                        if let Some(m) = report {
                            let _ = tp.send(&m);
                        }
                        let _ = ack.send((i, violated));
                    }
                    Ok(Cmd::Sync(target)) => {
                        // The frames are already on their way: wait for
                        // them on the socket. No ack if they never come —
                        // the driver's own deadline reports that.
                        while seen < target {
                            if !serve_one(&mut tp, &mut node, RESOLVE_DEADLINE) {
                                return;
                            }
                            seen += 1;
                        }
                        let _ = ack.send((i, false));
                    }
                    Ok(Cmd::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => return,
                    // Idle: sleep on the socket, where sync traffic for
                    // another node's violation shows up, and look at the
                    // command channel again after at most COMMAND_POLL.
                    Err(mpsc::TryRecvError::Empty) => {
                        seen += usize::from(serve_one(&mut tp, &mut node, COMMAND_POLL));
                    }
                }
            }
        }));
    }
    drop(ack_tx);

    let tp = binder
        .join()
        .map_err(|_| CliError::new("coordinator bind thread panicked"))?
        .map_err(|e| CliError::new(format!("binding {backend} transport: {e}")))?;

    let mut coord = Coordinator::new(f.clone(), n, cfg);
    let mut messages = 0usize;
    let mut current: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut errors = Vec::with_capacity(rounds);
    let started = Instant::now();
    let mut reports = 0usize;
    let mut sent_to = vec![0usize; n];

    let result: Result<(), CliError> = (|| {
        for t in 0..rounds {
            for i in 0..n {
                // Barrier: node i must have consumed every frame the
                // coordinator has sent it before producing its next
                // update, or the update races the constraint install and
                // the protocol's decision sequence depends on socket
                // timing instead of the workload.
                cmd_txs[i]
                    .send(Cmd::Sync(sent_to[i]))
                    .map_err(|_| CliError::new(format!("node {i} worker died")))?;
                ack_rx
                    .recv_timeout(RESOLVE_DEADLINE)
                    .map_err(|_| CliError::new(format!("node {i}: no sync ack")))?;
                let x = sample(seed, t, i, dim);
                current[i] = Some(x.clone());
                cmd_txs[i]
                    .send(Cmd::Update(x))
                    .map_err(|_| CliError::new(format!("node {i} worker died")))?;
                let (_, violated) = ack_rx
                    .recv_timeout(RESOLVE_DEADLINE)
                    .map_err(|_| CliError::new(format!("node {i}: no round ack")))?;
                if violated {
                    reports += 1;
                    resolve(&tp, &mut coord, &mut messages, &mut sent_to)?;
                }
            }
            if current.iter().all(Option::is_some) {
                if let Some(est) = coord.current_value() {
                    let xs: Vec<Vec<f64>> =
                        current.iter().map(|x| x.clone().expect("present")).collect();
                    let truth = f.eval(&vector::mean(&xs).expect("n > 0"));
                    errors.push((est - truth).abs());
                }
            }
        }
        Ok(())
    })();

    let elapsed = started.elapsed();
    for tx in &cmd_txs {
        let _ = tx.send(Cmd::Shutdown);
    }
    for w in workers {
        let _ = w.join();
    }
    result?;

    let st = coord.stats();
    let syscalls = tp.syscalls();
    let max_error = errors.iter().cloned().fold(0.0f64, f64::max);
    let mean_error = if errors.is_empty() {
        0.0
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    };
    let out = obj(vec![
        (
            "stats",
            obj(vec![
                ("nodes", Value::UInt(n as u64)),
                ("rounds", Value::UInt(rounds as u64)),
                ("messages", Value::UInt(messages as u64)),
                ("reports", Value::UInt(reports as u64)),
                (
                    "neighborhood_violations",
                    Value::UInt(st.neighborhood_violations as u64),
                ),
                (
                    "safezone_violations",
                    Value::UInt(st.safezone_violations as u64),
                ),
                ("full_syncs", Value::UInt(st.full_syncs as u64)),
                ("lazy_syncs", Value::UInt(st.lazy_syncs as u64)),
                ("max_error", Value::Str(format!("{max_error:.12e}"))),
                ("mean_error", Value::Str(format!("{mean_error:.12e}"))),
            ]),
        ),
        (
            "transport",
            obj(vec![
                ("backend", Value::Str(backend.to_string())),
                ("syscalls", syscalls_json(&syscalls)),
                (
                    "syscalls_per_report",
                    Value::F64(if reports > 0 {
                        syscalls.total() as f64 / reports as f64
                    } else {
                        0.0
                    }),
                ),
                ("elapsed_ms", Value::UInt(elapsed.as_millis() as u64)),
            ]),
        ),
    ]);
    serde_json::to_string(&out).map_err(|e| CliError::new(format!("JSON encoding failed: {e}")))
}

/// Pump the transport until the coordinator's sync resolves, handling
/// same-sync replies in node-id order so the decision sequence is
/// independent of socket arrival order.
fn resolve(
    tp: &CoordTransport,
    coord: &mut Coordinator,
    messages: &mut usize,
    sent_to: &mut [usize],
) -> Result<(), CliError> {
    let deadline = Instant::now() + RESOLVE_DEADLINE;
    // First frame: the violation report itself.
    loop {
        if Instant::now() > deadline {
            return Err(CliError::new("timed out waiting for a violation report"));
        }
        let Some(m) = tp.recv_timeout(Duration::from_millis(100)) else {
            continue;
        };
        *messages += 1;
        for out in coord.handle(m) {
            *messages += 1;
            sent_to[out.to] += 1;
            tp.send(&out)
                .map_err(|e| CliError::new(format!("send failed: {e}")))?;
        }
        break;
    }
    while coord.is_resolving() {
        if Instant::now() > deadline {
            return Err(CliError::new("sync failed to resolve before deadline"));
        }
        let expect: HashSet<usize> = coord
            .outstanding_requests()
            .iter()
            .map(|o| o.to)
            .collect();
        let mut buf: Vec<NodeMessage> = Vec::with_capacity(expect.len());
        while buf.len() < expect.len() {
            if Instant::now() > deadline {
                return Err(CliError::new("sync replies missing before deadline"));
            }
            let Some(m) = tp.recv_timeout(Duration::from_millis(100)) else {
                continue;
            };
            *messages += 1;
            if expect.contains(&m.sender()) {
                buf.push(m);
            } else {
                // Not part of this sync (e.g. a straggler): hand it to
                // the coordinator immediately.
                for out in coord.handle(m) {
                    *messages += 1;
                    sent_to[out.to] += 1;
                    tp.send(&out)
                        .map_err(|e| CliError::new(format!("send failed: {e}")))?;
                }
            }
        }
        buf.sort_by_key(NodeMessage::sender);
        for m in buf {
            for out in coord.handle(m) {
                *messages += 1;
                sent_to[out.to] += 1;
                tp.send(&out)
                    .map_err(|e| CliError::new(format!("send failed: {e}")))?;
            }
        }
    }
    Ok(())
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
