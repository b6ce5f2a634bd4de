//! Link parity: the round driver must not be able to tell its transports
//! apart when nothing goes wrong. The same workload over the bare fabric,
//! the fault-injecting fabric under `FaultPlan::none()`, the fault-free
//! reactor link, and real loopback sockets behind either coordinator
//! transport must produce the *whole* `RunStats` (traffic totals and the
//! per-cause ledger included) and a byte-identical telemetry trace.
//! Every link charges delivered frames through the same
//! `account_up`/`account_down`, so a link that counts a frame twice, or
//! not at all, fails here. When a socket transport breaks, the run must
//! end with the failing stage named instead of hanging or panicking.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_chaos::FaultPlan;
use automon_core::{MonitorConfig, MonitoredFunction, NodeMessage, Outbound};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_functions::InnerProduct;
use automon_net::reactor::ReactorCoordinatorTransport;
use automon_net::tcp::{TcpCoordinatorTransport, TcpError};
use automon_net::{CoordinatorTransport, SyscallStats};
use automon_obs::{SpanId, Telemetry};
use automon_sim::{RunReport, Simulation, Workload};

struct Mean1;
impl ScalarFn for Mean1 {
    fn dim(&self) -> usize {
        1
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0]
    }
}

type Case = (&'static str, Arc<dyn MonitoredFunction>, f64, Workload);

fn cases() -> Vec<Case> {
    // The paper's synthetic inner-product workload …
    let (nodes, rounds, dim, seed) = (4, 120, 4, 42);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, seed);
    let inner_product = Workload::from_dense(&windowed_mean_series(&raw, 20));
    // … and a drifting series with per-node phase offsets: enough motion
    // to trigger violations, lazy syncs, and full syncs.
    let series: Vec<Vec<Vec<f64>>> = (0..4)
        .map(|i| {
            (0..80)
                .map(|t| {
                    let drift = t as f64 * 0.07;
                    let wiggle = ((t + i) as f64 * 0.9).sin() * 0.35;
                    vec![drift + wiggle + i as f64 * 0.05]
                })
                .collect()
        })
        .collect();
    vec![
        (
            "inner-product",
            Arc::new(AutoDiffFn::new(InnerProduct::new(dim))),
            0.2,
            inner_product,
        ),
        (
            "drifting mean",
            Arc::new(AutoDiffFn::new(Mean1)),
            0.4,
            Workload::from_dense(&series),
        ),
    ]
}

type OnLink = fn(Simulation) -> Simulation;

/// The five links, by what the caller supplies to select them.
const LINKS: [(&str, OnLink); 5] = [
    ("bare fabric", |sim| sim),
    ("none-plan chaos fabric", |sim| {
        sim.with_plan(FaultPlan::none())
    }),
    ("fault-free reactor", |sim| sim.with_net_seed(3)),
    ("threaded sockets", |sim| {
        sim.over_sockets::<TcpCoordinatorTransport>()
    }),
    ("reactor sockets", |sim| {
        sim.over_sockets::<ReactorCoordinatorTransport>()
    }),
];

fn run(case: &Case, on_link: OnLink, tel: Telemetry) -> RunReport {
    let (_, f, eps, w) = case;
    let cfg = MonitorConfig::builder(*eps).build();
    on_link(Simulation::new(f.clone(), cfg))
        .with_telemetry(tel)
        .run_report(w)
}

#[test]
fn every_link_gives_the_same_stats_ledger_and_trace() {
    for case in cases() {
        let name = case.0;
        let tel = Telemetry::enabled();
        let reference = run(&case, LINKS[0].1, tel.clone());
        let reference_trace = tel.trace_jsonl();
        assert!(
            reference.stats.full_syncs > 0 && reference.stats.lazy_syncs > 0,
            "{name}"
        );
        assert!(reference
            .stats
            .ledger
            .as_deref()
            .is_some_and(|l| l.len() > 1));
        assert!(reference_trace.contains("\"kind\":\"comm\""));

        for (link, on_link) in LINKS {
            let tel = Telemetry::enabled();
            let got = run(&case, on_link, tel.clone());
            let at = format!("{name} over {link}");
            assert_eq!(got.transport_failure, None, "{at}");
            assert!(got.quiesced, "{at}");
            assert!(got.fault_trace.is_empty(), "{at}");
            assert_eq!(got.stats, reference.stats, "{at}: RunStats diverged");
            let fabric = link == LINKS[0].0 || link == LINKS[1].0;
            assert_eq!(got.transport.is_some(), !fabric, "{at}");
            if let Some(line) = first_difference(&tel.trace_jsonl(), &reference_trace) {
                panic!("{at}: telemetry trace diverged at {line}");
            }
        }
    }
}

/// Instrumentation must not perturb the protocol on any link.
#[test]
fn telemetry_does_not_perturb_the_protocol() {
    for case in cases() {
        for (link, on_link) in LINKS {
            let mut bare = run(&case, on_link, Telemetry::disabled());
            let mut observed = run(&case, on_link, Telemetry::enabled());
            // Real syscall counts depend on how the kernel batched reads.
            if link.ends_with("sockets") {
                (bare.transport, observed.transport) = (None, None);
            }
            assert_eq!(observed, bare, "{} over {link}", case.0);
        }
    }
}

/// Calls to [`Deaf::recv_timeout_traced`] / [`Deaf::send`], process-wide:
/// only `a_missed_deadline_ends_the_run_with_the_stage_named` uses `Deaf`.
static DEAF_RECVS: AtomicUsize = AtomicUsize::new(0);
static DEAF_SENDS: AtomicUsize = AtomicUsize::new(0);

/// A coordinator end whose listener takes every connection (the kernel
/// completes the handshakes from its backlog, so the nodes' connects and
/// sends succeed) and never yields a frame: each receive is a missed
/// deadline, reported at once instead of after the real wait.
struct Deaf {
    _listener: TcpListener,
}

impl CoordinatorTransport for Deaf {
    fn bind(addr: SocketAddr, _n: usize, _hello: Option<Duration>) -> Result<Self, TcpError> {
        Ok(Self {
            _listener: TcpListener::bind(addr)?,
        })
    }
    fn recv_timeout_traced(&self, _timeout: Duration) -> Option<(SpanId, NodeMessage)> {
        DEAF_RECVS.fetch_add(1, Ordering::Relaxed);
        None
    }
    fn send(&self, _out: &Outbound) -> Result<(), TcpError> {
        DEAF_SENDS.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn syscall_stats(&self) -> SyscallStats {
        SyscallStats::default()
    }
}

#[test]
fn a_missed_deadline_ends_the_run_with_the_stage_named() {
    let case = &cases()[1];
    let got = run(
        case,
        |sim| sim.over_sockets::<Deaf>(),
        Telemetry::disabled(),
    );
    let failure = got.transport_failure.as_deref().expect("the link latched");
    assert!(
        failure.contains("coordinator receive") && failure.contains("node 0"),
        "{failure}"
    );
    assert!(!got.quiesced);
    assert_eq!(got.transport, None);
    // Node 0's registration is the one frame that left; the run neither
    // waited for another nor sent anything after the deadline passed.
    assert_eq!(DEAF_RECVS.load(Ordering::Relaxed), 1);
    assert_eq!(DEAF_SENDS.load(Ordering::Relaxed), 0);
    assert_eq!(got.stats.messages, 0, "an undelivered frame is not charged");
}

/// `Some("line N: left | right")` at the first differing line.
fn first_difference(left: &str, right: &str) -> Option<String> {
    if left == right {
        return None;
    }
    let (mut l, mut r) = (left.lines(), right.lines());
    for n in 1.. {
        match (l.next(), r.next()) {
            (a, b) if a == b && a.is_some() => continue,
            (a, b) => return Some(format!("line {n}:\n  {a:?}\n  {b:?}")),
        }
    }
    None
}
