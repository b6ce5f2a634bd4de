//! AutoMon over real TCP sockets on localhost — the closest in-repo
//! equivalent of the paper's ZeroMQ deployment (§4.7), with every frame
//! crossing an actual socket through the binary wire codec.
//!
//! The coordinator thread owns a `ReactorCoordinatorTransport` (an epoll
//! event loop it runs itself, inside `recv_timeout` and `send`); each node
//! thread dials in with a `TcpNodeTransport`, monitors a drifting local
//! vector, and serves sync traffic. Swap the localhost address for a
//! real one and the same code runs across machines.
//!
//! The node loop is the paper's (Algorithm 1, §3.8): until the next
//! sample is due, wait on the socket and apply what arrives
//! (`message_received`), then `update_data`. The wait is
//! `recv_timeout`; `try_recv` is for a loop that is paced by something
//! else and only wants to drain.
//!
//! Run with: `cargo run --release --example tcp_deployment`

use automon::net::reactor::ReactorCoordinatorTransport;
use automon::net::tcp::TcpNodeTransport;
use automon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each node's sampling period.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// Apply coordinator traffic until `until`, sleeping on the socket in
/// between.
fn serve_until(tp: &mut TcpNodeTransport, node: &mut Node, until: Instant) {
    loop {
        let left = until.saturating_duration_since(Instant::now());
        match tp.recv_timeout(left) {
            Ok(Some(msg)) => {
                if let Some(reply) = node.handle(msg) {
                    tp.send(&reply).expect("send reply");
                }
            }
            Ok(None) => return,
            Err(e) => panic!("coordinator connection lost: {e}"),
        }
    }
}

struct Energy;
impl ScalarFn for Energy {
    fn dim(&self) -> usize {
        3
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        // Mean "energy" of three sensor channels.
        (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) * S::from_f64(1.0 / 3.0)
    }
}

fn main() {
    let n = 4;
    let rounds = 400;
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Energy));

    // Pick a free port, then bind the coordinator on it in a thread
    // (bind+accept blocks until every node dials in).
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);

    let coord_f = f.clone();
    let coordinator = std::thread::spawn(move || {
        let (tp, _) = ReactorCoordinatorTransport::bind(addr, n).expect("bind");
        let mut coord = Coordinator::new(coord_f, n, MonitorConfig::builder(0.05).build());
        let mut upstream = 0usize;
        while let Some(msg) = tp.recv_timeout(Duration::from_secs(3)) {
            upstream += 1;
            for out in coord.handle(msg) {
                if tp.send(&out).is_err() {
                    break;
                }
            }
        }
        println!(
            "coordinator: {} upstream frames, estimate {:?}, {} full / {} lazy syncs",
            upstream,
            coord.current_value(),
            coord.stats().full_syncs,
            coord.stats().lazy_syncs
        );
        upstream
    });

    std::thread::sleep(Duration::from_millis(150));
    let mut workers = Vec::new();
    for id in 0..n {
        let f = f.clone();
        workers.push(std::thread::spawn(move || {
            let mut tp = TcpNodeTransport::connect(addr, id).expect("connect");
            let mut node = Node::new(id, f);
            for t in 0..rounds {
                serve_until(&mut tp, &mut node, Instant::now() + SAMPLE_EVERY);
                let phase = t as f64 / 120.0 + id as f64 * 0.5;
                let x = vec![phase.sin() * 0.4, phase.cos() * 0.3, 0.2];
                if let Some(report) = node.update_data(x) {
                    tp.send(&report).expect("send report");
                }
            }
            // Serve trailing sync traffic before hanging up.
            serve_until(
                &mut tp,
                &mut node,
                Instant::now() + Duration::from_millis(300),
            );
            node.current_value()
        }));
    }

    let values: Vec<Option<f64>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let upstream = coordinator.join().unwrap();
    println!("nodes' final estimates: {values:?}");
    println!(
        "{} upstream frames vs {} for centralization",
        upstream,
        n * rounds
    );
    assert!(values.iter().all(Option::is_some));
    assert!(upstream < n * rounds, "AutoMon must beat centralization");
}
