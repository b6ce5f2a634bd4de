//! Transport throughput: reports/sec and syscalls/report for the epoll
//! reactor vs a thread-per-connection baseline, at 1k and 10k concurrent
//! node connections.
//!
//! Each configuration is one timed blast of real frames over real
//! sockets, printed as `NETLINE <key> value <float>` rows. The bench
//! gates its own headline claims (DESIGN.md §3.15) and exits 1 naming
//! every gate that fails: at 1k connections the reactor holds ≥ 2.5× the
//! threaded backend's reports/sec, ≤ 0.1 syscalls/report and ≥ 3× fewer
//! syscalls/report than the threaded backend, and an idle `try_recv`
//! stays ≤ 2 µs. The claims:
//!
//! * at 1k connections the reactor sustains ~4× the threaded backend's
//!   reports/sec in wall clock and ~10× fewer syscalls per report
//!   (one event loop, run by the thread that calls `recv_timeout`,
//!   coalesces across connections; a reader thread coalesces only what
//!   its own connection holds when it wakes).
//!   Wall clock understates the gap here:
//!   the load generator shares this container's single core with the
//!   server, so identical client cost is added to both denominators;
//! * at 10k connections the reactor still runs on its caller's thread
//!   alone (the threaded backend would need 10k reader threads and is
//!   skipped).
//!
//! The threaded backend is [`ThreadPerConnection`], defined here: the
//! load generator's server side, receive-only, built from the public
//! framing API. The library's one coordinator end is the reactor.
//!
//! Two `node_transport` rows time the node side of one connection to a
//! reactor in this process: `try_recv_idle` (a poll that finds nothing
//! — the cost a node loop pays per update in the steady state) and
//! `roundtrip` (report up, pull request back down).
//!
//! Topology: the parent process hosts the coordinator transport; client
//! connections live in re-exec'd child processes (`AUTOMON_NET_CHILD`)
//! so the parent's fd budget holds 10k server-side sockets and, for the
//! threaded backend, client-side writes don't pollute the process-wide
//! syscall counters the reader threads share. Children connect, wait
//! for a go-frame on each connection, then blast; the parent times from
//! go to last-frame-received.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use automon_core::{CommCause, CoordinatorMessage, NodeMessage, Outbound, ViolationKind};
use automon_net::reactor::ReactorCoordinatorTransport;
use automon_net::tcp::{TcpError, TcpNodeTransport};
use automon_net::{poller, wire, CoordinatorTransport, FrameAssembler, OutQueue, SyscallStats};
use automon_obs::SpanId;

const CHILD_ENV: &str = "AUTOMON_NET_CHILD";
/// Client connections per child process (fd budget per child).
const CONNS_PER_CHILD: usize = 125;
const BLAST_DEADLINE: Duration = Duration::from_secs(300);

fn report(node: usize) -> NodeMessage {
    NodeMessage::Violation {
        node,
        kind: ViolationKind::SafeZone,
        local_vector: vec![0.25, -1.5],
        epoch: 1,
    }
}

/// Dial until the server's listener is up.
fn dial_retry(addr: SocketAddr) -> TcpStream {
    for _ in 0..2000 {
        if let Ok(s) = TcpStream::connect(addr) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("child: server never came up at {addr}");
}

/// Child mode: connect a contiguous range of node ids over raw sockets,
/// wait for the go-frame on each, then blast each connection's entire
/// report volley with one buffered write per connection. The load
/// generator batches deliberately — the bench measures the *server*
/// transport's capacity, so offered load must be cheap to produce on
/// this shared core; both backends face the identical client.
fn run_child(spec: &str) -> ! {
    let parts: Vec<&str> = spec.split_whitespace().collect();
    let addr: SocketAddr = parts[0].parse().expect("child addr");
    let start: usize = parts[1].parse().expect("child start");
    let count: usize = parts[2].parse().expect("child count");
    let reports: usize = parts[3].parse().expect("child reports");

    let frame_of = |id: usize| {
        let payload = wire::encode_node_message(&report(id));
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed
    };
    let mut conns: Vec<TcpStream> = (start..start + count)
        .map(|id| {
            let mut s = dial_retry(addr);
            s.set_nodelay(true).expect("nodelay");
            let hello = wire::encode_node_message(&NodeMessage::LocalVector {
                node: id,
                vector: Vec::new(),
                epoch: 0,
            });
            s.write_all(&(hello.len() as u32).to_le_bytes()).expect("hello");
            s.write_all(&hello).expect("hello");
            s
        })
        .collect();
    for s in conns.iter_mut() {
        let mut prefix = [0u8; 4];
        s.read_exact(&mut prefix).expect("go prefix");
        let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
        s.read_exact(&mut body).expect("go body");
    }
    // Interleave arrivals: each sweep writes a small batch per
    // connection, so the server sees frames from all connections
    // arriving together — the steady-state shape a monitor's report
    // traffic has, not one giant pre-buffered volley per socket.
    let per_write: usize = std::env::var("AUTOMON_NET_PER_WRITE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    let volleys: Vec<Vec<u8>> = (0..count)
        .map(|i| frame_of(start + i).repeat(per_write))
        .collect();
    let mut sent = 0usize;
    while sent < reports {
        let batch = per_write.min(reports - sent);
        for (i, s) in conns.iter_mut().enumerate() {
            let volley = &volleys[i][..batch * (volleys[i].len() / per_write)];
            s.write_all(volley).expect("blast write");
        }
        sent += batch;
    }
    // Keep the sockets open until the parent has drained everything.
    std::thread::sleep(Duration::from_secs(3600));
    unreachable!()
}

/// The baseline the reactor is gated against: a receive-only coordinator
/// end with one blocking reader thread per connection. A reader issues one
/// blocking `recv` into a [`FrameAssembler`] and hands over every frame it
/// completed before the next; a go-frame leaves in one `writev`. So it
/// counts the `recv` and `writev` calls a thread-per-connection transport
/// makes. It admits the first `n` hellos only and keeps no telemetry.
struct ThreadPerConnection {
    frames: Receiver<(SpanId, NodeMessage)>,
    /// Node `i`'s connection, for the go-frames.
    conns: Vec<TcpStream>,
    readers: Vec<JoinHandle<()>>,
    /// `recv` calls, published before the frames they fetched.
    reads: Arc<AtomicU64>,
    writevs: AtomicU64,
}

/// One reader thread's loop: every frame the last `recv` completed, then
/// one blocking `recv`, until end of stream or a frame that does not
/// decode.
fn read_frames(
    stream: TcpStream,
    mut asm: FrameAssembler,
    frames: Sender<(SpanId, NodeMessage)>,
    reads: Arc<AtomicU64>,
) {
    let mut unpublished = 0u64;
    loop {
        while let Ok(Some(frame)) = asm.next_frame_ref() {
            let Ok(decoded) = wire::decode_node_message_ctx(frame) else {
                return;
            };
            reads.fetch_add(std::mem::take(&mut unpublished), Ordering::Relaxed);
            if frames.send(decoded).is_err() {
                return;
            }
        }
        unpublished += 1;
        if !matches!(poller::recv_append(&stream, asm.recv_buf(), false), Ok(1..)) {
            return;
        }
    }
}

impl CoordinatorTransport for ThreadPerConnection {
    /// Blocks until `n` nodes said hello; the bench binds without a
    /// deadline, so `hello_timeout` is not honoured.
    fn bind(
        addr: SocketAddr,
        n: usize,
        _hello_timeout: Option<Duration>,
    ) -> Result<Self, TcpError> {
        let listener = TcpListener::bind(addr)?;
        let (tx, frames) = channel();
        let reads = Arc::new(AtomicU64::new(0));
        let mut conns: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut readers = Vec::with_capacity(n);
        while conns.iter().any(Option::is_none) {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut asm = FrameAssembler::new();
            let id = loop {
                if let Some(hello) = asm.next_frame_ref().map_err(TcpError::Wire)? {
                    break wire::decode_node_message(hello)
                        .map_err(TcpError::Wire)?
                        .sender();
                }
                if poller::recv_append(&stream, asm.recv_buf(), false)? == 0 {
                    return Err(TcpError::Disconnected);
                }
            };
            let slot = conns.get_mut(id).expect("a child dials as a node in 0..n");
            let reader = stream.try_clone()?;
            let (tx, reads) = (tx.clone(), reads.clone());
            readers.push(std::thread::spawn(move || {
                read_frames(reader, asm, tx, reads)
            }));
            *slot = Some(stream);
        }
        Ok(Self {
            frames,
            conns: conns
                .into_iter()
                .map(|c| c.expect("every node said hello"))
                .collect(),
            readers,
            reads,
            writevs: AtomicU64::new(0),
        })
    }

    fn recv_timeout_traced(&self, timeout: Duration) -> Option<(SpanId, NodeMessage)> {
        self.frames.recv_timeout(timeout).ok()
    }

    fn send(&self, out: &Outbound) -> Result<(), TcpError> {
        let mut queue = OutQueue::new(1);
        queue
            .push(wire::encode_coordinator_message_ctx(&out.msg, out.span))
            .map_err(|_| TcpError::Disconnected)?;
        while !queue.is_empty() {
            self.writevs.fetch_add(1, Ordering::Relaxed);
            if queue.flush_with(|iov| poller::write_vectored(&self.conns[out.to], iov))? == 0 {
                return Err(TcpError::Disconnected);
            }
        }
        Ok(())
    }

    fn syscall_stats(&self) -> SyscallStats {
        SyscallStats {
            reads: self.reads.load(Ordering::Relaxed),
            writevs: self.writevs.load(Ordering::Relaxed),
            ..SyscallStats::default()
        }
    }
}

impl Drop for ThreadPerConnection {
    /// Hang up every connection, which ends each reader's blocking `recv`,
    /// then join the readers.
    fn drop(&mut self) {
        for conn in &self.conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for reader in self.readers.drain(..) {
            if reader.join().is_err() {
                eprintln!("net_throughput: a reader thread panicked");
            }
        }
    }
}

struct BlastResult {
    reports_per_sec: f64,
    syscalls_per_report: f64,
    elapsed: Duration,
}

fn blast<T: CoordinatorTransport>(conns: usize, reports_per_conn: usize) -> BlastResult {
    let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);

    // Children first: their connect path retries until the server binds.
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    let mut start = 0usize;
    while start < conns {
        let count = CONNS_PER_CHILD.min(conns - start);
        let child = Command::new(&exe)
            .env(
                CHILD_ENV,
                format!("{addr} {start} {count} {reports_per_conn}"),
            )
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn child");
        children.push(child);
        start += count;
    }

    let tp = T::bind(addr, conns, None).expect("bind");

    // Hello syscalls are setup cost, not blast cost.
    let base = tp.syscall_stats();
    let total = conns * reports_per_conn;
    let started = Instant::now();
    for id in 0..conns {
        tp.send(&Outbound::new(
            id,
            CoordinatorMessage::RequestLocalVector { epoch: 1 },
            CommCause::FullSync,
        ))
        .expect("go send");
    }
    let deadline = started + BLAST_DEADLINE;
    let mut got = 0usize;
    while got < total {
        if tp.recv_timeout_traced(Duration::from_millis(500)).is_some() {
            got += 1;
            // Drain whatever else is already queued without re-arming
            // the timeout machinery per frame.
            while got < total && tp.recv_timeout_traced(Duration::ZERO).is_some() {
                got += 1;
            }
        } else {
            assert!(
                Instant::now() < deadline,
                "{}/{conns}: blast stalled at {got}/{total} frames",
                std::any::type_name::<T>()
            );
        }
    }
    let elapsed = started.elapsed();
    let end = tp.syscall_stats();
    drop(tp);
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let syscalls = end.total().saturating_sub(base.total());
    BlastResult {
        reports_per_sec: total as f64 / elapsed.as_secs_f64(),
        syscalls_per_report: syscalls as f64 / total as f64,
        elapsed,
    }
}

/// Best of `reps` blasts: one-shot wall-clock measurements on a busy
/// box are noisy in one direction only (descheduling), so max is the
/// honest aggregate.
fn blast_best<T: CoordinatorTransport>(conns: usize, per_conn: usize, reps: usize) -> BlastResult {
    let mut best: Option<BlastResult> = None;
    for _ in 0..reps {
        let r = blast::<T>(conns, per_conn);
        if best.as_ref().is_none_or(|b| r.reports_per_sec > b.reports_per_sec) {
            best = Some(r);
        }
    }
    best.expect("reps >= 1")
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Node side of one loopback connection to a reactor: median cost of an
/// idle `try_recv` in ns (timed in batches of 64 so the clock reads
/// don't dominate) and of a report-up/request-down round trip in µs.
fn node_transport() -> (f64, f64) {
    let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let binder = std::thread::spawn(move || {
        ReactorCoordinatorTransport::bind(addr, 1)
            .map(|(t, _)| t)
            .expect("reactor bind")
    });
    let mut node = TcpNodeTransport::connect(addr, 0).expect("node connect");
    let coord = binder.join().expect("binder");

    const BATCH: usize = 64;
    let idle_ns = median(
        (0..2000)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..BATCH {
                    assert!(node.try_recv().expect("idle poll").is_none());
                }
                t.elapsed().as_nanos() as f64 / BATCH as f64
            })
            .collect(),
    );

    let pull = Outbound::new(
        0,
        CoordinatorMessage::RequestLocalVector { epoch: 1 },
        CommCause::FullSync,
    );
    let up = report(0);
    let roundtrip_us = median(
        (0..5000)
            .map(|_| {
                let t = Instant::now();
                node.send(&up).expect("report up");
                coord.recv_timeout(BLAST_DEADLINE).expect("report arrives");
                coord.send(&pull).expect("request down");
                node.recv().expect("request arrives");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect(),
    );
    (idle_ns, roundtrip_us)
}

fn emit(key: &str, value: f64) {
    println!("NETLINE {key} value {value}");
}

fn main() {
    if let Ok(spec) = std::env::var(CHILD_ENV) {
        run_child(&spec);
    }
    // `cargo bench -- --bench` style flags arrive here; this harness has
    // no options, so they're ignored.

    let full = std::env::var("AUTOMON_FULL").is_ok();
    let conns_1k = 1000usize;
    let conns_10k = 10_000usize;
    // Equalize total frames per configuration so elapsed times compare.
    let reports_1k = if full { 200 } else { 100 };
    let reports_10k = if full { 20 } else { 10 };

    eprintln!("net_throughput: threaded @ {conns_1k} conns ...");
    let threaded = blast_best::<ThreadPerConnection>(conns_1k, reports_1k, 2);
    eprintln!(
        "  threaded: {:.0} reports/s, {:.2} syscalls/report, {:?}",
        threaded.reports_per_sec, threaded.syscalls_per_report, threaded.elapsed
    );

    eprintln!("net_throughput: reactor @ {conns_1k} conns ...");
    let reactor = blast_best::<ReactorCoordinatorTransport>(conns_1k, reports_1k, 2);
    eprintln!(
        "  reactor:  {:.0} reports/s, {:.2} syscalls/report, {:?}",
        reactor.reports_per_sec, reactor.syscalls_per_report, reactor.elapsed
    );

    eprintln!("net_throughput: reactor @ {conns_10k} conns ...");
    let reactor_10k = blast_best::<ReactorCoordinatorTransport>(conns_10k, reports_10k, 2);
    eprintln!(
        "  reactor:  {:.0} reports/s, {:.2} syscalls/report, {:?}",
        reactor_10k.reports_per_sec, reactor_10k.syscalls_per_report, reactor_10k.elapsed
    );

    eprintln!("net_throughput: node transport, one connection ...");
    let (idle_ns, roundtrip_us) = node_transport();
    eprintln!("  idle try_recv {idle_ns:.0} ns, round trip {roundtrip_us:.1} us");

    emit(
        "net_throughput/node_transport/try_recv_idle/median_ns",
        idle_ns,
    );
    emit(
        "net_throughput/node_transport/roundtrip/median_us",
        roundtrip_us,
    );
    emit(
        "net_throughput/threaded/conns1000/reports_per_sec",
        threaded.reports_per_sec,
    );
    emit(
        "net_throughput/threaded/conns1000/syscalls_per_report",
        threaded.syscalls_per_report,
    );
    emit(
        "net_throughput/reactor/conns1000/reports_per_sec",
        reactor.reports_per_sec,
    );
    emit(
        "net_throughput/reactor/conns1000/syscalls_per_report",
        reactor.syscalls_per_report,
    );
    emit(
        "net_throughput/reactor/conns10000/reports_per_sec",
        reactor_10k.reports_per_sec,
    );
    emit(
        "net_throughput/reactor/conns10000/syscalls_per_report",
        reactor_10k.syscalls_per_report,
    );
    emit(
        "net_throughput/reactor_over_threaded/conns1000/speedup",
        reactor.reports_per_sec / threaded.reports_per_sec,
    );
    emit(
        "net_throughput/reactor_over_threaded/conns1000/syscall_ratio",
        threaded.syscalls_per_report / reactor.syscalls_per_report,
    );
    // The threaded backend at 10k connections would need 10k reader
    // threads; it is not measured. 1.0 marks the deliberate skip.
    emit("net_throughput/threaded/conns10000/skipped", 1.0);
    let _ = std::io::stdout().flush();

    // Regression floors, set on a two-core host that measured 3–5× and
    // ~0.05 syscalls/report; the idle poll is one non-blocking `recv`
    // (~0.2 µs), and the regression it guards against was an 8 ms timer.
    let speedup = reactor.reports_per_sec / threaded.reports_per_sec;
    let syscall_ratio = threaded.syscalls_per_report / reactor.syscalls_per_report;
    let gates = [
        (speedup >= 2.5, format!("reactor speedup {speedup:.2}x below 2.5x floor")),
        (
            reactor.syscalls_per_report <= 0.1,
            format!("reactor at {:.3} syscalls/report, above 0.1", reactor.syscalls_per_report),
        ),
        (
            syscall_ratio >= 3.0,
            format!("reactor syscall advantage {syscall_ratio:.1}x below 3x floor"),
        ),
        (idle_ns <= 2000.0, format!("idle try_recv {idle_ns:.0} ns, above 2 us")),
    ];
    let mut failed = false;
    for (held, why) in gates {
        if !held {
            eprintln!("net_throughput: gate failed: {why}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
