//! The node-side receive path over real loopback sockets: frames cut at
//! every byte offset, coalesced frames, the idle poll's cost in
//! syscalls, peer close, and the timed receive. The peer is a bare
//! `TcpStream` so the tests decide exactly which bytes are on the wire
//! when.

mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use automon_core::{CommCause, CoordinatorMessage, NodeMessage, Outbound, ViolationKind};
use automon_net::tcp::{TcpCoordinatorTransport, TcpError, TcpNodeTransport};
use automon_net::wire;
use common::to_wire;

const PATIENCE: Duration = Duration::from_secs(5);

/// A connected node transport and the raw coordinator end of its
/// socket, hello already consumed.
fn pair() -> (TcpNodeTransport, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let node = TcpNodeTransport::connect(addr, 0).expect("connect");
    let (mut peer, _) = listener.accept().unwrap();
    peer.set_nodelay(true).unwrap();
    let mut prefix = [0u8; 4];
    peer.read_exact(&mut prefix).unwrap();
    let mut hello = vec![0u8; u32::from_le_bytes(prefix) as usize];
    peer.read_exact(&mut hello).unwrap();
    (node, peer)
}

/// A few coordinator messages of different sizes, and their encodings.
fn messages() -> (Vec<CoordinatorMessage>, Vec<Vec<u8>>) {
    let msgs = vec![
        CoordinatorMessage::RequestLocalVector { epoch: 1 },
        CoordinatorMessage::SlackUpdate {
            slack: vec![0.5, -1.25, 3.0],
            epoch: 2,
        },
        CoordinatorMessage::SlackUpdate {
            slack: (0..40).map(f64::from).collect(),
            epoch: 3,
        },
    ];
    let frames = msgs
        .iter()
        .map(|m| wire::encode_coordinator_message(m).to_vec())
        .collect();
    (msgs, frames)
}

/// Poll until `want` frames have arrived.
fn poll_for(node: &mut TcpNodeTransport, want: usize) -> Vec<CoordinatorMessage> {
    let deadline = Instant::now() + PATIENCE;
    let mut got = Vec::new();
    while got.len() < want {
        assert!(
            Instant::now() < deadline,
            "only {} of {want} frames",
            got.len()
        );
        match node.try_recv().expect("poll") {
            Some(m) => got.push(m),
            None => std::thread::yield_now(),
        }
    }
    got
}

#[test]
fn stream_cut_at_every_offset_polls_to_the_sent_frames() {
    let (msgs, frames) = messages();
    let stream = to_wire(&frames);
    let (mut node, mut peer) = pair();
    // Cuts 1..4 fall inside the first length prefix.
    for cut in 0..=stream.len() {
        let whole_before_cut = {
            let mut end = 0;
            frames
                .iter()
                .take_while(|f| {
                    end += 4 + f.len();
                    end <= cut
                })
                .count()
        };
        peer.write_all(&stream[..cut]).unwrap();
        let mut got = poll_for(&mut node, whole_before_cut);
        // The cut frame is incomplete however much of it has arrived.
        assert_eq!(node.try_recv().expect("poll"), None, "cut {cut}");
        peer.write_all(&stream[cut..]).unwrap();
        got.extend(poll_for(&mut node, msgs.len() - whole_before_cut));
        assert_eq!(got, msgs, "cut {cut}");
        assert_eq!(node.try_recv().expect("poll"), None, "cut {cut}");
    }
}

#[test]
fn second_frame_of_a_segment_needs_no_read() {
    let (msgs, frames) = messages();
    let (mut node, mut peer) = pair();
    peer.write_all(&to_wire(&frames[..2])).unwrap();
    assert_eq!(node.recv().expect("first"), msgs[0]);
    let before = node.syscall_stats();
    assert_eq!(node.try_recv().expect("second"), Some(msgs[1].clone()));
    assert_eq!(node.syscall_stats(), before, "served from the buffer");
}

#[test]
fn idle_poll_is_one_read_and_nothing_else() {
    let (mut node, _peer) = pair();
    const POLLS: u64 = 1000;
    let before = node.syscall_stats();
    let mut ns: Vec<u128> = (0..POLLS)
        .map(|_| {
            let t = Instant::now();
            assert_eq!(node.try_recv().expect("idle poll"), None);
            t.elapsed().as_nanos()
        })
        .collect();
    let after = node.syscall_stats();
    // `syscall_stats` counts every call the transport makes on the
    // socket: one read per poll, and no wait, write or option call.
    assert_eq!(after.reads - before.reads, POLLS);
    assert_eq!(after.total() - before.total(), POLLS);
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    assert!(median < 50_000, "idle try_recv median {median} ns");
    // The socket is still in blocking mode: a timed receive on it waits.
    let t = Instant::now();
    assert_eq!(
        node.recv_timeout(Duration::from_millis(10)).expect("wait"),
        None
    );
    assert!(t.elapsed() >= Duration::from_millis(10));
}

#[test]
fn peer_close_is_disconnected_on_every_receive() {
    let disconnected = |r: Result<Option<CoordinatorMessage>, TcpError>| match r {
        Err(TcpError::Disconnected) => true,
        Ok(None) => false,
        other => panic!("expected Disconnected, got {other:?}"),
    };

    let (mut node, peer) = pair();
    drop(peer);
    assert!(matches!(node.recv(), Err(TcpError::Disconnected)));

    let (mut node, peer) = pair();
    drop(peer);
    let deadline = Instant::now() + PATIENCE;
    while !disconnected(node.try_recv()) {
        assert!(Instant::now() < deadline, "close never surfaced");
        std::thread::yield_now();
    }

    let (mut node, peer) = pair();
    drop(peer);
    assert!(disconnected(node.recv_timeout(PATIENCE)));
}

#[test]
fn recv_timeout_is_punctual_and_keeps_half_a_frame() {
    let (msgs, frames) = messages();
    let stream = to_wire(&frames[2..]);
    let (mut node, mut peer) = pair();
    peer.write_all(&stream[..stream.len() / 2]).unwrap();

    let d = Duration::from_millis(20);
    // Never early; within 5 ms on at least one of a few tries (the
    // overshoot is this host's scheduling latency, not the transport's).
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        assert_eq!(node.recv_timeout(d).expect("timed out"), None);
        let took = t.elapsed();
        assert!(took >= d, "returned after {took:?}, before {d:?}");
        best = best.min(took);
    }
    assert!(best <= d + Duration::from_millis(5), "best of 5: {best:?}");

    peer.write_all(&stream[stream.len() / 2..]).unwrap();
    assert_eq!(
        node.recv_timeout(PATIENCE).expect("rest"),
        Some(msgs[2].clone())
    );
}

#[test]
fn heartbeats_pass_through_the_threaded_reader() {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    let binder = std::thread::spawn(move || TcpCoordinatorTransport::bind(addr, 1).expect("bind"));
    let mut node = TcpNodeTransport::connect(addr, 0).expect("connect");
    let (coord, _) = binder.join().unwrap();

    let report = |epoch| NodeMessage::Violation {
        node: 0,
        kind: ViolationKind::SafeZone,
        local_vector: vec![1.0, 2.0],
        epoch,
    };
    // Empty frames between, before and after real ones: the reader skips
    // them without losing its place in the stream.
    node.send_heartbeat().unwrap();
    node.send(&report(1)).unwrap();
    node.send_heartbeat().unwrap();
    node.send_heartbeat().unwrap();
    node.send(&report(2)).unwrap();
    node.send_heartbeat().unwrap();
    assert_eq!(coord.recv_timeout(PATIENCE), Some(report(1)));
    assert_eq!(coord.recv_timeout(PATIENCE), Some(report(2)));
    assert_eq!(coord.recv_timeout(Duration::from_millis(50)), None);
    assert!(coord.stale_nodes(Duration::from_secs(1)).is_empty());

    // And the other direction still works on the same connection.
    let out = Outbound::new(
        0,
        CoordinatorMessage::RequestLocalVector { epoch: 2 },
        CommCause::FullSync,
    );
    coord.send(&out).unwrap();
    assert_eq!(node.recv_timeout(PATIENCE).unwrap(), Some(out.msg));
}
