//! A turmoil-style simulated poller: the reactor's determinism story.
//!
//! [`SimPoller`] implements the same [`Poller`] seam as the epoll
//! backend, but over in-memory duplex pipes under a **seeded logical
//! clock** — no sockets, no threads, no wall time. Reads are chunked
//! and writes shortened at *seeded* boundaries, so the reactor's
//! frame-reassembly and partial-write paths are exercised on every run,
//! and exercised identically for the same seed: the whole transport
//! becomes a pure function of `(seed, workload)`. Same seed ⇒ the same
//! syscall-equivalent op sequence, the same frame boundaries, the same
//! trace — byte for byte.
//!
//! The harness side holds [`SimClient`] handles (one per simulated
//! node) and drives the reactor synchronously with
//! `poll_once`/`pop_inbound`, as the epoll transport's caller does.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::rc::Rc;
use std::time::Duration;

use crate::frame::{FrameAssembler, IoVec};
use crate::poller::{Event, Poller, SyscallStats, Token, LISTENER_TOKEN};
use crate::wire::frame_len_prefix;

/// One simulated duplex connection between a client (node) and the
/// server (reactor).
#[derive(Debug, Default)]
struct Duplex {
    /// Bytes the client wrote, not yet read by the server.
    to_server: VecDeque<u8>,
    /// Bytes the server wrote, not yet read by the client.
    to_client: VecDeque<u8>,
    /// Client hung up; the server reads EOF after draining.
    client_closed: bool,
    /// Server hung up (connection dropped by the reactor).
    server_closed: bool,
    /// The server's last write was cut short; a writable event is due
    /// once the client drains some capacity.
    write_blocked: bool,
    /// Client-side reassembly of the server's byte stream.
    client_asm: FrameAssembler,
}

#[derive(Debug)]
struct SimNetInner {
    conns: Vec<Duplex>,
    /// Connections accepted by nobody yet, FIFO.
    pending_accepts: VecDeque<usize>,
    /// conn id -> registered token.
    tokens: Vec<Option<Token>>,
    /// xorshift64* state for chunk boundaries.
    rng: u64,
    /// Logical milliseconds; each `wait` is one tick.
    clock_ms: u64,
    /// Upper bound on bytes one simulated `read` returns.
    max_read_chunk: usize,
    /// Capacity of the server→client buffer (forces partial writes).
    client_buf_cap: usize,
    stats: SyscallStats,
}

impl SimNetInner {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Seeded value in `1..=max`.
    fn chunk(&mut self, max: usize) -> usize {
        1 + (self.next_u64() as usize) % max.max(1)
    }
}

/// The simulated network: connection factory plus the shared state the
/// poller, listener, and client handles all reference. Single-threaded
/// by construction (`Rc`), which is exactly what determinism wants.
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Rc<RefCell<SimNetInner>>,
}

impl SimNet {
    /// A network whose chunking schedule derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_limits(seed, 512, 4096)
    }

    /// Like [`SimNet::new`] with explicit read-chunk and client-buffer
    /// bounds (small values exercise more frame splits).
    pub fn with_limits(seed: u64, max_read_chunk: usize, client_buf_cap: usize) -> Self {
        Self {
            inner: Rc::new(RefCell::new(SimNetInner {
                conns: Vec::new(),
                pending_accepts: VecDeque::new(),
                tokens: Vec::new(),
                // splitmix64 scramble; zero maps to a fixed odd state.
                rng: splitmix64(seed ^ 0xD1B5_4A32_D192_ED03).max(1),
                clock_ms: 0,
                max_read_chunk: max_read_chunk.max(1),
                client_buf_cap: client_buf_cap.max(16),
                stats: SyscallStats::default(),
            })),
        }
    }

    /// Open a client connection; it appears on the listener at the
    /// server's next `wait`.
    pub fn connect(&self) -> SimClient {
        let mut net = self.inner.borrow_mut();
        let id = net.conns.len();
        net.conns.push(Duplex::default());
        net.tokens.push(None);
        net.pending_accepts.push_back(id);
        SimClient {
            inner: self.inner.clone(),
            id,
        }
    }

    /// The poller for the server (reactor) side.
    pub fn poller(&self) -> SimPoller {
        SimPoller {
            inner: self.inner.clone(),
        }
    }

    /// The accept source for the server side.
    pub fn listener(&self) -> SimListener {
        SimListener {
            _inner: self.inner.clone(),
        }
    }

    /// Logical clock, in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        self.inner.borrow().clock_ms
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Server-side accept source (state lives in the shared net).
#[derive(Debug)]
pub struct SimListener {
    _inner: Rc<RefCell<SimNetInner>>,
}

/// Server-side connection handle held by the reactor.
#[derive(Debug)]
pub struct SimConn {
    inner: Rc<RefCell<SimNetInner>>,
    id: usize,
}

impl Drop for SimConn {
    fn drop(&mut self) {
        let mut net = self.inner.borrow_mut();
        net.conns[self.id].server_closed = true;
        net.tokens[self.id] = None;
    }
}

/// Client-side handle: what a simulated node uses to talk to the
/// reactor. Frames are length-prefixed exactly like the TCP transport.
#[derive(Debug)]
pub struct SimClient {
    inner: Rc<RefCell<SimNetInner>>,
    id: usize,
}

impl SimClient {
    /// Queue one frame toward the server. `false` if the server side
    /// already dropped this connection.
    pub fn send_frame(&self, payload: &[u8]) -> bool {
        let mut net = self.inner.borrow_mut();
        let c = &mut net.conns[self.id];
        if c.server_closed {
            return false;
        }
        let prefix = frame_len_prefix(payload.len())
            .expect("sim frame under the wire cap")
            .to_le_bytes();
        c.to_server.extend(prefix);
        c.to_server.extend(payload.iter().copied());
        true
    }

    /// Drain every complete frame the server has delivered so far.
    pub fn recv_frames(&self) -> Vec<Vec<u8>> {
        let mut net = self.inner.borrow_mut();
        let c = &mut net.conns[self.id];
        if !c.to_client.is_empty() {
            let bytes: Vec<u8> = c.to_client.drain(..).collect();
            c.client_asm.feed(&bytes);
        }
        let mut frames = Vec::new();
        while let Ok(Some(f)) = c.client_asm.next_frame() {
            frames.push(f);
        }
        frames
    }

    /// Hang up; the server observes EOF after draining what was sent.
    pub fn close(&self) {
        self.inner.borrow_mut().conns[self.id].client_closed = true;
    }
}

/// Deterministic [`Poller`] over a [`SimNet`].
#[derive(Debug)]
pub struct SimPoller {
    inner: Rc<RefCell<SimNetInner>>,
}

impl Poller for SimPoller {
    type Conn = SimConn;
    type Listener = SimListener;

    fn register_listener(&mut self, _l: &SimListener) -> io::Result<()> {
        Ok(())
    }

    fn accept(&mut self, _l: &SimListener) -> io::Result<Option<SimConn>> {
        let mut net = self.inner.borrow_mut();
        let Some(id) = net.pending_accepts.pop_front() else {
            return Ok(None);
        };
        net.stats.accepts += 1;
        Ok(Some(SimConn {
            inner: self.inner.clone(),
            id,
        }))
    }

    fn register(&mut self, c: &SimConn, token: Token) -> io::Result<()> {
        self.inner.borrow_mut().tokens[c.id] = Some(token);
        Ok(())
    }

    fn deregister(&mut self, c: &SimConn) -> io::Result<()> {
        self.inner.borrow_mut().tokens[c.id] = None;
        Ok(())
    }

    fn read(&mut self, c: &mut SimConn, buf: &mut [u8]) -> io::Result<usize> {
        let mut net = self.inner.borrow_mut();
        net.stats.reads += 1;
        let max_chunk = net.max_read_chunk;
        let chunk = net.chunk(max_chunk);
        let d = &mut net.conns[c.id];
        if d.to_server.is_empty() {
            if d.client_closed {
                return Ok(0); // EOF
            }
            return Err(io::ErrorKind::WouldBlock.into());
        }
        // A seeded chunk bound splits frames (and length prefixes) at
        // boundaries that vary with the seed but replay exactly.
        let n = buf.len().min(chunk).min(d.to_server.len());
        for b in buf.iter_mut().take(n) {
            *b = d.to_server.pop_front().expect("length checked");
        }
        Ok(n)
    }

    fn writev(&mut self, c: &mut SimConn, bufs: &[IoVec]) -> io::Result<usize> {
        let mut net = self.inner.borrow_mut();
        net.stats.writevs += 1;
        let cap = net.client_buf_cap;
        let chunk = net.chunk(cap);
        let d = &mut net.conns[c.id];
        let free = cap.saturating_sub(d.to_client.len());
        if free == 0 {
            d.write_blocked = true;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        // Short writes at seeded boundaries, bounded by buffer space —
        // the sim analogue of a full kernel send buffer.
        let mut budget = free.min(chunk);
        let offered: usize = bufs.iter().map(|v| v.len).sum();
        let mut written = 0usize;
        'outer: for v in bufs {
            let seg = unsafe { std::slice::from_raw_parts(v.base, v.len) };
            for &b in seg {
                if budget == 0 {
                    break 'outer;
                }
                d.to_client.push_back(b);
                budget -= 1;
                written += 1;
            }
        }
        if written < offered {
            d.write_blocked = true;
        }
        Ok(written)
    }

    fn wait(&mut self, events: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<()> {
        let mut net = self.inner.borrow_mut();
        net.stats.waits += 1;
        net.clock_ms += 1;
        if !net.pending_accepts.is_empty() {
            events.push(Event {
                token: LISTENER_TOKEN,
                readable: true,
                writable: false,
                closed: false,
            });
        }
        // Scan in connection order: deterministic event ordering.
        for id in 0..net.conns.len() {
            let Some(token) = net.tokens[id] else { continue };
            let d = &net.conns[id];
            let readable = !d.to_server.is_empty() || d.client_closed;
            let writable = d.write_blocked && d.to_client.len() < net.client_buf_cap;
            if readable || writable {
                events.push(Event {
                    token,
                    readable,
                    writable,
                    closed: false,
                });
            }
            if writable {
                net.conns[id].write_blocked = false;
            }
        }
        Ok(())
    }

    fn stats(&self) -> SyscallStats {
        self.inner.borrow().stats
    }

    fn now_ms(&self) -> u64 {
        self.inner.borrow().clock_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one scripted exchange and return the op trace.
    fn scripted(seed: u64) -> (Vec<String>, SyscallStats) {
        let net = SimNet::with_limits(seed, 7, 64);
        let listener = net.listener();
        let mut poller = net.poller();
        let client = net.connect();
        let mut trace = Vec::new();

        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == LISTENER_TOKEN));
        let mut conn = poller.accept(&listener).unwrap().expect("pending");
        poller.register(&conn, 3).unwrap();

        client.send_frame(&[0xAA; 100]);
        client.send_frame(&[0xBB; 50]);
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        let mut buf = [0u8; 256];
        while frames.len() < 2 {
            events.clear();
            poller.wait(&mut events, None).unwrap();
            loop {
                match poller.read(&mut conn, &mut buf) {
                    Ok(n) => {
                        trace.push(format!("read:{n}"));
                        asm.feed(&buf[..n]);
                        while let Some(f) = asm.next_frame().unwrap() {
                            trace.push(format!("frame:{}", f.len()));
                            frames.push(f);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("{e}"),
                }
            }
        }
        assert_eq!(frames[0], vec![0xAA; 100]);
        assert_eq!(frames[1], vec![0xBB; 50]);

        // Server reply larger than the 64-byte client buffer: must take
        // several partial writev rounds.
        let payload = vec![0xCC_u8; 150];
        let prefix = (payload.len() as u32).to_le_bytes();
        let mut sent = 0usize;
        let total = payload.len() + 4;
        while sent < total {
            let whole = [prefix.as_slice(), payload.as_slice()].concat();
            let rest = &whole[sent..];
            let iov = [IoVec {
                base: rest.as_ptr(),
                len: rest.len(),
            }];
            match poller.writev(&mut conn, &iov) {
                Ok(n) => {
                    trace.push(format!("writev:{n}"));
                    sent += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    trace.push("writev:block".into());
                }
                Err(e) => panic!("{e}"),
            }
            // Client drains, freeing capacity.
            for f in client.recv_frames() {
                trace.push(format!("client_frame:{}", f.len()));
            }
        }
        (trace, poller.stats())
    }

    #[test]
    fn same_seed_same_op_trace() {
        let (a, sa) = scripted(42);
        let (b, sb) = scripted(42);
        assert_eq!(a, b, "sim transport must replay bit-identically");
        assert_eq!(sa, sb);
        assert!(a.iter().any(|l| l.starts_with("read:")));
    }

    #[test]
    fn different_seed_different_chunking() {
        let (a, _) = scripted(1);
        let (b, _) = scripted(2);
        assert_ne!(a, b, "chunk boundaries must depend on the seed");
    }

    #[test]
    fn eof_after_client_close() {
        let net = SimNet::new(9);
        let listener = net.listener();
        let mut poller = net.poller();
        let client = net.connect();
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        let mut conn = poller.accept(&listener).unwrap().unwrap();
        poller.register(&conn, 0).unwrap();

        client.send_frame(b"bye");
        client.close();
        let mut buf = [0u8; 64];
        let mut drained = Vec::new();
        loop {
            match poller.read(&mut conn, &mut buf) {
                Ok(0) => break,
                Ok(n) => drained.extend_from_slice(&buf[..n]),
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(drained.len(), 4 + 3, "data before EOF is not lost");
    }
}
