//! The readiness abstraction under the reactor: real epoll or a
//! simulated clock.
//!
//! [`Poller`] is the thin seam the reactor core is generic over. The
//! production implementation, [`EpollPoller`], talks to Linux epoll via
//! raw FFI (the workspace vendors no `libc`; `std` already links the C
//! library, so the symbols are there to declare) with edge-triggered
//! readiness and `writev` scatter-gather. The deterministic
//! implementation, [`crate::sim_poller::SimPoller`], drives the same
//! reactor over in-memory pipes under a seeded logical clock.
//!
//! Every syscall the poller issues is counted in [`SyscallStats`] —
//! the bench reports *syscalls per update*, not just wall time, so the
//! coalescing/batching claims are measured directly.
//!
//! The blocking transport ([`crate::tcp`]) shares the FFI through three
//! free functions: [`recv_append`] (one `recv`, optionally
//! `MSG_DONTWAIT`), [`wait_readable`] (`poll` up to a deadline) and
//! [`write_vectored`].

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frame::IoVec;

/// Identifies one registered connection in poll events. The reactor
/// uses slab slot indices; one value is reserved.
pub type Token = usize;

/// Token of the accept listener.
pub const LISTENER_TOKEN: Token = usize::MAX - 1;

/// One readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registered token ([`LISTENER_TOKEN`] for the listener).
    pub token: Token,
    /// Reading will make progress.
    pub readable: bool,
    /// Writing will make progress again (after a short write).
    pub writable: bool,
    /// Peer closed or errored; the connection is done.
    pub closed: bool,
}

/// Syscall counts issued by a poller, the denominator data for the
/// bench's syscalls-per-update metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// `epoll_wait` (or simulated wait) calls.
    pub waits: u64,
    /// `read` calls (including ones returning `WouldBlock`).
    pub reads: u64,
    /// `writev` calls.
    pub writevs: u64,
    /// Accepted connections.
    pub accepts: u64,
}

impl SyscallStats {
    /// Total syscalls across all kinds.
    pub fn total(&self) -> u64 {
        self.waits + self.reads + self.writevs + self.accepts
    }
}

/// Shared atomic syscall counters: the thread driving the poller
/// writes, the bench/CLI reads without taking the reactor's lock.
#[derive(Debug, Default)]
pub struct SyscallCounters {
    waits: AtomicU64,
    reads: AtomicU64,
    writevs: AtomicU64,
    accepts: AtomicU64,
}

impl SyscallCounters {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> SyscallStats {
        SyscallStats {
            waits: self.waits.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writevs: self.writevs.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
        }
    }
}

/// Readiness + I/O seam the reactor core is generic over.
///
/// I/O goes *through* the poller (rather than through the connection
/// object directly) so one place counts syscalls and the simulated
/// implementation can chunk reads and shorten writes deterministically.
pub trait Poller {
    /// Established-connection handle.
    type Conn;
    /// Accept source.
    type Listener;

    /// Register the accept source under [`LISTENER_TOKEN`].
    fn register_listener(&mut self, l: &Self::Listener) -> io::Result<()>;

    /// Accept one pending connection; `None` when none is ready.
    fn accept(&mut self, l: &Self::Listener) -> io::Result<Option<Self::Conn>>;

    /// Register a connection under `token` with read+write interest
    /// (edge-triggered).
    fn register(&mut self, c: &Self::Conn, token: Token) -> io::Result<()>;

    /// Remove a connection from the poll set (idempotent).
    fn deregister(&mut self, c: &Self::Conn) -> io::Result<()>;

    /// Nonblocking read; `WouldBlock` when drained.
    fn read(&mut self, c: &mut Self::Conn, buf: &mut [u8]) -> io::Result<usize>;

    /// Scatter-gather write; returns bytes accepted, `WouldBlock` when
    /// the send buffer is full.
    fn writev(&mut self, c: &mut Self::Conn, bufs: &[IoVec]) -> io::Result<usize>;

    /// Block until readiness (or `timeout`), appending into `events`.
    /// A wait that finds nothing ready never returns before `timeout`
    /// has passed.
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;

    /// Syscalls issued so far.
    fn stats(&self) -> SyscallStats;

    /// Milliseconds on this poller's clock: monotonic wall time for
    /// epoll, the seeded logical clock for the simulator.
    fn now_ms(&self) -> u64;
}

// ---------------------------------------------------------------------
// epoll via raw FFI
// ---------------------------------------------------------------------

// The kernel ABI structure. x86-64 packs it to match the 32-bit layout;
// other architectures use natural alignment — mirror glibc exactly.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const MSG_DONTWAIT: i32 = 0x40;
const POLLIN: i16 = 0x001;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One `recv(2)` on `sock`, appended to `buf` in its spare capacity (no
/// staging copy, nothing zeroed first). With `dontwait` the call carries
/// `MSG_DONTWAIT`: non-blocking for this call only, on a socket that
/// stays blocking — no `O_NONBLOCK` toggle, no `SO_RCVTIMEO`. `Ok(0)` is
/// end of stream; the caller guarantees spare capacity.
pub fn recv_append(sock: &TcpStream, buf: &mut Vec<u8>, dontwait: bool) -> io::Result<usize> {
    let spare = buf.spare_capacity_mut();
    debug_assert!(!spare.is_empty(), "recv_append needs spare capacity");
    let flags = if dontwait { MSG_DONTWAIT } else { 0 };
    loop {
        // SAFETY: `spare` is a live, exclusively borrowed region of
        // `spare.len()` bytes; the kernel only writes into it.
        let n = unsafe {
            recv(
                sock.as_raw_fd(),
                spare.as_mut_ptr().cast(),
                spare.len(),
                flags,
            )
        };
        if n >= 0 {
            let n = n as usize;
            // SAFETY: the kernel initialized the first `n <= spare.len()`
            // bytes past the old length.
            unsafe { buf.set_len(buf.len() + n) };
            return Ok(n);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Block in `poll(2)` until `sock` is readable (data, end of stream or
/// a socket error) or `deadline` passes; `false` on the deadline. The
/// wait is an hrtimer, not the jiffy-rounded socket timeout, and never
/// ends early: the timeout is rounded up to poll's whole milliseconds.
pub fn wait_readable(sock: &TcpStream, deadline: Instant) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let ms = left.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        // SAFETY: `pfd` is one valid pollfd for the duration of the call.
        let n = unsafe { poll(&mut pfd, 1, ms) };
        if n >= 0 {
            return Ok(n > 0);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// One `writev(2)` of `bufs` on `sock`; returns the bytes accepted.
pub fn write_vectored(sock: &TcpStream, bufs: &[IoVec]) -> io::Result<usize> {
    // IOV_MAX is 1024 on Linux; one truncated call is fine — the
    // caller's queue resumes where the written bytes stopped.
    let cnt = bufs.len().min(1024) as i32;
    // SAFETY: `bufs` is a live slice of `cnt` iovec-layout segments whose
    // memory the caller keeps alive and unmoved across the call (the
    // `IoVec` contract).
    let n = unsafe { writev(sock.as_raw_fd(), bufs.as_ptr(), cnt) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Edge-triggered epoll poller over `std::net` sockets.
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
    counters: Arc<SyscallCounters>,
    epoch: Instant,
}

impl EpollPoller {
    /// Create the epoll instance.
    pub fn new() -> io::Result<Self> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            counters: Arc::new(SyscallCounters::default()),
            epoch: Instant::now(),
        })
    }

    /// Shared handle to the syscall counters (clone before moving the
    /// poller into a reactor).
    pub fn counters(&self) -> Arc<SyscallCounters> {
        self.counters.clone()
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

impl Poller for EpollPoller {
    type Conn = TcpStream;
    type Listener = TcpListener;

    fn register_listener(&mut self, l: &TcpListener) -> io::Result<()> {
        // Level-triggered on purpose: a missed accept edge would strand
        // connections; LT re-arms for free at listener traffic rates.
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data: LISTENER_TOKEN as u64,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, l.as_raw_fd(), &mut ev) })?;
        Ok(())
    }

    fn accept(&mut self, l: &TcpListener) -> io::Result<Option<TcpStream>> {
        match l.accept() {
            Ok((stream, _)) => {
                self.counters.accepts.fetch_add(1, Ordering::Relaxed);
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn register(&mut self, c: &TcpStream, token: Token) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
            data: token as u64,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, c.as_raw_fd(), &mut ev) })?;
        Ok(())
    }

    fn deregister(&mut self, c: &TcpStream) -> io::Result<()> {
        // ENOENT (already gone) is fine — deregister is idempotent.
        let _ = unsafe {
            epoll_ctl(
                self.epfd,
                EPOLL_CTL_DEL,
                c.as_raw_fd(),
                std::ptr::null_mut(),
            )
        };
        Ok(())
    }

    fn read(&mut self, c: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        c.read(buf)
    }

    fn writev(&mut self, c: &mut TcpStream, bufs: &[IoVec]) -> io::Result<usize> {
        self.counters.writevs.fetch_add(1, Ordering::Relaxed);
        write_vectored(c, bufs)
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        // Rounded up to epoll's whole milliseconds, like `wait_readable`:
        // truncating would turn the last partial millisecond of a
        // caller's deadline into a busy spin of zero-timeout waits.
        let timeout_ms = timeout.map_or(-1i32, |t| {
            t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
        });
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        let n = loop {
            let r = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if r >= 0 {
                break r as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for i in 0..n {
            let ev = self.buf[i];
            events.push(Event {
                token: ev.data as usize,
                readable: ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                writable: ev.events & EPOLLOUT != 0,
                closed: ev.events & (EPOLLHUP | EPOLLERR) != 0,
            });
        }
        if n == self.buf.len() && self.buf.len() < 65536 {
            // Saturated: grow so big fleets drain in one wait.
            self.buf.resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }

    fn stats(&self) -> SyscallStats {
        self.counters.snapshot()
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn epoll_sees_listener_and_conn_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();

        let mut poller = EpollPoller::new().unwrap();
        poller.register_listener(&listener).unwrap();

        // Nothing pending: a zero-timeout wait returns empty.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());

        let mut client = TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == LISTENER_TOKEN && e.readable));

        let mut server = poller.accept(&listener).unwrap().expect("pending conn");
        assert!(poller.accept(&listener).unwrap().is_none(), "only one");
        poller.register(&server, 7).unwrap();

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 4 && Instant::now() < deadline {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                let mut buf = [0u8; 16];
                loop {
                    match poller.read(&mut server, &mut buf) {
                        Ok(0) => break,
                        Ok(n) => got.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => panic!("read: {e}"),
                    }
                }
            }
        }
        assert_eq!(&got, b"ping");

        // writev pushes both segments in one syscall.
        let (a, b) = (b"he".as_slice(), b"llo".as_slice());
        let iov = [
            IoVec { base: a.as_ptr(), len: a.len() },
            IoVec { base: b.as_ptr(), len: b.len() },
        ];
        let n = poller.writev(&mut server, &iov).unwrap();
        assert_eq!(n, 5);
        let mut back = [0u8; 5];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");

        let stats = poller.stats();
        assert!(stats.waits >= 2 && stats.reads >= 1 && stats.writevs == 1);
        assert_eq!(stats.accepts, 1);

        poller.deregister(&server).unwrap();
        poller.deregister(&server).unwrap(); // idempotent
    }
}
