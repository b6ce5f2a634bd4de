//! What the benchmark asks of the host: one CPU to run on, how fast that
//! CPU is running right now, and the process counters behind the `proc.*`
//! metrics.
//!
//! **Why one CPU.** This host is a 2-vCPU VM without a cpuidle driver: a
//! vCPU whose thread blocks halts to the hypervisor, and waking it from
//! the other vCPU costs anywhere from 5 to 40 µs depending on the
//! hypervisor's adaptive halt-polling state. The same `wire_drift` pass
//! took 0.6 s and 4.2 s inside one process. The lockstep loop has one
//! runnable thread at a time, so nothing is lost by pinning the process to
//! a single CPU: every hand-off between the driver and the reactor thread
//! becomes a context switch, and passes repeat within about ±10 %.
//!
//! **Why a speed probe.** Pinned or not, the host changes speed under the
//! benchmark, in two ways that were told apart by timing three small
//! kernels beside a fixed `decompose` call for 90 s. The clock steps: a
//! register-only chain of multiply-adds took 147, 190 or 215 µs for tens
//! of seconds at a time, and everything else moved with it. And at an
//! unchanged clock, throughput-bound code — a loop of `ln` calls, a loop of
//! small allocations, and `decompose` itself (2.9 ms and 4.6 ms) — ran in
//! one of a few fixed states 1.4–1.5× apart, for seconds at a time, while
//! the multiply-add chain, which waits on its own latency and leaves the
//! issue ports idle, noticed nothing: the signature of a busy sibling
//! hyperthread. The kernel's side of a wire pass drifts on its own, by up
//! to 1.6× over minutes. So every timed stretch is cut into pieces
//! ([`Pace`]), each bracketed by a probe ([`Probe`]) made of what the pass
//! is made of, and the CPU seconds of the piece are restated at the speed
//! at which the probe takes its reference time. Seconds the process spent
//! blocked (the idle poll's timer) are left as they are: a timer does not
//! boost.

use std::fs;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `timespec` of the layout the C
    // library expects on this platform; the clock id is a constant the
    // kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc == 0 {
        t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Wall and CPU seconds of a stretch of work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spent {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Spent {
    /// The stretch restated for a host running at reference speed: its
    /// CPU seconds divided by `slowdown`, its blocked seconds unchanged.
    pub fn at_reference_speed(&self, slowdown: f64) -> f64 {
        let cpu = self.cpu_s.min(self.wall_s);
        cpu / slowdown + (self.wall_s - cpu)
    }
}

/// Started at the beginning of a stretch; [`Meter::stop`] ends it.
pub struct Meter {
    wall: Instant,
    cpu: f64,
}

impl Meter {
    pub fn start() -> Self {
        Meter {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// Wall time since the start, without ending the stretch.
    pub fn wall(&self) -> std::time::Duration {
        self.wall.elapsed()
    }

    pub fn stop(&self) -> Spent {
        Spent {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu,
        }
    }
}

/// What a pass is made of decides which probe tracks the host for it.
///
/// A pass over an in-process link is throughput-bound library code:
/// transcendental calls, short-lived vectors and dense products over
/// cache-resident data. The mixed kernel is a third of each, because each
/// alone tracked one workload and not another: over ten seeds, pass rates
/// restated piece by piece by the `ln` loop, the allocation loop and the
/// dot product spread (quartile distance over median) by 0.035, 0.029,
/// 0.057 on `kld_fullsync`, 0.051, 0.036, 0.024 on `ip_nodecheck` and
/// 0.070, 0.056, 0.048 on `fleet_variance` — against 0.14, 0.06 and 0.23
/// as measured, and 0.11, 0.08 and 0.18 restated by a register-only
/// multiply-add chain, which sees the clock and not the sibling. With the
/// mixed kernel a later ten-seed set spread by 0.038, 0.047 and 0.028
/// (0.18, 0.07, 0.16 as measured). A pass over a wire link is system
/// calls and hand-offs between two threads, which the kernel runs at a
/// speed of its own: in a 36-run series the `wire_drift` rate ranged
/// 37 000–61 000 updates/s while arithmetic stayed within ±5 %. Its probe
/// is round trips of frame-sized messages between two threads over a
/// loopback TCP connection: the workload's own path through the kernel.
/// One-byte round trips over a Unix socket pair followed that path only
/// part of the way: with both probes run at the same piece edges over 15
/// seeds, the rate restated by the socket pair kept 0.20 of the swing of
/// the rate as measured (standard deviation of its logarithm 0.034, as
/// measured 0.12), restated by TCP 0.01 of it (0.014).
pub enum Probe {
    /// The matrix of the dot product.
    Mixed(Vec<f64>),
    Handoff(Handoff),
}

/// Probe samples taken at one edge of a piece.
const PROBES_PER_EDGE: usize = 4;

impl Probe {
    pub fn for_link(wired: bool) -> std::io::Result<Self> {
        Ok(if wired {
            Probe::Handoff(Handoff::start()?)
        } else {
            Probe::Mixed(
                (0..DOT_DIM * DOT_DIM)
                    .map(|k| (k % 13) as f64 * 0.01)
                    .collect(),
            )
        })
    }

    /// Time the probe takes on this host in its quiet state: the unboosted
    /// clock with the core to itself. Published timings are restated at
    /// the speed at which the probe takes this long.
    fn reference_s(&self) -> f64 {
        match self {
            Probe::Mixed(_) => 200e-6,
            Probe::Handoff(_) => 130e-6,
        }
    }

    /// Run the probe [`PROBES_PER_EDGE`] times, appending the times.
    fn sample(&mut self, into: &mut Vec<f64>) {
        for _ in 0..PROBES_PER_EDGE {
            into.push(match self {
                Probe::Mixed(matrix) => mixed_once(matrix),
                Probe::Handoff(h) => h.round_trips(),
            });
        }
    }

    /// How much slower than the reference the host ran, from samples taken
    /// around a stretch of work: above 1 on a slow host, below when
    /// boosting. 1 when there are no usable samples.
    fn slowdown(&self, samples: &mut [f64]) -> f64 {
        match median(samples) {
            Some(t) if t > 0.0 => t / self.reference_s(),
            _ => 1.0,
        }
    }
}

const DOT_DIM: usize = 100;

/// A third each of `ln` calls, small allocations and a dense quadratic
/// form over an 80 KB matrix: work that keeps the issue ports busy, so it
/// slows with the clock and with a busy sibling thread as the library
/// does.
fn mixed_once(matrix: &[f64]) -> f64 {
    let t0 = Instant::now();
    let (mut sum, mut x) = (0.0, 1.5f64);
    for _ in 0..16_000 {
        sum += x.ln();
        x += 0.001;
    }
    for k in 0..4_500usize {
        black_box(vec![k as f64; 20 + k % 7]);
    }
    let x: [f64; DOT_DIM] = std::array::from_fn(|k| k as f64 * 0.001);
    for _ in 0..16 {
        for (row, xr) in matrix.chunks_exact(DOT_DIM).zip(&x) {
            let dot: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            sum += dot * xr;
        }
        black_box(sum);
    }
    t0.elapsed().as_secs_f64()
}

/// A timed stretch, restated piece by piece.
///
/// The host changes state within a pass, so the stretch is cut at round
/// boundaries into pieces of at least [`PIECE`], each bracketed by probe
/// samples and restated at the speed its own samples show. Without a probe
/// (verification, traced and comparison passes) nothing is restated.
pub struct Pace<'a> {
    probe: Option<&'a mut Probe>,
    piece: Meter,
    /// Probe samples from the start of the current piece.
    edge: Vec<f64>,
    measured: Spent,
    reference_s: f64,
    /// How many resolution samples of each list are already restated.
    restated: [usize; 2],
}

/// Long against its two probe edges (about 1 ms each), short against the
/// seconds a host state lasts.
const PIECE: Duration = Duration::from_millis(50);

impl<'a> Pace<'a> {
    /// Sample the probe and start timing.
    pub fn start(mut probe: Option<&'a mut Probe>) -> Self {
        let mut edge = Vec::new();
        if let Some(probe) = probe.as_deref_mut() {
            probe.sample(&mut edge);
        }
        Pace {
            probe,
            edge,
            measured: Spent::default(),
            reference_s: 0.0,
            restated: [0; 2],
            piece: Meter::start(),
        }
    }

    /// At a round boundary: end the piece if it is long enough. The two
    /// lists are the pass's resolution samples in µs; those taken during
    /// the piece are restated with it.
    #[inline]
    pub fn tick(&mut self, resolve: &mut [f64], fullsync: &mut [f64]) {
        if self.probe.is_some() && self.piece.wall() >= PIECE {
            self.close(resolve, fullsync);
            self.piece = Meter::start();
        }
    }

    fn close(&mut self, resolve: &mut [f64], fullsync: &mut [f64]) {
        let spent = self.piece.stop();
        let slowdown = match self.probe.as_deref_mut() {
            Some(probe) => {
                // The samples after this piece are also the ones before
                // the next.
                let mut after = Vec::new();
                probe.sample(&mut after);
                self.edge.extend_from_slice(&after);
                let slowdown = probe.slowdown(&mut self.edge);
                self.edge = after;
                slowdown
            }
            None => 1.0,
        };
        self.measured.wall_s += spent.wall_s;
        self.measured.cpu_s += spent.cpu_s;
        self.reference_s += spent.at_reference_speed(slowdown);
        // A resolution never blocks on anything but the other thread,
        // which runs on the same CPU: all of it is CPU time.
        for (list, from) in [resolve, fullsync].into_iter().zip(&mut self.restated) {
            for us in &mut list[*from..] {
                *us /= slowdown;
            }
            *from = list.len();
        }
    }

    /// End the stretch: what it took as measured and restated, and the
    /// probe for the next stretch.
    pub fn finish(
        mut self,
        resolve: &mut [f64],
        fullsync: &mut [f64],
    ) -> (Spent, f64, Option<&'a mut Probe>) {
        self.close(resolve, fullsync);
        (self.measured, self.reference_s, self.probe)
    }
}

/// Bytes per probe message: between the workloads' up (350 B) and down
/// (240 B) frames.
const HANDOFF_BYTES: usize = 256;

/// A thread that echoes fixed-size messages over a loopback TCP connection.
/// It exists for the length of an untraced run of a wire workload, blocked
/// in `read` except while the probe is sampling.
pub struct Handoff {
    near: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Handoff {
    fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (mut far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        let echo = std::thread::Builder::new()
            .name("benchmark-handoff-probe".into())
            .spawn(move || {
                let mut message = [0u8; HANDOFF_BYTES];
                while far.read_exact(&mut message).is_ok() && far.write_all(&message).is_ok() {}
            })?;
        Ok(Handoff {
            near,
            echo: Some(echo),
        })
    }

    /// Seconds for 25 round trips: 50 sends, 50 receives through the
    /// loopback TCP stack, 50 switches between two threads on the pinned
    /// CPU. A broken socket (the echo thread died) yields 0, which
    /// `slowdown` ignores.
    fn round_trips(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut message = [7u8; HANDOFF_BYTES];
        for _ in 0..25 {
            if self.near.write_all(&message).is_err() || self.near.read_exact(&mut message).is_err()
            {
                return 0.0;
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

impl Drop for Handoff {
    fn drop(&mut self) {
        // Closing our end ends the echo loop.
        let _ = self.near.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 addresses the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed and is only
    // read; pid 0 addresses the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// The calling thread's original CPU set; threads spawned later inherit
/// whatever is in force when they start.
pub struct Pin {
    original: Option<CpuSet>,
    /// The CPU the process was pinned to, if pinning worked.
    pub cpu: Option<usize>,
    /// CPUs the process could use before it was pinned.
    pub nproc: usize,
}

impl Pin {
    /// Pin the calling thread to the highest-numbered CPU it may run on
    /// (CPU 0 takes most of a small host's interrupts). Best effort: on
    /// failure the run goes on unpinned and says so in its header.
    pub fn to_one_cpu() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let original = affinity();
        let cpu = original.and_then(|set| {
            let cpu = (0..1024).rev().find(|c| set[c / 64] >> (c % 64) & 1 == 1)?;
            let mut one: CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            set_affinity(&one).then_some(cpu)
        });
        Pin {
            original,
            cpu,
            nproc,
        }
    }

    /// Run `work` with the original CPU set restored (the one probe that
    /// measures a thread pool), then pin again.
    pub fn unpinned<T>(&self, work: impl FnOnce() -> T) -> T {
        let (Some(original), Some(cpu)) = (&self.original, self.cpu) else {
            return work();
        };
        set_affinity(original);
        let out = work();
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one);
        out
    }
}

/// `uname -sr`, from procfs.
pub fn uname() -> String {
    let read = |p: &str| {
        fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    format!(
        "{} {}",
        read("/proc/sys/kernel/ostype"),
        read("/proc/sys/kernel/osrelease")
    )
}

/// Process counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches over all threads alive now.
    pub ctx_switches: u64,
}

pub fn proc_sample() -> ProcSample {
    // Fields 14 and 15 of /proc/self/stat, counted after the command name
    // (which may contain spaces), in clock ticks of 1/100 s.
    let cpu_s = fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0);
    let mut ctx_switches = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                ctx_switches += status_field(&status, "voluntary_ctxt_switches")
                    + status_field(&status, "nonvoluntary_ctxt_switches");
            }
        }
    }
    ProcSample {
        cpu_s,
        ctx_switches,
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM") as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// First integer on the line of `/proc/<pid>/status` that starts `key:`.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(s, "VmHWM"), 2048);
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), 7);
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches"), 3);
        assert_eq!(status_field(s, "missing"), 0);
    }

    #[test]
    fn only_cpu_seconds_are_restated() {
        // 3 s on the CPU of a host twice as slow as the reference, 1 s
        // blocked.
        let spent = Spent {
            wall_s: 4.0,
            cpu_s: 3.0,
        };
        assert_eq!(spent.at_reference_speed(2.0), 2.5);
        assert_eq!(spent.at_reference_speed(1.0), 4.0);
    }

    #[test]
    fn pace_restates_each_sample_once_by_its_own_piece() {
        let mut probe = Probe::for_link(false).unwrap();
        let mut pace = Pace::start(Some(&mut probe));
        let mut resolve = vec![100.0];
        pace.close(&mut resolve, &mut []);
        let first = resolve[0];
        assert!(first > 0.0 && first != 100.0);
        resolve.push(100.0);
        let (measured, reference_s, _) = pace.finish(&mut resolve, &mut []);
        assert_eq!(resolve[0], first);
        assert!(resolve[1] > 0.0 && resolve[1] != 100.0);
        assert!(measured.wall_s > 0.0 && reference_s > 0.0);
    }

    #[test]
    fn pace_without_a_probe_restates_nothing() {
        let mut pace = Pace::start(None);
        let mut resolve = vec![100.0];
        pace.tick(&mut resolve, &mut []);
        let (measured, reference_s, _) = pace.finish(&mut resolve, &mut []);
        assert_eq!(resolve, [100.0]);
        assert!((measured.wall_s - reference_s).abs() < 1e-9);
    }
}
