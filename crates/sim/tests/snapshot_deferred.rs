//! Deferred-checkpoint semantics on the round driver (docs/DURABILITY.md):
//! a checkpoint that falls due while a violation resolution is in flight
//! must not be silently skipped — it waits and lands at the first round
//! that ends quiescent, due ticks that wait together land as one, and
//! the `automon_coord_snapshot_{taken,deferred}_total` counter pair
//! accounts for the checkpoints written and the requests that waited.
//!
//! A logging disk shows which ticks waited: a checkpoint lands unwritten
//! when nothing was journaled since the last one (the state is
//! unchanged, so the coordinator is still quiescent; `taken` does not
//! count it), and written when something was. So between two written checkpoints, every tick from
//! the round of the first record after the earlier one waited. The
//! oracle for "the first quiescent round" is the same run checkpointing
//! every round (the cadence does not change the run): it writes a
//! checkpoint at the first round that ends quiescent after an open sync,
//! which journaled records.

use std::io;
use std::sync::{Arc, Mutex};

use automon_autodiff::AutoDiffFn;
use automon_chaos::FaultPlan;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_functions::InnerProduct;
use automon_obs::{parse_prometheus, value_of, Telemetry};
use automon_sim::{RecoveryConfig, RunReport, Simulation, Workload};
use automon_store::{DiskManager, DynDisk, MemDisk};

/// Checkpoint interval of the runs under test.
const K: u64 = 4;

/// Whether a checkpoint falls due at the end of round `t`.
fn is_tick(t: u64) -> bool {
    (t + 1).is_multiple_of(K)
}

/// Each WAL append (`false`) and each checkpoint written (`true`), in
/// order, with its round on the telemetry clock.
type Log = Vec<(u64, bool)>;

/// A [`MemDisk`] that logs its appends into a shared [`Log`].
struct Logging {
    disk: MemDisk,
    clock: Telemetry,
    log: Arc<Mutex<Log>>,
}

impl DiskManager for Logging {
    fn append(&mut self, file: &str, data: &[u8]) -> io::Result<()> {
        let round = self.clock.round();
        self.log.lock().unwrap().push((round, file.starts_with("snap-")));
        self.disk.append(file, data)
    }
    fn sync(&mut self, file: &str) -> io::Result<()> {
        self.disk.sync(file)
    }
    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        self.disk.read(file)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.disk.list()
    }
    fn remove(&mut self, file: &str) -> io::Result<()> {
        self.disk.remove(file)
    }
    fn crash(&mut self) {
        self.disk.crash()
    }
}

/// What one run left: its report, the snapshot counters, the disk's log
/// and the number of rounds it drove.
struct Run {
    report: RunReport,
    taken: usize,
    deferred: usize,
    log: Log,
    rounds: u64,
}

/// One lossy run (no coordinator crash) checkpointing every `interval`
/// rounds.
fn run(interval: usize) -> Run {
    let (nodes, rounds, dim) = (4, 90, 4);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, 11);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(dim)));
    let tel = Telemetry::enabled();
    let log = Arc::new(Mutex::new(Log::default()));
    let (clock, shared) = (tel.clone(), log.clone());
    let report = Simulation::new(f, MonitorConfig::builder(0.25).build())
        .with_plan(FaultPlan::seeded(4).with_drop_rate(0.15))
        .with_recovery(RecoveryConfig { retransmit_after: 2, evict_after: 4 })
        .with_telemetry(tel.clone())
        .with_store(
            move || {
                Box::new(Logging {
                    disk: MemDisk::new(),
                    clock: clock.clone(),
                    log: shared.clone(),
                }) as DynDisk
            },
            interval,
        )
        .run_report(&w);
    assert!(report.quiesced && report.failure.is_none());
    let samples = parse_prometheus(&tel.prometheus()).expect("well-formed exposition");
    let count = |name| value_of(&samples, name, &[]).expect("registered") as usize;
    let log = std::mem::take(&mut *log.lock().unwrap());
    Run {
        report,
        taken: count("automon_coord_snapshot_taken_total"),
        deferred: count("automon_coord_snapshot_deferred_total"),
        log,
        rounds: w.rounds() as u64,
    }
}

/// A written checkpoint after the baseline: the round of the first
/// record since the previous one (`from`) and the round it landed (`at`).
struct Landing {
    from: u64,
    at: u64,
}

impl Landing {
    /// The due ticks this checkpoint answers that had to wait.
    fn waited(&self) -> usize {
        (self.from..self.at).filter(|&r| is_tick(r)).count()
    }
}

fn landings(log: &Log) -> Vec<Landing> {
    let mut out = Vec::new();
    let mut first_record = None;
    // The first event is the baseline checkpoint, before round 0.
    assert_eq!(log.first().map(|e| e.1), Some(true), "{log:?}");
    for &(at, checkpoint) in &log[1..] {
        if !checkpoint {
            first_record.get_or_insert(at);
            continue;
        }
        let from = first_record.take().expect("a written checkpoint follows a record");
        out.push(Landing { from, at });
    }
    out
}

#[test]
fn mid_sync_snapshot_defers_then_lands_at_quiescence() {
    let every = run(1);
    let oracle: Vec<u64> = every.log.iter().filter(|e| e.1).map(|e| e.0).collect();
    let Run { report, taken, deferred, log, .. } = run(K as usize);
    assert_eq!(report.stats, every.report.stats, "the cadence must not change the run");
    assert_eq!((taken, deferred), (6, 4));

    let mut late = 0;
    for landing in landings(&log).iter().filter(|l| !is_tick(l.at)) {
        late += 1;
        let due = (landing.from..landing.at)
            .rev()
            .find(|&r| is_tick(r))
            .expect("a late checkpoint was due");
        let quiescent = oracle.iter().copied().find(|&r| r > due);
        assert_eq!(
            quiescent,
            Some(landing.at),
            "due at round {due}, landed at round {}",
            landing.at
        );
    }
    assert!(late > 0, "no checkpoint fell due mid-sync: {log:?}");
}

#[test]
fn repeated_mid_sync_requests_coalesce() {
    let Run { taken, deferred, log, rounds, .. } = run(K as usize);
    let landings = landings(&log);
    // Every deferral is one waiting tick, and ticks that wait together
    // are answered by one checkpoint.
    let waited: usize = landings.iter().map(Landing::waited).sum();
    assert_eq!(waited, deferred, "{log:?}");
    let coalesced: Vec<usize> = landings.iter().map(Landing::waited).filter(|&n| n > 1).collect();
    assert!(!coalesced.is_empty(), "no two ticks waited together: {log:?}");
    // `taken` counts the checkpoints the disk was given.
    assert_eq!(taken, log.iter().filter(|e| e.1).count(), "{log:?}");
    // A due tick that did not wait landed at once, written only when
    // something was journaled since the last written checkpoint. So
    // `taken` is the baseline plus one per due tick, less the ticks
    // absorbed by a coalesced landing and those that landed unwritten.
    let ticks = (0..rounds).filter(|&t| is_tick(t)).count();
    let absorbed: usize = coalesced.iter().map(|n| n - 1).sum();
    let unwritten = (0..rounds)
        .filter(|&t| is_tick(t))
        .filter(|&t| !landings.iter().any(|l| (l.from..l.at).contains(&t)))
        .filter(|&t| log.iter().rev().find(|e| e.0 <= t).is_some_and(|e| e.1 && e.0 < t))
        .count();
    assert_eq!(taken, 1 + ticks - absorbed - unwritten, "{log:?}");
}
