//! End-to-end coordinator crash/recovery (docs/DURABILITY.md): a
//! chaos run that kills the coordinator mid-stream must rebuild it
//! from the durable store (checkpoint + WAL replay), resync the fleet
//! with the traffic charged to the `recovery` ledger cause, and still
//! converge within ε — all of it deterministically: same seed, same
//! crash schedule ⇒ byte-identical stats, fault trace, ledger, and
//! telemetry trace, on the in-memory and the real-file disk backend
//! alike. A store error ends the run, named; when a due checkpoint lands
//! is checked in `snapshot_deferred.rs`.

use std::io;
use std::sync::{Arc, Mutex};

use automon_autodiff::AutoDiffFn;
use automon_chaos::FaultPlan;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_data::synthetic::InnerProductDataset;
use automon_data::windowed_mean_series;
use automon_functions::InnerProduct;
use automon_obs::Telemetry;
use automon_sim::{RecoveryConfig, Simulation, Workload};
use automon_store::{DiskManager, DynDisk, FileDisk, MemDisk};

const EPSILON: f64 = 0.25;

fn setup(seed: u64) -> (Arc<dyn MonitoredFunction>, MonitorConfig, Workload) {
    let (nodes, rounds, dim) = (4, 90, 4);
    let raw = InnerProductDataset::generate(nodes, rounds + 19, dim, seed);
    let w = Workload::from_dense(&windowed_mean_series(&raw, 20));
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(InnerProduct::new(dim)));
    (f, MonitorConfig::builder(EPSILON).build(), w)
}

fn crashing_plan() -> FaultPlan {
    FaultPlan::seeded(7)
        .with_drop_rate(0.08)
        .with_coordinator_crash(30)
        .with_coordinator_crash(60)
}

fn sim(f: Arc<dyn MonitoredFunction>, cfg: MonitorConfig, plan: FaultPlan) -> Simulation {
    Simulation::new(f, cfg)
        .with_plan(plan)
        .with_recovery(RecoveryConfig { retransmit_after: 2, evict_after: 4 })
}

#[test]
fn fleet_converges_after_coordinator_crashes() {
    let (f, cfg, w) = setup(11);
    let report = sim(f, cfg, crashing_plan()).run_report(&w);
    assert!(report.quiesced, "protocol must drain after recovery");
    assert_eq!(report.stats.coordinator_recoveries, 2, "both scheduled crashes recover");
    // The ε-guarantee holds once the fleet re-converges.
    assert!(
        report.stats.final_error <= EPSILON,
        "post-recovery error {} exceeds ε",
        report.stats.final_error
    );
    // Recovery traffic is visible — and charged to its own cause.
    let ledger = report.stats.ledger.as_deref().expect("ledger attached");
    let recovery = ledger
        .iter()
        .find(|row| row.cause == "recovery")
        .expect("recovery cause present in the ledger");
    assert!(recovery.msgs > 0, "recovery resync sends messages");
    assert!(recovery.bytes > 0);
    // Conservation still holds with the new cause in the mix.
    let msgs: u64 = ledger.iter().map(|r| r.msgs).sum();
    let bytes: u64 = ledger.iter().map(|r| r.bytes).sum();
    assert_eq!(msgs as usize, report.stats.messages);
    assert_eq!(bytes as usize, report.stats.payload_bytes);
}

#[test]
fn crash_recovery_is_deterministic() {
    let (f, cfg, w) = setup(11);
    let run = || {
        let tel = Telemetry::enabled();
        let report = sim(f.clone(), cfg.clone(), crashing_plan())
            .with_telemetry(tel.clone())
            .run_report(&w);
        (report, tel.trace_jsonl())
    };
    let (a, trace_a) = run();
    let (b, trace_b) = run();
    assert_eq!(a.stats, b.stats, "same seed + crash schedule ⇒ identical stats");
    assert_eq!(a.fault_trace, b.fault_trace);
    assert_eq!(a.quiesced, b.quiesced);
    assert_eq!(trace_a, trace_b, "telemetry trace must be byte-identical");
    assert!(
        trace_a.contains("coordinator_recovered"),
        "recovery emits its trace event"
    );
}

#[test]
fn memory_and_file_backends_replay_identically() {
    let (f, cfg, w) = setup(11);
    let mem = sim(f.clone(), cfg.clone(), crashing_plan())
        .with_store(|| Box::new(MemDisk::new()) as DynDisk, 16)
        .run_report(&w);
    let dir = std::env::temp_dir().join(format!("automon-crash-recovery-{}", std::process::id()));
    let dir2 = dir.clone();
    let file = sim(f, cfg, crashing_plan())
        .with_store(
            move || Box::new(FileDisk::open(&dir2).expect("temp wal dir")) as DynDisk,
            16,
        )
        .run_report(&w);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(mem.stats, file.stats, "backends must be behaviorally indistinguishable");
    assert_eq!(mem.fault_trace, file.fault_trace);
    assert_eq!(mem.quiesced, file.quiesced);
}

#[test]
fn snapshot_cadence_does_not_change_results() {
    // Recovery replays checkpoint + WAL suffix; where the checkpoint
    // fell must be invisible to the outcome.
    let (f, cfg, w) = setup(11);
    let base = sim(f.clone(), cfg.clone(), crashing_plan())
        .with_store(|| Box::new(MemDisk::new()) as DynDisk, 1)
        .run_report(&w);
    for interval in [4usize, 16, 1000] {
        let got = sim(f.clone(), cfg.clone(), crashing_plan())
            .with_store(|| Box::new(MemDisk::new()) as DynDisk, interval)
            .run_report(&w);
        assert_eq!(got.stats, base.stats, "snapshot interval {interval} changed the run");
        assert_eq!(got.fault_trace, base.fault_trace);
    }
}

#[test]
fn crash_before_initialization_recovers() {
    // Crash at round 0: the store holds only the baseline checkpoint;
    // recovery must not panic and the run must still converge.
    let (f, cfg, w) = setup(3);
    let plan = FaultPlan::seeded(3).with_coordinator_crash(0);
    let report = sim(f, cfg, plan).run_report(&w);
    assert!(report.quiesced);
    assert_eq!(report.stats.coordinator_recoveries, 1);
    assert!(report.stats.final_error <= EPSILON);
}

#[test]
fn crashes_compose_with_node_faults() {
    // Coordinator crashes while a node is down and frames are dropping:
    // the recovered coordinator must drive eviction/rejoin to
    // completion like an uninterrupted one.
    let (f, cfg, w) = setup(19);
    let plan = FaultPlan::seeded(5)
        .with_drop_rate(0.1)
        .with_crash(2, 25, Some(45))
        .with_coordinator_crash(35);
    let a = sim(f.clone(), cfg.clone(), plan.clone()).run_report(&w);
    let b = sim(f, cfg, plan).run_report(&w);
    assert!(a.quiesced, "composite faults must still drain");
    assert_eq!(a.stats.coordinator_recoveries, 1);
    assert_eq!(a.stats, b.stats, "composite runs stay deterministic");
    assert_eq!(a.fault_trace, b.fault_trace);
}

/// What a [`Probe`] saw, in order: each WAL append (`false`) and each
/// checkpoint written (`true`), with its round on the telemetry clock.
type ProbeLog = Vec<(u64, bool)>;

/// A [`MemDisk`] that logs into a shared [`ProbeLog`] and fails its
/// `fail_sync`-th `sync` (1-based; `usize::MAX` never fails).
struct Probe {
    disk: MemDisk,
    clock: Telemetry,
    fail_sync: usize,
    syncs: usize,
    log: Arc<Mutex<ProbeLog>>,
}

impl DiskManager for Probe {
    fn append(&mut self, file: &str, data: &[u8]) -> io::Result<()> {
        let round = self.clock.round();
        self.log.lock().unwrap().push((round, file.starts_with("snap-")));
        self.disk.append(file, data)
    }
    fn sync(&mut self, file: &str) -> io::Result<()> {
        self.syncs += 1;
        if self.syncs == self.fail_sync {
            return Err(io::Error::other("injected sync failure"));
        }
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

/// Attach a [`Probe`] store checkpointing every `interval` rounds; the
/// log it fills.
fn probed(
    sim: Simulation,
    tel: &Telemetry,
    fail_sync: usize,
    interval: usize,
) -> (Simulation, Arc<Mutex<ProbeLog>>) {
    let log = Arc::new(Mutex::new(ProbeLog::default()));
    let (clock, shared) = (tel.clone(), log.clone());
    let sim = sim.with_telemetry(tel.clone()).with_store(
        move || {
            Box::new(Probe {
                disk: MemDisk::new(),
                clock: clock.clone(),
                fail_sync,
                syncs: 0,
                log: shared.clone(),
            }) as DynDisk
        },
        interval,
    );
    (sim, log)
}

#[test]
fn a_failed_wal_sync_ends_the_run_naming_the_store() {
    let (f, cfg, w) = setup(11);
    let run = |fail_sync| {
        let plain = Simulation::new(f.clone(), cfg.clone());
        let (sim, log) = probed(plain, &Telemetry::disabled(), fail_sync, 16);
        let report = sim.run_report(&w);
        let appends = log.lock().unwrap().iter().filter(|(_, snap)| !snap).count();
        (report, appends)
    };
    let (healthy, all) = run(usize::MAX);
    assert!(healthy.quiesced);
    assert_eq!(healthy.failure, None);
    assert_eq!(all, 171);
    // Syncs 1 and 2 are the baseline checkpoint's; the 21st is the 19th
    // record's. Nothing is journaled after it, so the run must stop.
    let (failed, appended) = run(21);
    assert_eq!(appended, 19);
    assert!(!failed.quiesced);
    let stage = failed.failure.as_deref().expect("a store error ends the run");
    assert_eq!(stage, "store journal append: injected sync failure");
    assert!(failed.stats.messages < healthy.stats.messages);
}

#[test]
fn a_failed_checkpoint_or_recovery_scan_ends_the_run_naming_the_store() {
    let (f, cfg, w) = setup(11);
    // The baseline checkpoint's file sync.
    let plain = Simulation::new(f.clone(), cfg.clone());
    let (probe, _) = probed(plain, &Telemetry::disabled(), 2, 16);
    let report = probe.run_report(&w);
    assert_eq!(report.failure.as_deref(), Some("store checkpoint: injected sync failure"));
    assert_eq!(report.stats.messages, 0, "the run ends before round 0");
    // A recovery scan that finds no checkpoint: the crash at round 30
    // meets a store whose files were all lost.
    let plan = FaultPlan::seeded(7).with_coordinator_crash(30);
    let report = sim(f, cfg, plan)
        .with_store(|| Box::new(Forgetful(MemDisk::new())) as DynDisk, 16)
        .run_report(&w);
    assert_eq!(
        report.failure.as_deref(),
        Some("store recovery scan: no decodable checkpoint")
    );
    assert_eq!(report.stats.coordinator_recoveries, 0);
    assert!(!report.quiesced);
}

/// A [`MemDisk`] that never makes anything durable: a crash loses it all.
struct Forgetful(MemDisk);

impl DiskManager for Forgetful {
    fn append(&mut self, file: &str, data: &[u8]) -> io::Result<()> {
        self.0.append(file, data)
    }
    fn sync(&mut self, _: &str) -> io::Result<()> {
        Ok(())
    }
    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        self.0.read(file)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.0.list()
    }
    fn remove(&mut self, file: &str) -> io::Result<()> {
        self.0.remove(file)
    }
    fn crash(&mut self) {
        self.0.crash()
    }
}
