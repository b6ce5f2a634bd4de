//! Durable coordinator state: a bitcask-style write-ahead log plus
//! compacted snapshots (DESIGN.md §3.13, docs/DURABILITY.md).
//!
//! The coordinator journals protocol state transitions (via
//! [`automon_core::journal::Journal`]) into an append-only, CRC-framed
//! log; periodically a full [`automon_core::CoordinatorSnapshot`] is
//! checkpointed and the segments an older checkpoint fully covers are
//! dropped. Recovery loads the newest decodable checkpoint and folds the
//! valid log suffix on top — truncated tails, bit flips, and duplicated
//! segments all degrade to the last valid prefix, never to a panic or
//! silently corrupt state.
//!
//! All I/O goes through [`DiskManager`]; [`FileDisk`] persists to real
//! files while [`MemDisk`] gives the simulator a deterministic
//! in-memory filesystem with identical crash semantics, so a seeded
//! chaos run replays bit-identically on either backend.

mod disk;
pub mod record;
pub mod segment;
pub mod snapshot;

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use automon_core::journal::{Journal, Transition};
use automon_core::CoordinatorSnapshot;
use parking_lot::Mutex;

pub use disk::{DiskManager, FileDisk, MemDisk};
pub use record::{decode_stream, encode_record, JournalRecord};
pub use snapshot::StoredSnapshot;

/// When appended records become durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record (default; one record is the most a
    /// crash can lose, and with [`MemDisk`] it costs a length update).
    EveryRecord,
    /// Sync every `n` records; a crash loses at most `n - 1`.
    EveryN(u32),
    /// Only sync at snapshots, rotations, and explicit [`CoordinatorStore::sync`].
    Manual,
}

/// Store tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Rotate the active segment once it would exceed this many bytes.
    pub segment_bytes: u64,
    pub sync: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { segment_bytes: 64 * 1024, sync: SyncPolicy::EveryRecord }
    }
}

/// What recovery found.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// `covered_seq` of the checkpoint recovery started from.
    pub snapshot_seq: Option<u64>,
    /// Journal records folded on top of the checkpoint.
    pub records_replayed: usize,
    /// WAL segments scanned.
    pub segments_scanned: usize,
    /// First corruption encountered, if any (recovery still succeeds
    /// with the valid prefix).
    pub corruption: Option<String>,
}

/// The recovered coordinator state plus how it was assembled.
#[derive(Debug)]
pub struct RecoveredState {
    /// Checkpoint + replayed suffix, ready for `Coordinator::restore`.
    /// `None` when no decodable checkpoint exists (an empty or fully
    /// corrupt store).
    pub snapshot: Option<CoordinatorSnapshot>,
    pub report: RecoveryReport,
}

/// The durable coordinator store: WAL + checkpoints.
pub struct CoordinatorStore<D: DiskManager> {
    disk: D,
    opts: StoreOptions,
    /// Sequence number the next appended record will carry.
    next_seq: u64,
    /// Index of the active (append) segment.
    active: u64,
    active_bytes: u64,
    /// Records appended since the last sync (for `SyncPolicy::EveryN`).
    unsynced: u32,
    /// Highest record seq per segment, for coverage-based compaction.
    seg_max: BTreeMap<u64, u64>,
    /// `covered_seq` of checkpoints currently on disk, ascending.
    checkpoints: Vec<u64>,
    /// First append error, surfaced out-of-band (journaling must not
    /// unwind the protocol).
    io_error: Option<io::Error>,
}

impl<D: DiskManager> CoordinatorStore<D> {
    /// Open a store on `disk`, recovering whatever it holds.
    pub fn open(disk: D, opts: StoreOptions) -> io::Result<(Self, RecoveredState)> {
        let mut store = CoordinatorStore {
            disk,
            opts,
            next_seq: 0,
            active: 0,
            active_bytes: 0,
            unsynced: 0,
            seg_max: BTreeMap::new(),
            checkpoints: Vec::new(),
            io_error: None,
        };
        let recovered = store.recover()?;
        Ok((store, recovered))
    }

    /// Scan disk and rebuild all in-memory state; returns the
    /// recovered coordinator snapshot (checkpoint + valid log suffix).
    ///
    /// Callable at any time — after [`CoordinatorStore::crash`] it is
    /// how the store re-synchronizes with what actually survived.
    pub fn recover(&mut self) -> io::Result<RecoveredState> {
        self.seg_max.clear();
        self.checkpoints.clear();
        self.unsynced = 0;
        self.io_error = None;

        let mut segments: Vec<u64> = Vec::new();
        let mut snapshot_files: Vec<u64> = Vec::new();
        for name in self.disk.list()? {
            if let Some(idx) = segment::parse_segment_name(&name) {
                segments.push(idx);
            } else if let Some(seq) = segment::parse_snapshot_name(&name) {
                snapshot_files.push(seq);
            }
        }
        segments.sort_unstable();
        snapshot_files.sort_unstable();

        // Scan segments in creation order, enforcing a strictly
        // increasing global sequence. A regression means a duplicated
        // (re-copied) segment; any corruption ends the valid prefix —
        // later segments cannot be trusted to be contiguous.
        let mut replay: Vec<(u64, u64, JournalRecord)> = Vec::new();
        let mut corruption: Option<String> = None;
        let mut bad_seg: Option<u64> = None;
        let mut last_seq: Option<u64> = None;
        let mut segments_scanned = 0usize;
        'scan: for &seg in &segments {
            segments_scanned += 1;
            let bytes = self.disk.read(&segment::segment_name(seg))?;
            let (records, err) = decode_stream(&bytes);
            for (seq, rec) in records {
                if last_seq.is_some_and(|l| seq <= l) {
                    corruption = Some(format!(
                        "duplicated segment {seg}: seq {seq} not after {}",
                        last_seq.unwrap()
                    ));
                    bad_seg = Some(seg);
                    break 'scan;
                }
                last_seq = Some(seq);
                replay.push((seq, seg, rec));
            }
            if let Some(e) = err {
                corruption = Some(format!("segment {seg}: {e}"));
                bad_seg = Some(seg);
                break 'scan;
            }
        }

        // Quarantine the corruption. If the corrupt tail survived here,
        // the next recovery would re-break at this same spot and orphan
        // every record appended after THIS recovery — acknowledged
        // writes would silently vanish. The bad segment's decoded valid
        // prefix is copied to a fresh segment FIRST (encoding is
        // canonical, so the bytes are reproduced exactly), and only then
        // are the bad segment and the untrusted, never-replayed
        // segments after it deleted — so a crash at any point mid-
        // quarantine either leaves the old corrupt layout (re-
        // quarantined next time) or the clean one, never a state with
        // synced records lost.
        if let Some(bad) = bad_seg {
            let mut prefix: Vec<u8> = Vec::new();
            for (seq, seg, rec) in &replay {
                if *seg == bad {
                    prefix.extend_from_slice(&encode_record(*seq, rec));
                }
            }
            let mut rescue: Option<u64> = None;
            if !prefix.is_empty() {
                let fresh = segments.last().unwrap() + 1;
                let name = segment::segment_name(fresh);
                self.disk.append(&name, &prefix)?;
                self.disk.sync(&name)?;
                rescue = Some(fresh);
            }
            // Highest first, so a partial delete only ever shortens the
            // untrusted tail.
            for &seg in segments.iter().filter(|&&s| s > bad).rev() {
                self.disk.remove(&segment::segment_name(seg))?;
            }
            self.disk.remove(&segment::segment_name(bad))?;
            if let Some(fresh) = rescue {
                // The rescued records now live in the fresh segment.
                for (_, seg, _) in &mut replay {
                    if *seg == bad {
                        *seg = fresh;
                    }
                }
                segments.push(fresh);
            }
        }

        // Newest decodable checkpoint wins; corrupt ones fall back to
        // the previous (two-checkpoint retention keeps the segments it
        // needs — see `write_snapshot`). Undecodable checkpoints are
        // deleted from disk and dropped from `self.checkpoints`:
        // keeping one would let the next `write_snapshot` treat it as a
        // valid predecessor (or dedup target) and compact away the last
        // genuinely decodable checkpoint.
        let mut base: Option<StoredSnapshot> = None;
        let mut dead_snaps: Vec<u64> = Vec::new();
        for &seq in snapshot_files.iter().rev() {
            match self.disk.read(&segment::snapshot_name(seq)) {
                Ok(bytes) => {
                    if let Some(s) = snapshot::decode_snapshot(&bytes) {
                        base = Some(s);
                        break;
                    }
                    corruption.get_or_insert(format!("checkpoint {seq} undecodable"));
                    dead_snaps.push(seq);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        for &seq in &dead_snaps {
            self.disk.remove(&segment::snapshot_name(seq))?;
        }
        snapshot_files.retain(|s| !dead_snaps.contains(s));

        // Fold the valid suffix and rebuild the per-segment coverage.
        let covered = base.as_ref().map(|s| s.covered_seq).unwrap_or(0);
        let mut records_replayed = 0usize;
        let snapshot = base.as_ref().map(|b| {
            let mut snap = b.snapshot.clone();
            for (seq, _, rec) in &replay {
                if *seq >= covered {
                    snapshot::apply(&mut snap, rec);
                    records_replayed += 1;
                }
            }
            snap
        });
        for (seq, seg, _) in &replay {
            let max = self.seg_max.entry(*seg).or_insert(*seq);
            *max = (*max).max(*seq);
        }
        self.checkpoints = snapshot_files;

        // New appends go to a fresh segment (indices of removed
        // segments are never reused): the old active segment's tail may
        // hold unsynced bytes a later crash would discard out from
        // under anything appended after them.
        self.active = segments.last().map(|s| s + 1).unwrap_or(0);
        self.active_bytes = 0;
        self.next_seq = last_seq.map(|s| s + 1).unwrap_or(0).max(covered);

        Ok(RecoveredState {
            snapshot,
            report: RecoveryReport {
                snapshot_seq: base.map(|s| s.covered_seq),
                records_replayed,
                segments_scanned,
                corruption,
            },
        })
    }

    /// Append one journal record; returns its sequence number.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<u64> {
        let seq = self.next_seq;
        let frame = encode_record(seq, rec);
        if self.active_bytes > 0 && self.active_bytes + frame.len() as u64 > self.opts.segment_bytes
        {
            // Seal the active segment (durable up to its last record)
            // and rotate.
            self.disk.sync(&segment::segment_name(self.active))?;
            self.unsynced = 0;
            self.active += 1;
            self.active_bytes = 0;
        }
        let name = segment::segment_name(self.active);
        self.disk.append(&name, &frame)?;
        self.active_bytes += frame.len() as u64;
        let max = self.seg_max.entry(self.active).or_insert(seq);
        *max = (*max).max(seq);
        self.next_seq = seq + 1;
        match self.opts.sync {
            SyncPolicy::EveryRecord => self.disk.sync(&name)?,
            SyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.disk.sync(&name)?;
                    self.unsynced = 0;
                }
            }
            SyncPolicy::Manual => {}
        }
        Ok(seq)
    }

    /// Force the active segment durable (a manual sync point).
    pub fn sync(&mut self) -> io::Result<()> {
        self.disk.sync(&segment::segment_name(self.active))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Checkpoint `snap` and compact.
    ///
    /// The checkpoint covers every record appended so far (they are
    /// synced first). Compaction keeps TWO checkpoints — the new one
    /// and its predecessor — and only deletes segments fully covered by
    /// the *predecessor*, so if the newest checkpoint file is later
    /// found corrupt, recovery can still load the previous one and
    /// roll forward through the retained segments.
    pub fn write_snapshot(&mut self, snap: &CoordinatorSnapshot) -> io::Result<u64> {
        self.sync()?;
        let covered = self.next_seq;
        // No records since the newest checkpoint: it already covers
        // this exact state (every coordinator mutation journals a
        // record, so no records ⇒ no state change). Writing again
        // would append a second frame to the same `snap-<seq>` file
        // and make it undecodable — a checkpoint is one frame by
        // contract.
        if self.checkpoints.last() == Some(&covered) {
            return Ok(covered);
        }
        let stored = StoredSnapshot { covered_seq: covered, snapshot: snap.clone() };
        let name = segment::snapshot_name(covered);
        self.disk.append(&name, &snapshot::encode_snapshot(&stored))?;
        self.disk.sync(&name)?;

        let prev = self.checkpoints.last().copied();
        self.checkpoints.push(covered);

        // Drop checkpoints older than the predecessor.
        if let Some(prev) = prev {
            let (old, keep): (Vec<u64>, Vec<u64>) =
                self.checkpoints.iter().partition(|&&s| s < prev);
            for seq in old {
                self.disk.remove(&segment::snapshot_name(seq))?;
            }
            self.checkpoints = keep;
            // Drop segments fully covered by the predecessor
            // checkpoint (never the active one).
            let dead: Vec<u64> = self
                .seg_max
                .iter()
                .filter(|&(&seg, &max)| seg != self.active && max < prev)
                .map(|(&seg, _)| seg)
                .collect();
            for seg in dead {
                self.disk.remove(&segment::segment_name(seg))?;
                self.seg_max.remove(&seg);
            }
        }
        Ok(covered)
    }

    /// Simulate a crash at this instant: all unsynced appends are lost.
    /// The in-memory state is stale afterwards; call
    /// [`CoordinatorStore::recover`] before using the store again.
    pub fn crash(&mut self) {
        self.disk.crash();
    }

    /// Journal a coordinator transition, stashing (not propagating) the
    /// first I/O error — durability failures must not unwind the
    /// protocol mid-handle.
    pub fn journal(&mut self, t: Transition) {
        let rec = JournalRecord::from(t);
        if self.io_error.is_none() {
            if let Err(e) = self.append(&rec) {
                self.io_error = Some(e);
            }
        }
    }

    /// Take the first journaling error, if any occurred.
    pub fn take_io_error(&mut self) -> Option<io::Error> {
        self.io_error.take()
    }

    /// Sequence number the next record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Direct access to the backing disk (test + torture hook).
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }
}

/// Boxed disk backend, for stores whose backend is chosen at runtime.
pub type DynDisk = Box<dyn DiskManager>;
/// Store over a boxed backend.
pub type DynStore = CoordinatorStore<DynDisk>;

/// A shareable handle to a [`DynStore`].
///
/// The simulator holds one side and hands the coordinator the other
/// (as a `Box<dyn Journal>` adapter) so journaling and checkpointing
/// hit the same WAL.
#[derive(Clone)]
pub struct SharedStore(Arc<Mutex<DynStore>>);

impl SharedStore {
    pub fn new(store: DynStore) -> Self {
        SharedStore(Arc::new(Mutex::new(store)))
    }

    /// Open a store on a boxed backend and wrap it for sharing.
    pub fn open(disk: DynDisk, opts: StoreOptions) -> io::Result<(Self, RecoveredState)> {
        let (store, recovered) = CoordinatorStore::open(disk, opts)?;
        Ok((SharedStore::new(store), recovered))
    }

    pub fn lock(&self) -> std::sync::MutexGuard<'_, DynStore> {
        self.0.lock()
    }

    /// A journal sink the coordinator can own.
    pub fn journal(&self) -> Box<dyn Journal> {
        Box::new(SharedJournal(self.clone()))
    }
}

/// `Journal` adapter over a [`SharedStore`].
struct SharedJournal(SharedStore);

impl Journal for SharedJournal {
    fn record(&mut self, t: Transition) {
        self.0.lock().journal(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_core::CoordinatorStats;

    fn base_snap(n: usize) -> CoordinatorSnapshot {
        CoordinatorSnapshot {
            n,
            r: 1.0,
            zone: None,
            slack: vec![vec![0.0; 2]; n],
            known_x: vec![None; n],
            lru: Vec::new(),
            stats: CoordinatorStats::default(),
            consecutive_neighborhood: 0,
            epoch: 0,
            alive: vec![true; n],
            node_has_curvature: vec![false; n],
        }
    }

    fn node_rec(node: usize, v: f64) -> JournalRecord {
        JournalRecord::Node { node, x: Some(vec![v, v]), slack: vec![0.0, 0.0], alive: true, has_curvature: false }
    }

    fn mem_store(opts: StoreOptions) -> DynStore {
        CoordinatorStore::open(Box::new(MemDisk::new()) as DynDisk, opts).unwrap().0
    }

    #[test]
    fn checkpoint_plus_replay_round_trip() {
        let mut store = mem_store(StoreOptions::default());
        store.write_snapshot(&base_snap(3)).unwrap();
        store.append(&node_rec(0, 1.0)).unwrap();
        store.append(&node_rec(2, 5.0)).unwrap();
        store.append(&JournalRecord::Zone { epoch: 4, r: 2.5, zone: None }).unwrap();
        store.crash();
        let rec = store.recover().unwrap();
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.known_x[0], Some(vec![1.0, 1.0]));
        assert_eq!(snap.known_x[2], Some(vec![5.0, 5.0]));
        assert_eq!(snap.epoch, 4);
        assert_eq!(rec.report.records_replayed, 3);
        assert!(rec.report.corruption.is_none());
    }

    #[test]
    fn crash_loses_only_unsynced_records() {
        let mut store = mem_store(StoreOptions { sync: SyncPolicy::EveryN(2), ..Default::default() });
        store.write_snapshot(&base_snap(2)).unwrap();
        store.append(&node_rec(0, 1.0)).unwrap();
        store.append(&node_rec(1, 2.0)).unwrap(); // 2nd record triggers sync
        store.append(&node_rec(0, 9.0)).unwrap(); // unsynced, lost
        store.crash();
        let rec = store.recover().unwrap();
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.known_x[0], Some(vec![1.0, 1.0]), "unsynced overwrite lost");
        assert_eq!(rec.report.records_replayed, 2);
    }

    #[test]
    fn segment_rotation_and_fresh_active_after_recovery() {
        let mut store = mem_store(StoreOptions { segment_bytes: 128, ..Default::default() });
        store.write_snapshot(&base_snap(2)).unwrap();
        for i in 0..20 {
            store.append(&node_rec(i % 2, i as f64)).unwrap();
        }
        let segs = store
            .disk_mut()
            .list()
            .unwrap()
            .iter()
            .filter(|n| segment::parse_segment_name(n).is_some())
            .count();
        assert!(segs > 1, "128-byte segments must rotate");
        store.crash();
        let rec = store.recover().unwrap();
        assert_eq!(rec.report.records_replayed, 20);
        let next = store.next_seq();
        store.append(&node_rec(0, 99.0)).unwrap();
        assert_eq!(store.next_seq(), next + 1);
    }

    #[test]
    fn compaction_keeps_two_checkpoints_and_covered_segments() {
        let mut store = mem_store(StoreOptions { segment_bytes: 128, ..Default::default() });
        store.write_snapshot(&base_snap(2)).unwrap();
        for round in 0..4u64 {
            for i in 0..10u64 {
                store.append(&node_rec((i % 2) as usize, (round * 10 + i) as f64)).unwrap();
            }
            store.write_snapshot(&base_snap(2)).unwrap();
        }
        let names = store.disk_mut().list().unwrap();
        let snaps = names.iter().filter(|n| segment::parse_snapshot_name(n).is_some()).count();
        assert_eq!(snaps, 2, "exactly the two newest checkpoints are retained: {names:?}");
        // Everything still recovers cleanly after compaction.
        store.crash();
        let rec = store.recover().unwrap();
        assert!(rec.report.corruption.is_none());
        assert!(rec.snapshot.is_some());
    }

    #[test]
    fn empty_store_recovers_to_nothing() {
        let (_, rec) =
            CoordinatorStore::open(Box::new(MemDisk::new()) as DynDisk, StoreOptions::default())
                .unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.report, RecoveryReport::default());
    }

    #[test]
    fn shared_journal_feeds_the_same_wal() {
        let (shared, _) =
            SharedStore::open(Box::new(MemDisk::new()) as DynDisk, StoreOptions::default())
                .unwrap();
        shared.lock().write_snapshot(&base_snap(2)).unwrap();
        let mut journal = shared.journal();
        journal.record(Transition::Node { node: 1, x: Some(vec![7.0, 7.0]), slack: vec![0.0, 0.0], alive: true, has_curvature: false });
        let rec = shared.lock().recover().unwrap();
        assert_eq!(rec.snapshot.unwrap().known_x[1], Some(vec![7.0, 7.0]));
    }
}
