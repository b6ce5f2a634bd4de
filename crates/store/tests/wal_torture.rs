//! WAL torture tests: every corruption the durability contract names —
//! truncated tail record, bit-flipped checksum, duplicated segment,
//! corrupt checkpoint — must be *detected* and recovery must fall back
//! to the last valid prefix. Never a panic, never silently corrupt
//! state (docs/DURABILITY.md).

use automon_core::journal::Transition;
use automon_core::{CoordinatorSnapshot, CoordinatorStats};
use automon_store::record;
use automon_store::segment;
use automon_store::{CoordinatorStore, DiskManager, FileDisk, MemDisk, StoreOptions};

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

fn node_rec(node: usize, v: f64) -> Transition {
    Transition::Node { node, x: Some(vec![v, v]), slack: vec![0.0, 0.0], alive: true, has_curvature: false }
}

fn mem_store(opts: StoreOptions) -> CoordinatorStore<MemDisk> {
    CoordinatorStore::open(MemDisk::new(), opts).unwrap().0
}

/// Checkpoint, then append `values` as node-0 records (synced).
fn seed_store(opts: StoreOptions, values: &[f64]) -> CoordinatorStore<MemDisk> {
    let mut store = mem_store(opts);
    store.write_snapshot(&base_snap(2)).unwrap();
    for &v in values {
        store.append(&node_rec(0, v)).unwrap();
    }
    store.sync().unwrap();
    store
}

#[test]
fn truncated_tail_record_falls_back_to_valid_prefix() {
    let mut store = seed_store(StoreOptions::default(), &[1.0, 2.0, 3.0]);
    let seg = segment::segment_name(0);
    let mut bytes = store.disk_mut().contents(&seg).expect("segment exists");
    // Cut into the last frame: the tail record is half-written.
    bytes.truncate(bytes.len() - 5);
    store.disk_mut().set_contents(&seg, bytes);

    let rec = store.recover().unwrap();
    let snap = rec.snapshot.expect("checkpoint survives");
    assert_eq!(snap.known_x[0], Some(vec![2.0, 2.0]), "prefix up to the cut replays");
    assert_eq!(rec.report.records_replayed, 2);
    assert!(
        rec.report.corruption.as_deref().unwrap().contains("truncated"),
        "{:?}",
        rec.report.corruption
    );
}

#[test]
fn bit_flipped_checksum_is_detected_and_prefix_kept() {
    let mut store = seed_store(StoreOptions::default(), &[1.0, 2.0, 3.0]);
    let seg = segment::segment_name(0);
    let mut bytes = store.disk_mut().contents(&seg).expect("segment exists");
    // Flip one payload bit in the middle record (frames are equal-sized
    // here, so the middle starts at a third of the stream).
    let off = bytes.len() / 3 + record::HEADER_LEN + 2;
    bytes[off] ^= 0x40;
    store.disk_mut().set_contents(&seg, bytes);

    let rec = store.recover().unwrap();
    let snap = rec.snapshot.expect("checkpoint survives");
    assert_eq!(snap.known_x[0], Some(vec![1.0, 1.0]), "only the pre-flip prefix replays");
    assert_eq!(rec.report.records_replayed, 1);
    assert!(
        rec.report.corruption.as_deref().unwrap().contains("crc mismatch"),
        "{:?}",
        rec.report.corruption
    );
}

#[test]
fn duplicated_segment_breaks_the_sequence_and_stops_the_scan() {
    // Tiny segments so the log spans several files.
    let opts = StoreOptions { segment_bytes: 128 };
    let mut store = seed_store(opts, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let segs: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_segment_name(n).is_some())
        .collect();
    assert!(segs.len() >= 3, "need several segments for this test: {segs:?}");
    // An operator "restores" an old segment over a newer one: its seqs
    // regress relative to the segment before it.
    let old = store.disk_mut().contents(&segs[0]).unwrap();
    let victim = segs[segs.len() - 1].clone();
    store.disk_mut().set_contents(&victim, old);

    let rec = store.recover().unwrap();
    assert!(rec.snapshot.is_some());
    assert!(
        rec.report.corruption.as_deref().unwrap().contains("duplicated segment"),
        "{:?}",
        rec.report.corruption
    );
    // Replay stops before the duplicated segment; nothing from it (or
    // after it) is applied twice.
    assert!(rec.report.records_replayed < 8);
}

#[test]
fn corruption_invalidates_all_later_segments() {
    let opts = StoreOptions { segment_bytes: 128 };
    let mut store = seed_store(opts, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let segs: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_segment_name(n).is_some())
        .collect();
    assert!(segs.len() >= 3);
    // Corrupt the FIRST segment: even though later segments are intact,
    // they cannot be trusted to be contiguous with the valid prefix.
    let mut bytes = store.disk_mut().contents(&segs[0]).unwrap();
    bytes[record::HEADER_LEN + 1] ^= 0xFF;
    store.disk_mut().set_contents(&segs[0], bytes);

    let rec = store.recover().unwrap();
    assert_eq!(rec.report.records_replayed, 0, "nothing after the corruption replays");
    assert!(rec.report.corruption.is_some());
    let snap = rec.snapshot.expect("checkpoint itself is intact");
    assert_eq!(snap.known_x[0], None, "state is the checkpoint, not a gapped replay");
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let mut store = mem_store(StoreOptions::default());
    store.write_snapshot(&base_snap(2)).unwrap();
    store.append(&node_rec(0, 1.0)).unwrap();
    let mut marked = base_snap(2);
    marked.epoch = 9;
    store.write_snapshot(&marked).unwrap(); // newest checkpoint: epoch 9
    store.append(&node_rec(0, 2.0)).unwrap();
    store.sync().unwrap();

    // Trash the newest checkpoint file.
    let snaps: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_snapshot_name(n).is_some())
        .collect();
    assert_eq!(snaps.len(), 2, "two-checkpoint retention: {snaps:?}");
    let newest = snaps.last().unwrap().clone();
    store.disk_mut().set_contents(&newest, vec![0xDE, 0xAD, 0xBE, 0xEF]);

    let rec = store.recover().unwrap();
    let snap = rec.snapshot.expect("previous checkpoint still loads");
    // The previous checkpoint (epoch 0) plus the full retained log: the
    // epoch-9 Zone state was never journaled, so we see epoch 0 with
    // both node records folded in.
    assert_eq!(snap.epoch, 0);
    assert_eq!(snap.known_x[0], Some(vec![2.0, 2.0]), "retained segments roll forward");
    assert!(
        rec.report.corruption.as_deref().unwrap().contains("checkpoint"),
        "{:?}",
        rec.report.corruption
    );
}

#[test]
fn both_checkpoints_corrupt_recovers_to_none_without_panicking() {
    let mut store = mem_store(StoreOptions::default());
    store.write_snapshot(&base_snap(2)).unwrap();
    store.append(&node_rec(0, 1.0)).unwrap();
    store.write_snapshot(&base_snap(2)).unwrap();
    let snaps: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_snapshot_name(n).is_some())
        .collect();
    for name in snaps {
        store.disk_mut().set_contents(&name, vec![0x00; 8]);
    }
    let rec = store.recover().unwrap();
    assert!(rec.snapshot.is_none(), "no decodable checkpoint anywhere");
    assert!(rec.report.corruption.is_some());
    // The store stays writable: new appends land in a fresh segment.
    store.append(&node_rec(1, 3.0)).unwrap();
}

#[test]
fn garbage_and_foreign_files_are_ignored() {
    let mut store = seed_store(StoreOptions::default(), &[1.0]);
    store.disk_mut().set_contents("README.txt", b"not a wal file".to_vec());
    store.disk_mut().set_contents("wal-garbage.log", vec![0xFF; 64]);
    let rec = store.recover().unwrap();
    assert!(rec.report.corruption.is_none(), "{:?}", rec.report.corruption);
    assert_eq!(rec.snapshot.unwrap().known_x[0], Some(vec![1.0, 1.0]));
}

#[test]
fn compaction_then_torture_still_recovers() {
    // After compaction has deleted old segments/checkpoints, tail
    // corruption must still fall back cleanly.
    let opts = StoreOptions { segment_bytes: 256 };
    let mut store = mem_store(opts);
    for round in 0..5u64 {
        for i in 0..6u64 {
            store.append(&node_rec((i % 2) as usize, (round * 10 + i) as f64)).unwrap();
        }
        store.write_snapshot(&base_snap(2)).unwrap();
    }
    store.append(&node_rec(0, 99.0)).unwrap();
    store.sync().unwrap();
    // Truncate the newest segment's tail.
    let segs: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_segment_name(n).is_some())
        .collect();
    let tail = segs.last().unwrap().clone();
    let mut bytes = store.disk_mut().contents(&tail).unwrap();
    let keep = bytes.len().saturating_sub(7);
    bytes.truncate(keep);
    store.disk_mut().set_contents(&tail, bytes);

    let rec = store.recover().unwrap();
    assert!(rec.snapshot.is_some());
    assert!(rec.report.corruption.is_some());
    // And the store remains append-able afterwards — crucially, records
    // appended AFTER a corruption-recovery must survive the NEXT
    // recovery (the corrupt tail was quarantined, not left to re-break
    // the scan).
    store.append(&node_rec(1, 100.0)).unwrap();
    store.crash();
    let rec2 = store.recover().unwrap();
    let snap2 = rec2.snapshot.expect("checkpoint still loads");
    assert_eq!(
        snap2.known_x[1],
        Some(vec![100.0, 100.0]),
        "post-recovery append survives the next recovery"
    );
    assert!(rec2.report.corruption.is_none(), "{:?}", rec2.report.corruption);
}

#[test]
fn corrupt_tail_is_quarantined_so_later_appends_survive_rerecovery() {
    // Regression: checkpoint + 2 records, truncate the segment tail,
    // recover (ok), append a synced record, recover again — the new
    // record must still be there. Before tail quarantine the second
    // scan re-broke at the old corruption and never reached the fresh
    // segment.
    let mut store = seed_store(StoreOptions::default(), &[1.0, 2.0]);
    let seg = segment::segment_name(0);
    let mut bytes = store.disk_mut().contents(&seg).expect("segment exists");
    bytes.truncate(bytes.len() - 5);
    store.disk_mut().set_contents(&seg, bytes);

    let rec = store.recover().unwrap();
    assert!(rec.report.corruption.is_some());
    assert_eq!(rec.snapshot.unwrap().known_x[0], Some(vec![1.0, 1.0]));

    store.append(&node_rec(1, 7.0)).unwrap(); // every record is synced
    store.crash();
    let rec2 = store.recover().unwrap();
    assert!(rec2.report.corruption.is_none(), "{:?}", rec2.report.corruption);
    let snap = rec2.snapshot.unwrap();
    assert_eq!(snap.known_x[0], Some(vec![1.0, 1.0]), "rescued prefix still replays");
    assert_eq!(snap.known_x[1], Some(vec![7.0, 7.0]), "acknowledged post-recovery write survives");
}

#[test]
fn filedisk_quarantines_corrupt_tail_like_memdisk() {
    // The quarantine path must behave identically on the real file
    // backend (including the directory syncs its remove/create hit).
    let root = std::env::temp_dir()
        .join(format!("automon-store-torture-{}-quarantine", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    {
        let disk = FileDisk::open(&root).unwrap();
        let (mut store, _) = CoordinatorStore::open(disk, StoreOptions::default()).unwrap();
        store.write_snapshot(&base_snap(2)).unwrap();
        store.append(&node_rec(0, 1.0)).unwrap();
        store.append(&node_rec(0, 2.0)).unwrap();
    }
    // Truncate the segment's tail on the real filesystem.
    let seg_path = root.join(segment::segment_name(0));
    let len = std::fs::metadata(&seg_path).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&seg_path).unwrap().set_len(len - 5).unwrap();

    let disk = FileDisk::open(&root).unwrap();
    let (mut store, rec) = CoordinatorStore::open(disk, StoreOptions::default()).unwrap();
    assert!(rec.report.corruption.is_some());
    assert_eq!(rec.snapshot.unwrap().known_x[0], Some(vec![1.0, 1.0]));
    assert!(!seg_path.exists(), "corrupt segment quarantined off disk");
    store.append(&node_rec(1, 7.0)).unwrap();
    drop(store);

    let disk = FileDisk::open(&root).unwrap();
    let (_, rec2) = CoordinatorStore::open(disk, StoreOptions::default()).unwrap();
    assert!(rec2.report.corruption.is_none(), "{:?}", rec2.report.corruption);
    let snap = rec2.snapshot.unwrap();
    assert_eq!(snap.known_x[0], Some(vec![1.0, 1.0]), "rescued prefix survives");
    assert_eq!(snap.known_x[1], Some(vec![7.0, 7.0]), "post-recovery append survives");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_checkpoint_is_deleted_so_compaction_keeps_a_valid_predecessor() {
    // Regression: snap A, record, snap B; corrupt B; recover; record;
    // snap C; corrupt C. Recovery must fall back to a decodable
    // checkpoint. Before corrupt-checkpoint deletion, writing C treated
    // corrupt B as the predecessor and compacted away valid A, so
    // corrupting C lost ALL state.
    let mut store = mem_store(StoreOptions::default());
    store.write_snapshot(&base_snap(2)).unwrap(); // snap A
    store.append(&node_rec(0, 1.0)).unwrap();
    store.write_snapshot(&base_snap(2)).unwrap(); // snap B
    let snaps: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_snapshot_name(n).is_some())
        .collect();
    let b = snaps.last().unwrap().clone();
    store.disk_mut().set_contents(&b, vec![0xBA, 0xD0]);

    let rec = store.recover().unwrap();
    assert!(rec.report.corruption.as_deref().unwrap().contains("checkpoint"));
    // The undecodable checkpoint is gone from disk, not kept as a
    // phantom predecessor.
    assert!(!store.disk_mut().list().unwrap().contains(&b), "corrupt checkpoint deleted");

    store.append(&node_rec(1, 2.0)).unwrap();
    store.write_snapshot(&base_snap(2)).unwrap(); // snap C
    let snaps: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_snapshot_name(n).is_some())
        .collect();
    let c = snaps.last().unwrap().clone();
    store.disk_mut().set_contents(&c, vec![0xBA, 0xD1]);

    let rec2 = store.recover().unwrap();
    let snap = rec2.snapshot.expect("a decodable predecessor checkpoint survives compaction");
    assert_eq!(snap.known_x[0], Some(vec![1.0, 1.0]), "retained segments roll forward");
    assert_eq!(snap.known_x[1], Some(vec![2.0, 2.0]));
}

#[test]
fn rewriting_snapshot_after_corrupt_dedup_target_produces_decodable_checkpoint() {
    // The write_snapshot dedup must not treat a corrupt on-disk
    // checkpoint as already-written: after recovery removed it, writing
    // the same covered_seq again must yield a decodable checkpoint.
    let mut store = mem_store(StoreOptions::default());
    store.append(&node_rec(0, 1.0)).unwrap();
    let mut marked = base_snap(2);
    marked.epoch = 5;
    store.write_snapshot(&marked).unwrap();
    let snaps: Vec<String> = store
        .disk_mut()
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| segment::parse_snapshot_name(n).is_some())
        .collect();
    store.disk_mut().set_contents(snaps.last().unwrap(), vec![0x00; 4]);

    store.recover().unwrap();
    store.write_snapshot(&marked).unwrap(); // same covered_seq as the corrupt one
    store.crash();
    let rec = store.recover().unwrap();
    let snap = rec.snapshot.expect("re-written checkpoint decodes");
    assert_eq!(snap.epoch, 5);
    assert!(rec.report.corruption.is_none(), "{:?}", rec.report.corruption);
}
