//! Crash-side replay at volume: after `crash()` + `recover()`, every
//! journaled record past the checkpoint is replayed. The other store
//! tests pin 1–20 records; these cross segment boundaries.

use automon_core::{CoordinatorSnapshot, CoordinatorStats};
use automon_store::record::JournalRecord;
use automon_store::{CoordinatorStore, MemDisk, StoreOptions};

const NODES: usize = 8;
const DIM: usize = 8;

fn base_snap() -> CoordinatorSnapshot {
    CoordinatorSnapshot {
        n: NODES,
        r: 1.0,
        zone: None,
        slack: vec![vec![0.0; DIM]; NODES],
        known_x: vec![None; NODES],
        lru: (0..NODES).collect(),
        stats: CoordinatorStats::default(),
        consecutive_neighborhood: 0,
        epoch: 0,
        alive: vec![true; NODES],
        node_has_curvature: vec![false; NODES],
    }
}

/// The record the coordinator journals most often: a node's vector and
/// slack.
fn node_rec(node: usize, v: f64) -> JournalRecord {
    JournalRecord::Node {
        node,
        x: Some((0..DIM).map(|i| v + i as f64 * 0.125).collect()),
        slack: vec![0.25; DIM],
        alive: true,
        has_curvature: true,
    }
}

#[test]
fn recovery_replays_every_record_after_the_checkpoint() {
    for (records, segments) in [(256usize, 1usize), (2048, 6)] {
        let mut store = CoordinatorStore::open(MemDisk::new(), StoreOptions::default()).unwrap().0;
        store.write_snapshot(&base_snap()).unwrap();
        for i in 0..records {
            store.append(&node_rec(i % NODES, i as f64 * 0.25)).unwrap();
        }
        store.crash();
        let rec = store.recover().unwrap();
        assert_eq!(rec.report.records_replayed, records);
        assert_eq!(rec.report.segments_scanned, segments, "{records} records");
        assert!(rec.report.corruption.is_none());
        let last = records - 1;
        assert_eq!(
            rec.snapshot.unwrap().known_x[last % NODES],
            Some((0..DIM).map(|i| last as f64 * 0.25 + i as f64 * 0.125).collect())
        );
    }
}
