//! Compacted checkpoints: a `CoordinatorSnapshot` plus the WAL position
//! it covers.
//!
//! A snapshot with `covered_seq = S` captures the effect of every
//! record with `seq < S`; recovery folds records with `seq >= S` on
//! top of it. Snapshot files are a single CRC frame (same codec as the
//! WAL, with `seq = covered_seq`) so torture-level corruption checks
//! apply to checkpoints too.

use automon_core::journal::Transition;
use automon_core::CoordinatorSnapshot;
use serde::{Deserialize, Serialize};

use crate::record::{decode_frames, encode_frame};

/// A checkpoint as stored on disk.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoredSnapshot {
    /// Records with `seq < covered_seq` are folded into `snapshot`.
    pub covered_seq: u64,
    pub snapshot: CoordinatorSnapshot,
}

/// Serialize a checkpoint as one CRC frame.
pub fn encode_snapshot(s: &StoredSnapshot) -> Vec<u8> {
    let payload = serde_json::to_vec(s).expect("snapshots always serialize");
    encode_frame(s.covered_seq, &payload)
}

/// Decode a checkpoint file; `None` on any corruption (the caller
/// falls back to an older checkpoint).
pub fn decode_snapshot(bytes: &[u8]) -> Option<StoredSnapshot> {
    let (frames, err) = decode_frames(bytes);
    if err.is_some() || frames.len() != 1 {
        return None;
    }
    serde_json::from_slice(&frames[0].payload).ok()
}

/// Fold one replayed journal record into a snapshot.
///
/// Records are per-key "latest wins" overwrites, so folding in
/// sequence order reproduces the coordinator state at the tail of the
/// valid WAL prefix.
pub fn apply(snap: &mut CoordinatorSnapshot, rec: &Transition) {
    match rec {
        Transition::Node { node, x, slack, alive, has_curvature } => {
            // A record for a node outside the snapshot's fleet size can
            // only come from a corrupt-but-CRC-valid stream; ignore it
            // rather than panic during recovery.
            if *node < snap.n {
                snap.known_x[*node] = x.clone();
                snap.slack[*node] = slack.clone();
                snap.alive[*node] = *alive;
                // Checkpoints from older versions lack the curvature
                // vector; size it (all-false) before writing into it.
                if snap.node_has_curvature.len() != snap.n {
                    snap.node_has_curvature = vec![false; snap.n];
                }
                snap.node_has_curvature[*node] = *has_curvature;
            }
        }
        Transition::Zone { epoch, r, zone } => {
            snap.epoch = *epoch;
            snap.r = *r;
            snap.zone = zone.as_deref().cloned();
        }
        Transition::Control { lru, stats, consecutive_neighborhood } => {
            snap.lru = lru.clone();
            snap.stats = stats.clone();
            snap.consecutive_neighborhood = *consecutive_neighborhood;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automon_core::CoordinatorStats;

    fn base(n: usize) -> CoordinatorSnapshot {
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

    #[test]
    fn snapshot_frame_round_trip() {
        let s = StoredSnapshot { covered_seq: 17, snapshot: base(3) };
        let bytes = encode_snapshot(&s);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.covered_seq, 17);
        assert_eq!(back.snapshot, s.snapshot);
    }

    #[test]
    fn corrupt_snapshot_decodes_to_none() {
        let s = StoredSnapshot { covered_seq: 17, snapshot: base(3) };
        let mut bytes = encode_snapshot(&s);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(decode_snapshot(&bytes).is_none());
    }

    #[test]
    fn apply_folds_latest_wins() {
        let mut snap = base(2);
        apply(
            &mut snap,
            &Transition::Node { node: 1, x: Some(vec![3.0, 4.0]), slack: vec![0.1, 0.2], alive: true, has_curvature: false },
        );
        apply(&mut snap, &Transition::Zone { epoch: 5, r: 2.0, zone: None });
        apply(
            &mut snap,
            &Transition::Node { node: 1, x: None, slack: vec![0.0, 0.0], alive: false, has_curvature: false },
        );
        // Out-of-range node: ignored, not a panic.
        apply(
            &mut snap,
            &Transition::Node { node: 9, x: None, slack: vec![], alive: false, has_curvature: false },
        );
        assert_eq!(snap.epoch, 5);
        assert_eq!(snap.r, 2.0);
        assert!(!snap.alive[1]);
        assert_eq!(snap.known_x[1], None);
    }
}
