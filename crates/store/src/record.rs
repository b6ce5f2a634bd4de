//! The WAL frame codec.
//!
//! Every durable record — journal transitions and snapshots alike — is
//! one self-describing frame:
//!
//! ```text
//! +--------+----------------+---------------+----------------+---------+
//! | 0xA7   | seq   u64 LE   | len   u32 LE  | crc32 u32 LE   | payload |
//! | 1 byte | 8 bytes        | 4 bytes       | 4 bytes        | len B   |
//! +--------+----------------+---------------+----------------+---------+
//! ```
//!
//! `seq` is the global, strictly increasing record sequence number;
//! `crc32` (IEEE polynomial) covers the seq bytes, the len bytes, and
//! the payload, so header corruption and payload corruption are both
//! caught. Payloads are canonical JSON from the vendored serde_json
//! (deterministic field order, shortest-round-trip floats), which keeps
//! recovery replay byte-identical across backends.
//!
//! [`decode_stream`] implements valid-prefix semantics: it stops at the
//! first bad magic byte, truncated frame, CRC mismatch, or undecodable
//! payload and reports what it found — it never panics and never
//! yields a record past the corruption point.

use automon_core::journal::Transition;
use automon_core::{CoordinatorStats, Epoch, NodeId, SafeZone};
use serde::{Deserialize, Serialize};

/// Frame magic. 0xA7 follows the wire-protocol magics (0xA9 frames).
pub const MAGIC: u8 = 0xA7;
/// Fixed frame header size: magic + seq + len + crc.
pub const HEADER_LEN: usize = 1 + 8 + 4 + 4;

/// A journaled coordinator state transition, as stored on disk.
///
/// Mirrors [`Transition`] but owns a plain `Option<SafeZone>` (the
/// journal boxes it to keep the enum small in the coordinator's hot
/// path; on disk the JSON is identical either way).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    Node { node: NodeId, x: Option<Vec<f64>>, slack: Vec<f64>, alive: bool, has_curvature: bool },
    Zone { epoch: Epoch, r: f64, zone: Option<SafeZone> },
    Control { lru: Vec<NodeId>, stats: CoordinatorStats, consecutive_neighborhood: usize },
}

impl From<Transition> for JournalRecord {
    fn from(t: Transition) -> Self {
        match t {
            Transition::Node { node, x, slack, alive, has_curvature } => {
                JournalRecord::Node { node, x, slack, alive, has_curvature }
            }
            Transition::Zone { epoch, r, zone } => {
                JournalRecord::Zone { epoch, r, zone: zone.map(|z| *z) }
            }
            Transition::Control { lru, stats, consecutive_neighborhood } => {
                JournalRecord::Control { lru, stats, consecutive_neighborhood }
            }
        }
    }
}

// --- CRC32 (IEEE 802.3 polynomial, reflected) ------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 over the frame's covered bytes: seq LE ++ len LE ++ payload.
fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    crc = crc32_update(crc, &seq.to_le_bytes());
    crc = crc32_update(crc, &(payload.len() as u32).to_le_bytes());
    crc = crc32_update(crc, payload);
    !crc
}

/// Encode one frame around an already-serialized payload.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode a journal record as one frame.
pub fn encode_record(seq: u64, rec: &JournalRecord) -> Vec<u8> {
    let payload = serde_json::to_vec(rec).expect("journal records always serialize");
    encode_frame(seq, &payload)
}

/// One decoded frame: its sequence number and raw payload bytes.
pub struct Frame {
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Decode a stream of frames, stopping at the first corruption.
///
/// Returns the valid prefix and, if the stream did not end cleanly, a
/// description of what stopped the scan. Trailing garbage after a
/// valid prefix is reported, never consumed.
pub fn decode_frames(bytes: &[u8]) -> (Vec<Frame>, Option<String>) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < HEADER_LEN {
            return (frames, Some(format!("truncated header at offset {off}")));
        }
        if rest[0] != MAGIC {
            return (frames, Some(format!("bad magic 0x{:02X} at offset {off}", rest[0])));
        }
        let seq = u64::from_le_bytes(rest[1..9].try_into().unwrap());
        let len = u32::from_le_bytes(rest[9..13].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[13..17].try_into().unwrap());
        if rest.len() < HEADER_LEN + len {
            return (frames, Some(format!("truncated payload at offset {off} (want {len} bytes)")));
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if frame_crc(seq, payload) != crc {
            return (frames, Some(format!("crc mismatch at offset {off} (seq {seq})")));
        }
        frames.push(Frame { seq, payload: payload.to_vec() });
        off += HEADER_LEN + len;
    }
    (frames, None)
}

/// Decode a stream of journal-record frames (valid-prefix semantics).
pub fn decode_stream(bytes: &[u8]) -> (Vec<(u64, JournalRecord)>, Option<String>) {
    let (frames, mut err) = decode_frames(bytes);
    let mut records = Vec::with_capacity(frames.len());
    for f in frames {
        match serde_json::from_slice::<JournalRecord>(&f.payload) {
            Ok(rec) => records.push((f.seq, rec)),
            Err(e) => {
                // A frame that passes its CRC but fails to decode means a
                // format break, not bit rot; still valid-prefix.
                err = Some(format!("undecodable record at seq {}: {e}", f.seq));
                break;
            }
        }
    }
    (records, err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JournalRecord {
        JournalRecord::Node { node: 3, x: Some(vec![1.5, -2.0]), slack: vec![0.25, 0.0], alive: true, has_curvature: false }
    }

    #[test]
    fn frame_round_trip() {
        let bytes = encode_record(42, &sample());
        let (recs, err) = decode_stream(&bytes);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, 42);
        assert_eq!(recs[0].1, sample());
    }

    #[test]
    fn multi_frame_stream_round_trip() {
        let mut bytes = encode_record(1, &sample());
        bytes.extend(encode_record(
            2,
            &JournalRecord::Zone { epoch: 7, r: 0.5, zone: None },
        ));
        let (recs, err) = decode_stream(&bytes);
        assert!(err.is_none());
        assert_eq!(recs.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn truncated_tail_yields_valid_prefix() {
        let mut bytes = encode_record(1, &sample());
        let full = encode_record(2, &sample());
        bytes.extend_from_slice(&full[..full.len() - 3]);
        let (recs, err) = decode_stream(&bytes);
        assert_eq!(recs.len(), 1);
        assert!(err.unwrap().contains("truncated"));
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let mut bytes = encode_record(1, &sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let (recs, err) = decode_stream(&bytes);
        assert!(recs.is_empty());
        assert!(err.unwrap().contains("crc mismatch"));
    }

    #[test]
    fn bad_magic_stops_scan() {
        let mut bytes = encode_record(1, &sample());
        let good_len = bytes.len();
        bytes.extend(encode_record(2, &sample()));
        bytes[good_len] = 0x00;
        let (recs, err) = decode_stream(&bytes);
        assert_eq!(recs.len(), 1);
        assert!(err.unwrap().contains("bad magic"));
    }
}
