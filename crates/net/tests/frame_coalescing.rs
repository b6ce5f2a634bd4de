//! Property test for frame coalescing: however the byte stream is
//! chunked — one frame per read, many frames per read, splits inside a
//! payload or inside a length prefix — the assembler must recover
//! exactly the frame sequence that was sent.

mod common;

use automon_net::wire::{self, WireError};
use automon_net::FrameAssembler;
use common::to_wire;
use proptest::prelude::*;

/// Feed `stream` to an assembler in chunks cut at `cuts` and collect
/// every decoded frame.
fn reassemble(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut asm = FrameAssembler::new();
    let mut got = Vec::new();
    let mut pos = 0;
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
    bounds.push(stream.len());
    bounds.sort_unstable();
    for b in bounds {
        if b > pos {
            asm.feed(&stream[pos..b]);
            pos = b;
        }
        while let Some(f) = asm.next_frame().expect("valid stream") {
            got.push(f);
        }
    }
    got
}

proptest! {
    /// Arbitrary split boundaries (including mid-length-prefix) decode
    /// to exactly the same frame sequence as one-frame-per-read.
    #[test]
    fn coalesced_reads_decode_identically(
        frames in proptest::collection::vec(proptest::collection::vec(0u8..=255u8, 0..200usize), 0..20usize),
        cuts in proptest::collection::vec(0usize..1_000_000usize, 0..64usize),
    ) {
        let stream = to_wire(&frames);

        // Reference: one whole frame per feed.
        let mut reference = Vec::new();
        let mut asm = FrameAssembler::new();
        for f in &frames {
            let one = to_wire(std::slice::from_ref(f));
            asm.feed(&one);
            while let Some(d) = asm.next_frame().expect("valid") {
                reference.push(d);
            }
        }
        prop_assert_eq!(&reference, &frames);

        // Candidate: the same bytes under arbitrary chunking.
        let got = reassemble(&stream, &cuts);
        prop_assert_eq!(got, frames);
    }

    /// Byte-at-a-time is the worst-case chunking and still decodes.
    #[test]
    fn single_byte_feeds_decode_identically(
        frames in proptest::collection::vec(proptest::collection::vec(0u8..=255u8, 0..64usize), 1..8usize),
    ) {
        let stream = to_wire(&frames);
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.feed(&[b]);
            while let Some(f) = asm.next_frame().expect("valid") {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(asm.pending_bytes(), 0);
    }

    /// A prefix advertising more than the wire cap is rejected before
    /// any payload allocation, never silently truncated.
    #[test]
    fn oversized_prefix_always_rejected(extra in 1u64..u32::MAX as u64 - wire::MAX_FRAME_LEN as u64) {
        let bad = (wire::MAX_FRAME_LEN as u64 + extra) as u32;
        let mut asm = FrameAssembler::new();
        asm.feed(&bad.to_le_bytes());
        prop_assert!(matches!(asm.next_frame(), Err(WireError::Oversized(_))));
    }
}
