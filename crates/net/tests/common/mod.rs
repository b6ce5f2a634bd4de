//! Generators shared by the framing tests.

use automon_net::wire;

/// Encode payloads the way every transport does: u32 LE length prefix
/// then the payload bytes.
pub fn to_wire(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for f in frames {
        let prefix = wire::frame_len_prefix(f.len()).expect("test frames under cap");
        stream.extend_from_slice(&prefix.to_le_bytes());
        stream.extend_from_slice(f);
    }
    stream
}
