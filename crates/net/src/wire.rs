//! Compact binary wire format for AutoMon protocol messages.
//!
//! Layout conventions: little-endian throughout; `u8` tags for enums;
//! `u32` lengths; raw `f64` bits for floats. The format is versioned with
//! a leading magic byte so stray frames fail fast instead of decoding
//! into garbage.
//!
//! Every frame header carries a wire-propagated trace context: the
//! 8-byte [`SpanId`] of the span open on the sending side (0 when
//! telemetry is off or no span is open). Together with the epoch each
//! message already carries, the receiver reconstructs a
//! [`automon_obs::TraceCtx`] and can parent its handler span under the
//! sender's — causality survives the transport. The slot is always
//! present so frame sizes never depend on whether telemetry is enabled.
//!
//! Each `encode_*` returns the frame as a `Vec<u8>` allocated at exactly
//! its `*_message_len` size; each `decode_*` reads a borrowed `&[u8]`
//! and checks every length once, where those bytes are taken.

use automon_core::{
    Curvature, CoordinatorMessage, DcKind, NeighborhoodBox, NodeMessage, SafeZone, TierMessage,
    ViolationKind, ZoneUpdate,
};
use automon_linalg::Matrix;
use automon_obs::SpanId;

/// Format version magic (bump on layout changes).
///
/// `0xA8` added the `u64` epoch stamp to every message; `0xA9` added the
/// `u64` span-id trace context after the magic byte.
const MAGIC: u8 = 0xA9;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than its declared contents.
    Truncated,
    /// Unknown tag byte at the given offset description.
    BadTag(&'static str, u8),
    /// Magic byte mismatch (not an AutoMon frame or wrong version).
    BadMagic(u8),
    /// Frame larger than [`MAX_FRAME_LEN`]: either a hostile/corrupt
    /// length prefix on the read side, or a payload too large for the
    /// u32 prefix on the write side (which would otherwise truncate
    /// silently on the `as u32` cast).
    Oversized(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadTag(what, t) => write!(f, "bad {what} tag {t:#x}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            WireError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on a single frame's payload length. Generous for the
/// protocol (the largest message, a d×d quadratic-curvature install at
/// d = 1000, is ~8 MB) yet small enough that a corrupt or hostile u32
/// length prefix cannot demand a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Validate a frame length against [`MAX_FRAME_LEN`] and fold it into
/// the u32 length prefix. Every writer must funnel through here: the
/// bare `len as u32` cast it replaces silently truncated frames above
/// 4 GiB into garbage prefixes.
pub fn frame_len_prefix(len: usize) -> Result<u32, WireError> {
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    Ok(len as u32)
}

/// Validate a decoded u32 length prefix before any allocation.
pub fn check_frame_len(len: u32) -> Result<usize, WireError> {
    let n = len as usize;
    if n > MAX_FRAME_LEN {
        return Err(WireError::Oversized(n));
    }
    Ok(n)
}

// --- Exact frame sizing -------------------------------------------------
//
// Every encoder reserves its frame's exact byte count up front, so the
// buffer never reallocates (the old fixed 64-byte guess forced two or
// three grow-and-copy cycles on a d = 40 violation) and the hot vector
// payloads go out through [`put_vec`]'s chunked bulk writes instead of
// one capacity-checked append per element.

/// Encoded size of a `u32`-length-prefixed `f64` vector.
fn vec_len(v: &[f64]) -> usize {
    4 + 8 * v.len()
}

/// Encoded size of a dims-prefixed dense matrix.
fn matrix_len(m: &Matrix) -> usize {
    8 + 8 * m.rows() * m.cols()
}

fn neighborhood_len(nb: &Option<NeighborhoodBox>) -> usize {
    1 + nb
        .as_ref()
        .map_or(0, |nb| vec_len(&nb.lo) + vec_len(&nb.hi))
}

fn zone_len(z: &SafeZone) -> usize {
    let curvature = 1 + match &z.curvature {
        Curvature::Scalar(_) => 8,
        Curvature::Quadratic(m) => matrix_len(m),
    };
    vec_len(&z.x0) + 8 + vec_len(&z.grad0) + 8 + 8 + 1 + curvature + neighborhood_len(&z.neighborhood)
}

fn zone_update_len(z: &ZoneUpdate) -> usize {
    vec_len(&z.x0) + 8 + vec_len(&z.grad0) + 8 + 8 + 1 + neighborhood_len(&z.neighborhood)
}

/// Header bytes shared by every frame: magic + span-id trace context +
/// message tag.
const HEADER_LEN: usize = 1 + 8 + 1;

/// Exact frame size of an encoded node→coordinator message: the length
/// [`encode_node_message_ctx`] produces, for any span. An in-process
/// fabric charges this instead of encoding the frame to measure it.
pub fn node_message_len(msg: &NodeMessage) -> usize {
    HEADER_LEN + match msg {
        NodeMessage::Violation { local_vector, .. } => 4 + 8 + 1 + vec_len(local_vector),
        NodeMessage::LocalVector { vector, .. } => 4 + 8 + vec_len(vector),
    }
}

/// Exact frame size of an encoded coordinator→node message: the length
/// [`encode_coordinator_message_ctx`] produces, for any span.
pub fn coordinator_message_len(msg: &CoordinatorMessage) -> usize {
    HEADER_LEN + match msg {
        CoordinatorMessage::RequestLocalVector { .. } => 8,
        CoordinatorMessage::NewConstraints { zone, slack, .. } => 8 + zone_len(zone) + vec_len(slack),
        CoordinatorMessage::SlackUpdate { slack, .. } => 8 + vec_len(slack),
        CoordinatorMessage::NewConstraintsCached { update, slack, .. } => {
            8 + zone_update_len(update) + vec_len(slack)
        }
    }
}

/// Encoded size of a `u32`-length-prefixed node-id list.
fn id_vec_len(v: &[usize]) -> usize {
    4 + 4 * v.len()
}

/// Exact frame size of an encoded inter-tier message: the length
/// [`encode_tier_message_ctx`] produces, for any span.
pub fn tier_message_len(msg: &TierMessage) -> usize {
    HEADER_LEN
        + match msg {
            TierMessage::LeafReport { partial, .. } => 4 + 8 + 1 + 8 + vec_len(partial),
            TierMessage::Rebalance { adopted, .. } => 4 + 8 + id_vec_len(adopted),
        }
}

/// Encode a node→coordinator message with an empty trace context.
pub fn encode_node_message(msg: &NodeMessage) -> Vec<u8> {
    encode_node_message_ctx(msg, SpanId::NONE)
}

/// Encode a node→coordinator message, stamping `span` into the frame
/// header as the wire-propagated trace context.
pub fn encode_node_message_ctx(msg: &NodeMessage, span: SpanId) -> Vec<u8> {
    let mut b = Vec::with_capacity(node_message_len(msg));
    b.push(MAGIC);
    b.extend_from_slice(&span.0.to_le_bytes());
    match msg {
        NodeMessage::Violation {
            node,
            kind,
            local_vector,
            epoch,
        } => {
            b.push(0);
            b.extend_from_slice(&(*node as u32).to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
            b.push(violation_tag(*kind));
            put_vec(&mut b, local_vector);
        }
        NodeMessage::LocalVector {
            node,
            vector,
            epoch,
        } => {
            b.push(1);
            b.extend_from_slice(&(*node as u32).to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
            put_vec(&mut b, vector);
        }
    }
    debug_assert_eq!(b.len(), node_message_len(msg), "frame size mispredicted");
    b
}

/// Decode a node→coordinator message, discarding the trace context.
pub fn decode_node_message(buf: &[u8]) -> Result<NodeMessage, WireError> {
    decode_node_message_ctx(buf).map(|(_, msg)| msg)
}

/// Decode a node→coordinator message plus the sender's span id from the
/// frame header.
pub fn decode_node_message_ctx(mut buf: &[u8]) -> Result<(SpanId, NodeMessage), WireError> {
    check_magic(&mut buf)?;
    let span = SpanId(get_u64(&mut buf)?);
    decode_node_body(buf).map(|msg| (span, msg))
}

fn decode_node_body(mut buf: &[u8]) -> Result<NodeMessage, WireError> {
    let tag = get_u8(&mut buf)?;
    match tag {
        0 => {
            let node = get_u32(&mut buf)? as usize;
            let epoch = get_u64(&mut buf)?;
            let kind = violation_from_tag(get_u8(&mut buf)?)?;
            let local_vector = get_vec(&mut buf)?;
            Ok(NodeMessage::Violation {
                node,
                kind,
                local_vector,
                epoch,
            })
        }
        1 => {
            let node = get_u32(&mut buf)? as usize;
            let epoch = get_u64(&mut buf)?;
            let vector = get_vec(&mut buf)?;
            Ok(NodeMessage::LocalVector {
                node,
                vector,
                epoch,
            })
        }
        t => Err(WireError::BadTag("node message", t)),
    }
}

/// Encode a coordinator→node message with an empty trace context.
pub fn encode_coordinator_message(msg: &CoordinatorMessage) -> Vec<u8> {
    encode_coordinator_message_ctx(msg, SpanId::NONE)
}

/// Encode a coordinator→node message, stamping `span` into the frame
/// header as the wire-propagated trace context.
pub fn encode_coordinator_message_ctx(msg: &CoordinatorMessage, span: SpanId) -> Vec<u8> {
    let mut b = Vec::with_capacity(coordinator_message_len(msg));
    b.push(MAGIC);
    b.extend_from_slice(&span.0.to_le_bytes());
    match msg {
        CoordinatorMessage::RequestLocalVector { epoch } => {
            b.push(0);
            b.extend_from_slice(&epoch.to_le_bytes());
        }
        CoordinatorMessage::NewConstraints { zone, slack, epoch } => {
            b.push(1);
            b.extend_from_slice(&epoch.to_le_bytes());
            put_zone(&mut b, zone);
            put_vec(&mut b, slack);
        }
        CoordinatorMessage::SlackUpdate { slack, epoch } => {
            b.push(2);
            b.extend_from_slice(&epoch.to_le_bytes());
            put_vec(&mut b, slack);
        }
        CoordinatorMessage::NewConstraintsCached {
            update,
            slack,
            epoch,
        } => {
            b.push(3);
            b.extend_from_slice(&epoch.to_le_bytes());
            put_zone_update(&mut b, update);
            put_vec(&mut b, slack);
        }
    }
    debug_assert_eq!(
        b.len(),
        coordinator_message_len(msg),
        "frame size mispredicted"
    );
    b
}

/// Decode a coordinator→node message, discarding the trace context.
pub fn decode_coordinator_message(buf: &[u8]) -> Result<CoordinatorMessage, WireError> {
    decode_coordinator_message_ctx(buf).map(|(_, msg)| msg)
}

/// Decode a coordinator→node message plus the sender's span id from the
/// frame header.
pub fn decode_coordinator_message_ctx(
    mut buf: &[u8],
) -> Result<(SpanId, CoordinatorMessage), WireError> {
    check_magic(&mut buf)?;
    let span = SpanId(get_u64(&mut buf)?);
    decode_coordinator_body(buf).map(|msg| (span, msg))
}

fn decode_coordinator_body(mut buf: &[u8]) -> Result<CoordinatorMessage, WireError> {
    let tag = get_u8(&mut buf)?;
    match tag {
        0 => Ok(CoordinatorMessage::RequestLocalVector {
            epoch: get_u64(&mut buf)?,
        }),
        1 => {
            let epoch = get_u64(&mut buf)?;
            let zone = get_zone(&mut buf)?;
            let slack = get_vec(&mut buf)?;
            Ok(CoordinatorMessage::NewConstraints { zone, slack, epoch })
        }
        2 => {
            let epoch = get_u64(&mut buf)?;
            Ok(CoordinatorMessage::SlackUpdate {
                slack: get_vec(&mut buf)?,
                epoch,
            })
        }
        3 => {
            let epoch = get_u64(&mut buf)?;
            let update = get_zone_update(&mut buf)?;
            let slack = get_vec(&mut buf)?;
            Ok(CoordinatorMessage::NewConstraintsCached {
                update,
                slack,
                epoch,
            })
        }
        t => Err(WireError::BadTag("coordinator message", t)),
    }
}

/// Encode an inter-tier (leaf↔root) message with an empty trace context.
pub fn encode_tier_message(msg: &TierMessage) -> Vec<u8> {
    encode_tier_message_ctx(msg, SpanId::NONE)
}

/// Encode an inter-tier message, stamping `span` into the frame header
/// as the wire-propagated trace context. Tier frames share the flat
/// protocol's header layout (magic + span + tag) but live in their own
/// tag space, decoded only by [`decode_tier_message_ctx`] — a tier frame
/// handed to the flat decoders fails on the tag, not silently.
pub fn encode_tier_message_ctx(msg: &TierMessage, span: SpanId) -> Vec<u8> {
    let mut b = Vec::with_capacity(tier_message_len(msg));
    b.push(MAGIC);
    b.extend_from_slice(&span.0.to_le_bytes());
    match msg {
        TierMessage::LeafReport {
            leaf,
            kind,
            partial,
            weight,
            epoch,
        } => {
            b.push(0);
            b.extend_from_slice(&(*leaf as u32).to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
            b.push(violation_tag(*kind));
            b.extend_from_slice(&weight.to_le_bytes());
            put_vec(&mut b, partial);
        }
        TierMessage::Rebalance {
            leaf,
            adopted,
            epoch,
        } => {
            b.push(1);
            b.extend_from_slice(&(*leaf as u32).to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
            b.extend_from_slice(&(adopted.len() as u32).to_le_bytes());
            for &id in adopted {
                b.extend_from_slice(&(id as u32).to_le_bytes());
            }
        }
    }
    debug_assert_eq!(b.len(), tier_message_len(msg), "frame size mispredicted");
    b
}

/// Decode an inter-tier message, discarding the trace context.
pub fn decode_tier_message(buf: &[u8]) -> Result<TierMessage, WireError> {
    decode_tier_message_ctx(buf).map(|(_, msg)| msg)
}

/// Decode an inter-tier message plus the sender's span id from the
/// frame header.
pub fn decode_tier_message_ctx(mut buf: &[u8]) -> Result<(SpanId, TierMessage), WireError> {
    check_magic(&mut buf)?;
    let span = SpanId(get_u64(&mut buf)?);
    decode_tier_body(buf).map(|msg| (span, msg))
}

fn decode_tier_body(mut buf: &[u8]) -> Result<TierMessage, WireError> {
    let tag = get_u8(&mut buf)?;
    match tag {
        0 => {
            let leaf = get_u32(&mut buf)? as usize;
            let epoch = get_u64(&mut buf)?;
            let kind = violation_from_tag(get_u8(&mut buf)?)?;
            let weight = get_u64(&mut buf)?;
            let partial = get_vec(&mut buf)?;
            Ok(TierMessage::LeafReport {
                leaf,
                kind,
                partial,
                weight,
                epoch,
            })
        }
        1 => {
            let leaf = get_u32(&mut buf)? as usize;
            let epoch = get_u64(&mut buf)?;
            let n = get_u32(&mut buf)? as usize;
            let adopted = take_chunks(&mut buf, n)?
                .iter()
                .map(|&id| u32::from_le_bytes(id) as usize)
                .collect();
            Ok(TierMessage::Rebalance {
                leaf,
                adopted,
                epoch,
            })
        }
        t => Err(WireError::BadTag("tier message", t)),
    }
}

fn violation_tag(kind: ViolationKind) -> u8 {
    match kind {
        ViolationKind::Uninitialized => 0,
        ViolationKind::Neighborhood => 1,
        ViolationKind::SafeZone => 2,
        ViolationKind::FaultyConstraints => 3,
    }
}

fn violation_from_tag(t: u8) -> Result<ViolationKind, WireError> {
    Ok(match t {
        0 => ViolationKind::Uninitialized,
        1 => ViolationKind::Neighborhood,
        2 => ViolationKind::SafeZone,
        3 => ViolationKind::FaultyConstraints,
        t => return Err(WireError::BadTag("violation kind", t)),
    })
}

/// Bulk-write `f64`s as little-endian bytes: elements are staged in a
/// stack chunk and flushed with one `extend_from_slice` per 32 values,
/// so the buffer's capacity bookkeeping runs once per chunk instead of
/// once per element.
fn put_f64s(b: &mut Vec<u8>, v: &[f64]) {
    let mut chunk = [0u8; 256];
    for group in v.chunks(32) {
        for (i, &x) in group.iter().enumerate() {
            chunk[i * 8..(i + 1) * 8].copy_from_slice(&x.to_le_bytes());
        }
        b.extend_from_slice(&chunk[..group.len() * 8]);
    }
}

fn put_vec(b: &mut Vec<u8>, v: &[f64]) {
    b.extend_from_slice(&(v.len() as u32).to_le_bytes());
    put_f64s(b, v);
}

fn put_matrix(b: &mut Vec<u8>, m: &Matrix) {
    b.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    b.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    put_f64s(b, m.as_slice());
}

fn put_zone(b: &mut Vec<u8>, z: &SafeZone) {
    put_vec(b, &z.x0);
    b.extend_from_slice(&z.f0.to_le_bytes());
    put_vec(b, &z.grad0);
    b.extend_from_slice(&z.l.to_le_bytes());
    b.extend_from_slice(&z.u.to_le_bytes());
    b.push(match z.dc {
        DcKind::ConvexDiff => 0,
        DcKind::ConcaveDiff => 1,
        DcKind::AdmissibleOnly => 2,
    });
    match &z.curvature {
        Curvature::Scalar(c) => {
            b.push(0);
            b.extend_from_slice(&c.to_le_bytes());
        }
        Curvature::Quadratic(m) => {
            b.push(1);
            put_matrix(b, m);
        }
    }
    match &z.neighborhood {
        None => b.push(0),
        Some(nb) => {
            b.push(1);
            put_vec(b, &nb.lo);
            put_vec(b, &nb.hi);
        }
    }
}

fn put_zone_update(b: &mut Vec<u8>, z: &ZoneUpdate) {
    put_vec(b, &z.x0);
    b.extend_from_slice(&z.f0.to_le_bytes());
    put_vec(b, &z.grad0);
    b.extend_from_slice(&z.l.to_le_bytes());
    b.extend_from_slice(&z.u.to_le_bytes());
    b.push(match z.dc {
        DcKind::ConvexDiff => 0,
        DcKind::ConcaveDiff => 1,
        DcKind::AdmissibleOnly => 2,
    });
    match &z.neighborhood {
        None => b.push(0),
        Some(nb) => {
            b.push(1);
            put_vec(b, &nb.lo);
            put_vec(b, &nb.hi);
        }
    }
}

fn get_zone_update(buf: &mut &[u8]) -> Result<ZoneUpdate, WireError> {
    let x0 = get_vec(buf)?;
    let f0 = get_f64(buf)?;
    let grad0 = get_vec(buf)?;
    let l = get_f64(buf)?;
    let u = get_f64(buf)?;
    let dc = match get_u8(buf)? {
        0 => DcKind::ConvexDiff,
        1 => DcKind::ConcaveDiff,
        2 => DcKind::AdmissibleOnly,
        t => return Err(WireError::BadTag("dc kind", t)),
    };
    let neighborhood = match get_u8(buf)? {
        0 => None,
        1 => Some(NeighborhoodBox {
            lo: get_vec(buf)?,
            hi: get_vec(buf)?,
        }),
        t => return Err(WireError::BadTag("neighborhood", t)),
    };
    Ok(ZoneUpdate {
        x0,
        f0,
        grad0,
        l,
        u,
        dc,
        neighborhood,
    })
}

fn check_magic(buf: &mut &[u8]) -> Result<(), WireError> {
    let m = get_u8(buf)?;
    if m != MAGIC {
        return Err(WireError::BadMagic(m));
    }
    Ok(())
}

/// Split the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    let (head, rest) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Split `n` consecutive `N`-byte elements off the front of `buf`, with
/// one length check for the whole run. Checked: a hostile count must not
/// overflow into a small byte length.
fn take_chunks<'a, const N: usize>(
    buf: &mut &'a [u8],
    n: usize,
) -> Result<&'a [[u8; N]], WireError> {
    let len = n.checked_mul(N).ok_or(WireError::Truncated)?;
    let (head, rest) = buf.split_at_checked(len).ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(head.as_chunks().0)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    take(buf).map(|[b]| b)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    take(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    take(buf).map(u64::from_le_bytes)
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    take(buf).map(f64::from_le_bytes)
}

fn get_f64s(buf: &mut &[u8], n: usize) -> Result<Vec<f64>, WireError> {
    Ok(take_chunks(buf, n)?.iter().map(|&x| f64::from_le_bytes(x)).collect())
}

fn get_vec(buf: &mut &[u8]) -> Result<Vec<f64>, WireError> {
    let n = get_u32(buf)? as usize;
    get_f64s(buf, n)
}

fn get_matrix(buf: &mut &[u8]) -> Result<Matrix, WireError> {
    let rows = get_u32(buf)? as usize;
    let cols = get_u32(buf)? as usize;
    let n = rows.checked_mul(cols).ok_or(WireError::Truncated)?;
    Ok(Matrix::from_rows(rows, cols, get_f64s(buf, n)?))
}

fn get_zone(buf: &mut &[u8]) -> Result<SafeZone, WireError> {
    let x0 = get_vec(buf)?;
    let f0 = get_f64(buf)?;
    let grad0 = get_vec(buf)?;
    let l = get_f64(buf)?;
    let u = get_f64(buf)?;
    let dc = match get_u8(buf)? {
        0 => DcKind::ConvexDiff,
        1 => DcKind::ConcaveDiff,
        2 => DcKind::AdmissibleOnly,
        t => return Err(WireError::BadTag("dc kind", t)),
    };
    let curvature = match get_u8(buf)? {
        0 => Curvature::Scalar(get_f64(buf)?),
        1 => Curvature::Quadratic(get_matrix(buf)?),
        t => return Err(WireError::BadTag("curvature", t)),
    };
    let neighborhood = match get_u8(buf)? {
        0 => None,
        1 => Some(NeighborhoodBox {
            lo: get_vec(buf)?,
            hi: get_vec(buf)?,
        }),
        t => return Err(WireError::BadTag("neighborhood", t)),
    };
    Ok(SafeZone {
        x0,
        f0,
        grad0,
        l,
        u,
        dc,
        curvature,
        neighborhood,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_zone() -> SafeZone {
        SafeZone {
            x0: vec![1.0, -2.0],
            f0: 3.5,
            grad0: vec![0.25, 0.75],
            l: 3.0,
            u: 4.0,
            dc: DcKind::ConvexDiff,
            curvature: Curvature::Scalar(1.25),
            neighborhood: Some(NeighborhoodBox {
                lo: vec![0.0, -3.0],
                hi: vec![2.0, -1.0],
            }),
        }
    }

    #[test]
    fn node_message_round_trips() {
        for msg in [
            NodeMessage::Violation {
                node: 5,
                kind: ViolationKind::Neighborhood,
                local_vector: vec![1.0, 2.0, 3.0],
                epoch: 7,
            },
            NodeMessage::LocalVector {
                node: 0,
                vector: vec![],
                epoch: 0,
            },
            // Epoch must survive the full u64 range.
            NodeMessage::LocalVector {
                node: 1,
                vector: vec![-1.0],
                epoch: u64::MAX,
            },
        ] {
            let bytes = encode_node_message(&msg);
            assert_eq!(decode_node_message(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn coordinator_message_round_trips() {
        for msg in [
            CoordinatorMessage::RequestLocalVector { epoch: 3 },
            CoordinatorMessage::SlackUpdate {
                slack: vec![0.5, -0.5],
                epoch: 12,
            },
            CoordinatorMessage::NewConstraints {
                zone: sample_zone(),
                slack: vec![1.0, 2.0],
                epoch: u64::MAX,
            },
        ] {
            let bytes = encode_coordinator_message(&msg);
            assert_eq!(decode_coordinator_message(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn quadratic_curvature_round_trips() {
        let mut z = sample_zone();
        z.curvature = Curvature::Quadratic(Matrix::from_rows(2, 2, vec![1.0, 0.5, 0.5, 2.0]));
        z.neighborhood = None;
        let msg = CoordinatorMessage::NewConstraints {
            zone: z,
            slack: vec![0.0, 0.0],
            epoch: 1,
        };
        let bytes = encode_coordinator_message(&msg);
        assert_eq!(decode_coordinator_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn payload_sizes_are_compact() {
        // Violation with d = 40: magic + span + tag + node + epoch + kind
        // + len + 40·8 = 1 + 8 + 1 + 4 + 8 + 1 + 4 + 320 = 347 bytes.
        let msg = NodeMessage::Violation {
            node: 1,
            kind: ViolationKind::SafeZone,
            local_vector: vec![0.0; 40],
            epoch: 2,
        };
        assert_eq!(encode_node_message(&msg).len(), 347);
    }

    #[test]
    fn trace_context_rides_the_frame_header() {
        let msg = NodeMessage::Violation {
            node: 2,
            kind: ViolationKind::SafeZone,
            local_vector: vec![1.0, 2.0],
            epoch: 4,
        };
        let frame = encode_node_message_ctx(&msg, SpanId(0xDEAD_BEEF));
        let (span, decoded) = decode_node_message_ctx(&frame).unwrap();
        assert_eq!(span, SpanId(0xDEAD_BEEF));
        assert_eq!(decoded, msg);
        // The context changes only the header slot, never the size.
        assert_eq!(frame.len(), encode_node_message(&msg).len());
        // Legacy decode drops the context but still reads the body.
        assert_eq!(decode_node_message(&frame).unwrap(), msg);

        let reply = CoordinatorMessage::SlackUpdate {
            slack: vec![0.5],
            epoch: 4,
        };
        let frame = encode_coordinator_message_ctx(&reply, SpanId(7));
        let (span, decoded) = decode_coordinator_message_ctx(&frame).unwrap();
        assert_eq!(span, SpanId(7));
        assert_eq!(decoded, reply);
        // An empty context decodes as SpanId::NONE.
        let plain = encode_coordinator_message(&reply);
        assert_eq!(
            decode_coordinator_message_ctx(&plain).unwrap().0,
            SpanId::NONE
        );
    }

    #[test]
    fn frame_sizes_are_predicted_exactly() {
        // Every encoder reserves `*_message_len` bytes up front; the
        // frame must land on exactly that size (no reallocation, no
        // slack). Covers all tags and both curvature arms.
        let node_msgs = [
            NodeMessage::Violation {
                node: 3,
                kind: ViolationKind::SafeZone,
                local_vector: vec![1.5; 33],
                epoch: 9,
            },
            NodeMessage::LocalVector {
                node: 0,
                vector: vec![],
                epoch: 1,
            },
        ];
        for msg in &node_msgs {
            let frame = encode_node_message(msg);
            assert_eq!(frame.len(), node_message_len(msg), "{msg:?}");
        }
        let mut quad = sample_zone();
        quad.curvature = Curvature::Quadratic(Matrix::identity(2));
        let coord_msgs = [
            CoordinatorMessage::RequestLocalVector { epoch: 4 },
            CoordinatorMessage::SlackUpdate {
                slack: vec![0.1; 7],
                epoch: 2,
            },
            CoordinatorMessage::NewConstraints {
                zone: sample_zone(),
                slack: vec![0.0; 2],
                epoch: 5,
            },
            CoordinatorMessage::NewConstraints {
                zone: quad,
                slack: vec![0.0; 2],
                epoch: 5,
            },
            CoordinatorMessage::NewConstraintsCached {
                update: ZoneUpdate {
                    x0: vec![0.1; 4],
                    f0: 1.0,
                    grad0: vec![0.2; 4],
                    l: 0.9,
                    u: 1.1,
                    dc: DcKind::ConcaveDiff,
                    neighborhood: None,
                },
                slack: vec![0.0; 4],
                epoch: 6,
            },
        ];
        for msg in &coord_msgs {
            let frame = encode_coordinator_message(msg);
            assert_eq!(frame.len(), coordinator_message_len(msg), "{msg:?}");
        }
    }

    #[test]
    fn tier_message_round_trips_with_exact_sizes() {
        let msgs = [
            TierMessage::LeafReport {
                leaf: 3,
                kind: ViolationKind::SafeZone,
                partial: vec![1.5, -2.5, 0.0],
                weight: 312,
                epoch: 9,
            },
            TierMessage::LeafReport {
                leaf: 0,
                kind: ViolationKind::Uninitialized,
                partial: vec![],
                weight: 0,
                epoch: 0,
            },
            TierMessage::Rebalance {
                leaf: 7,
                adopted: vec![100, 101, 4000],
                epoch: u64::MAX,
            },
            TierMessage::Rebalance {
                leaf: 1,
                adopted: vec![],
                epoch: 2,
            },
        ];
        for msg in &msgs {
            let frame = encode_tier_message_ctx(msg, SpanId(0xBEEF));
            assert_eq!(frame.len(), tier_message_len(msg), "{msg:?}");
            let (span, decoded) = decode_tier_message_ctx(&frame).unwrap();
            assert_eq!(span, SpanId(0xBEEF));
            assert_eq!(&decoded, msg);
            assert_eq!(&decode_tier_message(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn tier_frames_are_rejected_by_flat_decoders_and_vice_versa() {
        // The tier tag space overlaps the flat ones numerically, so a
        // misrouted frame decodes into the wrong *variant*, never into
        // garbage — but a tag outside the space still fails loudly.
        let bad = [MAGIC, 0, 0, 0, 0, 0, 0, 0, 0, 9];
        assert_eq!(
            decode_tier_message(&bad),
            Err(WireError::BadTag("tier message", 9))
        );
        // Truncated adopted-id list.
        let frame = encode_tier_message(&TierMessage::Rebalance {
            leaf: 0,
            adopted: vec![1, 2, 3],
            epoch: 1,
        });
        assert_eq!(
            decode_tier_message(&frame[..frame.len() - 2]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn rejects_bad_frames() {
        assert_eq!(decode_node_message(&[]), Err(WireError::Truncated));
        assert_eq!(decode_node_message(&[0x00, 0x00]), Err(WireError::BadMagic(0)));
        // A frame cut off inside the span-id header slot.
        assert_eq!(decode_node_message(&[MAGIC, 9]), Err(WireError::Truncated));
        assert_eq!(
            decode_node_message(&[MAGIC, 0, 0, 0, 0, 0, 0, 0, 0, 9]),
            Err(WireError::BadTag("node message", 9))
        );
        // Truncated vector payload.
        let good = encode_node_message(&NodeMessage::LocalVector {
            node: 0,
            vector: vec![1.0, 2.0],
            epoch: 0,
        });
        assert_eq!(
            decode_node_message(&good[..good.len() - 3]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(WireError::Truncated.to_string(), "truncated frame");
        assert!(WireError::BadMagic(7).to_string().contains("0x7"));
        assert!(WireError::Oversized(usize::MAX)
            .to_string()
            .contains("exceeds"));
    }

    #[test]
    fn oversized_frames_are_rejected_not_truncated() {
        // Write side: a payload longer than the cap must refuse to
        // produce a prefix instead of silently wrapping on `as u32`.
        assert!(frame_len_prefix(MAX_FRAME_LEN).is_ok());
        assert_eq!(
            frame_len_prefix(MAX_FRAME_LEN + 1),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );
        // The historical failure mode: 2^32 + 5 used to cast to a
        // 5-byte prefix, shearing the stream out of frame sync.
        let wrapped = (1usize << 32) + 5;
        assert_eq!(frame_len_prefix(wrapped), Err(WireError::Oversized(wrapped)));

        // Read side: a hostile prefix is rejected before allocation.
        assert_eq!(check_frame_len(1024).unwrap(), 1024);
        assert_eq!(
            check_frame_len(u32::MAX),
            Err(WireError::Oversized(u32::MAX as usize))
        );
    }
}

#[cfg(test)]
mod cached_constraint_tests {
    use super::*;

    #[test]
    fn cached_constraints_round_trip_and_shrink_payload() {
        let d = 40;
        let zone = SafeZone {
            x0: vec![0.1; d],
            f0: 1.0,
            grad0: vec![0.2; d],
            l: 0.9,
            u: 1.1,
            dc: DcKind::ConvexDiff,
            curvature: Curvature::Quadratic(Matrix::identity(d)),
            neighborhood: None,
        };
        let full = CoordinatorMessage::NewConstraints {
            zone: zone.clone(),
            slack: vec![0.0; d],
            epoch: 1,
        };
        let cached = CoordinatorMessage::NewConstraintsCached {
            update: ZoneUpdate {
                x0: zone.x0.clone(),
                f0: zone.f0,
                grad0: zone.grad0.clone(),
                l: zone.l,
                u: zone.u,
                dc: zone.dc,
                neighborhood: zone.neighborhood.clone(),
            },
            slack: vec![0.0; d],
            epoch: 1,
        };
        let full_frame = encode_coordinator_message(&full);
        let cached_frame = encode_coordinator_message(&cached);
        assert_eq!(
            decode_coordinator_message(&cached_frame).unwrap(),
            cached
        );
        // The d×d matrix (40·40·8 = 12.8 KB) stays off the wire.
        assert!(
            cached_frame.len() + d * d * 8 <= full_frame.len() + 16,
            "cached {} vs full {}",
            cached_frame.len(),
            full_frame.len()
        );
    }
}
