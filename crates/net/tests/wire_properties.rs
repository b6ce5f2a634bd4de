//! Property tests for the wire codec: decoding must be total (never
//! panic, whatever the bytes), and corruption must surface as a clean
//! `WireError` or a decodable-but-different message — never UB, never
//! an abort. This is the contract the chaos fabric leans on.
//!
//! The in-process fabrics charge a frame's public length
//! (`wire::*_message_len`) and hand the message itself on instead of
//! encoding and decoding it. That is the same delivery only if every
//! message variant encodes to exactly that length and decodes back to
//! the same bits, non-finite and subnormal payloads included: the
//! `*_frames_are_exact_and_bit_lossless` properties pin both.

use automon_core::{
    CoordinatorMessage, Curvature, DcKind, NeighborhoodBox, NodeMessage, SafeZone, TierMessage,
    ViolationKind, ZoneUpdate,
};
use automon_linalg::Matrix;
use automon_net::wire::{
    coordinator_message_len, decode_coordinator_message, decode_coordinator_message_ctx,
    decode_node_message, decode_node_message_ctx, decode_tier_message_ctx,
    encode_coordinator_message, encode_coordinator_message_ctx, encode_node_message,
    encode_node_message_ctx, encode_tier_message_ctx, node_message_len, tier_message_len,
    WireError,
};
use automon_obs::SpanId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A value of any class: one in three is a special — a NaN with a
/// payload or sign bit, ±inf, a signed zero or a subnormal — the rest
/// spread over many magnitudes.
fn value(rng: &mut SmallRng) -> f64 {
    const SPECIAL: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
    ];
    match rng.gen_range(0..6) {
        0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
        // Quiet or signalling NaN, either sign, random payload.
        1 => {
            let sign = rng.next_u64() & (1 << 63);
            f64::from_bits(sign | 0x7FF0_0000_0000_0000 | rng.gen_range(1..1u64 << 52))
        }
        _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-300..300)),
    }
}

fn values(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| value(rng)).collect()
}

fn kind(rng: &mut SmallRng) -> ViolationKind {
    [
        ViolationKind::Uninitialized,
        ViolationKind::Neighborhood,
        ViolationKind::SafeZone,
        ViolationKind::FaultyConstraints,
    ][rng.gen_range(0..4usize)]
}

fn dc(rng: &mut SmallRng) -> DcKind {
    [
        DcKind::ConvexDiff,
        DcKind::ConcaveDiff,
        DcKind::AdmissibleOnly,
    ][rng.gen_range(0..3usize)]
}

fn neighborhood(rng: &mut SmallRng, d: usize, some: bool) -> Option<NeighborhoodBox> {
    some.then(|| NeighborhoodBox {
        lo: values(rng, d),
        hi: values(rng, d),
    })
}

/// Every coordinator→node variant the fabrics hand on, at dimension
/// `d`: both curvature forms × with and without a neighborhood, the
/// cached install (both neighborhood arms), the slack update and the
/// pull.
fn coordinator_messages(rng: &mut SmallRng, d: usize) -> Vec<CoordinatorMessage> {
    let mut out = Vec::new();
    for quadratic in [false, true] {
        for nb in [false, true] {
            let curvature = if quadratic {
                Curvature::Quadratic(Matrix::from_rows(d, d, values(rng, d * d)))
            } else {
                Curvature::Scalar(value(rng))
            };
            let zone = SafeZone {
                x0: values(rng, d),
                f0: value(rng),
                grad0: values(rng, d),
                l: value(rng),
                u: value(rng),
                dc: dc(rng),
                curvature,
                neighborhood: neighborhood(rng, d, nb),
            };
            let (slack, epoch) = (values(rng, d), rng.next_u64());
            out.push(CoordinatorMessage::NewConstraints { zone, slack, epoch });
        }
    }
    for nb in [false, true] {
        let update = ZoneUpdate {
            x0: values(rng, d),
            f0: value(rng),
            grad0: values(rng, d),
            l: value(rng),
            u: value(rng),
            dc: dc(rng),
            neighborhood: neighborhood(rng, d, nb),
        };
        let (slack, epoch) = (values(rng, d), rng.next_u64());
        out.push(CoordinatorMessage::NewConstraintsCached {
            update,
            slack,
            epoch,
        });
    }
    out.push(CoordinatorMessage::SlackUpdate {
        slack: values(rng, d),
        epoch: rng.next_u64(),
    });
    out.push(CoordinatorMessage::RequestLocalVector { epoch: rng.next_u64() });
    out
}

fn node_messages(rng: &mut SmallRng, d: usize) -> [NodeMessage; 2] {
    [
        NodeMessage::Violation {
            node: rng.gen_range(0..1 << 20),
            kind: kind(rng),
            local_vector: values(rng, d),
            epoch: rng.next_u64(),
        },
        NodeMessage::LocalVector {
            node: rng.gen_range(0..1 << 20),
            vector: values(rng, d),
            epoch: rng.next_u64(),
        },
    ]
}

fn tier_messages(rng: &mut SmallRng, d: usize) -> [TierMessage; 2] {
    [
        TierMessage::LeafReport {
            leaf: rng.gen_range(0..1 << 20),
            kind: kind(rng),
            partial: values(rng, d),
            weight: rng.next_u64(),
            epoch: rng.next_u64(),
        },
        TierMessage::Rebalance {
            leaf: rng.gen_range(0..1 << 20),
            adopted: (0..d).map(|_| rng.gen_range(0..1 << 20)).collect(),
            epoch: rng.next_u64(),
        },
    ]
}

/// A message flattened to words, every `f64` as its bits: two messages
/// with equal words are equal bit for bit, NaN payloads included, where
/// `PartialEq` would call any NaN unequal and `-0.0 == 0.0`.
#[derive(Default)]
struct Words(Vec<u64>);

impl Words {
    fn int(&mut self, v: impl Into<u64>) -> &mut Self {
        self.0.push(v.into());
        self
    }
    fn f(&mut self, v: f64) -> &mut Self {
        self.int(v.to_bits())
    }
    fn fs(&mut self, v: &[f64]) -> &mut Self {
        self.int(v.len() as u64);
        v.iter().for_each(|&x| {
            self.f(x);
        });
        self
    }
    fn nb(&mut self, nb: &Option<NeighborhoodBox>) -> &mut Self {
        match nb {
            None => self.int(0u8),
            Some(b) => self.int(1u8).fs(&b.lo).fs(&b.hi),
        }
    }
    fn dc(&mut self, dc: DcKind) -> &mut Self {
        self.int(dc as u8)
    }

    fn of_node(m: &NodeMessage) -> Vec<u64> {
        let mut w = Words::default();
        match m {
            NodeMessage::Violation {
                node,
                kind,
                local_vector,
                epoch,
            } => w
                .int(0u8)
                .int(*node as u64)
                .int(*kind as u8)
                .fs(local_vector)
                .int(*epoch),
            NodeMessage::LocalVector {
                node,
                vector,
                epoch,
            } => w.int(1u8).int(*node as u64).fs(vector).int(*epoch),
        };
        w.0
    }

    fn of_coordinator(m: &CoordinatorMessage) -> Vec<u64> {
        let mut w = Words::default();
        match m {
            CoordinatorMessage::RequestLocalVector { epoch } => w.int(0u8).int(*epoch),
            CoordinatorMessage::NewConstraints {
                zone: z,
                slack,
                epoch,
            } => {
                w.int(1u8)
                    .int(*epoch)
                    .fs(&z.x0)
                    .f(z.f0)
                    .fs(&z.grad0)
                    .f(z.l)
                    .f(z.u)
                    .dc(z.dc);
                match &z.curvature {
                    Curvature::Scalar(c) => w.int(0u8).f(*c),
                    Curvature::Quadratic(m) => w
                        .int(1u8)
                        .int(m.rows() as u64)
                        .int(m.cols() as u64)
                        .fs(m.as_slice()),
                };
                w.nb(&z.neighborhood).fs(slack)
            }
            CoordinatorMessage::SlackUpdate { slack, epoch } => w.int(2u8).int(*epoch).fs(slack),
            CoordinatorMessage::NewConstraintsCached {
                update: z,
                slack,
                epoch,
            } => w
                .int(3u8)
                .int(*epoch)
                .fs(&z.x0)
                .f(z.f0)
                .fs(&z.grad0)
                .f(z.l)
                .f(z.u)
                .dc(z.dc)
                .nb(&z.neighborhood)
                .fs(slack),
        };
        w.0
    }

    fn of_tier(m: &TierMessage) -> Vec<u64> {
        let mut w = Words::default();
        match m {
            TierMessage::LeafReport {
                leaf,
                kind,
                partial,
                weight,
                epoch,
            } => w
                .int(0u8)
                .int(*leaf as u64)
                .int(*kind as u8)
                .fs(partial)
                .int(*weight)
                .int(*epoch),
            TierMessage::Rebalance {
                leaf,
                adopted,
                epoch,
            } => {
                w.int(1u8).int(*leaf as u64).int(adopted.len() as u64);
                adopted.iter().for_each(|&id| {
                    w.int(id as u64);
                });
                w.int(*epoch)
            }
        };
        w.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte strings decode to `Err`, not a panic.
    #[test]
    fn decode_node_message_is_total(bytes in proptest::collection::vec(0u8..=255u8, 0..256usize)) {
        let _ = decode_node_message(&bytes);
    }

    #[test]
    fn decode_coordinator_message_is_total(bytes in proptest::collection::vec(0u8..=255u8, 0..256usize)) {
        let _ = decode_coordinator_message(&bytes);
    }

    /// Same, but past the magic byte and trace-context header so the
    /// payload parsers get exercised instead of failing at the first
    /// check.
    #[test]
    fn decode_with_valid_magic_is_total(bytes in proptest::collection::vec(0u8..=255u8, 0..256usize)) {
        let mut frame = vec![0xA9u8];
        frame.extend_from_slice(&0u64.to_le_bytes()); // span id slot
        frame.extend_from_slice(&bytes);
        let _ = decode_node_message(&frame);
        let _ = decode_coordinator_message(&frame);
    }

    /// Hostile length prefixes (huge vector/matrix sizes) must be
    /// rejected as truncated, not tank the allocator or overflow.
    #[test]
    fn hostile_lengths_are_rejected(node in 0u32..64u32, len in 0x1000_0000u32..=u32::MAX) {
        // magic, span-id slot, LocalVector tag, node id, epoch, then a
        // length far beyond the actual payload.
        let mut frame = vec![0xA9u8];
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.push(1);
        frame.extend_from_slice(&node.to_le_bytes());
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        prop_assert!(decode_node_message(&frame).is_err());
    }

    /// Encode → round-trip for epoch-tagged node messages over the
    /// whole input space.
    #[test]
    fn node_message_round_trips(
        node in 0usize..1024usize,
        epoch in 0u64..=u64::MAX,
        vector in proptest::collection::vec(-1e12f64..1e12f64, 0..32usize),
        kind_tag in 0u8..4u8,
    ) {
        let kind = match kind_tag {
            0 => ViolationKind::Uninitialized,
            1 => ViolationKind::Neighborhood,
            2 => ViolationKind::SafeZone,
            _ => ViolationKind::FaultyConstraints,
        };
        let msg = NodeMessage::Violation { node, kind, local_vector: vector.clone(), epoch };
        let decoded = decode_node_message(&encode_node_message(&msg)).unwrap();
        prop_assert_eq!(&decoded, &msg);
        let msg = NodeMessage::LocalVector { node, vector, epoch };
        let decoded = decode_node_message(&encode_node_message(&msg)).unwrap();
        prop_assert_eq!(&decoded, &msg);
    }

    /// Epoch-tagged coordinator messages round-trip too (the zone-less
    /// variants; zone-carrying forms are covered by unit tests).
    #[test]
    fn coordinator_message_round_trips(
        epoch in 0u64..=u64::MAX,
        slack in proptest::collection::vec(-1e12f64..1e12f64, 0..32usize),
    ) {
        let msg = CoordinatorMessage::RequestLocalVector { epoch };
        let decoded = decode_coordinator_message(&encode_coordinator_message(&msg)).unwrap();
        prop_assert_eq!(&decoded, &msg);
        let msg = CoordinatorMessage::SlackUpdate { slack, epoch };
        let decoded = decode_coordinator_message(&encode_coordinator_message(&msg)).unwrap();
        prop_assert_eq!(&decoded, &msg);
    }

    /// Encode, corrupt exactly one byte, decode: the result is a clean
    /// `Err` or a structurally valid (different) message — never a
    /// panic. Corrupting the magic byte always fails.
    #[test]
    fn single_byte_corruption_fails_cleanly(
        epoch in 0u64..1000u64,
        vector in proptest::collection::vec(-100.0f64..100.0f64, 1..16usize),
        pos_seed in 0usize..4096usize,
        delta in 1u8..=255u8,
    ) {
        let msg = NodeMessage::LocalVector { node: 3, vector, epoch };
        let frame = encode_node_message(&msg);
        let mut bytes = frame.to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let result = decode_node_message_ctx(&bytes);
        if pos == 0 {
            prop_assert!(result.is_err(), "corrupt magic must be rejected");
        } else if (1..9).contains(&pos) {
            // Bytes 1..9 are the trace-context span id: the message
            // body is untouched, but the corruption must land in the
            // decoded span rather than vanish.
            let (span, decoded) = result.unwrap();
            prop_assert_eq!(&decoded, &msg);
            prop_assert_ne!(span, automon_obs::SpanId::NONE);
        } else if let Ok((_, decoded)) = result {
            // A flipped payload byte may still parse — but then it must
            // differ from the original (no silent identity corruption).
            prop_assert_ne!(decoded, msg);
        }
    }

    /// Every coordinator→node variant: the public frame length is the
    /// encoded length, and the frame decodes to the same bits and span.
    #[test]
    fn coordinator_frames_are_exact_and_bit_lossless(seed in 0u64..u64::MAX, d in 0usize..6usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let span = SpanId(rng.next_u64());
        for msg in coordinator_messages(&mut rng, d) {
            let frame = encode_coordinator_message_ctx(&msg, span);
            prop_assert_eq!(coordinator_message_len(&msg), frame.len(), "{:?}", msg);
            let (got_span, decoded) = decode_coordinator_message_ctx(&frame).unwrap();
            prop_assert_eq!(got_span, span);
            prop_assert_eq!(Words::of_coordinator(&decoded), Words::of_coordinator(&msg), "{:?}", msg);
        }
    }

    /// Both node→coordinator variants, likewise.
    #[test]
    fn node_frames_are_exact_and_bit_lossless(seed in 0u64..u64::MAX, d in 0usize..40usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let span = SpanId(rng.next_u64());
        for msg in node_messages(&mut rng, d) {
            let frame = encode_node_message_ctx(&msg, span);
            prop_assert_eq!(node_message_len(&msg), frame.len(), "{:?}", msg);
            let (got_span, decoded) = decode_node_message_ctx(&frame).unwrap();
            prop_assert_eq!(got_span, span);
            prop_assert_eq!(Words::of_node(&decoded), Words::of_node(&msg), "{:?}", msg);
        }
    }

    /// Both inter-tier variants, likewise.
    #[test]
    fn tier_frames_are_exact_and_bit_lossless(seed in 0u64..u64::MAX, d in 0usize..40usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let span = SpanId(rng.next_u64());
        for msg in tier_messages(&mut rng, d) {
            let frame = encode_tier_message_ctx(&msg, span);
            prop_assert_eq!(tier_message_len(&msg), frame.len(), "{:?}", msg);
            let (got_span, decoded) = decode_tier_message_ctx(&frame).unwrap();
            prop_assert_eq!(got_span, span);
            prop_assert_eq!(Words::of_tier(&decoded), Words::of_tier(&msg), "{:?}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every strict prefix of a valid frame of every variant decodes to
    /// `Truncated`: each read checks its own length, so a frame cut
    /// anywhere — inside the header, a length prefix, a vector or a
    /// matrix — fails cleanly instead of panicking or reading a
    /// different message.
    #[test]
    fn every_strict_prefix_is_truncated(seed in 0u64..u64::MAX, d in 0usize..24usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let span = SpanId(rng.next_u64());
        for msg in node_messages(&mut rng, d) {
            let frame = encode_node_message_ctx(&msg, span);
            for k in 0..frame.len() {
                let cut = decode_node_message_ctx(&frame[..k]);
                prop_assert_eq!(cut, Err(WireError::Truncated), "{:?} cut at {}", msg, k);
            }
        }
        for msg in coordinator_messages(&mut rng, d.min(5)) {
            let frame = encode_coordinator_message_ctx(&msg, span);
            for k in 0..frame.len() {
                let cut = decode_coordinator_message_ctx(&frame[..k]);
                prop_assert_eq!(cut, Err(WireError::Truncated), "{:?} cut at {}", msg, k);
            }
        }
        for msg in tier_messages(&mut rng, d) {
            let frame = encode_tier_message_ctx(&msg, span);
            for k in 0..frame.len() {
                let cut = decode_tier_message_ctx(&frame[..k]);
                prop_assert_eq!(cut, Err(WireError::Truncated), "{:?} cut at {}", msg, k);
            }
        }
    }
}

/// The generators reach what the properties claim to cover: every
/// special class, both signs of NaN, and a payload beyond the default
/// quiet NaN's.
#[test]
fn generators_reach_every_special_value() {
    let mut rng = SmallRng::seed_from_u64(1);
    let drawn = values(&mut rng, 4000);
    let has = |p: &dyn Fn(f64) -> bool| drawn.iter().any(|&x| p(x));
    assert!(has(&|x| x.is_nan() && x.is_sign_negative()));
    assert!(has(
        &|x| x.is_nan() && x.to_bits() & 0x0007_FFFF_FFFF_FFFF != 0
    ));
    assert!(has(&|x| x == f64::INFINITY));
    assert!(has(&|x| x == f64::NEG_INFINITY));
    assert!(has(&|x| x == 0.0 && x.is_sign_negative()));
    assert!(has(&|x| x.is_subnormal()));
}
