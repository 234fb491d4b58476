//! Codec round-trip and rejection properties (ISSUE 7 satellite).
//!
//! `decode(encode(msg)) == msg` over randomized messages of every
//! variant, `encode(decode(bytes)) == bytes` for every valid frame (the
//! codec is canonical: one byte string per message), and the typed
//! rejections: truncation, bad magic, version skew, unknown tag,
//! oversized length prefix, trailing bytes.

use fl_core::plan::{CodecSpec, FlPlan, ModelSpec, PlanOp};
use fl_core::{DeviceId, FlCheckpoint, PopulationName, RoundId};
use fl_wire::{
    checksum, decode, decode_prefix, encode, encode_into, encoded_len, peek_tag, tag, PlanSlot,
    ReportPayload, ReportRef, WireError, WireMessage, HEADER_LEN, PROTOCOL_VERSION, TRAILER_LEN,
};
use proptest::prelude::*;

/// Recomputes the integrity trailer after a test hand-mangles header or
/// body bytes, so the mangled content (not the stale checksum) is what
/// the decoder judges.
fn reseal(frame: &mut Vec<u8>) {
    let content_end = frame.len() - TRAILER_LEN;
    let digest = checksum(&frame[..content_end]);
    frame[content_end..].copy_from_slice(&digest.to_le_bytes());
}

/// Deterministically builds one message of each shape from primitive
/// draws (the vendored proptest has no recursive enum strategies).
fn build_message(
    variant: u8,
    a: u64,
    b: u64,
    frac_bits: u64,
    blob: Vec<u8>,
    params: Vec<f32>,
) -> WireMessage {
    let frac = (frac_bits % 1_000_000) as f64 / 997.0;
    let population = prop_population(a ^ b);
    match variant % 7 {
        0 => WireMessage::CheckinRequest {
            device: DeviceId(a),
            population,
        },
        1 => WireMessage::ComeBackLater {
            retry_at_ms: a,
            population,
        },
        2 => WireMessage::Shed {
            retry_at_ms: a,
            population,
        },
        3 => {
            let model = match a % 4 {
                0 => ModelSpec::Linear {
                    dim: (b % 100) as usize,
                },
                1 => ModelSpec::Logistic {
                    dim: (b % 100) as usize,
                    classes: 3,
                    seed: a,
                },
                2 => ModelSpec::Mlp {
                    dim: (b % 50) as usize,
                    hidden: 4,
                    classes: 2,
                    seed: a,
                },
                _ => ModelSpec::EmbeddingLm {
                    vocab: (b % 50) as usize + 1,
                    dim: 3,
                    seed: a,
                },
            };
            let codec = match b % 4 {
                0 => CodecSpec::Identity,
                1 => CodecSpec::Quantize {
                    block: (a % 64) as usize + 1,
                },
                2 => CodecSpec::Subsample {
                    keep: frac,
                    seed: b,
                },
                _ => CodecSpec::Pipeline {
                    keep: frac,
                    seed: b,
                    block: (a % 64) as usize + 1,
                },
            };
            let mut plan = FlPlan::standard_training(model, 2, 8, 0.05, codec);
            plan.device.graph_payload_bytes = (a % 500) as usize;
            if a % 3 == 0 {
                plan.device.ops.push(PlanOp::QueryExamples {
                    limit: (b % 2 == 0).then_some((b % 1000) as usize),
                    held_out: a % 2 == 0,
                });
            }
            let checkpoint = FlCheckpoint::new("prop-task", RoundId(b), params);
            WireMessage::PlanAndCheckpoint {
                plan: Box::new(plan),
                checkpoint: Box::new(checkpoint),
                population,
            }
        }
        4 => WireMessage::UpdateReport {
            device: DeviceId(a),
            round: RoundId(b),
            attempt: (a % 5) as u32 + 1,
            update_bytes: blob,
            weight: b,
            loss: frac,
            accuracy: frac / 2.0,
            population,
        },
        5 => WireMessage::ReportAck {
            accepted: a % 2 == 0,
            round: RoundId(b),
            attempt: (a % 5) as u32,
            population,
        },
        _ => WireMessage::SecAggReport {
            device: DeviceId(a),
            round: RoundId(b ^ a),
            attempt: (b % 4) as u32 + 1,
            field_vector: blob.iter().map(|&x| u64::from(x).wrapping_mul(b)).collect(),
            weight: b,
            loss: frac,
            accuracy: frac / 2.0,
            population,
        },
    }
}

/// `build_message`'s two report variants (plain, SecAgg).
const REPORT_VARIANTS: [u8; 2] = [4, 6];

/// Deterministic non-empty population name from a primitive draw.
fn prop_population(sel: u64) -> PopulationName {
    PopulationName::new(format!("pop/{}", sel % 3))
}

/// A `ComeBackLater` frame of exactly `content_len` bytes of header +
/// body: 18 fixed bytes and a population name that fills the rest. The
/// name is never empty, so 19 bytes is the smallest content a message
/// can have, and every length above it is reachable.
fn frame_of_content_len(content_len: usize) -> Vec<u8> {
    let frame = encode(&WireMessage::ComeBackLater {
        retry_at_ms: 7,
        population: PopulationName::new("p".repeat(content_len - 18)),
    })
    .unwrap();
    assert_eq!(frame.len() - TRAILER_LEN, content_len);
    frame
}

/// The smallest frame the protocol can make.
fn smallest_frame() -> Vec<u8> {
    frame_of_content_len(19)
}

/// Every pinned frame from the golden fixture, as raw bytes — the
/// canonical corpus for the network-fault fuzz gate below.
fn golden_frames() -> Vec<Vec<u8>> {
    let fixture = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_frames.txt");
    let text = std::fs::read_to_string(fixture).expect("golden_frames.txt present");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("fixture is hex"))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode ∘ encode` is the identity on messages, the length
    /// predictor agrees with the encoder, and the tag survives a peek.
    #[test]
    fn message_roundtrip(
        variant in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        frac_bits in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        params in proptest::collection::vec(-1000.0f32..1000.0, 0..32),
    ) {
        let msg = build_message(variant, a, b, frac_bits, blob, params);
        let frame = encode(&msg).unwrap();
        prop_assert_eq!(frame.len(), encoded_len(&msg));
        prop_assert_eq!(peek_tag(&frame).unwrap(), msg.tag());
        let back = decode(&frame).unwrap();
        prop_assert_eq!(&back, &msg);
        // The codec is canonical: re-encoding the decode reproduces the
        // exact bytes (`encode ∘ decode` identity on valid frames).
        prop_assert_eq!(encode(&back).unwrap(), frame);
    }

    /// Streamed frames concatenate: `decode_prefix` walks a buffer of
    /// back-to-back frames without loss, and every strict prefix of a
    /// frame is rejected as truncation, never misparsed.
    #[test]
    fn stream_and_truncation(
        variant in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..32),
        cut_sel in any::<u64>(),
    ) {
        let first = build_message(variant, a, b, 7, blob.clone(), vec![1.0]);
        let second = WireMessage::ReportAck {
            accepted: a % 2 == 1,
            round: RoundId(b),
            attempt: 1,
            population: prop_population(b),
        };
        let mut buf = encode(&first).unwrap();
        let first_len = buf.len();
        buf.extend_from_slice(&encode(&second).unwrap());

        let (m1, used1) = decode_prefix(&buf).unwrap();
        prop_assert_eq!(&m1, &first);
        prop_assert_eq!(used1, first_len);
        let (m2, used2) = decode_prefix(&buf[used1..]).unwrap();
        prop_assert_eq!(&m2, &second);
        prop_assert_eq!(used1 + used2, buf.len());

        // Any strict prefix of a single frame is Truncated.
        let cut = (cut_sel % first_len as u64) as usize;
        match decode(&encode(&first).unwrap()[..cut]) {
            Err(WireError::Truncated { .. }) => {}
            other => prop_assert!(false, "prefix of {cut} bytes gave {other:?}"),
        }
    }

    /// `encode_into` on a dirty, reused buffer writes exactly the frame
    /// `encode` returns, whatever the buffer held or how large it was.
    #[test]
    fn encode_into_a_dirty_buffer_matches_encode(
        variant in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        params in proptest::collection::vec(-1000.0f32..1000.0, 0..32),
        junk in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let msg = build_message(variant, a, b, 7, blob, params);
        let mut buf = junk;
        let n = encode_into(&msg, &mut buf).unwrap();
        prop_assert_eq!(n, buf.len());
        prop_assert_eq!(&buf, &encode(&msg).unwrap());
        // And again over its own output.
        encode_into(&msg, &mut buf).unwrap();
        prop_assert_eq!(&buf, &encode(&msg).unwrap());
    }

    /// The borrowed report view and the owned decode are one parser:
    /// they agree field for field on every report frame (plain and
    /// SecAgg, every population), and give the same typed error for a
    /// truncated, a trailing-byte, and a mangled frame.
    #[test]
    fn report_ref_agrees_with_decode(
        masked in any::<bool>(),
        a in any::<u64>(),
        b in any::<u64>(),
        frac_bits in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        cut_sel in any::<u64>(),
        flip_pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let variant = REPORT_VARIANTS[usize::from(masked)];
        let msg = build_message(variant, a, b, frac_bits, blob, Vec::new());
        let frame = encode(&msg).unwrap();
        let report = ReportRef::parse(&frame).unwrap();
        prop_assert_eq!(&report.to_message(), &msg);
        prop_assert_eq!(&decode(&frame).unwrap(), &msg);
        match (&msg, report.payload) {
            (
                WireMessage::UpdateReport {
                    device, round, attempt, update_bytes, weight, loss, accuracy, population,
                },
                ReportPayload::Update(payload),
            ) => {
                prop_assert_eq!(
                    (report.device, report.round, report.attempt, report.weight),
                    (*device, *round, *attempt, *weight)
                );
                prop_assert_eq!((report.loss, report.accuracy), (*loss, *accuracy));
                prop_assert_eq!(payload, &update_bytes[..]);
                prop_assert_eq!(report.population, population.as_str());
            }
            (
                WireMessage::SecAggReport {
                    device, round, attempt, field_vector, weight, loss, accuracy, population,
                },
                ReportPayload::Field(payload),
            ) => {
                prop_assert_eq!(
                    (report.device, report.round, report.attempt, report.weight),
                    (*device, *round, *attempt, *weight)
                );
                prop_assert_eq!((report.loss, report.accuracy), (*loss, *accuracy));
                let coordinates: Vec<u64> =
                    payload.iter().map(|c| u64::from_le_bytes(*c)).collect();
                prop_assert_eq!(&coordinates, field_vector);
                prop_assert_eq!(report.population, population.as_str());
            }
            (msg, payload) => prop_assert!(false, "{msg:?} viewed as {payload:?}"),
        }
        // The span names the payload's bytes inside the frame.
        prop_assert_eq!(frame[report.payload_span()].len(), report.payload.len_bytes());
        match report.payload {
            ReportPayload::Update(payload) => {
                prop_assert_eq!(&frame[report.payload_span()], payload)
            }
            ReportPayload::Field(payload) => {
                prop_assert_eq!(&frame[report.payload_span()], payload.as_flattened())
            }
        }

        let owned = |bytes: &[u8]| decode(bytes).map(|_| ());
        let viewed = |bytes: &[u8]| ReportRef::parse(bytes).map(|_| ());
        let cut = (cut_sel % frame.len() as u64) as usize;
        prop_assert!(viewed(&frame[..cut]).is_err());
        prop_assert_eq!(viewed(&frame[..cut]), owned(&frame[..cut]));
        let mut trailing = frame.clone();
        trailing.push(0);
        prop_assert_eq!(viewed(&trailing), Err(WireError::TrailingBytes { extra: 1 }));
        prop_assert_eq!(viewed(&trailing), owned(&trailing));
        let mut flipped = frame.clone();
        let pos = (flip_pos % flipped.len() as u64) as usize;
        flipped[pos] ^= xor;
        prop_assert!(viewed(&flipped).is_err());
        if peek_tag(&flipped) == Ok(msg.tag()) {
            prop_assert_eq!(viewed(&flipped), owned(&flipped));
        }
    }

    /// Network-fault fuzz gate: a byte flipped *anywhere* in a golden
    /// frame — header, body, or trailer — must be refused with a typed
    /// `WireError`, never decoded (the integrity trailer catches every
    /// single-byte flip with certainty) and never a panic. A truncated
    /// frame likewise is always a typed error, never a misparse that
    /// panics downstream. That holds on a connection too, whose slot holds
    /// the golden plan (so the slim Configuration, tag 14, would decode).
    #[test]
    fn mangled_golden_frames_are_always_refused(
        flip_pos in any::<u64>(),
        xor in 1u8..=255,
        cut_sel in any::<u64>(),
    ) {
        let frames = golden_frames();
        let mut connection = PlanSlot::default();
        prop_assert!(connection.decode(&frames[3]).is_ok());
        for frame in &frames {
            // One byte flipped anywhere in the frame.
            let mut flipped = frame.clone();
            let pos = (flip_pos % flipped.len() as u64) as usize;
            flipped[pos] ^= xor;
            prop_assert!(decode(&flipped).is_err(), "flip at {pos} decoded");
            prop_assert!(decode_prefix(&flipped).is_err());
            prop_assert!(connection.clone().decode(&flipped).is_err());
            let _ = peek_tag(&flipped); // header-only: may still peek Ok

            // Any strict prefix: must be an error (typed), never Ok.
            let cut = (cut_sel % frame.len() as u64) as usize;
            prop_assert!(decode(&frame[..cut]).is_err());
            prop_assert!(connection.clone().decode(&frame[..cut]).is_err());
        }
        prop_assert!(connection.decode(&frames[7]).is_ok(), "the slim golden frame decodes");
    }

    /// A slim Configuration whose body is mangled and resealed (so the
    /// trailer vouches for it, as a buggy or hostile peer's would) decodes
    /// on a connection holding the golden plan to a typed error or a
    /// value, never a panic; only a frame that still names that plan's
    /// digest can decode.
    #[test]
    fn a_mangled_slim_configuration_is_a_typed_error_or_a_value(
        pos_sel in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let frames = golden_frames();
        let (full, slim) = (&frames[3], &frames[7]);
        prop_assert_eq!(slim[3], tag::PLAN_DIGEST_AND_CHECKPOINT);
        let mut connection = PlanSlot::default();
        prop_assert!(connection.decode(full).is_ok());
        let mut mangled = slim.clone();
        let pos = HEADER_LEN + (pos_sel % (slim.len() - HEADER_LEN - TRAILER_LEN) as u64) as usize;
        mangled[pos] ^= xor;
        reseal(&mut mangled);
        let digest = HEADER_LEN..HEADER_LEN + 8;
        let names_the_plan = mangled[digest.clone()] == slim[digest];
        match connection.decode(&mangled) {
            Ok(msg) => prop_assert!(names_the_plan && msg.tag() == tag::PLAN_AND_CHECKPOINT),
            Err(e) => prop_assert!(names_the_plan || matches!(e, WireError::Malformed { .. })),
        }
    }

    /// Arbitrary byte mutations never panic the decoder: every outcome
    /// is `Ok` or a typed `WireError`.
    #[test]
    fn mutation_never_panics(
        a in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..32),
        pos_sel in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let msg = WireMessage::UpdateReport {
            device: DeviceId(a),
            round: RoundId(a ^ 0xA5),
            attempt: 1,
            update_bytes: blob,
            weight: 3,
            loss: 0.5,
            accuracy: 0.25,
            population: prop_population(a),
        };
        let mut frame = encode(&msg).unwrap();
        let pos = (pos_sel % frame.len() as u64) as usize;
        frame[pos] ^= xor;
        let _ = decode(&frame);
        let _ = decode_prefix(&frame);
        let _ = peek_tag(&frame);
    }
}

#[test]
fn rejects_bad_magic() {
    let mut frame = smallest_frame();
    frame[0] = b'X';
    assert_eq!(
        decode(&frame),
        Err(WireError::BadMagic {
            found: [b'X', b'W']
        })
    );
}

#[test]
fn rejects_version_skew() {
    let mut frame = smallest_frame();
    frame[2] = PROTOCOL_VERSION + 1;
    assert_eq!(
        decode(&frame),
        Err(WireError::VersionSkew {
            ours: PROTOCOL_VERSION,
            theirs: PROTOCOL_VERSION + 1
        })
    );
}

#[test]
fn rejects_v5_frames_with_typed_skew() {
    // A frame recorded before the v6 plan digest — the v5 golden
    // `CheckinRequest`, sound under its trailer — must be refused with
    // the typed skew error naming both versions: the version byte is
    // judged before the trailer, so an old peer reads as skewed, not as
    // corrupted, and is never misparsed.
    assert_eq!(PROTOCOL_VERSION, 6, "this regression pins the v5→v6 bump");
    let hex =
        "465705011b000000efcdab89674523011100676f6c64656e2f706f70756c6174696f6e59f60eaa9810f499";
    let v5_frame: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    // Sound at v5, whose digest is v6's.
    let content_end = v5_frame.len() - TRAILER_LEN;
    assert_eq!(
        checksum(&v5_frame[..content_end]).to_le_bytes(),
        v5_frame[content_end..]
    );
    assert_eq!(
        decode(&v5_frame),
        Err(WireError::VersionSkew { ours: 6, theirs: 5 })
    );
    assert_eq!(
        ReportRef::parse(&v5_frame),
        Err(WireError::VersionSkew { ours: 6, theirs: 5 })
    );
    assert_eq!(
        peek_tag(&v5_frame),
        Err(WireError::VersionSkew { ours: 6, theirs: 5 })
    );
}

#[test]
fn retired_update_tags_stay_reserved() {
    // The six tags of the Coordinator ↔ Master Aggregator hop left the
    // protocol when that hop stopped being framed; a sound frame
    // carrying one is an unknown message, not a slot for something new.
    for retired in [7u8, 8, 9, 10, 12, 13] {
        let mut frame = smallest_frame();
        frame[3] = retired;
        reseal(&mut frame);
        assert_eq!(
            decode(&frame),
            Err(WireError::UnknownMessage { tag: retired })
        );
    }
}

#[test]
fn hostile_payload_count_is_truncation_not_allocation() {
    // A sound (resealed) report whose payload prefix claims `u32::MAX`
    // bytes / coordinates — 4 GiB / 32 GiB if believed. Both parsers
    // hold the claim against the bytes present before sizing anything.
    let reports = [
        build_message(REPORT_VARIANTS[0], 1, 2, 3, vec![7; 16], Vec::new()),
        build_message(REPORT_VARIANTS[1], 1, 2, 3, vec![7; 16], Vec::new()),
    ];
    for msg in reports {
        let mut frame = encode(&msg).unwrap();
        let prefix_at = ReportRef::parse(&frame).unwrap().payload_span().start - 4;
        frame[prefix_at..prefix_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut frame);
        assert!(matches!(decode(&frame), Err(WireError::Truncated { .. })));
        assert_eq!(
            ReportRef::parse(&frame).map(|_| ()),
            decode(&frame).map(|_| ())
        );
    }
}

#[test]
fn report_view_refuses_other_messages() {
    let frame = smallest_frame();
    assert_eq!(
        ReportRef::parse(&frame),
        Err(WireError::Malformed {
            what: "frame is not a report"
        })
    );
}

/// The digest is frozen alongside the golden fixture: these vectors pin
/// the algorithm itself (seeds, primes, lane order, fold, tail) at every
/// block/tail boundary. The six under 64 bytes are protocol v4's narrow
/// digest, unchanged since v4; they were cross-checked against an
/// independent implementation written from the definition in
/// `frame.rs`. The wide ones straddle the 4 096-byte threshold and a
/// 512-byte block with its byte tail, end a short last block of 12 words
/// in a 7-byte tail (4 199), and reach 1 MiB; all were cross-checked the
/// same way, and `frame.rs`'s unit tests hold every build of the wide
/// digest to a per-word reference.
#[test]
fn digest_vectors_are_pinned() {
    let bytes: Vec<u8> = (0..1usize << 20)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
        .collect();
    let pinned: [(usize, u64); 13] = [
        (0, 0x4dbc_3146_d850_2748),
        (1, 0x8a23_58c1_fc88_57a2),
        (31, 0x84bf_f465_839b_e9f2),
        (32, 0xf524_723f_5690_1831),
        (33, 0x1fca_1b6d_70e1_958b),
        (64, 0x7cf7_f9da_a6b4_9502),
        (4095, 0x841c_38bd_aedd_3656),
        (4096, 0x4eb0_f8da_f357_1dd7),
        (4097, 0x5704_f1c3_3dd6_1970),
        (4199, 0xa27c_e4e9_70d2_cf0c),
        (4608, 0xcd39_86bd_12f6_aa25),
        (4609, 0xf880_d2bf_ec38_1717),
        (1 << 20, 0x882d_c8d8_8bb4_e71e),
    ];
    for (len, digest) in pinned {
        assert_eq!(
            checksum(&bytes[..len]),
            digest,
            "digest of {len} bytes moved: {:#018x}",
            checksum(&bytes[..len])
        );
    }
}

/// Flips `position` of `frame` under each mask and demands a typed
/// refusal from every decoder.
fn assert_flips_refused(frame: &[u8], positions: impl Iterator<Item = usize>) {
    let mut mangled = frame.to_vec();
    for position in positions {
        for mask in [0x01u8, 0x80, 0xff] {
            mangled[position] ^= mask;
            assert!(
                decode(&mangled).is_err() && decode_prefix(&mangled).is_err(),
                "a {}-byte frame decoded with byte {position} ^ {mask:#04x}",
                frame.len()
            );
            mangled[position] ^= mask;
        }
    }
}

/// Any single-byte difference is detected with certainty. Digest level:
/// every position x mask over arbitrary content of every length 0..=104,
/// which is every alignment of a byte to a lane, the serial tail words
/// and the byte tail of the narrow digest, and of lengths 4 095 to 4 097
/// and 4 608 to 4 609: each side of the wide digest's threshold, whole
/// blocks, and a short block's words and byte tail. Frame level: every position (header, body and
/// trailer alike) of a valid frame of every content length a message
/// can have up to 104 (19 is the smallest), of a 4 KB frame, and,
/// sampled (all of it is three terabytes of digest work), of a 1 MB
/// frame.
#[test]
fn every_single_byte_flip_is_refused() {
    let content: Vec<u8> = (0..4609u32).map(|i| (i * 131 + 7) as u8).collect();
    for len in (0..=104).chain([4095, 4096, 4097, 4608, 4609]) {
        let sound = checksum(&content[..len]);
        let mut mangled = content[..len].to_vec();
        for position in 0..len {
            for mask in [0x01u8, 0x80, 0xff] {
                mangled[position] ^= mask;
                assert_ne!(
                    checksum(&mangled),
                    sound,
                    "{len} bytes, byte {position} ^ {mask:#04x}"
                );
                mangled[position] ^= mask;
            }
        }
    }

    for content_len in 19..=104 {
        let frame = frame_of_content_len(content_len);
        assert_flips_refused(&frame, 0..frame.len());
    }

    let report = |payload: usize| {
        encode(&WireMessage::UpdateReport {
            device: DeviceId(3),
            round: RoundId(9),
            attempt: 1,
            update_bytes: (0..payload).map(|i| (i * 31) as u8).collect(),
            weight: 5,
            loss: 0.5,
            accuracy: 0.25,
            population: prop_population(1),
        })
        .unwrap()
    };
    let small = report(4096 - 71);
    assert_eq!(small.len(), 4096);
    assert_flips_refused(&small, 0..small.len());
    let large = report(1 << 20);
    let n = large.len();
    // Both ends whole, and a stride coprime to the block size between.
    assert_flips_refused(
        &large,
        (0..256)
            .chain((256..n - 256).step_by(4099))
            .chain(n - 256..n),
    );
}

#[test]
fn rejects_empty_population_name() {
    // PopulationName forbids the empty string; the decoder must surface
    // that as a typed error, not a panic in the constructor.
    let mut frame = encode(&WireMessage::CheckinRequest {
        device: DeviceId(7),
        population: prop_population(0),
    })
    .unwrap();
    // Rewrite the population string to length 0, shrink the body, and
    // reseal so the checksum vouches for the mangled bytes.
    frame.truncate(HEADER_LEN + 8);
    frame.extend_from_slice(&0u16.to_le_bytes());
    let body_len = (frame.len() - HEADER_LEN) as u32;
    frame[4..8].copy_from_slice(&body_len.to_le_bytes());
    frame.extend_from_slice(&[0; TRAILER_LEN]);
    reseal(&mut frame);
    assert_eq!(
        decode(&frame),
        Err(WireError::Malformed {
            what: "empty population name"
        })
    );
}

#[test]
fn rejects_unknown_tag_for_forward_compat() {
    // Reseal after the tag rewrite: this models a well-formed frame
    // from a *newer* peer (checksum valid, tag unknown), not bit rot.
    let mut frame = smallest_frame();
    frame[3] = 0xEE;
    reseal(&mut frame);
    assert_eq!(decode(&frame), Err(WireError::UnknownMessage { tag: 0xEE }));
}

#[test]
fn rejects_oversized_length_prefix() {
    let mut frame = smallest_frame();
    frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode(&frame) {
        Err(WireError::OversizedFrame { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, fl_wire::MAX_BODY_LEN);
        }
        other => panic!("expected OversizedFrame, got {other:?}"),
    }
}

#[test]
fn rejects_trailing_bytes() {
    let mut frame = encode(&WireMessage::ReportAck {
        accepted: true,
        round: RoundId(3),
        attempt: 1,
        population: prop_population(3),
    })
    .unwrap();
    frame.push(0);
    assert_eq!(decode(&frame), Err(WireError::TrailingBytes { extra: 1 }));
}

#[test]
fn rejects_truncated_header() {
    assert_eq!(
        decode(&[b'F', b'W', PROTOCOL_VERSION]),
        Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: 3
        })
    );
}

#[test]
fn rejects_malformed_body_values() {
    // A ReportAck whose bool byte is neither 0 nor 1.
    let mut frame = encode(&WireMessage::ReportAck {
        accepted: false,
        round: RoundId(3),
        attempt: 1,
        population: prop_population(3),
    })
    .unwrap();
    frame[HEADER_LEN] = 2;
    reseal(&mut frame);
    assert_eq!(
        decode(&frame),
        Err(WireError::Malformed {
            what: "bool byte not 0/1"
        })
    );
}

#[test]
fn rejects_overlong_string_instead_of_truncating() {
    // One byte past the u16 length prefix: the old encoder silently
    // clipped this at a char boundary, so the frame round-tripped to a
    // *different* message than was sent. It must now be a typed error.
    let msg = WireMessage::ComeBackLater {
        retry_at_ms: 7,
        population: PopulationName::new("x".repeat(u16::MAX as usize + 1)),
    };
    assert_eq!(
        encode(&msg),
        Err(WireError::StringTooLong {
            len: u16::MAX as usize + 1,
            max: u16::MAX as usize,
        })
    );
}

#[test]
fn string_at_exactly_u16_max_bytes_round_trips() {
    // The boundary itself is legal: exactly 65535 bytes fills the
    // length prefix and must survive encode → decode unchanged.
    let msg = WireMessage::ComeBackLater {
        retry_at_ms: 7,
        population: PopulationName::new("y".repeat(u16::MAX as usize)),
    };
    let frame = encode(&msg).unwrap();
    assert_eq!(frame.len(), encoded_len(&msg));
    assert_eq!(decode(&frame).unwrap(), msg);
}

#[test]
fn rejects_body_longer_than_layout() {
    // Declare one byte more than the fixed ReportAck layout: decode must
    // notice the leftover rather than silently ignoring it.
    let mut frame = encode(&WireMessage::ReportAck {
        accepted: true,
        round: RoundId(3),
        attempt: 1,
        population: prop_population(3),
    })
    .unwrap();
    // Splice one extra body byte in ahead of the trailer, declare it in
    // the length prefix, and reseal.
    frame.truncate(frame.len() - TRAILER_LEN);
    let body_len = (frame.len() - HEADER_LEN + 1) as u32;
    frame[4..8].copy_from_slice(&body_len.to_le_bytes());
    frame.push(1);
    frame.extend_from_slice(&[0; TRAILER_LEN]);
    reseal(&mut frame);
    assert_eq!(
        decode(&frame),
        Err(WireError::Malformed {
            what: "body longer than message layout"
        })
    );
}
