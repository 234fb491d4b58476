//! Golden-bytes fixture: the exact frame bytes of one canonical message
//! per tag, pinned in `golden_frames.txt` (tags 7 to 10, 12 and 13 are
//! retired and stay reserved, so they have no line). The last line is the
//! slim Configuration (tag 14) of the canonical `PlanAndCheckpoint`: its
//! plan named by digest.
//!
//! If this test fails you changed the wire layout. Changing an
//! *existing* frame's bytes is only legal together with a
//! `PROTOCOL_VERSION` bump; *appending* a new tag's canonical frame is
//! legal within a version (new messages append, old bodies never
//! change). Either way the fixture is regenerated deliberately:
//!
//! ```text
//! cargo test -p fl-wire --test golden -- --ignored regenerate
//! ```
//!
//! When only appending, diff the regenerated fixture and verify every
//! pre-existing line is byte-identical.

use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::{DeviceId, FlCheckpoint, PopulationName, RoundId};
use fl_wire::{
    decode, encode, encode_plan_and_checkpoint_into, encode_plan_digest_and_checkpoint_into,
    plan_digest, PlanSlot, WireError, WireMessage,
};
use std::path::PathBuf;

/// One canonical message per tag, with every field pinned.
fn canonical_messages() -> Vec<WireMessage> {
    let mut plan = FlPlan::standard_training(
        ModelSpec::Logistic {
            dim: 4,
            classes: 3,
            seed: 11,
        },
        2,
        8,
        0.05,
        CodecSpec::Quantize { block: 16 },
    );
    plan.device.graph_payload_bytes = 32;
    let checkpoint = FlCheckpoint::new("golden-task", RoundId(7), vec![0.5, -1.25, 3.0]);
    let population = PopulationName::new("golden/population");
    vec![
        WireMessage::CheckinRequest {
            device: DeviceId(0x0123_4567_89AB_CDEF),
            population: population.clone(),
        },
        WireMessage::ComeBackLater {
            retry_at_ms: 86_400_000,
            population: population.clone(),
        },
        WireMessage::Shed {
            retry_at_ms: 12_345,
            population: population.clone(),
        },
        WireMessage::PlanAndCheckpoint {
            plan: Box::new(plan),
            checkpoint: Box::new(checkpoint),
            population: population.clone(),
        },
        WireMessage::UpdateReport {
            device: DeviceId(42),
            round: RoundId(7),
            attempt: 2,
            update_bytes: vec![0xDE, 0xAD, 0xBE, 0xEF],
            weight: 17,
            loss: 0.125,
            accuracy: 0.75,
            population: population.clone(),
        },
        WireMessage::ReportAck {
            accepted: true,
            round: RoundId(7),
            attempt: 2,
            population: population.clone(),
        },
        WireMessage::SecAggReport {
            device: DeviceId(42),
            round: RoundId(7),
            attempt: 2,
            field_vector: vec![1, 2, (1u64 << 61) - 2],
            weight: 17,
            loss: 0.125,
            accuracy: 0.75,
            population,
        },
    ]
}

/// Every golden frame, in tag order: one per canonical message, then the
/// slim Configuration of the canonical `PlanAndCheckpoint`.
fn canonical_frames() -> Vec<Vec<u8>> {
    let messages = canonical_messages();
    let mut frames: Vec<Vec<u8>> = messages
        .iter()
        .map(|msg| encode(msg).expect("canonical frame encodes"))
        .collect();
    frames.push(slim_of(&messages[3]));
    frames
}

/// The tag-14 frame of a `PlanAndCheckpoint`.
fn slim_of(msg: &WireMessage) -> Vec<u8> {
    let WireMessage::PlanAndCheckpoint {
        plan,
        checkpoint,
        population,
    } = msg
    else {
        panic!("not a Configuration: {msg:?}");
    };
    let mut slim = Vec::new();
    encode_plan_digest_and_checkpoint_into(plan_digest(plan), checkpoint, population, &mut slim)
        .expect("canonical frame encodes");
    slim
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_frames.txt")
}

fn render_fixture() -> String {
    let mut out = String::from(
        "# Golden wire frames, one hex-encoded frame per line, in tag order.\n\
         # Existing lines change ONLY with a PROTOCOL_VERSION bump; new tags\n\
         # append. Regenerate deliberately:\n\
         #   cargo test -p fl-wire --test golden -- --ignored regenerate\n",
    );
    for frame in canonical_frames() {
        out.push_str(&hex(&frame));
        out.push('\n');
    }
    out
}

#[test]
fn frames_match_golden_fixture() {
    let expected = std::fs::read_to_string(fixture_path())
        .expect("golden_frames.txt missing — run the ignored `regenerate` test");
    let actual = render_fixture();
    assert_eq!(
        actual, expected,
        "wire frame layout drifted from the golden fixture; if intentional, \
         bump PROTOCOL_VERSION and regenerate (see tests/golden.rs header)"
    );
}

#[test]
fn golden_frames_still_decode() {
    // The fixture itself must stay decodable: this is the cross-version
    // compatibility check for recorded traffic. Read in order on one
    // connection, the slim Configuration decodes against the plan the
    // full one brought, to the same message; on its own it decodes to
    // nothing.
    let fixture = std::fs::read_to_string(fixture_path())
        .expect("golden_frames.txt missing — run the ignored `regenerate` test");
    let mut msgs = canonical_messages();
    msgs.push(msgs[3].clone());
    let mut connection = PlanSlot::default();
    let mut decoded = Vec::new();
    for line in fixture.lines().filter(|l| !l.starts_with('#')) {
        let bytes: Vec<u8> = (0..line.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("fixture is hex"))
            .collect();
        let alone = decode(&bytes);
        let on_connection = connection
            .decode(&bytes)
            .expect("golden frame no longer decodes");
        if bytes[3] == fl_wire::tag::PLAN_DIGEST_AND_CHECKPOINT {
            assert!(
                matches!(alone, Err(WireError::Malformed { .. })),
                "{alone:?}"
            );
        } else {
            assert_eq!(alone.as_ref(), Ok(&on_connection));
        }
        decoded.push(on_connection);
    }
    assert_eq!(decoded, msgs);
}

#[test]
fn configuration_from_borrowed_parts_is_the_same_frame() {
    // The Coordinator encodes its Configuration from the round's own plan
    // and checkpoint; the bytes must be the message's, golden line
    // included, into a kept buffer holding an older frame, and an
    // over-long population must fail both encoders alike, and the slim
    // one's too.
    let long = PopulationName::new("p".repeat(usize::from(u16::MAX) + 1));
    for msg in canonical_messages() {
        let WireMessage::PlanAndCheckpoint {
            plan,
            checkpoint,
            population,
        } = msg
        else {
            continue;
        };
        let mut kept = vec![0xAA; 64];
        let len = encode_plan_and_checkpoint_into(&plan, &checkpoint, &population, &mut kept);
        let message = WireMessage::PlanAndCheckpoint {
            plan: plan.clone(),
            checkpoint: checkpoint.clone(),
            population,
        };
        assert_eq!(kept, encode(&message).expect("canonical frame encodes"));
        assert_eq!(len, Ok(kept.len()));
        let refused = encode_plan_and_checkpoint_into(&plan, &checkpoint, &long, &mut kept);
        let message = WireMessage::PlanAndCheckpoint {
            plan,
            checkpoint,
            population: long.clone(),
        };
        assert!(refused.is_err() && kept.is_empty());
        assert_eq!(refused.map(|_| ()), encode(&message).map(|_| ()));
        let WireMessage::PlanAndCheckpoint {
            plan, checkpoint, ..
        } = &message
        else {
            unreachable!("built above");
        };
        kept = vec![0xAA; 64];
        let digest = plan_digest(plan);
        let slim = encode_plan_digest_and_checkpoint_into(digest, checkpoint, &long, &mut kept);
        assert!(slim.is_err() && kept.is_empty());
    }
}

/// Rewrites the fixture. Ignored so it never runs in a normal sweep.
#[test]
#[ignore = "rewrites the golden fixture; run deliberately with --ignored"]
fn regenerate() {
    std::fs::write(fixture_path(), render_fixture()).expect("write fixture");
}
