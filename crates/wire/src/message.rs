//! [`WireMessage`]: every message the protocol speaks, with its body
//! codec.
//!
//! Bodies are hand-written little-endian layouts (the workspace has no
//! derive-based serializer), in the same style as
//! `fl_core::FlCheckpoint::to_bytes`. Each variant's layout is a flat
//! field list — see the table in DESIGN.md §8. Two deliberate choices:
//!
//! * **The plan's graph payload is physically transmitted.** The paper's
//!   plan "is comparable with the global model" in size (Appendix A);
//!   `DevicePlan::graph_payload_bytes` becomes that many actual bytes in
//!   the frame, so FIG9's download traffic is measured, not modelled.
//! * **Checkpoints embed their own versioned format.** An
//!   [`fl_core::FlCheckpoint`] already has a magic+version binary codec;
//!   the frame nests it as a length-prefixed blob rather than inventing
//!   a second layout for the same data.

use crate::frame::{checksum, put, Reader, WireError};
use fl_core::plan::{CodecSpec, DevicePlan, ModelSpec, PlanOp, ServerPlan};
use fl_core::{DeviceId, FlCheckpoint, FlPlan, PopulationName, RoundId};

/// Message tag bytes. Frozen: new messages append, existing values
/// never change (the golden fixture enforces this).
pub mod tag {
    /// [`crate::WireMessage::CheckinRequest`]
    pub const CHECKIN_REQUEST: u8 = 1;
    /// [`crate::WireMessage::ComeBackLater`]
    pub const COME_BACK_LATER: u8 = 2;
    /// [`crate::WireMessage::Shed`]
    pub const SHED: u8 = 3;
    /// [`crate::WireMessage::PlanAndCheckpoint`]
    pub const PLAN_AND_CHECKPOINT: u8 = 4;
    /// [`crate::WireMessage::UpdateReport`]
    pub const UPDATE_REPORT: u8 = 5;
    /// [`crate::WireMessage::ReportAck`]
    pub const REPORT_ACK: u8 = 6;
    // 7 to 10, 12 and 13 are reserved. They framed the Coordinator ↔
    // Master Aggregator hop: `ShardUpdate` (7) and `SecAggUpdate` (12),
    // retired at v4 when the Master was handed the device's own report
    // frame; `ShardFinalize` (8), `ShardMerged` (9), `ShardAbort` (10)
    // and `SecAggFinalize` (13), retired within v4 when that hop became
    // typed messages. It is one process and those frames never crossed
    // a socket, so no device-facing byte moved. A sound frame carrying
    // a reserved tag is an unknown message, never a slot for something
    // new.
    /// [`crate::WireMessage::SecAggReport`]
    pub const SECAGG_REPORT: u8 = 11;
    /// A [`crate::WireMessage::PlanAndCheckpoint`] whose plan is named by
    /// its [`crate::plan_digest`] instead of sent (protocol v6): tag 4's
    /// body with the plan replaced by the 8-byte digest. It decodes only
    /// on a connection that carried that plan ([`crate::PlanSlot`]).
    pub const PLAN_DIGEST_AND_CHECKPOINT: u8 = 14;
}

/// One protocol message of the device ↔ server exchange (paper Sec. 2.3
/// and Sec. 3), the only hop that crosses a socket: the actors behind it
/// are one process and exchange typed messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Device → Selector: "device checks in" (Sec. 2.3), naming the FL
    /// population it wants work for (Sec. 2.1) so one Selector can
    /// demultiplex a multi-tenant fleet.
    CheckinRequest {
        /// The device identity.
        device: DeviceId,
        /// The population the device is checking in for.
        population: PopulationName,
    },
    /// Selector → device: not selected; "reconnect at a later point in
    /// time" (Sec. 2.3). The retry window is the pace-steering output.
    ComeBackLater {
        /// Absolute epoch-ms the device should try again at.
        retry_at_ms: u64,
        /// Echo of the check-in's population, so a multi-tenant device
        /// runtime charges the retry to the right population's budget.
        population: PopulationName,
    },
    /// Selector → device: turned away by admission control / the global
    /// shed budget (overload, Sec. 2.3's flow control under load) rather
    /// than ordinary pacing.
    Shed {
        /// Absolute epoch-ms the device should try again at.
        retry_at_ms: u64,
        /// Echo of the check-in's population (see
        /// [`WireMessage::ComeBackLater`]).
        population: PopulationName,
    },
    /// Coordinator → device: the Configuration download (Sec. 3) — the
    /// FL plan plus the current global model checkpoint.
    PlanAndCheckpoint {
        /// The plan (device + server portions; graph payload bytes are
        /// physically in the frame).
        plan: Box<FlPlan>,
        /// The global model checkpoint.
        checkpoint: Box<FlCheckpoint>,
        /// The population this configuration belongs to; the device runs
        /// the session under this population's scheduler slot.
        population: PopulationName,
    },
    /// Device → Coordinator: the Reporting upload (Sec. 3) — the
    /// codec-compressed model update plus training metrics.
    ///
    /// `(device, round, attempt)` is the at-most-once key: a retried
    /// upload (lost ack, transport error) re-sends the *same* key and
    /// the Coordinator replays the original [`WireMessage::ReportAck`]
    /// instead of summing the update twice. `round` is the device's
    /// configuration checkpoint round — an opaque dedup key to the
    /// server, not the server's own round counter.
    UpdateReport {
        /// The reporting device.
        device: DeviceId,
        /// The round key from the configuration checkpoint.
        round: RoundId,
        /// 1-based upload attempt; retries of one payload keep it.
        attempt: u32,
        /// Codec-encoded update (see `CodecSpec`); opaque at this layer.
        update_bytes: Vec<u8>,
        /// Update weight (number of local examples).
        weight: u64,
        /// Mean training loss (NaN if the plan computed none).
        loss: f64,
        /// Top-1 accuracy (NaN if the plan computed none).
        accuracy: f64,
        /// The population whose Coordinator this report is for; a
        /// Coordinator refuses (typed, acked-rejected) a report naming
        /// a population other than its own.
        population: PopulationName,
    },
    /// Coordinator → device: the report was received; `accepted` is
    /// false when it arrived too late or the round had moved on. Echoes
    /// the report's `(round, attempt)` key so a device with several
    /// in-flight attempts can match the ack to the upload it answers
    /// (0/0 when the report was too mangled to carry a key).
    ReportAck {
        /// Whether the update entered the aggregate.
        accepted: bool,
        /// Echo of the report's round key.
        round: RoundId,
        /// Echo of the report's attempt number.
        attempt: u32,
        /// Echo of the report's population (the ack answers that
        /// population's upload session on a multi-tenant device).
        population: PopulationName,
    },
    /// Device → Coordinator: a Secure Aggregation report (Sec. 6) — the
    /// update as fixed-point field elements rather than codec bytes.
    /// The 8 B/coordinate field vector *is* SecAgg's bandwidth premium
    /// (≈2× the 4 B/param f32 upload), paid on the wire so FIG9 measures
    /// it.
    SecAggReport {
        /// The reporting device.
        device: DeviceId,
        /// The round key from the configuration checkpoint (same
        /// at-most-once contract as [`WireMessage::UpdateReport`]).
        round: RoundId,
        /// 1-based upload attempt; retries of one payload keep it.
        attempt: u32,
        /// The update encoded into `Z_p` (one `u64` per parameter).
        field_vector: Vec<u64>,
        /// Update weight (number of local examples).
        weight: u64,
        /// Mean training loss (NaN if the plan computed none).
        loss: f64,
        /// Top-1 accuracy (NaN if the plan computed none).
        accuracy: f64,
        /// The population whose Coordinator this report is for (same
        /// cross-tenant refusal contract as [`WireMessage::UpdateReport`]).
        population: PopulationName,
    },
}

impl WireMessage {
    /// The message's frame tag.
    pub fn tag(&self) -> u8 {
        match self {
            WireMessage::CheckinRequest { .. } => tag::CHECKIN_REQUEST,
            WireMessage::ComeBackLater { .. } => tag::COME_BACK_LATER,
            WireMessage::Shed { .. } => tag::SHED,
            WireMessage::PlanAndCheckpoint { .. } => tag::PLAN_AND_CHECKPOINT,
            WireMessage::UpdateReport { .. } => tag::UPDATE_REPORT,
            WireMessage::ReportAck { .. } => tag::REPORT_ACK,
            WireMessage::SecAggReport { .. } => tag::SECAGG_REPORT,
        }
    }

    /// Appends the body (everything after the 8-byte header) to `out`.
    ///
    /// # Errors
    ///
    /// [`WireError::StringTooLong`] for a string field past 65535 bytes.
    pub(crate) fn write_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            WireMessage::CheckinRequest { device, population } => {
                out.extend_from_slice(&device.0.to_le_bytes());
                put::string(out, population.as_str())?;
            }
            WireMessage::ComeBackLater {
                retry_at_ms,
                population,
            }
            | WireMessage::Shed {
                retry_at_ms,
                population,
            } => {
                out.extend_from_slice(&retry_at_ms.to_le_bytes());
                put::string(out, population.as_str())?;
            }
            WireMessage::PlanAndCheckpoint {
                plan,
                checkpoint,
                population,
            } => write_plan_and_checkpoint(out, plan, checkpoint, population)?,
            WireMessage::UpdateReport {
                device,
                round,
                attempt,
                update_bytes,
                weight,
                loss,
                accuracy,
                population,
            } => {
                put_report_head(out, *device, *round, *attempt, *weight, *loss, *accuracy);
                put::bytes(out, update_bytes);
                put::string(out, population.as_str())?;
            }
            WireMessage::ReportAck {
                accepted,
                round,
                attempt,
                population,
            } => {
                out.push(u8::from(*accepted));
                out.extend_from_slice(&round.0.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                put::string(out, population.as_str())?;
            }
            WireMessage::SecAggReport {
                device,
                round,
                attempt,
                field_vector,
                weight,
                loss,
                accuracy,
                population,
            } => {
                put_report_head(out, *device, *round, *attempt, *weight, *loss, *accuracy);
                put::u64s(out, field_vector);
                put::string(out, population.as_str())?;
            }
        }
        Ok(())
    }

    /// Body size in bytes, without encoding.
    pub(crate) fn body_len(&self) -> usize {
        match self {
            WireMessage::CheckinRequest { population, .. }
            | WireMessage::ComeBackLater { population, .. }
            | WireMessage::Shed { population, .. } => 8 + pop_len(population),
            WireMessage::PlanAndCheckpoint {
                plan,
                checkpoint,
                population,
            } => plan_encoded_len(plan) + 4 + checkpoint.encoded_size() + pop_len(population),
            WireMessage::UpdateReport {
                update_bytes,
                population,
                ..
            } => REPORT_HEAD_LEN + 4 + update_bytes.len() + pop_len(population),
            WireMessage::ReportAck { population, .. } => 1 + 8 + 4 + pop_len(population),
            WireMessage::SecAggReport {
                field_vector,
                population,
                ..
            } => REPORT_HEAD_LEN + 4 + field_vector.len() * 8 + pop_len(population),
        }
    }

    /// Decodes a body of known `tag`.
    pub(crate) fn decode_body(tag_byte: u8, body: &[u8]) -> Result<WireMessage, WireError> {
        let mut r = Reader::new(body);
        let msg = match tag_byte {
            tag::CHECKIN_REQUEST => WireMessage::CheckinRequest {
                device: DeviceId(r.u64()?),
                population: read_population(&mut r)?.into(),
            },
            tag::COME_BACK_LATER => WireMessage::ComeBackLater {
                retry_at_ms: r.u64()?,
                population: read_population(&mut r)?.into(),
            },
            tag::SHED => WireMessage::Shed {
                retry_at_ms: r.u64()?,
                population: read_population(&mut r)?.into(),
            },
            tag::PLAN_AND_CHECKPOINT => {
                let plan = decode_plan(&mut r)?;
                read_configuration(plan, &mut r)?
            }
            tag::PLAN_DIGEST_AND_CHECKPOINT => return Err(NO_PLAN_FOR_DIGEST),
            tag::UPDATE_REPORT | tag::SECAGG_REPORT => {
                ReportRef::read(tag_byte, &mut r)?.to_message()
            }
            tag::REPORT_ACK => WireMessage::ReportAck {
                accepted: r.bool()?,
                round: RoundId(r.u64()?),
                attempt: r.u32()?,
                population: read_population(&mut r)?.into(),
            },
            other => return Err(WireError::UnknownMessage { tag: other }),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes a [`WireMessage::PlanAndCheckpoint`] body from its parts: the
/// one layout of that body, for the message and for
/// [`crate::encode_plan_and_checkpoint_into`] alike.
pub(crate) fn write_plan_and_checkpoint(
    out: &mut Vec<u8>,
    plan: &FlPlan,
    checkpoint: &FlCheckpoint,
    population: &PopulationName,
) -> Result<(), WireError> {
    encode_plan(out, plan);
    write_checkpoint_and_population(out, checkpoint, population)
}

/// The part of a Configuration body after its plan (or plan digest).
pub(crate) fn write_checkpoint_and_population(
    out: &mut Vec<u8>,
    checkpoint: &FlCheckpoint,
    population: &PopulationName,
) -> Result<(), WireError> {
    out.extend_from_slice(&(checkpoint.encoded_size() as u32).to_le_bytes());
    checkpoint.write_to(out);
    put::string(out, population.as_str())
}

/// Reads the part of a Configuration body after its plan (or plan
/// digest) into the message it completes.
fn read_configuration(plan: FlPlan, r: &mut Reader<'_>) -> Result<WireMessage, WireError> {
    let checkpoint = FlCheckpoint::from_bytes(r.bytes()?).map_err(|_| WireError::Malformed {
        what: "embedded checkpoint rejected by its codec",
    })?;
    Ok(WireMessage::PlanAndCheckpoint {
        plan: Box::new(plan),
        checkpoint: Box::new(checkpoint),
        population: read_population(r)?.into(),
    })
}

/// A slim Configuration whose digest names no plan the reader holds.
const NO_PLAN_FOR_DIGEST: WireError = WireError::Malformed {
    what: "plan digest names no plan this connection carried",
};

/// The digest a slim Configuration names its plan by: [`checksum`] over
/// the plan's encoded bytes, exactly as they sit at the start of a
/// [`WireMessage::PlanAndCheckpoint`] body (graph payload included). A
/// sender computes it once per plan.
pub fn plan_digest(plan: &FlPlan) -> u64 {
    let mut bytes = Vec::with_capacity(plan_encoded_len(plan));
    encode_plan(&mut bytes, plan);
    checksum(&bytes)
}

/// The last plan a connection carried, kept by its receiving end
/// (protocol v6). A full Configuration (tag 4) that decodes fills the
/// slot with its plan and the plan's [`plan_digest`]; a slim one (tag
/// [`tag::PLAN_DIGEST_AND_CHECKPOINT`]) decodes against the slot into the
/// same [`WireMessage::PlanAndCheckpoint`], and is refused as
/// [`WireError::Malformed`] when the slot is empty or holds another
/// digest. [`crate::TcpTransport`] keeps one in its read half; the
/// plan's graph payload is only a length, so the slot is small.
#[derive(Debug, Clone, Default)]
pub struct PlanSlot {
    held: Option<(u64, FlPlan)>,
}

impl PlanSlot {
    /// Decodes exactly one frame as [`crate::decode`] does, but for the
    /// two Configuration tags, which go through the slot.
    ///
    /// # Errors
    ///
    /// Every error [`crate::decode`] gives, and [`WireError::Malformed`]
    /// for a slim Configuration this slot holds no plan for.
    pub fn decode(&mut self, frame: &[u8]) -> Result<WireMessage, WireError> {
        let (tag_byte, body) = crate::frame::open_exact(frame)?;
        if tag_byte != tag::PLAN_DIGEST_AND_CHECKPOINT {
            let msg = WireMessage::decode_body(tag_byte, body)?;
            if let WireMessage::PlanAndCheckpoint { plan, .. } = &msg {
                let digest = checksum(&body[..plan_encoded_len(plan)]);
                self.held = Some((digest, FlPlan::clone(plan)));
            }
            return Ok(msg);
        }
        let mut r = Reader::new(body);
        let digest = r.u64()?;
        let Some((_, plan)) = self.held.as_ref().filter(|(held, _)| *held == digest) else {
            return Err(NO_PLAN_FOR_DIGEST);
        };
        let msg = read_configuration(plan.clone(), &mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// Bytes of a report body ahead of its payload: device, round, attempt,
/// weight, loss, accuracy.
const REPORT_HEAD_LEN: usize = 8 + 8 + 4 + 8 + 8 + 8;

/// Writes the fields [`UpdateReport`](WireMessage::UpdateReport) and
/// [`SecAggReport`](WireMessage::SecAggReport) share, in wire order.
fn put_report_head(
    out: &mut Vec<u8>,
    device: DeviceId,
    round: RoundId,
    attempt: u32,
    weight: u64,
    loss: f64,
    accuracy: f64,
) {
    out.extend_from_slice(&device.0.to_le_bytes());
    out.extend_from_slice(&round.0.to_le_bytes());
    out.extend_from_slice(&attempt.to_le_bytes());
    out.extend_from_slice(&weight.to_le_bytes());
    out.extend_from_slice(&loss.to_le_bytes());
    out.extend_from_slice(&accuracy.to_le_bytes());
}

/// A report's payload, borrowed from its frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportPayload<'a> {
    /// The codec-encoded update of a [`WireMessage::UpdateReport`].
    Update(&'a [u8]),
    /// The field vector of a [`WireMessage::SecAggReport`]: one
    /// little-endian `u64` coordinate per element.
    Field(&'a [[u8; 8]]),
}

impl ReportPayload<'_> {
    /// The payload's size on the wire, without its length prefix.
    pub fn len_bytes(&self) -> usize {
        match self {
            ReportPayload::Update(bytes) => bytes.len(),
            ReportPayload::Field(coords) => coords.len() * 8,
        }
    }
}

/// A verified, borrowed view of a report frame
/// ([`WireMessage::UpdateReport`] or [`WireMessage::SecAggReport`]): the
/// scalar fields by value, the payload and population as slices of the
/// frame. This is the one parser of the report layout — [`crate::decode`]
/// builds the owned message from it — so a server can key, account and
/// route a megabyte upload without copying it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportRef<'a> {
    /// The reporting device.
    pub device: DeviceId,
    /// The round key from the configuration checkpoint.
    pub round: RoundId,
    /// 1-based upload attempt.
    pub attempt: u32,
    /// Update weight (number of local examples).
    pub weight: u64,
    /// Mean training loss.
    pub loss: f64,
    /// Top-1 accuracy.
    pub accuracy: f64,
    /// The update itself.
    pub payload: ReportPayload<'a>,
    /// The population the report claims (never empty).
    pub population: &'a str,
}

impl<'a> ReportRef<'a> {
    /// Opens `frame` as exactly one report frame. The envelope is
    /// validated and the integrity trailer verified before any body byte
    /// is read, with the same typed errors as [`crate::decode`].
    ///
    /// # Errors
    ///
    /// Every error [`crate::decode`] gives for the same bytes;
    /// [`WireError::Malformed`] for a sound frame of any other message.
    pub fn parse(frame: &'a [u8]) -> Result<ReportRef<'a>, WireError> {
        let (tag_byte, body) = crate::frame::open_exact(frame)?;
        if !matches!(tag_byte, tag::UPDATE_REPORT | tag::SECAGG_REPORT) {
            return Err(WireError::Malformed {
                what: "frame is not a report",
            });
        }
        let mut r = Reader::new(body);
        let report = ReportRef::read(tag_byte, &mut r)?;
        r.finish()?;
        Ok(report)
    }

    /// Reads a report body; `tag_byte` is one of the two report tags.
    fn read(tag_byte: u8, r: &mut Reader<'a>) -> Result<ReportRef<'a>, WireError> {
        Ok(ReportRef {
            device: DeviceId(r.u64()?),
            round: RoundId(r.u64()?),
            attempt: r.u32()?,
            weight: r.u64()?,
            loss: r.f64()?,
            accuracy: r.f64()?,
            payload: if tag_byte == tag::UPDATE_REPORT {
                ReportPayload::Update(r.bytes()?)
            } else {
                ReportPayload::Field(r.u64s()?)
            },
            population: read_population(r)?,
        })
    }

    /// Where the payload sits in the frame this view was parsed from, so
    /// the frame can be handed on whole (moved, not copied) together with
    /// the span of the bytes to fold.
    pub fn payload_span(&self) -> std::ops::Range<usize> {
        let start = crate::frame::HEADER_LEN + REPORT_HEAD_LEN + 4;
        start..start + self.payload.len_bytes()
    }

    /// The owned message this view describes.
    pub fn to_message(&self) -> WireMessage {
        let population = PopulationName::from(self.population);
        match self.payload {
            ReportPayload::Update(bytes) => WireMessage::UpdateReport {
                device: self.device,
                round: self.round,
                attempt: self.attempt,
                update_bytes: bytes.to_vec(),
                weight: self.weight,
                loss: self.loss,
                accuracy: self.accuracy,
                population,
            },
            ReportPayload::Field(coords) => WireMessage::SecAggReport {
                device: self.device,
                round: self.round,
                attempt: self.attempt,
                field_vector: coords.iter().map(|c| u64::from_le_bytes(*c)).collect(),
                weight: self.weight,
                loss: self.loss,
                accuracy: self.accuracy,
                population,
            },
        }
    }
}

/// Wire size of a population name field: `u16` length prefix + bytes.
fn pop_len(population: &PopulationName) -> usize {
    2 + population.as_str().len()
}

/// Decodes a population name field. [`PopulationName`] forbids the empty
/// string, so an empty field is a typed decode error rather than a panic
/// inside the constructor — a hostile frame never panics the decoder.
fn read_population<'a>(r: &mut Reader<'a>) -> Result<&'a str, WireError> {
    let name = r.str()?;
    if name.is_empty() {
        return Err(WireError::Malformed {
            what: "empty population name",
        });
    }
    Ok(name)
}

// --- plan codec -----------------------------------------------------------
//
// Layout (all integers little-endian):
//   ModelSpec     tag u8, then per-variant u32 dims + u64 seed
//   CodecSpec     tag u8, then per-variant fields
//   PlanOp        tag u8, then per-variant fields
//   DevicePlan    model, op count u16, ops, update_codec,
//                 graph payload: u32 len + len bytes (zero-filled)
//   ServerPlan    expected_dim u32, update_codec
//   FlPlan        DevicePlan then ServerPlan

fn encode_model(out: &mut Vec<u8>, m: &ModelSpec) {
    match *m {
        ModelSpec::Linear { dim } => {
            out.push(0);
            out.extend_from_slice(&(dim as u32).to_le_bytes());
        }
        ModelSpec::Logistic { dim, classes, seed } => {
            out.push(1);
            out.extend_from_slice(&(dim as u32).to_le_bytes());
            out.extend_from_slice(&(classes as u32).to_le_bytes());
            out.extend_from_slice(&seed.to_le_bytes());
        }
        ModelSpec::Mlp {
            dim,
            hidden,
            classes,
            seed,
        } => {
            out.push(2);
            out.extend_from_slice(&(dim as u32).to_le_bytes());
            out.extend_from_slice(&(hidden as u32).to_le_bytes());
            out.extend_from_slice(&(classes as u32).to_le_bytes());
            out.extend_from_slice(&seed.to_le_bytes());
        }
        ModelSpec::EmbeddingLm { vocab, dim, seed } => {
            out.push(3);
            out.extend_from_slice(&(vocab as u32).to_le_bytes());
            out.extend_from_slice(&(dim as u32).to_le_bytes());
            out.extend_from_slice(&seed.to_le_bytes());
        }
    }
}

fn decode_model(r: &mut Reader<'_>) -> Result<ModelSpec, WireError> {
    Ok(match r.u8()? {
        0 => ModelSpec::Linear {
            dim: r.u32()? as usize,
        },
        1 => ModelSpec::Logistic {
            dim: r.u32()? as usize,
            classes: r.u32()? as usize,
            seed: r.u64()?,
        },
        2 => ModelSpec::Mlp {
            dim: r.u32()? as usize,
            hidden: r.u32()? as usize,
            classes: r.u32()? as usize,
            seed: r.u64()?,
        },
        3 => ModelSpec::EmbeddingLm {
            vocab: r.u32()? as usize,
            dim: r.u32()? as usize,
            seed: r.u64()?,
        },
        _ => {
            return Err(WireError::Malformed {
                what: "unknown ModelSpec tag",
            })
        }
    })
}

fn model_len(m: &ModelSpec) -> usize {
    match m {
        ModelSpec::Linear { .. } => 1 + 4,
        ModelSpec::Logistic { .. } => 1 + 4 + 4 + 8,
        ModelSpec::Mlp { .. } => 1 + 4 + 4 + 4 + 8,
        ModelSpec::EmbeddingLm { .. } => 1 + 4 + 4 + 8,
    }
}

fn encode_codec(out: &mut Vec<u8>, c: &CodecSpec) {
    match *c {
        CodecSpec::Identity => out.push(0),
        CodecSpec::Quantize { block } => {
            out.push(1);
            out.extend_from_slice(&(block as u32).to_le_bytes());
        }
        CodecSpec::Subsample { keep, seed } => {
            out.push(2);
            out.extend_from_slice(&keep.to_le_bytes());
            out.extend_from_slice(&seed.to_le_bytes());
        }
        CodecSpec::Pipeline { keep, seed, block } => {
            out.push(3);
            out.extend_from_slice(&keep.to_le_bytes());
            out.extend_from_slice(&seed.to_le_bytes());
            out.extend_from_slice(&(block as u32).to_le_bytes());
        }
    }
}

fn decode_codec(r: &mut Reader<'_>) -> Result<CodecSpec, WireError> {
    Ok(match r.u8()? {
        0 => CodecSpec::Identity,
        1 => CodecSpec::Quantize {
            block: r.u32()? as usize,
        },
        2 => CodecSpec::Subsample {
            keep: r.f64()?,
            seed: r.u64()?,
        },
        3 => CodecSpec::Pipeline {
            keep: r.f64()?,
            seed: r.u64()?,
            block: r.u32()? as usize,
        },
        _ => {
            return Err(WireError::Malformed {
                what: "unknown CodecSpec tag",
            })
        }
    })
}

fn codec_len(c: &CodecSpec) -> usize {
    match c {
        CodecSpec::Identity => 1,
        CodecSpec::Quantize { .. } => 1 + 4,
        CodecSpec::Subsample { .. } => 1 + 8 + 8,
        CodecSpec::Pipeline { .. } => 1 + 8 + 8 + 4,
    }
}

fn encode_op(out: &mut Vec<u8>, op: &PlanOp) {
    match *op {
        PlanOp::LoadCheckpoint => out.push(0),
        PlanOp::QueryExamples { limit, held_out } => {
            out.push(1);
            match limit {
                Some(n) => {
                    out.push(1);
                    out.extend_from_slice(&(n as u32).to_le_bytes());
                }
                None => {
                    out.push(0);
                    out.extend_from_slice(&0u32.to_le_bytes());
                }
            }
            out.push(u8::from(held_out));
        }
        PlanOp::TrainEpoch {
            batch_size,
            learning_rate,
        } => {
            out.push(2);
            out.extend_from_slice(&(batch_size as u32).to_le_bytes());
            out.extend_from_slice(&learning_rate.to_le_bytes());
        }
        PlanOp::Train {
            epochs,
            batch_size,
            learning_rate,
        } => {
            out.push(3);
            out.extend_from_slice(&(epochs as u32).to_le_bytes());
            out.extend_from_slice(&(batch_size as u32).to_le_bytes());
            out.extend_from_slice(&learning_rate.to_le_bytes());
        }
        PlanOp::ComputeLoss => out.push(4),
        PlanOp::ComputeAccuracy => out.push(5),
        PlanOp::ComputeMetrics => out.push(6),
        PlanOp::BuildUpdate => out.push(7),
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<PlanOp, WireError> {
    Ok(match r.u8()? {
        0 => PlanOp::LoadCheckpoint,
        1 => {
            let has_limit = r.bool()?;
            let n = r.u32()? as usize;
            PlanOp::QueryExamples {
                limit: has_limit.then_some(n),
                held_out: r.bool()?,
            }
        }
        2 => PlanOp::TrainEpoch {
            batch_size: r.u32()? as usize,
            learning_rate: r.f32()?,
        },
        3 => PlanOp::Train {
            epochs: r.u32()? as usize,
            batch_size: r.u32()? as usize,
            learning_rate: r.f32()?,
        },
        4 => PlanOp::ComputeLoss,
        5 => PlanOp::ComputeAccuracy,
        6 => PlanOp::ComputeMetrics,
        7 => PlanOp::BuildUpdate,
        _ => {
            return Err(WireError::Malformed {
                what: "unknown PlanOp tag",
            })
        }
    })
}

fn op_len(op: &PlanOp) -> usize {
    match op {
        PlanOp::LoadCheckpoint
        | PlanOp::ComputeLoss
        | PlanOp::ComputeAccuracy
        | PlanOp::ComputeMetrics
        | PlanOp::BuildUpdate => 1,
        PlanOp::QueryExamples { .. } => 1 + 1 + 4 + 1,
        PlanOp::TrainEpoch { .. } => 1 + 4 + 4,
        PlanOp::Train { .. } => 1 + 4 + 4 + 4,
    }
}

fn encode_plan(out: &mut Vec<u8>, plan: &FlPlan) {
    let d = &plan.device;
    encode_model(out, &d.model);
    out.extend_from_slice(&(d.ops.len() as u16).to_le_bytes());
    for op in &d.ops {
        encode_op(out, op);
    }
    encode_codec(out, &d.update_codec);
    // The graph payload is transmitted for real — FIG9's download cost
    // is paid on the wire, not estimated. Content is zero-filled (the
    // reproduction's ModelSpec stands in for the graph itself).
    out.extend_from_slice(&(d.graph_payload_bytes as u32).to_le_bytes());
    out.resize(out.len() + d.graph_payload_bytes, 0);
    out.extend_from_slice(&(plan.server.expected_dim as u32).to_le_bytes());
    encode_codec(out, &plan.server.update_codec);
}

fn decode_plan(r: &mut Reader<'_>) -> Result<FlPlan, WireError> {
    let model = decode_model(r)?;
    let n_ops = r.u16()? as usize;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(decode_op(r)?);
    }
    let update_codec = decode_codec(r)?;
    let graph_payload_bytes = r.u32()? as usize;
    r.take(graph_payload_bytes)?;
    let expected_dim = r.u32()? as usize;
    let server_codec = decode_codec(r)?;
    Ok(FlPlan {
        device: DevicePlan {
            model,
            ops,
            update_codec,
            graph_payload_bytes,
        },
        server: ServerPlan {
            expected_dim,
            update_codec: server_codec,
        },
    })
}

fn plan_encoded_len(plan: &FlPlan) -> usize {
    let d = &plan.device;
    model_len(&d.model)
        + 2
        + d.ops.iter().map(op_len).sum::<usize>()
        + codec_len(&d.update_codec)
        + 4
        + d.graph_payload_bytes
        + 4
        + codec_len(&plan.server.update_codec)
}
