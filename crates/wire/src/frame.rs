//! Frame envelope: magic, protocol version, tag, length prefix.
//!
//! The envelope is the part of the protocol that must stay parseable
//! across versions: a peer that cannot understand a frame's *body* must
//! still be able to tell *that* it cannot, and say why. Hence every
//! rejection here is a typed [`WireError`], and the header layout is
//! frozen by the golden-bytes fixture.

use crate::message::{
    tag, write_checkpoint_and_population, write_plan_and_checkpoint, WireMessage,
};
use fl_core::{FlCheckpoint, FlPlan, PopulationName};
use std::fmt;

/// Version byte carried in every frame. Bump when the frame layout or
/// any message body layout changes incompatibly; decoders reject any
/// other value with [`WireError::VersionSkew`].
///
/// v2: report frames ([`WireMessage::UpdateReport`],
/// [`WireMessage::SecAggReport`]) carry a `(round, attempt)` key and
/// [`WireMessage::ReportAck`] echoes it — the at-most-once report
/// contract (a retried upload is answered with the original ack, never
/// summed twice).
///
/// v3: the device↔server exchange is multi-tenant —
/// [`WireMessage::CheckinRequest`], [`WireMessage::PlanAndCheckpoint`],
/// the report frames, and the reject/ack replies all carry a
/// `PopulationName` (appended as a `u16` length-prefixed string at the
/// end of each body), so one Selector can demultiplex check-ins by
/// population and a Coordinator can refuse cross-tenant reports. v3
/// frames also end in an integrity trailer: a 64-bit [`checksum`] over
/// header + body, so in-flight bit rot dies as a typed
/// [`WireError::ChecksumMismatch`] instead of forging a decodable frame
/// under a ghost report key.
///
/// v4: the trailer's digest changes from byte-serial FNV-1a 64 to the
/// four-lane, 32-bytes-per-step [`checksum`] (same position, same width,
/// same typed mismatch), and the Coordinator ↔ Master Aggregator
/// messages are retired — the update frames (tags 7 and 12) with the
/// digest change, the finalize, merged and abort frames (tags 8, 9, 10
/// and 13) later within v4: that hop is one process and none of them
/// ever crossed a socket, so no device-facing byte moved. The six tags
/// are reserved, never reused.
///
/// v5: frames of 4 096 bytes or more (header + body) take the wide,
/// 64-lane [`checksum`], which a CPU runs as independent vector lanes
/// instead of four latency-bound chains; shorter frames keep the v4
/// digest bit for bit. The trailer keeps its position and width, so no
/// byte is added.
///
/// v6: a TCP connection carries a plan once. A new message, tag 14
/// ([`tag::PLAN_DIGEST_AND_CHECKPOINT`]), is tag 4's body with the plan
/// replaced by its 8-byte [`crate::plan_digest`]; it decodes only on the
/// connection whose last full Configuration carried that plan
/// ([`crate::PlanSlot`]), into the same
/// [`WireMessage::PlanAndCheckpoint`]. Tag 4's body and every other
/// layout are unchanged, so a per-device link's frames keep their size.
pub const PROTOCOL_VERSION: u8 = 6;

/// Two-byte frame magic ("FW" — framed wire).
pub const MAGIC: [u8; 2] = *b"FW";

/// Fixed header size: magic (2) + version (1) + tag (1) + body length (4).
pub const HEADER_LEN: usize = 8;

/// Integrity trailer size: the [`checksum`] of header + body,
/// little-endian, appended after the body.
pub const TRAILER_LEN: usize = 8;

/// Upper bound on a frame body. The largest legitimate payload is a
/// [`WireMessage::PlanAndCheckpoint`] for a Gboard-scale model (plan
/// graph + checkpoint ≈ 11 MB, Appendix A); 64 MiB leaves generous
/// headroom while refusing absurd length prefixes before allocating.
pub const MAX_BODY_LEN: usize = 64 * 1024 * 1024;

/// Everything that can go wrong speaking the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before a complete header or body.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 2],
    },
    /// The frame was produced by a different protocol version.
    VersionSkew {
        /// Our [`PROTOCOL_VERSION`].
        ours: u8,
        /// The version byte in the frame.
        theirs: u8,
    },
    /// The tag names no message this version knows — a frame from a
    /// newer peer is refused rather than misparsed.
    UnknownMessage {
        /// The unrecognised tag byte.
        tag: u8,
    },
    /// The length prefix exceeds [`MAX_BODY_LEN`].
    OversizedFrame {
        /// The declared body length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// A single-frame decode found bytes after the frame.
    TrailingBytes {
        /// How many bytes followed the frame.
        extra: usize,
    },
    /// The body parsed structurally but carried an invalid value.
    Malformed {
        /// What was wrong.
        what: &'static str,
    },
    /// The integrity trailer does not match the header + body bytes —
    /// the frame was mangled in flight. Every single-byte flip is
    /// guaranteed to land here: each [`checksum`] step is a bijection on
    /// the state it updates, so one differing byte always changes the
    /// digest.
    ChecksumMismatch {
        /// The checksum recomputed over the received header + body.
        expected: u64,
        /// The checksum carried in the frame's trailer.
        found: u64,
    },
    /// A string field is longer than the wire's `u16` length prefix can
    /// carry. Encoding refuses rather than truncating: a silently
    /// clipped string would round-trip to a *different* message than
    /// was sent, defeating the golden-bytes determinism guarantee.
    StringTooLong {
        /// Byte length of the offending string.
        len: usize,
        /// The maximum encodable length (`u16::MAX`).
        max: usize,
    },
    /// The peer endpoint is gone (channel disconnected / TCP closed).
    Closed,
    /// No frame arrived within the receive timeout.
    Timeout,
    /// An I/O error from the underlying TCP stream.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic { found } => {
                write!(
                    f,
                    "bad magic {:02x}{:02x} (want {:02x}{:02x})",
                    found[0], found[1], MAGIC[0], MAGIC[1]
                )
            }
            WireError::VersionSkew { ours, theirs } => {
                write!(f, "protocol version skew: ours {ours}, frame says {theirs}")
            }
            WireError::UnknownMessage { tag } => write!(f, "unknown message tag {tag}"),
            WireError::OversizedFrame { len, max } => {
                write!(f, "oversized frame: body {len} bytes exceeds max {max}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
            WireError::Malformed { what } => write!(f, "malformed body: {what}"),
            WireError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: computed {expected:016x}, frame says {found:016x}"
                )
            }
            WireError::StringTooLong { len, max } => {
                write!(f, "string of {len} bytes exceeds wire limit of {max}")
            }
            WireError::Closed => write!(f, "transport closed"),
            WireError::Timeout => write!(f, "receive timed out"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Odd multiplier of the word step (the 64-bit golden-ratio constant).
const WORD_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;
/// The FNV-1a 64 prime, for the byte step.
const BYTE_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Initial lane states (the fractional bits of √2, √3, √5, √7).
const LANE_SEEDS: [u64; 4] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
];

/// Inputs this long or longer take the wide digest; shorter ones the
/// narrow one. At 4 096 bytes the AVX-512 build of the wide digest
/// already reads ~240 ns against the narrow one's ~340-400 ns, and every
/// check-in, turn-away, ack and small report stays under it.
const WIDE_DIGEST_FROM: usize = 4096;

/// Lanes of the wide digest: one per word of a 512-byte block, so an
/// AVX-512 build runs eight registers of independent `mix` chains.
const WIDE_LANES: usize = 64;

/// Initial states of the wide digest's lanes: lane `i` starts at
/// `mix(LANE_SEEDS[i % 4], i)`, 64 distinct values.
const WIDE_SEEDS: [u64; WIDE_LANES] = {
    let mut seeds = [0; WIDE_LANES];
    let mut i = 0;
    while i < WIDE_LANES {
        seeds[i] = mix(LANE_SEEDS[i % LANE_SEEDS.len()], i as u64);
        i += 1;
    }
    seeds
};

/// One word step: for a fixed `word` it is a bijection on `state`
/// (xor, multiplication by an odd constant and a right xor-shift each
/// are), and for a fixed `state` it is a bijection on `word`.
#[inline(always)]
const fn mix(state: u64, word: u64) -> u64 {
    let m = (state ^ word).wrapping_mul(WORD_PRIME);
    m ^ (m >> 29)
}

/// The frame integrity digest: 64 bits over `bytes`, read a word at a
/// time, in one of two regimes chosen by the length alone.
///
/// *Narrow* (under 4 096 bytes; protocol v4's digest): whole 32-byte
/// blocks feed four independent lanes, one little-endian `u64` each per
/// block, through `mix`; the length and then the four lanes are folded
/// serially into one state through the same step; the at most 31
/// remaining bytes follow, whole words through `mix` and the last few
/// bytes FNV-1a style.
///
/// *Wide* (4 096 bytes and up; protocol v5): word `j` of `bytes`
/// (little-endian) goes through `mix` into lane `j mod 64`, the lanes
/// starting from 64 seeds derived from the narrow digest's four; after
/// the last whole word the 64 lanes fold serially, in lane order, into a
/// state that starts at the length, and the last 0-7 bytes follow FNV-1a
/// style. It runs as an AVX-512 or AVX2 build where the CPU has one
/// ([`checksum_portable`] is the same digest without that dispatch).
///
/// Not cryptographic (SecAgg handles adversaries; this is against bit
/// rot), but every step is a bijection on the state it updates and, for
/// a fixed state, on the input it absorbs. Two inputs of one length take
/// the same regime, and if they differ in a single byte they leave the
/// step that absorbs that byte in different states, every later step
/// keeps them apart, and the digests differ with certainty, not
/// probability.
pub fn checksum(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= WIDE_DIGEST_FROM {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: the only requirement of a `#[target_feature]`
            // function is that the CPU has the features, and the checks
            // above found AVX-512F and AVX-512DQ.
            return unsafe { wide_avx512(bytes) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above; the check above found AVX2.
            return unsafe { wide_avx2(bytes) };
        }
    }
    checksum_portable(bytes)
}

/// [`checksum`] without the SIMD dispatch: the build every CPU can run,
/// bit-identical to the dispatched one. Public so tests and `bench_wire`
/// can price the dispatched digest against it.
pub fn checksum_portable(bytes: &[u8]) -> u64 {
    if bytes.len() >= WIDE_DIGEST_FROM {
        wide(bytes)
    } else {
        narrow(bytes)
    }
}

/// The narrow regime of [`checksum`] (protocol v4's digest).
fn narrow(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = LANE_SEEDS;
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = mix(h, lane);
    }
    let (words, rest) = tail.as_chunks::<8>();
    for word in words {
        h = mix(h, u64::from_le_bytes(*word));
    }
    for &b in rest {
        h = (h ^ u64::from(b)).wrapping_mul(BYTE_PRIME);
    }
    h
}

/// [`wide`] built for AVX-512F and AVX-512DQ.
///
/// # Safety
///
/// The CPU must have AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn wide_avx512(bytes: &[u8]) -> u64 {
    wide(bytes)
}

/// [`wide`] built for AVX2.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn wide_avx2(bytes: &[u8]) -> u64 {
    wide(bytes)
}

/// The wide regime of [`checksum`], walked in 512-byte blocks of one
/// word per lane; the words of a short last block go to the first lanes.
/// Always inlined, so each `#[target_feature]` caller compiles its own
/// build (with AVX-512DQ the lanes' multiplies become `vpmullq`).
#[inline(always)]
fn wide(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<{ 8 * WIDE_LANES }>();
    let mut lanes = WIDE_SEEDS;
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, rest) = tail.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = mix(*lane, u64::from_le_bytes(*word));
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = mix(h, lane);
    }
    for &b in rest {
        h = (h ^ u64::from(b)).wrapping_mul(BYTE_PRIME);
    }
    h
}

/// Encodes a message into one complete frame (header + body + trailer).
///
/// # Errors
///
/// [`WireError::StringTooLong`] if a string field exceeds the `u16`
/// length prefix — the encoder refuses rather than silently truncating.
pub fn encode(msg: &WireMessage) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(encoded_len(msg));
    encode_into(msg, &mut out)?;
    Ok(out)
}

/// [`encode`] into a caller-owned buffer, in one pass: `out` is cleared,
/// then header, body and trailer are written straight into it, so a
/// connection that keeps its buffer allocates nothing per frame. Returns
/// the frame length.
///
/// # Errors
///
/// As [`encode`]; `out` then holds no frame.
pub fn encode_into(msg: &WireMessage, out: &mut Vec<u8>) -> Result<usize, WireError> {
    frame_into(msg.tag(), out, |out| msg.write_body(out))
}

/// [`encode_into`] for the [`WireMessage::PlanAndCheckpoint`] of these
/// parts, written from borrows: the same bytes, without first cloning a
/// plan and a checkpoint into a message.
///
/// # Errors
///
/// As [`encode_into`].
pub fn encode_plan_and_checkpoint_into(
    plan: &FlPlan,
    checkpoint: &FlCheckpoint,
    population: &PopulationName,
    out: &mut Vec<u8>,
) -> Result<usize, WireError> {
    frame_into(tag::PLAN_AND_CHECKPOINT, out, |out| {
        write_plan_and_checkpoint(out, plan, checkpoint, population)
    })
}

/// [`encode_plan_and_checkpoint_into`] for the slim Configuration of
/// protocol v6 ([`tag::PLAN_DIGEST_AND_CHECKPOINT`]): the plan is named
/// by its [`crate::plan_digest`] instead of written out.
///
/// # Errors
///
/// As [`encode_into`].
pub fn encode_plan_digest_and_checkpoint_into(
    digest: u64,
    checkpoint: &FlCheckpoint,
    population: &PopulationName,
    out: &mut Vec<u8>,
) -> Result<usize, WireError> {
    frame_into(tag::PLAN_DIGEST_AND_CHECKPOINT, out, |out| {
        out.extend_from_slice(&digest.to_le_bytes());
        write_checkpoint_and_population(out, checkpoint, population)
    })
}

/// Writes one frame of `tag` into `out`: header, the body `write_body`
/// appends, trailer.
fn frame_into(
    tag: u8,
    out: &mut Vec<u8>,
    write_body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<usize, WireError> {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(tag);
    out.extend_from_slice(&[0; 4]);
    if let Err(e) = write_body(out) {
        out.clear();
        return Err(e);
    }
    let body_len = (out.len() - HEADER_LEN) as u32;
    out[4..HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
    let digest = checksum(out);
    out.extend_from_slice(&digest.to_le_bytes());
    Ok(out.len())
}

/// Size of the frame [`encode`] would produce, without encoding it.
pub fn encoded_len(msg: &WireMessage) -> usize {
    HEADER_LEN + msg.body_len() + TRAILER_LEN
}

/// Decodes exactly one frame; trailing bytes are an error.
///
/// # Errors
///
/// Every [`WireError`] envelope variant, plus [`WireError::TrailingBytes`]
/// if `frame` continues past the declared body.
pub fn decode(frame: &[u8]) -> Result<WireMessage, WireError> {
    let (tag, body) = open_exact(frame)?;
    WireMessage::decode_body(tag, body)
}

/// Decodes the first frame of `buf`, returning the message and the
/// number of bytes consumed — the stream-oriented entry point.
///
/// # Errors
///
/// [`WireError::Truncated`] when `buf` holds less than one whole frame;
/// otherwise the same envelope/body errors as [`decode`].
pub fn decode_prefix(buf: &[u8]) -> Result<(WireMessage, usize), WireError> {
    let (tag, body, total) = open_prefix(buf)?;
    Ok((WireMessage::decode_body(tag, body)?, total))
}

/// Opens the first frame of `buf`: validates the envelope, verifies the
/// integrity trailer, and returns `(tag, body, frame length)`. Every
/// decoder goes through here, so no body byte is trusted before the
/// digest vouches for it: a bit-flipped frame dies here, not as a
/// plausible message under a mangled key.
pub(crate) fn open_prefix(buf: &[u8]) -> Result<(u8, &[u8], usize), WireError> {
    let (tag, body_len) = parse_header(buf)?;
    let content_end = HEADER_LEN + body_len;
    let total = content_end + TRAILER_LEN;
    let Some((content, trailer)) = buf
        .get(..total)
        .and_then(|frame| frame.split_last_chunk::<TRAILER_LEN>())
    else {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    };
    let expected = checksum(content);
    let found = u64::from_le_bytes(*trailer);
    if expected != found {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    Ok((tag, &content[HEADER_LEN..], total))
}

/// [`open_prefix`] for a buffer that must hold exactly one frame.
pub(crate) fn open_exact(frame: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let (tag, body, used) = open_prefix(frame)?;
    if used != frame.len() {
        return Err(WireError::TrailingBytes {
            extra: frame.len() - used,
        });
    }
    Ok((tag, body))
}

/// Reads the message tag of a frame from its header alone, so a gateway
/// can route a frame (check-in → Selector, report → Coordinator)
/// without paying for a body decode.
///
/// # Errors
///
/// The envelope errors: truncation, bad magic, version skew, oversize.
pub fn peek_tag(buf: &[u8]) -> Result<u8, WireError> {
    let (tag, _) = parse_header(buf)?;
    Ok(tag)
}

/// Validates the envelope and returns `(tag, body_len)`.
pub(crate) fn parse_header(buf: &[u8]) -> Result<(u8, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[..2] != MAGIC {
        return Err(WireError::BadMagic {
            found: [buf[0], buf[1]],
        });
    }
    if buf[2] != PROTOCOL_VERSION {
        return Err(WireError::VersionSkew {
            ours: PROTOCOL_VERSION,
            theirs: buf[2],
        });
    }
    let body_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::OversizedFrame {
            len: body_len,
            max: MAX_BODY_LEN,
        });
    }
    Ok((buf[3], body_len))
}

/// Sequential little-endian reader over a frame body. Every accessor
/// checks bounds and fails with [`WireError::Truncated`], so a hostile
/// or skewed body can never panic the decoder.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Malformed {
            what: "length overflow",
        })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, WireError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed {
                what: "bool byte not 0/1",
            }),
        }
    }

    /// `u32` length-prefixed byte string, borrowed from the body.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// `u16` length-prefixed UTF-8 string, borrowed from the body.
    pub(crate) fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::Malformed {
            what: "string is not UTF-8",
        })
    }

    /// `u32` count-prefixed vector of little-endian `u64`s (SecAgg field
    /// elements), borrowed from the body. The count is checked against
    /// the bytes present before anything is sized by it.
    pub(crate) fn u64s(&mut self) -> Result<&'a [[u8; 8]], WireError> {
        let n = self.u32()? as usize;
        let b = self.take(n.checked_mul(8).ok_or(WireError::Malformed {
            what: "element count overflow",
        })?)?;
        Ok(b.as_chunks::<8>().0)
    }

    /// Whole body consumed? Leftovers mean a layout mismatch.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed {
                what: "body longer than message layout",
            })
        }
    }
}

/// Body-writer counterparts to [`Reader`], kept as free functions so the
/// encoders read as a flat layout description.
pub(crate) mod put {
    use super::WireError;

    /// Appends a `u32` length-prefixed byte string.
    pub(crate) fn bytes(out: &mut Vec<u8>, b: &[u8]) {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(b);
    }

    /// Appends a `u16` length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::StringTooLong`] past 65535 bytes — refusing beats the
    /// old silent char-boundary truncation, which made an oversized
    /// string round-trip to a different message than was sent.
    pub(crate) fn string(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
        if s.len() > u16::MAX as usize {
            return Err(WireError::StringTooLong {
                len: s.len(),
                max: u16::MAX as usize,
            });
        }
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// Appends a `u32` count-prefixed vector of little-endian `u64`s
    /// (SecAgg field elements), growing `out` once and filling it in
    /// bulk.
    pub(crate) fn u64s(out: &mut Vec<u8>, v: &[u64]) {
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        let start = out.len();
        out.resize(start + v.len() * 8, 0);
        let (slots, _) = out[start..].as_chunks_mut::<8>();
        for (slot, x) in slots.iter_mut().zip(v) {
            *slot = x.to_le_bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wide digest written straight from its definition in
    /// [`checksum`]'s doc: one word at a time into lane `j mod 64`, no
    /// blocks, seeds computed here rather than read from `WIDE_SEEDS`.
    fn wide_reference(bytes: &[u8]) -> u64 {
        let mut lanes: Vec<u64> = (0..64u64)
            .map(|i| mix(LANE_SEEDS[i as usize % 4], i))
            .collect();
        let words = bytes.len() / 8;
        for j in 0..words {
            let word = u64::from_le_bytes(bytes[8 * j..8 * j + 8].try_into().unwrap());
            lanes[j % 64] = mix(lanes[j % 64], word);
        }
        let mut h = bytes.len() as u64;
        for lane in lanes {
            h = mix(h, lane);
        }
        for &b in &bytes[8 * words..] {
            h = (h ^ u64::from(b)).wrapping_mul(BYTE_PRIME);
        }
        h
    }

    type Digest = fn(&[u8]) -> u64;

    /// Every build of the wide digest this CPU can run, by name.
    fn wide_builds() -> Vec<(&'static str, Digest)> {
        let mut builds: Vec<(&'static str, Digest)> =
            vec![("checksum", checksum), ("portable", checksum_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: a `#[target_feature]` function needs only the
                // CPU feature, which the check above found.
                builds.push(("avx2", |b| unsafe { wide_avx2(b) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                // SAFETY: as above, for AVX-512F and AVX-512DQ.
                builds.push(("avx512", |b| unsafe { wide_avx512(b) }));
            }
        }
        builds
    }

    #[test]
    fn every_wide_build_matches_the_reference() {
        let bytes: Vec<u8> = (0..(1usize << 20) + 3)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) as u8)
            .collect();
        // Every partial-block size (a block is 512 bytes) and byte tail
        // at the threshold and past it, then a megabyte that is not a
        // whole number of words.
        let lengths = (WIDE_DIGEST_FROM..=WIDE_DIGEST_FROM + 1100).chain([bytes.len()]);
        let builds = wide_builds();
        for len in lengths {
            let want = wide_reference(&bytes[..len]);
            for (name, build) in &builds {
                assert_eq!(build(&bytes[..len]), want, "{name} at {len} bytes");
            }
        }
    }
}
