//! The public wire protocol of the federated learning system.
//!
//! The paper's device↔server exchange (Sec. 2–3) is a three-phase
//! round-trip: the device *checks in*, the Selector either turns it away
//! with a retry window ("tells it to reconnect at a later point in
//! time", Sec. 2.3) or forwards it; a selected device downloads the *FL
//! plan and checkpoint* (Sec. 3, Configuration); and finally it uploads
//! an *update report* that the Aggregator tree folds into the round
//! (Sec. 3, Reporting). This crate is the single definition of that
//! exchange as bytes on a wire: a [`WireMessage`] enum covering the
//! device↔server messages (the actors behind the front door are one
//! process and exchange typed messages, not frames), a
//! deterministic length-prefixed framed codec ([`encode`] / [`decode`],
//! with [`encode_into`] for a connection that keeps its buffer and
//! [`ReportRef`] for a server that must key and route an upload without
//! copying it), and a [`Transport`] trait with an in-memory channel implementation
//! (tests and discrete-event scenarios — byte-identical per seed) and a
//! framed-TCP implementation (`examples/live_server.rs`).
//!
//! Framing is deliberately minimal and versioned so the server and the
//! device fleet can roll forward independently (the paper's Sec. 7.3
//! plan-versioning story, applied to the envelope):
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"FW"
//! 2       1     PROTOCOL_VERSION
//! 3       1     message tag (see `tag`)
//! 4       4     body length, u32 little-endian (<= MAX_BODY_LEN)
//! 8       n     body (per-message layout, see DESIGN.md §8)
//! 8+n     8     checksum of header + body, u64 little-endian
//! ```
//!
//! The trailer is the word-at-a-time digest defined at [`checksum`]:
//! four lanes for a frame under 4 KiB, 64 vectorizable lanes from 4 KiB
//! up; a frame is written header → body → trailer into one
//! buffer, and every decoder verifies the trailer before it trusts a
//! body byte.
//!
//! Decoding rejects, with a typed [`WireError`], every malformed input
//! class: truncation (of header or body), bad magic, version skew, an
//! unknown message tag (forward compatibility: a frame from a newer
//! protocol is *refused*, never misparsed), oversized length prefixes,
//! and integrity-trailer mismatches (any single flipped byte is caught
//! with certainty — see [`checksum`]). The golden-bytes fixture in
//! `tests/golden.rs` pins the exact layout; any accidental change fails
//! loudly.
//!
//! Because real device links corrupt, drop, and replay frames (Sec.
//! 2.2), the crate also ships its own adversary: [`FaultyTransport`]
//! wraps either transport and mangles outbound frames per a seeded
//! [`FaultScript`] — the byte-layer analogue of `fl-actors`'
//! `ScriptedFaults`. Report frames carry a `(device, round, attempt)`
//! key so the server can keep upload handling at-most-once under
//! retries; see `WireMessage::UpdateReport`.

#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod fault;
mod frame;
mod message;
mod transport;

pub use fault::{FaultScript, FaultStats, FaultyTransport, FrameFault};
pub use frame::{
    checksum, checksum_portable, decode, decode_prefix, encode, encode_into,
    encode_plan_and_checkpoint_into, encode_plan_digest_and_checkpoint_into, encoded_len, peek_tag,
    WireError, HEADER_LEN, MAGIC, MAX_BODY_LEN, PROTOCOL_VERSION, TRAILER_LEN,
};
pub use message::{plan_digest, tag, PlanSlot, ReportPayload, ReportRef, WireMessage};
pub use transport::{recycle, ChannelTransport, TcpTransport, Transport, WireSink, WireStats};
