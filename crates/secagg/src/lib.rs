//! `fl-secagg` — Secure Aggregation (Sec. 6 of the paper; protocol of
//! Bonawitz et al., CCS 2017).
//!
//! A Secure Multi-Party Computation protocol that lets a server learn only
//! the *sum* of device update vectors, never any individual update, and
//! tolerates devices dropping out at every stage.
//!
//! The four interactive rounds (paper Sec. 6):
//!
//! 1. **Prepare / AdvertiseKeys** — each device publishes two Diffie–Hellman
//!    public keys (`c` for share encryption, `s` for mask agreement).
//! 2. **Prepare / ShareKeys** — each device Shamir-shares its mask secret
//!    key and its self-mask seed among all participants, encrypted per
//!    recipient. Devices that drop out here are simply excluded.
//! 3. **Commit / MaskedInputCollection** — each surviving device uploads
//!    its input vector blinded by pairwise masks (which cancel in the sum)
//!    and a self mask (which does not), all in the ring `Z_{2^32}`. All devices completing this round
//!    are included in the final aggregate "or else the entire aggregation
//!    will fail".
//! 4. **Finalization / Unmasking** — survivors reveal *self-mask* shares
//!    for devices that committed and *mask-key* shares for devices that
//!    dropped after sharing keys; the server reconstructs and removes the
//!    residual masks. Only a threshold of devices must survive to here.
//!
//! # Security model of this reproduction
//!
//! The *protocol structure* is faithful: share thresholds, drop-out
//! handling, the commit/finalize split, and the invariant that the server
//! never learns both a device's self-mask seed and its mask secret key.
//! The *primitives* are simulation-grade — 61-bit Diffie–Hellman, Shamir
//! shares in the 61-bit prime field ([`field`]), and a xoshiro256++ PRG
//! for the masks (in `Z_{2^32}`, [`masking`]) and the share keystream
//! ([`keys`]) —
//! chosen so the systems behaviour
//! (message counts, quadratic server reconstruction cost, group-size
//! limits) is real while keys stay word-sized. Do **not** use this crate
//! for actual cryptographic protection; see DESIGN.md.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used
)]

pub mod error;
pub mod field;
pub mod keys;
pub mod masking;
pub mod protocol;
pub mod shamir;

pub use error::SecAggError;
pub use protocol::{SecAggClient, SecAggConfig, SecAggServer};
