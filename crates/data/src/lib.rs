//! `fl-data` — synthetic federated datasets and on-device example stores.
//!
//! The paper's workloads run on privacy-sensitive user data that never
//! leaves the device (Gboard typing data, on-device interaction logs). This
//! crate provides the reproduction's synthetic equivalents:
//!
//! * [`store`] — the *example store* abstraction of Sec. 3: the on-device
//!   repository applications fill with training data, with storage-footprint
//!   limits and automatic expiration of old examples;
//! * [`synth::classification`] — non-IID Gaussian-mixture classification
//!   data, partitioned per user with label skew;
//! * [`synth::text`] — a Zipfian, topic-clustered Markov text source that
//!   yields per-user next-word-prediction data (the Sec. 8 workload) plus a
//!   distribution-shifted *proxy corpus* (Sec. 7.1: "text from Wikipedia may
//!   be viewed as proxy data for text typed on a mobile keyboard");
//! * [`partition`] — utilities for splitting centralized datasets across
//!   simulated users, IID or skewed.
//!
//! All generators are seeded and deterministic.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod partition;
pub mod store;
pub mod synth;

pub use store::{ExampleStore, InMemoryStore, StoreConfig};
