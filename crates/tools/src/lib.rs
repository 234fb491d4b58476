//! `fl-tools` — the model engineer workflow (Sec. 7, Fig. 4).
//!
//! "The primary developer surface of model engineers working with the FL
//! system is a set of Python interfaces and tools to define, test, and
//! deploy TensorFlow-based FL tasks to the fleet." This crate is the Rust
//! equivalent for this reproduction's stack:
//!
//! * [`builder`] — define FL tasks (model + hyperparameters + round
//!   config), including *task groups* for grid searches (Sec. 7.1: "FL
//!   tasks may be defined in groups: for example, to evaluate a grid
//!   search over learning rates");
//! * [`simulate`] — "deployment of FL tasks to a simulated FL server and a
//!   fleet of cloud jobs emulating devices on a large proxy dataset",
//!   including proxy-data pre-training;
//! * [`release`] — the versioning/testing/deployment gates of Sec. 7.3:
//!   reviewed-code provenance, bundled test predicates that must pass in
//!   simulation, resource budgets, and version-matrix execution of the
//!   generated versioned plans.
//!
//! Sec. 7.4's analysis tools read the Coordinator's materialized metrics
//! (`Coordinator::materialized_metrics`) directly; no wrapper is kept.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod builder;
pub mod release;
pub mod simulate;

pub use builder::TaskBuilder;
pub use release::{ReleaseGate, ReleaseReport};
