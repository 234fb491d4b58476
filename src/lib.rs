//! `federated` — a Rust reproduction of *Towards Federated Learning at
//! Scale: System Design* (Bonawitz et al., SysML 2019).
//!
//! This umbrella crate re-exports the workspace's subsystems under one
//! namespace for convenient use in examples and downstream code:
//!
//! * [`ml`] — micro ML substrate (the TensorFlow stand-in),
//! * [`data`] — synthetic federated datasets and example stores,
//! * [`core`] — the FL protocol vocabulary (plans, checkpoints, rounds),
//! * [`secagg`] — the Secure Aggregation protocol,
//! * [`actors`] — the actor runtime substrate,
//! * [`server`] — Coordinator / Selector / Aggregator logic + pace steering,
//! * [`device`] — the on-device FL runtime,
//! * [`analytics`] — event logs, time series, and session-shape analytics,
//! * [`sim`] — the discrete-event fleet simulator,
//! * [`tools`] — the model-engineer workflow (plan building, release gates).
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the reproduced
//! figures and tables.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub use fl_actors as actors;
pub use fl_analytics as analytics;
pub use fl_core as core;
pub use fl_data as data;
pub use fl_device as device;
pub use fl_ml as ml;
pub use fl_secagg as secagg;
pub use fl_server as server;
pub use fl_sim as sim;
pub use fl_tools as tools;
