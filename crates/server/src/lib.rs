//! `fl-server` — the Federated Learning server (Sec. 2 and Sec. 4).
//!
//! The server side of the protocol, structured exactly as the paper's
//! actor architecture (Fig. 3), but with the *protocol logic* factored
//! into deterministic, explicitly-clocked state machines so it can be
//! driven both by the discrete-event simulator (`fl-sim`) and by the live
//! threaded actor runtime (`fl-actors`):
//!
//! * [`pace`] — pace steering (Sec. 2.3): stateless reconnect-window
//!   suggestion, rendezvous concentration for small populations,
//!   thundering-herd avoidance for large ones, diurnal awareness;
//! * [`selector`] — Selectors (Sec. 4.2): accept/reject device check-ins
//!   against coordinator-assigned quotas, forward devices by reservoir
//!   sampling;
//! * [`shedding`] — overload protection for the Selector layer: a
//!   token-bucket + bounded-queue admission controller with deterministic
//!   shed decisions, and closed-loop pace steering that folds observed
//!   check-in arrival rates back into reconnect-window sizing;
//! * [`round`] — the Selection → Configuration → Reporting state machine
//!   of one round (Sec. 2.2), with goal counts, timeouts, over-selection,
//!   straggler discard, and per-device session logs;
//! * [`aggregator`] — Aggregators and the Master Aggregator (Sec. 4.2,
//!   Sec. 6): streaming in-memory FedAvg shards, optional per-shard Secure
//!   Aggregation over groups of size ≥ k, hierarchical merge;
//! * [`coordinator`] — Coordinators (Sec. 4.2): per-population round
//!   advancement in lockstep, task selection, global model custody,
//!   checkpoint commits, locking-service registration;
//! * [`storage`] — the persistent checkpoint store ("no information for a
//!   round is written to persistent storage until it is fully aggregated");
//! * [`topology`] — the shared blueprint for the Selector → Coordinator →
//!   Master Aggregator tree, built identically by the live topology and
//!   both simulation harnesses;
//! * [`live`] — the threaded actor wiring for all of the above.
//!
//! Pipelining (Sec. 4.3: Selection of round *i+1* under the
//! Configuration/Reporting of round *i*) has no module of its own, as in
//! the paper: it is "achieved simply by the virtue of Selector actors
//! running the selection process continuously" — a [`selector::Selector`]
//! keeps accepting and holding devices whatever phase the round is in.

#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

/// Aggregators and the Master Aggregator: streaming FedAvg shards,
/// optional per-shard Secure Aggregation, hierarchical merge.
pub mod aggregator;
/// Coordinators: round advancement, task selection, model custody.
pub mod coordinator;
/// Threaded actor wiring for the live (wall-clock) server topology.
pub mod live;
/// Pace steering: reconnect windows, rendezvous, herd avoidance.
pub mod pace;
/// The Selection → Configuration → Reporting round state machine.
pub mod round;
/// Selectors: check-in admission against coordinator quotas.
pub mod selector;
/// Overload protection: admission control and closed-loop pace steering.
pub mod shedding;
/// Persistent checkpoint storage with aggregate-before-write semantics.
pub mod storage;
/// Shared blueprint types for building the Selector → Coordinator →
/// Master Aggregator tree across the live and simulated harnesses.
pub mod topology;

/// The versioned framed wire protocol spoken at the device↔Selector and
/// Selector↔Aggregator boundaries, re-exported so server consumers get
/// the exact protocol revision this server was built against.
pub use fl_wire as wire;

pub use aggregator::{AggregationPlan, MasterAggregator};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use pace::PaceSteering;
pub use round::{RoundEvent, RoundState};
pub use selector::{CheckinDecision, Selector};
pub use shedding::{
    AdmissionConfig, AdmissionController, AdmissionDecision, GlobalAdmissionBudget,
    GlobalAdmissionConfig, PaceController, PaceControllerConfig, ShedReason,
};
pub use storage::{
    CheckpointStore, FaultyCheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore,
};
pub use topology::{DeploymentSpec, SelectorSpec, TopologyBlueprint};
