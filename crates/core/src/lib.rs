//! `fl-core` — the Federated Learning protocol vocabulary.
//!
//! This crate defines the nouns of Bonawitz et al.'s system, shared by the
//! server (`fl-server`), the device runtime (`fl-device`), the simulator
//! (`fl-sim`), and the tooling (`fl-tools`):
//!
//! * [`population`] — *FL populations* (globally-unique learning problems)
//!   and *FL tasks* (specific computations: training or evaluation), plus
//!   the dynamic task-selection strategies of Sec. 7.1;
//! * [`plan`] — *FL plans* (Sec. 7.2): the device part (model graph stand-in,
//!   data selection criteria, batching/epoch instructions) and server part
//!   (aggregation logic), with the plan versioning of Sec. 7.3;
//! * [`checkpoint`] — *FL checkpoints*: serialized global model state that
//!   travels between server and devices;
//! * [`round`] — round configuration (goal counts, timeouts, over-selection)
//!   and outcomes;
//! * [`events`] — device phase events and the session-shape strings of the
//!   analytics layer (Table 1);
//! * [`aggregation`] — the streaming, in-memory Federated Averaging
//!   accumulator (Sec. 4.2: updates are folded in as they arrive and never
//!   persisted individually);
//! * [`privacy`] — simplified DP-FedAvg clipping/noise configuration
//!   (Sec. 6, footnote 2);
//! * [`retry`] — the device-side reconnect discipline (jittered backoff,
//!   per-task retry budgets) that makes pace steering (Sec. 2.3)
//!   cooperative rather than advisory;
//! * [`traffic`] — the byte tallies the fleet simulator models Fig. 9
//!   with (live links count what they send in `fl_wire::WireStats`);
//! * [`error`] — the shared error type.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![deny(missing_debug_implementations)]

pub mod aggregation;
pub mod checkpoint;
pub mod error;
pub mod events;
pub mod plan;
pub mod population;
pub mod privacy;
pub mod retry;
pub mod round;
pub mod traffic;

pub use checkpoint::FlCheckpoint;
pub use error::CoreError;
pub use events::DeviceEvent;
pub use plan::FlPlan;
pub use population::{FlTask, PopulationName, TaskKind};
pub use retry::RetryPolicy;
pub use round::{RoundConfig, RoundOutcome};

/// Identifies a device across the protocol. Devices are anonymous (Sec. 3,
/// *Attestation*): the id is an ephemeral handle for a connection, not a
/// user identity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct DeviceId(pub u64);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device-{}", self.0)
    }
}

/// A round index within an FL task.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct RoundId(pub u64);

impl RoundId {
    /// The next round.
    pub fn next(self) -> RoundId {
        RoundId(self.0 + 1)
    }
}

impl std::fmt::Display for RoundId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "round-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_id_advances() {
        assert_eq!(RoundId(0).next(), RoundId(1));
        assert_eq!(RoundId(41).next().to_string(), "round-42");
    }

    #[test]
    fn device_id_displays() {
        assert_eq!(DeviceId(7).to_string(), "device-7");
    }
}
