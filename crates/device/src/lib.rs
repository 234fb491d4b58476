//! `fl-device` — the on-device Federated Learning runtime (Sec. 3).
//!
//! The paper's device stack, reproduced without Android:
//!
//! * [`conditions`] — device state and the eligibility criteria ("idle,
//!   charging, and connected to an unmetered network");
//! * [`scheduler`] — the JobScheduler stand-in: periodic job invocation
//!   gated on eligibility, with abort-on-change semantics, plus the
//!   multi-tenant training queue ("a simple worker queue […] we avoid
//!   running training sessions on-device in parallel", Sec. 11);
//! * [`connectivity`] — the device half of pace steering (Sec. 2.3):
//!   jittered exponential backoff, per-task retry budgets, and honoring of
//!   server-suggested reconnect windows through the scheduler;
//! * [`attestation`] — simulated device attestation (Sec. 3: devices
//!   participate anonymously; the server verifies tokens so that "only
//!   genuine devices and applications participate");
//! * [`runtime`] — the FL runtime itself: interprets the device portion of
//!   an FL plan against the app's example store, computes updates and
//!   metrics, and reports, emitting the session events of Table 1;
//! * [`session`] — the device half of the protocol, written once: check
//!   in, take the Configuration, report under the at-most-once key, and
//!   wait out the verdict, resending the same key after a lost ack;
//! * [`tenancy`] — the multi-population front end: per-population
//!   schedulers and retry budgets behind single-active-session
//!   arbitration, so several FL populations share one device without
//!   parallel training or cross-population interference.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod attestation;
pub mod conditions;
pub mod connectivity;
pub mod runtime;
pub mod scheduler;
pub mod session;
pub mod tenancy;

pub use conditions::DeviceConditions;
pub use connectivity::{ConnectivityManager, RetryDecision};
pub use runtime::{ExecutionOutcome, FlRuntime, Interruption};
pub use scheduler::{JobScheduler, TrainingQueue};
pub use tenancy::{DeviceTenancy, PopulationLane};
