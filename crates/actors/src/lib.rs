//! `fl-actors` — a small actor runtime (Sec. 4.1 of the paper).
//!
//! "The FL server is designed around the Actor Programming Model […].
//! Actors are universal primitives of concurrent computation which use
//! message passing as the sole communication mechanism. Each actor handles
//! a stream of messages/events strictly sequentially, leading to a simple
//! programming model."
//!
//! This crate provides the substrate the FL server's live mode runs on:
//!
//! * [`actor::Actor`] + [`actor::ActorRef`] — typed actors with sequential
//!   mailbox processing (crossbeam channels), and [`actor::Reply`], the
//!   answer a request is owed exactly once, even by an actor that dies;
//! * [`system::ActorSystem`] — actors scheduled on W worker threads
//!   (W = the machine's available parallelism) from one run queue, with
//!   one clock (`now_ms`) and one timer set on it for their deadlines,
//!   clean shutdown, and death notifications;
//! * [`supervision::watch_and_respawn`] — the lease-fenced loop that
//!   respawns a crashed Coordinator exactly once ("in all failure cases
//!   the system will continue to make progress", Sec. 4.4);
//! * [`registry::LockingService`] — the shared locking service in which
//!   Coordinators register, guaranteeing "there is always a single owner
//!   for every FL population" and that respawn "will happen exactly once";
//! * [`explore`] — seeded schedule exploration: the fault-injection
//!   hook's [`system::FaultAction::Reorder`] action, driven across K
//!   seeds, checks scenario invariants under K distinct legal delivery
//!   orders.

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
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod actor;
pub mod explore;
pub mod registry;
pub mod supervision;
pub mod system;

pub use actor::{Actor, ActorRef, Context, Flow, Reply};
pub use explore::{audit_exactly_once, ScheduleExplorer};
pub use registry::{Lease, LockingService};
pub use supervision::{watch_and_respawn, RespawnReport};
pub use system::{
    ActorSystem, DeathReason, FaultAction, FaultInjector, Obituary, ScriptedFaults, OBITUARY_RING,
};
