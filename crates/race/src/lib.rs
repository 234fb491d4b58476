//! `fl-race`: machine-checked freedom from lock-order inversion.
//!
//! The paper's server is built around the actor model (Sec. 4.1)
//! precisely so that explicit locking stays rare; the few locks that do
//! exist (mailbox bookkeeping, the coordinator lease registry, shared
//! telemetry) must never nest in inconsistent orders. This crate makes
//! that property *observable* instead of asserted-by-comment:
//!
//! - [`Mutex`] and [`Condvar`] are drop-in wrappers over
//!   `std::sync` that tag every lock with a static [`Site`] (name +
//!   rank), maintain a thread-local stack of held locks, and feed every
//!   nested acquisition into a [`LockGraph`].
//! - The [`LockGraph`] records the *observed* acquisition-order edges.
//!   Cycle detection over the graph reports **potential** deadlocks —
//!   both sites, both orders, and the first thread seen taking each
//!   direction — even when no individual run ever deadlocks.
//! - Every [`Site`] carries a rank; acquiring a lock whose rank is not
//!   strictly greater than every lock already held is reported as a
//!   rank violation. The workspace rank table lives in `DESIGN.md` §7.
//!
//! Wrapped guards recover from poisoning (a panicking actor must not
//! poison unrelated control-plane state — Sec. 4.4 requires the system
//! to keep making progress through crashes), matching the semantics the
//! workspace previously got from its `parking_lot` stand-in.
//!
//! By default every lock reports into the process-wide
//! [`LockGraph::global`] graph, which the `lock-audit` release gate
//! asserts is acyclic and rank-clean after driving the full workload.
//! Tests that *construct* deliberate inversions bind their locks to a
//! private graph via [`Mutex::new_in`] so the global gate stays clean.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![expect(
    clippy::disallowed_types,
    reason = "fl-race's wrappers are built on the raw std::sync primitives they instrument"
)]
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

mod graph;
mod sync;

pub use graph::{Cycle, EdgeReport, LockGraph, RankViolation};
pub use sync::{held_locks, set_thread_label, Condvar, Mutex, MutexGuard};

/// A static lock site: the identity of one lock *in the source*, shared
/// by every runtime instance constructed from it.
///
/// `rank` encodes the global acquisition order: while holding a lock of
/// rank `r`, only locks of rank strictly greater than `r` may be
/// acquired. Ranks are spaced (10, 12, 20, …) so a new lock can slot
/// between existing ones without renumbering; see the table in
/// `DESIGN.md` §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Stable site name, conventionally `"<crate>/<module>.<field>"`.
    pub name: &'static str,
    /// Position in the global lock order (strictly increasing inward).
    pub rank: u16,
}

impl Site {
    /// Declares a lock site.
    pub const fn new(name: &'static str, rank: u16) -> Self {
        Site { name, rank }
    }
}
