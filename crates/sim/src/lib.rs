//! `fl-sim` — the discrete-event fleet simulator.
//!
//! The paper's operational data (Sec. 9 and Appendix A) comes from a
//! production fleet of ~10M devices that this reproduction cannot have.
//! `fl-sim` replaces it with the closest synthetic equivalent: an
//! event-driven simulation of a device fleet with
//!
//! * [`availability`] — a diurnal eligibility model (devices are idle,
//!   charging, and on WiFi mostly at night; Fig. 5's "4× difference
//!   between low and high numbers of participating devices"),
//! * [`network`] — per-device latency/bandwidth/failure models,
//! * [`des`] — the virtual-clock event queue,
//! * [`chaos`] — the engine's fault axis: seeded, replayable fault plans
//!   (`ScenarioConfig::with_plan`, `chaos_seed`) for a one-population
//!   [`scenario`] run,
//!   whose audit holds the Sec. 4.2/4.4 recovery guarantees,
//! * [`live`] — the one live harness: one round on the real threaded
//!   tree, perturbed by two seeds of one run, a wire seed (seeded
//!   `FaultyTransport` scripts mangle device report frames in flight) and
//!   a schedule seed (the `fl-actors` `ScheduleExplorer` permutes mailbox
//!   delivery; a chaos plan under permuted device timing is
//!   [`scenario::run_with_schedule`]), plain or SecAgg, ending in one
//!   audit: exactly one commit and one write per commit, at-most-once
//!   report accounting, the exact average of six distinct updates, a
//!   clean wire's one send per device, obituaries exactly once,
//! * [`scenario`] — the one DES engine besides [`fleet`]'s loop: a seeded
//!   virtual-clock driver over the real Selector / Coordinator / Master /
//!   wire stack with one Coordinator per population on the shipped round
//!   path, load shapes (steady, thundering herd, flash crowd, diurnal
//!   ramp), injected faults, optional per-round SecAgg, and a
//!   two-variant device seam; a run returns one `ScenarioOutcome` with one
//!   `render`, and one audit ends every run (round progress, one
//!   checkpoint write per commit advancing the id by one, no write on a
//!   path that must persist nothing, every forwarded report folded,
//!   exactly-once respawns resuming the committed model, per-population
//!   ledger conservation, the queue bound, shed-rate convergence after a
//!   herd or a flash crowd, no tenant starved by another's flash crowd),
//! * [`overload`] — one-population configs for the engine:
//!   flash-crowd / thundering-herd / diurnal-ramp stress on the Sec. 2.3
//!   flow-control loop (admission shedding, closed-loop pace steering,
//!   device retry budgets),
//! * [`multi`] — multi-population (multi-tenant) configs for the engine:
//!   several FL populations sharing one fleet and one Selector layer,
//!   cross-population fairness under asymmetric load (a flash crowd in
//!   one tenant must not starve another's accepts or commits) and the
//!   device-side single-active-session arbitration (Sec. 2.1/3),
//! * [`fleet`] — the fleet-dynamics scenario driving the real
//!   `fl-server` round state machines with tens of thousands of simulated
//!   devices over simulated days (regenerates Figs. 5–9 and Table 1),
//! * [`training`] — the convergence scenario running *real* on-device
//!   training (`fl-device` runtime over `fl-data` stores) through the real
//!   `fl-server` Coordinator (regenerates the Sec. 8 next-word-prediction
//!   experiment and clients-per-round sweeps).

/// Diurnal device-eligibility model (Fig. 5).
pub mod availability;
/// Seeded fault plans: the fault axis of [`scenario`].
pub mod chaos;
/// The virtual-clock event queue.
pub mod des;
/// Fleet dynamics over simulated days (Figs. 5–9, Table 1).
pub mod fleet;
/// One live round under seeded wire faults and delivery schedules.
pub mod live;
/// Multi-population fairness configs for [`scenario`].
pub mod multi;
/// Per-device latency / bandwidth / failure models.
pub mod network;
/// Single-population overload configs for [`scenario`].
pub mod overload;
/// The scenario engine behind [`chaos`], [`overload`] and [`multi`].
pub mod scenario;
/// Real on-device training through the real Coordinator (Sec. 8).
pub mod training;

pub use availability::DiurnalAvailability;
pub use chaos::{Fault, FaultPlan};
pub use fleet::{FleetConfig, FleetReport};
pub use training::{TrainingRunConfig, TrainingRunReport};

/// The `violations=` footer every seeded report's `render` ends with.
pub(crate) fn render_violations(out: &mut String, violations: &[String]) {
    out.push_str(&format!("violations={}\n", violations.len()));
    for v in violations {
        out.push_str("violation: ");
        out.push_str(v);
        out.push('\n');
    }
}

/// Milliseconds per hour, used throughout the simulator.
pub const HOUR_MS: u64 = 3_600_000;
/// Milliseconds per day.
pub const DAY_MS: u64 = 24 * HOUR_MS;
