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
//! * [`chaos`] — seeded, replayable fault injection against the real
//!   server stack, auditing the Sec. 4.2/4.4 recovery guarantees,
//! * [`netchaos`] — network chaos at the wire boundary: seeded
//!   `FaultyTransport` scripts mangle device report frames in flight
//!   through the live sharded topology, auditing the at-most-once
//!   report accounting and the device's same-key resends,
//! * [`explore`] — seeded schedule exploration: the live actor tree
//!   under permuted mailbox delivery (via the `fl-actors`
//!   `ScheduleExplorer`) and chaos plans under permuted device timing,
//!   auditing the never-hang / exactly-one-commit / storage-write /
//!   obituary-exactly-once invariants across K legal interleavings
//!   (`netchaos` and `explore` share one private live-round scaffold:
//!   the tree, the device (an `fl_device::session` driven over its
//!   connection), the bounded completion poll, shutdown, and the
//!   storage / lease audit; a wire
//!   fault script and a delivery schedule are two seeds of one run, and
//!   each harness keeps its own audit and report),
//! * [`scenario`] — the one flow-control DES engine: a seeded
//!   virtual-clock driver over the real Selector / round / wire stack
//!   with per-population rounds, load shapes (steady, thundering herd,
//!   flash crowd, diurnal ramp), optional per-round SecAgg, and a
//!   two-variant device seam; it audits wire integrity, per-population
//!   ledger conservation, and the queue bound for every configuration,
//! * [`overload`] — the engine's one-population entry point:
//!   flash-crowd / thundering-herd / diurnal-ramp stress scenarios
//!   auditing the Sec. 2.3 flow-control loop (admission shedding,
//!   closed-loop pace steering, device retry budgets),
//! * [`multi`] — the engine's multi-population (multi-tenant) entry
//!   point: several FL populations sharing one fleet and one Selector
//!   layer, auditing cross-population fairness under asymmetric load (a
//!   flash crowd in one tenant must not starve another's accepts or
//!   commits) and the device-side single-active-session arbitration
//!   (Sec. 2.1/3),
//! * [`fleet`] — the fleet-dynamics scenario driving the real
//!   `fl-server` round state machines with tens of thousands of simulated
//!   devices over simulated days (regenerates Figs. 5–9 and Table 1),
//! * [`training`] — the convergence scenario running *real* on-device
//!   training (`fl-device` runtime over `fl-data` stores) through the real
//!   `fl-server` Coordinator (regenerates the Sec. 8 next-word-prediction
//!   experiment and clients-per-round sweeps).

/// Diurnal device-eligibility model (Fig. 5).
pub mod availability;
/// Seeded fault injection against the Coordinator on a virtual clock.
pub mod chaos;
/// The virtual-clock event queue.
pub mod des;
/// Seeded delivery-schedule exploration of the live actor tree.
pub mod explore;
/// Fleet dynamics over simulated days (Figs. 5–9, Table 1).
pub mod fleet;
/// Multi-population fairness scenarios: an entry point of [`scenario`].
pub mod multi;
/// Seeded wire faults through the live sharded topology.
pub mod netchaos;
mod live_round;
/// Per-device latency / bandwidth / failure models.
pub mod network;
/// Single-population overload scenarios: an entry point of [`scenario`].
pub mod overload;
/// The flow-control scenario engine behind [`overload`] and [`multi`].
pub mod scenario;
/// Real on-device training through the real Coordinator (Sec. 8).
pub mod training;

pub use availability::DiurnalAvailability;
pub use chaos::{run_chaos_with_schedule, ChaosConfig, ChaosReport, Fault, FaultPlan};
pub use explore::{explore_chaos, explore_live_round, explore_secagg_live_round, ExploreReport};
pub use fleet::{FleetConfig, FleetReport};
pub use multi::{run_multi_tenant, MultiTenantConfig, MultiTenantReport};
pub use netchaos::{
    run_wire_chaos, run_wire_chaos_secagg, run_wire_chaos_with_schedule, WireChaosReport,
};
pub use overload::{OverloadConfig, OverloadReport, OverloadScenario};
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
