//! The flow-control scenario engine: one seeded virtual-clock driver over
//! the real Selector / round / wire stack, with one round machine per
//! population.
//!
//! The paper runs every population through the same Selector →
//! Coordinator → Aggregator machinery (Sec. 2.1, 4.2) and closes one
//! flow-control loop around all of them (Sec. 2.3): pace steering spreads
//! check-ins, Selectors shed what still arrives faster than capacity, and
//! devices cooperate with jittered backoff and retry budgets. [`run`]
//! drives that loop end to end through the production code paths — the
//! real [`Selector`] (admission control, staleness eviction, closed-loop
//! `PaceController`, shared fair-share budget), the real [`RoundState`]
//! machine per population, an optional per-round SecAgg
//! [`MasterAggregator`], and the real device-side retry discipline —
//! with every check-in, configuration, report, and ack crossing an
//! in-memory wire as a framed [`WireMessage`].
//!
//! [`crate::overload`] and [`crate::multi`] are thin entry points: each
//! names its calibrated [`ScenarioConfig`]s, calls [`run`], and projects
//! the [`ScenarioOutcome`] into its own report, adding the audits only
//! it makes (shed-rate convergence; cross-population fairness). A
//! single-population overload run is this engine with one
//! [`PopulationLoad`]. The one thing the two families legitimately
//! disagree on is what a *device* is, and that is the [`Fleet`] seam;
//! nothing else in the loop knows which entry point called it.
//!
//! The engine itself audits what holds for every configuration: frames
//! survive the wire, the Selectors' per-population ledgers sum to the
//! decisions the harness saw handed out, and the held-connection queue
//! stays under its bound. Everything is a pure function of the config
//! (seed included), so two runs of one config agree byte for byte.

use crate::des::EventQueue;
use crate::live_round::report_frame;
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, FlCheckpoint, FlPlan, PopulationName, RetryPolicy, RoundId};
use fl_device::conditions::DeviceConditions;
use fl_device::connectivity::ConnectivityManager;
use fl_device::tenancy::DeviceTenancy;
use fl_ml::rng;
use fl_server::aggregator::{AggregationPlan, MasterAggregator};
use fl_server::pace::PaceSteering;
use fl_server::round::{CheckinResponse, Phase, RoundEvent, RoundState};
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionBudget, GlobalAdmissionConfig};
use fl_server::topology::{SelectorSpec, TopologyBlueprint};
use fl_server::wire::{ChannelTransport, Transport, WireMessage, WireStats};
use rand::rngs::StdRng;
use rand::Rng;

/// Coordinates in a SecAgg population's (synthetic) update vector.
const SECAGG_DIM: usize = 4;

/// What a device of the fleet is — the one seam between the overload and
/// the multi-tenant scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Every device is a bare [`ConnectivityManager`] dedicated to the
    /// last (most specific) population it is a member of. It re-checks in
    /// one `period_ms` (plus jitter) after each report whatever the ack
    /// said, and a fallback wake that finds it still held checks in again
    /// over the held slot.
    Dedicated,
    /// Every device is a [`DeviceTenancy`] with one lane per population
    /// it is a member of, arbitrating a single active session. A fallback
    /// wake that finds it still held disconnects the stale slot first,
    /// and a refusing ack backs off through the refused lane only.
    Tenancy,
}

impl Fleet {
    /// `(harness RNG, Selector RNG)` seed salts. The two families always
    /// drew from differently salted streams and the committed render
    /// digests pin both.
    fn salts(self) -> (u64, u64) {
        match self {
            Fleet::Dedicated => (0x0E7, 0x5E1),
            Fleet::Tenancy => (0x3A9, 0x7E2),
        }
    }
}

/// The arrival disturbance aimed at one population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// No disturbance: the paced steady state.
    Steady,
    /// Every idle member reconnects at the same instant with probability
    /// `fraction` — a synchronized wake.
    ThunderingHerd {
        /// When the herd fires.
        at_ms: u64,
        /// Fraction of idle members that join (`0.0..=1.0`).
        fraction: f64,
    },
    /// `newcomers` devices that know only this population appear at
    /// `at_ms` and check in unpaced within one pace window.
    FlashCrowd {
        /// When the crowd arrives.
        at_ms: u64,
        /// How many single-population devices it brings.
        newcomers: u64,
    },
    /// Sinusoidal modulation of the activity factor the Selector sees
    /// (the diurnal day/night swing).
    DiurnalRamp {
        /// Oscillation period.
        period_ms: u64,
        /// Relative amplitude of the swing (`0.0..1.0`).
        amplitude: f64,
    },
}

impl LoadShape {
    /// When the disturbance begins (0 when it is continuous or absent).
    pub fn onset_ms(&self) -> u64 {
        match *self {
            LoadShape::ThunderingHerd { at_ms, .. } | LoadShape::FlashCrowd { at_ms, .. } => at_ms,
            LoadShape::Steady | LoadShape::DiurnalRamp { .. } => 0,
        }
    }

    /// Short name used in rendered reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadShape::Steady => "steady",
            LoadShape::ThunderingHerd { .. } => "thundering-herd",
            LoadShape::FlashCrowd { .. } => "flash-crowd",
            LoadShape::DiurnalRamp { .. } => "diurnal-ramp",
        }
    }

    fn activity(&self, now_ms: u64) -> f64 {
        match *self {
            LoadShape::DiurnalRamp { period_ms, amplitude } => {
                let phase = now_ms as f64 / period_ms as f64 * std::f64::consts::TAU;
                1.0 + amplitude * phase.sin()
            }
            _ => 1.0,
        }
    }
}

/// One population (one learning problem) and the load it brings.
#[derive(Debug, Clone)]
pub struct PopulationLoad {
    /// Wire-visible population name.
    pub name: &'static str,
    /// Device-side job cadence (ms): a [`Fleet::Tenancy`] lane's period,
    /// a [`Fleet::Dedicated`] device's natural re-check-in period. The
    /// baseline fleet's first wakes spread over the shortest one.
    pub period_ms: u64,
    /// Round configuration of this population's Coordinator.
    pub round: RoundConfig,
    /// Per-Selector held-connection quota for this population.
    pub quota: usize,
    /// Baseline device `i` is a member iff `i % membership_stride == 0`.
    pub membership_stride: u64,
    /// The disturbance aimed at this population.
    pub shape: LoadShape,
    /// When set, every round aggregates through a real
    /// [`MasterAggregator`] under Secure Aggregation with this group
    /// threshold: reports upload fixed-point field vectors, and a cohort
    /// stranded below `k` surfaces as shard aborts or a round abort.
    pub secagg_k: Option<usize>,
}

/// Everything one scenario run is a function of.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Baseline fleet size (flash-crowd newcomers come on top).
    pub devices: u64,
    /// Simulated duration (ms).
    pub horizon_ms: u64,
    /// Pace-steering rendezvous period = metric bucket width (ms).
    pub window_ms: u64,
    /// How often each Coordinator asks the Selectors for forwards.
    pub forward_period_ms: u64,
    /// How many Selectors the load fans across (device id modulo).
    pub selectors: u64,
    /// Per-Selector local admission control.
    pub admission: AdmissionConfig,
    /// Fleet-wide budget shared by every Selector, with per-population
    /// fair-share reservations; `None` leaves admission local.
    pub global_admission: Option<GlobalAdmissionConfig>,
    /// Selector staleness TTL for held connections (ms).
    pub stale_after_ms: u64,
    /// Device retry discipline.
    pub retry: RetryPolicy,
    /// Master seed.
    pub seed: u64,
    /// What a device is.
    pub fleet: Fleet,
    /// The populations sharing the fleet; at least one.
    pub populations: Vec<PopulationLoad>,
}

/// One population's ledger at the end of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PopulationOutcome {
    /// Population name.
    pub name: &'static str,
    /// Check-ins offered under this population (accepted + rejected).
    pub offered: u64,
    /// Check-ins accepted into this population's held set.
    pub accepted: u64,
    /// Check-ins shed (local admission + global budget) while claiming
    /// this population.
    pub shed: u64,
    /// Rejections that were quota/duplicate pacing, not shedding.
    pub rejected_other: u64,
    /// Admits charged to this population on the shared global budget.
    pub budget_admits: u64,
    /// Sheds charged to this population by the shared global budget.
    pub budget_sheds: u64,
    /// Device-side retries recorded against this population.
    pub retries: u64,
    /// Devices (lanes) that exhausted a retry-budget window at least once.
    pub budget_exhaustions: u64,
    /// Rounds begun by this population's Coordinator.
    pub rounds_started: u64,
    /// Rounds that reached a terminal state.
    pub rounds_terminal: u64,
    /// Rounds committed.
    pub committed: u64,
    /// Rounds abandoned (cleanly).
    pub abandoned: u64,
    /// SecAgg Aggregator groups stranded below threshold in rounds that
    /// still committed from the surviving groups.
    pub secagg_shard_aborts: u64,
    /// Committed-by-the-state-machine rounds whose aggregate was lost
    /// because every SecAgg group fell below threshold.
    pub secagg_round_aborts: u64,
}

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-population ledgers, in config order.
    pub populations: Vec<PopulationOutcome>,
    /// Accepts counted where the harness saw them handed out — the
    /// independent side of the conservation audit.
    pub accepted_total: u64,
    /// Rejections (sheds included) counted the same way.
    pub rejected_total: u64,
    /// Times a due lane lost the on-device single-session arbitration.
    pub arbitration_losses: u64,
    /// Stale held connections evicted.
    pub evicted: u64,
    /// Deepest any Selector's held-connection queue ever got.
    pub max_queue_depth: usize,
    /// The closed-loop population estimate, summed across Selectors, at
    /// the end of the run.
    pub population_estimate_final: u64,
    /// The highest that sum was at any window boundary or at the end.
    pub population_estimate_peak: u64,
    /// Accept / shed / retry telemetry, finalized at the horizon.
    pub metrics: OverloadMetrics,
    /// Bytes-on-wire counters from the device end of the in-memory wire.
    pub wire: WireStats,
    /// Engine-level invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

/// Every started round reached a terminal state and at least one
/// committed, per population — what both entry points audit on top of the
/// engine. `describe` words the violation: `Some(stuck)` rounds never
/// terminated, or `None` committed.
pub(crate) fn audit_round_progress(
    populations: &[PopulationOutcome],
    violations: &mut Vec<String>,
    describe: impl Fn(&PopulationOutcome, Option<u64>) -> String,
) {
    for o in populations {
        if o.rounds_terminal != o.rounds_started {
            let stuck = o.rounds_started - o.rounds_terminal.min(o.rounds_started);
            violations.push(describe(o, Some(stuck)));
        }
        if o.committed == 0 {
            violations.push(describe(o, None));
        }
    }
}

/// The virtual-clock harnesses' in-memory wire: both ends of one
/// [`ChannelTransport`] pair. Every device↔server exchange crosses it as
/// a framed [`WireMessage`] — the protocol the live topology and the TCP
/// front door speak — and frames are pure functions of the messages, so
/// the byte counters replay identically per seed.
pub(crate) struct SimWire {
    device: ChannelTransport,
    server: ChannelTransport,
}

impl SimWire {
    pub(crate) fn new() -> Self {
        let (device, server) = ChannelTransport::pair();
        SimWire { device, server }
    }

    /// Sends `msg` up the wire and returns what the server side decoded;
    /// a lost or unsendable frame is an invariant violation.
    pub(crate) fn wire_uplink(
        &self,
        now: u64,
        msg: &WireMessage,
        violations: &mut Vec<String>,
    ) -> Option<WireMessage> {
        if self.device.send(msg).is_err() {
            violations.push(format!("t={now}: wire uplink send failed"));
            return None;
        }
        match self.server.try_recv() {
            Ok(Some(decoded)) => Some(decoded),
            _ => {
                violations.push(format!("t={now}: frame lost on the uplink"));
                None
            }
        }
    }

    /// Sends a server reply down the wire and has the device side consume
    /// it, so the device-end received counters see every downlink frame.
    pub(crate) fn wire_downlink(&self, msg: &WireMessage) {
        let _ = self.server.send(msg);
        while let Ok(Some(_)) = self.device.try_recv() {}
    }

    /// The device end's counters.
    pub(crate) fn stats(&self) -> WireStats {
        self.device.stats()
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A device's wake chain fires: it attempts a check-in.
    Wake { device: u64, gen: u32 },
    /// Every population's Coordinator asks the Selectors for forwards.
    Forward,
    /// A selected device finishes training + upload for `pop`.
    Report { device: u64, pop: usize, round_seq: u64 },
    /// Round phase timeout check for `pop`.
    RoundTick { pop: usize, round_seq: u64 },
    /// Per-window staleness eviction + queue-depth / estimate sampling.
    WindowSample,
    /// The thundering herd aimed at `pop` fires.
    Herd { pop: usize, fraction: f64 },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum DevPhase {
    /// Not connected; the wake chain is (usually) pending.
    Idle,
    /// Held in a Selector's connected queue.
    Held,
    /// Forwarded into an active round; awaiting report.
    InRound,
}

/// The device side of the [`Fleet`] seam.
enum Behaviour {
    /// `pop` is the population the device serves; `None` is a dark
    /// device that never checks in.
    Dedicated { mgr: ConnectivityManager, pop: Option<usize> },
    Tenant(DeviceTenancy),
}

/// What a firing wake chain does next.
enum Claim {
    /// Check in for this population.
    For(usize),
    /// Nothing is due; resume the chain then.
    Later(u64),
    /// The chain ends.
    Never,
}

/// The earliest any of the device's lanes comes due, clamped into the
/// future so a wake chain always advances.
fn next_wake_ms(tenancy: &DeviceTenancy, now_ms: u64) -> u64 {
    tenancy
        .populations()
        .iter()
        .filter_map(|p| tenancy.lane(p).map(|l| l.scheduler.next_due_ms()))
        .min()
        .unwrap_or(u64::MAX)
        .max(now_ms + 1)
}

impl Behaviour {
    /// Called when a wake finds the device still held (its slot went
    /// stale without a forward): whether it gives the connection up.
    fn releases_stale_slot(&mut self) -> bool {
        match self {
            Behaviour::Dedicated { .. } => false,
            Behaviour::Tenant(tenancy) => {
                tenancy.finish_session();
                true
            }
        }
    }

    fn claim(&mut self, now: u64, names: &[PopulationName], rng: &mut StdRng) -> Claim {
        match self {
            Behaviour::Dedicated { pop, .. } => pop.map_or(Claim::Never, Claim::For),
            Behaviour::Tenant(tenancy) => {
                match tenancy.start_session(now, DeviceConditions::eligible(), rng) {
                    Some(winner) => Claim::For(
                        names
                            .iter()
                            .position(|name| *name == winner)
                            .expect("a tenancy registers only the scenario's populations"),
                    ),
                    None => Claim::Later(next_wake_ms(tenancy, now)),
                }
            }
        }
    }

    fn on_accepted(&mut self, population: &PopulationName, now: u64) {
        match self {
            Behaviour::Dedicated { mgr, .. } => mgr.on_success(now),
            Behaviour::Tenant(tenancy) => tenancy.on_success(population, now),
        }
    }

    /// Routes a framed rejection / refusal through the device's retry
    /// discipline (the claimed lane's backoff + budget) and returns when
    /// its wake chain resumes.
    fn on_rejected(
        &mut self,
        population: &PopulationName,
        now: u64,
        reply: &WireMessage,
        rng: &mut StdRng,
    ) -> u64 {
        match self {
            Behaviour::Dedicated { mgr, .. } => mgr
                .on_wire_reply(now, reply, rng)
                .map_or(now + 1, |decision| decision.effective_at_ms()),
            Behaviour::Tenant(tenancy) => {
                let _ = tenancy.on_server_reply(population, now, reply, rng);
                tenancy.finish_session();
                next_wake_ms(tenancy, now)
            }
        }
    }

    /// The report exchange is over. Returns when the wake chain resumes,
    /// or `None` when the device treats the refusing ack as a rejection.
    fn on_report_acked(
        &mut self,
        population: &PopulationName,
        now: u64,
        accepted: bool,
        period_ms: u64,
        rng: &mut StdRng,
    ) -> Option<u64> {
        match self {
            // The next natural participation is the device's periodic FL
            // job (Sec. 3: jobs fire when idle, charging, unmetered —
            // hours apart), not a tight re-poll loop that would
            // double-count the device in the arrival stream.
            Behaviour::Dedicated { mgr, .. } => {
                mgr.on_success(now);
                Some(now + period_ms + rng.random_range(0..period_ms.max(1)))
            }
            Behaviour::Tenant(tenancy) if accepted => {
                tenancy.on_success(population, now);
                tenancy.finish_session();
                Some(next_wake_ms(tenancy, now))
            }
            Behaviour::Tenant(_) => None,
        }
    }

    /// The retry state this device keeps for population `pop`, if it
    /// serves it.
    fn connectivity(&self, pop: usize, name: &PopulationName) -> Option<&ConnectivityManager> {
        match self {
            Behaviour::Dedicated { mgr, pop: serves } => (*serves == Some(pop)).then_some(mgr),
            Behaviour::Tenant(tenancy) => tenancy.lane(name).map(|lane| &lane.connectivity),
        }
    }

    fn arbitration_losses(&self) -> u64 {
        match self {
            Behaviour::Dedicated { .. } => 0,
            Behaviour::Tenant(tenancy) => tenancy.arbitration_losses(),
        }
    }
}

struct Device {
    behaviour: Behaviour,
    phase: DevPhase,
    /// Wake-chain generation: a `Wake` whose `gen` does not match is
    /// stale (superseded by a later schedule) and dropped — one live
    /// chain per device.
    gen: u32,
}

struct PopRound {
    seq: u64,
    state: RoundState,
    /// When selection opens: rounds are aligned to pace-window boundaries
    /// so steady-state consumption matches the pace target (the paper's
    /// rendezvous cadence) instead of free-running as fast as devices
    /// can report.
    open_at_ms: u64,
    /// Devices forwarded into the round before Configuration fired.
    pending: Vec<u64>,
    /// SecAgg populations aggregate through one fresh subtree per round,
    /// like the live topology; plain populations carry none.
    master: Option<MasterAggregator>,
}

struct Engine<'a> {
    config: &'a ScenarioConfig,
    names: Vec<PopulationName>,
    targets: Vec<usize>,
    budget: Option<GlobalAdmissionBudget>,
    selectors: Vec<Selector>,
    rng: StdRng,
    queue: EventQueue<Event>,
    metrics: OverloadMetrics,
    devices: Vec<Device>,
    rounds: Vec<PopRound>,
    ledgers: Vec<PopulationOutcome>,
    wire: SimWire,
    /// One shared Configuration payload per population (the engine models
    /// flow control, not learning, so every selected device downloads the
    /// same small plan + checkpoint).
    config_msgs: Vec<WireMessage>,
    accepted_total: u64,
    rejected_total: u64,
    max_queue_depth: usize,
    population_estimate_peak: u64,
    violations: Vec<String>,
}

/// Drives one seeded scenario to its horizon and audits the engine-level
/// invariants. See the module docs.
///
/// # Panics
///
/// Panics when `config.populations` is empty.
pub fn run(config: &ScenarioConfig) -> ScenarioOutcome {
    assert!(
        !config.populations.is_empty(),
        "a scenario needs at least one population"
    );
    let mut engine = Engine::new(config);
    while let Some((now, event)) = engine.queue.next_before(config.horizon_ms) {
        engine.handle(now, event);
        engine.drain_round_events();
    }
    engine.drain_after_horizon();
    engine.finish()
}

impl<'a> Engine<'a> {
    fn new(config: &'a ScenarioConfig) -> Self {
        let names: Vec<PopulationName> = config
            .populations
            .iter()
            .map(|p| PopulationName::new(p.name))
            .collect();
        let targets: Vec<usize> = config
            .populations
            .iter()
            .map(|p| p.round.selection_target().max(1))
            .collect();
        let (rng_salt, selector_salt) = config.fleet.salts();

        // The Selector layer comes from the same blueprint the live
        // topology builds from (device id modulo the count); each tenant
        // brings its own quota, set the way `spawn_multi_topology` sets
        // them through `with_route`, so none is registered at the
        // blueprint's uniform one.
        let n = config.selectors.max(1);
        let pace = PaceSteering::new(config.window_ms, targets.iter().sum::<usize>() as u64);
        let mut blueprint = TopologyBlueprint::new(
            (0..n)
                .map(|i| {
                    SelectorSpec::new(
                        pace,
                        config.devices / n,
                        config.seed ^ (selector_salt + i),
                        config.admission.max_inflight,
                    )
                    .with_admission(config.admission)
                    .with_staleness(config.stale_after_ms)
                })
                .collect(),
        );
        if let Some(global) = config.global_admission {
            blueprint = blueprint.with_global_admission(global);
        }
        let budget = blueprint.build_global_budget();
        let mut selectors = blueprint.build_selectors(budget.as_ref(), &[]);
        for selector in &mut selectors {
            for (spec, name) in config.populations.iter().zip(&names) {
                selector.set_population_quota(name.clone(), spec.quota);
            }
        }

        let npop = config.populations.len();
        let mut engine = Engine {
            config,
            targets,
            budget,
            selectors,
            rng: rng::seeded(config.seed ^ rng_salt),
            queue: EventQueue::new(),
            metrics: OverloadMetrics::new(
                OverloadMonitorConfig {
                    bucket_ms: config.window_ms,
                    ..OverloadMonitorConfig::default()
                },
                0,
            ),
            devices: Vec::new(),
            rounds: Vec::with_capacity(npop),
            ledgers: config
                .populations
                .iter()
                .map(|spec| PopulationOutcome {
                    name: spec.name,
                    rounds_started: 1,
                    ..PopulationOutcome::default()
                })
                .collect(),
            wire: SimWire::new(),
            config_msgs: config
                .populations
                .iter()
                .zip(&names)
                .map(|(spec, name)| WireMessage::PlanAndCheckpoint {
                    plan: Box::new(FlPlan::standard_training(
                        ModelSpec::Logistic {
                            dim: 4,
                            classes: 2,
                            seed: 1,
                        },
                        1,
                        8,
                        0.1,
                        CodecSpec::Identity,
                    )),
                    checkpoint: Box::new(FlCheckpoint::new(spec.name, RoundId(1), vec![0.0; 10])),
                    population: name.clone(),
                })
                .collect(),
            names,
            accepted_total: 0,
            rejected_total: 0,
            max_queue_depth: 0,
            population_estimate_peak: 0,
            violations: Vec::new(),
        };

        // Bootstrap: the baseline fleet is already paced — a device is a
        // member of every population whose stride divides its id, and
        // first wakes spread over the shortest population period. Every
        // disturbance is then scheduled in population order; a crowd's
        // newcomers know only their own population and arrive unpaced
        // within one window of its onset.
        let spread = config
            .populations
            .iter()
            .map(|p| p.period_ms)
            .min()
            .unwrap_or(config.window_ms)
            .max(1);
        for d in 0..config.devices {
            let member = |p: &usize| d % config.populations[*p].membership_stride.max(1) == 0;
            let device = engine.device((0..npop).filter(member), false);
            engine.devices.push(device);
            let at = engine.rng.random_range(0..spread);
            engine.schedule_wake(d, at);
        }
        for (p, spec) in config.populations.iter().enumerate() {
            match spec.shape {
                LoadShape::ThunderingHerd { at_ms, fraction } => {
                    engine.queue.schedule_at(at_ms, Event::Herd { pop: p, fraction });
                }
                LoadShape::FlashCrowd { at_ms, newcomers } => {
                    for _ in 0..newcomers {
                        let device = engine.device(std::iter::once(p), true);
                        engine.devices.push(device);
                        let at = at_ms + engine.rng.random_range(0..config.window_ms.max(1));
                        engine.schedule_wake(engine.devices.len() as u64 - 1, at);
                    }
                }
                LoadShape::Steady | LoadShape::DiurnalRamp { .. } => {}
            }
        }
        engine.queue.schedule_at(config.window_ms, Event::WindowSample);
        engine.queue.schedule_at(config.forward_period_ms, Event::Forward);
        for p in 0..npop {
            let first = engine.begin_round(p, 0, 0);
            engine.rounds.push(first);
        }
        engine
    }

    /// A device that knows `pops`.
    fn device(&self, pops: impl Iterator<Item = usize>, newcomer: bool) -> Device {
        let config = self.config;
        let behaviour = match config.fleet {
            Fleet::Dedicated => Behaviour::Dedicated {
                mgr: ConnectivityManager::new(config.retry),
                // Inherited from the overload harness and pinned by its
                // render digests: a dedicated fleet's newcomers draw
                // their arrival times but nothing ever lights them, so
                // the crowd's wakes are dropped.
                pop: pops.last().filter(|_| !newcomer),
            },
            Fleet::Tenancy => {
                let mut tenancy = DeviceTenancy::new();
                for p in pops {
                    let period_ms = config.populations[p].period_ms;
                    tenancy.register(self.names[p].clone(), period_ms, config.retry);
                }
                Behaviour::Tenant(tenancy)
            }
        };
        Device {
            behaviour,
            phase: DevPhase::Idle,
            gen: 0,
        }
    }

    /// Schedules the next wake of a device's chain, superseding any
    /// previous one.
    fn schedule_wake(&mut self, device: u64, at: u64) {
        let dev = &mut self.devices[device as usize];
        dev.gen += 1;
        self.queue.schedule_at(at, Event::Wake { device, gen: dev.gen });
    }

    /// Routes a framed rejection through the device's retry discipline
    /// and resumes its wake chain.
    fn reject(&mut self, device: u64, pop: usize, now: u64, reply: &WireMessage) {
        self.metrics.record_retry_for(&self.names[pop], now);
        let at = self.devices[device as usize].behaviour.on_rejected(
            &self.names[pop],
            now,
            reply,
            &mut self.rng,
        );
        self.schedule_wake(device, at);
    }

    /// Opens population `p`'s round `seq` at `open_at` and arms its
    /// selection timeout.
    fn begin_round(&mut self, p: usize, seq: u64, open_at: u64) -> PopRound {
        let spec = &self.config.populations[p];
        self.queue.schedule_at(
            open_at + spec.round.selection_timeout_ms,
            Event::RoundTick { pop: p, round_seq: seq },
        );
        PopRound {
            seq,
            state: RoundState::begin(RoundId(seq + 1), spec.round, open_at),
            open_at_ms: open_at,
            pending: Vec::new(),
            master: spec.secagg_k.map(|k| {
                MasterAggregator::new(
                    AggregationPlan::with_secagg(SECAGG_DIM, 33, k),
                    CodecSpec::Identity,
                    self.targets[p],
                    self.config.seed.wrapping_add(seq),
                )
            }),
        }
    }

    /// Books population `p`'s round as terminal — shared by the in-loop
    /// `Finished` arm and the post-horizon drain.
    fn finish_round(&mut self, p: usize, at_ms: u64, outcome: &RoundOutcome) {
        let ledger = &mut self.ledgers[p];
        ledger.rounds_terminal += 1;
        if outcome.is_committed() {
            ledger.committed += 1;
        } else {
            ledger.abandoned += 1;
        }
        let Some(master) = self.rounds[p].master.take() else {
            return;
        };
        if outcome.is_committed() {
            // A storm-degraded cohort spreads too thin across the groups:
            // shards below k abort, surviving shards still merge. If
            // nothing survives the aggregate is lost whole.
            match master.finalize(&[0.0; SECAGG_DIM], &[], &[]) {
                Ok(merged) => {
                    ledger.secagg_shard_aborts += merged.shard_aborts as u64;
                    // The telemetry closes at the horizon; a round the
                    // drain resolves after it is counted, not charted.
                    if at_ms <= self.config.horizon_ms {
                        for _ in 0..merged.shard_aborts {
                            self.metrics.record_secagg_abort(at_ms);
                        }
                    }
                }
                Err(_) => ledger.secagg_round_aborts += 1,
            }
        }
    }

    fn handle(&mut self, now: u64, event: Event) {
        let config = self.config;
        let n = config.selectors.max(1);
        match event {
            Event::Wake { device, gen } => {
                let dev = &mut self.devices[device as usize];
                if dev.gen != gen || dev.phase == DevPhase::InRound {
                    return;
                }
                if dev.phase == DevPhase::Held && dev.behaviour.releases_stale_slot() {
                    self.selectors[(device % n) as usize].on_disconnect(DeviceId(device));
                }
                dev.phase = DevPhase::Idle;
                let pop = match dev.behaviour.claim(now, &self.names, &mut self.rng) {
                    Claim::For(pop) => pop,
                    Claim::Later(at) => return self.schedule_wake(device, at),
                    Claim::Never => return,
                };
                // The check-in crosses the wire framed with its
                // population; the Selector acts only on what it decoded.
                let request = WireMessage::CheckinRequest {
                    device: DeviceId(device),
                    population: self.names[pop].clone(),
                };
                let Some(WireMessage::CheckinRequest {
                    device: wired,
                    population: wired_pop,
                }) = self.wire.wire_uplink(now, &request, &mut self.violations)
                else {
                    return;
                };
                let activity = config.populations[pop].shape.activity(now);
                let selector = &mut self.selectors[(wired.0 % n) as usize];
                let decision = selector.on_checkin_for(&wired_pop, wired, now, activity);
                match decision {
                    CheckinDecision::Accept => {
                        // Accepted connections are held open (no reply
                        // frame until the Coordinator forwards them).
                        self.accepted_total += 1;
                        self.metrics.record_accept_for(&wired_pop, now);
                        let dev = &mut self.devices[device as usize];
                        dev.phase = DevPhase::Held;
                        dev.behaviour.on_accepted(&self.names[pop], now);
                        self.max_queue_depth = self.max_queue_depth.max(selector.connected_count());
                        // Fallback wake: if never forwarded, the held
                        // slot goes stale and the chain resumes.
                        let jitter = self.rng.random_range(0..config.window_ms.max(1));
                        self.schedule_wake(device, now + config.stale_after_ms + jitter);
                    }
                    CheckinDecision::Shed { retry_at_ms, .. }
                    | CheckinDecision::Reject { retry_at_ms } => {
                        self.rejected_total += 1;
                        let reply = if let CheckinDecision::Shed { .. } = decision {
                            self.metrics.record_shed_for(&wired_pop, now);
                            WireMessage::Shed {
                                retry_at_ms,
                                population: wired_pop,
                            }
                        } else {
                            WireMessage::ComeBackLater {
                                retry_at_ms,
                                population: wired_pop,
                            }
                        };
                        self.wire.wire_downlink(&reply);
                        self.reject(device, pop, now, &reply);
                    }
                }
            }
            Event::Forward => {
                for p in 0..self.rounds.len() {
                    if self.rounds[p].state.phase() != Phase::Selection
                        || now < self.rounds[p].open_at_ms
                    {
                        continue;
                    }
                    let mut need = self.targets[p].saturating_sub(self.rounds[p].pending.len());
                    // Drain Selectors in index order until the target is
                    // met. Forwarding is population-filtered: tenants
                    // never receive each other's devices.
                    for s in 0..self.selectors.len() {
                        if need == 0 {
                            break;
                        }
                        let forwarded =
                            self.selectors[s].forward_devices_for(&self.names[p], need, now);
                        need = need.saturating_sub(forwarded.len());
                        for d in forwarded {
                            match self.rounds[p].state.on_checkin(d, now) {
                                CheckinResponse::Selected => {
                                    // The Configuration download crosses
                                    // the wire too, so per-round traffic
                                    // is measured from real frames.
                                    self.wire.wire_downlink(&self.config_msgs[p]);
                                    self.devices[d.0 as usize].phase = DevPhase::InRound;
                                    self.rounds[p].pending.push(d.0);
                                }
                                CheckinResponse::AlreadySelected => {}
                                CheckinResponse::NotSelecting => {
                                    let reply = WireMessage::ComeBackLater {
                                        retry_at_ms: now,
                                        population: self.names[p].clone(),
                                    };
                                    self.wire.wire_downlink(&reply);
                                    self.devices[d.0 as usize].phase = DevPhase::Idle;
                                    self.reject(d.0, p, now, &reply);
                                }
                            }
                        }
                    }
                }
                if now + config.forward_period_ms <= config.horizon_ms {
                    self.queue.schedule_in(config.forward_period_ms, Event::Forward);
                }
            }
            Event::Report { device, pop, round_seq } => {
                self.devices[device as usize].phase = DevPhase::Idle;
                // Payload fields are deterministic per device, so frame
                // bytes replay identically; the server acts on the
                // decoded device id and always answers with a framed ack.
                let weight = 1 + device % 7;
                let loss = 0.9 - (device % 10) as f64 * 0.02;
                let accuracy = 0.5 + (device % 10) as f64 * 0.03;
                let round = self.rounds[pop].state.round;
                // SecAgg upload: the fixed-point field vector, 8 bytes
                // per coordinate on the measured wire. The engine models
                // flow control, not learning, so a plain report carries
                // an empty update.
                let secagg = config.populations[pop].secagg_k.is_some();
                let update = [0.1 + (device % 5) as f32 * 0.01; SECAGG_DIM];
                let Ok(report) = report_frame(
                    DeviceId(device),
                    &self.names[pop],
                    (round, 1),
                    if secagg { &update } else { &[] },
                    secagg,
                    (weight, loss, accuracy),
                ) else {
                    self.violations
                        .push(format!("t={now}: fixed-point encode failed"));
                    return;
                };
                let (wired, field) = match self.wire.wire_uplink(now, &report, &mut self.violations)
                {
                    Some(WireMessage::UpdateReport { device, .. }) => (device, None),
                    Some(WireMessage::SecAggReport {
                        device,
                        field_vector,
                        weight,
                        ..
                    }) => (device, Some((field_vector, weight))),
                    _ => return,
                };
                let accepted = round_seq == self.rounds[pop].seq;
                if accepted {
                    let active = &mut self.rounds[pop];
                    let _ = active.state.on_report(wired, now);
                    if let (Some(master), Some((field, weight))) = (active.master.as_mut(), field) {
                        // Drop-not-crash: a malformed contribution costs
                        // only itself.
                        let _ = master.accept_field(wired, &field, weight);
                    }
                }
                let ack = WireMessage::ReportAck {
                    accepted,
                    round,
                    attempt: 1,
                    population: self.names[pop].clone(),
                };
                self.wire.wire_downlink(&ack);
                let resume = self.devices[device as usize].behaviour.on_report_acked(
                    &self.names[pop],
                    now,
                    accepted,
                    config.populations[pop].period_ms,
                    &mut self.rng,
                );
                match resume {
                    Some(at) => self.schedule_wake(device, at),
                    // A refusing ack (the round moved on) charges only
                    // the refused population's lane.
                    None => self.reject(device, pop, now, &ack),
                }
            }
            Event::RoundTick { pop, round_seq } => {
                if round_seq != self.rounds[pop].seq {
                    return;
                }
                self.rounds[pop].state.on_tick(now);
                let round = &config.populations[pop].round;
                match self.rounds[pop].state.phase() {
                    Phase::Reporting => self.queue.schedule_in(
                        round.report_window_ms.min(10_000),
                        Event::RoundTick { pop, round_seq },
                    ),
                    Phase::Selection => self.queue.schedule_in(
                        round.selection_timeout_ms,
                        Event::RoundTick { pop, round_seq },
                    ),
                    _ => {}
                }
            }
            Event::WindowSample => {
                for s in self.selectors.iter_mut() {
                    s.evict_stale(now);
                    self.max_queue_depth = self.max_queue_depth.max(s.connected_count());
                }
                self.population_estimate_peak =
                    self.population_estimate_peak.max(self.population_estimate());
                if now + config.window_ms <= config.horizon_ms {
                    self.queue.schedule_in(config.window_ms, Event::WindowSample);
                }
            }
            Event::Herd { pop, fraction } => {
                for d in 0..self.devices.len() as u64 {
                    let dev = &self.devices[d as usize];
                    if dev.behaviour.connectivity(pop, &self.names[pop]).is_some()
                        && dev.phase == DevPhase::Idle
                        && self.rng.random_range(0..1_000_000u64) < (fraction * 1e6) as u64
                    {
                        self.schedule_wake(d, now);
                    }
                }
            }
        }
    }

    fn population_estimate(&self) -> u64 {
        self.selectors
            .iter()
            .map(|s| s.pace_controller().population_estimate())
            .sum()
    }

    /// Acts on what the round machines emitted while handling one event.
    fn drain_round_events(&mut self) {
        let config = self.config;
        for p in 0..self.rounds.len() {
            for round_event in self.rounds[p].state.drain_events() {
                match round_event {
                    RoundEvent::Configured { at_ms, .. } => {
                        // Every participant trains, then uploads within
                        // the device cap.
                        let seq = self.rounds[p].seq;
                        for d in std::mem::take(&mut self.rounds[p].pending) {
                            let latency = 10_000 + self.rng.random_range(0..30_000u64);
                            self.queue.schedule_at(
                                at_ms + latency,
                                Event::Report { device: d, pop: p, round_seq: seq },
                            );
                        }
                        self.queue
                            .schedule_in(10_000, Event::RoundTick { pop: p, round_seq: seq });
                    }
                    RoundEvent::Finished { at_ms, outcome } => {
                        self.finish_round(p, at_ms, &outcome);
                        if let RoundOutcome::AbandonedInSelection { .. } = outcome {
                            // Forwarded-but-unconfigured devices retry
                            // through their own lane.
                            let reply = WireMessage::ComeBackLater {
                                retry_at_ms: at_ms,
                                population: self.names[p].clone(),
                            };
                            for d in std::mem::take(&mut self.rounds[p].pending) {
                                self.devices[d as usize].phase = DevPhase::Idle;
                                self.reject(d, p, at_ms, &reply);
                            }
                        }
                        // The next round opens at the next pace-window
                        // boundary.
                        self.ledgers[p].rounds_started += 1;
                        let open_at = (at_ms / config.window_ms + 1) * config.window_ms;
                        let seq = self.rounds[p].seq + 1;
                        self.rounds[p] = self.begin_round(p, seq, open_at);
                    }
                }
            }
        }
    }

    /// Every population's last round must still reach a terminal state:
    /// ticking past every window forces the state machine to resolve
    /// (commit on what it has, or abandon cleanly).
    fn drain_after_horizon(&mut self) {
        for p in 0..self.rounds.len() {
            let round = &self.config.populations[p].round;
            let mut drain_t = self.config.horizon_ms;
            for _ in 0..4 {
                if self.rounds[p].state.phase().is_terminal() {
                    break;
                }
                drain_t += round.selection_timeout_ms
                    + round.report_window_ms
                    + round.device_cap_ms
                    + 1;
                self.rounds[p].state.on_tick(drain_t);
                for round_event in self.rounds[p].state.drain_events() {
                    if let RoundEvent::Finished { outcome, .. } = round_event {
                        self.finish_round(p, drain_t, &outcome);
                    }
                }
            }
        }
    }

    fn finish(mut self) -> ScenarioOutcome {
        self.metrics.finalize(self.config.horizon_ms);
        for (p, ledger) in self.ledgers.iter_mut().enumerate() {
            let name = &self.names[p];
            let (accepted, rejected) = self
                .selectors
                .iter()
                .map(|s| s.counters_for(name))
                .fold((0, 0), |(a, r), (sa, sr)| (a + sa, r + sr));
            ledger.offered = accepted + rejected;
            ledger.accepted = accepted;
            ledger.shed = self.selectors.iter().map(|s| s.shed_total_for(name)).sum();
            ledger.rejected_other = rejected.saturating_sub(ledger.shed);
            if let Some(budget) = &self.budget {
                ledger.budget_admits = budget.admitted_total_for(name);
                ledger.budget_sheds = budget.shed_total_for(name);
            }
            for mgr in self
                .devices
                .iter()
                .filter_map(|d| d.behaviour.connectivity(p, name))
            {
                ledger.retries += mgr.retries_total();
                ledger.budget_exhaustions += u64::from(mgr.budget_exhaustions_total() > 0);
            }
        }

        // Conservation: the Selectors' per-population ledgers must sum
        // exactly to the decisions this harness saw them hand out — the
        // multi-tenant bookkeeping loses no check-in.
        let accepted_by_pop: u64 = self.ledgers.iter().map(|o| o.accepted).sum();
        let rejected_by_pop: u64 = self.ledgers.iter().map(|o| o.offered - o.accepted).sum();
        if accepted_by_pop != self.accepted_total {
            self.violations.push(format!(
                "per-population accepts {accepted_by_pop} != aggregate {}",
                self.accepted_total
            ));
        }
        if rejected_by_pop != self.rejected_total {
            self.violations.push(format!(
                "per-population rejects {rejected_by_pop} != aggregate {}",
                self.rejected_total
            ));
        }
        if self.max_queue_depth > self.config.admission.max_inflight {
            self.violations.push(format!(
                "queue depth {} exceeded bound {}",
                self.max_queue_depth, self.config.admission.max_inflight
            ));
        }

        let population_estimate_final = self.population_estimate();
        ScenarioOutcome {
            populations: self.ledgers,
            accepted_total: self.accepted_total,
            rejected_total: self.rejected_total,
            arbitration_losses: self
                .devices
                .iter()
                .map(|d| d.behaviour.arbitration_losses())
                .sum(),
            evicted: self.selectors.iter().map(|s| s.evicted_total()).sum(),
            max_queue_depth: self.max_queue_depth,
            population_estimate_final,
            population_estimate_peak: self.population_estimate_peak.max(population_estimate_final),
            metrics: self.metrics,
            wire: self.wire.stats(),
            violations: self.violations,
        }
    }
}
