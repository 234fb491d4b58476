//! Multi-population (multi-tenant) scenarios: several FL populations
//! sharing one device fleet and one Selector layer.
//!
//! The paper's multi-tenancy story has two halves. On the device
//! (Sec. 3): "Our implementation provides a multi-tenant architecture,
//! supporting training of multiple FL populations in the same app" while
//! "we avoid running training sessions on-device in parallel because of
//! their high resource consumption" — modeled here by the real
//! [`DeviceTenancy`] arbitrating a single active session across
//! per-population lanes. On the server (Sec. 2.1/4.2): each population
//! is a separate learning problem with its own Coordinator and rounds,
//! multiplexed over a shared Selector layer that holds each population
//! against its own quota and admits against a shared fleet-wide budget
//! with per-population fair-share reservations
//! ([`GlobalAdmissionBudget::try_admit_for`]).
//!
//! The scenario this module exists to audit is *cross-population
//! fairness under asymmetric load*: one population takes a flash crowd
//! (a feature launch for one learning problem) while the others tick
//! along at their steady cadence. The invariants:
//!
//! * every population keeps committing rounds — a storm in one tenant
//!   must not starve another's accepts or commits;
//! * the Selectors' per-population accept/reject ledgers sum exactly to
//!   the decisions the harness saw handed out (the multi-tenant
//!   bookkeeping conserves check-ins);
//! * the held-connection queue stays under its configured bound;
//! * every round that starts reaches a terminal state, in every
//!   population — no wedged rounds anywhere in the tree;
//! * reports render byte-identically per seed (the chaos-harness
//!   idiom), so a failing seed is a replayable bug report.
//!
//! With a single population and no disturbance the harness degenerates
//! to the single-tenant shape: the per-population series *are* the
//! aggregate (asserted by the conservation invariant) — the same one
//! path every single-population harness and the live tree run.

use crate::des::EventQueue;
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, FlCheckpoint, FlPlan, PopulationName, RetryPolicy, RoundId};
use fl_device::conditions::DeviceConditions;
use fl_device::tenancy::DeviceTenancy;
use fl_ml::rng;
use fl_server::pace::PaceSteering;
use fl_server::round::{CheckinResponse, Phase, RoundEvent, RoundState};
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionBudget, GlobalAdmissionConfig};
use fl_server::topology::{SelectorSpec, TopologyBlueprint};
use fl_server::wire::{ChannelTransport, Transport, WireMessage, WireStats};
use rand::Rng;

/// A flash crowd aimed at one population: `newcomers` devices that know
/// only this population appear at `at_ms` and check in unpaced within
/// one pace window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCrowd {
    /// When the crowd arrives.
    pub at_ms: u64,
    /// How many single-population newcomer devices it brings.
    pub newcomers: u64,
}

/// One population (one learning problem) sharing the fleet.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Wire-visible population name.
    pub name: &'static str,
    /// Device-side job cadence for this population's lane (ms).
    pub period_ms: u64,
    /// Round configuration of this population's Coordinator.
    pub round: RoundConfig,
    /// Per-Selector held-connection quota for this population.
    pub quota: usize,
    /// Baseline device `i` registers this population iff
    /// `i % membership_stride == 0` (stride 1 = the whole fleet).
    pub membership_stride: u64,
    /// The disturbance, if this is the stormy tenant.
    pub flash: Option<FlashCrowd>,
}

impl PopulationSpec {
    fn population(&self) -> PopulationName {
        PopulationName::new(self.name)
    }
}

/// Multi-tenant simulation parameters.
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// Baseline fleet size (newcomers from flash crowds come on top).
    pub devices: u64,
    /// Simulated duration (ms).
    pub horizon_ms: u64,
    /// Pace window = metric bucket width (ms).
    pub window_ms: u64,
    /// How often each population's Coordinator asks for forwards.
    pub forward_period_ms: u64,
    /// How many Selectors the load fans across (device id modulo).
    pub selectors: u64,
    /// Per-Selector local admission control (population-blind capacity
    /// protection; the per-population fairness lives in the quotas and
    /// the global budget).
    pub admission: AdmissionConfig,
    /// Shared fleet-wide budget with per-population fair-share
    /// reservations; `None` leaves admission local + quota only.
    pub global_admission: Option<GlobalAdmissionConfig>,
    /// Selector staleness TTL for held connections (ms).
    pub stale_after_ms: u64,
    /// Device retry discipline (per population lane).
    pub retry: RetryPolicy,
    /// Master seed.
    pub seed: u64,
    /// The tenants.
    pub populations: Vec<PopulationSpec>,
}

impl MultiTenantConfig {
    /// The acceptance scenario: three tenants on a 4 000-device fleet —
    /// a fleet-wide steady population, a half-fleet population that takes
    /// a 12 000-newcomer flash crowd at window 10, and a quarter-fleet
    /// auxiliary population — under a shared fair-share budget. The
    /// storm must shed/defer in its own lane while the other two keep
    /// committing.
    pub fn flash_vs_steady(seed: u64) -> Self {
        let round = |goal: usize| RoundConfig {
            goal_count: goal,
            overselection: 1.3,
            min_goal_fraction: 0.6,
            selection_timeout_ms: 60_000,
            report_window_ms: 60_000,
            device_cap_ms: 60_000,
        };
        MultiTenantConfig {
            devices: 4_000,
            horizon_ms: 30 * 60_000,
            window_ms: 60_000,
            forward_period_ms: 15_000,
            selectors: 1,
            admission: AdmissionConfig {
                accepts_per_sec: 200.0,
                burst: 400,
                max_inflight: 800,
            },
            // Fair share = 540 / 3 = 180 admits per window per tenant:
            // above the steady tenant's ~133/window demand (so fairness
            // costs it nothing) and far below what the storm wants.
            global_admission: Some(GlobalAdmissionConfig {
                window_ms: 60_000,
                max_admits_per_window: 540,
            }),
            stale_after_ms: 180_000,
            retry: RetryPolicy {
                base_delay_ms: 30_000,
                multiplier: 2.0,
                max_delay_ms: 600_000,
                jitter_frac: 0.5,
                budget_per_window: 30,
                budget_window_ms: 600_000,
            },
            seed,
            populations: vec![
                PopulationSpec {
                    name: "multi/steady",
                    period_ms: 1_800_000,
                    round: round(100),
                    quota: 260,
                    membership_stride: 1,
                    flash: None,
                },
                PopulationSpec {
                    name: "multi/flash",
                    period_ms: 1_800_000,
                    round: round(50),
                    // A quota well above the storm's fair share, so the
                    // *budget* is what visibly caps the crowd.
                    quota: 400,
                    membership_stride: 2,
                    flash: Some(FlashCrowd {
                        at_ms: 600_000,
                        newcomers: 12_000,
                    }),
                },
                PopulationSpec {
                    name: "multi/aux",
                    period_ms: 1_800_000,
                    round: round(25),
                    quota: 70,
                    membership_stride: 4,
                    flash: None,
                },
            ],
        }
    }

    /// The same tenants with every disturbance removed — the fairness
    /// baseline a stormy run is compared against.
    pub fn without_flash(mut self) -> Self {
        for spec in &mut self.populations {
            spec.flash = None;
        }
        self
    }

    /// A single steady population — the n=1 degenerate case whose
    /// per-population series must equal the aggregate exactly.
    pub fn single(seed: u64) -> Self {
        let mut config = MultiTenantConfig::flash_vs_steady(seed);
        config.populations.truncate(1);
        config
    }

    /// Total device slots including every flash crowd's newcomers.
    fn total_devices(&self) -> u64 {
        self.devices
            + self
                .populations
                .iter()
                .filter_map(|p| p.flash.map(|f| f.newcomers))
                .sum::<u64>()
    }
}

/// One population's share of a [`MultiTenantReport`].
#[derive(Debug, Clone)]
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
    /// Device-side retries recorded on this population's lanes.
    pub retries: u64,
    /// Lanes that exhausted a retry-budget window at least once.
    pub budget_exhaustions: u64,
    /// Rounds begun by this population's Coordinator.
    pub rounds_started: u64,
    /// Rounds that reached a terminal state.
    pub rounds_terminal: u64,
    /// Rounds committed.
    pub committed: u64,
    /// Rounds abandoned (cleanly).
    pub abandoned: u64,
}

/// Outcome of one multi-tenant run: per-population outcomes in spec
/// order, fleet-level counters, and the fairness/soundness audit.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// The master seed.
    pub seed: u64,
    /// Per-population outcomes, in spec order.
    pub populations: Vec<PopulationOutcome>,
    /// Aggregate accepted check-ins across every population.
    pub accepted_total: u64,
    /// Aggregate rejected check-ins across every population.
    pub rejected_total: u64,
    /// Times a due population lost the on-device single-session
    /// arbitration and was deferred through its own backoff.
    pub arbitration_losses: u64,
    /// Deepest the shared held-connection queue ever got.
    pub max_queue_depth: usize,
    /// The configured bound it must stay under.
    pub queue_bound: usize,
    /// Bytes-on-wire counters from the device end: every check-in and
    /// report crosses the in-memory wire as a framed v3 message carrying
    /// its population.
    pub wire: WireStats,
    /// The per-population accept/shed/retry dashboard panel
    /// ([`OverloadMetrics::render_population_panel`]), captured at the
    /// horizon — deterministic per seed like everything else here.
    pub telemetry_panel: String,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl MultiTenantReport {
    /// Whether every multi-tenant invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The outcome of the named population, if it ran.
    pub fn outcome(&self, name: &str) -> Option<&PopulationOutcome> {
        self.populations.iter().find(|p| p.name == name)
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seed={} populations={}\n\
             accepted_total={} rejected_total={} arbitration_losses={}\n\
             max_queue_depth={} queue_bound={}\n\
             wire up_frames={} up_bytes={} down_frames={} down_bytes={}\n",
            self.seed,
            self.populations.len(),
            self.accepted_total,
            self.rejected_total,
            self.arbitration_losses,
            self.max_queue_depth,
            self.queue_bound,
            self.wire.frames_sent,
            self.wire.bytes_sent,
            self.wire.frames_received,
            self.wire.bytes_received,
        );
        for p in &self.populations {
            out.push_str(&format!(
                "pop {} offered={} accepted={} shed={} rejected_other={} \
                 budget_admits={} budget_sheds={} retries={} exhaustions={} \
                 rounds={}:{} committed={} abandoned={}\n",
                p.name,
                p.offered,
                p.accepted,
                p.shed,
                p.rejected_other,
                p.budget_admits,
                p.budget_sheds,
                p.retries,
                p.budget_exhaustions,
                p.rounds_started,
                p.rounds_terminal,
                p.committed,
                p.abandoned,
            ));
        }
        out.push_str(&self.telemetry_panel);
        out.push_str(&format!("violations={}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str("violation: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// The fixed seed set swept by `scripts/check.sh` and the tier-1
/// multi-tenant tests.
pub fn default_seeds() -> Vec<u64> {
    vec![7, 19, 41]
}

/// Runs [`run_multi_tenant`] for one config constructor over a seed set.
pub fn sweep(
    seeds: &[u64],
    make: impl Fn(u64) -> MultiTenantConfig,
) -> Vec<MultiTenantReport> {
    seeds.iter().map(|&s| run_multi_tenant(&make(s))).collect()
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A device's wake chain fires: resolve a stale held slot, then try
    /// to start whichever population's session the tenancy arbitrates.
    Wake { device: u64, gen: u32 },
    /// Every population's Coordinator asks its Selector slice for
    /// forwards.
    Forward,
    /// A selected device finishes training + upload for `pop`.
    Report { device: u64, pop: usize, round_seq: u64 },
    /// Round phase timeout check for `pop`.
    RoundTick { pop: usize, round_seq: u64 },
    /// Per-window staleness eviction + queue-depth sampling.
    WindowSample,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DevPhase {
    /// Not connected; the wake chain is pending.
    Idle,
    /// Held in a Selector's queue for population `pop`.
    Held { pop: usize },
    /// Forwarded into `pop`'s active round; awaiting report.
    InRound { pop: usize },
}

struct Device {
    tenancy: DeviceTenancy,
    phase: DevPhase,
    /// Wake-chain generation: a `Wake` whose `gen` does not match is
    /// stale (superseded) and dropped — one live chain per device.
    gen: u32,
}

struct PopRound {
    seq: u64,
    state: RoundState,
    /// Rounds open at pace-window boundaries (the rendezvous cadence).
    open_at_ms: u64,
    /// Devices forwarded before Configuration fired.
    pending: Vec<u64>,
}

struct PopCounters {
    rounds_started: u64,
    rounds_terminal: u64,
    committed: u64,
    abandoned: u64,
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

/// Drives one seeded multi-population scenario against the real
/// Selector/round/tenancy stack and audits the fairness invariants. See
/// the module docs.
pub fn run_multi_tenant(config: &MultiTenantConfig) -> MultiTenantReport {
    assert!(
        !config.populations.is_empty(),
        "a multi-tenant run needs at least one population"
    );
    let npop = config.populations.len();
    let names: Vec<PopulationName> =
        config.populations.iter().map(|p| p.population()).collect();
    let targets: Vec<usize> = config
        .populations
        .iter()
        .map(|p| p.round.selection_target().max(1))
        .collect();
    let total_target: u64 = targets.iter().map(|&t| t as u64).sum();
    let total = config.total_devices();

    // The Selector layer comes from the same blueprint the live
    // multi-tenant topology builds from; per-population quotas are set
    // the way `spawn_multi_topology` sets them through `with_route`.
    let n = config.selectors.max(1);
    let pace = PaceSteering::new(config.window_ms, total_target.max(1));
    let mut blueprint = TopologyBlueprint::new(
        (0..n)
            .map(|i| {
                SelectorSpec::new(
                    pace,
                    config.devices / n,
                    config.seed ^ (0x7E2 + i),
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
    let budget: Option<GlobalAdmissionBudget> = blueprint.build_global_budget();
    // Each tenant brings its own quota, so none is registered at the
    // blueprint's uniform one.
    let mut selectors: Vec<Selector> = blueprint.build_selectors(budget.as_ref(), &[]);
    for selector in &mut selectors {
        for (spec, name) in config.populations.iter().zip(&names) {
            selector.set_population_quota(name.clone(), spec.quota);
        }
    }

    let mut rng = rng::seeded(config.seed ^ 0x3A9);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut metrics = OverloadMetrics::new(
        OverloadMonitorConfig {
            bucket_ms: config.window_ms,
            ..OverloadMonitorConfig::default()
        },
        0,
    );

    // Baseline devices register every population whose stride divides
    // their id; flash newcomers know only their own population.
    let mut devices: Vec<Device> = Vec::with_capacity(total as usize);
    for i in 0..config.devices {
        let mut tenancy = DeviceTenancy::new();
        for (spec, name) in config.populations.iter().zip(&names) {
            if i % spec.membership_stride.max(1) == 0 {
                tenancy.register(name.clone(), spec.period_ms, config.retry);
            }
        }
        devices.push(Device {
            tenancy,
            phase: DevPhase::Idle,
            gen: 0,
        });
    }
    let mut newcomer_base = config.devices;
    let mut newcomer_ranges: Vec<(usize, u64, u64)> = Vec::new();
    for (p, (spec, name)) in config.populations.iter().zip(&names).enumerate() {
        if let Some(flash) = spec.flash {
            for _ in 0..flash.newcomers {
                let mut tenancy = DeviceTenancy::new();
                tenancy.register(name.clone(), spec.period_ms, config.retry);
                devices.push(Device {
                    tenancy,
                    phase: DevPhase::Idle,
                    gen: 0,
                });
            }
            newcomer_ranges.push((p, newcomer_base, newcomer_base + flash.newcomers));
            newcomer_base += flash.newcomers;
        }
    }

    // Bootstrap: the baseline fleet's first wakes spread over the
    // shortest lane period (steady-state pacing from t=0); newcomers
    // arrive unpaced within one window of their crowd's onset.
    let spread = config
        .populations
        .iter()
        .map(|p| p.period_ms)
        .min()
        .unwrap_or(config.window_ms)
        .max(1);
    for d in 0..config.devices {
        let at = rng.random_range(0..spread);
        devices[d as usize].gen += 1;
        let gen = devices[d as usize].gen;
        queue.schedule_at(at, Event::Wake { device: d, gen });
    }
    for &(p, lo, hi) in &newcomer_ranges {
        let at_ms = match config.populations[p].flash {
            Some(flash) => flash.at_ms,
            None => continue,
        };
        for d in lo..hi {
            let at = at_ms + rng.random_range(0..config.window_ms.max(1));
            devices[d as usize].gen += 1;
            let gen = devices[d as usize].gen;
            queue.schedule_at(at, Event::Wake { device: d, gen });
        }
    }
    queue.schedule_at(config.window_ms, Event::WindowSample);
    queue.schedule_at(config.forward_period_ms, Event::Forward);

    let mut rounds: Vec<PopRound> = (0..npop)
        .map(|p| PopRound {
            seq: 0,
            state: RoundState::begin(RoundId(1), config.populations[p].round, 0),
            open_at_ms: 0,
            pending: Vec::new(),
        })
        .collect();
    let mut counters: Vec<PopCounters> = (0..npop)
        .map(|_| PopCounters {
            rounds_started: 1,
            rounds_terminal: 0,
            committed: 0,
            abandoned: 0,
        })
        .collect();
    for (p, spec) in config.populations.iter().enumerate() {
        queue.schedule_at(
            spec.round.selection_timeout_ms,
            Event::RoundTick { pop: p, round_seq: 0 },
        );
    }

    let mut max_queue_depth: usize = 0;
    // Every admission decision handed out, counted where it is seen —
    // the independent side of the conservation check below.
    let (mut accepted_total, mut rejected_total) = (0u64, 0u64);
    let mut violations: Vec<String> = Vec::new();

    // The in-memory wire: every check-in and report crosses it as a
    // framed v3 `WireMessage` carrying its population, every rejection /
    // configuration / ack comes back framed — the same protocol the
    // live multi-tenant topology speaks.
    let (device_wire, server_wire) = ChannelTransport::pair();
    // One shared Configuration payload per population (this harness
    // models flow control, not learning).
    let config_msgs: Vec<WireMessage> = config
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
        .collect();

    macro_rules! wire_uplink {
        ($now:expr, $msg:expr) => {{
            if device_wire.send($msg).is_err() {
                violations.push(format!("t={}: wire uplink send failed", $now));
                None
            } else {
                match server_wire.try_recv() {
                    Ok(Some(decoded)) => Some(decoded),
                    _ => {
                        violations.push(format!("t={}: frame lost on the uplink", $now));
                        None
                    }
                }
            }
        }};
    }

    macro_rules! wire_downlink {
        ($msg:expr) => {{
            let _ = server_wire.send($msg);
            while let Ok(Some(_)) = device_wire.try_recv() {}
        }};
    }

    macro_rules! schedule_wake {
        ($dev:expr, $at:expr) => {{
            let d = &mut devices[$dev as usize];
            d.gen += 1;
            let gen = d.gen;
            queue.schedule_at($at, Event::Wake { device: $dev, gen });
        }};
    }

    // Routes a framed rejection/refusal through the device's own
    // population lane (its backoff + budget), finishes the session, and
    // resumes the wake chain at whatever lane comes due first.
    macro_rules! handle_rejection {
        ($dev:expr, $pop:expr, $now:expr, $reply:expr) => {{
            metrics.record_retry_for(&names[$pop], $now);
            let _ = devices[$dev as usize]
                .tenancy
                .on_server_reply(&names[$pop], $now, $reply, &mut rng);
            devices[$dev as usize].tenancy.finish_session();
            let at = next_wake_ms(&devices[$dev as usize].tenancy, $now);
            schedule_wake!($dev, at);
        }};
    }

    while let Some((now, event)) = queue.next_before(config.horizon_ms) {
        match event {
            Event::Wake { device, gen } => {
                if devices[device as usize].gen != gen {
                    continue;
                }
                match devices[device as usize].phase {
                    DevPhase::InRound { .. } => continue,
                    DevPhase::Held { .. } => {
                        // The fallback wake fired while still held: the
                        // slot went stale without a forward. Give the
                        // connection up and let the lane's cadence carry
                        // the next attempt.
                        selectors[(device % n) as usize].on_disconnect(DeviceId(device));
                        devices[device as usize].tenancy.finish_session();
                        devices[device as usize].phase = DevPhase::Idle;
                    }
                    DevPhase::Idle => {}
                }
                let winner = devices[device as usize].tenancy.start_session(
                    now,
                    DeviceConditions::eligible(),
                    &mut rng,
                );
                let Some(winner) = winner else {
                    let at = next_wake_ms(&devices[device as usize].tenancy, now);
                    schedule_wake!(device, at);
                    continue;
                };
                let pop = match names.iter().position(|name| *name == winner) {
                    Some(pop) => pop,
                    None => {
                        violations.push(format!("t={now}: unknown winner population"));
                        devices[device as usize].tenancy.finish_session();
                        continue;
                    }
                };
                // The check-in crosses the wire framed with its
                // population; the Selector acts only on what it decoded.
                let Some(WireMessage::CheckinRequest {
                    device: wired,
                    population: wired_pop,
                }) = wire_uplink!(
                    now,
                    &WireMessage::CheckinRequest {
                        device: DeviceId(device),
                        population: names[pop].clone(),
                    }
                )
                else {
                    devices[device as usize].tenancy.finish_session();
                    continue;
                };
                let selector = &mut selectors[(wired.0 % n) as usize];
                let decision = selector.on_checkin_for(&wired_pop, wired, now, 1.0);
                match decision {
                    CheckinDecision::Accept => {
                        accepted_total += 1;
                        metrics.record_accept_for(&wired_pop, now);
                        devices[device as usize].phase = DevPhase::Held { pop };
                        devices[device as usize].tenancy.on_success(&names[pop], now);
                        max_queue_depth = max_queue_depth.max(selector.connected_count());
                        // Fallback wake: if never forwarded, the held
                        // slot goes stale and the chain resumes.
                        let jitter = rng.random_range(0..config.window_ms.max(1));
                        schedule_wake!(device, now + config.stale_after_ms + jitter);
                    }
                    CheckinDecision::Shed { retry_at_ms, .. }
                    | CheckinDecision::Reject { retry_at_ms } => {
                        rejected_total += 1;
                        let reply = if let CheckinDecision::Shed { .. } = decision {
                            metrics.record_shed_for(&wired_pop, now);
                            WireMessage::Shed {
                                retry_at_ms,
                                population: wired_pop.clone(),
                            }
                        } else {
                            WireMessage::ComeBackLater {
                                retry_at_ms,
                                population: wired_pop.clone(),
                            }
                        };
                        wire_downlink!(&reply);
                        handle_rejection!(device, pop, now, &reply);
                    }
                }
            }
            Event::Forward => {
                for p in 0..npop {
                    if rounds[p].state.phase() != Phase::Selection
                        || now < rounds[p].open_at_ms
                    {
                        continue;
                    }
                    let have = rounds[p].pending.len();
                    let mut need = targets[p].saturating_sub(have);
                    for s in 0..selectors.len() {
                        if need == 0 {
                            break;
                        }
                        // Population-filtered forwarding: tenants never
                        // receive each other's devices.
                        let forwarded = selectors[s].forward_devices_for(&names[p], need, now);
                        need = need.saturating_sub(forwarded.len());
                        for d in forwarded {
                            match rounds[p].state.on_checkin(d, now) {
                                CheckinResponse::Selected => {
                                    wire_downlink!(&config_msgs[p]);
                                    devices[d.0 as usize].phase = DevPhase::InRound { pop: p };
                                    rounds[p].pending.push(d.0);
                                }
                                CheckinResponse::AlreadySelected => {}
                                CheckinResponse::NotSelecting => {
                                    let reply = WireMessage::ComeBackLater {
                                        retry_at_ms: now,
                                        population: names[p].clone(),
                                    };
                                    wire_downlink!(&reply);
                                    devices[d.0 as usize].phase = DevPhase::Idle;
                                    handle_rejection!(d.0, p, now, &reply);
                                }
                            }
                        }
                    }
                }
                if now + config.forward_period_ms <= config.horizon_ms {
                    queue.schedule_in(config.forward_period_ms, Event::Forward);
                }
            }
            Event::Report { device, pop, round_seq } => {
                devices[device as usize].phase = DevPhase::Idle;
                let weight = 1 + device % 7;
                let loss = 0.9 - (device % 10) as f64 * 0.02;
                let accuracy = 0.5 + (device % 10) as f64 * 0.03;
                let round_key = rounds[pop].state.round;
                let report_msg = WireMessage::UpdateReport {
                    device: DeviceId(device),
                    round: round_key,
                    attempt: 1,
                    update_bytes: vec![0u8; 4],
                    weight,
                    loss,
                    accuracy,
                    population: names[pop].clone(),
                };
                let Some(WireMessage::UpdateReport { device: wired, .. }) =
                    wire_uplink!(now, &report_msg)
                else {
                    devices[device as usize].tenancy.finish_session();
                    continue;
                };
                let accepted = round_seq == rounds[pop].seq;
                if accepted {
                    let _ = rounds[pop].state.on_report(wired, now);
                }
                let ack = WireMessage::ReportAck {
                    accepted,
                    round: round_key,
                    attempt: 1,
                    population: names[pop].clone(),
                };
                wire_downlink!(&ack);
                if accepted {
                    devices[device as usize].tenancy.on_success(&names[pop], now);
                    devices[device as usize].tenancy.finish_session();
                    let at = next_wake_ms(&devices[device as usize].tenancy, now);
                    schedule_wake!(device, at);
                } else {
                    // A refusing ack (the round moved on) charges only
                    // this population's lane.
                    handle_rejection!(device, pop, now, &ack);
                }
            }
            Event::RoundTick { pop, round_seq } => {
                if round_seq == rounds[pop].seq {
                    rounds[pop].state.on_tick(now);
                    match rounds[pop].state.phase() {
                        Phase::Reporting => queue.schedule_in(
                            config.populations[pop].round.report_window_ms.min(10_000),
                            Event::RoundTick { pop, round_seq },
                        ),
                        Phase::Selection => queue.schedule_in(
                            config.populations[pop].round.selection_timeout_ms,
                            Event::RoundTick { pop, round_seq },
                        ),
                        _ => {}
                    }
                }
            }
            Event::WindowSample => {
                for s in selectors.iter_mut() {
                    s.evict_stale(now);
                    max_queue_depth = max_queue_depth.max(s.connected_count());
                }
                if now + config.window_ms <= config.horizon_ms {
                    queue.schedule_in(config.window_ms, Event::WindowSample);
                }
            }
        }

        for p in 0..npop {
            for round_event in rounds[p].state.drain_events() {
                match round_event {
                    RoundEvent::Configured { at_ms, .. } => {
                        let seq = rounds[p].seq;
                        let pending: Vec<u64> = rounds[p].pending.drain(..).collect();
                        for d in pending {
                            let latency = 10_000 + rng.random_range(0..30_000u64);
                            queue.schedule_at(
                                at_ms + latency,
                                Event::Report { device: d, pop: p, round_seq: seq },
                            );
                        }
                        queue.schedule_in(10_000, Event::RoundTick { pop: p, round_seq: seq });
                    }
                    RoundEvent::Finished { at_ms, outcome } => {
                        counters[p].rounds_terminal += 1;
                        if outcome.is_committed() {
                            counters[p].committed += 1;
                        } else {
                            counters[p].abandoned += 1;
                        }
                        if let RoundOutcome::AbandonedInSelection { .. } = outcome {
                            // Forwarded-but-unconfigured devices retry
                            // through their own lane.
                            let orphans: Vec<u64> = rounds[p].pending.drain(..).collect();
                            let reply = WireMessage::ComeBackLater {
                                retry_at_ms: at_ms,
                                population: names[p].clone(),
                            };
                            for d in orphans {
                                devices[d as usize].phase = DevPhase::Idle;
                                handle_rejection!(d, p, at_ms, &reply);
                            }
                        }
                        let seq = rounds[p].seq + 1;
                        counters[p].rounds_started += 1;
                        let open_at = (at_ms / config.window_ms + 1) * config.window_ms;
                        rounds[p] = PopRound {
                            seq,
                            state: RoundState::begin(
                                RoundId(seq + 1),
                                config.populations[p].round,
                                open_at,
                            ),
                            open_at_ms: open_at,
                            pending: Vec::new(),
                        };
                        queue.schedule_at(
                            open_at + config.populations[p].round.selection_timeout_ms,
                            Event::RoundTick { pop: p, round_seq: seq },
                        );
                    }
                }
            }
        }
    }

    // Post-horizon drain: every population's last round must still reach
    // a terminal state.
    for p in 0..npop {
        let mut drain_t = config.horizon_ms;
        for _ in 0..4 {
            if rounds[p].state.phase().is_terminal() {
                break;
            }
            drain_t += config.populations[p].round.selection_timeout_ms
                + config.populations[p].round.report_window_ms
                + config.populations[p].round.device_cap_ms
                + 1;
            rounds[p].state.on_tick(drain_t);
            for round_event in rounds[p].state.drain_events() {
                if let RoundEvent::Finished { outcome, .. } = round_event {
                    counters[p].rounds_terminal += 1;
                    if outcome.is_committed() {
                        counters[p].committed += 1;
                    } else {
                        counters[p].abandoned += 1;
                    }
                }
            }
        }
    }

    metrics.finalize(config.horizon_ms);

    let outcomes: Vec<PopulationOutcome> = config
        .populations
        .iter()
        .enumerate()
        .map(|(p, spec)| {
            let name = &names[p];
            let (accepted, rejected) = selectors
                .iter()
                .map(|s| s.counters_for(name))
                .fold((0, 0), |(a, r), (sa, sr)| (a + sa, r + sr));
            let shed: u64 = selectors.iter().map(|s| s.shed_total_for(name)).sum();
            let retries: u64 = devices
                .iter()
                .filter_map(|d| d.tenancy.lane(name))
                .map(|l| l.connectivity.retries_total())
                .sum();
            let budget_exhaustions: u64 = devices
                .iter()
                .filter_map(|d| d.tenancy.lane(name))
                .filter(|l| l.connectivity.budget_exhaustions_total() > 0)
                .count() as u64;
            PopulationOutcome {
                name: spec.name,
                offered: accepted + rejected,
                accepted,
                shed,
                rejected_other: rejected.saturating_sub(shed),
                budget_admits: budget
                    .as_ref()
                    .map(|b| b.admitted_total_for(name))
                    .unwrap_or(0),
                budget_sheds: budget
                    .as_ref()
                    .map(|b| b.shed_total_for(name))
                    .unwrap_or(0),
                retries,
                budget_exhaustions,
                rounds_started: counters[p].rounds_started,
                rounds_terminal: counters[p].rounds_terminal,
                committed: counters[p].committed,
                abandoned: counters[p].abandoned,
            }
        })
        .collect();

    // Conservation: the Selectors' per-population ledgers must sum
    // exactly to the decisions this harness saw them hand out — the
    // multi-tenant bookkeeping loses no check-in.
    let accepted_by_pop: u64 = outcomes.iter().map(|o| o.accepted).sum();
    let rejected_by_pop: u64 = outcomes.iter().map(|o| o.offered - o.accepted).sum();
    if accepted_by_pop != accepted_total {
        violations.push(format!(
            "per-population accepts {accepted_by_pop} != aggregate {accepted_total}"
        ));
    }
    if rejected_by_pop != rejected_total {
        violations.push(format!(
            "per-population rejects {rejected_by_pop} != aggregate {rejected_total}"
        ));
    }
    if max_queue_depth > config.admission.max_inflight {
        violations.push(format!(
            "queue depth {max_queue_depth} exceeded bound {}",
            config.admission.max_inflight
        ));
    }
    for o in &outcomes {
        if o.rounds_terminal != o.rounds_started {
            violations.push(format!(
                "population {}: {} of {} started rounds never reached a terminal state",
                o.name,
                o.rounds_started - o.rounds_terminal.min(o.rounds_started),
                o.rounds_started
            ));
        }
        if o.committed == 0 {
            violations.push(format!("population {} never committed a round", o.name));
        }
    }
    // Fairness: after any flash crowd's onset, every *other* population
    // must still be getting accepts — starvation of a steady tenant by a
    // stormy one is the regression this harness exists to catch.
    for spec in &config.populations {
        let Some(flash) = spec.flash else { continue };
        let onset_bucket = (flash.at_ms / config.window_ms) as usize;
        for (other, name) in config.populations.iter().zip(&names) {
            if other.name == spec.name {
                continue;
            }
            let post_onset: f64 = metrics
                .population_series(name)
                .map(|series| series.accepts.sums().iter().skip(onset_bucket).sum())
                .unwrap_or(0.0);
            if post_onset == 0.0 {
                violations.push(format!(
                    "population {} starved after the flash crowd in {}",
                    other.name, spec.name
                ));
            }
        }
    }

    let arbitration_losses: u64 = devices.iter().map(|d| d.tenancy.arbitration_losses()).sum();

    MultiTenantReport {
        seed: config.seed,
        populations: outcomes,
        accepted_total,
        rejected_total,
        arbitration_losses,
        max_queue_depth,
        queue_bound: config.admission.max_inflight,
        wire: device_wire.stats(),
        telemetry_panel: metrics.render_population_panel(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_in_one_population_does_not_starve_the_others() {
        let report = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(7));
        assert!(report.is_clean(), "{}", report.render());
        let steady = report.outcome("multi/steady").unwrap();
        let flash = report.outcome("multi/flash").unwrap();
        let aux = report.outcome("multi/aux").unwrap();
        // The storm really stormed: its lane absorbed mass rejection...
        assert!(
            flash.shed + flash.rejected_other > 5_000,
            "the flash crowd was never turned away:\n{}",
            report.render()
        );
        // ...while the other tenants kept committing.
        assert!(steady.committed >= 3, "{}", report.render());
        assert!(aux.committed >= 1, "{}", report.render());
        // And the stormy tenant itself still made progress on its share.
        assert!(flash.committed >= 1, "{}", report.render());
        // The dashboard panel carries one block per tenant.
        for name in ["multi/steady", "multi/flash", "multi/aux"] {
            assert!(
                report.telemetry_panel.contains(name),
                "panel missing {name}:\n{}",
                report.telemetry_panel
            );
        }
    }

    #[test]
    fn shared_budget_charges_the_stormy_population() {
        let report = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(19));
        assert!(report.is_clean(), "{}", report.render());
        let steady = report.outcome("multi/steady").unwrap();
        let flash = report.outcome("multi/flash").unwrap();
        // Fair-share reservations bind against the storm, not the
        // steady tenant.
        assert!(
            flash.budget_sheds > 0,
            "the global budget never capped the storm:\n{}",
            report.render()
        );
        assert!(
            steady.budget_sheds < flash.budget_sheds,
            "{}",
            report.render()
        );
    }

    #[test]
    fn steady_commits_match_the_no_storm_baseline() {
        let stormy = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(41));
        let calm =
            run_multi_tenant(&MultiTenantConfig::flash_vs_steady(41).without_flash());
        assert!(stormy.is_clean(), "{}", stormy.render());
        assert!(calm.is_clean(), "{}", calm.render());
        let with_storm = stormy.outcome("multi/steady").unwrap().committed;
        let without = calm.outcome("multi/steady").unwrap().committed;
        // Fair-share isolation: the steady tenant's round throughput
        // under the storm stays within one round of its calm baseline.
        assert!(
            with_storm + 1 >= without,
            "storm cost the steady tenant rounds: {with_storm} vs calm {without}\n{}",
            stormy.render()
        );
    }

    #[test]
    fn devices_arbitrate_one_session_across_populations() {
        let report = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(7));
        // Devices registered in several populations must have collided
        // and deferred through their own lanes at least sometimes.
        assert!(
            report.arbitration_losses > 0,
            "no device ever arbitrated:\n{}",
            report.render()
        );
    }

    #[test]
    fn single_population_reduces_to_the_aggregate() {
        let report = run_multi_tenant(&MultiTenantConfig::single(7));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.populations.len(), 1);
        let only = &report.populations[0];
        // n=1: the population ledger *is* the aggregate ledger.
        assert_eq!(only.accepted, report.accepted_total);
        assert_eq!(only.offered - only.accepted, report.rejected_total);
        assert!(only.committed >= 3, "{}", report.render());
    }

    #[test]
    fn replay_is_byte_identical() {
        let a = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(19)).render();
        let b = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(19)).render();
        assert_eq!(a, b);
    }
}
