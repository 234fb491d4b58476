//! Overload scenarios: flash crowds, thundering herds, diurnal ramps.
//!
//! The paper's flow-control story (Sec. 2.3) is a *closed loop*: pace
//! steering spreads device check-ins, Selectors shed what still gets
//! through faster than capacity, and devices cooperate with jittered
//! backoff and retry budgets. This module stress-tests that loop end to
//! end with the real production code paths — the real [`Selector`] (with
//! admission control, staleness eviction, and the closed-loop
//! `PaceController`), the real [`RoundState`] machine, and the real
//! device-side [`ConnectivityManager`] — under the arrival patterns that
//! break naive systems:
//!
//! * **thundering herd** — the entire idle fleet wakes and reconnects at
//!   the same instant (network outage recovery, synchronized alarms);
//! * **flash crowd** — the population steps up 10× in one check-in period
//!   (a feature launch);
//! * **diurnal ramp** — sinusoidal arrival modulation (Fig. 5's day/night
//!   swing) exercising the activity-factor path.
//!
//! Each run audits the overload invariants: the Selector's held-connection
//! queue never exceeds its configured bound, the shed rate converges back
//! to steady state within a few pace windows of the disturbance, and every
//! round that starts reaches a terminal committed/abandoned state — no
//! wedged rounds, however hard the storm. Reports render byte-identically
//! per seed (the chaos-harness idiom), so a failing seed is a replayable
//! bug report.

use crate::des::EventQueue;
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, FlCheckpoint, FlPlan, PopulationName, RetryPolicy, RoundId};
use fl_device::connectivity::{ConnectivityManager, RetryDecision};
use fl_ml::fixedpoint::FixedPointEncoder;
use fl_ml::rng;
use fl_server::aggregator::{AggregationPlan, MasterAggregator};
use fl_server::pace::PaceSteering;
use fl_server::round::{CheckinResponse, Phase, RoundEvent, RoundState};
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionConfig};
use fl_server::topology::{SelectorSpec, TopologyBlueprint};
use fl_server::wire::{ChannelTransport, Transport, WireMessage, WireStats};
use rand::Rng;

/// The arrival disturbance to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadScenario {
    /// Every idle device reconnects at the same instant (probability
    /// `fraction` per device) — synchronized wake.
    ThunderingHerd {
        /// When the herd fires.
        at_ms: u64,
        /// Fraction of idle devices that join the herd (`0.0..=1.0`).
        fraction: f64,
    },
    /// The population steps from `devices` to `multiplier × devices`; the
    /// newcomers arrive unpaced within one check-in period of `at_ms`.
    FlashCrowd {
        /// When the step happens.
        at_ms: u64,
        /// Population multiplier (the acceptance scenario uses 10).
        multiplier: u64,
    },
    /// Sinusoidal arrival-rate modulation with the given period and
    /// relative amplitude (`0.0..1.0`) — the diurnal day/night swing.
    DiurnalRamp {
        /// Oscillation period.
        period_ms: u64,
        /// Relative amplitude of the swing.
        amplitude: f64,
    },
}

impl OverloadScenario {
    /// When the disturbance begins (0 for the ramp, which is continuous).
    pub fn onset_ms(&self) -> u64 {
        match *self {
            OverloadScenario::ThunderingHerd { at_ms, .. } => at_ms,
            OverloadScenario::FlashCrowd { at_ms, .. } => at_ms,
            OverloadScenario::DiurnalRamp { .. } => 0,
        }
    }

    /// Short name used in rendered reports.
    pub fn name(&self) -> &'static str {
        match self {
            OverloadScenario::ThunderingHerd { .. } => "thundering-herd",
            OverloadScenario::FlashCrowd { .. } => "flash-crowd",
            OverloadScenario::DiurnalRamp { .. } => "diurnal-ramp",
        }
    }

    /// Whether shed-rate convergence after onset is a meaningful check
    /// (not for the ramp, whose disturbance never ends).
    fn expects_convergence(&self) -> bool {
        !matches!(self, OverloadScenario::DiurnalRamp { .. })
    }
}

/// Overload-simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Baseline population size.
    pub devices: u64,
    /// Simulated duration (ms).
    pub horizon_ms: u64,
    /// Round configuration.
    pub round: RoundConfig,
    /// How many Selectors the load fans across (device id modulo the
    /// count); each gets its own admission controller and quota.
    pub selectors: u64,
    /// Fleet-wide admission budget shared by every Selector; `None`
    /// leaves admission purely local.
    pub global_admission: Option<GlobalAdmissionConfig>,
    /// Per-Selector admission control (token bucket + queue bound).
    pub admission: AdmissionConfig,
    /// Selector staleness TTL for held connections (ms).
    pub stale_after_ms: u64,
    /// Device retry discipline.
    pub retry: RetryPolicy,
    /// Pace-steering rendezvous period = metric window width (ms).
    pub window_ms: u64,
    /// How often the Coordinator asks the Selector to forward devices.
    pub forward_period_ms: u64,
    /// The disturbance.
    pub scenario: OverloadScenario,
    /// Master seed.
    pub seed: u64,
    /// Windows allowed between onset and shed-rate convergence.
    pub convergence_budget_windows: u64,
    /// When set, every round aggregates through a real
    /// [`MasterAggregator`] under Secure Aggregation with this group
    /// threshold `k`: reports upload fixed-point field vectors over
    /// [`WireMessage::SecAggReport`] frames (the Sec. 6 bandwidth
    /// premium), and a storm that strands a cohort's group below `k`
    /// surfaces as per-shard aborts — or a whole-round abort — instead of
    /// a silent mis-sum.
    pub secagg_k: Option<usize>,
}

impl OverloadConfig {
    /// A calibrated default for the given scenario and seed: 8 000
    /// baseline devices (large enough that a 40-window horizon never
    /// drains the pool), 60 s pace windows, and a disturbance at
    /// window 10.
    pub fn for_scenario(scenario: OverloadScenario, seed: u64) -> Self {
        OverloadConfig {
            devices: 8_000,
            horizon_ms: 40 * 60_000,
            round: RoundConfig {
                goal_count: 100,
                overselection: 1.3,
                min_goal_fraction: 0.6,
                selection_timeout_ms: 60_000,
                report_window_ms: 60_000,
                device_cap_ms: 60_000,
            },
            selectors: 1,
            global_admission: None,
            admission: AdmissionConfig {
                accepts_per_sec: 50.0,
                burst: 200,
                max_inflight: 400,
            },
            stale_after_ms: 180_000,
            retry: RetryPolicy {
                base_delay_ms: 30_000,
                multiplier: 2.0,
                max_delay_ms: 600_000,
                jitter_frac: 0.5,
                budget_per_window: 30,
                budget_window_ms: 600_000,
            },
            window_ms: 60_000,
            forward_period_ms: 15_000,
            scenario,
            seed,
            convergence_budget_windows: 5,
            secagg_k: None,
        }
    }

    /// The thundering-herd acceptance scenario: the whole idle fleet —
    /// more than 10× a window's normal arrivals — reconnects at once at
    /// window 10.
    pub fn thundering_herd(seed: u64) -> Self {
        OverloadConfig::for_scenario(
            OverloadScenario::ThunderingHerd {
                at_ms: 600_000,
                fraction: 1.0,
            },
            seed,
        )
    }

    /// The flash-crowd acceptance scenario: a 10× population step at
    /// window 10.
    pub fn flash_crowd(seed: u64) -> Self {
        OverloadConfig::for_scenario(
            OverloadScenario::FlashCrowd {
                at_ms: 600_000,
                multiplier: 10,
            },
            seed,
        )
    }

    /// The flash-crowd scenario under Secure Aggregation: the 10×
    /// population step while every round runs masked aggregation with
    /// group threshold `k = 18`. Storm-degraded cohorts (rounds that
    /// commit at the minimum goal fraction) spread too thin across the
    /// Aggregator groups and must abort per shard, never mis-sum.
    pub fn secagg_flash_crowd(seed: u64) -> Self {
        let mut config = OverloadConfig::flash_crowd(seed);
        config.secagg_k = Some(18);
        config
    }

    /// The diurnal-ramp scenario: a full swing over a 20-window period.
    pub fn diurnal_ramp(seed: u64) -> Self {
        OverloadConfig::for_scenario(
            OverloadScenario::DiurnalRamp {
                period_ms: 20 * 60_000,
                amplitude: 0.6,
            },
            seed,
        )
    }

    /// Total device slots including any flash-crowd newcomers.
    fn total_devices(&self) -> u64 {
        match self.scenario {
            OverloadScenario::FlashCrowd { multiplier, .. } => {
                self.devices * multiplier.max(1)
            }
            _ => self.devices,
        }
    }
}

/// Outcome of one overload run: load counters, the queue/convergence
/// audit, and per-window shed fractions.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// The master seed.
    pub seed: u64,
    /// Scenario short name.
    pub scenario: &'static str,
    /// Check-ins offered to the Selector (accepted + rejected).
    pub offered: u64,
    /// Check-ins accepted into the held-connection queue.
    pub accepted: u64,
    /// Check-ins shed by the admission controllers (local and global).
    pub shed: u64,
    /// The subset of sheds caused by the shared fleet-wide budget (zero
    /// when no global budget is configured).
    pub shed_global: u64,
    /// Check-ins rejected by quota/duplicate checks (not shed).
    pub rejected_other: u64,
    /// Device-side retry attempts recorded.
    pub retries: u64,
    /// Devices that exhausted a retry-budget window at least once.
    pub budget_exhaustions: u64,
    /// Stale held connections evicted.
    pub evicted: u64,
    /// Deepest the held-connection queue ever got.
    pub max_queue_depth: usize,
    /// The configured queue bound it must stay under.
    pub queue_bound: usize,
    /// Shed fraction per closed pace window.
    pub shed_fraction_per_window: Vec<f64>,
    /// Windows from onset until the shed rate converged to its steady
    /// state (`None` = never converged).
    pub convergence_windows: Option<u64>,
    /// Rounds begun.
    pub rounds_started: u64,
    /// Rounds that reached a terminal state.
    pub rounds_terminal: u64,
    /// Rounds committed.
    pub committed: u64,
    /// Rounds abandoned (cleanly).
    pub abandoned: u64,
    /// The closed-loop population estimate (summed across Selectors) at
    /// the end of the run.
    pub population_estimate_final: u64,
    /// The highest the summed population estimate ever got — a flash
    /// crowd may overshoot before the capped EWMA settles, but only
    /// boundedly (see `PaceControllerConfig::max_growth_per_window`).
    pub population_estimate_peak: u64,
    /// Monitor alerts raised (deviation + ceiling).
    pub alerts: usize,
    /// SecAgg Aggregator groups stranded below threshold in rounds that
    /// still committed from the surviving groups (0 on plain runs).
    pub secagg_shard_aborts: u64,
    /// Committed-by-the-state-machine rounds whose aggregate was lost
    /// because *every* SecAgg group fell below threshold.
    pub secagg_round_aborts: u64,
    /// Bytes-on-wire counters from the device end of the harness's
    /// in-memory [`ChannelTransport`]: every check-in and update report
    /// crosses the wire as a framed `WireMessage`, and every rejection,
    /// configuration, and ack comes back the same way.
    pub wire: WireStats,
    /// Overload-invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl OverloadReport {
    /// Whether every overload invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seed={} scenario={}\n\
             offered={} accepted={} shed={} shed_global={} rejected_other={}\n\
             retries={} budget_exhaustions={} evicted={}\n\
             max_queue_depth={} queue_bound={}\n\
             rounds_started={} rounds_terminal={} committed={} abandoned={}\n\
             population_estimate_final={} population_estimate_peak={} alerts={}\n\
             secagg_shard_aborts={} secagg_round_aborts={}\n\
             wire up_frames={} up_bytes={} down_frames={} down_bytes={}\n\
             convergence_windows={}\n",
            self.seed,
            self.scenario,
            self.offered,
            self.accepted,
            self.shed,
            self.shed_global,
            self.rejected_other,
            self.retries,
            self.budget_exhaustions,
            self.evicted,
            self.max_queue_depth,
            self.queue_bound,
            self.rounds_started,
            self.rounds_terminal,
            self.committed,
            self.abandoned,
            self.population_estimate_final,
            self.population_estimate_peak,
            self.alerts,
            self.secagg_shard_aborts,
            self.secagg_round_aborts,
            self.wire.frames_sent,
            self.wire.bytes_sent,
            self.wire.frames_received,
            self.wire.bytes_received,
            match self.convergence_windows {
                Some(w) => w.to_string(),
                None => "never".into(),
            },
        );
        out.push_str("shed_fractions=");
        for (i, f) in self.shed_fraction_per_window.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{f:.3}"));
        }
        out.push('\n');
        out.push_str(&format!("violations={}\n", self.violations.len()));
        for v in &self.violations {
            out.push_str("violation: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// The fixed seed set swept by `scripts/check.sh` and the tier-1 overload
/// tests.
pub fn default_seeds() -> Vec<u64> {
    vec![3, 17, 29, 53]
}

/// Runs [`run_overload`] for one scenario constructor over a seed set.
pub fn sweep(seeds: &[u64], make: impl Fn(u64) -> OverloadConfig) -> Vec<OverloadReport> {
    seeds.iter().map(|&s| run_overload(&make(s))).collect()
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A device wakes and attempts a check-in (stale generations are
    /// dropped, so at most one wake chain per device is live).
    Checkin { device: u64, gen: u32 },
    /// The Coordinator instructs the Selector to forward devices.
    Forward,
    /// A selected device finishes training + upload.
    Report { device: u64, round_seq: u64 },
    /// Round phase timeout check.
    RoundTick { round_seq: u64 },
    /// Per-window queue-depth sampling.
    WindowSample,
    /// The thundering herd fires.
    HerdWake,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DevPhase {
    /// Not connected; a wake event is (usually) pending.
    Idle,
    /// Held in the Selector's connected queue.
    Held,
    /// Forwarded into the active round; awaiting report.
    InRound,
}

struct Device {
    mgr: ConnectivityManager,
    phase: DevPhase,
    /// Wake-chain generation: a `Checkin` event whose `gen` does not match
    /// is stale (superseded by a later schedule) and is dropped.
    gen: u32,
    /// Whether this device exists yet (flash-crowd newcomers start dark).
    active: bool,
}

struct ActiveRound {
    seq: u64,
    state: RoundState,
    /// When selection opens: rounds are aligned to pace-window boundaries
    /// so steady-state consumption matches the pace target (the paper's
    /// rendezvous cadence), instead of free-running as fast as devices
    /// can report.
    open_at_ms: u64,
    /// Devices forwarded into the round before Configuration fired.
    pending: Vec<u64>,
}

fn scenario_activity(scenario: &OverloadScenario, now_ms: u64) -> f64 {
    match *scenario {
        OverloadScenario::DiurnalRamp { period_ms, amplitude } => {
            let phase = now_ms as f64 / period_ms as f64 * std::f64::consts::TAU;
            1.0 + amplitude * phase.sin()
        }
        _ => 1.0,
    }
}

/// Drives one seeded overload scenario against the real Selector/round
/// stack and audits the overload invariants. See the module docs.
pub fn run_overload(config: &OverloadConfig) -> OverloadReport {
    let total = config.total_devices();
    let target = (config.round.selection_target() as u64).max(1);
    let pace = PaceSteering::new(config.window_ms, target);
    // The Selector layer comes from the same blueprint the live topology
    // and the chaos harness build from (device id modulo the count).
    let n = config.selectors.max(1);
    let mut blueprint = TopologyBlueprint::new(
        (0..n)
            .map(|i| {
                SelectorSpec::new(
                    pace,
                    config.devices / n,
                    config.seed ^ (0x5E1 + i),
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
    // The overload harness drives a single population; every v3 frame
    // carries its name (the multi-population sweep lives in `multi`).
    let population = PopulationName::new("overload/train");
    let budget = blueprint.build_global_budget();
    let mut selectors: Vec<Selector> =
        blueprint.build_selectors(budget.as_ref(), std::slice::from_ref(&population));

    let mut rng = rng::seeded(config.seed ^ 0x0E7);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut metrics = OverloadMetrics::new(
        OverloadMonitorConfig {
            bucket_ms: config.window_ms,
            ..OverloadMonitorConfig::default()
        },
        0,
    );

    let mut devices: Vec<Device> = (0..total)
        .map(|i| Device {
            mgr: ConnectivityManager::new(config.retry),
            phase: DevPhase::Idle,
            gen: 0,
            active: i < config.devices,
        })
        .collect();

    // Bootstrap: the baseline fleet is already paced — first wakes spread
    // over the steady-state reconnect horizon.
    let spread = ((config.devices as f64 / target as f64).max(1.0)
        * config.window_ms as f64) as u64;
    for d in 0..config.devices {
        let at = rng.random_range(0..spread.max(1));
        devices[d as usize].gen += 1;
        let gen = devices[d as usize].gen;
        queue.schedule_at(at, Event::Checkin { device: d, gen });
    }
    match config.scenario {
        OverloadScenario::ThunderingHerd { at_ms, .. } => {
            queue.schedule_at(at_ms, Event::HerdWake);
        }
        OverloadScenario::FlashCrowd { at_ms, .. } => {
            // Newcomers arrive unpaced within one window of the step.
            for d in config.devices..total {
                let at = at_ms + rng.random_range(0..config.window_ms);
                devices[d as usize].gen += 1;
                let gen = devices[d as usize].gen;
                queue.schedule_at(at, Event::Checkin { device: d, gen });
            }
        }
        OverloadScenario::DiurnalRamp { .. } => {}
    }
    queue.schedule_at(config.window_ms, Event::WindowSample);
    queue.schedule_at(config.forward_period_ms, Event::Forward);

    let mut round_seq: u64 = 0;
    let mut rounds_started: u64 = 1;
    let mut active = ActiveRound {
        seq: 0,
        state: RoundState::begin(RoundId(1), config.round, 0),
        open_at_ms: 0,
        pending: Vec::new(),
    };
    queue.schedule_at(config.round.selection_timeout_ms, Event::RoundTick { round_seq: 0 });

    let mut rounds_terminal: u64 = 0;
    let mut committed: u64 = 0;
    let mut abandoned: u64 = 0;
    let mut secagg_shard_aborts: u64 = 0;
    let mut secagg_round_aborts: u64 = 0;
    // SecAgg runs aggregate through a real MasterAggregator (one fresh
    // subtree per round, like the live topology); plain runs carry none.
    let secagg_dim = 4usize;
    let fixedpoint = FixedPointEncoder::default_for_updates();
    let make_master = |seq: u64| {
        config.secagg_k.map(|k| {
            MasterAggregator::new(
                AggregationPlan::with_secagg(secagg_dim, 33, k),
                CodecSpec::Identity,
                target as usize,
                config.seed.wrapping_add(seq),
            )
        })
    };
    let mut master = make_master(0);
    let mut max_queue_depth: usize = 0;
    let mut devices_exhausted: u64 = 0;
    let mut population_estimate_peak: u64 = 0;
    let mut violations: Vec<String> = Vec::new();

    // The in-memory wire: every check-in and update report crosses it as
    // a framed `WireMessage`, and every rejection/configuration/ack comes
    // back framed — the same protocol the live topology and the TCP
    // front door speak. Frames are pure functions of the messages, so the
    // byte counters replay identically per seed.
    let (device_wire, server_wire) = ChannelTransport::pair();
    // One shared Configuration payload (the overload harness models flow
    // control, not learning, so every selected device downloads the same
    // small plan + checkpoint).
    let config_msg = WireMessage::PlanAndCheckpoint {
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
        checkpoint: Box::new(FlCheckpoint::new("overload/train", RoundId(1), vec![0.0; 10])),
        population: population.clone(),
    };

    // Sends `msg` up the in-memory wire and decodes what the server side
    // receives; a lost or unsendable frame is an invariant violation.
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

    // Sends a server reply down the wire and has the device consume it
    // (so the device-side received counters see every downlink frame).
    macro_rules! wire_downlink {
        ($msg:expr) => {{
            let _ = server_wire.send($msg);
            while let Ok(Some(_)) = device_wire.try_recv() {}
        }};
    }

    // Schedules the next wake of a device's chain, superseding any
    // previous one.
    macro_rules! schedule_wake {
        ($dev:expr, $at:expr) => {{
            let d = &mut devices[$dev as usize];
            d.gen += 1;
            let gen = d.gen;
            queue.schedule_at($at, Event::Checkin { device: $dev, gen });
        }};
    }

    // Routes a rejection through the device's retry discipline and
    // schedules the resulting wake.
    macro_rules! handle_rejection {
        ($dev:expr, $now:expr, $server_at:expr) => {{
            metrics.record_retry_for(&population, $now);
            let decision =
                devices[$dev as usize]
                    .mgr
                    .on_rejected($now, $server_at, &mut rng);
            if let RetryDecision::BudgetExhausted { .. } = decision {
                if devices[$dev as usize].mgr.budget_exhaustions_total() == 1 {
                    devices_exhausted += 1;
                }
            }
            schedule_wake!($dev, decision.effective_at_ms());
        }};
    }

    while let Some((now, event)) = queue.next_before(config.horizon_ms) {
        match event {
            Event::Checkin { device, gen } => {
                if devices[device as usize].gen != gen
                    || devices[device as usize].phase == DevPhase::InRound
                    || !devices[device as usize].active
                {
                    continue;
                }
                devices[device as usize].phase = DevPhase::Idle;
                let activity = scenario_activity(&config.scenario, now);
                // The check-in crosses the wire as a framed request; the
                // Selector acts only on what it decoded.
                let Some(WireMessage::CheckinRequest { device: wired, .. }) = wire_uplink!(
                    now,
                    &WireMessage::CheckinRequest {
                        device: DeviceId(device),
                        population: population.clone(),
                    }
                ) else {
                    continue;
                };
                let selector = &mut selectors[(wired.0 % n) as usize];
                match selector.on_checkin_for(&population, wired, now, activity) {
                    CheckinDecision::Accept => {
                        // Accepted connections are held open (no reply
                        // frame until the Coordinator forwards them).
                        metrics.record_accept_for(&population, now);
                        devices[device as usize].phase = DevPhase::Held;
                        devices[device as usize].mgr.on_success(now);
                        max_queue_depth = max_queue_depth.max(selector.connected_count());
                        // Fallback wake: if never forwarded, the held slot
                        // goes stale and the device retries.
                        let jitter = rng.random_range(0..config.window_ms.max(1));
                        schedule_wake!(device, now + config.stale_after_ms + jitter);
                    }
                    CheckinDecision::Shed { retry_at_ms, .. } => {
                        metrics.record_shed_for(&population, now);
                        wire_downlink!(&WireMessage::Shed {
                            retry_at_ms,
                            population: population.clone(),
                        });
                        handle_rejection!(device, now, Some(retry_at_ms));
                    }
                    CheckinDecision::Reject { retry_at_ms } => {
                        wire_downlink!(&WireMessage::ComeBackLater {
                            retry_at_ms,
                            population: population.clone(),
                        });
                        handle_rejection!(device, now, Some(retry_at_ms));
                    }
                }
            }
            Event::Forward => {
                if active.state.phase() == Phase::Selection && now >= active.open_at_ms {
                    let have = active.pending.len() as u64;
                    let mut need = target.saturating_sub(have) as usize;
                    // Drain Selectors in index order until the target is
                    // met — deterministic, and with one Selector identical
                    // to the historical single-queue behavior.
                    for s in 0..selectors.len() {
                        if need == 0 {
                            break;
                        }
                        let forwarded = selectors[s].forward_devices_for(&population, need, now);
                        need = need.saturating_sub(forwarded.len());
                        for d in forwarded {
                            match active.state.on_checkin(d, now) {
                                CheckinResponse::Selected => {
                                    // The Configuration download crosses
                                    // the wire too, so FIG9's per-round
                                    // traffic is measured from real frames.
                                    wire_downlink!(&config_msg);
                                    devices[d.0 as usize].phase = DevPhase::InRound;
                                    active.pending.push(d.0);
                                }
                                CheckinResponse::AlreadySelected => {}
                                CheckinResponse::NotSelecting => {
                                    wire_downlink!(&WireMessage::ComeBackLater {
                                        retry_at_ms: now,
                                        population: population.clone(),
                                    });
                                    devices[d.0 as usize].phase = DevPhase::Idle;
                                    handle_rejection!(d.0, now, None);
                                }
                            }
                        }
                    }
                }
                if now + config.forward_period_ms <= config.horizon_ms {
                    queue.schedule_in(config.forward_period_ms, Event::Forward);
                }
            }
            Event::Report { device, round_seq: seq } => {
                devices[device as usize].phase = DevPhase::Idle;
                devices[device as usize].mgr.on_success(now);
                // The report uploads as a framed UpdateReport (payload
                // fields deterministic per device, so frame bytes replay
                // identically); the server acts on the decoded device id
                // and always answers with a framed ack.
                let weight = 1 + device % 7;
                let loss = 0.9 - (device % 10) as f64 * 0.02;
                let accuracy = 0.5 + (device % 10) as f64 * 0.03;
                let round_key = active.state.round;
                let accepted = if config.secagg_k.is_some() {
                    // SecAgg upload: the fixed-point field vector, 8 bytes
                    // per coordinate on the measured wire.
                    let update = vec![0.1 + (device % 5) as f32 * 0.01; secagg_dim];
                    let Ok(field) = fixedpoint.encode(&update) else {
                        violations.push(format!("t={now}: fixed-point encode failed"));
                        continue;
                    };
                    let report_msg = WireMessage::SecAggReport {
                        device: DeviceId(device),
                        round: round_key,
                        attempt: 1,
                        field_vector: field,
                        weight,
                        loss,
                        accuracy,
                        population: population.clone(),
                    };
                    let Some(WireMessage::SecAggReport {
                        device: wired,
                        field_vector,
                        weight: wired_weight,
                        ..
                    }) = wire_uplink!(now, &report_msg)
                    else {
                        continue;
                    };
                    let accepted = seq == active.seq;
                    if accepted {
                        let _ = active.state.on_report(wired, now);
                        if let Some(m) = master.as_mut() {
                            // Drop-not-crash: a malformed contribution
                            // costs only itself.
                            let _ = m.accept_field(wired, &field_vector, wired_weight);
                        }
                    }
                    accepted
                } else {
                    let report_msg = WireMessage::UpdateReport {
                        device: DeviceId(device),
                        round: round_key,
                        attempt: 1,
                        update_bytes: vec![0u8; 4],
                        weight,
                        loss,
                        accuracy,
                        population: population.clone(),
                    };
                    let Some(WireMessage::UpdateReport { device: wired, .. }) =
                        wire_uplink!(now, &report_msg)
                    else {
                        continue;
                    };
                    let accepted = seq == active.seq;
                    if accepted {
                        let _ = active.state.on_report(wired, now);
                    }
                    accepted
                };
                wire_downlink!(&WireMessage::ReportAck {
                    accepted,
                    round: round_key,
                    attempt: 1,
                    population: population.clone(),
                });
                // The next natural participation is the device's periodic
                // FL job, a population-scaled horizon away (Sec. 3: jobs
                // fire when idle, charging, unmetered — hours apart), not
                // a tight re-poll loop that would double-count the device
                // in the arrival stream.
                let natural = ((config.devices as f64 / target as f64).max(1.0)
                    * config.window_ms as f64) as u64;
                let jitter = rng.random_range(0..natural.max(1));
                schedule_wake!(device, now + natural + jitter);
            }
            Event::RoundTick { round_seq: seq } => {
                if seq == active.seq {
                    active.state.on_tick(now);
                    match active.state.phase() {
                        Phase::Reporting => queue.schedule_in(
                            config.round.report_window_ms.min(10_000),
                            Event::RoundTick { round_seq: seq },
                        ),
                        Phase::Selection => queue.schedule_in(
                            config.round.selection_timeout_ms,
                            Event::RoundTick { round_seq: seq },
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
                let estimate: u64 = selectors
                    .iter()
                    .map(|s| s.pace_controller().population_estimate())
                    .sum();
                population_estimate_peak = population_estimate_peak.max(estimate);
                if now + config.window_ms <= config.horizon_ms {
                    queue.schedule_in(config.window_ms, Event::WindowSample);
                }
            }
            Event::HerdWake => {
                if let OverloadScenario::ThunderingHerd { fraction, .. } = config.scenario {
                    for d in 0..total {
                        if devices[d as usize].active
                            && devices[d as usize].phase == DevPhase::Idle
                            && rng.random_range(0..1_000_000u64) < (fraction * 1e6) as u64
                        {
                            schedule_wake!(d, now);
                        }
                    }
                }
            }
        }

        for round_event in active.state.drain_events() {
            match round_event {
                RoundEvent::Configured { at_ms, .. } => {
                    // Every participant trains, then uploads within the
                    // device cap.
                    for d in active.pending.drain(..) {
                        let latency = 10_000 + rng.random_range(0..30_000u64);
                        queue.schedule_at(
                            at_ms + latency,
                            Event::Report { device: d, round_seq: active.seq },
                        );
                    }
                    queue.schedule_in(10_000, Event::RoundTick { round_seq: active.seq });
                }
                RoundEvent::Finished { at_ms, outcome } => {
                    rounds_terminal += 1;
                    if outcome.is_committed() {
                        committed += 1;
                    } else {
                        abandoned += 1;
                    }
                    if let Some(m) = master.take() {
                        if outcome.is_committed() {
                            // A storm-degraded cohort spreads too thin
                            // across the groups: shards below k abort,
                            // surviving shards still merge. If nothing
                            // survives the aggregate is lost whole.
                            match m.finalize(&vec![0.0; secagg_dim], &[], &[]) {
                                Ok(out) => {
                                    secagg_shard_aborts += out.shard_aborts as u64;
                                    for _ in 0..out.shard_aborts {
                                        metrics.record_secagg_abort(at_ms);
                                    }
                                }
                                Err(_) => secagg_round_aborts += 1,
                            }
                        }
                    }
                    if let RoundOutcome::AbandonedInSelection { .. } = outcome {
                        // Forwarded-but-unconfigured devices retry.
                        let orphans: Vec<u64> = active.pending.drain(..).collect();
                        for d in orphans {
                            devices[d as usize].phase = DevPhase::Idle;
                            handle_rejection!(d, at_ms, None);
                        }
                    }
                    round_seq += 1;
                    rounds_started += 1;
                    // Next round opens at the next pace-window boundary.
                    let open_at = (at_ms / config.window_ms + 1) * config.window_ms;
                    active = ActiveRound {
                        seq: round_seq,
                        state: RoundState::begin(RoundId(round_seq + 1), config.round, open_at),
                        open_at_ms: open_at,
                        pending: Vec::new(),
                    };
                    queue.schedule_at(
                        open_at + config.round.selection_timeout_ms,
                        Event::RoundTick { round_seq },
                    );
                    master = make_master(round_seq);
                }
            }
        }
    }

    // Post-horizon drain: the last round must still reach a terminal
    // state — ticking past every window forces the state machine to
    // resolve (commit on what it has, or abandon cleanly).
    let mut drain_t = config.horizon_ms;
    for _ in 0..4 {
        if active.state.phase().is_terminal() {
            break;
        }
        drain_t += config.round.selection_timeout_ms
            + config.round.report_window_ms
            + config.round.device_cap_ms
            + 1;
        active.state.on_tick(drain_t);
        for round_event in active.state.drain_events() {
            if let RoundEvent::Finished { outcome, .. } = round_event {
                rounds_terminal += 1;
                if outcome.is_committed() {
                    committed += 1;
                } else {
                    abandoned += 1;
                }
                if let Some(m) = master.take() {
                    if outcome.is_committed() {
                        match m.finalize(&vec![0.0; secagg_dim], &[], &[]) {
                            Ok(out) => secagg_shard_aborts += out.shard_aborts as u64,
                            Err(_) => secagg_round_aborts += 1,
                        }
                    }
                }
            }
        }
    }

    metrics.finalize(config.horizon_ms);

    let (accepted, rejected) = selectors
        .iter()
        .map(|s| s.counters_for(&population))
        .fold((0, 0), |(a, r), (sa, sr)| (a + sa, r + sr));
    let shed: u64 = selectors.iter().map(|s| s.shed_total()).sum();
    let shed_global = budget.as_ref().map(|b| b.shed_total()).unwrap_or(0);
    let population_estimate_final: u64 = selectors
        .iter()
        .map(|s| s.pace_controller().population_estimate())
        .sum();
    let population_estimate_peak = population_estimate_peak.max(population_estimate_final);
    let fractions = metrics.shed_fractions().to_vec();
    let onset_window = (config.scenario.onset_ms() / config.window_ms) as usize;
    let convergence_windows = shed_convergence(&fractions, onset_window, 0.15);

    if max_queue_depth > config.admission.max_inflight {
        violations.push(format!(
            "queue depth {max_queue_depth} exceeded bound {}",
            config.admission.max_inflight
        ));
    }
    if config.scenario.expects_convergence() {
        match convergence_windows {
            Some(w) if w <= config.convergence_budget_windows => {}
            Some(w) => violations.push(format!(
                "shed rate took {w} windows to converge (budget {})",
                config.convergence_budget_windows
            )),
            None => violations.push("shed rate never converged".into()),
        }
    }
    if rounds_terminal != rounds_started {
        violations.push(format!(
            "{} of {} started rounds never reached a terminal state",
            rounds_started - rounds_terminal.min(rounds_started),
            rounds_started
        ));
    }
    if committed == 0 {
        violations.push("no round committed under overload".into());
    }

    let retries: u64 = devices.iter().map(|d| d.mgr.retries_total()).sum();

    OverloadReport {
        seed: config.seed,
        scenario: config.scenario.name(),
        offered: accepted + rejected,
        accepted,
        shed,
        shed_global,
        rejected_other: rejected - shed,
        retries,
        budget_exhaustions: devices_exhausted,
        evicted: selectors.iter().map(|s| s.evicted_total()).sum(),
        max_queue_depth,
        queue_bound: config.admission.max_inflight,
        shed_fraction_per_window: fractions,
        convergence_windows,
        rounds_started,
        rounds_terminal,
        committed,
        abandoned,
        population_estimate_final,
        population_estimate_peak,
        alerts: metrics.alerts().len(),
        secagg_shard_aborts,
        secagg_round_aborts,
        wire: device_wire.stats(),
        violations,
    }
}

/// Windows from `onset_window` until the shed-fraction series settles: the
/// first window from which every later window stays within `tol` of the
/// final steady level (mean of the last three windows).
fn shed_convergence(fractions: &[f64], onset_window: usize, tol: f64) -> Option<u64> {
    if fractions.len() < onset_window + 4 {
        return None;
    }
    let tail = &fractions[fractions.len() - 3..];
    let steady = tail.iter().sum::<f64>() / tail.len() as f64;
    for w in onset_window..fractions.len() {
        if fractions[w..].iter().all(|f| (f - steady).abs() <= tol) {
            return Some((w - onset_window) as u64);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thundering_herd_holds_the_invariants() {
        let report = run_overload(&OverloadConfig::thundering_herd(3));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.max_queue_depth <= report.queue_bound);
        assert!(report.shed > 0, "a herd must actually shed:\n{}", report.render());
        assert!(report.committed >= 3, "{}", report.render());
        // Every check-in/report crossed the wire framed, and every
        // shed/configuration/ack came back framed.
        assert!(
            report.wire.frames_sent > 0 && report.wire.frames_received > 0,
            "no framed traffic recorded:\n{}",
            report.render()
        );
    }

    #[test]
    fn flash_crowd_tracks_the_population_step() {
        let report = run_overload(&OverloadConfig::flash_crowd(17));
        assert!(report.is_clean(), "{}", report.render());
        // The closed loop must have noticed the 10× step: the estimate
        // ends far above the baseline 8 000.
        assert!(
            report.population_estimate_final > 20_000,
            "estimate stuck at {}:\n{}",
            report.population_estimate_final,
            report.render()
        );
    }

    #[test]
    fn diurnal_ramp_never_wedges() {
        let report = run_overload(&OverloadConfig::diurnal_ramp(29));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.rounds_started, report.rounds_terminal);
    }

    #[test]
    fn replay_is_byte_identical() {
        let a = run_overload(&OverloadConfig::thundering_herd(53)).render();
        let b = run_overload(&OverloadConfig::thundering_herd(53)).render();
        assert_eq!(a, b);
    }

    #[test]
    fn secagg_flash_crowd_strands_cohorts_below_k_cleanly() {
        let plain = run_overload(&OverloadConfig::flash_crowd(17));
        let report = run_overload(&OverloadConfig::secagg_flash_crowd(17));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.committed >= 1, "{}", report.render());
        // The storm must have pushed at least one cohort's group below k
        // — surfaced as a typed abort, never a silent mis-sum.
        assert!(
            report.secagg_shard_aborts + report.secagg_round_aborts >= 1,
            "no group ever fell below threshold:\n{}",
            report.render()
        );
        // Field vectors are 8 bytes per coordinate vs. the plain run's
        // 4-byte blob: the SecAgg premium shows in measured uplink bytes.
        assert!(
            report.wire.bytes_sent > plain.wire.bytes_sent,
            "secagg uplink {} <= plain uplink {}",
            report.wire.bytes_sent,
            plain.wire.bytes_sent
        );
    }

    #[test]
    fn secagg_flash_crowd_replays_byte_identically() {
        let a = run_overload(&OverloadConfig::secagg_flash_crowd(29)).render();
        let b = run_overload(&OverloadConfig::secagg_flash_crowd(29)).render();
        assert_eq!(a, b);
    }

    #[test]
    fn herd_trips_the_monitors() {
        let report = run_overload(&OverloadConfig::thundering_herd(3));
        assert!(report.alerts > 0, "herd raised no alerts:\n{}", report.render());
    }

    /// Regression (pace-controller overshoot): the flash window delivers
    /// ~72 000 unpaced arrivals against an 8 000-device estimate, and the
    /// uncapped `implied = arrivals × periods_per_return` law (~61
    /// periods) used to spike the estimate past two million devices —
    /// 25×+ the true stepped population — before the EWMA decayed. With
    /// per-window growth capped
    /// (`PaceControllerConfig::max_growth_per_window`), the peak must
    /// stay within a small factor of the true population (observed ≈
    /// 3.3×; the bound leaves slack without re-admitting the spike).
    #[test]
    fn flash_crowd_estimate_overshoot_is_bounded() {
        let config = OverloadConfig::flash_crowd(17);
        let true_population = config.total_devices();
        let report = run_overload(&config);
        assert!(report.is_clean(), "{}", report.render());
        assert!(
            report.population_estimate_peak <= 5 * true_population,
            "estimate peaked at {} for a true population of {true_population}:\n{}",
            report.population_estimate_peak,
            report.render()
        );
        assert!(
            report.population_estimate_peak >= report.population_estimate_final,
            "{}",
            report.render()
        );
    }

    /// Three Selectors each shed locally under a herd, while one shared
    /// fleet-wide budget caps what they admit in total — the cap binds
    /// (global sheds happen) yet rounds still commit.
    #[test]
    fn global_budget_is_shared_across_selectors() {
        let mut config = OverloadConfig::thundering_herd(3);
        config.selectors = 3;
        config.global_admission = Some(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 300,
        });
        let report = run_overload(&config);
        assert!(
            report.shed_global > 0,
            "herd never hit the shared budget:\n{}",
            report.render()
        );
        assert!(report.shed > report.shed_global, "{}", report.render());
        assert!(report.committed >= 1, "{}", report.render());
        assert_eq!(report.rounds_started, report.rounds_terminal, "{}", report.render());
    }
}
