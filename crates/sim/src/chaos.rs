//! Deterministic fault injection across the server stack (Sec. 4.2, 4.4).
//!
//! "The FL server must be able to recover from these failures … in all
//! [failure] cases the system will continue to make progress" (Sec. 4.4).
//! This module turns that claim into an executable, *replayable* check: a
//! [`FaultPlan`] derived from a single seed schedules actor crashes,
//! storage write failures, lease losses, and device drop-out bursts on the
//! DES virtual clock, and [`run_chaos`] drives the real
//! [`Coordinator`] / [`FaultyCheckpointStore`] / [`LockingService`] stack
//! through the Selection → Configuration → Reporting loop while auditing
//! the paper's recovery guarantees:
//!
//! * an Aggregator loss costs only that shard's devices — the round still
//!   completes when enough others report (Sec. 4.2);
//! * a Master Aggregator loss fails the round, nothing is persisted, and
//!   the Coordinator restarts the round from the last committed
//!   checkpoint (Sec. 4.2: "no information for a round is written to
//!   persistent storage until it is fully aggregated");
//! * a Coordinator loss triggers *exactly one* respawn via the locking
//!   service (Sec. 4.2: respawn "will happen exactly once"), and the
//!   respawned incarnation resumes the committed model without an extra
//!   checkpoint write;
//! * a storage write failure loses that round's result but leaves the
//!   previous checkpoint authoritative;
//! * exactly `1 + committed_rounds` checkpoint writes ever happen —
//!   per-device updates are never persisted.
//!
//! Every injected fault and observed recovery is appended to a
//! [`FaultLog`]; [`ChaosReport::render`] is byte-identical across replays
//! of the same seed, so a failing sweep seed is a self-contained,
//! reproducible bug report.

use crate::des::EventQueue;
use crate::scenario::SimWire;
use fl_actors::{Lease, LockingService};
use fl_analytics::FaultLog;
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_core::population::{TaskGroup, TaskSelectionStrategy};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{CoreError, DeviceId, FlPlan, FlTask, PopulationName};
use fl_device::session::{report_frame, DeviceSession, Payload};
use fl_ml::rng;
use fl_server::aggregator::{DropStage, MasterAggregator};
use fl_server::coordinator::{ActiveRound, Coordinator, CoordinatorConfig, ReportVerdict};
use fl_server::pace::PaceSteering;
use fl_server::round::{CheckinResponse, Phase};
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::storage::{CheckpointStore, FaultyCheckpointStore, InMemoryCheckpointStore};
use fl_server::topology::{DeploymentSpec, SelectorSpec, TopologyBlueprint};
use fl_server::wire::{WireMessage, WireStats};
use rand::RngExt;
use std::collections::BTreeMap;

/// The task name every chaos run trains.
const TASK_NAME: &str = "chaos-train";
/// The population every chaos run owns.
const POPULATION: &str = "chaos/pop";

/// One scheduled fault. Timed variants carry a virtual-clock instant;
/// [`Fault::StorageWriteFailure`] is keyed to a 1-based commit attempt
/// instead (see [`FaultyCheckpointStore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// An Aggregator shard dies: every participant routed to it (device
    /// id modulo the shard count) drops out of the in-flight round.
    AggregatorCrash {
        /// When the shard dies.
        at_ms: u64,
        /// Which shard (taken modulo [`ChaosConfig::shards`]).
        shard: u64,
    },
    /// A Selector dies: the devices it held are lost with it, devices
    /// routed through it (device id modulo the selector count) go offline
    /// for a few check-in periods, and any of them already participating
    /// drop out.
    SelectorCrash {
        /// When the selector dies.
        at_ms: u64,
        /// Which selector (taken modulo [`ChaosConfig::selectors`]).
        selector: u64,
    },
    /// The Master Aggregator dies: the in-flight round is lost before
    /// aggregation completes, so nothing may reach storage and the
    /// Coordinator must restart the round from the committed checkpoint.
    MasterCrash {
        /// When the master dies.
        at_ms: u64,
    },
    /// The Coordinator dies mid-run: its lease must be evicted, exactly
    /// one of several racing watchers must respawn it, and the new
    /// incarnation must resume the committed model without writing.
    CoordinatorCrash {
        /// When the coordinator dies.
        at_ms: u64,
    },
    /// The locking service evicts the coordinator's lease out from under
    /// it (e.g. a network partition followed by lock expiry); the
    /// coordinator must re-register.
    LeaseLoss {
        /// When the lease disappears.
        at_ms: u64,
    },
    /// A burst of device drop-outs hits the in-flight round.
    DropoutBurst {
        /// When the burst hits.
        at_ms: u64,
        /// How many participants drop, in thousandths of the current
        /// participant count (at least one).
        per_mille: u64,
    },
    /// The Nth checkpoint commit attempt (1-based, successes and failures
    /// both count) fails without side effects.
    StorageWriteFailure {
        /// Which commit attempt fails.
        attempt: u64,
    },
}

impl Fault {
    /// The virtual-clock instant of a timed fault; `None` for
    /// [`Fault::StorageWriteFailure`], which is attempt-keyed.
    pub fn at_ms(&self) -> Option<u64> {
        match self {
            Fault::AggregatorCrash { at_ms, .. }
            | Fault::SelectorCrash { at_ms, .. }
            | Fault::MasterCrash { at_ms }
            | Fault::CoordinatorCrash { at_ms }
            | Fault::LeaseLoss { at_ms }
            | Fault::DropoutBurst { at_ms, .. } => Some(*at_ms),
            Fault::StorageWriteFailure { .. } => None,
        }
    }

    /// Machine-readable kind tag used in the fault log.
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::AggregatorCrash { .. } => "aggregator-crash",
            Fault::SelectorCrash { .. } => "selector-crash",
            Fault::MasterCrash { .. } => "master-crash",
            Fault::CoordinatorCrash { .. } => "coordinator-crash",
            Fault::LeaseLoss { .. } => "lease-loss",
            Fault::DropoutBurst { .. } => "dropout-burst",
            Fault::StorageWriteFailure { .. } => "storage-write-failure",
        }
    }
}

/// A seeded, fully deterministic schedule of faults. The same seed always
/// generates the same plan, and the same plan always produces the same
/// [`ChaosReport`] — replay a failing seed to reproduce its interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan (and the harness RNG streams) derive from.
    pub seed: u64,
    /// The scheduled faults, timed ones sorted by instant.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Generates a plan of 3–8 timed faults (plus up to two storage write
    /// failures) inside `[horizon_ms/10, horizon_ms·3/4]`, leaving the
    /// tail of the horizon for recovery to be observed.
    pub fn generate(seed: u64, horizon_ms: u64) -> Self {
        let mut r = rng::seeded_stream(seed, 0xFA);
        let lo = horizon_ms / 10;
        let hi = (horizon_ms / 4) * 3;
        let n = 3 + r.random_range(0u64..6);
        let mut faults = Vec::new();
        for _ in 0..n {
            let at_ms = r.random_range(lo..hi.max(lo + 1));
            let fault = match r.random_range(0u64..6) {
                0 => Fault::AggregatorCrash {
                    at_ms,
                    shard: r.random_range(0u64..8),
                },
                1 => Fault::SelectorCrash {
                    at_ms,
                    selector: r.random_range(0u64..8),
                },
                2 => Fault::MasterCrash { at_ms },
                3 => Fault::CoordinatorCrash { at_ms },
                4 => Fault::LeaseLoss { at_ms },
                _ => Fault::DropoutBurst {
                    at_ms,
                    per_mille: 100 + r.random_range(0u64..400),
                },
            };
            faults.push(fault);
        }
        faults.sort_by_key(|f| f.at_ms());
        if r.random_bool(0.7) {
            // Commit attempt 1 is the initial deployment write; failing
            // attempts ≥ 2 exercises round loss, not deployment retry.
            faults.push(Fault::StorageWriteFailure {
                attempt: 2 + r.random_range(0u64..5),
            });
        }
        FaultPlan { seed, faults }
    }

    /// The 1-based commit attempts scripted to fail.
    pub fn storage_failures(&self) -> Vec<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::StorageWriteFailure { attempt } => Some(*attempt),
                _ => None,
            })
            .collect()
    }
}

/// Shape of a chaos run: fleet size, horizon, round parameters, and the
/// fault-domain fan-out (shards, selectors, respawn racers).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Simulated fleet size.
    pub devices: u64,
    /// Virtual-clock horizon of the run (ms).
    pub horizon_ms: u64,
    /// Round parameters (kept small so many rounds fit in the horizon).
    pub round: RoundConfig,
    /// How often an idle device re-checks in (ms).
    pub checkin_period_ms: u64,
    /// Server clock-tick period (ms).
    pub tick_ms: u64,
    /// Minimum per-device training/report delay (ms).
    pub report_delay_min_ms: u64,
    /// Maximum per-device training/report delay (ms).
    pub report_delay_max_ms: u64,
    /// Aggregator shard count (fault domain of [`Fault::AggregatorCrash`]).
    pub shards: u64,
    /// Selector count (fault domain of [`Fault::SelectorCrash`]).
    pub selectors: u64,
    /// How many watchers race to respawn a crashed Coordinator; exactly
    /// one must win.
    pub respawn_racers: u64,
    /// When set, the run trains under Secure Aggregation with this group
    /// threshold `k` (Sec. 6): devices report fixed-point *field vectors*
    /// over [`WireMessage::SecAggReport`] frames, dropouts are tagged with
    /// the protocol stage they hit (advertise vs. share), and a shard
    /// whose surviving group falls below the protocol threshold aborts
    /// without poisoning the commit.
    pub secagg_k: Option<usize>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            devices: 24,
            horizon_ms: 240_000,
            round: RoundConfig {
                goal_count: 4,
                overselection: 1.5,
                min_goal_fraction: 0.5,
                selection_timeout_ms: 10_000,
                report_window_ms: 20_000,
                device_cap_ms: 15_000,
            },
            checkin_period_ms: 2_000,
            tick_ms: 1_000,
            report_delay_min_ms: 1_000,
            report_delay_max_ms: 6_000,
            shards: 3,
            selectors: 2,
            respawn_racers: 4,
            secagg_k: None,
        }
    }
}

/// Outcome of one chaos run: progress counters, the recovery audit, and
/// the deterministic fault log.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// The fault-plan seed.
    pub seed: u64,
    /// Rounds committed to storage.
    pub committed: u64,
    /// Rounds abandoned by the protocol itself (timeouts, drop-outs).
    pub abandoned: u64,
    /// Rounds whose aggregate was lost to an injected storage failure.
    pub lost_to_storage: u64,
    /// Rounds lost to a Master Aggregator crash and restarted.
    pub master_restarts: u64,
    /// Coordinator respawns performed (one per coordinator crash).
    pub respawns: u64,
    /// Lease re-acquisitions after an injected lease loss.
    pub lease_reacquisitions: u64,
    /// Duplicate check-ins answered idempotently.
    pub idempotent_checkins: u64,
    /// Final checkpoint write count (must equal `1 + committed`).
    pub final_write_count: u64,
    /// SecAgg shards that aborted below threshold while their round still
    /// committed from the surviving shards (0 on non-SecAgg runs).
    pub secagg_shard_aborts: u64,
    /// Rounds lost entirely because *every* SecAgg shard fell below
    /// threshold; nothing reaches storage and the round restarts.
    pub secagg_round_aborts: u64,
    /// Bytes-on-wire counters from the device end of the harness's
    /// in-memory transport: every check-in, configuration download, update
    /// report, and ack crossed it as a framed [`WireMessage`].
    pub wire: WireStats,
    /// Recovery-guarantee violations; empty on a clean run.
    pub violations: Vec<String>,
    /// The replayable fault/recovery log.
    pub log: FaultLog,
}

impl ChaosReport {
    /// Whether every recovery guarantee held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seed={}\ncommitted={} abandoned={} lost_to_storage={} master_restarts={}\n\
             respawns={} lease_reacquisitions={} idempotent_checkins={}\n\
             write_count={} secagg_shard_aborts={} secagg_round_aborts={}\n\
             wire up_frames={} up_bytes={} down_frames={} down_bytes={}\n",
            self.seed,
            self.committed,
            self.abandoned,
            self.lost_to_storage,
            self.master_restarts,
            self.respawns,
            self.lease_reacquisitions,
            self.idempotent_checkins,
            self.final_write_count,
            self.secagg_shard_aborts,
            self.secagg_round_aborts,
            self.wire.frames_sent,
            self.wire.bytes_sent,
            self.wire.frames_received,
            self.wire.bytes_received,
        );
        crate::render_violations(&mut out, &self.violations);
        out.push_str("--- fault log ---\n");
        out.push_str(&self.log.render());
        out
    }
}

/// The fixed seed set swept by `scripts/check.sh` and the tier-1 chaos
/// tests.
pub fn default_seeds() -> Vec<u64> {
    vec![11, 23, 47, 61, 83, 97, 131, 151]
}

/// The fixed seed set for SecAgg chaos sweeps (`scripts/check.sh`
/// `secagg-live` step and the tier-1 chaos tests).
pub fn default_secagg_seeds() -> Vec<u64> {
    vec![13, 29, 53, 71]
}

/// The default chaos topology with Secure Aggregation enabled at group
/// threshold `k`.
pub fn secagg_config(k: usize) -> ChaosConfig {
    ChaosConfig {
        secagg_k: Some(k),
        ..ChaosConfig::default()
    }
}

/// Runs [`run_chaos`] over a set of fault-plan seeds with one shared
/// configuration.
pub fn sweep(seeds: &[u64], config: &ChaosConfig) -> Vec<ChaosReport> {
    seeds
        .iter()
        .map(|&seed| run_chaos(&FaultPlan::generate(seed, config.horizon_ms), config))
        .collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    BeginRound,
    Checkin { device: u64 },
    Report { device: u64 },
    Tick,
    Fault(usize),
}

/// Everything the event handlers share.
struct Harness<'a> {
    config: &'a ChaosConfig,
    plan: &'a FaultPlan,
    queue: EventQueue<Event>,
    /// What the coordinator deploys — shared with the live topology's
    /// blueprint types so every incarnation redeploys the identical thing.
    deployment: DeploymentSpec,
    /// What the Selector layer is built from — the same
    /// [`TopologyBlueprint`] the live topology uses — kept so a crashed
    /// Selector is rebuilt as it was born.
    blueprint: TopologyBlueprint,
    /// The Selector layer (device id modulo the selector count). An
    /// accepted device is held by its Selector until a round's Selection
    /// takes it; held slots go stale after two check-in periods.
    selectors: Vec<Selector>,
    coordinator: Option<Coordinator<FaultyCheckpointStore<InMemoryCheckpointStore>>>,
    active: Option<ActiveRound>,
    /// The active round's Master Aggregator, which folds its accepted
    /// reports.
    master: Option<MasterAggregator>,
    active_since: u64,
    locks: LockingService<String>,
    lease: Option<Lease>,
    lease_name: String,
    offline_until: BTreeMap<u64, u64>,
    rng: rand::rngs::StdRng,
    report: ChaosReport,
    dim: usize,
    /// The fleet's in-memory wire. Every check-in and update report is
    /// encoded on its device side as a framed [`WireMessage`]; a check-in
    /// is decoded on the server side before it touches a state machine,
    /// and a report frame goes to the round's one report path — the DES
    /// exercises the same codec and report path as the live topology and
    /// the TCP front door.
    wire: SimWire,
}

/// Drives one seeded fault plan against the real Coordinator stack and
/// audits the paper's recovery guarantees. See the module docs for the
/// invariants checked. Equivalent to [`run_chaos_with_schedule`] with
/// schedule seed 0 (the canonical schedule).
pub fn run_chaos(plan: &FaultPlan, config: &ChaosConfig) -> ChaosReport {
    run_chaos_with_schedule(plan, config, 0)
}

/// [`run_chaos`] under an alternative *schedule*: `schedule_seed`
/// perturbs only the harness timing RNG (check-in jitter, per-device
/// report delays) — a legal permutation of device timing — while the
/// fault plan, topology, and every protocol state machine stay
/// identical. Running one plan under K schedule seeds checks the
/// recovery guarantees across K distinct interleavings of the same
/// fault scenario; each (plan seed, schedule seed) pair renders
/// byte-identically on replay.
pub fn run_chaos_with_schedule(
    plan: &FaultPlan,
    config: &ChaosConfig,
    schedule_seed: u64,
) -> ChaosReport {
    let mut h = Harness::new(plan, config, schedule_seed);
    if !h.start() {
        return h.report;
    }
    while let Some((now, event)) = h.queue.next_before(config.horizon_ms) {
        h.handle(now, event);
    }
    h.drain_after_horizon();
    h.finish()
}

impl<'a> Harness<'a> {
    /// The stack of one run, nothing deployed or scheduled yet.
    fn new(plan: &'a FaultPlan, config: &'a ChaosConfig, schedule_seed: u64) -> Self {
        let spec = ModelSpec::Logistic {
            dim: 4,
            classes: 2,
            seed: 7,
        };
        let dim = spec.num_params();
        let store =
            FaultyCheckpointStore::new(InMemoryCheckpointStore::new(), plan.storage_failures());
        let mut task = FlTask::training(TASK_NAME, POPULATION).with_round(config.round);
        if let Some(k) = config.secagg_k {
            task = task.with_secagg(k);
        }
        let deployment = DeploymentSpec {
            config: CoordinatorConfig::new(POPULATION, plan.seed),
            group: TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
            plans: vec![FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity)],
            initial_params: vec![0.0f32; dim],
        };
        let blueprint = TopologyBlueprint::new(
            (0..config.selectors)
                .map(|i| {
                    SelectorSpec::new(
                        PaceSteering::new(
                            config.checkin_period_ms,
                            config.round.selection_target() as u64,
                        ),
                        config.devices,
                        plan.seed ^ (0x5E1 + i),
                        config.devices as usize,
                    )
                    .with_staleness(2 * config.checkin_period_ms)
                })
                .collect(),
        );
        let coordinator = deployment.new_coordinator(store);
        // One SplitMix64 round of the schedule seed perturbs the harness
        // timing stream; seed 0 is the identity, so `run_chaos` replays
        // exactly the canonical schedule it always has.
        let schedule_salt = match schedule_seed {
            0 => 0,
            seed => rng::derive_seed(seed, 0),
        };
        Harness {
            config,
            plan,
            queue: EventQueue::new(),
            selectors: blueprint.build_selectors(None, &[PopulationName::new(POPULATION)]),
            blueprint,
            deployment,
            coordinator: Some(coordinator),
            active: None,
            master: None,
            active_since: 0,
            locks: LockingService::new(),
            lease: None,
            lease_name: format!("coordinator/{POPULATION}"),
            offline_until: BTreeMap::new(),
            rng: rng::seeded_stream(plan.seed ^ schedule_salt, 0xC4A05),
            report: ChaosReport {
                seed: plan.seed,
                ..ChaosReport::default()
            },
            dim,
            wire: SimWire::new(),
        }
    }

    /// Deploys, takes the lease and seeds the schedule: the first round,
    /// the server clock, one staggered check-in stream per device, and
    /// every timed fault. `false` (with the violation recorded) when the
    /// initial deployment never lands.
    fn start(&mut self) -> bool {
        if !self.deploy_current(0) {
            self.report
                .violations
                .push("initial deployment never succeeded".into());
            return false;
        }
        self.lease = self.locks.acquire(&self.lease_name, "coordinator".to_string());
        self.queue.schedule_at(0, Event::BeginRound);
        self.queue.schedule_at(self.config.tick_ms, Event::Tick);
        for device in 0..self.config.devices {
            let jitter = self.rng.random_range(0..self.config.checkin_period_ms);
            self.queue.schedule_at(jitter, Event::Checkin { device });
        }
        for (idx, fault) in self.plan.faults.iter().enumerate() {
            if let Some(at) = fault.at_ms() {
                self.queue.schedule_at(at, Event::Fault(idx));
            }
        }
        true
    }

    fn handle(&mut self, now: u64, event: Event) {
        match event {
            Event::BeginRound => self.on_begin_round(now),
            Event::Checkin { device } => self.on_checkin(now, device),
            Event::Report { device } => self.on_report(now, device),
            Event::Tick => self.on_tick(now),
            Event::Fault(idx) => self.on_fault(now, idx),
        }
    }

    fn round_deadline_ms(&self) -> u64 {
        self.config.round.selection_timeout_ms
            + self.config.round.report_window_ms
            + 4 * self.config.tick_ms
    }

    /// Deploys the shared [`DeploymentSpec`] on the current coordinator,
    /// retrying past scripted storage failures. Returns `false` if
    /// deployment never lands (only possible if a plan fails every
    /// attempt).
    fn deploy_current(&mut self, now_ms: u64) -> bool {
        for _ in 0..8 {
            let Some(c) = self.coordinator.as_mut() else {
                return false;
            };
            match self.deployment.deploy_on(c) {
                Ok(()) => return true,
                Err(CoreError::StorageFailure(why)) => {
                    self.report
                        .log
                        .record(now_ms, "inject.storage-write-failure", why);
                    self.report
                        .log
                        .record(now_ms, "recover.redeploy", "retrying initial commit");
                }
                Err(e) => {
                    self.report
                        .violations
                        .push(format!("deployment failed: {e}"));
                    return false;
                }
            }
        }
        false
    }

    fn latest_round(&self) -> Option<u64> {
        self.coordinator
            .as_ref()
            .and_then(|c| c.store().latest(TASK_NAME).ok())
            .map(|ck| ck.round.0)
    }

    fn write_count(&self) -> u64 {
        self.coordinator
            .as_ref()
            .map(|c| c.store().write_count())
            .unwrap_or(0)
    }

    /// The storage audit of every path that must persist nothing: the
    /// write count and the latest checkpoint round still read `pre`
    /// (`(write_count, latest_round)` before the path ran), or the
    /// violation `what` is recorded.
    fn audit_storage_untouched(&mut self, now: u64, pre: (u64, Option<u64>), what: &str) {
        if (self.write_count(), self.latest_round()) != pre {
            self.report.violations.push(format!("t={now}: {what}"));
        }
    }

    fn on_begin_round(&mut self, now: u64) {
        if self.active.is_some() {
            return;
        }
        let Some(coordinator) = self.coordinator.as_mut() else {
            return;
        };
        match coordinator.begin_round(now) {
            Ok((round, master)) => {
                // Pipelining (Sec. 4.3) needs no mechanism of its own: the
                // Selectors kept accepting while the previous round was
                // past Selection, so the new round fills at once from
                // whoever they hold that is still fresh.
                for selector in &mut self.selectors {
                    selector.evict_stale(now);
                }
                let held: usize = self.selectors.iter().map(Selector::connected_count).sum();
                self.report.log.record(
                    now,
                    "round.begin",
                    format!("r={} selectors_held={held}", round.state.round.0),
                );
                self.active_since = now;
                self.active = Some(round);
                self.master = master;
                self.forward_held(now);
            }
            Err(e) => self
                .report
                .violations
                .push(format!("begin_round failed: {e}")),
        }
    }

    /// Fills the active round from the Selectors' held devices, in Selector
    /// order, for as long as its Selection is open — at `BeginRound` and
    /// on every accept, where the scenario engine's `Forward` event asks
    /// on a timer.
    fn forward_held(&mut self, now: u64) {
        let population = PopulationName::new(POPULATION);
        while let Some(round) = self
            .active
            .as_mut()
            .filter(|round| round.state.phase() == Phase::Selection)
        {
            let Some(device) = self
                .selectors
                .iter_mut()
                .find_map(|s| s.forward_devices_for(&population, 1, now).pop())
            else {
                return;
            };
            match round.on_checkin(device, now) {
                CheckinResponse::Selected => {
                    // The Configuration download crosses the wire too, so
                    // the byte counters cover the dominant direction.
                    self.wire.wire_downlink(&WireMessage::PlanAndCheckpoint {
                        plan: Box::new(round.plan.clone()),
                        checkpoint: Box::new(round.checkpoint.clone()),
                        population: population.clone(),
                    });
                    self.schedule_report(now, device.0);
                }
                // Selected once already, while this Selection was open.
                CheckinResponse::AlreadySelected => self.report.idempotent_checkins += 1,
                CheckinResponse::NotSelecting => {}
            }
        }
    }

    fn schedule_report(&mut self, now: u64, device: u64) {
        let delay = self.config.report_delay_min_ms
            + self
                .rng
                .random_range(0..self.config.report_delay_max_ms - self.config.report_delay_min_ms);
        self.queue.schedule_at(now + delay, Event::Report { device });
    }

    fn on_checkin(&mut self, now: u64, device: u64) {
        // Periodic re-check-in, with seeded jitter to avoid lockstep.
        let next = now
            + self.config.checkin_period_ms
            + self.rng.random_range(0..self.config.checkin_period_ms / 4);
        self.queue.schedule_at(next, Event::Checkin { device });
        if self.offline_until.get(&device).is_some_and(|&t| t > now) {
            return;
        }
        // The check-in crosses the wire as a framed request; the server
        // side acts only on what it decoded.
        let request = DeviceSession::new(DeviceId(device), POPULATION).checkin();
        let Some(WireMessage::CheckinRequest { device: wired, .. }) =
            self.wire
                .wire_uplink(now, &request, &mut self.report.violations)
        else {
            return;
        };
        // A participant's retried check-in is answered by the round it is
        // configured into and keeps its slot (Sec. 4.2 bugfix): its
        // stream is with its Aggregator, not up for the next Selection.
        if let Some(round) = self.active.as_mut() {
            if round.state.phase() == Phase::Reporting
                && round.on_checkin(wired, now) == CheckinResponse::AlreadySelected
            {
                self.report.idempotent_checkins += 1;
                return;
            }
        }
        // Everyone else enters through its Selector (device id modulo the
        // selector count), same routing as the live topology.
        let selector = &mut self.selectors[(wired.0 % self.config.selectors) as usize];
        match selector.on_checkin_for(&PopulationName::new(POPULATION), wired, now, 1.0) {
            CheckinDecision::Accept => self.forward_held(now),
            // No admission control in this harness: a device its Selector
            // already holds (the re-check-in keeps the slot fresh) is the
            // only one turned away.
            CheckinDecision::Shed { retry_at_ms, .. } | CheckinDecision::Reject { retry_at_ms } => {
                self.wire.wire_downlink(&WireMessage::ComeBackLater {
                    retry_at_ms,
                    population: PopulationName::new(POPULATION),
                });
            }
        }
    }

    fn on_report(&mut self, now: u64, device: u64) {
        let Some(round) = self.active.as_mut() else {
            return; // The round this report belonged to is gone.
        };
        if self.offline_until.get(&device).is_some_and(|&t| t > now) {
            round.on_dropout(DeviceId(device), now);
            return;
        }
        let update = vec![0.1 + (device % 5) as f32 * 0.01; self.dim];
        let weight = 1 + device % 7;
        let loss = 0.9 - (device % 10) as f64 * 0.02;
        let accuracy = 0.5 + (device % 10) as f64 * 0.03;
        // The DES devices upload first attempts only (retry scheduling is
        // the live harness's concern), under the key a real device sends:
        // the checkpoint round its Configuration carried.
        let violations = &mut self.report.violations;
        // SecAgg rounds upload the fixed-point *field vector* — 8 bytes
        // per coordinate, the Sec. 6 bandwidth premium — over the same
        // framed wire as cleartext reports.
        let payload = if self.config.secagg_k.is_some() {
            Payload::Field(&update)
        } else {
            Payload::Identity(&update)
        };
        let report_msg = match report_frame(
            DeviceId(device),
            &PopulationName::new(POPULATION),
            (round.checkpoint.round, 1),
            payload,
            (weight, loss, accuracy),
        ) {
            Ok(frame) => frame,
            Err(e) => {
                violations.push(format!("t={now}: fixed-point encode failed: {e}"));
                return;
            }
        };
        // The server side hands the frame it received, unopened, to the
        // round; an accepted report is folded by the round's Master.
        let Some(frame) = self.wire.wire_uplink_frame(now, &report_msg, violations) else {
            return;
        };
        let (ack, verdict) = round.on_report(now, &frame);
        if let (ReportVerdict::Forward(route), Some(master)) = (verdict, self.master.as_mut()) {
            if let Err(e) = master.accept_forwarded(&route, &frame) {
                violations.push(format!("report aggregation failed: {e}"));
            }
        }
        self.wire.wire_downlink(&ack);
    }

    fn on_tick(&mut self, now: u64) {
        self.queue.schedule_at(now + self.config.tick_ms, Event::Tick);
        // A coordinator without a lease re-registers (recovery from
        // Fault::LeaseLoss).
        if self.lease.is_none() && self.coordinator.is_some() {
            if let Some(lease) = self.locks.acquire(&self.lease_name, "coordinator".to_string()) {
                self.report.log.record(
                    now,
                    "recover.lease-reacquired",
                    format!("epoch={}", lease.epoch),
                );
                self.lease = Some(lease);
                self.report.lease_reacquisitions += 1;
            } else {
                self.report
                    .violations
                    .push(format!("t={now}: lease unrecoverable (foreign owner)"));
            }
        }
        if let Some(mut round) = self.active.take() {
            round.on_tick(now);
            if round.state.outcome().is_some() {
                self.complete(now, round);
                self.queue.schedule_at(now, Event::BeginRound);
            } else if now.saturating_sub(self.active_since) > self.round_deadline_ms() {
                // "Never hang": the state machine must reach a terminal
                // phase within its own timeouts.
                self.report.violations.push(format!(
                    "t={now}: round r={} hung past its deadline",
                    round.state.round.0
                ));
                self.queue.schedule_at(now, Event::BeginRound);
            } else {
                self.active = Some(round);
            }
        }
    }

    fn complete(&mut self, now: u64, mut round: ActiveRound) {
        round.record_participation_metrics();
        let aggregate = round.merge(self.master.take());
        let pre = (self.write_count(), self.latest_round());
        let Some(c) = self.coordinator.as_mut() else {
            return;
        };
        match c.complete_round(round, aggregate) {
            Ok(RoundOutcome::Committed { .. }) => {
                self.report.committed += 1;
                self.report.log.record(
                    now,
                    "round.committed",
                    format!("checkpoint r={:?}", self.latest_round()),
                );
                // One write per committed round, checkpoint id +1.
                if self.write_count() != pre.0 + 1 {
                    self.report
                        .violations
                        .push(format!("t={now}: committed round wrote != 1 checkpoint"));
                }
                if self.latest_round() != pre.1.map(|r| r + 1) {
                    self.report
                        .violations
                        .push(format!("t={now}: checkpoint id did not advance by 1"));
                }
            }
            Ok(_) => {
                self.report.abandoned += 1;
                self.report
                    .log
                    .record(now, "round.abandoned", "protocol timeout/drop-out");
                self.audit_storage_untouched(now, pre, "abandoned round touched storage");
            }
            Err(CoreError::MalformedCheckpoint(why)) if why.contains("below threshold") => {
                // Every SecAgg shard fell below its protocol threshold:
                // the round is lost whole — like a Master crash, nothing
                // reaches storage and the next round restarts from the
                // committed checkpoint.
                self.report.secagg_round_aborts += 1;
                self.report.log.record(now, "secagg.round-abort", why);
                self.report.log.record(
                    now,
                    "recover.round-restart",
                    format!("from checkpoint r={:?}", pre.1),
                );
                self.audit_storage_untouched(now, pre, "aborted secagg round touched storage");
            }
            Err(CoreError::StorageFailure(why)) => {
                self.report.lost_to_storage += 1;
                self.report.log.record(now, "inject.storage-write-failure", why);
                self.report.log.record(
                    now,
                    "recover.round-lost",
                    format!("last checkpoint r={:?} stays authoritative", pre.1),
                );
                self.audit_storage_untouched(now, pre, "failed commit left side effects");
            }
            Err(e) => self
                .report
                .violations
                .push(format!("t={now}: complete_round failed: {e}")),
        }
    }

    fn on_fault(&mut self, now: u64, idx: usize) {
        let Some(fault) = self.plan.faults.get(idx).cloned() else {
            return;
        };
        match fault {
            Fault::AggregatorCrash { shard, .. } => {
                let shard = shard % self.config.shards;
                let victims = self.participants_where(|d| d % self.config.shards == shard);
                self.report.log.record(
                    now,
                    "inject.aggregator-crash",
                    format!("shard={shard} victims={}", victims.len()),
                );
                if let Some(round) = self.active.as_mut() {
                    for d in victims {
                        round.on_dropout(DeviceId(d), now);
                    }
                    // The round itself must survive: only this shard's
                    // devices are lost (Sec. 4.2). Completion is audited
                    // by the normal tick path.
                    self.report.log.record(
                        now,
                        "recover.round-continues",
                        format!("r={}", round.state.round.0),
                    );
                }
            }
            Fault::SelectorCrash { selector, .. } => {
                let selector = selector % self.config.selectors;
                // The replacement starts empty: exactly the devices the
                // dead Selector held are lost (Sec. 4.4).
                self.selectors[selector as usize] = self
                    .blueprint
                    .build_selectors(None, &[PopulationName::new(POPULATION)])
                    .swap_remove(selector as usize);
                let until = now + 3 * self.config.checkin_period_ms;
                for d in 0..self.config.devices {
                    if d % self.config.selectors == selector {
                        self.offline_until.insert(d, until);
                    }
                }
                let victims = self.participants_where(|d| d % self.config.selectors == selector);
                self.report.log.record(
                    now,
                    "inject.selector-crash",
                    format!("selector={selector} victims={}", victims.len()),
                );
                let secagg = self.config.secagg_k.is_some();
                if let Some(round) = self.active.as_mut() {
                    for d in victims {
                        if secagg {
                            // A dead Selector takes its devices out before
                            // they share anything: cheap advertise-stage
                            // exclusion, no mask recovery.
                            round.on_dropout_staged(DeviceId(d), now, DropStage::Advertise);
                        } else {
                            round.on_dropout(DeviceId(d), now);
                        }
                    }
                }
                self.report.log.record(
                    now,
                    "recover.devices-rerouted",
                    format!("offline until t={until}"),
                );
            }
            Fault::MasterCrash { .. } => {
                let pre = (self.write_count(), self.latest_round());
                if let Some(round) = self.active.take() {
                    self.report.master_restarts += 1;
                    self.report.log.record(
                        now,
                        "inject.master-crash",
                        format!("in-flight r={} lost", round.state.round.0),
                    );
                    // The Master's partial aggregate dies with the round.
                    self.master = None;
                    drop(round);
                    // Nothing from the unfinished round may have been
                    // persisted (Sec. 4.2).
                    self.audit_storage_untouched(now, pre, "master crash leaked partial state");
                    self.report.log.record(
                        now,
                        "recover.round-restart",
                        format!("from checkpoint r={:?}", pre.1),
                    );
                    self.queue.schedule_at(now, Event::BeginRound);
                } else {
                    self.report
                        .log
                        .record(now, "inject.master-crash", "no round in flight");
                }
            }
            Fault::CoordinatorCrash { .. } => self.crash_coordinator(now),
            Fault::LeaseLoss { .. } => {
                self.locks.evict(&self.lease_name);
                self.lease = None;
                self.report
                    .log
                    .record(now, "inject.lease-loss", "lock evicted by service");
            }
            Fault::DropoutBurst { per_mille, .. } => {
                let participants = self.participants_where(|_| true);
                let k = if participants.is_empty() {
                    0
                } else {
                    ((participants.len() as u64 * per_mille) / 1000).max(1) as usize
                };
                self.report.log.record(
                    now,
                    "inject.dropout-burst",
                    format!("per_mille={per_mille} dropped={k}"),
                );
                let secagg = self.config.secagg_k.is_some();
                if let Some(round) = self.active.as_mut() {
                    for (i, d) in participants.into_iter().take(k).enumerate() {
                        if secagg {
                            // Alternate the SecAgg stage the burst hits so
                            // one burst exercises both recovery paths:
                            // advertise-stage exclusion and share-stage
                            // mask reconstruction.
                            let stage = if i % 2 == 0 {
                                DropStage::Advertise
                            } else {
                                DropStage::Share
                            };
                            round.on_dropout_staged(DeviceId(d), now, stage);
                        } else {
                            round.on_dropout(DeviceId(d), now);
                        }
                    }
                }
            }
            Fault::StorageWriteFailure { .. } => {
                // Attempt-keyed; applied inside FaultyCheckpointStore.
            }
        }
    }

    /// Participants of the in-flight round matching a predicate, in
    /// deterministic (sorted) order.
    fn participants_where(&self, pred: impl Fn(u64) -> bool) -> Vec<u64> {
        self.active
            .as_ref()
            .map(|r| {
                r.state
                    .participants()
                    .into_iter()
                    .map(|d| d.0)
                    .filter(|&d| pred(d))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Kills the Coordinator mid-run: the in-flight round dies with it,
    /// the stale lease is evicted with an epoch fence, several watchers
    /// race to respawn, and the winner's incarnation must resume the
    /// committed model without an extra checkpoint write.
    fn crash_coordinator(&mut self, now: u64) {
        let Some(dead) = self.coordinator.take() else {
            return;
        };
        let lost_round = self.active.take().map(|r| r.state.round.0);
        let pre_params = dead.global_params(TASK_NAME).ok();
        let pre_writes = dead.store().write_count();
        // The dead incarnation's abort tally would reset with it; bank it.
        self.report.secagg_shard_aborts += dead.secagg_shard_aborts();
        let store = dead.into_store();
        self.report.log.record(
            now,
            "inject.coordinator-crash",
            format!("in-flight={lost_round:?}"),
        );
        // The dead incarnation never released its lease; each racing
        // watcher attempts an *atomic fenced takeover* of the epoch it
        // saw die (see `LockingService::replace_stale` — an evict-then-
        // acquire pair has a TOCTOU hole). If the lease was already gone
        // (an injected lease loss preceded the crash) the racers fall
        // back to plain acquisition of the free name.
        let stale_epoch = self.lease.take().map(|l| l.epoch);
        let mut winners = 0u64;
        let mut won = None;
        for _ in 0..self.config.respawn_racers {
            let attempt = match stale_epoch {
                Some(epoch) => {
                    self.locks
                        .replace_stale(&self.lease_name, epoch, "coordinator".to_string())
                }
                None => self.locks.acquire(&self.lease_name, "coordinator".to_string()),
            };
            if let Some(lease) = attempt {
                winners += 1;
                won = Some(lease);
            }
        }
        if winners != 1 {
            self.report.violations.push(format!(
                "t={now}: coordinator respawned {winners} times, expected exactly 1"
            ));
        }
        self.report.respawns += 1;
        self.lease = won;
        self.coordinator = Some(self.deployment.new_coordinator(store));
        if !self.deploy_current(now) {
            self.report
                .violations
                .push(format!("t={now}: respawned coordinator failed to deploy"));
            return;
        }
        // Resume, don't clobber: same write count, same committed model.
        if self.write_count() != pre_writes {
            self.report
                .violations
                .push(format!("t={now}: respawn wrote an extra checkpoint"));
        }
        if self
            .coordinator
            .as_ref()
            .and_then(|c| c.global_params(TASK_NAME).ok())
            != pre_params
        {
            self.report
                .violations
                .push(format!("t={now}: respawn clobbered the committed model"));
        }
        self.report.log.record(
            now,
            "recover.respawn",
            format!(
                "epoch={:?} resumed checkpoint r={:?}",
                self.lease.as_ref().map(|l| l.epoch),
                self.latest_round()
            ),
        );
        self.queue.schedule_at(now, Event::BeginRound);
    }

    /// Lets an in-flight round run out past the horizon: it must reach a
    /// terminal phase within its own timeouts ("never hang").
    fn drain_after_horizon(&mut self) {
        let mut now = self.config.horizon_ms;
        let deadline = self.active_since + self.round_deadline_ms();
        while let Some(mut round) = self.active.take() {
            now += self.config.tick_ms;
            round.on_tick(now);
            if round.state.outcome().is_some() {
                self.complete(now, round);
                break;
            }
            if now > deadline {
                self.report.violations.push(format!(
                    "t={now}: round r={} never reached a terminal phase",
                    round.state.round.0
                ));
                break;
            }
            self.active = Some(round);
        }
    }

    fn finish(mut self) -> ChaosReport {
        self.report.final_write_count = self.write_count();
        self.report.secagg_shard_aborts += self
            .coordinator
            .as_ref()
            .map(|c| c.secagg_shard_aborts())
            .unwrap_or(0);
        self.report.wire = self.wire.stats();
        // The paper's storage audit: one write at deployment plus one per
        // committed round; per-device updates are never persisted.
        if self.report.final_write_count != 1 + self.report.committed {
            self.report.violations.push(format!(
                "write_count {} != 1 + committed {}",
                self.report.final_write_count, self.report.committed
            ));
        }
        let crashes = self
            .plan
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::CoordinatorCrash { .. }))
            .count() as u64;
        if self.report.respawns != crashes {
            self.report.violations.push(format!(
                "respawns {} != coordinator crashes {}",
                self.report.respawns, crashes
            ));
        }
        // "In all cases the system will continue to make progress"
        // (Sec. 4.4): something terminal must have happened.
        let progress = self.report.committed
            + self.report.abandoned
            + self.report.lost_to_storage
            + self.report.master_restarts
            + self.report.secagg_round_aborts;
        if progress == 0 {
            self.report
                .violations
                .push("no terminal round progress over the whole horizon".into());
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_seed_deterministic() {
        let a = FaultPlan::generate(42, 240_000);
        let b = FaultPlan::generate(42, 240_000);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 240_000);
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn timed_faults_leave_recovery_headroom() {
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(seed, 240_000);
            assert!(!plan.faults.is_empty());
            for f in &plan.faults {
                if let Some(at) = f.at_ms() {
                    assert!(at < 180_000, "fault at {at} too close to horizon");
                }
            }
            for attempt in plan.storage_failures() {
                assert!(attempt >= 2, "attempt 1 is the deployment write");
            }
        }
    }

    #[test]
    fn fault_free_run_just_trains() {
        let plan = FaultPlan {
            seed: 5,
            faults: vec![],
        };
        let report = run_chaos(&plan, &ChaosConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.committed >= 3, "report: {}", report.render());
        assert_eq!(report.final_write_count, 1 + report.committed);
        assert_eq!(report.respawns, 0);
    }

    #[test]
    fn secagg_fault_free_run_commits_and_pays_the_wire_premium() {
        let plan = FaultPlan {
            seed: 5,
            faults: vec![],
        };
        let plain = run_chaos(&plan, &ChaosConfig::default());
        let secagg = run_chaos(&plan, &secagg_config(2));
        assert!(secagg.is_clean(), "violations: {:?}", secagg.violations);
        assert!(secagg.committed >= 3, "report: {}", secagg.render());
        assert_eq!(secagg.final_write_count, 1 + secagg.committed);
        assert_eq!(secagg.secagg_shard_aborts, 0);
        assert_eq!(secagg.secagg_round_aborts, 0);
        // Field vectors are 8 bytes per coordinate vs. 4 for f32 updates:
        // the SecAgg premium must show in the measured uplink bytes.
        assert!(
            secagg.wire.bytes_sent > plain.wire.bytes_sent,
            "secagg uplink {} <= plain uplink {}",
            secagg.wire.bytes_sent,
            plain.wire.bytes_sent
        );
    }

    #[test]
    fn secagg_heavy_dropout_burst_aborts_cleanly() {
        // A 90% burst mid-reporting strands SecAgg groups below their
        // protocol thresholds; the run must stay clean — aborted shards
        // (or whole rounds) never poison storage and progress continues.
        let plan = FaultPlan {
            seed: 9,
            faults: vec![
                Fault::DropoutBurst {
                    at_ms: 14_000,
                    per_mille: 900,
                },
                Fault::DropoutBurst {
                    at_ms: 44_000,
                    per_mille: 900,
                },
            ],
        };
        let report = run_chaos(&plan, &secagg_config(2));
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.final_write_count, 1 + report.committed);
        assert!(
            report.secagg_shard_aborts + report.secagg_round_aborts >= 1,
            "bursts never stranded a group below threshold: {}",
            report.render()
        );
        assert!(report.committed >= 1, "report: {}", report.render());
    }

    #[test]
    fn secagg_sweep_replays_byte_identically() {
        let config = secagg_config(2);
        for seed in default_secagg_seeds() {
            let plan = FaultPlan::generate(seed, config.horizon_ms);
            let a = run_chaos(&plan, &config);
            let b = run_chaos(&plan, &config);
            assert!(a.is_clean(), "seed {seed}: {:?}", a.violations);
            assert_eq!(a.render(), b.render(), "seed {seed} replay diverged");
        }
    }

    /// A Selector crash loses exactly the devices that Selector held
    /// (Sec. 4.4): the replacement starts empty, the other Selector is
    /// untouched, and training carries on.
    #[test]
    fn selector_crash_loses_exactly_its_held_devices() {
        let config = ChaosConfig::default();
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::SelectorCrash {
                at_ms: 12_000,
                selector: 0,
            }],
        };
        let mut h = Harness::new(&plan, &config, 0);
        assert!(h.start());
        while let Some((now, event)) = h.queue.next_before(11_999) {
            h.handle(now, event);
        }
        let held_before: Vec<usize> = h.selectors.iter().map(|s| s.connected_count()).collect();
        assert!(held_before[0] > 0, "the crash must have something to lose");
        // Faults were scheduled before anything else due at their instant.
        let (now, event) = h.queue.next().expect("the fault is still queued");
        assert_eq!((now, &event), (12_000, &Event::Fault(0)));
        h.handle(now, event);
        assert_eq!(h.selectors[0].connected_count(), 0);
        assert_eq!(h.selectors[1].connected_count(), held_before[1]);

        while let Some((now, event)) = h.queue.next_before(config.horizon_ms) {
            h.handle(now, event);
        }
        h.drain_after_horizon();
        let report = h.finish();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.committed >= 1, "report: {}", report.render());
    }

    #[test]
    fn schedule_seed_zero_is_the_canonical_schedule() {
        let config = ChaosConfig::default();
        let plan = FaultPlan::generate(23, config.horizon_ms);
        assert_eq!(
            run_chaos(&plan, &config).render(),
            run_chaos_with_schedule(&plan, &config, 0).render()
        );
    }

    #[test]
    fn schedule_permutations_stay_clean_and_replay_byte_identically() {
        let config = ChaosConfig::default();
        let plan = FaultPlan::generate(11, config.horizon_ms);
        for schedule in [1u64, 5, 9] {
            let a = run_chaos_with_schedule(&plan, &config, schedule);
            let b = run_chaos_with_schedule(&plan, &config, schedule);
            assert!(a.is_clean(), "schedule {schedule}: {:?}", a.violations);
            assert_eq!(
                a.render(),
                b.render(),
                "schedule {schedule} replay diverged"
            );
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        let config = ChaosConfig::default();
        let run = |seed: u64| {
            let plan = FaultPlan::generate(seed, config.horizon_ms);
            run_chaos(&plan, &config).render()
        };
        for seed in [11, 23, 47] {
            assert_eq!(run(seed), run(seed), "seed {seed} replay diverged");
        }
    }
}
