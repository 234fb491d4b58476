//! The scenario engine: one seeded virtual-clock driver over the real
//! Selector / Coordinator / Aggregator / wire stack, with one Coordinator
//! per population.
//!
//! The paper runs every population through the same Selector →
//! Coordinator → Aggregator machinery (Sec. 2.1, 4.2) and closes one
//! flow-control loop around all of them (Sec. 2.3): pace steering spreads
//! check-ins, Selectors shed what still arrives faster than capacity, and
//! devices cooperate with jittered backoff and retry budgets. [`run`]
//! drives that loop end to end through the production code paths — the
//! real [`Selector`] (admission control, staleness eviction, closed-loop
//! `PaceController`, shared fair-share budget), a real [`Coordinator`]
//! per population over its own checkpoint store, each round's
//! [`MasterAggregator`] (SecAgg when the population asks for it), and
//! the real device-side retry discipline — with every check-in,
//! configuration, report, and ack crossing an in-memory wire as a framed
//! [`WireMessage`]. A round runs the shipped path: `begin_round`, each
//! report frame through [`ActiveRound::on_report`], each forwarded one
//! folded by `MasterAggregator::accept_forwarded`, then `complete_round`.
//!
//! [`crate::chaos`], [`crate::overload`] and [`crate::multi`] only name
//! calibrated [`ScenarioConfig`]s: a run of any of them is [`run`], and
//! what it reports is the one [`ScenarioOutcome`] and its one
//! [`ScenarioOutcome::render`]. A single-population overload run is this
//! engine with one [`PopulationLoad`]. The one thing the families
//! legitimately disagree on is what a *device* is, and that is the
//! [`Fleet`] seam; nothing else in the loop knows which entry point
//! built its config.
//!
//! Every run ends in one audit (see `audit`); its flow-control checks key
//! on each population's [`LoadShape`], not on the entry point. Everything
//! is a pure function of the config (seed included), so two runs of one
//! config agree byte for byte.

use crate::chaos::{storage_failures, Fault};
use crate::des::EventQueue;
use fl_actors::{Lease, LockingService};
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_analytics::FaultLog;
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_core::population::{TaskGroup, TaskSelectionStrategy};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{CoreError, DeviceId, FlPlan, FlTask, PopulationName, RetryPolicy, RoundId};
use fl_device::conditions::DeviceConditions;
use fl_device::connectivity::ConnectivityManager;
use fl_device::session::{report_frame, DeviceSession, Payload};
use fl_device::tenancy::DeviceTenancy;
use fl_ml::rng;
use fl_server::aggregator::{DropStage, MasterAggregator};
use fl_server::coordinator::{ActiveRound, Coordinator, CoordinatorConfig, ReportVerdict};
use fl_server::pace::PaceSteering;
use fl_server::round::{CheckinResponse, Phase};
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionBudget, GlobalAdmissionConfig};
use fl_server::storage::{CheckpointStore, FaultyCheckpointStore, InMemoryCheckpointStore};
use fl_server::topology::{DeploymentSpec, SelectorSpec, TopologyBlueprint};
use fl_server::wire::{ChannelTransport, Transport, WireMessage, WireStats};
use rand::rngs::StdRng;
use rand::Rng;

/// The model every population trains: the engine models the control
/// plane, so one small plan serves them all.
const MODEL: ModelSpec = ModelSpec::Logistic {
    dim: 4,
    classes: 2,
    seed: 7,
};
/// Devices per Aggregator shard of every round's Master.
const SHARD_CAPACITY: usize = 33;
/// The fault domains of [`Fault::AggregatorCrash`]: a participant
/// belongs to shard device id modulo this count.
const AGGREGATOR_SHARDS: u64 = 3;
/// Watchers that race to respawn a crashed Coordinator; exactly one may
/// win.
const RESPAWN_RACERS: u64 = 4;
/// Pace windows allowed between a herd's or a flash crowd's onset and
/// shed-rate convergence.
const CONVERGENCE_BUDGET_WINDOWS: u64 = 5;

/// Each population's checkpoint store.
type Store = FaultyCheckpointStore<InMemoryCheckpointStore>;

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
    /// Faults injected into every population (Sec. 4.2, 4.4); empty for
    /// a fault-free run. See [`crate::chaos`].
    pub faults: Vec<Fault>,
    /// The populations sharing the fleet; at least one.
    pub populations: Vec<PopulationLoad>,
}

/// One population's ledger at the end of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PopulationOutcome {
    /// Population name.
    pub name: &'static str,
    /// The [`LoadShape::name`] of the population's disturbance.
    pub shape: &'static str,
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
    /// Rounds committed to storage.
    pub committed: u64,
    /// Rounds the protocol abandoned (timeouts, drop-outs).
    pub abandoned: u64,
    /// Rounds whose aggregate was lost to a failed checkpoint write.
    pub lost_to_storage: u64,
    /// SecAgg Aggregator groups stranded below threshold in rounds that
    /// still committed from the surviving groups.
    pub secagg_shard_aborts: u64,
    /// Committed-by-the-state-machine rounds whose aggregate was lost
    /// because every SecAgg group fell below threshold.
    pub secagg_round_aborts: u64,
    /// Checkpoint writes the population's store took (one deployment
    /// write plus one per committed round).
    pub write_count: u64,
    /// Reports `on_report` forwarded in the rounds that committed.
    pub forwarded: u64,
    /// Reports those rounds' Masters folded.
    pub folded: u64,
    /// Rounds in flight lost to a Master Aggregator crash.
    pub master_restarts: u64,
    /// Coordinator respawns (one per Coordinator crash).
    pub respawns: u64,
    /// Respawns whose race had no winner or more than one.
    pub contested_respawns: u64,
    /// Respawned incarnations that did not resume the committed model.
    pub clobbered_models: u64,
    /// Commits that did not write exactly one checkpoint, one id past the
    /// previous.
    pub misnumbered_commits: u64,
    /// Paths that must persist nothing — an abandoned, aborted or
    /// write-failed round, a lost Master, a respawn — that moved the write
    /// count or the latest checkpoint id.
    pub leaked_writes: u64,
    /// Lease re-acquisitions after a lease loss.
    pub lease_reacquisitions: u64,
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
    /// Windows from the latest disturbance's onset (the run's start when
    /// no population has one) until the shed rate settled; `None` when it
    /// never did.
    pub convergence_windows: Option<u64>,
    /// Accept / shed / retry telemetry, finalized at the horizon.
    pub metrics: OverloadMetrics,
    /// Bytes-on-wire counters from the device end of the in-memory wire.
    pub wire: WireStats,
    /// Every injected fault and observed recovery, in virtual-clock order.
    pub log: FaultLog,
    /// Engine-level invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl ScenarioOutcome {
    /// Whether the engine and its audit found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The ledger of the named population, if it ran.
    pub fn population(&self, name: &str) -> Option<&PopulationOutcome> {
        self.populations.iter().find(|p| p.name == name)
    }

    /// Canonical text form, byte-identical across replays of one config:
    /// one line per population with every counter keyed by its field
    /// name, the aggregate ledger, the wire, the shed series, the
    /// telemetry panel, the violations and the fault log.
    pub fn render(&self) -> String {
        // Keys are the field names, so a counter cannot be misnamed.
        macro_rules! counters {
            ($p:expr; $($field:ident),*) => { [$((stringify!($field), $p.$field)),*] };
        }
        let mut out = String::new();
        for p in &self.populations {
            out.push_str(&format!("pop {} shape={}", p.name, p.shape));
            let counters = counters!(p; offered, accepted, shed, rejected_other, budget_admits,
                budget_sheds, retries, budget_exhaustions, rounds_started, rounds_terminal,
                committed, abandoned, lost_to_storage, secagg_shard_aborts, secagg_round_aborts,
                write_count, forwarded, folded, master_restarts, respawns, contested_respawns,
                clobbered_models, misnumbered_commits, leaked_writes, lease_reacquisitions);
            for (key, value) in counters {
                out.push_str(&format!(" {key}={value}"));
            }
            out.push('\n');
        }
        let convergence = self
            .convergence_windows
            .map_or_else(|| "never".to_string(), |w| w.to_string());
        let fractions: Vec<String> = self
            .metrics
            .shed_fractions()
            .iter()
            .map(|f| format!("{f:.3}"))
            .collect();
        out.push_str(&format!(
            "accepted_total={} rejected_total={} arbitration_losses={} evicted={}\n\
             max_queue_depth={} population_estimate_final={} population_estimate_peak={} \
             alerts={} convergence_windows={convergence}\n\
             wire up_frames={} up_bytes={} down_frames={} down_bytes={}\n\
             shed_fractions={}\n",
            self.accepted_total,
            self.rejected_total,
            self.arbitration_losses,
            self.evicted,
            self.max_queue_depth,
            self.population_estimate_final,
            self.population_estimate_peak,
            self.metrics.alerts().len(),
            self.wire.frames_sent,
            self.wire.bytes_sent,
            self.wire.frames_received,
            self.wire.bytes_received,
            fractions.join(" "),
        ));
        out.push_str(&self.metrics.render_population_panel());
        crate::render_violations(&mut out, &self.violations);
        out.push_str("--- fault log ---\n");
        out.push_str(&self.log.render());
        out
    }
}

/// Windows from `onset_window` until the shed-fraction series settles: the
/// first window from which every later window stays within 0.15 of the
/// final steady level (the mean of the last three windows).
fn shed_convergence(fractions: &[f64], onset_window: usize) -> Option<u64> {
    if fractions.len() < onset_window + 4 {
        return None;
    }
    let tail = &fractions[fractions.len() - 3..];
    let steady = tail.iter().sum::<f64>() / tail.len() as f64;
    (onset_window..fractions.len())
        .find(|&w| fractions[w..].iter().all(|f| (f - steady).abs() <= 0.15))
        .map(|w| (w - onset_window) as u64)
}

/// The one audit that ends every engine run: what holds for every
/// configuration, read off the finished outcome. Per population, every
/// started round reached a terminal state and at least one committed;
/// the store took exactly one write at deployment plus one per committed
/// round — per-device updates never reach it (Sec. 4.2); each commit
/// advanced the checkpoint id by exactly one, and no path that must
/// persist nothing moved the store; each committed round's Master folded
/// exactly the reports `on_report` forwarded; and every Coordinator crash
/// was respawned exactly once, by exactly one racer (Sec. 4.2: respawn
/// "will happen exactly once"), resuming the committed model. Across
/// populations, the Selectors' per-population ledgers sum exactly to the
/// decisions the engine saw them hand out (the multi-tenant bookkeeping
/// loses no check-in), and no held-connection queue outgrew its bound.
/// Flow control (Sec. 2.3), keyed on each population's shape: after a
/// thundering herd or a flash crowd the shed rate settles within
/// `CONVERGENCE_BUDGET_WINDOWS` (a diurnal ramp never ends, and a steady
/// population has no onset to settle from), and after a flash crowd's
/// onset every other population still gets accepts.
fn audit(outcome: &ScenarioOutcome, config: &ScenarioConfig) -> Vec<String> {
    let mut violations = Vec::new();
    let crashes = config
        .faults
        .iter()
        .filter(|f| matches!(f, Fault::CoordinatorCrash { .. }))
        .count() as u64;
    for o in &outcome.populations {
        if o.respawns != crashes {
            violations.push(format!(
                "population {}: respawns {} != coordinator crashes {crashes}",
                o.name, o.respawns
            ));
        }
        for (count, what) in [
            (o.contested_respawns, "respawn races without exactly one winner"),
            (o.clobbered_models, "respawns that changed the committed model"),
            (o.misnumbered_commits, "commits not one write advancing the checkpoint id by 1"),
            (o.leaked_writes, "paths that must persist nothing but moved the store"),
        ] {
            if count != 0 {
                violations.push(format!("population {}: {what}: {count}", o.name));
            }
        }
        if o.rounds_terminal != o.rounds_started {
            violations.push(format!(
                "population {}: {} of {} started rounds never reached a terminal state",
                o.name,
                o.rounds_started.saturating_sub(o.rounds_terminal),
                o.rounds_started
            ));
        }
        if o.committed == 0 {
            violations.push(format!("population {} never committed a round", o.name));
        }
        if o.write_count != 1 + o.committed {
            violations.push(format!(
                "population {}: write_count {} != 1 + committed {}",
                o.name, o.write_count, o.committed
            ));
        }
        if o.folded != o.forwarded {
            violations.push(format!(
                "population {}: Masters folded {} of {} forwarded reports",
                o.name, o.folded, o.forwarded
            ));
        }
    }
    let accepted: u64 = outcome.populations.iter().map(|o| o.accepted).sum();
    let rejected: u64 = outcome.populations.iter().map(|o| o.offered - o.accepted).sum();
    if accepted != outcome.accepted_total {
        violations.push(format!(
            "per-population accepts {accepted} != aggregate {}",
            outcome.accepted_total
        ));
    }
    if rejected != outcome.rejected_total {
        violations.push(format!(
            "per-population rejects {rejected} != aggregate {}",
            outcome.rejected_total
        ));
    }
    if outcome.max_queue_depth > config.admission.max_inflight {
        violations.push(format!(
            "queue depth {} exceeded bound {}",
            outcome.max_queue_depth, config.admission.max_inflight
        ));
    }
    let disturbed = config.populations.iter().any(|p| {
        matches!(p.shape, LoadShape::ThunderingHerd { .. } | LoadShape::FlashCrowd { .. })
    });
    if disturbed {
        match outcome.convergence_windows {
            Some(w) if w <= CONVERGENCE_BUDGET_WINDOWS => {}
            Some(w) => violations.push(format!(
                "shed rate took {w} windows to converge (budget {CONVERGENCE_BUDGET_WINDOWS})"
            )),
            None => violations.push("shed rate never converged".into()),
        }
    }
    for crowd in &config.populations {
        let LoadShape::FlashCrowd { at_ms, .. } = crowd.shape else {
            continue;
        };
        let onset_window = (at_ms / config.window_ms) as usize;
        for other in config.populations.iter().filter(|p| p.name != crowd.name) {
            let accepts: f64 = outcome
                .metrics
                .population_series(&PopulationName::new(other.name))
                .map_or(0.0, |s| s.accepts.sums().iter().skip(onset_window).sum());
            if accepts == 0.0 {
                violations.push(format!(
                    "population {} starved after the flash crowd in {}",
                    other.name, crowd.name
                ));
            }
        }
    }
    violations
}

/// The engine's in-memory wire: both ends of one
/// [`ChannelTransport`] pair. Every device↔server exchange crosses it as
/// a framed [`WireMessage`] — the protocol the live topology and the TCP
/// front door speak — and frames are pure functions of the messages, so
/// the byte counters replay identically per seed.
struct SimWire {
    device: ChannelTransport,
    server: ChannelTransport,
}

impl SimWire {
    fn new() -> Self {
        let (device, server) = ChannelTransport::pair();
        SimWire { device, server }
    }

    /// Sends `msg` up the wire and returns what the server side decoded
    /// (a frame a codec bug made undecodable is `None`, like a lost one).
    fn wire_uplink(
        &self,
        now: u64,
        msg: &WireMessage,
        violations: &mut Vec<String>,
    ) -> Option<WireMessage> {
        fl_server::wire::decode(&self.wire_uplink_frame(now, msg, violations)?).ok()
    }

    /// Sends `msg` up the wire and returns the frame the server side
    /// received, unopened; a lost or unsendable frame is an invariant
    /// violation.
    fn wire_uplink_frame(
        &self,
        now: u64,
        msg: &WireMessage,
        violations: &mut Vec<String>,
    ) -> Option<Vec<u8>> {
        if self.device.send(msg).is_err() {
            violations.push(format!("t={now}: wire uplink send failed"));
            return None;
        }
        let frame = self.server.try_recv_frame().ok().flatten();
        if frame.is_none() {
            violations.push(format!("t={now}: frame lost on the uplink"));
        }
        frame
    }

    /// Sends a server reply down the wire and has the device side consume
    /// it, so the device-end received counters see every downlink frame.
    fn wire_downlink(&self, msg: &WireMessage) {
        let _ = self.server.send(msg);
        while let Ok(Some(_)) = self.device.try_recv() {}
    }

    /// The device end's counters.
    fn stats(&self) -> WireStats {
        self.device.stats()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Fault `i` of the config fires.
    Fault(usize),
    /// A device's wake chain fires: it attempts a check-in.
    Wake { device: u64, gen: u32 },
    /// Selection of `pop`'s round `seq` opens.
    Open { pop: usize, seq: u64 },
    /// Every population's Coordinator asks the Selectors for forwards.
    Forward,
    /// A selected device finishes training and uploads for `pop`, under
    /// the checkpoint round its Configuration carried.
    Report { device: u64, pop: usize, key: RoundId },
    /// Timeout check of `pop`'s round `seq`.
    RoundTick { pop: usize, seq: u64 },
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
    /// Until when the device cannot reach the Selector layer (its
    /// Selector crashed).
    offline_until: u64,
}

/// A population's round in flight.
struct PopRound {
    /// The round's 1-based number among its population's rounds: a
    /// `RoundTick` of an earlier round is stale.
    seq: u64,
    round: ActiveRound,
    /// The round's Master Aggregator, which folds what `on_report`
    /// forwards.
    master: Option<MasterAggregator>,
    /// Reports `on_report` forwarded so far.
    forwarded: u64,
    /// Devices forwarded into the round before Configuration fired.
    pending: Vec<u64>,
    /// Whether Selection has opened.
    open: bool,
    /// The plan and checkpoint every selected device downloads.
    configuration: WireMessage,
}

struct Engine<'a> {
    config: &'a ScenarioConfig,
    names: Vec<PopulationName>,
    targets: Vec<usize>,
    /// Coordinates of every update: the plan's model size.
    dim: usize,
    /// What the Selector layer is built from — the live topology's
    /// blueprint — kept so a crashed Selector is rebuilt as it was born.
    blueprint: TopologyBlueprint,
    budget: Option<GlobalAdmissionBudget>,
    selectors: Vec<Selector>,
    /// Crashed Selectors: the decisions they handed out still count.
    retired: Vec<Selector>,
    /// What each population's Coordinator deploys, kept so a respawned
    /// incarnation redeploys the identical thing.
    deployments: Vec<DeploymentSpec>,
    coordinators: Vec<Coordinator<Store>>,
    locks: LockingService<String>,
    /// Each Coordinator's lease; `None` after a lease loss until it is
    /// re-acquired.
    leases: Vec<Option<Lease>>,
    /// Each population's round in flight; `None` once no further round
    /// opens before the horizon.
    rounds: Vec<Option<PopRound>>,
    rng: StdRng,
    queue: EventQueue<Event>,
    metrics: OverloadMetrics,
    devices: Vec<Device>,
    ledgers: Vec<PopulationOutcome>,
    wire: SimWire,
    log: FaultLog,
    accepted_total: u64,
    rejected_total: u64,
    max_queue_depth: usize,
    population_estimate_peak: u64,
    violations: Vec<String>,
}

/// Drives one seeded scenario to its horizon and audits it. See the
/// module docs. Equivalent to [`run_with_schedule`] with schedule seed 0.
///
/// # Panics
///
/// Panics when `config.populations` is empty.
pub fn run(config: &ScenarioConfig) -> ScenarioOutcome {
    run_with_schedule(config, 0)
}

/// [`run`] under an alternative *schedule*: `schedule_seed` perturbs only
/// the engine's timing stream (wake jitter, report latencies, retry
/// jitter) — a legal permutation of device timing — while the faults,
/// the topology and every protocol state machine stay as they are. Seed 0
/// is the canonical schedule; each (config, schedule seed) pair replays
/// byte for byte.
///
/// # Panics
///
/// Panics when `config.populations` is empty.
pub fn run_with_schedule(config: &ScenarioConfig, schedule_seed: u64) -> ScenarioOutcome {
    assert!(
        !config.populations.is_empty(),
        "a scenario needs at least one population"
    );
    let mut engine = Engine::new(config, schedule_seed);
    engine.run_until(config.horizon_ms);
    engine.drain_after_horizon();
    engine.finish()
}

impl<'a> Engine<'a> {
    fn new(config: &'a ScenarioConfig, schedule_seed: u64) -> Self {
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
        let schedule_salt = match schedule_seed {
            0 => 0,
            seed => rng::derive_seed(seed, 0),
        };

        // The Selector layer comes from the same blueprint the live
        // topology builds from (device id modulo the count).
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

        // One Coordinator per population, each over its own store, all
        // deploying the one plan.
        let dim = MODEL.num_params();
        let deployments: Vec<DeploymentSpec> = config
            .populations
            .iter()
            .map(|spec| {
                let mut task = FlTask::training(spec.name, spec.name).with_round(spec.round);
                if let Some(k) = spec.secagg_k {
                    task = task.with_secagg(k);
                }
                DeploymentSpec {
                    config: CoordinatorConfig {
                        max_per_shard: SHARD_CAPACITY,
                        ..CoordinatorConfig::new(spec.name, config.seed)
                    },
                    group: TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
                    plans: vec![FlPlan::standard_training(MODEL, 1, 8, 0.1, CodecSpec::Identity)],
                    initial_params: vec![0.0; dim],
                }
            })
            .collect();
        let coordinators = deployments
            .iter()
            .map(|d| {
                let store = Store::new(
                    InMemoryCheckpointStore::new(),
                    storage_failures(&config.faults),
                );
                d.new_coordinator(store)
            })
            .collect();

        let npop = config.populations.len();
        let mut engine = Engine {
            config,
            targets,
            dim,
            budget: blueprint.build_global_budget(),
            blueprint,
            selectors: Vec::new(),
            retired: Vec::new(),
            deployments,
            coordinators,
            locks: LockingService::new(),
            leases: Vec::new(),
            rounds: (0..npop).map(|_| None).collect(),
            rng: rng::seeded(config.seed ^ rng_salt ^ schedule_salt),
            queue: EventQueue::new(),
            metrics: OverloadMetrics::new(
                OverloadMonitorConfig {
                    bucket_ms: config.window_ms,
                    ..OverloadMonitorConfig::default()
                },
                0,
            ),
            devices: Vec::new(),
            ledgers: config
                .populations
                .iter()
                .map(|spec| PopulationOutcome {
                    name: spec.name,
                    shape: spec.shape.name(),
                    ..PopulationOutcome::default()
                })
                .collect(),
            wire: SimWire::new(),
            log: FaultLog::new(),
            names,
            accepted_total: 0,
            rejected_total: 0,
            max_queue_depth: 0,
            population_estimate_peak: 0,
            violations: Vec::new(),
        };
        engine.selectors = (0..n as usize).map(|i| engine.fresh_selector(i)).collect();
        for p in 0..npop {
            engine.deploy(p, 0);
            let lease = engine.locks.acquire(engine.lease_name(p), "coordinator".to_string());
            engine.leases.push(lease);
        }
        // Faults go first, so each fires before anything else due at its
        // instant.
        for (i, fault) in config.faults.iter().enumerate() {
            if let Some(at) = fault.at_ms() {
                engine.queue.schedule_at(at, Event::Fault(i));
            }
        }

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
            engine.begin_round(p, 0);
        }
        engine
    }

    /// Handles every event due at or before `until_ms`.
    fn run_until(&mut self, until_ms: u64) {
        while let Some((now, event)) = self.queue.next_before(until_ms) {
            self.handle(now, event);
            self.settle(now);
        }
    }

    /// Selector `i` as the blueprint builds it: wired to the shared
    /// budget and serving every population at its own quota, set the way
    /// `spawn_multi_topology` sets them through `with_route`.
    fn fresh_selector(&self, i: usize) -> Selector {
        let mut selector = self.blueprint.selectors[i].build(self.budget.as_ref());
        for (spec, name) in self.config.populations.iter().zip(&self.names) {
            selector.set_population_quota(name.clone(), spec.quota);
        }
        selector
    }

    /// The lock population `p`'s Coordinator holds.
    fn lease_name(&self, p: usize) -> String {
        format!("coordinator/{}", self.names[p])
    }

    /// Deploys population `p`'s spec on its Coordinator — resume-aware,
    /// so a respawned incarnation keeps the committed model and writes
    /// nothing. A scripted storage failure is retried (a run scripts
    /// finitely many, so the retry ends); any other error is a violation.
    fn deploy(&mut self, p: usize, now: u64) {
        loop {
            let name = &self.names[p];
            match self.deployments[p].deploy_on(&mut self.coordinators[p]) {
                Ok(()) => return,
                Err(why @ CoreError::StorageFailure(_)) => {
                    self.log
                        .record(now, "inject.storage-write-failure", format!("{name} {why}"));
                    let what = format!("{name} retries the deployment write");
                    self.log.record(now, "recover.redeploy", what);
                }
                Err(e) => {
                    let what = format!("t={now}: {name}: deployment failed: {e}");
                    return self.violations.push(what);
                }
            }
        }
    }

    /// Population `p`'s store as `(write count, latest checkpoint id)`.
    fn stored(&self, p: usize) -> (u64, Option<u64>) {
        let store = self.coordinators[p].store();
        let latest = store.latest(self.config.populations[p].name).ok();
        (store.write_count(), latest.map(|checkpoint| checkpoint.round.0))
    }

    /// Counts a leaked write when population `p`'s store no longer reads
    /// `before` after a path that must persist nothing.
    fn check_untouched(&mut self, p: usize, before: (u64, Option<u64>)) {
        self.ledgers[p].leaked_writes += u64::from(self.stored(p) != before);
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
            offline_until: 0,
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

    /// Population `p`'s Coordinator begins its next round, whose Selection
    /// opens at `open_at`.
    fn begin_round(&mut self, p: usize, open_at: u64) {
        let (round, master) = match self.coordinators[p].begin_round(open_at) {
            Ok(begun) => begun,
            Err(e) => {
                let what = format!("t={open_at}: {}: begin_round failed: {e}", self.names[p]);
                return self.violations.push(what);
            }
        };
        let ledger = &mut self.ledgers[p];
        ledger.rounds_started += 1;
        let seq = ledger.rounds_started;
        self.queue.schedule_at(open_at, Event::Open { pop: p, seq });
        let configuration = WireMessage::PlanAndCheckpoint {
            plan: Box::new(round.plan.clone()),
            checkpoint: Box::new(round.checkpoint.clone()),
            population: self.names[p].clone(),
        };
        self.rounds[p] = Some(PopRound {
            seq,
            round,
            master,
            forwarded: 0,
            pending: Vec::new(),
            open: false,
            configuration,
        });
    }

    /// Begins population `p`'s next round at once, its Selection opening
    /// at the first pace-window boundary after `after_ms`: rounds keep the
    /// rendezvous cadence (consumption matches the pace target) instead
    /// of free-running as fast as devices report. No round opens past the
    /// horizon.
    fn begin_next(&mut self, p: usize, after_ms: u64) {
        let window = self.config.window_ms;
        let open_at = (after_ms / window + 1) * window;
        if open_at <= self.config.horizon_ms {
            self.begin_round(p, open_at);
        }
    }

    /// Takes population `p`'s round out of flight as terminal. Devices
    /// forwarded into it but never configured retry through their own
    /// lane.
    fn close_round(&mut self, p: usize, at_ms: u64) -> Option<PopRound> {
        let mut r = self.rounds[p].take()?;
        let reply = WireMessage::ComeBackLater {
            retry_at_ms: at_ms,
            population: self.names[p].clone(),
        };
        for d in std::mem::take(&mut r.pending) {
            self.devices[d as usize].phase = DevPhase::Idle;
            self.reject(d, p, at_ms, &reply);
        }
        self.ledgers[p].rounds_terminal += 1;
        Some(r)
    }

    /// Completes population `p`'s finished round through its Coordinator
    /// and begins the next.
    fn finish_round(&mut self, p: usize, at_ms: u64) {
        let Some(PopRound {
            round,
            master,
            forwarded,
            ..
        }) = self.close_round(p, at_ms)
        else {
            return;
        };
        let ledger = &mut self.ledgers[p];
        if round.commits_training() {
            ledger.forwarded += forwarded;
            ledger.folded += master.as_ref().map_or(0, |m| m.contributors() as u64);
        }
        let aggregate = round.merge(master);
        if let Some(Ok(merged)) = &aggregate {
            // A storm-degraded cohort spreads too thin across the groups:
            // shards below k abort, surviving shards still merge.
            ledger.secagg_shard_aborts += merged.shard_aborts as u64;
            // The telemetry closes at the horizon; a round the drain
            // resolves after it is counted, not charted.
            if at_ms <= self.config.horizon_ms {
                for _ in 0..merged.shard_aborts {
                    self.metrics.record_secagg_abort(at_ms);
                }
            }
        }
        let (name, id) = (ledger.name, round.state.round.0);
        let before = self.stored(p);
        let completed = self.coordinators[p].complete_round(round, aggregate);
        let after = self.stored(p);
        let ledger = &mut self.ledgers[p];
        // A commit writes exactly one checkpoint, one id on; every other
        // outcome persists nothing.
        if matches!(completed, Ok(RoundOutcome::Committed { .. })) {
            let next = (before.0 + 1, before.1.map(|r| r + 1));
            ledger.misnumbered_commits += u64::from(after != next);
        } else {
            ledger.leaked_writes += u64::from(after != before);
        }
        match completed {
            Ok(RoundOutcome::Committed { .. }) => {
                ledger.committed += 1;
                let what = format!("{name} r={id} checkpoint r={:?}", after.1);
                self.log.record(at_ms, "round.committed", what);
            }
            Ok(_) => {
                ledger.abandoned += 1;
                let what = format!("{name} r={id} protocol timeout/drop-out");
                self.log.record(at_ms, "round.abandoned", what);
            }
            // Every SecAgg group fell below threshold: the round is lost
            // whole and nothing reaches storage.
            Err(CoreError::MalformedCheckpoint(why)) if why.contains("below threshold") => {
                ledger.secagg_round_aborts += 1;
                self.log.record(at_ms, "secagg.round-abort", format!("{name} {why}"));
            }
            // The previous checkpoint stays authoritative.
            Err(CoreError::StorageFailure(why)) => {
                ledger.lost_to_storage += 1;
                self.log
                    .record(at_ms, "inject.storage-write-failure", format!("{name} {why}"));
                self.log.record(at_ms, "recover.round-lost", name);
            }
            Err(e) => self
                .violations
                .push(format!("t={at_ms}: {name}: complete_round failed: {e}")),
        }
        self.begin_next(p, at_ms);
    }

    fn handle(&mut self, now: u64, event: Event) {
        let config = self.config;
        let n = self.selectors.len() as u64;
        match event {
            Event::Fault(i) => self.inject(now, &config.faults[i]),
            Event::Open { pop, seq } => {
                if let Some(r) = self.rounds[pop].as_mut().filter(|r| r.seq == seq) {
                    r.open = true;
                    let timeout = config.populations[pop].round.selection_timeout_ms;
                    self.queue.schedule_in(timeout, Event::RoundTick { pop, seq });
                    let what = format!("{} r={}", self.names[pop], r.round.state.round.0);
                    self.log.record(now, "round.begin", what);
                }
            }
            Event::Wake { device, gen } => {
                let dev = &mut self.devices[device as usize];
                if dev.gen != gen || dev.phase == DevPhase::InRound {
                    return;
                }
                if dev.offline_until > now {
                    let at = dev.offline_until;
                    return self.schedule_wake(device, at);
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
                let request =
                    DeviceSession::new(DeviceId(device), self.names[pop].clone()).checkin();
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
                    if self.leases[p].is_none() {
                        self.reacquire_lease(p, now);
                    }
                    let Some(r) = self.rounds[p]
                        .as_mut()
                        .filter(|r| r.open && r.round.state.phase() == Phase::Selection)
                    else {
                        continue;
                    };
                    let mut need = self.targets[p].saturating_sub(r.pending.len());
                    // Drain Selectors in index order until the target is
                    // met. Forwarding is population-filtered: tenants
                    // never receive each other's devices.
                    for selector in &mut self.selectors {
                        if need == 0 {
                            break;
                        }
                        let forwarded = selector.forward_devices_for(&self.names[p], need, now);
                        need = need.saturating_sub(forwarded.len());
                        for d in forwarded {
                            if r.round.on_checkin(d, now) == CheckinResponse::Selected {
                                // The Configuration download crosses the
                                // wire too, so per-round traffic is
                                // measured from real frames.
                                self.wire.wire_downlink(&r.configuration);
                                self.devices[d.0 as usize].phase = DevPhase::InRound;
                                r.pending.push(d.0);
                            }
                        }
                    }
                }
                if now + config.forward_period_ms <= config.horizon_ms {
                    self.queue.schedule_in(config.forward_period_ms, Event::Forward);
                }
            }
            Event::Report { device, pop, key } => {
                self.devices[device as usize].phase = DevPhase::Idle;
                // Payload fields are deterministic per device, so frame
                // bytes replay identically. A SecAgg population uploads
                // the fixed-point field vector, 8 bytes per coordinate on
                // the measured wire (Sec. 6).
                let update = vec![0.1 + (device % 5) as f32 * 0.01; self.dim];
                let payload = if config.populations[pop].secagg_k.is_some() {
                    Payload::Field(&update)
                } else {
                    Payload::Identity(&update)
                };
                let weight = 1 + device % 7;
                let loss = 0.9 - (device % 10) as f64 * 0.02;
                let accuracy = 0.5 + (device % 10) as f64 * 0.03;
                let Ok(report) = report_frame(
                    DeviceId(device),
                    &self.names[pop],
                    (key, 1),
                    payload,
                    (weight, loss, accuracy),
                ) else {
                    self.violations
                        .push(format!("t={now}: fixed-point encode failed"));
                    return;
                };
                // The server side hands the frame it received, unopened,
                // to the round's one report path; an accepted report is
                // folded by the round's Master.
                let Some(frame) = self.wire.wire_uplink_frame(now, &report, &mut self.violations)
                else {
                    return;
                };
                let ack = match self.rounds[pop].as_mut() {
                    Some(r) => {
                        let (ack, verdict) = r.round.on_report(now, &frame);
                        if let ReportVerdict::Forward(route) = verdict {
                            r.forwarded += 1;
                            if let Some(Err(e)) =
                                r.master.as_mut().map(|m| m.accept_forwarded(&route, &frame))
                            {
                                self.violations
                                    .push(format!("t={now}: report aggregation failed: {e}"));
                            }
                        }
                        ack
                    }
                    // No round in flight: refused unevaluated.
                    None => WireMessage::ReportAck {
                        accepted: false,
                        round: key,
                        attempt: 1,
                        population: self.names[pop].clone(),
                    },
                };
                self.wire.wire_downlink(&ack);
                let accepted = matches!(ack, WireMessage::ReportAck { accepted: true, .. });
                let resume = self.devices[device as usize].behaviour.on_report_acked(
                    &self.names[pop],
                    now,
                    accepted,
                    config.populations[pop].period_ms,
                    &mut self.rng,
                );
                match resume {
                    Some(at) => self.schedule_wake(device, at),
                    // A refusing ack charges only the refused
                    // population's lane.
                    None => self.reject(device, pop, now, &ack),
                }
            }
            Event::RoundTick { pop, seq } => {
                let Some(r) = self.rounds[pop].as_mut().filter(|r| r.seq == seq) else {
                    return;
                };
                r.round.on_tick(now);
                let round = &config.populations[pop].round;
                let again = match r.round.state.phase() {
                    Phase::Reporting => round.report_window_ms.min(10_000),
                    Phase::Selection => round.selection_timeout_ms,
                    Phase::Committed | Phase::Abandoned => return,
                };
                self.queue.schedule_in(again, Event::RoundTick { pop, seq });
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

    /// Injects one fault into every population; a Selector crash hits
    /// the Selector layer they share.
    fn inject(&mut self, now: u64, fault: &Fault) {
        self.log.record(now, format!("inject.{}", fault.kind()), format!("{fault:?}"));
        match *fault {
            Fault::SelectorCrash { selector, .. } => self.crash_selector(now, selector),
            Fault::LeaseLoss { .. } => {
                for p in 0..self.leases.len() {
                    self.locks.evict(&self.lease_name(p));
                    self.leases[p] = None;
                }
            }
            // Attempt-keyed: applied inside each FaultyCheckpointStore.
            Fault::StorageWriteFailure { .. } => {}
            _ => {
                for p in 0..self.rounds.len() {
                    self.inject_into(now, p, fault);
                }
            }
        }
    }

    /// Injects a round-level fault into population `p`.
    fn inject_into(&mut self, now: u64, p: usize, fault: &Fault) {
        let secagg = self.config.populations[p].secagg_k.is_some();
        let participants: Vec<DeviceId> = self.rounds[p]
            .as_ref()
            .map(|r| r.round.state.participants())
            .unwrap_or_default();
        match *fault {
            // Only this shard's devices are lost; the round itself must
            // survive (Sec. 4.2).
            Fault::AggregatorCrash { shard, .. } => {
                if let Some(r) = self.rounds[p].as_mut() {
                    for d in participants
                        .into_iter()
                        .filter(|d| d.0 % AGGREGATOR_SHARDS == shard % AGGREGATOR_SHARDS)
                    {
                        r.round.on_dropout(d, now);
                    }
                    let what = format!("{} r={}", self.names[p], r.round.state.round.0);
                    self.log.record(now, "recover.round-continues", what);
                }
            }
            // The round is lost before aggregation completes, so nothing
            // may reach storage, and the next round restarts from the
            // committed checkpoint (Sec. 4.2).
            Fault::MasterCrash { .. } => {
                let before = self.stored(p);
                if let Some(lost) = self.close_round(p, now) {
                    self.check_untouched(p, before);
                    self.ledgers[p].master_restarts += 1;
                    let what = format!("{} r={} restarts", self.names[p], lost.round.state.round.0);
                    self.log.record(now, "recover.round-restart", what);
                    self.begin_next(p, now);
                }
            }
            Fault::CoordinatorCrash { .. } => self.crash_coordinator(now, p),
            Fault::DropoutBurst { per_mille, .. } => {
                let k = match participants.len() as u64 {
                    0 => 0,
                    len => (len * per_mille / 1000).max(1) as usize,
                };
                if let Some(r) = self.rounds[p].as_mut() {
                    for (i, d) in participants.into_iter().take(k).enumerate() {
                        // Alternate the SecAgg stage the burst hits, so one
                        // burst exercises advertise-stage exclusion and
                        // share-stage mask reconstruction.
                        let stage = if secagg && i % 2 == 0 {
                            DropStage::Advertise
                        } else {
                            DropStage::Share
                        };
                        r.round.on_dropout_staged(d, now, stage);
                    }
                }
            }
            Fault::SelectorCrash { .. }
            | Fault::LeaseLoss { .. }
            | Fault::StorageWriteFailure { .. } => {}
        }
    }

    /// A Selector dies and is rebuilt from the blueprint: exactly the
    /// devices it held are lost (Sec. 4.4), the devices routed through it
    /// go offline for three pace windows, and any of them already
    /// participating drop out.
    fn crash_selector(&mut self, now: u64, selector: u64) {
        let n = self.selectors.len() as u64;
        let s = selector % n;
        let fresh = self.fresh_selector(s as usize);
        let dead = std::mem::replace(&mut self.selectors[s as usize], fresh);
        self.retired.push(dead);
        let until = now + 3 * self.config.window_ms;
        for (d, dev) in self.devices.iter_mut().enumerate() {
            if d as u64 % n == s {
                dev.offline_until = until;
            }
        }
        for p in 0..self.rounds.len() {
            let secagg = self.config.populations[p].secagg_k.is_some();
            let Some(r) = self.rounds[p].as_mut() else {
                continue;
            };
            for d in r.round.state.participants().into_iter().filter(|d| d.0 % n == s) {
                // A dead Selector takes its devices out before they share
                // anything: cheap advertise-stage exclusion under SecAgg.
                let stage = if secagg {
                    DropStage::Advertise
                } else {
                    DropStage::Share
                };
                r.round.on_dropout_staged(d, now, stage);
            }
        }
        self.log.record(
            now,
            "recover.devices-rerouted",
            format!("selector={s} offline until t={until}"),
        );
    }

    /// Kills population `p`'s Coordinator: the round in flight dies with
    /// it, several watchers race to respawn it, and the winner's
    /// incarnation must resume the committed model without a write.
    fn crash_coordinator(&mut self, now: u64, p: usize) {
        self.close_round(p, now);
        let before = self.stored(p);
        let model = self.coordinators[p].global_params(self.config.populations[p].name).ok();
        let orphan =
            self.deployments[p].new_coordinator(Store::new(InMemoryCheckpointStore::new(), []));
        let store = std::mem::replace(&mut self.coordinators[p], orphan).into_store();
        // The dead incarnation never released its lease; each racer
        // attempts an atomic fenced takeover of the epoch it saw die (an
        // evict-then-acquire pair has a TOCTOU hole). After a lease loss
        // the racers acquire the free name.
        let name = self.lease_name(p);
        let stale = self.leases[p].take().map(|l| l.epoch);
        let winners: Vec<Lease> = (0..RESPAWN_RACERS)
            .filter_map(|_| match stale {
                Some(epoch) => self.locks.replace_stale(&name, epoch, "coordinator".to_string()),
                None => self.locks.acquire(&name, "coordinator".to_string()),
            })
            .collect();
        let ledger = &mut self.ledgers[p];
        ledger.respawns += 1;
        ledger.contested_respawns += u64::from(winners.len() != 1);
        let epoch = winners.first().map(|l| l.epoch);
        self.leases[p] = winners.into_iter().next();
        self.coordinators[p] = self.deployments[p].new_coordinator(store);
        self.deploy(p, now);
        self.check_untouched(p, before);
        let resumed = self.coordinators[p].global_params(self.config.populations[p].name).ok();
        self.ledgers[p].clobbered_models += u64::from(resumed != model);
        self.log
            .record(now, "recover.respawn", format!("{name} epoch={epoch:?}"));
        self.begin_next(p, now);
    }

    /// A Coordinator without a lease re-registers.
    fn reacquire_lease(&mut self, p: usize, now: u64) {
        let name = self.lease_name(p);
        match self.locks.acquire(&name, "coordinator".to_string()) {
            Some(lease) => {
                let what = format!("{name} epoch={}", lease.epoch);
                self.log.record(now, "recover.lease-reacquired", what);
                self.leases[p] = Some(lease);
                self.ledgers[p].lease_reacquisitions += 1;
            }
            None => self
                .violations
                .push(format!("t={now}: {name}: lease unrecoverable (foreign owner)")),
        }
    }

    fn population_estimate(&self) -> u64 {
        self.selectors
            .iter()
            .map(|s| s.pace_controller().population_estimate())
            .sum()
    }

    /// Acts on the round transitions one event caused: a round that
    /// configured schedules its participants' reports, each within the
    /// device cap, and a round that finished is completed.
    fn settle(&mut self, now: u64) {
        for p in 0..self.rounds.len() {
            let Some(r) = self.rounds[p].as_mut() else {
                continue;
            };
            let round = &self.config.populations[p].round;
            match r.round.state.phase() {
                Phase::Reporting if !r.pending.is_empty() => {
                    let key = r.round.checkpoint.round;
                    for device in std::mem::take(&mut r.pending) {
                        let cap = round.device_cap_ms;
                        let latency = cap / 6 + self.rng.random_range(0..cap / 2);
                        self.queue
                            .schedule_at(now + latency, Event::Report { device, pop: p, key });
                    }
                    self.queue.schedule_in(
                        round.report_window_ms.min(10_000),
                        Event::RoundTick { pop: p, seq: r.seq },
                    );
                }
                Phase::Committed | Phase::Abandoned => self.finish_round(p, now),
                Phase::Selection | Phase::Reporting => {}
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
                let Some(r) = self.rounds[p].as_mut() else {
                    break;
                };
                drain_t += round.selection_timeout_ms
                    + round.report_window_ms
                    + round.device_cap_ms
                    + 1;
                r.round.on_tick(drain_t);
                if r.round.state.phase().is_terminal() {
                    self.finish_round(p, drain_t);
                }
            }
        }
    }

    fn finish(mut self) -> ScenarioOutcome {
        self.metrics.finalize(self.config.horizon_ms);
        // A crashed Selector's decisions still count.
        let selectors: Vec<&Selector> = self.selectors.iter().chain(&self.retired).collect();
        for (p, ledger) in self.ledgers.iter_mut().enumerate() {
            let name = &self.names[p];
            let (accepted, rejected) = selectors
                .iter()
                .map(|s| s.counters_for(name))
                .fold((0, 0), |(a, r), (sa, sr)| (a + sa, r + sr));
            ledger.offered = accepted + rejected;
            ledger.accepted = accepted;
            ledger.shed = selectors.iter().map(|s| s.shed_total_for(name)).sum();
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
            ledger.write_count = self.coordinators[p].store().write_count();
        }
        let evicted = selectors.iter().map(|s| s.evicted_total()).sum();

        let population_estimate_final = self.population_estimate();
        let latest_onset_ms = self.config.populations.iter().map(|p| p.shape.onset_ms()).max();
        let onset_window = (latest_onset_ms.unwrap_or(0) / self.config.window_ms) as usize;
        let mut outcome = ScenarioOutcome {
            populations: self.ledgers,
            accepted_total: self.accepted_total,
            rejected_total: self.rejected_total,
            arbitration_losses: self
                .devices
                .iter()
                .map(|d| d.behaviour.arbitration_losses())
                .sum(),
            evicted,
            max_queue_depth: self.max_queue_depth,
            population_estimate_final,
            population_estimate_peak: self.population_estimate_peak.max(population_estimate_final),
            convergence_windows: shed_convergence(self.metrics.shed_fractions(), onset_window),
            metrics: self.metrics,
            wire: self.wire.stats(),
            log: self.log,
            violations: self.violations,
        };
        let found = audit(&outcome, self.config);
        outcome.violations.extend(found);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean run of `config`, and the audit's verdict on it after
    /// `damage`.
    fn audit_on(config: &ScenarioConfig, damage: impl FnOnce(&mut ScenarioOutcome)) -> Vec<String> {
        let mut outcome = run(config);
        assert!(outcome.is_clean(), "{}", outcome.render());
        damage(&mut outcome);
        audit(&outcome, config)
    }

    /// [`audit_on`] a chaos run with one Coordinator crash.
    fn audit_after(damage: impl FnOnce(&mut ScenarioOutcome)) -> Vec<String> {
        let config = ScenarioConfig {
            seed: 3,
            faults: vec![Fault::CoordinatorCrash { at_ms: 15_000 }],
            ..ScenarioConfig::chaos(None)
        };
        audit_on(&config, damage)
    }

    #[test]
    fn audit_flags_a_started_round_that_never_ended() {
        let mut started = 0;
        let found = audit_after(|o| {
            o.populations[0].rounds_terminal -= 1;
            started = o.populations[0].rounds_started;
        });
        assert_eq!(
            found,
            [format!(
                "population chaos/pop: 1 of {started} started rounds never reached a terminal state"
            )]
        );
    }

    #[test]
    fn audit_flags_a_write_beyond_one_per_commit() {
        let mut counts = (0, 0);
        let found = audit_after(|o| {
            o.populations[0].write_count += 1;
            counts = (o.populations[0].write_count, o.populations[0].committed);
        });
        assert_eq!(
            found,
            [format!(
                "population chaos/pop: write_count {} != 1 + committed {}",
                counts.0, counts.1
            )]
        );
    }

    #[test]
    fn audit_flags_a_selector_ledger_that_loses_a_decision() {
        let mut total = 0;
        let found = audit_after(|o| {
            o.accepted_total += 1;
            total = o.accepted_total;
        });
        assert_eq!(
            found,
            [format!("per-population accepts {} != aggregate {total}", total - 1)]
        );
    }

    #[test]
    fn audit_flags_a_queue_past_its_bound() {
        let found = audit_after(|o| o.max_queue_depth = 25);
        assert_eq!(found, ["queue depth 25 exceeded bound 24"]);
    }

    #[test]
    fn audit_flags_a_respawn_without_its_crash() {
        let found = audit_after(|o| o.populations[0].respawns += 1);
        assert_eq!(
            found,
            ["population chaos/pop: respawns 2 != coordinator crashes 1"]
        );
    }

    #[test]
    fn audit_flags_a_respawn_race_without_one_winner() {
        let found = audit_after(|o| o.populations[0].contested_respawns += 1);
        assert_eq!(
            found,
            ["population chaos/pop: respawn races without exactly one winner: 1"]
        );
    }

    #[test]
    fn audit_flags_a_respawn_that_changed_the_model() {
        let found = audit_after(|o| o.populations[0].clobbered_models += 1);
        assert_eq!(
            found,
            ["population chaos/pop: respawns that changed the committed model: 1"]
        );
    }

    #[test]
    fn audit_flags_a_commit_that_misnumbered_the_checkpoint() {
        let found = audit_after(|o| o.populations[0].misnumbered_commits += 1);
        assert_eq!(
            found,
            ["population chaos/pop: commits not one write advancing the checkpoint id by 1: 1"]
        );
    }

    #[test]
    fn audit_flags_a_write_on_a_path_that_must_persist_nothing() {
        let found = audit_after(|o| o.populations[0].leaked_writes += 1);
        assert_eq!(
            found,
            ["population chaos/pop: paths that must persist nothing but moved the store: 1"]
        );
    }

    #[test]
    fn audit_flags_a_forwarded_report_no_master_folded() {
        let mut forwarded = 0;
        let found = audit_after(|o| {
            o.populations[0].folded -= 1;
            forwarded = o.populations[0].forwarded;
        });
        assert_eq!(
            found,
            [format!(
                "population chaos/pop: Masters folded {} of {forwarded} forwarded reports",
                forwarded - 1
            )]
        );
    }

    #[test]
    fn audit_flags_unconverged_shed_rate() {
        let config = ScenarioConfig::thundering_herd(3);
        let found = audit_on(&config, |o| o.convergence_windows = Some(6));
        assert_eq!(found, ["shed rate took 6 windows to converge (budget 5)"]);
        let found = audit_on(&config, |o| o.convergence_windows = None);
        assert_eq!(found, ["shed rate never converged"]);
    }

    /// The telemetry after the crowd's onset (window 10) holds accepts
    /// for every tenant but `multi/aux`.
    #[test]
    fn audit_flags_a_starved_tenant() {
        let config = ScenarioConfig::flash_vs_steady(7);
        let found = audit_on(&config, |o| {
            let monitor = OverloadMonitorConfig {
                bucket_ms: config.window_ms,
                ..OverloadMonitorConfig::default()
            };
            o.metrics = OverloadMetrics::new(monitor, 0);
            for name in ["multi/steady", "multi/flash"] {
                o.metrics.record_accept_for(&PopulationName::new(name), 11 * config.window_ms);
            }
        });
        assert_eq!(
            found,
            ["population multi/aux starved after the flash crowd in multi/flash"]
        );
    }

    /// A Selector crash loses exactly the devices that Selector held
    /// (Sec. 4.4): the replacement starts empty, the other Selector is
    /// untouched, and training carries on.
    #[test]
    fn selector_crash_loses_exactly_its_held_devices() {
        let config = ScenarioConfig {
            seed: 1,
            faults: vec![Fault::SelectorCrash {
                at_ms: 12_000,
                selector: 0,
            }],
            ..ScenarioConfig::chaos(None)
        };
        let mut h = Engine::new(&config, 0);
        h.run_until(11_999);
        let held_before: Vec<usize> = h.selectors.iter().map(|s| s.connected_count()).collect();
        assert!(held_before[0] > 0, "the crash must have something to lose");
        // Faults were scheduled before anything else due at their instant.
        let (now, event) = h.queue.next().expect("the fault is still queued");
        assert_eq!((now, &event), (12_000, &Event::Fault(0)));
        h.handle(now, event);
        assert_eq!(h.selectors[0].connected_count(), 0);
        assert_eq!(h.selectors[1].connected_count(), held_before[1]);

        h.run_until(config.horizon_ms);
        h.drain_after_horizon();
        let outcome = h.finish();
        assert!(outcome.is_clean(), "{}", outcome.render());
        assert!(outcome.populations[0].committed >= 1, "{}", outcome.render());
    }
}
