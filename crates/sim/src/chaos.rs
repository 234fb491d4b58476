//! Deterministic fault injection across the server stack (Sec. 4.2, 4.4).
//!
//! "The FL server must be able to recover from these failures … in all
//! [failure] cases the system will continue to make progress" (Sec. 4.4).
//! This module turns that claim into an executable, *replayable* check: a
//! [`FaultPlan`] derived from a single seed schedules actor crashes,
//! storage write failures, lease losses, and device drop-out bursts on the
//! virtual clock, and [`run_chaos`] hands it to the one scenario engine,
//! [`crate::scenario`], as the `faults` of a [`ScenarioConfig::chaos`]
//! run: one population on the engine's shipped round path, its
//! Coordinator over a `FaultyCheckpointStore` and its lease in a
//! `LockingService`. The engine injects every fault into every population
//! and its audit checks the paper's recovery guarantees:
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

use crate::scenario::{self, Fleet, LoadShape, PopulationLoad, ScenarioConfig, ScenarioOutcome};
use fl_analytics::FaultLog;
use fl_core::round::RoundConfig;
use fl_core::RetryPolicy;
use fl_ml::rng;
use fl_server::shedding::AdmissionConfig;
use fl_server::wire::WireStats;
use rand::RngExt;

/// One scheduled fault. Timed variants carry a virtual-clock instant;
/// [`Fault::StorageWriteFailure`] is keyed to a 1-based commit attempt
/// instead (see `FaultyCheckpointStore`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// An Aggregator shard dies: every participant routed to it (device
    /// id modulo the engine's three fault-domain shards) drops out of the
    /// in-flight round.
    AggregatorCrash {
        /// When the shard dies.
        at_ms: u64,
        /// Which shard (taken modulo 3).
        shard: u64,
    },
    /// A Selector dies: the devices it held are lost with it, devices
    /// routed through it (device id modulo the selector count) go offline
    /// for a few check-in periods, and any of them already participating
    /// drop out.
    SelectorCrash {
        /// When the selector dies.
        at_ms: u64,
        /// Which selector (taken modulo [`ScenarioConfig::selectors`]).
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
    /// Generates a plan of 3–8 timed faults (plus at most one storage
    /// write failure) inside `[horizon_ms/10, horizon_ms·3/4]`, leaving
    /// the tail of the horizon for recovery to be observed.
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
}

/// The 1-based commit attempts `faults` script to fail.
pub fn storage_failures(faults: &[Fault]) -> Vec<u64> {
    faults
        .iter()
        .filter_map(|f| match f {
            Fault::StorageWriteFailure { attempt } => Some(*attempt),
            _ => None,
        })
        .collect()
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
    /// Final checkpoint write count (must equal `1 + committed`).
    pub final_write_count: u64,
    /// SecAgg shards that aborted below threshold while their round still
    /// committed from the surviving shards (0 on non-SecAgg runs).
    pub secagg_shard_aborts: u64,
    /// Rounds lost entirely because *every* SecAgg shard fell below
    /// threshold; nothing reaches storage and the round restarts.
    pub secagg_round_aborts: u64,
    /// Bytes-on-wire counters from the device end of the engine's
    /// in-memory transport: every check-in, configuration download, update
    /// report, and ack crossed it as a framed `WireMessage`.
    pub wire: WireStats,
    /// Recovery-guarantee violations; empty on a clean run.
    pub violations: Vec<String>,
    /// The replayable fault/recovery log.
    pub log: FaultLog,
}

impl ChaosReport {
    /// The report of a one-population engine run under fault-plan seed
    /// `seed`.
    pub(crate) fn of(seed: u64, outcome: ScenarioOutcome) -> Self {
        let only = &outcome.populations[0];
        ChaosReport {
            seed,
            committed: only.committed,
            abandoned: only.abandoned,
            lost_to_storage: only.lost_to_storage,
            master_restarts: only.master_restarts,
            respawns: only.respawns,
            lease_reacquisitions: only.lease_reacquisitions,
            final_write_count: only.write_count,
            secagg_shard_aborts: only.secagg_shard_aborts,
            secagg_round_aborts: only.secagg_round_aborts,
            wire: outcome.wire,
            violations: outcome.violations,
            log: outcome.log,
        }
    }

    /// Whether every recovery guarantee held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seed={}\ncommitted={} abandoned={} lost_to_storage={} master_restarts={}\n\
             respawns={} lease_reacquisitions={}\n\
             write_count={} secagg_shard_aborts={} secagg_round_aborts={}\n\
             wire up_frames={} up_bytes={} down_frames={} down_bytes={}\n",
            self.seed,
            self.committed,
            self.abandoned,
            self.lost_to_storage,
            self.master_restarts,
            self.respawns,
            self.lease_reacquisitions,
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

impl ScenarioConfig {
    /// The chaos topology, with no faults scripted yet (see
    /// [`run_chaos`]): 24 dedicated devices behind two Selectors, checking
    /// in every 2 s, and one population training in rounds of 6 selected
    /// devices for a goal of 4, over a four-minute horizon. With
    /// `secagg_k` every round runs Secure Aggregation at that group
    /// threshold (Sec. 6): devices report fixed-point field vectors,
    /// drop-outs are tagged with the protocol stage they hit, and a shard
    /// whose group falls below threshold aborts without poisoning the
    /// commit.
    pub fn chaos(secagg_k: Option<usize>) -> Self {
        let (devices, period_ms) = (24, 2_000);
        ScenarioConfig {
            devices,
            horizon_ms: 240_000,
            window_ms: period_ms,
            forward_period_ms: 1_000,
            selectors: 2,
            // Admission never binds: faults, not load, are under test.
            admission: AdmissionConfig {
                accepts_per_sec: 1_000.0,
                burst: 1_000,
                max_inflight: devices as usize,
            },
            global_admission: None,
            stale_after_ms: 2 * period_ms,
            retry: RetryPolicy {
                base_delay_ms: period_ms,
                multiplier: 2.0,
                max_delay_ms: 8 * period_ms,
                jitter_frac: 0.5,
                budget_per_window: 30,
                budget_window_ms: 60_000,
            },
            seed: 0,
            fleet: Fleet::Dedicated,
            faults: Vec::new(),
            populations: vec![PopulationLoad {
                name: "chaos/pop",
                period_ms,
                round: RoundConfig {
                    goal_count: 4,
                    overselection: 1.5,
                    min_goal_fraction: 0.5,
                    selection_timeout_ms: 10_000,
                    report_window_ms: 20_000,
                    device_cap_ms: 15_000,
                },
                quota: devices as usize,
                membership_stride: 1,
                shape: LoadShape::Steady,
                secagg_k,
            }],
        }
    }
}

/// Runs [`run_chaos`] over a set of fault-plan seeds with one shared
/// configuration.
pub fn sweep(seeds: &[u64], config: &ScenarioConfig) -> Vec<ChaosReport> {
    seeds
        .iter()
        .map(|&seed| run_chaos(&FaultPlan::generate(seed, config.horizon_ms), config))
        .collect()
}

/// Drives one seeded fault plan through the scenario engine and audits
/// the paper's recovery guarantees. See the module docs for the
/// invariants checked. Equivalent to [`run_chaos_with_schedule`] with
/// schedule seed 0 (the canonical schedule).
pub fn run_chaos(plan: &FaultPlan, config: &ScenarioConfig) -> ChaosReport {
    run_chaos_with_schedule(plan, config, 0)
}

/// [`run_chaos`] under an alternative *schedule*: `schedule_seed`
/// perturbs only the engine's timing stream (see
/// [`scenario::run_with_schedule`]), while the fault plan, topology, and
/// every protocol state machine stay identical. Running one plan under K
/// schedule seeds checks the recovery guarantees across K distinct
/// interleavings of the same fault scenario; each (plan seed, schedule
/// seed) pair renders byte-identically on replay.
pub fn run_chaos_with_schedule(
    plan: &FaultPlan,
    config: &ScenarioConfig,
    schedule_seed: u64,
) -> ChaosReport {
    let config = ScenarioConfig {
        seed: plan.seed,
        faults: plan.faults.clone(),
        ..config.clone()
    };
    ChaosReport::of(plan.seed, scenario::run_with_schedule(&config, schedule_seed))
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
            for attempt in storage_failures(&plan.faults) {
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
        let report = run_chaos(&plan, &ScenarioConfig::chaos(None));
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
        let plain = run_chaos(&plan, &ScenarioConfig::chaos(None));
        let secagg = run_chaos(&plan, &ScenarioConfig::chaos(Some(2)));
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
        let report = run_chaos(&plan, &ScenarioConfig::chaos(Some(2)));
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
        let config = ScenarioConfig::chaos(Some(2));
        for seed in default_secagg_seeds() {
            let plan = FaultPlan::generate(seed, config.horizon_ms);
            let a = run_chaos(&plan, &config);
            let b = run_chaos(&plan, &config);
            assert!(a.is_clean(), "seed {seed}: {:?}", a.violations);
            assert_eq!(a.render(), b.render(), "seed {seed} replay diverged");
        }
    }

    #[test]
    fn schedule_seed_zero_is_the_canonical_schedule() {
        let config = ScenarioConfig::chaos(None);
        let plan = FaultPlan::generate(23, config.horizon_ms);
        assert_eq!(
            run_chaos(&plan, &config).render(),
            run_chaos_with_schedule(&plan, &config, 0).render()
        );
    }

    #[test]
    fn schedule_permutations_stay_clean_and_replay_byte_identically() {
        let config = ScenarioConfig::chaos(None);
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
        let config = ScenarioConfig::chaos(None);
        let run = |seed: u64| {
            let plan = FaultPlan::generate(seed, config.horizon_ms);
            run_chaos(&plan, &config).render()
        };
        for seed in [11, 23, 47] {
            assert_eq!(run(seed), run(seed), "seed {seed} replay diverged");
        }
    }
}
