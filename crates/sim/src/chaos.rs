//! Deterministic fault injection across the server stack (Sec. 4.2, 4.4).
//!
//! "The FL server must be able to recover from these failures … in all
//! \[failure\] cases the system will continue to make progress" (Sec. 4.4).
//! This module turns that claim into an executable, *replayable* check: a
//! [`FaultPlan`] derived from a single seed schedules actor crashes,
//! storage write failures, lease losses, and device drop-out bursts on the
//! virtual clock, and [`ScenarioConfig::with_plan`] hands it to the one
//! scenario engine, [`crate::scenario`], as the `faults` of a
//! [`ScenarioConfig::chaos`] run: one population on the engine's shipped
//! round path, its Coordinator over a `FaultyCheckpointStore` and its
//! lease in a `LockingService`. The engine injects every fault into every
//! population and its audit checks the paper's recovery guarantees:
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
//! `FaultLog`, which ends the run's [`ScenarioOutcome::render`]; the
//! render is byte-identical across replays of the same seed, so a
//! failing sweep seed is a self-contained, reproducible bug report.
//!
//! [`ScenarioOutcome::render`]: crate::scenario::ScenarioOutcome::render

use crate::scenario::{Fleet, LoadShape, PopulationLoad, ScenarioConfig};
use fl_core::round::RoundConfig;
use fl_core::RetryPolicy;
use fl_ml::rng;
use fl_server::shedding::AdmissionConfig;
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
/// render — replay a failing seed to reproduce its interleaving.
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

/// The fixed seed set swept by `scripts/check.sh` and the tier-1 chaos
/// tests.
// fl-lint: allow(test-only-pub): the seeded sweeps of tests/*.rs run these seeds
pub fn default_seeds() -> Vec<u64> {
    vec![11, 23, 47, 61, 83, 97, 131, 151]
}

/// The fixed seed set for SecAgg chaos sweeps (`scripts/check.sh`
/// `secagg-live` step and the tier-1 chaos tests).
// fl-lint: allow(test-only-pub): the seeded sweeps of tests/*.rs run these seeds
pub fn default_secagg_seeds() -> Vec<u64> {
    vec![13, 29, 53, 71]
}

impl ScenarioConfig {
    /// The chaos topology, with no faults scripted yet (see
    /// [`ScenarioConfig::with_plan`]): 24 dedicated devices behind two
    /// Selectors, checking in every 2 s, and one population training in
    /// rounds of 6 selected devices for a goal of 4, over a four-minute
    /// horizon. With
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

    /// This config under `plan`: the plan's seed and its faults.
    pub fn with_plan(self, plan: &FaultPlan) -> Self {
        ScenarioConfig {
            seed: plan.seed,
            faults: plan.faults.clone(),
            ..self
        }
    }

    /// The chaos config under the plan [`FaultPlan::generate`] draws from
    /// `seed` over its horizon: the seeded run every chaos sweep replays.
    // fl-lint: allow(test-only-pub): the chaos sweeps of tests/*.rs build their runs with it
    pub fn chaos_seed(secagg_k: Option<usize>, seed: u64) -> Self {
        let config = ScenarioConfig::chaos(secagg_k);
        let plan = FaultPlan::generate(seed, config.horizon_ms);
        config.with_plan(&plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

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

    /// A fault-free run at seed 5.
    fn fault_free(secagg_k: Option<usize>) -> scenario::ScenarioOutcome {
        scenario::run(&ScenarioConfig {
            seed: 5,
            ..ScenarioConfig::chaos(secagg_k)
        })
    }

    #[test]
    fn fault_free_run_just_trains() {
        let outcome = fault_free(None);
        assert!(outcome.is_clean(), "{}", outcome.render());
        let pop = &outcome.populations[0];
        assert!(pop.committed >= 3, "{}", outcome.render());
        assert_eq!(pop.write_count, 1 + pop.committed);
        assert_eq!(pop.respawns, 0);
    }

    #[test]
    fn secagg_fault_free_run_commits_and_pays_the_wire_premium() {
        let plain = fault_free(None);
        let secagg = fault_free(Some(2));
        assert!(secagg.is_clean(), "{}", secagg.render());
        let pop = &secagg.populations[0];
        assert!(pop.committed >= 3, "{}", secagg.render());
        assert_eq!(pop.write_count, 1 + pop.committed);
        assert_eq!(pop.secagg_shard_aborts, 0);
        assert_eq!(pop.secagg_round_aborts, 0);
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
        let outcome = scenario::run(&ScenarioConfig::chaos(Some(2)).with_plan(&plan));
        assert!(outcome.is_clean(), "{}", outcome.render());
        let pop = &outcome.populations[0];
        assert_eq!(pop.write_count, 1 + pop.committed);
        assert!(
            pop.secagg_shard_aborts + pop.secagg_round_aborts >= 1,
            "bursts never stranded a group below threshold: {}",
            outcome.render()
        );
        assert!(pop.committed >= 1, "{}", outcome.render());
    }

    #[test]
    fn schedule_permutations_stay_clean_and_replay_byte_identically() {
        let config = ScenarioConfig::chaos_seed(None, 11);
        for schedule in [1u64, 5, 9] {
            let a = scenario::run_with_schedule(&config, schedule);
            let b = scenario::run_with_schedule(&config, schedule);
            assert!(a.is_clean(), "schedule {schedule}: {}", a.render());
            assert_eq!(
                a.render(),
                b.render(),
                "schedule {schedule} replay diverged"
            );
        }
    }
}
