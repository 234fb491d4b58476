//! Multi-population (multi-tenant) scenarios: several FL populations
//! sharing one device fleet and one Selector layer.
//!
//! The paper's multi-tenancy story has two halves. On the device
//! (Sec. 3): "Our implementation provides a multi-tenant architecture,
//! supporting training of multiple FL populations in the same app" while
//! "we avoid running training sessions on-device in parallel because of
//! their high resource consumption" — modeled here by the real
//! `DeviceTenancy` arbitrating a single active session across
//! per-population lanes. On the server (Sec. 2.1/4.2): each population
//! is a separate learning problem with its own Coordinator and rounds,
//! multiplexed over a shared Selector layer that holds each population
//! against its own quota and admits against a shared fleet-wide budget
//! with per-population fair-share reservations
//! (`GlobalAdmissionBudget::try_admit_for`).
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
//! * the outcome renders byte-identically per seed, so a failing seed
//!   is a replayable bug report.
//!
//! The loop itself is [`crate::scenario`], whose one audit checks every
//! invariant above, starvation included (it keys on the flash-crowd
//! shape, not on this module); this module only names the configs. With
//! a single population and no disturbance the run degenerates to the
//! single-tenant shape: the per-population series *are* the aggregate
//! (asserted by the conservation invariant) — the same one path every
//! single-population harness and the live tree run.

use crate::scenario::{self, Fleet, LoadShape, PopulationLoad, ScenarioConfig, ScenarioOutcome};
use fl_core::round::RoundConfig;
use fl_core::RetryPolicy;
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionConfig};

/// The scenario engine's config; the name stays for the `benchmark/`
/// crate, which calls it.
pub type MultiTenantConfig = ScenarioConfig;

impl ScenarioConfig {
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
        ScenarioConfig {
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
            fleet: Fleet::Tenancy,
            faults: Vec::new(),
            populations: vec![
                PopulationLoad {
                    name: "multi/steady",
                    period_ms: 1_800_000,
                    round: round(100),
                    quota: 260,
                    membership_stride: 1,
                    shape: LoadShape::Steady,
                    secagg_k: None,
                },
                PopulationLoad {
                    name: "multi/flash",
                    period_ms: 1_800_000,
                    round: round(50),
                    // A quota well above the storm's fair share, so the
                    // *budget* is what visibly caps the crowd.
                    quota: 400,
                    membership_stride: 2,
                    shape: LoadShape::FlashCrowd {
                        at_ms: 600_000,
                        newcomers: 12_000,
                    },
                    secagg_k: None,
                },
                PopulationLoad {
                    name: "multi/aux",
                    period_ms: 1_800_000,
                    round: round(25),
                    quota: 70,
                    membership_stride: 4,
                    shape: LoadShape::Steady,
                    secagg_k: None,
                },
            ],
        }
    }

    /// A single steady population — the n=1 degenerate case whose
    /// per-population series must equal the aggregate exactly.
    // fl-lint: allow(test-only-pub): a multi preset tests/render_digests.rs pins
    pub fn single(seed: u64) -> Self {
        let mut config = ScenarioConfig::flash_vs_steady(seed);
        config.populations.truncate(1);
        config
    }
}

/// The fixed seed set swept by `scripts/check.sh` and the tier-1
/// multi-tenant tests.
// fl-lint: allow(test-only-pub): the seeded sweeps of tests/*.rs run these seeds
pub fn default_seeds() -> Vec<u64> {
    vec![7, 19, 41]
}

/// [`scenario::run`]; the name stays for the `benchmark/` crate, which
/// calls it.
pub fn run_multi_tenant(config: &MultiTenantConfig) -> ScenarioOutcome {
    scenario::run(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;

    /// The same tenants with every disturbance removed — the fairness
    /// baseline a stormy run is compared against.
    fn without_flash(mut config: ScenarioConfig) -> ScenarioConfig {
        for spec in &mut config.populations {
            spec.shape = LoadShape::Steady;
        }
        config
    }

    #[test]
    fn flash_crowd_in_one_population_does_not_starve_the_others() {
        let outcome = scenario::run(&ScenarioConfig::flash_vs_steady(7));
        assert!(outcome.is_clean(), "{}", outcome.render());
        let steady = outcome.population("multi/steady").unwrap();
        let flash = outcome.population("multi/flash").unwrap();
        let aux = outcome.population("multi/aux").unwrap();
        // The storm really stormed: its lane absorbed mass rejection...
        assert!(
            flash.shed + flash.rejected_other > 5_000,
            "the flash crowd was never turned away:\n{}",
            outcome.render()
        );
        // ...while the other tenants kept committing.
        assert!(steady.committed >= 3, "{}", outcome.render());
        assert!(aux.committed >= 1, "{}", outcome.render());
        // And the stormy tenant itself still made progress on its share.
        assert!(flash.committed >= 1, "{}", outcome.render());
        // The dashboard panel carries one block per tenant.
        let panel = outcome.metrics.render_population_panel();
        for name in ["multi/steady", "multi/flash", "multi/aux"] {
            assert!(panel.contains(name), "panel missing {name}:\n{panel}");
        }
    }

    #[test]
    fn shared_budget_charges_the_stormy_population() {
        let outcome = scenario::run(&ScenarioConfig::flash_vs_steady(19));
        assert!(outcome.is_clean(), "{}", outcome.render());
        let steady = outcome.population("multi/steady").unwrap();
        let flash = outcome.population("multi/flash").unwrap();
        // Fair-share reservations bind against the storm, not the
        // steady tenant.
        assert!(
            flash.budget_sheds > 0,
            "the global budget never capped the storm:\n{}",
            outcome.render()
        );
        assert!(
            steady.budget_sheds < flash.budget_sheds,
            "{}",
            outcome.render()
        );
    }

    #[test]
    fn steady_commits_match_the_no_storm_baseline() {
        let stormy = scenario::run(&ScenarioConfig::flash_vs_steady(41));
        let calm = scenario::run(&without_flash(ScenarioConfig::flash_vs_steady(41)));
        assert!(stormy.is_clean(), "{}", stormy.render());
        assert!(calm.is_clean(), "{}", calm.render());
        let with_storm = stormy.population("multi/steady").unwrap().committed;
        let without = calm.population("multi/steady").unwrap().committed;
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
        let outcome = scenario::run(&ScenarioConfig::flash_vs_steady(7));
        // Devices registered in several populations must have collided
        // and deferred through their own lanes at least sometimes.
        assert!(
            outcome.arbitration_losses > 0,
            "no device ever arbitrated:\n{}",
            outcome.render()
        );
    }

    #[test]
    fn single_population_reduces_to_the_aggregate() {
        let outcome = scenario::run(&ScenarioConfig::single(7));
        assert!(outcome.is_clean(), "{}", outcome.render());
        assert_eq!(outcome.populations.len(), 1);
        let only = &outcome.populations[0];
        // n=1: the population ledger *is* the aggregate ledger.
        assert_eq!(only.accepted, outcome.accepted_total);
        assert_eq!(only.offered - only.accepted, outcome.rejected_total);
        assert!(only.committed >= 3, "{}", outcome.render());
    }

    /// Faults and tenancy together: every tenant's Coordinator crashes
    /// once, every tenant's Master once, and each tenant's third commit
    /// attempt fails, under the flash crowd.
    #[test]
    fn faulted_tenants_recover_and_keep_committing() {
        let config = ScenarioConfig {
            faults: vec![
                Fault::CoordinatorCrash { at_ms: 400_000 },
                Fault::MasterCrash { at_ms: 900_000 },
                Fault::StorageWriteFailure { attempt: 3 },
            ],
            ..ScenarioConfig::flash_vs_steady(7)
        };
        let outcome = scenario::run(&config);
        assert!(outcome.is_clean(), "{}", outcome.render());
        for p in &outcome.populations {
            assert!(p.committed >= 1, "{p:?}");
            assert_eq!(p.write_count, 1 + p.committed, "{p:?}");
            assert_eq!((p.respawns, p.contested_respawns), (1, 0), "{p:?}");
        }
    }
}
