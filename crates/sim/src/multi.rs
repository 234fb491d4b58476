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
//! * reports render byte-identically per seed (the chaos-harness
//!   idiom), so a failing seed is a replayable bug report.
//!
//! The loop itself is [`crate::scenario`], whose audit covers every
//! invariant above but starvation; this module names its configs and
//! adds the one audit only a multi-tenant run makes (no tenant starves
//! after another's flash crowd). With
//! a single population and no disturbance the run degenerates to the
//! single-tenant shape: the per-population series *are* the aggregate
//! (asserted by the conservation invariant) — the same one path every
//! single-population harness and the live tree run.

use crate::scenario::{self, Fleet, LoadShape, PopulationLoad, ScenarioConfig};
use fl_core::round::RoundConfig;
use fl_core::{PopulationName, RetryPolicy};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionConfig};
use fl_server::wire::WireStats;

pub use crate::scenario::PopulationOutcome;

/// Multi-tenant simulation parameters: the scenario engine's config over
/// a [`Fleet::Tenancy`] fleet.
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

    /// The same tenants with every disturbance removed — the fairness
    /// baseline a stormy run is compared against.
    pub fn without_flash(mut self) -> Self {
        for spec in &mut self.populations {
            spec.shape = LoadShape::Steady;
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
    /// report crosses the in-memory wire as a framed message carrying
    /// its population.
    pub wire: WireStats,
    /// The per-population accept/shed/retry dashboard panel
    /// (`OverloadMetrics::render_population_panel`), captured at the
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
        crate::render_violations(&mut out, &self.violations);
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

/// Drives one seeded multi-population scenario through
/// [`crate::scenario`] — the real Selector/round/tenancy stack — and
/// audits the fairness invariants. See the module docs.
pub fn run_multi_tenant(config: &MultiTenantConfig) -> MultiTenantReport {
    let outcome = scenario::run(config);
    let mut violations = outcome.violations;
    // Fairness: after any flash crowd's onset, every *other* population
    // must still be getting accepts — starvation of a steady tenant by a
    // stormy one is the regression this harness exists to catch.
    for spec in &config.populations {
        let LoadShape::FlashCrowd { at_ms, .. } = spec.shape else {
            continue;
        };
        let onset_bucket = (at_ms / config.window_ms) as usize;
        for other in &config.populations {
            if other.name == spec.name {
                continue;
            }
            let post_onset: f64 = outcome
                .metrics
                .population_series(&PopulationName::new(other.name))
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

    MultiTenantReport {
        seed: config.seed,
        populations: outcome.populations,
        accepted_total: outcome.accepted_total,
        rejected_total: outcome.rejected_total,
        arbitration_losses: outcome.arbitration_losses,
        max_queue_depth: outcome.max_queue_depth,
        queue_bound: config.admission.max_inflight,
        wire: outcome.wire,
        telemetry_panel: outcome.metrics.render_population_panel(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;

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

    /// Faults and tenancy together: every tenant's Coordinator crashes
    /// once, every tenant's Master once, and each tenant's third commit
    /// attempt fails, under the flash crowd.
    #[test]
    fn faulted_tenants_recover_and_keep_committing() {
        let config = MultiTenantConfig {
            faults: vec![
                Fault::CoordinatorCrash { at_ms: 400_000 },
                Fault::MasterCrash { at_ms: 900_000 },
                Fault::StorageWriteFailure { attempt: 3 },
            ],
            ..MultiTenantConfig::flash_vs_steady(7)
        };
        let report = run_multi_tenant(&config);
        assert!(report.is_clean(), "{}", report.render());
        for p in &report.populations {
            assert!(p.committed >= 1, "{p:?}");
            assert_eq!(p.write_count, 1 + p.committed, "{p:?}");
            assert_eq!((p.respawns, p.contested_respawns), (1, 0), "{p:?}");
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        let a = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(19)).render();
        let b = run_multi_tenant(&MultiTenantConfig::flash_vs_steady(19)).render();
        assert_eq!(a, b);
    }
}
