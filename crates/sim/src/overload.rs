//! Overload scenarios: flash crowds, thundering herds, diurnal ramps.
//!
//! The paper's flow-control story (Sec. 2.3) is a *closed loop*: pace
//! steering spreads device check-ins, Selectors shed what still gets
//! through faster than capacity, and devices cooperate with jittered
//! backoff and retry budgets. This module stress-tests that loop end to
//! end as the one-population case of [`crate::scenario`] — the real
//! Selector (admission control, staleness eviction, closed-loop
//! `PaceController`), the real Coordinator round path, and the real
//! device-side `ConnectivityManager` — under the arrival patterns that
//! break naive systems:
//!
//! * **thundering herd** — the entire idle fleet wakes and reconnects at
//!   the same instant (network outage recovery, synchronized alarms);
//! * **flash crowd** — the population steps up 10× in one check-in period
//!   (a feature launch);
//! * **diurnal ramp** — sinusoidal arrival modulation (Fig. 5's day/night
//!   swing) exercising the activity-factor path.
//!
//! This module only names the calibrated configs; a run is
//! [`crate::scenario::run`], whose one audit checks the overload
//! invariants with every other: the Selector's held-connection queue
//! never exceeds its configured bound, after a herd or a flash crowd the
//! shed rate converges back to steady state within a few pace windows,
//! and every round that starts reaches a terminal committed/abandoned
//! state — no wedged rounds, however hard the storm. The outcome renders
//! byte-identically per seed, so a failing seed is a replayable bug
//! report.

use crate::scenario::{Fleet, LoadShape, PopulationLoad, ScenarioConfig};
use fl_core::round::RoundConfig;
use fl_core::RetryPolicy;
use fl_server::shedding::AdmissionConfig;

impl ScenarioConfig {
    /// A calibrated default for the given load shape and seed: 8 000
    /// baseline devices (large enough that a 40-window horizon never
    /// drains the pool), 60 s pace windows, and a disturbance at
    /// window 10.
    pub fn for_scenario(shape: LoadShape, seed: u64) -> Self {
        let round = RoundConfig {
            goal_count: 100,
            overselection: 1.3,
            min_goal_fraction: 0.6,
            selection_timeout_ms: 60_000,
            report_window_ms: 60_000,
            device_cap_ms: 60_000,
        };
        let admission = AdmissionConfig {
            accepts_per_sec: 50.0,
            burst: 200,
            max_inflight: 400,
        };
        let (devices, window_ms) = (8_000, 60_000);
        ScenarioConfig {
            devices,
            horizon_ms: 40 * window_ms,
            window_ms,
            forward_period_ms: 15_000,
            selectors: 1,
            admission,
            global_admission: None,
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
            fleet: Fleet::Dedicated,
            faults: Vec::new(),
            populations: vec![PopulationLoad {
                name: "overload/train",
                // The steady-state reconnect horizon: the time the pace
                // target takes to cycle through the whole baseline fleet.
                period_ms: (devices as f64 / round.selection_target() as f64 * window_ms as f64)
                    as u64,
                round,
                // Held at the admission controller's queue bound.
                quota: admission.max_inflight,
                membership_stride: 1,
                shape,
                secagg_k: None,
            }],
        }
    }

    /// The thundering-herd acceptance scenario: the whole idle fleet —
    /// more than 10× a window's normal arrivals — reconnects at once at
    /// window 10.
    // fl-lint: allow(test-only-pub): an overload preset tests/render_digests.rs pins
    pub fn thundering_herd(seed: u64) -> Self {
        ScenarioConfig::for_scenario(
            LoadShape::ThunderingHerd {
                at_ms: 600_000,
                fraction: 1.0,
            },
            seed,
        )
    }

    /// The flash-crowd acceptance scenario: a 10× population step (72 000
    /// newcomers on the 8 000-device baseline) at window 10.
    pub fn flash_crowd(seed: u64) -> Self {
        ScenarioConfig::for_scenario(
            LoadShape::FlashCrowd {
                at_ms: 600_000,
                newcomers: 72_000,
            },
            seed,
        )
    }

    /// The flash-crowd scenario under Secure Aggregation: the 10×
    /// population step while every round runs masked aggregation with
    /// group threshold `k = 18`. Storm-degraded cohorts (rounds that
    /// commit at the minimum goal fraction) spread too thin across the
    /// Aggregator groups and must abort per shard, never mis-sum.
    // fl-lint: allow(test-only-pub): an overload preset tests/render_digests.rs pins
    pub fn secagg_flash_crowd(seed: u64) -> Self {
        let mut config = ScenarioConfig::flash_crowd(seed);
        config.populations[0].secagg_k = Some(18);
        config
    }

    /// The diurnal-ramp scenario: a full swing over a 20-window period.
    // fl-lint: allow(test-only-pub): an overload preset tests/render_digests.rs pins
    pub fn diurnal_ramp(seed: u64) -> Self {
        ScenarioConfig::for_scenario(
            LoadShape::DiurnalRamp {
                period_ms: 20 * 60_000,
                amplitude: 0.6,
            },
            seed,
        )
    }
}

/// The fixed seed set swept by `scripts/check.sh` and the tier-1 overload
/// tests.
// fl-lint: allow(test-only-pub): the seeded sweeps of tests/*.rs run these seeds
pub fn default_seeds() -> Vec<u64> {
    vec![3, 17, 29, 53]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{self, ScenarioOutcome};

    /// Total device slots including any flash-crowd newcomers.
    fn total_devices(config: &ScenarioConfig) -> u64 {
        match config.populations[0].shape {
            LoadShape::FlashCrowd { newcomers, .. } => config.devices + newcomers,
            _ => config.devices,
        }
    }

    /// Runs `config` and asserts the audit passed.
    fn clean_run(config: &ScenarioConfig) -> ScenarioOutcome {
        let outcome = scenario::run(config);
        assert!(outcome.is_clean(), "{}", outcome.render());
        outcome
    }

    #[test]
    fn thundering_herd_holds_the_invariants() {
        let config = ScenarioConfig::thundering_herd(3);
        let outcome = clean_run(&config);
        let pop = &outcome.populations[0];
        assert!(outcome.max_queue_depth <= config.admission.max_inflight);
        assert!(
            pop.shed > 0,
            "a herd must actually shed:\n{}",
            outcome.render()
        );
        assert!(pop.committed >= 3, "{}", outcome.render());
        // Every check-in/report crossed the wire framed, and every
        // shed/configuration/ack came back framed.
        assert!(
            outcome.wire.frames_sent > 0 && outcome.wire.frames_received > 0,
            "no framed traffic recorded:\n{}",
            outcome.render()
        );
    }

    #[test]
    fn flash_crowd_tracks_the_population_step() {
        let outcome = clean_run(&ScenarioConfig::flash_crowd(17));
        // The closed loop must have noticed the 10× step: the estimate
        // ends far above the baseline 8 000.
        assert!(
            outcome.population_estimate_final > 20_000,
            "estimate stuck at {}:\n{}",
            outcome.population_estimate_final,
            outcome.render()
        );
    }

    #[test]
    fn diurnal_ramp_never_wedges() {
        let outcome = clean_run(&ScenarioConfig::diurnal_ramp(29));
        let pop = &outcome.populations[0];
        assert_eq!(pop.rounds_started, pop.rounds_terminal);
    }

    #[test]
    fn secagg_flash_crowd_strands_cohorts_below_k_cleanly() {
        let plain = scenario::run(&ScenarioConfig::flash_crowd(17));
        let outcome = clean_run(&ScenarioConfig::secagg_flash_crowd(17));
        let pop = &outcome.populations[0];
        assert!(pop.committed >= 1, "{}", outcome.render());
        // The storm must have pushed at least one cohort's group below k
        // — surfaced as a typed abort, never a silent mis-sum.
        assert!(
            pop.secagg_shard_aborts + pop.secagg_round_aborts >= 1,
            "no group ever fell below threshold:\n{}",
            outcome.render()
        );
        // Field vectors are 8 bytes per coordinate vs. the plain run's
        // 4-byte blob: the SecAgg premium shows in measured uplink bytes.
        assert!(
            outcome.wire.bytes_sent > plain.wire.bytes_sent,
            "secagg uplink {} <= plain uplink {}",
            outcome.wire.bytes_sent,
            plain.wire.bytes_sent
        );
    }

    #[test]
    fn herd_trips_the_monitors() {
        let outcome = scenario::run(&ScenarioConfig::thundering_herd(3));
        assert!(
            !outcome.metrics.alerts().is_empty(),
            "herd raised no alerts:\n{}",
            outcome.render()
        );
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
        let config = ScenarioConfig::flash_crowd(17);
        let true_population = total_devices(&config);
        let outcome = clean_run(&config);
        assert!(
            outcome.population_estimate_peak <= 5 * true_population,
            "estimate peaked at {} for a true population of {true_population}:\n{}",
            outcome.population_estimate_peak,
            outcome.render()
        );
        assert!(
            outcome.population_estimate_peak >= outcome.population_estimate_final,
            "{}",
            outcome.render()
        );
    }

    /// Three Selectors each shed locally under a herd, while one shared
    /// fleet-wide budget caps what they admit in total — the cap binds
    /// (global sheds happen) yet rounds still commit.
    #[test]
    fn global_budget_is_shared_across_selectors() {
        let mut config = ScenarioConfig::thundering_herd(3);
        config.selectors = 3;
        config.global_admission = Some(fl_server::shedding::GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 300,
        });
        let outcome = scenario::run(&config);
        let pop = &outcome.populations[0];
        assert!(
            pop.budget_sheds > 0,
            "herd never hit the shared budget:\n{}",
            outcome.render()
        );
        assert!(pop.shed > pop.budget_sheds, "{}", outcome.render());
        assert!(pop.committed >= 1, "{}", outcome.render());
        assert_eq!(
            pop.rounds_started,
            pop.rounds_terminal,
            "{}",
            outcome.render()
        );
    }
}
