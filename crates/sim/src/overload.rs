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
//! Each run audits the overload invariants: the Selector's held-connection
//! queue never exceeds its configured bound, the shed rate converges back
//! to steady state within a few pace windows of the disturbance, and every
//! round that starts reaches a terminal committed/abandoned state — no
//! wedged rounds, however hard the storm. Reports render byte-identically
//! per seed (the chaos-harness idiom), so a failing seed is a replayable
//! bug report.

use crate::scenario::{self, Fleet, PopulationLoad, ScenarioConfig};
use fl_core::round::RoundConfig;
use fl_core::RetryPolicy;
use fl_server::shedding::AdmissionConfig;
use fl_server::wire::WireStats;

/// The arrival disturbance to inject: the scenario engine's per-population
/// [`LoadShape`], aimed at this harness's one population.
pub use crate::scenario::LoadShape as OverloadScenario;

/// Overload-simulation parameters: the scenario engine's config with one
/// population the whole baseline [`Fleet::Dedicated`] fleet serves.
pub type OverloadConfig = ScenarioConfig;

impl ScenarioConfig {
    /// A calibrated default for the given scenario and seed: 8 000
    /// baseline devices (large enough that a 40-window horizon never
    /// drains the pool), 60 s pace windows, and a disturbance at
    /// window 10.
    pub fn for_scenario(scenario: OverloadScenario, seed: u64) -> Self {
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
                shape: scenario,
                secagg_k: None,
            }],
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

    /// The flash-crowd acceptance scenario: a 10× population step (72 000
    /// newcomers on the 8 000-device baseline) at window 10.
    pub fn flash_crowd(seed: u64) -> Self {
        OverloadConfig::for_scenario(
            OverloadScenario::FlashCrowd {
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
    pub fn secagg_flash_crowd(seed: u64) -> Self {
        let mut config = OverloadConfig::flash_crowd(seed);
        config.populations[0].secagg_k = Some(18);
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
    /// in-memory wire: every check-in and update report
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
        crate::render_violations(&mut out, &self.violations);
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

/// Drives one seeded overload scenario through [`crate::scenario`] — the
/// real Selector/round stack under one population — and audits the
/// overload invariants. See the module docs.
pub fn run_overload(config: &OverloadConfig) -> OverloadReport {
    let outcome = scenario::run(config);
    let only = &outcome.populations[0];
    let shape = config.populations[0].shape;
    let mut violations = outcome.violations;

    let fractions = outcome.metrics.shed_fractions().to_vec();
    let onset_window = (shape.onset_ms() / config.window_ms) as usize;
    let convergence_windows = shed_convergence(&fractions, onset_window, 0.15);
    // Not for the ramp, whose disturbance never ends.
    if !matches!(shape, OverloadScenario::DiurnalRamp { .. }) {
        match convergence_windows {
            Some(w) if w <= CONVERGENCE_BUDGET_WINDOWS => {}
            Some(w) => violations.push(format!(
                "shed rate took {w} windows to converge (budget {CONVERGENCE_BUDGET_WINDOWS})"
            )),
            None => violations.push("shed rate never converged".into()),
        }
    }
    OverloadReport {
        seed: config.seed,
        scenario: shape.name(),
        offered: only.offered,
        accepted: only.accepted,
        shed: only.shed,
        shed_global: only.budget_sheds,
        rejected_other: only.rejected_other,
        retries: only.retries,
        budget_exhaustions: only.budget_exhaustions,
        evicted: outcome.evicted,
        max_queue_depth: outcome.max_queue_depth,
        queue_bound: config.admission.max_inflight,
        shed_fraction_per_window: fractions,
        convergence_windows,
        rounds_started: only.rounds_started,
        rounds_terminal: only.rounds_terminal,
        committed: only.committed,
        abandoned: only.abandoned,
        population_estimate_final: outcome.population_estimate_final,
        population_estimate_peak: outcome.population_estimate_peak,
        alerts: outcome.metrics.alerts().len(),
        secagg_shard_aborts: only.secagg_shard_aborts,
        secagg_round_aborts: only.secagg_round_aborts,
        wire: outcome.wire,
        violations,
    }
}

/// Windows allowed between a disturbance's onset and shed-rate convergence.
const CONVERGENCE_BUDGET_WINDOWS: u64 = 5;

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

    /// Total device slots including any flash-crowd newcomers.
    fn total_devices(config: &OverloadConfig) -> u64 {
        match config.populations[0].shape {
            OverloadScenario::FlashCrowd { newcomers, .. } => config.devices + newcomers,
            _ => config.devices,
        }
    }

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
        let true_population = total_devices(&config);
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
        config.global_admission = Some(fl_server::shedding::GlobalAdmissionConfig {
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
