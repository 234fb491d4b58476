//! Overload sweep (the tentpole of the overload-robustness PR): seeded,
//! replayable flash-crowd / thundering-herd / diurnal-ramp scenarios
//! driven against the real Selector stack (admission control + closed-loop
//! pace steering) and real device retry budgets, asserting the Sec. 2.3
//! flow-control guarantees: bounded queues, shed-rate convergence, and
//! rounds that still commit under overload.

use federated::core::round::RoundConfig;
use federated::sim::overload::{
    default_seeds, run_overload, sweep, OverloadConfig,
};
use federated::sim::scenario::{self, LoadShape, PopulationLoad, ScenarioConfig};

/// The fixed-seed thundering-herd sweep `scripts/check.sh` runs as a
/// release gate: a synchronized reconnect of the entire idle fleet must
/// keep the Selector queue under its configured bound, converge the shed
/// rate within the configured window budget, and drive every started
/// round to a terminal state with at least one commit.
#[test]
fn fixed_seed_herd_sweep_is_clean() {
    let reports = sweep(&default_seeds(), OverloadConfig::thundering_herd);
    assert_eq!(reports.len(), default_seeds().len());
    for report in &reports {
        assert!(
            report.is_clean(),
            "seed {} violated overload invariants:\n{}",
            report.seed,
            report.render()
        );
        assert!(
            report.max_queue_depth <= report.queue_bound,
            "seed {} queue overflowed:\n{}",
            report.seed,
            report.render()
        );
        assert!(
            report.committed >= 1,
            "seed {} never committed a round:\n{}",
            report.seed,
            report.render()
        );
        assert_eq!(
            report.rounds_started, report.rounds_terminal,
            "seed {} left a round non-terminal:\n{}",
            report.seed,
            report.render()
        );
    }
    // The sweep must actually exercise the admission layer, not coast.
    let shed: u64 = reports.iter().map(|r| r.shed).sum();
    assert!(shed >= 100, "sweep shed only {shed} check-ins");
}

/// Flash crowds (a sustained 10× population step) and diurnal ramps must
/// also hold the invariants on every gate seed — sustained overload is
/// absorbed by steady shedding plus pace-steered deferral, never by
/// queue growth or wedged rounds.
#[test]
fn fixed_seed_flash_and_ramp_sweeps_are_clean() {
    for make in [
        OverloadConfig::flash_crowd as fn(u64) -> OverloadConfig,
        OverloadConfig::diurnal_ramp as fn(u64) -> OverloadConfig,
    ] {
        for report in sweep(&default_seeds(), make) {
            assert!(
                report.is_clean(),
                "seed {} ({}) violated overload invariants:\n{}",
                report.seed,
                report.scenario,
                report.render()
            );
            assert!(
                report.committed >= 1,
                "seed {} ({}) never committed:\n{}",
                report.seed,
                report.scenario,
                report.render()
            );
        }
    }
}

/// Determinism is the whole point: the same seed must reproduce the same
/// run byte-for-byte, so a failing seed is a replayable bug report.
#[test]
fn replay_of_a_seed_is_byte_identical() {
    for seed in default_seeds() {
        for make in [
            OverloadConfig::thundering_herd as fn(u64) -> OverloadConfig,
            OverloadConfig::flash_crowd as fn(u64) -> OverloadConfig,
        ] {
            let first = run_overload(&make(seed)).render();
            let second = run_overload(&make(seed)).render();
            assert_eq!(first, second, "seed {seed} diverged between replays");
        }
    }
}

/// A cross-product neither entry point can express: a thundering herd
/// aimed at one of three populations that split a dedicated fleet
/// (strides 1/2/4: half, a quarter, a quarter). Only what the engine
/// guarantees for every configuration is asserted — no calibrated
/// fairness thresholds.
#[test]
fn herd_in_one_of_three_populations_holds_the_engine_invariants() {
    let base = OverloadConfig::thundering_herd(29);
    let population = |name, goal_count, membership_stride, shape| PopulationLoad {
        name,
        period_ms: 10 * base.window_ms,
        round: RoundConfig { goal_count, ..base.populations[0].round },
        membership_stride,
        shape,
        ..base.populations[0].clone()
    };
    let herd = LoadShape::ThunderingHerd { at_ms: 600_000, fraction: 1.0 };
    let config = ScenarioConfig {
        selectors: 2,
        populations: vec![
            population("cross/steady", 100, 1, LoadShape::Steady),
            population("cross/herd", 50, 2, herd),
            population("cross/aux", 25, 4, LoadShape::Steady),
        ],
        ..base.clone()
    };
    let outcome = scenario::run(&config);
    assert_eq!(format!("{outcome:?}"), format!("{:?}", scenario::run(&config)));
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);

    let accepted: u64 = outcome.populations.iter().map(|p| p.accepted).sum();
    let offered: u64 = outcome.populations.iter().map(|p| p.offered).sum();
    assert_eq!(accepted, outcome.accepted_total);
    assert_eq!(offered - accepted, outcome.rejected_total);
    assert!(outcome.max_queue_depth <= config.admission.max_inflight);
    for p in &outcome.populations {
        assert_eq!(p.rounds_started, p.rounds_terminal, "{p:?}");
        assert!(p.offered > 0, "{p:?}");
    }
    // The herd really fired: its population was shed.
    let shed = |name| outcome.populations.iter().find(|p| p.name == name).unwrap().shed;
    assert!(shed("cross/herd") > 0, "{:?}", outcome.populations);
}
