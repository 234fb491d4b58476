//! Overload sweep (the tentpole of the overload-robustness PR): seeded,
//! replayable flash-crowd / thundering-herd / diurnal-ramp scenarios
//! driven against the real Selector stack (admission control + closed-loop
//! pace steering) and real device retry budgets, asserting the Sec. 2.3
//! flow-control guarantees: bounded queues, shed-rate convergence, and
//! rounds that still commit under overload.

use federated::core::round::RoundConfig;
use federated::sim::overload::default_seeds;
use federated::sim::scenario::{self, LoadShape, PopulationLoad, ScenarioConfig};

/// The fixed-seed thundering-herd sweep `scripts/check.sh` runs as a
/// release gate: a synchronized reconnect of the entire idle fleet must
/// keep the Selector queue under its configured bound, converge the shed
/// rate within the configured window budget, and drive every started
/// round to a terminal state with at least one commit.
#[test]
fn fixed_seed_herd_sweep_is_clean() {
    let mut shed = 0;
    for seed in default_seeds() {
        let config = ScenarioConfig::thundering_herd(seed);
        let outcome = scenario::run(&config);
        assert!(
            outcome.is_clean(),
            "seed {seed} violated overload invariants:\n{}",
            outcome.render()
        );
        assert!(
            outcome.max_queue_depth <= config.admission.max_inflight,
            "seed {seed} queue overflowed:\n{}",
            outcome.render()
        );
        let pop = &outcome.populations[0];
        assert!(
            pop.committed >= 1,
            "seed {seed} never committed a round:\n{}",
            outcome.render()
        );
        assert_eq!(
            pop.rounds_started,
            pop.rounds_terminal,
            "seed {seed} left a round non-terminal:\n{}",
            outcome.render()
        );
        shed += pop.shed;
    }
    // The sweep must actually exercise the admission layer, not coast.
    assert!(shed >= 100, "sweep shed only {shed} check-ins");
}

/// Flash crowds (a sustained 10× population step) and diurnal ramps must
/// also hold the invariants on every gate seed — sustained overload is
/// absorbed by steady shedding plus pace-steered deferral, never by
/// queue growth or wedged rounds.
#[test]
fn fixed_seed_flash_and_ramp_sweeps_are_clean() {
    for make in [
        ScenarioConfig::flash_crowd as fn(u64) -> ScenarioConfig,
        ScenarioConfig::diurnal_ramp as fn(u64) -> ScenarioConfig,
    ] {
        for seed in default_seeds() {
            let outcome = scenario::run(&make(seed));
            assert!(
                outcome.is_clean(),
                "seed {seed} violated overload invariants:\n{}",
                outcome.render()
            );
            assert!(
                outcome.populations[0].committed >= 1,
                "seed {seed} never committed:\n{}",
                outcome.render()
            );
        }
    }
}

/// A cross-product no named config expresses: a thundering herd aimed at
/// one of three populations that split a dedicated fleet (strides 1/2/4:
/// half, a quarter, a quarter). Only what the engine guarantees for every
/// configuration is asserted — no calibrated fairness thresholds — in two
/// configs: the whole herd tenant waking at a 10-window device period, and
/// a quarter of it waking at the calibrated period.
#[test]
fn herd_in_one_of_three_populations_holds_the_engine_invariants() {
    let base = ScenarioConfig::thundering_herd(29);
    let config = |fraction, period_ms| {
        let population = |name, goal_count, membership_stride, shape| PopulationLoad {
            name,
            period_ms,
            round: RoundConfig {
                goal_count,
                ..base.populations[0].round
            },
            membership_stride,
            shape,
            ..base.populations[0].clone()
        };
        let herd = LoadShape::ThunderingHerd {
            at_ms: 600_000,
            fraction,
        };
        ScenarioConfig {
            selectors: 2,
            populations: vec![
                population("cross/steady", 100, 1, LoadShape::Steady),
                population("cross/herd", 50, 2, herd),
                population("cross/aux", 25, 4, LoadShape::Steady),
            ],
            ..base.clone()
        }
    };
    for (config, whole_tenant) in [
        (config(1.0, 10 * base.window_ms), true),
        (config(0.25, base.populations[0].period_ms), false),
    ] {
        let outcome = scenario::run(&config);
        assert_eq!(
            format!("{outcome:?}"),
            format!("{:?}", scenario::run(&config))
        );
        if whole_tenant {
            // The whole-tenant herd breaks only the shed-rate convergence
            // budget: pace steering does not settle a herd in one of
            // several tenants sharing the Selectors (ROADMAP item 5).
            assert!(
                matches!(&outcome.violations[..], [v] if v.starts_with("shed rate ")),
                "{}",
                outcome.render()
            );
        } else {
            assert!(outcome.is_clean(), "{}", outcome.render());
        }

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
        let herd = outcome.population("cross/herd").unwrap();
        assert!(herd.shed > 0, "{}", outcome.render());
    }
}
