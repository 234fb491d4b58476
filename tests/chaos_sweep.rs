//! Chaos sweep (the tentpole of the fault-injection PR): seeded,
//! replayable fault schedules driven against the real Coordinator /
//! storage / locking stack, asserting the paper's recovery guarantees
//! (Sec. 4.2, 4.4) per failure mode and as properties over random plans.

use federated::sim::chaos::{default_secagg_seeds, default_seeds, Fault, FaultPlan};
use federated::sim::scenario::{self, ScenarioConfig, ScenarioOutcome};
use proptest::prelude::*;

/// A hand-built `plan` on the chaos config, plain or under SecAgg at
/// `secagg_k`.
fn run_plan(plan: &FaultPlan, secagg_k: Option<usize>) -> ScenarioOutcome {
    scenario::run(&ScenarioConfig::chaos(secagg_k).with_plan(plan))
}

/// The fixed-seed sweep `scripts/check.sh` runs as a release gate: every
/// seed must hold every recovery guarantee.
#[test]
fn fixed_seed_sweep_is_clean() {
    let mut injected = 0;
    for seed in default_seeds() {
        let outcome = scenario::run(&ScenarioConfig::chaos_seed(None, seed));
        assert!(
            outcome.is_clean(),
            "seed {seed} violated recovery guarantees:\n{}",
            outcome.render()
        );
        // "The system will continue to make progress" (Sec. 4.4).
        assert!(
            outcome.populations[0].committed >= 1,
            "seed {seed} never committed a round:\n{}",
            outcome.render()
        );
        injected += outcome.log.with_prefix("inject.").count();
    }
    // The sweep must actually exercise faults, not coast fault-free.
    assert!(injected >= 10, "sweep injected only {injected} faults");
}

/// The SecAgg leg of the sweep (Sec. 6 through the same fault
/// schedules): masked rounds must hold every recovery guarantee, never
/// hang, and keep the storage audit — a shard whose group is stranded
/// below `k` aborts without poisoning the commit, and a round whose
/// every group aborts restarts cleanly with nothing persisted.
#[test]
fn secagg_fixed_seed_sweep_is_clean() {
    for seed in default_secagg_seeds() {
        let outcome = scenario::run(&ScenarioConfig::chaos_seed(Some(2), seed));
        assert!(
            outcome.is_clean(),
            "secagg seed {seed} violated recovery guarantees:\n{}",
            outcome.render()
        );
        let pop = &outcome.populations[0];
        assert!(
            pop.committed >= 1,
            "secagg seed {seed} never committed a round:\n{}",
            outcome.render()
        );
        assert_eq!(pop.write_count, 1 + pop.committed);
    }
}

/// A SecAgg Aggregator crash loses its whole group's masked
/// contributions, not just some updates — the round still commits on the
/// surviving groups and the storage audit holds (Sec. 4.2 × Sec. 6).
#[test]
fn secagg_aggregator_loss_costs_only_its_group() {
    let plan = FaultPlan {
        seed: 1,
        faults: vec![Fault::AggregatorCrash {
            at_ms: 12_000,
            shard: 0,
        }],
    };
    let outcome = run_plan(&plan, Some(2));
    assert!(outcome.is_clean(), "{}", outcome.render());
    let pop = &outcome.populations[0];
    assert!(pop.committed >= 1, "{}", outcome.render());
    assert_eq!(pop.write_count, 1 + pop.committed);
}

fn one_fault_run(fault: Fault) -> ScenarioOutcome {
    let plan = FaultPlan {
        seed: 1,
        faults: vec![fault],
    };
    let outcome = run_plan(&plan, None);
    assert!(outcome.is_clean(), "{}", outcome.render());
    outcome
}

/// Aggregator loss: "If an Aggregator […] fails, only the round […] will
/// fail" at worst — here the round loses that shard's devices and still
/// commits on the survivors (Sec. 4.2).
#[test]
fn aggregator_loss_costs_only_its_shard() {
    let outcome = one_fault_run(Fault::AggregatorCrash {
        at_ms: 12_000,
        shard: 0,
    });
    let pop = &outcome.populations[0];
    assert!(pop.committed >= 1, "{}", outcome.render());
    assert_eq!(outcome.log.with_prefix("inject.aggregator-crash").count(), 1);
    assert_eq!(pop.write_count, 1 + pop.committed);
}

/// Selector loss: its devices vanish for a few check-in periods, then
/// re-route; training continues.
#[test]
fn selector_loss_reroutes_devices() {
    let outcome = one_fault_run(Fault::SelectorCrash {
        at_ms: 12_000,
        selector: 0,
    });
    assert!(outcome.populations[0].committed >= 1, "{}", outcome.render());
    assert_eq!(outcome.log.with_prefix("inject.selector-crash").count(), 1);
}

/// Master Aggregator loss: "the current round of the FL task it manages
/// will fail, but will then be restarted by the Coordinator" — and
/// nothing from the dead round reaches storage (Sec. 4.2).
#[test]
fn master_loss_fails_round_then_restarts() {
    let outcome = one_fault_run(Fault::MasterCrash { at_ms: 12_000 });
    let pop = &outcome.populations[0];
    assert_eq!(pop.master_restarts, 1, "{}", outcome.render());
    assert!(pop.committed >= 1, "{}", outcome.render());
    assert_eq!(pop.write_count, 1 + pop.committed);
    assert_eq!(outcome.log.with_prefix("recover.round-restart").count(), 1);
}

/// Coordinator loss: the locking-service race admits exactly one
/// respawn, and the respawned incarnation resumes the committed model
/// without an extra checkpoint write (Sec. 4.2: "this will happen
/// exactly once").
#[test]
fn coordinator_loss_respawns_exactly_once() {
    let outcome = one_fault_run(Fault::CoordinatorCrash { at_ms: 15_000 });
    let pop = &outcome.populations[0];
    assert_eq!(pop.respawns, 1, "{}", outcome.render());
    assert!(pop.committed >= 1, "{}", outcome.render());
    assert_eq!(outcome.log.with_prefix("recover.respawn").count(), 1);
    // The respawn checks (one winning racer, no extra write, model
    // intact) are part of the engine's audit; clean outcome == guarantees
    // held.
    assert_eq!(pop.write_count, 1 + pop.committed);
}

/// Lease loss: the coordinator re-registers at the next tick and keeps
/// training.
#[test]
fn lease_loss_is_reacquired() {
    let outcome = one_fault_run(Fault::LeaseLoss { at_ms: 10_000 });
    let pop = &outcome.populations[0];
    assert_eq!(pop.lease_reacquisitions, 1, "{}", outcome.render());
    assert!(pop.committed >= 1, "{}", outcome.render());
}

/// Storage write failure: the round's aggregate is lost, the previously
/// committed checkpoint stays authoritative, and the next round retries
/// from it ("no information for a round is written to persistent storage
/// until it is fully aggregated").
#[test]
fn storage_failure_loses_round_but_not_state() {
    let outcome = one_fault_run(Fault::StorageWriteFailure { attempt: 2 });
    let pop = &outcome.populations[0];
    assert_eq!(pop.lost_to_storage, 1, "{}", outcome.render());
    assert!(pop.committed >= 1, "{}", outcome.render());
    assert_eq!(pop.write_count, 1 + pop.committed);
}

/// Device drop-out burst: over-selection absorbs it, or the round is
/// abandoned cleanly — either way no hang and no stray writes.
#[test]
fn dropout_burst_never_wedges_a_round() {
    let outcome = one_fault_run(Fault::DropoutBurst {
        at_ms: 12_000,
        per_mille: 400,
    });
    let pop = &outcome.populations[0];
    assert_eq!(outcome.log.with_prefix("inject.dropout-burst").count(), 1);
    assert_eq!(pop.write_count, 1 + pop.committed);
}

/// Compound schedule: every failure mode in one run, in a deliberately
/// nasty order (coordinator dies while a storage failure is pending and
/// devices are dropping). The system must still make progress.
#[test]
fn compound_fault_schedule_still_makes_progress() {
    let plan = FaultPlan {
        seed: 2,
        faults: vec![
            Fault::DropoutBurst {
                at_ms: 8_000,
                per_mille: 250,
            },
            Fault::MasterCrash { at_ms: 40_000 },
            Fault::CoordinatorCrash { at_ms: 70_000 },
            Fault::LeaseLoss { at_ms: 100_000 },
            Fault::SelectorCrash {
                at_ms: 120_000,
                selector: 1,
            },
            Fault::AggregatorCrash {
                at_ms: 140_000,
                shard: 2,
            },
            Fault::StorageWriteFailure { attempt: 3 },
        ],
    };
    let outcome = run_plan(&plan, None);
    assert!(outcome.is_clean(), "{}", outcome.render());
    let pop = &outcome.populations[0];
    assert!(pop.committed >= 1, "{}", outcome.render());
    assert_eq!(pop.respawns, 1);
    assert_eq!(pop.master_restarts, 1);
    assert_eq!(pop.lost_to_storage, 1);
    assert_eq!(pop.write_count, 1 + pop.committed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property over *random* fault schedules (satellite 4): whatever the
    /// plan, the system never hangs (every round reaches a terminal
    /// phase — hangs surface as violations), never double-commits
    /// (`write_count == 1 + committed`), and always reaches terminal
    /// round outcomes.
    #[test]
    fn random_fault_schedules_never_hang_or_double_commit(seed in 0u64..10_000) {
        let outcome = scenario::run(&ScenarioConfig::chaos_seed(None, seed));
        prop_assert!(
            outcome.is_clean(),
            "seed {} violated guarantees:\n{}",
            seed,
            outcome.render()
        );
        let pop = &outcome.populations[0];
        prop_assert_eq!(pop.write_count, 1 + pop.committed);
        prop_assert!(
            pop.committed + pop.abandoned + pop.lost_to_storage + pop.master_restarts >= 1
        );
    }
}
