//! Tier-1 schedule-exploration gate: the live harness's one audit (never
//! hang, exactly one commit, `write_count == 1 + committed`, the exact
//! average of six distinct updates, one send per device on a clean wire,
//! obituaries exactly once) must hold across K = 64 seeded delivery
//! schedules of the live round (`live::run(None, seed, secagg)`), its
//! invariants under wire faults and schedules together, and 64 timing
//! schedules of a chaos fault plan — and every report must replay
//! byte-identically per seed, so a failing seed is a self-contained
//! repro.
//!
//! Also re-finds the obituary-stealing bug the supervision layer fixed:
//! two supervisors sharing one `deaths()` receiver steal notices from
//! each other under a scripted, deterministic schedule, while the fixed
//! private-subscription pattern sees every death exactly once.

use fl_actors::{
    audit_exactly_once, Actor, ActorSystem, Context, FaultAction, Flow, ScriptedFaults,
};
use fl_sim::live;
use fl_sim::scenario::{self, ScenarioConfig};
use std::sync::Arc;

/// How many seeded schedules each scenario is explored under.
const K: u64 = 64;

#[test]
fn live_round_invariants_hold_across_k_schedules() {
    for seed in 0..K {
        let report = live::run(None, seed, false);
        assert!(
            report.is_clean(),
            "schedule seed {seed} violations: {:?}",
            report.violations
        );
        assert_eq!(report.committed, 1, "schedule seed {seed}");
        assert_eq!(report.write_count, 2, "schedule seed {seed}");
    }
}

#[test]
fn live_round_reports_replay_byte_identically() {
    for seed in [0u64, 7, 31, 63] {
        assert_eq!(
            live::run(None, seed, false).render(),
            live::run(None, seed, false).render(),
            "schedule seed {seed} replay diverged"
        );
    }
}

/// The SecAgg live round — masked reports, a post-staging share dropout,
/// Shamir mask reconstruction at finalize — under the same K mailbox
/// schedules: never hangs, commits exactly once, and the reconstruction
/// path is schedule-invariant.
#[test]
fn secagg_live_round_invariants_hold_across_k_schedules() {
    for seed in 0..K {
        let report = live::run(None, seed, true);
        assert!(
            report.is_clean(),
            "secagg schedule seed {seed} violations: {:?}",
            report.violations
        );
        assert_eq!(report.committed, 1, "secagg schedule seed {seed}");
        assert_eq!(report.write_count, 2, "secagg schedule seed {seed}");
    }
}

#[test]
fn secagg_live_round_reports_replay_byte_identically() {
    for seed in [0u64, 31] {
        assert_eq!(
            live::run(None, seed, true).render(),
            live::run(None, seed, true).render(),
            "secagg schedule seed {seed} replay diverged"
        );
    }
}

/// Wire faults x delivery schedule is one spec: mangled report frames
/// (plain and SecAgg) while every mailbox drains in a permuted order.
/// Only the invariants are asserted — a permuted mailbox may order a
/// duplicate ahead of its original, so the ledger counters of one fault
/// seed may legally differ from one schedule to the next.
#[test]
fn wire_chaos_invariants_hold_across_delivery_schedules() {
    for secagg in [false, true] {
        for wire_seed in 1..=3 {
            for schedule in 1..=3 {
                let report = live::run(Some(wire_seed), schedule, secagg);
                assert!(report.is_clean(), "{}", report.render());
            }
        }
    }
}

/// A SecAgg chaos plan under permuted virtual-clock timing schedules:
/// the masked rounds' recovery guarantees are timing-invariant too.
#[test]
fn secagg_chaos_recovery_holds_across_timing_schedules() {
    let config = ScenarioConfig::chaos_seed(Some(2), 11);
    for schedule in 0..16 {
        let outcome = scenario::run_with_schedule(&config, schedule);
        assert!(
            outcome.is_clean(),
            "secagg schedule seed {schedule} violations: {:?}",
            outcome.violations
        );
        let pop = &outcome.populations[0];
        assert_eq!(pop.write_count, 1 + pop.committed);
    }
}

#[test]
fn chaos_recovery_holds_across_k_timing_schedules() {
    let config = ScenarioConfig::chaos_seed(None, 11);
    for schedule in 0..K {
        let outcome = scenario::run_with_schedule(&config, schedule);
        assert!(
            outcome.is_clean(),
            "schedule seed {schedule} violations: {:?}",
            outcome.violations
        );
        let pop = &outcome.populations[0];
        assert_eq!(pop.write_count, 1 + pop.committed);
    }
}

#[test]
fn chaos_schedule_reports_replay_byte_identically() {
    for (plan_seed, schedule) in [(11u64, 3u64), (23, 17), (47, 40)] {
        let config = ScenarioConfig::chaos_seed(None, plan_seed);
        assert_eq!(
            scenario::run_with_schedule(&config, schedule).render(),
            scenario::run_with_schedule(&config, schedule).render(),
            "plan {plan_seed} schedule {schedule} replay diverged"
        );
    }
}

/// A do-nothing actor the scripted crashes target.
#[derive(Debug)]
struct Noop;

impl Actor for Noop {
    type Msg = u64;

    fn handle(&mut self, _msg: u64, _ctx: &mut Context<u64>) -> Flow {
        Flow::Continue
    }
}

#[test]
fn shared_receiver_obituary_stealing_is_refound() {
    // Scripted schedule: each worker's first message crashes it through
    // the real panic-recovery path, producing two obituaries.
    let system = ActorSystem::new();
    system.install_fault_injector(Arc::new(
        ScriptedFaults::new()
            .with("worker-a", 1, FaultAction::Crash)
            .with("worker-b", 1, FaultAction::Crash),
    ));
    let a = system.spawn("worker-a", Noop);
    let b = system.spawn("worker-b", Noop);
    a.send(1).unwrap();
    b.send(1).unwrap();
    system.join();

    // The legacy pattern this workspace once had: two supervisors
    // draining ONE shared subscription. The scripted alternating
    // consumption below deterministically reproduces the stealing
    // interleaving — each supervisor sees only half the deaths.
    let shared = system.deaths();
    let mut view_one = Vec::new();
    let mut view_two = Vec::new();
    for (i, obit) in shared.try_iter().enumerate() {
        if i % 2 == 0 {
            view_one.push(obit);
        } else {
            view_two.push(obit);
        }
    }
    let expected = ["worker-a", "worker-b"];
    let stolen = audit_exactly_once(&[view_one, view_two], &expected);
    assert_eq!(
        stolen.len(),
        2,
        "each shared-receiver view must be missing exactly one obituary: {stolen:?}"
    );

    // The fixed pattern: every subscriber owns a private replayed
    // channel, so concurrent consumers cannot steal notices.
    let views: Vec<Vec<_>> = (0..2)
        .map(|_| system.deaths().try_iter().collect())
        .collect();
    assert!(
        audit_exactly_once(&views, &expected).is_empty(),
        "private subscriptions must see every death exactly once"
    );
}
