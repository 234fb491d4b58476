//! Multi-tenant populations end to end (the tentpole of the
//! multi-tenancy PR): one Coordinator per population over a shared
//! Selector layer (Sec. 2.1/4.2 — "The Coordinators are the top-level
//! actors, one per population"), check-ins demultiplexed by the
//! [`PopulationName`] every v3 frame carries, per-population quotas and
//! telemetry, and the shared admission budget's per-population
//! fair-share reservations — plus the seeded multi-population DES sweep
//! (`fl-sim::multi`) that audits cross-population fairness under a
//! flash crowd.

use crossbeam::channel::unbounded;
use federated::actors::{
    watch_and_respawn, ActorRef, ActorSystem, FaultAction, LockingService, ScriptedFaults,
};
use federated::analytics::overload::OverloadMonitorConfig;
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, PopulationName};
use federated::device::session::{Accepted, DeviceSession, End, Payload};
use federated::server::live::{
    coordinator_lease_name, CoordMsg, CoordinatorActor, DeviceConn, SelectorMsg,
};
use federated::server::storage::InMemoryCheckpointStore;
use federated::server::pace::PaceSteering;
use federated::server::topology::{
    complete_round, spawn_multi_topology, SelectorSpec, TopologyBlueprint,
};
use federated::server::wire::WireMessage;
use federated::server::{CoordinatorConfig, GlobalAdmissionConfig};
use federated::sim::multi::default_seeds;
use federated::sim::scenario::{self, ScenarioConfig};
use std::sync::Arc;
use std::time::Duration;

fn spec() -> ModelSpec {
    ModelSpec::Logistic {
        dim: 4,
        classes: 2,
        seed: 0,
    }
}

fn coordinator_for(
    population: &str,
    round: RoundConfig,
    locks: LockingService<String>,
) -> CoordinatorActor<federated::server::storage::InMemoryCheckpointStore> {
    let task = FlTask::training("t", population).with_round(round);
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
    CoordinatorActor::new(
        CoordinatorConfig::new(population, 7),
        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        vec![plan],
        vec![0.0; spec().num_params()],
        locks,
    )
}

fn round_with_goal(goal: usize) -> RoundConfig {
    RoundConfig {
        goal_count: goal,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    }
}

fn drive_to_commit(coord: &ActorRef<CoordMsg>) -> bool {
    complete_round(coord, Duration::from_secs(10)).unwrap().is_committed()
}

/// Three populations, three Coordinators, one shared two-Selector layer:
/// every tenant's devices check in under their own population name,
/// route to their own Coordinator, and every tenant commits its round
/// concurrently. The shared telemetry splits accept series per
/// population, and the shared budget ledgers every admit to the right
/// tenant.
#[test]
fn three_populations_commit_concurrently_through_one_selector_layer() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let populations = ["tenant/a", "tenant/b", "tenant/c"];
    let coordinators = populations
        .iter()
        .map(|p| (coordinator_for(p, round_with_goal(4), locks.clone()), 8))
        .collect();
    let blueprint = TopologyBlueprint::new(
        (0..2)
            .map(|i| SelectorSpec::new(PaceSteering::new(1_000, 12), 100, i, 24))
            .collect(),
    )
    .with_global_admission(GlobalAdmissionConfig {
        window_ms: 600_000,
        max_admits_per_window: 120,
    })
    .with_telemetry(OverloadMonitorConfig::default());
    let multi = spawn_multi_topology(&system, coordinators, &blueprint);
    assert_eq!(multi.selectors.len(), 2);
    assert_eq!(multi.coordinators.len(), 3);

    // Four devices per population, fanned across both selectors, all on
    // their own threads — twelve concurrent check-ins, three concurrent
    // rounds.
    let handles: Vec<_> = populations
        .iter()
        .enumerate()
        .flat_map(|(p, population)| {
            (0..4u64).map(move |i| (p, *population, p as u64 * 100 + i))
        })
        .map(|(p, population, id)| {
            let sel = multi.selectors[(id % 2) as usize].clone();
            let coord = multi
                .coordinator(&PopulationName::new(population))
                .unwrap()
                .clone();
            std::thread::spawn(move || (p, run_session(id, population, sel, coord).is_ok()))
        })
        .collect();
    let mut accepted_per_pop = [0usize; 3];
    for h in handles {
        let (p, ok) = h.join().unwrap();
        if ok {
            accepted_per_pop[p] += 1;
        }
    }
    assert_eq!(accepted_per_pop, [4, 4, 4], "every tenant's devices contribute");

    for population in &populations {
        let coord = multi.coordinator(&PopulationName::new(*population)).unwrap();
        assert!(
            drive_to_commit(coord),
            "population {population} failed to commit its round"
        );
    }

    // The shared budget ledgered every admit to the owning tenant.
    let budget = multi.global_budget.clone().expect("budget configured");
    for population in &populations {
        assert_eq!(
            budget.admitted_total_for(&PopulationName::new(*population)),
            4,
            "budget ledger for {population}"
        );
    }
    // The shared telemetry split the accept series per population.
    let telemetry = multi.telemetry.clone().expect("telemetry configured");
    let metrics = telemetry.lock();
    for population in &populations {
        let series = metrics
            .population_series(&PopulationName::new(*population))
            .unwrap_or_else(|| panic!("no series for {population}"));
        assert_eq!(
            series.accepts.sums().iter().sum::<f64>(),
            4.0,
            "accept series for {population}"
        );
    }
    drop(metrics);

    multi.shutdown();
    system.join();
    for population in &populations {
        assert!(locks.lookup(&format!("coordinator/{population}")).is_none());
    }
}

/// A storm of check-ins on one tenant runs into the shared budget's
/// fair-share reservations while the quiet tenant's devices all admit
/// and its round commits — live-threaded, the same guarantee the DES
/// sweep audits at scale.
#[test]
fn fair_share_budget_shields_the_quiet_population_live() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let coordinators = vec![
        (coordinator_for("fair/quiet", round_with_goal(3), locks.clone()), 16),
        (coordinator_for("fair/storm", round_with_goal(3), locks.clone()), 16),
    ];
    // Budget of 6 per window over 2 tenants: fair share 3 each. The
    // storm's 10 devices cannot take the quiet tenant's 3 reserved
    // admits, however the threads interleave.
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 6),
        100,
        5,
        32,
    )])
    .with_global_admission(GlobalAdmissionConfig {
        window_ms: 600_000,
        max_admits_per_window: 6,
    });
    let multi = spawn_multi_topology(&system, coordinators, &blueprint);
    let quiet = PopulationName::new("fair/quiet");
    let storm = PopulationName::new("fair/storm");

    // The storm checks in first — all ten devices — then the quiet
    // tenant's three. Even with the storm fully ahead in line, the
    // quiet tenant must get its full fair share.
    let storm_conns: Vec<_> = (0..10u64)
        .map(|i| {
            let conn = DeviceConn::connect(
                DeviceId(100 + i),
                "fair/storm",
                multi.selectors[0].clone(),
                multi.coordinator(&storm).unwrap().clone(),
            );
            conn.check_in().unwrap();
            conn
        })
        .collect();

    // Every quiet device is configured (none shed) and carries the
    // round to a commit.
    commit_one_round("fair/quiet", 0..3, &multi.selectors, multi.coordinator(&quiet).unwrap());

    // The storm's overflow was shed by the budget, charged to the
    // storm's own ledger — never the quiet tenant's.
    let mut storm_shed = 0;
    let mut storm_configured = 0;
    for conn in &storm_conns {
        match conn.recv(Duration::from_secs(10)).unwrap() {
            WireMessage::Shed { population, .. } => {
                assert_eq!(population, storm);
                storm_shed += 1;
            }
            WireMessage::PlanAndCheckpoint { .. } => storm_configured += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(storm_configured, 3, "the storm keeps its own fair share");
    assert_eq!(storm_shed, 7, "the overflow is shed");
    let budget = multi.global_budget.clone().expect("budget configured");
    assert_eq!(budget.admitted_total_for(&quiet), 3);
    assert_eq!(budget.admitted_total_for(&storm), 3);
    assert_eq!(budget.shed_total_for(&quiet), 0);
    assert_eq!(budget.shed_total_for(&storm), 7);

    multi.shutdown();
    system.join();
}

/// One device's session under `population` over an in-memory connection
/// through `selector`, reporting 0.5 on every coordinate at weight 1.
fn run_session(
    id: u64,
    population: &str,
    selector: ActorRef<SelectorMsg>,
    coordinator: ActorRef<CoordMsg>,
) -> Result<Accepted, End> {
    let conn = DeviceConn::connect(DeviceId(id), population, selector, coordinator);
    DeviceSession::new(DeviceId(id), population).exchange(
        |frame| conn.send(frame),
        |wait| {
            let reply = conn.recv(wait)?;
            if let WireMessage::PlanAndCheckpoint {
                population: wired, ..
            } = &reply
            {
                // The Configuration is stamped with the tenant's own
                // population: no cross-tenant plan ever reaches a device.
                assert_eq!(wired.as_str(), population);
            }
            Ok(reply)
        },
        Duration::from_secs(10),
        |session| {
            let update = vec![0.5f32; session.plan().server.expected_dim];
            session.report(Payload::Identity(&update), 1, 0.4, 0.9)
        },
    )
}

/// Runs a session for each of `devices` under `population`, spread over
/// `selectors`, and drives the round to its commit. A device whose report
/// is not accepted fails the test — a check-in forwarded to a dead
/// mailbox looks, from the device's side, like a Configuration that
/// never comes.
fn commit_one_round(
    population: &str,
    devices: std::ops::Range<u64>,
    selectors: &[ActorRef<SelectorMsg>],
    coord: &ActorRef<CoordMsg>,
) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .map(|id| {
                let selector = selectors[id as usize % selectors.len()].clone();
                scope.spawn(move || run_session(id, population, selector, coord.clone()))
            })
            .collect();
        for h in handles {
            let end = h.join().unwrap();
            assert!(end.is_ok(), "{population}: {end:?}");
        }
    });
    assert!(drive_to_commit(coord), "{population} failed to commit");
}

/// Regression: `SelectorMsg::Rewire` used to overwrite only the
/// Selector's fallback route, while check-ins are routed by population —
/// so in a multi-population tree a respawned Coordinator never received
/// traffic and its population's devices kept being forwarded to the dead
/// mailbox. `Rewire` now names the population whose route it replaces:
/// after one of three Coordinators crashes and is respawned, that
/// population commits its next round through the replacement and the
/// other two never notice.
#[test]
fn rewire_retargets_only_the_respawned_population() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let populations = ["rewire/a", "rewire/b", "rewire/c"];
    let coordinators = populations
        .iter()
        .map(|p| (coordinator_for(p, round_with_goal(2), locks.clone()), 8))
        .collect();
    let blueprint = TopologyBlueprint::new(
        (0..2)
            .map(|i| SelectorSpec::new(PaceSteering::new(1_000, 6), 100, i, 8))
            .collect(),
    );
    let multi = spawn_multi_topology(&system, coordinators, &blueprint);

    let doomed = PopulationName::new("rewire/b");
    let lease_name = coordinator_lease_name(&doomed);
    let doomed_epoch = locks.current_epoch(&lease_name).expect("lease held");
    system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
        "coordinator-rewire/b",
        1,
        FaultAction::Crash,
    )));
    let (found_tx, found_rx) = unbounded();
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            watch_and_respawn(
                &system,
                &locks,
                "coordinator-rewire/b",
                &lease_name,
                doomed_epoch,
                1,
                |lease| {
                    let task = FlTask::training("t", "rewire/b").with_round(round_with_goal(2));
                    CoordinatorActor::with_store(
                        CoordinatorConfig::new("rewire/b", 7),
                        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
                        vec![FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity)],
                        vec![0.0; spec().num_params()],
                        locks.clone(),
                        lease,
                        InMemoryCheckpointStore::new(),
                    )
                },
                |replacement| {
                    let _ = found_tx.send(replacement);
                },
                Duration::from_secs(10),
            )
        });

        // Its first message trips the injected crash; the watcher
        // respawns it and the Selector layer is re-briefed, by name.
        multi
            .coordinator(&doomed)
            .unwrap()
            .send(CoordMsg::SetPopulationEstimate(100))
            .unwrap();
        let replacement = found_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        system.clear_fault_injector();
        for selector in &multi.selectors {
            selector
                .send(SelectorMsg::Rewire {
                    population: doomed.clone(),
                    coordinator: replacement.clone(),
                    quota: 8,
                    population_estimate: 100,
                })
                .unwrap();
        }

        // The respawned population commits its next round through the
        // replacement, one device per selector...
        commit_one_round("rewire/b", 100..102, &multi.selectors, &replacement);
        // ...and the other two still reach their original Coordinators.
        for (first, population) in [(0u64, "rewire/a"), (20, "rewire/c")] {
            let coord = multi.coordinator(&PopulationName::new(population)).unwrap();
            commit_one_round(population, first..first + 2, &multi.selectors, coord);
        }

        // A clean stop of the replacement releases the watcher.
        replacement.send(CoordMsg::Shutdown).unwrap();
        let report = watcher.join().unwrap();
        assert_eq!(report.respawns, 1);
    });
    multi.shutdown();
    system.join();
}

/// Regression: a check-in naming a population nobody registered used to
/// fall through to the default route — configured by another tenant's
/// Coordinator with another tenant's plan — after minting rows in the
/// Selector's, the budget's and the telemetry's per-population tables.
/// The name is peer-supplied, so it is now refused with the ordinary
/// `ComeBackLater` and leaves no trace beyond one counter.
#[test]
fn unregistered_population_is_told_to_come_back_later() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let coordinators = vec![(coordinator_for("known/pop", round_with_goal(1), locks.clone()), 8)];
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 6),
        100,
        5,
        8,
    )])
    .with_global_admission(GlobalAdmissionConfig {
        window_ms: 600_000,
        max_admits_per_window: 6,
    })
    .with_telemetry(OverloadMonitorConfig::default());
    let multi = spawn_multi_topology(&system, coordinators, &blueprint);
    let known = PopulationName::new("known/pop");
    let coord = multi.coordinator(&known).unwrap();

    for i in 0..50u64 {
        let made_up = format!("made-up/{i}");
        let conn = DeviceConn::connect(
            DeviceId(i),
            made_up.as_str(),
            multi.selectors[0].clone(),
            coord.clone(),
        );
        conn.check_in().unwrap();
        match conn.recv(Duration::from_secs(5)).unwrap() {
            WireMessage::ComeBackLater { population, .. } => {
                assert_eq!(population.as_str(), made_up)
            }
            other => panic!("unregistered population got {other:?}"),
        }
    }
    let budget = multi.global_budget.clone().expect("budget configured");
    assert_eq!(budget.registered_populations(), vec![known.clone()]);
    assert_eq!(budget.admitted_total() + budget.shed_total(), 0);
    {
        let telemetry = multi.telemetry.clone().expect("telemetry configured");
        let metrics = telemetry.lock();
        assert!(metrics.populations().is_empty());
    }
    // The real tenant is untouched: its device is configured at once.
    commit_one_round("known/pop", 1_000..1_001, &multi.selectors, coord);

    multi.shutdown();
    system.join();
}

/// The fixed-seed multi-population DES sweep `scripts/check.sh` runs as
/// a release gate: three tenants on one fleet, a 12 000-device flash
/// crowd against one of them, and every fairness invariant — no starved
/// tenant, conserved per-population ledgers, bounded queues, no wedged
/// rounds — holding on every seed.
#[test]
fn fixed_seed_fairness_sweep_is_clean() {
    for seed in default_seeds() {
        let outcome = scenario::run(&ScenarioConfig::flash_vs_steady(seed));
        assert!(
            outcome.is_clean(),
            "seed {seed} violated multi-tenant invariants:\n{}",
            outcome.render()
        );
        let steady = outcome.population("multi/steady").unwrap();
        let flash = outcome.population("multi/flash").unwrap();
        assert!(
            steady.committed >= 3,
            "seed {seed}: steady tenant starved:\n{}",
            outcome.render()
        );
        assert!(
            flash.budget_sheds > 1_000,
            "seed {seed}: the storm never hit the fair-share budget:\n{}",
            outcome.render()
        );
        assert!(
            steady.budget_sheds < flash.budget_sheds / 100,
            "seed {seed}: fair-share cost leaked onto the steady tenant:\n{}",
            outcome.render()
        );
        // The on-device half of multi-tenancy: single-session
        // arbitration really arbitrated.
        assert!(
            outcome.arbitration_losses > 0,
            "seed {seed}: no device arbitration:\n{}",
            outcome.render()
        );
    }
}
