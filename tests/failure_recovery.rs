//! Failure-mode integration tests (Sec. 4.4): "In all failure cases the
//! system will continue to make progress, either by completing the
//! current round or restarting from the results of the previously
//! committed round."

use crossbeam::channel::unbounded;
use federated::actors::{
    watch_and_respawn, ActorRef, ActorSystem, FaultAction, LockingService, ScriptedFaults,
};
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, PopulationName, RoundId};
use federated::server::aggregator::MasterAggregator;
use federated::server::coordinator::{ActiveRound, Coordinator, CoordinatorConfig, ReportVerdict};
use federated::server::live::{
    coordinator_lease_name, CoordMsg, CoordinatorActor, DeviceConn, SelectorMsg,
};
use federated::server::pace::PaceSteering;
use federated::server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use federated::server::topology::{
    complete_round, spawn_multi_topology, CompletionError, SelectorSpec, TopologyBlueprint,
};
use federated::server::wire::WireMessage;
use std::sync::Arc;
use std::time::Duration;

fn spec() -> ModelSpec {
    ModelSpec::Logistic {
        dim: 4,
        classes: 2,
        seed: 0,
    }
}

fn quick_round(goal: usize) -> RoundConfig {
    RoundConfig {
        goal_count: goal,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 10_000,
        report_window_ms: 60_000,
        device_cap_ms: 60_000,
    }
}

/// The first `n` participants of `round` report a unit delta on four
/// coordinates at weight 10 under the key their Configuration carried;
/// the round's Master folds each accepted report.
fn report_first(
    n: usize,
    round: &mut ActiveRound,
    master: &mut Option<MasterAggregator>,
    population: &str,
    now: u64,
) {
    let update = CodecSpec::Identity
        .build()
        .encode(&[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    for device in round.state.participants().into_iter().take(n) {
        let frame = federated::server::wire::encode(&WireMessage::UpdateReport {
            device,
            round: round.checkpoint.round,
            attempt: 1,
            update_bytes: update.clone(),
            weight: 10,
            loss: 0.5,
            accuracy: 0.5,
            population: population.into(),
        })
        .unwrap();
        let (_, verdict) = round.on_report(now, &frame);
        if let (ReportVerdict::Forward(route), Some(master)) = (verdict, master.as_mut()) {
            master.accept_forwarded(&route, &frame).unwrap();
        }
    }
}

fn deployed(population: &str) -> Coordinator<InMemoryCheckpointStore> {
    let task = FlTask::training("t", population).with_round(quick_round(3));
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
    let mut c = Coordinator::new(
        CoordinatorConfig::new(population, 1),
        InMemoryCheckpointStore::new(),
    );
    c.deploy(
        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        vec![plan],
        vec![0.0; spec().num_params()],
    )
    .unwrap();
    c
}

/// Master Aggregator failure: "the current round of the FL task it
/// manages will fail, but will then be restarted by the Coordinator" —
/// dropping an in-flight round loses nothing durable; the next round
/// restarts from the previously committed checkpoint.
#[test]
fn master_failure_restarts_from_committed_checkpoint() {
    let mut c = deployed("pop-master-fail");

    // Round 1 commits normally.
    let (mut r1, mut m1) = c.begin_round(0).unwrap();
    for i in 0..3u64 {
        r1.on_checkin(DeviceId(i), 10);
    }
    report_first(3, &mut r1, &mut m1, "pop-master-fail", 100);
    let aggregate = r1.merge(m1);
    c.complete_round(r1, aggregate).unwrap();
    let committed = c.global_params("t").unwrap();
    assert_eq!(c.store().latest("t").unwrap().round, RoundId(1));

    // Round 2's master "crashes": the round and its Master, one report
    // folded, are simply dropped mid-flight (ephemeral, in-memory —
    // nothing was persisted).
    let (mut r2, mut m2) = c.begin_round(1_000).unwrap();
    for i in 0..3u64 {
        r2.on_checkin(DeviceId(10 + i), 1_010);
    }
    report_first(1, &mut r2, &mut m2, "pop-master-fail", 1_100);
    drop((r2, m2)); // crash: partial aggregate vanishes

    // Storage is untouched; the restarted round reads round 1's result.
    assert_eq!(c.store().latest("t").unwrap().round, RoundId(1));
    assert_eq!(c.global_params("t").unwrap(), committed);

    // Round 3 (the restart) proceeds to commit from that checkpoint.
    let (mut r3, mut m3) = c.begin_round(2_000).unwrap();
    assert_eq!(r3.checkpoint.params(), committed.as_slice());
    for i in 0..3u64 {
        r3.on_checkin(DeviceId(20 + i), 2_010);
    }
    report_first(3, &mut r3, &mut m3, "pop-master-fail", 2_100);
    let aggregate = r3.merge(m3);
    let outcome = c.complete_round(r3, aggregate).unwrap();
    assert!(outcome.is_committed());
    assert_eq!(c.store().latest("t").unwrap().round, RoundId(2));
}

/// Coordinator death: the Selector layer detects it (via the obituary
/// channel) and respawns it; the locking service guarantees exactly one
/// respawn even when multiple selectors race.
#[test]
fn coordinator_death_triggers_exactly_one_respawn() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let task = FlTask::training("t", "pop-respawn").with_round(quick_round(2));
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);

    let make_actor = |locks: LockingService<String>| {
        CoordinatorActor::new(
            CoordinatorConfig::new("pop-respawn", 9),
            TaskGroup::new(vec![task.clone()], TaskSelectionStrategy::Single),
            vec![plan.clone()],
            vec![0.0; spec().num_params()],
            locks,
        )
    };

    let coord = system.spawn("coordinator", make_actor(locks.clone()));
    assert!(locks.lookup("coordinator/pop-respawn").is_some());

    // Kill it.
    coord.send(CoordMsg::Shutdown).unwrap();
    let deaths = system.deaths();
    let obit = deaths.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(obit.name, "coordinator");

    // The lease must be gone (released in on_stop) so a successor can own
    // the population.
    assert!(locks.lookup("coordinator/pop-respawn").is_none());

    // Multiple selectors race to respawn; the locking service admits one.
    let results: Vec<bool> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| {
                let locks = locks.clone();
                scope.spawn(move || {
                    locks
                        .acquire("coordinator/pop-respawn", "new".into())
                        .is_some()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(results.iter().filter(|&&w| w).count(), 1);

    // The winner actually spawns the replacement (it must not re-acquire).
    locks.evict("coordinator/pop-respawn");
    let replacement = system.spawn("coordinator-2", make_actor(locks.clone()));
    // It takes the request (no round has finished), proving it is live.
    assert_eq!(
        complete_round(&replacement, Duration::from_millis(50)),
        Err(CompletionError::TimedOut)
    );

    replacement.send(CoordMsg::Shutdown).unwrap();
    system.join();
}

/// End-to-end injected coordinator crash over real threads: a scripted
/// fault kills the live coordinator on its Nth message, several
/// concurrent watchers race through the locking service, exactly one
/// respawns it over the *surviving* shared store, and the respawned
/// incarnation resumes the trained model without an extra checkpoint
/// write (Sec. 4.2/4.4).
#[test]
fn injected_coordinator_crash_respawns_once_with_surviving_model() {
    let population = "pop-chaos-live";
    let lease_name = coordinator_lease_name(&population.into());
    let task = FlTask::training("t", population).with_round(quick_round(3));
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
    let group = || TaskGroup::new(vec![task.clone()], TaskSelectionStrategy::Single);
    let init = vec![0.0f32; spec().num_params()];

    // Persistent storage outlives any coordinator incarnation: train one
    // round into it directly so there is a committed model to lose.
    let store = SharedCheckpointStore::new(InMemoryCheckpointStore::new());
    let mut seedc = Coordinator::new(CoordinatorConfig::new(population, 1), store.clone());
    seedc
        .deploy(group(), vec![plan.clone()], init.clone())
        .unwrap();
    let (mut r1, mut m1) = seedc.begin_round(0).unwrap();
    for i in 0..3u64 {
        r1.on_checkin(DeviceId(i), 10);
    }
    report_first(3, &mut r1, &mut m1, population, 100);
    let aggregate = r1.merge(m1);
    seedc.complete_round(r1, aggregate).unwrap();
    let trained = seedc.global_params("t").unwrap();
    drop(seedc); // the incarnation dies; the shared store survives
    let writes_before = store.write_count();
    assert_eq!(writes_before, 2); // deploy + one committed round

    // The live coordinator: scripted to crash on its 2nd message.
    let system = ActorSystem::new();
    system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
        "coordinator",
        2,
        FaultAction::Crash,
    )));
    let locks: LockingService<String> = LockingService::new();
    let lease = locks
        .acquire(lease_name.clone(), lease_name.clone())
        .unwrap();
    let doomed_epoch = lease.epoch;
    let coord = system.spawn(
        "coordinator",
        CoordinatorActor::with_store(
            CoordinatorConfig::new(population, 1),
            group(),
            vec![plan.clone()],
            init.clone(),
            locks.clone(),
            lease,
            store.clone(),
        ),
    );
    // Resume-aware deployment must not have clobbered the trained model.
    assert_eq!(store.write_count(), writes_before);

    // Three watchers race to respawn whatever dies under this name.
    let (found_tx, found_rx) = unbounded();
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let system = system.clone();
                let locks = locks.clone();
                let store = store.clone();
                let plan = plan.clone();
                let init = init.clone();
                let lease_name = lease_name.clone();
                let found_tx = found_tx.clone();
                let group = &group;
                scope.spawn(move || {
                    watch_and_respawn(
                        &system,
                        &locks,
                        "coordinator",
                        &lease_name,
                        doomed_epoch,
                        1,
                        |lease| {
                            CoordinatorActor::with_store(
                                CoordinatorConfig::new(population, 1),
                                group(),
                                vec![plan.clone()],
                                init.clone(),
                                locks.clone(),
                                lease,
                                store.clone(),
                            )
                        },
                        |replacement| {
                            let _ = found_tx.send(replacement);
                        },
                        Duration::from_secs(10),
                    )
                })
            })
            .collect();

        // Message 1 survives; message 2 trips the injected crash.
        coord.send(CoordMsg::SetPopulationEstimate(100)).unwrap();
        coord.send(CoordMsg::SetPopulationEstimate(100)).unwrap();

        // Exactly one watcher wins and hands us the replacement. The
        // scripted fault is keyed by actor *name*, so lift it now —
        // otherwise the replacement's own 2nd message would crash too.
        let replacement = found_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        system.clear_fault_injector();
        assert_eq!(
            complete_round(&replacement, Duration::from_millis(50)),
            Err(CompletionError::TimedOut)
        );
        // Clean shutdown of the replacement unblocks every watcher.
        replacement.send(CoordMsg::Shutdown).unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        reports.iter().map(|r| r.respawns).sum::<usize>(),
        1,
        "exactly one watcher may respawn (Sec. 4.4)"
    );
    // Every watcher saw the same crash obituary for the doomed actor.
    for report in &reports {
        assert!(report.deaths.iter().all(|obit| obit.name == "coordinator"));
    }
    // The respawned incarnation resumed — not re-initialized — the
    // model: no extra checkpoint write, trained parameters intact.
    assert_eq!(store.write_count(), writes_before);
    assert_eq!(store.latest("t").unwrap().into_params(), trained);
    // The clean shutdown released the successor's lease.
    assert!(locks.lookup(&lease_name).is_none());
    system.join();
}

/// A panicking actor produces an obituary instead of tearing the process
/// down, and unrelated actors keep running (Sec. 4.4: "the loss of an
/// actor will not prevent the round from succeeding").
#[test]
fn actor_panic_is_isolated() {
    use federated::actors::{Actor, Context, Flow};

    struct Healthy;
    impl Actor for Healthy {
        type Msg = u32;
        fn handle(&mut self, msg: u32, _ctx: &mut Context<u32>) -> Flow {
            if msg == 0 {
                Flow::Stop
            } else {
                Flow::Continue
            }
        }
    }
    struct Faulty;
    impl Actor for Faulty {
        type Msg = ();
        fn handle(&mut self, _msg: (), _ctx: &mut Context<()>) -> Flow {
            panic!("aggregator shard crashed");
        }
    }

    let system = ActorSystem::new();
    let healthy = system.spawn("healthy", Healthy);
    let faulty = system.spawn("faulty", Faulty);
    faulty.send(()).unwrap();
    // The healthy actor continues to process messages after the crash.
    for i in 1..=100 {
        healthy.send(i).unwrap();
    }
    healthy.send(0).unwrap();
    system.join();
    let mut names: Vec<String> = system.deaths().try_iter().map(|o| o.name).collect();
    names.sort();
    assert_eq!(names, vec!["faulty", "healthy"]);
}

/// Regression (post-respawn rewiring): `SelectorMsg::Rewire` used to hand
/// over only the replacement coordinator's `ActorRef`, so a selector kept
/// the quota and population estimate of the *dead* incarnation — a
/// selector at quota 0 stayed wedged rejecting forever, and its reconnect
/// suggestions were sized from a stale population. The struct variant now
/// re-delivers both alongside the new ref.
#[test]
fn rewire_redelivers_quota_and_population_estimate() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let task = FlTask::training("t", "pop-rewire").with_round(quick_round(1));
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
    let coordinator = CoordinatorActor::new(
        CoordinatorConfig::new("pop-rewire", 13),
        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        vec![plan],
        vec![0.0; spec().num_params()],
        locks,
    );
    // Quota 0: everything is rejected until a Rewire raises it.
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 10),
        100,
        3,
        0,
    )]);
    let topology = spawn_multi_topology(&system, vec![(coordinator, 0)], &blueprint);
    let coord_ref = topology.coordinators[&PopulationName::new("pop-rewire")].clone();
    let selector = topology.selectors[0].clone();

    let checkin = |device: u64| {
        let conn = DeviceConn::connect(
            DeviceId(device),
            "pop-rewire",
            selector.clone(),
            coord_ref.clone(),
        );
        conn.check_in().unwrap();
        conn.recv(Duration::from_secs(5)).unwrap()
    };

    // Baseline: quota 0 rejects, with a reconnect sized for a population
    // of 100 against a target of 10 — a horizon of ~10 pace periods.
    let retry_small = match checkin(0) {
        WireMessage::ComeBackLater { retry_at_ms, .. } => retry_at_ms,
        other => panic!("quota 0 must reject, got {other:?}"),
    };

    // Rewire with a huge population estimate (quota still 0): the next
    // reject must be pace-steered across a vastly longer horizon.
    selector
        .send(SelectorMsg::Rewire {
            population: PopulationName::new("pop-rewire"),
            coordinator: coord_ref.clone(),
            quota: 0,
            population_estimate: 100_000_000,
        })
        .unwrap();
    let retry_large = match checkin(1) {
        WireMessage::ComeBackLater { retry_at_ms, .. } => retry_at_ms,
        other => panic!("quota 0 must still reject, got {other:?}"),
    };
    assert!(
        retry_large > retry_small + 60_000,
        "population estimate was not re-delivered: {retry_small} vs {retry_large}"
    );

    // Rewire with quota 1: the selector must start accepting (and the
    // goal-1 round configures the device immediately).
    selector
        .send(SelectorMsg::Rewire {
            population: PopulationName::new("pop-rewire"),
            coordinator: coord_ref.clone(),
            quota: 1,
            population_estimate: 100,
        })
        .unwrap();
    assert!(
        matches!(checkin(2), WireMessage::PlanAndCheckpoint { .. }),
        "quota was not re-delivered"
    );

    selector.send(SelectorMsg::Shutdown).unwrap();
    coord_ref.send(CoordMsg::Shutdown).unwrap();
    system.join();
}

/// One timeline (Sec. 2.3): every `retry_at_ms` a device is sent, by a
/// Selector or by a Coordinator, lies at or after the system's clock read
/// just before the device checked in. The tree is built after the system
/// has run a while, and its Coordinator is then crashed and respawned
/// through `with_store`: each is on the system's clock from the start,
/// not on one of its own that starts at its construction.
#[test]
fn every_retry_at_lies_on_the_systems_timeline() {
    let population = "pop-one-clock";
    let actor_name = format!("coordinator-{population}");
    let lease_name = coordinator_lease_name(&population.into());
    // Pace ticks 20 ms apart: a clock that started late answers with a
    // retry far behind the system's.
    let round = RoundConfig {
        selection_timeout_ms: 20,
        ..quick_round(1)
    };
    let task = FlTask::training("t", population).with_round(round);
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
    let store = SharedCheckpointStore::new(InMemoryCheckpointStore::new());
    let locks: LockingService<String> = LockingService::new();
    let make = |lease| {
        CoordinatorActor::with_store(
            CoordinatorConfig::new(population, 5),
            TaskGroup::new(vec![task.clone()], TaskSelectionStrategy::Single),
            vec![plan.clone()],
            vec![0.0; spec().num_params()],
            locks.clone(),
            lease,
            store.clone(),
        )
    };

    let system = ActorSystem::new();
    std::thread::sleep(Duration::from_millis(300));
    let lease = locks
        .acquire(lease_name.clone(), lease_name.clone())
        .unwrap();
    let doomed_epoch = lease.epoch;
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(20, 10),
        100,
        3,
        10,
    )]);
    let topology = spawn_multi_topology(&system, vec![(make(lease), 10)], &blueprint);
    let selector = topology.selectors[0].clone();
    let rewire = |coordinator, quota| {
        selector
            .send(SelectorMsg::Rewire {
                population: population.into(),
                coordinator,
                quota,
                population_estimate: 100,
            })
            .unwrap();
    };
    // Checks `device` in through the Selector, routing its reports to
    // `coordinator`, and returns the reply; a retry must not lie behind
    // the clock read first.
    let check_in = |device: u64, coordinator: &ActorRef<CoordMsg>| {
        let before = system.now_ms();
        let conn = DeviceConn::connect(
            DeviceId(device),
            population,
            selector.clone(),
            coordinator.clone(),
        );
        conn.check_in().unwrap();
        let reply = conn.recv(Duration::from_secs(5)).unwrap();
        if let WireMessage::ComeBackLater { retry_at_ms, .. }
        | WireMessage::Shed { retry_at_ms, .. } = &reply
        {
            assert!(
                *retry_at_ms >= before,
                "device {device} told to come back at {retry_at_ms} ms, before the system's \
                 {before} ms"
            );
        }
        reply
    };
    let configured = |reply: &WireMessage| matches!(reply, WireMessage::PlanAndCheckpoint { .. });
    let come_back = |reply: &WireMessage| matches!(reply, WireMessage::ComeBackLater { .. });

    // Device 0 fills the goal-1 round; the Coordinator turns device 1
    // away; at quota 0 the Selector turns device 2 away.
    let first = topology.coordinators[&PopulationName::new(population)].clone();
    assert!(configured(&check_in(0, &first)));
    assert!(come_back(&check_in(1, &first)));
    rewire(first.clone(), 0);
    assert!(come_back(&check_in(2, &first)));

    // The Coordinator crashes on its next message and one watcher
    // respawns it over the surviving store.
    let delivered = 2; // devices 0 and 1
    system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
        actor_name.clone(),
        delivered + 1,
        FaultAction::Crash,
    )));
    let (found_tx, found_rx) = unbounded();
    let report = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            watch_and_respawn(
                &system,
                &locks,
                &actor_name,
                &lease_name,
                doomed_epoch,
                1,
                make,
                |replacement| {
                    let _ = found_tx.send(replacement);
                },
                Duration::from_secs(10),
            )
        });
        first.send(CoordMsg::SetPopulationEstimate(100)).unwrap();
        let replacement = found_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        system.clear_fault_injector();
        rewire(replacement.clone(), 10);
        // The respawned Coordinator configures device 3 and turns device
        // 4 away on the system's clock, not on one restarted at 0.
        assert!(configured(&check_in(3, &replacement)));
        assert!(come_back(&check_in(4, &replacement)));
        replacement.send(CoordMsg::Shutdown).unwrap();
        watcher.join().unwrap()
    });
    assert_eq!(report.respawns, 1);
    selector.send(SelectorMsg::Shutdown).unwrap();
    system.join();
}
