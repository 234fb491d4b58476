//! Live actor topology with multiple Selectors (Fig. 3 shows Selectors as
//! a globally-distributed layer in front of one Coordinator), built
//! through the shared `fl-server::topology` blueprint: per-Selector
//! admission, a fleet-wide admission budget, and the ephemeral
//! Master Aggregator subtree that dies with each round.

use federated::actors::{
    ActorRef, ActorSystem, DeathReason, FaultAction, LockingService, ScriptedFaults,
};
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, PopulationName};
use federated::device::session::{Accepted, DeviceSession, End, Payload};
use federated::server::live::{CoordMsg, CoordinatorActor, DeviceConn, SelectorMsg};
use federated::server::pace::PaceSteering;
use federated::server::topology::{
    complete_round, spawn_multi_topology, CompletionError, SelectorSpec, TopologyBlueprint,
};
use federated::server::wire::WireMessage;
use federated::server::{AdmissionConfig, CoordinatorConfig, GlobalAdmissionConfig};
use std::sync::Arc;
use std::time::Duration;

/// Bound on the wait for a round's outcome: a round that cannot finish
/// fails its test after 10 s instead of hanging the run.
const WAIT: Duration = Duration::from_secs(10);

fn spec() -> ModelSpec {
    ModelSpec::Logistic {
        dim: 4,
        classes: 2,
        seed: 0,
    }
}

/// One device's session over an in-memory connection through `selector`,
/// reporting 0.5 on every coordinate at weight 1.
fn run_session(
    device: u64,
    population: &str,
    selector: ActorRef<SelectorMsg>,
    coordinator: ActorRef<CoordMsg>,
) -> Result<Accepted, End> {
    let conn = DeviceConn::connect(DeviceId(device), population, selector, coordinator);
    DeviceSession::new(DeviceId(device), population).exchange(
        |frame| conn.send(frame),
        |wait| conn.recv(wait),
        Duration::from_secs(10),
        |session| {
            let update = vec![0.5f32; session.plan().server.expected_dim];
            session.report(Payload::Identity(&update), 1, 0.4, 0.9)
        },
    )
}

fn coordinator_for(
    population: &str,
    round: RoundConfig,
    config: CoordinatorConfig,
    locks: LockingService<String>,
) -> CoordinatorActor<federated::server::storage::InMemoryCheckpointStore> {
    let task = FlTask::training("t", population).with_round(round);
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
    CoordinatorActor::new(
        config,
        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        vec![plan],
        vec![0.0; spec().num_params()],
        locks,
    )
}

#[test]
fn round_commits_across_three_selectors() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let round = RoundConfig {
        goal_count: 6,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    let coordinator = coordinator_for(
        "multi-sel",
        round,
        CoordinatorConfig::new("multi-sel", 3),
        locks.clone(),
    );
    // Three selectors, each with its own quota — as if serving three
    // geographic regions.
    let blueprint = TopologyBlueprint::new(
        (0..3)
            .map(|i| SelectorSpec::new(PaceSteering::new(1_000, 2), 100, i, 2))
            .collect(),
    );
    let topology = spawn_multi_topology(&system, vec![(coordinator, 2)], &blueprint);
    let coord_ref = topology.coordinators[&PopulationName::new("multi-sel")].clone();
    let selector_refs = topology.selectors.clone();
    assert_eq!(selector_refs.len(), 3);

    // Six devices, two per selector, each on its own thread.
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            let sel = selector_refs[(i % 3) as usize].clone();
            let coord = coord_ref.clone();
            std::thread::spawn(move || run_session(i, "multi-sel", sel, coord).is_ok())
        })
        .collect();
    let accepted = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&ok| ok)
        .count();
    assert_eq!(
        accepted, 6,
        "all six devices contribute through their selectors"
    );

    let outcome = complete_round(&coord_ref, WAIT).unwrap();
    assert!(outcome.is_committed());

    // Idempotent teardown: a second shutdown of the whole tree — and one
    // racing the actors' own exits — must be a no-op, not a panic.
    topology.shutdown();
    topology.shutdown();
    system.join();
    topology.shutdown();
    assert!(locks.lookup("coordinator/multi-sel").is_none());

    // The training round aggregated through an ephemeral master subtree
    // that died, normally, with the round.
    let names: Vec<String> = system.deaths().try_iter().map(|o| o.name).collect();
    assert!(
        names.iter().any(|n| n == "coordinator-multi-sel/master-r1"),
        "{names:?}"
    );
}

/// A selector at quota pace-steers the excess devices away rather than
/// forwarding them (the "come back later" path over real threads).
#[test]
fn over_quota_devices_are_pace_steered() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let round = RoundConfig {
        goal_count: 2,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 10_000,
        device_cap_ms: 10_000,
    };
    let coordinator = coordinator_for(
        "quota-pop",
        round,
        CoordinatorConfig::new("quota-pop", 1),
        locks,
    );
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 2),
        1_000_000,
        9,
        2,
    )]);
    let topology = spawn_multi_topology(&system, vec![(coordinator, 2)], &blueprint);
    let coord_ref = topology.coordinators[&PopulationName::new("quota-pop")].clone();
    let selector_refs = topology.selectors;

    // Send all check-ins first (the round only configures — and replies —
    // once its selection target of 2 is met), then collect replies.
    let conns: Vec<_> = (0..5u64)
        .map(|i| {
            let conn = DeviceConn::connect(
                DeviceId(i),
                "quota-pop",
                selector_refs[0].clone(),
                coord_ref.clone(),
            );
            conn.check_in().unwrap();
            conn
        })
        .collect();
    let mut rejected = 0;
    let mut accepted = 0;
    for conn in &conns {
        match conn.recv(Duration::from_secs(5)).unwrap() {
            WireMessage::ComeBackLater { retry_at_ms, .. } => {
                assert!(retry_at_ms > 0);
                rejected += 1;
            }
            WireMessage::PlanAndCheckpoint { .. } => accepted += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(accepted, 2);
    assert_eq!(rejected, 3);

    selector_refs[0].send(SelectorMsg::Shutdown).unwrap();
    coord_ref.send(CoordMsg::Shutdown).unwrap();
    system.join();
}

/// Three Selectors, each with a two-token admission burst, share one
/// fleet-wide budget of four admits: every selector sheds its third
/// device locally, the budget sheds two of the six that passed local
/// admission, and the four devices that made it through both layers
/// carry the round to a commit.
#[test]
fn global_budget_caps_admits_across_selectors() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let round = RoundConfig {
        goal_count: 4,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    let coordinator = coordinator_for(
        "global-budget",
        round,
        CoordinatorConfig::new("global-budget", 11),
        locks,
    );
    // Token refill is negligible over the test's lifetime, so each
    // selector's admission controller passes exactly its burst of 2.
    let admission = AdmissionConfig {
        accepts_per_sec: 0.0001,
        burst: 2,
        max_inflight: 10,
    };
    let blueprint = TopologyBlueprint::new(
        (0..3)
            .map(|i| {
                SelectorSpec::new(PaceSteering::new(1_000, 4), 100, i, 10).with_admission(admission)
            })
            .collect(),
    )
    .with_global_admission(GlobalAdmissionConfig {
        window_ms: 600_000,
        max_admits_per_window: 4,
    });
    let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
    let budget = topology.global_budget.clone().expect("budget configured");
    let coord_ref = topology.coordinators[&PopulationName::new("global-budget")].clone();
    let selector_refs = topology.selectors;

    // Nine devices, three per selector, each on its own thread. Which
    // four of the six local-admission survivors win the shared budget
    // depends on thread interleaving; the totals do not.
    let handles: Vec<_> = (0..9u64)
        .map(|i| {
            let sel = selector_refs[(i % 3) as usize].clone();
            let coord = coord_ref.clone();
            std::thread::spawn(move || run_session(i, "global-budget", sel, coord))
        })
        .collect();
    let ends: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // The four admitted devices report, and the round commits on them.
    let configured = ends.iter().filter(|end| end.is_ok()).count();
    // Admission-control rejections arrive as explicit `Shed` frames,
    // distinct from routine `ComeBackLater` pacing.
    let shed = ends
        .iter()
        .filter(|end| matches!(end, Err(End::Shed { .. })))
        .count();
    assert_eq!(
        configured, 4,
        "the global budget admits exactly 4: {ends:?}"
    );
    assert_eq!(shed, 5, "3 local sheds + 2 global sheds");
    let population = PopulationName::new("global-budget");
    assert_eq!(budget.admitted_total_for(&population), 4);
    assert_eq!(budget.shed_total_for(&population), 2);
    let outcome = complete_round(&coord_ref, WAIT).unwrap();
    assert!(outcome.is_committed());

    for s in &selector_refs {
        s.send(SelectorMsg::Shutdown).unwrap();
    }
    coord_ref.send(CoordMsg::Shutdown).unwrap();
    system.join();
}

/// Aggregator-shard loss mid-round (Sec. 4.2): with `max_per_shard = 2`
/// and a goal of 4 the master spawns two shards; a scripted crash kills
/// `agg-1` on its first contribution. The crashed shard's devices are
/// lost from the aggregate, but the round still commits on the surviving
/// shard — and the whole subtree's obituaries tell the story.
#[test]
fn aggregator_shard_crash_still_commits_the_round() {
    let system = ActorSystem::new();
    system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
        "coordinator-shard-crash/master-r1/agg-1",
        1,
        FaultAction::Crash,
    )));
    let locks: LockingService<String> = LockingService::new();
    let round = RoundConfig {
        goal_count: 4,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    let mut config = CoordinatorConfig::new("shard-crash", 5);
    config.max_per_shard = 2;
    let coordinator = coordinator_for("shard-crash", round, config, locks);
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 4),
        100,
        1,
        10,
    )]);
    let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
    let coord_ref = topology.coordinators[&PopulationName::new("shard-crash")].clone();
    let selector_refs = topology.selectors;

    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let sel = selector_refs[0].clone();
            let coord = coord_ref.clone();
            std::thread::spawn(move || run_session(i, "shard-crash", sel, coord))
        })
        .collect();
    // All four reports are accepted at the protocol level even though
    // devices 1 and 3 route to the crashed shard.
    for h in handles {
        let end = h.join().unwrap();
        assert!(end.is_ok(), "{end:?}");
    }

    let outcome = complete_round(&coord_ref, WAIT).unwrap();
    assert!(
        outcome.is_committed(),
        "the round must commit on the surviving shard"
    );

    selector_refs[0].send(SelectorMsg::Shutdown).unwrap();
    coord_ref.send(CoordMsg::Shutdown).unwrap();
    system.join();

    let obits: Vec<_> = system.deaths().try_iter().collect();
    let reason_of = |name: &str| {
        obits
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("no obituary for {name}: {obits:?}"))
            .reason
            .clone()
    };
    assert!(matches!(
        reason_of("coordinator-shard-crash/master-r1/agg-1"),
        DeathReason::Panicked(_)
    ));
    assert_eq!(
        reason_of("coordinator-shard-crash/master-r1/agg-0"),
        DeathReason::Normal
    );
    assert_eq!(
        reason_of("coordinator-shard-crash/master-r1"),
        DeathReason::Normal
    );
}

/// Regression: every live test used to hand-roll an unbounded
/// `TryCompleteRound` / `Tick` / sleep loop, so a round that could never
/// finish hung the run instead of failing it. The shared wait is
/// bounded, and tells a round that is still running from a Coordinator
/// that is gone.
#[test]
fn a_round_that_cannot_finish_fails_the_poll_instead_of_hanging() {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let round = RoundConfig {
        goal_count: 6,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 600_000,
        report_window_ms: 600_000,
        device_cap_ms: 600_000,
    };
    let coordinator = coordinator_for(
        "no-devices",
        round,
        CoordinatorConfig::new("no-devices", 3),
        locks,
    );
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 2),
        100,
        0,
        2,
    )]);
    let topology = spawn_multi_topology(&system, vec![(coordinator, 2)], &blueprint);
    let coord_ref = topology.coordinators[&PopulationName::new("no-devices")].clone();

    // Nobody ever checks in, so no wait sees the round finish.
    let short = Duration::from_millis(60);
    assert_eq!(
        complete_round(&coord_ref, short),
        Err(CompletionError::TimedOut)
    );
    topology.shutdown();
    system.join();
    assert_eq!(
        complete_round(&coord_ref, short),
        Err(CompletionError::CoordinatorGone)
    );
}
