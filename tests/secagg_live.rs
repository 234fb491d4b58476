//! Secure Aggregation through the live sharded topology (Sec. 6 run on
//! the Sec. 4 actor tree): devices report fixed-point field vectors over
//! `SecAggReport` frames, each `AggregatorActor` shard runs the
//! four-round protocol over its own group at finalize, and the Master
//! Aggregator merges the unmasked shard sums "without Secure
//! Aggregation". Scripted advertise/share dropouts exercise both
//! recovery paths; sticky `device % shards` routing stranding a group
//! below the task minimum `k` must surface as a clean per-shard abort —
//! the round commits from the surviving groups only.

use federated::actors::{ActorSystem, LockingService};
use federated::analytics::overload::OverloadMonitorConfig;
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, PopulationName};
use federated::ml::fixedpoint::FixedPointEncoder;
use federated::server::aggregator::DropStage;
use federated::server::live::{CoordMsg, CoordinatorActor, DeviceConn, SelectorMsg};
use federated::server::pace::PaceSteering;
use federated::server::topology::{
    complete_round, spawn_multi_topology, SelectorSpec, TopologyBlueprint,
};
use federated::server::wire::WireMessage;
use federated::server::CoordinatorConfig;
use std::time::Duration;

fn spec() -> ModelSpec {
    ModelSpec::Logistic {
        dim: 4,
        classes: 2,
        seed: 0,
    }
}

/// Runs one live SecAgg round over 8 devices split across 2 shards
/// (`max_per_shard = 4`, evens → shard 0, odds → shard 1), scripting the
/// given post-report dropouts, then reads back the committed checkpoint
/// through a second round's Configuration download.
///
/// Every device reports a delta of `0.5` per coordinate with equal
/// weight, so any surviving mixture of contributors averages to `0.5`.
/// Returns `(params, secagg_abort_count)`.
fn run_secagg_round(population: &str, dropouts: &[(u64, DropStage)]) -> (Vec<f32>, f64) {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let round = RoundConfig {
        goal_count: 8,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    let task = FlTask::training("t", population)
        .with_round(round)
        .with_secagg(2);
    let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
    let mut config = CoordinatorConfig::new(population, 7);
    config.max_per_shard = 4;
    let coordinator = CoordinatorActor::new(
        config,
        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        vec![plan],
        vec![0.0; spec().num_params()],
        locks,
    );
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 8),
        100,
        1,
        10,
    )])
    .with_telemetry(OverloadMonitorConfig::default());
    let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
    let telemetry = topology.telemetry.clone().expect("telemetry configured");
    let selector_refs = topology.selectors.clone();
    let coord_ref = topology.coordinators[&PopulationName::new(population)].clone();

    let conns: Vec<_> = (0..8u64)
        .map(|i| {
            let conn = DeviceConn::connect(
                DeviceId(i),
                population,
                selector_refs[0].clone(),
                coord_ref.clone(),
            );
            conn.check_in().expect("check-in frame sends");
            conn
        })
        .collect();
    let encoder = FixedPointEncoder::default_for_updates();
    for conn in &conns {
        match conn
            .recv(Duration::from_secs(10))
            .expect("configuration arrives")
        {
            WireMessage::PlanAndCheckpoint {
                plan, checkpoint, ..
            } => {
                let dim = plan.server.expected_dim;
                let field = encoder
                    .encode(&vec![0.5f32; dim])
                    .expect("delta fits the fixed-point range");
                // Weight 1 each: the committed average is sum(delta) /
                // sum(weight) = 0.5 for any surviving cohort.
                conn.report_secagg(checkpoint.round, 1, field, 1, 0.4, 0.9)
                    .expect("secagg report frame sends");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // All masked contributions are staged before any device vanishes:
    // the dropouts below happen *after* MaskedInputCollection, which is
    // exactly when SecAgg has to work for the round to stay correct.
    for conn in &conns {
        assert!(matches!(
            conn.recv(Duration::from_secs(5)).expect("ack arrives"),
            WireMessage::ReportAck { accepted: true, .. }
        ));
    }
    for &(device, stage) in dropouts {
        coord_ref
            .send(CoordMsg::DeviceDropped {
                device: DeviceId(device),
                stage,
            })
            .expect("coordinator alive");
    }

    let outcome = complete_round(&coord_ref, Duration::from_secs(10)).expect("the round finishes");
    assert!(
        outcome.is_committed(),
        "the round commits from the surviving groups"
    );

    // Round 2's Configuration download carries the checkpoint that round
    // 1 committed — read the merged parameters off the wire, the same
    // way a device would.
    let probes: Vec<_> = (10..18u64)
        .map(|i| {
            let conn = DeviceConn::connect(
                DeviceId(i),
                population,
                selector_refs[0].clone(),
                coord_ref.clone(),
            );
            conn.check_in().expect("check-in frame sends");
            conn
        })
        .collect();
    let params = match probes[0]
        .recv(Duration::from_secs(10))
        .expect("round-2 configuration arrives")
    {
        WireMessage::PlanAndCheckpoint { checkpoint, .. } => checkpoint.params().to_vec(),
        other => panic!("unexpected reply {other:?}"),
    };

    let aborts: f64 = telemetry.lock().secagg_aborts().sums().iter().sum();
    selector_refs[0]
        .send(SelectorMsg::Shutdown)
        .expect("selector alive");
    coord_ref
        .send(CoordMsg::Shutdown)
        .expect("coordinator alive");
    system.join();
    (params, aborts)
}

/// Share-stage dropout with mask reconstruction: device 7 vanishes after
/// sharing keys, its shard reconstructs the pairwise masks from the
/// survivors' Shamir shares, both groups stay at or above threshold, and
/// the committed average is exact — no abort, no mis-sum.
#[test]
fn share_dropout_recovers_masks_and_commits_exact_sum() {
    let (params, aborts) = run_secagg_round("secagg-share-drop", &[(7, DropStage::Share)]);
    assert_eq!(aborts, 0.0, "no group fell below threshold");
    for p in &params {
        assert!(
            (p - 0.5).abs() < 1e-3,
            "committed params must be the exact unmasked average, got {params:?}"
        );
    }
}

/// Sticky `device % shards` routing strands shard 1 below `k` when three
/// of its four devices vanish (one at advertise, two at share): that
/// shard aborts cleanly — observable in the overload telemetry — while
/// shard 0's group commits the round with the correct unmasked sum.
#[test]
fn stranded_shard_aborts_cleanly_and_survivors_commit() {
    let (params, aborts) = run_secagg_round(
        "secagg-stranded-shard",
        &[
            (1, DropStage::Advertise),
            (3, DropStage::Share),
            (5, DropStage::Share),
        ],
    );
    assert_eq!(aborts, 1.0, "exactly the stranded shard aborts");
    for p in &params {
        assert!(
            (p - 0.5).abs() < 1e-3,
            "surviving shard's average must be untouched by the abort, got {params:?}"
        );
    }
}
