//! Allocation budget of one live SecAgg round over in-memory links
//! (ROADMAP item 13): a counting global allocator over the system one
//! counts every allocation the process makes while the round runs, on the
//! device threads and the actor threads alike, and the test holds the
//! counts per device session under ceilings.
//!
//! The round is shaped like `benchmark/`'s `round_secagg`: a 4 112-param
//! model (33 KB SecAgg reports and Configuration), SecAgg with k 8, 64
//! devices in four groups of 16, one share-stage drop-out per group, each
//! device on its own `DeviceConn`. Warm-up rounds run first, so what is
//! counted is a round of a running tree, not the tree's first one.
//!
//! Two counts: allocations of every size, and those of 16 KiB or more —
//! the frames and payloads, each a fresh mapping or a cache miss. A
//! change that saves allocations lowers the ceiling it moved, so a
//! ceiling only ever moves down. This file is its own test binary with
//! one `#[test]`, so no other test allocates while the round is counted.

use federated::actors::{ActorRef, ActorSystem, LockingService};
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Allocations of this size or more are counted apart.
const LARGE: usize = 16 * 1024;

/// Allocations per device session, every size: the ceiling. Since a
/// round's participant table is one sorted `Vec`, not a `BTreeMap` of
/// 64 entries, runs read 0.14-0.31 under the parent's beside them
/// (38.86 against 39.17, 39.53 against 39.67), so it came down from 40.5.
/// Before, fifteen runs read 39.02-39.28 on an idle two-core box and
/// 39.11-39.69 over 22 runs beside a busy `e2e`. It was 45 while every round's close made
/// a reply channel per shard and one for the Master and spawned each
/// actor as a boxed thread job (fifteen runs of 39.19-39.89), and 150
/// over fifteen runs of 131.6-133.8 while a shard's SecAgg close made
/// 1 705 allocations (a keystream and an output `Vec` per share
/// encrypted or opened, a heap ciphertext per share, and maps that grew
/// entry by entry); it makes 227.
const ALL_PER_SESSION: f64 = 40.3;
/// Allocations of [`LARGE`] or more per device session: the ceiling.
/// Fifteen runs read 4.22-4.39 on an idle box, and 4.22-4.72 beside a
/// busy `e2e` (the reports then miss the spare pool as often as they
/// did with a thread per actor), so it stays. It was 6.5 over fifteen
/// runs of 6.22 each while an in-memory link copied the Configuration
/// per device and a channel send allocated every report frame afresh.
const LARGE_PER_SESSION: f64 = 5.0;

/// [`System`], counting every allocation and the large ones apart.
struct Counting;

static ALL: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALL.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics and allocate
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Devices configured per round.
const GOAL: usize = 64;
/// Devices per SecAgg group.
const GROUP: usize = 16;
/// Share-stage drop-outs per round: one in each group.
const DROPOUTS: u64 = (GOAL / GROUP) as u64;
/// Rounds run before the counted one.
const WARMUP_ROUNDS: u64 = 5;

fn model() -> ModelSpec {
    // 256 x 16 weights + 16 biases: 4 112 params.
    ModelSpec::Logistic {
        dim: 256,
        classes: 16,
        seed: 0,
    }
}

/// Drives one round from the first check-in to its commit: every device
/// checks in on its own connection, reads its Configuration and uploads
/// its masked update; the first of each group then drops out at the
/// share stage.
fn run_round(
    first_id: u64,
    population: &str,
    selector: &ActorRef<SelectorMsg>,
    coordinator: &ActorRef<CoordMsg>,
    field: &[u64],
) {
    let conns: Vec<DeviceConn> = (first_id..first_id + GOAL as u64)
        .map(|id| {
            let conn = DeviceConn::connect(
                DeviceId(id),
                population,
                selector.clone(),
                coordinator.clone(),
            );
            conn.check_in().expect("check-in frame sends");
            conn
        })
        .collect();
    let wait = Duration::from_secs(30);
    for conn in &conns {
        let round = match conn.recv(wait).expect("configuration arrives") {
            WireMessage::PlanAndCheckpoint { checkpoint, .. } => checkpoint.round,
            other => panic!("unexpected check-in reply {other:?}"),
        };
        conn.report_secagg(round, 1, field.to_vec(), 1, 0.5, 0.5)
            .expect("report frame sends");
    }
    for conn in &conns {
        assert!(matches!(
            conn.recv(wait).expect("ack arrives"),
            WireMessage::ReportAck { accepted: true, .. }
        ));
    }
    for device in first_id..first_id + DROPOUTS {
        coordinator
            .send(CoordMsg::DeviceDropped {
                device: DeviceId(device),
                stage: DropStage::Share,
            })
            .expect("coordinator alive");
    }
    let outcome = complete_round(coordinator, wait).expect("the round finishes");
    assert!(outcome.is_committed(), "every group is above k");
}

#[test]
fn a_secagg_round_over_in_memory_links_stays_under_its_allocation_budget() {
    let population = "alloc/secagg";
    let system = ActorSystem::new();
    let round = RoundConfig {
        goal_count: GOAL,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 600_000,
        report_window_ms: 600_000,
        device_cap_ms: 600_000,
    };
    let task = FlTask::training("train", population)
        .with_round(round)
        .with_secagg(8);
    let mut config = CoordinatorConfig::new(population, 7);
    config.max_per_shard = GROUP;
    let coordinator = CoordinatorActor::new(
        config,
        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        vec![FlPlan::standard_training(
            model(),
            1,
            16,
            0.1,
            CodecSpec::Identity,
        )],
        vec![0.0; model().num_params()],
        LockingService::new(),
    );
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, GOAL as u64),
        GOAL as u64,
        1,
        GOAL,
    )]);
    let topology = spawn_multi_topology(&system, vec![(coordinator, GOAL)], &blueprint);
    let selector = topology.selectors[0].clone();
    let coord = topology.coordinators[&PopulationName::new(population)].clone();
    let field = FixedPointEncoder::default_for_updates()
        .encode(&vec![0.01; model().num_params()])
        .expect("the update is inside the fixed-point range");

    // Device ids start on a multiple of the group count each round, so
    // `device % shards` puts one drop-out in every group.
    for round in 0..WARMUP_ROUNDS {
        run_round(round * GOAL as u64, population, &selector, &coord, &field);
    }
    let (all, large) = (
        ALL.load(Ordering::Relaxed),
        LARGE_ALLOCS.load(Ordering::Relaxed),
    );
    run_round(
        WARMUP_ROUNDS * GOAL as u64,
        population,
        &selector,
        &coord,
        &field,
    );
    let all = (ALL.load(Ordering::Relaxed) - all) as f64 / GOAL as f64;
    let large = (LARGE_ALLOCS.load(Ordering::Relaxed) - large) as f64 / GOAL as f64;
    topology.shutdown();
    system.join();

    eprintln!(
        "allocations per device session: {all:.2} of every size, {large:.2} of 16 KiB or more"
    );
    assert!(
        all <= ALL_PER_SESSION,
        "{all:.2} allocations per device session, over the ceiling of {ALL_PER_SESSION}"
    );
    assert!(
        large <= LARGE_PER_SESSION,
        "{large:.2} allocations of 16 KiB or more per device session, over the ceiling of \
         {LARGE_PER_SESSION}"
    );
}
