//! Memory held per round by a running live tree (ROADMAP items 10(d) and
//! 13): a counting global allocator tracks the live heap (bytes allocated
//! minus bytes freed) and the allocations of every size the process makes,
//! on the driver thread and the actor threads alike.
//!
//! The tree is shaped like one population of `benchmark/`'s
//! `checkin_storm`: a 68-param model, goal 20 with no over-selection, two
//! shards of 10, two Selectors on a shared admission budget sized never to
//! shed, overload telemetry, and one in-memory `DeviceConn` per device.
//! Every round sends 320 check-ins, configures 20 and turns 300 away.
//!
//! Two checks, in order:
//!
//! * **No growth per round.** The Coordinator keeps the materialized
//!   metrics of its last `METRIC_ROUNDS` (64) committed rounds and the
//!   actor system the last `OBITUARY_RING` (1 024) obituaries; a round
//!   leaves three (the Master Aggregator and its two shards). Once
//!   warm-up has filled both, the live heap must stay flat while
//!   [`MEASURED_ROUNDS`] more rounds run: a store that keeps something
//!   of every round fails it.
//! * **Allocations per check-in.** One more round is counted, every
//!   allocation over its 320 check-ins, and held under a ceiling that only
//!   ever moves down.
//!
//! This file is its own test binary with one `#[test]`, so no other test
//! allocates while the rounds are counted.

use federated::actors::{ActorRef, ActorSystem, LockingService};
use federated::analytics::overload::OverloadMonitorConfig;
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, PopulationName};
use federated::server::live::{CoordMsg, CoordinatorActor, DeviceConn, SelectorMsg};
use federated::server::pace::PaceSteering;
use federated::server::topology::{
    complete_round, spawn_multi_topology, SelectorSpec, TopologyBlueprint,
};
use federated::server::wire::WireMessage;
use federated::server::{CoordinatorConfig, GlobalAdmissionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Live-heap growth per round: the ceiling. A tree that keeps each
/// round's three metric sketches and three obituaries grows ~2 KB a
/// round.
const GROWTH_PER_ROUND: f64 = 64.0;
/// Allocations per check-in over one round, every size: the ceiling.
/// Fifteen runs read 13.88-13.89. A change that saves allocations lowers
/// it, so it only ever moves down.
const ALLOCS_PER_CHECKIN: f64 = 14.5;

/// [`System`], counting allocations and the bytes live.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics and allocate
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Devices configured per round.
const GOAL: usize = 20;
/// Check-ins per round; all but [`GOAL`] are turned away.
const CHECKINS: usize = 320;
/// Rounds run before the live heap is read: past both bounds, the
/// metric ring's 64 rounds and the obituary ring's 1 024 / 3, whose
/// buffer reaches its full size at round 171.
const WARMUP_ROUNDS: u64 = 400;
/// Rounds over which the live heap must stay flat. A mailbox that meets
/// a deeper burst than any before it keeps its larger buffer: a one-time
/// step of up to 24 KB, seen in about one run in eight. Over this many
/// rounds two such steps still read under the ceiling, while a store
/// that keeps ~2 KB a round reads thirty times over it.
const MEASURED_ROUNDS: u64 = 1_000;

fn model() -> ModelSpec {
    // 16 x 4 weights + 4 biases: 68 params.
    ModelSpec::Logistic {
        dim: 16,
        classes: 4,
        seed: 0,
    }
}

/// The tree's Selectors and the population's Coordinator.
struct Tree {
    population: PopulationName,
    selectors: Vec<ActorRef<SelectorMsg>>,
    coordinator: ActorRef<CoordMsg>,
    update: Vec<u8>,
}

impl Tree {
    /// Drives one round from the first check-in to its commit: every
    /// device checks in on its own connection, through the Selectors in
    /// turn; the configured ones upload and are acked.
    fn run_round(&self, first_id: u64) {
        let conns: Vec<DeviceConn> = (first_id..first_id + CHECKINS as u64)
            .map(|id| {
                let conn = DeviceConn::connect(
                    DeviceId(id),
                    self.population.clone(),
                    self.selectors[id as usize % self.selectors.len()].clone(),
                    self.coordinator.clone(),
                );
                conn.check_in().expect("check-in frame sends");
                conn
            })
            .collect();
        let wait = Duration::from_secs(30);
        let mut configured = Vec::with_capacity(GOAL);
        for conn in &conns {
            match conn.recv(wait).expect("check-in reply arrives") {
                WireMessage::PlanAndCheckpoint { checkpoint, .. } => {
                    configured.push((conn, checkpoint.round))
                }
                WireMessage::ComeBackLater { .. } => {}
                other => panic!("unexpected check-in reply {other:?}"),
            }
        }
        assert_eq!(configured.len(), GOAL, "the Selectors configure the goal");
        for (conn, round) in &configured {
            conn.report(*round, 1, self.update.clone(), 1, 0.5, 0.5)
                .expect("report frame sends");
        }
        for (conn, _) in &configured {
            assert!(matches!(
                conn.recv(wait).expect("ack arrives"),
                WireMessage::ReportAck { accepted: true, .. }
            ));
        }
        let outcome = complete_round(&self.coordinator, wait).expect("the round finishes");
        assert!(outcome.is_committed(), "the round reached its goal");
    }
}

#[test]
fn a_running_tree_holds_no_memory_per_round_and_counts_its_checkin_allocations() {
    let population = PopulationName::new("memory/storm");
    let system = ActorSystem::new();
    let round = RoundConfig {
        goal_count: GOAL,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 600_000,
        report_window_ms: 600_000,
        device_cap_ms: 600_000,
    };
    let task = FlTask::training("train", population.clone()).with_round(round);
    let mut config = CoordinatorConfig::new(population.clone(), 7);
    config.max_per_shard = GOAL / 2;
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
    let blueprint = TopologyBlueprint::new(
        (0..2)
            .map(|seed| {
                SelectorSpec::new(
                    PaceSteering::new(1_000, GOAL as u64),
                    CHECKINS as u64,
                    seed,
                    CHECKINS,
                )
            })
            .collect(),
    )
    .with_global_admission(GlobalAdmissionConfig {
        window_ms: 60_000,
        max_admits_per_window: 1 << 40,
    })
    .with_telemetry(OverloadMonitorConfig::default());
    let topology = spawn_multi_topology(&system, vec![(coordinator, CHECKINS)], &blueprint);
    let tree = Tree {
        selectors: topology.selectors.clone(),
        coordinator: topology.coordinators[&population].clone(),
        population,
        update: CodecSpec::Identity
            .build()
            .encode(&vec![0.001; model().num_params()]),
    };

    let mut next_id = 0;
    let mut run_rounds = |rounds: u64| {
        for _ in 0..rounds {
            tree.run_round(next_id);
            next_id += CHECKINS as u64;
        }
    };
    run_rounds(WARMUP_ROUNDS);
    let live = LIVE.load(Ordering::Relaxed);
    run_rounds(MEASURED_ROUNDS);
    let growth = (LIVE.load(Ordering::Relaxed) - live) as f64 / MEASURED_ROUNDS as f64;

    let allocs = ALLOCS.load(Ordering::Relaxed);
    run_rounds(1);
    let per_checkin = (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / CHECKINS as f64;
    topology.shutdown();
    system.join();

    eprintln!(
        "live heap growth per round: {growth:.1} B; allocations per check-in: {per_checkin:.2}"
    );
    assert!(
        growth <= GROWTH_PER_ROUND,
        "the live heap grew {growth:.1} B a round over {MEASURED_ROUNDS} rounds, over the \
         ceiling of {GROWTH_PER_ROUND} B"
    );
    assert!(
        per_checkin <= ALLOCS_PER_CHECKIN,
        "{per_checkin:.2} allocations per check-in, over the ceiling of {ALLOCS_PER_CHECKIN}"
    );
}
