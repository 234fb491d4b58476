//! The live actor server behind a real TCP front door (Sec. 4).
//!
//! ```text
//! cargo run --release --example live_server
//! ```
//!
//! Spawns the Fig. 3 topology on the `fl-actors` runtime — Selector actors
//! in front of a Coordinator actor that owns the population via the shared
//! locking service — and puts a `TcpListener` in front of it: every device
//! is a real TCP client speaking the versioned framed `fl-wire` protocol,
//! and a per-connection gateway thread routes inbound frames into the
//! actor mailboxes by tag, exactly as `DeviceConn` does in-memory. The
//! fleet runs two full rounds — check-in, rejection, configuration,
//! on-device training (the real `fl-device` runtime), reporting,
//! checkpoint commits — then the Coordinator is killed to show the
//! exactly-once respawn through the locking service. Each device speaks
//! the protocol through its `fl_device::session`. The run asserts that
//! both rounds commit, that each reaches its goal, and that exactly one
//! respawn racer wins (the `live-server-example` step of
//! `scripts/check.sh`).

use federated::actors::{ActorRef, ActorSystem, LockingService};
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, PopulationName};
use federated::data::store::{InMemoryStore, StoreConfig};
use federated::data::synth::classification::{generate, ClassificationConfig};
use federated::device::runtime::{ExecutionOutcome, FlRuntime};
use federated::device::session::{DeviceSession, End, Payload};
use federated::ml::Example;
use federated::server::live::{CoordMsg, CoordinatorActor, SelectorMsg};
use federated::server::pace::PaceSteering;
use federated::server::topology::{
    complete_round, spawn_multi_topology, SelectorSpec, TopologyBlueprint,
};
use federated::server::wire::{tag, TcpTransport, Transport, WireStats};
use federated::server::CoordinatorConfig;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The TCP front door: accepts device connections and spawns one gateway
/// thread per connection that routes inbound frames into the actor
/// mailboxes by tag — `UpdateReport`s to the Coordinator, everything else
/// to the Selector (which drops non-check-in frames silently).
fn serve(
    listener: TcpListener,
    selector: ActorRef<SelectorMsg>,
    coordinator: ActorRef<CoordMsg>,
    shutting_down: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shutting_down.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            let Ok(transport) = TcpTransport::new(stream) else {
                continue;
            };
            let selector = selector.clone();
            let coordinator = coordinator.clone();
            // Per-connection supervision: short idle read timeouts so the
            // gateway notices quiet peers, with a strike budget so a slow
            // (but live) device is not reaped on its first silent window.
            // The resumable transport reads make the short timeout safe: a
            // timeout mid-frame keeps the partial bytes for the next poll.
            std::thread::spawn(move || {
                const IDLE_POLL: Duration = Duration::from_secs(5);
                const MAX_IDLE_STRIKES: u32 = 6;
                let mut idle_strikes = 0u32;
                loop {
                    match transport.recv_frame_timeout(IDLE_POLL) {
                        Ok(frame) => {
                            idle_strikes = 0;
                            let routed = match federated::server::wire::peek_tag(&frame) {
                                Ok(tag::UPDATE_REPORT) | Ok(tag::SECAGG_REPORT) => coordinator
                                    .send(CoordMsg::Report {
                                        frame,
                                        conn: transport.sink(),
                                    })
                                    .is_ok(),
                                Ok(_) => selector
                                    .send(SelectorMsg::Checkin {
                                        frame,
                                        conn: transport.sink(),
                                    })
                                    .is_ok(),
                                Err(_) => true, // unframeable junk: drop it
                            };
                            if !routed {
                                return; // actors gone: server is shutting down
                            }
                        }
                        Err(federated::server::wire::WireError::Timeout) => {
                            idle_strikes += 1;
                            if idle_strikes >= MAX_IDLE_STRIKES {
                                return; // idle connection reaped
                            }
                        }
                        Err(_) => return, // peer hung up or sent garbage
                    }
                }
            });
        }
    })
}

/// How many times a turned-away device checks in again, 50 ms apart,
/// before it gives up: a bound, so a run that is never selected ends.
const MAX_CHECKINS: u32 = 200;

/// One device: a real TCP client running the real on-device runtime in
/// its `fl-device` session. Returns (report_accepted, device-side wire
/// stats).
fn device_thread(
    id: u64,
    addr: std::net::SocketAddr,
    data: Vec<Example>,
) -> std::thread::JoinHandle<(bool, WireStats)> {
    std::thread::spawn(move || {
        let store = InMemoryStore::with_examples(StoreConfig::default(), data, 0);
        let runtime = FlRuntime::new(3);
        let conn =
            TcpTransport::new(TcpStream::connect(addr).expect("connect")).expect("transport");
        for _ in 0..MAX_CHECKINS {
            let end = DeviceSession::new(DeviceId(id), "live-pop").exchange(
                |frame| conn.send(frame),
                |wait| conn.recv_timeout(wait),
                Duration::from_secs(5),
                |session| {
                    // Real on-device plan execution.
                    let outcome = runtime
                        .execute(&session.plan().device, session.checkpoint(), &store, None)
                        .expect("plan executes");
                    let ExecutionOutcome::Completed {
                        update_bytes,
                        weight,
                        loss,
                        accuracy,
                        ..
                    } = outcome
                    else {
                        unreachable!("no interruption is injected");
                    };
                    let payload = Payload::Encoded(update_bytes.unwrap_or_default());
                    session.report(payload, weight, loss, accuracy)
                },
            );
            match end {
                Ok(_) => return (true, conn.stats()),
                Err(End::ComeBackLater { .. } | End::Shed { .. }) => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => return (false, conn.stats()),
            }
        }
        (false, conn.stats())
    })
}

fn main() {
    let data = generate(&ClassificationConfig {
        users: 16,
        examples_per_user: 40,
        ..Default::default()
    });
    let model = ModelSpec::Logistic {
        dim: 16,
        classes: 4,
        seed: 1,
    };
    let round = RoundConfig {
        goal_count: 8,
        overselection: 1.25,
        min_goal_fraction: 0.75,
        selection_timeout_ms: 5_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    let goal = round.goal_count;
    let task = FlTask::training("live/train", "live-pop").with_round(round);
    let plan = FlPlan::standard_training(model, 1, 16, 0.2, CodecSpec::Identity);
    let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);

    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let coordinator = CoordinatorActor::new(
        CoordinatorConfig::new("live-pop", 77),
        group,
        vec![plan],
        vec![0.0; model.num_params()],
        locks.clone(),
    );
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 10),
        16,
        3,
        16,
    )]);
    let topology = spawn_multi_topology(&system, vec![(coordinator, 16)], &blueprint);
    let selectors = topology.selectors.clone();
    let coord_ref = topology.coordinators[&PopulationName::new("live-pop")].clone();

    // The TCP front door, on an OS-assigned loopback port.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let shutting_down = Arc::new(AtomicBool::new(false));
    let acceptor = serve(
        listener,
        selectors[0].clone(),
        coord_ref.clone(),
        shutting_down.clone(),
    );
    println!(
        "topology up: coordinator owns {:?}; wire protocol v{} on {addr}",
        locks.names(),
        federated::server::wire::PROTOCOL_VERSION,
    );

    let mut fleet_stats = WireStats::default();
    for round_no in 1..=2 {
        println!("\n--- round {round_no} ---");
        let handles: Vec<_> = (0..10u64)
            .map(|i| device_thread(i, addr, data.users[i as usize].clone()))
            .collect();
        let results: Vec<_> = handles.into_iter().filter_map(|h| h.join().ok()).collect();
        let accepted = results.iter().filter(|(ok, _)| *ok).count();
        for (_, stats) in &results {
            fleet_stats = fleet_stats + *stats;
        }
        println!("devices with accepted reports: {accepted}");
        assert!(accepted >= goal, "{accepted} accepted reports, goal {goal}");

        // The Coordinator closes the round itself; wait for its outcome.
        let outcome =
            complete_round(&coord_ref, Duration::from_secs(10)).expect("the round finishes");
        println!("outcome: {outcome:?}");
        assert!(outcome.is_committed(), "round {round_no} did not commit");
    }
    println!(
        "\nfleet wire traffic: {} frames / {} bytes sent, {} frames / {} bytes received",
        fleet_stats.frames_sent,
        fleet_stats.bytes_sent,
        fleet_stats.frames_received,
        fleet_stats.bytes_received,
    );

    // Failure handling: kill the coordinator, then respawn exactly once.
    println!("\n--- failure drill: coordinator shutdown + respawn ---");
    coord_ref.send(CoordMsg::Shutdown).unwrap();
    // Wait for the lease to clear.
    while locks.lookup("coordinator/live-pop").is_some() {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("lease released; selector layer may respawn the coordinator");
    let winners = (0..4)
        .map(|i| {
            locks
                .acquire("coordinator/live-pop", format!("respawn-candidate-{i}"))
                .is_some()
        })
        .filter(|&won| won)
        .count();
    println!("respawn races won: {winners} (exactly once, as Sec. 4.4 requires)");
    assert_eq!(winners, 1, "exactly one respawn racer wins");

    // Unblock the accept loop with one last throwaway connection, then
    // tear the tree down (idempotently — the coordinator is already gone).
    shutting_down.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    let _ = acceptor.join();
    topology.shutdown();
    system.join();
    println!("\nclean shutdown");
}
