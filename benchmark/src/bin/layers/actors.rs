//! The probes that need a second thread: loopback TCP, the Selector and
//! Coordinator actors, and the actor runtime itself.

use crate::{per_call, per_call_with};
use crossbeam::channel::{unbounded, Sender};
use fl_actors::{Actor, ActorRef, ActorSystem, Context, Flow, LockingService};
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_benchmark::{median, Metrics, DELTA};
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::RoundConfig;
use fl_core::{DeviceId, PopulationName};
use fl_server::live::{CoordMsg, CoordinatorActor, SelectorActor, SelectorMsg};
use fl_server::topology::SelectorSpec;
use fl_server::{CoordinatorConfig, GlobalAdmissionBudget, GlobalAdmissionConfig, PaceSteering};
use fl_wire::{encode, ChannelTransport, TcpTransport, Transport, WireMessage, WireSink};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);
/// Messages in flight per timed batch of an actor probe: the storm keeps
/// hundreds in flight, so a probe that waited for each reply would time
/// the thread wake-up instead of the handler.
const IN_FLIGHT: usize = 256;
/// `checkin_storm`'s model, populations and check-ins per round.
const SMALL: ModelSpec = ModelSpec::Logistic {
    dim: 16,
    classes: 4,
    seed: 0,
};
const POPULATIONS: usize = 4;
const CHECKINS: usize = 320;

/// `wire.tcp_*`: one loopback connection to a thread that answers a
/// check-in with a turn-away and a decoded report with an ack.
pub fn tcp_probes(m: &mut Metrics, checkin: &WireMessage, report: &WireMessage) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let conn = TcpTransport::new(stream).expect("wrap the stream");
        while let Ok(msg) = conn.recv_timeout(Duration::from_secs(3600)) {
            let reply = match msg {
                WireMessage::CheckinRequest { population, .. } => WireMessage::ComeBackLater {
                    retry_at_ms: 0,
                    population,
                },
                WireMessage::UpdateReport {
                    round,
                    attempt,
                    population,
                    ..
                } => WireMessage::ReportAck {
                    accepted: true,
                    round,
                    attempt,
                    population,
                },
                _ => return,
            };
            if conn.send(&reply).is_err() {
                return;
            }
        }
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let conn = TcpTransport::new(stream).expect("wrap the stream");
    let round_trip = |msg: &WireMessage| {
        per_call_with(
            || (),
            |()| {
                conn.send(msg).expect("send");
                black_box(conn.recv_timeout(WAIT).expect("reply"));
            },
        )
    };
    m.push("wire.tcp_roundtrip_us", round_trip(checkin) * 1e6, "us");
    let mb = encode(report).expect("frame encodes").len() as f64 / 1e6;
    m.push("wire.tcp_1m_mb_per_s", mb / round_trip(report), "MB/s");
    drop(conn);
    server.join().expect("tcp echo thread");
}

fn populations() -> Vec<PopulationName> {
    (0..POPULATIONS)
        .map(|p| PopulationName::new(format!("bench/p{p}")))
        .collect()
}

fn budget(pops: &[PopulationName]) -> GlobalAdmissionBudget {
    let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
        window_ms: 60_000,
        max_admits_per_window: 1 << 40,
    });
    for p in pops {
        budget.register_population(p);
    }
    budget
}

/// `selector.*`, `shedding.*`, `analytics.*`: the admission path of one
/// check-in, first as plain calls, then through the Selector actor.
pub fn selector_probes(m: &mut Metrics, seed: u64) {
    let pops = populations();
    let shared = budget(&pops);
    let spec = SelectorSpec::new(
        PaceSteering::new(1_000, 20),
        (CHECKINS * POPULATIONS) as u64,
        seed,
        CHECKINS,
    );
    let mut selector = spec.build(Some(&shared));
    for p in &pops {
        selector.set_population_quota(p.clone(), CHECKINS);
    }
    // The clock advances as it would at the storm's rate.
    let mut i = 0u64;
    let secs = per_call(|| {
        i += 1;
        let device = DeviceId(i);
        black_box(selector.on_checkin_for(&pops[i as usize % POPULATIONS], device, i / 256, 1.0));
        selector.on_disconnect(device);
    });
    m.push("selector.checkin_for_ns", secs * 1e9, "ns");

    let admit = budget(&pops);
    let secs = per_call(|| {
        i += 1;
        black_box(admit.try_admit_for(i / 256, &pops[i as usize % POPULATIONS]));
    });
    m.push("shedding.try_admit_for_ns", secs * 1e9, "ns");

    let mut telemetry = OverloadMetrics::new(OverloadMonitorConfig::default(), 0);
    let secs = per_call(|| {
        i += 1;
        telemetry.record_accept_for(&pops[i as usize % POPULATIONS], i / 256);
    });
    m.push("analytics.record_accept_for_ns", secs * 1e9, "ns");

    // The actor in front of a stand-in Coordinator: frame in, decoded,
    // admitted, `DeviceForwarded` out.
    let system = ActorSystem::new();
    let (coordinator, forwarded) = ActorRef::<CoordMsg>::detached("coordinator");
    let mut actor = SelectorActor::new(spec.build(Some(&budget(&pops))), coordinator.clone());
    for p in &pops {
        actor = actor.with_route(p.clone(), coordinator.clone(), CHECKINS);
    }
    let selector = system.spawn("selector-probe", actor);
    let frames: Vec<Vec<u8>> = (0..IN_FLIGHT)
        .map(|d| {
            encode(&WireMessage::CheckinRequest {
                device: DeviceId(d as u64),
                population: pops[d % POPULATIONS].clone(),
            })
            .expect("frame encodes")
        })
        .collect();
    let secs = per_call_with(
        || (),
        |()| {
            for frame in &frames {
                let checkin = SelectorMsg::Checkin {
                    frame: frame.clone(),
                    conn: WireSink::null(),
                };
                selector.send(checkin).expect("selector alive");
            }
            for _ in &frames {
                black_box(forwarded.recv_timeout(WAIT).expect("forwarded"));
            }
        },
    );
    m.push(
        "selector.actor_checkin_us",
        secs / IN_FLIGHT as f64 * 1e6,
        "us",
    );
    selector
        .send(SelectorMsg::Shutdown)
        .expect("selector alive");
    system.join();
}

fn spawn_coordinator(
    system: &ActorSystem,
    locks: &LockingService<String>,
    name: &str,
    goal: usize,
    seed: u64,
) -> ActorRef<CoordMsg> {
    let round = RoundConfig {
        goal_count: goal,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 600_000,
        report_window_ms: 600_000,
        device_cap_ms: 600_000,
    };
    let mut config = CoordinatorConfig::new(name, seed);
    config.max_per_shard = 1024;
    let actor = CoordinatorActor::new(
        config,
        TaskGroup::new(
            vec![FlTask::training("train", name).with_round(round)],
            TaskSelectionStrategy::Single,
        ),
        vec![FlPlan::standard_training(
            SMALL,
            1,
            16,
            0.1,
            CodecSpec::Identity,
        )],
        vec![0.0; SMALL.num_params()],
        locks.clone(),
    );
    system.spawn(format!("coordinator-{name}"), actor)
}

/// `coordinator.turnaway_us` and `coordinator.report_ack_us`: the two
/// per-message paths of the Coordinator actor, small frames, many in
/// flight.
pub fn coordinator_probes(m: &mut Metrics, seed: u64) {
    let system = ActorSystem::new();
    let locks: LockingService<String> = LockingService::new();
    let (device_end, gateway) = ChannelTransport::pair();
    let forward = |coordinator: &ActorRef<CoordMsg>, device: u64| {
        let msg = CoordMsg::DeviceForwarded {
            device: DeviceId(device),
            conn: gateway.sink(),
        };
        coordinator.send(msg).expect("coordinator alive");
    };

    // A round that has its 20 devices and is waiting for their reports
    // turns every further check-in away.
    let turnaway = spawn_coordinator(&system, &locks, "probe/turnaway", 20, seed);
    for d in 0..20 {
        forward(&turnaway, d);
    }
    for _ in 0..20 {
        device_end.recv_frame_timeout(WAIT).expect("configuration");
    }
    let mut next = 20;
    let secs = per_call_with(
        || (),
        |()| {
            for _ in 0..IN_FLIGHT {
                next += 1;
                forward(&turnaway, next);
            }
            for _ in 0..IN_FLIGHT {
                black_box(device_end.recv_frame_timeout(WAIT).expect("turn-away"));
            }
        },
    );
    m.push(
        "coordinator.turnaway_us",
        secs / IN_FLIGHT as f64 * 1e6,
        "us",
    );
    turnaway
        .send(CoordMsg::Shutdown)
        .expect("coordinator alive");

    // A round with a large goal accepts every report: decode, at-most-once
    // ledger, round accounting, re-framing to the Master, ack.
    const GOAL: u64 = 2048;
    let population = PopulationName::new("probe/ack");
    let acker = spawn_coordinator(&system, &locks, population.as_str(), GOAL as usize, seed);
    let update = CodecSpec::Identity
        .build()
        .encode(&vec![DELTA; SMALL.num_params()]);
    let mut samples = Vec::new();
    for round in 0..3 {
        let first = round * GOAL;
        for d in first..first + GOAL {
            forward(&acker, d);
        }
        let key = match device_end.recv_timeout(WAIT).expect("configuration") {
            WireMessage::PlanAndCheckpoint { checkpoint, .. } => checkpoint.round,
            other => panic!("unexpected reply {other:?}"),
        };
        for _ in 1..GOAL {
            device_end.recv_frame_timeout(WAIT).expect("configuration");
        }
        let frames: Vec<Vec<u8>> = (first..first + GOAL)
            .map(|d| {
                encode(&WireMessage::UpdateReport {
                    device: DeviceId(d),
                    round: key,
                    attempt: 1,
                    update_bytes: update.clone(),
                    weight: 1,
                    loss: 0.5,
                    accuracy: 0.5,
                    population: population.clone(),
                })
                .expect("frame encodes")
            })
            .collect();
        let started = Instant::now();
        for (i, frame) in frames.into_iter().enumerate() {
            let conn = gateway.sink();
            acker
                .send(CoordMsg::Report { frame, conn })
                .expect("coordinator alive");
            if (i + 1) % IN_FLIGHT == 0 {
                for _ in 0..IN_FLIGHT {
                    let ack = device_end.recv_timeout(WAIT).expect("ack");
                    assert!(
                        matches!(ack, WireMessage::ReportAck { accepted: true, .. }),
                        "{ack:?}"
                    );
                }
            }
        }
        samples.push(started.elapsed().as_secs_f64() / GOAL as f64);
        loop {
            let (reply, outcome) = unbounded();
            acker
                .send(CoordMsg::TryCompleteRound { reply })
                .expect("coordinator alive");
            if outcome.recv().expect("completion reply").is_some() {
                break;
            }
            std::thread::yield_now();
        }
    }
    m.push(
        "coordinator.report_ack_us",
        median(&mut samples) * 1e6,
        "us",
    );
    acker.send(CoordMsg::Shutdown).expect("coordinator alive");
    system.join();
}

enum EchoMsg {
    Ping(Sender<()>),
    Stop,
}

struct Echo;

impl Actor for Echo {
    type Msg = EchoMsg;

    fn handle(&mut self, msg: EchoMsg, _ctx: &mut Context<EchoMsg>) -> Flow {
        match msg {
            EchoMsg::Ping(reply) => {
                let _ = reply.send(());
                Flow::Continue
            }
            EchoMsg::Stop => Flow::Stop,
        }
    }
}

/// `actors.*` and `race.lock_ns`: what every message and every per-round
/// Master and shard actor pays before any protocol work.
pub fn actor_probes(m: &mut Metrics) {
    let system = ActorSystem::new();
    let echo = system.spawn("echo", Echo);
    let (reply, pong) = unbounded();
    // Half a ping-pong: one mailbox hop with its thread wake-up.
    let secs = per_call_with(
        || (),
        |()| {
            echo.send(EchoMsg::Ping(reply.clone())).expect("echo alive");
            pong.recv().expect("pong");
        },
    );
    m.push("actors.mailbox_hop_ns", secs / 2.0 * 1e9, "ns");
    echo.send(EchoMsg::Stop).expect("echo alive");
    system.join();

    let secs = per_call_with(
        || (),
        |()| {
            let actor = system.spawn("ephemeral", Echo);
            actor.send(EchoMsg::Stop).expect("actor alive");
            system.join();
        },
    );
    m.push("actors.spawn_stop_us", secs * 1e6, "us");

    let lock = fl_race::Mutex::new(fl_race::Site::new("benchmark/layers.probe", 90), 0u64);
    let secs = per_call(|| *lock.lock() += 1);
    m.push("race.lock_ns", secs * 1e9, "ns");
}
