//! The three live workloads: devices speak framed `fl-wire` messages to
//! the spawned Selector -> Coordinator -> Master Aggregator tree and the
//! driver times every step from outside.
//!
//! Every loop is closed: a lane (one driver thread) sends a round's
//! check-ins, waits for every reply, sends the reports, waits for every
//! ack, and only then asks the Coordinator to complete the round. Work is
//! a fixed number of rounds, so a faster build does not run more of them
//! (peak RSS grows with rounds run).

use crossbeam::channel::unbounded;
use fl_actors::{ActorRef, ActorSystem, LockingService};
use fl_analytics::overload::OverloadMonitorConfig;
use fl_benchmark::{check_load_budget, peak_rss_mb, Trace, DELTA};
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::RoundConfig;
use fl_core::{DeviceId, PopulationName, RoundId};
use fl_ml::fixedpoint::FixedPointEncoder;
use fl_server::aggregator::DropStage;
use fl_server::live::{CoordMsg, CoordinatorActor, DeviceConn, SelectorMsg};
use fl_server::topology::{spawn_multi_topology, MultiTopology, SelectorSpec, TopologyBlueprint};
use fl_server::{CoordinatorConfig, GlobalAdmissionConfig, PaceSteering};
use fl_wire::{peek_tag, tag, TcpTransport, Transport, WireError, WireMessage, WireStats};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A reply that has not come after this long is a failed run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Link {
    /// Loopback TCP; each lane is one connection multiplexing its devices.
    Tcp,
    /// One in-memory `DeviceConn` per device.
    Channel,
}

/// The constants of one live workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub populations: usize,
    pub dim: usize,
    pub classes: usize,
    pub goal: usize,
    pub overselection: f64,
    pub max_per_shard: usize,
    pub secagg_k: Option<usize>,
    /// Check-ins per population-round, over all lanes.
    pub checkins: usize,
    /// Share-stage drop-outs announced per round, after all acks.
    pub share_dropouts: u64,
    pub selectors: usize,
    /// A shared `GlobalAdmissionBudget` (sized never to shed) and telemetry.
    pub shared_budget: bool,
    pub link: Link,
    pub lanes: usize,
    pub warmup_rounds: u64,
    /// Measured rounds per population for each requested second.
    pub rounds_per_second: f64,
}

impl LiveSpec {
    fn round(&self) -> RoundConfig {
        RoundConfig {
            goal_count: self.goal,
            overselection: self.overselection,
            min_goal_fraction: 1.0,
            // No `Tick` is ever sent: rounds close on the goal count.
            selection_timeout_ms: 600_000,
            report_window_ms: 600_000,
            device_cap_ms: 600_000,
        }
    }

    fn model(&self, seed: u64) -> ModelSpec {
        ModelSpec::Logistic {
            dim: self.dim,
            classes: self.classes,
            seed,
        }
    }

    pub fn configured_per_round(&self) -> u64 {
        self.round().selection_target() as u64
    }

    pub fn measured_rounds(&self, seconds: u64) -> u64 {
        ((self.rounds_per_second * seconds as f64).round() as u64).max(4)
    }
}

/// The spawned server tree, plus the TCP front door when the link is TCP.
struct Env {
    system: ActorSystem,
    topology: MultiTopology,
    populations: Vec<PopulationName>,
    /// The Coordinator of each population, in `populations` order.
    coordinators: Vec<ActorRef<CoordMsg>>,
    front_door: Option<(SocketAddr, JoinHandle<Vec<JoinHandle<()>>>)>,
}

impl Env {
    fn spawn(spec: &LiveSpec, seed: u64) -> Env {
        let system = ActorSystem::new();
        let locks: LockingService<String> = LockingService::new();
        let model = spec.model(seed);
        let populations: Vec<PopulationName> = (0..spec.populations)
            .map(|p| PopulationName::new(format!("bench/p{p}")))
            .collect();
        let coordinators = populations
            .iter()
            .enumerate()
            .map(|(p, name)| {
                let mut task = FlTask::training("train", name.clone()).with_round(spec.round());
                if let Some(k) = spec.secagg_k {
                    task = task.with_secagg(k);
                }
                let mut config = CoordinatorConfig::new(name.clone(), seed ^ p as u64);
                config.max_per_shard = spec.max_per_shard;
                let actor = CoordinatorActor::new(
                    config,
                    TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
                    vec![FlPlan::standard_training(
                        model,
                        1,
                        16,
                        0.1,
                        CodecSpec::Identity,
                    )],
                    vec![0.0; model.num_params()],
                    locks.clone(),
                );
                (actor, spec.checkins)
            })
            .collect();
        let mut blueprint = TopologyBlueprint::new(
            (0..spec.selectors as u64)
                .map(|i| {
                    SelectorSpec::new(
                        PaceSteering::new(1_000, spec.configured_per_round()),
                        (spec.checkins * spec.populations) as u64,
                        seed.wrapping_add(i),
                        spec.checkins,
                    )
                })
                .collect(),
        );
        if spec.shared_budget {
            blueprint = blueprint
                .with_global_admission(GlobalAdmissionConfig {
                    window_ms: 60_000,
                    max_admits_per_window: 1 << 40,
                })
                .with_telemetry(OverloadMonitorConfig::default());
        }
        let topology = spawn_multi_topology(&system, coordinators, &blueprint);
        let coordinators: Vec<ActorRef<CoordMsg>> = populations
            .iter()
            .map(|p| topology.coordinators[p].clone())
            .collect();
        let front_door = (spec.link == Link::Tcp).then(|| {
            serve(
                spec.lanes,
                topology.selectors.clone(),
                coordinators[0].clone(),
            )
        });
        Env {
            system,
            topology,
            populations,
            coordinators,
            front_door,
        }
    }

    fn lanes(&self, spec: &LiveSpec, seed: u64) -> Vec<LaneJob> {
        let payload = Payload::new(spec, seed);
        (0..spec.lanes)
            .map(|i| match self.front_door {
                Some((addr, _)) => {
                    let stream = TcpStream::connect(addr).expect("connect to the front door");
                    stream.set_nodelay(true).expect("set TCP_NODELAY");
                    LaneJob {
                        lane: Box::new(TcpLane {
                            conn: TcpTransport::new(stream).expect("wrap the stream"),
                            population: self.populations[0].clone(),
                            report: payload.message(&self.populations[0]),
                            devices: Vec::new(),
                            configured: 0,
                            seen: WireStats::default(),
                        }),
                        index: i as u64,
                        pops: vec![0],
                        // One lane asks for completion; the others meet
                        // it at the barrier.
                        commits: i == 0,
                        checkins: spec.checkins / spec.lanes,
                    }
                }
                None => {
                    let per_lane = spec.populations / spec.lanes;
                    LaneJob {
                        lane: Box::new(ChannelLane {
                            selectors: self.topology.selectors.clone(),
                            coordinators: self.coordinators.clone(),
                            populations: self.populations.clone(),
                            payload: payload.clone(),
                            conns: Vec::new(),
                            configured: Vec::new(),
                        }),
                        index: i as u64,
                        pops: (i * per_lane..(i + 1) * per_lane).collect(),
                        commits: true,
                        checkins: spec.checkins,
                    }
                }
            })
            .collect()
    }

    fn shutdown(self) {
        self.topology.shutdown();
        self.system.join();
        if let Some((_, acceptor)) = self.front_door {
            // The lanes are gone, so every gateway has seen its peer close.
            for gateway in acceptor.join().expect("acceptor thread") {
                gateway.join().expect("gateway thread");
            }
        }
    }
}

/// The TCP front door, after `examples/live_server.rs::serve`: accepts
/// `connections` peers and gives each a gateway thread that routes inbound
/// frames into the actor mailboxes by tag. Connection `i` talks to
/// Selector `i % selectors`.
fn serve(
    connections: usize,
    selectors: Vec<ActorRef<SelectorMsg>>,
    coordinator: ActorRef<CoordMsg>,
) -> (SocketAddr, JoinHandle<Vec<JoinHandle<()>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    let acceptor = std::thread::spawn(move || {
        (0..connections)
            .map(|i| {
                let (stream, _) = listener.accept().expect("accept a lane");
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                let transport = TcpTransport::new(stream).expect("wrap the stream");
                let selector = selectors[i % selectors.len()].clone();
                let coordinator = coordinator.clone();
                std::thread::spawn(move || {
                    // Ends when the lane hangs up or the actors are gone.
                    while let Ok(frame) = transport.recv_frame_timeout(Duration::from_secs(3600)) {
                        let conn = transport.sink();
                        let routed = match peek_tag(&frame) {
                            Ok(tag::UPDATE_REPORT | tag::SECAGG_REPORT) => {
                                coordinator.send(CoordMsg::Report { frame, conn }).is_ok()
                            }
                            Ok(_) => selector.send(SelectorMsg::Checkin { frame, conn }).is_ok(),
                            Err(_) => true,
                        };
                        if !routed {
                            return;
                        }
                    }
                })
            })
            .collect()
    });
    (addr, acceptor)
}

/// The constant update every device uploads.
#[derive(Debug, Clone)]
enum Payload {
    Plain(Vec<u8>),
    Masked(Vec<u64>),
}

impl Payload {
    fn new(spec: &LiveSpec, seed: u64) -> Payload {
        let update = vec![DELTA; spec.model(seed).num_params()];
        match spec.secagg_k {
            None => Payload::Plain(CodecSpec::Identity.build().encode(&update)),
            Some(_) => Payload::Masked(
                FixedPointEncoder::default_for_updates()
                    .encode(&update)
                    .expect("DELTA is inside the fixed-point range"),
            ),
        }
    }

    /// A report message to re-address per device, so the TCP lane does
    /// not copy a megabyte per upload before the codec sees it.
    fn message(&self, population: &PopulationName) -> WireMessage {
        let (device, round, population) = (DeviceId(0), RoundId(0), population.clone());
        match self.clone() {
            Payload::Plain(update_bytes) => WireMessage::UpdateReport {
                device,
                round,
                attempt: 1,
                update_bytes,
                weight: 1,
                loss: 0.5,
                accuracy: 0.5,
                population,
            },
            Payload::Masked(field_vector) => WireMessage::SecAggReport {
                device,
                round,
                attempt: 1,
                field_vector,
                weight: 1,
                loss: 0.5,
                accuracy: 0.5,
                population,
            },
        }
    }
}

/// What a lane saw in answer to one round's check-ins.
#[derive(Debug, Clone, Copy)]
struct Configured {
    configured: u64,
    turned_away: u64,
    /// The dedup key the Configuration carried.
    round: RoundId,
    /// Whether every checkpoint read back held the expected parameters.
    params_ok: bool,
}

impl Configured {
    const NONE: Configured = Configured {
        configured: 0,
        turned_away: 0,
        round: RoundId(0),
        params_ok: true,
    };
}

/// One driver thread's devices and their connection(s).
trait Lane: Send {
    /// Sends one check-in for each of `n` fresh device ids.
    fn check_in(&mut self, pop: usize, first_id: u64, n: usize) -> Result<(), WireError>;
    /// Waits for the reply to every check-in; checks each checkpoint
    /// against `expect` within `tolerance`.
    fn configure(&mut self, expect: f32, tolerance: f32) -> Result<Configured, WireError>;
    /// Uploads the report of every configured device; returns the
    /// report-frame bytes sent.
    fn report(&mut self, round: RoundId) -> Result<u64, WireError>;
    /// Waits for every ack; returns (accepted, refused).
    fn acks(&mut self) -> Result<(u64, u64), WireError>;
    /// Ends the round; returns its device-side traffic.
    fn end_round(&mut self) -> WireStats;
}

/// Reads a Configuration off the wire the way a device does and checks
/// the checkpoint: every coordinate on the lane's first one, the ends on
/// the rest (they are the same frame).
fn check_configuration(
    reply: WireMessage,
    seen: &mut Configured,
    expect: f32,
    tolerance: f32,
) -> Result<(), WireError> {
    match reply {
        WireMessage::PlanAndCheckpoint { checkpoint, .. } => {
            let params = checkpoint.params();
            let probe = if seen.configured == 0 {
                params
            } else {
                &params[params.len() - 1..]
            };
            seen.params_ok &= probe.iter().all(|p| (p - expect).abs() <= tolerance);
            seen.configured += 1;
            seen.round = checkpoint.round;
            Ok(())
        }
        WireMessage::ComeBackLater { .. } => {
            seen.turned_away += 1;
            Ok(())
        }
        other => Err(WireError::Io(format!(
            "unexpected check-in reply {other:?}"
        ))),
    }
}

fn check_ack(reply: WireMessage, accepted: &mut u64, refused: &mut u64) -> Result<(), WireError> {
    match reply {
        WireMessage::ReportAck { accepted: true, .. } => *accepted += 1,
        WireMessage::ReportAck {
            accepted: false, ..
        } => *refused += 1,
        other => return Err(WireError::Io(format!("unexpected report reply {other:?}"))),
    }
    Ok(())
}

struct TcpLane {
    conn: TcpTransport,
    population: PopulationName,
    report: WireMessage,
    devices: Vec<DeviceId>,
    configured: usize,
    seen: WireStats,
}

impl Lane for TcpLane {
    fn check_in(&mut self, _pop: usize, first_id: u64, n: usize) -> Result<(), WireError> {
        self.devices = (first_id..first_id + n as u64).map(DeviceId).collect();
        for &device in &self.devices {
            self.conn.send(&WireMessage::CheckinRequest {
                device,
                population: self.population.clone(),
            })?;
        }
        Ok(())
    }

    fn configure(&mut self, expect: f32, tolerance: f32) -> Result<Configured, WireError> {
        let mut seen = Configured::NONE;
        for _ in 0..self.devices.len() {
            check_configuration(
                self.conn.recv_timeout(REPLY_TIMEOUT)?,
                &mut seen,
                expect,
                tolerance,
            )?;
        }
        // Replies carry no device id; any `configured` of the lane's ids
        // stand for the configured devices (all of them, on this workload).
        self.configured = seen.configured as usize;
        Ok(seen)
    }

    fn report(&mut self, key: RoundId) -> Result<u64, WireError> {
        let mut bytes = 0;
        for &id in &self.devices[..self.configured] {
            match &mut self.report {
                WireMessage::UpdateReport { device, round, .. }
                | WireMessage::SecAggReport { device, round, .. } => {
                    *device = id;
                    *round = key;
                }
                _ => unreachable!("the template is a report"),
            }
            bytes += self.conn.send(&self.report)? as u64;
        }
        Ok(bytes)
    }

    fn acks(&mut self) -> Result<(u64, u64), WireError> {
        let (mut accepted, mut refused) = (0, 0);
        for _ in 0..self.configured {
            check_ack(
                self.conn.recv_timeout(REPLY_TIMEOUT)?,
                &mut accepted,
                &mut refused,
            )?;
        }
        Ok((accepted, refused))
    }

    fn end_round(&mut self) -> WireStats {
        let now = self.conn.stats();
        let before = std::mem::replace(&mut self.seen, now);
        WireStats {
            frames_sent: now.frames_sent - before.frames_sent,
            bytes_sent: now.bytes_sent - before.bytes_sent,
            frames_received: now.frames_received - before.frames_received,
            bytes_received: now.bytes_received - before.bytes_received,
            frames_corrupt: now.frames_corrupt - before.frames_corrupt,
        }
    }
}

struct ChannelLane {
    selectors: Vec<ActorRef<SelectorMsg>>,
    coordinators: Vec<ActorRef<CoordMsg>>,
    populations: Vec<PopulationName>,
    payload: Payload,
    conns: Vec<DeviceConn>,
    /// Indices into `conns` of this round's configured devices.
    configured: Vec<usize>,
}

impl Lane for ChannelLane {
    fn check_in(&mut self, pop: usize, first_id: u64, n: usize) -> Result<(), WireError> {
        self.conns.clear();
        for i in 0..n {
            let conn = DeviceConn::connect(
                DeviceId(first_id + i as u64),
                self.populations[pop].clone(),
                self.selectors[i % self.selectors.len()].clone(),
                self.coordinators[pop].clone(),
            );
            conn.check_in()?;
            self.conns.push(conn);
        }
        Ok(())
    }

    fn configure(&mut self, expect: f32, tolerance: f32) -> Result<Configured, WireError> {
        let mut seen = Configured::NONE;
        self.configured.clear();
        for (i, conn) in self.conns.iter().enumerate() {
            let before = seen.configured;
            check_configuration(conn.recv(REPLY_TIMEOUT)?, &mut seen, expect, tolerance)?;
            if seen.configured > before {
                self.configured.push(i);
            }
        }
        Ok(seen)
    }

    fn report(&mut self, round: RoundId) -> Result<u64, WireError> {
        let mut bytes = 0;
        for &i in &self.configured {
            let conn = &self.conns[i];
            let before = conn.stats().bytes_sent;
            match &self.payload {
                Payload::Plain(update) => conn.report(round, 1, update.clone(), 1, 0.5, 0.5)?,
                Payload::Masked(field) => {
                    conn.report_secagg(round, 1, field.clone(), 1, 0.5, 0.5)?
                }
            }
            bytes += conn.stats().bytes_sent - before;
        }
        Ok(bytes)
    }

    fn acks(&mut self) -> Result<(u64, u64), WireError> {
        let (mut accepted, mut refused) = (0, 0);
        for &i in &self.configured {
            check_ack(
                self.conns[i].recv(REPLY_TIMEOUT)?,
                &mut accepted,
                &mut refused,
            )?;
        }
        Ok((accepted, refused))
    }

    fn end_round(&mut self) -> WireStats {
        self.conns
            .drain(..)
            .fold(WireStats::default(), |sum, conn| sum + conn.stats())
    }
}

/// Announces the round's drop-outs, then asks the Coordinator to complete
/// the round until it answers with an outcome. Every ack is in by now, so
/// the round has closed on its goal count and the first ask succeeds;
/// `yield_now` covers a build in which it does not.
fn commit(coordinator: &ActorRef<CoordMsg>, dropouts: &[DeviceId]) -> Result<bool, String> {
    for &device in dropouts {
        coordinator
            .send(CoordMsg::DeviceDropped {
                device,
                stage: DropStage::Share,
            })
            .map_err(|_| "coordinator gone")?;
    }
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        let (reply, outcome) = unbounded();
        coordinator
            .send(CoordMsg::TryCompleteRound { reply })
            .map_err(|_| "coordinator gone")?;
        match outcome.recv() {
            Ok(Some(outcome)) => return Ok(outcome.is_committed()),
            Ok(None) if Instant::now() < deadline => std::thread::yield_now(),
            Ok(None) => return Err("round did not complete".into()),
            Err(_) => return Err("coordinator dropped the reply".into()),
        }
    }
}

/// One lane's view of one population-round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    pub lane: u64,
    pub pop: usize,
    pub round: u64,
    /// When the first check-in was sent.
    pub started: Instant,
    /// Wall time from the first check-in to the commit outcome; only the
    /// lane that asked for completion has one.
    pub wall: Option<Duration>,
    /// Whether the round's spans were recorded.
    pub traced: bool,
    pub checkins: u64,
    pub configured: u64,
    pub turned_away: u64,
    pub accepted: u64,
    pub refused: u64,
    pub report_bytes: u64,
    pub wire: WireStats,
    pub committed: bool,
    pub params_ok: bool,
}

struct LaneJob {
    lane: Box<dyn Lane>,
    index: u64,
    pops: Vec<usize>,
    commits: bool,
    /// Check-ins this lane sends per population-round.
    checkins: usize,
}

/// What every lane of a run shares.
struct Shared<'a> {
    spec: &'a LiveSpec,
    seed: u64,
    coordinators: Vec<ActorRef<CoordMsg>>,
    /// Lanes driving one population in lockstep meet here before a round
    /// and before its commit.
    round_barrier: Option<Barrier>,
    /// All lanes and the main thread meet here after warm-up and around
    /// the measured rounds.
    phase_barrier: Barrier,
}

impl Shared<'_> {
    fn tolerance(&self) -> f32 {
        // SecAgg sums on the fixed-point grid.
        if self.spec.secagg_k.is_some() {
            1e-3
        } else {
            0.0
        }
    }
}

impl LaneJob {
    /// Drives `rounds` rounds of each of the lane's populations.
    /// `done` counts the rounds already committed in this tree, which
    /// fixes the expected checkpoint. With a trace, every second round
    /// records its spans, so traced and untraced rounds age alike.
    fn drive(
        &mut self,
        shared: &Shared,
        done: &mut u64,
        rounds: u64,
        next_id: &mut u64,
        mut trace: Option<&mut Trace>,
        records: &mut Vec<RoundRecord>,
    ) -> Result<(), String> {
        let index = self.index;
        let wire = move |e: WireError| format!("lane {index}: {e}");
        for _ in 0..rounds {
            for &pop in &self.pops {
                if let Some(barrier) = &shared.round_barrier {
                    barrier.wait();
                }
                let first_id = *next_id;
                *next_id += self.checkins as u64;
                let t0 = Instant::now();
                self.lane
                    .check_in(pop, first_id, self.checkins)
                    .map_err(wire)?;
                let t1 = Instant::now();
                let seen = self
                    .lane
                    .configure(*done as f32 * DELTA, shared.tolerance())
                    .map_err(wire)?;
                let t2 = Instant::now();
                let report_bytes = self.lane.report(seen.round).map_err(wire)?;
                let (accepted, refused) = self.lane.acks().map_err(wire)?;
                let t3 = Instant::now();
                if let Some(barrier) = &shared.round_barrier {
                    barrier.wait();
                }
                let mut record = RoundRecord {
                    lane: self.index,
                    pop,
                    round: *done,
                    started: t0,
                    wall: None,
                    traced: false,
                    checkins: self.checkins as u64,
                    configured: seen.configured,
                    turned_away: seen.turned_away,
                    accepted,
                    refused,
                    report_bytes,
                    wire: WireStats::default(),
                    committed: true,
                    params_ok: seen.params_ok,
                };
                if self.commits {
                    let dropouts: Vec<DeviceId> = (first_id..first_id + shared.spec.share_dropouts)
                        .map(DeviceId)
                        .collect();
                    let t4 = Instant::now();
                    record.committed = commit(&shared.coordinators[pop], &dropouts)?;
                    let t5 = Instant::now();
                    record.wall = Some(t5 - t0);
                    if let Some(trace) = trace.as_deref_mut().filter(|_| *done % 2 == 1) {
                        let id = pop as u64 * 1_000_000 + *done;
                        let round = trace.record("round", None, id, t0, t5);
                        trace.record("phase.checkin", Some(round), id, t0, t1);
                        trace.record("phase.configure", Some(round), id, t1, t2);
                        trace.record("phase.report", Some(round), id, t2, t3);
                        trace.record("phase.commit", Some(round), id, t4, t5);
                        record.traced = true;
                    }
                }
                record.wire = self.lane.end_round();
                records.push(record);
            }
            *done += 1;
        }
        Ok(())
    }

    /// One extra round's check-ins: reads the checkpoint the last measured
    /// round committed and leaves the round open.
    fn probe(&mut self, shared: &Shared, done: u64, next_id: &mut u64) -> Result<bool, String> {
        let mut ok = true;
        for &pop in &self.pops {
            let sent = self.lane.check_in(pop, *next_id, self.checkins);
            *next_id += self.checkins as u64;
            let seen = sent
                .and_then(|()| self.lane.configure(done as f32 * DELTA, shared.tolerance()))
                .map_err(|e| format!("lane {}: {e}", self.index))?;
            ok &= seen.params_ok && seen.configured > 0;
            self.lane.end_round();
        }
        Ok(ok)
    }
}

/// The outcome of one live run.
#[derive(Debug)]
pub struct LiveRun {
    /// One per set-up (spawn, connect, payload build, warm-up rounds).
    pub setup: Vec<Duration>,
    /// Every lane's record of every measured population-round.
    pub records: Vec<RoundRecord>,
    pub trace: Option<Trace>,
    /// Whether the checkpoint read back after the last round was right.
    pub final_checkpoint_ok: bool,
    /// `VmHWM` when the measured tree had done its work.
    pub peak_rss_mb: f64,
}

/// Sets the tree up `setups` times, warm-up included. The first tree also
/// drives `rounds` measured rounds per population and has its final
/// checkpoint read back; it comes first so that peak RSS is that of one
/// tree. The other set-ups only time themselves.
pub fn run(spec: &LiveSpec, seed: u64, setups: usize, rounds: u64, traced: bool) -> LiveRun {
    let connections = if spec.link == Link::Tcp {
        spec.lanes
    } else {
        0
    };
    check_load_budget(spec.lanes, connections);
    let mut out = LiveRun {
        setup: Vec::new(),
        records: Vec::new(),
        trace: None,
        final_checkpoint_ok: true,
        peak_rss_mb: 0.0,
    };
    for setup in 0..setups {
        let started = Instant::now();
        let env = Env::spawn(spec, seed);
        let jobs = env.lanes(spec, seed);
        let shared = &Shared {
            spec,
            seed,
            coordinators: env.coordinators.clone(),
            round_barrier: (spec.link == Link::Tcp).then(|| Barrier::new(spec.lanes)),
            phase_barrier: Barrier::new(spec.lanes + 1),
        };
        let rounds = if setup == 0 { rounds } else { 0 };
        let epoch = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| {
                    scope.spawn(move || lane_main(job, shared, rounds, traced.then_some(epoch)))
                })
                .collect();
            shared.phase_barrier.wait();
            out.setup.push(started.elapsed());
            // The lanes drive the measured rounds until this wait.
            shared.phase_barrier.wait();
            for handle in handles {
                let lane = handle.join().expect("lane thread");
                out.records.extend(lane.records);
                out.final_checkpoint_ok &= lane.final_checkpoint_ok;
                match (&mut out.trace, lane.trace) {
                    (Some(all), Some(trace)) => all.absorb(trace),
                    (all @ None, trace) => *all = trace,
                    (Some(_), None) => {}
                }
            }
        });
        if setup == 0 {
            out.peak_rss_mb = peak_rss_mb();
        }
        env.shutdown();
    }
    out
}

struct LaneOutcome {
    records: Vec<RoundRecord>,
    trace: Option<Trace>,
    final_checkpoint_ok: bool,
}

/// A transport error or a stuck round cannot be recovered in lockstep
/// with the other lanes, so it ends the process without a result.
fn fail(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// A lane thread: warm-up, then `rounds` measured rounds and the probe of
/// the final checkpoint (neither when `rounds` is 0). Spans are recorded
/// against `trace_epoch` when it is set.
fn lane_main(
    mut job: LaneJob,
    shared: &Shared,
    rounds: u64,
    trace_epoch: Option<Instant>,
) -> LaneOutcome {
    // Device ids are fresh every round and disjoint across seeds and
    // lanes; a multiple of 64 keeps SecAgg's `device % shards` routing
    // aligned with the round's id block.
    let mut next_id = ((shared.seed & 0xFFFF) << 44) | (job.index << 40);
    let mut done = 0;
    let mut out = LaneOutcome {
        records: Vec::new(),
        trace: trace_epoch.filter(|_| job.commits).map(Trace::new),
        final_checkpoint_ok: true,
    };
    job.drive(
        shared,
        &mut done,
        shared.spec.warmup_rounds,
        &mut next_id,
        None,
        &mut Vec::new(),
    )
    .unwrap_or_else(|e| fail(e));
    shared.phase_barrier.wait();
    job.drive(
        shared,
        &mut done,
        rounds,
        &mut next_id,
        out.trace.as_mut(),
        &mut out.records,
    )
    .unwrap_or_else(|e| fail(e));
    shared.phase_barrier.wait();
    if rounds > 0 {
        out.final_checkpoint_ok = job
            .probe(shared, done, &mut next_id)
            .unwrap_or_else(|e| fail(e));
    }
    out
}
