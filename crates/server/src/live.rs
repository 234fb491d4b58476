//! Live mode: the protocol state machines wired onto the `fl-actors`
//! runtime (Fig. 3's actor topology on real threads).
//!
//! Topology: device clients talk to a [`SelectorActor`] (accept/reject +
//! pace steering + optional admission control and shared global budget);
//! accepted devices are forwarded to the [`CoordinatorActor`], which owns
//! the [`crate::coordinator::Coordinator`] state machine and drives
//! rounds. Each training round's Master Aggregator runs as an ephemeral
//! [`MasterAggregatorActor`] child ("scale\[s\] with rounds", Sec. 4.1),
//! which shards reporting devices across `AggregatorActor` children of
//! its own and dies with the round. The Coordinator registers itself in
//! the shared [`fl_actors::LockingService`]; if it dies, the Selector
//! layer detects the obituary and respawns it exactly once
//! ([`fl_actors::watch_and_respawn`]).
//!
//! Construction of the tree — Selector specs, the shared
//! [`crate::shedding::GlobalAdmissionBudget`], telemetry — lives in
//! [`crate::topology`], shared with the `fl-sim` chaos and overload
//! harnesses.
//!
//! Bytes are moved, not re-made. A round's Configuration frame is
//! encoded once, from the round's own plan and checkpoint (borrowed, not
//! cloned into a message), into a buffer the Coordinator keeps behind an
//! `Arc`, and sent to every participant, the connections taking turns so
//! that devices multiplexed on one connection do not all wait behind
//! another's downloads (`CoordinatorActor::send_configuration`). An
//! in-memory link queues a reference to that one buffer, not a copy. A
//! TCP link writes bytes, so it is sent the plan once: a connection that
//! carried the round's plan before is sent the slim frame, the checkpoint
//! with the plan named by its digest (protocol v6, encoded once a round
//! too), and its device end decodes that against the plan it kept. At
//! round end the Coordinator takes a frame's buffer back for the next
//! round unless a device has yet to read it, or the round did not use it.
//! A report frame is handed to the round's one report path
//! ([`crate::coordinator::ActiveRound::on_report`]), which opens it where
//! it lies ([`fl_wire::ReportRef`]: envelope and digest verified, payload
//! borrowed) for admission, the at-most-once ledger and the accounting,
//! and an accepted one travels on to the Master Aggregator as it arrived
//! — the device's verified frame, forwarded with what that one parse
//! read of it ([`crate::aggregator::ReportRoute`]), so the Master routes
//! it and the shard folds it without opening it again. The frame's last
//! owner gives its buffer back to the wire ([`fl_wire::recycle`]): the
//! shard once it has folded or staged the payload, the Coordinator for a
//! report it does not forward. So the next upload of 16 KiB or more is
//! read off a socket, or encoded by an in-memory device, into a buffer
//! already allocated and faulted in, over its last frame's bytes rather
//! than zeroes, and the shard adds an Identity update into its sum from
//! those bytes without a decoded copy. Those report frames are
//! the only frames behind the front door: the Coordinator, the Master
//! and its shards are one process, and the round's close is one typed
//! [`MasterMsg::Finalize`] answered by one [`CoordMsg::Merged`] message
//! (each shard answers the Master's `Close` the same way), so no handler
//! blocks on another actor. A future multi-process split would frame
//! that hop together with the transport that carries it.
//!
//! This module is deliberately thin: all protocol decisions live in the
//! deterministic state machines — the report ledger in the round, the
//! fold in the Master Aggregator's shards; actors only move messages,
//! time and telemetry.

use crate::aggregator::{ForwardedReport, MasterAggregatorActor, MasterMsg, MergeOutcome};
use crate::coordinator::{
    report_between_rounds, ActiveRound, Coordinator, CoordinatorConfig, ReportVerdict,
};
use crate::round::CheckinResponse;
use crate::selector::{CheckinDecision, Selector};
use crate::storage::{CheckpointStore, InMemoryCheckpointStore};
use crossbeam::channel::Sender;
use fl_actors::{Actor, ActorRef, Context, Flow, Lease, LockingService, Reply};
use fl_analytics::overload::OverloadMetrics;
use fl_core::plan::FlPlan;
use fl_core::population::TaskGroup;
use fl_core::{CoreError, DeviceId, PopulationName, RoundId, RoundOutcome};
use fl_wire::{
    encode_plan_and_checkpoint_into, encode_plan_digest_and_checkpoint_into, ChannelTransport,
    Transport, WireError, WireMessage, WireSink, WireStats,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Overload telemetry shared between the live Selector actors and
/// whatever reads it (dashboards, tests): accepts, sheds, evictions, and
/// retries recorded straight from the `Checkin` path.
pub type SharedOverloadMetrics = Arc<fl_race::Mutex<OverloadMetrics>>;

/// Telemetry is recorded after each admission decision completes, with
/// no other site held — a leaf lock (rank table in DESIGN.md §7).
pub(crate) const OVERLOAD_METRICS: fl_race::Site =
    fl_race::Site::new("server/live.overload_metrics", 60);

/// Messages understood by the [`CoordinatorActor`].
///
/// Device-facing replies are no longer an ad-hoc enum: the server
/// answers through the connection's [`WireSink`] with framed
/// [`WireMessage`]s ([`WireMessage::PlanAndCheckpoint`],
/// [`WireMessage::ReportAck`], [`WireMessage::ComeBackLater`]) — the
/// single protocol surface defined by `fl-wire`.
#[derive(Debug)]
pub enum CoordMsg {
    /// A selector forwards an accepted device together with its
    /// connection, already stripped of the check-in frame.
    DeviceForwarded {
        /// The device.
        device: DeviceId,
        /// The device's connection, for configuration/ack replies.
        conn: WireSink,
    },
    /// A framed [`WireMessage::UpdateReport`] (clear bytes) or
    /// [`WireMessage::SecAggReport`] (fixed-point masked contribution)
    /// arrived on a device connection.
    Report {
        /// The encoded frame.
        frame: Vec<u8>,
        /// The device's connection, for the [`WireMessage::ReportAck`].
        conn: WireSink,
    },
    /// A selected device's connection died mid-round at the given SecAgg
    /// protocol stage (Sec. 6). In production the Selector's connection
    /// watchdog reports this; tests script it. The round records the
    /// dropout stage so finalize can exclude (advertise) or
    /// mask-reconstruct (share) the device per shard.
    DeviceDropped {
        /// The vanished device.
        device: DeviceId,
        /// How far through the SecAgg protocol it got.
        stage: crate::aggregator::DropStage,
    },
    /// Census update: how many devices the population is believed to
    /// have. Sizes the pace-steering horizon for `NotSelecting` rejects.
    SetPopulationEstimate(u64),
    /// Close the current round once it has finished (at once if it has)
    /// and reply with its outcome.
    TryCompleteRound {
        /// Outcome reply channel (None = the round's commit failed).
        reply: Sender<Option<RoundOutcome>>,
    },
    /// The round's Master Aggregator answers its [`MasterMsg::Finalize`]:
    /// the merged aggregate, or why there is none. Until it arrives the
    /// Coordinator holds every other message, in arrival order, and
    /// replays them after the commit.
    Merged(Result<MergeOutcome, CoreError>),
    /// Stop the actor.
    Shutdown,
}

/// A round's Configuration as the Coordinator keeps it: plan, checkpoint
/// and population are the same for every participant, so each frame is
/// encoded once a round, on first use by a link that is sent it, and
/// those bytes go to every such link. Empty until then and again once the
/// round completes.
#[derive(Debug, Default)]
struct Configuration {
    /// The slim frame, the plan named by its digest: what a TCP
    /// connection that carried the plan before is sent.
    slim: Arc<Vec<u8>>,
    /// The full [`WireMessage::PlanAndCheckpoint`] frame, which an
    /// in-memory link queues a reference to.
    full: Arc<Vec<u8>>,
}

impl Configuration {
    /// Empties both frames at round end. A buffer the round used is kept
    /// for the next round, unless a device still holds it, and one it did
    /// not use is let go: a warm TCP connection is sent only slim frames,
    /// so the full one (plan and checkpoint, 2.1 MB on `round_plain_tcp`)
    /// is not held for nothing.
    fn clear(&mut self) {
        for frame in [&mut self.slim, &mut self.full] {
            match Arc::get_mut(frame) {
                Some(bytes) if !bytes.is_empty() => bytes.clear(),
                Some(unused) => *unused = Vec::new(),
                None => *frame = Arc::default(),
            }
        }
    }
}

/// `frame`, written by `encode` first if it is empty.
fn encoded(
    frame: &mut Arc<Vec<u8>>,
    encode: impl FnOnce(&mut Vec<u8>) -> Result<usize, WireError>,
) -> Result<Arc<Vec<u8>>, WireError> {
    if frame.is_empty() {
        encode(Arc::make_mut(frame))?;
    }
    Ok(Arc::clone(frame))
}

/// The Coordinator as an actor: wraps the deterministic state machine,
/// stamping messages with the actor system's clock
/// ([`Context::now_ms`]). Generic over the checkpoint
/// store so a respawned incarnation can reattach to the storage layer
/// that survived its predecessor (see
/// [`crate::storage::SharedCheckpointStore`]).
pub struct CoordinatorActor<S: CheckpointStore + Send + 'static = InMemoryCheckpointStore> {
    coordinator: Coordinator<S>,
    active: Option<ActiveRound>,
    /// The in-flight round's aggregation tree: a
    /// [`MasterAggregatorActor`] child (named `master-r<N>`) whose own
    /// `AggregatorActor` children hold the shard sums. `None` between
    /// rounds and for evaluation tasks.
    master: Option<ActorRef<MasterMsg>>,
    /// Shared overload telemetry; SecAgg per-shard aborts observed at
    /// finalize are recorded here alongside the Selector layer's
    /// accept/shed counters.
    telemetry: Option<SharedOverloadMetrics>,
    /// The connection of every device selected into the current round,
    /// for its Configuration. Cleared at round completion: a held sink
    /// pins the device's channel.
    device_replies: std::collections::HashMap<DeviceId, WireSink>,
    /// The current round's Configuration frames (see
    /// [`Configuration`]).
    configuration: Configuration,
    /// The [`fl_wire::plan_digest`] of every plan this Coordinator has
    /// sent, so each is computed once per plan, not once per round.
    plan_digests: Vec<(FlPlan, u64)>,
    /// `TryCompleteRound` replies waiting for the current round to finish.
    waiting: Vec<Sender<Option<RoundOutcome>>>,
    /// The finished round whose merge is out; `master` stays set until
    /// its [`CoordMsg::Merged`] arrives.
    merging: Option<ActiveRound>,
    /// Messages that arrived while `merging`, in arrival order.
    held: VecDeque<CoordMsg>,
    lease: Lease,
    locks: LockingService<String>,
    /// Pace steering for devices that arrive while no round is selecting:
    /// a `NotSelecting` reject must carry a real reconnect suggestion
    /// (aimed at the next selection-period tick), not a magic constant
    /// that defeats Sec. 2.3's flow control.
    pace: crate::pace::PaceSteering,
    pace_rng: rand::rngs::StdRng,
    population_estimate: u64,
}

impl<S: CheckpointStore + Send + 'static> std::fmt::Debug for CoordinatorActor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinatorActor")
            .field("coordinator", &self.coordinator)
            .field("lease", &self.lease)
            .finish_non_exhaustive()
    }
}

/// The locking-service name under which a population's coordinator
/// registers (Sec. 4.2).
pub fn coordinator_lease_name(population: &PopulationName) -> String {
    format!("coordinator/{population}")
}

impl CoordinatorActor<InMemoryCheckpointStore> {
    /// Creates the actor, deploying the task group, and registers it in
    /// the locking service.
    ///
    /// # Panics
    ///
    /// Panics if the population is already registered (exactly-once
    /// ownership violated) or the initial checkpoint write fails.
    pub fn new(
        config: CoordinatorConfig,
        group: TaskGroup,
        plans: Vec<FlPlan>,
        initial_params: Vec<f32>,
        locks: LockingService<String>,
    ) -> Self {
        let lease_name = coordinator_lease_name(&config.population);
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: double ownership of a population breaks the \
                      exactly-once guarantee (Sec. 4.2) and must fail loudly at wiring time, \
                      before any device traffic exists"
        )]
        let lease = locks
            .acquire(lease_name.clone(), lease_name)
            .expect("population already owned by another coordinator");
        Self::with_store(
            config,
            group,
            plans,
            initial_params,
            locks,
            lease,
            InMemoryCheckpointStore::new(),
        )
    }
}

impl<S: CheckpointStore + Send + 'static> CoordinatorActor<S> {
    /// Creates the actor over an explicit store and an *already-acquired*
    /// lease — the respawn path: the watcher that won re-acquisition
    /// passes the new lease plus the storage handle that survived the
    /// previous incarnation, and `deploy`'s resume-awareness picks up the
    /// committed model.
    ///
    /// # Panics
    ///
    /// Panics if the initial checkpoint write fails at wiring time.
    pub fn with_store(
        config: CoordinatorConfig,
        group: TaskGroup,
        plans: Vec<FlPlan>,
        initial_params: Vec<f32>,
        locks: LockingService<String>,
        lease: Lease,
        store: S,
    ) -> Self {
        // NotSelecting rejects rendezvous on the selection-period tick:
        // rejected devices should return together just as the next round
        // opens (small-population concentration, Sec. 2.3).
        let round = group.tasks().first().map(|t| t.round).unwrap_or_default();
        let pace = crate::pace::PaceSteering::new(
            round.selection_timeout_ms.max(1),
            (round.selection_target() as u64).max(1),
        );
        let pace_rng = fl_ml::rng::seeded(config.seed ^ 0x9ACE);
        let mut coordinator = Coordinator::new(config, store);
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: a storage failure during wiring (before any \
                      device traffic) leaves nothing to recover; fail loudly"
        )]
        coordinator
            .deploy(group, plans, initial_params)
            .expect("initial deployment failed");
        CoordinatorActor {
            coordinator,
            active: None,
            master: None,
            telemetry: None,
            device_replies: std::collections::HashMap::new(),
            configuration: Configuration::default(),
            plan_digests: Vec::new(),
            waiting: Vec::new(),
            merging: None,
            held: VecDeque::new(),
            lease,
            locks,
            pace,
            pace_rng,
            population_estimate: 0,
        }
    }

    /// The population this coordinator owns (Sec. 4.2: one Coordinator
    /// per population). Every device-facing reply it frames carries this
    /// name, and reports claiming any other population are refused.
    pub fn population(&self) -> PopulationName {
        self.coordinator.population().clone()
    }

    /// Attaches shared overload telemetry: SecAgg shard aborts observed
    /// when a round finalizes are recorded next to the Selector layer's
    /// accept/shed/evict counters.
    pub fn with_telemetry(mut self, telemetry: SharedOverloadMetrics) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    fn ensure_round(&mut self, ctx: &Context<CoordMsg>) {
        if self.active.is_none() {
            if let Ok((round, master)) = self.coordinator.begin_round(ctx.now_ms()) {
                // A training round's Master Aggregator runs as the
                // per-round subtree (Sec. 4.1: aggregation actors "scale
                // with rounds" and die with them).
                self.master = master.map(|master| {
                    let tag = format!("master-r{}", round.state.round.0);
                    ctx.spawn_child(tag, MasterAggregatorActor::new(master))
                });
                self.active = Some(round);
            }
        }
    }

    /// Closes the current round for the `TryCompleteRound` requests
    /// waiting on it, once it has finished. A training round's Master
    /// Aggregator is sent one typed [`MasterMsg::Finalize`], with the
    /// parameters the merge starts from moved out of the round (which
    /// only reads `checkpoint.round` afterwards); the commit waits for
    /// its [`CoordMsg::Merged`]. Any other round commits at once.
    fn answer_waiting(&mut self, ctx: &Context<CoordMsg>) {
        if self.waiting.is_empty() || self.merging.is_some() {
            return;
        }
        let Some(mut round) = self.active.take_if(|r| r.state.outcome().is_some()) else {
            return;
        };
        // The round's report ledger dies with it; a straggler retry from a
        // completed round names no active round and is refused. So do its
        // reply routes (every entry was inserted by a check-in this round
        // selected) and its Configuration frames (`Configuration::clear`).
        self.device_replies.clear();
        self.configuration.clear();
        round.record_participation_metrics();
        let dead = || CoreError::InvariantViolated("master aggregator died mid-round".into());
        let aggregate = match self.master.take() {
            Some(master) if round.commits_training() => {
                // A Coordinator no reference is left to cannot be
                // answered: its round is lost like a dead Master's.
                let Some(me) = ctx.self_ref() else {
                    return self.commit(round, Some(Err(dead())), ctx);
                };
                // A dead Master refuses the `Finalize`, or drops it with
                // its mailbox; either way the reply answers `Merged(Err)`.
                let _ = master.send(MasterMsg::Finalize {
                    current_params: round.checkpoint.take_params(),
                    // One report frame was forwarded per accepted report.
                    expected_contributors: round.state.counters().0 as u64,
                    advertise_dropouts: round.advertise_dropouts().to_vec(),
                    share_dropouts: round.share_dropouts().to_vec(),
                    reply: Reply::new(me, CoordMsg::Merged(Err(dead()))),
                });
                // Kept until `Merged`: dropped now, it would close the
                // Master's mailbox under its shards' answers.
                self.master = Some(master);
                self.merging = Some(round);
                return;
            }
            // Nothing to merge: the subtree tears itself down with the
            // abandoned round.
            Some(master) => {
                let _ = master.send(MasterMsg::Abort);
                None
            }
            None => None,
        };
        self.commit(round, aggregate, ctx);
    }

    /// Commits a closed round (a master that died mid-round surfaces as
    /// an error: the round is lost, nothing reaches storage, and the next
    /// round restarts from the committed checkpoint — Sec. 4.2's Master
    /// Aggregator loss semantics) and answers every waiting request.
    fn commit(
        &mut self,
        round: ActiveRound,
        aggregate: Option<Result<MergeOutcome, CoreError>>,
        ctx: &Context<CoordMsg>,
    ) {
        // Per-shard SecAgg aborts are telemetry, not round failures: the
        // commit proceeds from the surviving shards and the aborts are
        // counted.
        if let (Some(Ok(merged)), Some(telemetry)) = (&aggregate, &self.telemetry) {
            if merged.shard_aborts > 0 {
                let now = ctx.now_ms();
                let mut metrics = telemetry.lock();
                for _ in 0..merged.shard_aborts {
                    metrics.record_secagg_abort(now);
                }
            }
        }
        let outcome = self.coordinator.complete_round(round, aggregate).ok();
        for reply in self.waiting.drain(..) {
            let _ = reply.send(outcome);
        }
    }

    /// Sends the round's Configuration download — the framed
    /// [`WireMessage::PlanAndCheckpoint`] — to `only` that participant
    /// (a re-send) or to all of them, if the round is in Reporting. There
    /// are two frames, the full one and the slim one (protocol v6: the plan
    /// named by its digest, which is computed once per plan), and
    /// [`WireSink::send_configuration`] picks the one a link is sent: the
    /// slim one to a TCP connection that carried the plan before, the full
    /// one to any other. Each is encoded in a round on its first use, into
    /// a buffer the Coordinator keeps, and the same bytes go to every link
    /// that is sent it and to every re-send.
    ///
    /// The writes take turns across connections ([`WireSink::link`]):
    /// every connection is sent the download of its k-th participant, in
    /// device-id order, before any is sent that of its (k+1)-th. A write
    /// holds this thread until the connection has taken the bytes, and a
    /// megabyte download outruns a socket's buffer; so where a gateway
    /// multiplexes devices on one TCP connection, device-id order made the
    /// devices of every other connection wait for all of the first one's
    /// downloads before their first, and then their round waited for them.
    /// With one connection per participant the order is device-id order.
    /// The writes stay on this thread: a writer thread per connection read
    /// +6 % `rounds_per_s` on `round_plain_tcp` for +23 % peak RSS (52 to
    /// 64 MB), and was not kept.
    fn send_configuration(&mut self, only: Option<DeviceId>) {
        let Some(round) = &self.active else { return };
        if round.state.phase() != crate::round::Phase::Reporting {
            return;
        }
        let population = self.coordinator.population();
        let config = &mut self.configuration;
        let mut turns: HashMap<usize, usize> = HashMap::new();
        let mut sends: Vec<(usize, &WireSink)> = only
            .map_or_else(|| round.state.participants(), |device| vec![device])
            .iter()
            .filter_map(|device| self.device_replies.get(device))
            .map(|conn| {
                let turn = turns.entry(conn.link()).or_default();
                *turn += 1;
                (*turn, conn)
            })
            .collect();
        // A stable sort: within a turn, device-id order.
        sends.sort_by_key(|&(turn, _)| turn);
        let digest = match self
            .plan_digests
            .iter()
            .find(|(plan, _)| *plan == round.plan)
        {
            Some(&(_, digest)) => digest,
            None => {
                let digest = fl_wire::plan_digest(&round.plan);
                self.plan_digests.push((round.plan.clone(), digest));
                digest
            }
        };
        // A frame is empty only until its first use in the round, and no
        // link holds it then (see `Configuration::clear`), so each encodes
        // in place. The only encode failure is an over-long population
        // name; no link is then sent anything.
        let checkpoint = &round.checkpoint;
        for (_, conn) in sends {
            let slim = || {
                encoded(&mut config.slim, |out| {
                    encode_plan_digest_and_checkpoint_into(digest, checkpoint, population, out)
                })
            };
            let full = || {
                encoded(&mut config.full, |out| {
                    encode_plan_and_checkpoint_into(&round.plan, checkpoint, population, out)
                })
            };
            let _ = conn.send_configuration(digest, slim, full);
        }
    }

    /// One message, with no merge out.
    fn dispatch(&mut self, msg: CoordMsg, ctx: &Context<CoordMsg>) -> Flow {
        match msg {
            CoordMsg::DeviceForwarded { device, conn } => {
                self.ensure_round(ctx);
                let now = ctx.now_ms();
                if let Some(round) = &mut self.active {
                    let was_selecting = round.state.phase() == crate::round::Phase::Selection;
                    match round.on_checkin(device, now) {
                        CheckinResponse::Selected => {
                            self.device_replies.insert(device, conn);
                            if was_selecting {
                                self.send_configuration(None);
                            }
                        }
                        CheckinResponse::AlreadySelected => {
                            // A retrying participant keeps its slot; route
                            // replies to its fresh connection and re-send
                            // the configuration if the round already has
                            // one.
                            self.device_replies.insert(device, conn);
                            self.send_configuration(Some(device));
                        }
                        CheckinResponse::NotSelecting => {
                            // Pace-steered rejection: suggest the next
                            // selection-period rendezvous (or a spread
                            // window for large populations) instead of a
                            // fixed 1-second hammer interval.
                            let retry_at_ms = self.pace.suggest_reconnect(
                                now,
                                self.population_estimate,
                                1.0,
                                &mut self.pace_rng,
                            );
                            let _ = conn.send(&WireMessage::ComeBackLater {
                                retry_at_ms,
                                population: self.coordinator.population().clone(),
                            });
                        }
                    }
                }
            }
            CoordMsg::Report { frame, conn } => {
                // The round decides (`ActiveRound::on_report`); this
                // records the verdict and moves an accepted frame on to
                // the Master Aggregator subtree. Any other frame goes back
                // to the wire's spare buffers.
                let now = ctx.now_ms();
                let (ack, verdict) = match &mut self.active {
                    Some(round) => round.on_report(now, &frame),
                    None => report_between_rounds(&frame, self.coordinator.population()),
                };
                let counter: Option<fn(&mut OverloadMetrics, u64)> = match verdict {
                    ReportVerdict::Forward(_) => None,
                    ReportVerdict::Replayed => Some(OverloadMetrics::record_duplicate_report),
                    ReportVerdict::Rejected => Some(OverloadMetrics::record_rejected_report),
                    ReportVerdict::Unreadable => Some(OverloadMetrics::record_corrupt_frame),
                };
                if let (Some(count), Some(telemetry)) = (counter, &self.telemetry) {
                    count(&mut telemetry.lock(), now);
                }
                match (verdict, &self.master) {
                    (ReportVerdict::Forward(route), Some(master)) => {
                        let _ = master.send(MasterMsg::Update(ForwardedReport { route, frame }));
                    }
                    _ => fl_wire::recycle(frame),
                }
                let _ = conn.send(&ack);
            }
            CoordMsg::DeviceDropped { device, stage } => {
                let now = ctx.now_ms();
                if let Some(round) = &mut self.active {
                    round.on_dropout_staged(device, now, stage);
                }
            }
            CoordMsg::SetPopulationEstimate(estimate) => self.population_estimate = estimate,
            CoordMsg::TryCompleteRound { reply } => self.waiting.push(reply),
            // No merge is out: nothing asked for this one.
            CoordMsg::Merged(_) => {}
            CoordMsg::Shutdown => {
                // Dropping the handle reaps the subtree anyway; an explicit
                // Abort just makes the teardown prompt.
                if let Some(master) = self.master.take() {
                    let _ = master.send(MasterMsg::Abort);
                }
                return Flow::Stop;
            }
        }
        self.answer_waiting(ctx);
        Flow::Continue
    }
}

impl<S: CheckpointStore + Send + 'static> Actor for CoordinatorActor<S> {
    type Msg = CoordMsg;

    fn handle(&mut self, msg: CoordMsg, ctx: &mut Context<CoordMsg>) -> Flow {
        if self.merging.is_none() {
            return self.dispatch(msg, ctx);
        }
        // A merge is out. Everything else waits, in arrival order, until
        // its commit, as it waited in the mailbox while the close blocked.
        // Pipelining the next round's Selection (ROADMAP 11(a)) would let
        // check-ins through instead.
        match msg {
            CoordMsg::Merged(merged) => {
                if let Some(round) = self.merging.take() {
                    self.master = None;
                    self.commit(round, Some(merged), ctx);
                }
            }
            other => {
                self.held.push_back(other);
                return Flow::Continue;
            }
        }
        while self.merging.is_none() {
            let Some(msg) = self.held.pop_front() else {
                break;
            };
            if self.dispatch(msg, ctx) == Flow::Stop {
                return Flow::Stop;
            }
        }
        Flow::Continue
    }

    /// The round's next timeout, on the system's clock its times are
    /// stamped with.
    fn deadline(&self) -> Option<u64> {
        self.active.as_ref()?.state.next_deadline()
    }

    /// The timeout is due: a selection window that ends with enough
    /// devices configures them, and any other ends the round.
    fn on_deadline(&mut self, ctx: &mut Context<CoordMsg>) -> Flow {
        let now = ctx.now_ms();
        if let Some(round) = &mut self.active {
            let before = round.state.phase();
            round.on_tick(now);
            if before == crate::round::Phase::Selection
                && round.state.phase() == crate::round::Phase::Reporting
            {
                self.send_configuration(None);
            }
        }
        self.answer_waiting(ctx);
        Flow::Continue
    }

    fn on_stop(&mut self) {
        // Release population ownership so a successor can acquire it.
        // Fenced: a zombie incarnation stopping late cannot evict a
        // successor that re-acquired the name at a higher epoch.
        self.locks.release(&self.lease);
    }
}

/// Messages understood by the [`SelectorActor`].
#[derive(Debug)]
pub enum SelectorMsg {
    /// A framed [`WireMessage::CheckinRequest`] arrived on a device
    /// connection. The gateway that owns the socket routes the raw frame
    /// here by [`fl_wire::peek_tag`]; the selector decodes it and answers
    /// through `conn` with [`WireMessage::Shed`] /
    /// [`WireMessage::ComeBackLater`], or forwards the accepted device to
    /// the Coordinator.
    Checkin {
        /// The encoded check-in frame.
        frame: Vec<u8>,
        /// The device's connection, for replies.
        conn: WireSink,
    },
    /// Retarget one population's route at a (respawned) coordinator.
    /// Sec. 4.4: after the Selector layer respawns a dead Coordinator,
    /// that population's traffic must flow to the replacement, not the
    /// corpse — and the selector must be re-briefed, not left with pacing
    /// state from the dead incarnation: the replacement's first
    /// quota/census instructions ride along instead of waiting for the
    /// next periodic update. Every other population's route is untouched.
    Rewire {
        /// The population the replacement owns.
        population: PopulationName,
        /// The replacement coordinator.
        coordinator: ActorRef<CoordMsg>,
        /// The replacement's current held-connection quota for
        /// `population` on this selector.
        quota: usize,
        /// The replacement's current population-size estimate.
        population_estimate: u64,
    },
    /// Stop the actor.
    Shutdown,
}

/// A Selector as an actor: applies admission control, quota, and pace
/// steering, forwards accepted devices to the owning population's
/// Coordinator, and streams accept/shed/evict telemetry into shared
/// [`OverloadMetrics`].
///
/// Multi-tenancy (Sec. 2.1): check-ins are demultiplexed by the
/// [`PopulationName`] carried in every `CheckinRequest` and forwarded
/// to the Coordinator that owns the population. The routing table and
/// the [`Selector`]'s registered populations are the same set by
/// construction, so an accepted device always has a route; a name
/// nobody registered is told to come back later.
pub struct SelectorActor {
    selector: Selector,
    /// The owning Coordinator of every population `selector` serves.
    routes: BTreeMap<PopulationName, ActorRef<CoordMsg>>,
    telemetry: Option<SharedOverloadMetrics>,
}

impl std::fmt::Debug for SelectorActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectorActor")
            .field("selector", &self.selector)
            .finish_non_exhaustive()
    }
}

impl SelectorActor {
    /// Creates the actor, routing every population already registered on
    /// `selector` to `coordinator`.
    pub fn new(selector: Selector, coordinator: ActorRef<CoordMsg>) -> Self {
        let routes = selector
            .populations()
            .map(|population| (population.clone(), coordinator.clone()))
            .collect();
        SelectorActor {
            selector,
            routes,
            telemetry: None,
        }
    }

    /// Attaches shared overload telemetry: every check-in decision is
    /// recorded into the metrics from inside the `Checkin` path.
    pub fn with_telemetry(mut self, telemetry: SharedOverloadMetrics) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Registers `population` (or replaces its registration): accepted
    /// devices are forwarded to `coordinator`, with the population held
    /// against `quota` slots of this selector.
    pub fn with_route(
        mut self,
        population: PopulationName,
        coordinator: ActorRef<CoordMsg>,
        quota: usize,
    ) -> Self {
        self.selector
            .set_population_quota(population.clone(), quota);
        self.routes.insert(population, coordinator);
        self
    }
}

impl Actor for SelectorActor {
    type Msg = SelectorMsg;

    fn handle(&mut self, msg: SelectorMsg, ctx: &mut Context<SelectorMsg>) -> Flow {
        match msg {
            SelectorMsg::Checkin { frame, conn } => {
                // A frame that is not a well-formed `CheckinRequest`
                // (garbage, version skew, stream desync) is dropped
                // silently: the peer is not speaking the protocol, so no
                // protocol-level reply applies.
                let Ok(WireMessage::CheckinRequest { device, population }) =
                    fl_wire::decode(&frame)
                else {
                    return Flow::Continue;
                };
                let now = ctx.now_ms();
                // `None`: nobody registered this name. The Selector
                // refuses it below; it has no series to charge either,
                // so a peer cannot mint telemetry rows by inventing names.
                let route = self.routes.get(&population);
                let evicted_before = self.selector.evicted_total();
                let decision = self.selector.on_checkin_for(&population, device, now, 1.0);
                if let (Some(telemetry), Some(_)) = (&self.telemetry, route) {
                    let mut metrics = telemetry.lock();
                    for _ in evicted_before..self.selector.evicted_total() {
                        metrics.record_evict(now);
                    }
                    match decision {
                        CheckinDecision::Accept => metrics.record_accept_for(&population, now),
                        CheckinDecision::Shed { .. } => {
                            metrics.record_shed_for(&population, now);
                            metrics.record_retry_for(&population, now);
                        }
                        // Every rejection sends the device into its
                        // retry discipline.
                        CheckinDecision::Reject { .. } => {
                            metrics.record_retry_for(&population, now);
                        }
                    }
                }
                // Admission-control sheds and ordinary pacing rejects are
                // distinct wire messages: a `Shed` tells the device the
                // server is over capacity (Sec. 5's load shedding), a
                // `ComeBackLater` is routine pace steering. Both echo the
                // population so the device's per-population retry budget
                // absorbs the backoff.
                match decision {
                    CheckinDecision::Accept => {
                        // Forward to the owning population's Coordinator;
                        // the selector releases the device from its own
                        // set.
                        self.selector.on_disconnect(device);
                        if let Some(route) = route {
                            let _ = route.send(CoordMsg::DeviceForwarded { device, conn });
                        }
                    }
                    CheckinDecision::Shed { retry_at_ms, .. } => {
                        let _ = conn.send(&WireMessage::Shed {
                            retry_at_ms,
                            population,
                        });
                    }
                    CheckinDecision::Reject { retry_at_ms } => {
                        let _ = conn.send(&WireMessage::ComeBackLater {
                            retry_at_ms,
                            population,
                        });
                    }
                }
                Flow::Continue
            }
            SelectorMsg::Rewire {
                population,
                coordinator,
                quota,
                population_estimate,
            } => {
                self.selector
                    .set_population_quota(population.clone(), quota);
                self.routes.insert(population, coordinator);
                self.selector.set_population_estimate(population_estimate);
                Flow::Continue
            }
            SelectorMsg::Shutdown => Flow::Stop,
        }
    }
}

/// An in-memory device connection to the live topology: the client half
/// of a [`ChannelTransport`] pair plus the gateway half whose inbound
/// frames the caller pumps into the Selector/Coordinator mailboxes. The
/// client half is a parameter so a harness can splice a lossy network in
/// front of it ([`DeviceConn::connect_through`] with a
/// [`fl_wire::FaultyTransport`]).
///
/// This is the same shape as the TCP front door in
/// `examples/live_server.rs` — one connection, framed [`WireMessage`]s
/// in both directions, inbound frames routed to an actor by
/// [`fl_wire::peek_tag`] — with the per-connection gateway thread
/// collapsed into the device's own thread (the pump runs opportunistically
/// inside [`DeviceConn::recv`]).
pub struct DeviceConn<T: Transport = ChannelTransport> {
    device: DeviceId,
    /// Population this connection checks in under and stamps on every
    /// report (the multi-tenant wire contract).
    population: PopulationName,
    client: T,
    gateway: ChannelTransport,
    selector: ActorRef<SelectorMsg>,
    coordinator: ActorRef<CoordMsg>,
}

impl<T: Transport> std::fmt::Debug for DeviceConn<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceConn")
            .field("device", &self.device)
            .finish_non_exhaustive()
    }
}

impl DeviceConn {
    /// Opens an in-memory connection from `device` to the given selector,
    /// with update reports routed to `coordinator`. The connection checks
    /// in under `population` and stamps it on every report.
    pub fn connect(
        device: DeviceId,
        population: impl Into<PopulationName>,
        selector: ActorRef<SelectorMsg>,
        coordinator: ActorRef<CoordMsg>,
    ) -> Self {
        DeviceConn::connect_through(device, population, selector, coordinator, |client| client)
    }
}

impl<T: Transport> DeviceConn<T> {
    /// [`DeviceConn::connect`] with the client half of the channel pair
    /// wrapped by `wrap` — where a lossy network would sit.
    pub fn connect_through(
        device: DeviceId,
        population: impl Into<PopulationName>,
        selector: ActorRef<SelectorMsg>,
        coordinator: ActorRef<CoordMsg>,
        wrap: impl FnOnce(ChannelTransport) -> T,
    ) -> Self {
        let (client, gateway) = ChannelTransport::pair();
        DeviceConn {
            device,
            population: population.into(),
            client: wrap(client),
            gateway,
            selector,
            coordinator,
        }
    }

    /// The client half, for what only its own type offers (a
    /// [`fl_wire::FaultyTransport`]'s fault ledger).
    pub fn client(&self) -> &T {
        &self.client
    }

    /// Routes every frame the device has sent so far into the right
    /// server mailbox — the gateway role a per-connection thread plays in
    /// the TCP front door.
    fn pump(&self) -> Result<(), WireError> {
        while let Some(frame) = self.gateway.try_recv_frame()? {
            let target_ok = match fl_wire::peek_tag(&frame) {
                Ok(fl_wire::tag::UPDATE_REPORT | fl_wire::tag::SECAGG_REPORT) => self
                    .coordinator
                    .send(CoordMsg::Report {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
                // Everything else goes to the selector, which drops
                // non-check-in frames silently — same policy as the TCP
                // gateway, so garbage cannot crash the connection.
                Ok(_) => self
                    .selector
                    .send(SelectorMsg::Checkin {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
                Err(_) => true, // unframeable junk: drop it
            };
            if !target_ok {
                return Err(WireError::Closed);
            }
        }
        Ok(())
    }

    /// Sends one message from the device and routes it to its mailbox.
    pub fn send(&self, msg: &WireMessage) -> Result<(), WireError> {
        self.client.send(msg)?;
        self.pump()
    }

    /// Sends a [`WireMessage::CheckinRequest`] for this device under its
    /// population.
    pub fn check_in(&self) -> Result<(), WireError> {
        self.send(&WireMessage::CheckinRequest {
            device: self.device,
            population: self.population.clone(),
        })
    }

    /// Sends a [`WireMessage::UpdateReport`] with the given payload
    /// under the `(round, attempt)` at-most-once key — a retry of the
    /// same upload must pass the same key to get the original ack
    /// replayed instead of a second evaluation.
    pub fn report(
        &self,
        round: RoundId,
        attempt: u32,
        update_bytes: Vec<u8>,
        weight: u64,
        loss: f64,
        accuracy: f64,
    ) -> Result<(), WireError> {
        self.send(&WireMessage::UpdateReport {
            device: self.device,
            round,
            attempt,
            update_bytes,
            weight,
            loss,
            accuracy,
            population: self.population.clone(),
        })
    }

    /// Sends a [`WireMessage::SecAggReport`] carrying this device's
    /// masked field-element vector — the SecAgg analogue of [`Self::report`],
    /// paying the 8-bytes-per-coordinate wire premium.
    pub fn report_secagg(
        &self,
        round: RoundId,
        attempt: u32,
        field_vector: Vec<u64>,
        weight: u64,
        loss: f64,
        accuracy: f64,
    ) -> Result<(), WireError> {
        self.send(&WireMessage::SecAggReport {
            device: self.device,
            round,
            attempt,
            field_vector,
            weight,
            loss,
            accuracy,
            population: self.population.clone(),
        })
    }

    /// Receives the next server reply, pumping any not-yet-routed
    /// outbound frames first.
    pub fn recv(&self, timeout: Duration) -> Result<WireMessage, WireError> {
        self.pump()?;
        self.client.recv_timeout(timeout)
    }

    /// Bytes-on-wire counters for the device end of this connection.
    pub fn stats(&self) -> WireStats {
        self.client.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pace::PaceSteering;
    use crate::topology::{
        complete_round, spawn_multi_topology, CompletionError, SelectorSpec, TopologyBlueprint,
    };
    use fl_actors::{ActorSystem, DeathReason, FaultAction, ScriptedFaults};
    use fl_core::plan::{CodecSpec, ModelSpec};
    use fl_core::population::{FlTask, TaskSelectionStrategy};
    use fl_core::round::RoundConfig;
    use std::time::Duration;

    /// Bound on every wait for a round's outcome: a round that cannot
    /// finish fails its test instead of hanging it.
    const WAIT: Duration = Duration::from_secs(10);

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
            selection_timeout_ms: 5_000,
            report_window_ms: 10_000,
            device_cap_ms: 10_000,
        }
    }

    #[test]
    fn live_round_commits_over_real_threads() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop").with_round(quick_round(4));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
            PaceSteering::new(1_000, 10),
            100,
            1,
            10,
        )]);
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop")].clone();
        let selector_refs = topology.selectors;
        assert!(locks.lookup("coordinator/pop").is_some());

        // Four device clients, each on its own thread, each speaking the
        // framed wire protocol over an in-memory transport.
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let sel = selector_refs[0].clone();
                let coord = coord_ref.clone();
                std::thread::spawn(move || {
                    let conn = DeviceConn::connect(DeviceId(i), "pop", sel, coord);
                    conn.check_in().unwrap();
                    // Wait to be configured.
                    loop {
                        match conn.recv(Duration::from_secs(5)).unwrap() {
                            WireMessage::PlanAndCheckpoint {
                                plan, checkpoint, ..
                            } => {
                                let dim = plan.server.expected_dim;
                                assert_eq!(checkpoint.len(), dim);
                                let round = checkpoint.round;
                                let update = vec![0.25f32; dim];
                                let bytes = CodecSpec::Identity.build().encode(&update);
                                conn.report(round, 1, bytes, 4, 0.5, 0.8).unwrap();
                            }
                            WireMessage::ReportAck { accepted, .. } => {
                                // The round trip moved real frames: the
                                // device's own counters saw both
                                // directions.
                                let stats = conn.stats();
                                assert!(stats.bytes_sent > 0);
                                assert!(stats.bytes_received > 0);
                                return accepted;
                            }
                            WireMessage::ComeBackLater { .. } | WireMessage::Shed { .. } => {
                                return false
                            }
                            other => panic!("unexpected server reply {other:?}"),
                        }
                    }
                })
            })
            .collect();

        let accepted = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(accepted, 4);

        let outcome = complete_round(&coord_ref, WAIT).unwrap();
        assert!(outcome.is_committed());

        for s in &selector_refs {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        coord_ref.send(CoordMsg::Shutdown).unwrap();
        system.join();
        // Lease released on clean shutdown.
        assert!(locks.lookup("coordinator/pop").is_none());

        // The round aggregated through an ephemeral Master Aggregator
        // subtree spawned under the coordinator, and the whole subtree
        // died normally with the round.
        let obits: Vec<_> = system.deaths().try_iter().collect();
        for name in [
            "coordinator-pop/master-r1",
            "coordinator-pop/master-r1/agg-0",
        ] {
            let obit = obits
                .iter()
                .find(|o| o.name == name)
                .unwrap_or_else(|| panic!("no obituary for {name}"));
            assert_eq!(obit.reason, DeathReason::Normal);
        }
    }

    /// Regression: a device arriving while the round is already in
    /// Reporting used to get a hardcoded `now + 1_000` retry — a 1 s
    /// hammer interval that defeats pace steering. The reject must now
    /// rendezvous on the next selection-period tick (≥ the selection
    /// timeout), so rejected devices return when a round can actually
    /// take them.
    #[test]
    fn not_selecting_reject_is_pace_steered() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop3").with_round(quick_round(1));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop3", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
            PaceSteering::new(1_000, 10),
            100,
            1,
            10,
        )]);
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop3")].clone();
        let selector_refs = topology.selectors;

        // First device fills the goal; the round enters Reporting.
        let first = DeviceConn::connect(
            DeviceId(0),
            "pop3",
            selector_refs[0].clone(),
            coord_ref.clone(),
        );
        first.check_in().unwrap();
        assert!(matches!(
            first.recv(Duration::from_secs(5)).unwrap(),
            WireMessage::PlanAndCheckpoint { .. }
        ));

        // Second device finds the round NotSelecting.
        let second = DeviceConn::connect(
            DeviceId(1),
            "pop3",
            selector_refs[0].clone(),
            coord_ref.clone(),
        );
        second.check_in().unwrap();
        match second.recv(Duration::from_secs(5)).unwrap() {
            WireMessage::ComeBackLater { retry_at_ms, .. } => {
                // quick_round(1).selection_timeout_ms == 5_000: the next
                // rendezvous tick lies at or beyond it, far beyond the old
                // `now + 1_000` constant (the test runs well inside 4 s).
                assert!(
                    retry_at_ms >= 5_000,
                    "retry {retry_at_ms} ms is not pace-steered"
                );
            }
            other => panic!("expected ComeBackLater, got {other:?}"),
        }

        for s in &selector_refs {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        coord_ref.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// The at-most-once contract: a device whose `ReportAck` was lost
    /// re-sends the *same* `(round, attempt)` key; the coordinator answers
    /// both uploads with the original accepting ack but incorporates
    /// exactly one contribution.
    #[test]
    fn retried_report_is_acked_twice_but_summed_once() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop-dedup").with_round(quick_round(1));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop-dedup", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
            PaceSteering::new(1_000, 10),
            100,
            1,
            10,
        )])
        .with_telemetry(fl_analytics::overload::OverloadMonitorConfig::default());
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop-dedup")].clone();

        let conn = DeviceConn::connect(
            DeviceId(0),
            "pop-dedup",
            topology.selectors[0].clone(),
            coord_ref.clone(),
        );
        conn.check_in().unwrap();
        let (round, dim) = loop {
            if let WireMessage::PlanAndCheckpoint {
                plan, checkpoint, ..
            } = conn.recv(Duration::from_secs(5)).unwrap()
            {
                break (checkpoint.round, plan.server.expected_dim);
            }
        };

        let update = vec![0.25f32; dim];
        let bytes = CodecSpec::Identity.build().encode(&update);
        // The upload, then its retry under the same attempt key — as a
        // device would after losing the first ack on the wire.
        conn.report(round, 1, bytes.clone(), 4, 0.5, 0.8).unwrap();
        conn.report(round, 1, bytes, 4, 0.5, 0.8).unwrap();

        let mut acks = Vec::new();
        while acks.len() < 2 {
            if let WireMessage::ReportAck {
                accepted,
                round: r,
                attempt,
                ..
            } = conn.recv(Duration::from_secs(5)).unwrap()
            {
                acks.push((accepted, r, attempt));
            }
        }
        assert_eq!(acks, vec![(true, round, 1), (true, round, 1)]);

        let outcome = complete_round(&coord_ref, WAIT).unwrap();
        match outcome {
            RoundOutcome::Committed { incorporated, .. } => assert_eq!(incorporated, 1),
            other => panic!("expected a committed round, got {other:?}"),
        }

        // The duplicate shows up as telemetry, not as accounting.
        let telemetry = topology.telemetry.clone().expect("telemetry configured");
        let dupes: f64 = telemetry.lock().dup_reports().sums().iter().sum();
        assert_eq!(dupes, 1.0);

        topology.shutdown();
        system.join();
    }

    /// A Coordinator on its own (no Selector layer): the tests below play
    /// the Selector by sending `DeviceForwarded` themselves.
    fn spawn_coordinator(
        system: &ActorSystem,
        population: &str,
        round: RoundConfig,
    ) -> ActorRef<CoordMsg> {
        spawn_coordinator_of(system, population, round, spec())
    }

    /// [`spawn_coordinator`] training a model of `model`'s size.
    fn spawn_coordinator_of(
        system: &ActorSystem,
        population: &str,
        round: RoundConfig,
        model: ModelSpec,
    ) -> ActorRef<CoordMsg> {
        let config = CoordinatorConfig::new(population, 7);
        system.spawn(
            format!("coordinator-{population}"),
            coordinator_of(config, round, model),
        )
    }

    /// A Coordinator under `config` training a model of `model`'s size.
    fn coordinator_of(
        config: CoordinatorConfig,
        round: RoundConfig,
        model: ModelSpec,
    ) -> CoordinatorActor {
        let task = FlTask::training("t", config.population.clone()).with_round(round);
        let plan = FlPlan::standard_training(model, 1, 8, 0.1, CodecSpec::Identity);
        CoordinatorActor::new(
            config,
            TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
            vec![plan],
            vec![0.0; model.num_params()],
            LockingService::new(),
        )
    }

    /// Forwards `device` over a fresh connection whose only surviving
    /// server-side handle is the sink the Coordinator keeps.
    fn forward(coordinator: &ActorRef<CoordMsg>, device: u64) -> ChannelTransport {
        let (client, gateway) = ChannelTransport::pair();
        coordinator
            .send(CoordMsg::DeviceForwarded {
                device: DeviceId(device),
                conn: gateway.sink(),
            })
            .unwrap();
        client
    }

    fn report_frame(device: u64, round: RoundId, population: &str) -> Vec<u8> {
        keyed_report_frame(device, round, 1, 0.25, population)
    }

    /// A report of `delta` on every coordinate under an explicit key.
    fn keyed_report_frame(
        device: u64,
        round: RoundId,
        attempt: u32,
        delta: f32,
        population: &str,
    ) -> Vec<u8> {
        fl_wire::encode(&WireMessage::UpdateReport {
            device: DeviceId(device),
            round,
            attempt,
            update_bytes: CodecSpec::Identity
                .build()
                .encode(&vec![delta; spec().num_params()]),
            weight: 4,
            loss: 0.5,
            accuracy: 0.8,
            population: population.into(),
        })
        .expect("test frame encodes")
    }

    /// Waits for `client`'s Configuration and returns its checkpoint.
    fn configuration(client: &ChannelTransport) -> fl_core::FlCheckpoint {
        match client.recv_timeout(Duration::from_secs(5)).unwrap() {
            WireMessage::PlanAndCheckpoint { checkpoint, .. } => *checkpoint,
            other => panic!("expected the configuration, got {other:?}"),
        }
    }

    /// Sends `frame` as a report and returns the ack's `accepted`.
    fn report(coordinator: &ActorRef<CoordMsg>, frame: Vec<u8>) -> bool {
        let (client, gateway) = ChannelTransport::pair();
        coordinator
            .send(CoordMsg::Report {
                frame,
                conn: gateway.sink(),
            })
            .unwrap();
        match client.recv_timeout(Duration::from_secs(5)).unwrap() {
            WireMessage::ReportAck { accepted, .. } => accepted,
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    /// The reply routes die with the round. A kept sink pins its
    /// device's channel open, so the device end reads "nothing yet"
    /// while the Coordinator holds it and "closed" once it let go —
    /// after a committed and after an abandoned round alike — and a
    /// retry that arrives after its round finished is still refused.
    #[test]
    fn finished_round_releases_every_reply_route() {
        let system = ActorSystem::new();
        let wait = Duration::from_secs(5);

        let committed = spawn_coordinator(&system, "pop-routes", quick_round(2));
        let clients = [forward(&committed, 0), forward(&committed, 1)];
        let mut key = RoundId(0);
        for client in &clients {
            match client.recv_timeout(wait).unwrap() {
                WireMessage::PlanAndCheckpoint { checkpoint, .. } => key = checkpoint.round,
                other => panic!("expected the configuration, got {other:?}"),
            }
        }
        for device in 0..2 {
            assert!(report(&committed, report_frame(device, key, "pop-routes")));
        }
        for client in &clients {
            assert_eq!(client.try_recv().unwrap(), None, "route dropped mid-round");
        }
        let outcome = complete_round(&committed, WAIT).unwrap();
        assert!(outcome.is_committed());
        for client in &clients {
            assert_eq!(client.recv_timeout(wait).unwrap_err(), WireError::Closed);
        }
        assert!(
            !report(&committed, report_frame(0, key, "pop-routes")),
            "a retry from a finished round was accepted"
        );

        // One of two devices shows up; selection times out.
        let short = RoundConfig {
            selection_timeout_ms: 40,
            ..quick_round(2)
        };
        let abandoned = spawn_coordinator(&system, "pop-routes-abandoned", short);
        let lonely = forward(&abandoned, 0);
        assert_eq!(lonely.try_recv().unwrap(), None);
        let outcome = complete_round(&abandoned, WAIT).unwrap();
        assert!(!outcome.is_committed());
        assert_eq!(lonely.recv_timeout(wait).unwrap_err(), WireError::Closed);

        for coordinator in [committed, abandoned] {
            coordinator.send(CoordMsg::Shutdown).unwrap();
        }
        system.join();
    }

    /// The Coordinator times its round on the system's clock. Two
    /// check-ins of the three the selection wants, and then no message at
    /// all: the selection window ends on the Coordinator's deadline, which
    /// configures both.
    #[test]
    fn selection_timeout_fires_without_a_poller() {
        let system = ActorSystem::new();
        let round = RoundConfig {
            overselection: 1.5,
            selection_timeout_ms: 40,
            ..quick_round(2)
        };
        let coordinator = spawn_coordinator(&system, "pop-self-timed", round);
        let clients = [forward(&coordinator, 0), forward(&coordinator, 1)];
        for client in &clients {
            assert_eq!(configuration(client).round, RoundId(0));
        }
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// A reporting window that ends with nobody asking closes the round:
    /// the late report is refused, and the completion request that comes
    /// afterwards is answered from the round already closed.
    #[test]
    fn reporting_window_closes_without_a_poller() {
        let system = ActorSystem::new();
        let round = RoundConfig {
            min_goal_fraction: 0.5,
            report_window_ms: 40,
            device_cap_ms: 40,
            ..quick_round(2)
        };
        let coordinator = spawn_coordinator(&system, "pop-window", round);
        let clients = [forward(&coordinator, 0), forward(&coordinator, 1)];
        for client in &clients {
            assert_eq!(configuration(client).round, RoundId(0));
        }
        assert!(report(
            &coordinator,
            report_frame(0, RoundId(0), "pop-window")
        ));
        std::thread::sleep(Duration::from_millis(400));
        assert!(
            !report(&coordinator, report_frame(1, RoundId(0), "pop-window")),
            "a report after the window was accepted"
        );
        match complete_round(&coordinator, WAIT).unwrap() {
            RoundOutcome::Committed { incorporated, .. } => assert_eq!(incorporated, 1),
            other => panic!("expected a committed round, got {other:?}"),
        }
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// A Master Aggregator that dies with reports and its `Finalize`
    /// queued behind the message that killed it fails the commit instead
    /// of wedging the Coordinator, and the next round trains from the
    /// checkpoint still committed (Sec. 4.2).
    #[test]
    fn a_dead_master_fails_its_commit_and_the_next_round_restarts() {
        let system = ActorSystem::new();
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "coordinator-pop-lost-master/master-r1",
            1,
            FaultAction::Crash,
        )));
        let coordinator = spawn_coordinator(&system, "pop-lost-master", quick_round(2));
        let clients = [forward(&coordinator, 0), forward(&coordinator, 1)];
        for client in &clients {
            assert_eq!(configuration(client).round, RoundId(0));
        }
        for device in 0..2 {
            assert!(report(
                &coordinator,
                report_frame(device, RoundId(0), "pop-lost-master")
            ));
        }
        assert_eq!(
            complete_round(&coordinator, WAIT),
            Err(CompletionError::CommitFailed)
        );
        let next = [forward(&coordinator, 0), forward(&coordinator, 1)];
        for client in &next {
            assert_eq!(configuration(client).round, RoundId(0));
        }
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// A report is keyed to the round whose Configuration the device
    /// trained on. One device, two consecutive rounds: its round-1 frame,
    /// delayed and replayed into round 2 after the device was configured
    /// again, is refused, and round 2 commits the average of the real
    /// reports only (it used to be summed into round 2 in place of the
    /// real report).
    #[test]
    fn report_keyed_to_an_earlier_round_is_refused() {
        let system = ActorSystem::new();
        let coordinator = spawn_coordinator(&system, "pop-stale", quick_round(1));

        let first = configuration(&forward(&coordinator, 0));
        let stale = keyed_report_frame(0, first.round, 1, 0.25, "pop-stale");
        assert!(report(&coordinator, stale.clone()));
        assert!(complete_round(&coordinator, WAIT).unwrap().is_committed());

        let second = configuration(&forward(&coordinator, 0));
        assert_eq!(second.round, first.round.next());
        assert!(
            !report(&coordinator, stale),
            "a round-1 report was accepted into round 2"
        );
        let real = keyed_report_frame(0, second.round, 1, 0.5, "pop-stale");
        assert!(report(&coordinator, real));
        assert!(complete_round(&coordinator, WAIT).unwrap().is_committed());

        // Each round's one update over its weight of 4, exactly:
        // 0 + 0.0625 (round 1) + 0.125 (round 2).
        let third = configuration(&forward(&coordinator, 0));
        assert_eq!(third.params(), vec![0.1875f32; spec().num_params()]);

        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// Regression: a report that arrives before Configuration — a
    /// straggler from a lost round with the same checkpoint, or its
    /// resend — while its device is checked in but not yet configured is
    /// refused without a pin. It used to be evaluated (`NotParticipant`)
    /// and pinned, so the device's genuine report after Configuration,
    /// under the same key, was replayed a rejection.
    #[test]
    fn report_before_configuration_is_refused_unpinned() {
        let system = ActorSystem::new();
        let coordinator = spawn_coordinator(&system, "pop-early", quick_round(3));
        // The first round trains from the initial checkpoint, round 0.
        let key = RoundId(0);
        let mut clients = vec![forward(&coordinator, 0)];
        assert!(
            !report(&coordinator, report_frame(0, key, "pop-early")),
            "a report from an unconfigured device was accepted"
        );
        clients.extend([forward(&coordinator, 1), forward(&coordinator, 2)]);
        for client in &clients {
            assert_eq!(configuration(client).round, key);
        }
        for device in 0..3 {
            assert!(report(&coordinator, report_frame(device, key, "pop-early")));
        }
        match complete_round(&coordinator, WAIT).unwrap() {
            RoundOutcome::Committed { incorporated, .. } => assert_eq!(incorporated, 3),
            other => panic!("expected a committed round, got {other:?}"),
        }
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// The Configuration is encoded once a round. All twenty
    /// participants, and a participant that checks in again, are sent
    /// the same bytes, and they are the bytes a per-device `encode` of
    /// the message would have produced.
    #[test]
    fn every_participant_is_sent_the_same_configuration_frame() {
        let system = ActorSystem::new();
        let wait = Duration::from_secs(5);
        let coordinator = spawn_coordinator(&system, "pop-fanout", quick_round(20));
        let mut clients: Vec<ChannelTransport> = (0..20)
            .map(|device| forward(&coordinator, device))
            .collect();
        clients.push(forward(&coordinator, 7));

        let frames: Vec<Vec<u8>> = clients
            .iter()
            .map(|client| client.recv_frame_timeout(wait).unwrap())
            .collect();
        let message = fl_wire::decode(&frames[0]).unwrap();
        assert!(matches!(message, WireMessage::PlanAndCheckpoint { .. }));
        let per_device = fl_wire::encode(&message).unwrap();
        for (i, frame) in frames.iter().enumerate() {
            assert!(*frame == per_device, "participant {i} got different bytes");
        }

        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// `links` loopback TCP connections: the device end and the gateway end
    /// of each.
    fn tcp_links(links: usize) -> (Vec<fl_wire::TcpTransport>, Vec<fl_wire::TcpTransport>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        (0..links)
            .map(|_| {
                let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let gateway = listener.accept().unwrap().0;
                (
                    fl_wire::TcpTransport::new(client).unwrap(),
                    fl_wire::TcpTransport::new(gateway).unwrap(),
                )
            })
            .unzip()
    }

    /// Forwards each `(device, link)` of `forwarded`, in that order, over
    /// loopback TCP links to a Coordinator whose round configures exactly
    /// those devices, then reads one whole Configuration frame off a link
    /// at a time, in `reads` order. A link's first frame carries the plan
    /// (~12 MB) and its later ones name it by digest (~6 MB, the
    /// checkpoint): even a slim frame is more than a fresh link buffers,
    /// and several are more than any link buffers, so the Coordinator's
    /// write to a link blocks until that link is read: a read of a link it
    /// is not writing to times out, and the reads complete only in an
    /// order that follows its writes. Every frame decodes, on its link, to
    /// the one Configuration.
    fn configuration_reads_complete_in(forwarded: &[(u64, usize)], reads: &[usize]) {
        let model = ModelSpec::Logistic {
            dim: 750_000,
            classes: 2,
            seed: 0,
        };
        let links = reads.iter().max().map_or(0, |last| last + 1);
        let (clients, gateways) = tcp_links(links);
        let system = ActorSystem::new();
        let coordinator =
            spawn_coordinator_of(&system, "pop-links", quick_round(forwarded.len()), model);
        for &(device, link) in forwarded {
            coordinator
                .send(CoordMsg::DeviceForwarded {
                    device: DeviceId(device),
                    conn: gateways[link].sink(),
                })
                .unwrap();
        }
        let mut slots = vec![fl_wire::PlanSlot::default(); links];
        let mut warm = vec![false; links];
        let (mut message, mut slim) = (None, None);
        for (i, &link) in reads.iter().enumerate() {
            let frame = clients[link]
                .recv_frame_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("read {i} (link {link}): {e}"));
            assert!(frame.len() > 6_000_000);
            let carries_plan = !std::mem::replace(&mut warm[link], true);
            let decoded = slots[link].decode(&frame).unwrap();
            assert!(*message.get_or_insert_with(|| decoded.clone()) == decoded);
            if carries_plan {
                assert_eq!(
                    fl_wire::peek_tag(&frame),
                    Ok(fl_wire::tag::PLAN_AND_CHECKPOINT)
                );
                assert!(frame.len() > 12_000_000);
            } else {
                assert_eq!(
                    fl_wire::peek_tag(&frame),
                    Ok(fl_wire::tag::PLAN_DIGEST_AND_CHECKPOINT)
                );
                assert!(*slim.get_or_insert_with(|| frame.clone()) == frame);
            }
        }
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    /// With one link per participant the Configuration goes out in
    /// device-id order, whatever order the devices were forwarded in.
    #[test]
    fn configuration_order_is_device_order_with_one_link_per_device() {
        configuration_reads_complete_in(&[(3, 3), (1, 1), (0, 0), (2, 2)], &[0, 1, 2, 3]);
    }

    /// Where devices share links — two connections of eight devices each,
    /// the link in a device id's high bits as a gateway's lanes number
    /// them — no link is sent its (k+1)-th Configuration before every link
    /// has its k-th: the links can be read one frame at a time, in turn.
    #[test]
    fn configuration_takes_turns_across_multiplexed_links() {
        let forwarded: Vec<(u64, usize)> = (0..2)
            .flat_map(|link| (0..8).map(move |i| ((link as u64) << 32 | i, link)))
            .collect();
        let reads: Vec<usize> = (0..16).map(|k| k % 2).collect();
        configuration_reads_complete_in(&forwarded, &reads);
    }

    /// A participant that checks in again on a connection that has its
    /// plan is sent the slim Configuration, and it decodes on that
    /// connection to the Configuration it was sent first.
    #[test]
    fn a_re_send_on_a_warm_link_names_the_plan_by_digest() {
        let (clients, gateways) = tcp_links(1);
        let system = ActorSystem::new();
        let coordinator = spawn_coordinator(&system, "pop-warm", quick_round(1));
        let mut frames = Vec::new();
        for _ in 0..2 {
            coordinator
                .send(CoordMsg::DeviceForwarded {
                    device: DeviceId(0),
                    conn: gateways[0].sink(),
                })
                .unwrap();
            frames.push(
                clients[0]
                    .recv_frame_timeout(Duration::from_secs(5))
                    .unwrap(),
            );
        }
        let tags: Vec<_> = frames
            .iter()
            .map(|frame| fl_wire::peek_tag(frame))
            .collect();
        assert_eq!(
            tags,
            [
                Ok(fl_wire::tag::PLAN_AND_CHECKPOINT),
                Ok(fl_wire::tag::PLAN_DIGEST_AND_CHECKPOINT)
            ]
        );
        assert!(frames[1].len() < frames[0].len());
        let mut slot = fl_wire::PlanSlot::default();
        let first = slot.decode(&frames[0]).unwrap();
        assert_eq!(slot.decode(&frames[1]).unwrap(), first);
        assert_eq!(first, fl_wire::decode(&frames[0]).unwrap());
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    #[test]
    fn garbage_checkin_frame_is_dropped_silently() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop4").with_round(quick_round(1));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let coordinator = CoordinatorActor::new(
            CoordinatorConfig::new("pop4", 7),
            group,
            vec![plan],
            vec![0.0; spec().num_params()],
            locks.clone(),
        );
        let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
            PaceSteering::new(1_000, 10),
            100,
            1,
            10,
        )]);
        let topology = spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
        let coord_ref = topology.coordinators[&PopulationName::new("pop4")].clone();
        let selector_refs = topology.selectors;

        // Inject raw garbage and a valid frame of the wrong type straight
        // into the selector mailbox, as a hostile or desynced gateway
        // would.
        let (client, gateway) = fl_wire::ChannelTransport::pair();
        selector_refs[0]
            .send(SelectorMsg::Checkin {
                frame: vec![0xFF, 0x00, 0xAB],
                conn: gateway.sink(),
            })
            .unwrap();
        selector_refs[0]
            .send(SelectorMsg::Checkin {
                frame: fl_wire::encode(&WireMessage::ReportAck {
                    accepted: true,
                    round: RoundId(0),
                    attempt: 0,
                    population: PopulationName::new("pop4"),
                })
                .expect("test frame encodes"),
                conn: gateway.sink(),
            })
            .unwrap();
        // Neither earns a reply...
        assert_eq!(
            client.recv_timeout(Duration::from_millis(200)).unwrap_err(),
            WireError::Timeout
        );
        // ...and the selector still serves a well-formed check-in.
        let conn = DeviceConn::connect(
            DeviceId(5),
            "pop4",
            selector_refs[0].clone(),
            coord_ref.clone(),
        );
        conn.check_in().unwrap();
        assert!(matches!(
            conn.recv(Duration::from_secs(5)).unwrap(),
            WireMessage::PlanAndCheckpoint { .. }
        ));

        for s in &selector_refs {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        coord_ref.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }

    #[test]
    fn second_coordinator_for_same_population_is_refused() {
        let locks = LockingService::new();
        let task = FlTask::training("t", "pop2").with_round(quick_round(2));
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let make = || {
            CoordinatorActor::new(
                CoordinatorConfig::new("pop2", 1),
                TaskGroup::new(vec![task.clone()], TaskSelectionStrategy::Single),
                vec![plan.clone()],
                vec![0.0; spec().num_params()],
                locks.clone(),
            )
        };
        let _first = make();
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(make));
        assert!(second.is_err(), "duplicate coordinator must be refused");
    }

    /// The workers every system holds.
    fn workers() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// A `checkin_storm`-shaped tree (four populations behind two
    /// Selectors) holds the system's W workers mid-round, with more
    /// actors alive than that, and each population commits.
    #[test]
    fn a_four_population_tree_runs_on_w_workers() {
        let system = ActorSystem::new();
        let populations = ["storm-a", "storm-b", "storm-c", "storm-d"];
        let coordinators = populations
            .iter()
            .map(|p| {
                (
                    coordinator_of(CoordinatorConfig::new(*p, 7), quick_round(2), spec()),
                    10,
                )
            })
            .collect();
        let spec_ = SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10);
        let blueprint = TopologyBlueprint::new(vec![spec_.clone(), spec_]);
        let topology = spawn_multi_topology(&system, coordinators, &blueprint);
        let refs: Vec<_> = populations
            .iter()
            .map(|p| topology.coordinators[&PopulationName::new(*p)].clone())
            .collect();
        // Mid-round: every population's Master and shard are alive too.
        let clients: Vec<_> = refs
            .iter()
            .flat_map(|c| [forward(c, 0), forward(c, 1)])
            .collect();
        for client in &clients {
            assert_eq!(configuration(client).round, RoundId(0));
        }
        assert_eq!(system.worker_threads(), workers());
        for (coordinator, population) in refs.iter().zip(populations) {
            for device in 0..2 {
                assert!(report(
                    coordinator,
                    report_frame(device, RoundId(0), population)
                ));
            }
            assert!(complete_round(coordinator, WAIT).unwrap().is_committed());
        }
        assert_eq!(system.worker_threads(), workers());
        for s in &topology.selectors {
            s.send(SelectorMsg::Shutdown).unwrap();
        }
        for c in &refs {
            c.send(CoordMsg::Shutdown).unwrap();
        }
        system.join();
    }

    /// A Master with four shards per worker finalizes and its round
    /// commits: a Master or shard that blocked its worker waiting for an
    /// answer would hold every worker and deadlock the round.
    #[test]
    fn a_master_with_four_shards_per_worker_commits() {
        let system = ActorSystem::new();
        let devices = 4 * workers();
        let mut config = CoordinatorConfig::new("pop-wide", 7);
        config.max_per_shard = 1;
        let coordinator = system.spawn(
            "coordinator-pop-wide",
            coordinator_of(config, quick_round(devices), spec()),
        );
        let clients: Vec<_> = (0..devices as u64)
            .map(|d| forward(&coordinator, d))
            .collect();
        for (device, client) in (0..).zip(&clients) {
            let key = configuration(client).round;
            assert!(report(&coordinator, report_frame(device, key, "pop-wide")));
        }
        match complete_round(&coordinator, WAIT).unwrap() {
            RoundOutcome::Committed { incorporated, .. } => assert_eq!(incorporated, devices),
            other => panic!("expected a committed round, got {other:?}"),
        }
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
        let shards = system
            .deaths()
            .try_iter()
            .filter(|o| o.name.starts_with("coordinator-pop-wide/master-r1/agg-"))
            .count();
        assert_eq!(shards, devices);
    }

    /// Holds the first round's Master at its second delivery (its
    /// `Finalize`, behind the round's one update) until the gate opens.
    struct HoldFinalize {
        reached: Sender<()>,
        gate: crossbeam::channel::Receiver<()>,
    }

    impl fl_actors::FaultInjector for HoldFinalize {
        fn on_deliver(&self, actor: &str, seq: u64) -> FaultAction {
            if actor.ends_with("/master-r1") && seq == 2 {
                let _ = self.reached.send(());
                let _ = self.gate.recv_timeout(WAIT);
            }
            FaultAction::Deliver
        }
    }

    /// Check-ins and a completion request that arrive while the round's
    /// merge is out are handled after its commit, in arrival order: the
    /// first check-in opens round 2 on the committed checkpoint and is
    /// selected, the second finds that round full, and the request waits
    /// for round 2.
    #[test]
    fn messages_that_arrive_mid_merge_are_replayed_after_the_commit() {
        let system = ActorSystem::new();
        let (reached, merging) = crossbeam::channel::unbounded();
        let (open, gate) = crossbeam::channel::unbounded();
        system.install_fault_injector(Arc::new(HoldFinalize { reached, gate }));
        let coordinator = spawn_coordinator(&system, "pop-held", quick_round(1));
        let first = forward(&coordinator, 0);
        let key = configuration(&first).round;
        assert!(report(&coordinator, report_frame(0, key, "pop-held")));
        let (reply, committed) = crossbeam::channel::unbounded();
        coordinator
            .send(CoordMsg::TryCompleteRound { reply })
            .unwrap();
        merging.recv_timeout(WAIT).unwrap();
        let (selected, turned_away) = (forward(&coordinator, 1), forward(&coordinator, 2));
        let (reply, next) = crossbeam::channel::unbounded();
        coordinator
            .send(CoordMsg::TryCompleteRound { reply })
            .unwrap();
        open.send(()).unwrap();

        assert!(committed
            .recv_timeout(WAIT)
            .unwrap()
            .unwrap()
            .is_committed());
        let checkpoint = configuration(&selected);
        assert_eq!(checkpoint.round, key.next());
        assert_eq!(checkpoint.params(), vec![0.0625f32; spec().num_params()]);
        assert!(matches!(
            turned_away.recv_timeout(WAIT).unwrap(),
            WireMessage::ComeBackLater { .. }
        ));
        assert!(
            next.try_recv().is_err(),
            "the second request was answered by round 1"
        );
        assert!(report(
            &coordinator,
            report_frame(1, checkpoint.round, "pop-held")
        ));
        assert!(next.recv_timeout(WAIT).unwrap().unwrap().is_committed());
        coordinator.send(CoordMsg::Shutdown).unwrap();
        system.join();
    }
}
