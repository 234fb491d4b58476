//! Coordinators (Sec. 4.2).
//!
//! "Coordinators are the top-level actors which enable global
//! synchronization and advancing rounds in lockstep. […] each one is
//! responsible for an FL population of devices. A Coordinator registers
//! its address and the FL population it manages in a shared locking
//! service […]. Coordinators spawn Master Aggregators to manage the rounds
//! of each FL task."
//!
//! [`Coordinator`] owns a population's deployed tasks, advances one round
//! at a time ([`ActiveRound`]) and commits fully-aggregated checkpoints
//! to storage. It is deterministic and explicitly clocked; `fl-sim` and
//! the live actors both drive it.
//!
//! The round runs, the Master Aggregator folds. [`Coordinator::begin_round`]
//! hands a training round's [`MasterAggregator`] back beside the round;
//! every report frame enters through [`ActiveRound::on_report`], which
//! admits it (population, key, at-most-once ledger), and an accepted
//! one is routed to that Master — the live tree's
//! `MasterAggregatorActor`, or the struct itself in-process.
//! [`Coordinator::complete_round`] takes the Master's merge.

use crate::aggregator::{
    check_secagg_input, AggregationPlan, DropStage, MasterAggregator, MergeOutcome, ReportRoute,
};
use crate::round::{CheckinResponse, ReportResponse, RoundState};
use crate::storage::CheckpointStore;
use fl_core::plan::FlPlan;
use fl_core::population::{TaskGroup, TaskKind};
use fl_core::{CoreError, DeviceId, FlCheckpoint, FlTask, PopulationName, RoundId};
use fl_ml::fixedpoint::FixedPointEncoder;
use fl_ml::metrics::MetricSummary;
use fl_ml::rng;
use fl_wire::{ReportPayload, ReportRef, WireError, WireMessage};
use rand::RngExt;
use std::collections::HashMap;

/// The highest upload attempt number a round evaluates; a report
/// claiming a later attempt is refused outright. An
/// `fl_device::session` reports at attempt 1 and re-sends that same key
/// after a lost ack, so no device in this tree sends a later attempt;
/// the bound is for what a peer may claim.
pub const MAX_REPORT_ATTEMPTS: u32 = 16;

/// Committed rounds whose materialized metrics a Coordinator keeps; an
/// older round's summaries are dropped as a new one commits. Callers
/// read back only the newest rounds (a test at most the last of nine),
/// so 64 leaves room to spare while a server that runs for a week holds
/// a constant 64 rounds' sketches instead of every round's.
pub const METRIC_ROUNDS: usize = 64;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The population this coordinator owns.
    pub population: PopulationName,
    /// Max devices per Aggregator shard.
    pub max_per_shard: usize,
    /// Master seed for per-round randomness.
    pub seed: u64,
}

impl CoordinatorConfig {
    /// Creates a config with the default shard capacity (256 devices).
    pub fn new(population: impl Into<PopulationName>, seed: u64) -> Self {
        CoordinatorConfig {
            population: population.into(),
            max_per_shard: 256,
            seed,
        }
    }
}

/// A deployed task: its plan and (for training tasks) custody of the
/// global model via the checkpoint store.
#[derive(Debug, Clone)]
struct Deployment {
    plan: FlPlan,
}

/// The per-population Coordinator.
pub struct Coordinator<S: CheckpointStore> {
    // Manual Debug below: `S` need not implement it.
    config: CoordinatorConfig,
    group: Option<TaskGroup>,
    deployments: HashMap<String, Deployment>,
    store: S,
    /// Global round counter across the population (drives task selection).
    round_counter: u64,
    /// Committed-round ids per task.
    round_ids: HashMap<String, RoundId>,
    /// Materialized metrics per task per round (Sec. 7.4) of the last
    /// [`METRIC_ROUNDS`] committed rounds, oldest first.
    metrics: Vec<(String, RoundId, Vec<MetricSummary>)>,
    /// Cumulative SecAgg shards that aborted below threshold at finalize.
    secagg_shard_aborts: u64,
}

impl<S: CheckpointStore> std::fmt::Debug for Coordinator<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("config", &self.config)
            .field("group", &self.group)
            .field("round_counter", &self.round_counter)
            .field("round_ids", &self.round_ids)
            .finish_non_exhaustive()
    }
}

impl<S: CheckpointStore> Coordinator<S> {
    /// Creates a coordinator over the given store.
    pub fn new(config: CoordinatorConfig, store: S) -> Self {
        Coordinator {
            config,
            group: None,
            deployments: HashMap::new(),
            store,
            round_counter: 0,
            round_ids: HashMap::new(),
            metrics: Vec::new(),
            secagg_shard_aborts: 0,
        }
    }

    /// Deploys a task group (from the `fl-tools` release pipeline): plans
    /// plus initial parameters for training tasks.
    ///
    /// Deployment is **resume-aware**: if the store already holds a
    /// committed checkpoint for a task (i.e. this coordinator is a respawn
    /// picking up an existing population, Sec. 4.2/4.4), the trained model
    /// is kept and its round id adopted — the initial parameters are only
    /// written for genuinely new tasks. This keeps `write_count()` at one
    /// write per committed round across coordinator restarts.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::StorageFailure`] if the initial checkpoint
    /// write fails; the task is then not deployed.
    ///
    /// # Panics
    ///
    /// Panics if a plan's expected dimension disagrees with its model, or
    /// if `initial_params` dimension mismatches.
    pub fn deploy(
        &mut self,
        group: TaskGroup,
        plans: Vec<FlPlan>,
        initial_params: Vec<f32>,
    ) -> Result<(), CoreError> {
        assert_eq!(group.tasks().len(), plans.len(), "one plan per task");
        for (task, plan) in group.tasks().iter().zip(&plans) {
            assert_eq!(
                plan.server.expected_dim,
                plan.device.model.num_params(),
                "plan dimension mismatch"
            );
            assert_eq!(
                initial_params.len(),
                plan.server.expected_dim,
                "initial params dimension mismatch"
            );
            // Tasks that read another task's checkpoint (evaluation) do
            // not get their own model state.
            let round_id = if task.checkpoint_source.is_none() {
                match self.store.latest(&task.name) {
                    // Respawn: resume from the committed model rather than
                    // clobbering it with the initial parameters.
                    Ok(existing) => existing.round,
                    Err(CoreError::UnknownTask(_)) => {
                        self.store.commit(FlCheckpoint::new(
                            task.name.clone(),
                            RoundId(0),
                            initial_params.clone(),
                        ))?;
                        RoundId(0)
                    }
                    Err(e) => return Err(e),
                }
            } else {
                RoundId(0)
            };
            self.deployments
                .insert(task.name.clone(), Deployment { plan: plan.clone() });
            self.round_ids.insert(task.name.clone(), round_id);
        }
        self.group = Some(group);
        Ok(())
    }

    /// The population this coordinator owns.
    pub fn population(&self) -> &PopulationName {
        &self.config.population
    }

    /// Read access to the checkpoint store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Materialized metrics: `(task, round, summaries)` tuples of the
    /// last [`METRIC_ROUNDS`] committed rounds, newest last.
    // fl-lint: allow(test-only-pub): Sec. 7.4 metrics for tests/full_round.rs, train_eval_cycle.rs
    pub fn materialized_metrics(&self) -> &[(String, RoundId, Vec<MetricSummary>)] {
        &self.metrics
    }

    /// Latest global parameters for a task.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] if the task was never deployed.
    pub fn global_params(&self, task_name: &str) -> Result<Vec<f32>, CoreError> {
        Ok(self.store.latest(task_name)?.into_params())
    }

    /// Begins the next round at `now_ms`: selects the task (per the
    /// population's dynamic strategy), reads the latest checkpoint, and
    /// builds the round's Master Aggregator — only for a training task,
    /// the only kind with anything to aggregate. The round carries this
    /// Coordinator's population.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] if nothing is deployed.
    pub fn begin_round(
        &mut self,
        now_ms: u64,
    ) -> Result<(ActiveRound, Option<MasterAggregator>), CoreError> {
        let group = self
            .group
            .as_ref()
            .ok_or_else(|| CoreError::UnknownTask("no deployment".into()))?;
        let task = group.select(self.round_counter).clone();
        let deployment = self
            .deployments
            .get(&task.name)
            .ok_or_else(|| CoreError::UnknownTask(task.name.clone()))?;
        let checkpoint_task = task.checkpoint_source.as_deref().unwrap_or(&task.name);
        let checkpoint = self.store.latest(checkpoint_task)?;
        let round_id = self.round_ids[&task.name].next();
        let master = (task.kind == TaskKind::Training).then(|| {
            let dim = deployment.plan.server.expected_dim;
            let mut plan = match task.secagg_group_size {
                Some(k) => AggregationPlan::with_secagg(dim, self.config.max_per_shard, k),
                None => AggregationPlan::plain(dim, self.config.max_per_shard),
            };
            if let Some(dp) = task.dp {
                plan = plan.with_dp(dp);
            }
            let mut seed_rng = rng::seeded_stream(self.config.seed, self.round_counter);
            MasterAggregator::new(
                plan,
                deployment.plan.server.update_codec,
                task.round.selection_target(),
                seed_rng.random::<u64>(),
            )
        });
        self.round_counter += 1;
        let round = ActiveRound {
            plan: deployment.plan.clone(),
            checkpoint,
            state: RoundState::begin(round_id, task.round, now_ms),
            task,
            population: self.config.population.clone(),
            verdicts: HashMap::new(),
            advertise_dropouts: Vec::new(),
            share_dropouts: Vec::new(),
            loss_summary: MetricSummary::new("loss"),
            accuracy_summary: MetricSummary::new("accuracy"),
            train_time_summary: MetricSummary::new("participation_ms"),
        };
        Ok((round, master))
    }

    /// Completes a finished round: commits the new checkpoint (committed
    /// training rounds only — exactly one write), materializes metrics,
    /// returns the outcome. `aggregate` is the round's Master Aggregator's
    /// merge — the live `MasterAggregatorActor`'s reply, or
    /// [`ActiveRound::merge`] of the struct; it is only computed, and only
    /// consulted, for committed training rounds.
    ///
    /// # Errors
    ///
    /// Returns an error if the round is not finished or aggregation
    /// failed; a missing aggregate for a committed training round is
    /// [`CoreError::InvariantViolated`]. On [`CoreError::StorageFailure`]
    /// the round's result is lost but the coordinator stays consistent:
    /// round ids and metrics are not advanced, so the next `begin_round`
    /// retries from the last *successfully* committed checkpoint
    /// (Sec. 4.2).
    pub fn complete_round(
        &mut self,
        round: ActiveRound,
        aggregate: Option<Result<MergeOutcome, CoreError>>,
    ) -> Result<fl_core::RoundOutcome, CoreError> {
        let outcome = round
            .state
            .outcome()
            .ok_or_else(|| CoreError::UnknownTask("round not finished".into()))?;
        if outcome.is_committed() {
            if round.task.kind == TaskKind::Training {
                let merged = aggregate.ok_or_else(|| {
                    CoreError::InvariantViolated("training round has no aggregate".into())
                })??;
                self.secagg_shard_aborts += merged.shard_aborts as u64;
                let new_round = round.checkpoint.round.next();
                self.store.commit(FlCheckpoint::new(
                    round.task.name.clone(),
                    new_round,
                    merged.params,
                ))?;
                self.round_ids.insert(round.task.name.clone(), new_round);
            }
            if self.metrics.len() == METRIC_ROUNDS {
                self.metrics.remove(0);
            }
            self.metrics.push((
                round.task.name.clone(),
                round.state.round,
                vec![
                    round.loss_summary,
                    round.accuracy_summary,
                    round.train_time_summary,
                ],
            ));
        }
        Ok(outcome)
    }

    /// Consumes the coordinator, returning its checkpoint store (used by
    /// the chaos harness to audit writes after tearing the topology down).
    pub fn into_store(self) -> S {
        self.store
    }
}

/// What a round did with one report frame ([`ActiveRound::on_report`]),
/// beside the ack that answers it.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportVerdict {
    /// Accepted: the caller routes the frame to the round's Master
    /// Aggregator along this route.
    Forward(ReportRoute),
    /// A retry of a key the round already evaluated: its pinned ack was
    /// replayed and nothing was accounted.
    Replayed,
    /// Refused unevaluated (another population's report, or a key the
    /// round cannot be asked about), or rejected by the round.
    Rejected,
    /// Not a report frame (stream desync, protocol drift, byte rot).
    Unreadable,
}

/// The answer to a report frame while no round is in flight: refused
/// unevaluated as a round refuses a key it cannot be asked about, or
/// unreadable.
pub(crate) fn report_between_rounds(
    frame: &[u8],
    population: &PopulationName,
) -> (WireMessage, ReportVerdict) {
    refusal(ReportRef::parse(frame), population)
}

/// The answer to a report nobody evaluates: a rejecting ack echoing the
/// key and the *claimed* population, so the device's per-population retry
/// discipline sees the refusal. This is also the multi-tenancy boundary —
/// cross-tenant contributions must not leak between models even if a
/// gateway misroutes a frame. A frame that is not a report has no key to
/// echo; its rejecting ack carries `population`, and the device's retry
/// discipline treats it as a refusal and backs off.
fn refusal(
    parsed: Result<ReportRef<'_>, WireError>,
    population: &PopulationName,
) -> (WireMessage, ReportVerdict) {
    match parsed {
        Ok(report) => (
            WireMessage::ReportAck {
                accepted: false,
                round: report.round,
                attempt: report.attempt,
                population: PopulationName::from(report.population),
            },
            ReportVerdict::Rejected,
        ),
        Err(_) => (
            WireMessage::ReportAck {
                accepted: false,
                round: RoundId(0),
                attempt: 0,
                population: population.clone(),
            },
            ReportVerdict::Unreadable,
        ),
    }
}

/// One in-flight round: the state machine, the at-most-once report
/// ledger, and the metrics of its devices' reports. Its updates
/// are folded by the Master Aggregator [`Coordinator::begin_round`]
/// handed back beside it.
#[derive(Debug)]
pub struct ActiveRound {
    /// The task being executed.
    pub task: FlTask,
    /// The task's plan (device + server parts).
    pub plan: FlPlan,
    /// The checkpoint sent to participants.
    pub checkpoint: FlCheckpoint,
    /// The phase state machine.
    pub state: RoundState,
    /// The Coordinator's population: reports claiming another are
    /// refused, and acks carry it.
    population: PopulationName,
    /// At-most-once report ledger: the final ack decision for every
    /// `(device, attempt)` key this round evaluated (the round part of
    /// the key is always this round's `checkpoint.round`). A retried
    /// upload whose key is here (its first ack was lost on the wire)
    /// gets the *original* decision replayed and is never accounted
    /// again — so a report is summed at most once however often the
    /// device re-sends it. It dies with the round.
    verdicts: HashMap<(DeviceId, u32), bool>,
    /// Devices that vanished after advertising SecAgg keys (cheap
    /// exclusion; also where plain-round dropouts land when staged
    /// explicitly).
    advertise_dropouts: Vec<DeviceId>,
    /// Devices that vanished after sharing keys — the expensive
    /// mask-recovery path, and the conservative default stage.
    share_dropouts: Vec<DeviceId>,
    loss_summary: MetricSummary,
    accuracy_summary: MetricSummary,
    train_time_summary: MetricSummary,
}

impl ActiveRound {
    /// A device checks in.
    pub fn on_checkin(&mut self, device: DeviceId, now_ms: u64) -> CheckinResponse {
        self.state.on_checkin(device, now_ms)
    }

    /// Clock tick (timeouts).
    pub fn on_tick(&mut self, now_ms: u64) {
        self.state.on_tick(now_ms);
    }

    /// The one report path. Opens `frame` once ([`ReportRef::parse`]:
    /// envelope and digest verified, payload left where it lies); refuses
    /// it unevaluated unless it claims this round's population and a key
    /// the round can be asked about (its Configuration's checkpoint
    /// round, a configured participant, an attempt within
    /// [`MAX_REPORT_ATTEMPTS`]); replays the pinned verdict of a key
    /// already evaluated; otherwise has the state machine judge the
    /// report (participant, lateness, goal count) and pins the verdict.
    /// Returns the [`WireMessage::ReportAck`] to send, and for an
    /// accepted report the route on which the caller forwards `frame` to
    /// the round's Master Aggregator.
    pub fn on_report(&mut self, now_ms: u64, frame: &[u8]) -> (WireMessage, ReportVerdict) {
        let report = match ReportRef::parse(frame) {
            Ok(report) if self.admits(&report) => report,
            parsed => return refusal(parsed, &self.population),
        };
        let key = (report.device, report.attempt);
        let (accepted, verdict) = match self.verdicts.get(&key) {
            Some(&prior) => (prior, ReportVerdict::Replayed),
            None => {
                let response = self.state.on_report(report.device, now_ms);
                let accepted = response == ReportResponse::Accepted;
                self.verdicts.insert(key, accepted);
                if accepted {
                    // NaN is the runtime's "not computed": a summary
                    // counts measured values only.
                    if report.loss.is_finite() {
                        self.loss_summary.push(report.loss);
                    }
                    if report.accuracy.is_finite() {
                        self.accuracy_summary.push(report.accuracy);
                    }
                    (true, ReportVerdict::Forward(ReportRoute::of(&report)))
                } else {
                    (false, ReportVerdict::Rejected)
                }
            }
        };
        let ack = WireMessage::ReportAck {
            accepted,
            round: report.round,
            attempt: report.attempt,
            population: self.population.clone(),
        };
        (ack, verdict)
    }

    /// Whether the round may evaluate and pin `report`'s key. The
    /// checkpoint round keeps a delayed duplicate from an earlier round
    /// out of this one; the participant and attempt bounds keep the
    /// ledger at most participants × [`MAX_REPORT_ATTEMPTS`] entries
    /// whatever keys a peer invents; a report that arrives before its
    /// device is configured is refused without a pin, leaving its key to
    /// the device's genuine report; and so is one the round's Master
    /// could not fold, which would otherwise take a goal slot for an
    /// update the sum never holds.
    fn admits(&self, report: &ReportRef<'_>) -> bool {
        report.population == self.population.as_str()
            && report.round == self.checkpoint.round
            && report.attempt <= MAX_REPORT_ATTEMPTS
            && self.state.is_participant(report.device)
            && self.foldable(report)
    }

    /// Whether `report` passes a training round's shard checks: a field
    /// vector only where the task runs SecAgg, with one coordinate per
    /// parameter of the plan's dimension; an update whose codec-declared
    /// length is the dimension; and, where the task runs SecAgg, a weight
    /// and coordinates a group can sum in `Z_{2^32}`
    /// ([`check_secagg_input`]). An evaluation round folds nothing and
    /// takes any payload.
    fn foldable(&self, report: &ReportRef<'_>) -> bool {
        if self.task.kind != TaskKind::Training {
            return true;
        }
        let dim = self.plan.server.expected_dim;
        let secagg = self.task.secagg_group_size.is_some();
        let in_range = |coordinates: &[[u8; 8]]| {
            let values = coordinates.iter().map(|c| u64::from_le_bytes(*c));
            let encoder = FixedPointEncoder::default_for_updates();
            check_secagg_input(&encoder, report.weight, values, None).is_ok()
        };
        match report.payload {
            ReportPayload::Field(coordinates) => {
                secagg && coordinates.len() == dim && in_range(coordinates)
            }
            ReportPayload::Update(bytes) => {
                fl_ml::compress::encoded_len(bytes) == Some(dim) && (!secagg || in_range(&[]))
            }
        }
    }

    /// Whether the finished round commits a new training checkpoint —
    /// the only rounds whose aggregate is ever merged.
    pub fn commits_training(&self) -> bool {
        self.task.kind == TaskKind::Training
            && self.state.outcome().is_some_and(|o| o.is_committed())
    }

    /// The merge an in-process driver's struct [`MasterAggregator`] owes
    /// this finished round, for [`Coordinator::complete_round`]: computed
    /// only if the round commits a training checkpoint.
    pub fn merge(
        &self,
        master: Option<MasterAggregator>,
    ) -> Option<Result<MergeOutcome, CoreError>> {
        let master = master.filter(|_| self.commits_training())?;
        Some(
            master
                .finalize(
                    self.checkpoint.params(),
                    &self.advertise_dropouts,
                    &self.share_dropouts,
                )
                .map_err(|e| CoreError::MalformedCheckpoint(e.to_string())),
        )
    }

    /// Devices that vanished after advertising keys (needed when the
    /// Master is finalized).
    pub fn advertise_dropouts(&self) -> &[DeviceId] {
        &self.advertise_dropouts
    }

    /// Devices that vanished after sharing keys (needed when the Master
    /// is finalized).
    pub fn share_dropouts(&self) -> &[DeviceId] {
        &self.share_dropouts
    }

    /// A device dropped out. Without stage information the conservative
    /// assumption is post-share: its masks must be recovered.
    pub fn on_dropout(&mut self, device: DeviceId, now_ms: u64) {
        self.on_dropout_staged(device, now_ms, DropStage::Share);
    }

    /// A device dropped out at a known SecAgg protocol stage.
    pub fn on_dropout_staged(&mut self, device: DeviceId, now_ms: u64, stage: DropStage) {
        self.state.on_dropout(device, now_ms);
        match stage {
            DropStage::Advertise => self.advertise_dropouts.push(device),
            DropStage::Share => self.share_dropouts.push(device),
        }
    }

    /// Records participation-time metrics once the round has finished.
    pub fn record_participation_metrics(&mut self) {
        let times: Vec<u64> = self
            .state
            .participation_times()
            .iter()
            .map(|(_, _, t)| *t)
            .collect();
        for t in times {
            self.train_time_summary.push(t as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::InMemoryCheckpointStore;
    use fl_core::plan::{CodecSpec, ModelSpec};
    use fl_core::population::TaskSelectionStrategy;
    use fl_core::round::RoundConfig;

    fn spec() -> ModelSpec {
        ModelSpec::Logistic {
            dim: 4,
            classes: 2,
            seed: 0,
        }
    }

    fn small_round() -> RoundConfig {
        RoundConfig {
            goal_count: 3,
            overselection: 1.34,
            min_goal_fraction: 0.67,
            selection_timeout_ms: 10_000,
            report_window_ms: 30_000,
            device_cap_ms: 25_000,
        }
    }

    fn deployed_coordinator() -> Coordinator<InMemoryCheckpointStore> {
        let mut c = Coordinator::new(
            CoordinatorConfig::new("test/pop", 1),
            InMemoryCheckpointStore::new(),
        );
        let task = FlTask::training("train", "test/pop").with_round(small_round());
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        let init = vec![0.0f32; spec().num_params()];
        c.deploy(group, vec![plan], init).unwrap();
        c
    }

    /// Checks in the round's whole selection target, which configures it.
    fn configure(round: &mut ActiveRound) {
        for i in 0..round.task.round.selection_target() {
            round.on_checkin(DeviceId(i as u64), 100);
        }
    }

    /// `device`'s `UpdateReport` frame carrying `delta` on every
    /// coordinate at weight 10, under `round`'s key and `attempt`.
    fn frame(round: &ActiveRound, device: DeviceId, attempt: u32, delta: f32) -> Vec<u8> {
        fl_wire::encode(&WireMessage::UpdateReport {
            device,
            round: round.checkpoint.round,
            attempt,
            update_bytes: CodecSpec::Identity
                .build()
                .encode(&vec![delta; round.plan.server.expected_dim]),
            weight: 10,
            loss: 0.7,
            accuracy: 0.6,
            population: "test/pop".into(),
        })
        .expect("test frame encodes")
    }

    /// Reports `frame` to `round`, folding an accepted one into `master`
    /// as every in-process driver does; returns the ack and the verdict.
    fn report(
        round: &mut ActiveRound,
        master: &mut Option<MasterAggregator>,
        frame: &[u8],
    ) -> (WireMessage, ReportVerdict) {
        let (ack, verdict) = round.on_report(5_000, frame);
        if let (ReportVerdict::Forward(route), Some(master)) = (&verdict, master) {
            master.accept_forwarded(route, frame).unwrap();
        }
        (ack, verdict)
    }

    fn accepted(ack: &WireMessage) -> bool {
        matches!(ack, WireMessage::ReportAck { accepted: true, .. })
    }

    fn run_one_round<S: CheckpointStore>(
        c: &mut Coordinator<S>,
    ) -> Result<fl_core::RoundOutcome, CoreError> {
        let (mut round, mut master) = c.begin_round(0)?;
        configure(&mut round);
        for d in round.state.participants().into_iter().take(3) {
            let frame = frame(&round, d, 1, 0.5);
            assert!(accepted(&report(&mut round, &mut master, &frame).0));
        }
        round.on_tick(40_000);
        round.record_participation_metrics();
        let aggregate = round.merge(master);
        c.complete_round(round, aggregate)
    }

    #[test]
    fn committed_round_updates_checkpoint_once() {
        let mut c = deployed_coordinator();
        let writes_before = c.store().write_count();
        let outcome = run_one_round(&mut c).unwrap();
        assert!(outcome.is_committed());
        // Exactly ONE write per committed round — per-device updates are
        // never persisted (Sec. 4.2).
        assert_eq!(c.store().write_count(), writes_before + 1);
        let params = c.global_params("train").unwrap();
        // Each update 0.5 with weight 10: mean delta 0.05.
        for p in params {
            assert!((p - 0.05).abs() < 1e-5);
        }
    }

    #[test]
    fn round_ids_advance_on_commit() {
        let mut c = deployed_coordinator();
        run_one_round(&mut c).unwrap();
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(1));
        run_one_round(&mut c).unwrap();
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(2));
    }

    #[test]
    fn abandoned_round_commits_nothing() {
        let mut c = deployed_coordinator();
        let (mut round, master) = c.begin_round(0).unwrap();
        round.on_checkin(DeviceId(0), 100); // one device only
        round.on_tick(10_000); // selection timeout, below minimum
        assert!(
            round.merge(master).is_none(),
            "an abandoned round merges nothing"
        );
        let outcome = c.complete_round(round, None).unwrap();
        assert!(!outcome.is_committed());
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(0));
    }

    #[test]
    fn configuration_frames_outweigh_report_frames() {
        let mut c = deployed_coordinator();
        let (mut round, _) = c.begin_round(0).unwrap();
        configure(&mut round);
        let configuration = fl_wire::encode(&WireMessage::PlanAndCheckpoint {
            plan: Box::new(round.plan.clone()),
            checkpoint: Box::new(round.checkpoint.clone()),
            population: "test/pop".into(),
        })
        .unwrap();
        // Plan ≈ model and both go down to every configured device;
        // one update frame comes up per reporting device.
        let down = configuration.len() * round.state.participants().len();
        let up = frame(&round, DeviceId(0), 1, 0.5).len() * round.task.round.goal_count;
        assert!(down > up, "down {down} B, up {up} B");
    }

    #[test]
    fn metrics_are_materialized_per_committed_round() {
        let mut c = deployed_coordinator();
        run_one_round(&mut c).unwrap();
        let m = c.materialized_metrics();
        assert_eq!(m.len(), 1);
        let (task, round, summaries) = &m[0];
        assert_eq!(task, "train");
        assert_eq!(*round, RoundId(1));
        assert_eq!(summaries[0].name, "loss");
        assert_eq!(summaries[0].moments.count(), 3);

        // Past the bound the oldest rounds go: after N + 3 commits the
        // newest N remain, oldest first.
        for _ in 1..METRIC_ROUNDS + 3 {
            run_one_round(&mut c).unwrap();
        }
        let rounds: Vec<RoundId> = c.materialized_metrics().iter().map(|m| m.1).collect();
        let newest: Vec<RoundId> = (4..=METRIC_ROUNDS as u64 + 3).map(RoundId).collect();
        assert_eq!(rounds, newest);
    }

    /// Regression: a report with a NaN loss (what `FlRuntime` reports when
    /// a plan computes none) panicked the quantile sketch's first sort,
    /// and with it the population's Coordinator. A summary now counts only
    /// the finite values; the reports themselves are accepted and summed.
    #[test]
    fn non_finite_metrics_are_left_out_of_the_round_summaries() {
        let mut c = Coordinator::new(
            CoordinatorConfig::new("test/pop", 1),
            InMemoryCheckpointStore::new(),
        );
        let config = RoundConfig {
            goal_count: 5,
            overselection: 1.0,
            ..small_round()
        };
        let task = FlTask::training("train", "test/pop").with_round(config);
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        c.deploy(group, vec![plan], vec![0.0; spec().num_params()])
            .unwrap();
        let (mut round, mut master) = c.begin_round(0).unwrap();
        configure(&mut round);
        let metrics = [
            (0.5, 0.9),
            (f64::NAN, 0.8),
            (0.4, f64::INFINITY),
            (0.3, 0.7),
            (0.2, 0.6),
        ];
        for (device, (loss, accuracy)) in round.state.participants().into_iter().zip(metrics) {
            let frame = fl_wire::encode(&WireMessage::UpdateReport {
                device,
                round: round.checkpoint.round,
                attempt: 1,
                update_bytes: CodecSpec::Identity.build().encode(&vec![
                    0.5;
                    round
                        .plan
                        .server
                        .expected_dim
                ]),
                weight: 10,
                loss,
                accuracy,
                population: "test/pop".into(),
            })
            .unwrap();
            assert!(accepted(&report(&mut round, &mut master, &frame).0));
        }
        round.on_tick(40_000);
        let aggregate = round.merge(master);
        assert!(c.complete_round(round, aggregate).unwrap().is_committed());
        let (_, _, summaries) = &c.materialized_metrics()[0];
        let (loss, accuracy) = (&summaries[0], &summaries[1]);
        for summary in [loss, accuracy] {
            assert_eq!(summary.moments.count(), 4, "{}", summary.name);
            assert!(summary.p50.estimate().is_some(), "{}", summary.name);
            assert!(summary.p90.estimate().is_some(), "{}", summary.name);
        }
        assert!((loss.moments.mean() - 0.35).abs() < 1e-12);
        assert!((accuracy.moments.mean() - 0.75).abs() < 1e-12);
    }

    /// Evaluation rounds run in turn and have no Master Aggregator.
    #[test]
    fn alternating_strategy_runs_eval_rounds() {
        let mut c = Coordinator::new(
            CoordinatorConfig::new("pop", 2),
            InMemoryCheckpointStore::new(),
        );
        let train = FlTask::training("train", "pop").with_round(small_round());
        let eval = FlTask::evaluation("eval", "pop").with_round(small_round());
        let tplan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let eplan = FlPlan::standard_evaluation(spec());
        let group = TaskGroup::new(
            vec![train, eval],
            TaskSelectionStrategy::AlternateTrainEval { train_rounds: 1 },
        );
        c.deploy(group, vec![tplan, eplan], vec![0.0; spec().num_params()])
            .unwrap();
        let (r1, m1) = c.begin_round(0).unwrap();
        assert_eq!(r1.task.kind, TaskKind::Training);
        assert!(m1.is_some());
        let (r2, m2) = c.begin_round(0).unwrap();
        assert_eq!(r2.task.kind, TaskKind::Evaluation);
        assert!(m2.is_none());
    }

    /// Regression: a respawned coordinator re-deploying the same task must
    /// resume from the committed model, not clobber it with the initial
    /// parameters (pre-fix, `deploy` unconditionally committed RoundId(0)
    /// with the init params, losing the trained model and inflating the
    /// write counter).
    #[test]
    fn redeploy_resumes_from_committed_checkpoint() {
        let mut c = deployed_coordinator();
        run_one_round(&mut c).unwrap();
        let trained = c.global_params("train").unwrap();
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(1));
        let store = c.into_store();
        let writes_before = store.write_count();

        // Respawn: a fresh Coordinator over the surviving store.
        let mut c2 = Coordinator::new(CoordinatorConfig::new("test/pop", 1), store);
        let task = FlTask::training("train", "test/pop").with_round(small_round());
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        c2.deploy(group, vec![plan], vec![0.0f32; spec().num_params()])
            .unwrap();
        // No extra write; the trained model and round id survive.
        assert_eq!(c2.store().write_count(), writes_before);
        assert_eq!(c2.global_params("train").unwrap(), trained);
        assert_eq!(c2.store().latest("train").unwrap().round, RoundId(1));
        // The next round builds on the trained model.
        let (round, _) = c2.begin_round(0).unwrap();
        assert_eq!(round.checkpoint.round, RoundId(1));
        assert_eq!(round.state.round, RoundId(2));
    }

    /// A committed training round completed without its Master's merge
    /// is an invariant violation, not a silent empty commit.
    #[test]
    fn committed_training_round_requires_an_aggregate() {
        let mut c = deployed_coordinator();
        let (mut round, _) = c.begin_round(0).unwrap();
        configure(&mut round);
        for d in round.state.participants().into_iter().take(3) {
            let frame = frame(&round, d, 1, 0.5);
            assert!(accepted(&round.on_report(5_000, &frame).0));
        }
        let err = c.complete_round(round, None).unwrap_err();
        assert!(matches!(err, CoreError::InvariantViolated(_)));
    }

    /// The verdict ledger pins only what the round can be asked about:
    /// 10 000 invented keys — unknown devices, other rounds, attempts
    /// past the cap, another population — each get a rejecting ack
    /// echoing the key and the claimed population and leave nothing
    /// behind, while a participant's own attempts are evaluated and
    /// pinned up to the cap.
    #[test]
    fn ghost_report_keys_never_grow_the_verdict_ledger() {
        let mut c = deployed_coordinator();
        let (mut round, _) = c.begin_round(0).unwrap();
        configure(&mut round);
        let active = round.checkpoint.round;

        let mut refused = |device: u64, key: RoundId, attempt: u32, population: &str| {
            let frame = fl_wire::encode(&WireMessage::UpdateReport {
                device: DeviceId(device),
                round: key,
                attempt,
                update_bytes: Vec::new(),
                weight: 1,
                loss: 0.5,
                accuracy: 0.5,
                population: population.into(),
            })
            .unwrap();
            let expected = WireMessage::ReportAck {
                accepted: false,
                round: key,
                attempt,
                population: population.into(),
            };
            assert_eq!(
                round.on_report(1, &frame),
                (expected, ReportVerdict::Rejected)
            );
        };
        for ghost in 0..10_000u64 {
            match ghost % 4 {
                0 => refused(1_000 + ghost, active, 1, "test/pop"),
                1 => refused(ghost % 2, RoundId(active.0 + 1 + ghost), 1, "test/pop"),
                2 => refused(
                    ghost % 2,
                    active,
                    MAX_REPORT_ATTEMPTS + 1 + ghost as u32,
                    "test/pop",
                ),
                _ => refused(ghost % 2, active, 1, "other/pop"),
            }
        }
        assert!(round.verdicts.is_empty(), "a ghost key was pinned");

        // Real keys are evaluated once and pinned: device 0's first
        // attempt is accepted, its later ones rejected by the round.
        for attempt in 1..=MAX_REPORT_ATTEMPTS {
            let (ack, _) = round.on_report(1, &frame(&round, DeviceId(0), attempt, 0.25));
            assert_eq!(accepted(&ack), attempt == 1);
        }
        assert_eq!(round.verdicts.len(), MAX_REPORT_ATTEMPTS as usize);
        // A frame that is not a report has no key and pins nothing.
        let (ack, verdict) = round.on_report(1, &[0xFF, 0x00, 0xAB]);
        assert_eq!(verdict, ReportVerdict::Unreadable);
        assert!(!accepted(&ack));
        assert_eq!(round.verdicts.len(), MAX_REPORT_ATTEMPTS as usize);
    }

    /// A retried upload under the same key gets the original ack replayed
    /// and is neither forwarded nor counted a second time.
    #[test]
    fn retried_key_is_replayed_not_reaccounted() {
        let mut c = deployed_coordinator();
        let (mut round, _) = c.begin_round(0).unwrap();
        configure(&mut round);
        let frame = frame(&round, DeviceId(0), 1, 0.5);
        let (first, verdict) = round.on_report(5_000, &frame);
        assert!(matches!(verdict, ReportVerdict::Forward(_)));
        assert_eq!(
            round.on_report(5_001, &frame),
            (first, ReportVerdict::Replayed)
        );
        assert_eq!(round.state.counters().0, 1);
    }

    /// Regression: a report the round's Master cannot fold — an update of
    /// the wrong dimension, or a field vector in a plain round — used to be
    /// accepted, pinned and counted toward the goal, and then failed at
    /// the shard (which the live tree ignores). Each is refused with
    /// nothing pinned or counted, and the device's genuine report under
    /// the same key is accepted and folds.
    #[test]
    fn a_report_the_round_cannot_fold_is_refused_unpinned() {
        let mut c = deployed_coordinator();
        let (mut round, mut master) = c.begin_round(0).unwrap();
        configure(&mut round);
        let key = round.checkpoint.round;
        let dim = round.plan.server.expected_dim;
        let wrong_dim = fl_wire::encode(&WireMessage::UpdateReport {
            device: DeviceId(0),
            round: key,
            attempt: 1,
            update_bytes: CodecSpec::Identity.build().encode(&[0.5]),
            weight: 10,
            loss: 0.7,
            accuracy: 0.6,
            population: "test/pop".into(),
        })
        .unwrap();
        let field = fl_wire::encode(&WireMessage::SecAggReport {
            device: DeviceId(0),
            round: key,
            attempt: 1,
            field_vector: vec![1; dim],
            weight: 10,
            loss: 0.7,
            accuracy: 0.6,
            population: "test/pop".into(),
        })
        .unwrap();
        for unfoldable in [wrong_dim, field] {
            let (ack, verdict) = report(&mut round, &mut master, &unfoldable);
            assert_eq!(verdict, ReportVerdict::Rejected);
            assert!(!accepted(&ack));
        }
        assert!(round.verdicts.is_empty(), "an unfoldable report was pinned");
        assert_eq!(round.state.counters(), (0, 0, 0, 0));
        let genuine = frame(&round, DeviceId(0), 1, 0.5);
        let (ack, verdict) = report(&mut round, &mut master, &genuine);
        assert!(accepted(&ack));
        assert!(matches!(verdict, ReportVerdict::Forward(_)));
        assert_eq!(round.state.counters(), (1, 0, 0, 0));
    }

    /// In a SecAgg round a report whose coordinate is off the fixed-point
    /// grid, or whose weight a group cannot sum in `Z_{2^32}`, is refused
    /// before its ack, unpinned and uncounted, as its shard would refuse
    /// it after the ack; the largest weight and coordinate are accepted
    /// and fold.
    #[test]
    fn an_out_of_range_secagg_report_is_refused_before_its_ack() {
        let mut c = deployed_secagg_coordinator();
        let (mut round, mut master) = c.begin_round(0).unwrap();
        configure(&mut round);
        let key = round.checkpoint.round;
        let dim = round.plan.server.expected_dim;
        let encoder = FixedPointEncoder::default_for_updates();
        let max = encoder.max_encoded();
        let max_weight = u64::from(u32::MAX) / encoder.max_summands();
        let secagg = |field_vector: Vec<u64>, weight| {
            fl_wire::encode(&WireMessage::SecAggReport {
                device: DeviceId(0),
                round: key,
                attempt: 1,
                field_vector,
                weight,
                loss: 0.7,
                accuracy: 0.6,
                population: "test/pop".into(),
            })
            .unwrap()
        };
        let mut off_grid = vec![max; dim];
        off_grid[dim - 1] = max + 1;
        let heavy_update = fl_wire::encode(&WireMessage::UpdateReport {
            device: DeviceId(0),
            round: key,
            attempt: 1,
            update_bytes: CodecSpec::Identity.build().encode(&vec![0.5; dim]),
            weight: max_weight + 1,
            loss: 0.7,
            accuracy: 0.6,
            population: "test/pop".into(),
        })
        .unwrap();
        for hostile in [
            secagg(off_grid, 1),
            secagg(vec![u64::MAX; dim], 1),
            secagg(vec![0; dim], max_weight + 1),
            heavy_update,
        ] {
            let (ack, verdict) = report(&mut round, &mut master, &hostile);
            assert_eq!(verdict, ReportVerdict::Rejected);
            assert!(!accepted(&ack));
        }
        assert!(round.verdicts.is_empty(), "a hostile report was pinned");
        assert_eq!(round.state.counters(), (0, 0, 0, 0));
        // On the grid, the top of it included, though the coordinates'
        // OR is past it.
        let mut on_grid = vec![max; dim];
        on_grid[1] = 1;
        let (ack, verdict) = report(&mut round, &mut master, &secagg(on_grid, max_weight));
        assert!(accepted(&ack));
        assert!(matches!(verdict, ReportVerdict::Forward(_)));
        assert_eq!(round.state.counters(), (1, 0, 0, 0));
    }

    fn deployed_secagg_coordinator() -> Coordinator<InMemoryCheckpointStore> {
        let mut c = Coordinator::new(
            CoordinatorConfig::new("test/pop", 1),
            InMemoryCheckpointStore::new(),
        );
        let task = FlTask::training("train", "test/pop")
            .with_round(small_round())
            .with_secagg(2);
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        c.deploy(group, vec![plan], vec![0.0f32; spec().num_params()])
            .unwrap();
        c
    }

    /// SecAgg reports (fixed-point field vectors) commit the same model as
    /// clear reports within quantization error, while uploading 8 bytes
    /// per coordinate — the SecAgg bandwidth premium is measured, not
    /// assumed.
    #[test]
    fn secagg_reports_commit_with_bandwidth_premium() {
        let mut clear = deployed_coordinator();
        run_one_round(&mut clear).unwrap();
        let clear_params = clear.global_params("train").unwrap();

        let mut c = deployed_secagg_coordinator();
        let (mut round, mut master) = c.begin_round(0).unwrap();
        configure(&mut round);
        let dim = round.plan.server.expected_dim;
        let encoder = fl_ml::fixedpoint::FixedPointEncoder::default_for_updates();
        let field = encoder.encode(&vec![0.5f32; dim]).unwrap();
        let mut upload = 0;
        for device in round.state.participants().into_iter().take(3) {
            let frame = fl_wire::encode(&WireMessage::SecAggReport {
                device,
                round: round.checkpoint.round,
                attempt: 1,
                field_vector: field.clone(),
                weight: 10,
                loss: 0.7,
                accuracy: 0.6,
                population: "test/pop".into(),
            })
            .unwrap();
            upload += frame.len();
            let (ack, verdict) = report(&mut round, &mut master, &frame);
            assert!(accepted(&ack));
            assert!(matches!(
                verdict,
                ReportVerdict::Forward(ReportRoute { field: true, .. })
            ));
        }
        round.on_tick(40_000);
        round.record_participation_metrics();
        let clear_upload = 3 * frame(&round, DeviceId(0), 1, 0.5).len();
        assert!(
            upload >= 3 * dim * 8 && upload > clear_upload,
            "secagg upload premium missing: {upload} bytes for {dim} params, \
             {clear_upload} in the clear"
        );
        let aggregate = round.merge(master);
        let outcome = c.complete_round(round, aggregate).unwrap();
        assert!(outcome.is_committed());
        let params = c.global_params("train").unwrap();
        for (a, b) in params.iter().zip(&clear_params) {
            assert!((a - b).abs() < 1e-3, "secagg {a} vs clear {b}");
        }
    }

    /// Stage-tagged dropouts land in their respective lists and flow to
    /// the master at finalize.
    #[test]
    fn staged_dropouts_route_to_their_lists() {
        let mut c = deployed_secagg_coordinator();
        let (mut round, _) = c.begin_round(0).unwrap();
        configure(&mut round);
        round.on_dropout_staged(DeviceId(0), 1_000, DropStage::Advertise);
        round.on_dropout(DeviceId(1), 2_000);
        assert_eq!(round.advertise_dropouts(), &[DeviceId(0)]);
        assert_eq!(round.share_dropouts(), &[DeviceId(1)]);
    }

    /// Sec. 4.2: a failed checkpoint write loses the round's result but
    /// must not corrupt coordinator state — round ids and metrics stay
    /// put, and the next round retries from the last good checkpoint.
    #[test]
    fn storage_failure_loses_round_but_keeps_state_consistent() {
        // Attempt 1 is deploy's initial write; attempt 2 (first round
        // commit) fails.
        let mut c = Coordinator::new(
            CoordinatorConfig::new("test/pop", 1),
            crate::storage::FaultyCheckpointStore::new(InMemoryCheckpointStore::new(), [2]),
        );
        let task = FlTask::training("train", "test/pop").with_round(small_round());
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        c.deploy(group, vec![plan], vec![0.0f32; spec().num_params()])
            .unwrap();

        let err = run_one_round(&mut c).unwrap_err();
        assert!(matches!(err, CoreError::StorageFailure(_)));
        // The round is lost: nothing advanced, no metrics materialized.
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(0));
        assert_eq!(c.store().write_count(), 1);
        assert!(c.materialized_metrics().is_empty());
        // The retry (attempt 3, unscripted) succeeds from checkpoint 0.
        let outcome = run_one_round(&mut c).unwrap();
        assert!(outcome.is_committed());
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(1));
        assert_eq!(c.store().write_count(), 2);
        assert_eq!(c.materialized_metrics().len(), 1);
    }
}
