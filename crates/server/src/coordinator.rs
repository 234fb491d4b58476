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
//! at a time ([`ActiveRound`]), commits fully-aggregated checkpoints to
//! storage, and accounts traffic. It is deterministic and explicitly
//! clocked; `fl-sim` and the live actors both drive it.

use crate::aggregator::{AggregationPlan, DropStage, MasterAggregator, MergeOutcome};
use crate::round::{CheckinResponse, ReportResponse, RoundState};
use crate::storage::CheckpointStore;
use fl_core::plan::FlPlan;
use fl_core::population::{TaskGroup, TaskKind};
use fl_core::traffic::{TrafficCounter, TrafficKind};
use fl_core::{CoreError, DeviceId, FlCheckpoint, FlTask, PopulationName, RoundId};
use fl_ml::metrics::MetricSummary;
use fl_ml::rng;
use rand::RngExt;
use std::collections::HashMap;

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
    traffic: TrafficCounter,
    /// Materialized metrics per task per round (Sec. 7.4).
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
            traffic: TrafficCounter::new(),
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

    /// Read access to traffic accounting.
    pub fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }

    /// SecAgg shards that aborted below threshold across every completed
    /// round so far. Aborted shards cost their group's contributions;
    /// the round still commits from the surviving shards.
    pub fn secagg_shard_aborts(&self) -> u64 {
        self.secagg_shard_aborts
    }

    /// Read access to the checkpoint store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Materialized metrics: `(task, round, summaries)` tuples.
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
    /// spawns the Master Aggregator.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] if nothing is deployed.
    pub fn begin_round(&mut self, now_ms: u64) -> Result<ActiveRound, CoreError> {
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
        let dim = deployment.plan.server.expected_dim;
        let mut plan = if let Some(k) = task.secagg_group_size {
            AggregationPlan::with_secagg(dim, self.config.max_per_shard, k)
        } else {
            AggregationPlan::plain(dim, self.config.max_per_shard)
        };
        if let Some(dp) = task.dp {
            plan = plan.with_dp(dp);
        }
        let mut seed_rng = rng::seeded_stream(self.config.seed, self.round_counter);
        let master = MasterAggregator::new(
            plan,
            deployment.plan.server.update_codec,
            task.round.selection_target(),
            seed_rng.random::<u64>(),
        );
        self.round_counter += 1;
        Ok(ActiveRound {
            task: task.clone(),
            plan: deployment.plan.clone(),
            checkpoint,
            state: RoundState::begin(round_id, task.round, now_ms),
            master: Some(master),
            advertise_dropouts: Vec::new(),
            share_dropouts: Vec::new(),
            loss_summary: MetricSummary::new("loss"),
            accuracy_summary: MetricSummary::new("accuracy"),
            train_time_summary: MetricSummary::new("participation_ms"),
            traffic_delta: TrafficCounter::new(),
        })
    }

    /// Completes a finished round that folded its reports inline: closes
    /// the [`MasterAggregator`] the round still owns, then takes the one
    /// completion path, [`complete_round_with`](Coordinator::complete_round_with).
    ///
    /// # Errors
    ///
    /// As [`complete_round_with`](Coordinator::complete_round_with).
    pub fn complete_round(&mut self, mut round: ActiveRound) -> Result<fl_core::RoundOutcome, CoreError> {
        let aggregate = match round.master.take() {
            Some(master) if round.commits_training() => Some(
                master
                    .finalize(
                        round.checkpoint.params(),
                        &round.advertise_dropouts,
                        &round.share_dropouts,
                    )
                    .map_err(|e| CoreError::MalformedCheckpoint(e.to_string())),
            ),
            _ => None,
        };
        self.complete_round_with(round, aggregate)
    }

    /// Completes a finished round: commits the new checkpoint (committed
    /// training rounds only — exactly one write), materializes metrics,
    /// returns the outcome. `aggregate` is the Master Aggregator's
    /// finalize result — from the round's own master
    /// ([`complete_round`](Coordinator::complete_round)) or from the
    /// detached one the live actor tree ran as a `MasterAggregatorActor`
    /// ([`ActiveRound::detach_master`]); it is only required, and only
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
    pub fn complete_round_with(
        &mut self,
        round: ActiveRound,
        aggregate: Option<Result<MergeOutcome, CoreError>>,
    ) -> Result<fl_core::RoundOutcome, CoreError> {
        let outcome = round
            .state
            .outcome()
            .ok_or_else(|| CoreError::UnknownTask("round not finished".into()))?;
        // The bandwidth was spent whether or not the commit below lands.
        self.traffic.merge(&round.traffic_delta);
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

/// One in-flight round: the state machine plus the aggregation pipeline
/// and traffic/metrics accounting for its devices.
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
    /// The round's aggregation pipeline, until it is detached for
    /// actor-based driving: a round folds accepted reports inline exactly
    /// when it still owns its master.
    master: Option<MasterAggregator>,
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
    /// Traffic accumulated during the round, merged into the coordinator
    /// at completion.
    traffic_delta: TrafficCounter,
}

impl ActiveRound {
    /// A device checks in; on selection, the plan and checkpoint downloads
    /// are accounted.
    pub fn on_checkin(&mut self, device: DeviceId, now_ms: u64) -> CheckinResponse {
        let response = self.state.on_checkin(device, now_ms);
        if response == CheckinResponse::Selected {
            self.traffic_delta
                .record(TrafficKind::Plan, self.plan.device.encoded_size());
            self.traffic_delta
                .record(TrafficKind::Checkpoint, self.checkpoint.encoded_size());
        }
        response
    }

    /// Clock tick (timeouts).
    pub fn on_tick(&mut self, now_ms: u64) {
        self.state.on_tick(now_ms);
    }

    /// A device reports: `update_bytes` is the codec-encoded update
    /// (empty for evaluation tasks), `weight` its example count, plus its
    /// local metrics.
    ///
    /// # Errors
    ///
    /// Aggregation/decode errors for accepted training reports.
    pub fn on_report(
        &mut self,
        device: DeviceId,
        now_ms: u64,
        update_bytes: &[u8],
        weight: u64,
        loss: f64,
        accuracy: f64,
    ) -> Result<ReportResponse, CoreError> {
        self.account_report(
            device,
            now_ms,
            update_bytes.len(),
            loss,
            accuracy,
            |master| master.accept(device, update_bytes, weight),
        )
    }

    /// A device reports through the SecAgg path: `field` is its
    /// fixed-point-encoded contribution, one `u64` coordinate per model
    /// parameter, as carried (masked) by a
    /// [`fl_wire::WireMessage::SecAggReport`]. Uploads cost 8 bytes per
    /// coordinate, so SecAgg's bandwidth premium over codec-compressed
    /// clear updates shows up in the round's measured traffic.
    ///
    /// # Errors
    ///
    /// Dimension errors for accepted reports, or SecAgg not enabled on
    /// this round's plan.
    pub fn on_secagg_report(
        &mut self,
        device: DeviceId,
        now_ms: u64,
        field: &[u64],
        weight: u64,
        loss: f64,
        accuracy: f64,
    ) -> Result<ReportResponse, CoreError> {
        self.account_report(device, now_ms, field.len() * 8, loss, accuracy, |master| {
            master.accept_field(device, field, weight)
        })
    }

    /// The accounting of a report whose payload is folded elsewhere: the
    /// round's master was detached ([`ActiveRound::detach_master`]) and
    /// the caller forwards the `payload_bytes`-long upload (plain or
    /// SecAgg alike) to it untouched. Verdict, traffic and metrics are
    /// exactly those of [`ActiveRound::on_report`] /
    /// [`ActiveRound::on_secagg_report`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvariantViolated`] if an accepted training report
    /// arrives here while the round still owns its master: nothing would
    /// fold it.
    pub fn on_forwarded_report(
        &mut self,
        device: DeviceId,
        now_ms: u64,
        payload_bytes: usize,
        loss: f64,
        accuracy: f64,
    ) -> Result<ReportResponse, CoreError> {
        self.account_report(device, now_ms, payload_bytes, loss, accuracy, |_| {
            Err(CoreError::InvariantViolated(
                "report forwarded past a master that was never detached".into(),
            ))
        })
    }

    /// The one report path: the state machine's verdict, the upload's
    /// traffic, and for an accepted report the inline `fold` into the
    /// master (training rounds that still own theirs) and its metrics.
    fn account_report(
        &mut self,
        device: DeviceId,
        now_ms: u64,
        payload_bytes: usize,
        loss: f64,
        accuracy: f64,
        fold: impl FnOnce(&mut MasterAggregator) -> Result<(), CoreError>,
    ) -> Result<ReportResponse, CoreError> {
        let response = self.state.on_report(device, now_ms);
        // Upload bandwidth is spent whether or not the server keeps it.
        if payload_bytes > 0 {
            self.traffic_delta
                .record(TrafficKind::Update, payload_bytes);
        }
        self.traffic_delta.record(TrafficKind::Metrics, 32);
        if response == ReportResponse::Accepted {
            if let (TaskKind::Training, Some(master)) = (self.task.kind, &mut self.master) {
                fold(master)?;
            }
            self.loss_summary.push(loss);
            self.accuracy_summary.push(accuracy);
        }
        Ok(response)
    }

    /// Detaches the round's [`MasterAggregator`] so it can run as an actor
    /// tree (the paper's Coordinator → Master Aggregator → Aggregators
    /// topology, Sec. 4.1). After detaching, the caller owns routing
    /// accepted training reports to the detached aggregator and hands its
    /// finalize result to [`Coordinator::complete_round_with`]. Returns
    /// `None` if already detached.
    pub fn detach_master(&mut self) -> Option<MasterAggregator> {
        self.master.take()
    }

    /// Whether the finished round commits a new training checkpoint —
    /// the only rounds whose aggregate is ever merged.
    pub fn commits_training(&self) -> bool {
        self.task.kind == TaskKind::Training
            && self.state.outcome().is_some_and(|o| o.is_committed())
    }

    /// Devices that vanished after advertising keys (needed when a
    /// detached master is finalized).
    pub fn advertise_dropouts(&self) -> &[DeviceId] {
        &self.advertise_dropouts
    }

    /// Devices that vanished after sharing keys (needed when a detached
    /// master is finalized).
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

    /// The traffic recorded so far in this round.
    pub fn traffic(&self) -> &TrafficCounter {
        &self.traffic_delta
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

    fn run_one_round(c: &mut Coordinator<InMemoryCheckpointStore>) -> fl_core::RoundOutcome {
        let mut round = c.begin_round(0).unwrap();
        // 4 devices check in (target = ceil(3 × 1.34) = 5? no: 4.02 → 5).
        let target = round.task.round.selection_target();
        for i in 0..target {
            round.on_checkin(DeviceId(i as u64), 100);
        }
        let devices = round.state.participants();
        let dim = round.plan.server.expected_dim;
        let update = vec![0.5f32; dim];
        let bytes = CodecSpec::Identity.build().encode(&update);
        for d in devices.iter().take(3) {
            round
                .on_report(*d, 5_000, &bytes, 10, 0.7, 0.6)
                .unwrap();
        }
        round.on_tick(40_000);
        round.record_participation_metrics();
        c.complete_round(round).unwrap()
    }

    #[test]
    fn committed_round_updates_checkpoint_once() {
        let mut c = deployed_coordinator();
        let writes_before = c.store().write_count();
        let outcome = run_one_round(&mut c);
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
        run_one_round(&mut c);
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(1));
        run_one_round(&mut c);
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(2));
    }

    #[test]
    fn abandoned_round_commits_nothing() {
        let mut c = deployed_coordinator();
        let mut round = c.begin_round(0).unwrap();
        round.on_checkin(DeviceId(0), 100); // one device only
        round.on_tick(10_000); // selection timeout, below minimum
        let outcome = c.complete_round(round).unwrap();
        assert!(!outcome.is_committed());
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(0));
    }

    #[test]
    fn traffic_shows_download_dominance() {
        let mut c = deployed_coordinator();
        run_one_round(&mut c);
        let t = c.traffic();
        assert!(t.download_bytes() > 0 && t.upload_bytes() > 0);
        // Plan ≈ model and both downloaded per device; uploads are one
        // update per reporting device.
        assert!(t.asymmetry() > 1.0, "asymmetry {}", t.asymmetry());
    }

    #[test]
    fn metrics_are_materialized_per_committed_round() {
        let mut c = deployed_coordinator();
        run_one_round(&mut c);
        let m = c.materialized_metrics();
        assert_eq!(m.len(), 1);
        let (task, round, summaries) = &m[0];
        assert_eq!(task, "train");
        assert_eq!(*round, RoundId(1));
        assert_eq!(summaries[0].name, "loss");
        assert_eq!(summaries[0].moments.count(), 3);
    }

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
        let r1 = c.begin_round(0).unwrap();
        assert_eq!(r1.task.kind, TaskKind::Training);
        c.complete_round_discard(r1);
        let r2 = c.begin_round(0).unwrap();
        assert_eq!(r2.task.kind, TaskKind::Evaluation);
    }

    impl Coordinator<InMemoryCheckpointStore> {
        /// Test helper: abandon an active round without finishing it.
        fn complete_round_discard(&mut self, _round: ActiveRound) {}
    }

    /// Regression: a respawned coordinator re-deploying the same task must
    /// resume from the committed model, not clobber it with the initial
    /// parameters (pre-fix, `deploy` unconditionally committed RoundId(0)
    /// with the init params, losing the trained model and inflating the
    /// write counter).
    #[test]
    fn redeploy_resumes_from_committed_checkpoint() {
        let mut c = deployed_coordinator();
        run_one_round(&mut c);
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
        let round = c2.begin_round(0).unwrap();
        assert_eq!(round.checkpoint.round, RoundId(1));
        assert_eq!(round.state.round, RoundId(2));
    }

    /// A round whose master was detached and driven outside the
    /// coordinator, as the live actor tree does, commits identical bytes
    /// to the inline path, with the same one-write invariant.
    #[test]
    fn detached_aggregation_commits_identically_to_inline() {
        let mut inline = deployed_coordinator();
        assert!(run_one_round(&mut inline).is_committed());

        let mut external = deployed_coordinator();
        let mut round = external.begin_round(0).unwrap();
        let target = round.task.round.selection_target();
        for i in 0..target {
            round.on_checkin(DeviceId(i as u64), 100);
        }
        let mut master = round.detach_master().expect("round built a master");
        assert!(round.detach_master().is_none(), "detach is one-shot");
        let devices = round.state.participants();
        let dim = round.plan.server.expected_dim;
        let bytes = CodecSpec::Identity.build().encode(&vec![0.5f32; dim]);
        for d in devices.iter().take(3) {
            // Protocol accounting stays in the round; the update bytes
            // flow to the detached aggregator.
            round.on_report(*d, 5_000, &bytes, 10, 0.7, 0.6).unwrap();
            master.accept(*d, &bytes, 10).unwrap();
        }
        round.on_tick(40_000);
        round.record_participation_metrics();
        let aggregate = master
            .finalize(
                round.checkpoint.params(),
                round.advertise_dropouts(),
                round.share_dropouts(),
            )
            .map_err(|e| CoreError::MalformedCheckpoint(e.to_string()));
        let outcome = external
            .complete_round_with(round, Some(aggregate))
            .unwrap();
        assert!(outcome.is_committed());
        assert_eq!(
            external.global_params("train").unwrap(),
            inline.global_params("train").unwrap()
        );
        assert_eq!(external.store().write_count(), 2); // init + one commit
    }

    /// A committed training round whose master was detached, completed
    /// without an aggregate, is an invariant violation, not a silent
    /// empty commit.
    #[test]
    fn detached_completion_requires_an_aggregate() {
        let mut c = deployed_coordinator();
        let mut round = c.begin_round(0).unwrap();
        let target = round.task.round.selection_target();
        for i in 0..target {
            round.on_checkin(DeviceId(i as u64), 100);
        }
        round.detach_master();
        let devices = round.state.participants();
        let dim = round.plan.server.expected_dim;
        let bytes = CodecSpec::Identity.build().encode(&vec![0.5f32; dim]);
        for d in devices.iter().take(3) {
            round.on_report(*d, 5_000, &bytes, 10, 0.7, 0.6).unwrap();
        }
        round.on_tick(40_000);
        let err = c.complete_round(round).unwrap_err();
        assert!(matches!(err, CoreError::InvariantViolated(_)));
    }

    fn deployed_faulty_coordinator(
        fail_on: impl IntoIterator<Item = u64>,
    ) -> Coordinator<crate::storage::FaultyCheckpointStore<InMemoryCheckpointStore>> {
        let mut c = Coordinator::new(
            CoordinatorConfig::new("test/pop", 1),
            crate::storage::FaultyCheckpointStore::new(InMemoryCheckpointStore::new(), fail_on),
        );
        let task = FlTask::training("train", "test/pop").with_round(small_round());
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
        c.deploy(group, vec![plan], vec![0.0f32; spec().num_params()])
            .unwrap();
        c
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

    /// SecAgg reports (fixed-point field vectors) through the inline
    /// coordinator path commit the same model as clear reports within
    /// quantization error, while uploading 8 bytes per coordinate — the
    /// SecAgg bandwidth premium is measured, not assumed.
    #[test]
    fn secagg_reports_commit_inline_with_bandwidth_premium() {
        let mut clear = deployed_coordinator();
        run_one_round(&mut clear);
        let clear_params = clear.global_params("train").unwrap();

        let mut c = deployed_secagg_coordinator();
        let mut round = c.begin_round(0).unwrap();
        let target = round.task.round.selection_target();
        for i in 0..target {
            round.on_checkin(DeviceId(i as u64), 100);
        }
        let devices = round.state.participants();
        let dim = round.plan.server.expected_dim;
        let encoder = fl_ml::fixedpoint::FixedPointEncoder::default_for_updates();
        let field = encoder.encode(&vec![0.5f32; dim]).unwrap();
        for d in devices.iter().take(3) {
            let r = round
                .on_secagg_report(*d, 5_000, &field, 10, 0.7, 0.6)
                .unwrap();
            assert_eq!(r, ReportResponse::Accepted);
        }
        round.on_tick(40_000);
        round.record_participation_metrics();
        let upload = round.traffic().upload_bytes();
        assert!(
            upload >= 3 * dim as u64 * 8,
            "secagg upload premium missing: {upload} bytes for {dim} params"
        );
        let outcome = c.complete_round(round).unwrap();
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
        let mut round = c.begin_round(0).unwrap();
        let target = round.task.round.selection_target();
        for i in 0..target {
            round.on_checkin(DeviceId(i as u64), 100);
        }
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
        let mut c = deployed_faulty_coordinator([2]);

        let run = |c: &mut Coordinator<_>| -> Result<fl_core::RoundOutcome, CoreError> {
            let mut round = c.begin_round(0)?;
            let target = round.task.round.selection_target();
            for i in 0..target {
                round.on_checkin(DeviceId(i as u64), 100);
            }
            let devices = round.state.participants();
            let dim = round.plan.server.expected_dim;
            let bytes = CodecSpec::Identity.build().encode(&vec![0.5f32; dim]);
            for d in devices.iter().take(3) {
                round.on_report(*d, 5_000, &bytes, 10, 0.7, 0.6)?;
            }
            round.on_tick(40_000);
            c.complete_round(round)
        };

        let err = run(&mut c).unwrap_err();
        assert!(matches!(err, CoreError::StorageFailure(_)));
        // The round is lost: nothing advanced, no metrics materialized.
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(0));
        assert_eq!(c.store().write_count(), 1);
        assert!(c.materialized_metrics().is_empty());
        // The retry (attempt 3, unscripted) succeeds from checkpoint 0.
        let outcome = run(&mut c).unwrap();
        assert!(outcome.is_committed());
        assert_eq!(c.store().latest("train").unwrap().round, RoundId(1));
        assert_eq!(c.store().write_count(), 2);
        assert_eq!(c.materialized_metrics().len(), 1);
    }
}
