//! Convergence simulation: real federated training end-to-end.
//!
//! Unlike [`crate::fleet`] (protocol dynamics, synthetic payloads), this
//! scenario runs the *actual* stack per round: the `fl-server`
//! [`Coordinator`] serves plans and checkpoints, each selected client's
//! `fl-device` [`FlRuntime`] interprets the plan against its own example
//! store and trains the real `fl-ml` model, and updates flow back as
//! report frames through the round's report path into the streaming
//! Master Aggregator (optionally under Secure Aggregation). This is what
//! regenerates the Sec. 8 next-word-prediction result and the
//! clients-per-round convergence sweep.

use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::RoundConfig;
use fl_core::{CoreError, DeviceId};
use fl_data::store::{InMemoryStore, StoreConfig};
use fl_device::runtime::{ExecutionOutcome, FlRuntime};
use fl_device::session::{report_frame, Payload};
use fl_ml::metrics::top1_accuracy;
use fl_ml::rng;
use fl_ml::Example;
use fl_server::coordinator::{Coordinator, CoordinatorConfig, ReportVerdict};
use fl_server::storage::InMemoryCheckpointStore;
use fl_server::wire::WireMessage;
use rand::RngExt;

/// Configuration of a federated training run.
#[derive(Debug, Clone)]
pub struct TrainingRunConfig {
    /// The model to train.
    pub model: ModelSpec,
    /// Number of federated rounds.
    pub rounds: u64,
    /// Target clients per round (`K`).
    pub clients_per_round: usize,
    /// Over-selection factor (paper: 1.3).
    pub overselection: f64,
    /// Local epochs per client.
    pub local_epochs: usize,
    /// Local minibatch size.
    pub batch_size: usize,
    /// Local learning rate.
    pub learning_rate: f32,
    /// Update compression codec.
    pub codec: CodecSpec,
    /// Secure Aggregation group size `k` (`None` = plain).
    pub secagg_k: Option<usize>,
    /// Server-side DP-FedAvg mechanism (`None` = off).
    pub dp: Option<fl_core::privacy::DpConfig>,
    /// Probability a configured client drops out before reporting.
    pub dropout_probability: f64,
    /// Evaluate on the test set every this many rounds (0 = only at end).
    pub eval_every: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for TrainingRunConfig {
    fn default() -> Self {
        TrainingRunConfig {
            model: ModelSpec::Logistic {
                dim: 16,
                classes: 4,
                seed: 1,
            },
            rounds: 30,
            clients_per_round: 10,
            overselection: 1.3,
            local_epochs: 1,
            batch_size: 16,
            learning_rate: 0.1,
            codec: CodecSpec::Identity,
            secagg_k: None,
            dp: None,
            dropout_probability: 0.08,
            eval_every: 5,
            seed: 99,
        }
    }
}

/// One evaluation point in the run history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Round after which the evaluation ran.
    pub round: u64,
    /// Top-1 accuracy (or recall, for next-token tasks) on the test set.
    pub accuracy: f64,
    /// Clients whose updates were incorporated that round.
    pub incorporated: usize,
}

/// The result of a federated training run.
#[derive(Debug, Clone)]
pub struct TrainingRunReport {
    /// Evaluation history.
    pub history: Vec<EvalPoint>,
    /// Final global parameters.
    pub final_params: Vec<f32>,
    /// Committed rounds.
    pub committed_rounds: u64,
    /// Abandoned rounds.
    pub abandoned_rounds: u64,
    /// Bytes the server sent: one encoded Configuration frame per
    /// configured device.
    pub download_bytes: u64,
    /// Bytes the server received: every encoded report frame.
    pub upload_bytes: u64,
}

impl TrainingRunReport {
    /// Final accuracy (last evaluation point).
    pub fn final_accuracy(&self) -> f64 {
        self.history.last().map_or(0.0, |p| p.accuracy)
    }
}

/// Runs federated training over per-user datasets.
///
/// `users[i]` is user `i`'s on-device data; `test_set` is the held-out
/// global evaluation set.
///
/// # Errors
///
/// Propagates protocol/aggregation errors.
///
/// # Panics
///
/// Panics if `users` is empty or smaller than one round's selection
/// target.
pub fn run_federated(
    config: &TrainingRunConfig,
    users: &[Vec<Example>],
    test_set: &[Example],
) -> Result<TrainingRunReport, CoreError> {
    let target = (config.clients_per_round as f64 * config.overselection).ceil() as usize;
    assert!(!users.is_empty(), "need at least one user");
    assert!(
        users.len() >= target,
        "population of {} smaller than selection target {target}",
        users.len()
    );

    // Build each user's on-device example store once.
    let stores: Vec<InMemoryStore> = users
        .iter()
        .map(|data| InMemoryStore::with_examples(StoreConfig::default(), data.clone(), 0))
        .collect();

    // Deploy the task.
    let round_config = RoundConfig {
        goal_count: config.clients_per_round,
        overselection: config.overselection,
        min_goal_fraction: 0.6,
        selection_timeout_ms: 60_000,
        report_window_ms: 600_000,
        device_cap_ms: 600_000,
    };
    let mut task = FlTask::training("sim-train", "sim/pop").with_round(round_config);
    if let Some(k) = config.secagg_k {
        task = task.with_secagg(k);
    }
    if let Some(dp) = config.dp {
        task = task.with_dp(dp);
    }
    let plan = FlPlan::standard_training(
        config.model,
        config.local_epochs,
        config.batch_size,
        config.learning_rate,
        config.codec,
    );
    let initial = config.model.instantiate().params().to_vec();
    let mut coordinator = Coordinator::new(
        CoordinatorConfig::new("sim/pop", config.seed),
        InMemoryCheckpointStore::new(),
    );
    coordinator.deploy(
        TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
        vec![plan],
        initial,
    )?;

    let runtime = FlRuntime::new(fl_core::plan::CURRENT_RUNTIME_VERSION);
    let mut driver_rng = rng::seeded(config.seed);
    let mut report = TrainingRunReport {
        history: Vec::new(),
        final_params: Vec::new(),
        committed_rounds: 0,
        abandoned_rounds: 0,
        download_bytes: 0,
        upload_bytes: 0,
    };

    let mut now_ms: u64 = 0;
    for round_idx in 1..=config.rounds {
        let (mut round, mut master) = coordinator.begin_round(now_ms)?;
        // Selection: sample `target` distinct users.
        let selected = rng::reservoir_sample(&mut driver_rng, users.len(), target);
        for &u in &selected {
            round.on_checkin(DeviceId(u as u64), now_ms);
        }
        // All participants download the round's Configuration, execute
        // the plan; drop-outs vanish.
        let participants = round.state.participants();
        let configuration = fl_server::wire::encode(&WireMessage::PlanAndCheckpoint {
            plan: Box::new(round.plan.clone()),
            checkpoint: Box::new(round.checkpoint.clone()),
            population: coordinator.population().clone(),
        })
        .map_err(|e| CoreError::InvariantViolated(e.to_string()))?;
        report.download_bytes += (configuration.len() * participants.len()) as u64;
        now_ms += 1_000;
        for d in participants {
            let user = d.0 as usize;
            if driver_rng.random::<f64>() < config.dropout_probability {
                round.on_dropout(d, now_ms);
                continue;
            }
            let outcome =
                runtime.execute(&round.plan.device, &round.checkpoint, &stores[user], None)?;
            match outcome {
                ExecutionOutcome::Completed {
                    update_bytes,
                    weight,
                    loss,
                    accuracy,
                    ..
                } => {
                    if weight == 0 {
                        round.on_dropout(d, now_ms);
                        continue;
                    }
                    // The device's report frame, under the key its
                    // Configuration carried, through the round's one
                    // report path; the round's Master folds it.
                    let key = (round.checkpoint.round, 1);
                    let payload = Payload::Encoded(update_bytes.unwrap_or_default());
                    let metrics = (weight, loss, accuracy);
                    let frame = report_frame(d, coordinator.population(), key, payload, metrics)
                        .map_err(|e| CoreError::InvariantViolated(e.to_string()))?;
                    let frame = fl_server::wire::encode(&frame)
                        .map_err(|e| CoreError::InvariantViolated(e.to_string()))?;
                    report.upload_bytes += frame.len() as u64;
                    let (_, verdict) = round.on_report(now_ms, &frame);
                    if let (ReportVerdict::Forward(route), Some(master)) = (verdict, &mut master) {
                        master.accept_forwarded(&route, &frame)?;
                    }
                }
                ExecutionOutcome::Interrupted { .. } => {
                    round.on_dropout(d, now_ms);
                }
            }
            now_ms += 10;
        }
        // Close the reporting window.
        now_ms += round_config.report_window_ms;
        round.on_tick(now_ms);
        round.record_participation_metrics();
        let aggregate = round.merge(master);
        let outcome = coordinator.complete_round(round, aggregate)?;
        let incorporated = match outcome {
            fl_core::RoundOutcome::Committed { incorporated, .. } => {
                report.committed_rounds += 1;
                incorporated
            }
            _ => {
                report.abandoned_rounds += 1;
                0
            }
        };

        let is_eval_round = config.eval_every > 0 && round_idx % config.eval_every == 0;
        if is_eval_round || round_idx == config.rounds {
            let params = coordinator.global_params("sim-train")?;
            let mut model = config.model.instantiate();
            model.set_params(&params)?;
            let accuracy = if test_set.is_empty() {
                0.0
            } else {
                top1_accuracy(model.as_ref(), test_set)?
            };
            report.history.push(EvalPoint {
                round: round_idx,
                accuracy,
                incorporated,
            });
        }
    }

    report.final_params = coordinator.global_params("sim-train")?;
    Ok(report)
}

/// Centralized SGD baseline over pooled data — the "server-trained" model
/// of Sec. 8 that FL is compared against.
///
/// # Errors
///
/// Propagates model errors.
pub fn run_centralized(
    model_spec: ModelSpec,
    train: &[Example],
    test: &[Example],
    epochs: usize,
    batch_size: usize,
    learning_rate: f32,
    seed: u64,
) -> Result<f64, CoreError> {
    use fl_ml::optim::{Optimizer, Sgd};
    let mut model = model_spec.instantiate();
    let mut opt = Sgd::new(learning_rate);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut shuffle_rng = rng::seeded(seed);
    for _ in 0..epochs {
        // Fresh shuffle each epoch.
        for i in (1..order.len()).rev() {
            let j = shuffle_rng.random_range(0..=i);
            order.swap(i, j);
        }
        let shuffled: Vec<Example> = order.iter().map(|&i| train[i].clone()).collect();
        for chunk in shuffled.chunks(batch_size.max(1)) {
            let (_, grad) = model.loss_and_grad(chunk)?;
            opt.step(model.params_mut(), &grad);
        }
    }
    Ok(top1_accuracy(model.as_ref(), test)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_data::synth::classification::{generate, ClassificationConfig};

    fn dataset() -> fl_data::synth::classification::FederatedClassification {
        generate(&ClassificationConfig {
            users: 40,
            examples_per_user: 40,
            separation: 3.0,
            noise: 0.8,
            ..Default::default()
        })
    }

    #[test]
    fn federated_training_converges_on_separable_data() {
        let data = dataset();
        let config = TrainingRunConfig {
            rounds: 25,
            clients_per_round: 8,
            learning_rate: 0.2,
            local_epochs: 2,
            ..Default::default()
        };
        let report = run_federated(&config, &data.users, &data.test_set).unwrap();
        assert!(report.committed_rounds >= 20);
        let final_acc = report.final_accuracy();
        assert!(final_acc > 0.85, "final accuracy {final_acc}");
        // Accuracy does not degrade over the run (it may already be near
        // the ceiling at the first evaluation).
        let first = report.history.first().unwrap().accuracy;
        assert!(
            final_acc >= first - 0.02,
            "accuracy degraded: {first} -> {final_acc}"
        );
    }

    #[test]
    fn federated_matches_centralized_shape() {
        let data = dataset();
        let config = TrainingRunConfig {
            rounds: 30,
            clients_per_round: 10,
            learning_rate: 0.2,
            local_epochs: 2,
            ..Default::default()
        };
        let fed = run_federated(&config, &data.users, &data.test_set)
            .unwrap()
            .final_accuracy();
        let central = run_centralized(
            config.model,
            &data.users.concat(),
            &data.test_set,
            3,
            16,
            0.2,
            7,
        )
        .unwrap();
        assert!(
            (fed - central).abs() < 0.1,
            "federated {fed} vs centralized {central}"
        );
    }

    #[test]
    fn secagg_run_matches_plain_run_closely() {
        let data = dataset();
        let base = TrainingRunConfig {
            rounds: 10,
            clients_per_round: 8,
            learning_rate: 0.2,
            dropout_probability: 0.0,
            ..Default::default()
        };
        let plain = run_federated(&base, &data.users, &data.test_set).unwrap();
        let secure = run_federated(
            &TrainingRunConfig {
                secagg_k: Some(4),
                ..base
            },
            &data.users,
            &data.test_set,
        )
        .unwrap();
        // Same selection stream (same seed) → near-identical trajectories
        // up to fixed-point quantization.
        assert_eq!(plain.committed_rounds, secure.committed_rounds);
        let diff = (plain.final_accuracy() - secure.final_accuracy()).abs();
        assert!(diff < 0.05, "accuracy diverged by {diff}");
    }

    /// Upload is what the devices' report frames hold: with no
    /// drop-outs every configured device sends one Identity-coded frame a
    /// round, all of one length.
    #[test]
    fn upload_bytes_are_the_encoded_report_frames() {
        let data = dataset();
        let config = TrainingRunConfig {
            rounds: 3,
            dropout_probability: 0.0,
            ..Default::default()
        };
        let report = run_federated(&config, &data.users, &data.test_set).unwrap();
        let update = vec![0.0; config.model.num_params()];
        let key = (fl_core::RoundId(0), 1);
        let message = report_frame(
            DeviceId(0),
            &"sim/pop".into(),
            key,
            Payload::Identity(&update),
            (1, 0.0, 0.0),
        )
        .unwrap();
        let frame = fl_server::wire::encode(&message).unwrap();
        let configured = (config.clients_per_round as f64 * config.overselection).ceil() as u64;
        assert_eq!(
            report.upload_bytes,
            config.rounds * configured * frame.len() as u64
        );
    }

    /// The quantizing codec's claim is about what it encodes: the report
    /// payloads it uploads are under 2/5 of the Identity run's, and its
    /// frames are strictly smaller. A payload is a frame less the report
    /// envelope, the frame of the same report with an empty payload, which
    /// on a 68-parameter model is most of the frame.
    #[test]
    fn compression_still_converges() {
        let data = dataset();
        let config = TrainingRunConfig {
            rounds: 25,
            clients_per_round: 8,
            learning_rate: 0.2,
            local_epochs: 2,
            codec: CodecSpec::Quantize { block: 64 },
            ..Default::default()
        };
        let report = run_federated(&config, &data.users, &data.test_set).unwrap();
        assert!(report.final_accuracy() > 0.8);
        let identity = TrainingRunConfig {
            codec: CodecSpec::Identity,
            ..config
        };
        let id_report = run_federated(&identity, &data.users, &data.test_set).unwrap();
        // Every frame of a run is one length: its envelope and the codec's
        // encoding of the model's parameters.
        let report_frame_len = |payload: Vec<u8>| {
            let message = report_frame(
                DeviceId(0),
                &"sim/pop".into(),
                (fl_core::RoundId(0), 1),
                Payload::Encoded(payload),
                (1, 0.0, 0.0),
            )
            .unwrap();
            fl_server::wire::encoded_len(&message) as u64
        };
        let envelope = report_frame_len(Vec::new());
        let params = vec![0.0; config.model.num_params()];
        let payload_bytes = |run: &TrainingRunReport, codec: CodecSpec| {
            let frame = report_frame_len(codec.build().encode(&params));
            assert_eq!(
                run.upload_bytes % frame,
                0,
                "{codec:?} frames of one length"
            );
            let frames = run.upload_bytes / frame;
            (frame, frames * (frame - envelope))
        };
        let (frame, payload) = payload_bytes(&report, config.codec);
        let (id_frame, id_payload) = payload_bytes(&id_report, identity.codec);
        assert!(frame < id_frame, "{frame} B frames against {id_frame} B");
        assert!(
            payload < id_payload * 2 / 5,
            "{payload} payload bytes against {id_payload}"
        );
    }

    #[test]
    fn dp_with_moderate_noise_still_converges() {
        let data = dataset();
        let config = TrainingRunConfig {
            rounds: 25,
            clients_per_round: 10,
            learning_rate: 0.2,
            local_epochs: 2,
            dp: Some(fl_core::privacy::DpConfig {
                clip_norm: 50.0,
                noise_multiplier: 0.002,
                noise_seed: 13,
            }),
            ..Default::default()
        };
        let report = run_federated(&config, &data.users, &data.test_set).unwrap();
        assert!(
            report.final_accuracy() > 0.75,
            "DP run accuracy {}",
            report.final_accuracy()
        );
    }

    #[test]
    fn heavy_dp_noise_degrades_accuracy() {
        let data = dataset();
        let base = TrainingRunConfig {
            rounds: 15,
            clients_per_round: 10,
            learning_rate: 0.2,
            local_epochs: 2,
            ..Default::default()
        };
        let clean = run_federated(&base, &data.users, &data.test_set)
            .unwrap()
            .final_accuracy();
        let noisy = run_federated(
            &TrainingRunConfig {
                dp: Some(fl_core::privacy::DpConfig {
                    clip_norm: 1.0,
                    noise_multiplier: 5.0,
                    noise_seed: 13,
                }),
                ..base
            },
            &data.users,
            &data.test_set,
        )
        .unwrap()
        .final_accuracy();
        assert!(
            noisy < clean - 0.05,
            "heavy noise must cost accuracy: clean {clean}, noisy {noisy}"
        );
    }

    #[test]
    fn dropouts_reduce_incorporated_but_not_convergence() {
        let data = dataset();
        let config = TrainingRunConfig {
            rounds: 20,
            clients_per_round: 8,
            dropout_probability: 0.25,
            learning_rate: 0.2,
            local_epochs: 2,
            ..Default::default()
        };
        let report = run_federated(&config, &data.users, &data.test_set).unwrap();
        // Over-selection absorbs the drop-outs.
        assert!(report.committed_rounds >= 15);
        assert!(report.final_accuracy() > 0.8);
    }
}
