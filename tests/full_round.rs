//! End-to-end integration: a complete FL round across every crate —
//! coordinator, selector, pace steering, device runtime, example stores,
//! aggregation (plain and secure), checkpoint storage, session analytics.

use federated::analytics::SessionShapeTable;
use federated::core::events::DeviceEvent;
use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, PopulationName};
use federated::data::store::{InMemoryStore, StoreConfig};
use federated::data::synth::classification::{generate, ClassificationConfig};
use federated::device::runtime::{ExecutionOutcome, FlRuntime, Interruption};
use federated::server::aggregator::MasterAggregator;
use federated::server::coordinator::{ActiveRound, Coordinator, CoordinatorConfig, ReportVerdict};
use federated::server::pace::PaceSteering;
use federated::server::selector::{CheckinDecision, Selector};
use federated::server::storage::{CheckpointStore, InMemoryCheckpointStore};
use federated::server::wire::{self, WireMessage};

fn spec() -> ModelSpec {
    ModelSpec::Logistic {
        dim: 16,
        classes: 4,
        seed: 1,
    }
}

fn round_config(goal: usize) -> RoundConfig {
    RoundConfig {
        goal_count: goal,
        overselection: 1.3,
        min_goal_fraction: 0.7,
        selection_timeout_ms: 60_000,
        report_window_ms: 300_000,
        device_cap_ms: 250_000,
    }
}

/// `device` reports `update_bytes` to `round` as the `UpdateReport` frame
/// a real device sends, under the key its Configuration carried; the
/// round's Master folds an accepted report. Returns whether it was
/// accepted, and the frame's length.
fn report(
    round: &mut ActiveRound,
    master: &mut Option<MasterAggregator>,
    device: DeviceId,
    now: u64,
    update_bytes: Vec<u8>,
    (weight, loss, accuracy): (u64, f64, f64),
    population: &str,
) -> (bool, usize) {
    let frame = wire::encode(&WireMessage::UpdateReport {
        device,
        round: round.checkpoint.round,
        attempt: 1,
        update_bytes,
        weight,
        loss,
        accuracy,
        population: population.into(),
    })
    .unwrap();
    let (ack, verdict) = round.on_report(now, &frame);
    if let (ReportVerdict::Forward(route), Some(master)) = (verdict, master.as_mut()) {
        master.accept_forwarded(&route, &frame).unwrap();
    }
    let accepted = matches!(ack, WireMessage::ReportAck { accepted: true, .. });
    (accepted, frame.len())
}

/// Drives one full round "by hand", as the simulator does internally, but
/// asserting every intermediate property along the way.
#[test]
fn manual_round_with_selector_devices_and_analytics() {
    let data = generate(&ClassificationConfig {
        users: 30,
        examples_per_user: 40,
        ..Default::default()
    });
    let stores: Vec<InMemoryStore> = data
        .users
        .iter()
        .map(|d| InMemoryStore::with_examples(StoreConfig::default(), d.clone(), 0))
        .collect();

    // Deploy.
    let task = FlTask::training("it/train", "it-pop").with_round(round_config(10));
    let plan = FlPlan::standard_training(spec(), 2, 16, 0.2, CodecSpec::Quantize { block: 64 });
    let mut coordinator = Coordinator::new(
        CoordinatorConfig::new("it-pop", 5),
        InMemoryCheckpointStore::new(),
    );
    coordinator
        .deploy(
            TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
            vec![plan],
            spec().instantiate().params().to_vec(),
        )
        .unwrap();
    let writes_before = coordinator.store().write_count();

    // Selector layer: 30 devices check in, quota 13 (1.3 × 10).
    let population = PopulationName::new("it-pop");
    let mut selector = Selector::new(PaceSteering::new(60_000, 13), 30, 2);
    selector.set_population_quota(population.clone(), 13);
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for i in 0..30u64 {
        match selector.on_checkin_for(&population, DeviceId(i), 1_000, 1.0) {
            CheckinDecision::Accept => accepted.push(DeviceId(i)),
            CheckinDecision::Reject { retry_at_ms } => {
                assert!(retry_at_ms > 1_000, "pace steering must defer");
                rejected += 1;
            }
            shed @ CheckinDecision::Shed { .. } => panic!("no admission control, yet {shed:?}"),
        }
    }
    assert_eq!(accepted.len(), 13);
    assert_eq!(rejected, 17);

    // Forward to the round.
    let (mut round, mut master) = coordinator.begin_round(1_000).unwrap();
    let forwarded = selector.forward_devices_for(&population, 13, 1_000);
    for d in &forwarded {
        round.on_checkin(*d, 1_500);
    }
    assert_eq!(round.state.participants().len(), 13);
    // Each configured device downloads the round's Configuration frame.
    let configuration = wire::encode(&WireMessage::PlanAndCheckpoint {
        plan: Box::new(round.plan.clone()),
        checkpoint: Box::new(round.checkpoint.clone()),
        population: population.clone(),
    })
    .unwrap();
    let download = 13 * configuration.len();
    let mut upload = 0;

    // Devices execute the plan; one is interrupted, one drops out.
    let runtime = FlRuntime::new(3);
    let mut sessions = SessionShapeTable::new();
    let mut now = 2_000u64;
    for (idx, d) in forwarded.iter().enumerate() {
        let mut log = String::new();
        log.push(DeviceEvent::CheckIn.glyph());
        log.push(DeviceEvent::PlanDownloaded.glyph());
        let interruption = (idx == 0).then_some(Interruption::BeforeOp(3));
        if idx == 1 {
            // Network drop-out before reporting.
            round.on_dropout(*d, now);
            log.push(DeviceEvent::TrainingStarted.glyph());
            log.push(DeviceEvent::Error.glyph());
            sessions.record_shape(&log);
            continue;
        }
        let outcome = runtime
            .execute(
                &round.plan.device,
                &round.checkpoint,
                &stores[d.0 as usize],
                interruption,
            )
            .unwrap();
        match outcome {
            ExecutionOutcome::Completed {
                update_bytes,
                weight,
                loss,
                accuracy,
                events,
                ..
            } => {
                log.extend(events.iter().map(DeviceEvent::glyph));
                log.push(DeviceEvent::UploadStarted.glyph());
                let metrics = (weight, loss, accuracy);
                let bytes = update_bytes.unwrap();
                let (accepted, sent) =
                    report(&mut round, &mut master, *d, now, bytes, metrics, "it-pop");
                upload += sent;
                if accepted {
                    log.push(DeviceEvent::UploadCompleted.glyph());
                } else {
                    log.push(DeviceEvent::UploadRejected.glyph());
                }
            }
            ExecutionOutcome::Interrupted { events, .. } => {
                log.extend(events.iter().map(DeviceEvent::glyph));
                round.on_dropout(*d, now);
            }
        }
        sessions.record_shape(&log);
        now += 1_000;
    }

    // Close and commit.
    round.on_tick(1_000 + 300_000);
    round.record_participation_metrics();
    let aggregate = round.merge(master);
    let outcome = coordinator.complete_round(round, aggregate).unwrap();
    assert!(outcome.is_committed(), "outcome: {outcome:?}");

    // Exactly one storage write for the round (no per-device persistence).
    assert_eq!(coordinator.store().write_count(), writes_before + 1);

    // The global model moved.
    let params = coordinator.global_params("it/train").unwrap();
    let init = spec().instantiate().params().to_vec();
    let moved = params.iter().zip(&init).any(|(a, b)| (a - b).abs() > 1e-6);
    assert!(moved, "global model must change after a committed round");

    // Session analytics: successful sessions dominate; Table 1 shapes
    // appear.
    let rows = sessions.rows();
    let row = |shape: &str| rows.iter().find(|(s, _, _)| s == shape).unwrap();
    assert!(row("-v[]+^").2 > 50.0);
    assert_eq!(row("-v[!").1, 1); // the interrupted device
    assert_eq!(row("-v[*").1, 1); // the failed device

    // Server traffic, in frame bytes: download dominates (plan ≈ model
    // + checkpoint down; compressed updates up).
    let asymmetry = download as f64 / upload as f64;
    assert!(asymmetry > 2.0, "asymmetry {asymmetry}");

    // Metrics materialized for the committed round.
    let metrics = coordinator.materialized_metrics();
    assert_eq!(metrics.len(), 1);
    assert!(metrics[0].2.iter().any(|s| s.name == "loss"));
}

/// The same round flow with Secure Aggregation enabled end-to-end: the
/// final parameters must match the plain-aggregation run up to
/// fixed-point error.
#[test]
fn secagg_round_matches_plain_round() {
    let data = generate(&ClassificationConfig {
        users: 16,
        examples_per_user: 30,
        ..Default::default()
    });
    let stores: Vec<InMemoryStore> = data
        .users
        .iter()
        .map(|d| InMemoryStore::with_examples(StoreConfig::default(), d.clone(), 0))
        .collect();

    let run = |secagg: Option<usize>| -> Vec<f32> {
        let mut task = FlTask::training("sa/train", "sa-pop").with_round(round_config(8));
        if let Some(k) = secagg {
            task = task.with_secagg(k);
        }
        let plan = FlPlan::standard_training(spec(), 1, 16, 0.2, CodecSpec::Identity);
        let mut coordinator = Coordinator::new(
            CoordinatorConfig::new("sa-pop", 5),
            InMemoryCheckpointStore::new(),
        );
        coordinator
            .deploy(
                TaskGroup::new(vec![task], TaskSelectionStrategy::Single),
                vec![plan],
                spec().instantiate().params().to_vec(),
            )
            .unwrap();
        let (mut round, mut master) = coordinator.begin_round(0).unwrap();
        for i in 0..11u64 {
            round.on_checkin(DeviceId(i), 10);
        }
        let runtime = FlRuntime::new(3);
        let mut now = 100;
        for d in round.state.participants() {
            let outcome = runtime
                .execute(
                    &round.plan.device,
                    &round.checkpoint,
                    &stores[d.0 as usize],
                    None,
                )
                .unwrap();
            if let ExecutionOutcome::Completed {
                update_bytes,
                weight,
                loss,
                accuracy,
                ..
            } = outcome
            {
                let metrics = (weight, loss, accuracy);
                let bytes = update_bytes.unwrap();
                report(&mut round, &mut master, d, now, bytes, metrics, "sa-pop");
            }
            now += 10;
        }
        round.on_tick(400_000);
        let aggregate = round.merge(master);
        coordinator.complete_round(round, aggregate).unwrap();
        coordinator.global_params("sa/train").unwrap()
    };

    let plain = run(None);
    let secure = run(Some(4));
    for (a, b) in plain.iter().zip(&secure) {
        assert!(
            (a - b).abs() < 1e-3,
            "secagg diverged from plain: {a} vs {b}"
        );
    }
}
