//! Alternating training/evaluation deployment (Sec. 7.1): "a dynamic
//! strategy that allows alternating between training and evaluation of a
//! single model", driven end-to-end through the Coordinator with real
//! device-runtime execution for both task kinds.

use federated::core::plan::ModelSpec;
use federated::core::population::TaskKind;
use federated::core::round::RoundConfig;
use federated::core::{DeviceId, RoundId};
use federated::data::store::{InMemoryStore, StoreConfig};
use federated::data::synth::classification::{generate, ClassificationConfig};
use federated::device::runtime::{ExecutionOutcome, FlRuntime};
use federated::server::coordinator::{Coordinator, CoordinatorConfig, ReportVerdict};
use federated::server::storage::{CheckpointStore, InMemoryCheckpointStore};
use federated::server::wire::{self, WireMessage};
use federated::tools::TaskBuilder;

#[test]
fn train_eval_alternation_trains_then_measures() {
    let spec = ModelSpec::Logistic {
        dim: 16,
        classes: 4,
        seed: 1,
    };
    let data = generate(&ClassificationConfig {
        users: 20,
        examples_per_user: 60,
        separation: 3.0,
        noise: 0.7,
        ..Default::default()
    });
    let stores: Vec<InMemoryStore> = data
        .users
        .iter()
        .map(|d| InMemoryStore::with_examples(StoreConfig::default(), d.clone(), 0))
        .collect();

    let round = RoundConfig {
        goal_count: 6,
        overselection: 1.34,
        min_goal_fraction: 0.67,
        selection_timeout_ms: 60_000,
        report_window_ms: 300_000,
        device_cap_ms: 250_000,
    };
    // Two training rounds, then one evaluation round, repeating.
    let (group, plans) = TaskBuilder::training("cycle/train", "cycle-pop", spec)
        .learning_rate(0.3)
        .local_epochs(2)
        .round(round)
        .with_evaluation(2);
    let mut coordinator = Coordinator::new(
        CoordinatorConfig::new("cycle-pop", 11),
        InMemoryCheckpointStore::new(),
    );
    coordinator
        .deploy(group, plans, spec.instantiate().params().to_vec())
        .unwrap();

    let runtime = FlRuntime::new(3);
    let mut eval_accuracies: Vec<f64> = Vec::new();
    let mut kinds: Vec<TaskKind> = Vec::new();
    for cycle in 0..9u64 {
        let (mut round, mut master) = coordinator.begin_round(cycle * 1_000_000).unwrap();
        kinds.push(round.task.kind);
        // Only a training round has a Master Aggregator.
        assert_eq!(master.is_some(), round.task.kind == TaskKind::Training);
        let target = round.task.round.selection_target();
        for i in 0..target {
            round.on_checkin(
                DeviceId((cycle as usize * target + i) as u64 % 20),
                cycle * 1_000_000 + 10,
            );
        }
        let mut now = cycle * 1_000_000 + 100;
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
                // Evaluation plans produce no update bytes; training plans do.
                match round.task.kind {
                    TaskKind::Training => assert!(update_bytes.is_some()),
                    TaskKind::Evaluation => assert!(update_bytes.is_none()),
                }
                let frame = wire::encode(&WireMessage::UpdateReport {
                    device: d,
                    round: round.checkpoint.round,
                    attempt: 1,
                    update_bytes: update_bytes.unwrap_or_default(),
                    weight: weight.max(1),
                    loss: if loss.is_nan() { 0.0 } else { loss },
                    accuracy: if accuracy.is_nan() { 0.0 } else { accuracy },
                    population: "cycle-pop".into(),
                })
                .unwrap();
                let (_, verdict) = round.on_report(now, &frame);
                if let (ReportVerdict::Forward(route), Some(master)) = (verdict, &mut master) {
                    master.accept_forwarded(&route, &frame).unwrap();
                }
            }
            now += 10;
        }
        round.on_tick(cycle * 1_000_000 + 900_000);
        let kind = round.task.kind;
        let aggregate = round.merge(master);
        let outcome = coordinator.complete_round(round, aggregate).unwrap();
        assert!(outcome.is_committed(), "cycle {cycle}: {outcome:?}");
        if kind == TaskKind::Evaluation {
            // The materialized metrics carry the held-out accuracy.
            let (_, _, summaries) = coordinator.materialized_metrics().last().unwrap();
            let acc = summaries.iter().find(|s| s.name == "accuracy").unwrap();
            eval_accuracies.push(acc.moments.mean());
        }
    }

    // The strategy ran T,T,E,T,T,E,T,T,E.
    assert_eq!(
        kinds,
        vec![
            TaskKind::Training,
            TaskKind::Training,
            TaskKind::Evaluation,
            TaskKind::Training,
            TaskKind::Training,
            TaskKind::Evaluation,
            TaskKind::Training,
            TaskKind::Training,
            TaskKind::Evaluation,
        ]
    );
    // Evaluation rounds never advanced the model checkpoint: 6 training
    // commits → round id 6.
    assert_eq!(
        coordinator.store().latest("cycle/train").unwrap().round,
        RoundId(6)
    );
    // Held-out accuracy improves across evaluation rounds (training works).
    assert_eq!(eval_accuracies.len(), 3);
    assert!(
        eval_accuracies[2] > 0.7,
        "final eval accuracy {eval_accuracies:?}"
    );
    assert!(
        eval_accuracies[2] >= eval_accuracies[0] - 0.05,
        "accuracy trajectory {eval_accuracies:?}"
    );
}
