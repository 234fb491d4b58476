//! Quickstart: federated training of a classifier over a simulated
//! population, end to end through the public API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! What happens:
//! 1. a non-IID federated classification dataset is synthesized;
//! 2. a model engineer defines a task with [`federated::tools::TaskBuilder`];
//! 3. the release gates of Sec. 7.3 validate the generated plan;
//! 4. the task is deployed and trained with Federated Averaging through
//!    the real Coordinator / Master Aggregator / device-runtime stack;
//! 5. progress and the final test accuracy are printed.

use federated::core::plan::ModelSpec;
use federated::data::synth::classification::{generate, ClassificationConfig};
use federated::sim::training::{run_federated, TrainingRunConfig};
use federated::tools::release::{ReleaseGate, ResourceBudget, TestPredicate};
use federated::tools::TaskBuilder;

fn main() {
    // 1. Synthesize a federated dataset: 100 users, label-skewed.
    let data = generate(&ClassificationConfig {
        users: 100,
        examples_per_user: 50,
        classes: 4,
        dim: 16,
        label_skew: 0.6,
        separation: 2.0,
        noise: 1.0,
        seed: 42,
    });
    println!(
        "dataset: {} users, {} examples, {} test examples",
        data.users.len(),
        data.total_examples(),
        data.test_set.len()
    );

    // 2. Define the FL task.
    let model = ModelSpec::Logistic {
        dim: 16,
        classes: 4,
        seed: 1,
    };
    let (task, plan) = TaskBuilder::training("quickstart/train", "quickstart", model)
        .learning_rate(0.15)
        .local_epochs(2)
        .batch_size(16)
        .build();
    println!("task: {} (population {})", task.name, task.population);

    // 3. Release gates (Sec. 7.3): predicates, resources, version matrix.
    let gate = ReleaseGate {
        built_from_reviewed_code: true,
        predicates: vec![
            TestPredicate::produces_update(),
            TestPredicate::loss_below(5.0),
        ],
        budget: ResourceBudget::default(),
        claimed_versions: vec![1, 2, 3],
    };
    let sample: Vec<_> = data.users[0].clone();
    let release = gate.check(&plan, &sample).expect("release check runs");
    assert!(
        release.accepted,
        "release gates failed: {:?}",
        release.failures
    );
    println!(
        "release gates passed; {} versioned plans generated",
        release.versioned_plans.len()
    );

    // 4. Train with Federated Averaging: 40 rounds, 20 clients per round,
    //    1.3x over-selection, 8% simulated drop-out.
    let config = TrainingRunConfig {
        model,
        rounds: 40,
        clients_per_round: 20,
        overselection: 1.3,
        local_epochs: 2,
        batch_size: 16,
        learning_rate: 0.15,
        dropout_probability: 0.08,
        eval_every: 5,
        seed: 7,
        ..Default::default()
    };
    let report = run_federated(&config, &data.users, &data.test_set).expect("training runs");

    // 5. Results.
    println!("\nround  accuracy  clients");
    for p in &report.history {
        println!(
            "{:>5}  {:>7.1}%  {:>7}",
            p.round,
            p.accuracy * 100.0,
            p.incorporated
        );
    }
    println!(
        "\ncommitted {} rounds ({} abandoned); download {:.1} MB, upload {:.1} MB",
        report.committed_rounds,
        report.abandoned_rounds,
        report.download_bytes as f64 / 1e6,
        report.upload_bytes as f64 / 1e6
    );
    println!(
        "final test accuracy: {:.1}%",
        report.final_accuracy() * 100.0
    );
}
