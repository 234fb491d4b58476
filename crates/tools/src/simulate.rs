//! Modeling and simulation (Sec. 7.1).
//!
//! "Our modeling tools allow deployment of FL tasks to a simulated FL
//! server and a fleet of cloud jobs emulating devices on a large proxy
//! dataset. The simulation executes the same code as we run on device […].
//! Simulation can scale to a large number of devices and is sometimes used
//! to pre-train models on proxy data before it is refined by FL in the
//! field."

use fl_core::plan::ModelSpec;
use fl_core::CoreError;
use fl_data::partition::{partition, PartitionStrategy};
use fl_ml::Example;
use fl_sim::training::{run_federated, TrainingRunConfig, TrainingRunReport};

/// Runs an FL task against a simulated server and emulated device fleet
/// on proxy data: the proxy corpus is partitioned into `emulated_devices`
/// IID shards, and the standard federated driver executes the *same* code
/// paths as a field deployment.
///
/// # Errors
///
/// Propagates protocol and model errors from the simulated run.
// fl-lint: allow(test-only-pub): paper Sec. 7 model-engineer tools (DESIGN.md Sec. 3, fl-tools)
pub fn simulate_on_proxy(
    config: &TrainingRunConfig,
    proxy_corpus: &[Example],
    emulated_devices: usize,
    test_set: &[Example],
) -> Result<TrainingRunReport, CoreError> {
    let shards = partition(
        proxy_corpus.to_vec(),
        emulated_devices,
        PartitionStrategy::Iid,
        config.seed,
    );
    run_federated(config, &shards, test_set)
}

/// Pre-trains a model centrally on proxy data and returns the parameters
/// to deploy as the initial global checkpoint ("pre-train models on proxy
/// data before it is refined by FL in the field").
///
/// # Errors
///
/// Propagates model errors.
pub fn pretrain_on_proxy(
    model_spec: ModelSpec,
    proxy_corpus: &[Example],
    epochs: usize,
    batch_size: usize,
    learning_rate: f32,
) -> Result<Vec<f32>, CoreError> {
    use fl_ml::optim::{Optimizer, Sgd};
    let mut model = model_spec.instantiate();
    let mut opt = Sgd::new(learning_rate);
    for _ in 0..epochs {
        for chunk in proxy_corpus.chunks(batch_size.max(1)) {
            let (_, grad) = model.loss_and_grad(chunk)?;
            opt.step(model.params_mut(), &grad);
        }
    }
    Ok(model.params().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_data::synth::text::{generate, TextConfig};

    #[test]
    fn proxy_simulation_runs_the_full_stack() {
        let data = generate(&TextConfig {
            users: 20,
            vocab: 100,
            sentences_per_user: 10,
            ..Default::default()
        });
        let config = TrainingRunConfig {
            model: ModelSpec::EmbeddingLm {
                vocab: 100,
                dim: 8,
                seed: 1,
            },
            rounds: 3,
            clients_per_round: 5,
            eval_every: 0,
            ..Default::default()
        };
        let report = simulate_on_proxy(&config, &data.proxy_corpus, 20, &data.test_set).unwrap();
        assert_eq!(report.committed_rounds, 3);
        assert!(!report.final_params.is_empty());
    }

    #[test]
    fn pretraining_reduces_initial_loss() {
        let data = generate(&TextConfig {
            users: 10,
            vocab: 50,
            ..Default::default()
        });
        let spec = ModelSpec::EmbeddingLm {
            vocab: 50,
            dim: 8,
            seed: 2,
        };
        let fresh = spec.instantiate();
        let fresh_loss = fresh.loss(&data.test_set[..200]).unwrap();
        let params = pretrain_on_proxy(spec, &data.proxy_corpus, 2, 16, 0.5).unwrap();
        let mut pretrained = spec.instantiate();
        pretrained.set_params(&params).unwrap();
        let pre_loss = pretrained.loss(&data.test_set[..200]).unwrap();
        // Proxy data is distribution-shifted but shares the source
        // structure, so pretraining must still help.
        assert!(
            pre_loss < fresh_loss,
            "pretraining did not help: {fresh_loss} -> {pre_loss}"
        );
    }
}
