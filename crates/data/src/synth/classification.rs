//! Non-IID Gaussian-mixture classification data.
//!
//! Each class is an isotropic Gaussian blob; each simulated user holds data
//! drawn with user-specific label skew, mirroring how on-device data
//! distributions correlate with the user (the paper notes "device
//! availability … correlates with the local data distribution in complex
//! ways"). This is the workload behind the quickstart example and the
//! clients-per-round convergence experiment (EXPERIMENTS.md, `KCLIENTS`).

use fl_ml::rng;
use fl_ml::Example;
use rand::RngExt;

/// Configuration for the Gaussian-mixture generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationConfig {
    /// Feature dimension.
    pub dim: usize,
    /// Number of classes (one Gaussian blob per class).
    pub classes: usize,
    /// Number of simulated users.
    pub users: usize,
    /// Examples per user (mean; actual counts vary ±50%).
    pub examples_per_user: usize,
    /// Distance of class centers from the origin.
    pub separation: f32,
    /// Within-class standard deviation.
    pub noise: f32,
    /// Probability a user's example comes from its dominant class.
    pub label_skew: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ClassificationConfig {
    fn default() -> Self {
        ClassificationConfig {
            dim: 16,
            classes: 4,
            users: 100,
            examples_per_user: 50,
            separation: 2.0,
            noise: 1.0,
            label_skew: 0.5,
            seed: 42,
        }
    }
}

/// A generated federated classification dataset.
#[derive(Debug, Clone)]
pub struct FederatedClassification {
    /// Per-user example sets (index = user id).
    pub users: Vec<Vec<Example>>,
    /// A held-out IID test set drawn from the global mixture.
    pub test_set: Vec<Example>,
    /// The configuration that produced the data.
    pub config: ClassificationConfig,
    /// Class centers (row-major `classes × dim`), for diagnostics.
    pub centers: Vec<f32>,
}

impl FederatedClassification {
    /// Total number of training examples across users.
    pub fn total_examples(&self) -> usize {
        self.users.iter().map(Vec::len).sum()
    }
}

/// Generates a federated classification dataset.
///
/// # Panics
///
/// Panics if any count in the configuration is zero.
pub fn generate(config: &ClassificationConfig) -> FederatedClassification {
    assert!(config.dim > 0 && config.classes >= 2 && config.users > 0);
    assert!(config.examples_per_user > 0);
    let mut master = rng::seeded(config.seed);

    // Random unit-ish directions for class centers, scaled by separation.
    let mut centers = vec![0.0f32; config.classes * config.dim];
    for c in 0..config.classes {
        let row = &mut centers[c * config.dim..(c + 1) * config.dim];
        let mut norm = 0.0f32;
        for v in row.iter_mut() {
            *v = rng::normal(&mut master) as f32;
            norm += *v * *v;
        }
        let norm = norm.sqrt().max(1e-6);
        for v in row.iter_mut() {
            *v *= config.separation / norm;
        }
    }

    let sample = |class: usize, rng: &mut rand::rngs::StdRng| -> Example {
        let row = &centers[class * config.dim..(class + 1) * config.dim];
        let features = row
            .iter()
            .map(|&c| c + rng::normal_with_std(rng, f64::from(config.noise)) as f32)
            .collect();
        Example::classification(features, class)
    };

    let mut users = Vec::with_capacity(config.users);
    for u in 0..config.users {
        let mut rng = rng::seeded_stream(config.seed, u as u64 + 1);
        let dominant = u % config.classes;
        // Heterogeneous dataset sizes: 50%–150% of the mean.
        let count = ((config.examples_per_user as f64) * (0.5 + rng.random::<f64>()))
            .round()
            .max(1.0) as usize;
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            let class = if rng.random::<f64>() < config.label_skew {
                dominant
            } else {
                rng.random_range(0..config.classes)
            };
            data.push(sample(class, &mut rng));
        }
        users.push(data);
    }

    // IID test set: uniform over classes.
    let mut test_rng = rng::seeded_stream(config.seed, u64::MAX);
    let test_set = (0..1000)
        .map(|i| sample(i % config.classes, &mut test_rng))
        .collect();

    FederatedClassification {
        users,
        test_set,
        config: *config,
        centers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::label_divergence;

    #[test]
    fn generates_requested_structure() {
        let data = generate(&ClassificationConfig::default());
        assert_eq!(data.users.len(), 100);
        assert_eq!(data.test_set.len(), 1000);
        assert!(data.total_examples() > 100 * 25);
        for user in &data.users {
            for ex in user {
                if let Example::Classification { features, label } = ex {
                    assert_eq!(features.len(), 16);
                    assert!(*label < 4);
                } else {
                    panic!("wrong example kind");
                }
            }
        }
    }

    #[test]
    fn is_deterministic() {
        let a = generate(&ClassificationConfig::default());
        let b = generate(&ClassificationConfig::default());
        assert_eq!(a.users[0], b.users[0]);
        assert_eq!(a.test_set, b.test_set);
    }

    #[test]
    fn skew_controls_divergence() {
        let low = generate(&ClassificationConfig {
            label_skew: 0.0,
            ..Default::default()
        });
        let high = generate(&ClassificationConfig {
            label_skew: 0.9,
            ..Default::default()
        });
        assert!(
            label_divergence(&high.users) > label_divergence(&low.users) + 0.2,
            "high {} low {}",
            label_divergence(&high.users),
            label_divergence(&low.users)
        );
    }

    #[test]
    fn separable_data_is_learnable() {
        use fl_ml::metrics::top1_accuracy;
        use fl_ml::models::logistic::LogisticRegression;
        use fl_ml::optim::{Optimizer, Sgd};
        use fl_ml::Model;
        let data = generate(&ClassificationConfig {
            users: 10,
            separation: 4.0,
            noise: 0.5,
            ..Default::default()
        });
        let train = data.users.concat();
        let mut model = LogisticRegression::new(16, 4, 0);
        let mut opt = Sgd::new(0.3);
        for _ in 0..60 {
            for chunk in train.chunks(32) {
                let (_, g) = model.loss_and_grad(chunk).unwrap();
                opt.step(model.params_mut(), &g);
            }
        }
        let acc = top1_accuracy(&model, &data.test_set).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn user_sizes_are_heterogeneous() {
        let data = generate(&ClassificationConfig::default());
        let sizes: Vec<usize> = data.users.iter().map(Vec::len).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "expected heterogeneous sizes, got uniform {min}");
    }
}
