//! Multinomial (softmax) logistic regression.

use crate::linalg;
use crate::model::{Example, MlError, Model};

/// Softmax classification: `p = softmax(W x + b)` with cross-entropy loss.
///
/// Parameters are laid out as the row-major `classes × dim` matrix `W`
/// followed by the `classes` biases.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    dim: usize,
    classes: usize,
    params: Vec<f32>,
}

impl LogisticRegression {
    /// Creates a model with small random weights (seeded for determinism).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `classes < 2`.
    pub fn new(dim: usize, classes: usize, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(classes >= 2, "need at least two classes");
        let mut rng = crate::rng::seeded(seed);
        let mut params = vec![0.0f32; classes * dim + classes];
        for w in params[..classes * dim].iter_mut() {
            *w = crate::rng::normal_with_std(&mut rng, 0.01) as f32;
        }
        LogisticRegression {
            dim,
            classes,
            params,
        }
    }

    fn check_features<'a>(&self, ex: &'a Example) -> Result<(&'a [f32], usize), MlError> {
        match ex {
            Example::Classification { features, label } => {
                if features.len() != self.dim {
                    return Err(MlError::DimensionMismatch {
                        expected: self.dim,
                        actual: features.len(),
                    });
                }
                if *label >= self.classes {
                    return Err(MlError::TokenOutOfRange {
                        vocab: self.classes,
                        token: *label as u32,
                    });
                }
                Ok((features, *label))
            }
            _ => Err(MlError::WrongExampleKind {
                expected: "classification",
            }),
        }
    }

    /// Computes class probabilities for a feature vector.
    fn probs(&self, x: &[f32]) -> Vec<f32> {
        let mut logits = vec![0.0f32; self.classes];
        linalg::matvec(
            &self.params[..self.classes * self.dim],
            x,
            self.classes,
            self.dim,
            &mut logits,
        );
        for (l, b) in logits
            .iter_mut()
            .zip(&self.params[self.classes * self.dim..])
        {
            *l += b;
        }
        linalg::softmax_in_place(&mut logits);
        logits
    }
}

impl Model for LogisticRegression {
    fn num_params(&self) -> usize {
        self.classes * self.dim + self.classes
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn loss_and_grad(&self, batch: &[Example]) -> Result<(f64, Vec<f32>), MlError> {
        if batch.is_empty() {
            return Err(MlError::EmptyBatch);
        }
        let wlen = self.classes * self.dim;
        let mut grad = vec![0.0f32; self.num_params()];
        let mut loss = 0.0f64;
        for ex in batch {
            let (x, label) = self.check_features(ex)?;
            let mut p = self.probs(x);
            loss += linalg::cross_entropy(&p, label);
            // dL/dlogits = p - onehot(label)
            p[label] -= 1.0;
            linalg::outer_accumulate(&mut grad[..wlen], &p, x, 1.0);
            linalg::axpy(&mut grad[wlen..], &p, 1.0);
        }
        let inv = 1.0 / batch.len() as f32;
        linalg::scale_in_place(&mut grad, inv);
        Ok((loss / batch.len() as f64, grad))
    }

    fn predict(&self, example: &Example) -> Result<Vec<f32>, MlError> {
        let (x, _) = self.check_features(example)?;
        Ok(self.probs(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use crate::optim::{Optimizer, Sgd};

    fn xor_ish_batch() -> Vec<Example> {
        vec![
            Example::classification(vec![2.0, 0.1], 0),
            Example::classification(vec![1.5, -0.2], 0),
            Example::classification(vec![-1.0, 1.8], 1),
            Example::classification(vec![-2.0, 2.2], 1),
            Example::classification(vec![0.1, -2.0], 2),
            Example::classification(vec![-0.3, -1.5], 2),
        ]
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = LogisticRegression::new(2, 3, 42);
        let mut rng = crate::rng::seeded(2);
        let dev = finite_difference_check(&mut m, &xor_ish_batch(), 6, &mut rng).unwrap();
        assert!(dev < 1e-2, "gradient deviation {dev}");
    }

    #[test]
    fn training_reaches_separable_accuracy() {
        let mut m = LogisticRegression::new(2, 3, 42);
        let batch = xor_ish_batch();
        let mut opt = Sgd::new(0.5);
        for _ in 0..300 {
            let (_, g) = m.loss_and_grad(&batch).unwrap();
            opt.step(m.params_mut(), &g);
        }
        let correct = batch
            .iter()
            .filter(|ex| {
                let p = m.predict(ex).unwrap();
                let pred = crate::linalg::argmax(&p).unwrap();
                matches!(ex.label(), crate::model::Label::Class(c) if c == pred)
            })
            .count();
        assert_eq!(correct, batch.len());
    }

    #[test]
    fn probabilities_sum_to_one() {
        let m = LogisticRegression::new(4, 5, 1);
        let p = m
            .predict(&Example::classification(vec![1.0, -1.0, 0.5, 2.0], 0))
            .unwrap();
        assert_eq!(p.len(), 5);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rejects_out_of_range_label() {
        let m = LogisticRegression::new(2, 2, 1);
        let batch = vec![Example::classification(vec![0.0, 0.0], 5)];
        assert!(matches!(
            m.loss_and_grad(&batch),
            Err(MlError::TokenOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_regression_examples() {
        let m = LogisticRegression::new(2, 2, 1);
        assert!(m
            .predict(&Example::regression(vec![0.0, 0.0], 1.0))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        let _ = LogisticRegression::new(2, 1, 0);
    }
}
