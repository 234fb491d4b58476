//! Linear regression with squared loss.

use crate::model::{Example, MlError, Model};

/// Linear regression: `ŷ = wᵀx + b`, trained with mean squared error.
///
/// Parameters are laid out as `[w₀ … w_{d−1}, b]`.
///
/// # Example
///
/// ```
/// use fl_ml::models::linear::LinearRegression;
/// use fl_ml::model::{Example, Model};
/// use fl_ml::optim::{Optimizer, Sgd};
///
/// // Learn y = 2x.
/// let mut m = LinearRegression::new(1);
/// let data: Vec<Example> = (0..10)
///     .map(|i| Example::regression(vec![i as f32 / 10.0], 2.0 * i as f32 / 10.0))
///     .collect();
/// let mut opt = Sgd::new(0.5);
/// for _ in 0..200 {
///     let (_, g) = m.loss_and_grad(&data).unwrap();
///     opt.step(m.params_mut(), &g);
/// }
/// assert!(m.loss(&data).unwrap() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    dim: usize,
    params: Vec<f32>,
}

impl LinearRegression {
    /// Creates a zero-initialized model for `dim` input features.
    pub fn new(dim: usize) -> Self {
        LinearRegression {
            dim,
            params: vec![0.0; dim + 1],
        }
    }

    fn forward(&self, x: &[f32]) -> Result<f32, MlError> {
        if x.len() != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        Ok(crate::linalg::dot(&self.params[..self.dim], x) + self.params[self.dim])
    }
}

impl Model for LinearRegression {
    fn num_params(&self) -> usize {
        self.dim + 1
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
        let mut grad = vec![0.0f32; self.num_params()];
        let mut loss = 0.0f64;
        for ex in batch {
            let (x, y) = match ex {
                Example::Regression { features, target } => (features, *target),
                _ => {
                    return Err(MlError::WrongExampleKind {
                        expected: "regression",
                    })
                }
            };
            let pred = self.forward(x)?;
            let err = pred - y;
            loss += 0.5 * f64::from(err) * f64::from(err);
            crate::linalg::axpy(&mut grad[..self.dim], x, err);
            grad[self.dim] += err;
        }
        let inv = 1.0 / batch.len() as f32;
        crate::linalg::scale_in_place(&mut grad, inv);
        Ok((loss / batch.len() as f64, grad))
    }

    fn predict(&self, example: &Example) -> Result<Vec<f32>, MlError> {
        let x = match example {
            Example::Regression { features, .. } => features,
            _ => {
                return Err(MlError::WrongExampleKind {
                    expected: "regression",
                })
            }
        };
        Ok(vec![self.forward(x)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;

    fn toy_batch() -> Vec<Example> {
        vec![
            Example::regression(vec![1.0, 2.0], 3.0),
            Example::regression(vec![-1.0, 0.5], 1.0),
            Example::regression(vec![0.0, 0.0], -0.5),
        ]
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = LinearRegression::new(2);
        let mut rng = crate::rng::seeded(1);
        for v in m.params_mut() {
            *v = crate::rng::normal(&mut rng) as f32;
        }
        let dev = finite_difference_check(&mut m, &toy_batch(), 3, &mut rng).unwrap();
        assert!(dev < 1e-2, "gradient deviation {dev}");
    }

    #[test]
    fn rejects_wrong_example_kind() {
        let m = LinearRegression::new(2);
        let batch = vec![Example::classification(vec![1.0, 2.0], 0)];
        assert!(matches!(
            m.loss_and_grad(&batch),
            Err(MlError::WrongExampleKind { .. })
        ));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let m = LinearRegression::new(2);
        let batch = vec![Example::regression(vec![1.0], 0.0)];
        assert!(matches!(
            m.loss_and_grad(&batch),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty_batch() {
        let m = LinearRegression::new(2);
        assert_eq!(m.loss_and_grad(&[]), Err(MlError::EmptyBatch));
    }

    #[test]
    fn set_params_validates_length() {
        let mut m = LinearRegression::new(2);
        assert!(m.set_params(&[1.0, 2.0, 3.0]).is_ok());
        assert!(matches!(
            m.set_params(&[1.0]),
            Err(MlError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn training_reduces_loss() {
        use crate::optim::{Optimizer, Sgd};
        let mut m = LinearRegression::new(2);
        let batch = toy_batch();
        let before = m.loss(&batch).unwrap();
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let (_, g) = m.loss_and_grad(&batch).unwrap();
            opt.step(m.params_mut(), &g);
        }
        let after = m.loss(&batch).unwrap();
        assert!(after < before * 0.2, "before {before}, after {after}");
    }
}
