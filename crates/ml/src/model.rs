//! The [`Model`] trait and training-example types.
//!
//! Models carry their parameters as a flat `Vec<f32>` so that the federated
//! machinery (checkpoints, FedAvg accumulation, Secure Aggregation,
//! compression) can treat every model uniformly as an opaque vector — exactly
//! the property the paper relies on when it notes the platform "contains no
//! explicit mentioning of any ML logic" (Sec. 11, *Federated Computation*).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// The example kind does not match what the model consumes.
    WrongExampleKind {
        /// What the model expected, e.g. `"classification"`.
        expected: &'static str,
    },
    /// An example's feature vector has the wrong dimension.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Provided dimension.
        actual: usize,
    },
    /// A token id exceeds the model's vocabulary.
    TokenOutOfRange {
        /// Vocabulary size.
        vocab: usize,
        /// Offending token.
        token: u32,
    },
    /// The batch contained no examples.
    EmptyBatch,
    /// A parameter vector of the wrong length was supplied.
    ParamLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        actual: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::WrongExampleKind { expected } => {
                write!(
                    f,
                    "example kind mismatch: model expects {expected} examples"
                )
            }
            MlError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {actual}"
                )
            }
            MlError::TokenOutOfRange { vocab, token } => {
                write!(f, "token {token} out of range for vocabulary of {vocab}")
            }
            MlError::EmptyBatch => write!(f, "batch contains no examples"),
            MlError::ParamLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "parameter length mismatch: expected {expected}, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for MlError {}

/// A single training or evaluation example.
///
/// The variants cover the three task families exercised by the reproduction:
/// classification/regression over dense features (the quickstart workloads)
/// and next-token prediction over token contexts (the Gboard-style workload
/// of Sec. 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Example {
    /// Dense features with a class label.
    Classification {
        /// Feature vector.
        features: Vec<f32>,
        /// Zero-based class index.
        label: usize,
    },
    /// Dense features with a real-valued target.
    Regression {
        /// Feature vector.
        features: Vec<f32>,
        /// Regression target.
        target: f32,
    },
    /// A token context predicting the next token.
    NextToken {
        /// Preceding token ids (fixed-length context window).
        context: Vec<u32>,
        /// The token to predict.
        next: u32,
    },
}

impl Example {
    /// Convenience constructor for a classification example.
    pub fn classification(features: Vec<f32>, label: usize) -> Self {
        Example::Classification { features, label }
    }

    /// Convenience constructor for a regression example.
    // fl-lint: allow(test-only-pub): builds the regression examples of fl-ml's model tests
    pub fn regression(features: Vec<f32>, target: f32) -> Self {
        Example::Regression { features, target }
    }

    /// Convenience constructor for a next-token example.
    pub fn next_token(context: Vec<u32>, next: u32) -> Self {
        Example::NextToken { context, next }
    }

    /// Approximate wire/storage size of the example in bytes.
    ///
    /// Used by the device example-store to enforce storage footprint limits
    /// (Sec. 3: "applications limit the total storage footprint of their
    /// example stores").
    pub fn approx_bytes(&self) -> usize {
        match self {
            Example::Classification { features, .. } => features.len() * 4 + 8,
            Example::Regression { features, .. } => features.len() * 4 + 4,
            Example::NextToken { context, .. } => context.len() * 4 + 4,
        }
    }
}

/// The ground-truth label of an example, for metric computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// Class index.
    Class(usize),
    /// Real target.
    Real(f32),
    /// Next-token id.
    Token(u32),
}

impl Example {
    /// Returns the example's label.
    pub fn label(&self) -> Label {
        match self {
            Example::Classification { label, .. } => Label::Class(*label),
            Example::Regression { target, .. } => Label::Real(*target),
            Example::NextToken { next, .. } => Label::Token(*next),
        }
    }
}

/// A trainable model with hand-derived gradients.
///
/// Parameters are exposed as a flat slice; `loss_and_grad` returns the mean
/// loss over the batch and the gradient of that mean loss with respect to
/// the flat parameters. Implementations must be deterministic.
pub trait Model {
    /// Number of parameters in the flat vector.
    fn num_params(&self) -> usize;

    /// Immutable view of the flat parameters.
    fn params(&self) -> &[f32];

    /// Mutable view of the flat parameters.
    fn params_mut(&mut self) -> &mut [f32];

    /// Overwrites the parameters from a flat slice.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ParamLengthMismatch`] if the slice length differs
    /// from [`Model::num_params`].
    fn set_params(&mut self, p: &[f32]) -> Result<(), MlError> {
        if p.len() != self.num_params() {
            return Err(MlError::ParamLengthMismatch {
                expected: self.num_params(),
                actual: p.len(),
            });
        }
        self.params_mut().copy_from_slice(p);
        Ok(())
    }

    /// Computes the mean loss over the batch and its gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch is empty or contains examples of the
    /// wrong kind or dimension.
    fn loss_and_grad(&self, batch: &[Example]) -> Result<(f64, Vec<f32>), MlError>;

    /// Computes prediction scores for one example (class scores, a scalar
    /// regression output, or next-token scores).
    ///
    /// # Errors
    ///
    /// Returns an error for examples of the wrong kind or dimension.
    fn predict(&self, example: &Example) -> Result<Vec<f32>, MlError>;

    /// Mean loss over a batch without gradients (default: via `loss_and_grad`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::loss_and_grad`].
    fn loss(&self, batch: &[Example]) -> Result<f64, MlError> {
        self.loss_and_grad(batch).map(|(l, _)| l)
    }
}

/// Checks a model's analytic gradient against central finite differences.
///
/// Returns the maximum absolute deviation over `probes` randomly chosen
/// coordinates. Used by the test suites of every model implementation.
///
/// # Errors
///
/// Propagates any error from the model's loss computation.
// fl-lint: allow(test-only-pub): the gradient reference every model's tests check against
pub fn finite_difference_check<M: Model, R: rand::Rng>(
    model: &mut M,
    batch: &[Example],
    probes: usize,
    rng: &mut R,
) -> Result<f64, MlError> {
    let (_, grad) = model.loss_and_grad(batch)?;
    let eps = 1e-3f32;
    let n = model.num_params();
    let mut worst = 0.0f64;
    for _ in 0..probes {
        let i = rng.random_range(0..n);
        let orig = model.params()[i];
        model.params_mut()[i] = orig + eps;
        let up = model.loss(batch)?;
        model.params_mut()[i] = orig - eps;
        let down = model.loss(batch)?;
        model.params_mut()[i] = orig;
        let numeric = (up - down) / (2.0 * f64::from(eps));
        let dev = (numeric - f64::from(grad[i])).abs();
        if dev > worst {
            worst = dev;
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_labels_round_trip() {
        assert_eq!(
            Example::classification(vec![1.0], 3).label(),
            Label::Class(3)
        );
        assert_eq!(
            Example::regression(vec![1.0], 2.5).label(),
            Label::Real(2.5)
        );
        assert_eq!(Example::next_token(vec![1, 2], 9).label(), Label::Token(9));
    }

    #[test]
    fn approx_bytes_scales_with_features() {
        let small = Example::classification(vec![0.0; 2], 0);
        let big = Example::classification(vec![0.0; 200], 0);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = MlError::DimensionMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = MlError::TokenOutOfRange {
            vocab: 10,
            token: 12,
        };
        assert!(e.to_string().contains("12"));
    }
}
