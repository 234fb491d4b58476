//! One-hidden-layer ReLU multilayer perceptron for classification.

use crate::linalg;
use crate::model::{Example, MlError, Model};

/// A one-hidden-layer MLP: `p = softmax(W₂ relu(W₁x + b₁) + b₂)`.
///
/// Parameter layout (flat): `W₁ (hidden × dim)`, `b₁ (hidden)`,
/// `W₂ (classes × hidden)`, `b₂ (classes)`.
///
/// This is the "deep network" workhorse of the reproduction's convergence
/// experiments; the federated machinery treats it as an opaque parameter
/// vector just like every other model.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    classes: usize,
    params: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with He-style random initialization (seeded).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        assert!(dim > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        let mut rng = crate::rng::seeded(seed);
        let n = hidden * dim + hidden + classes * hidden + classes;
        let mut params = vec![0.0f32; n];
        let w1_std = (2.0 / dim as f64).sqrt();
        let w2_std = (2.0 / hidden as f64).sqrt();
        let (w1, rest) = params.split_at_mut(hidden * dim);
        for v in w1 {
            *v = crate::rng::normal_with_std(&mut rng, w1_std) as f32;
        }
        let (_b1, rest) = rest.split_at_mut(hidden);
        let (w2, _b2) = rest.split_at_mut(classes * hidden);
        for v in w2 {
            *v = crate::rng::normal_with_std(&mut rng, w2_std) as f32;
        }
        Mlp {
            dim,
            hidden,
            classes,
            params,
        }
    }

    // Offsets into the flat parameter vector.
    fn w1_range(&self) -> std::ops::Range<usize> {
        0..self.hidden * self.dim
    }
    fn b1_range(&self) -> std::ops::Range<usize> {
        let s = self.hidden * self.dim;
        s..s + self.hidden
    }
    fn w2_range(&self) -> std::ops::Range<usize> {
        let s = self.hidden * self.dim + self.hidden;
        s..s + self.classes * self.hidden
    }
    fn b2_range(&self) -> std::ops::Range<usize> {
        let s = self.hidden * self.dim + self.hidden + self.classes * self.hidden;
        s..s + self.classes
    }

    /// Forward pass; returns (hidden activations, relu mask, probabilities).
    fn forward(&self, x: &[f32]) -> Result<(Vec<f32>, Vec<bool>, Vec<f32>), MlError> {
        if x.len() != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        let mut h = vec![0.0f32; self.hidden];
        linalg::matvec(
            &self.params[self.w1_range()],
            x,
            self.hidden,
            self.dim,
            &mut h,
        );
        linalg::axpy(&mut h, &self.params[self.b1_range()], 1.0);
        let mask = linalg::relu_in_place(&mut h);
        let mut logits = vec![0.0f32; self.classes];
        linalg::matvec(
            &self.params[self.w2_range()],
            &h,
            self.classes,
            self.hidden,
            &mut logits,
        );
        linalg::axpy(&mut logits, &self.params[self.b2_range()], 1.0);
        linalg::softmax_in_place(&mut logits);
        Ok((h, mask, logits))
    }

    fn check<'a>(&self, ex: &'a Example) -> Result<(&'a [f32], usize), MlError> {
        match ex {
            Example::Classification { features, label } => {
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
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.hidden * self.dim + self.hidden + self.classes * self.hidden + self.classes
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
        let (w1r, b1r, w2r, b2r) = (
            self.w1_range(),
            self.b1_range(),
            self.w2_range(),
            self.b2_range(),
        );
        for ex in batch {
            let (x, label) = self.check(ex)?;
            let (h, mask, mut p) = self.forward(x)?;
            loss += linalg::cross_entropy(&p, label);
            // dL/dlogits = p - onehot
            p[label] -= 1.0;
            // Grad wrt W2, b2.
            linalg::outer_accumulate(&mut grad[w2r.clone()], &p, &h, 1.0);
            linalg::axpy(&mut grad[b2r.clone()], &p, 1.0);
            // Backprop into hidden: dh = W2ᵀ p, gated by relu mask.
            let mut dh = vec![0.0f32; self.hidden];
            linalg::matvec_transposed(
                &self.params[w2r.clone()],
                &p,
                self.classes,
                self.hidden,
                &mut dh,
            );
            for (d, &active) in dh.iter_mut().zip(&mask) {
                if !active {
                    *d = 0.0;
                }
            }
            linalg::outer_accumulate(&mut grad[w1r.clone()], &dh, x, 1.0);
            linalg::axpy(&mut grad[b1r.clone()], &dh, 1.0);
        }
        let inv = 1.0 / batch.len() as f32;
        linalg::scale_in_place(&mut grad, inv);
        Ok((loss / batch.len() as f64, grad))
    }

    fn predict(&self, example: &Example) -> Result<Vec<f32>, MlError> {
        let (x, _) = self.check(example)?;
        let (_, _, p) = self.forward(x)?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use crate::optim::{Optimizer, Sgd};

    /// XOR — not linearly separable, so solving it actually exercises the
    /// hidden layer.
    fn xor_batch() -> Vec<Example> {
        vec![
            Example::classification(vec![0.0, 0.0], 0),
            Example::classification(vec![1.0, 1.0], 0),
            Example::classification(vec![0.0, 1.0], 1),
            Example::classification(vec![1.0, 0.0], 1),
        ]
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = Mlp::new(3, 8, 4, 7);
        let batch = vec![
            Example::classification(vec![0.5, -0.2, 0.9], 2),
            Example::classification(vec![-1.0, 0.3, 0.1], 0),
        ];
        let mut rng = crate::rng::seeded(3);
        let dev = finite_difference_check(&mut m, &batch, 10, &mut rng).unwrap();
        assert!(dev < 2e-2, "gradient deviation {dev}");
    }

    #[test]
    fn learns_xor() {
        let mut m = Mlp::new(2, 16, 2, 11);
        let batch = xor_batch();
        let mut opt = Sgd::new(0.5);
        for _ in 0..2000 {
            let (_, g) = m.loss_and_grad(&batch).unwrap();
            opt.step(m.params_mut(), &g);
        }
        for ex in &batch {
            let p = m.predict(ex).unwrap();
            let pred = crate::linalg::argmax(&p).unwrap();
            assert!(matches!(ex.label(), crate::model::Label::Class(c) if c == pred));
        }
    }

    #[test]
    fn param_count_matches_layout() {
        let m = Mlp::new(5, 7, 3, 0);
        assert_eq!(m.num_params(), 7 * 5 + 7 + 3 * 7 + 3);
        assert_eq!(m.params().len(), m.num_params());
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = Mlp::new(2, 4, 2, 0);
        assert!(m.predict(&Example::classification(vec![1.0], 0)).is_err());
        assert!(m
            .predict(&Example::regression(vec![1.0, 2.0], 0.0))
            .is_err());
        assert!(m
            .loss_and_grad(&[Example::classification(vec![1.0, 2.0], 9)])
            .is_err());
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(4, 8, 3, 99);
        let b = Mlp::new(4, 8, 3, 99);
        assert_eq!(a.params(), b.params());
    }
}
