//! CBOW-style neural next-word predictor.
//!
//! This is the reproduction's stand-in for the Gboard next-word-prediction
//! RNN of Sec. 8 (1.4M parameters, trained with FedAvg, evaluated by top-1
//! recall against an n-gram baseline). A CBOW model — mean of context
//! embeddings followed by a softmax over the vocabulary — preserves the
//! experiment's shape (neural model beats count-based n-gram; FL matches
//! centralized training) while keeping hand-derived gradients tractable.
//! With `vocab = 10_000, dim = 64` the model has ~1.3M parameters, matching
//! the paper's scale for bandwidth/benchmark purposes.

use crate::linalg;
use crate::model::{Example, MlError, Model};

/// Mean-of-context-embeddings next-word predictor.
///
/// `h = mean(E[ctx_i]); p = softmax(U h + b)` with cross-entropy loss.
///
/// Parameter layout (flat): embedding table `E (vocab × dim)`, output matrix
/// `U (vocab × dim)`, output bias `b (vocab)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingLm {
    vocab: usize,
    dim: usize,
    params: Vec<f32>,
}

impl EmbeddingLm {
    /// Creates a model with small random embeddings (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 2` or `dim == 0`.
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        assert!(vocab >= 2, "vocabulary must have at least two tokens");
        assert!(dim > 0, "embedding dimension must be positive");
        let mut rng = crate::rng::seeded(seed);
        let mut params = vec![0.0f32; 2 * vocab * dim + vocab];
        let std = 1.0 / (dim as f64).sqrt();
        for v in params[..2 * vocab * dim].iter_mut() {
            *v = crate::rng::normal_with_std(&mut rng, 0.1 * std) as f32;
        }
        EmbeddingLm { vocab, dim, params }
    }

    fn e_range(&self) -> std::ops::Range<usize> {
        0..self.vocab * self.dim
    }
    fn u_range(&self) -> std::ops::Range<usize> {
        let s = self.vocab * self.dim;
        s..2 * self.vocab * self.dim
    }
    fn b_range(&self) -> std::ops::Range<usize> {
        let s = 2 * self.vocab * self.dim;
        s..s + self.vocab
    }

    fn check<'a>(&self, ex: &'a Example) -> Result<(&'a [u32], u32), MlError> {
        match ex {
            Example::NextToken { context, next } => {
                if context.is_empty() {
                    return Err(MlError::DimensionMismatch {
                        expected: 1,
                        actual: 0,
                    });
                }
                for &t in context.iter().chain(std::iter::once(next)) {
                    if t as usize >= self.vocab {
                        return Err(MlError::TokenOutOfRange {
                            vocab: self.vocab,
                            token: t,
                        });
                    }
                }
                Ok((context, *next))
            }
            _ => Err(MlError::WrongExampleKind {
                expected: "next-token",
            }),
        }
    }

    /// Mean context embedding.
    fn hidden(&self, ctx: &[u32]) -> Vec<f32> {
        let e = &self.params[self.e_range()];
        let mut h = vec![0.0f32; self.dim];
        for &t in ctx {
            let row = &e[t as usize * self.dim..(t as usize + 1) * self.dim];
            linalg::axpy(&mut h, row, 1.0);
        }
        linalg::scale_in_place(&mut h, 1.0 / ctx.len() as f32);
        h
    }

    /// Probabilities over the next token given the hidden state.
    fn probs(&self, h: &[f32]) -> Vec<f32> {
        let mut logits = vec![0.0f32; self.vocab];
        linalg::matvec(
            &self.params[self.u_range()],
            h,
            self.vocab,
            self.dim,
            &mut logits,
        );
        linalg::axpy(&mut logits, &self.params[self.b_range()], 1.0);
        linalg::softmax_in_place(&mut logits);
        logits
    }
}

impl Model for EmbeddingLm {
    fn num_params(&self) -> usize {
        2 * self.vocab * self.dim + self.vocab
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
        let (er, ur, br) = (self.e_range(), self.u_range(), self.b_range());
        for ex in batch {
            let (ctx, next) = self.check(ex)?;
            let h = self.hidden(ctx);
            let mut p = self.probs(&h);
            loss += linalg::cross_entropy(&p, next as usize);
            p[next as usize] -= 1.0;
            // Grad wrt U and b.
            linalg::outer_accumulate(&mut grad[ur.clone()], &p, &h, 1.0);
            linalg::axpy(&mut grad[br.clone()], &p, 1.0);
            // Backprop into hidden: dh = Uᵀ p; then into each context row.
            let mut dh = vec![0.0f32; self.dim];
            linalg::matvec_transposed(&self.params[ur.clone()], &p, self.vocab, self.dim, &mut dh);
            let scale = 1.0 / ctx.len() as f32;
            let ge = &mut grad[er.clone()];
            for &t in ctx {
                let row = &mut ge[t as usize * self.dim..(t as usize + 1) * self.dim];
                linalg::axpy(row, &dh, scale);
            }
        }
        let inv = 1.0 / batch.len() as f32;
        linalg::scale_in_place(&mut grad, inv);
        Ok((loss / batch.len() as f64, grad))
    }

    fn predict(&self, example: &Example) -> Result<Vec<f32>, MlError> {
        let (ctx, _) = self.check(example)?;
        let h = self.hidden(ctx);
        Ok(self.probs(&h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use crate::optim::{Optimizer, Sgd};

    fn toy_batch() -> Vec<Example> {
        // Deterministic continuations: (0,1)->2, (2,3)->4, (4,0)->1.
        vec![
            Example::next_token(vec![0, 1], 2),
            Example::next_token(vec![2, 3], 4),
            Example::next_token(vec![4, 0], 1),
        ]
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = EmbeddingLm::new(5, 4, 17);
        let mut rng = crate::rng::seeded(4);
        let dev = finite_difference_check(&mut m, &toy_batch(), 12, &mut rng).unwrap();
        assert!(dev < 2e-2, "gradient deviation {dev}");
    }

    #[test]
    fn memorizes_deterministic_continuations() {
        let mut m = EmbeddingLm::new(5, 8, 17);
        let batch = toy_batch();
        let mut opt = Sgd::new(1.0);
        for _ in 0..500 {
            let (_, g) = m.loss_and_grad(&batch).unwrap();
            opt.step(m.params_mut(), &g);
        }
        for ex in &batch {
            let p = m.predict(ex).unwrap();
            let pred = crate::linalg::argmax(&p).unwrap() as u32;
            assert!(matches!(ex.label(), crate::model::Label::Token(t) if t == pred));
        }
    }

    #[test]
    fn param_count_matches_gboard_scale() {
        // The paper's production model has ~1.4M parameters; vocab=10k,
        // dim=64 lands at 1.29M — same order, used by bench harnesses.
        let m = EmbeddingLm::new(10_000, 64, 0);
        assert_eq!(m.num_params(), 2 * 10_000 * 64 + 10_000);
        assert!(m.num_params() > 1_000_000);
    }

    #[test]
    fn rejects_out_of_vocab_tokens() {
        let m = EmbeddingLm::new(4, 2, 0);
        assert!(m.predict(&Example::next_token(vec![1, 9], 0)).is_err());
        assert!(m.loss_and_grad(&[Example::next_token(vec![1], 9)]).is_err());
    }

    #[test]
    fn rejects_empty_context() {
        let m = EmbeddingLm::new(4, 2, 0);
        assert!(m.predict(&Example::next_token(vec![], 0)).is_err());
    }

    #[test]
    fn probabilities_sum_to_one() {
        let m = EmbeddingLm::new(50, 8, 3);
        let p = m.predict(&Example::next_token(vec![3, 7, 11], 0)).unwrap();
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}
