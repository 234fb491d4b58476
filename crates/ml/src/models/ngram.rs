//! Interpolated n-gram language model — the classical baseline of Sec. 8.
//!
//! The paper reports that the federated next-word model improves top-1
//! recall over "a baseline n-gram model" from 13.0% to 16.4%. This module
//! provides that baseline: a count-based model with Jelinek–Mercer
//! interpolation across trigram, bigram, and unigram estimates, trained by
//! counting (no gradients), so it is *not* a [`crate::model::Model`] — it is
//! trained centrally on whatever data is available to the server, exactly as
//! a production n-gram baseline would be.

use crate::model::{Example, MlError};
use std::collections::HashMap;

/// Interpolated trigram language model over a fixed vocabulary.
#[derive(Debug, Clone)]
pub struct NgramLm {
    vocab: usize,
    /// Interpolation weights for (trigram, bigram, unigram); sum to 1.
    lambdas: [f64; 3],
    unigram: Vec<u64>,
    total_unigrams: u64,
    bigram: HashMap<u32, HashMap<u32, u64>>,
    bigram_context_totals: HashMap<u32, u64>,
    trigram: HashMap<(u32, u32), HashMap<u32, u64>>,
    trigram_context_totals: HashMap<(u32, u32), u64>,
}

impl NgramLm {
    /// Creates an empty model.
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 2` or the lambdas do not sum to ~1.
    pub fn new(vocab: usize, lambdas: [f64; 3]) -> Self {
        assert!(vocab >= 2, "vocabulary must have at least two tokens");
        let sum: f64 = lambdas.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "lambdas must sum to 1, got {sum}");
        NgramLm {
            vocab,
            lambdas,
            unigram: vec![0; vocab],
            total_unigrams: 0,
            bigram: HashMap::new(),
            bigram_context_totals: HashMap::new(),
            trigram: HashMap::new(),
            trigram_context_totals: HashMap::new(),
        }
    }

    /// Creates a model with the conventional default interpolation weights.
    pub fn with_default_lambdas(vocab: usize) -> Self {
        NgramLm::new(vocab, [0.6, 0.3, 0.1])
    }

    /// Counts one `(context, next)` observation. Contexts shorter than two
    /// tokens update only the lower-order tables.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::TokenOutOfRange`] for tokens outside the vocabulary
    /// and [`MlError::WrongExampleKind`] for non-`NextToken` examples.
    pub fn observe(&mut self, example: &Example) -> Result<(), MlError> {
        let (ctx, next) = match example {
            Example::NextToken { context, next } => (context.as_slice(), *next),
            _ => {
                return Err(MlError::WrongExampleKind {
                    expected: "next-token",
                })
            }
        };
        for &t in ctx.iter().chain(std::iter::once(&next)) {
            if t as usize >= self.vocab {
                return Err(MlError::TokenOutOfRange {
                    vocab: self.vocab,
                    token: t,
                });
            }
        }
        self.unigram[next as usize] += 1;
        self.total_unigrams += 1;
        if let Some(&w2) = ctx.last() {
            *self.bigram.entry(w2).or_default().entry(next).or_insert(0) += 1;
            *self.bigram_context_totals.entry(w2).or_insert(0) += 1;
            if ctx.len() >= 2 {
                let w1 = ctx[ctx.len() - 2];
                *self
                    .trigram
                    .entry((w1, w2))
                    .or_default()
                    .entry(next)
                    .or_insert(0) += 1;
                *self.trigram_context_totals.entry((w1, w2)).or_insert(0) += 1;
            }
        }
        Ok(())
    }

    /// Counts a whole corpus of `NextToken` examples.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first invalid example's error.
    pub fn observe_all<'a, I: IntoIterator<Item = &'a Example>>(
        &mut self,
        examples: I,
    ) -> Result<(), MlError> {
        for ex in examples {
            self.observe(ex)?;
        }
        Ok(())
    }

    /// Interpolated probability of `next` given `ctx`.
    pub fn prob(&self, ctx: &[u32], next: u32) -> f64 {
        let uni = if self.total_unigrams == 0 {
            1.0 / self.vocab as f64
        } else {
            // Add-one smoothing keeps unseen tokens non-zero.
            (self.unigram[next as usize] as f64 + 1.0)
                / (self.total_unigrams as f64 + self.vocab as f64)
        };
        let mut p = self.lambdas[2] * uni;
        if let Some(&w2) = ctx.last() {
            if let (Some(counts), Some(&total)) =
                (self.bigram.get(&w2), self.bigram_context_totals.get(&w2))
            {
                let c = counts.get(&next).copied().unwrap_or(0);
                p += self.lambdas[1] * c as f64 / total as f64;
            }
            if ctx.len() >= 2 {
                let key = (ctx[ctx.len() - 2], w2);
                if let (Some(counts), Some(&total)) = (
                    self.trigram.get(&key),
                    self.trigram_context_totals.get(&key),
                ) {
                    let c = counts.get(&next).copied().unwrap_or(0);
                    p += self.lambdas[0] * c as f64 / total as f64;
                }
            }
        }
        p
    }

    /// The most likely next token for a context (ties break to the lower id).
    pub fn predict_top1(&self, ctx: &[u32]) -> u32 {
        let mut best = 0u32;
        let mut best_p = f64::NEG_INFINITY;
        // Candidate set: tokens seen after this context (both orders) plus
        // the globally most frequent token, rather than scanning the whole
        // vocabulary every call.
        let mut candidates: Vec<u32> = Vec::new();
        if let Some(&w2) = ctx.last() {
            if ctx.len() >= 2 {
                if let Some(counts) = self.trigram.get(&(ctx[ctx.len() - 2], w2)) {
                    candidates.extend(counts.keys().copied());
                }
            }
            if let Some(counts) = self.bigram.get(&w2) {
                candidates.extend(counts.keys().copied());
            }
        }
        if let Some(top_uni) = (0..self.vocab as u32).max_by_key(|&t| self.unigram[t as usize]) {
            candidates.push(top_uni);
        }
        candidates.sort_unstable();
        candidates.dedup();
        for t in candidates {
            let p = self.prob(ctx, t);
            if p > best_p || (p == best_p && t < best) {
                best_p = p;
                best = t;
            }
        }
        best
    }

    /// Top-1 recall over a set of held-out `NextToken` examples.
    ///
    /// # Errors
    ///
    /// Returns an error for non-`NextToken` examples.
    pub fn top1_recall(&self, examples: &[Example]) -> Result<f64, MlError> {
        if examples.is_empty() {
            return Err(MlError::EmptyBatch);
        }
        let mut hits = 0usize;
        for ex in examples {
            let (ctx, next) = match ex {
                Example::NextToken { context, next } => (context.as_slice(), *next),
                _ => {
                    return Err(MlError::WrongExampleKind {
                        expected: "next-token",
                    })
                }
            };
            if self.predict_top1(ctx) == next {
                hits += 1;
            }
        }
        Ok(hits as f64 / examples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: &mut NgramLm, ctx: Vec<u32>, next: u32, times: usize) {
        for _ in 0..times {
            m.observe(&Example::next_token(ctx.clone(), next)).unwrap();
        }
    }

    #[test]
    fn trigram_dominates_when_seen() {
        let mut m = NgramLm::with_default_lambdas(10);
        obs(&mut m, vec![1, 2], 3, 10);
        obs(&mut m, vec![4, 2], 5, 10); // same bigram context "2", different trigram
        assert_eq!(m.predict_top1(&[1, 2]), 3);
        assert_eq!(m.predict_top1(&[4, 2]), 5);
    }

    #[test]
    fn backs_off_to_bigram_for_unseen_trigram() {
        let mut m = NgramLm::with_default_lambdas(10);
        obs(&mut m, vec![1, 2], 3, 10);
        // Trigram context (9,2) unseen; bigram context 2 says 3.
        assert_eq!(m.predict_top1(&[9, 2]), 3);
    }

    #[test]
    fn backs_off_to_unigram_for_unseen_context() {
        let mut m = NgramLm::with_default_lambdas(10);
        obs(&mut m, vec![1, 2], 7, 5);
        obs(&mut m, vec![3, 4], 7, 5);
        // Context 9 never seen; unigram distribution is dominated by 7.
        assert_eq!(m.predict_top1(&[9]), 7);
    }

    #[test]
    fn probabilities_are_positive_and_bounded() {
        let mut m = NgramLm::with_default_lambdas(5);
        obs(&mut m, vec![0, 1], 2, 3);
        for t in 0..5 {
            let p = m.prob(&[0, 1], t);
            assert!(p > 0.0 && p <= 1.0, "p({t}) = {p}");
        }
    }

    #[test]
    fn top1_recall_counts_hits() {
        let mut m = NgramLm::with_default_lambdas(10);
        obs(&mut m, vec![1, 2], 3, 10);
        let eval = vec![
            Example::next_token(vec![1, 2], 3), // hit
            Example::next_token(vec![1, 2], 4), // miss
        ];
        assert!((m.top1_recall(&eval).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_examples() {
        let mut m = NgramLm::with_default_lambdas(4);
        assert!(m.observe(&Example::next_token(vec![1], 9)).is_err());
        assert!(m.observe(&Example::classification(vec![1.0], 0)).is_err());
        assert!(m.top1_recall(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "lambdas must sum to 1")]
    fn rejects_bad_lambdas() {
        let _ = NgramLm::new(10, [0.5, 0.5, 0.5]);
    }
}
