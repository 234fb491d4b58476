//! Streaming, in-memory Federated Averaging (Sec. 4.2 + Appendix B).
//!
//! "No information for a round is written to persistent storage until it is
//! fully aggregated by the Master Aggregator. Specifically, all actors keep
//! their state in memory […]. In-memory aggregation also removes the
//! possibility of attacks within the data center that target persistent
//! logs of per-device updates, because no such logs exist."
//!
//! [`FedAvgAccumulator`] folds each `(Δᵏ, nᵏ)` in as it arrives and keeps
//! only the running sums `w̄ₜ = Σ Δᵏ` and `n̄ₜ = Σ nᵏ`; the per-device
//! update is dropped immediately. Accumulators merge associatively, which
//! is what lets Master Aggregators combine intermediate Aggregator results
//! (Sec. 6's hierarchical aggregation).

use crate::error::CoreError;
use fl_ml::compress::UpdateCodec;
use fl_ml::optim::WeightedUpdate;
use serde::{Deserialize, Serialize};

/// Streaming accumulator for Federated Averaging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedAvgAccumulator {
    /// Running `Σ Δᵏ` (`w̄ₜ` in Appendix B).
    sum_delta: Vec<f32>,
    /// Running `Σ nᵏ` (`n̄ₜ`).
    sum_weight: u64,
    /// Number of updates folded in.
    contributors: usize,
}

impl FedAvgAccumulator {
    /// Creates an accumulator for updates of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        FedAvgAccumulator {
            sum_delta: vec![0.0; dim],
            sum_weight: 0,
            contributors: 0,
        }
    }

    /// Number of updates folded in so far.
    pub fn contributors(&self) -> usize {
        self.contributors
    }

    /// Total weight `n̄ₜ` so far.
    // fl-lint: allow(test-only-pub): reference for sharded FedAvg in tests/properties.rs
    pub fn total_weight(&self) -> u64 {
        self.sum_weight
    }

    /// Folds one device update in and drops it — the streaming path the
    /// paper describes ("updates can be processed online as they are
    /// received without a need to store them", Sec. 10).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] or
    /// [`CoreError::ZeroWeightUpdate`].
    pub fn accumulate(&mut self, update: WeightedUpdate) -> Result<(), CoreError> {
        if update.delta.len() != self.sum_delta.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.sum_delta.len(),
                actual: update.delta.len(),
            });
        }
        if update.weight == 0 {
            return Err(CoreError::ZeroWeightUpdate);
        }
        for (s, d) in self.sum_delta.iter_mut().zip(&update.delta) {
            *s += d;
        }
        self.sum_weight += update.weight;
        self.contributors += 1;
        Ok(())
    }

    /// Folds one device's codec-encoded update in where it lies:
    /// [`UpdateCodec::add_into`] adds it to the running sum, decoding into
    /// `scratch` first only for a codec whose wire form is not the vector
    /// itself. The sum gets the same additions, in the same order, as
    /// decoding the update and passing it to
    /// [`FedAvgAccumulator::accumulate_presummed`].
    ///
    /// # Errors
    ///
    /// [`CoreError::ZeroWeightUpdate`], or the codec's error as
    /// [`CoreError::MalformedCheckpoint`]; the accumulator is then as it
    /// was.
    pub fn accumulate_encoded(
        &mut self,
        codec: &dyn UpdateCodec,
        bytes: &[u8],
        weight: u64,
        scratch: &mut Vec<f32>,
    ) -> Result<(), CoreError> {
        if weight == 0 {
            return Err(CoreError::ZeroWeightUpdate);
        }
        codec
            .add_into(bytes, &mut self.sum_delta, scratch)
            .map_err(|e| CoreError::MalformedCheckpoint(e.to_string()))?;
        self.sum_weight += weight;
        self.contributors += 1;
        Ok(())
    }

    /// Merges another accumulator in (hierarchical aggregation: Master
    /// Aggregator ← Aggregators).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if dimensions differ.
    pub fn merge(&mut self, other: &FedAvgAccumulator) -> Result<(), CoreError> {
        if other.sum_delta.len() != self.sum_delta.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.sum_delta.len(),
                actual: other.sum_delta.len(),
            });
        }
        for (s, d) in self.sum_delta.iter_mut().zip(&other.sum_delta) {
            *s += d;
        }
        self.sum_weight += other.sum_weight;
        self.contributors += other.contributors;
        Ok(())
    }

    /// Folds an already-summed masked aggregate in (the Secure Aggregation
    /// path: the server only ever sees the sum, Sec. 6).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] or
    /// [`CoreError::ZeroWeightUpdate`].
    pub fn accumulate_presummed(
        &mut self,
        delta_sum: &[f32],
        weight_sum: u64,
        contributors: usize,
    ) -> Result<(), CoreError> {
        if delta_sum.len() != self.sum_delta.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.sum_delta.len(),
                actual: delta_sum.len(),
            });
        }
        if weight_sum == 0 {
            return Err(CoreError::ZeroWeightUpdate);
        }
        for (s, d) in self.sum_delta.iter_mut().zip(delta_sum) {
            *s += d;
        }
        self.sum_weight += weight_sum;
        self.contributors += contributors;
        Ok(())
    }

    /// Computes the new global parameters `w_{t+1} = w_t + w̄ₜ/n̄ₜ`
    /// (Appendix B) without consuming the accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroWeightUpdate`] if nothing was accumulated,
    /// or a dimension mismatch against `current`.
    pub fn apply_to(&self, current: &[f32]) -> Result<Vec<f32>, CoreError> {
        if current.len() != self.sum_delta.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.sum_delta.len(),
                actual: current.len(),
            });
        }
        if self.sum_weight == 0 {
            return Err(CoreError::ZeroWeightUpdate);
        }
        let inv = 1.0 / self.sum_weight as f32;
        Ok(current
            .iter()
            .zip(&self.sum_delta)
            .map(|(w, d)| w + d * inv)
            .collect())
    }

    /// Adds zero-mean Gaussian noise with standard deviation `sigma` to
    /// every coordinate of the running sum — the server-side DP-FedAvg
    /// perturbation (see [`crate::privacy`]). Applied once per round,
    /// after all updates are folded in.
    pub fn perturb<R: rand::Rng>(&mut self, sigma: f64, rng: &mut R) {
        if sigma <= 0.0 {
            return;
        }
        for s in &mut self.sum_delta {
            *s += fl_ml::rng::normal_with_std(rng, sigma) as f32;
        }
    }

    /// The average update direction `w̄ₜ/n̄ₜ` itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroWeightUpdate`] if nothing was accumulated.
    // fl-lint: allow(test-only-pub): reference for sharded FedAvg in tests/properties.rs
    pub fn average_delta(&self) -> Result<Vec<f32>, CoreError> {
        if self.sum_weight == 0 {
            return Err(CoreError::ZeroWeightUpdate);
        }
        let inv = 1.0 / self.sum_weight as f32;
        Ok(self.sum_delta.iter().map(|d| d * inv).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(delta: Vec<f32>, weight: u64) -> WeightedUpdate {
        WeightedUpdate { delta, weight }
    }

    #[test]
    fn single_update_averages_to_itself() {
        let mut acc = FedAvgAccumulator::new(2);
        acc.accumulate(update(vec![2.0, 4.0], 2)).unwrap();
        assert_eq!(acc.average_delta().unwrap(), vec![1.0, 2.0]);
        assert_eq!(acc.apply_to(&[10.0, 10.0]).unwrap(), vec![11.0, 12.0]);
    }

    #[test]
    fn weighting_matches_appendix_b() {
        // Client A: n=1, local delta per-example [1, 0] → Δ = [1, 0].
        // Client B: n=3, local delta per-example [0, 1] → Δ = [0, 3].
        // Average = (Δa + Δb) / (1+3) = [0.25, 0.75].
        let mut acc = FedAvgAccumulator::new(2);
        acc.accumulate(update(vec![1.0, 0.0], 1)).unwrap();
        acc.accumulate(update(vec![0.0, 3.0], 3)).unwrap();
        assert_eq!(acc.average_delta().unwrap(), vec![0.25, 0.75]);
        assert_eq!(acc.contributors(), 2);
        assert_eq!(acc.total_weight(), 4);
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        let updates: Vec<WeightedUpdate> = (1..=10)
            .map(|i| update(vec![i as f32, -(i as f32)], i))
            .collect();
        let mut sequential = FedAvgAccumulator::new(2);
        for u in &updates {
            sequential.accumulate(u.clone()).unwrap();
        }
        let mut left = FedAvgAccumulator::new(2);
        let mut right = FedAvgAccumulator::new(2);
        for u in &updates[..4] {
            left.accumulate(u.clone()).unwrap();
        }
        for u in &updates[4..] {
            right.accumulate(u.clone()).unwrap();
        }
        left.merge(&right).unwrap();
        assert_eq!(left, sequential);
    }

    #[test]
    fn presummed_path_matches_streaming_path() {
        let mut streaming = FedAvgAccumulator::new(2);
        streaming.accumulate(update(vec![1.0, 2.0], 1)).unwrap();
        streaming.accumulate(update(vec![3.0, 4.0], 2)).unwrap();
        let mut presummed = FedAvgAccumulator::new(2);
        presummed.accumulate_presummed(&[4.0, 6.0], 3, 2).unwrap();
        assert_eq!(streaming, presummed);
    }

    #[test]
    fn rejects_dimension_mismatch_and_zero_weight() {
        let mut acc = FedAvgAccumulator::new(2);
        assert!(matches!(
            acc.accumulate(update(vec![1.0], 1)),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            acc.accumulate(update(vec![1.0, 2.0], 0)),
            Err(CoreError::ZeroWeightUpdate)
        ));
        let codec = fl_ml::compress::IdentityCodec;
        let mut scratch = Vec::new();
        assert!(matches!(
            acc.accumulate_encoded(&codec, &codec.encode(&[1.0]), 1, &mut scratch),
            Err(CoreError::MalformedCheckpoint(_))
        ));
        assert!(matches!(
            acc.accumulate_encoded(&codec, &codec.encode(&[1.0, 2.0]), 0, &mut scratch),
            Err(CoreError::ZeroWeightUpdate)
        ));
        assert_eq!(acc, FedAvgAccumulator::new(2));
        assert!(matches!(
            acc.average_delta(),
            Err(CoreError::ZeroWeightUpdate)
        ));
    }

    #[test]
    fn merge_rejects_mismatched_dims() {
        let mut a = FedAvgAccumulator::new(2);
        let b = FedAvgAccumulator::new(3);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn order_invariance_within_float_tolerance() {
        let updates: Vec<WeightedUpdate> = (0..50)
            .map(|i| update(vec![(i as f32).sin(), (i as f32).cos()], (i % 7 + 1) as u64))
            .collect();
        let mut forward = FedAvgAccumulator::new(2);
        for u in &updates {
            forward.accumulate(u.clone()).unwrap();
        }
        let mut backward = FedAvgAccumulator::new(2);
        for u in updates.iter().rev() {
            backward.accumulate(u.clone()).unwrap();
        }
        let f = forward.average_delta().unwrap();
        let b = backward.average_delta().unwrap();
        for (x, y) in f.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
