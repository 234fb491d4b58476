//! Differential-privacy configuration (Sec. 6, footnote 2).
//!
//! "Privacy is enhanced by the ephemeral and focused nature of the FL
//! updates, and can be further augmented with Secure Aggregation and/or
//! differential privacy — e.g., the techniques of McMahan et al. (2018)
//! are currently implemented."
//!
//! This module provides the *simplified DP-FedAvg* server-side mechanism:
//! each device's weighted update is clipped to a fixed L2 norm as it is
//! folded into the (ephemeral, in-memory) aggregate, and calibrated
//! Gaussian noise is added to the sum once, before the average is applied
//! to the global model. As with the rest of the reproduction, the
//! *mechanism* is real; formal ε/δ accounting across rounds is out of
//! scope (the paper likewise defers concrete guarantees to the
//! application).

use serde::{Deserialize, Serialize};

/// Server-side DP-FedAvg parameters for a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpConfig {
    /// L2 clip norm applied to each device's weighted update.
    pub clip_norm: f32,
    /// Noise standard deviation as a multiple of the clip norm; the
    /// Gaussian added to the *sum* has `σ = noise_multiplier × clip_norm`.
    pub noise_multiplier: f64,
    /// Seed for the (simulated) noise source, so experiments reproduce.
    pub noise_seed: u64,
}

impl DpConfig {
    /// The noise standard deviation applied to the aggregate sum.
    pub fn sigma(&self) -> f64 {
        self.noise_multiplier * f64::from(self.clip_norm)
    }
}

/// Clips `v` in place to L2 norm at most `clip`, returning the original
/// norm. A no-op if the vector is already within the ball.
pub fn clip_l2(v: &mut [f32], clip: f32) -> f32 {
    let norm = fl_ml::linalg::l2_norm(v);
    if norm > clip && norm > 0.0 {
        let scale = clip / norm;
        for x in v {
            *x *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_leaves_small_vectors_alone() {
        let mut v = vec![0.3f32, 0.4];
        let norm = clip_l2(&mut v, 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(v, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_scales_large_vectors_onto_the_ball() {
        let mut v = vec![3.0f32, 4.0];
        let norm = clip_l2(&mut v, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let new_norm = fl_ml::linalg::l2_norm(&v);
        assert!((new_norm - 1.0).abs() < 1e-5);
        // Direction preserved.
        assert!((v[0] / v[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn sigma_scales_with_both_parameters() {
        let dp = DpConfig {
            clip_norm: 2.0,
            noise_multiplier: 1.5,
            noise_seed: 0,
        };
        assert!((dp.sigma() - 3.0).abs() < 1e-12);
        assert_eq!(
            DpConfig {
                clip_norm: 2.0,
                noise_multiplier: 0.0,
                noise_seed: 0
            }
            .sigma(),
            0.0
        );
    }

    #[test]
    fn zero_vector_is_untouched() {
        let mut v = vec![0.0f32; 4];
        assert_eq!(clip_l2(&mut v, 1.0), 0.0);
        assert_eq!(v, vec![0.0; 4]);
    }
}
