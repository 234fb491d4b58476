//! The optimizer the device runtime trains with, and the weighted
//! update a FedAvg client returns (Appendix B of the paper).

/// A first-order optimizer updating a flat parameter vector in place.
pub trait Optimizer {
    /// Applies one update step given the gradient of the loss.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != grad.len()`.
    fn step(&mut self, params: &mut [f32], grad: &[f32]);
}

/// Plain stochastic gradient descent at a constant learning rate.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with a constant learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "param/grad length mismatch");
        crate::linalg::axpy(params, grad, -self.lr);
    }
}

/// The result of one client update: the *weighted* delta `Δ = n·(w − w₀)`
/// and the weight `n` (local example count), exactly as returned by
/// `ClientUpdate` in Appendix B. The paper notes Δ "is more amenable to
/// compression than w".
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedUpdate {
    /// Weighted parameter delta `n · (w − w_init)`.
    pub delta: Vec<f32>,
    /// Update weight (number of local examples).
    pub weight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_descends_a_quadratic() {
        // minimize 0.5 * w² — gradient is w.
        let mut w = vec![10.0f32];
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = vec![w[0]];
            opt.step(&mut w, &g);
        }
        assert!(w[0].abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn sgd_rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }
}
