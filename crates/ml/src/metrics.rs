//! Streaming metrics: moments, accuracy/recall, and approximate order
//! statistics.
//!
//! Sec. 7.4 of the paper: materialized round metrics are "summaries of
//! device reports within the round via approximate order statistics and
//! moments like mean". [`StreamingMoments`] provides the moments (Welford's
//! algorithm) and [`P2Quantile`] the approximate order statistics (the P²
//! algorithm of Jain & Chlamtac, 1985 — constant memory, single pass).

use crate::linalg::argmax;
use crate::model::{Example, Label, MlError, Model};
use serde::{Deserialize, Serialize};

/// Single-pass mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingMoments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let d = other.mean - self.mean;
        self.mean += d * other.count as f64 / total as f64;
        self.m2 += other.m2 + d * d * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// P² single-pass quantile estimator with five markers.
///
/// Memory is O(1) regardless of stream length; accuracy is within a few
/// percent for smooth distributions — adequate for the dashboard-style
/// summaries of Sec. 7.4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based as in the original paper).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    count: u64,
    /// First observations, until five have been seen.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile (`0 < p < 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(f64::total_cmp);
                for (qi, v) in self.q.iter_mut().zip(&self.initial) {
                    *qi = *v;
                }
            }
            return;
        }
        // Find cell k such that q[k] <= x < q[k+1]; adjust extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.q[i] && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };
        for ni in self.n.iter_mut().skip(k + 1) {
            *ni += 1.0;
        }
        for (npi, dni) in self.np.iter_mut().zip(&self.dn) {
            *npi += dni;
        }
        // Adjust interior markers with the P² parabolic formula.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let s = d.signum();
                let qp = self.parabolic(i, s);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, s)
                };
                self.n[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + s / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + s) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - s) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + s * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current quantile estimate (exact while fewer than five observations).
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            let mut v = self.initial.clone();
            v.sort_by(f64::total_cmp);
            let idx = ((v.len() as f64 - 1.0) * self.p).round() as usize;
            return Some(v[idx]);
        }
        Some(self.q[2])
    }
}

/// A bundle of the per-round summary statistics the server materializes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Metric name, e.g. `"loss"` or `"train_time_ms"`.
    pub name: String,
    /// Streaming moments.
    pub moments: StreamingMoments,
    /// Median estimate.
    pub p50: P2Quantile,
    /// 90th-percentile estimate.
    pub p90: P2Quantile,
}

impl MetricSummary {
    /// Creates an empty summary for a named metric.
    pub fn new(name: impl Into<String>) -> Self {
        MetricSummary {
            name: name.into(),
            moments: StreamingMoments::new(),
            p50: P2Quantile::new(0.5),
            p90: P2Quantile::new(0.9),
        }
    }

    /// Folds one observation into all underlying sketches.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.p50.push(x);
        self.p90.push(x);
    }
}

/// Computes top-1 accuracy of a model over examples (classification or
/// next-token).
///
/// # Errors
///
/// Returns an error for empty input, regression examples, or prediction
/// failures.
pub fn top1_accuracy<M: Model + ?Sized>(model: &M, examples: &[Example]) -> Result<f64, MlError> {
    if examples.is_empty() {
        return Err(MlError::EmptyBatch);
    }
    let mut hits = 0usize;
    for ex in examples {
        let scores = model.predict(ex)?;
        let pred = argmax(&scores).ok_or(MlError::EmptyBatch)?;
        let hit = match ex.label() {
            Label::Class(c) => pred == c,
            Label::Token(t) => pred as u32 == t,
            Label::Real(_) => {
                return Err(MlError::WrongExampleKind { expected: "classification or next-token" })
            }
        };
        if hit {
            hits += 1;
        }
    }
    Ok(hits as f64 / examples.len() as f64)
}

/// Computes top-k recall (fraction of examples whose label is among the k
/// highest-scoring predictions).
///
/// # Errors
///
/// Same conditions as [`top1_accuracy`]; also errors if `k == 0`.
pub fn topk_recall<M: Model + ?Sized>(model: &M, examples: &[Example], k: usize) -> Result<f64, MlError> {
    if examples.is_empty() || k == 0 {
        return Err(MlError::EmptyBatch);
    }
    let mut hits = 0usize;
    for ex in examples {
        let scores = model.predict(ex)?;
        let target = match ex.label() {
            Label::Class(c) => c,
            Label::Token(t) => t as usize,
            Label::Real(_) => {
                return Err(MlError::WrongExampleKind { expected: "classification or next-token" })
            }
        };
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        if idx.iter().take(k).any(|&i| i == target) {
            hits += 1;
        }
    }
    Ok(hits as f64 / examples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_closed_form() {
        let mut m = StreamingMoments::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 4);
        assert!((m.mean() - 2.5).abs() < 1e-12);
        assert!((m.variance() - 1.25).abs() < 1e-12);
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(4.0));
    }

    #[test]
    fn moments_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = StreamingMoments::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = StreamingMoments::new();
        let mut b = StreamingMoments::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn p2_median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5);
        let mut rng = crate::rng::seeded(9);
        for _ in 0..50_000 {
            q.push(rand::RngExt::random::<f64>(&mut rng));
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p2_p90_of_uniform_stream() {
        let mut q = P2Quantile::new(0.9);
        let mut rng = crate::rng::seeded(10);
        for _ in 0..50_000 {
            q.push(rand::RngExt::random::<f64>(&mut rng));
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.9).abs() < 0.02, "p90 estimate {est}");
    }

    #[test]
    fn p2_is_exact_for_tiny_streams() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        q.push(3.0);
        assert_eq!(q.estimate(), Some(3.0));
        q.push(1.0);
        q.push(2.0);
        assert_eq!(q.estimate(), Some(2.0));
    }

    /// Regression: the first five observations were sorted with
    /// `partial_cmp(..).unwrap()`, which panics on a NaN.
    #[test]
    fn p2_orders_a_nan_instead_of_panicking() {
        let mut q = P2Quantile::new(0.5);
        for x in [0.5, f64::NAN, 0.4] {
            q.push(x);
        }
        assert_eq!(q.estimate(), Some(0.5));
        for x in [0.3, 0.2, 0.1] {
            q.push(x);
        }
        assert_eq!(q.count(), 6);
    }

    #[test]
    fn accuracy_and_recall_on_perfect_model() {
        use crate::models::logistic::LogisticRegression;
        use crate::optim::{Optimizer, Sgd};
        let mut m = LogisticRegression::new(2, 2, 0);
        let data = vec![
            Example::classification(vec![2.0, 0.0], 0),
            Example::classification(vec![0.0, 2.0], 1),
        ];
        let mut opt = Sgd::new(1.0);
        for _ in 0..200 {
            let (_, g) = m.loss_and_grad(&data).unwrap();
            opt.step(m.params_mut(), &g);
        }
        assert_eq!(top1_accuracy(&m, &data).unwrap(), 1.0);
        assert_eq!(topk_recall(&m, &data, 2).unwrap(), 1.0);
    }

    #[test]
    fn metric_summary_aggregates() {
        let mut s = MetricSummary::new("loss");
        for i in 0..100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.moments.count(), 100);
        assert!((s.moments.mean() - 49.5).abs() < 1e-9);
        let p50 = s.p50.estimate().unwrap();
        assert!((p50 - 49.5).abs() < 5.0, "p50 {p50}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_bad_p() {
        let _ = P2Quantile::new(1.0);
    }
}
