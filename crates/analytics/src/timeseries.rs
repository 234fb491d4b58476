//! Windowed time series for counters and gauges.
//!
//! Server- and device-side health metrics (check-ins per minute, round
//! completion rate, drop-out rate, traffic) are aggregated into
//! fixed-width time buckets, matching the paper's dashboard charts
//! (Figs. 5–9 are all bucketed time series).

use serde::{Deserialize, Serialize};

/// A time series of `f64` values aggregated into fixed-width buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Series name (chart label).
    pub name: String,
    bucket_ms: u64,
    origin_ms: u64,
    /// Per-bucket (sum, count).
    buckets: Vec<(f64, u64)>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width, starting at
    /// `origin_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_ms == 0`.
    pub fn new(name: impl Into<String>, bucket_ms: u64, origin_ms: u64) -> Self {
        assert!(bucket_ms > 0, "bucket width must be positive");
        TimeSeries {
            name: name.into(),
            bucket_ms,
            origin_ms,
            buckets: Vec::new(),
        }
    }

    fn bucket_index(&self, now_ms: u64) -> usize {
        (now_ms.saturating_sub(self.origin_ms) / self.bucket_ms) as usize
    }

    /// Records an observation at `now_ms`.
    pub fn record(&mut self, now_ms: u64, value: f64) {
        let idx = self.bucket_index(now_ms);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, (0.0, 0));
        }
        self.buckets[idx].0 += value;
        self.buckets[idx].1 += 1;
    }

    /// Increments a counter at `now_ms`.
    pub fn increment(&mut self, now_ms: u64) {
        self.record(now_ms, 1.0);
    }

    /// Per-bucket sums (counters: events per bucket).
    pub fn sums(&self) -> Vec<f64> {
        self.buckets.iter().map(|(s, _)| *s).collect()
    }

    /// Per-bucket means (gauges); empty buckets yield 0.
    pub fn means(&self) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
            .collect()
    }

    /// Bucket width in milliseconds.
    pub fn bucket_ms(&self) -> u64 {
        self.bucket_ms
    }

    /// Ratio of max to min over the *positive* bucket sums — the
    /// statistic behind the paper's "4× difference between low and high
    /// numbers of participating devices over a 24 hours period".
    pub fn peak_to_trough(&self) -> Option<f64> {
        let positive: Vec<f64> = self.sums().into_iter().filter(|&v| v > 0.0).collect();
        if positive.is_empty() {
            return None;
        }
        let max = positive.iter().cloned().fold(f64::MIN, f64::max);
        let min = positive.iter().cloned().fold(f64::MAX, f64::min);
        Some(max / min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut ts = TimeSeries::new("checkins", 1_000, 0);
        ts.increment(100);
        ts.increment(900);
        ts.increment(1_100);
        assert_eq!(ts.sums(), vec![2.0, 1.0]);
        assert_eq!(ts.buckets.len(), 2);
    }

    #[test]
    fn means_divide_by_count() {
        let mut ts = TimeSeries::new("latency", 1_000, 0);
        ts.record(0, 10.0);
        ts.record(10, 30.0);
        ts.record(1_500, 5.0);
        assert_eq!(ts.means(), vec![20.0, 5.0]);
    }

    #[test]
    fn origin_offsets_bucketing() {
        let mut ts = TimeSeries::new("x", 1_000, 5_000);
        ts.increment(5_100);
        ts.increment(6_100);
        assert_eq!(ts.sums(), vec![1.0, 1.0]);
    }

    #[test]
    fn gaps_are_zero_filled() {
        let mut ts = TimeSeries::new("x", 100, 0);
        ts.increment(0);
        ts.increment(450);
        assert_eq!(ts.sums(), vec![1.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(ts.means()[1], 0.0);
    }

    #[test]
    fn peak_to_trough_measures_diurnal_swing() {
        let mut ts = TimeSeries::new("participants", 100, 0);
        for _ in 0..8 {
            ts.increment(50); // peak bucket: 8
        }
        ts.increment(150);
        ts.increment(150); // trough bucket: 2
        assert_eq!(ts.peak_to_trough(), Some(4.0));
        assert_eq!(TimeSeries::new("e", 1, 0).peak_to_trough(), None);
    }
}
