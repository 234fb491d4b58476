//! Device retry policy (Sec. 2.3 flow control, device side).
//!
//! Pace steering only works if devices *cooperate* with the server's
//! "come back later" suggestions instead of hammering the Selector layer
//! on their own schedule. [`RetryPolicy`] is the shared configuration for
//! that cooperation: jittered exponential backoff between attempts, a
//! per-task retry *budget* so a single device cannot retry without bound
//! during an outage or flash crowd, and the rule that a server-suggested
//! reconnect window always takes precedence over a locally-computed
//! backoff when it is later.
//!
//! The policy lives in `fl-core` because three layers share it: the
//! device runtime enforces it (`fl-device::connectivity`), the simulator
//! subjects fleets to it (`fl-sim::overload`), and server-side capacity
//! planning reasons about it (worst-case reconnect rate of a population
//! is bounded by `budget_per_window / budget_window_ms`).

use serde::{Deserialize, Serialize};

/// Client-side reconnect discipline: jittered exponential backoff plus a
/// per-task retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Backoff delay after the first failed/rejected attempt (ms).
    pub base_delay_ms: u64,
    /// Multiplier applied to the delay on each further attempt.
    pub multiplier: f64,
    /// Upper bound for the computed backoff delay (ms).
    pub max_delay_ms: u64,
    /// Fraction of the delay added as uniform random jitter (`0.0..=1.0`);
    /// jitter decorrelates devices that failed at the same instant, which
    /// is exactly the synchronized-wake population a thundering herd is
    /// made of.
    pub jitter_frac: f64,
    /// Retry attempts a device may spend per task per budget window.
    pub budget_per_window: u32,
    /// Width of the budget window (ms). When the budget is exhausted the
    /// device goes quiet until the window rolls over.
    pub budget_window_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay_ms: 60_000,
            multiplier: 2.0,
            max_delay_ms: 60 * 60_000,
            jitter_frac: 0.5,
            budget_per_window: 8,
            budget_window_ms: 6 * 3_600_000,
        }
    }
}

impl RetryPolicy {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_delay_ms == 0 {
            return Err("base_delay_ms must be positive".into());
        }
        if self.multiplier < 1.0 || !self.multiplier.is_finite() {
            return Err("multiplier must be finite and >= 1.0".into());
        }
        if self.max_delay_ms < self.base_delay_ms {
            return Err("max_delay_ms must be >= base_delay_ms".into());
        }
        if !(0.0..=1.0).contains(&self.jitter_frac) {
            return Err("jitter_frac must be in [0, 1]".into());
        }
        if self.budget_per_window == 0 {
            return Err("budget_per_window must be positive".into());
        }
        if self.budget_window_ms == 0 {
            return Err("budget_window_ms must be positive".into());
        }
        Ok(())
    }

    /// The deterministic (pre-jitter) backoff delay for a 1-based retry
    /// attempt: `base × multiplier^(attempt−1)`, capped at
    /// [`max_delay_ms`](RetryPolicy::max_delay_ms). Attempt 0 is treated
    /// as attempt 1.
    pub fn nominal_delay_ms(&self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(63);
        let scaled = self.base_delay_ms as f64 * self.multiplier.powi(exp as i32);
        if scaled >= self.max_delay_ms as f64 {
            self.max_delay_ms
        } else {
            (scaled as u64).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        assert_eq!(RetryPolicy::default().validate(), Ok(()));
    }

    #[test]
    fn nominal_delay_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            base_delay_ms: 1_000,
            multiplier: 2.0,
            max_delay_ms: 10_000,
            ..RetryPolicy::default()
        };
        assert_eq!(p.nominal_delay_ms(1), 1_000);
        assert_eq!(p.nominal_delay_ms(2), 2_000);
        assert_eq!(p.nominal_delay_ms(3), 4_000);
        assert_eq!(p.nominal_delay_ms(4), 8_000);
        assert_eq!(p.nominal_delay_ms(5), 10_000); // capped
        assert_eq!(p.nominal_delay_ms(60), 10_000); // no overflow
                                                    // Attempt 0 behaves like attempt 1.
        assert_eq!(p.nominal_delay_ms(0), 1_000);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let ok = RetryPolicy::default();
        assert!(RetryPolicy {
            base_delay_ms: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            multiplier: 0.5,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            max_delay_ms: 1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            jitter_frac: 1.5,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            budget_per_window: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            budget_window_ms: 0,
            ..ok
        }
        .validate()
        .is_err());
    }
}
