//! Pace steering (Sec. 2.3).
//!
//! "Pace steering is a flow control mechanism regulating the pattern of
//! device connections. […] based on the simple mechanism of the server
//! suggesting to the device the optimum time window to reconnect."
//!
//! Two regimes:
//!
//! * **Small populations** — "pace steering is used to ensure that a
//!   sufficient number of devices connect to the server simultaneously",
//!   using "a stateless probabilistic algorithm requiring no additional
//!   device/server communication to suggest reconnection times to rejected
//!   devices so that subsequent checkins are likely to arrive
//!   contemporaneously": we align suggestions to the next *rendezvous
//!   tick*, a global period boundary computable from wall time alone.
//!
//! * **Large populations** — "pace steering is used to randomize device
//!   check-in times, avoiding the 'thundering herd' problem": suggestions
//!   are spread uniformly over a window sized so expected arrivals match
//!   what the scheduled tasks need.
//!
//! Diurnal awareness (the paper's third property) scales the window by the
//! expected active-device factor so peak hours are not over-solicited.

/// Population-size regime boundary: below this, concentrate; above, spread.
pub const SMALL_POPULATION: u64 = 1_000;

/// Stateless pace-steering policy. All methods are pure functions of their
/// arguments plus the caller's RNG — the server keeps no per-device state,
/// matching the paper's "stateless probabilistic algorithm".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaceSteering {
    /// Period between rendezvous ticks for small populations (ms). Also
    /// the base reconnect horizon for large ones.
    pub rendezvous_period_ms: u64,
    /// Devices the server wants checked in per rendezvous (the round's
    /// selection target, typically `1.3 × goal`).
    pub target_checkins: u64,
}

impl PaceSteering {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(rendezvous_period_ms: u64, target_checkins: u64) -> Self {
        assert!(rendezvous_period_ms > 0, "period must be positive");
        assert!(target_checkins > 0, "target must be positive");
        PaceSteering {
            rendezvous_period_ms,
            target_checkins,
        }
    }

    /// Suggests an absolute reconnect time for a device rejected at
    /// `now_ms`, given the current population-size estimate and a diurnal
    /// activity factor (1.0 = average; >1 = peak hours, scaled back).
    ///
    /// # Panics
    ///
    /// Panics if `activity_factor` is not positive and finite.
    pub fn suggest_reconnect<R: rand::Rng>(
        &self,
        now_ms: u64,
        population_estimate: u64,
        activity_factor: f64,
        rng: &mut R,
    ) -> u64 {
        assert!(
            activity_factor.is_finite() && activity_factor > 0.0,
            "activity factor must be positive"
        );
        if population_estimate <= SMALL_POPULATION {
            // Small population: aim at the next rendezvous tick so that
            // rejected devices come back together. Jitter within a small
            // fraction of the period avoids exact synchronization spikes
            // at the transport level while keeping arrivals contemporaneous.
            let next_tick = (now_ms / self.rendezvous_period_ms + 1) * self.rendezvous_period_ms;
            let jitter = rng.random_range(0..self.rendezvous_period_ms / 20 + 1);
            next_tick + jitter
        } else {
            // Large population: devices should return "as frequently as
            // needed to run all scheduled FL tasks, but not more". With N
            // devices and a need for `target` check-ins per period, the
            // average device should return about every N/target periods.
            // Spreading uniformly over that horizon yields the desired
            // arrival rate with no thundering herd. Peak-hours activity
            // (factor > 1) stretches the horizon proportionally.
            let periods_needed =
                (population_estimate as f64 / self.target_checkins as f64).max(1.0);
            let horizon =
                (periods_needed * self.rendezvous_period_ms as f64 * activity_factor) as u64;
            now_ms + 1 + rng.random_range(0..horizon.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::rng::seeded;

    #[test]
    fn small_population_concentrates_on_ticks() {
        let pace = PaceSteering::new(60_000, 100);
        let mut rng = seeded(1);
        // Devices rejected at scattered times within one period...
        let suggestions: Vec<u64> = (0..200)
            .map(|i| pace.suggest_reconnect(10_000 + i * 37, 500, 1.0, &mut rng))
            .collect();
        // ...should all land in a narrow band after the next tick.
        let min = *suggestions.iter().min().unwrap();
        let max = *suggestions.iter().max().unwrap();
        assert!(min >= 60_000, "suggestion before the tick: {min}");
        assert!(
            max - min <= 60_000 / 20 + 60_000 / 100,
            "spread too wide: {}",
            max - min
        );
    }

    #[test]
    fn large_population_spreads_uniformly() {
        let pace = PaceSteering::new(60_000, 1_000);
        let mut rng = seeded(2);
        let population = 1_000_000u64;
        let horizon = 60_000 * (population / 1_000);
        let n = 10_000;
        let suggestions: Vec<u64> = (0..n)
            .map(|_| pace.suggest_reconnect(0, population, 1.0, &mut rng))
            .collect();
        // Thundering-herd check: no 1% bucket of the horizon holds more
        // than 3% of suggestions.
        let mut buckets = vec![0usize; 100];
        for &s in &suggestions {
            let b = ((s as f64 / horizon as f64) * 100.0).min(99.0) as usize;
            buckets[b] += 1;
        }
        let max_bucket = *buckets.iter().max().unwrap();
        assert!(
            max_bucket < n * 3 / 100,
            "thundering herd: {max_bucket} of {n} in one bucket"
        );
    }

    #[test]
    fn large_population_rate_matches_target() {
        // With horizon H = periods_needed * period, the expected number of
        // devices landing in any one period is ≈ target.
        let pace = PaceSteering::new(60_000, 500);
        let mut rng = seeded(3);
        let population = 100_000u64;
        let mut in_first_period = 0u64;
        for _ in 0..population {
            let s = pace.suggest_reconnect(0, population, 1.0, &mut rng);
            if s < 60_000 {
                in_first_period += 1;
            }
        }
        let expected = 500.0;
        assert!(
            (in_first_period as f64 - expected).abs() < expected * 0.25,
            "got {in_first_period}, expected ≈{expected}"
        );
    }

    #[test]
    fn peak_hours_stretch_the_horizon() {
        let pace = PaceSteering::new(60_000, 100);
        let mut rng = seeded(4);
        let offpeak: Vec<u64> = (0..2000)
            .map(|_| pace.suggest_reconnect(0, 50_000, 0.5, &mut rng))
            .collect();
        let peak: Vec<u64> = (0..2000)
            .map(|_| pace.suggest_reconnect(0, 50_000, 2.0, &mut rng))
            .collect();
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        // At peak, devices are told to come back later on average.
        assert!(mean(&peak) > mean(&offpeak) * 2.0);
    }

    #[test]
    fn suggestions_are_always_in_the_future() {
        let pace = PaceSteering::new(1_000, 10);
        let mut rng = seeded(5);
        for pop in [10u64, 1_000, 10_000, 10_000_000] {
            for now in [0u64, 999, 123_456_789] {
                let s = pace.suggest_reconnect(now, pop, 1.0, &mut rng);
                assert!(s > now, "pop {pop} now {now} suggested {s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "activity factor")]
    fn rejects_bad_activity_factor() {
        let pace = PaceSteering::new(1000, 10);
        let mut rng = seeded(6);
        let _ = pace.suggest_reconnect(0, 10, 0.0, &mut rng);
    }
}
