//! Diurnal device availability (Sec. 9, Fig. 5, Appendix A).
//!
//! "Devices are more likely idle and charging at night, and hence more
//! likely to participate. We have observed a 4× difference between low
//! and high numbers of participating devices over a 24 hours period for a
//! US-centric population."
//!
//! Model: each device charges overnight (a window whose start and length
//! vary per device per day) and may get a short daytime charging bout.
//! Eligibility = inside a window. The model is deterministic per
//! `(seed, device, day)`, so the simulator can query eligibility at any
//! time and also enumerate window *edges* — a device whose window ends
//! mid-round drops out with an eligibility change, which is exactly the
//! paper's daytime-drop-out mechanism ("higher probability of the device
//! eligibility criteria changes due interaction with a device", Fig. 7).

use crate::{DAY_MS, HOUR_MS};
use fl_ml::rng;
use rand::RngExt;

/// One eligibility window in absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Window start (ms).
    pub start_ms: u64,
    /// Window end (ms).
    pub end_ms: u64,
}

impl Window {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t_ms: u64) -> bool {
        t_ms >= self.start_ms && t_ms < self.end_ms
    }
}

/// Parameters of the diurnal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalConfig {
    /// Mean overnight plug-in hour (fractional, local time; 22.5 ≈ 22:30).
    pub night_start_hour: f64,
    /// Std-dev of the plug-in hour across devices/days.
    pub night_start_std: f64,
    /// Mean overnight charging duration in hours.
    pub night_duration_hours: f64,
    /// Std-dev of the duration.
    pub night_duration_std: f64,
    /// Probability of an additional short daytime charging bout.
    pub daytime_bout_probability: f64,
    /// Mean daytime bout duration in hours.
    pub daytime_bout_hours: f64,
    /// Timezone spread across the population in hours (devices get a
    /// fixed offset uniform in ±spread/2 — the paper's population is
    /// "US-centric", spanning several timezones).
    pub timezone_spread_hours: f64,
}

impl Default for DiurnalConfig {
    fn default() -> Self {
        DiurnalConfig {
            night_start_hour: 22.5,
            night_start_std: 1.5,
            night_duration_hours: 8.5,
            night_duration_std: 1.5,
            daytime_bout_probability: 0.5,
            daytime_bout_hours: 1.5,
            timezone_spread_hours: 5.0,
        }
    }
}

/// The fleet-wide availability model.
#[derive(Debug, Clone)]
pub struct DiurnalAvailability {
    config: DiurnalConfig,
    seed: u64,
}

impl DiurnalAvailability {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `timezone_spread_hours` is wider than 26 h. Every window
    /// of day `d` starts in `[d·DAY + 7 h, d·DAY + 31 h)`: a night start is
    /// clamped to 15–30 h, and a bout starts at `9 + max(tz, −2) + [0, 9)` h
    /// with `|tz| ≤ spread/2`. So each start of day `d` precedes each start
    /// of day `d + 1`, which is what lets [`Self::next_window`] stop at
    /// the first day that has a start at or after the query time.
    pub fn new(config: DiurnalConfig, seed: u64) -> Self {
        assert!(
            18.0 + config.timezone_spread_hours.abs() / 2.0 <= 31.0,
            "timezone spread of {} h lets a daytime bout start after the next day's first window",
            config.timezone_spread_hours
        );
        DiurnalAvailability { config, seed }
    }

    /// A US-centric population with the default parameters.
    pub fn us_centric(seed: u64) -> Self {
        DiurnalAvailability::new(DiurnalConfig::default(), seed)
    }

    /// The eligibility windows of `device` on `day` (0-based).
    ///
    /// A night window starting late (e.g. 23:00 for 9 h) spills into the
    /// next day; callers interested in time `t` should check day
    /// `t/DAY` and day `t/DAY − 1`.
    pub fn windows(&self, device: u64, day: u64) -> Vec<Window> {
        self.day_windows(device, day).collect()
    }

    /// [`Self::windows`] without the allocation: the overnight window, then
    /// the daytime bout if the device has one that day.
    fn day_windows(&self, device: u64, day: u64) -> impl Iterator<Item = Window> {
        let mut r = rng::seeded(rng::derive_seed(
            self.seed,
            device.wrapping_mul(100_003).wrapping_add(day),
        ));
        // Fixed per-device timezone offset (not per-day).
        let mut tz_rng = rng::seeded(rng::derive_seed(self.seed ^ 0x72, device));
        let tz_offset_h = (tz_rng.random::<f64>() - 0.5) * self.config.timezone_spread_hours;
        // Overnight window.
        let start_h = (self.config.night_start_hour
            + tz_offset_h
            + rng::normal_with_std(&mut r, self.config.night_start_std))
        .clamp(15.0, 30.0);
        let dur_h = (self.config.night_duration_hours
            + rng::normal_with_std(&mut r, self.config.night_duration_std))
        .clamp(2.0, 14.0);
        let start = day * DAY_MS + (start_h * HOUR_MS as f64) as u64;
        let night = Window {
            start_ms: start,
            end_ms: start + (dur_h * HOUR_MS as f64) as u64,
        };
        // Optional daytime bout (e.g. desk charging around midday).
        let bout = (r.random::<f64>() < self.config.daytime_bout_probability).then(|| {
            let bout_start_h = 9.0 + tz_offset_h.max(-2.0) + r.random::<f64>() * 9.0; // ~09:00–18:00 local
            let bout_dur_h = (self.config.daytime_bout_hours + rng::normal_with_std(&mut r, 0.5))
                .clamp(0.2, 3.0);
            let bstart = day * DAY_MS + (bout_start_h * HOUR_MS as f64) as u64;
            Window {
                start_ms: bstart,
                end_ms: bstart + (bout_dur_h * HOUR_MS as f64) as u64,
            }
        });
        std::iter::once(night).chain(bout)
    }

    /// Whether `device` is eligible at absolute time `t_ms`.
    pub fn is_eligible(&self, device: u64, t_ms: u64) -> bool {
        self.current_window(device, t_ms).is_some()
    }

    /// The window containing `t_ms`, if any (used to predict the
    /// eligibility-change drop-out time of a selected device).
    pub fn current_window(&self, device: u64, t_ms: u64) -> Option<Window> {
        let day = t_ms / DAY_MS;
        // Yesterday's night window may have spilled past midnight.
        let days = day.checked_sub(1).into_iter().chain([day]);
        days.flat_map(|d| self.day_windows(device, d))
            .find(|w| w.contains(t_ms))
    }

    /// The window that contains `t_ms` if the device is eligible then,
    /// otherwise the one with the earliest start from today's on. Searches
    /// up to two days ahead, and stops at the first day with such a start
    /// (see [`Self::new`] for why no later day can have an earlier one).
    pub fn next_window(&self, device: u64, t_ms: u64) -> Option<Window> {
        let day = t_ms / DAY_MS;
        if let Some(yesterday) = day.checked_sub(1) {
            let spilled = self
                .day_windows(device, yesterday)
                .find(|w| w.contains(t_ms));
            if spilled.is_some() {
                return spilled;
            }
        }
        for d in day..=day + 2 {
            let mut next: Option<Window> = None;
            for w in self.day_windows(device, d) {
                if w.contains(t_ms) {
                    return Some(w);
                }
                if w.start_ms >= t_ms && next.is_none_or(|n| w.start_ms < n.start_ms) {
                    next = Some(w);
                }
            }
            if next.is_some() {
                return next;
            }
        }
        None
    }

    /// The next time ≥ `t_ms` at which the device becomes eligible:
    /// `t_ms` itself exactly when it already is, otherwise the start of
    /// [`Self::next_window`].
    pub fn next_eligible_at(&self, device: u64, t_ms: u64) -> Option<u64> {
        self.next_window(device, t_ms).map(|w| w.start_ms.max(t_ms))
    }

    /// Fraction of a fleet of `n` devices eligible at `t_ms` (exact count;
    /// 0 for an empty fleet).
    pub fn eligible_fraction(&self, n: u64, t_ms: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let count = (0..n).filter(|&d| self.is_eligible(d, t_ms)).count();
        count as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn night_availability_dominates_day() {
        let model = DiurnalAvailability::us_centric(7);
        let n = 2_000;
        // 03:00 on day 1 (inside most overnight windows started day 0).
        let night = model.eligible_fraction(n, DAY_MS + 3 * HOUR_MS);
        // 15:00 on day 1 (only daytime bouts).
        let day = model.eligible_fraction(n, DAY_MS + 15 * HOUR_MS);
        assert!(night > 0.45, "night fraction {night}");
        assert!(day < 0.25, "day fraction {day}");
        // The paper reports a ~4× swing for a US-centric population.
        let swing = night / day.max(1e-9);
        assert!((2.5..12.0).contains(&swing), "swing {swing}");
    }

    #[test]
    fn an_empty_fleet_has_no_eligible_fraction() {
        let model = DiurnalAvailability::us_centric(7);
        assert_eq!(model.eligible_fraction(0, DAY_MS + 3 * HOUR_MS), 0.0);
    }

    #[test]
    fn windows_are_deterministic() {
        let model = DiurnalAvailability::us_centric(9);
        assert_eq!(model.windows(5, 2), model.windows(5, 2));
        assert_ne!(model.windows(5, 2), model.windows(6, 2));
    }

    #[test]
    fn current_window_spans_midnight() {
        let model = DiurnalAvailability::us_centric(11);
        // Find a device eligible at 02:00 on day 1; its window must have
        // started on day 0 and contain the query time.
        let t = DAY_MS + 2 * HOUR_MS;
        let device = (0..500)
            .find(|&d| model.is_eligible(d, t))
            .expect("someone is charging at 2am");
        let w = model.current_window(device, t).unwrap();
        assert!(w.contains(t));
        assert!(w.start_ms < DAY_MS, "window started the previous day");
    }

    #[test]
    fn next_eligible_at_finds_the_upcoming_window() {
        let model = DiurnalAvailability::us_centric(13);
        // 17:30 (most devices ineligible): the next window must start
        // within ~12 hours for almost everyone.
        let t = DAY_MS + 17 * HOUR_MS + 30 * 60_000;
        for device in 0..50 {
            if model.is_eligible(device, t) {
                assert_eq!(model.next_eligible_at(device, t), Some(t));
                continue;
            }
            let next = model.next_eligible_at(device, t).expect("has a window");
            assert!(next > t);
            assert!(next - t < 20 * HOUR_MS, "device {device} waits too long");
            assert!(model.is_eligible(device, next));
        }
    }

    #[test]
    fn daytime_windows_are_short() {
        // Daytime eligibility comes from short bouts → devices selected
        // then are more likely to hit a window edge (daytime drop-outs).
        let model = DiurnalAvailability::us_centric(17);
        let t = DAY_MS + 13 * HOUR_MS;
        let mut remaining: Vec<u64> = Vec::new();
        for device in 0..3_000 {
            if let Some(w) = model.current_window(device, t) {
                remaining.push(w.end_ms - t);
            }
        }
        assert!(!remaining.is_empty());
        let mean_remaining_h =
            remaining.iter().sum::<u64>() as f64 / remaining.len() as f64 / HOUR_MS as f64;
        assert!(
            mean_remaining_h < 3.5,
            "daytime windows should be short, mean {mean_remaining_h}h"
        );
    }

    /// The query as it was before the early exit: every day's windows
    /// evaluated through the public `windows`, yesterday and today for
    /// containment, then all of today and the next two days for a start.
    fn reference_next_eligible_at(
        model: &DiurnalAvailability,
        device: u64,
        t_ms: u64,
    ) -> Option<u64> {
        if reference_current_window(model, device, t_ms).is_some() {
            return Some(t_ms);
        }
        let day = t_ms / DAY_MS;
        (day..=day + 2)
            .flat_map(|d| model.windows(device, d))
            .map(|w| w.start_ms)
            .filter(|&start| start >= t_ms)
            .min()
    }

    fn reference_current_window(
        model: &DiurnalAvailability,
        device: u64,
        t_ms: u64,
    ) -> Option<Window> {
        let day = t_ms / DAY_MS;
        [day.saturating_sub(1), day]
            .into_iter()
            .flat_map(|d| model.windows(device, d))
            .find(|w| w.contains(t_ms))
    }

    #[test]
    fn queries_match_the_full_scan() {
        let wide = DiurnalConfig {
            timezone_spread_hours: 12.0,
            ..DiurnalConfig::default()
        };
        for config in [DiurnalConfig::default(), wide] {
            let model = DiurnalAvailability::new(config, 23);
            let (mut eligible, mut waiting) = (0, 0);
            for device in 0..2_000 {
                // Every 37 minutes over three days: t = 0, both sides of
                // each midnight, and times after a day's last start.
                for t_ms in (0..3 * DAY_MS).step_by(37 * 60_000) {
                    let next = model.next_eligible_at(device, t_ms);
                    assert_eq!(
                        next,
                        reference_next_eligible_at(&model, device, t_ms),
                        "device {device} at {t_ms}"
                    );
                    assert_eq!(
                        model.current_window(device, t_ms),
                        reference_current_window(&model, device, t_ms),
                        "device {device} at {t_ms}"
                    );
                    assert_eq!(next == Some(t_ms), model.is_eligible(device, t_ms));
                    // The window behind the answer: around `t_ms` exactly
                    // when eligible, else the one that starts at `next`.
                    let window = model.next_window(device, t_ms);
                    assert_eq!(
                        window.is_some_and(|w| w.contains(t_ms)),
                        reference_current_window(&model, device, t_ms).is_some(),
                        "device {device} at {t_ms}"
                    );
                    if next != Some(t_ms) {
                        assert_eq!(window.map(|w| w.start_ms), next);
                    }
                    if next == Some(t_ms) {
                        eligible += 1;
                    } else {
                        waiting += 1;
                    }
                }
            }
            assert!(
                eligible > 10_000 && waiting > 10_000,
                "{eligible} / {waiting}"
            );
        }
    }

    #[test]
    fn window_starts_stay_inside_the_bound_the_early_exit_needs() {
        // The widest spread `new` accepts: each day's starts must still
        // precede the next day's.
        let config = DiurnalConfig {
            timezone_spread_hours: 26.0,
            ..DiurnalConfig::default()
        };
        let model = DiurnalAvailability::new(config, 29);
        for device in 0..2_000 {
            for day in 0..3 {
                for w in model.windows(device, day) {
                    let offset = w.start_ms - day * DAY_MS;
                    assert!((7 * HOUR_MS..31 * HOUR_MS).contains(&offset), "{w:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "timezone spread of 30 h")]
    fn a_spread_that_breaks_the_window_start_bound_is_refused() {
        let config = DiurnalConfig {
            timezone_spread_hours: 30.0,
            ..DiurnalConfig::default()
        };
        let _ = DiurnalAvailability::new(config, 1);
    }
}
