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
//!
//! A device-day's stream yields, in order: the night start's pair of
//! uniforms, the night length's pair, the bout coin and, with a bout, its
//! start uniform and its length's pair (the timezone offset comes from a
//! stream per device). Drawing a uniform costs a few integer steps; turning
//! a pair into a normal (Box–Muller: a logarithm, a square root and a
//! cosine) costs most of a query. So a query draws every uniform of the
//! device-days it visits, in that order, and evaluates a normal only when
//! it compares a value that depends on it:
//!
//! - the night start, when `t` is at or past the night floor, or when no
//!   bout that starts at or after `t` starts before the floor;
//! - a window's end (the night length, the bout length) only once `t` is
//!   at or past its start, or when the window is the answer.
//!
//! The floor is safe because a night start is clamped to 15–30 h into its
//! day and 15 h is a whole number of milliseconds: no night contains a
//! time before its day's floor, and a bout that starts before the floor
//! starts before the night, so it wins `next_window` without the night
//! start being known. Nothing assumes yesterday's bout ends before
//! midnight (a wide spread starts one up to 31 h into its day). Every
//! answer is the one the eager evaluation of every normal gives, which the
//! tests check against a copy of it.

use crate::{DAY_MS, HOUR_MS};
use fl_ml::rng::{self, NormalDraw};
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

/// A window [`DiurnalAvailability::next_window_lazily`] found: its start,
/// and its end once [`Self::end_ms`] asks for it.
#[derive(Debug, Clone, Copy)]
pub struct LazyWindow<'a> {
    /// Window start (ms).
    pub start_ms: u64,
    end: LazyEnd<'a>,
}

/// A [`LazyWindow`]'s end: evaluated by the query, or the length's pair
/// still to be turned into a normal.
#[derive(Debug, Clone, Copy)]
enum LazyEnd<'a> {
    Known(u64),
    Night(&'a DiurnalConfig, NormalDraw),
    Bout(&'a DiurnalConfig, NormalDraw),
}

impl LazyWindow<'_> {
    /// The window's end: one normal, unless the query compared it.
    pub fn end_ms(self) -> u64 {
        let length_h = match self.end {
            LazyEnd::Known(end_ms) => return end_ms,
            LazyEnd::Night(c, length) => {
                (c.night_duration_hours + length.value() * c.night_duration_std).clamp(2.0, 14.0)
            }
            LazyEnd::Bout(c, length) => {
                (c.daytime_bout_hours + length.value() * 0.5).clamp(0.2, 3.0)
            }
        };
        self.start_ms + hours_ms(length_h)
    }

    /// A window whose end the query evaluated.
    fn known(window: Window) -> Self {
        LazyWindow {
            start_ms: window.start_ms,
            end: LazyEnd::Known(window.end_ms),
        }
    }

    /// The window, its end evaluated.
    fn window(self) -> Window {
        Window {
            start_ms: self.start_ms,
            end_ms: self.end_ms(),
        }
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

    /// The eligibility windows of `device` on `day` (0-based): the
    /// overnight window, then the daytime bout if the device has one that
    /// day.
    ///
    /// A night window starting late (e.g. 23:00 for 9 h) spills into the
    /// next day; callers interested in time `t` should check day
    /// `t/DAY` and day `t/DAY − 1`.
    pub fn windows(&self, device: u64, day: u64) -> Vec<Window> {
        let mut draws = self.device_day(device, day, self.timezone_offset_h(device));
        let bout = draws.bout.map(|bout| draws.bout_window(bout));
        std::iter::once(draws.night()).chain(bout).collect()
    }

    /// The device's fixed timezone offset in hours (not per day), from a
    /// stream of its own.
    fn timezone_offset_h(&self, device: u64) -> f64 {
        let mut tz_rng = rng::seeded(rng::derive_seed(self.seed ^ 0x72, device));
        (tz_rng.random::<f64>() - 0.5) * self.config.timezone_spread_hours
    }

    /// The draws of `device` on `day`, none of their normals evaluated.
    fn device_day(&self, device: u64, day: u64, tz_offset_h: f64) -> DeviceDay<'_> {
        let mut r = rng::seeded(rng::derive_seed(
            self.seed,
            device.wrapping_mul(100_003).wrapping_add(day),
        ));
        let night_start = NormalDraw::draw(&mut r);
        let night_length = NormalDraw::draw(&mut r);
        let day_ms = day * DAY_MS;
        // Optional daytime bout (e.g. desk charging around midday).
        let bout = (r.random::<f64>() < self.config.daytime_bout_probability).then(|| {
            let start_h = 9.0 + tz_offset_h.max(-2.0) + r.random::<f64>() * 9.0; // ~09:00–18:00 local
            (day_ms + hours_ms(start_h), NormalDraw::draw(&mut r))
        });
        DeviceDay {
            config: &self.config,
            day_ms,
            tz_offset_h,
            night_start,
            night_length,
            night_start_ms: None,
            bout,
        }
    }

    /// The window containing `t_ms`, if any (used to predict the
    /// eligibility-change drop-out time of a selected device).
    pub fn current_window(&self, device: u64, t_ms: u64) -> Option<Window> {
        let day = t_ms / DAY_MS;
        let tz_offset_h = self.timezone_offset_h(device);
        // Yesterday's night window may have spilled past midnight.
        let mut days = day.checked_sub(1).into_iter().chain([day]);
        days.find_map(|d| self.device_day(device, d, tz_offset_h).containing(t_ms))
    }

    /// The window that contains `t_ms` if the device is eligible then,
    /// otherwise the one with the earliest start from today's on. Searches
    /// up to two days ahead, and stops at the first day with such a start
    /// (see [`Self::new`] for why no later day can have an earlier one).
    pub fn next_window(&self, device: u64, t_ms: u64) -> Option<Window> {
        self.next_window_lazily(device, t_ms)
            .map(LazyWindow::window)
    }

    /// [`Self::next_window`], the end of a window that starts after `t_ms`
    /// not yet evaluated: a caller that may not need it saves its normal.
    pub fn next_window_lazily(&self, device: u64, t_ms: u64) -> Option<LazyWindow<'_>> {
        let day = t_ms / DAY_MS;
        let tz_offset_h = self.timezone_offset_h(device);
        if let Some(yesterday) = day.checked_sub(1) {
            let spilled = self
                .device_day(device, yesterday, tz_offset_h)
                .containing(t_ms);
            if let Some(w) = spilled {
                return Some(LazyWindow::known(w));
            }
        }
        (day..=day + 2).find_map(|d| {
            self.device_day(device, d, tz_offset_h)
                .containing_or_next(t_ms)
        })
    }

    /// The next time ≥ `t_ms` at which the device becomes eligible:
    /// `t_ms` itself exactly when it already is, otherwise the start of
    /// [`Self::next_window`].
    pub fn next_eligible_at(&self, device: u64, t_ms: u64) -> Option<u64> {
        self.next_window(device, t_ms).map(|w| w.start_ms.max(t_ms))
    }
}

/// The fraction of devices `0..n` eligible at a time, for a gauge sampled
/// many times a day: each device's windows of yesterday and today are
/// evaluated once, when the sampled day changes, not at every sample.
#[derive(Debug)]
pub struct EligibleGauge<'a> {
    model: &'a DiurnalAvailability,
    /// The day the windows are of.
    day: Option<u64>,
    /// Per device, its windows of `day − 1` and `day`.
    windows: Vec<Vec<Window>>,
}

impl<'a> EligibleGauge<'a> {
    /// A gauge over devices `0..n` of `model`.
    pub fn new(model: &'a DiurnalAvailability, n: u64) -> Self {
        EligibleGauge {
            model,
            day: None,
            windows: vec![Vec::new(); usize::try_from(n).expect("a gauge fits in memory")],
        }
    }

    /// The fraction of the devices eligible at `t_ms` (exact count; 0 for
    /// no devices): those with a window of yesterday or today around it.
    pub fn fraction(&mut self, t_ms: u64) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let day = t_ms / DAY_MS;
        if self.day != Some(day) {
            for (device, windows) in (0..).zip(&mut self.windows) {
                windows.clear();
                for d in day.checked_sub(1).into_iter().chain([day]) {
                    windows.extend(self.model.windows(device, d));
                }
            }
            self.day = Some(day);
        }
        let count = self
            .windows
            .iter()
            .filter(|windows| windows.iter().any(|w| w.contains(t_ms)))
            .count();
        count as f64 / self.windows.len() as f64
    }
}

/// How far into its day the earliest night window starts: a night start
/// is clamped to 15–30 h.
const NIGHT_FLOOR_MS: u64 = 15 * HOUR_MS;

/// `hours` as whole milliseconds, truncated.
fn hours_ms(hours: f64) -> u64 {
    (hours * HOUR_MS as f64) as u64
}

/// One device-day's draws, taken from its stream in the model's order:
/// the night start's pair, the night length's pair, the bout coin, then,
/// with a bout, its start uniform and its length's pair. The uniforms are
/// all drawn up front; a pair becomes a normal only when a query compares
/// a value that depends on it, and the night start, which one query may
/// compare twice, at most once.
struct DeviceDay<'a> {
    config: &'a DiurnalConfig,
    /// The day's first millisecond.
    day_ms: u64,
    tz_offset_h: f64,
    night_start: NormalDraw,
    night_length: NormalDraw,
    /// The night start, once evaluated.
    night_start_ms: Option<u64>,
    /// The bout's start (a uniform, no normal) and its length's pair.
    bout: Option<(u64, NormalDraw)>,
}

impl<'a> DeviceDay<'a> {
    /// The overnight start (one normal, the first time).
    fn night_start_ms(&mut self) -> u64 {
        if let Some(start_ms) = self.night_start_ms {
            return start_ms;
        }
        let c = self.config;
        let start_h =
            (c.night_start_hour + self.tz_offset_h + self.night_start.value() * c.night_start_std)
                .clamp(15.0, 30.0);
        let start_ms = self.day_ms + hours_ms(start_h);
        self.night_start_ms = Some(start_ms);
        start_ms
    }

    /// The overnight window, its length's normal not yet evaluated.
    fn night_lazily(&mut self) -> LazyWindow<'a> {
        LazyWindow {
            start_ms: self.night_start_ms(),
            end: LazyEnd::Night(self.config, self.night_length),
        }
    }

    /// The overnight window (its length's normal).
    fn night(&mut self) -> Window {
        self.night_lazily().window()
    }

    /// The daytime bout that starts at `start_ms`, its length's normal not
    /// yet evaluated.
    fn bout_lazily(&self, (start_ms, length): (u64, NormalDraw)) -> LazyWindow<'a> {
        LazyWindow {
            start_ms,
            end: LazyEnd::Bout(self.config, length),
        }
    }

    /// The daytime bout that starts at `start_ms` (its length's normal).
    fn bout_window(&self, bout: (u64, NormalDraw)) -> Window {
        self.bout_lazily(bout).window()
    }

    /// The day's first window, night before bout, that contains `t_ms`.
    /// Before the night floor the night cannot, and a window's end is only
    /// evaluated once `t_ms` is at or past its start.
    fn containing(&mut self, t_ms: u64) -> Option<Window> {
        if t_ms >= self.day_ms + NIGHT_FLOOR_MS && t_ms >= self.night_start_ms() {
            let night = self.night();
            if night.contains(t_ms) {
                return Some(night);
            }
        }
        let (start_ms, length) = self.bout?;
        (t_ms >= start_ms)
            .then(|| self.bout_window((start_ms, length)))
            .filter(|bout| bout.contains(t_ms))
    }

    /// [`Self::containing`], or else the window with the earliest start at
    /// or after `t_ms`, the night on a tie, its end not yet evaluated. A
    /// bout that starts before the night floor starts before the night, so
    /// it wins without the night start.
    fn containing_or_next(&mut self, t_ms: u64) -> Option<LazyWindow<'a>> {
        if let Some(window) = self.containing(t_ms) {
            return Some(LazyWindow::known(window));
        }
        let bout = self.bout.filter(|&(start_ms, _)| start_ms >= t_ms);
        if let Some(bout) = bout.filter(|&(start_ms, _)| start_ms < self.day_ms + NIGHT_FLOOR_MS) {
            return Some(self.bout_lazily(bout));
        }
        let night_start_ms = self.night_start_ms();
        match bout {
            Some(bout) if night_start_ms < t_ms || bout.0 < night_start_ms => {
                Some(self.bout_lazily(bout))
            }
            _ if night_start_ms >= t_ms => Some(self.night_lazily()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DiurnalAvailability {
        /// Whether `device` is eligible at absolute time `t_ms`.
        fn is_eligible(&self, device: u64, t_ms: u64) -> bool {
            self.current_window(device, t_ms).is_some()
        }
    }

    #[test]
    fn night_availability_dominates_day() {
        let model = DiurnalAvailability::us_centric(7);
        let n = 2_000;
        // 03:00 on day 1 (inside most overnight windows started day 0).
        let mut gauge = EligibleGauge::new(&model, n);
        let night = gauge.fraction(DAY_MS + 3 * HOUR_MS);
        // 15:00 on day 1 (only daytime bouts).
        let day = gauge.fraction(DAY_MS + 15 * HOUR_MS);
        assert!(night > 0.45, "night fraction {night}");
        assert!(day < 0.25, "day fraction {day}");
        // The paper reports a ~4× swing for a US-centric population.
        let swing = night / day.max(1e-9);
        assert!((2.5..12.0).contains(&swing), "swing {swing}");
    }

    #[test]
    fn an_empty_fleet_has_no_eligible_fraction() {
        let model = DiurnalAvailability::us_centric(7);
        let mut gauge = EligibleGauge::new(&model, 0);
        assert_eq!(gauge.fraction(DAY_MS + 3 * HOUR_MS), 0.0);
    }

    #[test]
    fn the_gauge_counts_the_devices_a_query_finds_eligible() {
        let model = DiurnalAvailability::us_centric(3);
        let n = 300;
        let mut gauge = EligibleGauge::new(&model, n);
        // Every 10 minutes over three days, across both midnights.
        for t_ms in (0..3 * DAY_MS).step_by(10 * 60_000) {
            let count = (0..n).filter(|&d| model.is_eligible(d, t_ms)).count();
            assert_eq!(gauge.fraction(t_ms), count as f64 / n as f64, "at {t_ms}");
        }
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

    /// A device-day's windows as the model evaluated them before its
    /// queries went lazy: every normal of the day, in draw order. The
    /// oracle the queries are checked against.
    fn reference_windows(model: &DiurnalAvailability, device: u64, day: u64) -> Vec<Window> {
        let config = &model.config;
        let mut r = rng::seeded(rng::derive_seed(
            model.seed,
            device.wrapping_mul(100_003).wrapping_add(day),
        ));
        let mut tz_rng = rng::seeded(rng::derive_seed(model.seed ^ 0x72, device));
        let tz_offset_h = (tz_rng.random::<f64>() - 0.5) * config.timezone_spread_hours;
        let start_h = (config.night_start_hour
            + tz_offset_h
            + rng::normal_with_std(&mut r, config.night_start_std))
        .clamp(15.0, 30.0);
        let dur_h = (config.night_duration_hours
            + rng::normal_with_std(&mut r, config.night_duration_std))
        .clamp(2.0, 14.0);
        let start = day * DAY_MS + (start_h * HOUR_MS as f64) as u64;
        let mut windows = vec![Window {
            start_ms: start,
            end_ms: start + (dur_h * HOUR_MS as f64) as u64,
        }];
        if r.random::<f64>() < config.daytime_bout_probability {
            let bout_start_h = 9.0 + tz_offset_h.max(-2.0) + r.random::<f64>() * 9.0;
            let bout_dur_h =
                (config.daytime_bout_hours + rng::normal_with_std(&mut r, 0.5)).clamp(0.2, 3.0);
            let bstart = day * DAY_MS + (bout_start_h * HOUR_MS as f64) as u64;
            windows.push(Window {
                start_ms: bstart,
                end_ms: bstart + (bout_dur_h * HOUR_MS as f64) as u64,
            });
        }
        windows
    }

    /// The first of yesterday's and today's windows, in order, that
    /// contains `t_ms`.
    fn reference_current_window(
        model: &DiurnalAvailability,
        device: u64,
        t_ms: u64,
    ) -> Option<Window> {
        let day = t_ms / DAY_MS;
        let days = day.checked_sub(1).into_iter().chain([day]);
        days.flat_map(|d| reference_windows(model, device, d))
            .find(|w| w.contains(t_ms))
    }

    /// The current window, else the earliest start at or after `t_ms`
    /// among every window of today and the next two days (the first
    /// listed on a tie), with no early exit.
    fn reference_next_window(
        model: &DiurnalAvailability,
        device: u64,
        t_ms: u64,
    ) -> Option<Window> {
        let day = t_ms / DAY_MS;
        reference_current_window(model, device, t_ms).or_else(|| {
            (day..=day + 2)
                .flat_map(|d| reference_windows(model, device, d))
                .filter(|w| w.start_ms >= t_ms)
                .reduce(|first, w| {
                    if w.start_ms < first.start_ms {
                        w
                    } else {
                        first
                    }
                })
        })
    }

    /// Every query of `model` about `device` at `t_ms` against the oracle.
    fn assert_queries_match_the_reference(model: &DiurnalAvailability, device: u64, t_ms: u64) {
        let current = reference_current_window(model, device, t_ms);
        let next = reference_next_window(model, device, t_ms);
        let at = format!("device {device} at {t_ms}");
        assert_eq!(model.current_window(device, t_ms), current, "{at}");
        assert_eq!(model.is_eligible(device, t_ms), current.is_some(), "{at}");
        assert_eq!(model.next_window(device, t_ms), next, "{at}");
        // A lazy window's start costs what the eager query's does, and its
        // end one normal more, unless the query compared it (a window that
        // contains `t_ms`).
        let before = fl_ml::rng::normals();
        let lazy = model.next_window_lazily(device, t_ms);
        let start_normals = fl_ml::rng::normals() - before;
        assert_eq!(lazy.map(|w| w.start_ms), next.map(|w| w.start_ms), "{at}");
        let end_ms = lazy.map(LazyWindow::end_ms);
        let end_normals = fl_ml::rng::normals() - before - start_normals;
        assert_eq!(end_ms, next.map(|w| w.end_ms), "{at}");
        let contains = next.is_some_and(|w| w.contains(t_ms));
        let expected = u64::from(next.is_some() && !contains);
        assert_eq!(end_normals, expected, "{at}");
        assert_eq!(
            model.next_eligible_at(device, t_ms),
            next.map(|w| w.start_ms.max(t_ms)),
            "{at}"
        );
        let day = t_ms / DAY_MS;
        assert_eq!(
            model.windows(device, day),
            reference_windows(model, device, day),
            "{at}"
        );
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
                    assert_queries_match_the_reference(&model, device, t_ms);
                    if model.is_eligible(device, t_ms) {
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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_096))]

        /// Any seed, device and spread `new` accepts, at any time of three
        /// days, with a third of the times within 2 ms of a midnight.
        #[test]
        fn lazy_queries_match_the_eager_reference(
            seed in any::<u64>(),
            device in any::<u64>(),
            spread_h in 0.0f64..=26.0,
            day in 0u64..3,
            offset_ms in prop_oneof![0..DAY_MS, 0u64..2, DAY_MS - 2..DAY_MS],
        ) {
            let config = DiurnalConfig {
                timezone_spread_hours: spread_h,
                ..DiurnalConfig::default()
            };
            let model = DiurnalAvailability::new(config, seed);
            assert_queries_match_the_reference(&model, device, day * DAY_MS + offset_ms);
        }
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
