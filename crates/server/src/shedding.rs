//! Overload protection for the Selector layer (Sec. 2.3, Sec. 4.2).
//!
//! The paper's Selectors "make local decisions about whether or not to
//! accept each device" and pace steering "regulat[es] the pattern of
//! device connections" — but both are open loops if the server never
//! looks at what actually arrives. This module closes the loops:
//!
//! * [`AdmissionController`] — a per-Selector admission gate: a token
//!   bucket caps the sustained *accept rate* and a bounded inflight queue
//!   caps how many held connections a Selector may accumulate. Every shed
//!   decision is a deterministic function of `(state, now_ms)`, so
//!   simulated overload replays byte-for-byte.
//! * [`PaceController`] — closed-loop pace steering: observed check-in
//!   arrival counts per window are folded into P² sketches
//!   ([`fl_ml::metrics`]) and into an exponentially-smoothed *effective
//!   population estimate* that replaces the static estimate
//!   [`PaceSteering`] was previously given. A flash crowd inflates the
//!   estimate, which stretches the suggested reconnect horizon, which
//!   brings the arrival rate back to the target — the SRE-style back
//!   pressure the paper's production deployment relies on.

use crate::pace::PaceSteering;
use fl_core::PopulationName;
use std::sync::Arc;

/// Why a check-in was shed rather than considered for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The token bucket is empty: the sustained accept rate is at its cap.
    RateExceeded,
    /// The inflight queue (held connections) is at its bound.
    QueueFull,
    /// The fleet-wide admission budget shared across Selectors is spent
    /// for the current window ([`GlobalAdmissionBudget`]).
    GlobalBudget,
}

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The check-in may proceed to quota/selection logic.
    Admit,
    /// The check-in is shed before any further work.
    Shed(ShedReason),
}

/// Admission-control knobs for one Selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained accepts per second the token bucket refills at.
    pub accepts_per_sec: f64,
    /// Bucket capacity: momentary burst the Selector absorbs without
    /// shedding (also the initial fill).
    pub burst: u32,
    /// Bound on held (inflight) connections; admissions beyond it are
    /// shed with [`ShedReason::QueueFull`].
    pub max_inflight: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            accepts_per_sec: 100.0,
            burst: 200,
            max_inflight: 1_000,
        }
    }
}

impl AdmissionConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.accepts_per_sec.is_finite() && self.accepts_per_sec > 0.0) {
            return Err("accepts_per_sec must be positive and finite".into());
        }
        if self.burst == 0 {
            return Err("burst must be positive".into());
        }
        if self.max_inflight == 0 {
            return Err("max_inflight must be positive".into());
        }
        Ok(())
    }
}

/// Deterministic token-bucket + bounded-queue admission gate.
///
/// The caller owns the inflight queue (for a Selector: its set of held
/// connections) and passes its current depth to [`offer`], keeping a
/// single source of truth for queue depth.
///
/// [`offer`]: AdmissionController::offer
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    tokens: f64,
    last_refill_ms: u64,
}

impl AdmissionController {
    /// Creates a controller with a full bucket.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`AdmissionConfig::validate`]) — admission control is wired at
    /// topology-construction time, before any device traffic exists.
    pub fn new(config: AdmissionConfig) -> Self {
        assert!(
            config.validate().is_ok(),
            "invalid admission config: {:?}",
            config.validate()
        );
        AdmissionController {
            config,
            tokens: config.burst as f64,
            last_refill_ms: 0,
        }
    }

    fn refill(&mut self, now_ms: u64) {
        let elapsed = now_ms.saturating_sub(self.last_refill_ms);
        if elapsed > 0 {
            let refill = elapsed as f64 * self.config.accepts_per_sec / 1_000.0;
            self.tokens = (self.tokens + refill).min(self.config.burst as f64);
            self.last_refill_ms = now_ms;
        }
    }

    /// Decides whether a check-in arriving at `now_ms` may proceed, given
    /// the caller's current inflight queue depth. Admission consumes one
    /// token. Deterministic: the decision depends only on controller
    /// state, `now_ms`, and `inflight`.
    pub fn offer(&mut self, now_ms: u64, inflight: usize) -> AdmissionDecision {
        self.refill(now_ms);
        if inflight >= self.config.max_inflight {
            return AdmissionDecision::Shed(ShedReason::QueueFull);
        }
        if self.tokens < 1.0 {
            return AdmissionDecision::Shed(ShedReason::RateExceeded);
        }
        self.tokens -= 1.0;
        AdmissionDecision::Admit
    }
}

/// Configuration for the fleet-wide admission budget shared by every
/// Selector under one Coordinator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalAdmissionConfig {
    /// Width of the budget window (ms).
    pub window_ms: u64,
    /// Maximum admissions across *all* Selectors per window.
    pub max_admits_per_window: u64,
}

impl GlobalAdmissionConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_ms == 0 {
            return Err("window_ms must be positive".into());
        }
        if self.max_admits_per_window == 0 {
            return Err("max_admits_per_window must be positive".into());
        }
        Ok(())
    }
}

/// One registered population's share of the budget.
#[derive(Debug)]
struct BudgetRow {
    name: PopulationName,
    /// Admissions in the *current* window (zeroed on window roll) — the
    /// fair-share accounting.
    admitted_in_window: u64,
    admitted_total: u64,
    shed_total: u64,
}

#[derive(Debug)]
struct GlobalBudgetState {
    config: GlobalAdmissionConfig,
    window_start_ms: u64,
    admitted_in_window: u64,
    /// Populations contending on this budget, in registration order.
    populations: Vec<BudgetRow>,
}

impl GlobalBudgetState {
    /// Jumps to the window containing `now_ms`; intervening empty
    /// windows carry no budget forward.
    fn roll(&mut self, now_ms: u64) {
        let elapsed = now_ms.saturating_sub(self.window_start_ms);
        if elapsed >= self.config.window_ms {
            let windows = elapsed / self.config.window_ms;
            self.window_start_ms += windows * self.config.window_ms;
            self.admitted_in_window = 0;
            for row in &mut self.populations {
                row.admitted_in_window = 0;
            }
        }
    }

    /// A handful of rows at most, so a scan beats any map.
    fn row_of(&self, population: &PopulationName) -> Option<usize> {
        self.populations
            .iter()
            .position(|row| row.name == *population)
    }

    fn row(&self, population: &PopulationName) -> Option<&BudgetRow> {
        self.row_of(population).map(|row| &self.populations[row])
    }
}

/// A shared, windowed cap on total admissions across every Selector in a
/// topology. Per-Selector [`AdmissionController`]s protect each shard
/// from its own arrival stream; the global budget protects the Master
/// Aggregator fan-in behind them — the paper's tiered Selector→Master
/// topology implies both layers (Sec. 4.2).
///
/// Cheap to clone; all clones share state. Decisions are deterministic
/// functions of `now_ms` and the sequence of prior calls, so simulated
/// overload replays byte-for-byte.
#[derive(Debug, Clone)]
pub struct GlobalAdmissionBudget {
    inner: Arc<fl_race::Mutex<GlobalBudgetState>>,
}

/// Admission decisions touch only this lock — a leaf site (rank table
/// in DESIGN.md §7).
const GLOBAL_BUDGET: fl_race::Site = fl_race::Site::new("server/shedding.global_budget", 62);

impl GlobalAdmissionBudget {
    /// Creates a budget with a full first window starting at time 0 and
    /// no population registered yet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — budgets are wired at
    /// topology-construction time, before any device traffic exists.
    pub fn new(config: GlobalAdmissionConfig) -> Self {
        assert!(
            config.validate().is_ok(),
            "invalid global admission config: {:?}",
            config.validate()
        );
        GlobalAdmissionBudget {
            inner: Arc::new(fl_race::Mutex::new(
                GLOBAL_BUDGET,
                GlobalBudgetState {
                    config,
                    window_start_ms: 0,
                    admitted_in_window: 0,
                    populations: Vec::new(),
                },
            )),
        }
    }

    /// Declares a population contending on this budget, so its
    /// fair-share slots are reserved from the first window — before its
    /// first check-in ever arrives. Registration is the only way in (a
    /// [`crate::selector::Selector`] registers every population it is
    /// given a quota for); registering a name twice is a no-op.
    pub fn register_population(&self, population: &PopulationName) {
        let mut s = self.inner.lock();
        if s.row_of(population).is_none() {
            s.populations.push(BudgetRow {
                name: population.clone(),
                admitted_in_window: 0,
                admitted_total: 0,
                shed_total: 0,
            });
        }
    }

    /// Tries to take one admission slot at `now_ms` on behalf of
    /// `population`, enforcing cross-population fairness: with `n`
    /// registered populations each is reserved a fair share of
    /// `max(1, max_admits_per_window / n)` slots per window, and may
    /// exceed its share only out of slack no other population's
    /// reservation still covers. A flash-crowd population therefore
    /// cannot starve a steady one — the steady population's share stays
    /// held for it all window — while an idle population's slots (beyond
    /// the reservation) are not wasted. With one population registered
    /// the fair share is the whole window. Returns `false` — shed with
    /// [`ShedReason::GlobalBudget`] — when no slot is available, and
    /// `false` without touching any ledger for a population that was
    /// never registered.
    pub fn try_admit_for(&self, now_ms: u64, population: &PopulationName) -> bool {
        let mut s = self.inner.lock();
        let Some(me) = s.row_of(population) else {
            return false;
        };
        s.roll(now_ms);
        let max = s.config.max_admits_per_window;
        let fair = (max / s.populations.len() as u64).max(1);
        let mine = s.populations[me].admitted_in_window;
        // Slots still owed to the *other* populations' reservations.
        let others_reserved: u64 = s
            .populations
            .iter()
            .enumerate()
            .filter(|(other, _)| *other != me)
            .map(|(_, row)| fair.saturating_sub(row.admitted_in_window))
            .sum();
        let admit = s.admitted_in_window < max
            && (mine < fair || s.admitted_in_window + others_reserved < max);
        if admit {
            s.admitted_in_window += 1;
            s.populations[me].admitted_in_window += 1;
            s.populations[me].admitted_total += 1;
        } else {
            s.populations[me].shed_total += 1;
        }
        admit
    }

    /// Lifetime admissions attributed to `population`.
    pub fn admitted_total_for(&self, population: &PopulationName) -> u64 {
        let s = self.inner.lock();
        s.row(population).map_or(0, |row| row.admitted_total)
    }

    /// Lifetime global-budget sheds attributed to `population`.
    pub fn shed_total_for(&self, population: &PopulationName) -> u64 {
        let s = self.inner.lock();
        s.row(population).map_or(0, |row| row.shed_total)
    }

    /// The populations contending on this budget, in registration order.
    // fl-lint: allow(test-only-pub): tests/multi_tenant.rs checks fair-share registration with it
    pub fn registered_populations(&self) -> Vec<PopulationName> {
        let s = self.inner.lock();
        s.populations.iter().map(|row| row.name.clone()).collect()
    }
}

/// Closed-loop pace-steering knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaceControllerConfig {
    /// Observation window width (ms). Defaults to the pace policy's
    /// rendezvous period so "arrivals per window" and "check-ins per
    /// period" are the same unit.
    pub window_ms: u64,
    /// Smoothing gain in `(0, 1]` applied when folding the implied
    /// population into the running estimate (1.0 = trust each window
    /// fully; lower = smoother, slower).
    pub gain: f64,
    /// Floor for the population estimate.
    pub min_population: u64,
    /// Ceiling for the population estimate.
    pub max_population: u64,
    /// Cap on how far a single window may pull the estimate upward: the
    /// implied population is clipped to `estimate × max_growth_per_window`
    /// before smoothing. The `implied = arrivals × periods_per_return`
    /// law assumes arrivals are *paced* by the current policy; during a
    /// flash crowd the newcomers are unpaced, so one hot window would
    /// otherwise ramp the estimate far above the true population
    /// (ROADMAP: estimate overshoot). Growth-capping bounds the transient
    /// while leaving convergence (and decay, which is uncapped) intact.
    pub max_growth_per_window: f64,
}

impl PaceControllerConfig {
    /// A configuration windowed on the given pace policy's rendezvous
    /// period, with defaults suitable for flash-crowd response within a
    /// handful of windows.
    pub fn for_pace(pace: &PaceSteering) -> Self {
        PaceControllerConfig {
            window_ms: pace.rendezvous_period_ms,
            gain: 0.5,
            min_population: 1,
            max_population: 1 << 40,
            max_growth_per_window: 4.0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_ms == 0 {
            return Err("window_ms must be positive".into());
        }
        if !(self.gain > 0.0 && self.gain <= 1.0) {
            return Err("gain must be in (0, 1]".into());
        }
        if self.min_population == 0 || self.min_population > self.max_population {
            return Err("population bounds must satisfy 0 < min <= max".into());
        }
        if !(self.max_growth_per_window > 1.0 && self.max_growth_per_window.is_finite()) {
            return Err("max_growth_per_window must be finite and > 1".into());
        }
        Ok(())
    }
}

/// Closed-loop pace steering: folds observed check-in arrival rates back
/// into [`PaceSteering`]'s window sizing.
///
/// Every check-in (accepted, rejected, or shed) is an arrival
/// observation. At each window boundary the window's arrival count `A`
/// is folded into P² sketches and converted into the population it
/// *implies* under the current policy: devices spread over a horizon of
/// `max(estimate / target, 1)` periods arrive at
/// `target × population / estimate` per period, so
/// `implied = A × max(estimate / target, 1)`. The estimate then moves
/// toward the implied value by the configured gain — a fixed-point
/// iteration that converges to the true arrival-generating population
/// and therefore sizes reconnect horizons from what the fleet actually
/// does, not from a static guess.
#[derive(Debug, Clone)]
pub struct PaceController {
    pace: PaceSteering,
    config: PaceControllerConfig,
    estimate: f64,
    window_start_ms: u64,
    window_arrivals: u64,
}

impl PaceController {
    /// Creates a controller seeded with an initial population estimate.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — controllers are wired at
    /// topology-construction time.
    pub fn new(pace: PaceSteering, initial_population: u64, config: PaceControllerConfig) -> Self {
        assert!(
            config.validate().is_ok(),
            "invalid pace-controller config: {:?}",
            config.validate()
        );
        let estimate = (initial_population.max(config.min_population) as f64)
            .min(config.max_population as f64);
        PaceController {
            pace,
            config,
            estimate,
            window_start_ms: 0,
            window_arrivals: 0,
        }
    }

    /// Advances the window clock to `now_ms`, folding every completed
    /// window (including empty ones — silence is evidence of a shrinking
    /// population) into the estimate.
    fn roll_to(&mut self, now_ms: u64) {
        while now_ms >= self.window_start_ms + self.config.window_ms {
            let arrivals = self.window_arrivals as f64;
            let periods_per_return = (self.estimate / self.pace.target_checkins as f64).max(1.0);
            let implied = (arrivals * periods_per_return)
                .min(self.estimate * self.config.max_growth_per_window);
            self.estimate = (self.estimate + self.config.gain * (implied - self.estimate)).clamp(
                self.config.min_population as f64,
                self.config.max_population as f64,
            );
            self.window_start_ms += self.config.window_ms;
            self.window_arrivals = 0;
        }
    }

    /// Records one check-in arrival at `now_ms` (call for every check-in,
    /// whatever its fate — the arrival *rate* is what overloads the
    /// Selector, not the accept rate).
    pub fn on_arrival(&mut self, now_ms: u64) {
        self.roll_to(now_ms);
        self.window_arrivals += 1;
    }

    /// Suggests a reconnect time for a device rejected or shed at
    /// `now_ms`, using the observed-rate population estimate.
    pub fn suggest_reconnect<R: rand::Rng>(
        &mut self,
        now_ms: u64,
        activity_factor: f64,
        rng: &mut R,
    ) -> u64 {
        self.roll_to(now_ms);
        self.pace
            .suggest_reconnect(now_ms, self.population_estimate(), activity_factor, rng)
    }

    /// The current effective population estimate.
    pub fn population_estimate(&self) -> u64 {
        self.estimate.round().max(1.0) as u64
    }

    /// Overrides the estimate (a Coordinator pushing census data). The
    /// closed loop keeps adjusting from the new value.
    pub fn set_population_estimate(&mut self, estimate: u64) {
        self.estimate = (estimate.max(self.config.min_population) as f64)
            .min(self.config.max_population as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::rng::seeded;

    impl GlobalAdmissionBudget {
        /// Lifetime admissions over every population.
        pub(crate) fn admitted_total(&self) -> u64 {
            let s = self.inner.lock();
            s.populations.iter().map(|row| row.admitted_total).sum()
        }

        /// Lifetime global-budget sheds over every population.
        pub(crate) fn shed_total(&self) -> u64 {
            let s = self.inner.lock();
            s.populations.iter().map(|row| row.shed_total).sum()
        }
    }

    #[test]
    fn bucket_admits_burst_then_sheds_on_rate() {
        let mut a = AdmissionController::new(AdmissionConfig {
            accepts_per_sec: 10.0,
            burst: 5,
            max_inflight: 100,
        });
        for _ in 0..5 {
            assert_eq!(a.offer(0, 0), AdmissionDecision::Admit);
        }
        assert_eq!(
            a.offer(0, 0),
            AdmissionDecision::Shed(ShedReason::RateExceeded)
        );
        // 100 ms later one token has refilled.
        assert_eq!(a.offer(100, 0), AdmissionDecision::Admit);
        assert_eq!(
            a.offer(100, 0),
            AdmissionDecision::Shed(ShedReason::RateExceeded)
        );
    }

    #[test]
    fn full_queue_sheds_regardless_of_tokens() {
        let mut a = AdmissionController::new(AdmissionConfig {
            accepts_per_sec: 1_000.0,
            burst: 1_000,
            max_inflight: 3,
        });
        assert_eq!(
            a.offer(0, 3),
            AdmissionDecision::Shed(ShedReason::QueueFull)
        );
        assert_eq!(a.offer(0, 2), AdmissionDecision::Admit);
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut a = AdmissionController::new(AdmissionConfig {
            accepts_per_sec: 100.0,
            burst: 10,
            max_inflight: 100,
        });
        // Long idle period: bucket holds at burst, not unbounded.
        let mut admitted = 0;
        for _ in 0..50 {
            if a.offer(3_600_000, 0) == AdmissionDecision::Admit {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10);
    }

    #[test]
    fn admission_decisions_are_deterministic() {
        let run = || {
            let mut a = AdmissionController::new(AdmissionConfig {
                accepts_per_sec: 7.0,
                burst: 4,
                max_inflight: 6,
            });
            (0..200)
                .map(|i| a.offer(i * 37, (i % 8) as usize))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    fn controller(initial: u64) -> PaceController {
        let pace = PaceSteering::new(60_000, 100);
        let config = PaceControllerConfig::for_pace(&pace);
        PaceController::new(pace, initial, config)
    }

    #[test]
    fn steady_arrivals_hold_the_estimate() {
        let mut c = controller(10_000);
        // 10k devices, target 100/period → 100 arrivals per window.
        for w in 0..20u64 {
            for i in 0..100u64 {
                c.on_arrival(w * 60_000 + i * 600);
            }
        }
        let est = c.population_estimate();
        assert!(
            (8_000..=12_000).contains(&est),
            "estimate {est} drifted from 10k"
        );
    }

    #[test]
    fn flash_crowd_inflates_the_estimate_within_five_windows() {
        let mut c = controller(10_000);
        // Warm up at the steady rate.
        for w in 0..5u64 {
            for i in 0..100u64 {
                c.on_arrival(w * 60_000 + i * 600);
            }
        }
        // 10× step: 1000 arrivals per window.
        for w in 5..10u64 {
            for i in 0..1_000u64 {
                c.on_arrival(w * 60_000 + i * 60);
            }
        }
        c.on_arrival(10 * 60_000); // close window 9
        let est = c.population_estimate();
        assert!(
            est > 60_000,
            "estimate {est} failed to track a 10× flash crowd"
        );
    }

    #[test]
    fn silence_decays_the_estimate() {
        let mut c = controller(500_000);
        for i in 0..100u64 {
            c.on_arrival(i);
        }
        // Long silence: rolling forward folds empty windows in.
        c.on_arrival(40 * 60_000);
        assert!(
            c.population_estimate() < 10_000,
            "estimate {} did not decay over silent windows",
            c.population_estimate()
        );
    }

    #[test]
    fn stretched_horizon_cuts_the_arrival_rate() {
        // End to end: a herd's worth of rejected devices given closed-loop
        // suggestions land spread over a much longer horizon than the
        // static estimate would produce.
        let mut c = controller(1_000);
        let mut rng = seeded(11);
        // Observe a herd: 20k arrivals in one window.
        for i in 0..20_000u64 {
            c.on_arrival(i * 3);
        }
        c.on_arrival(60_000); // close the window
        assert!(c.population_estimate() > crate::pace::SMALL_POPULATION);
        let horizon_end = {
            let mut max_t = 0;
            for _ in 0..2_000 {
                max_t = max_t.max(c.suggest_reconnect(60_000, 1.0, &mut rng));
            }
            max_t
        };
        // Static estimate of 1_000 would concentrate everyone on the next
        // 60 s tick; the controller spreads them over > 10 periods.
        assert!(
            horizon_end > 60_000 * 10,
            "horizon end {horizon_end} too close — no back pressure"
        );
    }

    /// Regression (ROADMAP estimate overshoot): one unpaced hot window
    /// used to multiply the estimate by `gain × arrivals/target` — a 10×
    /// flash window from 10k pushed the estimate to 55k immediately. The
    /// growth cap bounds a single window's pull to
    /// `estimate × max_growth_per_window`.
    #[test]
    fn single_hot_window_growth_is_capped() {
        let mut c = controller(10_000);
        for i in 0..1_000u64 {
            c.on_arrival(i * 60);
        }
        c.on_arrival(60_000); // close the hot window
        let est = c.population_estimate();
        // gain 0.5, cap 4×: 10_000 + 0.5 × (40_000 − 10_000) = 25_000.
        assert!(
            est <= 25_000,
            "estimate {est} ramped past the growth cap after one window"
        );
        assert!(est > 20_000, "estimate {est} failed to move at all");
    }

    #[test]
    fn growth_cap_does_not_slow_decay() {
        let mut c = controller(500_000);
        c.on_arrival(0);
        c.on_arrival(10 * 60_000);
        assert!(
            c.population_estimate() < 5_000,
            "decay must stay uncapped, got {}",
            c.population_estimate()
        );
    }

    #[test]
    fn global_budget_caps_admits_per_window_across_callers() {
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 1_000,
            max_admits_per_window: 3,
        });
        let only = PopulationName::new("pop/only");
        budget.register_population(&only);
        let clone = budget.clone();
        // Clones share the same window budget.
        assert!(budget.try_admit_for(0, &only));
        assert!(clone.try_admit_for(10, &only));
        assert!(budget.try_admit_for(20, &only));
        assert!(!clone.try_admit_for(30, &only));
        assert!(!budget.try_admit_for(999, &only));
        // Next window refills; empty windows carry nothing forward.
        assert!(budget.try_admit_for(5_500, &only));
        assert_eq!(budget.admitted_total(), 4);
        assert_eq!(clone.shed_total(), 2);
    }

    #[test]
    fn fair_share_reserves_slots_for_the_quiet_population() {
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 1_000,
            max_admits_per_window: 10,
        });
        let greedy = PopulationName::new("pop/greedy");
        let steady = PopulationName::new("pop/steady");
        budget.register_population(&greedy);
        budget.register_population(&steady);
        // The greedy population floods first: it may take only its fair
        // share (5) — the rest of the window is held for the other.
        let admitted: u64 = (0..20)
            .map(|i| u64::from(budget.try_admit_for(i, &greedy)))
            .sum();
        assert_eq!(admitted, 5);
        // The steady population's reserved slots are all still there.
        let admitted: u64 = (0..5)
            .map(|i| u64::from(budget.try_admit_for(500 + i, &steady)))
            .sum();
        assert_eq!(admitted, 5);
        assert_eq!(budget.admitted_total_for(&greedy), 5);
        assert_eq!(budget.admitted_total_for(&steady), 5);
        assert!(budget.shed_total_for(&greedy) > 0);
        assert_eq!(budget.shed_total_for(&steady), 0);
    }

    #[test]
    fn slack_beyond_reservations_is_work_conserving() {
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 1_000,
            max_admits_per_window: 10,
        });
        let a = PopulationName::new("pop/a");
        let b = PopulationName::new("pop/b");
        budget.register_population(&a);
        budget.register_population(&b);
        // B consumes its full share early; A may then run past its own
        // share into the freed slack, up to the window cap.
        for i in 0..5 {
            assert!(budget.try_admit_for(i, &b));
        }
        let admitted: u64 = (0..20)
            .map(|i| u64::from(budget.try_admit_for(100 + i, &a)))
            .sum();
        assert_eq!(admitted, 5);
        assert_eq!(budget.admitted_total(), 10);
    }

    #[test]
    fn lone_population_gets_the_full_window() {
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 1_000,
            max_admits_per_window: 4,
        });
        let only = PopulationName::new("pop/only");
        budget.register_population(&only);
        budget.register_population(&only); // idempotent
                                           // With no one else contending, fairness never binds: the fair
                                           // share is the window.
        let admitted: u64 = (0..6)
            .map(|i| u64::from(budget.try_admit_for(i, &only)))
            .sum();
        assert_eq!(admitted, 4);
        assert_eq!(budget.registered_populations(), vec![only]);
    }

    /// Regression: the first `try_admit_for` under a new name used to
    /// register it, so names off the wire diluted every real tenant's
    /// `max / registered` reservation.
    #[test]
    fn unregistered_population_is_refused_without_a_trace() {
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 1_000,
            max_admits_per_window: 4,
        });
        let real = PopulationName::new("pop/real");
        budget.register_population(&real);
        for i in 0..100 {
            let stranger = PopulationName::new(format!("pop/stranger-{i}"));
            assert!(!budget.try_admit_for(i, &stranger));
            assert_eq!(budget.shed_total_for(&stranger), 0);
        }
        assert_eq!(budget.registered_populations(), vec![real.clone()]);
        assert_eq!(budget.admitted_total() + budget.shed_total(), 0);
        // The real tenant's share is still the whole window.
        assert!((0..4).all(|i| budget.try_admit_for(200 + i, &real)));
    }

    #[test]
    fn fair_share_resets_each_window() {
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 1_000,
            max_admits_per_window: 4,
        });
        let a = PopulationName::new("pop/a");
        let b = PopulationName::new("pop/b");
        budget.register_population(&a);
        budget.register_population(&b);
        for i in 0..4 {
            let _ = budget.try_admit_for(i, &a);
        }
        // Next window: A's share is fresh again.
        assert!(budget.try_admit_for(1_500, &a));
    }

    #[test]
    fn set_estimate_overrides_and_clamps() {
        let mut c = controller(100);
        c.set_population_estimate(0);
        assert_eq!(c.population_estimate(), 1);
        c.set_population_estimate(42_000);
        assert_eq!(c.population_estimate(), 42_000);
    }
}
