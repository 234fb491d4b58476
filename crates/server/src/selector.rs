//! Selectors (Sec. 4.2).
//!
//! "Selectors are responsible for accepting and forwarding device
//! connections. They periodically receive information from the Coordinator
//! about how many devices are needed for each FL population, which they
//! use to make local decisions about whether or not to accept each device.
//! After the Master Aggregator and set of Aggregators are spawned, the
//! Coordinator instructs the Selectors to forward a subset of its
//! connected devices to the Aggregators."
//!
//! Selection among connected devices uses reservoir sampling, per the
//! paper's footnote 1 ("selection is done by simple reservoir sampling").
//!
//! Overload protection (this reproduction's Sec. 2.3/4.2 closing of the
//! loop) is layered in front of the quota check: an optional
//! [`AdmissionController`] sheds check-ins when the sustained accept rate
//! or the held-connection queue hits its bound, and a [`PaceController`]
//! sizes every "come back later" suggestion from the *observed* check-in
//! arrival rate instead of a static population estimate.

use crate::pace::PaceSteering;
use crate::shedding::{
    AdmissionConfig, AdmissionController, AdmissionDecision, GlobalAdmissionBudget, PaceController,
    ShedReason,
};
use fl_core::{DeviceId, PopulationName};
use fl_ml::rng;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Decision returned to a checking-in device. The decision carries its
/// cause, so callers never have to infer a shed from counter movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinDecision {
    /// The device is accepted and held on the bidirectional stream.
    Accept,
    /// Overload protection turned the device away before quota was even
    /// consulted (admission controller) or after it passed (global
    /// budget): the server is over capacity (Sec. 5's load shedding).
    Shed {
        /// Which protection layer shed the check-in.
        reason: ShedReason,
        /// Absolute suggested reconnect time (ms).
        retry_at_ms: u64,
    },
    /// "Come back later": routine pace steering — the population's quota
    /// is full, the device is already held, or nobody registered the
    /// population it named.
    Reject {
        /// Absolute suggested reconnect time (ms).
        retry_at_ms: u64,
    },
}

/// A held device connection: when it was last seen and which population
/// row it counts against.
#[derive(Debug, Clone, Copy)]
struct HeldConn {
    last_seen_ms: u64,
    /// Index into [`Selector::populations`].
    population: usize,
}

/// Everything the Selector tracks for one registered population.
#[derive(Debug)]
struct PopulationRow {
    name: PopulationName,
    /// How many of this population's devices the Selector may hold.
    quota: usize,
    /// How many it holds now (kept in step with `connected`).
    held: usize,
    accepted: u64,
    /// Rejections of every kind, sheds included.
    rejected: u64,
    shed: u64,
}

/// A Selector: accepts or rejects device check-ins against per-population
/// quotas and an optional admission controller, and forwards sampled
/// subsets toward Aggregators on request.
///
/// One physical Selector serves several FL populations at once
/// (Sec. 2.1/4.2); a single-population deployment is simply the
/// one-row case. A population exists here once the Coordinator has
/// assigned it a quota
/// ([`set_population_quota`](Selector::set_population_quota)); its name
/// is interned to a row index at that point, check-ins naming anything
/// else are refused without touching any table, and forwarding samples
/// only within the requested population
/// ([`forward_devices_for`](Selector::forward_devices_for)). Fleet-wide
/// admission fairness across populations is delegated to the shared
/// [`GlobalAdmissionBudget`]'s per-population reservations.
#[derive(Debug)]
pub struct Selector {
    /// One row per registered population, in registration order.
    populations: Vec<PopulationRow>,
    /// Held connections with their last-seen times and population rows.
    connected: BTreeMap<DeviceId, HeldConn>,
    /// Held connections idle longer than this are considered disconnected
    /// and evicted before quota/admission checks. `None` disables
    /// eviction (a caller that forwards immediately never holds state
    /// long enough to go stale).
    stale_after_ms: Option<u64>,
    pace: PaceController,
    admission: Option<AdmissionController>,
    /// Fleet-wide admission budget shared with the topology's other
    /// Selectors; consulted only for check-ins that would otherwise be
    /// accepted, so local rejections never burn global slots.
    global: Option<GlobalAdmissionBudget>,
    evicted_total: u64,
    rng: StdRng,
}

impl Selector {
    /// Creates a selector serving no population yet (nothing is accepted
    /// until the Coordinator registers one with a quota). The closed-loop
    /// pace controller starts from `population_estimate` and adjusts from
    /// observed arrivals.
    pub fn new(pace: PaceSteering, population_estimate: u64, seed: u64) -> Self {
        Selector {
            populations: Vec::new(),
            connected: BTreeMap::new(),
            stale_after_ms: None,
            pace: PaceController::new(pace, population_estimate),
            admission: None,
            global: None,
            evicted_total: 0,
            rng: rng::seeded(seed),
        }
    }

    /// Enables admission control (token-bucket accept rate + bounded
    /// held-connection queue) in front of the quota check.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionController::new(config));
        self
    }

    /// Attaches a shared fleet-wide admission budget: a check-in that
    /// passes local admission and quota still sheds
    /// ([`ShedReason::GlobalBudget`]) when the budget's current window is
    /// spent across all Selectors sharing it. Every population this
    /// Selector serves, now or later, is registered on the budget.
    pub fn with_global_budget(mut self, budget: GlobalAdmissionBudget) -> Self {
        for row in &self.populations {
            budget.register_population(&row.name);
        }
        self.global = Some(budget);
        self
    }

    /// Enables stale-connection eviction: devices not seen for
    /// `stale_after_ms` are dropped from the connected set before quota
    /// and admission checks, so ghosts cannot pin capacity.
    pub fn with_staleness(mut self, stale_after_ms: u64) -> Self {
        self.stale_after_ms = Some(stale_after_ms);
        self
    }

    /// Per-population Coordinator instruction: how many devices of
    /// `population` to hold. The first instruction for a name registers
    /// the population (here and on the attached global budget); later
    /// ones adjust its quota. Each population's quota is independent —
    /// one tenant filling its slots never blocks another's accepts.
    pub fn set_population_quota(&mut self, population: PopulationName, quota: usize) {
        match self.row_of(&population) {
            Some(row) => self.populations[row].quota = quota,
            None => {
                if let Some(budget) = &self.global {
                    budget.register_population(&population);
                }
                self.populations.push(PopulationRow {
                    name: population,
                    quota,
                    held: 0,
                    accepted: 0,
                    rejected: 0,
                    shed: 0,
                });
            }
        }
    }

    /// The populations registered on this Selector, in registration
    /// order.
    pub fn populations(&self) -> impl Iterator<Item = &PopulationName> {
        self.populations.iter().map(|row| &row.name)
    }

    /// A handful of rows at most, so a scan beats any map.
    fn row_of(&self, population: &PopulationName) -> Option<usize> {
        self.populations
            .iter()
            .position(|row| row.name == *population)
    }

    fn row(&self, population: &PopulationName) -> Option<&PopulationRow> {
        self.row_of(population).map(|row| &self.populations[row])
    }

    /// Seeds/overrides the population-size estimate used for pace
    /// steering; the closed loop keeps adjusting from the new value.
    pub fn set_population_estimate(&mut self, estimate: u64) {
        self.pace.set_population_estimate(estimate);
    }

    /// The closed-loop pace controller (observed-rate population estimate
    /// and arrival sketches).
    pub fn pace_controller(&self) -> &PaceController {
        &self.pace
    }

    /// Drops held connections not seen since `now_ms − stale_after_ms`.
    /// Returns how many were evicted. No-op when eviction is disabled.
    pub fn evict_stale(&mut self, now_ms: u64) -> usize {
        let Some(ttl) = self.stale_after_ms else {
            return 0;
        };
        let before = self.connected.len();
        let populations = &mut self.populations;
        self.connected.retain(|_, held| {
            let fresh = now_ms.saturating_sub(held.last_seen_ms) < ttl;
            if !fresh {
                populations[held.population].held -= 1;
            }
            fresh
        });
        let evicted = before - self.connected.len();
        self.evicted_total += evicted as u64;
        evicted
    }

    /// Handles a device check-in for `population` at `now_ms` with the
    /// given diurnal activity factor (Sec. 2.1). The arrival feeds the
    /// shared pace loop and local admission controller whatever its
    /// fate; quota is checked against the population's own allowance and
    /// the shared global budget is consulted through its per-population
    /// fair-share reservations
    /// ([`GlobalAdmissionBudget::try_admit_for`]), so a flash crowd in
    /// one population cannot starve another's accepts. A population
    /// nobody registered is told to come back later and costs nothing
    /// but a counter.
    pub fn on_checkin_for(
        &mut self,
        population: &PopulationName,
        device: DeviceId,
        now_ms: u64,
        activity_factor: f64,
    ) -> CheckinDecision {
        self.pace.on_arrival(now_ms);
        let Some(row) = self.row_of(population) else {
            return CheckinDecision::Reject {
                retry_at_ms: self.suggest_reconnect(now_ms, activity_factor),
            };
        };
        // Evict ghosts before they count against quota or the queue bound.
        self.evict_stale(now_ms);

        if let Some(admission) = &mut self.admission {
            if let AdmissionDecision::Shed(reason) = admission.offer(now_ms, self.connected.len()) {
                return self.shed(row, reason, now_ms, activity_factor);
            }
        }

        let PopulationRow { quota, held, .. } = self.populations[row];
        if held < quota && !self.connected.contains_key(&device) {
            if let Some(budget) = &self.global {
                if !budget.try_admit_for(now_ms, population) {
                    return self.shed(row, ShedReason::GlobalBudget, now_ms, activity_factor);
                }
            }
            self.connected.insert(
                device,
                HeldConn {
                    last_seen_ms: now_ms,
                    population: row,
                },
            );
            self.populations[row].held += 1;
            self.populations[row].accepted += 1;
            CheckinDecision::Accept
        } else {
            // A duplicate check-in still proves the device is alive.
            if let Some(held) = self.connected.get_mut(&device) {
                held.last_seen_ms = now_ms;
            }
            self.populations[row].rejected += 1;
            CheckinDecision::Reject {
                retry_at_ms: self.suggest_reconnect(now_ms, activity_factor),
            }
        }
    }

    fn shed(
        &mut self,
        row: usize,
        reason: ShedReason,
        now_ms: u64,
        activity_factor: f64,
    ) -> CheckinDecision {
        self.populations[row].shed += 1;
        self.populations[row].rejected += 1;
        CheckinDecision::Shed {
            reason,
            retry_at_ms: self.suggest_reconnect(now_ms, activity_factor),
        }
    }

    fn suggest_reconnect(&mut self, now_ms: u64, activity_factor: f64) -> u64 {
        self.pace
            .suggest_reconnect(now_ms, activity_factor, &mut self.rng)
    }

    /// A connected device disconnected (eligibility change, network loss).
    pub fn on_disconnect(&mut self, device: DeviceId) {
        if let Some(held) = self.connected.remove(&device) {
            self.populations[held.population].held -= 1;
        }
    }

    /// Number of devices currently connected across every population
    /// (reported to the Coordinator). May include devices that would be
    /// evicted as stale at the next check-in; call
    /// [`evict_stale`](Selector::evict_stale) first for a fresh count.
    pub fn connected_count(&self) -> usize {
        self.connected.len()
    }

    /// Accepted/rejected counters of `population` (for analytics).
    /// Rejections include shed check-ins.
    pub fn counters_for(&self, population: &PopulationName) -> (u64, u64) {
        self.row(population)
            .map_or((0, 0), |row| (row.accepted, row.rejected))
    }

    /// Check-ins shed (admission controller or global budget) while
    /// checking in under `population`.
    pub fn shed_total_for(&self, population: &PopulationName) -> u64 {
        self.row(population).map_or(0, |row| row.shed)
    }

    /// Total stale connections evicted.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// Coordinator instruction: forward up to `k` devices held for
    /// `population`. Stale connections are evicted first (forwarding a
    /// ghost wastes an Aggregator slot); the forwarded devices are
    /// sampled uniformly (reservoir sampling) within the population's
    /// held set, so tenants never receive each other's devices, and are
    /// removed from this selector's connected set.
    pub fn forward_devices_for(
        &mut self,
        population: &PopulationName,
        k: usize,
        now_ms: u64,
    ) -> Vec<DeviceId> {
        self.evict_stale(now_ms);
        let Some(row) = self.row_of(population) else {
            return Vec::new();
        };
        let pool: Vec<DeviceId> = self
            .connected
            .iter()
            .filter(|(_, held)| held.population == row)
            .map(|(d, _)| *d)
            .collect();
        if pool.is_empty() || k == 0 {
            return Vec::new();
        }
        let take = k.min(pool.len());
        let picked = rng::reservoir_sample(&mut self.rng, pool.len(), take);
        let mut out = Vec::with_capacity(take);
        for idx in picked {
            let d = pool[idx];
            self.on_disconnect(d);
            out.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    impl Selector {
        /// Check-ins shed by the admission controller or the global
        /// budget, across every population.
        fn shed_total(&self) -> u64 {
            self.populations.iter().map(|row| row.shed).sum()
        }
    }

    /// The one population of the single-tenant cases.
    fn pop() -> PopulationName {
        PopulationName::new("pop")
    }

    /// Number of held devices that checked in under `population`.
    fn held_for(s: &Selector, population: &PopulationName) -> usize {
        s.row(population).map_or(0, |row| row.held)
    }

    fn selector(quota: usize) -> Selector {
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 42);
        s.set_population_quota(pop(), quota);
        s
    }

    #[test]
    fn accepts_up_to_quota_then_rejects() {
        let mut s = selector(3);
        for i in 0..3 {
            assert_eq!(
                s.on_checkin_for(&pop(), DeviceId(i), 1000, 1.0),
                CheckinDecision::Accept
            );
        }
        match s.on_checkin_for(&pop(), DeviceId(99), 1000, 1.0) {
            CheckinDecision::Reject { retry_at_ms } => assert!(retry_at_ms > 1000),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(s.connected_count(), 3);
        assert_eq!(s.counters_for(&pop()), (3, 1));
    }

    #[test]
    fn duplicate_checkin_is_rejected() {
        let mut s = selector(5);
        assert_eq!(
            s.on_checkin_for(&pop(), DeviceId(1), 0, 1.0),
            CheckinDecision::Accept
        );
        assert!(matches!(
            s.on_checkin_for(&pop(), DeviceId(1), 0, 1.0),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(s.connected_count(), 1);
    }

    #[test]
    fn disconnect_frees_capacity() {
        let mut s = selector(1);
        assert_eq!(
            s.on_checkin_for(&pop(), DeviceId(1), 0, 1.0),
            CheckinDecision::Accept
        );
        s.on_disconnect(DeviceId(1));
        assert_eq!(
            s.on_checkin_for(&pop(), DeviceId(2), 0, 1.0),
            CheckinDecision::Accept
        );
    }

    #[test]
    fn forward_removes_and_returns_distinct_devices() {
        let mut s = selector(10);
        for i in 0..10 {
            s.on_checkin_for(&pop(), DeviceId(i), 0, 1.0);
        }
        let forwarded = s.forward_devices_for(&pop(), 4, 0);
        assert_eq!(forwarded.len(), 4);
        assert_eq!(s.connected_count(), 6);
        let set: BTreeSet<DeviceId> = forwarded.iter().copied().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn forward_caps_at_connected_count() {
        let mut s = selector(3);
        for i in 0..3 {
            s.on_checkin_for(&pop(), DeviceId(i), 0, 1.0);
        }
        assert_eq!(s.forward_devices_for(&pop(), 100, 0).len(), 3);
        assert_eq!(s.connected_count(), 0);
        assert!(s.forward_devices_for(&pop(), 1, 0).is_empty());
    }

    #[test]
    fn forwarding_is_roughly_uniform() {
        // Forward 1 of 10 many times; each device should win ~10%.
        let mut wins = [0u32; 10];
        for trial in 0..4000 {
            let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, trial);
            s.set_population_quota(pop(), 10);
            for i in 0..10 {
                s.on_checkin_for(&pop(), DeviceId(i), 0, 1.0);
            }
            let f = s.forward_devices_for(&pop(), 1, 0);
            wins[f[0].0 as usize] += 1;
        }
        for (i, &w) in wins.iter().enumerate() {
            assert!(
                (w as f64 - 400.0).abs() < 100.0,
                "device {i} won {w} of 4000"
            );
        }
    }

    #[test]
    fn zero_quota_rejects_everything() {
        let mut s = selector(0);
        assert!(matches!(
            s.on_checkin_for(&pop(), DeviceId(0), 0, 1.0),
            CheckinDecision::Reject { .. }
        ));
    }

    #[test]
    fn stale_devices_are_evicted_before_quota_checks() {
        // Regression: a device that connected long ago and silently
        // vanished must not pin a quota slot forever.
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 7).with_staleness(120_000);
        s.set_population_quota(pop(), 1);
        assert_eq!(
            s.on_checkin_for(&pop(), DeviceId(1), 0, 1.0),
            CheckinDecision::Accept
        );
        // Before the TTL expires the ghost still holds the slot.
        assert!(matches!(
            s.on_checkin_for(&pop(), DeviceId(2), 100_000, 1.0),
            CheckinDecision::Reject { .. }
        ));
        // After the TTL the ghost is evicted and the slot is free again.
        assert_eq!(
            s.on_checkin_for(&pop(), DeviceId(2), 130_000, 1.0),
            CheckinDecision::Accept
        );
        assert_eq!(s.evicted_total(), 1);
        assert_eq!(s.connected_count(), 1);
    }

    #[test]
    fn duplicate_checkin_refreshes_staleness() {
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 7).with_staleness(100_000);
        s.set_population_quota(pop(), 1);
        assert_eq!(
            s.on_checkin_for(&pop(), DeviceId(1), 0, 1.0),
            CheckinDecision::Accept
        );
        // The device re-checks in at 90 s (still rejected as a duplicate,
        // but its liveness clock resets)...
        assert!(matches!(
            s.on_checkin_for(&pop(), DeviceId(1), 90_000, 1.0),
            CheckinDecision::Reject { .. }
        ));
        // ...so at 150 s it has NOT gone stale (last seen 90 s ago).
        assert!(matches!(
            s.on_checkin_for(&pop(), DeviceId(2), 150_000, 1.0),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(s.evicted_total(), 0);
    }

    #[test]
    fn forward_at_skips_stale_devices() {
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 9).with_staleness(60_000);
        s.set_population_quota(pop(), 4);
        s.on_checkin_for(&pop(), DeviceId(1), 0, 1.0);
        s.on_checkin_for(&pop(), DeviceId(2), 0, 1.0);
        s.on_checkin_for(&pop(), DeviceId(3), 50_000, 1.0);
        s.on_checkin_for(&pop(), DeviceId(4), 50_000, 1.0);
        // At t=70s devices 1 and 2 are stale; only 3 and 4 may forward.
        let forwarded = s.forward_devices_for(&pop(), 10, 70_000);
        let set: BTreeSet<DeviceId> = forwarded.into_iter().collect();
        assert_eq!(set, BTreeSet::from([DeviceId(3), DeviceId(4)]));
        assert_eq!(s.evicted_total(), 2);
    }

    #[test]
    fn admission_sheds_a_burst_deterministically() {
        let make = || {
            let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 3).with_admission(
                AdmissionConfig {
                    accepts_per_sec: 10.0,
                    burst: 5,
                    max_inflight: 50,
                },
            );
            s.set_population_quota(pop(), 1_000);
            s
        };
        let mut s = make();
        let decisions: Vec<bool> = (0..100)
            .map(|i| s.on_checkin_for(&pop(), DeviceId(i), 0, 1.0) == CheckinDecision::Accept)
            .collect();
        // Exactly the burst is admitted; the rest shed.
        assert_eq!(decisions.iter().filter(|&&a| a).count(), 5);
        assert_eq!(s.shed_total(), 95);
        // The decision names its cause: an empty bucket, not a full quota.
        assert!(matches!(
            s.on_checkin_for(&pop(), DeviceId(100), 0, 1.0),
            CheckinDecision::Shed {
                reason: ShedReason::RateExceeded,
                ..
            }
        ));
        assert_eq!(s.shed_total(), 96);
        assert_eq!(s.counters_for(&pop()).1, 96);
        // Determinism: a fresh selector replays the same decisions.
        let mut s2 = make();
        let replay: Vec<bool> = (0..100)
            .map(|i| s2.on_checkin_for(&pop(), DeviceId(i), 0, 1.0) == CheckinDecision::Accept)
            .collect();
        assert_eq!(decisions, replay);
    }

    #[test]
    fn queue_bound_holds_even_with_tokens() {
        let mut s =
            Selector::new(PaceSteering::new(60_000, 100), 500, 3).with_admission(AdmissionConfig {
                accepts_per_sec: 1_000.0,
                burst: 1_000,
                max_inflight: 4,
            });
        s.set_population_quota(pop(), 1_000);
        for i in 0..50 {
            s.on_checkin_for(&pop(), DeviceId(i), 0, 1.0);
        }
        assert_eq!(s.connected_count(), 4);
        assert!(matches!(
            s.on_checkin_for(&pop(), DeviceId(50), 0, 1.0),
            CheckinDecision::Shed {
                reason: ShedReason::QueueFull,
                ..
            }
        ));
        // Tokens never run out, so every shed is a full queue's.
        assert_eq!(s.shed_total_for(&pop()), 47);
    }

    #[test]
    fn global_budget_caps_accepts_across_selectors() {
        use crate::shedding::{GlobalAdmissionBudget, GlobalAdmissionConfig};
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 4,
        });
        let mut selectors: Vec<Selector> = (0..3)
            .map(|i| {
                let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, i)
                    .with_global_budget(budget.clone());
                s.set_population_quota(pop(), 10);
                s
            })
            .collect();
        // 3 devices offered to each of 3 selectors: each has local quota
        // headroom, but only 4 accepts exist fleet-wide in this window.
        let (mut accepted, mut budget_sheds) = (0, 0);
        for (i, s) in selectors.iter_mut().enumerate() {
            for d in 0..3u64 {
                match s.on_checkin_for(&pop(), DeviceId(i as u64 * 10 + d), 0, 1.0) {
                    CheckinDecision::Accept => accepted += 1,
                    CheckinDecision::Shed {
                        reason: ShedReason::GlobalBudget,
                        ..
                    } => budget_sheds += 1,
                    other => panic!("unexpected decision {other:?}"),
                }
            }
        }
        assert_eq!((accepted, budget_sheds), (4, 5));
        assert_eq!(budget.admitted_total(), 4);
        assert_eq!(budget.shed_total(), 5);
        // A locally-rejected duplicate must not burn a global slot: next
        // window, re-offering an already-connected device is a plain
        // rejection with the budget untouched.
        let d0 = DeviceId(0);
        assert!(matches!(
            selectors[0].on_checkin_for(&pop(), d0, 61_000, 1.0),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(budget.admitted_total() + budget.shed_total(), 9);
    }

    #[test]
    fn shed_retry_suggestions_stretch_under_load() {
        // Closed loop end to end: sustained overload inflates the
        // population estimate, so later rejects are pushed further out.
        let mut s =
            Selector::new(PaceSteering::new(1_000, 10), 100, 5).with_admission(AdmissionConfig {
                accepts_per_sec: 5.0,
                burst: 5,
                max_inflight: 10,
            });
        s.set_population_quota(pop(), 1_000);
        let mut early_max = 0;
        let mut late_max = 0;
        for i in 0..5_000u64 {
            let now = i * 2; // 500 arrivals/s against a 5/s accept cap
            if let CheckinDecision::Shed { retry_at_ms, .. } =
                s.on_checkin_for(&pop(), DeviceId(i), now, 1.0)
            {
                let delay = retry_at_ms - now;
                if i < 100 {
                    early_max = early_max.max(delay);
                } else if i >= 4_900 {
                    late_max = late_max.max(delay);
                }
            }
        }
        assert!(
            late_max > early_max * 4,
            "no back pressure: early {early_max} ms vs late {late_max} ms"
        );
        assert!(s.pace_controller().population_estimate() > 1_000);
    }

    #[test]
    fn populations_are_demultiplexed_with_independent_quotas() {
        let pop_a = PopulationName::new("tenant/a");
        let pop_b = PopulationName::new("tenant/b");
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 42);
        s.set_population_quota(pop_a.clone(), 2);
        s.set_population_quota(pop_b.clone(), 1);
        assert_eq!(
            s.on_checkin_for(&pop_a, DeviceId(1), 0, 1.0),
            CheckinDecision::Accept
        );
        assert_eq!(
            s.on_checkin_for(&pop_a, DeviceId(2), 0, 1.0),
            CheckinDecision::Accept
        );
        // Population A is full; its third device bounces even though B
        // still has room, and vice versa B's accept is untouched by A.
        assert!(matches!(
            s.on_checkin_for(&pop_a, DeviceId(3), 0, 1.0),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(
            s.on_checkin_for(&pop_b, DeviceId(4), 0, 1.0),
            CheckinDecision::Accept
        );
        assert!(matches!(
            s.on_checkin_for(&pop_b, DeviceId(5), 0, 1.0),
            CheckinDecision::Reject { .. }
        ));
        assert_eq!(s.connected_count(), 3);
        assert_eq!(held_for(&s, &pop_a), 2);
        assert_eq!(held_for(&s, &pop_b), 1);
        assert_eq!(s.counters_for(&pop_a), (2, 1));
        assert_eq!(s.counters_for(&pop_b), (1, 1));
    }

    #[test]
    fn forwarding_stays_within_the_requested_population() {
        let pop_a = PopulationName::new("tenant/a");
        let pop_b = PopulationName::new("tenant/b");
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 42);
        s.set_population_quota(pop_a.clone(), 8);
        s.set_population_quota(pop_b.clone(), 8);
        for i in 0..4 {
            s.on_checkin_for(&pop_a, DeviceId(i), 0, 1.0);
            s.on_checkin_for(&pop_b, DeviceId(100 + i), 0, 1.0);
        }
        let forwarded = s.forward_devices_for(&pop_a, 10, 0);
        assert_eq!(forwarded.len(), 4);
        assert!(
            forwarded.iter().all(|d| d.0 < 100),
            "leaked tenant B device"
        );
        // B's held set is untouched and forwards independently.
        assert_eq!(held_for(&s, &pop_a), 0);
        assert_eq!(held_for(&s, &pop_b), 4);
        let forwarded_b = s.forward_devices_for(&pop_b, 2, 0);
        assert_eq!(forwarded_b.len(), 2);
        assert!(forwarded_b.iter().all(|d| d.0 >= 100));
    }

    #[test]
    fn global_budget_fair_share_spans_selector_populations() {
        use crate::shedding::{GlobalAdmissionBudget, GlobalAdmissionConfig};
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 6,
        });
        let greedy = PopulationName::new("tenant/greedy");
        let steady = PopulationName::new("tenant/steady");
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 3)
            .with_global_budget(budget.clone());
        // Assigning a quota registers the population on the attached
        // budget, so its reservation exists before its first check-in.
        s.set_population_quota(greedy.clone(), 1_000);
        s.set_population_quota(steady.clone(), 1_000);
        assert_eq!(
            budget.registered_populations(),
            vec![greedy.clone(), steady.clone()]
        );
        // Greedy floods first: it may take its fair half (3) but cannot
        // spend the slots reserved for steady.
        for i in 0..20 {
            s.on_checkin_for(&greedy, DeviceId(i), 0, 1.0);
        }
        assert_eq!(s.counters_for(&greedy).0, 3);
        assert_eq!(s.shed_total_for(&greedy), 17);
        // Steady arrives late and still gets its reserved share.
        for i in 0..3 {
            assert_eq!(
                s.on_checkin_for(&steady, DeviceId(100 + i), 0, 1.0),
                CheckinDecision::Accept
            );
        }
        assert_eq!(s.counters_for(&steady), (3, 0));
    }

    /// Regression: a check-in naming a population nobody registered used
    /// to be admitted under the default quota, minted a row in every
    /// per-population map, and auto-registered on the shared budget,
    /// where each new name shrank every real tenant's reservation
    /// (`fair = max / registered`). The name comes off the wire, so its
    /// cardinality is the peer's choice.
    #[test]
    fn unknown_populations_leave_no_trace() {
        use crate::shedding::{GlobalAdmissionBudget, GlobalAdmissionConfig};
        let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 6,
        });
        let steady = PopulationName::new("tenant/steady");
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 3)
            .with_global_budget(budget.clone());
        s.set_population_quota(steady.clone(), 1_000);
        for i in 0..1_000u64 {
            let made_up = PopulationName::new(format!("made-up/{i}"));
            match s.on_checkin_for(&made_up, DeviceId(i), 0, 1.0) {
                CheckinDecision::Reject { retry_at_ms } => assert!(retry_at_ms > 0),
                other => panic!("unknown population got {other:?}"),
            }
            assert_eq!(s.counters_for(&made_up), (0, 0));
        }
        assert_eq!(s.populations().collect::<Vec<_>>(), vec![&steady]);
        assert_eq!(s.connected_count(), 0);
        assert_eq!(budget.registered_populations(), vec![steady.clone()]);
        assert_eq!(budget.admitted_total() + budget.shed_total(), 0);
        // The steady tenant still owns the whole window: all six slots,
        // not `6 / 1001`.
        for i in 0..6 {
            assert_eq!(
                s.on_checkin_for(&steady, DeviceId(10_000 + i), 0, 1.0),
                CheckinDecision::Accept
            );
        }
        assert_eq!(s.counters_for(&steady), (6, 0));
    }

    #[test]
    fn held_counts_follow_every_way_a_device_leaves() {
        let pop_a = PopulationName::new("tenant/a");
        let pop_b = PopulationName::new("tenant/b");
        let mut s = Selector::new(PaceSteering::new(60_000, 100), 500, 9).with_staleness(60_000);
        s.set_population_quota(pop_a.clone(), 8);
        s.set_population_quota(pop_b.clone(), 8);
        for i in 0..4 {
            s.on_checkin_for(&pop_a, DeviceId(i), 0, 1.0);
            s.on_checkin_for(&pop_b, DeviceId(100 + i), 50_000, 1.0);
        }
        s.on_disconnect(DeviceId(0));
        assert_eq!(held_for(&s, &pop_a), 3);
        // A's remaining three went stale at t=60s; B's are still fresh.
        assert_eq!(s.evict_stale(70_000), 3);
        assert_eq!(held_for(&s, &pop_a), 0);
        assert_eq!(held_for(&s, &pop_b), 4);
        assert_eq!(s.forward_devices_for(&pop_b, 3, 70_000).len(), 3);
        assert_eq!(held_for(&s, &pop_b), 1);
        assert_eq!(s.connected_count(), 1);
        // The freed slots are really free.
        s.set_population_quota(pop_a.clone(), 1);
        assert_eq!(
            s.on_checkin_for(&pop_a, DeviceId(7), 70_000, 1.0),
            CheckinDecision::Accept
        );
    }
}
