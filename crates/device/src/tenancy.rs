//! Multi-population device tenancy (Sec. 3).
//!
//! "Our implementation provides a multi-tenant architecture, supporting
//! training of multiple FL populations in the same app (or service)."
//! [`DeviceTenancy`] is that architecture's device half assembled from
//! the existing parts: each registered population gets its *own*
//! [`JobScheduler`] (periodic invocation cadence) and its own
//! [`ConnectivityManager`] (jittered backoff and per-window retry budget
//! — per-task by design, so one misbehaving population cannot silence
//! another's check-ins), while the shared [`TrainingQueue`] arbitrates a
//! single active training session: "we avoid running training sessions
//! on-device in parallel because of their high resource consumption."
//!
//! Arbitration losers are not dropped — the population that was due but
//! lost the session slot is deferred through its own retry discipline
//! ([`JobScheduler::defer_until`] via [`RetryDecision::apply_to`](crate::connectivity::RetryDecision::apply_to)),
//! charging its own budget, so it decorrelates and comes back instead of
//! spinning against the active session.

use crate::conditions::DeviceConditions;
use crate::connectivity::ConnectivityManager;
use crate::scheduler::{JobScheduler, TrainingQueue};
use fl_core::{PopulationName, RetryPolicy};
use std::collections::BTreeMap;

/// One registered population's device-side state: its invocation cadence
/// and its connectivity discipline. Budgets and backoff are private to
/// the lane — exhaustion here never leaks into another population.
#[derive(Debug, Clone)]
pub struct PopulationLane {
    /// Periodic invocation for this population's training job.
    pub scheduler: JobScheduler,
    /// Backoff + per-window retry budget for this population only.
    pub connectivity: ConnectivityManager,
}

/// The device's multi-population runtime front end: per-population lanes
/// plus the single-active-session worker queue.
#[derive(Debug, Clone, Default)]
pub struct DeviceTenancy {
    queue: TrainingQueue,
    lanes: BTreeMap<PopulationName, PopulationLane>,
    arbitration_losses: u64,
}

impl DeviceTenancy {
    /// Creates an empty tenancy (no populations registered).
    pub fn new() -> Self {
        DeviceTenancy::default()
    }

    /// Registers a population (an app configuring the FL runtime): its
    /// own scheduler at `period_ms` and its own retry discipline under
    /// `policy`. Duplicate registrations keep the existing lane.
    ///
    /// # Panics
    ///
    /// Panics if `period_ms == 0` or the policy fails
    /// [`RetryPolicy::validate`] (both via the underlying constructors).
    pub fn register(&mut self, population: PopulationName, period_ms: u64, policy: RetryPolicy) {
        self.queue.register(population.clone());
        self.lanes
            .entry(population)
            .or_insert_with(|| PopulationLane {
                scheduler: JobScheduler::new(period_ms),
                connectivity: ConnectivityManager::new(policy),
            });
    }

    /// Tries to start a training session at `now_ms`. At most one session
    /// runs at a time: while one is active this returns `None` without
    /// touching any lane. Otherwise the worker queue picks the first
    /// waiting population whose scheduler is due and eligible; every
    /// *other* population that was also due loses the arbitration and is
    /// deferred through its own backoff (charging its own retry budget),
    /// so contenders decorrelate instead of re-colliding at the next
    /// poll.
    pub fn start_session<R: rand::Rng>(
        &mut self,
        now_ms: u64,
        conditions: DeviceConditions,
        rng: &mut R,
    ) -> Option<PopulationName> {
        if self.queue.active().is_some() {
            return None;
        }
        // Which populations are due right now, before any slot is
        // consumed? (`next_due_ms` peeks; only the winner's `poll` fires.)
        let due: Vec<PopulationName> = self
            .lanes
            .iter()
            .filter(|(_, lane)| now_ms >= lane.scheduler.next_due_ms())
            .map(|(p, _)| p.clone())
            .collect();
        if due.is_empty() || !conditions.is_eligible() {
            return None;
        }
        // The worker queue decides priority among the due populations:
        // rotate until the front is due (bounded by the queue length).
        let mut winner = None;
        for _ in 0..self.queue.waiting() {
            let candidate = self.queue.start_next()?;
            let lane = self
                .lanes
                .get_mut(&candidate)
                .expect("queued population has a lane");
            if lane.scheduler.poll(now_ms, conditions) {
                winner = Some(candidate);
                break;
            }
            // Not due: back to the end of the queue, untouched.
            self.queue.finish_active();
        }
        let winner = winner?;
        // Every other due population lost the single session slot: defer
        // it through its own retry discipline.
        for loser in due.iter().filter(|p| **p != winner) {
            let lane = self
                .lanes
                .get_mut(loser)
                .expect("due population has a lane");
            let decision = lane.connectivity.on_rejected(now_ms, None, rng);
            decision.apply_to(&mut lane.scheduler);
            self.arbitration_losses += 1;
        }
        Some(winner)
    }

    /// Finishes the active session, re-queueing its population for the
    /// next periodic run.
    pub fn finish_session(&mut self) {
        self.queue.finish_active();
    }

    /// Routes a decoded server reply for `population` through that
    /// population's retry discipline and scheduler — a `ComeBackLater` /
    /// `Shed` / refusing ack charges *only* this lane's budget. Returns
    /// the decision, or `None` when the reply is not a rejection or the
    /// population is unknown.
    pub fn on_server_reply<R: rand::Rng>(
        &mut self,
        population: &PopulationName,
        now_ms: u64,
        reply: &fl_wire::WireMessage,
        rng: &mut R,
    ) -> Option<crate::connectivity::RetryDecision> {
        let lane = self.lanes.get_mut(population)?;
        let decision = lane.connectivity.on_wire_reply(now_ms, reply, rng)?;
        decision.apply_to(&mut lane.scheduler);
        Some(decision)
    }

    /// Records a successful connection for `population` (backoff resets,
    /// budget usage persists). Unknown populations are ignored.
    pub fn on_success(&mut self, population: &PopulationName, now_ms: u64) {
        if let Some(lane) = self.lanes.get_mut(population) {
            lane.connectivity.on_success(now_ms);
        }
    }

    /// Read access to one population's lane.
    pub fn lane(&self, population: &PopulationName) -> Option<&PopulationLane> {
        self.lanes.get(population)
    }

    /// Registered populations, in name order.
    pub fn populations(&self) -> Vec<&PopulationName> {
        self.lanes.keys().collect()
    }

    /// Times a due population lost the single-session arbitration and was
    /// deferred through its own backoff.
    pub fn arbitration_losses(&self) -> u64 {
        self.arbitration_losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_ml::rng::seeded;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            base_delay_ms: 1_000,
            multiplier: 2.0,
            max_delay_ms: 32_000,
            jitter_frac: 0.25,
            budget_per_window: 3,
            budget_window_ms: 100_000,
        }
    }

    fn pop(name: &str) -> PopulationName {
        PopulationName::new(name)
    }

    #[test]
    fn exactly_one_session_runs_and_the_loser_is_deferred_then_runs() {
        let mut t = DeviceTenancy::new();
        let mut rng = seeded(11);
        t.register(pop("a"), 10_000, policy());
        t.register(pop("b"), 10_000, policy());

        // Both due at t=0; "a" wins (queue order), "b" loses and is
        // deferred through its own backoff with its budget charged.
        let winner = t.start_session(0, DeviceConditions::eligible(), &mut rng);
        assert_eq!(winner, Some(pop("a")));
        assert_eq!(t.queue.active(), Some(&pop("a")));
        let b_lane = t.lane(&pop("b")).unwrap();
        assert!(b_lane.scheduler.next_due_ms() > 0, "loser deferred");
        assert_eq!(b_lane.connectivity.attempts_in_window(), 1, "loser charged");
        assert_eq!(t.arbitration_losses(), 1);

        // While "a" trains, nothing else may start — even past b's defer.
        let b_due = t.lane(&pop("b")).unwrap().scheduler.next_due_ms();
        assert_eq!(
            t.start_session(b_due + 1, DeviceConditions::eligible(), &mut rng),
            None
        );

        // Session ends; "b" runs at its deferred time.
        t.finish_session();
        assert_eq!(t.queue.active(), None);
        let winner = t.start_session(b_due + 1, DeviceConditions::eligible(), &mut rng);
        assert_eq!(winner, Some(pop("b")));
    }

    #[test]
    fn ineligible_device_starts_nothing() {
        let mut t = DeviceTenancy::new();
        let mut rng = seeded(12);
        t.register(pop("a"), 1_000, policy());
        assert_eq!(
            t.start_session(0, DeviceConditions::in_use(), &mut rng),
            None
        );
        // The slot was not consumed and no budget was charged.
        assert_eq!(
            t.lane(&pop("a")).unwrap().connectivity.attempts_in_window(),
            0
        );
        assert_eq!(
            t.start_session(1, DeviceConditions::eligible(), &mut rng),
            Some(pop("a"))
        );
    }

    /// Regression (satellite): one population's exhausted retry budget
    /// must not silence another's check-ins — budgets and backoff are
    /// keyed per population.
    #[test]
    fn exhausted_budget_is_isolated_per_population() {
        let mut t = DeviceTenancy::new();
        let mut rng = seeded(13);
        t.register(pop("noisy"), 1_000, policy());
        t.register(pop("steady"), 1_000, policy());

        // The server sheds "noisy" until its per-window budget is spent.
        let shed = |at| fl_wire::WireMessage::Shed {
            retry_at_ms: at,
            population: pop("noisy"),
        };
        for i in 0..3u64 {
            t.on_server_reply(&pop("noisy"), i * 10, &shed(i * 10 + 5), &mut rng)
                .expect("a rejection");
        }
        let noisy = t.lane(&pop("noisy")).unwrap();
        assert_eq!(noisy.connectivity.budget_exhaustions_total(), 1);
        assert!(
            noisy.scheduler.next_due_ms() >= 100_000,
            "noisy lane silenced until its window rolls"
        );

        // "steady" is untouched: empty budget, no backoff, still due.
        let steady = t.lane(&pop("steady")).unwrap();
        assert_eq!(steady.connectivity.attempts_in_window(), 0);
        assert_eq!(steady.connectivity.consecutive_failures(), 0);
        let winner = t.start_session(1_000, DeviceConditions::eligible(), &mut rng);
        assert_eq!(winner, Some(pop("steady")));
    }

    #[test]
    fn server_replies_route_to_the_claimed_population_only() {
        let mut t = DeviceTenancy::new();
        let mut rng = seeded(14);
        t.register(pop("a"), 1_000, policy());
        t.register(pop("b"), 1_000, policy());
        let reply = fl_wire::WireMessage::ComeBackLater {
            retry_at_ms: 50_000,
            population: pop("a"),
        };
        let d = t.on_server_reply(&pop("a"), 0, &reply, &mut rng).unwrap();
        assert!(d.effective_at_ms() >= 50_000);
        assert_eq!(t.lane(&pop("a")).unwrap().connectivity.retries_total(), 1);
        assert_eq!(t.lane(&pop("b")).unwrap().connectivity.retries_total(), 0);
        // Unknown population: no lane, no decision.
        assert!(t
            .on_server_reply(&pop("ghost"), 0, &reply, &mut rng)
            .is_none());
    }

    #[test]
    fn arbitration_is_deterministic_per_seed() {
        let run = |seed| {
            let mut t = DeviceTenancy::new();
            let mut rng = seeded(seed);
            for name in ["a", "b", "c"] {
                t.register(pop(name), 5_000, policy());
            }
            let mut trace = Vec::new();
            let mut now = 0u64;
            for _ in 0..8 {
                if let Some(w) = t.start_session(now, DeviceConditions::eligible(), &mut rng) {
                    trace.push((now, w.as_str().to_string()));
                    t.finish_session();
                }
                now += 2_500;
            }
            trace
        };
        assert_eq!(run(21), run(21));
        assert!(!run(21).is_empty());
    }
}
