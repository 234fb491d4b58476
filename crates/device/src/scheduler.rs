//! Job scheduling and multi-tenancy (Sec. 3, Sec. 11).
//!
//! "An application configures the FL runtime by providing an FL population
//! name and registering its example stores. This schedules a periodic FL
//! runtime job using Android's JobScheduler." — [`JobScheduler`].
//!
//! "Our implementation provides a multi-tenant architecture, supporting
//! training of multiple FL populations in the same app (or service)" with
//! "a simple worker queue for determining which training session to run
//! next (we avoid running training sessions on-device in parallel because
//! of their high resource consumption)" — [`TrainingQueue`].

use crate::conditions::DeviceConditions;
use fl_core::PopulationName;
use std::collections::VecDeque;

/// Periodic, eligibility-gated job invocation (the JobScheduler stand-in).
#[derive(Debug, Clone)]
pub struct JobScheduler {
    period_ms: u64,
    /// Next time the job may fire; also moved forward by pace steering's
    /// "come back later" instructions.
    next_due_ms: u64,
}

impl JobScheduler {
    /// Creates a scheduler with the given invocation period.
    ///
    /// # Panics
    ///
    /// Panics if `period_ms == 0`.
    pub fn new(period_ms: u64) -> Self {
        assert!(period_ms > 0, "period must be positive");
        JobScheduler {
            period_ms,
            next_due_ms: 0,
        }
    }

    /// Polls the scheduler: returns `true` exactly when the job should run
    /// now (due and eligible). An ineligible poll leaves the job due, so
    /// it fires as soon as conditions allow.
    pub fn poll(&mut self, now_ms: u64, conditions: DeviceConditions) -> bool {
        if now_ms >= self.next_due_ms && conditions.is_eligible() {
            self.next_due_ms = now_ms + self.period_ms;
            true
        } else {
            false
        }
    }

    /// Applies a pace-steering instruction ("come back later"): the next
    /// invocation will not happen before `retry_at_ms`.
    pub fn defer_until(&mut self, retry_at_ms: u64) {
        self.next_due_ms = self.next_due_ms.max(retry_at_ms);
    }

    /// When the next invocation is allowed.
    pub fn next_due_ms(&self) -> u64 {
        self.next_due_ms
    }
}

/// The multi-tenant training queue: populations registered on this device,
/// scheduled one session at a time, FIFO ("blind to aspects like which
/// apps the user has been frequently using" — Sec. 11 flags this as future
/// work).
#[derive(Debug, Clone, Default)]
pub struct TrainingQueue {
    queue: VecDeque<PopulationName>,
    active: Option<PopulationName>,
}

impl TrainingQueue {
    /// Registers a population (an app configuring the FL runtime).
    /// Duplicate registrations are ignored.
    pub fn register(&mut self, population: PopulationName) {
        if !self.queue.contains(&population) && self.active.as_ref() != Some(&population) {
            self.queue.push_back(population);
        }
    }

    /// Starts the next session if none is active. Returns the population
    /// to train for, or `None` (empty queue or already busy).
    pub fn start_next(&mut self) -> Option<PopulationName> {
        if self.active.is_some() {
            return None;
        }
        let next = self.queue.pop_front()?;
        self.active = Some(next.clone());
        Some(next)
    }

    /// Finishes the active session, re-queueing the population for its
    /// next periodic run.
    pub fn finish_active(&mut self) {
        if let Some(p) = self.active.take() {
            self.queue.push_back(p);
        }
    }

    /// The currently-training population, if any.
    pub fn active(&self) -> Option<&PopulationName> {
        self.active.as_ref()
    }

    /// Populations waiting.
    pub fn waiting(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_fires_only_when_due_and_eligible() {
        let mut s = JobScheduler::new(1_000);
        assert!(!s.poll(0, DeviceConditions::in_use()));
        assert!(s.poll(0, DeviceConditions::eligible()));
        // Just fired: not due again until +1000.
        assert!(!s.poll(500, DeviceConditions::eligible()));
        assert!(s.poll(1_000, DeviceConditions::eligible()));
    }

    #[test]
    fn ineligible_polls_do_not_consume_the_slot() {
        let mut s = JobScheduler::new(1_000);
        assert!(!s.poll(100, DeviceConditions::in_use()));
        // Becomes eligible later: fires immediately, not at next period.
        assert!(s.poll(200, DeviceConditions::eligible()));
    }

    #[test]
    fn defer_until_respects_pace_steering() {
        let mut s = JobScheduler::new(1_000);
        s.defer_until(5_000);
        assert!(!s.poll(1_000, DeviceConditions::eligible()));
        assert!(!s.poll(4_999, DeviceConditions::eligible()));
        assert!(s.poll(5_000, DeviceConditions::eligible()));
    }

    /// Regression: a pace-steering defer whose due time lands inside an
    /// ineligibility stretch (screen on, off charger…) must not starve the
    /// task forever — the slot stays armed and fires at the first eligible
    /// poll after the deferral, then the normal cadence resumes.
    #[test]
    fn defer_past_eligibility_window_does_not_starve() {
        let mut s = JobScheduler::new(1_000);
        s.defer_until(10_000);
        // Deferred: eligible polls before the window do nothing.
        assert!(!s.poll(500, DeviceConditions::eligible()));
        assert!(!s.poll(9_999, DeviceConditions::eligible()));
        // The window opens while the device is in use — slot not consumed.
        assert!(!s.poll(10_000, DeviceConditions::in_use()));
        assert!(!s.poll(14_000, DeviceConditions::in_use()));
        // First eligible poll after the stretch fires immediately.
        assert!(s.poll(25_000, DeviceConditions::eligible()));
        // And the periodic cadence resumes from there, not from 10_000.
        assert!(!s.poll(25_500, DeviceConditions::eligible()));
        assert!(s.poll(26_000, DeviceConditions::eligible()));
    }

    /// Stacked defers (several "come back later" replies in a row) keep
    /// only the latest window, and eligibility churn across all of them
    /// still cannot lose the job.
    #[test]
    fn repeated_defers_with_eligibility_churn_keep_the_job_alive() {
        let mut s = JobScheduler::new(1_000);
        s.defer_until(5_000);
        s.defer_until(3_000); // earlier suggestion must not pull it back
        assert_eq!(s.next_due_ms(), 5_000);
        assert!(!s.poll(4_000, DeviceConditions::eligible()));
        s.defer_until(8_000);
        // Alternating ineligible/eligible polls around the window.
        assert!(!s.poll(8_000, DeviceConditions::in_use()));
        assert!(!s.poll(8_500, DeviceConditions::in_use()));
        assert!(s.poll(9_000, DeviceConditions::eligible()));
    }

    #[test]
    fn queue_runs_one_session_at_a_time() {
        let mut q = TrainingQueue::default();
        q.register(PopulationName::new("a"));
        q.register(PopulationName::new("b"));
        let first = q.start_next().unwrap();
        assert_eq!(first.as_str(), "a");
        // Busy: no parallel sessions.
        assert!(q.start_next().is_none());
        q.finish_active();
        assert_eq!(q.start_next().unwrap().as_str(), "b");
    }

    #[test]
    fn finished_sessions_requeue_round_robin() {
        let mut q = TrainingQueue::default();
        q.register(PopulationName::new("a"));
        q.register(PopulationName::new("b"));
        let mut order = Vec::new();
        for _ in 0..6 {
            let p = q.start_next().unwrap();
            order.push(p.as_str().to_string());
            q.finish_active();
        }
        assert_eq!(order, vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn duplicate_registration_ignored() {
        let mut q = TrainingQueue::default();
        q.register(PopulationName::new("a"));
        q.register(PopulationName::new("a"));
        assert_eq!(q.waiting(), 1);
        let _ = q.start_next();
        q.register(PopulationName::new("a")); // active, still ignored
        assert_eq!(q.waiting(), 0);
    }
}
