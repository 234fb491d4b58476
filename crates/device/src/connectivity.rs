//! Device-side connectivity discipline (Sec. 2.3, device half).
//!
//! Pace steering is a *cooperative* flow-control loop: the server suggests
//! reconnect windows, and devices must honor them — and must behave well
//! even when the server is too overloaded to answer at all. This module is
//! the device half of that loop:
//!
//! * jittered exponential backoff between failed/rejected attempts, so a
//!   population that failed at the same instant (the raw material of a
//!   thundering herd) decorrelates instead of re-synchronizing;
//! * a per-task retry *budget* ([`fl_core::RetryPolicy`]), bounding how
//!   many attempts one device may spend per window during an outage;
//! * the precedence rule: a server-suggested window always wins over a
//!   locally-computed backoff when it is later — the server knows the
//!   population, the device only knows itself.
//!
//! Decisions are applied to the [`JobScheduler`] via
//! [`RetryDecision::apply_to`], which routes through
//! [`JobScheduler::defer_until`] so eligibility gating keeps working: a
//! deferred job whose due time falls in an ineligible period simply fires
//! at the next eligible poll, it is never lost.

use crate::scheduler::JobScheduler;
use fl_core::RetryPolicy;

/// What a device should do after a failed or rejected connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Try again at the given absolute time (ms): the later of the local
    /// jittered backoff and any server-suggested reconnect window.
    RetryAt(u64),
    /// The per-window retry budget is spent; go quiet until the budget
    /// window rolls over (or later, if the server said later).
    BudgetExhausted {
        /// Absolute time (ms) at which attempts may resume.
        resume_at_ms: u64,
    },
}

impl RetryDecision {
    /// The absolute time this decision permits the next attempt.
    pub fn effective_at_ms(&self) -> u64 {
        match *self {
            RetryDecision::RetryAt(at) => at,
            RetryDecision::BudgetExhausted { resume_at_ms } => resume_at_ms,
        }
    }

    /// Applies the decision to a scheduler: the job will not fire before
    /// the decision's time, via [`JobScheduler::defer_until`].
    pub fn apply_to(&self, scheduler: &mut JobScheduler) {
        scheduler.defer_until(self.effective_at_ms());
    }
}

/// Per-task connectivity state: consecutive-failure backoff plus the
/// budget-window accounting. Instantiate one per FL task (population) the
/// device participates in — budgets are per-task by design, so one
/// misbehaving population cannot silence another's training.
#[derive(Debug, Clone)]
pub struct ConnectivityManager {
    policy: RetryPolicy,
    /// Consecutive failures since the last success; drives the backoff
    /// exponent. Reset by [`on_success`](ConnectivityManager::on_success).
    consecutive_failures: u32,
    /// Start of the current budget window, aligned to absolute multiples
    /// of `budget_window_ms` so window boundaries are clock-deterministic.
    window_start_ms: u64,
    attempts_in_window: u32,
    retries_total: u64,
    budget_exhaustions_total: u64,
}

impl ConnectivityManager {
    /// Creates a manager for one task.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`RetryPolicy::validate`].
    pub fn new(policy: RetryPolicy) -> Self {
        assert!(
            policy.validate().is_ok(),
            "invalid retry policy: {:?}",
            policy.validate()
        );
        ConnectivityManager {
            policy,
            consecutive_failures: 0,
            window_start_ms: 0,
            attempts_in_window: 0,
            retries_total: 0,
            budget_exhaustions_total: 0,
        }
    }

    fn roll_window(&mut self, now_ms: u64) {
        let aligned = now_ms - now_ms % self.policy.budget_window_ms;
        if aligned > self.window_start_ms {
            self.window_start_ms = aligned;
            self.attempts_in_window = 0;
        }
    }

    /// Records a failed or rejected attempt at `now_ms` and decides when
    /// to try again. `server_retry_at_ms` is the server's "come back
    /// later" suggestion, if the reply carried one; it takes precedence
    /// over the local backoff whenever it is later.
    pub fn on_rejected<R: rand::Rng>(
        &mut self,
        now_ms: u64,
        server_retry_at_ms: Option<u64>,
        rng: &mut R,
    ) -> RetryDecision {
        self.roll_window(now_ms);
        self.attempts_in_window = self.attempts_in_window.saturating_add(1);
        self.retries_total += 1;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);

        let server_at = server_retry_at_ms.unwrap_or(0);
        if self.attempts_in_window >= self.policy.budget_per_window {
            self.budget_exhaustions_total += 1;
            let resume_at_ms = (self.window_start_ms + self.policy.budget_window_ms).max(server_at);
            return RetryDecision::BudgetExhausted { resume_at_ms };
        }

        let nominal = self.policy.nominal_delay_ms(self.consecutive_failures);
        // Uniform jitter in [nominal·(1−f), nominal·(1+f)].
        let span = (nominal as f64 * self.policy.jitter_frac) as u64;
        let jittered = nominal.saturating_sub(span) + rng.random_range(0..=2 * span);
        let backoff_at = now_ms + jittered.max(1);
        RetryDecision::RetryAt(backoff_at.max(server_at))
    }

    /// Routes a decoded server wire reply through the retry discipline:
    /// [`fl_wire::WireMessage::ComeBackLater`] (pace steering) and
    /// [`fl_wire::WireMessage::Shed`] (admission control) both carry a
    /// server-suggested reconnect window and count as rejected attempts,
    /// and a [`fl_wire::WireMessage::ReportAck`] with `accepted: false`
    /// is a rejection too — the coordinator refused the report, so an
    /// immediate uncharged retry would hammer a server that already said
    /// no (it carries no window, so the local backoff alone decides).
    /// Every other message is not a rejection and returns `None`,
    /// leaving the backoff state untouched.
    pub fn on_wire_reply<R: rand::Rng>(
        &mut self,
        now_ms: u64,
        reply: &fl_wire::WireMessage,
        rng: &mut R,
    ) -> Option<RetryDecision> {
        match *reply {
            fl_wire::WireMessage::ComeBackLater { retry_at_ms, .. }
            | fl_wire::WireMessage::Shed { retry_at_ms, .. } => {
                Some(self.on_rejected(now_ms, Some(retry_at_ms), rng))
            }
            fl_wire::WireMessage::ReportAck {
                accepted: false, ..
            } => Some(self.on_rejected(now_ms, None, rng)),
            _ => None,
        }
    }

    /// Records a successful connection: backoff resets to base. The
    /// budget-window usage is *not* cleared — the budget bounds attempts
    /// per window regardless of outcome.
    pub fn on_success(&mut self, now_ms: u64) {
        self.roll_window(now_ms);
        self.consecutive_failures = 0;
    }

    /// Total rejected/failed attempts observed over the manager's life.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Times the per-window budget ran out.
    pub fn budget_exhaustions_total(&self) -> u64 {
        self.budget_exhaustions_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::DeviceConditions;
    use fl_ml::rng::seeded;

    impl ConnectivityManager {
        /// Consecutive failures since the last success.
        pub(crate) fn consecutive_failures(&self) -> u32 {
            self.consecutive_failures
        }

        /// Attempts charged against the current budget window.
        pub(crate) fn attempts_in_window(&self) -> u32 {
            self.attempts_in_window
        }
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            base_delay_ms: 1_000,
            multiplier: 2.0,
            max_delay_ms: 32_000,
            jitter_frac: 0.25,
            budget_per_window: 4,
            budget_window_ms: 100_000,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn backoff_grows_with_consecutive_failures_within_jitter_bounds() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(1);
        let mut now = 0u64;
        let mut last_nominal = 0u64;
        for attempt in 1..=3u32 {
            let d = m.on_rejected(now, None, &mut rng);
            let nominal = policy().nominal_delay_ms(attempt);
            let at = match d {
                RetryDecision::RetryAt(at) => at,
                other => panic!("unexpected {other:?}"),
            };
            let delay = at - now;
            assert!(
                delay >= nominal - nominal / 4 && delay <= nominal + nominal / 4,
                "attempt {attempt}: delay {delay} outside jitter band of {nominal}"
            );
            assert!(nominal > last_nominal, "backoff must grow");
            last_nominal = nominal;
            now = at;
        }
    }

    #[test]
    fn server_window_wins_when_later() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(2);
        // Local backoff would be ≈1s; server says 60s.
        match m.on_rejected(0, Some(60_000), &mut rng) {
            RetryDecision::RetryAt(at) => assert_eq!(at, 60_000),
            other => panic!("unexpected {other:?}"),
        }
        // A stale server suggestion earlier than backoff is ignored.
        match m.on_rejected(60_000, Some(60_100), &mut rng) {
            RetryDecision::RetryAt(at) => assert!(at > 60_100),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_silences_until_window_rollover() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(3);
        let mut decisions = Vec::new();
        for i in 0..4 {
            decisions.push(m.on_rejected(i * 10, None, &mut rng));
        }
        // 4th attempt hits budget_per_window = 4.
        match decisions[3] {
            RetryDecision::BudgetExhausted { resume_at_ms } => {
                assert_eq!(resume_at_ms, 100_000, "resume at window rollover");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(m.budget_exhaustions_total(), 1);
        // Next window: budget is fresh.
        match m.on_rejected(100_000, None, &mut rng) {
            RetryDecision::RetryAt(_) => {}
            other => panic!("expected fresh budget, got {other:?}"),
        }
        assert_eq!(m.attempts_in_window(), 1);
    }

    #[test]
    fn success_resets_backoff_but_not_budget_usage() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(4);
        let _ = m.on_rejected(0, None, &mut rng);
        let _ = m.on_rejected(2_000, None, &mut rng);
        assert_eq!(m.consecutive_failures(), 2);
        m.on_success(5_000);
        assert_eq!(m.consecutive_failures(), 0);
        assert_eq!(m.attempts_in_window(), 2, "budget usage persists");
        // Backoff restarts from base.
        match m.on_rejected(6_000, None, &mut rng) {
            RetryDecision::RetryAt(at) => {
                let nominal = policy().base_delay_ms;
                assert!(at - 6_000 <= nominal + nominal / 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = || {
            let mut m = ConnectivityManager::new(policy());
            let mut rng = seeded(42);
            (0..6)
                .map(|i| {
                    m.on_rejected(i * 500, Some(i * 700), &mut rng)
                        .effective_at_ms()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn apply_to_defers_the_scheduler_without_starving_it() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(5);
        let mut sched = JobScheduler::new(500);
        let d = m.on_rejected(0, Some(10_000), &mut rng);
        d.apply_to(&mut sched);
        // Honors the server window...
        assert!(!sched.poll(5_000, DeviceConditions::eligible()));
        // ...and the device was ineligible right at the window edge: the
        // job is not lost, it fires at the next eligible poll.
        assert!(!sched.poll(10_000, DeviceConditions::in_use()));
        assert!(sched.poll(12_345, DeviceConditions::eligible()));
    }

    #[test]
    fn exhausted_budget_honors_a_later_server_window() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(6);
        for i in 0..3 {
            let _ = m.on_rejected(i * 10, None, &mut rng);
        }
        match m.on_rejected(30, Some(250_000), &mut rng) {
            RetryDecision::BudgetExhausted { resume_at_ms } => {
                assert_eq!(resume_at_ms, 250_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wire_replies_route_through_the_retry_discipline() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(7);
        // ComeBackLater and Shed are rejections: they honor the carried
        // server window and advance the backoff state.
        let d = m
            .on_wire_reply(0, &cbl(90_000), &mut rng)
            .expect("a rejection");
        assert!(d.effective_at_ms() >= 90_000);
        assert_eq!(m.consecutive_failures(), 1);
        let d = m
            .on_wire_reply(1_000, &shed(300_000), &mut rng)
            .expect("a rejection");
        assert!(d.effective_at_ms() >= 300_000);
        assert_eq!(m.consecutive_failures(), 2);
        // An ack is not a rejection and leaves the state untouched.
        assert!(m.on_wire_reply(2_000, &ack(true), &mut rng).is_none());
        assert_eq!(m.consecutive_failures(), 2);
    }

    fn ack(accepted: bool) -> fl_wire::WireMessage {
        fl_wire::WireMessage::ReportAck {
            accepted,
            round: fl_core::RoundId(1),
            attempt: 1,
            population: fl_core::PopulationName::new("pop"),
        }
    }

    fn cbl(retry_at_ms: u64) -> fl_wire::WireMessage {
        fl_wire::WireMessage::ComeBackLater {
            retry_at_ms,
            population: fl_core::PopulationName::new("pop"),
        }
    }

    fn shed(retry_at_ms: u64) -> fl_wire::WireMessage {
        fl_wire::WireMessage::Shed {
            retry_at_ms,
            population: fl_core::PopulationName::new("pop"),
        }
    }

    #[test]
    fn rejected_report_ack_charges_backoff_like_any_failure() {
        let mut m = ConnectivityManager::new(policy());
        let mut rng = seeded(8);
        // Regression: `ReportAck { accepted: false }` used to fall through
        // the `_ => None` arm, leaving backoff untouched — a device whose
        // update the coordinator refused retried immediately, forever,
        // with no budget charge.
        let d = m
            .on_wire_reply(0, &ack(false), &mut rng)
            .expect("a refused report is a rejection");
        assert!(
            d.effective_at_ms() > 0,
            "must back off, not retry immediately"
        );
        assert_eq!(m.consecutive_failures(), 1);
        assert_eq!(m.attempts_in_window(), 1, "budget is charged");
        assert_eq!(m.retries_total(), 1);
        // Repeated refusals keep growing the backoff and eventually
        // exhaust the per-window budget.
        let mut now = d.effective_at_ms();
        for _ in 0..2 {
            let d = m
                .on_wire_reply(now, &ack(false), &mut rng)
                .expect("a rejection");
            now = d.effective_at_ms();
        }
        assert_eq!(m.consecutive_failures(), 3);
        match m.on_wire_reply(now, &ack(false), &mut rng) {
            Some(RetryDecision::BudgetExhausted { .. }) => {}
            other => panic!("4th refusal should exhaust the budget, got {other:?}"),
        }
    }
}
