//! Deterministic schedule exploration over the mailbox fault hook.
//!
//! Real threaded runs only ever show one interleaving per execution;
//! bugs like the obituary-stealing race (fixed in the supervision
//! layer) hide in the orders a lightly loaded machine never produces.
//! [`ScheduleExplorer`] makes the actor runtime *generate* those
//! orders: it implements [`FaultInjector`] and answers
//! [`FaultAction::Reorder`] for a seeded, deterministic subset of
//! deliveries, permuting each mailbox's delivery order without
//! dropping, delaying, or crashing anything. Running a scenario under
//! K explorer seeds checks its invariants across K distinct legal
//! schedules — the loom/TSan-style discipline scaled down to this
//! actor runtime.
//!
//! Determinism: the reorder decision for a delivery is a pure hash of
//! `(seed, actor name, seq)`. A re-enqueued message is pulled again
//! under a later `seq`, so it hashes afresh and cannot be re-deferred
//! forever; a global budget additionally bounds total reorders per
//! scenario.

use crate::system::{FaultAction, FaultInjector, Obituary};
use std::sync::atomic::{AtomicU64, Ordering};

/// Share of deliveries an explorer reorders, per mille.
const REORDER_PER_MILLE: u64 = 250;
/// Reorders an explorer applies per scenario; once spent, everything
/// delivers normally.
const BUDGET: u64 = 10_000;

/// A seeded [`FaultInjector`] that reorders a deterministic subset of
/// mailbox deliveries and never loses a message.
#[derive(Debug)]
pub struct ScheduleExplorer {
    seed: u64,
    budget: AtomicU64,
}

impl ScheduleExplorer {
    /// An explorer reordering ~25% of deliveries, with a budget of
    /// 10 000 reorders per scenario.
    pub fn new(seed: u64) -> Self {
        ScheduleExplorer {
            seed,
            budget: AtomicU64::new(BUDGET),
        }
    }
}

/// FNV-1a over the decision inputs, finished with a splitmix64 round so
/// consecutive `seq` values decorrelate.
fn mix(seed: u64, actor: &str, seq: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in seed
        .to_le_bytes()
        .iter()
        .chain(actor.as_bytes())
        .chain(seq.to_le_bytes().iter())
    {
        h ^= u64::from(*chunk);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector for ScheduleExplorer {
    fn on_deliver(&self, actor: &str, seq: u64) -> FaultAction {
        if mix(self.seed, actor, seq) % 1000 < REORDER_PER_MILLE
            && self
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok()
        {
            return FaultAction::Reorder;
        }
        FaultAction::Deliver
    }
}

/// Audits the exactly-once obituary invariant (Sec. 4.2: coordinator
/// respawn "will happen exactly once" hinges on it): every subscriber
/// view must contain each expected actor name exactly once. Returns a
/// violation string per (view, name) that saw the name zero times
/// (stolen/lost) or more than once (duplicated).
pub fn audit_exactly_once(views: &[Vec<Obituary>], expected: &[&str]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, view) in views.iter().enumerate() {
        for name in expected {
            let count = view.iter().filter(|o| o.name == *name).count();
            if count != 1 {
                violations.push(format!(
                    "subscriber {i}: obituary for {name} delivered {count} times (want exactly 1)"
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DeathReason;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = ScheduleExplorer::new(42);
        let b = ScheduleExplorer::new(42);
        let mut reorders = 0;
        for seq in 1..500 {
            let action = a.on_deliver("coordinator", seq);
            assert_eq!(action, b.on_deliver("coordinator", seq));
            reorders += usize::from(action == FaultAction::Reorder);
        }
        assert!(reorders > 0, "rate 250/1000 over 499 draws");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = ScheduleExplorer::new(1);
        let b = ScheduleExplorer::new(2);
        let differs =
            (1..200).any(|seq| a.on_deliver("selector-0", seq) != b.on_deliver("selector-0", seq));
        assert!(differs);
    }

    #[test]
    fn budget_caps_reorders() {
        let x = ScheduleExplorer::new(7);
        let reorders = (1..=8 * BUDGET)
            .filter(|&seq| x.on_deliver("a", seq) == FaultAction::Reorder)
            .count();
        assert_eq!(reorders as u64, BUDGET);
        assert_eq!(x.on_deliver("a", 8 * BUDGET + 1), FaultAction::Deliver);
    }

    #[test]
    fn audit_flags_missing_and_duplicated_notices() {
        let obit = |name: &str| Obituary {
            name: name.into(),
            reason: DeathReason::Normal,
        };
        let good = vec![obit("left"), obit("right")];
        let robbed = vec![obit("right")];
        let doubled = vec![obit("left"), obit("left"), obit("right")];
        assert!(audit_exactly_once(&[good.clone()], &["left", "right"]).is_empty());
        let violations = audit_exactly_once(&[good, robbed, doubled], &["left", "right"]);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("subscriber 1"));
        assert!(violations[0].contains("0 times"));
        assert!(violations[1].contains("subscriber 2"));
        assert!(violations[1].contains("2 times"));
    }
}
