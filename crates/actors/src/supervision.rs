//! Supervision: restart policies over the obituary channel.
//!
//! Sec. 4.4 enumerates the failure modes this substrate must absorb: an
//! Aggregator or Selector crash loses only its devices; a Master
//! Aggregator crash fails the round (restarted by the Coordinator); a
//! Coordinator crash is detected by the Selector layer and respawned
//! exactly once via the locking service. The [`supervise`] loop here provides
//! the generic detect-and-restart loop those behaviours build on.

use crate::actor::{Actor, ActorRef};
use crate::system::{ActorSystem, DeathReason, Obituary};
use std::time::Duration;

/// What a supervisor does when a supervised actor dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Never restart; just record the death.
    Never,
    /// Restart on panic, up to the given number of times.
    OnPanic {
        /// Maximum restarts before giving up.
        max_restarts: usize,
    },
    /// Restart on any death (panic or normal stop), up to the limit.
    Always {
        /// Maximum restarts before giving up.
        max_restarts: usize,
    },
}

/// Outcome of a supervision run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Obituaries observed, in order.
    pub deaths: Vec<Obituary>,
    /// Number of restarts performed.
    pub restarts: usize,
}

/// Supervises a single named actor: watches the system's obituary channel
/// and respawns per policy. `factory` rebuilds the actor (fresh state —
/// actors are ephemeral, Sec. 4.2); `wire` is invoked with each new
/// reference so callers can re-route traffic to the replacement.
///
/// Runs until the actor dies without triggering a restart, the restart
/// budget is exhausted, or `deadline` passes.
pub fn supervise<A, F, W>(
    system: &ActorSystem,
    name: &str,
    policy: RestartPolicy,
    mut factory: F,
    mut wire: W,
    deadline: Duration,
) -> SupervisionReport
where
    A: Actor,
    F: FnMut() -> A,
    W: FnMut(ActorRef<A::Msg>),
{
    // Each supervisor gets its own private obituary subscription
    // (replay + live). Concurrent `supervise` loops therefore all see the
    // full death stream: skipping another actor's obituary below only
    // skips it in *this* subscriber's copy instead of stealing it from
    // the supervisor it belongs to.
    let deaths_rx = system.deaths();
    // fl-lint: allow(wall-clock): supervision deadlines bound real elapsed
    // time in the live runtime; the sim supervises via its virtual clock.
    let started = std::time::Instant::now();
    let mut report = SupervisionReport {
        deaths: Vec::new(),
        restarts: 0,
    };
    let first = system.spawn(name.to_string(), factory());
    wire(first);
    loop {
        let remaining = deadline.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return report;
        }
        let obit = match deaths_rx.recv_timeout(remaining) {
            Ok(o) => o,
            Err(_) => return report,
        };
        if obit.name != name {
            continue; // not ours
        }
        let should_restart = match (&policy, &obit.reason) {
            (RestartPolicy::Never, _) => false,
            (RestartPolicy::OnPanic { max_restarts }, DeathReason::Panicked(_)) => {
                report.restarts < *max_restarts
            }
            (RestartPolicy::OnPanic { .. }, DeathReason::Normal) => false,
            (RestartPolicy::Always { max_restarts }, _) => report.restarts < *max_restarts,
        };
        report.deaths.push(obit);
        if !should_restart {
            return report;
        }
        report.restarts += 1;
        let replacement = system.spawn(name.to_string(), factory());
        wire(replacement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, Flow};
    use fl_race::{Mutex, Site};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Slot holding the supervised actor's current reference. Innermost
    /// (timer callbacks lock it while holding nothing), so it ranks
    /// above every runtime site.
    const SLOT: Site = Site::new("test/supervision.slot", 241);

    /// Panics on the first message, then (after restart) counts messages.
    struct Flaky {
        fail_first: Arc<AtomicUsize>,
        handled: Arc<AtomicUsize>,
    }

    impl Actor for Flaky {
        type Msg = u32;
        fn handle(&mut self, msg: u32, _ctx: &mut Context<u32>) -> Flow {
            if self.fail_first.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                if v > 0 { Some(v - 1) } else { None }
            }).is_ok() {
                panic!("injected failure");
            }
            self.handled.fetch_add(1, Ordering::SeqCst);
            if msg == 0 {
                Flow::Stop
            } else {
                Flow::Continue
            }
        }
    }

    #[test]
    fn restarts_on_panic_and_recovers() {
        let system = ActorSystem::new();
        let fail_first = Arc::new(AtomicUsize::new(2)); // two injected crashes
        let handled = Arc::new(AtomicUsize::new(0));
        let current: Arc<Mutex<Option<ActorRef<u32>>>> = Arc::new(Mutex::new(SLOT, None));
        let current2 = current.clone();
        let ff = fail_first.clone();
        let h = handled.clone();
        // Feed messages on the timer wheel so restarts have work to do:
        // one send every 2ms, the last one a Stop.
        let wheel = crate::timer::TimerWheel::new();
        for i in 0..60u32 {
            let fc = current.clone();
            wheel.schedule(Duration::from_millis(2 * u64::from(i) + 2), move || {
                if let Some(r) = fc.lock().clone() {
                    let _ = r.send(if i == 59 { 0 } else { 1 });
                }
            });
        }
        let report = supervise(
            &system,
            "flaky",
            RestartPolicy::OnPanic { max_restarts: 5 },
            move || Flaky {
                fail_first: ff.clone(),
                handled: h.clone(),
            },
            move |r| {
                *current2.lock() = Some(r);
            },
            Duration::from_secs(5),
        );
        wheel.shutdown();
        assert_eq!(report.restarts, 2, "deaths: {:?}", report.deaths);
        assert!(handled.load(Ordering::SeqCst) > 0);
        // Final death is normal (msg 0 → Stop).
        assert!(matches!(
            report.deaths.last().unwrap().reason,
            DeathReason::Normal
        ));
        system.join();
    }

    #[test]
    fn never_policy_does_not_restart() {
        let system = ActorSystem::new();
        let fail_first = Arc::new(AtomicUsize::new(1));
        let handled = Arc::new(AtomicUsize::new(0));
        let refslot: Arc<Mutex<Option<ActorRef<u32>>>> = Arc::new(Mutex::new(SLOT, None));
        let rs = refslot.clone();
        let ff = fail_first.clone();
        let h = handled.clone();
        let rs2 = refslot.clone();
        let wheel = crate::timer::TimerWheel::new();
        wheel.schedule(Duration::from_millis(20), move || {
            if let Some(r) = rs2.lock().clone() {
                let _ = r.send(1);
            }
        });
        let report = supervise(
            &system,
            "oneshot",
            RestartPolicy::Never,
            move || Flaky {
                fail_first: ff.clone(),
                handled: h.clone(),
            },
            move |r| *rs.lock() = Some(r),
            Duration::from_secs(2),
        );
        wheel.shutdown();
        assert_eq!(report.restarts, 0);
        assert_eq!(report.deaths.len(), 1);
        system.join();
    }

    /// Regression (satellite 1): two concurrent `supervise` loops must not
    /// steal each other's obituaries. Pre-fix, `ActorSystem::deaths()`
    /// cloned one shared crossbeam receiver, so when "left" died its
    /// obituary could be consumed — and discarded via `continue; // not
    /// ours` — by "right"'s supervisor, and the robbed supervisor blocked
    /// until its deadline with zero restarts. Post-fix every subscriber
    /// gets a private copy of the full death stream, so both supervisors
    /// observe both interleaved deaths and each restarts its own actor.
    #[test]
    fn concurrent_supervisors_do_not_steal_obituaries() {
        let system = ActorSystem::new();
        // Both supervisors are subscribed and both actors are alive before
        // either is fed, so the two crashes land in both subscriptions
        // while both loops are draining them.
        let both_wired = Arc::new(std::sync::Barrier::new(2));

        let mut joins = Vec::new();
        for name in ["left", "right"] {
            let fail_first = Arc::new(AtomicUsize::new(1)); // one crash each
            let handled = Arc::new(AtomicUsize::new(0));
            let sys = system.clone();
            let handled2 = handled.clone();
            let both_wired = both_wired.clone();
            joins.push(std::thread::spawn(move || {
                let mut wired = 0;
                let report = supervise(
                    &sys,
                    name,
                    RestartPolicy::OnPanic { max_restarts: 3 },
                    move || Flaky {
                        fail_first: fail_first.clone(),
                        handled: handled2.clone(),
                    },
                    // The stream is fed from the published ref, so no
                    // message can race the spawn: the first incarnation
                    // panics on its first message and the rest of its
                    // mailbox dies with it; the replacement handles 39
                    // and stops on the 40th.
                    move |r| {
                        if wired == 0 {
                            both_wired.wait();
                        }
                        wired += 1;
                        for i in 0..40u32 {
                            let _ = r.send(if i == 39 { 0 } else { 1 });
                        }
                    },
                    Duration::from_secs(5),
                );
                (name, report, handled)
            }));
        }
        for j in joins {
            let (name, report, handled) = j.join().expect("supervisor thread");
            assert_eq!(
                report.restarts, 1,
                "supervisor {name} was robbed of its obituary: {:?}",
                report.deaths
            );
            assert!(
                report.deaths.iter().all(|o| o.name == name),
                "supervisor {name} recorded a foreign obituary: {:?}",
                report.deaths
            );
            assert!(handled.load(Ordering::SeqCst) > 0);
            assert!(matches!(
                report.deaths.last().unwrap().reason,
                DeathReason::Normal
            ));
        }
        system.join();
    }

    #[test]
    fn restart_budget_is_respected() {
        use std::sync::atomic::AtomicBool;
        let system = ActorSystem::new();
        let fail_first = Arc::new(AtomicUsize::new(usize::MAX)); // always crash
        let handled = Arc::new(AtomicUsize::new(0));
        let refslot: Arc<Mutex<Option<ActorRef<u32>>>> = Arc::new(Mutex::new(SLOT, None));
        let done = Arc::new(AtomicBool::new(false));
        let rs = refslot.clone();
        let ff = fail_first.clone();
        let h = handled.clone();
        let rs2 = refslot.clone();
        let done2 = done.clone();
        // Feed the crash-looping actor until supervision gives up, so the
        // test is immune to scheduling speed: a self-rearming timer
        // callback sends one message every 2ms.
        fn feed(
            wheel: &Arc<crate::timer::TimerWheel>,
            slot: Arc<Mutex<Option<ActorRef<u32>>>>,
            done: Arc<AtomicBool>,
        ) {
            if done.load(Ordering::SeqCst) {
                return;
            }
            if let Some(r) = slot.lock().clone() {
                let _ = r.send(1);
            }
            let rearm = Arc::clone(wheel);
            wheel.schedule(Duration::from_millis(2), move || feed(&rearm, slot, done));
        }
        let wheel = Arc::new(crate::timer::TimerWheel::new());
        feed(&wheel, rs2, done2);
        let report = supervise(
            &system,
            "hopeless",
            RestartPolicy::OnPanic { max_restarts: 3 },
            move || Flaky {
                fail_first: ff.clone(),
                handled: h.clone(),
            },
            move |r| *rs.lock() = Some(r),
            Duration::from_secs(20),
        );
        done.store(true, Ordering::SeqCst);
        wheel.shutdown();
        assert_eq!(report.restarts, 3);
        assert_eq!(report.deaths.len(), 4); // initial + 3 restarts, all dead
        // Drop the slot's reference so the last (stopped) actor's mailbox
        // closes and join() returns.
        *refslot.lock() = None;
        system.join();
    }
}
