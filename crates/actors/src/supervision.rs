//! Supervision: the lease-fenced respawn loop over the obituary channel.
//!
//! Sec. 4.4 enumerates the failure modes this substrate must absorb: an
//! Aggregator or Selector crash loses only its devices; a Master
//! Aggregator crash fails the round (restarted by the Coordinator); a
//! Coordinator crash is detected by the Selector layer and respawned
//! exactly once via the locking service. [`watch_and_respawn`] is that
//! last loop; the first three need no loop of their own.

use crate::actor::{Actor, ActorRef};
use crate::registry::{Lease, LockingService};
use crate::system::{ActorSystem, DeathReason, Obituary};
use std::time::Duration;

/// Outcome of one [`watch_and_respawn`] watcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespawnReport {
    /// Obituaries of the watched actor observed, in order.
    pub deaths: Vec<Obituary>,
    /// Respawns performed by *this* watcher. Across all concurrent
    /// watchers the locking service guarantees at most one respawn per
    /// death (Sec. 4.4: "this will happen exactly once").
    pub respawns: usize,
}

/// Watches the actor named `actor_name`, which holds the lease
/// `lease_name` at `known_epoch`, and respawns it on panic — exactly once
/// per death even with many concurrent watchers.
///
/// This is the Selector layer's recovery loop from Sec. 4.4: "the
/// Selector layer will detect this and respawn it. Because the
/// Coordinators are registered in a shared locking service, this will
/// happen exactly once." A panicked actor never runs `on_stop`, so its
/// lease is still held; each watcher takes it over *with the fencing
/// epoch of the incarnation it saw die* (a stale watcher cannot evict a
/// successor). The one winner builds the replacement via
/// `make_actor(lease)` — a Coordinator over the shared checkpoint store,
/// so it resumes from the committed model — spawns it under
/// `actor_name`, and announces it through `wire` (e.g. a Selector
/// `Rewire` fan-out).
///
/// Each watcher reads its own obituary subscription (replay + live), so
/// watchers of different names never steal each other's notices.
///
/// Returns when the actor dies without panicking (clean shutdown), the
/// `deadline` (measured on the system's clock) passes, or a respawn
/// budget of `max_respawns` is spent.
pub fn watch_and_respawn<A, F, W>(
    system: &ActorSystem,
    locks: &LockingService<String>,
    actor_name: &str,
    lease_name: &str,
    mut known_epoch: u64,
    max_respawns: usize,
    mut make_actor: F,
    mut wire: W,
    deadline: Duration,
) -> RespawnReport
where
    A: Actor,
    F: FnMut(Lease) -> A,
    W: FnMut(ActorRef<A::Msg>),
{
    let deaths_rx = system.deaths();
    let until = system.after(deadline);
    let mut report = RespawnReport {
        deaths: Vec::new(),
        respawns: 0,
    };
    loop {
        let next = match until {
            Some(until) => deaths_rx.recv_deadline(until).ok(),
            None => deaths_rx.recv().ok(),
        };
        let Some(obit) = next else { return report };
        if obit.name != actor_name {
            continue;
        }
        let panicked = matches!(obit.reason, DeathReason::Panicked(_));
        report.deaths.push(obit);
        if !panicked {
            // Clean shutdown released the lease itself; nothing to do.
            return report;
        }
        if report.respawns >= max_respawns {
            return report;
        }
        // The dead incarnation never ran `on_stop`: its lease is stale.
        // Atomic fenced takeover picks exactly one winner among
        // concurrent watchers — and, unlike an evict-then-acquire pair,
        // cannot grab the name after a *successor* released it cleanly
        // (a laggard watcher still digesting the original obituary must
        // not respawn a second actor).
        match locks.replace_stale(lease_name, known_epoch, lease_name.to_string()) {
            Some(lease) => {
                known_epoch = lease.epoch;
                report.respawns += 1;
                let replacement = system.spawn(actor_name.to_string(), make_actor(lease));
                wire(replacement);
            }
            None => {
                // Another watcher won the race; track the successor's
                // epoch so a later death of *that* incarnation can still
                // be evicted by us.
                if let Some(epoch) = locks.current_epoch(lease_name) {
                    known_epoch = epoch;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, Flow};
    use crate::system::{FaultAction, ScriptedFaults};
    use std::sync::Arc;

    /// Answers each message with the message itself, and releases its
    /// lease on a clean stop the way a Coordinator does. A scripted crash
    /// kills it before `on_stop`, leaving the lease for a watcher.
    struct Leased {
        locks: LockingService<String>,
        lease: Lease,
    }

    impl Actor for Leased {
        type Msg = Flow;
        fn handle(&mut self, flow: Flow, _ctx: &mut Context<Flow>) -> Flow {
            flow
        }
        fn on_stop(&mut self) {
            self.locks.release(&self.lease);
        }
    }

    /// Spawns the first incarnation of `name` under a fresh lease of the
    /// same name; returns it and the lease's epoch.
    fn start(
        system: &ActorSystem,
        locks: &LockingService<String>,
        name: &str,
    ) -> (ActorRef<Flow>, u64) {
        let lease = locks.acquire(name, name.to_string()).expect("name is free");
        let epoch = lease.epoch;
        (
            system.spawn(
                name,
                Leased {
                    locks: locks.clone(),
                    lease,
                },
            ),
            epoch,
        )
    }

    /// Watches `name`, feeding every replacement one `Flow::Stop` from
    /// the `wire` callback.
    fn watch(
        system: &ActorSystem,
        locks: &LockingService<String>,
        name: &str,
        epoch: u64,
    ) -> RespawnReport {
        watch_and_respawn(
            system,
            locks,
            name,
            name,
            epoch,
            3,
            |lease| Leased {
                locks: locks.clone(),
                lease,
            },
            |replacement| {
                let _ = replacement.send(Flow::Stop);
            },
            Duration::from_secs(10),
        )
    }

    #[test]
    fn crash_loop_spends_the_respawn_budget() {
        let system = ActorSystem::new();
        // Every incarnation crashes on its first message.
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "hopeless",
            1,
            FaultAction::Crash,
        )));
        let locks = LockingService::new();
        let (first, epoch) = start(&system, &locks, "hopeless");
        first.send(Flow::Stop).unwrap();
        let report = watch(&system, &locks, "hopeless", epoch);
        assert_eq!(report.respawns, 3);
        assert_eq!(report.deaths.len(), 4, "{:?}", report.deaths);
        assert!(report
            .deaths
            .iter()
            .all(|o| matches!(o.reason, DeathReason::Panicked(_))));
        system.join();
    }

    /// Regression: two watchers of two names must not steal each other's
    /// obituaries. Were the death stream one shared receiver, "left"'s
    /// obituary could be consumed and skipped by "right"'s watcher, which
    /// would leave "left" dead until the deadline.
    #[test]
    fn two_watchers_each_respawn_only_their_own_actor() {
        let system = ActorSystem::new();
        // The first incarnation of each crashes on its second message;
        // each replacement handles its one `Stop` and stops cleanly.
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new()
                .with("left", 2, FaultAction::Crash)
                .with("right", 2, FaultAction::Crash),
        ));
        let locks = LockingService::new();
        let reports: Vec<_> = std::thread::scope(|scope| {
            let (system, locks) = (&system, &locks);
            let watched: Vec<_> = ["left", "right"]
                .into_iter()
                .map(|name| {
                    let (first, epoch) = start(system, locks, name);
                    (
                        first,
                        scope.spawn(move || (name, watch(system, locks, name, epoch))),
                    )
                })
                .collect();
            // Both watchers are started before either actor is fed.
            let watchers: Vec<_> = watched
                .into_iter()
                .map(|(first, watcher)| {
                    first.send(Flow::Continue).unwrap();
                    first.send(Flow::Continue).unwrap();
                    watcher
                })
                .collect();
            watchers
                .into_iter()
                .map(|w| w.join().expect("watcher thread"))
                .collect()
        });
        for (name, report) in reports {
            assert_eq!(report.respawns, 1, "{name}: {:?}", report.deaths);
            assert!(
                report.deaths.iter().all(|o| o.name == name),
                "{name}: {:?}",
                report.deaths
            );
            assert_eq!(
                report.deaths.last().map(|o| &o.reason),
                Some(&DeathReason::Normal)
            );
        }
        assert!(locks.names().is_empty(), "clean stops release both leases");
        system.join();
    }

    #[test]
    fn clean_stop_ends_the_watch_without_a_respawn() {
        let system = ActorSystem::new();
        let locks = LockingService::new();
        let (first, epoch) = start(&system, &locks, "steady");
        first.send(Flow::Continue).unwrap();
        first.send(Flow::Stop).unwrap();
        let started = std::time::Instant::now();
        let report = watch(&system, &locks, "steady", epoch);
        // The stop ends the watch, not the 10 s deadline.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(report.respawns, 0);
        assert_eq!(report.deaths.len(), 1);
        assert_eq!(report.deaths[0].reason, DeathReason::Normal);
        assert!(
            locks.lookup("steady").is_none(),
            "the stop released the lease"
        );
        system.join();
    }
}
