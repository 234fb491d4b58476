//! The shared locking service (Sec. 4.2, Sec. 4.4).
//!
//! "A Coordinator registers its address and the FL population it manages
//! in a shared locking service, so there is always a single owner for
//! every FL population which is reachable by other actors in the system."
//! On Coordinator death, "the Selector layer will detect this and respawn
//! it. Because the Coordinators are registered in a shared locking
//! service, this will happen exactly once."
//!
//! [`LockingService`] provides exactly-once ownership with *fenced leases*:
//! each successful acquisition gets a monotonically increasing epoch, and
//! releases must present the matching epoch, so a stale owner (e.g. a
//! zombie Coordinator) cannot release or overwrite its successor.

use fl_race::{Mutex, Site};
use std::collections::HashMap;
use std::sync::Arc;

/// The registry lock is a leaf: no other site is ever acquired while it
/// is held (see the rank table in DESIGN.md §7).
const LOCKING_SERVICE: Site = Site::new("actors/registry.locking_service", 30);

/// Proof of ownership of a name, with a fencing epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The locked name.
    pub name: String,
    /// Fencing token: strictly increases across successive owners.
    pub epoch: u64,
}

struct Entry<T> {
    epoch: u64,
    payload: T,
}

struct Inner<T> {
    entries: HashMap<String, Entry<T>>,
    next_epoch: u64,
}

/// A process-wide locking service mapping names to single owners, each
/// holding an opaque payload (typically an `ActorRef` address).
pub struct LockingService<T> {
    inner: Arc<Mutex<Inner<T>>>,
}

impl<T> Clone for LockingService<T> {
    fn clone(&self) -> Self {
        LockingService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for LockingService<T> {
    fn default() -> Self {
        LockingService::new()
    }
}

impl<T> LockingService<T> {
    /// Creates an empty service.
    pub fn new() -> Self {
        LockingService {
            inner: Arc::new(Mutex::new(
                LOCKING_SERVICE,
                Inner {
                    entries: HashMap::new(),
                    next_epoch: 1,
                },
            )),
        }
    }
}

impl<T: Clone> LockingService<T> {
    /// Attempts to acquire `name`, storing `payload` as the owner's
    /// address. Returns the lease on success, or `None` if already owned —
    /// this is what makes concurrent respawns resolve to exactly one
    /// winner.
    pub fn acquire(&self, name: impl Into<String>, payload: T) -> Option<Lease> {
        let name = name.into();
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(&name) {
            return None;
        }
        let epoch = inner.next_epoch;
        inner.next_epoch += 1;
        inner.entries.insert(name.clone(), Entry { epoch, payload });
        Some(Lease { name, epoch })
    }

    /// Releases a lease. Returns `false` (and changes nothing) if the
    /// lease is stale — i.e. the name has since been re-acquired by a
    /// newer owner.
    pub fn release(&self, lease: &Lease) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.get(&lease.name) {
            Some(entry) if entry.epoch == lease.epoch => {
                inner.entries.remove(&lease.name);
                true
            }
            _ => false,
        }
    }

    /// Forcibly evicts whatever owns `name` (used by failure detectors
    /// that observed the owner die). Returns `true` if an entry existed.
    pub fn evict(&self, name: &str) -> bool {
        self.inner.lock().entries.remove(name).is_some()
    }

    /// Fenced takeover: atomically replaces the owner of `name` with the
    /// caller, but only if the name is *still held at `epoch`* — the
    /// incarnation the caller observed die. This closes the TOCTOU window
    /// in a fenced evict followed by `acquire`: between those two calls the
    /// name can be freed for an unrelated reason (e.g. a successor
    /// spawned by a faster watcher shutting down cleanly and releasing
    /// its lease), and a laggard watcher still processing the original
    /// obituary would then `acquire` the free name and respawn a *second*
    /// coordinator. With a fenced takeover, a watcher can only ever
    /// succeed the exact incarnation it watched die, so "this will happen
    /// exactly once" (Sec. 4.2) holds per death even across slow
    /// watchers. Returns the new lease on success.
    pub fn replace_stale(&self, name: &str, epoch: u64, payload: T) -> Option<Lease> {
        let mut inner = self.inner.lock();
        match inner.entries.get(name) {
            Some(entry) if entry.epoch == epoch => {
                let new_epoch = inner.next_epoch;
                inner.next_epoch += 1;
                inner.entries.insert(
                    name.to_string(),
                    Entry {
                        epoch: new_epoch,
                        payload,
                    },
                );
                Some(Lease {
                    name: name.to_string(),
                    epoch: new_epoch,
                })
            }
            _ => None,
        }
    }

    /// Looks up the current owner's payload.
    pub fn lookup(&self, name: &str) -> Option<T> {
        self.inner
            .lock()
            .entries
            .get(name)
            .map(|e| e.payload.clone())
    }

    /// The current epoch of `name`, if owned.
    pub fn current_epoch(&self, name: &str) -> Option<u64> {
        self.inner.lock().entries.get(name).map(|e| e.epoch)
    }

    /// Names currently owned.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().entries.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_exclusive() {
        let svc = LockingService::new();
        let lease = svc.acquire("pop/a", "addr-1").unwrap();
        assert!(svc.acquire("pop/a", "addr-2").is_none());
        assert_eq!(svc.lookup("pop/a"), Some("addr-1"));
        assert!(svc.release(&lease));
        assert!(svc.acquire("pop/a", "addr-2").is_some());
    }

    #[test]
    fn stale_release_is_rejected() {
        let svc = LockingService::new();
        let old = svc.acquire("pop/a", 1).unwrap();
        svc.evict("pop/a");
        let new = svc.acquire("pop/a", 2).unwrap();
        assert!(new.epoch > old.epoch);
        // The zombie's release must not evict the new owner.
        assert!(!svc.release(&old));
        assert_eq!(svc.lookup("pop/a"), Some(2));
        assert!(svc.release(&new));
    }

    #[test]
    fn fenced_takeover_succeeds_only_the_observed_incarnation() {
        let svc = LockingService::new();
        let dead = svc.acquire("pop/a", "gen-1").unwrap();
        // One watcher takes over atomically; a second watcher holding the
        // same dead epoch loses (the epoch has moved on).
        let successor = svc.replace_stale("pop/a", dead.epoch, "gen-2").unwrap();
        assert!(successor.epoch > dead.epoch);
        assert!(svc.replace_stale("pop/a", dead.epoch, "gen-2b").is_none());
        assert_eq!(svc.lookup("pop/a"), Some("gen-2"));

        // Regression for the evict-then-acquire TOCTOU: once the
        // successor releases cleanly, a laggard watcher that saw only
        // gen-1's death must NOT be able to take the freed name — a bare
        // `acquire` here would have respawned a second coordinator.
        assert!(svc.release(&successor));
        assert!(svc.replace_stale("pop/a", dead.epoch, "gen-3").is_none());
        assert!(svc.lookup("pop/a").is_none());
    }

    #[test]
    fn concurrent_respawn_races_have_one_winner() {
        let svc: LockingService<usize> = LockingService::new();
        let winners: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    let svc = svc.clone();
                    scope.spawn(move || svc.acquire("pop/raced", i).is_some())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(winners.iter().filter(|&&w| w).count(), 1);
    }

    #[test]
    fn distinct_names_are_independent() {
        let svc = LockingService::new();
        assert!(svc.acquire("a", ()).is_some());
        assert!(svc.acquire("b", ()).is_some());
        let mut names = svc.names();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn epochs_strictly_increase() {
        let svc = LockingService::new();
        let mut last = 0;
        for i in 0..5 {
            let lease = svc.acquire(format!("n{i}"), ()).unwrap();
            assert!(lease.epoch > last);
            last = lease.epoch;
        }
    }
}
