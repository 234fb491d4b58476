//! Drop-in `Mutex`/`Condvar` wrappers that report every nested
//! acquisition to a [`LockGraph`].
//!
//! Each wrapper owns a [`Site`] and a graph handle. A thread-local
//! stack tracks the sites the current thread holds; on every
//! acquisition, each (held, acquired) pair is recorded as a graph edge
//! (deduplicated per thread) and checked against the rank discipline.
//! Guards recover from poisoning: a panicking actor thread must not
//! poison control-plane state other actors still need (Sec. 4.4).

use crate::graph::LockGraph;
use crate::Site;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::{Arc, PoisonError};

struct HeldEntry {
    site: Site,
    graph: usize,
    token: u64,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: Cell<u64> = const { Cell::new(0) };
    /// (graph id, held site, acquired site) pairs already reported by
    /// this thread — keeps the hot path to one thread-local lookup.
    static SEEN_PAIRS: RefCell<BTreeSet<(usize, &'static str, &'static str)>> =
        const { RefCell::new(BTreeSet::new()) };
    static SEEN_SITES: RefCell<BTreeSet<(usize, &'static str)>> =
        const { RefCell::new(BTreeSet::new()) };
    /// Who this thread is working as right now, when that is not who
    /// the OS thread was named for (see [`set_thread_label`]).
    static LABEL: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Names the current thread's work in lock-audit reports (`first-thread=`)
/// until replaced; `None` falls back to the OS thread name. An actor
/// runtime whose actors borrow pooled threads labels the thread with the
/// running actor's name, so a report still says which actor took a lock.
pub fn set_thread_label(label: Option<Arc<str>>) {
    LABEL.with(|l| *l.borrow_mut() = label);
}

/// How many instrumented locks the current thread holds right now.
pub fn held_locks() -> usize {
    HELD.with(|h| h.borrow().len())
}

/// Registers an acquisition of `site` on `graph`: records any new
/// (held, acquired) pairs, pushes the site onto the thread's held
/// stack, and returns the token the guard later unregisters with.
fn register(graph: &LockGraph, site: Site) -> u64 {
    let gid = graph.id();
    let fresh_site = SEEN_SITES.with(|s| s.borrow_mut().insert((gid, site.name)));
    let new_pairs: Vec<Site> = HELD.with(|h| {
        h.borrow()
            .iter()
            .filter(|e| e.graph == gid)
            .map(|e| e.site)
            .collect()
    });
    let new_pairs: Vec<Site> = SEEN_PAIRS.with(|s| {
        let mut seen = s.borrow_mut();
        new_pairs
            .into_iter()
            .filter(|held| seen.insert((gid, held.name, site.name)))
            .collect()
    });
    if fresh_site || !new_pairs.is_empty() {
        let current = std::thread::current();
        let label = LABEL.with(|l| l.borrow().clone());
        let thread = label.as_deref().or(current.name()).unwrap_or("unnamed");
        graph.record_acquire(&new_pairs, site, thread);
    }
    let token = NEXT_TOKEN.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v
    });
    HELD.with(|h| {
        h.borrow_mut().push(HeldEntry {
            site,
            graph: gid,
            token,
        })
    });
    token
}

/// Pops the held-stack entry for `token`. Uses `try_with`: guards may
/// be dropped during thread-local teardown, where the stack is gone.
fn unregister(token: u64) {
    let _ = HELD.try_with(|h| h.borrow_mut().retain(|e| e.token != token));
}

/// An instrumented mutual-exclusion lock over `std::sync::Mutex`.
pub struct Mutex<T: ?Sized> {
    site: Site,
    graph: LockGraph,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex reporting to the process-wide
    /// [`LockGraph::global`] graph.
    pub fn new(site: Site, value: T) -> Self {
        Mutex::new_in(site, LockGraph::global(), value)
    }

    /// Creates a mutex reporting to a specific graph (fixtures that
    /// build deliberate inversions keep the global gate clean this way).
    pub fn new_in(site: Site, graph: &LockGraph, value: T) -> Self {
        Mutex {
            site,
            graph: graph.clone(),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recording the acquisition in the graph.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = register(&self.graph, self.site);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            lock: self,
            inner: Some(inner),
            token,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(Site::new("fl-race/unnamed", u16::MAX), T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Ok(guard) => f
                .debug_struct("Mutex")
                .field("site", &self.site.name)
                .field("data", &&*guard)
                .finish(),
            Err(_) => f
                .debug_struct("Mutex")
                .field("site", &self.site.name)
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// RAII guard for [`Mutex`]. The `Option` indirection lets
/// [`Condvar::wait`] release and re-take the underlying guard without
/// `unsafe`.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    token: u64,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        unregister(self.token);
    }
}

/// A condition variable paired with [`Mutex`]. While a thread waits,
/// the mutex's entry is popped from its held stack (the lock really is
/// released); re-acquisition on wakeup is recorded like any other.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Releases `guard`'s lock, blocks until notified, re-acquires.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(inner) = guard.inner.take() {
            unregister(guard.token);
            let inner = self
                .inner
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            guard.token = register(&guard.lock.graph, guard.lock.site);
            guard.inner = Some(inner);
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LockGraph;

    const A: Site = Site::new("fixture/a", 10);
    const B: Site = Site::new("fixture/b", 20);

    #[test]
    fn ordered_nesting_records_an_edge_and_stays_clean() {
        let graph = LockGraph::new();
        let a = Mutex::new_in(A, &graph, 1u64);
        let b = Mutex::new_in(B, &graph, 2u64);
        {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        assert!(graph.has_edge("fixture/a", "fixture/b"));
        assert!(!graph.has_edge("fixture/b", "fixture/a"));
        assert!(graph.is_acyclic());
        assert!(graph.rank_violations().is_empty());
    }

    #[test]
    fn inverted_nesting_is_a_rank_violation() {
        let graph = LockGraph::new();
        let a = Mutex::new_in(A, &graph, ());
        let b = Mutex::new_in(B, &graph, ());
        let gb = b.lock();
        let ga = a.lock(); // rank 10 while rank 20 held
        drop(ga);
        drop(gb);
        let violations = graph.rank_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].held, "fixture/b");
        assert_eq!(violations[0].acquired, "fixture/a");
    }

    #[test]
    fn both_orders_form_a_cycle_even_without_a_deadlock() {
        // Sequentially take a→b then b→a: no run deadlocks, but the
        // graph proves two threads doing this concurrently could.
        let graph = LockGraph::new();
        let a = Mutex::new_in(A, &graph, ());
        let b = Mutex::new_in(B, &graph, ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].sites, vec!["fixture/a", "fixture/b"]);
        assert_eq!(cycles[0].edges.len(), 2);
        let report = graph.render();
        assert!(report.contains("cycle [potential deadlock]"), "{report}");
        assert!(
            report.contains("order fixture/a then fixture/b"),
            "{report}"
        );
        assert!(
            report.contains("order fixture/b then fixture/a"),
            "{report}"
        );
    }

    #[test]
    fn render_is_byte_identical_for_identical_histories() {
        let build = || {
            let graph = LockGraph::new();
            let a = Mutex::new_in(A, &graph, ());
            let b = Mutex::new_in(B, &graph, ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            graph.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn same_site_reacquisition_is_flagged() {
        let graph = LockGraph::new();
        let a1 = Mutex::new_in(A, &graph, ());
        let a2 = Mutex::new_in(A, &graph, ());
        let _g1 = a1.lock();
        let _g2 = a2.lock();
        let violations = graph.rank_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].held, violations[0].acquired);
        // Same-site nesting is a violation, not a graph edge.
        assert!(graph.is_acyclic());
    }

    #[test]
    fn guard_drop_pops_the_held_stack() {
        let graph = LockGraph::new();
        let a = Mutex::new_in(A, &graph, ());
        let b = Mutex::new_in(B, &graph, ());
        {
            let _ga = a.lock();
        }
        let _gb = b.lock(); // `a` no longer held: no edge
        assert!(!graph.has_edge("fixture/a", "fixture/b"));
    }

    #[test]
    fn graphs_are_isolated() {
        let g1 = LockGraph::new();
        let g2 = LockGraph::new();
        let a = Mutex::new_in(A, &g1, ());
        let b = Mutex::new_in(B, &g2, ());
        let _ga = a.lock();
        let _gb = b.lock(); // held lock belongs to a different graph
        assert_eq!(g1.edge_count(), 0);
        assert_eq!(g2.edge_count(), 0);
        assert_eq!(g1.site_count(), 1);
        assert_eq!(g2.site_count(), 1);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let graph = LockGraph::new();
        let a = Arc::new(Mutex::new_in(A, &graph, 41u64));
        let a2 = a.clone();
        let _ = std::thread::spawn(move || {
            let _g = a2.lock();
            panic!("poison it");
        })
        .join();
        *a.lock() += 1;
        assert_eq!(*a.lock(), 42);
    }

    #[test]
    fn condvar_handoff_releases_and_reacquires() {
        let graph = LockGraph::new();
        let pair = Arc::new((Mutex::new_in(A, &graph, false), Condvar::new()));
        let pair2 = pair.clone();
        let worker = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            *lock.lock() = true;
            cvar.notify_all();
        });
        let (lock, cvar) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            cvar.wait(&mut ready);
        }
        drop(ready);
        worker.join().ok();
        // The wait popped the held entry: a lock taken by the notifier
        // while we waited records no edge from fixture/a.
        assert_eq!(graph.edge_count(), 0);
    }

    #[test]
    fn a_thread_label_names_the_thread_in_reports_until_cleared() {
        let graph = LockGraph::new();
        let a = Mutex::new_in(A, &graph, ());
        let b = Mutex::new_in(B, &graph, ());
        let (a, b) = (&a, &b);
        std::thread::scope(|s| {
            let worker = std::thread::Builder::new().name("pool-worker".into());
            let spawned = worker.spawn_scoped(s, move || {
                set_thread_label(Some(Arc::from("tenant-actor")));
                let ga = a.lock();
                assert_eq!(held_locks(), 1);
                drop(b.lock());
                drop(ga);
                assert_eq!(held_locks(), 0);
                set_thread_label(None);
                // Inverted on purpose: the second edge is taken unlabelled.
                let _gb = b.lock();
                let _ga = a.lock();
            });
            spawned.expect("spawn").join().expect("worker");
        });
        let report = graph.render();
        assert!(
            report.contains("edge fixture/a -> fixture/b ranks=10->20 first-thread=tenant-actor"),
            "{report}"
        );
        assert!(
            report.contains("edge fixture/b -> fixture/a ranks=20->10 first-thread=pool-worker"),
            "{report}"
        );
    }
}
