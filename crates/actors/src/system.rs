//! The [`ActorSystem`]: spawning, death notification, shutdown, and
//! deterministic fault injection.
//!
//! An actor is ephemeral; the thread it runs on is borrowed. `spawn`
//! hands the actor's whole life (start, mailbox loop, stop, obituary) to
//! a parked worker thread when one is idle and starts a worker only when
//! none is, and a worker parks again once its actor's obituary is out.
//! Threads held are therefore bounded by the most actors ever alive at
//! once, not by how many were ever spawned (Sec. 4.2: a Master
//! Aggregator and its shards exist per round, so that bound is what a
//! long-lived deployment needs). [`ActorSystem::join`] retires them,
//! and so does dropping the last handle on the system.

use crate::actor::{Actor, ActorRef, Context, Flow};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use fl_race::{Condvar, Mutex, Site};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

// Lock sites, in rank order (see the table in DESIGN.md §7). The only
// nesting in this module is obituary_log -> subscribers, so those two
// ranks are adjacent; the rest are leaves.
const OBITUARY_LOG: Site = Site::new("actors/system.obituary_log", 10);
const SUBSCRIBERS: Site = Site::new("actors/system.subscribers", 12);
const WORKERS: Site = Site::new("actors/system.workers", 20);
const INJECTOR: Site = Site::new("actors/system.injector", 22);

/// Obituaries a system keeps for late subscribers; an older one is
/// dropped as a new one is published. A live subscriber is handed each
/// obituary as it is published, so the ring serves only a `deaths()`
/// called after the deaths it asks about: post-mortem inspection after
/// `join()`, which reads back a few dozen. A round leaves three (a
/// Master Aggregator and its shards), so 1 024 is some 340 rounds of
/// history at a constant size, not every round a week-long run spawns.
pub const OBITUARY_RING: usize = 1024;

/// How an actor's life ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeathReason {
    /// The actor returned [`Flow::Stop`] or its mailbox closed.
    Normal,
    /// The actor's handler panicked; the payload's message if extractable.
    Panicked(String),
}

/// A death notice published to the system's obituary channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obituary {
    /// Name of the actor that died.
    pub name: String,
    /// Why it died.
    pub reason: DeathReason,
}

/// What the fault injector tells the mailbox dispatcher to do with one
/// message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the message normally (the default).
    Deliver,
    /// Silently drop the message (models a lost network packet).
    Drop,
    /// Re-enqueue the message at the back of the mailbox (models a
    /// delayed/reordered packet). If the mailbox has no live external
    /// sender, the message is dropped instead.
    Delay,
    /// Losslessly re-enqueue the message at the back of the mailbox,
    /// permuting delivery order without changing the delivered set. If
    /// no live external sender remains (the mailbox is draining), the
    /// message is delivered in place instead of being dropped — unlike
    /// [`FaultAction::Delay`], reordering never loses a message. This
    /// is the primitive schedule exploration is built on.
    Reorder,
    /// Crash the actor via the real panic-recovery path, producing an
    /// [`Obituary`] with [`DeathReason::Panicked`].
    Crash,
}

/// A deterministic fault source consulted by the mailbox dispatcher
/// before every message delivery.
///
/// `seq` is the 1-based count of messages pulled from the actor's mailbox
/// so far (including dropped/delayed/crashing ones), so a scripted plan
/// like "crash `coordinator` on its 3rd message" replays identically on
/// every run. Implementations must be deterministic: no wall-clock, no
/// unseeded randomness.
pub trait FaultInjector: Send + Sync {
    /// Decides the fate of the `seq`-th message delivered to `actor`.
    fn on_deliver(&self, actor: &str, seq: u64) -> FaultAction;
}

/// A scripted, replayable fault plan for live actors: maps
/// `(actor name, message sequence number)` to an action. Anything not
/// scripted is delivered normally.
#[derive(Debug, Default)]
pub struct ScriptedFaults {
    script: std::collections::HashMap<(String, u64), FaultAction>,
}

impl ScriptedFaults {
    /// Creates an empty script (everything delivers).
    pub fn new() -> Self {
        ScriptedFaults::default()
    }

    /// Adds one scripted action: the `nth` (1-based) message delivered to
    /// `actor` gets `action`.
    #[must_use]
    pub fn with(mut self, actor: impl Into<String>, nth: u64, action: FaultAction) -> Self {
        self.script.insert((actor.into(), nth), action);
        self
    }
}

impl FaultInjector for ScriptedFaults {
    fn on_deliver(&self, actor: &str, seq: u64) -> FaultAction {
        self.script
            .get(&(actor.to_string(), seq))
            .copied()
            .unwrap_or(FaultAction::Deliver)
    }
}

/// One actor's whole life, boxed so any worker can run it.
type Job = Box<dyn FnOnce() + Send>;

/// The worker threads of one system. A worker is either running a job
/// or idle, so the system is quiescent exactly when `idle ==
/// handles.len()`.
struct Workers {
    /// Hands a job to one idle worker; every worker holds a clone of
    /// `parking`. Dropping `jobs` is what retires them.
    jobs: Sender<Job>,
    parking: Receiver<Job>,
    /// Workers parked on `parking` (or publishing their last actor's
    /// obituary on the way there) that no job has been sent for.
    idle: usize,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    fn new() -> Self {
        let (jobs, parking) = unbounded();
        Workers {
            jobs,
            parking,
            idle: 0,
            handles: Vec::new(),
        }
    }
}

struct Shared {
    workers: Mutex<Workers>,
    /// Signalled when the last busy worker goes idle; `join` waits here.
    quiescent: Condvar,
    /// The last [`OBITUARY_RING`] obituaries published, in publication
    /// order. Late subscribers receive a replay, so post-mortem
    /// inspection (`deaths()` after `join()`) still works.
    obituary_log: Mutex<VecDeque<Obituary>>,
    /// Live subscriber channels. Each subscriber owns a private channel,
    /// so concurrent consumers (e.g. two `watch_and_respawn` watchers)
    /// can never steal each other's notices.
    subscribers: Mutex<Vec<Sender<Obituary>>>,
    /// Whether `injector` holds one. Written under the `injector` lock;
    /// read alone before every delivery, so a system with nothing
    /// installed takes no lock there.
    injector_installed: AtomicBool,
    injector: Mutex<Option<Arc<dyn FaultInjector>>>,
}

impl Shared {
    fn publish(&self, obit: Obituary) {
        // Lock order: obituary_log (rank 10), then subscribers (rank
        // 12) — same in `deaths`. Holding both makes append+fanout
        // atomic with respect to subscription, so a racing subscriber
        // sees the obituary exactly once — in the replay or live,
        // never both, never neither.
        let mut log = self.obituary_log.lock();
        if log.len() == OBITUARY_RING {
            log.pop_front();
        }
        log.push_back(obit.clone());
        // fl-lint: allow(lock-order): nesting is intentional and machine-
        // checked — fl-race enforces rank 10 -> 12 at runtime, and the
        // lock-audit gate asserts the graph stays acyclic.
        let mut subs = self.subscribers.lock();
        subs.retain(|tx| tx.send(obit.clone()).is_ok());
    }

    /// The installed fault injector, if any. The flag publishes nothing
    /// by itself (the slot is read under its lock); its `Acquire` pairs
    /// with the `Release` in `set_injector` so that an actor already
    /// running sees an installation on its next delivery.
    fn injector(&self) -> Option<Arc<dyn FaultInjector>> {
        if !self.injector_installed.load(Ordering::Acquire) {
            return None;
        }
        self.injector.lock().clone()
    }

    fn set_injector(&self, injector: Option<Arc<dyn FaultInjector>>) {
        let mut slot = self.injector.lock();
        let installed = injector.is_some();
        *slot = injector;
        self.injector_installed.store(installed, Ordering::Release);
    }

    /// Counts the calling worker idle. Its job calls this once its actor
    /// is dead but before the obituary goes out, so whoever answers an
    /// obituary by spawning (a respawn watcher, the next round) finds this
    /// worker rather than starting another; a job sent in the meantime
    /// waits in the channel for the few steps the worker has left.
    fn worker_idle(&self) {
        let mut workers = self.workers.lock();
        workers.idle += 1;
        if workers.idle == workers.handles.len() {
            self.quiescent.notify_all();
        }
    }

    /// Runs `job` on an idle worker, or on a new one if none is idle.
    fn run_on_worker(&self, job: Job) {
        let mut workers = self.workers.lock();
        if workers.idle > 0 {
            workers.idle -= 1;
            // Cannot fail: `workers.parking` keeps the channel open.
            let _ = workers.jobs.send(job);
            return;
        }
        let parking = workers.parking.clone();
        let handle = std::thread::Builder::new()
            .name(format!("actor-worker-{}", workers.handles.len()))
            .spawn(move || work(job, &parking))
            // fl-lint: allow(unwrap): spawn failure here means the OS refused a
            // thread; the actor system cannot degrade further, so abort loudly.
            .expect("failed to spawn actor thread");
        workers.handles.push(handle);
    }
}

/// A worker thread: runs `job`, parks for the next one, until the system
/// retires it (or is dropped) by closing the job channel. It holds no
/// handle on the system, so parked workers never keep one alive.
fn work(mut job: Job, parking: &Receiver<Job>) {
    loop {
        // The job catches its actor's panics and counts the worker idle
        // itself; this catches what is left (an actor whose `Drop`
        // panics) so the thread lives to take the job it is idle for.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        fl_race::set_thread_label(None);
        job = match parking.recv() {
            Ok(job) => job,
            Err(_) => return,
        };
    }
}

/// One actor's life on the calling thread, from `on_start` to the end
/// of its mailbox; a panic anywhere in it is the returned reason. The
/// wait for each message ends at the actor's [`Actor::deadline`], if it
/// has one, and a wait that ends there runs [`Actor::on_deadline`].
fn run<A: Actor>(
    actor: &mut A,
    ctx: &mut Context<A::Msg>,
    rx: &Receiver<A::Msg>,
    shared: &Shared,
) -> DeathReason {
    let mut seq: u64 = 0;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        actor.on_start(ctx);
        loop {
            let received = match actor.deadline() {
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(deadline) => rx.recv_deadline(deadline),
            };
            let msg = match received {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => match actor.on_deadline(ctx) {
                    Flow::Continue => continue,
                    Flow::Stop => break,
                },
                Err(RecvTimeoutError::Disconnected) => break,
            };
            seq += 1;
            let action = shared
                .injector()
                .map(|i| i.on_deliver(&ctx.name, seq))
                .unwrap_or(FaultAction::Deliver);
            match action {
                FaultAction::Deliver => {}
                FaultAction::Drop => continue,
                FaultAction::Delay => {
                    // Push the message to the back of the mailbox; if no
                    // external sender is left the message is dropped
                    // (the actor is draining toward shutdown anyway).
                    if let Some(tx) = ctx.self_sender.upgrade() {
                        let _ = tx.send(msg);
                    }
                    continue;
                }
                FaultAction::Reorder => match ctx.self_sender.upgrade() {
                    // Re-enqueue behind the pending messages; the send
                    // cannot fail while this thread holds the receiver.
                    Some(tx) => {
                        let _ = tx.send(msg);
                        continue;
                    }
                    // Draining mailbox: there is nothing left to reorder
                    // against, and reordering must never lose a message
                    // — deliver in place.
                    None => {}
                },
                FaultAction::Crash => {
                    // fl-lint: allow(panic): chaos injection must
                    // exercise the real panic-recovery path the
                    // respawn watchers are built to absorb.
                    panic!("chaos: injected crash");
                }
            }
            if actor.handle(msg, ctx) == Flow::Stop {
                break;
            }
        }
        actor.on_stop();
    }));
    match result {
        Ok(()) => DeathReason::Normal,
        Err(payload) => DeathReason::Panicked(panic_message(&*payload)),
    }
}

/// A handle to the actor system. Cloning is cheap; all clones refer to the
/// same system.
#[derive(Clone)]
pub struct ActorSystem {
    shared: Arc<Shared>,
}

impl Default for ActorSystem {
    fn default() -> Self {
        ActorSystem::new()
    }
}

impl ActorSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        ActorSystem {
            shared: Arc::new(Shared {
                workers: Mutex::new(WORKERS, Workers::new()),
                quiescent: Condvar::new(),
                obituary_log: Mutex::new(OBITUARY_LOG, VecDeque::new()),
                subscribers: Mutex::new(SUBSCRIBERS, Vec::new()),
                injector_installed: AtomicBool::new(false),
                injector: Mutex::new(INJECTOR, None),
            }),
        }
    }

    /// Installs a fault injector consulted before every message delivery
    /// on every actor in this system (including actors spawned earlier).
    /// Passing a new injector replaces the previous one.
    pub fn install_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        self.shared.set_injector(Some(injector));
    }

    /// Removes the installed fault injector, restoring normal delivery.
    pub fn clear_fault_injector(&self) {
        self.shared.set_injector(None);
    }

    /// Spawns an actor and returns its reference. The actor has a thread
    /// to itself for as long as it lives: a parked worker's if one is
    /// idle, a new one otherwise.
    ///
    /// The actor processes its mailbox strictly sequentially. Panics in
    /// handlers are caught and published as [`Obituary`] notices rather
    /// than taking down the process (Sec. 4.4: "in all failure cases the
    /// system will continue to make progress").
    pub fn spawn<A: Actor>(&self, name: impl Into<String>, actor: A) -> ActorRef<A::Msg> {
        let name: Arc<str> = Arc::from(name.into());
        let (tx, rx) = unbounded::<A::Msg>();
        let sender = Arc::new(tx);
        let actor_ref = ActorRef {
            sender: sender.clone(),
            name: name.clone(),
        };
        let mut ctx = Context {
            self_sender: Arc::downgrade(&sender),
            name: name.clone(),
            system: self.clone(),
        };
        drop(sender);
        let shared = Arc::clone(&self.shared);
        self.shared.run_on_worker(Box::new(move || {
            let mut actor = actor;
            // Lock-audit reports name the actor, not the borrowed thread.
            fl_race::set_thread_label(Some(name.clone()));
            let reason = run(&mut actor, &mut ctx, &rx, &shared);
            shared.worker_idle();
            shared.publish(Obituary {
                name: name.to_string(),
                reason,
            });
        }));
        actor_ref
    }

    /// Subscribes to obituaries: every actor that stops (normally or by
    /// panic) publishes a notice. Each call returns a **private** channel
    /// that first replays the last [`OBITUARY_RING`] obituaries, then
    /// receives future ones — concurrent subscribers (e.g. two
    /// `watch_and_respawn` watchers) each see every notice published
    /// while they exist and can never steal notices from one another.
    pub fn deaths(&self) -> Receiver<Obituary> {
        let (tx, rx) = unbounded();
        // Lock order: obituary_log (rank 10), then subscribers (rank
        // 12) — same as `publish`. Registration happens while the log
        // lock is held, so a death racing with subscription is either
        // replayed or delivered live, never lost and never duplicated.
        let log = self.shared.obituary_log.lock();
        for obit in log.iter() {
            let _ = tx.send(obit.clone());
        }
        // fl-lint: allow(lock-order): nesting is intentional and machine-
        // checked — fl-race enforces rank 10 -> 12 at runtime, and the
        // lock-audit gate asserts the graph stays acyclic.
        self.shared.subscribers.lock().push(tx);
        drop(log);
        rx
    }

    /// Waits until no actor is alive (every obituary is published), then
    /// retires the worker threads; the system can spawn again afterwards.
    /// Call after dropping/stopping the actors' references.
    pub fn join(&self) {
        let retired = {
            let mut workers = self.shared.workers.lock();
            while workers.idle < workers.handles.len() {
                self.shared.quiescent.wait(&mut workers);
            }
            std::mem::replace(&mut *workers, Workers::new())
        };
        drop(retired.jobs);
        for handle in retired.handles {
            let _ = handle.join();
        }
    }

    /// Worker threads this system holds right now, running an actor or
    /// parked: at most the peak number of actors alive at once since the
    /// last [`ActorSystem::join`].
    pub fn worker_threads(&self) -> usize {
        self.shared.workers.lock().handles.len()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Test scaffolding locks are innermost: nothing is acquired while
    /// one is held, so they rank above every runtime site.
    const SCAFFOLD: Site = Site::new("test/system.scaffold", 240);

    struct Adder {
        total: Arc<AtomicU64>,
    }

    impl Actor for Adder {
        type Msg = u64;
        fn handle(&mut self, msg: u64, _ctx: &mut Context<u64>) -> Flow {
            if msg == 0 {
                return Flow::Stop;
            }
            self.total.fetch_add(msg, Ordering::SeqCst);
            Flow::Continue
        }
    }

    #[test]
    fn actor_processes_messages_sequentially() {
        let system = ActorSystem::new();
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn("adder", Adder { total: total.clone() });
        for i in 1..=100 {
            r.send(i).unwrap();
        }
        r.send(0).unwrap(); // stop
        system.join();
        assert_eq!(total.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn mailbox_close_stops_actor() {
        let system = ActorSystem::new();
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn("adder", Adder { total: total.clone() });
        r.send(7).unwrap();
        drop(r);
        system.join();
        assert_eq!(total.load(Ordering::SeqCst), 7);
        let death = system.deaths().try_recv().unwrap();
        assert_eq!(death.name, "adder");
        assert_eq!(death.reason, DeathReason::Normal);
    }

    struct Bomb;
    impl Actor for Bomb {
        type Msg = ();
        fn handle(&mut self, _msg: (), _ctx: &mut Context<()>) -> Flow {
            panic!("boom");
        }
    }

    #[test]
    fn panics_become_obituaries_not_aborts() {
        let system = ActorSystem::new();
        let r = system.spawn("bomb", Bomb);
        r.send(()).unwrap();
        system.join();
        let death = system.deaths().try_recv().unwrap();
        assert_eq!(death.name, "bomb");
        assert_eq!(death.reason, DeathReason::Panicked("boom".into()));
    }

    struct Spawner;
    impl Actor for Spawner {
        type Msg = Arc<AtomicU64>;
        fn handle(&mut self, total: Arc<AtomicU64>, ctx: &mut Context<Self::Msg>) -> Flow {
            // Dynamically create a child actor (Sec. 4.1).
            let child = ctx.system().spawn("child", Adder { total });
            child.send(42).unwrap();
            child.send(0).unwrap();
            Flow::Stop
        }
    }

    #[test]
    fn actors_can_spawn_actors() {
        let system = ActorSystem::new();
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn("spawner", Spawner);
        r.send(total.clone()).unwrap();
        system.join();
        assert_eq!(total.load(Ordering::SeqCst), 42);
    }

    struct ChildSpawner;
    impl Actor for ChildSpawner {
        type Msg = Arc<AtomicU64>;
        fn handle(&mut self, total: Arc<AtomicU64>, ctx: &mut Context<Self::Msg>) -> Flow {
            let child = ctx.spawn_child("worker", Adder { total });
            child.send(9).unwrap();
            child.send(0).unwrap();
            Flow::Stop
        }
    }

    #[test]
    fn spawn_child_nests_the_obituary_name() {
        let system = ActorSystem::new();
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn("parent", ChildSpawner);
        r.send(total.clone()).unwrap();
        drop(r);
        system.join();
        assert_eq!(total.load(Ordering::SeqCst), 9);
        let names: Vec<String> = system.deaths().try_iter().map(|o| o.name).collect();
        assert!(names.contains(&"parent".to_string()), "{names:?}");
        assert!(names.contains(&"parent/worker".to_string()), "{names:?}");
    }

    #[test]
    fn every_subscriber_sees_every_obituary() {
        let system = ActorSystem::new();
        // Two subscribers registered before any deaths.
        let sub_a = system.deaths();
        let sub_b = system.deaths();
        let r1 = system.spawn("one", Bomb);
        let r2 = system.spawn("two", Bomb);
        r1.send(()).unwrap();
        r2.send(()).unwrap();
        system.join();
        for sub in [&sub_a, &sub_b] {
            let mut names: Vec<String> = sub.try_iter().map(|o| o.name).collect();
            names.sort();
            assert_eq!(names, vec!["one", "two"]);
        }
        // A late subscriber gets the replay.
        let late = system.deaths();
        assert_eq!(late.try_iter().count(), 2);
    }

    #[test]
    fn a_late_subscriber_replays_only_the_newest_ring_full() {
        let system = ActorSystem::new();
        let early = system.deaths();
        let deaths = OBITUARY_RING + 3;
        let name = |i: usize| format!("actor-{i}");
        for i in 0..deaths {
            let r = system.spawn(name(i), Adder { total: Arc::new(AtomicU64::new(0)) });
            r.send(0).unwrap();
            // One death at a time, so publication order is spawn order;
            // the subscriber from before the first death sees every one.
            let obit = early.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
            assert_eq!(obit.name, name(i));
        }
        system.join();
        assert!(early.try_recv().is_err(), "an obituary was delivered twice");
        let late: Vec<String> = system.deaths().try_iter().map(|o| o.name).collect();
        let newest: Vec<String> = (deaths - OBITUARY_RING..deaths).map(name).collect();
        assert_eq!(late, newest);
    }

    #[test]
    fn injected_crash_on_nth_message_is_deterministic() {
        let system = ActorSystem::new();
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new().with("victim", 3, FaultAction::Crash),
        ));
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn("victim", Adder { total: total.clone() });
        for i in 1..=5 {
            r.send(i).unwrap();
        }
        drop(r);
        system.join();
        // Messages 1 and 2 were handled; 3 crashed the actor.
        assert_eq!(total.load(Ordering::SeqCst), 3);
        let obit = system.deaths().try_recv().unwrap();
        assert_eq!(obit.name, "victim");
        assert!(matches!(obit.reason, DeathReason::Panicked(_)));
    }

    #[test]
    fn injected_drop_loses_exactly_that_message() {
        let system = ActorSystem::new();
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new().with("lossy", 2, FaultAction::Drop),
        ));
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn("lossy", Adder { total: total.clone() });
        for i in [10u64, 100, 1] {
            r.send(i).unwrap();
        }
        r.send(0).unwrap();
        system.join();
        // The 2nd message (100) was dropped.
        assert_eq!(total.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn injected_delay_requeues_message() {
        let system = ActorSystem::new();
        // Delay the 1st message: it is re-enqueued behind the others.
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new().with("slow", 1, FaultAction::Delay),
        ));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(SCAFFOLD, Vec::new()));
        let r = system.spawn("slow", Recorder { order: order.clone() });
        r.send(7).unwrap();
        r.send(8).unwrap();
        r.send(0).unwrap();
        system.join();
        // Message 7 was delayed behind 8 and 0; the stop fires before the
        // requeued 7 is handled, so only 8 is recorded.
        assert_eq!(order.lock().clone(), vec![8]);
    }

    struct Recorder {
        order: Arc<Mutex<Vec<u64>>>,
    }
    impl Actor for Recorder {
        type Msg = u64;
        fn handle(&mut self, msg: u64, _ctx: &mut Context<u64>) -> Flow {
            if msg == 0 {
                return Flow::Stop;
            }
            self.order.lock().push(msg);
            Flow::Continue
        }
    }

    /// A recorder that blocks in `on_start` until released, so a test
    /// can fill the mailbox before the first message is pulled, and
    /// acknowledges every handled message.
    struct GatedRecorder {
        order: Arc<Mutex<Vec<u64>>>,
        gate: Receiver<()>,
        ack: Sender<u64>,
    }
    impl Actor for GatedRecorder {
        type Msg = u64;
        fn on_start(&mut self, _ctx: &mut Context<u64>) {
            let _ = self
                .gate
                .recv_timeout(std::time::Duration::from_secs(10));
        }
        fn handle(&mut self, msg: u64, _ctx: &mut Context<u64>) -> Flow {
            if msg == 0 {
                return Flow::Stop;
            }
            self.order.lock().push(msg);
            let _ = self.ack.send(msg);
            Flow::Continue
        }
    }

    #[test]
    fn injected_reorder_permutes_without_losing() {
        let system = ActorSystem::new();
        // Reorder the 1st message: it is re-enqueued behind the others
        // but — unlike Delay — still delivered.
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new().with("shuffled", 1, FaultAction::Reorder),
        ));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(SCAFFOLD, Vec::new()));
        let (gate_tx, gate_rx) = unbounded();
        let (ack_tx, ack_rx) = unbounded();
        let r = system.spawn(
            "shuffled",
            GatedRecorder {
                order: order.clone(),
                gate: gate_rx,
                ack: ack_tx,
            },
        );
        r.send(7).unwrap();
        r.send(8).unwrap();
        gate_tx.send(()).unwrap();
        // Hold `r` until both messages are acknowledged, so the requeue
        // path sees a live external sender.
        for _ in 0..2 {
            ack_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap();
        }
        drop(r);
        system.join();
        // Mailbox was [7, 8] at release; 7 was re-enqueued behind 8.
        assert_eq!(order.lock().clone(), vec![8, 7]);
    }

    #[test]
    fn ten_thousand_ephemeral_actors_borrow_a_bounded_number_of_threads() {
        const SPAWNS: usize = 10_000;
        const ALIVE: usize = 4;
        let system = ActorSystem::new();
        let deaths = system.deaths();
        let total = Arc::new(AtomicU64::new(0));
        let mut died = Vec::with_capacity(SPAWNS);
        let mut threads_held = 0;
        for i in 0..SPAWNS {
            // Bound the actors alive by waiting for an obituary; its
            // worker is counted idle before publishing it, so the bound
            // on actors is the bound on threads.
            if i - died.len() == ALIVE {
                died.push(deaths.recv_timeout(std::time::Duration::from_secs(30)).unwrap());
            }
            let r = system.spawn(format!("ephemeral-{i}"), Adder { total: total.clone() });
            r.send(1).unwrap();
            r.send(0).unwrap();
            threads_held = threads_held.max(system.worker_threads());
        }
        system.join();
        died.extend(deaths.try_iter());
        assert!(threads_held <= ALIVE, "{threads_held} worker threads held");
        assert_eq!(total.load(Ordering::SeqCst), SPAWNS as u64);
        assert!(died.iter().all(|o| o.reason == DeathReason::Normal));
        let mut names: Vec<String> = died.into_iter().map(|o| o.name).collect();
        names.sort();
        let mut expected: Vec<String> = (0..SPAWNS).map(|i| format!("ephemeral-{i}")).collect();
        expected.sort();
        assert_eq!(names, expected);
    }

    /// Reports the thread it runs on and how many fl-race locks that
    /// thread holds, then does what its one message says.
    struct Probe {
        report: Sender<(std::thread::ThreadId, usize)>,
    }
    impl Actor for Probe {
        type Msg = bool;
        fn on_start(&mut self, _ctx: &mut Context<bool>) {
            let _ = self
                .report
                .send((std::thread::current().id(), fl_race::held_locks()));
        }
        fn handle(&mut self, panic_holding_a_lock: bool, _ctx: &mut Context<bool>) -> Flow {
            if panic_holding_a_lock {
                let lock = Mutex::new(SCAFFOLD, ());
                let _held = lock.lock();
                panic!("boom while holding {}", fl_race::held_locks());
            }
            Flow::Stop
        }
    }

    #[test]
    fn a_panicked_actors_worker_is_reused_with_a_clean_slate() {
        let system = ActorSystem::new();
        let deaths = system.deaths();
        let (report, reports) = unbounded();
        let bomb = system.spawn("bomb", Probe { report: report.clone() });
        bomb.send(true).unwrap();
        let death = deaths.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        assert_eq!(death.name, "bomb");
        assert_eq!(death.reason, DeathReason::Panicked("boom while holding 1".into()));
        let next = system.spawn("next", Probe { report });
        next.send(false).unwrap();
        system.join();
        let (bomb_thread, _) = reports.recv().unwrap();
        let (next_thread, next_held) = reports.recv().unwrap();
        assert_eq!(next_thread, bomb_thread, "the parked worker was not reused");
        assert_eq!(next_held, 0, "the panicked actor's lock leaked to the next one");
        let last = deaths.try_iter().last().unwrap();
        assert_eq!((last.name.as_str(), last.reason), ("next", DeathReason::Normal));
    }

    #[test]
    fn join_returns_after_every_obituary_and_the_system_spawns_again() {
        let system = ActorSystem::new();
        let total = Arc::new(AtomicU64::new(0));
        let refs: Vec<_> = (0..8)
            .map(|i| system.spawn(format!("first-{i}"), Adder { total: total.clone() }))
            .collect();
        assert_eq!(system.worker_threads(), 8);
        for r in &refs {
            r.send(1).unwrap();
        }
        drop(refs);
        system.join();
        // No waiting: everything `join` waited for is already in the log.
        assert_eq!(system.deaths().try_iter().count(), 8);
        assert_eq!(system.worker_threads(), 0);

        let r = system.spawn("second", Adder { total: total.clone() });
        r.send(1).unwrap();
        drop(r);
        system.join();
        assert_eq!(total.load(Ordering::SeqCst), 9);
        assert_eq!(system.deaths().try_iter().last().unwrap().name, "second");
    }

    #[test]
    fn an_injector_installed_after_spawn_reaches_the_running_actor() {
        let system = ActorSystem::new();
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(SCAFFOLD, Vec::new()));
        let (gate_tx, gate_rx) = unbounded();
        let (ack_tx, ack_rx) = unbounded();
        let r = system.spawn(
            "late",
            GatedRecorder {
                order: order.clone(),
                gate: gate_rx,
                ack: ack_tx,
            },
        );
        gate_tx.send(()).unwrap();
        // The first delivery happens with nothing installed.
        r.send(7).unwrap();
        assert_eq!(ack_rx.recv_timeout(std::time::Duration::from_secs(30)), Ok(7));
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new().with("late", 2, FaultAction::Drop),
        ));
        r.send(8).unwrap();
        r.send(9).unwrap();
        assert_eq!(ack_rx.recv_timeout(std::time::Duration::from_secs(30)), Ok(9));
        system.clear_fault_injector();
        r.send(10).unwrap();
        drop(r);
        system.join();
        assert_eq!(order.lock().clone(), vec![7, 9, 10]);
    }

    /// What an [`Alarm`] saw, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        Msg(u64),
        Deadline,
        Stopped,
    }

    /// Holds in `on_start` until its gate opens, so a test can queue
    /// messages first; then reports every message, its one deadline
    /// (after which it has none) and its stop.
    struct Alarm {
        at: Option<std::time::Instant>,
        then: Flow,
        gate: Receiver<()>,
        seen: Sender<Seen>,
    }
    impl Actor for Alarm {
        type Msg = u64;
        fn on_start(&mut self, _ctx: &mut Context<u64>) {
            let _ = self.gate.recv_timeout(std::time::Duration::from_secs(10));
        }
        fn handle(&mut self, msg: u64, _ctx: &mut Context<u64>) -> Flow {
            let _ = self.seen.send(Seen::Msg(msg));
            Flow::Continue
        }
        fn deadline(&self) -> Option<std::time::Instant> {
            self.at
        }
        fn on_deadline(&mut self, _ctx: &mut Context<u64>) -> Flow {
            self.at = None;
            let _ = self.seen.send(Seen::Deadline);
            self.then
        }
        fn on_stop(&mut self) {
            let _ = self.seen.send(Seen::Stopped);
        }
    }

    /// Spawns an [`Alarm`] named `name` due `after` from now that does
    /// `then` at its deadline; returns its ref, gate and reports.
    fn alarm(
        system: &ActorSystem,
        name: &str,
        after: std::time::Duration,
        then: Flow,
    ) -> (ActorRef<u64>, Sender<()>, Receiver<Seen>) {
        let (gate_tx, gate) = unbounded();
        let (seen, seen_rx) = unbounded();
        let at = Some(std::time::Instant::now() + after);
        let r = system.spawn(name, Alarm { at, then, gate, seen });
        (r, gate_tx, seen_rx)
    }

    fn next(seen: &Receiver<Seen>) -> Seen {
        seen.recv_timeout(std::time::Duration::from_secs(10)).unwrap()
    }

    #[test]
    fn on_deadline_fires_once_past_the_deadline() {
        let system = ActorSystem::new();
        let after = std::time::Duration::from_millis(20);
        let started = std::time::Instant::now();
        let (r, gate, seen) = alarm(&system, "alarm", after, Flow::Continue);
        gate.send(()).unwrap();
        assert_eq!(next(&seen), Seen::Deadline);
        assert!(started.elapsed() >= after, "fired early");
        r.send(7).unwrap();
        assert_eq!(next(&seen), Seen::Msg(7));
        drop(r);
        system.join();
        assert_eq!(seen.try_iter().collect::<Vec<_>>(), vec![Seen::Stopped]);
    }

    #[test]
    fn a_message_that_arrives_first_is_handled_first() {
        let system = ActorSystem::new();
        // Due at once, but two messages are queued before the first wait.
        let (r, gate, seen) = alarm(&system, "alarm", std::time::Duration::ZERO, Flow::Continue);
        r.send(1).unwrap();
        r.send(2).unwrap();
        gate.send(()).unwrap();
        let order: Vec<Seen> = (0..3).map(|_| next(&seen)).collect();
        assert_eq!(order, vec![Seen::Msg(1), Seen::Msg(2), Seen::Deadline]);
        drop(r);
        system.join();
        assert_eq!(seen.try_iter().collect::<Vec<_>>(), vec![Seen::Stopped]);
    }

    #[test]
    fn stop_from_on_deadline_runs_on_stop() {
        let system = ActorSystem::new();
        let (r, gate, seen) = alarm(&system, "alarm", std::time::Duration::ZERO, Flow::Stop);
        gate.send(()).unwrap();
        // The reference is still held: the deadline alone stopped it.
        system.join();
        assert_eq!(seen.try_iter().collect::<Vec<_>>(), vec![Seen::Deadline, Seen::Stopped]);
        assert_eq!(system.deaths().try_recv().unwrap().reason, DeathReason::Normal);
        drop(r);
    }

    #[test]
    fn a_deadline_is_not_a_delivery_to_the_fault_injector() {
        let system = ActorSystem::new();
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new().with("alarm", 2, FaultAction::Crash),
        ));
        let (r, gate, seen) = alarm(&system, "alarm", std::time::Duration::ZERO, Flow::Continue);
        gate.send(()).unwrap();
        assert_eq!(next(&seen), Seen::Deadline);
        r.send(1).unwrap();
        r.send(2).unwrap();
        r.send(3).unwrap();
        drop(r);
        system.join();
        // Message 1 was delivered; message 2, not 1, crashed the actor.
        assert_eq!(seen.try_iter().collect::<Vec<_>>(), vec![Seen::Msg(1)]);
        let obit = system.deaths().try_recv().unwrap();
        assert!(matches!(obit.reason, DeathReason::Panicked(_)));
    }

    #[test]
    fn reorder_on_draining_mailbox_delivers_in_place() {
        let system = ActorSystem::new();
        system.install_fault_injector(Arc::new(
            ScriptedFaults::new().with("draining", 1, FaultAction::Reorder),
        ));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(SCAFFOLD, Vec::new()));
        let (gate_tx, gate_rx) = unbounded();
        let (ack_tx, _ack_rx) = unbounded();
        let r = system.spawn(
            "draining",
            GatedRecorder {
                order: order.clone(),
                gate: gate_rx,
                ack: ack_tx,
            },
        );
        r.send(7).unwrap();
        drop(r); // no external sender left when the actor starts pulling
        gate_tx.send(()).unwrap();
        system.join();
        // Delay would have dropped 7 here; Reorder delivers it in place.
        assert_eq!(order.lock().clone(), vec![7]);
    }
}
