//! The [`ActorSystem`]: spawning, scheduling, death notification,
//! shutdown, and deterministic fault injection.
//!
//! Actors run on W worker threads, W being
//! `std::thread::available_parallelism()`, fed by one run queue (the
//! workspace's channel). An actor owns no thread: it is a mailbox, a
//! "scheduled" flag and its state. A send, or the drop of its last
//! reference, that finds the actor idle sets the flag and queues the
//! actor. A worker takes it and gives it a turn: `on_start` the first
//! time, then up to `BATCH` (64) messages, and [`Actor::on_deadline`] when
//! the mailbox is empty and the deadline has passed. An actor with more
//! waiting goes to the back of the queue; one without clears its flag.
//! So an actor is on one worker at a time and handles its stream strictly
//! in order (Sec. 4.1), and a handler must not block waiting for another
//! actor: an answer comes back as a message ([`crate::Reply`]).
//!
//! Every actor's [`Actor::deadline`] is an entry in one ordered timer set.
//! A worker with nothing to run waits on the queue until the earliest
//! one, and a busy worker looks at the set's head between turns. So a
//! system holds W workers however many actors are alive or were ever
//! spawned (Sec. 4.2: a Master Aggregator and its shards exist per round),
//! and `spawn` starts no thread. The workers last as long as the system:
//! dropping its last handle retires them.

use crate::actor::{Actor, ActorRef, Context, Flow, Mailbox};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use fl_race::{Condvar, Mutex, Site};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Lock sites, in rank order (see the table in DESIGN.md §7). The only
// nesting in this module is obituary_log -> subscribers, so those two
// ranks are adjacent; the rest are leaves.
const ACTOR: Site = Site::new("actors/system.actor", 5);
const OBITUARY_LOG: Site = Site::new("actors/system.obituary_log", 10);
const SUBSCRIBERS: Site = Site::new("actors/system.subscribers", 12);
const WORKERS: Site = Site::new("actors/system.workers", 20);
const TIMERS: Site = Site::new("actors/system.timers", 21);
const INJECTOR: Site = Site::new("actors/system.injector", 22);

/// Messages an actor handles in one turn before it goes to the back of
/// the run queue, so one busy mailbox cannot hold a worker.
const BATCH: usize = 64;

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
    // fl-lint: allow(test-only-pub): the scripted crashes of fl-actors' and fl-server's live tests
    pub fn new() -> Self {
        ScriptedFaults::default()
    }

    /// Adds one scripted action: the `nth` (1-based) message delivered to
    /// `actor` gets `action`.
    #[must_use]
    // fl-lint: allow(test-only-pub): the scripted crashes of fl-actors' and fl-server's live tests
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

/// What the run queue carries.
pub(crate) enum Job {
    /// An actor to give a turn.
    Run(Arc<dyn Task>),
    /// The timer set's head moved earlier: a waiting worker re-reads it.
    Timers,
    /// The system's last handle is gone: the worker exits.
    Retire,
}

/// An actor as the run queue sees it.
pub(crate) trait Task: Send + Sync {
    /// Set while the actor is queued or on a worker.
    fn scheduled(&self) -> &AtomicBool;
    /// The run queue the actor goes on.
    fn queue(&self) -> &Sender<Job>;
    /// Gives the actor one turn on the calling worker; `true` when it
    /// has more waiting and must go back on the queue.
    fn turn(&self, me: &Arc<dyn Task>, shared: &Shared) -> bool;
}

/// Queues `task` unless it is queued or running already.
pub(crate) fn wake(task: &Arc<dyn Task>) {
    if !task.scheduled().swap(true, Ordering::SeqCst) {
        // Fails only once the workers are gone, with the actor dead.
        let _ = task.queue().send(Job::Run(Arc::clone(task)));
    }
}

/// The wall clock the timer set runs on.
fn now() -> Instant {
    // fl-lint: allow(wall-clock): live actors' deadlines are wall-clock
    // instants; the deterministic state machines see only offsets.
    Instant::now()
}

/// An actor's entry in the timer set: its deadline, and the address of
/// its cell, which tells two equal deadlines apart.
type TimerKey = (Instant, usize);

type Timers = BTreeMap<TimerKey, Weak<dyn Task>>;

/// One spawned actor: its flag, and its state between turns.
struct Cell<A: Actor> {
    scheduled: AtomicBool,
    queue: Sender<Job>,
    /// A worker takes the state out for a turn and puts it back, so this
    /// lock is never held across a hook. `None` while on a worker and
    /// once dead.
    live: Mutex<Option<Live<A>>>,
}

struct Live<A: Actor> {
    actor: A,
    ctx: Context<A::Msg>,
    rx: Receiver<A::Msg>,
    /// Messages pulled from the mailbox so far: the fault injector's `seq`.
    seq: u64,
    started: bool,
    timer: Option<TimerKey>,
}

/// How a turn ended.
enum Turn {
    /// [`BATCH`] messages handled; more may be waiting.
    Busy,
    /// The mailbox is empty; wake at the deadline, if any.
    Idle(Option<Instant>),
    /// `on_stop` has run.
    Stopped,
}

impl<A: Actor> Live<A> {
    /// Whether a turn would find something: a message, or a mailbox no
    /// reference is left to.
    fn ready(&self) -> bool {
        !self.rx.is_empty() || self.ctx.self_sender.strong_count() == 0
    }

    fn run(&mut self, shared: &Shared) -> Turn {
        if !self.started {
            self.started = true;
            self.actor.on_start(&mut self.ctx);
        }
        for _ in 0..BATCH {
            // Read before the receive: with no reference left, nothing
            // more can arrive, so an empty mailbox is a drained one.
            let closed = self.ctx.self_sender.strong_count() == 0;
            let msg = match self.rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) if !closed => match self.actor.deadline() {
                    Some(at) if at <= now() => match self.actor.on_deadline(&mut self.ctx) {
                        Flow::Continue => continue,
                        Flow::Stop => return self.stop(),
                    },
                    due => return Turn::Idle(due),
                },
                Err(_) => return self.stop(),
            };
            self.seq += 1;
            let action = shared
                .injector()
                .map(|i| i.on_deliver(&self.ctx.name, self.seq))
                .unwrap_or(FaultAction::Deliver);
            match action {
                FaultAction::Deliver => {}
                FaultAction::Drop => continue,
                FaultAction::Delay => {
                    // Push the message to the back of the mailbox; if no
                    // external sender is left the message is dropped
                    // (the actor is draining toward shutdown anyway).
                    if let Some(tx) = self.ctx.self_sender.upgrade() {
                        let _ = tx.send(msg);
                    }
                    continue;
                }
                FaultAction::Reorder => match self.ctx.self_sender.upgrade() {
                    // Re-enqueue behind the pending messages; the send
                    // cannot fail while this actor holds the receiver.
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
            if self.actor.handle(msg, &mut self.ctx) == Flow::Stop {
                return self.stop();
            }
        }
        Turn::Busy
    }

    fn stop(&mut self) -> Turn {
        self.actor.on_stop();
        Turn::Stopped
    }
}

impl<A: Actor> Cell<A> {
    fn take(&self) -> Option<Live<A>> {
        self.live.lock().take()
    }

    fn put(&self, live: Live<A>) {
        *self.live.lock() = Some(live);
    }

    /// Puts the state back after a turn that emptied the mailbox and
    /// clears the flag; `true` when the actor must go back on the queue
    /// at once. A send, the drop of the last reference or a timer that
    /// still found the flag set queued nothing, so the mailbox and the
    /// clock are read again after the flag is clear: a sender and this
    /// look both pass through the mailbox channel's lock, so one of the
    /// two sees the other, and a timer that fired has left `due` behind
    /// the clock.
    fn idle(&self, live: Live<A>, due: Option<Instant>) -> bool {
        let mut slot = self.live.lock();
        let live = slot.insert(live);
        self.scheduled.store(false, Ordering::SeqCst);
        let ready = live.ready() || due.is_some_and(|at| at <= now());
        ready && !self.scheduled.swap(true, Ordering::SeqCst)
    }
}

impl<A: Actor> Task for Cell<A> {
    fn scheduled(&self) -> &AtomicBool {
        &self.scheduled
    }

    fn queue(&self) -> &Sender<Job> {
        &self.queue
    }

    fn turn(&self, me: &Arc<dyn Task>, shared: &Shared) -> bool {
        let Some(mut live) = self.take() else {
            return false;
        };
        // Lock-audit reports name the actor, not the worker.
        fl_race::set_thread_label(Some(live.ctx.name.clone()));
        let turn = std::panic::catch_unwind(AssertUnwindSafe(|| live.run(shared)));
        fl_race::set_thread_label(None);
        let reason = match turn {
            Ok(Turn::Busy) => {
                self.put(live);
                return true;
            }
            Ok(Turn::Idle(due)) => {
                shared.arm(me, &mut live.timer, due);
                return self.idle(live, due);
            }
            Ok(Turn::Stopped) => DeathReason::Normal,
            Err(payload) => DeathReason::Panicked(panic_message(&*payload)),
        };
        // Dead: the flag stays set, so nothing queues the actor again.
        shared.arm(me, &mut live.timer, None);
        let name = live.ctx.name.to_string();
        // The state goes before the obituary, so what the mailbox still
        // held (a reply owed to someone) is answered first. A `Drop`
        // that panics must not take the worker with it.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(move || drop(live)));
        shared.publish(Obituary { name, reason });
        shared.died();
        false
    }
}

/// The worker threads and the count of live actors `join` waits on.
struct Workers {
    alive: usize,
    threads: Vec<JoinHandle<()>>,
}

pub(crate) struct Shared {
    queue: Sender<Job>,
    workers: Mutex<Workers>,
    /// Signalled when the last live actor dies; `join` waits here.
    quiescent: Condvar,
    timers: Mutex<Timers>,
    /// The timer set's head, in nanoseconds after `epoch`, `u64::MAX`
    /// when empty: what a worker reads between turns without the lock.
    head: AtomicU64,
    epoch: Instant,
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

    /// Counts an actor dead once its obituary is out.
    fn died(&self) {
        let mut workers = self.workers.lock();
        workers.alive -= 1;
        if workers.alive == 0 {
            self.quiescent.notify_all();
        }
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

    /// The timer set's head, if any.
    fn head(&self) -> Option<Instant> {
        match self.head.load(Ordering::Acquire) {
            u64::MAX => None,
            nanos => Some(self.epoch + Duration::from_nanos(nanos)),
        }
    }

    /// Stores the set's head; tells a waiting worker when it moved earlier.
    fn set_head(&self, timers: &Timers) {
        let nanos = timers.first_key_value().map_or(u64::MAX, |((at, _), _)| {
            u64::try_from(at.saturating_duration_since(self.epoch).as_nanos())
                .unwrap_or(u64::MAX - 1)
        });
        if nanos < self.head.swap(nanos, Ordering::AcqRel) {
            let _ = self.queue.send(Job::Timers);
        }
    }

    /// Moves an actor's timer-set entry `slot` to `due`.
    fn arm(&self, me: &Arc<dyn Task>, slot: &mut Option<TimerKey>, due: Option<Instant>) {
        if slot.map(|(at, _)| at) == due {
            return;
        }
        let mut timers = self.timers.lock();
        if let Some(key) = slot.take() {
            timers.remove(&key);
        }
        if let Some(at) = due {
            let key = (at, Arc::as_ptr(me).cast::<()>() as usize);
            timers.insert(key, Arc::downgrade(me));
            *slot = Some(key);
        }
        self.set_head(&timers);
    }

    /// Wakes every actor whose deadline has passed, one at a time so
    /// that no task is dropped under the lock.
    fn fire(&self) {
        loop {
            let task = {
                let mut timers = self.timers.lock();
                let due = timers.first_entry().filter(|e| e.key().0 <= now());
                let task = due.map(|e| e.remove());
                self.set_head(&timers);
                task
            };
            match task {
                Some(task) => {
                    if let Some(task) = task.upgrade() {
                        wake(&task);
                    }
                }
                None => return,
            }
        }
    }
}

/// A worker: runs the turns the queue hands it and wakes actors whose
/// deadlines have passed, until the system retires it.
fn work(shared: &Shared, jobs: &Receiver<Job>) {
    loop {
        let head = shared.head();
        if head.is_some_and(|at| at <= now()) {
            shared.fire();
            continue;
        }
        let job = match head {
            Some(at) => jobs.recv_deadline(at),
            None => jobs.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match job {
            Ok(Job::Run(task)) => {
                if task.turn(&task, shared) {
                    let _ = shared.queue.send(Job::Run(task));
                }
            }
            Ok(Job::Timers) | Err(RecvTimeoutError::Timeout) => {}
            Ok(Job::Retire) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// What every clone of an [`ActorSystem`] shares; its drop retires the
/// workers. Live actors hold one through their [`Context`], so it drops
/// only once every actor is dead and every outside handle gone.
struct Handle {
    shared: Arc<Shared>,
}

impl Drop for Handle {
    fn drop(&mut self) {
        let threads = std::mem::take(&mut self.shared.workers.lock().threads);
        for _ in &threads {
            let _ = self.shared.queue.send(Job::Retire);
        }
    }
}

/// A handle to the actor system. Cloning is cheap; all clones refer to the
/// same system.
#[derive(Clone)]
pub struct ActorSystem {
    handle: Arc<Handle>,
}

impl Default for ActorSystem {
    fn default() -> Self {
        ActorSystem::new()
    }
}

impl ActorSystem {
    /// Creates an empty system and starts its W workers.
    pub fn new() -> Self {
        let (queue, jobs) = unbounded();
        let shared = Arc::new(Shared {
            queue,
            workers: Mutex::new(
                WORKERS,
                Workers {
                    alive: 0,
                    threads: Vec::new(),
                },
            ),
            quiescent: Condvar::new(),
            timers: Mutex::new(TIMERS, BTreeMap::new()),
            head: AtomicU64::new(u64::MAX),
            epoch: now(),
            obituary_log: Mutex::new(OBITUARY_LOG, VecDeque::new()),
            subscribers: Mutex::new(SUBSCRIBERS, Vec::new()),
            injector_installed: AtomicBool::new(false),
            injector: Mutex::new(INJECTOR, None),
        });
        let w = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = (0..w)
            .map(|i| {
                let (shared, jobs) = (Arc::clone(&shared), jobs.clone());
                std::thread::Builder::new()
                    .name(format!("actor-worker-{i}"))
                    .spawn(move || work(&shared, &jobs))
                    // fl-lint: allow(unwrap): spawn failure here means the OS refused a
                    // thread; the actor system cannot run at all, so abort loudly.
                    .expect("failed to spawn actor worker")
            })
            .collect();
        shared.workers.lock().threads = threads;
        ActorSystem {
            handle: Arc::new(Handle { shared }),
        }
    }

    fn shared(&self) -> &Shared {
        &self.handle.shared
    }

    /// Installs a fault injector consulted before every message delivery
    /// on every actor in this system (including actors spawned earlier).
    /// Passing a new injector replaces the previous one.
    pub fn install_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        self.shared().set_injector(Some(injector));
    }

    /// Removes the installed fault injector, restoring normal delivery.
    // fl-lint: allow(test-only-pub): ends the drills of tests/failure_recovery.rs, multi_tenant.rs
    pub fn clear_fault_injector(&self) {
        self.shared().set_injector(None);
    }

    /// Spawns an actor and returns its reference. No thread starts: the
    /// actor is queued for its `on_start` and runs on the system's
    /// workers from then on.
    ///
    /// The actor processes its mailbox strictly sequentially. Panics in
    /// handlers are caught and published as [`Obituary`] notices rather
    /// than taking down the process (Sec. 4.4: "in all failure cases the
    /// system will continue to make progress").
    pub fn spawn<A: Actor>(&self, name: impl Into<String>, actor: A) -> ActorRef<A::Msg> {
        let name: Arc<str> = Arc::from(name.into());
        let (tx, rx) = unbounded::<A::Msg>();
        let queue = self.shared().queue.clone();
        let sender = Arc::new_cyclic(|me: &Weak<Mailbox<A::Msg>>| {
            let live = Live {
                actor,
                ctx: Context {
                    self_sender: me.clone(),
                    name: name.clone(),
                    system: self.clone(),
                },
                rx,
                seq: 0,
                started: false,
                timer: None,
            };
            let cell: Arc<dyn Task> = Arc::new(Cell {
                scheduled: AtomicBool::new(false),
                queue,
                live: Mutex::new(ACTOR, Some(live)),
            });
            Mailbox::new(tx, Some(cell))
        });
        self.shared().workers.lock().alive += 1;
        // Queued once for `on_start`, message or not.
        sender.wake();
        ActorRef { sender, name }
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
        let log = self.shared().obituary_log.lock();
        for obit in log.iter() {
            let _ = tx.send(obit.clone());
        }
        // fl-lint: allow(lock-order): nesting is intentional and machine-
        // checked — fl-race enforces rank 10 -> 12 at runtime, and the
        // lock-audit gate asserts the graph stays acyclic.
        self.shared().subscribers.lock().push(tx);
        drop(log);
        rx
    }

    /// Waits until no actor is alive: every actor spawned has stopped and
    /// its obituary is published. The system can spawn again afterwards.
    /// Call after dropping/stopping the actors' references.
    pub fn join(&self) {
        let mut workers = self.shared().workers.lock();
        while workers.alive > 0 {
            self.shared().quiescent.wait(&mut workers);
        }
    }

    /// Worker threads this system holds: W, whatever the number of
    /// actors alive, from `new` until its last handle is dropped.
    // fl-lint: allow(test-only-pub): the W-worker checks of fl-actors' and fl-server's tests
    pub fn worker_threads(&self) -> usize {
        self.shared().workers.lock().threads.len()
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
        let r = system.spawn(
            "adder",
            Adder {
                total: total.clone(),
            },
        );
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
        let r = system.spawn(
            "adder",
            Adder {
                total: total.clone(),
            },
        );
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
            let child = ctx.spawn_child("child", Adder { total });
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
            let r = system.spawn(
                name(i),
                Adder {
                    total: Arc::new(AtomicU64::new(0)),
                },
            );
            r.send(0).unwrap();
            // One death at a time, so publication order is spawn order;
            // the subscriber from before the first death sees every one.
            let obit = early
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap();
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
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "victim",
            3,
            FaultAction::Crash,
        )));
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn(
            "victim",
            Adder {
                total: total.clone(),
            },
        );
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
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "lossy",
            2,
            FaultAction::Drop,
        )));
        let total = Arc::new(AtomicU64::new(0));
        let r = system.spawn(
            "lossy",
            Adder {
                total: total.clone(),
            },
        );
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
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "slow",
            1,
            FaultAction::Delay,
        )));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(SCAFFOLD, Vec::new()));
        let r = system.spawn(
            "slow",
            Recorder {
                order: order.clone(),
            },
        );
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
            let _ = self.gate.recv_timeout(std::time::Duration::from_secs(10));
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
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "shuffled",
            1,
            FaultAction::Reorder,
        )));
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

    /// The worker count every system holds.
    fn w() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    #[test]
    fn ten_thousand_ephemeral_actors_borrow_a_bounded_number_of_threads() {
        const SPAWNS: usize = 10_000;
        const ALIVE: usize = 4;
        let system = ActorSystem::new();
        let deaths = system.deaths();
        let total = Arc::new(AtomicU64::new(0));
        let mut died = Vec::with_capacity(SPAWNS);
        let mut threads_held = Vec::new();
        for i in 0..SPAWNS {
            // Bound the actors alive by waiting for an obituary.
            if i - died.len() == ALIVE {
                died.push(
                    deaths
                        .recv_timeout(std::time::Duration::from_secs(30))
                        .unwrap(),
                );
            }
            let r = system.spawn(
                format!("ephemeral-{i}"),
                Adder {
                    total: total.clone(),
                },
            );
            r.send(1).unwrap();
            r.send(0).unwrap();
            threads_held.push(system.worker_threads());
        }
        system.join();
        died.extend(deaths.try_iter());
        assert!(
            threads_held.iter().all(|&n| n == w()),
            "held other than {} workers",
            w()
        );
        assert_eq!(total.load(Ordering::SeqCst), SPAWNS as u64);
        assert!(died.iter().all(|o| o.reason == DeathReason::Normal));
        let mut names: Vec<String> = died.into_iter().map(|o| o.name).collect();
        names.sort();
        let mut expected: Vec<String> = (0..SPAWNS).map(|i| format!("ephemeral-{i}")).collect();
        expected.sort();
        assert_eq!(names, expected);
    }

    /// Reports the thread it runs on and how many fl-race locks that
    /// thread holds once every probe of its barrier has started, then
    /// does what its one message says.
    struct Probe {
        barrier: Option<Arc<std::sync::Barrier>>,
        report: Sender<(std::thread::ThreadId, usize)>,
    }
    impl Actor for Probe {
        type Msg = bool;
        fn on_start(&mut self, _ctx: &mut Context<bool>) {
            if let Some(barrier) = &self.barrier {
                barrier.wait();
            }
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
        let bomb = system.spawn(
            "bomb",
            Probe {
                barrier: None,
                report: report.clone(),
            },
        );
        bomb.send(true).unwrap();
        let death = deaths
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap();
        assert_eq!(death.name, "bomb");
        assert_eq!(
            death.reason,
            DeathReason::Panicked("boom while holding 1".into())
        );
        let (bomb_thread, _) = reports.recv().unwrap();
        // W probes that wait for each other in `on_start` hold all W
        // workers at once, so one of them runs where the bomb went off.
        let barrier = Arc::new(std::sync::Barrier::new(w()));
        let probes: Vec<_> = (0..w())
            .map(|i| {
                let barrier = Some(barrier.clone());
                system.spawn(
                    format!("next-{i}"),
                    Probe {
                        barrier,
                        report: report.clone(),
                    },
                )
            })
            .collect();
        for probe in &probes {
            probe.send(false).unwrap();
        }
        drop(probes);
        system.join();
        let seen: Vec<_> = reports.try_iter().collect();
        let mut threads: Vec<_> = seen.iter().map(|(thread, _)| *thread).collect();
        threads.sort_unstable_by_key(|t| format!("{t:?}"));
        threads.dedup();
        assert_eq!(threads.len(), w(), "the probes did not cover every worker");
        assert!(threads.contains(&bomb_thread));
        assert!(
            seen.iter().all(|&(_, held)| held == 0),
            "the panicked actor's lock leaked to the next one: {seen:?}"
        );
        let last = deaths.try_iter().last().unwrap();
        assert_eq!(last.reason, DeathReason::Normal);
    }

    #[test]
    fn join_returns_after_every_obituary_and_the_system_spawns_again() {
        let system = ActorSystem::new();
        let total = Arc::new(AtomicU64::new(0));
        let refs: Vec<_> = (0..8)
            .map(|i| {
                system.spawn(
                    format!("first-{i}"),
                    Adder {
                        total: total.clone(),
                    },
                )
            })
            .collect();
        assert_eq!(system.worker_threads(), w());
        for r in &refs {
            r.send(1).unwrap();
        }
        drop(refs);
        system.join();
        // No waiting: everything `join` waited for is already in the log.
        assert_eq!(system.deaths().try_iter().count(), 8);
        // The workers outlive `join`; the system's last handle retires them.
        assert_eq!(system.worker_threads(), w());

        let r = system.spawn(
            "second",
            Adder {
                total: total.clone(),
            },
        );
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
        assert_eq!(
            ack_rx.recv_timeout(std::time::Duration::from_secs(30)),
            Ok(7)
        );
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "late",
            2,
            FaultAction::Drop,
        )));
        r.send(8).unwrap();
        r.send(9).unwrap();
        assert_eq!(
            ack_rx.recv_timeout(std::time::Duration::from_secs(30)),
            Ok(9)
        );
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
        let r = system.spawn(
            name,
            Alarm {
                at,
                then,
                gate,
                seen,
            },
        );
        (r, gate_tx, seen_rx)
    }

    fn next(seen: &Receiver<Seen>) -> Seen {
        seen.recv_timeout(std::time::Duration::from_secs(10))
            .unwrap()
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
        assert_eq!(
            seen.try_iter().collect::<Vec<_>>(),
            vec![Seen::Deadline, Seen::Stopped]
        );
        assert_eq!(
            system.deaths().try_recv().unwrap().reason,
            DeathReason::Normal
        );
        drop(r);
    }

    #[test]
    fn a_deadline_is_not_a_delivery_to_the_fault_injector() {
        let system = ActorSystem::new();
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "alarm",
            2,
            FaultAction::Crash,
        )));
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
        system.install_fault_injector(Arc::new(ScriptedFaults::new().with(
            "draining",
            1,
            FaultAction::Reorder,
        )));
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
