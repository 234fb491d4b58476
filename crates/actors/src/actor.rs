//! The [`Actor`] trait, typed [`ActorRef`] handles, and the per-actor
//! [`Context`].

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::fmt;
use std::sync::{Arc, Weak};

/// Whether the actor keeps running after handling a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep processing messages.
    Continue,
    /// Stop; the mailbox is dropped and `on_stop` runs.
    Stop,
}

/// An actor: sequential handler of a typed message stream.
///
/// Actors are driven by the [`crate::system::ActorSystem`]: each has a
/// thread to itself while it lives, pulling messages from its mailbox
/// strictly in order.
pub trait Actor: Send + 'static {
    /// The message type this actor consumes.
    type Msg: Send + 'static;

    /// Handles one message. Returning [`Flow::Stop`] terminates the actor.
    fn handle(&mut self, msg: Self::Msg, ctx: &mut Context<Self::Msg>) -> Flow;

    /// Called once before the first message.
    fn on_start(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// When the actor next wants [`Actor::on_deadline`] called if no
    /// message comes first; asked again before every wait. `None` (the
    /// default) waits for messages only.
    fn deadline(&self) -> Option<std::time::Instant> {
        None
    }

    /// Called once the [`Actor::deadline`] has passed with the mailbox
    /// empty. It is not a delivery: the fault injector does not see it.
    fn on_deadline(&mut self, _ctx: &mut Context<Self::Msg>) -> Flow {
        Flow::Continue
    }

    /// Called when the actor stops normally (not on panic).
    fn on_stop(&mut self) {}
}

/// A cheap, cloneable handle for sending messages to an actor.
pub struct ActorRef<M> {
    pub(crate) sender: Arc<Sender<M>>,
    /// Shared, so cloning a reference allocates nothing.
    pub(crate) name: Arc<str>,
}

impl<M> Clone for ActorRef<M> {
    fn clone(&self) -> Self {
        ActorRef {
            sender: self.sender.clone(),
            name: self.name.clone(),
        }
    }
}

impl<M> fmt::Debug for ActorRef<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ActorRef({})", self.name)
    }
}

/// Error returned when sending to a stopped actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError {
    /// Name of the target actor.
    pub target: String,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor {} is no longer running", self.target)
    }
}

impl std::error::Error for SendError {}

impl<M: Send + 'static> ActorRef<M> {
    /// Sends a message.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if the actor has stopped.
    pub fn send(&self, msg: M) -> Result<(), SendError> {
        self.sender.send(msg).map_err(|_| SendError {
            target: self.name.to_string(),
        })
    }

    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a detached reference/mailbox pair without a running actor —
    /// useful in tests and for adapting external event sources.
    pub fn detached(name: impl Into<String>) -> (ActorRef<M>, Receiver<M>) {
        let (tx, rx) = unbounded();
        (
            ActorRef {
                sender: Arc::new(tx),
                name: Arc::from(name.into()),
            },
            rx,
        )
    }
}

/// Per-actor execution context, passed to every `handle` call.
///
/// The context holds only a *weak* handle to the actor's own mailbox, so
/// an idle actor whose external references have all been dropped shuts
/// down instead of keeping itself alive.
pub struct Context<M> {
    pub(crate) self_sender: Weak<Sender<M>>,
    pub(crate) name: Arc<str>,
    pub(crate) system: crate::system::ActorSystem,
}

impl<M: Send + 'static> Context<M> {
    /// A reference to the actor itself (for self-sends / registration).
    /// Returns `None` if every external reference has been dropped (the
    /// actor is already draining toward shutdown). Note that holding the
    /// returned reference inside the actor keeps its mailbox open.
    pub fn self_ref(&self) -> Option<ActorRef<M>> {
        self.self_sender.upgrade().map(|sender| ActorRef {
            sender,
            name: self.name.clone(),
        })
    }

    /// The actor system, for spawning further actors ("in response to a
    /// message, an actor can […] create more actors dynamically").
    pub fn system(&self) -> &crate::system::ActorSystem {
        &self.system
    }

    /// Spawns a child actor named `"{parent}/{name}"`, making the
    /// supervision tree legible in obituaries: a Master Aggregator named
    /// `coordinator/master-r3` spawns shards `coordinator/master-r3/agg-0`
    /// and so on. The child gets a thread of its own like any other actor;
    /// "child" is purely a naming/lifecycle convention — when the parent
    /// drops the returned reference (including by dying), the child's
    /// mailbox closes and it drains to a normal stop.
    pub fn spawn_child<A: Actor>(&self, name: impl AsRef<str>, actor: A) -> ActorRef<A::Msg> {
        let child_name = format!("{}/{}", self.name, name.as_ref());
        self.system.spawn(child_name, actor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_ref_delivers_in_order() {
        let (r, rx) = ActorRef::<u32>::detached("test");
        r.send(1).unwrap();
        r.send(2).unwrap();
        r.send(3).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert_eq!(rx.try_recv().unwrap(), 3);
    }

    #[test]
    fn send_to_dropped_mailbox_errors() {
        let (r, rx) = ActorRef::<u32>::detached("gone");
        drop(rx);
        let err = r.send(1).unwrap_err();
        assert_eq!(err.target, "gone");
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn refs_are_cloneable_and_debuggable() {
        let (r, _rx) = ActorRef::<()>::detached("a");
        let r2 = r.clone();
        assert_eq!(r2.name(), "a");
        assert!(format!("{r2:?}").contains('a'));
    }
}
