//! The actor abstraction: per-node protocol logic driven by messages and
//! timers.

use std::any::Any;
use std::borrow::Cow;

use bytes::Bytes;
use rand::rngs::StdRng;

use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// A message label for traces and metrics.
///
/// Labels ride on every send, so they must cost nothing on the hot path:
/// a `&'static str` label ("call", "rsp") never allocates. Rich, formatted
/// labels (`"call:mage.find"`) are only worth building when the world is
/// tracing — check [`Context::trace_enabled`] first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label(Cow<'static, str>);

impl Label {
    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Consumes the label, yielding an owned string (no copy for owned
    /// labels, one copy for static ones).
    pub fn into_string(self) -> String {
        self.0.into_owned()
    }
}

impl From<&'static str> for Label {
    fn from(s: &'static str) -> Self {
        Label(Cow::Borrowed(s))
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label(Cow::Owned(s))
    }
}

impl From<Cow<'static, str>> for Label {
    fn from(s: Cow<'static, str>) -> Self {
        Label(s)
    }
}

/// Identifies a pending timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// Identifies a driver-initiated operation whose completion the driver can
/// block on (see [`World::block_on`](crate::World::block_on)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub(crate) u64);

impl OpId {
    /// Raw id, used when embedding the op id inside a command payload.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an op id from its raw form (the inverse of [`OpId::as_raw`]).
    pub const fn from_raw(raw: u64) -> Self {
        OpId(raw)
    }
}

/// Node-local protocol logic.
///
/// Actors never touch the [`World`](crate::World) directly; all effects
/// (sends, timers, op completions) go through the [`Context`], which the
/// scheduler applies after the handler returns. This keeps dispatch
/// deterministic and lets a handler never observe partially applied state.
///
/// Actors are `'static` values (the [`Any`] supertrait): between events
/// the driver can reach a running node's actor by its concrete type with
/// [`World::actor_mut`](crate::World::actor_mut), to change it out of
/// band the way [`World::crash`](crate::World::crash) changes the world.
pub trait Actor: Any {
    /// Called once when the node is added to the world.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called for every message delivered from a peer node.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes);

    /// Called for every payload the experiment driver injects with
    /// [`World::inject`](crate::World::inject).
    ///
    /// The driver shares the actor's process, so its commands arrive as
    /// typed values rather than encoded bytes; the actor downcasts to the
    /// command type it understands.
    fn on_driver(&mut self, _ctx: &mut Context<'_>, _payload: Box<dyn Any>) {}

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
}

/// An effect requested by an actor, applied by the scheduler after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Effect {
    Send {
        to: NodeId,
        label: Label,
        payload: Bytes,
        local_delay: SimDuration,
    },
    SetTimer {
        id: TimerId,
        after: SimDuration,
        tag: u64,
    },
    CancelTimer(TimerId),
    CompleteOp {
        op: OpId,
        result: Box<dyn Any>,
    },
    Note(String),
    Count(&'static str),
}

/// Handle through which an actor interacts with the world during one
/// dispatch.
pub struct Context<'a> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) effects: Vec<Effect>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) trace_on: bool,
    /// Per-node incarnation numbers (bumped on crash), indexed by node id.
    pub(crate) epochs: &'a [u64],
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        node: NodeId,
        now: SimTime,
        rng: &'a mut StdRng,
        next_timer: &'a mut u64,
        trace_on: bool,
        epochs: &'a [u64],
    ) -> Self {
        Context {
            node,
            now,
            effects: Vec::new(),
            rng,
            next_timer,
            trace_on,
            epochs,
        }
    }

    /// The node this actor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether the world is recording a trace.
    ///
    /// Rich message labels (`format!`-built) are only worth their
    /// allocation when this returns `true`; otherwise pass a cheap static
    /// label.
    pub fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    /// This node's own incarnation number (bumped every time it crashes;
    /// see [`World::crash`](crate::World::crash)).
    ///
    /// This models the one piece of incarnation knowledge a real node
    /// legitimately has: its own boot counter, read from stable storage at
    /// startup. Protocol layers stamp it into outgoing messages so *peers*
    /// can learn about restarts purely from received traffic.
    pub fn self_epoch(&self) -> u64 {
        self.epochs.get(self.node.index()).copied().unwrap_or(0)
    }

    /// The current incarnation number of `node` (bumped every time it
    /// crashes; see [`World::crash`](crate::World::crash)).
    ///
    /// **Simulator oracle — debug assertions only.** A real node cannot
    /// observe a peer's incarnation without a message from it; protocol
    /// layers must learn peer epochs from wire-carried incarnation fields
    /// (see [`Context::self_epoch`]) and may consult this oracle only to
    /// `debug_assert!` that the message-driven view agrees with the
    /// simulator's ground truth. Returns `0` for the driver sentinel and
    /// unknown ids.
    pub fn node_epoch(&self, node: NodeId) -> u64 {
        if node.is_driver() {
            return 0;
        }
        self.epochs.get(node.index()).copied().unwrap_or(0)
    }

    /// Sends `payload` to `to` immediately (network delays still apply).
    ///
    /// `label` names the message for traces and metrics; pick stable,
    /// protocol-level names such as `"find-req"`.
    pub fn send(&mut self, to: NodeId, label: impl Into<Label>, payload: Bytes) {
        self.send_after(SimDuration::ZERO, to, label, payload);
    }

    /// Sends `payload` to `to` after spending `local_delay` of node-local
    /// compute time first (marshalling, dispatch, etc.).
    ///
    /// This is how higher layers model per-call CPU costs: the message only
    /// reaches the wire once the local work is done.
    pub fn send_after(
        &mut self,
        local_delay: SimDuration,
        to: NodeId,
        label: impl Into<Label>,
        payload: Bytes,
    ) {
        self.effects.push(Effect::Send {
            to,
            label: label.into(),
            payload,
            local_delay,
        });
    }

    /// Schedules [`Actor::on_timer`] with `tag` after `after` elapses.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { id, after, tag });
        id
    }

    /// Cancels a timer if it has not fired yet.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Completes a driver operation with a typed result, which
    /// [`World::block_on`](crate::World::block_on) hands back by value.
    /// Application-level failures travel inside the value (for example
    /// as a `Result`).
    pub fn complete(&mut self, op: OpId, result: Box<dyn Any>) {
        self.effects.push(Effect::CompleteOp { op, result });
    }

    /// Records a free-form trace annotation attributed to this node.
    pub fn note(&mut self, text: impl Into<String>) {
        self.effects.push(Effect::Note(text.into()));
    }

    /// Bumps a named world metric counter (see
    /// [`Metrics::counter`](crate::Metrics::counter)). Static names only,
    /// so counting costs no allocation on the steady-state path.
    pub fn count(&mut self, name: &'static str) {
        self.effects.push(Effect::Count(name));
    }

    /// The world's deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_collects_effects_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut next_timer = 0;
        let mut ctx = Context::new(
            NodeId::from_raw(0),
            SimTime::ZERO,
            &mut rng,
            &mut next_timer,
            false,
            &[],
        );
        ctx.send(NodeId::from_raw(1), "a", Bytes::from_static(b"x"));
        let t = ctx.set_timer(SimDuration::from_millis(1), 7);
        ctx.cancel_timer(t);
        ctx.note("hello");
        ctx.complete(OpId(3), Box::new(()));
        assert_eq!(ctx.effects.len(), 5);
        assert!(matches!(ctx.effects[0], Effect::Send { .. }));
        assert!(matches!(ctx.effects[1], Effect::SetTimer { tag: 7, .. }));
        assert!(matches!(ctx.effects[2], Effect::CancelTimer(_)));
        assert!(matches!(ctx.effects[3], Effect::Note(_)));
        assert!(matches!(
            ctx.effects[4],
            Effect::CompleteOp { op: OpId(3), .. }
        ));
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut next_timer = 0;
        let mut ctx = Context::new(
            NodeId::from_raw(0),
            SimTime::ZERO,
            &mut rng,
            &mut next_timer,
            false,
            &[],
        );
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn op_id_raw_roundtrip() {
        let op = OpId::from_raw(42);
        assert_eq!(op.as_raw(), 42);
        assert_eq!(OpId::from_raw(op.as_raw()), op);
    }
}
