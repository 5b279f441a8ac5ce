#![warn(clippy::too_many_lines)]
//! The world: a deterministic discrete-event scheduler over actors and the
//! network fabric.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, Context, Effect, Label, OpId, TimerId};
use crate::metrics::Metrics;
use crate::network::{DropReason, Network};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkSpec, NodeId};
use crate::trace::{TraceEvent, TraceLog, TraceMode};

/// Safety cap on events processed by a single blocking call, to turn
/// accidental protocol livelock into a reported error instead of a hang.
const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

/// Error produced by [`World::block_on`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The event queue drained before the operation completed — the protocol
    /// stalled (e.g. a request was lost and nobody retried).
    Stalled,
    /// The event budget was exhausted; the protocol is probably livelocked.
    BudgetExhausted,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled => write!(f, "simulation stalled before the operation completed"),
            SimError::BudgetExhausted => write!(f, "event budget exhausted (livelock?)"),
        }
    }
}

impl Error for SimError {}

/// What a delivery carries: an encoded message from a peer, or a typed
/// value injected by the driver (no wire between them, so no encoding).
#[derive(Debug)]
enum Payload {
    Wire(Bytes),
    Driver(Box<dyn Any>),
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        from: NodeId,
        to: NodeId,
        label: Label,
        payload: Payload,
        msg_id: u64,
        /// Sender incarnation at send time; a mismatch at delivery means
        /// the sender crashed while the message was in flight.
        from_epoch: u64,
        /// Receiver incarnation at send time; a mismatch at delivery means
        /// the message was addressed to a previous incarnation.
        to_epoch: u64,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
        /// Incarnation that armed the timer; timers never fire into a
        /// later incarnation of the node.
        epoch: u64,
    },
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct NodeSlot {
    name: String,
    actor: Option<Box<dyn Actor>>,
    /// Rebuilds a fresh actor after a crash; nodes added without a factory
    /// cannot be restarted.
    factory: Option<Box<dyn Fn() -> Box<dyn Actor>>>,
    /// Whether the node is currently running (crash-stop: `false` between
    /// [`World::crash`] and [`World::restart`]).
    up: bool,
}

enum OpSlot {
    Pending,
    Done(Box<dyn Any>),
    /// The driver abandoned the operation; its eventual result is
    /// discarded instead of being retained forever.
    Forgotten,
}

/// A deterministic simulated distributed system: a set of named nodes (the
/// paper's *namespaces*), a network fabric, and a virtual clock.
///
/// # Examples
///
/// ```
/// use std::any::Any;
///
/// use bytes::Bytes;
/// use mage_sim::{Actor, Context, NodeId, World};
///
/// struct Echo;
/// impl Actor for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
///         if &payload[..] == b"ping" {
///             ctx.send(from, "pong", Bytes::from_static(b"pong"));
///         }
///     }
///
///     fn on_driver(&mut self, ctx: &mut Context<'_>, payload: Box<dyn Any>) {
///         if let Ok(peer) = payload.downcast::<NodeId>() {
///             ctx.send(*peer, "ping", Bytes::from_static(b"ping"));
///         }
///     }
/// }
///
/// let mut world = World::new(42);
/// let a = world.add_node("a", Echo);
/// let b = world.add_node("b", Echo);
/// world.inject(a, "start", Box::new(b));
/// world.run_until_idle().unwrap();
/// assert_eq!(world.metrics().net.sent, 2);
/// ```
pub struct World {
    clock: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    nodes: Vec<NodeSlot>,
    /// Per-node incarnation numbers, parallel to `nodes` (a separate
    /// vector so actor dispatch can borrow it alongside the RNG).
    epochs: Vec<u64>,
    net: Network,
    rng: StdRng,
    trace: TraceLog,
    metrics: Metrics,
    cancelled: BTreeSet<TimerId>,
    ops: HashMap<OpId, OpSlot>,
    next_op: u64,
    next_timer: u64,
    next_msg: u64,
    event_budget: u64,
    /// Effect buffer lent to every dispatch's [`Context`] and drained
    /// afterwards, so steady-state handlers allocate nothing for it.
    effects: Vec<Effect>,
}

impl World {
    /// Creates an empty world with an ideal network and the given RNG seed.
    ///
    /// The same seed, node set and injected commands always replay the exact
    /// same event sequence.
    pub fn new(seed: u64) -> Self {
        World::with_network(seed, Network::default())
    }

    /// Creates an empty world over a pre-configured network fabric.
    pub fn with_network(seed: u64, net: Network) -> Self {
        World {
            clock: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            epochs: Vec::new(),
            net,
            rng: StdRng::seed_from_u64(seed),
            trace: TraceLog::new(),
            metrics: Metrics::new(),
            cancelled: BTreeSet::new(),
            ops: HashMap::new(),
            next_op: 0,
            next_timer: 0,
            next_msg: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
            effects: Vec::new(),
        }
    }

    /// Adds a node running `actor` and returns its id.
    ///
    /// The actor's [`Actor::on_start`] runs immediately.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` nodes are added.
    pub fn add_node(&mut self, name: impl Into<String>, actor: impl Actor + 'static) -> NodeId {
        self.push_node(name.into(), Box::new(actor), None)
    }

    /// Adds a node whose actor is built by `factory`, so the node can be
    /// [`restart`](World::restart)ed after a [`crash`](World::crash) with
    /// a fresh actor (crash-stop: volatile state does not survive).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` nodes are added.
    pub fn add_node_with(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Actor> + 'static,
    ) -> NodeId {
        let actor = factory();
        self.push_node(name.into(), actor, Some(Box::new(factory)))
    }

    fn push_node(
        &mut self,
        name: String,
        actor: Box<dyn Actor>,
        factory: Option<Box<dyn Fn() -> Box<dyn Actor>>>,
    ) -> NodeId {
        let idx = u32::try_from(self.nodes.len()).expect("node count fits u32");
        assert!(idx < u32::MAX - 1, "too many nodes");
        let id = NodeId::from_raw(idx);
        self.nodes.push(NodeSlot {
            name,
            actor: Some(actor),
            factory,
            up: true,
        });
        self.epochs.push(0);
        self.with_actor(id, |actor, ctx| actor.on_start(ctx));
        id
    }

    // ---- crash-stop fault injection ----

    /// Crashes `node`: its actor state is discarded, its pending timers
    /// will never fire, and every message to or from it still in flight is
    /// dropped ([`DropReason::NodeDown`]). Bumps the node's epoch so later
    /// incarnations are distinguishable. Returns `false` if the node was
    /// already down.
    pub fn crash(&mut self, node: NodeId) -> bool {
        let idx = node.index();
        let slot = &mut self.nodes[idx];
        if !slot.up {
            return false;
        }
        slot.up = false;
        slot.actor = None;
        self.epochs[idx] += 1;
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Note {
                at: self.clock,
                node,
                text: format!("crashed (epoch {})", self.epochs[idx]),
            });
        }
        true
    }

    /// Restarts a crashed `node` with a fresh actor from its factory (its
    /// [`Actor::on_start`] runs again). The node keeps its id and the
    /// epoch bumped at crash time, so stale in-flight traffic addressed to
    /// the previous incarnation is still dropped. Returns `false` if the
    /// node was not down.
    ///
    /// # Panics
    ///
    /// Panics if the node was added without a factory (see
    /// [`World::add_node_with`]).
    pub fn restart(&mut self, node: NodeId) -> bool {
        let idx = node.index();
        let slot = &mut self.nodes[idx];
        if slot.up {
            return false;
        }
        let factory = slot
            .factory
            .as_ref()
            .unwrap_or_else(|| panic!("{node} has no actor factory; use add_node_with"));
        slot.actor = Some(factory());
        slot.up = true;
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Note {
                at: self.clock,
                node,
                text: format!("restarted (epoch {})", self.epochs[idx]),
            });
        }
        self.with_actor(node, |actor, ctx| actor.on_start(ctx));
        true
    }

    /// The actor running on `node`, if it is an `A`: out-of-band access
    /// between events, which delivers nothing and advances no time.
    /// `None` while the node is down or when it runs another actor type.
    pub fn actor_mut<A: Actor>(&mut self, node: NodeId) -> Option<&mut A> {
        let actor: &mut dyn Any = self.nodes.get_mut(node.index())?.actor.as_deref_mut()?;
        actor.downcast_mut()
    }

    /// Whether `node` is currently running.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.index()].up
    }

    /// The current incarnation number of `node` (bumped on every crash).
    pub fn node_epoch(&self, node: NodeId) -> u64 {
        self.epochs[node.index()]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Display names of all nodes, indexed by node id.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.iter().map(|slot| slot.name.clone()).collect()
    }

    /// Looks up a node id by its display name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|slot| slot.name == name)
            .map(|i| NodeId::from_raw(i as u32))
    }

    /// Mutable access to the network fabric (links, partitions).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Shared access to the network fabric.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The trace log (enable it to record protocol figures).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the trace log.
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Sets the trace mode. [`TraceMode::Off`] (the default) makes message
    /// recording — and the rich labels actors build for it — cost nothing
    /// on the steady-state path; [`TraceMode::Full`] records every event.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        match mode {
            TraceMode::Off => self.trace.disable(),
            TraceMode::Full => self.trace.enable(),
        }
    }

    /// Experiment metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resets accumulated metrics (the clock and trace are unaffected).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Bumps a named metric counter from the driver side (actors use
    /// [`Context::count`]; client-library code that sits outside the world
    /// — e.g. an explicit stub rebind — records through this).
    pub fn bump_metric(&mut self, name: &'static str) {
        self.metrics.bump(name);
    }

    /// Replaces the per-call event budget used by the blocking runners.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Registers a new driver operation in the pending state.
    pub fn begin_op(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(id, OpSlot::Pending);
        id
    }

    /// Whether `op` has completed (its result is waiting for
    /// [`World::block_on`]).
    pub fn op_done(&self, op: OpId) -> bool {
        matches!(self.ops.get(&op), Some(OpSlot::Done(_)))
    }

    /// Abandons an operation the driver no longer cares about: any stored
    /// result is dropped now, and an in-flight completion is dropped when
    /// it arrives instead of being retained forever.
    pub fn forget_op(&mut self, op: OpId) {
        // Still running: leave a tombstone so the completion is discarded
        // (and the tombstone with it). Done, already forgotten, or never
        // begun: removal alone retains nothing.
        if let Some(OpSlot::Pending) = self.ops.remove(&op) {
            self.ops.insert(op, OpSlot::Forgotten);
        }
    }

    /// Injects a driver payload for delivery to `to` at the current instant.
    ///
    /// The payload is a typed value handed to the receiving actor's
    /// [`Actor::on_driver`] as is: the driver is not a network peer, so
    /// nothing is encoded, and the injection costs the fabric no bytes
    /// (traces record it with size 0). It still takes its place in the
    /// event order like any delivery.
    pub fn inject(&mut self, to: NodeId, label: impl Into<Label>, payload: Box<dyn Any>) {
        let msg_id = self.next_msg;
        self.next_msg += 1;
        let label = label.into();
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Send {
                at: self.clock,
                from: NodeId::DRIVER,
                to,
                label: label.as_str().to_owned(),
                bytes: 0,
                msg_id,
            });
        }
        let to_epoch = self.epochs.get(to.index()).copied().unwrap_or(0);
        self.push_event(
            self.clock,
            EventKind::Deliver {
                from: NodeId::DRIVER,
                to,
                label,
                payload: Payload::Driver(payload),
                msg_id,
                from_epoch: 0,
                to_epoch,
            },
        );
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.clock, "time must not run backwards");
        self.clock = event.at;
        match event.kind {
            EventKind::Deliver {
                from,
                to,
                label,
                payload,
                msg_id,
                from_epoch,
                to_epoch,
            } => {
                // Crash-stop: a message is lost if either endpoint crashed
                // (or restarted into a new incarnation) while it was in
                // flight, or if the receiver is currently down.
                let sender_ok = from.is_driver()
                    || self
                        .nodes
                        .get(from.index())
                        .is_some_and(|slot| slot.up && self.epochs[from.index()] == from_epoch);
                let receiver_ok = self
                    .nodes
                    .get(to.index())
                    .is_some_and(|slot| slot.up && self.epochs[to.index()] == to_epoch);
                if !sender_ok || !receiver_ok {
                    self.metrics.record_drop();
                    if self.trace.is_enabled() {
                        self.trace.push(TraceEvent::Drop {
                            at: self.clock,
                            from,
                            to,
                            label: label.into_string(),
                            reason: DropReason::NodeDown,
                            msg_id,
                        });
                    }
                    return true;
                }
                self.metrics.record_delivery();
                if self.trace.is_enabled() {
                    self.trace.push(TraceEvent::Deliver {
                        at: self.clock,
                        from,
                        to,
                        label: label.into_string(),
                        msg_id,
                    });
                }
                self.with_actor(to, |actor, ctx| match payload {
                    Payload::Wire(bytes) => actor.on_message(ctx, from, bytes),
                    Payload::Driver(value) => actor.on_driver(ctx, value),
                });
            }
            EventKind::Timer {
                node,
                id,
                tag,
                epoch,
            } => {
                if self.cancelled.remove(&id) {
                    return true;
                }
                // Timers armed by a previous incarnation die with it.
                if !self.nodes[node.index()].up || self.epochs[node.index()] != epoch {
                    return true;
                }
                if self.trace.is_enabled() {
                    self.trace.push(TraceEvent::Timer {
                        at: self.clock,
                        node,
                        tag,
                    });
                }
                self.with_actor(node, |actor, ctx| actor.on_timer(ctx, tag));
            }
        }
        true
    }

    /// Runs until no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] if the event budget is used up
    /// before the queue drains.
    pub fn run_until_idle(&mut self) -> Result<(), SimError> {
        let mut budget = self.event_budget;
        while self.step() {
            budget -= 1;
            if budget == 0 {
                return Err(SimError::BudgetExhausted);
            }
        }
        Ok(())
    }

    /// Runs until virtual time reaches `deadline` or the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] if the event budget is used up
    /// first.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        let mut budget = self.event_budget;
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            self.step();
            budget -= 1;
            if budget == 0 {
                return Err(SimError::BudgetExhausted);
            }
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
        Ok(())
    }

    /// Runs until `op` completes and returns its typed result by value.
    ///
    /// # Errors
    ///
    /// * [`SimError::Stalled`] — the queue drained first.
    /// * [`SimError::BudgetExhausted`] — the event budget ran out.
    ///
    /// # Panics
    ///
    /// Panics if the actor completed `op` with a value that is not a `T`
    /// (the driver and the actor disagree on the operation's result type).
    pub fn block_on<T: Any>(&mut self, op: OpId) -> Result<T, SimError> {
        self.block_on_boxed(op).map(|result| *result)
    }

    /// Like [`World::block_on`], but hands back the box the actor
    /// completed `op` with, so the driver can reuse its allocation.
    ///
    /// # Errors
    ///
    /// As [`World::block_on`].
    ///
    /// # Panics
    ///
    /// As [`World::block_on`].
    pub fn block_on_boxed<T: Any>(&mut self, op: OpId) -> Result<Box<T>, SimError> {
        let mut budget = self.event_budget;
        loop {
            if self.op_done(op) {
                let Some(OpSlot::Done(result)) = self.ops.remove(&op) else {
                    unreachable!("checked above");
                };
                let result = result.downcast::<T>().unwrap_or_else(|_| {
                    panic!(
                        "{op:?} completed with a value that is not a {}",
                        std::any::type_name::<T>()
                    )
                });
                return Ok(result);
            }
            if !self.step() {
                return Err(SimError::Stalled);
            }
            budget -= 1;
            if budget == 0 {
                return Err(SimError::BudgetExhausted);
            }
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, kind }));
    }

    fn with_actor(&mut self, node: NodeId, run: impl FnOnce(&mut dyn Actor, &mut Context<'_>)) {
        let idx = node.index();
        if !self.nodes[idx].up {
            return; // crashed nodes process nothing
        }
        let mut actor = self.nodes[idx]
            .actor
            .take()
            .unwrap_or_else(|| panic!("actor for {node} is re-entered"));
        let trace_on = self.trace.is_enabled();
        let mut ctx = Context::new(
            node,
            self.clock,
            &mut self.rng,
            &mut self.next_timer,
            trace_on,
            &self.epochs,
        );
        ctx.effects = std::mem::take(&mut self.effects);
        run(actor.as_mut(), &mut ctx);
        let mut effects = std::mem::take(&mut ctx.effects);
        self.nodes[idx].actor = Some(actor);
        self.apply_effects(node, &mut effects);
        self.effects = effects;
    }

    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    label,
                    payload,
                    local_delay,
                } => {
                    let depart = self.clock + local_delay;
                    let msg_id = self.next_msg;
                    self.next_msg += 1;
                    let bytes = payload.len() as u64;
                    self.metrics.record_send(label.as_str(), bytes);
                    if self.trace.is_enabled() {
                        self.trace.push(TraceEvent::Send {
                            at: depart,
                            from: node,
                            to,
                            label: label.as_str().to_owned(),
                            bytes,
                            msg_id,
                        });
                    }
                    match self.net.delivery_delay(node, to, bytes, &mut self.rng) {
                        Ok(net_delay) => {
                            let from_epoch = self.epochs[node.index()];
                            let to_epoch = self.epochs.get(to.index()).copied().unwrap_or(0);
                            self.push_event(
                                depart + net_delay,
                                EventKind::Deliver {
                                    from: node,
                                    to,
                                    label,
                                    payload: Payload::Wire(payload),
                                    msg_id,
                                    from_epoch,
                                    to_epoch,
                                },
                            );
                        }
                        Err(reason) => {
                            self.metrics.record_drop();
                            if self.trace.is_enabled() {
                                self.trace.push(TraceEvent::Drop {
                                    at: depart,
                                    from: node,
                                    to,
                                    label: label.into_string(),
                                    reason,
                                    msg_id,
                                });
                            }
                        }
                    }
                }
                Effect::SetTimer { id, after, tag } => {
                    let epoch = self.epochs[node.index()];
                    self.push_event(
                        self.clock + after,
                        EventKind::Timer {
                            node,
                            id,
                            tag,
                            epoch,
                        },
                    );
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
                Effect::CompleteOp { op, result } => match self.ops.remove(&op) {
                    // Results of abandoned ops are dropped on the floor.
                    Some(OpSlot::Forgotten) => {}
                    _ => {
                        self.ops.insert(op, OpSlot::Done(result));
                    }
                },
                Effect::Note(text) => {
                    self.trace.push(TraceEvent::Note {
                        at: self.clock,
                        node,
                        text,
                    });
                }
                Effect::Count(name) => {
                    self.metrics.bump(name);
                }
            }
        }
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.clock)
            .field("nodes", &self.nodes.len())
            .field("queued_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// Convenience: add a link spec between two named nodes.
impl World {
    /// Sets the link between two nodes in both directions.
    pub fn set_link_bidi(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.net.set_link_bidi(a, b, spec);
    }

    /// Partitions two nodes (both directions).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.net.partition(a, b);
    }

    /// Heals a partition (both directions).
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.net.heal(a, b);
    }

    /// Advances virtual time by `d`, processing any events that fall due.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] if the event budget runs out.
    pub fn advance(&mut self, d: SimDuration) -> Result<(), SimError> {
        let deadline = self.clock + d;
        self.run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replies to `ping` with `pong`; completes the op named by the driver
    /// command once the pong is back.
    struct Ponger;

    impl Actor for Ponger {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            if payload.last() == Some(&b'!') {
                let mut rsp = Vec::from(&payload[..8]);
                rsp.push(b'?');
                ctx.send(from, "pong", Bytes::from(rsp));
            } else {
                let op = OpId::from_raw(u64::from_le_bytes(payload[..8].try_into().unwrap()));
                ctx.complete(op, Box::new("done"));
            }
        }

        fn on_driver(&mut self, ctx: &mut Context<'_>, payload: Box<dyn Any>) {
            let (op, target) = *payload.downcast::<(OpId, NodeId)>().unwrap();
            // The ping carries the op id; the pong brings it back.
            let mut fwd = op.as_raw().to_le_bytes().to_vec();
            fwd.push(b'!');
            ctx.send(target, "ping", Bytes::from(fwd));
        }
    }

    fn driver_payload(op: OpId, target: NodeId) -> Box<dyn Any> {
        Box::new((op, target))
    }

    #[test]
    fn ping_pong_completes_op() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        let out: &str = world.block_on(op).unwrap();
        assert_eq!(out, "done");
    }

    #[test]
    #[should_panic(expected = "not a")]
    fn block_on_with_the_wrong_result_type_panics() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        let _ = world.block_on::<u64>(op);
    }

    #[test]
    fn injection_is_delivered_but_costs_the_fabric_nothing() {
        let mut world = World::new(1);
        world.trace_mut().enable();
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        world.block_on::<&str>(op).unwrap();
        // Ping and pong cross the fabric; the injection is one more
        // delivery but no send and no bytes.
        assert_eq!(world.metrics().net.sent, 2);
        assert_eq!(world.metrics().net.delivered, 3);
        let driver_bytes: Vec<u64> = world
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Send { from, bytes, .. } if from.is_driver() => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(driver_bytes, vec![0]);
    }

    #[test]
    fn latency_advances_virtual_time() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        world.block_on::<&str>(op).unwrap();
        // One round trip = 20 ms.
        assert_eq!(world.now(), SimTime::from_micros(20_000));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| -> (SimTime, u64) {
            let mut world = World::new(seed);
            let a = world.add_node("a", Ponger);
            let b = world.add_node("b", Ponger);
            world.set_link_bidi(
                a,
                b,
                LinkSpec::ideal()
                    .with_latency(SimDuration::from_millis(1))
                    .with_jitter(SimDuration::from_micros(500)),
            );
            let op = world.begin_op();
            world.inject(a, "cmd", driver_payload(op, b));
            world.block_on::<&str>(op).unwrap();
            (world.now(), world.metrics().net.sent)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn partition_stalls_operation() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        world.partition(a, b);
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        assert_eq!(world.block_on::<&str>(op), Err(SimError::Stalled));
        assert_eq!(world.metrics().net.dropped, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        world.run_until(SimTime::from_micros(5_000)).unwrap();
        // Ping still in flight; op unresolved and clock exactly at deadline.
        assert!(!world.op_done(op));
        assert_eq!(world.now(), SimTime::from_micros(5_000));
        world.run_until_idle().unwrap();
        assert!(world.op_done(op));
    }

    #[test]
    fn node_lookup_by_name() {
        let mut world = World::new(1);
        let a = world.add_node("alpha", Ponger);
        assert_eq!(world.node_id("alpha"), Some(a));
        assert_eq!(world.node_id("missing"), None);
        assert_eq!(world.node_names(), vec!["alpha".to_owned()]);
    }

    #[test]
    fn advance_moves_clock_when_idle() {
        let mut world = World::new(1);
        world.advance(SimDuration::from_millis(5)).unwrap();
        assert_eq!(world.now(), SimTime::from_micros(5_000));
    }

    struct TimerActor {
        fired: Vec<u64>,
    }

    impl Actor for TimerActor {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 1);
            let t2 = ctx.set_timer(SimDuration::from_millis(2), 2);
            ctx.cancel_timer(t2);
            ctx.set_timer(SimDuration::from_millis(3), 3);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            self.fired.push(tag);
            ctx.note(format!("timer {tag}"));
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut world = World::new(1);
        world.trace_mut().enable();
        world.add_node("t", TimerActor { fired: vec![] });
        world.run_until_idle().unwrap();
        let notes: Vec<_> = world
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Note { text, .. } => Some(text.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(notes, vec!["timer 1".to_owned(), "timer 3".to_owned()]);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        struct Looper;
        impl Actor for Looper {
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
                let me = ctx.node();
                ctx.send(me, "loop", payload);
            }

            fn on_driver(&mut self, ctx: &mut Context<'_>, _payload: Box<dyn Any>) {
                let me = ctx.node();
                ctx.send(me, "loop", Bytes::new());
            }
        }
        let mut world = World::new(1);
        let a = world.add_node("a", Looper);
        world.set_event_budget(100);
        world.inject(a, "loop", Box::new(()));
        assert_eq!(world.run_until_idle(), Err(SimError::BudgetExhausted));
    }

    #[test]
    fn sim_error_display() {
        assert!(SimError::Stalled.to_string().contains("stalled"));
        assert!(SimError::BudgetExhausted.to_string().contains("budget"));
    }

    #[test]
    fn crash_drops_in_flight_messages_to_dead_node() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node_with("b", || Box::new(Ponger));
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        // Ping departs immediately; crash b while it is on the wire.
        world.crash(b);
        assert_eq!(world.block_on::<&str>(op), Err(SimError::Stalled));
        assert_eq!(world.metrics().net.dropped, 1);
    }

    #[test]
    fn crash_drops_in_flight_messages_from_dead_node() {
        let mut world = World::new(1);
        let a = world.add_node_with("a", || Box::new(Ponger));
        let b = world.add_node("b", Ponger);
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        // Let the ping depart, then crash the sender: crash-stop also
        // invalidates its in-flight output.
        world.crash(a);
        assert_eq!(world.block_on::<&str>(op), Err(SimError::Stalled));
        assert!(world.metrics().net.dropped >= 1);
    }

    struct CountingActor {
        seen: u64,
    }

    impl Actor for CountingActor {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}

        fn on_driver(&mut self, ctx: &mut Context<'_>, payload: Box<dyn Any>) {
            self.seen += 1;
            let op = *payload.downcast::<OpId>().unwrap();
            ctx.complete(op, Box::new(self.seen));
        }
    }

    #[test]
    fn restart_resets_actor_state_and_bumps_epoch() {
        let mut world = World::new(1);
        let a = world.add_node_with("a", || Box::new(CountingActor { seen: 0 }));
        let ask = |world: &mut World| -> u64 {
            let op = world.begin_op();
            world.inject(a, "ask", Box::new(op));
            world.block_on(op).unwrap()
        };
        assert_eq!(ask(&mut world), 1);
        assert_eq!(ask(&mut world), 2);
        assert_eq!(world.node_epoch(a), 0);
        assert!(world.crash(a));
        assert!(!world.crash(a), "second crash is a no-op");
        assert!(!world.is_up(a));
        assert_eq!(world.node_epoch(a), 1);
        assert!(world.restart(a));
        assert!(!world.restart(a), "restart of an up node is a no-op");
        assert!(world.is_up(a));
        // Fresh actor: the counter restarted from zero.
        assert_eq!(ask(&mut world), 1);
    }

    #[test]
    fn actor_mut_reaches_only_a_running_actor_of_its_type() {
        let mut world = World::new(1);
        let a = world.add_node_with("a", || Box::new(CountingActor { seen: 0 }));
        world.actor_mut::<CountingActor>(a).unwrap().seen = 41;
        let op = world.begin_op();
        world.inject(a, "ask", Box::new(op));
        assert_eq!(world.block_on::<u64>(op), Ok(42));
        assert!(world.actor_mut::<Ponger>(a).is_none(), "another type");
        world.crash(a);
        assert!(world.actor_mut::<CountingActor>(a).is_none(), "down");
        world.restart(a);
        assert_eq!(world.actor_mut::<CountingActor>(a).unwrap().seen, 0);
    }

    #[test]
    fn driver_injection_to_down_node_is_dropped() {
        let mut world = World::new(1);
        let a = world.add_node_with("a", || Box::new(CountingActor { seen: 0 }));
        world.crash(a);
        let op = world.begin_op();
        world.inject(a, "ask", Box::new(op));
        assert_eq!(world.block_on::<u64>(op), Err(SimError::Stalled));
        assert_eq!(world.metrics().net.dropped, 1);
    }

    struct OldTimer;

    impl Actor for OldTimer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(5), 42);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            ctx.note(format!("fired {tag}"));
        }
    }

    #[test]
    fn timers_from_previous_incarnation_do_not_fire() {
        let mut world = World::new(1);
        world.trace_mut().enable();
        let a = world.add_node_with("t", || Box::new(OldTimer));
        // Crash + restart before the epoch-0 timer is due: only the fresh
        // incarnation's on_start timer (set at restart time) may fire.
        world.crash(a);
        world.restart(a);
        world.run_until_idle().unwrap();
        let fired: Vec<_> = world
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Timer { .. }))
            .collect();
        assert_eq!(fired.len(), 1, "only the new incarnation's timer fires");
    }

    #[test]
    fn crashes_replay_deterministically() {
        let run = |seed: u64| -> (SimTime, u64, u64) {
            let mut world = World::new(seed);
            let a = world.add_node_with("a", || Box::new(Ponger));
            let b = world.add_node_with("b", || Box::new(Ponger));
            world.set_link_bidi(
                a,
                b,
                LinkSpec::ideal()
                    .with_latency(SimDuration::from_millis(1))
                    .with_jitter(SimDuration::from_micros(500)),
            );
            let op = world.begin_op();
            world.inject(a, "cmd", driver_payload(op, b));
            world.crash(b);
            let _ = world.block_on::<&str>(op);
            world.restart(b);
            let op = world.begin_op();
            world.inject(a, "cmd", driver_payload(op, b));
            world.block_on::<&str>(op).unwrap();
            (
                world.now(),
                world.metrics().net.sent,
                world.metrics().net.dropped,
            )
        };
        assert_eq!(run(7), run(7));
    }
}
