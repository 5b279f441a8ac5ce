//! Client-side protocol engines and server-side continuations.
//!
//! A mobility attribute's `bind` is "a complex wrapper for RMI's
//! `Naming.lookup`" (§4.2): it locates the component, optionally locks
//! it, moves or instantiates it, invokes it and unlocks — each step an
//! RMI call whose reply drives the next. A driver's own `find`, `lock` and
//! `unlock` take the same steps. This module holds those state machines:
//!
//! * [`ExecTask`] — the bind/invoke engine run on the client's node
//! * [`ClientCall`] — a driver `lock` or `unlock`: locate, then one call
//! * walks — a find or an act forwarded along the registry's chain with
//!   path compression (§4.1), or a driver find; a [`FindWaiter`] hears
//!   the answer
//! * [`MoveOutTask`] — the hosting node's half of the move protocol
//!   (Figure 7's messages 4/5), shared by act requests, client-local
//!   moves and autonomous mobile-agent hops; an act's move carries its
//!   invocation, which the destination runs on arrival
//! * [`CheckpointTask`] — a durability snapshot on its way to a backup
//!
//! A bind of a built-in attribute sends no find: one `act` request,
//! carrying the plan's [`ActPlan`](proto::ActPlan), goes to the object's
//! best-known location and walks the chain like a find (Emerald's
//! forwarding addresses). The node that hosts the object applies Table 2
//! and invokes it in place or moves it; the reply says where it is. A
//! move carries the invocation in its `receive`, so the destination runs
//! it on arrival and the result rides back through the host's reply
//! (remote evaluation's one exchange, Stamos and Gifford).
//!
//! A move, a checkpoint and a remote instantiation each place an object
//! at a namespace that may lack its class. All three ride one
//! [`ClassLadder`]: [`MageNode::place`] sends the request, and
//! [`MageNode::climb`] pushes the class on the first `ClassMissing` and
//! then resends, so each owner handles only the final answer.
//!
//! Every locate goes through [`MageNode::locate_start`], and every find,
//! lock and unlock request is built by [`MageNode::send_find`],
//! [`MageNode::send_lock`] or [`MageNode::send_unlock`]. Tasks carry
//! interned [`NameId`]s / [`CompKey`]s; strings are resolved only on error
//! paths.
#![warn(clippy::too_many_lines)]

use bytes::Bytes;
use mage_codec::ByteBuf;
use mage_rmi::{Env, Fault, NameId, ReplyHandle, RmiError};
use mage_sim::{NodeId, OpId};

use crate::coercion::{Coerced, Situation};
use crate::error::MageError;
use crate::lock::LockKind;
use crate::node::MageNode;
use crate::proto::{self, ActArgs, FindArgs, FindReply, Outcome};
use crate::registry::{CompKey, Incarnation, Located};

/// A continuation awaiting an RMI reply (keyed by its call token).
// `Exec` is several times the other variants' size. Every entry of the
// task table pays for it in place; boxing it would instead cost an
// allocation per exec call, the steady-state path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Task {
    /// A walk on behalf of `waiter`: a driver find issued here, or a
    /// remote caller's find or act this node forwards along the chain.
    /// `walk` is the request as last sent, for a find's once-only home
    /// retry (an act's is its client's).
    Walk { waiter: FindWaiter, walk: Walk },
    /// A driver-initiated lock or unlock.
    Client(ClientCall),
    /// A bind/invoke engine, unboxed: a call parks and resumes it once
    /// per reply, and a box would cost an allocation each time.
    Exec(ExecTask),
    /// An object transfer out of this namespace.
    MoveOut(MoveOutTask),
    /// A durability snapshot in flight to a backup home.
    Checkpoint(CheckpointTask),
}

/// A request walking the registry's forwarding chain (§4.1): a find,
/// answered where the walk ends, or an act, applied there.
pub(crate) enum Walk {
    Find(FindArgs),
    Act(ActArgs),
}

impl Walk {
    /// The walk's key, visited list, home and retry flag.
    pub(crate) fn args(&mut self) -> &mut FindArgs {
        match self {
            Walk::Find(args) => args,
            Walk::Act(act) => &mut act.walk,
        }
    }
}

/// Who waits on an object that is mid-move here: a find, answered with
/// where the move settles, or an act, which resumes once it has.
pub(crate) enum TransitWaiter {
    Find(FindWaiter),
    /// A remote act, walked again from here.
    Act(ReplyHandle, ActArgs),
    /// This node's own exec task (by id), which acts again.
    Exec(u64),
}

/// Who hears a walk's answer: a remote caller whose find or act this
/// node parked or forwarded, or a driver find issued at this node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FindWaiter {
    /// A remote `mage.find` or `mage.act` call awaiting its RMI reply.
    Reply(ReplyHandle),
    /// A driver find completing its op.
    Op(OpId),
}

impl FindWaiter {
    /// Answers with `found`. A forwarding hop passes `raw`, the encoded
    /// answer it received, which goes back out as is.
    pub(crate) fn answer(
        self,
        node: &mut MageNode,
        env: &mut Env<'_, '_>,
        found: FindReply,
        raw: Option<&[u8]>,
    ) {
        match self {
            FindWaiter::Reply(handle) => match raw {
                Some(raw) => {
                    env.reply_with(handle, Ok(raw));
                }
                None => {
                    let payload = mage_codec::to_bytes(&found).expect("find reply encodes");
                    env.reply(handle, Ok(payload));
                }
            },
            FindWaiter::Op(op) => {
                let outcome = Outcome {
                    location: found.location,
                    incarnation: found.incarnation,
                    ..Outcome::default()
                };
                node.complete(env, op, Ok(outcome));
            }
        }
    }

    /// Answers with the failure of the walk's hop: a remote caller gets
    /// the fault (a dead hop as `Fault::Unreachable`), a driver find the
    /// matching [`MageError`].
    pub(crate) fn fail(self, node: &mut MageNode, env: &mut Env<'_, '_>, err: &RmiError) {
        match self {
            FindWaiter::Reply(handle) => {
                let fault = match err {
                    RmiError::Fault(fault) => fault.clone(),
                    RmiError::PeerUnreachable { peer, .. } => Fault::Unreachable {
                        peer: peer.as_raw(),
                    },
                    other => Fault::App(other.to_string()),
                };
                env.reply(handle, Err(fault));
            }
            FindWaiter::Op(op) => node.complete(env, op, Err(rmi_error_to_mage(err))),
        }
    }
}

/// A driver `lock` or `unlock`: locate the object, then one call to
/// wherever it is.
pub(crate) struct ClientCall {
    pub op: OpId,
    pub name: NameId,
    pub home_hint: Option<NodeId>,
    /// Whether the call awaits its find (else the lock or unlock reply).
    pub finding: bool,
    pub kind: ClientCallKind,
}

pub(crate) enum ClientCallKind {
    /// Acquire a lock for computation target `target`. A lock that raced
    /// a move or a re-creation locates again while `retries` last.
    Lock {
        target: NodeId,
        retries: u8,
    },
    Unlock,
}

impl ClientCallKind {
    /// Spends one of a lock's race retries; `false` when none is left, and
    /// always for an unlock, which never retries.
    fn spend_retry(&mut self) -> bool {
        match self {
            ClientCallKind::Lock { retries, .. } if *retries > 0 => {
                *retries -= 1;
                true
            }
            _ => false,
        }
    }
}

/// A call that places an object at `dest` (a move's `receive`, a
/// `checkpoint` or an `instantiate`), on its way up the class-push
/// ladder: a target that answers `ClassMissing` gets the class cloned to
/// it once, then the same request again (§4.2; a move target needs the
/// class to reify the object, a backup to be able to restore it).
/// [`MageNode::place`] sends the request and [`MageNode::climb`] steps
/// the ladder on each reply, so its owner only handles the final answer.
pub(crate) struct ClassLadder {
    pub dest: NodeId,
    /// The class the target must cache.
    pub class: NameId,
    /// The service method `request` calls.
    pub method: NameId,
    /// The call's arguments, encoded once: a resend carries these bytes.
    pub request: Vec<u8>,
    pub rung: Rung,
}

/// Which call of a [`ClassLadder`] is in flight.
pub(crate) enum Rung {
    /// The request.
    Sent,
    /// The class push; the request goes again once it lands.
    Pushing,
    /// The request again, after a push; its answer is final.
    Resent,
}

/// A checkpoint in flight to a backup home: a full snapshot, or a
/// confirmation of one the backup acknowledged earlier.
pub(crate) struct CheckpointTask {
    pub ladder: ClassLadder,
    pub head: proto::CheckpointHeader,
    /// Whether the request only confirms the snapshot the object's
    /// [`ShippedSnapshot`](crate::node::ShippedSnapshot) record names.
    pub confirm: bool,
}

/// Why a move was started; decides who hears about the outcome.
pub(crate) enum MoveOrigin {
    /// A remote act, classified here as `situation`, awaiting its reply.
    Act {
        handle: ReplyHandle,
        situation: Situation,
    },
    /// A local [`ExecTask`] (stored under this task id) awaiting resumption.
    Exec(u64),
    /// An autonomous mobile-agent hop; outcome is only traced.
    Autonomous,
}

pub(crate) struct MoveOutTask {
    pub name: NameId,
    pub origin: MoveOrigin,
    /// The `receive` call, to `ladder.dest`.
    pub ladder: ClassLadder,
    /// The moving object's incarnation, the same at its new home.
    pub incarnation: Incarnation,
    /// Whether the `receive` carries a two-way invocation, whose outcome
    /// heads the destination's reply.
    pub two_way: bool,
    /// Lock holders packed with the object; reinstalled if the move aborts.
    pub locks: crate::lock::HolderTransfer,
    /// Waiters removed from the lock queue at pack time. Bounced after the
    /// move commits (so their re-find sees the forwarding address) or
    /// re-queued if the move aborts.
    pub parked_waiters: Vec<crate::lock::QueuedWaiter<ReplyHandle>>,
}

/// Where a locate starts (see [`MageNode::locate_start`]).
pub(crate) enum Start {
    /// This node's knowledge names the location and incarnation.
    Known(Located),
    /// Nothing known: a walk starts at the object's home.
    Home(NodeId),
}

/// The exec stage a find was issued for. It re-enters once the find
/// answers, then finds the location known (or, after a dead hop,
/// forgotten and due to be resolved again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    Guard,
    Invoke,
}

#[allow(clippy::enum_variant_names)] // every phase awaits a reply; the prefix is the point
pub(crate) enum ExecPhase {
    AwaitFind {
        resume: Resume,
    },
    AwaitLock {
        at: NodeId,
    },
    /// An act in flight: a request to `to`, or (`None`) a move out of
    /// this node (which resumes the task through [`MoveOrigin::Exec`]) or
    /// a wait for the object's move out of this node to settle.
    AwaitAct {
        to: Option<NodeId>,
    },
    AwaitFetchClass {
        dest: NodeId,
    },
    /// An instantiation at `ladder.dest`, on its class-push ladder.
    AwaitInstantiate(ClassLadder),
    AwaitInvoke,
    AwaitUnlock,
    /// Consulting the backup home of a replicated object after a
    /// `NotFound`/`Unreachable` outcome; `original` is the error that
    /// surfaces if no restore is possible.
    AwaitRestore {
        original: MageError,
    },
}

impl ExecPhase {
    /// Whether the awaited call is one its peer answers on receipt, so an
    /// exhausted retry budget proves the peer dead for the rest of the op.
    /// Finds, acts and locks do not qualify: a live peer may hold them
    /// while it waits on a third party.
    fn answered_on_receipt(&self) -> bool {
        matches!(
            self,
            ExecPhase::AwaitInvoke
                | ExecPhase::AwaitRestore { .. }
                | ExecPhase::AwaitInstantiate(_)
                | ExecPhase::AwaitFetchClass { .. }
        )
    }
}

pub(crate) struct ExecTask {
    pub op: OpId,
    pub spec: proto::ExecSpec,
    pub phase: ExecPhase,
    pub cloc: Option<NodeId>,
    /// Incarnation believed to live at `cloc` (updated by every find,
    /// act and instantiate reply); invocations carry it as `expected`.
    pub cinc: Option<Incarnation>,
    /// How Table 2 resolved an act, once this node or the host classified
    /// it.
    pub coerced: Option<Coerced>,
    pub locked_at: Option<NodeId>,
    pub lock_kind: Option<LockKind>,
    pub invoke_at: Option<NodeId>,
    /// The invocation's marshalled result, a view into the reply frame.
    pub result: Option<Bytes>,
    pub retries: u8,
    pub failure: Option<MageError>,
    /// Whether the once-only backup consultation has been spent (the
    /// durability mirror of the find walk's once-only home retry).
    pub restore_tried: bool,
    /// Peers this op has seen exhaust a retry budget on a call answered
    /// on receipt; location resolution never contacts them again. Empty
    /// (and unallocated) unless a peer died under the op.
    pub dead_peers: Vec<NodeId>,
}

impl ExecTask {
    /// Records the peer of a failed call as dead for the rest of the op
    /// when the failure proves it (see [`ExecPhase::answered_on_receipt`]).
    pub(crate) fn note_dead_peer(&mut self, result: &Result<Bytes, RmiError>) {
        if let Err(RmiError::PeerUnreachable { peer, .. }) = result {
            if self.phase.answered_on_receipt() && !self.dead_peers.contains(peer) {
                self.dead_peers.push(*peer);
            }
        }
    }
}

/// Maps a failed RMI call into the [`MageError`] a driver op reports.
pub(crate) fn rmi_error_to_mage(err: &RmiError) -> MageError {
    match err {
        RmiError::Fault(fault) => proto::fault_to_error(fault),
        RmiError::PeerUnreachable { peer, .. } => MageError::Unreachable {
            peer: peer.as_raw(),
        },
        other => MageError::Rmi(other.to_string()),
    }
}

/// Whether an RMI failure means the hop we talked to (or a hop it talked
/// to) is unreachable — the signal that a forwarding-chain entry is dead
/// and worth repairing.
pub(crate) fn is_unreachable(err: &RmiError) -> bool {
    matches!(
        err,
        RmiError::PeerUnreachable { .. } | RmiError::Fault(Fault::Unreachable { .. })
    )
}

/// Whether a failed step is worth re-locating the object over: either the
/// object moved out from under us (`NotBound` race) or the host we spoke
/// to is gone (unreachable) — both mean our location knowledge is stale.
pub(crate) fn stale_location(err: &RmiError) -> bool {
    matches!(err, RmiError::Fault(Fault::NotBound(_))) || is_unreachable(err)
}

fn error_to_fault(err: &MageError) -> Fault {
    match err {
        MageError::NotFound(name) => Fault::NotBound(name.clone()),
        MageError::ClassUnavailable(class) => Fault::ClassMissing(class.clone()),
        MageError::Denied(why) => Fault::AccessDenied(why.clone()),
        other => Fault::App(other.to_string()),
    }
}

/// Decodes an RMI reply payload.
pub(crate) fn decode<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T, MageError> {
    mage_codec::from_bytes(bytes).map_err(MageError::from)
}

impl MageNode {
    /// Sends a fresh find walk for `key` to its `home` under `token`; the
    /// walk has visited only this node.
    pub(crate) fn send_find(
        &mut self,
        env: &mut Env<'_, '_>,
        home: NodeId,
        key: CompKey,
        token: u64,
    ) {
        let args = proto::FindArgs {
            key,
            visited: vec![env.node().as_raw()],
            home: Some(home.as_raw()),
            retried: false,
        };
        self.call_service(env, home, self.ids.find, &args, token);
    }

    /// Asks `at` for a lock on `name` for computation target `target`,
    /// under `token`. The lock applies only to incarnation `expected`,
    /// when one is known: a re-creation racing the request is refused
    /// typed, never silently locked.
    pub(crate) fn send_lock(
        &mut self,
        env: &mut Env<'_, '_>,
        at: NodeId,
        name: NameId,
        target: NodeId,
        expected: Option<Incarnation>,
        token: u64,
    ) {
        let args = proto::LockArgs {
            name,
            client: env.node().as_raw(),
            target: target.as_raw(),
            expected: expected.filter(|inc| !inc.is_none()),
        };
        self.call_service(env, at, self.ids.lock, &args, token);
    }

    /// Asks `at` to release this node's lock on `name`, under `token`.
    pub(crate) fn send_unlock(
        &mut self,
        env: &mut Env<'_, '_>,
        at: NodeId,
        name: NameId,
        token: u64,
    ) {
        let args = proto::UnlockArgs {
            name,
            client: env.node().as_raw(),
        };
        self.call_service(env, at, self.ids.unlock, &args, token);
    }

    /// Sends `walk` to `to` under `token`.
    pub(crate) fn send_walk(&mut self, env: &mut Env<'_, '_>, to: NodeId, walk: &Walk, token: u64) {
        match walk {
            Walk::Find(args) => self.call_service(env, to, self.ids.find, args, token),
            Walk::Act(args) => self.call_service(env, to, self.ids.act, args, token),
        }
    }

    /// Where `key` is, and which incarnation lives there, as far as this
    /// node knows; the one locate step of binds, locks and unlocks.
    ///
    /// The sources, in order: the component hosted here, the registry
    /// entry, the caller's `hint`, and else the `home` a walk starts
    /// from. Knowledge naming a peer in `dead` (one that died under the
    /// caller's op) is passed over and counted as a `dead_peer_skips`; a
    /// walk that would have to start at a dead home fails at once with
    /// the `Unreachable` the walk would reach after spending its retries
    /// on that peer. Nothing to go on is `NotFound`.
    pub(crate) fn locate_start(
        &mut self,
        env: &mut Env<'_, '_>,
        key: CompKey,
        hint: Option<Located>,
        home: Option<NodeId>,
        dead: &[NodeId],
    ) -> Result<Start, MageError> {
        let me = env.node();
        if self.has_component(key) {
            return Ok(Start::Known(Located::new(me, self.local_incarnation(key))));
        }
        let usable = |env: &mut Env<'_, '_>, node: NodeId| {
            let dead = dead.contains(&node);
            if dead {
                env.count("dead_peer_skips");
            }
            !dead
        };
        let known = [self.registry.lookup(key), hint];
        if let Some(loc) = known
            .into_iter()
            .flatten()
            .find(|loc| loc.node != me && usable(env, loc.node))
        {
            return Ok(Start::Known(loc));
        }
        match home.filter(|h| *h != me) {
            Some(home) if !usable(env, home) => Err(MageError::Unreachable {
                peer: home.as_raw(),
            }),
            Some(home) => Ok(Start::Home(home)),
            None => Err(MageError::NotFound(key.display(&self.syms))),
        }
    }

    /// Issues the once-only home retry of a walk that dead-ended: `walk`
    /// again, fresh from its home, parked for `waiter` under a new token.
    /// Returns `false` when the home hint is absent or points here (the
    /// caller surfaces its error instead).
    pub(crate) fn retry_walk_from_home(
        &mut self,
        env: &mut Env<'_, '_>,
        waiter: FindWaiter,
        mut walk: Walk,
    ) -> bool {
        let me = env.node();
        let args = walk.args();
        let Some(home) = args.home.map(NodeId::from_raw).filter(|h| *h != me) else {
            return false;
        };
        args.visited.clear();
        args.visited.push(me.as_raw());
        args.retried = true;
        let token = self.next_token();
        self.send_walk(env, home, &walk, token);
        self.tasks.insert(token, Task::Walk { waiter, walk });
        true
    }

    /// Routes an RMI reply to the task that issued the call.
    ///
    /// Unknown tokens are ignored: they belong to fire-and-forget calls
    /// (one-way mobile-agent invocations) or to calls whose task already
    /// timed out.
    pub(crate) fn step_task(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        result: Result<Bytes, RmiError>,
    ) {
        let Some(task) = self.tasks.remove(&token) else {
            return;
        };
        match task {
            Task::Walk { waiter, walk } => self.step_walk(env, waiter, walk, result),
            Task::Client(call) => self.step_client_call(env, token, call, result),
            Task::Exec(t) => self.step_exec_reply(env, token, t, result),
            Task::MoveOut(t) => self.step_move(env, token, t, result),
            Task::Checkpoint(t) => self.step_checkpoint(env, token, t, result),
        }
    }

    /// Answers a walk's waiter from the next hop's reply.
    fn step_walk(
        &mut self,
        env: &mut Env<'_, '_>,
        waiter: FindWaiter,
        mut walk: Walk,
        result: Result<Bytes, RmiError>,
    ) {
        let key = walk.args().key;
        let bytes = match result {
            Ok(bytes) => bytes,
            // An act reached its object and the host refused it: the
            // chain held, and the fault goes back as it came.
            Err(err) if matches!(walk, Walk::Act(_)) && !stale_location(&err) => {
                return waiter.fail(self, env, &err);
            }
            Err(err) => {
                // The hop we followed failed, so the entry that led there
                // is stale. A forwarding node repairs it whatever the
                // failure, so the bad chain dies with this walk; a driver
                // find only when the hop is dead. A dead hop earns a find
                // the once-only retry from the component's home; an act
                // (sent `retried`) goes back to its client, which retries.
                let dead = is_unreachable(&err);
                if dead || matches!(waiter, FindWaiter::Reply(_)) {
                    self.registry.remove(key);
                }
                let retried = walk.args().retried;
                let retrying = dead && !retried && self.retry_walk_from_home(env, waiter, walk);
                if !retrying {
                    waiter.fail(self, env, &err);
                }
                return;
            }
        };
        let found = match walk {
            Walk::Find(_) => decode::<FindReply>(&bytes),
            Walk::Act(_) => proto::ActReply::split(&bytes)
                .map(|(head, _)| head.found())
                .map_err(MageError::from),
        };
        match found {
            Ok(found) => {
                // Path compression: remember the final location and
                // incarnation, collapsing the chain (§4.1).
                let at = NodeId::from_raw(found.location);
                self.registry
                    .update(key, Located::new(at, found.incarnation));
                // A forwarded answer leaves straight out of the received
                // frame — no copy.
                waiter.answer(self, env, found, Some(&bytes));
            }
            Err(e) => waiter.fail(self, env, &RmiError::Decode(e.to_string())),
        }
    }

    // ---- the class-push ladder (§4.2) ----

    /// Sends `method` with `args` to `dest` under `token`, the first rung
    /// of a [`ClassLadder`] for an object of `class`.
    pub(crate) fn place<T: serde::Serialize + ?Sized>(
        &self,
        env: &mut Env<'_, '_>,
        dest: NodeId,
        method: NameId,
        args: &T,
        class: NameId,
        token: u64,
    ) -> ClassLadder {
        // The ladder may resend the request, so it keeps its own bytes.
        // They are not encoded in the node's scratch buffer, which would
        // then hold the largest object state the node ever moved.
        let request = mage_codec::to_bytes(args).expect("service args encode");
        env.call(dest, self.ids.service, method, &request, token);
        ClassLadder {
            dest,
            class,
            method,
            request,
            rung: Rung::Sent,
        }
    }

    /// Steps `ladder` on `result`, the reply to its latest call. The first
    /// `ClassMissing` pushes the class under `token` when this node caches
    /// it, and an acknowledged push resends the request; both return
    /// `None`, and the owner parks its task again. Any other reply is the
    /// ladder's answer and goes back to the owner.
    pub(crate) fn climb(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        ladder: &mut ClassLadder,
        result: Result<Bytes, RmiError>,
    ) -> Option<Result<Bytes, RmiError>> {
        let missing = matches!(result, Err(RmiError::Fault(Fault::ClassMissing(_))));
        match ladder.rung {
            Rung::Sent if missing => {
                let Some(args) = self.class_transfer_args(ladder.class) else {
                    return Some(result);
                };
                self.call_service(env, ladder.dest, self.ids.receive_class, &args, token);
                ladder.rung = Rung::Pushing;
                None
            }
            Rung::Pushing if result.is_ok() => {
                let (dest, service) = (ladder.dest, self.ids.service);
                env.call(dest, service, ladder.method, &ladder.request, token);
                ladder.rung = Rung::Resent;
                None
            }
            _ => Some(result),
        }
    }

    /// Settles one checkpoint's answer (see
    /// [`MageNode::settle_checkpoint`]) once its ladder gives one.
    fn step_checkpoint(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut task: CheckpointTask,
        result: Result<Bytes, RmiError>,
    ) {
        let Some(result) = self.climb(env, token, &mut task.ladder, result) else {
            self.tasks.insert(token, Task::Checkpoint(task));
            return;
        };
        let held = match result {
            Ok(reply) => decode::<bool>(&reply).unwrap_or(false),
            Err(e) => {
                if env.trace_enabled() {
                    env.note(format!(
                        "checkpoint of {} to {} dropped: {e}",
                        self.name_str(task.head.name),
                        task.ladder.dest
                    ));
                }
                false
            }
        };
        self.settle_checkpoint(env, &task, held);
    }

    // ---- driver find ----

    pub(crate) fn start_client_find(
        &mut self,
        env: &mut Env<'_, '_>,
        op: OpId,
        key: CompKey,
        home_hint: Option<u32>,
    ) {
        env.charge(self.config.bind_overhead);
        let me = env.node();
        let waiter = FindWaiter::Op(op);
        if self.has_component(key) {
            let found = self.local_find_reply(key, me);
            return waiter.answer(self, env, found, None);
        }
        if self.in_transit(key) {
            // Our own object is mid-move: answer when the transfer settles.
            return self.park_in_transit(key, TransitWaiter::Find(waiter));
        }
        // The local registry entry is the *start* of the forwarding chain,
        // not the answer: shared objects move behind our back, so a find
        // must walk the chain to the hosting server and verify (§4.1).
        let start = self
            .registry
            .lookup(key)
            .map(|entry| entry.node)
            .filter(|n| *n != me)
            .or_else(|| home_hint.map(NodeId::from_raw).filter(|h| *h != me));
        match start {
            Some(start) => {
                let walk = Walk::Find(FindArgs {
                    key,
                    visited: vec![me.as_raw()],
                    home: home_hint,
                    retried: false,
                });
                let token = self.next_token();
                self.send_walk(env, start, &walk, token);
                self.tasks.insert(token, Task::Walk { waiter, walk });
            }
            None => {
                let err = MageError::NotFound(key.display(&self.syms));
                self.complete(env, op, Err(err));
            }
        }
    }

    // ---- driver lock / unlock ----

    pub(crate) fn start_client_call(
        &mut self,
        env: &mut Env<'_, '_>,
        op: OpId,
        name: NameId,
        home_hint: Option<u32>,
        kind: ClientCallKind,
    ) {
        env.charge(self.config.bind_overhead);
        let token = self.next_token();
        let call = ClientCall {
            op,
            name,
            home_hint: home_hint.map(NodeId::from_raw),
            finding: true,
            kind,
        };
        self.client_call_locate(env, token, call);
    }

    /// Calls from local location knowledge, or parks `call` on a find
    /// from the home.
    fn client_call_locate(&mut self, env: &mut Env<'_, '_>, token: u64, mut call: ClientCall) {
        let key = CompKey::object(call.name);
        match self.locate_start(env, key, None, call.home_hint, &[]) {
            Ok(Start::Known(at)) => self.client_call_send(env, token, call, at),
            Ok(Start::Home(home)) => {
                self.send_find(env, home, key, token);
                call.finding = true;
                self.tasks.insert(token, Task::Client(call));
            }
            Err(e) => self.complete(env, call.op, Err(e)),
        }
    }

    /// Sends `call`'s request to where `at` says the object is and parks
    /// it on the answer. Identity rides with location knowledge: a lock
    /// applies to the incarnation that told us where the object is.
    fn client_call_send(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut call: ClientCall,
        at: Located,
    ) {
        match call.kind {
            ClientCallKind::Lock { target, .. } => {
                let expected = Some(at.incarnation);
                self.send_lock(env, at.node, call.name, target, expected, token);
            }
            ClientCallKind::Unlock => self.send_unlock(env, at.node, call.name, token),
        }
        call.finding = false;
        self.tasks.insert(token, Task::Client(call));
    }

    fn step_client_call(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut call: ClientCall,
        result: Result<Bytes, RmiError>,
    ) {
        let bytes = match result {
            Ok(bytes) => bytes,
            Err(RmiError::Fault(Fault::NotBound(_) | Fault::StaleIdentity { .. }))
                if !call.finding && call.kind.spend_retry() =>
            {
                // The object moved — or was re-created — between find and
                // lock; chase it. A name-keyed lock is advisory about
                // identity (like a bind), so the retry re-resolves the
                // current incarnation and locks that knowingly; it never
                // silently applies to a successor under stale knowledge.
                self.registry.remove(CompKey::object(call.name));
                return self.client_call_locate(env, token, call);
            }
            // Neither a failed find nor an unreachable host is chased.
            Err(e) => return self.complete(env, call.op, Err(rmi_error_to_mage(&e))),
        };
        if call.finding {
            match decode::<FindReply>(&bytes) {
                Ok(found) => {
                    let at = Located::new(NodeId::from_raw(found.location), found.incarnation);
                    self.registry.update(CompKey::object(call.name), at);
                    self.client_call_send(env, token, call, at);
                }
                Err(e) => self.complete(env, call.op, Err(e)),
            }
            return;
        }
        let outcome = match call.kind {
            ClientCallKind::Lock { target, .. } => decode::<LockKind>(&bytes).map(|kind| Outcome {
                location: target.as_raw(),
                lock_kind: Some(kind),
                ..Outcome::default()
            }),
            ClientCallKind::Unlock => Ok(Outcome {
                location: env.node().as_raw(),
                ..Outcome::default()
            }),
        };
        self.complete(env, call.op, outcome);
    }

    // ---- the move-out protocol (Figure 7, messages 4/5) ----

    /// Moves `name` to `dest` for `origin`. With `invoke`, the `receive`
    /// carries an act's invocation and its one-way flag, and the
    /// destination runs the invocation once the object is hosted there (see
    /// [`ActPlan::invokes_on_arrival`](proto::ActPlan::invokes_on_arrival)).
    pub(crate) fn begin_move_out(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
        dest: NodeId,
        origin: MoveOrigin,
        invoke: Option<(proto::InvokeArgsRef<'_>, bool)>,
    ) {
        let Some(hosted) = self.objects.get_mut(&name) else {
            let err = MageError::NotFound(self.name_str(name));
            self.finish_move_failed(env, origin, err);
            return;
        };
        if hosted.in_transit {
            let err = MageError::BadPlan(format!("{} is already in transit", self.name_str(name)));
            self.finish_move_failed(env, origin, err);
            return;
        }
        let state = match hosted.object.snapshot() {
            Ok(state) => state,
            Err(fault) => {
                self.finish_move_failed(env, origin, proto::fault_to_error(&fault));
                return;
            }
        };
        hosted.in_transit = true;
        let class = hosted.class;
        let home = hosted.home;
        let visibility = hosted.visibility;
        let version = hosted.version + 1;
        let incarnation = hosted.incarnation;
        let durability = hosted.durability;
        let backup = hosted.backup;
        let snapshot_epoch = hosted.snapshot_epoch;
        let (holders, parked_waiters) = self.locks.extract(name);
        let receive_args = proto::ReceiveArgs {
            name,
            class,
            state: ByteBuf(state),
            home: home.as_raw(),
            visibility,
            version,
            incarnation,
            locks: holders,
            durability,
            backup: backup.map(|n| n.as_raw()),
            snapshot_epoch,
        };
        let token = self.next_token();
        let receive = self.ids.receive;
        // The invocation follows the arguments, so a plain move's bytes
        // stay as they were.
        let ladder = match invoke {
            None => self.place(env, dest, receive, &receive_args, class, token),
            Some(invoke) => self.place(env, dest, receive, &(&receive_args, invoke), class, token),
        };
        let task = MoveOutTask {
            name,
            origin,
            ladder,
            incarnation,
            two_way: invoke.is_some_and(|(_, one_way)| !one_way),
            locks: receive_args.locks,
            parked_waiters,
        };
        self.tasks.insert(token, Task::MoveOut(task));
    }

    fn step_move(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut task: MoveOutTask,
        result: Result<Bytes, RmiError>,
    ) {
        match self.climb(env, token, &mut task.ladder, result) {
            None => {
                self.tasks.insert(token, Task::MoveOut(task));
            }
            Some(Ok(reply)) => {
                // Transfer acknowledged: drop the local copy and leave a
                // forwarding address (§4.1) carrying the incarnation — a
                // move is the same identity at a new home.
                self.objects.remove(&task.name);
                let at = Located::new(task.ladder.dest, task.incarnation);
                self.registry.update(CompKey::object(task.name), at);
                self.finish_move_ok(env, task, &reply);
            }
            Some(Err(e)) => self.abort_move(env, task, rmi_error_to_mage(&e)),
        }
    }

    /// Settles everything parked on `name` during its transit: a find
    /// hears `location` (the destination on commit, this node on abort)
    /// and the moved object's incarnation, and this node's own exec task
    /// acts again. A remote act goes on to the destination after a
    /// commit. After an abort it is refused `NotBound`, which its caller
    /// retries as any stale location: the abort spent a whole call budget,
    /// so the caller may have re-sent the act already, and running this
    /// copy too would invoke twice.
    fn flush_transit(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
        location: NodeId,
        incarnation: Incarnation,
    ) {
        let found = FindReply {
            location: location.as_raw(),
            incarnation,
        };
        // An aborted move leaves the object here; a committed one at `location`.
        let aborted = location == env.node();
        for waiter in self.transit_waiters.remove(&name).unwrap_or_default() {
            match waiter {
                TransitWaiter::Find(waiter) => waiter.answer(self, env, found, None),
                TransitWaiter::Act(handle, _) if aborted => {
                    env.reply(handle, Err(Fault::NotBound(self.name_str(name))));
                }
                TransitWaiter::Act(handle, act) => self.serve_walk(env, handle, Walk::Act(act)),
                TransitWaiter::Exec(id) => {
                    if let Some(Task::Exec(task)) = self.tasks.remove(&id) {
                        self.exec_begin_action(env, id, task);
                    }
                }
            }
        }
    }

    fn abort_move(&mut self, env: &mut Env<'_, '_>, task: MoveOutTask, err: MageError) {
        // Restore the object to service at this namespace.
        if let Some(hosted) = self.objects.get_mut(&task.name) {
            hosted.in_transit = false;
        }
        let me = env.node();
        // Re-home: the aborted transfer (e.g. to a crashed target) must
        // leave the registry pointing at the surviving copy, not at
        // whatever the chain said before the move started.
        let at = Located::new(me, task.incarnation);
        self.registry.update(CompKey::object(task.name), at);
        self.locks.install(task.name, task.locks);
        // Re-queue the waiters we parked; immediate grants are answered
        // directly (reply handles are Copy).
        for waiter in task.parked_waiters {
            match self
                .locks
                .request(task.name, waiter.client, waiter.target, me, waiter.payload)
            {
                crate::lock::Request::Granted(kind) => {
                    self.deliver_grant(
                        env,
                        crate::lock::Grant {
                            name: task.name,
                            waiter: waiter.payload,
                            client: waiter.client,
                            kind,
                        },
                    );
                }
                crate::lock::Request::Queued => {}
            }
        }
        if env.trace_enabled() {
            env.note(format!(
                "move of {} to {} failed: {err}",
                self.name_str(task.name),
                task.ladder.dest
            ));
        }
        self.finish_move_failed(env, task.origin, err);
        // Last, once the object's lock state is whole again: finds that
        // arrived mid-move resolve right back here, and an exec task of
        // this node may invoke here or start a move of its own, which
        // packs the holders.
        self.flush_transit(env, task.name, me, task.incarnation);
    }

    /// Settles a committed move. `reply` is the destination's answer to
    /// the `receive`: for a two-way invocation carried along, its outcome
    /// and result, which go back in the act reply (or to the local task)
    /// with no second call; a fault of the invocation goes back typed,
    /// and the move stands.
    fn finish_move_ok(&mut self, env: &mut Env<'_, '_>, task: MoveOutTask, reply: &Bytes) {
        // Only now that the forwarding address is in place do we bounce the
        // queued waiters: their retry re-finds the object at its new host.
        for waiter in task.parked_waiters {
            env.reply(
                waiter.payload,
                Err(Fault::NotBound(format!(
                    "{} moved",
                    self.name_str(task.name)
                ))),
            );
        }
        // Finds that arrived mid-move resolve to the destination.
        let dest = task.ladder.dest;
        self.flush_transit(env, task.name, dest, task.incarnation);
        let invoked = if task.two_way {
            proto::ReceiveArgs::split_reply(reply)
                .unwrap_or_else(|e| Err(Fault::App(e.to_string())))
        } else {
            Ok(Bytes::new())
        };
        match task.origin {
            MoveOrigin::Act { handle, situation } => match invoked {
                Ok(result) => {
                    let head = proto::ActReply {
                        location: dest.as_raw(),
                        incarnation: task.incarnation,
                        situation,
                        moved: true,
                    };
                    self.reply_headed(env, handle, &head, &result);
                }
                Err(fault) => {
                    env.reply(handle, Err(fault));
                }
            },
            MoveOrigin::Exec(exec_id) => {
                if let Some(Task::Exec(t)) = self.tasks.remove(&exec_id) {
                    let placed = invoked
                        .map(|result| (dest, task.incarnation, result))
                        .map_err(|fault| proto::fault_to_error(&fault));
                    self.exec_move_done(env, exec_id, t, placed);
                }
            }
            MoveOrigin::Autonomous => {
                if env.trace_enabled() {
                    let name = self.name_str(task.name);
                    env.note(format!("agent {name} hopped to {dest}"));
                }
            }
        }
    }

    fn finish_move_failed(&mut self, env: &mut Env<'_, '_>, origin: MoveOrigin, err: MageError) {
        match origin {
            MoveOrigin::Act { handle, .. } => {
                env.reply(handle, Err(error_to_fault(&err)));
            }
            MoveOrigin::Exec(exec_id) => {
                if let Some(Task::Exec(t)) = self.tasks.remove(&exec_id) {
                    self.exec_move_done(env, exec_id, t, Err(err));
                }
            }
            MoveOrigin::Autonomous => {
                if env.trace_enabled() {
                    env.note(format!("autonomous hop failed: {err}"));
                }
            }
        }
    }
}
