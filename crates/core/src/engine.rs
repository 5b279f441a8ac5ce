//! Client-side protocol engines and server-side continuations.
//!
//! A mobility attribute's `bind` is "a complex wrapper for RMI's
//! `Naming.lookup`" (§4.2): it finds the component, optionally locks it,
//! moves or instantiates it, invokes it and unlocks — each step an RMI call
//! whose reply drives the next. A driver's own `find`, `lock` and `unlock`
//! take the same steps. This module holds those state machines:
//!
//! * [`ExecTask`] — the bind/invoke engine run on the client's node
//! * [`ClientCall`] — a driver `lock` or `unlock`: locate, then one call
//! * finds — a driver find, or one forwarded along the registry's chain
//!   with path compression (§4.1); either way a [`FindWaiter`] hears the
//!   answer
//! * [`MoveOutTask`] — the hosting node's half of the move protocol
//!   (Figure 7's messages 4/5), shared by `moveTo` requests, client-local
//!   moves and autonomous mobile-agent hops
//! * [`CheckpointTask`] — a durability snapshot on its way to a backup
//!
//! A move, a checkpoint and a remote instantiation each place an object
//! at a namespace that may lack its class. All three ride one
//! [`ClassLadder`]: [`MageNode::place`] sends the request, and
//! [`MageNode::climb`] pushes the class on the first `ClassMissing` and
//! then resends, so each owner handles only the final answer.
//!
//! Every locate goes through [`MageNode::resolve_location`], and every
//! find, lock and unlock request is built by [`MageNode::send_find`],
//! [`MageNode::send_lock`] or [`MageNode::send_unlock`]. Tasks carry
//! interned [`NameId`]s / [`CompKey`]s; strings are resolved only on error
//! paths.
#![warn(clippy::too_many_lines)]

use bytes::Bytes;
use mage_codec::ByteBuf;
use mage_rmi::{Env, Fault, NameId, ReplyHandle, RmiError};
use mage_sim::{NodeId, OpId};

use crate::error::MageError;
use crate::lock::LockKind;
use crate::node::MageNode;
use crate::proto::{self, FindReply, Outcome};
use crate::registry::{CompKey, Incarnation, Located};

/// A continuation awaiting an RMI reply (keyed by its call token).
// `Exec` is several times the other variants' size. Every entry of the
// task table pays for it in place; boxing it would instead cost an
// allocation per exec call, the steady-state path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Task {
    /// A find walk on behalf of `waiter`: a driver find issued here, or a
    /// remote caller's find this node forwards along the chain.
    Find {
        waiter: FindWaiter,
        key: CompKey,
        /// Origin-server hint for the once-only dead-hop retry.
        home: Option<u32>,
        /// Whether the walk is already the once-only home retry.
        retried: bool,
    },
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

/// Who hears a find's answer: a remote caller whose find this node parked
/// or forwarded, or a driver find issued at this node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FindWaiter {
    /// A remote `mage.find` call awaiting its RMI reply.
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
    /// A remote `moveTo` caller awaiting a reply.
    Reply(ReplyHandle),
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
    /// Lock holders packed with the object; reinstalled if the move aborts.
    pub locks: crate::lock::HolderTransfer,
    /// Waiters removed from the lock queue at pack time. Bounced after the
    /// move commits (so their re-find sees the forwarding address) or
    /// re-queued if the move aborts.
    pub parked_waiters: Vec<crate::lock::QueuedWaiter<ReplyHandle>>,
}

/// The exec stage a find was issued for. It re-enters once the find
/// answers, then finds the location known (or, after a dead hop,
/// forgotten and due to be resolved again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    Guard,
    Action,
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
    AwaitMove,
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
    /// Finds, locks and moves do not qualify: a live peer may hold them
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
    /// move and instantiate reply); invocations carry it as `expected`.
    pub cinc: Option<Incarnation>,
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
    /// Sends a fresh find walk for `key` to `to` under `token`; the walk
    /// has visited only this node.
    pub(crate) fn send_find(
        &mut self,
        env: &mut Env<'_, '_>,
        to: NodeId,
        key: CompKey,
        home: Option<u32>,
        retried: bool,
        token: u64,
    ) {
        let args = proto::FindArgs {
            key,
            visited: vec![env.node().as_raw()],
            home,
            retried,
        };
        self.call_service(env, to, self.ids.find, &args, token);
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

    /// Where `key` is, and which incarnation lives there, as far as this
    /// node knows; the one locate step of binds, locks and unlocks.
    ///
    /// The sources, in order: the component hosted here, the registry
    /// entry, the caller's `hint`, and else a find sent to `home` under
    /// `token`, in which case this returns `Ok(None)` and the caller parks
    /// its task on the answer. Knowledge naming a peer in `dead` (one that
    /// died under the caller's op) is passed over and counted as a
    /// `dead_peer_skips`; a find that would have to start at a dead home
    /// fails at once with the `Unreachable` the walk would reach after
    /// spending its retries on that peer. Nothing to go on is `NotFound`.
    pub(crate) fn resolve_location(
        &mut self,
        env: &mut Env<'_, '_>,
        key: CompKey,
        hint: Option<Located>,
        home: Option<NodeId>,
        dead: &[NodeId],
        token: u64,
    ) -> Result<Option<Located>, MageError> {
        let me = env.node();
        if self.has_component(key) {
            return Ok(Some(Located::new(me, self.local_incarnation(key))));
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
            return Ok(Some(loc));
        }
        match home.filter(|h| *h != me) {
            Some(home) if !usable(env, home) => Err(MageError::Unreachable {
                peer: home.as_raw(),
            }),
            Some(start) => {
                let home = home.map(NodeId::as_raw);
                self.send_find(env, start, key, home, false, token);
                Ok(None)
            }
            None => Err(MageError::NotFound(key.display(&self.syms))),
        }
    }

    /// Issues the once-only home retry of a find walk that dead-ended: a
    /// fresh walk from `home`, parked for `waiter` under a new token.
    /// Returns `false` without side effects when the hint is absent or
    /// points here (the caller surfaces its error instead).
    pub(crate) fn retry_find_from_home(
        &mut self,
        env: &mut Env<'_, '_>,
        waiter: FindWaiter,
        key: CompKey,
        home: Option<u32>,
    ) -> bool {
        let me = env.node();
        let Some(h) = home.map(NodeId::from_raw).filter(|h| *h != me) else {
            return false;
        };
        let token = self.spawn_task(Task::Find {
            waiter,
            key,
            home,
            retried: true,
        });
        self.send_find(env, h, key, home, true, token);
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
            Task::Find {
                waiter,
                key,
                home,
                retried,
            } => self.step_find(env, waiter, key, home, retried, result),
            Task::Client(call) => self.step_client_call(env, token, call, result),
            Task::Exec(t) => self.step_exec_reply(env, token, t, result),
            Task::MoveOut(t) => self.step_move(env, token, t, result),
            Task::Checkpoint(t) => self.step_checkpoint(env, token, t, result),
        }
    }

    /// Answers a find's waiter from the next hop's reply.
    fn step_find(
        &mut self,
        env: &mut Env<'_, '_>,
        waiter: FindWaiter,
        key: CompKey,
        home: Option<u32>,
        retried: bool,
        result: Result<Bytes, RmiError>,
    ) {
        let bytes = match result {
            Ok(bytes) => bytes,
            Err(err) => {
                // The hop we followed failed, so the entry that led there
                // is stale. A forwarding node repairs it whatever the
                // failure, so the bad chain dies with this walk; a driver
                // find only when the hop is dead. A dead hop earns the
                // once-only retry from the component's home.
                let dead = is_unreachable(&err);
                if dead || matches!(waiter, FindWaiter::Reply(_)) {
                    self.registry.remove(key);
                }
                let retrying =
                    dead && !retried && self.retry_find_from_home(env, waiter, key, home);
                if !retrying {
                    waiter.fail(self, env, &err);
                }
                return;
            }
        };
        match decode::<FindReply>(&bytes) {
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
        if self.park_transit_find(key, waiter) {
            // Our own object is mid-move: answer when the transfer settles.
            return;
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
                let token = self.spawn_task(Task::Find {
                    waiter,
                    key,
                    home: home_hint,
                    retried: false,
                });
                self.send_find(env, start, key, home_hint, false, token);
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

    /// Calls from local location knowledge, or parks `call` on the find
    /// that [`resolve_location`](Self::resolve_location) issues.
    fn client_call_locate(&mut self, env: &mut Env<'_, '_>, token: u64, mut call: ClientCall) {
        let key = CompKey::object(call.name);
        match self.resolve_location(env, key, None, call.home_hint, &[], token) {
            Ok(Some(at)) => self.client_call_send(env, token, call, at),
            Ok(None) => {
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

    pub(crate) fn begin_move_out(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
        dest: NodeId,
        origin: MoveOrigin,
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
        let ladder = self.place(env, dest, self.ids.receive, &receive_args, class, token);
        let task = MoveOutTask {
            name,
            origin,
            ladder,
            incarnation,
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
            Some(Ok(_)) => {
                // Transfer acknowledged: drop the local copy and leave a
                // forwarding address (§4.1) carrying the incarnation — a
                // move is the same identity at a new home.
                self.objects.remove(&task.name);
                let at = Located::new(task.ladder.dest, task.incarnation);
                self.registry.update(CompKey::object(task.name), at);
                self.finish_move_ok(env, task);
            }
            Some(Err(e)) => self.abort_move(env, task, rmi_error_to_mage(&e)),
        }
    }

    /// Answers every find parked on `name` during its transit with
    /// `location` (the destination on commit, this node on abort) and the
    /// moved object's incarnation.
    fn flush_transit_finds(
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
        for waiter in self.transit_finds.remove(&name).unwrap_or_default() {
            waiter.answer(self, env, found, None);
        }
    }

    fn abort_move(&mut self, env: &mut Env<'_, '_>, task: MoveOutTask, err: MageError) {
        // Restore the object to service at this namespace.
        if let Some(hosted) = self.objects.get_mut(&task.name) {
            hosted.in_transit = false;
        }
        // Finds that arrived mid-move resolve right back here.
        let me = env.node();
        // Re-home: the aborted transfer (e.g. to a crashed target) must
        // leave the registry pointing at the surviving copy, not at
        // whatever the chain said before the move started.
        let at = Located::new(me, task.incarnation);
        self.registry.update(CompKey::object(task.name), at);
        self.flush_transit_finds(env, task.name, me, task.incarnation);
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
    }

    fn finish_move_ok(&mut self, env: &mut Env<'_, '_>, task: MoveOutTask) {
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
        self.flush_transit_finds(env, task.name, dest, task.incarnation);
        match task.origin {
            MoveOrigin::Reply(handle) => {
                let payload = mage_codec::to_bytes(&FindReply {
                    location: dest.as_raw(),
                    incarnation: task.incarnation,
                })
                .expect("find reply encodes");
                env.reply(handle, Ok(payload));
            }
            MoveOrigin::Exec(exec_id) => {
                if let Some(Task::Exec(t)) = self.tasks.remove(&exec_id) {
                    self.exec_move_done(env, exec_id, t, Ok((dest, task.incarnation)));
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
            MoveOrigin::Reply(handle) => {
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
