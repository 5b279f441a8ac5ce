//! Client-side protocol engines and server-side continuations.
//!
//! A mobility attribute's `bind` is "a complex wrapper for RMI's
//! `Naming.lookup`" (§4.2): it finds the component, optionally locks it,
//! moves or instantiates it, invokes it and unlocks — each step an RMI call
//! whose reply drives the next. This module holds those state machines:
//!
//! * [`ExecTask`] — the bind/invoke engine run on the client's node
//! * [`MoveOutTask`] — the hosting node's half of the move protocol
//!   (Figure 7's messages 4/5), shared by `moveTo` requests, client-local
//!   moves and autonomous mobile-agent hops
//! * forwarded finds — the registry's chain-walking with path compression
//!
//! Tasks carry interned [`NameId`]s / [`CompKey`]s; strings are resolved
//! only on error paths.

use std::sync::Arc;

use bytes::Bytes;
use mage_codec::ByteBuf;
use mage_rmi::{Env, Fault, NameId, ReplyHandle, RmiError};
use mage_sim::{NodeId, OpId};

use crate::error::MageError;
use crate::lock::LockKind;
use crate::node::{MageNode, TransitFindWaiter};
use crate::proto::{self, FindReply, Outcome};
use crate::registry::{CompKey, Incarnation, Located};

/// A continuation awaiting an RMI reply (keyed by its call token).
pub(crate) enum Task {
    /// A driver-initiated find.
    ClientFind {
        op: OpId,
        key: CompKey,
        /// Origin-server hint for the once-only dead-hop retry.
        home: Option<u32>,
        /// Whether the dead-hop retry has been spent.
        retried: bool,
    },
    /// A driver-initiated lock acquisition.
    ClientLock(ClientLockTask),
    /// A driver-initiated unlock.
    ClientUnlock(ClientUnlockTask),
    /// A bind/invoke engine.
    Exec(Box<ExecTask>),
    /// A find being forwarded along the chain on behalf of a caller.
    FwdFind {
        reply: ReplyHandle,
        key: CompKey,
        /// Origin-server hint riding with the walk.
        home: Option<u32>,
        /// Whether this walk is already the once-only home retry.
        retried: bool,
    },
    /// An object transfer out of this namespace.
    MoveOut(MoveOutTask),
    /// A durability snapshot in flight to a backup home.
    Checkpoint(CheckpointTask),
}

/// Where a move or checkpoint stands on the class-push ladder: a target
/// that answers `ClassMissing` gets the class pushed once, then the
/// original call again (a backup must hold the class to be able to
/// restore, a move target to reify the object).
pub(crate) enum PushPhase {
    /// The original call is in flight; `retried_class` once the class
    /// push has been spent.
    Sent { retried_class: bool },
    /// The class push is in flight.
    SentClass,
}

/// A checkpoint in flight to a backup home: a full snapshot, or a
/// confirmation of one the backup acknowledged earlier.
pub(crate) struct CheckpointTask {
    pub dest: NodeId,
    pub head: proto::CheckpointHeader,
    /// The full snapshot, shared with the object's
    /// [`ShippedSnapshot`](crate::node::ShippedSnapshot) record and kept
    /// for the re-send after a class push; `None` for a confirmation.
    pub state: Option<Arc<Vec<u8>>>,
    pub phase: PushPhase,
}

pub(crate) struct ClientLockTask {
    pub op: OpId,
    pub name: NameId,
    pub target: NodeId,
    pub home_hint: Option<NodeId>,
    pub phase: LocatePhase,
    pub retries: u8,
    /// Incarnation the lock expects to apply to (learned from the find or
    /// the registry); a re-creation racing the lock resolves to typed
    /// `StaleIdentity`, and a retry re-resolves before locking again.
    pub expected: Option<Incarnation>,
}

pub(crate) struct ClientUnlockTask {
    pub op: OpId,
    pub name: NameId,
    pub home_hint: Option<NodeId>,
    pub phase: LocatePhase,
}

/// Whether a locate-then-call task is waiting on the find or the call.
pub(crate) enum LocatePhase {
    Finding,
    Calling,
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
    pub dest: NodeId,
    pub origin: MoveOrigin,
    pub phase: PushPhase,
    pub receive_args: proto::ReceiveArgs,
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
    AwaitPushClass {
        dest: NodeId,
    },
    AwaitInstantiate {
        dest: NodeId,
        retried_class: bool,
    },
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
                | ExecPhase::AwaitInstantiate { .. }
                | ExecPhase::AwaitFetchClass { .. }
                | ExecPhase::AwaitPushClass { .. }
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

    /// Whether location resolution must pass over `peer` because it died
    /// under this op; counts the skip when it does.
    pub(crate) fn skip_dead(&self, env: &mut Env<'_, '_>, peer: NodeId) -> bool {
        let dead = self.dead_peers.contains(&peer);
        if dead {
            env.count("dead_peer_skips");
        }
        dead
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
    /// Issues the once-only home retry of a find walk that dead-ended: a
    /// fresh walk from `home` with the visited set reset, parking the
    /// task built by `make_task` under a new token. Returns `false`
    /// without side effects when the hint is absent or points here (the
    /// caller surfaces its error instead).
    pub(crate) fn retry_find_from_home(
        &mut self,
        env: &mut Env<'_, '_>,
        key: CompKey,
        home: Option<u32>,
        make_task: impl FnOnce() -> Task,
    ) -> bool {
        let me = env.node();
        let Some(h) = home.map(NodeId::from_raw).filter(|h| *h != me) else {
            return false;
        };
        let token = self.spawn_task(make_task());
        let args = proto::FindArgs {
            key,
            visited: vec![me.as_raw()],
            home,
            retried: true,
        };
        self.call_service(env, h, self.ids.find, &args, token);
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
            Task::FwdFind {
                reply,
                key,
                home,
                retried,
            } => self.step_fwd_find(env, reply, key, home, retried, result),
            Task::ClientFind {
                op,
                key,
                home,
                retried,
            } => self.step_client_find(env, op, key, home, retried, result),
            Task::ClientLock(t) => self.step_client_lock(env, token, t, result),
            Task::ClientUnlock(t) => self.step_client_unlock(env, token, t, result),
            Task::Exec(t) => self.step_exec_reply(env, token, *t, result),
            Task::MoveOut(t) => self.step_move(env, token, t, result),
            Task::Checkpoint(t) => self.step_checkpoint(env, token, t, result),
        }
    }

    /// Answers a forwarded find's caller from the next hop's reply.
    fn step_fwd_find(
        &mut self,
        env: &mut Env<'_, '_>,
        reply: ReplyHandle,
        key: CompKey,
        home: Option<u32>,
        retried: bool,
        result: Result<Bytes, RmiError>,
    ) {
        match result {
            Ok(bytes) => match decode::<FindReply>(&bytes) {
                Ok(found) => {
                    // Path compression: remember the final location and
                    // incarnation, collapsing the chain (§4.1).
                    self.registry.update(
                        key,
                        Located::new(NodeId::from_raw(found.location), found.incarnation),
                    );
                    // Forward the payload straight out of the received
                    // frame — no copy.
                    env.reply_with(reply, Ok(&bytes));
                }
                Err(e) => {
                    env.reply(reply, Err(Fault::App(e.to_string())));
                }
            },
            Err(err) => {
                // The hop we followed failed: the entry that led there is
                // stale — repair it so the bad chain dies with this walk. A
                // dead hop earns the once-only retry from the component's
                // home.
                self.registry.remove(key);
                if is_unreachable(&err)
                    && !retried
                    && self.retry_find_from_home(env, key, home, || Task::FwdFind {
                        reply,
                        key,
                        home,
                        retried: true,
                    })
                {
                    return;
                }
                match err {
                    RmiError::Fault(fault) => env.reply(reply, Err(fault)),
                    RmiError::PeerUnreachable { peer, .. } => env.reply(
                        reply,
                        Err(Fault::Unreachable {
                            peer: peer.as_raw(),
                        }),
                    ),
                    other => env.reply(reply, Err(Fault::App(other.to_string()))),
                };
            }
        }
    }

    /// Completes a driver find from the walk's answer.
    fn step_client_find(
        &mut self,
        env: &mut Env<'_, '_>,
        op: OpId,
        key: CompKey,
        home: Option<u32>,
        retried: bool,
        result: Result<Bytes, RmiError>,
    ) {
        match result {
            Ok(bytes) => match decode::<FindReply>(&bytes) {
                Ok(found) => {
                    self.registry.update(
                        key,
                        Located::new(NodeId::from_raw(found.location), found.incarnation),
                    );
                    self.complete(
                        env,
                        op,
                        Ok(Outcome {
                            location: found.location,
                            incarnation: found.incarnation,
                            ..Outcome::default()
                        }),
                    );
                }
                Err(e) => self.complete(env, op, Err(e)),
            },
            Err(e) => {
                if is_unreachable(&e) {
                    // The first hop (or one behind it) is dead; our entry
                    // pointing there is stale.
                    self.registry.remove(key);
                    if !retried
                        && self.retry_find_from_home(env, key, home, || Task::ClientFind {
                            op,
                            key,
                            home,
                            retried: true,
                        })
                    {
                        return;
                    }
                }
                self.complete(env, op, Err(rmi_error_to_mage(&e)));
            }
        }
    }

    // ---- durability checkpoint shipping ----

    /// Drives one checkpoint to its backup home and settles its answer
    /// (see [`MageNode::settle_checkpoint`]). A `ClassMissing` fault
    /// pushes the class and re-sends once.
    fn step_checkpoint(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut task: CheckpointTask,
        result: Result<Bytes, RmiError>,
    ) {
        match task.phase {
            PushPhase::Sent { retried_class } => match result {
                Ok(reply) => {
                    let held = decode::<bool>(&reply).unwrap_or(false);
                    self.settle_checkpoint(env, &task, held);
                }
                Err(RmiError::Fault(Fault::ClassMissing(_))) if !retried_class => {
                    if !self.push_class(env, task.dest, task.head.class, token) {
                        if env.trace_enabled() {
                            env.note(format!(
                                "checkpoint of {} dropped: class {} undefined",
                                self.name_str(task.head.name),
                                self.name_str(task.head.class)
                            ));
                        }
                        self.settle_checkpoint(env, &task, false);
                        return;
                    }
                    task.phase = PushPhase::SentClass;
                    self.tasks.insert(token, Task::Checkpoint(task));
                }
                Err(e) => {
                    if env.trace_enabled() {
                        env.note(format!(
                            "checkpoint of {} to {} dropped: {e}",
                            self.name_str(task.head.name),
                            task.dest
                        ));
                    }
                    self.settle_checkpoint(env, &task, false);
                }
            },
            PushPhase::SentClass => match result {
                Ok(_) => {
                    self.send_checkpoint(env, token, &task);
                    task.phase = PushPhase::Sent {
                        retried_class: true,
                    };
                    self.tasks.insert(token, Task::Checkpoint(task));
                }
                Err(e) => {
                    if env.trace_enabled() {
                        env.note(format!(
                            "checkpoint class push to {} dropped: {e}",
                            task.dest
                        ));
                    }
                    self.settle_checkpoint(env, &task, false);
                }
            },
        }
    }

    /// Pushes `class` to `dest` under `token`, the middle rung of the
    /// class-push ladder (see [`PushPhase`]). Returns `false`, sending
    /// nothing, when the class library does not define the class.
    pub(crate) fn push_class(
        &self,
        env: &mut Env<'_, '_>,
        dest: NodeId,
        class: NameId,
        token: u64,
    ) -> bool {
        let Some(args) = self.class_transfer_args(class) else {
            return false;
        };
        self.call_service(env, dest, self.ids.receive_class, &args, token);
        true
    }

    /// Sends `task`'s full snapshot, or its confirmation, under `token`.
    pub(crate) fn send_checkpoint(&self, env: &mut Env<'_, '_>, token: u64, task: &CheckpointTask) {
        let method = self.ids.checkpoint;
        match &task.state {
            Some(state) => {
                let args = proto::CheckpointArgsRef {
                    head: &task.head,
                    state,
                };
                self.call_service(env, task.dest, method, &args, token);
            }
            None => self.call_service(env, task.dest, method, &task.head.confirmation(), token),
        }
    }

    // ---- locate helper ----

    /// Tries to determine where `key` is without a network call.
    ///
    /// Returns `Ok(Some(loc))` when known (possibly this node), `Ok(None)`
    /// after issuing a find with `token` (the caller parks its task), or an
    /// error when the component cannot be located at all.
    fn locate_step(
        &mut self,
        env: &mut Env<'_, '_>,
        key: CompKey,
        location_hint: Option<NodeId>,
        home_hint: Option<NodeId>,
        token: u64,
    ) -> Result<Option<NodeId>, MageError> {
        let me = env.node();
        if self.has_component(key) {
            return Ok(Some(me));
        }
        if let Some(entry) = self.registry.lookup(key) {
            if entry.node != me {
                return Ok(Some(entry.node));
            }
        }
        if let Some(hint) = location_hint {
            if hint != me {
                return Ok(Some(hint));
            }
        }
        let start = home_hint.filter(|h| *h != me);
        match start {
            Some(start) => {
                let args = proto::FindArgs {
                    key,
                    visited: vec![me.as_raw()],
                    home: home_hint.map(|h| h.as_raw()),
                    retried: false,
                };
                self.call_service(env, start, self.ids.find, &args, token);
                Ok(None)
            }
            None => Err(MageError::NotFound(key.display(&self.syms))),
        }
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
        if self.has_component(key) {
            let reply = self.local_find_reply(key, me);
            self.complete(
                env,
                op,
                Ok(Outcome {
                    location: reply.location,
                    incarnation: reply.incarnation,
                    ..Outcome::default()
                }),
            );
            return;
        }
        if key.kind == crate::registry::Kind::Object
            && self
                .objects
                .get(&key.id)
                .is_some_and(|hosted| hosted.in_transit)
        {
            // Our own object is mid-move: park like a remote find and
            // answer when the transfer settles.
            self.transit_finds
                .entry(key.id)
                .or_default()
                .push(TransitFindWaiter::Op(op));
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
                let token = self.next_token();
                let args = proto::FindArgs {
                    key,
                    visited: vec![me.as_raw()],
                    home: home_hint,
                    retried: false,
                };
                self.call_service(env, start, self.ids.find, &args, token);
                self.tasks.insert(
                    token,
                    Task::ClientFind {
                        op,
                        key,
                        home: home_hint,
                        retried: false,
                    },
                );
            }
            None => {
                let err = MageError::NotFound(key.display(&self.syms));
                self.complete(env, op, Err(err));
            }
        }
    }

    // ---- driver lock / unlock ----

    pub(crate) fn start_client_lock(
        &mut self,
        env: &mut Env<'_, '_>,
        op: OpId,
        name: NameId,
        target: u32,
        home_hint: Option<u32>,
    ) {
        env.charge(self.config.bind_overhead);
        let token = self.next_token();
        let task = ClientLockTask {
            op,
            name,
            target: NodeId::from_raw(target),
            home_hint: home_hint.map(NodeId::from_raw),
            phase: LocatePhase::Finding,
            retries: self.config.race_retries,
            expected: None,
        };
        self.client_lock_locate(env, token, task);
    }

    /// Locks from local location knowledge, or parks `task` on the find
    /// that [`locate_step`](Self::locate_step) issues.
    fn client_lock_locate(&mut self, env: &mut Env<'_, '_>, token: u64, mut task: ClientLockTask) {
        let key = CompKey::object(task.name);
        match self.locate_step(env, key, None, task.home_hint, token) {
            Ok(Some(loc)) => {
                // Identity rides with location knowledge: whatever told us
                // where the object is also told us which incarnation.
                task.expected = self.known_incarnation(key, loc);
                self.issue_lock_call(env, token, task, loc);
            }
            Ok(None) => {
                task.phase = LocatePhase::Finding;
                self.tasks.insert(token, Task::ClientLock(task));
            }
            Err(e) => self.complete(env, task.op, Err(e)),
        }
    }

    /// The incarnation this node believes lives at `loc` for `key`: its
    /// own hosted object when local, else the registry entry (if it agrees
    /// on the node). `None` when nothing identity-bearing is known.
    fn known_incarnation(&self, key: CompKey, loc: NodeId) -> Option<Incarnation> {
        let inc = if self.has_component(key) {
            self.local_incarnation(key)
        } else {
            self.registry
                .lookup(key)
                .filter(|entry| entry.node == loc)
                .map(|entry| entry.incarnation)
                .unwrap_or(Incarnation::NONE)
        };
        Some(inc).filter(|inc| !inc.is_none())
    }

    /// Sends `task`'s lock request to `at` and parks it on the answer.
    fn issue_lock_call(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut task: ClientLockTask,
        at: NodeId,
    ) {
        let args = proto::LockArgs {
            name: task.name,
            client: env.node().as_raw(),
            target: task.target.as_raw(),
            expected: task.expected,
        };
        self.call_service(env, at, self.ids.lock, &args, token);
        task.phase = LocatePhase::Calling;
        self.tasks.insert(token, Task::ClientLock(task));
    }

    fn step_client_lock(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut task: ClientLockTask,
        result: Result<Bytes, RmiError>,
    ) {
        match task.phase {
            LocatePhase::Finding => match result {
                Ok(bytes) => match decode::<FindReply>(&bytes) {
                    Ok(found) => {
                        let loc = NodeId::from_raw(found.location);
                        self.registry.update(
                            CompKey::object(task.name),
                            Located::new(loc, found.incarnation),
                        );
                        task.expected = Some(found.incarnation).filter(|inc| !inc.is_none());
                        self.issue_lock_call(env, token, task, loc);
                    }
                    Err(e) => self.complete(env, task.op, Err(e)),
                },
                Err(e) => self.complete(env, task.op, Err(rmi_error_to_mage(&e))),
            },
            LocatePhase::Calling => match result {
                Ok(bytes) => match decode::<LockKind>(&bytes) {
                    Ok(kind) => self.complete(
                        env,
                        task.op,
                        Ok(Outcome {
                            location: task.target.as_raw(),
                            lock_kind: Some(kind),
                            ..Outcome::default()
                        }),
                    ),
                    Err(e) => self.complete(env, task.op, Err(e)),
                },
                Err(RmiError::Fault(Fault::NotBound(_) | Fault::StaleIdentity { .. }))
                    if task.retries > 0 =>
                {
                    // The object moved — or was re-created — between find
                    // and lock; chase it. A name-keyed lock request is
                    // advisory about identity (like a bind), so the retry
                    // re-resolves the current incarnation and locks that
                    // knowingly; it never silently applies to a successor
                    // under stale knowledge.
                    task.retries -= 1;
                    task.expected = None;
                    self.registry.remove(CompKey::object(task.name));
                    self.client_lock_locate(env, token, task);
                }
                Err(e) => self.complete(env, task.op, Err(rmi_error_to_mage(&e))),
            },
        }
    }

    pub(crate) fn start_client_unlock(
        &mut self,
        env: &mut Env<'_, '_>,
        op: OpId,
        name: NameId,
        home_hint: Option<u32>,
    ) {
        env.charge(self.config.bind_overhead);
        let token = self.next_token();
        let task = ClientUnlockTask {
            op,
            name,
            home_hint: home_hint.map(NodeId::from_raw),
            phase: LocatePhase::Finding,
        };
        match self.locate_step(env, CompKey::object(name), None, task.home_hint, token) {
            Ok(Some(loc)) => self.issue_unlock_call(env, token, task, loc),
            Ok(None) => {
                self.tasks.insert(token, Task::ClientUnlock(task));
            }
            Err(e) => self.complete(env, op, Err(e)),
        }
    }

    /// Sends `task`'s unlock request to `at` and parks it on the answer.
    fn issue_unlock_call(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut task: ClientUnlockTask,
        at: NodeId,
    ) {
        let args = proto::UnlockArgs {
            name: task.name,
            client: env.node().as_raw(),
        };
        self.call_service(env, at, self.ids.unlock, &args, token);
        task.phase = LocatePhase::Calling;
        self.tasks.insert(token, Task::ClientUnlock(task));
    }

    fn step_client_unlock(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        task: ClientUnlockTask,
        result: Result<Bytes, RmiError>,
    ) {
        match task.phase {
            LocatePhase::Finding => match result {
                Ok(bytes) => match decode::<FindReply>(&bytes) {
                    Ok(found) => {
                        let loc = NodeId::from_raw(found.location);
                        self.registry.update(
                            CompKey::object(task.name),
                            Located::new(loc, found.incarnation),
                        );
                        self.issue_unlock_call(env, token, task, loc);
                    }
                    Err(e) => self.complete(env, task.op, Err(e)),
                },
                Err(e) => self.complete(env, task.op, Err(rmi_error_to_mage(&e))),
            },
            LocatePhase::Calling => match result {
                Ok(_) => {
                    let me = env.node().as_raw();
                    self.complete(
                        env,
                        task.op,
                        Ok(Outcome {
                            location: me,
                            ..Outcome::default()
                        }),
                    );
                }
                Err(e) => self.complete(env, task.op, Err(rmi_error_to_mage(&e))),
            },
        }
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
        self.call_service(env, dest, self.ids.receive, &receive_args, token);
        self.tasks.insert(
            token,
            Task::MoveOut(MoveOutTask {
                name,
                dest,
                origin,
                phase: PushPhase::Sent {
                    retried_class: false,
                },
                receive_args,
                parked_waiters,
            }),
        );
    }

    fn step_move(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        mut task: MoveOutTask,
        result: Result<Bytes, RmiError>,
    ) {
        match task.phase {
            PushPhase::Sent { retried_class } => match result {
                Ok(_) => {
                    // Transfer acknowledged: drop the local copy and leave a
                    // forwarding address (§4.1) carrying the incarnation —
                    // a move is the same identity at a new home.
                    self.objects.remove(&task.name);
                    self.registry.update(
                        CompKey::object(task.name),
                        Located::new(task.dest, task.receive_args.incarnation),
                    );
                    self.finish_move_ok(env, task);
                }
                Err(RmiError::Fault(Fault::ClassMissing(_))) if !retried_class => {
                    if !self.push_class(env, task.dest, task.receive_args.class, token) {
                        let err = MageError::ClassUnavailable("unknown class".into());
                        self.abort_move(env, task, err);
                        return;
                    }
                    task.phase = PushPhase::SentClass;
                    self.tasks.insert(token, Task::MoveOut(task));
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.abort_move(env, task, err);
                }
            },
            PushPhase::SentClass => match result {
                Ok(_) => {
                    self.call_service(env, task.dest, self.ids.receive, &task.receive_args, token);
                    task.phase = PushPhase::Sent {
                        retried_class: true,
                    };
                    self.tasks.insert(token, Task::MoveOut(task));
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.abort_move(env, task, err);
                }
            },
        }
    }

    /// Answers every find parked on `name` during its transit: remote
    /// calls get an RMI reply, driver ops complete locally, both with
    /// `location` (the destination on commit, this node on abort) and
    /// the moved object's incarnation.
    fn flush_transit_finds(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
        location: NodeId,
        incarnation: Incarnation,
    ) {
        let reply = FindReply {
            location: location.as_raw(),
            incarnation,
        };
        for waiter in self.transit_finds.remove(&name).unwrap_or_default() {
            match waiter {
                TransitFindWaiter::Reply(handle) => {
                    let payload = mage_codec::to_bytes(&reply).expect("find reply encodes");
                    env.reply(handle, Ok(payload));
                }
                TransitFindWaiter::Op(op) => {
                    self.complete(
                        env,
                        op,
                        Ok(Outcome {
                            location: reply.location,
                            incarnation,
                            ..Outcome::default()
                        }),
                    );
                }
            }
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
        self.registry.update(
            CompKey::object(task.name),
            Located::new(me, task.receive_args.incarnation),
        );
        self.flush_transit_finds(env, task.name, me, task.receive_args.incarnation);
        self.locks
            .install(task.name, task.receive_args.locks.clone());
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
                task.dest
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
        self.flush_transit_finds(env, task.name, task.dest, task.receive_args.incarnation);
        match task.origin {
            MoveOrigin::Reply(handle) => {
                let payload = mage_codec::to_bytes(&FindReply {
                    location: task.dest.as_raw(),
                    incarnation: task.receive_args.incarnation,
                })
                .expect("find reply encodes");
                env.reply(handle, Ok(payload));
            }
            MoveOrigin::Exec(exec_id) => {
                if let Some(Task::Exec(t)) = self.tasks.remove(&exec_id) {
                    self.exec_move_done(
                        env,
                        exec_id,
                        *t,
                        Ok((task.dest, task.receive_args.incarnation)),
                    );
                }
            }
            MoveOrigin::Autonomous => {
                if env.trace_enabled() {
                    let name = self.name_str(task.name);
                    env.note(format!("agent {} hopped to {}", name, task.dest));
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
                    self.exec_move_done(env, exec_id, *t, Err(err));
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
