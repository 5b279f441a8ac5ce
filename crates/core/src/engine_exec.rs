//! The bind/invoke execution ladder.
//!
//! An [`ExecTask`] runs on the client's node and realises one mobility-
//! attribute application: `[lock] → place component → [invoke] → [unlock]`.
//! Placement is whatever the (already coercion-checked) plan says: nothing
//! (RPC/CLE), a migration (REV on objects, GREV, MA, COD), or an
//! instantiation from the class (traditional REV/COD factories), with class
//! transfer slipped in on demand.

use bytes::Bytes;
use mage_rmi::{Env, Fault, RmiError};
use mage_sim::{NodeId, OpId};

use crate::engine::{
    decode, is_unreachable, rmi_error_to_mage, ExecPhase, ExecTask, MoveOrigin, Resume, Task,
};
use crate::error::MageError;
use crate::lock::LockKind;
use crate::node::MageNode;
use crate::proto::{self, ActionSpec, FindReply, Outcome};
use crate::registry::{CompKey, Incarnation, Located};

/// Whether a failed step is worth re-finding the object over: either the
/// object moved out from under us (`NotBound` race) or the host we spoke
/// to is gone (unreachable) — both mean our location knowledge is stale.
fn stale_location(err: &RmiError) -> bool {
    matches!(err, RmiError::Fault(Fault::NotBound(_))) || is_unreachable(err)
}

/// Whether a `StaleIdentity` refusal may be resolved by re-finding: only
/// for plans whose identity expectation is *advisory* (a bind with a
/// stale cached incarnation — binding is the explicit rebind act, so the
/// retry re-resolves identity). Pinned stub invocations surface it.
fn rebindable_identity(spec: &proto::ExecSpec, err: &RmiError) -> bool {
    !spec.identity_pinned && matches!(err, RmiError::Fault(Fault::StaleIdentity { .. }))
}

impl ExecTask {
    /// The computation target this plan locks against (the `T` carried by a
    /// lock request in Figure 8).
    fn lock_target(&self, me: NodeId) -> NodeId {
        match &self.spec.action {
            ActionSpec::InvokeAt { node } => NodeId::from_raw(*node),
            ActionSpec::InvokeAtCurrent => self.cloc.unwrap_or(me),
            ActionSpec::Local => me,
            ActionSpec::MoveTo { node } => NodeId::from_raw(*node),
            ActionSpec::Instantiate { node, .. } => NodeId::from_raw(*node),
        }
    }
}

impl MageNode {
    pub(crate) fn exec_start(&mut self, env: &mut Env<'_, '_>, op: OpId, spec: proto::ExecSpec) {
        let id = self.next_task;
        self.next_task += 1;
        let cinc = spec.expected_incarnation;
        let task = ExecTask {
            op,
            spec,
            phase: ExecPhase::AwaitFind {
                resume: Resume::Guard,
            },
            cloc: None,
            cinc,
            locked_at: None,
            lock_kind: None,
            invoke_at: None,
            result: None,
            retries: self.config.race_retries,
            failure: None,
            restore_tried: false,
            dead_peers: Vec::new(),
        };
        self.exec_begin_guard(env, id, task);
    }

    // ---- ladder stages ----

    fn exec_begin_guard(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask) {
        let needs_guard = task.spec.guard
            && task.spec.object.is_some()
            && !matches!(task.spec.action, ActionSpec::Instantiate { .. });
        if !needs_guard {
            self.exec_begin_action(env, id, task);
            return;
        }
        match self.exec_resolve_location(env, id, &mut task) {
            Ok(Some(loc)) => {
                task.cloc = Some(loc);
                self.exec_issue_lock(env, id, task, loc);
            }
            Ok(None) => {
                task.phase = ExecPhase::AwaitFind {
                    resume: Resume::Guard,
                };
                self.tasks.insert(id, Task::Exec(Box::new(task)));
            }
            Err(e) => self.exec_fail(env, id, task, e),
        }
    }

    fn exec_issue_lock(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask, at: NodeId) {
        let me = env.node();
        let target = task.lock_target(me);
        let name = task.spec.object.expect("guard requires an object");
        let args = proto::LockArgs {
            name,
            client: me.as_raw(),
            target: target.as_raw(),
            // The lock applies to the incarnation this plan resolved; a
            // re-creation racing the request is refused typed, not
            // silently locked.
            expected: task.cinc.filter(|inc| !inc.is_none()),
        };
        self.call_service(env, at, self.ids.lock, &args, id);
        task.phase = ExecPhase::AwaitLock { at };
        self.tasks.insert(id, Task::Exec(Box::new(task)));
    }

    fn exec_begin_action(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask) {
        let me = env.node();
        match task.spec.action.clone() {
            ActionSpec::Local => {
                let Some(name) = task.spec.object else {
                    self.exec_fail(
                        env,
                        id,
                        task,
                        MageError::BadPlan("local action requires an object".into()),
                    );
                    return;
                };
                task.invoke_at = Some(me);
                if let Some(invoke) = &task.spec.invoke {
                    // A bind (advisory identity) re-resolves against the
                    // object actually hosted here; only pinned stubs keep
                    // their expectation.
                    if !task.spec.identity_pinned {
                        task.cinc = Some(self.local_incarnation(CompKey::object(name)));
                    }
                    // Same identity gate as the remote invoke path: a
                    // locally re-created impostor must not serve a stale
                    // stub's call.
                    if let Err(fault) = self.check_identity(name, task.cinc) {
                        env.count("stale_identity_refusals");
                        let err = proto::fault_to_error(&fault);
                        self.exec_fail(env, id, task, err);
                        return;
                    }
                    let method = self.syms.resolve_lossy(invoke.method);
                    match self.invoke_local(env, name, &method, &invoke.args) {
                        Ok(bytes) => {
                            task.result = Some(Bytes::from(bytes));
                            self.exec_begin_unlock(env, id, task);
                        }
                        Err(fault) => {
                            let err = proto::fault_to_error(&fault);
                            self.exec_fail(env, id, task, err);
                        }
                    }
                } else if self.has_component(CompKey::object(name)) {
                    self.exec_begin_unlock(env, id, task);
                } else {
                    let err = MageError::NotFound(self.name_str(name));
                    self.exec_fail(env, id, task, err);
                }
            }
            ActionSpec::InvokeAt { node } => {
                task.invoke_at = Some(NodeId::from_raw(node));
                self.exec_begin_invoke(env, id, task);
            }
            ActionSpec::InvokeAtCurrent => match task.cloc {
                Some(loc) => {
                    task.invoke_at = Some(loc);
                    self.exec_begin_invoke(env, id, task);
                }
                None => match self.exec_resolve_location(env, id, &mut task) {
                    Ok(Some(loc)) => {
                        task.cloc = Some(loc);
                        task.invoke_at = Some(loc);
                        self.exec_begin_invoke(env, id, task);
                    }
                    Ok(None) => {
                        task.phase = ExecPhase::AwaitFind {
                            resume: Resume::Action,
                        };
                        self.tasks.insert(id, Task::Exec(Box::new(task)));
                    }
                    Err(e) => self.exec_fail(env, id, task, e),
                },
            },
            ActionSpec::MoveTo { node } => {
                let dest = NodeId::from_raw(node);
                let cloc = match task.cloc {
                    Some(loc) => Some(loc),
                    None => match self.exec_resolve_location(env, id, &mut task) {
                        Ok(Some(loc)) => Some(loc),
                        Ok(None) => {
                            task.phase = ExecPhase::AwaitFind {
                                resume: Resume::Action,
                            };
                            self.tasks.insert(id, Task::Exec(Box::new(task)));
                            return;
                        }
                        Err(e) => {
                            self.exec_fail(env, id, task, e);
                            return;
                        }
                    },
                };
                let cloc = cloc.expect("resolved above");
                task.cloc = Some(cloc);
                if cloc == dest {
                    // Already at the target: the engine-level mirror of
                    // coercion to RPC.
                    task.invoke_at = Some(dest);
                    self.exec_begin_invoke(env, id, task);
                } else if cloc == me {
                    // We host the object: run the transfer ourselves
                    // (Figure 7 without the moveTo hop).
                    let name = task.spec.object.expect("move requires an object");
                    task.phase = ExecPhase::AwaitMove;
                    self.tasks.insert(id, Task::Exec(Box::new(task)));
                    self.begin_move_out(env, name, dest, MoveOrigin::Exec(id));
                } else {
                    // Ask the hosting namespace to transfer the object
                    // (Figure 7, message 3).
                    let name = task.spec.object.expect("move requires an object");
                    let args = proto::MoveToArgs {
                        name,
                        dest: dest.as_raw(),
                    };
                    self.call_service(env, cloc, self.ids.move_to, &args, id);
                    task.phase = ExecPhase::AwaitMove;
                    self.tasks.insert(id, Task::Exec(Box::new(task)));
                }
            }
            ActionSpec::Instantiate {
                node,
                state,
                visibility,
                durability,
                backup,
                replace,
            } => {
                let dest = NodeId::from_raw(node);
                let Some(object_id) = task.spec.object else {
                    self.exec_fail(
                        env,
                        id,
                        task,
                        MageError::BadPlan("instantiate requires an object name".into()),
                    );
                    return;
                };
                if dest == me {
                    if self.classes.contains(&task.spec.class) {
                        let policy = crate::node::HostPolicy {
                            visibility,
                            durability,
                            backup: backup.map(NodeId::from_raw),
                        };
                        let created = self.create_local_object(
                            env,
                            task.spec.class,
                            object_id,
                            &state,
                            policy,
                            replace,
                        );
                        match created {
                            Ok(outcome) => {
                                task.cloc = Some(me);
                                task.cinc = Some(outcome.incarnation);
                                task.invoke_at = Some(me);
                                self.exec_begin_invoke(env, id, task);
                            }
                            Err(e) => self.exec_fail(env, id, task, e),
                        }
                    } else {
                        self.exec_fetch_class(env, id, task, me);
                    }
                } else {
                    let args = proto::InstantiateArgs {
                        class: task.spec.class,
                        name: object_id,
                        state,
                        visibility,
                        durability,
                        backup,
                        replace,
                    };
                    self.call_service(env, dest, self.ids.instantiate, &args, id);
                    task.phase = ExecPhase::AwaitInstantiate {
                        dest,
                        retried_class: false,
                    };
                    self.tasks.insert(id, Task::Exec(Box::new(task)));
                }
            }
        }
    }

    /// Starts class logistics for an instantiation at `dest`: fetch the
    /// class from wherever the registry (or the home hint) says it lives.
    fn exec_fetch_class(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        dest: NodeId,
    ) {
        let me = env.node();
        let key = CompKey::class(task.spec.class);
        let source = self
            .registry
            .lookup(key)
            .map(|entry| entry.node)
            .filter(|n| *n != me)
            .or_else(|| {
                task.spec
                    .home_hint
                    .map(NodeId::from_raw)
                    .filter(|n| *n != me)
            });
        match source {
            Some(src) => {
                let args = proto::FetchClassArgs {
                    class: task.spec.class,
                };
                self.call_service(env, src, self.ids.fetch_class, &args, id);
                task.phase = ExecPhase::AwaitFetchClass { dest };
                self.tasks.insert(id, Task::Exec(Box::new(task)));
            }
            None => {
                let class = self.name_str(task.spec.class);
                self.exec_fail(env, id, task, MageError::ClassUnavailable(class));
            }
        }
    }

    fn exec_begin_invoke(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask) {
        let Some(invoke) = &task.spec.invoke else {
            self.exec_begin_unlock(env, id, task);
            return;
        };
        let at = task.invoke_at.expect("invoke target resolved");
        let Some(name) = task.spec.object else {
            self.exec_fail(
                env,
                id,
                task,
                MageError::BadPlan("invocation requires an object name".into()),
            );
            return;
        };
        let args = proto::InvokeArgsRef {
            name,
            method: invoke.method,
            args: &invoke.args,
            expected: task.cinc.filter(|inc| !inc.is_none()),
        };
        if invoke.one_way {
            // Fire and forget: route the eventual reply to a token nobody
            // owns. The result "stays at the remote host" (§5).
            let noop = self.next_task;
            self.next_task += 1;
            self.call_service(env, at, self.ids.invoke, &args, noop);
            self.exec_begin_unlock(env, id, task);
        } else {
            self.call_service(env, at, self.ids.invoke, &args, id);
            task.phase = ExecPhase::AwaitInvoke;
            self.tasks.insert(id, Task::Exec(Box::new(task)));
        }
    }

    fn exec_begin_unlock(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask) {
        let Some(_) = task.locked_at else {
            self.exec_finish(env, task);
            return;
        };
        // The lock travelled with the object if it moved; release it where
        // the object now lives.
        let at = task
            .invoke_at
            .or(task.cloc)
            .or(task.locked_at)
            .expect("somewhere");
        let name = task.spec.object.expect("guarded ops have objects");
        let args = proto::UnlockArgs {
            name,
            client: env.node().as_raw(),
        };
        self.call_service(env, at, self.ids.unlock, &args, id);
        task.phase = ExecPhase::AwaitUnlock;
        self.tasks.insert(id, Task::Exec(Box::new(task)));
    }

    fn exec_finish(&mut self, env: &mut Env<'_, '_>, task: ExecTask) {
        if let Some(err) = task.failure {
            self.complete(env, task.op, Err(err));
            return;
        }
        let me = env.node();
        let location = task.invoke_at.or(task.cloc).unwrap_or(me).as_raw();
        self.complete(
            env,
            task.op,
            Ok(Outcome {
                location,
                incarnation: task.cinc.unwrap_or(Incarnation::NONE),
                result: task.result,
                lock_kind: task.lock_kind,
            }),
        );
    }

    fn exec_fail(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, err: MageError) {
        // Durability hook: before a crash-shaped failure surfaces, a
        // replicated object gets one consultation of its backup home. A
        // stored snapshot restores the object there (fresh incarnation),
        // the registry entry is repaired, and the operation retries; no
        // snapshot (or a dead backup) lets the original error through.
        let Some(mut task) = self.exec_try_restore(env, id, task, &err) else {
            return;
        };
        if task.locked_at.is_some() {
            // Release the lock before reporting the failure.
            task.failure = Some(err);
            self.exec_begin_unlock(env, id, task);
        } else {
            self.complete(env, task.op, Err(err));
        }
    }

    /// Starts the once-only backup consultation when `err` is a
    /// crash-shaped failure of a replicated object. Returns `None` when
    /// the task was parked (or resumed) on the restore path, or gives the
    /// task back for the ordinary failure path.
    fn exec_try_restore(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        err: &MageError,
    ) -> Option<ExecTask> {
        if task.restore_tried
            || task.locked_at.is_some()
            || !matches!(err, MageError::NotFound(_) | MageError::Unreachable { .. })
            || matches!(task.spec.action, ActionSpec::Instantiate { .. })
        {
            return Some(task);
        }
        let (Some(name), Some(backup)) = (task.spec.object, task.spec.backup_hint) else {
            return Some(task);
        };
        task.restore_tried = true;
        let backup = NodeId::from_raw(backup);
        if backup == env.node() {
            // This node *is* the backup home: restore in place.
            return match self.restore_local(env, name) {
                Ok(found) => {
                    self.exec_resume_after_restore(env, id, task, found);
                    None
                }
                Err(_) => Some(task), // no snapshot: the original error surfaces
            };
        }
        let args = proto::RestoreArgs { name };
        self.call_service(env, backup, self.ids.restore, &args, id);
        task.phase = ExecPhase::AwaitRestore {
            original: err.clone(),
        };
        self.tasks.insert(id, Task::Exec(Box::new(task)));
        None
    }

    /// Resumes the ladder after a successful restore: the object now lives
    /// at `found.location` under a fresh incarnation. Invoke-shaped
    /// actions go straight to the invocation (mirroring the stale-location
    /// retry path); move-shaped actions re-run the placement from the
    /// restored location.
    fn exec_resume_after_restore(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        found: FindReply,
    ) {
        let loc = NodeId::from_raw(found.location);
        if let Some(name) = task.spec.object {
            self.registry
                .update(CompKey::object(name), Located::new(loc, found.incarnation));
        }
        task.cloc = Some(loc);
        task.spec.location_hint = Some(loc.as_raw());
        if !task.spec.identity_pinned {
            // Advisory identity re-resolves to the restored incarnation —
            // recovery is fully transparent. Pinned stubs keep their
            // expectation: the retry resolves to typed `StaleIdentity`
            // and the session's explicit (or handle-level auto) rebind is
            // the observable trace the recovery leaves.
            task.cinc = Some(found.incarnation).filter(|inc| !inc.is_none());
            task.spec.expected_incarnation = task.cinc;
        }
        match task.spec.action {
            ActionSpec::MoveTo { .. } => self.exec_begin_action(env, id, task),
            _ => {
                task.invoke_at = Some(loc);
                self.exec_begin_invoke(env, id, task);
            }
        }
    }

    /// Resolves the component's location from local knowledge or issues a
    /// find (in which case the caller parks the task). Knowledge naming a
    /// peer that died under this op is passed over, and a find that would
    /// have to start at a dead home fails at once with the `Unreachable`
    /// the walk would reach after spending its retries on that peer.
    fn exec_resolve_location(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        task: &mut ExecTask,
    ) -> Result<Option<NodeId>, MageError> {
        let me = env.node();
        let Some(name) = task.spec.object else {
            return Err(MageError::BadPlan("action requires an object".into()));
        };
        let key = CompKey::object(name);
        if self.has_component(key) {
            if !task.spec.identity_pinned {
                task.cinc = Some(self.local_incarnation(key));
            }
            return Ok(Some(me));
        }
        if let Some(entry) = self.registry.lookup(key) {
            if entry.node != me && !task.skip_dead(env, entry.node) {
                if !task.spec.identity_pinned {
                    task.cinc = Some(entry.incarnation).filter(|inc| !inc.is_none());
                }
                return Ok(Some(entry.node));
            }
        }
        if let Some(hint) = task.spec.location_hint.map(NodeId::from_raw) {
            if hint != me && !task.skip_dead(env, hint) {
                if !task.spec.identity_pinned {
                    task.cinc = task.spec.expected_incarnation;
                }
                return Ok(Some(hint));
            }
        }
        let start = task
            .spec
            .home_hint
            .map(NodeId::from_raw)
            .filter(|h| *h != me);
        match start {
            Some(home) if task.skip_dead(env, home) => Err(MageError::Unreachable {
                peer: home.as_raw(),
            }),
            Some(start) => {
                let args = proto::FindArgs {
                    key,
                    visited: vec![me.as_raw()],
                    home: task.spec.home_hint,
                    retried: false,
                };
                self.call_service(env, start, self.ids.find, &args, id);
                Ok(None)
            }
            None => Err(MageError::NotFound(self.name_str(name))),
        }
    }

    // ---- reply dispatch ----

    pub(crate) fn step_exec_reply(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        result: Result<Bytes, RmiError>,
    ) {
        task.note_dead_peer(&result);
        match task.phase {
            ExecPhase::AwaitFind { resume } => match result {
                Ok(bytes) => match decode::<FindReply>(&bytes) {
                    Ok(found) => {
                        let loc = NodeId::from_raw(found.location);
                        if let Some(name) = task.spec.object {
                            self.registry.update(
                                CompKey::object(name),
                                Located::new(loc, found.incarnation),
                            );
                        }
                        task.cloc = Some(loc);
                        if !task.spec.identity_pinned {
                            task.cinc = Some(found.incarnation).filter(|inc| !inc.is_none());
                        }
                        match resume {
                            Resume::Guard => self.exec_issue_lock(env, id, task, loc),
                            Resume::Action => self.exec_begin_action(env, id, task),
                            Resume::Invoke => {
                                task.invoke_at = Some(loc);
                                self.exec_begin_invoke(env, id, task);
                            }
                        }
                    }
                    Err(e) => self.exec_fail(env, id, task, e),
                },
                Err(ref e) if is_unreachable(e) && task.retries > 0 => {
                    // The hop we asked is dead; forget the stale location
                    // knowledge and re-resolve (the home hint survives in
                    // the spec, so the retry can start a fresh walk).
                    task.retries -= 1;
                    task.cloc = None;
                    task.spec.location_hint = None;
                    if !task.spec.identity_pinned {
                        task.cinc = None;
                        task.spec.expected_incarnation = None;
                    }
                    if let Some(name) = task.spec.object {
                        self.registry.remove(CompKey::object(name));
                    }
                    match resume {
                        Resume::Guard => self.exec_begin_guard(env, id, task),
                        Resume::Action => self.exec_begin_action(env, id, task),
                        Resume::Invoke => match self.exec_resolve_location(env, id, &mut task) {
                            Ok(Some(loc)) => {
                                task.cloc = Some(loc);
                                task.invoke_at = Some(loc);
                                self.exec_begin_invoke(env, id, task);
                            }
                            Ok(None) => {
                                task.phase = ExecPhase::AwaitFind {
                                    resume: Resume::Invoke,
                                };
                                self.tasks.insert(id, Task::Exec(Box::new(task)));
                            }
                            Err(e) => self.exec_fail(env, id, task, e),
                        },
                    }
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.exec_fail(env, id, task, err);
                }
            },
            ExecPhase::AwaitLock { at } => match result {
                Ok(bytes) => match decode::<LockKind>(&bytes) {
                    Ok(kind) => {
                        task.locked_at = Some(at);
                        task.lock_kind = Some(kind);
                        self.exec_begin_action(env, id, task);
                    }
                    Err(e) => self.exec_fail(env, id, task, e),
                },
                Err(ref e)
                    if (stale_location(e) || rebindable_identity(&task.spec, e))
                        && task.retries > 0 =>
                {
                    // Raced a migration (or, for advisory-identity plans,
                    // a re-creation), or the host we asked is gone: chase
                    // the object and lock again. The driver's location
                    // hint is stale by definition here; drop it so the
                    // retry re-finds from the home.
                    task.retries -= 1;
                    task.cloc = None;
                    task.spec.location_hint = None;
                    if !task.spec.identity_pinned {
                        task.cinc = None;
                        task.spec.expected_incarnation = None;
                    }
                    if let Some(name) = task.spec.object {
                        self.registry.remove(CompKey::object(name));
                    }
                    self.exec_begin_guard(env, id, task);
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.exec_fail(env, id, task, err);
                }
            },
            ExecPhase::AwaitMove => match result {
                Ok(bytes) => match decode::<FindReply>(&bytes) {
                    Ok(found) => {
                        let dest = NodeId::from_raw(found.location);
                        if let Some(name) = task.spec.object {
                            self.registry.update(
                                CompKey::object(name),
                                Located::new(dest, found.incarnation),
                            );
                        }
                        task.cloc = Some(dest);
                        if !task.spec.identity_pinned {
                            task.cinc = Some(found.incarnation).filter(|inc| !inc.is_none());
                        }
                        task.invoke_at = Some(dest);
                        self.exec_begin_invoke(env, id, task);
                    }
                    Err(e) => self.exec_fail(env, id, task, e),
                },
                Err(ref e) if stale_location(e) && task.retries > 0 => {
                    task.retries -= 1;
                    task.cloc = None;
                    task.spec.location_hint = None;
                    if !task.spec.identity_pinned {
                        task.cinc = None;
                        task.spec.expected_incarnation = None;
                    }
                    if let Some(name) = task.spec.object {
                        self.registry.remove(CompKey::object(name));
                    }
                    self.exec_begin_action(env, id, task);
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.exec_fail(env, id, task, err);
                }
            },
            ExecPhase::AwaitFetchClass { dest } => match result {
                Ok(bytes) => match decode::<proto::ReceiveClassArgs>(&bytes) {
                    Ok(class_args) => {
                        // Define the class locally (MAGE clones classes,
                        // §4.2), then instantiate or push onward.
                        let me = env.node();
                        env.charge(env.cost().class_load(class_args.code.len() as u64));
                        self.classes.insert(class_args.class);
                        self.registry
                            .update(CompKey::class(class_args.class), Located::untracked(me));
                        if dest == me {
                            self.exec_begin_action(env, id, task);
                        } else {
                            self.call_service(env, dest, self.ids.receive_class, &class_args, id);
                            task.phase = ExecPhase::AwaitPushClass { dest };
                            self.tasks.insert(id, Task::Exec(Box::new(task)));
                        }
                    }
                    Err(e) => self.exec_fail(env, id, task, e),
                },
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.exec_fail(env, id, task, err);
                }
            },
            ExecPhase::AwaitPushClass { dest } => match result {
                Ok(_) => {
                    // Class is in place; retry the instantiation.
                    let (state, visibility, durability, backup, replace) = match &task.spec.action {
                        ActionSpec::Instantiate {
                            state,
                            visibility,
                            durability,
                            backup,
                            replace,
                            ..
                        } => (state.clone(), *visibility, *durability, *backup, *replace),
                        _ => (
                            Vec::new(),
                            crate::component::Visibility::Public,
                            crate::component::Durability::Volatile,
                            None,
                            true,
                        ),
                    };
                    let args = proto::InstantiateArgs {
                        class: task.spec.class,
                        name: task.spec.object.expect("instantiate has an object name"),
                        state,
                        visibility,
                        durability,
                        backup,
                        replace,
                    };
                    self.call_service(env, dest, self.ids.instantiate, &args, id);
                    task.phase = ExecPhase::AwaitInstantiate {
                        dest,
                        retried_class: true,
                    };
                    self.tasks.insert(id, Task::Exec(Box::new(task)));
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.exec_fail(env, id, task, err);
                }
            },
            ExecPhase::AwaitInstantiate {
                dest,
                retried_class,
            } => match result {
                Ok(bytes) => {
                    // A malformed reply must surface, not silently yield
                    // Incarnation::NONE — that would disable the identity
                    // check for the fresh object.
                    let incarnation = match decode::<Incarnation>(&bytes) {
                        Ok(incarnation) => incarnation,
                        Err(e) => {
                            self.exec_fail(env, id, task, e);
                            return;
                        }
                    };
                    if let Some(name) = task.spec.object {
                        self.registry
                            .update(CompKey::object(name), Located::new(dest, incarnation));
                    }
                    task.cloc = Some(dest);
                    task.cinc = Some(incarnation).filter(|inc| !inc.is_none());
                    task.invoke_at = Some(dest);
                    self.exec_begin_invoke(env, id, task);
                }
                Err(RmiError::Fault(Fault::ClassMissing(_))) if !retried_class => {
                    if self.classes.contains(&task.spec.class) {
                        // We have the class: push it to the target
                        // (traditional REV ships local code to the server).
                        let def = self
                            .lib
                            .get(&self.syms.resolve_lossy(task.spec.class))
                            .expect("cached class defined");
                        let class_args = proto::ReceiveClassArgs {
                            class: task.spec.class,
                            code: vec![0u8; def.code_size() as usize],
                            has_static_fields: def.has_static_fields(),
                        };
                        self.call_service(env, dest, self.ids.receive_class, &class_args, id);
                        task.phase = ExecPhase::AwaitPushClass { dest };
                        self.tasks.insert(id, Task::Exec(Box::new(task)));
                    } else {
                        // Neither we nor the target have it: pull it first
                        // (GREV-style third-party placement).
                        self.exec_fetch_class(env, id, task, dest);
                    }
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.exec_fail(env, id, task, err);
                }
            },
            ExecPhase::AwaitInvoke => match result {
                Ok(bytes) => {
                    task.result = Some(bytes);
                    self.exec_begin_unlock(env, id, task);
                }
                Err(ref e)
                    if (stale_location(e) || rebindable_identity(&task.spec, e))
                        && task.retries > 0 =>
                {
                    // The object moved under us (or its host died); find
                    // it again (public objects "must be found before the
                    // current thread invokes", §3.5). A StaleIdentity
                    // refusal joins the class only for *advisory* identity
                    // (a bind holding a stale cached incarnation — the
                    // re-find resolves the current one); a pinned stub's
                    // StaleIdentity surfaces typed, never silently rebound.
                    task.retries -= 1;
                    task.cloc = None;
                    task.spec.location_hint = None;
                    if !task.spec.identity_pinned {
                        task.cinc = None;
                        task.spec.expected_incarnation = None;
                    }
                    if let Some(name) = task.spec.object {
                        self.registry.remove(CompKey::object(name));
                    }
                    match self.exec_resolve_location(env, id, &mut task) {
                        Ok(Some(loc)) => {
                            task.cloc = Some(loc);
                            task.invoke_at = Some(loc);
                            self.exec_begin_invoke(env, id, task);
                        }
                        Ok(None) => {
                            task.phase = ExecPhase::AwaitFind {
                                resume: Resume::Invoke,
                            };
                            self.tasks.insert(id, Task::Exec(Box::new(task)));
                        }
                        Err(e) => self.exec_fail(env, id, task, e),
                    }
                }
                Err(e) => {
                    let err = rmi_error_to_mage(&e);
                    self.exec_fail(env, id, task, err);
                }
            },
            ExecPhase::AwaitUnlock => {
                if let Err(e) = result {
                    env.note(format!("unlock after bind failed: {e}"));
                }
                task.locked_at = None;
                self.exec_finish(env, task);
            }
            ExecPhase::AwaitRestore { ref mut original } => {
                // The phase owns the original error; take it out before
                // the task moves on.
                let original = std::mem::replace(original, MageError::NotFound(String::new()));
                match result {
                    Ok(bytes) => match decode::<FindReply>(&bytes) {
                        Ok(found) => self.exec_resume_after_restore(env, id, task, found),
                        Err(e) => self.exec_fail(env, id, task, e),
                    },
                    Err(_) => {
                        // The backup had no snapshot, or is itself dead:
                        // the crash-shaped failure that sent us here
                        // surfaces typed (restore_tried blocks a second
                        // consultation).
                        self.exec_fail(env, id, task, original);
                    }
                }
            }
        }
    }

    /// Resumption point for a client-local move-out (the object we moved
    /// was hosted on this node).
    pub(crate) fn exec_move_done(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        outcome: Result<(NodeId, Incarnation), MageError>,
    ) {
        match outcome {
            Ok((dest, incarnation)) => {
                task.cloc = Some(dest);
                task.cinc = Some(incarnation).filter(|inc| !inc.is_none());
                task.invoke_at = Some(dest);
                self.exec_begin_invoke(env, id, task);
            }
            Err(e) => self.exec_fail(env, id, task, e),
        }
    }
}
