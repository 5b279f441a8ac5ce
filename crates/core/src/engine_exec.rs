//! The bind/invoke execution ladder.
//!
//! An [`ExecTask`] runs on the client's node and realises one mobility-
//! attribute application: `[lock] → place component → [invoke] → [unlock]`.
//! Placement is whatever the plan says: nothing (RPC/CLE), a migration
//! (REV on objects, GREV, MA, COD), or an instantiation from the class
//! (traditional REV/COD factories), with class transfer slipped in on
//! demand.
//!
//! An unguarded built-in bind carries an [`ActPlan`] and no find comes
//! first: if this node hosts the object, it applies Table 2 here (LPC and
//! a COD already local send nothing); else one `act` request goes to the
//! object's best-known location — hosted here, the registry entry, the
//! session's hint, then home — and walks the registry chain to the host,
//! which applies Table 2 and invokes in place or moves the object. A move
//! carries the invocation in its `receive`: the destination runs it on
//! arrival, and its result comes back in the act reply (or, when this
//! node hosted the object, with the move's acknowledgement), so the task
//! makes no second call. A moving plan the session already coerced
//! (guarded, single-use, a user policy) rides the same request as a
//! [`ModelKind::Custom`](crate::ModelKind::Custom) plan; its move carries
//! no invocation, and the task invokes at the destination afterwards,
//! inside §4.4's lock bracket.
//!
//! Each stage issues one call and parks the task in the [`ExecPhase`] that
//! awaits its reply; [`MageNode::step_exec_reply`] hands the reply to that
//! phase's handler.
#![warn(clippy::too_many_lines)]

use bytes::Bytes;
use mage_rmi::{Env, Fault, RmiError};
use mage_sim::{NodeId, OpId};

use crate::coercion::{coerce, Coerced, Situation};
use crate::engine::{
    decode, is_unreachable, rmi_error_to_mage, stale_location, ClassLadder, ExecPhase, ExecTask,
    MoveOrigin, Resume, Rung, Start, Task, TransitWaiter,
};
use crate::error::MageError;
use crate::lock::LockKind;
use crate::node::MageNode;
use crate::proto::{self, ActArgsRef, ActPlan, ActionSpec, FindArgs, FindReply, Outcome};
use crate::registry::{CompKey, Incarnation, Located};

/// Whether a `StaleIdentity` refusal may be resolved by re-finding: only
/// for plans whose identity expectation is *advisory* (a bind with a
/// stale cached incarnation — binding is the explicit rebind act, so the
/// retry re-resolves identity). Pinned stub invocations surface it.
fn rebindable_identity(spec: &proto::ExecSpec, err: &RmiError) -> bool {
    !spec.identity_pinned && matches!(err, RmiError::Fault(Fault::StaleIdentity { .. }))
}

impl ExecTask {
    /// The invocation a move of this task's object carries to its
    /// destination (see [`ActPlan::invokes_on_arrival`]); `None` when the
    /// task invokes after the move itself, or has nothing to invoke.
    fn arrival_invoke(&self) -> Option<&proto::InvokeSpec> {
        match self.spec.action {
            ActionSpec::Act(plan) if plan.invokes_on_arrival() => self.spec.invoke.as_ref(),
            _ => None,
        }
    }

    /// Records that a move or instantiation placed the object at `at`,
    /// under `incarnation`, where it is invoked.
    fn placed(&mut self, at: NodeId, incarnation: Incarnation) {
        self.cloc = Some(at);
        self.cinc = Some(incarnation).filter(|inc| !inc.is_none());
        self.invoke_at = Some(at);
    }

    /// The computation target this plan locks against (the `T` carried by a
    /// lock request in Figure 8).
    fn lock_target(&self, me: NodeId) -> NodeId {
        match &self.spec.action {
            ActionSpec::InvokeAt { node } | ActionSpec::Instantiate { node, .. } => {
                NodeId::from_raw(*node)
            }
            ActionSpec::Local => me,
            ActionSpec::Act(plan) => plan.named.map(NodeId::from_raw).or(self.cloc).unwrap_or(me),
        }
    }
}

impl MageNode {
    pub(crate) fn exec_start(&mut self, env: &mut Env<'_, '_>, op: OpId, spec: proto::ExecSpec) {
        let id = self.next_token();
        let cinc = spec.expected_incarnation;
        let task = ExecTask {
            op,
            spec,
            phase: ExecPhase::AwaitFind {
                resume: Resume::Guard,
            },
            cloc: None,
            cinc,
            coerced: None,
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

    /// Parks `task` under `id` until the reply `phase` awaits.
    fn exec_park(&mut self, id: u64, mut task: ExecTask, phase: ExecPhase) {
        task.phase = phase;
        self.tasks.insert(id, Task::Exec(task));
    }

    // ---- ladder stages ----

    fn exec_begin_guard(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask) {
        let needs_guard =
            task.spec.guard && !matches!(task.spec.action, ActionSpec::Instantiate { .. });
        if !needs_guard {
            self.exec_begin_action(env, id, task);
        } else if let Some((task, loc)) = self.exec_locate(env, id, task, Resume::Guard) {
            self.exec_issue_lock(env, id, task, loc);
        }
    }

    fn exec_issue_lock(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, at: NodeId) {
        // The lock applies to the incarnation this plan resolved.
        let target = task.lock_target(env.node());
        self.send_lock(env, at, task.spec.object, target, task.cinc, id);
        self.exec_park(id, task, ExecPhase::AwaitLock { at });
    }

    pub(crate) fn exec_begin_action(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask) {
        match task.spec.action {
            ActionSpec::Local => self.exec_local(env, id, task),
            ActionSpec::InvokeAt { node } => {
                task.invoke_at = Some(NodeId::from_raw(node));
                self.exec_begin_invoke(env, id, task);
            }
            ActionSpec::Act(plan) => self.exec_act(env, id, task, plan),
            ActionSpec::Instantiate { node, .. } => {
                self.exec_instantiate(env, id, task, NodeId::from_raw(node));
            }
        }
    }

    /// Runs the plan on the object hosted here (LPC, and COD coerced to
    /// LPC).
    fn exec_local(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask) {
        let me = env.node();
        let name = task.spec.object;
        task.invoke_at = Some(me);
        let Some(invoke) = &task.spec.invoke else {
            if self.has_component(CompKey::object(name)) {
                self.exec_begin_unlock(env, id, task);
            } else {
                let err = MageError::NotFound(self.name_str(name));
                self.exec_fail(env, id, task, err);
            }
            return;
        };
        // A bind (advisory identity) re-resolves against the object actually
        // hosted here; only pinned stubs keep their expectation.
        if !task.spec.identity_pinned {
            task.cinc = Some(self.local_incarnation(CompKey::object(name)));
        }
        // Same identity gate as the remote invoke path: a locally re-created
        // impostor must not serve a stale stub's call.
        if let Err(fault) = self.check_identity(name, task.cinc) {
            env.count("stale_identity_refusals");
            let err = proto::fault_to_error(&fault);
            return self.exec_fail(env, id, task, err);
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
    }

    /// Applies an act plan: here, when this node hosts the object; else
    /// by one act request to the object's best-known location, which
    /// walks on to the host.
    fn exec_act(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask, plan: ActPlan) {
        let me = env.node();
        let name = task.spec.object;
        let key = CompKey::object(name);
        if self.has_component(key) {
            // Hosted here: Table 2's local column, and no message unless
            // the object moves.
            let coerced = match coerce(plan.model, Situation::Local) {
                Ok(coerced) => coerced,
                Err(e) => return self.exec_fail(env, id, task, e),
            };
            task.coerced = Some(coerced);
            let moves = plan.moves && coerced == Coerced::Proceed;
            match plan
                .named
                .map(NodeId::from_raw)
                .filter(|d| moves && *d != me)
            {
                Some(dest) => {
                    // We host the object: run the transfer ourselves
                    // (Figure 7 without the request hop). The task parks
                    // first, as a failed start resumes it at once; its
                    // invocation's arguments are shared, not copied.
                    let invoke = task.arrival_invoke().cloned();
                    self.exec_park(id, task, ExecPhase::AwaitAct { to: None });
                    let invoke = invoke.as_ref().map(|invoke| {
                        let args =
                            proto::InvokeArgsRef::on_arrival(name, invoke.method, &invoke.args);
                        (args, invoke.one_way)
                    });
                    self.begin_move_out(env, name, dest, MoveOrigin::Exec(id), invoke);
                }
                None => self.exec_local(env, id, task),
            }
            return;
        }
        if self.in_transit(key) {
            // Our own object is leaving: act once its move settles.
            self.exec_park(id, task, ExecPhase::AwaitAct { to: None });
            return self.park_in_transit(key, TransitWaiter::Exec(id));
        }
        let to = match self.exec_start_point(env, &task) {
            Ok(Start::Known(at)) => {
                if !task.spec.identity_pinned {
                    task.cinc = Some(at.incarnation).filter(|inc| !inc.is_none());
                }
                at.node
            }
            Ok(Start::Home(home)) => home,
            Err(e) => return self.exec_fail(env, id, task, e),
        };
        // The act's home retry is this task's (see `exec_on_acted`).
        let walk = FindArgs {
            key,
            visited: vec![me.as_raw()],
            home: task.spec.home_hint,
            retried: true,
        };
        let invoke = task.spec.invoke.as_ref();
        let args = ActArgsRef {
            walk: &walk,
            client: me.as_raw(),
            plan,
            invoke: invoke.map(|invoke| proto::InvokeArgsRef {
                name,
                method: invoke.method,
                args: &invoke.args,
                expected: task.cinc.filter(|inc| !inc.is_none()),
            }),
            one_way: invoke.is_some_and(|invoke| invoke.one_way),
        };
        self.call_service(env, to, self.ids.act, &args, id);
        self.exec_park(id, task, ExecPhase::AwaitAct { to: Some(to) });
    }

    /// Instantiates a fresh object from the class at `dest`, then invokes
    /// it there: locally when `dest` is this node and the class is cached,
    /// else by asking `dest` or fetching the class first.
    fn exec_instantiate(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, dest: NodeId) {
        let me = env.node();
        if dest != me {
            return self.exec_send_instantiate(env, id, task, dest, None);
        }
        if !self.classes.contains(&task.spec.class) {
            return self.exec_fetch_class(env, id, task, me);
        }
        let ActionSpec::Instantiate { args, .. } = &task.spec.action else {
            unreachable!("only instantiate plans instantiate");
        };
        match self.create_local_object(env, args) {
            Ok(outcome) => self.exec_invoke_placed(env, id, task, me, outcome.incarnation),
            Err(e) => self.exec_fail(env, id, task, e),
        }
    }

    /// Asks `dest` to instantiate the plan's object. With `push`, the
    /// ladder starts a rung up: the class goes first, the request once it
    /// lands.
    fn exec_send_instantiate(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        task: ExecTask,
        dest: NodeId,
        push: Option<&proto::ReceiveClassArgs>,
    ) {
        let ActionSpec::Instantiate { args, .. } = &task.spec.action else {
            unreachable!("only instantiate plans instantiate");
        };
        let (method, class) = (self.ids.instantiate, task.spec.class);
        let ladder = match push {
            None => self.place(env, dest, method, args, class, id),
            Some(push) => {
                self.call_service(env, dest, self.ids.receive_class, push, id);
                let request = mage_codec::to_bytes(args).expect("service args encode");
                let rung = Rung::Pushing;
                ClassLadder {
                    dest,
                    class,
                    method,
                    request,
                    rung,
                }
            }
        };
        self.exec_park(id, task, ExecPhase::AwaitInstantiate(ladder));
    }

    /// Starts class logistics for an instantiation at `dest`: fetch the
    /// class from wherever the registry (or the home hint) says it lives.
    fn exec_fetch_class(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, dest: NodeId) {
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
                self.exec_park(id, task, ExecPhase::AwaitFetchClass { dest });
            }
            None => {
                let class = self.name_str(task.spec.class);
                self.exec_fail(env, id, task, MageError::ClassUnavailable(class));
            }
        }
    }

    /// Invokes wherever the component currently is, locating it first when
    /// the task does not know.
    fn exec_locate_and_invoke(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask) {
        if let Some((mut task, loc)) = self.exec_locate(env, id, task, Resume::Invoke) {
            task.invoke_at = Some(loc);
            self.exec_begin_invoke(env, id, task);
        }
    }

    /// Invokes the component where a move or instantiation just placed it,
    /// under the incarnation that placement reported.
    fn exec_invoke_placed(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        at: NodeId,
        incarnation: Incarnation,
    ) {
        task.placed(at, incarnation);
        self.exec_begin_invoke(env, id, task);
    }

    fn exec_begin_invoke(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask) {
        let Some(invoke) = &task.spec.invoke else {
            return self.exec_begin_unlock(env, id, task);
        };
        let at = task.invoke_at.expect("invoke target resolved");
        let args = proto::InvokeArgsRef {
            name: task.spec.object,
            method: invoke.method,
            args: &invoke.args,
            expected: task.cinc.filter(|inc| !inc.is_none()),
        };
        if invoke.one_way {
            // Fire and forget: route the eventual reply to a token nobody
            // owns. The result "stays at the remote host" (§5).
            let noop = self.next_token();
            self.call_service(env, at, self.ids.invoke, &args, noop);
            self.exec_begin_unlock(env, id, task);
        } else {
            self.call_service(env, at, self.ids.invoke, &args, id);
            self.exec_park(id, task, ExecPhase::AwaitInvoke);
        }
    }

    fn exec_begin_unlock(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask) {
        let Some(_) = task.locked_at else {
            return self.exec_finish(env, task);
        };
        // The lock travelled with the object if it moved; release it where
        // the object now lives.
        let at = task
            .invoke_at
            .or(task.cloc)
            .or(task.locked_at)
            .expect("somewhere");
        self.send_unlock(env, at, task.spec.object, id);
        self.exec_park(id, task, ExecPhase::AwaitUnlock);
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
                coerced: task.coerced,
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
        let Some(backup) = task.spec.backup_hint else {
            return Some(task);
        };
        let name = task.spec.object;
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
        let original = err.clone();
        self.exec_park(id, task, ExecPhase::AwaitRestore { original });
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
        let loc = self.exec_adopt(&mut task, found);
        task.spec.location_hint = Some(loc.as_raw());
        if !task.spec.identity_pinned {
            // Advisory identity re-resolves to the restored incarnation —
            // recovery is fully transparent. Pinned stubs keep their
            // expectation: the retry resolves to typed `StaleIdentity`
            // and the session's explicit (or handle-level auto) rebind is
            // the observable trace the recovery leaves.
            task.spec.expected_incarnation = task.cinc;
        }
        match task.spec.action {
            ActionSpec::Act(_) => self.exec_begin_action(env, id, task),
            _ => self.exec_locate_and_invoke(env, id, task),
        }
    }

    /// Where the task's object is, or where a walk to it starts: the
    /// task's own knowledge, or what [`locate_start`](Self::locate_start)
    /// makes of this node's knowledge and the spec's hints, passing over
    /// the peers that died under this op.
    fn exec_start_point(
        &mut self,
        env: &mut Env<'_, '_>,
        task: &ExecTask,
    ) -> Result<Start, MageError> {
        if let Some(loc) = task.cloc {
            let known = task.cinc.unwrap_or(Incarnation::NONE);
            return Ok(Start::Known(Located::new(loc, known)));
        }
        let spec = &task.spec;
        let hint = spec.location_hint.map(|node| {
            let expected = spec.expected_incarnation.unwrap_or(Incarnation::NONE);
            Located::new(NodeId::from_raw(node), expected)
        });
        let key = CompKey::object(spec.object);
        let home = spec.home_hint.map(NodeId::from_raw);
        self.locate_start(env, key, hint, home, &task.dead_peers)
    }

    /// The component's current location (see
    /// [`exec_start_point`](Self::exec_start_point)). Returns `None` once the task is
    /// parked on a find from the home (resuming at `resume`) or failed.
    fn exec_locate(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        resume: Resume,
    ) -> Option<(ExecTask, NodeId)> {
        match self.exec_start_point(env, &task) {
            Ok(Start::Known(found)) => {
                if !task.spec.identity_pinned {
                    task.cinc = Some(found.incarnation).filter(|inc| !inc.is_none());
                }
                task.cloc = Some(found.node);
                Some((task, found.node))
            }
            Ok(Start::Home(home)) => {
                self.send_find(env, home, CompKey::object(task.spec.object), id);
                self.exec_park(id, task, ExecPhase::AwaitFind { resume });
                None
            }
            Err(e) => {
                self.exec_fail(env, id, task, e);
                None
            }
        }
    }

    /// Adopts a find, act or restore answer as the task's location
    /// knowledge and records it in the registry; returns the location.
    fn exec_adopt(&mut self, task: &mut ExecTask, found: FindReply) -> NodeId {
        let loc = NodeId::from_raw(found.location);
        let key = CompKey::object(task.spec.object);
        self.registry
            .update(key, Located::new(loc, found.incarnation));
        task.cloc = Some(loc);
        if !task.spec.identity_pinned {
            task.cinc = Some(found.incarnation).filter(|inc| !inc.is_none());
        }
        loc
    }

    /// Spends one race retry and forgets the location knowledge a failed
    /// step proved stale. The home hint survives in the spec, so the retry
    /// can start a fresh walk.
    fn exec_forget_location(&mut self, task: &mut ExecTask) {
        task.retries -= 1;
        task.cloc = None;
        task.spec.location_hint = None;
        if !task.spec.identity_pinned {
            task.cinc = None;
            task.spec.expected_incarnation = None;
        }
        self.registry.remove(CompKey::object(task.spec.object));
    }

    // ---- reply dispatch: one handler per phase ----

    pub(crate) fn step_exec_reply(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        result: Result<Bytes, RmiError>,
    ) {
        task.note_dead_peer(&result);
        // Every handler parks the task under its next phase, or ends it.
        match std::mem::replace(&mut task.phase, ExecPhase::AwaitInvoke) {
            ExecPhase::AwaitFind { resume } => self.exec_on_found(env, id, task, resume, result),
            ExecPhase::AwaitLock { at } => self.exec_on_locked(env, id, task, at, result),
            ExecPhase::AwaitAct { to } => self.exec_on_acted(env, id, task, to, result),
            ExecPhase::AwaitFetchClass { dest } => {
                self.exec_on_class_fetched(env, id, task, dest, result);
            }
            ExecPhase::AwaitInstantiate(mut ladder) => {
                match self.climb(env, id, &mut ladder, result) {
                    Some(result) => self.exec_on_instantiated(env, id, task, ladder.dest, result),
                    None => self.exec_park(id, task, ExecPhase::AwaitInstantiate(ladder)),
                }
            }
            ExecPhase::AwaitInvoke => self.exec_on_invoked(env, id, task, result),
            ExecPhase::AwaitUnlock => {
                if let Err(e) = result {
                    if env.trace_enabled() {
                        env.note(format!("unlock after bind failed: {e}"));
                    }
                }
                task.locked_at = None;
                self.exec_finish(env, task);
            }
            ExecPhase::AwaitRestore { original } => match result {
                // The backup had no snapshot, or is itself dead: the
                // crash-shaped failure that sent us here surfaces typed
                // (restore_tried blocks a second consultation).
                Err(_) => self.exec_fail(env, id, task, original),
                result => {
                    if let Some((task, found)) = self.exec_decode(env, id, task, result) {
                        self.exec_resume_after_restore(env, id, task, found);
                    }
                }
            },
        }
    }

    /// Decodes a reply payload. A failed call, or a payload that does not
    /// decode, fails the task instead and yields `None`.
    fn exec_decode<T: serde::de::DeserializeOwned>(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        task: ExecTask,
        result: Result<Bytes, RmiError>,
    ) -> Option<(ExecTask, T)> {
        let decoded = match result {
            Ok(bytes) => decode::<T>(&bytes),
            Err(e) => Err(rmi_error_to_mage(&e)),
        };
        match decoded {
            Ok(value) => Some((task, value)),
            Err(e) => {
                self.exec_fail(env, id, task, e);
                None
            }
        }
    }

    /// Resumes the stage that issued the find, or re-runs it from the home
    /// hint when the hop asked is dead.
    fn exec_on_found(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        resume: Resume,
        result: Result<Bytes, RmiError>,
    ) {
        let task = match result {
            Err(ref e) if is_unreachable(e) && task.retries > 0 => {
                // The hop we asked is dead; forget the stale location
                // knowledge so the stage re-resolves it.
                self.exec_forget_location(&mut task);
                task
            }
            result => {
                let Some((mut task, found)) = self.exec_decode(env, id, task, result) else {
                    return;
                };
                self.exec_adopt(&mut task, found);
                task
            }
        };
        // Re-entering the stage that parked: with the location known it
        // continues where it left off.
        match resume {
            Resume::Guard => self.exec_begin_guard(env, id, task),
            Resume::Invoke => self.exec_locate_and_invoke(env, id, task),
        }
    }

    fn exec_on_locked(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        at: NodeId,
        result: Result<Bytes, RmiError>,
    ) {
        match result {
            Err(ref e)
                if (stale_location(e) || rebindable_identity(&task.spec, e))
                    && task.retries > 0 =>
            {
                // Raced a migration (or, for advisory-identity plans, a
                // re-creation), or the host we asked is gone: chase the
                // object and lock again. The driver's location hint is
                // stale by definition here; drop it so the retry re-finds
                // from the home.
                self.exec_forget_location(&mut task);
                self.exec_begin_guard(env, id, task);
            }
            result => {
                if let Some((mut task, kind)) = self.exec_decode::<LockKind>(env, id, task, result)
                {
                    task.locked_at = Some(at);
                    task.lock_kind = Some(kind);
                    self.exec_begin_action(env, id, task);
                }
            }
        }
    }

    /// Takes the reply of an act sent to `to`: the host's location, the
    /// situation it classified and the invocation's result, run in place
    /// or on arrival at the destination (unless the plan invokes after
    /// the move itself).
    ///
    /// An act's home retry is this task's alone, since no forwarding node
    /// re-sends an act (a second copy could invoke twice), and it is
    /// once-only, as a find walk's is: a dead hop sends the next act to
    /// the home, and an act the home could not get through ends the bind.
    fn exec_on_acted(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        to: Option<NodeId>,
        result: Result<Bytes, RmiError>,
    ) {
        let to_home = to.is_some_and(|to| Some(to.as_raw()) == task.spec.home_hint);
        let bytes = match result {
            Err(ref e)
                if (stale_location(e) || rebindable_identity(&task.spec, e))
                    && !(is_unreachable(e) && to_home)
                    && task.retries > 0 =>
            {
                // The walk ended without the object, the host we asked is
                // gone, or (advisory identity only) another incarnation
                // answers: forget what we knew and act again.
                self.exec_forget_location(&mut task);
                return self.exec_begin_action(env, id, task);
            }
            Err(e) => return self.exec_fail(env, id, task, rmi_error_to_mage(&e)),
            Ok(bytes) => bytes,
        };
        let ActionSpec::Act(plan) = task.spec.action else {
            unreachable!("only act plans await an act");
        };
        let (head, result) = match proto::ActReply::split(&bytes) {
            Ok(split) => split,
            Err(e) => return self.exec_fail(env, id, task, e.into()),
        };
        let at = self.exec_adopt(&mut task, head.found());
        task.coerced = match coerce(plan.model, head.situation) {
            Ok(coerced) => Some(coerced),
            Err(e) => return self.exec_fail(env, id, task, e),
        };
        task.invoke_at = Some(at);
        if head.moved && task.arrival_invoke().is_none() {
            return self.exec_begin_invoke(env, id, task);
        }
        self.exec_take_result(env, id, task, result);
    }

    /// Keeps the result of the task's invocation, unless it was one-way,
    /// and goes on to the unlock.
    fn exec_take_result(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        result: Bytes,
    ) {
        if task
            .spec
            .invoke
            .as_ref()
            .is_some_and(|invoke| !invoke.one_way)
        {
            task.result = Some(result);
        }
        self.exec_begin_unlock(env, id, task);
    }

    fn exec_on_class_fetched(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        task: ExecTask,
        dest: NodeId,
        result: Result<Bytes, RmiError>,
    ) {
        let Some((task, class_args)) =
            self.exec_decode::<proto::ReceiveClassArgs>(env, id, task, result)
        else {
            return;
        };
        // Define the class locally (MAGE clones classes, §4.2), then
        // instantiate or push onward.
        let me = env.node();
        env.charge(env.cost().class_load(class_args.code.len() as u64));
        self.classes.insert(class_args.class);
        self.registry
            .update(CompKey::class(class_args.class), Located::untracked(me));
        if dest == me {
            self.exec_begin_action(env, id, task);
        } else {
            self.exec_send_instantiate(env, id, task, dest, Some(&class_args));
        }
    }

    fn exec_on_instantiated(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        task: ExecTask,
        dest: NodeId,
        result: Result<Bytes, RmiError>,
    ) {
        match result {
            // Neither we nor the target have the class: pull it first
            // (GREV-style third-party placement). Had we cached it, the
            // ladder would have pushed it (traditional REV ships local
            // code to the server), and a target still missing it fails
            // the call.
            Err(RmiError::Fault(Fault::ClassMissing(_)))
                if !self.classes.contains(&task.spec.class) =>
            {
                self.exec_fetch_class(env, id, task, dest);
            }
            // A malformed reply must surface, not silently yield
            // Incarnation::NONE — that would disable the identity check for
            // the fresh object.
            result => {
                if let Some((task, incarnation)) = self.exec_decode(env, id, task, result) {
                    let key = CompKey::object(task.spec.object);
                    self.registry.update(key, Located::new(dest, incarnation));
                    self.exec_invoke_placed(env, id, task, dest, incarnation);
                }
            }
        }
    }

    fn exec_on_invoked(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        result: Result<Bytes, RmiError>,
    ) {
        match result {
            Ok(bytes) => self.exec_take_result(env, id, task, bytes),
            Err(ref e)
                if (stale_location(e) || rebindable_identity(&task.spec, e))
                    && task.retries > 0 =>
            {
                // The object moved under us (or its host died); find it
                // again (public objects "must be found before the current
                // thread invokes", §3.5). A StaleIdentity refusal joins the
                // class only for *advisory* identity (a bind holding a stale
                // cached incarnation — the re-find resolves the current
                // one); a pinned stub's StaleIdentity surfaces typed, never
                // silently rebound.
                self.exec_forget_location(&mut task);
                self.exec_locate_and_invoke(env, id, task);
            }
            Err(e) => self.exec_fail(env, id, task, rmi_error_to_mage(&e)),
        }
    }

    /// Resumption point for a client-local move-out (the object we moved
    /// was hosted on this node): where it went, its incarnation and what
    /// the destination answered for a carried invocation.
    pub(crate) fn exec_move_done(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        outcome: Result<(NodeId, Incarnation, Bytes), MageError>,
    ) {
        let carried = task.arrival_invoke().is_some();
        match outcome {
            Ok((dest, incarnation, result)) => {
                task.placed(dest, incarnation);
                if carried {
                    self.exec_take_result(env, id, task, result);
                } else {
                    self.exec_begin_invoke(env, id, task);
                }
            }
            Err(e) => {
                // A receive whose reply was lost may have run the carried
                // invocation already: no restore runs it again.
                task.restore_tried |= carried;
                self.exec_fail(env, id, task, e);
            }
        }
    }
}
