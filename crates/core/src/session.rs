#![warn(clippy::too_many_lines)]
//! Per-namespace client sessions.
//!
//! A [`Session`] is the client-side handle to one namespace of a running
//! [`Runtime`](crate::Runtime): it owns the client identity every
//! operation originates from, plus the per-client location cache of §3.5
//! ("private objects' cached location is authoritative; shared objects
//! must be found before use"). Two sessions obtained from the same
//! runtime interleave freely against one world — each `_async` operation
//! returns a typed [`Pending`] handle, and the driver decides when to pump
//! the world and collect results.
//!
//! ```
//! use mage_core::attribute::Rev;
//! use mage_core::workload_support::{methods, test_object_class};
//! use mage_core::{ObjectSpec, Runtime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = Runtime::builder()
//!     .fast()
//!     .nodes(["lab", "sensor1"])
//!     .class(test_object_class())
//!     .build();
//! rt.deploy_class("TestObject", "lab")?;
//!
//! let lab = rt.session("lab")?;
//! lab.create(ObjectSpec::new("counter").class("TestObject"))?;
//!
//! // Typed descriptor: argument and result types check at compile time.
//! let rev = Rev::new("TestObject", "counter", "sensor1");
//! let stub = lab.bind(&rev)?;
//! let n = lab.call(&stub, methods::INC, &())?;
//! assert_eq!(n, 1);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use mage_codec::ByteBuf;
use mage_rmi::{NameId, SymbolTable};
use mage_sim::{NodeId, OpId};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::attribute::{BindPlan, BindView, MobilityAttribute, Mode, Target};
use crate::class::Method;
use crate::coercion::{coerce, Coerced, Situation};
use crate::component::{Durability, Visibility};
use crate::error::MageError;
use crate::lock::LockKind;
use crate::pending::{DecodeFn, Pending};
use crate::proto::{ActionSpec, Command, ExecSpec, InstantiateArgs, InvokeSpec, OpCell, Outcome};
use crate::registry::{CompKey, Incarnation, Located};
use crate::runtime::{Directory, Inner};
use crate::spec::{ObjectHandle, ObjectSpec};

/// A client-side reference to a bound component: which namespace bound it,
/// and where the object was last known to live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stub {
    pub(crate) client: NodeId,
    pub(crate) at: NodeId,
    pub(crate) object: String,
    pub(crate) object_id: NameId,
    pub(crate) class: String,
    pub(crate) class_id: NameId,
    pub(crate) home: Option<NodeId>,
    /// Incarnation of the object this stub was bound against. Invocations
    /// carry it; if the name has since been re-bound to a different
    /// instance, the call resolves to [`MageError::StaleIdentity`] instead
    /// of silently reaching the impostor — rebind with
    /// [`Session::rebind`] to talk to the current object.
    pub(crate) incarnation: Incarnation,
}

impl Stub {
    /// The namespace that performed the bind (invocations originate here).
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// Last known location of the object.
    pub fn location(&self) -> NodeId {
        self.at
    }

    /// The object's registered name.
    pub fn object(&self) -> &str {
        &self.object
    }

    /// The object's class.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The incarnation this stub is bound to (raw id; `0` = untracked).
    pub fn incarnation(&self) -> u64 {
        self.incarnation.as_raw()
    }
}

/// Everything a bind produced: the stub plus how coercion resolved it.
#[derive(Debug, Clone, PartialEq)]
pub struct BindReceipt {
    /// The stub for subsequent invocations.
    pub stub: Stub,
    /// How the coercion matrix resolved this bind (Table 2).
    pub coerced: Coerced,
    /// Lock kind acquired, when the plan was guarded.
    pub lock_kind: Option<LockKind>,
    /// Invocation result, when the bind included one.
    pub result: Option<Vec<u8>>,
}

/// The per-client cache a session owns (§3.5), keyed by interned
/// component keys — a lookup is an 8-byte comparison, no hashing of
/// strings.
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    /// Where this client last saw each component — and which incarnation
    /// it saw there. Identity rides with location knowledge everywhere.
    pub cached_loc: BTreeMap<CompKey, Located>,
    /// The cell of the op this session last waited on, emptied, for its
    /// next op to travel in (see [`OpCell`]). One slot: ops in flight
    /// beyond the first get fresh cells, and spare ones are freed.
    pub spare: Option<Box<OpCell>>,
}

/// Everything a bind plan resolved before execution; carried into the
/// deferred decode so the receipt can be assembled when the op completes.
struct BindContext {
    client: NodeId,
    object: String,
    object_id: NameId,
    class: String,
    class_id: NameId,
    coerced: Coerced,
    is_factory: bool,
}

/// Builds a bind's stub from its outcome (a factory's instance becomes
/// the object's home); the invocation result stays in `outcome` for the
/// caller to decode.
fn stub_from(ctx: BindContext, outcome: &Outcome, dir: &mut Directory) -> Stub {
    let at = NodeId::from_raw(outcome.location);
    let key = CompKey::object(ctx.object_id);
    if ctx.is_factory {
        dir.homes.insert(key, at);
    }
    Stub {
        client: ctx.client,
        at,
        object: ctx.object,
        object_id: ctx.object_id,
        class: ctx.class,
        class_id: ctx.class_id,
        home: dir.homes.get(&key).copied(),
        incarnation: outcome.incarnation,
    }
}

/// The marshalled result an awaited invocation must carry.
fn expect_result(result: Option<Bytes>) -> Result<Bytes, MageError> {
    result.ok_or_else(|| MageError::Rmi("invocation returned no result".into()))
}

/// Unmarshals an invocation result straight out of the reply frame.
fn decode_result<R: DeserializeOwned>(result: Option<Bytes>) -> Result<R, MageError> {
    mage_codec::from_bytes(&expect_result(result)?).map_err(MageError::from)
}

/// A client handle bound to one namespace of a running deployment.
///
/// Obtained from [`Runtime::session`](crate::Runtime::session). Cloning a
/// session shares its cache; sessions for different namespaces are fully
/// independent views over the same world.
#[derive(Clone)]
pub struct Session {
    name: String,
    client: NodeId,
    inner: Rc<RefCell<Inner>>,
    state: Rc<RefCell<SessionState>>,
    syms: Arc<SymbolTable>,
}

impl Session {
    pub(crate) fn new(name: String, client: NodeId, inner: Rc<RefCell<Inner>>) -> Self {
        let syms = Arc::clone(&inner.borrow().syms);
        Session {
            name,
            client,
            inner,
            state: Rc::new(RefCell::new(SessionState::default())),
            syms,
        }
    }

    /// The namespace this session operates from.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// The namespace's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This client's view of where every known object lives (for system
    /// snapshots like the paper's Figure 6).
    pub fn directory(&self) -> Vec<(String, NodeId)> {
        let mut entries: Vec<(String, NodeId)> = self
            .state
            .borrow()
            .cached_loc
            .iter()
            .map(|(key, loc)| (key.display(&self.syms), loc.node))
            .collect();
        entries.sort();
        entries
    }

    // ---- internals ----

    fn node_id(&self, name: &str) -> Result<NodeId, MageError> {
        self.inner.borrow().node_id(name)
    }

    /// Key of the object `name`, interning nothing: a name that was never
    /// interned is no node's object, so it is `NotFound` before any send.
    fn object_key(&self, name: &str) -> Result<CompKey, MageError> {
        self.syms
            .lookup(name)
            .map(CompKey::object)
            .ok_or_else(|| MageError::NotFound(name.to_owned()))
    }

    /// Marshals call arguments (see [`Inner::marshal`]).
    fn marshal<A: Serialize + ?Sized>(&self, args: &A) -> Result<Bytes, MageError> {
        self.inner.borrow_mut().marshal(args)
    }

    /// Where this session last saw the component `key`.
    fn cached_node(&self, key: CompKey) -> Option<NodeId> {
        self.state
            .borrow()
            .cached_loc
            .get(&key)
            .map(|entry| entry.node)
    }

    /// Hands this session's node a typed command (no encoding: the driver
    /// shares the node's process) and returns a typed handle to its
    /// outcome; the handle records where `learn` answered when it is
    /// waited on. The command travels in the session's spare [`OpCell`]
    /// when it has one, so a steady stream of blocking ops allocates no
    /// cell at all.
    fn issue<T>(
        &self,
        learn: Option<CompKey>,
        build: impl FnOnce(OpId) -> Command,
        decode: DecodeFn<T>,
    ) -> Pending<T> {
        let op = {
            let mut inner = self.inner.borrow_mut();
            let op = inner.world.begin_op();
            let command = OpCell::Command(build(op));
            let cell = match self.state.borrow_mut().spare.take() {
                Some(mut cell) => {
                    *cell = command;
                    cell
                }
                None => Box::new(command),
            };
            inner.world.inject(self.client, "mage-cmd", cell);
            op
        };
        let (inner, state) = (Rc::clone(&self.inner), Rc::clone(&self.state));
        Pending::new(op, inner, state, learn, decode)
    }

    /// The origin server the directory names for `key`, as a command's
    /// home hint.
    fn home_hint(&self, key: CompKey) -> Option<u32> {
        self.inner.borrow().dir.homes.get(&key).map(|n| n.as_raw())
    }

    /// Resolves a plan's target to a node; `Current` is `current`, the
    /// object's location (`None` when unlocated).
    fn target_node(
        &self,
        target: &Target,
        current: Option<NodeId>,
    ) -> Result<Option<NodeId>, MageError> {
        Ok(match target {
            Target::Client => Some(self.client),
            Target::Node(name) => Some(self.node_id(name)?),
            Target::Current => current,
        })
    }

    // ---- object creation ----

    /// Creates an object from a declarative [`ObjectSpec`]: name, class,
    /// initial state, visibility, an optional mobility attribute deciding
    /// the birthplace, and the durability policy. Returns a typed
    /// [`ObjectHandle`] carrying `(name, incarnation)` plus the policy
    /// set, so policy-aware operations like
    /// [`call_handle`](Session::call_handle) know how to react to
    /// crash-induced identity changes.
    ///
    /// # Errors
    ///
    /// Fails if the class is unresolvable or not deployed at the
    /// birthplace, the name is taken there, a replicated spec cannot
    /// resolve a backup home, or the initial state failed to marshal.
    pub fn create(&self, spec: ObjectSpec) -> Result<ObjectHandle, MageError> {
        let class = spec.resolve_class()?;
        let ObjectSpec {
            name,
            state,
            visibility,
            mobility,
            durability,
            backup,
            pinned,
            ..
        } = spec;
        let state = state?;

        // Birthplace: the mobility attribute's plan target, or here.
        let target = match &mobility {
            Some(attr) => self.target_node(&self.plan_with(attr.as_ref(), None)?.target, None)?,
            None => None,
        }
        .unwrap_or(self.client);

        let backup_node = self.backup_home(durability, backup.as_deref(), target)?;

        // Every defined class was interned at build time: an unknown name
        // is no class, and is not interned here either.
        let Some(class_id) = self.syms.lookup(&class) else {
            return Err(MageError::ClassUnavailable(class));
        };
        let object_id = self.syms.intern(&name);
        let backup_raw = backup_node.map(|n| n.as_raw());
        let args = InstantiateArgs {
            class: class_id,
            name: object_id,
            state: ByteBuf(state),
            visibility,
            durability,
            backup: backup_raw,
            // Creation, not factory rebind: a taken name errors.
            replace: false,
        };
        // Remote birth: the ordinary instantiate ladder (with class
        // logistics) places the object at the attribute's target.
        let remote = (target != self.client).then(|| self.home_hint(CompKey::class(class_id)));
        let key = CompKey::object(object_id);
        let client = self.client;
        let build = move |op| match remote {
            None => Command::CreateObject { op, args },
            Some(home_hint) => Command::Execute {
                op,
                spec: ExecSpec {
                    class: class_id,
                    object: object_id,
                    location_hint: None,
                    expected_incarnation: None,
                    identity_pinned: false,
                    home_hint,
                    backup_hint: backup_raw,
                    action: ActionSpec::Instantiate {
                        node: target.as_raw(),
                        args,
                    },
                    invoke: None,
                    guard: false,
                },
            },
        };
        let decode: DecodeFn<ObjectHandle> = Box::new(move |outcome, dir| {
            let at = NodeId::from_raw(outcome.location);
            dir.homes.insert(key, at);
            dir.visibility.insert(object_id, visibility);
            // A volatile re-creation under a previously replicated name
            // must not leave a stale backup hint behind.
            match backup_node {
                Some(backup) => dir.backups.insert(key, backup),
                None => dir.backups.remove(&key),
            };
            Ok(ObjectHandle {
                stub: Stub {
                    client,
                    at,
                    object: name,
                    object_id,
                    class,
                    class_id,
                    home: Some(at),
                    incarnation: outcome.incarnation,
                },
                durability,
                pinned,
            })
        });
        self.issue(Some(key), build, decode).wait()
    }

    /// The backup home of an object created at `birthplace`: none for a
    /// volatile object; for a replicated one, `named` or else the
    /// namespace after the birthplace in id order. Fixed for the object's
    /// life.
    fn backup_home(
        &self,
        durability: Durability,
        named: Option<&str>,
        birthplace: NodeId,
    ) -> Result<Option<NodeId>, MageError> {
        Ok(match (durability, named) {
            (Durability::Volatile, _) => None,
            (Durability::Replicated { .. }, Some(node)) => Some(self.node_id(node)?),
            (Durability::Replicated { .. }, None) => {
                let count = self.inner.borrow().ids.len() as u32;
                if count < 2 {
                    return Err(MageError::BadPlan(
                        "replication needs at least two namespaces".into(),
                    ));
                }
                Some(NodeId::from_raw((birthplace.as_raw() + 1) % count))
            }
        })
    }

    // ---- find ----

    /// Locates a component from this session's point of view.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::NotFound`] when no forwarding chain reaches it.
    pub fn find(&self, name: &str) -> Result<NodeId, MageError> {
        self.find_async(name)?.wait()
    }

    /// Starts a find without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::NotFound`] at issue time for a name that was
    /// never interned: no node can host it.
    pub fn find_async(&self, name: &str) -> Result<Pending<NodeId>, MageError> {
        let key = CompKey::lookup(&self.syms, name)
            .ok_or_else(|| MageError::NotFound(name.to_owned()))?;
        let home_hint = self.home_hint(key);
        Ok(self.issue(
            Some(key),
            move |op| Command::Find { op, key, home_hint },
            Box::new(|outcome, _dir| Ok(NodeId::from_raw(outcome.location))),
        ))
    }

    /// Explicitly re-binds a stale stub to whatever incarnation currently
    /// answers to its name: runs a fresh find (which learns the current
    /// location *and* incarnation) and returns an updated stub.
    ///
    /// This is the recovery path for [`MageError::StaleIdentity`]: the
    /// runtime never silently rebinds — re-creation after a crash, or a
    /// re-created copy surviving next to a partitioned-away original, is
    /// something the session must acknowledge by calling this.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::NotFound`] when nothing answers to the name.
    pub fn rebind(&self, stub: &Stub) -> Result<Stub, MageError> {
        self.inner.borrow_mut().world.bump_metric("rebinds");
        let loc = self.find(&stub.object)?;
        let key = CompKey::object(stub.object_id);
        let entry = self
            .state
            .borrow()
            .cached_loc
            .get(&key)
            .copied()
            .unwrap_or(Located::untracked(loc));
        Ok(Stub {
            client: self.client,
            at: entry.node,
            object: stub.object.clone(),
            object_id: stub.object_id,
            class: stub.class.clone(),
            class_id: stub.class_id,
            home: stub.home,
            incarnation: entry.incarnation,
        })
    }

    // ---- bind ----

    /// Binds a mobility attribute, returning a stub.
    ///
    /// This is the paper's `o = ma.bind()` (§3.1): find the component,
    /// consult the attribute's plan, apply mobility coercion, and run the
    /// resulting placement protocol.
    ///
    /// # Errors
    ///
    /// Propagates coercion errors (Table 2's exception cells), lookup
    /// failures and protocol denials.
    pub fn bind(&self, attr: &dyn MobilityAttribute) -> Result<Stub, MageError> {
        self.bind_async(attr)?.wait()
    }

    /// Binds and returns the full receipt (coercion outcome, lock kind).
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind`].
    pub fn bind_full(&self, attr: &dyn MobilityAttribute) -> Result<BindReceipt, MageError> {
        self.bind_full_async(attr)?.wait()
    }

    /// Starts a bind without blocking on the placement protocol.
    ///
    /// The bind *plan* (locating the component, consulting the attribute,
    /// applying coercion) resolves eagerly — it may cost one synchronous
    /// find round-trip — but the placement protocol itself runs
    /// asynchronously, so many binds can be in flight at once.
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind`] for planning-stage failures.
    pub fn bind_async(&self, attr: &dyn MobilityAttribute) -> Result<Pending<Stub>, MageError> {
        self.bind_then(attr, None, |stub, _coerced, _outcome| Ok(stub))
    }

    /// Starts a bind without blocking, resolving to the full receipt.
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind_async`].
    pub fn bind_full_async(
        &self,
        attr: &dyn MobilityAttribute,
    ) -> Result<Pending<BindReceipt>, MageError> {
        self.bind_then(attr, None, |stub, coerced, outcome| {
            Ok(BindReceipt {
                stub,
                coerced,
                lock_kind: outcome.lock_kind,
                result: outcome.result.map(|bytes| bytes.to_vec()),
            })
        })
    }

    /// Binds and invokes in a single bracketed engine operation (the §4.4
    /// `lock → bind → invoke → unlock` pattern when the plan is guarded).
    ///
    /// Returns the stub and the decoded result (`None` for one-way
    /// attributes such as mobile agents).
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind`], plus marshalling failures.
    pub fn bind_invoke<A, R>(
        &self,
        attr: &dyn MobilityAttribute,
        method: Method<A, R>,
        args: &A,
    ) -> Result<(Stub, Option<R>), MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        self.bind_invoke_async(attr, method, args)?.wait()
    }

    /// Starts a bind-and-invoke without blocking.
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind_invoke`] for planning-stage failures.
    pub fn bind_invoke_async<A, R>(
        &self,
        attr: &dyn MobilityAttribute,
        method: Method<A, R>,
        args: &A,
    ) -> Result<Pending<(Stub, Option<R>)>, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        let invoke = InvokeSpec {
            method: self.syms.intern(method.name()),
            args: self.marshal(args)?,
            one_way: attr.one_way(),
        };
        self.bind_then(attr, Some(invoke), |stub, _coerced, outcome| {
            let result = outcome.result.map(|bytes| mage_codec::from_bytes(&bytes));
            Ok((stub, result.transpose()?))
        })
    }

    /// The one bind issue path: plans, issues the placement protocol, and
    /// on completion builds the stub and hands it to `finish` with the
    /// coercion outcome and the raw outcome.
    fn bind_then<T>(
        &self,
        attr: &dyn MobilityAttribute,
        invoke: Option<InvokeSpec>,
        finish: impl FnOnce(Stub, Coerced, Outcome) -> Result<T, MageError> + 'static,
    ) -> Result<Pending<T>, MageError> {
        let (spec, ctx) = self.plan_exec(attr, invoke)?;
        Ok(self.issue(
            Some(CompKey::object(ctx.object_id)),
            move |op| Command::Execute { op, spec },
            Box::new(move |outcome, dir| {
                let coerced = ctx.coerced;
                finish(stub_from(ctx, &outcome, dir), coerced, outcome)
            }),
        ))
    }

    /// Consults the attribute's plan against a view of the system with the
    /// given location knowledge.
    fn plan_with(
        &self,
        attr: &dyn MobilityAttribute,
        location: Option<NodeId>,
    ) -> Result<BindPlan, MageError> {
        let inner = self.inner.borrow();
        let view = BindView::new(
            self.client,
            location,
            &inner.ids,
            &inner.dir.loads,
            inner.world.now(),
        );
        attr.plan(&view)
    }

    /// Resolves an attribute's plan into an executable spec, using this
    /// session's cached knowledge (the client half of a bind).
    fn plan_exec(
        &self,
        attr: &dyn MobilityAttribute,
        invoke: Option<InvokeSpec>,
    ) -> Result<(ExecSpec, BindContext), MageError> {
        let component = attr.component();
        let name = component
            .object_name()
            .ok_or_else(|| MageError::BadPlan("attribute has no object name".into()))?;
        let (object_id, class) = (self.syms.intern(name), component.class_name());
        let (key, class_id) = (CompKey::object(object_id), self.syms.intern(class));
        let visibility = self.inner.borrow().dir.visibility.get(&object_id).copied();

        // Plan first with cached knowledge: a private object's cached
        // location is authoritative (§3.5), and a fresh session falls
        // back to the directory's origin server for one ("clients share
        // the name of the mobile object's origin server", §7). Only a
        // location-shaped failure with nothing cached finds and plans
        // again; any other plan error (only a user policy returns one)
        // surfaces untouched, without consulting that policy a second
        // time.
        let cached = self.cached_node(key).or_else(|| match visibility {
            Some(Visibility::Private) => self.inner.borrow().dir.homes.get(&key).copied(),
            _ => None,
        });
        let mut location = cached;
        let mut plan = match self.plan_with(attr, cached) {
            Err(MageError::NotFound(missing)) if cached.is_none() => {
                let found = self.find(name).map_err(|_| MageError::NotFound(missing))?;
                location = Some(found);
                self.plan_with(attr, location)?
            }
            plan => plan?,
        };
        let is_factory = matches!(plan.mode, Mode::Factory { .. });
        if is_factory {
            location = None; // a fresh instance is about to be created
        } else if location == cached
            && (cached.is_none() || visibility != Some(Visibility::Private))
        {
            // Unless the plan above just found it, a shared object may
            // have been moved by another session and must be found before
            // use (§3.5); so must an unlocated one.
            location = match self.find(name) {
                Ok(loc) => Some(loc),
                Err(MageError::NotFound(_)) => None,
                Err(err) => return Err(err),
            };
            if location != cached {
                plan = self.plan_with(attr, location)?;
            }
        }

        let target = self.target_node(&plan.target, location)?;
        let named = match plan.target {
            Target::Current => None,
            _ => target,
        };
        let ctx = BindContext {
            client: self.client,
            object: name.to_owned(),
            object_id,
            class: class.to_owned(),
            class_id,
            coerced: coerce(
                attr.model(),
                Situation::classify(self.client, named, location),
            )?,
            is_factory,
        };
        let guard = plan.guard;
        let action = self.action(&ctx, plan, target, location)?;

        // Identity expectation: if the session's cache agrees on the node
        // the plan settled on, it also knows which incarnation it expects
        // there; an invocation reaching another resolves to
        // `StaleIdentity`.
        let expected_incarnation = self
            .state
            .borrow()
            .cached_loc
            .get(&key)
            .filter(|entry| location == Some(entry.node) && !entry.incarnation.is_none())
            .map(|entry| entry.incarnation);
        // Only a factory plan fetches the class, so only it falls back
        // from the object's home to the class's.
        let class_home = is_factory
            .then(|| self.home_hint(CompKey::class(class_id)))
            .flatten();
        let spec = ExecSpec {
            class: class_id,
            object: object_id,
            location_hint: location.map(|n| n.as_raw()),
            expected_incarnation,
            identity_pinned: false,
            home_hint: self.home_hint(key).or(class_home),
            backup_hint: self
                .inner
                .borrow()
                .dir
                .backups
                .get(&key)
                .map(|n| n.as_raw()),
            action,
            invoke,
            guard,
        };
        Ok((spec, ctx))
    }

    /// The engine action for a coerced plan (Table 2 applied to the plan's
    /// mode): `target` is the plan's resolved target, `location` where the
    /// object is (`None` for a factory or an unlocated object).
    fn action(
        &self,
        ctx: &BindContext,
        plan: BindPlan,
        target: Option<NodeId>,
        location: Option<NodeId>,
    ) -> Result<ActionSpec, MageError> {
        let not_found = || MageError::NotFound(ctx.object.clone());
        Ok(match (ctx.coerced, plan.mode) {
            (Coerced::AsLpc, _) => ActionSpec::Local,
            (Coerced::AsRpc, _) => ActionSpec::InvokeAt {
                node: location
                    .expect("coerced to RPC implies a located component")
                    .as_raw(),
            },
            (Coerced::Proceed, Mode::Stationary) => match plan.target {
                Target::Client => ActionSpec::Local,
                _ => ActionSpec::InvokeAt {
                    node: target.ok_or_else(not_found)?.as_raw(),
                },
            },
            (Coerced::Proceed, Mode::Move) => {
                let dest =
                    target.ok_or_else(|| MageError::BadPlan("move needs a target".into()))?;
                location.ok_or_else(not_found)?;
                ActionSpec::MoveTo {
                    node: dest.as_raw(),
                }
            }
            (Coerced::Proceed, Mode::Factory { state, visibility }) => {
                // Factory binds register the fresh instance under the
                // component's object name, replacing any previous instance
                // (RMI-style rebind): that is how the paper's REV factory
                // creates `geoData` on `sensor1` for later attributes to
                // bind to (§3.6). They declare no durability policy of
                // their own; policy-bearing creation is `Session::create`.
                let mut inner = self.inner.borrow_mut();
                inner.dir.visibility.insert(ctx.object_id, visibility);
                ActionSpec::Instantiate {
                    node: target.unwrap_or(ctx.client).as_raw(),
                    args: InstantiateArgs {
                        class: ctx.class_id,
                        name: ctx.object_id,
                        state: ByteBuf(state),
                        visibility,
                        durability: Durability::Volatile,
                        backup: None,
                        replace: true,
                    },
                }
            }
        })
    }

    // ---- invocation ----

    /// Issues an invocation through a stub: the one path of `call`,
    /// `call_async`, `call_raw`, `call_handle`, `send` and `send_async`.
    ///
    /// Location and identity separate here: the session cache advises
    /// *where* to send the call (objects move behind a stub's back, §3.5),
    /// but a `pinned` call invokes the *identity* the stub was bound to —
    /// it either reaches that object or resolves to `StaleIdentity`, even
    /// when the session already knows about a replacement. Rebinding to
    /// the replacement is an explicit act ([`Session::rebind`]), never a
    /// side effect of a cache refresh; unpinned handles let the engine
    /// re-resolve identity. A `one_way` send learns nothing about where
    /// the object answered.
    fn invoke<T>(
        &self,
        stub: &Stub,
        method: NameId,
        args: Bytes,
        pinned: bool,
        one_way: bool,
        decode: DecodeFn<T>,
    ) -> Pending<T> {
        let key = CompKey::object(stub.object_id);
        let at = self.cached_node(key).unwrap_or(stub.at);
        let backup = self
            .inner
            .borrow()
            .dir
            .backups
            .get(&key)
            .map(|n| n.as_raw());
        let spec = ExecSpec {
            class: stub.class_id,
            object: stub.object_id,
            location_hint: Some(at.as_raw()),
            expected_incarnation: Some(stub.incarnation).filter(|inc| !inc.is_none()),
            identity_pinned: pinned,
            home_hint: stub.home.map(|n| n.as_raw()),
            backup_hint: backup,
            action: ActionSpec::InvokeAt { node: at.as_raw() },
            invoke: Some(InvokeSpec {
                method,
                args,
                one_way,
            }),
            guard: false,
        };
        let learn = (!one_way).then_some(key);
        self.issue(learn, move |op| Command::Execute { op, spec }, decode)
    }

    /// Invokes a typed method through a stub and decodes the result.
    ///
    /// # Errors
    ///
    /// Propagates invocation faults and marshalling failures.
    pub fn call<A, R>(&self, stub: &Stub, method: Method<A, R>, args: &A) -> Result<R, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        self.call_async(stub, method, args)?.wait()
    }

    /// Starts a typed invocation without blocking.
    ///
    /// # Errors
    ///
    /// Propagates marshalling failures at issue time.
    pub fn call_async<A, R>(
        &self,
        stub: &Stub,
        method: Method<A, R>,
        args: &A,
    ) -> Result<Pending<R>, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        let method = self.syms.intern(method.name());
        Ok(self.invoke(
            stub,
            method,
            self.marshal(args)?,
            true,
            false,
            Box::new(|outcome, _dir| decode_result(outcome.result)),
        ))
    }

    /// Invokes `method` through a stub with pre-marshalled arguments.
    ///
    /// # Errors
    ///
    /// Propagates invocation faults.
    pub fn call_raw(&self, stub: &Stub, method: &str, args: Vec<u8>) -> Result<Vec<u8>, MageError> {
        let method = self.syms.intern(method);
        let decode: DecodeFn<Vec<u8>> =
            Box::new(|outcome, _dir| Ok(expect_result(outcome.result)?.to_vec()));
        self.invoke(stub, method, Bytes::from(args), true, false, decode)
            .wait()
    }

    /// Invokes a typed method through an [`ObjectHandle`], applying its
    /// policy set.
    ///
    /// For a [`Durability::Replicated`] handle, a typed
    /// [`MageError::StaleIdentity`] — the trace a crash-restore (or a
    /// re-creation) leaves on pinned stubs — triggers one automatic
    /// rebind-and-retry: the handle re-binds to the incarnation now
    /// answering to the name (the restored object, state intact) and the
    /// call repeats. Unpinned handles never see the stale identity at all
    /// — the engine re-resolves identity in place. Volatile pinned
    /// handles surface `StaleIdentity` exactly like a bare stub, because
    /// a volatile successor shares only the name, not the state.
    ///
    /// The handle's location and incarnation are refreshed from whatever
    /// the call learned.
    ///
    /// # Errors
    ///
    /// Propagates invocation faults and marshalling failures; the rebind
    /// path surfaces [`MageError::NotFound`] when nothing answers to the
    /// name anymore (e.g. the backup home died too).
    pub fn call_handle<A, R>(
        &self,
        handle: &mut ObjectHandle,
        method: Method<A, R>,
        args: &A,
    ) -> Result<R, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        let (method, bytes) = (self.syms.intern(method.name()), self.marshal(args)?);
        let pinned = handle.pinned;
        let call = |stub: &Stub, args: Bytes| {
            let raw: DecodeFn<Option<Bytes>> = Box::new(|outcome, _dir| Ok(outcome.result));
            self.invoke(stub, method, args, pinned, false, raw).wait()
        };
        let out = match call(&handle.stub, bytes.clone()) {
            Err(MageError::StaleIdentity { .. }) if handle.durability.is_replicated() => {
                handle.stub = self.rebind(&handle.stub)?;
                self.inner.borrow_mut().world.bump_metric("auto_rebinds");
                call(&handle.stub, bytes)?
            }
            other => other?,
        };
        self.refresh_handle(handle);
        decode_result(out)
    }

    /// Updates a handle's stub from the session cache (location always;
    /// incarnation only for unpinned handles, where identity tracking is
    /// the engine's job, not the caller's).
    fn refresh_handle(&self, handle: &mut ObjectHandle) {
        let key = CompKey::object(handle.stub.object_id);
        if let Some(entry) = self.state.borrow().cached_loc.get(&key) {
            handle.stub.at = entry.node;
            if !handle.pinned && !entry.incarnation.is_none() {
                handle.stub.incarnation = entry.incarnation;
            }
        }
    }

    /// Fire-and-forget invocation through a stub.
    ///
    /// # Errors
    ///
    /// Propagates marshalling failures and placement errors; delivery of
    /// the invocation itself is not awaited.
    pub fn send<A, R>(&self, stub: &Stub, method: Method<A, R>, args: &A) -> Result<(), MageError>
    where
        A: Serialize,
    {
        self.send_async(stub, method, args)?.wait()
    }

    /// Starts a fire-and-forget invocation without blocking.
    ///
    /// # Errors
    ///
    /// Propagates marshalling failures at issue time.
    pub fn send_async<A, R>(
        &self,
        stub: &Stub,
        method: Method<A, R>,
        args: &A,
    ) -> Result<Pending<()>, MageError>
    where
        A: Serialize,
    {
        let method = self.syms.intern(method.name());
        Ok(self.invoke(
            stub,
            method,
            self.marshal(args)?,
            true,
            true,
            Box::new(|_outcome, _dir| Ok(())),
        ))
    }

    // ---- locking (§4.4) ----

    /// Acquires a stay/move lock on `name`; the kind depends on whether
    /// the object already resides at `target`.
    ///
    /// # Errors
    ///
    /// Fails if the object cannot be located.
    pub fn lock(&self, name: &str, target: &str) -> Result<LockKind, MageError> {
        self.lock_async(name, target)?.wait()
    }

    /// Starts a lock acquisition without blocking (the §4.4 contention
    /// scenarios issue several of these before pumping the world).
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names, and with [`MageError::NotFound`]
    /// on an object name that was never interned.
    pub fn lock_async(&self, name: &str, target: &str) -> Result<Pending<LockKind>, MageError> {
        let target = self.node_id(target)?;
        let key = self.object_key(name)?;
        let home_hint = self.home_hint(key);
        Ok(self.issue(
            None,
            move |op| Command::Lock {
                op,
                name: key.id,
                target: target.as_raw(),
                home_hint,
            },
            Box::new(|outcome, _dir| {
                outcome
                    .lock_kind
                    .ok_or_else(|| MageError::Rmi("lock reply carried no kind".into()))
            }),
        ))
    }

    /// Releases this client's lock on `name`.
    ///
    /// # Errors
    ///
    /// Fails if the object cannot be located.
    pub fn unlock(&self, name: &str) -> Result<(), MageError> {
        self.unlock_async(name)?.wait()
    }

    /// Starts an unlock without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::NotFound`] at issue time for an object name
    /// that was never interned.
    pub fn unlock_async(&self, name: &str) -> Result<Pending<()>, MageError> {
        let key = self.object_key(name)?;
        let home_hint = self.home_hint(key);
        Ok(self.issue(
            None,
            move |op| Command::Unlock {
                op,
                name: key.id,
                home_hint,
            },
            Box::new(|_outcome, _dir| Ok(())),
        ))
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("name", &self.name)
            .field("client", &self.client)
            .field("cached_objects", &self.state.borrow().cached_loc.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Rev;
    use crate::runtime::Runtime;
    use crate::workload_support::test_object_class;

    /// Creating an object of an undefined class fails typed and leaves
    /// the world's symbol table as it was: neither the class name nor the
    /// object name is interned for a create that cannot succeed.
    #[test]
    fn create_of_an_undefined_class_interns_nothing() {
        let mut rt = Runtime::builder()
            .fast()
            .nodes(["a", "b"])
            .class(test_object_class())
            .build();
        rt.deploy_class("TestObject", "a").unwrap();
        let session = rt.session("a").unwrap();
        let before = session.syms.len();
        let specs = [
            ObjectSpec::new("orphan").class("Nope"),
            ObjectSpec::new("orphan").mobility(Rev::new("Nope", "orphan", "b")),
        ];
        for spec in specs {
            let err = session.create(spec).unwrap_err();
            assert_eq!(err, MageError::ClassUnavailable("Nope".into()));
            assert_eq!(session.syms.len(), before);
        }
    }

    /// A find, lock or unlock of a name that was never interned fails at
    /// issue time with `NotFound` and leaves the symbol table as it was.
    #[test]
    fn find_lock_unlock_of_an_unknown_name_intern_nothing() {
        let rt = Runtime::builder()
            .fast()
            .nodes(["a", "b"])
            .class(test_object_class())
            .build();
        let session = rt.session("a").unwrap();
        let before = session.syms.len();
        for name in ["ghost", "class:Ghost"] {
            let err = session.find_async(name).unwrap_err();
            assert_eq!(err, MageError::NotFound(name.into()));
        }
        let ghost = MageError::NotFound("ghost".into());
        assert_eq!(session.lock_async("ghost", "b").unwrap_err(), ghost);
        assert_eq!(session.unlock_async("ghost").unwrap_err(), ghost);
        assert_eq!(session.syms.len(), before);
    }
}
