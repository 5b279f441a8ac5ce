#![warn(clippy::too_many_lines)]
//! MAGE system-service wire protocol.
//!
//! The paper's `MageServer`, `MageExternalServer` and registry interfaces
//! are RMI remote objects; here they are methods of one well-known service
//! object, [`SERVICE`], reachable on every node. Mobility attributes
//! "boil down to RMI calls" (§4.2) against these methods.
//!
//! The argument structs below travel between nodes and are encoded with
//! `mage_codec`. The driver types at the end ([`Command`], [`ExecSpec`],
//! [`Outcome`]) never cross a wire: a session hands its node a typed
//! command through [`World::inject`](mage_sim::World::inject) and takes the
//! typed completion back, so they carry interned ids and shared buffers
//! instead of being serializable.

use bytes::Bytes;
use mage_codec::ByteBuf;
use mage_rmi::NameId;
use mage_sim::OpId;
use serde::{Deserialize, Serialize};

use crate::coercion::{Coerced, Situation};
use crate::component::{Durability, ModelKind, Visibility};
use crate::error::MageError;
use crate::lock::{HolderTransfer, LockKind};
use crate::registry::{CompKey, Incarnation};

/// The name every MAGE node binds its system service under.
pub const SERVICE: &str = "mage";

/// Method names of the system service.
pub mod methods {
    /// Locate a component by following forwarding addresses (registry).
    pub const FIND: &str = "find";
    /// Acquire a stay/move lock on a hosted object (MageServer).
    pub const LOCK: &str = "lock";
    /// Release a lock (MageServer).
    pub const UNLOCK: &str = "unlock";
    /// Invoke a method on a hosted object (MageServer).
    pub const INVOKE: &str = "invoke";
    /// Walk the registry chain to an object, like a find, and apply a
    /// plan where it ends: invoke there, or move the object
    /// (MageServer / MageExternalServer).
    pub const ACT: &str = "act";
    /// Deliver a migrating object (MageExternalServer).
    pub const RECEIVE: &str = "receive";
    /// Deliver a class definition (MageExternalServer).
    pub const RECEIVE_CLASS: &str = "receiveClass";
    /// Pull a class definition (MageExternalServer).
    pub const FETCH_CLASS: &str = "fetchClass";
    /// Instantiate an object from a locally cached class (MageExternalServer).
    pub const INSTANTIATE: &str = "instantiate";
    /// Store a durability snapshot of a replicated object at its backup
    /// home (MageExternalServer; durability policy).
    pub const CHECKPOINT: &str = "checkpoint";
    /// Restore a crashed replicated object from this node's backup
    /// snapshot (MageExternalServer; durability policy).
    pub const RESTORE: &str = "restore";
}

/// Reply payload of [`methods::FIND`]: where the component is, and which
/// incarnation of it lives there. Carrying
/// the incarnation in every location answer is what lets stubs and
/// caches hold `(NameId, Incarnation)` pairs instead of bare names.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FindReply {
    /// Raw id of the hosting node.
    pub location: u32,
    /// Incarnation hosted there ([`Incarnation::NONE`] for classes).
    pub incarnation: Incarnation,
}

/// Arguments of [`methods::FIND`]. Reply: [`FindReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FindArgs {
    /// Component key (kind tag + interned name id).
    pub key: CompKey,
    /// Nodes already consulted, for cycle detection.
    pub visited: Vec<u32>,
    /// Origin-server hint: a walk that dead-ends (stale self-pointer,
    /// cycle, hop bound, unreachable hop) retries once from here before
    /// giving up.
    pub home: Option<u32>,
    /// Whether this walk *is* the once-only home retry.
    pub retried: bool,
}

/// Arguments of [`methods::LOCK`]. Reply: [`LockKind`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LockArgs {
    /// Interned name of the object to lock.
    pub name: NameId,
    /// Raw id of the requesting client's namespace.
    pub client: u32,
    /// Raw id of the attribute's computation target (decides stay vs move).
    pub target: u32,
    /// Incarnation the requester believes it is locking (`None` skips the
    /// check). A lock issued just before a re-creation resolves to a typed
    /// `StaleIdentity` fault instead of silently applying to the
    /// successor — the same stale-identity story invocation has.
    pub expected: Option<Incarnation>,
}

/// Arguments of [`methods::UNLOCK`]. Reply: `()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnlockArgs {
    /// Interned name of the object to unlock.
    pub name: NameId,
    /// Raw id of the releasing client's namespace.
    pub client: u32,
}

/// Arguments of [`methods::INVOKE`]. Reply: `Vec<u8>` (marshalled result).
/// Callers encode the borrowed twin [`InvokeArgsRef`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvokeArgs {
    /// Interned name of the target object.
    pub name: NameId,
    /// Interned method name.
    pub method: NameId,
    /// Marshalled arguments.
    pub args: Vec<u8>,
    /// Incarnation the caller believes it is invoking (`None` skips the
    /// check). A same-name/different-incarnation object answers with a
    /// typed `StaleIdentity` fault carrying the fresh incarnation instead
    /// of silently executing against the impostor.
    pub expected: Option<Incarnation>,
}

/// The encoding side of [`InvokeArgs`]: the same fields and the same
/// bytes on the wire, with the arguments borrowed from the caller's plan
/// instead of copied into the struct.
#[derive(Debug, Clone, Copy)]
pub struct InvokeArgsRef<'a> {
    /// Interned name of the target object.
    pub name: NameId,
    /// Interned method name.
    pub method: NameId,
    /// Marshalled arguments.
    pub args: &'a [u8],
    /// Incarnation the caller believes it is invoking.
    pub expected: Option<Incarnation>,
}

impl<'a> InvokeArgsRef<'a> {
    /// The invocation a move carries for the object `name`, run where it
    /// arrives: it expects no incarnation, since the move carries the
    /// object's identity along.
    pub fn on_arrival(name: NameId, method: NameId, args: &'a [u8]) -> Self {
        InvokeArgsRef {
            name,
            method,
            args,
            expected: None,
        }
    }
}

// Written out by hand because the derive does not take lifetimes; the
// field order is `InvokeArgs`'s.
impl Serialize for InvokeArgsRef<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut out = serializer.serialize_struct("InvokeArgs", 4)?;
        out.serialize_field("name", &self.name)?;
        out.serialize_field("method", &self.method)?;
        out.serialize_field("args", self.args)?;
        out.serialize_field("expected", &self.expected)?;
        out.end()
    }
}

/// The part of a bind plan that does not depend on where the object is:
/// all a hosting node needs to classify its situation (Table 2) and act.
/// An `Execute` whose action is [`ActionSpec::Act`] carries it, and an
/// [`ActArgs`] request takes it along the registry chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActPlan {
    /// The row of Table 2 the host applies. [`ModelKind::Custom`] marks a
    /// plan the session already coerced (a user policy, a guarded or a
    /// single-use bind): Table 2 has no row for it, so the host only
    /// moves or invokes.
    pub model: ModelKind,
    /// Raw id of the plan's named computation target (`None` for CLE,
    /// whose target is wherever the object is).
    pub named: Option<u32>,
    /// Whether the plan moves the object to `named`.
    pub moves: bool,
}

impl ActPlan {
    /// Whether a move this plan makes carries its invocation: the
    /// destination runs it on arrival and the `receive` reply brings the
    /// result back, so the caller makes no second call (remote
    /// evaluation's one exchange). True for every built-in row of Table
    /// 2; a [`ModelKind::Custom`] plan, which the session coerced itself
    /// (guarded, single-use, a user policy, a private object), keeps
    /// §4.4's bracket, and its caller invokes after the move.
    pub fn invokes_on_arrival(&self) -> bool {
        self.model != ModelKind::Custom
    }
}

/// Arguments of [`methods::ACT`]: walk to the object as a find would,
/// then apply `plan` where it is hosted. Reply: an [`ActReply`], followed
/// by the invocation's marshalled result when the host invoked and the
/// caller awaits one. Clients encode the borrowed twin [`ActArgsRef`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActArgs {
    /// The walk: the object's key, the nodes visited and the home, as a
    /// find carries them. Its `retried` is always set: no forwarding node
    /// sends an act on from the home, as a second copy could invoke twice;
    /// the client does, once.
    pub walk: FindArgs,
    /// Raw id of the binding client's namespace.
    pub client: u32,
    /// The plan to apply where the walk ends.
    pub plan: ActPlan,
    /// The invocation, run at the host unless the plan moves the object
    /// elsewhere first. Then the move's `receive` carries it and the
    /// destination runs it on arrival, or, for a plan that does not
    /// [invoke on arrival](ActPlan::invokes_on_arrival), the caller
    /// invokes at the destination. Its expected incarnation is checked
    /// only at the host, as a plain invocation's is; a move carries the
    /// object's identity along.
    pub invoke: Option<InvokeArgs>,
    /// Fire-and-forget: the host replies without the invocation's result.
    pub one_way: bool,
}

/// The encoding side of [`ActArgs`]: the same fields and the same bytes
/// on the wire, with the invocation borrowed from the caller's plan.
#[derive(Debug, Clone, Copy)]
pub struct ActArgsRef<'a> {
    /// The walk.
    pub walk: &'a FindArgs,
    /// Raw id of the binding client's namespace.
    pub client: u32,
    /// The plan to apply where the walk ends.
    pub plan: ActPlan,
    /// The invocation.
    pub invoke: Option<InvokeArgsRef<'a>>,
    /// Fire-and-forget.
    pub one_way: bool,
}

// Written out by hand because the derive does not take lifetimes; the
// field order is `ActArgs`'s.
impl Serialize for ActArgsRef<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut out = serializer.serialize_struct("ActArgs", 5)?;
        out.serialize_field("walk", self.walk)?;
        out.serialize_field("client", &self.client)?;
        out.serialize_field("plan", &self.plan)?;
        out.serialize_field("invoke", &self.invoke)?;
        out.serialize_field("one_way", &self.one_way)?;
        out.end()
    }
}

/// Reply header of [`methods::ACT`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActReply {
    /// Raw id of the namespace the object is at now: the host, or the
    /// destination it moved to.
    pub location: u32,
    /// The object's incarnation there.
    pub incarnation: Incarnation,
    /// The column of Table 2 the host classified. The caller's
    /// [`coerce`](crate::coercion::coerce) of it gives the coercion the
    /// host applied, or the typed error of an exception cell, in which
    /// case the host did nothing.
    pub situation: Situation,
    /// Whether the host moved the object to `location`; else the host
    /// invoked it in place. After a move the invocation's result follows
    /// as it does after an in-place one, since the destination ran it on
    /// arrival, unless the plan does not
    /// [invoke on arrival](ActPlan::invokes_on_arrival): then the caller
    /// invokes at `location` next.
    pub moved: bool,
}

impl ActReply {
    /// Splits a reply payload into its header and what follows it: the
    /// invocation's result, when the host invoked and the caller awaits
    /// one (a view into `payload`, not a copy).
    ///
    /// # Errors
    ///
    /// Returns the header's decode error.
    pub fn split(payload: &Bytes) -> Result<(ActReply, Bytes), mage_codec::DecodeError> {
        let (head, used) = mage_codec::from_bytes_prefix::<ActReply>(payload)?;
        Ok((head, payload.slice(used..)))
    }

    /// The location answer the header holds, as a find gives it.
    pub fn found(&self) -> FindReply {
        FindReply {
            location: self.location,
            incarnation: self.incarnation,
        }
    }
}

/// Arguments of [`methods::RECEIVE`]. Reply: `()`.
///
/// A move an act plan makes that [invokes on
/// arrival](ActPlan::invokes_on_arrival) appends the act's invocation
/// after these arguments, as an act reply appends its result: an
/// [`InvokeArgs`] (senders encode the borrowed [`InvokeArgsRef`]) with no
/// expected incarnation, since the move carries the object's identity
/// along, then its one-way flag. A plain move's bytes stay as they are.
/// The destination runs the invocation once the object is hosted, as it
/// runs a plain one. Its reply is then `()` for a one-way call, else the
/// invocation's outcome, `Result<(), Fault>`, followed by its marshalled
/// result when it succeeded (see [`ReceiveArgs::decode_call`] and
/// [`ReceiveArgs::split_reply`]). A fault does not undo the move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiveArgs {
    /// Interned object name.
    pub name: NameId,
    /// Its interned class name (must already be cached at the receiver,
    /// else the receiver faults `ClassMissing` and the sender pushes the
    /// class first).
    pub class: NameId,
    /// Weak-migration snapshot of the object's heap state, shipped as one
    /// raw copy.
    pub state: ByteBuf,
    /// Raw id of the object's origin server.
    pub home: u32,
    /// Public/private visibility.
    pub visibility: Visibility,
    /// Monotonic move counter (debugging aid; also detects stale receives).
    pub version: u64,
    /// The object's incarnation: identity travels with the object — a
    /// migration is the same incarnation at a new home, not a re-creation.
    pub incarnation: Incarnation,
    /// Lock holders travelling with the object.
    pub locks: HolderTransfer,
    /// Durability policy travelling with the object (a move never changes
    /// the policy set declared at creation).
    pub durability: Durability,
    /// Raw id of the object's fixed backup home, when replicated.
    pub backup: Option<u32>,
    /// Monotonic snapshot epoch: the new host continues checkpointing
    /// from here, so backups can refuse stale snapshots after races.
    pub snapshot_epoch: u64,
}

impl ReceiveArgs {
    /// Decodes a [`methods::RECEIVE`] call: the moving object, and the
    /// invocation and one-way flag that may follow it.
    ///
    /// # Errors
    ///
    /// Returns the decode error of either part.
    pub fn decode_call(
        bytes: &[u8],
    ) -> Result<(ReceiveArgs, Option<(InvokeArgs, bool)>), mage_codec::DecodeError> {
        let (args, used) = mage_codec::from_bytes_prefix::<ReceiveArgs>(bytes)?;
        let rest = &bytes[used..];
        let invoke = (!rest.is_empty())
            .then(|| mage_codec::from_bytes(rest))
            .transpose()?;
        Ok((args, invoke))
    }

    /// Splits the reply of a receive that carried a two-way invocation
    /// into the invocation's result (a view into `payload`, not a copy)
    /// or its fault.
    ///
    /// # Errors
    ///
    /// Returns the outcome header's decode error.
    pub fn split_reply(
        payload: &Bytes,
    ) -> Result<Result<Bytes, mage_rmi::Fault>, mage_codec::DecodeError> {
        let (head, used) = mage_codec::from_bytes_prefix::<Result<(), mage_rmi::Fault>>(payload)?;
        Ok(head.map(|()| payload.slice(used..)))
    }
}

/// Arguments of [`methods::RECEIVE_CLASS`]. Reply: `()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiveClassArgs {
    /// Interned class name.
    pub class: NameId,
    /// Simulated class file bytes (size drives transfer and load cost).
    pub code: ByteBuf,
    /// Whether the class declares static fields (receivers refuse these by
    /// default, §4.2).
    pub has_static_fields: bool,
}

/// Arguments of [`methods::FETCH_CLASS`]. Reply: [`ReceiveClassArgs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FetchClassArgs {
    /// Interned name of the class to pull.
    pub class: NameId,
}

/// Arguments of [`methods::INSTANTIATE`]. Reply: [`Incarnation`] (the
/// fresh instance's identity, so the creator's caches start correct).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstantiateArgs {
    /// Interned name of the class to instantiate (must be cached at the
    /// receiver).
    pub class: NameId,
    /// Interned name to register the new object under.
    pub name: NameId,
    /// Constructor state passed to the class factory, shipped as one raw
    /// copy.
    pub state: ByteBuf,
    /// Visibility of the new object.
    pub visibility: Visibility,
    /// Durability policy of the new object.
    pub durability: Durability,
    /// Raw id of the fixed backup home, when replicated.
    pub backup: Option<u32>,
    /// Whether a live same-named object is replaced (attribute factories
    /// keep RMI-style rebind semantics) or refused (`Session::create`
    /// fails on a taken name, like local creation does).
    pub replace: bool,
}

/// Arguments of [`methods::CHECKPOINT`] carrying a full snapshot. Reply:
/// `bool` (`true` when the snapshot was stored, `false` when it was
/// refused as stale — the backup's snapshot epochs are monotone per
/// object name). Primaries encode the borrowed twin
/// [`CheckpointArgsRef`]; backups decode through [`CheckpointCall`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointArgs {
    /// Interned name of the replicated object.
    pub name: NameId,
    /// Its interned class name (must be cached at the backup, else the
    /// backup faults `ClassMissing` and the primary pushes the class).
    pub class: NameId,
    /// Snapshot of the object's heap state. Not yet a [`ByteBuf`]: the
    /// benchmark harness keeps every round, so a faster durable workload
    /// trips its memory bound (ROADMAP item 1). Encoding `u8` as one raw
    /// byte alone, with checkpoints unchanged, completes about 45% more
    /// `durable_failover` rounds in 30 s and lifts its `peak_rss_mb`
    /// 12% (5.70 to 6.40 MB), within 3 points of the 15% bound.
    pub state: Vec<u8>,
    /// Incarnation of the primary at snapshot time.
    pub incarnation: Incarnation,
    /// Monotonic snapshot epoch (per object name; the backup refuses
    /// anything not strictly newer than what it holds).
    pub epoch: u64,
    /// Raw id of the object's origin server.
    pub home: u32,
    /// Visibility the restored object would have.
    pub visibility: Visibility,
    /// Durability policy the restored object inherits.
    pub durability: Durability,
}

/// Everything a checkpoint says about its object except the state: what
/// a primary keeps beside an in-flight snapshot, and what a confirmation
/// is cut from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointHeader {
    /// Interned name of the replicated object.
    pub name: NameId,
    /// Its interned class name.
    pub class: NameId,
    /// Incarnation of the primary at snapshot time.
    pub incarnation: Incarnation,
    /// Snapshot epoch.
    pub epoch: u64,
    /// Raw id of the object's origin server.
    pub home: u32,
    /// Visibility the restored object would have.
    pub visibility: Visibility,
    /// Durability policy the restored object inherits.
    pub durability: Durability,
}

impl CheckpointHeader {
    /// The owned full-snapshot arguments for `state`.
    pub fn with_state(&self, state: Vec<u8>) -> CheckpointArgs {
        CheckpointArgs {
            name: self.name,
            class: self.class,
            state,
            incarnation: self.incarnation,
            epoch: self.epoch,
            home: self.home,
            visibility: self.visibility,
            durability: self.durability,
        }
    }

    /// The confirmation naming this snapshot.
    pub fn confirmation(&self) -> CheckpointConfirm {
        CheckpointConfirm {
            name: self.name,
            incarnation: self.incarnation,
            epoch: self.epoch,
        }
    }
}

/// The encoding side of [`CheckpointArgs`]: the same bytes on the wire,
/// with the state borrowed from the snapshot the primary keeps.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointArgsRef<'a> {
    /// Everything but the state.
    pub head: &'a CheckpointHeader,
    /// Snapshot of the object's heap state.
    pub state: &'a [u8],
}

// Written out by hand because the derive does not take lifetimes; the
// field order is `CheckpointArgs`'s.
impl Serialize for CheckpointArgsRef<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let head = self.head;
        let mut out = serializer.serialize_struct("CheckpointArgs", 8)?;
        out.serialize_field("name", &head.name)?;
        out.serialize_field("class", &head.class)?;
        out.serialize_field("state", self.state)?;
        out.serialize_field("incarnation", &head.incarnation)?;
        out.serialize_field("epoch", &head.epoch)?;
        out.serialize_field("home", &head.home)?;
        out.serialize_field("visibility", &head.visibility)?;
        out.serialize_field("durability", &head.durability)?;
        out.end()
    }
}

/// The other form of a [`methods::CHECKPOINT`] call: the primary's fresh
/// snapshot is byte-identical to the one the backup acknowledged, so it
/// names that snapshot instead of shipping it again. Reply: `bool`,
/// `true` only when the backup still holds exactly `(incarnation,
/// epoch)` for the name; `false` tells the primary to re-ship in full.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfirm {
    /// Interned name of the replicated object.
    pub name: NameId,
    /// Incarnation of the acknowledged snapshot.
    pub incarnation: Incarnation,
    /// Epoch of the acknowledged snapshot.
    pub epoch: u64,
}

/// A decoded [`methods::CHECKPOINT`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointCall {
    /// A full snapshot to store.
    Full(CheckpointArgs),
    /// A confirmation of a snapshot the backup should already hold.
    Confirm(CheckpointConfirm),
}

impl CheckpointCall {
    /// Decodes either form. A confirmation is three integers; a full
    /// snapshot encodes at least eight fields, and the codec refuses
    /// trailing bytes, so a full snapshot never decodes as one.
    ///
    /// # Errors
    ///
    /// Returns the full form's decode error when neither form fits.
    pub fn decode(bytes: &[u8]) -> Result<Self, mage_codec::DecodeError> {
        match mage_codec::from_bytes::<CheckpointConfirm>(bytes) {
            Ok(confirm) => Ok(CheckpointCall::Confirm(confirm)),
            Err(_) => mage_codec::from_bytes(bytes).map(CheckpointCall::Full),
        }
    }
}

/// Arguments of [`methods::RESTORE`]. Reply: [`FindReply`] — where the
/// restored object lives (the backup home) and its **fresh** incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RestoreArgs {
    /// Interned name of the object to restore from this node's backup.
    pub name: NameId,
}

/// How an `Execute` command acts on the component before any invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionSpec {
    /// Invoke at a known namespace without moving anything (stub calls,
    /// RPC; also the coerced forms of REV/MA when the object is already at
    /// the target).
    InvokeAt {
        /// Raw id of the namespace to invoke at.
        node: u32,
    },
    /// Invoke on the locally hosted object (LPC / COD coerced to LPC).
    Local,
    /// Apply a plan where the object is: classify there, then invoke in
    /// place or move the object and invoke at its destination. Sent to
    /// the object's best-known location as one [`methods::ACT`] request,
    /// with no find first.
    Act(ActPlan),
    /// Instantiate a fresh object from the class at a namespace
    /// (traditional REV/COD factory semantics), then invoke it there.
    Instantiate {
        /// Raw id of the namespace to instantiate at.
        node: u32,
        /// The `instantiate` request, sent as is (and re-sent after a
        /// class push) or run locally when `node` is the client.
        args: InstantiateArgs,
    },
}

/// What to invoke once the action has placed the component.
#[derive(Debug, Clone, PartialEq)]
pub struct InvokeSpec {
    /// Interned method name.
    pub method: NameId,
    /// Marshalled arguments.
    pub args: Bytes,
    /// Fire-and-forget (mobile agents: "the result stays at the remote
    /// host", §5).
    pub one_way: bool,
}

/// A fully resolved bind/invoke plan executed by the client node's engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecSpec {
    /// Interned component class name.
    pub class: NameId,
    /// Interned object name.
    pub object: NameId,
    /// Where the session believes the object currently is (its cache, or
    /// a find); the engine tries it after its own registry entry.
    pub location_hint: Option<u32>,
    /// Which incarnation the client believes it is operating on (paired
    /// with `location_hint`; from the stub or the session cache).
    /// Invocations carry it so a same-name impostor is detected.
    pub expected_incarnation: Option<Incarnation>,
    /// Whether `expected_incarnation` is *pinned* (a stub invocation:
    /// location retries may chase the object, but the identity invoked
    /// never changes) or advisory (a bind plan: finds legitimately
    /// re-resolve identity — binding *is* the explicit rebind act).
    pub identity_pinned: bool,
    /// Origin server hint for finds (clients "share the name of the mobile
    /// object's origin server", §7).
    pub home_hint: Option<u32>,
    /// Fixed backup home of a replicated object (shared deployment
    /// knowledge, like `home_hint`). When a `NotFound`/`Unreachable`
    /// outcome would otherwise surface, the engine consults this node
    /// once: a stored snapshot restores the object there under a fresh
    /// incarnation and the operation retries.
    pub backup_hint: Option<u32>,
    /// The placement action.
    pub action: ActionSpec,
    /// Optional invocation after placement.
    pub invoke: Option<InvokeSpec>,
    /// Bracket the operation with a stay/move lock (§4.4).
    pub guard: bool,
}

/// The session operations a driver injects into its MAGE node, each in
/// an [`OpCell`] that comes back as the op's completion with a
/// `Result<Outcome, MageError>` written in. Admin (deployment, trust,
/// quotas, registry seeding) is not a command: the runtime changes the
/// hosted node in place, as it crashes nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Create and host an object in this namespace.
    CreateObject {
        /// Operation to complete.
        op: OpId,
        /// The object to create, as a remote `instantiate` would carry it.
        args: InstantiateArgs,
    },
    /// Locate a component.
    Find {
        /// Operation to complete.
        op: OpId,
        /// Component key.
        key: CompKey,
        /// Origin-server hint.
        home_hint: Option<u32>,
    },
    /// Acquire a lock on an object (finding it first if necessary).
    Lock {
        /// Operation to complete.
        op: OpId,
        /// Interned object name.
        name: NameId,
        /// Raw id of the computation target.
        target: u32,
        /// Origin-server hint.
        home_hint: Option<u32>,
    },
    /// Release a lock.
    Unlock {
        /// Operation to complete.
        op: OpId,
        /// Interned object name.
        name: NameId,
        /// Origin-server hint.
        home_hint: Option<u32>,
    },
    /// Run a bind/invoke plan.
    Execute {
        /// Operation to complete.
        op: OpId,
        /// The plan.
        spec: ExecSpec,
    },
}

impl Command {
    /// The operation the command completes.
    pub(crate) fn op(&self) -> OpId {
        match self {
            Command::CreateObject { op, .. }
            | Command::Find { op, .. }
            | Command::Lock { op, .. }
            | Command::Unlock { op, .. }
            | Command::Execute { op, .. } => *op,
        }
    }
}

/// The one heap cell a driver operation lives in, like
/// `mage_rmi::DriverCmd`: injected holding its [`Command`], parked
/// [`Empty`](OpCell::Empty) at the node while the op runs, and handed
/// back as the op's completion holding its result. A session keeps the
/// cell of the op it last waited on and refills it for its next op.
#[derive(Debug, Clone, PartialEq)]
pub enum OpCell {
    /// An op on its way to its node.
    Command(Command),
    /// A completed op's result.
    Done(Result<Outcome, MageError>),
    /// Neither: parked at the node, or spare at the session.
    Empty,
}

impl OpCell {
    /// Takes the cell's contents, leaving it [`Empty`](OpCell::Empty).
    pub(crate) fn take(&mut self) -> OpCell {
        std::mem::replace(self, OpCell::Empty)
    }
}

/// Successful completion of a driver operation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Raw id of the namespace where the component ended up (or was
    /// invoked).
    pub location: u32,
    /// Incarnation of the object acted upon ([`Incarnation::NONE`] when
    /// the operation tracked no object identity).
    pub incarnation: Incarnation,
    /// Invocation result, if the operation invoked something and waited
    /// (a view into the reply frame, not a copy).
    pub result: Option<Bytes>,
    /// Lock kind, for lock operations.
    pub lock_kind: Option<LockKind>,
    /// How Table 2 resolved an [`ActionSpec::Act`] bind, when the engine
    /// classified it (the session knows it for every other bind).
    pub coerced: Option<Coerced>,
}

/// Maps a server-side fault into the corresponding [`MageError`].
pub fn fault_to_error(fault: &mage_rmi::Fault) -> MageError {
    match fault {
        mage_rmi::Fault::NotBound(name) => MageError::NotFound(name.clone()),
        mage_rmi::Fault::ClassMissing(class) => MageError::ClassUnavailable(class.clone()),
        mage_rmi::Fault::AccessDenied(why) => MageError::Denied(why.clone()),
        mage_rmi::Fault::Unreachable { peer } => MageError::Unreachable { peer: *peer },
        mage_rmi::Fault::StaleIdentity {
            object,
            expected,
            actual,
        } => MageError::StaleIdentity {
            object: object.clone(),
            expected: *expected,
            fresh: *actual,
        },
        other => MageError::Rmi(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_rmi::Fault;

    #[test]
    fn borrowed_invoke_args_encode_like_owned_ones() {
        let owned = InvokeArgs {
            name: NameId::from_raw(4),
            method: NameId::from_raw(9),
            args: vec![1, 200, 3],
            expected: Some(Incarnation::from_raw(6)),
        };
        let borrowed = InvokeArgsRef {
            name: owned.name,
            method: owned.method,
            args: &owned.args,
            expected: owned.expected,
        };
        let bytes = mage_codec::to_bytes(&borrowed).unwrap();
        assert_eq!(bytes, mage_codec::to_bytes(&owned).unwrap());
        assert_eq!(mage_codec::from_bytes::<InvokeArgs>(&bytes).unwrap(), owned);
    }

    #[test]
    fn borrowed_act_args_encode_like_owned_ones() {
        let walk = FindArgs {
            key: CompKey::object(NameId::from_raw(4)),
            visited: vec![2],
            home: Some(0),
            retried: false,
        };
        let plan = ActPlan {
            model: ModelKind::Rev,
            named: Some(3),
            moves: true,
        };
        let invoke = InvokeArgs {
            name: NameId::from_raw(4),
            method: NameId::from_raw(9),
            args: vec![1, 200, 3],
            expected: Some(Incarnation::from_raw(6)),
        };
        let owned = ActArgs {
            walk: walk.clone(),
            client: 2,
            plan,
            invoke: Some(invoke.clone()),
            one_way: false,
        };
        let borrowed = ActArgsRef {
            walk: &walk,
            client: 2,
            plan,
            invoke: Some(InvokeArgsRef {
                name: invoke.name,
                method: invoke.method,
                args: &invoke.args,
                expected: invoke.expected,
            }),
            one_way: false,
        };
        let bytes = mage_codec::to_bytes(&borrowed).unwrap();
        assert_eq!(bytes, mage_codec::to_bytes(&owned).unwrap());
        assert_eq!(mage_codec::from_bytes::<ActArgs>(&bytes).unwrap(), owned);
        let bare = ActArgs {
            invoke: None,
            ..owned
        };
        let borrowed = ActArgsRef {
            invoke: None,
            ..borrowed
        };
        assert_eq!(
            mage_codec::to_bytes(&borrowed).unwrap(),
            mage_codec::to_bytes(&bare).unwrap()
        );
    }

    #[test]
    fn fault_mapping() {
        assert_eq!(
            fault_to_error(&Fault::NotBound("o".into())),
            MageError::NotFound("o".into())
        );
        assert_eq!(
            fault_to_error(&Fault::ClassMissing("C".into())),
            MageError::ClassUnavailable("C".into())
        );
        assert_eq!(
            fault_to_error(&Fault::AccessDenied("no".into())),
            MageError::Denied("no".into())
        );
        assert!(matches!(
            fault_to_error(&Fault::App("x".into())),
            MageError::Rmi(_)
        ));
        assert_eq!(
            fault_to_error(&Fault::StaleIdentity {
                object: "shared".into(),
                expected: 3,
                actual: 8,
            }),
            MageError::StaleIdentity {
                object: "shared".into(),
                expected: 3,
                fresh: 8,
            }
        );
    }

    #[test]
    fn receive_args_roundtrip_with_locks() {
        let args = ReceiveArgs {
            name: NameId::from_raw(4),
            class: NameId::from_raw(7),
            state: ByteBuf(vec![1, 200, 3]),
            home: 0,
            visibility: Visibility::Public,
            version: 4,
            incarnation: Incarnation::from_raw(11),
            locks: HolderTransfer {
                stay_holders: vec![5],
                move_holder: None,
            },
            durability: Durability::Replicated { backups: 1 },
            backup: Some(2),
            snapshot_epoch: 9,
        };
        let bytes = mage_codec::to_bytes(&args).unwrap();
        assert_eq!(mage_codec::from_bytes::<ReceiveArgs>(&bytes).unwrap(), args);
    }

    #[test]
    fn a_receive_carries_an_invocation_after_the_bytes_of_a_plain_move() {
        let args = ReceiveArgs {
            name: NameId::from_raw(4),
            class: NameId::from_raw(7),
            state: ByteBuf(vec![1, 200, 3]),
            home: 0,
            visibility: Visibility::Public,
            version: 4,
            incarnation: Incarnation::from_raw(11),
            locks: HolderTransfer::default(),
            durability: Durability::Volatile,
            backup: None,
            snapshot_epoch: 0,
        };
        let plain = mage_codec::to_bytes(&args).unwrap();
        assert_eq!(
            ReceiveArgs::decode_call(&plain).unwrap(),
            (args.clone(), None)
        );
        let owned = InvokeArgs {
            name: args.name,
            method: NameId::from_raw(9),
            args: vec![0x80, 2],
            expected: None,
        };
        let borrowed = InvokeArgsRef::on_arrival(owned.name, owned.method, &owned.args);
        let bytes = mage_codec::to_bytes(&(&args, (borrowed, true))).unwrap();
        assert_eq!(bytes[..plain.len()], plain[..]);
        assert_eq!(
            bytes[plain.len()..],
            mage_codec::to_bytes(&(&owned, true)).unwrap()[..]
        );
        assert_eq!(
            ReceiveArgs::decode_call(&bytes).unwrap(),
            (args, Some((owned, true)))
        );
    }

    #[test]
    fn an_arrival_reply_splits_into_the_result_or_the_fault() {
        let mut ok = mage_codec::to_bytes(&Ok::<(), Fault>(())).unwrap();
        ok.extend_from_slice(&[5, 6]);
        let split = ReceiveArgs::split_reply(&Bytes::from(ok)).unwrap();
        assert_eq!(split, Ok(Bytes::from_static(&[5, 6])));
        let fault = Fault::App("boom".into());
        let err = mage_codec::to_bytes(&Err::<(), _>(&fault)).unwrap();
        let split = ReceiveArgs::split_reply(&Bytes::from(err)).unwrap();
        assert_eq!(split, Err(fault));
        assert!(ReceiveArgs::split_reply(&Bytes::new()).is_err());
    }

    #[test]
    fn checkpoint_and_restore_args_roundtrip() {
        let head = CheckpointHeader {
            name: NameId::from_raw(4),
            class: NameId::from_raw(7),
            incarnation: Incarnation::from_raw(3),
            epoch: 12,
            home: 1,
            visibility: Visibility::Public,
            durability: Durability::Replicated { backups: 1 },
        };
        let ckpt = head.with_state(vec![9, 200, 9]);
        let bytes = mage_codec::to_bytes(&ckpt).unwrap();
        let borrowed = CheckpointArgsRef {
            head: &head,
            state: &ckpt.state,
        };
        assert_eq!(mage_codec::to_bytes(&borrowed).unwrap(), bytes);
        assert_eq!(
            CheckpointCall::decode(&bytes).unwrap(),
            CheckpointCall::Full(ckpt)
        );
        let restore = RestoreArgs {
            name: NameId::from_raw(4),
        };
        let bytes = mage_codec::to_bytes(&restore).unwrap();
        assert_eq!(
            mage_codec::from_bytes::<RestoreArgs>(&bytes).unwrap(),
            restore
        );
    }

    #[test]
    fn confirmations_and_full_snapshots_never_decode_as_each_other() {
        let head = CheckpointHeader {
            name: NameId::from_raw(300),
            class: NameId::from_raw(7),
            incarnation: Incarnation::from_raw(u64::MAX),
            epoch: 1 << 40,
            home: 2,
            visibility: Visibility::Public,
            durability: Durability::Replicated { backups: 1 },
        };
        let confirm = head.confirmation();
        let bytes = mage_codec::to_bytes(&confirm).unwrap();
        assert_eq!(
            CheckpointCall::decode(&bytes).unwrap(),
            CheckpointCall::Confirm(confirm)
        );
        for state in [vec![], vec![0x80; 3], vec![1, 2, 3]] {
            let full = head.with_state(state);
            let bytes = mage_codec::to_bytes(&full).unwrap();
            assert!(bytes.len() > mage_codec::to_bytes(&confirm).unwrap().len());
            assert_eq!(
                CheckpointCall::decode(&bytes).unwrap(),
                CheckpointCall::Full(full)
            );
        }
        assert!(CheckpointCall::decode(&[0x80]).is_err());
    }

    #[test]
    fn lock_args_carry_identity() {
        let args = LockArgs {
            name: NameId::from_raw(8),
            client: 1,
            target: 2,
            expected: Some(Incarnation::from_raw(5)),
        };
        let bytes = mage_codec::to_bytes(&args).unwrap();
        assert_eq!(mage_codec::from_bytes::<LockArgs>(&bytes).unwrap(), args);
    }
}
