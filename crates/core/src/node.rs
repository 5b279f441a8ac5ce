#![warn(clippy::too_many_lines)]
//! The MAGE node: one per namespace, combining the paper's `MageServer`,
//! `MageExternalServer` and MAGE registry roles (§4.1, Figure 6).
//!
//! A `MageNode` plugs into the RMI substrate as an [`App`]: its system
//! services (find, act, lock, invoke, receive, class transfer) are methods
//! of the well-known [`proto::SERVICE`] object, and mobility-attribute
//! binds are client-side protocol engines (see [`crate::engine`]) driven by
//! RMI replies — exactly the paper's "mobility attributes boil down to RMI
//! calls".
//!
//! The service and its method names are interned once at construction
//! ([`ProtoIds`]); steady-state dispatch compares 4-byte [`NameId`]s, and
//! every internal table (hosted objects, registry, locks, parked finds) is
//! keyed by ids rather than strings.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use mage_codec::ByteBuf;
use mage_rmi::{App, CallOutcome, Env, Fault, InboundCall, NameId, ReplyHandle, SymbolTable};
use mage_sim::{NodeId, OpId, SimDuration};

use crate::admission::Quotas;
use crate::class::ClassDef;
use crate::coercion::{coerce, Coerced, Situation};
use crate::component::{Durability, Visibility};
use crate::engine::{
    CheckpointTask, ClientCallKind, FindWaiter, MoveOrigin, Task, TransitWaiter, Walk,
};
use crate::error::MageError;
use crate::lock::LockTable;
use crate::object::{MobileEnv, MobileObject};
use crate::proto::{self, methods, Command, OpCell, Outcome};
use crate::registry::{CompKey, Incarnation, IncarnationMinter, Kind, Located, Registry};
use crate::security::TrustPolicy;

/// Maximum forwarding-chain length a find will follow.
const FIND_HOP_LIMIT: usize = 16;

/// Tuning knobs for one namespace's MAGE runtime.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Use fair (arrival-order) lock granting instead of the paper's
    /// unfair stay-favouring policy.
    pub fair_locks: bool,
    /// Client-side CPU charged per mobility-attribute operation (the
    /// attribute wrapper + local registry consultation).
    pub bind_overhead: SimDuration,
    /// Server-side CPU charged per object invocation (object table lookup).
    pub invoke_overhead: SimDuration,
    /// CPU charged to reconstruct an object from its migration snapshot.
    pub reify_cost: SimDuration,
    /// Retries when an invocation races a migration (object moved between
    /// find and invoke).
    pub race_retries: u8,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            fair_locks: false,
            bind_overhead: SimDuration::from_micros(1_200),
            invoke_overhead: SimDuration::from_micros(500),
            reify_cost: SimDuration::from_micros(1_000),
            race_retries: 3,
        }
    }
}

/// Pre-interned ids of the system service and its methods, so the dispatch
/// hot path never compares strings.
pub(crate) struct ProtoIds {
    pub service: NameId,
    pub find: NameId,
    pub lock: NameId,
    pub unlock: NameId,
    pub invoke: NameId,
    pub act: NameId,
    pub receive: NameId,
    pub receive_class: NameId,
    pub fetch_class: NameId,
    pub instantiate: NameId,
    pub checkpoint: NameId,
    pub restore: NameId,
}

impl ProtoIds {
    pub(crate) fn new(syms: &SymbolTable) -> Self {
        ProtoIds {
            service: syms.intern(proto::SERVICE),
            find: syms.intern(methods::FIND),
            lock: syms.intern(methods::LOCK),
            unlock: syms.intern(methods::UNLOCK),
            invoke: syms.intern(methods::INVOKE),
            act: syms.intern(methods::ACT),
            receive: syms.intern(methods::RECEIVE),
            receive_class: syms.intern(methods::RECEIVE_CLASS),
            fetch_class: syms.intern(methods::FETCH_CLASS),
            instantiate: syms.intern(methods::INSTANTIATE),
            checkpoint: syms.intern(methods::CHECKPOINT),
            restore: syms.intern(methods::RESTORE),
        }
    }
}

/// An object hosted in this namespace.
pub(crate) struct Hosted {
    pub object: Box<dyn MobileObject>,
    pub class: NameId,
    pub visibility: Visibility,
    pub home: NodeId,
    pub version: u64,
    /// World-unique identity of this object instance: minted at creation,
    /// preserved across migrations, re-minted when a same-named object is
    /// re-created. Invocations carry the incarnation they expect.
    pub incarnation: Incarnation,
    /// Set while a migration is in flight; the object is unusable and a
    /// second move is refused (movement is not atomic, §4.4).
    pub in_transit: bool,
    /// Durability policy declared at creation; travels with the object.
    pub durability: Durability,
    /// Fixed backup home of a replicated object. Chosen once at creation
    /// and never re-pointed, so every client's shared backup hint stays
    /// valid; when the object is (or comes to be) hosted *at* its backup
    /// home, checkpoints become local stores.
    pub backup: Option<NodeId>,
    /// Monotonic snapshot epoch: bumped before every full checkpoint,
    /// carried across moves, so the backup can refuse stale snapshots.
    pub snapshot_epoch: u64,
    /// The last full snapshot shipped to a remote backup home (never
    /// carried across moves or restores: a new host starts empty).
    pub shipped: Option<ShippedSnapshot>,
}

/// The last full snapshot a replicated object shipped to its remote
/// backup home. A fresh snapshot that is byte-identical to it is
/// confirmed (or, while it is in flight, coalesced) instead of shipped.
pub(crate) struct ShippedSnapshot {
    /// The shipped bytes, compared against each fresh snapshot.
    pub state: Vec<u8>,
    /// Epoch the bytes were shipped under.
    pub epoch: u64,
    /// The backup acknowledged storing them.
    pub acked: bool,
    /// A later invocation produced the same bytes while the shipment was
    /// in flight and relies on it: if it is not stored, ship again.
    pub coalesced: bool,
}

/// A durability snapshot held for a replicated object whose primary lives
/// (or lived) elsewhere. Keyed by object name in [`MageNode::backups`];
/// monotone in `epoch`.
pub(crate) struct BackupSnapshot {
    pub class: NameId,
    pub state: Vec<u8>,
    pub visibility: Visibility,
    /// Incarnation of the primary that shipped this snapshot. Ordering
    /// between snapshots is lexicographic over `(incarnation, epoch)`:
    /// incarnation ids are minted from one monotone world counter, so a
    /// higher incarnation is by construction the *younger* lineage of
    /// the name (a re-creation after total loss, or the surviving side
    /// of a partition fork) and its checkpoints supersede the old
    /// lineage's regardless of epoch.
    pub incarnation: Incarnation,
    pub epoch: u64,
    pub durability: Durability,
}

/// The MAGE runtime for one namespace.
pub struct MageNode {
    pub(crate) name: String,
    /// The world-wide class definitions, keyed by interned class name.
    pub(crate) defs: Arc<BTreeMap<NameId, ClassDef>>,
    pub(crate) syms: Arc<SymbolTable>,
    /// World-shared incarnation mint (see [`IncarnationMinter`]).
    pub(crate) minter: Arc<IncarnationMinter>,
    pub(crate) ids: ProtoIds,
    pub(crate) config: NodeConfig,
    pub(crate) peers: BTreeMap<String, NodeId>,
    pub(crate) classes: BTreeSet<NameId>,
    pub(crate) objects: BTreeMap<NameId, Hosted>,
    pub(crate) registry: Registry,
    pub(crate) locks: LockTable<ReplyHandle>,
    pub(crate) tasks: HashMap<u64, Task>,
    pub(crate) next_task: u64,
    /// The cell each running driver op arrived in, emptied; its result
    /// goes back in it (see [`MageNode::complete`]).
    pub(crate) ops: HashMap<OpId, Box<OpCell>>,
    /// Encoding buffer for outgoing service calls' arguments (see
    /// [`MageNode::call_service`]).
    pub(crate) scratch: Vec<u8>,
    pub(crate) trust: TrustPolicy,
    pub(crate) quotas: Quotas,
    /// Whether classes with static fields may be replicated here (§4.2).
    pub(crate) allow_static_classes: bool,
    /// Finds and acts for objects currently in transit, settled when the
    /// move commits (to the destination) or aborts (here). Concurrent
    /// clients may legitimately look an object up mid-move — the
    /// pipelined session API makes that interleaving routine.
    pub(crate) transit_waiters: BTreeMap<NameId, Vec<TransitWaiter>>,
    /// Durability snapshots this namespace keeps as the backup home of
    /// replicated objects hosted elsewhere (crash-stop: these die with
    /// this node too — replication is one backup, not consensus).
    pub(crate) backups: BTreeMap<NameId, BackupSnapshot>,
}

impl MageNode {
    /// Creates a node named `name` over the world-wide class definitions
    /// (keyed by their names' ids in `syms`) and symbol table.
    ///
    /// `peers` maps namespace display names to node ids (used to resolve
    /// mobile-agent itinerary hops).
    pub fn new(
        name: impl Into<String>,
        defs: Arc<BTreeMap<NameId, ClassDef>>,
        peers: BTreeMap<String, NodeId>,
        config: NodeConfig,
        syms: Arc<SymbolTable>,
        minter: Arc<IncarnationMinter>,
    ) -> Self {
        let config_locks = if config.fair_locks {
            LockTable::fair()
        } else {
            LockTable::new()
        };
        let ids = ProtoIds::new(&syms);
        MageNode {
            name: name.into(),
            defs,
            syms,
            minter,
            ids,
            config,
            peers,
            classes: BTreeSet::new(),
            objects: BTreeMap::new(),
            registry: Registry::new(),
            locks: config_locks,
            tasks: HashMap::new(),
            next_task: 0,
            ops: HashMap::new(),
            scratch: Vec::new(),
            trust: TrustPolicy::default(),
            quotas: Quotas::unlimited(),
            allow_static_classes: false,
            transit_waiters: BTreeMap::new(),
            backups: BTreeMap::new(),
        }
    }

    /// Resolves an interned name for error messages and traces (allocates;
    /// cold paths only).
    pub(crate) fn name_str(&self, id: NameId) -> String {
        self.syms.resolve_lossy(id).to_string()
    }

    /// Whether this namespace currently holds the keyed component (an
    /// object not in transit, or a cached class).
    pub(crate) fn has_component(&self, key: CompKey) -> bool {
        match key.kind {
            Kind::Class => self.classes.contains(&key.id),
            Kind::Object => self
                .objects
                .get(&key.id)
                .is_some_and(|hosted| !hosted.in_transit),
        }
    }

    /// The incarnation this namespace hosts for `key`
    /// ([`Incarnation::NONE`] for classes and absent objects).
    pub(crate) fn local_incarnation(&self, key: CompKey) -> Incarnation {
        match key.kind {
            Kind::Class => Incarnation::NONE,
            Kind::Object => self
                .objects
                .get(&key.id)
                .map(|hosted| hosted.incarnation)
                .unwrap_or(Incarnation::NONE),
        }
    }

    /// Whether `key`'s object is hosted here and in transit.
    pub(crate) fn in_transit(&self, key: CompKey) -> bool {
        key.kind == Kind::Object
            && self
                .objects
                .get(&key.id)
                .is_some_and(|hosted| hosted.in_transit)
    }

    /// Parks `waiter` until the move of `key`'s object, in transit here,
    /// settles.
    pub(crate) fn park_in_transit(&mut self, key: CompKey, waiter: TransitWaiter) {
        self.transit_waiters.entry(key.id).or_default().push(waiter);
    }

    /// The find answer for a component hosted here.
    pub(crate) fn local_find_reply(&self, key: CompKey, me: NodeId) -> proto::FindReply {
        proto::FindReply {
            location: me.as_raw(),
            incarnation: self.local_incarnation(key),
        }
    }

    /// Calls system-service `method` on `to` with `args`, encoded into
    /// this node's scratch buffer (the frame copies them); the reply
    /// reaches [`MageNode::step_task`] under `token`.
    pub(crate) fn call_service<T: serde::Serialize + ?Sized>(
        &mut self,
        env: &mut Env<'_, '_>,
        to: NodeId,
        method: NameId,
        args: &T,
        token: u64,
    ) {
        self.scratch.clear();
        mage_codec::to_bytes_in(args, &mut self.scratch).expect("service args encode");
        env.call(to, self.ids.service, method, &self.scratch, token);
    }

    /// Allocates a fresh task token (replies to calls issued under it
    /// reach [`MageNode::step_task`]).
    pub(crate) fn next_token(&mut self) -> u64 {
        let token = self.next_task;
        self.next_task += 1;
        token
    }

    /// Completes driver op `op` with `result`, written into the cell the
    /// op arrived in: a completion allocates nothing.
    pub(crate) fn complete(
        &mut self,
        env: &mut Env<'_, '_>,
        op: OpId,
        result: Result<Outcome, MageError>,
    ) {
        let mut cell = self.ops.remove(&op).expect("a running op has its cell");
        *cell = OpCell::Done(result);
        env.complete_op(op, cell);
    }

    /// Continuations awaiting an RMI reply here (finds, locks, binds,
    /// moves and checkpoints in flight). Zero once the world is idle.
    pub fn tasks_in_flight(&self) -> usize {
        self.tasks.len()
    }

    /// Driver ops running here, whose cells wait for their results.
    /// Zero once the world is idle.
    pub fn ops_in_flight(&self) -> usize {
        self.ops.len()
    }

    // ---- server-side handlers (MageServer / MageExternalServer) ----

    fn handle_find(&mut self, env: &mut Env<'_, '_>, call: InboundCall) -> Served {
        self.walk(env, call.handle(), Walk::Find(decode_args(&call)?))
    }

    fn handle_act(&mut self, env: &mut Env<'_, '_>, call: InboundCall) -> Served {
        self.walk(env, call.handle(), Walk::Act(decode_args(&call)?))
    }

    /// One hop of a find or act walking the registry chain (§4.1): answer
    /// or act if the object is here, wait if it is leaving, else follow
    /// the registry entry, repairing one that provably leads nowhere.
    fn walk(&mut self, env: &mut Env<'_, '_>, handle: ReplyHandle, mut walk: Walk) -> Served {
        let me = env.node();
        let key = walk.args().key;
        if self.has_component(key) {
            return match walk {
                Walk::Find(_) => reply_ok(&self.local_find_reply(key, me)),
                Walk::Act(act) => self.act_here(env, handle, act),
            };
        }
        if self.in_transit(key) {
            // Mid-move: settle once the transfer does (the forwarding
            // address is only valid after the receive ack).
            let waiter = match walk {
                Walk::Find(_) => TransitWaiter::Find(FindWaiter::Reply(handle)),
                Walk::Act(act) => TransitWaiter::Act(handle, act),
            };
            self.park_in_transit(key, waiter);
            return Ok(CallOutcome::Deferred);
        }
        let Some(next) = self.registry.lookup(key).map(|l| l.node) else {
            return self.walk_dead_end(env, handle, walk);
        };
        let args = walk.args();
        if next == me
            || args.visited.contains(&next.as_raw())
            || args.visited.len() >= FIND_HOP_LIMIT
        {
            // Stale self-pointing entry, a cycle, or an over-long chain:
            // the entry provably leads nowhere from here. Repair it (so
            // the bad chain does not survive this walk), then retry once
            // from the component's home before surfacing an error.
            self.registry.remove(key);
            return self.walk_dead_end(env, handle, walk);
        }
        let first_hop = args.visited.len() == 1;
        args.visited.push(me.as_raw());
        if first_hop && matches!(walk, Walk::Act(_)) {
            // An act that takes at least one forwarding hop.
            env.count("act_forwards");
        }
        let token = self.next_token();
        self.send_walk(env, next, &walk, token);
        let waiter = FindWaiter::Reply(handle);
        self.tasks.insert(token, Task::Walk { waiter, walk });
        Ok(CallOutcome::Deferred)
    }

    /// A walk dead-ended here (no registry entry, or a repaired
    /// stale/cyclic one): retry once from the component's home node if the
    /// hint is usable and the walk is not already `retried` (an act always
    /// is), otherwise answer with a typed `NotBound`.
    fn walk_dead_end(
        &mut self,
        env: &mut Env<'_, '_>,
        handle: ReplyHandle,
        mut walk: Walk,
    ) -> Served {
        let args = walk.args();
        let (key, retried) = (args.key, args.retried);
        if !retried && self.retry_walk_from_home(env, FindWaiter::Reply(handle), walk) {
            return Ok(CallOutcome::Deferred);
        }
        Err(Fault::NotBound(key.display(&self.syms)))
    }

    /// Walks a parked request on from here, answering its caller with
    /// whatever this hop decides at once.
    pub(crate) fn serve_walk(&mut self, env: &mut Env<'_, '_>, handle: ReplyHandle, walk: Walk) {
        match self.walk(env, handle, walk) {
            Ok(CallOutcome::Reply(result)) => {
                env.reply(handle, result);
            }
            Err(fault) => {
                env.reply(handle, Err(fault));
            }
            Ok(_) => {}
        }
    }

    /// Applies an act's plan to the object hosted here: classifies the
    /// situation (Table 2), then invokes in place or starts the move,
    /// whose `receive` carries the invocation when the plan
    /// [invokes on arrival](proto::ActPlan::invokes_on_arrival). An
    /// exception cell is answered, typed, without acting.
    fn act_here(
        &mut self,
        env: &mut Env<'_, '_>,
        handle: ReplyHandle,
        act: proto::ActArgs,
    ) -> Served {
        let me = env.node();
        let name = act.walk.key.id;
        let (client, named) = (
            NodeId::from_raw(act.client),
            act.plan.named.map(NodeId::from_raw),
        );
        let situation = Situation::classify(client, named, Some(me));
        let coerced = coerce(act.plan.model, situation);
        let dest = named.unwrap_or(client);
        if act.plan.moves && coerced == Ok(Coerced::Proceed) && dest != me {
            let origin = MoveOrigin::Act { handle, situation };
            let invoke = act
                .invoke
                .as_ref()
                .filter(|_| act.plan.invokes_on_arrival())
                .map(|invoke| {
                    let args = proto::InvokeArgsRef::on_arrival(name, invoke.method, &invoke.args);
                    (args, act.one_way)
                });
            self.begin_move_out(env, name, dest, origin, invoke);
            return Ok(CallOutcome::Deferred);
        }
        let result = match (coerced, &act.invoke) {
            (Ok(_), Some(invoke)) => Some(self.serve_invoke(env, invoke)?).filter(|_| !act.one_way),
            _ => None,
        };
        let head = proto::ActReply {
            location: me.as_raw(),
            incarnation: self.local_incarnation(act.walk.key),
            situation,
            moved: false,
        };
        self.reply_headed(env, handle, &head, result.as_deref().unwrap_or_default());
        Ok(CallOutcome::Deferred)
    }

    /// Answers a call with `head`, then `result`, assembled in the
    /// scratch buffer: an act's reply, or the reply of a receive that
    /// carried a two-way invocation.
    pub(crate) fn reply_headed<T: serde::Serialize>(
        &mut self,
        env: &mut Env<'_, '_>,
        handle: ReplyHandle,
        head: &T,
        result: &[u8],
    ) {
        self.scratch.clear();
        mage_codec::to_bytes_in(head, &mut self.scratch).expect("reply header encodes");
        self.scratch.extend_from_slice(result);
        env.reply_with(handle, Ok(&self.scratch));
    }

    fn handle_lock(&mut self, env: &mut Env<'_, '_>, call: InboundCall) -> Served {
        let args: proto::LockArgs = decode_args(&call)?;
        if !self.has_component(CompKey::object(args.name)) {
            return Err(Fault::NotBound(self.name_str(args.name)));
        }
        // Identity gate: a lock issued against an incarnation that has
        // since been replaced must not silently apply to the successor
        // (the locking mirror of the invocation check).
        if let Err(fault) = self.check_identity(args.name, args.expected) {
            env.count("stale_lock_refusals");
            return Err(fault);
        }
        let me = env.node();
        let client = NodeId::from_raw(args.client);
        let target = NodeId::from_raw(args.target);
        match self
            .locks
            .request(args.name, client, target, me, call.handle())
        {
            crate::lock::Request::Granted(kind) => reply_ok(&kind),
            crate::lock::Request::Queued => Ok(CallOutcome::Deferred),
        }
    }

    fn handle_unlock(&mut self, env: &mut Env<'_, '_>, call: InboundCall) -> Served {
        let args: proto::UnlockArgs = decode_args(&call)?;
        let me = env.node();
        let grants = self
            .locks
            .release(args.name, NodeId::from_raw(args.client), me);
        for grant in grants {
            self.deliver_grant(env, grant);
        }
        reply_ok(&())
    }

    /// Answers a lock waiter whose turn came up. The reply is dropped by
    /// the endpoint when the waiter's incarnation died while queued; the
    /// invariant marker is only emitted for grants that actually go out.
    pub(crate) fn deliver_grant(
        &mut self,
        env: &mut Env<'_, '_>,
        grant: crate::lock::Grant<ReplyHandle>,
    ) {
        let payload = mage_codec::to_bytes(&grant.kind).expect("lock kind encodes");
        let handle = grant.waiter;
        if env.reply(handle, Ok(payload)) && env.trace_enabled() {
            env.note(format!(
                "invariant:grant:{}:{}:{}",
                grant.name.as_raw(),
                handle.caller().as_raw(),
                handle.caller_epoch()
            ));
        }
    }

    /// Verifies that the hosted object under `name` is the incarnation
    /// the caller expected (`None` skips the check: a plan that has not
    /// resolved an identity yet, or a class invocation).
    pub(crate) fn check_identity(
        &self,
        name: NameId,
        expected: Option<Incarnation>,
    ) -> Result<(), Fault> {
        let Some(expected) = expected.filter(|inc| !inc.is_none()) else {
            return Ok(());
        };
        // Absent objects fall through to the NotBound path; in-transit
        // ones to the transit path — identity only matters when a live
        // object would otherwise answer.
        let Some(hosted) = self.objects.get(&name) else {
            return Ok(());
        };
        if hosted.incarnation != expected {
            return Err(Fault::StaleIdentity {
                object: self.name_str(name),
                expected: expected.as_raw(),
                actual: hosted.incarnation.as_raw(),
            });
        }
        Ok(())
    }

    fn handle_invoke(&mut self, env: &mut Env<'_, '_>, call: InboundCall) -> Served {
        let args: proto::InvokeArgs = decode_args(&call)?;
        Ok(CallOutcome::Reply(self.serve_invoke(env, &args)))
    }

    /// Runs a remote caller's invocation on the object hosted here.
    fn serve_invoke(
        &mut self,
        env: &mut Env<'_, '_>,
        args: &proto::InvokeArgs,
    ) -> Result<Vec<u8>, Fault> {
        env.charge(self.config.invoke_overhead);
        // Identity gate: a same-name/different-incarnation object must
        // not silently execute a stale stub's call (§ROADMAP: stable
        // object identity across restarts).
        if let Err(fault) = self.check_identity(args.name, args.expected) {
            env.count("stale_identity_refusals");
            return Err(fault);
        }
        let method = self.syms.resolve_lossy(args.method);
        self.invoke_local(env, args.name, &method, &args.args)
    }

    /// Invokes a method on a locally hosted object, handling mobile-agent
    /// hop requests.
    pub(crate) fn invoke_local(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Fault> {
        let Some(hosted) = self.objects.get(&name) else {
            return Err(Fault::NotBound(self.name_str(name)));
        };
        if hosted.in_transit {
            return Err(Fault::NotBound(self.name_str(name)));
        }
        let mut hosted = self.objects.remove(&name).expect("checked above");
        let (result, consumed, hop) = {
            let mut menv = MobileEnv::new(env.node(), &self.name, env.now(), env.rng());
            let result = hosted.object.invoke(method, args, &mut menv);
            let consumed = menv.consumed();
            let hop = menv.take_hop_request();
            (result, consumed, hop)
        };
        env.charge(consumed);
        self.objects.insert(name, hosted);
        // Durability: a completed invocation may have mutated the object;
        // ship a fresh snapshot to the backup home before anything else
        // observes the new state's loss.
        if result.is_ok() {
            self.ship_checkpoint(env, name);
        }
        if let Some(dest_name) = hop {
            match self.peers.get(&dest_name).copied() {
                Some(dest) if dest != env.node() => {
                    self.begin_move_out(env, name, dest, MoveOrigin::Autonomous, None);
                }
                Some(_) => {} // hop to self: nothing to do
                None if env.trace_enabled() => {
                    let name = self.name_str(name);
                    env.note(format!(
                        "agent {name} requested hop to unknown namespace {dest_name:?}"
                    ));
                }
                None => {}
            }
        }
        result
    }

    /// The trust gate an inbound push from `from` passes before its
    /// payload is decoded; `what` names the pushed thing in the refusal.
    fn admit_peer(&self, from: NodeId, what: &str) -> Result<(), Fault> {
        if self.trust.admits(from) {
            return Ok(());
        }
        Err(Fault::AccessDenied(format!(
            "namespace {} does not accept {what} from {from}",
            self.name
        )))
    }

    /// Hosts a moving object, then runs the invocation its `receive`
    /// carries, if any, as a plain invocation runs (same charge, same
    /// agent-hop handling), and answers with its outcome.
    fn handle_receive(&mut self, env: &mut Env<'_, '_>, from: NodeId, call: InboundCall) -> Served {
        self.admit_peer(from, "objects")?;
        let (args, invoke) =
            proto::ReceiveArgs::decode_call(call.args()).map_err(|e| Fault::App(e.to_string()))?;
        self.admit_object(args.class)?;
        self.host(env.node(), Arrival::Moved(&args))?;
        env.charge(self.config.reify_cost);
        let name = args.name;
        self.locks.install(name, args.locks);
        let Some((mut invoke, one_way)) = invoke else {
            // Durability: the post-move checkpoint — the backup must learn
            // the object survived the move before the new host can crash
            // on it.
            self.ship_checkpoint(env, name);
            return reply_ok(&());
        };
        env.count("arrival_invokes");
        // It invokes the object that arrived, whatever name it carries.
        invoke.name = name;
        // A completed invocation checkpoints the object, which covers the
        // move too: nothing runs here between the two. A faulted one
        // leaves only the move to checkpoint.
        let result = self.serve_invoke(env, &invoke);
        if result.is_err() {
            self.ship_checkpoint(env, name);
        }
        if one_way {
            return reply_ok(&());
        }
        let head = result.as_ref().map(|_| ());
        let result = result.as_deref().unwrap_or_default();
        self.reply_headed(env, call.handle(), &head, result);
        Ok(CallOutcome::Deferred)
    }

    /// The admission checks an object arriving from a peer (by move or
    /// instantiation) passes before it is hosted: the object quota, and
    /// its class cached here.
    fn admit_object(&self, class: NameId) -> Result<(), Fault> {
        if !self.quotas.admits_object(self.objects.len()) {
            return Err(Fault::AccessDenied(format!(
                "object quota exceeded in namespace {}",
                self.name
            )));
        }
        if !self.classes.contains(&class) {
            return Err(Fault::ClassMissing(self.name_str(class)));
        }
        Ok(())
    }

    fn handle_receive_class(
        &mut self,
        env: &mut Env<'_, '_>,
        from: NodeId,
        call: InboundCall,
    ) -> Served {
        self.admit_peer(from, "classes")?;
        let args: proto::ReceiveClassArgs = decode_args(&call)?;
        if args.has_static_fields && !self.allow_static_classes {
            return Err(Fault::AccessDenied(format!(
                "class {} has static fields; replication would fork static state",
                self.name_str(args.class)
            )));
        }
        if self.classes.contains(&args.class) {
            return reply_ok(&()); // idempotent re-delivery
        }
        if !self.quotas.admits_class(self.classes.len()) {
            return Err(Fault::AccessDenied(format!(
                "class quota exceeded in namespace {}",
                self.name
            )));
        }
        if !self.defs.contains_key(&args.class) {
            return Err(Fault::ClassMissing(self.name_str(args.class)));
        }
        env.charge(env.cost().class_load(args.code.len() as u64));
        self.classes.insert(args.class);
        let me = env.node();
        self.registry
            .update(CompKey::class(args.class), Located::untracked(me));
        reply_ok(&())
    }

    fn handle_fetch_class(&mut self, call: InboundCall) -> Served {
        let args: proto::FetchClassArgs = decode_args(&call)?;
        let missing = || Fault::ClassMissing(self.name_str(args.class));
        reply_ok(&self.class_transfer_args(args.class).ok_or_else(missing)?)
    }

    /// The `receiveClass` arguments that ship `class` to another namespace
    /// (a fetch reply, or a push up a [`ClassLadder`](crate::engine::ClassLadder));
    /// `None` when this node does not cache the class.
    pub(crate) fn class_transfer_args(&self, class: NameId) -> Option<proto::ReceiveClassArgs> {
        let def = self.defs.get(self.classes.get(&class)?)?;
        Some(proto::ReceiveClassArgs {
            class,
            code: ByteBuf(vec![0u8; def.code_size() as usize]),
            has_static_fields: def.has_static_fields(),
        })
    }

    fn handle_instantiate(
        &mut self,
        env: &mut Env<'_, '_>,
        from: NodeId,
        call: InboundCall,
    ) -> Served {
        self.admit_peer(from, "instantiation")?;
        let args: proto::InstantiateArgs = decode_args(&call)?;
        self.admit_object(args.class)?;
        // Factory rebind semantics: a fresh instance replaces any previous
        // object registered under this name (like an RMI registry rebind) —
        // unless that object is mid-migration, or the caller asked for
        // create-not-replace semantics (`Session::create` fails on a taken
        // name, exactly like local creation).
        if self.objects.get(&args.name).is_some_and(|h| h.in_transit) {
            return Err(Fault::App(format!(
                "object {} is in transit",
                self.name_str(args.name)
            )));
        }
        if !args.replace && self.objects.contains_key(&args.name) {
            return Err(Fault::App(format!(
                "object {} already exists here",
                self.name_str(args.name)
            )));
        }
        let incarnation = self.host(env.node(), Arrival::Created(&args))?;
        env.charge(self.config.reify_cost);
        // Durability: the creation checkpoint.
        self.ship_checkpoint(env, args.name);
        reply_ok(&incarnation)
    }

    // ---- driver commands ----

    fn handle_command(&mut self, env: &mut Env<'_, '_>, mut cell: Box<OpCell>) {
        let OpCell::Command(cmd) = cell.take() else {
            panic!("a driver op arrives holding its command");
        };
        self.ops.insert(cmd.op(), cell);
        match cmd {
            Command::CreateObject { op, args } => {
                let result = self.create_local_object(env, &args);
                self.complete(env, op, result);
            }
            Command::Find { op, key, home_hint } => {
                self.start_client_find(env, op, key, home_hint);
            }
            Command::Lock {
                op,
                name,
                target,
                home_hint,
            } => {
                let target = NodeId::from_raw(target);
                let retries = self.config.race_retries;
                let kind = ClientCallKind::Lock { target, retries };
                self.start_client_call(env, op, name, home_hint, kind);
            }
            Command::Unlock {
                op,
                name,
                home_hint,
            } => self.start_client_call(env, op, name, home_hint, ClientCallKind::Unlock),
            Command::Execute { op, spec } => {
                env.charge(self.config.bind_overhead);
                self.exec_start(env, op, spec);
            }
        }
    }

    /// Creates the object `args` describes on this node for its own
    /// client: it pays no reify cost, and a taken name is the client's
    /// `BadPlan`.
    pub(crate) fn create_local_object(
        &mut self,
        env: &mut Env<'_, '_>,
        args: &proto::InstantiateArgs,
    ) -> Result<Outcome, MageError> {
        if !self.classes.contains(&args.class) {
            return Err(MageError::ClassUnavailable(self.name_str(args.class)));
        }
        if let Some(existing) = self.objects.get(&args.name) {
            let name = self.name_str(args.name);
            if !args.replace {
                return Err(MageError::BadPlan(format!(
                    "object {name} already exists here"
                )));
            }
            if existing.in_transit {
                return Err(MageError::BadPlan(format!("object {name} is in transit")));
            }
        }
        let me = env.node();
        let incarnation = self
            .host(me, Arrival::Created(args))
            .map_err(|f| MageError::Rmi(f.to_string()))?;
        // Durability: the creation checkpoint establishes the backup copy
        // before the object serves anything.
        self.ship_checkpoint(env, args.name);
        Ok(Outcome {
            location: me.as_raw(),
            incarnation,
            ..Outcome::default()
        })
    }

    /// Hosts an arriving object here — the one way onto a node, shared by
    /// a move (`receive`), a remote or local instantiation, and a restore
    /// from this node's backup snapshot. Looks the class up, reifies the
    /// state through its factory, records the object and points the
    /// registry here; returns its incarnation. Admission checks, the
    /// reify charge and the creation checkpoint stay with the callers,
    /// which differ in them.
    pub(crate) fn host(&mut self, me: NodeId, arrival: Arrival<'_>) -> Result<Incarnation, Fault> {
        let (name, class, state, visibility, durability, backup) = match arrival {
            Arrival::Moved(a) => (
                a.name,
                a.class,
                &a.state[..],
                a.visibility,
                a.durability,
                a.backup,
            ),
            Arrival::Created(a) => (
                a.name,
                a.class,
                &a.state[..],
                a.visibility,
                a.durability,
                a.backup,
            ),
            Arrival::Restored(name) => {
                let snap = self
                    .backups
                    .get(&name)
                    .ok_or_else(|| Fault::NotBound(self.name_str(name)))?;
                // The backup home stays fixed — which is now this node, so
                // further checkpoints are local stores until the object
                // moves away again.
                let backup = Some(me.as_raw());
                (
                    name,
                    snap.class,
                    &snap.state[..],
                    snap.visibility,
                    snap.durability,
                    backup,
                )
            }
        };
        let def = self
            .defs
            .get(&class)
            .ok_or_else(|| Fault::ClassMissing(self.name_str(class)))?;
        let object = def.instantiate(state)?;
        let (home, version, incarnation, snapshot_epoch) = match arrival {
            // Migration preserves identity: same incarnation, new home.
            Arrival::Moved(a) => (
                NodeId::from_raw(a.home),
                a.version,
                a.incarnation,
                a.snapshot_epoch,
            ),
            // A fresh instance is a fresh identity — even under a name that
            // existed before (factory rebind, or re-creation after a
            // crash), so stale stubs to a predecessor become detectable.
            Arrival::Created(_) => (me, 0, self.minter.mint(), 0),
            // A restore is a re-creation, not a migration: the crashed
            // incarnation is dead, so the survivor gets a fresh identity
            // and stale stubs resolve to typed `StaleIdentity` (then
            // rebind). The backup home adopts the object as its origin.
            Arrival::Restored(name) => (me, 0, self.minter.mint(), self.backups[&name].epoch),
        };
        self.objects.insert(
            name,
            Hosted {
                object,
                class,
                visibility,
                home,
                version,
                incarnation,
                in_transit: false,
                durability,
                backup: backup.map(NodeId::from_raw),
                snapshot_epoch,
                shipped: None,
            },
        );
        self.registry
            .update(CompKey::object(name), Located::new(me, incarnation));
        Ok(incarnation)
    }

    // ---- durability: checkpoint & restore ----

    /// Checkpoints `name` to its fixed backup home (a no-op for volatile
    /// objects; an object hosted *at* its backup stores the snapshot
    /// locally instead). A snapshot byte-identical to the last one shipped
    /// is not shipped again: once the backup acknowledged it, a
    /// confirmation naming its `(incarnation, epoch)` goes out instead;
    /// while it is still in flight, nothing does, and
    /// [`settle_checkpoint`](Self::settle_checkpoint) re-ships should it
    /// fail. Only a full snapshot bumps the epoch.
    pub(crate) fn ship_checkpoint(&mut self, env: &mut Env<'_, '_>, name: NameId) {
        let me = env.node();
        let Some(hosted) = self.objects.get_mut(&name) else {
            return;
        };
        if !hosted.durability.is_replicated() {
            return;
        }
        let Some(backup) = hosted.backup else {
            return;
        };
        let state = match hosted.object.snapshot() {
            Ok(state) => state,
            Err(fault) => {
                if env.trace_enabled() {
                    env.note(format!("checkpoint snapshot failed: {fault}"));
                }
                return;
            }
        };
        // Exact byte equality, never a hash: a false match would lose data.
        let confirmed_epoch = match &mut hosted.shipped {
            Some(shipped) if backup != me && shipped.state == state => {
                if !shipped.acked {
                    shipped.coalesced = true;
                    return;
                }
                Some(shipped.epoch)
            }
            _ => None,
        };
        let epoch = confirmed_epoch.unwrap_or_else(|| {
            hosted.snapshot_epoch += 1;
            hosted.snapshot_epoch
        });
        let head = proto::CheckpointHeader {
            name,
            class: hosted.class,
            incarnation: hosted.incarnation,
            epoch,
            home: hosted.home.as_raw(),
            visibility: hosted.visibility,
            durability: hosted.durability,
        };
        if backup == me {
            // Hosted at the backup home: the snapshot is a local store
            // (no wire, but the same monotonicity discipline).
            self.store_backup(env, head.with_state(state));
            return;
        }
        let confirm = confirmed_epoch.is_some();
        let token = self.next_token();
        let (method, class) = (self.ids.checkpoint, head.class);
        let ladder = if confirm {
            env.count("checkpoint_confirms");
            self.place(env, backup, method, &head.confirmation(), class, token)
        } else {
            let args = proto::CheckpointArgsRef {
                head: &head,
                state: &state,
            };
            let ladder = self.place(env, backup, method, &args, class, token);
            if let Some(hosted) = self.objects.get_mut(&name) {
                hosted.shipped = Some(ShippedSnapshot {
                    state,
                    epoch: head.epoch,
                    acked: false,
                    coalesced: false,
                });
            }
            ladder
        };
        let task = CheckpointTask {
            ladder,
            head,
            confirm,
        };
        self.tasks.insert(token, Task::Checkpoint(task));
    }

    /// Settles the backup's answer to `task` against the object's
    /// shipped-snapshot record, if that record still describes `task`'s
    /// snapshot. `held` means the backup stored the full snapshot, or
    /// confirmed it holds it. Anything else (refused as stale, unknown
    /// to a restarted backup, or the call failed) clears the record; a
    /// confirmation, or a shipment an invocation coalesced onto, is then
    /// replaced by a full snapshot straight away, so every completed
    /// invocation's state still reaches the backup or is confirmed there.
    pub(crate) fn settle_checkpoint(
        &mut self,
        env: &mut Env<'_, '_>,
        task: &CheckpointTask,
        held: bool,
    ) {
        let head = &task.head;
        let confirm = task.confirm;
        if confirm && !held {
            env.count("checkpoint_confirms_refused");
        }
        let Some(hosted) = self
            .objects
            .get_mut(&head.name)
            .filter(|h| h.incarnation == head.incarnation)
        else {
            return;
        };
        let Some(shipped) = hosted.shipped.as_mut().filter(|s| s.epoch == head.epoch) else {
            return;
        };
        if held {
            shipped.acked = true;
            shipped.coalesced = false;
            return;
        }
        let reship = confirm || shipped.coalesced;
        hosted.shipped = None;
        if reship {
            self.ship_checkpoint(env, head.name);
        }
    }

    /// Accepts (or refuses as stale) a durability snapshot. Returns
    /// whether the snapshot was stored; acceptance is strictly monotone
    /// per object name over `(incarnation, epoch)` — a younger lineage
    /// (re-creation after total loss, fork winner) supersedes an older
    /// one outright, and within a lineage epochs must increase. Without
    /// the lineage ordering, a re-created object's early checkpoints
    /// would be refused against its dead predecessor's high epochs, and
    /// a later restore would resurrect the predecessor's state.
    pub(crate) fn store_backup(
        &mut self,
        env: &mut Env<'_, '_>,
        args: proto::CheckpointArgs,
    ) -> bool {
        if self
            .backups
            .get(&args.name)
            .is_some_and(|held| (held.incarnation, held.epoch) >= (args.incarnation, args.epoch))
        {
            return false;
        }
        if env.trace_enabled() {
            // Invariant marker: `(incarnation, epoch)` pairs accepted at
            // this backup are strictly increasing per object name.
            env.note(format!(
                "invariant:ckpt:{}:{}:{}",
                args.name.as_raw(),
                args.incarnation.as_raw(),
                args.epoch
            ));
        }
        env.count("snapshots_stored");
        self.backups.insert(
            args.name,
            BackupSnapshot {
                class: args.class,
                state: args.state,
                visibility: args.visibility,
                incarnation: args.incarnation,
                epoch: args.epoch,
                durability: args.durability,
            },
        );
        true
    }

    fn handle_checkpoint(
        &mut self,
        env: &mut Env<'_, '_>,
        from: NodeId,
        call: InboundCall,
    ) -> Served {
        self.admit_peer(from, "checkpoints")?;
        let args = match proto::CheckpointCall::decode(call.args()) {
            Ok(proto::CheckpointCall::Full(args)) => args,
            Ok(proto::CheckpointCall::Confirm(confirm)) => {
                // Stores nothing: the answer only says whether this backup
                // still holds exactly the snapshot the primary names.
                let held = self.backups.get(&confirm.name).is_some_and(|held| {
                    (held.incarnation, held.epoch) == (confirm.incarnation, confirm.epoch)
                });
                return reply_ok(&held);
            }
            Err(e) => return Err(Fault::App(e.to_string())),
        };
        // The backup must be able to *restore* — it needs the class. The
        // primary pushes it on this fault, exactly like a move would.
        if !self.classes.contains(&args.class) {
            return Err(Fault::ClassMissing(self.name_str(args.class)));
        }
        let stored = self.store_backup(env, args);
        reply_ok(&stored)
    }

    /// Restores `name` from this node's backup snapshot, hosting it here
    /// under a **fresh incarnation**. Shared by the remote `restore`
    /// handler and the engine's local fast path (the client *is* the
    /// backup home).
    pub(crate) fn restore_local(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
    ) -> Result<proto::FindReply, Fault> {
        let me = env.node();
        let key = CompKey::object(name);
        if self.has_component(key) {
            // Already hosting (an earlier restore won the race, or the
            // object legitimately lives here): idempotent answer.
            return Ok(self.local_find_reply(key, me));
        }
        if self.objects.get(&name).is_some_and(|h| h.in_transit) {
            return Err(Fault::App(format!("{} is in transit", self.name_str(name))));
        }
        let incarnation = self.host(me, Arrival::Restored(name))?;
        env.charge(self.config.reify_cost);
        if env.trace_enabled() {
            // Invariant marker: a restore must serve the newest snapshot
            // this backup ever acknowledged for the name.
            let snap = &self.backups[&name];
            env.note(format!(
                "invariant:restore:{}:{}:{}",
                name.as_raw(),
                snap.incarnation.as_raw(),
                snap.epoch
            ));
        }
        env.count("snapshot_restores");
        Ok(proto::FindReply {
            location: me.as_raw(),
            incarnation,
        })
    }

    fn handle_restore(&mut self, env: &mut Env<'_, '_>, call: InboundCall) -> Served {
        let args: proto::RestoreArgs = decode_args(&call)?;
        reply_ok(&self.restore_local(env, args.name)?)
    }
}

/// How an object arrives at a namespace: the source its class, state,
/// policy set and identity are taken from (see [`MageNode::host`]).
#[derive(Clone, Copy)]
pub(crate) enum Arrival<'a> {
    /// Moved here (`receive`): identity, origin server, move count and
    /// snapshot epoch travel with the object.
    Moved(&'a proto::ReceiveArgs),
    /// A fresh instance from its class (`instantiate`, or a local
    /// create).
    Created(&'a proto::InstantiateArgs),
    /// Restored from this node's backup snapshot of the named object.
    Restored(NameId),
}

/// What a service handler answers: a reply or deferral, or the fault the
/// caller gets.
type Served = Result<CallOutcome, Fault>;

fn reply_ok<T: serde::Serialize>(value: &T) -> Served {
    Ok(CallOutcome::Reply(Ok(
        mage_codec::to_bytes(value).expect("reply encodes")
    )))
}

/// Decodes a service call's arguments; a malformed payload is the
/// caller's application fault.
fn decode_args<T: serde::de::DeserializeOwned>(call: &InboundCall) -> Result<T, Fault> {
    mage_codec::from_bytes(call.args()).map_err(|e| Fault::App(e.to_string()))
}

impl App for MageNode {
    fn on_driver(&mut self, env: &mut Env<'_, '_>, payload: Box<dyn Any>) {
        let cell = payload
            .downcast::<OpCell>()
            .expect("MageNode is driven by proto::OpCell");
        self.handle_command(env, cell);
    }

    fn on_call(&mut self, env: &mut Env<'_, '_>, from: NodeId, call: InboundCall) -> CallOutcome {
        if call.object_id() != self.ids.service {
            return CallOutcome::Unhandled;
        }
        let method = call.method_id();
        let served = if method == self.ids.find {
            self.handle_find(env, call)
        } else if method == self.ids.lock {
            self.handle_lock(env, call)
        } else if method == self.ids.unlock {
            self.handle_unlock(env, call)
        } else if method == self.ids.invoke {
            self.handle_invoke(env, call)
        } else if method == self.ids.act {
            self.handle_act(env, call)
        } else if method == self.ids.receive {
            self.handle_receive(env, from, call)
        } else if method == self.ids.receive_class {
            self.handle_receive_class(env, from, call)
        } else if method == self.ids.fetch_class {
            self.handle_fetch_class(call)
        } else if method == self.ids.instantiate {
            self.handle_instantiate(env, from, call)
        } else if method == self.ids.checkpoint {
            self.handle_checkpoint(env, from, call)
        } else if method == self.ids.restore {
            self.handle_restore(env, call)
        } else {
            Err(Fault::NoSuchMethod {
                object: proto::SERVICE.to_owned(),
                method: call.method().to_owned(),
            })
        };
        served.unwrap_or_else(|fault| CallOutcome::Reply(Err(fault)))
    }

    fn on_reply(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        result: Result<Bytes, mage_rmi::RmiError>,
    ) {
        self.step_task(env, token, result);
    }

    fn on_peer_restart(&mut self, env: &mut Env<'_, '_>, peer: NodeId) {
        let me = env.node();
        // Crash-stop: everything the previous incarnation of `peer` held
        // here is dead knowledge. Locks it held release, and waiters that
        // become runnable are granted; requests the dead incarnation had
        // queued are dropped (their reply paths died with it).
        let grants = self.locks.purge_client(peer, me);
        for grant in grants {
            self.deliver_grant(env, grant);
        }
        // Registry entries pointing at the dead incarnation are stale —
        // the components it hosted died with it; finds must rediscover.
        let stale = self.registry.purge_location(peer);
        // Parked finds and acts whose reply path died with the peer.
        for waiters in self.transit_waiters.values_mut() {
            waiters.retain(|w| match w {
                TransitWaiter::Find(FindWaiter::Reply(handle)) | TransitWaiter::Act(handle, _) => {
                    handle.caller() != peer
                }
                TransitWaiter::Find(FindWaiter::Op(_)) | TransitWaiter::Exec(_) => true,
            });
        }
        self.transit_waiters
            .retain(|_, waiters| !waiters.is_empty());
        if env.trace_enabled() {
            // Invariant marker: this node has purged everything belonging
            // to incarnations of `peer` older than the learned epoch — no
            // later lock grant may go to a waiter from below it.
            env.note(format!(
                "invariant:purged:{}:{}",
                peer.as_raw(),
                env.peer_epoch(peer).unwrap_or(0)
            ));
            env.note(format!(
                "peer {peer} restarted: drained its locks, dropped {stale} stale registry entries"
            ));
        }
    }
}

impl std::fmt::Debug for MageNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MageNode")
            .field("name", &self.name)
            .field("objects", &self.objects.len())
            .field("classes", &self.classes.len())
            .field("registry_entries", &self.registry.len())
            .field("tasks_in_flight", &self.tasks.len())
            .finish_non_exhaustive()
    }
}
