#![warn(clippy::too_many_lines)]
//! The RMI endpoint: one per namespace, acting as both client and server.
//!
//! Responsibilities mirrored from Java RMI:
//!
//! * a per-node name registry of [`RemoteObject`]s (skeleton dispatch)
//! * outgoing calls with correlation ids, retransmission on loss and an
//!   at-most-once server-side call table: each reply is kept, ready to
//!   resend, until the caller's retry horizon has passed
//! * connection priming: a client's first call to a given server pays a
//!   one-time [`CostModel::connect`] charge (the paper's "warming the
//!   caches" single-invocation overhead)
//! * CPU cost accounting for marshalling and dispatch, charged as node-local
//!   compute delay before messages reach the wire
//!
//! The steady-state message path is allocation-free beyond the frame
//! buffer itself: object/method names travel as interned [`NameId`]s (the
//! backing string rides along until the peer acknowledges it — see
//! [`crate::symbols`]), encoding goes through a reusable per-endpoint
//! scratch buffer, responses are cached as ready-to-resend frames, and
//! retransmissions clone the original frame instead of re-encoding.
//!
//! **Failure detection is purely message-driven.** Every frame carries its
//! sender's incarnation epoch (a boot counter); an endpoint learns that a
//! peer restarted the moment the first frame from the fresh incarnation
//! arrives, and only then — no out-of-band oracle. Responses additionally
//! echo the epoch the request claimed, so a reply addressed to a dead
//! incarnation of the caller is discarded on receipt instead of colliding
//! with the fresh incarnation's call-id space. A request naming an
//! interned id the receiver never learned (its table died with a crash,
//! or the first-use carrier frame was lost) is answered with a
//! [`Fault::UnknownName`] NACK, and the caller re-sends the request with
//! the backing strings attached. The simulator's epoch oracle
//! (`Context::node_epoch`) survives only inside `debug_assert!`s that the
//! wire-learned view agrees with ground truth.
//!
//! Higher layers (the MAGE runtime) plug in as an [`App`]: a protocol state
//! machine that can originate calls, answer calls not handled by the local
//! object registry, and defer replies while it performs nested calls.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use mage_sim::{Actor, Context, Label, NodeId, OpId, SimDuration, SimTime, TimerId};
use rand::rngs::StdRng;

use crate::cost::CostModel;
use crate::error::{Fault, RmiError};
use crate::object::{ObjectEnv, RemoteObject};
use crate::symbols::{IntoName, NameId, SymbolTable};
use crate::wire::{call_label, encode_call_req, encode_call_rsp, WireMsg};

/// Timer tags with this bit set are endpoint-internal (retransmission).
const RETX_FLAG: u64 = 1 << 63;

/// Endpoint configuration. A `mage-core` `Runtime` gives all its endpoints
/// one `Config`, so servers keep replies for their callers' retry horizon.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// CPU cost model for marshalling/dispatch/connection setup.
    pub cost: CostModel,
    /// Time to wait for a response before retransmitting; must exceed
    /// every one-way delay (the `sweep` bench raises it to 60 s for its
    /// megabyte transfers). A server keeps each reply for the retry
    /// horizon, `(max_retries + 2) × call_timeout` from caching it: the
    /// caller's whole retry window plus the last copy's flight. A copy
    /// delayed longer runs the call again.
    pub call_timeout: SimDuration,
    /// Retransmissions attempted after the first send.
    pub max_retries: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cost: CostModel::jdk_1_2_2(),
            call_timeout: SimDuration::from_millis(200),
            max_retries: 3,
        }
    }
}

impl Config {
    /// A configuration with zero CPU costs, for tests that assert on
    /// message counts and semantics rather than timing.
    pub fn zero_cost() -> Self {
        Config {
            cost: CostModel::zero(),
            ..Config::default()
        }
    }

    /// How long a served call's reply stays resendable (see
    /// [`Config::call_timeout`]).
    fn retry_horizon(&self) -> SimDuration {
        self.call_timeout
            .saturating_mul(u64::from(self.max_retries) + 2)
    }
}

/// An inbound call offered to the [`App`] (no local object matched).
///
/// Names arrive as interned ids (already translated to this endpoint's
/// symbol table); the resolved strings are carried along so error paths
/// and generic apps can still read them without a table in hand.
#[derive(Debug)]
pub struct InboundCall {
    object: NameId,
    method: NameId,
    object_name: Arc<str>,
    method_name: Arc<str>,
    args: Bytes,
    handle: ReplyHandle,
}

impl InboundCall {
    /// Interned id of the name the call was addressed to — compare against
    /// pre-interned ids instead of strings on hot paths.
    pub fn object_id(&self) -> NameId {
        self.object
    }

    /// Interned id of the requested method.
    pub fn method_id(&self) -> NameId {
        self.method
    }

    /// Name the call was addressed to.
    pub fn object(&self) -> &str {
        &self.object_name
    }

    /// Requested method.
    pub fn method(&self) -> &str {
        &self.method_name
    }

    /// Marshalled arguments (a zero-copy slice of the received frame).
    pub fn args(&self) -> &[u8] {
        &self.args
    }

    /// The handle used to answer this call later (for deferred replies).
    pub fn handle(&self) -> ReplyHandle {
        self.handle
    }

    /// Consumes the call, returning its argument buffer without copying.
    pub fn into_args(self) -> Bytes {
        self.args
    }
}

/// Identifies a deferred inbound call so the app can answer it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplyHandle {
    caller: NodeId,
    call_id: u64,
    /// Caller incarnation as stamped in the request frame; a reply to a
    /// caller that has since restarted is silently dropped instead of
    /// confusing its fresh call-id space.
    caller_epoch: u64,
}

impl ReplyHandle {
    /// The node that originated the deferred call.
    pub fn caller(&self) -> NodeId {
        self.caller
    }

    /// The caller incarnation stamped in the request frame.
    pub fn caller_epoch(&self) -> u64 {
        self.caller_epoch
    }
}

/// The app's verdict on an inbound call it was offered.
pub enum CallOutcome {
    /// Answer immediately with this result.
    Reply(Result<Vec<u8>, Fault>),
    /// The app took the [`ReplyHandle`] and will answer via [`Env::reply`].
    Deferred,
    /// The app does not recognise the target; the endpoint answers with
    /// [`Fault::NotBound`].
    Unhandled,
}

/// Protocol logic layered over an endpoint (e.g. the MAGE runtime).
///
/// All methods receive an [`Env`] through which the app can originate
/// calls, bind objects, set timers and complete driver operations.
pub trait App {
    /// Called once when the node starts.
    fn on_start(&mut self, _env: &mut Env<'_, '_>) {}

    /// Called for typed commands injected by the experiment driver (see
    /// [`World::inject`](mage_sim::World::inject)); the app downcasts to
    /// the command type it understands.
    fn on_driver(&mut self, _env: &mut Env<'_, '_>, _payload: Box<dyn Any>) {}

    /// Called for inbound calls that no locally bound object handles.
    fn on_call(&mut self, _env: &mut Env<'_, '_>, _from: NodeId, call: InboundCall) -> CallOutcome {
        let _ = call;
        CallOutcome::Unhandled
    }

    /// Called when an outgoing call completes (successfully or not).
    ///
    /// `token` is the correlation value passed to [`Env::call`]. A
    /// successful result is a zero-copy slice of the response frame.
    fn on_reply(&mut self, _env: &mut Env<'_, '_>, _token: u64, _result: Result<Bytes, RmiError>) {}

    /// Called when an app timer set via [`Env::set_timer`] fires.
    fn on_timer(&mut self, _env: &mut Env<'_, '_>, _tag: u64) {}

    /// Called when the endpoint detects that `peer` has restarted into a
    /// new incarnation (its epoch changed since we last interacted).
    ///
    /// By the time this runs the endpoint has already invalidated its own
    /// per-peer state — symbol-ack tracking, connection priming, learned
    /// name translations and its calls in the at-most-once call table,
    /// deferred or answered. Apps use the hook for *their* per-peer state:
    /// draining lock queues whose holder died, repairing registry entries
    /// that point at the lost incarnation, and so on.
    fn on_peer_restart(&mut self, _env: &mut Env<'_, '_>, _peer: NodeId) {}
}

/// A no-op app for endpoints that only serve bound objects.
#[derive(Debug, Default)]
pub struct ServerOnly;

impl App for ServerOnly {}

struct PendingCall {
    to: NodeId,
    token: u64,
    /// The encoded frame, kept for retransmission (cloning shares the
    /// allocation; nothing is re-encoded).
    frame: Bytes,
    object: NameId,
    method: NameId,
    /// Whether the request carried first-use name strings; a response
    /// acknowledges them (the peer has learned the ids).
    named: bool,
    /// Whether an [`Fault::UnknownName`] NACK already forced a re-encode
    /// with strings attached (once per call; a second NACK is surfaced).
    reshipped: bool,
    attempts: u32,
}

/// A call this endpoint accepted, in the at-most-once call table.
struct ServedCall {
    /// Caller incarnation stamped in the request.
    caller_epoch: u64,
    /// `None` while deferred; then the ready-to-resend frame, its label and expiry time.
    reply: Option<(Bytes, &'static str, SimTime)>,
}

/// Whether a peer has acknowledged learning one of our interned names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NameState {
    /// Shipped at least once, no response seen yet — keep attaching the
    /// string so a lossy or partitioned link cannot strand the binding.
    Pending,
    /// A response to a name-carrying call arrived; the id alone suffices.
    Acked,
}

/// Shared endpoint state (everything except the app itself).
pub struct EndpointState {
    cfg: Config,
    syms: Arc<SymbolTable>,
    objects: HashMap<NameId, Box<dyn RemoteObject>>,
    next_call: u64,
    pending: HashMap<u64, PendingCall>,
    primed: BTreeSet<NodeId>,
    /// Sender side of first-use name shipment: per peer, which of our ids
    /// the peer has (or is about to have) learned.
    shipped: HashMap<NodeId, HashMap<NameId, NameState>>,
    /// Receiver side: translation of a peer's wire ids to our local ids,
    /// learned from first-use strings.
    learned: HashMap<(NodeId, u32), NameId>,
    /// Last incarnation of each peer learned from a received frame's
    /// sender-epoch field; a change invalidates every per-peer table above
    /// and below (the old incarnation's acks, learned ids, primed
    /// connection and cached responses died with it).
    peer_epochs: HashMap<NodeId, u64>,
    /// At-most-once call table by `(caller, call_id)`: deferred calls, then
    /// their replies until the retry horizon passes. Caller epochs let a
    /// purge drop a dead incarnation's entries even if it was never seen.
    served: HashMap<(NodeId, u64), ServedCall>,
    /// Expiry times of cached replies, oldest first. Purges leave slots
    /// behind; a slot removes only an entry whose own expiry it matches.
    expiry: VecDeque<(SimTime, (NodeId, u64))>,
    /// Reusable encode buffer for every outgoing frame.
    scratch: Vec<u8>,
}

impl EndpointState {
    fn new(cfg: Config, syms: Arc<SymbolTable>) -> Self {
        EndpointState {
            cfg,
            syms,
            objects: HashMap::new(),
            next_call: 0,
            pending: HashMap::new(),
            primed: BTreeSet::new(),
            shipped: HashMap::new(),
            learned: HashMap::new(),
            peer_epochs: HashMap::new(),
            served: HashMap::new(),
            expiry: VecDeque::new(),
            scratch: Vec::with_capacity(256),
        }
    }

    /// Answers the served call `key`, keeping the reply until the caller's
    /// retry horizon passes.
    fn cache_reply(&mut self, key: (NodeId, u64), frame: Bytes, label: &'static str, now: SimTime) {
        self.expire(now);
        let expires = now + self.cfg.retry_horizon();
        if let Some(call) = self.served.get_mut(&key) {
            call.reply = Some((frame, label, expires));
            self.expiry.push_back((expires, key));
        }
    }

    /// Drops every cached reply whose horizon has passed by `now`.
    fn expire(&mut self, now: SimTime) {
        while let Some(&(at, key)) = self.expiry.front().filter(|(at, _)| *at <= now) {
            self.expiry.pop_front();
            if let Entry::Occupied(call) = self.served.entry(key) {
                if matches!(call.get().reply, Some((_, _, expires)) if expires == at) {
                    call.remove();
                }
            }
        }
    }

    /// Records `peer`'s incarnation as learned from a received frame.
    /// Returns `true` — after invalidating all per-peer state — when the
    /// peer has restarted since we last heard from it.
    fn note_peer_epoch(&mut self, peer: NodeId, epoch: u64) -> bool {
        match self.peer_epochs.insert(peer, epoch) {
            Some(old) if old != epoch => {
                self.purge_peer(peer);
                true
            }
            Some(_) => false,
            None => {
                // First sighting of this peer's epoch. Call-table entries
                // normally imply a prior sighting, but an entry can outlive
                // the tracking map's knowledge (first contact after a
                // restart); any entry stamped with a different caller epoch
                // belongs to a dead incarnation and must not answer — or
                // block — the fresh one's calls.
                self.purge_stale_epoch_entries(peer, epoch);
                false
            }
        }
    }

    /// Forgets everything tied to a dead incarnation of `peer`: name-ack
    /// state (strings must ship again), the primed connection, learned id
    /// translations and its served calls (the fresh incarnation reuses
    /// call ids from zero).
    fn purge_peer(&mut self, peer: NodeId) {
        self.primed.remove(&peer);
        self.shipped.remove(&peer);
        self.learned.retain(|(node, _), _| *node != peer);
        self.served.retain(|(node, _), _| *node != peer);
    }

    /// Drops `peer`'s served calls whose recorded caller epoch differs
    /// from `epoch`.
    fn purge_stale_epoch_entries(&mut self, peer: NodeId, epoch: u64) {
        self.served
            .retain(|(node, _), call| *node != peer || call.caller_epoch == epoch);
    }

    /// Translates a wire id from `from` to a local id, learning the
    /// binding when a first-use string is attached.
    fn translate(&mut self, from: NodeId, wire_id: u32, name: Option<&str>) -> Option<NameId> {
        if let Some(name) = name {
            let local = self.syms.intern(name);
            self.learned.insert((from, wire_id), local);
            return Some(local);
        }
        self.learned.get(&(from, wire_id)).copied()
    }

    /// Marks `id` as acknowledged by `to` (stop attaching the string).
    fn ack_name(&mut self, to: NodeId, id: NameId) {
        if let Some(states) = self.shipped.get_mut(&to) {
            if let Some(state) = states.get_mut(&id) {
                *state = NameState::Acked;
            }
        }
    }

    /// Whether the string for `id` must ride along to `to`, registering
    /// the shipment.
    fn needs_name(&mut self, to: NodeId, id: NameId) -> bool {
        let states = self.shipped.entry(to).or_default();
        match states.get(&id) {
            Some(NameState::Acked) => false,
            _ => {
                states.insert(id, NameState::Pending);
                true
            }
        }
    }
}

/// The per-dispatch environment handed to [`App`] methods.
pub struct Env<'a, 'c> {
    ctx: &'a mut Context<'c>,
    state: &'a mut EndpointState,
    surcharge: SimDuration,
}

impl<'a, 'c> Env<'a, 'c> {
    fn new(ctx: &'a mut Context<'c>, state: &'a mut EndpointState, surcharge: SimDuration) -> Self {
        Env {
            ctx,
            state,
            surcharge,
        }
    }

    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.ctx.node()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The endpoint's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.state.cfg.cost
    }

    /// The endpoint's symbol table (shared world-wide by the harness).
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.state.syms
    }

    /// The last incarnation of `peer` learned from received frames
    /// (`None` before the first frame). Purely message-driven — this is
    /// the endpoint's *belief*, not the simulator's ground truth.
    pub fn peer_epoch(&self, peer: NodeId) -> Option<u64> {
        self.state.peer_epochs.get(&peer).copied()
    }

    /// Whether the world records a trace (rich labels are only worth
    /// building when it does).
    pub fn trace_enabled(&self) -> bool {
        self.ctx.trace_enabled()
    }

    /// Deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    /// Adds `d` of node-local compute time before any message sent in the
    /// remainder of this dispatch reaches the wire.
    ///
    /// Higher layers use this to charge protocol-specific CPU work such as
    /// class loading or object reconstruction.
    pub fn charge(&mut self, d: SimDuration) {
        self.surcharge += d;
    }

    /// Originates a call under the endpoint's timeout and retry budget
    /// ([`Config::call_timeout`], [`Config::max_retries`]).
    ///
    /// `object`/`method` accept pre-interned [`NameId`]s (free) or strings
    /// (one interning lookup). `token` correlates the eventual
    /// [`App::on_reply`].
    pub fn call(
        &mut self,
        to: NodeId,
        object: impl IntoName,
        method: impl IntoName,
        args: impl AsRef<[u8]>,
        token: u64,
    ) {
        let object = object.into_name(&self.state.syms);
        let method = method.into_name(&self.state.syms);
        let args = args.as_ref();
        let call_id = self.state.next_call;
        self.state.next_call += 1;

        // No oracle consulted here: if the peer restarted and lost its
        // learned name table since we last heard from it, the bare-id
        // request is answered with a `Fault::UnknownName` NACK (stamped
        // with the fresh incarnation's epoch, which purges our per-peer
        // state) and re-sent with the strings attached.
        let ship_object = self.state.needs_name(to, object);
        let ship_method = self.state.needs_name(to, method);
        let named = ship_object || ship_method;
        let tracing = self.ctx.trace_enabled();
        // Steady state (names acked, tracing off): skip name resolution
        // entirely — the ids alone go on the wire under a static label.
        let resolved = (named || tracing).then(|| {
            (
                self.state.syms.resolve_lossy(object),
                self.state.syms.resolve_lossy(method),
            )
        });
        let (object_str, method_str) = match &resolved {
            Some((o, m)) => (Some(&**o), Some(&**m)),
            None => (None, None),
        };
        let frame = encode_call_req(
            &mut self.state.scratch,
            call_id,
            self.ctx.self_epoch(),
            object,
            if ship_object { object_str } else { None },
            method,
            if ship_method { method_str } else { None },
            args,
        );

        let mut delay = self.surcharge + self.state.cfg.cost.marshal(args.len() as u64);
        if self.state.primed.insert(to) {
            delay += self.state.cfg.cost.connect;
        }
        let label: Label = if tracing {
            call_label(
                object_str.unwrap_or_default(),
                method_str.unwrap_or_default(),
            )
            .into()
        } else {
            "call".into()
        };
        self.ctx.send_after(delay, to, label, frame.clone());
        self.state.pending.insert(
            call_id,
            PendingCall {
                to,
                token,
                frame,
                object,
                method,
                named,
                reshipped: false,
                attempts: 1,
            },
        );
        self.ctx
            .set_timer(delay + self.state.cfg.call_timeout, RETX_FLAG | call_id);
    }

    /// Answers a deferred inbound call. Returns `true` when the reply was
    /// sent, `false` when it was dropped because the caller's incarnation
    /// died while the call was deferred (answering would corrupt the fresh
    /// incarnation's reused call-id space).
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not correspond to a deferred call of a
    /// still-live caller incarnation (answering twice, or fabricating a
    /// handle, is a protocol bug).
    pub fn reply(&mut self, handle: ReplyHandle, result: Result<Vec<u8>, Fault>) -> bool {
        self.reply_with(handle, result.as_ref().map(|v| v.as_slice()))
    }

    /// Borrowed-view form of [`Env::reply`]: answers a deferred call
    /// without taking ownership of the payload (no copy beyond the
    /// response frame itself). Useful when forwarding a payload that
    /// already lives in a received frame.
    ///
    /// # Panics
    ///
    /// Same as [`Env::reply`].
    pub fn reply_with(&mut self, handle: ReplyHandle, result: Result<&[u8], &Fault>) -> bool {
        let key = (handle.caller, handle.call_id);
        match self.state.served.get(&key) {
            // A *fresh* incarnation's call reused the id while this
            // handle's caller is dead: the entry is not ours to answer.
            Some(call) if call.caller_epoch != handle.caller_epoch => return false,
            // The entry belongs to this handle's incarnation: answer it.
            Some(ServedCall { reply: None, .. }) => {}
            _ => {
                // The caller restarted while its call was deferred: the
                // entry was purged with the dead incarnation (our learned
                // view of the peer's epoch has moved past the handle's).
                // Drop the reply.
                if self.state.peer_epochs.get(&handle.caller).copied() != Some(handle.caller_epoch)
                {
                    return false;
                }
                panic!("reply to unknown or already-answered call {key:?}");
            }
        }
        let label = match &result {
            Ok(_) => "rsp:ok",
            Err(_) => "rsp:fault",
        };
        // The response echoes the caller epoch from the request, so a
        // restarted caller discards it instead of matching it against a
        // reused call id.
        let frame = encode_call_rsp(
            &mut self.state.scratch,
            handle.call_id,
            self.ctx.self_epoch(),
            handle.caller_epoch,
            result,
        );
        self.state
            .cache_reply(key, frame.clone(), label, self.ctx.now());
        self.ctx
            .send_after(self.surcharge, handle.caller, label, frame);
        true
    }

    /// Sets an application timer. `tag` must not use the top bit, which is
    /// reserved for the endpoint's retransmission timers.
    ///
    /// # Panics
    ///
    /// Panics if `tag` has the reserved bit set.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerId {
        assert_eq!(
            tag & RETX_FLAG,
            0,
            "app timer tags must not use the top bit"
        );
        self.ctx.set_timer(after, tag)
    }

    /// Cancels an application timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel_timer(id);
    }

    /// Completes a driver operation with a typed result (see
    /// [`Context::complete`]).
    pub fn complete_op(&mut self, op: OpId, result: Box<dyn Any>) {
        self.ctx.complete(op, result);
    }

    /// Emits a trace annotation from this node.
    pub fn note(&mut self, text: impl Into<String>) {
        self.ctx.note(text);
    }

    /// Bumps a named world metric counter (see
    /// [`Context::count`](mage_sim::Context::count)).
    pub fn count(&mut self, name: &'static str) {
        self.ctx.count(name);
    }
}

/// An RMI endpoint actor parameterised by its [`App`].
pub struct Endpoint<A> {
    app: A,
    state: EndpointState,
}

impl<A: App> Endpoint<A> {
    /// Creates an endpoint with the given app and configuration, and a
    /// private symbol table.
    ///
    /// Endpoints with private tables interoperate through first-use name
    /// shipment **at the RMI envelope level only** (the object/method ids
    /// of each frame are translated on receipt). Apps that embed
    /// [`NameId`]s inside their *own* payloads — the MAGE runtime's
    /// service arguments do — bypass that translation and therefore
    /// require every node to share one table: construct those endpoints
    /// with [`Endpoint::with_symbols`], as `mage-core`'s runtime builder
    /// does.
    pub fn new(app: A, cfg: Config) -> Self {
        Endpoint::with_symbols(app, cfg, SymbolTable::shared())
    }

    /// Creates an endpoint sharing the world-wide symbol table.
    pub fn with_symbols(app: A, cfg: Config, syms: Arc<SymbolTable>) -> Self {
        Endpoint {
            app,
            state: EndpointState::new(cfg, syms),
        }
    }

    /// Binds `object` under `name` before the world starts.
    pub fn bind(&mut self, name: impl IntoName, object: Box<dyn RemoteObject>) {
        let id = name.into_name(&self.state.syms);
        self.state.objects.insert(id, object);
    }

    /// The app, for out-of-band changes between events (reach a running
    /// endpoint with [`World::actor_mut`](mage_sim::World::actor_mut)).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call_req(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        call_id: u64,
        caller_epoch: u64,
        object: NameId,
        method: NameId,
        args: Bytes,
    ) {
        let key = (from, call_id);
        let handle = ReplyHandle {
            caller: from,
            call_id,
            caller_epoch,
        };
        // At-most-once: a duplicate of an answered call re-sends the cached
        // frame without re-executing or re-encoding; a duplicate of a
        // deferred call is dropped (its eventual reply answers both).
        self.state.expire(ctx.now());
        match self.state.served.entry(key) {
            Entry::Occupied(call) => {
                if let Some((frame, label, _)) = &call.get().reply {
                    ctx.send(from, *label, frame.clone());
                }
                return;
            }
            Entry::Vacant(slot) => {
                slot.insert(ServedCall {
                    caller_epoch,
                    reply: None,
                });
            }
        }
        if ctx.trace_enabled() {
            // Invariant marker for the chaos harness: one per *execution*
            // of a call (dedup hits above re-send without re-emitting).
            ctx.note(format!(
                "invariant:exec:{}:{call_id}:{caller_epoch}",
                from.as_raw()
            ));
        }
        let (object_str, method_str) = (
            self.state.syms.resolve_lossy(object),
            self.state.syms.resolve_lossy(method),
        );
        // Dispatch cost parity with the string-shipping format: names count
        // toward request size whether or not they rode this frame. Network
        // transfer time, by contrast, deliberately reflects the real
        // (smaller) v2 frame — saving wire bytes in the steady state is the
        // point of interning, exactly as a production RPC stack would.
        let req_bytes = (args.len() + object_str.len() + method_str.len()) as u64;
        let dispatch_cost = self.state.cfg.cost.dispatch(req_bytes);
        // Local registry first (plain RMI skeletons)...
        if let Some(mut obj) = self.state.objects.remove(&object) {
            let mut oenv = ObjectEnv::new(ctx.node(), ctx.now(), ctx.rng());
            let result = obj.invoke(&method_str, &args, &mut oenv);
            let service = oenv.consumed();
            self.state.objects.insert(object, obj);
            let label = match &result {
                Ok(_) => "rsp:ok",
                Err(_) => "rsp:fault",
            };
            let frame = encode_call_rsp(
                &mut self.state.scratch,
                call_id,
                ctx.self_epoch(),
                caller_epoch,
                result.as_ref().map(|v| v.as_slice()),
            );
            self.state.cache_reply(key, frame.clone(), label, ctx.now());
            ctx.send_after(dispatch_cost + service, from, label, frame);
            return;
        }
        // ...then the app layer (e.g. MAGE system services).
        let call = InboundCall {
            object,
            method,
            object_name: object_str,
            method_name: method_str,
            args,
            handle,
        };
        let mut env = Env::new(ctx, &mut self.state, dispatch_cost);
        match self.app.on_call(&mut env, from, call) {
            CallOutcome::Reply(result) => {
                env.reply(handle, result);
            }
            CallOutcome::Deferred => {}
            CallOutcome::Unhandled => {
                env.reply(handle, Err(Fault::NotBound("<unhandled>".into())));
            }
        }
    }

    fn handle_call_rsp(
        &mut self,
        ctx: &mut Context<'_>,
        call_id: u64,
        req_epoch: u64,
        result: Result<Bytes, Fault>,
    ) {
        // A reply addressed to a previous incarnation of this node: the
        // call it answers died with that incarnation, and this
        // incarnation's call ids restart from zero — matching it against
        // `pending` would complete an unrelated call. Discard.
        if req_epoch != ctx.self_epoch() {
            ctx.count("stale_replies_dropped");
            if ctx.trace_enabled() {
                ctx.note(format!(
                    "invariant:stale-rsp-dropped:{call_id}:{req_epoch}:{}",
                    ctx.self_epoch()
                ));
            }
            return;
        }
        // Transport-level NACK: the peer never learned one of the bare
        // interned ids this request carried (its table died in a crash, or
        // the first-use carrier frame was lost). Re-send the same call —
        // same call id, the NACK is never cached — with both strings
        // attached. Once per call: a second NACK surfaces to the app.
        if let Err(Fault::UnknownName { .. }) = &result {
            if self.reship_with_names(ctx, call_id) {
                return;
            }
        }
        let Some(pending) = self.state.pending.remove(&call_id) else {
            return; // late duplicate after a retransmitted call already completed
        };
        if ctx.trace_enabled() {
            ctx.note(format!(
                "invariant:rsp-accepted:{call_id}:{req_epoch}:{}",
                ctx.self_epoch()
            ));
        }
        if pending.named && !matches!(result, Err(Fault::UnknownName { .. })) {
            // The peer has processed a request that carried the strings;
            // from now on the ids travel alone.
            self.state.ack_name(pending.to, pending.object);
            self.state.ack_name(pending.to, pending.method);
        }
        let outcome = result.map_err(RmiError::Fault);
        let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
        self.app.on_reply(&mut env, pending.token, outcome);
    }

    /// Re-encodes a pending call with both name strings attached and
    /// re-sends it (the answer to a [`Fault::UnknownName`] NACK). Returns
    /// `false` when the call is unknown or already re-shipped once — the
    /// caller then surfaces the NACK instead of looping.
    fn reship_with_names(&mut self, ctx: &mut Context<'_>, call_id: u64) -> bool {
        let Some(pending) = self.state.pending.get(&call_id) else {
            return true; // late duplicate; nothing to surface either
        };
        if pending.reshipped {
            return false;
        }
        let (to, object, method) = (pending.to, pending.object, pending.method);
        // The original args live inside the kept frame; borrow them
        // zero-copy rather than storing a second copy per call.
        let args = match WireMsg::decode(&pending.frame) {
            Ok(WireMsg::CallReq { args, .. }) => args,
            _ => return false, // not a request frame; surface the NACK
        };
        // Register the shipment so the ack machinery keeps attaching the
        // strings until a non-NACK response confirms them.
        self.state.needs_name(to, object);
        self.state.needs_name(to, method);
        let (object_str, method_str) = (
            self.state.syms.resolve_lossy(object),
            self.state.syms.resolve_lossy(method),
        );
        let frame = encode_call_req(
            &mut self.state.scratch,
            call_id,
            ctx.self_epoch(),
            object,
            Some(&object_str),
            method,
            Some(&method_str),
            &args,
        );
        let label: Label = if ctx.trace_enabled() {
            call_label(&object_str, &method_str).into()
        } else {
            "call".into()
        };
        // Resend immediately, but do NOT arm a second retransmission
        // timer: the chain started at send time is still live (each
        // firing re-arms itself) and now retransmits the updated frame —
        // a second chain would double-count attempts and exhaust the
        // retry budget at half its configured depth.
        ctx.send(to, label, frame.clone());
        let pending = self.state.pending.get_mut(&call_id).expect("checked above");
        pending.frame = frame;
        pending.named = true;
        pending.reshipped = true;
        true
    }

    fn handle_retx(&mut self, ctx: &mut Context<'_>, call_id: u64) {
        let Some(pending) = self.state.pending.get_mut(&call_id) else {
            return; // answered already
        };
        if pending.attempts <= self.state.cfg.max_retries {
            pending.attempts += 1;
            let to = pending.to;
            let frame = pending.frame.clone();
            let label: Label = if ctx.trace_enabled() {
                let object = self.state.syms.resolve_lossy(pending.object);
                let method = self.state.syms.resolve_lossy(pending.method);
                call_label(&object, &method).into()
            } else {
                "call".into()
            };
            ctx.send(to, label, frame);
            ctx.set_timer(self.state.cfg.call_timeout, RETX_FLAG | call_id);
        } else {
            // Retry budget exhausted with no response at all: the peer is
            // unreachable from here (crashed, partitioned, or silent).
            // Fail the call with a typed error instead of leaving the
            // token pending forever.
            let pending = self.state.pending.remove(&call_id).expect("checked above");
            let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
            self.app.on_reply(
                &mut env,
                pending.token,
                Err(RmiError::PeerUnreachable {
                    peer: pending.to,
                    attempts: pending.attempts,
                }),
            );
        }
    }
}

impl<A: App + 'static> Actor for Endpoint<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
        self.app.on_start(&mut env);
    }

    fn on_driver(&mut self, ctx: &mut Context<'_>, payload: Box<dyn Any>) {
        let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
        self.app.on_driver(&mut env, payload);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let msg = match WireMsg::decode(&payload) {
            Ok(msg) => msg,
            Err(err) => {
                ctx.note(format!("dropping malformed message: {err}"));
                return;
            }
        };
        // Message-driven restart detection: the frame states its sender's
        // incarnation. First contact with a fresh incarnation purges every
        // per-peer table, then the app repairs its own state (lock queues,
        // registry entries) before the message dispatches. The simulator's
        // epoch oracle survives only as a ground-truth cross-check.
        let sender_epoch = msg.sender_epoch();
        debug_assert_eq!(
            sender_epoch,
            ctx.node_epoch(from),
            "wire-carried epoch must agree with the simulator oracle for a delivered frame"
        );
        if self.state.note_peer_epoch(from, sender_epoch) {
            let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
            self.app.on_peer_restart(&mut env, from);
        }
        match msg {
            WireMsg::CallReq {
                call_id,
                sender_epoch,
                object,
                method,
                args,
            } => {
                let object_wire = object.id.as_raw();
                let method_wire = method.id.as_raw();
                let object = self
                    .state
                    .translate(from, object_wire, object.name.as_deref());
                let method = self
                    .state
                    .translate(from, method_wire, method.name.as_deref());
                let (Some(object), Some(method)) = (object, method) else {
                    // A bare id we never learned: the first-use carrier
                    // frame was lost, or this endpoint restarted and its
                    // learned table died. NACK with the offending wire id
                    // (never cached — it is not an execution outcome); the
                    // caller re-sends with the strings attached.
                    let unknown = if object.is_none() {
                        object_wire
                    } else {
                        method_wire
                    };
                    let fault = Fault::UnknownName { id: unknown };
                    let frame = encode_call_rsp(
                        &mut self.state.scratch,
                        call_id,
                        ctx.self_epoch(),
                        sender_epoch,
                        Err(&fault),
                    );
                    ctx.send(from, "rsp:unknown-name", frame);
                    return;
                };
                self.handle_call_req(ctx, from, call_id, sender_epoch, object, method, args);
            }
            WireMsg::CallRsp {
                call_id,
                req_epoch,
                result,
                ..
            } => {
                self.handle_call_rsp(ctx, call_id, req_epoch, result);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag & RETX_FLAG != 0 {
            self.handle_retx(ctx, tag & !RETX_FLAG);
        } else {
            let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
            self.app.on_timer(&mut env, tag);
        }
    }
}

impl<A> std::fmt::Debug for Endpoint<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("bound_objects", &self.state.objects.len())
            .field("pending_calls", &self.state.pending.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> EndpointState {
        EndpointState::new(Config::default(), SymbolTable::shared())
    }

    fn key(node: u32, call: u64) -> (NodeId, u64) {
        (NodeId::from_raw(node), call)
    }

    fn frame(tag: u8) -> Bytes {
        Bytes::from(vec![tag])
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    fn cache(st: &mut EndpointState, key: (NodeId, u64), epoch: u64, now: SimTime) {
        defer(st, key, epoch);
        st.cache_reply(key, frame(key.1 as u8), "rsp:ok", now);
    }

    fn defer(st: &mut EndpointState, key: (NodeId, u64), epoch: u64) {
        let deferred = ServedCall {
            caller_epoch: epoch,
            reply: None,
        };
        st.served.insert(key, deferred);
    }

    /// The table's bound: once virtual time passes a reply's horizon and
    /// the table is touched again, no reply older than the horizon is
    /// left, and every younger one still answers its duplicates.
    #[test]
    fn no_reply_outlives_its_horizon() {
        let mut st = state();
        let horizon = st.cfg.retry_horizon();
        // Four sends 200 ms apart, plus one timeout for the last's flight.
        assert_eq!(horizon, SimDuration::from_millis(1000));
        for call in 0..100u64 {
            cache(&mut st, key(1, call), 0, at_ms(call * 10));
        }
        defer(&mut st, key(2, 0), 0);
        assert_eq!(st.served.len(), 101, "nothing is due yet");
        let now = at_ms(1500);
        st.expire(now);
        for (k, call) in &st.served {
            if let Some((_, _, expires)) = call.reply {
                assert!(expires > now, "{k:?} outlived its horizon");
            }
        }
        // Replies cached after 500 ms are younger than the horizon.
        assert_eq!(st.served.len(), 49 + 1);
        assert!(st.served.contains_key(&key(1, 51)));
        assert!(!st.served.contains_key(&key(1, 50)));
        assert!(
            st.served.contains_key(&key(2, 0)),
            "deferred calls never expire"
        );
        // Touching the table far in the future leaves only the deferred call.
        cache(&mut st, key(3, 0), 0, at_ms(990) + horizon);
        assert_eq!(st.served.len(), 2);
        assert_eq!(st.expiry.len(), 1);
    }

    /// After an epoch purge a fresh incarnation reuses call ids from zero.
    /// Its reply to a reused key lives for its own full horizon, although
    /// the dead incarnation's expiry slot for the same key comes due first.
    #[test]
    fn a_reused_key_keeps_its_reply_for_its_own_horizon() {
        let mut st = state();
        let horizon = st.cfg.retry_horizon();
        let peer = NodeId::from_raw(1);
        assert!(!st.note_peer_epoch(peer, 0));
        cache(&mut st, (peer, 0), 0, at_ms(0));
        assert!(st.note_peer_epoch(peer, 1), "restart detected");
        assert!(st.served.is_empty(), "the dead incarnation's reply is gone");
        cache(&mut st, (peer, 0), 1, at_ms(400));
        // The dead slot is due; the live reply is not.
        st.expire(at_ms(0) + horizon);
        assert_eq!(st.served[&(peer, 0)].caller_epoch, 1);
        st.expire(at_ms(1399));
        assert!(st.served.contains_key(&(peer, 0)), "alive to its horizon");
        st.expire(at_ms(400) + horizon);
        assert!(st.served.is_empty());
        assert!(st.expiry.is_empty());
    }

    /// Slots orphaned by either purge never remove a live entry — neither
    /// a deferred call nor a reply — that later took the same key.
    #[test]
    fn slots_orphaned_by_a_purge_never_remove_a_live_entry() {
        let mut st = state();
        let horizon = st.cfg.retry_horizon();
        let (a, b) = (NodeId::from_raw(1), NodeId::from_raw(2));
        // Entries installed before either peer's epoch is known.
        cache(&mut st, (a, 0), 0, at_ms(0));
        cache(&mut st, (b, 0), 0, at_ms(0));
        st.purge_peer(a);
        assert!(!st.note_peer_epoch(b, 1), "first sighting purges epoch 0");
        assert!(st.served.is_empty());
        assert_eq!(st.expiry.len(), 2, "purges leave their slots behind");
        defer(&mut st, (a, 0), 1);
        cache(&mut st, (b, 0), 1, at_ms(1));
        st.expire(at_ms(0) + horizon);
        assert_eq!(st.expiry.len(), 1, "both orphaned slots popped");
        assert!(st.served[&(a, 0)].reply.is_none(), "deferred call kept");
        assert!(st.served[&(b, 0)].reply.is_some(), "live reply kept");
    }

    /// A peer-epoch change must invalidate every per-peer table: symbol
    /// acks (strings ship again), priming, learned translations and the
    /// peer's served calls, deferred or answered — and only for that peer.
    #[test]
    fn epoch_change_purges_all_per_peer_state() {
        let mut st = state();
        let peer = NodeId::from_raw(1);
        let other = NodeId::from_raw(2);
        let name = st.syms.intern("geoData");
        for node in [peer, other] {
            assert!(st.needs_name(node, name), "first use ships the string");
            st.ack_name(node, name);
            assert!(!st.needs_name(node, name), "acked ids travel alone");
            st.primed.insert(node);
            st.learned.insert((node, 7), name);
            cache(&mut st, (node, 1), 0, SimTime::ZERO);
            defer(&mut st, (node, 2), 0);
        }
        assert!(!st.note_peer_epoch(peer, 0), "first sighting records only");
        assert!(st.note_peer_epoch(peer, 1), "epoch bump detected");
        assert!(
            st.needs_name(peer, name),
            "restarted peer must be re-sent the string"
        );
        assert!(!st.primed.contains(&peer));
        assert!(!st.learned.contains_key(&(peer, 7)));
        assert!(!st.served.contains_key(&(peer, 1)));
        assert!(!st.served.contains_key(&(peer, 2)));
        // The other peer's state is untouched.
        assert!(!st.needs_name(other, name));
        assert!(st.primed.contains(&other));
        assert!(st.learned.contains_key(&(other, 7)));
        assert!(st.served.contains_key(&(other, 1)));
        assert!(st.served.contains_key(&(other, 2)));
    }

    /// The first-contact-after-restart edge: call-table entries can exist
    /// for a peer that was never recorded in `peer_epochs`. The first
    /// sighting of that peer's epoch must still drop every entry stamped
    /// with a *different* caller epoch — they belong to a dead incarnation
    /// and must neither answer nor block the fresh incarnation's calls.
    #[test]
    fn first_sighting_purges_entries_with_stale_caller_epochs() {
        let mut st = state();
        let peer = NodeId::from_raw(3);
        // Entries from epoch 0 and epoch 2, installed without the peer
        // ever being noted in `peer_epochs`.
        cache(&mut st, (peer, 1), 0, SimTime::ZERO);
        cache(&mut st, (peer, 2), 2, SimTime::ZERO);
        defer(&mut st, (peer, 3), 0);
        defer(&mut st, (peer, 4), 2);
        assert!(!st.peer_epochs.contains_key(&peer), "precondition");
        // First sighting at epoch 2: stale-epoch entries go, current stay.
        assert!(
            !st.note_peer_epoch(peer, 2),
            "first sighting is not a restart"
        );
        assert!(!st.served.contains_key(&(peer, 1)));
        assert!(st.served.contains_key(&(peer, 2)));
        assert!(!st.served.contains_key(&(peer, 3)));
        assert!(st.served.contains_key(&(peer, 4)));
    }
}
