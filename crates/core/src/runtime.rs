#![warn(clippy::too_many_lines)]
//! The experiment facade over a simulated MAGE deployment.
//!
//! [`Runtime`] owns a [`World`] of MAGE nodes plus the world-wide
//! deployment directory, and hands out per-namespace [`Session`] handles.
//! A session carries client identity and the per-client caches; the
//! runtime keeps only what is genuinely shared — the class table, the
//! namespace directory, origin-server knowledge ("clients share the name
//! of the mobile object's origin server", §7) and admin controls. Every
//! session operation advances virtual time deterministically, so
//! `rt.now()` deltas are the measurements the benchmark harness reports.
//!
//! Admin is out-of-band, like installing a jar on a host: deployment,
//! trust, quotas and registry seeding change the hosted [`MageNode`] in
//! place, as [`Runtime::crash`] and [`Runtime::partition_between`]
//! change the world. No message is sent and no virtual time passes; a
//! namespace that is down is [`MageError::Unreachable`].
//!
//! ```
//! use mage_core::attribute::Rev;
//! use mage_core::workload_support::{methods, test_object_class};
//! use mage_core::{ObjectSpec, Runtime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = Runtime::builder()
//!     .nodes(["lab", "sensor1"])
//!     .class(test_object_class())
//!     .build();
//! rt.deploy_class("TestObject", "lab")?;
//!
//! // Two independent sessions interleave against one world.
//! let lab = rt.session("lab")?;
//! let sensor = rt.session("sensor1")?;
//! lab.create(ObjectSpec::new("counter").class("TestObject"))?;
//!
//! let a = lab.bind_async(&Rev::new("TestObject", "counter", "sensor1"))?;
//! let stub = a.wait()?;
//! let n = sensor.call(&stub, methods::GET, &());
//! # let _ = n;
//! # Ok(())
//! # }
//! ```

use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use mage_rmi::{Config as RmiConfig, Endpoint, NameId, SymbolTable};
use mage_sim::{LinkSpec, Network, NodeId, OpId, SimDuration, SimTime, World};
use serde::Serialize;

use crate::admission::Quotas;
use crate::class::ClassDef;
use crate::component::Visibility;
use crate::error::MageError;
use crate::node::{MageNode, NodeConfig, ProtoIds};
use crate::proto::OpCell;
use crate::registry::{CompKey, IncarnationMinter, Located};
use crate::security::TrustPolicy;
use crate::session::Session;

/// World-wide deployment knowledge shared by every session: where classes
/// and objects originate, their visibility, and published load figures.
/// Keyed by interned component keys / name ids — no string lookups on the
/// session hot path.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    /// Origin server of each object or class component.
    pub homes: BTreeMap<CompKey, NodeId>,
    /// Declared visibility of each object (by interned name).
    pub visibility: BTreeMap<NameId, Visibility>,
    /// Fixed backup home of each replicated object (durability policy) —
    /// shared deployment knowledge, like `homes`: the engine consults it
    /// when a crash-shaped failure would otherwise surface.
    pub backups: BTreeMap<CompKey, NodeId>,
    /// Synthetic per-node load figures (read by custom attributes).
    pub loads: BTreeMap<NodeId, f64>,
}

/// The mutable heart of a deployment, shared between the runtime and its
/// sessions through `Rc<RefCell<_>>` (the simulation is single-threaded
/// and deterministic; interleaving is decided by who pumps the world).
pub(crate) struct Inner {
    pub world: World,
    pub ids: BTreeMap<String, NodeId>,
    pub dir: Directory,
    /// The world-wide symbol table shared with every node and endpoint.
    pub syms: Arc<SymbolTable>,
    /// Encoding buffer for call arguments (see [`Inner::marshal`]).
    scratch: Vec<u8>,
}

impl Inner {
    pub fn node_id(&self, name: &str) -> Result<NodeId, MageError> {
        self.ids
            .get(name)
            .copied()
            .ok_or_else(|| MageError::BadPlan(format!("unknown namespace {name:?}")))
    }

    /// Marshals call arguments into the shared buffer an invocation plan
    /// carries to its node: one allocation for the buffer, none for an
    /// empty argument list.
    pub fn marshal<A: Serialize + ?Sized>(&mut self, args: &A) -> Result<Bytes, MageError> {
        self.scratch.clear();
        mage_codec::to_bytes_in(args, &mut self.scratch)?;
        Ok(if self.scratch.is_empty() {
            Bytes::new()
        } else {
            Bytes::copy_from_slice(&self.scratch)
        })
    }

    /// Runs the world until `op` completes and takes its cell, which
    /// holds the result.
    pub fn wait(&mut self, op: OpId) -> Result<Box<OpCell>, MageError> {
        Ok(self.world.block_on_boxed::<OpCell>(op)?)
    }

    /// The MAGE runtime hosted at `node`, for out-of-band admin: changing
    /// it delivers no message and advances no virtual time.
    pub fn node_mut(&mut self, node: NodeId) -> Result<&mut MageNode, MageError> {
        self.world
            .actor_mut::<Endpoint<MageNode>>(node)
            .map(Endpoint::app_mut)
            .ok_or(MageError::Unreachable {
                peer: node.as_raw(),
            })
    }
}

/// Builder for a [`Runtime`].
pub struct RuntimeBuilder {
    seed: u64,
    link: LinkSpec,
    rmi: RmiConfig,
    node: NodeConfig,
    nodes: Vec<String>,
    classes: BTreeMap<String, ClassDef>,
    trace: bool,
}

impl RuntimeBuilder {
    /// Sets the deterministic seed (default `2001`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the default link between every pair of namespaces
    /// (default: the paper's 10 Mb/s Ethernet).
    #[must_use]
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Sets the RMI endpoint configuration (cost model, timeouts).
    #[must_use]
    pub fn rmi_config(mut self, cfg: RmiConfig) -> Self {
        self.rmi = cfg;
        self
    }

    /// Sets per-node MAGE configuration.
    #[must_use]
    pub fn node_config(mut self, cfg: NodeConfig) -> Self {
        self.node = cfg;
        self
    }

    /// Zero-cost, zero-latency preset for semantics-focused tests.
    #[must_use]
    pub fn fast(mut self) -> Self {
        self.link = LinkSpec::ideal();
        self.rmi = RmiConfig::zero_cost();
        self.node.bind_overhead = SimDuration::ZERO;
        self.node.invoke_overhead = SimDuration::ZERO;
        self.node.reify_cost = SimDuration::ZERO;
        self
    }

    /// Adds namespaces by display name, in id order.
    #[must_use]
    pub fn nodes<I>(mut self, names: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        self.nodes.extend(names.into_iter().map(Into::into));
        self
    }

    /// Adds one namespace.
    #[must_use]
    pub fn node(mut self, name: impl Into<String>) -> Self {
        self.nodes.push(name.into());
        self
    }

    /// Registers a class in the world-wide catalogue, replacing any earlier
    /// definition of the same name (deployment to a namespace is separate;
    /// see [`Runtime::deploy_class`]).
    #[must_use]
    pub fn class(mut self, def: ClassDef) -> Self {
        self.classes.insert(def.name().to_owned(), def);
        self
    }

    /// Enables protocol tracing from the start.
    #[must_use]
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Builds the runtime.
    ///
    /// # Panics
    ///
    /// Panics if no namespaces were added or if two share a name.
    pub fn build(self) -> Runtime {
        assert!(
            !self.nodes.is_empty(),
            "a runtime needs at least one namespace"
        );
        let syms = SymbolTable::shared();
        // The service's names take the first ids, as every node interns
        // them; the classes follow in name order, each interned once.
        ProtoIds::new(&syms);
        let classes: Arc<BTreeMap<NameId, ClassDef>> = Arc::new(
            self.classes
                .into_values()
                .map(|def| (syms.intern(def.name()), def))
                .collect(),
        );
        // World-shared identity mint: incarnation ids are unique across
        // the deployment, so re-creations never collide with originals.
        let minter = IncarnationMinter::shared();
        let mut world = World::with_network(self.seed, Network::new(self.link));
        if self.trace {
            world.set_trace_mode(mage_sim::TraceMode::Full);
        }
        let mut ids = BTreeMap::new();
        for (i, name) in self.nodes.iter().enumerate() {
            assert!(
                ids.insert(name.clone(), NodeId::from_raw(i as u32))
                    .is_none(),
                "duplicate namespace name {name:?}"
            );
        }
        for name in &self.nodes {
            // Nodes are added through a factory so the world can restart
            // them after a crash with a fresh (empty) runtime — crash-stop
            // semantics: hosted objects, cached classes, registry entries
            // and lock state do not survive.
            let node_name = name.clone();
            let node_classes = Arc::clone(&classes);
            let node_ids = ids.clone();
            let node_cfg = self.node;
            let rmi_cfg = self.rmi;
            let node_syms = Arc::clone(&syms);
            let node_minter = Arc::clone(&minter);
            let id = world.add_node_with(name.clone(), move || {
                Box::new(Endpoint::with_symbols(
                    MageNode::new(
                        node_name.clone(),
                        Arc::clone(&node_classes),
                        node_ids.clone(),
                        node_cfg,
                        Arc::clone(&node_syms),
                        Arc::clone(&node_minter),
                    ),
                    rmi_cfg,
                    Arc::clone(&node_syms),
                ))
            });
            debug_assert_eq!(Some(id), ids.get(name).copied());
        }
        // Reverse index for O(1) `node_name`; node ids are dense and
        // assigned in insertion order.
        let names = Arc::new(self.nodes);
        Runtime {
            inner: Rc::new(RefCell::new(Inner {
                world,
                ids,
                dir: Directory::default(),
                syms,
                scratch: Vec::new(),
            })),
            names,
        }
    }
}

/// A running MAGE deployment.
///
/// Client operations live on [`Session`] handles obtained from
/// [`Runtime::session`]; the runtime itself exposes the shared world:
/// deployment, time, trace, network control and admin policies.
pub struct Runtime {
    inner: Rc<RefCell<Inner>>,
    names: Arc<Vec<String>>,
}

impl Runtime {
    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder {
            seed: 2001,
            link: LinkSpec::ethernet_10mbps(),
            rmi: RmiConfig::default(),
            node: NodeConfig::default(),
            nodes: Vec::new(),
            classes: BTreeMap::new(),
            trace: false,
        }
    }

    /// Opens a client session bound to namespace `name`.
    ///
    /// Sessions are cheap; each carries its own §3.5 location cache, so
    /// two sessions interleave operations against one world without
    /// sharing client state.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::BadPlan`] for unknown names.
    pub fn session(&self, name: &str) -> Result<Session, MageError> {
        let client = self.node_id(name)?;
        Ok(Session::new(
            name.to_owned(),
            client,
            Rc::clone(&self.inner),
        ))
    }

    /// Resolves a namespace display name.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::BadPlan`] for unknown names.
    pub fn node_id(&self, name: &str) -> Result<NodeId, MageError> {
        self.inner.borrow().node_id(name)
    }

    /// The display name of a node (O(1) via the reverse index).
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.names.get(id.as_raw() as usize).map(String::as_str)
    }

    // ---- deployment (out-of-band admin) ----

    /// Makes `class` available in namespace `node` (out-of-band, like
    /// installing a jar on a host).
    ///
    /// # Errors
    ///
    /// Fails if the namespace or class is unknown, and with
    /// [`MageError::Unreachable`] while the namespace is down.
    pub fn deploy_class(&mut self, class: &str, node: &str) -> Result<(), MageError> {
        let id = self.node_id(node)?;
        let unavailable = || MageError::ClassUnavailable(class.to_owned());
        let mut inner = self.inner.borrow_mut();
        // Every defined class was interned at build time: an unknown name
        // is not a class, and is not interned here either.
        let key = CompKey::class(inner.syms.lookup(class).ok_or_else(unavailable)?);
        let mage = inner.node_mut(id)?;
        if !mage.defs.contains_key(&key.id) {
            return Err(unavailable());
        }
        mage.classes.insert(key.id);
        mage.registry.update(key, Located::untracked(id));
        inner.dir.homes.insert(key, id);
        Ok(())
    }

    // ---- policies (§7 extensions) ----

    /// Publishes a synthetic load figure for a namespace (read by custom
    /// attributes through
    /// [`BindView::load`](crate::attribute::BindView::load)).
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names.
    pub fn set_load(&mut self, node: &str, load: f64) -> Result<(), MageError> {
        let id = self.node_id(node)?;
        self.inner.borrow_mut().dir.loads.insert(id, load);
        Ok(())
    }

    /// Restricts which peers may push components into `node`
    /// (`None` restores trust-all).
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names, and with
    /// [`MageError::Unreachable`] while the namespace is down.
    pub fn set_trust(&mut self, node: &str, allow: Option<&[&str]>) -> Result<(), MageError> {
        let id = self.node_id(node)?;
        let trust = match allow {
            None => TrustPolicy::TrustAll,
            Some(names) => TrustPolicy::AllowList(
                names
                    .iter()
                    .map(|name| self.node_id(name))
                    .collect::<Result<_, _>>()?,
            ),
        };
        self.inner.borrow_mut().node_mut(id)?.trust = trust;
        Ok(())
    }

    /// Sets admission quotas for `node`.
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names, and with
    /// [`MageError::Unreachable`] while the namespace is down.
    pub fn set_quota(
        &mut self,
        node: &str,
        max_objects: Option<u64>,
        max_classes: Option<u64>,
    ) -> Result<(), MageError> {
        let id = self.node_id(node)?;
        self.inner.borrow_mut().node_mut(id)?.quotas = Quotas {
            max_objects,
            max_classes,
        };
        Ok(())
    }

    /// Permits or refuses replication of classes with static fields at
    /// `node` (§4.2).
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names, and with
    /// [`MageError::Unreachable`] while the namespace is down.
    pub fn allow_static_classes(&mut self, node: &str, allow: bool) -> Result<(), MageError> {
        let id = self.node_id(node)?;
        self.inner.borrow_mut().node_mut(id)?.allow_static_classes = allow;
        Ok(())
    }

    // ---- fault injection (crash-stop) ----

    /// Crashes namespace `node`: its hosted objects, cached classes,
    /// registry entries and lock state are lost, in-flight messages to or
    /// from it are dropped, and its epoch is bumped so peers can tell the
    /// next incarnation apart. Returns `false` if it was already down.
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names.
    pub fn crash(&mut self, node: &str) -> Result<bool, MageError> {
        let id = self.node_id(node)?;
        Ok(self.inner.borrow_mut().world.crash(id))
    }

    /// Restarts a crashed namespace with a fresh, empty MAGE runtime (the
    /// crash-stop model: no state survives). Returns `false` if the node
    /// was not down.
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names.
    pub fn restart(&mut self, node: &str) -> Result<bool, MageError> {
        let id = self.node_id(node)?;
        Ok(self.inner.borrow_mut().world.restart(id))
    }

    /// Whether namespace `node` is currently running.
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names.
    pub fn is_up(&self, node: &str) -> Result<bool, MageError> {
        let id = self.node_id(node)?;
        Ok(self.inner.borrow().world.is_up(id))
    }

    /// Severs the links between two namespaces in both directions.
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names.
    pub fn partition_between(&mut self, a: &str, b: &str) -> Result<(), MageError> {
        let (a, b) = (self.node_id(a)?, self.node_id(b)?);
        self.inner.borrow_mut().world.partition(a, b);
        Ok(())
    }

    /// Heals a partition between two namespaces.
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names.
    pub fn heal_between(&mut self, a: &str, b: &str) -> Result<(), MageError> {
        let (a, b) = (self.node_id(a)?, self.node_id(b)?);
        self.inner.borrow_mut().world.heal(a, b);
        Ok(())
    }

    /// Fault-injection hook: overwrites `node`'s registry entry for
    /// `component` (`"class:"` prefix for classes) to point at `at`, so
    /// tests can construct pathological forwarding chains — stale
    /// self-pointers and cycles — deliberately. The entry carries no
    /// identity knowledge.
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names, and with
    /// [`MageError::Unreachable`] while the namespace is down.
    pub fn seed_registry_entry(
        &mut self,
        node: &str,
        component: &str,
        at: &str,
    ) -> Result<(), MageError> {
        let id = self.node_id(node)?;
        let at = Located::untracked(self.node_id(at)?);
        let mut inner = self.inner.borrow_mut();
        let key = CompKey::parse(&inner.syms, component);
        inner.node_mut(id)?.registry.update(key, at);
        Ok(())
    }

    // ---- world access ----

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().world.now()
    }

    /// Processes a single simulation event, if any is due.
    ///
    /// Returns `false` when the world is idle. This is the finest-grained
    /// way to drive a batch of in-flight [`Pending`](crate::Pending)
    /// operations and observe their interleaving.
    pub fn step(&mut self) -> bool {
        self.inner.borrow_mut().world.step()
    }

    /// Advances virtual time, letting autonomous activity (agent hops,
    /// queued lock grants) run.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn advance(&mut self, d: SimDuration) -> Result<(), MageError> {
        self.inner
            .borrow_mut()
            .world
            .advance(d)
            .map_err(MageError::from)
    }

    /// Runs until no events remain (all in-flight operations complete).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run_until_idle(&mut self) -> Result<(), MageError> {
        self.inner
            .borrow_mut()
            .world
            .run_until_idle()
            .map_err(MageError::from)
    }

    /// The underlying world (metrics, trace, network control).
    ///
    /// Returns a guard; hold it in a binding before borrowing through it
    /// (`let world = rt.world(); world.trace().events()`).
    pub fn world(&self) -> Ref<'_, World> {
        Ref::map(self.inner.borrow(), |inner| &inner.world)
    }

    /// Mutable access to the underlying world.
    pub fn world_mut(&mut self) -> RefMut<'_, World> {
        RefMut::map(self.inner.borrow_mut(), |inner| &mut inner.world)
    }

    /// Renders the recorded protocol trace as a numbered message sequence.
    pub fn trace_rendered(&self) -> String {
        let inner = self.inner.borrow();
        mage_sim::render_message_sequence(inner.world.trace(), &inner.world.node_names())
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("namespaces", &self.names.len())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}
