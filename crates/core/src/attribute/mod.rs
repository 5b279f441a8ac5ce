//! Mobility attributes (§3): first-class objects that bind to components
//! and decide whether and where the component moves before it executes.
//!
//! An attribute's [`plan`](MobilityAttribute::plan) is consulted at bind
//! time with a [`BindView`] of the system (the component's current
//! location, namespace directory, per-node load) and produces a
//! [`BindPlan`]: a computation target plus a placement mode. The runtime
//! classifies the component's situation, applies mobility coercion
//! (Table 2) and executes the resulting protocol.
//!
//! The paper's Figure 5 hierarchy is here one rule table plus
//! [`PolicyAttribute`]. The seven built-in models — [`Lpc`], [`Rpc`],
//! [`Cod`], [`Rev`], [`Grev`], [`MobileAgent`] and [`Cle`] — are
//! constructors of one [`Builtin`] attribute, a model plus a few fields
//! (fixed target, factory mode, guard flag). One planner derives every
//! built-in plan from the model's Table 1 triple
//! ([`ModelKind::design_triple`]) and those fields. [`PolicyAttribute`]
//! wraps user-defined policies like the paper's `CombinedMA` (§3.6) or the
//! load-threshold example (§3.1). [`catalog`] still lists Figure 5's
//! classes.
//!
//! # Mobility vs. durability policies
//!
//! Mobility attributes are **per-bind placement policy**: consulted every
//! time a client binds, deciding where *this* computation runs and
//! whether the component moves first. They own no object state and any
//! number of them can bind the same component over its lifetime.
//!
//! [`Durability`](crate::Durability) is **per-object lifecycle policy**:
//! declared once at creation through an
//! [`ObjectSpec`](crate::ObjectSpec), attached to the object itself, and
//! enforced by whichever node currently hosts it — a
//! [`Durability::Replicated`](crate::Durability::Replicated) object
//! checkpoints a snapshot to its fixed backup home at creation and after
//! every move and completed invocation, and a crash of its host is
//! repaired by restoring from that snapshot under a fresh incarnation.
//! The two compose: mobility decides where the object *is*, durability
//! decides what survives when that place dies. Both generalise the same
//! idea — policy as a first-class object handed to the runtime, not code
//! scattered through call sites.

mod builtin;

pub use builtin::{Builtin, Cle, Cod, Grev, Lpc, MobileAgent, PolicyAttribute, Rev, Rpc};

use std::collections::BTreeMap;

use mage_sim::{NodeId, SimTime};

use crate::component::{Component, ModelKind, Visibility};
use crate::error::MageError;

/// The computation target chosen by a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// The invoking namespace (COD, LPC).
    Client,
    /// A named namespace (REV, RPC, MA, GREV).
    Node(String),
    /// Wherever the component currently resides (CLE).
    Current,
}

/// How the component is placed at the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Move the existing object (REV/COD "applied to objects", GREV, MA).
    Move,
    /// Instantiate a fresh object from the class at the target
    /// (traditional REV/COD factory semantics, §4.2).
    Factory {
        /// Constructor state for the new instance.
        state: Vec<u8>,
        /// Visibility of the new instance.
        visibility: Visibility,
    },
    /// Do not place anything; the component must already be usable at the
    /// target (RPC, LPC, CLE).
    Stationary,
}

/// A mobility attribute's decision for one bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindPlan {
    /// Where the computation should happen.
    pub target: Target,
    /// How the component gets there.
    pub mode: Mode,
    /// Bracket the operation with a stay/move lock (§4.4).
    pub guard: bool,
}

impl BindPlan {
    /// A plan that moves the object to a named namespace.
    pub fn move_to(node: impl Into<String>) -> Self {
        BindPlan {
            target: Target::Node(node.into()),
            mode: Mode::Move,
            guard: false,
        }
    }

    /// A plan that invokes wherever the object currently is.
    pub fn stay() -> Self {
        BindPlan {
            target: Target::Current,
            mode: Mode::Stationary,
            guard: false,
        }
    }

    /// Returns the plan with locking enabled.
    pub fn guarded(mut self) -> Self {
        self.guard = true;
        self
    }
}

/// A read-only snapshot of the system handed to an attribute's
/// [`plan`](MobilityAttribute::plan): "the application can apply its
/// detailed knowledge of how best to use and acquire the resources it
/// needs, given its state and the current state of the network" (§3.1).
#[derive(Debug)]
pub struct BindView<'a> {
    client: NodeId,
    location: Option<NodeId>,
    names: &'a BTreeMap<String, NodeId>,
    loads: &'a BTreeMap<NodeId, f64>,
    now: SimTime,
}

impl<'a> BindView<'a> {
    pub(crate) fn new(
        client: NodeId,
        location: Option<NodeId>,
        names: &'a BTreeMap<String, NodeId>,
        loads: &'a BTreeMap<NodeId, f64>,
        now: SimTime,
    ) -> Self {
        BindView {
            client,
            location,
            names,
            loads,
            now,
        }
    }

    /// The invoking namespace.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// The component's current location, if it exists yet.
    pub fn location(&self) -> Option<NodeId> {
        self.location
    }

    /// Resolves a namespace display name to its node id.
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The display name of a node id, if known.
    pub fn name_of(&self, node: NodeId) -> Option<&str> {
        self.names
            .iter()
            .find(|(_, id)| **id == node)
            .map(|(name, _)| name.as_str())
    }

    /// The advertised load of a namespace (workloads publish these through
    /// [`Runtime::set_load`](crate::Runtime::set_load); unknown nodes read
    /// as `0.0`).
    pub fn load(&self, node: NodeId) -> f64 {
        self.loads.get(&node).copied().unwrap_or(0.0)
    }

    /// The advertised load of a namespace by display name.
    pub fn load_by_name(&self, name: &str) -> f64 {
        self.resolve(name).map_or(0.0, |n| self.load(n))
    }

    /// All namespaces, in name order.
    pub fn namespaces(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.names.iter().map(|(n, id)| (n.as_str(), *id))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// A mobility attribute: the paper's core abstraction.
///
/// A built-in plan is a function of its rule and the view, except that a
/// single-use factory remembers whether it has instantiated; a user policy
/// may keep its own interior state. Hence `plan(&self)` with interior
/// mutability rather than `&mut self`.
pub trait MobilityAttribute {
    /// The programming model this attribute encodes, used for mobility
    /// coercion (Table 2).
    fn model(&self) -> ModelKind;

    /// The component this attribute is bound to.
    fn component(&self) -> &Component;

    /// Decides the computation target and placement for this bind.
    ///
    /// # Errors
    ///
    /// Returns a [`MageError`] when no valid plan exists (e.g. a custom
    /// policy finds no acceptable namespace).
    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError>;

    /// Whether invocations through this attribute are asynchronous
    /// (mobile agents: the result stays at the remote host).
    fn one_way(&self) -> bool {
        false
    }

    /// Whether [`plan`](MobilityAttribute::plan) ignores the view's
    /// location, so that the node hosting the object can apply Table 2 to
    /// it where it finds it. A session sends such a bind, when it is
    /// unguarded and no factory, as one request along the registry chain
    /// instead of finding the object first. The default, `false`, keeps
    /// find-then-plan, which a policy that reads the location, loads or
    /// clock at the client needs.
    fn plan_ignores_location(&self) -> bool {
        false
    }
}

/// One row of the attribute class hierarchy (Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Class name as it appears in the hierarchy.
    pub name: &'static str,
    /// Parent class in the hierarchy.
    pub parent: &'static str,
    /// The model the class encodes, if concrete.
    pub model: Option<ModelKind>,
}

/// The mobility-attribute class hierarchy of Figure 5.
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "MobilityAttribute",
            parent: "",
            model: None,
        },
        CatalogEntry {
            name: "LPC",
            parent: "MobilityAttribute",
            model: Some(ModelKind::Lpc),
        },
        CatalogEntry {
            name: "RPC",
            parent: "MobilityAttribute",
            model: Some(ModelKind::Rpc),
        },
        CatalogEntry {
            name: "COD",
            parent: "MobilityAttribute",
            model: Some(ModelKind::Cod),
        },
        CatalogEntry {
            name: "REV",
            parent: "MobilityAttribute",
            model: Some(ModelKind::Rev),
        },
        CatalogEntry {
            name: "GREV",
            parent: "REV",
            model: Some(ModelKind::Grev),
        },
        CatalogEntry {
            name: "MAgent",
            parent: "MobilityAttribute",
            model: Some(ModelKind::MobileAgent),
        },
        CatalogEntry {
            name: "CLE",
            parent: "MobilityAttribute",
            model: Some(ModelKind::Cle),
        },
        CatalogEntry {
            name: "<user-defined>",
            parent: "MobilityAttribute",
            model: Some(ModelKind::Custom),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_rooted_and_complete() {
        let entries = catalog();
        assert_eq!(entries[0].name, "MobilityAttribute");
        assert!(entries[0].parent.is_empty());
        // Every concrete Table 1 model appears in the hierarchy.
        for model in ModelKind::TABLE_1 {
            assert!(
                entries.iter().any(|e| e.model == Some(model)),
                "{model} missing from hierarchy"
            );
        }
        // GREV subclasses REV, as §3.3 presents it as REV's generalization.
        let grev = entries.iter().find(|e| e.name == "GREV").unwrap();
        assert_eq!(grev.parent, "REV");
    }

    #[test]
    fn bind_view_accessors() {
        let mut names = BTreeMap::new();
        names.insert("lab".to_owned(), NodeId::from_raw(0));
        names.insert("sensor1".to_owned(), NodeId::from_raw(1));
        let mut loads = BTreeMap::new();
        loads.insert(NodeId::from_raw(1), 0.75);
        let view = BindView::new(
            NodeId::from_raw(0),
            Some(NodeId::from_raw(1)),
            &names,
            &loads,
            SimTime::ZERO,
        );
        assert_eq!(view.client(), NodeId::from_raw(0));
        assert_eq!(view.location(), Some(NodeId::from_raw(1)));
        assert_eq!(view.resolve("sensor1"), Some(NodeId::from_raw(1)));
        assert_eq!(view.resolve("nope"), None);
        assert_eq!(view.name_of(NodeId::from_raw(1)), Some("sensor1"));
        assert_eq!(view.load(NodeId::from_raw(1)), 0.75);
        assert_eq!(view.load(NodeId::from_raw(0)), 0.0);
        assert_eq!(view.load_by_name("sensor1"), 0.75);
        assert_eq!(view.namespaces().count(), 2);
    }

    #[test]
    fn plan_builders() {
        let plan = BindPlan::move_to("sensor1").guarded();
        assert_eq!(plan.target, Target::Node("sensor1".into()));
        assert_eq!(plan.mode, Mode::Move);
        assert!(plan.guard);
        let stay = BindPlan::stay();
        assert_eq!(stay.target, Target::Current);
        assert_eq!(stay.mode, Mode::Stationary);
        assert!(!stay.guard);
    }
}
