//! The built-in mobility attributes (Figure 5's concrete classes) as data:
//! each model is one [`Rule`], planned by the one [`Rule::plan`].
#![warn(clippy::too_many_lines)]
// The model types are namespaces whose constructors return `Builtin`.
#![allow(clippy::new_ret_no_self)]

use std::cell::Cell;

use crate::attribute::{BindPlan, BindView, MobilityAttribute, Mode, Target};
use crate::component::{Component, ModelKind, Placement, Visibility};
use crate::error::MageError;
use FactoryMode::{ObjectMove, SingleUse, Traditional};

/// The three REV/COD semantics MAGE supports when binding to class/object
/// pairs (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactoryMode {
    /// Always move the existing object.
    ObjectMove,
    /// Instantiate a fresh object at the target on every bind (traditional).
    Traditional,
    /// Instantiate on the first bind, move that same object afterwards.
    SingleUse,
}

/// One built-in model as plain data: what each of its plans is made from.
#[derive(Debug)]
struct Rule {
    /// The model, whose Table 1 triple gives the target kind and moves.
    model: ModelKind,
    /// The fixed target namespace (RPC, REV, GREV, MA).
    target: Option<String>,
    /// The factory mode, with the state and visibility a factory bind
    /// gives the instance it creates.
    factory: FactoryMode,
    init_state: Vec<u8>,
    visibility: Visibility,
    /// Bracket binds with a stay/move lock (§4.4).
    guard: bool,
}

impl Rule {
    /// The plan for one bind. `instantiated` says whether a single-use
    /// rule has already created its instance.
    fn plan(&self, view: &BindView<'_>, instantiated: bool) -> BindPlan {
        let triple = self.model.design_triple();
        let target = match (triple.target, &self.target) {
            (Placement::Local, _) => Target::Client,
            (_, Some(node)) => Target::Node(node.clone()),
            (_, None) => Target::Current,
        };
        let mode = match self.factory {
            _ if !triple.moves => Mode::Stationary,
            ObjectMove => Mode::Move,
            // Instantiate the first time (or if the instance vanished);
            // thereafter move the instance we created.
            SingleUse if instantiated && view.location().is_some() => Mode::Move,
            Traditional | SingleUse => Mode::Factory {
                state: self.init_state.clone(),
                visibility: self.visibility,
            },
        };
        BindPlan {
            target,
            mode,
            guard: self.guard,
        }
    }
}

/// A built-in mobility attribute: one model's rule bound to a component,
/// as the model constructors ([`Rev::new`], [`Cod::factory`], …) build it.
#[derive(Debug)]
pub struct Builtin {
    component: Component,
    rule: Rule,
    /// Whether a single-use rule has created its instance (per binding).
    instantiated: Cell<bool>,
}

impl Builtin {
    fn new(
        model: ModelKind,
        target: Option<String>,
        factory: FactoryMode,
        class: impl Into<String>,
        object: impl Into<String>,
    ) -> Self {
        Builtin {
            component: Component::object(class, object),
            rule: Rule {
                model,
                target,
                factory,
                init_state: Vec::new(),
                visibility: Visibility::Public,
                guard: false,
            },
            instantiated: Cell::new(false),
        }
    }

    /// Supplies constructor state for factory binds. Only the factory
    /// rules ([`Cod::factory`], [`Cod::single_use`], [`Rev::factory`],
    /// [`Rev::single_use`]) instantiate; every other rule ignores it.
    #[must_use]
    pub fn with_init_state(mut self, state: Vec<u8>) -> Self {
        self.rule.init_state = state;
        self
    }

    /// Sets the visibility of objects this attribute instantiates. Like
    /// [`with_init_state`](Builtin::with_init_state), it applies only to
    /// the factory rules.
    #[must_use]
    pub fn with_visibility(mut self, visibility: Visibility) -> Self {
        self.rule.visibility = visibility;
        self
    }

    /// Brackets binds with a stay/move lock (§4.4).
    #[must_use]
    pub fn guarded(mut self) -> Self {
        self.rule.guard = true;
        self
    }
}

impl MobilityAttribute for Builtin {
    fn model(&self) -> ModelKind {
        self.rule.model
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError> {
        let plan = self.rule.plan(view, self.instantiated.get());
        if matches!(plan.mode, Mode::Factory { .. }) {
            self.instantiated.set(true);
        }
        Ok(plan)
    }

    fn one_way(&self) -> bool {
        self.rule.model == ModelKind::MobileAgent
    }

    /// Every rule but a single-use one plans from its own fields alone.
    fn plan_ignores_location(&self) -> bool {
        self.rule.factory != SingleUse
    }
}

/// Local procedure call: the component must already be local; invoke it in
/// place. Included because "programmers employ it in distributed systems
/// wherever possible because of its inherent efficiency" (§2).
pub enum Lpc {}

impl Lpc {
    /// Binds LPC to an existing object.
    pub fn new(class: impl Into<String>, object: impl Into<String>) -> Builtin {
        Builtin::new(ModelKind::Lpc, None, ObjectMove, class, object)
    }
}

/// Remote procedure call: the component must already reside at the target;
/// MAGE RPC "denotes an immobile object" and throws if the object is not
/// found on its target (§4.2).
pub enum Rpc {}

impl Rpc {
    /// Binds RPC to `object` expected at namespace `target`.
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Builtin {
        let target = Some(target.into());
        Builtin::new(ModelKind::Rpc, target, ObjectMove, class, object)
    }
}

/// Code on demand: bring the component *here* and execute locally
/// (Figure 1b). Applied to an object, moves the object; as a factory,
/// downloads the class and instantiates locally (§4.2).
pub enum Cod {}

impl Cod {
    /// COD over an existing object: move it to the invoking namespace.
    pub fn new(class: impl Into<String>, object: impl Into<String>) -> Builtin {
        Builtin::new(ModelKind::Cod, None, ObjectMove, class, object)
    }

    /// Traditional COD: download the class, instantiate locally on every
    /// bind.
    pub fn factory(class: impl Into<String>, object: impl Into<String>) -> Builtin {
        Builtin::new(ModelKind::Cod, None, Traditional, class, object)
    }

    /// Single-use factory COD: instantiate locally once, then move that
    /// instance on later binds.
    pub fn single_use(class: impl Into<String>, object: impl Into<String>) -> Builtin {
        Builtin::new(ModelKind::Cod, None, SingleUse, class, object)
    }
}

/// Remote evaluation: send the component to a remote target and execute
/// there (Figure 1c). Single-hop and synchronous (§3.5).
pub enum Rev {}

impl Rev {
    /// REV over an existing object: move it to `target`.
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Builtin {
        let target = Some(target.into());
        Builtin::new(ModelKind::Rev, target, ObjectMove, class, object)
    }

    /// Traditional REV: ship the class, instantiate at the target on every
    /// bind — the paper's `new REV("GeoDataFilterImpl", "geoData",
    /// "sensor1")` (§3.6).
    pub fn factory(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Builtin {
        let target = Some(target.into());
        Builtin::new(ModelKind::Rev, target, Traditional, class, object)
    }

    /// Single-use factory REV (§4.2's third definition).
    pub fn single_use(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Builtin {
        let target = Some(target.into());
        Builtin::new(ModelKind::Rev, target, SingleUse, class, object)
    }
}

/// Generalized remote evaluation (§3.3, Figure 2): move the component to
/// the target "regardless of whether the component was initially local or
/// remote and whether the target is local or remote".
pub enum Grev {}

impl Grev {
    /// GREV over an existing object.
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Builtin {
        let target = Some(target.into());
        Builtin::new(ModelKind::Grev, target, ObjectMove, class, object)
    }
}

/// Mobile agent: move the object and invoke asynchronously — "multi-hop
/// and asynchronous" (§3.5); onward hops are requested by the object
/// itself via [`MobileEnv::request_hop`](crate::object::MobileEnv::request_hop).
pub enum MobileAgent {}

impl MobileAgent {
    /// Sends `object` to `target` — the paper's `new MAgent("geoData",
    /// "sensor2")` (§3.6).
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Builtin {
        let target = Some(target.into());
        Builtin::new(ModelKind::MobileAgent, target, ObjectMove, class, object)
    }
}

/// Current-location evaluation (§3.3, Figure 3): no computation target —
/// evaluate the component in whatever namespace it currently occupies.
pub enum Cle {}

impl Cle {
    /// Binds CLE to an existing object.
    pub fn new(class: impl Into<String>, object: impl Into<String>) -> Builtin {
        Builtin::new(ModelKind::Cle, None, ObjectMove, class, object)
    }
}

/// Boxed policy closure deciding a [`BindPlan`] from a [`BindView`].
type PolicyFn = Box<dyn Fn(&BindView<'_>) -> Result<BindPlan, MageError>>;

/// A user-defined mobility attribute wrapping an arbitrary policy closure
/// — the mechanism behind the paper's `CombinedMA` (§3.6) and the
/// load-threshold migration policy (§3.1).
///
/// # Examples
///
/// The paper's load-based policy: move the component off its host when the
/// host's load exceeds a threshold.
///
/// ```
/// use mage_core::attribute::{BindPlan, PolicyAttribute};
/// use mage_core::MageError;
///
/// let attr = PolicyAttribute::new(
///     "LoadBalancer",
///     "WorkerImpl",
///     "worker",
///     |view| {
///         let here = view.location().expect("worker exists");
///         if view.load(here) > 0.8 {
///             let (coolest, _) = view
///                 .namespaces()
///                 .map(|(name, id)| (name.to_owned(), view.load(id)))
///                 .min_by(|a, b| a.1.total_cmp(&b.1))
///                 .expect("at least one namespace");
///             Ok(BindPlan::move_to(coolest))
///         } else {
///             Ok(BindPlan::stay())
///         }
///     },
/// );
/// # let _ = attr;
/// ```
pub struct PolicyAttribute {
    name: String,
    component: Component,
    policy: PolicyFn,
    one_way: bool,
}

impl PolicyAttribute {
    /// Creates a custom attribute from a policy closure.
    pub fn new(
        name: impl Into<String>,
        class: impl Into<String>,
        object: impl Into<String>,
        policy: impl Fn(&BindView<'_>) -> Result<BindPlan, MageError> + 'static,
    ) -> Self {
        PolicyAttribute {
            name: name.into(),
            component: Component::object(class, object),
            policy: Box::new(policy),
            one_way: false,
        }
    }

    /// Makes invocations through this attribute fire-and-forget.
    #[must_use]
    pub fn one_way(mut self) -> Self {
        self.one_way = true;
        self
    }
}

impl std::fmt::Debug for PolicyAttribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyAttribute")
            .field("name", &self.name)
            .field("component", &self.component)
            .finish_non_exhaustive()
    }
}

impl MobilityAttribute for PolicyAttribute {
    fn model(&self) -> ModelKind {
        ModelKind::Custom
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError> {
        (self.policy)(view)
    }

    fn one_way(&self) -> bool {
        self.one_way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coercion::{cell_text, Situation};
    use mage_sim::{NodeId, SimTime};
    use std::collections::BTreeMap;

    /// What a row expects of a plan's mode.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Expect {
        Stationary,
        Move,
        Factory,
        /// `Factory` while no instance is known, then `Move`.
        SingleUse,
    }

    /// One built-in rule: its constructor given a target namespace, the
    /// model it reports, the plan's target given that namespace, the
    /// plan's mode, and its Table 2 cells in the local, remote-at-target,
    /// remote-not-at-target and unlocated columns.
    struct Row(
        fn(&str) -> Builtin,
        ModelKind,
        fn(&str) -> Target,
        Expect,
        [&'static str; 4],
    );

    const D: &str = "Default Behavior";
    const THROW: &str = "Exception thrown";

    #[rustfmt::skip]
    fn rows() -> [Row; 11] {
        use {Expect::*, ModelKind as M};
        let client = |_: &str| Target::Client;
        let named = |t: &str| Target::Node(t.to_owned());
        let current = |_: &str| Target::Current;
        [
            Row(|_| Lpc::new("C", "o"), M::Lpc, client, Stationary, [D, THROW, THROW, D]),
            Row(|t| Rpc::new("C", "o", t), M::Rpc, named, Stationary, [THROW, D, THROW, D]),
            Row(|_| Cod::new("C", "o"), M::Cod, client, Move, ["LPC", "n/a", D, D]),
            Row(|_| Cod::factory("C", "o"), M::Cod, client, Factory, [D; 4]),
            Row(|_| Cod::single_use("C", "o"), M::Cod, client, SingleUse, [D; 4]),
            Row(|t| Rev::new("C", "o", t), M::Rev, named, Move, [D, "RPC", D, D]),
            Row(|t| Rev::factory("C", "o", t), M::Rev, named, Factory, [D; 4]),
            Row(|t| Rev::single_use("C", "o", t), M::Rev, named, SingleUse, [D; 4]),
            // Figure 2: GREV moves from anywhere to anywhere, and is
            // already done when the component sits at its target.
            Row(|t| Grev::new("C", "o", t), M::Grev, named, Move, [D, "RPC", D, D]),
            Row(|t| MobileAgent::new("C", "o", t), M::MobileAgent, named, Move, [D, "RPC", D, D]),
            Row(|_| Cle::new("C", "o"), M::Cle, current, Stationary, [D; 4]),
        ]
    }

    fn column(situation: Situation) -> usize {
        match situation {
            Situation::Local => 0,
            Situation::RemoteAtTarget => 1,
            Situation::RemoteNotAtTarget => 2,
            Situation::Unlocated => 3,
        }
    }

    /// Every built-in rule, with the component local, at the target,
    /// elsewhere or unlocated and the target local or remote: the plan
    /// follows the model's Table 1 triple, is pure unless single-use, and
    /// coerces by Table 2 at the situation a session would classify.
    #[test]
    fn every_builtin_rule_plans_its_table_1_row() {
        let names: BTreeMap<String, NodeId> = [("lab", 0), ("sensor1", 1), ("store", 2)]
            .into_iter()
            .map(|(name, raw)| (name.to_owned(), NodeId::from_raw(raw)))
            .collect();
        let (loads, lab, store) = (BTreeMap::new(), names["lab"], names["store"]);
        let view = |location| BindView::new(lab, location, &names, &loads, SimTime::ZERO);
        for Row(make, model, target_of, expect, cells) in rows() {
            let triple = model.design_triple();
            assert_eq!(
                target_of("t") == Target::Client,
                triple.target == Placement::Local
            );
            assert_eq!(expect == Expect::Stationary, !triple.moves);
            assert_eq!(make("t").one_way(), model == ModelKind::MobileAgent);
            // Only a single-use rule's plan reads the location.
            assert_eq!(
                make("t").plan_ignores_location(),
                expect != Expect::SingleUse
            );
            for target in ["lab", "sensor1"] {
                for location in [Some(lab), Some(names[target]), Some(store), None] {
                    let context = format!("{model} to {target} at {location:?}");
                    let attr = make(target);
                    assert_eq!(attr.model(), model);
                    let plan = attr.plan(&view(location)).unwrap();
                    assert_eq!(plan.target, target_of(target), "{context}");
                    assert!(!plan.guard);
                    assert!(attr.guarded().plan(&view(location)).unwrap().guard);
                    let factory = matches!(plan.mode, Mode::Factory { .. });
                    match expect {
                        Expect::Stationary => assert_eq!(plan.mode, Mode::Stationary),
                        Expect::Move => assert_eq!(plan.mode, Mode::Move, "{context}"),
                        Expect::Factory | Expect::SingleUse => assert!(factory, "{context}"),
                    }
                    if expect == Expect::SingleUse {
                        let again = make(target);
                        assert_eq!(again.plan(&view(None)).unwrap(), plan);
                        let later = again.plan(&view(location)).unwrap().mode;
                        let moved = location.map_or(plan.mode.clone(), |_| Mode::Move);
                        assert_eq!(later, moved, "{context}");
                    } else {
                        let twice = make(target);
                        twice.plan(&view(location)).unwrap();
                        assert_eq!(twice.plan(&view(location)).unwrap(), plan, "{context}");
                    }
                    // Table 2, at the situation a session classifies: a
                    // factory bind creates a fresh, unlocated instance.
                    let named = match &plan.target {
                        Target::Client => Some(lab),
                        Target::Node(name) => Some(names[name]),
                        Target::Current => None,
                    };
                    let situation = Situation::classify(lab, named, location.filter(|_| !factory));
                    assert_eq!(
                        cell_text(model, situation),
                        cells[column(situation)],
                        "{context}"
                    );
                }
            }
        }
    }

    #[test]
    fn policy_attribute_implements_load_threshold() {
        let mut names = BTreeMap::new();
        names.insert("hot".to_owned(), NodeId::from_raw(0));
        names.insert("cool".to_owned(), NodeId::from_raw(1));
        let mut loads = BTreeMap::new();
        loads.insert(NodeId::from_raw(0), 0.95);
        loads.insert(NodeId::from_raw(1), 0.10);
        let attr = PolicyAttribute::new("LoadBalancer", "C", "o", |view| {
            let here = view.location().unwrap();
            if view.load(here) > 0.8 {
                let (coolest, _) = view
                    .namespaces()
                    .map(|(n, id)| (n.to_owned(), view.load(id)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                Ok(BindPlan::move_to(coolest))
            } else {
                Ok(BindPlan::stay())
            }
        });
        let v = BindView::new(
            NodeId::from_raw(0),
            Some(NodeId::from_raw(0)),
            &names,
            &loads,
            SimTime::ZERO,
        );
        let plan = attr.plan(&v).unwrap();
        assert_eq!(plan.target, Target::Node("cool".into()));
        assert_eq!(attr.model(), ModelKind::Custom);
    }
}
