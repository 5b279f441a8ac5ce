//! The per-node MAGE registry (§4.1).
//!
//! Each namespace tracks the *last known location* of every mobile
//! component that has ever passed through it. Finding a component follows
//! the chain of forwarding addresses; as the answer returns, each server on
//! the chain updates its entry to the final location, collapsing the path.
//! Together the per-node registries form "a global, system-wide namespace
//! for both mobile objects and classes".
//!
//! Entries are keyed by a tagged [`CompKey`] — component kind plus interned
//! [`NameId`] — so the steady-state lookup is an 8-byte comparison with no
//! string handling at all. The old `"class:"`-prefixed string keys survive
//! only at the driver boundary, where [`CompKey::parse`] interns them away
//! and [`CompKey::lookup`] resolves them without interning.
//!
//! This module is the pure data structure; the chain-walking protocol lives
//! in the node (`crate::node`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mage_rmi::{NameId, SymbolTable};
use mage_sim::NodeId;
use serde::{Deserialize, Serialize};

/// Prefix distinguishing class entries from object entries in driver-facing
/// name strings (e.g. `rt.session(..)?.find("class:Filter")`).
pub const CLASS_PREFIX: &str = "class:";

/// What kind of component a registry entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Kind {
    /// A mobile object.
    Object,
    /// A (replicable) class.
    Class,
}

/// Tagged registry key: component kind plus interned name.
///
/// Replaces the former `class_key` scheme, which built a `"class:"`-
/// prefixed `String` per lookup; a `CompKey` is `Copy` and costs nothing
/// to build or compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CompKey {
    /// Component kind.
    pub kind: Kind,
    /// Interned bare name (no prefix).
    pub id: NameId,
}

impl CompKey {
    /// Key for a mobile object.
    pub fn object(id: NameId) -> Self {
        CompKey {
            kind: Kind::Object,
            id,
        }
    }

    /// Key for a class.
    pub fn class(id: NameId) -> Self {
        CompKey {
            kind: Kind::Class,
            id,
        }
    }

    /// Parses a driver-facing name string (`"class:Foo"` or `"bar"`),
    /// interning the bare name.
    pub fn parse(syms: &SymbolTable, name: &str) -> Self {
        match name.strip_prefix(CLASS_PREFIX) {
            Some(class) => CompKey::class(syms.intern(class)),
            None => CompKey::object(syms.intern(name)),
        }
    }

    /// Like [`CompKey::parse`], but interns nothing: `None` when the bare
    /// name was never interned, so no node can host the component.
    pub fn lookup(syms: &SymbolTable, name: &str) -> Option<Self> {
        match name.strip_prefix(CLASS_PREFIX) {
            Some(class) => syms.lookup(class).map(CompKey::class),
            None => syms.lookup(name).map(CompKey::object),
        }
    }

    /// Renders the driver-facing string form (the inverse of
    /// [`CompKey::parse`]). Allocates — error paths and display only.
    pub fn display(&self, syms: &SymbolTable) -> String {
        let name = syms.resolve_lossy(self.id);
        match self.kind {
            Kind::Object => name.to_string(),
            Kind::Class => format!("{CLASS_PREFIX}{name}"),
        }
    }
}

/// Incarnation id of a hosted object: minted when the object is created
/// (bound) and minted afresh when a same-named object is re-created —
/// after a crash, or by a factory rebind. Identity on the wire is the
/// pair `(NameId, Incarnation)`: a stub holding a stale incarnation is
/// *detected* (typed `StaleIdentity`) instead of silently rebinding to
/// whatever now answers to the name. Classes — immutable, replicable
/// code — carry [`Incarnation::NONE`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Incarnation(u64);

impl Incarnation {
    /// "No identity tracked": classes, and registry entries seeded by the
    /// fault-injection admin hook. Invocation checks skip it.
    pub const NONE: Incarnation = Incarnation(0);

    /// The raw id, for wire payloads and error reporting.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an incarnation from its wire form.
    pub const fn from_raw(raw: u64) -> Self {
        Incarnation(raw)
    }

    /// Whether this is the untracked sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Incarnation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// World-shared mint for object incarnations, handed (like the symbol
/// table) to every node at construction. Ids are unique across the whole
/// deployment and across re-creations, so a re-created `"shared"` can
/// never collide with the original — even when a partition heal makes
/// both copies reachable at once. Allocation is a single atomic
/// increment; determinism follows from the deterministic event order.
#[derive(Debug)]
pub struct IncarnationMinter(AtomicU64);

impl IncarnationMinter {
    /// Creates a shared minter (ids start at 1; 0 is [`Incarnation::NONE`]).
    pub fn shared() -> Arc<Self> {
        Arc::new(IncarnationMinter(AtomicU64::new(1)))
    }

    /// Mints the next incarnation id.
    pub fn mint(&self) -> Incarnation {
        Incarnation(self.0.fetch_add(1, Ordering::Relaxed))
    }
}

/// A registry entry's value: where the component was last seen, and which
/// incarnation was seen there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    /// Last known hosting node.
    pub node: NodeId,
    /// Incarnation observed there ([`Incarnation::NONE`] for classes and
    /// admin-seeded entries).
    pub incarnation: Incarnation,
}

impl Located {
    /// Builds an entry value.
    pub fn new(node: NodeId, incarnation: Incarnation) -> Self {
        Located { node, incarnation }
    }

    /// An entry with no identity knowledge (classes, admin seeds).
    pub fn untracked(node: NodeId) -> Self {
        Located {
            node,
            incarnation: Incarnation::NONE,
        }
    }
}

/// Last-known-location table for mobile components.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    entries: BTreeMap<CompKey, Located>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Records that `key` was last seen at `entry.node` as
    /// `entry.incarnation`, returning the previous entry if any.
    pub fn update(&mut self, key: CompKey, entry: Located) -> Option<Located> {
        self.entries.insert(key, entry)
    }

    /// The last known location (and incarnation) of `key`.
    pub fn lookup(&self, key: CompKey) -> Option<Located> {
        self.entries.get(&key).copied()
    }

    /// Removes the entry for `key`.
    pub fn remove(&mut self, key: CompKey) -> Option<Located> {
        self.entries.remove(&key)
    }

    /// Removes every entry pointing at `location`, returning how many
    /// were dropped. Used when a node is observed to have crashed: the
    /// components its previous incarnation hosted died with it, so the
    /// forwarding addresses are stale.
    pub fn purge_location(&mut self, location: NodeId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, loc| loc.node != location);
        before - self.entries.len()
    }

    /// Number of tracked components.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (CompKey, Located)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> Located {
        Located::untracked(NodeId::from_raw(i))
    }

    #[test]
    fn update_and_lookup() {
        let syms = SymbolTable::new();
        let geo = CompKey::object(syms.intern("geoData"));
        let mut reg = Registry::new();
        assert_eq!(reg.lookup(geo), None);
        assert_eq!(reg.update(geo, n(2)), None);
        assert_eq!(reg.lookup(geo), Some(n(2)));
        // Forwarding address overwritten when the object moves on.
        assert_eq!(reg.update(geo, n(3)), Some(n(2)));
        assert_eq!(reg.lookup(geo), Some(n(3)));
    }

    #[test]
    fn entries_track_incarnations() {
        let syms = SymbolTable::new();
        let geo = CompKey::object(syms.intern("geoData"));
        let mut reg = Registry::new();
        let first = Located::new(NodeId::from_raw(2), Incarnation::from_raw(5));
        reg.update(geo, first);
        assert_eq!(reg.lookup(geo), Some(first));
        // A re-created object under the same name replaces the entry with
        // the fresh incarnation.
        let fresh = Located::new(NodeId::from_raw(4), Incarnation::from_raw(9));
        assert_eq!(reg.update(geo, fresh), Some(first));
        assert_eq!(reg.lookup(geo).unwrap().incarnation.as_raw(), 9);
    }

    #[test]
    fn minter_is_monotonic_and_never_none() {
        let minter = IncarnationMinter::shared();
        let a = minter.mint();
        let b = minter.mint();
        assert!(!a.is_none());
        assert!(b > a);
        assert!(Incarnation::NONE.is_none());
    }

    #[test]
    fn object_and_class_keys_do_not_collide() {
        let syms = SymbolTable::new();
        let id = syms.intern("Filter");
        let mut reg = Registry::new();
        reg.update(CompKey::object(id), n(1));
        reg.update(CompKey::class(id), n(2));
        assert_eq!(reg.lookup(CompKey::object(id)), Some(n(1)));
        assert_eq!(reg.lookup(CompKey::class(id)), Some(n(2)));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let syms = SymbolTable::new();
        let obj = CompKey::parse(&syms, "geoData");
        assert_eq!(obj.kind, Kind::Object);
        assert_eq!(obj.display(&syms), "geoData");
        let class = CompKey::parse(&syms, "class:Filter");
        assert_eq!(class.kind, Kind::Class);
        assert_eq!(class.display(&syms), "class:Filter");
        // The bare name is interned without the prefix.
        assert_eq!(syms.lookup("Filter"), Some(class.id));
        assert_eq!(syms.lookup("class:Filter"), None);
    }

    #[test]
    fn remove_forgets() {
        let syms = SymbolTable::new();
        let x = CompKey::object(syms.intern("x"));
        let mut reg = Registry::new();
        reg.update(x, n(1));
        assert_eq!(reg.remove(x), Some(n(1)));
        assert_eq!(reg.remove(x), None);
        assert!(reg.is_empty());
    }

    #[test]
    fn purge_location_drops_only_matching_entries() {
        let syms = SymbolTable::new();
        let a = CompKey::object(syms.intern("a"));
        let b = CompKey::object(syms.intern("b"));
        let c = CompKey::class(syms.intern("C"));
        let mut reg = Registry::new();
        reg.update(a, n(1));
        reg.update(b, n(2));
        reg.update(c, n(1));
        assert_eq!(reg.purge_location(NodeId::from_raw(1)), 2);
        assert_eq!(reg.lookup(a), None);
        assert_eq!(reg.lookup(c), None);
        assert_eq!(reg.lookup(b), Some(n(2)));
    }

    #[test]
    fn iteration_is_key_ordered() {
        let syms = SymbolTable::new();
        let a = CompKey::object(syms.intern("a"));
        let b = CompKey::object(syms.intern("b"));
        let mut reg = Registry::new();
        reg.update(b, n(1));
        reg.update(a, n(2));
        let keys: Vec<_> = reg.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![a, b]);
    }
}
