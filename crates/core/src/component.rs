//! Components and the `<Location, Target, Moves>` design space (Table 1).
//!
//! The paper parameterises every distributed programming model by a triple:
//! where the component currently is, where the computation should happen,
//! and whether the component moves. Mobility attributes are instances of
//! these triples (§3.2).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Per-object durability policy, declared at creation through an
/// [`ObjectSpec`](crate::ObjectSpec) and enforced by the hosting runtime
/// for the object's whole lifetime (across migrations and re-homings).
///
/// This is the first *non-mobility* object policy: mobility attributes
/// (§3) decide *where* a component executes per bind; durability decides
/// what survives a host crash. A [`Durability::Replicated`] object
/// checkpoints a snapshot to a fixed backup home at creation and after
/// every move and completed invocation; when its host crashes, the
/// engine's `NotFound`/`Unreachable` path consults the backup, restores
/// the object there under a **fresh incarnation**, repairs the registry
/// and retries — the APGAS relocatable-collections model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Durability {
    /// The object's state lives only on its current host and dies with it
    /// (the paper's behaviour; the default).
    #[default]
    Volatile,
    /// Checkpoint to backup home(s); today exactly one backup is
    /// maintained regardless of the requested count (the field records
    /// intent for a future multi-backup policy).
    ///
    /// Replication is **asynchronous**: the invocation reply does not
    /// wait for the checkpoint ack, so a crash can lose mutations since
    /// the last *acknowledged* checkpoint — a restore serves the newest
    /// snapshot the backup holds, never older (and the chaos harness
    /// checks exactly that invariant). A synchronous mode is a ROADMAP
    /// follow-on. A snapshot byte-identical to the last acknowledged one
    /// is confirmed by `(incarnation, epoch)` instead of re-shipped; a
    /// refused confirmation re-ships it in full, so the window is the
    /// same.
    ///
    /// Crashes and partitions are deliberately indistinguishable (no
    /// failure-detector oracle), so a restore triggered by an
    /// `Unreachable` outcome may fork a live-but-partitioned primary:
    /// both copies stay individually consistent and detectable (distinct
    /// incarnations — stale stubs resolve typed), and the backup's
    /// lineage ordering makes the *younger* incarnation's checkpoints
    /// authoritative, but mutations applied to the older lineage after
    /// the fork are not merged. The same trade-off every
    /// primary/backup-with-failover design makes without consensus.
    Replicated {
        /// Requested number of backup homes (≥ 1; only the first is
        /// honoured today).
        backups: u32,
    },
}

impl Durability {
    /// Whether this policy checkpoints state off-host.
    pub fn is_replicated(self) -> bool {
        matches!(self, Durability::Replicated { .. })
    }
}

/// Placement of a component or computation target relative to the invoking
/// namespace (Table 1's `{remote, local, not specified}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// In the invoking namespace.
    Local,
    /// In some other namespace.
    Remote,
    /// Unconstrained — any namespace on the network (CLE's target).
    Unspecified,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::Local => write!(f, "local"),
            Placement::Remote => write!(f, "remote"),
            Placement::Unspecified => write!(f, "not specified"),
        }
    }
}

/// A point in the design space of distributed programming models: the
/// `<Location, Target, Moves>` triple of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignTriple {
    /// The component's current location.
    pub location: Placement,
    /// The computation target.
    pub target: Placement,
    /// Whether the component moves before executing.
    pub moves: bool,
}

impl DesignTriple {
    /// Builds a triple.
    pub const fn new(location: Placement, target: Placement, moves: bool) -> Self {
        DesignTriple {
            location,
            target,
            moves,
        }
    }
}

impl fmt::Display for DesignTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}, {}, {}>",
            self.location,
            self.target,
            if self.moves { "yes" } else { "no" }
        )
    }
}

/// The classical distributed programming models discussed in §2 plus the
/// models MAGE adds (§3.3), used as rows of Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelKind {
    /// Local procedure call.
    Lpc,
    /// Remote procedure call (Java RMI style).
    Rpc,
    /// Code on demand (applet style).
    Cod,
    /// Remote evaluation (single-hop, synchronous).
    Rev,
    /// Generalized remote evaluation: move from anywhere to anywhere (§3.3).
    Grev,
    /// Mobile agent (multi-hop, asynchronous, weak migration).
    MobileAgent,
    /// Current-location evaluation: execute wherever the component is (§3.3).
    Cle,
    /// A user-defined mobility attribute (e.g. the paper's `CombinedMA`).
    Custom,
}

impl ModelKind {
    /// The model's `<Location, Target, Moves>` triple exactly as printed in
    /// Table 1 (GREV and Custom are not rows of the table; GREV's triple
    /// follows §3.3's definition, Custom is fully unconstrained).
    pub const fn design_triple(self) -> DesignTriple {
        match self {
            ModelKind::MobileAgent => DesignTriple::new(Placement::Remote, Placement::Remote, true),
            ModelKind::Rev => DesignTriple::new(Placement::Local, Placement::Remote, true),
            ModelKind::Rpc => DesignTriple::new(Placement::Remote, Placement::Remote, false),
            ModelKind::Cle => {
                DesignTriple::new(Placement::Unspecified, Placement::Unspecified, false)
            }
            ModelKind::Cod => DesignTriple::new(Placement::Remote, Placement::Local, true),
            ModelKind::Lpc => DesignTriple::new(Placement::Local, Placement::Local, false),
            ModelKind::Grev => {
                DesignTriple::new(Placement::Unspecified, Placement::Unspecified, true)
            }
            ModelKind::Custom => {
                DesignTriple::new(Placement::Unspecified, Placement::Unspecified, true)
            }
        }
    }

    /// The rows of Table 1, in the paper's order.
    pub const TABLE_1: [ModelKind; 6] = [
        ModelKind::MobileAgent,
        ModelKind::Rev,
        ModelKind::Rpc,
        ModelKind::Cle,
        ModelKind::Cod,
        ModelKind::Lpc,
    ];
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::Lpc => write!(f, "LPC"),
            ModelKind::Rpc => write!(f, "RPC"),
            ModelKind::Cod => write!(f, "COD"),
            ModelKind::Rev => write!(f, "REV"),
            ModelKind::Grev => write!(f, "GREV"),
            ModelKind::MobileAgent => write!(f, "MA"),
            ModelKind::Cle => write!(f, "CLE"),
            ModelKind::Custom => write!(f, "custom"),
        }
    }
}

/// Whether an object may be accessed by more than one thread of execution
/// (§4.2: public objects require MAGE locking; private objects do not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Visibility {
    /// Accessible from multiple clients; must be found before each use and
    /// locked around invocations.
    Public,
    /// Used by a single client, whose cached location is always accurate.
    Private,
}

/// A MAGE component: a class/object pair whose object half may be absent
/// (§4.2 — "a class and an object form a pair, whose object can be null").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Component {
    class: String,
    object: Option<String>,
}

impl Component {
    /// A component naming both a class and an object instance.
    pub fn object(class: impl Into<String>, object: impl Into<String>) -> Self {
        Component {
            class: class.into(),
            object: Some(object.into()),
        }
    }

    /// A class-only component (an object factory in REV/COD's traditional
    /// semantics).
    pub fn class(class: impl Into<String>) -> Self {
        Component {
            class: class.into(),
            object: None,
        }
    }

    /// The class name.
    pub fn class_name(&self) -> &str {
        &self.class
    }

    /// The object name, if this component has an instance.
    pub fn object_name(&self) -> Option<&str> {
        self.object.as_deref()
    }

    /// Whether this component is class-only (no instance yet).
    pub fn is_factory(&self) -> bool {
        self.object.is_none()
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.object {
            Some(obj) => write!(f, "{obj}:{}", self.class),
            None => write!(f, "{}(class)", self.class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_triples_match_the_paper() {
        use ModelKind::*;
        use Placement::*;
        let expect = [
            (MobileAgent, Remote, Remote, true),
            (Rev, Local, Remote, true),
            (Rpc, Remote, Remote, false),
            (Cle, Unspecified, Unspecified, false),
            (Cod, Remote, Local, true),
            (Lpc, Local, Local, false),
        ];
        for (model, location, target, moves) in expect {
            let triple = model.design_triple();
            assert_eq!(triple.location, location, "{model} location");
            assert_eq!(triple.target, target, "{model} target");
            assert_eq!(triple.moves, moves, "{model} moves");
        }
    }

    #[test]
    fn triples_uniquely_identify_table_1_models() {
        let triples: Vec<_> = ModelKind::TABLE_1
            .iter()
            .map(|m| m.design_triple())
            .collect();
        for (i, a) in triples.iter().enumerate() {
            for (j, b) in triples.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "two models share a triple");
                }
            }
        }
    }

    #[test]
    fn triple_display_matches_paper_notation() {
        assert_eq!(
            ModelKind::Cod.design_triple().to_string(),
            "<remote, local, yes>"
        );
    }

    #[test]
    fn component_pairing() {
        let factory = Component::class("GeoDataFilterImpl");
        assert!(factory.is_factory());
        assert_eq!(factory.object_name(), None);

        let obj = Component::object("GeoDataFilterImpl", "geoData");
        assert!(!obj.is_factory());
        assert_eq!(obj.object_name(), Some("geoData"));
        assert_eq!(obj.class_name(), "GeoDataFilterImpl");
        assert_eq!(obj.to_string(), "geoData:GeoDataFilterImpl");
    }

    #[test]
    fn model_display_names() {
        assert_eq!(ModelKind::MobileAgent.to_string(), "MA");
        assert_eq!(ModelKind::Grev.to_string(), "GREV");
    }
}
