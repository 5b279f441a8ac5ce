//! Mobility coercion (§3.4, Table 2).
//!
//! A mobility attribute can specify migration that makes no sense for the
//! component's actual placement — applying COD to a component that is
//! already local, or REV to one already at the target. Component mobility
//! makes these mismatches routine, so MAGE *coerces* the invocation into
//! the programming model that matches the actual distribution of code and
//! data, rather than failing.
#![warn(clippy::too_many_lines)]

use std::fmt;

use mage_sim::NodeId;
use serde::{Deserialize, Serialize};

use crate::component::ModelKind;
use crate::error::MageError;

/// Where the component actually is, relative to the invoking namespace and
/// the attribute's computation target (the columns of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Situation {
    /// In the invoking namespace.
    Local,
    /// In another namespace that *is* the computation target.
    RemoteAtTarget,
    /// In another namespace that is *not* the computation target.
    RemoteNotAtTarget,
    /// No instance exists yet (class component — an object factory bind).
    Unlocated,
}

impl fmt::Display for Situation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Situation::Local => write!(f, "local"),
            Situation::RemoteAtTarget => write!(f, "remote, at computation target"),
            Situation::RemoteNotAtTarget => {
                write!(f, "remote, not at computation target")
            }
            Situation::Unlocated => write!(f, "not yet instantiated"),
        }
    }
}

impl Situation {
    /// Classifies a component's placement.
    ///
    /// `client` is the invoking namespace, `target` the attribute's chosen
    /// computation target (`None` when the model leaves it unspecified, as
    /// CLE does), `location` the component's current host (`None` when the
    /// component has no instance yet).
    pub fn classify(client: NodeId, target: Option<NodeId>, location: Option<NodeId>) -> Self {
        match location {
            None => Situation::Unlocated,
            Some(loc) if loc == client => Situation::Local,
            Some(loc) => match target {
                Some(t) if t == loc => Situation::RemoteAtTarget,
                // With no explicit target, "wherever it is" counts as the
                // target (that is CLE's definition).
                None => Situation::RemoteAtTarget,
                Some(_) => Situation::RemoteNotAtTarget,
            },
        }
    }
}

/// The outcome of mobility coercion: how the invocation should proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coerced {
    /// Use the model's default behaviour (Table 2's "Default Behavior").
    Proceed,
    /// Coerce to RPC: the component is already at the target, so skip the
    /// move and invoke remotely.
    AsRpc,
    /// Coerce to LPC: the component is already local, so invoke in place.
    AsLpc,
}

/// Applies Table 2 to a model/situation pair.
///
/// # Errors
///
/// * [`MageError::Coercion`] for cells marked "Exception thrown"
/// * [`MageError::NotApplicable`] for cells marked "n/a"
pub fn coerce(model: ModelKind, situation: Situation) -> Result<Coerced, MageError> {
    use Coerced::*;
    use ModelKind::*;
    use Situation::*;

    // A factory bind (no instance yet) never mismatches: the model's default
    // behaviour instantiates the object.
    if situation == Unlocated {
        return Ok(Proceed);
    }

    match (model, situation) {
        // Table 2, row MA: Default | RPC | Default.
        (MobileAgent, Local) => Ok(Proceed),
        (MobileAgent, RemoteAtTarget) => Ok(AsRpc),
        (MobileAgent, RemoteNotAtTarget) => Ok(Proceed),

        // Table 2, row REV: Default | RPC | Default.
        (Rev, Local) => Ok(Proceed),
        (Rev, RemoteAtTarget) => Ok(AsRpc),
        (Rev, RemoteNotAtTarget) => Ok(Proceed),

        // Table 2, row COD: LPC | n/a | Default. COD's target is the local
        // namespace, so "remote at computation target" cannot arise.
        (Cod, Local) => Ok(AsLpc),
        (Cod, RemoteAtTarget) => Err(MageError::NotApplicable { model, situation }),
        (Cod, RemoteNotAtTarget) => Ok(Proceed),

        // Table 2, row RPC: Exception | Default | Exception. RPC denotes an
        // immobile object (§4.2); anywhere but its target is an error.
        (Rpc, Local) => Err(MageError::Coercion { model, situation }),
        (Rpc, RemoteAtTarget) => Ok(Proceed),
        (Rpc, RemoteNotAtTarget) => Err(MageError::Coercion { model, situation }),

        // Table 2, row CLE: Default everywhere.
        (Cle, _) => Ok(Proceed),

        // GREV (§3.3): moves from anywhere to anywhere; if the component is
        // already at the target there is nothing to move — REV's coercion
        // to RPC applies.
        (Grev, Local) => Ok(Proceed),
        (Grev, RemoteAtTarget) => Ok(AsRpc),
        (Grev, RemoteNotAtTarget) => Ok(Proceed),

        // LPC: the component must already be local.
        (Lpc, Local) => Ok(Proceed),
        (Lpc, RemoteAtTarget | RemoteNotAtTarget) => Err(MageError::Coercion { model, situation }),

        // Custom attributes supply their own semantics; the runtime trusts
        // their plan and only executes what is mechanically possible.
        (Custom, _) => Ok(Proceed),

        (_, Unlocated) => unreachable!("handled above"),
    }
}

/// The rows of Table 2, in the paper's order.
pub const TABLE_2_MODELS: [ModelKind; 5] = [
    ModelKind::MobileAgent,
    ModelKind::Rev,
    ModelKind::Cod,
    ModelKind::Rpc,
    ModelKind::Cle,
];

/// The columns of Table 2, in the paper's order.
pub const TABLE_2_SITUATIONS: [Situation; 3] = [
    Situation::Local,
    Situation::RemoteAtTarget,
    Situation::RemoteNotAtTarget,
];

/// Renders a coercion outcome using the paper's cell vocabulary.
pub fn cell_text(model: ModelKind, situation: Situation) -> &'static str {
    match coerce(model, situation) {
        Ok(Coerced::Proceed) => "Default Behavior",
        Ok(Coerced::AsRpc) => "RPC",
        Ok(Coerced::AsLpc) => "LPC",
        Err(MageError::NotApplicable { .. }) => "n/a",
        Err(_) => "Exception thrown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_matrix() {
        // Table 2 verbatim.
        let expected: [(ModelKind, [&str; 3]); 5] = [
            (
                ModelKind::MobileAgent,
                ["Default Behavior", "RPC", "Default Behavior"],
            ),
            (
                ModelKind::Rev,
                ["Default Behavior", "RPC", "Default Behavior"],
            ),
            (ModelKind::Cod, ["LPC", "n/a", "Default Behavior"]),
            (
                ModelKind::Rpc,
                ["Exception thrown", "Default Behavior", "Exception thrown"],
            ),
            (
                ModelKind::Cle,
                ["Default Behavior", "Default Behavior", "Default Behavior"],
            ),
        ];
        for (model, cells) in expected {
            for (situation, want) in TABLE_2_SITUATIONS.iter().zip(cells) {
                assert_eq!(
                    cell_text(model, *situation),
                    want,
                    "model {model}, situation {situation}"
                );
            }
        }
    }

    #[test]
    fn factory_binds_always_proceed() {
        for model in ModelKind::TABLE_1 {
            assert_eq!(coerce(model, Situation::Unlocated), Ok(Coerced::Proceed));
        }
    }

    #[test]
    fn classification() {
        let client = NodeId::from_raw(0);
        let target = NodeId::from_raw(1);
        let elsewhere = NodeId::from_raw(2);
        assert_eq!(
            Situation::classify(client, Some(target), Some(client)),
            Situation::Local
        );
        assert_eq!(
            Situation::classify(client, Some(target), Some(target)),
            Situation::RemoteAtTarget
        );
        assert_eq!(
            Situation::classify(client, Some(target), Some(elsewhere)),
            Situation::RemoteNotAtTarget
        );
        assert_eq!(
            Situation::classify(client, Some(target), None),
            Situation::Unlocated
        );
        // CLE: no target means "wherever it is" is the target.
        assert_eq!(
            Situation::classify(client, None, Some(elsewhere)),
            Situation::RemoteAtTarget
        );
    }

    #[test]
    fn grev_coerces_like_rev_when_at_target() {
        assert_eq!(
            coerce(ModelKind::Grev, Situation::RemoteAtTarget),
            Ok(Coerced::AsRpc)
        );
        assert_eq!(
            coerce(ModelKind::Grev, Situation::RemoteNotAtTarget),
            Ok(Coerced::Proceed)
        );
        assert_eq!(
            coerce(ModelKind::Grev, Situation::Local),
            Ok(Coerced::Proceed)
        );
    }

    #[test]
    fn lpc_requires_local_component() {
        assert_eq!(
            coerce(ModelKind::Lpc, Situation::Local),
            Ok(Coerced::Proceed)
        );
        assert!(coerce(ModelKind::Lpc, Situation::RemoteNotAtTarget).is_err());
    }

    #[test]
    fn rev_becomes_rpc_at_target_per_section_3_3() {
        // "when a component's current location is the same as the target...
        // REV becomes RPC."
        assert_eq!(
            coerce(ModelKind::Rev, Situation::RemoteAtTarget),
            Ok(Coerced::AsRpc)
        );
    }
}
