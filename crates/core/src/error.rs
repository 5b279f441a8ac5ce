//! Error types for the MAGE runtime.

use std::error::Error;
use std::fmt;

use mage_rmi::RmiError;
use mage_sim::SimError;

use crate::coercion::Situation;
use crate::component::ModelKind;

/// A failure surfaced to MAGE application code.
///
/// Failures inside the simulated runtime reach the driver as typed values
/// (a node completes its op with `Result<Outcome, MageError>`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MageError {
    /// A component could not be located anywhere in the system.
    NotFound(String),
    /// The requested class is not deployed where it is needed and could not
    /// be fetched.
    ClassUnavailable(String),
    /// The model/situation combination is an error per the coercion matrix
    /// (Table 2), e.g. RPC applied to a component that is not at its target.
    Coercion {
        /// The programming model the attribute encodes.
        model: ModelKind,
        /// Where the component actually was.
        situation: Situation,
    },
    /// The combination is marked "n/a" in Table 2 (cannot arise); reported
    /// if an application manufactures it anyway.
    NotApplicable {
        /// The programming model the attribute encodes.
        model: ModelKind,
        /// The impossible situation.
        situation: Situation,
    },
    /// A mobility attribute produced an invalid plan (e.g. an unknown
    /// target namespace).
    BadPlan(String),
    /// The remote side denied the operation (trust or quota policy).
    Denied(String),
    /// A peer needed by the operation never answered within the retry
    /// budget: it crashed, is partitioned away, or is silently dropping
    /// traffic. The operation did *not* hang — this is its typed outcome.
    Unreachable {
        /// Raw node id of the unreachable peer.
        peer: u32,
    },
    /// The invocation reached an object that answers to the right *name*
    /// but is a different *incarnation* than the stub or cache expected:
    /// the original died with a crash (or was replaced) and something
    /// else now holds the name — including a re-created copy coexisting
    /// with a partitioned-away original after a heal. The fresh
    /// incarnation rides along so the session can explicitly rebind; the
    /// runtime never silently rebinds a stale stub.
    StaleIdentity {
        /// Name the stub was bound to.
        object: String,
        /// Incarnation the caller expected.
        expected: u64,
        /// Incarnation actually hosted under the name now.
        fresh: u64,
    },
    /// An underlying RMI call failed.
    Rmi(String),
    /// The simulation could not complete the operation.
    Sim(String),
    /// Marshalling failed.
    Codec(String),
}

impl fmt::Display for MageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MageError::NotFound(name) => write!(f, "component {name:?} not found"),
            MageError::ClassUnavailable(name) => {
                write!(f, "class {name:?} unavailable")
            }
            MageError::Coercion { model, situation } => write!(
                f,
                "{model} invocation invalid for component situation {situation}"
            ),
            MageError::NotApplicable { model, situation } => write!(
                f,
                "{model} cannot arise with component situation {situation}"
            ),
            MageError::BadPlan(msg) => write!(f, "invalid bind plan: {msg}"),
            MageError::Denied(msg) => write!(f, "denied: {msg}"),
            MageError::Unreachable { peer } => {
                write!(f, "peer n{peer} unreachable (crashed or partitioned)")
            }
            MageError::StaleIdentity {
                object,
                expected,
                fresh,
            } => write!(
                f,
                "stale stub: {object:?} is now incarnation {fresh} (stub expected {expected}); \
                 rebind to talk to the current object"
            ),
            MageError::Rmi(msg) => write!(f, "rmi failure: {msg}"),
            MageError::Sim(msg) => write!(f, "simulation failure: {msg}"),
            MageError::Codec(msg) => write!(f, "marshalling failure: {msg}"),
        }
    }
}

impl Error for MageError {}

impl From<RmiError> for MageError {
    fn from(err: RmiError) -> Self {
        match err {
            RmiError::PeerUnreachable { peer, .. } => MageError::Unreachable {
                peer: peer.as_raw(),
            },
            other => MageError::Rmi(other.to_string()),
        }
    }
}

impl From<SimError> for MageError {
    fn from(err: SimError) -> Self {
        MageError::Sim(err.to_string())
    }
}

impl From<mage_codec::EncodeError> for MageError {
    fn from(err: mage_codec::EncodeError) -> Self {
        MageError::Codec(err.to_string())
    }
}

impl From<mage_codec::DecodeError> for MageError {
    fn from(err: mage_codec::DecodeError) -> Self {
        MageError::Codec(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_subject() {
        assert!(MageError::NotFound("geoData".into())
            .to_string()
            .contains("geoData"));
        assert!(MageError::Denied("quota".into())
            .to_string()
            .contains("quota"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let rmi: MageError = RmiError::Timeout { attempts: 4 }.into();
        assert!(matches!(rmi, MageError::Rmi(_)));
        let dead: MageError = RmiError::PeerUnreachable {
            peer: mage_sim::NodeId::from_raw(3),
            attempts: 4,
        }
        .into();
        assert_eq!(dead, MageError::Unreachable { peer: 3 });
        let sim: MageError = SimError::Stalled.into();
        assert!(matches!(sim, MageError::Sim(_)));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MageError>();
    }
}
