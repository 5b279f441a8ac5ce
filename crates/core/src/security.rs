//! Trust domains (§7 future work, implemented here).
//!
//! The paper notes "Currently, MAGE trusts its constituent servers" and
//! plans an access-control model for WANs fragmented into competing
//! administrative domains. This module provides that extension: each
//! namespace carries a [`TrustPolicy`] consulted before accepting inbound
//! objects, classes or instantiation requests.

use std::collections::BTreeSet;

use mage_sim::NodeId;

/// Which peers a namespace accepts mobile code and objects from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TrustPolicy {
    /// Accept from any peer (the paper's current MAGE).
    #[default]
    TrustAll,
    /// Accept only from the listed peers.
    AllowList(BTreeSet<NodeId>),
}

impl TrustPolicy {
    /// Whether `peer` may push components into this namespace.
    pub fn admits(&self, peer: NodeId) -> bool {
        match self {
            TrustPolicy::TrustAll => true,
            TrustPolicy::AllowList(allowed) => allowed.contains(&peer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_trusts_everyone() {
        let policy = TrustPolicy::default();
        assert!(policy.admits(NodeId::from_raw(0)));
        assert!(policy.admits(NodeId::from_raw(77)));
    }

    #[test]
    fn allow_list_admits_only_members() {
        let policy =
            TrustPolicy::AllowList(BTreeSet::from([NodeId::from_raw(1), NodeId::from_raw(3)]));
        assert!(policy.admits(NodeId::from_raw(1)));
        assert!(policy.admits(NodeId::from_raw(3)));
        assert!(!policy.admits(NodeId::from_raw(2)));
    }

    #[test]
    fn empty_allow_list_admits_nobody() {
        let policy = TrustPolicy::AllowList(BTreeSet::from([]));
        assert!(!policy.admits(NodeId::from_raw(0)));
    }
}
