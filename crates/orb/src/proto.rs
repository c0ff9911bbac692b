//! Protocol objects and the proto-pool.

use std::sync::Arc;

use ohpc_netsim::{LinkClass, Location};

use crate::error::OrbError;
use crate::ids::ProtocolId;
use crate::message::{ReplyMessage, RequestMessage};
use crate::objref::ProtoEntry;

/// Where a protocol is willing to operate, relative to the client/server
/// locations. This is the paper's "applicability attribute": shared memory
/// only on the same machine, an authenticating glue only across LANs, …
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplicabilityRule {
    /// Usable anywhere.
    Always,
    /// Only when client and server share a machine.
    SameMachineOnly,
    /// Only when client and server share a LAN (including same machine).
    SameLanOnly,
    /// Only when client and server are on *different* machines.
    RemoteOnly,
    /// Only when client and server are on different LANs (same or different
    /// site).
    CrossLanOnly,
    /// Only when client and server are on different sites.
    CrossSiteOnly,
}

impl ApplicabilityRule {
    /// Evaluates the rule for a (client, server) pair.
    pub fn allows(&self, client: &Location, server: &Location) -> bool {
        let class = client.class_to(server);
        match self {
            ApplicabilityRule::Always => true,
            ApplicabilityRule::SameMachineOnly => class == LinkClass::SameMachine,
            ApplicabilityRule::SameLanOnly => {
                matches!(class, LinkClass::SameMachine | LinkClass::SameLan)
            }
            ApplicabilityRule::RemoteOnly => class != LinkClass::SameMachine,
            ApplicabilityRule::CrossLanOnly => {
                matches!(class, LinkClass::CrossLan | LinkClass::CrossSite)
            }
            ApplicabilityRule::CrossSiteOnly => class == LinkClass::CrossSite,
        }
    }
}

/// A protocol object: encapsulates one communication protocol on the client
/// side. The ORB invokes the selected proto-object with a fully marshaled
/// request; everything below this line is the protocol's business.
///
/// Both methods receive the caller's [`ProtoPool`] because the glue
/// pseudo-protocol delegates to whatever *real* protocol its entry wraps —
/// resolved against the same pool, exactly like top-level selection.
pub trait ProtoObject: Send + Sync {
    /// The protocol this object implements.
    fn protocol_id(&self) -> ProtocolId;

    /// Whether this proto-object may serve a request from `client` to the
    /// server described by `entry`/`server`.
    fn applicable(
        &self,
        pool: &ProtoPool,
        client: &Location,
        server: &Location,
        entry: &ProtoEntry,
    ) -> bool;

    /// Performs one remote request using `entry`'s proto-data.
    fn invoke(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<ReplyMessage, OrbError>;

    /// Like [`invoke`](Self::invoke), carrying the caller's remaining
    /// deadline budget (`None` = no deadline). Transport-backed protocols
    /// arm a receive timeout from it so a hung (not crashed) server cannot
    /// block past the [`ohpc_resilience::RetryPolicy`] deadline; the glue
    /// pseudo-protocol forwards it to its inner protocol. The default
    /// ignores the budget — correct for protocols without a blocking wait.
    fn invoke_with_deadline(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
        remaining_ns: Option<u64>,
    ) -> Result<ReplyMessage, OrbError> {
        let _ = remaining_ns;
        self.invoke(pool, entry, req)
    }

    /// Fires a one-way request: no reply is read. The default performs a
    /// full round trip and discards the reply; transports that can genuinely
    /// fire-and-forget override it.
    fn invoke_oneway(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<(), OrbError> {
        self.invoke(pool, entry, req).map(|_| ())
    }

    /// Human-readable description for experiment logs (e.g.
    /// `glue[timeout+security]->tcp`).
    fn describe(&self, entry: &ProtoEntry) -> String {
        let _ = entry;
        self.protocol_id().to_string()
    }
}

/// Preference-ordered repository of proto-objects available to a client.
///
/// The pool is itself part of the *local* policy: an administrator who does
/// not install a shared-memory proto-object has disabled that protocol no
/// matter what servers offer (the paper's "user control over the protocol
/// selection process").
///
/// Editing needs `&mut`, and a GP holds its pool as `Arc<ProtoPool>`, so a
/// bound GP's pool never changes: its rows are resolved against the pool
/// once, when it binds.
#[derive(Clone, Default)]
pub struct ProtoPool {
    protos: Vec<Arc<dyn ProtoObject>>,
}

impl ProtoPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a proto-object (lowest preference so far).
    pub fn push(&mut self, proto: Arc<dyn ProtoObject>) -> &mut Self {
        self.protos.push(proto);
        self
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, proto: Arc<dyn ProtoObject>) -> Self {
        self.protos.push(proto);
        self
    }

    /// First pool entry implementing `id` (pool preference order).
    pub fn find(&self, id: ProtocolId) -> Option<Arc<dyn ProtoObject>> {
        self.protos.iter().find(|p| p.protocol_id() == id).cloned()
    }

    /// All protocol ids present, in preference order (with duplicates).
    pub fn ids(&self) -> Vec<ProtocolId> {
        self.protos.iter().map(|p| p.protocol_id()).collect()
    }

    /// Number of proto-objects installed.
    pub fn len(&self) -> usize {
        self.protos.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.protos.is_empty()
    }

    /// Removes every proto-object implementing `id`, returning how many were
    /// removed. Dynamic pool editing is one of the paper's adaptivity hooks.
    pub fn remove(&mut self, id: ProtocolId) -> usize {
        let before = self.protos.len();
        self.protos.retain(|p| p.protocol_id() != id);
        before - self.protos.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ohpc_netsim::Location;

    struct FakeProto(ProtocolId);
    impl ProtoObject for FakeProto {
        fn protocol_id(&self) -> ProtocolId {
            self.0
        }
        fn applicable(
            &self,
            _pool: &ProtoPool,
            _c: &Location,
            _s: &Location,
            _e: &ProtoEntry,
        ) -> bool {
            true
        }
        fn invoke(
            &self,
            _pool: &ProtoPool,
            _e: &ProtoEntry,
            req: &RequestMessage,
        ) -> Result<ReplyMessage, OrbError> {
            Ok(ReplyMessage::ok(req.request_id, Bytes::new()))
        }
    }

    #[test]
    fn applicability_rules() {
        let same_machine = (Location::new(1, 1), Location::new(1, 1));
        let same_lan = (Location::new(1, 1), Location::new(2, 1));
        let cross_lan = (Location::new(1, 1), Location::new(3, 2));
        let cross_site = (Location::new(1, 1), Location::with_site(4, 1, 2));

        for (rule, expect) in [
            (ApplicabilityRule::Always, [true, true, true, true]),
            (ApplicabilityRule::SameMachineOnly, [true, false, false, false]),
            (ApplicabilityRule::SameLanOnly, [true, true, false, false]),
            (ApplicabilityRule::RemoteOnly, [false, true, true, true]),
            (ApplicabilityRule::CrossLanOnly, [false, false, true, true]),
            (ApplicabilityRule::CrossSiteOnly, [false, false, false, true]),
        ] {
            assert_eq!(rule.allows(&same_machine.0, &same_machine.1), expect[0], "{rule:?} same machine");
            assert_eq!(rule.allows(&same_lan.0, &same_lan.1), expect[1], "{rule:?} same lan");
            assert_eq!(rule.allows(&cross_lan.0, &cross_lan.1), expect[2], "{rule:?} cross lan");
            assert_eq!(rule.allows(&cross_site.0, &cross_site.1), expect[3], "{rule:?} cross site");
        }
    }

    #[test]
    fn pool_find_respects_order() {
        let pool = ProtoPool::new()
            .with(Arc::new(FakeProto(ProtocolId::TCP)))
            .with(Arc::new(FakeProto(ProtocolId::SHM)))
            .with(Arc::new(FakeProto(ProtocolId::TCP)));
        assert_eq!(pool.len(), 3);
        assert!(pool.find(ProtocolId::SHM).is_some());
        assert!(pool.find(ProtocolId::NEXUS_TCP).is_none());
        assert_eq!(pool.ids(), vec![ProtocolId::TCP, ProtocolId::SHM, ProtocolId::TCP]);
    }

    #[test]
    fn pool_remove() {
        let mut pool = ProtoPool::new()
            .with(Arc::new(FakeProto(ProtocolId::TCP)))
            .with(Arc::new(FakeProto(ProtocolId::SHM)))
            .with(Arc::new(FakeProto(ProtocolId::TCP)));
        assert_eq!(pool.remove(ProtocolId::TCP), 2);
        assert_eq!(pool.ids(), vec![ProtocolId::SHM]);
        assert_eq!(pool.remove(ProtocolId::TCP), 0);
    }
}
