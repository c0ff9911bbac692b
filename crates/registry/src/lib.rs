//! Naming service for Open HPC++.
//!
//! A registry maps names to serialized [`ObjectReference`]s. Because ORs
//! carry their protocol tables — including glue entries with capability
//! chains — binding a name *is* publishing a capability set, and looking one
//! up *is* receiving it: the paper's "capabilities can be exchanged between
//! processes" needs no extra machinery.
//!
//! The registry is itself a remote object (interface declared with
//! [`remote_interface!`]), so any process that can reach the registry's
//! context can bind and resolve. [`LocalRegistry`] is the embeddable
//! implementation; [`RegistryClient`] is the generated typed stub.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::collections::HashMap;

use parking_lot::RwLock;

use ohpc_orb::remote_interface;
use ohpc_orb::{ObjectReference, OrbError};

remote_interface! {
    type_name = "Registry";
    trait RegistryApi;
    skeleton RegistrySkeleton;
    client RegistryClient;
    fn bind(name: String, or_bytes: Vec<u8>) -> bool = 1;
    fn rebind(name: String, or_bytes: Vec<u8>) -> bool = 2;
    fn resolve(name: String) -> Vec<u8> = 3;
    fn unbind(name: String) -> bool = 4;
    fn list(prefix: String) -> Vec<String> = 5;
}

/// In-memory name table implementing [`RegistryApi`].
#[derive(Default)]
pub struct LocalRegistry {
    entries: RwLock<HashMap<String, Vec<u8>>>,
}

impl LocalRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct (non-remote) bind, for in-process publishers.
    pub fn bind_or(&self, name: &str, or: &ObjectReference) -> bool {
        let mut map = self.entries.write();
        if map.contains_key(name) {
            return false;
        }
        map.insert(name.to_string(), or.to_bytes());
        true
    }

    /// Direct (non-remote) resolve.
    pub fn resolve_or(&self, name: &str) -> Result<ObjectReference, OrbError> {
        let map = self.entries.read();
        let bytes = map
            .get(name)
            .ok_or_else(|| OrbError::Protocol(format!("no binding for '{name}'")))?;
        ObjectReference::from_bytes(bytes).map_err(OrbError::from)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when no names are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

impl RegistryApi for LocalRegistry {
    fn bind(&self, name: String, or_bytes: Vec<u8>) -> Result<bool, String> {
        // Validate before storing: a registry full of garbage ORs is worse
        // than a failed bind.
        ObjectReference::from_bytes(&or_bytes).map_err(|e| format!("invalid OR: {e}"))?;
        let mut map = self.entries.write();
        if map.contains_key(&name) {
            return Ok(false);
        }
        map.insert(name, or_bytes);
        Ok(true)
    }

    fn rebind(&self, name: String, or_bytes: Vec<u8>) -> Result<bool, String> {
        ObjectReference::from_bytes(&or_bytes).map_err(|e| format!("invalid OR: {e}"))?;
        let replaced = self.entries.write().insert(name, or_bytes).is_some();
        Ok(replaced)
    }

    fn resolve(&self, name: String) -> Result<Vec<u8>, String> {
        self.entries
            .read()
            .get(&name)
            .cloned()
            .ok_or_else(|| format!("no binding for '{name}'"))
    }

    fn unbind(&self, name: String) -> Result<bool, String> {
        Ok(self.entries.write().remove(&name).is_some())
    }

    fn list(&self, prefix: String) -> Result<Vec<String>, String> {
        let mut names: Vec<String> = self
            .entries
            .read()
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        names.sort();
        Ok(names)
    }
}

/// Convenience on the typed stub: resolve straight to an [`ObjectReference`].
impl RegistryClient {
    /// Resolves `name` and decodes the OR.
    pub fn resolve_or(&self, name: &str) -> Result<ObjectReference, OrbError> {
        let bytes = self.resolve(name.to_string())?;
        ObjectReference::from_bytes(&bytes).map_err(OrbError::from)
    }

    /// Binds `or` under `name` (fails if taken).
    pub fn bind_or(&self, name: &str, or: &ObjectReference) -> Result<bool, OrbError> {
        self.bind(name.to_string(), or.to_bytes())
    }

    /// Binds or replaces `or` under `name`.
    pub fn rebind_or(&self, name: &str, or: &ObjectReference) -> Result<bool, OrbError> {
        self.rebind(name.to_string(), or.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_orb::{ObjectId, ProtocolId};
    use ohpc_orb::objref::ProtoEntry;
    use ohpc_netsim::Location;

    fn sample_or(n: u64) -> ObjectReference {
        ObjectReference {
            object: ObjectId(n),
            type_name: "Weather".into(),
            location: Location::new(1, 1),
            protocols: vec![ProtoEntry::endpoint(ProtocolId::TCP, format!("tcp://h:{n}"))],
        }
    }

    #[test]
    fn bind_resolve_roundtrip() {
        let reg = LocalRegistry::new();
        let or = sample_or(1);
        assert!(reg.bind_or("svc/weather", &or));
        assert_eq!(reg.resolve_or("svc/weather").unwrap(), or);
    }

    #[test]
    fn double_bind_rejected_rebind_allowed() {
        let reg = LocalRegistry::new();
        assert!(reg.bind_or("x", &sample_or(1)));
        assert!(!reg.bind_or("x", &sample_or(2)));
        assert_eq!(reg.resolve_or("x").unwrap().object, ObjectId(1));
        assert!(reg.rebind("x".into(), sample_or(2).to_bytes()).unwrap());
        assert_eq!(reg.resolve_or("x").unwrap().object, ObjectId(2));
    }

    #[test]
    fn resolve_missing_errors() {
        let reg = LocalRegistry::new();
        assert!(reg.resolve_or("ghost").is_err());
        assert!(reg.resolve("ghost".into()).is_err());
    }

    #[test]
    fn unbind_removes() {
        let reg = LocalRegistry::new();
        reg.bind_or("a", &sample_or(1));
        assert!(reg.unbind("a".into()).unwrap());
        assert!(!reg.unbind("a".into()).unwrap());
        assert!(reg.is_empty());
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let reg = LocalRegistry::new();
        reg.bind_or("svc/b", &sample_or(1));
        reg.bind_or("svc/a", &sample_or(2));
        reg.bind_or("other", &sample_or(3));
        assert_eq!(reg.list("svc/".into()).unwrap(), vec!["svc/a", "svc/b"]);
        assert_eq!(reg.list("".into()).unwrap().len(), 3);
    }

    #[test]
    fn garbage_or_rejected_at_bind() {
        let reg = LocalRegistry::new();
        assert!(reg.bind("bad".into(), vec![1, 2, 3]).is_err());
        assert!(reg.rebind("bad".into(), vec![]).is_err());
        assert!(reg.is_empty());
    }
}
