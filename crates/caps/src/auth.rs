//! The `auth` capability: per-request HMAC authentication.
//!
//! The paper's supercomputer site "may want to use authentication for
//! clients connecting over the Internet … Some clients may be local to the
//! national lab, and so do not need to be authenticated". Accordingly this
//! capability:
//!
//! * tags every message with `HMAC-SHA-256(key, direction ‖ call-info ‖ body)`
//!   plus the client principal name, proving knowledge of the pre-shared key
//!   and binding the MAC to the exact method invocation;
//! * verifies in constant time and **denies** on mismatch;
//! * is (configurably) applicable only across LANs — the paper's Figure 3
//!   scenario, where migrating the server flips which client authenticates.

use std::sync::Arc;

use bytes::Bytes;

use ohpc_crypto::{ct_eq, HmacSha256, KeyStore};
use ohpc_orb::capability::{CallInfo, CapMeta};
use ohpc_orb::Location;
use ohpc_orb::{CapError, Capability, CapabilitySpec, Direction};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};

use crate::{bad_config, CapScope};

/// Wire name of this capability.
pub const NAME: &str = "auth";

/// HMAC-based authentication capability.
pub struct AuthCap {
    key: Arc<[u8; 32]>,
    principal: String,
    scope: CapScope,
}

impl AuthCap {
    /// Builds a spec: `key_name` selects the pre-shared key, `principal`
    /// names the client identity, `scope` limits where authentication is
    /// active (the common site policy is [`CapScope::CrossLan`] or
    /// [`CapScope::CrossSite`]).
    pub fn spec(key_name: &str, principal: &str, scope: CapScope) -> CapabilitySpec {
        let mut w = XdrWriter::new();
        key_name.encode(&mut w);
        principal.encode(&mut w);
        scope.encode(&mut w);
        CapabilitySpec::with_config(NAME, w.finish())
    }

    /// Builds the capability from its spec and the local key store.
    pub fn from_spec(spec: &CapabilitySpec, keys: &KeyStore) -> Result<Self, CapError> {
        let mut r = XdrReader::new(&spec.config);
        let key_name = String::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        let principal = String::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        let scope = CapScope::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        let key = keys
            .get_by_name(&key_name)
            .ok_or_else(|| CapError::Failed(format!("no key named '{key_name}' in local store")))?;
        Ok(Self { key, principal, scope })
    }

    fn mac(&self, dir: Direction, call: &CallInfo, body: &[u8]) -> [u8; 32] {
        let mut mac = HmacSha256::new(self.key.as_ref());
        mac.update(match dir {
            Direction::Request => b"req",
            Direction::Reply => b"rep",
        });
        mac.update(&call.to_bytes());
        mac.update(self.principal.as_bytes());
        mac.update(body);
        mac.finalize()
    }
}

impl Capability for AuthCap {
    fn name(&self) -> &str {
        NAME
    }

    fn applicable(&self, client: &Location, server: &Location) -> bool {
        self.scope.applies(client, server)
    }

    fn process(
        &self,
        dir: Direction,
        call: &CallInfo,
        meta: &mut CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        meta.set("principal", &self.principal);
        meta.set("mac", self.mac(dir, call, &body));
        Ok(body)
    }

    fn unprocess(
        &self,
        dir: Direction,
        call: &CallInfo,
        meta: &CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        let claimed_principal = meta.require("principal")?;
        if claimed_principal.as_ref() != self.principal.as_bytes() {
            return Err(CapError::Denied(format!(
                "principal mismatch: expected '{}'",
                self.principal
            )));
        }
        let claimed_mac = meta.require("mac")?;
        let expected = self.mac(dir, call, &body);
        if !ct_eq(claimed_mac, &expected) {
            return Err(CapError::Denied("authentication failed: bad MAC".into()));
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_orb::{ObjectId, RequestId};

    fn call() -> CallInfo {
        CallInfo { object: ObjectId(10), method: 4, request_id: RequestId(77) }
    }

    fn keys() -> KeyStore {
        let mut ks = KeyStore::new();
        ks.add_key("site", b"shared secret");
        ks
    }

    fn cap(cross_lan_only: bool) -> AuthCap {
        let scope = if cross_lan_only { CapScope::CrossLan } else { CapScope::Always };
        AuthCap::from_spec(&AuthCap::spec("site", "client-42", scope), &keys()).unwrap()
    }

    #[test]
    fn valid_mac_passes_and_body_untouched() {
        let c = cap(false);
        let body = Bytes::from_static(b"payload");
        let mut meta = CapMeta::new();
        let out = c.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();
        assert_eq!(out, body);
        let verified = c.unprocess(Direction::Request, &call(), &meta, out).unwrap();
        assert_eq!(verified, body);
    }

    #[test]
    fn tampered_body_denied() {
        let c = cap(false);
        let mut meta = CapMeta::new();
        c.process(Direction::Request, &call(), &mut meta, Bytes::from_static(b"payload")).unwrap();
        let err = c
            .unprocess(Direction::Request, &call(), &meta, Bytes::from_static(b"PAYLOAD"))
            .unwrap_err();
        assert!(matches!(err, CapError::Denied(_)));
    }

    #[test]
    fn mac_bound_to_method_and_direction() {
        let c = cap(false);
        let body = Bytes::from_static(b"x");
        let mut meta = CapMeta::new();
        c.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();

        // replay against a different method slot
        let mut other = call();
        other.method = 9;
        assert!(c.unprocess(Direction::Request, &other, &meta, body.clone()).is_err());
        // replay in the other direction
        assert!(c.unprocess(Direction::Reply, &call(), &meta, body).is_err());
    }

    #[test]
    fn wrong_key_denied() {
        let client = cap(false);
        let mut other_keys = KeyStore::new();
        other_keys.add_key("site", b"not the same secret");
        let server =
            AuthCap::from_spec(&AuthCap::spec("site", "client-42", CapScope::Always), &other_keys)
                .unwrap();
        let mut meta = CapMeta::new();
        let body = Bytes::from_static(b"data");
        client.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();
        assert!(matches!(
            server.unprocess(Direction::Request, &call(), &meta, body).unwrap_err(),
            CapError::Denied(_)
        ));
    }

    #[test]
    fn wrong_principal_denied() {
        let client =
            AuthCap::from_spec(&AuthCap::spec("site", "mallory", CapScope::Always), &keys())
                .unwrap();
        let server = cap(false);
        let mut meta = CapMeta::new();
        let body = Bytes::from_static(b"data");
        client.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();
        assert!(matches!(
            server.unprocess(Direction::Request, &call(), &meta, body).unwrap_err(),
            CapError::Denied(_)
        ));
    }

    #[test]
    fn applicability_follows_lan_topology() {
        let c = cap(true);
        let server = Location::new(0, 0);
        assert!(!c.applicable(&Location::new(1, 0), &server), "same LAN → not applicable");
        assert!(c.applicable(&Location::new(2, 1), &server), "cross LAN → applicable");
        let always = cap(false);
        assert!(always.applicable(&Location::new(1, 0), &server));
    }

    #[test]
    fn missing_meta_fails() {
        let c = cap(false);
        let empty = CapMeta::new();
        assert!(c
            .unprocess(Direction::Request, &call(), &empty, Bytes::from_static(b"x"))
            .is_err());
    }
}
