//! Capability applicability scopes.
//!
//! The paper's capabilities decide *where* they want to be active: the
//! authentication capability "can be implemented so that it is applicable
//! only when the client and the server are on different LANs". `CapScope` is
//! that knob, serialized inside capability configs so both ends agree.

use ohpc_orb::Location;
use ohpc_xdr::xdr_enum;

xdr_enum! {
    /// Where a capability considers itself applicable.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum CapScope {
        /// Active for every client/server pair.
        #[default]
        Always = 0,
        /// Active only when client and server are on different LANs
        /// (including different sites).
        CrossLan = 1,
        /// Active only when client and server are on different sites —
        /// the "clients connecting over the Internet" tier.
        CrossSite = 2,
    }
}

impl CapScope {
    /// Evaluates the scope for a (client, server) pair.
    pub fn applies(&self, client: &Location, server: &Location) -> bool {
        use ohpc_orb::LinkClass;
        let class = client.class_to(server);
        match self {
            CapScope::Always => true,
            CapScope::CrossLan => matches!(class, LinkClass::CrossLan | LinkClass::CrossSite),
            CapScope::CrossSite => class == LinkClass::CrossSite,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_semantics() {
        let server = Location::new(0, 0);
        let same_machine = Location::new(0, 0);
        let same_lan = Location::new(1, 0);
        let cross_lan = Location::new(2, 1);
        let cross_site = Location::with_site(3, 2, 1);

        for (scope, expect) in [
            (CapScope::Always, [true, true, true, true]),
            (CapScope::CrossLan, [false, false, true, true]),
            (CapScope::CrossSite, [false, false, false, true]),
        ] {
            assert_eq!(scope.applies(&same_machine, &server), expect[0], "{scope:?}");
            assert_eq!(scope.applies(&same_lan, &server), expect[1], "{scope:?}");
            assert_eq!(scope.applies(&cross_lan, &server), expect[2], "{scope:?}");
            assert_eq!(scope.applies(&cross_site, &server), expect[3], "{scope:?}");
        }
    }

    #[test]
    fn xdr_roundtrip() {
        for scope in [CapScope::Always, CapScope::CrossLan, CapScope::CrossSite] {
            let buf = ohpc_xdr::encode_to_vec(&scope);
            assert_eq!(ohpc_xdr::decode_from_slice::<CapScope>(&buf).unwrap(), scope);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = ohpc_xdr::encode_to_vec(&9u32);
        assert!(ohpc_xdr::decode_from_slice::<CapScope>(&buf).is_err());
    }
}
