//! Identifier newtypes used across the ORB.

use ohpc_xdr::xdr_struct;

macro_rules! id_u64 {
    ($(#[$doc:meta])* $name:ident) => {
        xdr_struct! {
            $(#[$doc])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
            pub struct $name(pub u64);
        }
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

id_u64! {
    /// Identifies a server object within the whole application. Allocated by
    /// the context that first registers the object; globally unique because
    /// it embeds the context id in the high bits.
    ObjectId
}

id_u64! {
    /// Identifies a context (virtual address space).
    ContextId
}

id_u64! {
    /// Per-connection request sequence number.
    RequestId
}

impl ObjectId {
    /// Builds an object id from its owning context and a local counter.
    pub fn compose(ctx: ContextId, local: u32) -> Self {
        ObjectId((ctx.0 << 32) | local as u64)
    }

    /// The context that allocated this id.
    pub fn context(self) -> ContextId {
        ContextId(self.0 >> 32)
    }

    /// The context-local counter part of this id.
    pub fn local(self) -> u32 {
        self.0 as u32
    }
}

xdr_struct! {
    /// Identifies a communication protocol in OR tables and proto-pools.
    ///
    /// The constants below are conventions used by the built-in proto-objects;
    /// applications may mint their own ids for custom protocols (the paper's
    /// "users write their own proto-classes" aspect).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct ProtocolId(pub u16);
}

impl ProtocolId {
    /// TCP with XDR encoding.
    pub const TCP: ProtocolId = ProtocolId(1);
    /// Same-machine shared-memory channel.
    pub const SHM: ProtocolId = ProtocolId(2);
    /// Nexus remote-service-request over TCP.
    pub const NEXUS_TCP: ProtocolId = ProtocolId(3);
    /// The glue pseudo-protocol carrying a capability chain.
    pub const GLUE: ProtocolId = ProtocolId(100);
}

impl std::fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProtocolId::TCP => write!(f, "tcp"),
            ProtocolId::SHM => write!(f, "shm"),
            ProtocolId::NEXUS_TCP => write!(f, "nexus-tcp"),
            ProtocolId::GLUE => write!(f, "glue"),
            ProtocolId(other) => write!(f, "proto-{other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_xdr::{decode_from_slice, encode_to_vec};

    #[test]
    fn object_id_composition() {
        let ctx = ContextId(7);
        let id = ObjectId::compose(ctx, 42);
        assert_eq!(id.context(), ctx);
        assert_eq!(id.local(), 42);
        assert_eq!(id.0 & 0xFFFF_FFFF, 42);
    }

    #[test]
    fn ids_roundtrip_xdr() {
        let id = ObjectId(0xDEADBEEF_12345678);
        assert_eq!(decode_from_slice::<ObjectId>(&encode_to_vec(&id)).unwrap(), id);
        let p = ProtocolId::NEXUS_TCP;
        assert_eq!(decode_from_slice::<ProtocolId>(&encode_to_vec(&p)).unwrap(), p);
    }

    #[test]
    fn protocol_id_rejects_oversized() {
        let buf = encode_to_vec(&70000u32);
        assert!(decode_from_slice::<ProtocolId>(&buf).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(ProtocolId::TCP.to_string(), "tcp");
        assert_eq!(ProtocolId::GLUE.to_string(), "glue");
        assert_eq!(ProtocolId(9).to_string(), "proto-9");
        assert_eq!(ObjectId(3).to_string(), "ObjectId#3");
    }
}
