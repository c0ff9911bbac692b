//! Object References: identity + preference-ordered protocol table.
//!
//! An OR is plain data — it travels in registry lookups, in `Moved` replies,
//! and between client processes (the paper's "capabilities can be exchanged
//! between processes" is literally ORs with glue entries being XDR-encoded
//! and handed around).

use crate::capability::CapabilitySpec;
use crate::ids::{ObjectId, ProtocolId};
use ohpc_netsim::Location;
use ohpc_xdr::{xdr_struct, xdr_union, Array, Mirror, XdrError};

/// Longest capability chain a glue entry may carry (and so the most entries
/// a frame's glue section may hold).
pub const MAX_CHAIN: usize = 64;

/// Most rows an OR's protocol table may have.
pub const MAX_PROTOCOLS: usize = 64;

xdr_union! {
    /// Protocol-specific data for one table entry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ProtoData {
        /// A dialable address, stringified (`tcp://…`, `mem://…`, `sim://M2:7`).
        0 => Endpoint(String),
        /// Glue pseudo-protocol: a capability chain wrapped around an inner entry.
        1 => Glue {
            /// Identifies the matching server-side chain instance.
            glue_id: u64,
            /// The chain, in processing order.
            caps: Vec<CapabilitySpec> as Array<MAX_CHAIN>,
            /// The real protocol that moves the bytes.
            inner: Box<ProtoEntry>,
        },
    }
}

xdr_struct! {
    /// One row of an OR's protocol table.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProtoEntry {
        /// Which protocol this row names.
        pub id: ProtocolId,
        /// Its proto-data.
        pub data: ProtoData,
    }
}

impl ProtoEntry {
    /// Convenience: a plain endpoint entry.
    pub fn endpoint(id: ProtocolId, ep: impl Into<String>) -> Self {
        Self { id, data: ProtoData::Endpoint(ep.into()) }
    }

    /// Convenience: a glue entry wrapping `inner`.
    pub fn glue(glue_id: u64, caps: Vec<CapabilitySpec>, inner: ProtoEntry) -> Self {
        Self {
            id: ProtocolId::GLUE,
            data: ProtoData::Glue { glue_id, caps, inner: Box::new(inner) },
        }
    }

    /// The dialable endpoint string, digging through glue wrapping.
    pub fn terminal_endpoint(&self) -> &str {
        match &self.data {
            ProtoData::Endpoint(ep) => ep,
            ProtoData::Glue { inner, .. } => inner.terminal_endpoint(),
        }
    }

    /// The protocol that actually moves bytes for this entry, digging
    /// through glue wrapping — the identity endpoint health is tracked
    /// under, so a glue entry and a plain entry over the same wire share
    /// one circuit breaker.
    pub fn terminal_protocol(&self) -> ProtocolId {
        match &self.data {
            ProtoData::Endpoint(_) => self.id,
            ProtoData::Glue { inner, .. } => inner.terminal_protocol(),
        }
    }

    /// Depth of glue nesting (0 for a plain entry).
    pub fn glue_depth(&self) -> usize {
        match &self.data {
            ProtoData::Endpoint(_) => 0,
            ProtoData::Glue { inner, .. } => 1 + inner.glue_depth(),
        }
    }
}

xdr_struct! {
    /// [`Location`]'s wire mirror: the three ids as words.
    struct LocationWire {
        machine: u32,
        lan: u32,
        site: u32,
    }
}

impl From<&Location> for LocationWire {
    fn from(l: &Location) -> Self {
        Self { machine: l.machine.0, lan: l.lan.0, site: l.site.0 }
    }
}

impl From<LocationWire> for Location {
    fn from(w: LocationWire) -> Self {
        Location::with_site(w.machine, w.lan, w.site)
    }
}

xdr_struct! {
    /// An Object Reference.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ObjectReference {
        /// The object's global identity.
        pub object: ObjectId,
        /// Interface type name (matches the skeleton's `type_name`).
        pub type_name: String,
        /// Where the object currently lives — inputs to applicability checks.
        pub location: Location as Mirror<LocationWire>,
        /// Preference-ordered protocol table.
        pub protocols: Vec<ProtoEntry> as Array<MAX_PROTOCOLS>,
    }
}

impl ObjectReference {
    /// Serializes for hand-off (registry storage, message payloads).
    pub fn to_bytes(&self) -> Vec<u8> {
        ohpc_xdr::encode_to_vec(self)
    }

    /// Deserializes an OR received from elsewhere.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, XdrError> {
        ohpc_xdr::decode_from_slice(buf)
    }

    /// Returns a copy whose protocol table keeps only entries satisfying
    /// `keep` — the paper's "different GPs to a single server object may
    /// contain ORs with different protocol tables": a server can hand a
    /// restricted OR to an untrusted client.
    pub fn restricted(&self, keep: impl Fn(&ProtoEntry) -> bool) -> Self {
        Self {
            object: self.object,
            type_name: self.type_name.clone(),
            location: self.location,
            protocols: self.protocols.iter().filter(|e| keep(e)).cloned().collect(),
        }
    }

    /// Protocol ids offered, in preference order.
    pub fn offered(&self) -> Vec<ProtocolId> {
        self.protocols.iter().map(|e| e.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ohpc_xdr::XdrWriter;

    fn spec(name: &str) -> CapabilitySpec {
        CapabilitySpec { name: name.into(), config: Bytes::new() }
    }

    fn sample() -> ObjectReference {
        ObjectReference {
            object: ObjectId(0xAB),
            type_name: "Weather".into(),
            location: Location::new(3, 1),
            protocols: vec![
                ProtoEntry::glue(
                    7,
                    vec![spec("timeout"), spec("encrypt")],
                    ProtoEntry::endpoint(ProtocolId::TCP, "tcp://10.0.0.1:99"),
                ),
                ProtoEntry::endpoint(ProtocolId::SHM, "mem://4"),
                ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "tcp://10.0.0.1:98"),
            ],
        }
    }

    #[test]
    fn or_roundtrips() {
        let or = sample();
        let back = ObjectReference::from_bytes(&or.to_bytes()).unwrap();
        assert_eq!(back, or);
    }

    #[test]
    fn nested_glue_roundtrips() {
        let inner = ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1");
        let mid = ProtoEntry::glue(1, vec![spec("compress")], inner);
        let outer = ProtoEntry::glue(2, vec![spec("encrypt")], mid);
        assert_eq!(outer.glue_depth(), 2);
        assert_eq!(outer.terminal_endpoint(), "tcp://h:1");
        let buf = ohpc_xdr::encode_to_vec(&outer);
        let back: ProtoEntry = ohpc_xdr::decode_from_slice(&buf).unwrap();
        assert_eq!(back, outer);
    }

    #[test]
    fn restriction_filters_table() {
        let or = sample();
        let restricted = or.restricted(|e| e.id != ProtocolId::SHM);
        assert_eq!(restricted.offered(), vec![ProtocolId::GLUE, ProtocolId::NEXUS_TCP]);
        // original untouched
        assert_eq!(or.protocols.len(), 3);
        assert_eq!(restricted.object, or.object);
    }

    #[test]
    fn offered_preserves_preference_order() {
        assert_eq!(
            sample().offered(),
            vec![ProtocolId::GLUE, ProtocolId::SHM, ProtocolId::NEXUS_TCP]
        );
    }

    #[test]
    fn oversized_chain_rejected() {
        let mut w = XdrWriter::new();
        w.put_u32(1); // glue tag
        w.put_u64(1);
        w.put_array_len(1000); // absurd chain
        let buf = w.finish();
        assert!(ohpc_xdr::decode_from_slice::<ProtoData>(&buf).is_err());
    }
}
