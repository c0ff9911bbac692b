//! The capability abstraction.
//!
//! A capability encapsulates one remote-access attribute — encryption,
//! authentication, a request budget, compression, auditing. Concrete
//! implementations live in the `ohpc-caps` crate; this module defines:
//!
//! * [`Capability`] — the transform/inverse-transform contract plus the
//!   applicability predicate the selection algorithm consults;
//! * [`CapabilitySpec`] — the *wire form* of a capability (name + config),
//!   which is what ORs carry and processes exchange;
//! * [`CapabilityRegistry`] — per-process factory turning specs into live
//!   instances (the local trust environment: key stores, budgets);
//! * [`CapChain`] and the two chain entry points enforcing the paper's
//!   ordering: sender applies the chain in order, receiver inverts it in
//!   reverse order, replies mirror it.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use ohpc_netsim::Location;
use ohpc_telemetry::{Histogram, Registry};
use ohpc_xdr::{xdr_struct, XdrError, XdrReader, XdrWriter};

use crate::message::CapWireMeta;

/// Immutable facts about the call a capability is processing: the target
/// object, the method slot and the request sequence number. Capabilities use
/// these to scope decisions (per-method ACLs) and to bind MACs to the header
/// so a recorded body cannot be replayed against a different method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallInfo {
    /// Target object.
    pub object: crate::ids::ObjectId,
    /// Method slot.
    pub method: u32,
    /// Request sequence number.
    pub request_id: crate::ids::RequestId,
}

impl CallInfo {
    /// Canonical byte encoding, for MAC computations.
    pub fn to_bytes(&self) -> [u8; 20] {
        let mut out = [0u8; 20];
        out[..8].copy_from_slice(&self.object.0.to_be_bytes());
        out[8..12].copy_from_slice(&self.method.to_be_bytes());
        out[12..20].copy_from_slice(&self.request_id.0.to_be_bytes());
        out
    }
}

/// Which way a message is travelling through the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    Request,
    /// Server → client.
    Reply,
}

impl Direction {
    /// Stable label used as the `dir` telemetry label value.
    pub fn as_label(self) -> &'static str {
        match self {
            Direction::Request => "request",
            Direction::Reply => "reply",
        }
    }
}

/// Capability failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapError {
    /// The capability refuses the operation (budget exhausted, bad MAC,
    /// unauthenticated peer, lease expired, …). Deny reasons travel to the
    /// peer as `CapabilityDenied`.
    Denied(String),
    /// The request's time budget expired before dispatch (the deadline
    /// cap's shed path). Travels to the peer as `DeadlineExpired` — a
    /// distinct, non-retryable class — not as a capability denial.
    Expired(String),
    /// The transform itself failed (corrupt data, bad config).
    Failed(String),
    /// A spec named a capability the local registry cannot build.
    Unknown(String),
}

impl std::fmt::Display for CapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapError::Denied(m) => write!(f, "denied: {m}"),
            CapError::Expired(m) => write!(f, "expired: {m}"),
            CapError::Failed(m) => write!(f, "failed: {m}"),
            CapError::Unknown(name) => write!(f, "unknown capability '{name}'"),
        }
    }
}

impl std::error::Error for CapError {}

/// Per-message, per-capability metadata side channel.
///
/// `process` writes entries (a nonce, a MAC, a token); the bytes travel in
/// the frame's glue section; the receiving side's `unprocess` reads them.
#[derive(Debug, Default, Clone)]
pub struct CapMeta {
    entries: HashMap<String, Bytes>,
}

impl CapMeta {
    /// Empty metadata.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `key`.
    pub fn set(&mut self, key: &str, value: impl Into<Bytes>) {
        self.entries.insert(key.to_string(), value.into());
    }

    /// Fetches `key`.
    pub fn get(&self, key: &str) -> Option<&Bytes> {
        self.entries.get(key)
    }

    /// Fetches `key` or errors with a consistent message.
    pub fn require(&self, key: &str) -> Result<&Bytes, CapError> {
        self.get(key)
            .ok_or_else(|| CapError::Failed(format!("missing capability metadata '{key}'")))
    }

    /// Serializes to the wire blob carried in the glue section.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = XdrWriter::new();
        // deterministic order so MACs over metadata are stable
        let mut entries: Vec<(&String, &Bytes)> = self.entries.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_array_len(entries.len());
        for (k, v) in entries {
            w.put_string(k);
            w.put_opaque(v);
        }
        w.finish()
    }

    /// Parses a wire blob.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, XdrError> {
        let mut r = XdrReader::new(buf);
        let n = r.get_array_len()?;
        if n > 64 {
            return Err(XdrError::custom("capability metadata too large"));
        }
        let mut entries = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = r.get_string()?;
            let v = Bytes::copy_from_slice(r.get_opaque()?);
            entries.insert(k, v);
        }
        Ok(Self { entries })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A remote-access capability.
///
/// Invariant (checked by property tests across all shipped capabilities):
/// for any body `b` and fresh meta `m`,
/// `unprocess(dir, &m', process(dir, &mut m', b)) == b` where `m'` is the
/// metadata written by `process`.
pub trait Capability: Send + Sync {
    /// Stable wire name (matches the spec that built this instance).
    fn name(&self) -> &str;

    /// Whether this capability wants to be active for a client at `client`
    /// talking to a server at `server`. A glue entry is applicable only if
    /// *all* its capabilities are (AND-composition, per the paper).
    fn applicable(&self, client: &Location, server: &Location) -> bool {
        let _ = (client, server);
        true
    }

    /// Sender-side transform. May write metadata for the receiver and may
    /// deny (e.g. client-side budget exhausted).
    fn process(
        &self,
        dir: Direction,
        call: &CallInfo,
        meta: &mut CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError>;

    /// Receiver-side inverse. Reads the sender's metadata; may deny (bad
    /// MAC, missing token, server-side budget).
    fn unprocess(
        &self,
        dir: Direction,
        call: &CallInfo,
        meta: &CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError>;
}

impl std::fmt::Debug for dyn Capability + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Capability({})", self.name())
    }
}

xdr_struct! {
    /// Wire form of a capability: its name plus opaque configuration.
    ///
    /// Config carries *public* parameters (key ids, limits, codec choice) — never
    /// key material. The registry combines config with local secrets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CapabilitySpec {
        /// Registry name.
        pub name: String,
        /// Opaque, capability-defined configuration.
        pub config: Bytes,
    }
}

impl CapabilitySpec {
    /// Spec with empty config.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), config: Bytes::new() }
    }

    /// Spec with config bytes.
    pub fn with_config(name: impl Into<String>, config: impl Into<Bytes>) -> Self {
        Self { name: name.into(), config: config.into() }
    }
}

/// Factory closure building a capability instance from its spec.
pub type CapabilityFactory =
    Box<dyn Fn(&CapabilitySpec) -> Result<Arc<dyn Capability>, CapError> + Send + Sync>;

/// Per-process capability factory registry.
///
/// Both sides of a connection build instances from the same spec but their
/// *own* registries — a process that lacks the keys for "encrypt-chacha20"
/// simply cannot construct it, which is the capability-security property.
#[derive(Default)]
pub struct CapabilityRegistry {
    factories: RwLock<HashMap<String, CapabilityFactory>>,
}

impl CapabilityRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory under `name`, replacing any existing one.
    pub fn register<F>(&self, name: &str, factory: F)
    where
        F: Fn(&CapabilitySpec) -> Result<Arc<dyn Capability>, CapError> + Send + Sync + 'static,
    {
        self.factories.write().insert(name.to_string(), Box::new(factory));
    }

    /// Builds an instance for `spec`.
    pub fn build(&self, spec: &CapabilitySpec) -> Result<Arc<dyn Capability>, CapError> {
        let factories = self.factories.read();
        let f = factories.get(&spec.name).ok_or_else(|| CapError::Unknown(spec.name.clone()))?;
        f(spec)
    }

    /// Builds a whole chain, failing on the first unknown capability.
    pub fn build_chain(&self, specs: &[CapabilitySpec]) -> Result<CapChain, CapError> {
        specs.iter().map(|s| self.build(s)).collect::<Result<Vec<_>, _>>().map(CapChain::new)
    }

    /// True if `name` can be built here.
    pub fn knows(&self, name: &str) -> bool {
        self.factories.read().contains_key(name)
    }
}

/// One histogram per [`Direction`] of a `{cap,dir}`-labelled metric.
struct ByDirection {
    request: Arc<Histogram>,
    reply: Arc<Histogram>,
}

impl ByDirection {
    fn resolve(metric: &str, cap: &str) -> Self {
        let dir = |dir: Direction| {
            Registry::global().histogram(metric, &[("cap", cap), ("dir", dir.as_label())])
        };
        Self { request: dir(Direction::Request), reply: dir(Direction::Reply) }
    }

    fn of(&self, dir: Direction) -> &Histogram {
        match dir {
            Direction::Request => &self.request,
            Direction::Reply => &self.reply,
        }
    }
}

/// One capability of a built chain, with the `orb_cap_process_ns{cap,dir}`
/// and `orb_cap_unprocess_ns{cap,dir}` histograms its transforms are timed
/// into.
struct Hop {
    cap: Arc<dyn Capability>,
    process_ns: ByDirection,
    unprocess_ns: ByDirection,
}

/// A built capability chain, in chain order.
///
/// The per-hop histograms carry the capability's name as a label, which is
/// only known at run time; they are resolved here, once, where the chain is
/// built (and cached: `Context::add_glue`, `GlueProto`), so
/// [`process_chain`] and [`unprocess_chain`] record through handles.
pub struct CapChain {
    hops: Vec<Hop>,
}

impl CapChain {
    /// Wraps capability instances (in chain order) as a chain.
    pub fn new(caps: Vec<Arc<dyn Capability>>) -> Self {
        let hops = caps.into_iter().map(|cap| Hop {
            process_ns: ByDirection::resolve("orb_cap_process_ns", cap.name()),
            unprocess_ns: ByDirection::resolve("orb_cap_unprocess_ns", cap.name()),
            cap,
        });
        Self { hops: hops.collect() }
    }

    /// The capabilities, in chain order.
    pub fn caps(&self) -> impl Iterator<Item = &Arc<dyn Capability>> {
        self.hops.iter().map(|hop| &hop.cap)
    }

    /// Number of capabilities in the chain.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for the empty chain.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// Sender side: applies `chain` in order, returning the transformed body
/// and each capability's metadata (in chain order) for the glue section.
///
/// Each transform is timed into `orb_cap_process_ns{cap,dir}` (including
/// denials — a rejected budget check still costs time worth seeing).
pub fn process_chain(
    chain: &CapChain,
    dir: Direction,
    call: &CallInfo,
    mut body: Bytes,
) -> Result<(Bytes, Vec<CapWireMeta>), CapError> {
    let mut metas = Vec::with_capacity(chain.len());
    for Hop { cap, process_ns, .. } in &chain.hops {
        let mut meta = CapMeta::new();
        let _span = ohpc_telemetry::trace_span_with(
            "cap_process",
            &[("cap", cap.name().into()), ("dir", dir.as_label().into())],
        );
        let timed = process_ns.of(dir).span();
        let result = cap.process(dir, call, &mut meta, body);
        drop(timed);
        body = result?;
        metas.push(CapWireMeta { name: cap.name().to_string(), meta: meta.to_bytes() });
    }
    Ok((body, metas))
}

/// Receiver side: applies inverses in reverse chain order. `metas` must be
/// the sender's chain-order metadata.
///
/// Each inverse transform is timed into `orb_cap_unprocess_ns{cap,dir}`.
pub fn unprocess_chain(
    chain: &CapChain,
    dir: Direction,
    call: &CallInfo,
    metas: &[CapWireMeta],
    mut body: Bytes,
) -> Result<Bytes, CapError> {
    if chain.len() != metas.len() {
        return Err(CapError::Failed(format!(
            "chain length mismatch: {} capabilities, {} metadata blocks",
            chain.len(),
            metas.len()
        )));
    }
    for (Hop { cap, unprocess_ns, .. }, wire) in chain.hops.iter().zip(metas.iter()).rev() {
        if cap.name() != wire.name {
            return Err(CapError::Failed(format!(
                "chain order mismatch: expected '{}', got '{}'",
                cap.name(),
                wire.name
            )));
        }
        let meta = CapMeta::from_bytes(&wire.meta)
            .map_err(|e| CapError::Failed(format!("bad capability metadata: {e}")))?;
        let _span = ohpc_telemetry::trace_span_with(
            "cap_unprocess",
            &[("cap", cap.name().into()), ("dir", dir.as_label().into())],
        );
        let timed = unprocess_ns.of(dir).span();
        let result = cap.unprocess(dir, call, &meta, body);
        drop(timed);
        body = result?;
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy capability: XORs every byte with a constant and records a tag.
    struct XorCap {
        key: u8,
        name: String,
    }

    impl Capability for XorCap {
        fn name(&self) -> &str {
            &self.name
        }
        fn process(
            &self,
            _dir: Direction,
            _call: &CallInfo,
            meta: &mut CapMeta,
            body: Bytes,
        ) -> Result<Bytes, CapError> {
            meta.set("k", vec![self.key]);
            Ok(body.iter().map(|b| b ^ self.key).collect::<Vec<_>>().into())
        }
        fn unprocess(
            &self,
            _dir: Direction,
            _call: &CallInfo,
            meta: &CapMeta,
            body: Bytes,
        ) -> Result<Bytes, CapError> {
            let k = meta.require("k")?;
            if k[0] != self.key {
                return Err(CapError::Failed("key mismatch".into()));
            }
            Ok(body.iter().map(|b| b ^ self.key).collect::<Vec<_>>().into())
        }
    }

    fn xor(name: &str, key: u8) -> Arc<dyn Capability> {
        Arc::new(XorCap { key, name: name.into() })
    }

    #[test]
    fn meta_roundtrip() {
        let mut m = CapMeta::new();
        m.set("nonce", vec![1, 2, 3]);
        m.set("mac", vec![9; 32]);
        let back = CapMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.get("nonce").unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(back.get("mac").unwrap().len(), 32);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn meta_serialization_is_deterministic() {
        let mut a = CapMeta::new();
        a.set("zeta", vec![1]);
        a.set("alpha", vec![2]);
        let mut b = CapMeta::new();
        b.set("alpha", vec![2]);
        b.set("zeta", vec![1]);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    fn call() -> CallInfo {
        CallInfo {
            object: crate::ids::ObjectId(1),
            method: 2,
            request_id: crate::ids::RequestId(3),
        }
    }

    #[test]
    fn chain_roundtrip_two_caps() {
        let caps = CapChain::new(vec![xor("a", 0x55), xor("b", 0xAA)]);
        let body = Bytes::from_static(b"the payload");
        let (cipher, metas) =
            process_chain(&caps, Direction::Request, &call(), body.clone()).unwrap();
        assert_ne!(cipher, body);
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].name, "a");
        let back = unprocess_chain(&caps, Direction::Request, &call(), &metas, cipher).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn chain_length_mismatch_detected() {
        let caps = CapChain::new(vec![xor("a", 1)]);
        let err =
            unprocess_chain(&caps, Direction::Request, &call(), &[], Bytes::new()).unwrap_err();
        assert!(matches!(err, CapError::Failed(_)));
    }

    #[test]
    fn chain_name_mismatch_detected() {
        let caps = CapChain::new(vec![xor("a", 1)]);
        let metas = vec![CapWireMeta { name: "b".into(), meta: CapMeta::new().to_bytes() }];
        let err = unprocess_chain(&caps, Direction::Request, &call(), &metas, Bytes::new())
            .unwrap_err();
        assert!(matches!(err, CapError::Failed(_)));
    }

    #[test]
    fn call_info_bytes_are_canonical() {
        let a = call().to_bytes();
        let b = call().to_bytes();
        assert_eq!(a, b);
        let mut other = call();
        other.method = 9;
        assert_ne!(a, other.to_bytes());
    }

    #[test]
    fn registry_builds_known_rejects_unknown() {
        let reg = CapabilityRegistry::new();
        reg.register("xor", |spec| {
            let key = spec.config.first().copied().unwrap_or(0);
            Ok(xor("xor", key))
        });
        assert!(reg.knows("xor"));
        assert!(!reg.knows("nope"));
        let cap = reg.build(&CapabilitySpec::with_config("xor", vec![7u8])).unwrap();
        assert_eq!(cap.name(), "xor");
        let err = reg.build(&CapabilitySpec::new("nope")).unwrap_err();
        assert_eq!(err, CapError::Unknown("nope".into()));
    }

    #[test]
    fn build_chain_fails_atomically() {
        let reg = CapabilityRegistry::new();
        reg.register("xor", |_| Ok(xor("xor", 1)));
        let specs = vec![CapabilitySpec::new("xor"), CapabilitySpec::new("missing")];
        assert!(reg.build_chain(&specs).is_err());
    }

    #[test]
    fn spec_xdr_roundtrip() {
        let spec = CapabilitySpec::with_config("encrypt", vec![1u8, 2, 3]);
        let buf = ohpc_xdr::encode_to_vec(&spec);
        let back: CapabilitySpec = ohpc_xdr::decode_from_slice(&buf).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn default_applicability_is_always() {
        let cap = xor("x", 1);
        let a = Location::new(0, 0);
        let b = Location::new(5, 9);
        assert!(cap.applicable(&a, &b));
    }
}
