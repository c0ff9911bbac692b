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

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use ohpc_netsim::Location;
use ohpc_telemetry::{Histogram, Registry};
use ohpc_xdr::{pad4, xdr_struct, InlineList, XdrError, XdrReader, XdrWriter};

use crate::message::{CapWireMeta, Hops};

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

/// Most entries a received metadata blob may declare; a count above it is
/// refused before any entry is read.
pub const MAX_META_ENTRIES: usize = 64;

/// Per-message, per-capability metadata side channel.
///
/// `process` writes entries (a nonce, a MAC, a token); the bytes travel in
/// the frame's glue section; the receiving side's `unprocess` reads them.
///
/// A `CapMeta` is its wire blob — a count word, then `string key, opaque
/// value` per entry in key order, so a MAC over it is stable — and its
/// entries are views of that one buffer. The sender's [`set`](Self::set)
/// keeps the blob current (one allocation), so the chain hands the blob to
/// the glue section as it is; the receiver's [`parse`](Self::parse) views
/// the blob it was given and allocates nothing. Keys are unique: a blob
/// that repeats one is refused.
#[derive(Debug, Clone)]
pub struct CapMeta {
    blob: Bytes,
    entries: Entries,
}

impl Default for CapMeta {
    fn default() -> Self {
        /// The blob of no entries: a zero count.
        static EMPTY: [u8; 4] = [0; 4];
        Self { blob: Bytes::from_static(&EMPTY), entries: Entries::default() }
    }
}

impl PartialEq for CapMeta {
    fn eq(&self, other: &Self) -> bool {
        self.blob == other.blob
    }
}

impl Eq for CapMeta {}

thread_local! {
    /// Where [`CapMeta::set`] encodes a blob before copying it out at its
    /// exact size, so that building one is a single allocation.
    static SCRATCH: RefCell<XdrWriter> = RefCell::new(XdrWriter::new());
}

impl CapMeta {
    /// Empty metadata.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `key`, replacing any earlier value of `key`.
    pub fn set(&mut self, key: &str, value: impl AsRef<[u8]>) {
        let (key, value) = (key.as_bytes(), value.as_ref());
        let entries = self.entries.as_slice();
        let at = entries.partition_point(|(k, _)| k[..] < *key);
        let (before, after) = entries.split_at(at);
        let after = match after.split_first() {
            Some(((k, _), rest)) if k[..] == *key => rest,
            _ => after,
        };
        fn slices((k, v): &(Bytes, Bytes)) -> (&[u8], &[u8]) {
            (k, v)
        }
        let added = [(key, value)];
        let parts = || {
            before.iter().map(slices).chain(added.iter().copied()).chain(after.iter().map(slices))
        };
        *self = Self::encode(parts);
    }

    /// The metadata of `parts`, in the order given (key order, unique keys).
    fn encode<'a, I>(parts: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (&'a [u8], &'a [u8])>,
    {
        let blob = SCRATCH.with_borrow_mut(|w| {
            w.clear();
            w.put_array_len(parts().count());
            for (key, value) in parts() {
                w.put_opaque(key);
                w.put_opaque(value);
            }
            Bytes::copy_from_slice(w.peek())
        });
        // The views, at the offsets just written: past the count word, each
        // opaque is a length word, its bytes and their padding.
        let mut entries = Entries::default();
        let mut at = 4;
        let mut view = |len: usize| {
            let start = at + 4;
            at = start + len + pad4(len);
            blob.slice(start..start + len)
        };
        for (key, value) in parts() {
            entries.push((view(key.len()), view(value.len())));
        }
        Self { blob, entries }
    }

    /// Views `blob`, a received wire blob: keys and values share its
    /// storage. Refuses more than [`MAX_META_ENTRIES`] entries (on the count,
    /// before reading one), a key that is not UTF-8, a repeated key and
    /// trailing bytes.
    pub fn parse(blob: &Bytes) -> Result<Self, XdrError> {
        let mut r = XdrReader::over_frame(blob);
        let n = r.get_array_len()?;
        if n > MAX_META_ENTRIES {
            return Err(XdrError::LengthOverflow {
                declared: n as u64,
                limit: MAX_META_ENTRIES as u64,
            });
        }
        let mut entries = Entries::default();
        for _ in 0..n {
            let key = r.get_str_bytes()?;
            if entries.as_slice().iter().any(|(k, _)| *k == key) {
                return Err(XdrError::custom("repeated capability metadata key"));
            }
            entries.push((key, r.get_opaque_bytes()?));
        }
        match r.remaining() {
            0 => Ok(Self { blob: blob.clone(), entries }),
            n => Err(XdrError::TrailingBytes(n)),
        }
    }

    /// The wire blob the glue section carries.
    pub fn blob(&self) -> &Bytes {
        &self.blob
    }

    /// Fetches `key`.
    pub fn get(&self, key: &str) -> Option<&Bytes> {
        self.entries.as_slice().iter().find(|(k, _)| k[..] == *key.as_bytes()).map(|(_, v)| v)
    }

    /// Fetches `key` or errors with a consistent message.
    pub fn require(&self, key: &str) -> Result<&Bytes, CapError> {
        self.get(key)
            .ok_or_else(|| CapError::Failed(format!("missing capability metadata '{key}'")))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.as_slice().len()
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Entries a [`CapMeta`] holds in place; every shipped capability writes
/// one or two, so only a longer list allocates.
const INLINE_ENTRIES: usize = 2;

/// A [`CapMeta`]'s `(key, value)` views, in blob order.
type Entries = InlineList<(Bytes, Bytes), INLINE_ENTRIES>;

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

/// One capability of a built chain: its wire name, as the shared handle
/// every glue section it writes carries, and the
/// `orb_cap_process_ns{cap,dir}` and `orb_cap_unprocess_ns{cap,dir}`
/// histograms its transforms are timed into.
struct Hop {
    cap: Arc<dyn Capability>,
    name: Bytes,
    process_ns: ByDirection,
    unprocess_ns: ByDirection,
}

/// A built capability chain, in chain order.
///
/// What a hop needs per call that depends on the capability's run-time name
/// — the wire name, the labelled histograms — is resolved here, once, where
/// the chain is built (and cached: `Context::add_glue`, `GlueProto`), so
/// [`process_chain`] and [`unprocess_chain`] use handles.
pub struct CapChain {
    hops: Vec<Hop>,
}

impl CapChain {
    /// Wraps capability instances (in chain order) as a chain.
    pub fn new(caps: Vec<Arc<dyn Capability>>) -> Self {
        let hops = caps.into_iter().map(|cap| Hop {
            name: Bytes::from(cap.name().to_owned()),
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
/// and each capability's metadata (in chain order) for the glue section:
/// the hop's shared name and the blob its [`CapMeta`] already is, in a list
/// held in place for up to [`INLINE_HOPS`](crate::message::INLINE_HOPS) hops,
/// so a chain that short allocates nothing here.
///
/// Each transform is timed into `orb_cap_process_ns{cap,dir}` (including
/// denials — a rejected budget check still costs time worth seeing).
pub fn process_chain(
    chain: &CapChain,
    dir: Direction,
    call: &CallInfo,
    mut body: Bytes,
) -> Result<(Bytes, Hops), CapError> {
    let mut metas = Hops::with_capacity(chain.len());
    for Hop { cap, name, process_ns, .. } in &chain.hops {
        let mut meta = CapMeta::new();
        let result = {
            let _span = ohpc_telemetry::trace_span_timed(
                "cap_process",
                &[("cap", cap.name().into()), ("dir", dir.as_label().into())],
                process_ns.of(dir),
            );
            cap.process(dir, call, &mut meta, body)
        };
        body = result?;
        metas.push(CapWireMeta { name: name.clone(), meta: meta.blob });
    }
    Ok((body, metas))
}

/// Receiver side: applies inverses in reverse chain order. `metas` must be
/// the sender's chain-order metadata; each hop's [`CapMeta`] is views of its
/// blob.
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
    for (Hop { cap, name, unprocess_ns, .. }, wire) in chain.hops.iter().zip(metas.iter()).rev() {
        if *name != wire.name {
            return Err(CapError::Failed(format!(
                "chain order mismatch: expected '{}', got '{}'",
                cap.name(),
                String::from_utf8_lossy(&wire.name)
            )));
        }
        let meta = CapMeta::parse(&wire.meta)
            .map_err(|e| CapError::Failed(format!("bad capability metadata: {e}")))?;
        let result = {
            let _span = ohpc_telemetry::trace_span_timed(
                "cap_unprocess",
                &[("cap", cap.name().into()), ("dir", dir.as_label().into())],
                unprocess_ns.of(dir),
            );
            cap.unprocess(dir, call, &meta, body)
        };
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
        let back = CapMeta::parse(m.blob()).unwrap();
        assert_eq!(back.get("nonce").unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(back.get("mac").unwrap().len(), 32);
        assert_eq!(back.len(), 2);
        assert_eq!(back, m);
    }

    #[test]
    fn meta_serialization_is_deterministic() {
        let mut a = CapMeta::new();
        a.set("zeta", vec![1]);
        a.set("alpha", vec![2]);
        let mut b = CapMeta::new();
        b.set("alpha", vec![2]);
        b.set("zeta", vec![1]);
        assert_eq!(a.blob(), b.blob());
    }

    /// The blob is the one the map-based encoder wrote: a count, then each
    /// key and value as opaques, in key order; an empty one is a zero count.
    #[test]
    fn meta_blob_is_the_key_ordered_wire_form_and_set_replaces() {
        let mut m = CapMeta::new();
        assert_eq!(&m.blob()[..], &[0, 0, 0, 0]);
        m.set("seq", [7u8; 8]);
        m.set("ab", b"x");
        m.set("seq", 5u64.to_be_bytes());
        let mut w = XdrWriter::new();
        w.put_array_len(2);
        w.put_string("ab");
        w.put_opaque(b"x");
        w.put_string("seq");
        w.put_opaque(&5u64.to_be_bytes());
        assert_eq!(m.blob(), &w.finish());
        assert_eq!(m.get("seq").unwrap(), &5u64.to_be_bytes()[..]);
        assert_eq!(m.len(), 2);
        // The views are of the blob itself.
        let (lo, hi) = (m.blob().as_ptr() as usize, m.blob().as_ptr() as usize + m.blob().len());
        let at = m.get("ab").unwrap().as_ptr() as usize;
        assert!(lo <= at && at < hi);
    }

    #[test]
    fn meta_parse_views_the_blob_and_refuses_what_is_not_one() {
        let mut m = CapMeta::new();
        for key in ["a", "b", "c", "d"] {
            m.set(key, key.as_bytes());
        }
        let blob = Bytes::copy_from_slice(m.blob());
        let back = CapMeta::parse(&blob).unwrap();
        // Count word, two 16-byte entries, "c"'s key and its value's length.
        assert_eq!(back.get("c").unwrap().as_ptr(), blob[4 + 32 + 8 + 4..].as_ptr());
        assert_eq!(back.get("d").unwrap(), &b"d"[..]);

        let blob_of = |keys: &[&str]| {
            let mut w = XdrWriter::new();
            w.put_array_len(keys.len());
            for key in keys {
                w.put_string(key);
                w.put_opaque(b"v");
            }
            w.finish()
        };
        let repeated = CapMeta::parse(&blob_of(&["seq", "x", "seq"])).unwrap_err();
        assert_eq!(repeated, XdrError::custom("repeated capability metadata key"));
        let keys: Vec<String> = (0..=MAX_META_ENTRIES).map(|i| format!("k{i}")).collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        assert!(CapMeta::parse(&blob_of(&keys[..MAX_META_ENTRIES])).is_ok());
        assert_eq!(
            CapMeta::parse(&blob_of(&keys)).unwrap_err(),
            XdrError::LengthOverflow { declared: 65, limit: 64 }
        );
        let mut trailing = blob_of(&["a"]).to_vec();
        trailing.extend_from_slice(&[0; 4]);
        assert_eq!(
            CapMeta::parse(&Bytes::from(trailing)).unwrap_err(),
            XdrError::TrailingBytes(4)
        );
        assert!(CapMeta::parse(&Bytes::new()).is_err(), "not even a count");
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
        assert_eq!(&metas[0].name[..], b"a");
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
        let metas = vec![CapWireMeta { name: "b".into(), meta: CapMeta::new().blob().clone() }];
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
