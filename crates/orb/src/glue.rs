//! The glue protocol object: capability chains on the client side.
//!
//! A glue proto-object holds no communication mechanism. It instantiates the
//! entry's capability chain (through the process-local
//! [`CapabilityRegistry`]), runs each request body through the chain in
//! order, and delegates the transformed request to the *real* protocol named
//! by the entry's inner row — resolved against the same proto-pool used for
//! top-level selection. Replies are unprocessed through the mirrored chain.
//!
//! Applicability is the AND of every capability's predicate and the inner
//! protocol's own applicability, exactly as the paper specifies.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ohpc_netsim::{Location, SimNet};

use crate::capability::{
    process_chain, unprocess_chain, CallInfo, CapChain, CapabilityRegistry, CapabilitySpec,
    Direction,
};
use crate::error::OrbError;
use crate::ids::ProtocolId;
use crate::message::{GlueWire, ReplyMessage, ReplyStatus, RequestMessage};
use crate::objref::{ProtoData, ProtoEntry};
use crate::proto::{ProtoObject, ProtoPool};

/// Sink for CPU time spent in capability processing, so that compute cost
/// lands on the same timeline as simulated wire cost.
pub trait ComputeMeter: Send + Sync {
    /// Records `d` of computation.
    fn charge(&self, d: Duration);
}

impl ComputeMeter for SimNet {
    fn charge(&self, d: Duration) {
        self.charge_compute(d);
    }
}

/// Client-side glue protocol object.
pub struct GlueProto {
    registry: Arc<CapabilityRegistry>,
    chains: Mutex<HashMap<u64, CachedChain>>,
    // Named distinctly from `ContextInner.meter`: set once by the
    // by-value builder below, then read-only — no lock needed.
    compute_meter: Option<Arc<dyn ComputeMeter>>,
}

struct CachedChain {
    /// Specs the instances were built from; if the entry's specs change
    /// (dynamic capability replacement), the cache entry is stale.
    specs: Vec<CapabilitySpec>,
    caps: Arc<CapChain>,
}

impl GlueProto {
    /// Builds a glue proto-object over the process's capability registry.
    pub fn new(registry: Arc<CapabilityRegistry>) -> Self {
        Self { registry, chains: Mutex::new(HashMap::new()), compute_meter: None }
    }

    /// Attaches a compute meter (used by the simulation harness).
    pub fn with_meter(mut self, meter: Arc<dyn ComputeMeter>) -> Self {
        self.compute_meter = Some(meter);
        self
    }

    /// Returns the (cached) live chain for a glue entry. Instances are cached
    /// by glue id because stateful capabilities (request budgets) must retain
    /// their state across calls; the cache re-validates against the entry's
    /// specs so a dynamically replaced chain is rebuilt, not reused stale.
    ///
    /// The chain is built outside the lock, and publication re-checks under
    /// it: of two first calls that race, the later keeps the earlier's
    /// chain — whose budget may already be spent — and drops its own.
    fn chain(&self, glue_id: u64, specs: &[CapabilitySpec]) -> Result<Arc<CapChain>, OrbError> {
        let cached = |chains: &HashMap<u64, CachedChain>| {
            chains.get(&glue_id).filter(|c| c.specs == specs).map(|c| c.caps.clone())
        };
        if let Some(caps) = cached(&self.chains.lock()) {
            return Ok(caps);
        }
        let built = Arc::new(self.registry.build_chain(specs)?);
        let mut chains = self.chains.lock();
        if let Some(winner) = cached(&chains) {
            return Ok(winner);
        }
        chains.insert(glue_id, CachedChain { specs: specs.to_vec(), caps: built.clone() });
        Ok(built)
    }

    /// Drops the cached chain for `glue_id` (used when a client is handed a
    /// replacement capability set — "capabilities can be changed
    /// dynamically").
    pub fn invalidate(&self, glue_id: u64) {
        self.chains.lock().remove(&glue_id);
    }

    fn metered<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.compute_meter {
            None => f(),
            Some(m) => {
                let t0 = Instant::now();
                let out = f();
                m.charge(t0.elapsed());
                out
            }
        }
    }
}

/// A request taken through the outbound half of the chain, ready for the
/// inner (real) protocol.
struct Outbound<'e> {
    inner_proto: Arc<dyn ProtoObject>,
    inner: &'e ProtoEntry,
    chain: Arc<CapChain>,
    call: CallInfo,
    glued: RequestMessage,
}

impl GlueProto {
    /// Outbound: resolves the entry's chain and inner protocol and applies
    /// the chain to `req` in order.
    fn outbound<'e>(
        &self,
        pool: &ProtoPool,
        entry: &'e ProtoEntry,
        req: &RequestMessage,
    ) -> Result<Outbound<'e>, OrbError> {
        let (glue_id, specs, inner) = glue_parts(entry)?;
        if inner.id == ProtocolId::GLUE {
            return Err(OrbError::Protocol(
                "nested glue entries are not supported: compose capabilities in one chain".into(),
            ));
        }
        let chain = self.chain(glue_id, specs)?;
        let inner_proto = pool
            .find(inner.id)
            .ok_or_else(|| OrbError::NoApplicableProtocol { offered: vec![inner.id] })?;
        let call = CallInfo { object: req.object, method: req.method, request_id: req.request_id };
        // A clone, deliberately: the GP's retry loop keeps the plaintext for
        // the next attempt, so the chain sees a shared body and leaves it
        // untouched (a capability that rewrites bytes makes its own copy).
        let (body, caps) =
            self.metered(|| process_chain(&chain, Direction::Request, &call, req.body.clone()))?;
        let glued = RequestMessage {
            request_id: req.request_id,
            object: req.object,
            method: req.method,
            oneway: req.oneway,
            glue: Some(GlueWire { glue_id, caps }),
            body,
            trace: req.trace.clone(),
        };
        Ok(Outbound { inner_proto, inner, chain, call, glued })
    }
}

fn glue_parts(entry: &ProtoEntry) -> Result<(u64, &[CapabilitySpec], &ProtoEntry), OrbError> {
    match &entry.data {
        ProtoData::Glue { glue_id, caps, inner } => Ok((*glue_id, caps, inner)),
        ProtoData::Endpoint(_) => {
            Err(OrbError::Protocol("glue proto-object given a non-glue entry".into()))
        }
    }
}

impl ProtoObject for GlueProto {
    fn protocol_id(&self) -> ProtocolId {
        ProtocolId::GLUE
    }

    fn applicable(
        &self,
        pool: &ProtoPool,
        client: &Location,
        server: &Location,
        entry: &ProtoEntry,
    ) -> bool {
        let Ok((glue_id, specs, inner)) = glue_parts(entry) else { return false };
        // Nested glue is not wire-representable (a frame carries ONE glue
        // section); capability composition happens within a single chain.
        if inner.id == ProtocolId::GLUE {
            return false;
        }
        // A chain we cannot build locally (unknown capability, missing keys)
        // makes the whole entry unusable.
        let Ok(chain) = self.chain(glue_id, specs) else { return false };
        if !chain.caps().all(|c| c.applicable(client, server)) {
            return false;
        }
        match pool.find(inner.id) {
            Some(p) => p.applicable(pool, client, server, inner),
            None => false,
        }
    }

    fn invoke(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<ReplyMessage, OrbError> {
        self.invoke_with_deadline(pool, entry, req, None)
    }

    /// Glue holds no wire of its own: the deadline budget is forwarded
    /// verbatim to the inner (real) protocol's blocking wait.
    fn invoke_with_deadline(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
        remaining_ns: Option<u64>,
    ) -> Result<ReplyMessage, OrbError> {
        let out = self.outbound(pool, entry, req)?;
        let mut reply =
            out.inner_proto.invoke_with_deadline(pool, out.inner, &out.glued, remaining_ns)?;

        // Inbound: un-apply the mirrored chain on successful replies.
        if reply.status == ReplyStatus::Ok {
            let Some(reply_glue) = reply.glue.take() else {
                return Err(OrbError::Protocol(
                    "server reply skipped the glue chain".into(),
                ));
            };
            // Moved out, not cloned: as the reply buffer's only owner the
            // chain may undo its transforms in place.
            let body = std::mem::take(&mut reply.body);
            reply.body = self.metered(|| {
                unprocess_chain(&out.chain, Direction::Reply, &out.call, &reply_glue.caps, body)
            })?;
        }
        Ok(reply)
    }

    fn invoke_oneway(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<(), OrbError> {
        let out = self.outbound(pool, entry, req)?;
        out.inner_proto.invoke_oneway(pool, out.inner, &out.glued)
    }

    fn describe(&self, entry: &ProtoEntry) -> String {
        match glue_parts(entry) {
            Ok((_, specs, inner)) => {
                let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
                format!("glue[{}]->{}", names.join("+"), inner.id)
            }
            Err(_) => "glue[?]".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{CapError, CapMeta, Capability};
    use crate::ids::{ObjectId, RequestId};
    use bytes::Bytes;

    /// Capability that reverses the body — order-sensitive, so chain ordering
    /// bugs show up immediately when combined with `ShiftCap`.
    struct ReverseCap;
    impl Capability for ReverseCap {
        fn name(&self) -> &str {
            "reverse"
        }
        fn process(&self, _d: Direction, _c: &CallInfo, _m: &mut CapMeta, b: Bytes) -> Result<Bytes, CapError> {
            Ok(b.iter().rev().copied().collect::<Vec<_>>().into())
        }
        fn unprocess(&self, _d: Direction, _c: &CallInfo, _m: &CapMeta, b: Bytes) -> Result<Bytes, CapError> {
            Ok(b.iter().rev().copied().collect::<Vec<_>>().into())
        }
    }

    /// Adds 1 to every byte on process, subtracts on unprocess.
    struct ShiftCap;
    impl Capability for ShiftCap {
        fn name(&self) -> &str {
            "shift"
        }
        fn process(&self, _d: Direction, _c: &CallInfo, _m: &mut CapMeta, b: Bytes) -> Result<Bytes, CapError> {
            Ok(b.iter().map(|x| x.wrapping_add(1)).collect::<Vec<_>>().into())
        }
        fn unprocess(&self, _d: Direction, _c: &CallInfo, _m: &CapMeta, b: Bytes) -> Result<Bytes, CapError> {
            Ok(b.iter().map(|x| x.wrapping_sub(1)).collect::<Vec<_>>().into())
        }
    }

    /// Cross-LAN-only capability for applicability tests.
    struct CrossLanCap;
    impl Capability for CrossLanCap {
        fn name(&self) -> &str {
            "auth"
        }
        fn applicable(&self, c: &Location, s: &Location) -> bool {
            c.lan != s.lan
        }
        fn process(&self, _d: Direction, _c: &CallInfo, _m: &mut CapMeta, b: Bytes) -> Result<Bytes, CapError> {
            Ok(b)
        }
        fn unprocess(&self, _d: Direction, _c: &CallInfo, _m: &CapMeta, b: Bytes) -> Result<Bytes, CapError> {
            Ok(b)
        }
    }

    fn registry() -> Arc<CapabilityRegistry> {
        let reg = CapabilityRegistry::new();
        reg.register("reverse", |_| Ok(Arc::new(ReverseCap)));
        reg.register("shift", |_| Ok(Arc::new(ShiftCap)));
        reg.register("auth", |_| Ok(Arc::new(CrossLanCap)));
        Arc::new(reg)
    }

    /// Loopback "real" protocol: pretends to be a server that unprocesses the
    /// chain, checks the plaintext, re-processes the reply. It uses the same
    /// registry, mimicking the server-side glue class.
    struct LoopbackServerProto {
        registry: Arc<CapabilityRegistry>,
        specs: Vec<CapabilitySpec>,
    }
    impl ProtoObject for LoopbackServerProto {
        fn protocol_id(&self) -> ProtocolId {
            ProtocolId::TCP
        }
        fn applicable(&self, _p: &ProtoPool, _c: &Location, _s: &Location, _e: &ProtoEntry) -> bool {
            true
        }
        fn invoke(
            &self,
            _pool: &ProtoPool,
            _entry: &ProtoEntry,
            req: &RequestMessage,
        ) -> Result<ReplyMessage, OrbError> {
            let chain = self.registry.build_chain(&self.specs).unwrap();
            let glue = req.glue.clone().expect("glue section expected");
            let call =
                CallInfo { object: req.object, method: req.method, request_id: req.request_id };
            let plain =
                unprocess_chain(&chain, Direction::Request, &call, &glue.caps, req.body.clone())
                    .unwrap();
            // Echo back doubled, through the chain.
            let mut out = plain.to_vec();
            out.extend_from_slice(&plain);
            let (body, caps) =
                process_chain(&chain, Direction::Reply, &call, Bytes::from(out)).unwrap();
            Ok(ReplyMessage {
                request_id: req.request_id,
                status: ReplyStatus::Ok,
                glue: Some(GlueWire { glue_id: glue.glue_id, caps }),
                body,
            })
        }
    }

    fn specs() -> Vec<CapabilitySpec> {
        vec![CapabilitySpec::new("reverse"), CapabilitySpec::new("shift")]
    }

    fn pool_with_loopback() -> ProtoPool {
        let reg = registry();
        ProtoPool::new()
            .with(Arc::new(GlueProto::new(reg.clone())))
            .with(Arc::new(LoopbackServerProto { registry: reg, specs: specs() }))
    }

    fn glue_entry() -> ProtoEntry {
        ProtoEntry::glue(42, specs(), ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"))
    }

    #[test]
    fn end_to_end_chain_roundtrip() {
        let pool = pool_with_loopback();
        let glue = pool.find(ProtocolId::GLUE).unwrap();
        let req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(1),
            method: 0,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"xyz"),
            trace: None,
        };
        let reply = glue.invoke(&pool, &glue_entry(), &req).unwrap();
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(&reply.body[..], b"xyzxyz", "client sees plaintext reply");
    }

    #[test]
    fn applicability_is_and_of_caps_and_inner() {
        let pool = pool_with_loopback();
        let glue = pool.find(ProtocolId::GLUE).unwrap();
        let entry = ProtoEntry::glue(
            7,
            vec![CapabilitySpec::new("auth")],
            ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
        );
        let server = Location::new(0, 0);
        let same_lan_client = Location::new(1, 0);
        let cross_lan_client = Location::new(2, 5);
        assert!(!glue.applicable(&pool, &same_lan_client, &server, &entry));
        assert!(glue.applicable(&pool, &cross_lan_client, &server, &entry));
    }

    #[test]
    fn unknown_capability_makes_entry_inapplicable() {
        let pool = pool_with_loopback();
        let glue = pool.find(ProtocolId::GLUE).unwrap();
        let entry = ProtoEntry::glue(
            8,
            vec![CapabilitySpec::new("no-such-capability")],
            ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
        );
        assert!(!glue.applicable(&pool, &Location::new(1, 1), &Location::new(0, 0), &entry));
    }

    #[test]
    fn missing_inner_protocol_makes_entry_inapplicable() {
        let reg = registry();
        let pool = ProtoPool::new().with(Arc::new(GlueProto::new(reg)));
        let glue = pool.find(ProtocolId::GLUE).unwrap();
        assert!(!glue.applicable(&pool, &Location::new(1, 1), &Location::new(0, 0), &glue_entry()));
    }

    #[test]
    fn chain_instances_are_cached_by_glue_id() {
        let reg = registry();
        let glue = GlueProto::new(reg);
        let a = glue.chain(1, &specs()).unwrap();
        let b = glue.chain(1, &specs()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        glue.invalidate(1);
        let c = glue.chain(1, &specs()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// Eight first calls at once build up to eight chains, and all eight
    /// callers must get the one that was published: a stateful capability
    /// (a request budget) then has one instance, not one per racer.
    #[test]
    fn racing_first_calls_share_one_chain() {
        let reg = CapabilityRegistry::new();
        reg.register("slow", |_| {
            // Widens the window between the cache miss and the publication.
            std::thread::sleep(Duration::from_millis(20));
            Ok(Arc::new(ShiftCap))
        });
        let glue = Arc::new(GlueProto::new(Arc::new(reg)));
        let gate = Arc::new(std::sync::Barrier::new(8));
        let racers: Vec<_> = (0..8)
            .map(|_| {
                let (glue, gate) = (glue.clone(), gate.clone());
                std::thread::spawn(move || {
                    gate.wait();
                    glue.chain(5, &[CapabilitySpec::new("slow")]).unwrap()
                })
            })
            .collect();
        let chains: Vec<Arc<CapChain>> = racers.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(chains.iter().all(|c| Arc::ptr_eq(c, &chains[0])), "racers got distinct chains");
        assert!(Arc::ptr_eq(&glue.chain(5, &[CapabilitySpec::new("slow")]).unwrap(), &chains[0]));
    }

    #[test]
    fn describe_names_chain_and_inner() {
        let pool = pool_with_loopback();
        let glue = pool.find(ProtocolId::GLUE).unwrap();
        assert_eq!(glue.describe(&glue_entry()), "glue[reverse+shift]->tcp");
    }

    #[test]
    fn nested_glue_is_rejected_not_mangled() {
        // A doubly-wrapped entry would lose the outer chain's metadata on
        // the wire (one glue section per frame), so it is refused up front.
        let pool = pool_with_loopback();
        let glue = pool.find(ProtocolId::GLUE).unwrap();
        let nested = ProtoEntry::glue(
            9,
            vec![CapabilitySpec::new("shift")],
            ProtoEntry::glue(
                10,
                vec![CapabilitySpec::new("reverse")],
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
            ),
        );
        assert!(!glue.applicable(&pool, &Location::new(1, 1), &Location::new(0, 0), &nested));
        let req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(1),
            method: 0,
            oneway: false,
            glue: None,
            body: Bytes::new(),
            trace: None,
        };
        assert!(matches!(
            glue.invoke(&pool, &nested, &req).unwrap_err(),
            OrbError::Protocol(_)
        ));
    }

    #[test]
    fn non_glue_entry_is_protocol_error() {
        let pool = pool_with_loopback();
        let glue = pool.find(ProtocolId::GLUE).unwrap();
        let req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(1),
            method: 0,
            oneway: false,
            glue: None,
            body: Bytes::new(),
            trace: None,
        };
        let entry = ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1");
        assert!(matches!(
            glue.invoke(&pool, &entry, &req).unwrap_err(),
            OrbError::Protocol(_)
        ));
    }
}
