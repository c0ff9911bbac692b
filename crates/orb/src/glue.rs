//! The glue class, on both ends of a binding.
//!
//! A `Glue` is one end's copy of a capability chain, with capability
//! instances of its own (so state such as a request budget is kept per end):
//! the sender `apply`s it in order, the receiver `remove`s it in reverse. A
//! server's context holds one per glue id it issued; the client's
//! [`GlueProto`] holds one per server glue it calls, keyed by the inner
//! endpoint and the glue id, because every context numbers its glues from 1.
//!
//! The glue proto-object holds no communication mechanism. It runs each
//! request body through the client's copy of the entry's chain and delegates
//! the transformed request to the *real* protocol named by the entry's inner
//! row — resolved against the same proto-pool used for top-level selection.
//! Applicability is the AND of every capability's predicate and the inner
//! protocol's own applicability, exactly as the paper specifies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use ohpc_netsim::{Location, SimNet};

use crate::capability::{
    process_chain, unprocess_chain, CallInfo, CapChain, CapError, CapabilityRegistry,
    CapabilitySpec, Direction,
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

/// Runs `f`, charging the time it took to `meter` if there is one.
pub(crate) fn metered<T>(meter: Option<&dyn ComputeMeter>, f: impl FnOnce() -> T) -> T {
    let Some(meter) = meter else { return f() };
    let t0 = Instant::now();
    let out = f();
    meter.charge(t0.elapsed());
    out
}

/// One end's copy of the chain a server issued as `glue_id`.
pub(crate) struct Glue {
    glue_id: u64,
    specs: Vec<CapabilitySpec>,
    chain: CapChain,
}

impl Glue {
    /// Builds the capabilities `specs` names through `registry`.
    pub(crate) fn build(
        registry: &CapabilityRegistry,
        glue_id: u64,
        specs: Vec<CapabilitySpec>,
    ) -> Result<Self, CapError> {
        let chain = registry.build_chain(&specs)?;
        Ok(Self { glue_id, specs, chain })
    }

    /// The specs the chain was built from.
    pub(crate) fn specs(&self) -> &[CapabilitySpec] {
        &self.specs
    }

    /// The sending end: `body` through the chain in order, and the glue
    /// section that travels with it.
    pub(crate) fn apply(
        &self,
        dir: Direction,
        call: &CallInfo,
        body: Bytes,
    ) -> Result<(Bytes, GlueWire), CapError> {
        let (body, caps) = process_chain(&self.chain, dir, call, body)?;
        Ok((body, GlueWire { glue_id: self.glue_id, caps }))
    }

    /// The receiving end: the chain undone in reverse, with the metadata
    /// `wire` carried.
    pub(crate) fn remove(
        &self,
        dir: Direction,
        call: &CallInfo,
        wire: &GlueWire,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        unprocess_chain(&self.chain, dir, call, &wire.caps, body)
    }
}

/// How a capability failure on the server travels back to the caller.
impl From<CapError> for ReplyStatus {
    fn from(e: CapError) -> Self {
        match e {
            CapError::Denied(msg) => ReplyStatus::CapabilityDenied(msg),
            // Deadline caught in the chain (e.g. the stamp was fresh at
            // admission but queue time ate the rest of the budget): same
            // non-retryable status as an admission-time deadline shed.
            CapError::Expired(msg) => ReplyStatus::DeadlineExpired(msg),
            e => ReplyStatus::Exception(format!("glue chain: {e}")),
        }
    }
}

/// Client-side glue protocol object. It keeps one `Glue` per server glue,
/// keyed by the entry's inner endpoint and glue id.
pub struct GlueProto {
    registry: Arc<CapabilityRegistry>,
    /// The copies, each beside the endpoint that issued it. A client calls
    /// few server glues, and scanning a handful costs less than hashing one
    /// key.
    glues: Mutex<Vec<(Box<str>, Arc<Glue>)>>,
    // Named distinctly from `ContextInner.meter`: set once by the
    // by-value builder below, then read-only — no lock needed.
    compute_meter: Option<Arc<dyn ComputeMeter>>,
}

impl GlueProto {
    /// Builds a glue proto-object over the process's capability registry.
    pub fn new(registry: Arc<CapabilityRegistry>) -> Self {
        Self { registry, glues: Mutex::new(Vec::new()), compute_meter: None }
    }

    /// Attaches a compute meter (used by the simulation harness).
    pub fn with_meter(mut self, meter: Arc<dyn ComputeMeter>) -> Self {
        self.compute_meter = Some(meter);
        self
    }

    /// The client's copy of the glue `endpoint` issued as `glue_id`. Copies
    /// are kept because stateful capabilities (request budgets) must retain
    /// their state across calls; a copy built from other specs than the
    /// entry's (dynamic capability replacement) is rebuilt, not reused.
    ///
    /// The chain is built outside the lock, and publication re-checks under
    /// it: of two first calls that race, the later keeps the earlier's
    /// chain — whose budget may already be spent — and drops its own.
    fn glue(
        &self,
        endpoint: &str,
        glue_id: u64,
        specs: &[CapabilitySpec],
    ) -> Result<Arc<Glue>, CapError> {
        let find = |glues: &[(Box<str>, Arc<Glue>)]| {
            let (_, glue) =
                glues.iter().find(|(ep, g)| g.glue_id == glue_id && **ep == *endpoint)?;
            (glue.specs == specs).then(|| glue.clone())
        };
        if let Some(glue) = find(&self.glues.lock()) {
            return Ok(glue);
        }
        let built = Arc::new(Glue::build(&self.registry, glue_id, specs.to_vec())?);
        let mut glues = self.glues.lock();
        if let Some(winner) = find(&glues) {
            return Ok(winner);
        }
        glues.retain(|(ep, g)| g.glue_id != glue_id || **ep != *endpoint);
        glues.push((endpoint.into(), built.clone()));
        Ok(built)
    }

    /// The client's glue for `entry`, and the inner row it wraps. Nested
    /// glue is not wire-representable (a frame carries ONE glue section):
    /// capability composition happens within a single chain.
    fn resolve<'e>(&self, entry: &'e ProtoEntry) -> Result<(Arc<Glue>, &'e ProtoEntry), OrbError> {
        let (glue_id, specs, inner) = match &entry.data {
            ProtoData::Glue { glue_id, caps, inner } => (*glue_id, caps, &**inner),
            ProtoData::Endpoint(_) => {
                return Err(OrbError::Protocol("glue proto-object given a non-glue entry".into()))
            }
        };
        if inner.id == ProtocolId::GLUE {
            return Err(OrbError::Protocol(
                "nested glue entries are not supported: compose capabilities in one chain".into(),
            ));
        }
        Ok((self.glue(inner.terminal_endpoint(), glue_id, specs)?, inner))
    }

    /// Outbound: applies the entry's glue to `req` and resolves the inner
    /// protocol that carries it.
    fn outbound<'e>(
        &self,
        pool: &ProtoPool,
        entry: &'e ProtoEntry,
        req: &RequestMessage,
    ) -> Result<Outbound<'e>, OrbError> {
        let (glue, inner) = self.resolve(entry)?;
        let inner_proto = pool
            .find(inner.id)
            .ok_or_else(|| OrbError::NoApplicableProtocol { offered: vec![inner.id] })?;
        let call = CallInfo { object: req.object, method: req.method, request_id: req.request_id };
        // A clone, deliberately: the GP's retry loop keeps the plaintext for
        // the next attempt, so the chain sees a shared body and leaves it
        // untouched (a capability that rewrites bytes makes its own copy).
        let (body, wire) = metered(self.compute_meter.as_deref(), || {
            glue.apply(Direction::Request, &call, req.body.clone())
        })?;
        let glued = RequestMessage {
            request_id: req.request_id,
            object: req.object,
            method: req.method,
            oneway: req.oneway,
            glue: Some(wire),
            body,
            trace: req.trace.clone(),
        };
        Ok(Outbound { inner_proto, inner, glue, call, glued })
    }
}

/// A request taken through the client's glue, ready for the inner (real)
/// protocol.
struct Outbound<'e> {
    inner_proto: Arc<dyn ProtoObject>,
    inner: &'e ProtoEntry,
    glue: Arc<Glue>,
    call: CallInfo,
    glued: RequestMessage,
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
        // A chain we cannot build locally (unknown capability, missing keys)
        // makes the whole entry unusable, as does nested glue.
        let Ok((glue, inner)) = self.resolve(entry) else { return false };
        if !glue.chain.caps().all(|c| c.applicable(client, server)) {
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

        // Inbound: remove the reply's glue on successful replies.
        if reply.status == ReplyStatus::Ok {
            let Some(wire) = reply.glue.take() else {
                return Err(OrbError::Protocol(
                    "server reply skipped the glue chain".into(),
                ));
            };
            // Moved out, not cloned: as the reply buffer's only owner the
            // chain may undo its transforms in place.
            let body = std::mem::take(&mut reply.body);
            reply.body = metered(self.compute_meter.as_deref(), || {
                out.glue.remove(Direction::Reply, &out.call, &wire, body)
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
        match &entry.data {
            ProtoData::Glue { caps, inner, .. } => {
                let names: Vec<&str> = caps.iter().map(|s| s.name.as_str()).collect();
                format!("glue[{}]->{}", names.join("+"), inner.id)
            }
            ProtoData::Endpoint(_) => "glue[?]".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{CapMeta, Capability};
    use crate::ids::{ObjectId, RequestId};

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

    /// Two servers both issue glue 1; the client keeps a chain for each,
    /// and rebuilds one only when its server's specs change.
    #[test]
    fn one_chain_per_endpoint_and_glue_id() {
        let glue = GlueProto::new(registry());
        let a = glue.glue("tcp://a:1", 1, &specs()).unwrap();
        assert!(Arc::ptr_eq(&a, &glue.glue("tcp://a:1", 1, &specs()).unwrap()));
        let b = glue.glue("tcp://b:1", 1, &specs()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "another server's glue 1 is another chain");
        assert!(Arc::ptr_eq(&a, &glue.glue("tcp://a:1", 1, &specs()).unwrap()));
        let replaced = glue.glue("tcp://a:1", 1, &[CapabilitySpec::new("shift")]).unwrap();
        assert!(!Arc::ptr_eq(&a, &replaced), "replaced specs rebuild the chain");
        assert!(Arc::ptr_eq(&b, &glue.glue("tcp://b:1", 1, &specs()).unwrap()));
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
                    glue.glue("tcp://h:1", 5, &[CapabilitySpec::new("slow")]).unwrap()
                })
            })
            .collect();
        let chains: Vec<Arc<Glue>> = racers.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(chains.iter().all(|c| Arc::ptr_eq(c, &chains[0])), "racers got distinct chains");
        let again = glue.glue("tcp://h:1", 5, &[CapabilitySpec::new("slow")]).unwrap();
        assert!(Arc::ptr_eq(&again, &chains[0]));
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
