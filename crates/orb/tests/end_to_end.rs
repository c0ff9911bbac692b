//! End-to-end ORB tests: a served context, global pointers, typed stubs,
//! protocol selection, glue chains, and location forwarding — over the
//! in-process (shared-memory) fabric, real TCP, and the Nexus baseline.

// Test code may block and spawn: clippy.toml's rules are for serving code.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;

use bytes::Bytes;
use ohpc_netsim::Location;
use ohpc_orb::capability::{CallInfo, CapError, CapMeta};
use ohpc_orb::context::OrRow;
use ohpc_orb::transport_proto::NexusProto;
use ohpc_orb::{
    remote_interface, ApplicabilityRule, Capability, CapabilityRegistry, CapabilitySpec, Context,
    ContextId, Direction, GlobalPointer, GlueProto, OrbError, ProtoPool, ProtocolId,
    TransportProto,
};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
use ohpc_transport::{Dialer, Listener};

remote_interface! {
    type_name = "Counter";
    trait CounterApi;
    skeleton CounterSkeleton;
    client CounterClient;
    fn add(n: i32) -> i32 = 1;
    fn get() -> i32 = 2;
    fn fail(msg: String) -> u32 = 3;
    fn echo_array(v: Vec<i32>) -> Vec<i32> = 4;
}

struct Counter(parking_lot::Mutex<i32>);

impl CounterApi for Counter {
    fn add(&self, n: i32) -> Result<i32, String> {
        let mut g = self.0.lock();
        *g += n;
        Ok(*g)
    }
    fn get(&self) -> Result<i32, String> {
        Ok(*self.0.lock())
    }
    fn fail(&self, msg: String) -> Result<u32, String> {
        Err(msg)
    }
    fn echo_array(&self, v: Vec<i32>) -> Result<Vec<i32>, String> {
        Ok(v)
    }
}

fn new_counter() -> Arc<CounterSkeleton<Counter>> {
    Arc::new(CounterSkeleton(Counter(parking_lot::Mutex::new(0))))
}

/// XOR-with-key capability with a key byte in its config, plus a deny budget.
struct XorCap {
    key: u8,
}

impl Capability for XorCap {
    fn name(&self) -> &str {
        "xor"
    }
    fn process(
        &self,
        _d: Direction,
        _c: &CallInfo,
        meta: &mut CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        meta.set("k", vec![self.key]);
        Ok(body.iter().map(|b| b ^ self.key).collect::<Vec<_>>().into())
    }
    fn unprocess(
        &self,
        _d: Direction,
        _c: &CallInfo,
        meta: &CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        let k = meta.require("k")?[0];
        if k != self.key {
            return Err(CapError::Failed("key mismatch".into()));
        }
        Ok(body.iter().map(|b| b ^ self.key).collect::<Vec<_>>().into())
    }
}

fn registry_with_xor() -> Arc<CapabilityRegistry> {
    let reg = CapabilityRegistry::new();
    reg.register("xor", |spec| {
        let key = spec.config.first().copied().unwrap_or(0x5A);
        Ok(Arc::new(XorCap { key }))
    });
    Arc::new(reg)
}

#[test]
fn mem_fabric_end_to_end_typed_stub() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(1), Location::new(0, 0), registry.clone());
    let id = ctx.register(new_counter());
    ctx.serve(Box::new(fabric.listen()), ProtocolId::SHM);

    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::SHM)]).unwrap();
    let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
        ProtocolId::SHM,
        ApplicabilityRule::SameMachineOnly,
        Arc::new(fabric),
    ))));
    let gp = GlobalPointer::new(or, pool, Location::new(0, 0));
    let client = CounterClient::new(gp);

    assert_eq!(client.add(5).unwrap(), 5);
    assert_eq!(client.add(-2).unwrap(), 3);
    assert_eq!(client.get().unwrap(), 3);
    assert_eq!(client.echo_array(vec![1, 2, 3]).unwrap(), vec![1, 2, 3]);
    assert_eq!(
        client.fail("nope".into()).unwrap_err(),
        OrbError::RemoteException("nope".into())
    );
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "shm");

    ctx.shutdown();
}

#[test]
fn tcp_end_to_end() {
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(2), Location::new(1, 0), registry);
    let id = ctx.register(new_counter());
    ctx.serve(Box::new(TcpAcceptor::bind("127.0.0.1:0").unwrap()), ProtocolId::TCP);

    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
    let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
        ProtocolId::TCP,
        ApplicabilityRule::Always,
        Arc::new(TcpDialer),
    ))));
    // Client on a different machine/LAN than the server.
    let gp = GlobalPointer::new(or, pool, Location::new(7, 3));
    let client = CounterClient::new(gp);
    assert_eq!(client.add(10).unwrap(), 10);
    assert_eq!(client.echo_array((0..1000).collect()).unwrap().len(), 1000);
    ctx.shutdown();
}

#[test]
fn glue_chain_end_to_end() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(3), Location::new(0, 0), registry.clone());
    let id = ctx.register(new_counter());
    ctx.serve(Box::new(fabric.listen()), ProtocolId::TCP);

    let specs = vec![CapabilitySpec::with_config("xor", vec![0x33u8])];
    let glue_id = ctx.add_glue(specs).unwrap();
    let or = ctx
        .make_or(id, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();

    let pool = Arc::new(
        ProtoPool::new()
            .with(Arc::new(GlueProto::new(registry)))
            .with(Arc::new(TransportProto::new(
                ProtocolId::TCP,
                ApplicabilityRule::Always,
                Arc::new(fabric),
            ))),
    );
    let gp = GlobalPointer::new(or, pool, Location::new(9, 1));
    let client = CounterClient::new(gp);
    assert_eq!(client.add(4).unwrap(), 4);
    assert_eq!(client.get().unwrap(), 4);
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "glue[xor]->tcp");
    ctx.shutdown();
}

#[test]
fn selection_prefers_glue_but_falls_back_by_applicability() {
    // OR prefers glue(xor over tcp) then plain tcp. Give the client a pool
    // whose registry does NOT know "xor": glue inapplicable → plain tcp.
    let fabric = MemFabric::new();
    let server_reg = registry_with_xor();
    let ctx = Context::new(ContextId(4), Location::new(0, 0), server_reg);
    let id = ctx.register(new_counter());
    ctx.serve(Box::new(fabric.listen()), ProtocolId::TCP);

    let glue_id = ctx.add_glue(vec![CapabilitySpec::new("xor")]).unwrap();
    let or = ctx
        .make_or(
            id,
            &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }, OrRow::Plain(ProtocolId::TCP)],
        )
        .unwrap();

    let empty_registry = Arc::new(CapabilityRegistry::new());
    let pool = Arc::new(
        ProtoPool::new()
            .with(Arc::new(GlueProto::new(empty_registry)))
            .with(Arc::new(TransportProto::new(
                ProtocolId::TCP,
                ApplicabilityRule::Always,
                Arc::new(fabric),
            ))),
    );
    let gp = GlobalPointer::new(or, pool, Location::new(2, 2));
    let client = CounterClient::new(gp);
    assert_eq!(client.add(1).unwrap(), 1);
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "tcp");
    ctx.shutdown();
}

#[test]
fn nexus_baseline_end_to_end() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(5), Location::new(0, 0), registry);
    let id = ctx.register(new_counter());
    ctx.serve_nexus(Box::new(fabric.listen()), ProtocolId::NEXUS_TCP);

    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::NEXUS_TCP)]).unwrap();
    let pool = Arc::new(ProtoPool::new().with(Arc::new(
        ohpc_orb::transport_proto::NexusProto::new(
            ProtocolId::NEXUS_TCP,
            ApplicabilityRule::Always,
            Arc::new(fabric),
        ),
    )));
    let gp = GlobalPointer::new(or, pool, Location::new(3, 1));
    let client = CounterClient::new(gp);
    assert_eq!(client.add(7).unwrap(), 7);
    assert_eq!(client.get().unwrap(), 7);
    ctx.shutdown();
}

#[test]
fn migration_forwarding_rebinds_transparently() {
    // Object starts in ctx_a, migrates to ctx_b; the client GP chases the
    // tombstone without the application noticing.
    let fabric = MemFabric::new();
    let registry = registry_with_xor();

    let ctx_a = Context::new(ContextId(10), Location::new(0, 0), registry.clone());
    let ctx_b = Context::new(ContextId(11), Location::new(1, 0), registry.clone());
    ctx_a.serve(Box::new(fabric.listen()), ProtocolId::TCP);
    ctx_b.serve(Box::new(fabric.listen()), ProtocolId::TCP);

    let skel = new_counter();
    let id = ctx_a.register(skel.clone());
    let or_a = ctx_a.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();

    let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
        ProtocolId::TCP,
        ApplicabilityRule::Always,
        Arc::new(fabric),
    ))));
    let gp = GlobalPointer::new(or_a, pool, Location::new(5, 2));
    let client = CounterClient::new(gp);
    assert_eq!(client.add(3).unwrap(), 3);

    // Migrate: move the object, install a tombstone pointing at ctx_b.
    let obj = ctx_a.take_object(id).unwrap();
    ctx_b.adopt(id, obj);
    let or_b = ctx_b.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
    ctx_a.install_tombstone(id, or_b);

    // Same client keeps working; state travelled with the object.
    assert_eq!(client.add(4).unwrap(), 7);
    assert_eq!(client.gp().forwards_seen(), 1);
    assert_eq!(client.gp().object_reference().location, Location::new(1, 0));

    // Subsequent calls go straight to ctx_b (no more forwards).
    assert_eq!(client.get().unwrap(), 7);
    assert_eq!(client.gp().forwards_seen(), 1);

    ctx_a.shutdown();
    ctx_b.shutdown();
}

#[test]
fn oneway_invocations_dispatch_without_replies() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(20), Location::new(0, 0), registry.clone());
    let skel = new_counter();
    let id = ctx.register(skel);
    ctx.serve(Box::new(fabric.listen()), ProtocolId::TCP);
    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
    let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
        ProtocolId::TCP,
        ApplicabilityRule::Always,
        Arc::new(fabric),
    ))));
    let gp = GlobalPointer::new(or, pool, Location::new(3, 1));

    // Fire 10 one-way adds, then confirm with a two-way get on the SAME
    // connection — this also proves the reply stream stayed in sync (no
    // stray replies were queued for the one-ways).
    for _ in 0..10 {
        let mut w = ohpc_xdr::XdrWriter::new();
        use ohpc_xdr::XdrEncode;
        1i32.encode(&mut w);
        gp.invoke_oneway(1, &w).unwrap();
    }
    let client = CounterClient::new(gp);
    // One-ways race the following two-way on the same ordered connection,
    // so by the time get() is answered all adds have been dispatched.
    assert_eq!(client.get().unwrap(), 10);
    assert_eq!(ctx.requests_served(), 11);
    ctx.shutdown();
}

#[test]
fn oneway_through_glue_chain() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(21), Location::new(0, 0), registry.clone());
    let skel = new_counter();
    let id = ctx.register(skel);
    ctx.serve(Box::new(fabric.listen()), ProtocolId::TCP);
    let glue_id = ctx.add_glue(vec![CapabilitySpec::with_config("xor", vec![0x21u8])]).unwrap();
    let or = ctx
        .make_or(id, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();
    let pool = Arc::new(
        ProtoPool::new()
            .with(Arc::new(GlueProto::new(registry)))
            .with(Arc::new(TransportProto::new(
                ProtocolId::TCP,
                ApplicabilityRule::Always,
                Arc::new(fabric),
            ))),
    );
    let gp = GlobalPointer::new(or, pool, Location::new(3, 1));
    for _ in 0..5 {
        let mut w = ohpc_xdr::XdrWriter::new();
        use ohpc_xdr::XdrEncode;
        2i32.encode(&mut w);
        gp.invoke_oneway(1, &w).unwrap();
    }
    let client = CounterClient::new(gp);
    assert_eq!(client.get().unwrap(), 10, "all glue-processed one-ways dispatched");
    ctx.shutdown();
}

#[test]
fn oneway_over_nexus_baseline() {
    // NexusProto one-ways are genuine one-way RSRs (no reply frame at all).
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(22), Location::new(0, 0), registry);
    let skel = new_counter();
    let id = ctx.register(skel);
    ctx.serve_nexus(Box::new(fabric.listen()), ProtocolId::NEXUS_TCP);
    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::NEXUS_TCP)]).unwrap();
    let pool = Arc::new(ProtoPool::new().with(Arc::new(
        ohpc_orb::transport_proto::NexusProto::new(
            ProtocolId::NEXUS_TCP,
            ApplicabilityRule::Always,
            Arc::new(fabric),
        ),
    )));
    let gp = GlobalPointer::new(or, pool, Location::new(3, 1));
    for _ in 0..4 {
        let mut w = ohpc_xdr::XdrWriter::new();
        use ohpc_xdr::XdrEncode;
        3i32.encode(&mut w);
        gp.invoke_oneway(1, &w).unwrap();
    }
    let client = CounterClient::new(gp);
    assert_eq!(client.get().unwrap(), 12);
    ctx.shutdown();
}

/// Interop pin, the other direction from `nexus_failed_rsr_evicts_and_redials`
/// (unified client, stand-alone service): a stand-alone `Startpoint` is
/// served by `Context::serve_nexus`, over the in-process fabric and over TCP.
#[test]
fn stand_alone_startpoint_is_served_by_serve_nexus() {
    use ohpc_nexus::{HandlerId, NexusError, Startpoint};
    use ohpc_orb::message::NEXUS_ORB_HANDLER;
    use ohpc_orb::{ReplyMessage, ReplyStatus, RequestId, RequestMessage};
    use ohpc_xdr::{XdrEncode, XdrWriter};

    let fabric = MemFabric::new();
    let dialers: [(Box<dyn Listener>, &dyn Dialer); 2] = [
        (Box::new(fabric.listen()), &fabric),
        (Box::new(TcpAcceptor::bind("127.0.0.1:0").unwrap()), &TcpDialer),
    ];
    for (listener, dialer) in dialers {
        let ctx = Context::new(ContextId(23), Location::new(0, 0), registry_with_xor());
        let object = ctx.register(new_counter());
        let endpoint = listener.endpoint();
        ctx.serve_nexus(listener, ProtocolId::NEXUS_TCP);
        let startpoint = Startpoint::connect(dialer, &endpoint).unwrap();

        let add = |n: i32, id: u64, oneway: bool| {
            let mut body = XdrWriter::new();
            n.encode(&mut body);
            let request = RequestMessage {
                request_id: RequestId(id),
                object,
                method: 1,
                oneway,
                glue: None,
                body: body.finish(),
                trace: None,
            };
            let mut args = XdrWriter::new();
            args.put_fixed_opaque(&request.to_frame());
            args
        };
        startpoint.rsr(NEXUS_ORB_HANDLER, &add(4, 1, true)).unwrap();
        let answer = startpoint.rsr_reply(NEXUS_ORB_HANDLER, &add(3, 2, false)).unwrap();
        let reply = ReplyMessage::from_frame(&answer).unwrap();
        assert_eq!((reply.request_id, &reply.status), (RequestId(2), &ReplyStatus::Ok));
        assert_eq!(ohpc_xdr::decode_from_slice::<i32>(&reply.body).unwrap(), 7);

        // The context registers the one handler; any other is refused the
        // way a stand-alone service refuses it.
        assert_eq!(
            startpoint.rsr_reply(HandlerId(7), &XdrWriter::new()),
            Err(NexusError::NoSuchHandler(7))
        );
        ctx.shutdown();
    }
}

/// A crashed context stops serving its Nexus clients too: the cached
/// connection is dropped at the next request, which is not executed.
#[test]
fn crashed_context_stops_serving_nexus_clients() {
    let fabric = MemFabric::new();
    let ctx = Context::new(ContextId(24), Location::new(0, 0), registry_with_xor());
    let skel = new_counter();
    let id = ctx.register(skel.clone());
    ctx.serve_nexus(Box::new(fabric.listen_on(780)), ProtocolId::NEXUS_TCP);
    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::NEXUS_TCP)]).unwrap();
    let pool = Arc::new(ProtoPool::new().with(Arc::new(NexusProto::new(
        ProtocolId::NEXUS_TCP,
        ApplicabilityRule::Always,
        Arc::new(fabric.clone()),
    ))));
    let client = CounterClient::new(GlobalPointer::new(or, pool, Location::new(2, 1)));
    assert_eq!(client.add(7).unwrap(), 7);

    ctx.crash();
    let err = client.add(1).unwrap_err();
    assert!(err.is_transport(), "crashed context must refuse cleanly: {err}");
    assert_eq!(*skel.0 .0.lock(), 7, "a crashed context executed a request");

    ctx.restart();
    ctx.serve_nexus(Box::new(fabric.listen_on(780)), ProtocolId::NEXUS_TCP);
    assert_eq!(client.add(2).unwrap(), 9);
    ctx.shutdown();
}

remote_interface! {
    type_name = "Rendezvous";
    trait RendezvousApi;
    skeleton RendezvousSkeleton;
    client RendezvousClient;
    fn meet() -> u32 = 1;
}

/// `meet` returns once two callers are inside it at the same time.
#[derive(Default)]
struct Rendezvous {
    arrived: std::sync::Mutex<u32>,
    both: std::sync::Condvar,
}

impl RendezvousApi for Rendezvous {
    fn meet(&self) -> Result<u32, String> {
        let mut arrived = self.arrived.lock().map_err(|e| e.to_string())?;
        *arrived += 1;
        self.both.notify_all();
        let patience = std::time::Duration::from_secs(20);
        let (arrived, _) = self
            .both
            .wait_timeout_while(arrived, patience, |n| *n < 2)
            .map_err(|e| e.to_string())?;
        if *arrived < 2 {
            return Err("nobody else came".into());
        }
        Ok(*arrived)
    }
}

/// Two callers on one Nexus GP are in flight at once on its one connection:
/// each `meet` can only return if the other's request reached the skeleton
/// while it waited. (A startpoint locked across the exchange serialised
/// them, and the first caller waited alone.)
#[test]
fn nexus_two_ways_overlap_on_one_connection() {
    let fabric = MemFabric::new();
    let ctx = Context::new(ContextId(25), Location::new(0, 0), registry_with_xor());
    let id = ctx.register(Arc::new(RendezvousSkeleton(Rendezvous::default())));
    ctx.serve_nexus(Box::new(fabric.listen()), ProtocolId::NEXUS_TCP);
    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::NEXUS_TCP)]).unwrap();
    let pool = Arc::new(ProtoPool::new().with(Arc::new(NexusProto::new(
        ProtocolId::NEXUS_TCP,
        ApplicabilityRule::Always,
        Arc::new(fabric),
    ))));
    let client = Arc::new(RendezvousClient::new(GlobalPointer::new(or, pool, Location::new(3, 1))));
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let client = client.clone();
            std::thread::spawn(move || client.meet())
        })
        .collect();
    for caller in callers {
        assert_eq!(caller.join().unwrap(), Ok(2));
    }
    ctx.shutdown();
}

/// How a context serves a listener, and the proto-object that dials it: the
/// bare pair and the Nexus (RSR-framed) pair.
type Serve = fn(&Context, Box<dyn Listener>, ProtocolId);
type Proto = fn(ProtocolId, ApplicabilityRule, Arc<dyn Dialer>) -> TransportProto;
const PAIRS: [(Serve, Proto, ProtocolId); 2] = [
    (Context::serve, TransportProto::new, ProtocolId::TCP),
    (Context::serve_nexus, NexusProto::new, ProtocolId::NEXUS_TCP),
];

#[test]
fn client_survives_server_restart_via_reconnect() {
    // The cached connection dies with the first server instance; the next
    // invocation transparently re-dials the (re-bound) endpoint.
    for (port, (serve, proto, protocol)) in (777..).zip(PAIRS) {
        let fabric = MemFabric::new();
        let registry = registry_with_xor();

        let ctx1 = Context::new(ContextId(30), Location::new(0, 0), registry.clone());
        let id1 = ctx1.register(new_counter());
        serve(&ctx1, Box::new(fabric.listen_on(port)), protocol);
        let or = ctx1.make_or(id1, &[OrRow::Plain(protocol)]).unwrap();

        let pool = Arc::new(ProtoPool::new().with(Arc::new(proto(
            protocol,
            ApplicabilityRule::Always,
            Arc::new(fabric.clone()),
        ))));
        let client = CounterClient::new(GlobalPointer::new(or, pool, Location::new(2, 1)));
        assert_eq!(client.add(1).unwrap(), 1);

        // "Restart": tear the whole context down, bring a fresh one up on the
        // SAME endpoint with an object under the same id.
        ctx1.shutdown();
        let ctx2 = Context::new(ContextId(30), Location::new(0, 0), registry);
        let skel2 = new_counter();
        ctx2.adopt(id1, skel2);
        serve(&ctx2, Box::new(fabric.listen_on(port)), protocol);

        // Same client object, same OR: the first attempt lands on the dead
        // cached connection. If the send itself fails, the frame provably
        // never left and the ORB transparently re-dials; if the send is
        // accepted and the reply never comes, the outcome is ambiguous — the
        // dying server may have executed the add — and a non-idempotent
        // request is NOT re-sent. Either way the dead connection is evicted,
        // so the next call dials the new listener. State reset to 0 — it is
        // a restart, not a migration.
        match client.add(2) {
            Ok(v) => assert_eq!(v, 2, "{protocol}"),
            Err(e) => {
                assert!(e.is_transport(), "unexpected error after restart: {e}");
                assert_eq!(client.add(2).unwrap(), 2, "{protocol}");
            }
        }
        ctx2.shutdown();
    }
}

#[test]
fn context_crash_and_restart_preserves_objects() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(31), Location::new(0, 0), registry);
    let id = ctx.register(new_counter());
    ctx.serve(Box::new(fabric.listen_on(778)), ProtocolId::TCP);
    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();

    let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
        ProtocolId::TCP,
        ApplicabilityRule::Always,
        Arc::new(fabric.clone()),
    ))));
    let client = CounterClient::new(GlobalPointer::new(or, pool, Location::new(2, 1)));
    assert_eq!(client.add(1).unwrap(), 1);

    // Crash: every call now fails with a typed transport error — retries
    // find no listener to dial.
    ctx.crash();
    let err = client.add(10).unwrap_err();
    assert!(err.is_transport(), "crashed context must refuse cleanly: {err}");

    // Restart on the same endpoint: the object table survived the crash
    // (counter continues from 1, even though the failed add opened the
    // entry's breaker — an all-denied table still probes its best row).
    ctx.restart();
    ctx.serve(Box::new(fabric.listen_on(778)), ProtocolId::TCP);
    assert_eq!(client.add(2).unwrap(), 3);
    ctx.shutdown();
}

#[test]
fn or_restriction_denies_protocols() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(12), Location::new(0, 0), registry);
    let id = ctx.register(new_counter());
    ctx.serve(Box::new(fabric.listen()), ProtocolId::SHM);
    ctx.serve(Box::new(fabric.listen()), ProtocolId::TCP);

    let or = ctx
        .make_or(id, &[OrRow::Plain(ProtocolId::SHM), OrRow::Plain(ProtocolId::TCP)])
        .unwrap();
    // Server hands an untrusted client a restricted OR without SHM.
    let restricted = or.restricted(|e| e.id != ProtocolId::SHM);

    let pool = Arc::new(
        ProtoPool::new()
            .with(Arc::new(TransportProto::new(
                ProtocolId::SHM,
                ApplicabilityRule::SameMachineOnly,
                Arc::new(fabric.clone()),
            )))
            .with(Arc::new(TransportProto::new(
                ProtocolId::TCP,
                ApplicabilityRule::Always,
                Arc::new(fabric),
            ))),
    );
    // Even a same-machine client cannot use SHM through the restricted OR.
    let gp = GlobalPointer::new(restricted, pool, Location::new(0, 0));
    let client = CounterClient::new(gp);
    assert_eq!(client.add(2).unwrap(), 2);
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "tcp");
    ctx.shutdown();
}

#[test]
fn concurrent_clients_share_a_served_object() {
    let fabric = MemFabric::new();
    let registry = registry_with_xor();
    let ctx = Context::new(ContextId(13), Location::new(0, 0), registry);
    let id = ctx.register(new_counter());
    ctx.serve(Box::new(fabric.listen()), ProtocolId::TCP);
    let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let or = or.clone();
            let fabric = fabric.clone();
            std::thread::spawn(move || {
                let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
                    ProtocolId::TCP,
                    ApplicabilityRule::Always,
                    Arc::new(fabric),
                ))));
                let client =
                    CounterClient::new(GlobalPointer::new(or, pool, Location::new(8, 4)));
                for _ in 0..25 {
                    client.add(1).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Total adds = 4 threads * 25.
    let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
        ProtocolId::TCP,
        ApplicabilityRule::Always,
        Arc::new(fabric),
    ))));
    let client = CounterClient::new(GlobalPointer::new(or, pool, Location::new(8, 4)));
    assert_eq!(client.get().unwrap(), 100);
    assert_eq!(ctx.requests_served(), 101);
    ctx.shutdown();
}
