//! Server-side capability enforcement under adversarial clients: the server
//! copies of the capabilities (the paper's "GC has its own copies") must
//! hold the line even when the client side misbehaves.

use std::sync::Arc;

use bytes::Bytes;
use ohpc_apps::{WeatherClient, WeatherService, WeatherSkeleton};
use ohpc_bench::setup::{SimDeployment, EXPERIMENT_KEY};
use ohpc_bench::workload::{EchoArray, EchoArrayClient, EchoArraySkeleton};
use ohpc_caps::{AclCap, AuthCap, CapScope, LogStats, LoggingCap, TimeoutCap};
use ohpc_netsim::{Cluster, LanId, LinkProfile, Location, MachineId};
use ohpc_orb::context::OrRow;
use ohpc_orb::message::{CapWireMeta, GlueWire};
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, GlueProto, ObjectId,
    OrbError, ProtoPool, ProtocolId, ReplyStatus, RequestId, RequestMessage, TransportProto,
};
use ohpc_telemetry::Registry;
use ohpc_transport::mem::MemFabric;

fn deployment() -> (SimDeployment, MachineId, MachineId) {
    let (mut c, mut s) = (MachineId(0), MachineId(0));
    let cluster = Cluster::builder()
        .lan(LanId(0), LinkProfile::fast_ethernet())
        .machine("client", LanId(0), &mut c)
        .machine("server", LanId(0), &mut s)
        .build();
    (SimDeployment::new(cluster), c, s)
}

#[test]
fn server_budget_cuts_off_even_if_client_lies() {
    // The adversary crafts raw requests claiming glue metadata but the
    // server-side TimeoutCap still counts and denies.
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let glue_id = server.add_glue(vec![TimeoutCap::spec(3)]).unwrap();
    let _or = server
        .make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();
    let _ = m_client;

    // Forge requests directly against the dispatch path: correct glue id,
    // valid (empty) timeout metadata, bypassing any client-side counting.
    let empty_meta = ohpc_orb::capability::CapMeta::new().blob().clone();
    let mut denials = 0;
    for i in 0..6u64 {
        let req = RequestMessage {
            request_id: RequestId(i),
            object,
            method: 3, // regions()
            oneway: false,
            glue: Some(GlueWire {
                glue_id,
                caps: vec![CapWireMeta { name: "timeout".into(), meta: empty_meta.clone() }].into(),
            }),
            body: Bytes::new(),
            trace: None,
        };
        match server.handle_request(req).status {
            ReplyStatus::Ok => {}
            ReplyStatus::CapabilityDenied(_) => denials += 1,
            s => panic!("unexpected status {s:?}"),
        }
    }
    assert_eq!(denials, 3, "server-side budget allowed exactly 3 of 6");
    server.shutdown();
}

#[test]
fn acl_cannot_be_bypassed_by_raw_requests() {
    let (dep, _, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let glue_id = server.add_glue(vec![AclCap::spec(&[1, 3])]).unwrap();

    let empty_meta = ohpc_orb::capability::CapMeta::new().blob().clone();
    let raw = |method: u32| -> ReplyStatus {
        let mut w = ohpc_xdr::XdrWriter::new();
        use ohpc_xdr::XdrEncode;
        if method == 2 {
            "midwest".encode(&mut w);
            vec![1.0f64].encode(&mut w);
        } else if method == 1 {
            "midwest".encode(&mut w);
        }
        server
            .handle_request(RequestMessage {
                request_id: RequestId(1),
                object,
                method,
                oneway: false,
                glue: Some(GlueWire {
                    glue_id,
                    caps: vec![CapWireMeta { name: "acl".into(), meta: empty_meta.clone() }].into(),
                }),
                body: Bytes::copy_from_slice(w.peek()),
                trace: None,
            })
            .status
    };
    assert_eq!(raw(3), ReplyStatus::Ok, "allowed method passes");
    assert!(
        matches!(raw(2), ReplyStatus::CapabilityDenied(_)),
        "write denied at the server"
    );
    server.shutdown();
}

#[test]
fn requests_without_glue_cannot_reach_glued_entry_semantics() {
    // A client that strips the glue section entirely gets plain dispatch —
    // which is why servers that *require* capabilities only advertise glue
    // rows AND refuse to serve plain transports for that object... here we
    // assert the building block: glue-less requests bypass nothing that the
    // OR did not offer (the object itself is still served, per the paper's
    // model where capability rows are per-reference grants).
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let glue_id = server
        .add_glue(vec![AuthCap::spec(EXPERIMENT_KEY, "trusted", CapScope::Always)])
        .unwrap();
    let or = server
        .make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();

    // Honest client with the right key: works.
    let good = WeatherClient::new(dep.client_gp(m_client, or.clone()));
    assert!(good.regions().is_ok());

    // Forged request with a bogus MAC: denied.
    let mut meta = ohpc_orb::capability::CapMeta::new();
    meta.set("principal", b"trusted");
    meta.set("mac", vec![0u8; 32]);
    let reply = server.handle_request(RequestMessage {
        request_id: RequestId(9),
        object,
        method: 3,
        oneway: false,
        glue: Some(GlueWire {
            glue_id,
            caps: vec![CapWireMeta { name: "auth".into(), meta: meta.blob().clone() }].into(),
        }),
        body: Bytes::new(),
        trace: None,
    });
    assert!(matches!(reply.status, ReplyStatus::CapabilityDenied(_)));
    server.shutdown();
}

#[test]
fn unknown_glue_id_is_rejected_cleanly() {
    let (dep, _, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let reply = server.handle_request(RequestMessage {
        request_id: RequestId(1),
        object,
        method: 3,
        oneway: false,
        glue: Some(GlueWire { glue_id: 0xDEAD, caps: vec![].into() }),
        body: Bytes::new(),
        trace: None,
    });
    assert_eq!(reply.status, ReplyStatus::UnknownGlue(0xDEAD));
    server.shutdown();
}

#[test]
fn lease_expiry_ends_access_midstream() {
    use ohpc_caps::LeaseCap;
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    // 150 ms of real time — enough for a few requests, then the door shuts.
    let glue_id = server.add_glue(vec![LeaseCap::spec(150)]).unwrap();
    let or = server
        .make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();
    let client = WeatherClient::new(dep.client_gp(m_client, or));

    assert!(client.regions().is_ok(), "lease is fresh");
    std::thread::sleep(std::time::Duration::from_millis(200));
    let err = client.regions().unwrap_err();
    assert!(matches!(err, OrbError::Capability(_)), "lease expired: {err}");
    server.shutdown();
}

#[test]
fn restricted_or_is_a_real_restriction() {
    // Handing out an OR without the plain row means the recipient cannot
    // invoke without passing the chain — the capability model's core grant
    // semantics.
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let glue_id = server.add_glue(vec![TimeoutCap::spec(1)]).unwrap();
    let or = server
        .make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();
    let client = WeatherClient::new(dep.client_gp(m_client, or));
    assert!(client.regions().is_ok());
    // budget of 1 exhausted — and there is no other row to fall back to
    let err = client.regions().unwrap_err();
    assert!(matches!(err, OrbError::Capability(_) | OrbError::NoApplicableProtocol { .. }));
    let _ = ObjectId(0); // silence unused import lint paths on some configs
    server.shutdown();
}

/// Glue is applied and removed once per message that travels, and a
/// one-way's reply never travels: through glue[log], N one-ways then one
/// two-way `served()` log N + 1 requests and exactly one reply.
#[test]
fn a_one_way_runs_no_reply_glue() {
    const ONE_WAYS: u64 = 20;
    let stats = Arc::new(LogStats::in_registry(&Registry::new(), "one-way"));
    let registry = Arc::new(CapabilityRegistry::new());
    let log = LoggingCap::spec("one-way");
    let logged = stats.clone();
    registry.register(&log.name, move |spec| {
        LoggingCap::from_spec(spec, logged.clone()).map(|c| Arc::new(c) as _)
    });
    let here = Location::new(0, 0);
    let server = Context::new(ContextId(1), here, registry.clone());
    let object = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let fabric = MemFabric::new();
    server.serve(Box::new(fabric.listen()), ProtocolId::SHM);
    let glue_id = server.add_glue(vec![log]).unwrap();
    let or = server.make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::SHM }]).unwrap();
    let always = ApplicabilityRule::Always;
    let pool = ProtoPool::new()
        .with(Arc::new(GlueProto::new(registry)))
        .with(Arc::new(TransportProto::new(ProtocolId::SHM, always, Arc::new(fabric))));
    let client = EchoArrayClient::new(GlobalPointer::new(or, Arc::new(pool), here));

    let mut args = ohpc_xdr::XdrWriter::new();
    ohpc_xdr::XdrEncode::encode(&vec![1i32, 2, 3], &mut args);
    for _ in 0..ONE_WAYS {
        client.gp().invoke_oneway(1, &args).unwrap();
    }
    assert_eq!(client.served().unwrap(), ONE_WAYS, "served() answers after the one-ways ran");
    let (requests, replies, _, _) = stats.snapshot();
    assert_eq!(requests, ONE_WAYS + 1, "client-side request glue");
    assert_eq!(replies, 1, "server-side reply glue ran for a reply nobody was sent");
    server.shutdown();
}
