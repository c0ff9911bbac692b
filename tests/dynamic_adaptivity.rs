//! Dynamic adaptivity: the run-time knobs the paper's §3.2/§4 promise —
//! editing the proto-pool, reordering preferences per GP, and swapping a
//! glue chain's capabilities while references to it are live.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ohpc_apps::{WeatherClient, WeatherService, WeatherSkeleton};
use ohpc_bench::setup::{SimDeployment, EXPERIMENT_KEY};
use ohpc_caps::{EncryptionCap, LoggingCap, TimeoutCap};
use ohpc_netsim::{Cluster, LanId, LinkProfile, MachineId};
use ohpc_orb::capability::{CallInfo, CapError, CapMeta, Capability, CapabilitySpec, Direction};
use ohpc_orb::context::OrRow;
use ohpc_orb::transport_proto::NexusProto;
use ohpc_orb::{
    ApplicabilityRule, Context, GlobalPointer, ProtoPool, ProtocolId, TransportProto,
};

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
fn pool_editing_disables_protocols_at_runtime() {
    // "an application can influence the protocol selection decisions by
    // choosing proper ORs and proto-pools"
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let or = server
        .make_or(object, &[OrRow::Plain(ProtocolId::TCP), OrRow::Plain(ProtocolId::NEXUS_TCP)])
        .unwrap();

    // Pool v1: both protocols.
    let dialer = Arc::new(dep.fabric.dialer(m_client));
    let mut pool = ProtoPool::new()
        .with(Arc::new(TransportProto::new(ProtocolId::TCP, ApplicabilityRule::Always, dialer.clone())))
        .with(Arc::new(NexusProto::new(ProtocolId::NEXUS_TCP, ApplicabilityRule::Always, dialer.clone())));

    let location = dep.net.cluster().location_of(m_client);
    let client =
        WeatherClient::new(GlobalPointer::new(or.clone(), Arc::new(pool.clone()), location));
    client.regions().unwrap();
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "tcp");

    // Administrator removes TCP from local policy → same OR now selects the
    // baseline. (Pools are immutable snapshots behind Arc, so the edit is a
    // new pool + rebind, which is exactly how local policy rollout works.)
    assert_eq!(pool.remove(ProtocolId::TCP), 1);
    let client2 = WeatherClient::new(GlobalPointer::new(or, Arc::new(pool), location));
    client2.regions().unwrap();
    assert_eq!(client2.gp().last_protocol().as_deref().unwrap(), "nexus(nexus-tcp)");
    server.shutdown();
}

#[test]
fn gp_preference_overrides_or_order_but_not_applicability() {
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let or = server
        .make_or(
            object,
            &[
                OrRow::Plain(ProtocolId::TCP),
                OrRow::Plain(ProtocolId::NEXUS_TCP),
                OrRow::Plain(ProtocolId::SHM),
            ],
        )
        .unwrap();
    let client = WeatherClient::new(dep.client_gp(m_client, or));

    client.regions().unwrap();
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "tcp", "OR order wins by default");

    client.gp().prefer(ProtocolId::NEXUS_TCP);
    client.regions().unwrap();
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "nexus(nexus-tcp)");

    // Preferring an inapplicable protocol cannot force it: SHM needs the
    // same machine, so selection falls through to the next applicable row.
    client.gp().prefer(ProtocolId::SHM);
    client.regions().unwrap();
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "nexus(nexus-tcp)");

    // Banning is absolute.
    client.gp().ban(ProtocolId::NEXUS_TCP);
    client.regions().unwrap();
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "tcp");
    server.shutdown();
}

#[test]
fn replace_glue_swaps_capabilities_under_live_references() {
    // "Capabilities … can also be changed dynamically to help applications
    // adapt": the server upgrades a chain from logging-only to
    // logging+encryption; the client's next call uses the new chain via the
    // refreshed OR, while its glue id stays stable.
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let glue_id = server.add_glue(vec![LoggingCap::spec("v1")]).unwrap();
    let or_v1 = server
        .make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();

    let client = WeatherClient::new(dep.client_gp(m_client, or_v1));
    client.regions().unwrap();
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "glue[log]->tcp");

    // Server hardens the chain in place.
    server
        .replace_glue(glue_id, vec![LoggingCap::spec("v2"), EncryptionCap::spec(EXPERIMENT_KEY)])
        .unwrap();
    let or_v2 = server
        .make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }])
        .unwrap();

    // A client still on the old OR now has a chain mismatch — the server
    // fails the request rather than silently accepting the weaker chain.
    assert!(client.regions().is_err(), "stale chain must not pass");

    // After rebinding (e.g. re-resolving from the registry) everything works
    // with the stronger capabilities.
    client.gp().rebind(or_v2);
    client.regions().unwrap();
    assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "glue[log+security]->tcp");
    server.shutdown();
}

#[test]
fn per_reference_budgets_are_independent() {
    // Two references to one object with separate budgets: exhausting one
    // leaves the other untouched — capabilities belong to the reference,
    // not the object.
    let (dep, m_client, m_server) = deployment();
    let server = dep.server(m_server);
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let g1 = server.add_glue(vec![TimeoutCap::spec(2)]).unwrap();
    let g2 = server.add_glue(vec![TimeoutCap::spec(1000)]).unwrap();
    let or1 = server.make_or(object, &[OrRow::Glue { glue_id: g1, inner: ProtocolId::TCP }]).unwrap();
    let or2 = server.make_or(object, &[OrRow::Glue { glue_id: g2, inner: ProtocolId::TCP }]).unwrap();

    let c1 = WeatherClient::new(dep.client_gp(m_client, or1));
    let c2 = WeatherClient::new(dep.client_gp(m_client, or2));
    assert!(c1.regions().is_ok());
    assert!(c1.regions().is_ok());
    assert!(c1.regions().is_err(), "budget of 2 exhausted");
    for _ in 0..10 {
        assert!(c2.regions().is_ok(), "other reference unaffected");
    }
    server.shutdown();
}

/// Binds a client, through the one `pool`, to a fresh object behind a glue
/// row that `server` issues with `specs`; every context numbers its glues
/// from 1, so each server issues glue 1.
fn glued_client(
    dep: &SimDeployment,
    m_client: MachineId,
    pool: &Arc<ProtoPool>,
    server: &Context,
    specs: Vec<CapabilitySpec>,
) -> WeatherClient {
    let object = server.register(Arc::new(WeatherSkeleton(WeatherService::seeded())));
    let glue_id = server.add_glue(specs).unwrap();
    assert_eq!(glue_id, 1);
    let or = server.make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }]).unwrap();
    let location = dep.net.cluster().location_of(m_client);
    WeatherClient::new(GlobalPointer::new(or, pool.clone(), location))
}

#[test]
fn servers_that_issue_the_same_glue_id_get_separate_client_budgets() {
    // The client's copy of a chain belongs to the server glue it serves:
    // spending A's budget of 2 leaves B's untouched.
    let (dep, m_client, m_server) = deployment();
    let (a, b) = (dep.server(m_server), dep.server(m_server));
    let pool = dep.client_pool(m_client);
    let to_a = glued_client(&dep, m_client, &pool, &a, vec![TimeoutCap::spec(2)]);
    let to_b = glued_client(&dep, m_client, &pool, &b, vec![TimeoutCap::spec(2)]);
    to_a.regions().unwrap();
    to_a.regions().unwrap();
    to_b.regions().expect("B's budget is B's own");
    assert!(to_a.regions().is_err(), "A's budget of 2 exhausted");
    a.shutdown();
    b.shutdown();
}

/// Changes nothing; its factory counts the chains built with it.
struct Counted;
impl Capability for Counted {
    fn name(&self) -> &str {
        "counted"
    }
    fn process(&self, _d: Direction, _c: &CallInfo, _m: &mut CapMeta, b: Bytes) -> Result<Bytes, CapError> {
        Ok(b)
    }
    fn unprocess(&self, _d: Direction, _c: &CallInfo, _m: &CapMeta, b: Bytes) -> Result<Bytes, CapError> {
        Ok(b)
    }
}

#[test]
fn alternating_between_two_servers_builds_each_client_chain_once() {
    // Same glue id, different spec lists: switching servers must not look
    // like a dynamic replacement, which would rebuild the chain (and reset
    // its state) on every switch.
    let (dep, m_client, m_server) = deployment();
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = builds.clone();
    dep.registry.register("counted", move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(Counted))
    });
    let counted = || CapabilitySpec::new("counted");
    let (a, b) = (dep.server(m_server), dep.server(m_server));
    let pool = dep.client_pool(m_client);
    let to_a = glued_client(&dep, m_client, &pool, &a, vec![counted()]);
    let to_b = glued_client(&dep, m_client, &pool, &b, vec![counted(), LoggingCap::spec("b")]);
    let server_builds = builds.load(Ordering::Relaxed);
    assert_eq!(server_builds, 2);
    for _ in 0..3 {
        to_a.regions().unwrap();
        to_b.regions().unwrap();
    }
    assert_eq!(builds.load(Ordering::Relaxed) - server_builds, 2, "one client chain per server");
    a.shutdown();
    b.shutdown();
}
