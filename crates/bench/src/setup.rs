//! Deployment plumbing shared by the figure harnesses.
//!
//! A [`SimDeployment`] owns one simulated network plus the capability
//! registry (with the experiment pre-shared key) and knows how to stand up
//! server contexts and client proto-pools on any machine of the cluster —
//! exactly the pieces a real Open HPC++ installation would configure.

use std::sync::Arc;

use ohpc_caps::{register_standard, LogStats};
use ohpc_crypto::KeyStore;
use ohpc_netsim::{Cluster, MachineId, SimNet};
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, GlueProto,
    ObjectReference, ProtoPool, ProtocolId,
};
use ohpc_transport::sim::SimFabric;
use ohpc_orb::transport_proto::NexusProto;
use ohpc_orb::TransportProto;

/// Name of the pre-shared key every experiment party holds.
pub const EXPERIMENT_KEY: &str = "site-key";

/// A capability registry holding the standard capabilities and the
/// experiment key, with the traffic stats its `log` capabilities share.
pub(crate) fn experiment_registry() -> (Arc<CapabilityRegistry>, Arc<LogStats>) {
    let registry = CapabilityRegistry::new();
    let mut keys = KeyStore::new();
    keys.add_key(EXPERIMENT_KEY, b"open-hpc++-experiment-psk");
    let stats = register_standard(&registry, keys);
    (Arc::new(registry), stats)
}

/// One simulated-cluster deployment.
pub struct SimDeployment {
    /// The simulated network (owns the virtual clock).
    pub net: SimNet,
    /// Channel fabric charging transfers to `net`.
    pub fabric: SimFabric,
    /// Capability registry with the standard capabilities + experiment key.
    pub registry: Arc<CapabilityRegistry>,
    /// Shared traffic stats from `log` capabilities.
    pub stats: Arc<LogStats>,
    next_ctx: std::sync::atomic::AtomicU64,
}

impl SimDeployment {
    /// Builds a deployment over `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        let net = SimNet::new(cluster);
        let fabric = SimFabric::new(net.clone());
        let (registry, stats) = experiment_registry();
        Self { net, fabric, registry, stats, next_ctx: std::sync::atomic::AtomicU64::new(1) }
    }

    /// Stands up a server context on `machine`, serving the raw-frame
    /// protocol (advertised as both TCP and SHM — the endpoint is the same,
    /// applicability differs on the client side) and the Nexus baseline.
    /// The context's capability processing is metered onto the virtual clock.
    pub fn server(&self, machine: MachineId) -> Context {
        let id = self.next_ctx.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let location = self.net.cluster().location_of(machine);
        let ctx = Context::new(ContextId(id), location, self.registry.clone());
        ctx.set_meter(Arc::new(self.net.clone()));

        ctx.serve(Box::new(self.fabric.listen(machine)), ProtocolId::TCP);
        ctx.serve(Box::new(self.fabric.listen(machine)), ProtocolId::SHM);
        ctx.serve_nexus(Box::new(self.fabric.listen(machine)), ProtocolId::NEXUS_TCP);
        ctx
    }

    /// Builds the proto-pool a client on `machine` would install: glue,
    /// simulated TCP (anywhere), shared memory (same machine only), and the
    /// Nexus baseline.
    pub fn client_pool(&self, machine: MachineId) -> Arc<ProtoPool> {
        let dialer = Arc::new(self.fabric.dialer(machine));
        let glue = GlueProto::new(self.registry.clone()).with_meter(Arc::new(self.net.clone()));
        Arc::new(
            ProtoPool::new()
                .with(Arc::new(glue))
                .with(Arc::new(TransportProto::new(
                    ProtocolId::SHM,
                    ApplicabilityRule::SameMachineOnly,
                    dialer.clone(),
                )))
                .with(Arc::new(TransportProto::new(
                    ProtocolId::TCP,
                    ApplicabilityRule::Always,
                    dialer.clone(),
                )))
                .with(Arc::new(NexusProto::new(
                    ProtocolId::NEXUS_TCP,
                    ApplicabilityRule::Always,
                    dialer,
                ))),
        )
    }

    /// Binds a GP for a client on `machine`.
    pub fn client_gp(&self, machine: MachineId, or: ObjectReference) -> GlobalPointer {
        let location = self.net.cluster().location_of(machine);
        GlobalPointer::new(or, self.client_pool(machine), location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{EchoArray, EchoArrayClient, EchoArraySkeleton};
    use ohpc_netsim::{figure4_cluster, LinkProfile, SimTime};
    use ohpc_orb::context::OrRow;

    #[test]
    fn deployment_serves_over_simulated_network() {
        let (cluster, [m0, m1, _, _]) = figure4_cluster(LinkProfile::atm_155());
        let dep = SimDeployment::new(cluster);
        let server = dep.server(m1);
        let id = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
        let or = server
            .make_or(id, &[OrRow::Plain(ProtocolId::TCP)])
            .unwrap();

        let client = EchoArrayClient::new(dep.client_gp(m0, or));
        let t0 = dep.net.clock().now();
        assert_eq!(client.echo(vec![1, 2, 3]).unwrap(), vec![1, 2, 3]);
        assert!(dep.net.clock().now() > t0, "virtual time must advance");
        server.shutdown();
    }

    #[test]
    fn same_machine_client_selects_shm() {
        let (cluster, [m0, ..]) = figure4_cluster(LinkProfile::atm_155());
        let dep = SimDeployment::new(cluster);
        let server = dep.server(m0);
        let id = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
        let or = server
            .make_or(id, &[OrRow::Plain(ProtocolId::SHM), OrRow::Plain(ProtocolId::TCP)])
            .unwrap();
        let client = EchoArrayClient::new(dep.client_gp(m0, or));
        client.ping().unwrap();
        assert_eq!(client.gp().last_protocol().as_deref().unwrap(), "shm");
        server.shutdown();
    }

    #[test]
    fn clock_advance_scales_with_payload() {
        let (cluster, [m0, m1, _, _]) = figure4_cluster(LinkProfile::atm_155());
        let dep = SimDeployment::new(cluster);
        let server = dep.server(m1);
        let id = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
        let or = server.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
        let client = EchoArrayClient::new(dep.client_gp(m0, or));

        let elapsed = |n: usize| -> SimTime {
            let t0 = dep.net.clock().now();
            client.echo(crate::workload::make_array(n)).unwrap();
            dep.net.clock().now().saturating_sub(t0)
        };
        let small = elapsed(100);
        let big = elapsed(100_000);
        assert!(big.0 > 10 * small.0, "big {big} vs small {small}");
        server.shutdown();
    }
}
