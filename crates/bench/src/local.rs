//! One-process wall-clock deployments of the echo service over the real
//! transports — the small-call shapes the ledger's workloads run, for the
//! allocation census and the steady-state and event-parity tests.

use std::sync::Arc;

use ohpc_caps::register_standard;
use ohpc_crypto::KeyStore;
use ohpc_orb::context::OrRow;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, CapabilitySpec, Context, ContextId, GlobalPointer,
    GlueProto, Location, ProtoPool, ProtocolId, TransportProto,
};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};

use crate::workload::{EchoArray, EchoArrayClient, EchoArraySkeleton};

/// Name of the pre-shared key `EncryptionCap::spec` should name in `caps`.
pub const KEY_NAME: &str = "local-psk";

/// The wire under a [`deploy`]ment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `MemFabric`, advertised as the shared-memory protocol.
    Shm,
    /// TCP over the loopback interface.
    TcpLoopback,
}

/// Serves one echo object over `wire` — behind a glue chain of `caps` unless
/// that is empty — and binds a client to it in the same process. Nothing is
/// dialled until the first call. Shut the returned context down when done.
pub fn deploy(wire: Wire, caps: Vec<CapabilitySpec>) -> (Context, EchoArrayClient) {
    let registry = Arc::new(CapabilityRegistry::new());
    let mut keys = KeyStore::new();
    keys.add_key(KEY_NAME, b"open-hpc++-local-pre-shared-key");
    register_standard(&registry, keys);

    let here = Location::new(0, 0);
    let server = Context::new(ContextId(1), here, registry.clone());
    let object = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let (protocol, transport) = match wire {
        Wire::Shm => {
            let fabric = MemFabric::new();
            server.serve(Box::new(fabric.listen()), ProtocolId::SHM);
            let rule = ApplicabilityRule::SameMachineOnly;
            (ProtocolId::SHM, TransportProto::new(ProtocolId::SHM, rule, Arc::new(fabric)))
        }
        Wire::TcpLoopback => {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind a loopback port");
            server.serve(Box::new(acceptor), ProtocolId::TCP);
            let rule = ApplicabilityRule::Always;
            (ProtocolId::TCP, TransportProto::new(ProtocolId::TCP, rule, Arc::new(TcpDialer)))
        }
    };
    let row = if caps.is_empty() {
        OrRow::Plain(protocol)
    } else {
        let glue_id = server.add_glue(caps).expect("standard capabilities build");
        OrRow::Glue { glue_id, inner: protocol }
    };
    let or = server.make_or(object, &[row]).expect("the row was just advertised");
    let pool = ProtoPool::new()
        .with(Arc::new(GlueProto::new(registry)))
        .with(Arc::new(transport));
    (server, EchoArrayClient::new(GlobalPointer::new(or, Arc::new(pool), here)))
}
