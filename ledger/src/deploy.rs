//! Deploys a workload the way an application would.
//!
//! Everything here goes through the application-facing API that
//! `examples/quickstart.rs` uses — `Context`, `ProtoPool`, `TransportProto`,
//! `GlueProto`, `GlobalPointer`, `remote_interface!`, `register_standard`,
//! the capabilities' `spec` constructors, `MemFabric`, `TcpAcceptor` and
//! `TcpDialer` — so a refactor inside the ORB cannot stop the end-to-end
//! benchmark compiling. `tests::library_and_ledger_binary_stay_on_the_application_api`
//! enforces it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ohpc_caps::{register_standard, EncryptionCap, TimeoutCap};
use ohpc_crypto::KeyStore;
use ohpc_orb::context::OrRow;
use ohpc_orb::{
    remote_interface, ApplicabilityRule, CapabilityRegistry, CapabilitySpec, Context, ContextId,
    GlobalPointer, GlueProto, Location, ProtoPool, ProtocolId, TransportProto,
};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};

use crate::spec::{Cap, Wire, Workload};

remote_interface! {
    type_name = "LedgerEcho";
    trait EchoApi;
    skeleton EchoSkeleton;
    client EchoClient;
    fn echo(v: Vec<i32>) -> Vec<i32> = 1;
    fn served() -> u64 = 2;
}

/// Method slot of `echo`, for the one-way calls the typed stub has no form of.
pub const ECHO_SLOT: u32 = 1;

/// Name of the pre-shared key the `security` capability encrypts under.
pub const KEY_NAME: &str = "ledger-psk";

/// A request budget no run can exhaust (the `timeout` capability denies once
/// its count is spent; the benchmark measures its bookkeeping, not a denial).
pub const REQUEST_BUDGET: u64 = u64::MAX / 2;

/// The server object: returns what it was sent, and counts how often.
#[derive(Default)]
pub struct Echo {
    echoes: AtomicU64,
}

impl EchoApi for Echo {
    fn echo(&self, v: Vec<i32>) -> Result<Vec<i32>, String> {
        self.echoes.fetch_add(1, Ordering::Relaxed);
        Ok(v)
    }

    /// `echo` calls dispatched so far. A client that sent n one-way echoes
    /// and then asks must read at least n: one-ways are dispatched in order
    /// before a later two-way is answered, and none may be shed.
    fn served(&self) -> Result<u64, String> {
        Ok(self.echoes.load(Ordering::Relaxed))
    }
}

/// The capability registry both ends build their chains from.
pub fn standard_registry() -> Arc<CapabilityRegistry> {
    let registry = Arc::new(CapabilityRegistry::new());
    let mut keys = KeyStore::new();
    keys.add_key(KEY_NAME, b"open-hpc++-ledger-pre-shared-key");
    register_standard(&registry, keys);
    registry
}

/// The glue chain `wl` asks for, as the specs an object reference carries.
pub fn glue_specs(wl: &Workload) -> Vec<CapabilitySpec> {
    wl.caps
        .iter()
        .map(|cap| match cap {
            Cap::Timeout => TimeoutCap::spec(REQUEST_BUDGET),
            Cap::Security => EncryptionCap::spec(KEY_NAME),
        })
        .collect()
}

/// A workload's server context and the client bound to it, in one process.
pub struct Deployment {
    server: Context,
    /// Typed stub over the one GP every client thread shares.
    pub client: EchoClient,
}

impl Deployment {
    /// Stops the listeners and joins the server threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Deploys `wl`: registry and keys, server context, listener, glue chain,
/// object reference, client pool and global pointer. Nothing is dialled yet;
/// the first call does that.
pub fn deploy(wl: &Workload) -> Result<Deployment, String> {
    let registry = standard_registry();
    // Server and client sit on one machine, as they do: the SHM row is only
    // applicable there.
    let here = Location::new(0, 0);
    let server = Context::new(ContextId(1), here, registry.clone());
    let object = server.register(Arc::new(EchoSkeleton(Echo::default())));

    let (protocol, transport) = match wl.wire {
        Wire::Shm => {
            let fabric = MemFabric::new();
            server.serve(Box::new(fabric.listen()), ProtocolId::SHM);
            let proto = TransportProto::new(
                ProtocolId::SHM,
                ApplicabilityRule::SameMachineOnly,
                Arc::new(fabric),
            );
            (ProtocolId::SHM, proto)
        }
        Wire::TcpLoopback => {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            server.serve(Box::new(acceptor), ProtocolId::TCP);
            let proto = TransportProto::new(
                ProtocolId::TCP,
                ApplicabilityRule::Always,
                Arc::new(TcpDialer),
            );
            (ProtocolId::TCP, proto)
        }
    };

    let row = if wl.caps.is_empty() {
        OrRow::Plain(protocol)
    } else {
        let glue_id = server
            .add_glue(glue_specs(wl))
            .map_err(|e| format!("add_glue: {e}"))?;
        OrRow::Glue {
            glue_id,
            inner: protocol,
        }
    };
    let or = server
        .make_or(object, &[row])
        .map_err(|e| format!("make_or: {e}"))?;

    let pool = Arc::new(
        ProtoPool::new()
            .with(Arc::new(GlueProto::new(registry)))
            .with(Arc::new(transport)),
    );
    let client = EchoClient::new(GlobalPointer::new(or, pool, here));
    Ok(Deployment { server, client })
}

/// The echoed array: `ints` values from a splitmix64 stream seeded by
/// `seed`. The seed changes nothing else about a run.
pub fn payload(seed: u64, ints: usize) -> Vec<i32> {
    let mut state = seed;
    (0..ints)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as i32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn payload_depends_only_on_seed_and_length() {
        assert_eq!(payload(7, 5), payload(7, 5));
        assert_ne!(payload(7, 5), payload(8, 5));
        assert_eq!(payload(7, 5)[..], payload(7, 9)[..5]);
        assert_eq!(payload(1, 262_144).len(), 262_144);
    }

    #[test]
    fn every_workload_deploys_and_echoes() {
        for wl in &WORKLOADS {
            let dep = deploy(wl).expect(wl.name);
            let sent = payload(3, wl.ints.min(64));
            assert_eq!(
                dep.client.echo(sent.clone()).expect(wl.name),
                sent,
                "{}",
                wl.name
            );
            assert_eq!(dep.client.served().expect(wl.name), 1, "{}", wl.name);
            let protocol = dep
                .client
                .gp()
                .last_protocol()
                .expect("a protocol was selected");
            let want = match (wl.caps.is_empty(), wl.wire) {
                (true, Wire::Shm) => "shm".to_string(),
                (true, Wire::TcpLoopback) => "tcp".to_string(),
                (false, _) => {
                    let names: Vec<_> = wl.caps.iter().map(|c| c.wire_name()).collect();
                    format!("glue[{}]->tcp", names.join("+"))
                }
            };
            assert_eq!(&*protocol, want, "{}", wl.name);
            dep.shutdown();
        }
    }

    /// Paths into the workspace's crates that the library and the `ledger`
    /// binary may name: the vocabulary of `examples/quickstart.rs` plus the
    /// pieces the issue lists for TCP, glue and the two capabilities.
    const APPLICATION_API: [&str; 23] = [
        "ohpc_caps::register_standard",
        "ohpc_caps::EncryptionCap",
        "ohpc_caps::TimeoutCap",
        "ohpc_crypto::KeyStore",
        "ohpc_orb::context::OrRow",
        "ohpc_orb::remote_interface",
        "ohpc_orb::ApplicabilityRule",
        "ohpc_orb::CapabilityRegistry",
        "ohpc_orb::CapabilitySpec",
        "ohpc_orb::Context",
        "ohpc_orb::ContextId",
        "ohpc_orb::GlobalPointer",
        "ohpc_orb::GlueProto",
        "ohpc_orb::Location",
        "ohpc_orb::OrbError",
        "ohpc_orb::ProtoPool",
        "ohpc_orb::ProtocolId",
        "ohpc_orb::TransportProto",
        "ohpc_transport::mem::MemFabric",
        "ohpc_transport::tcp::TcpAcceptor",
        "ohpc_transport::tcp::TcpDialer",
        "ohpc_xdr::XdrEncode",
        "ohpc_xdr::XdrWriter",
    ];

    /// The paths a source text imports from the workspace's crates: every
    /// `use ohpc_…;` statement with its `{…}` groups expanded. Also returns
    /// how often `ohpc_` occurs outside those statements — the sources keep
    /// that at zero, so the imports are all there is to check.
    fn ohpc_imports(src: &str) -> (Vec<String>, usize) {
        fn expand(prefix: &str, rest: &str, out: &mut Vec<String>) {
            let Some(open) = rest.find('{') else {
                out.push(format!("{prefix}{rest}"));
                return;
            };
            let head = format!("{prefix}{}", &rest[..open]);
            let body = &rest[open + 1..rest.rfind('}').unwrap_or(rest.len())];
            let (mut depth, mut start) = (0usize, 0usize);
            for (i, c) in body.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    ',' if depth == 0 => {
                        expand(&head, &body[start..i], out);
                        start = i + 1;
                    }
                    _ => {}
                }
            }
            if start < body.len() {
                expand(&head, &body[start..], out);
            }
        }
        // Comments may mention crates freely; code may not.
        let code: String = src
            .lines()
            .map(|l| l.split("//").next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n");
        let mut imports = Vec::new();
        let mut elsewhere = 0;
        let mut rest = code.as_str();
        while let Some(at) = rest.find("ohpc_") {
            if rest[..at].ends_with("use ") {
                let end = rest[at..].find(';').map_or(rest.len(), |e| at + e);
                let statement: String = rest[at..end].split_whitespace().collect();
                expand("", &statement, &mut imports);
                rest = &rest[end..];
            } else {
                elsewhere += 1;
                rest = &rest[at + 5..];
            }
        }
        (imports, elsewhere)
    }

    #[test]
    fn use_groups_are_expanded() {
        let src = "use ohpc_orb::{context::OrRow, Context,\n    GlobalPointer};\nuse ohpc_xdr::XdrWriter; // ohpc_nexus::Hidden\nlet x = ohpc_caps::AclCap::spec();";
        let (imports, elsewhere) = ohpc_imports(src);
        assert_eq!(
            imports,
            vec![
                "ohpc_orb::context::OrRow",
                "ohpc_orb::Context",
                "ohpc_orb::GlobalPointer",
                "ohpc_xdr::XdrWriter"
            ]
        );
        assert_eq!(elsewhere, 1);
    }

    #[test]
    fn library_and_ledger_binary_stay_on_the_application_api() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files: Vec<_> = std::fs::read_dir(&root)
            .expect("src/")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.push(root.join("bin/ledger.rs"));
        assert!(
            files.len() > 5,
            "expected the library's modules, found {files:?}"
        );
        for file in files {
            let src = std::fs::read_to_string(&file).expect("source file");
            // This test module spells the allow-list and fixtures out.
            let src = src.split("#[cfg(test)]").next().unwrap_or("");
            let (imports, elsewhere) = ohpc_imports(src);
            assert_eq!(
                elsewhere,
                0,
                "{} names a workspace crate outside a `use`",
                file.display()
            );
            // The yardstick must not get faster when the program does: it
            // uses none of the program's crates, allowed or not.
            if file.ends_with("yardstick.rs") {
                assert_eq!(imports, Vec::<String>::new(), "{}", file.display());
            }
            for path in imports {
                assert!(
                    APPLICATION_API.contains(&path.as_str()),
                    "{} imports {path}, outside the application-facing API",
                    file.display()
                );
            }
        }
    }
}
