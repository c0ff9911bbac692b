//! Figure 5: bandwidth vs array size for four protocol configurations.
//!
//! Paper setup (§5): a client makes echo requests exchanging integer arrays
//! of 1 … 1M elements; bandwidth is averaged over many readings; the four
//! curves are *glue with timeout*, *glue with timeout & security*, *Nexus*,
//! and *shared memory*, measured over 155 Mbps ATM (and Ethernet, "virtually
//! identical" in shape).
//!
//! Expected shape (what EXPERIMENTS.md checks against the paper):
//! * the three network configurations are nearly identical — network time
//!   dominates capability overhead;
//! * shared memory is more than an order of magnitude faster at large sizes.

use std::sync::Arc;

use ohpc_caps::{EncryptionCap, TimeoutCap};
use ohpc_netsim::{Cluster, LanId, LinkProfile, MachineId};
use ohpc_orb::context::OrRow;
use ohpc_orb::ProtocolId;

use crate::setup::{SimDeployment, EXPERIMENT_KEY};
use crate::workload::{body_bytes, make_array, EchoArray, EchoArrayClient, EchoArraySkeleton};

/// Which network technology the LAN models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// 155 Mbps ATM (the paper's headline figure).
    Atm,
    /// 10 Mbps shared Ethernet (the paper's second testbed).
    Ethernet,
    /// 100 Mbps Fast Ethernet (extension).
    FastEthernet,
}

impl Network {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "atm" => Some(Network::Atm),
            "ethernet" => Some(Network::Ethernet),
            "fast-ethernet" => Some(Network::FastEthernet),
            _ => None,
        }
    }

    /// The link profile.
    pub fn profile(self) -> LinkProfile {
        match self {
            Network::Atm => LinkProfile::atm_155(),
            Network::Ethernet => LinkProfile::ethernet_10(),
            Network::FastEthernet => LinkProfile::fast_ethernet(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Network::Atm => "atm",
            Network::Ethernet => "ethernet",
            Network::FastEthernet => "fast-ethernet",
        }
    }
}

/// The four protocol configurations of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// `glue[timeout]` over the TCP protocol object.
    GlueTimeout,
    /// glue[timeout, security] over the TCP protocol object.
    GlueTimeoutSecurity,
    /// The plain Nexus baseline.
    Nexus,
    /// The shared-memory protocol (client co-located with the server).
    SharedMemory,
}

impl Config {
    /// All four, in the paper's legend order.
    pub fn all() -> [Config; 4] {
        [Config::GlueTimeout, Config::GlueTimeoutSecurity, Config::Nexus, Config::SharedMemory]
    }

    /// Label used in CSV and plots.
    pub fn label(self) -> &'static str {
        match self {
            Config::GlueTimeout => "glue-timeout",
            Config::GlueTimeoutSecurity => "glue-timeout-security",
            Config::Nexus => "nexus",
            Config::SharedMemory => "shared-memory",
        }
    }

    /// Plot glyph.
    pub fn glyph(self) -> char {
        match self {
            Config::GlueTimeout => 't',
            Config::GlueTimeoutSecurity => 's',
            Config::Nexus => 'n',
            Config::SharedMemory => 'M',
        }
    }

    /// Whether this configuration crosses the network (false = loopback).
    pub fn is_network(self) -> bool {
        self != Config::SharedMemory
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Configuration measured.
    pub config: Config,
    /// Array length in `i32` elements.
    pub elements: usize,
    /// One-way payload size in bytes.
    pub payload_bytes: usize,
    /// Measured bandwidth in Mbps (payload bits moved / virtual time).
    pub bandwidth_mbps: f64,
    /// Requests performed.
    pub iterations: u64,
}

/// The element counts swept: powers of 4 from 1 to 1M, mirroring the paper's
/// logarithmic x-axis from 1e0 to 1e6 bytes.
pub fn default_sizes() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=10).map(|i| 1usize << (2 * i)).collect(); // 1 … 1048576
    v.dedup();
    v
}

fn iterations_for(elements: usize) -> u64 {
    // Virtual time is deterministic; iterations only average the *real* CPU
    // cost of capability work. Keep total real work bounded at large sizes.
    ((1 << 18) / body_bytes(elements).max(1)).clamp(4, 128) as u64
}

/// Builds the two-machine cluster of the bandwidth experiment: client M0 and
/// server M1 on one LAN of the given technology.
pub fn fig5_cluster(network: Network) -> (Cluster, MachineId, MachineId) {
    let (mut m0, mut m1) = (MachineId(0), MachineId(0));
    let cluster = Cluster::builder()
        .lan(LanId(0), network.profile())
        .machine("client", LanId(0), &mut m0)
        .machine("server", LanId(0), &mut m1)
        .build();
    (cluster, m0, m1)
}

/// Runs one configuration across `sizes`, returning a measurement per size.
///
/// Each configuration gets a fresh deployment so that link queuing state and
/// budgets never leak across curves.
pub fn run_config(network: Network, config: Config, sizes: &[usize]) -> Vec<Measurement> {
    let (cluster, m_client, m_server) = fig5_cluster(network);
    let dep = SimDeployment::new(cluster);

    // Shared memory runs the server on the client's machine (the paper's S4
    // step); network configs run it across the LAN.
    let server_machine = if config.is_network() { m_server } else { m_client };
    let server = dep.server(server_machine);
    let object = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));

    let rows: Vec<OrRow> = match config {
        Config::GlueTimeout => {
            let glue_id = server
                .add_glue(vec![TimeoutCap::spec(u64::MAX / 2)])
                .expect("glue install");
            vec![OrRow::Glue { glue_id, inner: ProtocolId::TCP }]
        }
        Config::GlueTimeoutSecurity => {
            let glue_id = server
                .add_glue(vec![
                    TimeoutCap::spec(u64::MAX / 2),
                    EncryptionCap::spec(EXPERIMENT_KEY),
                ])
                .expect("glue install");
            vec![OrRow::Glue { glue_id, inner: ProtocolId::TCP }]
        }
        Config::Nexus => vec![OrRow::Plain(ProtocolId::NEXUS_TCP)],
        Config::SharedMemory => vec![OrRow::Plain(ProtocolId::SHM)],
    };
    let or = server.make_or(object, &rows).expect("make_or");
    let client = EchoArrayClient::new(dep.client_gp(m_client, or));

    // Warm up: connection setup + chain construction outside the timing.
    client.ping().expect("warmup");

    let mut out = Vec::with_capacity(sizes.len());
    for &elements in sizes {
        let v = make_array(elements);
        let iterations = iterations_for(elements);
        let t0 = dep.net.clock().now();
        for _ in 0..iterations {
            let back = client.echo(v.clone()).expect("echo");
            assert_eq!(back.len(), elements);
        }
        let elapsed = dep.net.clock().now().saturating_sub(t0);
        // Payload moved: request + reply per iteration.
        let bits = (iterations as f64) * 2.0 * (body_bytes(elements) as f64) * 8.0;
        let bandwidth_mbps = bits / elapsed.as_secs_f64() / 1e6;
        out.push(Measurement {
            config,
            elements,
            payload_bytes: body_bytes(elements),
            bandwidth_mbps,
            iterations,
        });
    }
    server.shutdown();
    out
}

/// Runs the full figure: all four configurations across all sizes.
pub fn run(network: Network, sizes: &[usize]) -> Vec<Measurement> {
    Config::all().iter().flat_map(|c| run_config(network, *c, sizes)).collect()
}

/// Checks the two headline claims of §5 against measurements; returns
/// human-readable verdict lines.
pub fn verdicts(measurements: &[Measurement]) -> Vec<String> {
    let mut lines = Vec::new();
    let at = |c: Config, n: usize| {
        measurements
            .iter()
            .find(|m| m.config == c && m.elements == n)
            .map(|m| m.bandwidth_mbps)
    };
    let biggest = measurements.iter().map(|m| m.elements).max().unwrap_or(0);

    if let (Some(t), Some(ts), Some(nx)) = (
        at(Config::GlueTimeout, biggest),
        at(Config::GlueTimeoutSecurity, biggest),
        at(Config::Nexus, biggest),
    ) {
        let max = t.max(ts).max(nx);
        let min = t.min(ts).min(nx);
        let spread = (max - min) / max * 100.0;
        lines.push(format!(
            "network configs at {biggest} ints: {t:.1} / {ts:.1} / {nx:.1} Mbps \
             (spread {spread:.1}%) — paper: 'perform almost identically'"
        ));
    }
    if let (Some(shm), Some(nx)) = (at(Config::SharedMemory, biggest), at(Config::Nexus, biggest)) {
        lines.push(format!(
            "shared memory {shm:.1} Mbps vs nexus {nx:.1} Mbps = {:.1}x — paper: \
             'more than an order of magnitude faster'",
            shm / nx
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sizes() -> Vec<usize> {
        vec![16, 1024, 65536]
    }

    #[test]
    fn network_parsing() {
        assert_eq!(Network::parse("atm"), Some(Network::Atm));
        assert_eq!(Network::parse("ethernet"), Some(Network::Ethernet));
        assert_eq!(Network::parse("bogus"), None);
    }

    #[test]
    fn default_sizes_span_1_to_1m() {
        let s = default_sizes();
        assert_eq!(*s.first().unwrap(), 1);
        assert_eq!(*s.last().unwrap(), 1 << 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bandwidth_grows_with_size_then_saturates() {
        let m = run_config(Network::Atm, Config::Nexus, &[16, 1024, 65536, 262_144]);
        assert!(m.windows(2).all(|w| w[0].bandwidth_mbps < w[1].bandwidth_mbps));
        // saturation below the 135 Mbps payload limit
        assert!(m.last().unwrap().bandwidth_mbps < 135.0);
        assert!(m.last().unwrap().bandwidth_mbps > 40.0);
    }

    #[test]
    fn network_configs_are_close_and_shm_is_far_ahead() {
        let all = run(Network::Atm, &small_sizes());
        let big = 65536;
        let get = |c: Config| {
            all.iter().find(|m| m.config == c && m.elements == big).unwrap().bandwidth_mbps
        };
        let t = get(Config::GlueTimeout);
        let ts = get(Config::GlueTimeoutSecurity);
        let nx = get(Config::Nexus);
        let shm = get(Config::SharedMemory);
        // "all protocols except for the shared memory protocol perform
        // almost identically"
        let max = t.max(ts).max(nx);
        let min = t.min(ts).min(nx);
        assert!((max - min) / max < 0.25, "network spread too wide: {t} {ts} {nx}");
        // "more than an order of magnitude faster"
        assert!(shm > 10.0 * max, "shm {shm} vs fastest network {max}");
    }

    #[test]
    fn ethernet_is_slower_than_atm_but_same_shape() {
        let atm = run_config(Network::Atm, Config::GlueTimeout, &[65536]);
        let eth = run_config(Network::Ethernet, Config::GlueTimeout, &[65536]);
        assert!(atm[0].bandwidth_mbps > 5.0 * eth[0].bandwidth_mbps);
        // Ethernet saturates near its 10 Mbps line rate
        assert!(eth[0].bandwidth_mbps < 10.0);
        assert!(eth[0].bandwidth_mbps > 3.0);
    }

    #[test]
    fn verdict_lines_mention_both_claims() {
        let all = run(Network::Atm, &[1024, 16384]);
        let v = verdicts(&all);
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("almost identically"));
        assert!(v[1].contains("order of magnitude"));
    }
}
