//! Capability overhead quantified (§5's "capabilities based approach adds
//! only a small amount of overhead").
//!
//! Measures the *real* CPU time of `process` + `unprocess` per capability and
//! payload size, and relates it to the simulated wire time of the same
//! payload on each network — producing the overhead-ratio table that backs
//! the paper's claim.

use std::time::Instant;

use bytes::Bytes;

use ohpc_caps::{AuthCap, CapScope, CompressionCap, EncryptionCap, LoggingCap, TimeoutCap};
use ohpc_compress::CodecKind;
use ohpc_netsim::LinkProfile;
use ohpc_orb::capability::{process_chain, unprocess_chain, CallInfo};
use ohpc_orb::{CapabilitySpec, Direction, ObjectId, RequestId};

use crate::setup::{experiment_registry, EXPERIMENT_KEY};

/// One row of the overhead table.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Capability (or chain) measured.
    pub label: String,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Mean CPU time per request for process+unprocess, in microseconds.
    pub cpu_us: f64,
    /// Simulated one-way ATM wire time for the same payload, microseconds.
    pub atm_wire_us: f64,
    /// Simulated one-way 10 Mbps Ethernet wire time, microseconds.
    pub ethernet_wire_us: f64,
}

impl OverheadRow {
    /// CPU cost as a percentage of the ATM wire time.
    pub fn atm_overhead_pct(&self) -> f64 {
        self.cpu_us / self.atm_wire_us * 100.0
    }
}

/// The capability sets measured, labelled as in the figure legends.
pub fn standard_chains() -> Vec<(String, Vec<CapabilitySpec>)> {
    vec![
        ("timeout".into(), vec![TimeoutCap::spec(u64::MAX / 2)]),
        ("security".into(), vec![EncryptionCap::spec(EXPERIMENT_KEY)]),
        (
            "auth".into(),
            vec![AuthCap::spec(EXPERIMENT_KEY, "bench-client", CapScope::Always)],
        ),
        ("compress-lzss".into(), vec![CompressionCap::spec(CodecKind::Lzss, 64)]),
        ("log".into(), vec![LoggingCap::spec("bench")]),
        (
            "timeout+security".into(),
            vec![TimeoutCap::spec(u64::MAX / 2), EncryptionCap::spec(EXPERIMENT_KEY)],
        ),
    ]
}

/// Measures all standard chains at the given payload sizes.
pub fn run(payload_sizes: &[usize], iters: u32) -> Vec<OverheadRow> {
    let (reg, _) = experiment_registry();
    let call = CallInfo { object: ObjectId(1), method: 1, request_id: RequestId(1) };
    let atm = LinkProfile::atm_155();
    let ethernet = LinkProfile::ethernet_10();

    let mut rows = Vec::new();
    for (label, specs) in standard_chains() {
        let chain = reg.build_chain(&specs).expect("chain build");
        for &size in payload_sizes {
            // XDR-int-array-like payload: mostly small values.
            let body: Bytes =
                (0..size).map(|i| if i % 4 == 3 { (i % 97) as u8 } else { 0 }).collect::<Vec<_>>().into();

            // warmup
            let (wire, metas) =
                process_chain(&chain, Direction::Request, &call, body.clone()).unwrap();
            unprocess_chain(&chain, Direction::Request, &call, &metas, wire).unwrap();

            let t0 = Instant::now();
            for _ in 0..iters {
                let (wire, metas) =
                    process_chain(&chain, Direction::Request, &call, body.clone()).unwrap();
                let back =
                    unprocess_chain(&chain, Direction::Request, &call, &metas, wire).unwrap();
                std::hint::black_box(back);
            }
            let cpu_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

            rows.push(OverheadRow {
                label: label.clone(),
                payload_bytes: size,
                cpu_us,
                atm_wire_us: atm.unloaded_time(size).as_secs_f64() * 1e6,
                ethernet_wire_us: ethernet.unloaded_time(size).as_secs_f64() * 1e6,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small_relative_to_wire_time() {
        // the §5 claim, quantified: even the full timeout+security chain
        // costs a small fraction of the ATM wire time at 64 KiB.
        let rows = run(&[65536], 10);
        for row in &rows {
            assert!(
                row.atm_overhead_pct() < 120.0,
                "{} costs {:.1}% of ATM wire time ({:.0}us vs {:.0}us)",
                row.label,
                row.atm_overhead_pct(),
                row.cpu_us,
                row.atm_wire_us
            );
        }
        // pass-through capabilities are practically free
        let log = rows.iter().find(|r| r.label == "log").unwrap();
        assert!(log.atm_overhead_pct() < 5.0, "log overhead {:.2}%", log.atm_overhead_pct());
    }

    #[test]
    fn table_covers_all_chains_and_sizes() {
        let rows = run(&[256, 4096], 3);
        assert_eq!(rows.len(), standard_chains().len() * 2);
        assert!(rows.iter().all(|r| r.cpu_us >= 0.0 && r.atm_wire_us > 0.0));
    }
}
