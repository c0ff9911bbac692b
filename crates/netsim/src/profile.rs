//! Link performance profiles.

use std::time::Duration;

use crate::SimTime;

/// Which class of machine-pair a transfer crosses. The [`crate::Cluster`]
/// derives this from two [`crate::Location`]s; protocol applicability in the
/// ORB uses the same classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same machine: the "shared memory protocol" path.
    SameMachine,
    /// Same LAN segment.
    SameLan,
    /// Different LANs on one campus backbone.
    CrossLan,
    /// Different sites, crossing a wide-area link.
    CrossSite,
}

/// Performance model of one link technology.
///
/// Transfer cost = `per_msg_overhead + latency + bytes / bandwidth`, with the
/// bandwidth term subject to per-link queuing in [`crate::SimNet`] and an
/// optional multiplicative jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation + switching latency.
    pub latency: Duration,
    /// Sustained payload bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Fixed per-message cost (protocol stack traversal, interrupt, framing).
    pub per_msg_overhead: Duration,
    /// Multiplicative jitter amplitude in [0, 1): each transfer's service
    /// time is scaled by `1 + U(-jitter, +jitter)` drawn deterministically.
    pub jitter: f64,
}

impl LinkProfile {
    /// 10 Mbps shared Ethernet, late-90s NIC/driver stack.
    pub fn ethernet_10() -> Self {
        Self {
            latency: Duration::from_micros(400),
            bandwidth_bps: 10_000_000,
            per_msg_overhead: Duration::from_micros(150),
            jitter: 0.0,
        }
    }

    /// 100 Mbps switched Fast Ethernet.
    pub fn fast_ethernet() -> Self {
        Self {
            latency: Duration::from_micros(120),
            bandwidth_bps: 100_000_000,
            per_msg_overhead: Duration::from_micros(80),
            jitter: 0.0,
        }
    }

    /// 155 Mbps ATM (OC-3), as in the paper's Figure 5. Payload bandwidth is
    /// below line rate because of ATM cell tax (~90% efficiency).
    pub fn atm_155() -> Self {
        Self {
            latency: Duration::from_micros(140),
            bandwidth_bps: 135_000_000,
            per_msg_overhead: Duration::from_micros(110),
            jitter: 0.0,
        }
    }

    /// Campus backbone between LANs: FDDI-class ring plus one router hop.
    pub fn campus_backbone() -> Self {
        Self {
            latency: Duration::from_micros(600),
            bandwidth_bps: 80_000_000,
            per_msg_overhead: Duration::from_micros(200),
            jitter: 0.0,
        }
    }

    /// Wide-area hop ("clients connecting over the Internet").
    pub fn wan() -> Self {
        Self {
            latency: Duration::from_millis(20),
            bandwidth_bps: 1_500_000,
            per_msg_overhead: Duration::from_micros(300),
            jitter: 0.0,
        }
    }

    /// Same-machine path: a memcpy through a shared segment on a late-90s
    /// workstation (~400 MB/s memory bus) with a cheap syscall-free rendezvous.
    pub fn shared_memory() -> Self {
        Self {
            latency: Duration::from_micros(2),
            bandwidth_bps: 3_200_000_000, // 400 MB/s
            per_msg_overhead: Duration::from_micros(4),
            jitter: 0.0,
        }
    }

    /// Returns a copy with jitter amplitude `j`.
    pub fn with_jitter(mut self, j: f64) -> Self {
        assert!((0.0..1.0).contains(&j), "jitter must be in [0,1)");
        self.jitter = j;
        self
    }

    /// Pure service time for `bytes` (no queuing, no jitter, no latency):
    /// the time the wire itself is occupied.
    pub fn service_time(&self, bytes: usize) -> SimTime {
        let tx_ns = (bytes as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        SimTime(self.per_msg_overhead.as_nanos() as u64 + tx_ns as u64)
    }

    /// Unloaded one-way transfer time for `bytes`: service time + latency.
    pub fn unloaded_time(&self, bytes: usize) -> SimTime {
        SimTime(self.service_time(bytes).0 + self.latency.as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_scales_linearly() {
        let p = LinkProfile::ethernet_10();
        let t1 = p.service_time(1_000);
        let t2 = p.service_time(2_000);
        let overhead = p.per_msg_overhead.as_nanos() as u64;
        assert_eq!((t2.0 - overhead), 2 * (t1.0 - overhead));
    }

    #[test]
    fn ethernet_kilobyte_takes_about_a_millisecond() {
        // 1250 bytes at 10 Mbps = 1 ms of wire time
        let p = LinkProfile::ethernet_10();
        let t = p.service_time(1250);
        let wire_ns = t.0 - p.per_msg_overhead.as_nanos() as u64;
        assert_eq!(wire_ns, 1_000_000);
    }

    #[test]
    fn shared_memory_is_orders_of_magnitude_faster() {
        let shm = LinkProfile::shared_memory().unloaded_time(1 << 20);
        let atm = LinkProfile::atm_155().unloaded_time(1 << 20);
        assert!(
            atm.0 > 10 * shm.0,
            "ATM {atm} should be >10x slower than shm {shm} at 1 MiB"
        );
    }

    #[test]
    fn profile_ordering_matches_technology() {
        let e10 = LinkProfile::ethernet_10();
        let fe = LinkProfile::fast_ethernet();
        let atm = LinkProfile::atm_155();
        let sz = 1 << 16;
        assert!(e10.unloaded_time(sz) > fe.unloaded_time(sz));
        assert!(fe.unloaded_time(sz) > atm.unloaded_time(sz));
    }

    #[test]
    fn zero_byte_message_still_costs_overhead() {
        let p = LinkProfile::atm_155();
        assert_eq!(p.service_time(0).0, p.per_msg_overhead.as_nanos() as u64);
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn with_jitter_validates_range() {
        let _ = LinkProfile::atm_155().with_jitter(1.5);
    }
}
