//! Deterministic cluster & network simulator for Open HPC++.
//!
//! The paper's experiments ran on Sun Ultra-10 workstations joined by
//! Ethernet and 155 Mbps ATM. This crate is the stand-in for that hardware:
//!
//! * [`Cluster`] — machines grouped into LANs, with a [`LinkProfile`] per
//!   machine-pair class (same machine / same LAN / cross-LAN);
//! * [`LinkProfile`] — latency + bandwidth + per-message overhead (+ optional
//!   deterministic jitter), with presets for 10 Mbps Ethernet, 100 Mbps Fast
//!   Ethernet, 155 Mbps ATM, a campus backbone, a WAN hop, and the memory bus
//!   of a late-90s workstation (the "shared memory protocol" path);
//! * [`VirtualClock`] — shared monotonic virtual time in nanoseconds;
//! * [`SimNet`] — charges transfers against the clock with per-link queuing,
//!   so concurrent senders on one wire serialize the way a real link does;
//! * [`des`] — a small discrete-event scheduler, which drives the scripted
//!   load spikes of the `des_scenario` test;
//! * [`load`] — per-machine synthetic load tracking for the high-water-mark
//!   migration policy.
//!
//! Simulated time is the denominator of every bandwidth figure the harness
//! reports; CPU work done by capabilities is *measured* and added to the same
//! clock, which is what makes the paper's "capability overhead is small
//! relative to the network" claim an observation rather than an assumption.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod cluster;
pub mod des;
pub mod load;
mod net;
mod profile;

pub use clock::VirtualClock;
pub use cluster::{figure4_cluster, Cluster, ClusterBuilder, LanId, LinkKey, Location, MachineId, SiteId};
pub use net::{LinkFault, SimNet, TransferReceipt};
pub use profile::{LinkClass, LinkProfile};

use std::time::Duration;

/// Simulated duration newtype: keeps virtual nanoseconds from being confused
/// with wall-clock durations at API boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero point of a simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Converts to a std `Duration` for display and arithmetic.
    pub fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// Builds from a std `Duration` (saturating at u64 nanos).
    pub fn from_duration(d: Duration) -> Self {
        SimTime(d.as_nanos().min(u64::MAX as u128) as u64)
    }

    /// Seconds as f64, for bandwidth math.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_duration_roundtrip() {
        let t = SimTime(1_500_000);
        assert_eq!(t.as_duration(), Duration::from_micros(1500));
        assert_eq!(SimTime::from_duration(Duration::from_micros(1500)), t);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn simtime_arithmetic() {
        assert_eq!(SimTime(5) + SimTime(7), SimTime(12));
        assert_eq!(SimTime(5).saturating_sub(SimTime(7)), SimTime::ZERO);
        assert_eq!(SimTime(7).saturating_sub(SimTime(5)), SimTime(2));
    }
}
