//! The simulated network: charges transfers against virtual time with
//! per-link queuing and deterministic jitter.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::LinkKey;
use crate::{Cluster, MachineId, SimTime, VirtualClock};

/// What one transfer cost, for experiment logs and assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReceipt {
    /// Virtual time the transfer was submitted.
    pub submitted: SimTime,
    /// Virtual time the wire became available (>= submitted under contention).
    pub started: SimTime,
    /// Virtual arrival time at the destination.
    pub arrived: SimTime,
    /// Bytes moved.
    pub bytes: usize,
}

impl TransferReceipt {
    /// Total virtual latency seen by the sender.
    pub fn elapsed(&self) -> SimTime {
        self.arrived.saturating_sub(self.submitted)
    }

    /// Time spent waiting for the wire.
    pub fn queued(&self) -> SimTime {
        self.started.saturating_sub(self.submitted)
    }
}

/// Why a fault-aware transfer could not happen (see
/// [`SimNet::try_transfer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The machine pair is partitioned: no path in either direction.
    Partitioned {
        /// Sending machine.
        from: MachineId,
        /// Destination machine.
        to: MachineId,
    },
    /// The machine is crashed: everything to or from it fails.
    MachineDown(MachineId),
}

impl std::fmt::Display for LinkFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkFault::Partitioned { from, to } => {
                write!(f, "link M{}->M{} partitioned", from.0, to.0)
            }
            LinkFault::MachineDown(m) => write!(f, "machine M{} down", m.0),
        }
    }
}

/// Unordered machine pair: partitions are bidirectional.
fn pair(a: MachineId, b: MachineId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

#[derive(Default)]
struct NetState {
    /// Virtual time each queueing domain is busy until.
    busy_until: HashMap<LinkKey, u64>,
    rng: Option<StdRng>,
    /// Ablation switch: when false, transfers never wait for the medium
    /// (an idealized infinite-capacity network).
    no_queuing: bool,
    /// Partitioned machine pairs → optional heal time (virtual ns; `None`
    /// means until explicitly healed).
    partitions: HashMap<(u32, u32), Option<u64>>,
    /// Crashed machines → optional restart time.
    down: HashMap<u32, Option<u64>>,
    /// Totals for stats.
    transfers: u64,
    bytes: u64,
    faults: u64,
}

/// Simulated network over a [`Cluster`]. Cheap to clone (shared state).
///
/// A transfer from machine `a` to machine `b`:
/// 1. classifies the path and picks the [`crate::LinkProfile`];
/// 2. waits (in virtual time) for the shared medium to free up;
/// 3. occupies the medium for `per_msg_overhead + bytes/bandwidth` (scaled by
///    jitter when configured);
/// 4. arrives `latency` later; the caller's clock is advanced to the arrival.
#[derive(Clone)]
pub struct SimNet {
    cluster: Arc<Cluster>,
    clock: VirtualClock,
    state: Arc<Mutex<NetState>>,
}

impl SimNet {
    /// Wraps a cluster with a fresh clock and no jitter randomness.
    pub fn new(cluster: Cluster) -> Self {
        Self {
            cluster: Arc::new(cluster),
            clock: VirtualClock::new(),
            state: Arc::new(Mutex::new(NetState::default())),
        }
    }

    /// Wraps a cluster with jitter driven by a deterministic seed.
    pub fn with_seed(cluster: Cluster, seed: u64) -> Self {
        let net = Self::new(cluster);
        net.state.lock().rng = Some(StdRng::seed_from_u64(seed));
        net
    }

    /// Ablation: disables per-link queuing, turning every segment into an
    /// idealized infinite-capacity medium. Used to quantify how much of the
    /// contention results come from the shared-media model.
    pub fn disable_queuing(&self) {
        self.state.lock().no_queuing = true;
    }

    /// The simulation clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The topology.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Simulates moving `bytes` from `from` to `to`, submitted at the global
    /// clock's current time. Advances the clock to the arrival and returns a
    /// receipt. Because the *global* clock is the submit time, purely
    /// sequential callers never observe queueing — multi-flow experiments
    /// should use [`transfer_at`](Self::transfer_at) with per-flow times.
    pub fn transfer(&self, from: MachineId, to: MachineId, bytes: usize) -> TransferReceipt {
        self.transfer_at(self.clock.now(), from, to, bytes)
    }

    /// Simulates moving `bytes` from `from` to `to`, submitted at the
    /// caller-tracked `submitted` time (a per-flow local clock). The shared
    /// medium's busy window still serializes flows against each other; the
    /// global clock is advanced to the arrival so observers see progress.
    pub fn transfer_at(
        &self,
        submitted: SimTime,
        from: MachineId,
        to: MachineId,
        bytes: usize,
    ) -> TransferReceipt {
        let profile = self.cluster.profile_between(from, to);
        let key = self.cluster.link_key(from, to);

        let (started, arrived) = {
            let mut st = self.state.lock();
            let mut service = profile.service_time(bytes).0;
            if profile.jitter > 0.0 {
                if let Some(rng) = st.rng.as_mut() {
                    let scale = 1.0 + rng.gen_range(-profile.jitter..=profile.jitter);
                    service = (service as f64 * scale) as u64;
                }
            }
            let start = if st.no_queuing {
                submitted.0
            } else {
                let busy = st.busy_until.entry(key).or_insert(0);
                (*busy).max(submitted.0)
            };
            let done = start + service;
            if !st.no_queuing {
                st.busy_until.insert(key, done);
            }
            st.transfers += 1;
            st.bytes += bytes as u64;
            (SimTime(start), SimTime(done + profile.latency.as_nanos() as u64))
        };

        self.clock.advance_to(arrived);
        TransferReceipt { submitted, started, arrived, bytes }
    }

    /// Cuts the link between `a` and `b` (both directions) until
    /// [`heal`](Self::heal) is called.
    pub fn partition(&self, a: MachineId, b: MachineId) {
        self.state.lock().partitions.insert(pair(a, b), None);
    }

    /// Cuts the link between `a` and `b` until virtual time reaches
    /// `heal_at` — a heal schedule, checked lazily against the clock.
    pub fn partition_until(&self, a: MachineId, b: MachineId, heal_at: SimTime) {
        self.state.lock().partitions.insert(pair(a, b), Some(heal_at.0));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal(&self, a: MachineId, b: MachineId) {
        self.state.lock().partitions.remove(&pair(a, b));
    }

    /// Crashes machine `m`: every transfer to or from it faults until
    /// [`restart`](Self::restart).
    pub fn crash(&self, m: MachineId) {
        self.state.lock().down.insert(m.0, None);
    }

    /// Crashes machine `m` until virtual time reaches `restart_at`.
    pub fn crash_until(&self, m: MachineId, restart_at: SimTime) {
        self.state.lock().down.insert(m.0, Some(restart_at.0));
    }

    /// Restarts a crashed machine.
    pub fn restart(&self, m: MachineId) {
        self.state.lock().down.remove(&m.0);
    }

    /// The fault currently affecting a `from → to` transfer, if any. Expired
    /// heal/restart schedules are pruned against the current virtual time.
    pub fn link_fault(&self, from: MachineId, to: MachineId) -> Option<LinkFault> {
        let now = self.clock.now().0;
        let mut st = self.state.lock();
        for m in [from, to] {
            if let Some(&until) = st.down.get(&m.0) {
                match until {
                    Some(t) if now >= t => {
                        st.down.remove(&m.0);
                    }
                    _ => return Some(LinkFault::MachineDown(m)),
                }
            }
        }
        if let Some(&until) = st.partitions.get(&pair(from, to)) {
            match until {
                Some(t) if now >= t => {
                    st.partitions.remove(&pair(from, to));
                }
                _ => return Some(LinkFault::Partitioned { from, to }),
            }
        }
        None
    }

    /// Fault-aware transfer: like [`transfer`](Self::transfer) but a
    /// partitioned link or crashed machine fails instead of delivering.
    /// Detecting the failure is not free — the sender burns one link latency
    /// of virtual time (its timeout) before the error is observable, so
    /// retry/backoff loops make progress on the virtual timeline.
    ///
    /// `transfer` itself stays infallible and fault-oblivious: experiment
    /// harnesses that never inject faults keep their exact semantics.
    pub fn try_transfer(
        &self,
        from: MachineId,
        to: MachineId,
        bytes: usize,
    ) -> Result<TransferReceipt, LinkFault> {
        if let Some(fault) = self.link_fault(from, to) {
            let timeout = self.cluster.profile_between(from, to).latency;
            self.clock.advance(SimTime(timeout.as_nanos() as u64));
            self.state.lock().faults += 1;
            ohpc_telemetry::counter!("netsim_link_faults_total").inc();
            return Err(fault);
        }
        Ok(self.transfer(from, to, bytes))
    }

    /// Number of transfers refused by [`try_transfer`](Self::try_transfer)
    /// due to injected faults.
    pub fn fault_count(&self) -> u64 {
        self.state.lock().faults
    }

    /// Charges `dt` of *computation* (capability processing, marshaling) to
    /// the virtual clock. The figure harness feeds measured wall time in here
    /// so CPU cost and simulated wire cost share one timeline.
    pub fn charge_compute(&self, dt: std::time::Duration) -> SimTime {
        self.clock.advance(SimTime::from_duration(dt))
    }

    /// (transfer count, total bytes) since construction.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.transfers, st.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::figure4_cluster;
    use crate::LinkProfile;

    fn net() -> (SimNet, [MachineId; 4]) {
        let (cluster, ms) = figure4_cluster(LinkProfile::atm_155());
        (SimNet::new(cluster), ms)
    }

    #[test]
    fn transfer_advances_clock_by_unloaded_time() {
        let (net, [m0, _, _, m3]) = net();
        let expect = LinkProfile::atm_155().unloaded_time(10_000);
        let r = net.transfer(m0, m3, 10_000);
        assert_eq!(r.elapsed(), expect);
        assert_eq!(net.clock().now(), expect);
        assert_eq!(r.queued(), SimTime::ZERO);
    }

    #[test]
    fn sequential_transfers_accumulate() {
        let (net, [m0, _, _, m3]) = net();
        let r1 = net.transfer(m0, m3, 1000);
        let r2 = net.transfer(m3, m0, 1000);
        assert!(r2.submitted >= r1.arrived);
        assert_eq!(net.stats(), (2, 2000));
    }

    #[test]
    fn same_machine_uses_loopback_profile() {
        let (net, [m0, ..]) = net();
        let r = net.transfer(m0, m0, 1 << 20);
        let expect = LinkProfile::shared_memory().unloaded_time(1 << 20);
        assert_eq!(r.elapsed(), expect);
    }

    #[test]
    fn cross_lan_uses_backbone() {
        let (net, [m0, _, m2, _]) = net();
        let r = net.transfer(m0, m2, 1 << 16);
        assert_eq!(r.elapsed(), LinkProfile::campus_backbone().unloaded_time(1 << 16));
    }

    #[test]
    fn cross_site_uses_wan() {
        let (net, [m0, m1, _, _]) = net();
        let r = net.transfer(m0, m1, 1 << 16);
        assert_eq!(r.elapsed(), LinkProfile::wan().unloaded_time(1 << 16));
    }

    #[test]
    fn contention_queues_on_shared_lan() {
        // Two back-to-back submissions at the same virtual instant must
        // serialize on the LAN: simulate by submitting without letting the
        // clock advance between them (clock only advances on arrival, so the
        // second transfer's submit time equals the first's arrival; to force
        // contention use threads racing the same medium).
        let (net, [m0, _, _, m3]) = net();
        let n0 = net.clone();
        let h: Vec<_> = (0..4)
            .map(|_| {
                let n = n0.clone();
                std::thread::spawn(move || n.transfer(m0, m3, 125_000))
            })
            .collect();
        let receipts: Vec<_> = h.into_iter().map(|t| t.join().unwrap()).collect();
        // All four occupy the same wire: their service intervals must not
        // overlap, so the latest arrival is at least 4 service times out.
        let service = LinkProfile::atm_155().service_time(125_000).0;
        let max_arrival = receipts.iter().map(|r| r.arrived.0).max().unwrap();
        assert!(max_arrival >= 4 * service, "arrival {max_arrival} vs 4x service {service}");
    }

    #[test]
    fn jitter_is_deterministic_across_same_seed() {
        let profile = LinkProfile::atm_155().with_jitter(0.2);
        let (c1, ms) = figure4_cluster(profile);
        let (c2, _) = figure4_cluster(profile);
        let n1 = SimNet::with_seed(c1, 7);
        let n2 = SimNet::with_seed(c2, 7);
        for _ in 0..10 {
            let a = n1.transfer(ms[0], ms[3], 50_000);
            let b = n2.transfer(ms[0], ms[3], 50_000);
            assert_eq!(a, b);
        }
        // and a different seed diverges
        let (c3, _) = figure4_cluster(profile);
        let n3 = SimNet::with_seed(c3, 8);
        let a = n1.transfer(ms[0], ms[3], 50_000);
        let b = n3.transfer(ms[0], ms[3], 50_000);
        assert_ne!(a.elapsed(), b.elapsed());
    }

    #[test]
    fn transfer_at_queues_flows_deterministically() {
        // Two flows both submit at t=0 on the same wire: the second waits
        // exactly one service time.
        let (net, [m0, _, _, m3]) = net();
        let service = LinkProfile::atm_155().service_time(125_000).0;
        let a = net.transfer_at(SimTime::ZERO, m0, m3, 125_000);
        let b = net.transfer_at(SimTime::ZERO, m3, m0, 125_000);
        assert_eq!(a.queued(), SimTime::ZERO);
        assert_eq!(b.queued(), SimTime(service));
        assert_eq!(b.started, SimTime(service));
        // a third flow submitting mid-service waits for the tail
        let c = net.transfer_at(SimTime(service / 2), m0, m3, 125_000);
        assert_eq!(c.started, SimTime(2 * service));
    }

    #[test]
    fn disabled_queuing_lets_transfers_overlap() {
        let (cluster, ms) = figure4_cluster(LinkProfile::atm_155());
        let net = SimNet::new(cluster);
        net.disable_queuing();
        // Race many transfers over one wire: with queuing off they all start
        // at submission time, so none of them reports queue delay.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let n = net.clone();
                let (a, b) = (ms[0], ms[3]);
                std::thread::spawn(move || n.transfer(a, b, 125_000))
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.queued(), SimTime::ZERO, "no queuing when disabled");
        }
    }

    #[test]
    fn partition_faults_both_directions_until_heal() {
        let (net, [m0, _, _, m3]) = net();
        net.partition(m0, m3);
        assert_eq!(
            net.try_transfer(m0, m3, 100).unwrap_err(),
            LinkFault::Partitioned { from: m0, to: m3 }
        );
        assert!(net.try_transfer(m3, m0, 100).is_err(), "partitions are bidirectional");
        // Unaffected pairs still flow.
        let (_, _, m1) = (m0, m3, MachineId(1));
        assert!(net.try_transfer(m0, m1, 100).is_ok());
        net.heal(m0, m3);
        assert!(net.try_transfer(m0, m3, 100).is_ok());
        assert_eq!(net.fault_count(), 2);
    }

    #[test]
    fn fault_detection_costs_virtual_time() {
        let (net, [m0, _, _, m3]) = net();
        net.partition(m0, m3);
        let t0 = net.clock().now();
        let _ = net.try_transfer(m0, m3, 1000);
        assert!(net.clock().now() > t0, "a failed transfer must burn its timeout");
    }

    #[test]
    fn heal_schedule_restores_link_at_virtual_time() {
        let (net, [m0, _, _, m3]) = net();
        net.partition_until(m0, m3, SimTime(1_000_000));
        assert!(net.try_transfer(m0, m3, 10).is_err());
        net.clock().advance_to(SimTime(1_000_000));
        assert!(net.try_transfer(m0, m3, 10).is_ok(), "heal schedule elapsed");
        assert!(net.link_fault(m0, m3).is_none());
    }

    #[test]
    fn crashed_machine_faults_every_direction_until_restart() {
        let (net, [m0, m1, _, m3]) = net();
        net.crash(m3);
        assert_eq!(net.try_transfer(m0, m3, 10).unwrap_err(), LinkFault::MachineDown(m3));
        assert_eq!(net.try_transfer(m3, m1, 10).unwrap_err(), LinkFault::MachineDown(m3));
        assert!(net.try_transfer(m0, m1, 10).is_ok());
        net.restart(m3);
        assert!(net.try_transfer(m0, m3, 10).is_ok());
    }

    #[test]
    fn crash_schedule_restarts_at_virtual_time() {
        let (net, [m0, _, _, m3]) = net();
        net.crash_until(m3, SimTime(500_000));
        assert!(net.try_transfer(m0, m3, 10).is_err());
        net.clock().advance_to(SimTime(500_000));
        assert!(net.try_transfer(m0, m3, 10).is_ok());
    }

    #[test]
    fn plain_transfer_ignores_faults_by_design() {
        // The experiment harnesses use `transfer` and never inject faults;
        // it must stay infallible even if someone partitions underneath.
        let (net, [m0, _, _, m3]) = net();
        net.partition(m0, m3);
        let r = net.transfer(m0, m3, 100);
        assert_eq!(r.bytes, 100);
    }

    #[test]
    fn charge_compute_moves_clock() {
        let (net, _) = net();
        net.charge_compute(std::time::Duration::from_micros(250));
        assert_eq!(net.clock().now(), SimTime(250_000));
    }
}
