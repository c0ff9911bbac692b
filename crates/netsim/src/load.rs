//! Per-machine synthetic load tracking.
//!
//! The paper migrates a server object when "the load on the server's machine
//! increases beyond a high-water mark". This module supplies that signal: an
//! exponentially-decayed request-rate estimate plus an externally injected
//! background load (standing in for other users of a shared supercomputer).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{MachineId, SimTime};

/// Load sample for one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Decayed request-rate estimate (requests/sec of virtual time).
    pub request_rate: f64,
    /// Injected background load, in abstract "load units" (0 = idle).
    pub background: f64,
}

impl LoadSample {
    /// Combined load score used against the water marks: background plus a
    /// scaled request rate (100 req/s ≈ 1 load unit).
    pub fn score(&self) -> f64 {
        self.background + self.request_rate / 100.0
    }
}

#[derive(Debug, Default)]
struct MachineLoad {
    rate: f64,
    last_update: SimTime,
    background: f64,
}

/// The rate estimate's decay time constant, in virtual seconds.
const TAU: f64 = 1.0;

/// Cluster-wide load tracker; cheaply cloneable, thread-safe.
#[derive(Debug, Clone, Default)]
pub struct LoadTracker {
    inner: Arc<RwLock<HashMap<MachineId, MachineLoad>>>,
}

impl LoadTracker {
    /// Tracker with a 1-second decay constant.
    pub fn new() -> Self {
        Self::default()
    }

    fn decay(rate: f64, dt: f64) -> f64 {
        rate * (-dt / TAU).exp()
    }

    /// Records one request arriving at machine `m` at virtual time `now`.
    pub fn record_request(&self, m: MachineId, now: SimTime) {
        let mut map = self.inner.write();
        let e = map.entry(m).or_default();
        let dt = now.saturating_sub(e.last_update).as_secs_f64();
        // Each arrival adds 1/tau to the decayed estimator — the standard
        // exponentially-weighted rate estimate.
        e.rate = Self::decay(e.rate, dt) + 1.0 / TAU;
        e.last_update = now;
    }

    /// Sets background load (other tenants) for machine `m`.
    pub fn set_background(&self, m: MachineId, load: f64) {
        self.inner.write().entry(m).or_default().background = load;
    }

    /// Samples machine `m` at time `now`.
    pub fn sample(&self, m: MachineId, now: SimTime) -> LoadSample {
        let map = self.inner.read();
        match map.get(&m) {
            None => LoadSample { request_rate: 0.0, background: 0.0 },
            Some(e) => {
                let dt = now.saturating_sub(e.last_update).as_secs_f64();
                LoadSample { request_rate: Self::decay(e.rate, dt), background: e.background }
            }
        }
    }

    /// The machine with the lowest load score among `candidates` at `now`.
    pub fn least_loaded(&self, candidates: &[MachineId], now: SimTime) -> Option<MachineId> {
        candidates
            .iter()
            .copied()
            .map(|m| (m, self.sample(m, now).score()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(m, _)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn unknown_machine_is_idle() {
        let t = LoadTracker::new();
        let s = t.sample(MachineId(1), SimTime(0));
        assert_eq!(s.score(), 0.0);
    }

    #[test]
    fn rate_builds_with_requests() {
        let t = LoadTracker::new();
        let m = MachineId(0);
        // 100 requests over one virtual second
        for i in 0..100 {
            t.record_request(m, SimTime(i * SEC / 100));
        }
        let s = t.sample(m, SimTime(SEC));
        assert!(s.request_rate > 40.0 && s.request_rate < 110.0, "rate {}", s.request_rate);
    }

    #[test]
    fn rate_decays_when_idle() {
        let t = LoadTracker::new();
        let m = MachineId(0);
        for i in 0..100 {
            t.record_request(m, SimTime(i * SEC / 100));
        }
        let busy = t.sample(m, SimTime(SEC)).request_rate;
        let idle = t.sample(m, SimTime(6 * SEC)).request_rate;
        assert!(idle < busy / 50.0, "idle {idle} vs busy {busy}");
    }

    #[test]
    fn background_load_contributes_to_score() {
        let t = LoadTracker::new();
        let m = MachineId(0);
        t.set_background(m, 2.5);
        assert_eq!(t.sample(m, SimTime(0)).score(), 2.5);
    }

    #[test]
    fn least_loaded_picks_minimum() {
        let t = LoadTracker::new();
        let (a, b, c) = (MachineId(0), MachineId(1), MachineId(2));
        t.set_background(a, 3.0);
        t.set_background(b, 0.5);
        t.set_background(c, 1.0);
        assert_eq!(t.least_loaded(&[a, b, c], SimTime(0)), Some(b));
        assert_eq!(t.least_loaded(&[], SimTime(0)), None);
    }

    #[test]
    fn sampling_does_not_mutate() {
        let t = LoadTracker::new();
        let m = MachineId(0);
        t.record_request(m, SimTime(0));
        let s1 = t.sample(m, SimTime(SEC));
        let s2 = t.sample(m, SimTime(SEC));
        assert_eq!(s1, s2);
    }
}
