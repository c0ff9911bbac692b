//! Per-(protocol, endpoint) health scores and circuit breakers.
//!
//! Selection consults [`HealthRegistry::allow`] per OR-table entry, so an
//! open breaker rejects an entry exactly like any other applicability
//! failure and the next entry in the preference order wins — failover as an
//! applicability predicate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use ohpc_telemetry::{Clock, Registry};

/// Identity of one health-tracked target: the *terminal* protocol and
/// endpoint of an OR entry (glue wrapping is transparent — a glue entry and
/// a plain entry over the same wire share one breaker).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HealthKey {
    /// Terminal protocol name (e.g. `tcp`).
    pub protocol: String,
    /// Terminal endpoint string (e.g. `sim://M1:1`).
    pub endpoint: String,
}

impl HealthKey {
    /// Builds a key.
    pub fn new(protocol: impl Into<String>, endpoint: impl Into<String>) -> Self {
        Self { protocol: protocol.into(), endpoint: endpoint.into() }
    }
}

impl std::fmt::Display for HealthKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.protocol, self.endpoint)
    }
}

/// Circuit-breaker state for one [`HealthKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Tripped: requests are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probe traffic is let through; one failure re-opens,
    /// enough successes close.
    HalfOpen,
}

impl BreakerState {
    /// Label used in telemetry.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Breaker tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Clock nanoseconds an open breaker rejects before probing (Open →
    /// HalfOpen).
    pub cooldown_ns: u64,
    /// Successes in HalfOpen required to close.
    pub close_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_ns: 200_000_000, // 200 ms
            close_after: 1,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct EndpointHealth {
    state: Option<BreakerState>, // None == Closed, never observed a failure
    consecutive_failures: u32,
    halfopen_successes: u32,
    opened_at_ns: u64,
    total_failures: u64,
    total_successes: u64,
}

impl EndpointHealth {
    fn state(&self) -> BreakerState {
        self.state.unwrap_or(BreakerState::Closed)
    }
}

/// Health scores and breakers for every target a process talks to.
///
/// Cheap to share (`Arc` it); all methods are callable concurrently. Time
/// flows through the pluggable [`Clock`] so cooldowns are deterministic
/// under netsim virtual time.
pub struct HealthRegistry {
    clock: Arc<dyn Clock>,
    policy: HealthPolicy,
    map: Mutex<HashMap<HealthKey, EndpointHealth>>,
}

impl std::fmt::Debug for HealthRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthRegistry")
            .field("targets", &self.map.lock().len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl Default for HealthRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthRegistry {
    /// Registry on the global telemetry clock with the default policy.
    pub fn new() -> Self {
        Self::with_clock(Registry::global().clock())
    }

    /// Registry on an explicit clock (netsim's `VirtualClock`, a
    /// `ManualClock` in tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self { clock, policy: HealthPolicy::default(), map: Mutex::new(HashMap::new()) }
    }

    /// Builder: replaces the breaker tuning.
    pub fn with_policy(mut self, policy: HealthPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The clock driving cooldowns (the ORB also times request deadlines
    /// against it).
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// The breaker tuning.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Should a request be offered to `key` right now?
    ///
    /// Closed and HalfOpen admit traffic. Open rejects until the cooldown
    /// elapses, at which point the breaker transitions to HalfOpen and the
    /// current request becomes the probe. Selection asks this of every row it
    /// reaches on every request, so only an Open breaker reads the clock.
    pub fn allow(&self, key: &HealthKey) -> bool {
        let mut map = self.map.lock();
        let Some(h) = map.get_mut(key) else { return true };
        if h.state() != BreakerState::Open {
            return true;
        }
        if self.clock.now_ns().saturating_sub(h.opened_at_ns) < self.policy.cooldown_ns {
            return false;
        }
        h.state = Some(BreakerState::HalfOpen);
        h.halfopen_successes = 0;
        record_transition(key, BreakerState::HalfOpen);
        true
    }

    /// Feeds a successful exchange (any delivered reply — the wire worked
    /// even if the application answered with an error status).
    pub fn record_success(&self, key: &HealthKey) {
        let mut map = self.map.lock();
        let Some(h) = map.get_mut(key) else { return };
        h.total_successes += 1;
        match h.state() {
            BreakerState::Closed => h.consecutive_failures = 0,
            // A success while Open means a raced in-flight request beat the
            // breaker; treat it as probe evidence.
            BreakerState::HalfOpen | BreakerState::Open => {
                h.halfopen_successes += 1;
                if h.halfopen_successes >= self.policy.close_after {
                    h.state = Some(BreakerState::Closed);
                    h.consecutive_failures = 0;
                    record_transition(key, BreakerState::Closed);
                }
            }
        }
    }

    /// Feeds a transport failure or timeout.
    pub fn record_failure(&self, key: &HealthKey) {
        let now = self.clock.now_ns();
        let mut map = self.map.lock();
        let h = map.entry(key.clone()).or_default();
        h.total_failures += 1;
        h.consecutive_failures += 1;
        match h.state() {
            BreakerState::Closed => {
                if h.consecutive_failures >= self.policy.failure_threshold {
                    h.state = Some(BreakerState::Open);
                    h.opened_at_ns = now;
                    record_transition(key, BreakerState::Open);
                }
            }
            // A failed probe re-opens and restarts the cooldown.
            BreakerState::HalfOpen => {
                h.state = Some(BreakerState::Open);
                h.opened_at_ns = now;
                record_transition(key, BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }

    /// Current breaker state (Closed for never-seen keys).
    pub fn state(&self, key: &HealthKey) -> BreakerState {
        self.map.lock().get(key).map(EndpointHealth::state).unwrap_or(BreakerState::Closed)
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self, key: &HealthKey) -> u32 {
        self.map.lock().get(key).map(|h| h.consecutive_failures).unwrap_or(0)
    }

    /// Health score in [0, 1]: the lifetime success fraction (1.0 for
    /// never-seen keys). A coarse signal for dashboards; selection decisions
    /// use the breaker state, not the score.
    pub fn score(&self, key: &HealthKey) -> f64 {
        let map = self.map.lock();
        let Some(h) = map.get(key) else { return 1.0 };
        let total = h.total_successes + h.total_failures;
        if total == 0 {
            return 1.0;
        }
        h.total_successes as f64 / total as f64
    }

    /// (successes, failures) lifetime totals for `key`.
    pub fn totals(&self, key: &HealthKey) -> (u64, u64) {
        let map = self.map.lock();
        map.get(key).map(|h| (h.total_successes, h.total_failures)).unwrap_or((0, 0))
    }
}

/// One breaker transition: counter for rate, gauge for current state. When
/// the observing thread is inside a trace scope (a GP invocation), the
/// transition also lands in that trace's flight-recorder timeline.
fn record_transition(key: &HealthKey, to: BreakerState) {
    let (protocol, endpoint) = (key.protocol.as_str(), key.endpoint.as_str());
    // A breaker tripping or healing is rare: its instruments go by name.
    let registry = Registry::global();
    registry
        .counter(
            "resilience_breaker_transitions_total",
            &[("protocol", protocol), ("endpoint", endpoint), ("to", to.label())],
        )
        .inc();
    ohpc_telemetry::trace_event(
        "breaker_transition",
        &[
            ("protocol", protocol.into()),
            ("endpoint", endpoint.into()),
            ("to", to.label().into()),
        ],
    );
    registry
        .gauge("resilience_breaker_open", &[("protocol", protocol), ("endpoint", endpoint)])
        .set(match to {
            BreakerState::Open => 1,
            BreakerState::Closed | BreakerState::HalfOpen => 0,
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_telemetry::ManualClock;

    fn reg(clock: &Arc<ManualClock>) -> HealthRegistry {
        HealthRegistry::with_clock(clock.clone()).with_policy(HealthPolicy {
            failure_threshold: 3,
            cooldown_ns: 1_000,
            close_after: 1,
        })
    }

    fn key() -> HealthKey {
        HealthKey::new("tcp", "sim://M1:1")
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let clock = Arc::new(ManualClock::new());
        let r = reg(&clock);
        let k = key();
        assert!(r.allow(&k));
        r.record_failure(&k);
        r.record_failure(&k);
        assert_eq!(r.state(&k), BreakerState::Closed);
        assert!(r.allow(&k));
        r.record_failure(&k);
        assert_eq!(r.state(&k), BreakerState::Open);
        assert!(!r.allow(&k), "open breaker rejects");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let clock = Arc::new(ManualClock::new());
        let r = reg(&clock);
        let k = key();
        r.record_failure(&k);
        r.record_failure(&k);
        r.record_success(&k);
        r.record_failure(&k);
        r.record_failure(&k);
        assert_eq!(r.state(&k), BreakerState::Closed, "streak was broken");
        assert_eq!(r.consecutive_failures(&k), 2);
    }

    #[test]
    fn cooldown_half_opens_then_probe_outcome_decides() {
        let clock = Arc::new(ManualClock::new());
        let r = reg(&clock);
        let k = key();
        for _ in 0..3 {
            r.record_failure(&k);
        }
        assert!(!r.allow(&k));
        clock.advance(999);
        assert!(!r.allow(&k), "cooldown not yet elapsed");
        clock.advance(1);
        assert!(r.allow(&k), "probe admitted");
        assert_eq!(r.state(&k), BreakerState::HalfOpen);

        // Failed probe re-opens with a fresh cooldown.
        r.record_failure(&k);
        assert_eq!(r.state(&k), BreakerState::Open);
        assert!(!r.allow(&k));
        clock.advance(1_000);
        assert!(r.allow(&k));

        // Successful probe closes.
        r.record_success(&k);
        assert_eq!(r.state(&k), BreakerState::Closed);
        assert!(r.allow(&k));
    }

    #[test]
    fn unknown_keys_are_healthy() {
        let clock = Arc::new(ManualClock::new());
        let r = reg(&clock);
        let k = key();
        assert!(r.allow(&k));
        assert_eq!(r.state(&k), BreakerState::Closed);
        assert_eq!(r.score(&k), 1.0);
        assert_eq!(r.totals(&k), (0, 0));
    }

    #[test]
    fn score_tracks_lifetime_fraction() {
        let clock = Arc::new(ManualClock::new());
        let r = reg(&clock);
        let k = key();
        r.record_failure(&k);
        r.record_success(&k);
        r.record_success(&k);
        r.record_success(&k);
        assert_eq!(r.totals(&k), (3, 1));
        assert!((r.score(&k) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn close_after_requires_that_many_probe_successes() {
        let clock = Arc::new(ManualClock::new());
        let r = HealthRegistry::with_clock(clock.clone()).with_policy(HealthPolicy {
            failure_threshold: 1,
            cooldown_ns: 10,
            close_after: 2,
        });
        let k = key();
        r.record_failure(&k);
        assert_eq!(r.state(&k), BreakerState::Open);
        clock.advance(10);
        assert!(r.allow(&k));
        r.record_success(&k);
        assert_eq!(r.state(&k), BreakerState::HalfOpen, "one success is not enough");
        r.record_success(&k);
        assert_eq!(r.state(&k), BreakerState::Closed);
    }

    /// A clock that counts its reads and never moves.
    #[derive(Default)]
    struct CountingClock(std::sync::atomic::AtomicU64);

    impl Clock for CountingClock {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            0
        }
    }

    /// Selection asks `allow` of every row it reaches on every request, so a
    /// healthy key must cost no clock read: only an Open breaker, which has a
    /// cooldown to weigh, reads it.
    #[test]
    fn allow_reads_the_clock_only_for_an_open_breaker() {
        let clock = Arc::new(CountingClock::default());
        let reads = || clock.0.load(std::sync::atomic::Ordering::Relaxed);
        let r = HealthRegistry::with_clock(clock.clone());
        let k = key();
        assert!(r.allow(&k));
        assert_eq!(reads(), 0, "an unknown key reads no clock");

        r.record_failure(&k);
        let before = reads();
        assert!(r.allow(&k));
        assert_eq!(r.state(&k), BreakerState::Closed);
        assert_eq!(reads(), before, "a Closed key reads no clock");

        r.record_failure(&k);
        r.record_failure(&k);
        assert_eq!(r.state(&k), BreakerState::Open);
        let before = reads();
        assert!(!r.allow(&k));
        assert_eq!(reads(), before + 1, "an Open key weighs its cooldown");
    }

    #[test]
    fn distinct_keys_have_independent_breakers() {
        let clock = Arc::new(ManualClock::new());
        let r = reg(&clock);
        let a = HealthKey::new("tcp", "sim://M1:1");
        let b = HealthKey::new("tcp", "sim://M2:1");
        for _ in 0..3 {
            r.record_failure(&a);
        }
        assert!(!r.allow(&a));
        assert!(r.allow(&b));
        assert_eq!(r.state(&b), BreakerState::Closed);
    }
}
