//! Shared virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::SimTime;

/// Monotonic virtual time shared by everything in one simulation.
///
/// Cloning shares the underlying counter. `advance` is the only mutator and
/// is atomic, so concurrent client threads each observe a consistent,
/// monotonically nondecreasing time.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// New clock at t=0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::Acquire))
    }

    /// Advances the clock by `dt`, returning the new time.
    pub fn advance(&self, dt: SimTime) -> SimTime {
        SimTime(self.nanos.fetch_add(dt.0, Ordering::AcqRel) + dt.0)
    }

    /// Installs this clock as the span clock of a telemetry registry, so
    /// span durations are measured in virtual (simulated) nanoseconds.
    pub fn drive_telemetry(&self, registry: &ohpc_telemetry::Registry) {
        registry.set_clock(Arc::new(self.clone()));
    }

    /// Moves the clock forward to at least `t` (no-op if already past),
    /// returning the resulting time. Used when a transfer completes at an
    /// absolute arrival time computed under a lock.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let mut cur = self.nanos.load(Ordering::Acquire);
        while cur < t.0 {
            match self.nanos.compare_exchange_weak(cur, t.0, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimTime(cur)
    }
}

/// Virtual time doubles as the telemetry span clock: spans timed against a
/// `VirtualClock` measure simulated nanoseconds, deterministically.
impl ohpc_telemetry::Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.advance(SimTime(100)), SimTime(100));
        assert_eq!(c.now(), SimTime(100));
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = VirtualClock::new();
        c.advance(SimTime(500));
        assert_eq!(c.advance_to(SimTime(300)), SimTime(500), "must not go backwards");
        assert_eq!(c.advance_to(SimTime(700)), SimTime(700));
        assert_eq!(c.now(), SimTime(700));
    }

    #[test]
    fn drives_telemetry_spans_in_virtual_time() {
        let c = VirtualClock::new();
        let registry = ohpc_telemetry::Registry::new();
        c.drive_telemetry(&registry);
        let start = registry.now_ns();
        c.advance(SimTime(2_000));
        let op = registry.histogram("sim_op_ns", &[]);
        op.observe(registry.now_ns() - start);
        assert_eq!(op.sum(), 2_000);
    }

    #[test]
    fn clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(SimTime(42));
        assert_eq!(b.now(), SimTime(42));
    }

    #[test]
    fn concurrent_advances_sum() {
        let c = VirtualClock::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(SimTime(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), SimTime(8000));
    }
}
