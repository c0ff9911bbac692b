//! Admission control: the in-flight/queue-depth bound at the
//! transport→dispatch boundary.
//!
//! The ODP channel-objects line of work (and every production RPC stack
//! since) rejects work at the channel edge rather than deep in the stack:
//! once the server is saturated, queueing another request only converts a
//! fast, retryable rejection into a slow deadline burn for *every* queued
//! caller. The controller counts admitted-but-unfinished requests
//! (queued + executing); at the bound, [`try_admit`] fails in nanoseconds
//! and the ORB answers `Overloaded` — which clients classify as
//! retryable-with-backoff.
//!
//! [`try_admit`]: AdmissionController::try_admit

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ohpc_telemetry::{Gauge, Registry};

/// The in-flight bound a context starts with.
pub const DEFAULT_QUEUE_BOUND: usize = 1024;

/// Sentinel for "no bound" in the atomic limit cell.
const UNBOUNDED: usize = usize::MAX;

struct AdmissionInner {
    limit: AtomicUsize,
    in_flight: AtomicUsize,
    gauge: Arc<Gauge>,
}

/// Shared in-flight counter with a configurable bound. Cheap to clone.
#[derive(Clone)]
pub struct AdmissionController {
    inner: Arc<AdmissionInner>,
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shed {
    /// Admitted requests at the time of the decision.
    pub in_flight: usize,
    /// The bound that was applied.
    pub limit: usize,
}

impl std::fmt::Display for Shed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server overloaded: {} requests in flight (limit {})", self.in_flight, self.limit)
    }
}

impl AdmissionController {
    /// Controller with an explicit bound (`None` disables shedding).
    pub fn new(limit: Option<usize>) -> Self {
        Self {
            inner: Arc::new(AdmissionInner {
                limit: AtomicUsize::new(limit.unwrap_or(UNBOUNDED).max(1)),
                in_flight: AtomicUsize::new(0),
                gauge: Registry::global().gauge("runtime_admitted_in_flight", &[]),
            }),
        }
    }

    /// Replaces the bound (`None` disables shedding). Takes effect for the
    /// next admission decision; already-admitted requests are unaffected.
    pub fn set_limit(&self, limit: Option<usize>) {
        self.inner.limit.store(limit.unwrap_or(UNBOUNDED).max(1), Ordering::Relaxed);
    }

    /// The configured bound, if any.
    pub fn limit(&self) -> Option<usize> {
        match self.inner.limit.load(Ordering::Relaxed) {
            UNBOUNDED => None,
            n => Some(n),
        }
    }

    /// Admitted-but-unfinished requests right now.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Relaxed)
    }

    /// Tries to admit one request. On success the returned [`Permit`] holds
    /// the slot until dropped — move it into the dispatch task.
    pub fn try_admit(&self) -> Result<Permit, Shed> {
        let limit = self.inner.limit.load(Ordering::Relaxed);
        let admitted = self.inner.in_flight.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |n| if n >= limit { None } else { Some(n + 1) },
        );
        match admitted {
            Ok(_) => {
                self.inner.gauge.add(1);
                Ok(Permit { inner: self.inner.clone() })
            }
            Err(n) => Err(Shed { in_flight: n, limit }),
        }
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("limit", &self.limit())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// One admitted request's slot; releases on drop (normal return, error
/// return, or handler panic — the unwind runs it either way).
pub struct Permit {
    inner: Arc<AdmissionInner>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.inner.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.inner.gauge.sub(1);
    }
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Permit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_the_limit_then_sheds() {
        let ctl = AdmissionController::new(Some(2));
        let p1 = ctl.try_admit().unwrap();
        let _p2 = ctl.try_admit().unwrap();
        let shed = ctl.try_admit().unwrap_err();
        assert_eq!(shed.in_flight, 2);
        assert_eq!(shed.limit, 2);
        drop(p1);
        assert!(ctl.try_admit().is_ok(), "released slot is reusable");
    }

    #[test]
    fn unbounded_never_sheds() {
        let ctl = AdmissionController::new(None);
        let permits: Vec<_> = (0..10_000).map(|_| ctl.try_admit().unwrap()).collect();
        assert_eq!(ctl.in_flight(), 10_000);
        drop(permits);
        assert_eq!(ctl.in_flight(), 0);
    }

    #[test]
    fn display_names_the_pressure() {
        let s = Shed { in_flight: 9, limit: 8 }.to_string();
        assert!(s.contains("9"), "{s}");
        assert!(s.contains("limit 8"), "{s}");
    }
}
