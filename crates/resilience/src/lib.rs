//! # ohpc-resilience — fault-aware invocation policy for the open ORB
//!
//! The paper's protocol selection runs *per request*, which makes the OR's
//! preference-ordered protocol table a natural failover ladder: when the
//! preferred entry is unhealthy, the next applicable entry should win, the
//! same way migration forwards are absorbed transparently. This crate holds
//! the policy pieces the ORB threads through that path:
//!
//! - [`RetryPolicy`]: a per-request retry budget and deadline with
//!   exponential backoff and *deterministic*, seed-derived jitter — no
//!   wall-clock randomness, so netsim runs replay bit-identically.
//! - [`classify`]: splits [`TransportError`] into retryable vs permanent.
//!   Ambiguity (a request that was sent but got no reply) is a *phase*
//!   property the ORB layers on top via its own error type; see
//!   [`ErrorClass::Ambiguous`].
//! - [`HealthRegistry`]: per-(protocol, endpoint) health scores with a
//!   three-state circuit breaker ([`BreakerState`]), fed by transport
//!   errors and timeouts, consulted by protocol selection so an open
//!   breaker rejects the entry exactly like any other inapplicability.
//! - [`Sleeper`]: how backoff waits — real threads in production
//!   ([`ThreadSleeper`]), a closure advancing a virtual clock in tests
//!   ([`FnSleeper`]).
//!
//! Everything is driven by the pluggable [`ohpc_telemetry::Clock`], so the
//! whole policy is testable under deterministic virtual time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

mod classify;
mod health;
mod retry;
mod sleep;

pub use classify::{classify, ErrorClass};
pub use health::{BreakerState, HealthKey, HealthPolicy, HealthRegistry};
pub use retry::{splitmix64, RetryPolicy};
pub use sleep::{FnSleeper, NoopSleeper, Sleeper, ThreadSleeper};

// Re-exported so callers can name the error type without depending on
// ohpc-transport directly.
pub use ohpc_transport::TransportError;
