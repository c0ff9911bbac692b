//! # ohpc-telemetry — metrics and spans for the Open HPC++ request path
//!
//! A zero-dependency observability substrate: wait-free atomic instruments
//! ([`Counter`], [`Gauge`], [`Histogram`]), a lock-light [`Registry`] keyed by
//! `(name, labels)`, point-in-time [`Snapshot`]s with a prometheus-style text
//! encoder, and trace spans that time histograms ([`trace_span_timed`]) on a
//! pluggable [`Clock`].
//!
//! Design rules (see DESIGN.md §7):
//!
//! - **Recording never blocks and never panics.** Instruments are plain
//!   atomics; the registry lock is only taken to resolve a handle, and kind
//!   collisions degrade to detached instruments instead of errors.
//! - **A call site resolves its instrument once.** [`counter!`], [`gauge!`]
//!   and [`histogram!`] keep a `&'static` handle per call site; an object
//!   whose label is only known at run time keeps the `Arc` it resolved when
//!   it was built. There is no by-name shorthand per event: a lookup on an
//!   error path is written `Registry::global().counter(..)`, in full.
//! - **Zero dependencies.** Every other workspace crate may depend on
//!   telemetry, so telemetry depends on nothing (it deliberately uses
//!   `std::sync::RwLock`, not `parking_lot`).
//! - **Time is pluggable.** [`MonotonicClock`] for production,
//!   [`ManualClock`] for unit tests, and `ohpc-netsim`'s `VirtualClock`
//!   implements [`Clock`] so simulated time drives spans deterministically.
//!
//! Workspace instrumentation records into [`Registry::global`]; the ORB's
//! introspection object (`ohpc-orb::introspect`) serves that registry's
//! snapshot as a `RemoteObject`, so metrics travel over the ORB itself.
//!
//! ```
//! use ohpc_telemetry::{histogram, trace_span_timed, ManualClock, Registry};
//! use std::sync::Arc;
//!
//! let registry = Registry::global();
//! let clock = Arc::new(ManualClock::new());
//! registry.set_clock(clock.clone());
//!
//! let selected = registry.counter("orb_selection_total", &[("protocol", "tcp")]);
//! selected.inc();
//! {
//!     let _timed = trace_span_timed("server_dispatch", &[], histogram!("orb_request_ns"));
//!     clock.advance(1_500);
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.histogram("orb_request_ns", &[]).map(|h| h.sum), Some(1_500));
//! assert_eq!(snap.counter_total("orb_selection_total"), 1);
//! assert!(snap.to_text().contains("orb_selection_total{protocol=\"tcp\"} 1"));
//! ```

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

mod clock;
mod metrics;
mod registry;
mod snapshot;
mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{default_latency_bounds_ns, Counter, Exemplar, Gauge, Histogram};
pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, Sample, Snapshot, Value};
pub use trace::{
    current, current_trace_id, dump_to_results, enabled as trace_enabled, install, last_timed_ns,
    set_enabled as set_trace_enabled, suspend, trace_event, trace_event_at_last_stamp, trace_span,
    trace_span_timed, trace_span_with, AttrValue, SpanRecord, TraceBuffer, TraceContext,
    TraceScope, TraceSpan, BAGGAGE_BUDGET_BYTES,
};

/// Shared body of [`counter!`], [`gauge!`] and [`histogram!`]: a hidden
/// `OnceLock` per call site, filled from [`Registry::global`] on first use.
#[doc(hidden)]
#[macro_export]
macro_rules! __instrument {
    ($resolve:ident, $ty:ident, $name:literal $(, $key:literal => $value:literal)* $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::$ty>> =
            ::std::sync::OnceLock::new();
        let handle: &'static $crate::$ty = HANDLE.get_or_init(|| {
            $crate::Registry::global().$resolve($name, &[$(($key, $value)),*])
        });
        handle
    }};
}

/// The global-registry counter `name{labels}` as a `&'static Counter`,
/// resolved once per call site: `counter!("orb_requests_total").inc()`,
/// `counter!("orb_deadline_shed_total", "at" => "glue").inc()`. Name and
/// labels must be literals; a call site whose label is only known at run time
/// keeps an `Arc` handle in the object that knows it instead.
#[macro_export]
macro_rules! counter {
    ($($spec:tt)*) => { $crate::__instrument!(counter, Counter, $($spec)*) };
}

/// The global-registry gauge `name{labels}` as a `&'static Gauge`; see
/// [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($($spec:tt)*) => { $crate::__instrument!(gauge, Gauge, $($spec)*) };
}

/// The global-registry histogram `name{labels}` (default latency bounds) as
/// a `&'static Histogram`; see [`counter!`]. Time a scope into it with
/// [`trace_span_timed`].
#[macro_export]
macro_rules! histogram {
    ($($spec:tt)*) => { $crate::__instrument!(histogram, Histogram, $($spec)*) };
}
