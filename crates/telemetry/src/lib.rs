//! # ohpc-telemetry — metrics and spans for the Open HPC++ request path
//!
//! A zero-dependency observability substrate: wait-free atomic instruments
//! ([`Counter`], [`Gauge`], [`Histogram`]), a lock-light [`Registry`] keyed by
//! `(name, labels)`, point-in-time [`Snapshot`]s with a prometheus-style text
//! encoder, and drop-guard [`Span`]s timed by a pluggable [`Clock`].
//!
//! Design rules (see DESIGN.md §7):
//!
//! - **Recording never blocks and never panics.** Instruments are plain
//!   atomics; the registry lock is only taken to resolve a handle, and kind
//!   collisions degrade to detached instruments instead of errors.
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
//! use ohpc_telemetry::{Registry, ManualClock};
//! use std::sync::Arc;
//!
//! let registry = Registry::new();
//! let clock = Arc::new(ManualClock::new());
//! registry.set_clock(clock.clone());
//!
//! registry.counter("orb_selection_total", &[("protocol", "tcp")]).inc();
//! let span = registry.span("orb_request_ns", &[]);
//! clock.advance(1_500);
//! assert_eq!(span.finish(), 1_500);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter_total("orb_selection_total"), 1);
//! assert!(snap.to_text().contains("orb_selection_total{protocol=\"tcp\"} 1"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod metrics;
mod registry;
mod snapshot;
mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{default_latency_bounds_ns, Counter, Exemplar, Gauge, Histogram};
pub use registry::{add, counter, gauge, histogram, inc, observe_ns, span, Registry, Span};
pub use snapshot::{HistogramSnapshot, Sample, Snapshot, Value};
pub use trace::{
    current, current_trace_id, dump_to_results, enabled as trace_enabled, install,
    set_enabled as set_trace_enabled, trace_event, trace_span, trace_span_with, SpanRecord,
    TraceBuffer, TraceContext, TraceScope, TraceSpan, BAGGAGE_BUDGET_BYTES,
};
