//! Microbenchmark of the flight-recorder hot path and of a metric event.
//!
//! Prints nanoseconds per operation for span open+close, instant events
//! (with no span open, so a record of their own, and riding in an open
//! span), spans with attributes, a span that times a histogram against a
//! span beside a histogram span, the disabled-recording fast path, and a
//! counter bump and a timed span by name against the same through a handle.
//! Run with `cargo run --release -p ohpc-telemetry --example trace_micro`
//! when touching the recorder; the end-to-end budget (`ohpc-bench tracing`,
//! 5 % on the fig3 path) covers a dozen spans and events per fig3 call, so
//! every nanosecond here is ~10 ns per request.

use std::time::Instant;

fn main() {
    let ctx = ohpc_telemetry::TraceContext::new_root();
    let _scope = ohpc_telemetry::install(ctx);

    // Warm.
    for _ in 0..10_000 {
        let _s = ohpc_telemetry::trace_span("warm");
    }

    let n = 1_000_000u32;
    let t0 = Instant::now();
    for _ in 0..n {
        let _s = ohpc_telemetry::trace_span("work");
    }
    let span_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let t0 = Instant::now();
    for _ in 0..n {
        ohpc_telemetry::trace_event("blip", &[("k", "v".into())]);
    }
    let event_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let t0 = Instant::now();
    for _ in 0..n {
        let _s = ohpc_telemetry::trace_span("work");
        ohpc_telemetry::trace_event("blip", &[("k", "v".into())]);
    }
    let span_event_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let hist = ohpc_telemetry::histogram!("micro_ns");
    let t0 = Instant::now();
    for _ in 0..n {
        let _s = ohpc_telemetry::trace_span("work");
        let _h = hist.span();
    }
    let span_beside_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let t0 = Instant::now();
    for _ in 0..n {
        let _s = ohpc_telemetry::trace_span_timed("work", &[], hist);
    }
    let span_timed_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let t0 = Instant::now();
    for i in 0..n {
        let mut s = ohpc_telemetry::trace_span_with("work", &[("attempt", i.into())]);
        s.attr("x", if i % 2 == 0 { "a" } else { "b" });
    }
    let span_attr_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    ohpc_telemetry::set_trace_enabled(false);
    let t0 = Instant::now();
    for _ in 0..n {
        let _s = ohpc_telemetry::trace_span("work");
    }
    let off_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    ohpc_telemetry::set_trace_enabled(true);

    let registry = ohpc_telemetry::Registry::global();
    let t0 = Instant::now();
    for _ in 0..n {
        registry.counter("micro_total", &[("fabric", "mem")]).inc();
    }
    let by_name_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let t0 = Instant::now();
    for _ in 0..n {
        ohpc_telemetry::counter!("micro_total", "fabric" => "mem").inc();
    }
    let handle_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let t0 = Instant::now();
    for _ in 0..n {
        let _s = registry.span("micro_ns", &[]);
    }
    let span_by_name_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let t0 = Instant::now();
    for _ in 0..n {
        let _s = ohpc_telemetry::histogram!("micro_ns").span();
    }
    let span_handle_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    println!("span open+close: {span_ns:.1} ns");
    println!("event, no span:  {event_ns:.1} ns");
    let in_span_ns = span_event_ns - span_ns;
    println!("event under an open span: {in_span_ns:.1} ns (span + event {span_event_ns:.1} ns)");
    println!("span beside a histogram span: {span_beside_ns:.1} ns");
    println!("timed span (span + histogram): {span_timed_ns:.1} ns");
    println!("span w/ attrs:   {span_attr_ns:.1} ns");
    println!("disabled span:   {off_ns:.1} ns");
    println!("counter by name: {by_name_ns:.1} ns");
    println!("counter handle:  {handle_ns:.1} ns");
    println!("timed by name:   {span_by_name_ns:.1} ns");
    println!("timed by handle: {span_handle_ns:.1} ns");
}
