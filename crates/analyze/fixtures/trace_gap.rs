//! fixture-crate: ohpc-transport
//!
//! Counter coverage alone is no longer enough: an error that bumps a
//! counter but runs outside every trace span leaves no record in the
//! flight recorder. `quiet_send` is counter-covered yet span-blind;
//! `traced_send` opens a span scope directly and `helper` inherits the
//! scope from its caller.

fn quiet_send(frame: &[u8]) -> Result<(), TransportError> { //~ telemetry-coverage
    if frame.is_empty() {
        ohpc_telemetry::counter!("transport_empty_frames_total").inc();
        return Err(TransportError::Closed);
    }
    Ok(())
}

fn traced_send(frame: &[u8]) -> Result<(), TransportError> {
    let _span = ohpc_telemetry::trace_span_with("send", &[("fabric", "mem".into())]);
    ohpc_telemetry::counter!("transport_send_frames_total").inc();
    helper(frame)
}

fn helper(frame: &[u8]) -> Result<(), TransportError> {
    if frame.is_empty() {
        return Err(TransportError::Closed);
    }
    Ok(())
}
