//! fixture-crate: ohpc-orb
//!
//! Error paths in the request-path crates must be visible to telemetry —
//! directly, through a callee, or through a caller. `forward` has no
//! counter anywhere on its call path; `forward_counted` touches one
//! directly and `relay` inherits coverage from its callee.

fn forward(frame: &[u8]) -> Result<Bytes, OrbError> { //~ telemetry-coverage
    if frame.is_empty() {
        return Err(OrbError::Protocol("empty frame".into()));
    }
    Ok(Bytes::copy_from_slice(frame))
}

fn forward_counted(frame: &[u8]) -> Result<Bytes, OrbError> {
    if frame.is_empty() {
        ohpc_telemetry::counter!("orb_empty_frames_total").inc();
        return Err(OrbError::Protocol("empty frame".into()));
    }
    Ok(Bytes::copy_from_slice(frame))
}

fn relay(frame: &[u8]) -> Result<Bytes, OrbError> {
    let _span = ohpc_telemetry::trace_span("relay");
    let body = forward_counted(frame)?;
    if body.is_empty() {
        return Err(OrbError::Protocol("empty body".into()));
    }
    Ok(body)
}
