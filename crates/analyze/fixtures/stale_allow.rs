//! fixture-crate: ohpc-orb
//!
//! Annotation hygiene: an allow that still suppresses a real finding is
//! silent; an allow whose finding has since been fixed is itself reported,
//! so suppressions cannot quietly outlive their reason; and an allow naming
//! a retired rule is an unknown rule.

fn drain(rx: Receiver<Bytes>) {
    // ohpc-analyze: allow(bounded-recv) — drained after the sender closed
    let _ = rx.recv();
}

fn count(a: u32, b: u32) -> u32 {
    // ohpc-analyze: allow(bounded-recv) — nothing here receives anymore //~ annotation
    a.saturating_add(b)
}

// ohpc-analyze: allow(lock-order) — the lock shim checks lock order //~ annotation
// ohpc-analyze: allow(guard-across-blocking) — so are held guards //~ annotation
// ohpc-analyze: allow(shared-state) — retired //~ annotation
// ohpc-analyze: allow(telemetry-coverage) — retired //~ annotation
// ohpc-analyze: allow(panic-freedom) — retired //~ annotation
// ohpc-analyze: allow(glue-balance) — retired //~ annotation
// ohpc-analyze: allow(epoch-bump) — retired //~ annotation
// ohpc-analyze: allow(transport-unwrap) — retired //~ annotation
fn done() {}
