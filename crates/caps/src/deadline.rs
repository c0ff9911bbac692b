//! The `deadline` capability: per-request time budgets in the glue chain.
//!
//! The paper names timeouts as a first-class capability concern. This cap
//! makes the budget travel with the request: the client-side chain stamps an
//! absolute expiry into the capability metadata, and the server-side chain
//! refuses to dispatch a request that arrives past its expiry — work a
//! caller has already given up on (because its retry budget moved on, or a
//! partition delayed the frame) is shed instead of executed.
//!
//! Time flows through the repo-wide [`Clock`]; both ends of a netsim
//! experiment share the virtual clock, so expiry is deterministic under
//! simulation.

use std::sync::Arc;

use bytes::Bytes;

use ohpc_orb::capability::{CallInfo, CapMeta};
use ohpc_orb::{CapError, Capability, CapabilitySpec, Direction};
use ohpc_telemetry::{Clock, Registry};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};

use crate::bad_config;

/// Wire name of this capability. Shared with the ORB's admission-time
/// deadline peek ([`ohpc_orb::message::RequestMessage::deadline_expires_ns`]),
/// which reads the stamp straight off the wire metadata.
pub const NAME: &str = ohpc_orb::message::DEADLINE_CAP_NAME;

/// Metadata key carrying the absolute expiry (clock nanoseconds).
const META_KEY: &str = ohpc_orb::message::DEADLINE_META_KEY;

const NS_PER_MS: u64 = 1_000_000;

/// Per-request deadline capability.
pub struct DeadlineCap {
    budget_ms: u64,
    clock: Arc<dyn Clock>,
}

impl DeadlineCap {
    /// Builds a spec granting each request `budget_ms` of wire-plus-queue
    /// time before servers refuse it.
    pub fn spec(budget_ms: u64) -> CapabilitySpec {
        let mut w = XdrWriter::new();
        budget_ms.encode(&mut w);
        CapabilitySpec::with_config(NAME, w.finish())
    }

    /// Builds from a spec on the process-global telemetry clock.
    pub fn from_spec(spec: &CapabilitySpec) -> Result<Self, CapError> {
        Self::from_spec_with_clock(spec, Registry::global().clock())
    }

    /// Builds from a spec with an explicit clock.
    pub fn from_spec_with_clock(
        spec: &CapabilitySpec,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, CapError> {
        let mut r = XdrReader::new(&spec.config);
        let budget_ms = u64::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        Ok(Self { budget_ms, clock })
    }

    fn expired(&self, meta: &CapMeta) -> Result<(), CapError> {
        let raw = meta.require(META_KEY)?;
        let mut r = XdrReader::new(raw);
        let expires_ns = u64::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        if self.clock.now_ns() > expires_ns {
            // Same counter as the ORB's admission-time peek; the label says
            // how far the request got before the expiry was caught.
            ohpc_telemetry::counter!("orb_deadline_shed_total", "at" => "glue").inc();
            return Err(CapError::Expired(format!(
                "deadline of {} ms exceeded before dispatch",
                self.budget_ms
            )));
        }
        Ok(())
    }
}

impl Capability for DeadlineCap {
    fn name(&self) -> &str {
        NAME
    }

    fn process(
        &self,
        dir: Direction,
        _call: &CallInfo,
        meta: &mut CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        if dir == Direction::Request {
            let expires_ns = self.clock.now_ns().saturating_add(self.budget_ms * NS_PER_MS);
            let mut w = XdrWriter::new();
            expires_ns.encode(&mut w);
            meta.set(META_KEY, w.finish());
        }
        Ok(body)
    }

    fn unprocess(
        &self,
        dir: Direction,
        _call: &CallInfo,
        meta: &CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        if dir == Direction::Request {
            self.expired(meta)?;
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_orb::{ObjectId, RequestId};
    use ohpc_telemetry::ManualClock;

    fn call() -> CallInfo {
        CallInfo { object: ObjectId(1), method: 1, request_id: RequestId(1) }
    }

    fn capped(ms: u64) -> (DeadlineCap, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let cap =
            DeadlineCap::from_spec_with_clock(&DeadlineCap::spec(ms), clock.clone()).unwrap();
        (cap, clock)
    }

    #[test]
    fn fresh_requests_pass_stale_requests_are_shed() {
        let (cap, clock) = capped(50);
        let mut meta = CapMeta::new();
        cap.process(Direction::Request, &call(), &mut meta, Bytes::new()).unwrap();

        // Arrives within budget: dispatched.
        clock.advance(49 * NS_PER_MS);
        assert!(cap.unprocess(Direction::Request, &call(), &meta, Bytes::new()).is_ok());

        // Arrives past budget: shed before the object sees it. `Expired`
        // (not `Denied`) so the server replies `DeadlineExpired` — a
        // non-retryable shed, not a capability denial.
        clock.advance(2 * NS_PER_MS);
        let err = cap.unprocess(Direction::Request, &call(), &meta, Bytes::new()).unwrap_err();
        assert!(matches!(err, CapError::Expired(_)), "{err:?}");
    }

    #[test]
    fn replies_pass_through_untouched() {
        let (cap, clock) = capped(1);
        clock.advance(100 * NS_PER_MS);
        let mut meta = CapMeta::new();
        let body = Bytes::from_static(b"reply");
        let out = cap.process(Direction::Reply, &call(), &mut meta, body.clone()).unwrap();
        assert_eq!(out, body);
        assert!(meta.is_empty(), "replies carry no deadline stamp");
        assert!(cap.unprocess(Direction::Reply, &call(), &meta, body).is_ok());
    }

    #[test]
    fn missing_stamp_is_a_clean_denial() {
        let (cap, _clock) = capped(10);
        let meta = CapMeta::new();
        assert!(cap.unprocess(Direction::Request, &call(), &meta, Bytes::new()).is_err());
    }
}
