//! The `timeout` capability: a bounded request budget.
//!
//! Figure 2's capability "C2, a timeout capability that lets the client make
//! only a certain maximum number of requests". Both the client-side and the
//! server-side instance keep their own decrementing budget (the paper's
//! "GC has its own copies of the capabilities"), so a client that forges its
//! counter is still cut off by the server.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

use ohpc_orb::capability::{CallInfo, CapMeta};
use ohpc_orb::{CapError, Capability, CapabilitySpec, Direction};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};

use crate::{bad_config, CapScope};

/// Wire name of this capability.
pub const NAME: &str = "timeout";

/// Request-count budget capability.
pub struct TimeoutCap {
    max_requests: u64,
    used: AtomicU64,
    scope: CapScope,
}

impl TimeoutCap {
    /// Builds a spec allowing `max_requests` requests, applicable everywhere.
    pub fn spec(max_requests: u64) -> CapabilitySpec {
        Self::spec_scoped(max_requests, CapScope::Always)
    }

    /// Builds a spec with an explicit applicability scope (the paper's
    /// Figure 4 uses a timeout capability that only binds off-LAN clients).
    pub fn spec_scoped(max_requests: u64, scope: CapScope) -> CapabilitySpec {
        let mut w = XdrWriter::new();
        max_requests.encode(&mut w);
        scope.encode(&mut w);
        CapabilitySpec::with_config(NAME, w.finish())
    }

    /// Builds the capability from its spec.
    pub fn from_spec(spec: &CapabilitySpec) -> Result<Self, CapError> {
        let mut r = XdrReader::new(&spec.config);
        let max_requests = u64::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        let scope = CapScope::decode(&mut r).map_err(|e| bad_config(NAME, e))?;
        Ok(Self { max_requests, used: AtomicU64::new(0), scope })
    }

    /// Requests consumed so far by this instance.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Remaining budget of this instance.
    pub fn remaining(&self) -> u64 {
        self.max_requests.saturating_sub(self.used())
    }

    fn consume(&self) -> Result<u64, CapError> {
        // fetch_add then check: the slot is spent even if we deny, which is
        // the conservative reading of a hard budget.
        let n = self.used.fetch_add(1, Ordering::Relaxed);
        if n >= self.max_requests {
            return Err(CapError::Denied(format!(
                "request budget of {} exhausted",
                self.max_requests
            )));
        }
        Ok(n)
    }
}

impl Capability for TimeoutCap {
    fn name(&self) -> &str {
        NAME
    }

    fn applicable(&self, client: &ohpc_orb::Location, server: &ohpc_orb::Location) -> bool {
        self.scope.applies(client, server)
    }

    fn process(
        &self,
        dir: Direction,
        _call: &CallInfo,
        meta: &mut CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        if dir == Direction::Request {
            let n = self.consume()?;
            meta.set("seq", n.to_be_bytes());
        }
        Ok(body)
    }

    fn unprocess(
        &self,
        dir: Direction,
        _call: &CallInfo,
        _meta: &CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        if dir == Direction::Request {
            // Server-side budget enforcement, independent of the client's.
            self.consume()?;
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_orb::{ObjectId, RequestId};

    fn call() -> CallInfo {
        CallInfo { object: ObjectId(1), method: 1, request_id: RequestId(1) }
    }

    #[test]
    fn budget_decrements_then_denies() {
        let cap = TimeoutCap::from_spec(&TimeoutCap::spec(3)).unwrap();
        for i in 0..3 {
            let mut meta = CapMeta::new();
            assert!(
                cap.process(Direction::Request, &call(), &mut meta, Bytes::new()).is_ok(),
                "request {i} should pass"
            );
        }
        let mut meta = CapMeta::new();
        let err = cap.process(Direction::Request, &call(), &mut meta, Bytes::new()).unwrap_err();
        assert!(matches!(err, CapError::Denied(_)));
        assert_eq!(cap.remaining(), 0);
    }

    #[test]
    fn server_side_counts_on_unprocess() {
        let cap = TimeoutCap::from_spec(&TimeoutCap::spec(2)).unwrap();
        let meta = CapMeta::new();
        assert!(cap.unprocess(Direction::Request, &call(), &meta, Bytes::new()).is_ok());
        assert!(cap.unprocess(Direction::Request, &call(), &meta, Bytes::new()).is_ok());
        assert!(cap.unprocess(Direction::Request, &call(), &meta, Bytes::new()).is_err());
    }

    #[test]
    fn replies_do_not_consume_budget() {
        let cap = TimeoutCap::from_spec(&TimeoutCap::spec(1)).unwrap();
        for _ in 0..10 {
            let mut meta = CapMeta::new();
            cap.process(Direction::Reply, &call(), &mut meta, Bytes::new()).unwrap();
            cap.unprocess(Direction::Reply, &call(), &meta, Bytes::new()).unwrap();
        }
        assert_eq!(cap.used(), 0);
    }

    #[test]
    fn body_passes_through_unchanged() {
        let cap = TimeoutCap::from_spec(&TimeoutCap::spec(10)).unwrap();
        let body = Bytes::from_static(b"contents");
        let mut meta = CapMeta::new();
        let out = cap.process(Direction::Request, &call(), &mut meta, body.clone()).unwrap();
        assert_eq!(out, body);
    }

    #[test]
    fn zero_budget_denies_immediately() {
        let cap = TimeoutCap::from_spec(&TimeoutCap::spec(0)).unwrap();
        let mut meta = CapMeta::new();
        assert!(cap.process(Direction::Request, &call(), &mut meta, Bytes::new()).is_err());
    }

    #[test]
    fn concurrent_budget_is_exact() {
        let cap = std::sync::Arc::new(TimeoutCap::from_spec(&TimeoutCap::spec(100)).unwrap());
        let successes = std::sync::Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cap = cap.clone();
                let successes = successes.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let mut meta = CapMeta::new();
                        if cap
                            .process(
                                Direction::Request,
                                &CallInfo {
                                    object: ObjectId(1),
                                    method: 1,
                                    request_id: RequestId(1),
                                },
                                &mut meta,
                                Bytes::new(),
                            )
                            .is_ok()
                        {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(successes.load(Ordering::Relaxed), 100, "exactly the budget may pass");
    }
}
