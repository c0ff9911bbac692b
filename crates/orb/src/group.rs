//! Collective invocations over groups of Global Pointers.
//!
//! HPC++ (the programming model Open HPC++ implements, §2) pairs remote
//! member calls with collective operations across sets of objects. A
//! [`GpGroup`] is the ORB-level building block: the same method + arguments
//! invoked against every member, each call running protocol selection
//! independently — so one group can simultaneously reach a co-located member
//! over shared memory, a LAN member over TCP and a remote member through an
//! authenticated glue chain.

use std::sync::Arc;

use bytes::Bytes;

use ohpc_xdr::XdrWriter;

use crate::error::OrbError;
use crate::gp::GlobalPointer;

/// A fixed group of Global Pointers addressed collectively.
pub struct GpGroup {
    members: Vec<Arc<GlobalPointer>>,
}

impl GpGroup {
    /// Builds a group from its members.
    pub fn new(members: Vec<Arc<GlobalPointer>>) -> Self {
        Self { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members, in group order.
    pub fn members(&self) -> &[Arc<GlobalPointer>] {
        &self.members
    }

    /// Invokes `method` with `args` on every member concurrently (one thread
    /// per member, as the 1999 runtime would), gathering per-member results
    /// in group order. One member failing does not stop the others.
    #[expect(
        clippy::disallowed_methods,
        reason = "one thread per member for one collective call, bounded by the group's size"
    )]
    pub fn invoke_all(
        &self,
        method: u32,
        args: &XdrWriter,
    ) -> Vec<Result<Bytes, OrbError>> {
        let body = Bytes::copy_from_slice(args.peek());
        // Member calls run on their own threads, which have no trace scope
        // of their own — carry the collective caller's context across so all
        // member invocations (and their retries/failovers) share one trace.
        let trace = ohpc_telemetry::current();
        let handles: Vec<_> = self
            .members
            .iter()
            .enumerate()
            .map(|(i, gp)| {
                let gp = gp.clone();
                let body = body.clone();
                let trace = trace.clone();
                std::thread::spawn(move || {
                    let _t = trace.map(ohpc_telemetry::install);
                    let _span = ohpc_telemetry::trace_span_with(
                        "group_member",
                        &[("member", i.into())],
                    );
                    gp.invoke_raw(method, body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let res = h.join().unwrap_or_else(|_| {
                    Err(OrbError::Protocol("collective member thread panicked".into()))
                });
                if res.is_err() {
                    ohpc_telemetry::counter!("orb_group_member_failures_total").inc();
                }
                res
            })
            .collect()
    }

    /// Broadcast: one-way `method`+`args` to every member. Returns the
    /// per-member send outcomes (at-most-once semantics apply per member).
    pub fn broadcast(&self, method: u32, args: &XdrWriter) -> Vec<Result<(), OrbError>> {
        self.members.iter().map(|gp| gp.invoke_oneway(method, args)).collect()
    }

    /// Gather with decode: invokes on all members and decodes each Ok body
    /// as `T`, collecting into group order. The first failure aborts with
    /// its error (use [`invoke_all`](Self::invoke_all) for partial results).
    pub fn gather<T: ohpc_xdr::XdrDecode>(
        &self,
        method: u32,
        args: &XdrWriter,
    ) -> Result<Vec<T>, OrbError> {
        self.invoke_all(method, args)
            .into_iter()
            .map(|r| {
                let body = r?;
                ohpc_xdr::decode_from_slice::<T>(&body).map_err(OrbError::from)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, ProtocolId, RequestId};
    use crate::message::{ReplyMessage, ReplyStatus, RequestMessage};
    use crate::objref::{ObjectReference, ProtoEntry};
    use crate::proto::{ProtoObject, ProtoPool};
    use ohpc_netsim::Location;
    use ohpc_xdr::XdrEncode;

    /// Proto that echoes the object id as a u64 reply (so each member's
    /// result is distinguishable), failing for object 13.
    struct IdEcho;
    impl ProtoObject for IdEcho {
        fn protocol_id(&self) -> ProtocolId {
            ProtocolId::TCP
        }
        fn applicable(&self, _p: &ProtoPool, _c: &Location, _s: &Location, _e: &ProtoEntry) -> bool {
            true
        }
        fn invoke(
            &self,
            _p: &ProtoPool,
            _e: &ProtoEntry,
            req: &RequestMessage,
        ) -> Result<ReplyMessage, OrbError> {
            if req.object.0 == 13 {
                return Ok(ReplyMessage::status(
                    req.request_id,
                    ReplyStatus::Exception("unlucky".into()),
                ));
            }
            let mut w = XdrWriter::new();
            req.object.0.encode(&mut w);
            Ok(ReplyMessage::ok(req.request_id, w.finish()))
        }
        fn invoke_oneway(
            &self,
            _p: &ProtoPool,
            _e: &ProtoEntry,
            req: &RequestMessage,
        ) -> Result<(), OrbError> {
            assert!(req.oneway);
            Ok(())
        }
    }

    fn group(ids: &[u64]) -> GpGroup {
        let pool = Arc::new(ProtoPool::new().with(Arc::new(IdEcho)));
        let members = ids
            .iter()
            .map(|&id| {
                let or = ObjectReference {
                    object: ObjectId(id),
                    type_name: "T".into(),
                    location: Location::new(0, 0),
                    protocols: vec![ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1")],
                };
                Arc::new(GlobalPointer::new(or, pool.clone(), Location::new(1, 1)))
            })
            .collect();
        GpGroup::new(members)
    }

    #[test]
    fn gather_collects_in_group_order() {
        let g = group(&[5, 9, 2]);
        assert_eq!(g.len(), 3);
        let results: Vec<u64> = g.gather(1, &XdrWriter::new()).unwrap();
        assert_eq!(results, vec![5, 9, 2]);
    }

    #[test]
    fn invoke_all_reports_partial_failures() {
        let g = group(&[1, 13, 3]);
        let results = g.invoke_all(1, &XdrWriter::new());
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(OrbError::RemoteException(_))));
        assert!(results[2].is_ok());
    }

    #[test]
    fn gather_aborts_on_first_failure() {
        let g = group(&[1, 13, 3]);
        assert!(g.gather::<u64>(1, &XdrWriter::new()).is_err());
    }

    #[test]
    fn broadcast_fires_oneway_everywhere() {
        let g = group(&[1, 2, 3, 4]);
        let outcomes = g.broadcast(7, &XdrWriter::new());
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(Result::is_ok));
        // the RequestId(0)-style assertion happens inside IdEcho::invoke_oneway
        let _ = RequestId(0);
    }

    #[test]
    fn empty_group_is_a_noop() {
        let g = GpGroup::new(vec![]);
        assert!(g.is_empty());
        assert!(g.invoke_all(1, &XdrWriter::new()).is_empty());
        assert_eq!(g.gather::<u64>(1, &XdrWriter::new()).unwrap(), Vec::<u64>::new());
    }
}
