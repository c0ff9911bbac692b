//! Selection-cost measurement: the per-request price of protocol selection,
//! cached (the per-GP selection cache's hit path) vs uncached (the full
//! OR-table walk), as a function of table size.
//!
//! The scenario is the worst case for the walk: a remote client facing a
//! table of `n - 1` same-machine-only rows with the single applicable row
//! last, so the uncached path rejects (and label-allocates for) every row
//! before finding the match. The cached path revalidates three atomic loads
//! and serves the memo — its cost must not depend on `n`, which is exactly
//! what `ohpc-bench selection` gates on ([`crate::gate::selection`]).

use std::sync::Arc;
use std::time::Instant;

use ohpc_netsim::Location;
use ohpc_orb::objref::ProtoEntry;
use ohpc_orb::{
    ApplicabilityRule, GlobalPointer, ObjectId, ObjectReference, OrbError, ProtoObject, ProtoPool,
    ProtocolId, ReplyMessage, RequestMessage,
};

use crate::median;

/// Table sizes the selection gate sweeps.
pub const TABLE_SIZES: &[usize] = &[2, 8, 32];

struct RuleProto {
    id: ProtocolId,
    rule: ApplicabilityRule,
}

impl ProtoObject for RuleProto {
    fn protocol_id(&self) -> ProtocolId {
        self.id
    }
    fn applicable(&self, _p: &ProtoPool, c: &Location, s: &Location, _e: &ProtoEntry) -> bool {
        self.rule.allows(c, s)
    }
    fn invoke(
        &self,
        _p: &ProtoPool,
        _e: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<ReplyMessage, OrbError> {
        Ok(ReplyMessage::ok(req.request_id, bytes::Bytes::new()))
    }
}

/// The worst-case-walk scenario: a remote client's GP over `table_len - 1`
/// same-machine-only rows and one `Always` row last, with the cache warm.
/// All selections here are steady — no breakers involved — so the warmup
/// fills the cache and every subsequent `select_cached` is a hit.
fn warmed_gp(table_len: usize) -> GlobalPointer {
    let mut pool = ProtoPool::new();
    let mut protocols = Vec::new();
    for i in 0..table_len as u16 {
        let id = ProtocolId(200 + i);
        let rule = if (i as usize) + 1 < table_len {
            ApplicabilityRule::SameMachineOnly
        } else {
            ApplicabilityRule::Always
        };
        pool.push(Arc::new(RuleProto { id, rule }));
        protocols.push(ProtoEntry::endpoint(id, format!("tcp://h:{i}")));
    }
    let location = Location::new(0, 0);
    let or = ObjectReference { object: ObjectId(1), type_name: "T".into(), location, protocols };
    let gp = GlobalPointer::new(or, Arc::new(pool), Location::new(9, 9));
    let idx = gp.select_cached().expect("scenario always selects");
    assert_eq!(idx, table_len - 1, "the Always row wins");
    gp
}

/// One measured point: median ns/op for both paths at one table size.
#[derive(Debug, Clone)]
pub struct SelectionSample {
    /// OR-table rows.
    pub table_len: usize,
    /// Median ns per cached (hit-path) selection.
    pub cached_ns: f64,
    /// Median ns per uncached full-walk selection.
    pub uncached_ns: f64,
}

/// Median of `rounds` timing batches of `iters` calls each, in ns/op.
fn median_ns_per_op(rounds: usize, iters: u32, mut op: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(samples)
}

/// Measures one table size: cached hit path through a warmed GP vs the
/// uncached reference walk (`GlobalPointer::select`, which never consults
/// the cache).
pub fn measure(table_len: usize, rounds: usize, iters: u32) -> SelectionSample {
    let gp = warmed_gp(table_len);
    let cached_ns = median_ns_per_op(rounds, iters, || {
        std::hint::black_box(gp.select_cached().unwrap());
    });
    let uncached_ns = median_ns_per_op(rounds, iters, || {
        std::hint::black_box(gp.select().unwrap().index);
    });
    SelectionSample { table_len, cached_ns, uncached_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_selects_the_last_row_both_ways() {
        let gp = warmed_gp(8);
        assert_eq!(gp.select().unwrap().index, 7);
        assert_eq!(gp.select_cached().unwrap(), 7);
    }
}
