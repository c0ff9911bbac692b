//! Selection-cost measurement: the per-request price of protocol selection
//! as a function of table size.
//!
//! Every request walks its GP's resolved rows until one wins. Two scenarios
//! bound that walk: the first row wins (the common case, whose cost must not
//! depend on the table's length), and the last row wins after every row
//! before it was rejected as inapplicable (the worst case, which grows by a
//! fixed cost per row). `ohpc-bench selection` gates the first and prints
//! both ([`crate::gate::selection`]).

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

/// Which row of the scenario's table wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Winner {
    /// Every row is applicable, so the walk stops at the first.
    First,
    /// Every row but the last is same-machine-only and the client is remote,
    /// so the walk rejects `table_len - 1` rows first.
    Last,
}

/// A remote client's GP over a table of `table_len` rows, all in the pool.
fn scenario(table_len: usize, winner: Winner) -> GlobalPointer {
    let mut pool = ProtoPool::new();
    let mut protocols = Vec::new();
    for i in 0..table_len as u16 {
        let id = ProtocolId(200 + i);
        let rule = if winner == Winner::Last && (i as usize) + 1 < table_len {
            ApplicabilityRule::SameMachineOnly
        } else {
            ApplicabilityRule::Always
        };
        pool.push(Arc::new(RuleProto { id, rule }));
        protocols.push(ProtoEntry::endpoint(id, format!("tcp://h:{i}")));
    }
    let location = Location::new(0, 0);
    let or = ObjectReference { object: ObjectId(1), type_name: "T".into(), location, protocols };
    GlobalPointer::new(or, Arc::new(pool), Location::new(9, 9))
}

/// One table size: median ns per selection when the first row wins and
/// when the last does.
#[derive(Debug, Clone)]
pub struct SelectionSample {
    /// OR-table rows.
    pub table_len: usize,
    /// Median ns per selection won by the first row.
    pub first_ns: f64,
    /// Median ns per selection won by the last row.
    pub last_ns: f64,
}

/// Measures both scenarios at every size of [`TABLE_SIZES`]: `rounds`
/// rounds, each timing `iters` selections (`GlobalPointer::select`) on every
/// GP in turn, so a drift of the host lands on all series alike.
pub fn measure(rounds: usize, iters: u32) -> Vec<SelectionSample> {
    let gps: Vec<[GlobalPointer; 2]> = TABLE_SIZES
        .iter()
        .map(|&n| [scenario(n, Winner::First), scenario(n, Winner::Last)])
        .collect();
    let mut ns: Vec<[Vec<f64>; 2]> = gps.iter().map(|_| Default::default()).collect();
    for _ in 0..rounds {
        for (pair, series) in gps.iter().zip(&mut ns) {
            for (gp, samples) in pair.iter().zip(series.iter_mut()) {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(gp.select().map(|s| s.index).ok());
                }
                samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
            }
        }
    }
    TABLE_SIZES
        .iter()
        .zip(ns)
        .map(|(&table_len, [first, last])| SelectionSample {
            table_len,
            first_ns: median(first),
            last_ns: median(last),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_selects_the_last_row_both_ways() {
        let gp = scenario(8, Winner::Last);
        assert_eq!(gp.select().unwrap().index, 7);
        gp.invoke_raw(1, bytes::Bytes::new()).unwrap();
        assert_eq!(gp.last_protocol().as_deref(), Some("proto-207"));
        assert_eq!(scenario(8, Winner::First).select().unwrap().index, 0);
    }
}
