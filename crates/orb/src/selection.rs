//! Automatic run-time protocol selection.
//!
//! The paper's rule, verbatim: "When a remote request is made, the protocols
//! in the GP's OR are compared with those in the proto-pool and the first
//! match is used to satisfy the request." A match requires (a) the protocol
//! id to be present in the pool and (b) the proto-object to declare itself
//! applicable for the (client location, server location, entry) triple.
//!
//! The rule runs for every request. What does not change between requests
//! is worked out once per OR, when a GP binds it: a `Table` holds each row
//! with its pool proto-object, its label and description, its breaker key
//! and its outcome counters. A walk over it formats nothing, looks nothing
//! up by name and reads no clock.

use std::sync::{Arc, OnceLock};

use ohpc_netsim::Location;
use ohpc_resilience::{HealthKey, HealthRegistry};
use ohpc_telemetry::{Counter, Registry};

use crate::error::OrbError;
use crate::objref::{ObjectReference, ProtoEntry};
use crate::proto::{ProtoObject, ProtoPool};

/// Outcome of selection: the proto-object to use and the OR entry it serves.
pub struct Selection {
    /// The chosen proto-object from the pool.
    pub proto: Arc<dyn ProtoObject>,
    /// The OR table row it will execute.
    pub entry: ProtoEntry,
    /// Index of the row in the OR table (for experiment logs).
    pub index: usize,
}

impl Selection {
    /// Human-readable description, e.g. `glue[timeout+security]->tcp`.
    pub fn describe(&self) -> String {
        self.proto.describe(&self.entry)
    }
}

impl std::fmt::Debug for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Selection")
            .field("protocol", &self.describe())
            .field("index", &self.index)
            .finish()
    }
}

/// Selects the protocol for one request, or reports that nothing matched.
///
/// Every entry considered leaves a telemetry trace: the winner increments
/// `orb_selection_total{protocol,outcome="selected"}`, each skipped entry
/// increments `orb_selection_rejected_total{protocol,reason}` with the reason
/// the paper's rule rejected it (`not-in-pool` vs. `inapplicable`), and an
/// empty result increments `orb_selection_failed_total`.
pub fn select(
    or: &ObjectReference,
    pool: &ProtoPool,
    client: &Location,
) -> Result<Selection, OrbError> {
    select_with_health(or, pool, client, None)
}

/// The health-aware key an entry's circuit breaker lives under: the terminal
/// protocol and endpoint, so a glue entry and a plain entry over the same
/// wire share one breaker.
pub fn health_key(entry: &ProtoEntry) -> HealthKey {
    HealthKey::new(entry.terminal_protocol().to_string(), entry.terminal_endpoint())
}

/// [`select`], additionally consulting a [`HealthRegistry`]: an applicable
/// entry whose circuit breaker is open is skipped (reason `breaker-open`),
/// letting the next applicable OR-table row win — the paper's
/// failover-as-applicability-predicate, with health as one more predicate.
///
/// Two guarantees keep degraded state from becoming an outage:
///
/// - a selection that lands past a breaker-skipped entry increments
///   `resilience_failover_total{protocol}` so operators can see traffic
///   leaving the preferred row;
/// - if *every* applicable entry is breaker-denied, the first of them is
///   selected anyway (`resilience_breaker_fallback_total`) — a breaker may
///   only redirect traffic, never refuse it outright.
///
/// It resolves `or` against `pool` and walks the result, the same walk a
/// bound [`GlobalPointer`](crate::GlobalPointer) makes for every request.
pub fn select_with_health(
    or: &ObjectReference,
    pool: &ProtoPool,
    client: &Location,
    health: Option<&HealthRegistry>,
) -> Result<Selection, OrbError> {
    let table = Table::resolve(or.clone(), pool);
    table.walk(pool, client, health).map(|pick| pick.selection())
}

/// An OR with every row resolved against a pool. It is built whole and never
/// changed: a GP that rebinds, reorders, bans or swaps its health registry
/// resolves a new one, so no request walks a stale row.
pub(crate) struct Table {
    or: ObjectReference,
    /// One per `or.protocols` entry, in the same order.
    rows: Vec<Row>,
}

/// One OR row, resolved.
pub(crate) struct Row {
    /// The pool's proto-object for the row, `None` when the pool lacks it.
    proto: Option<Arc<dyn ProtoObject>>,
    /// The row's protocol id, rendered: the `protocol` label of its outcomes.
    label: String,
    /// What the row does, e.g. `glue[timeout]->tcp`.
    pub described: Arc<str>,
    /// The breaker the row answers to.
    pub key: HealthKey,
    counters: RowCounters,
}

/// A row's outcome counters, each resolved by name the first time it ticks.
#[derive(Default)]
struct RowCounters {
    selected: OnceLock<Arc<Counter>>,
    not_in_pool: OnceLock<Arc<Counter>>,
    inapplicable: OnceLock<Arc<Counter>>,
    breaker_open: OnceLock<Arc<Counter>>,
    failover: OnceLock<Arc<Counter>>,
    fallback_selected: OnceLock<Arc<Counter>>,
    fallback: OnceLock<Arc<Counter>>,
}

/// The row a walk chose.
pub(crate) struct Pick<'t> {
    pub index: usize,
    pub entry: &'t ProtoEntry,
    pub proto: &'t Arc<dyn ProtoObject>,
    pub row: &'t Row,
}

impl Pick<'_> {
    pub(crate) fn selection(&self) -> Selection {
        Selection { proto: self.proto.clone(), entry: self.entry.clone(), index: self.index }
    }
}

impl Table {
    /// Resolves every row of `or` against `pool`.
    pub(crate) fn resolve(or: ObjectReference, pool: &ProtoPool) -> Self {
        let rows = or
            .protocols
            .iter()
            .map(|entry| {
                let proto = pool.find(entry.id);
                let label = entry.id.to_string();
                let described = match &proto {
                    Some(p) => p.describe(entry).into(),
                    None => label.as_str().into(),
                };
                let key = health_key(entry);
                Row { proto, label, described, key, counters: RowCounters::default() }
            })
            .collect();
        Self { or, rows }
    }

    /// The OR this table resolves.
    pub(crate) fn or(&self) -> &ObjectReference {
        &self.or
    }

    /// The paper's rule over the resolved rows, with `health`'s breakers as
    /// one more predicate ([`select_with_health`] has the guarantees). Every
    /// outcome ticks its row's counter and leaves an event in the current
    /// span at its last stamp.
    pub(crate) fn walk(
        &self,
        pool: &ProtoPool,
        client: &Location,
        health: Option<&HealthRegistry>,
    ) -> Result<Pick<'_>, OrbError> {
        let mut denied: Option<Pick<'_>> = None;
        for (index, (row, entry)) in self.rows.iter().zip(&self.or.protocols).enumerate() {
            let Some(proto) = &row.proto else {
                row.reject(&row.counters.not_in_pool, "not-in-pool");
                continue;
            };
            if !proto.applicable(pool, client, &self.or.location, entry) {
                row.reject(&row.counters.inapplicable, "inapplicable");
                continue;
            }
            if health.is_some_and(|h| !h.allow(&row.key)) {
                row.reject(&row.counters.breaker_open, "breaker-open");
                denied.get_or_insert(Pick { index, entry, proto, row });
                continue;
            }
            let outcome = if denied.is_some() {
                row.tick(&row.counters.failover, "resilience_failover_total", None);
                "failover"
            } else {
                "selected"
            };
            row.tick(&row.counters.selected, "orb_selection_total", Some(("outcome", "selected")));
            row.chosen(index, outcome);
            return Ok(Pick { index, entry, proto, row });
        }
        if let Some(pick) = denied {
            // Every applicable row is breaker-denied. Refusing to select would
            // turn a degraded table into a total outage, so take the preferred
            // denied row and let it probe the endpoint.
            let row = pick.row;
            let outcome = Some(("outcome", "breaker-fallback"));
            row.tick(&row.counters.fallback_selected, "orb_selection_total", outcome);
            row.tick(&row.counters.fallback, "resilience_breaker_fallback_total", None);
            row.chosen(pick.index, "breaker-fallback");
            return Ok(pick);
        }
        ohpc_telemetry::counter!("orb_selection_failed_total").inc();
        ohpc_telemetry::trace_event_at_last_stamp("selection_failed", &[]);
        Err(OrbError::NoApplicableProtocol { offered: self.or.offered() })
    }
}

impl Row {
    /// Ticks `name{protocol=<label>, extra}`, held in `cell` once resolved.
    fn tick(&self, cell: &OnceLock<Arc<Counter>>, name: &str, extra: Option<(&str, &str)>) {
        cell.get_or_init(|| {
            let protocol = ("protocol", self.label.as_str());
            match extra {
                Some(extra) => Registry::global().counter(name, &[protocol, extra]),
                None => Registry::global().counter(name, &[protocol]),
            }
        })
        .inc();
    }

    fn reject(&self, cell: &OnceLock<Arc<Counter>>, reason: &'static str) {
        self.tick(cell, "orb_selection_rejected_total", Some(("reason", reason)));
        ohpc_telemetry::trace_event_at_last_stamp(
            "selection_rejected",
            &[("protocol", self.label.as_str().into()), ("reason", reason.into())],
        );
    }

    fn chosen(&self, index: usize, outcome: &'static str) {
        ohpc_telemetry::trace_event_at_last_stamp(
            "selection",
            &[
                ("protocol", self.label.as_str().into()),
                ("index", index.into()),
                ("outcome", outcome.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, ProtocolId};
    use crate::message::{ReplyMessage, RequestMessage};
    use crate::proto::ApplicabilityRule;
    use bytes::Bytes;

    struct RuleProto {
        id: ProtocolId,
        rule: ApplicabilityRule,
    }

    impl ProtoObject for RuleProto {
        fn protocol_id(&self) -> ProtocolId {
            self.id
        }
        fn applicable(
            &self,
            _pool: &ProtoPool,
            c: &Location,
            s: &Location,
            _e: &ProtoEntry,
        ) -> bool {
            self.rule.allows(c, s)
        }
        fn invoke(
            &self,
            _pool: &ProtoPool,
            _e: &ProtoEntry,
            req: &RequestMessage,
        ) -> Result<ReplyMessage, OrbError> {
            Ok(ReplyMessage::ok(req.request_id, Bytes::new()))
        }
    }

    fn proto(id: ProtocolId, rule: ApplicabilityRule) -> Arc<dyn ProtoObject> {
        Arc::new(RuleProto { id, rule })
    }

    fn or_with(protocols: Vec<ProtoEntry>, server: Location) -> ObjectReference {
        ObjectReference {
            object: ObjectId(1),
            type_name: "T".into(),
            location: server,
            protocols,
        }
    }

    #[test]
    fn first_applicable_entry_wins() {
        // OR prefers SHM, then TCP. Remote client: SHM inapplicable → TCP.
        let or = or_with(
            vec![
                ProtoEntry::endpoint(ProtocolId::SHM, "mem://1"),
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
            ],
            Location::new(0, 0),
        );
        let pool = ProtoPool::new()
            .with(proto(ProtocolId::SHM, ApplicabilityRule::SameMachineOnly))
            .with(proto(ProtocolId::TCP, ApplicabilityRule::Always));

        let remote_client = Location::new(5, 2);
        let sel = select(&or, &pool, &remote_client).unwrap();
        assert_eq!(sel.proto.protocol_id(), ProtocolId::TCP);
        assert_eq!(sel.index, 1);

        // Local client: SHM applicable → preferred entry wins.
        let local_client = Location::new(0, 0);
        let sel = select(&or, &pool, &local_client).unwrap();
        assert_eq!(sel.proto.protocol_id(), ProtocolId::SHM);
        assert_eq!(sel.index, 0);
    }

    #[test]
    fn missing_pool_entry_is_skipped() {
        let or = or_with(
            vec![
                ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "tcp://h:2"),
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
            ],
            Location::new(0, 0),
        );
        // Pool lacks NEXUS_TCP entirely — local policy disabled it.
        let pool = ProtoPool::new().with(proto(ProtocolId::TCP, ApplicabilityRule::Always));
        let sel = select(&or, &pool, &Location::new(1, 0)).unwrap();
        assert_eq!(sel.proto.protocol_id(), ProtocolId::TCP);
    }

    #[test]
    fn nothing_applicable_reports_offered_list() {
        let or = or_with(
            vec![ProtoEntry::endpoint(ProtocolId::SHM, "mem://1")],
            Location::new(0, 0),
        );
        let pool = ProtoPool::new()
            .with(proto(ProtocolId::SHM, ApplicabilityRule::SameMachineOnly));
        let err = select(&or, &pool, &Location::new(9, 9)).unwrap_err();
        assert_eq!(err, OrbError::NoApplicableProtocol { offered: vec![ProtocolId::SHM] });
    }

    #[test]
    fn empty_or_table_never_selects() {
        let or = or_with(vec![], Location::new(0, 0));
        let pool = ProtoPool::new().with(proto(ProtocolId::TCP, ApplicabilityRule::Always));
        assert!(select(&or, &pool, &Location::new(0, 0)).is_err());
    }

    #[test]
    fn open_breaker_fails_over_to_next_entry() {
        use ohpc_resilience::HealthRegistry;
        use ohpc_telemetry::ManualClock;
        let or = or_with(
            vec![
                ProtoEntry::endpoint(ProtocolId::SHM, "mem://1"),
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
            ],
            Location::new(0, 0),
        );
        let pool = ProtoPool::new()
            .with(proto(ProtocolId::SHM, ApplicabilityRule::Always))
            .with(proto(ProtocolId::TCP, ApplicabilityRule::Always));
        let health = HealthRegistry::with_clock(Arc::new(ManualClock::new()));
        let k = health_key(&or.protocols[0]);
        for _ in 0..3 {
            health.record_failure(&k);
        }
        let sel =
            select_with_health(&or, &pool, &Location::new(0, 0), Some(&health)).unwrap();
        assert_eq!(sel.index, 1, "breaker-open entry skipped");
        assert_eq!(sel.proto.protocol_id(), ProtocolId::TCP);

        // Without the registry the preferred entry still wins.
        let sel = select_with_health(&or, &pool, &Location::new(0, 0), None).unwrap();
        assert_eq!(sel.index, 0);
    }

    #[test]
    fn all_breakers_open_still_selects_preferred_entry() {
        use ohpc_resilience::HealthRegistry;
        use ohpc_telemetry::ManualClock;
        let or = or_with(
            vec![
                ProtoEntry::endpoint(ProtocolId::SHM, "mem://1"),
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
            ],
            Location::new(0, 0),
        );
        let pool = ProtoPool::new()
            .with(proto(ProtocolId::SHM, ApplicabilityRule::Always))
            .with(proto(ProtocolId::TCP, ApplicabilityRule::Always));
        let health = HealthRegistry::with_clock(Arc::new(ManualClock::new()));
        for entry in &or.protocols {
            let k = health_key(entry);
            for _ in 0..3 {
                health.record_failure(&k);
            }
        }
        // A breaker may redirect traffic but never refuse it outright: with
        // every row denied, the preferred row is selected as the probe.
        let sel =
            select_with_health(&or, &pool, &Location::new(0, 0), Some(&health)).unwrap();
        assert_eq!(sel.index, 0);
    }

    #[test]
    fn glue_and_plain_entry_share_a_health_key() {
        let inner = ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1");
        let glued = ProtoEntry::glue(7, vec![], inner.clone());
        assert_eq!(health_key(&inner), health_key(&glued));
    }

    #[test]
    fn or_preference_order_dominates_pool_order() {
        // Pool lists TCP first, but the OR prefers NEXUS_TCP: OR wins.
        let or = or_with(
            vec![
                ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "tcp://h:2"),
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
            ],
            Location::new(0, 0),
        );
        let pool = ProtoPool::new()
            .with(proto(ProtocolId::TCP, ApplicabilityRule::Always))
            .with(proto(ProtocolId::NEXUS_TCP, ApplicabilityRule::Always));
        let sel = select(&or, &pool, &Location::new(1, 1)).unwrap();
        assert_eq!(sel.proto.protocol_id(), ProtocolId::NEXUS_TCP);
    }
}
