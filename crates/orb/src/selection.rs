//! Automatic run-time protocol selection.
//!
//! The paper's rule, verbatim: "When a remote request is made, the protocols
//! in the GP's OR are compared with those in the proto-pool and the first
//! match is used to satisfy the request." A match requires (a) the protocol
//! id to be present in the pool and (b) the proto-object to declare itself
//! applicable for the (client location, server location, entry) triple.

use std::sync::Arc;

use ohpc_netsim::Location;
use ohpc_resilience::{HealthKey, HealthRegistry};
use ohpc_telemetry::Registry;

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
    /// True when no circuit breaker influenced this choice: nothing was
    /// skipped as `breaker-open` and this is not the all-denied fallback.
    ///
    /// Only steady selections are safe to memoize in the per-GP selection
    /// cache: a breaker-influenced choice can change with the mere passage
    /// of time (an open breaker's cooldown elapsing re-admits the preferred
    /// row *without* bumping [`HealthRegistry::generation`] until the next
    /// walk observes it), so the cache must keep re-walking while any
    /// breaker is steering traffic.
    pub steady: bool,
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
pub fn select_with_health(
    or: &ObjectReference,
    pool: &ProtoPool,
    client: &Location,
    health: Option<&HealthRegistry>,
) -> Result<Selection, OrbError> {
    // The walk runs on a selection-cache miss (first call, rebind, breaker
    // transition), never per request, and labels by protocol: by name.
    let registry = Registry::global();
    let mut breaker_skips = 0u32;
    let mut fallback: Option<Selection> = None;
    for (index, entry) in or.protocols.iter().enumerate() {
        let proto_name = entry.id.to_string();
        let Some(proto) = pool.find(entry.id) else {
            registry
                .counter(
                    "orb_selection_rejected_total",
                    &[("protocol", &proto_name), ("reason", "not-in-pool")],
                )
                .inc();
            ohpc_telemetry::trace_event(
                "selection_rejected",
                &[("protocol", proto_name.as_str().into()), ("reason", "not-in-pool".into())],
            );
            continue;
        };
        if !proto.applicable(pool, client, &or.location, entry) {
            registry
                .counter(
                    "orb_selection_rejected_total",
                    &[("protocol", &proto_name), ("reason", "inapplicable")],
                )
                .inc();
            ohpc_telemetry::trace_event(
                "selection_rejected",
                &[("protocol", proto_name.as_str().into()), ("reason", "inapplicable".into())],
            );
            continue;
        }
        if let Some(h) = health {
            if !h.allow(&health_key(entry)) {
                registry
                    .counter(
                        "orb_selection_rejected_total",
                        &[("protocol", &proto_name), ("reason", "breaker-open")],
                    )
                    .inc();
                ohpc_telemetry::trace_event(
                    "selection_rejected",
                    &[("protocol", proto_name.as_str().into()), ("reason", "breaker-open".into())],
                );
                breaker_skips += 1;
                if fallback.is_none() {
                    fallback =
                        Some(Selection { proto, entry: entry.clone(), index, steady: false });
                }
                continue;
            }
        }
        registry
            .counter(
                "orb_selection_total",
                &[("protocol", &proto_name), ("outcome", "selected")],
            )
            .inc();
        if breaker_skips > 0 {
            registry.counter("resilience_failover_total", &[("protocol", &proto_name)]).inc();
        }
        ohpc_telemetry::trace_event(
            "selection",
            &[
                ("protocol", proto_name.as_str().into()),
                ("index", index.into()),
                ("outcome", if breaker_skips > 0 { "failover" } else { "selected" }.into()),
            ],
        );
        return Ok(Selection { proto, entry: entry.clone(), index, steady: breaker_skips == 0 });
    }
    if let Some(sel) = fallback {
        // Every applicable row is breaker-denied. Refusing to select would
        // turn a degraded table into a total outage, so take the preferred
        // denied row and let it probe the endpoint.
        let proto_name = sel.entry.id.to_string();
        registry
            .counter(
                "orb_selection_total",
                &[("protocol", &proto_name), ("outcome", "breaker-fallback")],
            )
            .inc();
        registry.counter("resilience_breaker_fallback_total", &[("protocol", &proto_name)]).inc();
        ohpc_telemetry::trace_event(
            "selection",
            &[
                ("protocol", proto_name.as_str().into()),
                ("index", sel.index.into()),
                ("outcome", "breaker-fallback".into()),
            ],
        );
        return Ok(sel);
    }
    ohpc_telemetry::counter!("orb_selection_failed_total").inc();
    ohpc_telemetry::trace_event("selection_failed", &[]);
    Err(OrbError::NoApplicableProtocol { offered: or.offered() })
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
