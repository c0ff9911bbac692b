//! The per-GP selection cache must be invisible: with the cache on (the
//! default), every selection decision must be identical to what the full
//! health-aware OR-table walk would choose — under any interleaving of
//! invocations with table mutations (rebind, prefer, ban), breaker
//! transitions, registry swaps, and cooldown-elapsing clock advances.
//!
//! The main property drives exactly that interleaving and compares
//! `GlobalPointer::select_cached()` (the invocation path: revalidate or
//! walk-and-refill) against `GlobalPointer::select()` (the uncached
//! reference walk) after every operation. The reference walk runs *first*
//! at each step: its `allow()` call can legitimately transition an Open
//! breaker to HalfOpen once a cooldown elapses, and the cached side must
//! absorb that transition (generation bump → invalidated → re-walk) rather
//! than race it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ohpc_netsim::Location;
use ohpc_orb::objref::{ObjectReference, ProtoEntry};
use ohpc_orb::selection::health_key;
use ohpc_orb::{
    GlobalPointer, ObjectId, OrbError, ProtoObject, ProtoPool, ProtocolId, ReplyMessage,
    RequestMessage,
};
use ohpc_resilience::{BreakerState, HealthRegistry};
use ohpc_telemetry::ManualClock;
use proptest::prelude::*;
use proptest::rng::TestRng;

/// Always-applicable echo proto that counts its invocations.
struct CountingEcho {
    id: ProtocolId,
    calls: AtomicU32,
}

impl ProtoObject for CountingEcho {
    fn protocol_id(&self) -> ProtocolId {
        self.id
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
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(ReplyMessage::ok(req.request_id, req.body.clone()))
    }
}

const IDS: [ProtocolId; 3] = [ProtocolId(301), ProtocolId(302), ProtocolId(303)];

fn full_table() -> Vec<ProtoEntry> {
    IDS.iter()
        .map(|&id| ProtoEntry::endpoint(id, format!("tcp://h:{}", id.0)))
        .collect()
}

fn or_with(protocols: Vec<ProtoEntry>) -> ObjectReference {
    ObjectReference {
        object: ObjectId(1),
        type_name: "T".into(),
        location: Location::new(0, 0),
        protocols,
    }
}

fn harness() -> (GlobalPointer, Vec<Arc<CountingEcho>>, Arc<ManualClock>) {
    let mut pool = ProtoPool::new();
    let mut protos = Vec::new();
    for &id in &IDS {
        let p = Arc::new(CountingEcho { id, calls: AtomicU32::new(0) });
        pool.push(p.clone());
        protos.push(p);
    }
    let gp = GlobalPointer::new(or_with(full_table()), Arc::new(pool), Location::new(5, 1));
    gp.set_sleeper(Arc::new(ohpc_resilience::NoopSleeper));
    let clock = Arc::new(ManualClock::new());
    gp.set_health_registry(Arc::new(HealthRegistry::with_clock(clock.clone())));
    (gp, protos, clock)
}

/// Cooldown of the default health policy, for the clock-advance operation.
const COOLDOWN_NS: u64 = 200_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached selection ≡ uncached walk at every step of a random
    /// mutation/invocation interleaving.
    #[test]
    fn cached_selection_always_matches_the_uncached_walk(
        ops in proptest::collection::vec(0u8..=8, 1..50),
        seed in any::<u64>(),
    ) {
        let (gp, _protos, mut clock) = harness();
        let mut rng = TestRng::from_seed(seed);
        for &op in &ops {
            match op {
                // Invoke through the full retry loop (selection under it).
                0 => { let _ = gp.invoke_raw(1, Bytes::from_static(b"x")); }
                // Rebind to the full table (also restores banned rows).
                1 => gp.rebind(or_with(full_table())),
                // Rebind to a rotation of the table: order change, same rows.
                2 => {
                    let mut t = full_table();
                    t.rotate_left(rng.usize_in(0, 2));
                    gp.rebind(or_with(t));
                }
                // Prefer a known id — or an absent one (must be a no-op).
                3 => {
                    let pick = rng.usize_in(0, 3);
                    let id = if pick == 3 { ProtocolId(999) } else { IDS[pick] };
                    gp.prefer(id);
                }
                // Ban one id (rows come back at the next full rebind).
                4 => { gp.ban(IDS[rng.usize_in(0, 2)]); }
                // Three transport failures: opens that row's breaker.
                5 => {
                    let health = gp.health_registry();
                    let key = health_key(&full_table()[rng.usize_in(0, 2)]);
                    for _ in 0..3 {
                        health.record_failure(&key);
                    }
                }
                // Swap in a fresh registry on a fresh frozen clock.
                6 => {
                    let fresh = Arc::new(ManualClock::new());
                    gp.set_health_registry(Arc::new(HealthRegistry::with_clock(fresh.clone())));
                    clock = fresh;
                }
                // A success on some key: closes a probing breaker, or is a
                // selection-irrelevant no-op on a healthy one.
                7 => {
                    let key = health_key(&full_table()[rng.usize_in(0, 2)]);
                    gp.health_registry().record_success(&key);
                }
                // Let cooldowns elapse: the next walk may flip Open →
                // HalfOpen, changing selection with *time*, not an epoch.
                _ => clock.advance(COOLDOWN_NS),
            }
            // Reference walk first (it may absorb an Open→HalfOpen
            // transition), then the cached path must agree exactly.
            let reference = gp.select().ok().map(|s| s.index);
            let cached = gp.select_cached().ok();
            prop_assert_eq!(cached, reference);
        }
    }
}

/// Registry swap mid-flight, end to end: a GP with a warm cache must route
/// according to the *new* registry's breakers on the very next invocation.
#[test]
fn registry_swap_redirects_the_next_invocation() {
    let (gp, protos, _clock) = harness();
    for _ in 0..4 {
        gp.invoke_raw(1, Bytes::new()).unwrap();
    }
    assert_eq!(protos[0].calls.load(Ordering::Relaxed), 4);

    // New registry, row 0 already tripped.
    let fresh = Arc::new(HealthRegistry::with_clock(Arc::new(ManualClock::new())));
    let key0 = health_key(&full_table()[0]);
    for _ in 0..3 {
        fresh.record_failure(&key0);
    }
    assert_eq!(fresh.state(&key0), BreakerState::Open);
    gp.set_health_registry(fresh);

    gp.invoke_raw(1, Bytes::new()).unwrap();
    assert_eq!(
        protos[0].calls.load(Ordering::Relaxed),
        4,
        "stale cached selection ignored the swapped-in registry"
    );
    assert_eq!(protos[1].calls.load(Ordering::Relaxed), 1);
}

/// The cache actually serves hits — while adaptivity
/// (prefer, breaker failover) still takes effect on the next invocation.
#[test]
fn cache_is_on_by_default_and_adaptivity_still_wins() {
    let (gp, protos, _clock) = harness();
    for _ in 0..6 {
        gp.invoke_raw(1, Bytes::new()).unwrap();
    }
    assert!(gp.selection_cache_hits() >= 5, "cache idle despite steady traffic");

    // prefer() takes effect on the very next invocation.
    gp.prefer(IDS[2]);
    gp.invoke_raw(1, Bytes::new()).unwrap();
    assert_eq!(protos[2].calls.load(Ordering::Relaxed), 1);
    assert_eq!(gp.last_protocol().as_deref(), Some("proto-303"), "preferred row's label");

    // An opened breaker redirects the next invocation too.
    let health = gp.health_registry();
    let key2 = health_key(&full_table()[2]);
    for _ in 0..3 {
        health.record_failure(&key2);
    }
    gp.invoke_raw(1, Bytes::new()).unwrap();
    assert_eq!(
        protos[2].calls.load(Ordering::Relaxed),
        1,
        "open breaker must divert traffic despite the warm cache"
    );
}
