//! Selection is decided per request: every invocation lands on the row the
//! paper's rule names at that moment — the first row of the OR that is in
//! the pool, applicable and not held off by an open circuit breaker (or, when
//! every row is held off, the first row anyway) — under any interleaving of
//! invocations with table mutations (rebind, prefer, ban), breaker
//! transitions, registry swaps, and cooldown-elapsing clock advances.
//!
//! The main property drives exactly that interleaving and holds the row each
//! invocation reached, read from the protos' call counts, against a
//! reference model of the rule and of the breaker, written out below.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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

/// Echo proto that counts its invocations, applicable while its flag is up.
struct CountingEcho {
    id: ProtocolId,
    applicable: AtomicBool,
    calls: AtomicU32,
}

impl ProtoObject for CountingEcho {
    fn protocol_id(&self) -> ProtocolId {
        self.id
    }
    fn applicable(&self, _p: &ProtoPool, _c: &Location, _s: &Location, _e: &ProtoEntry) -> bool {
        self.applicable.load(Ordering::Relaxed)
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
        let p = Arc::new(CountingEcho {
            id,
            applicable: AtomicBool::new(true),
            calls: AtomicU32::new(0),
        });
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

/// Failures of the default health policy that open a breaker.
const THRESHOLD: u32 = 3;

/// The default policy's breaker, written out: Closed counts consecutive
/// failures, Open remembers when it opened, and one success closes it from
/// any state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    Closed(u32),
    Open(u64),
    HalfOpen,
}

impl Breaker {
    fn fail(&mut self, now: u64) {
        *self = match *self {
            Breaker::Closed(n) if n + 1 >= THRESHOLD => Breaker::Open(now),
            Breaker::Closed(n) => Breaker::Closed(n + 1),
            Breaker::HalfOpen => Breaker::Open(now),
            open @ Breaker::Open(_) => open,
        };
    }

    fn succeed(&mut self) {
        *self = Breaker::Closed(0);
    }

    /// An open breaker whose cooldown has run lets this request probe.
    fn allow(&mut self, now: u64) -> bool {
        match *self {
            Breaker::Open(since) if now - since < COOLDOWN_NS => false,
            Breaker::Open(_) => {
                *self = Breaker::HalfOpen;
                true
            }
            Breaker::Closed(_) | Breaker::HalfOpen => true,
        }
    }
}

/// What the rule should do: the GP's table as positions in [`IDS`], and the
/// current registry's breakers (one per id: every row has its own endpoint)
/// and clock.
struct Model {
    table: Vec<usize>,
    breakers: [Breaker; 3],
    now: u64,
}

impl Model {
    fn new() -> Self {
        Self { table: vec![0, 1, 2], breakers: [Breaker::Closed(0); 3], now: 0 }
    }

    /// The row an invocation lands on, as a position in [`IDS`]: the first
    /// row whose breaker allows it, else the first row; its success then
    /// feeds its breaker.
    fn invoke(&mut self) -> Option<usize> {
        let Model { table, breakers, now } = self;
        let chosen =
            table.iter().copied().find(|&i| breakers[i].allow(*now)).or(table.first().copied());
        if let Some(i) = chosen {
            breakers[i].succeed();
        }
        chosen
    }
}

/// The position in [`IDS`] of the one proto whose call count moved.
fn landed_on(protos: &[Arc<CountingEcho>], before: &[u32]) -> Option<usize> {
    let moved: Vec<usize> = (0..protos.len())
        .filter(|&i| protos[i].calls.load(Ordering::Relaxed) != before[i])
        .collect();
    assert!(moved.len() <= 1, "one invocation reached {moved:?}");
    moved.first().copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every invocation of a random mutation/invocation interleaving lands
    /// where the reference model of the rule says it must.
    #[test]
    fn every_invocation_lands_where_the_rule_says(
        ops in proptest::collection::vec(0u8..=8, 1..50),
        seed in any::<u64>(),
    ) {
        let (gp, protos, mut clock) = harness();
        let mut model = Model::new();
        let mut rng = TestRng::from_seed(seed);
        for &op in &ops {
            match op {
                // Invoke through the full retry loop (selection under it).
                0 => {
                    let before: Vec<u32> =
                        protos.iter().map(|p| p.calls.load(Ordering::Relaxed)).collect();
                    let outcome = gp.invoke_raw(1, Bytes::from_static(b"x"));
                    let expected = model.invoke();
                    prop_assert_eq!(outcome.is_ok(), expected.is_some());
                    prop_assert_eq!(landed_on(&protos, &before), expected);
                }
                // Rebind to the full table (also restores banned rows).
                1 => {
                    gp.rebind(or_with(full_table()));
                    model.table = vec![0, 1, 2];
                }
                // Rebind to a rotation of the table: order change, same rows.
                2 => {
                    let by = rng.usize_in(0, 3);
                    let mut t = full_table();
                    t.rotate_left(by);
                    gp.rebind(or_with(t));
                    model.table = vec![0, 1, 2];
                    model.table.rotate_left(by);
                }
                // Prefer a known id — or an absent one (a no-op).
                3 => {
                    let pick = rng.usize_in(0, 4);
                    let id = IDS.get(pick).copied().unwrap_or(ProtocolId(999));
                    gp.prefer(id);
                    if pick < IDS.len() {
                        let (mut first, rest): (Vec<usize>, Vec<usize>) =
                            model.table.iter().partition(|&&i| i == pick);
                        first.extend(rest);
                        model.table = first;
                    }
                }
                // Ban one id (rows come back at the next full rebind).
                4 => {
                    let pick = rng.usize_in(0, 3);
                    gp.ban(IDS[pick]);
                    model.table.retain(|&i| i != pick);
                }
                // Three transport failures: opens that row's breaker.
                5 => {
                    let pick = rng.usize_in(0, 3);
                    let health = gp.health_registry();
                    let key = health_key(&full_table()[pick]);
                    for _ in 0..THRESHOLD {
                        health.record_failure(&key);
                        model.breakers[pick].fail(model.now);
                    }
                }
                // Swap in a fresh registry on a fresh frozen clock.
                6 => {
                    let fresh = Arc::new(ManualClock::new());
                    gp.set_health_registry(Arc::new(HealthRegistry::with_clock(fresh.clone())));
                    clock = fresh;
                    model.breakers = [Breaker::Closed(0); 3];
                    model.now = 0;
                }
                // A success on some key: closes an open or probing breaker,
                // or is a no-op on a healthy one.
                7 => {
                    let pick = rng.usize_in(0, 3);
                    let key = health_key(&full_table()[pick]);
                    gp.health_registry().record_success(&key);
                    model.breakers[pick].succeed();
                }
                // Let cooldowns elapse: the next invocation may probe an open
                // breaker's row, a change made by time alone.
                _ => {
                    clock.advance(COOLDOWN_NS);
                    model.now += COOLDOWN_NS;
                }
            }
        }
    }
}

/// The paper decides "when a remote request is made": a row that stops being
/// applicable loses the very next request, with nothing about the GP changed.
#[test]
fn applicability_is_decided_per_request() {
    let (gp, protos, _clock) = harness();
    gp.invoke_raw(1, Bytes::new()).unwrap();
    assert_eq!(protos[0].calls.load(Ordering::Relaxed), 1);

    protos[0].applicable.store(false, Ordering::Relaxed);
    gp.invoke_raw(1, Bytes::new()).unwrap();
    assert_eq!(protos[0].calls.load(Ordering::Relaxed), 1, "an inapplicable row was used");
    assert_eq!(protos[1].calls.load(Ordering::Relaxed), 1);

    protos[0].applicable.store(true, Ordering::Relaxed);
    gp.invoke_raw(1, Bytes::new()).unwrap();
    assert_eq!(protos[0].calls.load(Ordering::Relaxed), 2, "the preferred row came back");
}

/// Registry swap mid-flight, end to end: a GP that has been routing to row 0
/// must route according to the *new* registry's breakers on the very next
/// invocation.
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
        "the swapped-in registry's open breaker was ignored"
    );
    assert_eq!(protos[1].calls.load(Ordering::Relaxed), 1);
}

/// Adaptivity (prefer, breaker failover) takes effect on the next invocation
/// of a GP under steady traffic.
#[test]
fn adaptivity_takes_effect_on_the_next_invocation() {
    let (gp, protos, _clock) = harness();
    for _ in 0..6 {
        gp.invoke_raw(1, Bytes::new()).unwrap();
    }
    assert_eq!(protos[0].calls.load(Ordering::Relaxed), 6);

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
        "open breaker must divert traffic under steady traffic"
    );
}
