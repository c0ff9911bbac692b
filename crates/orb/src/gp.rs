//! Global Pointers: the client side of the ORB.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use ohpc_netsim::Location;
use ohpc_resilience::{
    ErrorClass, HealthKey, HealthRegistry, RetryPolicy, Sleeper, ThreadSleeper,
};
use ohpc_telemetry::Registry;
use ohpc_xdr::XdrWriter;

use crate::error::OrbError;
use crate::ids::RequestId;
use crate::message::{ReplyStatus, RequestMessage};
use crate::objref::ObjectReference;
use crate::proto::ProtoPool;
use crate::selcache::{registry_ptr, CachedSelection, Lookup, SelectionCache};
use crate::selection::{health_key, select_with_health, Selection};

/// How many `Moved` forwards one invocation will chase before giving up.
const MAX_FORWARDS: u32 = 8;

/// Process-global request-id source. Ids must be unique across every GP in
/// the process, not merely per-GP: GPs bound to the same endpoint share one
/// multiplexed channel, and its mux routes replies by request id.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> RequestId {
    RequestId(NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

/// A global pointer: an OR plus the local machinery to act on it.
///
/// The GP re-decides protocol selection on *every* invocation attempt (the
/// paper's "the system selects an appropriate proto-object for each
/// individual remote request"), so changes to locations, the OR (via `Moved`
/// rebinds or [`rebind`](Self::rebind)), or the pool take effect on the very
/// next attempt. The decision is served from a per-GP cache
/// revalidated with three atomic loads (`or_epoch`, health registry
/// identity + generation) and re-walked only on a mismatch — the
/// adaptivity is preserved by construction, the re-walk cost is not paid on
/// the happy path (see `selcache` / DESIGN.md §15). The uncached walk stays
/// available as [`select`](Self::select), the oracle tests compare against.
///
/// # Fault awareness
///
/// Each invocation runs under a [`RetryPolicy`]: transport failures observed
/// before the frame left the process are retried with exponential backoff
/// until the attempt budget or deadline runs out, and every retry re-runs
/// selection with a fresh request id — so a retry is free to land on a
/// different OR-table row than the attempt that failed. Failures observed
/// *after* the frame was sent ([`OrbError::AmbiguousTransport`]) are retried
/// only when the request is idempotent ([`Self::invoke_idempotent`] or
/// [`RetryPolicy::assume_idempotent`]); a non-idempotent request is never
/// re-sent once it may have reached the server.
///
/// Outcomes feed a per-(terminal protocol, terminal endpoint)
/// [`HealthRegistry`]: enough consecutive transport failures open that
/// entry's circuit breaker, and selection then prefers the next applicable
/// row until the cooldown elapses and a probe succeeds. Share one registry
/// across the GPs of a process with [`Self::set_health_registry`] so they
/// pool their observations.
pub struct GlobalPointer {
    or: RwLock<ObjectReference>,
    /// Selection-input epoch: bumped on every mutation of this GP's inputs
    /// that the health generation doesn't already cover — OR-table changes
    /// (rebind, effective prefer/ban) *and* health-registry swaps. The
    /// per-GP selection cache revalidates against this counter (together
    /// with [`HealthRegistry::generation`]) instead of re-walking its
    /// inputs; the oracle proptest in `tests/selection_cache.rs` fails when
    /// a mutation path forgets it.
    or_epoch: AtomicU64,
    pool: Arc<ProtoPool>,
    local: Location,
    /// Description of the last selection, rendered once at cache fill and
    /// shared as `Arc<str>` — the hot path never re-formats it.
    last_protocol: Mutex<Option<Arc<str>>>,
    forwards_seen: AtomicU64,
    retry: Mutex<RetryPolicy>,
    health: Mutex<Arc<HealthRegistry>>,
    sleeper: Mutex<Arc<dyn Sleeper>>,
    cache: SelectionCache,
}

impl GlobalPointer {
    /// Binds `or` with the process's proto-pool and the client's location.
    pub fn new(or: ObjectReference, pool: Arc<ProtoPool>, local: Location) -> Self {
        Self {
            or: RwLock::new(or),
            or_epoch: AtomicU64::new(0),
            pool,
            local,
            last_protocol: Mutex::new(None),
            forwards_seen: AtomicU64::new(0),
            retry: Mutex::new(RetryPolicy::default()),
            health: Mutex::new(Arc::new(HealthRegistry::new())),
            sleeper: Mutex::new(Arc::new(ThreadSleeper)),
            cache: SelectionCache::default(),
        }
    }

    /// Replaces the retry policy for subsequent invocations.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.lock().clone()
    }

    /// The health registry selection consults (per-GP unless shared).
    pub fn health_registry(&self) -> Arc<HealthRegistry> {
        self.health.lock().clone()
    }

    /// Shares a health registry (typically one per process, or one driven by
    /// a netsim `VirtualClock` in tests).
    ///
    /// Swapping the registry is a selection-input mutation: a cached
    /// selection keyed on the *old* registry's generation would keep serving
    /// choices that never consult the new breakers (and a new registry's
    /// generation can numerically collide with the old one's). The epoch
    /// bump makes every cached selection strictly older than the swap.
    pub fn set_health_registry(&self, health: Arc<HealthRegistry>) {
        *self.health.lock() = health;
        self.or_epoch.fetch_add(1, Ordering::Release);
    }

    /// Replaces how backoff pauses are spent — tests inject a
    /// [`ohpc_resilience::FnSleeper`] that advances virtual time instead of
    /// blocking the thread.
    pub fn set_sleeper(&self, sleeper: Arc<dyn Sleeper>) {
        *self.sleeper.lock() = sleeper;
    }

    /// Snapshot of the current OR (it may change as the object migrates).
    pub fn object_reference(&self) -> ObjectReference {
        self.or.read().clone()
    }

    /// Replaces the OR (capability hand-off, explicit rebind).
    pub fn rebind(&self, or: ObjectReference) {
        ohpc_telemetry::counter!("orb_rebinds_total").inc();
        *self.or.write() = or;
        self.or_epoch.fetch_add(1, Ordering::Release);
    }

    /// Selection-input epoch: changes whenever this GP's OR table does.
    /// A cached selection is valid only while this (and the pool/health
    /// counterparts) is unchanged.
    pub fn or_epoch(&self) -> u64 {
        self.or_epoch.load(Ordering::Acquire)
    }

    /// Runs protocol selection without invoking, for inspection. Consults
    /// the health registry exactly like a real invocation would, but always
    /// performs the full table walk — this is the *uncached* reference the
    /// cache is validated against (tests assert
    /// `select_cached() ≡ select().index` under arbitrary mutation
    /// interleavings).
    pub fn select(&self) -> Result<Selection, OrbError> {
        let health = self.health.lock().clone();
        let or = self.or.read();
        select_with_health(&or, &self.pool, &self.local, Some(&health))
    }

    /// Selection exactly as the next invocation attempt would perform it:
    /// through the per-GP cache (revalidate-or-walk-and-refill). Returns the
    /// chosen OR-table row index. Used by the selection benchmarks and the
    /// cache-consistency tests; real invocations share the same path.
    pub fn select_cached(&self) -> Result<usize, OrbError> {
        let health = self.health.lock().clone();
        Ok(self.attempt_selection(&health)?.selection.index)
    }

    /// Cache hits served by this GP's selection cache (process-wide totals
    /// are on `orb_selection_cache_total{outcome}`).
    pub fn selection_cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Description of the protocol used by the most recent invocation
    /// (e.g. `glue[timeout+security]->tcp`), for experiment logs. The string
    /// is rendered once per selection-cache fill and shared — cloning the
    /// `Arc` is free.
    pub fn last_protocol(&self) -> Option<Arc<str>> {
        self.last_protocol.lock().clone()
    }

    /// How many `Moved` forwards this GP has chased over its lifetime.
    pub fn forwards_seen(&self) -> u64 {
        self.forwards_seen.load(Ordering::Relaxed)
    }

    /// User control over selection (the paper's fourth adaptivity aspect):
    /// reorders this GP's OR table so entries for `preferred` come first.
    /// Entries keep their relative order otherwise; unknown ids are a no-op.
    /// Selection still applies applicability — a preference cannot force an
    /// inapplicable protocol.
    pub fn prefer(&self, preferred: crate::ids::ProtocolId) {
        let mut or = self.or.write();
        let (mut first, rest): (Vec<_>, Vec<_>) =
            or.protocols.iter().cloned().partition(|e| e.id == preferred);
        if first.is_empty() {
            // Unknown id: the table is untouched, so the epoch must not
            // move — a gratuitous bump would invalidate the selection cache
            // for nothing.
            return;
        }
        first.extend(rest);
        if first == or.protocols {
            // Already preferred-first: reordering was a no-op.
            return;
        }
        or.protocols = first;
        drop(or);
        self.or_epoch.fetch_add(1, Ordering::Release);
    }

    /// Removes every entry for `banned` from this GP's OR table, returning
    /// how many were removed — per-reference protocol policy, complementing
    /// pool-level policy.
    pub fn ban(&self, banned: crate::ids::ProtocolId) -> usize {
        let mut or = self.or.write();
        let before = or.protocols.len();
        or.protocols.retain(|e| e.id != banned);
        let removed = before - or.protocols.len();
        drop(or);
        if removed > 0 {
            self.or_epoch.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Selection for one attempt: revalidate the per-GP cache with three
    /// atomic loads, serve the memo on a hit, otherwise run the full
    /// health-aware walk and (if the result is steady) refill.
    ///
    /// Key values are read *before* the walk and stamped onto the memo: a
    /// mutation landing between the reads and the walk leaves the memo
    /// stamped with pre-mutation epochs, so the next lookup conservatively
    /// misses. Reading keys after the walk would permit the reverse — a
    /// fresh stamp on a stale walk, served until the next unrelated bump.
    fn attempt_selection(
        &self,
        health: &Arc<HealthRegistry>,
    ) -> Result<Arc<CachedSelection>, OrbError> {
        let or_epoch = self.or_epoch.load(Ordering::Acquire);
        let hptr = registry_ptr(health);
        let hgen = health.generation();
        if let Lookup::Hit(cached) = self.cache.lookup(or_epoch, hptr, hgen) {
            // First in its span, nothing timed since it opened: it takes the
            // span's start stamp.
            ohpc_telemetry::trace_event_at_last_stamp("selection", &[("outcome", "cached".into())]);
            return Ok(cached);
        }
        let (selection, object) = {
            let or = self.or.read();
            (select_with_health(&or, &self.pool, &self.local, Some(health))?, or.object)
        };
        let described: Arc<str> = selection.describe().into();
        let key = health_key(&selection.entry);
        let steady = selection.steady;
        let cached = Arc::new(CachedSelection::new(
            selection, object, described, key, or_epoch, hptr, hgen,
        ));
        if steady {
            // Breaker-influenced choices are never memoized: an open
            // breaker's cooldown elapsing changes the outcome with time
            // alone, without any generation bump to invalidate on.
            self.cache.fill(cached.clone());
        }
        Ok(cached)
    }

    /// Invokes method slot `method` with pre-encoded `args`, returning the
    /// encoded result body.
    pub fn invoke(&self, method: u32, args: &XdrWriter) -> Result<Bytes, OrbError> {
        self.invoke_raw(method, Bytes::copy_from_slice(args.peek()))
    }

    /// Fire-and-forget invocation: the request is dispatched at the server
    /// but no reply is read. At-most-once semantics — outcomes (including
    /// `Moved` forwards and capability denials) are not observable; pair
    /// one-ways with an occasional two-way call to rebind after migrations.
    pub fn invoke_oneway(&self, method: u32, args: &XdrWriter) -> Result<(), OrbError> {
        // One-ways carry trace context to the server but produce no reply
        // half: the dispatch span records remotely, never back here.
        let ctx = ohpc_telemetry::current().unwrap_or_else(ohpc_telemetry::TraceContext::new_root);
        let _trace = ohpc_telemetry::install(ctx);
        let mut span = ohpc_telemetry::trace_span("gp_oneway");
        let health = self.health.lock().clone();
        let cached = self.attempt_selection(&health)?;
        span.attr("proto", &*cached.described);
        *self.last_protocol.lock() = Some(cached.described.clone());
        let req = RequestMessage {
            request_id: next_request_id(),
            object: cached.object,
            method,
            oneway: true,
            glue: None,
            body: Bytes::copy_from_slice(args.peek()),
            trace: ohpc_telemetry::current(),
        };
        let sent = cached.selection.proto.invoke_oneway(&self.pool, &cached.selection.entry, &req);
        observed(&health, &cached.key, sent)
    }

    /// Like [`invoke`](Self::invoke) but takes the body directly.
    pub fn invoke_raw(&self, method: u32, body: Bytes) -> Result<Bytes, OrbError> {
        self.invoke_raw_with(method, body, false)
    }

    /// [`invoke`](Self::invoke) for a request the caller promises is
    /// idempotent: ambiguous failures (sent-but-no-reply) may be retried,
    /// because executing the request twice is harmless.
    pub fn invoke_idempotent(&self, method: u32, args: &XdrWriter) -> Result<Bytes, OrbError> {
        self.invoke_raw_with(method, Bytes::copy_from_slice(args.peek()), true)
    }

    /// [`invoke_raw`](Self::invoke_raw) with the idempotence promise.
    pub fn invoke_raw_idempotent(&self, method: u32, body: Bytes) -> Result<Bytes, OrbError> {
        self.invoke_raw_with(method, body, true)
    }

    /// The retry driver: attempts under the policy's budget, backoff between
    /// attempts, deadline accounting on the health registry's clock.
    fn invoke_raw_with(
        &self,
        method: u32,
        body: Bytes,
        idempotent: bool,
    ) -> Result<Bytes, OrbError> {
        let policy = self.retry.lock().clone();
        let idempotent = idempotent || policy.idempotent;
        let health = self.health.lock().clone();
        let clock = health.clock();
        let deadline = policy.deadline_from(clock.now_ns());
        // Adopt the caller's trace or mint a fresh root: every retry,
        // breaker failover, and Moved forward below shares this trace id, so
        // one trace tells the whole story of the invocation.
        let ctx =
            ohpc_telemetry::current().unwrap_or_else(ohpc_telemetry::TraceContext::new_root);
        let _trace = ohpc_telemetry::install(ctx);
        // Jitter salt: the request counter at entry, so concurrent callers
        // and successive invocations desynchronize deterministically.
        let salt = NEXT_REQUEST_ID.load(Ordering::Relaxed);
        let mut failed_attempts: u32 = 0;
        loop {
            let err = match self.attempt_once(method, &body, &health, deadline, failed_attempts) {
                Ok(reply_body) => return Ok(reply_body),
                Err(e) => e,
            };
            failed_attempts += 1;
            let class = err.retry_class();
            let may_retry = match class {
                ErrorClass::Retryable => true,
                // The server may have executed the request; only an
                // idempotence promise makes a re-send safe.
                ErrorClass::Ambiguous => idempotent,
                ErrorClass::Permanent => false,
            };
            if !may_retry || failed_attempts >= policy.max_attempts {
                if may_retry && failed_attempts >= policy.max_attempts {
                    ohpc_telemetry::trace_event("retry_budget_exhausted", &[]);
                }
                return Err(err);
            }
            let backoff = policy.backoff_ns(failed_attempts - 1, salt);
            if let Some(d) = deadline {
                if clock.now_ns().saturating_add(backoff) > d {
                    ohpc_telemetry::trace_event("deadline_exceeded", &[]);
                    return Err(OrbError::DeadlineExceeded {
                        attempts: failed_attempts,
                        last: Box::new(err),
                    });
                }
            }
            // A retry is a failure path: its class-labelled counter goes by name.
            Registry::global()
                .counter("resilience_retries_total", &[("class", class.label())])
                .inc();
            ohpc_telemetry::trace_event("retry", &[("class", class.label().into())]);
            let sleeper = self.sleeper.lock().clone();
            sleeper.sleep_ns(backoff);
        }
    }

    /// One attempt: selection (health-aware), invocation, `Moved` chasing.
    /// Forward rebinds are part of a single attempt — an object migrating is
    /// not a fault and does not consume retry budget. Every transport
    /// outcome feeds the health registry under the selected entry's terminal
    /// (protocol, endpoint) key. The remaining deadline budget (if any) is
    /// recomputed per forward and handed down so transports can arm receive
    /// timeouts — a hung server then fails the attempt instead of outliving
    /// the policy's deadline.
    fn attempt_once(
        &self,
        method: u32,
        body: &Bytes,
        health: &Arc<HealthRegistry>,
        deadline: Option<u64>,
        attempt: u32,
    ) -> Result<Bytes, OrbError> {
        let clock = health.clock();
        for forward in 0..=MAX_FORWARDS {
            // One span per attempt×forward hop; the request inherits this
            // span's context, so server-side dispatch parents on it.
            let mut span = ohpc_telemetry::trace_span_with(
                "gp_attempt",
                &[
                    ("attempt", attempt.into()),
                    ("forward", forward.into()),
                    ("method", method.into()),
                ],
            );
            let cached = self.attempt_selection(health)?;
            let object = cached.object;
            span.attr("proto", &*cached.described);
            *self.last_protocol.lock() = Some(cached.described.clone());

            let req = RequestMessage {
                request_id: next_request_id(),
                object,
                method,
                oneway: false,
                glue: None,
                body: body.clone(),
                trace: ohpc_telemetry::current(),
            };

            let remaining_ns = deadline.map(|d| d.saturating_sub(clock.now_ns()));
            let exchanged = cached.selection.proto.invoke_with_deadline(
                &self.pool,
                &cached.selection.entry,
                &req,
                remaining_ns,
            );
            let reply = observed(health, &cached.key, exchanged)?;
            match reply.status {
                ReplyStatus::Ok => return Ok(reply.body),
                ReplyStatus::Moved(new_or) => {
                    self.forwards_seen.fetch_add(1, Ordering::Relaxed);
                    ohpc_telemetry::counter!("orb_forwards_total").inc();
                    let to = new_or.location.to_string();
                    ohpc_telemetry::trace_event("forward", &[("to", to.as_str().into())]);
                    self.rebind(*new_or);
                    continue;
                }
                status => {
                    match &status {
                        ReplyStatus::Overloaded(_) => {
                            // The server shed before executing; the retry
                            // loop above backs off and re-offers (possibly
                            // to another replica once selection consults
                            // breakers).
                            ohpc_telemetry::counter!("orb_overloaded_replies_total").inc();
                            ohpc_telemetry::trace_event("server_overloaded", &[]);
                        }
                        ReplyStatus::DeadlineExpired(_) => {
                            ohpc_telemetry::counter!("orb_deadline_expired_replies_total").inc();
                        }
                        _ => {}
                    }
                    return Err(status.into_orb_error(object));
                }
            }
        }
        Err(OrbError::TooManyForwards(MAX_FORWARDS))
    }
}

/// Feeds one wire outcome to the breaker under `key` and passes it on. Any
/// delivered reply proves the wire works, whatever the application-level
/// status says; only transport failures count against it.
fn observed<T>(
    health: &HealthRegistry,
    key: &HealthKey,
    outcome: Result<T, OrbError>,
) -> Result<T, OrbError> {
    match &outcome {
        Ok(_) => health.record_success(key),
        Err(e) if e.is_transport() => health.record_failure(key),
        Err(_) => {}
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, ProtocolId};
    use crate::message::ReplyMessage;
    use crate::objref::ProtoEntry;
    use crate::proto::ProtoObject;
    use std::sync::atomic::AtomicU32;

    /// Proto that answers from a scripted queue of replies.
    struct ScriptedProto {
        replies: Mutex<Vec<ReplyStatus>>,
        calls: AtomicU32,
    }

    impl ProtoObject for ScriptedProto {
        fn protocol_id(&self) -> ProtocolId {
            ProtocolId::TCP
        }
        fn applicable(
            &self,
            _p: &ProtoPool,
            _c: &Location,
            _s: &Location,
            _e: &ProtoEntry,
        ) -> bool {
            true
        }
        fn invoke(
            &self,
            _p: &ProtoPool,
            _e: &ProtoEntry,
            req: &RequestMessage,
        ) -> Result<ReplyMessage, OrbError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let status = self.replies.lock().remove(0);
            Ok(match status {
                ReplyStatus::Ok => ReplyMessage::ok(req.request_id, req.body.clone()),
                s => ReplyMessage::status(req.request_id, s),
            })
        }
    }

    fn or_at(machine: u32) -> ObjectReference {
        ObjectReference {
            object: ObjectId(1),
            type_name: "T".into(),
            location: Location::new(machine, 0),
            protocols: vec![ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1")],
        }
    }

    fn gp_with(replies: Vec<ReplyStatus>) -> (GlobalPointer, Arc<ScriptedProto>) {
        let proto = Arc::new(ScriptedProto { replies: Mutex::new(replies), calls: AtomicU32::new(0) });
        let pool = Arc::new(ProtoPool::new().with(proto.clone()));
        (GlobalPointer::new(or_at(0), pool, Location::new(5, 1)), proto)
    }

    #[test]
    fn ok_returns_body() {
        let (gp, proto) = gp_with(vec![ReplyStatus::Ok]);
        let out = gp.invoke_raw(1, Bytes::from_static(b"abc")).unwrap();
        assert_eq!(&out[..], b"abc");
        assert_eq!(proto.calls.load(Ordering::Relaxed), 1);
        assert_eq!(gp.last_protocol().as_deref(), Some("tcp"));
    }

    #[test]
    fn moved_rebinds_and_retries() {
        let (gp, proto) = gp_with(vec![
            ReplyStatus::Moved(Box::new(or_at(9))),
            ReplyStatus::Ok,
        ]);
        let out = gp.invoke_raw(1, Bytes::from_static(b"x")).unwrap();
        assert_eq!(&out[..], b"x");
        assert_eq!(proto.calls.load(Ordering::Relaxed), 2);
        assert_eq!(gp.forwards_seen(), 1);
        assert_eq!(gp.object_reference().location, Location::new(9, 0));
    }

    #[test]
    fn endless_moves_give_up() {
        let moves: Vec<ReplyStatus> =
            (0..20).map(|i| ReplyStatus::Moved(Box::new(or_at(i)))).collect();
        let (gp, _) = gp_with(moves);
        let err = gp.invoke_raw(1, Bytes::new()).unwrap_err();
        assert!(matches!(err, OrbError::TooManyForwards(_)));
    }

    #[test]
    fn error_statuses_map_to_errors() {
        let (gp, _) = gp_with(vec![
            ReplyStatus::Exception("kaboom".into()),
            ReplyStatus::NoSuchObject,
            ReplyStatus::NoSuchMethod(3),
            ReplyStatus::CapabilityDenied("over budget".into()),
            ReplyStatus::UnknownGlue(6),
        ]);
        assert_eq!(
            gp.invoke_raw(1, Bytes::new()).unwrap_err(),
            OrbError::RemoteException("kaboom".into())
        );
        assert_eq!(gp.invoke_raw(1, Bytes::new()).unwrap_err(), OrbError::NoSuchObject(ObjectId(1)));
        assert_eq!(gp.invoke_raw(1, Bytes::new()).unwrap_err(), OrbError::NoSuchMethod(3));
        assert!(matches!(gp.invoke_raw(1, Bytes::new()).unwrap_err(), OrbError::Capability(_)));
        assert_eq!(gp.invoke_raw(1, Bytes::new()).unwrap_err(), OrbError::UnknownGlue(6));
    }

    #[test]
    fn request_ids_increase() {
        struct IdRecorder(Mutex<Vec<u64>>);
        impl ProtoObject for IdRecorder {
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
                self.0.lock().push(req.request_id.0);
                Ok(ReplyMessage::ok(req.request_id, Bytes::new()))
            }
        }
        let rec = Arc::new(IdRecorder(Mutex::new(vec![])));
        let pool = Arc::new(ProtoPool::new().with(rec.clone()));
        let gp = GlobalPointer::new(or_at(0), pool, Location::new(5, 1));
        for _ in 0..3 {
            gp.invoke_raw(1, Bytes::new()).unwrap();
        }
        let ids = rec.0.lock().clone();
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prefer_reorders_and_ban_removes() {
        struct TwoProtos(ProtocolId);
        impl ProtoObject for TwoProtos {
            fn protocol_id(&self) -> ProtocolId {
                self.0
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
                Ok(ReplyMessage::ok(req.request_id, Bytes::new()))
            }
        }
        let or = ObjectReference {
            object: ObjectId(1),
            type_name: "T".into(),
            location: Location::new(0, 0),
            protocols: vec![
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
                ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "tcp://h:2"),
            ],
        };
        let pool = Arc::new(
            ProtoPool::new()
                .with(Arc::new(TwoProtos(ProtocolId::TCP)))
                .with(Arc::new(TwoProtos(ProtocolId::NEXUS_TCP))),
        );
        let gp = GlobalPointer::new(or, pool, Location::new(5, 1));

        assert_eq!(gp.select().unwrap().proto.protocol_id(), ProtocolId::TCP);
        gp.prefer(ProtocolId::NEXUS_TCP);
        assert_eq!(gp.select().unwrap().proto.protocol_id(), ProtocolId::NEXUS_TCP);
        // unknown preference is harmless
        gp.prefer(ProtocolId(999));
        assert_eq!(gp.select().unwrap().proto.protocol_id(), ProtocolId::NEXUS_TCP);

        assert_eq!(gp.ban(ProtocolId::NEXUS_TCP), 1);
        assert_eq!(gp.select().unwrap().proto.protocol_id(), ProtocolId::TCP);
        assert_eq!(gp.ban(ProtocolId::TCP), 1);
        assert!(gp.select().is_err(), "empty table selects nothing");
    }

    /// Proto that fails its first `fail_first` invocations with the produced
    /// error, then answers Ok.
    struct FailProto {
        id: ProtocolId,
        fail_first: u32,
        make_err: fn() -> OrbError,
        calls: AtomicU32,
    }

    impl FailProto {
        fn new(id: ProtocolId, fail_first: u32, make_err: fn() -> OrbError) -> Arc<Self> {
            Arc::new(Self { id, fail_first, make_err, calls: AtomicU32::new(0) })
        }
    }

    impl ProtoObject for FailProto {
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
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if n < self.fail_first {
                Err((self.make_err)())
            } else {
                Ok(ReplyMessage::ok(req.request_id, req.body.clone()))
            }
        }
    }

    fn quiet(gp: &GlobalPointer) {
        gp.set_sleeper(Arc::new(ohpc_resilience::NoopSleeper));
    }

    #[test]
    fn retryable_failures_are_retried_within_budget() {
        use ohpc_transport::TransportError;
        let proto = FailProto::new(ProtocolId::TCP, 2, || {
            OrbError::Transport(TransportError::Closed)
        });
        let pool = Arc::new(ProtoPool::new().with(proto.clone()));
        let gp = GlobalPointer::new(or_at(0), pool, Location::new(5, 1));
        quiet(&gp);
        let out = gp.invoke_raw(1, Bytes::from_static(b"r")).unwrap();
        assert_eq!(&out[..], b"r");
        assert_eq!(proto.calls.load(Ordering::Relaxed), 3, "two failures, then success");
    }

    #[test]
    fn budget_exhaustion_returns_the_last_error() {
        use ohpc_transport::TransportError;
        let proto = FailProto::new(ProtocolId::TCP, u32::MAX, || {
            OrbError::Transport(TransportError::Closed)
        });
        let pool = Arc::new(ProtoPool::new().with(proto.clone()));
        let gp = GlobalPointer::new(or_at(0), pool, Location::new(5, 1));
        quiet(&gp);
        let err = gp.invoke_raw(1, Bytes::new()).unwrap_err();
        assert!(matches!(err, OrbError::Transport(TransportError::Closed)));
        assert_eq!(
            proto.calls.load(Ordering::Relaxed),
            gp.retry_policy().max_attempts,
            "budget spent exactly"
        );
    }

    #[test]
    fn ambiguous_failures_retry_only_under_an_idempotence_promise() {
        use ohpc_transport::TransportError;
        let proto = FailProto::new(ProtocolId::TCP, u32::MAX, || {
            OrbError::AmbiguousTransport(TransportError::Closed)
        });
        let pool = Arc::new(ProtoPool::new().with(proto.clone()));
        let gp = GlobalPointer::new(or_at(0), pool, Location::new(5, 1));
        quiet(&gp);

        // Non-idempotent: the request may have executed; never re-send.
        let err = gp.invoke_raw(1, Bytes::new()).unwrap_err();
        assert!(matches!(err, OrbError::AmbiguousTransport(_)));
        assert_eq!(proto.calls.load(Ordering::Relaxed), 1, "no ambiguous re-send");

        // Idempotent: ambiguity is retryable up to the budget.
        proto.calls.store(0, Ordering::Relaxed);
        let err = gp.invoke_raw_idempotent(1, Bytes::new()).unwrap_err();
        assert!(matches!(err, OrbError::AmbiguousTransport(_)));
        assert_eq!(proto.calls.load(Ordering::Relaxed), gp.retry_policy().max_attempts);
    }

    #[test]
    fn permanent_transport_errors_are_not_retried() {
        use ohpc_transport::TransportError;
        let proto = FailProto::new(ProtocolId::TCP, u32::MAX, || {
            OrbError::Transport(TransportError::FrameTooLarge(9))
        });
        let pool = Arc::new(ProtoPool::new().with(proto.clone()));
        let gp = GlobalPointer::new(or_at(0), pool, Location::new(5, 1));
        quiet(&gp);
        gp.invoke_raw(1, Bytes::new()).unwrap_err();
        assert_eq!(proto.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn deadline_cuts_retries_short_on_the_virtual_clock() {
        use ohpc_resilience::{FnSleeper, HealthRegistry, RetryPolicy};
        use ohpc_telemetry::ManualClock;
        use ohpc_transport::TransportError;
        let proto = FailProto::new(ProtocolId::TCP, u32::MAX, || {
            OrbError::Transport(TransportError::Closed)
        });
        let pool = Arc::new(ProtoPool::new().with(proto.clone()));
        let gp = GlobalPointer::new(or_at(0), pool, Location::new(5, 1));
        let clock = Arc::new(ManualClock::new());
        gp.set_health_registry(Arc::new(HealthRegistry::with_clock(clock.clone())));
        gp.set_sleeper(Arc::new(FnSleeper::new({
            let clock = clock.clone();
            move |ns| clock.advance(ns)
        })));
        // Ten attempts allowed, but the deadline only fits the first backoff
        // (1 ms ± 20%): the second backoff (≈2 ms) would overrun it.
        gp.set_retry_policy(
            RetryPolicy::default().with_attempts(10).with_deadline_ns(1_500_000),
        );
        let err = gp.invoke_raw(1, Bytes::new()).unwrap_err();
        match err {
            OrbError::DeadlineExceeded { attempts, last } => {
                assert_eq!(attempts, 2);
                assert!(matches!(*last, OrbError::Transport(TransportError::Closed)));
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert_eq!(proto.calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn transport_failures_open_the_breaker_and_fail_over_down_the_table() {
        use ohpc_resilience::BreakerState;
        use ohpc_transport::TransportError;
        let bad = FailProto::new(ProtocolId::TCP, u32::MAX, || {
            OrbError::Transport(TransportError::ConnectionRefused("down".into()))
        });
        let good = FailProto::new(ProtocolId::NEXUS_TCP, 0, || unreachable!());
        let or = ObjectReference {
            object: ObjectId(1),
            type_name: "T".into(),
            location: Location::new(0, 0),
            protocols: vec![
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
                ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "tcp://h:2"),
            ],
        };
        let pool = Arc::new(ProtoPool::new().with(bad.clone()).with(good.clone()));
        let gp = GlobalPointer::new(or, pool, Location::new(5, 1));
        quiet(&gp);
        // Frozen clock: the open breaker's cooldown never elapses, so the
        // test cannot race a half-open probe.
        gp.set_health_registry(Arc::new(ohpc_resilience::HealthRegistry::with_clock(
            Arc::new(ohpc_telemetry::ManualClock::new()),
        )));

        // Default policy: threshold 3 failures, budget 4 attempts — the very
        // first invocation opens the preferred entry's breaker and its last
        // attempt fails over to the second table row.
        let out = gp.invoke_raw(1, Bytes::from_static(b"f")).unwrap();
        assert_eq!(&out[..], b"f");
        assert_eq!(bad.calls.load(Ordering::Relaxed), 3);
        assert_eq!(good.calls.load(Ordering::Relaxed), 1);

        let health = gp.health_registry();
        let key = crate::selection::health_key(&gp.object_reference().protocols[0]);
        assert_eq!(health.state(&key), BreakerState::Open);

        // While the breaker is open, traffic goes straight to the healthy
        // row: no further calls land on the broken proto.
        for _ in 0..5 {
            gp.invoke_raw(1, Bytes::new()).unwrap();
        }
        assert_eq!(bad.calls.load(Ordering::Relaxed), 3, "open breaker diverts traffic");
        assert_eq!(good.calls.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn noop_prefer_and_ban_leave_the_epoch_alone() {
        let (gp, _) = gp_with(vec![]);
        let epoch = gp.or_epoch();
        // Absent id: table untouched, no invalidation.
        gp.prefer(ProtocolId(999));
        assert_eq!(gp.or_epoch(), epoch, "prefer of an absent id must not bump");
        // Already preferred-first: reordering is a no-op.
        gp.prefer(ProtocolId::TCP);
        assert_eq!(gp.or_epoch(), epoch, "prefer that changes nothing must not bump");
        // Ban that removes zero rows: no invalidation.
        assert_eq!(gp.ban(ProtocolId(999)), 0);
        assert_eq!(gp.or_epoch(), epoch, "ban removing nothing must not bump");
        // A ban that does remove rows still bumps.
        assert_eq!(gp.ban(ProtocolId::TCP), 1);
        assert_eq!(gp.or_epoch(), epoch + 1);
    }

    #[test]
    fn registry_swap_bumps_the_epoch_and_invalidates_cached_selections() {
        use ohpc_resilience::BreakerState;
        let good_a = FailProto::new(ProtocolId::TCP, 0, || unreachable!());
        let good_b = FailProto::new(ProtocolId::NEXUS_TCP, 0, || unreachable!());
        let or = ObjectReference {
            object: ObjectId(1),
            type_name: "T".into(),
            location: Location::new(0, 0),
            protocols: vec![
                ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"),
                ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "tcp://h:2"),
            ],
        };
        let pool = Arc::new(ProtoPool::new().with(good_a.clone()).with(good_b.clone()));
        let gp = GlobalPointer::new(or, pool, Location::new(5, 1));
        quiet(&gp);

        // Warm the cache on row 0 and prove it serves hits.
        for _ in 0..3 {
            gp.invoke_raw(1, Bytes::new()).unwrap();
        }
        let epoch_before = gp.or_epoch();

        // Build a replacement registry whose breaker for row 0 is already
        // open. If the swap did not invalidate, the cached selection would
        // keep routing to row 0 without ever consulting these breakers.
        let fresh = Arc::new(ohpc_resilience::HealthRegistry::with_clock(Arc::new(
            ohpc_telemetry::ManualClock::new(),
        )));
        let key0 = crate::selection::health_key(&gp.object_reference().protocols[0]);
        for _ in 0..3 {
            fresh.record_failure(&key0);
        }
        assert_eq!(fresh.state(&key0), BreakerState::Open);
        gp.set_health_registry(fresh);
        assert_eq!(gp.or_epoch(), epoch_before + 1, "swap must bump the selection epoch");

        let a_before = good_a.calls.load(Ordering::Relaxed);
        gp.invoke_raw(1, Bytes::new()).unwrap();
        assert_eq!(
            good_a.calls.load(Ordering::Relaxed),
            a_before,
            "post-swap traffic must respect the new registry's open breaker"
        );
        assert_eq!(good_b.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn steady_selections_are_served_from_the_cache() {
        let (gp, proto) = gp_with((0..10).map(|_| ReplyStatus::Ok).collect());
        for _ in 0..10 {
            gp.invoke_raw(1, Bytes::new()).unwrap();
        }
        assert_eq!(proto.calls.load(Ordering::Relaxed), 10);
        // First attempt misses (fill), the rest hit.
        assert_eq!(gp.selection_cache_hits(), 9);
        // Rebind invalidates; the next attempt re-walks then hits again.
        gp.rebind(or_at(0));
        assert_eq!(gp.select_cached().unwrap(), 0);
        let hits = gp.selection_cache_hits();
        assert_eq!(gp.select_cached().unwrap(), 0);
        assert_eq!(gp.selection_cache_hits(), hits + 1);
    }

    #[test]
    fn no_protocol_in_pool_errors() {
        let pool = Arc::new(ProtoPool::new());
        let gp = GlobalPointer::new(or_at(0), pool, Location::new(5, 1));
        assert!(matches!(
            gp.invoke_raw(1, Bytes::new()).unwrap_err(),
            OrbError::NoApplicableProtocol { .. }
        ));
        assert!(gp.select().is_err());
    }
}
