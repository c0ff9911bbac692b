//! Global Pointers: the client side of the ORB.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use ohpc_netsim::Location;
use ohpc_resilience::{
    ErrorClass, HealthKey, HealthRegistry, RetryPolicy, Sleeper, ThreadSleeper,
};
use ohpc_telemetry::{Clock, Registry};
use ohpc_xdr::XdrWriter;

use crate::error::OrbError;
use crate::ids::RequestId;
use crate::message::{ReplyStatus, RequestMessage};
use crate::objref::ObjectReference;
use crate::proto::ProtoPool;
use crate::selection::{Selection, Table};

/// How many `Moved` forwards one invocation will chase before giving up.
const MAX_FORWARDS: u32 = 8;

/// Process-global request-id source. Ids must be unique across every GP in
/// the process, not merely per-GP: GPs bound to the same endpoint share one
/// multiplexed channel, and its mux routes replies by request id.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> RequestId {
    RequestId(NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

/// A request body holding a copy of `args`, a writer its caller keeps: made
/// in the calling thread's spare buffer ([`XdrWriter::reused`]), which the
/// caller hands back with [`XdrWriter::recycle`] once the body is sent.
fn spare_copy(args: &XdrWriter) -> Bytes {
    let mut body = XdrWriter::reused();
    body.put_fixed_opaque(args.peek());
    body.finish()
}

/// A global pointer: an OR plus the local machinery to act on it.
///
/// The GP decides protocol selection on *every* invocation attempt (the
/// paper's "the system selects an appropriate proto-object for each
/// individual remote request"): each attempt walks the OR's rows in order
/// and takes the first that is in the pool, applicable and not held off by
/// an open breaker. So a change of location, applicability or breaker state
/// takes effect on the very next attempt. What a walk needs of each row is
/// resolved once, when the GP binds an OR and again whenever
/// [`rebind`](Self::rebind), [`prefer`](Self::prefer), [`ban`](Self::ban) or
/// [`set_health_registry`](Self::set_health_registry) replaces the binding
/// whole; [`select`](Self::select) runs the same walk without invoking.
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
    bound: RwLock<Arc<Binding>>,
    pool: Arc<ProtoPool>,
    local: Location,
    /// Description of the last selection, rendered once at bind and shared
    /// as `Arc<str>` — the hot path never re-formats it.
    last_protocol: Mutex<Option<Arc<str>>>,
    forwards_seen: AtomicU64,
    retry: Mutex<RetryPolicy>,
    sleeper: Mutex<Arc<dyn Sleeper>>,
}

/// What a GP is bound to: its OR resolved against the pool, and the health
/// registry the walk consults. Replaced whole, never edited.
struct Binding {
    table: Table,
    health: Arc<HealthRegistry>,
}

impl Binding {
    fn new(or: ObjectReference, pool: &ProtoPool, health: Arc<HealthRegistry>) -> Arc<Self> {
        Arc::new(Self { table: Table::resolve(or, pool), health })
    }
}

impl GlobalPointer {
    /// Binds `or` with the process's proto-pool and the client's location.
    pub fn new(or: ObjectReference, pool: Arc<ProtoPool>, local: Location) -> Self {
        Self {
            bound: RwLock::new(Binding::new(or, &pool, Arc::new(HealthRegistry::new()))),
            pool,
            local,
            last_protocol: Mutex::new(None),
            forwards_seen: AtomicU64::new(0),
            retry: Mutex::new(RetryPolicy::default()),
            sleeper: Mutex::new(Arc::new(ThreadSleeper)),
        }
    }

    fn binding(&self) -> Arc<Binding> {
        self.bound.read().clone()
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
        self.bound.read().health.clone()
    }

    /// Shares a health registry (typically one per process, or one driven by
    /// a netsim `VirtualClock` in tests). The next attempt consults its
    /// breakers.
    pub fn set_health_registry(&self, health: Arc<HealthRegistry>) {
        let mut bound = self.bound.write();
        *bound = Binding::new(bound.table.or().clone(), &self.pool, health);
    }

    /// Replaces how backoff pauses are spent — tests inject a
    /// [`ohpc_resilience::FnSleeper`] that advances virtual time instead of
    /// blocking the thread.
    pub fn set_sleeper(&self, sleeper: Arc<dyn Sleeper>) {
        *self.sleeper.lock() = sleeper;
    }

    /// Snapshot of the current OR (it may change as the object migrates).
    pub fn object_reference(&self) -> ObjectReference {
        self.bound.read().table.or().clone()
    }

    /// Replaces the OR (capability hand-off, explicit rebind).
    pub fn rebind(&self, or: ObjectReference) {
        ohpc_telemetry::counter!("orb_rebinds_total").inc();
        let mut bound = self.bound.write();
        *bound = Binding::new(or, &self.pool, bound.health.clone());
    }

    /// Runs protocol selection without invoking, for inspection: the walk
    /// the next invocation attempt makes, health registry included.
    pub fn select(&self) -> Result<Selection, OrbError> {
        let bound = self.binding();
        bound.table.walk(&self.pool, &self.local, Some(&bound.health)).map(|p| p.selection())
    }

    /// Description of the protocol used by the most recent invocation
    /// (e.g. `glue[timeout+security]->tcp`), for experiment logs. The string
    /// is rendered once per binding and shared — cloning the `Arc` is free.
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
        let mut bound = self.bound.write();
        let or = bound.table.or();
        let (mut first, rest): (Vec<_>, Vec<_>) =
            or.protocols.iter().cloned().partition(|e| e.id == preferred);
        first.extend(rest);
        // An absent id, or one already first, leaves the binding as it is.
        if first != or.protocols {
            let or = ObjectReference { protocols: first, ..or.clone() };
            *bound = Binding::new(or, &self.pool, bound.health.clone());
        }
    }

    /// Removes every entry for `banned` from this GP's OR table, returning
    /// how many were removed — per-reference protocol policy, complementing
    /// pool-level policy.
    pub fn ban(&self, banned: crate::ids::ProtocolId) -> usize {
        let mut bound = self.bound.write();
        let mut or = bound.table.or().clone();
        or.protocols.retain(|e| e.id != banned);
        let removed = bound.table.or().protocols.len() - or.protocols.len();
        if removed > 0 {
            *bound = Binding::new(or, &self.pool, bound.health.clone());
        }
        removed
    }

    /// Invokes method slot `method` with pre-encoded `args`, returning the
    /// encoded result body.
    pub fn invoke(&self, method: u32, args: &XdrWriter) -> Result<Bytes, OrbError> {
        self.invoke_recycling(method, spare_copy(args), false)
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
        let bound = self.binding();
        let pick = bound.table.walk(&self.pool, &self.local, Some(&bound.health))?;
        span.attr("proto", &*pick.row.described);
        *self.last_protocol.lock() = Some(pick.row.described.clone());
        let req = RequestMessage {
            request_id: next_request_id(),
            object: bound.table.or().object,
            method,
            oneway: true,
            glue: None,
            body: spare_copy(args),
            trace: ohpc_telemetry::current(),
        };
        let sent = pick.proto.invoke_oneway(&self.pool, pick.entry, &req);
        XdrWriter::recycle(req.body);
        observed(&bound.health, &pick.row.key, sent)
    }

    /// Like [`invoke`](Self::invoke) but takes the body directly.
    pub fn invoke_raw(&self, method: u32, body: Bytes) -> Result<Bytes, OrbError> {
        self.invoke_raw_with(method, body, false)
    }

    /// [`invoke`](Self::invoke) for a request the caller promises is
    /// idempotent: ambiguous failures (sent-but-no-reply) may be retried,
    /// because executing the request twice is harmless.
    pub fn invoke_idempotent(&self, method: u32, args: &XdrWriter) -> Result<Bytes, OrbError> {
        self.invoke_recycling(method, spare_copy(args), true)
    }

    /// Invokes with `body`, a finished writer from [`XdrWriter::reused`],
    /// then gives the body's buffer back to the calling thread once nothing
    /// else holds it, for the thread's next such writer. The retry loop's
    /// plaintext is a clone of the body, so it is never given back while a
    /// retry may read it.
    pub(crate) fn invoke_recycling(
        &self,
        method: u32,
        body: Bytes,
        idempotent: bool,
    ) -> Result<Bytes, OrbError> {
        let reply = self.invoke_raw_with(method, body.clone(), idempotent);
        XdrWriter::recycle(body);
        reply
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
        let clock = self.health_registry().clock();
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
            let err = match self.attempt_once(method, &body, &*clock, deadline, failed_attempts) {
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
        clock: &dyn Clock,
        deadline: Option<u64>,
        attempt: u32,
    ) -> Result<Bytes, OrbError> {
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
            let bound = self.binding();
            let pick = bound.table.walk(&self.pool, &self.local, Some(&bound.health))?;
            let object = bound.table.or().object;
            span.attr("proto", &*pick.row.described);
            *self.last_protocol.lock() = Some(pick.row.described.clone());

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
            let exchanged =
                pick.proto.invoke_with_deadline(&self.pool, pick.entry, &req, remaining_ns);
            let reply = observed(&bound.health, &pick.row.key, exchanged)?;
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
        let err = gp.invoke_idempotent(1, &XdrWriter::new()).unwrap_err();
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

    /// A prefer or ban that changes nothing keeps the table and its
    /// binding; one that removes rows binds a new table.
    #[test]
    fn noop_prefer_and_ban_keep_the_binding() {
        let (gp, _) = gp_with(vec![]);
        let table = gp.object_reference();
        let bound = gp.binding();
        let kept = |why: &str| {
            assert_eq!(gp.object_reference(), table, "{why}: table changed");
            assert!(Arc::ptr_eq(&gp.binding(), &bound), "{why}: rebound");
        };
        gp.prefer(ProtocolId(999));
        kept("prefer of an absent id");
        gp.prefer(ProtocolId::TCP);
        kept("prefer of the row already first");
        assert_eq!(gp.ban(ProtocolId(999)), 0);
        kept("ban removing nothing");
        // A ban that does remove rows binds the smaller table.
        assert_eq!(gp.ban(ProtocolId::TCP), 1);
        assert!(gp.object_reference().protocols.is_empty());
        assert!(!Arc::ptr_eq(&gp.binding(), &bound));
    }

    #[test]
    fn a_swapped_registry_is_consulted_by_the_next_invocation() {
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

        for _ in 0..3 {
            gp.invoke_raw(1, Bytes::new()).unwrap();
        }

        // Build a replacement registry whose breaker for row 0 is already
        // open: the next invocation must consult its breakers.
        let fresh = Arc::new(ohpc_resilience::HealthRegistry::with_clock(Arc::new(
            ohpc_telemetry::ManualClock::new(),
        )));
        let key0 = crate::selection::health_key(&gp.object_reference().protocols[0]);
        for _ in 0..3 {
            fresh.record_failure(&key0);
        }
        assert_eq!(fresh.state(&key0), BreakerState::Open);
        gp.set_health_registry(fresh);

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
