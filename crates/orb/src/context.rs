//! Contexts: the server side of the ORB.
//!
//! A context is the HPC++ "virtual address space": it hosts objects, owns
//! the server half of every protocol (its listeners, bare or RSR-framed), the
//! server-side glue chains, migration tombstones, and mints Object
//! References. A `Context` value is a cheap clone of shared state, so server
//! threads, experiment drivers, and the migration manager can all hold one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use ohpc_netsim::Location;
use ohpc_nexus::{HEADER_LEN, TAG_REPLY_NO_HANDLER};
use ohpc_runtime::{AdmissionController, Executor, Permit, Rescue};
use ohpc_transport::{AcceptLoop, Connection, Listener, RecvHalf};
use ohpc_xdr::{XdrError, XdrReader, XdrWriter};

use crate::capability::{CallInfo, CapError, CapabilityRegistry, CapabilitySpec, Direction};
use crate::error::OrbError;
use crate::glue::{metered, ComputeMeter, Glue};
use crate::ids::{ContextId, ObjectId, ProtocolId};
use crate::message::{Framing, ReplyMessage, ReplyStatus, RequestMessage, NEXUS_ORB_HANDLER};
use crate::objref::{ObjectReference, ProtoEntry};
use crate::skeleton::{MethodError, RemoteObject};

/// How a protocol is advertised in ORs this context mints.
#[derive(Debug, Clone)]
pub struct ProtoAdvert {
    /// Protocol id, as it will appear in OR tables.
    pub id: ProtocolId,
    /// Endpoint string clients dial.
    pub endpoint: String,
}

/// Specification of one OR table row when minting a reference.
#[derive(Debug, Clone)]
pub enum OrRow {
    /// A plain protocol row, resolved against this context's adverts.
    Plain(ProtocolId),
    /// A glue row: the chain `glue_id` wrapped around protocol `inner`.
    Glue {
        /// Chain previously installed with [`Context::add_glue`].
        glue_id: u64,
        /// The real protocol underneath.
        inner: ProtocolId,
    },
}

/// Request-served hook (load tracking, logging).
pub type RequestHook = Box<dyn Fn(ObjectId, u32) + Send + Sync>;

/// What becomes of a received frame once decoded and put to admission.
#[expect(
    clippy::large_enum_variant,
    reason = "the large variant is the usual one and lives for one match; boxing it costs an \
              allocation per request"
)]
enum Intake {
    /// Not dispatched (malformed, or a shed two-way): send this reply frame.
    Reply(Bytes),
    /// Dispatch it; the permit bounds it until it finishes.
    Admitted(RequestMessage, Permit),
    /// A shed one-way: nothing to run and nobody to tell.
    Dropped,
}

struct ContextInner {
    id: ContextId,
    location: RwLock<Location>,
    next_local: AtomicU32,
    next_glue: AtomicU64,
    objects: RwLock<HashMap<ObjectId, Arc<dyn RemoteObject>>>,
    tombstones: RwLock<HashMap<ObjectId, ObjectReference>>,
    glues: RwLock<HashMap<u64, Arc<Glue>>>,
    registry: Arc<CapabilityRegistry>,
    adverts: RwLock<Vec<ProtoAdvert>>,
    servers: Mutex<Vec<AcceptLoop>>,
    on_request: RwLock<Option<RequestHook>>,
    meter: RwLock<Option<Arc<dyn ComputeMeter>>>,
    requests_served: AtomicU64,
    stopping: std::sync::atomic::AtomicBool,
    /// Executes the dispatch connection readers hand off. Pluggable so
    /// tests and servers can size their own pool; defaults to the shared
    /// worker pool.
    executor: RwLock<Arc<dyn Executor>>,
    /// Bounds admitted-but-unfinished requests (queued + executing).
    admission: AdmissionController,
}

/// A server context. Clones share state.
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

impl Context {
    /// Creates a context at `location` with the given capability registry.
    ///
    /// Every context hosts a first-party introspection object under the
    /// well-known id `ObjectId::compose(id, 0)` (see [`crate::introspect`]),
    /// so clients can fetch the process's telemetry snapshot over the ORB.
    pub fn new(id: ContextId, location: Location, registry: Arc<CapabilityRegistry>) -> Self {
        let mut objects: HashMap<ObjectId, Arc<dyn RemoteObject>> = HashMap::new();
        objects.insert(
            crate::introspect::introspection_object_id(id),
            Arc::new(crate::introspect::IntrospectionSkeleton(
                crate::introspect::ContextIntrospection::new(id),
            )),
        );
        Self {
            inner: Arc::new(ContextInner {
                id,
                location: RwLock::new(location),
                next_local: AtomicU32::new(1),
                next_glue: AtomicU64::new(1),
                objects: RwLock::new(objects),
                tombstones: RwLock::new(HashMap::new()),
                glues: RwLock::new(HashMap::new()),
                registry,
                adverts: RwLock::new(Vec::new()),
                servers: Mutex::new(Vec::new()),
                on_request: RwLock::new(None),
                meter: RwLock::new(None),
                requests_served: AtomicU64::new(0),
                stopping: std::sync::atomic::AtomicBool::new(false),
                executor: RwLock::new(ohpc_runtime::shared_pool()),
                admission: AdmissionController::new(Some(ohpc_runtime::DEFAULT_QUEUE_BOUND)),
            }),
        }
    }

    /// This context's id.
    pub fn id(&self) -> ContextId {
        self.inner.id
    }

    /// Where this context runs.
    pub fn location(&self) -> Location {
        *self.inner.location.read()
    }

    /// The capability registry used to build server-side chains.
    pub fn registry(&self) -> &Arc<CapabilityRegistry> {
        &self.inner.registry
    }

    /// Attaches a compute meter: server-side capability processing time is
    /// charged to it (the simulation harness passes the `SimNet`).
    pub fn set_meter(&self, meter: Arc<dyn ComputeMeter>) {
        *self.inner.meter.write() = Some(meter);
    }

    /// Installs a hook called once per dispatched request.
    pub fn set_request_hook(&self, hook: RequestHook) {
        *self.inner.on_request.write() = Some(hook);
    }

    /// Total requests dispatched by this context.
    pub fn requests_served(&self) -> u64 {
        self.inner.requests_served.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------- executor

    /// Replaces the dispatch executor. Affects connections accepted after
    /// the call: it runs their two-ways whenever the connection's reader
    /// does not run them itself. One-ways never reach it: the reader runs
    /// them.
    pub fn set_executor(&self, executor: Arc<dyn Executor>) {
        *self.inner.executor.write() = executor;
    }

    /// The executor requests the connection's reader hands off run on.
    pub fn executor(&self) -> Arc<dyn Executor> {
        self.inner.executor.read().clone()
    }

    /// Overrides the admitted-in-flight bound (`None` disables shedding).
    /// A context starts at [`ohpc_runtime::DEFAULT_QUEUE_BOUND`].
    pub fn set_admission_limit(&self, limit: Option<usize>) {
        self.inner.admission.set_limit(limit);
    }

    /// Requests currently admitted and not yet finished (queued + executing).
    pub fn admitted_in_flight(&self) -> usize {
        self.inner.admission.in_flight()
    }

    // ---------------------------------------------------------------- objects

    /// Hosts `object`, returning its new global id.
    pub fn register(&self, object: Arc<dyn RemoteObject>) -> ObjectId {
        let local = self.inner.next_local.fetch_add(1, Ordering::Relaxed);
        let id = ObjectId::compose(self.inner.id, local);
        self.inner.objects.write().insert(id, object);
        id
    }

    /// Removes and returns an object (migration step 1). The caller is
    /// expected to install a tombstone once the object lands elsewhere.
    pub fn take_object(&self, id: ObjectId) -> Option<Arc<dyn RemoteObject>> {
        self.inner.objects.write().remove(&id)
    }

    /// Hosts an object under a caller-provided id (migration step 2: the
    /// object keeps its identity at its new home).
    pub fn adopt(&self, id: ObjectId, object: Arc<dyn RemoteObject>) {
        self.inner.objects.write().insert(id, object);
        // A stale tombstone must not shadow a real resident object.
        self.inner.tombstones.write().remove(&id);
    }

    /// Leaves a forwarding tombstone: requests for `id` get `Moved(new_or)`.
    pub fn install_tombstone(&self, id: ObjectId, new_or: ObjectReference) {
        self.inner.tombstones.write().insert(id, new_or);
    }

    /// Number of live application objects (the auto-registered introspection
    /// object is infrastructure and is not counted).
    pub fn object_count(&self) -> usize {
        self.inner
            .objects
            .read()
            .keys()
            .filter(|id| id.local() != crate::introspect::INTROSPECTION_LOCAL_ID)
            .count()
    }

    /// The id of this context's introspection object (always hosted; see
    /// [`crate::introspect`]).
    pub fn introspection_id(&self) -> ObjectId {
        crate::introspect::introspection_object_id(self.inner.id)
    }

    /// Whether `id` is resident here (not a tombstone).
    pub fn hosts(&self, id: ObjectId) -> bool {
        self.inner.objects.read().contains_key(&id)
    }

    // ------------------------------------------------------------------ glue

    /// Installs a server-side capability chain, returning its glue id.
    /// Instances are built once from `specs` via this context's registry;
    /// stateful capabilities (budgets) live as long as the chain.
    pub fn add_glue(&self, specs: Vec<CapabilitySpec>) -> Result<u64, CapError> {
        let glue_id = self.inner.next_glue.fetch_add(1, Ordering::Relaxed);
        let glue = Glue::build(&self.inner.registry, glue_id, specs)?;
        self.inner.glues.write().insert(glue_id, Arc::new(glue));
        Ok(glue_id)
    }

    /// Replaces the chain behind `glue_id` (dynamic capability change). An
    /// id [`add_glue`](Self::add_glue) never issued is refused.
    pub fn replace_glue(&self, glue_id: u64, specs: Vec<CapabilitySpec>) -> Result<(), OrbError> {
        let glue = Arc::new(Glue::build(&self.inner.registry, glue_id, specs)?);
        let mut glues = self.inner.glues.write();
        let slot = glues.get_mut(&glue_id).ok_or(OrbError::UnknownGlue(glue_id))?;
        *slot = glue;
        Ok(())
    }

    // -------------------------------------------------------------- serving

    /// Records that clients can reach this context over `id` at `endpoint`
    /// without starting a listener (used when an external server already
    /// accepts for us).
    pub fn advertise(&self, id: ProtocolId, endpoint: String) {
        self.inner.adverts.write().push(ProtoAdvert { id, endpoint });
    }

    /// Serves ORB frames on `listener`, advertising it as protocol `id`.
    pub fn serve(&self, listener: Box<dyn Listener>, id: ProtocolId) {
        self.serve_framed(listener, id, Framing::Bare);
    }

    /// Serves ORB frames as Nexus remote service requests (the baseline
    /// protocol), advertising the listener as protocol `id`: the same loop,
    /// admission, executor and inline one-ways as [`serve`](Self::serve), with
    /// the RSR header taken off each request and put on each reply.
    pub fn serve_nexus(&self, listener: Box<dyn Listener>, id: ProtocolId) {
        self.serve_framed(listener, id, Framing::Rsr);
    }

    fn serve_framed(&self, listener: Box<dyn Listener>, id: ProtocolId, framing: Framing) {
        self.advertise(id, listener.endpoint().to_string());
        let ctx = self.clone();
        let accepting = AcceptLoop::spawn(listener, move |conn| ctx.serve_connection(conn, framing));
        self.inner.servers.lock().push(accepting);
    }

    /// Stops all listeners and joins their acceptors. Established
    /// connections stop being served: their next request closes the
    /// connection, which clients observe as a transport error (and
    /// transparently re-dial if a new server binds the endpoint).
    pub fn shutdown(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        let servers = std::mem::take(&mut *self.inner.servers.lock());
        // All of them before any is joined: a polling listener takes a
        // moment to notice.
        for accepting in &servers {
            accepting.stop();
        }
        drop(servers);
    }

    /// Abrupt crash, for fault injection: stops serving immediately —
    /// listeners close and in-flight requests are abandoned mid-connection —
    /// but unlike [`shutdown`](Self::shutdown) it is meant to be followed by
    /// [`restart`](Self::restart): the object table survives, the way
    /// on-disk state survives a real process crash. Clients observe dropped
    /// connections and refused dials.
    pub fn crash(&self) {
        ohpc_telemetry::counter!("orb_context_crashes_total").inc();
        self.shutdown();
        // Advertised endpoints died with the listeners.
        self.inner.adverts.write().clear();
    }

    /// Re-arms a crashed context: serving works again once fresh listeners
    /// are attached with [`serve`](Self::serve).
    pub fn restart(&self) {
        ohpc_telemetry::counter!("orb_context_restarts_total").inc();
        self.inner.stopping.store(false, Ordering::Release);
    }

    /// Serves one accepted connection until it closes (see [`SplitConn`]):
    /// clients multiplex many requests onto one connection, so it is split
    /// and its requests are dispatched concurrently. Every transport's
    /// connections split; one that does not is hung up on.
    fn serve_connection(&self, mut conn: Box<dyn Connection>, framing: Framing) {
        let Some((tx, rx)) = conn.try_split() else { return };
        drop(conn);
        let conn: Arc<SplitConn> = Arc::new(SplitConn {
            ctx: self.clone(),
            writer: Mutex::new(tx),
            workers: self.executor(),
            framing,
            rescue: Rescue::new(|(conn, rx, held): Parked| conn.read(rx, held)),
        });
        conn.read(rx, XdrWriter::new());
    }

    // ------------------------------------------------------------ admission

    /// Admission control at the transport→dispatch boundary. Runs before
    /// any glue or object work, so a shed request costs microseconds
    /// instead of a worker. `Ok` carries the permit bounding in-flight
    /// work; `Err` carries the reply status to send back — the request was
    /// **not** executed, and the status tells the client whether retrying
    /// can help ([`ReplyStatus::Overloaded`] is retryable,
    /// [`ReplyStatus::DeadlineExpired`] is not).
    fn admit(&self, req: &RequestMessage) -> Result<Permit, ReplyStatus> {
        // Adopt the request's wire-propagated trace so shed events land in
        // the client's causal trace and the flight recorder.
        let _trace = req.trace.clone().map(ohpc_telemetry::install);

        // A request whose deadline stamp already expired is dead weight:
        // dispatching it spends a worker on a reply the caller has given
        // up on. The stamp travels in the clear in the capability
        // metadata, so this peek needs no glue-chain construction.
        if let Some(expires_ns) = req.deadline_expires_ns() {
            if ohpc_telemetry::Registry::global().now_ns() > expires_ns {
                ohpc_telemetry::counter!("orb_deadline_shed_total", "at" => "admission").inc();
                ohpc_telemetry::trace_event("request_shed", &[("reason", "deadline".into())]);
                return Err(ReplyStatus::DeadlineExpired(
                    "deadline expired before dispatch".into(),
                ));
            }
        }

        self.inner.admission.try_admit().map_err(|shed| {
            ohpc_telemetry::counter!("orb_overload_shed_total", "reason" => "queue_full").inc();
            ohpc_telemetry::trace_event("request_shed", &[("reason", "queue_full".into())]);
            ReplyStatus::Overloaded(shed.to_string())
        })
    }

    /// Runs an admitted request to completion, then releases the admission
    /// permit. A handler that panics is answered with an exception: its
    /// caller hears at once instead of waiting for a reply nobody will send,
    /// and the thread — a connection's reader or a pool worker — goes on
    /// serving.
    fn dispatch_admitted(&self, req: RequestMessage, permit: Permit) -> ReplyMessage {
        let (rid, method) = (req.request_id, req.method);
        let handled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle_request(req)));
        let reply = handled.unwrap_or_else(|_| {
            ohpc_telemetry::counter!("orb_dispatch_panics_total").inc();
            let status = ReplyStatus::Exception(format!("method {method} panicked"));
            ReplyMessage::status(rid, status)
        });
        drop(permit);
        reply
    }

    // ------------------------------------------------------------- dispatch

    /// Core server path for one frame received on a listener of the given
    /// framing, on the calling thread: decodes, runs admission control and
    /// dispatches (see [`handle_request`](Self::handle_request)); the reply
    /// frame carries the framing too. `Ok(None)` for a one-way request,
    /// which is dispatched — or shed — and produces no reply frame. `Err`:
    /// the frame is not in that framing at all, so no reply can be addressed
    /// to its sender — a connection's reader hangs up. Owning the frame lets
    /// the decoded body be a view of it rather than a copy.
    pub fn handle_frame_opt(
        &self,
        frame: Bytes,
        framing: Framing,
    ) -> Result<Option<Bytes>, XdrError> {
        Ok(match self.intake(frame, framing)? {
            Intake::Reply(reply) => Some(reply),
            Intake::Dropped => None,
            Intake::Admitted(req, permit) => {
                let oneway = req.oneway;
                let reply = self.dispatch_admitted(req, permit);
                (!oneway).then(|| reply.to_frame_as(framing))
            }
        })
    }

    /// The one unframe→decode→admit prologue every serving path runs on a
    /// received frame, before any glue or object work.
    fn intake(&self, frame: Bytes, framing: Framing) -> Result<Intake, XdrError> {
        // Under RSR the header says whether the sender waits for an answer,
        // and a frame without a request header is the cue to hang up; a bare
        // frame says who waits only once it has decoded.
        let (frame, rsr_waits) = match framing {
            Framing::Bare => (frame, None),
            Framing::Rsr => match ohpc_nexus::get_request_header(&mut XdrReader::new(&frame))
                .inspect_err(|_| count_malformed_rsr())?
            {
                (waits, NEXUS_ORB_HANDLER) => (frame.slice(HEADER_LEN..), Some(waits)),
                (false, _) => {
                    count_malformed_rsr();
                    return Ok(Intake::Dropped);
                }
                (true, foreign) => {
                    let mut refusal = XdrWriter::with_capacity(HEADER_LEN);
                    ohpc_nexus::put_header(&mut refusal, TAG_REPLY_NO_HANDLER, foreign);
                    return Ok(Intake::Reply(refusal.finish()));
                }
            },
        };
        let decoded = match RequestMessage::from_frame(&frame) {
            // The tag says the sender waits, the flag that it does not, or
            // the other way round.
            Ok(req) if rsr_waits == Some(req.oneway) => {
                count_malformed_rsr();
                Err("the RSR tag disagrees with the request's one-way flag".to_string())
            }
            decoded => decoded.map_err(|e| e.to_string()),
        };
        // The request's body is a view of the frame; with this handle gone
        // the request is the buffer's only owner, so the glue chain may
        // transform it in place.
        drop(frame);
        let req = match decoded {
            Ok(r) => r,
            // Nobody reads the answer to a one-way RSR.
            Err(_) if rsr_waits == Some(false) => return Ok(Intake::Dropped),
            Err(e) => {
                // We cannot know the request id; reply with id 0 and an
                // exception so the client at least unblocks.
                let status = ReplyStatus::Exception(format!("malformed request: {e}"));
                let reply = ReplyMessage::status(crate::ids::RequestId(0), status);
                return Ok(Intake::Reply(reply.to_frame_as(framing)));
            }
        };
        Ok(match self.admit(&req) {
            Ok(permit) => Intake::Admitted(req, permit),
            Err(_) if req.oneway => {
                // No reply channel to signal backpressure on; the drop
                // shows in the shed counters and the trace.
                ohpc_telemetry::counter!("orb_oneway_shed_total").inc();
                Intake::Dropped
            }
            Err(status) => {
                Intake::Reply(ReplyMessage::status(req.request_id, status).to_frame_as(framing))
            }
        })
    }

    /// Typed form of [`handle_frame_opt`](Self::handle_frame_opt). A one-way
    /// that dispatched is answered an empty `Ok` that is never sent.
    ///
    /// All serving paths funnel here — a connection's reader and executor
    /// tasks, under either framing — so adopting the
    /// request's wire-propagated trace context at the top is enough to make
    /// every server-side span (dispatch, glue, capability) a child of the
    /// client's attempt span, whichever thread this runs on.
    pub fn handle_request(&self, req: RequestMessage) -> ReplyMessage {
        let rid = req.request_id;
        let _trace = req.trace.clone().map(ohpc_telemetry::install);
        // Drop-guard: also times `orb_request_ns`, server-side handling
        // latency, on every return path, including tombstone forwards and
        // capability denials.
        let mut dispatch_span = ohpc_telemetry::trace_span_timed(
            "server_dispatch",
            &[("method", req.method.into()), ("ctx", self.inner.id.0.into())],
            ohpc_telemetry::histogram!("orb_request_ns"),
        );
        let call = CallInfo { object: req.object, method: req.method, request_id: rid };

        // Tombstone? Forward the client to the object's new home.
        if let Some(new_or) = self.inner.tombstones.read().get(&req.object) {
            ohpc_telemetry::counter!("orb_tombstone_hops_total").inc();
            dispatch_span.attr("outcome", "moved");
            return ReplyMessage::status(rid, ReplyStatus::Moved(Box::new(new_or.clone())));
        }

        let Some(object) = self.inner.objects.read().get(&req.object).cloned() else {
            return ReplyMessage::status(rid, ReplyStatus::NoSuchObject);
        };

        // Glue: remove the request's. The body is moved, not cloned: a
        // second handle would force every capability to copy it.
        let (body, glue) = match &req.glue {
            None => (req.body, None),
            Some(wire) => {
                let Some(glue) = self.inner.glues.read().get(&wire.glue_id).cloned() else {
                    return ReplyMessage::status(rid, ReplyStatus::UnknownGlue(wire.glue_id));
                };
                let meter = self.inner.meter.read().clone();
                let unglued = metered(meter.as_deref(), || {
                    glue.remove(Direction::Request, &call, wire, req.body)
                });
                match unglued {
                    Ok(body) => (body, Some((glue, meter))),
                    Err(e) => return ReplyMessage::status(rid, e.into()),
                }
            }
        };

        // Dispatch.
        if let Some(hook) = self.inner.on_request.read().as_ref() {
            hook(req.object, req.method);
        }
        self.inner.requests_served.fetch_add(1, Ordering::Relaxed);
        ohpc_telemetry::counter!("orb_requests_total").inc();

        // The reply is encoded into the thread's spare buffer; whoever sends
        // the reply gives the body back (`SplitConn`).
        let mut out = XdrWriter::reused();
        let dispatched = object.dispatch(req.method, &mut XdrReader::new(&body), &mut out);
        let reply_body = match dispatched {
            Ok(()) if !req.oneway => out.finish(),
            // Nobody hears a one-way's outcome: its reply goes back unsent
            // and no reply glue runs for it, so the chain applies and removes
            // glue once per message that travels — no log entry, nonce or
            // cipher pass for a reply that is never sent.
            Ok(()) => {
                out.discard();
                return ReplyMessage::ok(rid, Bytes::new());
            }
            Err(MethodError::NoSuchMethod(m)) => {
                return ReplyMessage::status(rid, ReplyStatus::NoSuchMethod(m));
            }
            Err(MethodError::App(msg)) => {
                return ReplyMessage::status(rid, ReplyStatus::Exception(msg));
            }
            Err(MethodError::BadArgs(msg)) => {
                return ReplyMessage::status(
                    rid,
                    ReplyStatus::Exception(format!("bad arguments: {msg}")),
                );
            }
        };

        // Glue: apply the reply's (the server is the sender now).
        let Some((glue, meter)) = glue else { return ReplyMessage::ok(rid, reply_body) };
        match metered(meter.as_deref(), || glue.apply(Direction::Reply, &call, reply_body)) {
            Ok((body, wire)) => {
                ReplyMessage { request_id: rid, status: ReplyStatus::Ok, glue: Some(wire), body }
            }
            Err(e) => ReplyMessage::status(rid, e.into()),
        }
    }

    /// Charges `d` of application compute to the attached meter, if any.
    /// Server method bodies in simulation experiments use this to model
    /// computation time.
    pub fn charge_compute(&self, d: Duration) {
        if let Some(m) = self.inner.meter.read().as_ref() {
            m.charge(d);
        }
    }

    // ------------------------------------------------------------------ ORs

    /// Mints an OR for `object` with the given preference-ordered rows.
    ///
    /// `Plain(p)` rows resolve `p` against this context's adverts (first
    /// advert wins); `Glue` rows wrap an installed chain around the inner
    /// protocol's advert. Rows naming unknown protocols or glue ids are
    /// errors — an OR that silently lacks promised rows would defeat the
    /// selection experiments.
    pub fn make_or(&self, object: ObjectId, rows: &[OrRow]) -> Result<ObjectReference, OrbError> {
        let objects = self.inner.objects.read();
        let obj = objects
            .get(&object)
            .ok_or(OrbError::NoSuchObject(object))?;
        let type_name = obj.type_name().to_string();
        drop(objects);

        let adverts = self.inner.adverts.read();
        let find = |id: ProtocolId| -> Result<ProtoEntry, OrbError> {
            adverts
                .iter()
                .find(|a| a.id == id)
                .map(|a| ProtoEntry::endpoint(id, a.endpoint.clone()))
                .ok_or(OrbError::NoApplicableProtocol { offered: vec![id] })
        };

        let mut protocols = Vec::with_capacity(rows.len());
        for row in rows {
            match row {
                OrRow::Plain(p) => protocols.push(find(*p)?),
                OrRow::Glue { glue_id, inner } => {
                    let glue = self
                        .inner
                        .glues
                        .read()
                        .get(glue_id)
                        .cloned()
                        .ok_or(OrbError::UnknownGlue(*glue_id))?;
                    let specs = glue.specs().to_vec();
                    protocols.push(ProtoEntry::glue(*glue_id, specs, find(*inner)?));
                }
            }
        }

        Ok(ObjectReference {
            object,
            type_name,
            location: self.location(),
            protocols,
        })
    }
}

/// One split connection being served: what its reader and the pool tasks
/// answering its requests share.
///
/// The reader decodes frames in arrival order, runs admission, and does with
/// each admitted request what [`route`] says: every one-way runs on the
/// reader before it reads the next frame; a two-way runs on the reader or on
/// a pool worker. A call the reader runs with a frame behind it may leave its
/// small reply *held*, in a writer the reader owns and reuses, so that it
/// leaves in one write with the next reply, through
/// [`send_frames`](ohpc_transport::SendHalf::send_frames). A rejection
/// leaves behind a held reply too, in the same write. The reader sends a held
/// reply on its own before it waits for a frame that has not started to
/// arrive, before a one-way and before a pool hand-off.
///
/// While it runs a request, the reader parks its receive half and any held
/// reply in the connection's [`Rescue`] slot: should the request block — on
/// a later request of this very connection, say — the runtime's watcher
/// hands both to a fresh reader, which sends the held reply first, and the
/// connection's two-ways are answered from the pool for good. That fresh
/// reader still runs one-ways itself, but nothing rescues it again.
///
/// Ordering guarantee: a request read after a one-way starts after that
/// one-way has finished — in particular a later two-way is answered after
/// it — unless the one-way ran so long that the connection was rescued from
/// under it: then the requests read after it run beside it. Replies share
/// the send half behind a lock; the transport's framing keeps interleaved
/// replies whole, and the client demultiplexes by request id, so reply order
/// does not matter.
struct SplitConn {
    ctx: Context,
    writer: Mutex<Box<dyn ohpc_transport::SendHalf>>,
    /// The context's executor when the connection was accepted.
    workers: Arc<dyn Executor>,
    framing: Framing,
    rescue: Rescue<Parked>,
}

/// What a reader parks in its connection's [`Rescue`] slot while it runs a
/// call: the receive half, the writer holding its held reply (empty if
/// none), and a strong reference that keeps the connection alive until a
/// rescued half's fresh reader owns it. The reference is taken back with
/// the half, so no cycle outlives the call.
type Parked = (Arc<SplitConn>, Box<dyn RecvHalf>, XdrWriter);

/// The longest the last two-way the reader ran may have taken, on the
/// telemetry registry's clock, for the reader to run the next one too when
/// a frame waits behind it.
const SHORT_CALL: Duration = Duration::from_micros(50);

/// What the reader knows of an admitted request when it routes it.
#[derive(Debug, Clone, Copy)]
struct ReadState {
    /// The request is a one-way.
    oneway: bool,
    /// The connection has been rescued.
    rescued: bool,
    /// The request is the context's only admitted one: `in_flight() <= 1`.
    alone: bool,
    /// A further frame has already arrived: `RecvHalf::ready`.
    behind: bool,
    /// The reader holds a reply.
    held: bool,
    /// The last two-way the reader ran took at most [`SHORT_CALL`].
    short: bool,
}

/// What the reader does with an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Runs the one-way on the reader, unwatched.
    Unwatched,
    /// Sends the held reply, then runs the one-way on the reader.
    OneWay,
    /// Sends the held reply, then hands the two-way to the pool.
    Pool,
    /// Runs the two-way on the reader; its reply leaves behind the held one.
    Inline,
    /// Runs the two-way on the reader, and holds its reply if it is small.
    InlineHold,
}

/// The reader's routing policy. The first row that matches wins; `-`
/// matches either.
///
/// | oneway | rescued | alone | behind | held | short | route |
/// |---|---|---|---|---|---|---|
/// | yes | yes | - | - | - | - | `Unwatched` |
/// | yes | no | - | - | - | - | `OneWay` |
/// | no | no | yes | no | - | - | `Inline` |
/// | no | no | yes | yes | no | yes | `InlineHold` |
/// | no | - | - | - | - | - | `Pool` |
///
/// A one-way runs where it is read, so what is read after it starts after
/// it; a connection is rescued at most once, so a rescued one's reader runs
/// one-ways unwatched. A two-way runs on the reader, saving the hand-off
/// that is most of a small call, only while nothing else is admitted: the
/// pool is the overflow path that keeps the worker cap and shedding. Two
/// requests that arrive together also run there, the first with its reply
/// held, unless a reply is held already (a held reply waits for one call at
/// most) or the last call was long (a long one predicts another, which the
/// pool runs beside the frame behind it). DESIGN.md §14 has the
/// measurements.
fn route(s: &ReadState) -> Route {
    match *s {
        ReadState { oneway: true, rescued: true, .. } => Route::Unwatched,
        ReadState { oneway: true, .. } => Route::OneWay,
        ReadState { rescued: false, alone: true, behind: false, .. } => Route::Inline,
        ReadState {
            rescued: false, alone: true, behind: true, held: false, short: true, ..
        } => Route::InlineHold,
        _ => Route::Pool,
    }
}

impl SplitConn {
    /// The read loop: on the thread that accepted the connection, and on the
    /// fresh one a rescue starts, which first sends the reply `held` holds.
    #[expect(
        clippy::disallowed_methods,
        reason = "the server connection reader, on its connection's own thread"
    )]
    fn read(self: &Arc<Self>, mut rx: Box<dyn RecvHalf>, mut held: XdrWriter) {
        if !self.flush(&mut held) {
            return;
        }
        let mut short = true; // no two-way has run yet, so none long
        while rx.ready() || self.flush(&mut held) {
            let Ok(frame) = rx.recv() else { break };
            if self.ctx.inner.stopping.load(Ordering::Acquire) {
                break; // drop the connection: this context is gone
            }
            let (req, permit) = match self.ctx.intake(frame, self.framing) {
                Err(_) => break, // not this listener's framing: hang up
                Ok(Intake::Admitted(req, permit)) => (req, permit),
                Ok(Intake::Dropped) => continue,
                // Rejections leave from the reader: they stay fast when the
                // pool is the thing that is saturated.
                Ok(Intake::Reply(reply)) if self.send_behind(&mut held, &[&reply]) => continue,
                Ok(Intake::Reply(_)) => return,
            };
            let route = route(&ReadState {
                oneway: req.oneway,
                rescued: self.rescue.rescued(),
                alone: self.ctx.inner.admission.in_flight() <= 1,
                behind: rx.ready(),
                held: !held.is_empty(),
                short,
            });
            if matches!(route, Route::OneWay | Route::Pool) && !self.flush(&mut held) {
                return;
            }
            if route == Route::Pool {
                // The permit rides in the task, so queue time counts against
                // the admission bound.
                let conn = self.clone();
                self.workers.execute(Box::new(move || conn.answer(req, permit)));
                continue;
            }
            let Some(back) = self.run_here(route, req, permit, (rx, held), &mut short) else {
                return;
            };
            (rx, held) = back;
        }
        self.flush(&mut held);
    }

    /// Runs an admitted request on the reader, as `route` says, and sends or
    /// holds a two-way's reply; the receive half and the held reply back,
    /// `None` once a rescue took them or the connection is gone. A two-way
    /// sets `short`, from the stamps of its dispatch span.
    fn run_here(
        self: &Arc<Self>,
        route: Route,
        req: RequestMessage,
        permit: Permit,
        (rx, held): (Box<dyn RecvHalf>, XdrWriter),
        short: &mut bool,
    ) -> Option<(Box<dyn RecvHalf>, XdrWriter)> {
        let parked = (self.clone(), rx, held);
        let (reply, back) = match route {
            Route::Unwatched => (self.ctx.dispatch_admitted(req, permit), Some(parked)),
            _ => self.rescue.run(parked, || self.ctx.dispatch_admitted(req, permit)),
        };
        if matches!(route, Route::Unwatched | Route::OneWay) {
            let (_, rx, held) = back?;
            yield_to_a_burst(rx.as_ref());
            return Some((rx, held));
        }
        *short = Duration::from_nanos(ohpc_telemetry::last_timed_ns()) <= SHORT_CALL;
        let Some((_, rx, mut held)) = back else {
            // Rescued mid-call: the fresh reader owns the connection, and
            // has sent the held reply.
            self.send_reply(reply, |frame| self.send(frame));
            return None;
        };
        if route == Route::InlineHold && reply.encoded_len() < ohpc_xdr::GATHER_MIN {
            // `held` is empty: `InlineHold` says so.
            reply.put_frame_as(self.framing, &mut held);
            XdrWriter::recycle(reply.body);
        } else if !self.send_reply(reply, |frame| self.send_behind(&mut held, frame)) {
            return None;
        }
        Some((rx, held))
    }

    /// Dispatches an admitted two-way and sends its reply, in parts: a pool
    /// task's work.
    fn answer(&self, req: RequestMessage, permit: Permit) {
        let reply = self.ctx.dispatch_admitted(req, permit);
        self.send_reply(reply, |frame| self.send(frame));
    }

    /// Sends `reply` through `send`, in parts, then gives its body back to
    /// this thread's spare for the next reply's writer; `send`'s outcome.
    fn send_reply(&self, reply: ReplyMessage, send: impl FnMut(&[&[u8]]) -> bool) -> bool {
        let sent = reply.with_parts_as(self.framing, send);
        XdrWriter::recycle(reply.body);
        sent
    }

    /// Sends one frame, made of `frame`'s parts; `false` once the
    /// connection is gone.
    fn send(&self, frame: &[&[u8]]) -> bool {
        // The writer mutex serializes the replies of the reader and the pool
        // tasks: it is lent to exactly one send.
        parking_lot::block_under(&mut self.writer.lock(), |tx| tx.send_parts(frame)).is_ok()
    }

    /// Sends `frame` in one write behind the reply `held` holds, if any,
    /// which leaves `held` empty; `false` once the connection is gone.
    fn send_behind(&self, held: &mut XdrWriter, frame: &[&[u8]]) -> bool {
        if held.is_empty() {
            return self.send(frame);
        }
        let frames: [&[&[u8]]; 2] = [&[held.peek()], frame];
        let sent = parking_lot::block_under(&mut self.writer.lock(), |tx| tx.send_frames(&frames));
        held.clear();
        sent.is_ok()
    }

    /// Sends the reply `held` holds, if any, which leaves `held` empty;
    /// `false` once the connection is gone.
    fn flush(&self, held: &mut XdrWriter) -> bool {
        if held.is_empty() {
            return true;
        }
        let sent = self.send(&[held.peek()]);
        held.clear();
        sent
    }
}

/// What a reader does after a one-way: yields once if no frame waits. A
/// sender that shares this thread's CPU is likely mid-burst: blocking now
/// would let each of its frames wake this reader and preempt it. Yielding
/// once lets it send on, so the reader finds the burst waiting.
fn yield_to_a_burst(rx: &dyn RecvHalf) {
    if !rx.ready() {
        std::thread::yield_now();
    }
}

fn count_malformed_rsr() {
    ohpc_telemetry::Registry::global()
        .counter("orb_malformed_frames_total", &[("kind", "rsr")])
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RequestId;
    use crate::message::GlueWire;
    use ohpc_xdr::{XdrDecode, XdrEncode};

    struct Echo;
    impl RemoteObject for Echo {
        fn type_name(&self) -> &str {
            "Echo"
        }
        fn dispatch(
            &self,
            method: u32,
            args: &mut XdrReader<'_>,
            out: &mut XdrWriter,
        ) -> Result<(), MethodError> {
            match method {
                1 => {
                    let v = Vec::<i32>::decode(args)
                        .map_err(|e| MethodError::BadArgs(e.to_string()))?;
                    v.encode(out);
                    Ok(())
                }
                m => Err(MethodError::NoSuchMethod(m)),
            }
        }
    }

    fn ctx() -> Context {
        Context::new(ContextId(1), Location::new(0, 0), Arc::new(CapabilityRegistry::new()))
    }

    fn request(object: ObjectId, body: Bytes) -> RequestMessage {
        RequestMessage {
            request_id: RequestId(7),
            object,
            method: 1,
            oneway: false,
            glue: None,
            body,
            trace: None,
        }
    }

    fn encoded_ints(v: &[i32]) -> Bytes {
        let mut w = XdrWriter::new();
        v.to_vec().encode(&mut w);
        w.finish()
    }

    #[test]
    fn register_and_dispatch() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        assert!(ctx.hosts(id));
        assert_eq!(id.context(), ContextId(1));

        let reply = ctx.handle_request(request(id, encoded_ints(&[1, 2, 3])));
        assert_eq!(reply.status, ReplyStatus::Ok);
        let v: Vec<i32> = ohpc_xdr::decode_from_slice(&reply.body).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(ctx.requests_served(), 1);
    }

    #[test]
    fn unknown_object_and_method() {
        let ctx = ctx();
        let reply = ctx.handle_request(request(ObjectId(999), Bytes::new()));
        assert_eq!(reply.status, ReplyStatus::NoSuchObject);

        let id = ctx.register(Arc::new(Echo));
        let mut req = request(id, encoded_ints(&[]));
        req.method = 42;
        let reply = ctx.handle_request(req);
        assert_eq!(reply.status, ReplyStatus::NoSuchMethod(42));
    }

    #[test]
    fn tombstone_forwards() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        let or = ctx.make_or(id, &[]).unwrap();
        ctx.take_object(id);
        ctx.install_tombstone(id, or.clone());
        let reply = ctx.handle_request(request(id, Bytes::new()));
        assert_eq!(reply.status, ReplyStatus::Moved(Box::new(or)));
    }

    #[test]
    fn adopt_clears_tombstone() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        let or = ctx.make_or(id, &[]).unwrap();
        let obj = ctx.take_object(id).unwrap();
        ctx.install_tombstone(id, or);
        ctx.adopt(id, obj);
        let reply = ctx.handle_request(request(id, encoded_ints(&[5])));
        assert_eq!(reply.status, ReplyStatus::Ok);
    }

    #[test]
    fn unknown_glue_is_reported() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        let mut req = request(id, Bytes::new());
        req.glue = Some(GlueWire { glue_id: 77, caps: vec![].into() });
        let reply = ctx.handle_request(req);
        assert_eq!(reply.status, ReplyStatus::UnknownGlue(77));
    }

    #[test]
    fn malformed_frame_still_replies() {
        let ctx = ctx();
        let reply_frame =
            ctx.handle_frame_opt(Bytes::from_static(&[1, 2, 3]), Framing::Bare).unwrap().unwrap();
        let reply = ReplyMessage::from_frame(&reply_frame).unwrap();
        assert!(matches!(reply.status, ReplyStatus::Exception(_)));
    }

    #[test]
    fn make_or_resolves_adverts_in_row_order() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        ctx.advertise(ProtocolId::TCP, "tcp://1.2.3.4:9".into());
        ctx.advertise(ProtocolId::SHM, "mem://3".into());
        let or = ctx
            .make_or(id, &[OrRow::Plain(ProtocolId::SHM), OrRow::Plain(ProtocolId::TCP)])
            .unwrap();
        assert_eq!(or.offered(), vec![ProtocolId::SHM, ProtocolId::TCP]);
        assert_eq!(or.type_name, "Echo");
        assert_eq!(or.location, Location::new(0, 0));
    }

    /// An id `add_glue` never issued is refused and left uninstalled, so
    /// the `add_glue` that later issues it is not overwritten.
    #[test]
    fn replace_glue_refuses_an_id_never_issued() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        ctx.advertise(ProtocolId::TCP, "tcp://h:1".into());
        assert!(matches!(ctx.replace_glue(1, vec![]), Err(OrbError::UnknownGlue(1))));
        assert!(matches!(
            ctx.make_or(id, &[OrRow::Glue { glue_id: 1, inner: ProtocolId::TCP }]),
            Err(OrbError::UnknownGlue(1))
        ));
        assert_eq!(ctx.add_glue(vec![]).unwrap(), 1);
        ctx.replace_glue(1, vec![]).unwrap();
    }

    #[test]
    fn make_or_fails_on_missing_advert_or_glue() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        assert!(ctx.make_or(id, &[OrRow::Plain(ProtocolId::TCP)]).is_err());
        assert!(matches!(
            ctx.make_or(id, &[OrRow::Glue { glue_id: 5, inner: ProtocolId::TCP }]),
            Err(OrbError::UnknownGlue(5))
        ));
    }

    #[test]
    fn request_hook_fires() {
        let ctx = ctx();
        let id = ctx.register(Arc::new(Echo));
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        ctx.set_request_hook(Box::new(move |_, _| {
            c2.fetch_add(1, Ordering::Relaxed);
        }));
        ctx.handle_request(request(id, encoded_ints(&[1])));
        ctx.handle_request(request(id, encoded_ints(&[2])));
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    /// Every one of the 64 reader states routes as the first row of
    /// `route`'s doc table that matches it, and every row is the first match
    /// of some state: the table and the code say the same.
    #[test]
    fn route_follows_its_doc_table() {
        let table: Vec<Vec<&str>> = include_str!("context.rs")
            .lines()
            .skip_while(|line| !line.starts_with("/// | oneway |"))
            .take_while(|line| line.starts_with("/// |"))
            .map(|line| line[5..].split('|').map(str::trim).filter(|c| !c.is_empty()).collect())
            .collect();
        let columns = ["oneway", "rescued", "alone", "behind", "held", "short", "route"];
        assert_eq!(table[0], columns, "the table's columns are the fields of `ReadState`");
        let rows = &table[2..];
        let mut reached = vec![false; rows.len()];
        for bits in 0..64u32 {
            let input: Vec<bool> = (0..6).map(|i| (bits >> i) & 1 == 1).collect();
            let matches = |row: &&Vec<&str>| {
                row[..6].iter().zip(&input).all(|(cell, bit)| match *cell {
                    "-" => true,
                    "yes" => *bit,
                    "no" => !*bit,
                    other => panic!("a cell reads {other:?}"),
                })
            };
            let at = rows.iter().position(|row| matches(&row)).expect("some row matches");
            reached[at] = true;
            let state = ReadState {
                oneway: input[0],
                rescued: input[1],
                alone: input[2],
                behind: input[3],
                held: input[4],
                short: input[5],
            };
            let routed = format!("`{:?}`", route(&state));
            assert_eq!(routed, rows[at][6], "{state:?} against row {}", at + 1);
        }
        assert!(reached.iter().all(|r| *r), "a row no state reaches: {reached:?}");
    }
}
