//! Interposers: the ORB's own extension points, each wrapped to stamp a span.
//!
//! The ORB is an open implementation — proto-objects, capabilities,
//! transports, the dispatch executor and server objects are all traits an
//! application may supply — so the benchmark attributes time per layer from
//! outside, by deploying a workload with a forwarding wrapper at each of
//! those points, without touching the program. A wrapper does nothing but
//! open a span, forward the call and close the span; while recording is off
//! it forwards at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use ohpc_orb::capability::{CallInfo, CapMeta};
use ohpc_orb::context::OrRow;
use ohpc_orb::skeleton::MethodError;
use ohpc_orb::{
    ApplicabilityRule, CapError, Capability, CapabilityRegistry, Context, ContextId, Direction,
    GlobalPointer, GlueProto, Location, ObjectReference, OrbError, ProtoEntry, ProtoObject,
    ProtoPool, ProtocolId, RemoteObject, ReplyMessage, RequestMessage, TransportProto,
};
use ohpc_runtime::{Executor, Task};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
use ohpc_transport::{Connection, Dialer, Endpoint, Listener, RecvHalf, SendHalf, TransportError};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};

use ledger::alloc::thread_allocs;
use ledger::deploy::{glue_specs, standard_registry};
use ledger::spec::{Cap, Wire, Workload};

use crate::spans::{self, now_ns, Attr, Name, Side};

// ------------------------------------------------------------ proto-objects

/// Forwards every `ProtoObject` method to `inner` inside a span.
struct TracedProto {
    inner: Arc<dyn ProtoObject>,
    name: Name,
}

impl ProtoObject for TracedProto {
    fn protocol_id(&self) -> ProtocolId {
        self.inner.protocol_id()
    }

    fn applicable(
        &self,
        pool: &ProtoPool,
        client: &Location,
        server: &Location,
        entry: &ProtoEntry,
    ) -> bool {
        self.inner.applicable(pool, client, server, entry)
    }

    fn invoke(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<ReplyMessage, OrbError> {
        let _span = spans::open(self.name, Attr::on(Side::Client));
        self.inner.invoke(pool, entry, req)
    }

    fn invoke_with_deadline(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
        remaining_ns: Option<u64>,
    ) -> Result<ReplyMessage, OrbError> {
        let _span = spans::open(self.name, Attr::on(Side::Client));
        self.inner
            .invoke_with_deadline(pool, entry, req, remaining_ns)
    }

    fn invoke_oneway(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<(), OrbError> {
        let _span = spans::open(self.name, Attr::on(Side::Client).oneway(true));
        self.inner.invoke_oneway(pool, entry, req)
    }

    fn describe(&self, entry: &ProtoEntry) -> String {
        self.inner.describe(entry)
    }
}

// ------------------------------------------------------------- capabilities

/// The number a capability's spans carry: its place in [`Cap`], from 1.
pub fn cap_number(cap: Cap) -> u8 {
    match cap {
        Cap::Timeout => 1,
        Cap::Security => 2,
    }
}

struct TracedCap {
    inner: Arc<dyn Capability>,
    side: Side,
    number: u8,
}

impl Capability for TracedCap {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn applicable(&self, client: &Location, server: &Location) -> bool {
        self.inner.applicable(client, server)
    }

    fn process(
        &self,
        dir: Direction,
        call: &CallInfo,
        meta: &mut CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        let attr = Attr::on(self.side)
            .reply(dir == Direction::Reply)
            .cap(self.number);
        let _span = spans::open(Name::CapProcess, attr);
        self.inner.process(dir, call, meta, body)
    }

    fn unprocess(
        &self,
        dir: Direction,
        call: &CallInfo,
        meta: &CapMeta,
        body: Bytes,
    ) -> Result<Bytes, CapError> {
        let attr = Attr::on(self.side)
            .reply(dir == Direction::Reply)
            .cap(self.number);
        let _span = spans::open(Name::CapUnprocess, attr);
        self.inner.unprocess(dir, call, meta, body)
    }
}

/// A registry that builds the standard capabilities, each inside a wrapper,
/// under their real names — one registry a side, so a span knows its side.
fn traced_registry(side: Side) -> Arc<CapabilityRegistry> {
    let real = standard_registry();
    let traced = CapabilityRegistry::new();
    for cap in [Cap::Timeout, Cap::Security] {
        let real = real.clone();
        traced.register(cap.wire_name(), move |spec| {
            let inner = real.build(spec)?;
            Ok(Arc::new(TracedCap {
                inner,
                side,
                number: cap_number(cap),
            }))
        });
    }
    Arc::new(traced)
}

// ---------------------------------------------------------------- transport

fn traced_send(
    side: Side,
    frame: &[u8],
    send: impl FnOnce() -> Result<(), TransportError>,
) -> Result<(), TransportError> {
    let span = spans::open(Name::ConnSend, Attr::on(side)).crossing();
    span.bytes(frame.len());
    send()
}

fn traced_recv(
    side: Side,
    recv: impl FnOnce() -> Result<Bytes, TransportError>,
) -> Result<Bytes, TransportError> {
    let (start_ns, allocs) = (now_ns(), thread_allocs());
    let frame = recv()?;
    spans::record_recv(Attr::on(side), start_ns, allocs, frame.len());
    Ok(frame)
}

struct TracedConn {
    inner: Box<dyn Connection>,
    side: Side,
}

impl Connection for TracedConn {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        traced_send(self.side, frame, || self.inner.send(frame))
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        traced_recv(self.side, || self.inner.recv())
    }

    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        let (tx, rx) = self.inner.try_split()?;
        let side = self.side;
        Some((
            Box::new(TracedSend { inner: tx, side }),
            Box::new(TracedRecv { inner: rx, side }),
        ))
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.inner.set_recv_timeout(timeout)
    }
}

struct TracedSend {
    inner: Box<dyn SendHalf>,
    side: Side,
}

impl SendHalf for TracedSend {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        traced_send(self.side, frame, || self.inner.send(frame))
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

struct TracedRecv {
    inner: Box<dyn RecvHalf>,
    side: Side,
}

impl RecvHalf for TracedRecv {
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        traced_recv(self.side, || self.inner.recv())
    }
}

struct TracedDialer {
    inner: Arc<dyn Dialer>,
}

impl Dialer for TracedDialer {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        Ok(Box::new(TracedConn {
            inner: self.inner.dial(endpoint)?,
            side: Side::Client,
        }))
    }
}

struct TracedListener {
    inner: Box<dyn Listener>,
}

impl Listener for TracedListener {
    fn accept(&mut self) -> Result<Box<dyn Connection>, TransportError> {
        Ok(Box::new(TracedConn {
            inner: self.inner.accept()?,
            side: Side::Server,
        }))
    }

    fn endpoint(&self) -> Endpoint {
        self.inner.endpoint()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn stop_fn(&self) -> Box<dyn Fn() + Send + Sync> {
        self.inner.stop_fn()
    }
}

// ----------------------------------------------------------------- executor

/// Spans the submission on the submitting thread and the task on whichever
/// thread runs it; the run names the submission as its parent. Wrapping the
/// task costs one boxed closure per task, which the traced allocation
/// counts carry (under `runtime.queue_wait_allocs`).
struct TracedExecutor {
    inner: Arc<dyn Executor>,
}

impl Executor for TracedExecutor {
    fn execute(&self, task: Task) {
        if !spans::recording() {
            return self.inner.execute(task);
        }
        let submit = spans::open(Name::ExecSubmit, Attr::on(Side::Server));
        let parent = submit.index();
        self.inner.execute(Box::new(move || {
            let _run = spans::open_at(
                Name::ExecRun,
                Attr::on(Side::Server),
                now_ns(),
                thread_allocs(),
                parent,
            );
            task();
        }));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn worker_cap(&self) -> Option<usize> {
        self.inner.worker_cap()
    }
}

// ------------------------------------------------------------ server object

/// The echo object written against `RemoteObject` directly, doing what the
/// generated skeleton does — decode, call, encode — with a boundary stamped
/// between the steps.
#[derive(Default)]
struct TracedEcho {
    echoes: AtomicU64,
}

impl RemoteObject for TracedEcho {
    fn type_name(&self) -> &str {
        "LedgerEcho"
    }

    fn dispatch(
        &self,
        method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        let attr = Attr::on(Side::Server);
        let _dispatch = spans::open(Name::Dispatch, attr);
        let decode = spans::open(Name::XdrServerDecode, attr);
        let array = match method {
            1 => Some(Vec::<i32>::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?),
            2 => None,
            m => return Err(MethodError::NoSuchMethod(m)),
        };
        let (at, allocs) = (now_ns(), thread_allocs());
        decode.close_at(at, allocs);
        let _encode = spans::open_at(Name::XdrServerEncode, attr, at, allocs, spans::NONE);
        match array {
            Some(array) => {
                self.echoes.fetch_add(1, Ordering::Relaxed);
                array.encode(out);
            }
            None => self.echoes.load(Ordering::Relaxed).encode(out),
        }
        Ok(())
    }
}

// --------------------------------------------------------------- deployment

/// A workload deployed with an interposer at every extension point.
pub struct TracedDeployment {
    server: Context,
    /// The client's global pointer; the manual stub calls it.
    pub gp: GlobalPointer,
}

impl TracedDeployment {
    /// Stops the listeners and joins the server threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// `ledger::deploy::deploy`, step for step, with the wrappers in: capability
/// registries that build wrapped capabilities, a wrapped executor, the
/// span-stamping echo object, a wrapped listener and dialer, and a wrapper
/// around every pool entry (so the glue proto-object's lookup of its inner
/// protocol finds the wrapped transport).
pub fn deploy_traced(wl: &Workload) -> Result<TracedDeployment, String> {
    let here = Location::new(0, 0);
    let server = Context::new(ContextId(1), here, traced_registry(Side::Server));
    server.set_executor(Arc::new(TracedExecutor {
        inner: server.executor(),
    }));
    let object = server.register(Arc::new(TracedEcho::default()));

    let (protocol, transport) = match wl.wire {
        Wire::Shm => {
            let fabric = MemFabric::new();
            server.serve(
                Box::new(TracedListener {
                    inner: Box::new(fabric.listen()),
                }),
                ProtocolId::SHM,
            );
            let dialer = Arc::new(TracedDialer {
                inner: Arc::new(fabric),
            });
            (
                ProtocolId::SHM,
                TransportProto::new(ProtocolId::SHM, ApplicabilityRule::SameMachineOnly, dialer),
            )
        }
        Wire::TcpLoopback => {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            server.serve(
                Box::new(TracedListener {
                    inner: Box::new(acceptor),
                }),
                ProtocolId::TCP,
            );
            let dialer = Arc::new(TracedDialer {
                inner: Arc::new(TcpDialer),
            });
            (
                ProtocolId::TCP,
                TransportProto::new(ProtocolId::TCP, ApplicabilityRule::Always, dialer),
            )
        }
    };

    let row = if wl.caps.is_empty() {
        OrRow::Plain(protocol)
    } else {
        let glue_id = server
            .add_glue(glue_specs(wl))
            .map_err(|e| format!("add_glue: {e}"))?;
        OrRow::Glue {
            glue_id,
            inner: protocol,
        }
    };
    let or: ObjectReference = server
        .make_or(object, &[row])
        .map_err(|e| format!("make_or: {e}"))?;

    let glue = GlueProto::new(traced_registry(Side::Client));
    let pool = ProtoPool::new()
        .with(Arc::new(TracedProto {
            inner: Arc::new(glue),
            name: Name::ProtoGlue,
        }))
        .with(Arc::new(TracedProto {
            inner: Arc::new(transport),
            name: Name::ProtoTransport,
        }));
    Ok(TracedDeployment {
        server,
        gp: GlobalPointer::new(or, Arc::new(pool), here),
    })
}
