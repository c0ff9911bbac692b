//! A minimal Nexus-style remote-service-request (RSR) layer.
//!
//! Foster, Kesselman & Tuecke's Nexus is the low-level communication library
//! the paper compares against ("a simple Nexus based communication
//! protocol"). This crate reproduces the part of Nexus the ORB layers on:
//!
//! * a [`NexusService`] (Nexus *endpoint*) registers numbered handlers;
//! * a [`Startpoint`] is a client-side handle bound to a service's address;
//! * [`Startpoint::rsr`] fires a one-way remote service request;
//!   [`Startpoint::rsr_reply`] is the request/response form the ORB's
//!   "Nexus protocol object" uses.
//!
//! Payloads are XDR buffers (see [`ohpc_xdr`]); the transport underneath is
//! anything implementing [`ohpc_transport::Dialer`]/`Listener`, so the same
//! code runs over real TCP, in-process channels, or the simulated network.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use parking_lot::Mutex;

use ohpc_transport::{Connection, Dialer, Endpoint, Listener, TransportError};
use ohpc_xdr::{XdrReader, XdrWriter};

pub use buffer::{GetBuffer, PutBuffer};

/// Numbered handler slot within a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(pub u32);

/// Errors surfaced to RSR callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NexusError {
    /// Transport failure.
    Transport(TransportError),
    /// The remote service has no such handler.
    NoSuchHandler(u32),
    /// The handler raised an application error.
    Handler(String),
    /// Malformed frame on the wire.
    Protocol(String),
}

impl std::fmt::Display for NexusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NexusError::Transport(e) => write!(f, "transport: {e}"),
            NexusError::NoSuchHandler(id) => write!(f, "no such handler {id}"),
            NexusError::Handler(msg) => write!(f, "handler error: {msg}"),
            NexusError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for NexusError {}

impl From<TransportError> for NexusError {
    fn from(e: TransportError) -> Self {
        NexusError::Transport(e)
    }
}

/// Handler signature: reads arguments from the request reader, writes results
/// to the reply writer, or fails with a message.
pub type Handler =
    Box<dyn Fn(&mut XdrReader<'_>, &mut XdrWriter) -> Result<(), String> + Send + Sync>;

// Frame tags.
const TAG_ONEWAY: u32 = 1;
const TAG_REQUEST: u32 = 2;
const TAG_REPLY_OK: u32 = 3;
const TAG_REPLY_ERR: u32 = 4;
const TAG_REPLY_NO_HANDLER: u32 = 5;

/// Builder/holder for a service's handler table.
#[derive(Default)]
pub struct NexusService {
    handlers: HashMap<u32, Handler>,
}

impl NexusService {
    /// Empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `handler` under `id`, replacing any previous registration.
    pub fn register<F>(&mut self, id: HandlerId, handler: F) -> &mut Self
    where
        F: Fn(&mut XdrReader<'_>, &mut XdrWriter) -> Result<(), String> + Send + Sync + 'static,
    {
        self.handlers.insert(id.0, Box::new(handler));
        self
    }

    /// Starts serving on `listener`. Spawns one acceptor thread plus one
    /// detached thread per connection; returns a handle that stops accepting
    /// on drop. Connection threads exit when their clients hang up.
    pub fn start(self, mut listener: Box<dyn Listener>) -> RunningService {
        let endpoint = listener.endpoint();
        let handlers = Arc::new(self.handlers);
        let stopping = Arc::new(AtomicBool::new(false));
        let stop_listener = listener.stop_fn();

        let stop_for_acceptor = stopping.clone();
        let acceptor = std::thread::spawn(move || {
            while !stop_for_acceptor.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok(conn) => {
                        let handlers = handlers.clone();
                        std::thread::spawn(move || serve_connection(conn, handlers));
                    }
                    Err(_) => break,
                }
            }
        });

        RunningService { endpoint, stopping, acceptor: Some(acceptor), stop_listener }
    }
}

fn serve_connection(mut conn: Box<dyn Connection>, handlers: Arc<HashMap<u32, Handler>>) {
    loop {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(_) => return,
        };
        let mut reader = XdrReader::new(&frame);
        let (tag, id) = match (reader.get_u32(), reader.get_u32()) {
            (Ok(t), Ok(i)) => (t, i),
            _ => return, // malformed; drop the connection
        };
        let wants_reply = tag == TAG_REQUEST;
        let mut reply = XdrWriter::new();
        let status = match handlers.get(&id) {
            None => {
                reply.put_u32(TAG_REPLY_NO_HANDLER);
                reply.put_u32(id);
                Err(())
            }
            Some(h) => {
                let mut out = XdrWriter::new();
                match h(&mut reader, &mut out) {
                    Ok(()) => {
                        reply.put_u32(TAG_REPLY_OK);
                        reply.put_u32(id);
                        let body = out.finish();
                        reply.put_fixed_opaque(&body);
                        Ok(())
                    }
                    Err(msg) => {
                        reply.put_u32(TAG_REPLY_ERR);
                        reply.put_u32(id);
                        reply.put_string(&msg);
                        Err(())
                    }
                }
            }
        };
        let _ = status;
        if wants_reply && conn.send(&reply.finish()).is_err() {
            return;
        }
    }
}

/// Handle to a running service; signals shutdown and joins the acceptor on
/// drop. Connection threads are detached and exit with their clients.
pub struct RunningService {
    endpoint: Endpoint,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    stop_listener: Box<dyn Fn() + Send + Sync>,
}

impl RunningService {
    /// Address clients should dial.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Requests shutdown: stops the listener so the acceptor unblocks, and
    /// prevents further accepts.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::Release);
        (self.stop_listener)();
    }
}

impl Drop for RunningService {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Client-side handle: a Nexus *startpoint* bound to a service.
pub struct Startpoint {
    conn: Mutex<Box<dyn Connection>>,
}

impl Startpoint {
    /// Connects to a service.
    pub fn connect(dialer: &dyn Dialer, endpoint: &Endpoint) -> Result<Self, NexusError> {
        Ok(Self { conn: Mutex::new(dialer.dial(endpoint)?) })
    }

    /// Fires a one-way RSR: no reply, no ordering guarantee with failures.
    pub fn rsr(&self, handler: HandlerId, args: &XdrWriter) -> Result<(), NexusError> {
        let frame = Self::frame(TAG_ONEWAY, handler, args);
        // ohpc-analyze: allow(guard-across-blocking) — the connection mutex
        // is the framing discipline: concurrent startpoint users must not
        // interleave frames on the one wire.
        self.conn.lock().send(&frame)?;
        Ok(())
    }

    /// Request/response RSR: returns the handler's reply body.
    ///
    /// No receive deadline: a silent peer blocks this caller forever. On
    /// request paths prefer [`rsr_reply_deadline`](Self::rsr_reply_deadline)
    /// so the ORB's retry/deadline budget can bound the wait.
    pub fn rsr_reply(&self, handler: HandlerId, args: &XdrWriter) -> Result<Bytes, NexusError> {
        self.rsr_reply_deadline(handler, args, None)
    }

    /// [`rsr_reply`](Self::rsr_reply) with a receive deadline. The
    /// connection's receive timeout is armed (or disarmed, for `None`) for
    /// this exchange, so a hung server fails the call with
    /// [`TransportError::Timeout`] instead of outliving the caller's
    /// deadline budget.
    pub fn rsr_reply_deadline(
        &self,
        handler: HandlerId,
        args: &XdrWriter,
        deadline: Option<std::time::Duration>,
    ) -> Result<Bytes, NexusError> {
        let frame = Self::frame(TAG_REQUEST, handler, args);
        // ohpc-analyze: allow(guard-across-blocking) — one RSR is one
        // send/recv pair on the single connection; the mutex serializes
        // whole exchanges so concurrent callers cannot steal each other's
        // replies.
        let mut conn = self.conn.lock();
        conn.set_recv_timeout(deadline);
        conn.send(&frame)?;
        let reply = conn.recv()?;
        drop(conn);

        let mut r = XdrReader::new(&reply);
        let tag = r.get_u32().map_err(|e| NexusError::Protocol(e.to_string()))?;
        let id = r.get_u32().map_err(|e| NexusError::Protocol(e.to_string()))?;
        if id != handler.0 {
            return Err(NexusError::Protocol(format!(
                "reply for handler {id}, expected {}",
                handler.0
            )));
        }
        match tag {
            TAG_REPLY_OK => {
                let body_len = r.remaining();
                let body = r
                    .get_fixed_opaque(body_len)
                    .map_err(|e| NexusError::Protocol(e.to_string()))?;
                Ok(Bytes::copy_from_slice(body))
            }
            TAG_REPLY_ERR => {
                let msg = r.get_string().map_err(|e| NexusError::Protocol(e.to_string()))?;
                Err(NexusError::Handler(msg))
            }
            TAG_REPLY_NO_HANDLER => Err(NexusError::NoSuchHandler(id)),
            t => Err(NexusError::Protocol(format!("unknown reply tag {t}"))),
        }
    }

    fn frame(tag: u32, handler: HandlerId, args: &XdrWriter) -> Bytes {
        // Reserialize header + already-encoded args. Cloning the writer is
        // avoided by encoding args last at the call sites; here we copy the
        // encoded bytes once.
        let mut w = XdrWriter::with_capacity(8 + args.len());
        w.put_u32(tag);
        w.put_u32(handler.0);
        w.put_fixed_opaque(args.peek());
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_transport::mem::MemFabric;
    use ohpc_xdr::{XdrDecode, XdrEncode};

    fn echo_service() -> (RunningService, MemFabric) {
        let fabric = MemFabric::new();
        let listener = fabric.listen();
        let mut svc = NexusService::new();
        svc.register(HandlerId(1), |args, out| {
            let v = Vec::<i32>::decode(args).map_err(|e| e.to_string())?;
            v.encode(out);
            Ok(())
        });
        svc.register(HandlerId(2), |_args, _out| Err("deliberate failure".into()));
        (svc.start(Box::new(listener)), fabric)
    }

    #[test]
    fn request_reply_roundtrip() {
        let (svc, fabric) = echo_service();
        let sp = Startpoint::connect(&fabric, &svc.endpoint()).unwrap();
        let mut args = XdrWriter::new();
        vec![1i32, -5, 100].encode(&mut args);
        let reply = sp.rsr_reply(HandlerId(1), &args).unwrap();
        let v: Vec<i32> = ohpc_xdr::decode_from_slice(&reply).unwrap();
        assert_eq!(v, vec![1, -5, 100]);
    }

    #[test]
    fn handler_error_propagates() {
        let (svc, fabric) = echo_service();
        let sp = Startpoint::connect(&fabric, &svc.endpoint()).unwrap();
        let args = XdrWriter::new();
        assert_eq!(
            sp.rsr_reply(HandlerId(2), &args).unwrap_err(),
            NexusError::Handler("deliberate failure".into())
        );
    }

    #[test]
    fn unknown_handler_reported() {
        let (svc, fabric) = echo_service();
        let sp = Startpoint::connect(&fabric, &svc.endpoint()).unwrap();
        let args = XdrWriter::new();
        assert_eq!(sp.rsr_reply(HandlerId(99), &args).unwrap_err(), NexusError::NoSuchHandler(99));
    }

    #[test]
    fn oneway_does_not_block() {
        let (svc, fabric) = echo_service();
        let sp = Startpoint::connect(&fabric, &svc.endpoint()).unwrap();
        let mut args = XdrWriter::new();
        vec![1i32].encode(&mut args);
        sp.rsr(HandlerId(1), &args).unwrap();
        // a subsequent request/reply still works on the same connection
        let mut args2 = XdrWriter::new();
        vec![2i32].encode(&mut args2);
        assert!(sp.rsr_reply(HandlerId(1), &args2).is_ok());
    }

    #[test]
    fn sequential_requests_on_one_startpoint() {
        let (svc, fabric) = echo_service();
        let sp = Startpoint::connect(&fabric, &svc.endpoint()).unwrap();
        for i in 0..50i32 {
            let mut args = XdrWriter::new();
            vec![i, i * 2].encode(&mut args);
            let reply = sp.rsr_reply(HandlerId(1), &args).unwrap();
            let v: Vec<i32> = ohpc_xdr::decode_from_slice(&reply).unwrap();
            assert_eq!(v, vec![i, i * 2]);
        }
    }

    #[test]
    fn concurrent_startpoints() {
        let (svc, fabric) = echo_service();
        let ep = svc.endpoint();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let fabric = fabric.clone();
                let ep = ep.clone();
                std::thread::spawn(move || {
                    let sp = Startpoint::connect(&fabric, &ep).unwrap();
                    for i in 0..20i32 {
                        let mut args = XdrWriter::new();
                        vec![t, i].encode(&mut args);
                        let reply = sp.rsr_reply(HandlerId(1), &args).unwrap();
                        let v: Vec<i32> = ohpc_xdr::decode_from_slice(&reply).unwrap();
                        assert_eq!(v, vec![t, i]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn works_over_tcp() {
        use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let mut svc = NexusService::new();
        svc.register(HandlerId(1), |args, out| {
            let s = String::decode(args).map_err(|e| e.to_string())?;
            format!("echo:{s}").encode(out);
            Ok(())
        });
        let running = svc.start(Box::new(acceptor));
        let sp = Startpoint::connect(&TcpDialer, &running.endpoint()).unwrap();
        let mut args = XdrWriter::new();
        "over tcp".encode(&mut args);
        let reply = sp.rsr_reply(HandlerId(1), &args).unwrap();
        let s: String = ohpc_xdr::decode_from_slice(&reply).unwrap();
        assert_eq!(s, "echo:over tcp");
    }
}
