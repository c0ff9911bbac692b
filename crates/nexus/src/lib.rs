//! A minimal Nexus-style remote-service-request (RSR) layer.
//!
//! Foster, Kesselman & Tuecke's Nexus is the low-level communication library
//! the paper compares against ("a simple Nexus based communication
//! protocol"). What is Nexus about it is small, and it is all this crate
//! holds:
//!
//! * the RSR **header** — `(tag, handler)`, two XDR words in front of a
//!   payload — and its tags, defined here once; the ORB's Nexus protocol
//!   object and `Context::serve_nexus` put the same header on and take it
//!   off inside their own channel and serve loop;
//! * a [`NexusService`] (Nexus *endpoint*): a table of numbered handlers,
//!   served stand-alone on [`ohpc_transport::AcceptLoop`];
//! * a stand-alone [`Startpoint`], the client-side handle bound to a
//!   service's address: [`Startpoint::rsr`] fires a one-way remote service
//!   request, [`Startpoint::rsr_reply`] is the request/response form.
//!
//! Payloads are XDR buffers (see [`ohpc_xdr`]); the transport underneath is
//! anything implementing [`ohpc_transport::Dialer`]/`Listener`, so the same
//! code runs over real TCP, in-process channels, or the simulated network.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Test code may block and spawn: clippy.toml's rules are for serving code.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

use std::collections::HashMap;

use bytes::Bytes;
use parking_lot::Mutex;

use ohpc_transport::{AcceptLoop, Connection, Dialer, Endpoint, Listener, TransportError};
use ohpc_xdr::{XdrError, XdrReader, XdrWriter};

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

impl From<XdrError> for NexusError {
    fn from(e: XdrError) -> Self {
        NexusError::Protocol(e.to_string())
    }
}

// ------------------------------------------------------------------- header

/// A one-way request: the handler runs, nothing is sent back.
pub const TAG_ONEWAY: u32 = 1;
/// A request whose sender waits for exactly one reply frame.
pub const TAG_REQUEST: u32 = 2;
/// Reply: the handler succeeded; what it wrote follows the header.
pub const TAG_REPLY_OK: u32 = 3;
/// Reply: the handler failed; its message follows as an XDR string.
pub const TAG_REPLY_ERR: u32 = 4;
/// Reply: the service has no handler under the id; nothing follows.
pub const TAG_REPLY_NO_HANDLER: u32 = 5;

/// Encoded size of the `(tag, handler)` header every RSR frame starts with.
pub const HEADER_LEN: usize = 8;

/// Writes an RSR header; the payload is whatever is written after it.
pub fn put_header(w: &mut XdrWriter, tag: u32, handler: HandlerId) {
    w.put_u32(tag);
    w.put_u32(handler.0);
}

/// Reads an RSR header, leaving the reader at the payload.
pub fn get_header(r: &mut XdrReader<'_>) -> Result<(u32, HandlerId), XdrError> {
    Ok((r.get_u32()?, HandlerId(r.get_u32()?)))
}

/// Reads the header of a frame a service received: whether its sender waits
/// for a reply, and the handler it names. Any tag but the two request tags
/// is an error.
pub fn get_request_header(r: &mut XdrReader<'_>) -> Result<(bool, HandlerId), XdrError> {
    match get_header(r)? {
        (TAG_REQUEST, handler) => Ok((true, handler)),
        (TAG_ONEWAY, handler) => Ok((false, handler)),
        (tag, _) => Err(XdrError::InvalidDiscriminant(tag)),
    }
}

// ------------------------------------------------------------------ service

/// Handler signature: reads arguments from the request reader, writes results
/// to the reply writer, or fails with a message.
pub type Handler =
    Box<dyn Fn(&mut XdrReader<'_>, &mut XdrWriter) -> Result<(), String> + Send + Sync>;

/// Builder/holder for a service's handler table.
#[derive(Default)]
pub struct NexusService {
    handlers: HashMap<u32, Handler>,
}

/// Handle to a running service: stops accepting and joins the acceptor on
/// drop. Connection threads are detached and exit with their clients.
pub type RunningService = AcceptLoop;

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

    /// Starts serving on `listener`, each connection's handlers running on
    /// that connection's thread.
    pub fn start(self, listener: Box<dyn Listener>) -> RunningService {
        AcceptLoop::spawn(listener, move |conn| self.serve_connection(conn))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a server connection reader, on its connection's own thread"
    )]
    fn serve_connection(&self, mut conn: Box<dyn Connection>) {
        while let Ok(frame) = conn.recv() {
            let mut args = XdrReader::over_frame(&frame);
            // A frame that is not an RSR request drops the connection.
            let Ok((wants_reply, id)) = get_request_header(&mut args) else { return };
            // The handler writes behind the header, into the frame that is
            // sent: no finished body is wrapped afterwards.
            let mut reply = XdrWriter::new();
            match self.handlers.get(&id.0) {
                None => put_header(&mut reply, TAG_REPLY_NO_HANDLER, id),
                Some(handler) => {
                    put_header(&mut reply, TAG_REPLY_OK, id);
                    if let Err(msg) = handler(&mut args, &mut reply) {
                        reply = XdrWriter::new();
                        put_header(&mut reply, TAG_REPLY_ERR, id);
                        reply.put_string(&msg);
                    }
                }
            }
            if wants_reply && conn.send(reply.peek()).is_err() {
                return;
            }
        }
    }
}

// --------------------------------------------------------------- startpoint

/// Client-side handle: a Nexus *startpoint* bound to a service.
///
/// One connection, locked across one exchange: an RSR carries no correlation
/// id — only the ORB's payload does, which is why the ORB's own Nexus path
/// multiplexes and this one cannot.
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
        let header = header(TAG_ONEWAY, handler);
        self.locked(|conn| conn.send_parts(&[&header, args.peek()]))
    }

    /// Request/response RSR: returns the handler's reply body, a view of the
    /// received frame.
    ///
    /// No receive deadline: a silent peer blocks this caller forever.
    #[expect(clippy::disallowed_methods, reason = "the documented contract: no receive deadline")]
    pub fn rsr_reply(&self, handler: HandlerId, args: &XdrWriter) -> Result<Bytes, NexusError> {
        let header = header(TAG_REQUEST, handler);
        let reply = self.locked(|conn| {
            conn.send_parts(&[&header, args.peek()])?;
            conn.recv()
        })?;
        let mut r = XdrReader::new(&reply);
        let (tag, id) = get_header(&mut r)?;
        if id != handler {
            return Err(NexusError::Protocol(format!(
                "reply for handler {}, expected {}",
                id.0, handler.0
            )));
        }
        match tag {
            TAG_REPLY_OK => Ok(reply.slice(HEADER_LEN..)),
            TAG_REPLY_ERR => Err(NexusError::Handler(r.get_string()?)),
            TAG_REPLY_NO_HANDLER => Err(NexusError::NoSuchHandler(id.0)),
            t => Err(NexusError::Protocol(format!("unknown reply tag {t}"))),
        }
    }

    /// Runs one whole exchange with the connection locked — across its
    /// blocking send and receive, deliberately, so the guard is lent to the
    /// exchange: the mutex is the framing discipline. Frames must not
    /// interleave on the one wire, and with no correlation id a concurrent
    /// caller would steal this one's reply.
    fn locked<T>(
        &self,
        exchange: impl FnOnce(&mut dyn Connection) -> Result<T, TransportError>,
    ) -> Result<T, NexusError> {
        Ok(parking_lot::block_under(&mut self.conn.lock(), |conn| exchange(conn.as_mut()))?)
    }
}

/// The RSR header [`put_header`] writes, as the first part of a frame whose
/// arguments follow as the second: they leave without being copied behind
/// it.
fn header(tag: u32, handler: HandlerId) -> [u8; HEADER_LEN] {
    let ([t0, t1, t2, t3], [h0, h1, h2, h3]) = (tag.to_be_bytes(), handler.0.to_be_bytes());
    [t0, t1, t2, t3, h0, h1, h2, h3]
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
    fn the_header_part_is_what_put_header_writes() {
        let mut w = XdrWriter::new();
        put_header(&mut w, TAG_REQUEST, HandlerId(0xC0DE));
        assert_eq!(&header(TAG_REQUEST, HandlerId(0xC0DE))[..], w.peek());
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
