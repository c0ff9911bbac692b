//! Byte transports for the Open HPC++ ORB.
//!
//! A *protocol object* in the ORB owns the request semantics (framing of
//! headers, capability processing); this crate owns only moving opaque frames
//! between contexts. Three fabrics implement the same [`Connection`] /
//! [`Dialer`] / [`Listener`] contract:
//!
//! * [`mem`] — crossbeam-channel pairs inside one process: the
//!   "shared memory protocol" of the paper;
//! * [`tcp`] — real TCP with 4-byte length-prefix framing;
//! * [`sim`] — mem connections whose sends are first *charged to virtual
//!   time* through [`ohpc_netsim::SimNet`], reproducing the paper's testbed.
//!
//! All connections move whole frames (length ≤ [`MAX_FRAME`]); a frame is the
//! unit the ORB's request/reply marshaling produces. A sender may hand a
//! frame over in parts ([`Connection::send_parts`]), so that a body leaves
//! without first being copied behind its header.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Test code may block and spawn: clippy.toml's rules are for serving code.
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod mem;
pub mod mux;
pub mod sim;
pub mod tcp;
pub mod testing;

/// Fabric-level telemetry: every fabric funnels its send/recv outcomes
/// through one [`Fabric`](telem::Fabric) static so the metric names and label
/// sets cannot drift between mem/tcp/sim. Each static resolves its counters
/// once; recording a frame is then two atomic adds and a trace event with no
/// lookup and no allocation, so it is safe on the hot path.
pub(crate) mod telem {
    use std::sync::{Arc, OnceLock};

    use bytes::Bytes;
    use ohpc_telemetry::{Counter, Registry};

    use super::TransportError;

    /// The per-frame counters of one fabric.
    struct Traffic {
        send_bytes: Arc<Counter>,
        send_frames: Arc<Counter>,
        recv_bytes: Arc<Counter>,
        recv_frames: Arc<Counter>,
    }

    /// One fabric's telemetry funnel.
    pub(crate) struct Fabric {
        name: &'static str,
        traffic: OnceLock<Traffic>,
    }

    /// The in-process channel fabric.
    pub(crate) static MEM: Fabric = Fabric::new("mem");
    /// Real TCP.
    pub(crate) static TCP: Fabric = Fabric::new("tcp");
    /// The virtual-time simulated network.
    pub(crate) static SIM: Fabric = Fabric::new("sim");

    impl Fabric {
        const fn new(name: &'static str) -> Self {
            Self { name, traffic: OnceLock::new() }
        }

        fn traffic(&self) -> &Traffic {
            self.traffic.get_or_init(|| {
                let counter = |name| Registry::global().counter(name, &[("fabric", self.name)]);
                Traffic {
                    send_bytes: counter("transport_send_bytes_total"),
                    send_frames: counter("transport_send_frames_total"),
                    recv_bytes: counter("transport_recv_bytes_total"),
                    recv_frames: counter("transport_recv_frames_total"),
                }
            })
        }

        /// The failure path: counted by name, with the error as text.
        fn fail(&self, op: &'static str, event: &str, err: &TransportError) {
            let registry = Registry::global();
            registry.counter("transport_errors_total", &[("fabric", self.name), ("op", op)]).inc();
            // Deadline-driven timeouts (and sim timeouts, which surface as Io
            // errors) are counted separately so a flaky link is
            // distinguishable from a dead one.
            let timed_out = matches!(err, TransportError::Timeout)
                || matches!(err, TransportError::Io(msg) if msg.contains("timed out"));
            if timed_out {
                registry.counter("transport_timeouts_total", &[("fabric", self.name)]).inc();
            }
            let text = err.to_string();
            ohpc_telemetry::trace_event(
                event,
                &[("fabric", self.name.into()), ("err", text.as_str().into())],
            );
        }

        /// Record the outcome of a send of `n` bytes and pass the result
        /// through. When the sending thread is inside an active trace scope,
        /// the send also lands in the flight recorder as a zero-duration
        /// event.
        pub(crate) fn track_send(
            &self,
            n: usize,
            r: Result<(), TransportError>,
        ) -> Result<(), TransportError> {
            match &r {
                Ok(()) => self.sent(n),
                Err(e) => self.fail("send", "transport_send_error", e),
            }
            r
        }

        /// [`track_send`](Self::track_send) for a batch sent in one go:
        /// counted, and traced, as the frames it carries.
        pub(crate) fn track_sends(
            &self,
            frames: &[&[&[u8]]],
            r: Result<(), TransportError>,
        ) -> Result<(), TransportError> {
            match &r {
                Ok(()) => frames.iter().for_each(|parts| self.sent(super::frame_len(parts))),
                Err(e) => self.fail("send", "transport_send_error", e),
            }
            r
        }

        /// One frame of `n` bytes sent.
        fn sent(&self, n: usize) {
            let traffic = self.traffic();
            traffic.send_bytes.add(n as u64);
            traffic.send_frames.inc();
            ohpc_telemetry::trace_event(
                "transport_send",
                &[("fabric", self.name.into()), ("bytes", n.into())],
            );
        }

        /// Record the outcome of a recv and pass the result through.
        pub(crate) fn track_recv(
            &self,
            r: Result<Bytes, TransportError>,
        ) -> Result<Bytes, TransportError> {
            match &r {
                Ok(frame) => {
                    let traffic = self.traffic();
                    traffic.recv_bytes.add(frame.len() as u64);
                    traffic.recv_frames.inc();
                    ohpc_telemetry::trace_event(
                        "transport_recv",
                        &[("fabric", self.name.into()), ("bytes", frame.len().into())],
                    );
                }
                Err(e) => self.fail("recv", "transport_recv_error", e),
            }
            r
        }
    }
}

use bytes::Bytes;
use std::fmt;

/// Hard cap on a single frame: matches the XDR decoder's length limit plus
/// slack for headers.
pub const MAX_FRAME: usize = (64 << 20) + 4096;

/// Where a listener can be reached. Carried inside Object References as
/// protocol-specific "proto-data".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// TCP socket address, e.g. `127.0.0.1:7788`.
    Tcp(String),
    /// In-process channel fabric key.
    Mem(u64),
    /// Simulated-network address: (machine, port) on a shared [`sim::SimFabric`].
    Sim {
        /// Machine hosting the listener.
        machine: u32,
        /// Port within that machine's fabric namespace.
        port: u32,
    },
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp://{a}"),
            Endpoint::Mem(k) => write!(f, "mem://{k}"),
            Endpoint::Sim { machine, port } => write!(f, "sim://M{machine}:{port}"),
        }
    }
}

impl Endpoint {
    /// Parses the string form produced by `Display` — the representation
    /// Object References carry as proto-data.
    pub fn parse(s: &str) -> Option<Endpoint> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            return Some(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(key) = s.strip_prefix("mem://") {
            return key.parse().ok().map(Endpoint::Mem);
        }
        if let Some(rest) = s.strip_prefix("sim://M") {
            let (machine, port) = rest.split_once(':')?;
            return Some(Endpoint::Sim { machine: machine.parse().ok()?, port: port.parse().ok()? });
        }
        None
    }
}

/// Transport-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No listener at the endpoint.
    ConnectionRefused(String),
    /// Peer hung up (or listener shut down).
    Closed,
    /// OS-level I/O failure (TCP only).
    Io(String),
    /// Outgoing or incoming frame exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Endpoint variant not supported by this dialer.
    WrongEndpoint(String),
    /// A receive deadline elapsed before a frame arrived. The peer may still
    /// be alive (merely slow), and the request may still be executed — the
    /// caller decides whether that ambiguity is retryable.
    Timeout,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::ConnectionRefused(e) => write!(f, "connection refused: {e}"),
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
            TransportError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            TransportError::WrongEndpoint(e) => write!(f, "wrong endpoint kind: {e}"),
            TransportError::Timeout => write!(f, "timed out waiting for a frame"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::ConnectionRefused => {
                TransportError::ConnectionRefused(e.to_string())
            }
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe => TransportError::Closed,
            // A socket with a read timeout reports `WouldBlock` on Unix and
            // `TimedOut` on Windows when the deadline elapses.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::Timeout
            }
            _ => TransportError::Io(e.to_string()),
        }
    }
}

/// The length of the frame made of `parts`.
pub(crate) fn frame_len(parts: &[&[u8]]) -> usize {
    parts.iter().map(|part| part.len()).sum()
}

/// A bidirectional, frame-oriented connection.
pub trait Connection: Send {
    /// Sends one frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Sends one frame made of `parts`, in order — a header, a body as it
    /// is, a trailer — exactly as [`send`](Self::send) sends their
    /// concatenation: the receiver sees one frame. The default joins the
    /// parts and calls `send`; the mem, TCP and sim fabrics write the parts
    /// out without joining them first.
    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.send(&parts.concat())
    }

    /// Receives one frame, blocking until available or the peer closes.
    fn recv(&mut self) -> Result<Bytes, TransportError>;

    /// Splits this connection into independent send/receive halves, so one
    /// thread can block in `recv` while others send — the prerequisite for
    /// request multiplexing ([`mux::MuxChannel`]). The halves alias the same
    /// underlying connection; after a successful split the original handle
    /// should be dropped.
    ///
    /// Every connection the ORB serves or dials must split: mem, TCP and sim
    /// connections do, and so do the fault-injection wrappers around them.
    /// The default refuses (`None`); a client dial that cannot split fails,
    /// and a server hangs up on such a connection.
    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        None
    }

    /// Arms (or with `None` disarms) a receive deadline: a subsequent `recv`
    /// that waits longer than `timeout` fails with
    /// [`TransportError::Timeout`]. Returns `false` when the transport
    /// cannot enforce deadlines (the default).
    ///
    /// A connection whose `recv` timed out may have a partially received
    /// frame buffered; callers must discard it rather than reuse it.
    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> bool {
        let _ = timeout;
        false
    }
}

/// The sending half of a split [`Connection`].
pub trait SendHalf: Send {
    /// Sends one frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Sends one frame made of `parts`, as
    /// [`Connection::send_parts`] does; the default likewise joins them and
    /// calls [`send`](Self::send).
    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.send(&parts.concat())
    }

    /// Sends `frames`, each made of parts as for
    /// [`send_parts`](Self::send_parts), in order: the receiver sees them as
    /// that many frames. The default sends them one
    /// [`send_parts`](Self::send_parts) at a time and stops at the first
    /// that fails; the TCP half writes them all in one vectored write, after
    /// checking each against [`MAX_FRAME`]. Telemetry counts every frame.
    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> Result<(), TransportError> {
        frames.iter().try_for_each(|parts| self.send_parts(parts))
    }

    /// Tears the connection down so the peer (and the paired
    /// [`RecvHalf`], possibly blocked in `recv` on another thread) observes
    /// [`TransportError::Closed`].
    fn close(&mut self);
}

/// The receiving half of a split [`Connection`].
pub trait RecvHalf: Send {
    /// Receives one frame, blocking until available or the peer closes.
    fn recv(&mut self) -> Result<Bytes, TransportError>;

    /// [`recv`](Self::recv) that gives up with [`TransportError::Timeout`]
    /// once `deadline` passes (`None`: no deadline). A deadline already
    /// passed times out at once. A timed-out receive loses nothing: the next
    /// call picks up where it stopped, inside a frame included.
    ///
    /// The default ignores `deadline` and calls `recv`, so it blocks until a
    /// frame arrives or the peer closes; the `mem` (and so `sim`) and `tcp`
    /// halves override it.
    #[expect(
        clippy::disallowed_methods,
        reason = "the documented default: it blocks, and a half that can time out overrides it"
    )]
    fn recv_deadline(
        &mut self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Bytes, TransportError> {
        let _ = deadline;
        self.recv()
    }

    /// Whether the next frame, or the start of it, has already arrived, so
    /// that [`recv`](Self::recv) would not wait for it. A hint for a reader
    /// deciding whether it can stop reading for a while: more is coming.
    ///
    /// The default says `false`: nothing known to be waiting. The `mem` half
    /// reads whether its pipe holds a frame and the `tcp` half whether its
    /// read buffer holds bytes; neither asks the kernel.
    fn ready(&self) -> bool {
        false
    }
}

impl fmt::Debug for dyn Connection + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Connection")
    }
}

/// Client side: opens connections to endpoints.
pub trait Dialer: Send + Sync {
    /// Connects to `endpoint`.
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError>;
}

/// Server side: accepts connections.
pub trait Listener: Send {
    /// Blocks until a client connects or the listener is shut down.
    fn accept(&mut self) -> Result<Box<dyn Connection>, TransportError>;
    /// The endpoint clients should dial.
    fn endpoint(&self) -> Endpoint;
    /// Unblocks pending/future `accept` calls with [`TransportError::Closed`].
    fn shutdown(&self);
    /// A detached closure performing [`shutdown`](Self::shutdown), usable
    /// from another thread while the accept loop owns the listener.
    fn stop_fn(&self) -> Box<dyn Fn() + Send + Sync>;
}

/// A running accept loop: one acceptor thread handing every accepted
/// connection to `serve` on a thread of its own. The one place a listener
/// turns into threads — `Context::serve*` and the stand-alone Nexus service
/// both run on it. Dropping the handle stops the listener and joins the
/// acceptor; connection threads are detached and end when `serve` returns
/// (their clients hang up, or `serve` gives up on them).
pub struct AcceptLoop {
    endpoint: Endpoint,
    stop_listener: Box<dyn Fn() + Send + Sync>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl AcceptLoop {
    /// Starts accepting on `listener`.
    #[expect(
        clippy::disallowed_methods,
        reason = "one acceptor thread per listener and one thread per connection, bounded by clients, not by requests"
    )]
    pub fn spawn(
        mut listener: Box<dyn Listener>,
        serve: impl Fn(Box<dyn Connection>) + Send + Sync + 'static,
    ) -> Self {
        let endpoint = listener.endpoint();
        let stop_listener = listener.stop_fn();
        let serve = std::sync::Arc::new(serve);
        let acceptor = std::thread::spawn(move || {
            // Joining the connection threads here would deadlock shutdown
            // while any client still holds a cached connection.
            while let Ok(conn) = listener.accept() {
                let serve = serve.clone();
                std::thread::spawn(move || serve(conn));
            }
        });
        Self { endpoint, stop_listener, acceptor: Some(acceptor) }
    }

    /// The endpoint clients should dial.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Stops the listener: the acceptor's pending `accept` fails and the
    /// loop ends. Established connections are `serve`'s business.
    pub fn stop(&self) {
        (self.stop_listener)();
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
        // `serve` may own the last handle to whatever owns this loop (a
        // context serving itself), which is then dropped on the acceptor
        // thread as it exits: that thread must not wait for itself.
        if let Some(acceptor) = self.acceptor.take() {
            if acceptor.thread().id() != std::thread::current().id() {
                let _ = acceptor.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::Tcp("1.2.3.4:80".into()).to_string(), "tcp://1.2.3.4:80");
        assert_eq!(Endpoint::Mem(7).to_string(), "mem://7");
        assert_eq!(Endpoint::Sim { machine: 2, port: 9 }.to_string(), "sim://M2:9");
    }

    #[test]
    fn endpoint_parse_roundtrip() {
        for ep in [
            Endpoint::Tcp("127.0.0.1:8080".into()),
            Endpoint::Mem(42),
            Endpoint::Sim { machine: 3, port: 17 },
        ] {
            assert_eq!(Endpoint::parse(&ep.to_string()), Some(ep));
        }
        assert_eq!(Endpoint::parse("bogus://x"), None);
        assert_eq!(Endpoint::parse("sim://M3"), None);
        assert_eq!(Endpoint::parse("mem://notanumber"), None);
    }

    #[test]
    fn io_error_mapping() {
        use std::io::{Error, ErrorKind};
        assert!(matches!(
            TransportError::from(Error::new(ErrorKind::ConnectionRefused, "x")),
            TransportError::ConnectionRefused(_)
        ));
        assert_eq!(
            TransportError::from(Error::new(ErrorKind::UnexpectedEof, "x")),
            TransportError::Closed
        );
        assert!(matches!(
            TransportError::from(Error::new(ErrorKind::PermissionDenied, "x")),
            TransportError::Io(_)
        ));
        // A read deadline elapsing surfaces as WouldBlock (unix) or TimedOut
        // (windows); both must map to the dedicated Timeout variant.
        assert_eq!(
            TransportError::from(Error::new(ErrorKind::WouldBlock, "x")),
            TransportError::Timeout
        );
        assert_eq!(
            TransportError::from(Error::new(ErrorKind::TimedOut, "x")),
            TransportError::Timeout
        );
    }

    #[test]
    fn timeout_display_mentions_timeout() {
        assert!(TransportError::Timeout.to_string().contains("timed out"));
    }

    #[test]
    fn split_and_recv_timeout_default_to_unsupported() {
        struct Fixed;
        impl Connection for Fixed {
            fn send(&mut self, _frame: &[u8]) -> Result<(), TransportError> {
                Ok(())
            }
            fn recv(&mut self) -> Result<Bytes, TransportError> {
                Err(TransportError::Closed)
            }
        }
        let mut c: Box<dyn Connection> = Box::new(Fixed);
        assert!(c.try_split().is_none());
        assert!(!c.set_recv_timeout(Some(std::time::Duration::from_millis(1))));
    }

    /// A connection that overrides only `send` still takes frames in parts:
    /// the default joins them into the one frame `send` gets.
    #[test]
    fn send_parts_defaults_to_sending_the_joined_frame() {
        struct Recording(Vec<Vec<u8>>);
        impl SendHalf for Recording {
            fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
                self.0.push(frame.to_vec());
                Ok(())
            }
            fn close(&mut self) {}
        }
        let mut half = Recording(Vec::new());
        half.send_parts(&[&b"head"[..], &[], b"body", b"tail"]).unwrap();
        half.send_parts(&[]).unwrap();
        assert_eq!(half.0, [b"headbodytail".to_vec(), Vec::new()]);
    }

    /// A half that overrides neither sends a batch of frames exactly as
    /// consecutive `send_parts` would: one joined frame per entry, in order.
    #[test]
    fn send_frames_defaults_to_consecutive_send_parts() {
        struct Recording(Vec<Vec<u8>>);
        impl SendHalf for Recording {
            fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
                self.0.push(frame.to_vec());
                Ok(())
            }
            fn close(&mut self) {}
        }
        let frames: [&[&[u8]]; 3] = [&[b"one", b"-a"], &[], &[&b"two"[..], &[], b"-b"]];
        let mut batched = Recording(Vec::new());
        batched.send_frames(&frames).unwrap();
        let mut one_by_one = Recording(Vec::new());
        frames.iter().for_each(|parts| one_by_one.send_parts(parts).unwrap());
        assert_eq!(batched.0, one_by_one.0);
        assert_eq!(batched.0, [b"one-a".to_vec(), Vec::new(), b"two-b".to_vec()]);
    }

}
