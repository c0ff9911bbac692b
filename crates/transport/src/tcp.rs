//! Real TCP transport with 4-byte big-endian length-prefix framing.

use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener as StdListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::{
    telem, Connection, Dialer, Endpoint, Listener, RecvHalf, SendHalf, TransportError, MAX_FRAME,
};

/// Writes one length-prefixed frame to `stream`: prefix and frame go out
/// through one vectored write, so with `TCP_NODELAY` set a frame costs one
/// syscall and one segment rather than a 4-byte segment ahead of every frame.
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> Result<(), TransportError> {
    if frame.len() > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(frame.len()));
    }
    let len = (frame.len() as u32).to_be_bytes();
    let mut parts = [IoSlice::new(&len), IoSlice::new(frame)];
    let mut unsent = &mut parts[..];
    // A write may stop anywhere, inside the prefix included.
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame from `stream`, straight into a buffer of
/// exactly the announced size (bounded by [`MAX_FRAME`]) that is never
/// zero-filled first and that `Bytes` then adopts without a copy.
fn read_frame(stream: &mut TcpStream) -> Result<Bytes, TransportError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(len));
    }
    let mut buf = Vec::with_capacity(len);
    if stream.take(len as u64).read_to_end(&mut buf)? < len {
        return Err(TransportError::Closed); // the peer hung up mid-frame
    }
    Ok(Bytes::from(buf))
}

/// A framed TCP connection.
pub struct TcpConnection {
    stream: TcpStream,
}

impl TcpConnection {
    fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }
}

impl Connection for TcpConnection {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let r = write_frame(&mut self.stream, frame);
        telem::track_send("tcp", frame.len(), r)
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        let r = read_frame(&mut self.stream);
        telem::track_recv("tcp", r)
    }

    /// TCP splits by duplicating the socket handle (`try_clone`): reads and
    /// writes on the clones hit the same connection, so a reader thread can
    /// block in `recv` while senders interleave framed writes.
    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        let send = self.stream.try_clone().ok()?;
        let recv = self.stream.try_clone().ok()?;
        Some((Box::new(TcpSendHalf { stream: send }), Box::new(TcpRecvHalf { stream: recv })))
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.stream.set_read_timeout(timeout).is_ok()
    }
}

/// Sending half of a split [`TcpConnection`].
pub struct TcpSendHalf {
    stream: TcpStream,
}

impl SendHalf for TcpSendHalf {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let r = write_frame(&mut self.stream, frame);
        telem::track_send("tcp", frame.len(), r)
    }

    /// Shuts the socket down in both directions, which unblocks a reader
    /// thread parked in `recv` on the paired half.
    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Receiving half of a split [`TcpConnection`].
pub struct TcpRecvHalf {
    stream: TcpStream,
}

impl RecvHalf for TcpRecvHalf {
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        let r = read_frame(&mut self.stream);
        telem::track_recv("tcp", r)
    }
}

/// Dialer for `tcp://` endpoints.
#[derive(Debug, Clone, Default)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                Ok(Box::new(TcpConnection::new(stream)?))
            }
            other => Err(TransportError::WrongEndpoint(other.to_string())),
        }
    }
}

/// Accepting side. Uses a non-blocking accept loop with a stop flag so
/// `shutdown` can unblock a waiting `accept` promptly.
pub struct TcpAcceptor {
    listener: StdListener,
    addr: String,
    stopped: Arc<AtomicBool>,
}

impl TcpAcceptor {
    /// Binds to `addr` (`127.0.0.1:0` picks an ephemeral port).
    pub fn bind(addr: &str) -> Result<Self, TransportError> {
        let listener = StdListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        Ok(Self { listener, addr, stopped: Arc::new(AtomicBool::new(false)) })
    }

    /// Handle that can stop the acceptor from another thread.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stopped.clone()
    }
}

impl Listener for TcpAcceptor {
    fn accept(&mut self) -> Result<Box<dyn Connection>, TransportError> {
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Box::new(TcpConnection::new(stream)?));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Tcp(self.addr.clone())
    }

    fn shutdown(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    fn stop_fn(&self) -> Box<dyn Fn() + Send + Sync> {
        let stopped = self.stopped.clone();
        Box::new(move || stopped.store(true, Ordering::Release))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_localhost() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            c.send(b"hello tcp").unwrap();
            c.recv().unwrap()
        });
        let mut server = acceptor.accept().unwrap();
        assert_eq!(&server.recv().unwrap()[..], b"hello tcp");
        server.send(b"and back").unwrap();
        assert_eq!(&h.join().unwrap()[..], b"and back");
    }

    #[test]
    fn large_frame_roundtrip() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let expect = payload.clone();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            c.send(&payload).unwrap();
        });
        let mut server = acceptor.accept().unwrap();
        assert_eq!(&server.recv().unwrap()[..], &expect[..]);
        h.join().unwrap();
    }

    #[test]
    fn refused_when_nobody_listens() {
        // A freed ephemeral port can be re-bound by another process between
        // drop and dial, so a single attempt is flaky by construction. Retry
        // with fresh ports: the test passes on the first attempt whose port
        // stayed dead, and only fails if every port was (absurdly) re-bound.
        for _ in 0..16 {
            let dead = {
                let l = StdListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().to_string()
            };
            match TcpDialer.dial(&Endpoint::Tcp(dead)) {
                Err(err) => {
                    assert!(
                        matches!(
                            err,
                            TransportError::ConnectionRefused(_) | TransportError::Io(_)
                        ),
                        "{err}"
                    );
                    return;
                }
                // Port got re-bound under us; try another one.
                Ok(conn) => drop(conn),
            }
        }
        panic!("16 freshly freed ports were all re-bound; something is wrong");
    }

    #[test]
    fn hung_peer_times_out_when_a_deadline_is_armed() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            assert!(c.set_recv_timeout(Some(Duration::from_millis(40))));
            let err = c.recv().unwrap_err();
            // Disarm works too (no way to wait forever in a test, but the
            // call must succeed).
            assert!(c.set_recv_timeout(None));
            err
        });
        // The server accepts and then hangs: never sends, never closes.
        let server = acceptor.accept().unwrap();
        let err = h.join().unwrap();
        assert_eq!(err, TransportError::Timeout);
        drop(server);
    }

    #[test]
    fn split_halves_carry_frames_and_close_unblocks_reader() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            let (mut tx, mut rx) = c.try_split().expect("tcp must split");
            drop(c);
            tx.send(b"via half").unwrap();
            let echoed = rx.recv().unwrap();
            // Reader parked in recv; closing the send half unblocks it.
            let reader = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            tx.close();
            assert!(reader.join().unwrap().is_err());
            echoed
        });
        let mut server = acceptor.accept().unwrap();
        let frame = server.recv().unwrap();
        assert_eq!(&frame[..], b"via half");
        server.send(b"back at you").unwrap();
        assert_eq!(&h.join().unwrap()[..], b"back at you");
    }

    #[test]
    fn shutdown_unblocks_accept() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let stop = acceptor.stop_handle();
        let h = std::thread::spawn(move || acceptor.accept().map(|_| ()));
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Release);
        assert_eq!(h.join().unwrap().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn peer_close_surfaces_as_closed() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let c = TcpDialer.dial(&ep).unwrap();
        let mut server = acceptor.accept().unwrap();
        drop(c);
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
    }

    /// The framing as a raw socket sees it, in both directions: what
    /// `send` puts on the wire byte for byte (an empty frame included), and
    /// how `recv` answers a peer that lies about, or abandons, a frame.
    #[test]
    fn framing_against_a_raw_peer() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let Endpoint::Tcp(addr) = acceptor.endpoint() else { panic!("tcp endpoint") };
        let peer = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr.as_str()).unwrap();
            let mut sent = [0u8; 4 + 5 + 4];
            raw.read_exact(&mut sent).unwrap();
            // A whole frame, then one whose announced 100 bytes stop at 10.
            raw.write_all(&[0, 0, 0, 2, 0xAA, 0xBB]).unwrap();
            raw.write_all(&[0, 0, 0, 100]).unwrap();
            raw.write_all(&[7; 10]).unwrap();
            sent
        });
        let mut server = acceptor.accept().unwrap();
        server.send(b"hello").unwrap();
        server.send(b"").unwrap();
        assert_eq!(&server.recv().unwrap()[..], &[0xAA, 0xBB]);
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed, "short frame");
        assert_eq!(&peer.join().unwrap(), b"\0\0\0\x05hello\0\0\0\0");

        let Endpoint::Tcp(addr) = acceptor.endpoint() else { panic!("tcp endpoint") };
        let peer = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr.as_str()).unwrap();
            raw.write_all(&(MAX_FRAME as u32 + 1).to_be_bytes()).unwrap();
            raw
        });
        let mut server = acceptor.accept().unwrap();
        assert_eq!(server.recv().unwrap_err(), TransportError::FrameTooLarge(MAX_FRAME + 1));
        drop(peer.join().unwrap());
    }

    #[test]
    fn wrong_endpoint_kind() {
        assert!(matches!(
            TcpDialer.dial(&Endpoint::Mem(1)).unwrap_err(),
            TransportError::WrongEndpoint(_)
        ));
    }
}
