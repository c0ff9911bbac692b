//! Real TCP transport with 4-byte big-endian length-prefix framing.

use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener as StdListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::{
    frame_len, telem, Connection, Dialer, Endpoint, Listener, RecvHalf, SendHalf, TransportError,
    MAX_FRAME,
};

/// Parts a frame may come in before its slice list is allocated: more than
/// any sender in this workspace uses.
const INLINE_PARTS: usize = 7;

/// Writes one length-prefixed frame made of `parts` to `stream`: prefix and
/// parts go out through one vectored write, so with `TCP_NODELAY` set a frame
/// costs one syscall and one segment rather than a 4-byte segment ahead of
/// every frame, and a body is never copied to join its header. A frame over
/// [`MAX_FRAME`] is refused before a byte of it is written.
fn write_frame(stream: &mut impl Write, parts: &[&[u8]]) -> Result<(), TransportError> {
    parking_lot::assert_no_guard_held("tcp send");
    let len = frame_len(parts);
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(len));
    }
    let prefix = (len as u32).to_be_bytes();
    let slices = std::iter::once(&prefix[..]).chain(parts.iter().copied());
    let slices = slices.filter(|s| !s.is_empty()).map(IoSlice::new);
    let mut inline = [IoSlice::new(&[]); INLINE_PARTS + 1];
    let mut spilled = Vec::new();
    let mut unsent = if parts.len() <= INLINE_PARTS {
        let mut filled = 0;
        for (slot, slice) in inline.iter_mut().zip(slices) {
            *slot = slice;
            filled += 1;
        }
        inline.get_mut(..filled).unwrap_or_default()
    } else {
        spilled.extend(slices);
        spilled.as_mut_slice()
    };
    // A write may stop anywhere, inside the prefix or between parts.
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

/// Bytes one `read` may take ahead of the frame being assembled.
const READ_BUF: usize = 16 * 1024;

/// The read side of a framed stream: a fixed buffer that each `read` fills
/// with whatever has arrived — a small frame's prefix and body in one
/// syscall, and any frames behind it, which are then served without one.
///
/// A read that fails with [`TransportError::Timeout`] loses nothing: a
/// partial prefix stays in the buffer and a partial body in `body`, and the
/// next [`read_frame`](Self::read_frame) carries on from there.
struct FrameReader {
    buf: Box<[u8]>,
    /// `buf[start..end]` is read but not yet handed out.
    start: usize,
    end: usize,
    /// The frame being read past the buffer: its announced length and the
    /// bytes of it read so far.
    body: Option<(usize, Vec<u8>)>,
}

/// A source whose bytes are never ready: reading from it hands out what is
/// already buffered and times out for the rest.
struct Expired;

impl Read for Expired {
    fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::WouldBlock.into())
    }
}

impl FrameReader {
    fn new() -> Self {
        Self { buf: vec![0; READ_BUF].into_boxed_slice(), start: 0, end: 0, body: None }
    }

    fn buffered(&self) -> &[u8] {
        self.buf.get(self.start..self.end).unwrap_or_default()
    }

    /// Reads once from `src` behind what is buffered, first moving that to
    /// the front if it has reached the buffer's end. End of stream is
    /// [`TransportError::Closed`]: the peer hung up, between frames or inside
    /// one.
    fn fill(&mut self, src: &mut impl Read) -> Result<(), TransportError> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        loop {
            match src.read(self.buf.get_mut(self.end..).unwrap_or_default()) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads one length-prefixed frame (bounded by [`MAX_FRAME`], checked
    /// before anything is allocated for it). A frame that is wholly buffered
    /// is copied out in one allocation; a larger one takes what is buffered
    /// and reads the rest straight into a buffer of exactly the announced
    /// size that is never zero-filled first and that `Bytes` then adopts.
    fn read_frame(&mut self, src: &mut impl Read) -> Result<Bytes, TransportError> {
        parking_lot::assert_no_guard_held("tcp recv");
        let (len, mut frame) = match self.body.take() {
            Some(partial) => partial,
            None => {
                let len = loop {
                    if let Some((prefix, _)) = self.buffered().split_first_chunk::<4>() {
                        break u32::from_be_bytes(*prefix) as usize;
                    }
                    self.fill(src)?;
                };
                if len > MAX_FRAME {
                    return Err(TransportError::FrameTooLarge(len));
                }
                self.start += 4;
                if let Some(frame) = self.buffered().get(..len) {
                    let frame = Bytes::copy_from_slice(frame);
                    self.start += len;
                    return Ok(frame);
                }
                let mut frame = Vec::with_capacity(len);
                frame.extend_from_slice(self.buffered());
                self.start = self.end;
                (len, frame)
            }
        };
        let rest = (len - frame.len()) as u64;
        match src.take(rest).read_to_end(&mut frame) {
            Ok(n) if (n as u64) < rest => Err(TransportError::Closed), // the peer hung up mid-frame
            Ok(_) => Ok(Bytes::from(frame)),
            Err(e) => {
                // What did arrive was appended before the error; keep it.
                self.body = Some((len, frame));
                Err(e.into())
            }
        }
    }
}

/// A framed TCP connection.
pub struct TcpConnection {
    stream: TcpStream,
    reader: FrameReader,
}

impl TcpConnection {
    fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, reader: FrameReader::new() })
    }
}

impl Connection for TcpConnection {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        let r = write_frame(&mut self.stream, parts);
        telem::TCP.track_send(frame_len(parts), r)
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        let r = self.reader.read_frame(&mut self.stream);
        telem::TCP.track_recv(r)
    }

    /// TCP splits by duplicating the socket handle (`try_clone`): reads and
    /// writes on the clones hit the same connection, so one thread can block
    /// in `recv` while others interleave framed writes. The receive
    /// half takes over this connection's read buffer, and with it any bytes
    /// already read ahead.
    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        let send = self.stream.try_clone().ok()?;
        let recv = self.stream.try_clone().ok()?;
        let reader = std::mem::replace(&mut self.reader, FrameReader::new());
        Some((
            Box::new(TcpSendHalf { stream: send }),
            Box::new(TcpRecvHalf { stream: recv, reader, armed: None }),
        ))
    }
}

/// Sending half of a split [`TcpConnection`].
pub struct TcpSendHalf {
    stream: TcpStream,
}

impl SendHalf for TcpSendHalf {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        let r = write_frame(&mut self.stream, parts);
        telem::TCP.track_send(frame_len(parts), r)
    }

    /// Shuts the socket down in both directions, which unblocks a thread
    /// parked in `recv` on the paired half.
    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Receiving half of a split [`TcpConnection`].
pub struct TcpRecvHalf {
    stream: TcpStream,
    reader: FrameReader,
    /// The read timeout the socket is armed with.
    armed: Option<Duration>,
}

impl TcpRecvHalf {
    /// Re-arms the socket's read timeout only when it changes, so receives
    /// without a deadline cost no syscall beyond the read.
    fn arm(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        if timeout != self.armed {
            self.stream.set_read_timeout(timeout)?;
            self.armed = timeout;
        }
        Ok(())
    }
}

impl RecvHalf for TcpRecvHalf {
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.recv_deadline(None)
    }

    /// Each read waits at most what is left of `deadline`, so a peer that
    /// trickles a frame in can hold the call past it. A deadline already
    /// passed still serves a frame that is wholly buffered and times out
    /// without reading otherwise (`std` refuses a zero socket timeout).
    fn recv_deadline(&mut self, deadline: Option<Instant>) -> Result<Bytes, TransportError> {
        let r = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
            Some(Duration::ZERO) => self.reader.read_frame(&mut Expired),
            left => match self.arm(left) {
                Ok(()) => self.reader.read_frame(&mut self.stream),
                Err(e) => Err(e),
            },
        };
        telem::TCP.track_recv(r)
    }

    /// Bytes already read ahead into the buffer: at least a frame's start.
    fn ready(&self) -> bool {
        !self.reader.buffered().is_empty()
    }
}

/// Dialer for `tcp://` endpoints.
#[derive(Debug, Clone, Default)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                parking_lot::assert_no_guard_held("tcp dial");
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
        parking_lot::assert_no_guard_held("tcp accept");
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

    /// A stream that hands out `data` at most `step` bytes per `read`, and
    /// counts the reads.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = self.step.min(buf.len()).min(self.data.len());
            let (now, later) = self.data.split_at(n);
            buf[..n].copy_from_slice(now);
            self.data = later;
            Ok(n)
        }
    }

    /// A [`Trickle`] that is not ready before each of its reads: every cut
    /// point, inside a prefix or a body, first times out.
    struct Stalling<'a> {
        inner: Trickle<'a>,
        stalls: usize,
        stall_next: bool,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.stall_next = !self.stall_next;
            if !self.stall_next {
                self.stalls += 1;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.inner.read(buf)
        }
    }

    fn framed(frames: &[Vec<u8>]) -> Vec<u8> {
        let prefixed = frames.iter().map(|f| [&(f.len() as u32).to_be_bytes()[..], f].concat());
        prefixed.collect::<Vec<_>>().concat()
    }

    /// Frames of every shape the reader distinguishes: empty, smaller than
    /// the prefix, a few bytes, most of the buffer, the buffer exactly (so
    /// its prefix pushes it over), and several buffers long.
    fn assorted_frames() -> Vec<Vec<u8>> {
        let patterned = |n: usize| (0..n).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>();
        [0, 1, 5, 24, READ_BUF - 100, READ_BUF, 3 * READ_BUF + 17, 2].map(patterned).to_vec()
    }

    #[test]
    fn frames_come_out_identical_however_the_bytes_arrive() {
        let frames = assorted_frames();
        let wire = framed(&frames);
        for step in [1, 2, 3, 4, 5, 7, 4096, READ_BUF, usize::MAX] {
            let mut src = Trickle { data: &wire, step, reads: 0 };
            let mut reader = FrameReader::new();
            for want in &frames {
                let got = reader.read_frame(&mut src).unwrap();
                assert_eq!(&got[..], &want[..], "step {step}, frame of {}", want.len());
            }
            assert_eq!(reader.read_frame(&mut src).unwrap_err(), TransportError::Closed);
        }
    }

    /// A sink that takes at most `step` bytes per write, across as many of
    /// the offered slices as that reaches.
    struct Dribble {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut room = self.step;
            for buf in bufs {
                let n = room.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.step - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Frames sent in parts — a head, a body, a tail, with empty parts
    /// between — through writes cut anywhere, inside the prefix and inside
    /// each part, come out of the reader whole and in order.
    #[test]
    fn frames_sent_in_parts_reassemble_however_the_writes_are_cut() {
        let patterned = |n: usize| (0..n).map(|i| (i * 13 % 251) as u8).collect::<Vec<u8>>();
        let (head, body, tail) = (patterned(37), patterned(3 * READ_BUF + 5), patterned(9));
        let frames: [&[&[u8]]; 4] = [
            &[&head, &body, &tail],
            &[&head, &[], &tail],
            &[&[], &body, &[]],
            &[&head, &head, &head, &head, &head, &head, &head, &body, &tail],
        ];
        for step in [1, 2, 3, 5, 7, 4096] {
            let mut sink = Dribble { out: Vec::new(), step };
            for parts in frames {
                write_frame(&mut sink, parts).unwrap();
            }
            let mut wire = &sink.out[..];
            let mut reader = FrameReader::new();
            for parts in frames {
                let got = reader.read_frame(&mut wire).unwrap();
                assert_eq!(&got[..], &parts.concat()[..], "step {step}, {} parts", parts.len());
            }
            assert_eq!(reader.read_frame(&mut wire).unwrap_err(), TransportError::Closed);
        }
    }

    /// A frame whose parts add up past `MAX_FRAME` is refused before any of
    /// it is written, and the connection carries the next frame intact.
    #[test]
    fn an_oversized_sum_of_parts_is_refused_with_nothing_written() {
        let mut sink = Dribble { out: Vec::new(), step: usize::MAX };
        let mib = vec![0u8; 1 << 20];
        let parts = vec![&mib[..]; MAX_FRAME / mib.len() + 1];
        let too_large = frame_len(&parts);
        assert_eq!(write_frame(&mut sink, &parts).unwrap_err(), TransportError::FrameTooLarge(too_large));
        assert!(sink.out.is_empty());

        let listener = StdListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = TcpConnection::new(stream).unwrap();
        let (mut tx, _rx) = conn.try_split().expect("tcp must split");
        assert_eq!(tx.send_parts(&parts).unwrap_err(), TransportError::FrameTooLarge(too_large));
        tx.send_parts(&[&b"still"[..], b" ", b"usable"]).unwrap();
        let mut received = TcpConnection::new(peer).unwrap();
        assert_eq!(&received.recv().unwrap()[..], b"still usable");
    }

    #[test]
    fn a_timeout_at_any_cut_point_loses_nothing() {
        let frames = assorted_frames();
        let wire = framed(&frames);
        for step in [1, 2, 3, 4, 5, 7, 4096, READ_BUF, usize::MAX] {
            let inner = Trickle { data: &wire, step, reads: 0 };
            let mut src = Stalling { inner, stalls: 0, stall_next: false };
            let mut reader = FrameReader::new();
            let mut timeouts = 0;
            let mut next = |src: &mut Stalling| loop {
                match reader.read_frame(src) {
                    Err(TransportError::Timeout) => timeouts += 1,
                    other => return other,
                }
            };
            for want in &frames {
                let got = next(&mut src).unwrap();
                assert_eq!(&got[..], &want[..], "step {step}, frame of {}", want.len());
            }
            assert_eq!(next(&mut src).unwrap_err(), TransportError::Closed);
            assert!(src.stalls > 0);
            assert_eq!(timeouts, src.stalls, "step {step}: every stall surfaced as a timeout");
        }
    }

    #[test]
    fn an_expired_read_serves_only_what_is_buffered() {
        let frames = [b"one".to_vec(), b"two".to_vec(), vec![5; 3 * READ_BUF]];
        let wire = framed(&frames);
        let mut src = Trickle { data: &wire, step: READ_BUF, reads: 0 };
        let mut reader = FrameReader::new();
        assert_eq!(&reader.read_frame(&mut src).unwrap()[..], b"one");
        assert_eq!(&reader.read_frame(&mut Expired).unwrap()[..], b"two");
        assert_eq!(reader.read_frame(&mut Expired).unwrap_err(), TransportError::Timeout);
        assert_eq!(&reader.read_frame(&mut src).unwrap()[..], &frames[2][..]);
    }

    #[test]
    fn coalesced_small_frames_cost_one_read() {
        let frames = [b"first".to_vec(), Vec::new(), b"third frame".to_vec()];
        let wire = framed(&frames);
        let mut src = Trickle { data: &wire, step: usize::MAX, reads: 0 };
        let mut reader = FrameReader::new();
        for want in &frames {
            assert_eq!(&reader.read_frame(&mut src).unwrap()[..], &want[..]);
        }
        assert_eq!(src.reads, 1, "prefixes and bodies of all three arrived in one read");
    }

    #[test]
    fn frames_read_ahead_stay_buffered_until_handed_out() {
        let frames = [b"first".to_vec(), b"second".to_vec()];
        let wire = framed(&frames);
        // One read takes both frames; a trickle takes them bit by bit.
        for step in [usize::MAX, 3] {
            let mut src = Trickle { data: &wire, step, reads: 0 };
            let mut reader = FrameReader::new();
            assert!(reader.buffered().is_empty());
            assert_eq!(&reader.read_frame(&mut src).unwrap()[..], b"first");
            assert_eq!(!reader.buffered().is_empty(), step == usize::MAX, "step {step}");
            assert_eq!(&reader.read_frame(&mut src).unwrap()[..], b"second");
            assert!(reader.buffered().is_empty(), "step {step}");
        }
    }

    #[test]
    fn end_of_stream_inside_a_frame_is_closed() {
        // Inside the body, inside the prefix, and right after a whole frame.
        for wire in [&[0, 0, 0, 100, 7, 7, 7][..], &[0, 0][..], &[0, 0, 0, 1, 9, 0][..]] {
            let mut src = Trickle { data: wire, step: usize::MAX, reads: 0 };
            let mut reader = FrameReader::new();
            let last = std::iter::repeat_with(|| reader.read_frame(&mut src)).find(Result::is_err);
            assert_eq!(last, Some(Err(TransportError::Closed)), "{wire:?}");
        }
        // A body longer than the buffer that stops short.
        let mut wire = (3 * READ_BUF as u32).to_be_bytes().to_vec();
        wire.resize(READ_BUF + 500, 1);
        let mut src = Trickle { data: &wire, step: usize::MAX, reads: 0 };
        assert_eq!(FrameReader::new().read_frame(&mut src).unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn oversized_prefix_is_refused_before_its_body_is_read() {
        let wire = framed(&[b"ok".to_vec()]);
        let wire = [&wire[..], &(MAX_FRAME as u32 + 1).to_be_bytes(), &[0xEE; 64]].concat();
        let mut src = Trickle { data: &wire, step: usize::MAX, reads: 0 };
        let mut reader = FrameReader::new();
        assert_eq!(&reader.read_frame(&mut src).unwrap()[..], b"ok");
        let err = reader.read_frame(&mut src).unwrap_err();
        assert_eq!(err, TransportError::FrameTooLarge(MAX_FRAME + 1));
    }

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
    fn split_hands_read_ahead_bytes_to_the_recv_half() {
        let listener = StdListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let wire = framed(&[b"one".to_vec(), b"two".to_vec()]);
        peer.write_all(&wire).unwrap();
        let (stream, _) = listener.accept().unwrap();
        // Both frames have arrived before the first read, so it takes both.
        let mut arrived = [0u8; 32];
        while stream.peek(&mut arrived).unwrap() < wire.len() {
            std::thread::yield_now();
        }
        let mut conn = TcpConnection::new(stream).unwrap();
        assert_eq!(&conn.recv().unwrap()[..], b"one");
        let (_tx, mut rx) = conn.try_split().expect("tcp must split");
        drop(conn);
        // The peer sends nothing more: "two" can only come from the buffer.
        assert_eq!(&rx.recv().unwrap()[..], b"two");
        drop(peer);
        assert_eq!(rx.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn ready_reports_a_read_ahead_frame_and_not_an_empty_socket() {
        let listener = StdListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = TcpConnection::new(stream).unwrap();
        let (_tx, mut rx) = conn.try_split().expect("tcp must split");
        assert!(!rx.ready(), "nothing read ahead");
        let wire = framed(&[b"one".to_vec(), b"two".to_vec()]);
        peer.write_all(&wire).unwrap();
        assert!(!rx.ready(), "bytes in the kernel are not asked for");
        // Both frames have arrived before the first read, so it takes both.
        let mut arrived = [0u8; 32];
        while conn.stream.peek(&mut arrived).unwrap() < wire.len() {
            std::thread::yield_now();
        }
        assert_eq!(&rx.recv().unwrap()[..], b"one");
        assert!(rx.ready(), "the second frame was read ahead");
        assert_eq!(&rx.recv().unwrap()[..], b"two");
        assert!(!rx.ready());
    }

    /// A deadline that cuts a large frame off halfway keeps the half: the
    /// next receive, without a deadline, hands out the frame whole.
    #[test]
    fn recv_deadline_resumes_the_frame_its_timeout_cut() {
        let listener = StdListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = TcpConnection::new(stream).unwrap();
        let (_tx, mut rx) = conn.try_split().expect("tcp must split");
        let frame: Vec<u8> = (0..3 * READ_BUF).map(|i| (i % 251) as u8).collect();
        let wire = framed(std::slice::from_ref(&frame));
        let (head, tail) = wire.split_at(wire.len() / 2);
        peer.write_all(head).unwrap();
        let passed = Instant::now();
        assert_eq!(rx.recv_deadline(Some(passed)).unwrap_err(), TransportError::Timeout);
        let soon = Some(Instant::now() + Duration::from_millis(50));
        assert_eq!(rx.recv_deadline(soon).unwrap_err(), TransportError::Timeout);
        peer.write_all(tail).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], &frame[..]);
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
