//! In-process channel fabric: the "shared memory protocol".
//!
//! A [`MemFabric`] is a rendezvous namespace. Listeners bind a key; dialers
//! connect by key and the fabric hands both sides a pair of unbounded
//! crossbeam channels. `send` copies the frame once into a [`Bytes`] that the
//! receiver then owns — no syscall, no second copy — which is the property
//! that makes the shared-memory protocol an order of magnitude faster than
//! the network paths in Figure 5. A frame sent in parts (`send_parts`: a
//! header and a body that was never copied behind it) is joined by that one
//! copy.
//!
//! Each direction of a connection is a [`Pipe`]: a frame queue with counted
//! ends. Either side hanging up — dropping its last handle on an end, or
//! closing — is seen by the other as [`TransportError::Closed`], and a side
//! that closes also wakes its own receiver, as a TCP `shutdown` does.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::{
    frame_len, telem, Connection, Dialer, Endpoint, Listener, RecvHalf, SendHalf, TransportError,
    MAX_FRAME,
};

/// One direction of a connection: the frames one side has sent and the
/// other has not yet received.
#[derive(Default)]
struct Pipe {
    state: std::sync::Mutex<PipeState>,
    arrived: Condvar,
}

#[derive(Default)]
struct PipeState {
    frames: VecDeque<Bytes>,
    /// Live [`PipeTx`] handles; none left means the sender hung up.
    writers: usize,
    /// Live [`PipeRx`] handles; none left means nobody will read again.
    readers: usize,
    /// The receiving side closed the connection: nothing more is delivered
    /// and nothing more accepted.
    shut: bool,
}

impl Pipe {
    fn state(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Closes this direction from the receiving side: a reader blocked on
    /// it wakes with `Closed`, and the sender's next frame is refused.
    fn shut(&self) {
        self.state().shut = true;
        self.arrived.notify_all();
    }
}

/// A counted sending end of a [`Pipe`].
struct PipeTx(Arc<Pipe>);

/// A counted receiving end of a [`Pipe`].
struct PipeRx(Arc<Pipe>);

fn pipe() -> (PipeTx, PipeRx) {
    let pipe = Arc::new(Pipe::default());
    {
        let mut st = pipe.state();
        (st.writers, st.readers) = (1, 1);
    }
    (PipeTx(pipe.clone()), PipeRx(pipe))
}

impl PipeTx {
    fn send(&self, frame: Bytes) -> Result<(), TransportError> {
        let mut st = self.0.state();
        if st.readers == 0 || st.shut {
            return Err(TransportError::Closed);
        }
        st.frames.push_back(frame);
        drop(st);
        self.0.arrived.notify_one();
        Ok(())
    }
}

impl Clone for PipeTx {
    fn clone(&self) -> Self {
        self.0.state().writers += 1;
        Self(self.0.clone())
    }
}

impl Drop for PipeTx {
    fn drop(&mut self) {
        let mut st = self.0.state();
        st.writers -= 1;
        if st.writers == 0 {
            drop(st);
            self.0.arrived.notify_all();
        }
    }
}

impl PipeRx {
    /// The next frame, waiting for it until `deadline` (for ever with
    /// `None`). Frames queued before the sender hung up are still delivered.
    fn recv(&self, deadline: Option<Instant>) -> Result<Bytes, TransportError> {
        parking_lot::assert_no_guard_held("mem recv");
        let mut st = self.0.state();
        loop {
            if st.shut {
                return Err(TransportError::Closed);
            }
            if let Some(frame) = st.frames.pop_front() {
                return Ok(frame);
            }
            if st.writers == 0 {
                return Err(TransportError::Closed);
            }
            st = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.0.arrived.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(Duration::ZERO) => return Err(TransportError::Timeout),
                Some(left) => {
                    let waited = self.0.arrived.wait_timeout(st, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }
}

impl Clone for PipeRx {
    fn clone(&self) -> Self {
        self.0.state().readers += 1;
        Self(self.0.clone())
    }
}

impl Drop for PipeRx {
    fn drop(&mut self) {
        self.0.state().readers -= 1;
    }
}

/// The one send path of a connection and of its split-off send half (whose
/// sender is gone once closed): one copy of the frame made of `parts` into a
/// [`Bytes`] the receiver will own, counted into `fabric`.
fn send_on(
    fabric: &telem::Fabric,
    tx: Option<&PipeTx>,
    parts: &[&[u8]],
) -> Result<(), TransportError> {
    parking_lot::assert_no_guard_held("mem send");
    let len = frame_len(parts);
    let r = match tx {
        _ if len > MAX_FRAME => Err(TransportError::FrameTooLarge(len)),
        None => Err(TransportError::Closed),
        Some(tx) => tx.send(joined(parts, len)),
    };
    fabric.track_send(len, r)
}

/// The receiver's own copy of the frame made of `parts`, `len` bytes long.
/// A frame in one part — every frame whose body was small enough to be
/// copied behind its header — is one allocation. One in several parts is
/// joined into a `Vec` of exactly its length that the `Bytes` adopts: a
/// second allocation, for the shared handle, where collecting the parts
/// into one shared slice would be one allocation filled a byte at a time.
fn joined(parts: &[&[u8]], len: usize) -> Bytes {
    let mut filled = parts.iter().filter(|part| !part.is_empty());
    match (filled.next(), filled.next()) {
        (None, _) => Bytes::new(),
        (Some(only), None) => Bytes::copy_from_slice(only),
        _ => {
            let mut frame = Vec::with_capacity(len);
            parts.iter().for_each(|part| frame.extend_from_slice(part));
            Bytes::from(frame)
        }
    }
}

/// Both ends of a fresh connection, counting their traffic into `fabric`:
/// the mem fabric's own, or the simulated network's, whose connections are
/// mem connections that charge the wire before each send.
pub(crate) fn pair(fabric: &'static telem::Fabric) -> (MemConnection, MemConnection) {
    let (a_tx, b_rx) = pipe();
    let (b_tx, a_rx) = pipe();
    (
        MemConnection { tx: a_tx, rx: a_rx, fabric },
        MemConnection { tx: b_tx, rx: b_rx, fabric },
    )
}

/// One side of an established connection.
pub struct MemConnection {
    tx: PipeTx,
    rx: PipeRx,
    fabric: &'static telem::Fabric,
}

impl Connection for MemConnection {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        send_on(self.fabric, Some(&self.tx), parts)
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.fabric.track_recv(self.rx.recv(None))
    }

    /// Mem splits by sharing the pipes. The send half also holds our inbound
    /// pipe — uncounted, so a peer that hangs up is still seen — to shut it
    /// on `close`.
    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        let fabric = self.fabric;
        Some((
            Box::new(MemSendHalf { tx: Some(self.tx.clone()), inbound: self.rx.0.clone(), fabric }),
            Box::new(MemRecvHalf { rx: self.rx.clone(), fabric }),
        ))
    }
}

/// Sending half of a split [`MemConnection`].
pub struct MemSendHalf {
    tx: Option<PipeTx>,
    inbound: Arc<Pipe>,
    fabric: &'static telem::Fabric,
}

impl SendHalf for MemSendHalf {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        send_on(self.fabric, self.tx.as_ref(), parts)
    }

    /// Hangs up our sending end and shuts our inbound pipe, so the paired
    /// half wakes with `Closed` even while the peer still holds its end.
    fn close(&mut self) {
        self.tx = None;
        self.inbound.shut();
    }
}

/// Receiving half of a split [`MemConnection`].
pub struct MemRecvHalf {
    rx: PipeRx,
    fabric: &'static telem::Fabric,
}

impl RecvHalf for MemRecvHalf {
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.fabric.track_recv(self.rx.recv(None))
    }

    fn recv_deadline(&mut self, deadline: Option<Instant>) -> Result<Bytes, TransportError> {
        self.fabric.track_recv(self.rx.recv(deadline))
    }

    fn ready(&self) -> bool {
        !self.rx.0.state().frames.is_empty()
    }
}

#[derive(Default)]
struct FabricState {
    listeners: HashMap<u64, Sender<MemConnection>>,
}

/// Namespace connecting in-process dialers to listeners by key.
#[derive(Clone, Default)]
pub struct MemFabric {
    state: Arc<Mutex<FabricState>>,
    next_key: Arc<AtomicU64>,
}

impl MemFabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a fresh listener with an auto-assigned key.
    pub fn listen(&self) -> MemListener {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        self.listen_on(key)
    }

    /// Binds a listener on a specific key (panics if the key is taken —
    /// key assignment is the application's responsibility).
    pub fn listen_on(&self, key: u64) -> MemListener {
        let (tx, rx) = unbounded::<MemConnection>();
        let mut st = self.state.lock();
        assert!(
            !st.listeners.contains_key(&key),
            "mem fabric key {key} already bound"
        );
        st.listeners.insert(key, tx);
        MemListener { fabric: self.clone(), key, pending: rx }
    }

    fn connect(&self, key: u64) -> Result<MemConnection, TransportError> {
        parking_lot::assert_no_guard_held("mem dial");
        let pending_tx = {
            let st = self.state.lock();
            st.listeners
                .get(&key)
                .cloned()
                .ok_or_else(|| TransportError::ConnectionRefused(format!("mem://{key}")))?
        };
        // Build both directions and hand the server its half through the
        // listener queue.
        let (client, server) = pair(&telem::MEM);
        pending_tx
            .send(server)
            .map_err(|_| TransportError::ConnectionRefused(format!("mem://{key}")))?;
        Ok(client)
    }

    fn unbind(&self, key: u64) {
        self.state.lock().listeners.remove(&key);
    }
}

impl Dialer for MemFabric {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        match endpoint {
            Endpoint::Mem(key) => Ok(Box::new(self.connect(*key)?)),
            other => Err(TransportError::WrongEndpoint(other.to_string())),
        }
    }
}

/// Accept side of a [`MemFabric`] binding. Unbinds its key on drop.
pub struct MemListener {
    fabric: MemFabric,
    key: u64,
    pending: Receiver<MemConnection>,
}

impl Listener for MemListener {
    #[expect(
        clippy::disallowed_methods,
        reason = "accept blocks until a dial arrives or the listener closes"
    )]
    fn accept(&mut self) -> Result<Box<dyn Connection>, TransportError> {
        parking_lot::assert_no_guard_held("mem accept");
        let conn = self.pending.recv().map_err(|_| TransportError::Closed)?;
        Ok(Box::new(conn))
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Mem(self.key)
    }

    fn shutdown(&self) {
        self.fabric.unbind(self.key);
    }

    fn stop_fn(&self) -> Box<dyn Fn() + Send + Sync> {
        let fabric = self.fabric.clone();
        let key = self.key;
        Box::new(move || fabric.unbind(key))
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dial_listen_roundtrip() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();

        let f2 = fabric.clone();
        let h = std::thread::spawn(move || {
            let mut c = f2.dial(&ep).unwrap();
            c.send(b"ping").unwrap();
            c.recv().unwrap()
        });

        let mut server = listener.accept().unwrap();
        assert_eq!(&server.recv().unwrap()[..], b"ping");
        server.send(b"pong").unwrap();
        assert_eq!(&h.join().unwrap()[..], b"pong");
    }

    #[test]
    fn dial_unknown_key_refused() {
        let fabric = MemFabric::new();
        assert!(matches!(
            fabric.dial(&Endpoint::Mem(42)).unwrap_err(),
            TransportError::ConnectionRefused(_)
        ));
    }

    #[test]
    fn dial_wrong_endpoint_kind() {
        let fabric = MemFabric::new();
        assert!(matches!(
            fabric.dial(&Endpoint::Tcp("x".into())).unwrap_err(),
            TransportError::WrongEndpoint(_)
        ));
    }

    #[test]
    fn close_is_visible_to_peer() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let c = fabric.dial(&ep).unwrap();
        let mut server = listener.accept().unwrap();
        drop(c);
        let errors = |op| {
            let labels = [("fabric", "mem"), ("op", op)];
            ohpc_telemetry::Registry::global().counter("transport_errors_total", &labels).get()
        };
        let (recv_errors, send_errors) = (errors("recv"), errors("send"));
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(server.send(b"x").unwrap_err(), TransportError::Closed);
        // Other tests only add to the process-wide counters.
        assert!(errors("recv") > recv_errors && errors("send") > send_errors);
    }

    #[test]
    fn shutdown_unbinds_key() {
        let fabric = MemFabric::new();
        let listener = fabric.listen_on(7);
        listener.shutdown();
        assert!(fabric.dial(&Endpoint::Mem(7)).is_err());
        // key is rebindable after shutdown
        let _l2 = fabric.listen_on(7);
        assert!(fabric.dial(&Endpoint::Mem(7)).is_ok());
    }

    #[test]
    fn drop_unbinds_key() {
        let fabric = MemFabric::new();
        {
            let _l = fabric.listen_on(9);
            assert!(fabric.dial(&Endpoint::Mem(9)).is_ok());
        }
        assert!(fabric.dial(&Endpoint::Mem(9)).is_err());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_key_panics() {
        let fabric = MemFabric::new();
        let _a = fabric.listen_on(1);
        let _b = fabric.listen_on(1);
    }

    #[test]
    fn oversized_frame_rejected() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut c = fabric.dial(&ep).unwrap();
        let _s = listener.accept().unwrap();
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(c.send(&big).unwrap_err(), TransportError::FrameTooLarge(_)));
    }

    #[test]
    fn split_halves_roundtrip_and_close_chains_to_reader() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut c = fabric.dial(&ep).unwrap();
        let (mut tx, mut rx) = c.try_split().expect("mem must split");
        drop(c);
        let mut server = listener.accept().unwrap();
        tx.send(b"halved").unwrap();
        assert_eq!(&server.recv().unwrap()[..], b"halved");
        server.send(b"ok").unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"ok");
        // Our send half closes -> our reader unblocks with Closed, and the
        // server's recv errors (and stays errored once it drops its end).
        let reader = std::thread::spawn(move || rx.recv());
        tx.close();
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        drop(server);
        assert_eq!(reader.join().unwrap().unwrap_err(), TransportError::Closed);
        assert!(matches!(tx.send(b"late").unwrap_err(), TransportError::Closed));
    }

    /// `close` wakes the paired receive half while the peer still holds its
    /// end, and the peer sees the connection closed both ways.
    #[test]
    fn close_unblocks_the_paired_half_while_the_peer_holds_on() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let mut c = fabric.dial(&listener.endpoint()).unwrap();
        let (mut tx, mut rx) = c.try_split().expect("mem must split");
        drop(c);
        let mut server = listener.accept().unwrap();
        let (woke_tx, woke) = unbounded();
        std::thread::spawn(move || woke_tx.send(rx.recv()));
        std::thread::sleep(Duration::from_millis(20));
        tx.close();
        let seen = woke.recv_timeout(Duration::from_secs(10));
        assert_eq!(seen, Ok(Err(TransportError::Closed)), "the reader stayed blocked");
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(server.send(b"late").unwrap_err(), TransportError::Closed);
    }

    /// Nothing our side holds keeps our inbound pipe open: a peer that hangs
    /// up is seen as `Closed` by a waiting half whose send half lives on.
    #[test]
    fn a_peer_that_hangs_up_is_seen_while_our_send_half_lives() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let mut c = fabric.dial(&listener.endpoint()).unwrap();
        let (mut tx, mut rx) = c.try_split().expect("mem must split");
        drop(c);
        let mut server = listener.accept().unwrap();
        server.send(b"last words").unwrap();
        drop(server);
        assert_eq!(&rx.recv().unwrap()[..], b"last words", "queued frames still arrive");
        assert_eq!(rx.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(tx.send(b"x").unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn recv_deadline_times_out_and_a_passed_one_still_takes_a_queued_frame() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let mut c = fabric.dial(&listener.endpoint()).unwrap();
        let (_tx, mut rx) = c.try_split().expect("mem must split");
        let mut server = listener.accept().unwrap();
        let soon = Instant::now() + Duration::from_millis(20);
        assert_eq!(rx.recv_deadline(Some(soon)).unwrap_err(), TransportError::Timeout);
        assert!(Instant::now() >= soon);
        assert_eq!(rx.recv_deadline(Some(soon)).unwrap_err(), TransportError::Timeout);
        server.send(b"queued").unwrap();
        assert_eq!(&rx.recv_deadline(Some(soon)).unwrap()[..], b"queued");
    }

    #[test]
    fn ready_reports_a_queued_frame_and_not_an_empty_pipe() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let mut c = fabric.dial(&listener.endpoint()).unwrap();
        let (_tx, mut rx) = c.try_split().expect("mem must split");
        let mut server = listener.accept().unwrap();
        assert!(!rx.ready(), "an empty pipe is not ready");
        server.send(b"one").unwrap();
        server.send(b"two").unwrap();
        assert!(rx.ready());
        assert_eq!(&rx.recv().unwrap()[..], b"one");
        assert!(rx.ready(), "the second frame is still queued");
        assert_eq!(&rx.recv().unwrap()[..], b"two");
        assert!(!rx.ready());
    }

    /// Parts arrive as one frame, in a buffer the receiver alone owns,
    /// whether the frame came in one part or in several.
    #[test]
    fn a_frame_sent_in_parts_arrives_joined_and_owned_by_its_receiver() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let mut c = fabric.dial(&listener.endpoint()).unwrap();
        let mut s = listener.accept().unwrap();
        let body = vec![7u8; 5000];
        let sent: [&[&[u8]]; 4] =
            [&[b"head", &body, b"tail"], &[&[], &body, &[]], &[b"one", &[]], &[&[], &[]]];
        for parts in sent {
            c.send_parts(parts).unwrap();
            let mut got = s.recv().unwrap();
            assert_eq!(&got[..], &parts.concat()[..]);
            assert!(got.is_empty() || got.unique_mut().is_some(), "the receiver shares its frame");
        }
        let big = vec![0u8; 1 << 20];
        let over = vec![&big[..]; MAX_FRAME / big.len() + 1];
        assert!(matches!(c.send_parts(&over).unwrap_err(), TransportError::FrameTooLarge(_)));
    }

    #[test]
    fn frames_preserve_order() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut c = fabric.dial(&ep).unwrap();
        let mut s = listener.accept().unwrap();
        for i in 0..100u32 {
            c.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(&s.recv().unwrap()[..], &i.to_be_bytes());
        }
    }

    #[test]
    fn multiple_clients_one_listener() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut clients: Vec<_> = (0..4u32)
            .map(|i| {
                let mut c = fabric.dial(&ep).unwrap();
                c.send(&i.to_be_bytes()).unwrap();
                c
            })
            .collect();
        let mut seen = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..4 {
            let mut s = listener.accept().unwrap();
            seen.push(u32::from_be_bytes(s.recv().unwrap()[..4].try_into().unwrap()));
            servers.push(s);
        }
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        for c in clients.iter_mut() {
            // all client halves still alive
            assert!(c.send(b"ok").is_ok());
        }
    }
}
