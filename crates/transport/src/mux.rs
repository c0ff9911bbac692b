//! Per-endpoint request multiplexing.
//!
//! A [`MuxChannel`] owns one split connection and keeps N requests in
//! flight on it at once: the writer lock is held only for the framed send,
//! and a dedicated reader thread demultiplexes reply frames to waiting
//! callers by a caller-supplied correlation id (the ORB uses the request
//! id). This replaces the serialized lock-across-the-exchange pattern — N
//! concurrent invocations to one endpoint used to mean N queued exchanges;
//! with the mux they overlap on a single connection.
//!
//! Failure semantics are phase-precise, mirroring the ORB's retry taxonomy:
//!
//! * [`MuxError::Unsent`] — the frame provably never left this process
//!   (channel already dead, writer gone, or the send itself failed). Always
//!   safe to retry.
//! * [`MuxError::Lost`] — the frame was handed to the fabric but no reply
//!   will arrive (reader died mid-flight, or the caller's deadline
//!   elapsed). The server may have executed the request; only idempotent
//!   requests may retry.
//!
//! When the reader thread dies — of a transport error, or of a frame it
//! cannot correlate — **every** waiter is failed promptly: a dead mux never
//! leaves a caller blocked. An optional death hook lets the owner feed the
//! failure into circuit-breaker health, so a dead mux trips the same breaker
//! a dead exchange does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::{RecvHalf, SendHalf, TransportError};

/// Extracts the correlation id from a reply frame. `None` — the frame carries
/// no recognizable id — is a protocol violation the channel dies of, failing
/// every waiter: one of them sent the request this frame answers.
pub type Correlator = Box<dyn Fn(&Bytes) -> Option<u64> + Send + Sync>;

/// Invoked (once) when the reader thread dies from a transport error —
/// *not* on deliberate [`MuxChannel::shutdown`]. Owners feed this into
/// endpoint health.
pub type DeathHook = Box<dyn Fn(&TransportError) + Send + Sync>;

/// How a multiplexed call failed, split by whether the request frame was
/// already on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxError {
    /// The frame never left this process; retrying is always safe.
    Unsent(TransportError),
    /// The frame was sent but no reply will arrive; the server may have
    /// executed the request.
    Lost(TransportError),
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuxError::Unsent(e) => write!(f, "mux send failed (frame not sent): {e}"),
            MuxError::Lost(e) => write!(f, "mux reply lost (frame was sent): {e}"),
        }
    }
}

/// A registered waiter: a one-shot reply slot in the waiter map. The caller
/// parks on its own thread handle; whoever resolves the request (the reader
/// delivering a reply, or the channel dying) fills `outcome` under the
/// `pending` lock and unparks it, and the caller takes the slot out of the
/// map. No per-call channel, no allocation.
struct Waiter {
    caller: Thread,
    outcome: Option<Result<Bytes, TransportError>>,
    /// The trace context current on the calling thread at registration. The
    /// demux reader thread serves every caller and has no trace scope of its
    /// own, so the context is carried across the thread boundary here and
    /// re-installed at delivery.
    trace: Option<ohpc_telemetry::TraceContext>,
}

struct PendingState {
    waiters: HashMap<u64, Waiter>,
    /// Set exactly once, under the `pending` lock, when the channel dies;
    /// registration checks it under the same lock, so no waiter can slip in
    /// after the drain and hang.
    dead: Option<TransportError>,
}

/// A multiplexed channel over one split connection. See the module docs.
pub struct MuxChannel {
    sender: Mutex<Option<Box<dyn SendHalf>>>,
    pending: Mutex<PendingState>,
    /// Waiters registered and not yet resolved. `mux_in_flight` is the sum of
    /// this over every channel in the process.
    in_flight: AtomicI64,
    closing: AtomicBool,
}

impl MuxChannel {
    /// Wraps the split halves of a connection and spawns the demux reader
    /// thread. `correlator` maps each incoming frame to its waiter;
    /// `on_death` (if any) observes reader failures (but not deliberate
    /// shutdowns).
    ///
    /// The reader holds a reference to the channel, so the channel lives
    /// until [`shutdown`](Self::shutdown) (or the peer closing) unblocks it.
    pub fn spawn(
        send: Box<dyn SendHalf>,
        recv: Box<dyn RecvHalf>,
        correlator: Correlator,
        on_death: Option<DeathHook>,
    ) -> Arc<MuxChannel> {
        let chan = Arc::new(MuxChannel {
            sender: Mutex::new(Some(send)),
            pending: Mutex::new(PendingState { waiters: HashMap::new(), dead: None }),
            in_flight: AtomicI64::new(0),
            closing: AtomicBool::new(false),
        });
        let reader_chan = chan.clone();
        std::thread::spawn(move || reader_loop(reader_chan, recv, correlator, on_death));
        chan
    }

    /// One multiplexed request/reply: registers `id`, sends `frame` (writer
    /// lock held only for the send), and waits — up to `timeout`, forever
    /// with `None` — for the reader thread to deliver the correlated reply.
    pub fn call(
        &self,
        id: u64,
        frame: &[u8],
        timeout: Option<Duration>,
    ) -> Result<Bytes, MuxError> {
        self.register(id)?;
        self.call_registered(id, frame, timeout)
    }

    /// [`call`](Self::call) from the point where the waiter is registered:
    /// whatever happens to the channel from here until the send returns
    /// leaves the frame provably unsent.
    fn call_registered(
        &self,
        id: u64,
        frame: &[u8],
        timeout: Option<Duration>,
    ) -> Result<Bytes, MuxError> {
        if let Err(e) = self.send_frame(frame) {
            // The frame never went out; the waiter slot must not linger.
            self.unregister(id);
            return Err(MuxError::Unsent(e));
        }
        ohpc_telemetry::counter!("mux_requests_total").inc();
        let t0 = Instant::now();
        let outcome = self.wait(id, timeout);
        ohpc_telemetry::histogram!("mux_demux_wait_ns")
            .observe_linked(t0.elapsed().as_nanos() as u64);
        outcome
    }

    /// Sends a frame that expects no reply (one-way requests). Failure is
    /// always [`MuxError::Unsent`]: a one-way either left the process or it
    /// did not.
    pub fn send_only(&self, frame: &[u8]) -> Result<(), MuxError> {
        if let Some(e) = self.dead_error() {
            return Err(MuxError::Unsent(e));
        }
        self.send_frame(frame).map_err(MuxError::Unsent)?;
        ohpc_telemetry::counter!("mux_oneways_total").inc();
        ohpc_telemetry::trace_event("mux_send_oneway", &[("bytes", frame.len().into())]);
        Ok(())
    }

    /// Whether the reader has died (or the channel was shut down). A dead
    /// channel fails every call; owners should evict and re-dial.
    pub fn is_dead(&self) -> bool {
        self.dead_error().is_some()
    }

    /// Requests currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed).max(0) as usize
    }

    /// Deliberate teardown: closes the send half (unblocking the reader
    /// thread through the transport) and fails any in-flight waiters with
    /// [`TransportError::Closed`]. Idempotent. Does not fire the death hook.
    pub fn shutdown(&self) {
        self.closing.store(true, Ordering::Release);
        if let Some(mut tx) = self.sender.lock().take() {
            tx.close();
        }
        self.die(TransportError::Closed);
    }

    // ------------------------------------------------------------ internals

    fn dead_error(&self) -> Option<TransportError> {
        self.pending.lock().dead.clone()
    }

    /// `n` waiters stopped waiting (resolved, or withdrawn unresolved).
    fn settled(&self, n: usize) {
        self.in_flight.fetch_sub(n as i64, Ordering::Relaxed);
        ohpc_telemetry::gauge!("mux_in_flight").sub(n as i64);
    }

    /// Registers the calling thread's waiter slot. The dead-check and the
    /// insert happen under one lock acquisition, so a concurrently dying
    /// reader either fails this registration or resolves it — a waiter can
    /// never be stranded.
    fn register(&self, id: u64) -> Result<(), MuxError> {
        let mut st = self.pending.lock();
        if let Some(e) = st.dead.clone() {
            return Err(MuxError::Unsent(e));
        }
        if st.waiters.contains_key(&id) {
            return Err(MuxError::Unsent(TransportError::Io(format!(
                "duplicate in-flight request id {id}"
            ))));
        }
        let caller = std::thread::current();
        st.waiters.insert(id, Waiter { caller, outcome: None, trace: ohpc_telemetry::current() });
        drop(st);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        ohpc_telemetry::gauge!("mux_in_flight").add(1);
        Ok(())
    }

    /// Takes the caller's slot out of the map, with whatever outcome it
    /// holds. A slot withdrawn unresolved stops counting as in flight here;
    /// a resolved one already did when it was resolved.
    fn unregister(&self, id: u64) -> Option<Result<Bytes, TransportError>> {
        let slot = self.pending.lock().waiters.remove(&id);
        match slot {
            Some(Waiter { outcome: None, .. }) => {
                self.settled(1);
                None
            }
            Some(Waiter { outcome, .. }) => outcome,
            None => None,
        }
    }

    /// The framed send; the writer lock is held only for this.
    fn send_frame(&self, frame: &[u8]) -> Result<(), TransportError> {
        // ohpc-analyze: allow(guard-across-blocking) — the sender mutex
        // exists precisely to serialize whole frames onto the shared wire;
        // it guards nothing else and is held for exactly one send.
        let mut guard = self.sender.lock();
        match guard.as_mut() {
            None => Err(TransportError::Closed),
            Some(tx) => tx.send(frame),
        }
    }

    /// Parks until the caller's slot is resolved or `timeout` runs out, then
    /// takes the slot. `park` may return early or late; the slot, read under
    /// the lock, is the only truth.
    fn wait(&self, id: u64, timeout: Option<Duration>) -> Result<Bytes, MuxError> {
        let deadline = timeout.map(|d| Instant::now() + d);
        loop {
            let resolved = match self.pending.lock().waiters.get(&id) {
                Some(w) => w.outcome.is_some(),
                // The slot vanished without us taking it: only possible if
                // the channel state was torn down; treat as a lost reply.
                None => return Err(MuxError::Lost(TransportError::Closed)),
            };
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if resolved || left == Some(Duration::ZERO) {
                // On a timeout the reply (or the channel's death) may still
                // have raced us into the slot; whatever is there wins.
                return match self.unregister(id) {
                    Some(Ok(frame)) => Ok(frame),
                    // Reader died after our frame was sent: the reply is lost.
                    Some(Err(e)) => Err(MuxError::Lost(e)),
                    None => Err(MuxError::Lost(TransportError::Timeout)),
                };
            }
            match left {
                None => std::thread::park(),
                Some(d) => std::thread::park_timeout(d),
            }
        }
    }

    /// Routes one reply frame to its waiter (reader thread only).
    fn deliver(&self, id: u64, frame: Bytes) {
        let mut st = self.pending.lock();
        let Some(w) = st.waiters.get_mut(&id).filter(|w| w.outcome.is_none()) else {
            // The caller gave up (deadline) before the reply arrived, or
            // this is a second reply to an id already answered.
            drop(st);
            ohpc_telemetry::counter!("mux_orphan_replies_total").inc();
            return;
        };
        // Recorded before the slot is filled (a wait-free write into the
        // flight recorder), so the event always precedes what the caller
        // does with the reply.
        if let Some(ctx) = w.trace.take() {
            let _t = ohpc_telemetry::install(ctx);
            ohpc_telemetry::trace_event("mux_demux_recv", &[("bytes", frame.len().into())]);
        }
        let caller = w.caller.clone();
        // Settled before the slot is filled: a caller that has its reply
        // never finds itself still counted as in flight.
        self.settled(1);
        w.outcome = Some(Ok(frame));
        drop(st);
        caller.unpark();
    }

    /// Marks the channel dead and fails every unresolved waiter. Idempotent;
    /// the first cause wins.
    fn die(&self, cause: TransportError) {
        let mut st = self.pending.lock();
        if st.dead.is_none() {
            st.dead = Some(cause.clone());
        }
        let unresolved = st.waiters.values_mut().filter(|w| w.outcome.is_none());
        let failed: Vec<Thread> = unresolved
            .map(|w| {
                w.outcome = Some(Err(cause.clone()));
                w.caller.clone()
            })
            .collect();
        // Under the lock, as in `deliver`: no caller can read its failed
        // slot before it has stopped counting as in flight.
        self.settled(failed.len());
        drop(st);
        for caller in failed {
            caller.unpark();
        }
    }
}

fn reader_loop(
    chan: Arc<MuxChannel>,
    mut rx: Box<dyn RecvHalf>,
    correlator: Correlator,
    on_death: Option<DeathHook>,
) {
    let cause = loop {
        match rx.recv() {
            Ok(frame) => match correlator(&frame) {
                Some(id) => chan.deliver(id, frame),
                // The peer is not speaking this channel's protocol: whoever
                // the frame was meant for would wait for ever, and no later
                // frame can be trusted to reach the right waiter either.
                None => break TransportError::Io("reply frame carries no correlation id".into()),
            },
            Err(e) => break e,
        }
    };
    let deliberate = chan.closing.load(Ordering::Acquire);
    chan.die(cause.clone());
    if !deliberate {
        ohpc_telemetry::counter!("mux_reader_deaths_total").inc();
        if let Some(hook) = &on_death {
            hook(&cause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver, Sender};

    /// Loopback halves over crossbeam channels, so the mux is testable
    /// without any real fabric.
    struct TestSend {
        tx: Option<Sender<Bytes>>,
    }
    impl SendHalf for TestSend {
        fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
            match &self.tx {
                None => Err(TransportError::Closed),
                Some(tx) => tx
                    .send(Bytes::copy_from_slice(frame))
                    .map_err(|_| TransportError::Closed),
            }
        }
        fn close(&mut self) {
            self.tx = None;
        }
    }
    struct TestRecv {
        rx: Receiver<Bytes>,
    }
    impl RecvHalf for TestRecv {
        fn recv(&mut self) -> Result<Bytes, TransportError> {
            self.rx.recv().map_err(|_| TransportError::Closed)
        }
    }

    fn id_of(frame: &Bytes) -> Option<u64> {
        frame.get(..8).map(|b| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(b);
            u64::from_be_bytes(buf)
        })
    }

    fn frame(id: u64, body: &[u8]) -> Vec<u8> {
        let mut f = id.to_be_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    /// Spawns a mux over an echo "server" thread that reverses bodies and,
    /// crucially, replies in reverse order of arrival once `batch` frames
    /// are queued — exercising out-of-order demux. Also returns the
    /// server's receipt marker: one `()` per request frame it has taken off
    /// the wire, i.e. proof that frame was sent.
    fn echo_mux(batch: usize) -> (Arc<MuxChannel>, Receiver<()>) {
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (rep_tx, rep_rx) = unbounded::<Bytes>();
        let (got_tx, got_rx) = unbounded::<()>();
        std::thread::spawn(move || {
            let mut queued: Vec<Bytes> = Vec::new();
            while let Ok(f) = req_rx.recv() {
                let _ = got_tx.send(());
                queued.push(f);
                if queued.len() >= batch {
                    for f in queued.drain(..).rev() {
                        let mut body = f[8..].to_vec();
                        body.reverse();
                        let mut out = f[..8].to_vec();
                        out.extend_from_slice(&body);
                        if rep_tx.send(Bytes::from(out)).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        let mux = MuxChannel::spawn(
            Box::new(TestSend { tx: Some(req_tx) }),
            Box::new(TestRecv { rx: rep_rx }),
            Box::new(id_of),
            None,
        );
        (mux, got_rx)
    }

    #[test]
    fn out_of_order_replies_route_to_the_right_callers() {
        let mux = echo_mux(4).0;
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let mux = mux.clone();
                std::thread::spawn(move || {
                    let body = format!("body-{i}");
                    let reply = mux.call(i, &frame(i, body.as_bytes()), None).unwrap();
                    let expect: String = body.chars().rev().collect();
                    assert_eq!(&reply[8..], expect.as_bytes(), "caller {i} got its own reply");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mux.in_flight(), 0);
        mux.shutdown();
    }

    #[test]
    fn reader_death_fails_all_waiters() {
        // "Server" that swallows everything, then hangs up.
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (rep_tx, rep_rx) = unbounded::<Bytes>();
        let deaths = Arc::new(AtomicI64::new(0));
        let d2 = deaths.clone();
        std::thread::spawn(move || {
            for _ in 0..3 {
                let _ = req_rx.recv();
            }
            drop(rep_tx); // reader observes Closed
        });
        let mux = MuxChannel::spawn(
            Box::new(TestSend { tx: Some(req_tx) }),
            Box::new(TestRecv { rx: rep_rx }),
            Box::new(id_of),
            Some(Box::new(move |_e| {
                d2.fetch_add(1, Ordering::Relaxed);
            })),
        );
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.call(i, &frame(i, b"x"), None))
            })
            .collect();
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert!(matches!(err, MuxError::Lost(_)), "{err}");
        }
        assert!(mux.is_dead());
        // Waiters are failed before the reader thread invokes the hook, so
        // give it a moment rather than racing it.
        for _ in 0..200 {
            if deaths.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(deaths.load(Ordering::Relaxed), 1, "death hook fired once");
        // Post-death calls fail fast as Unsent (the frame never goes out).
        assert!(matches!(mux.call(9, &frame(9, b"y"), None), Err(MuxError::Unsent(_))));
    }

    /// A reply without a correlation id (here: too short to hold one) fails
    /// the caller it must have been meant for instead of stranding it.
    #[test]
    fn uncorrelatable_frame_fails_the_waiters() {
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (rep_tx, rep_rx) = unbounded::<Bytes>();
        let peer = rep_tx.clone(); // the connection stays open throughout
        std::thread::spawn(move || {
            let _ = req_rx.recv();
            let _ = rep_tx.send(Bytes::from_static(b"no id"));
        });
        let mux = MuxChannel::spawn(
            Box::new(TestSend { tx: Some(req_tx) }),
            Box::new(TestRecv { rx: rep_rx }),
            Box::new(id_of),
            None,
        );
        let err = mux.call(1, &frame(1, b"x"), None).unwrap_err();
        assert!(matches!(err, MuxError::Lost(TransportError::Io(_))), "{err}");
        assert!(mux.is_dead());
        drop(peer);
    }

    #[test]
    fn duplicate_in_flight_id_is_rejected() {
        let mux = echo_mux(usize::MAX).0; // server never replies
        let m2 = mux.clone();
        let h = std::thread::spawn(move || m2.call(7, &frame(7, b"a"), Some(Duration::from_millis(300))));
        // Wait until the first call is registered.
        while mux.in_flight() == 0 {
            std::thread::yield_now();
        }
        let err = mux.call(7, &frame(7, b"b"), None).unwrap_err();
        assert!(matches!(err, MuxError::Unsent(TransportError::Io(_))), "{err}");
        let first = h.join().unwrap();
        assert!(matches!(first, Err(MuxError::Lost(TransportError::Timeout))));
        mux.shutdown();
    }

    #[test]
    fn timeout_is_lost_and_late_reply_is_orphaned() {
        let mux = echo_mux(2).0; // server replies only after TWO frames arrive
        let err = mux
            .call(1, &frame(1, b"slow"), Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, MuxError::Lost(TransportError::Timeout)), "{err}");
        assert_eq!(mux.in_flight(), 0, "timed-out waiter unregistered");
        // A second call releases the batch; its own reply still routes fine
        // even though the first (orphaned) reply arrives alongside it.
        let reply = mux.call(2, &frame(2, b"ab"), None).unwrap();
        assert_eq!(&reply[8..], b"ba");
        mux.shutdown();
    }

    /// Shutdown *after* the send: the server has the frame, so the caller
    /// must hear `Lost`. Waiting on `in_flight()` would not do — `call`
    /// registers its waiter before it sends — so the test waits for the
    /// server's receipt marker.
    #[test]
    fn shutdown_fails_in_flight_and_subsequent_calls() {
        let (mux, received) = echo_mux(usize::MAX);
        let m2 = mux.clone();
        let h = std::thread::spawn(move || m2.call(1, &frame(1, b"x"), None));
        received.recv_timeout(Duration::from_secs(10)).expect("the request frame arrived");
        mux.shutdown();
        assert!(matches!(h.join().unwrap(), Err(MuxError::Lost(_))));
        assert!(mux.is_dead());
        assert!(matches!(mux.send_only(&frame(2, b"y")), Err(MuxError::Unsent(_))));
        mux.shutdown(); // idempotent
    }

    /// Shutdown *before* the send: a call whose waiter was registered when
    /// the channel was torn down never gets its frame out, so it must hear
    /// `Unsent` (safe to retry), not `Lost`.
    #[test]
    fn shutdown_before_the_send_is_unsent() {
        let (mux, received) = echo_mux(usize::MAX);
        mux.register(1).unwrap();
        mux.shutdown();
        let outcome = mux.call_registered(1, &frame(1, b"x"), None);
        assert!(matches!(outcome, Err(MuxError::Unsent(TransportError::Closed))), "{outcome:?}");
        assert!(received.try_recv().is_err(), "the frame must not have reached the server");
        assert_eq!(mux.in_flight(), 0, "the unsent waiter was unregistered");
    }
}
