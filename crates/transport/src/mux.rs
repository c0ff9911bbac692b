//! Per-endpoint request multiplexing.
//!
//! A [`MuxChannel`] owns one split connection and keeps N requests in
//! flight on it at once: the writer lock is held only for the framed send,
//! and reply frames are demultiplexed to waiting callers by a
//! caller-supplied correlation id (the ORB uses the request id). This
//! replaces the serialized lock-across-the-exchange pattern — N concurrent
//! invocations to one endpoint used to mean N queued exchanges; with the mux
//! they overlap on a single connection.
//!
//! # Who reads: the leader
//!
//! No thread is dedicated to reading. While nobody reads, the receive half
//! rests in the waiter table; a caller waiting for its reply takes it and
//! becomes the *leader*, reading frames outside any lock. A frame for
//! another caller goes into that caller's slot, which is then unparked; when
//! the leader's own reply comes, it puts the receive half back to rest and
//! returns the reply — so an uncontended call is read by the very thread
//! that wants it, with no hand-off to a reader thread and back.
//!
//! One rule keeps every waiter served: *while any caller waits unresolved,
//! either a leader holds the receive half, or the half rests in the table
//! and one waiting caller has been unparked to take it.* A leader or waiter
//! that stops waiting for any reason — its reply came, its deadline passed,
//! its frame never went out — passes the read on that way. A leader reads
//! with [`RecvHalf::recv_deadline`] and its own deadline, so it gives up no
//! later than a parked waiter would.
//!
//! # Idle connections
//!
//! With no caller waiting, nobody reads: a connection that dies idle is
//! found dead by the next caller. Over the mem fabric its send is refused
//! ([`MuxError::Unsent`], safe to retry on a fresh connection); over TCP the
//! kernel takes the frame and the leader's read then sees the close
//! ([`MuxError::Lost`]). Either way the channel is dead from then on.
//!
//! # Failure
//!
//! Failure semantics are phase-precise, mirroring the ORB's retry taxonomy:
//!
//! * [`MuxError::Unsent`] — the frame provably never left this process
//!   (channel already dead, writer gone, or the send itself failed). Always
//!   safe to retry.
//! * [`MuxError::Lost`] — the frame was handed to the fabric but no reply
//!   will arrive (the channel died mid-flight, or the caller's deadline
//!   elapsed). The server may have executed the request; only idempotent
//!   requests may retry.
//!
//! When the channel dies — its leader reads a transport error or a frame it
//! cannot correlate, or a send fails — **every** waiter is failed promptly:
//! a dead mux never leaves a caller blocked. An optional death hook lets the
//! owner feed the failure into circuit-breaker health, so a dead mux trips
//! the same breaker a dead exchange does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};

use crate::{frame_len, RecvHalf, SendHalf, TransportError};

/// Extracts the correlation id from a reply frame. `None` — the frame carries
/// no recognizable id — is a protocol violation the channel dies of, failing
/// every waiter: one of them sent the request this frame answers.
pub type Correlator = Box<dyn Fn(&Bytes) -> Option<u64> + Send + Sync>;

/// Invoked once, when the channel dies of a transport failure — *not* on
/// deliberate [`MuxChannel::shutdown`]. Owners feed this into endpoint
/// health.
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
/// parks on its own thread handle; whoever resolves the request (a leader
/// delivering a reply, or the channel dying) fills `outcome` under the
/// `pending` lock and unparks it, and the caller takes the slot out of the
/// map. No per-call channel, no allocation.
struct Waiter {
    caller: Thread,
    outcome: Option<Result<Bytes, TransportError>>,
    /// The trace context current on the calling thread at registration. A
    /// leader reads for every caller under no trace of its own, so the
    /// context is carried across the thread boundary here and re-installed
    /// at delivery.
    trace: Option<ohpc_telemetry::TraceContext>,
}

struct PendingState {
    waiters: HashMap<u64, Waiter>,
    /// The receive half while nobody reads it; a leader takes it out. Gone
    /// for good once the channel is dead.
    resting: Option<Box<dyn RecvHalf>>,
    /// Set exactly once, under the `pending` lock, when the channel dies;
    /// registration checks it under the same lock, so no waiter can slip in
    /// after the drain and hang.
    dead: Option<TransportError>,
}

/// What a caller that stopped waiting hears, from what its slot held.
fn verdict(outcome: Option<Result<Bytes, TransportError>>) -> Result<Bytes, MuxError> {
    match outcome {
        Some(Ok(frame)) => Ok(frame),
        // The channel died after the frame was sent: the reply is lost.
        Some(Err(e)) => Err(MuxError::Lost(e)),
        // Withdrawn unresolved: the deadline passed.
        None => Err(MuxError::Lost(TransportError::Timeout)),
    }
}

/// A request [sent](MuxChannel::send_request) on a channel, whose reply is
/// still to come: [`wait`](Self::wait) for it. Dropped unwaited, it
/// withdraws its waiter, passing the read on like any caller that stops
/// waiting.
#[must_use = "a sent request's reply is waited for, or its waiter withdrawn on drop"]
pub struct Pending<'a> {
    mux: &'a MuxChannel,
    id: u64,
    sent: Instant,
    waited: bool,
}

impl Pending<'_> {
    /// Waits — up to `timeout` from the send, forever with `None` — for the
    /// correlated reply, reading it itself when no other caller is.
    pub fn wait(mut self, timeout: Option<Duration>) -> Result<Bytes, MuxError> {
        self.waited = true;
        let outcome = self.mux.wait(self.id, timeout.map(|d| self.sent + d));
        ohpc_telemetry::histogram!("mux_demux_wait_ns")
            .observe_linked(self.sent.elapsed().as_nanos() as u64);
        outcome
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        if !self.waited {
            self.mux.leave(self.mux.pending.lock(), self.id);
        }
    }
}

/// A multiplexed channel over one split connection. See the module docs.
pub struct MuxChannel {
    sender: Mutex<Option<Box<dyn SendHalf>>>,
    pending: Mutex<PendingState>,
    /// Waiters registered and not yet resolved. `mux_in_flight` is the sum of
    /// this over every channel in the process.
    in_flight: AtomicI64,
    closing: AtomicBool,
    correlator: Correlator,
    on_death: Option<DeathHook>,
}

impl MuxChannel {
    /// Wraps the split halves of a connection. `correlator` maps each
    /// incoming frame to its waiter; `on_death` (if any) observes the
    /// channel dying of a transport failure (but not deliberate shutdowns).
    /// Nothing is started: callers read for themselves, and dropping the
    /// last handle drops both halves, which closes the connection.
    pub fn new(
        send: Box<dyn SendHalf>,
        recv: Box<dyn RecvHalf>,
        correlator: Correlator,
        on_death: Option<DeathHook>,
    ) -> Arc<MuxChannel> {
        Arc::new(MuxChannel {
            sender: Mutex::new(Some(send)),
            pending: Mutex::new(PendingState {
                waiters: HashMap::new(),
                resting: Some(recv),
                dead: None,
            }),
            in_flight: AtomicI64::new(0),
            closing: AtomicBool::new(false),
            correlator,
            on_death,
        })
    }

    /// One multiplexed request/reply: registers `id`, sends the frame made of
    /// `frame`'s parts (writer lock held only for the send), and waits — up
    /// to `timeout`, forever with `None` — for the correlated reply, reading
    /// it itself when no other caller is.
    pub fn call(
        &self,
        id: u64,
        frame: &[&[u8]],
        timeout: Option<Duration>,
    ) -> Result<Bytes, MuxError> {
        self.send_request(id, frame)?.wait(timeout)
    }

    /// The first half of a [`call`](Self::call): registers `id` and sends
    /// the frame. `frame` is borrowed for the send alone, so a caller can
    /// lend out parts it holds only that long; the reply is then waited for
    /// through the returned [`Pending`].
    pub fn send_request(&self, id: u64, frame: &[&[u8]]) -> Result<Pending<'_>, MuxError> {
        self.register(id)?;
        self.send_registered(id, frame)
    }

    /// [`send_request`](Self::send_request) from the point where the waiter
    /// is registered: whatever happens to the channel from here until the
    /// send returns leaves the frame provably unsent.
    fn send_registered(&self, id: u64, frame: &[&[u8]]) -> Result<Pending<'_>, MuxError> {
        if let Err(e) = self.send_frame(frame) {
            // The frame never went out; the waiter slot must not linger.
            self.leave(self.pending.lock(), id);
            return Err(MuxError::Unsent(e));
        }
        ohpc_telemetry::counter!("mux_requests_total").inc();
        Ok(Pending { mux: self, id, sent: Instant::now(), waited: false })
    }

    /// Sends a frame that expects no reply (one-way requests). Failure is
    /// always [`MuxError::Unsent`]: a one-way either left the process or it
    /// did not.
    pub fn send_only(&self, frame: &[&[u8]]) -> Result<(), MuxError> {
        if let Some(e) = self.dead_error() {
            return Err(MuxError::Unsent(e));
        }
        self.send_frame(frame).map_err(MuxError::Unsent)?;
        ohpc_telemetry::counter!("mux_oneways_total").inc();
        // Stamped as the `transport_send` the send just recorded.
        ohpc_telemetry::trace_event_at_last_stamp(
            "mux_send_oneway",
            &[("bytes", frame_len(frame).into())],
        );
        Ok(())
    }

    /// Whether the channel has died (or was shut down). A dead channel
    /// fails every call; owners should evict and re-dial.
    pub fn is_dead(&self) -> bool {
        self.dead_error().is_some()
    }

    /// Requests currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed).max(0) as usize
    }

    /// Deliberate teardown: closes the send half (which wakes a leader
    /// blocked in `recv` through the transport) and fails any in-flight
    /// waiters with [`TransportError::Closed`]. Idempotent. Does not fire
    /// the death hook.
    pub fn shutdown(&self) {
        self.closing.store(true, Ordering::Release);
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
    /// channel either fails this registration or resolves it — a waiter can
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
    /// holds, and passes the read on if the receive half rests. A slot
    /// withdrawn unresolved stops counting as in flight here; a resolved one
    /// already did when it was resolved.
    fn leave(
        &self,
        mut st: MutexGuard<'_, PendingState>,
        id: u64,
    ) -> Option<Result<Bytes, TransportError>> {
        let outcome = match st.waiters.remove(&id) {
            Some(Waiter { outcome: None, .. }) => {
                self.settled(1);
                None
            }
            Some(Waiter { outcome, .. }) => outcome,
            None => None,
        };
        // If the half rests and anyone still waits, one of them takes it.
        let next = if st.resting.is_some() {
            st.waiters.values().find(|w| w.outcome.is_none()).map(|w| w.caller.clone())
        } else {
            None
        };
        drop(st);
        if let Some(next) = next {
            next.unpark();
        }
        outcome
    }

    /// The framed send; the writer lock is held only for this. A failed send
    /// kills the channel: nobody reads an idle connection, so a send may be
    /// the first to find it dead, and a frame cut off mid-write leaves the
    /// stream unusable anyway. Only a frame refused for its size leaves the
    /// connection as it was.
    fn send_frame(&self, frame: &[&[u8]]) -> Result<(), TransportError> {
        // The sender mutex serializes whole frames onto the shared wire and
        // guards nothing else: it is lent to exactly one send.
        let sent = parking_lot::block_under(&mut self.sender.lock(), |sender| match sender {
            None => Err(TransportError::Closed),
            Some(tx) => tx.send_parts(frame),
        });
        match &sent {
            Ok(()) | Err(TransportError::FrameTooLarge(_)) => {}
            Err(e) => self.fail(e.clone()),
        }
        sent
    }

    /// Waits until `deadline` (for ever with `None`) for the caller's slot
    /// to be resolved — as the leader whenever the receive half rests, else
    /// parked — then takes the slot. `park` may return early or late; the
    /// slot, read under the lock, is the only truth.
    fn wait(&self, id: u64, deadline: Option<Instant>) -> Result<Bytes, MuxError> {
        loop {
            let mut st = self.pending.lock();
            let resolved = match st.waiters.get(&id) {
                Some(w) => w.outcome.is_some(),
                // The slot vanished without us taking it: only possible if
                // the channel state was torn down; treat as a lost reply.
                None => return Err(MuxError::Lost(TransportError::Closed)),
            };
            // On a timeout the reply (or the channel's death) may still
            // have raced us into the slot; whatever is there wins.
            if resolved || deadline.is_some_and(|d| Instant::now() >= d) {
                return verdict(self.leave(st, id));
            }
            if let Some(rx) = st.resting.take() {
                drop(st);
                return self.lead(id, rx, deadline);
            }
            drop(st);
            parking_lot::assert_no_guard_held("mux park");
            match deadline {
                None => std::thread::park(),
                Some(d) => std::thread::park_timeout(d.saturating_duration_since(Instant::now())),
            }
        }
    }

    /// Reads as the leader until the caller's own reply arrives, delivering
    /// every other frame to its waiter on the way; then puts the receive
    /// half back and leaves.
    fn lead(
        &self,
        id: u64,
        mut rx: Box<dyn RecvHalf>,
        deadline: Option<Instant>,
    ) -> Result<Bytes, MuxError> {
        loop {
            let received = {
                // The read answers whoever it answers: it belongs to no
                // caller's trace, the leader's included.
                let _untraced = ohpc_telemetry::suspend();
                rx.recv_deadline(deadline)
            };
            let cause = match received {
                Ok(frame) => match (self.correlator)(&frame) {
                    Some(to) if to == id => {
                        let len = frame.len();
                        let reply = self.step_down(id, rx, Some(frame));
                        if reply.is_ok() {
                            ohpc_telemetry::trace_event("mux_demux_recv", &[("bytes", len.into())]);
                        }
                        return reply;
                    }
                    Some(to) => {
                        self.deliver(to, frame);
                        continue;
                    }
                    // The peer is not speaking this channel's protocol:
                    // whoever the frame was meant for would wait for ever,
                    // and no later frame can be trusted to reach the right
                    // waiter either.
                    None => TransportError::Io("reply frame carries no correlation id".into()),
                },
                Err(TransportError::Timeout) if deadline.is_some() => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return self.step_down(id, rx, None);
                    }
                    continue; // woke before the deadline: read on
                }
                Err(e) => e,
            };
            self.fail(cause);
            return verdict(self.leave(self.pending.lock(), id));
        }
    }

    /// The leader stops leading: the receive half goes back to rest (unless
    /// the channel died meanwhile), `reply` — the leader's own — into its
    /// slot, and the leader leaves with whatever the slot then holds.
    fn step_down(
        &self,
        id: u64,
        rx: Box<dyn RecvHalf>,
        reply: Option<Bytes>,
    ) -> Result<Bytes, MuxError> {
        let mut st = self.pending.lock();
        let discard = match st.dead {
            None => st.resting.replace(rx),
            Some(_) => Some(rx),
        };
        if let Some(frame) = reply {
            match st.waiters.get_mut(&id).filter(|w| w.outcome.is_none()) {
                Some(w) => {
                    self.settled(1);
                    w.outcome = Some(Ok(frame));
                }
                // A shutdown failed the slot while the reply was on its way.
                None => ohpc_telemetry::counter!("mux_orphan_replies_total").inc(),
            }
        }
        let outcome = self.leave(st, id);
        drop(discard);
        verdict(outcome)
    }

    /// Routes one reply frame to its waiter (leader only).
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

    /// The channel died of `cause`: kill it and report the death — once,
    /// and never for a deliberate shutdown.
    fn fail(&self, cause: TransportError) {
        let deliberate = self.closing.load(Ordering::Acquire);
        if self.die(cause.clone()) && !deliberate {
            ohpc_telemetry::counter!("mux_deaths_total").inc();
            if let Some(hook) = &self.on_death {
                hook(&cause);
            }
        }
    }

    /// Marks the channel dead, fails every unresolved waiter and closes the
    /// send half, which wakes a leader blocked in `recv`. Idempotent; the
    /// first cause wins, and only the call that set it returns `true`.
    fn die(&self, cause: TransportError) -> bool {
        let mut st = self.pending.lock();
        let first = st.dead.is_none();
        if first {
            st.dead = Some(cause.clone());
        }
        let resting = st.resting.take();
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
        drop(resting);
        if let Some(mut tx) = self.sender.lock().take() {
            tx.close();
        }
        for caller in failed {
            caller.unpark();
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

    /// Loopback halves over crossbeam channels, so the mux is testable
    /// without any real fabric. As on every fabric, `close` wakes the paired
    /// half even while the peer still holds its end.
    struct TestSend {
        tx: Option<Sender<Bytes>>,
        closed: Arc<AtomicBool>,
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
            self.closed.store(true, Ordering::Release);
        }
    }
    struct TestRecv {
        rx: Receiver<Bytes>,
        closed: Arc<AtomicBool>,
    }
    impl RecvHalf for TestRecv {
        fn recv(&mut self) -> Result<Bytes, TransportError> {
            self.recv_deadline(None)
        }

        /// Waits in short slices, so that a `close` is seen.
        fn recv_deadline(&mut self, deadline: Option<Instant>) -> Result<Bytes, TransportError> {
            let slice = Duration::from_millis(1);
            loop {
                if self.closed.load(Ordering::Acquire) {
                    return Err(TransportError::Closed);
                }
                let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                match self.rx.recv_timeout(left.map_or(slice, |left| left.min(slice))) {
                    Ok(frame) => return Ok(frame),
                    Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
                    Err(RecvTimeoutError::Timeout) if left.is_some_and(|l| l <= slice) => {
                        return Err(TransportError::Timeout)
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                }
            }
        }
    }

    /// A mux over the two channels a test "server" holds the other ends of.
    fn mux_over(
        requests: Sender<Bytes>,
        replies: Receiver<Bytes>,
        on_death: Option<DeathHook>,
    ) -> Arc<MuxChannel> {
        let closed = Arc::new(AtomicBool::new(false));
        MuxChannel::new(
            Box::new(TestSend { tx: Some(requests), closed: closed.clone() }),
            Box::new(TestRecv { rx: replies, closed }),
            Box::new(id_of),
            on_death,
        )
    }

    /// The mux tests move the process-wide `mux_in_flight` gauge, and one
    /// reads it: one at a time.
    fn alone() -> std::sync::MutexGuard<'static, ()> {
        static ALONE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        ALONE.lock().unwrap_or_else(|e| e.into_inner())
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

    /// Builds a mux over an echo "server" thread that reverses bodies and,
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
        (mux_over(req_tx, rep_rx, None), got_rx)
    }

    /// Whether a leader holds the receive half right now.
    fn led(mux: &MuxChannel) -> bool {
        mux.pending.lock().resting.is_none()
    }

    /// Polls `what` for up to ten seconds.
    fn eventually(what: impl Fn() -> bool) -> bool {
        let until = Instant::now() + Duration::from_secs(10);
        while !what() {
            if Instant::now() > until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn out_of_order_replies_route_to_the_right_callers() {
        let _alone = alone();
        let mux = echo_mux(4).0;
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let mux = mux.clone();
                std::thread::spawn(move || {
                    let body = format!("body-{i}");
                    let reply = mux.call(i, &[&frame(i, body.as_bytes())], None).unwrap();
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
        let _alone = alone();
        // "Server" that swallows everything, then hangs up.
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (rep_tx, rep_rx) = unbounded::<Bytes>();
        let deaths = Arc::new(AtomicI64::new(0));
        let d2 = deaths.clone();
        std::thread::spawn(move || {
            for _ in 0..3 {
                let _ = req_rx.recv();
            }
            drop(rep_tx); // the leader observes Closed
        });
        let mux = mux_over(
            req_tx,
            rep_rx,
            Some(Box::new(move |_e| {
                d2.fetch_add(1, Ordering::Relaxed);
            })),
        );
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.call(i, &[&frame(i, b"x")], None))
            })
            .collect();
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert!(matches!(err, MuxError::Lost(_)), "{err}");
        }
        assert!(mux.is_dead());
        // Waiters are failed before the leader invokes the hook, so give it
        // a moment rather than racing it.
        for _ in 0..200 {
            if deaths.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(deaths.load(Ordering::Relaxed), 1, "death hook fired once");
        // Post-death calls fail fast as Unsent (the frame never goes out).
        assert!(matches!(mux.call(9, &[&frame(9, b"y")], None), Err(MuxError::Unsent(_))));
    }

    /// A reply without a correlation id (here: too short to hold one) fails
    /// the caller it must have been meant for instead of stranding it.
    #[test]
    fn uncorrelatable_frame_fails_the_waiters() {
        let _alone = alone();
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (rep_tx, rep_rx) = unbounded::<Bytes>();
        let peer = rep_tx.clone(); // the connection stays open throughout
        std::thread::spawn(move || {
            let _ = req_rx.recv();
            let _ = rep_tx.send(Bytes::from_static(b"no id"));
        });
        let mux = mux_over(req_tx, rep_rx, None);
        let err = mux.call(1, &[&frame(1, b"x")], None).unwrap_err();
        assert!(matches!(err, MuxError::Lost(TransportError::Io(_))), "{err}");
        assert!(mux.is_dead());
        drop(peer);
    }

    #[test]
    fn duplicate_in_flight_id_is_rejected() {
        let _alone = alone();
        let mux = echo_mux(usize::MAX).0; // server never replies
        let m2 = mux.clone();
        let h = std::thread::spawn(move || m2.call(7, &[&frame(7, b"a")], Some(Duration::from_millis(300))));
        // Wait until the first call is registered.
        while mux.in_flight() == 0 {
            std::thread::yield_now();
        }
        let err = mux.call(7, &[&frame(7, b"b")], None).unwrap_err();
        assert!(matches!(err, MuxError::Unsent(TransportError::Io(_))), "{err}");
        let first = h.join().unwrap();
        assert!(matches!(first, Err(MuxError::Lost(TransportError::Timeout))));
        mux.shutdown();
    }

    /// A request sent and never waited for withdraws its waiter when its
    /// `Pending` goes, and hands the read to a caller waiting behind it.
    #[test]
    fn a_pending_dropped_unwaited_withdraws_and_passes_the_read_on() {
        let _alone = alone();
        let (mux, received) = echo_mux(2);
        let abandoned = mux.send_request(1, &[&frame(1, b"gone")]).unwrap();
        received.recv_timeout(Duration::from_secs(10)).expect("the first frame arrived");
        assert_eq!(mux.in_flight(), 1);
        drop(abandoned);
        assert_eq!(mux.in_flight(), 0, "the abandoned waiter was withdrawn");
        // The server answers both once the second frame is in; the first
        // reply is an orphan, the second reaches its caller.
        let reply = mux.call(2, &[&frame(2, b"ab")], Some(Duration::from_secs(10))).unwrap();
        assert_eq!(&reply[8..], b"ba");
        mux.shutdown();
    }

    #[test]
    fn timeout_is_lost_and_late_reply_is_orphaned() {
        let _alone = alone();
        let mux = echo_mux(2).0; // server replies only after TWO frames arrive
        let err = mux
            .call(1, &[&frame(1, b"slow")], Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, MuxError::Lost(TransportError::Timeout)), "{err}");
        assert_eq!(mux.in_flight(), 0, "timed-out waiter unregistered");
        // A second call releases the batch; its own reply still routes fine
        // even though the first (orphaned) reply arrives alongside it.
        let reply = mux.call(2, &[&frame(2, b"ab")], None).unwrap();
        assert_eq!(&reply[8..], b"ba");
        mux.shutdown();
    }

    /// Shutdown *after* the send: the server has the frame, so the caller
    /// must hear `Lost`. Waiting on `in_flight()` would not do — `call`
    /// registers its waiter before it sends — so the test waits for the
    /// server's receipt marker.
    #[test]
    fn shutdown_fails_in_flight_and_subsequent_calls() {
        let _alone = alone();
        let (mux, received) = echo_mux(usize::MAX);
        let m2 = mux.clone();
        let h = std::thread::spawn(move || m2.call(1, &[&frame(1, b"x")], None));
        received.recv_timeout(Duration::from_secs(10)).expect("the request frame arrived");
        mux.shutdown();
        assert!(matches!(h.join().unwrap(), Err(MuxError::Lost(_))));
        assert!(mux.is_dead());
        assert!(matches!(mux.send_only(&[&frame(2, b"y")]), Err(MuxError::Unsent(_))));
        mux.shutdown(); // idempotent
    }

    /// Shutdown *before* the send: a call whose waiter was registered when
    /// the channel was torn down never gets its frame out, so it must hear
    /// `Unsent` (safe to retry), not `Lost`.
    #[test]
    fn shutdown_before_the_send_is_unsent() {
        let _alone = alone();
        let (mux, received) = echo_mux(usize::MAX);
        mux.register(1).unwrap();
        mux.shutdown();
        let outcome = mux.send_registered(1, &[&frame(1, b"x")]).err();
        assert!(matches!(outcome, Some(MuxError::Unsent(TransportError::Closed))), "{outcome:?}");
        assert!(received.try_recv().is_err(), "the frame must not have reached the server");
        assert_eq!(mux.in_flight(), 0, "the unsent waiter was unregistered");
    }

    /// The leader's deadline passes while a caller without one waits behind
    /// it: the leader leaves with `Timeout` and hands the read over, so the
    /// reply that comes later still reaches the caller that stayed.
    #[test]
    fn a_leader_past_its_deadline_hands_the_read_to_the_caller_that_stays() {
        let _alone = alone();
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (rep_tx, rep_rx) = unbounded::<Bytes>();
        let (release_tx, release) = unbounded::<()>();
        std::thread::spawn(move || {
            let (Ok(_first), Ok(second)) = (req_rx.recv(), req_rx.recv()) else { return };
            // Only the caller that stays is ever answered, and only when told.
            let _ = release.recv();
            let _ = rep_tx.send(second);
        });
        let mux = mux_over(req_tx, rep_rx, None);
        let m = mux.clone();
        let patience = Some(Duration::from_millis(500));
        let impatient = std::thread::spawn(move || m.call(1, &[&frame(1, b"a")], patience));
        assert!(eventually(|| led(&mux)), "the first caller never took the read");
        let m = mux.clone();
        let (stays_tx, stays) = unbounded();
        std::thread::spawn(move || stays_tx.send(m.call(2, &[&frame(2, b"b")], None)));
        assert!(eventually(|| mux.in_flight() == 2), "both callers wait at once");
        let err = impatient.join().unwrap().unwrap_err();
        assert_eq!(err, MuxError::Lost(TransportError::Timeout));
        assert!(eventually(|| led(&mux)), "the read was not handed to the caller that stays");
        release_tx.send(()).unwrap();
        let reply = stays.recv_timeout(Duration::from_secs(10));
        let reply = reply.expect("the caller that stays hung");
        assert_eq!(reply.unwrap(), frame(2, b"b"));
        assert_eq!(mux.in_flight(), 0);
        mux.shutdown();
    }

    /// Eight callers, five hundred calls each, against a server that answers
    /// every round of eight in reverse order: whoever leads delivers the
    /// others' replies, every call gets its own, and nothing stays counted.
    #[test]
    fn eight_callers_in_reverse_order_each_get_their_own_reply() {
        let _alone = alone();
        let gauge = ohpc_telemetry::Registry::global().gauge("mux_in_flight", &[]);
        let mux = echo_mux(8).0;
        let callers: Vec<_> = (0..8u64)
            .map(|caller| {
                let mux = mux.clone();
                std::thread::spawn(move || {
                    for n in 0..500u64 {
                        let id = caller * 1_000 + n;
                        let body = id.to_le_bytes();
                        let reply = mux.call(id, &[&frame(id, &body)], None).unwrap();
                        let mut expect = body;
                        expect.reverse();
                        assert_eq!(reply, frame(id, &expect), "call {id} got another's reply");
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
        assert_eq!(mux.in_flight(), 0);
        assert_eq!(gauge.get(), 0);
        mux.shutdown();
    }

    /// The connection dies under a leader with five callers parked behind
    /// it: all six hear `Lost`, and the death is reported exactly once.
    #[test]
    fn death_under_a_leader_fails_it_and_every_parked_caller_once() {
        let _alone = alone();
        const CALLERS: u64 = 6;
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (rep_tx, rep_rx) = unbounded::<Bytes>();
        let (hang_up, hung_up) = unbounded::<()>();
        std::thread::spawn(move || {
            let _requests: Vec<_> = (0..CALLERS).map(|_| req_rx.recv()).collect();
            let _ = hung_up.recv();
            drop(rep_tx);
        });
        let deaths = Arc::new(AtomicI64::new(0));
        let counted = deaths.clone();
        let hook: DeathHook = Box::new(move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
        });
        let mux = mux_over(req_tx, rep_rx, Some(hook));
        let callers: Vec<_> = (0..CALLERS)
            .map(|i| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.call(i, &[&frame(i, b"x")], None))
            })
            .collect();
        assert!(eventually(|| mux.in_flight() == CALLERS as usize && led(&mux)));
        hang_up.send(()).unwrap();
        for caller in callers {
            assert_eq!(caller.join().unwrap(), Err(MuxError::Lost(TransportError::Closed)));
        }
        assert_eq!(deaths.load(Ordering::Relaxed), 1, "the death was reported once");
        assert_eq!(mux.in_flight(), 0);
        assert!(matches!(mux.call(99, &[&frame(99, b"y")], None), Err(MuxError::Unsent(_))));
        assert_eq!(deaths.load(Ordering::Relaxed), 1);
    }

    /// `shutdown` while a leader is blocked in `recv` and others are parked
    /// ends every call, and reports no death.
    #[test]
    fn shutdown_ends_a_leader_blocked_in_recv_and_everyone_behind_it() {
        let _alone = alone();
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (_rep_tx, rep_rx) = unbounded::<Bytes>(); // held open, never written
        let (got_tx, received) = unbounded::<()>();
        std::thread::spawn(move || {
            while req_rx.recv().is_ok() {
                let _ = got_tx.send(());
            }
        });
        let deaths = Arc::new(AtomicI64::new(0));
        let counted = deaths.clone();
        let hook: DeathHook = Box::new(move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
        });
        let mux = mux_over(req_tx, rep_rx, Some(hook));
        let (done_tx, done) = unbounded();
        for i in 0..3u64 {
            let (mux, done_tx) = (mux.clone(), done_tx.clone());
            std::thread::spawn(move || done_tx.send(mux.call(i, &[&frame(i, b"x")], None)));
        }
        for _ in 0..3 {
            received.recv_timeout(Duration::from_secs(10)).expect("a request frame arrived");
        }
        assert!(eventually(|| led(&mux)));
        mux.shutdown();
        for _ in 0..3 {
            let outcome = done.recv_timeout(Duration::from_secs(10));
            let outcome = outcome.expect("a call outlived shutdown");
            assert_eq!(outcome, Err(MuxError::Lost(TransportError::Closed)));
        }
        assert_eq!(mux.in_flight(), 0);
        assert_eq!(deaths.load(Ordering::Relaxed), 0, "a deliberate shutdown is no death");
    }
}
