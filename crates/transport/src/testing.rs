//! Fault-injection wrappers for testing error paths.
//!
//! Production code paths that matter most — reconnects, retries, error
//! mapping, capability failure propagation — only run when transports fail.
//! The [`FlakyDialer`] wraps any real dialer and fails operations on a
//! deterministic schedule, so those paths get exercised repeatedly and
//! reproducibly instead of only when the network misbehaves.
//!
//! Two scheduling modes, both deterministic:
//!
//! - [`FaultPlan::every`] — fail every Nth operation, exactly;
//! - [`FaultPlan::probabilistic`] — fail each operation with a fixed
//!   probability drawn from a seeded hash stream, so `OHPC_FAULT_SEED=7`
//!   reproduces the identical fault pattern on every run.
//!
//! Plans also count what they injected, per [`FaultKind`], so a test can
//! assert its faults actually fired instead of silently passing on a
//! schedule that never triggered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;

use crate::{Connection, Dialer, Endpoint, RecvHalf, SendHalf, TransportError};

/// Cap on remembered fault→trace attributions, so a long chaos run cannot
/// grow the list without bound. The interesting faults in a failing test are
/// overwhelmingly the recent ones anyway.
const MAX_FAULTED_TRACES: usize = 256;

/// Which operation a fault was injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A refused dial.
    Dial,
    /// A failed send.
    Send,
    /// A failed receive.
    Recv,
    /// A delivered-but-corrupted frame (one byte flipped).
    Corrupt,
}

impl FaultKind {
    /// Label for logs and assertions.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Dial => "dial",
            FaultKind::Send => "send",
            FaultKind::Recv => "recv",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// The splitmix64 finalizer (mirrors `ohpc_resilience::splitmix64`; inlined
/// here because resilience depends on this crate, not the other way round).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Domain separator so the corruption stream never correlates with the
/// failure stream for the same seed.
const CORRUPT_STREAM: u64 = 0x0C0E_EE1E_BADF_00D5;

/// Shared failure schedule: operation indices (dial/send/recv counted
/// together) that should fail. Deterministic and inspectable.
#[derive(Debug, Default)]
pub struct FaultPlan {
    counter: AtomicU64,
    /// Fail every Nth operation (0 = never).
    every: u64,
    /// Fail each operation with probability `fail_per_mille`/1000.
    fail_per_mille: u32,
    /// Corrupt each delivered frame with probability
    /// `corrupt_per_mille`/1000.
    corrupt_per_mille: u32,
    seed: u64,
    injected: AtomicU64,
    dial_faults: AtomicU64,
    send_faults: AtomicU64,
    recv_faults: AtomicU64,
    corruptions: AtomicU64,
    /// Recent (kind, trace_id) attributions: which traces the injected
    /// faults landed in. `trace_id` is 0 when no trace scope was active.
    faulted: Mutex<Vec<(FaultKind, u128)>>,
}

impl FaultPlan {
    /// Fails every `every`-th operation (1-based; `0` disables injection).
    pub fn every(every: u64) -> Arc<Self> {
        Arc::new(Self { every, ..Self::default() })
    }

    /// Fails each operation with probability `fail_per_mille`/1000, drawn
    /// deterministically from `seed` — the same seed always produces the
    /// same fault pattern.
    pub fn probabilistic(fail_per_mille: u32, seed: u64) -> Arc<Self> {
        Arc::new(Self { fail_per_mille: fail_per_mille.min(1000), seed, ..Self::default() })
    }

    /// [`probabilistic`](Self::probabilistic) failures plus seeded frame
    /// corruption: each frame that does arrive is corrupted (one byte
    /// flipped) with probability `corrupt_per_mille`/1000.
    pub fn chaos(fail_per_mille: u32, corrupt_per_mille: u32, seed: u64) -> Arc<Self> {
        Arc::new(Self {
            fail_per_mille: fail_per_mille.min(1000),
            corrupt_per_mille: corrupt_per_mille.min(1000),
            seed,
            ..Self::default()
        })
    }

    /// Total faults injected so far, corruption included.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Faults injected into one kind of operation.
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::Dial => &self.dial_faults,
            FaultKind::Send => &self.send_faults,
            FaultKind::Recv => &self.recv_faults,
            FaultKind::Corrupt => &self.corruptions,
        }
        .load(Ordering::Relaxed)
    }

    /// Total operations observed.
    pub fn operations(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    fn record(&self, kind: FaultKind) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        match kind {
            FaultKind::Dial => &self.dial_faults,
            FaultKind::Send => &self.send_faults,
            FaultKind::Recv => &self.recv_faults,
            FaultKind::Corrupt => &self.corruptions,
        }
        .fetch_add(1, Ordering::Relaxed);
        // Tag the fault with the invocation trace it struck (faults fire on
        // the calling thread, inside the GP's trace scope), so a failing
        // chaos test can print exactly which traces were sabotaged.
        let trace_id = ohpc_telemetry::current_trace_id().unwrap_or(0);
        ohpc_telemetry::trace_event("fault_injected", &[("kind", kind.label().into())]);
        if let Ok(mut faulted) = self.faulted.lock() {
            if faulted.len() < MAX_FAULTED_TRACES {
                faulted.push((kind, trace_id));
            }
        }
    }

    /// The (kind, trace id) of every fault injected so far (bounded; trace
    /// id 0 means the fault struck outside any trace scope). Failing chaos
    /// tests print these to link sabotage to flight-recorder dumps.
    pub fn faulted_traces(&self) -> Vec<(FaultKind, u128)> {
        self.faulted.lock().map(|v| v.clone()).unwrap_or_default()
    }

    fn should_fail(&self, kind: FaultKind) -> bool {
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        let fail = if self.every != 0 {
            n.is_multiple_of(self.every)
        } else if self.fail_per_mille != 0 {
            splitmix64(self.seed ^ n) % 1000 < u64::from(self.fail_per_mille)
        } else {
            false
        };
        if fail {
            self.record(kind);
        }
        fail
    }

    /// Possibly flips one byte of a delivered frame, per the corruption
    /// schedule. Length is preserved: corruption models a payload bit-flip,
    /// not truncation (framing handles lengths separately).
    fn maybe_corrupt(&self, frame: Bytes) -> Bytes {
        if self.corrupt_per_mille == 0 || frame.is_empty() {
            return frame;
        }
        let n = self.counter.load(Ordering::Relaxed);
        let h = splitmix64(self.seed ^ n ^ CORRUPT_STREAM);
        if h % 1000 >= u64::from(self.corrupt_per_mille) {
            return frame;
        }
        self.record(FaultKind::Corrupt);
        let mut buf = frame.to_vec();
        let idx = (splitmix64(h) as usize) % buf.len();
        if let Some(b) = buf.get_mut(idx) {
            *b ^= 0x40;
        }
        Bytes::from(buf)
    }

    /// A send under this plan: one operation, failed on schedule before
    /// `send` runs.
    fn send(
        &self,
        send: impl FnOnce() -> Result<(), TransportError>,
    ) -> Result<(), TransportError> {
        if self.should_fail(FaultKind::Send) {
            return Err(TransportError::Closed);
        }
        send()
    }

    /// A receive under this plan: one operation, failed on schedule before
    /// `recv` runs, and the frame it delivers possibly corrupted.
    fn recv(
        &self,
        recv: impl FnOnce() -> Result<Bytes, TransportError>,
    ) -> Result<Bytes, TransportError> {
        if self.should_fail(FaultKind::Recv) {
            return Err(TransportError::Closed);
        }
        recv().map(|frame| self.maybe_corrupt(frame))
    }
}

/// A dialer whose connections fail according to a [`FaultPlan`].
pub struct FlakyDialer {
    inner: Arc<dyn Dialer>,
    plan: Arc<FaultPlan>,
}

impl FlakyDialer {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn Dialer>, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }
}

impl Dialer for FlakyDialer {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        if self.plan.should_fail(FaultKind::Dial) {
            return Err(TransportError::ConnectionRefused(format!(
                "injected fault dialing {endpoint}"
            )));
        }
        let conn = self.inner.dial(endpoint)?;
        Ok(Box::new(FlakyConnection { inner: conn, plan: self.plan.clone() }))
    }
}

struct FlakyConnection {
    inner: Box<dyn Connection>,
    plan: Arc<FaultPlan>,
}

impl Connection for FlakyConnection {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.plan.send(|| self.inner.send(frame))
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.plan.send(|| self.inner.send_parts(parts))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a delegation shim: the deadline is its caller's job"
    )]
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.plan.recv(|| self.inner.recv())
    }

    /// The wrapped connection's halves, each answering to the same plan.
    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        let (tx, rx) = self.inner.try_split()?;
        Some((
            Box::new(FlakySend { inner: tx, plan: self.plan.clone() }),
            Box::new(FlakyRecv { inner: rx, plan: self.plan.clone() }),
        ))
    }
}

/// Sending half of a split [`FlakyConnection`].
struct FlakySend {
    inner: Box<dyn SendHalf>,
    plan: Arc<FaultPlan>,
}

impl SendHalf for FlakySend {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.plan.send(|| self.inner.send(frame))
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.plan.send(|| self.inner.send_parts(parts))
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

/// Receiving half of a split [`FlakyConnection`].
struct FlakyRecv {
    inner: Box<dyn RecvHalf>,
    plan: Arc<FaultPlan>,
}

impl RecvHalf for FlakyRecv {
    #[expect(
        clippy::disallowed_methods,
        reason = "a delegation shim: the deadline is its caller's job"
    )]
    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.plan.recv(|| self.inner.recv())
    }

    fn recv_deadline(&mut self, deadline: Option<Instant>) -> Result<Bytes, TransportError> {
        self.plan.recv(|| self.inner.recv_deadline(deadline))
    }

    fn ready(&self) -> bool {
        self.inner.ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemFabric;
    use crate::Listener;

    #[test]
    fn plan_counts_and_injects_on_schedule() {
        let plan = FaultPlan::every(3);
        let outcomes: Vec<bool> = (0..9).map(|_| plan.should_fail(FaultKind::Send)).collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.injected(), 3);
        assert_eq!(plan.injected_of(FaultKind::Send), 3);
        assert_eq!(plan.injected_of(FaultKind::Dial), 0);
        assert_eq!(plan.operations(), 9);
    }

    #[test]
    fn zero_disables_injection() {
        let plan = FaultPlan::every(0);
        assert!((0..100).all(|_| !plan.should_fail(FaultKind::Recv)));
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn probabilistic_mode_is_seed_deterministic() {
        let a = FaultPlan::probabilistic(300, 42);
        let b = FaultPlan::probabilistic(300, 42);
        let sa: Vec<bool> = (0..500).map(|_| a.should_fail(FaultKind::Send)).collect();
        let sb: Vec<bool> = (0..500).map(|_| b.should_fail(FaultKind::Send)).collect();
        assert_eq!(sa, sb, "same seed, same schedule");
        // The rate lands near 30% of 500 ops (loose band; this asserts the
        // probability is wired up, not a statistical property).
        assert!((80..=220).contains(&a.injected()), "{}", a.injected());

        let c = FaultPlan::probabilistic(300, 43);
        let sc: Vec<bool> = (0..500).map(|_| c.should_fail(FaultKind::Send)).collect();
        assert_ne!(sa, sc, "different seeds diverge");
    }

    #[test]
    fn per_kind_counters_attribute_faults() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let plan = FaultPlan::every(1); // everything fails
        let dialer = FlakyDialer::new(Arc::new(fabric.clone()), plan.clone());
        assert!(dialer.dial(&ep).is_err());
        assert_eq!(plan.injected_of(FaultKind::Dial), 1);

        // A working connection whose send/recv fail on schedule.
        let ok_plan = FaultPlan::every(2); // dial ok, send FAIL, recv ok…
        let dialer = FlakyDialer::new(Arc::new(fabric), ok_plan.clone());
        let mut conn = dialer.dial(&ep).unwrap();
        let _server = listener.accept().unwrap();
        assert!(conn.send(b"x").is_err());
        assert_eq!(ok_plan.injected_of(FaultKind::Send), 1);
        assert_eq!(ok_plan.injected_of(FaultKind::Recv), 0);
    }

    #[test]
    fn chaos_mode_corrupts_frames_without_truncating() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        // No hard failures, certain corruption.
        let plan = FaultPlan::chaos(0, 1000, 7);
        let dialer = FlakyDialer::new(Arc::new(fabric), plan.clone());
        let mut conn = dialer.dial(&ep).unwrap();
        let mut server = listener.accept().unwrap();
        let payload = b"all your frame are belong to us";
        server.send(payload).unwrap();
        let got = conn.recv().unwrap();
        assert_eq!(got.len(), payload.len(), "corruption preserves length");
        assert_ne!(&got[..], payload, "frame was corrupted");
        // Exactly one byte differs, by exactly one flipped bit pattern.
        let diffs = got.iter().zip(payload.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        assert_eq!(plan.injected_of(FaultKind::Corrupt), 1);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn faults_are_tagged_with_the_active_trace() {
        let plan = FaultPlan::every(1);
        let id = {
            let _t = ohpc_telemetry::install(ohpc_telemetry::TraceContext::new_root());
            let id = ohpc_telemetry::current_trace_id().unwrap();
            assert!(plan.should_fail(FaultKind::Send));
            id
        };
        // Outside any scope, faults attribute to trace 0.
        assert!(plan.should_fail(FaultKind::Recv));
        assert_eq!(
            plan.faulted_traces(),
            vec![(FaultKind::Send, id), (FaultKind::Recv, 0)]
        );
    }

    /// The halves of a split connection answer to the plan they were split
    /// under, counted across both as on the whole connection: the schedule
    /// of `flaky_dialer_passes_traffic_between_faults`, and `recv_deadline`
    /// fails like `recv`.
    #[test]
    fn split_halves_share_the_plans_schedule() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let plan = FaultPlan::every(4);
        let dialer = FlakyDialer::new(Arc::new(fabric), plan.clone());
        // op1 = dial, op2 = send, op3 = recv, op4 = send (FAIL), op8 = recv (FAIL)
        let (mut tx, mut rx) = dialer.dial(&listener.endpoint()).unwrap().try_split().unwrap();
        let mut server = listener.accept().unwrap();
        tx.send(b"one").unwrap();
        server.send(b"ack").unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"ack");
        assert_eq!(tx.send(b"two").unwrap_err(), TransportError::Closed);
        for _ in 0..3 {
            tx.send(b"more").unwrap();
        }
        let soon = Instant::now() + std::time::Duration::from_secs(10);
        assert_eq!(rx.recv_deadline(Some(soon)).unwrap_err(), TransportError::Closed);
        assert_eq!(plan.operations(), 8);
        assert_eq!((plan.injected_of(FaultKind::Send), plan.injected_of(FaultKind::Recv)), (1, 1));
    }

    #[test]
    fn recv_deadline_corrupts_like_recv() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let plan = FaultPlan::chaos(0, 1000, 7);
        let dialer = FlakyDialer::new(Arc::new(fabric), plan.clone());
        let (_tx, mut rx) = dialer.dial(&listener.endpoint()).unwrap().try_split().unwrap();
        let payload = b"all your frame are belong to us";
        listener.accept().unwrap().send(payload).unwrap();
        let got = rx.recv_deadline(Some(Instant::now())).unwrap();
        assert_eq!(got.iter().zip(payload.iter()).filter(|(a, b)| a != b).count(), 1);
        assert_eq!(plan.injected_of(FaultKind::Corrupt), 1);
    }

    #[test]
    fn flaky_dialer_passes_traffic_between_faults() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let plan = FaultPlan::every(4);
        let dialer = FlakyDialer::new(Arc::new(fabric), plan.clone());

        // op1 = dial (ok), op2 = send (ok), op3 = recv (ok), op4 = send (FAIL)
        let mut conn = dialer.dial(&ep).unwrap();
        let mut server = listener.accept().unwrap();
        conn.send(b"one").unwrap();
        server.send(b"ack").unwrap();
        assert_eq!(&conn.recv().unwrap()[..], b"ack");
        assert_eq!(conn.send(b"two").unwrap_err(), TransportError::Closed);
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.injected_of(FaultKind::Send), 1);
    }
}
