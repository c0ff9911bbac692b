//! Inline dispatch end to end: a split connection's reader runs its
//! one-ways itself, in order; when it answers a two-way itself, when it
//! leaves it to the pool, how the rescue frees a reader whose call blocks
//! (and the reply it holds), and what a panicking handler costs its caller.
//!
//! The context runs on a pool of its own, whose threads are named
//! `ohpc-inline-test-N`, so every reply can say which kind of thread ran it:
//! a pool worker, or a connection's reader.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ohpc_orb::context::OrRow;
use ohpc_orb::{
    rescuer_scans, ApplicabilityRule, CapabilityRegistry, Context, ContextId, Executor,
    GlobalPointer, Location, MethodError, ObjectId, ObjectReference, OrbError, ProtoPool,
    ProtocolId, RemoteObject, ReplyMessage, ReplyStatus, RequestId, RequestMessage,
    TransportProto, WorkerPool,
};
use ohpc_resilience::RetryPolicy;
use ohpc_telemetry::{Clock, ManualClock, Registry};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
use ohpc_transport::{Dialer, Listener, RecvHalf, SendHalf};
use ohpc_xdr::{XdrReader, XdrWriter};

/// Replies with the thread that ran it.
const WHERE: u32 = 1;
/// Returns once two callers are inside it at the same time.
const MEET: u32 = 2;
/// A one-way that takes two milliseconds and records its sequence number.
const SLOW_ONEWAY: u32 = 3;
/// Panics.
const PANIC: u32 = 4;
/// Parks until the gate opens.
const GATED: u32 = 5;
/// Sleeps long enough to be rescued, and returns.
const SLOW: u32 = 6;
/// Opens the gate.
const OPEN: u32 = 7;
/// Sleeps a millisecond: far longer than a short call, far shorter than it
/// takes to be rescued.
const PAUSE: u32 = 8;
/// Advances the probe's manual clock by a millisecond: as long as `PAUSE` on
/// that clock, and no time at all on the wall.
const TICK: u32 = 9;

const POOL: &str = "inline-test";

/// Which thread ran a call: a number unique to the thread, and whether it
/// is one of the context's pool workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ran {
    thread: u64,
    on_pool: bool,
}

fn this_thread() -> Ran {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ME: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    let name = std::thread::current().name().unwrap_or_default().to_string();
    Ran { thread: ME.with(|me| *me), on_pool: name.starts_with(&format!("ohpc-{POOL}-")) }
}

#[derive(Default)]
struct Probe {
    arrived: Mutex<u32>,
    both: Condvar,
    gate_open: Mutex<bool>,
    gate: Condvar,
    /// The sequence number of each `SLOW_ONEWAY`, and where it ran.
    oneways: Mutex<Vec<(u32, Ran)>>,
    /// `SLOW` calls that have started.
    slow_started: AtomicU64,
    /// Where the last `PANIC` ran.
    panicked_on: Mutex<Option<Ran>>,
    /// What `TICK` advances.
    clock: Arc<ManualClock>,
}

impl Probe {
    fn arrived(&self) -> u32 {
        *self.arrived.lock().unwrap()
    }

    fn open_gate(&self) {
        *self.gate_open.lock().unwrap() = true;
        self.gate.notify_all();
    }
}

impl RemoteObject for Probe {
    fn type_name(&self) -> &str {
        "Probe"
    }

    fn dispatch(
        &self,
        method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        match method {
            WHERE => {
                let ran = this_thread();
                out.put_u64(ran.thread);
                out.put_bool(ran.on_pool);
            }
            MEET => {
                let mut arrived = self.arrived.lock().unwrap();
                *arrived += 1;
                self.both.notify_all();
                let patience = Duration::from_secs(20);
                let (arrived, _) =
                    self.both.wait_timeout_while(arrived, patience, |n| *n < 2).unwrap();
                out.put_u32(*arrived);
            }
            SLOW_ONEWAY => {
                let seq = args.get_u32().map_err(|e| MethodError::BadArgs(e.to_string()))?;
                std::thread::sleep(Duration::from_millis(2));
                self.oneways.lock().unwrap().push((seq, this_thread()));
            }
            PANIC => {
                *self.panicked_on.lock().unwrap() = Some(this_thread());
                panic!("the skeleton has a bug");
            }
            GATED => {
                let open = self.gate_open.lock().unwrap();
                let patience = Duration::from_secs(20);
                let (open, _) = self.gate.wait_timeout_while(open, patience, |o| !*o).unwrap();
                if !*open {
                    return Err(MethodError::App("the gate never opened".into()));
                }
            }
            SLOW => {
                self.slow_started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
            }
            OPEN => self.open_gate(),
            PAUSE => std::thread::sleep(Duration::from_millis(1)),
            TICK => self.clock.advance(1_000_000),
            m => return Err(MethodError::NoSuchMethod(m)),
        }
        Ok(())
    }
}

/// The rescuer and its counts are process-wide: one test at a time.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

struct Served {
    fabric: MemFabric,
    ctx: Context,
    pool: Arc<WorkerPool>,
    probe: Arc<Probe>,
    id: ObjectId,
    or: ObjectReference,
}

impl Served {
    fn new(ctx_id: u64) -> Self {
        let fabric = MemFabric::new();
        let ctx = Context::new(
            ContextId(ctx_id),
            Location::new(0, 0),
            Arc::new(CapabilityRegistry::new()),
        );
        let pool = Arc::new(WorkerPool::new(POOL, 4));
        ctx.set_executor(pool.clone() as Arc<dyn Executor>);
        let probe = Arc::new(Probe::default());
        let id = ctx.register(probe.clone());
        ctx.serve(Box::new(fabric.listen()), ProtocolId::SHM);
        let or = ctx.make_or(id, &[OrRow::Plain(ProtocolId::SHM)]).unwrap();
        Self { fabric, ctx, pool, probe, id, or }
    }

    /// A bare client on a TCP connection of its own to this context.
    fn tcp_peer(&self) -> Peer {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let endpoint = acceptor.endpoint();
        self.ctx.serve(Box::new(acceptor), ProtocolId::TCP);
        let mut conn = TcpDialer.dial(&endpoint).unwrap();
        let (tx, rx) = conn.try_split().expect("tcp splits");
        Peer { tx, rx, object: self.id, sent: 0 }
    }

    /// A GP with a connection of its own, no retries and a 2 s deadline.
    fn client(&self) -> Arc<GlobalPointer> {
        let pool = Arc::new(ProtoPool::new().with(Arc::new(TransportProto::new(
            ProtocolId::SHM,
            ApplicabilityRule::Always,
            Arc::new(self.fabric.clone()),
        ))));
        let gp = GlobalPointer::new(self.or.clone(), pool, Location::new(0, 0));
        gp.set_retry_policy(RetryPolicy::no_retries().with_deadline_ns(2_000_000_000));
        Arc::new(gp)
    }

    /// Spins until no admitted request is in flight: permits are RAII, so
    /// anything else is a leak.
    fn assert_permits_drain(&self) {
        let t0 = Instant::now();
        while self.ctx.admitted_in_flight() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "admission permits leaked: {} still in flight",
                self.ctx.admitted_in_flight()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn shutdown(self) {
        self.ctx.shutdown();
        self.pool.shutdown();
    }
}

/// A client that writes requests frame by frame: a batch of them leaves in
/// one write, so they reach the server's reader together.
struct Peer {
    tx: Box<dyn SendHalf>,
    rx: Box<dyn RecvHalf>,
    object: ObjectId,
    sent: u64,
}

impl Peer {
    /// Sends one two-way per method, all in one write; returns their ids.
    fn send(&mut self, methods: &[u32]) -> Vec<RequestId> {
        let requests: Vec<RequestMessage> = methods
            .iter()
            .map(|&method| {
                self.sent += 1;
                RequestMessage {
                    request_id: RequestId(self.sent),
                    object: self.object,
                    method,
                    oneway: false,
                    glue: None,
                    body: Bytes::new(),
                    trace: None,
                }
            })
            .collect();
        let frames: Vec<Bytes> = requests.iter().map(RequestMessage::to_frame).collect();
        let parts: Vec<[&[u8]; 1]> = frames.iter().map(|frame| [&frame[..]]).collect();
        let batch: Vec<&[&[u8]]> = parts.iter().map(|part| &part[..]).collect();
        self.tx.send_frames(&batch).expect("the batch is sent");
        requests.iter().map(|req| req.request_id).collect()
    }

    /// The next reply to arrive, waiting at most five seconds.
    fn reply(&mut self) -> ReplyMessage {
        let deadline = Instant::now() + Duration::from_secs(5);
        let frame = self.rx.recv_deadline(Some(deadline)).expect("a reply within 5 s");
        ReplyMessage::from_frame(&frame).unwrap()
    }

    /// Where each `WHERE` of `sent` ran, in that order, whatever order its
    /// replies arrive in.
    fn where_each_ran(&mut self, sent: &[RequestId]) -> Vec<Ran> {
        let mut ran = vec![None; sent.len()];
        for _ in sent {
            let reply = self.reply();
            let at = sent.iter().position(|id| *id == reply.request_id).expect("one of ours");
            ran[at] = Some(ran_from(&reply));
        }
        ran.into_iter().map(Option::unwrap).collect()
    }
}

fn ran_from(reply: &ReplyMessage) -> Ran {
    assert!(matches!(reply.status, ReplyStatus::Ok), "{:?}", reply.status);
    let mut r = XdrReader::new(&reply.body);
    Ran { thread: r.get_u64().unwrap(), on_pool: r.get_bool().unwrap() }
}

fn where_ran(gp: &GlobalPointer) -> Ran {
    let reply = gp.invoke(WHERE, &XdrWriter::new()).expect("WHERE");
    let mut r = XdrReader::new(&reply);
    Ran { thread: r.get_u64().unwrap(), on_pool: r.get_bool().unwrap() }
}

/// Two callers meet on one GP, hence one connection. The first is in the
/// skeleton, alone on the reader thread, before the second is sent, so only
/// a rescue lets the second be read. Returns how long the second took.
fn meet_on_one_connection(served: &Served, gp: &Arc<GlobalPointer>) -> Duration {
    let first = {
        let gp = gp.clone();
        std::thread::spawn(move || gp.invoke(MEET, &XdrWriter::new()))
    };
    let t0 = Instant::now();
    while served.probe.arrived() < 1 {
        assert!(t0.elapsed() < Duration::from_secs(5), "the first caller never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    let second = gp.invoke(MEET, &XdrWriter::new()).expect("the second caller");
    let took = t0.elapsed();
    let first = first.join().unwrap().expect("the first caller");
    assert_eq!(XdrReader::new(&first).get_u32().unwrap(), 2);
    assert_eq!(XdrReader::new(&second).get_u32().unwrap(), 2);
    took
}

#[test]
fn an_uncontended_echo_runs_on_the_reader_thread() {
    let _alone = alone();
    let served = Served::new(61);
    let gp = served.client();
    let first = where_ran(&gp);
    assert!(!first.on_pool, "an uncontended two-way went to the pool");
    for _ in 0..20 {
        assert_eq!(where_ran(&gp), first, "every call runs on the one reader thread");
    }
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn a_rendezvous_over_serve_is_released_by_one_rescue_within_100_ms() {
    let _alone = alone();
    let served = Served::new(62);
    let gp = served.client();
    let rescues = ohpc_telemetry::counter!("runtime_rescues_total");
    let before = rescues.get();
    let took = meet_on_one_connection(&served, &gp);
    assert!(took < Duration::from_millis(100), "the rescue took {took:?}");
    assert_eq!(rescues.get(), before + 1, "exactly one rescue");
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn after_a_rescue_the_connection_is_answered_off_the_reader_thread() {
    let _alone = alone();
    let served = Served::new(63);
    let gp = served.client();
    let reader = where_ran(&gp);
    assert!(!reader.on_pool);
    meet_on_one_connection(&served, &gp);
    for _ in 0..5 {
        let ran = where_ran(&gp);
        assert!(ran.on_pool, "a rescued connection ran a two-way inline again");
        assert_ne!(ran.thread, reader.thread);
    }
    // The rescued connection stays open and idle: the rescuer parks anyway.
    std::thread::sleep(Duration::from_millis(100));
    let parked = rescuer_scans();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(rescuer_scans(), parked, "the rescuer kept scanning for a rescued connection");
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn a_slow_call_that_ends_after_its_rescue_loses_no_queued_request() {
    let _alone = alone();
    let served = Served::new(69);
    let rescues = ohpc_telemetry::counter!("runtime_rescues_total");
    let before = rescues.get();
    // A fresh connection each round: a connection is rescued at most once.
    for round in 1..=3 {
        let gp = served.client();
        assert!(!where_ran(&gp).on_pool);
        let slow = {
            let gp = gp.clone();
            std::thread::spawn(move || gp.invoke(SLOW, &XdrWriter::new()))
        };
        let t0 = Instant::now();
        while served.probe.slow_started.load(Ordering::SeqCst) < round {
            assert!(t0.elapsed() < Duration::from_secs(5), "the slow call never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queued on the connection while its reader runs the slow call.
        where_ran(&gp);
        slow.join().unwrap().expect("the slow call is answered");
        where_ran(&gp);
    }
    assert_eq!(rescues.get(), before + 3, "each slow call was rescued");
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn slow_one_ways_run_in_order_on_the_reader_before_a_later_two_way() {
    let _alone = alone();
    let served = Served::new(64);
    let gp = served.client();
    let reader = where_ran(&gp);
    assert!(!reader.on_pool);
    // Ten one-ways of 2 ms each, each too short to be rescued, and a two-way
    // right behind them: the reader runs the one-ways, in arrival order, and
    // then answers the two-way itself.
    for seq in 0..10 {
        let mut args = XdrWriter::new();
        args.put_u32(seq);
        gp.invoke_oneway(SLOW_ONEWAY, &args).expect("one-way send");
    }
    let ran = where_ran(&gp);
    let oneways = served.probe.oneways.lock().unwrap().clone();
    let order: Vec<u32> = oneways.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(order, (0..10).collect::<Vec<_>>(), "every one-way first, in order");
    assert!(oneways.iter().all(|(_, on)| *on == reader), "a one-way ran off the reader");
    assert_eq!(ran, reader, "the two-way behind them ran off the reader");
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn a_one_way_waiting_on_a_later_two_way_is_released_by_one_rescue_within_1_s() {
    let _alone = alone();
    let served = Served::new(70);
    let gp = served.client();
    let rescues = ohpc_telemetry::counter!("runtime_rescues_total");
    let before = rescues.get();
    // The one-way parks on the reader until the two-way sent after it on
    // the same connection opens the gate: only a rescue lets that two-way be
    // read.
    gp.invoke_oneway(GATED, &XdrWriter::new()).expect("one-way send");
    let t0 = Instant::now();
    gp.invoke(OPEN, &XdrWriter::new()).expect("the two-way behind the one-way");
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "the two-way took {took:?}");
    assert_eq!(rescues.get(), before + 1, "exactly one rescue");
    // The one-way's permit is released once it has finished.
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn the_rescuer_is_parked_once_traffic_stops() {
    let _alone = alone();
    let served = Served::new(65);
    let gp = served.client();
    for _ in 0..50 {
        assert!(!where_ran(&gp).on_pool);
    }
    // It scans while calls run inline, then parks after one quiet scan.
    std::thread::sleep(Duration::from_millis(100));
    let parked = rescuer_scans();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(rescuer_scans(), parked, "the rescuer kept scanning an idle process");
    served.shutdown();
}

#[test]
fn a_panicking_skeleton_answers_with_an_exception_at_once() {
    let _alone = alone();
    let served = Served::new(66);
    let gp = served.client();
    let t0 = Instant::now();
    let err = gp.invoke(PANIC, &XdrWriter::new()).unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(1), "the caller waited {:?}", t0.elapsed());
    assert!(
        matches!(&err, OrbError::RemoteException(m) if m.contains("panicked")),
        "expected an exception, got: {err}"
    );
    assert!(!served.probe.panicked_on.lock().unwrap().unwrap().on_pool, "ran inline");
    // The same connection serves the next call, and no permit is left behind.
    // (A process's first unwind can take long enough for the connection to
    // be rescued meanwhile, so where the next call runs is not asserted.)
    where_ran(&gp);
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn a_panicking_skeleton_on_the_pool_answers_with_an_exception_at_once() {
    let _alone = alone();
    let served = Served::new(67);
    // A call parked on another connection keeps a second request in flight,
    // so this connection's calls go to the pool.
    let blocker = {
        let gp = served.client();
        std::thread::spawn(move || gp.invoke(GATED, &XdrWriter::new()))
    };
    let t0 = Instant::now();
    while served.ctx.admitted_in_flight() < 1 {
        assert!(t0.elapsed() < Duration::from_secs(5), "the blocker was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let gp = served.client();
    let t0 = Instant::now();
    let err = gp.invoke(PANIC, &XdrWriter::new()).unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(1), "the caller waited {:?}", t0.elapsed());
    assert!(matches!(&err, OrbError::RemoteException(m) if m.contains("panicked")), "{err}");
    assert!(served.probe.panicked_on.lock().unwrap().unwrap().on_pool, "ran on the pool");
    assert!(where_ran(&gp).on_pool);
    served.probe.open_gate();
    blocker.join().unwrap().expect("the blocker completes once the gate opens");
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn a_panicking_one_way_does_not_wedge_its_connection() {
    let _alone = alone();
    let served = Served::new(68);
    let gp = served.client();
    gp.invoke_oneway(PANIC, &XdrWriter::new()).expect("one-way send");
    // The reader finishes the panicked one-way before it reads either
    // two-way, and both are answered.
    for _ in 0..2 {
        where_ran(&gp);
    }
    assert!(served.probe.panicked_on.lock().unwrap().is_some());
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn two_calls_that_arrive_together_both_run_on_the_reader() {
    let _alone = alone();
    let served = Served::new(71);
    // A fresh connection each round: its reader has run nothing long yet.
    for _ in 0..3 {
        let mut peer = served.tcp_peer();
        let sent = peer.send(&[WHERE, WHERE]);
        let ran = peer.where_each_ran(&sent);
        assert!(ran.iter().all(|ran| !ran.on_pool), "a call went to the pool: {ran:?}");
        assert_eq!(ran[0], ran[1], "both ran on the one reader thread");
    }
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn a_held_reply_leaves_by_the_rescue_when_the_call_behind_it_blocks() {
    let _alone = alone();
    let served = Served::new(72);
    let mut peer = served.tcp_peer();
    let rescues = ohpc_telemetry::counter!("runtime_rescues_total");
    let before = rescues.get();
    // The reader holds `WHERE`'s reply to send with the next one, then runs
    // `GATED`, which parks until the gate opens.
    let t0 = Instant::now();
    let sent = peer.send(&[WHERE, GATED]);
    let first = peer.reply();
    let took = t0.elapsed();
    assert_eq!(first.request_id, sent[0], "the gated call answered first");
    assert!(!ran_from(&first).on_pool, "WHERE went to the pool");
    assert!(took < Duration::from_millis(100), "the held reply took {took:?}");
    assert_eq!(rescues.get(), before + 1, "exactly one rescue");
    served.probe.open_gate();
    let second = peer.reply();
    assert_eq!(second.request_id, sent[1]);
    assert!(matches!(second.status, ReplyStatus::Ok), "{:?}", second.status);
    served.assert_permits_drain();
    served.shutdown();
}

#[test]
fn after_a_long_call_a_two_way_with_a_frame_behind_it_goes_to_the_pool() {
    let _alone = alone();
    let served = Served::new(73);
    let mut peer = served.tcp_peer();
    // Alone on the connection, the pause runs on the reader.
    let paused = peer.send(&[PAUSE]);
    assert_eq!(peer.reply().request_id, paused[0]);
    // The call that arrives with another behind it after so long a call
    // leaves the reader free to read that other: two long calls would run
    // one after the other on the reader, and run side by side on the pool.
    let sent = peer.send(&[WHERE, WHERE]);
    let ran = peer.where_each_ran(&sent);
    assert!(ran[0].on_pool, "the call with a frame behind it ran on the reader");
    served.assert_permits_drain();
    served.shutdown();
}

/// The telemetry registry's clock, put back when dropped.
struct ClockSwap(Arc<dyn Clock>);

impl Drop for ClockSwap {
    fn drop(&mut self) {
        Registry::global().set_clock(self.0.clone());
    }
}

#[test]
fn after_a_call_long_on_the_telemetry_clock_a_frame_behind_goes_to_the_pool() {
    let _alone = alone();
    let served = Served::new(74);
    let mut peer = served.tcp_peer();
    let _wall = ClockSwap(Registry::global().clock());
    Registry::global().set_clock(served.probe.clock.clone());
    // Alone on the connection, the tick runs on the reader, and takes a
    // millisecond on the clock its dispatch is timed by: no sleep makes the
    // call long.
    let ticked = peer.send(&[TICK]);
    assert_eq!(peer.reply().request_id, ticked[0]);
    let sent = peer.send(&[WHERE, WHERE]);
    let ran = peer.where_each_ran(&sent);
    assert!(ran[0].on_pool, "the call with a frame behind it ran on the reader");
    served.assert_permits_drain();
    served.shutdown();
}
