//! Event parity: what one call fires, pinned.
//!
//! The request path records through resolved handles instead of by name. A
//! handle is only right if it points at the instrument the name did, so for
//! one warmed-up two-way echo this suite takes the delta of every counter and
//! every histogram's count in the global registry, and every span the flight
//! recorder holds for the call's trace, attributes included, and holds them
//! against a table taken from the commit before handles (PR 18), where every
//! one of these was recorded by name and every integer attribute went through
//! `to_string()`: same names, same labels, same counts, same text — nothing
//! dropped, doubled, relabelled or reformatted on its way to a handle.
//!
//! (Spans are read per trace, not from `TraceBuffer::recorded()`: that moves
//! in blocks of sixteen per recording thread, so over one call it reads 0 or
//! 16 whatever was recorded.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ohpc_bench::local::{deploy, Wire, KEY_NAME};
use ohpc_caps::{EncryptionCap, TimeoutCap};
use ohpc_orb::CapabilitySpec;
use ohpc_telemetry::{Clock, MonotonicClock, Registry, TraceBuffer, TraceContext, Value};
use ohpc_xdr::{XdrEncode, XdrWriter};

/// `name{k=v,…}` → counter value or histogram count.
type Events = BTreeMap<String, u64>;

fn events_so_far() -> Events {
    let mut events = Events::new();
    for sample in Registry::global().snapshot().samples {
        let count = match sample.value {
            Value::Counter(n) => n,
            Value::Histogram(h) => h.count,
            Value::Gauge(_) => continue,
        };
        let labels: Vec<String> = sample.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        events.insert(format!("{}{{{}}}", sample.name, labels.join(",")), count);
    }
    events
}

/// The events once nothing is moving: a worker parks, and counts that, a
/// moment after the reply it produced is already back at the client.
fn settled_events() -> Events {
    let mut last = events_so_far();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = events_so_far();
        if now == last {
            return now;
        }
        last = now;
    }
}

/// The tests read process-wide state; one at a time.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

/// What one echo fires over `wire` behind `caps`, after enough calls that
/// everything lazy (the dial, the selection cache, first registrations) is
/// behind us: metric events as `name{labels}`, spans as `span name k=v …`.
fn events_of_one_echo(wire: Wire, caps: Vec<CapabilitySpec>) -> Vec<(String, u64)> {
    let _alone = alone();
    let (server, client) = deploy(wire, caps);
    let payload = vec![1, -2, 3, -4, 5];
    for _ in 0..20 {
        assert_eq!(client.echo(payload.clone()).unwrap(), payload);
    }
    let before = settled_events();
    let trace = TraceContext::new_root();
    let trace_id = trace.trace_id;
    {
        let _traced = ohpc_telemetry::install(trace);
        assert_eq!(client.echo(payload.clone()).unwrap(), payload);
    }
    let after = settled_events();
    server.shutdown();
    let mut fired = Events::new();
    for (event, n) in after {
        let delta = n - before.get(&event).copied().unwrap_or(0);
        if delta > 0 {
            fired.insert(event, delta);
        }
    }
    for span in TraceBuffer::global().spans_of(trace_id) {
        let attrs: String = span.attrs.iter().map(|(k, v)| format!(" {k}={v}")).collect();
        *fired.entry(format!("span {}{attrs}", span.name)).or_default() += 1;
    }
    fired.into_iter().collect()
}

fn assert_parity(fired: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    let pinned: Vec<(String, u64)> = pinned.iter().map(|(e, n)| (e.to_string(), *n)).collect();
    assert_eq!(fired, pinned, "fired (left) differs from the pinned table (right)");
}

#[test]
fn one_echo_over_shm_fires_what_it_always_did() {
    let fired = events_of_one_echo(Wire::Shm, vec![]);
    // 10 metric events and 5 spans; a request frame is 100 bytes, a reply 44.
    assert_parity(
        fired,
        &[
            ("mux_demux_wait_ns{}", 1),
            ("mux_requests_total{}", 1),
            ("orb_request_ns{}", 1),
            ("orb_requests_total{}", 1),
            ("orb_selection_cache_total{outcome=hit}", 1),
            ("orb_selection_total{outcome=selected,protocol=shm}", 1),
            ("span gp_attempt attempt=0 forward=0 method=1 proto=shm", 1),
            ("span mux_demux_recv bytes=44", 1),
            ("span selection outcome=cached", 1),
            ("span server_dispatch method=1 ctx=1", 1),
            ("span transport_send fabric=mem bytes=100", 1),
            ("transport_recv_bytes_total{fabric=mem}", 144),
            ("transport_recv_frames_total{fabric=mem}", 2),
            ("transport_send_bytes_total{fabric=mem}", 144),
            ("transport_send_frames_total{fabric=mem}", 2),
        ],
    );
}

#[test]
fn one_echo_through_glue_over_tcp_fires_what_it_always_did() {
    let caps = vec![TimeoutCap::spec(u64::MAX / 2), EncryptionCap::spec(KEY_NAME)];
    let fired = events_of_one_echo(Wire::TcpLoopback, caps);
    // 18 metric events and 13 spans; a request frame is 200 bytes, a reply 124.
    assert_parity(
        fired,
        &[
            ("mux_demux_wait_ns{}", 1),
            ("mux_requests_total{}", 1),
            ("orb_cap_process_ns{cap=security,dir=reply}", 1),
            ("orb_cap_process_ns{cap=security,dir=request}", 1),
            ("orb_cap_process_ns{cap=timeout,dir=reply}", 1),
            ("orb_cap_process_ns{cap=timeout,dir=request}", 1),
            ("orb_cap_unprocess_ns{cap=security,dir=reply}", 1),
            ("orb_cap_unprocess_ns{cap=security,dir=request}", 1),
            ("orb_cap_unprocess_ns{cap=timeout,dir=reply}", 1),
            ("orb_cap_unprocess_ns{cap=timeout,dir=request}", 1),
            ("orb_request_ns{}", 1),
            ("orb_requests_total{}", 1),
            ("orb_selection_cache_total{outcome=hit}", 1),
            ("orb_selection_total{outcome=selected,protocol=glue}", 1),
            ("span cap_process cap=security dir=reply", 1),
            ("span cap_process cap=security dir=request", 1),
            ("span cap_process cap=timeout dir=reply", 1),
            ("span cap_process cap=timeout dir=request", 1),
            ("span cap_unprocess cap=security dir=reply", 1),
            ("span cap_unprocess cap=security dir=request", 1),
            ("span cap_unprocess cap=timeout dir=reply", 1),
            ("span cap_unprocess cap=timeout dir=request", 1),
            ("span gp_attempt attempt=0 forward=0 method=1 proto=glue[timeout+security]->tcp", 1),
            ("span mux_demux_recv bytes=124", 1),
            ("span selection outcome=cached", 1),
            ("span server_dispatch method=1 ctx=1", 1),
            ("span transport_send fabric=tcp bytes=200", 1),
            ("transport_recv_bytes_total{fabric=tcp}", 324),
            ("transport_recv_frames_total{fabric=tcp}", 2),
            ("transport_send_bytes_total{fabric=tcp}", 324),
            ("transport_send_frames_total{fabric=tcp}", 2),
        ],
    );
}

/// A monotonic clock that counts its reads.
#[derive(Default)]
struct CountingClock {
    inner: MonotonicClock,
    reads: AtomicU64,
}

impl Clock for CountingClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.now_ns()
    }
}

/// Reads of the registry clock, by every thread, while one `call` runs and
/// what it set off settles — after twenty calls put everything lazy behind
/// us.
fn clock_reads_of(call: impl Fn()) -> u64 {
    (0..20).for_each(|_| call());
    settled_events();
    let counting = Arc::new(CountingClock::default());
    let old = Registry::global().clock();
    Registry::global().set_clock(counting.clone());
    call();
    settled_events();
    Registry::global().set_clock(old);
    counting.reads.load(Ordering::Relaxed)
}

/// The telemetry clock reads of one call as the ledger's workloads make it
/// (no trace installed: the GP mints one), by every thread that works on
/// it. A span reads the clock when it opens and when it closes, an event
/// once; a span that times a histogram shares its stamps, and an event that
/// follows its span's last stamp takes that stamp.
///
/// | call | when every event and histogram read its own | now |
/// |---|---:|---:|
/// | SHM echo | 9 | 6 |
/// | glue[timeout+security] echo over TCP | 41 | 22 |
/// | SHM one-way | 9 | 5 |
#[test]
fn one_call_reads_the_clock_this_many_times() {
    let _alone = alone();
    let payload = vec![1, -2, 3, -4, 5];
    let mut args = XdrWriter::new();
    payload.encode(&mut args);

    let (server, client) = deploy(Wire::Shm, vec![]);
    let shm_echo = clock_reads_of(|| assert_eq!(client.echo(payload.clone()).unwrap(), payload));
    let shm_oneway = clock_reads_of(|| client.gp().invoke_oneway(1, &args).unwrap());
    server.shutdown();

    let caps = vec![TimeoutCap::spec(u64::MAX / 2), EncryptionCap::spec(KEY_NAME)];
    let (server, client) = deploy(Wire::TcpLoopback, caps);
    let glue_echo = clock_reads_of(|| assert_eq!(client.echo(payload.clone()).unwrap(), payload));
    server.shutdown();

    assert_eq!((shm_echo, glue_echo, shm_oneway), (6, 22, 5), "(shm echo, glue echo, one-way)");
}
