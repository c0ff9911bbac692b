//! The steady-state request path is name-free and lean.
//!
//! Once a call site has run, its instruments are resolved: a warmed-up call
//! must not look a metric up by name again (`Registry::resolutions` stands
//! still), and a small call's heap traffic is a short fixed inventory — for a
//! 5-int two-way echo over the mem fabric, 5 allocations across all threads:
//! the caller's clone of its argument; the mem fabric's two frame copies;
//! the two decoded `Vec`s. The args and the reply body are encoded into the
//! buffer, and frozen in the handle, that their threads sent last time;
//! frames are encoded into a per-thread scratch writer and leave in parts,
//! so no frame buffer is allocated; the server's reader runs the call
//! itself, so no task is boxed for a pool worker. A one-way is 2: the
//! fabric's copy and the decoded `Vec`; the client copies its args into the
//! thread's spare buffer, and the reply its skeleton encodes goes back to
//! its thread unsent. The two-way bounds are the inventories, so one more
//! allocation per call fails them; the one-way's leaves a spare. Each test
//! name states the bound its assert uses.
//!
//! A bulk call's inventory is counted in payload-sized buffers instead: a
//! secure 1 MiB echo makes exactly six.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use bytes::Bytes;
use ohpc_bench::local::{deploy, Wire, KEY_NAME};
use ohpc_caps::{EncryptionCap, TimeoutCap};
use ohpc_orb::capability::CapMeta;
use ohpc_orb::message::{CapWireMeta, GlueWire, DEADLINE_CAP_NAME, DEADLINE_META_KEY};
use ohpc_orb::{ObjectId, RequestId, RequestMessage};
use ohpc_telemetry::Registry;
use ohpc_xdr::{XdrEncode, XdrWriter};

/// Passes everything to the system allocator, counting the allocations of
/// every thread (`alloc_zeroed` arrives through `alloc`).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A bulk echo's payload: 262 144 ints, 1 MiB.
const PAYLOAD_SIZED: usize = 1 << 20;

/// Allocations of at least [`PAYLOAD_SIZED`] bytes.
static PAYLOAD_SIZED_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= PAYLOAD_SIZED {
        PAYLOAD_SIZED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARMUP_CALLS: usize = 1000;
const MEASURED_CALLS: usize = 200;

/// The counts are process-wide: one test at a time, and only once the
/// threads the previous one tore down have gone quiet (a connection's reader
/// counts its peer's hang-up, by name, a moment after the peer is gone).
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    let alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let seen = ALLOCATIONS.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(20));
        if ALLOCATIONS.load(Ordering::Relaxed) == seen {
            return alone;
        }
    }
}

/// Runs `call` [`WARMUP_CALLS`] times, then [`MEASURED_CALLS`] times, and
/// returns what the measured part cost: `(name resolutions, allocations)`
/// over all threads.
fn steady_state_cost(mut call: impl FnMut()) -> (u64, u64) {
    (0..WARMUP_CALLS).for_each(|_| call());
    let resolved = Registry::global().resolutions();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed);
    (0..MEASURED_CALLS).for_each(|_| call());
    (
        Registry::global().resolutions() - resolved,
        ALLOCATIONS.load(Ordering::Relaxed) - allocated,
    )
}

fn payload() -> Vec<i32> {
    vec![1, -2, 3, -4, 5]
}

#[test]
fn a_small_two_way_echo_over_mem_resolves_nothing_and_allocates_at_most_5() {
    let _alone = alone();
    let (server, client) = deploy(Wire::Shm, vec![]);
    let sent = payload();
    let echo = || assert_eq!(client.echo(sent.clone()).unwrap(), sent);
    let (resolutions, allocations) = steady_state_cost(echo);
    server.shutdown();
    assert_eq!(resolutions, 0, "a warmed-up call looked a metric up by name");
    let per_call = allocations as f64 / MEASURED_CALLS as f64;
    assert!(per_call <= 5.0, "{per_call} allocations per echo; the inventory is 5");
}

#[test]
fn a_small_one_way_over_mem_resolves_nothing_and_allocates_at_most_3() {
    let _alone = alone();
    let (server, client) = deploy(Wire::Shm, vec![]);
    let mut args = XdrWriter::new();
    payload().encode(&mut args);
    // Every 50th one-way is followed by a two-way `served()`, which is only
    // answered once the one-ways read before it have run: as the last
    // measured call it means the whole cost of the 200 has been paid when we
    // look.
    let mut sent = 0;
    let oneway = || {
        client.gp().invoke_oneway(1, &args).unwrap();
        sent += 1;
        if sent % 50 == 0 {
            assert_eq!(client.served().unwrap(), sent, "a one-way was shed or reordered");
        }
    };
    let (resolutions, allocations) = steady_state_cost(oneway);
    server.shutdown();
    assert_eq!(resolutions, 0, "a warmed-up one-way looked a metric up by name");
    let per_call = allocations as f64 / MEASURED_CALLS as f64;
    assert!(per_call <= 3.0, "{per_call} allocations per one-way (four two-ways included)");
}

/// The glue section costs 3 over the 5 of a plain echo: per direction the
/// receiver's one copy of the section, and the budget's stamp, which is its
/// metadata blob. Both lists of hops are held in place.
#[test]
fn a_small_echo_through_glue_over_tcp_resolves_nothing_and_allocates_at_most_8() {
    let _alone = alone();
    let (server, client) = deploy(Wire::TcpLoopback, vec![TimeoutCap::spec(u64::MAX / 2)]);
    let sent = payload();
    let echo = || assert_eq!(client.echo(sent.clone()).unwrap(), sent);
    let (resolutions, allocations) = steady_state_cost(echo);
    server.shutdown();
    assert_eq!(resolutions, 0, "a warmed-up glued call looked a metric up by name");
    let per_call = allocations as f64 / MEASURED_CALLS as f64;
    assert!(per_call <= 8.0, "{per_call} allocations per glued echo; the inventory is 8");
}

/// A 1 MiB echo through glue[timeout,security] over TCP makes six
/// payload-sized buffers: the caller's clone of its argument, then per
/// direction the socket read and the unmarshalled `Vec`, plus the client
/// cipher's copy of the plaintext the retry loop keeps. No marshal buffer:
/// the stub and the server's reply writer encode into the buffer their
/// thread sent last. No frame buffer: a frame leaves as its head and the
/// body as it is.
#[test]
fn a_secure_bulk_echo_over_tcp_makes_six_payload_sized_buffers() {
    let _alone = alone();
    let caps = vec![TimeoutCap::spec(u64::MAX / 2), EncryptionCap::spec(KEY_NAME)];
    let (server, client) = deploy(Wire::TcpLoopback, caps);
    let sent: Vec<i32> = (0..(PAYLOAD_SIZED / 4) as i32).collect();
    let echo = || assert_eq!(client.echo(sent.clone()).unwrap(), sent);
    (0..2).for_each(|_| echo());
    let before = PAYLOAD_SIZED_ALLOCATIONS.load(Ordering::Relaxed);
    (0..3).for_each(|_| echo());
    let buffers = PAYLOAD_SIZED_ALLOCATIONS.load(Ordering::Relaxed) - before;
    server.shutdown();
    assert_eq!(buffers, 3 * 6, "payload-sized buffers over three echoes");
}

/// The admission gate peeks at every glued request's deadline stamp; it
/// reads it through views of the decoded section and allocates nothing.
#[test]
fn the_deadline_peek_of_a_stamped_request_allocates_nothing() {
    let _alone = alone();
    let mut stamp = CapMeta::new();
    stamp.set(DEADLINE_META_KEY, 123_456u64.to_be_bytes());
    let hop = |name: &'static str, meta: &CapMeta| CapWireMeta {
        name: name.into(),
        meta: meta.blob().clone(),
    };
    let request = RequestMessage {
        request_id: RequestId(1),
        object: ObjectId(2),
        method: 3,
        oneway: false,
        glue: Some(GlueWire {
            glue_id: 4,
            caps: vec![hop("timeout", &CapMeta::new()), hop(DEADLINE_CAP_NAME, &stamp)].into(),
        }),
        body: Bytes::from_static(&[0; 24]),
        trace: None,
    };
    let received = RequestMessage::from_frame(&request.to_frame()).unwrap();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_CALLS {
        assert_eq!(std::hint::black_box(&received).deadline_expires_ns(), Some(123_456));
    }
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed) - allocated, 0);
}
