//! Hostile frames against the decode path (ROADMAP item 9, its decode
//! slice). The request body is a *view* of the received frame and arrays
//! decode in bulk, so the things an attacker controls — where a frame stops,
//! any bit of it, any length word — must end in a typed error or an error
//! reply: never a panic, never a view reaching outside the frame, never an
//! allocation sized by the attacker rather than by the bytes that arrived.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;

use ohpc_bench::workload::{EchoArray, EchoArraySkeleton};
use ohpc_caps::{register_standard, EncryptionCap, TimeoutCap};
use ohpc_crypto::KeyStore;
use ohpc_netsim::Location;
use ohpc_orb::capability::{process_chain, CallInfo};
use ohpc_orb::message::GlueWire;
use ohpc_orb::{
    CapabilityRegistry, Context, ContextId, Direction, ObjectId, ReplyMessage, ReplyStatus,
    RequestId, RequestMessage,
};
use ohpc_transport::MAX_FRAME;
use ohpc_xdr::{XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter};

/// Passes everything to the system allocator, remembering per thread the
/// largest single request since the last reset.
struct Watching;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread being torn down has no cell left to write; nothing is
    // measured there.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs `f` twice and reports the largest single allocation the second run
/// made on this thread: the first run absorbs whatever `f` sets up lazily on
/// first use (a metric's registration, say), which no frame controls.
fn largest_allocation<R>(f: impl Fn() -> R) -> (R, usize) {
    f();
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What the decoders may reserve beyond the frame's own size: their
/// pre-reservations for small structures are capped at a few dozen elements
/// (capability sections, baggage pairs), whatever the count word claims.
const FIXED_RESERVATIONS: usize = 4096;

const KEY: &str = "hostile";

struct Fixture {
    ctx: Context,
    object: ObjectId,
    request: Bytes,
    /// Length of `request` without its trace extension — the one strict
    /// prefix that is itself a legal (pre-tracing) frame.
    legacy_len: usize,
    reply: Bytes,
}

fn fixture() -> Fixture {
    let registry = CapabilityRegistry::new();
    let mut keys = KeyStore::new();
    keys.add_key(KEY, b"hostile-frames-suite");
    register_standard(&registry, keys);
    let registry = Arc::new(registry);

    let ctx = Context::new(ContextId(9), Location::new(0, 0), registry.clone());
    let object = ctx.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let specs = vec![TimeoutCap::spec(u64::MAX), EncryptionCap::spec(KEY)];
    let glue_id = ctx.add_glue(specs.clone()).unwrap();

    // What a client's glue would put on the wire for echo(100 ints).
    let mut args = XdrWriter::new();
    (0..100).collect::<Vec<i32>>().encode(&mut args);
    let call = CallInfo { object, method: 1, request_id: RequestId(77) };
    let chain = registry.build_chain(&specs).unwrap();
    let (body, caps) = process_chain(&chain, Direction::Request, &call, args.finish()).unwrap();
    let mut trace = ohpc_telemetry::TraceContext::new_root();
    assert!(trace.try_add_baggage("tenant", "blue"));
    let mut message = RequestMessage {
        request_id: call.request_id,
        object,
        method: call.method,
        oneway: false,
        glue: Some(GlueWire { glue_id, caps }),
        body,
        trace: Some(trace),
    };
    let request = message.to_frame();
    message.trace = None;
    let legacy_len = message.encoded_len();

    let reply = ctx.handle_frame_opt(request.clone()).expect("a two-way request is answered");
    let decoded = ReplyMessage::from_frame(&reply).unwrap();
    assert_eq!(decoded.status, ReplyStatus::Ok);
    assert!(decoded.glue.is_some() && decoded.body.len() == 404);
    Fixture { ctx, object, request, legacy_len, reply }
}

/// Every strict prefix, every single-bit flip in the first 256 and the last
/// 64 bytes, and every aligned word — the length words among them —
/// overwritten with `0xFFFF_FFFF`, its own value plus one, and
/// `MAX_FRAME + 1`.
fn mutants(frame: &Bytes) -> Vec<Bytes> {
    let mut out: Vec<Bytes> = (0..frame.len()).map(|cut| frame.slice(..cut)).collect();
    let flippable = (0..frame.len()).filter(|&i| i < 256 || i + 64 >= frame.len());
    for i in flippable {
        for bit in 0..8 {
            let mut bytes = frame.to_vec();
            bytes[i] ^= 1 << bit;
            out.push(Bytes::from(bytes));
        }
    }
    for at in (0..frame.len()).step_by(4) {
        let word = u32::from_be_bytes(frame[at..at + 4].try_into().unwrap());
        for hostile in [u32::MAX, word.wrapping_add(1), MAX_FRAME as u32 + 1] {
            let mut bytes = frame.to_vec();
            bytes[at..at + 4].copy_from_slice(&hostile.to_be_bytes());
            out.push(Bytes::from(bytes));
        }
    }
    out
}

fn assert_inside(view: &Bytes, frame: &Bytes) {
    if view.is_empty() {
        return;
    }
    let (lo, hi) = (frame.as_ptr() as usize, frame.as_ptr() as usize + frame.len());
    let at = view.as_ptr() as usize;
    assert!(lo <= at && at + view.len() <= hi, "decoded body reaches outside its frame");
}

#[test]
fn mutated_frames_decode_to_typed_errors_within_the_bytes_that_arrived() {
    let fx = fixture();
    assert!(fx.request.len() > 256 + 64 && fx.reply.len() > 256 + 64);
    for (valid, is_request) in [(&fx.request, true), (&fx.reply, false)] {
        for mutant in mutants(valid) {
            let budget = mutant.len() + FIXED_RESERVATIONS;
            let strict_prefix = mutant.len() < valid.len();

            let (request, largest) = largest_allocation(|| RequestMessage::from_frame(&mutant));
            assert!(largest <= budget, "request decode allocated {largest} B for {budget}");
            match &request {
                Ok(req) => assert_inside(&req.body, &mutant),
                Err(e) => drop(e.to_string()),
            }
            if is_request && strict_prefix {
                assert_eq!(request.is_ok(), mutant.len() == fx.legacy_len, "cut {}", mutant.len());
            }

            let (reply, largest) = largest_allocation(|| ReplyMessage::from_frame(&mutant));
            assert!(largest <= budget, "reply decode allocated {largest} B for {budget}");
            match &reply {
                Ok(rep) => assert_inside(&rep.body, &mutant),
                Err(e) => drop(e.to_string()),
            }
            if !is_request && strict_prefix {
                assert!(reply.is_err(), "reply cut at {} decoded", mutant.len());
            }

            // The serving path: whatever arrives is answered with a
            // well-formed reply (or, for a frame that reads as a one-way,
            // with nothing) — and a frame that did not decode, with an
            // error.
            let (answer, largest) = largest_allocation(|| fx.ctx.handle_frame_opt(mutant.clone()));
            // (A flipped object id can address the context's introspection
            // object, whose metrics dump is as large as it is: a reply sized
            // by the server, not by the frame.)
            if request.as_ref().map_or(true, |r| r.object == fx.object) {
                assert!(largest <= budget, "serving allocated {largest} B for {budget}");
            }
            match answer {
                Some(frame) => {
                    let answer = ReplyMessage::from_frame(&frame).expect("server replies decode");
                    if request.is_err() {
                        assert!(matches!(answer.status, ReplyStatus::Exception(_)));
                    }
                }
                None => assert!(request.is_ok_and(|r| r.oneway)),
            }
        }
    }
    fx.ctx.shutdown();
}

#[test]
fn array_counts_beyond_the_remaining_bytes_are_truncated_before_allocating() {
    fn refused<T>(count: u32, supplied_words: usize)
    where
        Vec<T>: XdrDecode + std::fmt::Debug,
    {
        let mut w = XdrWriter::new();
        w.put_u32(count);
        for _ in 0..supplied_words {
            w.put_u32(0);
        }
        let buf = w.finish();
        let (decoded, largest) =
            largest_allocation(|| Vec::<T>::decode(&mut XdrReader::new(&buf)));
        assert!(matches!(decoded, Err(XdrError::Truncated { .. })), "{decoded:?}");
        assert_eq!(largest, 0, "a refused count must not have sized an allocation");
    }
    // The watch itself works: an allocation that does happen is seen.
    assert!(largest_allocation(|| vec![1u8; 5000]).1 >= 5000);
    refused::<i32>(1 << 20, 0);
    refused::<i32>(5, 4);
    refused::<u32>(u32::MAX >> 8, 16);
    refused::<f32>(3, 2);
    // Wide elements: the count fits the one-word-per-element check and the
    // array still does not fit.
    refused::<u64>(4, 4);
    refused::<i64>(1 << 20, 1 << 20);
    refused::<f64>(2, 3);
}

/// A glue section mirrors a capability chain, and no OR may carry a chain of
/// more than 64: a section claiming 65 — in a frame that does hold 65 (empty)
/// entries, so the count passes the reader's own bound — is refused on the
/// count, before a single `CapWireMeta` is decoded or reserved.
#[test]
fn a_glue_section_longer_than_any_chain_is_refused_on_its_count() {
    use ohpc_orb::message::CapWireMeta;

    let request = |caps: usize| {
        let mut w = XdrWriter::new();
        w.put_u64(77); // request id
        w.put_u64(9); // object
        w.put_u32(1); // method
        w.put_bool(false); // two-way
        w.put_bool(true); // glue section present
        w.put_u64(0xCAFE); // glue id
        w.put_array_len(caps);
        for _ in 0..caps {
            w.put_string(""); // name
            w.put_opaque(&[]); // meta
        }
        w.put_opaque(&[]); // body
        w.finish()
    };
    let longest = RequestMessage::from_frame(&request(64)).expect("64 entries are a legal chain");
    assert_eq!(longest.glue.map(|g| g.caps.len()), Some(64));

    let frame = request(65);
    let (decoded, largest) = largest_allocation(|| RequestMessage::from_frame(&frame));
    assert_eq!(decoded.unwrap_err(), XdrError::LengthOverflow { declared: 65, limit: 64 });
    // The entries' up-front reservation was never made (what is allocated is
    // the malformed-frame counter's key).
    assert!(largest < 64 * std::mem::size_of::<CapWireMeta>(), "allocated {largest} B");
}

/// The transport's own length word: a TCP peer that announces a frame over
/// [`MAX_FRAME`] is refused on the announcement. Measured on the second such
/// peer, so the error counter's first registration is not counted; what is
/// left to allocate is the error's metric key and text.
#[test]
fn an_oversized_tcp_length_prefix_is_refused_without_an_allocation_for_its_body() {
    use ohpc_transport::tcp::TcpAcceptor;
    use ohpc_transport::{Endpoint, Listener, TransportError};
    use std::io::Write;

    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let Endpoint::Tcp(addr) = acceptor.endpoint() else { panic!("tcp endpoint") };
    let refused = |acceptor: &mut TcpAcceptor| {
        let mut peer = std::net::TcpStream::connect(addr.as_str()).unwrap();
        peer.write_all(&(MAX_FRAME as u32 + 1).to_be_bytes()).unwrap();
        let mut server = acceptor.accept().unwrap();
        LARGEST.with(|largest| largest.set(0));
        let err = server.recv().unwrap_err();
        assert_eq!(err, TransportError::FrameTooLarge(MAX_FRAME + 1));
        LARGEST.with(Cell::get)
    };
    refused(&mut acceptor);
    let largest = refused(&mut acceptor);
    assert!(largest <= FIXED_RESERVATIONS, "the refusal allocated {largest} B");
}
