//! Hostile frames against the decode path (ROADMAP item 9, its decode
//! slice). The request body is a *view* of the received frame and arrays
//! decode in bulk, so the things an attacker controls — where a frame stops,
//! any bit of it, any length word — must end in a typed error or an error
//! reply: never a panic, never a view reaching outside the frame, never an
//! allocation sized by the attacker rather than by the bytes that arrived.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;

use ohpc_bench::workload::{EchoArray, EchoArrayClient, EchoArraySkeleton};
use ohpc_caps::{register_standard, EncryptionCap, TimeoutCap};
use ohpc_crypto::KeyStore;
use ohpc_netsim::Location;
use ohpc_nexus::{HEADER_LEN, TAG_ONEWAY, TAG_REPLY_NO_HANDLER, TAG_REPLY_OK, TAG_REQUEST};
use ohpc_orb::capability::{process_chain, CallInfo, CapMeta};
use ohpc_orb::context::OrRow;
use ohpc_orb::message::{
    Framing, GlueWire, DEADLINE_CAP_NAME, DEADLINE_META_KEY, NEXUS_ORB_HANDLER,
};
use ohpc_orb::transport_proto::NexusProto;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, Direction, GlobalPointer, ObjectId,
    ProtoPool, ProtocolId, ReplyMessage, ReplyStatus, RequestId, RequestMessage, TransportProto,
};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::{Dialer, TransportError, MAX_FRAME};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter};

/// Passes everything to the system allocator, remembering per thread the
/// largest single request since the last reset, and counting over all
/// threads the requests of a bulk payload's size.
struct Watching;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// What the copy budget counts: one buffer that could hold a 1 MiB payload.
const BULK: usize = 1 << 20;

static BULK_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// `BULK_ALLOCATIONS` counts over every thread, so a test that reads it runs
/// apart from any test that makes payload-sized buffers of its own.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

fn note(size: usize) {
    if size >= BULK {
        BULK_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    // A thread being torn down has no cell left to write; nothing is
    // measured there.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches a thread-local
// `Cell` and an atomic, and never allocates.
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

    let reply = ctx
        .handle_frame_opt(request.clone(), Framing::Bare)
        .expect("a bare frame is never hung up on")
        .expect("a two-way request is answered");
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
            let serve = || fx.ctx.handle_frame_opt(mutant.clone(), Framing::Bare);
            let (answer, largest) = largest_allocation(serve);
            let answer = answer.expect("a bare frame is never hung up on");
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

fn malformed_rsr_frames() -> u64 {
    let counter = ohpc_telemetry::Registry::global()
        .counter("orb_malformed_frames_total", &[("kind", "rsr")]);
    counter.get()
}

/// The RSR header in front of a request is attacker-controlled too. Whatever
/// it says, the frame ends in a typed reply, a counted drop or a hang-up —
/// and only a well-formed request for the ORB's handler is ever dispatched.
#[test]
fn hostile_rsr_headers_are_refused_dropped_or_hung_up_on() {
    let fx = fixture();
    let two_way = RequestMessage::from_frame(&fx.request).unwrap();
    let one_way = RequestMessage { oneway: true, ..two_way.clone() };
    let valid = two_way.to_frame_as(Framing::Rsr);
    let header = |tag: u32, handler: u32, of: &Bytes| {
        let mut bytes = of.to_vec();
        bytes[..4].copy_from_slice(&tag.to_be_bytes());
        bytes[4..8].copy_from_slice(&handler.to_be_bytes());
        Bytes::from(bytes)
    };
    let orb = NEXUS_ORB_HANDLER.0;

    let mut mutants: Vec<Bytes> = (0..valid.len()).map(|cut| valid.slice(..cut)).collect();
    for bit in 0..8 * HEADER_LEN {
        let mut bytes = valid.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        mutants.push(Bytes::from(bytes));
    }
    for tag in [0, TAG_REPLY_OK, TAG_REPLY_NO_HANDLER, 6, u32::MAX] {
        mutants.push(header(tag, orb, &valid));
    }
    for tag in [TAG_ONEWAY, TAG_REQUEST] {
        mutants.push(header(tag, 7, &valid));
    }
    // The tag says one thing about who waits, the request's flag the other.
    mutants.push(header(TAG_ONEWAY, orb, &valid));
    mutants.push(header(TAG_REQUEST, orb, &one_way.to_frame_as(Framing::Rsr)));

    let legacy = HEADER_LEN + fx.legacy_len;
    for mutant in mutants {
        let (served, counted) = (fx.ctx.requests_served(), malformed_rsr_frames());
        let serve = || fx.ctx.handle_frame_opt(mutant.clone(), Framing::Rsr);
        let (answer, largest) = largest_allocation(serve);
        let budget = mutant.len() + FIXED_RESERVATIONS;
        assert!(largest <= budget, "serving allocated {largest} B for {budget}");
        // `largest_allocation` serves the frame twice.
        let dispatched = (fx.ctx.requests_served() - served) / 2;
        let counted = (malformed_rsr_frames() - counted) / 2;

        let word = |at: usize| mutant.get(at..at + 4).map(|w| u32::from_be_bytes(w.try_into().unwrap()));
        let (tag, handler) = (word(0), word(4));
        let well_framed = matches!(tag, Some(TAG_ONEWAY | TAG_REQUEST)) && handler.is_some();
        // The pre-tracing prefix of the request is a request.
        let is_request = mutant.len() == legacy && tag == Some(TAG_REQUEST) && handler == Some(orb);
        assert_eq!(dispatched, u64::from(is_request), "tag {tag:?} handler {handler:?}");
        match answer {
            Err(_) => assert!(!well_framed && counted == 1, "hung up on tag {tag:?}"),
            Ok(_) if !well_framed => panic!("tag {tag:?} handler {handler:?} was served"),
            Ok(None) => assert!(tag == Some(TAG_ONEWAY) && counted == 1, "dropped tag {tag:?}"),
            Ok(Some(reply)) if handler != Some(orb) => {
                assert_eq!(reply, header(TAG_REPLY_NO_HANDLER, handler.unwrap(), &reply.slice(..8)));
            }
            Ok(Some(reply)) => {
                assert_eq!(reply.slice(..HEADER_LEN), header(TAG_REPLY_OK, orb, &reply.slice(..8)));
                let reply = ReplyMessage::from_frame(&reply.slice(HEADER_LEN..)).unwrap();
                assert_eq!(reply.status == ReplyStatus::Ok, is_request, "{:?}", reply.status);
            }
        }
    }

    // The same through a listener: a hang-up closes that connection and no
    // other, a refusal keeps even its own.
    let fabric = MemFabric::new();
    fx.ctx.serve_nexus(Box::new(fabric.listen_on(1)), ProtocolId::NEXUS_TCP);
    let dial = || fabric.dial(&ohpc_transport::Endpoint::Mem(1)).unwrap();
    for hung_up_on in [valid.slice(..5), header(9, orb, &valid), header(TAG_REPLY_OK, orb, &valid)] {
        let mut conn = dial();
        conn.send(&hung_up_on).unwrap();
        assert_eq!(conn.recv().unwrap_err(), TransportError::Closed);
    }
    let mut conn = dial();
    conn.send(&header(TAG_REQUEST, 7, &valid)).unwrap();
    assert_eq!(conn.recv().unwrap(), header(TAG_REPLY_NO_HANDLER, 7, &valid.slice(..8)));
    conn.send(&header(TAG_ONEWAY, orb, &valid)).unwrap(); // dropped: nothing comes back
    conn.send(&valid).unwrap();
    let reply = ReplyMessage::from_frame(&conn.recv().unwrap().slice(HEADER_LEN..)).unwrap();
    assert_eq!((reply.request_id, reply.status), (two_way.request_id, ReplyStatus::Ok));
    fx.ctx.shutdown();
}

/// The copy budget of the baseline: a warmed 1 MiB echo through `NexusProto`
/// allocates exactly as many payload-sized buffers, over all threads, as the
/// same echo through `TransportProto`, five — the RSR header rides in the
/// head of a frame sent in parts, like the rest of the message's header.
#[test]
fn a_bulk_echo_over_nexus_copies_no_more_than_over_the_bare_protocol() {
    let _alone = alone();
    let registry = Arc::new(CapabilityRegistry::new());
    let ctx = Context::new(ContextId(10), Location::new(0, 0), registry);
    let object = ctx.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let fabric = MemFabric::new();
    ctx.serve(Box::new(fabric.listen()), ProtocolId::SHM);
    ctx.serve_nexus(Box::new(fabric.listen()), ProtocolId::NEXUS_TCP);
    let dialer: Arc<dyn Dialer> = Arc::new(fabric);
    let client = |protocol: ProtocolId, proto: TransportProto| {
        let or = ctx.make_or(object, &[OrRow::Plain(protocol)]).unwrap();
        let pool = Arc::new(ProtoPool::new().with(Arc::new(proto)));
        EchoArrayClient::new(GlobalPointer::new(or, pool, Location::new(0, 0)))
    };
    let always = ApplicabilityRule::Always;
    let bare = client(ProtocolId::SHM, TransportProto::new(ProtocolId::SHM, always, dialer.clone()));
    let nexus = client(ProtocolId::NEXUS_TCP, NexusProto::new(ProtocolId::NEXUS_TCP, always, dialer));

    let payload: Vec<i32> = (0..BULK as i32 / 4).collect();
    let bulk_buffers = |client: &EchoArrayClient| {
        assert_eq!(client.echo(payload.clone()).unwrap().len(), payload.len()); // warm-up
        // The fewest of three echoes: each marshals into the buffer its
        // writer's thread sent last, which a thread that never sent one —
        // the pool worker a debug build's slow first call leaves the
        // connection to, once rescued — allocates afresh.
        let buffers = (0..3).map(|_| {
            let before = BULK_ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(client.echo(payload.clone()).unwrap(), payload);
            BULK_ALLOCATIONS.load(Ordering::Relaxed) - before
        });
        buffers.min().unwrap()
    };
    let (over_bare, over_nexus) = (bulk_buffers(&bare), bulk_buffers(&nexus));
    // The caller's clone, then per direction the fabric's one copy of the
    // frame sent in parts, and unmarshal.
    assert_eq!(over_bare, 5, "payload-sized buffers over the bare protocol");
    assert_eq!(over_nexus, 5, "payload-sized buffers over Nexus");
    ctx.shutdown();
}

#[test]
fn array_counts_beyond_the_remaining_bytes_are_truncated_before_allocating() {
    let _alone = alone(); // its 4 MiB writer is a payload-sized buffer
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

    // The section alone — glue id, count, entries — between the request's
    // header words and its empty body: refused before its bytes are copied
    // out or a list of any length is made.
    let section = frame.slice(8 + 8 + 4 + 4 + 4..frame.len() - 4);
    let (decoded, largest) =
        largest_allocation(|| GlueWire::decode(&mut XdrReader::over_frame(&section)));
    assert_eq!(decoded.unwrap_err(), XdrError::LengthOverflow { declared: 65, limit: 64 });
    assert_eq!(largest, 0, "a refused section must not have sized an allocation");
}

/// A served context whose one glue chain is `glue[timeout]`.
struct Glued {
    ctx: Context,
    object: ObjectId,
    glue_id: u64,
}

fn glued_server() -> Glued {
    let ctx = Context::new(ContextId(11), Location::new(0, 0), Arc::new(standard_registry()));
    let object = ctx.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let glue_id = ctx.add_glue(vec![TimeoutCap::spec(u64::MAX)]).unwrap();
    Glued { ctx, object, glue_id }
}

impl Glued {
    /// The bytes of a request whose glue section carries `hops` — a name's
    /// raw bytes and a metadata blob each — around a valid echo body.
    fn request(&self, hops: &[(&[u8], Bytes)]) -> Bytes {
        let mut w = XdrWriter::new();
        w.put_u64(77); // request id
        w.put_u64(self.object.0);
        w.put_u32(1); // echo
        w.put_bool(false); // two-way
        w.put_bool(true); // glue section present
        w.put_u64(self.glue_id);
        w.put_array_len(hops.len());
        for (name, meta) in hops {
            w.put_opaque(name);
            w.put_opaque(meta);
        }
        let mut args = XdrWriter::new();
        vec![1i32, 2, 3].encode(&mut args);
        w.put_opaque(args.peek());
        w.finish()
    }

    /// What serving `frame` answers: the reply's status.
    fn served(&self, frame: Bytes) -> ReplyStatus {
        let reply = self.ctx.handle_frame_opt(frame, Framing::Bare).unwrap();
        ReplyMessage::from_frame(&reply.expect("a two-way is answered")).unwrap().status
    }
}

fn standard_registry() -> CapabilityRegistry {
    let registry = CapabilityRegistry::new();
    register_standard(&registry, KeyStore::new());
    registry
}

/// A metadata blob of `keys`, in the order given, each with a one-byte value.
fn meta_blob(keys: &[String]) -> Bytes {
    let mut w = XdrWriter::new();
    w.put_array_len(keys.len());
    for key in keys {
        w.put_string(key);
        w.put_opaque(b"v");
    }
    w.finish()
}

/// A capability's metadata blob is bounded like the section that carries
/// it: 64 entries are read, a blob declaring 65 — and holding them, so the
/// count passes the reader's own bound — is refused on the count, before an
/// entry is read or anything allocated, and the call with an error reply.
#[test]
fn a_metadata_blob_of_more_than_64_entries_is_refused_on_its_count() {
    let keys: Vec<String> = (0..65).map(|i| format!("key{i:02}")).collect();
    let server = glued_server();
    let timeout = |blob: Bytes| server.served(server.request(&[(b"timeout", blob)]));
    assert_eq!(timeout(meta_blob(&keys[..64])), ReplyStatus::Ok);

    let blob = meta_blob(&keys);
    let (parsed, largest) = largest_allocation(|| CapMeta::parse(&blob));
    assert_eq!(parsed.unwrap_err(), XdrError::LengthOverflow { declared: 65, limit: 64 });
    assert_eq!(largest, 0, "a refused count must not have sized an allocation");
    match timeout(blob) {
        ReplyStatus::Exception(e) => assert!(e.contains("XDR length 65 exceeds limit 64"), "{e}"),
        status => panic!("65 entries were served: {status:?}"),
    }
    server.ctx.shutdown();
}

/// A capability name travels as a string: bytes that are not UTF-8 make the
/// frame malformed — a typed error to the decoder, an error reply to the
/// peer — never a panic.
#[test]
fn a_capability_name_that_is_not_utf8_is_a_typed_error() {
    let server = glued_server();
    let frame = server.request(&[(&[0xC3, 0x28], CapMeta::new().blob().clone())]);
    assert_eq!(RequestMessage::from_frame(&frame).unwrap_err(), XdrError::InvalidUtf8);
    match server.served(frame) {
        ReplyStatus::Exception(e) => assert!(e.starts_with("malformed request"), "{e}"),
        status => panic!("a non-UTF-8 name was served: {status:?}"),
    }
    server.ctx.shutdown();
}

/// The policy for a key that appears twice in one blob: refused, never
/// resolved to either value — by the chain with an error reply, and by the
/// admission gate's deadline peek as no stamp at all.
#[test]
fn a_metadata_blob_that_repeats_a_key_is_refused() {
    let server = glued_server();
    let repeated = meta_blob(&["seq".into(), "seq".into()]);
    assert_eq!(
        CapMeta::parse(&repeated).unwrap_err(),
        XdrError::custom("repeated capability metadata key")
    );
    match server.served(server.request(&[(b"timeout", repeated)])) {
        ReplyStatus::Exception(e) => assert!(e.contains("repeated capability metadata key"), "{e}"),
        status => panic!("a repeated key was served: {status:?}"),
    }

    let mut stamp = XdrWriter::new();
    stamp.put_array_len(2);
    for expires_ns in [1u64, u64::MAX] {
        stamp.put_string(DEADLINE_META_KEY);
        stamp.put_opaque(&expires_ns.to_be_bytes());
    }
    let frame = server.request(&[(DEADLINE_CAP_NAME.as_bytes(), stamp.finish())]);
    assert_eq!(RequestMessage::from_frame(&frame).unwrap().deadline_expires_ns(), None);
    server.ctx.shutdown();
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
