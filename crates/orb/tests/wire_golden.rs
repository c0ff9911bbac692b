//! Golden frames: the bytes every wire message encoded to at `f2fe80a`, the
//! last commit whose codecs were written by hand (captured there by running
//! this file's values through its encoders). Tags, field order, padding and
//! the trailing extension are wire protocol — they never change meaning — so
//! each value must still encode to exactly these bytes, decode back from
//! them, and report their length. (`CapScope` lives above this crate; its
//! three goldens are in `crates/caps/tests/proptest_chains.rs`.)

// Test code may block and spawn: clippy.toml's rules are for serving code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use ohpc_orb::message::{CapWireMeta, GlueWire};
use ohpc_orb::{
    CapabilitySpec, Location, ObjectId, ObjectReference, ProtoEntry, ProtocolId, ReplyMessage,
    ReplyStatus, RequestId, RequestMessage,
};
use ohpc_telemetry::TraceContext;
use ohpc_xdr::{decode_from_slice, encode_to_vec, XdrDecode, XdrEncode};

fn unhex(golden: &str) -> Vec<u8> {
    let digits: Vec<u8> = golden.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd number of hex digits");
    let nibble = |d: u8| (d as char).to_digit(16).expect("hex digit") as u8;
    digits.chunks(2).map(|pair| nibble(pair[0]) << 4 | nibble(pair[1])).collect()
}

fn hex(bytes: &[u8]) -> String {
    let lines: Vec<String> =
        bytes.chunks(32).map(|l| l.iter().map(|b| format!("{b:02x}")).collect()).collect();
    lines.join("\n")
}

/// `encode` reproduces the golden bytes, `decode` of them gives the value
/// back, and `encoded_len` is their length.
fn pinned<T>(name: &str, value: &T, golden: &str)
where
    T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug,
{
    let golden = unhex(golden);
    let encoded = encode_to_vec(value);
    assert_eq!(encoded, golden, "{name} encodes to\n{}", hex(&encoded));
    assert_eq!(&decode_from_slice::<T>(&golden).expect(name), value, "{name}");
    assert_eq!(value.encoded_len(), golden.len(), "{name}");
}

fn request(oneway: bool, glue: Option<GlueWire>, trace: Option<TraceContext>) -> RequestMessage {
    RequestMessage {
        request_id: RequestId(0x0102_0304_0506_0708),
        object: ObjectId(0x0000_0009_0000_0001),
        method: 3,
        oneway,
        glue,
        // echo(5 ints), as the small-call workloads send it.
        body: Bytes::from(encode_to_vec(&vec![1i32, -2, 3, -4, 5])),
        trace,
    }
}

/// What `glue[timeout,security]` puts on the wire: no metadata from the
/// budget, a 33-byte block (nonce + key id) from the cipher.
fn glue_section() -> GlueWire {
    let nonce_and_key: Vec<u8> = (1..=33).collect();
    GlueWire {
        glue_id: 0xCAFE,
        caps: vec![
            CapWireMeta { name: "timeout".into(), meta: Bytes::new() },
            CapWireMeta { name: "security".into(), meta: Bytes::from(nonce_and_key) },
        ]
        .into(),
    }
}

fn trace_context() -> TraceContext {
    TraceContext {
        trace_id: 0x1111_2222_3333_4444_5555_6666_7777_8888,
        span_id: 0xAAAA_BBBB_CCCC_DDDD,
        parent_span_id: 0x0123_4567_89AB_CDEF,
        baggage: vec![("tenant".into(), "blue".into()), ("shard".into(), "7".into())],
    }
}

fn capability_spec() -> CapabilitySpec {
    CapabilitySpec::with_config("encrypt", vec![0xC0, 0xFF, 0xEE, 0x01, 0x02])
}

/// An OR whose first table row is a glue entry wrapping a glue entry.
fn moved_or() -> ObjectReference {
    let wire = ProtoEntry::endpoint(ProtocolId::TCP, "tcp://10.0.0.1:99");
    let inner = ProtoEntry::glue(1, vec![CapabilitySpec::new("compress")], wire);
    let outer =
        ProtoEntry::glue(2, vec![CapabilitySpec::new("timeout"), capability_spec()], inner);
    ObjectReference {
        object: ObjectId(77),
        type_name: "Echo".into(),
        location: Location::with_site(1, 2, 3),
        protocols: vec![outer, ProtoEntry::endpoint(ProtocolId::SHM, "mem://4")],
    }
}

/// One sample of every status, in tag order.
fn statuses() -> Vec<ReplyStatus> {
    vec![
        ReplyStatus::Ok,
        ReplyStatus::Exception("kaboom".into()),
        ReplyStatus::Moved(Box::new(moved_or())),
        ReplyStatus::NoSuchObject,
        ReplyStatus::NoSuchMethod(17),
        ReplyStatus::CapabilityDenied("mac mismatch".into()),
        ReplyStatus::UnknownGlue(0xBEEF),
        ReplyStatus::Overloaded("512 in flight".into()),
        ReplyStatus::DeadlineExpired("50 ms gone".into()),
    ]
}

/// [`pinned`], and the same three facts through the frame entry points the
/// ORB calls.
fn request_pinned(name: &str, req: &RequestMessage, golden: &str) {
    pinned(name, req, golden);
    let golden = Bytes::from(unhex(golden));
    assert_eq!(req.to_frame(), golden, "{name}");
    assert_eq!(&RequestMessage::from_frame(&golden).expect(name), req, "{name}");
    assert_eq!(req.encoded_len(), golden.len(), "{name}");
}

const REQUEST_PLAIN: &str = "\
    0102030405060708000000090000000100000003000000000000000000000018\
    0000000500000001fffffffe00000003fffffffc00000005";

const REQUEST_GLUE: &str = "\
    0102030405060708000000090000000100000003000000000000000100000000\
    0000cafe000000020000000774696d656f757400000000000000000873656375\
    72697479000000210102030405060708090a0b0c0d0e0f101112131415161718\
    191a1b1c1d1e1f2021000000000000180000000500000001fffffffe00000003\
    fffffffc00000005";

const REQUEST_TRACED: &str = "\
    0102030405060708000000090000000100000003000000000000000000000018\
    0000000500000001fffffffe00000003fffffffc00000005000000010000004c\
    11112222333344445555666677778888aaaabbbbccccdddd0123456789abcdef\
    000000020000000674656e616e74000000000004626c75650000000573686172\
    640000000000000137000000";

const REQUEST_ONEWAY: &str = "\
    0102030405060708000000090000000100000003000000010000000100000000\
    0000cafe000000020000000774696d656f757400000000000000000873656375\
    72697479000000210102030405060708090a0b0c0d0e0f101112131415161718\
    191a1b1c1d1e1f2021000000000000180000000500000001fffffffe00000003\
    fffffffc00000005";

/// `REQUEST_PLAIN` followed by an extension of version 2 carrying the 15
/// bytes `from-the-future`.
const REQUEST_FUTURE_EXTENSION: &str = "\
    0102030405060708000000090000000100000003000000000000000000000018\
    0000000500000001fffffffe00000003fffffffc00000005000000020000000f\
    66726f6d2d7468652d66757475726500";

#[test]
fn requests() {
    request_pinned("plain", &request(false, None, None), REQUEST_PLAIN);
    request_pinned("glue", &request(false, Some(glue_section()), None), REQUEST_GLUE);
    request_pinned("traced", &request(false, None, Some(trace_context())), REQUEST_TRACED);
    request_pinned("oneway", &request(true, Some(glue_section()), None), REQUEST_ONEWAY);
}

/// A traceless frame is the pre-tracing encoding (`REQUEST_PLAIN` ends with
/// its body: no extension bytes), and an extension of a version this decoder
/// does not know is skipped whole.
#[test]
fn legacy_and_future_request_frames_decode_as_traceless() {
    for golden in [REQUEST_PLAIN, REQUEST_FUTURE_EXTENSION] {
        let decoded = RequestMessage::from_frame(&Bytes::from(unhex(golden))).expect("decodes");
        assert_eq!(decoded, request(false, None, None));
    }
}

/// Indexed by wire tag; each row is the status without and with a reply
/// glue section.
const REPLIES: [[&str; 2]; 9] = [
    [
        "\
            01020304050607080000000000000000000000180000000500000001fffffffe\
            00000003fffffffc00000005",
        "\
            01020304050607080000000000000001000000000000cafe0000000200000007\
            74696d656f757400000000000000000873656375726974790000002101020304\
            05060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021000000\
            000000180000000500000001fffffffe00000003fffffffc00000005",
    ],
    [
        "010203040506070800000001000000066b61626f6f6d00000000000000000000",
        "\
            010203040506070800000001000000066b61626f6f6d00000000000100000000\
            0000cafe000000020000000774696d656f757400000000000000000873656375\
            72697479000000210102030405060708090a0b0c0d0e0f101112131415161718\
            191a1b1c1d1e1f202100000000000000",
    ],
    [
        "\
            010203040506070800000002000000000000004d000000044563686f00000001\
            0000000200000003000000020000006400000001000000000000000200000002\
            0000000774696d656f7574000000000000000007656e63727970740000000005\
            c0ffee0102000000000000640000000100000000000000010000000100000008\
            636f6d7072657373000000000000000100000000000000117463703a2f2f3130\
            2e302e302e313a39390000000000000200000000000000076d656d3a2f2f3400\
            0000000000000000",
        "\
            010203040506070800000002000000000000004d000000044563686f00000001\
            0000000200000003000000020000006400000001000000000000000200000002\
            0000000774696d656f7574000000000000000007656e63727970740000000005\
            c0ffee0102000000000000640000000100000000000000010000000100000008\
            636f6d7072657373000000000000000100000000000000117463703a2f2f3130\
            2e302e302e313a39390000000000000200000000000000076d656d3a2f2f3400\
            00000001000000000000cafe000000020000000774696d656f75740000000000\
            000000087365637572697479000000210102030405060708090a0b0c0d0e0f10\
            1112131415161718191a1b1c1d1e1f202100000000000000",
    ],
    [
        "0102030405060708000000030000000000000000",
        "\
            01020304050607080000000300000001000000000000cafe0000000200000007\
            74696d656f757400000000000000000873656375726974790000002101020304\
            05060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021000000\
            00000000",
    ],
    [
        "010203040506070800000004000000110000000000000000",
        "\
            0102030405060708000000040000001100000001000000000000cafe00000002\
            0000000774696d656f7574000000000000000008736563757269747900000021\
            0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20\
            2100000000000000",
    ],
    [
        "\
            0102030405060708000000050000000c6d6163206d69736d6174636800000000\
            00000000",
        "\
            0102030405060708000000050000000c6d6163206d69736d6174636800000001\
            000000000000cafe000000020000000774696d656f7574000000000000000008\
            7365637572697479000000210102030405060708090a0b0c0d0e0f1011121314\
            15161718191a1b1c1d1e1f202100000000000000",
    ],
    [
        "010203040506070800000006000000000000beef0000000000000000",
        "\
            010203040506070800000006000000000000beef00000001000000000000cafe\
            000000020000000774696d656f75740000000000000000087365637572697479\
            000000210102030405060708090a0b0c0d0e0f101112131415161718191a1b1c\
            1d1e1f202100000000000000",
    ],
    [
        "\
            0102030405060708000000070000000d35313220696e20666c69676874000000\
            0000000000000000",
        "\
            0102030405060708000000070000000d35313220696e20666c69676874000000\
            00000001000000000000cafe000000020000000774696d656f75740000000000\
            000000087365637572697479000000210102030405060708090a0b0c0d0e0f10\
            1112131415161718191a1b1c1d1e1f202100000000000000",
    ],
    [
        "\
            0102030405060708000000080000000a3530206d7320676f6e65000000000000\
            00000000",
        "\
            0102030405060708000000080000000a3530206d7320676f6e65000000000001\
            000000000000cafe000000020000000774696d656f7574000000000000000008\
            7365637572697479000000210102030405060708090a0b0c0d0e0f1011121314\
            15161718191a1b1c1d1e1f202100000000000000",
    ],
];

#[test]
fn replies_of_every_status_with_and_without_glue() {
    let statuses = statuses();
    assert_eq!(statuses.len(), REPLIES.len());
    for (status, row) in statuses.into_iter().zip(REPLIES) {
        for (glue, golden) in [None, Some(glue_section())].into_iter().zip(row) {
            let name = format!("tag {} glue {}", status.wire_tag(), glue.is_some());
            let body = match status {
                ReplyStatus::Ok => request(false, None, None).body,
                _ => Bytes::new(),
            };
            let reply = ReplyMessage {
                request_id: RequestId(0x0102_0304_0506_0708),
                status: status.clone(),
                glue,
                body,
            };
            pinned(&name, &reply, golden);
            let golden = Bytes::from(unhex(golden));
            assert_eq!(reply.to_frame(), golden, "{name}");
            assert_eq!(ReplyMessage::from_frame(&golden).expect(&name), reply, "{name}");
            assert_eq!(reply.encoded_len(), golden.len(), "{name}");
        }
    }
}

const OBJECT_REFERENCE: &str = "\
    000000000000004d000000044563686f00000001000000020000000300000002\
    00000064000000010000000000000002000000020000000774696d656f757400\
    0000000000000007656e63727970740000000005c0ffee010200000000000064\
    0000000100000000000000010000000100000008636f6d707265737300000000\
    0000000100000000000000117463703a2f2f31302e302e302e313a3939000000\
    0000000200000000000000076d656d3a2f2f3400";

const CAPABILITY_SPEC: &str = "00000007656e63727970740000000005c0ffee0102000000";

#[test]
fn references_specs_and_ids() {
    pinned("object reference", &moved_or(), OBJECT_REFERENCE);
    assert_eq!(moved_or().to_bytes(), unhex(OBJECT_REFERENCE));
    pinned("capability spec", &capability_spec(), CAPABILITY_SPEC);
    pinned("protocol id", &ProtocolId::NEXUS_TCP, "00000003");
    pinned("protocol id", &ProtocolId::GLUE, "00000064");
    pinned("object id", &ObjectId(0x0000_0009_0000_0001), "0000000900000001");
    pinned("request id", &RequestId(u64::MAX), "ffffffffffffffff");
}

// --------------------------------------------------------------- Nexus RSR
//
// The baseline protocol's frames, captured at `0470973` — the last commit
// where `NexusProto` wrapped ORB frames through a `Startpoint` of its own and
// `serve_nexus` ran a `NexusService` — by driving that client against a
// recording peer, and that server and a stand-alone service from a raw
// connection. An RSR is `(tag, handler)` in front of a payload; the payloads
// below are `REQUEST_PLAIN` (two-way, and with the one-way flag set) and
// `REPLIES[0][0]`.

mod rsr {
    use std::sync::Arc;

    use super::*;
    use ohpc_nexus::{
        HandlerId, NexusError, NexusService, Startpoint, HEADER_LEN, TAG_ONEWAY,
        TAG_REPLY_ERR, TAG_REPLY_NO_HANDLER, TAG_REPLY_OK, TAG_REQUEST,
    };
    use ohpc_orb::message::NEXUS_ORB_HANDLER;
    use ohpc_orb::transport_proto::NexusProto;
    use ohpc_orb::{
        ApplicabilityRule, CapabilityRegistry, Context, ContextId, MethodError, ProtoObject,
        ProtoPool, RemoteObject,
    };
    use ohpc_transport::mem::MemFabric;
    use ohpc_transport::{Dialer, Endpoint, Listener};
    use ohpc_xdr::{XdrReader, XdrWriter};

    const REQUEST: &str = "\
        000000020000c0de010203040506070800000009000000010000000300000000\
        00000000000000180000000500000001fffffffe00000003fffffffc00000005";

    const ONEWAY: &str = "\
        000000010000c0de010203040506070800000009000000010000000300000001\
        00000000000000180000000500000001fffffffe00000003fffffffc00000005";

    const REPLY_OK: &str = "\
        000000030000c0de010203040506070800000000000000000000001800000005\
        00000001fffffffe00000003fffffffc00000005";

    /// Handler 2 of a stand-alone service failing with "deliberate failure".
    const REPLY_ERR: &str =
        "00000004000000020000001264656c69626572617465206661696c7572650000";

    /// A stand-alone service asked for handler 99.
    const REPLY_NO_HANDLER: &str = "0000000500000063";

    fn ok_reply() -> ReplyMessage {
        ReplyMessage::ok(RequestId(0x0102_0304_0506_0708), request(false, None, None).body)
    }

    /// A peer that takes one connection on `key` and, per script entry,
    /// receives a frame and answers it with the entry's bytes (if any).
    /// Joins to the frames it received.
    fn scripted_peer(
        fabric: &MemFabric,
        key: u64,
        script: Vec<Option<Vec<u8>>>,
    ) -> std::thread::JoinHandle<Vec<Bytes>> {
        let mut listener = fabric.listen_on(key);
        std::thread::spawn(move || {
            let mut conn = listener.accept().expect("a client dials");
            let mut received = Vec::new();
            for answer in script {
                received.push(conn.recv().expect("a frame arrives"));
                if let Some(answer) = answer {
                    conn.send(&answer).expect("the client is still there");
                }
            }
            received
        })
    }

    struct Echo;

    impl RemoteObject for Echo {
        fn type_name(&self) -> &str {
            "Echo"
        }
        fn dispatch(
            &self,
            _method: u32,
            args: &mut XdrReader<'_>,
            out: &mut XdrWriter,
        ) -> Result<(), MethodError> {
            let ints =
                Vec::<i32>::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?;
            ints.encode(out);
            Ok(())
        }
    }

    /// The header codec is where the eight bytes come from, and the payloads
    /// are the bare goldens.
    #[test]
    fn header_is_two_words_in_front_of_the_bare_frame() {
        for (tag, golden, bare) in [
            (TAG_REQUEST, REQUEST, request(false, None, None).to_frame()),
            (TAG_ONEWAY, ONEWAY, request(true, None, None).to_frame()),
            (TAG_REPLY_OK, REPLY_OK, ok_reply().to_frame()),
        ] {
            let golden = unhex(golden);
            let mut w = XdrWriter::new();
            ohpc_nexus::put_header(&mut w, tag, NEXUS_ORB_HANDLER);
            assert_eq!(w.len(), HEADER_LEN);
            assert_eq!(w.peek(), &golden[..HEADER_LEN]);
            assert_eq!(&bare[..], &golden[HEADER_LEN..]);
            let header = ohpc_nexus::get_header(&mut XdrReader::new(&golden)).unwrap();
            assert_eq!(header, (tag, NEXUS_ORB_HANDLER));
        }
        assert_eq!(NEXUS_ORB_HANDLER, HandlerId(0xC0DE));
    }

    #[test]
    fn nexus_proto_emits_the_request_frames_and_decodes_the_reply() {
        let fabric = MemFabric::new();
        let peer = scripted_peer(&fabric, 40, vec![Some(unhex(REPLY_OK)), None]);
        let proto = NexusProto::new(
            ProtocolId::NEXUS_TCP,
            ApplicabilityRule::Always,
            Arc::new(fabric.clone()),
        );
        let entry = ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "mem://40");
        let pool = ProtoPool::new();
        let reply = proto.invoke(&pool, &entry, &request(false, None, None)).unwrap();
        assert_eq!(reply, ok_reply());
        proto.invoke_oneway(&pool, &entry, &request(true, None, None)).unwrap();
        let sent = peer.join().unwrap();
        assert_eq!(hex(&sent[0]), hex(&unhex(REQUEST)));
        assert_eq!(hex(&sent[1]), hex(&unhex(ONEWAY)));
    }

    #[test]
    fn serve_nexus_decodes_the_request_frames_and_emits_the_reply() {
        let fabric = MemFabric::new();
        let registry = Arc::new(CapabilityRegistry::new());
        let ctx = Context::new(ContextId(9), Location::new(0, 0), registry);
        assert_eq!(ctx.register(Arc::new(Echo)), request(false, None, None).object);
        ctx.serve_nexus(Box::new(fabric.listen_on(41)), ProtocolId::NEXUS_TCP);
        let mut conn = fabric.dial(&Endpoint::Mem(41)).unwrap();
        conn.send(&unhex(REQUEST)).unwrap();
        assert_eq!(hex(&conn.recv().unwrap()), hex(&unhex(REPLY_OK)));
        // The one-way is dispatched and answered with nothing: the next
        // frame on the connection is the second two-way's reply.
        conn.send(&unhex(ONEWAY)).unwrap();
        conn.send(&unhex(REQUEST)).unwrap();
        assert_eq!(hex(&conn.recv().unwrap()), hex(&unhex(REPLY_OK)));
        assert_eq!(ctx.requests_served(), 3);
        ctx.shutdown();
    }

    #[test]
    fn stand_alone_service_and_startpoint_agree_on_the_error_frames() {
        let fabric = MemFabric::new();
        let mut service = NexusService::new();
        service.register(HandlerId(2), |_args, _out| Err("deliberate failure".into()));
        let running = service.start(Box::new(fabric.listen_on(42)));
        let mut conn = fabric.dial(&running.endpoint()).unwrap();
        for (handler, golden) in [(2, REPLY_ERR), (99, REPLY_NO_HANDLER)] {
            let mut rsr = XdrWriter::new();
            ohpc_nexus::put_header(&mut rsr, TAG_REQUEST, HandlerId(handler));
            conn.send(rsr.peek()).unwrap();
            let reply = conn.recv().unwrap();
            assert_eq!(hex(&reply), hex(&unhex(golden)));
            let tag = [TAG_REPLY_ERR, TAG_REPLY_NO_HANDLER][usize::from(handler == 99)];
            let header = ohpc_nexus::get_header(&mut XdrReader::new(&reply)).unwrap();
            assert_eq!(header, (tag, HandlerId(handler)));
        }

        let peer = scripted_peer(
            &fabric,
            43,
            vec![Some(unhex(REPLY_ERR)), Some(unhex(REPLY_NO_HANDLER))],
        );
        let startpoint = Startpoint::connect(&fabric, &Endpoint::Mem(43)).unwrap();
        assert_eq!(
            startpoint.rsr_reply(HandlerId(2), &XdrWriter::new()),
            Err(NexusError::Handler("deliberate failure".into()))
        );
        assert_eq!(
            startpoint.rsr_reply(HandlerId(99), &XdrWriter::new()),
            Err(NexusError::NoSuchHandler(99))
        );
        peer.join().unwrap();
    }
}
