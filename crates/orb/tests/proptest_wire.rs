//! Property tests on the ORB wire formats: requests, replies, object
//! references (with arbitrarily nested glue entries) always round-trip, and
//! hostile bytes never panic the decoders.

use bytes::Bytes;
use ohpc_orb::message::{
    CapWireMeta, Framing, GlueWire, ReplyMessage, ReplyStatus, RequestMessage, INLINE_HOPS,
};
use ohpc_orb::objref::{ObjectReference, ProtoData, ProtoEntry};
use ohpc_orb::{CapabilitySpec, Location, ObjectId, ProtocolId, RequestId};
use ohpc_telemetry::TraceContext;
use ohpc_xdr::{XdrDecode, XdrError, XdrReader, XdrWriter, GATHER_MIN};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = CapabilitySpec> {
    ("[a-z]{1,12}", proptest::collection::vec(any::<u8>(), 0..32))
        .prop_map(|(name, cfg)| CapabilitySpec::with_config(name, cfg))
}

fn arb_entry() -> impl Strategy<Value = ProtoEntry> {
    let leaf = (0u16..200, "[ -~]{0,40}").prop_map(|(id, ep)| ProtoEntry {
        id: ProtocolId(id),
        data: ProtoData::Endpoint(ep),
    });
    leaf.prop_recursive(3, 8, 4, |inner| {
        (any::<u64>(), proptest::collection::vec(arb_spec(), 0..4), inner).prop_map(
            |(glue_id, caps, inner)| ProtoEntry {
                id: ProtocolId::GLUE,
                data: ProtoData::Glue { glue_id, caps, inner: Box::new(inner) },
            },
        )
    })
}

fn arb_or() -> impl Strategy<Value = ObjectReference> {
    (
        any::<u64>(),
        "[A-Za-z]{1,16}",
        (any::<u32>(), any::<u32>(), any::<u32>()),
        proptest::collection::vec(arb_entry(), 0..6),
    )
        .prop_map(|(oid, type_name, (m, l, s), protocols)| ObjectReference {
            object: ObjectId(oid),
            type_name,
            location: Location::with_site(m, l, s),
            protocols,
        })
}

/// Up to four hops: a section longer than the `INLINE_HOPS` a list holds in
/// place takes the spill path, both built here and decoded.
const _: () = assert!(INLINE_HOPS < 4);

fn arb_glue_wire() -> impl Strategy<Value = GlueWire> {
    (
        any::<u64>(),
        proptest::collection::vec(
            ("[a-z]{1,10}", proptest::collection::vec(any::<u8>(), 0..48)),
            0..5,
        ),
    )
        .prop_map(|(glue_id, caps)| GlueWire {
            glue_id,
            caps: caps
                .into_iter()
                .map(|(name, meta)| CapWireMeta { name: name.into(), meta: Bytes::from(meta) })
                .collect(),
        })
}

fn arb_status() -> impl Strategy<Value = ReplyStatus> {
    prop_oneof![
        Just(ReplyStatus::Ok),
        "[ -~]{0,60}".prop_map(ReplyStatus::Exception),
        arb_or().prop_map(|o| ReplyStatus::Moved(Box::new(o))),
        Just(ReplyStatus::NoSuchObject),
        any::<u32>().prop_map(ReplyStatus::NoSuchMethod),
        "[ -~]{0,60}".prop_map(ReplyStatus::CapabilityDenied),
        any::<u64>().prop_map(ReplyStatus::UnknownGlue),
        "[ -~]{0,60}".prop_map(ReplyStatus::Overloaded),
        "[ -~]{0,60}".prop_map(ReplyStatus::DeadlineExpired),
    ]
}

proptest! {
    #[test]
    fn object_reference_roundtrip(or in arb_or()) {
        let bytes = or.to_bytes();
        let back = ObjectReference::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, or);
    }

    #[test]
    fn request_roundtrip(
        rid: u64, oid: u64, method: u32, oneway: bool,
        glue in proptest::option::of(arb_glue_wire()),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let req = RequestMessage {
            request_id: RequestId(rid),
            object: ObjectId(oid),
            method,
            oneway,
            glue,
            body: Bytes::from(body),
            trace: None,
        };
        let back = RequestMessage::from_frame(&req.to_frame()).unwrap();
        if let Some(glue) = &back.glue {
            prop_assert_eq!(glue.caps.spilled(), glue.caps.len() > INLINE_HOPS);
        }
        prop_assert_eq!(back, req);
    }

    #[test]
    fn reply_roundtrip(
        rid: u64,
        status in arb_status(),
        glue in proptest::option::of(arb_glue_wire()),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let reply = ReplyMessage { request_id: RequestId(rid), status, glue, body: Bytes::from(body) };
        let back = ReplyMessage::from_frame(&reply.to_frame()).unwrap();
        prop_assert_eq!(back, reply);
    }

    /// A message sent in parts sends the frame `to_frame_as` encodes, byte
    /// for byte — bodies on both sides of the gather size, with and without
    /// glue and trace, under both framings.
    #[test]
    fn parts_join_to_the_frame(
        rid: u64, oid: u64, method: u32, oneway: bool, traced: bool, rsr: bool,
        glue in proptest::option::of(arb_glue_wire()),
        status in arb_status(),
        body_len in 0usize..3 * GATHER_MIN,
    ) {
        let framing = if rsr { Framing::Rsr } else { Framing::Bare };
        let body = Bytes::from((0..body_len).map(|i| (i * 7) as u8).collect::<Vec<u8>>());
        let req = RequestMessage {
            request_id: RequestId(rid),
            object: ObjectId(oid),
            method,
            oneway,
            glue: glue.clone(),
            body: body.clone(),
            trace: traced.then(TraceContext::new_root),
        };
        let sent = req.with_parts_as(framing, |parts| parts.concat());
        prop_assert_eq!(Bytes::from(sent), req.to_frame_as(framing));
        let reply = ReplyMessage { request_id: RequestId(rid), status, glue, body };
        let sent = reply.with_parts_as(framing, |parts| parts.concat());
        prop_assert_eq!(Bytes::from(sent), reply.to_frame_as(framing));
    }

    /// Hostile input: random bytes and corrupted valid frames never panic.
    #[test]
    fn decoders_survive_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = ObjectReference::from_bytes(&data);
        let frame = Bytes::from(data);
        let _ = RequestMessage::from_frame(&frame);
        let _ = ReplyMessage::from_frame(&frame);
    }

    #[test]
    fn decoders_survive_bitflips(
        or in arb_or(),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = or.to_bytes();
        if !bytes.is_empty() {
            let i = idx.index(bytes.len());
            bytes[i] ^= 1 << bit;
            let _ = ObjectReference::from_bytes(&bytes); // must not panic
        }
    }

    /// `restricted` is a pure filter: keeps order, never invents entries.
    #[test]
    fn restriction_is_a_subsequence(or in arb_or(), keep_glue: bool) {
        let restricted = or.restricted(|e| (e.id == ProtocolId::GLUE) == keep_glue);
        prop_assert!(restricted.protocols.len() <= or.protocols.len());
        let mut it = or.protocols.iter();
        for kept in &restricted.protocols {
            prop_assert!(it.any(|e| e == kept), "restricted entry not in original order");
        }
    }

    /// Any tag outside the assigned range is an explicit decode error —
    /// never silently aliased onto an existing variant, never a panic.
    #[test]
    fn unknown_status_tag_is_rejected(tag in 9u32..=u32::MAX) {
        let mut w = XdrWriter::new();
        w.put_u32(tag);
        let bytes = w.finish();
        let mut r = XdrReader::new(&bytes);
        prop_assert_eq!(
            ReplyStatus::decode(&mut r).unwrap_err(),
            XdrError::InvalidDiscriminant(tag)
        );
    }

    /// Every strict prefix of a valid reply frame fails to decode. (Replies
    /// carry no trailing extension, so unlike requests there is no prefix
    /// that is also a legal frame.)
    #[test]
    fn truncated_reply_frames_are_errors(
        rid: u64,
        status in arb_status(),
        glue in proptest::option::of(arb_glue_wire()),
        body in proptest::collection::vec(any::<u8>(), 0..128),
        cut in any::<prop::sample::Index>(),
    ) {
        let reply = ReplyMessage { request_id: RequestId(rid), status, glue, body: Bytes::from(body) };
        let frame = reply.to_frame();
        let cut = cut.index(frame.len());
        prop_assert!(
            ReplyMessage::from_frame(&frame.slice(..cut)).is_err(),
            "strict prefix of length {cut}/{} decoded successfully", frame.len()
        );
    }
}

/// A frame hand-built the way a pre-tracing encoder would emit it — base
/// fields only, no trailing extension — still decodes, with `trace: None`.
/// This is the compatibility promise of the trailing-extension scheme: old
/// bytes must stay valid forever.
#[test]
fn legacy_traceless_request_frame_decodes() {
    let mut w = XdrWriter::new();
    w.put_u64(11); // request_id
    w.put_u64(22); // object
    w.put_u32(3); // method slot
    w.put_bool(true); // oneway
    w.put_bool(false); // glue: absent
    w.put_opaque(&[0xDE, 0xAD, 0xBE, 0xEF]); // body
    let frame = w.finish();

    let req = RequestMessage::from_frame(&frame).expect("legacy frame must decode");
    assert_eq!(req.request_id, RequestId(11));
    assert_eq!(req.object, ObjectId(22));
    assert_eq!(req.method, 3);
    assert!(req.oneway);
    assert_eq!(req.glue, None);
    assert_eq!(&req.body[..], &[0xDE, 0xAD, 0xBE, 0xEF]);
    assert_eq!(req.trace, None, "absent extension must read as traceless, not an error");
}
