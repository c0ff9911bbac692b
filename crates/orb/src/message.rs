//! Request/reply wire messages.
//!
//! A frame on the wire is one XDR-encoded [`RequestMessage`] or
//! [`ReplyMessage`]. The optional glue section carries the capability chain
//! id and each capability's per-direction metadata (nonce, MAC, auth token,
//! request counter, …) so the receiving glue class can run the inverse
//! transforms.

use std::cell::RefCell;

use bytes::Bytes;

use crate::error::OrbError;
use crate::ids::{ObjectId, RequestId};
use crate::objref::{ObjectReference, MAX_CHAIN};
use ohpc_nexus::{
    HandlerId, HEADER_LEN, TAG_ONEWAY, TAG_REPLY_NO_HANDLER, TAG_REPLY_OK, TAG_REQUEST,
};
use ohpc_telemetry::{Registry, TraceContext};
use ohpc_xdr::{
    xdr_struct, xdr_union, Array, Detached, Extension, FrameView, InlineList, Mirror, TextView,
    XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter,
};

/// Handler slot the ORB occupies inside a Nexus service.
pub const NEXUS_ORB_HANDLER: HandlerId = HandlerId(0xC0DE);

/// What a transport frame carries in front of the XDR message. A constant of
/// each listener (which `Context::serve*` started it) and of the proto-object
/// that dials it — never an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Nothing: the frame is the message.
    Bare,
    /// The Nexus RSR header `(tag, NEXUS_ORB_HANDLER)` of [`ohpc_nexus`]: the
    /// paper's baseline protocol.
    Rsr,
}

impl Framing {
    /// The message inside a reply frame — a view of it, not a copy. Under
    /// RSR anything but the ORB handler's OK reply is the peer's refusal.
    pub(crate) fn reply_message(self, frame: Bytes) -> Result<Bytes, OrbError> {
        if self == Framing::Bare {
            return Ok(frame);
        }
        match ohpc_nexus::get_header(&mut XdrReader::new(&frame))? {
            (TAG_REPLY_OK, NEXUS_ORB_HANDLER) => Ok(frame.slice(HEADER_LEN..)),
            (TAG_REPLY_NO_HANDLER, HandlerId(h)) => {
                Err(OrbError::Protocol(format!("nexus service lacks ORB handler {h}")))
            }
            (tag, HandlerId(h)) => {
                Err(OrbError::Protocol(format!("nexus refusal (tag {tag}, handler {h})")))
            }
        }
    }

    /// The `request_id` a reply frame is correlated by: every
    /// [`ReplyMessage`] starts with it, so the client's mux routes frames
    /// without decoding them. `None` for a frame that carries none — a short
    /// one, or an RSR refusal, which names a handler and no request.
    pub(crate) fn reply_request_id(self, frame: &Bytes) -> Option<u64> {
        let mut r = XdrReader::new(frame);
        if self == Framing::Rsr
            && ohpc_nexus::get_header(&mut r).ok()? != (TAG_REPLY_OK, NEXUS_ORB_HANDLER)
        {
            return None;
        }
        r.get_u64().ok()
    }
}

/// Encodes a whole frame into a buffer allocated once, at exactly the
/// encoded length — a guess costs a bulk frame a payload-sized regrowth (the
/// headers alone outgrow any small allowance once glue and trace ride along)
/// and a small frame its slack. Under RSR framing the header, with `rsr_tag`,
/// leads the same buffer.
fn encode_frame<T: XdrEncode>(msg: &T, framing: Framing, rsr_tag: u32) -> Bytes {
    let header = if framing == Framing::Rsr { HEADER_LEN } else { 0 };
    let mut w = XdrWriter::with_capacity(header + msg.encoded_len());
    put_frame(msg, framing, rsr_tag, &mut w);
    w.finish()
}

/// Appends `msg`'s frame to `w`: behind the RSR header, with `rsr_tag`,
/// under that framing.
fn put_frame<T: XdrEncode>(msg: &T, framing: Framing, rsr_tag: u32, w: &mut XdrWriter) {
    if framing == Framing::Rsr {
        ohpc_nexus::put_header(w, rsr_tag, NEXUS_ORB_HANDLER);
    }
    msg.encode(w);
}

thread_local! {
    /// Where a frame on its way out is encoded: its header, glue and trace
    /// copied in, a body of [`GATHER_MIN`](ohpc_xdr::GATHER_MIN) bytes or
    /// more gathered, not copied. Lent for one send at a time.
    static OUTBOUND: RefCell<XdrWriter> = RefCell::new(XdrWriter::gathering());
}

/// The most [`OUTBOUND`] keeps between sends: a writer grown past it (a long
/// exception text, say) is dropped rather than held by its thread.
const OUTBOUND_KEEP: usize = 64 * 1024;

/// Encodes `msg` — behind the RSR header, with `rsr_tag`, under that
/// framing — and hands `send` the frame's parts: its head, its body as it
/// is, and whatever follows the body. They are the calling thread's scratch
/// writer, lent for the send only: cleared when `send` returns, it pins no
/// body and holds no more than [`OUTBOUND_KEEP`]. A call made while the
/// scratch is lent out further up the stack encodes into a writer of its
/// own.
fn with_frame_parts<T: XdrEncode, R>(
    msg: &T,
    framing: Framing,
    rsr_tag: u32,
    mut send: impl FnMut(&[&[u8]]) -> R,
) -> R {
    let mut encode_and_send = |w: &mut XdrWriter| {
        put_frame(msg, framing, rsr_tag, w);
        send(&w.parts())
    };
    let lent = OUTBOUND.try_with(|scratch| {
        let mut w = scratch.try_borrow_mut().ok()?;
        w.clear();
        let sent = encode_and_send(&mut w);
        if w.capacity() > OUTBOUND_KEEP {
            *w = XdrWriter::gathering();
        } else {
            w.clear();
        }
        Some(sent)
    });
    match lent {
        Ok(Some(sent)) => sent,
        _ => encode_and_send(&mut XdrWriter::gathering()),
    }
}

/// Decodes a whole frame, counting a malformed one under `kind`. Opaque
/// bodies come back as views of `frame` (see [`XdrReader::over_frame`]).
fn decode_frame<T: XdrDecode>(frame: &Bytes, kind: &'static str) -> Result<T, XdrError> {
    let mut r = XdrReader::over_frame(frame);
    let decoded = T::decode(&mut r).and_then(|msg| match r.remaining() {
        0 => Ok(msg),
        n => Err(XdrError::TrailingBytes(n)),
    });
    decoded.inspect_err(|_| {
        Registry::global().counter("orb_malformed_frames_total", &[("kind", kind)]).inc()
    })
}

/// Version word of the trace-context trailing extension on request frames.
///
/// The extension rides *after* the last request field (see [`Extension`]): a
/// frame without trace context is byte-identical to a pre-tracing frame, an
/// old decoder never reads past the body, and a new decoder treats
/// end-of-input as "no context" and an unknown version as an opaque skip.
pub const TRACE_EXT_VERSION: u32 = 1;

xdr_struct! {
    /// Payload of the trace extension: [`TraceContext`]'s wire mirror, the
    /// 128-bit trace id as two hypers. Baggage is bounded in bytes by its
    /// sender, not in entries.
    struct TraceWire {
        trace_id_hi: u64,
        trace_id_lo: u64,
        span_id: u64,
        parent_span_id: u64,
        baggage: Vec<(String, String)> as Array,
    }
}

impl From<&TraceContext> for TraceWire {
    fn from(t: &TraceContext) -> Self {
        Self {
            trace_id_hi: (t.trace_id >> 64) as u64,
            trace_id_lo: t.trace_id as u64,
            span_id: t.span_id,
            parent_span_id: t.parent_span_id,
            baggage: t.baggage.clone(),
        }
    }
}

impl From<TraceWire> for TraceContext {
    fn from(w: TraceWire) -> Self {
        Self {
            trace_id: (u128::from(w.trace_id_hi) << 64) | u128::from(w.trace_id_lo),
            span_id: w.span_id,
            parent_span_id: w.parent_span_id,
            baggage: w.baggage,
        }
    }
}

xdr_struct! {
    /// One capability's wire metadata for one direction.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CapWireMeta {
        /// Capability name (matches [`crate::capability::Capability::name`]),
        /// a UTF-8 string on the wire. The sender's is its chain's shared
        /// handle; a decoded one is a view like `meta`.
        pub name: Bytes as TextView,
        /// The blob of a [`CapMeta`](crate::capability::CapMeta), opaque on
        /// the wire. Decoded in a [`GlueWire`], a view of the section's one
        /// copy, never of the frame (DESIGN.md §16).
        pub meta: Bytes as FrameView,
    }
}

/// Hops a glue section holds in place: every shipped chain has one or two.
pub const INLINE_HOPS: usize = 2;

/// A glue section's per-capability metadata, in chain order.
pub type Hops = InlineList<CapWireMeta, INLINE_HOPS>;

xdr_struct! {
    /// Glue section of a frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GlueWire {
        /// Server-side chain to apply the inverse transforms.
        pub glue_id: u64,
        /// Per-capability metadata, in chain order: never more entries than
        /// the chain it mirrors may have. Decoded from one copy of its
        /// bytes, of which names and blobs are views.
        pub caps: Hops as Detached<Array<MAX_CHAIN>>,
    }
}

xdr_struct! {
    /// A remote method invocation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RequestMessage {
        /// Per-connection sequence number; echoed in the reply.
        pub request_id: RequestId,
        /// Target object.
        pub object: ObjectId,
        /// Method slot within the object's interface.
        pub method: u32,
        /// Fire-and-forget: the server dispatches but sends no reply, and the
        /// client cannot observe the outcome (at-most-once semantics; a
        /// tombstoned object silently drops one-way requests).
        pub oneway: bool,
        /// Present iff the request travelled through a glue protocol.
        pub glue: Option<GlueWire>,
        /// XDR-encoded arguments (possibly transformed by capabilities).
        pub body: Bytes as FrameView,
        /// Causal trace context, carried as a versioned trailing extension so
        /// pre-tracing frames still parse (see [`TRACE_EXT_VERSION`]).
        pub trace: Option<TraceContext> as Extension<TRACE_EXT_VERSION, Mirror<TraceWire>>,
    }
}

/// Wire name of the deadline capability. The cap itself lives in
/// `ohpc-caps` (which depends on this crate); the name is defined here so
/// the admission gate can peek deadline stamps without building the chain.
pub const DEADLINE_CAP_NAME: &str = "deadline";

/// Capability-metadata key carrying the absolute expiry (clock ns) stamped
/// by the client-side deadline capability.
pub const DEADLINE_META_KEY: &str = "deadline.expires_ns";

impl RequestMessage {
    /// Absolute expiry (clock nanoseconds) stamped by a deadline capability
    /// in this request's glue section, if present.
    ///
    /// Decoded *without* building the server-side chain: capability
    /// metadata travels in the clear (only bodies are transformed), so the
    /// admission gate can shed an already-expired request in microseconds,
    /// before it ever queues — reading the stamp through views of the
    /// section, without an allocation. Malformed stamps read as "no
    /// deadline" here — the chain's own `unprocess` reports them properly at
    /// dispatch.
    pub fn deadline_expires_ns(&self) -> Option<u64> {
        let wire = self.glue.as_ref()?;
        let name = DEADLINE_CAP_NAME.as_bytes();
        let blob = &wire.caps.iter().find(|c| c.name[..] == *name)?.meta;
        let meta = crate::capability::CapMeta::parse(blob).ok()?;
        let raw = meta.get(DEADLINE_META_KEY)?;
        XdrReader::new(raw).get_u64().ok()
    }

    /// Exact size of [`to_frame`](Self::to_frame)'s output.
    pub fn encoded_len(&self) -> usize {
        XdrEncode::encoded_len(self)
    }

    /// Encodes to a transport frame: one buffer of exactly
    /// [`encoded_len`](Self::encoded_len), the body copied in. The send
    /// path uses [`with_parts_as`](Self::with_parts_as), which does not
    /// copy it.
    pub fn to_frame(&self) -> Bytes {
        self.to_frame_as(Framing::Bare)
    }

    /// [`to_frame`](Self::to_frame) in a listener's framing: under RSR the
    /// header — one-way or request, as this message is — leads the same
    /// buffer.
    pub fn to_frame_as(&self, framing: Framing) -> Bytes {
        encode_frame(self, framing, self.rsr_tag())
    }

    /// Sends this message as the frame [`to_frame_as`](Self::to_frame_as)
    /// encodes, in parts: `send` gets the frame's head and a large body as
    /// it is, never copied into a frame buffer, for the length of the call
    /// (see [`ohpc_transport::Connection::send_parts`]). The parts joined
    /// are `to_frame_as`'s frame, byte for byte.
    pub fn with_parts_as<R>(&self, framing: Framing, send: impl FnMut(&[&[u8]]) -> R) -> R {
        with_frame_parts(self, framing, self.rsr_tag(), send)
    }

    /// The RSR tag of this message's frame: one-way or request, as it is.
    fn rsr_tag(&self) -> u32 {
        if self.oneway {
            TAG_ONEWAY
        } else {
            TAG_REQUEST
        }
    }

    /// Decodes from a transport frame. The body is a view sharing `frame`'s
    /// storage, not a copy: once the caller drops `frame` the message is the
    /// buffer's only owner, which is what lets capabilities transform the
    /// body in place.
    pub fn from_frame(frame: &Bytes) -> Result<Self, XdrError> {
        decode_frame(frame, "request")
    }
}

xdr_union! {
    /// Outcome of a request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ReplyStatus {
        /// Success; the body carries the encoded results.
        0 => Ok,
        /// The method raised an application exception.
        1 => Exception(String),
        /// The object migrated; here is its new OR (CORBA-style location
        /// forwarding). The client rebinds and retries.
        2 => Moved(Box<ObjectReference>),
        /// Unknown object id.
        3 => NoSuchObject,
        /// Unknown method slot.
        4 => NoSuchMethod(u32),
        /// A capability on the server side refused the request.
        5 => CapabilityDenied(String),
        /// Server could not find the glue chain named by the request.
        6 => UnknownGlue(u64),
        /// Admission control shed the request: the server's in-flight bound was
        /// hit. The request was **not** executed, so clients classify this
        /// retryable-with-backoff.
        7 => Overloaded(String),
        /// The request's deadline stamp had already expired when it reached the
        /// dispatch boundary; the server shed it unexecuted. Non-retryable —
        /// the caller's own deadline machinery has moved on.
        8 => DeadlineExpired(String),
    }
}

impl ReplyStatus {
    /// Maps a failure status to the client-side [`OrbError`] it surfaces as.
    ///
    /// This is the single source of truth for status → error conversion, so
    /// the invoke loop and tests cannot drift apart. `Ok` and `Moved` are
    /// not errors — the invoke loop consumes them before calling this — so
    /// they map to [`OrbError::Protocol`] rather than panicking on a path
    /// that handles hostile input.
    pub fn into_orb_error(self, object: ObjectId) -> crate::error::OrbError {
        use crate::error::OrbError;
        match self {
            ReplyStatus::Ok => OrbError::Protocol("Ok reply status reached error conversion".into()),
            ReplyStatus::Moved(_) => {
                OrbError::Protocol("Moved reply status reached error conversion".into())
            }
            ReplyStatus::Exception(m) => OrbError::RemoteException(m),
            ReplyStatus::NoSuchObject => OrbError::NoSuchObject(object),
            ReplyStatus::NoSuchMethod(m) => OrbError::NoSuchMethod(m),
            ReplyStatus::CapabilityDenied(m) => {
                OrbError::Capability(crate::capability::CapError::Denied(m))
            }
            ReplyStatus::UnknownGlue(id) => OrbError::UnknownGlue(id),
            ReplyStatus::Overloaded(m) => OrbError::Overloaded(m),
            ReplyStatus::DeadlineExpired(m) => OrbError::DeadlineExpired(m),
        }
    }
}

xdr_struct! {
    /// Response to a [`RequestMessage`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReplyMessage {
        /// Echoes the request's sequence number.
        pub request_id: RequestId,
        /// Outcome.
        pub status: ReplyStatus,
        /// Reply-direction capability metadata, in chain order.
        pub glue: Option<GlueWire>,
        /// Encoded results (possibly transformed by capabilities); empty unless
        /// status is `Ok`.
        pub body: Bytes as FrameView,
    }
}

impl ReplyMessage {
    /// Success reply.
    pub fn ok(request_id: RequestId, body: Bytes) -> Self {
        Self { request_id, status: ReplyStatus::Ok, glue: None, body }
    }

    /// Non-Ok reply with empty body.
    pub fn status(request_id: RequestId, status: ReplyStatus) -> Self {
        Self { request_id, status, glue: None, body: Bytes::new() }
    }

    /// Exact size of [`to_frame`](Self::to_frame)'s output.
    pub fn encoded_len(&self) -> usize {
        XdrEncode::encoded_len(self)
    }

    /// Encodes to a transport frame, exactly sized like
    /// [`RequestMessage::to_frame`].
    pub fn to_frame(&self) -> Bytes {
        self.to_frame_as(Framing::Bare)
    }

    /// [`to_frame`](Self::to_frame) in a listener's framing: under RSR, as
    /// the ORB handler's OK reply.
    pub fn to_frame_as(&self, framing: Framing) -> Bytes {
        encode_frame(self, framing, TAG_REPLY_OK)
    }

    /// Sends this message in parts, as [`RequestMessage::with_parts_as`]
    /// does.
    pub fn with_parts_as<R>(&self, framing: Framing, send: impl FnMut(&[&[u8]]) -> R) -> R {
        with_frame_parts(self, framing, TAG_REPLY_OK, send)
    }

    /// Appends [`to_frame_as`](Self::to_frame_as)'s frame to `w`, for a
    /// caller that keeps it to send later: the body is copied in, unless
    /// `w` gathers.
    pub(crate) fn put_frame_as(&self, framing: Framing, w: &mut XdrWriter) {
        put_frame(self, framing, TAG_REPLY_OK, w)
    }

    /// Decodes from a transport frame; the body is a view of `frame`, as in
    /// [`RequestMessage::from_frame`].
    pub fn from_frame(frame: &Bytes) -> Result<Self, XdrError> {
        decode_frame(frame, "reply")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProtocolId;
    use crate::objref::{ObjectReference, ProtoData, ProtoEntry};
    use ohpc_netsim::Location;

    fn sample_or() -> ObjectReference {
        ObjectReference {
            object: ObjectId(77),
            type_name: "Echo".into(),
            location: Location::new(1, 2),
            protocols: vec![ProtoEntry {
                id: ProtocolId::TCP,
                data: ProtoData::Endpoint("tcp://127.0.0.1:1".into()),
            }],
        }
    }

    #[test]
    fn request_roundtrip_no_glue() {
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: None,
        };
        let back = RequestMessage::from_frame(&req.to_frame()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrip_with_glue() {
        let req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(2),
            method: 0,
            oneway: true,
            glue: Some(GlueWire {
                glue_id: 0xCAFE,
                caps: vec![
                    CapWireMeta { name: "encrypt".into(), meta: Bytes::from_static(&[1, 2, 3]) },
                    CapWireMeta { name: "timeout".into(), meta: Bytes::new() },
                ]
                .into(),
            }),
            body: Bytes::from_static(b"encrypted-bytes"),
            trace: None,
        };
        let back = RequestMessage::from_frame(&req.to_frame()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrip_with_trace_and_baggage() {
        let mut ctx = ohpc_telemetry::TraceContext::new_root();
        assert!(ctx.try_add_baggage("tenant", "blue"));
        assert!(ctx.try_add_baggage("shard", "7"));
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: Some(ctx),
        };
        let back = RequestMessage::from_frame(&req.to_frame()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn traceless_frame_is_byte_identical_to_the_legacy_encoding() {
        // The trace rides as a trailing extension: when absent, the frame
        // must match what a pre-trace encoder produced, byte for byte.
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: None,
        };
        let mut w = XdrWriter::new();
        RequestId(5).encode(&mut w);
        ObjectId(9).encode(&mut w);
        w.put_u32(3);
        w.put_bool(false);
        false.encode(&mut w); // glue: None discriminant
        w.put_opaque(b"args");
        assert_eq!(&req.to_frame()[..], &w.finish()[..]);
    }

    #[test]
    fn unknown_trace_extension_version_is_skipped() {
        let legacy = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: None,
        };
        let mut frame = legacy.to_frame().to_vec();
        let mut w = XdrWriter::new();
        w.put_trailing_extension(TRACE_EXT_VERSION + 1, 15, |w| {
            w.put_fixed_opaque(b"from-the-future")
        });
        frame.extend_from_slice(&w.finish());
        let back = RequestMessage::from_frame(&Bytes::from(frame)).unwrap();
        assert_eq!(back, legacy, "unknown extension decodes as no trace");
    }

    #[test]
    fn corrupt_trace_payload_is_a_malformed_frame() {
        let legacy = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::new(),
            trace: None,
        };
        let mut frame = legacy.to_frame().to_vec();
        let mut w = XdrWriter::new();
        w.put_trailing_extension(TRACE_EXT_VERSION, 3, |w| w.put_fixed_opaque(&[0xFF; 3]));
        frame.extend_from_slice(&w.finish());
        assert!(RequestMessage::from_frame(&Bytes::from(frame)).is_err());
    }

    #[test]
    fn deadline_peek_reads_the_stamp_without_building_the_chain() {
        let mut meta = crate::capability::CapMeta::new();
        let mut w = XdrWriter::new();
        w.put_u64(123_456);
        meta.set(DEADLINE_META_KEY, w.finish());
        let mut req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: Some(GlueWire {
                glue_id: 1,
                caps: vec![
                    CapWireMeta { name: "encrypt".into(), meta: Bytes::from_static(&[9]) },
                    CapWireMeta { name: DEADLINE_CAP_NAME.into(), meta: meta.blob().clone() },
                ]
                .into(),
            }),
            body: Bytes::new(),
            trace: None,
        };
        assert_eq!(req.deadline_expires_ns(), Some(123_456));

        // No glue, or a glue without a deadline cap: no stamp.
        req.glue = None;
        assert_eq!(req.deadline_expires_ns(), None);
        req.glue = Some(GlueWire {
            glue_id: 1,
            caps: vec![CapWireMeta { name: "encrypt".into(), meta: Bytes::new() }].into(),
        });
        assert_eq!(req.deadline_expires_ns(), None);

        // A corrupt stamp peeks as "no deadline" (the chain reports it).
        req.glue = Some(GlueWire {
            glue_id: 1,
            caps: vec![CapWireMeta {
                name: DEADLINE_CAP_NAME.into(),
                meta: Bytes::from_static(&[0xFF; 2]),
            }]
            .into(),
        });
        assert_eq!(req.deadline_expires_ns(), None);
    }

    #[test]
    fn reply_status_roundtrips() {
        let statuses = vec![
            ReplyStatus::Ok,
            ReplyStatus::Exception("boom".into()),
            ReplyStatus::Moved(Box::new(sample_or())),
            ReplyStatus::NoSuchObject,
            ReplyStatus::NoSuchMethod(17),
            ReplyStatus::CapabilityDenied("budget exhausted".into()),
            ReplyStatus::UnknownGlue(0xBEEF),
            ReplyStatus::Overloaded("512 in flight (limit 512)".into()),
            ReplyStatus::DeadlineExpired("deadline of 50 ms exceeded before dispatch".into()),
        ];
        for status in statuses {
            let reply = ReplyMessage {
                request_id: RequestId(8),
                status: status.clone(),
                glue: None,
                body: Bytes::new(),
            };
            let frame = reply.to_frame();
            assert_eq!(frame.len(), reply.encoded_len(), "{status:?}");
            let back = ReplyMessage::from_frame(&frame).unwrap();
            assert_eq!(back.status, status);
        }
    }

    fn glue_section() -> GlueWire {
        GlueWire {
            glue_id: 0xCAFE,
            caps: vec![
                CapWireMeta { name: "timeout".into(), meta: Bytes::new() },
                CapWireMeta { name: "security".into(), meta: Bytes::from_static(&[7; 33]) },
            ]
            .into(),
        }
    }

    #[test]
    fn encoded_len_is_exactly_the_frame_length() {
        let mut ctx = ohpc_telemetry::TraceContext::new_root();
        assert!(ctx.try_add_baggage("tenant", "blue"));
        for glue in [None, Some(glue_section())] {
            for trace in [None, Some(ctx.clone())] {
                for body_len in [0usize, 1, 24, 4097] {
                    let req = RequestMessage {
                        request_id: RequestId(1),
                        object: ObjectId(2),
                        method: 3,
                        oneway: false,
                        glue: glue.clone(),
                        body: Bytes::from(vec![0xAB; body_len]),
                        trace: trace.clone(),
                    };
                    assert_eq!(req.to_frame().len(), req.encoded_len());
                }
            }
            for body_len in [0usize, 3, 24, 4097] {
                let mut reply = ReplyMessage::ok(RequestId(1), Bytes::from(vec![1; body_len]));
                reply.glue = glue.clone();
                assert_eq!(reply.to_frame().len(), reply.encoded_len());
            }
        }
    }

    #[test]
    fn decoded_body_is_a_view_that_owns_the_frame_once_the_frame_is_dropped() {
        let req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(2),
            method: 3,
            oneway: false,
            glue: Some(glue_section()),
            body: Bytes::from(vec![5u8; 64]),
            trace: None,
        };
        let frame = req.to_frame();
        let (start, end) = (frame.as_ptr() as usize, frame.as_ptr() as usize + frame.len());
        let mut back = RequestMessage::from_frame(&frame).unwrap();
        assert_eq!(back, req);
        let at = back.body.as_ptr() as usize;
        assert!(start <= at && at + back.body.len() <= end, "the body lies inside the frame");
        assert!(back.body.unique_mut().is_none(), "the frame handle still shares the storage");
        drop(frame);
        // Capability metadata was copied out, so nothing else pins the frame.
        assert!(back.body.unique_mut().is_some());

        let reply = ReplyMessage::ok(RequestId(1), Bytes::from(vec![6u8; 64]));
        let frame = reply.to_frame();
        let mut back = ReplyMessage::from_frame(&frame).unwrap();
        drop(frame);
        assert_eq!(&back.body.unique_mut().expect("sole owner")[..], &[6u8; 64]);
    }

    /// Metadata a capability keeps — a nonce cloned out of its `CapMeta` —
    /// holds the glue section's small copy, never the frame: the body is
    /// still its buffer's only owner once the frame handle goes.
    #[test]
    fn a_retained_meta_value_pins_neither_the_body_nor_the_frame() {
        let mut meta = crate::capability::CapMeta::new();
        meta.set("nonce", [7u8; 12]);
        let glue = GlueWire {
            glue_id: 3,
            caps: vec![CapWireMeta { name: "security".into(), meta: meta.blob().clone() }].into(),
        };
        let request = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(2),
            method: 3,
            oneway: false,
            glue: Some(glue.clone()),
            body: Bytes::from(vec![5u8; 64]),
            trace: None,
        };
        let reply = ReplyMessage { glue: Some(glue), ..ReplyMessage::ok(RequestId(1), request.body.clone()) };
        let keep_nonce = |frame: Bytes, glue: Option<GlueWire>, mut body: Bytes| {
            let (start, end) = (frame.as_ptr() as usize, frame.as_ptr() as usize + frame.len());
            let glue = glue.unwrap();
            let decoded = crate::capability::CapMeta::parse(&glue.caps[0].meta).unwrap();
            let nonce = decoded.get("nonce").unwrap().clone();
            drop((glue, decoded));
            let at = nonce.as_ptr() as usize;
            assert!(at + nonce.len() <= start || end <= at, "the nonce is a view of the frame");
            drop(frame);
            assert!(body.unique_mut().is_some(), "the retained nonce pins the body's buffer");
            assert_eq!(&nonce[..], &[7u8; 12]);
        };
        let frame = request.to_frame();
        let req = RequestMessage::from_frame(&frame).unwrap();
        keep_nonce(frame, req.glue, req.body);
        let frame = reply.to_frame();
        let rep = ReplyMessage::from_frame(&frame).unwrap();
        keep_nonce(frame, rep.glue, rep.body);
    }

    /// A large body is lent to the send as a part of its own, and the
    /// scratch lets go of it when the send returns; a send made while the
    /// scratch is lent out encodes the same frame without it.
    #[test]
    fn a_large_body_is_a_part_of_its_own_and_is_let_go_after_the_send() {
        let mut req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(2),
            method: 3,
            oneway: false,
            glue: Some(glue_section()),
            body: Bytes::from(vec![5u8; ohpc_xdr::GATHER_MIN]),
            trace: None,
        };
        for framing in [Framing::Bare, Framing::Rsr] {
            let frame = req.to_frame_as(framing);
            let body_at = req.body.as_ptr();
            let sent = req.with_parts_as(framing, |outer| {
                assert_eq!(outer.len(), 3);
                assert_eq!(outer[1].as_ptr(), body_at, "the body was copied");
                let inner = req.with_parts_as(framing, |inner| inner.concat());
                assert_eq!(outer.concat(), inner);
                outer.concat()
            });
            assert_eq!(sent, frame);
        }
        assert!(req.body.unique_mut().is_some(), "the scratch kept a handle to the body");
        let reply = ReplyMessage::ok(RequestId(1), req.body.clone());
        let sent = reply.with_parts_as(Framing::Rsr, |parts| parts.concat());
        assert_eq!(sent, reply.to_frame_as(Framing::Rsr));
    }

    /// A reply kept to send later is the frame `to_frame_as` encodes,
    /// appended behind whatever the writer held.
    #[test]
    fn a_reply_put_into_a_writer_is_its_frame() {
        let reply = ReplyMessage::ok(RequestId(4), Bytes::from_static(b"four"));
        for framing in [Framing::Bare, Framing::Rsr] {
            let mut w = XdrWriter::new();
            w.put_u32(9);
            reply.put_frame_as(framing, &mut w);
            let frame = reply.to_frame_as(framing);
            assert_eq!(w.peek().get(4..), Some(&frame[..]));
        }
    }

    #[test]
    fn bad_status_tag_rejected() {
        let mut w = XdrWriter::new();
        RequestId(1).encode(&mut w);
        w.put_u32(99); // bad tag
        let buf = w.finish();
        assert!(ReplyMessage::from_frame(&buf).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"some body bytes"),
            trace: None,
        };
        let frame = req.to_frame();
        assert!(RequestMessage::from_frame(&frame.slice(..frame.len() - 4)).is_err());
    }
}
