//! Request/reply wire messages.
//!
//! A frame on the wire is one XDR-encoded [`RequestMessage`] or
//! [`ReplyMessage`]. The optional glue section carries the capability chain
//! id and each capability's per-direction metadata (nonce, MAC, auth token,
//! request counter, …) so the receiving glue class can run the inverse
//! transforms.

use bytes::Bytes;

use crate::ids::{ObjectId, RequestId};
use crate::objref::ObjectReference;
use ohpc_telemetry::{Registry, TraceContext};
use ohpc_xdr::{pad4, XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter};

/// Encoded size of a length-prefixed opaque or string of `len` bytes.
const fn opaque_len(len: usize) -> usize {
    4 + len + pad4(len)
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
/// The extension rides *after* the last request field as
/// `XdrWriter::put_trailing_extension(version, len, payload)`: a frame without
/// trace context is byte-identical to a pre-tracing frame, an old decoder
/// never reads past the body, and a new decoder treats end-of-input as "no
/// context" and an unknown version as an opaque skip.
pub const TRACE_EXT_VERSION: u32 = 1;

fn encoded_trace_len(t: &TraceContext) -> usize {
    let baggage: usize =
        t.baggage.iter().map(|(k, v)| opaque_len(k.len()) + opaque_len(v.len())).sum();
    4 * 8 + 4 + baggage
}

/// Appends exactly [`encoded_trace_len`] bytes.
fn encode_trace(t: &TraceContext, w: &mut XdrWriter) {
    w.put_u64((t.trace_id >> 64) as u64);
    w.put_u64(t.trace_id as u64);
    w.put_u64(t.span_id);
    w.put_u64(t.parent_span_id);
    w.put_array_len(t.baggage.len());
    for (k, v) in &t.baggage {
        w.put_string(k);
        w.put_string(v);
    }
}

fn decode_trace(payload: &[u8]) -> Result<TraceContext, XdrError> {
    let mut r = XdrReader::new(payload);
    let hi = r.get_u64()?;
    let lo = r.get_u64()?;
    let span_id = r.get_u64()?;
    let parent_span_id = r.get_u64()?;
    let n = r.get_array_len()?;
    let mut baggage = Vec::with_capacity(n.min(32));
    for _ in 0..n {
        baggage.push((r.get_string()?, r.get_string()?));
    }
    Ok(TraceContext {
        trace_id: (u128::from(hi) << 64) | u128::from(lo),
        span_id,
        parent_span_id,
        baggage,
    })
}

/// One capability's wire metadata for one direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapWireMeta {
    /// Capability name (matches [`crate::capability::Capability::name`]).
    pub name: String,
    /// Opaque metadata produced by `process` on the sending side.
    pub meta: Bytes,
}

impl CapWireMeta {
    fn encoded_len(&self) -> usize {
        opaque_len(self.name.len()) + opaque_len(self.meta.len())
    }
}

impl XdrEncode for CapWireMeta {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_string(&self.name);
        w.put_opaque(&self.meta);
    }
}

impl XdrDecode for CapWireMeta {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(Self {
            name: r.get_string()?,
            // A copy, not a view of the frame: metadata is a few bytes and
            // may be retained (a nonce, a token), which must never keep a
            // megabyte frame alive.
            meta: Bytes::copy_from_slice(r.get_opaque()?),
        })
    }
}

/// Glue section of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlueWire {
    /// Server-side chain to apply the inverse transforms.
    pub glue_id: u64,
    /// Per-capability metadata, in chain order.
    pub caps: Vec<CapWireMeta>,
}

impl GlueWire {
    /// Encoded size of an optional glue section, discriminant included.
    fn encoded_len(glue: &Option<Self>) -> usize {
        let section = |g: &Self| 8 + 4 + g.caps.iter().map(CapWireMeta::encoded_len).sum::<usize>();
        4 + glue.as_ref().map_or(0, section)
    }
}

impl XdrEncode for GlueWire {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_u64(self.glue_id);
        w.put_array_len(self.caps.len());
        for c in &self.caps {
            c.encode(w);
        }
    }
}

impl XdrDecode for GlueWire {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let glue_id = r.get_u64()?;
        let n = r.get_array_len()?;
        let mut caps = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            caps.push(CapWireMeta::decode(r)?);
        }
        Ok(Self { glue_id, caps })
    }
}

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
    pub body: Bytes,
    /// Causal trace context, carried as a versioned trailing extension so
    /// pre-tracing frames still parse (see [`TRACE_EXT_VERSION`]).
    pub trace: Option<TraceContext>,
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
    /// before it ever queues. Malformed stamps read as "no deadline" here —
    /// the chain's own `unprocess` reports them properly at dispatch.
    pub fn deadline_expires_ns(&self) -> Option<u64> {
        let wire = self.glue.as_ref()?;
        let meta_bytes = &wire.caps.iter().find(|c| c.name == DEADLINE_CAP_NAME)?.meta;
        let meta = crate::capability::CapMeta::from_bytes(meta_bytes).ok()?;
        let raw = meta.get(DEADLINE_META_KEY)?;
        XdrReader::new(raw).get_u64().ok()
    }

    /// Exact size of [`to_frame`](Self::to_frame)'s output.
    pub fn encoded_len(&self) -> usize {
        let trace = self.trace.as_ref().map_or(0, |t| 4 + opaque_len(encoded_trace_len(t)));
        8 + 8 + 4 + 4 + GlueWire::encoded_len(&self.glue) + opaque_len(self.body.len()) + trace
    }

    /// Encodes to a transport frame: the one copy of the body on the send
    /// side. The buffer is allocated once, at exactly the encoded length —
    /// a guess costs a bulk frame a payload-sized regrowth (the headers
    /// alone outgrow any small allowance once glue and trace ride along)
    /// and a small frame its slack.
    pub fn to_frame(&self) -> Bytes {
        let mut w = XdrWriter::with_capacity(self.encoded_len());
        self.encode(&mut w);
        debug_assert_eq!(w.len(), self.encoded_len(), "encoded_len out of step with encode");
        w.finish()
    }

    /// Decodes from a transport frame. The body is a view sharing `frame`'s
    /// storage, not a copy: once the caller drops `frame` the message is the
    /// buffer's only owner, which is what lets capabilities transform the
    /// body in place.
    pub fn from_frame(frame: &Bytes) -> Result<Self, XdrError> {
        decode_frame(frame, "request")
    }
}

impl XdrEncode for RequestMessage {
    fn encode(&self, w: &mut XdrWriter) {
        self.request_id.encode(w);
        self.object.encode(w);
        w.put_u32(self.method);
        w.put_bool(self.oneway);
        self.glue.encode(w);
        w.put_opaque(&self.body);
        if let Some(t) = &self.trace {
            w.put_trailing_extension(TRACE_EXT_VERSION, encoded_trace_len(t), |w| {
                encode_trace(t, w)
            });
        }
    }
}

impl XdrDecode for RequestMessage {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let request_id = RequestId::decode(r)?;
        let object = ObjectId::decode(r)?;
        let method = r.get_u32()?;
        let oneway = r.get_bool()?;
        let glue = Option::<GlueWire>::decode(r)?;
        let body = r.get_opaque_bytes()?;
        let trace = match r.get_trailing_extension()? {
            // Legacy frame: no extension bytes at all.
            None => None,
            // A known version decodes strictly; a corrupt payload is a
            // malformed frame, not a silently traceless one.
            Some((TRACE_EXT_VERSION, payload)) => Some(decode_trace(payload)?),
            // A future version is skipped whole (the payload is opaque).
            Some((_, _)) => None,
        };
        Ok(Self { request_id, object, method, oneway, glue, body, trace })
    }
}

/// Outcome of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Success; the body carries the encoded results.
    Ok,
    /// The method raised an application exception.
    Exception(String),
    /// The object migrated; here is its new OR (CORBA-style location
    /// forwarding). The client rebinds and retries.
    Moved(Box<ObjectReference>),
    /// Unknown object id.
    NoSuchObject,
    /// Unknown method slot.
    NoSuchMethod(u32),
    /// A capability on the server side refused the request.
    CapabilityDenied(String),
    /// Server could not find the glue chain named by the request.
    UnknownGlue(u64),
    /// Admission control shed the request: the server's in-flight bound was
    /// hit (or its dispatch breaker is open). The request was **not**
    /// executed, so clients classify this retryable-with-backoff.
    Overloaded(String),
    /// The request's deadline stamp had already expired when it reached the
    /// dispatch boundary; the server shed it unexecuted. Non-retryable —
    /// the caller's own deadline machinery has moved on.
    DeadlineExpired(String),
}

impl ReplyStatus {
    fn tag(&self) -> u32 {
        match self {
            ReplyStatus::Ok => 0,
            ReplyStatus::Exception(_) => 1,
            ReplyStatus::Moved(_) => 2,
            ReplyStatus::NoSuchObject => 3,
            ReplyStatus::NoSuchMethod(_) => 4,
            ReplyStatus::CapabilityDenied(_) => 5,
            ReplyStatus::UnknownGlue(_) => 6,
            ReplyStatus::Overloaded(_) => 7,
            ReplyStatus::DeadlineExpired(_) => 8,
        }
    }

    fn encoded_len(&self) -> usize {
        4 + match self {
            ReplyStatus::Ok | ReplyStatus::NoSuchObject => 0,
            ReplyStatus::Exception(m)
            | ReplyStatus::CapabilityDenied(m)
            | ReplyStatus::Overloaded(m)
            | ReplyStatus::DeadlineExpired(m) => opaque_len(m.len()),
            // A whole OR, nested to any depth, on the rare migration path:
            // measured by encoding it.
            ReplyStatus::Moved(or) => or.to_bytes().len(),
            ReplyStatus::NoSuchMethod(_) => 4,
            ReplyStatus::UnknownGlue(_) => 8,
        }
    }

    /// The wire discriminant this status encodes as.
    ///
    /// Public so tests (and operators debugging captures) can audit the
    /// tag assignment without round-tripping through the codec. Tags are
    /// wire protocol: they never change meaning, and new variants take
    /// fresh values.
    pub fn wire_tag(&self) -> u32 {
        self.tag()
    }

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

impl XdrEncode for ReplyStatus {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_u32(self.tag());
        match self {
            ReplyStatus::Ok | ReplyStatus::NoSuchObject => {}
            ReplyStatus::Exception(m)
            | ReplyStatus::CapabilityDenied(m)
            | ReplyStatus::Overloaded(m)
            | ReplyStatus::DeadlineExpired(m) => w.put_string(m),
            ReplyStatus::Moved(or) => or.encode(w),
            ReplyStatus::NoSuchMethod(m) => w.put_u32(*m),
            ReplyStatus::UnknownGlue(id) => w.put_u64(*id),
        }
    }
}

impl XdrDecode for ReplyStatus {
    // ohpc-analyze: allow(telemetry-coverage) — pure wire decoder; malformed
    // frames are counted once at the framing boundary (`from_frame`).
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        match r.get_u32()? {
            0 => Ok(ReplyStatus::Ok),
            1 => Ok(ReplyStatus::Exception(r.get_string()?)),
            2 => Ok(ReplyStatus::Moved(Box::new(ObjectReference::decode(r)?))),
            3 => Ok(ReplyStatus::NoSuchObject),
            4 => Ok(ReplyStatus::NoSuchMethod(r.get_u32()?)),
            5 => Ok(ReplyStatus::CapabilityDenied(r.get_string()?)),
            6 => Ok(ReplyStatus::UnknownGlue(r.get_u64()?)),
            7 => Ok(ReplyStatus::Overloaded(r.get_string()?)),
            8 => Ok(ReplyStatus::DeadlineExpired(r.get_string()?)),
            t => Err(XdrError::InvalidDiscriminant(t)),
        }
    }
}

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
    pub body: Bytes,
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
        8 + self.status.encoded_len()
            + GlueWire::encoded_len(&self.glue)
            + opaque_len(self.body.len())
    }

    /// Encodes to a transport frame, exactly sized like
    /// [`RequestMessage::to_frame`].
    pub fn to_frame(&self) -> Bytes {
        let mut w = XdrWriter::with_capacity(self.encoded_len());
        self.encode(&mut w);
        debug_assert_eq!(w.len(), self.encoded_len(), "encoded_len out of step with encode");
        w.finish()
    }

    /// Decodes from a transport frame; the body is a view of `frame`, as in
    /// [`RequestMessage::from_frame`].
    pub fn from_frame(frame: &Bytes) -> Result<Self, XdrError> {
        decode_frame(frame, "reply")
    }
}

impl XdrEncode for ReplyMessage {
    fn encode(&self, w: &mut XdrWriter) {
        self.request_id.encode(w);
        self.status.encode(w);
        self.glue.encode(w);
        w.put_opaque(&self.body);
    }
}

impl XdrDecode for ReplyMessage {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(Self {
            request_id: RequestId::decode(r)?,
            status: ReplyStatus::decode(r)?,
            glue: Option::<GlueWire>::decode(r)?,
            body: r.get_opaque_bytes()?,
        })
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
                ],
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
                    CapWireMeta { name: DEADLINE_CAP_NAME.into(), meta: meta.to_bytes() },
                ],
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
            caps: vec![CapWireMeta { name: "encrypt".into(), meta: Bytes::new() }],
        });
        assert_eq!(req.deadline_expires_ns(), None);

        // A corrupt stamp peeks as "no deadline" (the chain reports it).
        req.glue = Some(GlueWire {
            glue_id: 1,
            caps: vec![CapWireMeta {
                name: DEADLINE_CAP_NAME.into(),
                meta: Bytes::from_static(&[0xFF; 2]),
            }],
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
            ],
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
