//! Transport-backed protocol objects.
//!
//! [`TransportProto`] turns any [`ohpc_transport::Dialer`] into a
//! proto-object: it owns a channel cache keyed by endpoint and performs
//! synchronous request/reply over framed connections. The TCP, shared-memory
//! and simulated-network protocol objects are all instances of it with
//! different dialers and applicability rules — which is precisely the
//! "proto-class" reuse the paper describes.
//!
//! Every pooled channel is **multiplexed**: one connection per endpoint,
//! [split](ohpc_transport::Connection::try_split) into its halves — every
//! transport's connections split, and a dial that returns one that cannot
//! fails — with a writer lock held only for the framed send and replies
//! demultiplexed to waiters by `request_id`. N concurrent invocations have N
//! requests in flight on one wire. No thread is dedicated to reading: a
//! waiting caller reads the connection itself as the mux's *leader*,
//! delivers the replies of anyone waiting behind it, and hands the read on
//! when its own reply arrives ([`MuxChannel`] states the rule). A connection
//! that dies while idle is therefore found dead by the next call — over mem
//! by its send (unsent: re-dialed transparently, once), over TCP by its read
//! (ambiguous: the frame was taken) — and a channel lives exactly as long as
//! its last handle: dropping the proto closes every connection it pooled.
//!
//! [`NexusProto`], the paper's baseline, is the same object with one
//! constant changed: its frames carry the 8-byte Nexus RSR header
//! ([`Framing::Rsr`]) in front of the message — written into the head the
//! request is encoded into, skipped as an offset by the demux correlator,
//! sliced off the reply as a view. Same channel cache, same mux, same
//! retry-once-if-unsent.
//!
//! The channels are pooled per endpoint in the [`EndpointCache`], which owns
//! the two pooling rules:
//!
//! - **Eviction is by identity, never by key.** A caller that observed a
//!   handle fail evicts exactly that handle (`Arc` identity); a racing
//!   caller may already have replaced it with a fresh healthy one which must
//!   not become collateral damage.
//! - **Publication re-checks under the lock.** Dialing happens outside the
//!   cache lock, so two callers can race to dial the same endpoint; the
//!   loser tears its duplicate down and shares the winner's.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use ohpc_netsim::Location;
use ohpc_telemetry::Registry;
use ohpc_transport::mux::{MuxChannel, MuxError};
use ohpc_transport::{Dialer, Endpoint, TransportError};

use crate::error::OrbError;
use crate::ids::ProtocolId;
use crate::message::{Framing, ReplyMessage, RequestMessage};
use crate::objref::{ProtoData, ProtoEntry};
use crate::proto::{ApplicabilityRule, ProtoObject, ProtoPool};

/// The endpoint `entry` names, as the string the channel cache is keyed by:
/// it is parsed only when a channel has to be dialed, not on every call.
fn endpoint_of(entry: &ProtoEntry) -> Result<&str, OrbError> {
    match &entry.data {
        ProtoData::Endpoint(s) => Ok(s),
        ProtoData::Glue { .. } => Err(OrbError::Protocol(
            "glue entry reached a transport protocol object".into(),
        )),
    }
}

fn parse_endpoint(s: &str) -> Result<Endpoint, OrbError> {
    Endpoint::parse(s).ok_or_else(|| OrbError::Protocol(format!("unparseable endpoint '{s}'")))
}

/// Decodes `reply_frame` and checks that it answers `req`. Consumes the
/// frame: the reply's body is a view of it, and must come out as the
/// buffer's only owner for the glue chain to transform it in place.
fn matched_reply(
    req: &RequestMessage,
    reply_frame: Bytes,
    framing: Framing,
) -> Result<ReplyMessage, OrbError> {
    let message = framing.reply_message(reply_frame)?;
    let reply = ReplyMessage::from_frame(&message)?;
    drop(message);
    if reply.request_id != req.request_id {
        return Err(OrbError::Protocol(format!(
            "reply id {} does not match request id {}",
            reply.request_id, req.request_id
        )));
    }
    Ok(reply)
}

/// A stale pooled channel was replaced: a rebind path, counted by name.
fn count_retry(protocol: ProtocolId) {
    Registry::global()
        .counter("orb_transport_retries_total", &[("protocol", &protocol.to_string())])
        .inc();
}

// ------------------------------------------------------------ endpoint cache

/// What the cache needs to know about the handles it pools.
trait Pooled {
    /// A dead handle is dropped at the next lookup instead of handed out.
    fn is_dead(&self) -> bool;
}

/// Per-endpoint pool of shared handles, keyed by the endpoint's string as
/// the OR carries it; see the module docs for its rules.
struct EndpointCache<C> {
    protocol: ProtocolId,
    handles: Mutex<HashMap<String, Arc<C>>>,
}

impl<C: Pooled> EndpointCache<C> {
    fn new(protocol: ProtocolId) -> Self {
        Self { protocol, handles: Mutex::new(HashMap::new()) }
    }

    /// Lookup, liveness check and removal of a dead handle under one guard,
    /// so a caller is never handed a handle another caller concurrently
    /// declared dead.
    fn cached(&self, ep: &str) -> Option<Arc<C>> {
        let mut map = self.handles.lock();
        if map.get(ep).is_some_and(|c| c.is_dead()) {
            map.remove(ep);
        }
        map.get(ep).cloned()
    }

    /// The pooled handle for `ep` and whether it was already cached. A miss
    /// dials — building the handle or its `Arc` — outside the lock and
    /// publishes unless another caller won the race meanwhile: then the
    /// earlier handle wins, ours is dropped (which closes it), and the
    /// avoided double-dial is counted.
    fn get_or_dial<D: Into<Arc<C>>>(
        &self,
        ep: &str,
        dial: impl FnOnce() -> Result<D, OrbError>,
    ) -> Result<(Arc<C>, bool), OrbError> {
        if let Some(hit) = self.cached(ep) {
            return Ok((hit, true));
        }
        let built: Arc<C> = dial()?.into();
        let winner = {
            let mut map = self.handles.lock();
            let live = map.get(ep).filter(|c| !c.is_dead()).cloned();
            if live.is_none() {
                map.insert(ep.to_owned(), built.clone());
            }
            live
        };
        match winner {
            None => Ok((built, false)),
            Some(winner) => {
                // Only a racing first dial gets here: counted by name.
                Registry::global()
                    .counter(
                        "orb_double_dial_avoided_total",
                        &[("protocol", &self.protocol.to_string())],
                    )
                    .inc();
                Ok((winner, true))
            }
        }
    }

    /// Evicts the handle for `ep` **only if** it is the very handle the
    /// caller observed failing.
    fn evict(&self, ep: &str, stale: &Arc<C>) {
        let mut map = self.handles.lock();
        if map.get(ep).is_some_and(|cur| Arc::ptr_eq(cur, stale)) {
            map.remove(ep);
        }
    }
}

impl Pooled for MuxChannel {
    fn is_dead(&self) -> bool {
        MuxChannel::is_dead(self)
    }
}

/// The reply half of a two-way exchange; one-ways have none.
#[derive(Clone, Copy)]
struct ReplyWait {
    request_id: u64,
    timeout: Option<Duration>,
}

/// A proto-object speaking ORB frames over a transport.
pub struct TransportProto {
    id: ProtocolId,
    rule: ApplicabilityRule,
    dialer: Arc<dyn Dialer>,
    framing: Framing,
    channels: EndpointCache<MuxChannel>,
}

/// The Nexus-based baseline protocol object: a [`TransportProto`] whose
/// frames are Nexus remote service requests to the ORB's handler slot.
pub enum NexusProto {}

impl NexusProto {
    /// Builds the baseline proto-object over the given transport dialer.
    #[allow(clippy::new_ret_no_self)] // the baseline is a framing, not a type
    pub fn new(id: ProtocolId, rule: ApplicabilityRule, dialer: Arc<dyn Dialer>) -> TransportProto {
        TransportProto::framed(id, rule, dialer, Framing::Rsr)
    }
}

impl TransportProto {
    /// Builds a proto-object for `id` with the given applicability.
    pub fn new(id: ProtocolId, rule: ApplicabilityRule, dialer: Arc<dyn Dialer>) -> Self {
        Self::framed(id, rule, dialer, Framing::Bare)
    }

    fn framed(
        id: ProtocolId,
        rule: ApplicabilityRule,
        dialer: Arc<dyn Dialer>,
        framing: Framing,
    ) -> Self {
        Self { id, rule, dialer, framing, channels: EndpointCache::new(id) }
    }

    /// Dials `ep` and wraps the connection's halves in a fresh mux.
    fn dial_channel(&self, ep: &Endpoint) -> Result<Arc<MuxChannel>, OrbError> {
        let mut conn = self.dialer.dial(ep)?;
        // The halves own socket duplicates / pipe handles; the original
        // connection object is no longer needed.
        let Some((tx, rx)) = conn.try_split() else {
            let unsplittable = format!("a connection to {ep} cannot be split");
            return Err(OrbError::Transport(TransportError::Io(unsplittable)));
        };
        let framing = self.framing;
        Ok(MuxChannel::new(tx, rx, Box::new(move |f| framing.reply_request_id(f))))
    }

    /// Sends `req` over the pooled channel and, for a two-way (`reply` is
    /// `Some`), waits for and returns the correlated reply frame; a one-way
    /// returns `None`. The request leaves in parts, its body never copied
    /// into a frame buffer; the parts are lent for the send alone, never
    /// across the wait for the reply.
    ///
    /// Failure phases stay distinct: a dial or send failure means the frame
    /// never left this process ([`OrbError::Transport`], always safe to
    /// retry), while any failure after the frame was handed to the fabric —
    /// the server may have executed the request — surfaces as
    /// [`OrbError::AmbiguousTransport`] and is never transparently re-sent
    /// here. Idempotency-aware retry lives in the GP, which knows the
    /// request's semantics; this layer only retries the provably-unsent
    /// case of a stale cached channel (e.g. the server restarted), once.
    ///
    /// The deadline rides into the demux wait, and only a *dead* channel is
    /// evicted: a live one that merely timed out keeps serving its other
    /// waiters.
    fn exchange(
        &self,
        ep: &str,
        req: &RequestMessage,
        reply: Option<ReplyWait>,
    ) -> Result<Option<Bytes>, OrbError> {
        let mut retried = false;
        loop {
            let dial = || self.dial_channel(&parse_endpoint(ep)?);
            let (mux, was_cached) = self.channels.get_or_dial(ep, dial)?;
            let sent = req.with_parts_as(self.framing, |frame| match reply {
                Some(w) => mux.send_request(w.request_id, frame).map(Some),
                None => mux.send_only(frame).map(|()| None),
            });
            let outcome = sent.and_then(|pending| match pending {
                Some(pending) => pending.wait(reply.and_then(|w| w.timeout)).map(Some),
                None => Ok(None),
            });
            let err = match outcome {
                Ok(reply) => return Ok(reply),
                Err(err) => err,
            };
            if mux.is_dead() {
                self.channels.evict(ep, &mux);
            }
            match err {
                MuxError::Unsent(_) if was_cached && !retried => {
                    retried = true;
                    count_retry(self.id);
                }
                MuxError::Unsent(e) => return Err(OrbError::Transport(e)),
                MuxError::Lost(e) => return Err(OrbError::AmbiguousTransport(e)),
            }
        }
    }

}

impl ProtoObject for TransportProto {
    fn protocol_id(&self) -> ProtocolId {
        self.id
    }

    fn applicable(
        &self,
        _pool: &ProtoPool,
        client: &Location,
        server: &Location,
        _entry: &ProtoEntry,
    ) -> bool {
        self.rule.allows(client, server)
    }

    fn invoke(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<ReplyMessage, OrbError> {
        self.invoke_with_deadline(pool, entry, req, None)
    }

    fn invoke_with_deadline(
        &self,
        _pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
        remaining_ns: Option<u64>,
    ) -> Result<ReplyMessage, OrbError> {
        let ep = endpoint_of(entry)?;
        let wait = ReplyWait {
            request_id: req.request_id.0,
            timeout: remaining_ns.map(Duration::from_nanos),
        };
        match self.exchange(ep, req, Some(wait))? {
            Some(reply_frame) => matched_reply(req, reply_frame, self.framing),
            None => Err(OrbError::Protocol("two-way exchange returned no reply frame".into())),
        }
    }

    fn invoke_oneway(
        &self,
        _pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<(), OrbError> {
        debug_assert!(req.oneway, "oneway invocation requires the oneway wire flag");
        let ep = endpoint_of(entry)?;
        self.exchange(ep, req, None).map(|_| ())
    }

    fn describe(&self, _entry: &ProtoEntry) -> String {
        match self.framing {
            Framing::Bare => self.id.to_string(),
            Framing::Rsr => format!("nexus({})", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, RequestId};
    use ohpc_transport::mem::MemFabric;
    use ohpc_transport::{Connection, Listener as _};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn request(id: u64, body: &'static [u8]) -> RequestMessage {
        RequestMessage {
            request_id: RequestId(id),
            object: ObjectId(1),
            method: 0,
            oneway: false,
            glue: None,
            body: Bytes::from_static(body),
            trace: None,
        }
    }

    #[test]
    fn endpoint_of_rejects_glue_and_garbage() {
        let glue = ProtoEntry::glue(1, vec![], ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"));
        assert!(endpoint_of(&glue).is_err());
        // Garbage is refused where it is parsed: when a channel is dialed.
        let bad = ProtoEntry::endpoint(ProtocolId::SHM, "not-an-endpoint");
        let always = ApplicabilityRule::Always;
        let proto = TransportProto::new(ProtocolId::SHM, always, Arc::new(MemFabric::new()));
        let err = proto.invoke(&ProtoPool::new(), &bad, &request(1, b"")).unwrap_err();
        assert!(matches!(err, OrbError::Protocol(_)), "{err}");
        assert_eq!(proto.channels.handles.lock().len(), 0);
    }

    #[test]
    fn invoke_roundtrip_and_connection_reuse() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen_on(5);

        // Echo server: replies Ok with the request body reversed.
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            for _ in 0..2 {
                let frame = conn.recv().unwrap();
                let req = RequestMessage::from_frame(&frame).unwrap();
                let mut body = req.body.to_vec();
                body.reverse();
                let reply = ReplyMessage::ok(req.request_id, Bytes::from(body));
                conn.send(&reply.to_frame()).unwrap();
            }
        });

        let proto = TransportProto::new(
            ProtocolId::SHM,
            ApplicabilityRule::Always,
            Arc::new(fabric),
        );
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://5");
        let pool = ProtoPool::new();
        for i in 0..2u64 {
            let reply = proto.invoke(&pool, &entry, &request(i, b"abc")).unwrap();
            assert_eq!(&reply.body[..], b"cba");
        }
        assert_eq!(proto.channels.handles.lock().len(), 1, "one endpoint, one cached channel");
        server.join().unwrap();
    }

    /// A channel lives as long as its last handle: dropping the proto that
    /// pools a live one closes the connection, and the server's loop ends.
    #[test]
    fn dropping_the_proto_closes_its_pooled_connections() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen_on(13);
        let (ended_tx, ended) = crossbeam::channel::unbounded();
        std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            while let Ok(frame) = conn.recv() {
                let req = RequestMessage::from_frame(&frame).unwrap();
                conn.send(&ReplyMessage::ok(req.request_id, req.body).to_frame()).unwrap();
            }
            ended_tx.send(()).unwrap();
        });
        let proto =
            TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric));
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://13");
        proto.invoke(&ProtoPool::new(), &entry, &request(1, b"live")).unwrap();
        assert!(ended.try_recv().is_err(), "the connection is live while pooled");
        drop(proto);
        let closed = ended.recv_timeout(Duration::from_secs(10));
        assert!(closed.is_ok(), "the server's loop outlived the proto");
    }

    #[test]
    fn dead_connection_is_evicted() {
        let fabric = MemFabric::new();
        let listener = fabric.listen_on(6);
        let proto =
            TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric));
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://6");
        let pool = ProtoPool::new();
        // Server accepts, consumes the request, then drops without replying —
        // the client's send succeeds and its recv fails.
        let h = std::thread::spawn({
            let mut listener = listener;
            move || {
                let mut conn = listener.accept().unwrap();
                let _ = conn.recv();
                drop(conn);
            }
        });
        let err = proto.invoke(&pool, &entry, &request(0, b"")).unwrap_err();
        // The frame was sent before the peer vanished, so the failure is
        // ambiguous — the server may have processed it.
        assert!(matches!(err, OrbError::AmbiguousTransport(_)), "{err}");
        assert_eq!(proto.channels.handles.lock().len(), 0, "dead channel evicted");
        h.join().unwrap();
    }

    /// A pooled handle the test can declare dead.
    #[derive(Default)]
    struct Probe {
        dead: AtomicBool,
    }

    impl Pooled for Probe {
        fn is_dead(&self) -> bool {
            self.dead.load(Ordering::SeqCst)
        }
    }

    fn dial_probe(cache: &EndpointCache<Probe>, ep: &str) -> (Arc<Probe>, bool) {
        cache.get_or_dial(ep, || Ok(Probe::default())).unwrap()
    }

    /// Regression test for the key-based-eviction bug: a straggler holding a
    /// reference to a *replaced* handle must not evict the fresh one a
    /// racing caller installed under the same endpoint key.
    #[test]
    fn eviction_is_by_identity_not_by_key() {
        let cache = EndpointCache::<Probe>::new(ProtocolId::SHM);
        let ep = "mem://7";

        let (first, cached) = dial_probe(&cache, ep);
        assert!(!cached);
        // A racing caller saw `first` fail, evicted it, and re-dialed.
        cache.evict(ep, &first);
        let (second, cached) = dial_probe(&cache, ep);
        assert!(!cached);
        assert!(!Arc::ptr_eq(&first, &second));

        // The straggler now reports its stale failure. Key-based eviction
        // would tear down `second`; identity eviction must keep it.
        cache.evict(ep, &first);
        assert_eq!(cache.handles.lock().len(), 1, "fresh handle survived stale eviction");
        let (current, cached) = dial_probe(&cache, ep);
        assert!(cached);
        assert!(Arc::ptr_eq(&current, &second));

        // Evicting with the right identity still works.
        cache.evict(ep, &second);
        assert_eq!(cache.handles.lock().len(), 0);

        // A handle that dies while pooled needs no evictor: the next lookup
        // drops it instead of handing it out.
        let (third, _) = dial_probe(&cache, ep);
        third.dead.store(true, Ordering::SeqCst);
        assert!(cache.cached(ep).is_none());
        assert_eq!(cache.handles.lock().len(), 0);
    }

    /// Regression test for the check-drop-dial-relock race: both callers
    /// dial (a barrier inside the dial forces the widest check-then-publish
    /// window), but exactly one handle may be published — the loser must
    /// share the winner's and retire its own rather than overwrite (and
    /// leak) it.
    #[test]
    fn racing_dials_share_one_channel() {
        let cache = Arc::new(EndpointCache::<Probe>::new(ProtocolId::SHM));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let (cache, gate) = (cache.clone(), gate.clone());
                std::thread::spawn(move || {
                    let dial = || {
                        gate.wait();
                        Ok(Probe::default())
                    };
                    cache.get_or_dial("mem://8", dial).unwrap().0
                })
            })
            .collect();
        let shared: Vec<Arc<Probe>> = racers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(cache.handles.lock().len(), 1, "the race must not publish two handles");
        assert!(Arc::ptr_eq(&shared[0], &shared[1]), "both racers share one handle");
    }

    /// A connection that cannot split has no channel to become: its dial
    /// fails as unsent, and nothing is pooled.
    #[test]
    fn a_dial_that_cannot_split_fails_as_unsent() {
        struct Whole;
        impl Connection for Whole {
            fn send(&mut self, _frame: &[u8]) -> Result<(), TransportError> {
                Ok(())
            }
            fn recv(&mut self) -> Result<Bytes, TransportError> {
                Err(TransportError::Closed)
            }
        }
        impl Dialer for Whole {
            fn dial(&self, _: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
                Ok(Box::new(Whole))
            }
        }
        let always = ApplicabilityRule::Always;
        let proto = TransportProto::new(ProtocolId::SHM, always, Arc::new(Whole));
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://14");
        let err = proto.invoke(&ProtoPool::new(), &entry, &request(1, b"")).unwrap_err();
        let io = match &err {
            OrbError::Transport(TransportError::Io(io)) => io.as_str(),
            _ => "",
        };
        assert!(io.ends_with("cannot be split"), "{err}");
        assert_eq!(proto.channels.handles.lock().len(), 0);
    }

    /// A hung (not crashed) server must not block past the deadline: the
    /// timeout surfaces as ambiguous, and the still-live mux stays pooled.
    #[test]
    fn hung_server_times_out_as_ambiguous() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen_on(11);
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let _ = conn.recv();
            // Hold the connection open well past the client's deadline.
            std::thread::sleep(Duration::from_millis(300));
            drop(conn);
        });
        let proto =
            TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric));
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://11");
        let err = proto
            .invoke_with_deadline(&ProtoPool::new(), &entry, &request(4, b""), Some(30_000_000))
            .unwrap_err();
        assert!(
            matches!(err, OrbError::AmbiguousTransport(TransportError::Timeout)),
            "{err}"
        );
        assert_eq!(proto.channels.handles.lock().len(), 1, "a live mux survives a deadline timeout");
        server.join().unwrap();
    }

    /// Interop pin, unified client against a stand-alone [`ohpc_nexus::NexusService`]:
    /// a channel whose RSR was lost is evicted from the one channel cache,
    /// and the next invocation dials a fresh one.
    #[test]
    fn nexus_failed_rsr_evicts_and_redials() {
        let fabric = MemFabric::new();
        let proto = NexusProto::new(
            ProtocolId::NEXUS_TCP,
            ApplicabilityRule::Always,
            Arc::new(fabric.clone()),
        );
        let entry = ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "mem://9");
        let pool = ProtoPool::new();

        // First server: takes the request and hangs up without replying.
        let mut listener = fabric.listen_on(9);
        let dropper = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let _ = conn.recv();
        });
        let err = proto.invoke(&pool, &entry, &request(1, b"lost")).unwrap_err();
        assert!(matches!(err, OrbError::AmbiguousTransport(_)), "{err}");
        assert_eq!(proto.channels.handles.lock().len(), 0, "failed channel evicted");
        dropper.join().unwrap();

        // Second server on the same endpoint: a real Nexus service.
        let mut svc = ohpc_nexus::NexusService::new();
        svc.register(crate::message::NEXUS_ORB_HANDLER, |args, out| {
            let n = args.remaining();
            let frame = args.get_fixed_opaque(n).map_err(|e| e.to_string())?;
            let req = RequestMessage::from_frame(&Bytes::copy_from_slice(frame))
                .map_err(|e| e.to_string())?;
            out.put_fixed_opaque(&ReplyMessage::ok(req.request_id, req.body).to_frame());
            Ok(())
        });
        let _running = svc.start(Box::new(fabric.listen_on(9)));
        let reply = proto.invoke(&pool, &entry, &request(2, b"again")).unwrap();
        assert_eq!(&reply.body[..], b"again");
        assert_eq!(proto.channels.handles.lock().len(), 1, "fresh channel pooled");
    }

    /// A non-OK RSR reply names a handler and no request, so it cannot be
    /// routed to the caller it answers. What that caller sees: the channel
    /// dies of the uncorrelatable frame and every waiter — the caller among
    /// them — fails at once, ambiguous. Never a caller parked for ever.
    #[test]
    fn nexus_refusal_fails_the_caller_instead_of_stranding_it() {
        let fabric = MemFabric::new();
        // A Nexus service that does not host the ORB.
        let _running = ohpc_nexus::NexusService::new().start(Box::new(fabric.listen_on(12)));
        let entry = ProtoEntry::endpoint(ProtocolId::NEXUS_TCP, "mem://12");
        let pool = ProtoPool::new();
        let always = ApplicabilityRule::Always;

        let muxed = NexusProto::new(ProtocolId::NEXUS_TCP, always, Arc::new(fabric));
        let err = muxed.invoke(&pool, &entry, &request(1, b"")).unwrap_err();
        assert!(matches!(err, OrbError::AmbiguousTransport(TransportError::Io(_))), "{err}");
        assert_eq!(muxed.channels.handles.lock().len(), 0, "the dead channel is evicted");
    }
}
