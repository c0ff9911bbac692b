//! Buffer ownership on the request path, end to end: capabilities transform
//! a body in place only when they are its sole owner, so a transform must
//! never be visible through a handle someone else still holds — not the
//! GP's retry loop, not the caller, not the other members of a collective.
//! The same rule governs reuse: a stub's argument writer and a server's
//! reply writer start from the buffer their thread sent last, given back
//! only by its sole owner.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use bytes::Bytes;

use ohpc_bench::workload::{EchoArray, EchoArrayApi, EchoArrayClient, EchoArraySkeleton};
use ohpc_caps::{register_standard, EncryptionCap, TimeoutCap};
use ohpc_crypto::KeyStore;
use ohpc_netsim::Location;
use ohpc_orb::context::OrRow;
use ohpc_orb::message::Framing;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, GlueProto, GpGroup,
    MethodError, ObjectId, ProtoPool, ProtocolId, RemoteObject, RequestId, RequestMessage,
    TransportProto,
};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
use ohpc_transport::{Connection, Dialer, Endpoint, Listener, RecvHalf, SendHalf, TransportError};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter, SPARE_MAX};

const KEY: &str = "ownership";

fn registry() -> Arc<CapabilityRegistry> {
    let reg = CapabilityRegistry::new();
    let mut keys = KeyStore::new();
    keys.add_key(KEY, b"buffer-ownership-suite");
    register_standard(&reg, keys);
    Arc::new(reg)
}

/// A context serving one echo object behind glue[timeout,security], and a GP
/// to it whose transport dials through `dialer`.
fn secured_echo(
    id: u64,
    fabric: &MemFabric,
    dialer: Arc<dyn Dialer>,
) -> (Context, Arc<EchoArraySkeleton<EchoArray>>, GlobalPointer) {
    let registry = registry();
    let ctx = Context::new(ContextId(id), Location::new(0, 0), registry.clone());
    let echo = Arc::new(EchoArraySkeleton(EchoArray::default()));
    let object = ctx.register(echo.clone());
    ctx.serve(Box::new(fabric.listen()), ProtocolId::TCP);
    let glue_id =
        ctx.add_glue(vec![TimeoutCap::spec(1_000_000), EncryptionCap::spec(KEY)]).unwrap();
    let or = ctx.make_or(object, &[OrRow::Glue { glue_id, inner: ProtocolId::TCP }]).unwrap();
    (ctx, echo, secured(or, registry, dialer))
}

/// A GP to `or` that can speak glue over TCP, dialing through `dialer`.
fn secured(
    or: ohpc_orb::ObjectReference,
    registry: Arc<CapabilityRegistry>,
    dialer: Arc<dyn Dialer>,
) -> GlobalPointer {
    let pool = ProtoPool::new().with(Arc::new(GlueProto::new(registry))).with(Arc::new(
        TransportProto::new(ProtocolId::TCP, ApplicabilityRule::Always, dialer),
    ));
    GlobalPointer::new(or, Arc::new(pool), Location::new(1, 0))
}

/// A context serving `object` over plain mem, and a GP to it.
fn plain(id: u64, fabric: &MemFabric, object: Arc<dyn RemoteObject>) -> (Context, GlobalPointer) {
    let ctx = Context::new(ContextId(id), Location::new(0, 0), registry());
    let object = ctx.register(object);
    ctx.serve(Box::new(fabric.listen()), ProtocolId::SHM);
    let or = ctx.make_or(object, &[OrRow::Plain(ProtocolId::SHM)]).unwrap();
    let mem = TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric.clone()));
    let pool = ProtoPool::new().with(Arc::new(mem));
    (ctx, GlobalPointer::new(or, Arc::new(pool), Location::new(1, 0)))
}

fn encoded(v: &Vec<i32>) -> Bytes {
    let mut w = XdrWriter::new();
    v.encode(&mut w);
    w.finish()
}

/// Dialer whose connections refuse the very first send — after the glue
/// chain has run, before anything reaches the wire — and keep the frame
/// they refused.
struct FailFirstSend {
    inner: MemFabric,
    armed: Arc<AtomicBool>,
    refused: Arc<Mutex<Option<Vec<u8>>>>,
}

struct FailFirstSendConn {
    inner: Box<dyn Connection>,
    armed: Arc<AtomicBool>,
    refused: Arc<Mutex<Option<Vec<u8>>>>,
}

impl Dialer for FailFirstSend {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        Ok(Box::new(FailFirstSendConn {
            inner: self.inner.dial(endpoint)?,
            armed: self.armed.clone(),
            refused: self.refused.clone(),
        }))
    }
}

impl Connection for FailFirstSendConn {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if self.armed.swap(false, Ordering::SeqCst) {
            *self.refused.lock().unwrap() = Some(frame.to_vec());
            return Err(TransportError::Closed);
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.inner.recv()
    }

    /// The send half refuses the first frame, as the whole connection does.
    fn try_split(&mut self) -> Option<(Box<dyn SendHalf>, Box<dyn RecvHalf>)> {
        let (inner, rx) = self.inner.try_split()?;
        let tx = FailFirstSendHalf {
            inner,
            armed: self.armed.clone(),
            refused: self.refused.clone(),
        };
        Some((Box::new(tx), rx))
    }
}

struct FailFirstSendHalf {
    inner: Box<dyn SendHalf>,
    armed: Arc<AtomicBool>,
    refused: Arc<Mutex<Option<Vec<u8>>>>,
}

impl SendHalf for FailFirstSendHalf {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if self.armed.swap(false, Ordering::SeqCst) {
            *self.refused.lock().unwrap() = Some(frame.to_vec());
            return Err(TransportError::Closed);
        }
        self.inner.send(frame)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[test]
fn a_retry_after_process_ran_resends_the_original_plaintext() {
    let fabric = MemFabric::new();
    let refused = Arc::new(Mutex::new(None));
    let dialer = FailFirstSend {
        inner: fabric.clone(),
        armed: Arc::new(AtomicBool::new(true)),
        refused: refused.clone(),
    };
    let (ctx, echo, gp) = secured_echo(1, &fabric, Arc::new(dialer));

    let array: Vec<i32> = (0..5000).map(|i| i * 7 - 3).collect();
    let body = encoded(&array);
    let pristine = body.to_vec();

    // Attempt one encrypts and is refused at the send; the GP's retry loop
    // (default policy: a provably unsent frame is retryable) goes again from
    // the plaintext it kept.
    let reply = gp.invoke_raw(1, body.clone()).unwrap();
    assert_eq!(ohpc_xdr::decode_from_slice::<Vec<i32>>(&reply).unwrap(), array);
    assert_eq!(echo.0.served().unwrap(), 1, "exactly the retried attempt arrived");
    assert_eq!(body, pristine, "the caller's handle must still read what it passed in");

    // The fault did strike after `process`: the refused frame carries the
    // request, but nowhere its plaintext.
    let refused = refused.lock().unwrap().take().expect("the first send was refused");
    assert!(refused.len() > pristine.len());
    assert!(!refused.windows(64).any(|w| w == &pristine[100..164]), "refused frame was not encrypted");
    ctx.shutdown();
}

/// A request frame leaves in parts — its head, then the body as it is — and
/// arrives as a buffer its receiver alone owns, so the server's glue can
/// decipher the body in place; and the sender's scratch lets go of the body
/// when the send returns, so a caller holding it is again its sole owner.
#[test]
fn a_frame_sent_in_parts_is_owned_by_its_receiver_and_released_by_its_sender() {
    let fabric = MemFabric::new();
    let mut mem_listener = fabric.listen();
    let mem_client = fabric.dial(&mem_listener.endpoint()).unwrap();
    let mem_server = mem_listener.accept().unwrap();
    let mut tcp_listener = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let tcp_client = TcpDialer.dial(&tcp_listener.endpoint()).unwrap();
    let tcp_server = tcp_listener.accept().unwrap();

    for (mut client, mut server) in [(mem_client, mem_server), (tcp_client, tcp_server)] {
        let request = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(2),
            method: 1,
            oneway: false,
            glue: None,
            body: encoded(&(0..16_384).collect()),
            trace: None,
        };
        let expected = request.to_frame();
        request.with_parts_as(Framing::Bare, |parts| {
            assert!(parts.len() > 1, "the body went out in a part of its own");
            client.send_parts(parts)
        })
        .unwrap();
        let mut kept = request.body;
        assert!(kept.unique_mut().is_some(), "the sender still holds a handle to the body");

        let frame = server.recv().unwrap();
        assert_eq!(frame, expected);
        let mut received = RequestMessage::from_frame(&frame).unwrap().body;
        drop(frame);
        assert!(received.unique_mut().is_some(), "the receiver shares the frame's buffer");
    }
}

#[test]
fn a_collective_fans_one_body_out_to_members_that_each_decrypt_it() {
    let fabric = MemFabric::new();
    let members: Vec<_> =
        (1..=4).map(|id| secured_echo(id, &fabric, Arc::new(fabric.clone()))).collect();
    let array: Vec<i32> = (0..3000).map(|i| 1_000_000 - i).collect();
    let mut args = XdrWriter::new();
    array.encode(&mut args);

    let mut contexts = Vec::new();
    let mut echoes = Vec::new();
    let mut gps = Vec::new();
    for (ctx, echo, gp) in members {
        contexts.push(ctx);
        echoes.push(echo);
        gps.push(Arc::new(gp));
    }
    let group = GpGroup::new(gps);
    // Twice: the second round runs on warm connections and cached chains.
    for round in 1..=2 {
        let echoed: Vec<Vec<i32>> = group.gather(1, &args).unwrap();
        assert_eq!(echoed.len(), 4);
        assert!(echoed.iter().all(|v| *v == array), "a member saw something other than the plaintext");
        assert!(echoes.iter().all(|e| e.0.served().unwrap() == round));
    }
    for gp in group.members() {
        assert_eq!(gp.last_protocol().as_deref(), Some("glue[timeout+security]->tcp"));
    }
    for ctx in contexts {
        ctx.shutdown();
    }
}

#[test]
fn a_body_its_caller_still_holds_is_never_recycled() {
    let body = encoded(&(0..1000).collect());
    let held = body.clone();
    let pristine = held.to_vec();
    XdrWriter::recycle(body);

    let mut w = XdrWriter::reused();
    assert_eq!(w.capacity(), 0, "a shared buffer became the spare");
    vec![-1i32; 1000].encode(&mut w);
    let next = w.finish();
    assert_ne!(next.as_ptr(), held.as_ptr());
    assert_eq!(held, pristine, "the holder's bytes were written over");

    // Once the holder lets go, the buffer is the spare.
    let p = held.as_ptr();
    XdrWriter::recycle(held);
    assert_eq!(XdrWriter::reused().peek().as_ptr(), p);
}

/// The stub's body goes to the GP's retry loop as a clone: the loop's copy
/// survives a refused first attempt, and the stub takes the buffer back only
/// once the call is over.
#[test]
fn a_stub_call_retried_after_a_failed_send_resends_its_original_plaintext() {
    let fabric = MemFabric::new();
    let refused = Arc::new(Mutex::new(None));
    let dialer = FailFirstSend {
        inner: fabric.clone(),
        armed: Arc::new(AtomicBool::new(true)),
        refused: refused.clone(),
    };
    let (ctx, echo, gp) = secured_echo(1, &fabric, Arc::new(dialer));
    let client = EchoArrayClient::new(gp);

    let array: Vec<i32> = (0..5000).map(|i| i * 11 - 5).collect();
    assert_eq!(client.echo(array.clone()).unwrap(), array);
    assert_eq!(echo.0.served().unwrap(), 1, "exactly the retried attempt arrived");
    let refused = refused.lock().unwrap().take().expect("the first send was refused");
    let plaintext = encoded(&array);
    assert!(!refused.windows(64).any(|w| w == &plaintext[100..164]), "refused frame was not encrypted");

    // Later calls encode into the buffer the first one gave back.
    for round in 0..3 {
        let next: Vec<i32> = (0..5000 - round * 1000).map(|i| i ^ round).collect();
        assert_eq!(client.echo(next.clone()).unwrap(), next);
    }
    assert_eq!(echo.0.served().unwrap(), 4);
    ctx.shutdown();
}

/// A collective's body is one copy its members share: the stubs' calls on
/// the same threads and the members' servers recycling their replies leave
/// it, and every member's plaintext, as it was.
#[test]
fn a_collective_fan_out_is_unaffected_by_the_threads_spares() {
    let fabric = MemFabric::new();
    let members: Vec<_> =
        (1..=3).map(|id| secured_echo(id, &fabric, Arc::new(fabric.clone()))).collect();
    let array: Vec<i32> = (0..4000).map(|i| 3 * i - 7).collect();
    let mut args = XdrWriter::new();
    array.encode(&mut args);
    let pristine = args.peek().to_vec();

    let mut contexts = Vec::new();
    let mut gps = Vec::new();
    for (ctx, _, gp) in members {
        contexts.push(ctx);
        gps.push(Arc::new(gp));
    }
    let solo = secured(gps[0].object_reference(), registry(), Arc::new(fabric.clone()));
    let solo = EchoArrayClient::new(solo);
    let group = GpGroup::new(gps);
    for round in 0..3 {
        let other: Vec<i32> = (0..6000).map(|i| i + round).collect();
        assert_eq!(solo.echo(other.clone()).unwrap(), other);
        let echoed: Vec<Vec<i32>> = group.gather(1, &args).unwrap();
        assert!(echoed.iter().all(|v| *v == array), "a member saw something other than the plaintext");
        assert_eq!(args.peek(), pristine, "the collective's arguments changed");
    }
    for ctx in contexts {
        ctx.shutdown();
    }
}

/// Replies `n` bytes of opaque data for method 1, and nothing for method 2;
/// notes the thread and the room of the reply writer of every call.
#[derive(Default)]
struct Sized {
    writers: Mutex<Vec<(ThreadId, usize)>>,
}

impl RemoteObject for Sized {
    fn type_name(&self) -> &str {
        "Sized"
    }

    fn dispatch(
        &self,
        method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        let me = (std::thread::current().id(), out.capacity());
        self.writers.lock().unwrap().push(me);
        match method {
            1 => {
                let n = u32::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?;
                out.put_opaque(&vec![0x5a; n as usize]);
                Ok(())
            }
            2 => Ok(()),
            m => Err(MethodError::NoSuchMethod(m)),
        }
    }
}

#[test]
fn a_reply_larger_than_the_spare_limit_is_dropped_not_kept() {
    let fabric = MemFabric::new();
    let sized = Arc::new(Sized::default());
    let (ctx, gp) = plain(1, &fabric, sized.clone());
    let reply_of = |n: usize| {
        let mut w = XdrWriter::new();
        (n as u32).encode(&mut w);
        let reply = gp.invoke(1, &w).unwrap();
        assert_eq!(reply.len(), 4 + n.next_multiple_of(4));
    };
    reply_of(1 << 20);
    reply_of(SPARE_MAX + 1);
    gp.invoke(2, &XdrWriter::new()).unwrap();

    let writers = sized.writers.lock().unwrap().clone();
    let [mid, big, after] = writers[..] else { panic!("{writers:?}") };
    for (_, room) in &writers {
        assert!(*room <= SPARE_MAX, "a writer started with {room} bytes of room");
    }
    // The connection's reader runs these short calls itself, so they
    // usually share a thread: then the mid-sized reply was kept, and the
    // big one, which grew out of it, was not.
    if big.0 == mid.0 {
        assert!(big.1 >= 1 << 20, "the mid-sized reply's buffer was not kept");
    }
    if after.0 == big.0 {
        assert_eq!(after.1, 0, "the oversized reply's buffer was kept");
    }
    ctx.shutdown();
}

/// Forwards an echo to another object from inside its own dispatch, between
/// two words it writes to its reply: the nested stub's writer must not be
/// the reply writer's buffer.
struct Relay {
    next: EchoArrayClient,
}

impl RemoteObject for Relay {
    fn type_name(&self) -> &str {
        "Relay"
    }

    fn dispatch(
        &self,
        _method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        let v = Vec::<i32>::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?;
        out.put_u32(0xfeed);
        let echoed = self.next.echo(v).map_err(|e| MethodError::App(e.to_string()))?;
        echoed.encode(out);
        out.put_u32(0xbeef);
        Ok(())
    }
}

#[test]
fn a_call_made_inside_a_skeleton_on_the_same_thread_gets_a_writer_of_its_own() {
    let fabric = MemFabric::new();
    let echo = Arc::new(EchoArraySkeleton(EchoArray::default()));
    let (inner, to_echo) = plain(1, &fabric, echo.clone());
    let relay = Arc::new(Relay { next: EchoArrayClient::new(to_echo) });
    let (outer, to_relay) = plain(2, &fabric, relay);

    for round in 0..4 {
        let v: Vec<i32> = (0..3000 + round * 500).map(|i| i * round).collect();
        let mut args = XdrWriter::new();
        v.encode(&mut args);
        let reply = to_relay.invoke(1, &args).unwrap();
        let mut r = XdrReader::new(&reply);
        assert_eq!(r.get_u32().unwrap(), 0xfeed, "the nested call wrote over the reply");
        assert_eq!(Vec::<i32>::decode(&mut r).unwrap(), v);
        assert_eq!(r.get_u32().unwrap(), 0xbeef);
        assert!(r.is_empty());
    }
    assert_eq!(echo.0.served().unwrap(), 4);
    outer.shutdown();
    inner.shutdown();
}

#[test]
fn a_recycled_buffer_never_shows_its_earlier_bytes() {
    let mut w = XdrWriter::reused();
    w.put_fixed_opaque(&[0xee; 4096]);
    XdrWriter::recycle(w.finish());

    let mut w = XdrWriter::reused();
    assert!(w.capacity() >= 4096, "the buffer was not kept");
    assert!(w.is_empty() && w.peek().is_empty(), "earlier bytes show through peek");
    w.put_u32(1);
    assert_eq!(w.peek(), &[0, 0, 0, 1]);
    assert_eq!(w.finish(), Bytes::from_static(&[0, 0, 0, 1]), "earlier bytes show through finish");

    // End to end: a small echo after a large one, both ways reusing.
    let fabric = MemFabric::new();
    let (ctx, gp) = plain(1, &fabric, Arc::new(EchoArraySkeleton(EchoArray::default())));
    let client = EchoArrayClient::new(gp);
    let large: Vec<i32> = vec![-1; 100_000];
    assert_eq!(client.echo(large.clone()).unwrap(), large);
    assert_eq!(client.echo(vec![1, 2, 3]).unwrap(), vec![1, 2, 3]);
    assert_eq!(client.echo(vec![]).unwrap(), Vec::<i32>::new());
    ctx.shutdown();
}
