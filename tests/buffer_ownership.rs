//! Buffer ownership on the request path, end to end: capabilities transform
//! a body in place only when they are its sole owner, so a transform must
//! never be visible through a handle someone else still holds — not the
//! GP's retry loop, not the caller, not the other members of a collective.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use ohpc_bench::workload::{EchoArray, EchoArrayApi, EchoArraySkeleton};
use ohpc_caps::{register_standard, EncryptionCap, TimeoutCap};
use ohpc_crypto::KeyStore;
use ohpc_netsim::Location;
use ohpc_orb::context::OrRow;
use ohpc_orb::message::Framing;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, GlueProto, GpGroup,
    ObjectId, ProtoPool, ProtocolId, RequestId, RequestMessage, TransportProto,
};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
use ohpc_transport::{Connection, Dialer, Endpoint, Listener, RecvHalf, SendHalf, TransportError};
use ohpc_xdr::{XdrEncode, XdrWriter};

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
    let pool = ProtoPool::new().with(Arc::new(GlueProto::new(registry))).with(Arc::new(
        TransportProto::new(ProtocolId::TCP, ApplicabilityRule::Always, dialer),
    ));
    let gp = GlobalPointer::new(or, Arc::new(pool), Location::new(1, 0));
    (ctx, echo, gp)
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
