//! Shared-media contention: the simulator models each LAN segment (and the
//! backbone) as one queueing domain, so concurrent clients genuinely compete
//! for the wire — the property that makes the load-balancing experiments
//! honest.

use std::sync::Arc;

use ohpc_bench::setup::SimDeployment;
use ohpc_bench::workload::{make_array, EchoArray, EchoArrayClient, EchoArraySkeleton};
use ohpc_netsim::{Cluster, LanId, LinkProfile, MachineId, SimTime};
use ohpc_orb::context::OrRow;
use ohpc_orb::ProtocolId;

/// N client machines + 1 server machine, all on one Ethernet segment.
fn star(n_clients: usize, profile: LinkProfile) -> (SimDeployment, Vec<MachineId>, MachineId) {
    let mut builder = Cluster::builder().lan(LanId(0), profile);
    let mut server_m = MachineId(0);
    builder = builder.machine("server", LanId(0), &mut server_m);
    let mut clients = Vec::new();
    for i in 0..n_clients {
        let mut m = MachineId(0);
        builder = builder.machine(&format!("c{i}"), LanId(0), &mut m);
        clients.push(m);
    }
    (SimDeployment::new(builder.build()), clients, server_m)
}

fn run_clients(dep: &SimDeployment, clients: &[MachineId], or: ohpc_orb::ObjectReference, reqs: usize, elements: usize) -> SimTime {
    let t0 = dep.net.clock().now();
    let handles: Vec<_> = clients
        .iter()
        .map(|&m| {
            let gp = dep.client_gp(m, or.clone());
            let v = make_array(elements);
            std::thread::spawn(move || {
                let client = EchoArrayClient::new(gp);
                for _ in 0..reqs {
                    client.echo(v.clone()).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    dep.net.clock().now().saturating_sub(t0)
}

#[test]
fn aggregate_bandwidth_saturates_at_link_rate() {
    // 4 clients pushing big arrays through one 10 Mbps segment can never
    // exceed the segment's capacity in aggregate.
    let (dep, clients, server_m) = star(4, LinkProfile::ethernet_10());
    let server = dep.server(server_m);
    let object = server.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let or = server.make_or(object, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();

    let (reqs, elements) = (4usize, 25_000usize);
    let elapsed = run_clients(&dep, &clients, or, reqs, elements);

    let payload_bits =
        (clients.len() * reqs) as f64 * 2.0 * (4.0 + 4.0 * elements as f64) * 8.0;
    let aggregate_mbps = payload_bits / elapsed.as_secs_f64() / 1e6;
    assert!(
        aggregate_mbps < 10.0,
        "aggregate {aggregate_mbps:.2} Mbps cannot exceed the 10 Mbps segment"
    );
    assert!(aggregate_mbps > 5.0, "but should still use most of it: {aggregate_mbps:.2}");
    server.shutdown();
}

#[test]
fn contention_slows_everyone_down() {
    // The same per-client workload takes much longer wall-clock (virtual)
    // with 4 contenders than with 1.
    let elements = 25_000;
    let reqs = 4;

    let (dep1, clients1, server1_m) = star(1, LinkProfile::ethernet_10());
    let server1 = dep1.server(server1_m);
    let o1 = server1.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let or1 = server1.make_or(o1, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
    let solo = run_clients(&dep1, &clients1, or1, reqs, elements);
    server1.shutdown();

    let (dep4, clients4, server4_m) = star(4, LinkProfile::ethernet_10());
    let server4 = dep4.server(server4_m);
    let o4 = server4.register(Arc::new(EchoArraySkeleton(EchoArray::default())));
    let or4 = server4.make_or(o4, &[OrRow::Plain(ProtocolId::TCP)]).unwrap();
    let crowded = run_clients(&dep4, &clients4, or4, reqs, elements);
    server4.shutdown();

    assert!(
        crowded.0 > 3 * solo.0,
        "4 contenders should take ~4x as long: solo {solo}, crowded {crowded}"
    );
}

#[test]
fn loopback_paths_do_not_contend_with_the_lan() {
    // A colocated client's shared-memory traffic must not queue behind LAN
    // traffic: loopback is its own queueing domain per machine. Verified at
    // the receipt level because the virtual clock itself is global (every
    // thread's arrivals move it forward).
    let (dep, clients, server_m) = star(2, LinkProfile::ethernet_10());

    // Background threads saturate the LAN.
    let lan_load: Vec<_> = clients
        .iter()
        .map(|&m| {
            let net = dep.net.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    net.transfer(m, server_m, 100_000);
                }
            })
        })
        .collect();

    // Meanwhile loopback transfers on the server machine: each one's
    // in-flight window (arrived - started) must stay at the unloaded
    // loopback duration, proving it never waited behind the congested LAN.
    let loopback_unloaded = LinkProfile::shared_memory().unloaded_time(100_000);
    for _ in 0..50 {
        let r = dep.net.transfer(server_m, server_m, 100_000);
        let in_flight = r.arrived.saturating_sub(r.started);
        assert_eq!(
            in_flight, loopback_unloaded,
            "loopback transfer inflated by LAN congestion"
        );
    }
    for h in lan_load {
        h.join().unwrap();
    }
}

/// Wall-clock multiplexing stress tests: unlike the simulator tests above,
/// these run real threads against the production per-endpoint demux path
/// (leader read, waiter table, eviction) over a [`MemFabric`].
mod mux_stress {
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    use bytes::Bytes;
    use ohpc_bench::mux_contention::{run_contention, CLIENT_WIDTHS};
    use ohpc_orb::selection::health_key;
    use ohpc_orb::{
        ApplicabilityRule, GlobalPointer, Location, ObjectId, ObjectReference, OrbError,
        ProtoEntry, ProtoPool, ProtocolId, ReplyMessage, RequestMessage, TransportProto,
    };
    use ohpc_transport::mem::MemFabric;
    use ohpc_transport::Listener;

    /// Every reply lands with the caller whose token it carries, at every
    /// concurrency width `ohpc-bench mux` sweeps. `run_contention` panics on
    /// any misrouted or failed reply, so this doubles as the
    /// interleaving-correctness check for the demux.
    #[test]
    fn concurrent_clients_route_replies_correctly() {
        for clients in CLIENT_WIDTHS {
            let sample = run_contention(clients, 20, Duration::from_micros(200));
            assert!(
                sample.throughput_rps > 0.0,
                "no throughput at {clients} clients"
            );
        }
    }

    /// With the server busy 10 ms per request, 8 clients pipelining into one
    /// multiplexed connection must clearly outrun any serialized wire, which
    /// by arithmetic needs at least clients · requests · delay of wall
    /// clock. (The delay is long so that the server's sleep, not an
    /// unoptimized build's CPU time, is what the clients overlap.)
    /// `ohpc-bench mux` prints the full sweep; this is the conservative
    /// in-test floor (the measured margin is ~7x).
    #[test]
    fn mux_outruns_the_serialized_wire() {
        const CLIENTS: usize = 8;
        const REQUESTS: usize = 8;
        let delay = Duration::from_millis(10);
        let mux = run_contention(CLIENTS, REQUESTS, delay);
        let serialized_floor = delay * (CLIENTS * REQUESTS) as u32;
        assert!(
            mux.elapsed < serialized_floor / 2,
            "expected under half the serialized wire's {serialized_floor:?}, took {:?}",
            mux.elapsed
        );
    }

    /// A connection dying with several requests in flight must fail every
    /// waiter promptly with `AmbiguousTransport` (the frames were sent; the
    /// replies are lost) — nobody hangs, and the GP's health registry holds
    /// the failures under the row's key.
    #[test]
    fn mid_flight_death_fails_every_waiter() {
        const WAITERS: usize = 6;

        let fabric = MemFabric::new();
        let mut listener = fabric.listen_on(77);

        // Server: answer one warm-up request (so exactly one channel gets
        // dialed and installed), then swallow WAITERS frames without
        // replying and drop the connection mid-flight.
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let frame = conn.recv().unwrap();
            let req = RequestMessage::from_frame(&frame).unwrap();
            conn.send(&ReplyMessage::ok(req.request_id, req.body).to_frame()).unwrap();
            for _ in 0..WAITERS {
                conn.recv().unwrap();
            }
            drop(conn);
        });

        let proto =
            TransportProto::new(ProtocolId::TCP, ApplicabilityRule::Always, Arc::new(fabric));
        let entry = ProtoEntry::endpoint(ProtocolId::TCP, "mem://77");
        let or = ObjectReference {
            object: ObjectId(1),
            type_name: "Stress".into(),
            location: Location::new(0, 0),
            protocols: vec![entry.clone()],
        };
        let pool = Arc::new(ProtoPool::new().with(Arc::new(proto)));
        let gp = Arc::new(GlobalPointer::new(or, pool, Location::new(1, 0)));

        gp.invoke_raw(0, Bytes::from_static(b"stress")).expect("warm-up round trip");

        let (tx, rx) = mpsc::channel();
        for _ in 0..WAITERS {
            let (gp, tx) = (Arc::clone(&gp), tx.clone());
            std::thread::spawn(move || {
                tx.send(gp.invoke_raw(0, Bytes::from_static(b"stress"))).unwrap();
            });
        }
        drop(tx);

        for _ in 0..WAITERS {
            // A bounded wait is the "nobody hangs" assertion: each waiter
            // must resolve well before this deadline.
            let outcome = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a waiter hung after the connection died");
            match outcome {
                Err(OrbError::AmbiguousTransport(_)) => {}
                other => panic!("expected AmbiguousTransport for every waiter, got {other:?}"),
            }
        }
        server.join().unwrap();

        // Each waiter's failure is recorded before its invoke returns.
        let failures = gp.health_registry().consecutive_failures(&health_key(&entry));
        assert_eq!(failures, WAITERS as u32, "every failed waiter reached the health registry");
    }
}

/// A connection that dies while no call waits on it has nobody reading it:
/// the next call finds out, in a way that depends on the fabric. Pinned
/// through the proto-object, over a server that answers one request per
/// connection and hangs up after the first.
mod idle_death {
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use bytes::Bytes;
    use ohpc_orb::{
        ApplicabilityRule, ObjectId, OrbError, ProtoEntry, ProtoObject, ProtoPool, ProtocolId,
        ReplyMessage, RequestId, RequestMessage, TransportProto,
    };
    use ohpc_transport::mem::MemFabric;
    use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
    use ohpc_transport::{Dialer, Listener, TransportError};

    fn request(id: u64) -> RequestMessage {
        RequestMessage {
            request_id: RequestId(id),
            object: ObjectId(1),
            method: 0,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"idle"),
            trace: None,
        }
    }

    /// Accepts two connections in turn and answers one request on each. The
    /// first is dropped right after its reply — `hung_up` says when — and
    /// the second is held until its client goes.
    fn serve_two(mut listener: Box<dyn Listener>, hung_up: mpsc::Sender<()>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            for n in 0..2 {
                let mut conn = listener.accept().unwrap();
                let req = RequestMessage::from_frame(&conn.recv().unwrap()).unwrap();
                conn.send(&ReplyMessage::ok(req.request_id, req.body).to_frame()).unwrap();
                if n == 0 {
                    drop(conn);
                    hung_up.send(()).unwrap();
                } else {
                    while conn.recv().is_ok() {}
                }
            }
        })
    }

    fn proto_over(dialer: Arc<dyn Dialer>) -> TransportProto {
        TransportProto::new(ProtocolId::TCP, ApplicabilityRule::Always, dialer)
    }

    /// Over mem the dead peer refuses the frame: the call is unsent, so the
    /// proto re-dials and the caller never sees the death.
    #[test]
    fn over_mem_the_next_send_finds_it_and_the_call_is_redialed() {
        let fabric = MemFabric::new();
        let (hung_up_tx, hung_up) = mpsc::channel();
        let server = serve_two(Box::new(fabric.listen_on(78)), hung_up_tx);
        let proto = proto_over(Arc::new(fabric));
        let (pool, entry) = (ProtoPool::new(), ProtoEntry::endpoint(ProtocolId::TCP, "mem://78"));
        proto.invoke(&pool, &entry, &request(1)).expect("first connection answers");
        hung_up.recv().unwrap();
        let reply = proto.invoke(&pool, &entry, &request(2)).expect("re-dialed transparently");
        assert_eq!(reply.request_id, RequestId(2));
        drop(proto);
        server.join().unwrap();
    }

    /// Over TCP the kernel takes the frame before the close is seen, so the
    /// leader's read finds it: the call is ambiguous (`Closed`), as any
    /// reply lost after the send is. The dead channel is evicted, and the
    /// call after it dials the second connection.
    #[test]
    fn over_tcp_the_leaders_read_finds_it_and_the_call_is_ambiguous() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let endpoint = acceptor.endpoint().to_string();
        let (hung_up_tx, hung_up) = mpsc::channel();
        let server = serve_two(Box::new(acceptor), hung_up_tx);
        let proto = proto_over(Arc::new(TcpDialer));
        let (pool, entry) = (ProtoPool::new(), ProtoEntry::endpoint(ProtocolId::TCP, &endpoint));
        proto.invoke(&pool, &entry, &request(1)).expect("first connection answers");
        hung_up.recv().unwrap();
        let err = proto.invoke(&pool, &entry, &request(2)).unwrap_err();
        assert!(matches!(err, OrbError::AmbiguousTransport(TransportError::Closed)), "{err}");
        let reply = proto.invoke(&pool, &entry, &request(3)).expect("a fresh connection answers");
        assert_eq!(reply.request_id, RequestId(3));
        drop(proto);
        server.join().unwrap();
    }
}
