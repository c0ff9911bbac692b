//! `mux_in_flight` is one process-wide gauge fed by every channel: it must
//! read the total of their waiters, not whichever channel wrote last. Alone
//! in its test binary, so nothing else moves the gauge while it looks.

// Test code may block and spawn: clippy.toml's rules are for serving code.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;

use bytes::Bytes;

use ohpc_telemetry::Registry;
use ohpc_transport::mem::MemFabric;
use ohpc_transport::mux::{MuxChannel, MuxError};
use ohpc_transport::{Connection, Dialer, Endpoint, Listener};

fn id_of(frame: &Bytes) -> Option<u64> {
    Some(u64::from_be_bytes(*frame.first_chunk::<8>()?))
}

#[test]
fn the_gauge_is_the_total_over_all_channels() {
    let fabric = MemFabric::new();
    let mut listener = fabric.listen();
    let endpoint: Endpoint = listener.endpoint();
    let mut dial = || {
        let mut client = fabric.dial(&endpoint).unwrap();
        let (tx, rx) = client.try_split().expect("mem connections split");
        let server: Box<dyn Connection> = listener.accept().unwrap();
        (MuxChannel::new(tx, rx, Box::new(id_of)), server)
    };
    let (mux_a, mut server_a) = dial();
    let (mux_b, mut server_b) = dial();
    let gauge = Registry::global().gauge("mux_in_flight", &[]);
    assert_eq!(gauge.get(), 0);

    let call = |mux: &Arc<MuxChannel>, id: u64| {
        let mux = mux.clone();
        std::thread::spawn(move || mux.call(id, &[&id.to_be_bytes()], None))
    };
    let on_a = [call(&mux_a, 1), call(&mux_a, 2)];
    let on_b = call(&mux_b, 3);
    // A waiter registers before its frame is sent, so once the servers hold
    // all three frames, all three are in flight.
    let at_server = [server_a.recv().unwrap(), server_a.recv().unwrap(), server_b.recv().unwrap()];
    assert_eq!((mux_a.in_flight(), mux_b.in_flight()), (2, 1));
    assert_eq!(gauge.get(), 3, "two waiters on one channel plus one on the other");

    // A reply settles one waiter...
    server_b.send(&at_server[2]).unwrap();
    assert_eq!(on_b.join().unwrap().unwrap(), at_server[2]);
    assert_eq!(gauge.get(), 2);
    // ...and a channel's death settles all of its own, and only those.
    mux_a.shutdown();
    for caller in on_a {
        assert!(matches!(caller.join().unwrap(), Err(MuxError::Lost(_))));
    }
    assert_eq!(gauge.get(), 0);
    mux_b.shutdown();
    assert_eq!(gauge.get(), 0);
}
