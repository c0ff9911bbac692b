//! Wall-clock concurrent-clients benchmark: N client threads hammer one
//! endpoint over the multiplexed per-endpoint channel, and the result is
//! held against the bound any serialized wire (one lock held across every
//! exchange) obeys by arithmetic.
//!
//! The server sleeps a fixed per-request delay, so a wire either pipelines
//! N requests into that delay (mux) or pays it N times in a row — a
//! serialized wire can never exceed `1 / delay` requests per second however
//! many clients share it, which is exactly the contention the multiplexed
//! channel exists to remove. Unlike the simulator-driven figures, this
//! harness runs on real threads and real time: it exercises the production
//! demux path (leader reads, waiter table) end to end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ohpc_orb::context::OrRow;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, Location,
    MethodError, ProtoPool, ProtocolId, RemoteObject, TransportProto,
};
use ohpc_transport::mem::MemFabric;
use ohpc_xdr::{XdrReader, XdrWriter};

/// Method slot of [`SlowEcho::dispatch`]'s echo method.
pub const ECHO_METHOD: u32 = 1;

/// Concurrent clients per endpoint that `ohpc-bench mux` sweeps and
/// `tests/contention.rs` checks reply routing at.
pub const CLIENT_WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// An echo service that sleeps a fixed delay per request — the stand-in for
/// any server-side work during which a serialized wire sits idle.
pub struct SlowEcho {
    delay: Duration,
}

impl SlowEcho {
    /// Builds the service with the given per-request delay.
    pub fn new(delay: Duration) -> Self {
        Self { delay }
    }
}

impl RemoteObject for SlowEcho {
    fn type_name(&self) -> &str {
        "SlowEcho"
    }

    fn dispatch(
        &self,
        method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        match method {
            ECHO_METHOD => {
                let token = args.get_u64().map_err(|e| MethodError::BadArgs(e.to_string()))?;
                if !self.delay.is_zero() {
                    std::thread::sleep(self.delay);
                }
                out.put_u64(token);
                Ok(())
            }
            m => Err(MethodError::NoSuchMethod(m)),
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ContentionSample {
    /// Concurrent client threads.
    pub clients: usize,
    /// Total wall-clock time for all requests.
    pub elapsed: Duration,
    /// Aggregate requests per second.
    pub throughput_rps: f64,
}

impl ContentionSample {
    /// Throughput over [`serialized_bound_rps`]: how far past any
    /// one-exchange-at-a-time wire the channel got.
    pub fn speedup_over_serialized(&self, delay: Duration) -> f64 {
        self.throughput_rps / serialized_bound_rps(delay)
    }
}

/// The most requests per second a serialized wire can carry when the server
/// spends `delay` on each: exchanges cannot overlap, so `1 / delay`
/// whatever the client count.
pub fn serialized_bound_rps(delay: Duration) -> f64 {
    1.0 / delay.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Runs one configuration: `clients` threads sharing one [`GlobalPointer`]
/// to a single endpoint, each issuing `requests_per_client` echo calls
/// against a server that sleeps `delay` per request. Every reply is checked
/// against the unique token its request carried, so the measurement doubles
/// as a demux-routing correctness check.
pub fn run_contention(
    clients: usize,
    requests_per_client: usize,
    delay: Duration,
) -> ContentionSample {
    let fabric = MemFabric::new();
    let registry = Arc::new(CapabilityRegistry::new());
    let ctx = Context::new(ContextId(9_000), Location::new(0, 0), registry);
    ctx.serve(Box::new(fabric.listen_on(1)), ProtocolId::TCP);
    let object = ctx.register(Arc::new(SlowEcho::new(delay)));
    let or = match ctx.make_or(object, &[OrRow::Plain(ProtocolId::TCP)]) {
        Ok(or) => or,
        Err(e) => {
            // The context above always advertises TCP; surface loudly if not.
            panic!("contention harness cannot mint an OR: {e}");
        }
    };

    let proto = TransportProto::new(ProtocolId::TCP, ApplicabilityRule::Always, Arc::new(fabric));
    let pool = Arc::new(ProtoPool::new().with(Arc::new(proto)));
    let gp = Arc::new(GlobalPointer::new(or, pool, Location::new(1, 0)));

    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let gp = Arc::clone(&gp);
            std::thread::spawn(move || {
                for i in 0..requests_per_client {
                    let token = ((c as u64) << 32) | i as u64;
                    let mut args = XdrWriter::new();
                    args.put_u64(token);
                    let reply = match gp.invoke(ECHO_METHOD, &args) {
                        Ok(b) => b,
                        Err(e) => panic!("contention invoke failed: {e}"),
                    };
                    let echoed = XdrReader::new(&reply).get_u64().unwrap_or(u64::MAX);
                    assert_eq!(echoed, token, "reply routed to the wrong caller");
                }
            })
        })
        .collect();
    for w in workers {
        if w.join().is_err() {
            panic!("contention worker panicked");
        }
    }
    let elapsed = t0.elapsed();
    ctx.shutdown();

    let total = (clients * requests_per_client) as f64;
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    ContentionSample { clients, elapsed, throughput_rps: total / secs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_contention_run_round_trips() {
        let s = run_contention(2, 3, Duration::from_micros(200));
        assert_eq!(s.clients, 2);
        assert!(s.throughput_rps > 0.0);
    }
}
