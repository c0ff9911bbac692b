//! Probes: single layers timed on their own, beside the traced workload.
//!
//! Each gives a base the workload's segments are read against — what the
//! bare transport costs without the ORB on top, how fast the cipher and the
//! XDR array loop run, what one executor hand-off costs — or guards a path
//! none of the four workloads covers (Nexus, migration). A probe runs for
//! its share of the run's time and reports the median of its samples.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ohpc_crypto::chacha20_xor;
use ohpc_migrate::{Migratable, MigrationManager};
use ohpc_nexus::{HandlerId, NexusService, Startpoint};
use ohpc_orb::context::OrRow;
use ohpc_orb::skeleton::MethodError;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, Location, ProtoPool,
    ProtocolId, RemoteObject, TransportProto,
};
use ohpc_runtime::Executor;
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
use ohpc_transport::{Dialer, Listener};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};

use ledger::deploy::payload;
use ledger::driver::deploy_verified;
use ledger::spec::Workload;
use ledger::stats::Histogram;
use ledger::yardstick::Yardstick;

const MIB: f64 = (1u64 << 20) as f64;

/// Median, in ns, of `sample()` called repeatedly for `budget` after a
/// warm-up of a tenth of it. `sample` returns one measurement in ns.
fn median_ns(
    budget: Duration,
    mut sample: impl FnMut() -> Result<u64, String>,
) -> Result<f64, String> {
    let warm_until = Instant::now() + budget / 10;
    while Instant::now() < warm_until {
        sample()?;
    }
    let mut hist = Histogram::new();
    let until = Instant::now() + budget;
    while hist.count() < 3 || Instant::now() < until {
        hist.record(sample()?);
    }
    hist.quantile(0.5)
        .ok_or_else(|| "a probe took no sample".to_string())
}

/// Times one call of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// `Vec<i32>` of 262 144 elements into a fresh `XdrWriter`, MiB of XDR per second.
pub fn xdr_vec_encode_mib_per_s(budget: Duration) -> Result<f64, String> {
    let array = payload(1, 262_144);
    let ns = median_ns(budget, || {
        let (ns, w) = timed(|| {
            let mut w = XdrWriter::new();
            array.encode(&mut w);
            w
        });
        std::hint::black_box(w.len());
        Ok(ns)
    })?;
    Ok(ledger::spec::xdr_len(array.len()) as f64 / MIB / (ns / 1e9))
}

/// `chacha20_xor` over 1 MiB in place, MiB per second.
pub fn chacha20_mib_per_s(budget: Duration) -> Result<f64, String> {
    let mut data = vec![0x5au8; 1 << 20];
    let (key, nonce) = ([7u8; 32], [9u8; 12]);
    let ns = median_ns(budget, || {
        let (ns, ()) = timed(|| chacha20_xor(&key, &nonce, 0, &mut data));
        std::hint::black_box(data[0]);
        Ok(ns)
    })?;
    Ok(1.0 / (ns / 1e9))
}

/// A server object for the probes that need one: echoes, and carries its
/// call count as migratable state.
#[derive(Default)]
struct ProbeEcho {
    calls: AtomicU64,
}

impl RemoteObject for ProbeEcho {
    fn type_name(&self) -> &str {
        "ProbeEcho"
    }

    fn dispatch(
        &self,
        method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        if method != 1 {
            return Err(MethodError::NoSuchMethod(method));
        }
        let v = Vec::<i32>::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?;
        self.calls.fetch_add(1, Ordering::Relaxed);
        v.encode(out);
        Ok(())
    }
}

impl Migratable for ProbeEcho {
    fn serialize_state(&self) -> Bytes {
        Bytes::copy_from_slice(&self.calls.load(Ordering::Relaxed).to_be_bytes())
    }
}

fn context(id: u64) -> Context {
    Context::new(
        ContextId(id),
        Location::new(0, 0),
        Arc::new(CapabilityRegistry::new()),
    )
}

/// `GlobalPointer::select` — the full, uncached preference walk — over an
/// object reference of eight rows of which only the last is in the pool, µs.
pub fn select_walk_us(budget: Duration) -> Result<f64, String> {
    let ctx = context(90);
    let object = ctx.register(Arc::new(ProbeEcho::default()));
    let ids: Vec<ProtocolId> = (0..8).map(|i| ProtocolId(200 + i)).collect();
    for id in &ids {
        ctx.advertise(*id, format!("mem://{}", id.0));
    }
    let rows: Vec<OrRow> = ids.iter().map(|id| OrRow::Plain(*id)).collect();
    let or = ctx
        .make_or(object, &rows)
        .map_err(|e| format!("select probe: {e}"))?;
    let last = TransportProto::new(
        ids[7],
        ApplicabilityRule::Always,
        Arc::new(MemFabric::new()),
    );
    let gp = GlobalPointer::new(
        or,
        Arc::new(ProtoPool::new().with(Arc::new(last))),
        Location::new(0, 0),
    );
    let ns = median_ns(budget, || {
        let (ns, chosen) = timed(|| gp.select());
        match chosen {
            Ok(s) if s.index == 7 => Ok(ns),
            Ok(s) => Err(format!("select probe chose row {}", s.index)),
            Err(e) => Err(format!("select probe: {e}")),
        }
    })?;
    Ok(ns / 1e3)
}

/// Ping-pong of bare frames over one unsplit connection against an echo
/// thread: `request` bytes out, `reply` bytes back — the workload's own frame
/// sizes, with no ORB on either end. µs per round trip.
pub fn bare_rtt_us(
    budget: Duration,
    mut listener: Box<dyn Listener>,
    dialer: &dyn Dialer,
    request: usize,
    reply: usize,
) -> Result<f64, String> {
    let endpoint = listener.endpoint();
    let echo = std::thread::spawn(move || {
        let Ok(mut conn) = listener.accept() else {
            return;
        };
        let reply = vec![0xa5u8; reply];
        while conn.recv().is_ok() {
            if conn.send(&reply).is_err() {
                return;
            }
        }
    });
    let result = (|| {
        let mut conn = dialer
            .dial(&endpoint)
            .map_err(|e| format!("bare rtt: {e}"))?;
        let frame = vec![0x5au8; request];
        median_ns(budget, || {
            let (ns, got) = timed(|| conn.send(&frame).and_then(|()| conn.recv()));
            match got {
                Ok(f) if f.len() == reply => Ok(ns),
                Ok(f) => Err(format!("bare rtt: reply of {} bytes", f.len())),
                Err(e) => Err(format!("bare rtt: {e}")),
            }
        })
    })();
    // The connection is dropped by now, which ends the echo thread's loop.
    echo.join()
        .map_err(|_| "bare rtt: the echo thread panicked".to_string())?;
    result.map(|ns| ns / 1e3)
}

/// [`bare_rtt_us`] over the in-process fabric.
pub fn mem_bare_rtt_us(budget: Duration, request: usize, reply: usize) -> Result<f64, String> {
    let fabric = MemFabric::new();
    bare_rtt_us(budget, Box::new(fabric.listen()), &fabric, request, reply)
}

/// [`bare_rtt_us`] over TCP loopback.
pub fn tcp_bare_rtt_us(budget: Duration, request: usize, reply: usize) -> Result<f64, String> {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bare rtt: {e}"))?;
    bare_rtt_us(budget, Box::new(acceptor), &TcpDialer, request, reply)
}

/// The workload's yardstick on its own — the hand-written round trip the
/// end-to-end ratios are read against — as a mean, which is how a window
/// takes it, µs per round trip.
pub fn yardstick_rtt_us(wl: &Workload, budget: Duration) -> Result<f64, String> {
    let mut yardstick = Yardstick::for_workload(wl).map_err(|e| format!("yardstick: {e}"))?;
    let mut trip = || match yardstick.round_trip() {
        true => Ok(()),
        false => Err("yardstick: a round trip did not bring back what was sent".to_string()),
    };
    let warm_until = Instant::now() + budget / 10;
    while Instant::now() < warm_until {
        trip()?;
    }
    let (began, mut trips) = (Instant::now(), 0u64);
    while trips < 3 || began.elapsed() < budget {
        trip()?;
        trips += 1;
    }
    Ok(began.elapsed().as_secs_f64() * 1e6 / trips as f64)
}

/// From `execute` on the shared pool to the task's first instruction, µs.
pub fn pool_handoff_us(budget: Duration) -> Result<f64, String> {
    let pool = ohpc_runtime::shared_pool();
    let (tx, rx) = std::sync::mpsc::channel::<Instant>();
    let ns = median_ns(budget, || {
        let tx = tx.clone();
        let submitted = Instant::now();
        pool.execute(Box::new(move || {
            let _ = tx.send(Instant::now());
        }));
        let began = rx
            .recv()
            .map_err(|_| "pool probe: the task never ran".to_string())?;
        Ok(began.saturating_duration_since(submitted).as_nanos() as u64)
    })?;
    Ok(ns / 1e3)
}

/// `rsr_reply` of a `Vec<i32>` echo handler over TCP loopback — the
/// baseline path under `NexusProto` — for 5 and for 262 144 elements, µs.
pub fn nexus_rsr_rtt_us(budget: Duration) -> Result<(f64, f64), String> {
    const ECHO: HandlerId = HandlerId(1);
    let mut service = NexusService::new();
    service.register(ECHO, |args, out| {
        Vec::<i32>::decode(args)
            .map_err(|e| e.to_string())?
            .encode(out);
        Ok(())
    });
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("nexus probe: {e}"))?;
    let running = service.start(Box::new(acceptor));
    let startpoint = Startpoint::connect(&TcpDialer, &running.endpoint())
        .map_err(|e| format!("nexus probe: {e}"))?;
    let rtt = |ints: usize| {
        let array = payload(2, ints);
        let mut args = XdrWriter::new();
        array.encode(&mut args);
        median_ns(budget / 2, || {
            let (ns, reply) = timed(|| startpoint.rsr_reply(ECHO, &args));
            match reply {
                Ok(body) if body.len() == args.len() => Ok(ns),
                Ok(body) => Err(format!("nexus probe: reply of {} bytes", body.len())),
                Err(e) => Err(format!("nexus probe: {e}")),
            }
        })
    };
    let (small, bulk) = (rtt(5)?, rtt(262_144)?);
    drop(startpoint);
    drop(running); // stops the acceptor and joins it
    Ok((small / 1e3, bulk / 1e3))
}

/// Moves an object between two contexts and calls it through a pointer
/// still bound to the old home — tombstone, `Moved`, rebind, call — ms.
pub fn migrate_move_and_rebind_ms(budget: Duration) -> Result<f64, String> {
    let fabric = MemFabric::new();
    let homes = [context(91), context(92)];
    for home in &homes {
        home.serve(Box::new(fabric.listen()), ProtocolId::SHM);
    }
    let manager = MigrationManager::new();
    manager.register_factory("ProbeEcho", |state| {
        let calls = u64::from_be_bytes(state.try_into().map_err(|_| "bad state".to_string())?);
        Ok(Arc::new(ProbeEcho {
            calls: AtomicU64::new(calls),
        }))
    });
    let rows = [OrRow::Plain(ProtocolId::SHM)];
    let object = manager.register(&homes[0], Arc::new(ProbeEcho::default()));
    let or = homes[0]
        .make_or(object, &rows)
        .map_err(|e| format!("migrate probe: {e}"))?;
    let shm = TransportProto::new(
        ProtocolId::SHM,
        ApplicabilityRule::SameMachineOnly,
        Arc::new(fabric),
    );
    let gp = GlobalPointer::new(
        or,
        Arc::new(ProtoPool::new().with(Arc::new(shm))),
        Location::new(0, 0),
    );
    let array = payload(3, 5);
    let mut args = XdrWriter::new();
    array.encode(&mut args);
    let call = |gp: &GlobalPointer| -> Result<(), String> {
        let reply = gp
            .invoke(1, &args)
            .map_err(|e| format!("migrate probe: {e}"))?;
        if reply[..] == *args.peek() {
            Ok(())
        } else {
            Err("migrate probe: wrong reply".into())
        }
    };
    call(&gp)?;
    let mut at = 0;
    let ns = median_ns(budget, || {
        at = 1 - at;
        let forwards = gp.forwards_seen();
        let (ns, moved) = timed(|| {
            manager
                .migrate(object, &homes[at], &rows)
                .map_err(|e| format!("migrate probe: {e}"))?;
            call(&gp)
        });
        moved?;
        if gp.forwards_seen() != forwards + 1 {
            return Err("migrate probe: the call did not go through the tombstone".into());
        }
        Ok(ns)
    })?;
    for home in &homes {
        home.shutdown();
    }
    Ok(ns / 1e6)
}

/// Fresh deploy → first verified reply → shutdown, `cycles` times; the mean
/// of the best fifth, ms. Set-up as `setup_s` sees it, minus the warm-up,
/// resolved finer than one run's single deploy can be.
pub fn deploy_cycle_ms(wl: &Workload, cycles: usize) -> Result<f64, String> {
    let array = payload(4, wl.ints);
    let mut times = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let (ns, deployed) = timed(|| deploy_verified(wl, &array).map(|dep| dep.shutdown()));
        deployed?;
        times.push(ns as f64 / 1e6);
    }
    times.sort_by(f64::total_cmp);
    let best = &times[..(cycles / 5).max(1)];
    Ok(best.iter().sum::<f64>() / best.len() as f64)
}
