//! Sustained-overload benchmark: 10k in-flight requests against the bounded
//! dispatch pool, with admission control on and off.
//!
//! One split mem connection carries every request: the driver stamps a send
//! time per request id, fires the whole burst down the wire without waiting,
//! and a reader thread collects replies (served or shed) as they land. That
//! shape reaches 10k *offered* concurrency without 10k client threads, so
//! the thread census below measures the server, not the harness.
//!
//! What `ohpc-bench overload` gates on ([`crate::gate::overload`]):
//!
//! * the process thread count stays near the worker cap however large the
//!   burst is — dispatch no longer spawns per request;
//! * with shedding on, p99 reply latency collapses: rejected requests come
//!   back in microseconds with a retryable [`ReplyStatus::Overloaded`]
//!   instead of queueing behind a quarter second of backlog.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ohpc_orb::context::OrRow;
use ohpc_orb::{
    CapabilityRegistry, Context, ContextId, Executor, Location, ProtocolId, ReplyMessage,
    ReplyStatus, RequestId, RequestMessage, WorkerPool,
};
use ohpc_transport::mem::MemFabric;
use ohpc_transport::{Dialer, Endpoint};
use ohpc_xdr::XdrWriter;

use crate::mux_contention::{SlowEcho, ECHO_METHOD};

/// One overload scenario.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Requests fired before any reply is awaited (offered concurrency).
    pub offered: usize,
    /// Pool worker threads.
    pub workers: usize,
    /// Admission bound; `None` disables shedding.
    pub admission_limit: Option<usize>,
    /// Server-side sleep per served request.
    pub delay: Duration,
}

/// Measured outcome of one scenario.
#[derive(Debug, Clone)]
pub struct OverloadSample {
    /// Replies with [`ReplyStatus::Ok`].
    pub served: usize,
    /// Replies with [`ReplyStatus::Overloaded`].
    pub shed: usize,
    /// Median reply latency over all replies, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile reply latency over all replies, milliseconds.
    pub p99_ms: f64,
    /// 99th-percentile latency over *served* replies only, milliseconds.
    pub served_p99_ms: f64,
    /// Peak `Threads:` from `/proc/self/status` during the burst (0 when
    /// the file is unavailable, i.e. off Linux).
    pub peak_threads: usize,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let ix = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[ix.min(sorted_ms.len() - 1)]
}

/// Current thread count of this process (Linux; 0 elsewhere).
pub fn current_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs one scenario and returns its measurements.
pub fn run_overload(cfg: &OverloadConfig) -> OverloadSample {
    let fabric = MemFabric::new();
    let registry = Arc::new(CapabilityRegistry::new());
    let ctx = Context::new(ContextId(9_100), Location::new(0, 0), registry);
    let pool = Arc::new(WorkerPool::new("overload-bench", cfg.workers));
    ctx.set_executor(pool.clone() as Arc<dyn Executor>);
    ctx.set_admission_limit(cfg.admission_limit);
    ctx.serve(Box::new(fabric.listen_on(1)), ProtocolId::TCP);
    let object = ctx.register(Arc::new(SlowEcho::new(cfg.delay)));
    // Minting an OR proves the endpoint is advertised; the raw-frame driver
    // below dials the fabric directly.
    ctx.make_or(object, &[OrRow::Plain(ProtocolId::TCP)])
        .expect("overload harness cannot mint an OR");

    let mut conn = match fabric.dial(&Endpoint::Mem(1)) {
        Ok(c) => c,
        Err(e) => panic!("overload harness cannot dial its own mem fabric: {e}"),
    };
    let (mut tx, mut rx) = conn.try_split().expect("mem connections split");

    // send_ns[i] = nanoseconds after t0 request i went on the wire; written
    // by the sender before the send, read by the reader after the matching
    // reply arrives, so the channel provides the happens-before edge.
    let send_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.offered).map(|_| AtomicU64::new(0)).collect());
    let t0 = Instant::now();

    // Thread-census sampler: max over 1 ms samples while the burst runs.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let census = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut peak = current_threads();
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(current_threads());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        })
    };

    let sender = {
        let send_ns = send_ns.clone();
        let offered = cfg.offered;
        std::thread::spawn(move || {
            for i in 0..offered {
                let mut body = XdrWriter::new();
                body.put_u64(i as u64);
                let frame = RequestMessage {
                    request_id: RequestId(i as u64),
                    object,
                    method: ECHO_METHOD,
                    oneway: false,
                    glue: None,
                    body: body.finish(),
                    trace: None,
                }
                .to_frame();
                send_ns[i].store(t0.elapsed().as_nanos() as u64, Ordering::Release);
                if tx.send(&frame).is_err() {
                    panic!("overload sender: wire closed mid-burst");
                }
            }
        })
    };

    let mut served = 0usize;
    let mut shed = 0usize;
    let mut lat_ms: Vec<f64> = Vec::with_capacity(cfg.offered);
    let mut served_ms: Vec<f64> = Vec::with_capacity(cfg.offered);
    for _ in 0..cfg.offered {
        let frame = match rx.recv() {
            Ok(f) => f,
            Err(e) => panic!("overload reader: wire closed before all replies: {e}"),
        };
        let reply = ReplyMessage::from_frame(&frame).expect("malformed reply frame");
        let rid = reply.request_id.0 as usize;
        let sent = send_ns[rid].load(Ordering::Acquire);
        let ms = (t0.elapsed().as_nanos() as u64).saturating_sub(sent) as f64 / 1e6;
        lat_ms.push(ms);
        match reply.status {
            ReplyStatus::Ok => {
                served += 1;
                served_ms.push(ms);
            }
            ReplyStatus::Overloaded(_) => shed += 1,
            other => panic!("unexpected reply status under overload: {other:?}"),
        }
    }
    sender.join().expect("sender panicked");
    stop.store(true, Ordering::Relaxed);
    let peak_threads = census.join().expect("census panicked");

    ctx.shutdown();
    pool.shutdown();

    lat_ms.sort_by(|a, b| a.total_cmp(b));
    served_ms.sort_by(|a, b| a.total_cmp(b));
    OverloadSample {
        served,
        shed,
        p50_ms: percentile(&lat_ms, 0.50),
        p99_ms: percentile(&lat_ms, 0.99),
        served_p99_ms: percentile(&served_ms, 0.99),
        peak_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_burst_all_served_when_unbounded() {
        let s = run_overload(&OverloadConfig {
            offered: 64,
            workers: 4,
            admission_limit: None,
            delay: Duration::ZERO,
        });
        assert_eq!(s.served, 64, "{s:?}");
        assert_eq!(s.shed, 0, "{s:?}");
    }

    #[test]
    fn tight_bound_sheds_with_overloaded_status() {
        let s = run_overload(&OverloadConfig {
            offered: 512,
            workers: 2,
            admission_limit: Some(8),
            delay: Duration::from_millis(2),
        });
        assert!(s.shed > 0, "a 512 burst over an 8-slot bound must shed: {s:?}");
        assert_eq!(s.served + s.shed, 512, "{s:?}");
    }
}
