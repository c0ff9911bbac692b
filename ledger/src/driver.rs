//! The closed measurement loop.
//!
//! Each client thread calls, waits for its reply, checks it, and calls
//! again — a closed loop, as an HPC stub behaves: a slower system receives
//! less load. After a fixed warm-up the measured phase is cut into equal
//! wall-clock windows; every completed timed unit lands in the window it
//! finished in, in a pre-sized histogram, so the loop itself never touches
//! the heap. The calling thread sleeps through both phases and wakes only at
//! their edges to read the process-wide counters.
//!
//! A plan with a [`Cycle`] interleaves the workload with the yardstick
//! (`crate::yardstick`): time is cut into cycles, the clients run the
//! workload through the first part of each and the first client runs
//! yardstick round trips through the rest, the others asleep. Both land in
//! the same windows, so a window holds the workload's figures and the
//! yardstick's from the same instants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ohpc_xdr::{XdrEncode, XdrWriter};

use crate::alloc::{self, Counts};
use crate::deploy::{deploy, Deployment, ECHO_SLOT};
use crate::spec::Workload;
use crate::stats::Histogram;
use crate::sys::{self, Usage};
use crate::yardstick::Yardstick;

/// One turn of workload and yardstick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cycle {
    /// The clients run the workload for this long,
    pub work: Duration,
    /// then the first client runs yardstick round trips for this long.
    pub yardstick: Duration,
}

impl Cycle {
    /// Five cycles a second, a quarter of each the yardstick's: short enough
    /// that what disturbs one part disturbs the other, long enough that the
    /// slowest workload completes eight units in a part.
    pub const STANDARD: Cycle = Cycle {
        work: Duration::from_millis(150),
        yardstick: Duration::from_millis(50),
    };

    fn total(&self) -> Duration {
        self.work + self.yardstick
    }
}

/// How long to warm up and how to cut the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Unmeasured lead-in: connections dial, pools spin up, caches fill.
    pub warmup: Duration,
    /// Number of measured windows.
    pub windows: usize,
    /// Length of each.
    pub window: Duration,
    /// Interleave the yardstick, cycles counted from the start of the
    /// warm-up. `None`: the workload runs alone.
    pub cycle: Option<Cycle>,
}

impl Plan {
    /// The standard shape for a measured phase of `seconds`: `windows` equal
    /// windows after a warm-up of a tenth of it, capped at 3 s, the workload
    /// alone. At the benchmark's 30 s that is 3.0 s of warm-up and 15
    /// windows of 2.0 s.
    pub fn new(seconds: f64, windows: usize) -> Plan {
        Plan {
            warmup: Duration::from_secs_f64((seconds / 10.0).min(3.0)),
            windows,
            window: Duration::from_secs_f64(seconds / windows as f64),
            cycle: None,
        }
    }

    /// The same plan with the yardstick interleaved.
    pub fn with_yardstick(self) -> Plan {
        Plan {
            cycle: Some(Cycle::STANDARD),
            ..self
        }
    }

    fn measured(&self) -> Duration {
        self.window * self.windows as u32
    }
}

/// What one timed unit did: invocations that completed and were verified,
/// and invocations that failed (error, wrong reply, one-way lost or shed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitOutcome {
    /// Verified invocations.
    pub ok: u64,
    /// Failed invocations.
    pub failed: u64,
}

/// A timed unit's verdict: what a unit returns to the loop.
pub type UnitResult = (UnitOutcome, Option<String>);

/// Collects the failures of one timed unit of `ops` invocations.
pub struct UnitTally {
    ops: u64,
    failed: u64,
    error: Option<String>,
}

impl UnitTally {
    /// A unit of `ops` invocations, none failed yet.
    pub fn new(ops: u64) -> UnitTally {
        UnitTally {
            ops,
            failed: 0,
            error: None,
        }
    }

    /// Counts `count` failed invocations; the first failure's description is kept.
    pub fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        self.error.get_or_insert_with(why);
    }

    /// Checks what `served()` returned against the one-ways `sent` so far:
    /// fewer means one-ways were lost or shed, or the barrier that orders them
    /// before a later two-way let the reply overtake them. Each loss is
    /// counted once: `sent` is brought back in step.
    pub fn check_served(&mut self, served: u64, sent: &mut u64) {
        if served != *sent {
            self.fail(sent.abs_diff(served), || {
                format!("served() = {served}, {sent} one-ways were sent")
            });
            *sent = served;
        }
    }

    /// The unit's outcome: every invocation either verified or failed.
    pub fn finish(self) -> UnitResult {
        let failed = self.failed.min(self.ops);
        (
            UnitOutcome {
                ok: self.ops - failed,
                failed,
            },
            self.error,
        )
    }
}

/// One measured window, all clients merged.
#[derive(Debug, Clone, Copy)]
pub struct WindowStat {
    /// Verified invocations completed in the window.
    pub ops: u64,
    /// Invocations per second of the time the clients spent in timed units:
    /// each client's invocations over its own busy time, summed. Without a
    /// yardstick that is `ops` over the window's length, near enough.
    pub ops_per_s: f64,
    /// Yardstick round trips completed in the window, and the time they took.
    pub yardstick_trips: u64,
    /// See `yardstick_trips`.
    pub yardstick_ns: u64,
    /// Timed units (latency samples) in the window.
    pub samples: u64,
    /// Percentiles of the timed unit's latency, ns. `None` for an empty window.
    pub p50_ns: Option<f64>,
    /// See `p50_ns`.
    pub p90_ns: Option<f64>,
    /// See `p50_ns`.
    pub p99_ns: Option<f64>,
    /// Slowest unit in the window, ns.
    pub max_ns: u64,
    /// Samples slower than the reported p90.
    pub beyond_p90: u64,
}

impl WindowStat {
    /// Mean yardstick round trip in the window, ns. `None` when none was made.
    pub fn yardstick_mean_ns(&self) -> Option<f64> {
        (self.yardstick_trips > 0).then(|| self.yardstick_ns as f64 / self.yardstick_trips as f64)
    }
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The plan that was run.
    pub plan: Plan,
    /// When the measured phase began.
    pub measure_start: Instant,
    /// Per-window results, in time order.
    pub windows: Vec<WindowStat>,
    /// Invocations begun in the measured phase.
    pub attempted: u64,
    /// Those of them that failed.
    pub failed: u64,
    /// The first failure's description, if any.
    pub first_error: Option<String>,
    /// Yardstick round trips that did not bring back what was sent.
    pub yardstick_failed: u64,
    /// Invocations completed between the two counter readings below.
    pub accounted_ops: u64,
    /// Wall-clock time between the two readings.
    pub accounted_time: Duration,
    /// Heap allocations by all threads between the readings.
    pub alloc: Counts,
    /// CPU time and context switches between the readings.
    pub usage: Usage,
    /// Invocations completed since the clients started, warm-up included.
    pub ops_since_start: u64,
    /// Threads alive at the end of the measured phase.
    pub threads: u64,
    /// `VmHWM` at the end of the measured phase, MiB.
    pub peak_rss_mib: f64,
}

#[repr(align(64))]
#[derive(Default)]
struct Progress {
    /// Invocations this client has completed; it is the only writer.
    ops: AtomicU64,
}

struct ClientResult {
    hists: Vec<Histogram>,
    window_ops: Vec<u64>,
    /// Time inside timed units that finished in each window, ns.
    window_busy_ns: Vec<u64>,
    yardstick_trips: Vec<u64>,
    yardstick_ns: Vec<u64>,
    yardstick_failed: u64,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// Runs `clients` closed loops of the timed unit `make_unit(i)` builds for
/// client `i`, under `plan`. A unit returns its outcome and, on failure, a
/// description. Under a plan with a cycle, the first client runs `yardstick`
/// through the yardstick's part of each cycle.
pub fn run_closed_loop<F, U>(
    plan: Plan,
    clients: usize,
    yardstick: Option<Yardstick>,
    make_unit: F,
) -> Outcome
where
    F: Fn(usize) -> U + Sync,
    U: FnMut() -> UnitResult,
{
    let progress: Vec<Progress> = (0..clients).map(|_| Progress::default()).collect();
    let done = |p: &[Progress]| p.iter().map(|c| c.ops.load(Ordering::Relaxed)).sum::<u64>();
    let start = Instant::now();
    let t0 = start + plan.warmup;
    let t_end = t0 + plan.measured();

    let mut yardstick = yardstick;
    std::thread::scope(|scope| {
        let handles: Vec<_> = progress
            .iter()
            .enumerate()
            .map(|(i, mine)| {
                let make_unit = &make_unit;
                let yardstick = yardstick.take(); // the first client's
                scope.spawn(move || client_loop(make_unit(i), yardstick, plan, start, mine))
            })
            .collect();

        // Read the counters at the edges of the measured phase; the loops
        // run undisturbed in between.
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let (ops0, alloc0, usage0, at0) = (
            done(&progress),
            alloc::process_counts(),
            Usage::now(),
            Instant::now(),
        );
        std::thread::sleep(t_end.saturating_duration_since(Instant::now()));
        let (ops1, alloc1, usage1, at1) = (
            done(&progress),
            alloc::process_counts(),
            Usage::now(),
            Instant::now(),
        );
        let threads = sys::thread_count().unwrap_or(0);
        let peak_rss_mib = sys::peak_rss_mib().unwrap_or(f64::NAN);

        let results: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();

        let windows = (0..plan.windows)
            .map(|w| {
                let mut merged = Histogram::new();
                for r in &results {
                    merged.merge(&r.hists[w]);
                }
                WindowStat {
                    ops: results.iter().map(|r| r.window_ops[w]).sum(),
                    ops_per_s: results
                        .iter()
                        .filter(|r| r.window_busy_ns[w] > 0)
                        .map(|r| r.window_ops[w] as f64 * 1e9 / r.window_busy_ns[w] as f64)
                        .sum(),
                    yardstick_trips: results.iter().map(|r| r.yardstick_trips[w]).sum(),
                    yardstick_ns: results.iter().map(|r| r.yardstick_ns[w]).sum(),
                    samples: merged.count(),
                    p50_ns: merged.quantile(0.5),
                    p90_ns: merged.quantile(0.9),
                    p99_ns: merged.quantile(0.99),
                    max_ns: merged.max(),
                    beyond_p90: if merged.count() == 0 {
                        0
                    } else {
                        merged.samples_beyond(0.9)
                    },
                }
            })
            .collect();

        Outcome {
            plan,
            measure_start: t0,
            windows,
            attempted: results.iter().map(|r| r.attempted).sum(),
            failed: results.iter().map(|r| r.failed).sum(),
            first_error: results.iter().find_map(|r| r.first_error.clone()),
            yardstick_failed: results.iter().map(|r| r.yardstick_failed).sum(),
            accounted_ops: ops1 - ops0,
            accounted_time: at1 - at0,
            alloc: alloc1.since(alloc0),
            usage: usage1.since(usage0),
            ops_since_start: done(&progress),
            threads,
            peak_rss_mib,
        }
    })
}

fn client_loop<U>(
    mut unit: U,
    mut yardstick: Option<Yardstick>,
    plan: Plan,
    start: Instant,
    mine: &Progress,
) -> ClientResult
where
    U: FnMut() -> UnitResult,
{
    // All of this client's memory is taken here, during warm-up's first
    // instants; the loop below allocates nothing of its own.
    let mut result = ClientResult {
        hists: (0..plan.windows).map(|_| Histogram::new()).collect(),
        window_ops: vec![0; plan.windows],
        window_busy_ns: vec![0; plan.windows],
        yardstick_trips: vec![0; plan.windows],
        yardstick_ns: vec![0; plan.windows],
        yardstick_failed: 0,
        attempted: 0,
        failed: 0,
        first_error: None,
    };
    let t0 = start + plan.warmup;
    let t_end = t0 + plan.measured();
    let window_ns = plan.window.as_nanos().max(1);
    let window_of = |end: Instant| ((end - t0).as_nanos() / window_ns) as usize;
    let mut completed = 0u64;
    loop {
        let begin = Instant::now();
        if begin >= t_end {
            return result;
        }
        if let Some(cycle) = plan.cycle {
            let into = (begin - start).as_nanos() % cycle.total().as_nanos();
            if into >= cycle.work.as_nanos() {
                // The yardstick's part of the cycle.
                let Some(yardstick) = yardstick.as_mut() else {
                    let left = cycle.total().as_nanos() - into;
                    std::thread::sleep(Duration::from_nanos(left as u64));
                    continue;
                };
                let came_back = yardstick.round_trip();
                let end = Instant::now();
                if begin >= t0 {
                    result.yardstick_failed += u64::from(!came_back);
                    let window = window_of(end);
                    if came_back && window < plan.windows {
                        result.yardstick_trips[window] += 1;
                        result.yardstick_ns[window] += (end - begin).as_nanos() as u64;
                    }
                }
                continue;
            }
        }
        let (outcome, error) = unit();
        let end = Instant::now();
        completed += outcome.ok;
        mine.ops.store(completed, Ordering::Relaxed);
        if begin < t0 {
            continue; // warm-up
        }
        result.attempted += outcome.ok + outcome.failed;
        result.failed += outcome.failed;
        if outcome.failed > 0 {
            // A failed unit misses every latency: it enters no window.
            if result.first_error.is_none() {
                result.first_error = error;
            }
            continue;
        }
        let window = window_of(end);
        if window < plan.windows {
            let took = (end - begin).as_nanos() as u64;
            result.hists[window].record(took);
            result.window_ops[window] += outcome.ok;
            result.window_busy_ns[window] += took;
        }
    }
}

/// Runs workload `wl` over `dep` with the echoed array `payload` (a `Vec`:
/// the XDR traits are implemented for `Vec<i32>`, not for slices), beside
/// `wl`'s yardstick if `plan` has a cycle.
#[allow(clippy::ptr_arg)]
pub fn run_workload(
    dep: &Deployment,
    wl: &Workload,
    payload: &Vec<i32>,
    plan: Plan,
) -> Result<Outcome, String> {
    let yardstick = match plan.cycle {
        Some(_) => Some(Yardstick::for_workload(wl).map_err(|e| format!("yardstick: {e}"))?),
        None => None,
    };
    Ok(run_closed_loop(plan, wl.clients, yardstick, |_client| {
        // One-ways this client has sent that the server must have counted.
        let mut sent = 0u64;
        move || {
            if wl.oneways_per_batch == 0 {
                echo_unit(dep, payload)
            } else {
                oneway_batch_unit(dep, payload, wl.oneways_per_batch as u64, &mut sent)
            }
        }
    }))
}

/// Deploys `wl` and makes the first call — which dials — checking its reply.
#[allow(clippy::ptr_arg)]
pub fn deploy_verified(wl: &Workload, payload: &Vec<i32>) -> Result<Deployment, String> {
    let dep = deploy(wl)?;
    match echo_unit(&dep, payload) {
        (UnitOutcome { failed: 0, .. }, _) => Ok(dep),
        (_, error) => Err(error.unwrap_or_else(|| "the first call failed".into())),
    }
}

/// One two-way `echo` through the typed stub, its reply compared with what
/// was sent. The stub takes its argument by value, so each call costs the
/// harness one `Vec` clone: one allocation of the payload's size per op,
/// the only one the harness adds to `allocs_per_op`.
#[allow(clippy::ptr_arg)]
pub fn echo_unit(dep: &Deployment, payload: &Vec<i32>) -> UnitResult {
    let mut tally = UnitTally::new(1);
    match dep.client.echo(payload.clone()) {
        Ok(reply) if reply == *payload => {}
        Ok(_) => tally.fail(1, || "echo returned a different array".into()),
        Err(e) => tally.fail(1, || format!("echo failed: {e}")),
    }
    tally.finish()
}

/// `n` one-way `echo`es, marshalled per call as a stub would, then one
/// two-way `served()`, which must report exactly the one-ways sent so far.
#[allow(clippy::ptr_arg)]
fn oneway_batch_unit(dep: &Deployment, payload: &Vec<i32>, n: u64, sent: &mut u64) -> UnitResult {
    let mut tally = UnitTally::new(n + 1);
    for _ in 0..n {
        let mut args = XdrWriter::new();
        payload.encode(&mut args);
        match dep.client.gp().invoke_oneway(ECHO_SLOT, &args) {
            Ok(()) => *sent += 1,
            Err(e) => tally.fail(1, || format!("one-way echo not sent: {e}")),
        }
    }
    match dep.client.served() {
        Ok(served) => tally.check_served(served, sent),
        Err(e) => tally.fail(1, || format!("served() failed: {e}")),
    }
    tally.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::payload;
    use crate::spec::workload;

    fn quick() -> Plan {
        Plan {
            warmup: Duration::from_millis(20),
            windows: 5,
            window: Duration::from_millis(20),
            cycle: None,
        }
    }

    #[test]
    fn empty_measured_loop_reports_zero_allocations() {
        // The harness's own loop — clock reads, histogram, counters — with a
        // unit that does nothing. Other tests allocate concurrently on other
        // threads, so the claim is checked on the client thread's own count.
        let client_allocs = AtomicU64::new(u64::MAX);
        let out = run_closed_loop(quick(), 1, None, |_| {
            let mut before = None;
            let client_allocs = &client_allocs;
            move || {
                let now = alloc::thread_allocs();
                let first = *before.get_or_insert(now);
                client_allocs.store(now - first, Ordering::Relaxed);
                (UnitOutcome { ok: 1, failed: 0 }, None)
            }
        });
        assert!(
            out.attempted > 1000,
            "the loop barely ran: {}",
            out.attempted
        );
        assert_eq!(out.failed, 0);
        assert_eq!(client_allocs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn units_land_in_the_window_they_finish_in() {
        let out = run_closed_loop(quick(), 2, None, |_| {
            || {
                std::thread::sleep(Duration::from_millis(1));
                (UnitOutcome { ok: 1, failed: 0 }, None)
            }
        });
        assert_eq!(out.windows.len(), 5);
        let in_windows: u64 = out.windows.iter().map(|w| w.ops).sum();
        assert!(in_windows > 0 && in_windows <= out.attempted);
        for w in &out.windows {
            assert_eq!(w.ops, w.samples);
            assert!(w.samples > 0, "a 20 ms window holds several 1 ms units");
            assert!(w.p50_ns.is_some_and(|p| p >= 1e6));
            assert!(w.max_ns as f64 >= w.p99_ns.unwrap_or(0.0) * 0.99);
        }
        assert!(out.accounted_ops > 0 && out.ops_since_start >= out.accounted_ops);
        assert!(out.threads >= 3);
    }

    #[test]
    fn a_cycle_puts_workload_and_yardstick_in_the_same_windows() {
        let plan = Plan {
            cycle: Some(Cycle {
                work: Duration::from_millis(3),
                yardstick: Duration::from_millis(2),
            }),
            ..quick()
        };
        let wl = workload("glue_tcp_small_2c").expect("workload");
        let dep = deploy(wl).expect("deploy");
        let data = payload(13, wl.ints);
        let out = run_workload(&dep, wl, &data, plan).expect("run");
        dep.shutdown();
        assert_eq!((out.failed, out.yardstick_failed), (0, 0));
        for w in &out.windows {
            assert!(w.ops > 0 && w.yardstick_trips > 0, "{w:?}");
            assert!(w.yardstick_ns > 0 && w.ops_per_s > 0.0, "{w:?}");
        }
        // Without a cycle nothing is measured beside the workload.
        let alone = run_closed_loop(quick(), 1, None, |_| {
            || (UnitOutcome { ok: 1, failed: 0 }, None)
        });
        assert!(alone.windows.iter().all(|w| w.yardstick_trips == 0));
    }

    #[test]
    fn failed_units_are_counted_and_enter_no_window() {
        let out = run_closed_loop(quick(), 1, None, |_| {
            let mut n = 0u64;
            move || {
                n += 1;
                std::thread::sleep(Duration::from_micros(200));
                if n.is_multiple_of(2) {
                    (
                        UnitOutcome { ok: 0, failed: 1 },
                        Some("every other unit fails".into()),
                    )
                } else {
                    (UnitOutcome { ok: 1, failed: 0 }, None)
                }
            }
        });
        assert!(out.failed > 0 && out.failed < out.attempted);
        assert_eq!(out.first_error.as_deref(), Some("every other unit fails"));
        let in_windows: u64 = out.windows.iter().map(|w| w.ops).sum();
        assert!(in_windows <= out.attempted - out.failed);
    }

    #[test]
    fn a_tally_counts_each_loss_once_and_never_more_than_the_unit() {
        let mut sent = 126;
        let mut tally = UnitTally::new(64);
        tally.check_served(126, &mut sent);
        assert_eq!(tally.finish(), (UnitOutcome { ok: 64, failed: 0 }, None));

        let mut tally = UnitTally::new(64);
        tally.fail(1, || "one-way echo not sent".into());
        tally.check_served(123, &mut sent);
        let (outcome, error) = tally.finish();
        assert_eq!(outcome, UnitOutcome { ok: 60, failed: 4 });
        assert_eq!(error.as_deref(), Some("one-way echo not sent"));
        assert_eq!(sent, 123, "the count is back in step");

        let mut tally = UnitTally::new(1);
        tally.fail(5, || "worse than the unit is long".into());
        assert_eq!(tally.finish().0, UnitOutcome { ok: 0, failed: 1 });
    }

    #[test]
    fn oneway_batches_are_fully_served() {
        let wl = workload("oneway_stream").expect("workload");
        let dep = deploy(wl).expect("deploy");
        let data = payload(11, wl.ints);
        let out = run_workload(&dep, wl, &data, quick()).expect("run");
        dep.shutdown();
        assert_eq!(out.failed, 0, "{:?}", out.first_error);
        assert!(
            out.attempted >= 64 && out.attempted.is_multiple_of(64),
            "{}",
            out.attempted
        );
    }

    #[test]
    fn two_clients_share_one_deployment() {
        let wl = workload("glue_tcp_small_2c").expect("workload");
        let dep = deploy(wl).expect("deploy");
        let data = payload(12, wl.ints);
        let out = run_workload(&dep, wl, &data, quick()).expect("run");
        assert_eq!(out.failed, 0, "{:?}", out.first_error);
        // Each op costs the harness exactly one allocation (the argument
        // clone); the program's own come on top.
        assert!(out.alloc.allocs >= out.accounted_ops);
        assert_eq!(dep.client.served().expect("served"), out.ops_since_start);
        dep.shutdown();
    }
}
