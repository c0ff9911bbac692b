//! The bounded worker pool.
//!
//! N worker threads share **one** FIFO task queue behind a mutex. Every
//! task the ORB submits is a two-way that a server connection's reader
//! hands off (it runs one-ways itself), never one from a worker, so there
//! is no producer-local work for per-worker queues to keep warm: one queue
//! is the whole traffic pattern.
//!
//! Idle workers park on a stack, and a submission wakes the one that
//! parked last: its cache and its allocator arena are the warm ones, so a
//! load that one worker can carry stays on one worker instead of touring
//! all N (the ledger's closed-loop 1 MiB echo peaks at ~30 MiB resident
//! that way, against 39–56 MiB, depending on heap layout, when wake-ups
//! rotate through eight workers' arenas).
//!
//! The pool is *fixed size*: under overload the queue grows (until
//! admission control sheds) but the thread count does not — the property
//! the 10k-in-flight benchmark gates on.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};

use ohpc_telemetry::{Counter, Gauge, Registry};

use crate::{lock, Executor, Task};

struct Queue {
    tasks: VecDeque<Task>,
    /// Parked workers, the most recently parked last.
    idle: Vec<Thread>,
    shutdown: bool,
}

struct PoolInner {
    name: String,
    workers: usize,
    queue: Mutex<Queue>,
    tasks_total: Arc<Counter>,
    parks_total: Arc<Counter>,
    depth_gauge: Arc<Gauge>,
    parked_gauge: Arc<Gauge>,
}

impl PoolInner {
    fn submit(&self, task: Task) {
        self.tasks_total.inc();
        let mut q = lock(&self.queue);
        if q.shutdown {
            // A context shutting down races its last replies against the
            // pool teardown; run the straggler inline rather than leak it
            // (its admission permit must still be released).
            drop(q);
            task();
            return;
        }
        q.tasks.push_back(task);
        self.depth_gauge.add(1);
        let wake = q.idle.pop();
        drop(q);
        if let Some(worker) = wake {
            worker.unpark();
        }
    }

    fn run_worker(&self) {
        let me = std::thread::current();
        let mut q = lock(&self.queue);
        loop {
            if q.shutdown {
                return;
            }
            let Some(task) = q.tasks.pop_front() else {
                self.parks_total.inc();
                q.idle.push(me.clone());
                drop(q);
                self.parked_gauge.add(1);
                std::thread::park();
                self.parked_gauge.sub(1);
                q = lock(&self.queue);
                // `park` may return with no submission behind it; whoever
                // wakes a worker pops it first, so a handle still on the
                // stack is ours to take back.
                q.idle.retain(|t| t.id() != me.id());
                continue;
            };
            drop(q);
            self.depth_gauge.sub(1);
            // A panicking handler must not shrink the pool: the worker
            // counts it and moves on (the task's drop guards — permits,
            // spans — already ran during the unwind).
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
                Registry::global()
                    .counter("runtime_task_panics_total", &[("pool", &self.name)])
                    .inc();
            }
            q = lock(&self.queue);
        }
    }
}

/// The bounded executor: a fixed set of workers over one shared queue.
///
/// Construct with [`WorkerPool::new`] (or use the process-wide
/// [`shared_pool`]); wrap in an `Arc` and hand to
/// `Context::set_executor`. Explicit pools should be [`shutdown`]
/// (idempotent) when done — the shared pool lives for the process.
///
/// [`shutdown`]: WorkerPool::shutdown
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Pool named `name` (telemetry label) with `workers` threads
    /// (minimum 1).
    pub fn new(name: &str, workers: usize) -> Self {
        let workers = workers.max(1);
        let reg = Registry::global();
        let labels = [("pool", name)];
        let inner = Arc::new(PoolInner {
            name: name.to_string(),
            workers,
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                idle: Vec::with_capacity(workers),
                shutdown: false,
            }),
            tasks_total: reg.counter("runtime_tasks_total", &labels),
            parks_total: reg.counter("runtime_parks_total", &labels),
            depth_gauge: reg.gauge("runtime_queue_depth", &labels),
            parked_gauge: reg.gauge("runtime_workers_parked", &labels),
        });
        reg.gauge("runtime_workers", &labels).set(workers as i64);
        let mut handles = Vec::with_capacity(workers);
        for ix in 0..workers {
            let inner = inner.clone();
            let h = std::thread::Builder::new()
                .name(format!("ohpc-{name}-{ix}"))
                .spawn(move || inner.run_worker());
            if let Ok(h) = h {
                handles.push(h);
            }
        }
        Self { inner, handles: Mutex::new(handles) }
    }

    /// Tasks queued and not yet running.
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.queue).tasks.len()
    }

    /// Stops the workers and joins them. Tasks still queued are dropped
    /// (releasing their admission permits); tasks mid-execution finish.
    /// Idempotent.
    pub fn shutdown(&self) {
        let idle = {
            let mut q = lock(&self.inner.queue);
            if q.shutdown {
                return;
            }
            q.shutdown = true;
            std::mem::take(&mut q.idle)
        };
        for worker in idle {
            worker.unpark();
        }
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
        // Drop abandoned tasks outside the lock so their drop guards run
        // without holding it.
        let abandoned = std::mem::take(&mut lock(&self.inner.queue).tasks);
        self.inner.depth_gauge.sub(abandoned.len() as i64);
    }
}

impl Executor for WorkerPool {
    fn execute(&self, task: Task) {
        self.inner.submit(task);
    }

    fn name(&self) -> &'static str {
        "worker-pool"
    }

    fn worker_cap(&self) -> Option<usize> {
        Some(self.inner.workers)
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("name", &self.inner.name)
            .field("workers", &self.inner.workers)
            .field("queued", &self.queue_depth())
            .finish()
    }
}

/// Worker count for the shared pool: `4 × available_parallelism` clamped
/// to `[8, 64]` — request handlers block (they sleep, wait on locks, call
/// out), so the sweet spot is well above the core count but still bounded.
pub fn default_workers() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    (cores * 4).clamp(8, 64)
}

/// Tells the allocator, once per process, that freeing multi-megabyte
/// buffers is routine here, by reserving and releasing one untouched 16 MiB
/// block (two syscalls, no page touched).
///
/// A worker serving a bulk request holds two or three payload-sized buffers
/// (decoded arguments, reply body, reply frame) at the top of its malloc
/// arena and has freed them all before the next request. glibc hands an
/// arena's top back to the kernel whenever a free leaves it above the trim
/// threshold, which is twice the largest `mmap`ped block the process has
/// freed so far: about 2 MiB when payloads are 1 MiB, always less than what
/// the worker just freed. The next request then faults every page of every
/// buffer in again — ~770 faults, 1.2 ms of a 3 ms secure 1 MiB echo — unless
/// some small allocation happens to sit above the buffers and pin them, which
/// is heap-layout luck (the request path's small allocations used to supply
/// it; PR 19 removed most of them and the luck with them). Having freed a
/// 16 MiB block, glibc serves buffers up to that size from the arenas and
/// keeps up to 32 MiB of free top per arena, so bulk buffers are reused warm
/// whatever else the heap holds. Other allocators see an unused reservation.
fn expect_bulk_buffers() {
    let mut block = Vec::<u8>::new();
    // Best effort: a refused reservation changes nothing.
    let _ = block.try_reserve_exact(16 << 20);
    drop(std::hint::black_box(block));
}

/// The process-wide pool ORB contexts dispatch on by default. Sized once
/// (first use) from [`default_workers`]; never shut down.
pub fn shared_pool() -> Arc<WorkerPool> {
    static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            expect_bulk_buffers();
            Arc::new(WorkerPool::new("shared", default_workers()))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{mpsc, Condvar};
    use std::time::Duration;

    #[test]
    fn runs_all_tasks_within_the_worker_cap() {
        let pool = Arc::new(WorkerPool::new("t-cap", 4));
        let (tx, rx) = mpsc::channel();
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        const N: usize = 2000;
        for i in 0..N {
            let (tx, live, peak) = (tx.clone(), live.clone(), peak.clone());
            pool.execute(Box::new(move || {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                if i % 64 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                live.fetch_sub(1, Ordering::SeqCst);
                let _ = tx.send(std::thread::current().id());
            }));
        }
        drop(tx);
        let mut tids = HashSet::new();
        for _ in 0..N {
            tids.insert(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        assert!(tids.len() <= 4, "ran on {} threads, cap is 4", tids.len());
        assert!(peak.load(Ordering::SeqCst) <= 4, "concurrency exceeded the worker cap");
        pool.shutdown();
    }

    #[test]
    fn worker_submissions_hit_the_lifo_slot_and_still_complete() {
        let pool = Arc::new(WorkerPool::new("t-lifo", 2));
        let (tx, rx) = mpsc::channel();
        let p2 = pool.clone();
        pool.execute(Box::new(move || {
            // Submit from a worker thread: same queue as any other caller.
            for _ in 0..100 {
                let tx = tx.clone();
                p2.execute(Box::new(move || {
                    let _ = tx.send(());
                }));
            }
        }));
        for _ in 0..100 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn steals_spread_a_burst_across_workers() {
        // One worker submits the whole burst; the others must take from
        // the shared queue to finish it in reasonable time (sleeps
        // serialize to 400 ms on one thread but ~100 ms across four).
        let pool = Arc::new(WorkerPool::new("t-steal", 4));
        let (tx, rx) = mpsc::channel();
        let p2 = pool.clone();
        pool.execute(Box::new(move || {
            for _ in 0..80 {
                let tx = tx.clone();
                p2.execute(Box::new(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    let _ = tx.send(std::thread::current().id());
                }));
            }
        }));
        let mut tids = HashSet::new();
        for _ in 0..80 {
            tids.insert(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        assert!(tids.len() > 1, "the burst never spread: every task ran on one worker");
        pool.shutdown();
    }

    #[test]
    fn park_and_unpark_do_not_lose_wakeups() {
        let pool = Arc::new(WorkerPool::new("t-park", 2));
        // Repeated idle → submit cycles: each submission after an idle gap
        // must wake a parked worker.
        for round in 0..20 {
            std::thread::sleep(Duration::from_millis(2));
            let (tx, rx) = mpsc::channel();
            pool.execute(Box::new(move || {
                let _ = tx.send(round);
            }));
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), round);
        }
        pool.shutdown();
    }

    #[test]
    fn panicking_task_does_not_shrink_the_pool() {
        let pool = Arc::new(WorkerPool::new("t-panic", 1));
        pool.execute(Box::new(|| panic!("handler bug")));
        let (tx, rx) = mpsc::channel();
        pool.execute(Box::new(move || {
            let _ = tx.send(());
        }));
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the lone worker survived the panic");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drops_queued_tasks_and_runs_their_guards() {
        struct Bump(Arc<AtomicU64>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = Arc::new(WorkerPool::new("t-drop", 1));
        let dropped = Arc::new(AtomicU64::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = gate.clone();
        // Occupy the lone worker…
        pool.execute(Box::new(move || {
            let (m, cv) = &*g2;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }));
        // …and queue guarded tasks behind it.
        for _ in 0..5 {
            let b = Bump(dropped.clone());
            pool.execute(Box::new(move || {
                let _b = b;
            }));
        }
        {
            let (m, cv) = &*gate;
            *lock(m) = true;
            cv.notify_all();
        }
        pool.shutdown();
        assert_eq!(dropped.load(Ordering::SeqCst), 5, "queued tasks' guards must run");
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn post_shutdown_submission_runs_inline() {
        let pool = WorkerPool::new("t-late", 1);
        pool.shutdown();
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = ran.clone();
        pool.execute(Box::new(move || {
            r2.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_workers_is_bounded() {
        let n = default_workers();
        assert!((1..=1024).contains(&n));
    }
}
