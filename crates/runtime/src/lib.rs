//! Bounded server runtime: pluggable executors and admission control.
//!
//! Spawning one OS thread per two-way request — the model of the 1999
//! paper — collapses under sustained load: 10k in-flight requests mean 10k
//! stacks and a scheduler meltdown, and the failure mode is timeout-late
//! instead of reject-early. This crate provides instead:
//!
//! * [`Executor`] — the dispatch strategy the ORB context hands request
//!   tasks to. [`WorkerPool`] implements it: a fixed pool of workers over
//!   one shared FIFO queue.
//! * [`AdmissionController`] — a queue-depth/in-flight bound applied at the
//!   transport→dispatch boundary. When the server is at capacity the
//!   request is shed in microseconds with a retryable `Overloaded` status
//!   instead of queueing until the client's deadline burns down.
//! * [`Rescue`] — the per-connection slot that lets a connection's reader
//!   run a request itself (every one-way, and a two-way when the server is
//!   quiet): a process-wide watcher takes the connection off a reader whose
//!   request blocks, and starts a fresh reader for it.
//!
//! Everything here is `std`-only and feeds `ohpc-telemetry` (queue-depth /
//! parked-worker gauges, park/shed counters), so overload is visible in
//! the same snapshot as the rest of the request path.

#![forbid(unsafe_code)]

mod admission;
mod pool;
mod rescue;

pub use admission::{AdmissionController, Permit, Shed, DEFAULT_QUEUE_BOUND};
pub use pool::{default_workers, shared_pool, WorkerPool};
pub use rescue::{rescuer_scans, Rescue};

/// A unit of work handed to an executor (one request dispatch).
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// A dispatch strategy: where request handlers run.
///
/// Implementations must never drop a submitted task silently while the
/// executor is live — admission control depends on every admitted task
/// eventually running (its permit is released by the task's drop).
pub trait Executor: Send + Sync {
    /// Runs (or queues) `task`.
    fn execute(&self, task: Task);

    /// Short label for telemetry and diagnostics.
    fn name(&self) -> &'static str;

    /// Upper bound on threads this executor will ever run tasks on, when
    /// one exists.
    fn worker_cap(&self) -> Option<usize> {
        None
    }
}

/// Recovers the guard from a poisoned mutex: a panicking request handler
/// must not wedge the whole runtime, and every structure here remains
/// consistent across a mid-critical-section unwind (counters are atomics,
/// queues are plain `VecDeque`s).
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
