//! Per-connection FIFO lane over any executor.
//!
//! One-way requests used to run inline on the connection's reader thread: that
//! preserved ordering but let one slow capability chain starve the whole
//! connection (no later frame — including two-ways for *other* objects —
//! could even be read). A [`SerialQueue`] moves them onto the executor
//! while keeping two guarantees:
//!
//! * **FIFO**: queued tasks execute strictly in enqueue order, one at a
//!   time (a single logical runner, whoever's thread it borrows).
//! * **Barrier**: [`wait_for(mark)`](SerialQueue::wait_for) blocks until
//!   every task enqueued before `mark` has finished — and *helps* run them
//!   if the runner hasn't been scheduled yet, so a saturated pool cannot
//!   deadlock a waiter against its own queue.
//!
//! The ORB uses the barrier to keep the documented cross-ordering promise:
//! a two-way reply is never sent before the one-ways read earlier on the
//! same connection have been dispatched.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ohpc_telemetry::Registry;

use crate::{lock, Executor, Task};

struct SerialState {
    queue: VecDeque<Task>,
    /// A task is mid-execution (on the runner or a helper).
    running: bool,
    /// A drain task has been handed to the executor and has not retired.
    scheduled: bool,
    /// Tasks ever enqueued.
    enqueued: u64,
    /// Tasks finished executing.
    completed: u64,
}

struct SerialInner {
    state: Mutex<SerialState>,
    cv: Condvar,
}

/// Finishes the bookkeeping of the task [`SerialInner::run_one`] claimed,
/// whether the task returned or unwound: a panicking task must not leave
/// `running` set, or every later task and barrier on the lane waits for
/// ever.
struct Finish<'a>(&'a SerialInner);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.running = false;
        st.completed += 1;
        self.0.cv.notify_all();
    }
}

impl SerialInner {
    /// Claims runnership and executes exactly one queued task, if any.
    /// Returns whether a task ran. A task that panics still counts as
    /// completed; the panic goes on to the caller.
    fn run_one(&self) -> bool {
        let task = {
            let mut st = lock(&self.state);
            if st.running {
                return false;
            }
            match st.queue.pop_front() {
                None => return false,
                Some(t) => {
                    st.running = true;
                    t
                }
            }
        };
        let _finish = Finish(self);
        task();
        true
    }

    /// The scheduled drain loop: runs queued tasks until the queue is
    /// empty and nothing is mid-execution, then retires. A panicking task
    /// is counted and the loop goes on, since while it is scheduled no
    /// other drain is.
    fn drain(&self) {
        loop {
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_one()))
                .unwrap_or_else(|_| {
                    Registry::global().counter("runtime_lane_panics_total", &[]).inc();
                    true
                });
            if ran {
                continue;
            }
            let mut st = lock(&self.state);
            if st.queue.is_empty() && !st.running {
                // Retire under the lock: a racing enqueue either saw
                // `scheduled` still true (and left draining to us — but we
                // are exiting) or runs after this store and schedules a
                // fresh drain. Re-checking emptiness under the same lock
                // closes the gap.
                st.scheduled = false;
                if st.queue.is_empty() {
                    return;
                }
                st.scheduled = true;
                continue;
            }
            // A helper owns the current task; wait for it to finish.
            let (g, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            drop(g);
        }
    }
}

/// A FIFO task lane multiplexed onto an [`Executor`]. Cheap to clone.
#[derive(Clone)]
pub struct SerialQueue {
    inner: Arc<SerialInner>,
    exec: Arc<dyn Executor>,
}

impl SerialQueue {
    /// Lane running its tasks on `exec`.
    pub fn new(exec: Arc<dyn Executor>) -> Self {
        Self {
            inner: Arc::new(SerialInner {
                state: Mutex::new(SerialState {
                    queue: VecDeque::new(),
                    running: false,
                    scheduled: false,
                    enqueued: 0,
                    completed: 0,
                }),
                cv: Condvar::new(),
            }),
            exec,
        }
    }

    /// Appends `task`; it will run after every previously enqueued task.
    /// Returns the task's mark (see [`wait_for`](Self::wait_for)).
    pub fn enqueue(&self, task: Task) -> u64 {
        let (mark, need_runner) = {
            let mut st = lock(&self.inner.state);
            st.queue.push_back(task);
            st.enqueued += 1;
            let need = !st.scheduled;
            st.scheduled = true;
            (st.enqueued, need)
        };
        if need_runner {
            let inner = self.inner.clone();
            self.exec.execute(Box::new(move || inner.drain()));
        }
        mark
    }

    /// Count of tasks ever enqueued — capture before submitting dependent
    /// work, then [`wait_for`](Self::wait_for) it.
    pub fn mark(&self) -> u64 {
        lock(&self.inner.state).enqueued
    }

    /// Count of tasks that have finished executing.
    pub fn completed(&self) -> u64 {
        lock(&self.inner.state).completed
    }

    /// Whether every task ever enqueued has finished: nothing is queued and
    /// nothing is running.
    pub fn idle(&self) -> bool {
        let st = lock(&self.inner.state);
        st.completed == st.enqueued
    }

    /// Blocks until the first `mark` enqueued tasks have completed,
    /// running them on the calling thread when the scheduled runner has
    /// not started (pool saturated) — progress never depends on a free
    /// worker.
    pub fn wait_for(&self, mark: u64) {
        loop {
            {
                let st = lock(&self.inner.state);
                if st.completed >= mark {
                    return;
                }
            }
            if self.inner.run_one() {
                continue;
            }
            // A task is mid-execution elsewhere (or just retired between
            // our checks); sleep briefly on the completion condvar.
            let st = lock(&self.inner.state);
            if st.completed >= mark {
                return;
            }
            let (g, _) = self
                .inner
                .cv
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            drop(g);
        }
    }
}

impl std::fmt::Debug for SerialQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.inner.state);
        f.debug_struct("SerialQueue")
            .field("queued", &st.queue.len())
            .field("enqueued", &st.enqueued)
            .field("completed", &st.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InlineExecutor, WorkerPool};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn fifo_order_is_strict_on_a_pool() {
        let pool = Arc::new(WorkerPool::new("t-serial", 4));
        let q = SerialQueue::new(pool.clone());
        let order = Arc::new(StdMutex::new(Vec::new()));
        const N: u64 = 500;
        for i in 0..N {
            let order = order.clone();
            q.enqueue(Box::new(move || {
                lock(&order).push(i);
            }));
        }
        q.wait_for(N);
        let got = lock(&order).clone();
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "serial lane must preserve enqueue order");
        pool.shutdown();
    }

    #[test]
    fn wait_for_helps_when_the_pool_is_saturated() {
        // A 1-worker pool whose only worker is parked on a gate: the
        // serial runner can never be scheduled, so wait_for must run the
        // queued tasks itself.
        let pool = Arc::new(WorkerPool::new("t-help", 1));
        let gate = Arc::new((StdMutex::new(false), Condvar::new()));
        let g2 = gate.clone();
        pool.execute(Box::new(move || {
            let (m, cv) = &*g2;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }));
        let q = SerialQueue::new(pool.clone());
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let ran = ran.clone();
            q.enqueue(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let mark = q.mark();
        q.wait_for(mark); // would deadlock without helping
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        {
            let (m, cv) = &*gate;
            *lock(m) = true;
            cv.notify_all();
        }
        pool.shutdown();
    }

    #[test]
    fn inline_executor_drains_immediately() {
        let q = SerialQueue::new(Arc::new(InlineExecutor));
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = ran.clone();
        let mark = q.enqueue(Box::new(move || {
            r2.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(ran.load(Ordering::SeqCst), 1, "inline lane runs at enqueue");
        assert_eq!(q.completed(), mark);
        q.wait_for(mark); // trivially satisfied
    }

    #[test]
    fn a_panicking_task_neither_wedges_the_lane_nor_stops_its_runner() {
        let pool = Arc::new(WorkerPool::new("t-panic-lane", 2));
        let q = SerialQueue::new(pool.clone());
        q.enqueue(Box::new(|| panic!("one-way handler bug")));
        // Later tasks still run: the scheduled runner survived the panic.
        let (tx, rx) = std::sync::mpsc::channel();
        let mark = q.enqueue(Box::new(move || {
            let _ = tx.send(());
        }));
        rx.recv_timeout(Duration::from_secs(10)).expect("the lane stopped running tasks");
        // And a barrier past the panicking task returns.
        let (done_tx, done) = std::sync::mpsc::channel();
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || {
            q2.wait_for(mark);
            let _ = done_tx.send(());
        });
        done.recv_timeout(Duration::from_secs(10)).expect("a barrier waited on a panicked task");
        waiter.join().unwrap();
        assert_eq!(q.completed(), 2);
        assert!(q.idle());
        pool.shutdown();
    }

    #[test]
    fn a_helper_that_runs_a_panicking_task_still_finishes_it() {
        let q = SerialQueue::new(Arc::new(crate::InlineExecutor));
        let inner = q.inner.clone();
        lock(&inner.state).queue.push_back(Box::new(|| panic!("helped task bug")));
        lock(&inner.state).enqueued += 1;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.run_one()));
        assert!(unwound.is_err(), "the panic goes on to the helper");
        let st = lock(&inner.state);
        assert!(!st.running, "a panicked task left the lane marked running");
        assert_eq!(st.completed, 1);
    }

    #[test]
    fn idle_means_everything_enqueued_has_finished() {
        let pool = Arc::new(WorkerPool::new("t-idle", 1));
        let q = SerialQueue::new(pool.clone());
        assert!(q.idle());
        let gate = Arc::new((StdMutex::new(false), Condvar::new()));
        let g2 = gate.clone();
        let mark = q.enqueue(Box::new(move || {
            let (m, cv) = &*g2;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }));
        assert!(!q.idle(), "a queued or running task is not idle");
        {
            let (m, cv) = &*gate;
            *lock(m) = true;
            cv.notify_all();
        }
        q.wait_for(mark);
        assert!(q.idle());
        pool.shutdown();
    }

    #[test]
    fn barrier_orders_oneways_before_dependent_work() {
        let pool = Arc::new(WorkerPool::new("t-barrier", 4));
        let q = SerialQueue::new(pool.clone());
        let log = Arc::new(StdMutex::new(Vec::new()));
        for i in 0..10 {
            let log = log.clone();
            q.enqueue(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                lock(&log).push(format!("oneway-{i}"));
            }));
        }
        let mark = q.mark();
        let (log2, q2) = (log.clone(), q.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        pool.execute(Box::new(move || {
            q2.wait_for(mark);
            lock(&log2).push("two-way".to_string());
            let _ = tx.send(());
        }));
        rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        let got = lock(&log).clone();
        assert_eq!(got.len(), 11);
        assert_eq!(got[10], "two-way", "reply work ran only after all prior one-ways: {got:?}");
        pool.shutdown();
    }
}
