//! The rescue that makes inline dispatch deadlock-free.
//!
//! A server connection's reader can run a request itself instead of handing
//! it to a pool worker, which saves a thread hand-off per call. While it runs
//! the request, though, nobody reads the connection. A handler that waits for
//! a later request on the same connection (a rendezvous, a barrier reached by
//! callers that share one pooled connection) would then wait for ever. A
//! [`Rescue`] slot per connection removes that deadlock without costing the
//! call that does not block:
//!
//! * before running a request inline, the reader parks its receive half in
//!   the slot and makes the slot's generation odd; afterwards it takes the
//!   half back and makes the generation even again
//!   ([`run`](Rescue::run));
//! * one lazily started, process-wide watcher thread reads every slot's
//!   generation once per [`RESCUE_AFTER`]. A slot that shows the same odd
//!   generation on two scans has been running one request inline for at
//!   least that long. The watcher takes the parked half, makes the
//!   generation even, marks the slot [`rescued`](Rescue::rescued) for good,
//!   and hands the half to a fresh thread, which goes on reading the
//!   connection;
//! * the old reader finishes its request, finds the slot empty, and exits.
//!
//! The watcher parks indefinitely once a scan finds that nothing ran inline
//! since the scan before, and the next inline run wakes it: an idle process
//! gets no periodic wake-ups. A rescue happens at most once per connection,
//! so the threads it starts are bounded by connections, not by requests.
//! Nobody joins them: the watcher lives as long as the process, as the
//! shared pool does, and a rescued reader ends when its connection does, as
//! the reader it replaced would have.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::Thread;
use std::time::Duration;

use crate::lock;

/// How long one inline run may hold a connection's only reader before the
/// watcher rescues the connection: a rescue happens between one and two of
/// these after the run starts.
///
/// Ten milliseconds, not one: a rescued connection gets a second reader
/// thread, and with it, once that thread allocates, a second malloc arena.
/// Legitimate server work takes milliseconds: a 1 MiB echo through
/// glue[timeout,security] spends about 1.5 ms in the server. With a 1 ms tick
/// such calls get rescued, and the extra arena holds a few more payload-sized
/// buffers (the benchmark's bulk workload peaks 6 MiB higher, DESIGN.md §14).
/// Ten is well clear of such work and still far below any caller's
/// patience.
const RESCUE_AFTER: Duration = Duration::from_millis(10);

/// One connection's slot.
struct Slot<T> {
    /// Odd while a run is inline and its value is parked: the run and the
    /// watcher's rescue each make it even again, whichever takes the value.
    /// Changed only under `parked`'s lock; read by the watcher without it.
    generation: AtomicU64,
    /// The receive half while a run is inline.
    parked: Mutex<Option<T>>,
    /// Set once the watcher has taken the half: no more inline runs.
    rescued: AtomicBool,
    /// What the fresh thread runs with the rescued half.
    resume: Box<dyn Fn(T) + Send + Sync>,
}

/// A slot as the watcher sees it, whatever it holds.
trait Watched: Send + Sync {
    fn generation(&self) -> u64;

    /// Takes the parked value if the run that had `generation` is still
    /// going, and resumes on a fresh thread with it.
    fn rescue(self: Arc<Self>, generation: u64);
}

impl<T: Send + 'static> Watched for Slot<T> {
    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn rescue(self: Arc<Self>, generation: u64) {
        let held = {
            let mut parked = lock(&self.parked);
            if self.generation.load(Ordering::SeqCst) != generation {
                return; // the run ended between the scan and now
            }
            let Some(held) = parked.take() else { return };
            self.rescued.store(true, Ordering::SeqCst);
            // Even again: nothing is parked, and a rescued slot never runs
            // inline again, so the watcher may park while it lives on.
            self.generation.fetch_add(1, Ordering::SeqCst);
            held
        };
        ohpc_telemetry::counter!("runtime_rescues_total").inc();
        let resumed = std::thread::Builder::new()
            .name("ohpc-rescued-reader".into())
            .spawn(move || (self.resume)(held));
        if resumed.is_err() {
            // The half went down with the closure, which hangs the
            // connection up: its callers see it closed instead of waiting.
            ohpc_telemetry::Registry::global()
                .counter("runtime_rescue_spawn_failures_total", &[])
                .inc();
        }
    }
}

/// A registered slot and the generation the previous scan saw in it.
struct Watch {
    slot: Weak<dyn Watched>,
    seen: u64,
}

/// The process-wide watcher.
struct Watcher {
    watched: Mutex<Vec<Watch>>,
    /// The watcher is parked, or about to park, until an inline run starts.
    sleeping: AtomicBool,
    thread: Thread,
    scans: AtomicU64,
}

static WATCHER: OnceLock<Option<Watcher>> = OnceLock::new();

/// The watcher, started on first use; `None` if its thread could not be.
fn watcher() -> Option<&'static Watcher> {
    WATCHER
        .get_or_init(|| {
            // The thread's own first call waits for this initialisation.
            let started = std::thread::Builder::new()
                .name("ohpc-rescuer".into())
                .spawn(|| watcher().map_or((), Watcher::run));
            started.ok().map(|handle| Watcher {
                watched: Mutex::new(Vec::new()),
                sleeping: AtomicBool::new(false),
                thread: handle.thread().clone(),
                scans: AtomicU64::new(0),
            })
        })
        .as_ref()
}

impl Watcher {
    fn run(&self) {
        loop {
            if !self.scan() {
                // Nothing ran inline since the last scan. Announce the
                // sleep, then look once more: a run that started before it
                // could see the announcement shows here, and any later one
                // wakes us.
                self.sleeping.store(true, Ordering::SeqCst);
                if !self.scan() {
                    while self.sleeping.load(Ordering::SeqCst) {
                        std::thread::park();
                    }
                    continue;
                }
                self.sleeping.store(false, Ordering::SeqCst);
            }
            std::thread::sleep(RESCUE_AFTER);
        }
    }

    /// Records every slot's generation and rescues the slots whose odd
    /// generation has not moved since the previous scan. Returns whether
    /// anything ran inline in between. Two scans follow each other without
    /// a [`RESCUE_AFTER`] between them only when the first found every slot
    /// even and unmoved, so a rescue always follows at least that long a
    /// run.
    fn scan(&self) -> bool {
        self.scans.fetch_add(1, Ordering::Relaxed);
        let mut active = false;
        let mut stuck = Vec::new();
        lock(&self.watched).retain_mut(|watch| {
            let Some(slot) = watch.slot.upgrade() else {
                return false;
            };
            let generation = slot.generation();
            let running = generation % 2 == 1;
            active |= running || generation != watch.seen;
            if running && generation == watch.seen {
                stuck.push((slot, generation));
            }
            watch.seen = generation;
            true
        });
        for (slot, generation) in stuck {
            slot.rescue(generation);
        }
        active
    }

    fn watch(&self, slot: Weak<dyn Watched>) {
        let mut watched = lock(&self.watched);
        watched.retain(|watch| watch.slot.strong_count() > 0);
        watched.push(Watch { slot, seen: 0 });
    }

    /// Called by each inline run after its generation went odd.
    fn wake(&self) {
        if self.sleeping.load(Ordering::SeqCst) && self.sleeping.swap(false, Ordering::SeqCst) {
            self.thread.unpark();
        }
    }
}

/// A connection's rescue slot: a request run inline that holds the reader
/// too long gets the parked `T` handed to a fresh thread, which reads on.
/// `T` is what the reader parks while it runs a request: its receive half.
pub struct Rescue<T: Send + 'static> {
    slot: Arc<Slot<T>>,
}

impl<T: Send + 'static> Rescue<T> {
    /// A slot whose rescued value goes to `resume`, on a fresh thread.
    /// Starts the process-wide watcher if it is not running yet; a slot the
    /// watcher cannot cover (its thread failed to start) begins rescued, so
    /// nothing runs inline under it.
    pub fn new(resume: impl Fn(T) + Send + Sync + 'static) -> Self {
        let slot = Arc::new(Slot {
            generation: AtomicU64::new(0),
            parked: Mutex::new(None),
            rescued: AtomicBool::new(false),
            resume: Box::new(resume),
        });
        match watcher() {
            Some(watcher) => {
                let watched: Arc<dyn Watched> = slot.clone();
                watcher.watch(Arc::downgrade(&watched));
            }
            None => slot.rescued.store(true, Ordering::SeqCst),
        }
        Self { slot }
    }

    /// Whether the watcher has taken a value from this slot. Once it has,
    /// it stays so: run nothing inline on this connection again.
    pub fn rescued(&self) -> bool {
        self.slot.rescued.load(Ordering::SeqCst)
    }

    /// Parks `held`, runs `run` on this thread, and takes `held` back.
    /// `None` in place of it: the watcher rescued it meanwhile, and the
    /// thread it started now owns it. A `run` that unwinds leaves `held`
    /// parked for the watcher to rescue.
    pub fn run<R>(&self, held: T, run: impl FnOnce() -> R) -> (R, Option<T>) {
        {
            let mut parked = lock(&self.slot.parked);
            *parked = Some(held);
            self.slot.generation.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(watcher) = watcher() {
            watcher.wake();
        }
        let out = run();
        let mut parked = lock(&self.slot.parked);
        let back = parked.take();
        if back.is_some() {
            self.slot.generation.fetch_add(1, Ordering::SeqCst);
        }
        (out, back)
    }
}

impl<T: Send + 'static> std::fmt::Debug for Rescue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rescue")
            .field("generation", &self.slot.generation.load(Ordering::Relaxed))
            .field("rescued", &self.rescued())
            .finish()
    }
}

/// Scans the rescue watcher has made since the process started (zero before
/// the first [`Rescue`] starts it). The count stands still while the watcher
/// is parked. Rescues themselves are counted in the telemetry registry, as
/// `runtime_rescues_total`.
pub fn rescuer_scans() -> u64 {
    match WATCHER.get() {
        Some(Some(watcher)) => watcher.scans.load(Ordering::Relaxed),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    /// The watcher is process-wide; these tests read its counts.
    fn alone() -> std::sync::MutexGuard<'static, ()> {
        static ALONE: Mutex<()> = Mutex::new(());
        lock(&ALONE)
    }

    #[test]
    fn a_short_run_keeps_its_value_and_is_never_rescued() {
        let _alone = alone();
        let rescue = Rescue::new(|_: u32| panic!("nothing to rescue"));
        for i in 0..1000 {
            let (out, back) = rescue.run(i, || i * 2);
            assert_eq!((out, back), (i * 2, Some(i)));
        }
        assert!(!rescue.rescued());
    }

    #[test]
    fn a_blocked_run_is_rescued_once_and_the_slot_stays_rescued() {
        let _alone = alone();
        let (resumed_tx, resumed) = mpsc::channel();
        let resumed_tx = Mutex::new(resumed_tx);
        let rescue = Rescue::new(move |held: &'static str| {
            let _ = lock(&resumed_tx).send((held, std::thread::current().id()));
        });
        let rescues = ohpc_telemetry::counter!("runtime_rescues_total");
        let before = rescues.get();
        let t0 = Instant::now();
        let (release_tx, release) = mpsc::channel::<()>();
        let releaser = std::thread::spawn(move || {
            // The run is released only once its value has been resumed.
            let got = resumed.recv_timeout(Duration::from_secs(10));
            let _ = release_tx.send(());
            got
        });
        let ((), back) = rescue.run("half", || {
            let _ = release.recv_timeout(Duration::from_secs(10));
        });
        let (held, resumed_on) = releaser.join().unwrap().expect("the value was never resumed");
        assert!(t0.elapsed() >= RESCUE_AFTER, "rescued after {:?}", t0.elapsed());
        assert_eq!(held, "half");
        assert_ne!(resumed_on, std::thread::current().id(), "resumed on a fresh thread");
        assert_eq!(back, None, "the rescued value is the fresh thread's now");
        assert!(rescue.rescued());
        assert_eq!(rescues.get(), before + 1);
        // The rescued slot lives on, idle: the watcher parks all the same.
        std::thread::sleep(RESCUE_AFTER * 5);
        let parked = rescuer_scans();
        std::thread::sleep(RESCUE_AFTER * 10);
        assert_eq!(rescuer_scans(), parked, "the watcher kept scanning for a rescued slot");
        drop(rescue);
    }

    #[test]
    fn the_watcher_parks_when_nothing_runs_inline() {
        let _alone = alone();
        let rescue = Rescue::new(|_: ()| {});
        let ((), _) = rescue.run((), || ());
        // One idle tick, and the watcher parks for good.
        std::thread::sleep(RESCUE_AFTER * 5);
        let parked = rescuer_scans();
        std::thread::sleep(RESCUE_AFTER * 10);
        assert_eq!(rescuer_scans(), parked, "the watcher kept scanning an idle process");
        // The next inline run wakes it.
        let ((), _) = rescue.run((), || ());
        let t0 = Instant::now();
        while rescuer_scans() == parked {
            assert!(t0.elapsed() < Duration::from_secs(10), "the watcher never woke");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
