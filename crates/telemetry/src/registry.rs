//! The metric registry and its clock.
//!
//! A [`Registry`] maps `(name, sorted label set)` keys to shared instrument
//! handles. Lookups take a read lock on the fast path (the instrument already
//! exists) and a write lock only on first registration; recording through a
//! returned handle touches no lock at all. The registry deliberately uses
//! `std::sync::RwLock` rather than `parking_lot` so the telemetry crate stays
//! outside the workspace lock-order analysis surface and has zero
//! dependencies.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Counter, Gauge, Histogram, DEFAULT_LATENCY_BOUNDS_NS};
use crate::snapshot::{HistogramSnapshot, Sample, Snapshot, Value};

/// A metric identity: name plus a canonically sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        Self { name: name.to_string(), labels }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn as_counter(&self) -> Option<&Arc<Counter>> {
        match self {
            Metric::Counter(c) => Some(c),
            _ => None,
        }
    }

    fn as_gauge(&self) -> Option<&Arc<Gauge>> {
        match self {
            Metric::Gauge(g) => Some(g),
            _ => None,
        }
    }

    fn as_histogram(&self) -> Option<&Arc<Histogram>> {
        match self {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// A concurrent registry of named metrics.
///
/// Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) are
/// `Arc`-shared. A call site resolves its instrument **once** and keeps the
/// handle — in a hidden static through [`counter!`](crate::counter) /
/// [`gauge!`](crate::gauge) / [`histogram!`](crate::histogram) when name and
/// labels are literals, in the object that knows the label otherwise. A
/// lookup builds an owned key and takes the registry lock; only error,
/// rebind and teardown paths may pay that per event
/// ([`resolutions`](Registry::resolutions) counts them). Registering the same
/// `(name, labels)` twice returns the same underlying instrument. Registering
/// a name under a *different* instrument kind never panics — it returns a
/// detached instrument that records into the void, so a naming collision
/// degrades to lost data rather than a crash (telemetry must never take the
/// hot path down).
pub struct Registry {
    metrics: RwLock<HashMap<MetricKey, Metric>>,
    clock: RwLock<Arc<dyn Clock>>,
    clock_epoch: AtomicU64,
    resolutions: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = read_lock(&self.metrics).len();
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

/// Read-lock helper that survives poisoning: a panicked writer can only have
/// been mid-`insert` on an unrelated key, and lost telemetry beats a
/// propagated panic.
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Create an empty registry with a [`MonotonicClock`].
    pub fn new() -> Self {
        Self {
            metrics: RwLock::new(HashMap::new()),
            clock: RwLock::new(Arc::new(MonotonicClock::new())),
            clock_epoch: AtomicU64::new(0),
            resolutions: AtomicU64::new(0),
        }
    }

    /// The process-wide registry that workspace instrumentation records into.
    ///
    /// All `Context`s in a process share it, so the introspection object's
    /// snapshot is a *per-process* view (see DESIGN.md §7).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Replace the clock [`now_ns`](Registry::now_ns) reads. On
    /// [`Registry::global`] it is the clock every span stamps with (see
    /// [`trace_span_timed`](crate::trace_span_timed)), and `netsim` installs
    /// its `VirtualClock` here so span durations are simulated-time
    /// deterministic.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *write_lock(&self.clock) = clock;
        self.clock_epoch.fetch_add(1, Ordering::Release);
    }

    /// The currently installed clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        read_lock(&self.clock).clone()
    }

    /// Current time from the installed clock, without cloning it — the
    /// cheap read the trace recorder uses on every span open/close.
    pub fn now_ns(&self) -> u64 {
        read_lock(&self.clock).now_ns()
    }

    /// Bumped on every [`set_clock`](Registry::set_clock); lets per-thread
    /// clock caches detect a swap with one relaxed load instead of taking
    /// the clock read lock on every timestamp.
    pub fn clock_epoch(&self) -> u64 {
        self.clock_epoch.load(Ordering::Acquire)
    }

    /// Lookups by name this registry has served: every
    /// [`counter`](Self::counter), [`gauge`](Self::gauge) and
    /// [`histogram`](Self::histogram) call, hit or miss.
    ///
    /// A plain number, deliberately not a registered metric (it would show in
    /// every snapshot and count itself). It exists so a test can pin that the
    /// steady-state request path resolves nothing: read it, drive calls, read
    /// it again.
    pub fn resolutions(&self) -> u64 {
        self.resolutions.load(Ordering::Relaxed)
    }

    /// The one get-or-register: `existing` picks the wanted kind out of a
    /// stored metric, `wrap` stores a new one made by `create`.
    fn resolve<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        existing: fn(&Metric) -> Option<&Arc<T>>,
        wrap: fn(Arc<T>) -> Metric,
        create: impl Fn() -> T,
    ) -> Arc<T> {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        let key = MetricKey::new(name, labels);
        if let Some(found) = read_lock(&self.metrics).get(&key).and_then(existing) {
            return found.clone();
        }
        let mut map = write_lock(&self.metrics);
        let stored = map.entry(key).or_insert_with(|| wrap(Arc::new(create())));
        // Kind collision: hand back a detached instrument, never panic.
        existing(stored).cloned().unwrap_or_else(|| Arc::new(create()))
    }

    /// Get or register the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.resolve(name, labels, Metric::as_counter, Metric::Counter, Counter::new)
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.resolve(name, labels, Metric::as_gauge, Metric::Gauge, Gauge::new)
    }

    /// Get or register the histogram `name{labels}` with the default latency
    /// bounds (see [`default_latency_bounds_ns`](crate::default_latency_bounds_ns)).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_with_bounds(name, labels, &DEFAULT_LATENCY_BOUNDS_NS)
    }

    /// Get or register the histogram `name{labels}` with explicit bounds.
    ///
    /// Bounds only matter on first registration; later calls return the
    /// existing instrument regardless of the bounds argument.
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        self.resolve(name, labels, Metric::as_histogram, Metric::Histogram, || {
            Histogram::new(bounds)
        })
    }

    /// A point-in-time copy of every registered metric.
    ///
    /// Each instrument is read once; counters and histogram buckets are
    /// internally consistent per instrument (a histogram's count equals the
    /// sum of its snapshotted buckets by construction), while cross-metric
    /// skew is bounded by the duration of the snapshot loop.
    pub fn snapshot(&self) -> Snapshot {
        let map = read_lock(&self.metrics);
        let mut samples: Vec<Sample> = map
            .iter()
            .map(|(key, metric)| Sample {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => Value::Counter(c.get()),
                    Metric::Gauge(g) => Value::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let buckets = h.bucket_counts();
                        let count = buckets.iter().sum();
                        Value::Histogram(HistogramSnapshot {
                            bounds: h.bounds().to_vec(),
                            buckets,
                            sum: h.sum(),
                            count,
                            exemplar: h.exemplar(),
                        })
                    }
                },
            })
            .collect();
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { samples }
    }
}

/// Current time on [`Registry::global`]'s clock through a per-thread cache
/// keyed on the registry's clock epoch: one relaxed load plus a dyn call on
/// the hit path, no read lock. A `set_clock` bumps the epoch and the next
/// timestamp on each thread refreshes its cached handle.
pub(crate) fn fast_now_ns() -> u64 {
    type CachedClock = (u64, Arc<dyn Clock>);
    thread_local! {
        static CLOCK: RefCell<Option<CachedClock>> = const { RefCell::new(None) };
    }
    let reg = Registry::global();
    let epoch = reg.clock_epoch();
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        match &*c {
            Some((e, clock)) if *e == epoch => clock.now_ns(),
            _ => {
                let clock = reg.clock();
                let now = clock.now_ns();
                *c = Some((epoch, clock));
                now
            }
        }
    })
}

impl Histogram {
    /// Observes a duration the caller measured itself: the trace installed
    /// on this thread, if any, becomes the exemplar when `v` is the largest
    /// observation so far (so the max bucket points at a causal trace).
    pub fn observe_linked(&self, v: u64) {
        match crate::trace::current_trace_id() {
            Some(trace_id) => self.observe_traced(v, trace_id),
            None => self.observe(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn same_key_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("hits", &[("proto", "tcp")]);
        let b = r.counter("hits", &[("proto", "tcp")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        // label order is canonicalized
        let c = r.counter("multi", &[("a", "1"), ("b", "2")]);
        let d = r.counter("multi", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn different_labels_are_distinct() {
        let r = Registry::new();
        let a = r.counter("hits", &[("proto", "tcp")]);
        let b = r.counter("hits", &[("proto", "shm")]);
        a.add(3);
        assert_eq!(b.get(), 0);
        assert_eq!(r.snapshot().counter_total("hits"), 3);
    }

    #[test]
    fn kind_collision_returns_detached_instrument() {
        let r = Registry::new();
        let c = r.counter("thing", &[]);
        c.inc();
        // Same name as a gauge: detached, does not clobber, does not panic.
        let g = r.gauge("thing", &[]);
        g.set(99);
        assert_eq!(r.snapshot().counter("thing", &[]), Some(1));
        assert_eq!(r.snapshot().gauge("thing", &[]), None);
    }

    #[test]
    fn snapshot_consistent_under_concurrent_writers() {
        let r = Arc::new(Registry::new());
        let hist = r.histogram_with_bounds("load_ns", &[], &[10, 100, 1000]);
        let counter = r.counter("load_total", &[]);
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 5_000;
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let hist = hist.clone();
                let counter = counter.clone();
                thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        hist.observe((w as u64 * 7 + i) % 2000);
                        counter.inc();
                    }
                })
            })
            .collect();
        // Snapshot while writers are live: count must equal the bucket sum
        // (both derived from the same per-bucket loads), and repeated
        // snapshots must be monotone.
        let mut last_count = 0u64;
        for _ in 0..50 {
            let snap = r.snapshot();
            let h = snap.histogram("load_ns", &[]).expect("histogram");
            assert_eq!(h.count, h.buckets.iter().sum::<u64>());
            assert!(h.count >= last_count);
            last_count = h.count;
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        let snap = r.snapshot();
        let h = snap.histogram("load_ns", &[]).expect("histogram");
        let total = (WRITERS as u64) * PER_WRITER;
        assert_eq!(h.count, total);
        assert_eq!(snap.counter("load_total", &[]), Some(total));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a: *const Registry = Registry::global();
        let b: *const Registry = Registry::global();
        assert_eq!(a, b);
    }

    #[test]
    fn macros_resolve_once_into_the_global_registry() {
        let hits = || crate::counter!("telemetry_selftest_total", "kind" => "macro");
        let before = Registry::global().resolutions();
        hits().inc();
        hits().add(2);
        crate::gauge!("telemetry_selftest_depth").set(7);
        crate::histogram!("telemetry_selftest_ns").observe(5);
        // Other tests resolve concurrently, so the bound is from below only;
        // what matters is that the second `hits()` found the same instrument.
        assert!(Registry::global().resolutions() >= before + 3);
        let snap = Registry::global().snapshot();
        assert_eq!(snap.counter("telemetry_selftest_total", &[("kind", "macro")]), Some(3));
        assert_eq!(snap.gauge("telemetry_selftest_depth", &[]), Some(7));
        assert_eq!(snap.histogram("telemetry_selftest_ns", &[]).map(|h| h.count), Some(1));
    }

    #[test]
    fn resolutions_counts_lookups_not_events() {
        let r = Registry::new();
        let c = r.counter("hits", &[]);
        let _ = (r.gauge("depth", &[]), r.histogram("op_ns", &[]), r.counter("hits", &[]));
        assert_eq!(r.resolutions(), 4);
        c.add(1000);
        r.histogram("op_ns", &[]).observe(1);
        assert_eq!(r.resolutions(), 5, "recording through a handle resolves nothing");
    }
}
