//! The three metric instruments: counters, gauges, and fixed-bucket histograms.
//!
//! Every instrument is a plain bundle of atomics — recording is wait-free and
//! never allocates, which keeps instrumentation safe to leave on in the hot
//! path. Snapshots read the same atomics with relaxed loads; consistency
//! guarantees are documented per method.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, open connections, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Create a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtract `delta`.
    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations (typically nanoseconds
/// or bytes).
///
/// Bucket `i` counts observations `v` with `v <= bounds[i]` and
/// `v > bounds[i-1]`; one extra implicit `+Inf` bucket catches everything
/// above the last bound. Bounds are sorted and deduplicated at construction,
/// so any slice is a valid argument.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last one is `+Inf`.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    /// Exemplar linkage: the largest traced observation so far and the trace
    /// it belonged to, so a latency regression points at a reconstructable
    /// causal trace. Updated with a `fetch_max` race that tolerates ties.
    max_v: AtomicU64,
    max_trace_hi: AtomicU64,
    max_trace_lo: AtomicU64,
}

/// The exemplar a histogram keeps: its maximum traced observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value (same unit as the histogram).
    pub value: u64,
    /// Trace id of the request that produced it.
    pub trace_id: u128,
}

const US: u64 = 1_000;
const MS: u64 = 1_000_000;

/// See [`default_latency_bounds_ns`].
pub(crate) const DEFAULT_LATENCY_BOUNDS_NS: [u64; 22] = [
    US,
    2 * US + US / 2,
    5 * US,
    10 * US,
    25 * US,
    50 * US,
    100 * US,
    250 * US,
    500 * US,
    MS,
    2 * MS + MS / 2,
    5 * MS,
    10 * MS,
    25 * MS,
    50 * MS,
    100 * MS,
    250 * MS,
    500 * MS,
    1_000 * MS,
    2_500 * MS,
    5_000 * MS,
    10_000 * MS,
];

/// Default latency bounds in nanoseconds: 1µs → 10s in 1-2.5-5 steps.
///
/// Wide enough for an in-process capability transform (~µs) and a simulated
/// WAN round trip (~ms–s) on the same scale.
pub fn default_latency_bounds_ns() -> Vec<u64> {
    DEFAULT_LATENCY_BOUNDS_NS.to_vec()
}

impl Histogram {
    /// Create a histogram with the given upper bounds (sorted + deduplicated).
    pub fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
            max_v: AtomicU64::new(0),
            max_trace_hi: AtomicU64::new(0),
            max_trace_lo: AtomicU64::new(0),
        }
    }

    /// Create a histogram with [`default_latency_bounds_ns`].
    pub fn with_default_bounds() -> Self {
        Self::new(&DEFAULT_LATENCY_BOUNDS_NS)
    }

    /// The configured upper bounds (exclusive of the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// [`observe`](Self::observe) plus exemplar linkage: when `v` is the
    /// largest observation this histogram has seen, remember `trace_id` so
    /// the max bucket points back at the causal trace that filled it.
    ///
    /// The max check and the trace store are separate atomics; two racing
    /// maxima may interleave their trace halves, which is acceptable
    /// imprecision for a diagnostic pointer (the value itself stays exact).
    pub fn observe_traced(&self, v: u64, trace_id: u128) {
        self.observe(v);
        let prev = self.max_v.fetch_max(v, Ordering::Relaxed);
        if v >= prev {
            self.max_trace_hi.store((trace_id >> 64) as u64, Ordering::Relaxed);
            self.max_trace_lo.store(trace_id as u64, Ordering::Relaxed);
        }
    }

    /// The current exemplar: the largest traced observation and its trace.
    /// `None` until some traced observation lands.
    pub fn exemplar(&self) -> Option<Exemplar> {
        let hi = self.max_trace_hi.load(Ordering::Relaxed);
        let lo = self.max_trace_lo.load(Ordering::Relaxed);
        let trace_id = (u128::from(hi) << 64) | u128::from(lo);
        if trace_id == 0 {
            return None;
        }
        Some(Exemplar { value: self.max_v.load(Ordering::Relaxed), trace_id })
    }

    /// Per-bucket counts (non-cumulative; last entry is the `+Inf` bucket).
    ///
    /// The returned vector is a single pass over the bucket atomics, so a
    /// count derived by summing it is exactly the count of observations whose
    /// bucket increment was visible at snapshot time — the invariant the
    /// snapshot-consistency test relies on.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Total number of observations (sum of all bucket counts).
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        g.sub(2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bounds 10, 20, 30 → buckets (..=10], (10..=20], (20..=30], (30..).
        let h = Histogram::new(&[10, 20, 30]);
        h.observe(0); // first bucket
        h.observe(10); // value == bound lands IN that bucket (le semantics)
        h.observe(11); // second bucket
        h.observe(20); // second bucket
        h.observe(30); // third bucket
        h.observe(31); // +Inf
        h.observe(u64::MAX / 2); // +Inf
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 10 + 11 + 20 + 30 + 31 + u64::MAX / 2);
    }

    #[test]
    fn histogram_sanitizes_bounds() {
        let h = Histogram::new(&[30, 10, 20, 10]);
        assert_eq!(h.bounds(), &[10, 20, 30]);
        assert_eq!(h.bucket_counts().len(), 4);
    }

    #[test]
    fn histogram_empty_bounds_is_all_inf() {
        let h = Histogram::new(&[]);
        h.observe(42);
        assert_eq!(h.bucket_counts(), vec![1]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 42);
    }

    #[test]
    fn exemplar_tracks_the_max_traced_observation() {
        let h = Histogram::new(&[10, 100]);
        assert_eq!(h.exemplar(), None, "no traced observation yet");
        h.observe(1_000_000); // untraced observations never set the exemplar
        assert_eq!(h.exemplar(), None);
        h.observe_traced(50, 0xAAAA);
        assert_eq!(h.exemplar(), Some(Exemplar { value: 50, trace_id: 0xAAAA }));
        h.observe_traced(2_000_000, 0xBBBB);
        assert_eq!(h.exemplar(), Some(Exemplar { value: 2_000_000, trace_id: 0xBBBB }));
        h.observe_traced(10, 0xCCCC); // smaller: exemplar unchanged
        assert_eq!(h.exemplar().map(|e| e.trace_id), Some(0xBBBB));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn default_bounds_are_strictly_increasing() {
        let b = default_latency_bounds_ns();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*b.first().expect("non-empty"), 1_000);
        assert_eq!(*b.last().expect("non-empty"), 10_000_000_000);
    }
}
