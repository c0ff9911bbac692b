//! Latency histogram and the quiet-window estimator.
//!
//! [`Histogram`] is a fixed-size log-bucket histogram of nanosecond values:
//! 128 linear sub-buckets per power of two, so a bucket is at most 1/128
//! (0.78 %) wide relative to its lower edge, and a percentile, placed inside
//! its bucket by rank, is within that of the true sample. It is sized once
//! and never allocates while recording.
//!
//! [`best3_mean`] is the estimator every wall-clock figure goes through. On
//! a shared host, interference from neighbours only ever slows a window
//! down, so the windows least disturbed are the fastest ones; the mean of
//! the best three of a run's windows estimates the undisturbed figure more
//! steadily than the median window does (README, "Method"). A figure read
//! against the yardstick is disturbed either way, so it goes through
//! [`midmean`].

/// Sub-buckets per power of two.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Values up to 2^40 ns (about 18 minutes) are resolved; larger ones land in
/// the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS) as usize + 2) * SUB as usize;

/// Fixed-size log-bucket histogram of `u64` nanosecond values.
pub struct Histogram {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        // The first two octaves' worth of values are exact.
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // position of the leading bit, >= 8
    let exp = exp.min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let sub = (v >> shift).min(2 * SUB - 1) - SUB; // 0..SUB
    let idx = (shift as u64 + 1) * SUB + sub;
    (idx as usize).min(BUCKETS - 1)
}

/// Lower edge and width of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx, 1);
    }
    let shift = idx / SUB - 1;
    let sub = idx % SUB;
    ((SUB + sub) << shift, 1 << shift)
}

impl Histogram {
    /// An empty histogram (its one allocation).
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max: 0,
        }
    }

    /// Records one value. Never allocates.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let slot = &mut self.counts[bucket_of(ns)];
        *slot = slot.saturating_add(1);
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest value recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds `other`'s samples to `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// How many samples lie strictly beyond the `q` percentile's rank.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.total - self.rank(q)
    }

    /// Rank (1-based) of the `q`-quantile sample: `ceil(q * n)`, at least 1.
    fn rank(&self, q: f64) -> u64 {
        ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1))
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds; `None` when empty.
    /// The sample of rank `ceil(q * n)` is placed inside its bucket as if the
    /// bucket's samples were spread evenly over it, so two runs whose
    /// percentiles share a bucket still read differently, as they are.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = self.rank(q);
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if below + c >= rank {
                let (lo, width) = bucket_bounds(idx);
                let within = ((rank - below) as f64 - 0.5) / c as f64;
                return Some((lo as f64 + width as f64 * within).min(self.max as f64));
            }
            below += c;
        }
        Some(self.max as f64)
    }
}

/// Which end of the windows is "best".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates: the best windows are the highest.
    Higher,
    /// Latencies: the best windows are the lowest.
    Lower,
}

/// Mean of the best three of `windows` (of all of them, when fewer than
/// three). `None` when there is no window.
pub fn best3_mean(windows: &[f64], better: Better) -> Option<f64> {
    if windows.is_empty() {
        return None;
    }
    let mut sorted = windows.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    let best = &sorted[..sorted.len().min(3)];
    Some(best.iter().sum::<f64>() / best.len() as f64)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Mean of the middle half of `values`: sorted, a quarter of them (rounded
/// down) dropped from each end, the rest averaged. Like the median it
/// ignores what a few disturbed windows read; unlike it, it averages over
/// the windows that remain. `None` when there is no value.
pub fn midmean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let middle = &sorted[sorted.len() / 4..sorted.len() - sorted.len() / 4];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses and the pipeline applies to a
/// set of runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |k: usize| -> f64 {
        // Position k*(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values spread over six decades.
    fn samples(n: usize) -> Vec<u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let decade = 10u64.pow((x % 7) as u32 + 2);
                decade + (x >> 20) % (9 * decade)
            })
            .collect()
    }

    #[test]
    fn percentile_error_is_within_one_percent() {
        let data = samples(50_000);
        let mut h = Histogram::new();
        for &v in &data {
            h.record(v);
        }
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let got = h.quantile(q).unwrap();
            let err = (got - exact).abs() / exact;
            assert!(
                err <= 0.01,
                "q={q}: exact {exact}, histogram {got}, error {err}"
            );
        }
        assert_eq!(h.max(), *sorted.last().unwrap());
        assert_eq!(h.count(), data.len() as u64);
    }

    #[test]
    fn every_bucket_is_at_most_one_percent_wide() {
        for idx in 2 * SUB as usize..BUCKETS {
            let (lo, width) = bucket_bounds(idx);
            assert!(
                width as f64 / lo as f64 <= 0.01,
                "bucket {idx}: {lo}+{width}"
            );
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
        }
        // Small values are exact; huge ones saturate into the last bucket.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(255), 255);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v * 1000);
            b.record(v * 1000 + 500_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.max(), 600_000);
        let p50 = a.quantile(0.5).unwrap();
        assert!((p50 - 100_000.0).abs() / 100_000.0 < 0.01, "{p50}");
        assert_eq!(a.samples_beyond(0.9), 20);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn best_three_of_fifteen_ignores_the_disturbed_windows() {
        // Twelve windows slowed by a neighbour, three quiet ones.
        let mut rates = vec![50_000.0; 12];
        rates.extend([70_000.0, 71_000.0, 72_000.0]);
        assert_eq!(best3_mean(&rates, Better::Higher), Some(71_000.0));
        let mut lat = vec![20.0; 12];
        lat.extend([11.0, 12.0, 13.0]);
        assert_eq!(best3_mean(&lat, Better::Lower), Some(12.0));
        // Order of the windows does not matter.
        rates.reverse();
        assert_eq!(best3_mean(&rates, Better::Higher), Some(71_000.0));
    }

    #[test]
    fn best_three_handles_short_runs() {
        assert_eq!(best3_mean(&[], Better::Higher), None);
        assert_eq!(best3_mean(&[4.0], Better::Lower), Some(4.0));
        assert_eq!(best3_mean(&[4.0, 2.0], Better::Lower), Some(3.0));
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        // Fifteen windows: three dropped from each end, nine averaged.
        let mut v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(midmean(&v), Some(8.0));
        v[14] = 1e9; // a disturbed window
        v[0] = -1e9;
        assert_eq!(midmean(&v), Some(8.0));
        v.reverse();
        assert_eq!(midmean(&v), Some(8.0));
        assert_eq!(midmean(&[]), None);
        assert_eq!(midmean(&[4.0]), Some(4.0));
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(midmean(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
