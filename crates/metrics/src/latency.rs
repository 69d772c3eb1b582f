//! Log-bucketed latency histograms (HdrHistogram-style, from scratch).
//!
//! Throughput numbers hide tail behavior: an optimistic reader that
//! retries under writer pressure, or an insert that walks a long cuckoo
//! path, shows up at p99/p999 long before it moves the mean. The figure
//! benches report throughput (as the paper does); the latency driver
//! uses these histograms for the tail-latency extension experiment.
//!
//! Layout: 64 exponential tiers (by leading zeros of the nanosecond
//! count), each split into 32 linear sub-buckets → ≤ ~3 % relative error,
//! 2048 counters, `record` is two shifts and an add.

// ORDERING-FILE: stats.counter — histogram buckets/sums are reporting counters.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
const TIERS: usize = 64;

/// A concurrent log-bucketed histogram of nanosecond latencies.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for LatencyHistogram {
    /// Summary statistics, not the raw buckets.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.len())
            .field("mean_ns", &self.mean())
            .field("p50_ns", &self.percentile(50.0))
            .field("p99_ns", &self.percentile(99.0))
            .field("max_ns", &self.max())
            .finish()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..TIERS * SUBS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn index_of(nanos: u64) -> usize {
        if nanos < SUBS as u64 {
            return nanos as usize;
        }
        let tier = 63 - nanos.leading_zeros();
        let sub = (nanos >> (tier - SUB_BITS)) as usize & (SUBS - 1);
        ((tier - SUB_BITS + 1) as usize) * SUBS + sub
    }

    /// Lower bound of the bucket at `index` (the value reported for it).
    fn value_of(index: usize) -> u64 {
        let tier = index / SUBS;
        let sub = (index % SUBS) as u64;
        if tier == 0 {
            return sub;
        }
        let shift = tier as u32 - 1;
        ((SUBS as u64) << shift) | (sub << shift)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` samples of the same value: the histogram ends as `n`
    /// calls of [`record`](Self::record) leave it, at the cost of one.
    #[inline]
    pub fn record_n(&self, nanos: u64, n: u64) {
        self.buckets[Self::index_of(nanos)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Value at percentile `p` (0.0–100.0), within bucket resolution.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.len();
        if total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::value_of(i);
            }
        }
        self.max()
    }

    /// Mean of recorded samples (bucket-resolution approximation).
    pub fn mean(&self) -> f64 {
        let total = self.len();
        if total == 0 {
            return 0.0;
        }
        let sum: u128 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| Self::value_of(i) as u128 * b.load(Ordering::Relaxed) as u128)
            .sum();
        sum as f64 / total as f64
    }

    /// Zeroes every bucket and the count/max registers. Not atomic with
    /// respect to concurrent `record` calls: samples recorded while the
    /// reset sweeps may land before or after it (operator-facing `stats
    /// reset`, not a synchronization point).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_subbucket_range() {
        let h = LatencyHistogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.max(), 31);
    }

    /// `record_n(v, n)` leaves buckets, count, max, mean and percentiles
    /// as `n` calls of `record(v)` do.
    #[test]
    fn record_n_equals_n_records() {
        let (one_by_one, at_once) = (LatencyHistogram::new(), LatencyHistogram::new());
        for (v, n) in [(7u64, 3u64), (1_000, 10), (123_456, 1), (40, 0), (9_876_543, 5), (1_000, 2)] {
            for _ in 0..n {
                one_by_one.record(v);
            }
            at_once.record_n(v, n);
        }
        let counts =
            |h: &LatencyHistogram| h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect::<Vec<_>>();
        assert_eq!(counts(&at_once), counts(&one_by_one));
        assert_eq!((at_once.len(), at_once.max()), (one_by_one.len(), one_by_one.max()));
        assert_eq!(at_once.mean(), one_by_one.mean());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(at_once.percentile(p), one_by_one.percentile(p), "p{p}");
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        let h = LatencyHistogram::new();
        for v in [100u64, 1_000, 10_000, 123_456, 9_876_543, u32::MAX as u64] {
            let idx = LatencyHistogram::index_of(v);
            let lo = LatencyHistogram::value_of(idx);
            assert!(lo <= v, "bucket floor {lo} above sample {v}");
            assert!(
                (v - lo) as f64 / v as f64 <= 1.0 / SUBS as f64 + 1e-9,
                "error too large for {v}: floor {lo}"
            );
            let _ = h;
        }
    }

    #[test]
    fn percentiles_order_and_converge() {
        let h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 100);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p50 < p99 && p99 <= p999, "{p50} {p99} {p999}");
        // p50 of uniform 100..=1_000_000 ≈ 500_000 (±bucket error).
        assert!((450_000..550_000).contains(&p50), "{p50}");
        assert!(p999 <= h.max());
    }

    #[test]
    fn mean_tracks_uniform_distribution() {
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i * 1000);
        }
        let mean = h.mean();
        assert!((450_000.0..=500_500.0).contains(&mean), "{mean}");
    }

    #[test]
    fn merge_combines_counts() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.percentile(100.0) >= 900_000);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn concurrent_recording() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.len(), 40_000);
    }
}
