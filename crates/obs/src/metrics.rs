//! The three metric primitives: counter, gauge, latency histogram.
//!
//! Each primitive is one 128-byte-aligned block of relaxed atomics that
//! every recording thread updates in place: `fetch_add` for counts and
//! sums, `fetch_min`/`fetch_max` for a histogram's extrema, a plain
//! `store` for a gauge. No recording path takes a lock, and the
//! alignment keeps two metrics off one cache-line pair (the spatial
//! prefetcher pulls lines two at a time), so threads recording into
//! different metrics never contend.
//!
//! Reads are *consistent enough*, not atomic: a snapshot taken while
//! other threads record can trail by a few events, and a histogram read
//! can transiently see a bucket/sum/min/max update whose `count`
//! increment has not landed yet (the count is bumped last, so a torn
//! read undercounts rather than inventing values). Emptiness is
//! therefore judged per field by sentinel — never inferred from `count`
//! — which is what keeps `min_ns()`/`max_ns()` from reporting a phantom
//! `0` mid-record. Reads taken after the observed work has completed are
//! exact, including events recorded by threads that have since exited.
//!
//! [`reset`](Counter::reset) is not synchronised against concurrent
//! recording; every caller (bench harness, CLI, tests) resets between
//! runs, not during them.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Buckets of a latency [`Histogram`]: bucket `i` counts values in
/// `(2^(i-1), 2^i]` nanoseconds (bucket 0 holds 0..=1 ns). 40 buckets
/// cover one nanosecond to about nine minutes, enough for any stage of
/// the pipeline.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing event count.
///
/// Recording is one relaxed `fetch_add` behind the global enabled
/// check. All operations are thread-safe.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event (no-op while metrics are disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value: the cell of a labeled
/// [`GaugeFamily`](crate::GaugeFamily) (a session's reservoir occupancy).
///
/// [`set`](Gauge::set) is one relaxed store, so when several threads set
/// the gauge concurrently the last writer wins.
#[repr(align(128))]
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Largest nanosecond value a histogram records; larger inputs clamp.
/// Keeps `u64::MAX` free as the min sentinel and the `max + 1` encoding
/// from saturating — 2^64 − 2 ns is still over five centuries.
const MAX_RECORDABLE_NS: u64 = u64::MAX - 1;

/// The empty [`Histogram::min_ns`] sentinel.
const MIN_EMPTY: u64 = u64::MAX;

/// A fixed-bucket (power-of-two nanoseconds) latency histogram.
///
/// The bucket layout is fixed at compile time so recording never
/// allocates or takes a lock: the bucket, sum, min, max and count
/// updates are relaxed atomic read-modify-writes on the histogram's own
/// fields. Percentile-grade precision is not the goal — locating a
/// stage's cost within a factor of two is.
#[repr(align(128))]
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Smallest recorded value; [`MIN_EMPTY`] while the histogram is
    /// empty.
    min_ns: AtomicU64,
    /// Largest recorded value **plus one**; `0` while the histogram is
    /// empty. The offset encoding lets a recorded `0 ns` be told apart
    /// from "nothing recorded" without consulting `count` — consulting
    /// `count` is exactly the torn read this layer used to have.
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket covering `ns` (the smallest power of two ≥ `ns`).
#[inline]
fn bucket_of(ns: u64) -> usize {
    let bits = 64 - ns.saturating_sub(1).leading_zeros() as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) of bucket `i`, in nanoseconds.
pub(crate) fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    pub(crate) const fn new() -> Self {
        // `AtomicU64::new` is const, but array-repeat needs a const item.
        // Each repeat instantiates a fresh atomic, which is exactly what
        // an all-zero bucket table wants.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            counts: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(MIN_EMPTY),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration in nanoseconds (no-op while metrics are
    /// disabled). Values above `u64::MAX - 1` ns — five-plus centuries —
    /// clamp.
    #[inline]
    pub fn record(&self, ns: u64) {
        if !crate::enabled() {
            return;
        }
        let ns = ns.min(MAX_RECORDABLE_NS);
        self.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns + 1, Ordering::Relaxed);
        // Count last: a concurrent read may miss this event entirely,
        // but never sees a count without its value.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Smallest recorded duration (`None` when empty). Emptiness is the
    /// field's own sentinel, never inferred from [`count`](Self::count),
    /// so a concurrent recorder can never surface a phantom value.
    pub fn min_ns(&self) -> Option<u64> {
        let min = self.min_ns.load(Ordering::Relaxed);
        (min != MIN_EMPTY).then_some(min)
    }

    /// Largest recorded duration (`None` when empty; sentinel-based like
    /// [`min_ns`](Self::min_ns) — a mid-record reader sees `None`, never
    /// a phantom `0`).
    pub fn max_ns(&self) -> Option<u64> {
        match self.max_ns.load(Ordering::Relaxed) {
            0 => None,
            m => Some(m - 1),
        }
    }

    /// Per-bucket counts, in bucket order.
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(MIN_EMPTY, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_metric_is_one_aligned_block() {
        // One cell per metric, padded to a 128-byte cache-line pair so
        // two metrics never share one.
        assert_eq!(std::mem::size_of::<Counter>(), 128);
        assert_eq!(std::mem::size_of::<Gauge>(), 128);
        assert_eq!(std::mem::size_of::<Histogram>(), 384);
        assert_eq!(std::mem::align_of::<Counter>(), 128);
        assert_eq!(std::mem::align_of::<Gauge>(), 128);
        assert_eq!(std::mem::align_of::<Histogram>(), 128);
    }

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        // Everything past the last bound lands in the final bucket.
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_each_bucket() {
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_bound(i)), i, "upper bound of bucket {i}");
            assert_eq!(
                bucket_of(bucket_bound(i) + 1),
                i + 1,
                "first value past bucket {i}"
            );
        }
    }

    #[test]
    fn torn_count_does_not_invent_min_max() {
        // Regression: a reader that arrives between a recorder's count
        // update and its min/max updates used to see `count() > 0` with
        // `max_ns() == Some(0)` (max keyed off the count) while
        // `min_ns()` said `None` (sentinel) — two different answers to
        // "is this histogram empty". Both are sentinel-based now: a
        // histogram with a count but untouched extrema reports *no*
        // extrema.
        let h = Histogram::new();
        h.count.store(3, Ordering::Relaxed);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min_ns(), None, "phantom min from a torn read");
        assert_eq!(h.max_ns(), None, "phantom max from a torn read");
    }

    #[test]
    fn zero_duration_is_distinct_from_empty() {
        let _guard = crate::test_lock();
        let h = Histogram::new();
        assert_eq!(h.min_ns(), None);
        assert_eq!(h.max_ns(), None);
        // A recorded 0 ns is a real observation, not emptiness.
        crate::set_enabled(true);
        h.record(0);
        crate::set_enabled(false);
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.max_ns(), Some(0));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn oversized_durations_clamp_not_wrap() {
        let _guard = crate::test_lock();
        let h = Histogram::new();
        crate::set_enabled(true);
        h.record(u64::MAX);
        crate::set_enabled(false);
        assert_eq!(h.max_ns(), Some(MAX_RECORDABLE_NS));
        assert_eq!(h.min_ns(), Some(MAX_RECORDABLE_NS));
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 1);
    }
}
