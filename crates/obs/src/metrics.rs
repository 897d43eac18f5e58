//! The three metric primitives: counter, gauge, latency histogram.
//!
//! Each primitive owns a table of [`MAX_SHARDS`] cache-line-padded
//! shards, one per thread-slot (see [`crate::shard`]): recording writes
//! only the calling thread's shard — a plain relaxed load/store on an
//! exclusively owned slot, a relaxed `fetch_add` on the shared overflow
//! slot — and reads aggregate across the table. No recording path takes
//! a lock or touches a cache line another thread is writing.
//!
//! Aggregated reads are *consistent enough*, not atomic: a snapshot
//! taken while other threads record can trail by a few events per shard,
//! and a histogram read can transiently see a bucket/sum/min/max update
//! whose `count` increment has not landed yet (the count is bumped
//! last, so a torn read undercounts rather than inventing values).
//! Emptiness is therefore judged per field by sentinel — never inferred
//! from `count` — which is what keeps `min_ns()`/`max_ns()` from
//! reporting a phantom `0` mid-record. Reads taken after the observed
//! work has completed are exact, including events recorded by threads
//! that have since exited (shards outlive their owning thread).
//!
//! [`reset`](Counter::reset) is not synchronised against concurrent
//! recording; every caller (bench harness, CLI, tests) resets between
//! runs, not during them.

use crate::shard::{self, MAX_SHARDS};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Buckets of a latency [`Histogram`]: bucket `i` counts values in
/// `(2^(i-1), 2^i]` nanoseconds (bucket 0 holds 0..=1 ns). 40 buckets
/// cover one nanosecond to about nine minutes, enough for any stage of
/// the pipeline.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// One padded counter slot. 128-byte alignment keeps adjacent slots —
/// each written by a different thread — on separate cache-line pairs
/// (the spatial prefetcher pulls lines two at a time).
#[repr(align(128))]
#[derive(Debug)]
struct PadU64(AtomicU64);

#[repr(align(128))]
#[derive(Debug)]
struct PadI64(AtomicI64);

/// Adds `n` to an exclusively owned slot with plain relaxed loads and
/// stores: the owner is the slot's only writer, so the unfenced
/// read-modify-write cannot lose updates.
#[inline]
fn bump_exclusive(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// A monotonically increasing event count.
///
/// Recording is one relaxed store into the calling thread's shard behind
/// the global enabled check; [`get`](Counter::get) sums the shards. All
/// operations are thread-safe.
#[derive(Debug)]
pub struct Counter {
    shards: [PadU64; MAX_SHARDS],
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    pub(crate) const fn new() -> Self {
        // `AtomicU64::new` is const, but array-repeat needs a const item.
        // Each repeat instantiates a fresh atomic, which is exactly what
        // an all-zero shard table wants.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: PadU64 = PadU64(AtomicU64::new(0));
        Counter {
            shards: [ZERO; MAX_SHARDS],
        }
    }

    /// Adds `n` events (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            let slot = shard::slot();
            let cell = &self.shards[slot.idx].0;
            if slot.exclusive {
                bump_exclusive(cell, n);
            } else {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Adds one event (no-op while metrics are disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count, aggregated across every thread's shard.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A signed instantaneous value: the cell of a labeled
/// [`GaugeFamily`](crate::GaugeFamily) (a session's reservoir occupancy).
///
/// Shards hold per-thread *deltas*; [`get`](Gauge::get) sums them.
/// [`set`](Gauge::set) rebases the sum through the calling thread's
/// shard, which is exact for a single-owner gauge (the intended shape)
/// but racy when several threads `set` concurrently — last writer does
/// *not* reliably win there.
#[derive(Debug)]
pub struct Gauge {
    shards: [PadI64; MAX_SHARDS],
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: PadI64 = PadI64(AtomicI64::new(0));
        Gauge {
            shards: [ZERO; MAX_SHARDS],
        }
    }

    /// Sets the gauge (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.add_delta(v.wrapping_sub(self.get()));
        }
    }

    #[inline]
    fn add_delta(&self, delta: i64) {
        let slot = shard::slot();
        let cell = &self.shards[slot.idx].0;
        if slot.exclusive {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(delta),
                Ordering::Relaxed,
            );
        } else {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value, aggregated across every thread's shard.
    pub fn get(&self) -> i64 {
        self.shards
            .iter()
            .fold(0i64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Largest nanosecond value a histogram records; larger inputs clamp.
/// Keeps `u64::MAX` free as the min sentinel and the `max + 1` encoding
/// from saturating — 2^64 − 2 ns is still over five centuries.
const MAX_RECORDABLE_NS: u64 = u64::MAX - 1;

/// The empty [`HistShard::min_ns`] sentinel.
const MIN_EMPTY: u64 = u64::MAX;

/// One thread's slice of a histogram. A shard is written by one thread
/// only (bar the shared overflow slot), so the whole struct is padded as
/// a unit rather than per field.
#[repr(align(128))]
#[derive(Debug)]
struct HistShard {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Smallest recorded value; [`MIN_EMPTY`] while the shard is empty.
    min_ns: AtomicU64,
    /// Largest recorded value **plus one**; `0` while the shard is
    /// empty. The offset encoding lets a recorded `0 ns` be told apart
    /// from "nothing recorded" without consulting `count` — consulting
    /// `count` is exactly the torn read this layer used to have.
    max_ns: AtomicU64,
}

impl HistShard {
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: HistShard = {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistShard {
            counts: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(MIN_EMPTY),
            max_ns: AtomicU64::new(0),
        }
    };

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(MIN_EMPTY, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket (power-of-two nanoseconds) latency histogram.
///
/// The bucket layout is fixed at compile time so recording never
/// allocates or takes a lock: bucket/count/sum/min/max updates land in
/// the calling thread's shard as plain relaxed stores. Percentile-grade
/// precision is not the goal — locating a stage's cost within a factor
/// of two is.
#[derive(Debug)]
pub struct Histogram {
    shards: [HistShard; MAX_SHARDS],
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
        Histogram {
            shards: [HistShard::EMPTY; MAX_SHARDS],
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
        let slot = shard::slot();
        let sh = &self.shards[slot.idx];
        if slot.exclusive {
            bump_exclusive(&sh.counts[bucket_of(ns)], 1);
            bump_exclusive(&sh.sum_ns, ns);
            if ns < sh.min_ns.load(Ordering::Relaxed) {
                sh.min_ns.store(ns, Ordering::Relaxed);
            }
            if ns + 1 > sh.max_ns.load(Ordering::Relaxed) {
                sh.max_ns.store(ns + 1, Ordering::Relaxed);
            }
            // Count last: a concurrent aggregation may miss this event
            // entirely, but never sees a count without its value.
            bump_exclusive(&sh.count, 1);
        } else {
            sh.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
            sh.sum_ns.fetch_add(ns, Ordering::Relaxed);
            sh.min_ns.fetch_min(ns, Ordering::Relaxed);
            sh.max_ns.fetch_max(ns + 1, Ordering::Relaxed);
            sh.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.shards.iter().fold(0u64, |acc, s| {
            acc.wrapping_add(s.count.load(Ordering::Relaxed))
        })
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.shards.iter().fold(0u64, |acc, s| {
            acc.wrapping_add(s.sum_ns.load(Ordering::Relaxed))
        })
    }

    /// Smallest recorded duration (`None` when empty). Emptiness is the
    /// field's own sentinel, never inferred from [`count`](Self::count),
    /// so a concurrent recorder can never surface a phantom value.
    pub fn min_ns(&self) -> Option<u64> {
        let min = self
            .shards
            .iter()
            .map(|s| s.min_ns.load(Ordering::Relaxed))
            .min()
            .unwrap_or(MIN_EMPTY);
        (min != MIN_EMPTY).then_some(min)
    }

    /// Largest recorded duration (`None` when empty; sentinel-based like
    /// [`min_ns`](Self::min_ns) — a mid-record reader sees `None`, never
    /// a phantom `0`).
    pub fn max_ns(&self) -> Option<u64> {
        let max = self
            .shards
            .iter()
            .map(|s| s.max_ns.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        match max {
            0 => None,
            m => Some(m - 1),
        }
    }

    /// Per-bucket counts aggregated across shards, in bucket order.
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| {
            self.shards.iter().fold(0u64, |acc, s| {
                acc.wrapping_add(s.counts[i].load(Ordering::Relaxed))
            })
        })
    }

    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // shard with a count but untouched extrema reports *no* extrema.
        let h = Histogram::new();
        h.shards[0].count.store(3, Ordering::Relaxed);
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
