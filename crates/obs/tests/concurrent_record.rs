//! Multi-thread ground-truth test for metric recording.
//!
//! Many writer threads hammer one counter and one histogram, either all
//! at once or one short-lived thread after another, then exit.
//! Aggregated totals read after the threads are gone must equal the
//! arithmetic ground truth exactly: every field is a shared relaxed
//! atomic, so no event may be lost to a concurrent writer or to a
//! writer's exit.

use std::sync::{Barrier, Mutex, MutexGuard};
use subset3d_obs as obs;

/// Tests in this binary flip the process-global enabled flag, so they
/// must not interleave.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Writers alive at once, all released by one barrier.
const CONCURRENT_THREADS: usize = 16;
/// Short-lived writers run one after another.
const SEQUENTIAL_THREADS: usize = 16;
const ADDS_PER_THREAD: u64 = 1_000;

/// Sum of the histogram's bucket counts.
fn bucket_total(name: &str) -> u64 {
    obs::snapshot().histograms[name]
        .buckets
        .iter()
        .map(|b| b.count)
        .sum()
}

#[test]
fn concurrent_writers_aggregate_to_ground_truth() {
    let _guard = lock();
    obs::set_enabled(true);
    let counter = obs::counter("stress.concurrent.count");
    let hist = obs::histogram("stress.concurrent.ns");
    let base_count = counter.get();
    let base_hist_count = hist.count();
    let base_hist_sum = hist.sum_ns();
    let base_buckets = bucket_total("stress.concurrent.ns");

    // Every writer passes the barrier before its first record, so all
    // of them update the same atomics under real contention.
    let barrier = Barrier::new(CONCURRENT_THREADS);
    std::thread::scope(|s| {
        for t in 0..CONCURRENT_THREADS {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..ADDS_PER_THREAD {
                    counter.add(2);
                    hist.record(t as u64 * ADDS_PER_THREAD + i);
                }
            });
        }
    });

    let n = CONCURRENT_THREADS as u64 * ADDS_PER_THREAD;
    assert_eq!(counter.get() - base_count, 2 * n);
    assert_eq!(hist.count() - base_hist_count, n);
    // Sum of 0..n recorded exactly once each.
    assert_eq!(hist.sum_ns() - base_hist_sum, n * (n - 1) / 2);
    assert_eq!(hist.min_ns(), Some(0));
    assert_eq!(hist.max_ns(), Some(n - 1));
    assert_eq!(bucket_total("stress.concurrent.ns") - base_buckets, n);
    obs::set_enabled(false);
}

#[test]
fn counts_survive_thread_exit() {
    let _guard = lock();
    obs::set_enabled(true);
    let counter = obs::counter("stress.sequential.count");
    let hist = obs::histogram("stress.sequential.ns");
    let base_count = counter.get();
    let base_hist_count = hist.count();
    let base_hist_sum = hist.sum_ns();
    let base_buckets = bucket_total("stress.sequential.ns");

    // Sequential short-lived threads: each one writes and exits before
    // the next starts and before the totals are read.
    for t in 0..SEQUENTIAL_THREADS {
        std::thread::spawn(move || {
            let counter = obs::counter("stress.sequential.count");
            let hist = obs::histogram("stress.sequential.ns");
            for _ in 0..ADDS_PER_THREAD {
                counter.incr();
            }
            hist.record(t as u64 + 1);
        })
        .join()
        .expect("writer thread panicked");
    }

    let n = SEQUENTIAL_THREADS as u64;
    assert_eq!(
        counter.get() - base_count,
        n * ADDS_PER_THREAD,
        "exited threads' counter increments were lost"
    );
    assert_eq!(hist.count() - base_hist_count, n);
    // Sum of 1..=n recorded exactly once each.
    assert_eq!(hist.sum_ns() - base_hist_sum, n * (n + 1) / 2);
    assert_eq!(hist.min_ns(), Some(1));
    assert_eq!(hist.max_ns(), Some(n));
    assert_eq!(bucket_total("stress.sequential.ns") - base_buckets, n);
    obs::set_enabled(false);
}

#[test]
fn snapshot_matches_ground_truth_after_writers_exit() {
    let _guard = lock();
    obs::set_enabled(true);
    let threads = 8;
    let counter = obs::counter("stress.snapshot.count");
    let hist = obs::histogram("stress.snapshot.ns");
    let base_count = counter.get();
    let base_hist_count = hist.count();

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for i in 0..ADDS_PER_THREAD {
                    counter.incr();
                    hist.record(100 + i % 10);
                }
            });
        }
    });

    let snap = obs::snapshot();
    let n = threads as u64 * ADDS_PER_THREAD;
    assert_eq!(
        snap.counters.get("stress.snapshot.count").copied(),
        Some(base_count + n)
    );
    let h = snap
        .histograms
        .get("stress.snapshot.ns")
        .expect("histogram missing from snapshot");
    assert_eq!(h.count, base_hist_count + n);
    assert_eq!(h.min_ns, 100);
    assert_eq!(h.max_ns, 109);
    assert_eq!(
        h.buckets.iter().map(|b| b.count).sum::<u64>(),
        base_hist_count + n,
        "bucket counts must add up to the event count"
    );
    obs::set_enabled(false);
}
