//! Shared parallel-execution layer for the subset3d workspace.
//!
//! One persistent pool of worker threads serves every parallel site in
//! the pipeline — per-draw simulation, per-frame clustering, per-config
//! sweeps, per-point experiment fan-out — replacing the hand-rolled
//! `std::thread::scope` / `crossbeam::scope` chunking each of those
//! sites used to carry.
//!
//! # Model
//!
//! Work arrives as a *batch*: a slice of items plus an indexed mapping
//! function. Items are claimed dynamically one at a time from a shared
//! counter (work-stealing in the "whoever is free takes the next item"
//! sense), so an expensive item never strands a fixed chunk behind it.
//! The caller participates in its own batch, which keeps
//! `SUBSET3D_THREADS=1` purely sequential (no workers are spawned) and
//! makes nested [`par_map_indexed`] calls deadlock-free: a caller always
//! makes progress on its own items even if every worker is busy.
//!
//! Results land at their item's index, so output order — and therefore
//! every fold over the output — is identical to the sequential path
//! regardless of thread count or scheduling.
//!
//! # Thread-count control
//!
//! The global pool sizes itself from the `SUBSET3D_THREADS` environment
//! variable (falling back to the machine's available parallelism) and
//! can be resized at runtime with [`set_thread_count`].
//!
//! # Serial fallback
//!
//! A batch runs inline on the caller only when there is nothing to share:
//! on a 1-thread pool, or when it holds at most one item. Every batch of
//! two or more items fans out, so a handful of expensive items (a
//! six-candidate sweep, a two-session serve replay) still runs in
//! parallel; a site whose items are too cheap to announce keeps its own
//! serial rule before it calls the pool. Because results always land at
//! their item's index, the fallback is invisible to callers: outputs are
//! bit-identical either way (covered by the determinism test).
//!
//! # Panics
//!
//! A panic inside the mapping function is captured on the worker,
//! remaining items are drained without running, and the first payload is
//! re-raised on the caller once the batch has fully settled — no result
//! is leaked and no worker is left holding borrowed data.

use std::any::Any;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use subset3d_obs::{LazyCounter, LazyHistogram};

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "SUBSET3D_THREADS";

// Executor metrics (recorded only while `subset3d_obs` is enabled):
// batches dispatched, items executed on the caller vs. each worker,
// claim attempts that found the batch already drained, and how long a
// batch sat in the channel before the first worker picked it up.
static OBS_BATCHES: LazyCounter = LazyCounter::new("exec.batches");
static OBS_CALLER_TASKS: LazyCounter = LazyCounter::new("exec.caller.tasks");
static OBS_STEAL_EMPTY: LazyCounter = LazyCounter::new("exec.steal.empty");
static OBS_QUEUE_WAIT: LazyHistogram = LazyHistogram::new("exec.queue_wait_ns");

// ---- batch ------------------------------------------------------------

/// One parallel map over a slice, shared between the caller and every
/// worker that picks it up. The mapping closure's borrows are
/// lifetime-erased; soundness rests on the invariant that `run` is never
/// invoked after `completed == total`, and the caller blocks until then.
struct Batch {
    /// Next unclaimed item index.
    next: AtomicUsize,
    /// Consecutive items claimed per counter bump. 1 reproduces pure
    /// work-stealing; larger values amortise the shared-counter traffic
    /// over runs of cheap items (see [`ThreadPool::par_map_chunked`]).
    chunk: usize,
    /// Number of items settled (run to completion, panicked, or skipped).
    completed: AtomicUsize,
    total: usize,
    /// Set on first panic; later items are drained without running.
    poisoned: AtomicBool,
    /// First captured panic payload, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    run: Box<dyn Fn(usize) + Send + Sync>,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// When the batch was announced to the workers. `Some` only while
    /// metrics are enabled, so the disabled path never samples a clock.
    enqueued: Option<Instant>,
    /// Set once the queue-wait sample has been recorded (first worker
    /// to dequeue the batch wins).
    wait_recorded: AtomicBool,
}

impl Batch {
    /// Records how long the batch waited in the channel; called by each
    /// worker on receipt, samples only the first arrival.
    fn note_dequeued(&self) {
        if let Some(enqueued) = self.enqueued {
            if !self.wait_recorded.swap(true, Ordering::Relaxed) {
                let ns = enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                OBS_QUEUE_WAIT.record(ns);
            }
        }
    }

    /// Claims and executes runs of `chunk` consecutive items until the
    /// batch is exhausted; returns how many items this thread executed.
    fn work(&self) -> usize {
        let mut executed = 0;
        loop {
            let base = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if base >= self.total {
                OBS_STEAL_EMPTY.incr();
                subset3d_obs::trace_instant("exec", "exec.steal.empty");
                break;
            }
            let end = (base + self.chunk).min(self.total);
            for i in base..end {
                executed += 1;
                if !self.poisoned.load(Ordering::Relaxed) {
                    let _task = subset3d_obs::trace_span_arg("exec", "exec.task", "item", i as u64);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                        self.poisoned.store(true, Ordering::Relaxed);
                        let mut slot = self.panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                }
            }
            if self.completed.fetch_add(end - base, Ordering::AcqRel) + (end - base) == self.total {
                *self.done.lock() = true;
                self.done_cv.notify_all();
            }
        }
        executed
    }

    /// Blocks until every item has settled.
    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.done_cv.wait(&mut done);
        }
    }
}

// ---- pool -------------------------------------------------------------

/// A persistent pool of `threads - 1` workers; the caller of each batch
/// acts as the remaining thread.
pub struct ThreadPool {
    threads: usize,
    sender: Option<Sender<Arc<Batch>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with the given total parallelism (clamped to at
    /// least 1). `threads == 1` spawns no workers: every batch runs
    /// sequentially on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, workers) = if threads > 1 {
            let (tx, rx) = unbounded::<Arc<Batch>>();
            let handles = (0..threads - 1)
                .map(|i| {
                    let rx: Receiver<Arc<Batch>> = rx.clone();
                    // Resolved once per worker; every pool reuses the
                    // same per-slot names, so counts accumulate across
                    // pool resizes.
                    let tasks = subset3d_obs::counter(&format!("exec.worker.{i}.tasks"));
                    std::thread::Builder::new()
                        .name(format!("subset3d-exec-{i}"))
                        .spawn(move || {
                            for batch in rx.iter() {
                                batch.note_dequeued();
                                tasks.add(batch.work() as u64);
                            }
                        })
                        .expect("spawn pool worker")
                })
                .collect();
            (Some(tx), handles)
        } else {
            (None, Vec::new())
        };
        Self {
            threads,
            sender,
            workers: Mutex::new(workers),
        }
    }

    /// Total parallelism of this pool, caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, preserving order. The output
    /// is element-for-element identical to
    /// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` —
    /// scheduling only changes which thread computes each element.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_chunked(items, 1, f)
    }

    /// [`ThreadPool::par_map_indexed`] with `chunk` consecutive items
    /// claimed per counter bump. With cheap uniform items (fixed-width
    /// simulation batches, say) `chunk > 1` amortises the shared-counter
    /// cache-line traffic over a run of items while keeping claiming
    /// dynamic; an expensive item still strands at most `chunk - 1`
    /// neighbours behind it. Output is identical to the sequential map
    /// for every `chunk`.
    pub fn par_map_chunked<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let chunk = chunk.max(1);
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            let _span =
                subset3d_obs::trace_span_arg("exec", "exec.batch.serial", "items", n as u64);
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let _span = subset3d_obs::trace_span_arg("exec", "exec.batch", "items", n as u64);

        let mut storage: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: MaybeUninit requires no initialization.
        unsafe { storage.set_len(n) };
        let written: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let slots = SendPtr(storage.as_mut_ptr());

        {
            let written = &written;
            let items_ref = items;
            let f_ref = &f;
            let run = move |i: usize| {
                let value = f_ref(i, &items_ref[i]);
                // SAFETY: each index is claimed exactly once, so no slot
                // is written twice and no two threads touch one slot.
                unsafe { slots.slot(i).write(MaybeUninit::new(value)) };
                written[i].store(true, Ordering::Release);
            };
            let run: Box<dyn Fn(usize) + Send + Sync + '_> = Box::new(run);
            // SAFETY: the closure borrows `items`, `f`, `written`, and
            // the result buffer, all of which outlive this scope because
            // `batch.wait()` below blocks until every invocation of the
            // closure has returned; afterwards no thread calls it again
            // (the claim counter is saturated), so the erased lifetime
            // is never dereferenced dangling. Late-arriving workers only
            // touch the batch's own atomics, which live in the Arc.
            let run: Box<dyn Fn(usize) + Send + Sync + 'static> =
                unsafe { std::mem::transmute(run) };

            let batch = Arc::new(Batch {
                next: AtomicUsize::new(0),
                chunk,
                completed: AtomicUsize::new(0),
                total: n,
                poisoned: AtomicBool::new(false),
                panic: Mutex::new(None),
                run,
                done: Mutex::new(false),
                done_cv: Condvar::new(),
                enqueued: subset3d_obs::enabled().then(Instant::now),
                wait_recorded: AtomicBool::new(false),
            });
            OBS_BATCHES.incr();
            if let Some(sender) = &self.sender {
                // Announce once per worker; a worker that arrives after
                // the batch drained exits its loop immediately.
                for _ in 0..self.threads - 1 {
                    let _ = sender.send(Arc::clone(&batch));
                }
            }
            OBS_CALLER_TASKS.add(batch.work() as u64);
            batch.wait();

            let panic_payload = batch.panic.lock().take();
            if let Some(payload) = panic_payload {
                for (i, flag) in written.iter().enumerate() {
                    if flag.load(Ordering::Acquire) {
                        // SAFETY: flagged slots hold initialized values.
                        unsafe { storage[i].assume_init_drop() };
                    }
                }
                resume_unwind(payload);
            }
        }

        storage
            .into_iter()
            .map(|slot| {
                // SAFETY: no panic occurred, so every item ran to
                // completion and wrote its slot.
                unsafe { slot.assume_init() }
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's receive loop.
        self.sender = None;
        for handle in self.workers.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Raw result-buffer pointer, shareable across workers.
///
/// SAFETY: workers write disjoint slots (one per claimed index).
struct SendPtr<R>(*mut MaybeUninit<R>);

impl<R> SendPtr<R> {
    /// The `i`-th slot. Taking `self` (not the field) keeps closures
    /// capturing the whole Send+Sync wrapper under disjoint capture.
    fn slot(self, i: usize) -> *mut MaybeUninit<R> {
        // SAFETY: callers stay within the buffer's length.
        unsafe { self.0.add(i) }
    }
}

impl<R> Clone for SendPtr<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for SendPtr<R> {}
unsafe impl<R: Send> Send for SendPtr<R> {}
unsafe impl<R: Send> Sync for SendPtr<R> {}

// ---- global pool ------------------------------------------------------

static GLOBAL: RwLock<Option<Arc<ThreadPool>>> = RwLock::new(None);

/// Default parallelism: `SUBSET3D_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide shared pool, created on first use.
pub fn global() -> Arc<ThreadPool> {
    if let Some(pool) = GLOBAL.read().as_ref() {
        return Arc::clone(pool);
    }
    let mut slot = GLOBAL.write();
    if let Some(pool) = slot.as_ref() {
        return Arc::clone(pool);
    }
    let pool = Arc::new(ThreadPool::new(default_threads()));
    *slot = Some(Arc::clone(&pool));
    pool
}

/// Replaces the global pool with one of the given parallelism. Batches
/// already running on the old pool finish undisturbed; its workers wind
/// down once the last user drops their handle.
pub fn set_thread_count(threads: usize) {
    let pool = Arc::new(ThreadPool::new(threads.max(1)));
    *GLOBAL.write() = Some(pool);
}

/// Current parallelism of the global pool (creating it if needed).
pub fn thread_count() -> usize {
    global().threads()
}

/// Runs `f` with the global pool resized to `threads`, restoring the
/// previous parallelism afterwards (also on panic). The pool is process
/// global, so callers that depend on a specific thread count while other
/// threads submit work should serialise access themselves.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_count(self.0);
        }
    }
    let _restore = Restore(thread_count());
    set_thread_count(threads);
    f()
}

/// [`ThreadPool::par_map_indexed`] on the global pool.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    global().par_map_indexed(items, f)
}

/// [`ThreadPool::par_map_chunked`] on the global pool.
pub fn par_map_chunked<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    global().par_map_chunked(items, chunk, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_matches_sequential_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 4, 16] {
            let pool = ThreadPool::new(threads);
            let got = pool.par_map_indexed(&items, |_, x| x * x + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunked_output_matches_sequential_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            // Chunk sizes around, dividing, and exceeding the item count;
            // 0 must clamp to 1.
            for chunk in [0, 1, 3, 64, 1000, 20_000] {
                let got = pool.par_map_chunked(&items, chunk, |_, x| x * 3 + 1);
                assert_eq!(got, expected, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn chunked_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_chunked(&items, 8, |_, &x| {
                if x == 777 {
                    panic!("chunk boom");
                }
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(
            pool.par_map_chunked(&[5u32, 6], 4, |_, x| x + 1),
            vec![6, 7]
        );
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a"; 257];
        let pool = ThreadPool::new(4);
        let got = pool.par_map_indexed(&items, |i, _| i);
        assert_eq!(got, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_batches() {
        let pool = ThreadPool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map_indexed(&empty, |_, x| *x).is_empty());
        assert_eq!(pool.par_map_indexed(&[7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(&items, |_, &x| {
                if x == 500 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let text = payload.downcast_ref::<String>().expect("string payload");
        assert!(text.contains("boom at 500"), "payload: {text}");
        // The pool must survive a poisoned batch.
        assert_eq!(pool.par_map_indexed(&[1u32, 2], |_, x| x * 2), vec![2, 4]);
    }

    #[test]
    fn drops_partial_results_on_panic() {
        use std::sync::atomic::AtomicUsize;
        static LIVE: AtomicUsize = AtomicUsize::new(0);

        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..200).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(&items, |_, &x| {
                if x == 100 {
                    panic!("halt");
                }
                Counted::new()
            })
        }));
        assert!(result.is_err());
        assert_eq!(LIVE.load(Ordering::SeqCst), 0, "partial results leaked");
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(4));
        let outer: Vec<usize> = (0..8).collect();
        let inner_pool = Arc::clone(&pool);
        let got = pool.par_map_indexed(&outer, |_, &o| {
            let inner: Vec<usize> = (0..50).collect();
            inner_pool
                .par_map_indexed(&inner, |_, &i| o * 100 + i)
                .iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|o| (0..50).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn global_pool_resizes() {
        set_thread_count(2);
        assert_eq!(thread_count(), 2);
        let items: Vec<u32> = (0..100).collect();
        let a = par_map_indexed(&items, |i, x| u64::from(*x) + i as u64);
        set_thread_count(1);
        assert_eq!(thread_count(), 1);
        let b = par_map_indexed(&items, |i, x| u64::from(*x) + i as u64);
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_attribute_every_executed_task() {
        subset3d_obs::reset();
        subset3d_obs::set_enabled(true);
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..10_000).collect();
        let got = pool.par_map_indexed(&items, |_, x| x + 1);

        // A worker attributes its task count after its last claim, which
        // can land just after the caller unblocks — poll briefly.
        let attributed = |snap: &subset3d_obs::MetricsSnapshot| {
            let caller = snap.counter("exec.caller.tasks").unwrap_or(0);
            let workers: u64 = snap
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("exec.worker."))
                .map(|(_, n)| n)
                .sum();
            caller + workers
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut snap = subset3d_obs::snapshot();
        while attributed(&snap) < items.len() as u64 && Instant::now() < deadline {
            std::thread::yield_now();
            snap = subset3d_obs::snapshot();
        }
        subset3d_obs::set_enabled(false);
        subset3d_obs::reset();

        assert_eq!(got, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        // Other tests may run batches concurrently, so lower bounds only.
        assert!(snap.counter("exec.batches").unwrap_or(0) >= 1);
        assert!(
            attributed(&snap) >= items.len() as u64,
            "tasks unaccounted for: {snap:?}"
        );
    }

    #[test]
    fn serial_fallback_is_bit_identical() {
        // Float math whose result would expose any reassociation or
        // reordering between the inline and fanned-out paths.
        let items: Vec<u64> = (0..100).collect();
        let run = |pool: &ThreadPool, items: &[u64]| {
            pool.par_map_indexed(items, |i, &x| {
                (0..50).fold(x as f64 + i as f64, |acc, k| acc * 1.000_1 + k as f64)
            })
        };
        let inline = ThreadPool::new(1); // no workers: everything inline
        let fanned = ThreadPool::new(8); // two or more items: fanned out
        for n in [1, 2, 3, 100] {
            let serial = run(&inline, &items[..n]);
            let parallel = run(&fanned, &items[..n]);
            assert_eq!(serial.len(), n);
            assert_eq!(parallel.len(), n);
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{n} items: item {i} diverged");
            }
        }
    }

    #[test]
    fn two_item_batches_run_concurrently() {
        // Each item waits until both have started, so the batch only
        // completes promptly if the two items run on different threads;
        // run one after the other, the first item gives up at the
        // deadline having seen only itself.
        use std::time::Duration;
        let pool = ThreadPool::new(2);
        let arrived = AtomicUsize::new(0);
        let seen = pool.par_map_indexed(&[0u8, 1], |_, _| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            arrived.load(Ordering::SeqCst)
        });
        assert_eq!(seen, vec![2, 2], "a 2-item batch ran its items serially");
    }

    #[test]
    fn borrowed_non_copy_inputs_and_outputs() {
        let items: Vec<String> = (0..500).map(|i| format!("item-{i}")).collect();
        let pool = ThreadPool::new(3);
        let got = pool.par_map_indexed(&items, |i, s| format!("{s}/{i}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("item-{i}/{i}"));
        }
    }
}
