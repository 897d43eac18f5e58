//! Process-global observability for the subset3d pipeline: aggregate
//! metrics and structured event tracing.
//!
//! Every stage of the stack — the executor, the sweep session's memo rows,
//! the subsetting pipeline, the streaming service — reports into one
//! registry of named [`Counter`]s, fixed-bucket latency [`Histogram`]s
//! and labeled [`GaugeFamily`]/[`HistogramFamily`] cells, so a single
//! [`snapshot`] shows where time and cache capacity go across a whole
//! run. The tracing layer (see [`start_tracing`], [`trace_span`] and the
//! [`chrome`] exporters) complements the aggregates with a per-thread
//! event timeline viewable in Perfetto, plus a bounded flight recorder
//! for post-hoc failure diagnosis. A [`Stage`] joins the two: one guard
//! times a pipeline stage into both its histogram and its trace span.
//!
//! # Cost model
//!
//! Metrics are **off by default**. Every recording call checks one
//! process-global `AtomicBool` with a relaxed load before doing anything
//! else, so the disabled cost of an instrumented hot path is a
//! predictable branch. When enabled, each event is a few relaxed atomic
//! read-modify-writes on the metric's own 128-byte-aligned block (see
//! [`Counter`] and [`Histogram`]) — no lock, and no cache line shared
//! with another metric — and a snapshot reads each field once. A stage
//! entered with either layer on reads the clock twice, at entry and at
//! drop, and both layers take that one reading. The enabled cost is
//! budgeted at 2 % of the pass that records the most: a fresh sweep
//! session's iterated sweeps, which count every batch-cache probe.
//! `bench_report` measures it as `metrics_overhead_pct` in
//! `BENCH_pipeline.json`, and the tier-1 `bench_diff --check
//! --max-overhead 2` step compares it with the budget, but that step is
//! report-only, and on a 2-vCPU host it often reads `unresolved` because
//! the paired readings spread wider than the budget (see ROADMAP.md).
//!
//! Metrics observe, they never steer: no simulated value, clustering
//! decision, or cache lookup depends on a metric, so results are
//! bit-identical with metrics on or off (asserted by the cross-crate
//! determinism test).
//!
//! # Adding a metric
//!
//! Declare a lazy handle next to the code it observes and record into
//! it; the first touch registers the name globally:
//!
//! ```
//! static FRAMES_SEEN: subset3d_obs::LazyCounter =
//!     subset3d_obs::LazyCounter::new("example.frames_seen");
//!
//! subset3d_obs::set_enabled(true);
//! FRAMES_SEEN.incr();
//! let snap = subset3d_obs::snapshot();
//! assert_eq!(snap.counter("example.frames_seen"), Some(1));
//! # subset3d_obs::set_enabled(false);
//! # subset3d_obs::reset();
//! ```
//!
//! Names are dot-separated, coarsest scope first: `exec.steal.empty`,
//! `gpusim.batch_cache.hits`, `pipeline.clustering_ns`. Histogram names
//! end in `_ns` — every histogram records nanoseconds.
//!
//! # Timing a stage
//!
//! Declare a [`Stage`] next to the code it times — trace category, trace
//! name, histogram name — and enter it. The guard reads the clock once at
//! entry and once at drop, and records that one duration into the
//! histogram (while metrics are on) and as the trace span (while tracing
//! is on), so the two always agree:
//!
//! ```
//! static FIT: subset3d_obs::Stage =
//!     subset3d_obs::Stage::new("example", "example.fit", "example.fit_ns");
//!
//! subset3d_obs::set_enabled(true);
//! subset3d_obs::start_tracing(subset3d_obs::TraceMode::Full);
//! {
//!     let _fit = FIT.enter_arg("points", 128);
//!     // ... the work being timed ...
//! }
//! let events = subset3d_obs::stop_tracing();
//! let hist = &subset3d_obs::snapshot().histograms["example.fit_ns"];
//! assert_eq!((events[0].name, events[0].arg_val), ("example.fit", 128));
//! assert_eq!((hist.count, hist.sum_ns), (1, events[0].dur_ns));
//! # subset3d_obs::set_enabled(false);
//! # subset3d_obs::reset();
//! ```

pub mod chrome;
mod family;
mod metrics;
pub mod prom;
mod registry;
mod snapshot;
pub mod timeseries;
mod trace;

pub use chrome::{export_chrome, export_jsonl, validate_chrome, ChromeStats, TRACE_PID};
pub use family::{
    GaugeFamily, GaugeLease, HistogramFamily, HistogramLease, DEFAULT_FAMILY_SLOTS,
    FAMILY_OVERFLOW_LABEL, FAMILY_OVERFLOW_SLOT,
};
pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use prom::{to_prometheus, validate_prometheus, PromStats};
pub use registry::{
    counter, gauge_family, histogram, histogram_family, LazyCounter, LazyHistogram,
};
pub use snapshot::{BucketCount, FamilyCell, FamilySnapshot, HistogramSnapshot, MetricsSnapshot};
pub use timeseries::{
    timeseries_from_jsonl, timeseries_to_jsonl, validate_timeseries, HistogramDelta, MetricsDelta,
    RollingDigest, SamplerConfig, TelemetrySampler, TelemetryWindow, TimeSeries, TimeseriesStats,
};
pub use trace::{
    events_dropped, events_recorded, install_panic_dump, recent_events, self_time, start_tracing,
    stop_tracing, thread_names, trace_allocs, trace_enabled, trace_flow_end, trace_flow_start,
    trace_instant, trace_span, trace_span_arg, SelfTime, Stage, TraceEvent, TraceMode, TracePhase,
    TraceSpan, FLIGHT_CAPACITY,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped by every [`reset`]; snapshots carry the value so delta code
/// can detect a reset between two samples and rebase instead of
/// clamping everything to zero.
static RESET_EPOCH: AtomicU64 = AtomicU64::new(0);

/// How many times [`reset`] has run so far.
pub fn reset_epoch() -> u64 {
    RESET_EPOCH.load(Ordering::Relaxed)
}

/// Whether metrics are currently being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off, process-wide. Recording is off by
/// default; values accumulated so far are kept (use [`reset`] to zero
/// them).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Takes a consistent-enough snapshot of every registered metric.
///
/// Individual values are read with relaxed loads while other threads may
/// still be recording, so a snapshot taken mid-run can be a few events
/// behind per metric; a snapshot taken after the observed work has
/// completed is exact.
pub fn snapshot() -> MetricsSnapshot {
    registry::global().snapshot(enabled())
}

/// Zeroes every registered metric (names stay registered) and bumps the
/// process-global reset epoch recorded in every snapshot.
pub fn reset() {
    RESET_EPOCH.fetch_add(1, Ordering::Relaxed);
    registry::global().reset();
}

/// Serialises tests that flip the process-global enabled flag; shared
/// across this crate's unit-test modules.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_metrics<R>(f: impl FnOnce() -> R) -> R {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        let c = counter("test.disabled_counter");
        c.incr();
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = histogram("test.disabled_hist_ns");
        h.record(100);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        with_metrics(|| {
            let c = counter("test.counter");
            c.incr();
            c.add(9);
            assert_eq!(c.get(), 10);

            let h = histogram("test.hist_ns");
            for ns in [1, 1000, 1000, 1_000_000] {
                h.record(ns);
            }
            assert_eq!(h.count(), 4);
            assert_eq!(h.sum_ns(), 1_002_001);
        });
    }

    #[test]
    fn snapshot_reflects_and_reset_clears() {
        with_metrics(|| {
            counter("test.snap_counter").add(3);
            histogram("test.snap_hist_ns").record(512);

            let snap = snapshot();
            assert!(snap.enabled);
            assert_eq!(snap.counter("test.snap_counter"), Some(3));
            let hist = &snap.histograms["test.snap_hist_ns"];
            assert_eq!((hist.count, hist.sum_ns), (1, 512));
            assert_eq!((hist.min_ns, hist.max_ns), (512, 512));

            reset();
            let snap = snapshot();
            assert_eq!(snap.counter("test.snap_counter"), Some(0));
            assert_eq!(snap.histograms["test.snap_hist_ns"].count, 0);
        });
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = with_metrics(|| {
            counter("test.json_counter").add(42);
            histogram("test.json_hist_ns").record(123_456);
            snapshot()
        });
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn lazy_handles_resolve_to_the_registry() {
        with_metrics(|| {
            static LAZY: LazyCounter = LazyCounter::new("test.lazy_counter");
            LAZY.incr();
            LAZY.add(2);
            assert_eq!(counter("test.lazy_counter").get(), 3);
        });
    }

    #[test]
    fn concurrent_recording_loses_no_events() {
        with_metrics(|| {
            let c = counter("test.concurrent");
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..10_000 {
                            c.incr();
                        }
                    });
                }
            });
            assert_eq!(c.get(), 40_000);
        });
    }
}
