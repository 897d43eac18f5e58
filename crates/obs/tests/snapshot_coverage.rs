//! Coverage for the observability layer's public surface: histogram
//! bucket boundaries as seen through snapshots, `percentile()` edge
//! cases, and snapshot serde round-trips.
//!
//! The registry is process-global, so every test uses its own metric
//! names and asserts only on those.

use subset3d_obs::{histogram, snapshot, BucketCount, HistogramSnapshot, MetricsSnapshot};

/// Recording is gated on the process-global enabled flag; each
/// recording test flips it on (and leaves it on — every test in this
/// binary wants it).
fn recording_on() {
    subset3d_obs::set_enabled(true);
}

fn snapshot_of(name: &str) -> HistogramSnapshot {
    snapshot()
        .histograms
        .get(name)
        .cloned()
        .unwrap_or_else(|| panic!("histogram {name} not registered"))
}

#[test]
fn bucket_boundaries_are_powers_of_two_inclusive() {
    let name = "obs_test.bucket_boundaries_ns";
    recording_on();
    let h = histogram(name);
    // 1 → bucket ≤1; 2 → ≤2; 3 and 4 share ≤4; 5 → ≤8; 1024 → ≤1024;
    // 1025 → ≤2048. Exactly the power-of-two-inclusive layout.
    for ns in [1, 2, 3, 4, 5, 1024, 1025] {
        h.record(ns);
    }
    let snap = snapshot_of(name);
    assert_eq!(snap.count, 7);
    assert_eq!(snap.min_ns, 1);
    assert_eq!(snap.max_ns, 1025);
    assert_eq!(
        snap.buckets,
        vec![
            BucketCount { le_ns: 1, count: 1 },
            BucketCount { le_ns: 2, count: 1 },
            BucketCount { le_ns: 4, count: 2 },
            BucketCount { le_ns: 8, count: 1 },
            BucketCount {
                le_ns: 1024,
                count: 1
            },
            BucketCount {
                le_ns: 2048,
                count: 1
            },
        ]
    );
}

#[test]
fn zero_duration_lands_in_the_first_bucket() {
    let name = "obs_test.zero_duration_ns";
    recording_on();
    histogram(name).record(0);
    let snap = snapshot_of(name);
    assert_eq!(snap.buckets, vec![BucketCount { le_ns: 1, count: 1 }]);
}

#[test]
fn huge_duration_saturates_into_the_last_bucket() {
    let name = "obs_test.huge_duration_ns";
    recording_on();
    histogram(name).record(u64::MAX);
    let snap = snapshot_of(name);
    assert_eq!(snap.buckets.len(), 1);
    let top = snap.buckets[0].le_ns;
    assert_eq!(top, 1u64 << (subset3d_obs::HISTOGRAM_BUCKETS - 1));
    assert_eq!(snap.percentile(50.0), Some(top));
}

#[test]
fn percentile_of_empty_histogram_is_none() {
    let empty = HistogramSnapshot {
        count: 0,
        sum_ns: 0,
        min_ns: 0,
        max_ns: 0,
        mean_ns: 0.0,
        buckets: Vec::new(),
    };
    assert_eq!(empty.percentile(50.0), None);
    assert_eq!(empty.percentile(0.0), None);
}

#[test]
fn percentile_rejects_nan_and_out_of_range() {
    let name = "obs_test.percentile_domain_ns";
    recording_on();
    histogram(name).record(500);
    let snap = snapshot_of(name);
    assert_eq!(snap.percentile(f64::NAN), None);
    assert_eq!(snap.percentile(-0.1), None);
    assert_eq!(snap.percentile(100.1), None);
    assert_eq!(snap.percentile(f64::INFINITY), None);
}

#[test]
fn percentile_of_single_sample_is_its_bucket_bound_at_any_p() {
    let name = "obs_test.percentile_single_ns";
    recording_on();
    histogram(name).record(500); // bucket bound 512
    let snap = snapshot_of(name);
    for p in [0.0, 1.0, 50.0, 99.9, 100.0] {
        assert_eq!(snap.percentile(p), Some(512), "p = {p}");
    }
}

#[test]
fn percentile_walks_cumulative_bucket_counts() {
    let name = "obs_test.percentile_walk_ns";
    recording_on();
    let h = histogram(name);
    // 90 samples ≤1024, 10 samples ≤8192: p50 sits in the low bucket,
    // p95 and p100 in the high one.
    for _ in 0..90 {
        h.record(1000);
    }
    for _ in 0..10 {
        h.record(8000);
    }
    let snap = snapshot_of(name);
    assert_eq!(snap.percentile(50.0), Some(1024));
    assert_eq!(snap.percentile(90.0), Some(1024));
    assert_eq!(snap.percentile(95.0), Some(8192));
    assert_eq!(snap.percentile(100.0), Some(8192));
}

#[test]
fn histogram_snapshot_survives_serde_round_trip() {
    let name = "obs_test.serde_roundtrip_ns";
    recording_on();
    let h = histogram(name);
    for ns in [3, 700, 9001] {
        h.record(ns);
    }
    let snap = snapshot_of(name);
    let json = serde_json::to_string(&snap).unwrap();
    let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
    assert_eq!(back.percentile(50.0), snap.percentile(50.0));
}

#[test]
fn metrics_snapshot_survives_serde_round_trip() {
    let cname = "obs_test.serde_counter";
    let hname = "obs_test.serde_hist_ns";
    recording_on();
    subset3d_obs::counter(cname).add(42);
    histogram(hname).record(123);
    let snap = snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back.counter(cname), Some(42));
    assert_eq!(snap.counter(cname), back.counter(cname));
    assert_eq!(back.histograms.get(hname), snap.histograms.get(hname));
}

#[test]
fn files_written_with_retired_snapshot_fields_still_load() {
    // Snapshots and telemetry windows once carried `gauges` and
    // `counter_families` maps, and snapshots a diagnostic count of
    // recycled per-thread metric slots; files written then must still
    // load, with those fields ignored.
    let snapshot = r#"{"enabled": true, "counters": {"exec.batches": 4},
        "gauges": {"exec.workers": 2}, "histograms": {},
        "reset_epoch": 1, "shard_churn_epoch": 0,
        "counter_families": {"serve.ingested": {"label_key": "session",
            "cells": [{"slot": 1, "label": "session-1", "epoch": 1, "value": 3}]}},
        "gauge_families": {}, "histogram_families": {}}"#;
    let snap: MetricsSnapshot = serde_json::from_str(snapshot).expect("old snapshot loads");
    assert_eq!(snap.counter("exec.batches"), Some(4));

    let window = r#"{"index": 0, "unix_ms": 1, "elapsed_ns": 5, "duration_ns": 5,
        "delta": {"counters": {"serve.chunks_ingested": 2}, "gauges": {"exec.workers": 2},
            "histograms": {}, "counter_families": {}, "gauge_families": {},
            "histogram_families": {}},
        "rolling": {}}"#
        .replace('\n', " ");
    let windows = subset3d_obs::timeseries_from_jsonl(&window).expect("old window loads");
    assert_eq!(windows[0].delta.counters["serve.chunks_ingested"], 2);
}
