//! Serialisable point-in-time view of the registry.

use crate::metrics::{bucket_bound, Histogram, HISTOGRAM_BUCKETS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One non-empty histogram bucket: `count` values were at most `le_ns`
/// nanoseconds (and above the previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket, in nanoseconds.
    pub le_ns: u64,
    /// Number of recorded values in the bucket.
    pub count: u64,
}

/// Point-in-time view of one latency [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest recorded duration (0 when empty).
    pub min_ns: u64,
    /// Largest recorded duration (0 when empty).
    pub max_ns: u64,
    /// Mean recorded duration (0 when empty).
    pub mean_ns: f64,
    /// Non-empty buckets, in ascending bound order.
    pub buckets: Vec<BucketCount>,
}

/// Estimates the `p`-th percentile (`0.0..=100.0`) from bucket counts:
/// the inclusive upper bound of the bucket holding the
/// `ceil(p/100 · count)`-th smallest sample. `None` when `count` is zero
/// or `p` is NaN or outside `0..=100`; exact to within one power-of-two
/// bucket otherwise. Shared by [`HistogramSnapshot::percentile`] and the
/// rolling-window digests in [`crate::timeseries`].
pub(crate) fn percentile_of_buckets(count: u64, buckets: &[BucketCount], p: f64) -> Option<u64> {
    if count == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for bucket in buckets {
        seen += bucket.count;
        if seen >= rank {
            return Some(bucket.le_ns);
        }
    }
    buckets.last().map(|b| b.le_ns)
}

impl HistogramSnapshot {
    /// Estimates the `p`-th percentile (`0.0..=100.0`) from the bucket
    /// counts: the inclusive upper bound of the bucket holding the
    /// `ceil(p/100 · count)`-th smallest sample. `None` when the
    /// histogram is empty or `p` is NaN or outside `0..=100`; exact to
    /// within one power-of-two bucket otherwise.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        percentile_of_buckets(self.count, &self.buckets, p)
    }

    pub(crate) fn of(hist: &Histogram) -> Self {
        let count = hist.count();
        let sum_ns = hist.sum_ns();
        let counts = hist.bucket_counts();
        HistogramSnapshot {
            count,
            sum_ns,
            min_ns: hist.min_ns().unwrap_or(0),
            max_ns: hist.max_ns().unwrap_or(0),
            mean_ns: if count == 0 {
                0.0
            } else {
                sum_ns as f64 / count as f64
            },
            buckets: (0..HISTOGRAM_BUCKETS)
                .filter(|&i| counts[i] > 0)
                .map(|i| BucketCount {
                    le_ns: bucket_bound(i),
                    count: counts[i],
                })
                .collect(),
        }
    }
}

/// One label slot's value inside a [`FamilySnapshot`].
///
/// The `(slot, epoch)` pair identifies one *occupancy* of the slot: a
/// recycled slot keeps its index but gets a fresh epoch, so delta code
/// can tell "same label, later totals" apart from "new label reusing the
/// slot" (see `MetricsDelta` in [`crate::timeseries`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyCell<V> {
    /// Label slot index within the family.
    pub slot: usize,
    /// Label carried by the slot when the snapshot was taken.
    pub label: String,
    /// Churn epoch of the slot's current occupancy.
    pub epoch: u64,
    /// The slot's metric value.
    pub value: V,
}

/// Point-in-time view of one labeled metric family.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FamilySnapshot<V> {
    /// The label key exporters attach to every cell (e.g. `session`).
    pub label_key: String,
    /// One cell per slot that ever carried a label, ascending slot order.
    pub cells: Vec<FamilyCell<V>>,
}

impl<V> FamilySnapshot<V> {
    /// The cell carrying `label`, if any.
    pub fn cell(&self, label: &str) -> Option<&FamilyCell<V>> {
        self.cells.iter().find(|c| c.label == label)
    }
}

// The vendored serde shim's derive cannot handle generic types, so the
// two generic family containers implement its `Value`-tree traits by
// hand, mirroring exactly what the derive would emit.

impl<V: Serialize> Serialize for FamilyCell<V> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("slot".to_owned(), self.slot.to_value()),
            ("label".to_owned(), self.label.to_value()),
            ("epoch".to_owned(), self.epoch.to_value()),
            ("value".to_owned(), self.value.to_value()),
        ])
    }
}

impl<V: Deserialize> Deserialize for FamilyCell<V> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", v))?;
        Ok(FamilyCell {
            slot: serde::__private::de_field(fields, "slot")?,
            label: serde::__private::de_field(fields, "label")?,
            epoch: serde::__private::de_field(fields, "epoch")?,
            value: serde::__private::de_field(fields, "value")?,
        })
    }
}

impl<V: Serialize> Serialize for FamilySnapshot<V> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("label_key".to_owned(), self.label_key.to_value()),
            ("cells".to_owned(), self.cells.to_value()),
        ])
    }
}

impl<V: Deserialize> Deserialize for FamilySnapshot<V> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", v))?;
        Ok(FamilySnapshot {
            label_key: serde::__private::de_field(fields, "label_key")?,
            cells: serde::__private::de_field(fields, "cells")?,
        })
    }
}

/// Every registered metric's value at one instant — what the CLI's
/// `--metrics` flag and `stats` subcommand print, and what
/// `bench_report` folds into `BENCH_pipeline.json`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether recording was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Bumped by every [`crate::reset`]; deltas across differing reset
    /// epochs treat the earlier snapshot as all-zero instead of
    /// clamping to nothing.
    #[serde(default)]
    pub reset_epoch: u64,
    /// Labeled gauge families by name.
    #[serde(default)]
    pub gauge_families: BTreeMap<String, FamilySnapshot<i64>>,
    /// Labeled histogram families by name.
    #[serde(default)]
    pub histogram_families: BTreeMap<String, FamilySnapshot<HistogramSnapshot>>,
}

impl MetricsSnapshot {
    /// The value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Total recorded time of a histogram in milliseconds, if
    /// registered.
    pub fn total_ms(&self, name: &str) -> Option<f64> {
        self.histograms.get(name).map(|h| h.sum_ns as f64 / 1e6)
    }
}
