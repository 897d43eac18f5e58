//! Time-series sampling over the metric registry.
//!
//! A [`TelemetrySampler`] takes periodic [`MetricsSnapshot`]s and folds
//! each one into a [`TimeSeries`]: a fixed-capacity ring of
//! [`TelemetryWindow`]s, where every window holds the *delta* since the
//! previous sample ([`MetricsDelta`]) plus rolling percentile digests
//! (p50/p90/p99 over the last N windows, [`RollingDigest`]) computed by
//! merging the windows' histogram bucket deltas. The serve replay driver
//! samples once per chunk round; `stats --watch` samples per refresh
//! tick; the JSONL exporter ([`timeseries_to_jsonl`]) appends one window
//! per line.
//!
//! # Delta correctness under churn and resets
//!
//! Two snapshots are only subtractable when nothing was re-zeroed
//! between them. Two mechanisms guard that:
//!
//! * a [`crate::reset`] between samples bumps the snapshot's
//!   `reset_epoch`; a delta across differing reset epochs treats the
//!   earlier snapshot as all-zero (rebase) instead of clamping every
//!   value to nothing;
//! * a recycled family label slot (serve session churn) bumps the
//!   slot's per-occupancy epoch; a delta only subtracts family cells
//!   whose `(slot, epoch)` match, and attributes a changed-epoch cell's
//!   full value to the *new* label — the dead label's residual is
//!   dropped rather than misattributed.
//!
//! Snapshots are relaxed-atomic reads taken while other threads may be
//! recording, so a histogram delta's bucket total can be one event off
//! its `count` within a window; the discrepancy corrects itself in the
//! next window and all deltas stay non-negative by construction.

use crate::snapshot::{
    percentile_of_buckets, BucketCount, FamilyCell, FamilySnapshot, HistogramSnapshot,
    MetricsSnapshot,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant, SystemTime};

/// What one histogram recorded during one window: count/sum deltas and
/// the per-bucket increments (ascending bound order, zero buckets
/// omitted).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramDelta {
    /// Durations recorded during the window.
    pub count: u64,
    /// Nanoseconds accumulated during the window.
    pub sum_ns: u64,
    /// Per-bucket increments, ascending `le_ns`, zero buckets omitted.
    pub buckets: Vec<BucketCount>,
}

impl HistogramDelta {
    fn between(earlier: Option<&HistogramSnapshot>, later: &HistogramSnapshot) -> Self {
        let prev_buckets: BTreeMap<u64, u64> = earlier
            .map(|e| e.buckets.iter().map(|b| (b.le_ns, b.count)).collect())
            .unwrap_or_default();
        HistogramDelta {
            count: later.count.saturating_sub(earlier.map_or(0, |e| e.count)),
            sum_ns: later.sum_ns.saturating_sub(earlier.map_or(0, |e| e.sum_ns)),
            buckets: later
                .buckets
                .iter()
                .filter_map(|b| {
                    let d = b
                        .count
                        .saturating_sub(prev_buckets.get(&b.le_ns).copied().unwrap_or(0));
                    (d > 0).then_some(BucketCount {
                        le_ns: b.le_ns,
                        count: d,
                    })
                })
                .collect(),
        }
    }

    /// Whether the window saw no events on this histogram.
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.buckets.is_empty()
    }
}

/// What changed between two [`MetricsSnapshot`]s.
///
/// Counters and histograms are per-window increments (zero entries
/// omitted); gauge families are levels, so they carry the later
/// snapshot's point-in-time values verbatim.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsDelta {
    /// Counter increments by name (zero increments omitted).
    pub counters: BTreeMap<String, u64>,
    /// Histogram increments by name (event-free histograms omitted).
    pub histograms: BTreeMap<String, HistogramDelta>,
    /// Labeled gauge family levels at the later snapshot.
    #[serde(default)]
    pub gauge_families: BTreeMap<String, FamilySnapshot<i64>>,
    /// Labeled histogram family increments (epoch-checked per cell).
    #[serde(default)]
    pub histogram_families: BTreeMap<String, FamilySnapshot<HistogramDelta>>,
}

/// The earlier snapshot's cell occupying `slot` — usable as a baseline
/// only when its epoch matches, i.e. the slot was not recycled between
/// the samples.
fn matching_cell<V>(
    earlier: Option<&FamilySnapshot<V>>,
    slot: usize,
    epoch: u64,
) -> Option<&FamilyCell<V>> {
    earlier?
        .cells
        .iter()
        .find(|c| c.slot == slot && c.epoch == epoch)
}

impl MetricsDelta {
    /// The change from `earlier` to `later`.
    ///
    /// When the two snapshots disagree on `reset_epoch` (a
    /// [`crate::reset`] ran in between), `earlier` is treated as
    /// all-zero, so the delta is `later`'s since-reset totals. Family
    /// cells whose slot was recycled between the samples (epoch
    /// mismatch) contribute their full since-claim value under the new
    /// label.
    pub fn between(earlier: &MetricsSnapshot, later: &MetricsSnapshot) -> Self {
        let rebased;
        let earlier = if earlier.reset_epoch == later.reset_epoch {
            earlier
        } else {
            rebased = MetricsSnapshot::default();
            &rebased
        };
        MetricsDelta {
            counters: later
                .counters
                .iter()
                .filter_map(|(name, &v)| {
                    let d = v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
                    (d > 0).then(|| (name.clone(), d))
                })
                .collect(),
            histograms: later
                .histograms
                .iter()
                .filter_map(|(name, h)| {
                    let d = HistogramDelta::between(earlier.histograms.get(name), h);
                    (!d.is_empty()).then(|| (name.clone(), d))
                })
                .collect(),
            gauge_families: later
                .gauge_families
                .iter()
                .filter(|(_, fam)| !fam.cells.is_empty())
                .map(|(name, fam)| (name.clone(), fam.clone()))
                .collect(),
            histogram_families: later
                .histogram_families
                .iter()
                .map(|(name, fam)| {
                    let prev = earlier.histogram_families.get(name);
                    let cells = fam
                        .cells
                        .iter()
                        .filter_map(|c| {
                            let base = matching_cell(prev, c.slot, c.epoch).map(|p| &p.value);
                            let d = HistogramDelta::between(base, &c.value);
                            (!d.is_empty()).then(|| FamilyCell {
                                slot: c.slot,
                                label: c.label.clone(),
                                epoch: c.epoch,
                                value: d,
                            })
                        })
                        .collect::<Vec<_>>();
                    (
                        name.clone(),
                        FamilySnapshot {
                            label_key: fam.label_key.clone(),
                            cells,
                        },
                    )
                })
                .filter(|(_, fam)| !fam.cells.is_empty())
                .collect(),
        }
    }

    /// Every histogram increment in the delta, flat, keyed by
    /// [`rolling_key`]: plain histograms under their name, family cells
    /// under `name{label_key="label"}`.
    pub fn histogram_deltas(&self) -> impl Iterator<Item = (String, &HistogramDelta)> {
        self.histograms
            .iter()
            .map(|(name, d)| (name.clone(), d))
            .chain(self.histogram_families.iter().flat_map(|(name, fam)| {
                fam.cells
                    .iter()
                    .map(move |c| (rolling_key(name, &fam.label_key, &c.label), &c.value))
            }))
    }
}

/// The key under which a family cell's rolling digest is filed:
/// `name{label_key="label"}` (a Prometheus-style series selector).
pub fn rolling_key(name: &str, label_key: &str, label: &str) -> String {
    format!("{name}{{{label_key}=\"{label}\"}}")
}

/// Percentiles of one histogram over the last N windows, computed from
/// the merged bucket deltas. Bucketed percentiles report the bucket's
/// inclusive upper bound, so each is exact to within one power-of-two
/// bucket (at most 2× the exact sample).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollingDigest {
    /// Windows merged into this digest.
    pub windows: usize,
    /// Events observed across those windows.
    pub count: u64,
    /// 50th percentile, nanoseconds (bucket upper bound).
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds (bucket upper bound).
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds (bucket upper bound).
    pub p99_ns: u64,
}

/// One sampling interval: the delta since the previous sample plus the
/// rolling digests as of this window.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryWindow {
    /// Zero-based position in the series (monotone, survives eviction).
    pub index: u64,
    /// Wall-clock sample time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Nanoseconds since the series' baseline sample.
    pub elapsed_ns: u64,
    /// Nanoseconds covered by this window (since the previous sample).
    pub duration_ns: u64,
    /// What changed during the window.
    pub delta: MetricsDelta,
    /// Rolling p50/p90/p99 per histogram series (see [`rolling_key`]),
    /// merged over the last `rolling_windows` windows; event-free series
    /// are omitted.
    pub rolling: BTreeMap<String, RollingDigest>,
}

/// Fixed-capacity ring of [`TelemetryWindow`]s with delta bookkeeping.
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    rolling_windows: usize,
    windows: VecDeque<TelemetryWindow>,
    baseline: MetricsSnapshot,
    prev_elapsed_ns: u64,
    next_index: u64,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` windows, with rolling
    /// digests merged over the last `rolling_windows` windows (both
    /// floored at 1). The baseline is the all-zero snapshot until
    /// [`seed`](TimeSeries::seed) or the first push.
    pub fn new(capacity: usize, rolling_windows: usize) -> Self {
        TimeSeries {
            capacity: capacity.max(1),
            rolling_windows: rolling_windows.max(1),
            windows: VecDeque::new(),
            baseline: MetricsSnapshot::default(),
            prev_elapsed_ns: 0,
            next_index: 0,
            dropped: 0,
        }
    }

    /// Sets the baseline the next push deltas against, without producing
    /// a window. The sampler seeds with the snapshot taken at
    /// construction so the first window covers only the sampler's
    /// lifetime, not the process's.
    pub fn seed(&mut self, baseline: MetricsSnapshot) {
        self.baseline = baseline;
    }

    /// Folds `snapshot` into the series as the next window and returns
    /// it. `elapsed_ns` is since the series baseline and must be
    /// non-decreasing across pushes; `unix_ms` is the wall-clock stamp.
    pub fn push(
        &mut self,
        snapshot: MetricsSnapshot,
        unix_ms: u64,
        elapsed_ns: u64,
    ) -> &TelemetryWindow {
        let delta = MetricsDelta::between(&self.baseline, &snapshot);
        let window = TelemetryWindow {
            index: self.next_index,
            unix_ms,
            elapsed_ns,
            duration_ns: elapsed_ns.saturating_sub(self.prev_elapsed_ns),
            delta,
            rolling: BTreeMap::new(),
        };
        self.next_index += 1;
        self.baseline = snapshot;
        self.prev_elapsed_ns = elapsed_ns;
        self.windows.push_back(window);
        if self.windows.len() > self.capacity {
            self.windows.pop_front();
            self.dropped += 1;
        }
        let rolling = self.rolling_digests();
        let last = self.windows.back_mut().expect("just pushed");
        last.rolling = rolling;
        last
    }

    /// Merges the histogram deltas of the last `rolling_windows` windows
    /// into per-series digests.
    fn rolling_digests(&self) -> BTreeMap<String, RollingDigest> {
        let tail_start = self.windows.len().saturating_sub(self.rolling_windows);
        let mut merged: BTreeMap<String, (usize, u64, BTreeMap<u64, u64>)> = BTreeMap::new();
        let mut spanned = 0usize;
        for window in self.windows.iter().skip(tail_start) {
            spanned += 1;
            for (key, delta) in window.delta.histogram_deltas() {
                let entry = merged.entry(key).or_default();
                entry.1 += delta.count;
                for b in &delta.buckets {
                    *entry.2.entry(b.le_ns).or_insert(0) += b.count;
                }
            }
        }
        merged
            .into_iter()
            .filter_map(|(key, (_, count, buckets))| {
                let buckets: Vec<BucketCount> = buckets
                    .into_iter()
                    .map(|(le_ns, count)| BucketCount { le_ns, count })
                    .collect();
                // Rank against the bucket total: a torn mid-run read can
                // leave `count` one event ahead of the buckets, and the
                // digest must never walk past the last bucket.
                let bucket_total: u64 = buckets.iter().map(|b| b.count).sum();
                if bucket_total == 0 {
                    return None;
                }
                Some((
                    key,
                    RollingDigest {
                        windows: spanned,
                        count,
                        p50_ns: percentile_of_buckets(bucket_total, &buckets, 50.0)?,
                        p90_ns: percentile_of_buckets(bucket_total, &buckets, 90.0)?,
                        p99_ns: percentile_of_buckets(bucket_total, &buckets, 99.0)?,
                    },
                ))
            })
            .collect()
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &TelemetryWindow> {
        self.windows.iter()
    }

    /// The most recent window, if any.
    pub fn latest(&self) -> Option<&TelemetryWindow> {
        self.windows.back()
    }

    /// Retained window count.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the series into its retained windows, oldest first.
    pub fn into_windows(self) -> Vec<TelemetryWindow> {
        self.windows.into()
    }
}

/// How a [`TelemetrySampler`] samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Minimum time between samples; zero samples on every call.
    pub interval: Duration,
    /// Ring capacity, in windows.
    pub capacity: usize,
    /// Windows merged into each rolling digest.
    pub rolling_windows: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(250),
            capacity: 512,
            rolling_windows: 8,
        }
    }
}

/// Interval-gated snapshot sampler feeding a [`TimeSeries`].
///
/// Construction takes the baseline snapshot; every subsequent sample is
/// a delta since the previous one. Wall-clock stamps are derived from
/// one `SystemTime` reading at construction plus the monotonic elapsed
/// time, so `unix_ms` is monotone even if the system clock steps.
#[derive(Debug)]
pub struct TelemetrySampler {
    config: SamplerConfig,
    start: Instant,
    start_unix_ms: u64,
    last_sample: Option<Instant>,
    series: TimeSeries,
}

impl TelemetrySampler {
    /// A sampler baselined on the current metric values.
    pub fn new(config: SamplerConfig) -> Self {
        let mut series = TimeSeries::new(config.capacity, config.rolling_windows);
        series.seed(crate::snapshot());
        TelemetrySampler {
            config,
            start: Instant::now(),
            start_unix_ms: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            last_sample: None,
            series,
        }
    }

    /// Samples if at least the configured interval has passed since the
    /// previous sample (always, for a zero interval).
    pub fn maybe_sample(&mut self) -> Option<&TelemetryWindow> {
        let due = match self.last_sample {
            None => true,
            Some(last) => last.elapsed() >= self.config.interval,
        };
        due.then(|| self.sample_now())
    }

    /// Takes a sample unconditionally (the forced end-of-run window).
    pub fn sample_now(&mut self) -> &TelemetryWindow {
        self.last_sample = Some(Instant::now());
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        let unix_ms = self.start_unix_ms + elapsed_ns / 1_000_000;
        self.series.push(crate::snapshot(), unix_ms, elapsed_ns)
    }

    /// The accumulated series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the sampler into its series.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }
}

/// Serialises windows as append-only JSONL: one window per line, oldest
/// first, trailing newline included when non-empty.
pub fn timeseries_to_jsonl<'a>(windows: impl IntoIterator<Item = &'a TelemetryWindow>) -> String {
    let mut out = String::new();
    for window in windows {
        out.push_str(&serde_json::to_string(window).expect("window serialises"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL time-series back into windows (blank lines skipped).
///
/// # Errors
///
/// Returns the offending line number and parse error.
pub fn timeseries_from_jsonl(text: &str) -> Result<Vec<TelemetryWindow>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// What [`validate_timeseries`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeseriesStats {
    /// Windows validated.
    pub windows: usize,
    /// Wall-clock span from first to last window, milliseconds.
    pub span_ms: u64,
    /// Rolling digests checked across all windows.
    pub digests: usize,
}

/// Structural lint of an exported time-series: strictly increasing
/// window indices, monotone timestamps (both wall-clock and elapsed),
/// ascending non-empty histogram delta buckets, and ordered rolling
/// percentiles (`p50 ≤ p90 ≤ p99`, positive counts).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_timeseries(windows: &[TelemetryWindow]) -> Result<TimeseriesStats, String> {
    let mut digests = 0usize;
    for (i, pair) in windows.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        if b.index <= a.index {
            return Err(format!(
                "window {} index {} does not increase past {}",
                i + 1,
                b.index,
                a.index
            ));
        }
        if b.unix_ms < a.unix_ms {
            return Err(format!(
                "window {} unix_ms {} precedes {}",
                b.index, b.unix_ms, a.unix_ms
            ));
        }
        if b.elapsed_ns < a.elapsed_ns {
            return Err(format!(
                "window {} elapsed_ns {} precedes {}",
                b.index, b.elapsed_ns, a.elapsed_ns
            ));
        }
    }
    for window in windows {
        for (name, delta) in window.delta.histogram_deltas() {
            let mut prev = None;
            for b in &delta.buckets {
                if b.count == 0 {
                    return Err(format!(
                        "window {} histogram {name} has an empty bucket entry",
                        window.index
                    ));
                }
                if prev.is_some_and(|p| b.le_ns <= p) {
                    return Err(format!(
                        "window {} histogram {name} buckets not ascending at le={}",
                        window.index, b.le_ns
                    ));
                }
                prev = Some(b.le_ns);
            }
        }
        for (key, digest) in &window.rolling {
            digests += 1;
            if digest.count == 0 {
                return Err(format!(
                    "window {} digest {key} has zero count",
                    window.index
                ));
            }
            if !(digest.p50_ns <= digest.p90_ns && digest.p90_ns <= digest.p99_ns) {
                return Err(format!(
                    "window {} digest {key} percentiles out of order: p50={} p90={} p99={}",
                    window.index, digest.p50_ns, digest.p90_ns, digest.p99_ns
                ));
            }
        }
    }
    Ok(TimeseriesStats {
        windows: windows.len(),
        span_ms: match (windows.first(), windows.last()) {
            (Some(first), Some(last)) => last.unix_ms.saturating_sub(first.unix_ms),
            _ => 0,
        },
        digests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge_family, histogram, histogram_family};

    fn snap_after(f: impl FnOnce()) -> MetricsSnapshot {
        f();
        crate::snapshot()
    }

    #[test]
    fn deltas_subtract_counters_and_histograms() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let earlier = snap_after(|| {
            counter("ts.delta_counter").add(10);
            histogram("ts.delta_hist_ns").record(100);
        });
        let gauge = gauge_family("ts.delta_gauge", "session", 1).claim("s-1");
        let later = snap_after(|| {
            counter("ts.delta_counter").add(5);
            gauge.set(3);
            histogram("ts.delta_hist_ns").record(100_000);
        });
        crate::set_enabled(false);
        let delta = MetricsDelta::between(&earlier, &later);
        assert_eq!(delta.counters.get("ts.delta_counter"), Some(&5));
        let level = delta.gauge_families["ts.delta_gauge"].cell("s-1").unwrap();
        assert_eq!(level.value, 3, "gauge levels pass through verbatim");
        let h = &delta.histograms["ts.delta_hist_ns"];
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.len(), 1);
        assert!(h.buckets[0].le_ns >= 100_000);
    }

    #[test]
    fn delta_across_a_reset_rebases_instead_of_clamping() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let earlier = snap_after(|| counter("ts.reset_counter").add(100));
        crate::reset();
        let later = snap_after(|| counter("ts.reset_counter").add(7));
        crate::set_enabled(false);
        assert_ne!(earlier.reset_epoch, later.reset_epoch);
        let delta = MetricsDelta::between(&earlier, &later);
        // Without the rebase this would be saturating_sub(7, 100) = 0.
        assert_eq!(delta.counters.get("ts.reset_counter"), Some(&7));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut series = TimeSeries::new(2, 4);
        for i in 0..5u64 {
            series.push(MetricsSnapshot::default(), i * 10, i * 10_000_000);
        }
        assert_eq!(series.len(), 2);
        assert_eq!(series.dropped(), 3);
        let indices: Vec<u64> = series.windows().map(|w| w.index).collect();
        assert_eq!(indices, vec![3, 4]);
    }

    #[test]
    fn rolling_digest_merges_the_last_n_windows() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let mut series = TimeSeries::new(16, 2);
        series.seed(crate::snapshot());
        // Window 1: one slow event. Window 2: many fast events. Window
        // 3: nothing new. With rolling_windows=2, window 3's digest
        // sees only window 2's and 3's deltas — the slow event ages out.
        histogram("ts.rolling_hist_ns").record(1 << 20);
        series.push(crate::snapshot(), 1, 1);
        for _ in 0..9 {
            histogram("ts.rolling_hist_ns").record(4);
        }
        series.push(crate::snapshot(), 2, 2);
        let w2 = series.latest().unwrap();
        let d2 = &w2.rolling["ts.rolling_hist_ns"];
        assert_eq!(d2.count, 10);
        assert_eq!(d2.p99_ns, 1 << 20, "slow event still inside the window");
        series.push(crate::snapshot(), 3, 3);
        crate::set_enabled(false);
        let w3 = series.latest().unwrap();
        let d3 = &w3.rolling["ts.rolling_hist_ns"];
        assert_eq!(d3.count, 9);
        assert_eq!(d3.p99_ns, 4, "slow event aged out of the rolling span");
    }

    #[test]
    fn family_churn_straddling_delta_attributes_to_the_new_label() {
        // The exact conflation scenario: a slot recycled between two
        // samples must not have the old occupant's totals subtracted
        // from the new occupant's.
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let fam = histogram_family("ts.churn_fam_ns", "session", 1);
        let a = fam.claim("sess-a");
        for _ in 0..100 {
            a.record(1000);
        }
        let earlier = crate::snapshot();
        drop(a);
        let b = fam.claim("sess-b");
        for _ in 0..30 {
            b.record(2000);
        }
        let later = crate::snapshot();
        crate::set_enabled(false);
        let delta = MetricsDelta::between(&earlier, &later);
        let fam_delta = &delta.histogram_families["ts.churn_fam_ns"];
        assert_eq!(fam_delta.cells.len(), 1);
        let cell = &fam_delta.cells[0];
        assert_eq!(cell.label, "sess-b");
        assert_eq!(
            cell.value.count, 30,
            "new occupant's full activity, not clamped by the old total"
        );
    }

    #[test]
    fn jsonl_round_trips_and_validates() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let mut series = TimeSeries::new(8, 4);
        series.seed(crate::snapshot());
        for i in 1..=3u64 {
            histogram("ts.jsonl_hist_ns").record(i * 100);
            series.push(crate::snapshot(), 1000 + i, i * 1_000_000);
        }
        crate::set_enabled(false);
        let windows: Vec<TelemetryWindow> = series.windows().cloned().collect();
        let jsonl = timeseries_to_jsonl(&windows);
        assert_eq!(jsonl.lines().count(), 3);
        let back = timeseries_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, windows);
        let stats = validate_timeseries(&back).unwrap();
        assert_eq!(stats.windows, 3);
        assert!(stats.digests >= 3);
    }

    #[test]
    fn validator_rejects_out_of_order_windows() {
        let w1 = TelemetryWindow {
            index: 5,
            unix_ms: 100,
            ..TelemetryWindow::default()
        };
        let w2 = TelemetryWindow {
            index: 4,
            unix_ms: 200,
            ..TelemetryWindow::default()
        };
        let err = validate_timeseries(&[w1, w2]).unwrap_err();
        assert!(err.contains("does not increase"), "{err}");
    }

    #[test]
    fn sampler_honours_its_interval() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let mut sampler = TelemetrySampler::new(SamplerConfig {
            interval: Duration::from_secs(3600),
            capacity: 8,
            rolling_windows: 4,
        });
        assert!(sampler.maybe_sample().is_some(), "first sample is free");
        assert!(
            sampler.maybe_sample().is_none(),
            "hour-long interval gates the second"
        );
        sampler.sample_now();
        crate::set_enabled(false);
        assert_eq!(sampler.series().len(), 2);
        let windows: Vec<&TelemetryWindow> = sampler.series().windows().collect();
        assert!(windows[1].unix_ms >= windows[0].unix_ms);
        assert!(windows[1].elapsed_ns >= windows[0].elapsed_ns);
    }
}
