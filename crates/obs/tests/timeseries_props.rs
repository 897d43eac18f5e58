//! Property coverage for the telemetry exporters: Prometheus exposition
//! (label escaping, histogram bucket cumulativity) and the JSONL
//! time-series (serde round-trip, window ordering, delta
//! non-negativity).
//!
//! All inputs are synthesized [`MetricsSnapshot`] values, not registry
//! state, so the properties run in parallel without touching the
//! process-global enabled flag.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use subset3d_obs::{
    timeseries_from_jsonl, timeseries_to_jsonl, to_prometheus, validate_prometheus,
    validate_timeseries, BucketCount, FamilyCell, FamilySnapshot, HistogramSnapshot, MetricsDelta,
    MetricsSnapshot, TelemetryWindow, TimeSeries,
};

/// Characters a label value can contain, biased toward the ones that
/// need escaping in the exposition format.
fn label_strategy() -> impl Strategy<Value = String> {
    vec(0usize..8, 0..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| ['\\', '"', '\n', 'a', 'Z', '7', ' ', 'µ'][p])
            .collect()
    })
}

/// A structurally valid histogram snapshot: ascending power-of-two
/// bounds, positive per-bucket counts, `count` equal to the bucket sum.
fn histogram_strategy() -> impl Strategy<Value = HistogramSnapshot> {
    vec((0usize..40, 1u64..1000), 1..10).prop_map(|picks| {
        let mut by_bound: BTreeMap<u64, u64> = BTreeMap::new();
        for (exp, count) in picks {
            *by_bound.entry(1u64 << exp).or_insert(0) += count;
        }
        let buckets: Vec<BucketCount> = by_bound
            .into_iter()
            .map(|(le_ns, count)| BucketCount { le_ns, count })
            .collect();
        let count: u64 = buckets.iter().map(|b| b.count).sum();
        let max_ns = buckets.last().map_or(0, |b| b.le_ns);
        HistogramSnapshot {
            count,
            sum_ns: count * max_ns / 2,
            min_ns: buckets.first().map_or(0, |b| b.le_ns),
            max_ns,
            mean_ns: max_ns as f64 / 2.0,
            buckets,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any label value — backslashes, quotes, raw newlines, unicode —
    /// must escape into exposition text that stays line-structured and
    /// passes the structural validator.
    #[test]
    fn exposition_escapes_arbitrary_labels(labels in vec(label_strategy(), 1..5)) {
        let cells: Vec<FamilyCell<i64>> = labels
            .iter()
            .enumerate()
            .map(|(i, label)| FamilyCell {
                slot: i + 1,
                label: label.clone(),
                epoch: (i + 1) as u64,
                value: (i + 1) as i64,
            })
            .collect();
        let snap = MetricsSnapshot {
            gauge_families: [(
                "prop.labels".to_owned(),
                FamilySnapshot { label_key: "session".to_owned(), cells },
            )]
            .into(),
            ..MetricsSnapshot::default()
        };
        let text = to_prometheus(&snap);
        // One TYPE line plus exactly one sample line per cell: raw
        // newlines inside labels must have been escaped away.
        prop_assert_eq!(text.lines().count(), 1 + labels.len());
        let stats = validate_prometheus(&text)
            .unwrap_or_else(|e| panic!("validator rejected: {e}\n{text}"));
        prop_assert_eq!(stats.samples, labels.len());
    }

    /// Exported histograms are cumulative, `+Inf`-capped, and agree
    /// with their `_count`, for any bucket shape — as checked by the
    /// validator, which recomputes cumulativity independently.
    #[test]
    fn exposition_histograms_are_cumulative(
        plain in histogram_strategy(),
        labeled in histogram_strategy(),
        label in label_strategy(),
    ) {
        let snap = MetricsSnapshot {
            histograms: [("prop.plain_ns".to_owned(), plain.clone())].into(),
            histogram_families: [(
                "prop.labeled_ns".to_owned(),
                FamilySnapshot {
                    label_key: "session".to_owned(),
                    cells: vec![FamilyCell {
                        slot: 1,
                        label,
                        epoch: 1,
                        value: labeled,
                    }],
                },
            )]
            .into(),
            ..MetricsSnapshot::default()
        };
        let text = to_prometheus(&snap);
        let stats = validate_prometheus(&text)
            .unwrap_or_else(|e| panic!("validator rejected: {e}\n{text}"));
        prop_assert_eq!(stats.histogram_series, 2);
        // The +Inf bucket is the count: grep it out and check directly.
        let inf_line = text
            .lines()
            .find(|l| l.starts_with("prop_plain_ns_bucket") && l.contains("+Inf"))
            .expect("+Inf bucket line");
        let inf: u64 = inf_line.rsplit(' ').next().unwrap().parse().unwrap();
        prop_assert_eq!(inf, plain.count);
    }

    /// A series built from arbitrary monotone counter/histogram growth
    /// round-trips through JSONL bit-for-bit, keeps windows ordered,
    /// and never reports a negative (clamped-to-phantom) delta.
    #[test]
    fn jsonl_round_trips_ordered_nonnegative_windows(
        increments in vec((0u64..1000, histogram_strategy()), 1..8)
    ) {
        let mut series = TimeSeries::new(32, 4);
        let mut counter_total = 0u64;
        let mut hist_acc: BTreeMap<u64, u64> = BTreeMap::new();
        let mut hist_count = 0u64;
        let mut hist_sum = 0u64;
        for (i, (counter_inc, hist_inc)) in increments.iter().enumerate() {
            counter_total += counter_inc;
            for b in &hist_inc.buckets {
                *hist_acc.entry(b.le_ns).or_insert(0) += b.count;
            }
            hist_count += hist_inc.count;
            hist_sum += hist_inc.sum_ns;
            let snap = MetricsSnapshot {
                counters: [("prop.counter".to_owned(), counter_total)].into(),
                histograms: [(
                    "prop.hist_ns".to_owned(),
                    HistogramSnapshot {
                        count: hist_count,
                        sum_ns: hist_sum,
                        min_ns: 0,
                        max_ns: 0,
                        mean_ns: 0.0,
                        buckets: hist_acc
                            .iter()
                            .map(|(&le_ns, &count)| BucketCount { le_ns, count })
                            .collect(),
                    },
                )]
                .into(),
                ..MetricsSnapshot::default()
            };
            let i = i as u64;
            series.push(snap, 1_000 + i * 10, i * 1_000_000);
        }
        let windows: Vec<TelemetryWindow> = series.windows().cloned().collect();

        // Round-trip.
        let jsonl = timeseries_to_jsonl(&windows);
        let back = timeseries_from_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("parse failed: {e}"));
        prop_assert_eq!(&back, &windows);

        // Ordering + structural invariants.
        validate_timeseries(&back).unwrap_or_else(|e| panic!("validator rejected: {e}"));

        // Each window's delta is exactly that step's increment — the
        // u64 encoding can't go negative, and nothing may be clamped
        // away or double-counted either.
        let mut seen_counter = 0u64;
        let mut seen_hist = 0u64;
        for w in &back {
            seen_counter += w.delta.counters.get("prop.counter").copied().unwrap_or(0);
            seen_hist += w
                .delta
                .histograms
                .get("prop.hist_ns")
                .map_or(0, |d| d.count);
        }
        prop_assert_eq!(seen_counter, counter_total);
        prop_assert_eq!(seen_hist, hist_count);
    }

    /// `MetricsDelta::between` of two cumulative snapshots equals the
    /// true increment for counters and histogram counts.
    #[test]
    fn deltas_recover_the_true_increment(
        base in 0u64..100_000,
        inc in 0u64..100_000,
    ) {
        let earlier = MetricsSnapshot {
            counters: [("prop.delta".to_owned(), base)].into(),
            ..MetricsSnapshot::default()
        };
        let later = MetricsSnapshot {
            counters: [("prop.delta".to_owned(), base + inc)].into(),
            ..MetricsSnapshot::default()
        };
        let delta = MetricsDelta::between(&earlier, &later);
        prop_assert_eq!(delta.counters.get("prop.delta").copied().unwrap_or(0), inc);
    }
}
