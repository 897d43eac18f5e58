//! Regression tests for label-slot conflation in delta snapshots.
//!
//! The bug: a family label slot recycled between two samples (serve
//! session churn) kept its slot index, so a naive `later - earlier`
//! delta subtracted the *dead* label's totals from the *new* label's —
//! attributing counts to the wrong interval and wrong label. The fix
//! keys every snapshot cell by `(slot, epoch)` and only subtracts when
//! the epochs match.

use std::sync::{Mutex, MutexGuard};
use subset3d_obs::{gauge_family, histogram_family, MetricsDelta, FAMILY_OVERFLOW_LABEL};

/// Serialises tests that flip the process-global enabled flag.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn churn_straddling_delta_attributes_counts_to_the_new_occupant() {
    let _guard = lock();
    subset3d_obs::set_enabled(true);

    // One exclusive slot forces session B to recycle session A's slot.
    let fam = histogram_family("churn.ingested_ns", "session", 1);

    let a = fam.claim("session-a");
    for _ in 0..100 {
        a.record(1_000);
    }
    let earlier = subset3d_obs::snapshot();

    // The churn straddles the sampling interval: A closes, B opens and
    // does strictly less work than A did.
    drop(a);
    let b = fam.claim("session-b");
    for _ in 0..30 {
        b.record(1_000);
    }
    let later = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);

    let earlier_cell = &earlier.histogram_families["churn.ingested_ns"].cells[0];
    let later_cell = &later.histogram_families["churn.ingested_ns"].cells[0];
    assert_eq!(earlier_cell.slot, later_cell.slot, "slot must be recycled");
    assert_ne!(
        earlier_cell.epoch, later_cell.epoch,
        "recycling must bump the epoch"
    );

    let delta = MetricsDelta::between(&earlier, &later);
    let cells = &delta.histogram_families["churn.ingested_ns"].cells;
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].label, "session-b");
    // A slot-keyed saturating delta would compute 30 - 100 = 0 and lose
    // B's activity entirely; the epoch check must attribute B's full
    // since-claim total to B.
    assert_eq!(cells[0].value.count, 30);
}

#[test]
fn same_occupant_across_samples_still_gets_a_plain_delta() {
    let _guard = lock();
    subset3d_obs::set_enabled(true);
    let fam = histogram_family("churn.steady_ns", "session", 2);
    let a = fam.claim("session-a");
    for _ in 0..10 {
        a.record(1_000);
    }
    let earlier = subset3d_obs::snapshot();
    for _ in 0..7 {
        a.record(1_000);
    }
    let later = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);

    let delta = MetricsDelta::between(&earlier, &later);
    let cell = delta.histogram_families["churn.steady_ns"]
        .cell("session-a")
        .expect("live label present");
    assert_eq!(cell.value.count, 7, "unchurned slots subtract normally");
}

#[test]
fn histogram_family_churn_does_not_conflate_latency_counts() {
    let _guard = lock();
    subset3d_obs::set_enabled(true);
    let fam = histogram_family("churn.ingest_ns", "session", 1);

    let a = fam.claim("session-a");
    for _ in 0..50 {
        a.record(1_000);
    }
    let earlier = subset3d_obs::snapshot();
    drop(a);

    let b = fam.claim("session-b");
    for _ in 0..5 {
        b.record(2_000_000);
    }
    let later = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);

    let delta = MetricsDelta::between(&earlier, &later);
    let cells = &delta.histogram_families["churn.ingest_ns"].cells;
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].label, "session-b");
    assert_eq!(cells[0].value.count, 5);
    // All of B's events are slow; none of A's fast events may bleed in.
    for bucket in &cells[0].value.buckets {
        assert!(
            bucket.le_ns >= 2_000_000,
            "fast-bucket residue from the dead label leaked into B's delta"
        );
    }
}

#[test]
fn gauge_family_churn_reports_the_new_occupants_level() {
    // Gauges are levels: a recycled slot must start from zero under the
    // new label, not carry the dead label's level forward.
    let _guard = lock();
    subset3d_obs::set_enabled(true);
    let fam = gauge_family("churn.occupancy", "session", 1);
    let a = fam.claim("session-a");
    a.set(900);
    let earlier = subset3d_obs::snapshot();
    drop(a);
    let b = fam.claim("session-b");
    let recycled = subset3d_obs::snapshot();
    b.set(40);
    let later = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);

    let before = &earlier.gauge_families["churn.occupancy"].cells[0];
    let fresh = &recycled.gauge_families["churn.occupancy"].cells[0];
    assert_eq!(before.slot, fresh.slot, "slot must be recycled");
    assert!(fresh.epoch > before.epoch, "recycling must bump the epoch");
    assert_eq!(
        (fresh.label.as_str(), fresh.value),
        ("session-b", 0),
        "the dead label's level leaked into the new occupant"
    );

    let delta = MetricsDelta::between(&earlier, &later);
    let cells = &delta.gauge_families["churn.occupancy"].cells;
    assert_eq!(cells.len(), 1);
    assert_eq!((cells[0].label.as_str(), cells[0].value), ("session-b", 40));
}

#[test]
fn repeated_churn_waves_never_produce_phantom_deltas() {
    // Many claim/record/release waves through a 2-slot family, sampling
    // between every wave: every per-wave delta must attribute exactly
    // the wave's own recorded total, whatever slot it landed on.
    let _guard = lock();
    subset3d_obs::set_enabled(true);
    let fam = histogram_family("churn.waves_ns", "session", 2);
    let mut prev = subset3d_obs::snapshot();
    for wave in 0u64..12 {
        let label = format!("wave-{wave}");
        let lease = fam.claim(&label);
        for _ in 0..=wave {
            lease.record(1_000);
        }
        let snap = subset3d_obs::snapshot();
        let delta = MetricsDelta::between(&prev, &snap);
        let cells = &delta.histogram_families["churn.waves_ns"].cells;
        assert_eq!(cells.len(), 1, "wave {wave}: exactly one active label");
        assert_eq!(cells[0].label, label);
        assert_eq!(
            cells[0].value.count,
            wave + 1,
            "wave {wave} delta conflated"
        );
        drop(lease);
        prev = snap;
    }
    subset3d_obs::set_enabled(false);
}

#[test]
fn overflow_spill_is_shared_but_never_epoch_conflated() {
    let _guard = lock();
    subset3d_obs::set_enabled(true);
    let fam = histogram_family("churn.spill_ns", "session", 1);
    let a = fam.claim("session-a");
    let b = fam.claim("session-b"); // spills: only one exclusive slot
    a.record(1_000);
    b.record(1_000);
    b.record(1_000);
    let earlier = subset3d_obs::snapshot();
    for _ in 0..3 {
        b.record(1_000);
    }
    let later = subset3d_obs::snapshot();
    subset3d_obs::set_enabled(false);

    let delta = MetricsDelta::between(&earlier, &later);
    let cells = &delta.histogram_families["churn.spill_ns"].cells;
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].label, FAMILY_OVERFLOW_LABEL);
    assert_eq!(cells[0].value.count, 3);
}
