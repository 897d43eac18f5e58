//! Labeled metric families: a small fixed set of label slots layered
//! over the metric primitives.
//!
//! A family is one metric name fanned out across a bounded table of
//! *label slots* (`session_id`, backend, pipeline stage…). Each slot
//! owns its own [`Gauge`] or [`Histogram`], so the recording hot path is
//! exactly the unlabeled path — relaxed atomics on the slot's metric —
//! plus one array index. All label bookkeeping (claim, release,
//! recycling) happens on a cold mutex.
//!
//! # Slot lifecycle and churn epochs
//!
//! A caller [`claim`](HistogramFamily::claim)s a slot for a label and
//! records through the returned lease; dropping the lease returns the
//! slot to the family's free list. Slots are recycled: when serve
//! sessions churn, the slot that carried `session-3` five minutes ago
//! may carry `session-41` now. Recycling *resets* the slot's metric and
//! bumps the slot's **churn epoch**, and every snapshot cell carries
//! that epoch — a delta between two snapshots must only subtract cells
//! whose epochs match, otherwise it would attribute the dead label's
//! counts to the new occupant (see
//! [`MetricsDelta`](crate::timeseries::MetricsDelta)).
//!
//! When every slot is taken, claims fall back to the shared overflow
//! slot labeled [`FAMILY_OVERFLOW_LABEL`]: bounded cardinality is a
//! promise, not a best effort. The overflow slot is never reset and its
//! epoch is fixed at zero.

use crate::metrics::{Gauge, Histogram};
use crate::snapshot::{FamilyCell, FamilySnapshot, HistogramSnapshot};
use std::sync::Mutex;

/// Label slot every family reserves as the shared overflow: claims that
/// find no free slot land here, and several leases may share it.
pub const FAMILY_OVERFLOW_SLOT: usize = 0;

/// Label reported for values recorded through the overflow slot.
pub const FAMILY_OVERFLOW_LABEL: &str = "~other";

/// Default exclusive label slots per family (the overflow slot is extra).
pub const DEFAULT_FAMILY_SLOTS: usize = 16;

/// Bookkeeping for one label slot.
#[derive(Debug)]
struct SlotState {
    /// Current (or, for a released slot, most recent) label. `None`
    /// until the slot is claimed for the first time.
    label: Option<String>,
    /// Bumped every time the slot is (re)claimed; snapshot deltas only
    /// subtract cells whose epochs match.
    epoch: u64,
}

#[derive(Debug)]
struct FamilyState {
    slots: Vec<SlotState>,
    /// Released exclusive slots, ready for reuse (top of stack first).
    free: Vec<usize>,
    next_epoch: u64,
}

/// Label bookkeeping shared by the two family kinds.
#[derive(Debug)]
pub(crate) struct FamilyCore {
    state: Mutex<FamilyState>,
}

impl FamilyCore {
    fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        FamilyCore {
            state: Mutex::new(FamilyState {
                slots: (0..=slots)
                    .map(|_| SlotState {
                        label: None,
                        epoch: 0,
                    })
                    .collect(),
                // Lowest index pops first.
                free: (1..=slots).rev().collect(),
                next_epoch: 1,
            }),
        }
    }

    /// Claims a slot for `label`; `true` when the slot is exclusive and
    /// freshly (re)assigned, so the caller must reset its metric.
    fn claim(&self, label: &str) -> (usize, bool) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.free.pop() {
            Some(idx) => {
                let epoch = state.next_epoch;
                state.next_epoch += 1;
                state.slots[idx] = SlotState {
                    label: Some(label.to_owned()),
                    epoch,
                };
                (idx, true)
            }
            None => {
                // Every exclusive slot is live: share the overflow slot
                // rather than growing the label set unboundedly.
                state.slots[FAMILY_OVERFLOW_SLOT].label = Some(FAMILY_OVERFLOW_LABEL.to_owned());
                (FAMILY_OVERFLOW_SLOT, false)
            }
        }
    }

    fn release(&self, slot: usize) {
        if slot == FAMILY_OVERFLOW_SLOT {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        // Label, epoch and values stay readable until the slot is
        // recycled, so a snapshot taken after release still attributes
        // the dead label's totals correctly.
        state.free.push(slot);
    }

    /// `(slot, label, epoch)` for every slot that ever carried a label.
    fn cells(&self) -> Vec<(usize, String, u64)> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, s)| s.label.clone().map(|l| (idx, l, s.epoch)))
            .collect()
    }

    fn slot_count(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slots
            .len()
    }
}

macro_rules! family {
    (
        $(#[$doc:meta])* $family:ident,
        $(#[$lease_doc:meta])* $lease:ident,
        $metric:ident, $value:ty, $snap:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $family {
            core: FamilyCore,
            label_key: String,
            metrics: Box<[$metric]>,
        }

        impl $family {
            pub(crate) fn new(label_key: &str, slots: usize) -> Self {
                let core = FamilyCore::new(slots);
                let metrics = (0..core.slot_count()).map(|_| $metric::new()).collect();
                $family {
                    core,
                    label_key: label_key.to_owned(),
                    metrics,
                }
            }

            /// The label key snapshots and exporters attach to every
            /// cell (e.g. `session`).
            pub fn label_key(&self) -> &str {
                &self.label_key
            }

            /// Claims a label slot and returns the recording lease;
            /// dropping the lease releases the slot for recycling. When
            /// every exclusive slot is live the lease shares the
            /// overflow slot under [`FAMILY_OVERFLOW_LABEL`].
            pub fn claim(&'static self, label: &str) -> $lease {
                let (slot, fresh) = self.core.claim(label);
                if fresh {
                    // The previous occupant's totals must not leak into
                    // the new label; nobody records into an unclaimed
                    // slot, so this reset races with no writer.
                    self.metrics[slot].reset();
                }
                $lease { family: self, slot }
            }

            pub(crate) fn reset(&self) {
                for m in self.metrics.iter() {
                    m.reset();
                }
            }

            pub(crate) fn snapshot(&self) -> FamilySnapshot<$value> {
                FamilySnapshot {
                    label_key: self.label_key.clone(),
                    cells: self
                        .core
                        .cells()
                        .into_iter()
                        .map(|(slot, label, epoch)| FamilyCell {
                            slot,
                            label,
                            epoch,
                            value: ($snap)(&self.metrics[slot]),
                        })
                        .collect(),
                }
            }
        }

        $(#[$lease_doc])*
        #[derive(Debug)]
        pub struct $lease {
            family: &'static $family,
            slot: usize,
        }

        impl $lease {
            /// The label slot this lease records into (diagnostics).
            pub fn slot(&self) -> usize {
                self.slot
            }
        }

        impl Drop for $lease {
            fn drop(&mut self) {
                self.family.core.release(self.slot);
            }
        }
    };
}

family!(
    /// A labeled [`Gauge`] family.
    GaugeFamily,
    /// A claim on one [`GaugeFamily`] label slot.
    GaugeLease,
    Gauge,
    i64,
    |m: &Gauge| m.get()
);

family!(
    /// A labeled [`Histogram`] family.
    HistogramFamily,
    /// A claim on one [`HistogramFamily`] label slot.
    HistogramLease,
    Histogram,
    HistogramSnapshot,
    HistogramSnapshot::of
);

impl GaugeLease {
    /// [`Gauge::set`] on the leased label slot.
    #[inline]
    pub fn set(&self, v: i64) {
        self.family.metrics[self.slot].set(v);
    }
}

impl HistogramLease {
    /// [`Histogram::record`] on the leased label slot.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.family.metrics[self.slot].record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gauge_family, histogram_family};

    fn with_metrics<R>(f: impl FnOnce() -> R) -> R {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let out = f();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn labels_record_into_distinct_slots() {
        with_metrics(|| {
            let fam = gauge_family("famtest.distinct", "session", 4);
            let a = fam.claim("s-1");
            let b = fam.claim("s-2");
            a.set(3);
            b.set(5);
            let snap = fam.snapshot();
            assert_eq!(snap.label_key, "session");
            let by_label = |l: &str| {
                snap.cells
                    .iter()
                    .find(|c| c.label == l)
                    .unwrap_or_else(|| panic!("label {l} missing"))
                    .value
            };
            assert_eq!(by_label("s-1"), 3);
            assert_eq!(by_label("s-2"), 5);
        });
    }

    #[test]
    fn recycled_slot_resets_and_bumps_epoch() {
        with_metrics(|| {
            let fam = histogram_family("famtest.recycle_ns", "session", 1);
            let a = fam.claim("first");
            for _ in 0..100 {
                a.record(64);
            }
            let (slot_a, epoch_a) = {
                let snap = fam.snapshot();
                let cell = snap.cells.iter().find(|c| c.label == "first").unwrap();
                (cell.slot, cell.epoch)
            };
            drop(a);
            let b = fam.claim("second");
            assert_eq!(b.slot(), slot_a, "released slot must be recycled");
            for _ in 0..7 {
                b.record(64);
            }
            let snap = fam.snapshot();
            let cell = snap.cells.iter().find(|c| c.slot == slot_a).unwrap();
            assert_eq!(cell.label, "second");
            assert!(cell.epoch > epoch_a, "recycling must bump the epoch");
            assert_eq!(
                cell.value.count, 7,
                "previous occupant's counts must not leak"
            );
        });
    }

    #[test]
    fn exhausted_families_spill_to_the_overflow_label() {
        with_metrics(|| {
            let fam = histogram_family("famtest.overflow_ns", "session", 2);
            let leases: Vec<_> = (0..5).map(|i| fam.claim(&format!("s-{i}"))).collect();
            let overflowed: Vec<_> = leases
                .iter()
                .filter(|l| l.slot() == FAMILY_OVERFLOW_SLOT)
                .collect();
            assert_eq!(overflowed.len(), 3, "two exclusive slots, three spill");
            for lease in &leases {
                lease.record(1);
            }
            let snap = fam.snapshot();
            let other = snap
                .cells
                .iter()
                .find(|c| c.label == FAMILY_OVERFLOW_LABEL)
                .expect("overflow cell");
            assert_eq!(other.slot, FAMILY_OVERFLOW_SLOT);
            assert_eq!(other.epoch, 0, "overflow epoch is fixed");
            assert_eq!(other.value.count, 3);
        });
    }

    #[test]
    fn released_labels_stay_visible_until_recycled() {
        with_metrics(|| {
            let fam = histogram_family("famtest.release_ns", "session", 2);
            let a = fam.claim("done");
            a.record(512);
            drop(a);
            let snap = fam.snapshot();
            let cell = snap.cells.iter().find(|c| c.label == "done").unwrap();
            assert_eq!(cell.value.count, 1);
        });
    }

    #[test]
    fn gauge_family_tracks_levels_per_label() {
        with_metrics(|| {
            let fam = gauge_family("famtest.occupancy", "session", 2);
            let a = fam.claim("s-1");
            a.set(9);
            a.set(7);
            let snap = fam.snapshot();
            assert_eq!(
                snap.cells.iter().find(|c| c.label == "s-1").unwrap().value,
                7
            );
        });
    }
}
