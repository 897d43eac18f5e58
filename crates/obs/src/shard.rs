//! The per-thread shard-slot registry behind every metric.
//!
//! Each metric ([`crate::Counter`], [`crate::Gauge`],
//! [`crate::Histogram`]) owns a fixed table of [`MAX_SHARDS`]
//! cache-line-padded slots; a recording thread writes only into the slot
//! at its own *shard index*, so the hot path is an uncontended relaxed
//! store instead of a lock-prefixed RMW on a cache line every thread
//! fights over. This module hands out those indices.
//!
//! # Slot lifecycle
//!
//! A thread claims an index lazily, on its first recorded event (or
//! eagerly via [`claim_thread_slot`] — the executor pre-claims at worker
//! spawn so the one-time claim never lands inside a timed batch). The
//! claim is cached in a thread-local; when the thread exits, the index
//! returns to a free list for the next thread to reuse. The *values*
//! accumulated under an index live in each metric's own shard table, not
//! in thread-local storage, so nothing recorded by an exited thread is
//! ever lost — a snapshot always aggregates every slot.
//!
//! Indices `1..MAX_SHARDS` are exclusive: at most one live thread owns
//! each at a time, which is what makes plain load-modify-store writes
//! safe. Slot 0 (`SHARED_SLOT`) is the overflow: when more than
//! `MAX_SHARDS - 1` threads are alive at once (or a thread records while
//! its thread-locals are being torn down), the extras share it and fall
//! back to atomic `fetch_add`, trading the uncontended write for
//! correctness instead of losing events.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Slots in every metric's shard table. One slot is the shared overflow;
/// the rest serve up to `MAX_SHARDS - 1` concurrently live threads
/// uncontended — comfortably above the executor's pool size, which
/// tracks the machine's core count.
pub const MAX_SHARDS: usize = 64;

/// The overflow slot index, shared by threads that could not claim an
/// exclusive slot. Writers here use `fetch_add`, never plain stores.
pub(crate) const SHARED_SLOT: usize = 0;

/// A thread's claim on a shard-table index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Index into every metric's shard table.
    pub(crate) idx: usize,
    /// Whether this thread is the only live writer of `idx`. Exclusive
    /// slots take plain relaxed load/store; the shared slot must RMW.
    pub(crate) exclusive: bool,
}

/// Next never-claimed exclusive index; indices past `MAX_SHARDS - 1`
/// spill to the shared slot.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(SHARED_SLOT + 1);

/// Exclusive slots currently owned by a live thread (diagnostics only).
static SLOTS_LIVE: AtomicUsize = AtomicUsize::new(0);

/// Bumped every time an exited thread returns its exclusive slot to the
/// free list, i.e. every time a slot becomes eligible for recycling.
/// Snapshots record it so delta consumers can tell whether thread churn
/// happened between two samples (see [`crate::timeseries`]).
static CHURN_EPOCH: AtomicUsize = AtomicUsize::new(0);

/// Total exclusive-slot recyclings so far (monotone; see `CHURN_EPOCH`).
pub fn churn_epoch() -> u64 {
    CHURN_EPOCH.load(Ordering::Relaxed) as u64
}

/// Exclusive indices returned by exited threads, ready for reuse.
fn free_slots() -> &'static Mutex<Vec<usize>> {
    static FREE: OnceLock<Mutex<Vec<usize>>> = OnceLock::new();
    FREE.get_or_init(|| Mutex::new(Vec::new()))
}

/// `Cell` encoding of a claim: [`UNCLAIMED`], or `idx << 1 | exclusive`.
const UNCLAIMED: usize = usize::MAX;

fn encode(slot: Slot) -> usize {
    (slot.idx << 1) | usize::from(slot.exclusive)
}

fn decode(v: usize) -> Slot {
    Slot {
        idx: v >> 1,
        exclusive: v & 1 == 1,
    }
}

/// The thread's cached claim; `Drop` returns an exclusive index to the
/// free list when the thread exits.
struct SlotCell {
    encoded: Cell<usize>,
}

impl Drop for SlotCell {
    fn drop(&mut self) {
        let v = self.encoded.get();
        if v != UNCLAIMED {
            let slot = decode(v);
            if slot.exclusive {
                SLOTS_LIVE.fetch_sub(1, Ordering::Relaxed);
                CHURN_EPOCH.fetch_add(1, Ordering::Relaxed);
                free_slots()
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(slot.idx);
            }
        }
    }
}

thread_local! {
    static SLOT: SlotCell = const {
        SlotCell {
            encoded: Cell::new(UNCLAIMED),
        }
    };
}

/// The calling thread's slot, claimed on first use. Falls back to the
/// shared slot when the thread-local is already destroyed (a metric
/// recorded from another thread-local's destructor during thread exit).
#[inline]
pub(crate) fn slot() -> Slot {
    SLOT.try_with(|cell| {
        let v = cell.encoded.get();
        if v == UNCLAIMED {
            claim(cell)
        } else {
            decode(v)
        }
    })
    .unwrap_or(Slot {
        idx: SHARED_SLOT,
        exclusive: false,
    })
}

#[cold]
fn claim(cell: &SlotCell) -> Slot {
    let reused = free_slots().lock().unwrap_or_else(|e| e.into_inner()).pop();
    let idx = reused.unwrap_or_else(|| NEXT_SLOT.fetch_add(1, Ordering::Relaxed));
    let slot = if idx < MAX_SHARDS {
        SLOTS_LIVE.fetch_add(1, Ordering::Relaxed);
        Slot {
            idx,
            exclusive: true,
        }
    } else {
        // More live threads than slots: share the overflow slot. The
        // burned `NEXT_SLOT` tick is fine — it only ever grows.
        Slot {
            idx: SHARED_SLOT,
            exclusive: false,
        }
    };
    cell.encoded.set(encode(slot));
    slot
}

/// Pre-claims the calling thread's shard slot so the one-time claim
/// (a mutex lock) happens now rather than inside the first recorded
/// event. Worker pools call this at spawn; calling it again is free.
pub fn claim_thread_slot() {
    let _ = slot();
}

/// Slots in every metric's shard table ([`MAX_SHARDS`]).
pub fn shard_capacity() -> usize {
    MAX_SHARDS
}

/// Exclusive shard slots currently owned by a live thread. The shared
/// overflow slot is not counted.
pub fn shard_slots_in_use() -> usize {
    SLOTS_LIVE.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_stable_within_a_thread() {
        claim_thread_slot();
        let a = slot();
        let b = slot();
        assert_eq!(a.idx, b.idx);
        assert_eq!(a.exclusive, b.exclusive);
        assert!(a.idx < MAX_SHARDS);
    }

    #[test]
    fn exited_threads_return_their_slot() {
        // Far more sequential threads than slots: without the free list
        // returning exited threads' indices, the later ones would spill
        // to the shared overflow slot.
        for round in 0..3 * MAX_SHARDS {
            let s = std::thread::spawn(slot).join().unwrap();
            assert!(
                s.exclusive,
                "thread {round} spilled to the shared slot — exited slots not reused"
            );
        }
    }

    #[test]
    fn concurrent_threads_get_distinct_exclusive_slots() {
        // All eight threads must be alive at once when they claim —
        // exclusivity is only promised between concurrently live
        // threads (exited threads' slots are deliberately recycled).
        let barrier = std::sync::Barrier::new(8);
        let claimed: Vec<Slot> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let slot = slot();
                        barrier.wait();
                        slot
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let exclusive: Vec<usize> = claimed
            .iter()
            .filter(|s| s.exclusive)
            .map(|s| s.idx)
            .collect();
        let distinct: std::collections::BTreeSet<usize> = exclusive.iter().copied().collect();
        assert_eq!(exclusive.len(), distinct.len(), "shared exclusive slot");
        assert!(!distinct.contains(&SHARED_SLOT));
    }
}
