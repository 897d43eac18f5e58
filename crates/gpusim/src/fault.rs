//! Test-only fault injection for the memo layer (mutation testing).
//!
//! Compiled only under the `fault-injection` cargo feature, and inert even
//! then until [`arm`] is called. When armed, every value a batch cache
//! serves from its **hit path** has the last mantissa bit of its draw
//! time flipped — a one-ulp corruption, the smallest possible divergence.
//! The one hook covers both kinds of cache: a memoizing `Simulator`'s
//! full `DrawCost`s and a `SweepSession`'s rows of draw times. The
//! testkit's mutation test arms the fault and asserts that the
//! differential oracle reports it and that every warm sweep's per-draw
//! digests move, demonstrating that both comparisons would catch even a
//! minimal memoization bug.
//!
//! The switch is process-global; tests that arm it must disarm before
//! finishing (each integration-test binary is its own process, so the
//! blast radius is the arming test's own binary).

use crate::memo::DrawValue;
use std::sync::atomic::{AtomicBool, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Starts corrupting batch-cache hits (one-ulp flip of every draw time).
pub fn arm() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Stops corrupting; subsequent hits are served verbatim again.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// Whether the fault is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::SeqCst)
}

/// Applies the armed fault to a value served from the batch-cache hit
/// path.
pub(crate) fn corrupt_hit<T: DrawValue>(value: T) -> T {
    if armed() {
        value.map_time(|t| f64::from_bits(t.to_bits() ^ 1))
    } else {
        value
    }
}
