//! Test-only fault injection for the memo layer (mutation testing).
//!
//! Compiled only under the `fault-injection` cargo feature, and inert even
//! then until [`arm`] is called. When armed, every draw cost of a batch
//! served from the batch cache's **hit path** has the last mantissa bit
//! of its `time_ns` flipped — a one-ulp corruption, the smallest possible
//! divergence. The testkit's mutation test arms the fault and asserts the
//! differential oracle reports it, demonstrating that the oracle's bitwise
//! comparison would catch even a minimal memoization bug.
//!
//! The switch is process-global; tests that arm it must disarm before
//! finishing (each integration-test binary is its own process, so the
//! blast radius is the arming test's own binary).

use crate::cost::DrawCost;
use std::sync::atomic::{AtomicBool, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Starts corrupting batch-cache hits (one-ulp flip of `time_ns`).
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

/// Applies the armed fault to a cost served from the batch-cache hit path.
pub(crate) fn corrupt_hit(mut cost: DrawCost) -> DrawCost {
    if armed() {
        cost.time_ns = f64::from_bits(cost.time_ns.to_bits() ^ 1);
    }
    cost
}
