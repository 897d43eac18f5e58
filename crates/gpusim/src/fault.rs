//! Test-only fault injection for the memo layer (mutation testing).
//!
//! Compiled only under the `fault-injection` cargo feature, and inert even
//! then until [`arm`] is called. When armed, every draw time a sweep
//! session's batch cache serves from its **hit path** has its last
//! mantissa bit flipped — a one-ulp corruption, the smallest possible
//! divergence. The testkit's mutation test arms the fault during warm
//! sweeps and asserts that one-draw totals and every candidate's per-draw
//! digest move, demonstrating that both comparisons would catch even a
//! minimal memoization bug.
//!
//! The switch is process-global; tests that arm it must disarm before
//! finishing (each integration-test binary is its own process, so the
//! blast radius is the arming test's own binary).

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

/// Applies the armed fault to a draw time served from the batch-cache
/// hit path.
pub(crate) fn corrupt_hit(time_ns: f64) -> f64 {
    if armed() {
        f64::from_bits(time_ns.to_bits() ^ 1)
    } else {
        time_ns
    }
}
