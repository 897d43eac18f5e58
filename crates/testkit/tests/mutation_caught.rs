//! Proves the sweep checks have teeth: with the test-only
//! `fault-injection` hook armed, a sweep session's batch-cache hit
//! returns its row with every draw time flipped by one ulp — the
//! smallest possible corruption. A warm sweep of a one-draw workload must
//! then move every candidate's total, and on whole corpora, where the
//! totals alone can hide the flips, every candidate's per-draw digest
//! must move off the reference model's.
//!
//! Gated behind `required-features = ["fault-injection"]`: plain
//! `cargo test` never compiles the hook. Run via
//! `cargo test -p subset3d-testkit --features fault-injection`.

use std::sync::{Mutex, MutexGuard, PoisonError};
use subset3d_gpusim::reference::reference_workload_cost;
use subset3d_gpusim::{fault, ArchConfig, SweepSession};
use subset3d_testkit::corpus::{golden_corpus, oracle_corpus};
use subset3d_trace::{Frame, FrameId, Workload};

/// The hook is one process-global switch, and the tests of this binary
/// run on parallel threads: each holds this lock while it may arm it.
static HOOK: Mutex<()> = Mutex::new(());

/// Holds [`HOOK`] for one test and disarms the hook even if an assertion
/// below panics, so a failure here cannot poison the other test.
struct Disarm {
    _serial: MutexGuard<'static, ()>,
}

impl Disarm {
    fn hold() -> Self {
        Disarm {
            _serial: HOOK.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm();
    }
}

#[test]
fn one_ulp_memo_corruption_is_caught() {
    let _guard = Disarm::hold();
    let (_, workload) = golden_corpus().remove(0);
    // A session's warm pass reads only draw times from its rows, and an
    // armed read must move every candidate's total off the reference.
    // Over many draws, flips in opposite directions can cancel below a
    // total's last bit; a one-draw workload's total is its draw's time
    // exactly, so there the flip must show.
    let candidates = ArchConfig::pathfinding_candidates();
    for draw in workload.frames()[0].to_draws().into_iter().take(3) {
        let single = Workload::new(
            "mutation/sweep",
            vec![Frame::new(FrameId(0), vec![draw])],
            workload.shaders().clone(),
            workload.textures().clone(),
            workload.states().clone(),
        );
        let reference: Vec<u64> = candidates
            .iter()
            .map(|c| {
                reference_workload_cost(&single, c)
                    .unwrap()
                    .total_ns
                    .to_bits()
            })
            .collect();
        let totals = |session: &SweepSession| -> Vec<u64> {
            session
                .sweep(&single)
                .unwrap()
                .iter()
                .map(|p| p.total_ns.to_bits())
                .collect()
        };
        let session = SweepSession::new(&candidates).unwrap();
        assert_eq!(totals(&session), reference, "cold sweep, disarmed");
        fault::arm();
        let armed = totals(&session);
        fault::disarm();
        assert!(
            session.cache_stats().batch_hits > 0,
            "the warm sweep must be served from the batch caches"
        );
        for (c, (a, r)) in armed.iter().zip(&reference).enumerate() {
            assert_ne!(
                a, r,
                "armed one-ulp corruption left candidate {c}'s total unchanged"
            );
        }
        let fresh = SweepSession::new(&candidates).unwrap();
        assert_eq!(totals(&fresh), reference, "fresh session, disarmed");
    }
}

#[test]
fn one_ulp_sweep_corruption_moves_every_digest() {
    let _guard = Disarm::hold();
    let candidates = ArchConfig::pathfinding_candidates();
    let corpora = golden_corpus().into_iter().chain(oracle_corpus());
    for (name, workload) in corpora {
        let reference: Vec<u64> = candidates
            .iter()
            .map(|c| reference_workload_cost(&workload, c).unwrap().digest())
            .collect();
        let digests = |session: &SweepSession| -> Vec<u64> {
            session
                .sweep(&workload)
                .unwrap()
                .iter()
                .map(|p| p.digest)
                .collect()
        };
        let session = SweepSession::new(&candidates).unwrap();
        assert_eq!(digests(&session), reference, "{name}: cold sweep, disarmed");
        // A warm sweep served from the rows with every time flipped: each
        // candidate's digest must move, however the totals fare.
        fault::arm();
        let armed = digests(&session);
        fault::disarm();
        for (c, (a, r)) in armed.iter().zip(&reference).enumerate() {
            assert_ne!(
                a, r,
                "{name}: armed one-ulp corruption left candidate {c}'s digest unchanged"
            );
        }
        let fresh = SweepSession::new(&candidates).unwrap();
        assert_eq!(
            digests(&fresh),
            reference,
            "{name}: fresh session, disarmed"
        );
    }
}
