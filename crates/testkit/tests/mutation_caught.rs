//! Proves the differential oracle has teeth: with the test-only
//! `fault-injection` hook armed, a batch-cache hit returns its stored
//! costs with `time_ns` flipped by one ulp — the smallest possible
//! corruption — and the oracle must still name it.
//!
//! Gated behind `required-features = ["fault-injection"]`: plain
//! `cargo test` never compiles the hook. Run via
//! `cargo test -p subset3d-testkit --features fault-injection`.

use subset3d_gpusim::{fault, ArchConfig, CacheMode, Simulator};
use subset3d_testkit::corpus::golden_corpus;
use subset3d_testkit::oracle::run_oracle;

/// Disarms the hook even if an assertion below panics, so a failure here
/// cannot poison other tests in a shared process.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm();
    }
}

#[test]
fn one_ulp_memo_corruption_is_caught() {
    let _guard = Disarm;
    let (_, workload) = golden_corpus().remove(0);
    let sim = Simulator::new(ArchConfig::baseline());
    sim.set_cache_mode(CacheMode::On);

    // Passes 1 and 2, disarmed: the first populates the batch cache, the
    // second is served from it; the oracle must be clean on both.
    for label in ["mutation/populate", "mutation/warm"] {
        run_oracle(label, &workload, &sim).unwrap().assert_clean();
    }
    assert!(
        sim.cache_stats().batch_hits > 0,
        "corpus must exercise the batch cache or this test is vacuous"
    );

    // Pass 3, armed: every draw served from the cache carries a one-ulp
    // flip in time_ns. The bitwise oracle must report it.
    fault::arm();
    let report = run_oracle("mutation/armed", &workload, &sim).unwrap();
    fault::disarm();
    assert!(
        !report.is_clean(),
        "armed one-ulp memo corruption went undetected"
    );
    assert!(
        report.divergences.iter().any(|d| d.field == "time_ns"),
        "corruption should surface as a time_ns divergence, got: {}",
        report.divergences[0]
    );

    // Disarmed again on a fresh simulator: clean, proving the divergence
    // above came from the armed hook and nothing else.
    let fresh = Simulator::new(ArchConfig::baseline());
    run_oracle("mutation/disarmed", &workload, &fresh)
        .unwrap()
        .assert_clean();
}
