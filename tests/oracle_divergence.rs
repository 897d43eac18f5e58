//! Tier-1 gate: the differential oracle on the fixed-seed corpus.
//!
//! Every game profile must agree with the naive single-threaded reference
//! model on every bit of every cost, energy, improvement-series and
//! prediction-error field. The heavier thread-count matrix lives in
//! `subset3d-testkit`'s own `oracle_matrix` test; this one runs at the
//! ambient thread count so it stays cheap enough for tier-1.

use subset3d_gpusim::{ArchConfig, Simulator};
use subset3d_testkit::corpus::oracle_corpus;
use subset3d_testkit::oracle::run_oracle;

#[test]
fn differential_oracle_reports_zero_divergence() {
    let sim = Simulator::new(ArchConfig::baseline());
    let mut draws_compared = 0;
    for (name, workload) in oracle_corpus() {
        let report = run_oracle(name, &workload, &sim)
            .unwrap_or_else(|e| panic!("oracle failed on {name}: {e}"));
        report.assert_clean();
        draws_compared += report.draws_compared;
    }
    // 3 profiles × ≥1000 draws.
    assert!(
        draws_compared >= 3 * 1000,
        "corpus shrank below the intended coverage: {draws_compared} draw comparisons"
    );
}
