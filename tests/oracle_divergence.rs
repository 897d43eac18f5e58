//! Tier-1 gate: the differential oracle on the fixed-seed corpus.
//!
//! Every game profile, under every cache mode, twice (the second pass is
//! served from warm caches), must agree with the naive single-threaded
//! reference model on every bit of every cost, energy, improvement-series
//! and prediction-error field. The heavier thread-count matrix lives in
//! `subset3d-testkit`'s own `oracle_matrix` test; this one runs at the
//! ambient thread count so it stays cheap enough for tier-1.

use subset3d_gpusim::ArchConfig;
use subset3d_testkit::corpus::oracle_corpus;
use subset3d_testkit::oracle::run_oracle_all_modes;

#[test]
fn differential_oracle_reports_zero_divergence() {
    let config = ArchConfig::baseline();
    let mut draws_compared = 0;
    for (name, workload) in oracle_corpus() {
        let report = run_oracle_all_modes(name, &workload, &config)
            .unwrap_or_else(|e| panic!("oracle failed on {name}: {e}"));
        report.assert_clean();
        draws_compared += report.draws_compared;
    }
    // 3 profiles × ≥1000 draws × 2 cache modes × 2 passes.
    assert!(
        draws_compared >= 3 * 1000 * 2 * 2,
        "corpus shrank below the intended coverage: {draws_compared} draw comparisons"
    );
}
