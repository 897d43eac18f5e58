//! Batch-width oracle matrix: fixed-width batch execution must be
//! invisible in the output.
//!
//! The columnar simulator chunks every frame into fixed-width batches;
//! the batch width decides memo granularity and cache-line reuse, never
//! results. This matrix replays one corpus workload at widths 1 (draw
//! at a time), 64 (the default) and 128 — each leaving a different
//! ragged tail on ~200-draw frames — under every cache mode and at 1, 2
//! and 8 threads, and requires bit-identity with the struct-at-a-time
//! reference model on every pass.

use subset3d_gpusim::{ArchConfig, DEFAULT_BATCH_WIDTH};
use subset3d_testkit::corpus::oracle_corpus;
use subset3d_testkit::oracle::run_oracle_batch_widths;

#[test]
fn batch_width_matrix_is_clean() {
    let corpus = oracle_corpus();
    let (name, workload) = &corpus[0];
    assert!(
        workload
            .frames()
            .iter()
            .any(|f| f.draw_count() % DEFAULT_BATCH_WIDTH != 0 && f.draw_count() > 128),
        "corpus must exercise ragged tails at every tested width"
    );
    let config = ArchConfig::baseline();
    let widths = [1, DEFAULT_BATCH_WIDTH, 128];
    // 3 widths × 2 cache modes × 2 passes per thread count.
    let expected_per_thread = workload.total_draws() * widths.len() * 2 * 2;
    for threads in [1, 2, 8] {
        subset3d_exec::with_thread_count(threads, || {
            let report = run_oracle_batch_widths(name, workload, &config, &widths)
                .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
            report.assert_clean();
            assert_eq!(report.draws_compared, expected_per_thread);
        });
    }
}
