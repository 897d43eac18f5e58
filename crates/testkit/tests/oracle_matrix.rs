//! The full oracle matrix: 3 game profiles × 2 cache modes × {1, 2, 8}
//! threads × 2 passes, every float compared bitwise against the naive
//! reference.
//!
//! One `#[test]` on purpose: the thread count is process-global, so the
//! sweep must own it for its whole duration. `with_thread_count` restores
//! the ambient pool afterwards.

use subset3d_gpusim::ArchConfig;
use subset3d_testkit::corpus::oracle_corpus;
use subset3d_testkit::oracle::run_oracle_all_modes;

#[test]
fn oracle_matrix_is_clean() {
    let corpus = oracle_corpus();
    let config = ArchConfig::baseline();
    // 2 cache modes × 2 passes × 3 thread counts per workload.
    let expected: usize = corpus.iter().map(|(_, w)| w.total_draws()).sum::<usize>() * 2 * 2 * 3;
    let mut draws_compared = 0;
    for threads in [1, 2, 8] {
        subset3d_exec::with_thread_count(threads, || {
            for (name, workload) in &corpus {
                let report = run_oracle_all_modes(name, workload, &config)
                    .unwrap_or_else(|e| panic!("{name} at {threads} threads: {e}"));
                report.assert_clean();
                draws_compared += report.draws_compared;
            }
        });
    }
    assert_eq!(draws_compared, expected);
}
