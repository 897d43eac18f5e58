//! The full oracle matrix: 3 game profiles × {1, 2, 8} threads, every
//! float compared bitwise against the naive reference.
//!
//! One `#[test]` on purpose: the thread count is process-global, so the
//! sweep must own it for its whole duration. `with_thread_count` restores
//! the ambient pool afterwards.

use subset3d_gpusim::{ArchConfig, Simulator, DEFAULT_BATCH_WIDTH};
use subset3d_testkit::corpus::oracle_corpus;
use subset3d_testkit::oracle::run_oracle;

#[test]
fn oracle_matrix_is_clean() {
    let corpus = oracle_corpus();
    // The simulator walks frames in fixed-width batches: some frame must
    // span several of them and end on a ragged tail, so the reference
    // comparison provably crosses batch boundaries.
    assert!(
        corpus
            .iter()
            .flat_map(|(_, w)| w.frames())
            .map(|f| f.draw_count())
            .any(|n| n > DEFAULT_BATCH_WIDTH && n % DEFAULT_BATCH_WIDTH != 0),
        "corpus must cross batch boundaries and leave a ragged tail"
    );
    let sim = Simulator::new(ArchConfig::baseline());
    // One pass per workload and thread count.
    let expected: usize = corpus.iter().map(|(_, w)| w.total_draws()).sum::<usize>() * 3;
    let mut draws_compared = 0;
    for threads in [1, 2, 8] {
        subset3d_exec::with_thread_count(threads, || {
            for (name, workload) in &corpus {
                let context = format!("{name}/{threads}t");
                let report = run_oracle(&context, workload, &sim)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                report.assert_clean();
                draws_compared += report.draws_compared;
            }
        });
    }
    assert_eq!(draws_compared, expected);
}
