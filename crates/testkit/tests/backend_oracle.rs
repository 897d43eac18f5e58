//! Backend oracle matrix: every clustering backend × {1, 2, 8} threads
//! on a small workload, every float compared bitwise against the naive
//! reference.
//!
//! One `#[test]` on purpose: the thread count is process-global, so the
//! sweep must own it for its whole duration (`with_thread_count` restores
//! the ambient pool afterwards). The workload is deliberately small —
//! the PCA + agglomerative backend is O(n³) in draws per frame.

use subset3d_core::{ClusterMethod, SubsetConfig};
use subset3d_gpusim::{ArchConfig, Simulator};
use subset3d_testkit::oracle::run_oracle_with_config;
use subset3d_trace::gen::GameProfile;
use subset3d_trace::Workload;

fn methods() -> Vec<(&'static str, ClusterMethod)> {
    vec![
        ("threshold", ClusterMethod::Threshold { distance: 1.05 }),
        ("kmeans", ClusterMethod::KMeansBic { max_k: 8 }),
        (
            "stratified",
            ClusterMethod::Stratified {
                strata: 6,
                rate: 0.15,
            },
        ),
        (
            "pca-agglo",
            ClusterMethod::PcaAgglo {
                components: 3,
                clusters: 10,
            },
        ),
    ]
}

fn small_workload() -> Workload {
    GameProfile::shooter("backend-oracle")
        .frames(4)
        .draws_per_frame(60)
        .build(29)
        .generate()
}

#[test]
fn every_backend_is_deterministic_across_threads() {
    let workload = small_workload();
    let sim = Simulator::new(ArchConfig::baseline());
    // One pass per backend and thread count.
    let expected = workload.total_draws() * 3 * methods().len();
    let mut draws_compared = 0;
    for threads in [1, 2, 8] {
        subset3d_exec::with_thread_count(threads, || {
            for (name, method) in methods() {
                let subset_config = SubsetConfig::default().with_cluster_method(method);
                let context = format!("{name}/{threads}t");
                let report = run_oracle_with_config(&context, &workload, &sim, &subset_config)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                report.assert_clean();
                draws_compared += report.draws_compared;
            }
        });
    }
    assert_eq!(draws_compared, expected);
}
