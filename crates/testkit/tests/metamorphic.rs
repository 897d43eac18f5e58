//! The metamorphic checkers as proptest properties: every invariant must
//! hold for arbitrary seeds, profiles and permutations, not just the
//! corpus.

use proptest::prelude::*;
use subset3d_core::{cluster_frame, SubsetConfig};
use subset3d_gpusim::{ArchConfig, Simulator};
use subset3d_testkit::metamorphic::{
    check_cluster_relabeling, check_draw_permutation, check_frequency_monotone,
    check_session_cache_transparent,
};
use subset3d_trace::gen::GameProfile;
use subset3d_trace::Workload;

const DRAWS_PER_FRAME: usize = 25;

fn workload(profile: usize, seed: u64) -> Workload {
    let builder = match profile {
        0 => GameProfile::shooter("meta"),
        1 => GameProfile::rts("meta"),
        _ => GameProfile::racing("meta"),
    };
    builder
        .frames(2)
        .draws_per_frame(DRAWS_PER_FRAME)
        .build(seed)
        .generate()
}

/// Turns arbitrary sort keys into a permutation of `0..n` (argsort with
/// index tiebreak), so a plain `vec(any::<u64>())` strategy samples the
/// permutation space. Keys cycle when `n` exceeds the sample — the
/// generator realises a profile-dependent draw count around the requested
/// target, so `n` is only known at run time.
fn argsort(keys: &[u64], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (keys[i % keys.len()], i));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Raising only the core clock never slows a workload down.
    #[test]
    fn frequency_monotone(profile in 0usize..3, seed in 1u64..10_000) {
        let w = workload(profile, seed);
        let r = check_frequency_monotone(
            &w,
            &ArchConfig::baseline(),
            &[450.0, 700.0, 1000.0, 1300.0],
        );
        prop_assert!(r.is_ok(), "{r:?}");
    }

    /// A sweep session's rows never change a point, cold or warm.
    #[test]
    fn session_cache_transparent(profile in 0usize..3, seed in 1u64..10_000) {
        let w = workload(profile, seed);
        let r = check_session_cache_transparent(&w, &ArchConfig::pathfinding_candidates());
        prop_assert!(r.is_ok(), "{r:?}");
    }

    /// Isolated frame cost is submission-order independent.
    #[test]
    fn draw_order_irrelevant_in_isolation(
        profile in 0usize..3,
        seed in 1u64..10_000,
        keys in prop::collection::vec(any::<u64>(), DRAWS_PER_FRAME),
    ) {
        let w = workload(profile, seed);
        let frame = &w.frames()[0];
        let perm = argsort(&keys, frame.draw_count());
        let r = check_draw_permutation(frame, &w, &ArchConfig::baseline(), &perm);
        prop_assert!(r.is_ok(), "{r:?}");
    }

    /// Prediction quality ignores cluster numbering.
    #[test]
    fn cluster_labels_irrelevant(
        profile in 0usize..3,
        seed in 1u64..10_000,
        keys in prop::collection::vec(any::<u64>(), DRAWS_PER_FRAME),
    ) {
        let w = workload(profile, seed);
        let frame = &w.frames()[0];
        let clustering = cluster_frame(frame, &w, &SubsetConfig::default());
        let sim = Simulator::new(ArchConfig::baseline());
        let cost = sim.simulate_frame(frame, &w).unwrap();
        let perm = argsort(&keys, clustering.clusters.len());
        let r = check_cluster_relabeling(&clustering, &cost, &perm);
        prop_assert!(r.is_ok(), "{r:?}");
    }
}

/// The `subset3d_cluster`-level relabeling helpers compose with the
/// checkers: a permuted clustering is still a valid partition with
/// identical inertia.
#[test]
fn relabeled_clustering_keeps_partition_and_inertia() {
    use subset3d_cluster::Clustering;

    let points: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![f64::from(i % 5), f64::from(i % 7)])
        .collect();
    let assignments: Vec<usize> = (0..40).map(|i| i % 4).collect();
    let centroids: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i), 1.0]).collect();
    let c = Clustering::new(assignments, centroids);
    c.check_partition().unwrap();

    let perm = [2, 0, 3, 1];
    let relabeled = c.relabeled(&perm);
    relabeled.check_partition().unwrap();
    assert_eq!(
        c.inertia(&points).to_bits(),
        relabeled.inertia(&points).to_bits(),
        "relabeling must not move inertia by a single bit"
    );
    for (i, &a) in c.assignments().iter().enumerate() {
        assert_eq!(relabeled.assignments()[i], perm[a]);
    }
}

/// Feature extraction feeds every invariant above; it must never emit a
/// non-finite value.
#[test]
fn feature_matrices_are_finite() {
    use subset3d_features::{extract_frame_features, FeatureKind};

    let w = workload(0, 99);
    for frame in w.frames() {
        let m = extract_frame_features(frame, &w, FeatureKind::standard_set());
        assert!(m.is_finite(), "non-finite feature in frame");
    }
}
