//! Backend invariants as proptest properties: every subsetting backend
//! must assign each frame-draw to exactly one cluster, elect exactly one
//! in-cluster representative per cluster, and produce a partition that is
//! invariant under permutation of the frame's draws — for arbitrary
//! profiles, seeds and permutations, not just the corpus.

use proptest::prelude::*;
use subset3d_cluster::{
    KMeansSubsetter, PcaAggloSubsetter, Points, StratifiedSubsetter, Subsetter, ThresholdSubsetter,
};
use subset3d_core::SubsetConfig;
use subset3d_features::{extract_frame_features, FeatureMatrix};
use subset3d_testkit::metamorphic::{check_backend_partition, check_backend_permutation};
use subset3d_trace::gen::GameProfile;

const DRAWS_PER_FRAME: usize = 30;

fn backends() -> Vec<Box<dyn Subsetter>> {
    vec![
        Box::new(ThresholdSubsetter::new(1.05)),
        Box::new(KMeansSubsetter::bic(6, 42)),
        Box::new(StratifiedSubsetter::new(5, 0.2, 7)),
        Box::new(PcaAggloSubsetter::new(3, 8)),
    ]
}

/// One frame's normalised feature matrix, whose storage `cluster_frame`
/// feeds to the backend.
fn frame_points(profile: usize, seed: u64) -> FeatureMatrix {
    let builder = match profile {
        0 => GameProfile::shooter("props"),
        1 => GameProfile::rts("props"),
        _ => GameProfile::racing("props"),
    };
    let w = builder
        .frames(1)
        .draws_per_frame(DRAWS_PER_FRAME)
        .build(seed)
        .generate();
    let config = SubsetConfig::default();
    let frame = &w.frames()[0];
    let mut matrix = extract_frame_features(frame, &w, config.features.clone());
    matrix.normalize(config.normalization);
    matrix
}

/// Argsort with index tiebreak: turns arbitrary sort keys into a
/// permutation of `0..n`, so a plain `vec(any::<u64>())` strategy samples
/// the permutation space.
fn argsort(keys: &[u64], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (keys[i % keys.len()], i));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every backend partitions every draw exactly once with one
    /// in-cluster representative per cluster.
    #[test]
    fn backends_partition_every_draw(profile in 0usize..3, seed in 1u64..10_000) {
        let matrix = frame_points(profile, seed);
        let points = Points::new(matrix.as_slice(), matrix.cols());
        for backend in backends() {
            let r = check_backend_partition(backend.as_ref(), points);
            prop_assert!(r.is_ok(), "{r:?}");
        }
    }

    /// Backend output depends only on the multiset of draw features,
    /// never on submission order.
    #[test]
    fn backends_ignore_draw_order(
        profile in 0usize..3,
        seed in 1u64..10_000,
        keys in prop::collection::vec(any::<u64>(), DRAWS_PER_FRAME),
    ) {
        let matrix = frame_points(profile, seed);
        let points = Points::new(matrix.as_slice(), matrix.cols());
        let perm = argsort(&keys, points.len());
        for backend in backends() {
            let r = check_backend_permutation(backend.as_ref(), points, &perm);
            prop_assert!(r.is_ok(), "{r:?}");
        }
    }
}
