//! Property tests across all clustering algorithms: every algorithm must
//! produce a valid partition, and algorithm-specific invariants must hold
//! on arbitrary data.

use proptest::prelude::*;
use subset3d_cluster::{
    adjusted_rand_index, bic_score, Clustering, Hierarchical, KMeans, Linkage, Points,
    ThresholdClustering,
};

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 2), 2..40)
}

fn assert_partition(c: &Clustering, n: usize) {
    assert_eq!(c.point_count(), n);
    let mut seen = vec![false; n];
    for members in c.members() {
        assert!(!members.is_empty(), "no empty clusters in output");
        for m in members {
            assert!(!seen[m]);
            seen[m] = true;
        }
    }
    assert!(seen.into_iter().all(|s| s));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_produces_valid_partitions(points in points_strategy(), k in 1usize..8) {
        let c = KMeans::new(k).seed(3).fit(&points);
        assert_partition(&c, points.len());
        prop_assert!(c.len() <= k.min(points.len()));
        prop_assert!(c.inertia(&points) >= 0.0);
    }

    #[test]
    fn hierarchical_produces_valid_partitions(points in points_strategy(), k in 1usize..6) {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let c = Hierarchical::with_cluster_count(linkage, k).fit(&points);
            assert_partition(&c, points.len());
            prop_assert!(c.len() <= points.len());
            prop_assert!(c.len() >= k.min(points.len()).min(c.len()));
        }
    }

    #[test]
    fn hierarchical_cutoff_monotone(points in points_strategy()) {
        // A larger cutoff can only merge more.
        let tight = Hierarchical::with_distance_cutoff(Linkage::Average, 1.0).fit(&points);
        let loose = Hierarchical::with_distance_cutoff(Linkage::Average, 20.0).fit(&points);
        prop_assert!(loose.len() <= tight.len());
    }

    #[test]
    fn threshold_vs_itself_is_identical(points in points_strategy(), t in 0.0f64..20.0) {
        let flat = points.concat();
        let a = ThresholdClustering::new(t).fit(Points::new(&flat, 2));
        let b = ThresholdClustering::new(t).fit(Points::new(&flat, 2));
        prop_assert_eq!(adjusted_rand_index(&a, &b), 1.0);
    }

    #[test]
    fn bic_is_finite_for_valid_clusterings(points in points_strategy(), k in 1usize..5) {
        let c = KMeans::new(k).seed(1).fit(&points);
        let score = bic_score(&points, &c);
        prop_assert!(score.is_finite() || score == f64::NEG_INFINITY);
    }

    #[test]
    fn ari_symmetric_and_bounded(points in points_strategy(), ka in 1usize..5, kb in 1usize..5) {
        let a = KMeans::new(ka).seed(5).fit(&points);
        let b = KMeans::new(kb).seed(6).fit(&points);
        let ab = adjusted_rand_index(&a, &b);
        let ba = adjusted_rand_index(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab <= 1.0 + 1e-9);
    }
}
