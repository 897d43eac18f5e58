//! Differential test of the threshold kernel: the production fit (pruning
//! bound, sorted window, pair-once medoids over flat points) against the
//! frozen scalar reference in `subset3d_testkit::reference`, compared on
//! assignments, centroid bits and representatives.
//!
//! Inputs cover every dimensionality from 1 to 24 (so every bound width
//! from none to four coordinates occurs), 0 to 300 points with leader
//! counts on both sides of multiples of the block width, forced duplicate
//! rows and coordinate-0 ties, and `-0.0`, ±inf and NaN in any coordinate
//! (which turn the bound off), at thresholds 0, 1.02 and +inf. Finite-only
//! cases of up to 1,500 points in 19 dimensions keep the bound on and grow
//! windows past the corpus's 72 leaders.

use proptest::prelude::*;
use subset3d_cluster::{
    canonical_order, medoid_of, Points, Subsetter, ThresholdClustering, ThresholdSubsetter,
};
use subset3d_testkit::corpus::hostile_rows as rows;
use subset3d_testkit::reference::{
    self, same_clustering_bits as same_clustering, same_fit_bits as same_fit,
};

const THRESHOLDS: [f64; 3] = [0.0, 1.02, f64::INFINITY];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonical-order input through `Subsetter::fit`: presort, sorted
    /// window (when coordinate 0 is NaN-free), pruning bound (when every
    /// coordinate is finite) and medoids.
    #[test]
    fn subsetter_fit_matches_the_reference(
        seed in any::<u64>(),
        n in 0usize..=300,
        dim in 1usize..=24,
        spread in 0usize..3,
        specials in 0usize..3,
        threshold in 0usize..3,
    ) {
        let spread = [0.25, 1.0, 4.0][spread];
        let specials = [0, 5, 60][specials];
        let t = THRESHOLDS[threshold];
        let rows = rows(seed, n, dim, spread, specials);
        let flat = rows.concat();
        let points = Points::new(&flat, dim);
        prop_assert_eq!(canonical_order(points), reference::canonical_order(&rows));
        let got = ThresholdSubsetter::new(t).fit(points);
        let want = reference::threshold_subset_fit(&rows, t);
        let r = same_fit(&got, &want);
        prop_assert!(r.is_ok(), "n={n} dim={dim} t={t}: {r:?}");
    }

    /// Arbitrary-order input straight through `ThresholdClustering::fit`
    /// (every leader scanned), and the same rows canonically sorted
    /// (sorted window engaged).
    #[test]
    fn threshold_fit_matches_the_reference(
        seed in any::<u64>(),
        n in 0usize..=300,
        dim in 1usize..=24,
        spread in 0usize..3,
        specials in 0usize..3,
        threshold in 0usize..3,
    ) {
        let spread = [0.25, 1.0, 4.0][spread];
        let specials = [0, 5, 60][specials];
        let t = THRESHOLDS[threshold];
        let rows = rows(seed, n, dim, spread, specials);
        let sorted: Vec<Vec<f64>> = reference::canonical_order(&rows)
            .into_iter()
            .map(|i| rows[i].clone())
            .collect();
        for input in [&rows, &sorted] {
            let flat = input.concat();
            let got = ThresholdClustering::new(t).fit(Points::new(&flat, dim));
            let r = same_clustering(&got, &reference::threshold_fit(input, t));
            prop_assert!(r.is_ok(), "n={n} dim={dim} t={t}: {r:?}");
        }
    }

    /// Medoid election on arbitrary member lists, both the exact (≤ 64)
    /// and the centroid-nearest regime.
    #[test]
    fn medoid_matches_the_reference(
        seed in any::<u64>(),
        n in 1usize..=150,
        dim in 1usize..=24,
        specials in 0usize..3,
        picks in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let rows = rows(seed, n, dim, 1.0, [0, 5, 60][specials]);
        let flat = rows.concat();
        let members: Vec<usize> = picks.iter().map(|&p| (p % n as u64) as usize).collect();
        prop_assert_eq!(
            medoid_of(Points::new(&flat, dim), &members),
            reference::medoid_of(&rows, &members)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Finite rows in the corpus's 19 dimensions, up to 1,500 of them:
    /// the bound is on in every case, and at threshold 1.02 the sorted
    /// window holds hundreds of leaders. Both entry points, on canonical
    /// and on arbitrary order.
    #[test]
    fn finite_rows_at_window_scale_match_the_reference(
        seed in any::<u64>(),
        n in 0usize..=1500,
        threshold in 0usize..3,
    ) {
        let t = THRESHOLDS[threshold];
        let rows = rows(seed, n, 19, 1.0, 0);
        let flat = rows.concat();
        let points = Points::new(&flat, 19);
        let got = ThresholdSubsetter::new(t).fit(points);
        let r = same_fit(&got, &reference::threshold_subset_fit(&rows, t));
        prop_assert!(r.is_ok(), "n={n} t={t}: {r:?}");
        let got = ThresholdClustering::new(t).fit(points);
        let r = same_clustering(&got, &reference::threshold_fit(&rows, t));
        prop_assert!(r.is_ok(), "n={n} t={t} unsorted: {r:?}");
    }
}

#[test]
fn leader_counts_cross_lane_multiples() {
    // The generator must actually produce the block shapes the kernel
    // distinguishes: a fit within one partly filled block, fits whose
    // leader count is exactly a multiple of eight, and fits with several
    // blocks and a partial tail.
    let mut counts = std::collections::BTreeSet::new();
    for seed in 0..200u64 {
        let n = (seed as usize * 7) % 301;
        let dim = 1 + seed as usize % 24;
        let rows = rows(seed, n, dim, [0.25, 1.0, 4.0][seed as usize % 3], 0);
        counts.insert(reference::threshold_fit(&rows, 1.02).len());
    }
    assert!(counts.iter().any(|&k| k > 0 && k < 8), "{counts:?}");
    assert!(counts.iter().any(|&k| k >= 8 && k % 8 == 0), "{counts:?}");
    assert!(counts.iter().any(|&k| k > 24 && k % 8 != 0), "{counts:?}");
}
