//! Differential test of the threshold kernel: the production fit (lane
//! blocks, sorted window, pair-once medoids over flat points) against the
//! frozen scalar reference in `subset3d_testkit::reference`, compared on
//! assignments, centroid bits and representatives.
//!
//! Inputs cover every dimensionality from 1 to 24 (so every lane remainder
//! occurs), 0 to 300 points with leader counts on both sides of multiples
//! of the lane width, forced duplicate rows and coordinate-0 ties, and
//! `-0.0`, ±inf and NaN in any coordinate, at thresholds 0, 1.02 and +inf.

use proptest::prelude::*;
use subset3d_cluster::{
    canonical_order, medoid_of, Clustering, Points, Subsetter, SubsetterFit, ThresholdClustering,
    ThresholdSubsetter,
};
use subset3d_testkit::reference;

const THRESHOLDS: [f64; 3] = [0.0, 1.02, f64::INFINITY];

/// Values a coordinate takes instead of a grid value, at the case's
/// special rate.
const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// SplitMix64: expands one case seed into the point set.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `n` rows of `dim` coordinates on a coarse grid scaled by `spread`, so
/// distances straddle the 1.02 threshold: about a quarter of the rows
/// repeat an earlier row, another quarter repeat only its coordinate 0,
/// and `special_per_mille` of the fresh coordinates are special values.
fn rows(seed: u64, n: usize, dim: usize, spread: f64, special_per_mille: u64) -> Vec<Vec<f64>> {
    let mut mix = Mix(seed);
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<f64> = (0..dim)
            .map(|_| {
                if mix.below(1000) < special_per_mille {
                    SPECIALS[mix.below(SPECIALS.len() as u64) as usize]
                } else {
                    (mix.below(9) as f64 - 4.0) * 0.5 * spread
                }
            })
            .collect();
        if i > 0 {
            let earlier = mix.below(i as u64) as usize;
            match mix.below(4) {
                0 => row.clone_from(&out[earlier]),
                1 => row[0] = out[earlier][0],
                _ => {}
            }
        }
        out.push(row);
    }
    out
}

fn same_clustering(got: &Clustering, want: &Clustering) -> Result<(), String> {
    if got.assignments() != want.assignments() {
        return Err(format!(
            "assignments differ: {:?} vs reference {:?}",
            got.assignments(),
            want.assignments()
        ));
    }
    let bits = |c: &Clustering| -> Vec<Vec<u64>> {
        c.centroids()
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    if bits(got) != bits(want) {
        return Err("centroid bits differ".into());
    }
    Ok(())
}

fn same_fit(got: &SubsetterFit, want: &SubsetterFit) -> Result<(), String> {
    same_clustering(&got.clustering, &want.clustering)?;
    if got.representatives != want.representatives {
        return Err(format!(
            "representatives differ: {:?} vs reference {:?}",
            got.representatives, want.representatives
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonical-order input through `Subsetter::fit`: presort, sorted
    /// window (when coordinate 0 is NaN-free), lane blocks and medoids.
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

#[test]
fn leader_counts_cross_lane_multiples() {
    // The generator must actually produce the block shapes the kernel
    // distinguishes: a fit with no sealed block, fits whose leader count
    // is exactly a multiple of eight, and fits with several blocks and a
    // partial tail.
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
