//! Frozen scalar references of the threshold fit and the feature
//! normaliser.
//!
//! The threshold fit in its plainest form: one `Vec<f64>` per point,
//! every point tested against every leader from leader 0 with an
//! early-exit squared-distance sum, the exact medoid summing each
//! member's distances in member order, and the canonical presort over row
//! vectors. The normaliser column at a time: each column copied out,
//! its parameters taken from `subset3d_stats::{mean, std_dev, min, max}`,
//! then applied down the column. Both are deliberately naive and must
//! stay that way: the differential tests hold the production kernels
//! ([`subset3d_cluster::ThresholdClustering`],
//! [`subset3d_cluster::ThresholdSubsetter`] and
//! [`subset3d_features::FeatureMatrix::normalize`]) to them bit for bit —
//! on assignments, centroid bits and representatives
//! ([`same_fit_bits`], which the streaming oracle also uses), and on every
//! normalised value.

use subset3d_cluster::{Clustering, SubsetterFit};
use subset3d_features::{FeatureMatrix, Normalization};

/// Leader clustering: each point joins the first leader, scanned from
/// leader 0, within `threshold`; otherwise it becomes a leader. Centroids
/// are copies of the leaders.
pub fn threshold_fit(points: &[Vec<f64>], threshold: f64) -> Clustering {
    let limit = threshold * threshold;
    let mut leaders: Vec<usize> = Vec::new();
    let mut assignments = Vec::with_capacity(points.len());
    for p in points {
        match leaders
            .iter()
            .position(|&leader| within_sq(p, &points[leader], limit))
        {
            Some(ci) => assignments.push(ci),
            None => {
                assignments.push(leaders.len());
                leaders.push(assignments.len() - 1);
            }
        }
    }
    let centroids = leaders.into_iter().map(|i| points[i].clone()).collect();
    Clustering::new(assignments, centroids)
}

/// The threshold backend's `Subsetter::fit`: canonical presort, leader
/// scan over the sorted rows, medoid representatives, and every index
/// mapped back to the input order.
pub fn threshold_subset_fit(points: &[Vec<f64>], threshold: f64) -> SubsetterFit {
    if points.is_empty() {
        return SubsetterFit::empty();
    }
    let order = canonical_order(points);
    let sorted: Vec<Vec<f64>> = order.iter().map(|&i| points[i].clone()).collect();
    let mut clustering = threshold_fit(&sorted, threshold);
    clustering.drop_empty();
    let representatives: Vec<usize> = clustering
        .members()
        .iter()
        .map(|members| medoid_of(&sorted, members).expect("non-empty cluster"))
        .collect();
    let mut assignments = vec![0usize; points.len()];
    for (sorted_idx, &orig_idx) in order.iter().enumerate() {
        assignments[orig_idx] = clustering.assignments()[sorted_idx];
    }
    SubsetterFit {
        clustering: Clustering::new(assignments, clustering.centroids().to_vec()),
        representatives: representatives.iter().map(|&r| order[r]).collect(),
    }
}

/// Indices sorted by row length, then lexicographic `f64::total_cmp` of
/// the rows, then index.
pub fn canonical_order(points: &[Vec<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        let va = &points[a];
        let vb = &points[b];
        va.len()
            .cmp(&vb.len())
            .then_with(|| {
                for (x, y) in va.iter().zip(vb.iter()) {
                    let c = x.total_cmp(y);
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            })
            .then(a.cmp(&b))
    });
    order
}

/// The medoid of `members` (an element of it): exact, with every pair
/// distance computed from each end, for up to 64 members; the member
/// nearest the centroid above that.
pub fn medoid_of(points: &[Vec<f64>], members: &[usize]) -> Option<usize> {
    if members.is_empty() {
        return None;
    }
    if members.len() == 1 {
        return Some(members[0]);
    }
    if members.len() <= 64 {
        let mut best = members[0];
        let mut best_total = f64::INFINITY;
        for &i in members {
            let total: f64 = members
                .iter()
                .map(|&j| sq_dist(&points[i], &points[j]))
                .sum();
            if total < best_total {
                best_total = total;
                best = i;
            }
        }
        Some(best)
    } else {
        let dim = points[members[0]].len();
        let mut centroid = vec![0.0; dim];
        for &i in members {
            for (c, &v) in centroid.iter_mut().zip(&points[i]) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= members.len() as f64;
        }
        members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                sq_dist(&points[a], &centroid)
                    .partial_cmp(&sq_dist(&points[b], &centroid))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .or(Some(members[0]))
    }
}

/// Checks two clusterings for the same assignments and the same centroid
/// bit patterns. Unlike `==`, this tells `-0.0` from `0.0` and finds a NaN
/// centroid equal to itself.
///
/// # Errors
///
/// Returns a description of the first difference.
pub fn same_clustering_bits(got: &Clustering, want: &Clustering) -> Result<(), String> {
    if got.assignments() != want.assignments() {
        return Err(format!(
            "assignments differ: {:?} vs {:?}",
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

/// [`same_clustering_bits`] plus the same representatives: two fits equal
/// by bits.
///
/// # Errors
///
/// Returns a description of the first difference.
pub fn same_fit_bits(got: &SubsetterFit, want: &SubsetterFit) -> Result<(), String> {
    same_clustering_bits(&got.clustering, &want.clustering)?;
    if got.representatives != want.representatives {
        return Err(format!(
            "representatives differ: {:?} vs {:?}",
            got.representatives, want.representatives
        ));
    }
    Ok(())
}

/// Early-exit squared-distance test: `‖a − b‖² ≤ limit`.
fn within_sq(a: &[f64], b: &[f64], limit: f64) -> bool {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
        if acc > limit {
            return false;
        }
    }
    true
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Returns `(offset, scale)` such that `(v - offset) / scale` normalises
/// a value of `column`. Degenerate columns (zero or NaN spread) return
/// scale `1.0` so normalisation never divides by zero.
pub fn normalization_parameters(method: Normalization, column: &[f64]) -> (f64, f64) {
    match method {
        Normalization::None => (0.0, 1.0),
        Normalization::ZScore => {
            let mean = subset3d_stats::mean(column);
            let sd = subset3d_stats::std_dev(column);
            (mean, if sd > 0.0 { sd } else { 1.0 })
        }
        Normalization::MinMax => {
            let lo = subset3d_stats::min(column).unwrap_or(0.0);
            let hi = subset3d_stats::max(column).unwrap_or(0.0);
            let range = hi - lo;
            (lo, if range > 0.0 { range } else { 1.0 })
        }
    }
}

/// The column-at-a-time normaliser: every column copied out with
/// [`FeatureMatrix::column`], its [`normalization_parameters`], then
/// `(v - offset) / scale` applied in place down the column of a copy of
/// the storage, which becomes the returned matrix.
pub fn normalize(matrix: &FeatureMatrix, method: Normalization) -> FeatureMatrix {
    let (rows, dim) = (matrix.rows(), matrix.cols());
    let mut data = matrix.as_slice().to_vec();
    if rows > 0 && method != Normalization::None {
        for c in 0..dim {
            let (offset, scale) = normalization_parameters(method, &matrix.column(c));
            for r in 0..rows {
                let v = &mut data[r * dim + c];
                *v = (*v - offset) / scale;
            }
        }
    }
    let mut out = FeatureMatrix::with_capacity(matrix.kinds().to_vec(), rows);
    for r in 0..rows {
        out.push_row(&data[r * dim..(r + 1) * dim]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        assert_eq!(
            normalization_parameters(Normalization::None, &[5.0, 9.0]),
            (0.0, 1.0)
        );
    }

    #[test]
    fn zscore_parameters() {
        let (offset, scale) = normalization_parameters(Normalization::ZScore, &[1.0, 2.0, 3.0]);
        assert_eq!(offset, 2.0);
        assert!((scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_parameters() {
        let (offset, scale) = normalization_parameters(Normalization::MinMax, &[2.0, 6.0]);
        assert_eq!(offset, 2.0);
        assert_eq!(scale, 4.0);
    }

    #[test]
    fn degenerate_columns_never_divide_by_zero() {
        for method in [Normalization::ZScore, Normalization::MinMax] {
            let (_, scale) = normalization_parameters(method, &[3.0, 3.0, 3.0]);
            assert_eq!(scale, 1.0);
            let (_, scale) = normalization_parameters(method, &[]);
            assert_eq!(scale, 1.0);
        }
    }

    #[test]
    fn reference_scan_founds_and_joins_leaders() {
        let points = vec![vec![0.0], vec![0.5], vec![3.0], vec![0.9], vec![3.2]];
        let c = threshold_fit(&points, 1.0);
        assert_eq!(c.assignments(), &[0, 0, 1, 0, 1]);
        assert_eq!(c.centroids(), &[vec![0.0], vec![3.0]]);
    }

    #[test]
    fn reference_subset_fit_maps_back_to_input_order() {
        let points = vec![vec![3.0], vec![0.0], vec![3.1], vec![0.2], vec![0.1]];
        let fit = threshold_subset_fit(&points, 1.0);
        fit.check(points.len()).unwrap();
        assert_eq!(fit.clustering.assignments(), &[1, 0, 1, 0, 0]);
        // Medoid of {0.0, 0.1, 0.2} is 0.1 (input index 4); of {3.0, 3.1}
        // the first on the tie, 3.0 (input index 0).
        assert_eq!(fit.representatives, vec![4, 0]);
    }
}
