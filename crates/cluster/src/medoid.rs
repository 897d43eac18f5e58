//! Medoid extraction: the representative draw of a cluster.

use crate::points::Points;

/// Clusters up to this size get the exact medoid; larger ones the member
/// nearest the centroid.
const EXACT_MEDOID_MAX: usize = 64;

/// Returns the cluster medoid: the element of `members` (a point index)
/// minimising total squared distance to the other members. For large
/// clusters (> 64 members) the member nearest the centroid is returned
/// instead, which is O(n) and near-identical in practice.
///
/// Returns `None` for an empty member list.
///
/// # Examples
///
/// ```
/// use subset3d_cluster::{medoid_of, Points};
///
/// let data = [7.0, 0.0, 9.0, 1.0, 8.0, 3.0, 9.0, 9.0, 9.0, 2.0];
/// let points = Points::new(&data, 1);
/// let m = medoid_of(points, &[3, 5, 9]).unwrap();
/// assert_eq!(m, 9); // the middle of 1.0, 3.0 and 2.0
/// ```
pub fn medoid_of(points: Points<'_>, members: &[usize]) -> Option<usize> {
    match members {
        [] => None,
        [only] => Some(*only),
        _ if members.len() <= EXACT_MEDOID_MAX => Some(exact_medoid(points, members)),
        _ => Some(centroid_nearest(points, members)),
    }
}

/// The member with the least total squared distance to all members, the
/// first one on ties. Each member's total sums its distances in member
/// order. Every pair distance is computed once and added to both ends,
/// since `(x − y)²` and `(y − x)²` are the same number; the self-distance
/// is still computed, because it is NaN rather than zero when a coordinate
/// is infinite.
fn exact_medoid(points: Points<'_>, members: &[usize]) -> usize {
    let mut totals = vec![0.0; members.len()];
    for (a, &i) in members.iter().enumerate() {
        let pa = points.row(i);
        totals[a] += sq_dist(pa, pa);
        for (b, &j) in members.iter().enumerate().skip(a + 1) {
            let d = sq_dist(pa, points.row(j));
            totals[a] += d;
            totals[b] += d;
        }
    }
    let mut best = members[0];
    let mut best_total = f64::INFINITY;
    for (&i, &total) in members.iter().zip(&totals) {
        if total < best_total {
            best_total = total;
            best = i;
        }
    }
    best
}

/// The member nearest the members' mean, the first one on ties.
fn centroid_nearest(points: Points<'_>, members: &[usize]) -> usize {
    let mut centroid = vec![0.0; points.dim()];
    for &i in members {
        for (c, &v) in centroid.iter_mut().zip(points.row(i)) {
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
            sq_dist(points.row(a), &centroid)
                .partial_cmp(&sq_dist(points.row(b), &centroid))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(members[0])
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_members_none() {
        assert_eq!(medoid_of(Points::new(&[1.0], 1), &[]), None);
    }

    #[test]
    fn singleton_is_its_own_medoid() {
        assert_eq!(medoid_of(Points::new(&[1.0, 2.0], 1), &[1]), Some(1));
    }

    #[test]
    fn exact_medoid_small_cluster() {
        let data = [0.0, 0.0, 1.0, 0.0, 0.9, 0.1, 5.0, 5.0];
        // Members 0..3 (excluding the far point 3): medoid should be one of
        // the two nearby points, not the origin outlier.
        let m = medoid_of(Points::new(&data, 2), &[0, 1, 2]).unwrap();
        assert!(m == 1 || m == 2);
    }

    #[test]
    fn large_cluster_uses_centroid_heuristic() {
        // 100 points on a line; medoid ≈ middle.
        let data: Vec<f64> = (0..100).map(f64::from).collect();
        let members: Vec<usize> = (0..100).collect();
        let m = medoid_of(Points::new(&data, 1), &members).unwrap();
        assert!((45..=54).contains(&m), "medoid {m}");
    }

    #[test]
    fn medoid_is_always_a_member() {
        let data: Vec<f64> = (0..80).map(|i| (i as f64 * 1.7).sin()).collect();
        let members: Vec<usize> = (10..50).collect();
        let m = medoid_of(Points::new(&data, 1), &members).unwrap();
        assert!(members.contains(&m));
    }
}
