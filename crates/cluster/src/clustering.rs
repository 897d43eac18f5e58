//! The common clustering result type.

use serde::{Deserialize, Serialize};

/// Result of a clustering run: per-point assignments plus cluster centroids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    assignments: Vec<usize>,
    centroids: Vec<Vec<f64>>,
}

impl Clustering {
    /// Builds a clustering from assignments and centroids.
    ///
    /// # Panics
    ///
    /// Panics if an assignment indexes past the centroid list.
    pub fn new(assignments: Vec<usize>, centroids: Vec<Vec<f64>>) -> Self {
        assert!(
            assignments.iter().all(|&a| a < centroids.len()),
            "assignment out of centroid range"
        );
        Clustering {
            assignments,
            centroids,
        }
    }

    /// Cluster index of every point, in input order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Cluster centroids (feature-space means or leaders).
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Number of clustered points.
    pub fn point_count(&self) -> usize {
        self.assignments.len()
    }

    /// Member point indices of every cluster, ascending.
    pub fn members(&self) -> Vec<Vec<usize>> {
        self.member_groups().iter().map(<[usize]>::to_vec).collect()
    }

    /// [`Clustering::members`] in one flat array, filled by a counting
    /// pass over the assignments.
    pub(crate) fn member_groups(&self) -> MemberGroups {
        let k = self.centroids.len();
        let mut offsets = vec![0usize; k + 1];
        for &a in &self.assignments {
            offsets[a + 1] += 1;
        }
        for c in 0..k {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets[..k].to_vec();
        let mut members = vec![0; self.assignments.len()];
        for (i, &a) in self.assignments.iter().enumerate() {
            members[next[a]] = i;
            next[a] += 1;
        }
        MemberGroups { offsets, members }
    }

    /// The centroids, moved out of the clustering.
    pub(crate) fn into_centroids(self) -> Vec<Vec<f64>> {
        self.centroids
    }

    /// Sum of squared Euclidean distances of points to their centroids.
    pub fn inertia(&self, points: &[Vec<f64>]) -> f64 {
        self.assignments
            .iter()
            .zip(points)
            .map(|(&a, p)| {
                self.centroids[a]
                    .iter()
                    .zip(p)
                    .map(|(c, x)| (c - x) * (c - x))
                    .sum::<f64>()
            })
            .sum()
    }

    /// Checks the partition invariant every algorithm must uphold: each
    /// point is assigned to exactly one existing cluster and
    /// [`Clustering::members`] covers each point exactly once. Returns a
    /// description of the first violation, if any.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable reason when the invariant does
    /// not hold.
    pub fn check_partition(&self) -> Result<(), String> {
        for (i, &a) in self.assignments.iter().enumerate() {
            if a >= self.centroids.len() {
                return Err(format!(
                    "point {i} assigned to cluster {a} of {}",
                    self.centroids.len()
                ));
            }
        }
        let mut seen = vec![false; self.assignments.len()];
        for (cluster, members) in self.members().iter().enumerate() {
            for &m in members {
                if m >= seen.len() {
                    return Err(format!("cluster {cluster} lists unknown point {m}"));
                }
                if seen[m] {
                    return Err(format!("point {m} appears in two clusters"));
                }
                seen[m] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("point {missing} is in no cluster"));
        }
        Ok(())
    }

    /// Returns the clustering with cluster indices permuted by `perm`
    /// (cluster `i` becomes cluster `perm[i]`): the same partition under
    /// new labels. Metamorphic tests use this to assert label-invariance
    /// of downstream metrics.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..len()`.
    pub fn relabeled(&self, perm: &[usize]) -> Clustering {
        assert_eq!(perm.len(), self.centroids.len(), "permutation length");
        let mut inverse = vec![usize::MAX; perm.len()];
        for (from, &to) in perm.iter().enumerate() {
            assert!(
                to < perm.len() && inverse[to] == usize::MAX,
                "not a permutation"
            );
            inverse[to] = from;
        }
        Clustering {
            assignments: self.assignments.iter().map(|&a| perm[a]).collect(),
            centroids: inverse.iter().map(|&i| self.centroids[i].clone()).collect(),
        }
    }

    /// Removes clusters with no members, compacting indices; returns the
    /// number of clusters removed.
    pub fn drop_empty(&mut self) -> usize {
        let mut counts = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            counts[a] += 1;
        }
        let mut remap = vec![usize::MAX; self.centroids.len()];
        let mut kept = Vec::with_capacity(self.centroids.len());
        for (i, c) in self.centroids.drain(..).enumerate() {
            if counts[i] > 0 {
                remap[i] = kept.len();
                kept.push(c);
            }
        }
        let removed = remap.iter().filter(|&&r| r == usize::MAX).count();
        self.centroids = kept;
        for a in &mut self.assignments {
            *a = remap[*a];
        }
        removed
    }
}

/// The members of every cluster in one flat array: cluster `k`'s members,
/// ascending, are `members[offsets[k]..offsets[k + 1]]`.
#[derive(Debug)]
pub(crate) struct MemberGroups {
    offsets: Vec<usize>,
    members: Vec<usize>,
}

impl MemberGroups {
    /// Each cluster's members, in cluster order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.offsets.windows(2).map(|w| &self.members[w[0]..w[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_partition_points() {
        let c = Clustering::new(vec![0, 1, 0, 1, 1], vec![vec![0.0], vec![1.0]]);
        let members = c.members();
        assert_eq!(members[0], vec![0, 2]);
        assert_eq!(members[1], vec![1, 3, 4]);
        assert_eq!(c.point_count(), 5);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn member_groups_keep_ascending_members_and_empty_clusters() {
        let c = Clustering::new(vec![2, 0, 2, 2, 0], vec![vec![0.0]; 4]);
        let groups = c.member_groups();
        let groups: Vec<&[usize]> = groups.iter().collect();
        assert_eq!(groups, [&[1, 4][..], &[], &[0, 2, 3], &[]]);
        assert_eq!(c.members(), vec![vec![1, 4], vec![], vec![0, 2, 3], vec![]]);
    }

    #[test]
    #[should_panic(expected = "out of centroid range")]
    fn bad_assignment_rejected() {
        Clustering::new(vec![2], vec![vec![0.0]]);
    }

    #[test]
    fn inertia_zero_for_exact_points() {
        let points = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let c = Clustering::new(vec![0, 1], points.clone());
        assert_eq!(c.inertia(&points), 0.0);
    }

    #[test]
    fn inertia_accumulates_squares() {
        let points = vec![vec![0.0], vec![2.0]];
        let c = Clustering::new(vec![0, 0], vec![vec![1.0]]);
        assert_eq!(c.inertia(&points), 2.0);
    }

    #[test]
    fn drop_empty_compacts() {
        let mut c = Clustering::new(vec![0, 2, 2], vec![vec![0.0], vec![9.0], vec![2.0]]);
        let removed = c.drop_empty();
        assert_eq!(removed, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.assignments(), &[0, 1, 1]);
        assert_eq!(c.centroids()[1], vec![2.0]);
    }

    #[test]
    fn drop_empty_noop_when_full() {
        let mut c = Clustering::new(vec![0, 1], vec![vec![0.0], vec![1.0]]);
        assert_eq!(c.drop_empty(), 0);
        assert_eq!(c.len(), 2);
    }
}
