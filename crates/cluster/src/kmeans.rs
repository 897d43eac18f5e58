//! Lloyd's k-means with k-means++ seeding.

use crate::clustering::Clustering;
use crate::init::kmeans_plus_plus;
use subset3d_obs::Stage;

// Wall time per fit; the histogram's count is the number of fits.
static STAGE_FIT: Stage = Stage::new("cluster", "kmeans.fit", "cluster.kmeans.fit_ns");

/// k-means clustering configuration.
///
/// # Examples
///
/// ```
/// use subset3d_cluster::KMeans;
///
/// let points = vec![vec![0.0], vec![0.1], vec![9.0], vec![9.1]];
/// let c = KMeans::new(2).seed(7).fit(&points);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.assignments()[0], c.assignments()[1]);
/// assert_ne!(c.assignments()[0], c.assignments()[2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    seed: u64,
}

impl KMeans {
    /// Creates a k-means run with `k` clusters, default 50 Lloyd iterations
    /// and seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            k,
            max_iters: 50,
            seed: 0,
        }
    }

    /// Sets the RNG seed for initialisation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the Lloyd iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters.max(1);
        self
    }

    /// Runs k-means. If fewer points than `k` exist, every point founds its
    /// own cluster. Empty clusters are reseeded with the point farthest from
    /// its centroid.
    pub fn fit(&self, points: &[Vec<f64>]) -> Clustering {
        if points.is_empty() {
            return Clustering::new(Vec::new(), Vec::new());
        }
        let k = self.k.min(points.len());
        let dim = points[0].len();
        let mut stage = STAGE_FIT.enter();
        let mut iterations = 0u64;
        let mut centroids: Vec<Vec<f64>> = kmeans_plus_plus(points, k, self.seed)
            .into_iter()
            .map(|i| points[i].clone())
            .collect();
        let mut assignments = vec![0usize; points.len()];
        for _ in 0..self.max_iters {
            iterations += 1;
            // Assignment step.
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let nearest = nearest_centroid(p, &centroids);
                if assignments[i] != nearest {
                    assignments[i] = nearest;
                    changed = true;
                }
            }
            // Update step.
            let mut sums = vec![vec![0.0; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (&a, p) in assignments.iter().zip(points) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for (ci, (sum, &count)) in sums.iter().zip(&counts).enumerate() {
                if count > 0 {
                    for (c, s) in centroids[ci].iter_mut().zip(sum) {
                        *c = s / count as f64;
                    }
                } else {
                    // Reseed the empty cluster with the worst-fit point.
                    let far = farthest_point(points, &assignments, &centroids);
                    centroids[ci] = points[far].clone();
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        stage.set_arg("iterations", iterations);
        // Final assignment against the final centroids.
        for (i, p) in points.iter().enumerate() {
            assignments[i] = nearest_centroid(p, &centroids);
        }
        let mut clustering = Clustering::new(assignments, centroids);
        clustering.drop_empty();
        clustering
    }
}

fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn farthest_point(points: &[Vec<f64>], assignments: &[usize], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = -1.0;
    for (i, p) in points.iter().enumerate() {
        let d = sq_dist(p, &centroids[assignments[i]]);
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (8.0, 8.0), (0.0, 8.0)] {
            for i in 0..30 {
                pts.push(vec![cx + (i % 6) as f64 * 0.05, cy + (i / 6) as f64 * 0.05]);
            }
        }
        pts
    }

    #[test]
    fn separates_well_separated_blobs() {
        let pts = blobs();
        let c = KMeans::new(3).seed(1).fit(&pts);
        assert_eq!(c.len(), 3);
        // Every blob maps to exactly one cluster.
        for blob in 0..3 {
            let ids: std::collections::BTreeSet<usize> =
                (0..30).map(|i| c.assignments()[blob * 30 + i]).collect();
            assert_eq!(ids.len(), 1, "blob {blob} split across {ids:?}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let pts = blobs();
        let a = KMeans::new(3).seed(42).fit(&pts);
        let b = KMeans::new(3).seed(42).fit(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let pts = blobs();
        let i2 = KMeans::new(2).seed(5).fit(&pts).inertia(&pts);
        let i3 = KMeans::new(3).seed(5).fit(&pts).inertia(&pts);
        assert!(i3 < i2);
    }

    #[test]
    fn k_exceeding_points_gives_singletons() {
        let pts = vec![vec![0.0], vec![5.0]];
        let c = KMeans::new(10).fit(&pts);
        assert_eq!(c.len(), 2);
        assert_eq!(c.inertia(&pts), 0.0);
    }

    #[test]
    fn empty_input() {
        let c = KMeans::new(3).fit(&[]);
        assert!(c.is_empty());
    }

    #[test]
    fn duplicate_points_single_cluster_centroid() {
        let pts = vec![vec![2.0, 2.0]; 10];
        let c = KMeans::new(2).seed(9).fit(&pts);
        // All points identical: inertia must be zero whatever k resolves to.
        assert_eq!(c.inertia(&pts), 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        KMeans::new(0);
    }
}
