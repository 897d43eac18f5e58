//! Pluggable subsetting backends: one trait over every clustering
//! methodology the bake-off compares.
//!
//! A [`Subsetter`] turns a frame's feature vectors into a [`SubsetterFit`]
//! — a partition of the points plus one representative per cluster — which
//! is exactly the contract the paper's pipeline needs: simulate only the
//! representatives, scale by cluster population.
//!
//! Every backend fits over a *canonical ordering* of the input (points
//! sorted by vector content), so the resulting partition depends only on
//! the multiset of feature vectors, never on submission order. This is what
//! makes order-sensitive algorithms (leader clustering, systematic
//! sampling) permutation-invariant and lets one differential oracle cover
//! all backends.

use crate::bic::select_k_bic;
use crate::clustering::Clustering;
use crate::hierarchical::{Hierarchical, Linkage};
use crate::incremental::{
    IncrementalFit, OnlineKMeans, ReservoirIncremental, ThresholdIncremental,
};
use crate::kmeans::KMeans;
use crate::medoid::medoid_of;
use crate::points::Points;
use crate::threshold::ThresholdClustering;
use subset3d_obs::Stage;
use subset3d_stats::Pca;

// Canonical order plus the gather into one sorted buffer, per fit.
static STAGE_PRESORT: Stage = Stage::new("cluster", "cluster.presort", "cluster.presort_ns");

// Medoid election, empty clusters dropped first, per fit.
static STAGE_MEDOIDS: Stage = Stage::new("cluster", "cluster.medoids", "cluster.medoids_ns");

/// Result of one backend fit: a partition plus representatives.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetterFit {
    /// The partition of the input points.
    pub clustering: Clustering,
    /// One representative point index per cluster, in cluster order. Each
    /// representative is a member of its cluster.
    pub representatives: Vec<usize>,
}

impl SubsetterFit {
    /// An empty fit (no points, no clusters).
    pub fn empty() -> Self {
        SubsetterFit {
            clustering: Clustering::new(Vec::new(), Vec::new()),
            representatives: Vec::new(),
        }
    }

    /// Checks the contract every backend must uphold: the clustering is a
    /// valid partition of `point_count` points, there is exactly one
    /// representative per cluster, and each representative belongs to the
    /// cluster it represents.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check(&self, point_count: usize) -> Result<(), String> {
        if self.clustering.point_count() != point_count {
            return Err(format!(
                "clustered {} of {point_count} points",
                self.clustering.point_count()
            ));
        }
        self.clustering.check_partition()?;
        if self.representatives.len() != self.clustering.len() {
            return Err(format!(
                "{} representatives for {} clusters",
                self.representatives.len(),
                self.clustering.len()
            ));
        }
        for (cluster, &rep) in self.representatives.iter().enumerate() {
            if rep >= point_count {
                return Err(format!(
                    "cluster {cluster} representative {rep} out of range"
                ));
            }
            if self.clustering.assignments()[rep] != cluster {
                return Err(format!(
                    "cluster {cluster} representative {rep} is assigned to cluster {}",
                    self.clustering.assignments()[rep]
                ));
            }
        }
        Ok(())
    }
}

/// A subsetting backend: feature vectors in, partition + representatives out.
///
/// Implementors provide [`Subsetter::fit_ordered`], which may assume its
/// input is canonically ordered; callers use [`Subsetter::fit`], which
/// sorts, delegates, and maps indices back to the caller's order.
pub trait Subsetter {
    /// Stable identifier for CLI flags, reports and trace labels.
    fn name(&self) -> &'static str;

    /// Fits points that are already in canonical (content-sorted) order.
    ///
    /// Implementations must be deterministic functions of the point
    /// *values*; they may rely on the ordering for order-sensitive
    /// algorithms.
    fn fit_ordered(&self, points: Points<'_>) -> SubsetterFit;

    /// Fits arbitrary points: canonicalises the order, gathers the rows
    /// into one sorted buffer, delegates to [`Subsetter::fit_ordered`], and
    /// translates the result back to the input order. The returned
    /// partition therefore depends only on the multiset of point values.
    fn fit(&self, points: Points<'_>) -> SubsetterFit {
        if points.is_empty() {
            return SubsetterFit::empty();
        }
        let stage = STAGE_PRESORT.enter();
        let order = canonical_order(points);
        let sorted = points.gather(&order);
        stage.end();
        let fit = self.fit_ordered(Points::new(&sorted, points.dim()));
        debug_assert!(fit.check(points.len()).is_ok(), "backend contract");
        let mut assignments = vec![0usize; points.len()];
        for (&id, &orig_idx) in fit.clustering.assignments().iter().zip(&order) {
            assignments[orig_idx] = id;
        }
        let representatives = fit.representatives.iter().map(|&r| order[r]).collect();
        SubsetterFit {
            clustering: Clustering::new(assignments, fit.clustering.into_centroids()),
            representatives,
        }
    }

    /// Creates a streaming fit for this backend: points arrive in chunks
    /// via [`IncrementalFit::ingest`] and [`IncrementalFit::fit`] re-emits
    /// an up-to-date partition between any two chunks.
    ///
    /// `capacity` bounds the retained points (clamped to at least one);
    /// `seed` drives the deterministic reservoir decisions. Implementations
    /// must be **chunk-boundary invariant** (state depends only on the point
    /// sequence) and **bit-identical to the batch fit** while
    /// `points_seen ≤ capacity`.
    fn incremental(&self, capacity: usize, seed: u64) -> Box<dyn IncrementalFit>;
}

/// The canonical point ordering every backend fits over: indices sorted by
/// lexicographic comparison of row content (`f64::total_cmp`), original
/// index as the tie-break. Equal rows are interchangeable, so the sorted
/// *value sequence* is a pure function of the input multiset. Coordinate 0
/// is non-decreasing along it, which lets the threshold fit use its sorted
/// window whenever that coordinate is NaN-free.
pub fn canonical_order(points: Points<'_>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    // The index tie-break makes the order total, so an unstable sort
    // yields the one sorted permutation.
    order.sort_unstable_by(|&a, &b| canonical_cmp((points.row(a), a), (points.row(b), b)));
    order
}

/// The comparison behind [`canonical_order`]: rows lexicographically
/// under `f64::total_cmp`, then their indices.
pub(crate) fn canonical_cmp(a: (&[f64], usize), b: (&[f64], usize)) -> std::cmp::Ordering {
    a.0.iter()
        .zip(b.0)
        .map(|(x, y)| x.total_cmp(y))
        .find(|c| c.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Builds a fit from a partition by electing each cluster's medoid as its
/// representative, dropping empty clusters first.
pub(crate) fn fit_with_medoids(points: Points<'_>, mut clustering: Clustering) -> SubsetterFit {
    let _stage = STAGE_MEDOIDS.enter();
    clustering.drop_empty();
    let representatives = clustering
        .member_groups()
        .iter()
        .map(|members| medoid_of(points, members).expect("non-empty cluster has a medoid"))
        .collect();
    SubsetterFit {
        clustering,
        representatives,
    }
}

/// The paper's production backend: single-pass leader clustering at a
/// distance threshold, medoid representatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSubsetter {
    /// Leader distance threshold (same units as the feature space).
    pub distance: f64,
}

impl ThresholdSubsetter {
    /// Creates a threshold backend with the given leader distance.
    pub fn new(distance: f64) -> Self {
        ThresholdSubsetter { distance }
    }
}

impl Subsetter for ThresholdSubsetter {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn fit_ordered(&self, points: Points<'_>) -> SubsetterFit {
        fit_with_medoids(points, ThresholdClustering::new(self.distance).fit(points))
    }

    fn incremental(&self, capacity: usize, seed: u64) -> Box<dyn IncrementalFit> {
        Box::new(ThresholdIncremental::new(self.distance, capacity, seed))
    }
}

/// k-means backend: either a fixed `k` or x-means-style BIC selection,
/// medoid representatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeansSubsetter {
    mode: KMeansMode,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KMeansMode {
    Bic { max_k: usize },
    Fixed { k: usize },
}

impl KMeansSubsetter {
    /// k-means with BIC model selection over `1..=max_k`.
    pub fn bic(max_k: usize, seed: u64) -> Self {
        KMeansSubsetter {
            mode: KMeansMode::Bic { max_k },
            seed,
        }
    }

    /// k-means with a fixed cluster count.
    pub fn fixed(k: usize, seed: u64) -> Self {
        KMeansSubsetter {
            mode: KMeansMode::Fixed { k },
            seed,
        }
    }
}

impl Subsetter for KMeansSubsetter {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn fit_ordered(&self, points: Points<'_>) -> SubsetterFit {
        let rows = points.to_rows();
        let clustering = match self.mode {
            KMeansMode::Bic { max_k } => {
                select_k_bic(&rows, 1..=max_k.min(points.len()).max(1), self.seed)
            }
            KMeansMode::Fixed { k } => KMeans::new(k.max(1)).seed(self.seed).fit(&rows),
        };
        fit_with_medoids(points, clustering)
    }

    fn incremental(&self, capacity: usize, seed: u64) -> Box<dyn IncrementalFit> {
        // MacQueen centroids keep learning from the whole stream; the k
        // bound mirrors the batch mode's search ceiling.
        let k = match self.mode {
            KMeansMode::Bic { max_k } => max_k,
            KMeansMode::Fixed { k } => k,
        };
        Box::new(OnlineKMeans::new(*self, k, capacity, seed))
    }
}

/// Two-phase stratified sampling (after *CPU Simulation Using Two-Phase
/// Stratified Sampling*): phase one buckets points into equal-population
/// strata on a cheap scalar key (the feature-vector component sum); phase
/// two draws a proportional systematic sample within each stratum. The
/// samples are the representatives. Strata only choose the samples: every
/// point then joins its nearest sample across all strata (squared
/// Euclidean distance, the earliest-drawn sample on ties).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratifiedSubsetter {
    /// Number of strata on the cheap scalar key.
    pub strata: usize,
    /// Within-stratum sampling rate in `(0, 1]`; each stratum keeps at
    /// least one sample.
    pub rate: f64,
    /// Seed for the systematic-sampling phase offset.
    pub seed: u64,
}

impl StratifiedSubsetter {
    /// Creates a stratified backend.
    ///
    /// # Panics
    ///
    /// Panics if `strata` is zero or `rate` is not in `(0, 1]`.
    pub fn new(strata: usize, rate: f64, seed: u64) -> Self {
        assert!(strata > 0, "strata must be positive");
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        StratifiedSubsetter { strata, rate, seed }
    }
}

impl Subsetter for StratifiedSubsetter {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn fit_ordered(&self, points: Points<'_>) -> SubsetterFit {
        let n = points.len();
        // Phase 1: stratify on the cheap scalar key. The canonical input
        // order makes the (key, index) sort a pure function of content.
        let keys: Vec<f64> = points.rows().map(|p| p.iter().sum()).collect();
        let mut by_key: Vec<usize> = (0..n).collect();
        by_key.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
        let strata = self.strata.min(n);

        let mut samples: Vec<usize> = Vec::new();
        for s in 0..strata {
            // Equal-population quantile strata over the key-sorted order.
            let lo = s * n / strata;
            let hi = (s + 1) * n / strata;
            let members = &by_key[lo..hi];
            let size = members.len();
            if size == 0 {
                continue;
            }
            // Phase 2: proportional systematic sample, at least one per
            // stratum; the seed rotates the sampling phase deterministically.
            let count = ((size as f64 * self.rate).round() as usize).clamp(1, size);
            let stride = size as f64 / count as f64;
            let phase = (self.seed.wrapping_add(s as u64) % 997) as f64 / 997.0;
            for j in 0..count {
                let idx = ((j as f64 + phase) * stride) as usize;
                samples.push(members[idx.min(size - 1)]);
            }
        }

        // Each point joins its nearest sample by squared distance, searched
        // over the samples of *every* stratum, not just its own. Ties go
        // to the earliest-drawn sample, which leaves duplicate samples
        // empty.
        let mut assignments = vec![0usize; n];
        for (i, point) in points.rows().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (label, &sample) in samples.iter().enumerate() {
                let d: f64 = point
                    .iter()
                    .zip(points.row(sample))
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = label;
                }
            }
            assignments[i] = best;
        }

        // Duplicate samples (identical vectors) lose every tie to the
        // first, leaving their cluster empty; compact those away so each
        // surviving cluster contains its own sample.
        let mut counts = vec![0usize; samples.len()];
        for &a in &assignments {
            counts[a] += 1;
        }
        let mut remap = vec![usize::MAX; samples.len()];
        let mut kept_samples = Vec::new();
        let mut centroids = Vec::new();
        for (label, &sample) in samples.iter().enumerate() {
            if counts[label] > 0 {
                remap[label] = kept_samples.len();
                kept_samples.push(sample);
                centroids.push(points.row(sample).to_vec());
            }
        }
        for a in &mut assignments {
            *a = remap[*a];
        }
        SubsetterFit {
            clustering: Clustering::new(assignments, centroids),
            representatives: kept_samples,
        }
    }

    fn incremental(&self, capacity: usize, seed: u64) -> Box<dyn IncrementalFit> {
        Box::new(ReservoirIncremental::new(*self, capacity, seed))
    }
}

/// PCA + agglomerative backend (after *Characterizing and Subsetting Big
/// Data Workloads*): power-iteration PCA decorrelates the features, then
/// average-linkage agglomerative merging reduces to a target cluster
/// count; medoid representatives in the projected space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcaAggloSubsetter {
    /// Principal components to keep (clamped to the dimensionality).
    pub components: usize,
    /// Target cluster count (clamped to the point count).
    pub clusters: usize,
}

impl PcaAggloSubsetter {
    /// Creates a PCA + agglomerative backend.
    ///
    /// # Panics
    ///
    /// Panics if `components` or `clusters` is zero.
    pub fn new(components: usize, clusters: usize) -> Self {
        assert!(components > 0, "components must be positive");
        assert!(clusters > 0, "clusters must be positive");
        PcaAggloSubsetter {
            components,
            clusters,
        }
    }
}

impl Subsetter for PcaAggloSubsetter {
    fn name(&self) -> &'static str {
        "pca-agglo"
    }

    fn fit_ordered(&self, points: Points<'_>) -> SubsetterFit {
        let rows = points.to_rows();
        // Degenerate inputs (one point, zero variance) fall back to the raw
        // feature space; the merge handles them either way.
        let projected: Vec<Vec<f64>> =
            match Pca::fit(&rows, self.components.min(points.dim()).max(1)) {
                Ok(pca) if !pca.components().is_empty() => {
                    rows.iter().map(|p| pca.project(p)).collect()
                }
                _ => rows,
            };
        let k = self.clusters.min(points.len()).max(1);
        let clustering = Hierarchical::with_cluster_count(Linkage::Average, k).fit(&projected);
        let dim = projected.first().map_or(0, Vec::len);
        fit_with_medoids(Points::new(&projected.concat(), dim), clustering)
    }

    fn incremental(&self, capacity: usize, seed: u64) -> Box<dyn IncrementalFit> {
        Box::new(ReservoirIncremental::new(*self, capacity, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<Box<dyn Subsetter>> {
        vec![
            Box::new(ThresholdSubsetter::new(0.8)),
            Box::new(KMeansSubsetter::bic(6, 42)),
            Box::new(KMeansSubsetter::fixed(4, 42)),
            Box::new(StratifiedSubsetter::new(4, 0.25, 7)),
            Box::new(PcaAggloSubsetter::new(2, 5)),
        ]
    }

    const DIM: usize = 3;

    fn sample_points(n: usize) -> Vec<f64> {
        (0..n)
            .flat_map(|i| {
                let t = i as f64;
                [(t * 0.7).sin() * 3.0, (t * 1.3).cos() * 2.0, t % 5.0]
            })
            .collect()
    }

    #[test]
    fn every_backend_upholds_the_contract() {
        let data = sample_points(40);
        let points = Points::new(&data, DIM);
        for backend in backends() {
            let fit = backend.fit(points);
            fit.check(points.len())
                .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
            assert!(!fit.clustering.is_empty(), "{}", backend.name());
        }
    }

    #[test]
    fn empty_input_fits_to_nothing() {
        for backend in backends() {
            let fit = backend.fit(Points::new(&[], DIM));
            assert_eq!(fit.clustering.len(), 0, "{}", backend.name());
            assert!(fit.representatives.is_empty());
        }
    }

    #[test]
    fn single_point_is_its_own_representative() {
        for backend in backends() {
            let fit = backend.fit(Points::new(&[1.0, 2.0], 2));
            assert_eq!(fit.clustering.len(), 1, "{}", backend.name());
            assert_eq!(fit.representatives, vec![0], "{}", backend.name());
        }
    }

    #[test]
    fn fit_is_permutation_invariant_up_to_content() {
        let data = sample_points(30);
        let points = Points::new(&data, DIM);
        // A fixed shuffle (reversal plus interleave) of the input.
        let perm: Vec<usize> = (0..points.len())
            .map(|i| {
                if i % 2 == 0 {
                    i / 2
                } else {
                    points.len() - 1 - i / 2
                }
            })
            .collect();
        let shuffled_data = points.gather(&perm);
        let shuffled = Points::new(&shuffled_data, DIM);
        for backend in backends() {
            let a = backend.fit(points);
            let b = backend.fit(shuffled);
            // Same partition content: point perm[i] of the original is
            // point i of the shuffle, and labels are canonical, so the
            // label sequences must correspond under the permutation.
            let relabeled: Vec<usize> = perm
                .iter()
                .map(|&i| a.clustering.assignments()[i])
                .collect();
            assert_eq!(
                relabeled,
                b.clustering.assignments(),
                "{} assignments not permutation-invariant",
                backend.name()
            );
            // Representative *vectors* (not indices) are invariant.
            let reps_a: Vec<&[f64]> = a.representatives.iter().map(|&r| points.row(r)).collect();
            let reps_b: Vec<&[f64]> = b.representatives.iter().map(|&r| shuffled.row(r)).collect();
            assert_eq!(reps_a, reps_b, "{} representatives moved", backend.name());
        }
    }

    #[test]
    fn canonical_order_sorts_by_content() {
        let data = [2.0, 0.0, 1.0, 5.0, 1.0, 3.0, 1.0, 3.0];
        assert_eq!(canonical_order(Points::new(&data, 2)), vec![2, 3, 1, 0]);
    }

    #[test]
    fn stratified_rate_bounds_sample_count() {
        let data = sample_points(64);
        let points = Points::new(&data, DIM);
        let sparse = StratifiedSubsetter::new(4, 0.1, 0).fit(points);
        let dense = StratifiedSubsetter::new(4, 0.9, 0).fit(points);
        assert!(sparse.clustering.len() <= dense.clustering.len());
        // 4 strata × ≥1 sample each, duplicates aside.
        assert!(!sparse.clustering.is_empty());
        assert!(dense.clustering.len() <= 64);
    }

    #[test]
    fn pca_agglo_hits_the_target_count() {
        let data = sample_points(20);
        let fit = PcaAggloSubsetter::new(2, 5).fit(Points::new(&data, DIM));
        assert_eq!(fit.clustering.len(), 5);
    }

    #[test]
    fn threshold_backend_matches_partition_of_direct_threshold_on_sorted_input() {
        // On already-canonical input the trait adds nothing but medoids.
        let data = sample_points(25);
        let points = Points::new(&data, DIM);
        let sorted_data = points.gather(&canonical_order(points));
        let sorted = Points::new(&sorted_data, DIM);
        let direct = ThresholdClustering::new(0.8).fit(sorted);
        let via_trait = ThresholdSubsetter::new(0.8).fit(sorted);
        assert_eq!(direct.assignments(), via_trait.clustering.assignments());
    }
}
