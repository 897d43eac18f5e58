//! Per-frame draw-call clustering.

use crate::config::{ClusterMethod, SubsetConfig};
use serde::{Deserialize, Serialize};
use subset3d_cluster::{
    KMeansSubsetter, PcaAggloSubsetter, Points, StratifiedSubsetter, Subsetter as SubsetterBackend,
    ThresholdSubsetter,
};
use subset3d_features::{extract_frame_features, FeatureMatrix};
use subset3d_obs::Stage;
use subset3d_trace::{Frame, Workload};

// Per-frame feature-extraction wall time; one sample per clustered
// frame, recorded inside the parallel clustering stage.
static STAGE_FEATURES: Stage = Stage::new(
    "pipeline",
    "pipeline.feature_extraction",
    "pipeline.feature_extraction_ns",
);

// Per-frame normalisation, cost weighting and optional PCA projection of
// the feature matrix, before the backend fit.
static STAGE_NORMALIZE: Stage =
    Stage::new("pipeline", "pipeline.normalize", "pipeline.normalize_ns");

/// One cluster of similar draws within a frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrawCluster {
    /// Indices of member draws within the frame, in submission order.
    pub members: Vec<usize>,
    /// Index of the representative (medoid) draw.
    pub representative: usize,
}

impl DrawCluster {
    /// Number of member draws.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never true for pipeline output).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The clustering of one frame's draws. The default is an empty frame's:
/// no clusters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FrameClustering {
    /// The clusters, in creation order.
    pub clusters: Vec<DrawCluster>,
    /// Number of draws in the clustered frame.
    pub draw_count: usize,
}

impl FrameClustering {
    /// Clustering efficiency: the fraction of per-draw simulations the
    /// clustering avoids, `1 − clusters/draws` (the paper's metric; its
    /// corpus average is 65.8 %).
    pub fn efficiency(&self) -> f64 {
        if self.draw_count == 0 {
            return 0.0;
        }
        1.0 - self.clusters.len() as f64 / self.draw_count as f64
    }

    /// Number of clusters (simulations required).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Indices of the representative draws, in cluster order.
    pub fn representatives(&self) -> Vec<usize> {
        self.clusters.iter().map(|c| c.representative).collect()
    }
}

/// Builds the clustering backend a [`ClusterMethod`] selects.
///
/// The returned [`SubsetterBackend`](subset3d_cluster::Subsetter) fits over
/// a canonical content ordering of its input, so every method — including
/// the order-sensitive leader clustering — produces the same partition for
/// any permutation of the same draws.
///
/// # Examples
///
/// ```
/// use subset3d_core::{subsetter_for, ClusterMethod};
///
/// let backend = subsetter_for(&ClusterMethod::Threshold { distance: 1.0 }, 0);
/// assert_eq!(backend.name(), "threshold");
/// ```
pub fn subsetter_for(method: &ClusterMethod, seed: u64) -> Box<dyn SubsetterBackend> {
    match *method {
        ClusterMethod::Threshold { distance } => Box::new(ThresholdSubsetter::new(distance)),
        ClusterMethod::KMeansBic { max_k } => Box::new(KMeansSubsetter::bic(max_k, seed)),
        ClusterMethod::KMeansFixed { k } => Box::new(KMeansSubsetter::fixed(k, seed)),
        ClusterMethod::Stratified { strata, rate } => {
            Box::new(StratifiedSubsetter::new(strata, rate, seed))
        }
        ClusterMethod::PcaAgglo {
            components,
            clusters,
        } => Box::new(PcaAggloSubsetter::new(components, clusters)),
    }
}

/// Summarises one frame as a single feature vector: the per-column means of
/// its **raw** (un-normalised) MAI feature matrix.
///
/// This is the point the streaming service clusters *across* frames to pick
/// representative frames, so normalisation is deliberately skipped —
/// per-frame z-scoring would zero out exactly the cross-frame differences
/// the clustering needs. Empty frames summarise to the zero vector.
///
/// # Examples
///
/// ```
/// use subset3d_core::{frame_feature_point, SubsetConfig};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(2).draws_per_frame(30).build(1).generate();
/// let config = SubsetConfig::default();
/// let p = frame_feature_point(&w.frames()[0], &w, &config);
/// assert_eq!(p.len(), config.features.len());
/// ```
pub fn frame_feature_point(frame: &Frame, workload: &Workload, config: &SubsetConfig) -> Vec<f64> {
    column_means(&extract_frame_features(
        frame,
        workload,
        config.features.clone(),
    ))
}

/// The per-column means of a raw feature matrix, summed down the rows in
/// order; the zero vector for a matrix with no rows.
fn column_means(matrix: &FeatureMatrix) -> Vec<f64> {
    let mut means = vec![0.0f64; matrix.cols()];
    if matrix.rows() == 0 {
        return means;
    }
    for row in matrix.iter_rows() {
        for (mean, value) in means.iter_mut().zip(row) {
            *mean += value;
        }
    }
    let n = matrix.rows() as f64;
    for mean in &mut means {
        *mean /= n;
    }
    means
}

/// Clusters one frame's draws on their MAI features.
///
/// The frame's features are extracted, normalised *within the frame* (the
/// paper clusters per frame) and grouped with the configured method; each
/// cluster's representative is its feature-space medoid.
///
/// # Examples
///
/// ```
/// use subset3d_core::{cluster_frame, SubsetConfig};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(1).draws_per_frame(50).build(1).generate();
/// let fc = cluster_frame(&w.frames()[0], &w, &SubsetConfig::default());
/// assert!(fc.cluster_count() <= fc.draw_count);
/// assert!(fc.efficiency() > 0.0);
/// ```
pub fn cluster_frame(frame: &Frame, workload: &Workload, config: &SubsetConfig) -> FrameClustering {
    match extract(frame, workload, config) {
        Some(matrix) => cluster_features(matrix, config),
        None => FrameClustering::default(),
    }
}

/// [`cluster_frame`] and [`frame_feature_point`] from one feature
/// extraction: the point is the raw matrix's column means, taken before
/// the clustering normalises it. Bit-identical to calling both.
///
/// # Examples
///
/// ```
/// use subset3d_core::{cluster_frame, cluster_frame_with_point, frame_feature_point, SubsetConfig};
/// use subset3d_trace::gen::GameProfile;
///
/// let w = GameProfile::shooter("g").frames(1).draws_per_frame(50).build(1).generate();
/// let (frame, config) = (&w.frames()[0], SubsetConfig::default());
/// let (clustering, point) = cluster_frame_with_point(frame, &w, &config);
/// assert_eq!(clustering, cluster_frame(frame, &w, &config));
/// assert_eq!(point, frame_feature_point(frame, &w, &config));
/// ```
pub fn cluster_frame_with_point(
    frame: &Frame,
    workload: &Workload,
    config: &SubsetConfig,
) -> (FrameClustering, Vec<f64>) {
    match extract(frame, workload, config) {
        Some(matrix) => {
            let point = column_means(&matrix);
            (cluster_features(matrix, config), point)
        }
        None => (FrameClustering::default(), vec![0.0; config.features.len()]),
    }
}

/// The raw feature matrix of a frame with draws, extracted under the
/// `pipeline.feature_extraction` span; starts the frame's `frame.link`
/// flow arrow. `None` for an empty frame.
fn extract(frame: &Frame, workload: &Workload, config: &SubsetConfig) -> Option<FeatureMatrix> {
    if frame.draw_count() == 0 {
        return None;
    }
    let stage = STAGE_FEATURES.enter_arg("frame", u64::from(frame.id.raw()));
    let matrix = extract_frame_features(frame, workload, config.features.clone());
    // Tail of the flow arrow this frame's `frame.simulate` span completes.
    subset3d_obs::trace_flow_start("pipeline", "frame.link", u64::from(frame.id.raw()));
    stage.end();
    Some(matrix)
}

/// Normalises a frame's raw feature matrix and fits the configured
/// backend over it.
fn cluster_features(mut matrix: FeatureMatrix, config: &SubsetConfig) -> FrameClustering {
    let draw_count = matrix.rows();
    let stage = STAGE_NORMALIZE.enter();
    matrix.normalize(config.normalization);
    if config.cost_weighting {
        matrix.apply_cost_weights();
    }
    // The backend reads the matrix storage in place; only the optional PCA
    // projection builds a buffer of its own.
    let projected = config.pca_components.and_then(|k| {
        let pca = subset3d_stats::Pca::fit(&matrix.to_rows(), k).ok()?;
        let dim = pca.components().len();
        // Degenerate frames (a single draw, or no variance left for a
        // component to keep) fall back to raw features.
        (dim > 0).then(|| {
            let data: Vec<f64> = matrix.iter_rows().flat_map(|r| pca.project(r)).collect();
            (data, dim)
        })
    });
    stage.end();
    let points = match &projected {
        Some((data, dim)) => Points::new(data, *dim),
        None => Points::new(matrix.as_slice(), matrix.cols()),
    };

    let fit = subsetter_for(&config.method, config.seed).fit(points);
    let clusters = fit
        .clustering
        .members()
        .into_iter()
        .zip(fit.representatives)
        .map(|(members, representative)| DrawCluster {
            members,
            representative,
        })
        .collect();
    FrameClustering {
        clusters,
        draw_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("t")
            .frames(3)
            .draws_per_frame(80)
            .build(4)
            .generate()
    }

    fn config() -> SubsetConfig {
        SubsetConfig::default()
    }

    #[test]
    fn clusters_partition_the_frame() {
        let w = workload();
        let frame = &w.frames()[1];
        let fc = cluster_frame(frame, &w, &config());
        let mut seen = vec![false; frame.draw_count()];
        for cluster in &fc.clusters {
            assert!(!cluster.is_empty());
            assert!(cluster.members.contains(&cluster.representative));
            for &m in &cluster.members {
                assert!(!seen[m], "draw {m} in two clusters");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every draw must be clustered");
    }

    #[test]
    fn identical_draws_share_a_cluster() {
        // Zero threshold: only feature-identical draws group; draws of the
        // same material with identical geometry features must co-cluster.
        let w = workload();
        let frame = &w.frames()[1];
        let cfg = config().with_cluster_method(ClusterMethod::Threshold { distance: 0.0 });
        let fc = cluster_frame(frame, &w, &cfg);
        // Zero distance means zero information loss: every cluster's draws
        // have identical features, so efficiency is exactly the fraction of
        // duplicate-feature draws.
        assert!(fc.cluster_count() <= frame.draw_count());
    }

    #[test]
    fn looser_threshold_fewer_clusters() {
        let w = workload();
        let frame = &w.frames()[1];
        let tight = cluster_frame(
            frame,
            &w,
            &config().with_cluster_method(ClusterMethod::Threshold { distance: 0.2 }),
        );
        let loose = cluster_frame(
            frame,
            &w,
            &config().with_cluster_method(ClusterMethod::Threshold { distance: 4.0 }),
        );
        assert!(loose.cluster_count() <= tight.cluster_count());
        assert!(loose.efficiency() >= tight.efficiency());
    }

    #[test]
    fn kmeans_fixed_respects_k() {
        let w = workload();
        let frame = &w.frames()[1];
        let fc = cluster_frame(
            frame,
            &w,
            &config().with_cluster_method(ClusterMethod::KMeansFixed { k: 7 }),
        );
        assert!(fc.cluster_count() <= 7);
        assert!(fc.cluster_count() >= 1);
    }

    #[test]
    fn kmeans_bic_produces_valid_partition() {
        let w = workload();
        let frame = &w.frames()[2];
        let fc = cluster_frame(
            frame,
            &w,
            &config().with_cluster_method(ClusterMethod::KMeansBic { max_k: 12 }),
        );
        let total: usize = fc.clusters.iter().map(DrawCluster::len).sum();
        assert_eq!(total, frame.draw_count());
    }

    #[test]
    fn stratified_produces_valid_partition() {
        let w = workload();
        let frame = &w.frames()[1];
        let fc = cluster_frame(
            frame,
            &w,
            &config().with_cluster_method(ClusterMethod::Stratified {
                strata: 8,
                rate: 0.1,
            }),
        );
        let total: usize = fc.clusters.iter().map(DrawCluster::len).sum();
        assert_eq!(total, frame.draw_count());
        // ~10 % sampling with 8 strata keeps well under one cluster per draw.
        assert!(fc.efficiency() > 0.5, "efficiency {}", fc.efficiency());
    }

    #[test]
    fn pca_agglo_respects_target_count() {
        let w = workload();
        let frame = &w.frames()[1];
        let fc = cluster_frame(
            frame,
            &w,
            &config().with_cluster_method(ClusterMethod::PcaAgglo {
                components: 4,
                clusters: 16,
            }),
        );
        let total: usize = fc.clusters.iter().map(DrawCluster::len).sum();
        assert_eq!(total, frame.draw_count());
        assert!(fc.cluster_count() <= 16);
    }

    #[test]
    fn every_method_clusters_draw_order_invariantly() {
        // The backends fit over a canonical content ordering, so reversing
        // the frame's draw list must yield the same partition content.
        let w = workload();
        let frame = &w.frames()[0];
        let reversed = Frame::new(
            frame.id,
            (0..frame.draw_count())
                .rev()
                .map(|i| frame.draw(i).unwrap())
                .collect(),
        );
        for method in [
            ClusterMethod::Threshold { distance: 1.02 },
            ClusterMethod::KMeansBic { max_k: 8 },
            ClusterMethod::Stratified {
                strata: 8,
                rate: 0.1,
            },
            ClusterMethod::PcaAgglo {
                components: 4,
                clusters: 16,
            },
        ] {
            let cfg = config().with_cluster_method(method.clone());
            let a = cluster_frame(frame, &w, &cfg);
            let b = cluster_frame(&reversed, &w, &cfg);
            assert_eq!(
                a.cluster_count(),
                b.cluster_count(),
                "cluster count moved under draw reversal for {method:?}"
            );
            // Cluster populations must match as multisets.
            let mut sizes_a: Vec<usize> = a.clusters.iter().map(DrawCluster::len).collect();
            let mut sizes_b: Vec<usize> = b.clusters.iter().map(DrawCluster::len).collect();
            sizes_a.sort_unstable();
            sizes_b.sort_unstable();
            assert_eq!(sizes_a, sizes_b, "populations moved for {method:?}");
        }
    }

    #[test]
    fn empty_frame_clusters_to_nothing() {
        let w = workload();
        let empty = Frame::new(subset3d_trace::FrameId(99), Vec::new());
        let fc = cluster_frame(&empty, &w, &config());
        assert_eq!(fc.cluster_count(), 0);
        assert_eq!(fc.efficiency(), 0.0);
    }

    #[test]
    fn pca_projection_still_partitions() {
        let w = workload();
        let frame = &w.frames()[1];
        let fc = cluster_frame(frame, &w, &config().with_pca(Some(4)));
        let total: usize = fc.clusters.iter().map(DrawCluster::len).sum();
        assert_eq!(total, frame.draw_count());
        // Projection can only merge (distances shrink), never split: at the
        // same threshold the cluster count is at most the full-space count.
        let full = cluster_frame(frame, &w, &config());
        assert!(fc.cluster_count() <= full.cluster_count());
    }

    #[test]
    fn pca_on_single_draw_frame_falls_back() {
        let w = workload();
        let one = Frame::new(
            subset3d_trace::FrameId(77),
            vec![w.frames()[0].draw(0).unwrap()],
        );
        let fc = cluster_frame(&one, &w, &config().with_pca(Some(4)));
        assert_eq!(fc.cluster_count(), 1);
    }

    #[test]
    fn deterministic() {
        let w = workload();
        let frame = &w.frames()[0];
        let a = cluster_frame(frame, &w, &config());
        let b = cluster_frame(frame, &w, &config());
        assert_eq!(a, b);
    }
}
