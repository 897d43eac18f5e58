//! Workload-global (cross-frame) draw clustering.
//!
//! The paper clusters *within* each frame. Frames of the same phase are
//! hugely redundant with each other too, so clustering the whole workload's
//! draws at once pushes efficiency much higher — at the cost of per-frame
//! prediction fidelity and one global pass. This module implements the
//! global variant for the E12 ablation.

use crate::config::{ClusterMethod, SubsetConfig};
use serde::{Deserialize, Serialize};
use subset3d_cluster::{medoid_of, Points, ThresholdClustering};
use subset3d_features::{extract_frame_features, FeatureMatrix};
use subset3d_gpusim::WorkloadCost;
use subset3d_stats::mean;
use subset3d_trace::Workload;

/// Location of a draw within a workload.
pub type DrawRef = (usize, usize); // (frame index, draw index)

/// One workload-global cluster of similar draws.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalCluster {
    /// Member draws across the whole trace.
    pub members: Vec<DrawRef>,
    /// The representative (medoid) draw.
    pub representative: DrawRef,
}

/// The workload-global clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalClustering {
    /// Clusters in creation order.
    pub clusters: Vec<GlobalCluster>,
    /// Total draws clustered.
    pub total_draws: usize,
}

impl GlobalClustering {
    /// Workload-level clustering efficiency: simulations avoided across the
    /// whole trace.
    pub fn efficiency(&self) -> f64 {
        if self.total_draws == 0 {
            return 0.0;
        }
        1.0 - self.clusters.len() as f64 / self.total_draws as f64
    }

    /// Number of global clusters (simulations needed).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }
}

/// Prediction quality of a global clustering, judged at frame granularity
/// so it is directly comparable with the per-frame pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalPrediction {
    /// Per-frame relative errors, in trace order.
    pub frame_errors: Vec<f64>,
    /// Fraction of clusters whose intra-cluster error exceeds 20 %.
    pub outlier_fraction: f64,
}

impl GlobalPrediction {
    /// Mean per-frame prediction error.
    pub fn mean_frame_error(&self) -> f64 {
        mean(&self.frame_errors)
    }
}

/// Clusters every draw of the workload at once, normalising features over
/// the whole trace (per-frame normalisation would make frames
/// incomparable). Only threshold clustering is supported globally — k-means
/// over 10⁵⁺ points defeats the purpose of a cheap single pass.
///
/// # Panics
///
/// Panics if the configured method is not [`ClusterMethod::Threshold`].
pub fn cluster_workload_global(workload: &Workload, config: &SubsetConfig) -> GlobalClustering {
    let ClusterMethod::Threshold { distance } = config.method else {
        panic!("global clustering requires the threshold method");
    };
    // One matrix over all draws, with a parallel index of draw locations.
    let mut matrix = FeatureMatrix::with_capacity(config.features.clone(), workload.total_draws());
    let mut locations: Vec<DrawRef> = Vec::with_capacity(workload.total_draws());
    for (fi, frame) in workload.frames().iter().enumerate() {
        let frame_matrix = extract_frame_features(frame, workload, config.features.clone());
        for (di, row) in frame_matrix.iter_rows().enumerate() {
            matrix.push_row(row);
            locations.push((fi, di));
        }
    }
    matrix.normalize(config.normalization);
    if config.cost_weighting {
        matrix.apply_cost_weights();
    }
    let points = Points::new(matrix.as_slice(), matrix.cols());
    let clustering = ThresholdClustering::new(distance).fit(points);

    let clusters = clustering
        .members()
        .into_iter()
        .filter(|m| !m.is_empty())
        .map(|members| {
            let representative = medoid_of(points, &members).expect("non-empty cluster");
            GlobalCluster {
                members: members.into_iter().map(|i| locations[i]).collect(),
                representative: locations[representative],
            }
        })
        .collect();
    GlobalClustering {
        clusters,
        total_draws: locations.len(),
    }
}

/// Evaluates a global clustering against ground-truth workload costs,
/// charging every draw its global representative's cost and scoring
/// per-frame errors (the paper's metric granularity).
///
/// # Panics
///
/// Panics if `costs` does not describe the same workload shape.
pub fn predict_workload_global(
    clustering: &GlobalClustering,
    costs: &WorkloadCost,
) -> GlobalPrediction {
    assert_eq!(
        clustering.total_draws,
        costs.total_draws(),
        "clustering and costs must describe the same workload"
    );
    let n_frames = costs.frames.len();
    let mut predicted = vec![0.0f64; n_frames];
    let mut outliers = 0usize;
    for cluster in &clustering.clusters {
        let (rf, rd) = cluster.representative;
        let rep_cost = costs.frames[rf].draws[rd].time_ns;
        let mut cluster_actual = 0.0;
        for &(fi, di) in &cluster.members {
            predicted[fi] += rep_cost;
            cluster_actual += costs.frames[fi].draws[di].time_ns;
        }
        let cluster_predicted = rep_cost * cluster.members.len() as f64;
        if cluster_actual > 0.0
            && (cluster_predicted - cluster_actual).abs() / cluster_actual > 0.20
        {
            outliers += 1;
        }
    }
    let frame_errors = costs
        .frames
        .iter()
        .zip(&predicted)
        .map(|(frame, &p)| {
            if frame.total_ns > 0.0 {
                (p - frame.total_ns).abs() / frame.total_ns
            } else {
                0.0
            }
        })
        .collect();
    GlobalPrediction {
        frame_errors,
        outlier_fraction: if clustering.clusters.is_empty() {
            0.0
        } else {
            outliers as f64 / clustering.clusters.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawcluster::cluster_frame;
    use subset3d_gpusim::{ArchConfig, Simulator};
    use subset3d_trace::gen::GameProfile;

    fn setup() -> (Workload, WorkloadCost) {
        let w = GameProfile::shooter("g")
            .frames(12)
            .draws_per_frame(80)
            .build(41)
            .generate();
        let cost = Simulator::new(ArchConfig::baseline())
            .simulate_workload(&w)
            .unwrap();
        (w, cost)
    }

    #[test]
    fn global_clusters_partition_all_draws() {
        let (w, _) = setup();
        let g = cluster_workload_global(&w, &SubsetConfig::default());
        let total: usize = g.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, w.total_draws());
        let mut seen = std::collections::BTreeSet::new();
        for c in &g.clusters {
            assert!(c.members.contains(&c.representative));
            for &m in &c.members {
                assert!(seen.insert(m), "{m:?} in two clusters");
            }
        }
    }

    #[test]
    fn global_efficiency_beats_per_frame() {
        let (w, _) = setup();
        let config = SubsetConfig::default();
        let global = cluster_workload_global(&w, &config);
        let per_frame_clusters: usize = w
            .frames()
            .iter()
            .map(|f| cluster_frame(f, &w, &config).cluster_count())
            .sum();
        assert!(
            global.cluster_count() < per_frame_clusters,
            "global {} should need fewer sims than per-frame {}",
            global.cluster_count(),
            per_frame_clusters
        );
        assert!(global.efficiency() > 0.5);
    }

    #[test]
    fn global_prediction_error_is_bounded() {
        let (w, cost) = setup();
        let g = cluster_workload_global(&w, &SubsetConfig::default());
        let p = predict_workload_global(&g, &cost);
        assert_eq!(p.frame_errors.len(), w.frames().len());
        assert!(
            p.mean_frame_error() < 0.25,
            "error {}",
            p.mean_frame_error()
        );
        assert!((0.0..=1.0).contains(&p.outlier_fraction));
    }

    #[test]
    fn deterministic() {
        let (w, _) = setup();
        let a = cluster_workload_global(&w, &SubsetConfig::default());
        let b = cluster_workload_global(&w, &SubsetConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "threshold method")]
    fn non_threshold_method_rejected() {
        let (w, _) = setup();
        let config = SubsetConfig::default()
            .with_cluster_method(crate::config::ClusterMethod::KMeansFixed { k: 4 });
        cluster_workload_global(&w, &config);
    }

    #[test]
    #[should_panic(expected = "same workload")]
    fn mismatched_costs_rejected() {
        let (w, _) = setup();
        let g = cluster_workload_global(&w, &SubsetConfig::default());
        let other = GameProfile::shooter("o")
            .frames(2)
            .draws_per_frame(10)
            .build(1)
            .generate();
        let cost = Simulator::new(ArchConfig::baseline())
            .simulate_workload(&other)
            .unwrap();
        predict_workload_global(&g, &cost);
    }
}
