//! The end-to-end subsetting pipeline.

use crate::config::SubsetConfig;
use crate::drawcluster::{cluster_frame, frame_feature_point, subsetter_for, FrameClustering};
use crate::error::SubsetError;
use crate::outlier::outlier_fraction;
use crate::pattern::PhasePattern;
use crate::phase::{PhaseAnalysis, PhaseDetector};
use crate::predict::{predict_frame, FramePrediction};
use crate::subset::WorkloadSubset;
use serde::{Deserialize, Serialize};
use subset3d_cluster::Points;
use subset3d_gpusim::Simulator;
use subset3d_obs::Stage;
use subset3d_stats::{mean, mean_iter};
use subset3d_trace::Workload;

// Wall time per pipeline stage; `pipeline.run` spans one whole
// `Subsetter::run`, the rest partition it (modulo glue code).
static STAGE_TOTAL: Stage = Stage::new("pipeline", "pipeline.run", "pipeline.total_ns");
static STAGE_CLUSTERING: Stage =
    Stage::new("pipeline", "pipeline.clustering", "pipeline.clustering_ns");
static STAGE_EVALUATION: Stage =
    Stage::new("pipeline", "pipeline.evaluation", "pipeline.evaluation_ns");
static STAGE_PHASES: Stage = Stage::new(
    "pipeline",
    "pipeline.phase_detection",
    "pipeline.phase_detection_ns",
);
static STAGE_SUBSET: Stage = Stage::new(
    "pipeline",
    "pipeline.subset_build",
    "pipeline.subset_build_ns",
);

/// Per-workload clustering evaluation: the paper's Table-2 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEvaluation {
    /// Per-frame prediction results, in trace order.
    pub frames: Vec<FramePrediction>,
    /// Per-frame clustering efficiencies, in trace order.
    pub efficiencies: Vec<f64>,
}

impl WorkloadEvaluation {
    /// Average per-frame performance-prediction error (paper target ≈ 1 %).
    pub fn mean_prediction_error(&self) -> f64 {
        mean_iter(self.frames.iter().map(FramePrediction::error))
    }

    /// Average clustering efficiency (paper target ≈ 65.8 %).
    pub fn mean_efficiency(&self) -> f64 {
        mean(&self.efficiencies)
    }

    /// Fraction of clusters that are outliers (paper target ≈ 3 %).
    pub fn outlier_fraction(&self) -> f64 {
        outlier_fraction(&self.frames)
    }
}

/// Compact, serialisable summary of a pipeline run — the machine-readable
/// counterpart of the experiment tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeSummary {
    /// Name of the subset workload's parent.
    pub workload: String,
    /// Parent frame count.
    pub frames: usize,
    /// Parent draw count.
    pub draws: usize,
    /// Average per-frame clustering efficiency.
    pub mean_efficiency: f64,
    /// Average per-frame prediction error.
    pub mean_prediction_error: f64,
    /// Fraction of outlier clusters (>20 % intra-cluster error).
    pub outlier_fraction: f64,
    /// Number of detected phases.
    pub phase_count: usize,
    /// Fraction of intervals covered by repeating phases.
    pub repeat_coverage: f64,
    /// Draws kept in the subset.
    pub subset_draws: usize,
    /// Subset size as a fraction of parent draws.
    pub subset_fraction: f64,
}

/// Everything the pipeline produces for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsettingOutcome {
    /// Per-frame clusterings.
    pub clusterings: Vec<FrameClustering>,
    /// Clustering-quality evaluation.
    pub evaluation: WorkloadEvaluation,
    /// Detected phases.
    pub phases: PhaseAnalysis,
    /// Repeating-pattern summary of the phase sequence.
    pub pattern: PhasePattern,
    /// The extracted subset.
    pub subset: WorkloadSubset,
}

impl SubsettingOutcome {
    /// Condenses the outcome into the serialisable [`OutcomeSummary`].
    pub fn summary(&self, workload: &Workload) -> OutcomeSummary {
        OutcomeSummary {
            workload: workload.name.clone(),
            frames: workload.frames().len(),
            draws: workload.total_draws(),
            mean_efficiency: self.evaluation.mean_efficiency(),
            mean_prediction_error: self.evaluation.mean_prediction_error(),
            outlier_fraction: self.evaluation.outlier_fraction(),
            phase_count: self.phases.phase_count(),
            repeat_coverage: self.phases.repeat_coverage(),
            subset_draws: self.subset.selected_draw_count(),
            subset_fraction: self.subset.draw_fraction(),
        }
    }
}

/// The end-to-end subsetting pipeline: cluster every frame, evaluate
/// prediction quality, detect phases, and assemble the subset.
///
/// Frames are independent, so both per-frame stages — clustering, then
/// simulation plus prediction — run one task per frame on the shared
/// [`subset3d_exec`] pool. Results land in frame order, so everything is
/// deterministic for a given configuration at any thread count.
#[derive(Debug, Clone)]
pub struct Subsetter {
    config: SubsetConfig,
}

impl Subsetter {
    /// Creates a pipeline with a configuration.
    pub fn new(config: SubsetConfig) -> Self {
        Subsetter { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SubsetConfig {
        &self.config
    }

    /// Runs the pipeline on a workload using `sim` as the ground-truth cost
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`SubsetError::InvalidConfig`] for inconsistent
    /// configurations, [`SubsetError::EmptyWorkload`] for empty traces, and
    /// propagates simulator errors as [`SubsetError::Simulation`]: when
    /// several frames fail, the error of the first in trace order,
    /// whatever the thread count.
    pub fn run(
        &self,
        workload: &Workload,
        sim: &Simulator,
    ) -> Result<SubsettingOutcome, SubsetError> {
        self.config.validate()?;
        if workload.frames().is_empty() {
            return Err(SubsetError::EmptyWorkload);
        }
        let _total = STAGE_TOTAL.enter_arg("frames", workload.frames().len() as u64);

        let stage = STAGE_CLUSTERING.enter();
        let clusterings = self.cluster_all_frames(workload);
        stage.end();

        // Ground-truth frame costs and prediction quality, one pool task
        // per frame. Each task drops its frame's costs once predicted, so
        // at most one frame's costs per thread are alive at a time.
        let stage = STAGE_EVALUATION.enter();
        let evaluation = evaluate_frames(workload, sim, &clusterings)?;
        stage.end();

        let stage = STAGE_PHASES.enter();
        let phases = PhaseDetector::new(self.config.interval_len)
            .with_similarity(self.config.phase_similarity)
            .detect(workload)?;
        let pattern = PhasePattern::of(&phases);
        stage.end();

        let stage = STAGE_SUBSET.enter();
        let subset = WorkloadSubset::build(
            workload,
            &phases,
            &clusterings,
            self.config.frames_per_phase,
        );
        stage.end();

        Ok(SubsettingOutcome {
            clusterings,
            evaluation,
            phases,
            pattern,
            subset,
        })
    }

    /// Fits the configured backend over the workload's per-frame feature
    /// points ([`crate::frame_feature_point`]): one point per frame, one
    /// partition of the frames, one representative frame per cluster.
    ///
    /// This is the batch counterpart of the streaming session's global fit
    /// — the differential oracle's reference. A session that ingests the
    /// same frames in the same order with a reservoir at least as large as
    /// the workload produces a bit-identical fit.
    ///
    /// # Errors
    ///
    /// Returns [`SubsetError::InvalidConfig`] for inconsistent
    /// configurations and [`SubsetError::EmptyWorkload`] for empty traces.
    pub fn global_fit(
        &self,
        workload: &Workload,
    ) -> Result<subset3d_cluster::SubsetterFit, SubsetError> {
        self.config.validate()?;
        if workload.frames().is_empty() {
            return Err(SubsetError::EmptyWorkload);
        }
        let dim = self.config.features.len();
        let mut points = Vec::with_capacity(workload.frames().len() * dim);
        for frame in workload.frames() {
            points.extend(frame_feature_point(frame, workload, &self.config));
        }
        let backend = subsetter_for(&self.config.method, self.config.seed);
        Ok(backend.fit(Points::new(&points, dim)))
    }

    /// Clusters every frame, in parallel on the shared [`subset3d_exec`]
    /// pool. Results are in frame order and identical at any thread count.
    fn cluster_all_frames(&self, workload: &Workload) -> Vec<FrameClustering> {
        subset3d_exec::par_map_indexed(workload.frames(), |_, frame| {
            let _t = subset3d_obs::trace_span_arg(
                "pipeline",
                "frame.cluster",
                "frame",
                u64::from(frame.id.raw()),
            );
            cluster_frame(frame, workload, &self.config)
        })
    }
}

/// Simulates every frame and predicts its cost from its clustering, in
/// parallel on the shared [`subset3d_exec`] pool. Predictions are in
/// frame order and identical at any thread count; on failure the error
/// is that of the first failing frame in trace order.
fn evaluate_frames(
    workload: &Workload,
    sim: &Simulator,
    clusterings: &[FrameClustering],
) -> Result<WorkloadEvaluation, SubsetError> {
    let frames = subset3d_exec::par_map_indexed(workload.frames(), |i, frame| {
        let t_frame = subset3d_obs::trace_span_arg(
            "pipeline",
            "frame.simulate",
            "frame",
            u64::from(frame.id.raw()),
        );
        // Empty frames skip feature extraction (no flow start to pair).
        if !frame.is_empty() {
            subset3d_obs::trace_flow_end("pipeline", "frame.link", u64::from(frame.id.raw()));
        }
        let cost = sim.simulate_frame(frame, workload);
        t_frame.end();
        cost.map(|cost| predict_frame(&clusterings[i], &cost))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(WorkloadEvaluation {
        frames,
        efficiencies: clusterings
            .iter()
            .map(FrameClustering::efficiency)
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subset3d_gpusim::ArchConfig;
    use subset3d_trace::gen::GameProfile;

    fn workload() -> Workload {
        GameProfile::shooter("t")
            .frames(30)
            .draws_per_frame(60)
            .build(23)
            .generate()
    }

    #[test]
    fn full_pipeline_runs() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = Subsetter::new(SubsetConfig::default())
            .run(&w, &sim)
            .unwrap();
        assert_eq!(outcome.clusterings.len(), w.frames().len());
        assert_eq!(outcome.evaluation.frames.len(), w.frames().len());
        assert!(outcome.evaluation.mean_efficiency() > 0.0);
        assert!(outcome.evaluation.mean_prediction_error() < 0.3);
        assert!(outcome.phases.phase_count() > 0);
        outcome.subset.validate(&w).unwrap();
    }

    #[test]
    fn outcome_summary_is_consistent_and_serialisable() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let outcome = Subsetter::new(SubsetConfig::default())
            .run(&w, &sim)
            .unwrap();
        let summary = outcome.summary(&w);
        assert_eq!(summary.frames, w.frames().len());
        assert_eq!(summary.draws, w.total_draws());
        assert_eq!(summary.subset_draws, outcome.subset.selected_draw_count());
        assert!((summary.subset_fraction - outcome.subset.draw_fraction()).abs() < 1e-12);
        let json = serde_json::to_string(&summary).unwrap();
        let back: OutcomeSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(summary, back);
    }

    #[test]
    fn parallel_clustering_matches_sequential() {
        let w = workload();
        let config = SubsetConfig::default();
        let subsetter = Subsetter::new(config.clone());
        let parallel = subsetter.cluster_all_frames(&w);
        let sequential: Vec<FrameClustering> = w
            .frames()
            .iter()
            .map(|f| cluster_frame(f, &w, &config))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn empty_workload_rejected() {
        let w = Workload::new(
            "empty",
            Vec::new(),
            Default::default(),
            Default::default(),
            Default::default(),
        );
        let sim = Simulator::new(ArchConfig::baseline());
        assert_eq!(
            Subsetter::new(SubsetConfig::default()).run(&w, &sim),
            Err(SubsetError::EmptyWorkload)
        );
    }

    #[test]
    fn invalid_config_rejected_before_work() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let bad = SubsetConfig::default().with_interval_len(0);
        assert!(matches!(
            Subsetter::new(bad).run(&w, &sim),
            Err(SubsetError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn global_fit_partitions_frames() {
        let w = workload();
        let subsetter = Subsetter::new(SubsetConfig::default());
        let fit = subsetter.global_fit(&w).unwrap();
        fit.check(w.frames().len()).unwrap();
        assert!(!fit.representatives.is_empty());
        assert!(fit.representatives.len() <= w.frames().len());
        // Deterministic: same config, same workload, same fit.
        assert_eq!(fit, subsetter.global_fit(&w).unwrap());
    }

    #[test]
    fn global_fit_rejects_empty_workload() {
        let w = Workload::new(
            "empty",
            Vec::new(),
            Default::default(),
            Default::default(),
            Default::default(),
        );
        assert_eq!(
            Subsetter::new(SubsetConfig::default()).global_fit(&w),
            Err(SubsetError::EmptyWorkload)
        );
    }

    #[test]
    fn deterministic_outcome() {
        let w = workload();
        let sim = Simulator::new(ArchConfig::baseline());
        let a = Subsetter::new(SubsetConfig::default())
            .run(&w, &sim)
            .unwrap();
        let b = Subsetter::new(SubsetConfig::default())
            .run(&w, &sim)
            .unwrap();
        assert_eq!(a, b);
    }
}
