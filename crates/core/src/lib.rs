//! 3D workload subsetting for GPU architecture pathfinding.
//!
//! This crate implements the methodology of *"3D Workload Subsetting for
//! GPU Architecture Pathfinding"* (V. George, IISWC 2015):
//!
//! 1. **Draw-call clustering** ([`cluster_frame`], [`FrameClustering`]) —
//!    draws within each frame are grouped by similarity of their
//!    micro-architecture-independent features; only one representative per
//!    cluster needs simulation, and the frame's performance is predicted as
//!    the weighted sum of representative costs ([`predict_frame`]).
//!    Quality metrics mirror the paper: per-frame *prediction error*,
//!    *clustering efficiency* (fraction of simulations avoided) and
//!    *cluster outliers* (clusters whose intra-cluster prediction error
//!    exceeds 20 %).
//! 2. **Phase detection** ([`PhaseDetector`]) — frame intervals are
//!    characterised by their [`ShaderVector`]s; intervals with equal
//!    vectors belong to the same phase, exposing the repetitive structure
//!    of gameplay and letting one interval stand for every repeat.
//! 3. **Subset extraction & validation** ([`Subsetter`],
//!    [`WorkloadSubset`]) — combining both reductions yields subsets well
//!    under 1 % of the parent workload whose response to architecture
//!    changes (frequency scaling, design-point ranking) tracks the parent
//!    with correlation above 99 %.
//!
//! # Examples
//!
//! ```
//! use subset3d_core::{SubsetConfig, Subsetter};
//! use subset3d_gpusim::{ArchConfig, Simulator};
//! use subset3d_trace::gen::GameProfile;
//!
//! let workload = GameProfile::shooter("demo")
//!     .frames(24)
//!     .draws_per_frame(60)
//!     .build(7)
//!     .generate();
//! let sim = Simulator::new(ArchConfig::baseline());
//! let outcome = Subsetter::new(SubsetConfig::default()).run(&workload, &sim)?;
//!
//! // The subset is a small fraction of the parent…
//! assert!(outcome.subset.draw_fraction() < 0.5);
//! // …and clustering predicted per-frame performance accurately.
//! assert!(outcome.evaluation.mean_prediction_error() < 0.2);
//! # Ok::<(), subset3d_core::SubsetError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod crossframe;
mod drawcluster;
mod error;
mod interval;
mod outlier;
mod pattern;
mod phase;
mod phase_alt;
mod pipeline;
mod predict;
mod report;
mod shader_vector;
mod snapshot;
mod subset;
mod suite;
mod validate;

pub use config::{ClusterMethod, SubsetConfig};
pub use crossframe::{
    cluster_workload_global, predict_workload_global, DrawRef, GlobalCluster, GlobalClustering,
    GlobalPrediction,
};
pub use drawcluster::{
    cluster_frame, cluster_frame_with_point, frame_feature_point, subsetter_for, DrawCluster,
    FrameClustering,
};
pub use error::SubsetError;
pub use interval::{interval_signatures, FrameInterval};
pub use outlier::{outlier_fraction, OUTLIER_ERROR_THRESHOLD};
pub use pattern::PhasePattern;
pub use phase::{Phase, PhaseAnalysis, PhaseDetector};
pub use phase_alt::detect_phases_by_load;
pub use pipeline::{OutcomeSummary, Subsetter, SubsettingOutcome, WorkloadEvaluation};
pub use predict::{predict_frame, FramePrediction};
pub use report::Table;
pub use shader_vector::ShaderVector;
pub use snapshot::{PipelineSnapshot, SnapshotFrame};
pub use subset::{ReplayedFrame, SelectedDraw, SelectedFrame, SubsetReplay, WorkloadSubset};
pub use suite::{subset_suite, validate_suite_scaling, SuiteOutcome};
pub use validate::{frequency_scaling_validation, pathfinding_rank_validation, ScalingValidation};
