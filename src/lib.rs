//! # subset3d — 3D Workload Subsetting for GPU Architecture Pathfinding
//!
//! Facade crate re-exporting the whole `subset3d` workspace: a reproduction
//! of *"3D Workload Subsetting for GPU Architecture Pathfinding"*
//! (V. George, IISWC 2015).
//!
//! GPU architecture pathfinding evaluates candidate designs by simulating 3D
//! workloads, which is prohibitively slow at full-trace granularity. The
//! paper's methodology — reproduced here — cuts simulation cost by
//!
//! 1. **clustering draw-calls** within each frame on micro-architecture
//!    independent (MAI) features and simulating only one representative per
//!    cluster, and
//! 2. **detecting phases** across frames via *shader vectors* so that only
//!    one frame interval per repeating phase need be kept,
//!
//! producing workload subsets under 1 % of the parent that track the parent's
//! behaviour under architecture changes (e.g. frequency scaling) with
//! correlation above 99 %.
//!
//! # Quickstart
//!
//! ```
//! use subset3d::prelude::*;
//!
//! // Generate a small synthetic game trace (deterministic from the seed).
//! let workload = GameProfile::shooter("demo")
//!     .frames(24)
//!     .draws_per_frame(60)
//!     .build(7)
//!     .generate();
//!
//! // Simulate it on a baseline GPU configuration.
//! let arch = ArchConfig::baseline();
//! let sim = Simulator::new(arch);
//!
//! // Run the full subsetting pipeline.
//! let subsetter = Subsetter::new(SubsetConfig::default());
//! let outcome = subsetter.run(&workload, &sim)?;
//! assert!(outcome.subset.draw_fraction() <= 1.0);
//! # Ok::<(), subset3d::core::SubsetError>(())
//! ```
//!
//! # Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`stats`] | descriptive statistics, correlation, histograms |
//! | [`trace`] | 3D API trace model + synthetic game generators |
//! | [`gpusim`] | GPU performance simulator and architecture configs |
//! | [`features`] | MAI feature extraction, normalisation, PCA |
//! | [`cluster`] | k-means / threshold / hierarchical clustering |
//! | [`core`] | the subsetting methodology itself |

#![warn(missing_docs)]

pub use subset3d_cluster as cluster;
pub use subset3d_core as core;
pub use subset3d_features as features;
pub use subset3d_gpusim as gpusim;
pub use subset3d_stats as stats;
pub use subset3d_trace as trace;

/// Convenience re-exports of the types most programs need.
pub mod prelude {
    pub use subset3d_cluster::{KMeans, Points, ThresholdClustering};
    pub use subset3d_core::{
        subset_suite, PhaseDetector, SubsetConfig, Subsetter, SubsettingOutcome, SuiteOutcome,
        WorkloadSubset,
    };
    pub use subset3d_features::{extract_frame_features, FeatureKind, Normalization};
    pub use subset3d_gpusim::{ArchConfig, FrequencySweep, PowerModel, Simulator};
    pub use subset3d_trace::gen::{standard_corpus, GameProfile};
    pub use subset3d_trace::{merge_workloads, Frame, Workload};
}
