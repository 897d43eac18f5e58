//! Clustering substrate for draw-call grouping.
//!
//! The paper groups draw-calls by performance similarity using clustering on
//! micro-architecture-independent features. This crate provides the three
//! algorithm families the methodology and its ablations use:
//!
//! * [`ThresholdClustering`] — single-pass leader clustering. The number of
//!   clusters *emerges* from a distance threshold, which matches how the
//!   paper reports clustering efficiency as a measured outcome. This is the
//!   production algorithm: O(n·k) per frame, tested eight leaders at a
//!   time, and on sorted input only against the leaders whose first
//!   coordinate is within reach.
//! * [`KMeans`] — Lloyd iterations with k-means++ seeding, plus
//!   [`select_k_bic`] (x-means-style BIC model selection) for the
//!   k-selection ablation.
//! * [`Hierarchical`] — agglomerative clustering with selectable
//!   [`Linkage`], for the algorithm ablation on single frames.
//!
//! All algorithms are deterministic given their seed and produce a common
//! [`Clustering`] result.
//!
//! Points cross into the crate as [`Points`]: one borrowed row-major
//! buffer plus its dimensionality, which is how feature matrices already
//! store them.
//!
//! On top of the raw algorithms sits the [`Subsetter`] trait: a pluggable
//! backend contract (feature vectors in, partition + representatives out)
//! with implementations for the threshold path, k-means, two-phase
//! stratified sampling and PCA + agglomerative merging. Backends fit over
//! a canonical content ordering, so their output is invariant under input
//! permutation — see [`canonical_order`].
//!
//! For streaming consumers every backend can also produce an
//! [`IncrementalFit`] ([`Subsetter::incremental`]): points arrive in chunks
//! and the fit re-emits an up-to-date partition between chunks, bit-identical
//! to the batch fit while the stream still fits in the retention reservoir.
//!
//! # Examples
//!
//! ```
//! use subset3d_cluster::{Points, ThresholdClustering};
//!
//! let data = [
//!     0.0, 0.0, //
//!     0.1, 0.0, //
//!     5.0, 5.0,
//! ];
//! let clustering = ThresholdClustering::new(1.0).fit(Points::new(&data, 2));
//! assert_eq!(clustering.len(), 2);
//! assert_eq!(clustering.assignments()[0], clustering.assignments()[1]);
//! ```

#![warn(missing_docs)]

mod bic;
mod clustering;
mod compare;
mod hierarchical;
mod incremental;
mod init;
mod kmeans;
mod medoid;
mod points;
mod subsetter;
mod threshold;

pub use bic::{bic_score, select_k_bic};
pub use clustering::Clustering;
pub use compare::{adjusted_rand_index, rand_index};
pub use hierarchical::{Hierarchical, Linkage};
pub use incremental::{IncrementalFit, OnlineKMeans, ReservoirIncremental};
pub use init::kmeans_plus_plus;
pub use kmeans::KMeans;
pub use medoid::medoid_of;
pub use points::Points;
pub use subsetter::{
    canonical_order, KMeansSubsetter, PcaAggloSubsetter, StratifiedSubsetter, Subsetter,
    SubsetterFit, ThresholdSubsetter,
};
pub use threshold::ThresholdClustering;
