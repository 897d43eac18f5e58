//! Micro-architecture-independent (MAI) draw-call features.
//!
//! The paper clusters draw-calls on characteristics that describe the work
//! the application submitted — never how a particular GPU executes it — so
//! that one characterisation run transfers across every candidate
//! architecture. This crate extracts those features from
//! [`subset3d_trace::DrawCall`]s, normalises them, and provides the
//! Euclidean distance between feature vectors (PCA lives in
//! `subset3d_stats`, over [`FeatureMatrix::to_rows`]).
//!
//! # Examples
//!
//! ```
//! use subset3d_features::{extract_frame_features, FeatureKind, Normalization};
//! use subset3d_trace::gen::GameProfile;
//!
//! let w = GameProfile::shooter("g").frames(2).draws_per_frame(30).build(1).generate();
//! let mut matrix = extract_frame_features(&w.frames()[0], &w, FeatureKind::standard_set());
//! matrix.normalize(Normalization::ZScore);
//! assert_eq!(matrix.rows(), w.frames()[0].draw_count());
//! ```

#![warn(missing_docs)]

mod distance;
mod extract;
mod kind;
mod matrix;
mod normalize;
mod select;
mod vector;

pub use distance::euclidean;
pub use extract::{extract_draw_features, extract_frame_features};
pub use kind::{FeatureGroup, FeatureKind};
pub use matrix::FeatureMatrix;
pub use normalize::Normalization;
pub use select::drop_group;
pub use vector::FeatureVector;
