//! Numeric statistics substrate for the `subset3d` workspace.
//!
//! This crate collects the small, dependency-free numeric routines that the
//! rest of the workspace relies on: descriptive statistics, correlation
//! coefficients, histograms and percentiles.
//!
//! All routines operate on `f64` slices, are deterministic, and define their
//! behaviour on degenerate inputs (empty slices, zero variance) explicitly
//! rather than panicking.
//!
//! # Examples
//!
//! ```
//! use subset3d_stats::{mean, pearson};
//!
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [2.1, 3.9, 6.2, 7.8];
//! assert!((mean(&xs) - 2.5).abs() < 1e-12);
//! let r = pearson(&xs, &ys).unwrap();
//! assert!(r > 0.99);
//! ```

#![warn(missing_docs)]

mod bootstrap;
mod correlation;
mod descriptive;
mod histogram;
mod pca;
mod percentile;
mod rls;
mod summary;

pub use bootstrap::{bootstrap_paired_ci, BootstrapCi};
pub use correlation::{pearson, rank_agreement, CorrelationError};
pub use descriptive::{
    geometric_mean, max, mean, mean_iter, min, population_variance, std_dev, sum, sum_iter,
    variance,
};
pub use histogram::{Histogram, HistogramBin};
pub use pca::{Pca, PcaError};
pub use percentile::{median, percentile, Percentiles};
pub use rls::Rls;
pub use summary::Summary;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.count, 100);
        assert!((s.mean - 49.5).abs() < 1e-12);
    }
}
